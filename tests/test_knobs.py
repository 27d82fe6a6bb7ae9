"""No test-only keyword knobs: every keyword-only parameter of a package
function is passed by that keyword somewhere in the package itself, so no
option exists that only tests set; no such parameter is a constant in
disguise, passed by every call in the package as one and the same literal;
and no default of it, or of a positional-or-keyword parameter, exists that
only calls from outside the package use.

No test-only code either: every function and class of the package is named
somewhere in the package outside its own body and ``__init__.py``, or by an
acceptance criterion; and every ``special`` function that ``eval`` calls is
one that a route, another command or a criterion names too.

No unread fields: every field of a NamedTuple or dataclass of the package is
read as an attribute somewhere other than its declaration, by the package
(its own methods too), an acceptance criterion or the benchmark.

No shared mutable state or caching, as the README promises: no ``global`` or
``nonlocal`` statement and no ``cache``, ``lru_cache`` or ``cached_property``
decorator anywhere in the package.

No verdicts in the CLI: ``cli.py`` constructs no exception class of
``errors.py``, so every check that fails with a package error is the
library's; re-raising an error a route recorded stays allowed."""

from __future__ import annotations

import ast
import pathlib
from collections import Counter

PACKAGE = pathlib.Path(__file__).parents[1] / "src" / "dipolewell"
ACCEPTANCE = pathlib.Path(__file__).parent / "test_acceptance.py"
PERFBENCH = pathlib.Path(__file__).parents[1] / "perfbench"


def _callee(node: ast.Call) -> str | None:
    return getattr(node.func, "id", None) or getattr(node.func, "attr", None)


def keyword_knobs(trees: dict[str, ast.Module]) -> tuple[set, set]:
    """(declared, passed): (function name, keyword) pairs of every keyword-only
    parameter, and of every keyword passed in a call, the callee named by its
    bare or attribute name."""
    declared, passed = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                declared.update((node.name, a.arg) for a in node.args.kwonlyargs)
            elif isinstance(node, ast.Call):
                passed.update((_callee(node), k.arg) for k in node.keywords if k.arg)
    return declared, passed


def _literal(node: ast.expr | None) -> str | None:
    """repr of a literal argument; None for an omitted or computed one."""
    try:
        return repr(ast.literal_eval(node)) if node is not None else None
    except ValueError:
        return None


def constant_knobs(trees: dict[str, ast.Module]) -> set:
    """(function name, keyword) pairs of keyword-only parameters that every
    call in the package passes, always as the same literal."""
    declared, _ = keyword_knobs(trees)
    seen: dict[tuple, set] = {}  # per knob, the _literal of its argument at each call
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                given = {k.arg: k.value for k in node.keywords}  # **kw: key None
                for knob in declared:
                    if knob[0] == _callee(node):
                        value = None if None in given else _literal(given.get(knob[1]))
                        seen.setdefault(knob, set()).add(value)
    return {knob for knob, values in seen.items() if len(values) == 1 and None not in values}


def unused_defaults(trees: dict[str, ast.Module]) -> set:
    """(function name, parameter) pairs of keyword-only and positional-or-keyword
    parameters with a default that no call in the package leaves out.  A call
    leaves a parameter out when it does not pass its keyword and, for one
    that may be positional, passes no more positional arguments than the
    parameter's index (a leading self or cls not counted).  A call with *args
    or **kw may pass any parameter, so it leaves none out."""
    defaulted = set()  # (function name, parameter, index or None if keyword-only)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                params = node.args.args
                skip = 1 if params and params[0].arg in ("self", "cls") else 0
                first = len(params) - len(node.args.defaults)
                defaulted.update((node.name, a.arg, i - skip)
                                 for i, a in enumerate(params) if i >= first)
                defaulted.update((node.name, a.arg, None) for a, d in
                                 zip(node.args.kwonlyargs, node.args.kw_defaults) if d)
    relied = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and all(k.arg for k in node.keywords)
                    and not any(isinstance(a, ast.Starred) for a in node.args)):
                given = {k.arg for k in node.keywords}
                relied.update(knob for knob in defaulted
                              if knob[0] == _callee(node) and knob[1] not in given
                              and (knob[2] is None or len(node.args) <= knob[2]))
    return {knob[:2] for knob in defaulted - relied}


def test_keyword_knobs_sees_declarations_and_calls():
    tree = ast.parse("def f(a, *, used, unused=0): pass\nf(1, used=2)\nm.f(3, used=4)\n")
    declared, passed = keyword_knobs({"m": tree})
    assert declared - passed == {("f", "unused")}


def test_constant_knobs_sees_one_literal_everywhere():
    # tol is 0.5 at every call; mode is left at its default once
    tree = ast.parse("def f(a, *, tol=1.0, mode=None): pass\nf(1, tol=0.5, mode=2)\n"
                     "m.f(3, tol=0.5)\n")
    assert constant_knobs({"m": tree}) == {("f", "tol")}


def test_unused_defaults_sees_defaults_every_call_passes():
    # tol is passed at every call; mode is left out once, by f(1, ...) alone
    tree = ast.parse("def f(a, *, tol=1.0, mode=None, k): pass\nf(1, tol=0.5, k=2)\n"
                     "m.f(3, tol=0.5, mode=2, k=3)\nf(4, **kw)\n")
    assert unused_defaults({"m": tree}) == {("f", "tol")}


def test_unused_defaults_sees_positional_defaults():
    # b is passed at every call, by position or keyword, c left out by f(1, 2);
    # k.g(1) passes d and leaves out e; h(*xs) may pass x, h2() leaves y out
    tree = ast.parse("def f(a, b=1, c=2): pass\nf(1, 2)\nm.f(0, b=2)\n"
                     "class K:\n    def g(self, d=0, e=1): pass\nk.g(1)\n"
                     "def h(x=0): pass\nh(*xs)\ndef h2(y=0): pass\nh2()\n")
    assert unused_defaults({"m": tree}) == {("f", "b"), ("g", "d"), ("h", "x")}


def _names(tree: ast.AST) -> Counter:
    """How often each bare name occurs in tree as a name or an attribute."""
    return Counter(getattr(node, "id", None) or node.attr for node in ast.walk(tree)
                   if isinstance(node, (ast.Name, ast.Attribute)))


def _definitions(trees: dict[str, ast.Module]) -> list[tuple[str, ast.AST]]:
    """(module, node) of every function and class outside __init__.py."""
    return [(module, node) for module, tree in trees.items() if module != "__init__.py"
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]


def _package_names(trees: dict[str, ast.Module]) -> Counter:
    """_names of the package outside __init__.py."""
    return sum((_names(tree) for module, tree in trees.items() if module != "__init__.py"),
               Counter())


def unreferenced_definitions(trees: dict[str, ast.Module], acceptance: ast.Module) -> set:
    """(module, name) of functions and classes that no code in the package
    outside their own body and __init__.py names, and no acceptance criterion
    either.  Dunder methods are exempt: Python calls them."""
    criteria, named = _names(acceptance), _package_names(trees)
    return {(module, node.name) for module, node in _definitions(trees)
            if not (node.name.startswith("__") and node.name.endswith("__"))
            and node.name not in criteria and named[node.name] == _names(node)[node.name]}


def eval_only_functions(trees: dict[str, ast.Module], acceptance: ast.Module) -> set:
    """special.<name> that cli.cmd_eval calls and that nothing else names: no
    code in the package outside cmd_eval, the name's own definition and
    __init__.py, and no acceptance criterion."""
    cmd_eval = next(node for node in ast.walk(trees["cli.py"])
                    if isinstance(node, ast.FunctionDef) and node.name == "cmd_eval")
    called = {node.func.attr for node in ast.walk(cmd_eval)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and getattr(node.func.value, "id", None) == "special"}
    criteria, named = _names(acceptance), _package_names(trees) - _names(cmd_eval)
    for _, node in _definitions(trees):
        if node.name in called:
            named -= Counter({node.name: _names(node)[node.name]})
    return {name for name in called if name not in criteria and not named[name]}


def test_unreferenced_definitions_sees_self_and_init_references_only():
    # f names only itself and g nothing; h is named by g, K by a criterion, and
    # __repr__ is Python's to call
    trees = {"m.py": ast.parse("def f(): return f()\ndef g(): return h()\ndef h(): pass\n"
                               "class K:\n    def __repr__(self): return 'K'\n"),
             "__init__.py": ast.parse("from .m import f, g\n")}
    acceptance = ast.parse("from m import K\nK()\n")
    assert unreferenced_definitions(trees, acceptance) == {("m.py", "f"), ("m.py", "g")}


def test_eval_only_functions_sees_what_eval_alone_names():
    # eval calls f, g and k; h uses f, a criterion uses k, and g names only itself
    trees = {"cli.py": ast.parse("def cmd_eval(ns):\n    special.f(1)\n    special.g(2)\n"
                                 "    special.k(3)\n    other.x(4)\n"),
             "special.py": ast.parse("def f(): pass\ndef g(): return g()\ndef h(): f()\n"
                                     "def k(): pass\n"),
             "__init__.py": ast.parse("from .special import g\n")}
    acceptance = ast.parse("special.k(1)\n")
    assert eval_only_functions(trees, acceptance) == {"g"}


def _reads(tree: ast.AST) -> Counter:
    """How often each bare name is read in tree as an attribute."""
    return Counter(node.attr for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))


def _is_record(node: ast.ClassDef) -> bool:
    """A NamedTuple subclass or a dataclass, by its base's or decorator's name."""
    marks = [*node.bases, *(d.func if isinstance(d, ast.Call) else d
                            for d in node.decorator_list)]
    return any((getattr(m, "id", None) or getattr(m, "attr", None)) in ("NamedTuple", "dataclass")
               for m in marks)


def unread_fields(trees: dict[str, ast.Module], readers: list[ast.Module]) -> set:
    """(module, class, field) of the annotated fields of NamedTuples and
    dataclasses in the package that no package code and no reader reads as
    an attribute.  A read by the class's own methods counts: the definitions
    rule above makes every method named outside its body."""
    read = sum((_reads(tree) for tree in (*trees.values(), *readers)), Counter())
    return {(module, node.name, stmt.target.id) for module, node in _definitions(trees)
            if isinstance(node, ast.ClassDef) and _is_record(node)
            for stmt in node.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and not read[stmt.target.id]}


def test_unread_fields_sees_attribute_reads_only():
    # f reads D.a, D's own method D.c and a reader N.b; D.z is never read, N.d
    # only written, and Plain.e is not a NamedTuple's or a dataclass's field
    trees = {"m.py": ast.parse(
        "@dataclass(frozen=True)\nclass D:\n    a: int\n    c: int\n    z: int = 0\n"
        "    def g(self): return self.c\n"
        "class N(typing.NamedTuple):\n    b: int\n    d: int\n"
        "class Plain:\n    e: int\n"
        "def f(x): return x.a\ndef h(n): n.d = 1\n")}
    readers = [ast.parse("print(n.b)\n")]
    assert unread_fields(trees, readers) == {("m.py", "D", "z"), ("m.py", "N", "d")}


CACHE_DECORATORS = ("cache", "lru_cache", "cached_property")


def shared_state(trees: dict[str, ast.Module]) -> set:
    """(module, line, what) of every global or nonlocal statement and every
    decorator named in CACHE_DECORATORS, bare, called or as an attribute
    (functools.lru_cache(maxsize=None) too)."""
    found = set()
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                found.add((module, node.lineno, type(node).__name__.lower()))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for mark in node.decorator_list:
                    mark = mark.func if isinstance(mark, ast.Call) else mark
                    name = getattr(mark, "id", None) or getattr(mark, "attr", None)
                    if name in CACHE_DECORATORS:
                        found.add((module, mark.lineno, name))
    return found


def test_shared_state_sees_globals_nonlocals_and_cache_decorators():
    # property and a frozen dataclass are not caches; a variable named cache
    # is not a decorator
    tree = ast.parse(
        "def f():\n    global G\n    n = 0\n    def g():\n        nonlocal n\n"
        "@functools.lru_cache(maxsize=None)\ndef h(): pass\n"
        "@cache\ndef k(): pass\n"
        "class C:\n    @functools.cached_property\n    def p(self): pass\n"
        "    @property\n    def q(self): pass\n"
        "@dataclass(frozen=True)\nclass D: pass\n"
        "cache = {}\n")
    assert shared_state({"m.py": tree}) == {
        ("m.py", 2, "global"), ("m.py", 5, "nonlocal"), ("m.py", 6, "lru_cache"),
        ("m.py", 8, "cache"), ("m.py", 11, "cached_property")}


def constructed_errors(tree: ast.Module, errors: ast.Module) -> set:
    """(line, name) of every call in tree to a class that errors defines, the
    callee named by its bare or attribute name."""
    classes = {node.name for node in ast.walk(errors) if isinstance(node, ast.ClassDef)}
    return {(node.lineno, _callee(node)) for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _callee(node) in classes}


def test_constructed_errors_sees_calls_not_raises_or_catches():
    # Base(...) and errors.Sub() construct; catching Sub, re-raising a recorded
    # error, isinstance and a builtin ValueError do not
    errors = ast.parse("class Base(Exception): pass\nclass Sub(Base): pass\n")
    tree = ast.parse("try:\n    f()\nexcept Sub as exc:\n    raise Base('x') from exc\n"
                     "raise errors.Sub()\nraise error\nisinstance(e, Base)\nValueError('y')\n")
    assert constructed_errors(tree, errors) == {(4, "Base"), (5, "Sub")}


def _package_trees() -> dict[str, ast.Module]:
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def test_every_keyword_only_parameter_is_passed_in_the_package():
    declared, passed = keyword_knobs(_package_trees())
    assert not declared - passed, sorted(declared - passed)


def test_no_keyword_only_parameter_is_a_constant_in_the_package():
    knobs = constant_knobs(_package_trees())
    assert not knobs, sorted(knobs)


def test_every_keyword_only_default_is_used_in_the_package():
    unused = unused_defaults(_package_trees())
    assert not unused, sorted(unused)


def test_every_definition_is_named_outside_the_tests():
    unused = unreferenced_definitions(_package_trees(), ast.parse(ACCEPTANCE.read_text()))
    assert not unused, sorted(unused)


def test_eval_exposes_only_what_a_route_or_criterion_uses():
    only = eval_only_functions(_package_trees(), ast.parse(ACCEPTANCE.read_text()))
    assert not only, sorted(only)


def test_every_record_field_is_read():
    readers = [ast.parse(path.read_text(encoding="utf-8"))
               for path in (ACCEPTANCE, *sorted(PERFBENCH.glob("*.py")))]
    unread = unread_fields(_package_trees(), readers)
    assert not unread, sorted(unread)


def test_no_shared_mutable_state_or_caching():
    found = shared_state(_package_trees())
    assert not found, sorted(found)


def test_cli_constructs_no_package_error():
    trees = _package_trees()
    found = constructed_errors(trees["cli.py"], trees["errors.py"])
    assert not found, sorted(found)
