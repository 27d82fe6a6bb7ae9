"""No test-only keyword knobs: every keyword-only parameter of a package
function is passed by that keyword somewhere in the package itself, so no
option exists that only tests set; no such parameter is a constant in
disguise, passed by every call in the package as one and the same literal;
and no default of it, or of a positional-or-keyword parameter, exists that
only calls from outside the package use."""

from __future__ import annotations

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).parents[1] / "src" / "dipolewell"


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
