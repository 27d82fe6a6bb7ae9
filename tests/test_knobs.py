"""No test-only keyword knobs: every keyword-only parameter of a package
function is passed by that keyword somewhere in the package itself, so no
option exists that only tests set."""

from __future__ import annotations

import ast
import pathlib

PACKAGE = pathlib.Path(__file__).parents[1] / "src" / "dipolewell"


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
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                passed.update((name, k.arg) for k in node.keywords if k.arg)
    return declared, passed


def test_keyword_knobs_sees_declarations_and_calls():
    tree = ast.parse("def f(a, *, used, unused=0): pass\nf(1, used=2)\nm.f(3, used=4)\n")
    declared, passed = keyword_knobs({"m": tree})
    assert declared - passed == {("f", "unused")}


def test_every_keyword_only_parameter_is_passed_in_the_package():
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    declared, passed = keyword_knobs(trees)
    assert not declared - passed, sorted(declared - passed)
