"""Route independence: the numeric oracle and the analytic routes share only
the model, so their cross-check compares two independent computations."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

PACKAGE = pathlib.Path(__file__).parents[1] / "src" / "dipolewell"
DEEP_CFG = pathlib.Path(__file__).parent / "golden" / "deep.cfg"


def package_imports(module: str) -> set[str]:
    """Sibling modules that `module` imports, in any import form."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "dipolewell" and len(parts) > 1:
                    found.add(parts[1])
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and node.module and node.module.split(".")[0] == "dipolewell":
                base = node.module.split(".")[1:]
            elif node.level == 1:
                base = node.module.split(".") if node.module else []
            else:
                continue
            # `from . import x` and `from dipolewell import x` name modules themselves
            found.update(base[:1] or [alias.name for alias in node.names])
    return found


def test_package_imports_sees_every_form():
    assert {"errors", "model"} <= package_imports("oracle")
    assert {"oracle", "spectrum", "solve"} <= package_imports("cli")


def test_oracle_imports_no_analytic_route():
    assert not package_imports("oracle") & {"special", "spectrum", "solve"}


@pytest.mark.parametrize("module", ["special", "spectrum", "model"])
def test_analytic_modules_import_no_oracle(module):
    assert "oracle" not in package_imports(module)


def test_perfbench_tracer_targets_resolve():
    # perfbench --trace 1 wraps these attributes by name; a rename must fail here
    path = pathlib.Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, _, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_no_module_names_numpy_random():
    # numpy 2 loads numpy.random lazily, at 11-18 ms of a fresh process, and
    # its Generator streams may change between the numpy versions accepted
    named = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [f"{'numpy' if node.value.id == 'np' else node.value.id}.{node.attr}"]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module:
                names = [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            named += [(path.name, node.lineno) for name in names
                      if f"{name}.".startswith("numpy.random.")]
    assert named == []


def test_oracle_commands_never_import_numpy_random():
    # numpy 2 imports numpy.random on first use only, numpy 1 with numpy itself
    run = (
        "import contextlib, io, json, sys\n"
        "import numpy\n"
        "before = 'numpy.random' in sys.modules\n"
        "from dipolewell import cli\n"
        "for argv in json.loads(sys.argv[1]):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert cli.main(argv) == 0, argv\n"
        "print(before, 'numpy.random' in sys.modules)\n"
    )
    argvs = [["validate", "--config", str(DEEP_CFG), "--nmax", "2"],
             ["spectrum", "--config", str(DEEP_CFG), "--route", "oracle"]]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", run, json.dumps(argvs)], env=env,
                          capture_output=True, text=True, check=True)
    before, after = done.stdout.split()
    assert after == before
