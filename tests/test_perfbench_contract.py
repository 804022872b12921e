"""The names and call shapes the benchmark in ``perfbench/`` relies on.

perfbench traces ``doew`` from outside the package: it looks up every name of
``tracing.TRACED`` in its ``doew.<layer>`` module, binds the arguments of two
traced calls by name, and times a cold start that calls ``cli.build_parser()``.
A rename or a new required argument would break the benchmark, not the suite;
these tests read ``perfbench/`` and change nothing there.
"""

import ast
import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_constant(name: str):
    """A module-level constant of perfbench/run.py, read without importing it."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise LookupError(f"{name} is not assigned in perfbench/run.py")


TRACED = [(layer, name) for layer, names in load_tracing().TRACED.items()
          for name in names]


@pytest.mark.parametrize("layer, name", TRACED, ids=[f"{l}.{n}" for l, n in TRACED])
def test_every_traced_name_resolves(layer, name):
    target = getattr(importlib.import_module(f"doew.{layer}"), name, None)
    assert callable(target), f"doew.{layer}.{name} is gone"


@pytest.mark.parametrize("layer, name, arguments", [
    ("states", "build_mixture", ("weights", "theta")),
    ("witness", "separability_floor_check", ("samples", "optimize_partner")),
])
def test_bound_arguments_exist(layer, name, arguments):
    parameters = inspect.signature(
        getattr(importlib.import_module(f"doew.{layer}"), name)).parameters
    assert set(arguments) <= set(parameters)


def test_cold_start_builds_the_parser_without_arguments():
    code = run_constant("SETUP_CODE")
    assert "build_parser()" in code
    done = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
