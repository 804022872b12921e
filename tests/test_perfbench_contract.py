"""The names and call shapes the benchmark in ``perfbench/`` relies on.

perfbench traces ``doew`` from outside the package: it looks up every name of
``tracing.TRACED`` in its ``doew.<layer>`` module, binds the arguments of two
traced calls by name, times a cold start that calls ``cli.build_parser()`` and
passes the command lines of ``workloads.py`` to ``cli.main``.  A rename, a new
required argument or a flag grammar that refuses what the benchmark writes
would break the benchmark, not the suite; these tests read ``perfbench/`` and
change nothing there.
"""

import ast
import importlib
import importlib.util
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

from doew import cli

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_perfbench(stem: str):
    """perfbench/<stem>.py as a module, without putting perfbench/ on the path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{stem}",
                                                  PERFBENCH / f"{stem}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up there
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


TRACED = [(layer, name) for layer, names in load_perfbench("tracing").TRACED.items()
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


@pytest.mark.parametrize("workload", ["sweep_alpha", "sweep_q1", "witness_floor"])
def test_benchmark_requests_parse(tmp_path, workload):
    # a request the parser refuses counts against the benchmark's passed_frac,
    # so no tightening of the flag grammar may refuse what the benchmark writes
    make = load_perfbench("workloads").WORKLOADS[workload].make
    parser = cli._shared_parser()
    for seed in (1, 2, 3):
        for index in range(50):
            parser.parse_args(make(seed, index, str(tmp_path)).argv)
