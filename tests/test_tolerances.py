"""The README's Tolerances table lists exactly the package's tolerance constants."""

import ast
import importlib
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONSTANT = re.compile(r"[A-Z0-9_]+_(TOL|FLOOR)$")
ROW = re.compile(r"^\| `(\w+)` \| `(\w+)` \| ([^|]+) \|")


def documented() -> dict:
    """{(name, module): value} from the rows of the README's Tolerances section."""
    section = ROOT.joinpath("README.md").read_text().split("## Tolerances", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = (ROW.match(line) for line in section.splitlines())
    return {(m[1], m[2]): float(m[3]) for m in rows if m}


def defined() -> dict:
    """{(name, module): value} of every module-level *_TOL and *_FLOOR assignment."""
    found = {}
    for path in sorted(ROOT.joinpath("src", "doew").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            for target in getattr(node, "targets", ()):
                if isinstance(target, ast.Name) and CONSTANT.match(target.id):
                    module = importlib.import_module(f"doew.{path.stem}")
                    found[(target.id, path.stem)] = getattr(module, target.id)
    return found


def test_tolerance_table_matches_the_constants():
    assert documented() == defined()
