"""Properties of the package source itself."""

from __future__ import annotations

import ast
import inspect
from pathlib import Path

import poisdef
from poisdef.multivec import WeightSlice

SOURCE_DIR = Path(poisdef.__file__).resolve().parent


def test_no_assert_statements_in_package():
    """Invariants raise real exceptions: ``python -O`` strips asserts."""
    found = []
    for path in sorted(SOURCE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert list(SOURCE_DIR.glob("*.py")), "package sources not found"
    assert not found, f"assert statements in src/poisdef: {found}"



def test_eliminator_built_only_by_the_slice_layer():
    """Every exact elimination runs through WeightSlice: no module but
    linalg and the one defining WeightSlice constructs an Eliminator."""
    slice_module = Path(inspect.getsourcefile(WeightSlice)).name
    builders = set()
    for path in sorted(SOURCE_DIR.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "Eliminator" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                builders.add(path.name)
    assert slice_module in builders
    assert builders <= {"linalg.py", slice_module}, builders
