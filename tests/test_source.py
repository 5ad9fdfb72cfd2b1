"""Properties of the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import poisdef

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
