"""Invariants in the library raise named errors: ``python -O`` strips asserts."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "vforge"


def test_library_has_no_assert_statements():
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert list(SOURCE.rglob("*.py")) and not found, found
