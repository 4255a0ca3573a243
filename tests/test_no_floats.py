"""The library is exact: no float literal and no call to ``float`` in its source."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "vforge"


def _inexact(node) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (float, complex))
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float"


def test_library_has_no_float_literals_or_float_calls():
    found = []
    for path in sorted(SOURCE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if _inexact(node)]
    assert list(SOURCE.rglob("*.py")) and not found, found
