"""Checks on the package's source text."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tvsource"


def test_package_has_no_assert():
    # runtime invariants are explicit checks that raise, since python -O
    # strips assert statements
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [f"{path.name}:{node.lineno}" for path in paths
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
