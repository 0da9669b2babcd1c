"""Checks on the package source itself."""
import ast
from pathlib import Path

import sumess

SOURCES = sorted(Path(sumess.__file__).resolve().parent.glob("*.py"))


def test_no_assert_statements():
    # `python -O` strips assert statements, so invariant checks in the
    # package raise explicitly instead
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
