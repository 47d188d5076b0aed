"""Checks on the library's source text."""

import ast
from pathlib import Path

import impact

SOURCES = sorted(Path(impact.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    """Invariants raise explicit errors: `python -O` strips assert statements."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 1
    assert found == []
