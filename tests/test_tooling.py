"""Checks on the source tree itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "symprep"


def test_no_assert_statements_in_the_package():
    """`python -O` strips assert statements, so a cross-check written as one
    would silently vanish; the package raises InternalConsistencyError."""
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
