"""Source-level rules for the package."""

import ast
from pathlib import Path

import treelines

SRC = Path(treelines.__file__).parent


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so a postcondition the program
    # relies on must raise an error instead
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, found
