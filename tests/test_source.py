"""Checks on the library source itself."""

import ast
import pathlib

import fibkan

SOURCE = pathlib.Path(fibkan.__file__).resolve().parent


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a check must raise instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
