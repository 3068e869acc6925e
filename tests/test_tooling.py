"""Checks on the package source itself."""

from __future__ import annotations

import ast
from pathlib import Path

import f2cover


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so none may guard a result
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(f2cover.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
