"""Checks on the package source itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path
from types import ModuleType

import f2cover
from f2cover.solver import _Search


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so none may guard a result
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(f2cover.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_src_imports_only_the_standard_library():
    # the package has no runtime dependencies: every import names the
    # standard library or the package itself
    allowed = set(sys.stdlib_module_names) | {"f2cover"}
    found = []
    for path in sorted(Path(f2cover.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name.split(".")[0] not in allowed]
    assert found == []


def test_all_names_exactly_the_public_bindings():
    # a name dropped from the imports but left in __all__ would break
    # `from f2cover import *`; one bound but unlisted is not public
    bound = {
        name
        for name, value in vars(f2cover).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(f2cover.__all__) == sorted(bound)


def test_node_loop_holds_no_cell_variables():
    # A closure inside the search loop or the branching rule (a generator
    # over self, say) would make its captured names cell variables, read
    # indirectly at every node.
    assert _Search.run.__code__.co_cellvars == ()
    assert _Search.children.__code__.co_cellvars == ()
