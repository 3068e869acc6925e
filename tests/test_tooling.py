"""Checks on the package source itself."""

from __future__ import annotations

import argparse
import ast
import importlib
import io
import json
import pkgutil
import re
import shlex
import sys
from pathlib import Path
from types import ModuleType

import pytest

import f2cover
from f2cover.cli import build_parser, run
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


def test_solver_reads_bounds_through_public_names():
    # the solver reads every lower bound through the table lb_g, and
    # exact_thm_a for its seeds, not through the rule rows behind them
    path = Path(f2cover.__file__).with_name("solver.py")
    found = [
        alias.name
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.ImportFrom) and node.module == "bounds"
        for alias in node.names
    ]
    assert sorted(found) == ["exact_thm_a", "lb_g"]


def test_all_names_exactly_the_public_bindings():
    # a name dropped from the imports but left in __all__ would break
    # `from f2cover import *`; one bound but unlisted is not public
    bound = {
        name
        for name, value in vars(f2cover).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(f2cover.__all__) == sorted(bound)


def test_every_public_name_has_its_own_docstring():
    # a dataclass with no docstring gets its generated signature as one
    docs = {name: getattr(f2cover, name).__doc__ or "" for name in f2cover.__all__}
    assert [name for name, doc in docs.items() if not doc.strip() or doc.startswith(f"{name}(")] == []


def test_reference_forks_stay_out_of_src():
    # tests/gf2_reference.py holds the independent references the tests
    # check the package against; none may drift back into the package, as
    # a module function or as a method of one of its classes
    path = Path(__file__).with_name("gf2_reference.py")
    defined = {
        node.name for node in ast.parse(path.read_text()).body if isinstance(node, ast.FunctionDef)
    }
    found = []
    for info in pkgutil.iter_modules(f2cover.__path__):
        module = importlib.import_module(f"f2cover.{info.name}")
        classes = [v for v in vars(module).values() if isinstance(v, type)]
        for scope in [module, *classes]:
            found += [f"{info.name}: {name}" for name in defined if hasattr(scope, name)]
    assert defined and found == []


def test_node_loop_holds_no_cell_variables():
    # A closure inside the search loop or the branching rule (a generator
    # over self, say) would make its captured names cell variables, read
    # indirectly at every node.
    assert _Search.run.__code__.co_cellvars == ()
    assert _Search.children.__code__.co_cellvars == ()


def test_solve_and_decide_share_their_flags():
    # solve and decide take one flag block; only decide's --size and
    # solve's --assume-high-origin tell them apart
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]

    def flags(name):
        return {s for a in sub.choices[name]._actions for s in a.option_strings}

    assert flags("solve") ^ flags("decide") == {"--size", "--assume-high-origin"}
    assert {"--n", "--s-max", "--budget-nodes", "--seed-cover", "--out"} <= flags("solve")


def test_src_parses_under_the_declared_python_floor():
    # requires-python names the oldest interpreter the package supports;
    # the suite itself may run on a newer one, so parse every module with
    # that version's grammar
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    spec = tomllib.loads(pyproject.read_text())["project"]["requires-python"]
    assert spec.startswith(">=")
    floor = tuple(int(part) for part in spec[2:].split("."))
    for path in sorted(Path(f2cover.__file__).parent.glob("*.py")):
        ast.parse(path.read_text(), filename=str(path), feature_version=floor)


def test_readme_examples_run(monkeypatch, capsys):
    # the README's python block runs as written, and each f2cover line of
    # its command block exits as its comment says, pipes feeding stdin
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```(\w+)\n(.*?)^```", readme, re.M | re.S)
    (python,) = [text for lang, text in blocks if lang == "python"]
    exec(python, {})
    capsys.readouterr()
    (commands,) = [text for lang, text in blocks if lang == "sh" and "f2cover " in text]
    lines = [line for line in commands.splitlines() if line.startswith("f2cover ")]
    assert len(lines) == 7
    for line in lines:
        pipeline, _, comment = line.partition("#")
        out = ""
        codes = []
        for stage in pipeline.split("|"):
            argv = shlex.split(stage)
            assert argv[0] == "f2cover"
            monkeypatch.setattr(sys, "stdin", io.StringIO(out))
            codes.append(run(argv[1:]))
            out = capsys.readouterr().out
        assert codes == [0] * (len(codes) - 1) + [1 if "exit 1" in comment else 0], line
        if argv[1:] == ["solve", "--n", "5", "--k", "4"]:
            doc = json.loads(out)
            assert (doc["value"], doc["nodes"]) == (10, 533)
