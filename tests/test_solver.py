from __future__ import annotations

import itertools
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import f2cover
from f2cover.bounds import g_smax_formula
from f2cover.constructions import lemma31_cover
from f2cover.covers import coverage_counts, verify
from f2cover.gf2core import enumerate_subspaces, solution_bits
from f2cover.solver import STATUSES, decide, solve_g, solve_min


def brute_min(n, k, d, s_min=0, s_max=None):
    """Plain enumeration over multisets in increasing size; no pruning."""
    if s_max is None:
        s_max = k - 1
    pool = enumerate_subspaces(n, d)
    pts = [tuple(solution_bits(S)) for S in pool]
    npts = 1 << n
    for m in itertools.count(1):
        for combo in itertools.combinations_with_replacement(range(len(pool)), m):
            counts = [0] * npts
            for i in combo:
                for b in pts[i]:
                    counts[b] += 1
            if min(counts[1:]) >= k and s_min <= counts[0] <= s_max:
                return m


BRUTE_CELLS = [
    (2, 1, 1, 2),
    (2, 2, 1, 3),
    (2, 3, 1, 5),
    (3, 1, 1, 3),
    (3, 2, 1, 4),
    (3, 3, 1, 6),
    (2, 1, 2, 3),
    (2, 2, 2, 6),
    (3, 1, 2, 4),
    (3, 1, 3, 7),
]


@pytest.mark.parametrize("n,k,d,expected", BRUTE_CELLS)
def test_minimum_matches_blind_enumeration(n, k, d, expected):
    assert brute_min(n, k, d) == expected
    result = solve_min(n, k, d)
    assert result.status == "optimal"
    assert result.value == expected


@pytest.mark.parametrize(
    "n,k,s", [(2, 2, 0), (2, 2, 1), (3, 2, 0), (3, 2, 1), (3, 3, 0), (3, 3, 2)]
)
def test_fixed_origin_matches_blind_enumeration(n, k, s):
    expected = brute_min(n, k, 1, s_min=s, s_max=s)
    result = solve_g(n, k, 1, s)
    assert result.status == "optimal"
    assert result.value == expected
    if s == k - 1:
        assert result.value == g_smax_formula(n, k, 1)


def test_certificates_verify_and_match_value():
    for n, k, d, _ in BRUTE_CELLS:
        result = solve_min(n, k, d)
        C = result.certificate
        assert C is not None and C.size == result.value
        report = verify(C, k)
        assert report.is_cover_for(k)
    result = solve_g(3, 3, 1, 0)
    assert coverage_counts(result.certificate)[0] == 0


def test_search_actually_branches_somewhere():
    # no construction lands in the s=0 window here, so the tree is real
    result = solve_g(3, 3, 1, 0)
    assert result.status == "optimal"
    assert result.nodes > 0
    assert result.value == brute_min(3, 3, 1, s_min=0, s_max=0)


def test_decide_boundaries():
    yes = decide(3, 3, 1, 6)
    assert yes.status == "feasible" and yes.value == 6 and yes.nodes == 0
    no = decide(3, 3, 1, 5)
    assert no.status == "infeasible" and no.value is None and no.nodes == 0
    assert no.proof_lo == 6


def test_decide_fixed_origin_window():
    swindow = decide(2, 2, 1, 3, s=1)
    assert swindow.status == "infeasible"  # g(2,2,1;1) = 4
    open_window = decide(2, 2, 1, 3, s=0)
    assert open_window.status == "feasible"
    with pytest.raises(ValueError):
        decide(2, 2, 1, 3, s=2)
    with pytest.raises(ValueError):
        decide(2, 2, 1, 3, s=1, assume_high_origin=True)


def test_golay_cell_decides_from_seed():
    result = decide(12, 8, 1, 24)
    assert result.status == "feasible" and result.nodes == 0
    assert result.certificate.size == 24


def test_high_origin_window_closes_at_root():
    result = solve_min(5, 4, 1, assume_high_origin=True)
    assert result.status == "optimal"
    assert result.value == 10
    assert result.nodes == 0
    assert result.assumptions == ("origin_count >= k-2",)


def test_unconditional_result_has_no_assumptions():
    result = solve_min(3, 2, 1)
    assert result.assumptions == ()


def test_node_budget_reports_unknown():
    result = solve_g(3, 3, 1, 0, max_nodes=0)
    assert result.status == "unknown"
    assert result.value is None


def test_extra_seed_is_validated_and_used():
    C = lemma31_cover(4, 2, 1)
    result = decide(4, 2, 1, C.size, extra_seed=C)
    assert result.status == "feasible" and result.nodes == 0
    with pytest.raises(ValueError):
        solve_min(5, 2, 1, extra_seed=C)


def test_problem_validation():
    with pytest.raises(ValueError):
        solve_min(3, 0, 1)
    with pytest.raises(ValueError):
        solve_min(3, 2, 4)
    with pytest.raises(ValueError):
        solve_g(3, 2, 1, 2)
    with pytest.raises(ValueError):
        decide(3, 2, 1, -1)


def test_result_json_shape():
    result = solve_min(3, 2, 1)
    doc = result.to_json()
    assert doc["status"] in STATUSES
    assert doc["value"] == 4
    assert doc["certificate"]["entries"]
    assert doc["assumptions"] == []


def test_certificate_check_survives_python_O():
    # A search that reports a non-covering multiset must be refused even
    # when the interpreter strips assert statements.
    code = textwrap.dedent("""
        from types import SimpleNamespace
        from f2cover.gf2core import enumerate_subspaces
        from f2cover.solver import _certificate
        if __debug__:
            raise SystemExit("not running under -O")
        pool = enumerate_subspaces(3, 1)
        wrong = SimpleNamespace(
            pool=pool, best_mult=[1] + [0] * (len(pool) - 1), k=2, s_min=0, s_max=1
        )
        try:
            _certificate(wrong)
        except AssertionError:
            raise SystemExit(0)
        raise SystemExit("non-covering certificate accepted")
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(f2cover.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
