from __future__ import annotations

import functools
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import textwrap
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

import f2cover
from f2cover.bounds import _closed_form_rules, _lo, g_smax_formula, lb_origin_exactly
from f2cover.constructions import lemma31_cover
from f2cover.covers import coverage_counts, verify
from f2cover.gf2core import AffineSubspace, enumerate_subspaces, linear_systems
from f2cover import covers as covers_module
from f2cover import solver as solver_module
from f2cover.solver import (STATUSES, _BudgetExhausted, _direction_lb_table, _Search, decide,
                            solve_g, solve_min)
from gf2_reference import solution_bits


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


def milp_g(n, k, s):
    """Least size of a hyperplane (k,1;s)-cover of F_2^n, as an integer
    program over all affine hyperplanes solved by scipy's HiGHS milp."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    planes = [(u, c) for u in range(1, 1 << n) for c in (0, 1)]
    incidence = np.array(
        [[(p & u).bit_count() % 2 == c for u, c in planes] for p in range(1 << n)],
        dtype=float,
    )
    lower = np.full(1 << n, float(k))
    upper = np.full(1 << n, np.inf)
    lower[0] = upper[0] = s
    res = milp(
        c=np.ones(len(planes)),
        constraints=LinearConstraint(incidence, lower, upper),
        integrality=np.ones(len(planes)),
        bounds=Bounds(0, k),
    )
    assert res.status == 0, res.message
    return round(res.fun)


LONG = os.environ.get("F2COVER_LONG") == "1"

ORACLE_CELLS = [(n, k, s) for n in range(1, 5) for k in range(1, 7) for s in range(k)] + [(5, 3, 1)]
# HiGHS takes about 15 s on g(5,3,1;0) and about 245 s on g(5,3,1;2)
LONG_ORACLE_CELLS = [
    pytest.param(5, 3, s, marks=[
        pytest.mark.slow,
        pytest.mark.skipif(not LONG, reason="set F2COVER_LONG=1 to run the long oracle cells"),
    ])
    for s in (0, 2)
]


@pytest.mark.parametrize("n,k,s", ORACLE_CELLS + LONG_ORACLE_CELLS)
def test_fixed_origin_matches_highs(n, k, s):
    # an oracle that shares no code with the solver; scipy is not a dependency
    pytest.importorskip("scipy")
    result = solve_g(n, k, 1, s)
    assert result.status == "optimal"
    assert result.value == milp_g(n, k, s)


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


def test_node_counts_are_pinned():
    # Node counts are deterministic: a change in them is a change in the search.
    small = solve_g(3, 3, 1, 0)
    assert (small.status, small.value, small.nodes) == ("optimal", 6, 6)
    full = solve_g(4, 3, 1, 0)
    assert (full.status, full.value, full.nodes) == ("optimal", 7, 48)


def test_witness_scale_node_counts_are_pinned():
    # d >= 2 pools of 10,668 to 94,488 subspaces, searched to a first witness
    wide = decide(7, 3, 2, 16, s=0)
    assert (wide.status, wide.value, wide.nodes) == ("feasible", 16, 16)
    wider = decide(8, 3, 2, 18, s=0)
    assert (wider.status, wider.value, wider.nodes) == ("feasible", 18, 18)
    deep = decide(6, 3, 3, 25, s=0)
    assert (deep.status, deep.value, deep.nodes) == ("feasible", 25, 25)
    deeper = decide(7, 3, 3, 27, s=0)
    assert (deeper.status, deeper.value, deeper.nodes) == ("feasible", 27, 27)


def test_benchmark_node_counts_are_pinned():
    # The eight cells of the prove and witness benchmark workloads.  A change
    # in how candidates tie (member index at d=1, system index at d >= 2) or
    # in the root bound at each origin count moves these while the small pins
    # above still pass.  g(5,3,1;0) meets its CodeLength root bound after 9.
    proofs = [
        decide(5, 4, 1, 9, s=0), solve_g(5, 3, 1, 0), solve_g(4, 5, 1, 2), solve_g(4, 6, 1, 1)
    ]
    assert [r.nodes for r in proofs] == [533, 9, 2_643, 5_198]
    witnesses = [
        decide(7, 3, 2, 16, s=0), decide(8, 3, 2, 18, s=0),
        decide(6, 3, 3, 25, s=0), decide(7, 3, 3, 27, s=0),
    ]
    assert [r.nodes for r in witnesses] == [16, 18, 25, 27]


def test_find_first_builds_few_member_masks(monkeypatch):
    # A member's point mask is built when a node scores or places it, so a
    # find-first run over 10,668 members builds about one per node.
    built = []

    class Recorded(_Search):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self)

    monkeypatch.setattr(solver_module, "_Search", Recorded)
    result = decide(7, 3, 2, 16, s=0)
    (search,) = built
    assert (result.status, result.nodes, len(search.masks)) == ("feasible", 16, 10_668)
    assert sum(1 for m in search.masks if m) <= result.nodes + 1


def test_each_seed_is_verified_once(monkeypatch):
    # lemma31_cover and smax_cover verify themselves as they are built;
    # _best_seed reads their origin counts from the entries.  Every verify
    # is one full pass over the 2^16 points.
    passes = []
    profile = covers_module._profile_bytes
    monkeypatch.setattr(covers_module, "_profile_bytes", lambda C: passes.append(C) or profile(C))
    best = solver_module._best_seed(16, 3, 1, 0, 2, None, None)
    assert len(passes) == 2
    monkeypatch.setattr(covers_module, "_profile_bytes", profile)
    assert best == passes[0] == lemma31_cover(16, 3, 1)
    # the entry count agrees with verify, and each window takes what fits
    assert [verify(C, 3).origin_count for C in passes] == [1, 2]
    assert solver_module._best_seed(16, 3, 1, 2, 2, None, None) == passes[1]
    assert solver_module._best_seed(16, 3, 1, 0, 0, None, None) is None


def test_a_cover_at_the_root_bound_ends_the_run():
    # No construction fits s=0; the first cover the search finds meets the
    # root bound, so nothing is left to prove (100,001 nodes without the stop).
    g5320 = solve_g(5, 3, 2, 0, max_nodes=100_000)
    assert (g5320.status, g5320.value, g5320.nodes, g5320.proof_lo) == ("optimal", 13, 13, 13)
    g6330 = solve_g(6, 3, 3, 0, max_nodes=100_000)
    assert (g6330.status, g6330.value, g6330.nodes, g6330.proof_lo) == ("optimal", 25, 25, 25)
    for result in (g5320, g6330):
        report = verify(result.certificate, 3)
        assert report.is_cover_for(3) and report.origin_count == 0


@pytest.mark.parametrize("n,d", [(4, 1), (7, 1), (5, 2), (6, 3)])
def test_candidate_order_is_by_score_then_index(n, d):
    # At random node states children lists its branch point's usable
    # coverers in the order sorted((-|masks[i] & dm|, j)), j the index of
    # member i's system at d >= 2 (bit planes) and i itself at d=1 (one by
    # one), or returns None when a deficient point has no usable coverer.
    # The coverer sets here come from the member masks; at d >= 2 children
    # builds a branch point's on first use, and each one kept must match.
    rng = random.Random(10 * n + d)
    search = _Search(n, 2, d, None, None)
    masks = [search.mask(i) for i in range(len(search.masks))]
    coverers = [sum(1 << i for i, m in enumerate(masks) if m >> x & 1) for x in range(search.npts)]
    if d == 1:
        assert search.coverers == coverers
    else:
        assert not any(search.coverers)
    for _ in range(24):
        dm = sum(1 << p for p in rng.sample(range(search.npts), rng.randint(1, search.npts)))
        drawn = (1 << len(masks)) - 1
        for _ in range(rng.randint(1, 7)):
            drawn &= rng.getrandbits(len(masks))
        points = [p for p in range(search.npts) if dm >> p & 1]
        cands = search.children([dm], drawn)
        if not all(coverers[q] & drawn for q in points):
            assert cands is None
            continue
        _, p = min(((coverers[p] & drawn).bit_count(), p) for p in points)
        cm = coverers[p] & drawn
        members = [i for i in range(len(masks)) if cm >> i & 1]
        expected = sorted(
            (-(masks[i] & dm).bit_count(),
             i if d == 1 else search.systems.index(search.member(i).normals), i)
            for i in members
        )
        assert list(cands) == [i for *_, i in expected]
    kept = [x for x, m in enumerate(search.coverers) if m]
    assert kept and all(search.coverers[x] == coverers[x] for x in kept)


def test_origin_cap_node_count_is_pinned():
    # s >= 1 at d=1: the origin cap and the direction table both prune here
    result = solve_g(4, 4, 1, 1)
    assert (result.status, result.value, result.nodes) == ("optimal", 9, 197)


def test_f651_node_count_is_pinned():
    # The largest d=1 proof in the suite; a change that raises this says why.
    result = solve_min(6, 5, 1)
    assert (result.status, result.value, result.nodes) == ("optimal", 13, 530_251)


def test_code_length_row_never_exceeds_a_proved_g():
    # also the exact-origin bound as a whole: the direction table at n+1
    # prunes by these
    for n in range(1, 6):
        for k in range(1, 6):
            for s in range(k):
                (row,) = [v for tag, _, v in _closed_form_rules(n, k, 1, s) if tag == "CodeLength"]
                result = solve_g(n, k, 1, s)
                assert result.status == "optimal" and row <= result.value, (n, k, s)
                assert result.proof_lo >= row, (n, k, s)
                assert lb_origin_exactly(n, k, 1, [s])[s] <= result.value, (n, k, s)


@pytest.mark.parametrize(
    "call,digest",
    [
        (lambda: decide(6, 3, 3, 25, s=0),
         "0e80603911eaad4e9a304f5f84ffa2d23ee2e8e9054d9e80b69d38f5d5fb3472"),
        (lambda: solve_g(4, 4, 1, 1),
         "602274e7b70fb4f1008cdf3c9e2b43fd6b748df238515a425b7a559e93505d05"),
    ],
    ids=["decide633", "g4411"],
)
def test_result_documents_are_pinned(call, digest):
    # The whole to_json() document, certificate bytes included: a change in
    # how members are numbered or decoded shows here.
    text = json.dumps(call().to_json(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "call,args,k_kept",
    [
        (solve_g, (4, 3, 1, 0), False),
        (solve_g, (3, 6, 1, 1), False),  # origin cap and direction table
        (solve_g, (4, 4, 1, 1), False),  # orbit exclusions at every depth
        (lambda *a: decide(*a, s=0), (4, 3, 2, 12), False),
        (solve_g, (3, 3, 2, 0), True),  # a member with k copies stays usable
    ],
    ids=["g4310", "g3611", "g4411", "decide4312", "g3320"],
)
def test_level_masks_match_a_recount(monkeypatch, call, args, k_kept):
    # At every node that reaches branching, the child's level masks, total
    # need, size, the origin cap on its usable members and its fresh
    # members (d=1: normal outside the span of the placed normals; d >= 2:
    # none) must equal what a recount of mult gives.  run checks each child
    # inline and calls children(lev, usable) with the child's state; its
    # locals cdef, size (the parent's) and cfresh hold the rest.  usable
    # keeps a member placed k times, which covers each of its points k
    # times, so children never lists it: k_kept says the cell reaches a
    # node where such a member is usable.
    children = _Search.children
    visits, kept = [], []

    def checked(self, lev, usable):
        child = sys._getframe(1).f_locals
        counts = [0] * self.npts
        for m, mask in zip(self.mult, self.masks):
            for p in range(self.npts):
                counts[p] += m * (mask >> p & 1)
        needs = [max(0, (self.k if p else self.s) - c) for p, c in enumerate(counts)]
        levels = range(1, max(needs) + 1)
        assert lev == [sum(1 << p for p, x in enumerate(needs) if x >= j) for j in levels]
        assert child["cdef"] == sum(needs) and child["size"] + 1 == sum(self.mult)
        assert counts[0] <= self.s
        if counts[0] == self.s:
            assert not usable & self.origin_pool
        kept.append(any(usable >> i & 1 for i, m in enumerate(self.mult) if m >= self.k))
        fresh = 0
        if self.d == 1:
            normals = [self.member(i).normals[0] for i in range(len(self.masks))]
            span = {0}
            for u, m in zip(normals, self.mult):
                if m:
                    span |= {v ^ u for v in span}
            fresh = sum(1 << i for i, u in enumerate(normals) if u not in span)
        assert child["cfresh"] == fresh
        visits.append(sum(self.mult))
        cands = children(self, lev, usable)
        if cands is None:
            return None
        cands = list(cands)
        assert all(self.mult[i] < self.k for i in cands)
        return iter(cands)

    monkeypatch.setattr(_Search, "children", checked)
    result = call(*args)
    assert 0 < len(visits) <= result.nodes
    assert any(kept) == k_kept


@pytest.mark.parametrize("args", [(4, 4, 1, 1), (5, 3, 1, 0), (4, 5, 1, 2), (6, 3, 1, 0)])
def test_no_cover_is_recorded_over_the_limit(monkeypatch, args):
    # A leaf that completes a cover may record it only within the limit of
    # the moment, which is one below the last cover recorded, so the sizes
    # recorded strictly fall: a same-size sibling never replaces the first.
    # Each cover recorded is the path: its members, one per copy placed,
    # are the multiset mult of the moment.
    recorded = []

    class Recording(_Search):
        @property
        def best(self):
            return self.__dict__["best"]

        @best.setter
        def best(self, best):
            if best is not None:
                assert Counter(best) == {i: m for i, m in enumerate(self.mult) if m}
                assert len(best) == sum(self.mult)
                recorded.append(len(best))
            self.__dict__["best"] = best

    monkeypatch.setattr(solver_module, "_Search", Recording)
    result = solve_g(*args)
    assert recorded and recorded == sorted(set(recorded), reverse=True)
    assert recorded[-1] == result.value


def test_search_depth_does_not_grow_the_stack():
    # run walks the tree in one loop, so a deep tree needs no deeper Python
    # stack: with 20 frames to spare above the caller, a 27-member witness
    # and the whole f(5,4,1) proof run.  A search that recursed once per
    # placed member raised RecursionError on the first.
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 20)
    try:
        witness = decide(7, 3, 3, 27, s=0)
        proof = solve_min(5, 4, 1)
    finally:
        sys.setrecursionlimit(old)
    assert (witness.status, witness.value) == ("feasible", 27)
    assert (proof.status, proof.value, proof.nodes) == ("optimal", 10, 533)


def _parity(x: int) -> int:
    return x.bit_count() & 1


@functools.cache
def _gl(n: int) -> list[list[int]]:
    """Every invertible n x n matrix over F_2, as its table x -> Mx over the points."""
    bases = [()]
    for _ in range(n):
        grown = []
        for cols in bases:
            span = {0}
            for c in cols:
                span |= {v ^ c for v in span}
            grown += [cols + (c,) for c in range(1, 1 << n) if c not in span]
        bases = grown
    tables = []
    for cols in bases:
        image = [0] * (1 << n)
        for x in range(1, 1 << n):
            image[x] = image[x & (x - 1)] ^ cols[(x & -x).bit_length() - 1]
        tables.append(image)
    return tables


@pytest.mark.parametrize(
    "normals",
    [(), (1,), (1, 2), (6, 9), (1, 2, 3), (3, 5, 6, 12), (1, 2, 4), (1, 2, 4, 8)],
    ids=lambda normals: "V=" + ",".join(map(str, normals)),
)
def test_fresh_members_form_two_orbits(normals):
    # The orbit claim behind the d=1 branching rule, by brute force over
    # GL(4,2): the maps fixing every functional in V (u . Mx = u . x for all
    # u in V) fix each hyperplane whose normal lies in span(V), and split
    # the rest into exactly two orbits, rhs 0 and rhs 1.
    n = 4
    group = _gl(n)
    assert len(group) == 20160
    stab = [M for M in group if all(_parity(u & M[x]) == _parity(u & x)
                                    for u in normals for x in range(1 << n))]
    planes = {
        (u, r): sum(1 << x for x in range(1 << n) if _parity(u & x) == r)
        for u in range(1, 1 << n) for r in (0, 1)
    }
    named = {mask: plane for plane, mask in planes.items()}
    orbits = set()
    left = set(planes)
    while left:
        mask = planes[min(left)]
        points = [x for x in range(1 << n) if mask >> x & 1]
        orbit = frozenset(named[sum(1 << M[x] for x in points)] for M in stab)
        orbits.add(orbit)
        left -= orbit
    span = {0}
    for u in normals:
        span |= {v ^ u for v in span}
    fixed = {frozenset([(u, r)]) for u in span - {0} for r in (0, 1)}
    fresh = {frozenset((u, r) for u in range(1, 1 << n) if u not in span) for r in (0, 1)}
    assert orbits == fixed | (fresh - {frozenset()})


# (9, 1): normals wider than one byte
INDEX_CELLS = [(n, d) for n in range(1, 7) for d in range(1, n + 1)] + [(7, 2), (7, 3), (9, 1)]


@pytest.mark.parametrize("n,d", INDEX_CELLS)
def test_pool_index_matches_naive_incidence(n, d):
    search = _Search(n, 2, d, None, None)
    pool = sorted(enumerate_subspaces(n, d), key=lambda S: S.rhs)
    nsys = len(search.systems)
    # certificates decode member indices through member(i)
    assert [search.member(i) for i in range(len(pool))] == pool
    assert pool[search.root] == AffineSubspace(n, d, tuple(1 << j for j in range(d)), 1)
    # x lies in the one coset of systems[j] whose rhs is the rows' parities
    # at x: member r*S + j, r that parity vector.  through[x] holds bit i
    # of coverers[x], member i contains x, as a '0'/'1' string (high bit last).
    npts = 1 << n
    odd = [x.bit_count() & 1 for x in range(npts)]
    members = [[] for _ in pool]
    through = [bytearray(b"0" * len(pool)) for _ in range(npts)]
    for j, rows in enumerate(search.systems):
        cosets = [0] * npts
        for t, u in enumerate(rows):
            cosets = [r | odd[u & x] << t for x, r in enumerate(cosets)]
        for x, r in enumerate(cosets):
            members[r * nsys + j].append(x)
            through[x][r * nsys + j] = ord("1")
    assert [sorted(solution_bits(S)) for S in pool] == members
    assert [search.mask(i) for i in range(len(pool))] == [sum(1 << x for x in xs) for xs in members]
    # at d >= 2 each coverer set is built on first use and then kept
    expected = [int(row[::-1], 2) for row in through]
    if d > 1:
        assert not any(search.coverers)
        assert [search.coverer(x) for x in range(1 << n)] == expected
    assert search.coverers == expected


@pytest.mark.parametrize("n,d", [(4, 1), (5, 2), (6, 3)])
def test_kernel_entries_match_row_parity(n, d):
    # kernel[x], bit j: x lies in the linear subspace of systems[j], that
    # is, every row of the system has even overlap with x.  At d >= 2 that
    # is all of kernel[x], S bits; at d=1 there is no kernel, and slab 0 of
    # the coverer table holds the same systems.
    search = _Search(n, 2, d, None, None)
    table = search.kernel if d > 1 else search.coverers
    assert hasattr(search, "kernel") == (d > 1)
    for x in range(1 << n):
        expected = sum(
            1 << j for j, rows in enumerate(search.systems) if not any(_parity(u & x) for u in rows)
        )
        assert table[x] & search.origin_pool == expected
        if d > 1:
            assert table[x] == expected


@pytest.mark.parametrize("n,d", [(1, 1), (3, 3), (9, 2), (10, 1), (16, 1)])
def test_row_columns_match_per_system_bit_reads(n, d):
    # cols[t][c], bit j: row t of systems[j] has bit c.  (9, 2) and (10, 1)
    # have rows over two bytes and S not a multiple of 8 (43,435 and 1,023
    # systems); (16, 1) sets the top bit of the 16-bit slot.
    systems = linear_systems(n, d)
    cols = solver_module._row_columns(systems, n)
    assert [len(row) for row in cols] == [n] * d
    for t in range(d):
        for c in range(n):
            bits = "".join("1" if rows[t] >> c & 1 else "0" for rows in reversed(systems))
            assert cols[t][c] == int(bits, 2), (t, c)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_any_per_block_matches_a_per_block_any(d):
    # The block of systems[j] is its 2^d cosets, bit j of each slab: ranked
    # folds a pool mask onto slab 0 and hands planes, as cs, one bit per
    # system that has any member in the mask.
    rng = random.Random(d)
    width = 1 << d
    for n in (d + 1, d + 2):
        search = _Search(n, 2, d, None, None)
        S = len(search.systems)
        assert len(search.masks) == width * S
        seen = []
        search.planes = lambda p, cs, dm: seen.append(cs) or []
        draws = [0, (1 << (width * S)) - 1]
        for _ in range(20):
            # each block empty or holding one, or a random set, of its cosets
            blocks = [rng.choice([0, 1 << rng.randrange(width), rng.getrandbits(width)])
                      for _ in range(S)]
            draws.append(sum((b >> r & 1) << (r * S + j)
                             for j, b in enumerate(blocks) for r in range(width)))
        for x in draws:
            search.ranked(0, x, 1)
            expected = sum(
                1 << j for j in range(S) if any(x >> (r * S + j) & 1 for r in range(width))
            )
            assert seen.pop() == expected


@pytest.mark.parametrize("n,d", [(4, 1), (5, 1), (5, 2), (6, 3), (6, 4)])
def test_system_scores_match_member_masks(n, d):
    # At random node states, the bit planes over the systems in cs give
    # each candidate (the usable member of its system through the branch
    # point p) its score |mask(i) & dm|, counted here from its points, and
    # ranked lists the candidates by descending score, lowest system first.
    # ranked counts the smaller side: dm, or its complement when dm holds
    # more than half the points; fixed states sit on both sides of that
    # switch, with and without the origin in dm.  (6, 4) folds 16 slabs
    # onto one.  The search runs planes only at d >= 2 and keeps no kernel
    # at d=1; here the d=1 kernel is slab 0 of the coverer table.
    rng = random.Random(100 * n + d)
    search = _Search(n, 2, d, None, None)
    if d == 1:
        search.kernel = [c & search.origin_pool for c in search.coverers]
    npts = search.npts
    pool = [search.member(i) for i in range(len(search.masks))]
    points = [sum(1 << x for x in range(npts) if S.contains_bits(x)) for S in pool]
    index = {rows: j for j, rows in enumerate(search.systems)}
    nsys = len(search.systems)
    counted = []
    planes = search.planes
    search.planes = lambda p, cs, dm: counted.append(dm.bit_count()) or planes(p, cs, dm)
    states = []
    for size in (npts >> 1, (npts >> 1) + 1):
        for origin in (False, True):
            p = rng.randrange(1, npts)
            rest = rng.sample([q for q in range(1, npts) if q != p], size - 1 - origin)
            states.append((p, sum(1 << q for q in [p, *rest]) | origin))
    for _ in range(40):
        p = rng.randrange(npts)
        dm = 1 << p
        for _ in range(rng.choice([0, 1, 2, npts])):
            dm |= 1 << rng.randrange(npts)
        states.append((p, dm))
    for p, dm in states:
        usable = rng.getrandbits(len(pool)) | rng.getrandbits(len(pool))
        cm = [i for i in range(len(pool)) if usable >> i & 1 and points[i] >> p & 1]
        systems = [index[pool[i].normals] for i in cm]
        assert len(set(systems)) == len(systems)  # one candidate per system
        cs = sum(1 << j for j in systems)
        scores = [sum((plane >> j & 1) << t for t, plane in enumerate(planes(p, cs, dm)))
                  for j in range(nsys)]
        expected = [0] * nsys
        for i, j in zip(cm, systems):
            expected[j] = (points[i] & dm).bit_count()
        assert scores == expected
        assert [search.through(j, p) for j in systems] == cm
        order = sorted((-expected[j], j, i) for i, j in zip(cm, systems))
        ranked = search.ranked(p, sum(1 << i for i in cm), dm)
        assert list(ranked) == [i for *_, i in order]
        assert counted.pop() == min(dm.bit_count(), npts - dm.bit_count())


@pytest.mark.parametrize("n,d", [(n, d) for d in (2, 3) for n in range(d + 1, d + 4)])
def test_pick_matches_a_per_point_recount(n, d):
    # At random d >= 2 node states, pick's branch point must be that of a
    # plain recount over the members' points: the top point with the fewest
    # usable coverers, lowest on a tie, or None when a deficient point has
    # none.  Slab 0 (the members through the origin) is wholly excluded, as
    # at s = 0 or once the origin is full, or partly usable.  Up to half
    # the pool is excluded besides.
    rng = random.Random(10 * n + d)
    search = _Search(n, 3, d, None, None)
    npts, size = search.npts, len(search.masks)
    slab0 = search.origin_pool
    through = [[] for _ in range(npts)]
    for i in range(size):
        for x in solution_bits(search.member(i)):
            through[x].append(i)
    seen = set()
    for _ in range(80):
        dm = sum(1 << q for q in rng.sample(range(npts), rng.randint(1, npts)))
        if rng.random() < 0.3:
            dm |= 1  # a deficient origin
        top = sum(1 << q for q in range(npts) if dm >> q & 1 and rng.random() < 0.6) or dm & -dm
        usable = (1 << size) - 1
        if rng.random() < 0.5:
            usable ^= slab0
        else:
            usable &= ~sum(1 << i for i in rng.sample(range(len(search.systems)), rng.randint(0, 3)))
        drops = rng.choice([0, 1, 2, size // 3, size // 2])
        for i in rng.sample(range(size), drops):
            usable &= ~(1 << i)
        if rng.random() < 0.2:  # a dead point: none of its coverers is usable
            q = rng.choice([q for q in range(npts) if dm >> q & 1])
            usable &= ~sum(1 << i for i in through[q])
        bits = f"{usable:0{size}b}"[::-1]
        counts = {q: sum(bits[i] == "1" for i in through[q]) for q in range(npts) if dm >> q & 1}
        dead = min(counts.values()) == 0
        picked = search.pick(dm, top, usable)
        if dead:
            assert picked is None
        else:
            assert picked == min((counts[q], q) for q in counts if top >> q & 1)[1]
        seen.add((dead, not usable & slab0, bool(dm & 1)))
    assert {dead for dead, *_ in seen} == {False, True}
    assert {(gone, origin) for _, gone, origin in seen} >= {(False, True), (True, False)}


def _quadruple_loop_table(k, s, rest):
    """Entry (a0, b0): the plain minimum over every extension a' >= a0,
    b' in [b0, s] of a' + b' + the bound on the rest, rest[b'] being the
    bound its zero side gives."""
    return [
        [min((a + b + max(2 * (k - a), rest[b])
              for a in range(a0, k + 1) for b in range(b0, s + 1)), default=1 << 30)
         for b0 in range(k + 1)]
        for a0 in range(k + 1)
    ]


def test_direction_table_matches_the_quadruple_loop():
    # The table is taken by suffix minima; each entry must be the plain
    # minimum over every extension it stands for, the rest bounded at the
    # exact origin count s - b' of its restriction.
    for n in range(2, 9):
        for k in range(1, 14):
            for s in range(k):
                glo = [lb_origin_exactly(n - 1, k - b, 1, [s - b])[s - b] for b in range(s + 1)]
                table = _direction_lb_table(n, k, s)
                assert [row[:k + 1] for row in table[:k + 1]] == _quadruple_loop_table(k, s, glo), (n, k, s)


def test_direction_table_never_falls_below_the_f_rows():
    # The f rows alone bound the rest by f(n-1, k - b'); the exact-origin
    # reading takes their max with the g rows at s - b', so no entry falls.
    for n in range(2, 9):
        for k in range(1, 14):
            flo = [0] + [_lo(_closed_form_rules(n - 1, kp, 1)) for kp in range(1, k + 1)]
            for s in range(k):
                f_rows = _quadruple_loop_table(k, s, [flo[k - b] for b in range(s + 1)])
                table = _direction_lb_table(n, k, s)
                assert all(
                    table[a][b] >= f_rows[a][b] for a in range(k + 1) for b in range(k + 1)
                ), (n, k, s)
    # one entry it raises: two one-side copies of g(4,6,1;1)'s direction
    f_rows = _quadruple_loop_table(6, 1, [_lo(_closed_form_rules(3, kp, 1)) for kp in (6, 5)])
    assert (f_rows[2][0], _direction_lb_table(4, 6, 1)[2][0]) == (12, 13)


def test_time_budget_bounds_pool_build():
    # a 173,740-subspace pool whose index builds in a few hundredths of a
    # second: the budget runs out in the search, whose loop reads the clock
    # every 256 nodes, tens of thousands of nodes in
    start = time.monotonic()
    result = decide(9, 3, 2, 17, s=0, max_seconds=1)
    assert result.status == "unknown" and result.value is None
    assert time.monotonic() - start < 4


@pytest.mark.parametrize(
    "max_nodes,status,nodes",
    [
        (0, "unknown", 0),
        (5, "unknown", 6),
        (10, "feasible", 11),
        (47, "feasible", 48),
        (48, "optimal", 48),
    ],
)
def test_node_budget_accounting(max_nodes, status, nodes):
    # A run that needs 48 nodes: the node past the budget is counted, and a
    # budget of exactly 48 is enough.  A budget stop keeps the run's best
    # cover, certified.
    result = solve_g(4, 3, 1, 0, max_nodes=max_nodes)
    assert (result.status, result.nodes) == (status, nodes)
    assert result.value == {"unknown": None, "feasible": 8, "optimal": 7}[status]
    if status == "feasible":
        report = verify(result.certificate, 3)
        assert report.is_cover_for(3) and report.origin_count == 0
        assert result.certificate.size == 8


def test_budget_stop_keeps_the_incumbent():
    # No construction fits s=0 here.  The run holds a size-11 cover within
    # 1,000 nodes but needs 3,313 to prove it, so a budget of 1,000 stops it.
    result = solve_g(6, 4, 1, 0, max_nodes=1000)
    assert (result.status, result.value, result.nodes) == ("feasible", 11, 1001)
    report = verify(result.certificate, 4)
    assert report.is_cover_for(4) and report.origin_count == 0
    assert result.certificate.size == 11
    assert solve_g(6, 4, 1, 0).nodes == 3313


@pytest.mark.parametrize(
    "call",
    [
        lambda: decide(3, 3, 1, 6),  # a seed fits the cap
        lambda: decide(3, 3, 1, 5),  # the root bound is over the cap
        lambda: solve_min(3, 3, 1),  # a seed meets the root bound
        lambda: solve_min(5, 4, 1, assume_high_origin=True),
    ],
    ids=["decide-seed", "decide-lo", "min-seed", "min-high"],
)
def test_root_closures_build_no_pool(monkeypatch, call):
    def refuse(self, *args):
        raise AssertionError("a root-closed call built the pool")

    monkeypatch.setattr(_Search, "__init__", refuse)
    result = call()
    assert result.nodes == 0 and result.status in ("optimal", "feasible", "infeasible")


def test_code_length_closes_f_12_4_at_the_root(monkeypatch):
    # CodeLength puts every origin count's root bound at 17 or more, which
    # the Lemma 3.1 seed meets, so no pool is built
    def refuse(self, *args):
        raise AssertionError("a root-closed call built the pool")

    monkeypatch.setattr(_Search, "__init__", refuse)
    result = solve_min(12, 4, 1)
    assert (result.status, result.value, result.proof_lo, result.nodes) == ("optimal", 17, 17, 0)


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
        wrong = SimpleNamespace(member=pool.__getitem__, best=[0], k=2, s=1)
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


def test_pool_index_too_large_is_refused():
    # 524,286 subspaces over 2^18 points: each index table would need
    # 16 GiB.  The address-space cap turns a regressed guard into a
    # MemoryError here instead of a machine out of memory.
    code = textwrap.dedent("""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from f2cover.solver import solve_g
        try:
            solve_g(18, 3, 1, 0)
        except ValueError as exc:
            assert "would pass 512 MiB" in str(exc), exc
            raise SystemExit(0)
        raise SystemExit("the pool index was built")
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(f2cover.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


def test_coverer_table_build_watches_the_clock(monkeypatch):
    # The d=1 table doubles once per coordinate and reads the clock before
    # each step; the first read, after the systems, is still in time, and
    # the next stops the build.
    reads = []

    def clock():
        reads.append(None)
        return 0.0 if len(reads) == 1 else 2.0

    monkeypatch.setattr(solver_module, "time", SimpleNamespace(monotonic=clock))
    with pytest.raises(_BudgetExhausted):
        _Search(12, 1, 1, 1.0, None)
    assert len(reads) == 2


def test_deadline_during_linear_systems_builds_no_table(monkeypatch):
    # The clock passes the deadline while the systems are enumerated: the
    # check that follows stops the build before the row columns, and with
    # them every per-point table, are made.
    now = [0.0]
    monkeypatch.setattr(solver_module, "time", SimpleNamespace(monotonic=lambda: now[0]))
    systems = solver_module.linear_systems

    def slow_systems(n, d):
        now[0] = 2.0
        return systems(n, d)

    monkeypatch.setattr(solver_module, "linear_systems", slow_systems)
    monkeypatch.setattr(solver_module, "_row_columns", _no_pool)
    with pytest.raises(_BudgetExhausted):
        _Search(7, 3, 2, 1.0, None)
    now[0] = 0.0
    result = decide(7, 3, 2, 16, s=0, max_seconds=1.0)
    assert (result.status, result.value, result.nodes) == ("unknown", None, 0)


def _no_pool(*args):
    pytest.fail("the pool index was built")


@pytest.mark.parametrize(
    "call,status,value",
    [
        # Lemma 3.1, the first seed, has origin count 2: outside s = 1
        (lambda: solve_g(5, 4, 1, 1, max_seconds=1.0), "unknown", None),
        (lambda: solve_min(5, 4, 1, max_seconds=1.0), "feasible", 10),
    ],
    ids=["solve_g", "solve_min"],
)
def test_deadline_during_seeding_builds_no_pool(monkeypatch, call, status, value):
    # two reads at 0.0: the start of the call and the check before the
    # first seed; the clock has passed the deadline before the second seed
    reads = []

    def clock():
        reads.append(None)
        return 0.0 if len(reads) <= 2 else 2.0

    monkeypatch.setattr(solver_module, "time", SimpleNamespace(monotonic=clock))
    monkeypatch.setattr(solver_module, "_Search", _no_pool)
    result = call()
    assert (result.status, result.value, result.nodes) == (status, value, 0)
    if value is not None:
        assert verify(result.certificate, 4).is_cover_for(4)


def test_search_loop_watches_the_clock(monkeypatch):
    # the clock passes the deadline as the run starts; node 1 reads it
    now = [0.0]
    monkeypatch.setattr(solver_module, "time", SimpleNamespace(monotonic=lambda: now[0]))
    run = _Search.run

    def jump_then_run(self, *args):
        now[0] = 2.0
        run(self, *args)

    monkeypatch.setattr(_Search, "run", jump_then_run)
    result = solve_g(5, 4, 1, 1, max_seconds=1.0)
    assert (result.status, result.value, result.nodes) == ("unknown", None, 1)
