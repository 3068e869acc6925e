from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from f2cover.bounds import (
    Anchor,
    BoundEntry,
    BoundLedger,
    LedgerContradiction,
    ParameterError,
    all_points_value,
    anchors_from_json,
    bundled_search_anchors,
    exact_thm_a,
    format_table,
    g_smax_formula,
    jamison_value,
    lb_double_count,
    lb_g,
    lb_g_restriction,
    n0_report,
    origin_mult_floor,
    propagate,
)
from f2cover.bounds import _closed_form_rules, _code_length, _fold, _griesmer, _lo, _sphere_packing


def lb_hamming_s0(n: int, k: int) -> Fraction:
    """Packing lower bound n + floor((k-1)/2) * log2(2n/(k-1)) on g(n,k,1;0),
    the exact rational value of its double-precision evaluation.  A
    reference only: the integer CodeLength row dominates it."""
    if k < 2 or n < 1:
        raise ValueError(f"need k >= 2 and n >= 1, got k={k}, n={n}")
    t = (k - 1) // 2
    if t == 0:
        return Fraction(n)
    return n + t * (Fraction(math.log2(2 * n)) - Fraction(math.log2(k - 1)))


def hamming_ceil(n: int, k: int) -> int:
    """Least integer m with m >= lb_hamming_s0(n,k), by exact integer arithmetic:
    m >= n + t*log2(2n/(k-1)) iff (k-1)^t * 2^(m-n) >= (2n)^t."""
    if k < 2 or n < 1:
        raise ValueError(f"need k >= 2 and n >= 1, got k={k}, n={n}")
    t = (k - 1) // 2
    if t == 0:
        return n
    want = (2 * n) ** t
    have = (k - 1) ** t
    c = 0
    while (have << c) < want:
        c += 1
    if c == 0:
        while have >= (want << (1 - c)):
            c -= 1
    return n + c


def is_fixpoint(ledger: BoundLedger) -> bool:
    """True when re-running propagation with the same anchors changes nothing."""
    again = propagate(
        n_max=ledger.n_range[1], k_max=ledger.k_range[1], d=ledger.d,
        anchors=ledger.anchors,
    )
    return all(
        (e.lo, e.hi) == (again.cells[key].lo, again.cells[key].hi)
        for key, e in ledger.cells.items()
    )


def test_double_count_values():
    assert lb_double_count(4, 3, 1) == 6
    assert lb_double_count(3, 8, 1, s=0) == 14
    assert lb_double_count(3, 8, 1, s=4) == 15
    assert lb_double_count(5, 4, 2) == 16
    with pytest.raises(ValueError):
        lb_double_count(3, 2, 1, s=2)


def test_dense_regime_exact_value():
    assert exact_thm_a(3, 3, 1) == 6
    assert exact_thm_a(4, 3, 1) is None
    assert exact_thm_a(4, 4, 2) == 15
    assert exact_thm_a(2, 1, 1) == 2
    assert exact_thm_a(8, 64, 1) == 128 - 0


def test_general_position_interval():
    # Theorems B and C, with the incidence bound below Theorem C's range:
    # the fold of those rows of the closed-form table, and the rows that
    # set its ends.  At k = 1 neither theorem nor Lemma 3.1 has a row.
    thm_bc = {"ThmB", "ThmC", "Construction(l31)"}
    cases = {
        (9, 3, 1): ((12, 12), {"ThmB", "Construction(l31)"}),  # huge n pinches shut
        (5, 4, 1): ((9, 10), {"ThmC", "Construction(l31)"}),
        (4, 2, 1): ((5, 5), {"ThmC", "Construction(l31)"}),
        (5, 2, 1): ((6, 6), {"ThmB", "Construction(l31)"}),
        (2, 2, 1): ((3, 3), {"DoubleCount", "Construction(l31)"}),
        (6, 5, 1): ((12, 13), {"ThmC", "Construction(l31)"}),
    }
    for (n, k, d), (interval, tags) in cases.items():
        rows = [r for r in _closed_form_rules(n, k, d) if r[0] in thm_bc | {"DoubleCount"}]
        lo, hi = _fold(rows, 0, 1 << 30)
        assert (lo, hi) == interval, (n, k, d)
        ends = {t for t, side, v in rows if (side != "hi" and v == lo) or (side != "lo" and v == hi)}
        assert ends == tags, (n, k, d)
    assert thm_bc.isdisjoint(t for t, _, _ in _closed_form_rules(3, 1, 1))


def test_hamming_packing_bound():
    assert float(lb_hamming_s0(9, 3)) == 9 + math.log2(9)
    assert lb_hamming_s0(5, 2) == 5
    assert hamming_ceil(9, 3) == 13
    assert hamming_ceil(8, 3) == 11
    assert hamming_ceil(12, 3) == 16
    assert hamming_ceil(5, 2) == 5
    with pytest.raises(ValueError):
        hamming_ceil(5, 1)


@given(st.integers(1, 40), st.integers(2, 9))
def test_hamming_ceil_is_minimal(n, k):
    t = (k - 1) // 2
    m = hamming_ceil(n, k)
    if t == 0:
        assert m == n
        return
    want = (2 * n) ** t
    have = (k - 1) ** t

    def reaches(c: int) -> bool:
        return have * 2**c >= want if c >= 0 else have >= want * 2**(-c)

    assert reaches(m - n)
    assert not reaches(m - n - 1)


def test_griesmer_and_sphere_packing_match_their_definitions():
    for n in range(1, 9):
        for delta in range(1, 25):
            griesmer = sum(math.ceil(Fraction(delta, 2**i)) for i in range(n))
            assert _griesmer(n, delta) == griesmer, (n, delta)
            # the least N whose space holds 2^n disjoint balls of radius t
            t = (delta - 1) // 2
            packs = [
                N for N in range(n, n + 4 * delta + 8)
                if 2**n * sum(math.comb(N, i) for i in range(t + 1)) <= 2**N
            ]
            assert _sphere_packing(n, delta) == packs[0], (n, delta)
            assert _code_length(n, delta) == max(griesmer, packs[0]), (n, delta)
    # the [7,4,3] Hamming code and the [23,12,7] Golay code are perfect
    assert _sphere_packing(4, 3) == 7 and _sphere_packing(12, 7) == 23
    assert _griesmer(12, 8) == 23 and _code_length(12, 8) == 23


def test_sphere_packing_matches_the_plain_ball_sum():
    # The ball is summed term by term and only until it passes 2^(N-n);
    # the least N must be that of the whole sum, from any start.
    def plain(n, delta, start):
        t, N = (delta - 1) >> 1, start
        while 2 ** (N - n) < sum(math.comb(N, i) for i in range(t + 1)):
            N += 1
        return N

    for n in range(1, 12):
        for delta in range(1, 120, 7):
            for start in (n, n + delta, 2 * (n + delta)):
                assert _sphere_packing(n, delta, start) == plain(n, delta, start), (n, delta, start)


def test_sphere_packing_dominates_hamming_ceil():
    # The integer sphere-packing length is never below the float packing
    # bound it replaced, and it is above it in most cells.
    above = 0
    for n in range(1, 21):
        for k in range(2, 41):
            assert _sphere_packing(n, k) >= hamming_ceil(n, k), (n, k)
            above += _sphere_packing(n, k) > hamming_ceil(n, k)
    assert above == 753


def test_code_length_row_is_not_monotone_in_s():
    rows = [_closed_form_rules(5, 4, 1, s) for s in range(4)]
    assert [v for r in rows for tag, side, v in r if tag == "CodeLength"] == [9, 10, 8, 8]
    assert all(side == "lo" for r in rows for tag, side, _ in r if tag == "CodeLength")
    assert not any(tag == "CodeLength" for tag, _, _ in _closed_form_rules(5, 4, 2, 1))


def test_f_is_the_least_g():
    # the f rows' lower bound is the table's least entry, and entry s is
    # the lo of the g rows at s, AtLeastF among them
    for d in range(1, 4):
        for n in range(d, 13):
            for k in range(1, 17):
                table = lb_g(n, k, d)
                assert min(table) == _lo(_closed_form_rules(n, k, d)), (n, k, d)
                assert list(table) == [_lo(_closed_form_rules(n, k, d, s)) for s in range(k)]


def test_least_g_pins_f_12_4_without_anchors():
    # f(12,4,1) = 17 is the least over s of all the g rows at s: the
    # code-length bound alone reads 15 at s = 2, where RestrictionDescent
    # gives 17, so the f row is LeastG, not CodeLength
    e = propagate(12, 4, 1).entry(12, 4)
    assert (e.lo, e.hi) == (17, 17)
    assert "LeastG" in e.lo_provenance and "CodeLength" not in e.lo_provenance
    assert [s + _code_length(12, 4 - s) for s in range(4)] == [17, 18, 15, 15]


def test_fixed_origin_formulas():
    assert g_smax_formula(6, 3, 2) == 15
    assert g_smax_formula(5, 4, 1) == 11
    assert lb_g_restriction(5, 4, 1, 0) == 8
    assert lb_g_restriction(5, 4, 1, 2) == 10
    assert lb_g_restriction(6, 5, 1, 2) == 12
    with pytest.raises(ValueError):
        lb_g_restriction(5, 4, 1, 4)


@given(st.integers(1, 8), st.integers(1, 6), st.data())
def test_descent_floor_meets_smax_formula(n, k, data):
    d = data.draw(st.integers(1, n))
    assert lb_g_restriction(n, k, d, k - 1) == g_smax_formula(n, k, d)
    values = [lb_g_restriction(n, k, d, s) for s in range(k)]
    assert values == sorted(values)
    assert len(set(values)) == k


@pytest.mark.parametrize("rule", [lb_double_count, lb_g_restriction])
@pytest.mark.parametrize("s", [-1, 3])
def test_origin_count_out_of_range_is_a_parameter_error(rule, s):
    with pytest.raises(ParameterError, match=rf"need 0 <= s <= k-1, got s={s}, k=3"):
        rule(4, 3, 1, s)


def test_misc_exact_values():
    assert origin_mult_floor(9, 3, 1) == 1
    assert origin_mult_floor(8, 3, 1) == 0
    assert origin_mult_floor(3, 1, 1) == 0
    assert jamison_value(5, 2) == 6
    assert jamison_value(3, 1) == 3
    assert all_points_value(3, 2) == 14


def test_anchor_json_forms():
    a = Anchor(n=5, k=4, d=1, lo=10, hi=10, source="search")
    assert a.to_json() == {"n": 5, "k": 4, "d": 1, "source": "search", "value": 10}
    b = Anchor(n=12, k=8, d=1, hi=24, source="golay")
    assert b.to_json() == {"n": 12, "k": 8, "d": 1, "source": "golay", "hi": 24}
    back = anchors_from_json({"anchors": [a.to_json(), b.to_json()]})
    assert back == (a, b)
    # a lo alone, and a lo below its hi, keep their own keys
    c = Anchor(n=6, k=8, d=1, lo=17, source="x")
    assert c.to_json() == {"n": 6, "k": 8, "d": 1, "source": "x", "lo": 17}
    e = Anchor(n=6, k=8, d=1, lo=17, hi=18, source="x")
    assert e.to_json() == {"n": 6, "k": 8, "d": 1, "source": "x", "lo": 17, "hi": 18}
    assert anchors_from_json({"anchors": [c.to_json(), e.to_json()]}) == (c, e)
    with pytest.raises(ValueError):
        Anchor(n=3, k=2, d=1)


def test_bundled_anchor_set():
    anchors = bundled_search_anchors()
    assert len(anchors) == 9
    # f(6,11,1) <= 23 rests on a bundled cover; ThmC gives its lo
    assert sum(1 for a in anchors if a.lo == a.hi) == 7
    golay = [a for a in anchors if a.source == "golay"]
    assert len(golay) == 1 and golay[0].lo is None and golay[0].hi == 24


def test_propagate_tiny_rectangle_closed_forms():
    led = propagate(3, 3, 1)
    want = {1: [1, 2, 3], 2: [2, 3, 5], 3: [3, 4, 6]}
    for n, row in want.items():
        for j, value in enumerate(row):
            e = led.entry(n, j + 1)
            assert e.exact and e.lo == value, (n, j + 1)
    assert is_fixpoint(led)
    assert led.value(3, 3) == 6


def test_propagate_ignores_foreign_anchors():
    far = Anchor(n=9, k=9, d=1, lo=5, source="noise")
    other_d = Anchor(n=3, k=2, d=2, lo=1, source="noise")
    led = propagate(3, 3, 1, (far, other_d))
    plain = propagate(3, 3, 1)
    assert all(
        (e.lo, e.hi) == (plain.cells[key].lo, plain.cells[key].hi)
        for key, e in led.cells.items()
    )


def test_propagate_detects_contradiction():
    bad = Anchor(n=3, k=2, d=1, hi=3, source="wrong")
    with pytest.raises(LedgerContradiction):
        propagate(3, 3, 1, (bad,))


def propagate_round_robin(n_max, k_max, d, anchors):
    """Reference for propagate: sweep every cell in order until none moves,
    then credit each final bound to the rows that reach it.  Returns
    {(n, k): (lo, hi, lo_provenance, hi_provenance)}."""
    cells = [(n, k) for n in range(d, n_max + 1) for k in range(1, k_max + 1)]
    rows = {(n, k): _closed_form_rules(n, k, d) for n, k in cells}
    n_closed = {cell: len(r) for cell, r in rows.items()}
    for a in anchors:
        if a.d == d and (a.n, a.k) in rows:
            rows[(a.n, a.k)] += [
                (f"Anchor({a.source})", side, v)
                for side, v in (("lo", a.lo), ("hi", a.hi)) if v is not None
            ]
    lo, hi = {}, {}
    for n, k in cells:
        lo[(n, k)], hi[(n, k)] = _fold(rows[(n, k)], 0, n + (k << d))

    def relational(n, k):
        out = []
        if (n - 1, k) in lo:
            out.append(("NRecursion", "lo", lo[(n - 1, k)] + 1))
        if (n + 1, k) in hi:
            out.append(("NRecursion", "hi", hi[(n + 1, k)] - 1))
        if (n, k - 1) in lo:
            out.append(("KRecursionLo", "lo", lo[(n, k - 1)] + 1))
            if d == 1:
                out.append(("KRecursionHi", "hi", hi[(n, k - 1)] + 2))
        if (n, k + 1) in hi:
            out.append(("KRecursionLo", "hi", hi[(n, k + 1)] - 1))
            if d == 1:
                out.append(("KRecursionHi", "lo", lo[(n, k + 1)] - 2))
        return out

    changed = True
    while changed:
        changed = False
        for n, k in cells:
            new = _fold(relational(n, k), lo[(n, k)], hi[(n, k)])
            if new != (lo[(n, k)], hi[(n, k)]):
                lo[(n, k)], hi[(n, k)] = new
                changed = True
    out = {}
    for n, k in cells:
        m = n_closed[(n, k)]
        ordered = rows[(n, k)][:m] + relational(n, k) + rows[(n, k)][m:]
        out[(n, k)] = (
            lo[(n, k)], hi[(n, k)],
            tuple(t for t, side, v in ordered if side != "hi" and v == lo[(n, k)]),
            tuple(t for t, side, v in ordered if side != "lo" and v == hi[(n, k)]),
        )
    return out


@pytest.mark.parametrize("d", [1, 2, 3])
def test_propagate_matches_a_round_robin_sweep(d):
    for anchors in ((), bundled_search_anchors()):
        for n_max in range(d, 13):
            for k_max in (1, 3, 8, 16):
                led = propagate(n_max, k_max, d, anchors)
                got = {
                    (n, k): (e.lo, e.hi, e.lo_provenance, e.hi_provenance)
                    for (n, k, _), e in led.cells.items()
                }
                assert got == propagate_round_robin(n_max, k_max, d, anchors), (n_max, k_max)


def test_propagate_interval_without_anchors():
    led = propagate(6, 6, 1)
    e = led.entry(5, 4)
    assert (e.lo, e.hi) == (9, 10)
    assert not e.exact
    with pytest.raises(ValueError):
        led.value(5, 4)


def test_propagate_full_ledger_provenance():
    led = propagate(12, 16, 1, bundled_search_anchors())
    assert is_fixpoint(led)
    assert "Anchor(search)" in led.entry(5, 4).lo_provenance
    assert "Anchor(golay)" in led.entry(12, 8).hi_provenance
    assert "ThmB" in led.entry(9, 3).lo_provenance
    assert "Anchor(jamison)" in led.entry(7, 1).lo_provenance
    # recursion-only cells credit the relational rules
    assert "NRecursion" in led.entry(7, 8).lo_provenance


def test_n0_reports_from_full_ledger():
    led = propagate(12, 16, 1, bundled_search_anchors())
    assert n0_report(3, led).to_json() == {
        "k": 3, "status": "determined", "n0": 2, "n0_min": 2, "n0_max": 2
    }
    assert n0_report(4, led).n0 == 5
    assert n0_report(5, led).n0 == 6
    r8 = n0_report(8, led)
    assert r8.status == "at_least" and r8.n0_min == 13


@pytest.mark.parametrize("k", [0, 20])
def test_n0_report_refuses_a_k_outside_the_ledger(k):
    # the ledger holds no cell of column k, so it answers nothing about it
    with pytest.raises(ValueError, match=r"k_range \(1, 5\)"):
        n0_report(k, propagate(8, 5, 1))


@pytest.mark.parametrize(
    "cells,expect",
    [
        # (lo, hi) for n = 2, 3, 4 at k = 2, d = 1, where the target is n + 1
        ([(2, 2), (4, 4), (5, 5)], {"status": "determined", "n0": 3, "n0_min": 3, "n0_max": 3}),
        ([(3, 3), (4, 4), (5, 5)], {"status": "at_most", "n0_max": 2}),
        ([(2, 3), (4, 4), (5, 5)], {"status": "open", "n0_max": 3}),
        ([(2, 2), (3, 4), (4, 5)], {"status": "at_least", "n0_min": 3}),
        ([(2, 2), (3, 4), (5, 5)], {"status": "open", "n0_min": 3, "n0_max": 4}),
        ([(2, 3), (3, 4), (4, 5)], {"status": "open"}),
    ],
)
def test_n0_report_branches(cells, expect):
    ledger = BoundLedger(d=1, n_range=(2, 4), k_range=(2, 2), anchors=())
    for n, (lo, hi) in enumerate(cells, start=2):
        ledger.cells[(n, 2, 1)] = BoundEntry(n=n, k=2, d=1, lo=lo, hi=hi)
    assert n0_report(2, ledger).to_json() == {"k": 2, **expect}


def test_format_table_csv_and_md():
    led = propagate(4, 4, 1, bundled_search_anchors())
    csv = format_table(led, "csv")
    lines = csv.splitlines()
    assert lines[0] == "n\\k,1,2,3,4"
    assert lines[1] == "1,1,2*,3,4"
    assert lines[3] == "3,3,4*,6*,7"
    md = format_table(led, "md")
    assert md.startswith("| n\\k | 1 | 2 | 3 | 4 |")
    assert "| 6* |" in md


def test_format_table_interval_text_and_window():
    led = propagate(6, 6, 1)  # no anchors: f(5,4) stays open
    csv = format_table(led, "csv", n_lo=5, n_hi=5, k_lo=4, k_hi=4)
    assert csv.splitlines()[1] == "5,9..10"
    with pytest.raises(ValueError):
        format_table(led, "html")


def test_ledger_json_shape():
    led = propagate(3, 2, 1, bundled_search_anchors())
    doc = led.to_json()
    assert doc["version"] == 1
    assert doc["d"] == 1
    assert len(doc["cells"]) == 6
    assert {"lo", "hi", "lo_provenance", "hi_provenance"} <= doc["cells"][0].keys()


@pytest.mark.parametrize(
    "key,value",
    [("value", 9.9), ("value", "10"), ("n", 5.0), ("k", True), ("d", 1.0), ("lo", 9.5), ("hi", "11")],
)
def test_anchor_integers_are_strict(key, value):
    # int(9.9) would have pinned f(5,4,1) at 9, below the paper's 10
    item = {"n": 5, "k": 4, "d": 1, "source": "byhand"}
    item.update({"value": 10} if key in ("n", "k", "d", "value") else {"lo": 9, "hi": 11})
    item[key] = value
    with pytest.raises(ValueError, match="must be an integer"):
        anchors_from_json({"anchors": [item]})
