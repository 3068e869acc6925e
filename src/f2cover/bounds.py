"""Closed-form bounds on minimum cover sizes and the interval ledger.

f(n,k,d) is the least size of a (k,d)-cover of F_2^n; g(n,k,d;s) fixes the
origin count at s.  Every bound is an exact integer: the sphere-packing
bound is the least length passing an integer inequality, so no
floating-point ordering can leak in.
propagate() closes a rectangle of [lo,hi] intervals under the dimension
and multiplicity recursions and records which rule set each endpoint.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from importlib import resources

from .gf2core import ParameterError, _check_problem, _json_int, _json_list

LEDGER_FORMAT_VERSION = 1


def _linear_value(n: int, k: int, d: int) -> int:
    """n + 2^d k - d - 2: the Lemma 3.1 size, met by f for n large enough."""
    return n + (k << d) - d - 2


def _thm_b_applies(n: int, k: int, d: int) -> bool:
    """Theorem B's exponentially large n > 2^(2^d k - d - k + 1), by bit length."""
    return (n - 1).bit_length() > (k << d) - d - k + 1


def lb_double_count(n: int, k: int, d: int, s: int = 0) -> int:
    """Incidence-count lower bound 2^d k - floor((k-s) / 2^(n-d)) on g(n,k,d;s)."""
    _check_problem(n, k, d, s)
    return (k << d) - ((k - s) >> (n - d))


def exact_thm_a(n: int, k: int, d: int) -> int | None:
    """f(n,k,d) in the dense regime k >= 2^(n-d-1); None outside it."""
    _check_problem(n, k, d)
    if k.bit_length() <= n - d - 1:
        return None
    return (k << d) - (k >> (n - d))


def _griesmer(n: int, delta: int) -> int:
    """Griesmer's bound sum_{i<n} ceil(delta / 2^i) on the length of a binary
    [N, n, >= delta] code (Griesmer, IBM J. Res. Dev. 4, 1960)."""
    head = min(n, (delta - 1).bit_length())  # each later term is 1
    return sum(-(-delta >> i) for i in range(head)) + n - head


def _sphere_packing(n: int, delta: int, start: int | None = None) -> int:
    """Least N >= start (default n) with 2^(N-n) >= sum_{i<=t} C(N,i),
    t = floor((delta-1)/2): the 2^n codewords of a binary [N, n, >= delta]
    code own disjoint radius-t balls.  Once the test holds it holds for
    every larger N, since the ball at most doubles when N grows by one, so
    the result is max(start, the least such N).  When 2t <= N the terms
    grow up to C(N, t), so (t+1) C(N, t) <= 2^(N-n) settles the test
    without the sum.  Otherwise the ball is summed by C(N, i+1) =
    C(N, i) (N-i) / (i+1) and only until it passes 2^(N-n)."""
    t = (delta - 1) >> 1
    N = n if start is None else start
    while True:
        room, ball, term = 1 << (N - n), 1, 1
        if 2 * t <= N and (t + 1) * math.comb(N, t) <= room:
            return N
        for i in range(t):
            term = term * (N - i) // (i + 1)
            ball += term
            if ball > room:
                break
        if ball <= room:
            return N
        N += 1


@lru_cache(maxsize=1 << 12)
def _code_length(n: int, delta: int) -> int:
    """The larger of the Griesmer and sphere-packing lengths of a binary
    [N, n, >= delta] code."""
    return _sphere_packing(n, delta, _griesmer(n, delta))


def g_smax_formula(n: int, k: int, d: int) -> int:
    """Exact g(n,k,d;k-1) = n + 2^d k - d - 1."""
    _check_problem(n, k, d)
    return n + (k << d) - d - 1


def lb_g_restriction(n: int, k: int, d: int, s: int) -> int:
    """g(n,k,d;s) >= k(2^d - 1) + s + (n - d) for 0 <= s <= k-1.

    Restricting to a well-chosen linear hyperplane loses one subspace and
    keeps k, d, and s, so g descends by at least 1 per dimension down to
    the n = d base, where subspaces are single points and the size is
    forced to k(2^d - 1) + s exactly.  At s = k-1 this meets
    g_smax_formula, which is tight.
    """
    _check_problem(n, k, d, s)
    return k * ((1 << d) - 1) + s + (n - d)


def origin_mult_floor(n: int, k: int, d: int) -> int:
    """Provable least origin count of an optimal cover: k-2 for huge n, else 0."""
    _check_problem(n, k, d)
    if k > 2 and _thm_b_applies(n, k, d):
        return k - 2
    return 0


def jamison_value(n: int, d: int) -> int:
    """Exact f(n,1,d) = n + 2^d - d - 1 (classical single-cover value)."""
    return g_smax_formula(n, 1, d)


def all_points_value(n: int, k: int) -> int:
    """Exact f(n,k,n) = k(2^n - 1): covering by points forces k copies each."""
    return k * ((1 << n) - 1)


@dataclass(frozen=True)
class Anchor:
    """An externally established fact about one cell, one or both sides."""

    n: int
    k: int
    d: int
    lo: int | None = None
    hi: int | None = None
    source: str = "anchor"

    def __post_init__(self) -> None:
        if self.lo is None and self.hi is None:
            raise ValueError("an anchor must carry a lo bound, a hi bound, or both")

    def to_json(self) -> dict:
        doc: dict = {"n": self.n, "k": self.k, "d": self.d, "source": self.source}
        if self.lo is not None and self.lo == self.hi:
            doc["value"] = self.lo
        else:
            if self.lo is not None:
                doc["lo"] = self.lo
            if self.hi is not None:
                doc["hi"] = self.hi
        return doc


def anchors_from_json(doc: dict) -> tuple[Anchor, ...]:
    """An anchor document's anchors; refuses another version and mistyped fields."""
    if doc.get("version", LEDGER_FORMAT_VERSION) != LEDGER_FORMAT_VERSION:
        raise ValueError(f"unsupported anchor document version {doc.get('version')!r}")
    out = []
    for item in _json_list(doc, "anchors"):
        if "value" in item:
            lo = hi = _json_int(item, "value")
        else:
            lo = _json_int(item, "lo") if "lo" in item else None
            hi = _json_int(item, "hi") if "hi" in item else None
        source = item.get("source", "anchor")
        if type(source) is not str:
            raise ValueError(f"'source' must be a string, got {source!r}")
        out.append(
            Anchor(
                n=_json_int(item, "n"), k=_json_int(item, "k"), d=_json_int(item, "d"),
                lo=lo, hi=hi, source=source,
            )
        )
    return tuple(out)


def bundled_search_anchors() -> tuple[Anchor, ...]:
    """The shipped anchor set: exhaustive-search cell values plus the Golay bound."""
    text = resources.files("f2cover").joinpath("data/search_anchors.json").read_text()
    return anchors_from_json(json.loads(text))


@dataclass(frozen=True)
class BoundEntry:
    """One ledger cell: lo <= f(n,k,d) <= hi, with the rows that set each side."""

    n: int
    k: int
    d: int
    lo: int
    hi: int
    lo_provenance: tuple[str, ...] = ()
    hi_provenance: tuple[str, ...] = ()

    @property
    def exact(self) -> bool:
        return self.lo == self.hi

    def to_json(self) -> dict:
        return {
            "n": self.n, "k": self.k, "d": self.d, "lo": self.lo, "hi": self.hi,
            "lo_provenance": list(self.lo_provenance),
            "hi_provenance": list(self.hi_provenance),
        }


class LedgerContradiction(Exception):
    """lo exceeded hi somewhere: at least one anchor (or rule) is wrong."""


@dataclass
class BoundLedger:
    """[lo,hi] intervals for f(n,k,d) over a rectangle, closed under all rules."""

    d: int
    n_range: tuple[int, int]
    k_range: tuple[int, int]
    anchors: tuple[Anchor, ...]
    cells: dict[tuple[int, int, int], BoundEntry] = field(default_factory=dict)

    def entry(self, n: int, k: int) -> BoundEntry:
        return self.cells[(n, k, self.d)]

    def value(self, n: int, k: int) -> int:
        e = self.entry(n, k)
        if not e.exact:
            raise ValueError(f"f({n},{k},{self.d}) not pinned: [{e.lo},{e.hi}]")
        return e.lo

    def to_json(self) -> dict:
        return {
            "version": LEDGER_FORMAT_VERSION,
            "d": self.d,
            "n_range": list(self.n_range),
            "k_range": list(self.k_range),
            "anchors": [a.to_json() for a in self.anchors],
            "cells": [e.to_json() for _, e in sorted(self.cells.items())],
        }


def _closed_form_rules(n: int, k: int, d: int, s: int | None = None):
    """Per-cell (tag, side, value) rows; side is 'lo', 'hi', or 'both'.

    The rows bound f(n,k,d), or g(n,k,d;s) when s is given.  The ledger
    and the `bound` command read them, and the solver reads lb_g.

    CodeLength, at d=1: let a cover of size N hold s members through the
    origin (B) and N-s avoiding it (A).  A nonzero x lies in wt_A(x) members
    of A, those u.x = 1, and in s - wt_B(x) members of B, so
    wt_A(x) >= k - s + wt_B(x) >= k - s.  Hence x -> (u.x) over u in A is
    an injective linear map onto a binary [N-s, n, >= k-s] code (the code
    codes.code_from_cover builds), and N >= s + the Griesmer and
    sphere-packing lengths of such a code.  The row is not monotone in s
    (at (5,4,1) it reads 9, 10, 8, 8 for s = 0..3).  As f is the least g,
    the d=1 f rows take the least over s of the g rows' lo as LeastG, and
    the g rows take f's lo as AtLeastF.
    """
    if s is not None:
        return _g_rows(n, k, d, s) + [("AtLeastF", "lo", _lo(_closed_form_rules(n, k, d)))]
    rules = [("DoubleCount", "lo", lb_double_count(n, k, d))]
    a = exact_thm_a(n, k, d)
    if a is not None:
        rules.append(("ThmA", "both", a))
    if k == 1:
        rules.append(("Anchor(jamison)", "both", jamison_value(n, d)))
    if d == n:
        rules.append(("Anchor(allpoints)", "both", all_points_value(n, k)))
    if k >= 2:
        rules.append(("Construction(l31)", "hi", _linear_value(n, k, d)))
        log_k = k.bit_length() - 1
        if _thm_b_applies(n, k, d):
            rules.append(("ThmB", "both", _linear_value(n, k, d)))
        elif n >= log_k + d + 1:
            # ceil(x - log2(2k)) for integer x, exact in integers
            rules.append(("ThmC", "lo", n + (k << d) - d - 1 - log_k))
    rules.append(("Construction(smax)", "hi", g_smax_formula(n, k, d)))
    if d == 1 and n == k and k >= 4:
        rules.append(("Construction(diag)", "hi", 3 * k - 4))
    if d == 1:
        rules.append(("LeastG", "lo", min(_g_pass(n, k, 1))))
    return rules


def _g_rows(n: int, k: int, d: int, s: int):
    """The rows that bound g(n,k,d;s) on their own, without AtLeastF."""
    rules = [
        ("DoubleCount", "lo", lb_double_count(n, k, d, s)),
        ("RestrictionDescent", "lo", lb_g_restriction(n, k, d, s)),
    ]
    if s == k - 1:
        rules.append(("GSmax", "both", g_smax_formula(n, k, d)))
    if d == 1:
        rules.append(("CodeLength", "lo", s + _code_length(n, k - s)))
    return rules


def _lo(rows) -> int:
    return max(value for _, side, value in rows if side != "hi")


@lru_cache(maxsize=1 << 12)
def _g_pass(n: int, k: int, d: int) -> tuple[int, ...]:
    """The g rows' lo at each s: lb_g's pass, whose least is f's LeastG."""
    return tuple(_lo(_g_rows(n, k, d, s)) for s in range(k))


@lru_cache(maxsize=1 << 12)
def lb_g(n: int, k: int, d: int) -> tuple[int, ...]:
    """Entry s: the lower bound on g(n,k,d;s) that `bound --s` prints."""
    f = _lo(_closed_form_rules(n, k, d))
    return tuple(max(f, g) for g in _g_pass(n, k, d))


def _fold(rows, lo: int, hi: int) -> tuple[int, int]:
    """[lo, hi] tightened by each row's value on its side."""
    for _, side, value in rows:
        if side != "hi":
            lo = max(lo, value)
        if side != "lo":
            hi = min(hi, value)
    return lo, hi


def propagate(
    n_max: int,
    k_max: int,
    d: int = 1,
    anchors: tuple[Anchor, ...] | list[Anchor] = (),
) -> BoundLedger:
    """Least fixpoint of all bound rules over d <= n <= n_max, 1 <= k <= k_max.

    Anchors referring to cells outside the rectangle (or to another d) are
    ignored.  Raises LedgerContradiction when some cell's lower bounds
    exceed its upper bounds, which signals a wrong anchor.
    """
    if n_max < d or k_max < 1:
        raise ParameterError(f"empty rectangle: n_max={n_max}, k_max={k_max}, d={d}")
    cells = [(n, k) for n in range(d, n_max + 1) for k in range(1, k_max + 1)]
    closed = {(n, k): _closed_form_rules(n, k, d) for n, k in cells}
    pinned = {cell: [] for cell in cells}
    for a in anchors:
        if a.d == d and (a.n, a.k) in pinned:
            tag = f"Anchor({a.source})"
            pinned[(a.n, a.k)] += [
                (tag, side, v) for side, v in (("lo", a.lo), ("hi", a.hi)) if v is not None
            ]
    lo: dict[tuple[int, int], int] = {}
    hi: dict[tuple[int, int], int] = {}
    for n, k in cells:
        # slack start; smax tightens immediately
        lo[(n, k)], hi[(n, k)] = _fold(closed[(n, k)] + pinned[(n, k)], 0, n + (k << d))

    def relational(n: int, k: int) -> list[tuple[str, str, int]]:
        out: list[tuple[str, str, int]] = []
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

    # Worklist fixpoint: a cell's fold reads only its four neighbours, so it
    # is refolded only after one of them moved.  lo only rises and hi only
    # falls, so the fixpoint is the one any sweep order reaches, and every
    # cell is checked at least once, at its final bounds.
    queue = deque(cells)
    queued = set(cells)
    while queue:
        cell = queue.popleft()
        queued.remove(cell)
        n, k = cell
        new_lo, new_hi = _fold(relational(n, k), lo[cell], hi[cell])
        if new_lo > new_hi:
            raise LedgerContradiction(
                f"f({n},{k},{d}): lower bound {new_lo} exceeds upper bound {new_hi}; "
                "check the anchor inputs"
            )
        if new_lo != lo[cell] or new_hi != hi[cell]:
            lo[cell], hi[cell] = new_lo, new_hi
            for near in ((n - 1, k), (n + 1, k), (n, k - 1), (n, k + 1)):
                if near in lo and near not in queued:
                    queue.append(near)
                    queued.add(near)

    ledger = BoundLedger(
        d=d, n_range=(d, n_max), k_range=(1, k_max), anchors=tuple(anchors)
    )
    for n, k in cells:
        final_lo, final_hi = lo[(n, k)], hi[(n, k)]
        # provenance order: closed-form tags, recursion tags, anchor tags
        ordered = closed[(n, k)] + relational(n, k) + pinned[(n, k)]
        ledger.cells[(n, k, d)] = BoundEntry(
            n=n, k=k, d=d, lo=final_lo, hi=final_hi,
            lo_provenance=tuple(t for t, side, v in ordered if side != "hi" and v == final_lo),
            hi_provenance=tuple(t for t, side, v in ordered if side != "lo" and v == final_hi),
        )
    return ledger


@dataclass(frozen=True)
class N0Report:
    """Where the column k settles onto the linear value n + 2^d k - d - 2."""

    k: int
    status: str  # determined | at_least | at_most | open
    n0: int | None = None
    n0_min: int | None = None
    n0_max: int | None = None

    def to_json(self) -> dict:
        return {key: value for key, value in asdict(self).items() if value is not None}


def n0_report(k: int, ledger: BoundLedger) -> N0Report:
    """Threshold bookkeeping for one column of the ledger.

    Compares each exact cell against the linear target n + 2^d k - d - 2;
    once a column cell hits the target it stays there for all larger n, so
    the least such n determines the threshold when the cell just below is
    known to fall strictly short.
    """
    if not ledger.k_range[0] <= k <= ledger.k_range[1]:
        raise ValueError(f"k={k} outside the ledger's k_range {ledger.k_range}")
    d = ledger.d
    n_lo, n_hi = ledger.n_range
    target = lambda n: _linear_value(n, k, d)
    start = max(n_lo, d)
    below = None
    n0_max = None
    for n in range(start, n_hi + 1):
        e = ledger.cells.get((n, k, d))
        if e is None:
            continue
        if e.hi < target(n):
            below = n
        if e.exact and e.lo == target(n) and n0_max is None:
            n0_max = n
    n0_min = None if below is None else below + 1
    if n0_max is not None and n0_min == n0_max:
        return N0Report(k=k, status="determined", n0=n0_max, n0_min=n0_min, n0_max=n0_max)
    if n0_min is None:
        status = "at_most" if n0_max == start else "open"
    else:
        status = "at_least" if n0_max is None else "open"
    return N0Report(k=k, status=status, n0_min=n0_min, n0_max=n0_max)


def _cell_text(e: BoundEntry) -> str:
    formula_hi = _linear_value(e.n, e.k, e.d)
    if e.exact:
        return f"{e.lo}*" if e.lo == formula_hi else str(e.lo)
    return f"{e.lo}..{e.hi}"


def format_table(
    ledger: BoundLedger,
    fmt: str = "md",
    n_lo: int | None = None,
    n_hi: int | None = None,
    k_lo: int | None = None,
    k_hi: int | None = None,
) -> str:
    """Render a rectangle of the ledger, one line a row with no newline
    after the last; asterisks mark cells equal to the linear upper-bound
    formula, intervals appear as lo..hi."""
    d = ledger.d
    n_a = max(ledger.n_range[0], n_lo if n_lo is not None else ledger.n_range[0])
    n_b = min(ledger.n_range[1], n_hi if n_hi is not None else ledger.n_range[1])
    k_a = max(ledger.k_range[0], k_lo if k_lo is not None else ledger.k_range[0])
    k_b = min(ledger.k_range[1], k_hi if k_hi is not None else ledger.k_range[1])
    ks = list(range(k_a, k_b + 1))
    rows = []
    for n in range(max(n_a, d), n_b + 1):
        texts = [_cell_text(ledger.cells[(n, k, d)]) for k in ks]
        rows.append((n, texts))
    if fmt == "csv":
        lines = ["n\\k," + ",".join(str(k) for k in ks)]
        lines += [f"{n}," + ",".join(texts) for n, texts in rows]
        return "\n".join(lines)
    if fmt == "md":
        lines = ["| n\\k | " + " | ".join(str(k) for k in ks) + " |"]
        lines.append("|" + " --- |" * (len(ks) + 1))
        lines += ["| " + " | ".join([str(n)] + texts) + " |" for n, texts in rows]
        return "\n".join(lines)
    raise ValueError(f"unknown table format {fmt!r}")
