"""Depth-first branch-and-bound for minimum multiplicity covers.

The pool is every codimension-d affine subspace of F_2^n; a search state
is a multiset over the pool.  Branching follows deficient points: pick
the worst uncovered point, try each of its usable coverers in turn, and
forbid a tried coverer in the later siblings, so no multiset is reached
twice.  Closed forms and the construction families shortcut the search
whenever the root bounds already meet, so real branching only happens on
cells where exhaustive search is the only known proof.

An origin window [s_min, s_max] generalises both problems: minimising
f(n,k,d) is the window [0, k-1], fixing g(n,k,d;s) is [s, s].
"""

from __future__ import annotations

import time
from contextlib import suppress
from dataclasses import dataclass

from .bounds import _check_problem, exact_thm_a, lb_origin_at_least
from .codes import golay_cover
from .constructions import diagonal_cover, lemma31_cover, smax_cover, thm_a_cover
from .covers import Cover, coverage_counts
from .gf2core import (
    AffineSubspace,
    GFVector,
    enumerate_subspaces,
    point_mask,
    point_subspace,
)

STATUSES = ("optimal", "feasible", "infeasible", "unknown")


@dataclass(frozen=True)
class SolveResult:
    """Search outcome with certificate and proof bookkeeping.

    'optimal' means value is the proved minimum for the stated origin
    window; 'feasible' means a cover of this size was found but smaller
    ones are not excluded; 'infeasible' means the search space was
    exhausted with nothing inside the limit; 'unknown' means a budget ran
    out before anything was found.  assumptions lists any origin-window
    restriction the proof is conditional on; proof_lo is the closed-form
    lower bound established at the root.
    """

    status: str
    value: int | None
    certificate: Cover | None
    nodes: int
    proof_lo: int
    assumptions: tuple[str, ...] = ()

    def to_json(self) -> dict:
        doc: dict = {
            "status": self.status,
            "value": self.value,
            "nodes": self.nodes,
            "proof_lo": self.proof_lo,
            "assumptions": list(self.assumptions),
        }
        if self.certificate is not None:
            doc["certificate"] = self.certificate.to_json()
        return doc


class _BudgetExhausted(Exception):
    pass


class _FoundWitness(Exception):
    pass


class _Search:
    """One branch-and-bound run over the full pool at fixed (n,k,d).

    The usable subset of the pool and the deficient subset of the points
    both live in single ints, so exclusion, the multiplicity cap, the
    origin cap, and their undo are all O(1) bit work.
    """

    def __init__(
        self,
        n: int,
        k: int,
        d: int,
        s_min: int,
        s_max: int,
        limit: int,
        stop_at_first: bool,
        deadline: float | None,
        max_nodes: int | None,
    ):
        self.n, self.k, self.d = n, k, d
        self.s_min, self.s_max = s_min, s_max
        self.limit = limit
        self.stop_at_first = stop_at_first
        self.deadline = deadline
        self.max_nodes = max_nodes
        self.pool = enumerate_subspaces(n, d)
        self.masks = [point_mask(S) for S in self.pool]
        self.points = [
            tuple(p for p in range(1 << n) if m >> p & 1) for m in self.masks
        ]
        self.through_origin = [bool(m & 1) for m in self.masks]
        npts = 1 << n
        self.npts = npts
        self.coverer_masks = [0] * npts
        for i, pts in enumerate(self.points):
            for p in pts:
                self.coverer_masks[p] |= 1 << i
        self.origin_pool = self.coverer_masks[0]
        self.target = [self.k] * npts
        self.target[0] = s_min
        self.counts = [0] * npts
        self.mult = [0] * len(self.pool)
        self.usable_mask = (1 << len(self.pool)) - 1
        if s_max == 0:
            self.usable_mask &= ~self.origin_pool
        self.def_total = k * (npts - 1) + s_min
        self.def_mask = ((1 << npts) - 2) | (1 if s_min > 0 else 0)
        self.size = 0
        self.nodes = 0
        self.cov_shift = n - d
        self.cov = 1 << (n - d)
        self.best_size: int | None = None
        self.best_mult: list[int] | None = None
        if d == 1 and n >= 2:
            self.dir_of = [S.normals[0] for S in self.pool]
            self.side_of = [S.rhs for S in self.pool]
            self.acount = [0] * (1 << n)
            self.bcount = [0] * (1 << n)
            self.dir_lb: list[list[int]] | None = _direction_lb_table(
                n, k, s_max
            )
        else:
            self.dir_lb = None

    def _add(self, i: int) -> int:
        """Put one copy of pool[i] in the cover; returns usable bits cleared."""
        flips = 0
        self.mult[i] += 1
        self.size += 1
        if self.dir_lb is not None:
            u = self.dir_of[i]
            if self.side_of[i]:
                self.acount[u] += 1
            else:
                self.bcount[u] += 1
        if self.mult[i] >= self.k:
            bit = (1 << i) & self.usable_mask
            self.usable_mask ^= bit
            flips |= bit
        counts = self.counts
        target = self.target
        for p in self.points[i]:
            c = counts[p]
            counts[p] = c + 1
            if c < target[p]:
                self.def_total -= 1
                if c + 1 == target[p]:
                    self.def_mask ^= 1 << p
        if self.through_origin[i] and counts[0] == self.s_max:
            cleared = self.usable_mask & self.origin_pool
            self.usable_mask ^= cleared
            flips |= cleared
        return flips

    def _remove(self, i: int, flips: int) -> None:
        self.usable_mask |= flips
        if self.dir_lb is not None:
            u = self.dir_of[i]
            if self.side_of[i]:
                self.acount[u] -= 1
            else:
                self.bcount[u] -= 1
        counts = self.counts
        target = self.target
        for p in self.points[i]:
            c = counts[p] - 1
            counts[p] = c
            if c < target[p]:
                self.def_total += 1
                if c + 1 == target[p]:
                    self.def_mask |= 1 << p
        self.mult[i] -= 1
        self.size -= 1

    def run(self, forced: int | None = None) -> None:
        """Search, optionally with one pool element preplaced at the root."""
        with suppress(_FoundWitness):
            if forced is None:
                self._node()
                return
            rec = self._add(forced)
            try:
                self._node()
            finally:
                self._remove(forced, rec)

    def _node(self) -> None:
        self.nodes += 1
        if self.max_nodes is not None and self.nodes > self.max_nodes:
            raise _BudgetExhausted
        if (
            self.deadline is not None
            and (self.nodes & 255) == 0
            and time.monotonic() > self.deadline
        ):
            raise _BudgetExhausted
        if self.def_total == 0:
            self.best_size = self.size
            self.best_mult = list(self.mult)
            if self.stop_at_first:
                raise _FoundWitness
            self.limit = self.size - 1
            return
        size = self.size
        limit = self.limit
        if size + ((self.def_total + self.cov - 1) >> self.cov_shift) > limit:
            return
        counts = self.counts
        target = self.target
        coverer_masks = self.coverer_masks
        um = self.usable_mask
        best_need = 0
        best_cnt = 0
        branch_p = -1
        m = self.def_mask
        while m:
            b = m & -m
            p = b.bit_length() - 1
            m ^= b
            need = target[p] - counts[p]
            if size + need > limit:
                return
            cnt = (coverer_masks[p] & um).bit_count()
            if cnt == 0:
                return
            if (
                branch_p < 0
                or need > best_need
                or (need == best_need and cnt < best_cnt)
            ):
                best_need, best_cnt, branch_p = need, cnt, p
        dm = self.def_mask
        masks = self.masks
        cands = []
        cm = coverer_masks[branch_p] & um
        while cm:
            b = cm & -cm
            i = b.bit_length() - 1
            cm ^= b
            cands.append((-(masks[i] & dm).bit_count(), i))
        cands.sort()
        dir_lb = self.dir_lb
        flipped = 0
        try:
            for _, i in cands:
                if dir_lb is not None:
                    u = self.dir_of[i]
                    if self.side_of[i]:
                        fate = dir_lb[self.acount[u] + 1][self.bcount[u]]
                    else:
                        fate = dir_lb[self.acount[u]][self.bcount[u] + 1]
                    if fate > self.limit:
                        # exclusion still applies: the subtree is provably empty
                        bit = 1 << i
                        self.usable_mask &= ~bit
                        flipped |= bit
                        continue
                rec = self._add(i)
                self._node()
                self._remove(i, rec)
                # exclusion: later siblings may not use pool[i] at all
                bit = 1 << i
                self.usable_mask &= ~bit
                flipped |= bit
        finally:
            self.usable_mask |= flipped


def _direction_lb_table(n: int, k: int, s_max: int) -> list[list[int]]:
    """Least final size of a valid cover holding (a, b) copies of the two
    hyperplanes of one direction, minimized over extensions a' >= a, b' >= b.

    With a' one-side copies, the rest must cover that affine side fully,
    so at least 2(k - a') more; with b' zero-side copies, the rest
    restricts to the linear side as a (k - b')-cover, so at least the
    closed-form lower bound for f(n-1, k - b') more.  b' stays below the
    origin budget because each zero-side copy goes through the origin.
    """
    flo = [0] * (k + 1)
    for kp in range(1, k + 1):
        flo[kp] = lb_origin_at_least(n - 1, kp, 1, 0)
    never = 1 << 30
    table = [[never] * (k + 1) for _ in range(k + 1)]
    b_cap = min(k - 1, s_max)
    for a0 in range(k + 1):
        for b0 in range(k + 1):
            best = never
            for a in range(a0, k + 1):
                for b in range(b0, b_cap + 1):
                    affine_side = 2 * (k - a) if a < k else 0
                    linear_side = flo[k - b]
                    best = min(best, a + b + max(affine_side, linear_side))
            table[a0][b0] = best
    return table


def _points_cover(n: int, k: int, s: int) -> Cover:
    entries = [(point_subspace(GFVector(v, n)), k) for v in range(1, 1 << n)]
    if s:
        entries.append((point_subspace(GFVector(0, n)), s))
    return Cover.from_entries(entries)


def _best_seed(
    n: int, k: int, d: int, s_min: int, s_max: int, extra: Cover | None
) -> Cover | None:
    candidates: list[Cover] = []

    def consider(build) -> None:
        with suppress(ValueError):
            candidates.append(build())

    if exact_thm_a(n, k, d) is not None:
        consider(lambda: thm_a_cover(n, k, d))
    if k >= 2 and n > d:
        consider(lambda: lemma31_cover(n, k, d))
    consider(lambda: smax_cover(n, k, d))
    if d == 1 and n == k and k >= 4:
        consider(lambda: diagonal_cover(k))
    if (n, k, d) == (12, 8, 1):
        consider(golay_cover)
    if n == d:
        consider(lambda: _points_cover(n, k, s_min))
    if extra is not None:
        if (extra.n, extra.d) != (n, d):
            raise ValueError(
                f"seed cover is for n={extra.n}, d={extra.d}, not n={n}, d={d}"
            )
        candidates.append(extra)

    best: Cover | None = None
    for C in candidates:
        counts = coverage_counts(C)
        if min(counts[1:]) < k or not s_min <= counts[0] <= s_max:
            continue
        if best is None or C.size < best.size:
            best = C
    return best


def _certificate(search: _Search) -> Cover:
    """The best cover found, re-verified; raises if the search was wrong."""
    if search.best_mult is None:
        raise AssertionError("search kept no cover to certify")
    entries = [
        (search.pool[i], m) for i, m in enumerate(search.best_mult) if m > 0
    ]
    C = Cover.from_entries(entries)
    counts = coverage_counts(C)
    if min(counts[1:]) < search.k or not search.s_min <= counts[0] <= search.s_max:
        raise AssertionError(
            f"search certificate failed verification: min coverage {min(counts[1:])}, "
            f"origin {counts[0]}, need k={search.k}, s in [{search.s_min}, {search.s_max}]"
        )
    return C


def _drive(
    n: int,
    k: int,
    d: int,
    s_min: int,
    s_max: int,
    cap: int | None,
    assumptions: tuple[str, ...],
    max_nodes: int | None,
    max_seconds: float | None,
    extra_seed: Cover | None,
) -> SolveResult:
    """Common engine: cap=None minimises, cap=m decides existence at size <= m."""
    lo = lb_origin_at_least(n, k, d, s_min)
    seed = _best_seed(n, k, d, s_min, s_max, extra_seed)
    deciding = cap is not None

    if deciding:
        if seed is not None and seed.size <= cap:
            return SolveResult(
                "feasible", seed.size, seed, 0, lo, assumptions
            )
        if lo > cap:
            return SolveResult("infeasible", None, None, 0, lo, assumptions)
        limit = cap
    else:
        if seed is not None:
            if seed.size == lo:
                return SolveResult("optimal", seed.size, seed, 0, lo, assumptions)
            limit = seed.size - 1
        else:
            limit = 1 << 60

    deadline = time.monotonic() + max_seconds if max_seconds is not None else None
    # Any valid cover owns an origin-avoiding member: all-through-origin
    # forces origin count == size, and the window puts size <= k-1 < k,
    # too few to cover any nonzero point k times.  GL(n,2) is transitive
    # on origin-avoiding codim-d subspaces and preserves the window, so
    # one canonical representative can be preplaced.
    canonical = AffineSubspace(
        n=n, d=d, normals=tuple(1 << j for j in range(d)), rhs=1
    )
    # The window splits by exact origin count; each single-s subproblem
    # carries much tighter direction tables than the window as a whole.
    # High s first: the known good covers sit at s >= k-2.
    total_nodes = 0
    exhausted = True
    found_size: int | None = None
    found_cert: Cover | None = None
    for s in range(s_max, s_min - 1, -1):
        if lb_origin_at_least(n, k, d, s) > limit:
            continue
        budget_left = None if max_nodes is None else max_nodes - total_nodes
        if budget_left is not None and budget_left <= 0:
            exhausted = False
            break
        search = _Search(
            n, k, d, s, s, limit,
            stop_at_first=deciding, deadline=deadline, max_nodes=budget_left,
        )
        try:
            search.run(forced=search.pool.index(canonical))
        except _BudgetExhausted:
            total_nodes += search.nodes
            exhausted = False
            break
        total_nodes += search.nodes
        if search.best_size is not None:
            found_size = search.best_size
            found_cert = _certificate(search)
            if deciding:
                break
            limit = found_size - 1

    if found_size is not None:
        if deciding:
            status = "feasible"
        else:
            status = "optimal" if exhausted else "feasible"
        return SolveResult(
            status, found_size, found_cert, total_nodes, lo, assumptions
        )
    if deciding:
        status = "infeasible" if exhausted else "unknown"
        return SolveResult(status, None, None, total_nodes, lo, assumptions)
    if seed is not None:
        status = "optimal" if exhausted else "feasible"
        return SolveResult(status, seed.size, seed, total_nodes, lo, assumptions)
    return SolveResult("unknown", None, None, total_nodes, lo, assumptions)


def solve_min(
    n: int,
    k: int,
    d: int = 1,
    *,
    assume_high_origin: bool = False,
    max_nodes: int | None = None,
    max_seconds: float | None = None,
    extra_seed: Cover | None = None,
) -> SolveResult:
    """Minimise cover size over the full origin window [0, k-1].

    assume_high_origin narrows the window to [k-2, k-1]; the result's
    assumptions field then records that the minimality proof is relative
    to that window (unconditional for n large enough, see
    origin_mult_floor).
    """
    _check_problem(n, k, d)
    s_min, assumptions = 0, ()
    if assume_high_origin and k >= 2:
        s_min = k - 2
        assumptions = ("origin_count >= k-2",)
    return _drive(
        n, k, d, s_min, k - 1, None, assumptions, max_nodes, max_seconds, extra_seed
    )


def solve_g(
    n: int,
    k: int,
    d: int,
    s: int,
    *,
    max_nodes: int | None = None,
    max_seconds: float | None = None,
    extra_seed: Cover | None = None,
) -> SolveResult:
    """Minimise cover size at origin count exactly s."""
    _check_problem(n, k, d)
    if not 0 <= s <= k - 1:
        raise ValueError(f"need 0 <= s <= k-1, got s={s}, k={k}")
    return _drive(n, k, d, s, s, None, (), max_nodes, max_seconds, extra_seed)


def decide(
    n: int,
    k: int,
    d: int,
    size: int,
    *,
    s: int | None = None,
    assume_high_origin: bool = False,
    max_nodes: int | None = None,
    max_seconds: float | None = None,
    extra_seed: Cover | None = None,
) -> SolveResult:
    """Does a cover of size <= size exist?  feasible=yes, infeasible=no.

    s fixes the origin count; otherwise the full window [0, k-1] is
    searched.  Seeds are checked before the pool is even built, so
    deciding at or above a construction size returns immediately
    whatever n is.
    """
    _check_problem(n, k, d)
    if size < 0:
        raise ValueError(f"need size >= 0, got {size}")
    if s is not None and assume_high_origin:
        raise ValueError("fixed s and assume_high_origin are exclusive")
    s_min, s_max, assumptions = 0, k - 1, ()
    if s is not None:
        if not 0 <= s <= k - 1:
            raise ValueError(f"need 0 <= s <= k-1, got s={s}, k={k}")
        s_min = s_max = s
    elif assume_high_origin and k >= 2:
        s_min = k - 2
        assumptions = ("origin_count >= k-2",)
    return _drive(
        n, k, d, s_min, s_max, size, assumptions, max_nodes, max_seconds, extra_seed
    )
