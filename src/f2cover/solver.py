"""Depth-first branch-and-bound for minimum multiplicity covers.

decide, solve_g and solve_min each return a SolveResult.  f(n,k,d) is the
least g(n,k,d;s) over the origin counts s in [0, k-1], so every call
searches its origin window one exact count s at a time, one _Search.run
per s over one pool index; the _Search docstring describes the search.
Closed forms and the construction families shortcut the search whenever
the root bounds already meet (a root closure builds no pool), so real
branching only happens on cells where exhaustive search is the only known
proof.  Every certificate is verified again before a call returns it.
"""

from __future__ import annotations

import struct
import time
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

from .bounds import exact_thm_a, lb_g
from .codes import golay_cover
from .constructions import _points_cover, diagonal_cover, lemma31_cover, smax_cover, thm_a_cover
from .covers import Cover, verify
from .gf2core import (AffineSubspace, ParameterError, _check_problem, count_subspaces,
                      gaussian_binomial, indicator, linear_systems, point_patterns)

STATUSES = ("optimal", "feasible", "infeasible", "unknown")


@dataclass(frozen=True)
class SolveResult:
    """Search outcome with certificate and proof bookkeeping.

    'optimal' means value is the proved minimum for the stated origin
    window; 'feasible' means a cover of this size was found but smaller
    ones are not excluded (when minimising, only a budget stop leaves
    that: the result is then the best cover found); 'infeasible' means
    the search space was exhausted with nothing inside the limit;
    'unknown' means a budget ran out before anything was found.  Every
    certificate is re-verified before it is returned.  assumptions lists
    any origin-window restriction the proof is conditional on; proof_lo
    is the closed-form lower bound established at the root: the least
    over the window of the bounds at each exact origin count.
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


def _past(deadline: float | None) -> bool:
    return deadline is not None and time.monotonic() > deadline


def _ascending(classes: list[int]):
    """The set bits of each class in turn, lowest first, found lazily: a
    search that takes only the first candidate peels one 64-bit word."""
    for c in classes:
        while c:
            base = ((c & -c).bit_length() - 1) & -64
            w = c >> base & 0xFFFF_FFFF_FFFF_FFFF
            c ^= w << base
            while w:
                b = w & -w
                w ^= b
                yield b.bit_length() - 1 + base


def _tally(xs, width: int) -> list[int]:
    """How many of the ints xs set each bit, in bit planes: bit j of
    planes[t] is bit t of that count, which must be below 2^width.  Each
    x is added with a ripple carry."""
    planes = [0] * width
    for x in xs:
        for t, plane in enumerate(planes):
            planes[t] = plane ^ x
            x &= plane
            if not x:
                break
    return planes


# The delta swaps that transpose the 8 x 8 bit matrix in every 64-bit word,
# byte i bit c going to byte c bit i (Warren, Hacker's Delight, 7-3)
_TRANSPOSE8 = ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))


def _row_columns(systems: list[tuple[int, ...]], n: int) -> list[list[int]]:
    """cols[t][c]: the systems whose row t has bit c, bit j for systems[j].

    Row t of system j is little-endian 16-bit slot j*d + t of one packed
    string (normals fit 16 bits under the index cap).  For each row byte,
    its S bytes, one per system, make one int whose 64-bit words are 8
    systems x 8 row bits; transposing every word at once puts bit c of 8
    systems in byte c of the word, and the bytes c, c+8, ... are cols[t][c]."""
    S, d = len(systems), len(systems[0])
    packed = struct.pack(f"<{S * d}H", *chain.from_iterable(systems))
    width = -(-S // 8) * 8
    lanes = [(shift, int.from_bytes(lane.to_bytes(8, "little") * (width >> 3), "little"))
             for shift, lane in _TRANSPOSE8]
    cols = []
    for t in range(d):
        row = []
        for low in range(0, n, 8):
            x = int.from_bytes(packed[2 * t + (low >> 3)::2 * d], "little")
            for shift, lane in lanes:
                y = (x ^ x >> shift) & lane
                x ^= y ^ y << shift
            block = x.to_bytes(width, "little")
            row += [int.from_bytes(block[c::8], "little") for c in range(min(8, n - low))]
        cols.append(row)
    return cols


class _Search:
    """The pool index of one solver call, searched one origin count per run.

    A call builds at most one of these, _Search(n, k, d, deadline,
    max_nodes).  The pool is every codimension-d affine subspace of F_2^n,
    numbered coset-major: with S = len(systems), the systems of
    gf2core.linear_systems, member r*S + j is coset r of systems[j], and
    member(i) decodes it, so only a certificate's members are ever built as
    AffineSubspace objects.  The pool's bits are 2^d slabs of S bits, slab r
    holding coset r of every system.  The index is kept per system, S bits
    an entry: cols[t][c] holds the systems whose row t has bit c
    (_row_columns), and at d >= 2 kernel[x] the systems whose linear
    subspace holds point x, built by a Gray-code walk over the points with d
    running parity sets.  coverers[x], the members through x, is built from
    the columns on first use by coverer(x), so at d >= 2 only for branch
    points.  At d=1, where a node reads every deficient point's, the whole
    table is built up front by doubling, and there is no kernel: planes runs
    only at d >= 2.  A member's bit mask over the points is built on first
    use by mask(i); masks[i] and coverers[x] are 0 until built, as no member
    and no point's coverer set is empty.
    run(s, limit, floor) searches origin count exactly s, and stops at a
    cover of size at most floor: the root bound at s when minimising, since
    none smaller exists, and the cap when deciding.  At d=1 that root bound
    counts the length of the binary code the cover's origin-avoiding members
    form (the CodeLength row behind bounds.lb_g).  A search state is a few
    ints: lev[j-1] masks the points that still need at least j more copies
    (the origin sits at levels 1..s only, every other point at 1..k), and
    the usable subset of the pool is one int.  Adding a member with point
    mask M drops from level j the points of M not on level j+1, with no
    per-point loop; undo is keeping the parent's ints.  run walks the tree
    in one loop, with the path on an explicit list, so its cost does not
    depend on its caller's stack depth.  The branching rule is children(lev,
    usable) alone: a node branches on a top-level point with the fewest
    usable coverers, found per point at d=1 and by pick at d >= 2, and tries
    its candidates by descending score, the points of lev[0] a member
    covers, and drops a tried candidate from its later siblings' usable
    members, so no multiset is reached twice.  On a tie the lowest system
    index goes first at d >= 2 (ranked, in bit planes one slab wide), and
    the lowest member index at d=1, so there the members through the origin
    come first.
    nodes counts across runs, so max_nodes bounds the whole call.  A pool
    whose index would pass 512 MiB is refused before anything is built.

    At d=1 the search branches on orbits (Ostrowski et al., Math. Program.
    126, 2011).  Let V span the normals placed so far (the root e_1 first),
    and G(V) be the maps in GL(n,2) fixing every functional in V.  G(V)
    fixes each placed member, hence mult, the levels, the origin cap, the
    direction table and usable, which only ever loses tried members (normal
    in V, so fixed), whole orbits and the origin pool.  It is transitive on
    the normals outside V and keeps rhs, so the fresh members (normal not
    in V) form two orbits, rhs 0 and rhs 1.  A node tries only the first
    fresh candidate i of each side, then drops that side from usable: a g
    in G(V) with g(j) = i carries a cover using a later one, j, to one of
    the same size and origin count in i's subtree, and a direction-table
    prune of i prunes its orbit.  run holds V only as the complement of
    fresh, which follows the path: V is 0 and the normals of the members
    of slab 0 that are not fresh.  At d >= 2 fresh is 0.
    """

    def __init__(
        self,
        n: int,
        k: int,
        d: int,
        deadline: float | None,
        max_nodes: int | None,
    ):
        self.n, self.k, self.d = n, k, d
        self.deadline = deadline
        self.max_nodes = max_nodes
        # masks, once all are built, and the d=1 coverer table each hold
        # pool << n bits
        pool = count_subspaces(n, d)
        if pool << n > 1 << 32:
            raise ParameterError(f"the index of {pool} subspaces over 2^{n} points would pass 512 MiB")
        self.systems = systems = linear_systems(n, d)
        if _past(deadline):
            raise _BudgetExhausted
        S = len(systems)
        npts = 1 << n
        self.npts = npts
        # member masks are built from the point patterns on first use
        # (mask), since a find-first run reads a handful
        self.patterns = point_patterns(n)
        self.masks = [0] * (S << d)
        # Member r*S + j holds point p iff r = U_j p, bit t of r being row t
        # of systems[j] dotted with p; the origin lies in coset 0 of every
        # system, slab 0.  Flipping bit c of p flips bit t of r in the
        # systems of cols[t][c].
        self.cols = cols = _row_columns(systems, n)
        origin_pool = self.origin_pool = (1 << S) - 1
        if d == 1:
            # by doubling: flipping coordinate c swaps the two members of
            # each normal with bit c.  At n = 15 the table is 256 MiB and
            # takes tenths of a second, so no step starts past the deadline.
            table = [origin_pool]
            for col in cols[0]:
                if _past(deadline):
                    raise _BudgetExhausted
                swap = col | col << S
                table += [m ^ swap for m in table]
            self.coverers = table
        else:
            # a Gray-code walk over the points: odd[t] holds the systems
            # whose row t is odd at the point, the kernel those with none
            odd = [0] * d
            self.kernel = kernel = [origin_pool] * npts
            for g in range(1, npts):
                c = (g & -g).bit_length() - 1
                anyodd = 0
                for t, col in enumerate(cols):
                    odd[t] ^= col[c]
                    anyodd |= odd[t]
                kernel[g ^ g >> 1] = origin_pool ^ anyodd
            self.coverers = [0] * npts
        # Any valid cover owns an origin-avoiding member: all-through-origin
        # forces origin count == size <= k-1 < k, too few to cover any
        # nonzero point k times.  GL(n,2) is transitive on origin-avoiding
        # codim-d subspaces and fixes the origin count, so every run's
        # first member is one canonical representative, the root: systems[0]
        # is the least tuple, e_1..e_d, and member S is its coset with rhs 1
        # (x_1 = 1, x_2 = ... = x_d = 0).
        self.root = S
        self.nodes = 0
        self.cov_shift = n - d
        self.cov = 1 << (n - d)
        # a score, the points of dm in one member, is at most cov
        self.score_bits = n - d + 1
        # the members of slab 0 through each nonzero point: the linear
        # codim-d subspaces of F_2^n holding it, one per such subspace of
        # F_2^n / <p>
        self.slab_cover = gaussian_binomial(n - 1, d)

    def member(self, i: int) -> AffineSubspace:
        """Pool member i: coset rhs = i // S of systems[i % S]."""
        r, j = divmod(i, len(self.systems))
        return AffineSubspace(self.n, self.d, self.systems[j], r)

    def mask(self, i: int) -> int:
        """Point mask of member i, built on first use and kept in masks[i]."""
        r, j = divmod(i, len(self.systems))
        m = self.masks[i] = indicator(self.systems[j], r, *self.patterns)
        return m

    def coverer(self, p: int) -> int:
        """The members through point p, built on first use and kept in
        coverers[p]: slab r holds the systems whose rows' parities at p
        spell r, split one row at a time from the columns."""
        slabs = [self.origin_pool]
        for col in self.cols:
            odd = 0
            for c in range(self.n):
                if p >> c & 1:
                    odd ^= col[c]
            slabs = [m & ~odd for m in slabs] + [m & odd for m in slabs]
        S = len(self.systems)
        m = self.coverers[p] = sum(slab << r * S for r, slab in enumerate(slabs))
        return m

    def through(self, j: int, p: int) -> int:
        """The member of systems[j] that holds point p."""
        r = sum(((u & p).bit_count() & 1) << t for t, u in enumerate(self.systems[j]))
        return r * len(self.systems) + j

    def planes(self, p: int, cs: int, dm: int) -> list[int]:
        """The scores |mask(i) & dm| of the members i through point p of
        the systems in cs, one bit plane per score bit: bit j of planes[t]
        is bit t of the score of through(j, p).  That member holds point q
        iff every row of systems[j] vanishes at p ^ q, that is, iff bit j
        of kernel[p ^ q] is set, so each q of dm adds kernel[p ^ q] & cs."""
        kernel = self.kernel
        return _tally((kernel[p ^ q] & cs for q in _ascending([dm])), self.score_bits)

    def ranked(self, p: int, cm: int, dm: int):
        """The members i of cm, all through point p, in the order of
        sorted((-|mask(i) & dm|, i % S)), listed lazily.  cm
        holds at most one member per system, so folding its slabs onto
        slab 0 gives its systems, one bit each.  Each member holds cov
        points, so its score is cov less the points it holds outside dm:
        when dm holds more than half the points, the planes count the
        smaller side, its complement (origin included), and the classes
        split low counts first."""
        S = len(self.systems)
        for t in range(self.d):
            cm |= cm >> (S << t)
        classes = [cm & self.origin_pool]
        outside = dm.bit_count() > self.npts >> 1
        if outside:
            dm ^= (1 << self.npts) - 1
        for plane in reversed(self.planes(p, classes[0], dm)):
            first, second = (~plane, plane) if outside else (plane, ~plane)
            classes = [part for c in classes for part in (c & first, c & second) if part]
        return (self.through(j, p) for j in _ascending(classes))

    def pick(self, dm: int, top: int, usable: int) -> int | None:
        """The branch point of a d >= 2 node, or None at a dead end: the
        top point with the fewest usable coverers, lowest on a tie, counted
        over the 2^n points from the members usable excludes, not by one
        pool-wide AND per deficient point.

        Every point has S coverers, one per system, and a nonzero point
        lies in slab_cover of slab 0's.  So when slab 0 is wholly excluded
        a deficient origin is dead and a nonzero point keeps S - slab_cover
        less its excluded coverers outside slab 0; otherwise it keeps S
        less all of them.  A deficient point is dead when it keeps none."""
        S = len(self.systems)
        cap = S
        excluded = ((1 << len(self.masks)) - 1) ^ usable
        if not usable & self.origin_pool:
            if dm & 1:
                return None
            cap = S - self.slab_cover
            excluded ^= self.origin_pool
        xs = (self.masks[i] or self.mask(i) for i in _ascending([excluded]))
        counts = _tally(xs, cap.bit_length())
        dead = dm
        for t, plane in enumerate(counts):
            dead &= plane if cap >> t & 1 else ~plane
        if dead:
            return None
        for plane in reversed(counts):
            if top & plane:
                top &= plane
        return (top & -top).bit_length() - 1

    def children(self, lev: list[int], usable: int):
        """The candidates of the node (lev, usable), as an iterator of
        members in the order run tries them, or None at a dead end: a
        deficient point with no usable coverer.  The node branches on the
        point of largest need (the top level) with the fewest usable
        coverers, lowest index on a tie.  Its candidates, the usable members
        through it, one per system, come by descending score."""
        dm = lev[0]
        top = lev[-1]
        if self.d > 1:
            # the point over the 2^n points, the scores in bit planes one
            # slab wide; ties by system, as member order would take
            # decide(7,3,2,16,s=0) from 16 nodes past 100,000
            branch_p = self.pick(dm, top, usable)
            if branch_p is None:
                return None
            cm = self.coverers[branch_p] or self.coverer(branch_p)
            return self.ranked(branch_p, cm & usable, dm)
        # one pool-wide AND per deficient point, then one score per
        # candidate (at most 2^n - 1); ties by member index, so the
        # members through the origin (slab 0) come first, which cuts
        # prove's tree about 4x
        masks, coverers = self.masks, self.coverers
        best_cnt = usable.bit_count() + 1
        m = dm
        while m:
            b = m & -m
            m ^= b
            c = coverers[b.bit_length() - 1] & usable
            if not c:
                return None
            if b & top:
                cnt = c.bit_count()
                if cnt < best_cnt:
                    best_cnt, cm = cnt, c
        cands = []
        while cm:
            b = cm & -cm
            cm ^= b
            i = b.bit_length() - 1
            cands.append((-((masks[i] or self.mask(i)) & dm).bit_count(), i))
        cands.sort()
        return map(itemgetter(1), cands)

    def run(self, s: int, limit: int, floor: int) -> None:
        """Search origin count exactly s for covers of size <= limit.  floor
        is the root bound at s when minimising and the cap when deciding; a
        cover of size <= floor ends the run.

        The node being expanded lives in locals: lev, def_total (its total
        need), usable, fresh and cands, the iterator of its untried
        candidates.  Each candidate's child is checked inline (node count,
        budget, bound, cover, levels, then children), so a leaf costs no
        frame; a child that branches pushes (cands, lev, def_total, rest,
        fresh, i), rest being the parent's usable less i's exclusion.  Each
        placed member is a frame's i, so size is len(stack), and a cover
        found is the path: best lists its members, one per copy.  The first
        node is the empty multiset, whose one candidate is the root."""
        n, k, S = self.n, self.k, len(self.systems)
        self.s = s
        self.best: list[int] | None = None
        dir_lb = _direction_lb_table(n, k, s) if self.d == 1 and n >= 2 else None
        masks = self.masks
        mult = self.mult = [0] * len(masks)
        origin_pool = self.origin_pool
        # at d=1, the members through the origin and those avoiding it
        sides = (origin_pool, origin_pool << S)
        cov, cov_shift = self.cov, self.cov_shift
        max_nodes, deadline = self.max_nodes, self.deadline
        children = self.children
        all_points = (1 << self.npts) - 1
        usable = (1 << len(masks)) - 1
        if s == 0:
            usable &= ~origin_pool
        # d=1 systems are (1,), (2,), ..., so normal u is members u-1 (rhs 0)
        # and S+u-1 (rhs 1); with nothing placed V is {0}, so all are fresh
        fresh = (1 << len(masks)) - 1 if self.d == 1 else 0
        lev = [all_points] * s + [all_points - 1] * (k - s)
        def_total, cands = k * (self.npts - 1) + s, iter((self.root,))
        stack, nodes = [], self.nodes
        dm, size = lev[0], 0
        try:
            while True:
                for i in cands:
                    is_fresh = fresh >> i & 1
                    if is_fresh and not usable >> i & 1:
                        continue  # its orbit's representative came first
                    # exclusion: later siblings may not use member i, or its orbit
                    rest = usable & ~(fresh & sides[i >= S] if is_fresh else 1 << i)
                    mult[i] += 1
                    # at d=1, members S + j and j are the two sides of one
                    # direction, avoiding the origin and through it; a table
                    # prune proves the subtree (and i's orbit) empty
                    if dir_lb is None or dir_lb[mult[S + i % S]][mult[i % S]] <= limit:
                        M = masks[i] or self.mask(i)
                        cdef = def_total - (M & dm).bit_count()
                        nodes += 1  # the child, of size size + 1
                        if max_nodes is not None and nodes > max_nodes:
                            raise _BudgetExhausted
                        # _past inlined, None test first: a node without a
                        # deadline pays one test
                        if (deadline is not None and (nodes & 255) == 1
                                and time.monotonic() > deadline):
                            raise _BudgetExhausted
                        # past the bound test, so a cover is recorded only
                        # within the limit
                        if size + ((cdef + cov - 1) >> cov_shift) >= limit:
                            pass
                        elif not cdef:
                            self.best = [f[-1] for f in stack] + [i]
                            # within floor: no smaller rival at this s, or any will do
                            if size < floor:
                                return
                            limit = size
                        else:
                            # level j keeps a point of M only if it is on
                            # level j+1; a loop, as a comprehension would make
                            # keep a cell variable (Python 3.11)
                            keep = all_points ^ M
                            clev = []
                            for D, E in zip(lev, lev[1:]):
                                clev.append(D & (E | keep))
                            top = lev[-1] & keep
                            if top:
                                clev.append(top)
                            # one member lowers a point's need by at most one
                            if size + len(clev) < limit:
                                # the origin left level 1: it is covered s times
                                cusable = usable & ~origin_pool if (dm ^ clev[0]) & 1 else usable
                                cfresh = fresh
                                if is_fresh:
                                    # normal u joins V, and with it each u ^ v, v in V:
                                    # 0 and normal j+1 for each member j of slab 0 not fresh
                                    u = i % S + 1
                                    spanned = 1 << u - 1
                                    for j in _ascending([~fresh & origin_pool]):
                                        spanned |= 1 << ((j + 1) ^ u) - 1
                                    cfresh = fresh & ~(spanned * (1 | 1 << S))
                                grand = children(clev, cusable)
                                if grand is not None:
                                    stack.append((cands, lev, def_total, rest, fresh, i))
                                    cands, lev, def_total = grand, clev, cdef
                                    usable, fresh = cusable, cfresh
                                    dm, size = clev[0], len(stack)
                                    break
                    mult[i] -= 1
                    usable = rest
                else:
                    if not stack:
                        return
                    # back to the parent, past its child i
                    cands, lev, def_total, usable, fresh, i = stack.pop()
                    mult[i] -= 1
                    dm, size = lev[0], len(stack)
        finally:
            self.nodes = nodes


def _direction_lb_table(n: int, k: int, s: int) -> list[list[int]]:
    """Least final size of a valid cover holding (a, b) copies of the two
    hyperplanes of one direction, minimized over extensions a' >= a, b' >= b.

    With a' one-side copies, the rest must cover that affine side fully,
    so at least 2(k - a') more.  With b' zero-side copies, the rest
    restricts to the linear side {u.x = 0}, a copy of F_2^(n-1), as a
    (k - b')-cover whose origin is covered exactly s - b' times: each of
    the s - b' other members through the origin meets that side in a
    hyperplane through 0.  So the rest holds at least lb_g(n-1, k - b', 1)
    at s - b' more.  b' stays at most the origin count s <= k-1 because each
    zero-side copy goes through it.  The minimum over the extensions is taken
    by suffix minima, in a (k+2) x (k+2) table whose last row and column,
    like every b > s, stay at a value no cover reaches.
    """
    glo = [lb_g(n - 1, k - b, 1)[s - b] for b in range(s + 1)]
    never = 1 << 30
    table = [[never] * (k + 2) for _ in range(k + 2)]
    for a in range(k, -1, -1):
        row, below = table[a], table[a + 1]
        for b in range(s, -1, -1):
            here = a + b + max(2 * (k - a), glo[b])
            row[b] = min(here, below[b], row[b + 1])
    return table


def _seeds(n: int, k: int, d: int, s_min: int, extra: Cover | None):
    """(cover, checked) for every construction family that fits (n, k, d),
    then extra; each is built only when the caller asks for it.  A checked
    cover was verified as a k-cover when it was built."""
    if exact_thm_a(n, k, d) is not None:
        yield thm_a_cover(n, k, d), True
    if k >= 2 and n > d:
        yield lemma31_cover(n, k, d), True
    yield smax_cover(n, k, d), True
    if d == 1 and n == k and k >= 4:
        yield diagonal_cover(k), True
    if (n, k, d) == (12, 8, 1):
        yield golay_cover(), False
    if n == d:
        yield _points_cover(n, k, s_min), False
    if extra is not None:
        yield extra, False


def _best_seed(
    n: int, k: int, d: int, s_min: int, s_max: int, extra: Cover | None, deadline: float | None
) -> Cover | None:
    """The smallest seed inside the origin window; no build starts past the deadline.

    Each seed is verified once: a checked one's origin count is the
    multiplicity of its members through the origin (rhs 0)."""
    if extra is not None and (extra.n, extra.d) != (n, d):
        raise ValueError(f"seed cover is for n={extra.n}, d={extra.d}, not n={n}, d={d}")
    best: Cover | None = None
    seeds = _seeds(n, k, d, s_min, extra)
    while not _past(deadline) and (seed := next(seeds, None)) is not None:
        C, checked = seed
        if checked:
            fits = s_min <= sum(m for S, m in C.entries if S.rhs == 0) <= s_max
        else:
            fits = verify(C, k).is_cover_for(k, s_min, s_max)
        if fits and (best is None or C.size < best.size):
            best = C
    return best


def _certificate(search: _Search) -> Cover:
    """The best cover of the last run (its path, repeats merged), re-verified;
    raises if the search was wrong."""
    C = Cover.from_entries((search.member(i), 1) for i in search.best)
    report = verify(C, search.k)
    if not report.is_cover_for(search.k, search.s, search.s):
        raise AssertionError(
            f"search certificate failed verification: min coverage {report.min_nonzero}, "
            f"origin {report.origin_count}, need k={search.k}, s={search.s}"
        )
    return C


def _window(
    k: int, s: int | None, assume_high_origin: bool = False
) -> tuple[int, int, tuple[str, ...]]:
    """The origin window [s_min, s_max] of one call and the assumptions it adds."""
    if s is not None:
        return s, s, ()
    if assume_high_origin and k >= 2:
        return k - 2, k - 1, ("origin_count >= k-2",)
    return 0, k - 1, ()


def _drive(
    n: int,
    k: int,
    d: int,
    window: tuple[int, int, tuple[str, ...]],
    cap: int | None,
    max_nodes: int | None,
    max_seconds: float | None,
    extra_seed: Cover | None,
) -> SolveResult:
    """Common engine: cap=None minimises, cap=m decides existence at size <= m."""
    s_min, s_max, assumptions = window
    deadline = time.monotonic() + max_seconds if max_seconds is not None else None
    floors = lb_g(n, k, d)
    lo = min(floors[s_min:s_max + 1])
    seed = _best_seed(n, k, d, s_min, s_max, extra_seed, deadline)
    deciding = cap is not None
    if deciding and seed is not None and seed.size <= cap:
        return SolveResult("feasible", seed.size, seed, 0, lo, assumptions)
    if deciding:
        best, limit = None, cap
    else:
        best, limit = seed, (1 << 60 if seed is None else seed.size - 1)

    # The window splits by exact origin count; each single-s subproblem
    # carries much tighter direction tables than the window as a whole.
    # High s first: the known good covers sit at s >= k-2.  An s whose
    # root bound is over the limit is skipped.  lo is the least root bound
    # over the window, so a root closure (a seed of size lo, or lo above
    # the cap) skips every s and builds no pool.  No build or run starts
    # past the deadline.  After every run, also one a budget stopped, the
    # run's best cover is certified and lowers the limit; the status table
    # below is the only place a status is set.
    search: _Search | None = None
    exhausted = True
    for s in range(s_max, s_min - 1, -1):
        floor = floors[s]
        if floor > limit:
            continue
        spent = search.nodes if search else 0
        if (max_nodes is not None and spent >= max_nodes) or _past(deadline):
            exhausted = False
            break
        try:
            if search is None:
                search = _Search(n, k, d, deadline, max_nodes)
            search.run(s, limit, limit if deciding else floor)
        except _BudgetExhausted:
            exhausted = False
        if search is not None and search.best is not None:
            best = _certificate(search)
            limit = best.size - 1
        if not exhausted or (deciding and best is not None):
            break

    nodes = search.nodes if search else 0
    if best is None:
        status = "infeasible" if deciding and exhausted else "unknown"
    else:
        status = "optimal" if exhausted and not deciding else "feasible"
    value = None if best is None else best.size
    return SolveResult(status, value, best, nodes, lo, assumptions)


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
    window = _window(k, None, assume_high_origin)
    return _drive(n, k, d, window, None, max_nodes, max_seconds, extra_seed)


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
    _check_problem(n, k, d, s)
    window = _window(k, s)
    return _drive(n, k, d, window, None, max_nodes, max_seconds, extra_seed)


def decide(
    n: int,
    k: int,
    d: int,
    size: int,
    *,
    s: int | None = None,
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
    _check_problem(n, k, d, s)
    if size < 0:
        raise ParameterError(f"need size >= 0, got {size}")
    window = _window(k, s)
    return _drive(n, k, d, window, size, max_nodes, max_seconds, extra_seed)
