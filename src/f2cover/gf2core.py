"""Bit-packed linear algebra over GF(2): vectors, affine subspaces, enumeration.

Vectors of F_2^n are int bit masks with bit i holding coordinate x_{i+1}.
An affine subspace of codimension d is stored in constraint form as d
independent normal rows plus a right-hand-side mask, kept in reduced row
echelon form so that equal subspaces compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

MAX_DIMENSION = 24

# Operations that loop over all 2^n points refuse larger n unless the caller
# raises this (never past MAX_DIMENSION).
DIMENSION_LIMIT = 20

SUBSPACE_ENUM_LIMIT = 2_000_000


def parity(bits: int) -> int:
    return bits.bit_count() & 1


def _check_dim(n: int) -> None:
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"ambient dimension {n} outside 1..{MAX_DIMENSION}")


@dataclass(frozen=True, order=True)
class GFVector:
    """A vector of F_2^n; bit i of `bits` is coordinate x_{i+1}."""

    bits: int
    n: int

    def __post_init__(self) -> None:
        _check_dim(self.n)
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bit mask {self.bits:#x} has set bits at or past position {self.n}")

    def weight(self) -> int:
        return self.bits.bit_count()


def basis_vector(i: int, n: int) -> GFVector:
    """e_i, indexed from 1."""
    if not 1 <= i <= n:
        raise ValueError(f"basis index {i} outside 1..{n}")
    return GFVector(1 << (i - 1), n)


def ones_vector(n: int) -> GFVector:
    return GFVector((1 << n) - 1, n)


def dot(x: GFVector, u: GFVector) -> int:
    """Parity of the overlap of x and u (the GF(2) inner product)."""
    if x.n != u.n:
        raise ValueError(f"dimension mismatch: {x.n} vs {u.n}")
    return (x.bits & u.bits).bit_count() & 1


class _Outcome:
    """Sentinel result of canonicalize for systems with no proper subspace."""

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:
        return self._name


EMPTY = _Outcome("EMPTY")
DEGENERATE = _Outcome("DEGENERATE")


@dataclass(frozen=True)
class AffineSubspace:
    """Codim-d affine subspace {x : x . u_i = c_i} of F_2^n in canonical form.

    `normals` are the rows of the reduced system, ordered by pivot column
    (lowest set bit); bit i of `rhs` is the right-hand side of row i.
    Construct via canonicalize() unless the rows are already reduced.
    """

    n: int
    d: int
    normals: tuple[int, ...]
    rhs: int

    def __post_init__(self) -> None:
        _check_dim(self.n)
        if not 1 <= self.d <= self.n:
            raise ValueError(f"codimension {self.d} outside 1..{self.n}")
        if len(self.normals) != self.d:
            raise ValueError(f"expected {self.d} normals, got {len(self.normals)}")
        if not 0 <= self.rhs < (1 << self.d):
            raise ValueError("rhs mask wider than the number of rows")
        seen = 0
        last_pivot = -1
        for u in self.normals:
            if not 0 < u < (1 << self.n):
                raise ValueError(f"normal {u:#x} not a nonzero mask of width {self.n}")
            pivot = u & -u
            if pivot.bit_length() - 1 <= last_pivot:
                raise ValueError("normals not ordered by pivot column")
            last_pivot = pivot.bit_length() - 1
            seen |= pivot
        for u in self.normals:
            # each row may touch no pivot column but its own
            if (u & seen) != (u & -u):
                raise ValueError("system not in reduced row echelon form")

    @property
    def dim(self) -> int:
        return self.n - self.d

    def contains_bits(self, x: int) -> bool:
        rhs = self.rhs
        for i, u in enumerate(self.normals):
            if ((x & u).bit_count() ^ (rhs >> i)) & 1:
                return False
        return True

    def contains(self, x: GFVector) -> bool:
        if x.n != self.n:
            raise ValueError(f"dimension mismatch: point has n={x.n}, subspace n={self.n}")
        return self.contains_bits(x.bits)

    def canonical_bytes(self) -> bytes:
        """Stable byte encoding; lexicographic order on these is the canonical subspace order."""
        parts = [self.n.to_bytes(1, "big"), self.d.to_bytes(1, "big")]
        parts += [u.to_bytes(3, "big") for u in self.normals]
        parts.append(self.rhs.to_bytes(3, "big"))
        return b"".join(parts)

    def to_json(self) -> dict:
        return {
            "normals": [f"{u:#x}" for u in self.normals],
            "rhs": f"{self.rhs:#b}",
            "n": self.n,
        }


def subspace_from_json(doc: dict) -> AffineSubspace:
    n = int(doc["n"])
    normals = [int(s, 0) for s in doc["normals"]]
    rhs = int(doc["rhs"], 0)
    got = canonicalize([GFVector(u, n) for u in normals], [(rhs >> i) & 1 for i in range(len(normals))])
    if not isinstance(got, AffineSubspace):
        raise ValueError(f"subspace document does not describe a proper subspace: {got!r}")
    return got


def canonicalize(
    normals: Sequence[GFVector], rhs: Sequence[int]
) -> AffineSubspace | _Outcome:
    """Reduce the constraint system [U|c] to canonical form.

    Returns EMPTY when the system is inconsistent (a pivot falls in the
    right-hand-side column) and DEGENERATE when the rows are dependent but
    consistent; otherwise an AffineSubspace with d = len(normals).
    """
    if not normals:
        raise ValueError("need at least one constraint row")
    n = normals[0].n
    if any(u.n != n for u in normals):
        raise ValueError("normals of mixed widths")
    if len(rhs) != len(normals):
        raise ValueError("rhs length does not match the number of normals")
    rows = [u.bits | ((c & 1) << n) for u, c in zip(normals, rhs)]
    return _reduce_augmented(rows, n, len(rows))


def _reduce_augmented(rows: Sequence[int], n: int, d: int) -> AffineSubspace | _Outcome:
    """Canonical codim-d subspace of F_2^n from augmented rows (rhs in bit n).

    Returns EMPTY when the rows are inconsistent and DEGENERATE when they
    are consistent but their rank is not d.
    """
    basis: list[int] = []
    for row in rows:
        for b in basis:
            if row & (b & -b):
                row ^= b
        if row:
            pivot = row & -row
            for i, b in enumerate(basis):
                if b & pivot:
                    basis[i] ^= row
            basis.append(row)
    # reduced row echelon form, sorted by pivot column
    basis.sort(key=lambda r: r & -r)
    aug = 1 << n
    if any(r == aug for r in basis):
        return EMPTY
    if len(basis) != d:
        return DEGENERATE
    out_rhs = 0
    for i, r in enumerate(basis):
        if r & aug:
            out_rhs |= 1 << i
    return AffineSubspace(n=n, d=d, normals=tuple(r & (aug - 1) for r in basis), rhs=out_rhs)


def subspace(normals: Sequence[GFVector], rhs: Sequence[int]) -> AffineSubspace:
    """canonicalize() that insists on a proper subspace."""
    got = canonicalize(normals, rhs)
    if not isinstance(got, AffineSubspace):
        raise ValueError(f"constraint system is {got!r}, not a proper subspace")
    return got


def hyperplane(u: GFVector, c: int) -> AffineSubspace:
    """The hyperplane {x : x . u = c}; H_u of the covering problem is c=1."""
    if u.bits == 0:
        raise ValueError("hyperplane normal must be nonzero")
    return AffineSubspace(n=u.n, d=1, normals=(u.bits,), rhs=c & 1)


def point_subspace(v: GFVector) -> AffineSubspace:
    """The single point {v} as a codim-n subspace (identity normals)."""
    n = v.n
    return AffineSubspace(n=n, d=n, normals=tuple(1 << i for i in range(n)), rhs=v.bits)


def solution_bits(S: AffineSubspace) -> Iterator[int]:
    """All solutions of S as raw bit masks, in no particular order."""
    n = S.n
    pivots = [(u & -u).bit_length() - 1 for u in S.normals]
    pivot_mask = 0
    for p in pivots:
        pivot_mask |= 1 << p
    free_cols = [j for j in range(n) if not (pivot_mask >> j) & 1]
    rhs = S.rhs
    normals = S.normals
    for m in range(1 << len(free_cols)):
        x = 0
        for t, j in enumerate(free_cols):
            if (m >> t) & 1:
                x |= 1 << j
        for i, u in enumerate(normals):
            # in RREF a row meets no pivot column but its own
            if ((x & u).bit_count() ^ (rhs >> i)) & 1:
                x |= 1 << pivots[i]
        yield x


def enumerate_points(S: AffineSubspace) -> list[GFVector]:
    """The 2^(n-d) points of S in increasing bit-mask order."""
    return [GFVector(b, S.n) for b in sorted(solution_bits(S))]


def point_mask(S: AffineSubspace) -> int:
    """Characteristic mask over all 2^n points: bit x set iff x is in S."""
    mask = 0
    for b in solution_bits(S):
        mask |= 1 << b
    return mask


def gaussian_binomial(n: int, d: int) -> int:
    """Number of d-dimensional linear subspaces of F_2^n."""
    if d < 0 or d > n:
        return 0
    num = den = 1
    for i in range(d):
        num *= (1 << (n - i)) - 1
        den *= (1 << (d - i)) - 1
    return num // den


def count_subspaces(n: int, d: int) -> int:
    """Number of codim-d affine subspaces of F_2^n."""
    return gaussian_binomial(n, d) << d


def enumerate_subspaces(n: int, d: int, limit: int | None = None) -> list[AffineSubspace]:
    """All codim-d affine subspaces of F_2^n, deduplicated, in canonical order.

    Generates one reduced row echelon system per linear subspace (pivot
    columns chosen, remaining cells free) and attaches every right-hand
    side, so the count is GaussianBinomial(n,d)_2 * 2^d by construction.
    """
    _check_dim(n)
    if not 1 <= d <= n:
        raise ValueError(f"codimension {d} outside 1..{n}")
    total = count_subspaces(n, d)
    cap = SUBSPACE_ENUM_LIMIT if limit is None else limit
    if total > cap:
        raise ValueError(f"enumeration of {total} subspaces exceeds the limit of {cap}")
    out: list[AffineSubspace] = []
    for pivots in combinations(range(n), d):
        pivot_set = set(pivots)
        free_cells = [
            (i, j) for i in range(d) for j in range(pivots[i] + 1, n) if j not in pivot_set
        ]
        for assign in range(1 << len(free_cells)):
            rows = [1 << p for p in pivots]
            for t, (i, j) in enumerate(free_cells):
                if (assign >> t) & 1:
                    rows[i] |= 1 << j
            for rhs in range(1 << d):
                out.append(AffineSubspace(n=n, d=d, normals=tuple(rows), rhs=rhs))
    out.sort(key=AffineSubspace.canonical_bytes)
    return out
