"""Bit-packed linear algebra over GF(2): vectors, affine subspaces, point sets, enumeration.

Vectors of F_2^n are int bit masks with bit i holding coordinate x_{i+1}.
An affine subspace of codimension d is stored in constraint form as d
independent normal rows plus a right-hand-side mask, kept in reduced row
echelon form so that equal subspaces compare equal.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from itertools import combinations, product
from typing import Sequence

MAX_DIMENSION = 24

# Operations that loop over all 2^n points, and the CLI's --n, refuse larger n.
DIMENSION_LIMIT = 20

SUBSPACE_ENUM_LIMIT = 2_000_000


def _check_dim(n: int) -> None:
    if not 1 <= n <= MAX_DIMENSION:
        raise ValueError(f"ambient dimension {n} outside 1..{MAX_DIMENSION}")


class ParameterError(ValueError):
    """A problem parameter or command-line option out of range: a usage error,
    not a negative answer."""


def _check_problem(n: int, k: int | None, d: int, s: int | None = None) -> None:
    """Reject k (unless None) below 1, d outside 1..n and s (unless None) outside 0..k-1."""
    if k is not None and k < 1:
        raise ParameterError(f"need k >= 1, got {k}")
    if not 1 <= d <= n:
        raise ParameterError(f"need 1 <= d <= n, got d={d}, n={n}")
    if s is not None and not 0 <= s <= k - 1:
        raise ParameterError(f"need 0 <= s <= k-1, got s={s}, k={k}")


def _json_int(doc: dict, key: str) -> int:
    """doc[key], refused unless it is a JSON integer (not a float, string or bool)."""
    value = doc[key]
    if type(value) is not int:
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return value


def _json_list(doc: dict, key: str) -> list:
    """doc[key], refused unless it is a JSON array: a string would be read
    one character at a time."""
    value = doc[key]
    if type(value) is not list:
        raise ValueError(f"{key!r} must be a list, got {value!r}")
    return value


def _json_mask(value) -> int:
    """A bit mask written as a JSON string: "0x1b", "0b11011" or "27".

    A JSON number or any other type is a ValueError, like a malformed string.
    """
    if type(value) is not str:
        raise ValueError(f"a mask must be a string such as '0x1b', got {value!r}")
    return int(value, 0)


@dataclass(frozen=True, order=True)
class GFVector:
    """A vector of F_2^n; bit i of `bits` is coordinate x_{i+1}."""

    bits: int
    n: int

    def __post_init__(self) -> None:
        _check_dim(self.n)
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"bit mask {self.bits:#x} has set bits at or past position {self.n}")


def basis_vector(i: int, n: int) -> GFVector:
    """e_i, indexed from 1."""
    if not 1 <= i <= n:
        raise ValueError(f"basis index {i} outside 1..{n}")
    return GFVector(1 << (i - 1), n)


def ones_vector(n: int) -> GFVector:
    return GFVector((1 << n) - 1, n)


class _Outcome(Enum):
    """Sentinel result of canonicalize for systems with no proper subspace."""

    EMPTY = auto()
    DEGENERATE = auto()


EMPTY, DEGENERATE = _Outcome


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

    def to_json(self) -> dict:
        return {
            "normals": [f"{u:#x}" for u in self.normals],
            "rhs": f"{self.rhs:#b}",
            "n": self.n,
        }


def subspace_from_json(doc: dict) -> AffineSubspace:
    """A subspace document's AffineSubspace; refuses bad fields and improper systems."""
    n = _json_int(doc, "n")
    normals = [_json_mask(s) for s in _json_list(doc, "normals")]
    rhs = _json_mask(doc["rhs"])
    if not 0 <= rhs < 1 << len(normals):
        raise ValueError(f"rhs {doc['rhs']!r} does not fit {len(normals)} rows")
    return subspace([GFVector(u, n) for u in normals], [(rhs >> i) & 1 for i in range(len(normals))])


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
        raise ValueError(f"constraint system is {got.name}, not a proper subspace")
    return got


def hyperplane(u: GFVector, c: int) -> AffineSubspace:
    """The hyperplane {x : x . u = c}; H_u of the covering problem is c=1."""
    return AffineSubspace(n=u.n, d=1, normals=(u.bits,), rhs=c & 1)


def point_subspace(v: GFVector) -> AffineSubspace:
    """The single point {v} as a codim-n subspace (identity normals)."""
    n = v.n
    return AffineSubspace(n=n, d=n, normals=tuple(1 << i for i in range(n)), rhs=v.bits)


def point_patterns(n: int, width: int = 1) -> tuple[int, tuple[int, ...]]:
    """(unit, coords) over the 2^n points, one width-bit field each, point
    0 lowest: unit is 1 in every field, coords[c] in those of the points
    with bit c set.  Built by doubling, coordinate m being the new half."""
    unit, coords = 1, []
    for m in range(n):
        shift = width << m
        coords = [x | x << shift for x in coords]
        coords.append(unit << shift)
        unit |= unit << shift
    return unit, tuple(coords)


def indicator(normals: Sequence[int], rhs: int, unit: int, coords: Sequence[int]) -> int:
    """The points of {x : x . normals[t] = bit t of rhs} in the field layout
    of unit (1 in every point's field) and coords[c] (1 in the fields of the
    points with bit c set): the AND over the rows of the XOR of coords over
    the row's set bits, its parity pattern, complemented within unit where
    the rhs bit is 0."""
    m = unit
    for t, u in enumerate(normals):
        pattern = 0
        while u:
            low = u & -u
            pattern ^= coords[low.bit_length() - 1]
            u ^= low
        m &= pattern if rhs >> t & 1 else unit ^ pattern
    return m


def point_mask(S: AffineSubspace) -> int:
    """Characteristic mask over all 2^n points: bit x set iff x is in S."""
    return indicator(S.normals, S.rhs, *point_patterns(S.n))


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


def linear_systems(n: int, d: int) -> list[tuple[int, ...]]:
    """The reduced normal rows of every codim-d linear subspace of F_2^n, sorted.

    One reduced row echelon system per choice of pivot columns and free
    cells, so the count is GaussianBinomial(n,d)_2 by construction.  Refuses
    when the affine pool, 2^d cosets per system, would exceed
    SUBSPACE_ENUM_LIMIT.
    """
    _check_dim(n)
    _check_problem(n, None, d)
    total = count_subspaces(n, d)
    if total > SUBSPACE_ENUM_LIMIT:
        raise ParameterError(
            f"enumeration of {total} subspaces exceeds the limit of {SUBSPACE_ENUM_LIMIT}"
        )
    systems: list[tuple[int, ...]] = []
    for pivots in combinations(range(n), d):
        # row i: its pivot plus any set of the later non-pivot columns
        choices = []
        for p in pivots:
            row = [1 << p]
            for j in range(p + 1, n):
                if j not in pivots:
                    row += [u | 1 << j for u in row]
            choices.append(row)
        systems += product(*choices)
    # the canonical order is (normals, rhs) tuple order
    systems.sort()
    return systems


def enumerate_subspaces(n: int, d: int) -> list[AffineSubspace]:
    """All codim-d affine subspaces of F_2^n, deduplicated, in canonical order
    (by normals, then rhs)."""
    return [
        AffineSubspace(n=n, d=d, normals=rows, rhs=rhs)
        for rows in linear_systems(n, d)
        for rhs in range(1 << d)
    ]
