"""Independent references that the tests check the package against."""

from __future__ import annotations

from f2cover.codes import LinearCode
from f2cover.covers import Cover
from f2cover.gf2core import AffineSubspace


def solution_bits(S: AffineSubspace) -> list[int]:
    """All 2^(n-d) solutions of S as raw bit masks.

    One particular solution (the rhs bits on the pivot columns) plus the
    span of the kernel, one basis vector per free column; in RREF that
    vector is the free column plus the pivots of the rows that touch it.
    """
    x0 = pivots = 0
    for i, u in enumerate(S.normals):
        pivots |= u & -u
        x0 |= (u & -u) * ((S.rhs >> i) & 1)
    out = [x0]
    for j in range(S.n):
        if not (pivots >> j) & 1:
            v = (1 << j) | sum(u & -u for u in S.normals if (u >> j) & 1)
            out += [x ^ v for x in out]
    return out


def coverage_counts_pointwise(C: Cover) -> list[int]:
    """Per-point coverage, point-major, one membership test per entry."""
    return [
        sum(mult for S, mult in C.entries if S.contains_bits(x))
        for x in range(1 << C.n)
    ]


def encode_bits(code: LinearCode, message: int) -> int:
    """Codeword of a message as a length-bit mask (bit i from rows[i])."""
    word = 0
    for i, u in enumerate(code.rows):
        if (message & u).bit_count() & 1:
            word |= 1 << i
    return word
