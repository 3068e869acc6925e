"""Origin-avoiding hyperplane covers as binary linear codes.

A cover with d=1 and origin count 0 is the same data as a generator
matrix: each hyperplane {x : x.u = 1} contributes its normal as a row,
and the coverage count of a message x is the weight of the codeword.
Rows here are the matrix A with messages acting on the left, so
`rows[i]` is a width-`dim` mask; this is the transpose of the textbook
generator convention.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf2core
from .covers import ConstructionTag, Cover
from .gf2core import GFVector, _json_int, _json_list, _json_mask, hyperplane

CODE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class LinearCode:
    """Binary linear code given by the m x n row matrix of an origin-free cover."""

    dim: int
    length: int
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        gf2core._check_dim(self.dim)
        if self.length != len(self.rows):
            raise ValueError(f"length {self.length} disagrees with {len(self.rows)} rows")
        if self.length < 1:
            raise ValueError("a code needs at least one row")
        for u in self.rows:
            if not 0 <= u < (1 << self.dim):
                raise ValueError(f"row {u:#x} wider than dimension {self.dim}")

    def to_json(self) -> dict:
        return {
            "version": CODE_FORMAT_VERSION,
            "dim": self.dim,
            "length": self.length,
            "rows": [f"{u:#x}" for u in self.rows],
        }


def code_from_json(doc: dict) -> LinearCode:
    """A code document's LinearCode; refuses another version, a non-integer or a bad row."""
    if doc.get("version", CODE_FORMAT_VERSION) != CODE_FORMAT_VERSION:
        raise ValueError(f"unsupported code document version {doc.get('version')!r}")
    rows = tuple(_json_mask(s) for s in _json_list(doc, "rows"))
    return LinearCode(dim=_json_int(doc, "dim"), length=_json_int(doc, "length"), rows=rows)


def code_from_cover(C: Cover) -> LinearCode:
    """Transcribe an origin-free hyperplane cover into its row matrix.

    Requires d=1 and every hyperplane in the form {x : x.u = 1}; a plane
    through the origin has no such normal form and is rejected.
    """
    if C.d != 1:
        raise ValueError(f"only hyperplane covers transcribe to codes, got d={C.d}")
    rows: list[int] = []
    for S, mult in C.entries:
        if S.rhs != 1:
            raise ValueError(
                "cover touches the origin: a hyperplane with rhs 0 has no {x.u=1} form"
            )
        rows.extend([S.normals[0]] * mult)
    return LinearCode(dim=C.n, length=len(rows), rows=tuple(rows))


def cover_from_code(code: LinearCode) -> Cover:
    """The hyperplanes {x : x.u_i = 1} of all rows; a (min_distance,1;0)-cover."""
    if any(u == 0 for u in code.rows):
        raise ValueError("zero row: the corresponding hyperplane system is inconsistent")
    n = code.dim
    return Cover.from_entries(
        [(hyperplane(GFVector(u, n), 1), 1) for u in code.rows]
    )


def min_distance(code: LinearCode) -> int:
    """Exact minimum distance by Gray-code enumeration of all nonzero messages.

    Returns 0 when the rows do not span F_2^dim (some nonzero message maps
    to the zero codeword).
    """
    cols = [0] * code.dim
    for j, u in enumerate(code.rows):
        while u:
            low = u & -u
            cols[low.bit_length() - 1] |= 1 << j
            u ^= low
    best = code.length + 1
    word = 0
    for g in range(1, 1 << code.dim):
        word ^= cols[(g & -g).bit_length() - 1]
        w = word.bit_count()
        if w < best:
            best = w
            if best == 0:
                break
    return best


_QUADRATIC_RESIDUES_11 = (1, 3, 4, 5, 9)


def golay_generator() -> LinearCode:
    """The extended [24,12,8] Golay code in systematic form [I | B].

    B is the bordered circulant on the quadratic residues mod 11, built by
    its columns (the last is the border without the corner).  The rows of
    the returned code are the 24 generator columns, so the induced
    hyperplane family is an (8,1;0)-cover of F_2^12.
    """
    support = {0, *_QUADRATIC_RESIDUES_11}
    b_columns = [sum(1 << i for i in range(11) if (j - i) % 11 in support) | 1 << 11
                 for j in range(11)]
    rows = [1 << i for i in range(12)] + b_columns + [(1 << 11) - 1]
    return LinearCode(dim=12, length=24, rows=tuple(rows))


def golay_cover() -> Cover:
    """The Golay hyperplane family: a size-24 (8,1;0)-cover of F_2^12."""
    return cover_from_code(golay_generator()).with_tag(
        ConstructionTag("GolayCover", n=12, k=8, d=1, s=0)
    )
