"""Cover multisets over F_2^n, exhaustive (k,d;s) verification, restriction.

A Cover is a multiset of codim-d affine subspaces in a common ambient
dimension.  verify() counts coverage of every point by full enumeration;
restrict_to_hyperplane() performs the discard/split/intersect surgery that
drops the ambient dimension by one while preserving surviving coverage.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from . import gf2core
from .gf2core import EMPTY, DEGENERATE, AffineSubspace, GFVector

if TYPE_CHECKING:
    from .constructions import ConstructionTag

COVER_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Cover:
    """Multiset of codim-d affine subspaces of F_2^n.

    Entries are (subspace, multiplicity) pairs in canonical subspace order
    with multiplicities merged; build through from_entries() to normalize.
    """

    n: int
    d: int
    entries: tuple[tuple[AffineSubspace, int], ...]
    tag: "ConstructionTag | None" = field(default=None, compare=False)

    @classmethod
    def from_entries(
        cls,
        entries: Iterable[tuple[AffineSubspace, int]],
        tag: "ConstructionTag | None" = None,
    ) -> "Cover":
        merged: dict[AffineSubspace, int] = {}
        n = d = None
        for S, mult in entries:
            if mult < 1:
                raise ValueError(f"multiplicity {mult} below 1")
            if n is None:
                n, d = S.n, S.d
            elif (S.n, S.d) != (n, d):
                raise ValueError(
                    f"mixed parameters: cover is (n={n}, d={d}) but entry has (n={S.n}, d={S.d})"
                )
            merged[S] = merged.get(S, 0) + mult
        if n is None:
            raise ValueError("a cover needs at least one subspace")
        ordered = tuple(
            sorted(merged.items(), key=lambda item: item[0].canonical_bytes())
        )
        return cls(n=n, d=d, entries=ordered, tag=tag)

    @property
    def size(self) -> int:
        return sum(mult for _, mult in self.entries)

    def iter_expanded(self) -> Iterator[AffineSubspace]:
        for S, mult in self.entries:
            for _ in range(mult):
                yield S

    def with_tag(self, tag: "ConstructionTag | None") -> "Cover":
        return Cover(n=self.n, d=self.d, entries=self.entries, tag=tag)

    def to_json(self) -> dict:
        doc = {
            "version": COVER_FORMAT_VERSION,
            "n": self.n,
            "d": self.d,
            "entries": [
                {"subspace": S.to_json(), "mult": mult} for S, mult in self.entries
            ],
        }
        if self.tag is not None:
            doc["tag"] = self.tag.to_json()
        return doc


def cover_from_json(doc: dict) -> Cover:
    if doc.get("version", COVER_FORMAT_VERSION) != COVER_FORMAT_VERSION:
        raise ValueError(f"unsupported cover document version {doc.get('version')!r}")
    entries = [
        (gf2core.subspace_from_json(e["subspace"]), int(e["mult"])) for e in doc["entries"]
    ]
    tag = None
    if "tag" in doc:
        from .constructions import ConstructionTag

        tag = ConstructionTag.from_json(doc["tag"])
    cover = Cover.from_entries(entries, tag=tag)
    if (cover.n, cover.d) != (int(doc["n"]), int(doc["d"])):
        raise ValueError("cover document header disagrees with its entries")
    return cover


@dataclass(frozen=True)
class CoverReport:
    """Coverage profile of a cover: origin count s and the nonzero-point range."""

    n: int
    d: int
    origin_count: int
    min_nonzero: int
    max_nonzero: int
    profile_checksum: str

    def is_cover_for(self, k: int) -> bool:
        return self.min_nonzero >= k and self.origin_count <= k - 1

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "origin_count": self.origin_count,
            "min_nonzero": self.min_nonzero,
            "max_nonzero": self.max_nonzero,
            "profile_checksum": self.profile_checksum,
        }


def coverage_counts(C: Cover) -> list[int]:
    """Per-point coverage, subspace-major: enumerate each subspace's points."""
    if C.n > gf2core.DIMENSION_LIMIT:
        raise ValueError(f"ambient dimension {C.n} above the point-loop limit {gf2core.DIMENSION_LIMIT}")
    counts = [0] * (1 << C.n)
    for S, mult in C.entries:
        for b in gf2core.solution_bits(S):
            counts[b] += mult
    return counts


def coverage_counts_pointwise(C: Cover) -> list[int]:
    """Per-point coverage, point-major; slower cross-check of coverage_counts."""
    if C.n > gf2core.DIMENSION_LIMIT:
        raise ValueError(f"ambient dimension {C.n} above the point-loop limit {gf2core.DIMENSION_LIMIT}")
    return [
        sum(mult for S, mult in C.entries if S.contains_bits(x))
        for x in range(1 << C.n)
    ]


def profile_checksum(counts: list[int]) -> str:
    packed = struct.pack(f"<{len(counts)}I", *counts)
    return hashlib.sha256(packed).hexdigest()[:16]


def verify(C: Cover, k: int = 1) -> CoverReport:
    """Exact coverage report; C is a (k,d)-cover iff report.is_cover_for(k)."""
    if k < 1:
        raise ValueError(f"multiplicity k={k} below 1")
    counts = coverage_counts(C)
    nonzero = counts[1:]
    return CoverReport(
        n=C.n,
        d=C.d,
        origin_count=counts[0],
        min_nonzero=min(nonzero),
        max_nonzero=max(nonzero),
        profile_checksum=profile_checksum(counts),
    )


def add_parallel_pair(C: Cover, u: GFVector) -> Cover:
    """Add both hyperplanes {x.u=0}, {x.u=1}: every coverage count rises by one."""
    if C.d != 1:
        raise ValueError("parallel pairs only make sense for hyperplane covers (d=1)")
    if u.n != C.n or u.bits == 0:
        raise ValueError("pair normal must be a nonzero vector of the ambient dimension")
    extra = [(gf2core.hyperplane(u, 0), 1), (gf2core.hyperplane(u, 1), 1)]
    return Cover.from_entries(list(C.entries) + extra, tag=C.tag)


def _delete_coordinate(bits: int, p: int) -> int:
    low = bits & ((1 << p) - 1)
    return low | ((bits >> (p + 1)) << p)


def _restrict_rows(S: AffineSubspace, u: GFVector, extra: tuple[int, int] | None) -> AffineSubspace:
    """Re-express S's constraints (plus an optional extra row) inside {x.u=0}.

    The pivot coordinate is the lowest set bit p of u; on the hyperplane
    x_p equals the parity of the remaining u-coordinates, so rows touching
    p absorb u first and coordinate p is then deleted.
    """
    p = (u.bits & -u.bits).bit_length() - 1
    rows = [(v, (S.rhs >> i) & 1) for i, v in enumerate(S.normals)]
    if extra is not None:
        rows.append(extra)
    out = []
    for v, c in rows:
        if (v >> p) & 1:
            v ^= u.bits
        out.append(_delete_coordinate(v, p) | (c << (S.n - 1)))
    got = gf2core._reduce_augmented(out, S.n - 1, S.d)
    if not isinstance(got, AffineSubspace):
        raise AssertionError("restriction produced an inconsistent or rank-deficient system")
    return got


def _first_split_normal(S: AffineSubspace) -> int:
    """Lowest basis vector outside the row span of S's normals."""
    for j in range(S.n):
        r = 1 << j
        for v in S.normals:
            if r & (v & -v):
                r ^= v
        if r:
            return 1 << j
    raise AssertionError("full-rank normal system spans everything only when d=n")


def _classify(S: AffineSubspace, u: GFVector):
    """One entry's fate under restriction to {x.u=0}.

    Returns ('discard', ()) for subspaces missing the hyperplane,
    ('split', (T0, T1)) for subspaces inside it, ('keep', (T,)) otherwise.
    """
    probe = gf2core.canonicalize(
        [GFVector(v, S.n) for v in S.normals] + [u],
        [(S.rhs >> i) & 1 for i in range(S.d)] + [0],
    )
    if probe is EMPTY:
        return "discard", ()
    if probe is DEGENERATE:
        w = _first_split_normal(S)
        halves = tuple(_restrict_rows(S, u, (w, b)) for b in (0, 1))
        return "split", halves
    return "keep", (_restrict_rows(S, u, None),)


def restrict_to_hyperplane(C: Cover, u: GFVector) -> Cover:
    """Restrict the cover to the hyperplane {x : x.u = 0}, re-indexed to F_2^(n-1).

    Subspaces disjoint from the hyperplane are dropped, subspaces contained
    in it split into two codim-d pieces, the rest are intersected; coverage
    of every surviving point is unchanged.
    """
    if u.n != C.n or u.bits == 0:
        raise ValueError("restriction normal must be a nonzero vector of the ambient dimension")
    if C.d >= C.n:
        raise ValueError("cannot restrict a cover by points (d=n)")
    out: list[tuple[AffineSubspace, int]] = []
    for S, mult in C.entries:
        _, pieces = _classify(S, u)
        out.extend((T, mult) for T in pieces)
    return Cover.from_entries(out)


def restriction_census(C: Cover, u: GFVector) -> tuple[int, int]:
    """Multiset sizes (|X|, |Y|) of discarded and split entries under u."""
    if u.n != C.n or u.bits == 0:
        raise ValueError("restriction normal must be a nonzero vector of the ambient dimension")
    if C.d >= C.n:
        raise ValueError("cannot restrict a cover by points (d=n)")
    x_weight = y_weight = 0
    for S, mult in C.entries:
        fate, _ = _classify(S, u)
        if fate == "discard":
            x_weight += mult
        elif fate == "split":
            y_weight += mult
    return x_weight, y_weight
