"""Cover multisets over F_2^n, exhaustive (k,d;s) verification, restriction.

A Cover is a multiset of codim-d affine subspaces in a common ambient
dimension, optionally tagged with the construction that built it.
verify() counts the coverage of every point exactly, in one 32-bit field
per point of a single packed int, so a cover's size must stay below 2^32;
CoverReport.is_cover_for() is the one test of a (k,d;s)-cover;
restrict_to_hyperplane() performs the discard/split/intersect surgery that
drops the ambient dimension by one while preserving surviving coverage.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import asdict, dataclass, field
from typing import Iterable

from . import gf2core
from .gf2core import EMPTY, DEGENERATE, AffineSubspace, GFVector, _check_problem, _json_int

COVER_FORMAT_VERSION = 1

TAG_NAMES = frozenset(
    {"ThmA", "Lemma31", "ReduceD", "Lift", "SMax", "Diagonal", "GolayCover", "GVRandom"}
)


@dataclass(frozen=True)
class ConstructionTag:
    """Provenance marker recorded on constructed covers."""

    name: str
    n: int | None = None
    k: int | None = None
    d: int | None = None
    s: int | None = None

    def __post_init__(self) -> None:
        if self.name not in TAG_NAMES:
            raise ValueError(f"unknown construction tag {self.name!r}")

    def to_json(self) -> dict:
        return {key: value for key, value in vars(self).items() if value is not None}

    @classmethod
    def from_json(cls, doc: dict) -> ConstructionTag:
        params = {key: _json_int(doc, key) for key in ("n", "k", "d", "s") if key in doc}
        return cls(name=doc["name"], **params)


@dataclass(frozen=True)
class Cover:
    """Multiset of codim-d affine subspaces of F_2^n.

    Entries are (subspace, multiplicity) pairs in canonical subspace order
    with multiplicities merged; build through from_entries() to normalize.
    """

    n: int
    d: int
    entries: tuple[tuple[AffineSubspace, int], ...]
    tag: ConstructionTag | None = field(default=None, compare=False)

    @classmethod
    def from_entries(
        cls,
        entries: Iterable[tuple[AffineSubspace, int]],
        tag: ConstructionTag | None = None,
    ) -> Cover:
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
        # one (n, d): the canonical (normals, rhs) tuple order
        ordered = tuple(sorted(merged.items(), key=lambda item: (item[0].normals, item[0].rhs)))
        return cls(n=n, d=d, entries=ordered, tag=tag)

    @property
    def size(self) -> int:
        return sum(mult for _, mult in self.entries)

    def with_tag(self, tag: ConstructionTag | None) -> Cover:
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
    """A cover document's Cover; refuses another version, a bad entry or a mismatched header."""
    if doc.get("version", COVER_FORMAT_VERSION) != COVER_FORMAT_VERSION:
        raise ValueError(f"unsupported cover document version {doc.get('version')!r}")
    entries = [
        (gf2core.subspace_from_json(e["subspace"]), _json_int(e, "mult"))
        for e in gf2core._json_list(doc, "entries")
    ]
    tag = ConstructionTag.from_json(doc["tag"]) if "tag" in doc else None
    cover = Cover.from_entries(entries, tag=tag)
    if (cover.n, cover.d) != (_json_int(doc, "n"), _json_int(doc, "d")):
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

    def is_cover_for(self, k: int, s_min: int = 0, s_max: int | None = None) -> bool:
        """Every nonzero point covered >= k times, the origin s_min..s_max times
        (s_max defaults to k-1)."""
        if s_max is None:
            s_max = k - 1
        return self.min_nonzero >= k and s_min <= self.origin_count <= s_max

    def to_json(self) -> dict:
        return asdict(self)


# Coverage counts live in 32-bit fields of one int, one field per point.
COUNT_LIMIT = (1 << 32) - 1


# The 32-bit point patterns of _profile_bytes (gf2core.point_patterns),
# kept per n up to PATTERN_CACHE_MAX_N: (n + 1) * 4 * 2^n bytes each,
# 0.375 MiB for all n <= 12 together.  Larger n rebuild theirs on every
# call: at n = 20 each pattern is 4 MiB.
PATTERN_CACHE_MAX_N = 12
_patterns_by_n: dict[int, tuple[int, tuple[int, ...]]] = {}


def _patterns(n: int) -> tuple[int, tuple[int, ...]]:
    """gf2core.point_patterns(n, 32), from the cache when n is in it."""
    got = _patterns_by_n.get(n) or gf2core.point_patterns(n, 32)
    if n <= PATTERN_CACHE_MAX_N:
        _patterns_by_n[n] = got
    return got


def _profile_bytes(C: Cover) -> bytes:
    """Per-point coverage as 2^n little-endian uint32 fields, point 0 first.

    An entry's points are gf2core.indicator over the 32-bit patterns of
    _patterns, so the profile is one multiply-add per entry.  No field
    carries: no count passes C.size, which is capped at COUNT_LIMIT.
    """
    if C.n > gf2core.DIMENSION_LIMIT:
        raise ValueError(f"ambient dimension {C.n} above the point-loop limit {gf2core.DIMENSION_LIMIT}")
    if C.size > COUNT_LIMIT:
        raise ValueError(f"cover size {C.size} above the coverage count limit 2^32 - 1")
    unit, coords = _patterns(C.n)
    total = 0
    for S, mult in C.entries:
        total += mult * gf2core.indicator(S.normals, S.rhs, unit, coords)
    return total.to_bytes(4 << C.n, "little")


def coverage_counts(C: Cover) -> list[int]:
    """Per-point coverage from packed 32-bit fields (see _profile_bytes)."""
    return list(struct.unpack(f"<{1 << C.n}I", _profile_bytes(C)))


def verify(C: Cover, k: int = 1) -> CoverReport:
    """Exact coverage report; C is a (k,d)-cover iff report.is_cover_for(k).

    profile_checksum is the first 16 hex digits of the SHA-256 of the
    profile as 2^n little-endian uint32 counts, point 0 first.
    """
    _check_problem(C.n, k, C.d)
    profile = _profile_bytes(C)
    counts = struct.unpack(f"<{1 << C.n}I", profile)
    nonzero = counts[1:]
    return CoverReport(
        n=C.n,
        d=C.d,
        origin_count=counts[0],
        min_nonzero=min(nonzero),
        max_nonzero=max(nonzero),
        profile_checksum=hashlib.sha256(profile).hexdigest()[:16],
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


def _restrict_rows(
    S: AffineSubspace, u: GFVector, extra: tuple[int, int] | None
) -> AffineSubspace | gf2core._Outcome:
    """Re-express S's constraints (plus an optional extra row) inside {x.u=0}.

    The pivot coordinate is the lowest set bit p of u; on the hyperplane
    x_p equals the parity of the remaining u-coordinates, so rows touching
    p absorb u first and coordinate p is then deleted.  Returns the reduced
    codim-d system in F_2^(n-1), or EMPTY / DEGENERATE as _reduce_augmented.
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
    return gf2core._reduce_augmented(out, S.n - 1, S.d)


def _classify(S: AffineSubspace, u: GFVector) -> tuple[AffineSubspace, ...]:
    """One entry's pieces under restriction to {x.u=0}.

    Returns () for subspaces missing the hyperplane (the discarded set X),
    (T0, T1) for subspaces inside it (the split set Y), (T,) otherwise:
    inside {x.u=0}, S's own rows are inconsistent, of rank d-1, or of full
    rank in those three cases.  A split adds a row outside S's span, which
    restores rank d on either side.
    """
    T = _restrict_rows(S, u, None)
    if T is EMPTY:
        return ()
    if T is DEGENERATE:
        # in reduced rows, e_j lies in their span iff it is a row; d < n leaves one out
        w = next(1 << j for j in range(S.n) if 1 << j not in S.normals)
        return tuple(_restrict_rows(S, u, (w, b)) for b in (0, 1))
    return (T,)


def _check_restriction(C: Cover, u: GFVector) -> None:
    if u.n != C.n or u.bits == 0:
        raise ValueError("restriction normal must be a nonzero vector of the ambient dimension")
    if C.d >= C.n:
        raise ValueError("cannot restrict a cover by points (d=n)")


def restrict_to_hyperplane(C: Cover, u: GFVector) -> Cover:
    """Restrict the cover to the hyperplane {x : x.u = 0}, re-indexed to F_2^(n-1).

    Subspaces disjoint from the hyperplane are dropped, subspaces contained
    in it split into two codim-d pieces, the rest are intersected; coverage
    of every surviving point is unchanged.
    """
    _check_restriction(C, u)
    out: list[tuple[AffineSubspace, int]] = []
    for S, mult in C.entries:
        out.extend((T, mult) for T in _classify(S, u))
    if not out:
        raise ValueError(f"the restriction to {{x.u=0}}, u={u.bits:#x}, is empty: "
                         "every entry misses the hyperplane")
    return Cover.from_entries(out)


def restriction_census(C: Cover, u: GFVector) -> tuple[int, int]:
    """Multiset sizes (|X|, |Y|) of discarded and split entries under u."""
    _check_restriction(C, u)
    weight = [0, 0, 0]  # by piece count: discarded, kept, split
    for S, mult in C.entries:
        weight[len(_classify(S, u))] += mult
    return weight[0], weight[2]
