"""Explicit cover families with exact size formulas.

Every constructor returns a Cover that has been re-verified against its
declared multiplicity; sizes are exact, not merely bounded.  Arbitrary
choices (which parallel pair, which split coordinate) are pinned so equal
parameters always produce byte-identical covers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from . import gf2core
from .bounds import bounds_thm_bc, exact_thm_a, g_smax_formula
from .covers import Cover, add_parallel_pair, verify
from .gf2core import AffineSubspace, GFVector, basis_vector, hyperplane, ones_vector, point_subspace

TAG_NAMES = frozenset(
    {"ThmA", "Lemma31", "ReduceD", "Lift", "SMax", "Diagonal", "GolayCover", "GVRandom", "ParallelPad"}
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
        doc: dict = {"name": self.name}
        for key in ("n", "k", "d", "s"):
            value = getattr(self, key)
            if value is not None:
                doc[key] = value
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "ConstructionTag":
        return cls(
            name=doc["name"],
            n=doc.get("n"),
            k=doc.get("k"),
            d=doc.get("d"),
            s=doc.get("s"),
        )


def _checked(C: Cover, k: int, tag: ConstructionTag, expect_size: int | None = None) -> Cover:
    report = verify(C, k)
    if not report.is_cover_for(k):
        raise AssertionError(
            f"{tag.name} construction failed verification: min coverage "
            f"{report.min_nonzero}, origin {report.origin_count}, need k={k}"
        )
    if expect_size is not None and C.size != expect_size:
        raise AssertionError(f"{tag.name} construction has size {C.size}, expected {expect_size}")
    return C.with_tag(tag)


def _pad_pairs(entries: list[tuple[AffineSubspace, int]], n: int, count: int) -> None:
    # the paper-of-record choice is arbitrary; e_1 keeps output canonical
    if count > 0:
        e1 = basis_vector(1, n)
        entries.append((hyperplane(e1, 0), count))
        entries.append((hyperplane(e1, 1), count))


def _dense_d1(m: int, k: int) -> Cover:
    """Hyperplane (k,1)-cover of F_2^m of size 2k - floor(k / 2^(m-1))."""
    entries: list[tuple[AffineSubspace, int]] = []
    if m == 1:
        entries.append((hyperplane(basis_vector(1, 1), 1), k))
        return Cover.from_entries(entries)
    half = 1 << (m - 1)
    if k >= half:
        copies, rest = divmod(k, half)
        for u in range(1, 1 << m):
            entries.append((hyperplane(GFVector(u, m), 1), copies))
        _pad_pairs(entries, m, rest)
    else:
        quarter = 1 << (m - 2)
        if k < quarter:
            raise ValueError(f"k={k} below the dense regime threshold {quarter} for m={m}")
        # all hyperplanes {x.u=1} whose normal has the top coordinate set
        for u in range(half, 1 << m):
            entries.append((hyperplane(GFVector(u, m), 1), 1))
        _pad_pairs(entries, m, k - quarter)
    return Cover.from_entries(entries)


def thm_a_cover(n: int, k: int, d: int) -> Cover:
    """Optimal (k,d)-cover in the dense regime k >= 2^(n-d-1).

    Size is exactly 2^d k - floor(k / 2^(n-d)), meeting the double-count
    lower bound; built from the codim-1 dense family, then codim-reduced.
    """
    size = exact_thm_a(n, k, d)
    if size is None:
        raise ValueError(f"k={k} below the dense regime threshold 2^{n - d - 1} for (n={n}, d={d})")
    inner = _dense_d1(n - d + 1, k)
    out = inner if d == 1 else _reduce_d_unchecked(inner, n, k, d)
    return _checked(out, k, ConstructionTag("ThmA", n=n, k=k, d=d), expect_size=size)


def lemma31_cover(n: int, k: int, d: int) -> Cover:
    """General-position (k,d)-cover of size n + 2^d k - d - 2, any n >= d.

    The codim-1 base is the n coordinate hyperplanes plus the all-ones
    hyperplane and k-2 parallel pairs; its origin count is k-2.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    _, size = bounds_thm_bc(n, k, d)
    m = n - d + 1
    entries: list[tuple[AffineSubspace, int]] = [
        (hyperplane(basis_vector(i, m), 1), 1) for i in range(1, m + 1)
    ]
    entries.append((hyperplane(ones_vector(m), 1), 1))
    _pad_pairs(entries, m, k - 2)
    base = Cover.from_entries(entries)
    out = base if d == 1 else _reduce_d_unchecked(base, n, k, d)
    return _checked(out, k, ConstructionTag("Lemma31", n=n, k=k, d=d), expect_size=size)


def _reduce_d_unchecked(inner: Cover, n: int, k: int, d: int) -> Cover:
    prefix = d - 1
    entries: list[tuple[AffineSubspace, int]] = []
    # inner cover re-indexed into S_0 = {x_1 = ... = x_(d-1) = 0}
    for S, mult in inner.entries:
        rows = tuple(1 << i for i in range(prefix)) + (S.normals[0] << prefix,)
        rhs = (S.rhs & 1) << prefix
        entries.append((AffineSubspace(n=n, d=d, normals=rows, rhs=rhs), mult))
    # each nonzero prefix translate, split along coordinate x_d, k times over
    identity = tuple(1 << i for i in range(d))
    for t in range(1, 1 << prefix):
        for b in (0, 1):
            entries.append((AffineSubspace(n=n, d=d, normals=identity, rhs=t | (b << prefix)), k))
    return Cover.from_entries(entries)


def reduce_d(inner: Cover, n: int, k: int, d: int) -> Cover:
    """Trade ambient dimension for codimension: a (k,1;s)-cover of F_2^(n-d+1)
    becomes a (k,d;s)-cover of F_2^n, growing by 2k(2^(d-1) - 1) subspaces."""
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if inner.d != 1 or inner.n != n - d + 1:
        raise ValueError(
            f"inner cover must have d=1 and n={n - d + 1}, got d={inner.d}, n={inner.n}"
        )
    report = verify(inner, k)
    if not report.is_cover_for(k):
        raise ValueError(f"inner family is not a (k={k},1)-cover: min coverage {report.min_nonzero}")
    out = _reduce_d_unchecked(inner, n, k, d)
    return _checked(
        out, k, ConstructionTag("ReduceD", n=n, k=k, d=d, s=report.origin_count),
        expect_size=inner.size + 2 * k * ((1 << (d - 1)) - 1),
    )


def lift(C: Cover) -> Cover:
    """Extend a cover of F_2^n to F_2^(n+1) at the cost of one subspace.

    Every subspace keeps its constraints (gaining the new free coordinate);
    one extra subspace {x_(n+1)=1, x_1=...=x_(d-1)=0} picks up the new unit
    point.  The origin count is unchanged, and a (k,d;k-1)-cover stays one.
    """
    n, d = C.n, C.d
    entries: list[tuple[AffineSubspace, int]] = [
        (AffineSubspace(n=n + 1, d=d, normals=S.normals, rhs=S.rhs), mult)
        for S, mult in C.entries
    ]
    rows = tuple(1 << i for i in range(d - 1)) + (1 << n,)
    entries.append((AffineSubspace(n=n + 1, d=d, normals=rows, rhs=1 << (d - 1)), 1))
    tag = ConstructionTag("Lift", n=n + 1, d=d)
    return Cover.from_entries(entries, tag=tag)


def smax_cover(n: int, k: int, d: int) -> Cover:
    """(k,d;k-1)-cover of size n + 2^d k - d - 1, extremal at origin count k-1.

    Base case n=d takes k copies of every nonzero point and k-1 of the
    origin; each unit of extra ambient dimension is one lift.
    """
    size = g_smax_formula(n, k, d)
    entries: list[tuple[AffineSubspace, int]] = [
        (point_subspace(GFVector(v, d)), k) for v in range(1, 1 << d)
    ]
    if k > 1:
        entries.append((point_subspace(GFVector(0, d)), k - 1))
    out = Cover.from_entries(entries)
    for _ in range(n - d):
        out = lift(out)
    return _checked(
        out, k, ConstructionTag("SMax", n=n, k=k, d=d, s=k - 1),
        expect_size=size,
    )


def diagonal_cover(k: int) -> Cover:
    """k-cover of F_2^k of size 3k - 4: coordinate hyperplanes, their all-ones
    complements, and k-4 copies of the parity hyperplane through the origin."""
    if k < 4:
        raise ValueError(f"need k >= 4, got {k}")
    all_ones = ones_vector(k)
    entries: list[tuple[AffineSubspace, int]] = []
    for i in range(1, k + 1):
        entries.append((hyperplane(basis_vector(i, k), 1), 1))
        entries.append((hyperplane(GFVector(all_ones.bits ^ (1 << (i - 1)), k), 1), 1))
    if k > 4:
        entries.append((hyperplane(all_ones, 0), k - 4))
    return _checked(
        Cover.from_entries(entries), k,
        ConstructionTag("Diagonal", n=k, k=k, d=1, s=k - 4),
        expect_size=3 * k - 4,
    )


def gv_random_cover(n: int, k: int, seed: int = 0, max_tries: int = 200) -> Cover:
    """Random (k,1;0)-cover in the spirit of random linear codes.

    Samples m = n + ceil((k-1) log2(2n)) origin-avoiding hyperplanes with
    uniform nonzero normals; after every max_tries/4 failures m grows by
    one.  Deterministic for a fixed seed; raises after max_tries failures.
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    gf2core._check_dim(n)
    rng = random.Random(seed)
    m = n + math.ceil((k - 1) * math.log2(2 * n))
    patience = max(1, max_tries // 4)
    top = (1 << n) - 1
    for attempt in range(1, max_tries + 1):
        draws = [rng.randint(1, top) for _ in range(m)]
        C = Cover.from_entries(
            [(hyperplane(GFVector(u, n), 1), 1) for u in draws],
            tag=ConstructionTag("GVRandom", n=n, k=k, d=1, s=0),
        )
        if verify(C, k).is_cover_for(k):
            return C
        if attempt % patience == 0:
            m += 1
    raise RuntimeError(
        f"no (k={k},1;0)-cover of F_2^{n} found in {max_tries} random draws; "
        "raise max_tries or start from a larger size"
    )
