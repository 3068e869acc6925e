from __future__ import annotations

import hashlib
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from f2cover.codes import golay_cover
from f2cover.constructions import ConstructionTag, gv_random_cover, lemma31_cover, smax_cover
from f2cover import covers as covers_module
from f2cover.covers import ConstructionTag as TagFromCovers
from f2cover.covers import (
    COUNT_LIMIT,
    PATTERN_CACHE_MAX_N,
    Cover,
    add_parallel_pair,
    cover_from_json,
    coverage_counts,
    restrict_to_hyperplane,
    restriction_census,
    verify,
)
from f2cover.gf2core import (
    AffineSubspace,
    GFVector,
    ParameterError,
    canonicalize,
    enumerate_subspaces,
    hyperplane,
)

from gf2_reference import coverage_counts_pointwise


def _entries(n, d, picks):
    pool = enumerate_subspaces(n, d)
    return [(pool[i % len(pool)], m) for i, m in picks]


@st.composite
def small_covers(draw):
    n = draw(st.integers(2, 4))
    d = draw(st.integers(1, n))
    picks = draw(
        st.lists(
            st.tuples(st.integers(0, 200), st.integers(1, 3)),
            min_size=1,
            max_size=6,
        )
    )
    return Cover.from_entries(_entries(n, d, picks))


def test_from_entries_merges_and_sorts():
    H = hyperplane(GFVector(0b01, 2), 1)
    G = hyperplane(GFVector(0b10, 2), 1)
    C = Cover.from_entries([(G, 1), (H, 2), (H, 1)])
    assert C.n == 2 and C.d == 1
    assert C.size == 4
    assert sorted(m for _, m in C.entries) == [1, 3]
    # entry order is canonical, not insertion order
    D = Cover.from_entries([(H, 3), (G, 1)])
    assert C.entries == D.entries


def test_from_entries_rejects_mixed_shapes():
    H2 = hyperplane(GFVector(0b01, 2), 1)
    H3 = hyperplane(GFVector(0b001, 3), 1)
    with pytest.raises(ValueError):
        Cover.from_entries([(H2, 1), (H3, 1)])
    with pytest.raises(ValueError):
        Cover.from_entries([])


def test_verify_two_coordinate_hyperplanes():
    C = Cover.from_entries(
        [
            (hyperplane(GFVector(0b01, 2), 1), 1),
            (hyperplane(GFVector(0b10, 2), 1), 1),
        ]
    )
    report = verify(C, 1)
    assert report.origin_count == 0
    assert report.min_nonzero == 1
    assert report.max_nonzero == 2
    assert report.is_cover_for(1)
    assert not report.is_cover_for(2)


def test_is_cover_for_caps_origin():
    # double parallel pair covers everything twice, origin included
    C = Cover.from_entries(
        [
            (hyperplane(GFVector(0b01, 2), 0), 2),
            (hyperplane(GFVector(0b01, 2), 1), 2),
        ]
    )
    report = verify(C, 2)
    assert report.min_nonzero == 2
    assert report.origin_count == 2
    assert not report.is_cover_for(2)


@given(small_covers())
def test_counting_orders_agree(C):
    assert coverage_counts(C) == coverage_counts_pointwise(C)


@given(small_covers(), st.integers(1, 1 << 31), st.integers(0, 200))
def test_verify_matches_a_pointwise_reference(C, heavy, pick):
    # one heavy entry sets the top bits of its points' 32-bit counts
    pool = enumerate_subspaces(C.n, C.d)
    S = pool[pick % len(pool)]
    C = Cover.from_entries(list(C.entries) + [(S, heavy)])
    counts = coverage_counts_pointwise(C)
    packed = struct.pack(f"<{len(counts)}I", *counts)
    report = verify(C)
    assert report.origin_count == counts[0]
    assert (report.min_nonzero, report.max_nonzero) == (min(counts[1:]), max(counts[1:]))
    assert report.profile_checksum == hashlib.sha256(packed).hexdigest()[:16]


def test_pattern_cache_counts_right_and_stays_bounded():
    # _profile_bytes keeps its unit and coordinate patterns per n up to
    # PATTERN_CACHE_MAX_N only, (n + 1) * 4 * 2^n bytes each; the counts
    # read through the cache and past its limit agree with a pointwise count.
    rng = random.Random(14)
    for n in range(1, 15):
        for _ in range(3):
            d, size = rng.randint(1, n), rng.randint(1, 4)
            entries = []
            while len(entries) < size:
                rows = [GFVector(rng.getrandbits(n), n) for _ in range(d)]
                S = canonicalize(rows, [rng.getrandbits(1) for _ in range(d)])
                if isinstance(S, AffineSubspace):
                    entries.append((S, rng.randint(1, 3)))
            C = Cover.from_entries(entries)
            assert coverage_counts(C) == coverage_counts_pointwise(C)
    cached = covers_module._patterns_by_n
    assert set(cached) == set(range(1, PATTERN_CACHE_MAX_N + 1))
    assert sum(4 * (n + 1) << n for n in cached) <= 1 << 19


@pytest.mark.parametrize(
    "build,k,want",
    [
        (golay_cover, 8, (0, 8, 24, "c809af3531f549e1")),
        (lambda: lemma31_cover(7, 3, 3), 3, (1, 3, 7, "de9312aef4c7fb22")),
    ],
    ids=["golay", "lemma31_733"],
)
def test_profile_checksums_are_pinned(build, k, want):
    report = verify(build(), k)
    got = (report.origin_count, report.min_nonzero, report.max_nonzero, report.profile_checksum)
    assert got == want


def test_counts_refuse_a_size_past_the_field_limit():
    H = hyperplane(GFVector(0b011, 3), 1)
    at_limit = Cover.from_entries([(H, COUNT_LIMIT)])
    assert verify(at_limit).max_nonzero == COUNT_LIMIT
    assert coverage_counts(at_limit) == [COUNT_LIMIT * ((b & 0b011).bit_count() % 2) for b in range(8)]
    over = Cover.from_entries([(H, COUNT_LIMIT), (hyperplane(GFVector(0b100, 3), 1), 1)])
    for count in (verify, coverage_counts):
        with pytest.raises(ValueError, match=r"2\^32 - 1"):
            count(over)


@given(st.integers(1, 5), st.data())
def test_entry_order_is_canonical_bytes_order(n, data):
    d = data.draw(st.integers(1, n))
    pool = enumerate_subspaces(n, d)
    picks = data.draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=8))
    C = Cover.from_entries([(pool[i], 1) for i in picks])
    assert [S for S, _ in C.entries] == sorted({pool[i] for i in picks}, key=lambda S: S.canonical_bytes())


@given(small_covers())
def test_json_roundtrip_is_identity(C):
    C = C.with_tag(ConstructionTag("GVRandom", n=C.n, d=C.d))
    doc = C.to_json()
    back = cover_from_json(doc)
    assert back == C
    assert back.to_json() == doc


def test_json_version_is_checked():
    C = gv_random_cover(3, 2, seed=1)
    doc = C.to_json()
    doc["version"] = 99
    with pytest.raises(ValueError):
        cover_from_json(doc)


def test_json_header_must_match_entries():
    C = gv_random_cover(3, 2, seed=1)
    doc = C.to_json()
    doc["n"] = 5
    with pytest.raises(ValueError):
        cover_from_json(doc)


@given(small_covers(), st.data())
def test_parallel_pair_raises_every_count_once(C, data):
    u_bits = data.draw(st.integers(1, (1 << C.n) - 1))
    if C.d != 1:
        return
    before = coverage_counts(C)
    D = add_parallel_pair(C, GFVector(u_bits, C.n))
    after = coverage_counts(D)
    assert D.size == C.size + 2
    assert after == [c + 1 for c in before]


@given(small_covers(), st.data())
def test_restriction_preserves_surviving_counts(C, data):
    if C.d >= C.n:
        return
    u_bits = data.draw(st.integers(1, (1 << C.n) - 1))
    u = GFVector(u_bits, C.n)
    x, y = restriction_census(C, u)
    if x == C.size:
        # every member misses the hyperplane; no cover survives
        with pytest.raises(ValueError):
            restrict_to_hyperplane(C, u)
        return
    R = restrict_to_hyperplane(C, u)
    assert R.n == C.n - 1 and R.d == C.d
    assert R.size == C.size - x + y
    original = coverage_counts(C)
    kept = sorted(
        original[b] for b in range(1 << C.n) if (b & u_bits).bit_count() % 2 == 0
    )
    assert sorted(coverage_counts(R)) == kept


@given(small_covers())
def test_census_mean_identity(C):
    if C.d >= C.n:
        return
    s = coverage_counts(C)[0]
    total = 0
    for u_bits in range(1, 1 << C.n):
        x, y = restriction_census(C, GFVector(u_bits, C.n))
        total += x - y
    mean = Fraction(total, (1 << C.n) - 1)
    assert mean == Fraction(C.size - (s << C.d), (1 << C.n) - 1)


def test_restriction_rejects_bad_normals():
    C = smax_cover(3, 2, 1)
    with pytest.raises(ValueError):
        restrict_to_hyperplane(C, GFVector(0, 3))
    with pytest.raises(ValueError):
        restrict_to_hyperplane(C, GFVector(1, 4))
    P = smax_cover(3, 2, 3)
    with pytest.raises(ValueError):
        restrict_to_hyperplane(P, GFVector(1, 3))


def test_parallel_pair_rejects_bad_covers_and_normals():
    with pytest.raises(ValueError, match="d=1"):
        add_parallel_pair(smax_cover(3, 2, 2), GFVector(1, 3))
    C = smax_cover(3, 2, 1)
    for u in (GFVector(0, 3), GFVector(1, 4)):
        with pytest.raises(ValueError, match="nonzero vector of the ambient dimension"):
            add_parallel_pair(C, u)


def test_verify_rejects_bad_k():
    C = smax_cover(3, 2, 1)
    with pytest.raises(ValueError):
        verify(C, 0)


def test_is_cover_for_origin_window():
    # smax_cover(3, 3, 1) covers every nonzero point 3 times and the origin twice
    report = verify(smax_cover(3, 3, 1), 3)
    assert (report.min_nonzero, report.origin_count) == (3, 2)
    assert report.is_cover_for(3) and report.is_cover_for(3, 2, 2)
    assert report.is_cover_for(3, 1) and report.is_cover_for(3, 0, 2)
    assert not report.is_cover_for(3, 0, 1)
    assert not report.is_cover_for(3, 3, 3)
    assert not report.is_cover_for(4, 2, 2)


def test_verify_k_below_one_is_a_parameter_error():
    with pytest.raises(ParameterError, match="need k >= 1, got 0"):
        verify(smax_cover(3, 2, 1), 0)


def test_tag_lives_in_covers():
    assert ConstructionTag is TagFromCovers


@pytest.mark.parametrize(
    "path,value",
    [
        (("entries", 0, "mult"), 2.9),
        (("entries", 0, "mult"), True),
        (("entries", 0, "mult"), "2"),
        (("n",), 3.0),
        (("d",), "1"),
        (("entries", 0, "subspace", "n"), 3.5),
        (("tag", "k"), 2.0),
        (("tag", "s"), False),
    ],
)
def test_cover_document_integers_are_strict(path, value):
    # a non-integer count loaded as int() would silently change the cover
    doc = smax_cover(3, 2, 1).to_json()
    assert cover_from_json(doc).size == 5
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(ValueError, match="must be an integer"):
        cover_from_json(doc)
