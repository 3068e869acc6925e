from __future__ import annotations

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from f2cover.constructions import (
    ConstructionTag,
    _points_cover,
    diagonal_cover,
    gv_random_cover,
    lemma31_cover,
    lift,
    reduce_d,
    smax_cover,
    thm_a_cover,
)
from f2cover.covers import coverage_counts, verify
from f2cover.gf2core import ParameterError


def test_tag_json_roundtrip():
    tag = ConstructionTag("SMax", n=5, k=3, d=2, s=2)
    assert ConstructionTag.from_json(tag.to_json()) == tag
    with pytest.raises(ValueError):
        ConstructionTag("NotAThing")


@pytest.mark.parametrize(
    "n,k,d,size",
    [
        (3, 2, 1, 4),     # 2k - floor(k/4)
        (3, 3, 1, 6),
        (3, 8, 1, 14),    # 16 - 2
        (4, 4, 1, 8),
        (4, 8, 1, 15),
        (4, 4, 2, 15),    # 16 - 1
        (5, 4, 3, 31),    # 32 - floor(4/4)
        (4, 1, 3, 8),     # 8 - 0
        (1, 4, 1, 4),     # n = d: k(2^d - 1), the m = 1 dense base
        (2, 3, 2, 9),
        (3, 1, 3, 7),
    ],
)
def test_thm_a_cover_sizes_and_validity(n, k, d, size):
    C = thm_a_cover(n, k, d)
    assert C.size == size
    assert verify(C, k).is_cover_for(k)
    assert C.tag.name == "ThmA"


def test_thm_a_rejects_sparse_regime():
    with pytest.raises(ValueError):
        thm_a_cover(5, 3, 1)  # needs k >= 8
    with pytest.raises(ValueError):
        thm_a_cover(6, 7, 2)  # needs k >= 8


@pytest.mark.parametrize(
    "n,k,d", [(3, 2, 1), (4, 3, 1), (5, 4, 1), (4, 3, 2), (5, 2, 3), (6, 3, 2)]
)
def test_lemma31_cover_hits_general_position_size(n, k, d):
    C = lemma31_cover(n, k, d)
    assert C.size == n + (k << d) - d - 2
    assert verify(C, k).is_cover_for(k)


def test_lemma31_base_origin_count():
    # codim-1 family leaves the origin on the k-2 padding pairs only
    for n, k in [(3, 2), (4, 3), (5, 5)]:
        C = lemma31_cover(n, k, 1)
        assert coverage_counts(C)[0] == k - 2


def test_lemma31_needs_two_covers():
    with pytest.raises(ValueError):
        lemma31_cover(4, 1, 1)


@pytest.mark.parametrize("n,k,d", [(2, 1, 1), (3, 2, 1), (4, 3, 2), (5, 2, 3)])
def test_smax_cover_is_extremal_at_origin(n, k, d):
    C = smax_cover(n, k, d)
    report = verify(C, k)
    assert C.size == n + (k << d) - d - 1
    assert report.min_nonzero >= k
    assert report.origin_count == k - 1


def test_lift_adds_one_and_keeps_origin_count():
    C = smax_cover(3, 2, 2)
    L = lift(C)
    assert L.n == 4 and L.d == 2
    assert L.size == C.size + 1
    assert coverage_counts(L)[0] == coverage_counts(C)[0]
    assert verify(L, 2).is_cover_for(2)


def test_reduce_d_grows_by_translate_blocks():
    inner = lemma31_cover(4, 3, 1)
    out = reduce_d(inner, 6, 3, 3)
    assert out.n == 6 and out.d == 3
    assert out.size == inner.size + 2 * 3 * 3
    assert verify(out, 3).is_cover_for(3)


def test_reduce_d_validates_inner_shape():
    inner = lemma31_cover(4, 3, 1)
    with pytest.raises(ValueError):
        reduce_d(inner, 6, 3, 1)
    with pytest.raises(ValueError):
        reduce_d(inner, 5, 3, 3)  # inner.n must equal n - d + 1
    weak = smax_cover(4, 2, 1)
    with pytest.raises(ValueError):
        reduce_d(weak, 6, 3, 3)  # inner is only a 2-cover


@pytest.mark.parametrize("k", [4, 5, 6, 8])
def test_diagonal_cover_shape(k):
    C = diagonal_cover(k)
    assert C.n == k and C.d == 1
    assert C.size == 3 * k - 4
    report = verify(C, k)
    assert report.is_cover_for(k)
    assert report.origin_count == k - 4


def test_diagonal_needs_k_at_least_four():
    with pytest.raises(ValueError):
        diagonal_cover(3)


@given(st.integers(2, 6), st.integers(1, 4), st.integers(0, 5))
def test_gv_random_cover_is_seed_deterministic(n, k, seed):
    C = gv_random_cover(n, k, seed=seed)
    D = gv_random_cover(n, k, seed=seed)
    assert C == D
    report = verify(C, k)
    assert report.is_cover_for(k)
    assert report.origin_count == 0


def test_gv_random_cover_varies_with_seed():
    draws = {gv_random_cover(5, 3, seed=s).entries for s in range(6)}
    assert len(draws) > 1


def test_gv_multiplicity_below_one_is_a_parameter_error():
    with pytest.raises(ParameterError, match="need k >= 1, got 0"):
        gv_random_cover(4, 0)


@pytest.mark.parametrize("d,k", [(1, 1), (2, 3), (3, 2)])
def test_smax_base_case_is_the_points_cover(d, k):
    # n = d: k copies of every nonzero point and k-1 of the origin
    C = smax_cover(d, k, d)
    assert C.entries == _points_cover(d, k, k - 1).entries
    assert C.size == k * ((1 << d) - 1) + k - 1


def test_smax_cover_is_the_points_cover_lifted():
    # the one-pass build against its definition: n-d lifts of the n = d base
    for n in range(1, 11):
        for d in range(1, n + 1):
            for k in range(1, 7):
                ref = _points_cover(d, k, k - 1)
                for _ in range(n - d):
                    ref = lift(ref)
                ref = ref.with_tag(ConstructionTag("SMax", n=n, k=k, d=d, s=k - 1))
                got = smax_cover(n, k, d)
                assert json.dumps(got.to_json()) == json.dumps(ref.to_json()), (n, k, d)
