from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from f2cover.gf2core import (
    DEGENERATE,
    EMPTY,
    SUBSPACE_ENUM_LIMIT,
    AffineSubspace,
    GFVector,
    basis_vector,
    canonicalize,
    count_subspaces,
    enumerate_subspaces,
    gaussian_binomial,
    hyperplane,
    linear_systems,
    ones_vector,
    point_mask,
    point_patterns,
    point_subspace,
    subspace,
    subspace_from_json,
)

from gf2_reference import canonical_bytes, contains_bits, solution_bits


def test_named_vectors():
    assert basis_vector(1, 4).bits == 0b0001
    assert basis_vector(4, 4).bits == 0b1000
    assert ones_vector(3).bits == 0b111


def test_vector_range_checks():
    with pytest.raises(ValueError):
        GFVector(0b100, 2)
    with pytest.raises(ValueError):
        GFVector(-1, 2)
    with pytest.raises(ValueError):
        basis_vector(0, 3)


def test_hyperplane_membership():
    H = hyperplane(GFVector(0b011, 3), 1)
    assert H.d == 1
    members = {b for b in range(8) if contains_bits(H, b)}
    assert members == {b for b in range(8) if (b & 0b011).bit_count() & 1}
    assert 0 not in members


def test_point_subspace_is_single_point():
    S = point_subspace(GFVector(0b101, 3))
    assert S.d == 3
    assert list(solution_bits(S)) == [0b101]
    assert point_mask(S) == 1 << 0b101


@pytest.mark.parametrize("width", [1, 32])
@pytest.mark.parametrize("n", range(1, 11))
def test_point_patterns_match_a_per_point_build(n, width):
    # field x of unit is 1, and field x of coords[c] is bit c of x
    unit, coords = point_patterns(n, width)
    assert unit == sum(1 << width * x for x in range(1 << n))
    assert coords == tuple(
        sum((x >> c & 1) << width * x for x in range(1 << n)) for c in range(n)
    )


def test_gaussian_binomial_known_values():
    assert gaussian_binomial(3, 1) == 7
    assert gaussian_binomial(3, 2) == 7
    assert gaussian_binomial(4, 2) == 35
    assert gaussian_binomial(5, 1) == 31
    assert gaussian_binomial(4, 0) == 1
    assert gaussian_binomial(4, 4) == 1


# (9, 1): normals wider than one byte
@pytest.mark.parametrize(
    "n,d", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3), (9, 1)]
)
def test_enumerate_subspaces_complete_and_distinct(n, d):
    pool = enumerate_subspaces(n, d)
    assert len(pool) == count_subspaces(n, d) == gaussian_binomial(n, n - d) << d
    seen = {canonical_bytes(S) for S in pool}
    assert len(seen) == len(pool)
    for S in pool:
        points = [b for b in range(1 << n) if contains_bits(S, b)]
        assert len(points) == 1 << (n - d)
        assert point_mask(S) == sum(1 << b for b in points)
        assert points == sorted(solution_bits(S))


@pytest.mark.parametrize(
    "n,d", [(n, d) for n in range(1, 7) for d in range(1, n + 1)] + [(7, 3)]
)
def test_enumerate_subspaces_in_canonical_order(n, d):
    pool = enumerate_subspaces(n, d)
    assert pool == sorted(pool, key=canonical_bytes)


def _independent_sets(n: int, d: int, rows=(), span=frozenset({0})):
    """Every d-set of independent nonzero rows of width n, in increasing order."""
    if len(rows) == d:
        yield rows
        return
    for u in range(rows[-1] + 1 if rows else 1, 1 << n):
        if u not in span:
            yield from _independent_sets(n, d, rows + (u,), span | {v ^ u for v in span})


def _echelon(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Independent rows in reduced row echelon form, ordered by pivot column."""
    rest, out = list(rows), []
    for c in range(n):
        pick = next((r for r in rest if r >> c & 1), None)
        if pick is not None:
            rest.remove(pick)
            rest = [r ^ pick if r >> c & 1 else r for r in rest]
            out = [r ^ pick if r >> c & 1 else r for r in out] + [pick]
    return tuple(out)


@pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 6) for d in range(1, n + 1)])
def test_linear_systems_match_every_independent_row_set(n, d):
    # every d-set of independent rows, reduced, deduplicated and sorted
    assert linear_systems(n, d) == sorted({_echelon(rows, n) for rows in _independent_sets(n, d)})


def test_linear_systems_count():
    for n in range(1, 9):
        for d in range(1, n + 1):
            if count_subspaces(n, d) > SUBSPACE_ENUM_LIMIT:
                with pytest.raises(ValueError, match="exceeds the limit"):
                    linear_systems(n, d)
            else:
                assert len(linear_systems(n, d)) == count_subspaces(n, d) >> d


def test_subspace_builder_rejects_improper_systems():
    u = GFVector(0b01, 2)
    v = GFVector(0b10, 2)
    w = GFVector(0b11, 2)
    with pytest.raises(ValueError, match="^constraint system is EMPTY, not a proper subspace$"):
        subspace([u, u], [0, 1])  # inconsistent
    with pytest.raises(ValueError,
                       match="^constraint system is DEGENERATE, not a proper subspace$"):
        subspace([u, u], [0, 0])  # dependent
    with pytest.raises(ValueError):
        subspace([u, v, w], [1, 0, 1])  # dependent triple


def test_canonicalize_sentinels():
    u = GFVector(0b01, 2)
    assert canonicalize([u, u], [0, 1]) is EMPTY
    assert canonicalize([u, u], [1, 1]) is DEGENERATE


def test_canonicalize_rejects_malformed_systems():
    u = GFVector(0b01, 2)
    with pytest.raises(ValueError, match="at least one"):
        canonicalize([], [])
    with pytest.raises(ValueError, match="mixed widths"):
        canonicalize([u, GFVector(0b01, 3)], [0, 0])
    with pytest.raises(ValueError, match="rhs length"):
        canonicalize([u], [0, 1])


@given(st.integers(2, 4), st.data())
def test_canonical_form_is_stable_under_row_mixing(n, data):
    pool = enumerate_subspaces(n, 2)
    S = data.draw(st.sampled_from(pool))
    a, b = (GFVector(bits, n) for bits in S.normals)
    r1, r2 = S.rhs & 1, (S.rhs >> 1) & 1
    # replacing row two by the XOR of both rows presents the same subspace
    T = subspace([a, GFVector(a.bits ^ b.bits, n)], [r1, r1 ^ r2])
    assert T == S


@given(st.integers(2, 4), st.integers(1, 3), st.data())
def test_subspace_json_roundtrip(n, d, data):
    if d > n:
        d = n
    pool = enumerate_subspaces(n, d)
    S = data.draw(st.sampled_from(pool))
    doc = S.to_json()
    assert doc["n"] == n and len(doc["normals"]) == d
    assert subspace_from_json(doc) == S


@pytest.mark.parametrize("field,value", [("rhs", "0b10"), ("rhs", "-1"), ("rhs", 1), ("normals", [1])])
def test_subspace_json_masks_are_strict(field, value):
    # masks are strings, and rhs holds one bit per row: nothing is truncated
    doc = {"normals": ["0x1"], "rhs": "0b1", "n": 2, field: value}
    with pytest.raises(ValueError):
        subspace_from_json(doc)


def test_affine_subspace_validation():
    with pytest.raises(ValueError):
        AffineSubspace(n=3, d=1, normals=(0,), rhs=0)
    with pytest.raises(ValueError):
        AffineSubspace(n=3, d=2, normals=(1,), rhs=0)
    for d in (0, 4):
        with pytest.raises(ValueError, match="codimension"):
            AffineSubspace(n=3, d=d, normals=(1,) * d, rhs=0)
    with pytest.raises(ValueError, match="rhs mask wider"):
        AffineSubspace(n=3, d=1, normals=(1,), rhs=0b10)
    with pytest.raises(ValueError, match="not ordered by pivot"):
        AffineSubspace(n=3, d=2, normals=(2, 1), rhs=0)
    with pytest.raises(ValueError, match="not in reduced row echelon"):
        AffineSubspace(n=3, d=2, normals=(0b011, 0b010), rhs=0)
