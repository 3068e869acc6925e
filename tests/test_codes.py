from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from f2cover.codes import (
    LinearCode,
    code_from_cover,
    code_from_json,
    cover_from_code,
    golay_cover,
    golay_generator,
    min_distance,
)
from f2cover.constructions import gv_random_cover, smax_cover
from f2cover.covers import verify

from gf2_reference import encode_bits


def _distance_by_messages(code: LinearCode) -> int:
    # independent oracle: weigh every codeword directly
    return min(
        encode_bits(code, msg).bit_count() for msg in range(1, 1 << code.dim)
    )


def test_repetition_code_distance():
    code = LinearCode(dim=1, length=3, rows=(1, 1, 1))
    assert min_distance(code) == 3


def test_parity_code_distance():
    code = LinearCode(dim=2, length=3, rows=(0b01, 0b10, 0b11))
    assert min_distance(code) == 2


def test_hamming_code_distance():
    rows = (0b0001, 0b0010, 0b0100, 0b1000, 0b0111, 0b1011, 0b1101)
    code = LinearCode(dim=4, length=7, rows=rows)
    assert min_distance(code) == 3


def test_distance_zero_when_rows_do_not_span():
    code = LinearCode(dim=2, length=2, rows=(0b01, 0b01))
    assert min_distance(code) == 0


@given(
    st.integers(1, 5),
    st.lists(st.integers(0, 31), min_size=1, max_size=10),
)
def test_distance_matches_message_enumeration(dim, rows):
    rows = tuple(u & ((1 << dim) - 1) for u in rows)
    code = LinearCode(dim=dim, length=len(rows), rows=rows)
    assert min_distance(code) == _distance_by_messages(code)


def test_code_validation():
    with pytest.raises(ValueError):
        LinearCode(dim=2, length=3, rows=(1, 2))
    with pytest.raises(ValueError):
        LinearCode(dim=2, length=1, rows=(4,))
    with pytest.raises(ValueError):
        LinearCode(dim=1, length=0, rows=())


def test_json_roundtrip():
    code = golay_generator()
    doc = code.to_json()
    assert doc["rows"][0] == "0x1"
    assert code_from_json(doc) == code
    doc["version"] = 3
    with pytest.raises(ValueError):
        code_from_json(doc)


def test_cover_to_code_expands_multiplicity():
    C = gv_random_cover(4, 2, seed=3)
    code = code_from_cover(C)
    assert code.dim == 4
    assert code.length == C.size


def test_cover_to_code_rejects_wrong_shapes():
    with pytest.raises(ValueError):
        code_from_cover(smax_cover(4, 2, 2))  # d=2
    with pytest.raises(ValueError):
        code_from_cover(smax_cover(4, 2, 1))  # touches the origin


def test_code_to_cover_rejects_zero_rows():
    with pytest.raises(ValueError):
        cover_from_code(LinearCode(dim=2, length=2, rows=(0, 1)))


@given(st.integers(2, 6), st.integers(1, 3), st.integers(0, 20))
def test_roundtrip_cover_code_cover(n, k, seed):
    C = gv_random_cover(n, k, seed=seed)
    code = code_from_cover(C)
    back = cover_from_code(code)
    assert (back.n, back.d, back.entries) == (C.n, C.d, C.entries)
    dist = min_distance(code)
    assert dist >= k
    assert verify(back, dist).is_cover_for(dist)


def test_golay_generator_shape():
    code = golay_generator()
    assert (code.dim, code.length) == (12, 24)
    assert code.rows[:12] == tuple(1 << i for i in range(12))
    # the 12 columns of B: the bordered circulant on the residues mod 11
    assert code.to_json()["rows"][12:] == [
        "0xdc5", "0xb8b", "0xf16", "0xe2d", "0xc5b", "0x8b7",
        "0x96e", "0xadc", "0xdb8", "0xb71", "0xee2", "0x7ff",
    ]
    # every codeword weight is a multiple of 4 in the extended Golay code
    for msg in (1, 0b11, 0b1010101, (1 << 12) - 1):
        assert encode_bits(code, msg).bit_count() % 4 == 0


def test_golay_distance_is_eight():
    assert min_distance(golay_generator()) == 8


def test_golay_cover_profile():
    C = golay_cover()
    report = verify(C, 8)
    assert (C.n, C.d, C.size) == (12, 1, 24)
    assert report.is_cover_for(8)
    assert report.origin_count == 0
    assert C.tag.name == "GolayCover"


@pytest.mark.parametrize("key,value", [("dim", 12.0), ("length", "24"), ("dim", True)])
def test_code_document_integers_are_strict(key, value):
    doc = golay_generator().to_json()
    doc[key] = value
    with pytest.raises(ValueError, match="must be an integer"):
        code_from_json(doc)
