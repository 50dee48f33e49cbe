import numpy as np
import pytest
from hypothesis import given, strategies as st

from byzfusion.bits import all_bit_vectors, pack_bits, unpack_bits


def test_pack_first_bit_is_msb():
    assert pack_bits(np.array([1, 0, 0])) == 4
    assert pack_bits(np.array([0, 0, 1])) == 1
    assert pack_bits(np.array([1, 1, 0, 1])) == 13


def test_pack_unpack_multidim():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2, size=(5, 7, 11), dtype=np.uint8)
    packed = pack_bits(bits)
    assert packed.shape == (5, 7)
    np.testing.assert_array_equal(unpack_bits(packed, 11), bits)


def test_all_bit_vectors_lexicographic():
    vecs = all_bit_vectors(3)
    assert vecs.shape == (8, 3)
    np.testing.assert_array_equal(vecs[0], [0, 0, 0])
    np.testing.assert_array_equal(vecs[1], [0, 0, 1])
    np.testing.assert_array_equal(vecs[-1], [1, 1, 1])
    # packing recovers the index
    np.testing.assert_array_equal(pack_bits(vecs), np.arange(8))


def test_pack_rejects_scalar():
    with pytest.raises(ValueError):
        pack_bits(np.array(1))


def test_pack_rejects_entries_other_than_0_and_1():
    # a 2 would carry into the bit above it, and a -1 set every higher bit
    for bad in ([0, 2, 1], [0, -1, 1], [[0, 1], [1, 3]], [0.5, 1.0]):
        with pytest.raises(ValueError, match="0 or 1"):
            pack_bits(np.array(bad))
    assert pack_bits(np.array([True, False, True])) == 5
    assert pack_bits(np.array([1.0, 0.0])) == 2


@given(st.integers(min_value=0, max_value=2**20 - 1), st.integers(min_value=20, max_value=24))
def test_pack_unpack_roundtrip(value, width):
    assert pack_bits(unpack_bits(value, width)) == value
