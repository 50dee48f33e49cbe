"""Packing helpers for binary vectors.

Bit vectors are mapped to integers with the first component as the most
significant bit, so ascending integer order equals lexicographic order on
the vectors. Everything here works elementwise on numpy arrays.
"""

import numpy as np

__all__ = ["pack_bits", "unpack_bits", "all_bit_vectors"]


def pack_bits(bits):
    """Collapse the last axis of a 0/1 array into integers (first bit = MSB).

    Any other entry is a ValueError: a 2 would carry into the next bit.
    """
    bits = np.asarray(bits)
    if bits.ndim == 0:
        raise ValueError("need at least one axis of bits")
    if ((bits != 0) & (bits != 1)).any():
        raise ValueError("bits must be 0 or 1")
    out = np.zeros(bits.shape[:-1], dtype=np.int64)
    for j in range(bits.shape[-1]):
        out = (out << 1) | bits[..., j].astype(np.int64)
    return out


def unpack_bits(values, width):
    """Inverse of pack_bits: append an axis of `width` bits, MSB first."""
    if width < 0:
        raise ValueError("width must be nonnegative")
    values = np.asarray(values, dtype=np.int64)
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((values[..., None] >> shifts) & 1).astype(np.uint8)


def all_bit_vectors(width):
    """All 2**width binary vectors in lexicographic order, shape (2**width, width)."""
    return unpack_bits(np.arange(2**width), width)
