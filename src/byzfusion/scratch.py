"""Work arrays for the Monte Carlo row pipeline, kept per thread between chunks.

A payoff row is drawn and decoded a chunk of trials at a time, and each
chunk needs the same dozen large arrays as the last. Allocated fresh, they
are handed back to the kernel when the allocator trims its heap, and the
next chunk pays a page fault for every page again. ``KEPT`` keeps one byte
buffer per named slot in each thread instead, grown to the largest size
asked so far and never shrunk, and hands out views of it. ``FRESH`` has the
same ``take`` and returns a new array each time; callers whose arrays
outlive the call (``fusion.fuse``, ``BatchFuser.scores``, the oracle and
``model.sample_rows``) take every work array from it, and keep nothing.

A view of a kept slot is valid until the next ``take`` of that slot in the
same thread, so arrays share a slot only where their lifetimes do not
overlap. Only arrays that die within a payoff row live in a slot; nothing a
public call returns does. The slots, per chunk of t trials on n nodes and
2**m hypotheses, each array in the order it is taken:

* ``nodes`` (t, n): the chunk's uniforms, then its report rows, which live
  until every column has decoded the chunk (``model.stream_rows``);
* ``found`` (t, n): the guide-table search's indices (``model._search``, in
  ``stream_rows``' scratch), then ``TypeClasses``' count index;
* ``mask``, one byte an entry: the Byzantine nodes, then the draws the guide
  table leaves to a full search, then, on a sorted chunk, the cells where a
  type starts in key order (``fusion._sorted_types``), then, on the bound
  route, each bounding column's cells near their trial's score in turn;
* ``cells_f``, ``cells_g``, ``cells_i`` (2**m, t), times the key words:
  ``TypeClasses``' row counts (or node-by-node key sums), float keys (or
  one node's key rows) and keys. On a sorted chunk whose keys pack with
  the cell index, ``cells_g`` then holds the packed values, sorted in
  place, then each sorted cell's index; on any sorted chunk ``cells_f``
  holds the keys in sorted order, ``cells_i`` each sorted cell's type, and
  ``cells_g`` a spare row for splitting the distinct keys into digits.
  Then ``cells_f`` holds
  ``TypeClasses.inverse`` through every column's decode, and ``cells_g``
  on the bound route each bounding column's cell bounds in turn, twice
  over (for the lead types, then for the cells near them), then each
  column's gathered scores;
* ``hist`` and ``float_hist`` (types, m + 1), on a sorted chunk: first the
  distinct keys (words, types) and their digits H[0..m] as rows
  (m + 1, types), then ``TypeClasses.hist`` and ``float_hist``, which live
  through every column's decode;
* ``bounds`` and ``scores`` (columns, types), on the bound route: each count
  range's type bounds in turn (``fusion._type_bounds``), and every bounding
  column's type scores, which live through the columns' decodes;
* ``decisions`` (columns, t): ``fusion.decide_columns``' result.

Every slot is sized by a chunk (``fusion.chunk_trials``), never by a row, so
what a thread keeps does not grow with the trial count. A cell slot holds
at most 8 bytes per key word and per one of ``fusion._CHUNK_CELLS`` cells;
``hist`` and ``float_hist`` 8 (m + 1) bytes, and ``bounds`` and ``scores`` 8
bytes per column, per type of a chunk, which has at most one type a cell.
Measured at n = 20, m = 8 in a fresh thread: after a ``bounded-m8`` pass
(100-trial chunks, about 12,000 types each) it keeps 3.6 MiB, 3.0 of them
in the four per-type slots; after a fixed:6 matrix of 50,000 trials a row
(819-trial chunks, up to about 45,000 types) 15.7 MiB, 10.4 of them
per-type.
``decisions`` has a slot of its own, so ``decide_columns`` stays correct on
a batch of several chunks even from ``KEPT``.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = ["KEPT", "FRESH"]


class _Kept(threading.local):
    """One growing byte buffer per slot name, separate in every thread."""

    def __init__(self):
        self.slots = {}

    def take(self, slot, shape, dtype):
        """An uninitialized array of `shape` and `dtype` in `slot`'s buffer."""
        nbytes = math.prod(shape) * np.dtype(dtype).itemsize
        buf = self.slots.get(slot)
        if buf is None or buf.shape[0] < nbytes:
            buf = self.slots[slot] = np.empty(nbytes, dtype=np.uint8)
        return np.ndarray(shape, dtype, buf)


class _Fresh:
    """``take`` without keeping: a new uninitialized array every call."""

    @staticmethod
    def take(slot, shape, dtype):
        return np.empty(shape, dtype)


KEPT = _Kept()
FRESH = _Fresh()
