"""Network model: binary states, Byzantine placements, noisy reports.

A network of n nodes observes a sequence of m binary state components.
Each node decides every component locally with error probability eps and
reports its decisions to a fusion center. Honest nodes report their local
decisions as they are; Byzantine nodes flip each reported bit independently
with probability pmal. From the fusion center's point of view a Byzantine
report bit therefore differs from the true state with the crossover
probability delta = eps * (1 - pmal) + (1 - eps) * pmal.

Which nodes are Byzantine is drawn from one of four placement models:

* ``UnconstrainedMaxEntropy``: every node is Byzantine independently with
  probability one half (the max-entropy distribution over placements).
* ``IndependentAlpha``: every node independently with probability alpha.
* ``BoundedBelowHalf``: uniform over placements where Byzantines are a
  strict minority (popcount < n/2), or at most ``k_max`` of them.
* ``FixedCount``: uniform over placements with exactly ``n_b`` Byzantines.

These are two placement laws, and :func:`placement_law` is the one place
that tells them apart: either each node is Byzantine independently with
probability alpha, or the placement is uniform over the placements whose
Byzantine count k lies in a range [k_lo, k_hi] (one count for
``FixedCount``, 0 up to the cap for ``BoundedBelowHalf``).

Given the state s, an honest node reports v with probability
pi_h(v ^ s) = (1 - eps)^(m - d) eps^d, d = popcount(v ^ s), and a Byzantine
node with pi_b, which has delta in place of eps. Every prior treats the
nodes alike and every decoder sees only the multiset of node rows, so which
nodes are Byzantine is never observable, and :func:`sample_rows` draws no
placement. Under an independent law each row comes from the mixture
(1 - alpha) pi_h + alpha pi_b. Under a count range nodes 0..k-1 are
Byzantine, with k = n_b for ``FixedCount`` and otherwise P(k) proportional
to C(n, k), the count law of a uniform placement (Chen, Dempster & Liu
1994). Each row is one inverse-CDF draw over the 2**m error patterns, XOR
s, and each draw is one guide-table lookup, exact: it returns what a binary
search of the CDF returns (indexed search; Chen & Asau, AIIE Trans. 6,
1974; Devroye 1986, sec. III.2.4). Draw order: every trial's state, then k
where the range holds more than one count, then the (count, n) uniforms in
row order. :func:`stream_rows` draws the uniforms, and searches them, a
chunk of trials at a time into the buffers it is given: the generator's
stream is sequential, so any chunk size gives the same rows. The payoff
game streams its rows through buffers kept per thread (``scratch.KEPT``),
and :func:`sample_rows` draws one chunk of fresh arrays and keeps none.

The sampler is a pure function of the generator handed to it, so a run is
reproducible from its seed alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .scratch import FRESH

__all__ = [
    "crossover_delta",
    "UnconstrainedMaxEntropy",
    "IndependentAlpha",
    "BoundedBelowHalf",
    "FixedCount",
    "placement_law",
    "mix64",
    "sample_rows",
    "stream_rows",
]

_MASK64 = (1 << 64) - 1
# log2 of the guide table's buckets per unit of CDF
_GUIDE_BITS = 10


def _check_prob(value, name):
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


def crossover_delta(eps, pmal):
    """Probability that a flipping node's report bit disagrees with the state."""
    eps = _check_prob(eps, "eps")
    pmal = _check_prob(pmal, "pmal")
    return eps * (1.0 - pmal) + (1.0 - eps) * pmal


@dataclass(frozen=True)
class UnconstrainedMaxEntropy:
    """Each node Byzantine independently with probability 1/2."""


@dataclass(frozen=True)
class IndependentAlpha:
    """Each node Byzantine independently with probability alpha."""

    alpha: float

    def __post_init__(self):
        _check_prob(self.alpha, "alpha")


@dataclass(frozen=True)
class BoundedBelowHalf:
    """Uniform over placements whose Byzantine count is a strict minority.

    The default bound keeps popcount(a) < n/2, i.e. at most (n - 1) // 2
    Byzantines. Passing ``k_max`` substitutes a different inclusive cap.
    """

    k_max: int | None = None

    def __post_init__(self):
        if self.k_max is not None and self.k_max < 0:
            raise ValueError("k_max must be nonnegative")


@dataclass(frozen=True)
class FixedCount:
    """Uniform over the (n choose n_b) placements with exactly n_b Byzantines."""

    n_b: int

    def __post_init__(self):
        if self.n_b < 0:
            raise ValueError("n_b must be nonnegative")


def placement_law(model, n):
    """The placement law of `model` on n nodes: (alpha, None) or (None, (k_lo, k_hi)).

    (alpha, None): each node is Byzantine independently with probability
    alpha. (None, (k_lo, k_hi)): uniform over the placements whose Byzantine
    count lies in [k_lo, k_hi]. Raises ValueError if the model cannot apply
    to an n-node network (a count above n) and TypeError for an unknown model.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if isinstance(model, UnconstrainedMaxEntropy):
        return 0.5, None
    if isinstance(model, IndependentAlpha):
        return model.alpha, None
    if isinstance(model, FixedCount):
        k_range = (model.n_b, model.n_b)
    elif isinstance(model, BoundedBelowHalf):
        k_range = (0, (n - 1) // 2 if model.k_max is None else model.k_max)
    else:
        raise TypeError(f"unknown Byzantine model {model!r}")
    if k_range[1] > n:
        raise ValueError(f"Byzantine count {k_range[1]} exceeds network size {n}")
    return None, k_range


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def mix64(seed, *indices):
    """Deterministic 64-bit hash of a seed and an index path.

    Chained splitmix64 rounds. Used to derive substream seeds so work units
    (payoff matrix rows, mainly) can run in any order or in parallel without
    changing their draws.
    """
    h = _splitmix64(int(seed) & _MASK64)
    for v in indices:
        h = _splitmix64(h ^ (int(v) & _MASK64))
    return h


def _pattern_cdf(pmf):
    # cumulative sums ending at exactly 1.0, so that no uniform below 1 runs
    # past the table and a trailing value of probability 0 is never drawn
    cum = np.cumsum(pmf)
    return cum / cum[-1]


def _search(cdf, u, scratch):
    """``np.searchsorted(cdf, u, side="right")`` for u in [0, ceil(cdf[-1])), by guide table.

    An exact indexed search (Chen & Asau 1974; Devroye 1986, sec. III.2.4).
    The range is cut into buckets of width 2**-B, B = _GUIDE_BITS, and bucket
    b keeps the count of entries below (b + 1) / 2**B. Every u in the bucket
    has that many entries at or below it, unless an entry lies strictly
    inside the bucket; such buckets are marked -1, and only their draws are
    searched. Scaling by 2**B is exact. u is scaled in place, and the result
    is `scratch`'s ``found`` slot, which ``KEPT`` reuses at the next search.
    """
    scale = 2.0**_GUIDE_BITS
    buckets = int(np.ceil(cdf[-1])) << _GUIDE_BITS
    scaled = cdf * scale
    # entry c lies below (b + 1) / 2**B iff floor(c * 2**B) <= b, and
    # strictly inside that bucket iff c * 2**B is not whole as well
    floor = np.floor(scaled)
    table = np.cumsum(np.bincount(floor.astype(np.intp), minlength=buckets + 1)[:buckets])
    table[floor[floor != scaled].astype(np.intp)] = -1
    u *= scale
    # each bucket index is read before its own slot is written, so the
    # lookup can land in the index array; every index is in range, and
    # mode="clip" keeps take from buffering its output
    found = scratch.take("found", u.shape, np.intp)
    np.copyto(found, u, casting="unsafe")
    table.take(found, out=found, mode="clip")
    slow = np.flatnonzero(np.less(found, 0, out=scratch.take("mask", u.shape, bool)))
    found.reshape(-1)[slow] = np.searchsorted(cdf, u.reshape(-1)[slow] / scale, side="right")
    return found


def sample_rows(rng, model, n, m, eps, pmal_b, count):
    """count trials of one network, packed as ``bits.pack_bits`` packs: (states, rows).

    states has shape (count,) and rows (count, n), both int64 and new, drawn
    as the module docstring says: :func:`stream_rows` in one fresh chunk.
    """
    states, chunks = stream_rows(rng, model, n, m, eps, pmal_b, count, max(count, 1), FRESH)
    _, rows = next(chunks)
    return states, rows


def stream_rows(rng, model, n, m, eps, pmal_b, count, step, scratch):
    """(states, chunks): :func:`sample_rows`' draws, node rows `step` trials at a time.

    Every trial's state, then every trial's Byzantine count where the range
    holds more than one, are drawn at once. ``chunks`` then yields (trials,
    rows) for consecutive slices of at most `step` trials, drawing each
    chunk's uniforms as it goes. The generator's stream is sequential, so the
    draws are the same at any `step`. Its work arrays, and rows (t, n) int64,
    come from `scratch`; from ``KEPT``, rows are valid until the next chunk.
    The Byzantines' uniforms are shifted up by 1 into the flipped channel's
    CDF, which follows the honest one in one table.
    """
    if m < 1:
        raise ValueError("m must be positive")
    alpha, k_range = placement_law(model, n)
    delta = crossover_delta(eps, pmal_b)
    d = np.bitwise_count(np.arange(2**m))  # errors in each error pattern
    honest = (1.0 - eps) ** (m - d) * eps**d
    flipped = (1.0 - delta) ** (m - d) * delta**d
    states = rng.integers(2**m, size=count)
    # at least one block, so that sample_rows gets a chunk even for count 0
    blocks = [slice(start, start + step) for start in range(0, max(count, 1), step)]
    if k_range is None:
        cdf, k = _pattern_cdf((1.0 - alpha) * honest + alpha * flipped), None
    else:
        k_lo, k_hi = k_range
        k = k_lo
        if k_hi > k_lo:
            cum = list(itertools.accumulate(math.comb(n, j) for j in range(k_lo, k_hi + 1)))
            k_cdf = np.array([c / cum[-1] for c in cum])
            k = np.empty((count, 1), dtype=np.intp)
            for block in blocks:
                u = rng.random(out=scratch.take("nodes", k[block, 0].shape, np.float64))
                k[block, 0] = _search(k_cdf, u, scratch)
            k += k_lo
        cdf = np.concatenate([_pattern_cdf(honest), 1.0 + _pattern_cdf(flipped)])
    return states, _node_rows(rng, cdf, states, k, n, m, blocks, scratch)


def _node_rows(rng, cdf, states, k, n, m, blocks, scratch):
    # stream_rows' chunks: nodes 0..k-1 of a trial are Byzantine, or none
    # where k is None (an independent law's mixture CDF)
    for block in blocks:
        shape = (states[block].shape[0], n)
        u = rng.random(out=scratch.take("nodes", shape, np.float64))
        if k is not None:
            byzantine = k[block] if isinstance(k, np.ndarray) else k
            u += np.less(np.arange(n), byzantine, out=scratch.take("mask", shape, bool))
            # 1 + u rounds to 2.0 for u = 1 - 2**-53; below 2.0 the search
            # stops at the first table entry that reaches 2.0, a value of
            # probability > 0
            np.minimum(u, np.nextafter(2.0, 0.0), out=u)
        # the uniforms are spent once searched, so their slot takes the rows
        found = _search(cdf, u, scratch)
        rows = np.bitwise_and(found, 2**m - 1, out=scratch.take("nodes", shape, np.int64))
        rows ^= states[block, None]
        yield block, rows
