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
``FixedCount``, 0 up to the cap for ``BoundedBelowHalf``). A count-range
placement is drawn exactly, with no rejection (Chen, Dempster & Liu 1994):
first each row's count k with P(k) proportional to C(n, k), from one
uniform per row, drawn only when the range holds more than one count; then
n uniforms per row, whose k smallest mark the Byzantines.

All samplers are pure functions of the generator handed to them, so a run
is reproducible from its seed alone.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "crossover_delta",
    "UnconstrainedMaxEntropy",
    "IndependentAlpha",
    "BoundedBelowHalf",
    "FixedCount",
    "placement_law",
    "mix64",
    "sample_states_batch",
    "sample_placements_batch",
    "sample_reports_batch",
]

_MASK64 = (1 << 64) - 1


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


def sample_states_batch(rng, m, count):
    """count independent state sequences, shape (count, m) uint8."""
    if m < 1:
        raise ValueError("m must be positive")
    return (rng.random((count, m)) < 0.5).astype(np.uint8)


def sample_placements_batch(rng, model, n, count):
    """count placements, shape (count, n) uint8.

    Independent laws mark the nodes whose uniform falls below alpha. Count
    ranges draw k by inverse CDF over P(k) ∝ C(n, k), k_lo <= k <= k_hi,
    then a uniform k-subset, in the draw order the module docstring gives.
    """
    alpha, k_range = placement_law(model, n)
    if k_range is None:
        return (rng.random((count, n)) < alpha).astype(np.uint8)
    k_lo, k_hi = k_range
    if k_hi > k_lo:
        cum = list(itertools.accumulate(math.comb(n, k) for k in range(k_lo, k_hi + 1)))
        cdf = np.array([c / cum[-1] for c in cum])
        k = k_lo + np.searchsorted(cdf, rng.random(count), side="right")[:, None]
    else:
        k = k_lo
    order = np.argsort(rng.random((count, n)), axis=1)
    flags = np.empty((count, n), dtype=np.uint8)
    np.put_along_axis(flags, order, np.arange(n) < k, axis=1)
    return flags


def sample_reports_batch(rng, states, placements, eps, pmal_b):
    """Report matrices for a batch of trials, shape (count, n, m) uint8.

    states has shape (count, m), placements (count, n). Draw order is fixed:
    local decision noise for all trial/node/component triples first, then
    flip noise for all triples. Flip noise is drawn for honest nodes too and
    masked out, so consumption of the stream does not depend on the
    placements.
    """
    eps = _check_prob(eps, "eps")
    pmal_b = _check_prob(pmal_b, "pmal_b")
    states = np.asarray(states, dtype=np.uint8)
    placements = np.asarray(placements, dtype=np.uint8)
    if states.ndim != 2 or placements.ndim != 2 or states.shape[0] != placements.shape[0]:
        raise ValueError("states and placements must be 2-d with matching first axis")
    count, m = states.shape
    n = placements.shape[1]
    noise = rng.random((count, n, m)) < eps
    flips = rng.random((count, n, m)) < pmal_b
    # node flags and state bits are spread to (count, n, m) by whole-array
    # copies; a broadcast over an inner axis of only m entries is slower
    flips &= np.repeat(placements == 1, m, axis=1).reshape(count, n, m)
    noise ^= flips
    noise ^= np.tile(states == 1, n).reshape(count, n, m)
    return noise.view(np.uint8)
