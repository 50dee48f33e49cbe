"""Exhaustive-enumeration references for desk-size problem instances.

Likelihoods and MAP decisions here trade speed for being obviously
correct: they sum placement by placement in the linear domain and share no
code with the decoder, so they are the independent reference that the
type-class scoring of :mod:`byzfusion.fusion` is checked against. Error
probabilities decode every report matrix with that decoder (one
``decide_columns`` call) and weight each decision exactly, which validates
the Monte Carlo estimates on instances small enough to enumerate.

All three rest on one placement sum over rows of per-node mismatch counts.
Every prior is symmetric in the nodes, so error probabilities sum placements
once per multiset of those counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bits import all_bit_vectors, popcount
from .fusion import BatchFuser, FusionAssumption, argmax_lex, decide_columns
from .game import METRICS
from .model import crossover_delta, placement_law

__all__ = [
    "MAX_ENUM_NODES",
    "MAX_REPORT_BITS",
    "ExactScenario",
    "enumerate_placements",
    "exact_likelihood",
    "exact_map_decision",
    "exact_error_probability",
]

MAX_ENUM_NODES = 16
MAX_REPORT_BITS = 18


@dataclass(frozen=True)
class ExactScenario:
    """Fully specified small instance: true model and assumed model may differ."""

    n: int
    m: int
    eps: float
    pmal_b: float
    pmal_fc: float
    true_model: object
    fc_model: object

    def __post_init__(self):
        placement_law(self.true_model, self.n)
        placement_law(self.fc_model, self.n)
        for name in ("eps", "pmal_b", "pmal_fc"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")

    @property
    def delta_b(self):
        return crossover_delta(self.eps, self.pmal_b)

    @property
    def assumption(self):
        return FusionAssumption(self.fc_model, self.eps, self.pmal_fc)


def enumerate_placements(model, n):
    """All placements with their probabilities: (masks (M, n) uint8, weights (M,)).

    Weights sum to one. Capped at MAX_ENUM_NODES nodes.
    """
    alpha, k_range = placement_law(model, n)
    if n > MAX_ENUM_NODES:
        raise ValueError(f"n={n} exceeds the enumeration cap {MAX_ENUM_NODES}")
    masks = all_bit_vectors(n)
    counts = masks.sum(axis=1)
    if k_range is None:
        return masks, alpha**counts * (1.0 - alpha) ** (n - counts)
    masks = masks[(counts >= k_range[0]) & (counts <= k_range[1])]
    return masks, np.full(len(masks), 1.0 / len(masks))


def _placement_sum(mism, model, eps, delta, m):
    """P(r | s) for each row of per-node mismatch counts mism (rows, n), linear domain.

    Node i's report differs from the states in mism[t, i] of the m bits.
    """
    n = mism.shape[1]
    # a node's report probability through the honest and the flipped channel
    d = np.arange(m + 1, dtype=np.float64)
    ph = ((1.0 - eps) ** (m - d) * eps**d)[mism]
    pb = ((1.0 - delta) ** (m - d) * delta**d)[mism]
    alpha, k_range = placement_law(model, n)
    if k_range is None and n > MAX_ENUM_NODES:
        return ((1.0 - alpha) * ph + alpha * pb).prod(axis=1)
    masks, weights = enumerate_placements(model, n)
    probs = np.ones((len(mism), len(masks)))
    for i, byzantine in enumerate(masks.T == 1):
        probs *= np.where(byzantine, pb[:, i, None], ph[:, i, None])
    return probs @ weights


def exact_likelihood(reports, states, model, eps, delta):
    """P(r | s) by direct summation over placements, linear domain.

    Independent priors on more than MAX_ENUM_NODES nodes use the product form.
    """
    reports = np.asarray(reports, dtype=np.uint8)
    states = np.asarray(states, dtype=np.uint8)
    if reports.ndim != 2 or states.ndim != 1 or reports.shape[1] != states.shape[0]:
        raise ValueError("reports must be (n, m) and states (m,)")
    mism = (reports != states).sum(axis=1)
    return float(_placement_sum(mism[None], model, eps, delta, reports.shape[1])[0])


def exact_map_decision(reports, model, eps, delta):
    """Arg-max of exact_likelihood over all state hypotheses, same tie rule as fuse."""
    reports = np.asarray(reports, dtype=np.uint8)
    if reports.ndim != 2:
        raise ValueError("reports must be (n, m)")
    m = reports.shape[1]
    hypotheses = all_bit_vectors(m)
    mism = (reports[None] != hypotheses[:, None]).sum(axis=2)
    with np.errstate(divide="ignore"):
        likes = np.log(_placement_sum(mism, model, eps, delta, m))
    return hypotheses[argmax_lex(likes)].copy()


def exact_error_probability(scenario, metric="per-component"):
    """Exact expected decision error of the MAP rule, no sampling.

    Enumerates state sequences and report matrices, so n*m is capped at
    MAX_REPORT_BITS bits, and m at BatchFuser.MAX_M. Every prior gives
    P(r | s) = P(r xor s | 0), so placements are summed once per multiset of
    per-node mismatch counts at state 0, and each state reads its
    likelihoods from those by index. `metric` selects the per-component bit
    error rate or the whole-sequence error rate.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    n, m = scenario.n, scenario.m
    if n * m > MAX_REPORT_BITS:
        raise ValueError(f"n*m={n*m} exceeds the enumeration cap {MAX_REPORT_BITS}")
    # the packed node rows of every report matrix: matrix i holds its n rows
    # as m-bit fields of i, node 0 in the most significant one
    rows = (np.arange(2 ** (n * m))[:, None] >> (m * np.arange(n - 1, -1, -1))) & (2**m - 1)
    decisions = decide_columns([BatchFuser(scenario.assumption, n, m)], rows)[0]
    mism = popcount(rows)
    key = ((n + 1) ** mism).sum(axis=1)  # count histogram, base n + 1 digits (each <= n)
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    like0 = _placement_sum(mism[first], scenario.true_model, scenario.eps, scenario.delta_b, m)
    like0 = like0[group]
    # XOR-ing every row of matrix i with the state s XORs i with s * rep
    rep = sum(1 << (m * i) for i in range(n))
    index = np.arange(len(rows))
    # the error of deciding d in state s, looked up by d ^ s
    diff = np.arange(2**m)
    err = popcount(diff) / m if metric == "per-component" else (diff != 0).astype(np.float64)
    total = 0.0
    for state_int in range(2**m):
        total += 0.5**m * float(like0[index ^ (state_int * rep)] @ err[decisions ^ state_int])
    return total
