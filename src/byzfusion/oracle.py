"""Exhaustive-enumeration references for desk-size problem instances.

Likelihoods and MAP decisions sum placement by placement (one placement sum
over rows of per-node mismatch counts) and share only the tie rule
``argmax_lex`` with :mod:`byzfusion.fusion`, the decoder they check.

Error probabilities weight the decoder's decisions exactly, one report type
(multiset of node rows) at a time. The decoder's ``TypeClasses`` give its
decisions and each type's match-count histogram under every state; the
placement sum, not the decoder's scores, gives each histogram's likelihood.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .bits import all_bit_vectors
from .fusion import BatchFuser, FusionAssumption, TypeClasses, argmax_lex
from .game import METRICS, Scenario, trial_errors
from .model import crossover_delta, placement_law

__all__ = [
    "MAX_ENUM_NODES",
    "MAX_TYPE_ROWS",
    "ExactScenario",
    "enumerate_placements",
    "exact_likelihood",
    "exact_map_decision",
    "exact_error_probability",
]

MAX_ENUM_NODES = 16
MAX_TYPE_ROWS = 18 * 2**18  # caps types * n; admits every shape with n * m <= 18
_BLOCK_CELLS = 1 << 17  # (row, placement) or (type, node, state) cells held at once


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
        Scenario(self.n, self.m, self.eps, self.true_model, self.fc_model)
        for name in ("pmal_b", "pmal_fc"):
            if not 0.0 <= getattr(self, name) <= 1.0:
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
    """log P(r | s) for each row of per-node mismatch counts mism (rows, n).

    Placements are summed linearly, _BLOCK_CELLS at a time; the product
    form of independent priors on more than MAX_ENUM_NODES nodes in logs.
    """
    n = mism.shape[1]
    # a node's report probability through the honest and the flipped channel
    d = np.arange(m + 1, dtype=np.float64)
    ph, pb = ((1.0 - p) ** (m - d) * p**d for p in (eps, delta))
    alpha, k_range = placement_law(model, n)
    with np.errstate(divide="ignore"):
        if k_range is None and n > MAX_ENUM_NODES:
            return np.log((1.0 - alpha) * ph + alpha * pb)[mism].sum(axis=1)
        masks, weights = enumerate_placements(model, n)
        step = max(1, _BLOCK_CELLS // len(masks))
        like = []
        for part in (mism[i:i + step] for i in range(0, len(mism), step)):
            probs = np.ones((len(part), len(masks)))
            for byzantine, b, h in zip(masks.T == 1, pb[part].T, ph[part].T):
                probs *= np.where(byzantine, b[:, None], h[:, None])
            like.append(probs @ weights)
        return np.log(np.concatenate(like))


def exact_likelihood(reports, states, model, eps, delta):
    """P(r | s) by direct summation over placements.

    Independent priors on more than MAX_ENUM_NODES nodes use the product form.
    """
    reports = np.asarray(reports, dtype=np.uint8)
    states = np.asarray(states, dtype=np.uint8)
    if reports.ndim != 2 or states.ndim != 1 or reports.shape[1] != states.shape[0]:
        raise ValueError("reports must be (n, m) and states (m,)")
    mism = (reports != states).sum(axis=1)
    return math.exp(_placement_sum(mism[None], model, eps, delta, reports.shape[1])[0])


def exact_map_decision(reports, model, eps, delta):
    """Arg-max of exact_likelihood over all state hypotheses, same tie rule as fuse."""
    reports = np.asarray(reports, dtype=np.uint8)
    if reports.ndim != 2:
        raise ValueError("reports must be (n, m)")
    m = reports.shape[1]
    hypotheses = all_bit_vectors(m)
    mism = (reports[None] != hypotheses[:, None]).sum(axis=2)
    return hypotheses[argmax_lex(_placement_sum(mism, model, eps, delta, m))].copy()


def exact_error_probability(scenario, metric="per-component"):
    """Exact expected decision error of the MAP rule, no sampling.

    Sums over the C(n + 2**m - 1, n) report types, each weighted by the n! /
    prod_v N_v! matrices it stands for (N_v nodes report v), with types * n
    capped at MAX_TYPE_ROWS. `metric` selects the bit or the sequence error.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    n, m = scenario.n, scenario.m
    fuser = BatchFuser(scenario.assumption, n, m)
    n_types = math.comb(n + 2**m - 1, n)
    if n_types * n > MAX_TYPE_ROWS:
        raise ValueError(f"{n_types} types x {n} node rows exceed MAX_TYPE_ROWS={MAX_TYPE_ROWS}")
    rows = itertools.chain.from_iterable(itertools.combinations_with_replacement(range(2**m), n))
    # log P(r | s) of every class, a multiset of n per-node match counts, by its H[1..m]
    counts = itertools.chain.from_iterable(itertools.combinations_with_replacement(range(m + 1), n))
    counts = np.fromiter(counts, np.int64).reshape(-1, n)
    place = (n + 1) ** np.arange(m)
    like = np.empty((n + 1) ** m)
    like[(counts[:, :, None] == np.arange(1, m + 1)).sum(axis=1) @ place] = _placement_sum(
        m - counts, scenario.true_model, scenario.eps, scenario.delta_b, m)
    # the error of deciding d in state s, looked up by d ^ s
    diff = np.arange(2**m)
    err = trial_errors(diff, m)[METRICS.index(metric)]
    step = max(1, _BLOCK_CELLS // (n * 2**m))
    total = 0.0
    for start in range(0, n_types, step):
        types = np.fromiter(rows, np.int64, min(step, n_types - start) * n).reshape(-1, n)
        # node i > 0 is the run[i - 1]-th of its run of equal rows: prod_v N_v! = prod run
        starts = np.where(types[:, 1:] != types[:, :-1], np.arange(1, n), 0)
        run = np.arange(2, n + 1) - np.maximum.accumulate(starts, axis=1)
        classes = TypeClasses(types, n, m)
        # cell (s, t) of classes.inverse is type t's class against state s
        weight = like[classes.hist[:, 1:] @ place][classes.inverse]
        weight += math.lgamma(n + 1) - np.log(run).sum(axis=1)
        np.exp(weight, out=weight)
        weight *= err[fuser.decide_ints(classes) ^ diff[:, None]]
        total += float(weight.sum())
    return 0.5**m * total
