"""Optimum decision fusion with Byzantine reporters.

A fusion center collects noisy binary reports from a network containing an
unknown subset of adversarial nodes and decodes the underlying state
sequence by joint MAP scoring. The package covers four priors on the
adversarial subset, a polynomial-time subset-sum recursion that makes the
coupled priors tractable, exhaustive small-instance references, and a
Monte Carlo zero-sum game between the adversaries' and the decoder's flip
probabilities.
"""

__version__ = "0.1.0"

from .model import (
    BoundedBelowHalf,
    FixedCount,
    IndependentAlpha,
    UnconstrainedMaxEntropy,
    crossover_delta,
)
from .fusion import BatchFuser, FusionAssumption, fuse
from .game import (
    MAJORITY_VOTE,
    Equilibrium,
    PayoffMatrix,
    Scenario,
    StrategyGrid,
    estimate_payoff_and_majority,
    estimate_payoff_matrix,
    saddle_points_within_noise,
    solve_mixed,
)
from .oracle import ExactScenario, exact_error_probability

__all__ = [
    "__version__",
    "BoundedBelowHalf",
    "FixedCount",
    "IndependentAlpha",
    "UnconstrainedMaxEntropy",
    "crossover_delta",
    "BatchFuser",
    "FusionAssumption",
    "fuse",
    "MAJORITY_VOTE",
    "Equilibrium",
    "PayoffMatrix",
    "Scenario",
    "StrategyGrid",
    "estimate_payoff_and_majority",
    "estimate_payoff_matrix",
    "saddle_points_within_noise",
    "solve_mixed",
    "ExactScenario",
    "exact_error_probability",
]
