import itertools
import math

import numpy as np
import pytest
from scipy import stats

from byzfusion.bits import all_bit_vectors, pack_bits
from byzfusion.fusion import BatchFuser, FusionAssumption, fuse
from byzfusion.game import Scenario, StrategyGrid, estimate_payoff_matrix
from byzfusion.model import (
    BoundedBelowHalf,
    FixedCount,
    IndependentAlpha,
    UnconstrainedMaxEntropy,
    crossover_delta,
)
from byzfusion.oracle import (
    MAX_TYPE_ROWS,
    ExactScenario,
    enumerate_placements,
    exact_error_probability,
    exact_likelihood,
    exact_map_decision,
)

# the largest odd n whose n + 1 one-bit types of n node rows fit the cap
LARGEST_ODD_N = max(n for n in range(1, 5000, 2) if (n + 1) * n <= MAX_TYPE_ROWS)
MODELS = [
    UnconstrainedMaxEntropy(),
    IndependentAlpha(0.3),
    BoundedBelowHalf(),
    FixedCount(2),
]


class TestEnumeratePlacements:
    def test_weights_sum_to_one(self):
        for model in MODELS:
            masks, weights = enumerate_placements(model, 5)
            assert weights.sum() == pytest.approx(1.0)
            assert masks.shape[1] == 5

    def test_fixed_count_support(self):
        masks, weights = enumerate_placements(FixedCount(2), 5)
        assert len(masks) == math.comb(5, 2)
        np.testing.assert_array_equal(masks.sum(axis=1), 2)
        np.testing.assert_allclose(weights, 1 / len(masks))

    def test_bounded_support(self):
        masks, _ = enumerate_placements(BoundedBelowHalf(), 6)
        assert masks.sum(axis=1).max() == 2
        assert len(masks) == sum(math.comb(6, j) for j in range(3))

    def test_independent_weights(self):
        masks, weights = enumerate_placements(IndependentAlpha(0.3), 4)
        k = masks.sum(axis=1)
        np.testing.assert_allclose(weights, 0.3**k * 0.7 ** (4 - k))

    def test_node_cap(self):
        with pytest.raises(ValueError):
            enumerate_placements(UnconstrainedMaxEntropy(), 17)


class TestExactLikelihood:
    def test_closure_over_reports(self):
        # P(r | s) sums to one over all report matrices, for every model
        n, m = 3, 2
        reports = all_bit_vectors(n * m).reshape(-1, n, m)
        s = np.array([1, 0], dtype=np.uint8)
        delta = crossover_delta(0.2, 0.7)
        for model in MODELS:
            total = sum(exact_likelihood(reports[v], s, model, 0.2, delta)
                        for v in range(len(reports)))
            assert total == pytest.approx(1.0, rel=1e-10)

    def test_matches_factorized_scores(self):
        rng = np.random.default_rng(0)
        for trial in range(100):
            n = int(rng.integers(1, 6))
            m = int(rng.integers(1, 4))
            model = MODELS[trial % 4]
            if isinstance(model, FixedCount) and model.n_b > n:
                continue
            eps = float(rng.uniform(0.02, 0.6))
            pfc = float(rng.uniform(0.0, 1.0))
            delta = crossover_delta(eps, pfc)
            r = rng.integers(0, 2, size=(n, m), dtype=np.uint8)
            s = rng.integers(0, 2, size=m, dtype=np.uint8)
            lin = exact_likelihood(r, s, model, eps, delta)
            fuser = BatchFuser(FusionAssumption(model, eps, pfc), n, m)
            live = fuser.scores(pack_bits(r)[None])[0, pack_bits(s)]
            assert math.exp(live) == pytest.approx(lin, rel=1e-11, abs=1e-300)

    def test_independent_product_form_large_n(self):
        # beyond the enumeration cap the independent model uses the product
        n, m = 20, 2
        rng = np.random.default_rng(1)
        r = rng.integers(0, 2, size=(n, m), dtype=np.uint8)
        s = np.array([0, 1], dtype=np.uint8)
        eps, delta, a = 0.1, 0.74, 0.3
        got = exact_likelihood(r, s, IndependentAlpha(a), eps, delta)
        want = 1.0
        for i in range(n):
            c = int((r[i] == s).sum())
            ph = (1 - eps) ** c * eps ** (m - c)
            pb = (1 - delta) ** c * delta ** (m - c)
            want *= (1 - a) * ph + a * pb
        assert got == pytest.approx(want, rel=1e-12)

    def test_map_decision_matches_fuse(self):
        rng = np.random.default_rng(2)
        for trial in range(60):
            n = int(rng.integers(2, 5))
            m = int(rng.integers(1, 3))
            model = MODELS[trial % 4]
            if isinstance(model, FixedCount) and model.n_b > n:
                continue
            eps = float(rng.choice([0.1, 0.3]))
            pfc = float(rng.uniform(0.5, 1.0))
            r = rng.integers(0, 2, size=(n, m), dtype=np.uint8)
            asm = FusionAssumption(model, eps, pfc)
            np.testing.assert_array_equal(
                fuse(r, asm), exact_map_decision(r, model, eps, asm.delta_fc)
            )

    def test_map_decision_tie_goes_lexicographic(self):
        # blinded center: half-and-half mixture of eps and 1-eps channels makes
        # every report equally likely under both hypotheses, so the all-zero
        # sequence wins by the lexicographic rule
        r = np.array([[1], [0], [1]], dtype=np.uint8)
        dec = exact_map_decision(r, UnconstrainedMaxEntropy(), 0.1, 0.9)
        np.testing.assert_array_equal(dec, [0])


class TestExactErrorProbability:
    def scenario(self, **kw):
        base = dict(
            n=3, m=2, eps=0.1, pmal_b=0.8, pmal_fc=0.8,
            true_model=FixedCount(1), fc_model=FixedCount(1),
        )
        base.update(kw)
        return ExactScenario(**base)

    def test_range_and_metric_order(self):
        sc = self.scenario()
        bit = exact_error_probability(sc, metric="per-component")
        seq = exact_error_probability(sc, metric="per-sequence")
        assert 0.0 < bit < 0.5
        assert bit <= seq <= 1.0

    def test_blinded_center_is_coin_flip(self):
        # n=16 sums 2**16 placements for each of 2**16 report matrices
        for n in (4, 16):
            sc = ExactScenario(
                n=n, m=1, eps=0.1, pmal_b=1.0, pmal_fc=1.0,
                true_model=UnconstrainedMaxEntropy(), fc_model=UnconstrainedMaxEntropy(),
            )
            assert exact_error_probability(sc) == pytest.approx(0.5, abs=1e-12)

    @pytest.mark.parametrize("n, m", [(6, 1), (3, 2), (2, 3), (4, 2), (8, 1), (2, 4)])
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_matches_brute_force(self, n, m, model):
        # every (report matrix, state) pair weighted by its own exact_likelihood:
        # no grouping by report type and no multiplicities
        sc = ExactScenario(n=n, m=m, eps=0.1, pmal_b=0.9, pmal_fc=0.7,
                           true_model=model, fc_model=model)
        want = {"per-component": 0.0, "per-sequence": 0.0}
        for r in all_bit_vectors(n * m).reshape(-1, n, m):
            decision = fuse(r, sc.assumption)
            for s in all_bit_vectors(m):
                p = 0.5**m * exact_likelihood(r, s, model, sc.eps, sc.delta_b)
                want["per-component"] += p * (decision != s).mean()
                want["per-sequence"] += p * (decision != s).any()
        for metric, value in want.items():
            assert exact_error_probability(sc, metric) == pytest.approx(value, rel=1e-12)

    def test_no_byzantines_matches_repetition_code(self):
        # fixed count zero: n independent looks at each bit, MAP is majority
        sc = ExactScenario(
            n=3, m=1, eps=0.2, pmal_b=0.9, pmal_fc=0.9,
            true_model=FixedCount(0), fc_model=FixedCount(0),
        )
        e = 0.2
        want = e**3 + 3 * e**2 * (1 - e)
        assert exact_error_probability(sc) == pytest.approx(want, rel=1e-10)

    def test_more_voters_help(self):
        pe3 = exact_error_probability(self.scenario(n=3))
        pe5 = exact_error_probability(self.scenario(
            n=5, true_model=FixedCount(1), fc_model=FixedCount(1)))
        assert pe5 < pe3

    @pytest.mark.parametrize("n", [101, LARGEST_ODD_N])
    def test_one_bit_matches_binomial_tail(self, n):
        # each node flips the bit independently with probability q, and at odd
        # n the matched MAP rule is majority, which errs when over n/2 flip
        model = IndependentAlpha(0.3)
        sc = ExactScenario(n=n, m=1, eps=0.3, pmal_b=1.0, pmal_fc=1.0,
                           true_model=model, fc_model=model)
        q = 0.7 * sc.eps + 0.3 * sc.delta_b
        assert exact_error_probability(sc) == pytest.approx(stats.binom.sf(n // 2, n, q),
                                                            rel=1e-9)

    def test_size_guard(self):
        # at m = 1 there are n + 1 types of n node rows each; one node past the
        # largest odd n they fit the cap
        n = LARGEST_ODD_N + 1
        assert (n + 1) * n > MAX_TYPE_ROWS
        sc = ExactScenario(
            n=n, m=1, eps=0.1, pmal_b=0.8, pmal_fc=0.8,
            true_model=IndependentAlpha(0.3), fc_model=IndependentAlpha(0.3),
        )
        with pytest.raises(ValueError, match="MAX_TYPE_ROWS"):
            exact_error_probability(sc)
        # 2**13 types of one node row pass the type cap, but m = 13 exceeds the
        # decoder's cap
        sc = ExactScenario(
            n=1, m=13, eps=0.1, pmal_b=0.8, pmal_fc=0.8,
            true_model=FixedCount(0), fc_model=FixedCount(0),
        )
        with pytest.raises(ValueError):
            exact_error_probability(sc)

    def test_metric_name_guard(self):
        with pytest.raises(ValueError):
            exact_error_probability(self.scenario(), metric="bits")

    def test_mismatched_assumption_never_beats_matched(self):
        # sequence MAP with the true parameters minimizes the sequence error
        matched = exact_error_probability(self.scenario(pmal_fc=0.8), metric="per-sequence")
        for wrong in (0.5, 0.6, 1.0):
            mismatched = exact_error_probability(
                self.scenario(pmal_fc=wrong), metric="per-sequence")
            assert matched <= mismatched + 1e-12


@pytest.mark.parametrize("n, model", [(20, IndependentAlpha(0.3)), (16, FixedCount(4))],
                         ids=["independent-20", "fixed4-16"])
def test_monte_carlo_matches_exact_at_the_papers_n(n, model):
    # each cell's count of wrong sequences is Binomial(trials, exact value);
    # independent priors at n = 20 take the placement sum's product form
    trials = 2000
    grid = StrategyGrid()
    pm = estimate_payoff_matrix(Scenario(n, 2, 0.1, model, model), grid, grid, trials=trials,
                                seed=5, metric="per-sequence")
    for (i, pb), (j, pfc) in itertools.product(enumerate(grid.values), repeat=2):
        exact = exact_error_probability(ExactScenario(n, 2, 0.1, pb, pfc, model, model),
                                        "per-sequence")
        errors = round(pm.pe_sequence[i, j] * trials)
        assert stats.binomtest(errors, trials, exact).pvalue >= 1e-6, (pb, pfc, errors, exact)


def test_scenario_validation():
    with pytest.raises(ValueError):
        ExactScenario(n=3, m=2, eps=1.5, pmal_b=0.5, pmal_fc=0.5,
                      true_model=FixedCount(1), fc_model=FixedCount(1))
    with pytest.raises(ValueError):
        ExactScenario(n=3, m=2, eps=0.1, pmal_b=0.5, pmal_fc=0.5,
                      true_model=FixedCount(4), fc_model=FixedCount(1))
    # checked as Scenario checks it, before any enumeration divides by m
    for m in (0, -1):
        with pytest.raises(ValueError, match="m must be positive"):
            ExactScenario(n=3, m=m, eps=0.1, pmal_b=0.5, pmal_fc=0.5,
                          true_model=FixedCount(1), fc_model=FixedCount(1))
