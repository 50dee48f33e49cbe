import math

import numpy as np
import pytest
from scipy.stats import chisquare

from byzfusion.bits import pack_bits
from byzfusion.fusion import BatchFuser, FusionAssumption
from byzfusion.model import (
    BoundedBelowHalf,
    FixedCount,
    IndependentAlpha,
    UnconstrainedMaxEntropy,
    crossover_delta,
    mix64,
    placement_law,
    sample_placements_batch,
    sample_reports_batch,
    sample_states_batch,
)
from byzfusion.oracle import enumerate_placements


class TestCrossover:
    def test_known_values(self):
        assert crossover_delta(0.1, 1.0) == pytest.approx(0.9)
        assert crossover_delta(0.1, 0.5) == pytest.approx(0.5)
        assert crossover_delta(0.1, 0.0) == pytest.approx(0.1)
        assert crossover_delta(0.3, 0.8) == pytest.approx(0.3 * 0.2 + 0.7 * 0.8)

    def test_half_is_fixed_point(self):
        # a half flip rate blinds the report no matter the local error
        for eps in (0.0, 0.123, 0.5, 0.9):
            assert crossover_delta(eps, 0.5) == pytest.approx(0.5)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            crossover_delta(-0.1, 0.5)
        with pytest.raises(ValueError):
            crossover_delta(0.1, 1.5)


class TestModels:
    def test_validation(self):
        assert placement_law(FixedCount(5), 5) == (None, (5, 5))
        with pytest.raises(ValueError):
            placement_law(FixedCount(6), 5)
        with pytest.raises(ValueError):
            FixedCount(-1)
        with pytest.raises(ValueError):
            IndependentAlpha(1.2)
        with pytest.raises(ValueError):
            BoundedBelowHalf(-2)
        with pytest.raises(ValueError):
            placement_law(BoundedBelowHalf(9), 8)
        with pytest.raises(ValueError):
            placement_law(UnconstrainedMaxEntropy(), 0)
        with pytest.raises(TypeError):
            placement_law("fixed:2", 5)

    def test_independent_laws(self):
        assert placement_law(UnconstrainedMaxEntropy(), 7) == (0.5, None)
        assert placement_law(IndependentAlpha(0.3), 7) == (0.3, None)

    def test_bounded_cap(self):
        assert placement_law(BoundedBelowHalf(), 20) == (None, (0, 9))
        assert placement_law(BoundedBelowHalf(), 21) == (None, (0, 10))
        assert placement_law(BoundedBelowHalf(), 2) == (None, (0, 0))
        assert placement_law(BoundedBelowHalf(k_max=4), 20) == (None, (0, 4))
        assert placement_law(BoundedBelowHalf(k_max=10), 10) == (None, (0, 10))
        # a cap above the network size is rejected, not clamped, here and in the decoder
        with pytest.raises(ValueError):
            placement_law(BoundedBelowHalf(k_max=30), 10)
        with pytest.raises(ValueError):
            BatchFuser(FusionAssumption(BoundedBelowHalf(k_max=30), 0.1, 0.5), 10, 2)


class TestMix64:
    def test_deterministic(self):
        assert mix64(42, 3) == mix64(42, 3)
        assert mix64(42, 3) != mix64(42, 4)
        assert mix64(42, 3) != mix64(43, 3)

    def test_spread(self):
        seen = {mix64(0, i) for i in range(10_000)}
        assert len(seen) == 10_000

    def test_path_sensitivity(self):
        assert mix64(1, 2, 3) != mix64(1, 3, 2)
        assert mix64(5) != mix64(0, 5)


class TestSamplers:
    def test_states_shape_and_balance(self):
        rng = np.random.default_rng(0)
        s = sample_states_batch(rng, 6, 1)
        assert s.shape == (1, 6) and s.dtype == np.uint8
        batch = sample_states_batch(np.random.default_rng(1), 4, 100_000)
        assert abs(batch.mean() - 0.5) < 0.005

    def test_fixed_count_always_exact(self):
        rng = np.random.default_rng(2)
        flags = sample_placements_batch(rng, FixedCount(6), 20, 5000)
        np.testing.assert_array_equal(flags.sum(axis=1), 6)

    def test_fixed_count_uniform_over_placements(self):
        # n=4, n_b=2: six placements, each should get ~1/6
        rng = np.random.default_rng(3)
        flags = sample_placements_batch(rng, FixedCount(2), 4, 120_000)
        codes = flags @ (1 << np.arange(3, -1, -1))
        _, counts = np.unique(codes, return_counts=True)
        assert len(counts) == 6
        freq = counts / counts.sum()
        sigma = math.sqrt((1 / 6) * (5 / 6) / 120_000)
        assert np.abs(freq - 1 / 6).max() < 3 * sigma + 1e-9

    def test_bounded_strict_minority(self):
        rng = np.random.default_rng(4)
        flags = sample_placements_batch(rng, BoundedBelowHalf(), 20, 20_000)
        assert flags.sum(axis=1).max() <= 9
        flags = sample_placements_batch(rng, BoundedBelowHalf(), 7, 5000)
        assert flags.sum(axis=1).max() <= 3

    def test_bounded_mean_byzantines(self):
        # uniform over popcount <= 9 of n=20 has mean count about 7.861
        rng = np.random.default_rng(5)
        flags = sample_placements_batch(rng, BoundedBelowHalf(), 20, 200_000)
        counts = flags.sum(axis=1)
        truth = sum(k * math.comb(20, k) for k in range(10)) / sum(
            math.comb(20, k) for k in range(10)
        )
        assert truth == pytest.approx(7.8612, abs=5e-4)
        assert counts.mean() == pytest.approx(truth, abs=4 * counts.std() / math.sqrt(len(counts)))

    def test_bounded_uniform_over_admissible(self):
        rng = np.random.default_rng(6)
        flags = sample_placements_batch(rng, BoundedBelowHalf(), 5, 100_000)
        codes = flags @ (1 << np.arange(4, -1, -1))
        _, counts = np.unique(codes, return_counts=True)
        n_admissible = sum(math.comb(5, k) for k in range(3))
        assert len(counts) == n_admissible
        freq = counts / counts.sum()
        p = 1 / n_admissible
        assert np.abs(freq - p).max() < 3 * math.sqrt(p * (1 - p) / 100_000) + 1e-9

    @pytest.mark.parametrize(
        "model, n",
        [
            (BoundedBelowHalf(), 4),
            (BoundedBelowHalf(), 5),
            (BoundedBelowHalf(), 6),
            (BoundedBelowHalf(2), 3),
            (BoundedBelowHalf(2), 6),
            (FixedCount(2), 4),
            (FixedCount(2), 6),
        ],
        ids=str,
    )
    def test_count_range_matches_enumeration(self, model, n):
        # chi-square of the drawn placements against the oracle's exact law
        masks, weights = enumerate_placements(model, n)
        codes = pack_bits(masks)
        rng = np.random.default_rng(10 + n)
        draws = pack_bits(sample_placements_batch(rng, model, n, 40_000))
        assert np.isin(draws, codes).all()
        observed = np.array([(draws == c).sum() for c in codes])
        assert chisquare(observed, weights * len(draws)).pvalue > 1e-4

    def test_tight_caps_draw_directly(self):
        # caps whose acceptance under rejection from the unconstrained law is
        # 2**-20 and 21 * 2**-20
        rng = np.random.default_rng(11)
        flags = sample_placements_batch(rng, BoundedBelowHalf(0), 20, 1000)
        assert flags.shape == (1000, 20)
        np.testing.assert_array_equal(flags, 0)
        flags = sample_placements_batch(rng, BoundedBelowHalf(1), 20, 1000)
        counts = flags.sum(axis=1)
        assert counts.max() <= 1
        # P(k = 0) = 1/21
        assert abs((counts == 0).mean() - 1 / 21) < 4 * math.sqrt(20 / 21**2 / 1000)

    @pytest.mark.parametrize("n_b", [0, 1, 6, 20])
    def test_fixed_count_pinned_draw(self, n_b):
        # the n_b smallest of one row of n uniforms mark the Byzantines
        u = np.random.default_rng(12).random((500, 20))
        expect = np.zeros((500, 20), dtype=np.uint8)
        np.put_along_axis(expect, np.argsort(u, axis=1)[:, :n_b], 1, axis=1)
        flags = sample_placements_batch(np.random.default_rng(12), FixedCount(n_b), 20, 500)
        np.testing.assert_array_equal(flags, expect)

    @pytest.mark.parametrize(
        "model, alpha", [(UnconstrainedMaxEntropy(), 0.5), (IndependentAlpha(0.3), 0.3)], ids=str
    )
    def test_independent_pinned_draw(self, model, alpha):
        expect = (np.random.default_rng(13).random((500, 20)) < alpha).astype(np.uint8)
        flags = sample_placements_batch(np.random.default_rng(13), model, 20, 500)
        np.testing.assert_array_equal(flags, expect)

    def test_bounded_k_max_override(self):
        rng = np.random.default_rng(7)
        flags = sample_placements_batch(rng, BoundedBelowHalf(k_max=2), 10, 3000)
        assert flags.sum(axis=1).max() <= 2

    def test_unconstrained_matches_alpha_half(self):
        # same draw path, so the streams must agree exactly
        a = sample_placements_batch(np.random.default_rng(8), UnconstrainedMaxEntropy(), 12, 50)
        b = sample_placements_batch(np.random.default_rng(8), IndependentAlpha(0.5), 12, 50)
        np.testing.assert_array_equal(a, b)

    def test_independent_alpha_rate(self):
        rng = np.random.default_rng(9)
        flags = sample_placements_batch(rng, IndependentAlpha(0.3), 10, 50_000)
        assert flags.mean() == pytest.approx(0.3, abs=0.01)

    def test_reports_honest_only_error_rate(self):
        # no byzantines: report errors happen at rate eps
        rng = np.random.default_rng(13)
        states = sample_states_batch(rng, 4, 20_000)
        placements = np.zeros((20_000, 5), dtype=np.uint8)
        reports = sample_reports_batch(rng, states, placements, eps=0.2, pmal_b=1.0)
        err = (reports != states[:, None, :]).mean()
        assert err == pytest.approx(0.2, abs=0.01)

    def test_reports_byzantine_crossover(self):
        # all byzantine at pmal: disagreement rate is the crossover delta
        rng = np.random.default_rng(14)
        states = sample_states_batch(rng, 4, 20_000)
        placements = np.ones((20_000, 5), dtype=np.uint8)
        reports = sample_reports_batch(rng, states, placements, eps=0.1, pmal_b=0.8)
        err = (reports != states[:, None, :]).mean()
        assert err == pytest.approx(crossover_delta(0.1, 0.8), abs=0.01)

    def test_reports_pmal_one_is_total_flip(self):
        rng = np.random.default_rng(15)
        states = sample_states_batch(rng, 3, 100)
        placements = np.ones((100, 4), dtype=np.uint8)
        r0 = sample_reports_batch(np.random.default_rng(16), states, placements, 0.0, 1.0)
        expect = np.broadcast_to(1 - states[:, None, :], r0.shape)
        np.testing.assert_array_equal(r0, expect)

    def test_reports_pinned_draw(self):
        # local noise for every triple, then flip noise for every triple, kept
        # only at Byzantine nodes; the generators must end in the same state
        rng = np.random.default_rng(18)
        states = sample_states_batch(rng, 3, 400)
        placements = sample_placements_batch(rng, FixedCount(2), 5, 400)
        u = np.random.default_rng(19)
        local = (u.random((400, 5, 3)) < 0.2).astype(np.uint8)
        flips = (u.random((400, 5, 3)) < 0.7).astype(np.uint8) * placements[:, :, None]
        expect = states[:, None, :] ^ local ^ flips
        drawn = np.random.default_rng(19)
        reports = sample_reports_batch(drawn, states, placements, eps=0.2, pmal_b=0.7)
        assert reports.dtype == np.uint8
        np.testing.assert_array_equal(reports, expect)
        assert drawn.random() == u.random()

    def test_determinism(self):
        s1 = sample_placements_batch(np.random.default_rng(17), BoundedBelowHalf(), 20, 100)
        s2 = sample_placements_batch(np.random.default_rng(17), BoundedBelowHalf(), 20, 100)
        np.testing.assert_array_equal(s1, s2)
