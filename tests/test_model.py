import itertools
import math
import threading

import numpy as np
import pytest
from scipy.stats import chisquare

import byzfusion.model
from byzfusion.bits import all_bit_vectors, pack_bits, unpack_bits
from byzfusion.fusion import BatchFuser, FusionAssumption
from byzfusion.model import (
    BoundedBelowHalf,
    FixedCount,
    IndependentAlpha,
    UnconstrainedMaxEntropy,
    crossover_delta,
    mix64,
    placement_law,
    sample_rows,
    stream_rows,
)
from byzfusion.model import _GUIDE_BITS, _pattern_cdf, _search
from byzfusion.oracle import enumerate_placements, exact_likelihood
from byzfusion.scratch import FRESH, KEPT


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


def draw(seed, model, n, count, m=2, eps=0.0, pmal_b=1.0):
    return sample_rows(np.random.default_rng(seed), model, n, m, eps, pmal_b, count)


def flipped(seed, model, n, count):
    """Which rows the flipped channel gave, (count, n) bool.

    At eps = 0 and pmal_b = 1 an honest row is the state and a Byzantine row
    its complement, so the rows show the Byzantine count exactly.
    """
    states, rows = draw(seed, model, n, count)
    honest = rows == states[:, None]
    assert (honest | (rows == states[:, None] ^ 0b11)).all()
    return ~honest


def error_pmf(p, m):
    return [(1 - p) ** (m - bin(x).count("1")) * p ** bin(x).count("1") for x in range(2**m)]


def rows_by_loop(seed, model, n, m, eps, pmal_b, count):
    """sample_rows rebuilt node by node from the same generator; also returns it."""
    rng = np.random.default_rng(seed)
    states = rng.integers(2**m, size=count)
    alpha, k_range = placement_law(model, n)
    honest, byzantine = error_pmf(eps, m), error_pmf(crossover_delta(eps, pmal_b), m)
    if k_range is None:
        counts = [0] * count
        honest = [(1 - alpha) * h + alpha * b for h, b in zip(honest, byzantine)]
    elif k_range[0] == k_range[1]:
        counts = [k_range[0]] * count
    else:
        ks = range(k_range[0], k_range[1] + 1)
        cum = list(itertools.accumulate(math.comb(n, k) for k in ks))
        counts = [next(k for k, c in zip(ks, cum) if u < c / cum[-1]) for u in rng.random(count)]
    u = rng.random((count, n))
    rows = np.empty((count, n), dtype=np.int64)
    for t in range(count):
        for i in range(n):
            # the first pattern whose CDF passes u; the last where rounding
            # leaves the sum at or below u
            cdf = itertools.accumulate(byzantine if i < counts[t] else honest)
            pattern = next((x for x, c in enumerate(cdf) if u[t, i] < c), 2**m - 1)
            rows[t, i] = pattern ^ states[t]
    return states, rows, rng


class FixedUniform:
    """A generator stand-in whose every state is 0 and every uniform is `u`."""

    def __init__(self, u):
        self.u = u

    def integers(self, high, size):
        return np.zeros(size, dtype=np.int64)

    def random(self, out):
        # the sampler draws every block of uniforms into an array it passes
        out[...] = self.u
        return out


class TestSamplers:
    def test_states_shape_and_balance(self):
        states, rows = draw(0, FixedCount(1), 3, 1, m=6)
        assert states.shape == (1,) and rows.shape == (1, 3)
        assert states.dtype == rows.dtype == np.int64
        states, _ = draw(1, FixedCount(1), 3, 100_000, m=4)
        assert set(states.tolist()) == set(range(16))
        assert abs(unpack_bits(states, 4).mean() - 0.5) < 0.005

    def test_fixed_count_always_exact(self):
        np.testing.assert_array_equal(flipped(2, FixedCount(6), 20, 5000).sum(axis=1), 6)

    def test_bounded_strict_minority(self):
        assert flipped(4, BoundedBelowHalf(), 20, 20_000).sum(axis=1).max() <= 9
        assert flipped(4, BoundedBelowHalf(), 7, 5000).sum(axis=1).max() <= 3

    def test_bounded_mean_byzantines(self):
        # uniform over popcount <= 9 of n=20 has mean count about 7.861
        counts = flipped(5, BoundedBelowHalf(), 20, 200_000).sum(axis=1)
        truth = sum(k * math.comb(20, k) for k in range(10)) / sum(
            math.comb(20, k) for k in range(10)
        )
        assert truth == pytest.approx(7.8612, abs=5e-4)
        assert counts.mean() == pytest.approx(truth, abs=4 * counts.std() / math.sqrt(len(counts)))

    def test_bounded_uniform_over_admissible(self):
        # a uniform admissible placement has k Byzantines with P(k) ∝ C(n, k)
        counts = flipped(6, BoundedBelowHalf(), 5, 100_000).sum(axis=1)
        weights = np.array([math.comb(5, k) for k in range(3)])
        freq = np.bincount(counts, minlength=3) / len(counts)
        p = weights / weights.sum()
        assert len(freq) == 3
        assert (np.abs(freq - p) < 3 * np.sqrt(p * (1 - p) / len(counts)) + 1e-9).all()

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
        # chi-square of the drawn Byzantine counts against the oracle's placements
        masks, weights = enumerate_placements(model, n)
        expected = np.bincount(masks.sum(axis=1), weights, minlength=n + 1)
        counts = flipped(10 + n, model, n, 40_000).sum(axis=1)
        observed = np.bincount(counts, minlength=n + 1)
        assert (observed[expected == 0] == 0).all()
        keep = expected > 0
        if keep.sum() > 1:
            assert chisquare(observed[keep], expected[keep] * len(counts)).pvalue > 1e-4

    def test_tight_caps_draw_directly(self):
        # caps whose acceptance under rejection from the unconstrained law is
        # 2**-20 and 21 * 2**-20
        assert not flipped(11, BoundedBelowHalf(0), 20, 1000).any()
        counts = flipped(11, BoundedBelowHalf(1), 20, 1000).sum(axis=1)
        assert counts.max() <= 1
        # P(k = 0) = 1/21
        assert abs((counts == 0).mean() - 1 / 21) < 4 * math.sqrt(20 / 21**2 / 1000)

    @pytest.mark.parametrize("n_b", [0, 1, 6, 20])
    def test_fixed_count_pinned_draw(self, n_b):
        # nodes 0..n_b-1 search the flipped channel's CDF, the rest the honest one
        states, rows, rest = rows_by_loop(12, FixedCount(n_b), 20, 3, 0.2, 0.7, 300)
        drawn = np.random.default_rng(12)
        got = sample_rows(drawn, FixedCount(n_b), 20, 3, 0.2, 0.7, 300)
        np.testing.assert_array_equal(got[0], states)
        np.testing.assert_array_equal(got[1], rows)
        assert drawn.random() == rest.random()

    @pytest.mark.parametrize(
        "model, alpha", [(UnconstrainedMaxEntropy(), 0.5), (IndependentAlpha(0.3), 0.3)], ids=str
    )
    def test_independent_pinned_draw(self, model, alpha):
        # every node searches the mixture (1 - alpha) pi_h + alpha pi_b
        assert placement_law(model, 20) == (alpha, None)
        states, rows, rest = rows_by_loop(13, model, 20, 3, 0.2, 0.7, 300)
        drawn = np.random.default_rng(13)
        got = sample_rows(drawn, model, 20, 3, 0.2, 0.7, 300)
        np.testing.assert_array_equal(got[0], states)
        np.testing.assert_array_equal(got[1], rows)
        assert drawn.random() == rest.random()

    def test_reports_pinned_draw(self):
        # states, then each trial's count where the range holds several, then
        # one block of uniforms; the generators must end in the same state
        for model in (FixedCount(2), BoundedBelowHalf(), BoundedBelowHalf(3)):
            states, rows, rest = rows_by_loop(18, model, 5, 3, 0.2, 0.7, 400)
            drawn = np.random.default_rng(18)
            got = sample_rows(drawn, model, 5, 3, 0.2, 0.7, 400)
            np.testing.assert_array_equal(got[0], states)
            np.testing.assert_array_equal(got[1], rows)
            assert drawn.random() == rest.random()

    @pytest.mark.parametrize(
        "model, n, m",
        [
            (UnconstrainedMaxEntropy(), 3, 2),
            (IndependentAlpha(0.3), 4, 2),
            (BoundedBelowHalf(), 4, 2),
            (BoundedBelowHalf(2), 4, 1),
            (FixedCount(2), 4, 2),
            (FixedCount(1), 3, 1),
        ],
        ids=str,
    )
    def test_row_law_matches_oracle(self, model, n, m):
        # chi-square of the per-trial (state, sorted rows) against the oracle's
        # placement sum over every report matrix with those rows
        eps, pmal_b, trials = 0.2, 0.7, 40_000
        delta = crossover_delta(eps, pmal_b)
        matrices = all_bit_vectors(n * m).reshape(-1, n, m)

        def key(states, rows):
            # state, then the sorted rows, as base-2**m digits
            out = np.asarray(states, dtype=np.int64)
            for column in np.sort(rows, axis=-1).T:
                out = out * 2**m + column
            return out

        law = {}
        for s in range(2**m):
            state = unpack_bits(s, m)
            for k, r in zip(key(np.full(len(matrices), s), pack_bits(matrices)), matrices):
                law[k] = law.get(k, 0.0) + exact_likelihood(r, state, model, eps, delta) / 2**m
        assert sum(law.values()) == pytest.approx(1.0, abs=1e-12)
        keys = np.array(sorted(law))
        expected = np.array([law[k] for k in keys]) * trials
        drawn = key(*draw(20, model, n, trials, m=m, eps=eps, pmal_b=pmal_b))
        assert np.isin(drawn, keys[expected > 0]).all()
        observed = np.array([(drawn == k).sum() for k in keys])
        # pool the rare classes so that every bin expects at least 5
        rare = expected < 5
        if rare.any():
            observed = np.append(observed[~rare], observed[rare].sum())
            expected = np.append(expected[~rare], expected[rare].sum())
        assert chisquare(observed, expected).pvalue > 1e-4

    @pytest.mark.parametrize("n", [1, 5])
    def test_shifted_cdf_edges(self, n):
        # eps = 0, pmal_b = 1: rows are exactly s or not s, and the flipped
        # rows are nodes 0..k-1, also at k = 0 and k = n
        for model, k in ((FixedCount(0), 0), (FixedCount(n), n), (BoundedBelowHalf(0), 0)):
            expect = np.arange(n) < k
            np.testing.assert_array_equal(flipped(21, model, n, 500), np.tile(expect, (500, 1)))
        got = flipped(22, BoundedBelowHalf(1), n, 2000)
        assert not got[:, 1:].any()
        assert 0 < got[:, 0].mean() < 1
        assert abs(got[:, 0].mean() - n / (n + 1)) < 4 * math.sqrt(n / (n + 1) ** 2 / 2000)

    @pytest.mark.parametrize("pmal_b", [0.0, 0.9, 1.0])
    @pytest.mark.parametrize("u", [0.0, np.nextafter(1.0, 0.0)], ids=["bottom", "top"])
    def test_extreme_uniforms_draw_possible_patterns(self, u, pmal_b):
        # the smallest and largest uniforms draw the first and the last error
        # pattern of positive probability: 0 and all ones, except on an
        # always-wrong or an error-free channel. At eps = 0.3 the honest
        # pattern sums fall short of 1 by rounding, and for a Byzantine node
        # 1 + (1 - 2**-53) rounds to 2.0, the top of the table
        def pattern(p):
            if u == 0.0:
                return 0b111 if p == 1.0 else 0
            return 0 if p == 0.0 else 0b111

        for eps in (0.0, 0.3):
            delta = crossover_delta(eps, pmal_b)
            # the bounded count is the least or the largest, 0 or 2
            for model, k in ((FixedCount(2), 2), (BoundedBelowHalf(2), 2 if u else 0)):
                states, rows = sample_rows(FixedUniform(u), model, 4, 3, eps, pmal_b, 5)
                np.testing.assert_array_equal(states, 0)
                np.testing.assert_array_equal(rows[:, :k], pattern(delta))
                np.testing.assert_array_equal(rows[:, k:], pattern(eps))
            # the mixture has a pattern where either channel has it
            mixed = eps * delta if u == 0.0 else eps + delta
            _, rows = sample_rows(FixedUniform(u), IndependentAlpha(0.5), 4, 3, eps, pmal_b, 5)
            np.testing.assert_array_equal(rows, pattern(mixed))

    def test_bounded_k_max_override(self):
        assert flipped(7, BoundedBelowHalf(k_max=2), 10, 3000).sum(axis=1).max() <= 2

    def test_unconstrained_matches_alpha_half(self):
        # same draw path, so the streams must agree exactly
        a = draw(8, UnconstrainedMaxEntropy(), 12, 50, eps=0.1, pmal_b=0.7)
        b = draw(8, IndependentAlpha(0.5), 12, 50, eps=0.1, pmal_b=0.7)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_independent_alpha_rate(self):
        assert flipped(9, IndependentAlpha(0.3), 10, 50_000).mean() == pytest.approx(0.3, abs=0.01)

    def test_reports_honest_only_error_rate(self):
        # no byzantines: report errors happen at rate eps
        states, rows = draw(13, FixedCount(0), 5, 20_000, m=4, eps=0.2, pmal_b=1.0)
        err = np.bitwise_count(rows ^ states[:, None]).mean() / 4
        assert err == pytest.approx(0.2, abs=0.01)

    def test_reports_byzantine_crossover(self):
        # all byzantine at pmal: disagreement rate is the crossover delta
        states, rows = draw(14, FixedCount(5), 5, 20_000, m=4, eps=0.1, pmal_b=0.8)
        err = np.bitwise_count(rows ^ states[:, None]).mean() / 4
        assert err == pytest.approx(crossover_delta(0.1, 0.8), abs=0.01)

    def test_reports_pmal_one_is_total_flip(self):
        states, rows = draw(16, FixedCount(4), 4, 100, m=3)
        np.testing.assert_array_equal(rows, np.tile(states[:, None] ^ 0b111, 4))

    def test_determinism(self):
        for model in (BoundedBelowHalf(), IndependentAlpha(0.3)):
            s1, r1 = draw(17, model, 20, 100, m=4, eps=0.1, pmal_b=0.7)
            s2, r2 = draw(17, model, 20, 100, m=4, eps=0.1, pmal_b=0.7)
            np.testing.assert_array_equal(s1, s2)
            np.testing.assert_array_equal(r1, r2)


def one_block_rows(seed, model, n, m, eps, pmal_b, count):
    """sample_rows' draws with every node uniform from one generator call and a
    plain search: (states, rows, generator)."""
    rng = np.random.default_rng(seed)
    alpha, k_range = placement_law(model, n)
    d = np.bitwise_count(np.arange(2**m))
    delta = crossover_delta(eps, pmal_b)
    honest = (1.0 - eps) ** (m - d) * eps**d
    flipped = (1.0 - delta) ** (m - d) * delta**d
    states = rng.integers(2**m, size=count)
    if k_range is None:
        cdf = _pattern_cdf((1.0 - alpha) * honest + alpha * flipped)
        u = rng.random((count, n))
    else:
        k_lo, k_hi = k_range
        k = k_lo
        if k_hi > k_lo:
            cum = np.cumsum([math.comb(n, j) for j in range(k_lo, k_hi + 1)])
            k = k_lo + np.searchsorted(cum / cum[-1], rng.random(count), side="right")[:, None]
        cdf = np.concatenate([_pattern_cdf(honest), 1.0 + _pattern_cdf(flipped)])
        u = np.minimum(rng.random((count, n)) + (np.arange(n) < k), np.nextafter(2.0, 0.0))
    rows = (np.searchsorted(cdf, u, side="right") & (2**m - 1)) ^ states[:, None]
    return states, rows, rng


class TestStreamedRows:
    """Rows drawn chunk by chunk through kept buffers are the one-block draws."""

    @pytest.mark.parametrize("m", [4, 8])
    @pytest.mark.parametrize(
        "model", [IndependentAlpha(0.3), FixedCount(6), BoundedBelowHalf()], ids=repr
    )
    def test_chunks_are_the_one_block_draws(self, model, m):
        n, count = 20, 1000
        states, rows, rest = one_block_rows(31, model, n, m, 0.1, 0.8, count)
        after = rest.random()  # the draw that follows the row's
        got = sample_rows(np.random.default_rng(31), model, n, m, 0.1, 0.8, count)
        np.testing.assert_array_equal(got[0], states)
        np.testing.assert_array_equal(got[1], rows)
        # 300 does not divide the row, and 1500 is longer than it
        for step in (300, 1500):
            drawn = np.random.default_rng(31)
            got_states, chunks = stream_rows(drawn, model, n, m, 0.1, 0.8, count, step, KEPT)
            np.testing.assert_array_equal(got_states, states)
            start = 0
            for block, chunk in chunks:
                assert block.start == start and chunk.shape == (min(step, count - start), n)
                np.testing.assert_array_equal(chunk, rows[block])
                start += chunk.shape[0]
            assert start == count
            # the generator ends where the one-block draws leave it
            assert drawn.random() == after

    def test_sample_rows_returns_new_arrays(self):
        # a kept chunk is overwritten by the next; sample_rows' rows never are
        first = sample_rows(np.random.default_rng(1), FixedCount(2), 5, 3, 0.1, 0.8, 40)
        copy = [a.copy() for a in first]
        second = sample_rows(np.random.default_rng(2), FixedCount(2), 5, 3, 0.1, 0.8, 40)
        _, chunks = stream_rows(
            np.random.default_rng(3), FixedCount(2), 5, 3, 0.1, 0.8, 40, 7, KEPT
        )
        kept = [chunk for _, chunk in chunks]
        for a, b in zip(first, copy):
            np.testing.assert_array_equal(a, b)
            assert not any(np.shares_memory(a, c) for c in [*second, *kept, *KEPT.slots.values()])

    def test_sample_rows_keeps_nothing(self):
        # sample_rows takes every work array fresh, the search's too, so what
        # a thread keeps does not grow with the trials it draws
        kept = []

        def draw():
            sample_rows(np.random.default_rng(4), FixedCount(6), 20, 4, 0.1, 0.8, 200_000)
            kept.append({slot: buf.nbytes for slot, buf in KEPT.slots.items()})

        thread = threading.Thread(target=draw)
        thread.start()
        thread.join(timeout=300)
        assert not thread.is_alive() and kept == [{}]


def searched_tables(m):
    """The CDFs sample_rows searches at m, with repeated entries among them.

    For each (eps, pmal_b): the independent mixture, ending at 1.0, and the
    count range's honest table then the flipped one shifted up by 1, ending
    at 2.0. At eps = 0 and pmal_b in {0, 1} most patterns have probability 0.
    """
    tables = []
    for eps, pmal_b in ((0.0, 0.0), (0.0, 1.0), (0.1, 0.8), (0.3, 0.5)):
        honest = np.array(error_pmf(eps, m))
        byzantine = np.array(error_pmf(crossover_delta(eps, pmal_b), m))
        tables.append(_pattern_cdf(0.7 * honest + 0.3 * byzantine))
        tables.append(np.concatenate([_pattern_cdf(honest), 1.0 + _pattern_cdf(byzantine)]))
    return tables


def search_probes(cdf):
    """Every entry and its float neighbours, every bucket edge and the float
    below the next one, 0 and the float below the top, all in [0, top)."""
    top = math.ceil(cdf[-1])
    edges = np.arange(top * 2**_GUIDE_BITS + 1) / 2**_GUIDE_BITS
    probes = np.concatenate(
        [
            cdf,
            np.nextafter(cdf, -np.inf),
            np.nextafter(cdf, np.inf),
            edges,
            np.nextafter(edges, 0.0),
            [0.0, np.nextafter(float(top), 0.0)],
        ]
    )
    return probes[(probes >= 0.0) & (probes < top)]


def plain_search(cdf, u, scratch):
    return np.searchsorted(cdf, u, side="right")


class TestGuideSearch:
    @pytest.mark.parametrize("m", range(1, 13))
    def test_matches_searchsorted(self, m):
        k_cum = list(itertools.accumulate(math.comb(20, k) for k in range(10)))
        k_cdf = np.array([c / k_cum[-1] for c in k_cum])
        for cdf in searched_tables(m) + [k_cdf]:
            assert np.all(np.diff(cdf) >= 0.0) and cdf[-1] in (1.0, 2.0)
            u = search_probes(cdf)
            assert u.size > 2 ** (_GUIDE_BITS + 1)
            want = plain_search(cdf, u, FRESH)
            np.testing.assert_array_equal(_search(cdf, u.copy(), FRESH), want)

    def test_keeps_shape_and_scales_in_place(self):
        cdf = searched_tables(3)[1]
        u = np.random.default_rng(0).random((40, 7)) * 2.0
        scaled = u.copy()
        found = _search(cdf, scaled, FRESH)
        assert found.shape == (40, 7) and found.dtype == np.intp
        np.testing.assert_array_equal(found, plain_search(cdf, u, FRESH))
        np.testing.assert_array_equal(scaled, u * 2**_GUIDE_BITS)

    @pytest.mark.parametrize(
        "model",
        [UnconstrainedMaxEntropy(), IndependentAlpha(0.3), BoundedBelowHalf(), FixedCount(6)],
        ids=str,
    )
    def test_few_draws_fall_back_to_a_full_search(self, model, monkeypatch):
        # the guide table answers every draw but those in a bucket with a CDF
        # entry strictly inside it: under 5% at n = 20, m = 4, count draw included
        n, m, trials = 20, 4, 5000
        searched = []
        plain = np.searchsorted

        def counting(a, v, *args, **kwargs):
            searched.append(np.size(v))
            return plain(a, v, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(byzfusion.model.np, "searchsorted", counting)
            got = sample_rows(np.random.default_rng(23), model, n, m, 0.1, 0.8, trials)
        assert sum(searched) < 0.05 * trials * n
        # the same draws from a plain search of every uniform
        monkeypatch.setattr(byzfusion.model, "_search", plain_search)
        want = sample_rows(np.random.default_rng(23), model, n, m, 0.1, 0.8, trials)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])
