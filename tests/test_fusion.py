import importlib.util
import math
import pathlib
import threading
import tracemalloc
from collections import UserList

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import xlogy

from byzfusion import fusion, model as model_module
from byzfusion.bits import all_bit_vectors, pack_bits, unpack_bits
from byzfusion.dp import naive_subset_sum, subset_sums
from byzfusion.fusion import (
    SCORE_TIE_TOL,
    BatchFuser,
    FusionAssumption,
    TypeClasses,
    _key_table,
    argmax_lex,
    decide_columns,
    fuse,
    honest_log_weights,
)
from byzfusion.model import (
    BoundedBelowHalf,
    FixedCount,
    IndependentAlpha,
    UnconstrainedMaxEntropy,
    crossover_delta,
    placement_law,
    sample_rows,
)
from byzfusion.game import (
    DEFAULT_GRID,
    MAJORITY_VOTE,
    Scenario,
    StrategyGrid,
    estimate_payoff_and_majority,
    estimate_payoff_matrix,
)
from byzfusion.scratch import FRESH, KEPT
from byzfusion.oracle import (
    ExactScenario,
    exact_error_probability,
    exact_likelihood,
    exact_map_decision,
)

MODELS = [
    UnconstrainedMaxEntropy(),
    IndependentAlpha(0.3),
    BoundedBelowHalf(),
    FixedCount(2),
]


def random_reports(rng, n, m):
    return rng.integers(0, 2, size=(n, m), dtype=np.uint8)


def recursion_subset_sum(logb, logh, k):
    """log f(n, k) through dp.subset_sums, every node in a bin of its own."""
    return subset_sums(logb, logh, np.ones((1, len(logb)), dtype=np.int64), k, k)[0]


def scalar_decision(reports, asm, subset_sum=naive_subset_sum):
    """Reference MAP decision for one (n, m) report matrix, hypothesis by hypothesis.

    Match counts come from comparing each report row with the hypothesis,
    and scores from the per-node mixture or from `subset_sum` over the
    admissible Byzantine counts, so no TypeClasses key is involved.
    """
    n, m = reports.shape
    alpha, k_range = placement_law(asm.model, n)
    lh = honest_log_weights(asm.eps, m)
    lb = honest_log_weights(asm.delta_fc, m)
    hyps = all_bit_vectors(m)
    scores = np.empty(len(hyps))
    for h, states in enumerate(hyps):
        c = (reports == states).sum(axis=1)
        if k_range is None:
            with np.errstate(divide="ignore"):
                per_node = np.logaddexp(np.log(1.0 - alpha) + lh[c], np.log(alpha) + lb[c])
            scores[h] = per_node.sum()
            continue
        ks = range(k_range[0], k_range[1] + 1)
        scores[h] = np.logaddexp.reduce([subset_sum(lb[c], lh[c], k) for k in ks])
    return hyps[argmax_lex(scores)]


def load_perfbench(name):
    """perfbench/<name>.py, loaded by path; the benchmark's modules import nothing of byzfusion."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def majority_by_bits(rows, m):
    """Packed componentwise majority vote of packed node rows (..., n), bit by
    bit; ties go to 0."""
    rows = np.asarray(rows, dtype=np.int64)
    n = rows.shape[-1]
    decisions = np.zeros(rows.shape[:-1], dtype=np.int64)
    for shift in range(m):
        ones = ((rows >> shift) & 1).sum(axis=-1)
        decisions |= (2 * ones > n).astype(np.int64) << shift
    return decisions


def majority_column(rows, m):
    """Decisions of the MAJORITY_VOTE column for packed rows (T, n)."""
    return decide_columns([BatchFuser(MAJORITY_VOTE, rows.shape[-1], m)], rows)[0]


def decode(fuser, reports):
    """`fuser`'s decisions through decide_columns: (T, m) bits for (T, n, m) bit
    reports, packed (T,) ints for packed (T, n) reports."""
    if reports.ndim == 3:
        return unpack_bits(decode(fuser, pack_bits(reports)), fuser.m)
    return decide_columns([fuser], reports)[0]


def count_type_class_builds(monkeypatch, chunk_cells):
    """Shrink the decoder's chunks to `chunk_cells` cells.

    The returned list gains the trial count of each TypeClasses build.
    """
    builds = []

    class Counted(TypeClasses):
        def __init__(self, report_ints, n, m, scratch=FRESH):
            builds.append(len(report_ints))
            super().__init__(report_ints, n, m, scratch)

    monkeypatch.setattr(fusion, "_CHUNK_CELLS", chunk_cells)
    monkeypatch.setattr(fusion, "TypeClasses", Counted)
    return builds


def in_fresh_thread(call):
    """call() in a new thread, which starts with no kept buffers."""
    result = []
    thread = threading.Thread(target=lambda: result.append(call()))
    thread.start()
    thread.join(timeout=300)
    assert not thread.is_alive() and len(result) == 1
    return result[0]


def score(reports, states, asm):
    """BatchFuser.scores of one report matrix under one hypothesis."""
    n, m = reports.shape
    fuser = BatchFuser(asm, n, m)
    return fuser.scores(pack_bits(reports)[None])[0, pack_bits(states)]


class TestScores:
    def test_weight_tables_normalize(self):
        # summing C(m,c) exp(w[c]) over c recovers a full binomial: total 1
        for p in (0.0, 0.1, 0.5, 1.0):
            w = honest_log_weights(p, 5)
            total = sum(math.comb(5, c) * math.exp(w[c]) for c in range(6))
            assert total == pytest.approx(1.0)

    def test_weight_tables_are_scipy_xlogy_bits(self):
        # scipy's xlogy is a test-only reference; the tables hold its bits,
        # -inf at eps = 0 or 1 included
        rates = list(np.linspace(0.0, 1.0, 201))
        rates += [crossover_delta(eps, p) for eps in rates for p in DEFAULT_GRID]
        for m in range(1, 13):
            c = np.arange(m + 1, dtype=np.float64)
            for eps in rates:
                want = xlogy(c, 1.0 - eps) + xlogy(m - c, eps)
                np.testing.assert_array_equal(
                    honest_log_weights(eps, m).view(np.int64), want.view(np.int64)
                )

    def test_bound_shift_is_scipy_xlogy_bits(self):
        # the bound's -min_k log(a^k (1 - a)^(n - k)), a clipped to [k_lo/n, k_hi/n],
        # as scipy's xlogy gives it; a = 0 and a = 1 take 0 * log(0) = 0
        for n in (1, 4, 9, 20):
            models = [FixedCount(k) for k in range(n + 1)] + [BoundedBelowHalf()]
            for model in models + [BoundedBelowHalf(k) for k in range(n)]:
                fuser = BatchFuser(FusionAssumption(model, 0.1, 0.9), n, 2)
                k_lo, k_hi = placement_law(model, n)[1]
                a = min(max(0.5, k_lo / n), k_hi / n)
                want = -min(xlogy(k, a) + xlogy(n - k, 1.0 - a) for k in (k_lo, k_hi))
                assert np.float64(fuser._bound_terms[1]).view(np.int64) == want.view(np.int64)

    def test_independent_score_manual(self):
        r = np.array([[1, 0], [1, 1]], dtype=np.uint8)
        s = np.array([1, 0], dtype=np.uint8)
        eps, alpha = 0.1, 0.3
        asm = FusionAssumption(IndependentAlpha(alpha), eps, 0.8)
        delta = asm.delta_fc
        assert delta == pytest.approx(0.74)
        expected = 0.0
        for i in range(2):
            c = int((r[i] == s).sum())
            ph = (1 - eps) ** c * eps ** (2 - c)
            pb = (1 - delta) ** c * delta ** (2 - c)
            expected += math.log((1 - alpha) * ph + alpha * pb)
        assert score(r, s, asm) == pytest.approx(expected, rel=1e-12)

    def test_independent_alpha_extremes(self):
        r = np.array([[1, 0, 1]], dtype=np.uint8)
        s = np.array([1, 1, 1], dtype=np.uint8)
        eps = 0.2
        all_honest = score(r, s, FusionAssumption(IndependentAlpha(0.0), eps, 1.0))
        assert all_honest == pytest.approx(2 * math.log(1 - eps) + math.log(eps))
        asm = FusionAssumption(IndependentAlpha(1.0), eps, 1.0)
        delta = asm.delta_fc
        all_byz = score(r, s, asm)
        assert all_byz == pytest.approx(2 * math.log(1 - delta) + math.log(delta))

    def test_subset_score_fixed_manual(self):
        # n=2, one byzantine: average the two placements explicitly
        r = np.array([[1, 0], [0, 0]], dtype=np.uint8)
        s = np.array([1, 1], dtype=np.uint8)
        eps = 0.15
        asm = FusionAssumption(FixedCount(1), eps, 0.65 / 0.7)
        delta = asm.delta_fc
        assert delta == pytest.approx(0.8)

        def ph(c):
            return (1 - eps) ** c * eps ** (2 - c)

        def pb(c):
            return (1 - delta) ** c * delta ** (2 - c)

        c1 = int((r[0] == s).sum())
        c2 = int((r[1] == s).sum())
        expected = math.log(0.5 * (pb(c1) * ph(c2) + ph(c1) * pb(c2)))
        assert score(r, s, asm) == pytest.approx(expected, rel=1e-12)

    def test_subset_score_bounded_manual(self):
        # n=2, cap 0: only the all-honest placement is admissible
        r = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        s = np.array([0, 0], dtype=np.uint8)
        eps = 0.2
        got = score(r, s, FusionAssumption(BoundedBelowHalf(), eps, 2 / 3))
        c1 = int((r[0] == s).sum())
        c2 = int((r[1] == s).sum())
        expected = math.log(
            (1 - eps) ** c1 * eps ** (2 - c1) * (1 - eps) ** c2 * eps ** (2 - c2)
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_log_score_dispatch(self):
        # the unconstrained prior scores exactly like independent alpha = 1/2
        rng = np.random.default_rng(0)
        r = random_reports(rng, 4, 3)
        s = np.array([0, 1, 0], dtype=np.uint8)
        unconstrained = score(r, s, FusionAssumption(UnconstrainedMaxEntropy(), 0.1, 0.8))
        via_alpha = score(r, s, FusionAssumption(IndependentAlpha(0.5), 0.1, 0.8))
        assert unconstrained == pytest.approx(via_alpha, rel=1e-12)


class TestArgmaxLex:
    def test_clear_winner(self):
        assert argmax_lex(np.array([0.0, 3.0, 1.0])) == 1

    def test_tie_prefers_first(self):
        assert argmax_lex(np.array([2.0, 2.0 + 1e-12, 1.0])) == 0
        assert argmax_lex(np.array([2.0, 2.0 + 1e-6, 1.0])) == 1

    def test_all_neg_inf(self):
        assert argmax_lex(np.full(4, -np.inf)) == 0

    def test_last_axis_row_by_row(self):
        scores = np.array([[-np.inf, -np.inf], [1.0, 2.0], [5.0, 5.0 + 1e-12]])
        np.testing.assert_array_equal(argmax_lex(scores), [0, 1, 0])

    @pytest.mark.parametrize("m", range(1, 9))
    def test_hypothesis_major_decisions_match_row_by_row(self, m):
        # decide_ints reduces (2**m, T) cells over axis 0; on constructed ties
        # it must pick what argmax_lex picks trial by trial, and what the
        # rule says: the first hypothesis within SCORE_TIE_TOL of the maximum
        hyps, trials = 2**m, 400
        rng = np.random.default_rng(30 + m)
        cells = rng.normal(-40.0, 10.0, size=(hyps, trials))
        for t in range(trials):
            col, pos = cells[:, t], rng.permutation(hyps)
            top = col.max()
            kind = t % 6
            if kind == 0:  # exact ties with the maximum
                col[pos[: rng.integers(1, hyps + 1)]] = top
            elif kind == 1:  # at the edge of the tie band, and one ulp either side
                edge = top - SCORE_TIE_TOL
                col[pos[0]] = top
                for p, v in zip(pos[1:], (edge, np.nextafter(edge, -np.inf),
                                          np.nextafter(edge, np.inf))):
                    col[p] = v
            elif kind == 2:  # a > b > c: b ties a and c ties b, but c does not tie a
                for p, v in zip(pos, (top, top - 0.6 * SCORE_TIE_TOL, top - 1.2 * SCORE_TIE_TOL)):
                    col[p] = v
            elif kind == 3:
                col[:] = -np.inf
            elif kind == 4:  # -inf beside a tie band
                col[pos[: hyps // 2]] = -np.inf
                col[pos[hyps // 2 :]] = top - rng.uniform(0, 2 * SCORE_TIE_TOL, hyps - hyps // 2)
        # scattered over types the way TypeClasses maps cells
        cell_types = rng.permutation(hyps * trials).reshape(hyps, trials)
        type_scores = np.empty(hyps * trials)
        type_scores[cell_types] = cells
        classes = TypeClasses(np.zeros((trials, 1), dtype=np.int64), 1, m)
        classes.inverse, classes.hist = cell_types, np.zeros((hyps * trials, m + 1))
        fuser = BatchFuser(FusionAssumption(IndependentAlpha(0.3), 0.1, 0.8), 1, m)
        fuser._type_scores = lambda _: type_scores
        want = [next(h for h, v in enumerate(col) if v >= max(col) - SCORE_TIE_TOL)
                for col in cells.T.tolist()]
        np.testing.assert_array_equal(fuser.decide_ints(classes), want)
        np.testing.assert_array_equal([argmax_lex(col) for col in cells.T], want)
        np.testing.assert_array_equal(argmax_lex(cells.T), want)
        np.testing.assert_array_equal(argmax_lex(cells, axis=0), want)


class TestFuse:
    def test_unanimous_reports_win(self):
        asm = FusionAssumption(IndependentAlpha(0.3), 0.1, 0.8)
        s = np.array([1, 0, 1, 1], dtype=np.uint8)
        reports = np.tile(s, (5, 1))
        np.testing.assert_array_equal(fuse(reports, asm), s)

    def test_blinded_center_returns_zero(self):
        # assumed delta of one half makes every hypothesis equally likely
        asm = FusionAssumption(UnconstrainedMaxEntropy(), 0.1, 1.0)
        rng = np.random.default_rng(1)
        for _ in range(10):
            reports = random_reports(rng, 4, 1)
            np.testing.assert_array_equal(fuse(reports, asm), [0])

    def test_majority_of_honest_nodes(self):
        # strong honest majority assumption decodes by majority on clean data
        asm = FusionAssumption(IndependentAlpha(0.05), 0.1, 1.0)
        reports = np.array([[1, 0], [1, 0], [1, 0], [0, 1], [1, 0]], dtype=np.uint8)
        np.testing.assert_array_equal(fuse(reports, asm), [1, 0])

    def test_out_of_range_reports_are_rejected(self):
        # a 2 once packed into the next bit: [[0, 1], [0, 2], [1, 0]] decoded
        # as [[0, 1], [1, 0], [1, 0]]
        asm = FusionAssumption(FixedCount(1), 0.1, 0.8)
        for reports in ([[0, 1], [0, 2], [1, 0]], [[0, 1], [0, -1], [1, 0]]):
            with pytest.raises(ValueError, match="0 or 1"):
                fuse(reports, asm)

    def test_m_cap(self):
        asm = FusionAssumption(UnconstrainedMaxEntropy(), 0.1, 0.8)
        for m in (BatchFuser.MAX_M + 1, 25):
            with pytest.raises(ValueError):
                fuse(np.zeros((2, m), dtype=np.uint8), asm)

    def test_majority_vote(self):
        r = np.array([[1, 0, 1], [1, 1, 0], [0, 1, 0]], dtype=np.uint8)
        assert majority_column(pack_bits(r)[None], 3) == pack_bits(np.array([1, 1, 0]))
        # even split resolves to zero
        r = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        assert majority_column(pack_bits(r)[None], 2) == 0
        # a batch of packed rows votes trial by trial, bit by bit
        batch = pack_bits(np.random.default_rng(7).integers(0, 2, size=(20, 5, 3)))
        votes = majority_column(batch, 3)
        np.testing.assert_array_equal(votes, majority_by_bits(batch, 3))
        np.testing.assert_array_equal(
            votes, pack_bits(2 * unpack_bits(batch, 3).sum(axis=-2) > 5))

    def test_majority_column_matches_the_bit_loop(self):
        # n = 40, m = 12 keys in two words; for even n the first trials tie
        # every bit, half the nodes reporting the complement of the other half
        rng = np.random.default_rng(29)
        for n in (1, 2, 3, 4, 7, 20, 40):
            for m in range(1, 13):
                rows = rng.integers(0, 2**m, size=(24, n))
                if n % 2 == 0:
                    rows[:8, n // 2:] = rows[:8, : n // 2] ^ (2**m - 1)
                votes = majority_column(rows, m)
                np.testing.assert_array_equal(votes, majority_by_bits(rows, m))
                if n % 2 == 0:
                    assert (votes[:8] == 0).all()


class TestBatchFuser:
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_matches_scalar_fuse(self, model):
        # against the oracle's linear-domain enumeration over placements
        rng = np.random.default_rng(2)
        for n, m in [(2, 1), (3, 2), (5, 3), (8, 4)]:
            eps = float(rng.uniform(0.05, 0.4))
            pfc = float(rng.uniform(0.5, 1.0))
            asm = FusionAssumption(model, eps, pfc)
            reports = rng.integers(0, 2, size=(64, n, m), dtype=np.uint8)
            batch = decode(BatchFuser(asm, n, m), reports)
            scalar = np.stack([exact_map_decision(r, model, eps, asm.delta_fc) for r in reports])
            np.testing.assert_array_equal(batch, scalar)
            np.testing.assert_array_equal(np.stack([fuse(r, asm) for r in reports[:8]]),
                                          scalar[:8])

    @pytest.mark.parametrize("eps,pfc", [(0.0, 1.0), (0.0, 0.5), (0.1, 1.0), (0.5, 0.9)])
    def test_matches_scalar_on_degenerate_channels(self, eps, pfc):
        # eps = 0 leaves honest weights of -inf, which only the log domain takes
        assert np.isneginf(honest_log_weights(eps, 2)).any() == (eps == 0.0)
        rng = np.random.default_rng(3)
        for model in (FixedCount(2), BoundedBelowHalf()):
            asm = FusionAssumption(model, eps, pfc)
            reports = rng.integers(0, 2, size=(32, 5, 2), dtype=np.uint8)
            batch = decode(BatchFuser(asm, 5, 2), reports)
            scalar = np.stack([scalar_decision(r, asm) for r in reports])
            np.testing.assert_array_equal(batch, scalar)

    def test_log_domain_on_overflowing_ratios_matches_scalar(self):
        # finite weights whose likelihood ratios would overflow the ratio domain
        asm = FusionAssumption(FixedCount(4), 1e-30, 0.9)
        log_ratios = honest_log_weights(asm.delta_fc, 6) - honest_log_weights(1e-30, 6)
        assert np.isfinite(log_ratios).all()
        assert 4 * log_ratios.max() > np.log(np.finfo(np.float64).max)
        fuser = BatchFuser(asm, 8, 6)
        rng = np.random.default_rng(11)
        reports = rng.integers(0, 2, size=(12, 8, 6), dtype=np.uint8)
        scalar = np.stack([scalar_decision(r, asm) for r in reports])
        np.testing.assert_array_equal(decode(fuser, reports), scalar)

    @pytest.mark.parametrize("model", [UnconstrainedMaxEntropy(), IndependentAlpha(0.3)],
                             ids=lambda m: type(m).__name__)
    def test_independent_weights_with_neg_inf(self, model):
        # eps = 0, pmal_fc = 1 makes the per-node weight -inf for 0 < c < m; a
        # type with no node in such a bin must add 0 for it, not nan
        asm = FusionAssumption(model, 0.0, 1.0)
        fuser = BatchFuser(asm, 5, 3)
        assert np.isneginf(fuser._weights).any()
        rng = np.random.default_rng(12)
        reports = rng.integers(0, 2, size=(40, 5, 3), dtype=np.uint8)
        reports[:8] = reports[:8, :1]  # unanimous rows score finitely
        assert not np.isnan(fuser.scores(pack_bits(reports))).any()
        scalar = np.stack([scalar_decision(r, asm) for r in reports])
        np.testing.assert_array_equal(decode(fuser, reports), scalar)

    @pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
    def test_repeated_report_rows_match_scalar(self, model):
        # few distinct matrices, many copies: every type is shared by many cells
        rng = np.random.default_rng(13)
        asm = FusionAssumption(model, 0.15, 0.8)
        base = rng.integers(0, 2, size=(3, 7, 3), dtype=np.uint8)
        pick = rng.integers(0, 3, size=500)
        decisions = decode(BatchFuser(asm, 7, 3), base[pick])
        scalar = np.stack([exact_map_decision(r, model, 0.15, asm.delta_fc) for r in base])
        np.testing.assert_array_equal(decisions, scalar[pick])

    def test_wide_key_matches_scalar(self):
        # 8 histogram digits of 8 bits each do not fit one int64 key word;
        # enumerating C(250, 2) subsets per hypothesis is too slow, so the
        # reference scores with the recursion (checked against it in A1)
        n, m = 250, 8
        assert _key_table(n, m)[1].shape[0] > 1
        rng = np.random.default_rng(14)
        for model in (IndependentAlpha(0.3), FixedCount(2)):
            asm = FusionAssumption(model, 0.1, 0.9)
            reports = rng.integers(0, 2, size=(2, n, m), dtype=np.uint8)
            reports[0, : n // 2] = reports[0, 0]  # a clear majority
            scalar = np.stack([scalar_decision(r, asm, recursion_subset_sum) for r in reports])
            np.testing.assert_array_equal(decode(BatchFuser(asm, n, m), reports), scalar)

    @pytest.mark.parametrize("m", [1, 4, 8])
    def test_independent_scores_from_the_float_histogram_are_bitwise(self, m):
        # the shared float64 histogram gives the int64 histogram's H . w bit
        # for bit, summed bin by bin
        rng = np.random.default_rng(16)
        n = 20
        for model in (UnconstrainedMaxEntropy(), IndependentAlpha(0.3)):
            _, rows = sample_rows(rng, model, n, m, 0.1, 0.8, 16_384 // 2**m)
            classes = TypeClasses(rows, n, m)
            for eps, pfc in ((0.1, 0.8), (0.0, 1.0), (0.3, 0.0)):
                fuser = BatchFuser(FusionAssumption(model, eps, pfc), n, m)
                want = fusion._hist_sum(classes.hist, fuser._weights)
                assert np.array_equal(fuser._type_scores(classes), want)

    def test_scores_match_log_score(self):
        # normalized log P(r | s) against the oracle's placement-by-placement sum
        rng = np.random.default_rng(4)
        n, m = 6, 3
        for model in MODELS:
            asm = FusionAssumption(model, 0.12, 0.85)
            fuser = BatchFuser(asm, n, m)
            reports = rng.integers(0, 2, size=(10, n, m), dtype=np.uint8)
            got = fuser.scores(pack_bits(reports))
            hyps = all_bit_vectors(m)
            for t in range(10):
                want = np.log([exact_likelihood(reports[t], hyps[h], model, 0.12, asm.delta_fc)
                               for h in range(2**m)])
                np.testing.assert_allclose(got[t], want, rtol=1e-10, atol=1e-10)

    def test_m_cap(self):
        asm = FusionAssumption(UnconstrainedMaxEntropy(), 0.1, 0.8)
        with pytest.raises(ValueError):
            BatchFuser(asm, 4, 13)

    def test_shape_validation(self):
        asm = FusionAssumption(UnconstrainedMaxEntropy(), 0.1, 0.8)
        fuser = BatchFuser(asm, 4, 2)
        with pytest.raises(ValueError):
            decide_columns([fuser], np.zeros((5, 3), dtype=np.int64))
        with pytest.raises(ValueError):
            decide_columns([fuser], np.zeros((5, 4, 2), dtype=np.int64))
        for reports in (np.zeros(4, dtype=np.uint8), np.zeros((1, 4, 2), dtype=np.uint8)):
            with pytest.raises(ValueError):
                fuse(reports, asm)

    def test_chunking_does_not_change_results(self, monkeypatch):
        asm = FusionAssumption(FixedCount(2), 0.1, 0.9)
        rng = np.random.default_rng(5)
        reports = rng.integers(0, 2, size=(301, 6, 3), dtype=np.uint8)
        ints = pack_bits(reports)
        a = decode(BatchFuser(asm, 6, 3), ints)
        builds = count_type_class_builds(monkeypatch, chunk_cells=64)
        b = decode(BatchFuser(asm, 6, 3), ints)
        assert len(builds) == 301
        np.testing.assert_array_equal(a, b)

    def test_decide_columns_across_chunks_matches_fresh_decodes(self, monkeypatch):
        # one TypeClasses per chunk shared by fusers of every prior, against
        # one fresh single-column decode per fuser
        rng = np.random.default_rng(15)
        ints = pack_bits(rng.integers(0, 2, size=(301, 6, 3), dtype=np.uint8))
        fusers = [BatchFuser(FusionAssumption(model, 0.1, pfc), 6, 3)
                  for model in MODELS for pfc in (0.6, 1.0)]
        fresh = [decode(BatchFuser(fuser.assumption, 6, 3), ints) for fuser in fusers]
        builds = count_type_class_builds(monkeypatch, chunk_cells=200)
        got = decide_columns(fusers, ints)
        assert len(builds) > 10
        for want, row in zip(fresh, got):
            np.testing.assert_array_equal(row, want)

    def test_tie_tol_consistency_on_blinded_center(self):
        asm = FusionAssumption(UnconstrainedMaxEntropy(), 0.1, 1.0)
        rng = np.random.default_rng(6)
        reports = rng.integers(0, 2, size=(50, 4, 1), dtype=np.uint8)
        decisions = decode(BatchFuser(asm, 4, 1), pack_bits(reports))
        np.testing.assert_array_equal(decisions, 0)


def typed_cells(ints, n, m):
    """hist[inverse] of every chunk, joined along the trial axis: (2**m, T, m + 1)."""
    return np.concatenate([c.hist[c.inverse] for _, c in fusion._typed_chunks(ints, n, m)],
                          axis=1)


def brute_histograms(ints, m):
    """H[c] of every (hypothesis, trial) cell by comparing each node row directly."""
    matches = m - np.bitwise_count(ints[None] ^ np.arange(2**m)[:, None, None])
    return (matches[..., None] == np.arange(m + 1)).sum(axis=2)


class TestTypeClassRoutes:
    """Both key builders and both rankers give every cell the same histogram."""

    # (20, 4), (4, 2), (44, 4), (64, 6) and (45, 4) count rows; (20, 5),
    # (2, 9), (3, 2), (2, 3), (20, 8) and (40, 9) have more row values than
    # nodes, and (250, 8) and (256, 8) need two key words, which a float64
    # product cannot build exactly. (64, 6), (45, 4), (20, 8) and (40, 9)
    # have too many keys for the universe's rank table; (20, 4), (20, 5) and
    # (44, 4) have too many for it at 40 trials, but not at a full chunk.
    # Sorted, one-word keys pack with the cell index, except (40, 9)'s at 40
    # trials, which an argsort orders; two-word keys are lexsorted.
    SHAPES = [(20, 4), (20, 5), (4, 2), (64, 6), (44, 4), (45, 4),
              (2, 9), (3, 2), (2, 3), (20, 8), (40, 9), (250, 8), (256, 8)]
    MAPPED = [(2, 9), (3, 2), (2, 3), (20, 4)]

    def test_predicate_edges(self):
        def routes(n, m):
            chunk = fusion._CHUNK_CELLS // (n * 2**m)
            return (fusion._keys_from_row_counts(n, m), fusion._ranks_from_universe(n, m, 40),
                    fusion._ranks_from_universe(n, m, chunk))

        assert {shape: routes(*shape) for shape in self.SHAPES} == {
            (20, 4): (True, False, True), (20, 5): (False, False, True),
            (4, 2): (True, True, True), (64, 6): (True, False, False),
            (44, 4): (True, False, True), (45, 4): (True, False, False),
            (2, 9): (False, True, True), (3, 2): (False, True, True),
            (2, 3): (False, True, True), (20, 8): (False, False, False),
            (40, 9): (False, False, False),
            (250, 8): (False, False, False), (256, 8): (False, False, False),
        }
        # the table needs a cell per 64 key values: 21**4 / (64 * 2**4) = 189.9 trials
        assert not fusion._ranks_from_universe(20, 4, 189)
        assert fusion._ranks_from_universe(20, 4, 190)

    @pytest.mark.parametrize("n,m", SHAPES)
    def test_routes_agree(self, monkeypatch, n, m):
        rng = np.random.default_rng(10 * n + m)
        ints = rng.integers(0, 2**m, size=(40, n))
        ints[:10] = ints[:10, :1]  # unanimous trials
        native = TypeClasses(ints, n, m)
        np.testing.assert_array_equal(native.hist[native.inverse], brute_histograms(ints, m))
        if _key_table(n, m)[1].shape[0] == 1:
            # one-word keys rank ascending: lexicographic on (H[m], ..., H[1])
            order = np.lexsort(native.hist[:, 1:].T)
            np.testing.assert_array_equal(order, np.arange(len(native.hist)))
        counted = fusion._keys_from_row_counts(n, m)
        ranked = fusion._ranks_from_universe(n, m, len(ints))
        # the other builder, where its float64 product stays exact
        if counted or (n + 1) ** m <= 2**53:
            monkeypatch.setattr(fusion, "_keys_from_row_counts", lambda n, m: not counted)
            forced = TypeClasses(ints, n, m)
            np.testing.assert_array_equal(forced.hist, native.hist)
            np.testing.assert_array_equal(forced.inverse, native.inverse)
            monkeypatch.undo()
        # the other ranker, where the universe's rank table is small. The
        # universe lists every type and the sort only the chunk's, so the two
        # agree on each cell's histogram, and the sort's types are the
        # present ones, or some of them where every type counts as present
        if ranked or (n + 1) ** m < 1 << 23:
            monkeypatch.setattr(fusion, "_ranks_from_universe", lambda n, m, trials: not ranked)
            forced = TypeClasses(ints, n, m)
            np.testing.assert_array_equal(forced.hist[forced.inverse], native.hist[native.inverse])
            universal, sorted_ = (native, forced) if ranked else (forced, native)
            assert sorted_.present is None
            assert len(universal.hist) == math.comb(n + m, m)
            if 40 * 2**m > fusion._DENSE_CELLS_PER_TYPE * len(universal.hist):
                assert universal.present.all()
            else:
                np.testing.assert_array_equal(universal.hist[universal.present], sorted_.hist)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_universe_lists_every_type_once(self, m):
        # every shape whose key range fits the rank table, up to n = 20
        for n in range(1, 21):
            if (n + 1) ** m > fusion._CHUNK_CELLS:
                continue
            hist, float_hist, rank = fusion._universe(n, m)
            assert hist.shape == (math.comb(n + m, m), m + 1)
            assert (hist >= 0).all() and (hist.sum(axis=1) == n).all()
            keys = hist[:, 1:] @ (n + 1) ** np.arange(m)
            # strictly ascending keys: each histogram once, in key order
            assert (np.diff(keys) > 0).all()
            np.testing.assert_array_equal(rank[keys], np.arange(len(hist)))
            np.testing.assert_array_equal(float_hist, hist)
            assert not any(a.flags.writeable for a in (hist, float_hist, rank))

    def test_kept_buffers_give_fresh_classes(self):
        # one thread's kept slots, taken by every shape in turn and by the
        # first two again, leave nothing behind: each build equals a fresh one
        rng = np.random.default_rng(12)
        for n, m in self.SHAPES + self.SHAPES[:2]:
            for trials in (40, 7):
                ints = rng.integers(0, 2**m, size=(trials, n))
                # presence is made on first read, from the kept inverse, so
                # read it before the next build
                kept = TypeClasses(ints, n, m, KEPT)
                kept_present = kept.present
                fresh = TypeClasses(ints, n, m)
                np.testing.assert_array_equal(kept.hist, fresh.hist)
                np.testing.assert_array_equal(kept.inverse, fresh.inverse)
                assert kept.universal == fresh.universal == (fresh.present is not None)
                assert (kept_present is None) == (fresh.present is None)
                if fresh.present is not None:
                    np.testing.assert_array_equal(kept_present, fresh.present)
                    # made once, then kept on the instance
                    assert kept.present is kept_present

    @pytest.mark.parametrize("counted", [True, False])
    @pytest.mark.parametrize("n,m", [(3, 2), (20, 4)])
    def test_out_of_range_ints_are_rejected(self, monkeypatch, n, m, counted):
        # (3, 2) keys node by node and (20, 4) by row counts, each also forced
        # onto the other route; node by node, a -1 once read as 2**m - 1
        monkeypatch.setattr(fusion, "_keys_from_row_counts", lambda n, m: counted)
        ints = np.random.default_rng(n).integers(0, 2**m, size=(5, n))
        ints[0, 0], ints[-1, -1] = 0, 2**m - 1
        classes = TypeClasses(ints, n, m)
        np.testing.assert_array_equal(classes.hist[classes.inverse], brute_histograms(ints, m))
        fuser = BatchFuser(FusionAssumption(FixedCount(1), 0.1, 0.8), n, m)
        for bad in (-1, -(2**m), 2**m, 2**m + 1, 2**62):
            ints[2, 1] = bad
            with pytest.raises(ValueError, match=rf"\[0, {2**m}\)"):
                TypeClasses(ints, n, m)
            with pytest.raises(ValueError, match=rf"\[0, {2**m}\)"):
                decide_columns([fuser], ints)

    def test_m_outside_the_cap_is_rejected(self, monkeypatch):
        # m = 0 once failed with an IndexError in _key_table, BatchFuser took
        # m = -1, and TypeClasses had no cap: at m = 13 it built a 512 MiB key
        # table before anything checked. The check now comes first
        def unbuilt(n, m):
            raise AssertionError(f"key table built at m = {m}")

        monkeypatch.setattr(fusion, "_key_table", unbuilt)
        asm = FusionAssumption(FixedCount(1), 0.1, 0.8)
        for m in (0, -1, BatchFuser.MAX_M + 1):
            with pytest.raises(ValueError, match=r"outside \[1, 12\]"):
                BatchFuser(asm, 3, m)
            with pytest.raises(ValueError, match=r"outside \[1, 12\]"):
                TypeClasses(np.zeros((2, 3), dtype=np.int64), 3, m)
        with pytest.raises(ValueError, match=r"outside \[1, 12\]"):
            fuse(np.zeros((3, 0), dtype=np.int64), asm)

    def test_non_integer_reports_are_rejected(self):
        # the int64 cast once truncated floats: [[0.5, 1.9, 3.2]] decoded as
        # the reports 0, 1 and 3. Whole-valued floats and bools are refused too
        fuser = BatchFuser(FusionAssumption(FixedCount(1), 0.1, 0.8), 3, 2)
        for bad in ([[0.5, 1.9, 3.2]], [[0.0, 1.0, 3.0]], [[False, True, True]]):
            bad = np.array(bad)
            for call in (lambda: TypeClasses(bad, 3, 2), lambda: decide_columns([fuser], bad),
                         lambda: fuser.scores(bad)):
                with pytest.raises(ValueError, match="integer dtype"):
                    call()
        with pytest.raises(ValueError, match="integer dtype"):
            decide_columns([fuser], np.array([[0, 1, 3]], dtype=object))
        # integer dtypes of any width, and lists of ints, decode alike
        want = decide_columns([fuser], np.array([[0, 1, 3]]))
        for good in ([[0, 1, 3]], np.array([[0, 1, 3]], np.uint8), np.array([[0, 1, 3]], np.int16)):
            np.testing.assert_array_equal(decide_columns([fuser], good), want)
            np.testing.assert_array_equal(fuser.scores(good), fuser.scores(np.array([[0, 1, 3]])))

    @pytest.mark.parametrize("n,m", MAPPED)
    def test_mapped_shapes_never_sort(self, monkeypatch, n, m):
        def no_sort(*args, **kwargs):
            raise AssertionError("keys sorted where the key range fits the rank table")

        # 200 trials give every shape here a cell per 64 key values
        ints = np.random.default_rng(17).integers(0, 2**m, size=(200, n))
        monkeypatch.setattr(fusion, "_sorted_types", no_sort)
        classes = TypeClasses(ints, n, m)
        monkeypatch.undo()
        np.testing.assert_array_equal(classes.hist[classes.inverse], brute_histograms(ints, m))

    def test_packing_edges(self):
        packs = fusion._packs_cell_index
        # 256**7 << 7 is 2**63 exactly: 128 cells pack, and 129 take a bit more
        assert packs(255, 7, 128) and not packs(255, 7, 129)
        # one node more puts the key range just above 2**56
        assert not packs(256, 7, 128)
        # 8**12 << 27 is 2**63 too; a single cell takes no index bit
        assert packs(7, 12, 2**27) and not packs(7, 12, 2**27 + 1)
        assert packs(7, 21, 1) and not packs(7, 21, 2) and not packs(8, 21, 1)
        # full chunks at n = 20 pack through m = 10, and bounded-m8's 100 trials
        full = {m: fusion.chunk_trials(20, m) * 2**m for m in (8, 10, 11)}
        assert packs(20, 8, 100 * 2**8) and packs(20, 8, full[8])
        assert packs(20, 10, full[10]) and not packs(20, 11, full[11])
        # SHAPES' (40, 9) packs at 7 trials, not at 40
        assert packs(40, 9, 7 * 2**9) and not packs(40, 9, 40 * 2**9)

    # (n, m, keys' shape (words, rows, columns), how they are ordered)
    GROUPINGS = [
        (255, 7, (1, 2, 64), "packed"),  # the packed values reach 2**63 - 1
        (255, 7, (1, 1, 1), "packed"),
        (20, 8, (1, 256, 100), "packed"),
        (255, 7, (1, 3, 43), "argsort"),
        (40, 9, (1, 512, 40), "argsort"),
        (250, 8, (2, 4, 9), "lexsort"),
        (250, 8, (2, 1, 1), "lexsort"),
    ]

    @pytest.mark.parametrize("n,m,shape,source", GROUPINGS)
    def test_grouping_matches_unique(self, n, m, shape, source):
        # uniq, read back from the digits of hist, and inverse equal
        # np.unique's, on random keys, on keys all equal and on a chunk whose
        # last cell has the largest key
        per_word = _key_table(n, m)[0]
        words, size = shape[0], shape[1] * shape[2]
        assert fusion._packs_cell_index(n, m, size) == (source == "packed")
        assert (words > 1) == (source == "lexsort")
        top = [(n + 1) ** min(per_word, m - w * per_word) for w in range(words)]
        rng = np.random.default_rng(size)
        random = np.stack([rng.integers(0, t, size=shape[1:]) for t in top])
        random[:, : shape[1] // 2] = random[:, :1, :1]  # repeated keys
        largest = random.copy()
        largest[:, -1, -1] = np.array(top) - 1
        equal = np.empty(shape, dtype=np.int64)
        equal[...] = largest[:, -1:, -1:]
        for keys in (random, largest, equal):
            hist, float_hist, inverse = fusion._sorted_types(keys.copy(), n, m, per_word, FRESH)
            want, want_inverse = np.unique(keys.reshape(words, -1).T, axis=0, return_inverse=True)
            digits = [hist[:, 1 + w * per_word: 1 + (w + 1) * per_word] for w in range(words)]
            got = np.stack([d @ (n + 1) ** np.arange(d.shape[1]) for d in digits], axis=1)
            np.testing.assert_array_equal(got, want)
            np.testing.assert_array_equal(inverse, want_inverse.reshape(-1))
            np.testing.assert_array_equal(hist[:, 0], n - hist[:, 1:].sum(axis=1))
            np.testing.assert_array_equal(float_hist, hist)

    def test_warm_sorted_builds_allocate_little(self):
        # from KEPT a warm build of a bounded-m8 chunk takes its arrays, the
        # per-type ones too, from the thread's slots: tracemalloc's peak stays
        # within 2 x cells x 8 bytes, where np.unique's build took 10x. Chunks
        # that grow, then shrink, in one thread build as fresh ones do
        n, m = 20, 8
        rng = np.random.default_rng(23)
        batches = [sample_rows(rng, BoundedBelowHalf(), n, m, 0.1, 0.8, t)[1]
                   for t in (100, 1, 12, 100, 300, 40, 2)]

        def builds():
            TypeClasses(batches[0], n, m, KEPT)
            tracemalloc.start()
            try:
                TypeClasses(batches[0], n, m, KEPT)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            kept = []
            for ints in batches[1:]:
                classes = TypeClasses(ints, n, m, KEPT)
                kept.append((classes.hist.copy(), classes.float_hist.copy(), classes.inverse.copy()))
            return peak, kept

        peak, kept = in_fresh_thread(builds)
        assert peak <= 2 * 100 * 2**m * 8
        for ints, arrays in zip(batches[1:], kept):
            fresh = TypeClasses(ints, n, m)
            assert not fresh.universal
            for got, want in zip(arrays, (fresh.hist, fresh.float_hist, fresh.inverse)):
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("counted", [True, False])
    def test_routes_agree_across_chunks(self, monkeypatch, counted):
        n, m = 20, 4
        ints = np.random.default_rng(16).integers(0, 2**m, size=(45, n))
        builds = count_type_class_builds(monkeypatch, chunk_cells=7 * n * 2**m)
        monkeypatch.setattr(fusion, "_keys_from_row_counts", lambda n, m: counted)
        np.testing.assert_array_equal(typed_cells(ints, n, m), brute_histograms(ints, m))
        assert builds == [7] * 6 + [3]

    def test_benchmark_covers_both_routes(self):
        workloads = load_perfbench("workloads")
        n = workloads.N
        counted, mapped = set(), set()
        for _, m, trials, *_ in workloads.PAYOFF.values():
            # one row's trials go through decide_columns in chunks of `step`
            step = fusion._CHUNK_CELLS // (n * 2**m)
            chunks = {min(step, trials - start) for start in range(0, trials, step)}
            counted.add(fusion._keys_from_row_counts(n, m))
            mapped |= {fusion._ranks_from_universe(n, m, chunk) for chunk in chunks}
        assert counted == {True, False}
        assert mapped == {True, False}

    def test_exact_sweep_builds_each_table_once(self):
        # the benchmark's exact sweep visits four shapes; once one sweep has
        # built their key tables and universes, the next builds none
        workloads = load_perfbench("workloads")

        def sweep():
            for n, m, pmal_b, pmal_fc, (cls, args) in workloads.exact_specs():
                model = getattr(model_module, cls)(*args)
                exact_error_probability(
                    ExactScenario(n, m, workloads.EPS, pmal_b, pmal_fc, model, model))

        def misses():
            return fusion._key_table.cache_info().misses, fusion._universe.cache_info().misses

        sweep()
        built = misses()
        sweep()
        assert misses() == built


def count_priors(n):
    """FixedCount 0, 1, n // 3, n - 1 and n; BoundedBelowHalf by default, at k_max 1 and n - 1."""
    return ([FixedCount(k) for k in (0, 1, n // 3, n - 1, n)]
            + [BoundedBelowHalf(), BoundedBelowHalf(1), BoundedBelowHalf(n - 1)])


def count_prior_batch(rng, model, n, m, trials):
    """`trials` rows drawn from `model` (eps 0.1, pmal_b 0.8), then as many
    uniform ones, a quarter of them unanimous: (2 * trials, n) packed."""
    _, drawn = sample_rows(rng, model, n, m, 0.1, 0.8, trials)
    uniform = rng.integers(0, 2**m, size=(trials, n))
    uniform[: trials // 4] = uniform[: trials // 4, :1]
    return np.concatenate([drawn, uniform])


def count_subset_sum_calls(monkeypatch):
    """The weight group of each multiset, one array a dp.subset_sums call, from here on."""
    calls = []

    def counted(logb, logh, hist, k_lo, k_hi, group=None):
        calls.append(np.zeros(len(hist), dtype=np.intp) if group is None else group)
        return subset_sums(logb, logh, hist, k_lo, k_hi, group)

    monkeypatch.setattr(fusion.dp, "subset_sums", counted)
    return calls


def lead_types(fusers, classes):
    """How many types lead some trial of `classes` under each fuser's bounds, a list.

    A trial's lead type is the type of its cell with the largest bound.
    """
    bounds = fusion._type_bounds(fusers, classes.float_hist)
    trials = np.arange(classes.inverse.shape[1])
    leads = [classes.inverse[b[classes.inverse].argmax(axis=0), trials] for b in bounds]
    return [len(np.unique(lead)) for lead in leads]


class RouteLog(threading.local, UserList):
    """A list of route entries for each thread; it reads as the calling thread's."""


def record_routes(monkeypatch):
    """The routes of the count-prior type scorings from here on, one entry a fuser's scoring.

    "full" is a whole-chunk score, "bound" bound-and-verify on a sorted chunk,
    and "bound-universe" bound-and-verify on a chunk ranked through the
    universe: one entry for each fuser the chunk's joint bound scores. Each
    thread logs to a list of its own.
    """
    routes = RouteLog()
    full, bound = BatchFuser._type_scores, fusion._bounded_type_scores

    def full_recorded(self, classes):
        if self._k_range is not None:
            routes.append("full")
        return full(self, classes)

    def bound_recorded(fusers, classes):
        scores = bound(fusers, classes)
        route = "bound-universe" if classes.universal else "bound"
        routes.extend(route for column in scores if column is not None)
        return scores

    monkeypatch.setattr(BatchFuser, "_type_scores", full_recorded)
    monkeypatch.setattr(fusion, "_bounded_type_scores", bound_recorded)
    return routes


class TestDecodeRoutes:
    """Count priors decode the same by full scoring and by bound-and-verify."""

    N = 7
    # eps 0 and pmal_fc 0 or 1 give -inf weights; eps 0.5 a blind center
    ASSUMPTIONS = [(eps, pfc) for eps in (0.0, 0.1, 0.5) for pfc in (0.0, 0.5, 1.0)]

    def fusers(self, model, m):
        return [BatchFuser(FusionAssumption(model, eps, pfc), self.N, m)
                for eps, pfc in self.ASSUMPTIONS]

    @pytest.mark.parametrize("model", count_priors(N), ids=repr)
    def test_bound_covers_every_type(self, model):
        rng = np.random.default_rng(21)
        for m in (1, 3, 5, 8):
            classes = TypeClasses(count_prior_batch(rng, model, self.N, m, 20), self.N, m)
            # the types some cell has; a universe type outside `present` scores -inf
            seen = np.unique(classes.inverse)
            for fuser in self.fusers(model, m):
                exact = fuser._type_scores(classes)
                bound = fusion._type_bounds([fuser], classes.hist)[0]
                # a -inf bound admits only a -inf score
                assert (exact <= bound + 1e-9).all()
                if model in (FixedCount(0), FixedCount(self.N)):
                    # one admissible count at rate 0 or 1: the bound is the score
                    np.testing.assert_allclose(bound[seen], exact[seen], rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("model", count_priors(N), ids=repr)
    def test_forced_routes_agree(self, monkeypatch, model, m):
        ints = count_prior_batch(np.random.default_rng(m), model, self.N, m, 30)
        fusers = self.fusers(model, m)
        scored = []

        def counted(logb, logh, hist, k_lo, k_hi, group=None):
            scored[-1] += len(hist)
            return subset_sums(logb, logh, hist, k_lo, k_hi, group)

        # the batch is sorted at every m: a chunk ranked through the universe
        # never bounds, and would read the fusers' kept scores the second time
        monkeypatch.setattr(fusion, "_ranks_from_universe", lambda n, m, trials: False)
        monkeypatch.setattr(fusion.dp, "subset_sums", counted)
        routes = record_routes(monkeypatch)
        decided = []
        for bounded in (False, True):
            monkeypatch.setattr(fusion, "_decodes_by_bound", lambda cells, types: bounded)
            scored.append(0)
            routes.clear()
            decided.append(decide_columns(fusers, ints))
            assert routes == ["bound" if bounded else "full"] * len(fusers)
        np.testing.assert_array_equal(decided[1], decided[0])
        # bound-and-verify scores each type at most once, and skips some from m = 3
        assert scored[1] <= scored[0]
        assert m < 3 or scored[1] < scored[0]

    def test_bound_route_sums_no_empty_batch(self, monkeypatch):
        # the second exact pass is skipped where no type beyond the trials'
        # lead types comes within the margin in any column; on the
        # benchmark's bounded-m8 shape (n = 20, m = 8, 100 trials a row) that
        # holds for some rows
        n, m = 20, 8
        calls = count_subset_sum_calls(monkeypatch)
        routes = record_routes(monkeypatch)
        grid = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
        fusers = [BatchFuser(FusionAssumption(BoundedBelowHalf(), 0.1, p), n, m) for p in grid]
        for i, pmal_b in enumerate(grid):
            rng = np.random.default_rng(i)
            decide_columns(fusers, sample_rows(rng, BoundedBelowHalf(), n, m, 0.1, pmal_b, 100)[1])
        assert routes == ["bound"] * len(grid) ** 2
        # a call per row for every column's lead types, and not always a second
        assert len(grid) <= len(calls) < 2 * len(grid)
        assert all(len(group) for group in calls)

    @pytest.mark.parametrize("m", [1, 3, 5, 8])
    @pytest.mark.parametrize("model", count_priors(N), ids=repr)
    def test_columns_bound_together(self, monkeypatch, model, m):
        # a sorted chunk that all nine columns bound makes one dp.subset_sums
        # call for every column's own lead types and, where any type is left
        # within the margin, one for the rest; bounding column by column made
        # up to two a column. Each column decides as it does alone
        ints = count_prior_batch(np.random.default_rng(50 + m), model, self.N, m, 30)
        fusers = self.fusers(model, m)
        monkeypatch.setattr(fusion, "_ranks_from_universe", lambda n, m, trials: False)
        monkeypatch.setattr(fusion, "_decodes_by_bound", lambda cells, types: True)
        alone = np.stack([decide_columns([fuser], ints)[0] for fuser in fusers])
        calls = count_subset_sum_calls(monkeypatch)
        routes = record_routes(monkeypatch)
        np.testing.assert_array_equal(decide_columns(fusers, ints), alone)
        assert routes == ["bound"] * len(fusers)
        assert len(calls) == 1 + (model not in (FixedCount(0), FixedCount(self.N)) or m > 1)
        leads = lead_types(fusers, TypeClasses(ints, self.N, m))
        assert np.bincount(calls[0], minlength=len(fusers)).tolist() == leads

    def test_columns_bound_together_by_count_range(self, monkeypatch):
        # fusers of every count prior, two flip rates each, and an independent
        # prior in one call: the count priors bound the sorted chunk together
        # per admissible count range, in one or two calls each, and every
        # fuser decides as it does alone
        m = 5
        models = count_priors(self.N) + [IndependentAlpha(0.3)]
        fusers = [BatchFuser(FusionAssumption(model, 0.1, pfc), self.N, m)
                  for model in models for pfc in (0.6, 1.0)]
        ints = count_prior_batch(np.random.default_rng(55), BoundedBelowHalf(), self.N, m, 30)
        monkeypatch.setattr(fusion, "_ranks_from_universe", lambda n, m, trials: False)
        monkeypatch.setattr(fusion, "_decodes_by_bound", lambda cells, types: True)
        alone = np.stack([decide_columns([fuser], ints)[0] for fuser in fusers])
        # from kept buffers too, where every range's scores are rows of one slot
        kept = in_fresh_thread(lambda: decide_columns(fusers, ints, KEPT).copy())
        np.testing.assert_array_equal(kept, alone)
        calls = count_subset_sum_calls(monkeypatch)
        routes = record_routes(monkeypatch)
        np.testing.assert_array_equal(decide_columns(fusers, ints), alone)
        assert routes == ["bound"] * (len(fusers) - 2)
        ranges = len({fuser._k_range for fuser in fusers} - {None})
        assert ranges == 8
        assert ranges <= len(calls) <= 2 * ranges
        # each call sums the types of one count range's two columns
        assert all(set(np.unique(group)) <= {0, 1} for group in calls)

    def test_benchmark_columns_bound_together(self, monkeypatch):
        # the benchmark's bounded-m8 shape, n = 20, m = 8 and 100 trials a
        # row: every row's six columns share one dp.subset_sums call for
        # their lead types, and a second on some rows, and decide as each
        # does alone
        n, m = 20, 8
        grid = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
        fusers = [BatchFuser(FusionAssumption(BoundedBelowHalf(), 0.1, p), n, m) for p in grid]
        per_row = []
        for i, pmal_b in enumerate(grid):
            ints = sample_rows(np.random.default_rng(60 + i), BoundedBelowHalf(), n, m, 0.1,
                               pmal_b, 100)[1]
            alone = np.stack([decide_columns([fuser], ints)[0] for fuser in fusers])
            calls = count_subset_sum_calls(monkeypatch)
            np.testing.assert_array_equal(decide_columns(fusers, ints), alone)
            monkeypatch.undo()
            leads = lead_types(fusers, TypeClasses(ints, n, m))
            assert np.bincount(calls[0], minlength=len(fusers)).tolist() == leads
            per_row.append(len(calls))
        assert set(per_row) == {1, 2}

    @pytest.mark.parametrize("m", [5, 8])
    def test_routes_agree_across_chunks(self, monkeypatch, m):
        ints = count_prior_batch(np.random.default_rng(22), BoundedBelowHalf(), self.N, m, 25)
        fusers = self.fusers(BoundedBelowHalf(), m)
        whole = decide_columns(fusers, ints)
        builds = count_type_class_builds(monkeypatch, chunk_cells=7 * self.N * 2**m)
        routes = record_routes(monkeypatch)
        for bounded in (False, True):
            monkeypatch.setattr(fusion, "_decodes_by_bound", lambda cells, types: bounded)
            np.testing.assert_array_equal(decide_columns(fusers, ints), whole)
        assert builds == 2 * ([7] * 7 + [1])
        # chunks of 7 trials sort their keys at m = 5 and 8, so the forced
        # route bounds every chunk
        assert routes == ["full" if i < 8 * len(fusers) else "bound" for i in range(len(routes))]
        assert len(routes) == 16 * len(fusers)

    def test_predicate_edges(self):
        route = fusion._decodes_by_bound
        # at any m, bounding needs at least _BOUND_MIN_TYPES = 1536 types and
        # at most _BOUND_CELLS_PER_TYPE = 16 cells, 2**m per trial, per type
        assert (fusion._BOUND_MIN_TYPES, fusion._BOUND_CELLS_PER_TYPE) == (1536, 16)
        for m, trials in ((1, 12288), (4, 1536), (8, 96), (12, 6)):
            assert route(2**m * trials, 1536) and not route(2**m * (trials + 1), 1536)
            assert route(2**m * (trials - 1), 1536) and not route(2**m * (trials - 1), 1535)

    def test_benchmark_decodes_by_both_routes(self, monkeypatch):
        workloads = load_perfbench("workloads")
        routes = record_routes(monkeypatch)
        grid = StrategyGrid(workloads.GRID)
        taken = {}
        for name, ((cls, args), m, trials, *_) in workloads.PAYOFF.items():
            model = getattr(model_module, cls)(*args)
            routes.clear()
            estimate_payoff_matrix(Scenario(workloads.N, m, workloads.EPS, model, model),
                                   grid, grid, trials=trials, seed=1)
            taken[name] = set(routes)
        # an independent prior takes neither count-prior route
        assert taken == {"indep-m4": set(), "fixed6-m4": {"full"}, "bounded-m8": {"bound"}}
        routes.clear()
        for n, m, pmal_b, pmal_fc, (cls, args) in workloads.exact_specs():
            model = getattr(model_module, cls)(*args)
            scenario = ExactScenario(n, m, workloads.EPS, pmal_b, pmal_fc, model, model)
            exact_error_probability(scenario)
        assert set(routes) == {"full"}

    @pytest.mark.parametrize("m", range(1, 6))
    def test_universe_chunks_never_bound(self, monkeypatch, m):
        # a chunk ranked through the universe reads the fusers' kept scores,
        # even where _decodes_by_bound would say yes
        ints = count_prior_batch(np.random.default_rng(30 + m), BoundedBelowHalf(), self.N, m, 30)
        assert fusion._ranks_from_universe(self.N, m, len(ints))
        want = decide_columns(self.fusers(BoundedBelowHalf(), m), ints)
        fusers = self.fusers(BoundedBelowHalf(), m)
        monkeypatch.setattr(fusion, "_decodes_by_bound", lambda cells, types: True)
        routes = record_routes(monkeypatch)
        np.testing.assert_array_equal(decide_columns(fusers, ints), want)
        assert routes == ["full"] * len(fusers)

    def test_sorted_chunks_bound_below_m5(self, monkeypatch):
        # n = 60, m = 4, fixed:20 at 300 trials a row: each row is one sorted
        # chunk of more than 1536 types, so all 36 decodes bound, and the
        # payoff matrix is the bits full scoring gives
        sc = Scenario(60, 4, 0.1, FixedCount(20), FixedCount(20))
        grid = StrategyGrid(DEFAULT_GRID)
        routes = record_routes(monkeypatch)
        got = estimate_payoff_matrix(sc, grid, grid, trials=300, seed=1)
        assert routes == ["bound"] * 36
        monkeypatch.setattr(fusion, "_decodes_by_bound", lambda cells, types: False)
        routes.clear()
        want = estimate_payoff_matrix(sc, grid, grid, trials=300, seed=1)
        assert routes == ["full"] * 36
        for field in ("pe_component", "pe_sequence", "se_component", "se_sequence"):
            np.testing.assert_array_equal(getattr(got, field), getattr(want, field))


class TestTypeMemo:
    """Count-prior fusers sum each universe type once and read it back bit for bit."""

    N = 7

    @pytest.mark.parametrize("m", range(1, 7))
    @pytest.mark.parametrize("model", [FixedCount(2), FixedCount(5), BoundedBelowHalf()], ids=repr)
    def test_kept_scores_match_a_fresh_fuser(self, monkeypatch, model, m):
        rng = np.random.default_rng(40 + m)
        # chunks drawn at several flip rates and sizes, all ranked through the
        # universe: 440 and 500 trials have more than 16 cells per universe
        # type at every m here, and 64 to 100 trials fewer from m = 2
        chunks = []
        for pmal_b, trials in ((0.5, 64), (0.8, 500), (1.0, 100), (0.7, 440), (0.6, 70)):
            _, rows = sample_rows(rng, model, self.N, m, 0.1, pmal_b, trials)
            chunks.append(TypeClasses(rows, self.N, m))
        assert all(c.present is not None for c in chunks)
        dense = [c.inverse.size > fusion._DENSE_CELLS_PER_TYPE * len(c.hist) for c in chunks]
        assert dense[1] and dense[3] and (m == 1 or not any(dense[::2]))
        # a dense chunk counts every type as present
        assert all(c.present.all() for c, d in zip(chunks, dense) if d)
        distinct = np.count_nonzero(np.logical_or.reduce([c.present for c in chunks]))
        summed = []

        def counted(logb, logh, hist, k_lo, k_hi, group=None):
            summed[-1] += len(hist)
            return subset_sums(logb, logh, hist, k_lo, k_hi, group)

        # eps 0.1 sums in the ratio domain, eps 0 in the log domain
        for eps, pmal_fc in ((0.1, 0.7), (0.1, 1.0), (0.0, 0.8), (0.0, 1.0)):
            asm = FusionAssumption(model, eps, pmal_fc)
            fresh = [BatchFuser(asm, self.N, m)._type_scores(c) for c in chunks]
            # every universe type's score, summed in one batch
            whole = BatchFuser(asm, self.N, m)._subset_sums(chunks[0].hist)
            # two fusers in step; a third lags a chunk behind
            fusers = [BatchFuser(asm, self.N, m) for _ in range(3)]
            monkeypatch.setattr(fusion.dp, "subset_sums", counted)
            summed.append(0)
            for visit, i in enumerate(np.concatenate([rng.permutation(5), rng.permutation(5)])):
                present = chunks[i].present
                for fuser in fusers[: 2 + (visit > 0)]:
                    kept = fuser._type_scores(chunks[i])
                    assert np.array_equal(kept[present], fresh[i][present])
                    # a type no cell has reads its score once summed, else -inf
                    assert (np.isneginf(kept) | (kept == whole))[~present].all()
            monkeypatch.undo()
            assert summed[-1] == 3 * distinct

    @pytest.mark.parametrize("n", [N, 17])
    def test_chunk_scores_do_not_depend_on_the_batch(self, n):
        # every type of a sorted chunk, scored in the chunk's batch and in
        # batches of one; at n = 17 the bounded prior sums 9 counts
        rng = np.random.default_rng(41)
        for model in (FixedCount(3), BoundedBelowHalf(), IndependentAlpha(0.3),
                      UnconstrainedMaxEntropy()):
            for eps in (0.1, 0.0):
                fuser = BatchFuser(FusionAssumption(model, eps, 0.9), n, 6)
                _, rows = sample_rows(rng, model, n, 6, 0.1, 0.8, 30)
                classes = TypeClasses(rows, n, 6)
                assert not classes.universal
                if fuser._k_range is None:
                    alone = [fusion._hist_sum(h[None], fuser._weights) for h in classes.hist]
                else:
                    alone = [fuser._subset_sums(h[None]) for h in classes.hist]
                assert np.array_equal(fuser._type_scores(classes), np.concatenate(alone))


def count_presence_reads(monkeypatch):
    """The route flag of each TypeClasses whose `present` is read from here on, one a read."""
    reads = []
    present = TypeClasses.present.fget

    def counted(self):
        reads.append(self.universal)
        return present(self)

    monkeypatch.setattr(TypeClasses, "present", property(counted))
    return reads


class TestUniverseTables:
    """On universe-ranked chunks every fuser reads one score table over the universe."""

    INDEPENDENT = [FusionAssumption(model, eps, pfc)
                   for model in (IndependentAlpha(0.3), UnconstrainedMaxEntropy())
                   for eps, pfc in ((0.1, 0.8), (0.0, 1.0), (0.3, 0.0))] + [MAJORITY_VOTE]

    def test_independent_table_is_filled_once(self, monkeypatch):
        # three universe-ranked batches: every fuser sums the universe once,
        # bit for bit its types' scores, and sums nothing more
        n, m = 20, 4
        hist_sum, sums = fusion._hist_sum, []

        def counted(hist, w):
            sums.append(len(hist))
            return hist_sum(hist, w)

        monkeypatch.setattr(fusion, "_hist_sum", counted)
        rng = np.random.default_rng(50)
        fusers = [BatchFuser(a, n, m) for a in self.INDEPENDENT]
        for pmal_b, trials in ((0.8, 1500), (1.0, 700), (0.6, 300)):
            assert fusion._ranks_from_universe(n, m, trials)
            _, rows = sample_rows(rng, IndependentAlpha(0.3), n, m, 0.1, pmal_b, trials)
            decide_columns(fusers, rows)
        universe = fusion._universe(n, m)[0]
        assert sums == [len(universe)] * len(fusers)
        for fuser in fusers:
            assert np.array_equal(fuser._memo[0], hist_sum(universe, fuser._weights))

    @pytest.mark.parametrize("model", MODELS, ids=repr)
    def test_one_report_scores_as_in_its_batch(self, model):
        # 400 trials rank through the universe and one trial sorts, and each
        # trial's scores are the same bits either way
        n, m = 20, 4
        assert fusion._ranks_from_universe(n, m, 400)
        assert not fusion._ranks_from_universe(n, m, 1)
        _, rows = sample_rows(np.random.default_rng(51), model, n, m, 0.1, 0.8, 400)
        for eps, pfc in ((0.1, 0.8), (0.0, 1.0)):
            fuser = BatchFuser(FusionAssumption(model, eps, pfc), n, m)
            batch = fuser.scores(rows)
            for t in range(0, 400, 25):
                assert np.array_equal(fuser.scores(rows[t : t + 1])[0], batch[t])

    def test_independent_decodes_never_compute_presence(self, monkeypatch):
        # a payoff matrix of sparse universe chunks, 600 trials a row: the
        # independent columns and majority read no presence mark; a fixed
        # prior's columns read one per column and row, none of them complete
        n, m = 20, 4
        assert fusion._ranks_from_universe(n, m, 600)
        reads = count_presence_reads(monkeypatch)
        model = IndependentAlpha(0.3)
        grid = StrategyGrid(DEFAULT_GRID)
        estimate_payoff_and_majority(Scenario(n, m, 0.1, model, model), grid, grid, 600, 1,
                                     "per-component", 1)
        assert reads == []
        model = FixedCount(6)
        estimate_payoff_matrix(Scenario(n, m, 0.1, model, model), grid, grid, trials=600, seed=1)
        assert reads == [True] * 36

    @pytest.mark.parametrize("model", [FixedCount(2), BoundedBelowHalf()], ids=repr)
    def test_full_count_table_reads_no_presence(self, monkeypatch, model):
        # n = 7, m = 3 has 120 universe types: a sparse chunk of 20 trials
        # reads its marks, a dense one of 250 sums every type, and after it
        # no chunk reads presence, and each reads the whole universe's scores
        n, m = 7, 3
        rng = np.random.default_rng(52)
        sparse, dense = (TypeClasses(sample_rows(rng, model, n, m, 0.1, 0.8, t)[1], n, m)
                         for t in (20, 250))
        assert sparse.universal and dense.universal
        assert not sparse.present.all() and dense.present.all()
        reads = count_presence_reads(monkeypatch)
        fuser = BatchFuser(FusionAssumption(model, 0.1, 0.9), n, m)
        whole = fuser._subset_sums(dense.hist)
        fuser.decide_ints(sparse)
        fuser.decide_ints(dense)
        assert len(reads) == 2
        for classes in (sparse, dense, sparse):
            fuser.decide_ints(classes)
            assert np.array_equal(fuser._type_scores(classes), whole)
        assert len(reads) == 2


def test_tracer_counts_every_decoded_trial():
    # the benchmark's fusion.decode layer wraps BatchFuser.decide_ints and
    # counts one trial per decision, on the payoff matrices and the oracle alike
    tracer = load_perfbench("tracer").Tracer()
    tracer.install()
    try:
        model = FixedCount(1)
        grid = StrategyGrid((0.6, 1.0))
        estimate_payoff_matrix(Scenario(6, 2, 0.1, model, model), grid, grid, trials=50, seed=1)
        exact_error_probability(ExactScenario(3, 2, 0.1, 0.8, 0.8, model, model))
    finally:
        tracer.remove()
    assert "byzfusion.fusion:BatchFuser.decide_ints" not in tracer.absent
    # the oracle decodes one row per report type, C(3 + 2**2 - 1, 3) of them
    assert tracer.counts["fusion.decode_trials"] == 2 * 2 * 50 + math.comb(3 + 3, 3)


@st.composite
def decoding_cases(draw):
    """A fuser for one of the four priors at small n and m, plus a report batch."""
    model = draw(st.sampled_from(MODELS))
    n = draw(st.integers(2, 6))
    m = draw(st.integers(1, 4))
    eps = draw(st.floats(0.01, 0.45))
    pfc = draw(st.floats(0.5, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ints = rng.integers(0, 2**m, size=(24, n))
    return BatchFuser(FusionAssumption(model, eps, pfc), n, m), ints, rng


class TestDecoderSymmetries:
    """The symmetries type-class decoding relies on, checked on decide_columns."""

    @settings(settings.get_profile("byzfusion"), max_examples=60)
    @given(decoding_cases())
    def test_node_permutation_invariance(self, case):
        fuser, ints, rng = case
        perm = rng.permutation(fuser.n)
        np.testing.assert_array_equal(decode(fuser, ints[:, perm]), decode(fuser, ints))

    @settings(settings.get_profile("byzfusion"), max_examples=60)
    @given(decoding_cases())
    def test_xor_equivariance(self, case):
        # XOR-ing the state and every report by one mask XORs the decision by
        # it, so the error is unchanged; ties may break differently, so only
        # trials with a clear winner are compared
        fuser, ints, rng = case
        mask = int(rng.integers(0, 2**fuser.m))
        ranked = np.sort(fuser.scores(ints), axis=1)
        clear = ranked[:, -1] - ranked[:, -2] > SCORE_TIE_TOL
        want = decode(fuser, ints) ^ mask
        np.testing.assert_array_equal(decode(fuser, ints ^ mask)[clear], want[clear])


def test_assumption_validation():
    with pytest.raises(ValueError):
        FusionAssumption(UnconstrainedMaxEntropy(), 1.2, 0.5)
    with pytest.raises(ValueError):
        FusionAssumption(UnconstrainedMaxEntropy(), 0.1, -0.5)
    asm = FusionAssumption(UnconstrainedMaxEntropy(), 0.1, 1.0)
    assert asm.delta_fc == pytest.approx(0.9)
