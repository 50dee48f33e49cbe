import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import logsumexp

from byzfusion import dp
from byzfusion.dp import live_cells, naive_subset_sum, subset_sums


def from_linear(b, h):
    """(logb, logh) of linear per-node weights; a zero weight becomes -inf."""
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(b, dtype=np.float64)), np.log(np.asarray(h, dtype=np.float64))


def random_weights(rng, n, allow_zero=False):
    b = rng.random(n)
    h = rng.random(n)
    if allow_zero:
        b[rng.random(n) < 0.2] = 0.0
        h[rng.random(n) < 0.2] = 0.0
    return from_linear(b, h)


def per_node_sums(w, k_lo, k_hi):
    """subset_sums on one multiset in which every node has a bin of its own."""
    logb, logh = w
    n = len(logb)
    return float(subset_sums(logb, logh, np.ones((1, n), dtype=np.int64), k_lo, k_hi)[0])


def subset_sum(w, k):
    """log f(n, k) through subset_sums."""
    return per_node_sums(w, k, k)


def count_by_count_sums(logb, logh, counts, hist, k_lo, k_hi):
    """subset_sums with one numpy operation per live (node, count) cell.

    The reference the slice updates must match bit for bit: the same domain
    choice, and the same floating-point operations on every cell.
    """
    n, batch = counts.shape
    with np.errstate(invalid="ignore"):
        ratios = logb - logh
    finite = np.isfinite(ratios)
    headroom = np.inf
    if np.isfinite(logh).all():
        widest = np.abs(ratios[finite]).max(initial=0.0)
        headroom = math.lgamma(n + 1) - math.lgamma(k_hi + 1) - math.lgamma(n - k_hi + 1)
        headroom += max(k_hi, 1) * widest
    if headroom < dp._RATIO_HEADROOM:
        ratio = np.exp(ratios)
        esym = np.zeros((k_hi + 1, batch))
        esym[0] = 1.0
        for i, ks in live_cells(n, k_lo, k_hi):
            r_i = ratio[counts[i]]
            for k in ks:
                esym[k] += r_i * esym[k - 1]
        with np.errstate(divide="ignore"):
            return (hist * logh).sum(axis=1) + np.log(np.cumsum(esym[k_lo:], axis=0)[-1])
    g = np.full((k_hi + 1, batch), -np.inf)
    g[0] = 0.0
    for i, ks in live_cells(n, k_lo, k_hi):
        lh_i = logh[counts[i]]
        lb_i = logb[counts[i]]
        for k in ks:
            g[k] = np.logaddexp(g[k] + lh_i, g[k - 1] + lb_i)
        g[0] += lh_i
    return np.logaddexp.reduce(g[k_lo:], axis=0)


def interior_evals(n, k):
    """Two-term cells the recursion visits for one count k."""
    return sum(len(ks) for _, ks in live_cells(n, k, k))


class TestSubsetSum:
    def test_closed_form_edges(self):
        rng = np.random.default_rng(0)
        w = random_weights(rng, 8)
        assert subset_sum(w, 0) == pytest.approx(w[1].sum())
        assert subset_sum(w, 8) == pytest.approx(w[0].sum())

    def test_single_node(self):
        w = from_linear([0.3], [0.6])
        assert subset_sum(w, 0) == pytest.approx(math.log(0.6))
        assert subset_sum(w, 1) == pytest.approx(math.log(0.3))

    def test_against_naive(self):
        rng = np.random.default_rng(1)
        for _ in range(60):
            n = int(rng.integers(1, 12))
            k = int(rng.integers(0, n + 1))
            w = random_weights(rng, n, allow_zero=True)
            got = subset_sum(w, k)
            want = naive_subset_sum(*w, k)
            if math.isinf(want):
                assert math.isinf(got)
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_naive_sum_matches_scipy_logsumexp(self):
        # scipy's logsumexp over the same subset terms is a test-only
        # reference for the naive sum's own: zero weights, empty sums, and
        # terms near -4,000, whose exp underflows unless shifted
        rng = np.random.default_rng(14)
        cases = [(random_weights(rng, n, allow_zero=True), k)
                 for n in range(1, 10) for k in range(n + 1) for _ in range(3)]
        cases.append((from_linear([0.0, 0.0, 0.0], [0.5, 0.5, 0.5]), 2))
        cases += [(tuple(w - 800.0 for w in random_weights(rng, 5)), k) for k in range(6)]
        for (logb, logh), k in cases:
            n = len(logb)
            terms = [sum(logb[i] if i in s else logh[i] for i in range(n))
                     for s in map(set, itertools.combinations(range(n), k))]
            want = float(logsumexp(terms))
            got = naive_subset_sum(logb, logh, k)
            if math.isinf(want):
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_bernoulli_identity(self):
        # equal weights across nodes: f(n, k) reduces to C(n,k) b^k h^(n-k)
        n, k = 9, 4
        w = from_linear(np.full(n, 0.2), np.full(n, 0.7))
        expected = math.log(math.comb(n, k)) + k * math.log(0.2) + (n - k) * math.log(0.7)
        assert subset_sum(w, k) == pytest.approx(expected)

    def test_all_zero_branch(self):
        # k=1 but every byzantine weight is zero: the sum is empty
        w = from_linear([0.0, 0.0], [0.5, 0.5])
        assert subset_sum(w, 1) == -np.inf

    def test_k_out_of_range(self):
        w = random_weights(np.random.default_rng(2), 4)
        with pytest.raises(ValueError):
            subset_sum(w, 5)
        with pytest.raises(ValueError):
            subset_sum(w, -1)
        with pytest.raises(ValueError):
            per_node_sums(w, 3, 2)
        with pytest.raises(ValueError, match="equal length"):
            naive_subset_sum(np.zeros(3), np.zeros(4), 1)

    def test_multisets_of_unequal_size_are_rejected(self):
        hist = np.array([[2, 1, 0], [1, 1, 0]])
        with pytest.raises(ValueError, match="same number of nodes"):
            subset_sums(np.zeros(3), np.zeros(3), hist, 0, 2)
        with pytest.raises(ValueError, match="same number of nodes"):
            subset_sums(np.zeros(3), np.zeros(3), hist[::-1], 0, 2)

    def test_empty_batch(self):
        # no multiset gives no n to check k_hi against, only 0 <= k_lo <= k_hi
        for bins in (1, 5):
            empty = np.zeros((0, bins), dtype=np.int64)
            got = subset_sums(np.zeros(bins), np.zeros(bins), empty, 0, 3)
            assert got.shape == (0,) and got.dtype == np.float64
            for k_lo, k_hi in ((3, 2), (-1, 2)):
                with pytest.raises(ValueError):
                    subset_sums(np.zeros(bins), np.zeros(bins), empty, k_lo, k_hi)

    def test_more_bins_than_a_byte_holds(self):
        # 300 nodes in bins of their own: labels past 255 must not wrap
        w = random_weights(np.random.default_rng(14), 300)
        assert subset_sum(w, 1) == pytest.approx(naive_subset_sum(*w, 1), rel=1e-12)

    def test_interior_eval_bound(self):
        for n, k in [(1, 0), (1, 1), (5, 2), (12, 6), (30, 9), (30, 30), (25, 1)]:
            assert interior_evals(n, k) <= k * (n - k + 1)

    def test_eval_count_exact_interior(self):
        # for 1 <= k <= n-1 the live cells are exactly the stated bound: counts
        # 1..k, each at the n - k + 1 nodes where it can still reach k
        assert interior_evals(10, 3) == 3 * (10 - 3 + 1)
        cells = {(i, k) for i, ks in live_cells(10, 3, 3) for k in ks}
        assert cells == {(i, k) for k in range(1, 4) for i in range(k - 1, 10 - 3 + k)}

    def test_subset_sum_all_matches_individual(self):
        # one call over the count range 0..6 sums the single-count results
        rng = np.random.default_rng(5)
        w = random_weights(rng, 11, allow_zero=True)
        singles = [subset_sum(w, k) for k in range(7)]
        for k in range(7):
            want = naive_subset_sum(*w, k)
            if math.isinf(want):
                assert math.isinf(singles[k])
            else:
                assert singles[k] == pytest.approx(want, rel=1e-12)
        for lo, hi in [(0, 6), (2, 5), (6, 6)]:
            want = float(np.logaddexp.reduce(singles[lo : hi + 1]))
            assert per_node_sums(w, lo, hi) == pytest.approx(want, rel=1e-12)

    def test_both_domains_match_naive(self):
        # one count range, once through the ratio domain and once forced into
        # the log domain by an extra bin with a zero honest weight that no
        # node occupies; both must reproduce the enumeration
        rng = np.random.default_rng(7)
        for _ in range(30):
            n = int(rng.integers(1, 10))
            k_lo = int(rng.integers(0, n + 1))
            k_hi = int(rng.integers(k_lo, n + 1))
            w = random_weights(rng, n)
            want = float(np.logaddexp.reduce([naive_subset_sum(*w, k)
                                              for k in range(k_lo, k_hi + 1)]))
            hist = np.ones((1, n), dtype=np.int64)
            ratio = subset_sums(*w, hist, k_lo, k_hi)[0]
            logb = np.append(w[0], 0.0)
            logh = np.append(w[1], -np.inf)
            hist = np.append(hist, [[0]], axis=1)
            logd = subset_sums(logb, logh, hist, k_lo, k_hi)[0]
            assert ratio == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert logd == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_batch_of_multisets(self):
        # several multisets over shared bins in one call, against the
        # enumeration on each multiset's own per-node weights
        rng = np.random.default_rng(9)
        logb = np.log(rng.random(4))
        logh = np.log(rng.random(4))
        counts = np.sort(rng.integers(0, 4, size=(7, 25)), axis=0)
        hist = np.stack([np.bincount(col, minlength=4) for col in counts.T])
        got = subset_sums(logb, logh, hist, 1, 3)
        for t in range(25):
            w = (logb[counts[:, t]], logh[counts[:, t]])
            want = np.logaddexp.reduce([naive_subset_sum(*w, k) for k in range(1, 4)])
            assert got[t] == pytest.approx(float(want), rel=1e-12)

    # the default slice, one count per slice, and two counts per slice at batch 40
    @pytest.mark.parametrize("slice_bytes", [dp._SLICE_BYTES, 8, 8 * 40 * 2])
    @pytest.mark.parametrize("domain", ["ratio", "log"])
    def test_slices_match_count_by_count_bitwise(self, monkeypatch, domain, slice_bytes):
        # random multisets of up to 24 nodes over up to 9 bins, batches of
        # 0 to 40, count ranges that include [0, n], [k, n] and [0, 0], and
        # -inf weights; the log domain comes from a zero honest weight or a
        # Byzantine/honest ratio of e^700
        monkeypatch.setattr(dp, "_SLICE_BYTES", slice_bytes)
        rng = np.random.default_rng(11 if domain == "ratio" else 12)
        for case in range(300):
            n = int(rng.integers(1, 25))
            bins = int(rng.integers(1, 10))
            batch = int(rng.integers(0, 41))
            k_lo = 0 if case % 4 == 0 else int(rng.integers(0, n + 1))
            k_hi = n if case % 4 == 1 else 0 if case % 4 == 2 else int(rng.integers(k_lo, n + 1))
            k_lo = min(k_lo, k_hi)
            logb = rng.normal(size=bins)
            logh = rng.normal(size=bins)
            logb[rng.random(bins) < 0.2] = -np.inf
            if domain == "log":
                if rng.random() < 0.5:
                    logh[rng.integers(bins)] = -np.inf
                else:
                    logb[rng.integers(bins)] = logh.max() + 700.0
            counts = np.sort(rng.integers(0, bins, size=(n, batch)), axis=0).astype(np.uint8)
            hist = (counts[:, :, None] == np.arange(bins)).sum(axis=0)
            want = count_by_count_sums(logb, logh, counts, hist, k_lo, k_hi)
            got = subset_sums(logb, logh, hist, k_lo, k_hi)
            assert got.shape == (batch,)
            assert np.array_equal(got, want), (n, bins, batch, k_lo, k_hi)

    # the default slice, and one count per slice
    @pytest.mark.parametrize("slice_bytes", [dp._SLICE_BYTES, 8])
    def test_groups_match_calls_of_their_own_bitwise(self, monkeypatch, slice_bytes):
        # up to 5 weight groups in one batch, each multiset against a call
        # with its group's weights alone: groups in the ratio domain, in the
        # log domain (a zero honest weight or a ratio of e^700) and batches
        # that mix them, -inf weights, k_lo = k_hi, and a last group that no
        # multiset reads
        monkeypatch.setattr(dp, "_SLICE_BYTES", slice_bytes)
        domains = []
        ratio_sums, log_sums = dp._ratio_sums, dp._log_sums

        def ratio_recorded(*args):
            domains[-1].add("ratio")
            return ratio_sums(*args)

        def log_recorded(*args):
            domains[-1].add("log")
            return log_sums(*args)

        rng = np.random.default_rng(16)
        for case in range(200):
            n = int(rng.integers(1, 25))
            bins = int(rng.integers(1, 10))
            groups = int(rng.integers(1, 6))
            batch = int(rng.integers(0, 41))
            k_hi = int(rng.integers(0, n + 1))
            k_lo = k_hi if case % 3 == 0 else int(rng.integers(0, k_hi + 1))
            logb = rng.normal(size=(groups, bins))
            logh = rng.normal(size=(groups, bins))
            logb[rng.random(logb.shape) < 0.2] = -np.inf
            for g, kind in enumerate(rng.integers(0, 3, size=groups)):
                if kind == 1:
                    logh[g, rng.integers(bins)] = -np.inf
                elif kind == 2:
                    logb[g, rng.integers(bins)] = logh[g].max() + 700.0
            group = rng.integers(0, max(groups - 1, 1), size=batch)
            counts = np.sort(rng.integers(0, bins, size=(n, batch)), axis=0)
            hist = (counts[:, :, None] == np.arange(bins)).sum(axis=0)
            want = np.empty(batch)
            for g in range(groups):
                rows = group == g
                want[rows] = subset_sums(logb[g], logh[g], hist[rows], k_lo, k_hi)
            monkeypatch.setattr(dp, "_ratio_sums", ratio_recorded)
            monkeypatch.setattr(dp, "_log_sums", log_recorded)
            domains.append(set())
            got = subset_sums(logb, logh, hist, k_lo, k_hi, group)
            monkeypatch.setattr(dp, "_ratio_sums", ratio_sums)
            monkeypatch.setattr(dp, "_log_sums", log_sums)
            assert got.shape == (batch,)
            assert np.array_equal(got, want), (case, n, bins, groups, batch, k_lo, k_hi)
        # some batches sum in one domain, some in the other, and some in both
        assert {frozenset(d) for d in domains} >= {
            frozenset({"ratio"}), frozenset({"log"}), frozenset({"ratio", "log"})}

    def test_group_indices_are_checked(self):
        hist = np.array([[2, 1], [1, 2]])
        w = np.zeros((2, 2))
        for group in ([0, 2], [-1, 0]):
            with pytest.raises(ValueError, match="group indices"):
                subset_sums(w, w, hist, 0, 2, np.array(group))

    def test_float32_weights_match_count_by_count(self):
        # the weights keep their dtype through the gathers, in both domains
        rng = np.random.default_rng(13)
        counts = np.sort(rng.integers(0, 5, size=(9, 12)), axis=0)
        hist = (counts[:, :, None] == np.arange(5)).sum(axis=0)
        logb = rng.normal(size=5).astype(np.float32)
        logh = rng.normal(size=5).astype(np.float32)
        for honest in (logh, np.append(logh[:4], np.float32(-np.inf))):
            want = count_by_count_sums(logb, honest, counts, hist, 2, 6)
            assert np.array_equal(subset_sums(logb, honest, hist, 2, 6), want)

    def test_naive_refuses_huge_enumerations(self):
        w = random_weights(np.random.default_rng(6), 40)
        with pytest.raises(ValueError):
            naive_subset_sum(*w, 20)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_permutation_invariance(self, data):
        # the subset sum ignores node order
        n = data.draw(st.integers(2, 10))
        k = data.draw(st.integers(0, n))
        seed = data.draw(st.integers(0, 2**31))
        rng = np.random.default_rng(seed)
        w = random_weights(rng, n)
        perm = rng.permutation(n)
        w2 = (w[0][perm], w[1][perm])
        assert subset_sum(w2, k) == pytest.approx(subset_sum(w, k), rel=1e-10, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 10), st.integers(0, 2**31))
    def test_pascal_recursion(self, n, seed):
        # f(n, k) = b(0) f(n-1, k-1) + h(0) f(n-1, k) on the tail weights
        rng = np.random.default_rng(seed)
        w = random_weights(rng, n)
        tail = (w[0][1:], w[1][1:])
        k = int(rng.integers(1, n))
        lhs = subset_sum(w, k)
        rhs = np.logaddexp(
            w[0][0] + subset_sum(tail, k - 1), w[1][0] + subset_sum(tail, k)
        )
        assert lhs == pytest.approx(float(rhs), rel=1e-10)
