"""Subset-weighted likelihood sums via a two-term recursion.

Given per-node weights b(i) (node i behaves as Byzantine) and h(i) (node i
behaves honestly), the fixed-count and bounded fusion rules need

    f(n, k) = sum over all size-k subsets S of {1..n} of
              prod_{i in S} b(i) * prod_{i not in S} h(i).

Summing the (n choose k) subsets directly is exponential. Adding the nodes
one at a time and splitting on whether the newest node is in S gives

    f(i, k) = b(i) * f(i-1, k-1) + h(i) * f(i-1, k)

(the conditional-Bernoulli recursion of Chen, Dempster & Liu 1994), with the
pure product f(i, 0) as boundary. :func:`subset_sums` runs it for a whole
batch of node multisets at once, one numpy row per count. It takes each
multiset as a histogram over weight bins (a decoder's match-count type) and
adds its nodes in ascending bin order itself, so a caller never lists
nodes. It visits only the cells that can still end in the requested count
range (:func:`live_cells`): k * (n - k + 1) two-term combinations for one
count k. Each node updates all its live counts with one slice operation
across the batch (a few, top first, where one slice would outgrow the
cache), with the same floating-point operations per cell as a count-by-count
loop. No operation mixes the multisets of a batch or depends on their
position, so a multiset's sum is bitwise the same in any batch, which lets a
decoder keep it. The multisets of one batch may read different weight
tables, one per weight group (a decoder's guesses of the flip rate, one per
payoff column), so one call sums them all. Each group works on linear
Byzantine/honest likelihood ratios while they stay far from overflow and
underflow, and in the log domain otherwise, as it would in a call of its
own: a batch whose groups differ runs once per domain.

:func:`naive_subset_sum` enumerates the subsets one by one; it is the
independent reference the recursion is checked against.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

__all__ = ["live_cells", "subset_sums", "naive_subset_sum"]

_NAIVE_LIMIT = 1_000_000
# subset_sums takes the ratio domain while log C(n, k_hi) + k_hi * max|log(b/h)|
# stays below this, far from the exp(+-709) float range; bounding |log(b/h)|,
# not just its positive side, keeps small ratios from underflowing too
_RATIO_HEADROOM = 600.0
# subset_sums updates a node's counts in slices across the whole batch of at
# most this many bytes, so a slice and its step buffer stay in cache; that is
# one slice per node up to 3,640 multisets at k_hi = 9
_SLICE_BYTES = 1 << 18


def live_cells(n, k_lo, k_hi):
    """The two-term cells of the recursion that can still end in [k_lo, k_hi].

    Yields (i, ks) per node i = 0..n-1: after node i joins, the subset sum
    for count k is updated from counts k and k - 1 of the first i nodes, for
    every k in ks (descending, so one array updates in place). A cell is live
    if k <= min(k_hi, i + 1) and the n - 1 - i nodes still to come can lift k
    to k_lo. Count 0 is the closed-form boundary and never listed. For
    k_lo = k_hi = k that is exactly k * (n - k + 1) cells.
    """
    for i in range(n):
        yield i, range(min(k_hi, i + 1), max(0, k_lo - n + i), -1)


def subset_sums(logb, logh, hist, k_lo, k_hi, group=None):
    """log sum_{k=k_lo..k_hi} f(n, k) for a batch of node multisets, shape (batch,).

    hist[t, c] nodes of multiset t sit in bin c, shape (batch, bins), and each
    row counts the same n nodes. The weights come in G groups, logb and logh
    of shape (G, bins): a node of multiset t in bin c has log weights
    logb[group[t], c] and logh[group[t], c]. Weights of shape (bins,) with no
    `group` are one group. The recursion adds each multiset's nodes in
    ascending bin order.

    A group whose honest weights are all positive, and whose Byzantine/honest
    ratios stay far from overflow and underflow (headroom below
    _RATIO_HEADROOM), runs the recursion on elementary symmetric polynomials
    of the linear ratios b/h, after factoring out the all-honest product
    hist @ logh. Any other group (degenerate eps or delta) runs in the log
    domain, where a zero weight enters as -inf. Both give the same sums up to
    rounding. A batch whose groups take both domains is split in two, so
    each multiset gets the operations, and the bits, of a call with its group
    alone.
    """
    logb, logh = np.atleast_2d(logb), np.atleast_2d(logh)
    batch, bins = hist.shape
    if group is None:
        group = np.zeros(batch, dtype=np.intp)
    elif batch and not 0 <= group.min() <= group.max() < logb.shape[0]:
        raise ValueError(f"group indices must lie in [0, {logb.shape[0]})")
    # the nodes in each multiset; hist.sum(axis=1) is 2-5x slower on short rows
    sizes = np.einsum("tc->t", hist)
    # an empty batch has no n to check k_hi against; its sums are empty anyway
    n = int(sizes[0]) if batch else k_hi
    if not 0 <= k_lo <= k_hi <= n:
        raise ValueError(f"need 0 <= k_lo <= k_hi <= {n}, got [{k_lo}, {k_hi}]")
    if (sizes != n).any():
        raise ValueError("every multiset of a batch must count the same number of nodes")
    # counts[i, t]: the weight index, group * bins + bin, of node i of
    # multiset t; uint8 up to 255 of them
    labels = np.arange(bins) + bins * group[:, None]
    labels = labels.astype(np.min_scalar_type(logb.size)).ravel()
    counts = np.ascontiguousarray(np.repeat(labels, hist.ravel()).reshape(batch, n).T)
    with np.errstate(invalid="ignore"):
        ratios = logb - logh
    log_comb = math.lgamma(n + 1) - math.lgamma(k_hi + 1) - math.lgamma(n - k_hi + 1)
    in_ratio = [_takes_ratios(r, h, log_comb, k_hi) for r, h in zip(ratios.tolist(), logh.tolist())]
    if all(in_ratio):
        return _ratio_sums(ratios, logh, hist, group, counts, k_lo, k_hi)
    if not any(in_ratio):
        return _log_sums(logb, logh, counts, k_lo, k_hi)
    # no operation mixes multisets, so each part sums as a batch of its own
    out = np.empty(batch)
    part = np.array(in_ratio)[group]
    out[part] = _ratio_sums(ratios, logh, hist[part], group[part], counts[:, part], k_lo, k_hi)
    out[~part] = _log_sums(logb, logh, counts[:, ~part], k_lo, k_hi)
    return out


def _takes_ratios(ratios, logh, log_comb, k_hi):
    # whether one group sums in the ratio domain: its honest weights are all
    # positive, and log C(n, k_hi) + k_hi * max|log(b/h)|, the log of its
    # largest product of ratios, stays below _RATIO_HEADROOM (one ratio must
    # fit even when k_hi = 0). A group has a few weights, so Python floats
    # are quicker than numpy here
    if not all(map(math.isfinite, logh)):
        return False
    widest = max((abs(r) for r in ratios if math.isfinite(r)), default=0.0)
    return log_comb + max(k_hi, 1) * widest < _RATIO_HEADROOM


def _slices(k_hi, batch):
    # Each node updates its live counts ks a slice of `rows` counts at a time,
    # top slice first, through a step buffer. Every right-hand side reads
    # counts from before the node joined, so each cell gets the operations of
    # a count-by-count loop.
    rows = max(1, _SLICE_BYTES // max(8 * batch, 1))
    return rows, np.empty((min(rows, k_hi), batch))


def _ratio_sums(ratios, logh, hist, group, counts, k_lo, k_hi):
    # subset_sums in the ratio domain; ratios, logh (groups, bins)
    n, batch = counts.shape
    rows, step = _slices(k_hi, batch)
    ratio = np.exp(ratios).ravel()
    r_i = np.empty(batch, ratio.dtype)
    esym = np.zeros((k_hi + 1, batch))
    esym[0] = 1.0
    for i, ks in live_cells(n, k_lo, k_hi):
        ratio.take(counts[i], out=r_i)
        for top in ks[::rows]:
            lo, hi = max(top + 1 - rows, ks[-1]), top + 1
            np.multiply(esym[lo - 1 : hi - 1], r_i, out=step[: hi - lo])
            esym[lo:hi] += step[: hi - lo]
    # hist @ logh and esym[k_lo:].sum(axis=0) would round a multiset by where
    # it sits in the batch (a BLAS product, and a pairwise sum for a batch of
    # one); a row sum and a running sum over counts do not
    honest = (hist * logh[group]).sum(axis=1)
    with np.errstate(divide="ignore"):
        return honest + np.log(np.cumsum(esym[k_lo:], axis=0)[-1])


def _log_sums(logb, logh, counts, k_lo, k_hi):
    # subset_sums in the log domain; logb, logh (groups, bins)
    n, batch = counts.shape
    rows, step = _slices(k_hi, batch)
    logb, logh = logb.ravel(), logh.ravel()
    g = np.full((k_hi + 1, batch), -np.inf)
    g[0] = 0.0
    lh_i, lb_i = np.empty(batch, logh.dtype), np.empty(batch, logb.dtype)
    for i, ks in live_cells(n, k_lo, k_hi):
        logh.take(counts[i], out=lh_i)
        logb.take(counts[i], out=lb_i)
        for top in ks[::rows]:
            lo, hi = max(top + 1 - rows, ks[-1]), top + 1
            np.add(g[lo - 1 : hi - 1], lb_i, out=step[: hi - lo])
            g[lo:hi] += lh_i
            np.logaddexp(g[lo:hi], step[: hi - lo], out=g[lo:hi])
        g[0] += lh_i
    return np.logaddexp.reduce(g[k_lo:], axis=0)


def naive_subset_sum(logb, logh, k):
    """Literal enumeration of all (n choose k) subsets, log domain.

    logb[i] and logh[i] are node i's log weights as Byzantine and as honest;
    -inf is a zero weight. Reference implementation for cross-checking;
    refuses to enumerate more than one million subsets.
    """
    n = len(logb)
    if len(logh) != n:
        raise ValueError("logb and logh must have equal length")
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}], got {k}")
    if math.comb(n, k) > _NAIVE_LIMIT:
        raise ValueError(f"(n choose k) = {math.comb(n, k)} exceeds {_NAIVE_LIMIT}")
    terms = np.empty(math.comb(n, k))
    for t, subset in enumerate(itertools.combinations(range(n), k)):
        chosen = set(subset)
        acc = 0.0
        for i in range(n):
            acc += logb[i] if i in chosen else logh[i]
        terms[t] = acc
    top = terms.max()
    if top == -np.inf:
        return -math.inf
    return float(top + np.log(np.exp(terms - top).sum()))
