"""Joint MAP decoding of the state sequence from all reports.

The fusion center scores every candidate state sequence s against the full
report matrix r and returns the maximizer of P(r | s) (states are uniform,
so this is the MAP rule). Every prior here is symmetric in the nodes, so a
hypothesis' score depends only on its type: the match-count histogram H[c],
the number of nodes whose report agrees with s in exactly c of the m bits.
What P(r | s) looks like depends on the Byzantine model the center assumes:

* independent placements factor across nodes into a two-term mixture per
  node, so the score is the dot product of H with a per-count weight table;
* fixed-count and bounded-minority placements couple the nodes and reduce
  to subset-weighted sums, computed by :func:`byzfusion.dp.subset_sums`.

At any rate a the independent prior sums every placement, each admissible
one weighted at least min_k a^k (1 - a)^(n - k) over the admissible counts
k, so the subset sum U of a type is bounded by one dot product:
log U <= H . w_a - min_k log(a^k (1 - a)^(n - k)), with a = 1/2 clipped to
[k_lo/n, k_hi/n], read off ``TypeClasses.float_hist``, the float64
histograms. Bound-and-verify decoding uses it for the count priors:
the type of each trial's largest bound is scored exactly, which gives a
score L_t that trial t reaches, and the subset sums run only on types with
a cell whose bound is within ``_BOUND_MARGIN`` (1e-6) of its trial's L_t.
Every other cell scores below its trial's maximum by more than the margin,
which is far above ``SCORE_TIE_TOL`` plus rounding, so it is outside the
tie band and reading it as -inf picks the same hypothesis. All the columns
that bound a chunk do so together (``_bounded_type_scores``): one product
bounds the types under every column, and one ``dp.subset_sums`` call, a
weight group per column, sums every column's lead types, and one more the
types near them.

Ties are broken toward the lexicographically smallest sequence: any
hypothesis scoring within ``SCORE_TIE_TOL`` of the maximum counts as tied.
:func:`argmax_lex` is that rule, for the decoder and the references alike.
The tolerance makes exact mathematical ties (a fully blinded center,
perfectly balanced reports) deterministic across this decoder and the
exhaustive reference implementations, which may round differently.

``decide_columns`` is the one loop that turns a packed report batch into
decisions. Chunk by chunk (``chunk_trials`` trials, ``_CHUNK_CELLS`` cells)
it groups the batch's cells by type (``TypeClasses``), bounds the chunk for
every column that bounds it at once, and each ``BatchFuser``, which fixes
one assumption, scores each of the chunk's types once, or reads its bounded
scores (``BatchFuser.decide_ints``). The histograms do not depend on the
assumption, so the Monte Carlo game engine decodes every column of a chunk
in one call; ``fuse`` calls it with a single fuser. The exact oracle shares
the grouping and ``decide_ints``, which bounds for one fuser the same way,
but not the scores: it sums its likelihoods.

The game engine streams each payoff row: it draws one chunk of trials
(``model.stream_rows``), decodes it with every column, and draws the next.
Each chunk's large work arrays, from the report rows through the gathered
cell scores, are views of buffers kept per thread (``scratch.KEPT``), so
after the first chunk they are not allocated again. On a sorted chunk the
arrays sized by its types are kept as well: ``TypeClasses.hist`` and
``float_hist``, and the bound route's bounds and scores. ``argmax_lex``'s
masks and arrays sized by the trials or by the types a bound route sums
stay fresh. What a thread keeps is bounded by the chunk, whatever the trial
count (see ``scratch``). ``fuse``, ``BatchFuser.scores`` and the oracle take
fresh arrays (``scratch.FRESH``) through the same code.

``TypeClasses`` keys each cell by its histogram read as a base-(n + 1)
number (``_key_table``), and equal keys form a type. Where the key range is
small against the chunk (``_ranks_from_universe``), a cached table ranks
each key among all C(n + m, m) histograms of n nodes (``_universe``), and
every fuser, one per column of a payoff matrix or per oracle call, reads
one score table over that universe, kept for its life. An independent prior
fills it whole on first use; a count prior sums a type only on the first
chunk that has it, reading the chunk's presence marks (made on first read)
until its table holds every type. Elsewhere one sort groups the keys
(``_sorted_types``): of each key packed with its cell index into one int64
where it fits (``_packs_cell_index``), else an argsort or a lexsort. Each
such chunk's types are scored whole, or, for a count prior at any m
where ``_decodes_by_bound`` says so (at least ``_BOUND_MIN_TYPES`` types
with at most ``_BOUND_CELLS_PER_TYPE`` cells each), bound first.
``dp.subset_sums``, and the bin-by-bin sum that scores independent types
(``_hist_sum``), give a type the same bits in any batch, so a kept score is
the one a fresh fuser would compute, and one report scores as it does in a
batch. Cells are stored hypothesis-major, (2**m, T):
``decide_ints`` gathers them in that layout and ``argmax_lex`` reduces over
axis 0, across contiguous rows of trials, with no transposed copy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import dp
from .bits import pack_bits, unpack_bits
from .model import crossover_delta, placement_law
from .scratch import FRESH

__all__ = [
    "SCORE_TIE_TOL",
    "FusionAssumption",
    "honest_log_weights",
    "argmax_lex",
    "fuse",
    "TypeClasses",
    "BatchFuser",
    "decide_columns",
    "chunk_trials",
]

SCORE_TIE_TOL = 1e-9
# trials per TypeClasses build are capped so that trials * n * 2**m, the size
# of its per-node count table when every cell is its own type, stays below this
_CHUNK_CELLS = 1 << 22
# the universe ranks a chunk's keys only where the key range has at most this
# many entries per cell; sorting beat a presence map from 125-250 up (m = 4, 5)
_TABLE_ENTRIES_PER_CELL = 64
# a chunk of more cells than this per universe type counts every type present,
# so each count-prior fuser sums the whole universe once, in one call
_DENSE_CELLS_PER_TYPE = 16
# (n, m) shapes whose key table and universe stay cached: an exact sweep's four
_CACHED_SHAPES = 4
# a count-prior cell whose upper bound falls this far below a score its trial
# already reaches is left unscored; far above SCORE_TIE_TOL plus rounding
_BOUND_MARGIN = 1e-6
# bounding a sorted chunk pays only on at least this many types, and at most
# this many cells per type; at n = 20 it broke even from 1,000 to 1,550
# types for the bounded prior and from 1,750 to 2,250 for fixed:6 (m = 5
# to 8), and from 11 to 17 cells per type (m = 5 and 6)
_BOUND_MIN_TYPES = 1536
_BOUND_CELLS_PER_TYPE = 16


@dataclass(frozen=True)
class FusionAssumption:
    """What the fusion center believes: placement model, eps and flip rate."""

    model: object
    eps: float
    pmal_fc: float

    def __post_init__(self):
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError("eps must lie in [0, 1]")
        if not 0.0 <= self.pmal_fc <= 1.0:
            raise ValueError("pmal_fc must lie in [0, 1]")

    @property
    def delta_fc(self):
        return crossover_delta(self.eps, self.pmal_fc)


def _xlogy(x, y):
    # x * log(y) with 0 * log(y) = 0, also at y = 0; for y >= 0
    if x == 0:
        return 0.0
    return x * math.log(y) if y > 0 else -math.inf


def honest_log_weights(eps, m):
    """log[(1-eps)^c * eps^(m-c)] for c = 0..m; 0*log(0) counts as 0.

    With eps set to a crossover delta, the same table is a flipping node's.
    """
    return np.array([_xlogy(c, 1.0 - eps) + _xlogy(m - c, eps) for c in range(m + 1)])


def _independent_mix_weights(alpha, eps, delta_fc, m):
    # per-node log[(1-a) (1-e)^c e^(m-c) + a (1-d)^c d^(m-c)] indexed by c
    with np.errstate(divide="ignore"):
        la = np.log(alpha)
        lna = np.log1p(-alpha) if alpha < 1.0 else -np.inf
    return np.logaddexp(lna + honest_log_weights(eps, m), la + honest_log_weights(delta_fc, m))


def argmax_lex(scores, axis=-1):
    """Index of the first entry within SCORE_TIE_TOL of the maximum, along `axis`.

    A lane whose entries are all -inf picks index 0.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim == 0 or scores.shape[axis] == 0:
        raise ValueError("scores must be a nonempty array")
    best = scores.max(axis=axis, keepdims=True)
    hit = scores >= best - SCORE_TIE_TOL
    # the first hit is the one farthest from the end; a max over small ints
    # finds it without the contiguous copy np.argmax makes along an outer axis
    last = scores.shape[axis] - 1
    shape = [1] * scores.ndim
    shape[axis] = last + 1
    to_end = np.arange(last, -1, -1, dtype=np.min_scalar_type(last)).reshape(shape)
    return last - (hit * to_end).max(axis=axis).astype(np.intp)


def fuse(reports, assumption):
    """MAP state sequence for one report matrix (n, m), shape (m,) uint8.

    :func:`decide_columns` applied to a batch of one, so m lies in
    [1, BatchFuser.MAX_M].
    """
    reports = np.asarray(reports)
    if reports.ndim != 2:
        raise ValueError("reports must be (n, m)")
    n, m = reports.shape
    decision = decide_columns([BatchFuser(assumption, n, m)], pack_bits(reports)[None])[0, 0]
    return unpack_bits(decision, m)


def _check_m(m):
    if not 1 <= m <= BatchFuser.MAX_M:
        raise ValueError(f"m={m} lies outside [1, {BatchFuser.MAX_M}], the BatchFuser cap")


def _as_report_ints(report_ints):
    # contiguous int64; the cast would truncate or relabel a float, bool or object array
    dtype = np.asarray(report_ints).dtype
    if dtype.kind not in "iu":
        raise ValueError(f"report ints must have an integer dtype, not {dtype}")
    return np.ascontiguousarray(report_ints, dtype=np.int64)


def _keys_from_row_counts(n, m):
    """Whether TypeClasses builds keys from each trial's counts of node-row values.

    Counting pays when there are no more row values than nodes; elsewhere each
    node adds its table row. The float64 product is exact while every key is
    below 2**53.
    """
    return 2**m <= n and (n + 1) ** m <= 2**53


def _ranks_from_universe(n, m, trials):
    """Whether TypeClasses ranks the keys of `trials` trials through the type universe.

    Its rank table has one entry per key value, (n + 1)**m, kept within
    _CHUNK_CELLS so the key is one word, and serves only batches of at least
    a cell per _TABLE_ENTRIES_PER_CELL entries; others are sorted (_sorted_types).
    """
    return (n + 1) ** m <= min(_CHUNK_CELLS, _TABLE_ENTRIES_PER_CELL * trials * 2**m)


def _packs_cell_index(n, m, cells):
    """Whether TypeClasses sorts `cells` keys as one int64 each: (key << b) | cell.

    b = (cells - 1).bit_length() bits hold the cell index, and every key lies
    below (n + 1)**m, so the packed values stay below 2**63 where this holds.
    """
    return (n + 1) ** m << (cells - 1).bit_length() <= 2**63


def _decodes_by_bound(cells, types):
    """Whether a count prior's BatchFuser bounds a sorted chunk of `cells` cells and `types` types.

    Bounding costs passes over every cell and a second, smaller subset-sum
    call, and saves the sums of the types it rules out. Below _BOUND_MIN_TYPES
    types the extra call, and above _BOUND_CELLS_PER_TYPE cells per type the
    extra passes, cost more than they save; m does not enter.
    """
    return types >= _BOUND_MIN_TYPES and cells <= _BOUND_CELLS_PER_TYPE * types


@functools.lru_cache(maxsize=_CACHED_SHAPES)
def _key_table(n, m):
    # A cell's key holds H[1..m] as base-(n + 1) digits (H[0] is n minus the
    # rest), `per_word` digits to an int64 word, as many as keep every word
    # below 2**63. table[w, v, h] is what one node reporting v adds to word w
    # under hypothesis h: digit c - 1 counts the nodes with c matches, and
    # nodes with no match add nothing.
    per_word = 1
    while (n + 1) ** (per_word + 1) <= 2**63:
        per_word += 1
    places = np.zeros((-(-m // per_word), m + 1), dtype=np.int64)
    for c in range(1, m + 1):
        word, digit = divmod(c - 1, per_word)
        places[word, c] = (n + 1) ** digit
    hyps = np.arange(2**m)
    # matches[x]: agreements of a row and a hypothesis whose XOR is x
    matches = m - np.bitwise_count(hyps)
    table = np.empty((places.shape[0], 2**m, 2**m), dtype=np.int64)
    for v in range(2**m):
        table[:, v] = places[:, matches[v ^ hyps]]
    table.setflags(write=False)
    return per_word, table


@functools.lru_cache(maxsize=_CACHED_SHAPES)
def _universe(n, m):
    """All C(n + m, m) types of n nodes, read-only: (hist, float_hist, rank).

    hist lists each histogram H[0..m] once, ascending by one-word key, and
    float_hist is its float64 copy; rank[key] is the row with that key.
    """
    # stars and bars, H[m] first: each row splits by its next digit, in key order
    hist = np.array([[n]])
    for _ in range(m):
        parent = np.repeat(np.arange(hist.shape[0]), hist[:, 0] + 1)
        digit = np.arange(parent.shape[0]) - np.searchsorted(parent, parent)
        hist = np.column_stack([hist[parent, 0] - digit, digit, hist[parent, 1:]])
    rank = np.empty((n + 1) ** m, dtype=np.intp)
    rank[hist[:, 1:] @ (n + 1) ** np.arange(m)] = np.arange(hist.shape[0])
    float_hist = hist.astype(np.float64)
    for a in (hist, float_hist, rank):
        a.setflags(write=False)
    return hist, float_hist, rank


def _hist_dot(hist, w, out):
    # sum_c H[c] * w[j, c] per row of hist and row j of w into `out`, shape
    # (len(w), len(hist)); an empty bin adds 0 even where w = -inf. The BLAS
    # product may round a row differently in another batch, so only the
    # bounds use it
    finite = np.isfinite(w)
    out = np.matmul(np.where(finite, w, 0.0), hist.T, out=out)
    if not finite.all():
        out[~finite @ (hist > 0).T] = -np.inf
    return out


def _hist_sum(hist, w):
    # _hist_dot summed bin by bin, c = 0..m in turn, so that a row's bits do
    # not depend on the batch it is in
    out = np.zeros(hist.shape[0])
    for c, w_c in enumerate(w.tolist()):
        if w_c > -math.inf:
            out += hist[:, c] * w_c
        else:
            out[hist[:, c] > 0] = -math.inf
    return out


def _sorted_types(keys, n, m, per_word, scratch):
    """hist, float_hist and flat inverse of the cells keyed by `keys` (words, 2**m, trials), by one sort.

    The arrays equal ``np.unique``'s and come from `scratch`. The cells come
    in key order from one in-place sort of (key << b) | cell where
    ``_packs_cell_index`` says so, else from an argsort of one-word keys, or
    a lexsort of several with word 0 leading, as in ``np.unique``'s rows.
    """
    words, size = keys.shape[0], keys[0].size
    if _packs_cell_index(n, m, size):
        b = (size - 1).bit_length()
        packed = np.left_shift(keys[0], b, out=scratch.take("cells_g", keys.shape[1:], np.int64))
        # the cell index of hypothesis h and trial t is h * trials + t
        packed += np.arange(packed.shape[1])
        packed += packed.shape[1] * np.arange(packed.shape[0])[:, None]
        packed = packed.reshape(-1)
        packed.sort()
        in_order = np.right_shift(packed, b, out=scratch.take("cells_f", (1, size), np.int64))
        order = np.bitwise_and(packed, (1 << b) - 1, out=packed)
    else:
        keys = keys.reshape(words, size)
        order = keys[0].argsort() if words == 1 else np.lexsort(keys[::-1])
        in_order = keys.take(order, axis=1, out=scratch.take("cells_f", keys.shape, np.int64), mode="clip")
    # a type starts where the sorted keys change, and its rank counts the
    # starts after the first up to there
    first = scratch.take("mask", (size,), bool)
    first[:1] = False
    np.not_equal(in_order[0, 1:], in_order[0, :-1], out=first[1:])
    for word in in_order[1:]:
        first[1:] |= word[1:] != word[:-1]
    # cumsum casts a bool input whole, so it runs in place on a copy
    rank = scratch.take("cells_i", (size,), np.intp)
    np.copyto(rank, first)
    np.cumsum(rank, out=rank)
    types = int(rank[-1]) + 1 if size else 0
    uniq = scratch.take("hist", (words, types), np.int64)
    for word, sorted_word in zip(uniq, in_order):
        word[rank] = sorted_word
    inverse = scratch.take("cells_f", (size,), np.intp)
    inverse[order] = rank
    # the distinct keys, words x types, are split into the rows H[1..m] of
    # `digits`, which shares float_hist's slot until float_hist is written
    digits = scratch.take("float_hist", (m + 1, types), np.int64)
    spare = scratch.take("cells_g", (types,), np.int64)
    for word, x in enumerate(uniq):
        low, high = word * per_word + 1, min(m, (word + 1) * per_word)
        for c in range(low, high):
            # floor division and a multiply-subtract beat np.divmod on int64
            np.floor_divide(x, n + 1, out=spare)
            np.multiply(spare, n + 1, out=digits[c])
            np.subtract(x, digits[c], out=digits[c])
            x, spare = spare, x
        digits[high] = x
    digits[0] = n
    for row in digits[1:]:
        digits[0] -= row
    hist = scratch.take("hist", (types, m + 1), np.int64)
    hist[...] = digits.T
    float_hist = scratch.take("float_hist", (types, m + 1), np.float64)
    float_hist[...] = hist
    return hist, float_hist, inverse


class TypeClasses:
    """The (trial, hypothesis) cells of a packed report batch, grouped by type.

    A cell's type is its match-count histogram H[c], the number of nodes whose
    report agrees with the hypothesis in exactly c of the m bits. Every prior
    here is symmetric in the nodes, so two cells of one type score the same
    under any assumption (the method of types). ``hist`` has one row per
    type, shape (types, m + 1), with a float64 copy ``float_hist``, and
    ``inverse`` maps each cell to its type, hypothesis-major, shape (2**m, T).
    One instance can be shared by every BatchFuser that decodes the same
    batch. Non-integer reports, a report int outside [0, 2**m) and an m
    outside [1, BatchFuser.MAX_M] are ValueErrors. ``inverse``, a sorted
    chunk's ``hist`` and ``float_hist``, and the work arrays come from
    `scratch` (``scratch.FRESH`` or ``scratch.KEPT``); from ``KEPT`` the
    instance is valid until the thread's next build.

    Keys are built from :func:`_key_table` by row counts or node by node
    (``_keys_from_row_counts``). Where ``_ranks_from_universe`` says so,
    ``universal`` is True and the rank table of :func:`_universe` ranks them
    into its ``hist``; ``present``, made on first read and kept, marks the
    types some cell has, or all on more than ``_DENSE_CELLS_PER_TYPE`` cells
    per type, so a chunk whose fusers never read it skips the scatter.
    Elsewhere one sort ranks them (:func:`_sorted_types`), ``hist`` holds
    the chunk's types, and ``present`` is None. Either way one-word keys rank
    ascending, lexicographic on (H[m], ..., H[1]).
    """

    def __init__(self, report_ints, n, m, scratch=FRESH):
        _check_m(m)
        report_ints = _as_report_ints(report_ints)
        if report_ints.ndim != 2 or report_ints.shape[1] != n:
            raise ValueError("report_ints must be (trials, n)")
        # read as unsigned, a negative int lies above 2**63, so one max finds
        # any int outside [0, 2**m)
        if report_ints.view(np.uint64).max(initial=0) >> m:
            raise ValueError(f"report ints must lie in [0, 2**m) = [0, {2**m})")
        per_word, table = _key_table(n, m)
        trials = report_ints.shape[0]
        cells = (2**m, trials)
        # work arrays come from `scratch`, in the slots its module lists
        if _keys_from_row_counts(n, m):
            # N[v, t] nodes of trial t report v, counted into a zeroed float
            # table; keys = table.T @ N, exact below 2**53
            flat = scratch.take("found", report_ints.shape, np.int64)
            np.multiply(report_ints, trials, out=flat)
            flat += np.arange(trials)[:, None]
            row_counts = scratch.take("cells_f", cells, np.float64)
            row_counts.fill(0.0)
            np.add.at(row_counts.reshape(-1), flat.reshape(-1), 1.0)
            float_keys = np.matmul(
                table[0].T.astype(np.float64), row_counts,
                out=scratch.take("cells_g", cells, np.float64),
            )
            keys = scratch.take("cells_i", (1, 2**m * trials), np.int64)
            np.copyto(keys, float_keys.reshape(1, -1), casting="unsafe")
        else:
            # each node adds its table row to every word of its trial's keys
            acc = scratch.take("cells_f", (table.shape[0], trials, 2**m), np.int64)
            acc.fill(0)
            add = scratch.take("cells_g", (trials, 2**m), np.int64)
            for r_i in report_ints.T:
                for word, word_table in zip(acc, table):
                    word += word_table.take(r_i, axis=0, out=add, mode="clip")
            keys = scratch.take("cells_i", (table.shape[0], 2**m * trials), np.int64)
            keys.reshape(table.shape[0], 2**m, trials)[...] = acc.transpose(0, 2, 1)
        self.universal = _ranks_from_universe(n, m, trials)
        if self.universal:
            self.hist, self.float_hist, rank = _universe(n, m)
            # every key is a histogram's, and mode="clip" keeps take from
            # buffering its output
            inverse = scratch.take("cells_f", keys[0].shape, np.intp)
            rank.take(keys[0], out=inverse, mode="clip")
        else:
            self.hist, self.float_hist, inverse = _sorted_types(
                keys.reshape(keys.shape[0], *cells), n, m, per_word, scratch)
        self.inverse = inverse.reshape(cells)
        self.scratch = scratch
        self._present = None

    @property
    def present(self):
        """On a universe chunk, a mark of each type some cell has; else None.

        A dense chunk marks every type. Made on first read, from ``inverse``,
        so from ``KEPT`` it must be read before the thread's next build.
        """
        if self._present is None and self.universal:
            dense = self.inverse.size > _DENSE_CELLS_PER_TYPE * self.hist.shape[0]
            self._present = np.full(self.hist.shape[0], dense)
            if not dense:
                self._present[self.inverse] = True
        return self._present


class BatchFuser:
    """Vectorized MAP decoding of many report matrices under one assumption.

    Reports enter packed: one int per node row (first component = MSB), and
    :func:`decide_columns` returns decisions packed the same way. m is
    capped at MAX_M.

    Decoding goes by type class (see :class:`TypeClasses`): the match-count
    histograms of a batch are scored, not its cells, and each (trial,
    hypothesis) cell then reads its type's score. Independent priors score a
    type as H . w, summed bin by bin. Fixed-count and bounded priors sum the
    subset-weighted likelihood over the admissible Byzantine counts with
    :func:`byzfusion.dp.subset_sums`; :meth:`_subset_sums` is their one call
    into it. On universe-ranked chunks every fuser reads one score table over
    the universe, which it keeps for its life: an independent prior's is
    filled whole on first use, a count prior's type by type as chunks bring
    them.

    On a sorted chunk, where ``_decodes_by_bound`` says so (at least 1536
    types, at most 16 cells per type), the count priors bound every type
    from above (:func:`_type_bounds`) and sum only the types that can still
    come within the tie band of their trial's maximum
    (:func:`_bounded_type_scores`); the decisions are the same. The fusers
    of one :func:`decide_columns` call bound a chunk together, in two
    ``dp.subset_sums`` calls per chunk, not two per fuser.
    """

    MAX_M = 12

    def __init__(self, assumption, n, m):
        _check_m(m)
        # the admissible Byzantine counts (k_lo, k_hi); None for independent priors
        alpha, self._k_range = placement_law(assumption.model, n)
        self.assumption = assumption
        self.n = n
        self.m = m
        if self._k_range is None:
            self._weights = _independent_mix_weights(alpha, assumption.eps, assumption.delta_fc, m)
            return
        self._logh = honest_log_weights(assumption.eps, m)
        self._logb = honest_log_weights(assumption.delta_fc, m)

    def _type_scores(self, classes):
        """Log score of each type of `classes`, shape (types,).

        For the subset priors this is the log of P(r | s) times the number
        of admissible placements; :meth:`scores` divides that out. On a
        universe chunk the fuser's kept table of universe type scores comes
        back, for reading only. An independent prior fills it whole on first
        use. A subset prior sums the present types not summed before, so a
        type not yet summed, which no cell has, reads -inf; once every type
        is summed, it reads no more presence marks.
        """
        if not classes.universal:
            if self._k_range is None:
                return _hist_sum(classes.float_hist, self._weights)
            return self._subset_sums(classes.hist)
        scores, summed = self._memo
        if summed is not None and not summed.all():
            new = np.flatnonzero(classes.present & ~summed)
            if new.shape[0]:
                scores[new] = self._subset_sums(classes.hist[new])
                summed[new] = True
        return scores

    def _subset_sums(self, hist):
        # the subset priors' exact scores of the types of `hist`
        return dp.subset_sums(self._logb, self._logh, hist, *self._k_range)

    @functools.cached_property
    def _memo(self):
        # the score of each universe type and a mark of the types summed. An
        # independent prior sums them all at once and keeps no marks; a subset
        # prior's read -inf until summed, written in place by the threads
        # sharing the fuser: a type is marked once its batch-invariant sum is
        # written
        if self._k_range is None:
            return _hist_sum(_universe(self.n, self.m)[1], self._weights), None
        types = math.comb(self.n + self.m, self.m)
        return np.full(types, -np.inf), np.zeros(types, dtype=bool)

    @functools.cached_property
    def _bound_terms(self):
        # w_a and -min_k log(a^k (1 - a)^(n - k)) at a = 1/2 clipped to
        # [k_lo/n, k_hi/n]; made on first use
        (k_lo, k_hi), n, asm = self._k_range, self.n, self.assumption
        alpha = min(max(0.5, k_lo / n), k_hi / n)
        weights = _independent_mix_weights(alpha, asm.eps, asm.delta_fc, self.m)
        return weights, -min(_xlogy(k, alpha) + _xlogy(n - k, 1.0 - alpha) for k in (k_lo, k_hi))

    def scores(self, report_ints):
        """Normalized log P(r | s) for every hypothesis, shape (T, 2**m)."""
        report_ints = _as_report_ints(report_ints)
        out = np.empty((report_ints.shape[0], 2**self.m))
        for rows, classes in _typed_chunks(report_ints, self.n, self.m):
            out[rows] = self._type_scores(classes)[classes.inverse].T
        if self._k_range is not None:
            k_lo, k_hi = self._k_range
            out -= math.log(sum(math.comb(self.n, k) for k in range(k_lo, k_hi + 1)))
        return out

    def decide_ints(self, classes, scores=None):
        """Packed MAP decision for each trial that `classes` groups, shape (T,) int64.

        :func:`decide_columns` builds `classes` once per chunk of trials,
        shares it across its fusers, and passes in `scores` the type scores
        it bounded for this fuser together with the chunk's other columns
        (:func:`_bounded_type_scores`). Without them, as in the oracle's
        calls, the fuser bounds the chunk alone where it bounds it at all,
        and otherwise scores every type.
        """
        if scores is None:
            scores = _bounded_type_scores([self], classes)[0]
        if scores is None:
            scores = self._type_scores(classes)
        # every type index is in range, and mode="clip" keeps take from
        # buffering its output
        cells = scores.take(
            classes.inverse, out=classes.scratch.take("cells_g", classes.inverse.shape, np.float64),
            mode="clip",
        )
        return argmax_lex(cells, axis=0).astype(np.int64, copy=False)


def _type_bounds(fusers, hist, scratch=FRESH):
    """The module docstring's upper bound on each fuser's type scores, shape (fusers, types).

    `fusers` are count priors; one product bounds them all, into an array
    from `scratch`.
    """
    weights, shifts = zip(*(fuser._bound_terms for fuser in fusers))
    bounds = _hist_dot(hist, np.stack(weights), scratch.take("bounds", (len(fusers), len(hist)), np.float64))
    bounds += np.array(shifts)[:, None]
    return bounds


def _bounded_type_scores(fusers, classes):
    """Each fuser's type scores on a chunk it bounds, else None; a list, one per fuser.

    A count prior's fuser bounds a sorted chunk where ``_decodes_by_bound``
    says so. The fusers that bound it share one bound-and-verify per count
    range (:func:`_bound_and_verify`); the other fusers, and all of them on a
    chunk ranked through the universe, get None. The scores are rows of one
    array from the chunk's scratch.
    """
    scores = [None] * len(fusers)
    if classes.universal or not _decodes_by_bound(classes.inverse.size, len(classes.hist)):
        return scores
    # a payoff matrix's columns share one model, so one count range
    columns = {}
    for j, fuser in enumerate(fusers):
        if fuser._k_range is not None:
            columns.setdefault(fuser._k_range, []).append(j)
    # each count range fills a block of consecutive rows
    rows = classes.scratch.take("scores", (sum(map(len, columns.values())), len(classes.hist)), np.float64)
    start = 0
    for k_range, js in columns.items():
        block = rows[start : start + len(js)]
        _bound_and_verify([fusers[j] for j in js], classes, k_range, block)
        for j, column in zip(js, block):
            scores[j] = column
        start += len(js)
    return scores


def _bound_and_verify(fusers, classes, k_range, scores):
    """Each of `fusers`' type scores that some trial could pick, else -inf, into `scores` (fusers, types).

    The fusers share the admissible counts `k_range`. Under each, a trial's
    bound-argmax type is scored exactly, giving a score L_t the trial
    reaches; then every type with a cell whose bound is within _BOUND_MARGIN
    of its trial's L_t. An unscored cell lies more than the margin below its
    trial's maximum, so outside the tie band. One bound product serves every
    fuser, and one ``dp.subset_sums`` call, a weight group per fuser, sums
    each of the two passes.
    """
    inverse, scratch, hist = classes.inverse, classes.scratch, classes.hist
    bounds = _type_bounds(fusers, classes.float_hist, scratch)
    logb = np.stack([fuser._logb for fuser in fusers])
    logh = np.stack([fuser._logh for fuser in fusers])
    scores.fill(-np.inf)

    def score(marked):
        # np.nonzero on the 2-d marks costs several times this
        column, types = np.divmod(np.flatnonzero(marked), marked.shape[1])
        scores[column, types] = dp.subset_sums(logb, logh, hist[types], *k_range, group=column)

    # each fuser's cell bounds in turn, once for the lead types and once more
    # for the cells near them
    cell_bounds = scratch.take("cells_g", inverse.shape, np.float64)
    trials = np.arange(inverse.shape[1])
    lead = np.empty((len(fusers), inverse.shape[1]), dtype=np.intp)
    for c, column in enumerate(bounds):
        column.take(inverse, out=cell_bounds, mode="clip")
        lead[c] = inverse[np.argmax(cell_bounds, axis=0), trials]
    scored = np.zeros(bounds.shape, dtype=bool)
    scored[np.arange(len(fusers))[:, None], lead] = True
    score(scored)
    near = scratch.take("mask", inverse.shape, bool)
    reach = np.zeros_like(scored)
    for c, column in enumerate(bounds):
        column.take(inverse, out=cell_bounds, mode="clip")
        np.greater_equal(cell_bounds, scores[c, lead[c]] - _BOUND_MARGIN, out=near)
        reach[c, inverse[near]] = True
    reach &= ~scored
    if reach.any():
        score(reach)


def decide_columns(fusers, report_ints, scratch=FRESH):
    """Decisions of several fusers on one report batch, shape (len(fusers), T) int64.

    Chunk by chunk, the batch's TypeClasses are built once and shared by
    every fuser, so each distinct histogram is scored once per fuser and
    chunk. The count-prior fusers that bound a sorted chunk bound it
    together (:func:`_bounded_type_scores`): one bound product and two
    ``dp.subset_sums`` calls for all of them. The fusers must agree on n
    and m. The work arrays and the result
    come from `scratch`; from ``KEPT`` the result is valid until the next
    call, and the payoff game passes one chunk at a time, so that its slot
    stays the size of a chunk.
    """
    n, m = fusers[0].n, fusers[0].m
    if any((f.n, f.m) != (n, m) for f in fusers):
        raise ValueError("fusers must share n and m")
    report_ints = _as_report_ints(report_ints)
    out = scratch.take("decisions", (len(fusers), report_ints.shape[0]), np.int64)
    for rows, classes in _typed_chunks(report_ints, n, m, scratch):
        bounded = _bounded_type_scores(fusers, classes)
        for j, (fuser, scores) in enumerate(zip(fusers, bounded)):
            out[j, rows] = fuser.decide_ints(classes, scores)
    return out


def chunk_trials(n, m):
    """Trials per TypeClasses build: n * 2**m cells each, _CHUNK_CELLS cells in all."""
    return max(1, _CHUNK_CELLS // (n * 2**m))


def _typed_chunks(report_ints, n, m, scratch=FRESH):
    # (rows, TypeClasses of those rows) for consecutive chunks of trials; a
    # chunk's classes are used up before the next is built
    step = chunk_trials(n, m)
    for start in range(0, report_ints.shape[0], step):
        rows = slice(start, start + step)
        yield rows, TypeClasses(report_ints[rows], n, m, scratch)
