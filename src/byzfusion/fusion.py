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
tie band and reading it as -inf picks the same hypothesis.

Ties are broken toward the lexicographically smallest sequence: any
hypothesis scoring within ``SCORE_TIE_TOL`` of the maximum counts as tied.
:func:`argmax_lex` is that rule, for the decoder and the references alike.
The tolerance makes exact mathematical ties (a fully blinded center,
perfectly balanced reports) deterministic across this decoder and the
exhaustive reference implementations, which may round differently.

``decide_columns`` is the one loop that turns a packed report batch into
decisions. Chunk by chunk (``chunk_trials`` trials, ``_CHUNK_CELLS`` cells)
it groups the batch's cells by type (``TypeClasses``), and each
``BatchFuser``, which fixes one assumption, scores each of the chunk's
types once (``BatchFuser.decide_ints``). The histograms do not
depend on the assumption, so the Monte Carlo game engine decodes every
column of a chunk in one call; ``fuse`` calls it with a single fuser. The
exact oracle shares the grouping and ``decide_ints`` but not the scores: it
sums its likelihoods.

The game engine streams each payoff row: it draws one chunk of trials
(``model.stream_rows``), decodes it with every column, and draws the next.
Each chunk's large work arrays, from the report rows through the gathered
cell scores, are views of buffers kept per thread (``scratch.KEPT``), so
after the first chunk they are not allocated again. ``argmax_lex``'s masks,
``np.unique``'s sort and the per-type arrays stay fresh. What a thread
keeps is bounded by the chunk, whatever the trial count: about 10 MB at
n = 20, m = 4. ``fuse``, ``BatchFuser.scores`` and the oracle take fresh
arrays (``scratch.FRESH``) through the same code.

``TypeClasses`` keys each cell by its histogram read as a base-(n + 1)
number (``_key_table``), and equal keys form a type. Where the key range is
small against the chunk (``_ranks_from_universe``), a cached table ranks
each key among all C(n + m, m) histograms of n nodes (``_universe``), and a
count-prior fuser, one per column of a payoff matrix or per oracle call,
sums a type only on the first chunk that has it. Elsewhere ``np.unique``
sorts the keys and each chunk's types are summed whole, or, at any m where
``_decodes_by_bound`` says so (at least ``_BOUND_MIN_TYPES`` types with at
most ``_BOUND_CELLS_PER_TYPE`` cells each), bound first. ``dp.subset_sums``
gives a type the same bits in any batch, so a kept score is the one a fresh
fuser would sum. Cells are stored hypothesis-major, (2**m, T):
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
    a cell per _TABLE_ENTRIES_PER_CELL entries; others sort with np.unique.
    """
    return (n + 1) ** m <= min(_CHUNK_CELLS, _TABLE_ENTRIES_PER_CELL * trials * 2**m)


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


def _hist_dot(hist, w):
    # sum_c H[c] * w[c] per row; an empty bin adds 0 even where w[c] = -inf
    finite = np.isfinite(w)
    out = hist @ np.where(finite, w, 0.0)
    out[(hist[:, ~finite] > 0).any(axis=1)] = -np.inf
    return out


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
    outside [1, BatchFuser.MAX_M] are ValueErrors. ``inverse`` and the work
    arrays come from `scratch` (``scratch.FRESH`` or ``scratch.KEPT``); from
    ``KEPT`` the instance is valid until the thread's next build.

    Keys are built from :func:`_key_table` by row counts or node by node
    (``_keys_from_row_counts``). Where ``_ranks_from_universe`` says so, the
    rank table of :func:`_universe` ranks them into its ``hist``, and
    ``present`` marks the types some cell has, or all on more than
    ``_DENSE_CELLS_PER_TYPE`` cells per type. Elsewhere ``np.unique`` ranks
    them, ``hist`` holds the chunk's types, and ``present`` is None. Either
    way one-word keys rank ascending, lexicographic on (H[m], ..., H[1]).
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
        if _ranks_from_universe(n, m, trials):
            self.hist, self.float_hist, rank = _universe(n, m)
            # every key is a histogram's, and mode="clip" keeps take from
            # buffering its output
            inverse = scratch.take("cells_f", keys[0].shape, np.intp)
            rank.take(keys[0], out=inverse, mode="clip")
            dense = inverse.size > _DENSE_CELLS_PER_TYPE * self.hist.shape[0]
            self.present = np.full(self.hist.shape[0], dense)
            if not dense:
                self.present[inverse] = True
        else:
            if keys.shape[0] == 1:
                uniq, inverse = np.unique(keys[0], return_inverse=True)
            else:
                uniq, inverse = np.unique(keys.T, axis=0, return_inverse=True)
            # the distinct keys, words x types, are split into digits H[1..m]
            uniq = uniq.reshape(-1, keys.shape[0]).T
            hist = np.empty((uniq.shape[1], m + 1), dtype=np.int64)
            for c in range(1, m + 1):
                word = (c - 1) // per_word
                # floor division and a multiply-subtract beat np.divmod on int64
                q = uniq[word] // (n + 1)
                hist[:, c] = uniq[word] - q * (n + 1)
                uniq[word] = q
            hist[:, 0] = n - hist[:, 1:].sum(axis=1)
            self.hist, self.float_hist, self.present = hist, hist.astype(np.float64), None
        self.inverse = inverse.reshape(cells)
        self.scratch = scratch


class BatchFuser:
    """Vectorized MAP decoding of many report matrices under one assumption.

    Reports enter packed: one int per node row (first component = MSB), and
    :func:`decide_columns` returns decisions packed the same way. m is
    capped at MAX_M.

    Decoding goes by type class (see :class:`TypeClasses`): the match-count
    histograms of a batch are scored, not its cells, and each (trial,
    hypothesis) cell then reads its type's score. Independent priors score a
    type as H . w. Fixed-count and bounded priors sum the subset-weighted
    likelihood over the admissible Byzantine counts with
    :func:`byzfusion.dp.subset_sums`, keeping one score per universe type;
    :meth:`_subset_sums` is their one call into it.

    On a chunk that ``np.unique`` ranked, where ``_decodes_by_bound`` says so
    (at least 1536 types, at most 16 cells per type), the count priors bound
    every type from above (:meth:`_type_bounds`) and sum only the types that
    can still come within the tie band of their trial's maximum
    (:meth:`_bounded_type_scores`); the decisions are the same.
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
        universe chunk one call sums the present types not summed before, and
        the fuser's kept scores come back, for reading only; a type not yet
        summed, which no cell has, reads -inf.
        """
        if self._k_range is None:
            return _hist_dot(classes.float_hist, self._weights)
        if classes.present is None:
            return self._subset_sums(classes.hist)
        scores, summed = self._memo
        new = np.flatnonzero(classes.present & ~summed)
        if new.shape[0]:
            scores[new] = self._subset_sums(classes.hist[new])
            summed[new] = True
        return scores

    def _subset_sums(self, hist):
        # the subset priors' exact scores of the types of `hist`
        return dp.subset_sums(self._logb, self._logh, hist, *self._k_range)

    def _type_bounds(self, hist):
        """The module docstring's upper bound on :meth:`_type_scores`, per type of `hist`."""
        weights, shift = self._bound_terms
        return _hist_dot(hist, weights) + shift

    @functools.cached_property
    def _memo(self):
        # the count priors' score of each universe type, -inf until summed, and
        # a mark of the types summed, written in place by the threads sharing
        # the fuser: a type is marked once its batch-invariant sum is written
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

    def _bounded_type_scores(self, classes):
        # _type_scores of a sorted chunk's types some trial could pick, else -inf.
        # Each trial's bound-argmax type is scored exactly, giving a score L_t
        # the trial reaches; then every type with a cell whose bound is within
        # _BOUND_MARGIN of its trial's L_t. An unscored cell lies more than the
        # margin below its trial's maximum, so outside the tie band.
        inverse, scratch = classes.inverse, classes.scratch
        bounds = self._type_bounds(classes.float_hist)
        cell_bounds = bounds.take(
            inverse, out=scratch.take("cells_g", inverse.shape, np.float64), mode="clip"
        )
        lead = inverse[np.argmax(cell_bounds, axis=0), np.arange(inverse.shape[1])]
        scores = np.full(bounds.shape[0], -np.inf)
        scored = np.zeros(bounds.shape[0], dtype=bool)
        scored[lead] = True
        first = np.flatnonzero(scored)
        scores[first] = self._subset_sums(classes.hist[first])
        near = np.greater_equal(
            cell_bounds, scores[lead] - _BOUND_MARGIN,
            out=scratch.take("mask", inverse.shape, bool),
        )
        reach = np.zeros_like(scored)
        reach[inverse[near]] = True
        rest = np.flatnonzero(reach & ~scored)
        if rest.shape[0]:
            scores[rest] = self._subset_sums(classes.hist[rest])
        return scores

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

    def decide_ints(self, classes):
        """Packed MAP decision for each trial that `classes` groups, shape (T,) int64.

        :func:`decide_columns` builds `classes` once per chunk of trials and
        shares it across its fusers.
        """
        if (self._k_range is not None and classes.present is None
                and _decodes_by_bound(classes.inverse.size, len(classes.hist))):
            scores = self._bounded_type_scores(classes)
        else:
            scores = self._type_scores(classes)
        # every type index is in range, and mode="clip" keeps take from
        # buffering its output
        cells = scores.take(
            classes.inverse, out=classes.scratch.take("cells_g", classes.inverse.shape, np.float64),
            mode="clip",
        )
        return argmax_lex(cells, axis=0).astype(np.int64, copy=False)


def decide_columns(fusers, report_ints, scratch=FRESH):
    """Decisions of several fusers on one report batch, shape (len(fusers), T) int64.

    Chunk by chunk, the batch's TypeClasses are built once and shared by
    every fuser, so each distinct histogram is scored once per fuser and
    chunk. The fusers must agree on n and m. The work arrays and the result
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
        for j, fuser in enumerate(fusers):
            out[j, rows] = fuser.decide_ints(classes)
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
