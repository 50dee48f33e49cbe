"""Monte Carlo payoff matrices for the flip-probability duel, plus solvers.

The Byzantines pick a flip probability pmal_b (row player, maximizing the
fusion error), the fusion center picks the flip probability pmal_fc it
assumes when decoding (column player, minimizing). Payoffs are estimated
by simulation: for each row the trial realizations (states and node rows)
are drawn once and reused for every column, so column comparisons
within a row share common random numbers and row jobs are independent,
which keeps results identical under any worker count.

The solving side is standard finite zero-sum machinery: dominance checks,
pure saddle points, and mixed equilibria via a pair of linear programs with
a support-enumeration fallback used for cross-validation. Each LP is solved
by a small dense tableau simplex under Bland's rule (``_maximin``), with
numpy alone; the strategies it returns certify the value from both sides,
and the gap between the two bounds is checked. Each two-player rule is
written once, for the maximizer: the minimizer's dominance sweep, saddle
test and LP are the maximizer's on -a^T.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .fusion import BatchFuser, FusionAssumption, chunk_trials, decide_columns
from .model import IndependentAlpha, mix64, placement_law, stream_rows
from .scratch import KEPT

__all__ = [
    "DEFAULT_GRID",
    "NOISE_SIGMAS",
    "StrategyGrid",
    "Scenario",
    "PayoffMatrix",
    "parse_payoff_csv",
    "simulate_row",
    "trial_errors",
    "MAJORITY_VOTE",
    "estimate_payoff_matrix",
    "estimate_payoff_and_majority",
    "find_dominant_row",
    "DominanceReport",
    "dominance_report",
    "find_pure_equilibria",
    "solve_lp_pair",
    "Equilibrium",
    "solve_mixed",
    "solve_mixed_enum",
    "eliminate_dominated",
    "METRICS",
    "saddle_points_within_noise",
    "fmt",
]

DEFAULT_GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

# Componentwise majority voting, ties to 0, as a fusion assumption: a center
# that assumes no Byzantines and eps = 1/4 scores a hypothesis c*log(3) +
# const per node with c matches, so the hypothesis with the most agreements
# wins, bit by bit, and argmax_lex sends every tied bit to 0.
MAJORITY_VOTE = FusionAssumption(IndependentAlpha(0.0), 0.25, 0.0)

METRICS = ("per-component", "per-sequence")

# estimated entries closer than this many combined standard errors count as tied
NOISE_SIGMAS = 3.0
_DUALITY_TOL = 1e-9  # largest LP duality gap solve_mixed accepts, per unit of max(1, |a|)
# the simplex pivots at most this many times per row and column of the game;
# Bland's rule cannot cycle, so the cap only guards against rounding
_PIVOTS_PER_LINE = 50
_PIVOT_TOL = 1e-12  # reduced costs and pivot entries within this of 0 count as 0
_ENUM_TOL = 1e-8  # slack of the support checks in solve_mixed_enum


@dataclass(frozen=True)
class StrategyGrid:
    """Ascending flip probabilities one side may play."""

    values: tuple = DEFAULT_GRID

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if len(vals) == 0:
            raise ValueError("grid must be nonempty")
        if any(not 0.0 <= v <= 1.0 for v in vals):
            raise ValueError("grid values must lie in [0, 1]")
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise ValueError("grid values must be strictly ascending")
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return len(self.values)

    def __getitem__(self, i):
        return self.values[i]


@dataclass(frozen=True)
class Scenario:
    """Fixed experiment context: network size, components, eps, both models."""

    n: int
    m: int
    eps: float
    true_model: object
    fc_model: object

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be positive")
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError("eps must lie in [0, 1]")
        placement_law(self.true_model, self.n)
        placement_law(self.fc_model, self.n)


@dataclass(eq=False)
class PayoffMatrix:
    """Estimated error probabilities on a strategy grid, both metrics kept.

    `metric` selects which estimate the solvers and exporters read; the
    other stays available. Standard errors are per cell.
    """

    grid_b: StrategyGrid
    grid_fc: StrategyGrid
    pe_component: np.ndarray
    pe_sequence: np.ndarray
    se_component: np.ndarray
    se_sequence: np.ndarray
    trials: int
    seed: int
    metric: str = "per-component"

    def __post_init__(self):
        if self.metric not in METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")

    @property
    def pe(self):
        return self.pe_component if self.metric == "per-component" else self.pe_sequence

    @property
    def se(self):
        return self.se_component if self.metric == "per-component" else self.se_sequence

    def to_csv(self, comments=None):
        """Render the selected metric as CSV text, 6 significant digits.

        Standard metadata (seed, trials, metric) is embedded as comment
        lines; `comments` adds caller metadata ahead of it.
        """
        lines = []
        meta = dict(comments or {})
        meta.update(seed=self.seed, trials=self.trials, metric=self.metric)
        for key, value in meta.items():
            lines.append(f"# {key} = {value}")
        lines.append("pmal_b/pmal_fc," + ",".join(fmt(v) for v in self.grid_fc.values))
        for i, pb in enumerate(self.grid_b.values):
            lines.append(fmt(pb) + "," + ",".join(fmt(v) for v in self.pe[i]))
        return "\n".join(lines) + "\n"

    def to_markdown(self, comments=None):
        """Same table as a markdown grid."""
        lines = []
        meta = dict(comments or {})
        meta.update(seed=self.seed, trials=self.trials, metric=self.metric)
        for key, value in meta.items():
            lines.append(f"*{key} = {value}*")
        lines.append("")
        header = "| pmal_b \\ pmal_fc | " + " | ".join(fmt(v) for v in self.grid_fc.values) + " |"
        lines.append(header)
        lines.append("|" + " --- |" * (len(self.grid_fc) + 1))
        for i, pb in enumerate(self.grid_b.values):
            lines.append(
                "| " + fmt(pb) + " | " + " | ".join(fmt(v) for v in self.pe[i]) + " |"
            )
        return "\n".join(lines) + "\n"


def parse_payoff_csv(text, metric="per-component"):
    """PayoffMatrix from payoff.csv text, as PayoffMatrix.to_csv writes it (or hand-made).

    Injected matrices are treated as exact: the stored entries are `metric`'s
    estimates, with zero standard errors, and the other metric's estimates
    and standard errors are NaN, since the file does not hold them. Text
    whose ``# metric =`` line names another metric than `metric` is rejected
    with ValueError, as is a ragged table, a non-numeric or non-finite cell
    or a grid that is not ascending.
    """
    meta = {}
    rows = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if sep:
                meta[key.strip()] = value.strip()
            continue
        rows.append([cell.strip() for cell in line.split(",")])
    if meta.get("metric", metric) != metric:
        raise ValueError(f"holds the {meta['metric']} metric, not {metric}")
    if len(rows) < 2:
        raise ValueError("expected a header row and at least one data row")
    if any(len(r) != len(rows[0]) for r in rows[1:]):
        raise ValueError("ragged payoff table")
    grid_fc = StrategyGrid(tuple(float(v) for v in rows[0][1:]))
    grid_b = StrategyGrid(tuple(float(r[0]) for r in rows[1:]))
    entries = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    if not np.isfinite(entries).all():
        raise ValueError("payoff entries must be finite")
    held = (entries, np.zeros_like(entries))
    unknown = (np.full_like(entries, np.nan), np.full_like(entries, np.nan))
    (pe_c, se_c), (pe_s, se_s) = (held, unknown) if metric == "per-component" else (unknown, held)
    return PayoffMatrix(
        grid_b=grid_b,
        grid_fc=grid_fc,
        pe_component=pe_c,
        pe_sequence=pe_s,
        se_component=se_c,
        se_sequence=se_s,
        trials=int(meta.get("trials", 0)),
        seed=int(meta.get("seed", 0)),
        metric=metric,
    )


def trial_errors(diff, m):
    """Error of deciding d in state s, from diff = d ^ s packed, one row per metric.

    In METRICS order: the share of the m components decided wrong, and 1.0
    where the sequence is wrong. Shape (2, *diff.shape), float64.
    """
    return np.stack([np.bitwise_count(diff) / m, diff != 0])


def _error_stats(decisions, states, m):
    """(4, C): rows pe_component, pe_sequence, se_component, se_sequence, a column per decoder.

    decisions (C, T) and states (T,) are packed. Standard errors use ddof=1,
    or ddof=0 for a single trial. Each column's errors, read off the table
    ``trial_errors(np.arange(2**m), m)`` as the oracle reads them, pass one
    metric at a time through a lane of T floats, by the steps of ``mean``
    and ``std``: the same sums in the same order, so the same bits.
    """
    trials = states.shape[0]
    ddof = 1 if trials > 1 else 0
    table = trial_errors(np.arange(2**m), m)
    stats = np.empty((4, decisions.shape[0]))
    diff = np.empty(trials, dtype=np.int64)
    lane = np.empty(trials)
    for c, column in enumerate(decisions):
        np.bitwise_xor(column, states, out=diff)
        # every diff is below 2**m, and mode="clip" keeps take from buffering
        for metric, errors in enumerate(table):
            stats[metric::2, c] = _mean_and_se(errors.take(diff, out=lane, mode="clip"), ddof)
    return stats


def _mean_and_se(lane, ddof):
    # the steps of lane.mean() and lane.std(ddof=ddof) / sqrt(T); overwrites lane
    trials = lane.shape[0]
    mean = np.add.reduce(lane) / trials
    lane -= mean
    lane *= lane
    return mean, np.sqrt(np.add.reduce(lane) / (trials - ddof)) / np.sqrt(trials)


def fmt(v):
    """`v` to 6 significant digits, the one rendering of numbers in every report."""
    return f"{v:.6g}"


def simulate_row(scenario, pmal_b, trials, rng):
    """One row's draws, packed: states (T,) and ``model.stream_rows``' chunks.

    The chunks hold ``fusion.chunk_trials`` trials each, in this thread's
    kept buffers; ``model.sample_rows`` draws the same as two new arrays.
    """
    if trials < 1:
        raise ValueError("trials must be positive")
    args = (rng, scenario.true_model, scenario.n, scenario.m, scenario.eps, pmal_b, trials)
    return stream_rows(*args, chunk_trials(scenario.n, scenario.m), KEPT)


def _row_errors(scenario, pmal_b, fusers, trials, row_seed):
    # (4, len(fusers)) error stats of one row's draws, a column per fuser.
    # Each chunk is drawn, then decoded by every column, in kept buffers; the
    # row keeps only its packed decisions, < 2**m <= 2**12
    rng = np.random.default_rng(row_seed)
    states, chunks = simulate_row(scenario, pmal_b, trials, rng)
    decisions = np.empty((len(fusers), trials), dtype=np.uint16)
    for block, rows in chunks:
        decisions[:, block] = decide_columns(fusers, rows, KEPT)
    return _error_stats(decisions, states, scenario.m)


def _estimate(scenario, grid_b, grid_fc, trials, seed, metric, workers, extra):
    # the PayoffMatrix over grid_fc, then a one-column PayoffMatrix for each
    # `extra` assumption, decoded as one more column of each row's draws
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}")
    if trials < 1:
        raise ValueError("trials must be positive")
    columns = [FusionAssumption(scenario.fc_model, scenario.eps, p) for p in grid_fc.values]
    # one fuser per column for the whole matrix: each keeps the type scores
    # it has summed, and every row reads them
    fusers = [BatchFuser(a, scenario.n, scenario.m) for a in columns + extra]
    jobs = [
        (scenario, pmal_b, fusers, trials, mix64(seed, i))
        for i, pmal_b in enumerate(grid_b.values)
    ]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda args: _row_errors(*args), jobs))
    else:
        results = [_row_errors(*args) for args in jobs]
    stats = np.stack(results, axis=1)
    k = len(grid_fc)
    return [PayoffMatrix(grid_b, grid_fc, *stats[:, :, :k], trials, seed, metric)] + [
        PayoffMatrix(grid_b, StrategyGrid((a.pmal_fc,)), *stats[:, :, k + j, None],
                     trials, seed, metric)
        for j, a in enumerate(extra)
    ]


def estimate_payoff_matrix(
    scenario,
    grid_b=None,
    grid_fc=None,
    trials=50_000,
    seed=0,
    metric="per-component",
    workers=1,
):
    """Estimate the payoff matrix over the two strategy grids.

    Row realizations are seeded by mix64(seed, row_index) independently of
    worker scheduling; every column of a row decodes the same realizations.
    """
    grid_b = grid_b if grid_b is not None else StrategyGrid()
    grid_fc = grid_fc if grid_fc is not None else StrategyGrid()
    return _estimate(scenario, grid_b, grid_fc, trials, seed, metric, workers, [])[0]


def estimate_payoff_and_majority(scenario, grid_b, grid_fc, trials, seed, metric, workers):
    """(pm, majority): estimate_payoff_matrix's matrix, and majority voting's.

    Majority voting (MAJORITY_VOTE) is decoded as one more column of each
    payoff row, so it is scored on that row's own trials. `majority` is a
    PayoffMatrix over grid_b with the single column MAJORITY_VOTE.pmal_fc.
    """
    pm, majority = _estimate(
        scenario, grid_b, grid_fc, trials, seed, metric, workers, [MAJORITY_VOTE]
    )
    return pm, majority


def _entries(pm):
    a = pm.pe if isinstance(pm, PayoffMatrix) else np.asarray(pm, dtype=np.float64)
    if a.ndim != 2 or a.size == 0:
        raise ValueError("payoff matrix must be 2-d and nonempty")
    if not np.isfinite(a).all():
        raise ValueError("payoff entries must be finite")
    return a


def _beats(a, strict=True):
    # [r, i]: row r is above row i in every column, strictly or not
    above = np.greater if strict else np.greater_equal
    return above(a[:, None, :], a[None, :, :]).all(axis=2)


def find_dominant_row(pm, strict=True):
    """Row index best for the maximizer against every column, or None.

    strict: the row beats every other row in every column. Non-strict: the
    row is at least as good everywhere (first such index wins).
    """
    a = _entries(pm)
    dominant = np.flatnonzero((_beats(a, strict) | np.eye(len(a), dtype=bool)).all(axis=1))
    return int(dominant[0]) if dominant.size else None


@dataclass(frozen=True)
class DominanceReport:
    """Dominant-row verdict plus how far it sits above the noise floor."""

    row: int | None
    level: str  # "strict", "weak" or "none"
    margin_sigmas: float
    separated: bool


def dominance_report(pm):
    """Judge row dominance against the estimation noise of a PayoffMatrix.

    margin_sigmas is the smallest gap between the candidate row and any
    rival cell in units of the combined standard error; `separated` means
    every gap clears NOISE_SIGMAS.
    """
    if not isinstance(pm, PayoffMatrix):
        raise TypeError("dominance_report needs a PayoffMatrix with standard errors")
    row = find_dominant_row(pm, strict=True)
    level = "strict"
    if row is None:
        row = find_dominant_row(pm, strict=False)
        level = "weak" if row is not None else "none"
    if row is None:
        return DominanceReport(row=None, level="none", margin_sigmas=-np.inf, separated=False)
    gaps = pm.pe[row] - np.delete(pm.pe, row, axis=0)
    ses = np.sqrt(pm.se[row] ** 2 + np.delete(pm.se, row, axis=0) ** 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(
            ses > 0, gaps / ses, np.where(gaps > 0, np.inf, np.where(gaps < 0, -np.inf, 0.0))
        )
    margin = float(ratio.min()) if ratio.size else np.inf
    return DominanceReport(row, level, margin, separated=margin > NOISE_SIGMAS)


def _beaten_in_column(a, se):
    # [r, c]: some a[i, c] exceeds a[r, c] by more than NOISE_SIGMAS * hypot(se[r, c], se[i, c])
    margin = NOISE_SIGMAS * np.hypot(se[:, None, :], se[None, :, :])  # [r, i, c]
    return (a[None, :, :] > a[:, None, :] + margin).any(axis=1)


def _saddle_points(a, se):
    # cells (r, c), row-major, that no rival in their column beats for the
    # maximizer and no rival in their row beats for the minimizer, which is
    # the maximizer's column test on -a^T
    beaten = _beaten_in_column(a, se) | _beaten_in_column(-a.T, se.T).T
    return [(int(r), int(c)) for r, c in np.argwhere(~beaten)]


def find_pure_equilibria(pm):
    """All saddle points (row max of its column, column min of its row).

    Exact entry comparisons, row-major order: the rule of
    saddle_points_within_noise with zero standard errors.
    """
    a = _entries(pm)
    return _saddle_points(a, np.zeros_like(a))


def saddle_points_within_noise(pm):
    """Saddle points of an estimated matrix, up to sampling noise.

    A cell counts as a saddle when no same-column rival exceeds it and no
    same-row rival undercuts it by more than NOISE_SIGMAS combined standard
    errors. With zero standard errors this is find_pure_equilibria.
    Only meaningful on a PayoffMatrix carrying standard errors.
    """
    a = np.asarray(pm.pe, dtype=np.float64)
    se = np.asarray(pm.se, dtype=np.float64)
    if not (np.isfinite(a).all() and np.isfinite(se).all()):
        raise ValueError("payoff entries and standard errors must be finite")
    return _saddle_points(a, se)


def _maximin(b):
    # The maximizer's optimal mixture p on b, by a dense tableau simplex with
    # Bland's rule. b is shifted and scaled to c in [1, 2], which keeps the
    # optimal strategies. The LP max 1.y s.t. c y <= 1, y >= 0 is then
    # feasible at the origin and bounded; at its optimum the slacks' reduced
    # costs x solve the dual min 1.x s.t. c^T x >= 1, x >= 0, so p = x / sum(x)
    # and c's value is 1 / sum(x) (Dantzig 1951). Raises RuntimeError at the
    # pivot cap.
    nr, nc = b.shape
    t = np.zeros((nr + 1, nc + nr + 1))
    t[:nr, :nc] = 1.0 + (b - b.min()) / (np.ptp(b) or 1.0)
    t[:nr, nc:-1] = np.eye(nr)
    t[:nr, -1] = 1.0
    t[nr, :nc] = -1.0
    basis = np.arange(nc, nc + nr)
    for _ in range(_PIVOTS_PER_LINE * (nr + nc)):
        entering = np.flatnonzero(t[nr, :-1] < -_PIVOT_TOL)
        if entering.size == 0:
            x = np.clip(t[nr, nc:-1], 0.0, None)
            return x / x.sum()
        # Bland: the first improving column, and of the rows tied for the
        # least ratio the one whose basic variable comes first
        j = entering[0]
        rows = np.flatnonzero(t[:nr, j] > _PIVOT_TOL)
        ratios = t[rows, -1] / t[rows, j]
        ties = rows[ratios == ratios.min()]
        i = ties[np.argmin(basis[ties])]
        t[i] /= t[i, j]
        col = t[:, j].copy()
        col[i] = 0.0
        t -= np.outer(col, t[i])
        basis[i] = j
    raise RuntimeError(f"simplex reached its pivot cap on a {nr}x{nc} game")


def solve_lp_pair(a):
    """Maximin and minimax linear programs; returns (p, v_row, q, v_col).

    The minimizer's LP is the maximizer's on -a^T. The values certify the
    strategies themselves: v_row = min(p @ a) is what p guarantees and
    v_col = max(a @ q) what q concedes, so v_row <= value <= v_col up to
    rounding, and v_col - v_row is the duality gap of the pair. Raises
    RuntimeError if the simplex reaches its pivot cap.
    """
    a = _entries(a)
    p = _maximin(a)
    q = _maximin(-a.T)
    return p, float((p @ a).min()), q, float((a @ q).max())


@dataclass(frozen=True)
class Equilibrium:
    """Optimal mixed strategies and game value; pure profile noted if one exists."""

    p: np.ndarray
    q: np.ndarray
    value: float
    pure: tuple | None


def solve_mixed(pm):
    """Equilibrium of the zero-sum game given by the payoff matrix.

    A saddle point short-circuits to the degenerate mixture on its profile
    (value taken exactly from the entry). Otherwise the LP pair is solved
    and must agree within _DUALITY_TOL * max(1, |a|); support enumeration
    backs it up on small matrices if it does not, or if the simplex reaches
    its pivot cap.
    """
    a = _entries(pm)
    saddles = find_pure_equilibria(a)
    if saddles:
        r, c = saddles[0]
        p = np.zeros(a.shape[0])
        q = np.zeros(a.shape[1])
        p[r] = 1.0
        q[c] = 1.0
        return Equilibrium(p=p, q=q, value=float(a[r, c]), pure=(r, c))
    try:
        p, v_row, q, v_col = solve_lp_pair(a)
    except RuntimeError as err:
        failure = str(err)
    else:
        if abs(v_row - v_col) <= _DUALITY_TOL * max(1.0, np.abs(a).max()):
            return Equilibrium(p=p, q=q, value=0.5 * (v_row + v_col), pure=None)
        failure = f"LP duality gap {abs(v_row - v_col):.3e} exceeds tol"
    fallback = solve_mixed_enum(a) if max(a.shape) <= 10 else None
    if fallback is None:
        raise RuntimeError(f"{failure} and no fallback applies")
    p, q, value = fallback
    return Equilibrium(p=p, q=q, value=value, pure=None)


def solve_mixed_enum(a):
    """Support enumeration over square supports; independent of the LP route.

    Returns (p, q, value) or None if no square support passes the checks.
    Capped at 10x10.
    """
    a = _entries(a)
    nr, nc = a.shape
    if max(nr, nc) > 10:
        raise ValueError("support enumeration capped at 10x10 matrices")
    scale = max(1.0, np.abs(a).max())
    for size in range(1, min(nr, nc) + 1):
        for rows in itertools.combinations(range(nr), size):
            for cols in itertools.combinations(range(nc), size):
                sub = a[np.ix_(rows, cols)]
                try:
                    q_sub, v = _support_solve(sub)
                    p_sub, v2 = _support_solve(sub.T)
                except np.linalg.LinAlgError:
                    continue
                if abs(v - v2) > _ENUM_TOL * scale:
                    continue
                if (q_sub < -_ENUM_TOL).any() or (p_sub < -_ENUM_TOL).any():
                    continue
                p = np.zeros(nr)
                q = np.zeros(nc)
                p[list(rows)] = np.clip(p_sub, 0.0, None)
                q[list(cols)] = np.clip(q_sub, 0.0, None)
                p /= p.sum()
                q /= q.sum()
                if (a @ q > v + _ENUM_TOL * scale).any():
                    continue
                if (p @ a < v - _ENUM_TOL * scale).any():
                    continue
                return p, q, float(v)
    return None


def _support_solve(sub):
    # q and v with sub @ q = v * 1 and sum(q) = 1
    k = sub.shape[0]
    lhs = np.zeros((k + 1, k + 1))
    lhs[:k, :k] = sub
    lhs[:k, k] = -1.0
    lhs[k, :k] = 1.0
    rhs = np.zeros(k + 1)
    rhs[k] = 1.0
    sol = np.linalg.solve(lhs, rhs)
    return sol[:k], sol[k]


def eliminate_dominated(pm):
    """Iterated strict dominance; returns (kept_rows, kept_cols).

    Each pass drops at once every kept row that a kept row beats in every
    kept column, and every column beaten by the same rule on -a^T; it stops
    when a pass drops nothing. The order of elimination does not change the
    kept sets.
    """
    a = _entries(pm)
    rows = np.arange(a.shape[0])
    cols = np.arange(a.shape[1])
    while True:
        sub = a[np.ix_(rows, cols)]
        keep_rows = ~_beats(sub).any(axis=0)
        keep_cols = ~_beats(-sub.T).any(axis=0)
        if keep_rows.all() and keep_cols.all():
            return rows, cols
        rows, cols = rows[keep_rows], cols[keep_cols]
