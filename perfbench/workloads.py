"""Workload definitions shared by the benchmark's parent and worker processes.

Nothing here imports byzfusion, so the parent process can name workloads and
size their work without paying the program's import cost.

A payoff workload is one 6x6 payoff matrix (n=20, eps=0.1, flip-rate grid
0.5..1.0 on both axes) followed by ``solve_mixed``. The exact workload runs
``oracle.exact_error_probability`` over a fixed list of small scenarios.
"""

N = 20
EPS = 0.1
GRID = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)

# name -> (placement model as (class name, args), m, trials per pass, tiny trials,
#          trials of the reference matrix)
# fixed6-m4 is sized near the repo's canonical 50k trials, where many (trial,
# hypothesis) cells of a row share one match-count histogram; the other two
# are sized for many short passes.
PAYOFF = {
    "indep-m4": (("IndependentAlpha", (0.3,)), 4, 5500, 300, 137_500),
    "fixed6-m4": (("FixedCount", (6,)), 4, 25_000, 100, 250_000),
    "bounded-m8": (("BoundedBelowHalf", ()), 8, 100, 12, 10_000),
}

# Fewest untraced passes a run makes, whatever --seconds says. Forty passes
# leave ten above the 75th percentile; fixed6-m4 passes take 8-14 s, so its
# runs report the median (here the mean) of two.
MIN_PASSES = {"indep-m4": 40, "fixed6-m4": 2, "bounded-m8": 40, "exact-sweep": 40}
MIN_PASSES_TINY = 8
P75_MIN_PASSES = 40

# (pmal_b, pmal_fc): one matched pair, one mismatched pair
EXACT_PAIRS = ((0.8, 0.8), (1.0, 0.6))
EXACT_SHAPES = ((3, 2), (6, 1), (7, 1), (2, 3))
EXACT_TINY_SHAPES = ((3, 2),)

WORKLOADS = tuple(PAYOFF) + ("exact-sweep",)

# Reference matrices are drawn with this seed, which no benchmark run uses.
REFERENCE_SEED = 987_654_321


def exact_models(n):
    """Placement models swept at network size n: independent, fixed n//3, bounded."""
    return (("IndependentAlpha", (0.3,)), ("FixedCount", (max(1, n // 3),)), ("BoundedBelowHalf", ()))


def exact_specs(tiny=False):
    """The exact-sweep scenario list as (n, m, pmal_b, pmal_fc, model spec) tuples."""
    shapes = EXACT_TINY_SHAPES if tiny else EXACT_SHAPES
    return [
        (n, m, pb, pfc, model)
        for n, m in shapes
        for model in exact_models(n)
        for pb, pfc in EXACT_PAIRS
    ]


def spec_key(spec):
    """Stable text key of an exact-sweep scenario, used in the reference file."""
    n, m, pb, pfc, (cls, args) = spec
    return f"n={n} m={m} pmal_b={pb} pmal_fc={pfc} {cls}{args}"


def kind(workload):
    """"payoff" or "exact": which layers of byzfusion the workload exercises."""
    return "payoff" if workload in PAYOFF else "exact"


def min_passes(workload, tiny=False):
    return MIN_PASSES_TINY if tiny else MIN_PASSES[workload]


def trials(workload, tiny=False):
    """Trials per payoff cell in one pass."""
    _, _, full, small, _ = PAYOFF[workload]
    return small if tiny else full


def decodes_per_pass(workload, tiny=False):
    """Report matrices MAP-decoded in one pass of the workload."""
    if workload in PAYOFF:
        return len(GRID) * len(GRID) * trials(workload, tiny)
    return sum(2 ** (n * m) for n, m, *_ in exact_specs(tiny))
