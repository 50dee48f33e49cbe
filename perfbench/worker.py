"""One benchmark process: import, warm up, then run workload passes and check them.

Started by run.py as a fresh interpreter per workload. It prints ``ready``
once imports and the warm-up pass are done (the parent times process start
to that line as set-up), then, unless ``--setup-only``, runs closed-loop
passes of one workload at workers=1 until the workload's minimum pass count
is reached and another pass as long as the last would end past
``--seconds``. The last stdout line is a JSON summary for the parent.

Pass times are calibrated: this machine's speed moves by up to 1.7x over
seconds to minutes with load from outside the process, more than the
benchmark's bounds. So a fixed calibration kernel is timed before and after
every untraced pass and, from a timer signal, every CAL_INTERVAL_S during it.
Each pass time, less the kernel's own time, is scaled by the kernel's
reference time over its mean time around and during the pass. A calibrated
time reads as the pass's seconds at the speed the machine had when the
reference time was taken. Wall times are reported too.

With ``--trace 1`` the passes alternate untraced and traced; the traced ones
record spans around byzfusion's public calls (see tracer.py), and the spans
are written to ``.perfbench_out/`` when the run ends.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time

import workloads as wl

# An error count of a payoff cell, or summed down one column, fails when an
# exact test says it is this unlikely to come from the reference's error rate
# (84 such counts per pass: 36 cells and 6 columns, two metrics).
ALPHA = 1e-6
EXACT_RTOL = 1e-9
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# The calibration kernel is interpreter work (a dict-and-int loop) that takes
# a few milliseconds. CAL_REF_S is its fastest time on the 2-core x86-64 box
# where the benchmark was defined.
CAL_REF_S = 0.0055
CAL_REPEATS = 3
CAL_INTERVAL_S = 0.5


def calibrate():
    """Fastest of CAL_REPEATS timings of the calibration kernel."""
    best = float("inf")
    for _ in range(CAL_REPEATS):
        t0 = time.perf_counter()
        d = {}
        s = 0
        for i in range(40_000):
            s += (i * 7) % 13
            d[i & 1023] = s
        best = min(best, time.perf_counter() - t0)
    return best


class PassCalibration:
    """Calibration samples taken from a timer signal while a pass runs."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - t0

    def start(self):
        self.samples = []
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def make_model(spec):
    from byzfusion import model

    cls, args = spec
    return getattr(model, cls)(*args)


class PayoffWorkload:
    """One 6x6 payoff matrix and its equilibrium per pass."""

    def __init__(self, name, seed, tiny):
        from byzfusion import game

        self.game = game
        spec, self.m = wl.PAYOFF[name][:2]
        placement = make_model(spec)
        self.scenario = game.Scenario(wl.N, self.m, wl.EPS, placement, placement)
        self.grid = game.StrategyGrid(wl.GRID)
        self.trials = wl.trials(name, tiny)
        self.seed = seed
        self.name = name

    def warm_up(self):
        self.game.estimate_payoff_matrix(self.scenario, self.grid, self.grid, trials=4, seed=0)
        # a game without a saddle point, so the LP route runs once
        self.game.solve_mixed([[1.0, 0.0], [0.0, 1.0]])

    def run_pass(self):
        pm = self.game.estimate_payoff_matrix(
            self.scenario, self.grid, self.grid, trials=self.trials, seed=self.seed, workers=1
        )
        self.game.solve_mixed(pm)
        return pm

    def check(self, pm, first, reference):
        """Failure reasons for one pass; empty when the output is correct."""
        reasons = []
        if first is not None and pm.to_csv() != first.to_csv():
            reasons.append("payoff.csv differs from the first pass at the same seed")
        ref = reference["payoff"][self.name]
        for metric, pe in (("component", pm.pe_component), ("sequence", pm.pe_sequence)):
            bad = [(i, j) for i, row in enumerate(pe) for j, v in enumerate(row) if not 0 <= v <= 1]
            if bad:
                reasons.append(f"pe_{metric} outside [0, 1] at {bad}")
                continue
            # error counts in trials: each trial adds its share of wrong components,
            # or 1 if its decision is wrong; rows draw independent trials, so a
            # column's counts may be summed
            k = [[round(v * self.trials) for v in row] for row in pe]
            k_ref = [[round(v * ref["trials"]) for v in row] for row in ref[f"pe_{metric}"]]
            rows, cols = range(len(k)), range(len(k[0]))
            groups = [(f"[{i}][{j}]", [(i, j)]) for i in rows for j in cols]
            groups += [(f"[:][{j}]", [(i, j) for i in rows]) for j in cols]
            for label, cells in groups:
                problem = count_test(
                    sum(k[i][j] for i, j in cells), len(cells) * self.trials,
                    sum(k_ref[i][j] for i, j in cells), len(cells) * ref["trials"],
                )
                if problem:
                    reasons.append(f"pe_{metric}{label}: {problem}")
        return reasons


def count_test(k, trials, k_ref, ref_trials):
    """Exact test of an error count in a pass against the reference's count.

    Under the same error rate, and given the two counts' sum, the pass's count
    is binomial with the pass's share of all trials. That holds in the Poisson
    limit; where a trial adds at most 1 to the count, as here, the counts spread
    no more than Poisson ones and the test is conservative. Returns a reason,
    or None when the counts agree.
    """
    from scipy.stats import binom

    total = k + k_ref
    share = trials / (trials + ref_trials)
    p = 2.0 * min(binom.cdf(k, total, share), binom.sf(k - 1, total, share))
    if p < ALPHA:
        return f"{k} in {trials} trials vs reference {k_ref} in {ref_trials} (p = {p:.2g})"
    return None


class ExactWorkload:
    """Exact error probabilities of a fixed list of small scenarios per pass."""

    def __init__(self, tiny):
        from byzfusion import oracle

        self.oracle = oracle
        self.specs = wl.exact_specs(tiny)
        self.scenarios = [
            oracle.ExactScenario(n, m, wl.EPS, pb, pfc, make_model(spec), make_model(spec))
            for n, m, pb, pfc, spec in self.specs
        ]

    def warm_up(self):
        self.oracle.exact_error_probability(self.scenarios[0])

    def run_pass(self):
        return [self.oracle.exact_error_probability(sc) for sc in self.scenarios]

    def check(self, values, first, reference):
        reasons = []
        pinned = reference["exact"]
        for spec, value in zip(self.specs, values):
            want = pinned[wl.spec_key(spec)]
            if abs(value - want) > EXACT_RTOL * abs(want):
                reasons.append(f"{wl.spec_key(spec)}: {value!r} vs pinned {want!r}")
        return reasons


def make_workload(name, seed, tiny):
    if name in wl.PAYOFF:
        return PayoffWorkload(name, seed, tiny)
    return ExactWorkload(tiny)


def measure(workload, args, reference):
    """Closed-loop passes; returns (untraced times, traced times, per-layer samples, stats)."""
    from tracer import Tracer

    tracer = Tracer() if args.trace else None
    min_passes = wl.min_passes(args.workload, args.tiny)
    if tracer:
        # each half needs only medians, not the 75th percentile
        min_passes = max(1, min_passes // 2)
    times = {False: [], True: []}  # traced -> [(wall seconds, calibrated seconds)]
    during = PassCalibration()
    layers = []
    attempted = failed = 0
    first = None
    first_failure = None
    start = time.perf_counter()
    cal_before = calibrate()
    while True:
        traced = bool(tracer) and len(times[False]) > len(times[True])
        if traced:
            tracer.reset()
            tracer.install()
        else:
            # a traced pass takes no samples: they would land inside its spans
            during.start()
        try:
            t0 = time.perf_counter()
            out = workload.run_pass()
            elapsed = time.perf_counter() - t0
        finally:
            if traced:
                tracer.remove()
            else:
                during.stop()
        samples = []
        if not traced:
            elapsed -= during.spent
            samples = during.samples
        cal_after = calibrate()
        scale = CAL_REF_S / statistics.fmean([cal_before, cal_after] + samples)
        cal_before = cal_after
        times[traced].append((elapsed, elapsed * scale))
        if traced:
            layers.append(tracer.layer_metrics())
        reasons = workload.check(out, first, reference)
        if first is None:
            first = out
        attempted += 1
        if reasons:
            failed += 1
            first_failure = first_failure or reasons[0]
        enough = len(times[False]) >= min_passes and (not tracer or len(times[True]) >= min_passes)
        # stop rather than start a pass that would likely end past --seconds
        if enough and time.perf_counter() - start + elapsed > args.seconds:
            break
    stats = {"attempted": attempted, "failed": failed, "first_failure": first_failure}
    if tracer:
        stats["absent_layers"] = tracer.absent
        stats["spans"] = tracer.spans
    return times[False], times[True], layers, stats


def write_trace(args, stats, layers):
    out_dir = os.path.join(os.getcwd(), ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(
            {
                "columns": ["name", "start", "end", "parent"],
                "spans": stats["spans"],
                "per_pass_layers": layers,
            },
            fh,
        )
    return path


def summarize(args, untraced, traced, layers, stats):
    out = {
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "first_failure": stats["first_failure"],
        "passes": len(untraced),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    calibrated = [c for _, c in untraced]
    median = statistics.median(calibrated)
    out["run_s"] = median
    out["wall_run_s"] = statistics.median(w for w, _ in untraced)
    # the highest percentile with at least ten passes above it, if any
    out["run_s_p75"] = None
    if len(untraced) >= wl.P75_MIN_PASSES:
        out["run_s_p75"] = statistics.quantiles(calibrated, n=4, method="inclusive")[2]
    out["decodes_per_s"] = wl.decodes_per_pass(args.workload, args.tiny) / median
    if args.trace:
        from tracer import not_applicable

        per_layer = {}
        for name, (_, unit) in layers[0].items():
            per_layer[name] = (statistics.median(pass_[name][0] for pass_ in layers), unit)
        overhead = statistics.median(c for _, c in traced) / median - 1.0
        per_layer["trace.overhead_frac"] = (overhead, "ratio")
        out["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in per_layer.items()}
        out["traced_passes"] = len(traced)
        out["absent_layers"] = stats["absent_layers"]
        out["not_applicable"] = not_applicable(wl.kind(args.workload))
        out["trace_file"] = os.path.relpath(write_trace(args, stats, layers))
    return out


def environment():
    import numpy
    import scipy

    import byzfusion

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "byzfusion": os.path.relpath(os.path.dirname(byzfusion.__file__)),
        "nproc": os.cpu_count(),
        "threads": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    workload = make_workload(args.workload, args.seed, args.tiny)
    workload.warm_up()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    with open(REFERENCE_FILE) as fh:
        reference = json.load(fh)
    untraced, traced, layers, stats = measure(workload, args, reference)
    result = summarize(args, untraced, traced, layers, stats)
    result["env"] = environment()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
