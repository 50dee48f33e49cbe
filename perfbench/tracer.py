"""Spans around calls into byzfusion's public functions, installed from outside.

The tracer replaces a module or class attribute with a timing wrapper while
it is installed and puts the original back when it is removed, so untraced
passes run the program's own code untouched. Each call becomes a span with
name, start, end and parent; calls marked hot (tens of thousands per pass)
are only aggregated into a call count, total time and self time. A target
that no longer exists is recorded as absent and otherwise ignored. Every
per-layer metric is reported on every workload, so a layer that is absent, or
that the workload does not use, reads 0; ``Tracer.absent`` and
``not_applicable()`` say which.
"""

import importlib
import time

# (layer name, "module:attribute[.attribute]", hot)
TARGETS = (
    ("game.estimate", "byzfusion.game:estimate_payoff_matrix", False),
    ("model.sample", "byzfusion.game:simulate_row", False),
    ("bits.pack", "byzfusion.game:pack_bits", False),
    ("fusion.build", "byzfusion.fusion:BatchFuser.__init__", False),
    ("fusion.decode", "byzfusion.fusion:BatchFuser.decide_ints", False),
    ("game.solve", "byzfusion.game:solve_mixed", False),
    ("game.find_pure_equilibria", "byzfusion.game:find_pure_equilibria", False),
    ("game.solve_lp_pair", "byzfusion.game:solve_lp_pair", False),
    ("game.solve_mixed_enum", "byzfusion.game:solve_mixed_enum", False),
    ("oracle.exact", "byzfusion.oracle:exact_error_probability", False),
    ("fusion.fuse", "byzfusion.oracle:fuse", True),
    ("dp.subset_sum", "byzfusion.dp:subset_sum", True),
    ("dp.subset_sum", "byzfusion.dp:subset_sum_all", True),
)


def _count_decode(tracer, args, result):
    trials = len(result)  # one decision per trial
    tracer.counts["fusion.decode_trials"] = tracer.counts.get("fusion.decode_trials", 0) + trials
    m = getattr(args[0], "m", None)
    if m is not None:
        cells = trials * 2**m
        tracer.counts["fusion.decode_cells"] = tracer.counts.get("fusion.decode_cells", 0) + cells


def _count_saddle(tracer, args, result):
    if result:
        tracer.counts["game.route_saddle"] = tracer.counts.get("game.route_saddle", 0) + 1


ON_RESULT = {"fusion.decode": _count_decode, "game.find_pure_equilibria": _count_saddle}


class Tracer:
    """In-memory span recorder; install() wraps every target, remove() restores them."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None], non-hot calls only
        self.totals = {}  # name -> [calls, seconds, self seconds]
        self.counts = {}
        self.absent = []
        self._stack = []  # open calls: [index to use as parent, seconds spent in children]
        self._undo = []

    def reset(self):
        """Start a new pass: drop aggregates, keep recorded spans."""
        self.totals = {}
        self.counts = {}

    def install(self):
        self.absent = []
        for name, target, hot in TARGETS:
            module_name, _, path = target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(target)
                continue
            setattr(owner, attr, self._wrap(name, hot, original))
            self._undo.append((owner, attr, original))

    def remove(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, hot, fn):
        on_result = ON_RESULT.get(name)

        def wrapper(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else None
            index = parent
            if not hot:
                index = len(self.spans)
                self.spans.append([name, 0.0, 0.0, parent])
            frame = [index, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                seconds = end - start
                if self._stack:
                    self._stack[-1][1] += seconds
                total = self.totals.setdefault(name, [0, 0.0, 0.0])
                total[0] += 1
                total[1] += seconds
                total[2] += seconds - frame[1]
                if not hot:
                    self.spans[index][1] = start
                    self.spans[index][2] = end
            if on_result is not None:
                on_result(self, args, result)
            return result

        return wrapper

    def layer_metrics(self):
        """Every per-layer figure of the pass since the last reset(), as name -> (value, unit)."""
        return {metric: (value(self), unit) for metric, unit, _, value in METRICS}


def not_applicable(kind):
    """Per-layer metrics that read 0 on a workload of this kind ("payoff" or "exact")."""
    return [metric for metric, _, applies_to, _ in METRICS if applies_to != kind]


def _calls(name):
    return lambda t: t.totals.get(name, [0, 0.0, 0.0])[0]


def _seconds(name):
    return lambda t: t.totals.get(name, [0, 0.0, 0.0])[1]


def _self_seconds(name):
    return lambda t: t.totals.get(name, [0, 0.0, 0.0])[2]


def _count(name):
    return lambda t: t.counts.get(name, 0)


def _ns_per_cell(t):
    cells = t.counts.get("fusion.decode_cells")
    return _seconds("fusion.decode")(t) * 1e9 / cells if cells else 0.0


PAYOFF, EXACT = "payoff", "exact"
# (metric, unit, kind of workload it applies to, value)
METRICS = (
    ("model.sample_s", "s", PAYOFF, _seconds("model.sample")),
    ("model.sample_calls", "count", PAYOFF, _calls("model.sample")),
    ("bits.pack_s", "s", PAYOFF, _seconds("bits.pack")),
    ("bits.pack_calls", "count", PAYOFF, _calls("bits.pack")),
    ("fusion.build_s", "s", PAYOFF, _seconds("fusion.build")),
    ("fusion.decode_s", "s", PAYOFF, _seconds("fusion.decode")),
    ("fusion.decode_trials", "count", PAYOFF, _count("fusion.decode_trials")),
    ("fusion.decode_ns_per_cell", "ns", PAYOFF, _ns_per_cell),
    ("fusion.fuse_s", "s", EXACT, _seconds("fusion.fuse")),
    ("fusion.fuse_calls", "count", EXACT, _calls("fusion.fuse")),
    ("dp.subset_sum_s", "s", EXACT, _seconds("dp.subset_sum")),
    ("dp.subset_sum_calls", "count", EXACT, _calls("dp.subset_sum")),
    ("oracle.exact_s", "s", EXACT, _seconds("oracle.exact")),
    ("oracle.self_s", "s", EXACT, _self_seconds("oracle.exact")),
    ("game.self_s", "s", PAYOFF, _self_seconds("game.estimate")),
    ("game.solve_s", "s", PAYOFF, _seconds("game.solve")),
    ("game.route_saddle", "count", PAYOFF, _count("game.route_saddle")),
    ("game.route_lp", "count", PAYOFF, _calls("game.solve_lp_pair")),
    ("game.route_enum", "count", PAYOFF, _calls("game.solve_mixed_enum")),
)
