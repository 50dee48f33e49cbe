"""Config-driven command line runner.

Subcommands::

    byzfusion payoff       estimate the payoff matrix, write payoff.csv/.md
    byzfusion equilibrium  solve the matrix game, write equilibrium.md
    byzfusion compare      majority vote vs optimum fusion, write compare.md
    byzfusion oracle-check cross-check Monte Carlo against exact enumeration

Experiments are described by a flat ``key = value`` config file; unknown
keys are rejected. A few flags (--seed, --trials, --metric, --out,
--workers) override the file. Every emitted file embeds the hash of the
effective experiment config and the seed, and contains no timestamps, so
identical inputs reproduce identical bytes.

Exit codes: 0 success, 1 config error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
from dataclasses import dataclass

from . import __version__
from .game import (
    DEFAULT_GRID,
    METRICS,
    NOISE_SIGMAS,
    PayoffMatrix,
    Scenario,
    StrategyGrid,
    dominance_report,
    eliminate_dominated,
    estimate_payoff_and_majority,
    estimate_payoff_matrix,
    find_pure_equilibria,
    fmt,
    parse_payoff_csv,
    saddle_points_within_noise,
    solve_mixed,
)
from .fusion import BatchFuser
from .model import (
    BoundedBelowHalf,
    FixedCount,
    IndependentAlpha,
    UnconstrainedMaxEntropy,
)
from .oracle import ExactScenario, exact_error_probability

__all__ = ["ConfigError", "ExperimentConfig", "load_config", "config_hash", "main"]


class ConfigError(Exception):
    """Bad flags, a bad config file or input file it names, or inconsistent parameters."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def parse_model(text):
    """Byzantine model from its config spelling.

    unconstrained | independent:<alpha> | bounded[:<k_max>] | fixed:<n_b>
    """
    head, sep, arg = text.strip().partition(":")
    try:
        if head == "unconstrained":
            if sep:
                raise ValueError("unconstrained takes no parameter")
            return UnconstrainedMaxEntropy()
        if head == "independent":
            return IndependentAlpha(float(arg))
        if head == "bounded":
            return BoundedBelowHalf(int(arg)) if sep else BoundedBelowHalf()
        if head == "fixed":
            return FixedCount(int(arg))
    except ValueError as exc:
        raise ConfigError(f"bad model {text!r}: {exc}") from exc
    raise ConfigError(f"unknown model {text!r}")


def model_to_text(model):
    if isinstance(model, UnconstrainedMaxEntropy):
        return "unconstrained"
    if isinstance(model, IndependentAlpha):
        return f"independent:{model.alpha!r}"
    if isinstance(model, BoundedBelowHalf):
        return "bounded" if model.k_max is None else f"bounded:{model.k_max}"
    if isinstance(model, FixedCount):
        return f"fixed:{model.n_b}"
    raise TypeError(f"unknown model {model!r}")


def _parse_grid(text):
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad grid {text!r}: {exc}") from exc


_GRID_TEXT = ",".join(repr(v) for v in DEFAULT_GRID)  # both grids' default spelling
# key -> (type of its value in a config file, default); fc_model defaults to true_model
_CONFIG = {
    "n": (int, 20),
    "m": (int, 4),
    "eps": (float, 0.1),
    "true_model": (str, "unconstrained"),
    "fc_model": (str, None),
    "grid_b": (str, _GRID_TEXT),
    "grid_fc": (str, _GRID_TEXT),
    "trials": (int, 50_000),
    "seed": (int, 0),
    "metric": (str, "per-component"),
    "workers": (int, 1),
    "out": (str, "out"),
    "payoff_file": (str, None),
}


@dataclass
class ExperimentConfig:
    scenario: Scenario
    grid_b: StrategyGrid
    grid_fc: StrategyGrid
    trials: int
    seed: int
    metric: str
    workers: int
    out: str
    # SHA-256 of payoff_file's bytes as load_config read them, and the matrix
    # those same bytes parse to; no file key or flag sets either
    payoff_sha256: str | None
    payoff: PayoffMatrix | None

    def canonical_text(self):
        """Normalized experiment description; execution details excluded.

        Worker count and output directory do not change results, so they do
        not participate in the hash. An injected payoff file determines the
        result with the metric alone, so then only the metric and the digest
        of the file's bytes as read when the config was loaded are listed.
        """
        if self.payoff is not None:
            return f"metric = {self.metric}\npayoff_sha256 = {self.payoff_sha256}\n"
        sc = self.scenario
        pairs = [
            ("n", sc.n),
            ("m", sc.m),
            ("eps", repr(sc.eps)),
            ("true_model", model_to_text(sc.true_model)),
            ("fc_model", model_to_text(sc.fc_model)),
            ("grid_b", ",".join(repr(v) for v in self.grid_b.values)),
            ("grid_fc", ",".join(repr(v) for v in self.grid_fc.values)),
            ("trials", self.trials),
            ("seed", self.seed),
            ("metric", self.metric),
        ]
        return "\n".join(f"{k} = {v}" for k, v in pairs) + "\n"


def config_hash(cfg):
    """Short digest identifying the effective experiment."""
    return hashlib.sha256(cfg.canonical_text().encode()).hexdigest()[:16]


def _read_config_file(path):
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        if key not in _CONFIG:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def load_config(config_path=None, overrides=None):
    """Effective config from defaults, optional file, then CLI overrides."""
    raw = {key: default for key, (_, default) in _CONFIG.items()}
    if config_path is not None:
        for key, text in _read_config_file(config_path).items():
            try:
                raw[key] = _CONFIG[key][0](text)
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {text!r}") from exc
    for key, value in (overrides or {}).items():
        if value is not None:
            raw[key] = value
    if raw["fc_model"] is None:
        raw["fc_model"] = raw["true_model"]
    true_model = parse_model(raw["true_model"])
    fc_model = parse_model(raw["fc_model"])
    try:
        scenario = Scenario(
            n=raw["n"], m=raw["m"], eps=raw["eps"], true_model=true_model, fc_model=fc_model
        )
        grid_b = StrategyGrid(_parse_grid(raw["grid_b"]))
        grid_fc = StrategyGrid(_parse_grid(raw["grid_fc"]))
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc
    if scenario.m > BatchFuser.MAX_M:
        raise ConfigError(f"m={scenario.m} exceeds the simulation cap {BatchFuser.MAX_M}")
    metric = raw["metric"]
    if metric not in METRICS:
        raise ConfigError(f"unknown metric {metric!r}")
    trials = raw["trials"]
    workers = raw["workers"]
    if trials < 1 or workers < 1:
        raise ConfigError("trials and workers must be positive")
    path = raw["payoff_file"]
    payoff_sha256 = payoff = None
    if path is not None:
        try:
            with open(path, "rb") as fh:
                data = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read payoff_file {path}: {exc}") from exc
        payoff_sha256 = hashlib.sha256(data).hexdigest()
        try:
            payoff = parse_payoff_csv(data.decode("utf-8"), metric)
        except ValueError as exc:  # UnicodeDecodeError among them
            raise ConfigError(f"bad payoff_file {path}: {exc}") from exc
    return ExperimentConfig(
        scenario=scenario,
        grid_b=grid_b,
        grid_fc=grid_fc,
        trials=trials,
        seed=raw["seed"],
        metric=metric,
        workers=workers,
        out=raw["out"],
        payoff_sha256=payoff_sha256,
        payoff=payoff,
    )


def _emit(cfg, subcommand, files, summary):
    """Write `files` ({name: text}) and meta.txt into cfg.out, then print the summary.

    Each file is written to name.tmp and renamed into place, so no reader
    sees it half written.
    """
    meta = (
        f"tool = byzfusion {__version__}\n"
        f"subcommand = {subcommand}\n"
        f"config = {config_hash(cfg)}\n" + cfg.canonical_text()
    )
    os.makedirs(cfg.out, exist_ok=True)
    for name, text in {**files, "meta.txt": meta}.items():
        path = os.path.join(cfg.out, name)
        with open(path + ".tmp", "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(path + ".tmp", path)
    print(f"{subcommand}: {summary}")


def _estimate(cfg, estimator):
    # payoff and compare always simulate, so a payoff_file they would not read
    # (and whose digest meta.txt would carry) is refused before any estimate
    if cfg.payoff is not None:
        raise ConfigError("payoff_file is read only by the equilibrium subcommand")
    return estimator(
        cfg.scenario,
        grid_b=cfg.grid_b,
        grid_fc=cfg.grid_fc,
        trials=cfg.trials,
        seed=cfg.seed,
        metric=cfg.metric,
        workers=cfg.workers,
    )


def run_payoff(cfg):
    pm = _estimate(cfg, estimate_payoff_matrix)
    comments = {"config": config_hash(cfg), "tool": f"byzfusion {__version__}"}
    _emit(cfg, "payoff",
          {"payoff.csv": pm.to_csv(comments), "payoff.md": pm.to_markdown(comments)},
          f"wrote {cfg.out}/payoff.csv ({len(cfg.grid_b)}x{len(cfg.grid_fc)}, "
          f"{cfg.trials} trials)")


def _report_head(title, cfg, pm):
    return [
        f"# {title}",
        "",
        f"*config = {config_hash(cfg)}*",
        f"*seed = {pm.seed}, trials = {pm.trials}, metric = {pm.metric}*",
        "",
    ]


def _format_profile(pm, rc):
    r, c = rc
    return f"(pmal_b={fmt(pm.grid_b[r])}, pmal_fc={fmt(pm.grid_fc[c])})"


def _equilibrium_lines(pm, eq):
    # the pure profile, or both players' mixtures over their grids
    if eq.pure is not None:
        return [f"Pure: {_format_profile(pm, eq.pure)}."]
    lines = []
    for label, grid, weights in (
        ("Byzantine mixture over pmal_b", pm.grid_b, eq.p),
        ("Fusion center mixture over pmal_fc", pm.grid_fc, eq.q),
    ):
        lines.append(f"{label}:")
        lines += [f"  - {fmt(value)} with probability {fmt(w)}"
                  for value, w in zip(grid.values, weights) if w > 1e-12]
    return lines


def run_equilibrium(cfg):
    pm = cfg.payoff if cfg.payoff is not None else _estimate(cfg, estimate_payoff_matrix)
    eq = solve_mixed(pm)
    report = dominance_report(pm)
    saddles = find_pure_equilibria(pm)
    kept_rows, kept_cols = eliminate_dominated(pm)
    lines = _report_head("Equilibrium report", cfg, pm) + ["## Dominance", ""]
    if report.row is None:
        lines.append("No dominant row.")
    else:
        lines.append(
            f"Row pmal_b={fmt(pm.grid_b[report.row])} is {report.level}ly dominant "
            f"(margin {fmt(report.margin_sigmas)} standard errors, "
            f"separated: {'yes' if report.separated else 'no'})."
        )
    lines += [
        "",
        f"Iterated strict dominance keeps rows "
        f"{[fmt(pm.grid_b[i]) for i in kept_rows]} and columns "
        f"{[fmt(pm.grid_fc[j]) for j in kept_cols]}.",
        "",
        "## Pure equilibria",
        "",
    ]
    lines += [f"- {_format_profile(pm, rc)} with value {fmt(pm.pe[rc])}"
              for rc in saddles] or ["None."]
    # estimated entries carry sampling noise, so also list the cells that are
    # saddle points up to NOISE_SIGMAS combined standard errors
    noisy = saddle_points_within_noise(pm)
    lines += ["", f"## Saddle points within noise ({fmt(NOISE_SIGMAS)} standard errors)", ""]
    lines += [f"- {_format_profile(pm, rc)}" for rc in noisy] or ["None."]
    lines += ["", "## Equilibrium", ""]
    lines += _equilibrium_lines(pm, eq)
    lines += [f"Game value: {fmt(eq.value)}", ""]
    _emit(cfg, "equilibrium", {"equilibrium.md": "\n".join(lines)},
          f"value {fmt(eq.value)}, {'pure' if eq.pure is not None else 'mixed'}; "
          f"wrote {cfg.out}/equilibrium.md")


def run_compare(cfg):
    pm, majority = _estimate(cfg, estimate_payoff_and_majority)
    eq = solve_mixed(pm)
    # the Byzantines' best response to majority voting, scored on the payoff
    # rows' own trials; the first maximum wins
    worst = int(majority.pe[:, 0].argmax())
    maj_pe, maj_se = majority.pe[worst, 0], majority.se[worst, 0]
    lines = _report_head("Majority vote vs optimum fusion", cfg, pm) + [
        "| scheme | error probability | standard error |",
        "| --- | --- | --- |",
        f"| majority vote (worst pmal_b = {fmt(majority.grid_b[worst])}) | {fmt(maj_pe)} | "
        f"{fmt(maj_se)} |",
        f"| optimum fusion (equilibrium) | {fmt(eq.value)} | |",
        "",
    ]
    lines += _equilibrium_lines(pm, eq)
    lines.append("")
    _emit(cfg, "compare", {"compare.md": "\n".join(lines)},
          f"majority {fmt(maj_pe)} vs optimum {fmt(eq.value)}; "
          f"wrote {cfg.out}/compare.md")


_ORACLE_CASES = (
    # (n, m, eps, pmal_b, pmal_fc, model_text)
    (3, 2, 0.1, 0.8, 0.8, "fixed:1"),
    (4, 1, 0.2, 1.0, 1.0, "unconstrained"),
    (4, 2, 0.15, 0.9, 0.7, "bounded"),
    (3, 2, 0.2, 0.6, 0.6, "independent:0.3"),
)


def run_oracle_check(cfg):
    """Exact enumeration vs Monte Carlo on fixed small instances."""
    all_ok = True
    for n, m, eps, pmal_b, pmal_fc, model_text in _ORACLE_CASES:
        model = parse_model(model_text)
        exact = exact_error_probability(
            ExactScenario(n=n, m=m, eps=eps, pmal_b=pmal_b, pmal_fc=pmal_fc,
                          true_model=model, fc_model=model),
            metric=cfg.metric,
        )
        scenario = Scenario(n=n, m=m, eps=eps, true_model=model, fc_model=model)
        pm = estimate_payoff_matrix(
            scenario,
            grid_b=StrategyGrid((pmal_b,)),
            grid_fc=StrategyGrid((pmal_fc,)),
            trials=cfg.trials,
            seed=cfg.seed,
            metric=cfg.metric,
        )
        mc = float(pm.pe[0, 0])
        se = float(pm.se[0, 0])
        ok = abs(mc - exact) <= 4.0 * se + 1e-12
        all_ok &= ok
        print(f"oracle-check: {model_text} n={n} m={m} eps={fmt(eps)} "
              f"pmal_b={fmt(pmal_b)} pmal_fc={fmt(pmal_fc)}: "
              f"exact={exact:.6g} mc={mc:.6g} se={se:.2g} "
              f"{'PASS' if ok else 'FAIL'}")
    if not all_ok:
        raise RuntimeError("Monte Carlo estimates disagree with exact enumeration")
    print("oracle-check: all cases agree")


def _build_parser():
    parser = _Parser(prog="byzfusion", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    common = _Parser(add_help=False)
    common.add_argument("--config", help="flat key = value experiment file")
    common.add_argument("--seed", type=int, help="override the seed")
    common.add_argument("--trials", type=int, help="override the trial count")
    common.add_argument("--metric", choices=METRICS,
                        help="override the error metric")
    common.add_argument("--out", help="override the output directory")
    common.add_argument("--workers", type=int, help="row-level thread count")
    for name, fn in (
        ("payoff", run_payoff),
        ("equilibrium", run_equilibrium),
        ("compare", run_compare),
        ("oracle-check", run_oracle_check),
    ):
        sp = sub.add_parser(name, parents=[common])
        sp.set_defaults(func=fn)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        flags = ("seed", "trials", "metric", "out", "workers")
        cfg = load_config(args.config, {k: getattr(args, k) for k in flags})
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    try:
        args.func(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
