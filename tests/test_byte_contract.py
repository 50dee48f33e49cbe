"""The byte contract: what the command line writes, and the exact values, pinned.

``byte_contract.json`` holds the SHA-256 of every file that ``byzfusion
payoff``, ``equilibrium`` and ``compare`` write for each config of CONFIGS
(eps 0.1 where a config names no other, seed 7, both 6-point grids), and the error probability of each
of the benchmark's exact-sweep scenarios under both metrics, as
``float.hex``. The tests recompute them in process, the files at --workers
1 and 2. Together the configs decode by every route: chunks ranked through
the type universe, dense and sparse; sorted chunks, scored whole and
bounded; keys built by row counts and node by node; subset sums in the
ratio domain, in the log domain, and in both across one matrix's columns.
Their games are solved both by a saddle point and by the LP pair.

numpy's float64 ``exp`` and ``log`` round differently on different SIMD
targets. So the exact values are compared bit for bit only where numpy
runs those two on the targets the file was recorded on, and elsewhere
within 2 units in the last place.

A change that means to change these bytes rewrites the file in the same
commit, with ``PYTHONPATH=src python tests/test_byte_contract.py``, and
says which files changed and why.
"""

import hashlib
import json
import math
import pathlib
import tempfile
from typing import NamedTuple

import numpy as np
import pytest

# test_fusion reads the hypothesis profile that conftest registers; pytest
# has imported conftest already, a run as a script has not
import conftest  # noqa: F401
from byzfusion import cli, fusion, game
from byzfusion import model as model_module
from byzfusion.fusion import BatchFuser
from byzfusion.game import METRICS
from byzfusion.oracle import ExactScenario, exact_error_probability
from test_fusion import load_perfbench, record_routes

CONTRACT = pathlib.Path(__file__).with_name("byte_contract.json")
SEED = 7


class Config(NamedTuple):
    """A payoff config; the fusion center assumes the true model."""

    n: int
    m: int
    model: str
    trials: int
    eps: float = 0.1


CONFIGS = [Config(*config) for config in [
    (20, 4, "fixed:6", 3000),
    (20, 4, "fixed:8", 3000),
    (20, 4, "bounded", 3000),
    (20, 4, "independent:0.3", 3000),
    (20, 4, "unconstrained", 3000),
    (20, 5, "bounded", 2000),
    (20, 6, "fixed:2", 1000),
    (20, 8, "bounded", 300),
    (20, 8, "fixed:6", 300),
    (20, 3, "fixed:4", 3000),
    (60, 4, "fixed:20", 300),
    (20, 5, "fixed:6", 3000),
    (20, 5, "bounded", 20_000),
    (100, 3, "bounded", 3000),
    # more cells than 16 per universe type: dense universe chunks
    (8, 2, "fixed:2", 300),
    # too few trials for the universe, and too few types to bound: sorted
    # chunks of a count prior, scored whole
    (20, 4, "fixed:6", 100),
    # every row bounds its sorted chunks, and the columns sum in the ratio
    # domain at pmal_fc 0.5 and 0.6 and in the log domain at 0.7 to 1.0
    (80, 6, "bounded", 200, 0.06),
]]
SUBCOMMANDS = ("payoff", "equilibrium", "compare")
ROUTES = {
    "universe-dense", "universe-sparse", "sorted", "sorted-full", "sorted-bound",
    "row-counts", "node-by-node", "saddle", "lp",
}


def config_key(config):
    key = f"n={config.n} m={config.m} {config.model} trials={config.trials}"
    return key if config.eps == 0.1 else f"{key} eps={config.eps}"


def file_digests(config, workers, tmp):
    """{subcommand/file: SHA-256} of what the three subcommands write for `config`."""
    tmp.mkdir()
    cfg = tmp / "run.cfg"
    cfg.write_text(f"n = {config.n}\nm = {config.m}\neps = {config.eps}\n"
                   f"true_model = {config.model}\ntrials = {config.trials}\nseed = {SEED}\n")
    digests = {}
    for sub in SUBCOMMANDS:
        out = tmp / sub
        argv = [sub, "--config", str(cfg), "--workers", str(workers), "--out", str(out)]
        assert cli.main(argv) == 0
        for path in sorted(out.iterdir()):
            digests[f"{sub}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def exact_values():
    """{scenario metric: float.hex} over the benchmark's exact-sweep scenarios."""
    workloads = load_perfbench("workloads")
    values = {}
    for spec in workloads.exact_specs():
        n, m, pmal_b, pmal_fc, (cls, args) = spec
        model = getattr(model_module, cls)(*args)
        scenario = ExactScenario(n, m, workloads.EPS, pmal_b, pmal_fc, model, model)
        for metric in METRICS:
            value = exact_error_probability(scenario, metric=metric)
            values[f"{workloads.spec_key(spec)} {metric}"] = value.hex()
    return values


def exact_targets():
    """{ufunc: the SIMD target numpy runs it on here} for float64 exp and log."""
    info = np.lib.introspect.opt_func_info(func_name="^(exp|log)$", signature="float64")
    return {name: sigs.get("dd", {}).get("current") for name, sigs in info.items()}


def record_every_route(monkeypatch):
    """The set of ROUTES that decodes and solves take from here on."""
    scorings = record_routes(monkeypatch)
    taken = set()
    decide, solve, lp_pair = BatchFuser.decide_ints, cli.solve_mixed, game.solve_lp_pair

    def decide_recorded(self, classes, scores=None):
        before = len(scorings)
        out = decide(self, classes, scores)
        if classes.universal:
            dense = classes.inverse.size > fusion._DENSE_CELLS_PER_TYPE * len(classes.hist)
            taken.add("universe-dense" if dense else "universe-sparse")
        else:
            taken.add("sorted")
            # a count prior's scoring, "full" or "bound", logged by this
            # decode, or, where decide_columns passed in the scores, by the
            # chunk's joint bound: then the thread's last entry before it
            routes = scorings[before:] if scores is None else scorings[before - 1 : before]
            taken.update(f"sorted-{route}" for route in routes)
        taken.add("row-counts" if fusion._keys_from_row_counts(self.n, self.m) else "node-by-node")
        return out

    def solve_recorded(pm):
        eq = solve(pm)
        if eq.pure is not None:
            taken.add("saddle")
        return eq

    def lp_pair_recorded(a):
        taken.add("lp")
        return lp_pair(a)

    monkeypatch.setattr(BatchFuser, "decide_ints", decide_recorded)
    monkeypatch.setattr(cli, "solve_mixed", solve_recorded)
    monkeypatch.setattr(game, "solve_lp_pair", lp_pair_recorded)
    return taken


@pytest.fixture(scope="module")
def contract():
    return json.loads(CONTRACT.read_text())


@pytest.mark.parametrize("workers", [1, 2])
def test_cli_files_match_the_contract(contract, monkeypatch, tmp_path, workers):
    taken = record_every_route(monkeypatch)
    changed = []
    for i, config in enumerate(CONFIGS):
        got = file_digests(config, workers, tmp_path / str(i))
        want = contract["files"][config_key(config)]
        changed += [f"{config_key(config)}: {name}" for name in sorted(want.keys() | got.keys())
                    if got.get(name) != want.get(name)]
    assert changed == []
    # each thread logs its scorings to a list of its own, so a decode reads
    # only its own at any worker count
    assert taken == ROUTES


def test_exact_sweep_values_match_the_contract(contract):
    got = exact_values()
    if exact_targets() == contract["exact_targets"]:
        assert got == contract["exact"]
        return
    # with numpy's AVX-512 paths off, 6 of the 48 values moved by 1 unit
    assert got.keys() == contract["exact"].keys()
    for key, text in contract["exact"].items():
        want = float.fromhex(text)
        assert abs(float.fromhex(got[key]) - want) <= 2 * math.ulp(want), key


def main():
    # rewrite byte_contract.json from this tree's outputs at one worker
    files = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, config in enumerate(CONFIGS):
            files[config_key(config)] = file_digests(config, 1, pathlib.Path(tmp) / str(i))
    contract = {"files": files, "exact": exact_values(), "exact_targets": exact_targets()}
    CONTRACT.write_text(json.dumps(contract, indent=1) + "\n")
    print(f"wrote {CONTRACT}: {len(files)} configs, {len(contract['exact'])} exact values")


if __name__ == "__main__":
    main()
