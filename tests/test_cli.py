import hashlib
from dataclasses import replace

import numpy as np
import pytest

from byzfusion import __version__
from byzfusion.cli import (
    ConfigError,
    config_hash,
    load_config,
    main,
    model_to_text,
    parse_model,
    run_equilibrium,
)
from byzfusion.game import (
    DEFAULT_GRID,
    PayoffMatrix,
    StrategyGrid,
    parse_payoff_csv,
    solve_mixed,
)
from byzfusion.model import (
    BoundedBelowHalf,
    FixedCount,
    IndependentAlpha,
    UnconstrainedMaxEntropy,
)

TINY = """
n = 4
m = 2
eps = 0.1
true_model = fixed:1
trials = 300
seed = 9
"""


def write_config(tmp_path, text=TINY, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParseModel:
    def test_all_forms(self):
        assert parse_model("unconstrained") == UnconstrainedMaxEntropy()
        assert parse_model("independent:0.3") == IndependentAlpha(0.3)
        assert parse_model("bounded") == BoundedBelowHalf()
        assert parse_model("bounded:7") == BoundedBelowHalf(7)
        assert parse_model("fixed:6") == FixedCount(6)

    def test_round_trip(self):
        for text in ("unconstrained", "independent:0.3", "bounded", "bounded:7", "fixed:6"):
            assert parse_model(model_to_text(parse_model(text))) == parse_model(text)

    def test_rejects_garbage(self):
        for bad in ("fancy", "independent", "independent:x", "fixed:1.5", "unconstrained:3"):
            with pytest.raises(ConfigError):
                parse_model(bad)


class TestLoadConfig:
    def test_defaults(self):
        cfg = load_config(None, {})
        assert cfg.scenario.n == 20 and cfg.scenario.m == 4
        assert cfg.scenario.fc_model == cfg.scenario.true_model
        assert cfg.trials == 50_000 and cfg.metric == "per-component"
        assert cfg.grid_b.values == DEFAULT_GRID and cfg.grid_fc.values == DEFAULT_GRID
        assert config_hash(cfg) == "4a7174575601a8e0"

    def test_file_values_and_fc_defaulting(self, tmp_path):
        cfg = load_config(write_config(tmp_path), {})
        assert cfg.scenario.n == 4
        assert cfg.scenario.true_model == FixedCount(1)
        assert cfg.scenario.fc_model == FixedCount(1)
        assert cfg.seed == 9

    def test_overrides_win(self, tmp_path):
        cfg = load_config(write_config(tmp_path), {"seed": 42, "trials": 7})
        assert cfg.seed == 42 and cfg.trials == 7

    def test_comments_and_blank_lines(self, tmp_path):
        text = "# experiment\n\nn = 4\nm = 2  # two components\ntrue_model = fixed:1\n"
        cfg = load_config(write_config(tmp_path, text), {})
        assert cfg.scenario.m == 2

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown key"):
            load_config(write_config(tmp_path, "banana = 3\n"), {})

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(write_config(tmp_path, "n = 4\nn = 5\n"), {})

    def test_bad_value_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, "n = banana\n"), {})

    def test_inconsistent_model_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, "n = 4\ntrue_model = fixed:9\n"), {})

    def test_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/nonexistent/exp.cfg", {})

    def test_m_cap(self, tmp_path):
        with pytest.raises(ConfigError, match="cap"):
            load_config(write_config(tmp_path, "m = 13\n"), {})


class TestConfigHash:
    def test_execution_details_do_not_change_hash(self, tmp_path):
        cfg1 = load_config(write_config(tmp_path), {"workers": 1, "out": "a"})
        cfg2 = load_config(write_config(tmp_path), {"workers": 4, "out": "b"})
        assert config_hash(cfg1) == config_hash(cfg2)

    def test_seed_changes_hash(self, tmp_path):
        cfg1 = load_config(write_config(tmp_path), {"seed": 1})
        cfg2 = load_config(write_config(tmp_path), {"seed": 2})
        assert config_hash(cfg1) != config_hash(cfg2)

    def test_payoff_file_is_read_once(self, tmp_path):
        # the digest is taken when the config loads; the file is not reopened
        payoff = tmp_path / "payoff.csv"
        payoff.write_text("pmal_b/pmal_fc,0.5\n0.5,0.25\n")
        cfg = load_config(write_config(tmp_path, TINY + f"payoff_file = {payoff}\n"), {})
        digest = config_hash(cfg)
        payoff.unlink()
        assert config_hash(cfg) == digest
        assert "payoff_sha256" in cfg.canonical_text()
        payoff.write_text("pmal_b/pmal_fc,0.5\n0.5,0.75\n")
        other = load_config(write_config(tmp_path, TINY + f"payoff_file = {payoff}\n"), {})
        assert config_hash(other) != digest

    @pytest.mark.parametrize("old, new", [("n = 4", "n = 6"), ("trials = 300", "trials = 900"),
                                          ("seed = 9", "seed = 2")])
    def test_payoff_file_hash_ignores_what_the_file_decides(self, tmp_path, old, new):
        # with a payoff_file, n, trials and seed do not change the solved game
        payoff = tmp_path / "payoff.csv"
        payoff.write_text("pmal_b/pmal_fc,0.5\n0.5,0.25\n")
        line = f"payoff_file = {payoff}\n"
        cfg = load_config(write_config(tmp_path, TINY + line), {})
        other = load_config(write_config(tmp_path, TINY.replace(old, new) + line, "b.cfg"), {})
        assert config_hash(other) == config_hash(cfg)


class TestMainPayoff:
    def test_end_to_end_and_reproducible(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "run1"
        rc = main(["payoff", "--config", cfg, "--out", str(out)])
        assert rc == 0
        csv1 = (out / "payoff.csv").read_bytes()
        md = (out / "payoff.md").read_text()
        meta = (out / "meta.txt").read_text()
        cfg_obj = load_config(cfg, {})
        assert config_hash(cfg_obj) in meta
        assert config_hash(cfg_obj) in csv1.decode()
        assert "seed = 9" in csv1.decode()
        assert "| pmal_b \\ pmal_fc |" in md
        # rerun into another directory: identical bytes
        out2 = tmp_path / "run2"
        assert main(["payoff", "--config", cfg, "--out", str(out2)]) == 0
        assert (out2 / "payoff.csv").read_bytes() == csv1

    def test_workers_do_not_change_bytes(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "w1", tmp_path / "w4"
        assert main(["payoff", "--config", cfg, "--out", str(out1), "--workers", "1"]) == 0
        assert main(["payoff", "--config", cfg, "--out", str(out2), "--workers", "4"]) == 0
        assert (out1 / "payoff.csv").read_bytes() == (out2 / "payoff.csv").read_bytes()

    def test_csv_round_trip(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["payoff", "--config", cfg, "--out", str(out)]) == 0
        pm = parse_payoff_csv((out / "payoff.csv").read_text())
        assert pm.pe_component.shape == (6, 6)
        assert pm.seed == 9 and pm.trials == 300
        # six significant digits survive the round trip
        assert np.isfinite(pm.pe_component).all()

    @pytest.mark.parametrize("metric", ["per-component", "per-sequence"])
    def test_to_csv_round_trip_keeps_the_metric(self, tmp_path, metric):
        grid = StrategyGrid((0.5, 0.75))
        pe_c = np.array([[0.125, 0.25], [0.375, 0.5]])
        pe_s = np.array([[0.0625, 0.5], [0.75, 1.0]])
        pm = PayoffMatrix(grid, grid, pe_c, pe_s, 0 * pe_c, 0 * pe_s, trials=8, seed=3,
                          metric=metric)
        text = pm.to_csv({"config": "abc"})
        back = parse_payoff_csv(text, metric=metric)
        np.testing.assert_array_equal(back.pe, pm.pe)
        assert (back.metric, back.trials, back.seed) == (metric, 8, 3)
        other = "per-sequence" if metric == "per-component" else "per-component"
        with pytest.raises(ValueError, match="metric"):
            parse_payoff_csv(text, metric=other)

    @pytest.mark.parametrize("metric", ["per-component", "per-sequence"])
    def test_the_metric_a_file_does_not_hold_is_nan(self, metric):
        pm = parse_payoff_csv("pmal_b/pmal_fc,0.5,0.6\n0.5,0.25,0.5\n", metric)
        np.testing.assert_array_equal(pm.pe, [[0.25, 0.5]])
        np.testing.assert_array_equal(pm.se, [[0.0, 0.0]])
        other = replace(pm, metric="per-sequence" if metric == "per-component" else "per-component")
        assert np.isnan(other.pe).all() and np.isnan(other.se).all()
        with pytest.raises(ValueError, match="must be finite"):
            solve_mixed(other)

    def test_ragged_table_is_reported_as_ragged(self):
        # rows are checked against the header before any array is built
        with pytest.raises(ValueError, match="ragged payoff table"):
            parse_payoff_csv("pmal_b/pmal_fc,0.5,0.6\n0.5,0.25,0.25\n0.6,0.25\n")


class TestMainEquilibrium:
    def test_from_simulation(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "eq"
        rc = main(["equilibrium", "--config", cfg, "--out", str(out)])
        assert rc == 0
        text = (out / "equilibrium.md").read_text()
        assert "Game value" in text
        assert "## Pure equilibria" in text
        assert "## Saddle points within noise" in text

    def test_constant_matrix_from_file_lists_every_profile(self, tmp_path):
        grid = "0.5,0.6,0.7"
        payoff = tmp_path / "payoff.csv"
        lines = ["pmal_b/pmal_fc," + grid]
        for v in grid.split(","):
            lines.append(f"{v},0.25,0.25,0.25")
        payoff.write_text("\n".join(lines) + "\n")
        cfg = write_config(
            tmp_path,
            TINY + f"payoff_file = {payoff}\ngrid_b = {grid}\ngrid_fc = {grid}\n",
        )
        out = tmp_path / "eq"
        assert main(["equilibrium", "--config", cfg, "--out", str(out)]) == 0
        text = (out / "equilibrium.md").read_text()
        # all nine profiles are saddle points of a constant matrix, both
        # under exact comparisons and with the (zero) noise margin
        assert text.count("with value 0.25") == 9
        assert text.count("- (pmal_b=") == 18
        assert "Pure: (pmal_b=0.5, pmal_fc=0.5)" in text

    @pytest.mark.parametrize("change", ["overwrite", "delete"])
    def test_reports_the_matrix_of_the_hashed_bytes(self, tmp_path, change):
        # the file is read once, when the config loads: the matrix solved is
        # the one whose digest meta.txt carries, whatever happens to it later
        payoff = tmp_path / "payoff.csv"
        payoff.write_text("pmal_b/pmal_fc,0.5\n0.5,0.25\n")
        out = tmp_path / "eq"
        cfg = load_config(write_config(tmp_path, TINY + f"payoff_file = {payoff}\n"),
                          {"out": str(out)})
        if change == "overwrite":
            payoff.write_text("pmal_b/pmal_fc,0.5\n0.5,0.75\n")
        else:
            payoff.unlink()
        run_equilibrium(cfg)
        text = (out / "equilibrium.md").read_text()
        assert f"*config = {config_hash(cfg)}*" in text
        assert "Game value: 0.25\n" in text

    def test_meta_describes_the_file_not_the_config(self, tmp_path):
        # the config's trials, seed and grids are not what was solved, so
        # meta.txt lists only the metric and the file's digest
        payoff = tmp_path / "payoff.csv"
        payoff.write_text("pmal_b/pmal_fc,0.5\n0.5,0.25\n")
        cfg = write_config(tmp_path, TINY + f"payoff_file = {payoff}\n")
        out = tmp_path / "eq"
        assert main(["equilibrium", "--config", cfg, "--out", str(out)]) == 0
        assert "*seed = 0, trials = 0, metric = per-component*" in (
            out / "equilibrium.md").read_text()
        canonical = ("metric = per-component\n"
                     f"payoff_sha256 = {hashlib.sha256(payoff.read_bytes()).hexdigest()}\n")
        digest = hashlib.sha256(canonical.encode()).hexdigest()[:16]
        head = f"tool = byzfusion {__version__}\nsubcommand = equilibrium\nconfig = {digest}\n"
        assert (out / "meta.txt").read_text() == head + canonical


class TestMainCompare:
    def test_end_to_end(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "cmp"
        rc = main(["compare", "--config", cfg, "--out", str(out)])
        assert rc == 0
        text = (out / "compare.md").read_text()
        assert "majority vote" in text
        assert "optimum fusion" in text

    def test_reproducible_at_any_worker_count(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out4 = tmp_path / "w1", tmp_path / "w4"
        assert main(["compare", "--config", cfg, "--out", str(out1), "--workers", "1"]) == 0
        assert main(["compare", "--config", cfg, "--out", str(out4), "--workers", "4"]) == 0
        assert (out1 / "compare.md").read_bytes() == (out4 / "compare.md").read_bytes()


GRID3 = "grid_b = 0.5,0.75,1.0\ngrid_fc = 0.5,0.75,1.0\n"
# a simulated game with a pure equilibrium, and one with a mixed equilibrium;
# at 16000 trials the latter solves mixed at every seed from 0 to 29
PURE = TINY + GRID3
MIXED = "n = 8\nm = 3\neps = 0.1\ntrue_model = fixed:2\ntrials = 16000\nseed = 1\n" + GRID3

FILES = {
    "payoff": {"payoff.csv", "payoff.md", "meta.txt"},
    "equilibrium": {"equilibrium.md", "meta.txt"},
    "compare": {"compare.md", "meta.txt"},
}


class TestReports:
    @pytest.mark.parametrize("text, kind", [(PURE, "Pure:"), (MIXED, "mixture over pmal_b:")],
                             ids=["pure", "mixed"])
    def test_compare_renders_the_equilibrium_as_equilibrium_md(self, tmp_path, text, kind):
        cfg = write_config(tmp_path, text)
        eq_out, cmp_out = tmp_path / "eq", tmp_path / "cmp"
        assert main(["equilibrium", "--config", cfg, "--out", str(eq_out)]) == 0
        assert main(["compare", "--config", cfg, "--out", str(cmp_out)]) == 0
        eq_md = (eq_out / "equilibrium.md").read_text()
        cmp_md = (cmp_out / "compare.md").read_text()
        want = eq_md.split("## Equilibrium\n\n")[1].split("Game value:")[0]
        assert kind in want
        assert cmp_md.split("| optimum fusion (equilibrium) |")[1].split("\n\n")[1] == want

    @pytest.mark.parametrize("subcommand", sorted(FILES))
    def test_each_subcommand_writes_its_files_and_meta(self, tmp_path, capsys, subcommand):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, PURE)
        assert main([subcommand, "--config", cfg, "--out", str(out)]) == 0
        assert {p.name for p in out.iterdir()} == FILES[subcommand]
        assert f"subcommand = {subcommand}\n" in (out / "meta.txt").read_text()
        assert capsys.readouterr().out.startswith(f"{subcommand}: ")


class TestOracleCheck:
    def test_passes_on_small_instances(self, capsys):
        rc = main(["oracle-check", "--trials", "4000", "--seed", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 4
        assert "FAIL" not in out


class TestExitCodes:
    def test_bad_flag(self, capsys):
        assert main(["payoff", "--bogus"]) == 1

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_missing_config_file(self, capsys):
        assert main(["payoff", "--config", "/nonexistent.cfg"]) == 1

    def test_bad_config_value(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "trials = -5\n")
        assert main(["payoff", "--config", cfg]) == 1

    @pytest.mark.parametrize("subcommand", ["payoff", "equilibrium"])
    def test_unreadable_payoff_file_is_a_config_error(self, tmp_path, capsys, subcommand):
        # rejected before any estimate runs, and nothing is written
        cfg = write_config(tmp_path, TINY + f"payoff_file = {tmp_path / 'absent.csv'}\n")
        out = tmp_path / "o"
        assert main([subcommand, "--config", cfg, "--out", str(out)]) == 1
        assert "payoff_file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["payoff", "compare"])
    def test_payoff_file_is_refused_where_it_is_not_read(self, tmp_path, capsys, subcommand):
        # both subcommands simulate; a readable file is rejected, nothing written
        payoff = tmp_path / "payoff.csv"
        payoff.write_text("pmal_b/pmal_fc,0.5\n0.5,0.25\n")
        cfg = write_config(tmp_path, TINY + f"payoff_file = {payoff}\n")
        out = tmp_path / "o"
        assert main([subcommand, "--config", cfg, "--out", str(out)]) == 1
        assert "payoff_file" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "pmal_b/pmal_fc,0.5\n",  # header only
        "pmal_b/pmal_fc,0.5,0.6\n0.5,0.25,0.25\n0.6,0.25\n",  # ragged
        "# metric = per-sequence\npmal_b/pmal_fc,0.5\n0.5,0.25\n",  # the other metric
        "pmal_b/pmal_fc,0.5\n0.5,abc\n",  # non-numeric cell
        "pmal_b/pmal_fc,0.6,0.5\n0.5,0.25,0.25\n",  # descending grid
        "pmal_b/pmal_fc,0.5\n0.5,nan\n",
        "pmal_b/pmal_fc,0.5\n0.5,inf\n",
        "pmal_b/pmal_fc,0.5\n0.5,-inf\n",
        b"pmal_b/pmal_fc,0.5\n0.5,0.25\xff\n",  # not UTF-8
    ], ids=["header-only", "ragged", "other-metric", "non-numeric", "descending",
            "nan", "inf", "-inf", "not-utf-8"])
    def test_malformed_payoff_file_is_a_config_error(self, tmp_path, capsys, text):
        bad = tmp_path / "payoff.csv"
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
        cfg = write_config(tmp_path, TINY + f"payoff_file = {bad}\n")
        out = tmp_path / "o"
        assert main(["equilibrium", "--config", cfg, "--out", str(out)]) == 1
        assert "payoff_file" in capsys.readouterr().err
        assert not out.exists()

    def test_runtime_error_is_2(self, tmp_path, capsys):
        # the output directory cannot be made under a regular file
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        cfg = write_config(tmp_path)
        assert main(["payoff", "--config", cfg, "--out", str(blocker / "o")]) == 2
        assert "runtime error" in capsys.readouterr().err
