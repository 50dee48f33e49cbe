from dataclasses import replace

import numpy as np
import pytest

from byzfusion.game import (
    MAJORITY_VOTE,
    DominanceReport,
    Equilibrium,
    PayoffMatrix,
    Scenario,
    StrategyGrid,
    dominance_report,
    eliminate_dominated,
    estimate_payoff_and_majority,
    estimate_payoff_matrix,
    find_dominant_row,
    find_pure_equilibria,
    saddle_points_within_noise,
    simulate_row,
    solve_lp_pair,
    solve_mixed,
    solve_mixed_enum,
)
from byzfusion.model import FixedCount, IndependentAlpha, UnconstrainedMaxEntropy
from byzfusion.oracle import ExactScenario, exact_error_probability
from test_fusion import load_perfbench


def small_scenario(**kw):
    base = dict(n=5, m=2, eps=0.1, true_model=FixedCount(1), fc_model=FixedCount(1))
    base.update(kw)
    return Scenario(**base)


def make_pm(pe, se=None):
    pe = np.asarray(pe, dtype=float)
    se = np.zeros_like(pe) if se is None else np.asarray(se, dtype=float)
    nr, nc = pe.shape
    gb = StrategyGrid(tuple(np.linspace(0.5, 1.0, nr)))
    gc = StrategyGrid(tuple(np.linspace(0.5, 1.0, nc)))
    return PayoffMatrix(
        grid_b=gb, grid_fc=gc, pe_component=pe, pe_sequence=pe * 2,
        se_component=se, se_sequence=se, trials=100, seed=0,
    )


class TestGridAndMatrix:
    def test_grid_validation(self):
        StrategyGrid((0.5, 0.75, 1.0))
        with pytest.raises(ValueError):
            StrategyGrid(())
        with pytest.raises(ValueError):
            StrategyGrid((0.5, 0.5))
        with pytest.raises(ValueError):
            StrategyGrid((0.8, 0.6))
        with pytest.raises(ValueError):
            StrategyGrid((0.5, 1.2))

    def test_metric_selection(self):
        pm = make_pm([[0.1, 0.2], [0.3, 0.4]])
        assert pm.pe[0, 0] == 0.1
        assert pm.se[0, 0] == 0.0
        seq = replace(pm, metric="per-sequence", se_sequence=pm.se_sequence + 0.5)
        assert (seq.pe[0, 0], seq.se[0, 0]) == (0.2, 0.5)
        with pytest.raises(ValueError):
            replace(pm, metric="nope")

    def test_csv_format(self):
        pm = make_pm([[0.123456789, 0.2], [0.3, 0.000012345678]])
        text = pm.to_csv({"config": "abc"})
        lines = text.strip().split("\n")
        assert lines[0] == "# config = abc"
        assert lines[1] == "# seed = 0"
        assert lines[2] == "# trials = 100"
        assert lines[3] == "# metric = per-component"
        assert lines[4].startswith("pmal_b/pmal_fc,0.5,1")
        # six significant digits
        assert "0.123457" in lines[5]
        assert "1.23457e-05" in lines[6]

    def test_markdown_contains_table(self):
        pm = make_pm([[0.1, 0.2], [0.3, 0.4]])
        text = pm.to_markdown()
        assert "| pmal_b \\ pmal_fc | 0.5 | 1 |" in text
        assert "| 0.5 | 0.1 | 0.2 |" in text


class TestSimulation:
    def test_simulate_row_shapes_and_determinism(self):
        sc = small_scenario()
        s1, r1 = simulate_row(sc, 0.7, 50, np.random.default_rng(3))
        s2, r2 = simulate_row(sc, 0.7, 50, np.random.default_rng(3))
        # packed: one int per trial's states and per node row
        assert s1.shape == (50,) and r1.shape == (50, 5)
        assert s1.dtype == r1.dtype == np.int64
        assert 0 <= min(s1.min(), r1.min()) and max(s1.max(), r1.max()) < 2**2
        np.testing.assert_array_equal(s1, s2)
        np.testing.assert_array_equal(r1, r2)

    def test_estimate_matrix_shapes(self):
        pm = estimate_payoff_matrix(small_scenario(), trials=300, seed=1)
        assert pm.pe_component.shape == (6, 6)
        assert (pm.pe_component >= 0).all() and (pm.pe_component <= 1).all()
        assert (pm.pe_sequence >= pm.pe_component - 1e-12).all()

    def test_single_trial_runs(self):
        pm = estimate_payoff_matrix(small_scenario(), trials=1, seed=2)
        vals = np.unique(pm.pe_component)
        assert set(np.round(vals * 2, 6)) <= {0.0, 1.0, 2.0}
        assert (pm.se_component == 0).all()

    def test_workers_do_not_change_results(self):
        sc = small_scenario()
        a = estimate_payoff_matrix(sc, trials=500, seed=3, workers=1)
        b = estimate_payoff_matrix(sc, trials=500, seed=3, workers=4)
        np.testing.assert_array_equal(a.pe_component, b.pe_component)
        np.testing.assert_array_equal(a.se_sequence, b.se_sequence)

    def test_common_random_numbers_across_columns(self):
        # adding a column must not perturb existing ones
        sc = small_scenario()
        wide = estimate_payoff_matrix(
            sc, grid_fc=StrategyGrid((0.5, 0.9)), trials=400, seed=4)
        narrow = estimate_payoff_matrix(
            sc, grid_fc=StrategyGrid((0.5,)), trials=400, seed=4)
        np.testing.assert_array_equal(wide.pe_component[:, 0], narrow.pe_component[:, 0])

    def test_matches_exact_oracle(self):
        sc = small_scenario(n=4, m=2)
        pm = estimate_payoff_matrix(
            sc, grid_b=StrategyGrid((0.8,)), grid_fc=StrategyGrid((0.8,)),
            trials=40_000, seed=5)
        exact = ExactScenario(
            n=4, m=2, eps=0.1, pmal_b=0.8, pmal_fc=0.8,
            true_model=FixedCount(1), fc_model=FixedCount(1))
        for metric in ("per-component", "per-sequence"):
            pm = replace(pm, metric=metric)
            assert pm.pe[0, 0] == pytest.approx(
                exact_error_probability(exact, metric), abs=4 * pm.se[0, 0] + 1e-9)

    def test_blinding_at_full_flip(self):
        # with unknown independent placement, a true full flip makes the
        # report mixture a fair coin regardless of the state: row 1.0 pins to
        # one half in every column. A half flip rate does not blind (honest
        # nodes still carry signal), except against a center that itself
        # assumes full flipping: its assumed mixture of eps and 1-eps
        # channels is the fair coin, so that column is 0.5 too.
        sc = small_scenario(
            n=6, true_model=UnconstrainedMaxEntropy(),
            fc_model=UnconstrainedMaxEntropy())
        pm = estimate_payoff_matrix(
            sc, grid_b=StrategyGrid((0.5, 1.0)), grid_fc=StrategyGrid((0.5, 1.0)),
            trials=20_000, seed=11)
        for j in range(2):
            assert pm.pe_component[1, j] == pytest.approx(
                0.5, abs=4 * pm.se_component[1, j])
        assert pm.pe_component[0, 0] < 0.35
        assert pm.pe_component[0, 1] == pytest.approx(
            0.5, abs=4 * pm.se_component[0, 1])

    def test_majority_estimate_against_binomial(self):
        # per-component majority error has a closed form; tie votes go to zero
        from math import comb
        sc = small_scenario(n=6, m=2, true_model=FixedCount(2), fc_model=FixedCount(2))
        eps, delta = 0.1, 0.1 * 0.3 + 0.9 * 0.7
        grid = StrategyGrid((0.7,))
        _, majority = estimate_payoff_and_majority(
            sc, grid, grid, 60_000, 6, "per-component", 1)

        def pmf(k_tot):
            # wrong-vote count: binomial(4, eps) + binomial(2, delta)
            total = 0.0
            for a in range(5):
                for b in range(3):
                    if a + b != k_tot:
                        continue
                    total += (
                        comb(4, a) * eps**a * (1 - eps) ** (4 - a)
                        * comb(2, b) * delta**b * (1 - delta) ** (2 - b)
                    )
            return total

        p_wrong_majority = sum(pmf(k) for k in range(4, 7))
        p_tie = pmf(3)
        want = p_wrong_majority + 0.5 * p_tie  # ties wrong only when the state is one
        assert majority.pe_component[0, 0] == pytest.approx(
            want, abs=4 * majority.se_component[0, 0] + 1e-9)
        # a center that assumes no Byzantines decodes by majority, exactly
        exact = exact_error_probability(
            ExactScenario(6, 2, 0.1, 0.7, 0.0, FixedCount(2), IndependentAlpha(0.0)))
        assert exact == pytest.approx(want, abs=1e-12)

    def test_majority_worse_than_map_when_blind(self):
        sc = small_scenario(n=6, m=2, true_model=FixedCount(2), fc_model=FixedCount(2))
        grid = StrategyGrid((1.0,))
        pm, majority = estimate_payoff_and_majority(
            sc, grid, grid, 10_000, 7, "per-component", 1)
        assert pm.pe_component[0, 0] < majority.pe_component[0, 0]


def dominant_row_by_deletion(a, strict):
    """First row above every other row in every column, one np.delete per row."""
    for r in range(a.shape[0]):
        others = np.delete(a, r, axis=0)
        if ((a[r] > others) if strict else (a[r] >= others)).all():
            return r
    return None


class TestDominance:
    def test_matches_per_row_reference(self):
        rng = np.random.default_rng(17)
        shapes = [(1, k) for k in range(1, 7)]
        shapes += [tuple(rng.integers(1, 7, size=2)) for _ in range(300)]
        only_weak = 0
        for shape in shapes:
            # few distinct values, so ties make weak and strict dominance differ
            a = rng.integers(0, 3, size=shape).astype(float)
            found = {}
            for strict in (True, False):
                found[strict] = find_dominant_row(a, strict=strict)
                assert found[strict] == dominant_row_by_deletion(a, strict)
            only_weak += found[True] is None and found[False] is not None
        assert only_weak > 0

    def test_strict_dominant_row(self):
        pe = [[0.3, 0.4], [0.1, 0.2]]
        assert find_dominant_row(pe) == 0
        # each row wins one column, so neither dominates
        assert find_dominant_row([[0.3, 0.1], [0.2, 0.4]]) is None

    def test_weak_dominance(self):
        pe = [[0.3, 0.2], [0.3, 0.1]]
        assert find_dominant_row(pe, strict=True) is None
        assert find_dominant_row(pe, strict=False) == 0

    def test_report_separated(self):
        pm = make_pm([[0.5, 0.5], [0.1, 0.1]], se=[[0.01, 0.01], [0.01, 0.01]])
        rep = dominance_report(pm)
        assert rep.row == 0 and rep.level == "strict" and rep.separated
        assert rep.margin_sigmas > 3

    def test_report_noisy(self):
        pm = make_pm([[0.22, 0.22], [0.2, 0.2]], se=[[0.05, 0.05], [0.05, 0.05]])
        rep = dominance_report(pm)
        assert rep.row == 0 and rep.level == "strict" and not rep.separated

    def test_report_none(self):
        pm = make_pm([[0.3, 0.1], [0.1, 0.3]])
        rep = dominance_report(pm)
        assert rep.row is None and rep.level == "none" and not rep.separated

    def test_report_requires_matrix(self):
        with pytest.raises(TypeError):
            dominance_report([[0.1, 0.2], [0.3, 0.4]])


class TestPureEquilibria:
    def test_saddle(self):
        assert find_pure_equilibria([[3.0, 5.0], [2.0, 1.0]]) == [(0, 0)]

    def test_no_saddle(self):
        assert find_pure_equilibria([[1.0, -1.0], [-1.0, 1.0]]) == []

    def test_constant_matrix_all_saddles(self):
        hits = find_pure_equilibria(np.full((2, 3), 0.25))
        assert hits == [(r, c) for r in range(2) for c in range(3)]


class TestNoisySaddles:
    def test_zero_se_reduces_to_exact(self):
        pe = [[3.0, 5.0], [2.0, 1.0]]
        pm = make_pm(pe)
        assert saddle_points_within_noise(pm) == find_pure_equilibria(pe)

    def test_noise_admits_near_saddle(self):
        # (0,0) misses being an exact saddle by 0.05 in its column, well
        # inside 3 combined standard errors of 0.1
        pe = [[1.00, 1.30], [1.05, 0.40]]
        se = np.full((2, 2), 0.1)
        pm = make_pm(pe, se=se)
        assert find_pure_equilibria(pm) == []
        assert (0, 0) in saddle_points_within_noise(pm)

    def test_separated_matrix_rejects(self):
        pe = [[1.0, 2.0], [3.0, 0.5]]
        pm = make_pm(pe, se=np.full((2, 2), 0.01))
        assert saddle_points_within_noise(pm) == []

    def test_nonfinite_rejected(self):
        pm = make_pm([[1.0, np.inf], [0.0, 0.5]])
        with pytest.raises(ValueError):
            saddle_points_within_noise(pm)


class TestSolvers:
    def test_matching_pennies(self):
        eq = solve_mixed(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        np.testing.assert_allclose(eq.p, [0.5, 0.5], atol=1e-9)
        np.testing.assert_allclose(eq.q, [0.5, 0.5], atol=1e-9)
        assert eq.value == pytest.approx(0.0, abs=1e-9)
        assert eq.pure is None

    def test_saddle_shortcut_exact(self):
        a = np.array([[3.0, 5.0], [2.0, 1.0]])
        eq = solve_mixed(a)
        assert eq.pure == (0, 0)
        assert eq.value == 3.0
        np.testing.assert_array_equal(eq.p, [1.0, 0.0])
        assert find_dominant_row(a) == 0

    def test_known_2x2_mixture(self):
        # [[a,b],[c,d]] without saddle: p = ((d-c)/(a-b-c+d), ...)
        a = np.array([[4.0, 1.0], [2.0, 3.0]])
        eq = solve_mixed(a)
        np.testing.assert_allclose(eq.p, [0.25, 0.75], atol=1e-9)
        np.testing.assert_allclose(eq.q, [0.5, 0.5], atol=1e-9)
        assert eq.value == pytest.approx(2.5, abs=1e-9)

    def test_lp_duality_random(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            a = rng.normal(size=(rng.integers(1, 7), rng.integers(1, 7)))
            p, vr, q, vc = solve_lp_pair(a)
            assert abs(vr - vc) <= 1e-9
            assert p.sum() == pytest.approx(1.0, abs=1e-9)
            assert q.sum() == pytest.approx(1.0, abs=1e-9)
            # best-response consistency
            assert (p @ a).min() == pytest.approx(vr, abs=1e-8)
            assert (a @ q).max() == pytest.approx(vc, abs=1e-8)

    def test_enum_agrees_with_lp(self):
        rng = np.random.default_rng(9)
        found = 0
        for _ in range(40):
            a = rng.normal(size=(3, 4))
            eq = solve_mixed(a)
            enum = solve_mixed_enum(a)
            if enum is None:
                continue
            found += 1
            p, q, v = enum
            assert v == pytest.approx(eq.value, abs=1e-7)
        assert found >= 35

    def test_enum_cap(self):
        with pytest.raises(ValueError):
            solve_mixed_enum(np.zeros((11, 3)))

    def test_value_is_bilinear_payoff(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            a = rng.normal(size=(4, 4))
            eq = solve_mixed(a)
            assert float(eq.p @ a @ eq.q) == pytest.approx(eq.value, abs=1e-8)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            solve_mixed(np.array([[np.nan, 1.0], [0.0, 2.0]]))

    def test_zero_sum_symmetry(self):
        # the minimizer on a is the maximizer on -a^T: every solver step swaps
        # the players, and negates the values, when the game is mirrored
        rng = np.random.default_rng(12)
        for _ in range(60):
            shape = tuple(rng.integers(1, 7, size=2))
            se = rng.uniform(0.0, 0.5, size=shape)
            normal = rng.normal(size=shape)
            for a in (normal, rng.integers(-3, 5, size=shape).astype(float)):
                mirror = -a.T
                rows, cols = eliminate_dominated(a)
                m_rows, m_cols = eliminate_dominated(mirror)
                np.testing.assert_array_equal(m_rows, cols)
                np.testing.assert_array_equal(m_cols, rows)
                assert sorted(find_pure_equilibria(mirror)) == sorted(
                    (c, r) for r, c in find_pure_equilibria(a)
                )
                noisy = saddle_points_within_noise(make_pm(a, se))
                assert sorted(saddle_points_within_noise(make_pm(mirror, se.T))) == sorted(
                    (c, r) for r, c in noisy
                )
            # a normal game has one equilibrium, so both LPs pin it down
            p, v_row, q, v_col = solve_lp_pair(normal)
            m_p, m_v_row, m_q, m_v_col = solve_lp_pair(-normal.T)
            np.testing.assert_allclose(m_p, q, atol=1e-9)
            np.testing.assert_allclose(m_q, p, atol=1e-9)
            assert m_v_row == pytest.approx(-v_col, abs=1e-9)
            assert m_v_col == pytest.approx(-v_row, abs=1e-9)

    def test_tracer_sees_every_solver_layer(self):
        # the benchmark's game layers wrap solve_mixed and the module-level
        # names it calls: one saddle game takes the saddle route, one
        # matching-pennies game the LP route
        tracer_module = load_perfbench("tracer")
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            solve_mixed(np.array([[1.0, 2.0], [0.0, 3.0]]))
            solve_mixed(np.array([[1.0, 0.0], [0.0, 1.0]]))
        finally:
            tracer.remove()
        game_targets = [t for layer, t, _ in tracer_module.TARGETS if layer.startswith("game.")]
        assert "byzfusion.game:solve_lp_pair" in game_targets
        assert [t for t in game_targets if t in tracer.absent] == []
        assert tracer.counts["game.route_saddle"] == 1
        assert tracer.totals["game.solve_lp_pair"][0] == 1

    def test_tracer_samples_once_per_row(self):
        # the benchmark's sample layer wraps simulate_row, which draws each
        # payoff row once for all of its columns
        tracer_module = load_perfbench("tracer")
        assert ("model.sample", "byzfusion.game:simulate_row", False) in tracer_module.TARGETS
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            grid = StrategyGrid((0.5, 1.0))
            estimate_payoff_matrix(small_scenario(), grid, grid, trials=50, seed=4)
        finally:
            tracer.remove()
        assert "byzfusion.game:simulate_row" not in tracer.absent
        assert tracer.totals["model.sample"][0] == 2

    def test_majority_shares_the_rows_draws(self):
        # majority voting is one more column of each payoff row: one draw per
        # row, and the matrix is estimate_payoff_matrix's, bit for bit
        tracer_module = load_perfbench("tracer")
        tracer = tracer_module.Tracer()
        tracer.install()
        grid_b, grid_fc = StrategyGrid((0.5, 0.8, 1.0)), StrategyGrid((0.5, 1.0))
        try:
            pm, majority = estimate_payoff_and_majority(
                small_scenario(), grid_b, grid_fc, 50, 4, "per-component", 2)
        finally:
            tracer.remove()
        assert tracer.totals["model.sample"][0] == 3
        assert (majority.trials, majority.seed, majority.metric) == (50, 4, "per-component")
        assert majority.grid_b == grid_b and majority.grid_fc.values == (MAJORITY_VOTE.pmal_fc,)
        assert majority.pe_component.shape == (3, 1)
        want = estimate_payoff_matrix(small_scenario(), grid_b, grid_fc, trials=50, seed=4)
        for name in ("pe_component", "pe_sequence", "se_component", "se_sequence"):
            np.testing.assert_array_equal(getattr(pm, name), getattr(want, name))


def eliminate_one_at_a_time(a):
    """Iterated strict dominance by removing the first dominated row, else the
    first dominated column, one at a time; the kept sets do not depend on the order."""
    rows, cols = list(range(a.shape[0])), list(range(a.shape[1]))
    while True:
        sub = a[np.ix_(rows, cols)]
        nr, nc = sub.shape
        row = next(
            (i for i in range(nr) if any((sub[k] > sub[i]).all() for k in range(nr) if k != i)),
            None,
        )
        if row is not None:
            del rows[row]
            continue
        col = next(
            (j for j in range(nc)
             if any((sub[:, k] < sub[:, j]).all() for k in range(nc) if k != j)),
            None,
        )
        if col is None:
            return rows, cols
        del cols[col]


class TestEliminateDominated:
    def test_matches_one_at_a_time_reference(self):
        rng = np.random.default_rng(13)
        dropped = 0
        for _ in range(200):
            a = rng.integers(0, 4, size=tuple(rng.integers(1, 7, size=2))).astype(float)
            rows, cols = eliminate_dominated(a)
            want_rows, want_cols = eliminate_one_at_a_time(a)
            np.testing.assert_array_equal(rows, want_rows)
            np.testing.assert_array_equal(cols, want_cols)
            dropped += (0 not in rows) + (0 not in cols)
        assert dropped > 0  # the first row or column is among those removed

    def test_reduces_strictly_dominated(self):
        pe = [[0.5, 0.6, 0.55], [0.2, 0.3, 0.25], [0.4, 0.5, 0.45]]
        rows, cols = eliminate_dominated(np.array(pe))
        # row 0 dominates the others (maximizer keeps it); column 0 is minimal
        np.testing.assert_array_equal(rows, [0])
        np.testing.assert_array_equal(cols, [0])

    def test_value_preserved(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = rng.normal(size=(5, 5))
            rows, cols = eliminate_dominated(a)
            v_full = solve_mixed(a).value
            v_red = solve_mixed(a[np.ix_(rows, cols)]).value
            assert v_red == pytest.approx(v_full, abs=1e-7)

    def test_payoff_matrix_slicing(self):
        # a PayoffMatrix keeps the same rows and columns as its pe array
        pm = make_pm([[0.5, 0.6], [0.2, 0.3]])
        rows, cols = eliminate_dominated(pm)
        np.testing.assert_array_equal(rows, [0])
        np.testing.assert_array_equal(cols, [0])
        for got, want in zip((rows, cols), eliminate_dominated(pm.pe)):
            np.testing.assert_array_equal(got, want)


def test_scenario_validation():
    with pytest.raises(ValueError):
        small_scenario(m=0)
    with pytest.raises(ValueError):
        small_scenario(true_model=FixedCount(9))
