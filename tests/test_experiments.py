import json
import math
from dataclasses import replace

import numpy as np
import pytest

from phasorflow.exact import solve_exact
from phasorflow.experiments import (
    MC_BETA_S,
    MC_BETA_Z,
    ErrorRecord,
    _mc_demand,
    _mc_records,
    error_metrics,
    monte_carlo,
    report_to_dict,
)
from phasorflow.linear import solve_linear
from phasorflow.model import LoadArrays

from test_acceptance import regenerate_draw


class TestErrorMetrics:
    def test_self_comparison_is_zero(self, ieee13):
        ex = solve_exact(ieee13)
        lin = solve_linear(ieee13)
        eps_mag, eps_angle, eps_power = error_metrics(ex, lin)
        assert eps_mag >= 0.0 and eps_angle >= 0.0 and eps_power >= 0.0
        # moderate loading: the linear model sits well inside the envelopes
        assert eps_mag < 0.005
        assert eps_angle < 0.25
        assert eps_power < 0.02

    def test_metrics_are_maxima_over_channels(self, ieee13):
        ex = solve_exact(ieee13)
        lin = solve_linear(ieee13)
        eps_mag, _, _ = error_metrics(ex, lin)
        worst = max(abs(lin.v_mag(*ch) - abs(ex.V[ch])) for ch in ieee13.channels)
        assert eps_mag == pytest.approx(worst, abs=1e-15)


class TestMonteCarlo:
    GRID = [0.0, 0.05, 0.10]

    def test_record_count_and_layout(self, ieee13):
        recs = monte_carlo(ieee13, self.GRID, scenarios_per_cell=3, seed=5)
        assert len(recs) == len(self.GRID) ** 2 * 3
        cells = {(r.dr, r.di) for r in recs}
        assert len(cells) == len(self.GRID) ** 2

    def test_cell_draws_equal_a_per_draw_loop(self):
        seed, i, j, per_cell, n, dr, di = 42, 3, 7, 100, 15, 0.075, 0.15
        rng = np.random.default_rng(np.random.SeedSequence([seed, i, j]))
        want = np.empty((per_cell, n), dtype=complex)
        for s_idx in range(per_cell):
            re = rng.uniform(0.0, dr, n)
            im = rng.uniform(0.0, di, n)
            want[s_idx] = re + 1j * im
        rng = np.random.default_rng(np.random.SeedSequence([seed, i, j]))
        got = _mc_demand(rng, per_cell, n, dr, di)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_zero_cell_has_zero_error(self, ieee13):
        recs = monte_carlo(ieee13, [0.0], scenarios_per_cell=2, seed=1)
        for r in recs:
            assert r.converged
            # all loads replaced by zero draws: both models are exact
            assert r.eps_mag < 1e-12
            assert r.eps_power < 1e-12
            assert r.substation_power == pytest.approx(0.0, abs=1e-12)

    def test_seed_determinism(self, ieee13):
        a = monte_carlo(ieee13, self.GRID, scenarios_per_cell=3, seed=9)
        b = monte_carlo(ieee13, self.GRID, scenarios_per_cell=3, seed=9)
        assert a == b

    def test_worker_count_does_not_change_results(self, ieee13):
        a = monte_carlo(ieee13, [0.0, 0.08], scenarios_per_cell=2, seed=3, workers=1)
        b = monte_carlo(ieee13, [0.0, 0.08], scenarios_per_cell=2, seed=3, workers=2)
        assert a == b

    def test_different_seeds_differ(self, ieee13):
        a = monte_carlo(ieee13, [0.1], scenarios_per_cell=2, seed=1)
        b = monte_carlo(ieee13, [0.1], scenarios_per_cell=2, seed=2)
        assert any(x.eps_mag != y.eps_mag for x, y in zip(a, b))

    def test_substation_power_grows_with_load_caps(self, ieee13):
        recs = monte_carlo(ieee13, [0.02, 0.15], scenarios_per_cell=10, seed=4)
        light = max(r.substation_power for r in recs if r.dr == 0.02 and r.di == 0.02)
        heavy = max(r.substation_power for r in recs if r.dr == 0.15 and r.di == 0.15)
        assert heavy > light

    def test_records_equal_public_solves_of_their_draws(self, ieee13):
        # the sweep compiles the feeder once; each record must still be
        # exactly what the public solvers give on that draw's own network
        grid = [0.04, 0.12]
        recs = monte_carlo(ieee13, grid, scenarios_per_cell=3, seed=11)
        assert len(recs) == 12
        for rec in recs:
            trial = regenerate_draw(ieee13, grid, 11, rec)
            exact, approx = solve_exact(trial), solve_linear(trial)
            s_sub = sum(float(np.sum(np.abs(exact.S_line[ln.name])))
                        for ln in trial.lines if trial.slack_id in (ln.from_node, ln.to_node))
            assert ErrorRecord(rec.dr, rec.di, rec.scenario_index,
                               *error_metrics(exact, approx), s_sub) == rec

    def test_failed_draw_leaves_the_others_alone(self, ieee13):
        # a hopeless draw in a batch yields a NaN, converged=False record and
        # changes no other record of the batch
        stripped = replace(ieee13, loads=(), der_units=(), vvc_units=())
        cf = stripped.compiled
        channels = np.array([cf.channel_pos[(ld.node, ld.phase)] for ld in ieee13.loads
                             if ld.demand != 0])
        n = len(channels)
        rng = np.random.default_rng(3)
        demand = rng.uniform(0.0, 0.1, (4, n)) + 1j * rng.uniform(0.0, 0.1, (4, n))
        demand[2] *= 200.0
        loads = LoadArrays(channels, demand, np.full(n, MC_BETA_S), np.full(n, MC_BETA_Z),
                           np.zeros(n))
        recs = _mc_records(stripped, loads, 0.1, 0.1)
        alone = _mc_records(stripped, replace(loads, demand=demand[[0, 1, 3]]), 0.1, 0.1)
        assert not recs[2].converged
        assert all(math.isnan(x) for x in (recs[2].eps_mag, recs[2].eps_angle,
                                           recs[2].eps_power, recs[2].substation_power))
        assert [recs[i] for i in (0, 1, 3)] == [replace(r, scenario_index=i)
                                                for r, i in zip(alone, (0, 1, 3))]
        assert all(r.converged for r in alone)

    def test_rectangular_grid_pairs(self, ieee13):
        recs = monte_carlo(ieee13, ([0.0, 0.1], [0.05]), scenarios_per_cell=1, seed=0)
        assert {(r.dr, r.di) for r in recs} == {(0.0, 0.05), (0.1, 0.05)}


class TestScenarioReports:
    def test_cases_present(self, report13):
        assert [c.case for c in report13.cases] == ["NC", "MC", "PC"]
        assert report13.switch == "tie-1680-2680"
        assert report13.targets == ("1680", "2680")

    def test_nc_case_has_no_dispatch(self, report13):
        nc = report13.case("NC")
        assert nc.w == {}
        assert nc.weights is None

    def test_dispatch_shrinks_closure_flow(self, report13):
        nc = report13.case("NC")
        pc = report13.case("PC")
        for p in "abc":
            assert abs(pc.s_closed[p]) < abs(nc.s_closed[p])

    def test_closure_estimate_is_conservative_risk_signal(self, report13):
        # while the terminals disagree, the pre-closure estimate (gap over the
        # short tie impedance) dwarfs the re-solved mesh flow; both shrink
        # together once dispatch aligns the phasors
        nc = report13.case("NC")
        pc = report13.case("PC")
        for p in "abc":
            assert abs(nc.s_estimate[p]) > 5.0 * abs(nc.s_closed[p])
            assert abs(pc.s_estimate[p]) < abs(nc.s_estimate[p])

    def test_identical_feeders_close_with_no_flow(self, ieee13):
        # symmetric twins: zero terminal gap, so closing must move nothing
        from phasorflow.feeders import merge_with_switch, relabel_nodes
        f1 = relabel_nodes(ieee13, "1", keep=(ieee13.slack_id,))
        f2 = relabel_nodes(ieee13, "2", keep=(ieee13.slack_id,))
        net = merge_with_switch(f1, f2, {
            "from": "1680", "to": "2680", "config": "601",
            "length_ft": 500, "closed": False, "name": "tie",
        })
        open_sol = solve_exact(net)
        for p in "abc":
            assert abs(open_sol.V[("1680", p)] - open_sol.V[("2680", p)]) < 1e-12
        closed_sol = solve_exact(net.close_switch("tie"))
        assert np.max(np.abs(closed_sol.S_line["tie"])) <= 1e-9

    def test_angle_difference_is_degrees(self, report13):
        nc = report13.case("NC")
        # sub-degree angular gaps; radians would read as tiny fractions
        for p in "abc":
            assert 0.01 < abs(nc.angle_diff_deg[p]) < 10.0

    def test_report_serializes_to_json(self, report13):
        doc = report_to_dict(report13)
        text = json.dumps(doc, sort_keys=True)
        parsed = json.loads(text)
        assert parsed["switch"] == "tie-1680-2680"
        assert len(parsed["cases"]) == 3
        pc = [c for c in parsed["cases"] if c["case"] == "PC"][0]
        assert set(pc["dispatch"]) == {f"{n}.{p}" for (n, p) in report13.case("PC").w}

    def test_sequential_actions_run_in_order(self, reports37):
        assert len(reports37) == 2
        assert reports37[0].switch == "tie-1731-2731"
        assert reports37[1].switch == "tie-1725-2725"
        for rep in reports37:
            assert [c.case for c in rep.cases] == ["NC", "PC"]

    def test_second_action_sees_closed_first_tie(self, reports37, dual37):
        # after closing the first tie the terminals of action two move together
        first_open = solve_exact(dual37)
        after_first = solve_exact(dual37.close_switch("tie-1731-2731"))
        gap = lambda sol: abs(sol.V[("1725", "a")] - sol.V[("2725", "a")])
        assert gap(after_first) < gap(first_open)
