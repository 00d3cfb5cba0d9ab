from dataclasses import replace

import numpy as np
import pytest

from phasorflow.exact import solve_exact
from phasorflow.linear import solve_linear
from phasorflow.model import (CompiledFeeder, DerSpec, LineSpec, LoadSpec, Network, NetworkError,
                              NodeSpec)
from phasorflow.opf import (
    DispatchConvergenceError,
    InfeasibleError,
    _certify_infeasible,
    build_opf,
    kkt_check,
    solve_opf,
)

Z601_500FT = (np.array([
    [0.3465 + 1.0179j, 0.1560 + 0.5017j, 0.1580 + 0.4236j],
    [0.1560 + 0.5017j, 0.3375 + 1.0478j, 0.1535 + 0.3849j],
    [0.1580 + 0.4236j, 0.1535 + 0.3849j, 0.3414 + 1.0348j],
]) * (500.0 / 5280.0) / 5.7685)

WEIGHTS = {"magnitude": 1000.0, "angle": 1000.0, "effort": 1.0}


def tiny_dual(cap=0.05):
    """Two one-line feeders off a common slack, open tie, 6 DER channels."""
    nodes = (NodeSpec("source", "abc"), NodeSpec("m1", "abc"), NodeSpec("m2", "abc"))
    lines = (
        LineSpec("source", "m1", "abc", Z601_500FT.tolist(), name="f1"),
        LineSpec("source", "m2", "abc", (1.2 * Z601_500FT).tolist(), name="f2"),
        LineSpec("m1", "m2", "abc", (0.1 * Z601_500FT).tolist(), name="tie",
                 is_switch=True, closed=False),
    )
    loads = (
        LoadSpec("m1", "a", 0.30 + 0.12j), LoadSpec("m1", "b", 0.24 + 0.10j),
        LoadSpec("m1", "c", 0.33 + 0.14j),
        LoadSpec("m2", "a", 0.10 + 0.04j), LoadSpec("m2", "b", 0.08 + 0.03j),
        LoadSpec("m2", "c", 0.11 + 0.05j),
    )
    der = tuple(DerSpec(n, p, cap) for n in ("m1", "m2") for p in "abc")
    return Network(nodes=nodes, lines=lines, loads=loads, der_units=der)


def projected_gradient_reference(net, targets, weights, caps, tol=1e-14,
                                 max_iter=400_000):
    """Solve the disk-constrained tracking problem by projected gradient.

    Builds the control response by finite differences of the linear solver
    (exact for an affine model), so it shares nothing with the production
    reduced-model or splitting code.
    """
    channels = [(d.node, d.phase) for d in net.der_units]
    k = len(channels)
    t1, t2 = targets

    def gaps(dispatch):
        sol = solve_linear(net, dispatch=dispatch)
        ge = np.array([sol.E[(t1, p)] - sol.E[(t2, p)] for p in "abc"])
        gt = np.array([sol.theta[(t1, p)] - sol.theta[(t2, p)] for p in "abc"])
        return ge, gt

    g0e, g0t = gaps(None)
    cols_e, cols_t = [], []
    for unit in (1.0, 1.0j):
        for ch in channels:
            ge, gt = gaps({ch: unit})
            cols_e.append(ge - g0e)
            cols_t.append(gt - g0t)
    ge_mat = np.array(cols_e).T
    gt_mat = np.array(cols_t).T

    rho_m, rho_a, rho_w = (weights["magnitude"], weights["angle"], weights["effort"])
    q = 2.0 * (rho_m * ge_mat.T @ ge_mat + rho_a * gt_mat.T @ gt_mat
               + rho_w * np.eye(2 * k))
    g = 2.0 * (rho_m * ge_mat.T @ g0e + rho_a * gt_mat.T @ g0t)

    step = 1.0 / np.linalg.eigvalsh(q).max()
    c = np.zeros(2 * k)
    for _ in range(max_iter):
        nxt = c - step * (q @ c + g)
        mags = np.hypot(nxt[:k], nxt[k:])
        for i in range(k):
            if mags[i] > caps[i]:
                scale = caps[i] / mags[i]
                nxt[i] *= scale
                nxt[k + i] *= scale
        if np.max(np.abs(nxt - c)) < tol:
            c = nxt
            break
        c = nxt

    def objective(cv):
        return (rho_m * np.sum((g0e + ge_mat @ cv) ** 2)
                + rho_a * np.sum((g0t + gt_mat @ cv) ** 2)
                + rho_w * np.sum(cv ** 2))

    return c, objective(c), channels


class TestReferenceOracle:
    def test_splitting_matches_projected_gradient(self):
        net = tiny_dual()
        prob = build_opf(net, [("m1", "m2")], WEIGHTS)
        got = solve_opf(prob)

        caps = np.array([d.capacity for d in net.der_units])
        c_ref, obj_ref, channels = projected_gradient_reference(
            net, ("m1", "m2"), WEIGHTS, caps)

        # compare where the voltage box is slack, so both solve the same set
        e_vals = prob.model.e0 + prob.model.b_e @ np.concatenate([
            [got.w[ch].real for ch in prob.channels],
            [got.w[ch].imag for ch in prob.channels]])
        assert np.all(e_vals > prob.e_min + 1e-3)
        assert np.all(e_vals < prob.e_max - 1e-3)

        assert abs(got.objective_value - obj_ref) <= 1e-6 * max(obj_ref, 1e-12)
        k = len(channels)
        for i, ch in enumerate(channels):
            assert got.w[ch].real == pytest.approx(c_ref[i], abs=5e-6)
            assert got.w[ch].imag == pytest.approx(c_ref[k + i], abs=5e-6)

    def test_oracle_holds_with_saturated_disks(self):
        # tighter caps force every disk active; objectives must still agree
        net = tiny_dual(cap=0.02)
        prob = build_opf(net, [("m1", "m2")], WEIGHTS)
        got = solve_opf(prob)
        caps = np.array([d.capacity for d in net.der_units])
        _, obj_ref, _ = projected_gradient_reference(net, ("m1", "m2"), WEIGHTS, caps)
        assert abs(got.objective_value - obj_ref) <= 1e-6 * obj_ref


class TestWeightScaling:
    def test_uniform_scaling_leaves_argmin_unchanged(self):
        net = tiny_dual()
        w1 = solve_opf(build_opf(net, [("m1", "m2")], WEIGHTS)).w
        scaled = {kk: 7.0 * v for kk, v in WEIGHTS.items()}
        w7 = solve_opf(build_opf(net, [("m1", "m2")], scaled)).w
        for ch in w1:
            assert abs(w1[ch] - w7[ch]) <= 1e-6

    def test_effort_only_dispatches_nothing(self):
        net = tiny_dual()
        prob = build_opf(net, [("m1", "m2")], {"effort": 1.0})
        got = solve_opf(prob)
        assert max(abs(v) for v in got.w.values()) <= 1e-9


class TestKkt:
    def test_report_passes_on_solved_dispatch(self):
        net = tiny_dual()
        prob = build_opf(net, [("m1", "m2")], WEIGHTS)
        got = solve_opf(prob)
        report = kkt_check(prob, got)
        assert report.passed, report.conditions()
        assert report.stationarity <= 1e-6
        assert report.complementarity <= 1e-6

    def test_report_fails_on_perturbed_dispatch(self):
        net = tiny_dual()
        prob = build_opf(net, [("m1", "m2")], WEIGHTS)
        got = solve_opf(prob)
        ch = prob.channels[0]
        tampered = dict(got.w)
        tampered[ch] += 0.005
        fake = replace(got, w=tampered)
        report = kkt_check(prob, fake)
        assert not report.passed


class TestValidation:
    def test_unknown_weight_key(self):
        with pytest.raises(ValueError, match="unknown weight"):
            build_opf(tiny_dual(), [("m1", "m2")], {"wat": 1.0})

    def test_negative_weight(self):
        with pytest.raises(ValueError, match="nonneg"):
            build_opf(tiny_dual(), [("m1", "m2")], {"magnitude": -1.0})

    @pytest.mark.parametrize("weight", [np.inf, np.nan])
    def test_non_finite_weight(self, weight):
        with pytest.raises(ValueError, match="nonneg"):
            build_opf(tiny_dual(), [("m1", "m2")], {"magnitude": weight})

    @pytest.mark.parametrize("e_min, e_max", [(-np.inf, 1.1), (0.9, np.inf), (np.nan, 1.1)])
    def test_non_finite_box(self, e_min, e_max):
        with pytest.raises(ValueError) as err:
            build_opf(tiny_dual(), [("m1", "m2")], WEIGHTS, e_min=e_min, e_max=e_max)
        assert str(err.value) == (f"voltage bounds must be finite, got e_min {e_min} "
                                  f"and e_max {e_max}")

    def test_all_zero_weights(self):
        with pytest.raises(ValueError, match="degenerate"):
            build_opf(tiny_dual(), [("m1", "m2")], {"magnitude": 0.0, "effort": 0.0})

    def test_unknown_target(self):
        with pytest.raises(ValueError, match="target"):
            build_opf(tiny_dual(), [("m1", "nope")], WEIGHTS)

    def test_bad_box(self):
        with pytest.raises(ValueError, match="e_min"):
            build_opf(tiny_dual(), [("m1", "m2")], WEIGHTS, e_min=1.2, e_max=1.1)

    def test_resource_on_the_slack(self):
        net = replace(tiny_dual(), der_units=(DerSpec("source", "b", 0.05),))
        with pytest.raises(NetworkError, match="dispatch channel source.b is tied to the slack"):
            build_opf(net, [("m1", "m2")], WEIGHTS)


class TestSolverFailure:
    def test_iteration_cap_raises_with_best_iterate(self):
        net = tiny_dual()
        prob = build_opf(net, [("m1", "m2")], WEIGHTS)
        with pytest.raises(DispatchConvergenceError) as err:
            solve_opf(prob, max_iter=3)
        assert err.value.best_w is not None
        assert err.value.primal_residual > 0.0

    def test_impossible_box_is_flagged_infeasible(self):
        # demanding |V| >= 1.15 everywhere cannot be met with 0.05 p.u. disks;
        # the certificate must come well inside the iteration cap
        net = tiny_dual()
        prob = build_opf(net, [("m1", "m2")], WEIGHTS, e_min=1.3225, e_max=1.5625)
        with pytest.raises(InfeasibleError) as err:
            solve_opf(prob, max_iter=999)
        assert any(v.startswith("E(") for v in err.value.violations)

    def test_tight_feasible_box_is_not_certified(self):
        # the largest reachable min E is about 0.99629 (a max-min solve with
        # scipy's SLSQP over the same disks): a box at 0.996 binds
        # but is feasible, so the solve must converge, not certify
        net = tiny_dual()
        prob = build_opf(net, [("m1", "m2")], WEIGHTS, e_min=0.996)
        got = solve_opf(prob)
        assert kkt_check(prob, got).passed
        c = np.concatenate([[got.w[ch].real for ch in prob.channels],
                            [got.w[ch].imag for ch in prob.channels]])
        e_vals = prob.model.e0 + prob.model.b_e @ c
        assert np.min(e_vals) == pytest.approx(0.996, abs=1e-8)
        assert np.max(np.abs(got.multipliers[2 * len(prob.channels):])) > 0.0

    @pytest.mark.parametrize("e_min, sign, certified", [
        (0.9025, 1.0, False),   # pushes on e_max of a feasible box
        (0.9025, -1.0, False),  # pushes on e_min of a feasible box
        (1.3225, -1.0, True),   # pushes on the impossible e_min
    ])
    def test_certificate_needs_negative_support(self, e_min, sign, certified):
        # a multiplier step with M'dmu = 0 certifies only if its support
        # value is negative; on a feasible box it never is (Farkas)
        prob = build_opf(tiny_dual(), [("m1", "m2")], WEIGHTS,
                         e_min=e_min, e_max=e_min + 0.2)
        box = np.full(prob.model.b_e.shape[0], sign)
        dmu = np.concatenate([-prob.model.b_e.T @ box, box])
        assert np.max(np.abs(prob.m_map.T @ dmu)) <= 1e-12
        if certified:
            with pytest.raises(InfeasibleError):
                _certify_infeasible(prob, dmu, 1)
        else:
            _certify_infeasible(prob, dmu, 1)


def _dual13_problems(dual13, spec13):
    targets = tuple(spec13["actions"][0]["targets"])
    return [(name, targets, weights, build_opf(dual13, [targets], weights))
            for name, weights in spec13["cases"].items() if weights]


class TestAdaptivePenalty:
    def test_dual13_converges_fast_and_matches_oracle(self, dual13, spec13):
        caps = np.array([d.capacity for d in dual13.der_units])
        for name, targets, weights, prob in _dual13_problems(dual13, spec13):
            got = solve_opf(prob)
            assert got.solver_stats["iterations"] <= 400, name
            assert got.solver_stats["penalty_updates"] >= 1, name
            assert got.solver_stats["penalty"] != 1.0, name
            assert kkt_check(prob, got).passed, name

            # the oracle has no voltage box; the box is slack at this optimum
            assert min(got.linear.E.values()) > prob.e_min + 1e-3, name
            assert max(got.linear.E.values()) < prob.e_max - 1e-3, name
            c_ref, _, channels = projected_gradient_reference(
                dual13, targets, weights, caps)
            k = len(channels)
            for i, ch in enumerate(channels):
                assert abs(got.w[ch] - complex(c_ref[i], c_ref[k + i])) <= 1e-6, (name, ch)

    def test_starting_penalty_does_not_move_dispatch(self, dual13, spec13):
        for name, _, _, prob in _dual13_problems(dual13, spec13):
            base = solve_opf(prob).w
            for start in (1e-3, 1e3):
                got = solve_opf(prob, penalty=start).w
                assert max(abs(got[ch] - base[ch]) for ch in base) <= 1e-6, (name, start)

    def test_dual37_keeps_its_starting_penalty(self, dual37, spec37):
        targets = tuple(spec37["actions"][0]["targets"])
        prob = build_opf(dual37, [targets], spec37["cases"]["PC"])
        got = solve_opf(prob)
        assert got.solver_stats["iterations"] == 33
        assert got.solver_stats["penalty_updates"] == 0
        assert got.solver_stats["penalty"] == 1.0


def test_dispatch_solution_carries_linear_state(dual13):
    prob = build_opf(dual13, [("1680", "2680")], WEIGHTS)
    got = solve_opf(prob)
    assert got.linear is not None
    # the attached linear solve already includes the dispatch
    direct = solve_linear(dual13, dispatch=got.w)
    for ch in (("1680", "a"), ("2680", "a")):
        assert got.linear.E[ch] == pytest.approx(direct.E[ch], abs=1e-12)


def test_dispatch_channels_resolved_once_per_solve(dual13, monkeypatch):
    # a dispatch becomes load rows in ``load_arrays``; no solver resolves it again
    calls = []
    resolve = CompiledFeeder.dispatch_index
    monkeypatch.setattr(CompiledFeeder, "dispatch_index",
                        lambda cf, channels: calls.append(cf) or resolve(cf, channels))
    w = {("1675", "a"): -0.03 + 0.01j, ("1632", "b"): 0.02 - 0.02j}
    prob = build_opf(dual13, [("1680", "2680")], WEIGHTS)
    counts = []
    for solve in (lambda: solve_exact(dual13, dispatch=w), lambda: solve_linear(dual13, w),
                  lambda: solve_opf(prob)):
        calls.clear()
        solve()
        counts.append(len(calls))
    assert counts == [1, 1, 1]
