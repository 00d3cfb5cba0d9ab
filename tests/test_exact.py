from dataclasses import replace

import numpy as np
import pytest

import phasorflow.exact as exact
from phasorflow.exact import (
    NonConvergenceError,
    evaluate,
    jacobian,
    kcl_residual,
    newton_batch,
    solve_exact,
    switch_flow_estimate,
)
from phasorflow.model import LineSpec, LoadSpec, Network, NodeSpec, VvcSpec

# config-601-like mutual coupling, scaled to a few hundred feet of line
Z601 = (np.array([
    [0.3465 + 1.0179j, 0.1560 + 0.5017j, 0.1580 + 0.4236j],
    [0.1560 + 0.5017j, 0.3375 + 1.0478j, 0.1535 + 0.3849j],
    [0.1580 + 0.4236j, 0.1535 + 0.3849j, 0.3414 + 1.0348j],
]) * (500.0 / 5280.0) / 5.7685)


def two_bus(loads, vvc=()):
    nodes = (NodeSpec("source", "abc"), NodeSpec("m", "abc"))
    lines = (LineSpec("source", "m", "abc", Z601.tolist(), name="ln"),)
    return Network(nodes=nodes, lines=lines, loads=tuple(loads), vvc_units=tuple(vvc))


def gauss_reference(net, n_steps=60):
    """Independent fixed-point solve of the two-bus network.

    Iterates V <- V_slack - Z conj(s(V) / V) from a flat start. Shares no
    code with the production solver beyond the network container.
    """
    vs = np.array([net.slack_phasor(p) for p in "abc"])
    z = net.lines[0].z
    demand = {p: 0.0 + 0.0j for p in "abc"}
    betas = {}
    for ld in net.loads:
        demand[ld.phase] += ld.demand
        betas[ld.phase] = (ld.beta_s, ld.beta_z)
    v = vs.copy()
    for _ in range(n_steps):
        s = np.zeros(3, dtype=complex)
        for k, p in enumerate("abc"):
            b_s, b_z = betas.get(p, (1.0, 0.0))
            s[k] = (b_s + b_z * abs(v[k]) ** 2) * demand[p]
        v = vs - z @ np.conj(s / v)
    return v


def sweep_reference(net):
    """Independent backward/forward sweep of a radial network.

    Each of 60 sweeps draws the load, capacitor and volt-var currents at
    the present voltages (so volt-var settles jointly with the voltages,
    not in an outer loop), sums them leaf-first into the line currents, and
    then walks the drops Z I out from the slack. Ideal couplings carry a
    zero drop. Shares no code with the production solver beyond the
    network container; lines must point away from the slack.
    """
    order = []
    stack = [net.slack_id]
    while stack:
        node = stack.pop()
        for ln in net.lines:
            if ln.closed and ln.from_node == node:
                order.append(ln)
                stack.append(ln.to_node)
    if len(order) != sum(ln.closed for ln in net.lines):
        raise AssertionError("sweep oracle expects a radial net oriented away from the slack")
    v = {(n.id, p): net.slack_phasor(p) for n in net.nodes for p in n.phases}
    for _ in range(60):
        s = {ch: 0.0 + 0.0j for ch in v}
        for ld in net.loads:
            ch = (ld.node, ld.phase)
            s[ch] += (ld.beta_s + ld.beta_z * abs(v[ch]) ** 2) * ld.demand - 1j * ld.cap
        for u in net.vvc_units:
            ch = (u.node, u.phase)
            s[ch] += 1j * u.response(abs(v[ch]))
        drawn = {ch: np.conj(s[ch] / v[ch]) for ch in v}
        current = {}
        for ln in reversed(order):
            current[ln.name] = np.array([drawn[(ln.to_node, p)] for p in ln.phases])
            for k, p in enumerate(ln.phases):
                drawn[(ln.from_node, p)] += current[ln.name][k]
        for ln in order:
            drop = ln.z @ current[ln.name]
            for k, p in enumerate(ln.phases):
                v[(ln.to_node, p)] = v[(ln.from_node, p)] - drop[k]
    return v


def vvc_fixed_point_reference(net, dispatch=None):
    """Volt-var settled by an outer fixed point around a volt-var-free solve.

    Strips the units and iterates ``q <- VvcSpec.response(|V|)``, holding
    each unit's draw fixed as dispatch ``1j q`` on its channel (summed onto
    any dispatch already there), until ``q`` moves by at most 1e-13.
    Returns the last solution and the response at it. Shares the Newton
    solver but none of its volt-var handling.
    """
    bare = replace(net, vvc_units=())
    chans = [(u.node, u.phase) for u in net.vvc_units]
    q = [u.response(abs(net.slack_phasor(u.phase))) for u in net.vvc_units]
    for _ in range(200):
        w = dict(dispatch or {})
        for ch, qu in zip(chans, q):
            w[ch] = w.get(ch, 0.0) + 1j * qu
        sol = solve_exact(bare, dispatch=w)
        q_new = [u.response(abs(sol.V[ch])) for u, ch in zip(net.vvc_units, chans)]
        if max(abs(a - b) for a, b in zip(q_new, q)) <= 1e-13:
            return sol, dict(zip(chans, q_new))
        q = q_new
    raise AssertionError("volt-var fixed point did not settle")


class TestZeroLoad:
    def test_flat_profile_is_exact(self, ieee13):
        empty = replace(ieee13, loads=())
        sol = solve_exact(empty)
        assert sol.iterations <= 2
        for (node, phase), v in sol.V.items():
            assert v == pytest.approx(ieee13.slack_phasor(phase), abs=1e-14)

    def test_zero_load_line_flows_vanish(self, ieee13):
        sol = solve_exact(replace(ieee13, loads=()))
        for arr in sol.S_line.values():
            assert np.max(np.abs(arr)) < 1e-13


class TestTwoBusOracle:
    def test_constant_power_load(self):
        net = two_bus([LoadSpec("m", p, 0.3 + 0.1j, beta_s=1.0, beta_z=0.0)
                       for p in "abc"])
        ref = gauss_reference(net)
        sol = solve_exact(net)
        got = np.array([sol.V[("m", p)] for p in "abc"])
        assert np.max(np.abs(got - ref)) < 1e-12

    def test_mixed_load_model(self):
        net = two_bus([LoadSpec("m", p, 0.25 + 0.12j, beta_s=0.85, beta_z=0.15)
                       for p in "abc"])
        ref = gauss_reference(net)
        sol = solve_exact(net)
        got = np.array([sol.V[("m", p)] for p in "abc"])
        assert np.max(np.abs(got - ref)) < 1e-12

    def test_frozen_value(self):
        # frozen from the 60-step fixed point above (constant-power case)
        net = two_bus([LoadSpec("m", p, 0.3 + 0.1j, beta_s=1.0, beta_z=0.0)
                       for p in "abc"])
        sol = solve_exact(net)
        va = sol.V[("m", "a")]
        assert va.real == pytest.approx(0.9978109798877631, abs=1e-12)
        assert va.imag == pytest.approx(-0.0023232146525664263, abs=1e-12)


class TestSweepOracle:
    def test_matches_fixed_point_on_two_bus(self):
        net = two_bus([LoadSpec("m", p, 0.25 + 0.12j, beta_s=0.85, beta_z=0.15)
                       for p in "abc"])
        ref = gauss_reference(net)
        v = sweep_reference(net)
        got = np.array([v[("m", p)] for p in "abc"])
        assert np.max(np.abs(got - ref)) <= 1e-12

    def test_matches_newton_on_open_dual_feeder(self, dual13):
        # volt-var, capacitors, mixed loads and ideal head couplings
        assert dual13.vvc_units and dual13.open_switches
        v = sweep_reference(dual13)
        sol = solve_exact(dual13)
        assert max(abs(v[ch] - sol.V[ch]) for ch in dual13.channels) <= 1e-11


class TestConvergence:
    def test_deterministic_bitwise(self, ieee13):
        a = solve_exact(ieee13)
        b = solve_exact(ieee13)
        assert a.iterations == b.iterations
        for ch in a.V:
            assert a.V[ch] == b.V[ch]

    def test_kcl_residual_small(self, ieee13, ieee37):
        # bounded by the Newton stopping tolerance, not machine epsilon
        assert kcl_residual(ieee13, solve_exact(ieee13)) < 1e-9
        assert kcl_residual(ieee37, solve_exact(ieee37)) < 1e-9

    def test_dual_feeder_and_mesh(self, dual13):
        open_sol = solve_exact(dual13)
        assert kcl_residual(dual13, open_sol) < 1e-9
        meshed = dual13.close_switch("tie-1680-2680")
        mesh_sol = solve_exact(meshed)
        assert kcl_residual(meshed, mesh_sol) < 1e-9
        # closing the tie drags the two terminals together
        gap_open = abs(open_sol.V[("1680", "a")] - open_sol.V[("2680", "a")])
        gap_closed = abs(mesh_sol.V[("1680", "a")] - mesh_sol.V[("2680", "a")])
        assert gap_closed < gap_open

    def test_hopeless_load_raises(self):
        net = two_bus([LoadSpec("m", "a", 100.0, beta_s=1.0, beta_z=0.0)])
        with pytest.raises(NonConvergenceError):
            solve_exact(net)

    def test_iteration_cap_respected(self, ieee13):
        with pytest.raises(NonConvergenceError):
            solve_exact(ieee13, max_iter=1)

    def test_failure_messages_and_history(self, ieee13):
        # a single solve still reports why Newton stopped, with the residual
        # of every iterate from the flat start
        with pytest.raises(NonConvergenceError) as capped:
            solve_exact(ieee13, max_iter=1)
        hist = capped.value.residual_history
        assert len(hist) == 2 and hist[1] < hist[0]
        assert str(capped.value) == f"no convergence after 1 iterations (residual {hist[-1]:.3e})"
        net = two_bus([LoadSpec("m", "a", 100.0, beta_s=1.0, beta_z=0.0)])
        with pytest.raises(NonConvergenceError) as stalled:
            solve_exact(net)
        hist = stalled.value.residual_history
        assert len(hist) >= 2 and all(b < a for a, b in zip(hist, hist[1:]))
        assert str(stalled.value) == f"line search stalled at residual {hist[-1]:.3e}"


class TestDispatch:
    def test_positive_dispatch_lowers_local_voltage(self, ieee13):
        base = solve_exact(ieee13)
        bumped = solve_exact(ieee13, dispatch={("671", "a"): 0.05 + 0.02j})
        assert abs(bumped.V[("671", "a")]) < abs(base.V[("671", "a")])

    def test_dispatch_recorded_in_solution(self, ieee13):
        w = {("671", "b"): -0.03 + 0.01j}
        sol = solve_exact(ieee13, dispatch=w)
        assert sol.dispatch[("671", "b")] == w[("671", "b")]


class TestVvc:
    def test_converged_q_sits_on_droop(self):
        vvc = VvcSpec("m", "a", q_min=-0.05, q_max=0.05, v_min=0.95, v_max=1.05)
        net = two_bus([LoadSpec("m", p, 0.3 + 0.1j, beta_s=1.0, beta_z=0.0)
                       for p in "abc"], vvc=[vvc])
        sol = solve_exact(net)
        q = sol.vvc_q[("m", "a")]
        assert vvc.q_min <= q <= vvc.q_max
        assert q == pytest.approx(vvc.response(abs(sol.V[("m", "a")])), abs=1e-12)

    def test_vvc_raises_sagging_voltage(self):
        loads = [LoadSpec("m", p, 0.5 + 0.2j, beta_s=1.0, beta_z=0.0) for p in "abc"]
        bare = solve_exact(two_bus(loads))
        vvc = [VvcSpec("m", p, q_min=-0.06, q_max=0.06, v_min=0.95, v_max=1.05)
               for p in "abc"]
        helped = solve_exact(two_bus(loads, vvc=vvc))
        for p in "abc":
            assert abs(helped.V[("m", p)]) > abs(bare.V[("m", p)])


class TestVvcFixedPointOracle:
    """Volt-var inside Newton against the outer fixed point it replaced."""

    @pytest.mark.parametrize("case", ["open", "meshed", "open_pc"])
    def test_matches_outer_fixed_point(self, case, dual13, request):
        net = dual13.close_switch("tie-1680-2680") if case == "meshed" else dual13
        w = request.getfixturevalue("report13").case("PC").w if case == "open_pc" else None
        ref, q_ref = vvc_fixed_point_reference(net, w)
        sol = solve_exact(net, dispatch=w)
        assert sol.iterations <= 10
        assert max(abs(ref.V[ch] - sol.V[ch]) for ch in net.channels) <= 1e-8
        assert max(abs(q_ref[ch] - sol.vvc_q[ch]) for ch in q_ref) <= 1e-8


class TestVvcNarrowBand:
    """Droops too steep for an outer fixed point, and a saturated one."""

    LOADS = [LoadSpec("m", p, 0.5 + 0.2j, beta_s=1.0, beta_z=0.0) for p in "abc"]

    def solve(self, v_min, v_max):
        net = two_bus(self.LOADS, [VvcSpec("m", p, q_min=-0.1, q_max=0.1,
                                           v_min=v_min, v_max=v_max) for p in "abc"])
        sol = solve_exact(net)
        assert sol.iterations <= 10
        assert kcl_residual(net, sol) < 1e-9
        for u in net.vvc_units:
            ch = (u.node, u.phase)
            assert sol.vvc_q[ch] == pytest.approx(u.response(abs(sol.V[ch])), abs=1e-12)
        return net, sol

    def test_steep_droop_converges_inside_band(self):
        # a 0.001 p.u. band: the outer fixed point oscillates and never settles
        net, sol = self.solve(0.995, 0.996)
        for u in net.vvc_units:
            assert u.v_min < abs(sol.V[(u.node, u.phase)]) < u.v_max

    def test_saturated_droop_sits_on_its_cap(self):
        net, sol = self.solve(0.98, 0.99)
        assert all(q == 0.1 for q in sol.vvc_q.values())


class TestFlows:
    def test_receiving_end_power_matches_estimate_formula(self, ieee13):
        sol = solve_exact(ieee13)
        ln = ieee13.line_map["632-671"]
        vf = np.array([sol.V[(ln.from_node, p)] for p in ln.phases])
        vt = np.array([sol.V[(ln.to_node, p)] for p in ln.phases])
        est = switch_flow_estimate(vf, vt, np.linalg.inv(ln.z))
        assert np.allclose(est, sol.S_line["632-671"], atol=1e-12)

    def test_ideal_coupling_carries_recovered_flow(self, ieee13):
        # the slack coupling is ideal; its flow must still appear and be finite
        sol = solve_exact(ieee13)
        ideal = [ln.name for ln in ieee13.lines if ln.is_ideal]
        assert ideal
        for name in ideal:
            assert np.all(np.isfinite(sol.S_line[name]))
            assert np.max(np.abs(sol.S_line[name])) > 0.01


class TestJacobianOracle:
    """The analytic Jacobian against a central difference of the Z-bus residual."""

    @staticmethod
    def finite_difference(cf, zb, inj, x, h=1e-6):
        cols = []
        for step in (h, 1j * h):
            for k in range(x.shape[-1]):
                up, dn = x.copy(), x.copy()
                up[..., k] += step
                dn[..., k] -= step
                df = (evaluate(cf, zb, inj, up)[2] - evaluate(cf, zb, inj, dn)[2])[0] / (2 * h)
                cols.append(np.concatenate([df.real, df.imag]))
        return np.array(cols).T

    @pytest.mark.parametrize("case", ["ieee13", "meshed_dual13", "ieee37"])
    def test_matches_central_difference(self, case, ieee13, ieee37, dual13):
        net = {"ieee13": ieee13, "ieee37": ieee37,
               "meshed_dual13": dual13.close_switch("tie-1680-2680")}[case]
        cf = net.compiled
        loads = cf.load_arrays(net.loads).batch()
        inj = cf.class_loads(loads)
        zb = cf.zbus(loads.channel)
        # a generic point near the flat start, not a solution
        rng = np.random.default_rng(7)
        flat = cf.v_flat[zb.cls]
        x = (np.abs(flat) * (1.0 + rng.uniform(-0.05, 0.05, len(flat)))
             * np.exp(1j * (np.angle(flat) + rng.uniform(-0.05, 0.05, len(flat)))))[None]
        if case == "meshed_dual13":
            # the volt-var slope enters only for units inside their band
            m_vvc = np.abs(x[0, np.searchsorted(zb.cls, cf.vvc_cls)])
            assert np.any(cf.vvc_droop(m_vvc)[1] != 0.0)
        analytic = jacobian(cf, zb, inj, x)[0]
        numeric = self.finite_difference(cf, zb, inj, x)
        assert analytic.shape == numeric.shape == (2 * len(zb.cls),) * 2
        assert np.max(np.abs(analytic - numeric)) <= 1e-6 * np.max(np.abs(analytic))


class TestNewtonBatch:
    """Newton on a batch of draws against one-draw solves of the same draws."""

    # ieee13 load multipliers: 3 and 4 Newton steps, and one hopeless draw
    SCALES = (0.5, 3.0, 20.0, 1.0, 2.5)

    @staticmethod
    def batch(net, scales):
        cf = net.compiled
        base = cf.load_arrays(net.loads)
        demand = np.array([base.demand * k for k in scales])
        nets = [replace(net, loads=tuple(replace(ld, demand=complex(d))
                                         for ld, d in zip(net.loads, row)))
                for row in demand]
        return cf, replace(base, demand=demand), nets

    @pytest.mark.parametrize("budget", [None, 1], ids=["one_stack", "one_draw_per_stack"])
    def test_draws_equal_single_solves(self, ieee13, monkeypatch, budget):
        if budget is not None:
            monkeypatch.setattr(exact, "JACOBIAN_STACK_BYTES", budget)
        cf, loads, nets = self.batch(ieee13, self.SCALES)
        out = newton_batch(cf, loads)
        assert {3, 4} <= set(out.steps[[e is None for e in out.error]].tolist())
        for row, net in enumerate(nets):
            if out.error[row] is not None:
                with pytest.raises(NonConvergenceError) as err:
                    solve_exact(net)
                assert str(err.value) == out.error[row]
                assert err.value.residual_history == out.history[row]
                assert np.all(np.isnan(out.v[row]))
                continue
            sol = solve_exact(net)
            assert sol.iterations == out.steps[row]
            assert sol.residual_norm == out.residual[row]
            assert all(sol.V[ch] == out.v[row, k] for ch, k in zip(cf.channels, cf.channel_class))
        assert sum(e is not None for e in out.error) == 1

    def test_singular_draw_fails_alone(self, ieee13, monkeypatch):
        # zero one draw's Jacobian: that draw fails, the others do not move
        cf, loads, _ = self.batch(ieee13, self.SCALES)
        clean = newton_batch(cf, loads)
        real, target = exact.jacobian, cf.class_loads(loads)[0][3]

        def zeroed(cf, zb, inj, x):
            jac = real(cf, zb, inj, x)
            jac[np.all(inj[0] == target, axis=-1)] = 0.0
            return jac

        monkeypatch.setattr(exact, "jacobian", zeroed)
        out = newton_batch(cf, loads)
        assert out.error[3] == "singular Jacobian: Singular matrix"
        assert out.history[3] == clean.history[3][:1]
        for row in (0, 1, 2, 4):
            assert out.error[row] == clean.error[row]
            assert out.history[row] == clean.history[row]
            assert np.array_equal(out.v[row], clean.v[row], equal_nan=True)
