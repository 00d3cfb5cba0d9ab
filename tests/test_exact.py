import numpy as np
import pytest

from phasorflow.exact import (
    NonConvergenceError,
    jacobian,
    kcl_residual,
    mismatch,
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


class TestZeroLoad:
    def test_flat_profile_is_exact(self, ieee13):
        from dataclasses import replace
        empty = replace(ieee13, loads=())
        sol = solve_exact(empty)
        assert sol.iterations <= 2
        for (node, phase), v in sol.V.items():
            assert v == pytest.approx(ieee13.slack_phasor(phase), abs=1e-14)

    def test_zero_load_line_flows_vanish(self, ieee13):
        from dataclasses import replace
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
        assert max(abs(v[ch] - sol.V[ch]) for ch in dual13.channels) <= 1e-9


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
        assert q == pytest.approx(vvc.response(abs(sol.V[("m", "a")])), abs=1e-8)

    def test_vvc_raises_sagging_voltage(self):
        loads = [LoadSpec("m", p, 0.5 + 0.2j, beta_s=1.0, beta_z=0.0) for p in "abc"]
        bare = solve_exact(two_bus(loads))
        vvc = [VvcSpec("m", p, q_min=-0.06, q_max=0.06, v_min=0.95, v_max=1.05)
               for p in "abc"]
        helped = solve_exact(two_bus(loads, vvc=vvc))
        for p in "abc":
            assert abs(helped.V[("m", p)]) > abs(bare.V[("m", p)])


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
    """The analytic Jacobian against a central difference of the mismatch."""

    @staticmethod
    def finite_difference(cf, inj, m, t, h=1e-6):
        free = cf.free
        cols = []
        for var in (m, t):
            for k in free:
                up, dn = var.copy(), var.copy()
                up[k] += h
                dn[k] -= h
                args_up = (up, t) if var is m else (m, up)
                args_dn = (dn, t) if var is m else (m, dn)
                df = (mismatch(cf, inj, *args_up) - mismatch(cf, inj, *args_dn)) / (2 * h)
                cols.append(np.concatenate([df.real, df.imag]))
        return np.array(cols).T

    @pytest.mark.parametrize("case", ["ieee13", "meshed_dual13", "ieee37"])
    def test_matches_central_difference(self, case, ieee13, ieee37, dual13):
        net = {"ieee13": ieee13, "ieee37": ieee37,
               "meshed_dual13": dual13.close_switch("tie-1680-2680")}[case]
        cf = net.compiled
        s_const, s_zmag, s_fixed = cf.class_loads(cf.load_arrays(net.loads))
        # a frozen volt-var draw, as inside each Newton solve
        np.add.at(s_fixed, cf.vvc_cls, 0.01j)
        inj = (s_const, s_zmag, s_fixed)
        # a generic point near the flat start, not a solution
        rng = np.random.default_rng(7)
        m = np.abs(cf.v_flat) * (1.0 + rng.uniform(-0.05, 0.05, cf.n_cls))
        t = np.angle(cf.v_flat) + rng.uniform(-0.05, 0.05, cf.n_cls)
        analytic = jacobian(cf, inj, m, t)
        numeric = self.finite_difference(cf, inj, m, t)
        assert analytic.shape == numeric.shape == (2 * len(cf.free),) * 2
        assert np.max(np.abs(analytic - numeric)) <= 1e-6 * np.max(np.abs(analytic))
