import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

import phasorflow.model as model
from phasorflow.exact import solve_exact
from phasorflow.linear import (LinearSystem, angle_residual, build_mn, linear_response,
                               solve_linear)
from phasorflow.model import LineSpec, LoadSpec, Network, NodeSpec

NOMINAL_ANGLE = {"a": 0.0, "b": -2.0 * math.pi / 3.0, "c": 2.0 * math.pi / 3.0}

Z601_500FT = (np.array([
    [0.3465 + 1.0179j, 0.1560 + 0.5017j, 0.1580 + 0.4236j],
    [0.1560 + 0.5017j, 0.3375 + 1.0478j, 0.1535 + 0.3849j],
    [0.1580 + 0.4236j, 0.1535 + 0.3849j, 0.3414 + 1.0348j],
]) * (500.0 / 5280.0) / 5.7685)


def reference_mn(z, phases):
    """Drop coefficients straight from the definition: entrywise nominal
    rotation times the conjugated impedance."""
    alpha = np.array([NOMINAL_ANGLE[p] for p in phases])
    rot = np.exp(1j * (alpha[:, None] - alpha[None, :]))
    w = rot * np.conj(np.asarray(z, dtype=complex))
    return w.real, w.imag


class TestMn:
    def test_matches_reference_over_random_impedances(self):
        rng = np.random.default_rng(2024)
        subsets = [("a",), ("b",), ("c",), ("a", "b"), ("b", "c"),
                   ("a", "c"), ("a", "b", "c")]
        for trial in range(1000):
            phases = subsets[trial % len(subsets)]
            k = len(phases)
            z = rng.normal(size=(k, k)) * 0.1 + 1j * rng.normal(size=(k, k)) * 0.1
            mn = build_mn(z, phases)
            m_ref, n_ref = reference_mn(z, phases)
            assert np.max(np.abs(mn.m - m_ref)) <= 1e-15
            assert np.max(np.abs(mn.n - n_ref)) <= 1e-15

    def test_single_phase_reduces_to_r_and_minus_x(self):
        mn = build_mn([[0.01 + 0.02j]], ("a",))
        assert mn.m[0, 0] == pytest.approx(0.01)
        assert mn.n[0, 0] == pytest.approx(-0.02)


class TestHandOracle:
    def make_net(self):
        nodes = (NodeSpec("source", "abc"), NodeSpec("n1", "a"))
        lines = (LineSpec("source", "n1", "a", [[0.01 + 0.02j]], name="ln"),)
        loads = (LoadSpec("n1", "a", 0.1 + 0.05j, beta_s=1.0, beta_z=0.0),)
        return Network(nodes=nodes, lines=lines, loads=loads)

    def test_single_phase_drop(self):
        # by hand: E = 1 - 2(rP + xQ) = 0.996, theta = -(xP - rQ) = -0.0015
        sol = solve_linear(self.make_net())
        assert sol.E[("n1", "a")] == pytest.approx(0.996, abs=1e-12)
        assert sol.theta[("n1", "a")] == pytest.approx(-0.0015, abs=1e-12)
        assert sol.P["ln"][0] == pytest.approx(0.1, abs=1e-12)
        assert sol.Q["ln"][0] == pytest.approx(0.05, abs=1e-12)

    def test_first_order_agreement_with_exact(self):
        net = self.make_net()
        lin = solve_linear(net)
        ex = solve_exact(net)
        # the drop here is ~4e-3, so second-order terms are ~1e-5
        assert math.sqrt(lin.E[("n1", "a")]) == pytest.approx(abs(ex.V[("n1", "a")]), abs=1e-4)
        assert lin.theta[("n1", "a")] == pytest.approx(
            float(np.angle(ex.V[("n1", "a")])), abs=1e-4)


def forward_sweep(net):
    """Reference solve for a radial pure-PQ network: accumulate subtree
    demand per line, then walk drops from the slack outward. Independent of
    the sparse assembly in the production model."""
    children = {}
    for ln in net.lines:
        if ln.is_ideal:
            raise AssertionError("sweep oracle expects real lines only")
        children.setdefault(ln.from_node, []).append(ln)
    demand = {}
    for ld in net.loads:
        assert ld.beta_s == 1.0
        demand[(ld.node, ld.phase)] = demand.get((ld.node, ld.phase), 0.0) + ld.demand

    def subtree(node):
        tot = {p: demand.get((node, p), 0.0 + 0.0j) for p in "abc"}
        for ln in children.get(node, []):
            below = subtree(ln.to_node)
            for p in "abc":
                tot[p] += below[p]
        return tot

    flows = {}
    for ln in net.lines:
        below = subtree(ln.to_node)
        flows[ln.name] = np.array([below[p] for p in ln.phases])

    e = {("source", p): 1.0 for p in "abc"}
    theta = {("source", p): NOMINAL_ANGLE[p] for p in "abc"}

    def descend(node):
        for ln in children.get(node, []):
            mn = build_mn(ln.z, ln.phases)
            pw, qw = flows[ln.name].real, flows[ln.name].imag
            de = 2.0 * (mn.m @ pw - mn.n @ qw)
            dth = mn.n @ pw + mn.m @ qw
            for k, p in enumerate(ln.phases):
                e[(ln.to_node, p)] = e[(ln.from_node, p)] - de[k]
                theta[(ln.to_node, p)] = theta[(ln.from_node, p)] + dth[k]
            descend(ln.to_node)

    descend("source")
    return e, theta, flows


def make_radial_net():
    # 3-phase trunk with a 2-phase spur, full mutual coupling
    nodes = (NodeSpec("source", "abc"), NodeSpec("n1", "abc"),
             NodeSpec("n2", "abc"), NodeSpec("n3", "bc"))
    z_bc = Z601_500FT[np.ix_([1, 2], [1, 2])]
    lines = (
        LineSpec("source", "n1", "abc", Z601_500FT.tolist(), name="l1"),
        LineSpec("n1", "n2", "abc", (0.6 * Z601_500FT).tolist(), name="l2"),
        LineSpec("n1", "n3", "bc", z_bc.tolist(), name="l3"),
    )
    loads = (
        LoadSpec("n2", "a", 0.10 + 0.04j, beta_s=1.0, beta_z=0.0),
        LoadSpec("n2", "b", 0.08 + 0.03j, beta_s=1.0, beta_z=0.0),
        LoadSpec("n2", "c", 0.12 + 0.05j, beta_s=1.0, beta_z=0.0),
        LoadSpec("n3", "b", 0.06 + 0.02j, beta_s=1.0, beta_z=0.0),
        LoadSpec("n3", "c", 0.05 + 0.02j, beta_s=1.0, beta_z=0.0),
        LoadSpec("n1", "a", 0.03 + 0.01j, beta_s=1.0, beta_z=0.0),
    )
    return Network(nodes=nodes, lines=lines, loads=loads)


class TestForwardSweep:
    def test_direct_solve_matches_sweep(self):
        net = make_radial_net()
        e_ref, th_ref, flow_ref = forward_sweep(net)
        sol = solve_linear(net)
        for ch, want in e_ref.items():
            assert abs(sol.E[ch] - want) <= 1e-10, ch
        for ch, want in th_ref.items():
            assert abs(sol.theta[ch] - want) <= 1e-10, ch
        for name, want in flow_ref.items():
            assert np.max(np.abs(sol.P[name] - want.real)) <= 1e-10
            assert np.max(np.abs(sol.Q[name] - want.imag)) <= 1e-10


class TestZeroLoad:
    def test_flat_profile(self, ieee13):
        sol = solve_linear(replace(ieee13, loads=()))
        for (node, phase), e in sol.E.items():
            assert e == pytest.approx(1.0, abs=1e-12)
            want = NOMINAL_ANGLE[phase]
            got = sol.theta[(node, phase)]
            # angles live on the real line here, so unwrap manually
            assert min(abs(got - want), abs(got - want + 2 * math.pi),
                       abs(got - want - 2 * math.pi)) < 1e-12
        for name in sol.P:
            assert np.max(np.abs(sol.P[name])) < 1e-12
            assert np.max(np.abs(sol.Q[name])) < 1e-12


class TestAngleIdentity:
    def test_residual_small_on_converged_solutions(self, ieee13, ieee37, dual13, dual37):
        for net in (ieee13, ieee37, dual13, dual37):
            sol = solve_exact(net)
            assert angle_residual(net, sol) <= 1e-8

    def test_residual_small_on_meshed_topology(self, dual13):
        meshed = dual13.close_switch("tie-1680-2680")
        sol = solve_exact(meshed)
        assert angle_residual(meshed, sol) <= 1e-8


class TestDispatch:
    def test_consumption_positive_sign(self, ieee13):
        base = solve_linear(ieee13)
        bumped = solve_linear(ieee13, dispatch={("671", "a"): 0.05 + 0.02j})
        assert bumped.E[("671", "a")] < base.E[("671", "a")]

    def test_linear_tracks_exact_shift(self, ieee13):
        # sensitivity agreement, not just direction
        w = {("671", "a"): 0.05 + 0.02j}
        d_lin = (solve_linear(ieee13, dispatch=w).v_mag("671", "a")
                 - solve_linear(ieee13).v_mag("671", "a"))
        d_ex = (abs(solve_exact(ieee13, dispatch=w).V[("671", "a")])
                - abs(solve_exact(ieee13).V[("671", "a")]))
        assert d_lin == pytest.approx(d_ex, rel=0.1)


def test_moderate_load_proximity(ieee13):
    lin = solve_linear(ieee13)
    ex = solve_exact(ieee13)
    for ch in ieee13.channels:
        assert lin.v_mag(*ch) == pytest.approx(abs(ex.V[ch]), abs=0.01)


class TestFactoredResponse:
    """The Woodbury solve on the factored load-free matrix against a direct
    sparse solve of the assembled system."""

    @pytest.mark.parametrize("case", ["ieee13", "ieee37", "dual13_dispatch"])
    def test_matches_direct_solve(self, case, ieee13, ieee37, dual13):
        net = {"ieee13": ieee13, "ieee37": ieee37, "dual13_dispatch": dual13}[case]
        dispatch = {}
        if case == "dual13_dispatch":
            dispatch = {(d.node, d.phase): complex(0.02 - 0.01 * i, 0.01)
                        for i, d in enumerate(net.der_units[:4])}
        cf = net.compiled
        loads = cf.load_arrays(net.loads)
        if case == "dual13_dispatch":
            assert np.any(cf.linear.k1 != 0.0) and dispatch
        system = LinearSystem(cf, loads)
        want = spla.spsolve(system.A, system.rhs(dispatch))
        x, res = linear_response(cf, loads.batch(), dispatch)
        assert np.max(np.abs(x[0] - want)) <= 1e-13
        assert res[0] <= 1e-13

    def test_batch_rows_equal_single_solves(self, ieee13):
        cf = ieee13.compiled
        loads = cf.load_arrays(ieee13.loads)
        demand = np.array([loads.demand * k for k in (0.0, 0.5, 1.0, 2.0)])
        x, _ = linear_response(cf, replace(loads, demand=demand))
        for row, d in enumerate(demand):
            one, _ = linear_response(cf, replace(loads, demand=d).batch())
            assert np.array_equal(x[row], one[0])

    def test_one_factorisation_on_first_linear_use(self, ieee13, monkeypatch):
        calls = []
        real = model.spla.splu
        monkeypatch.setattr(model.spla, "splu", lambda a: calls.append(a.shape) or real(a))
        net = replace(ieee13)
        solve_exact(net)
        # the exact solver factors only Y_ff (real form), for its Z-bus columns
        n_free = len(net.compiled.free)
        assert calls == [(2 * n_free, 2 * n_free)]
        solve_linear(net)
        solve_linear(net, dispatch={("671", "a"): 0.01 + 0.01j})
        assert calls[1:] == [(net.compiled.linear.n_state,) * 2]

    def test_residual_audit_catches_a_perturbed_response(self, ieee13):
        net = replace(ieee13)  # its own compile, so the cache below is private
        solve_linear(net)
        cached = net.compiled.linear.columns
        assert cached
        cached[next(iter(cached))][0] *= 1.0 + 1e-6
        with pytest.raises(RuntimeError, match="linear solve residual"):
            solve_linear(net)
