import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from phasorflow.exact import solve_exact
from phasorflow.experiments import run_sequential_switching
from phasorflow.linear import angle_residual, build_mn, linear_response, solve_linear
from phasorflow import model
from phasorflow.model import CompiledFeeder, LineSpec, LoadSpec, Network, NodeSpec
from phasorflow.opf import build_opf

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
    the nodal assembly in the production model."""
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


def linear_system(net, dispatch=None):
    """The linear model's square sparse system over [E; Theta; P; Q] and its
    right-hand side, written row by row from ``build_mn`` and the flow
    incidence: two drop rows per real line phase, then per class either two
    balance rows or, for a slack-tied class, two pin rows. Independent of the
    Z-bus solve in the production model."""
    cf = net.compiled
    cls = {ch: int(k) for ch, k in zip(cf.channels, cf.channel_class)}
    real = [ln for ln in net.lines if ln.closed and not ln.is_ideal]
    pinned = {cls[(net.slack_id, p)]: net.slack_phasor(p) for p in "abc"}
    n_cls = cf.n_cls
    n_flow = sum(len(ln.phases) for ln in real)
    n_state = 2 * n_cls + 2 * n_flow
    col_p, col_q = 2 * n_cls, 2 * n_cls + n_flow
    rows, cols, vals = [], [], []

    def put(r, c, v):
        rows.append(r)
        cols.append(c)
        vals.append(v)

    r = base = 0
    arriving, leaving = {}, {}
    for ln in real:
        mn = build_mn(ln.z, ln.phases)
        fc = [cls[(ln.from_node, p)] for p in ln.phases]
        tc = [cls[(ln.to_node, p)] for p in ln.phases]
        k = len(ln.phases)
        for pi in range(k):
            put(r, fc[pi], 1.0)
            put(r, tc[pi], -1.0)
            for pj in range(k):
                put(r, col_p + base + pj, -2.0 * mn.m[pi, pj])
                put(r, col_q + base + pj, 2.0 * mn.n[pi, pj])
            put(r + 1, n_cls + fc[pi], 1.0)
            put(r + 1, n_cls + tc[pi], -1.0)
            for pj in range(k):
                put(r + 1, col_p + base + pj, mn.n[pi, pj])
                put(r + 1, col_q + base + pj, mn.m[pi, pj])
            r += 2
            arriving.setdefault(tc[pi], []).append(base + pi)
            leaving.setdefault(fc[pi], []).append(base + pi)
        base += k

    # A class consumes d + c E: loads, volt-var on its open segment, dispatch.
    d = np.zeros(n_cls, dtype=complex)
    c = np.zeros(n_cls, dtype=complex)
    for ld in net.loads:
        k = cls[(ld.node, ld.phase)]
        d[k] += ld.beta_s * ld.demand - 1j * ld.cap
        c[k] += ld.beta_z * ld.demand
    for unit in net.vvc_units:
        k0, k1 = unit.linear_coeffs()
        d[cls[(unit.node, unit.phase)]] += 1j * k0
        c[cls[(unit.node, unit.phase)]] += 1j * k1
    for ch, w in (dispatch or {}).items():
        d[cls[ch]] += w

    b = np.zeros(n_state)
    for k in range(n_cls):
        if k in pinned:
            vs = pinned[k]
            put(r, k, 1.0)
            put(r + 1, n_cls + k, 1.0)
            b[r], b[r + 1] = abs(vs) ** 2, math.atan2(vs.imag, vs.real)
        else:
            for row, col in ((r, col_p), (r + 1, col_q)):
                for f in arriving.get(k, ()):
                    put(row, col + f, 1.0)
                for f in leaving.get(k, ()):
                    put(row, col + f, -1.0)
            put(r, k, -c[k].real)
            put(r + 1, k, -c[k].imag)
            b[r], b[r + 1] = d[k].real, d[k].imag
        r += 2
    assert r == n_state
    return sp.csc_matrix(sp.coo_matrix((vals, (rows, cols)), shape=(r, r))), b


def square_linalg_calls(monkeypatch, sizes):
    """Record each ``np.linalg.inv`` or ``solve`` of an n x n matrix with n in
    ``sizes``, as (name, shape)."""
    calls = []

    def record(name, real):
        def wrapped(a, *args, **kwargs):
            rows, cols = np.shape(a)[-2:]
            if rows == cols and rows in sizes:
                calls.append((name, (rows, cols)))
            return real(a, *args, **kwargs)
        return wrapped

    for name in ("inv", "solve"):
        monkeypatch.setattr(np.linalg, name, record(name, getattr(np.linalg, name)))
    return calls


def z_builds(monkeypatch):
    """Record each walk that orders a fresh ``Z`` build, as 1, and each
    Z-bus link, as its rank."""
    walks, links = [], []
    walk, link = CompiledFeeder._walk, model._link

    def record_walk(self, *args):
        walks.append(1)
        return walk(self, *args)

    def record_link(z, frm, to, zk):
        links.append(len(zk))
        return link(z, frm, to, zk)

    monkeypatch.setattr(CompiledFeeder, "_walk", record_walk)
    monkeypatch.setattr(model, "_link", record_link)
    return walks, links


def square_allocations(monkeypatch, n):
    """Record each ``np.zeros`` or ``np.zeros_like`` that allocates an n x n
    matrix, by name: how a ``Y_ff`` would be assembled."""
    calls = []

    def record(name, real):
        def wrapped(*args, **kwargs):
            out = real(*args, **kwargs)
            if out.shape == (n, n):
                calls.append(name)
            return out
        return wrapped

    for name in ("zeros", "zeros_like"):
        monkeypatch.setattr(np, name, record(name, getattr(np, name)))
    return calls


class TestFactoredResponse:
    """The Z-bus solve of the linear model against a direct sparse solve of
    the system the test writes itself."""

    @pytest.mark.parametrize("case", ["ieee13", "ieee37", "dual13_dispatch"])
    def test_matches_direct_solve(self, case, ieee13, ieee37, dual13):
        net = {"ieee13": ieee13, "ieee37": ieee37, "dual13_dispatch": dual13}[case]
        dispatch = {}
        if case == "dual13_dispatch":
            dispatch = {(d.node, d.phase): complex(0.02 - 0.01 * i, 0.01)
                        for i, d in enumerate(net.der_units[:4])}
        cf = net.compiled
        loads = cf.load_arrays(net.loads, dispatch)
        if case == "dual13_dispatch":
            assert net.vvc_units and dispatch
        want = spla.spsolve(*linear_system(net, dispatch))
        x, res = linear_response(cf, loads.batch())
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

    def test_compiled_feeder_inverts_no_free_block(self, dual13, monkeypatch):
        net = replace(dual13)
        n_free = len(net.compiled.free)
        assert n_free == 58
        calls = square_linalg_calls(monkeypatch, {n_free, n_free // 2})
        allocs = square_allocations(monkeypatch, n_free)
        walks, links = z_builds(monkeypatch)

        def solves(net):
            solve_exact(net)
            solve_linear(net)
            solve_linear(net, dispatch={(d.node, d.phase): 0.01 + 0.01j for d in net.der_units})
            der = {(d.node, d.phase) for d in net.der_units}
            bare = next((ld.node, ld.phase) for ld in net.loads if (ld.node, ld.phase) not in der)
            solve_linear(net, dispatch={bare: 0.01 + 0.01j})  # a channel with no DER unit
            build_opf(net, [("1680", "2680")], {"magnitude": 1.0, "angle": 1.0, "effort": 1.0})

        solves(net)
        # Z is built line by line, once per compile for all three models, so
        # neither Y_ff nor an inverse of it or of a block of it appears.
        assert calls == []
        assert allocs == []
        assert walks == [1]
        assert links == []  # both open feeders are radial: branches only
        walks.clear()
        links.clear()
        solves(net.close_switch("tie-1680-2680"))
        # The closed copy's Z is the open one's updated by the tie's rank,
        # with no build of its own.
        assert calls == []
        assert allocs == []
        assert walks == []
        assert links == [3]

    def test_sequential_closures_invert_no_full_y_ff(self, spec37, monkeypatch):
        n_free = 216
        calls = square_linalg_calls(monkeypatch, {n_free, n_free // 2})
        allocs = square_allocations(monkeypatch, n_free)
        walks, links = z_builds(monkeypatch)
        reports = run_sequential_switching(spec37)
        assert len(reports) == 2
        # the open network's Z is built once, then two rank-3 updates
        assert calls == []
        assert allocs == []
        assert walks == [1]
        assert links == [3, 3]  # the open network is radial: no link in its build

    def test_residual_audit_catches_a_perturbed_response(self, ieee13):
        net = replace(ieee13)  # its own compile, so the cache below is private
        solve_linear(net)
        cf = net.compiled
        loaded = cf.free_pos[cf.channel_class[cf.load_arrays(net.loads).channel[0]]]
        assert loaded >= 0
        cf.z[0, loaded] *= 1.0 + 1e-6
        with pytest.raises(RuntimeError, match="linear solve residual"):
            solve_linear(net)

    def test_residual_audit_bound_scales_with_the_draw(self, ieee13):
        # A 1e6 p.u. load: the solve is accurate to about 1e-12 relative to
        # the draw, which an absolute 1e-10 bound would reject. The bound is
        # a backward error, so the solve passes and the same perturbation as
        # above is still caught at this scale.
        loads = (replace(ieee13.loads[0], demand=1e6),) + ieee13.loads[1:]
        net = replace(ieee13, loads=loads)
        sol = solve_linear(net)
        assert 1e-10 < sol.residual_norm <= 1e-10 * 1e6
        cf = net.compiled
        loaded = cf.free_pos[cf.channel_class[cf.load_arrays(net.loads).channel[0]]]
        cf.z[0, loaded] *= 1.0 + 1e-6
        with pytest.raises(RuntimeError, match="linear solve residual"):
            solve_linear(net)
