"""Random valid feeders against the exact and linear solvers' oracles.

Hypothesis builds small networks the shipped feeders never show: random
trees of 1-, 2- and 3-phase segments from the ieee13 line configs behind an
ideal head coupling, sometimes meshed by a closed tie, with mixed loads,
capacitors, volt-var units and DER dispatch. The examples are derandomized,
so the battery is the same on every run.
"""

from dataclasses import replace

import numpy as np
import scipy.sparse.linalg as spla
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import DATA
from phasorflow import load_feeder
from phasorflow.exact import evaluate, jacobian, kcl_residual, newton_batch, solve_exact
from phasorflow.feeders import network_from_dict, network_to_dict
from phasorflow.linear import angle_residual, linear_response, solve_linear
from phasorflow.model import DerSpec, LineSpec, LoadSpec, Network, NodeSpec, VvcSpec
from phasorflow.opf import DispatchConvergenceError, build_opf, kkt_check, solve_opf
from test_acceptance import flow_error_split
from test_exact import sweep_reference
from test_linear import linear_system
from test_model import assert_z_inverts_y_ff

BASE = load_feeder(DATA / "ieee13.json")
CONFIGS = sorted(BASE.line_configs.items())

BATTERY = settings(derandomize=True, deadline=None, max_examples=30,
                   suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def small(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False)


def tie_configs(phases_a, phases_b):
    return [c for _, c in CONFIGS if set(c.phases) <= set(phases_a) & set(phases_b)]


@st.composite
def feeders(draw, open_tie=False):
    """(network, dispatch, radial): a tree of 3-15 nodes below an ideal head
    coupling, some segments ideal too, lines pointing away from the slack,
    and maybe a closed tie. With ``open_tie`` there is always a tie, open,
    and one of its ends may be tied to the slack: ``n0``, behind the ideal
    head, or a node behind ideal segments only.

    Loads (at most 0.06 + 0.03j per channel) sag the deepest tree the
    strategy can draw, a 14-segment single-phase chain, by about 0.26 p.u.,
    well short of collapse; volt-var droops are shallow (slope at most 0.5)
    so the sweep oracle's fixed point settles.
    """
    phases = {"n0": ("a", "b", "c")}
    lines = [LineSpec("source", "n0", "abc", [[0j] * 3] * 3, name="head")]
    for k in range(1, draw(st.integers(3, 15))):
        parent = draw(st.sampled_from(sorted(phases)))
        name, cfg = draw(st.sampled_from(
            [(n, c) for n, c in CONFIGS if set(c.phases) <= set(phases[parent])]))
        z = cfg.z_pu(draw(small(50.0, 2000.0)), BASE.z_base_ohm)
        if draw(st.integers(0, 5)) == 0:
            z = 0.0 * z  # an ideal coupling, as for a regulator placeholder
        phases[f"n{k}"] = cfg.phases
        lines.append(LineSpec(parent, f"n{k}", cfg.phases, z.tolist(), name=f"l{k}"))

    nodes = sorted(phases)
    if open_tie:
        a, b = draw(st.sampled_from([(a, b) for a in nodes for b in nodes
                                     if a < b and tie_configs(phases[a], phases[b])]))
        cfg = draw(st.sampled_from(tie_configs(phases[a], phases[b])))
        z = cfg.z_pu(draw(small(50.0, 2000.0)), BASE.z_base_ohm)
        lines.append(LineSpec(a, b, cfg.phases, z.tolist(), name="tie", is_switch=True,
                              closed=False))
    elif draw(st.booleans()):
        a, b = draw(st.lists(st.sampled_from(nodes[1:]), min_size=2, max_size=2, unique=True))
        ties = tie_configs(phases[a], phases[b])
        if ties:
            cfg = draw(st.sampled_from(ties))
            z = cfg.z_pu(draw(small(50.0, 2000.0)), BASE.z_base_ohm)
            lines.append(LineSpec(a, b, cfg.phases, z.tolist(), name="tie", is_switch=True))

    channels = [(n, p) for n in nodes for p in phases[n]]
    loads = []
    for node, phase in channels:
        if draw(st.booleans()):
            beta_z = draw(small(0.0, 1.0))
            loads.append(LoadSpec(node, phase, complex(draw(small(0.0, 0.06)),
                                                       draw(small(-0.01, 0.03))),
                                  beta_s=1.0 - beta_z, beta_z=beta_z,
                                  cap=draw(st.sampled_from([0.0, 0.0, 0.01, 0.02]))))
    vvc = []
    for node, phase in draw(st.lists(st.sampled_from(channels), max_size=3, unique=True)):
        v_min = draw(small(0.94, 1.0))
        vvc.append(VvcSpec(node, phase, q_min=-draw(small(0.0, 0.01)),
                           q_max=draw(small(0.001, 0.01)), v_min=v_min,
                           v_max=v_min + draw(small(0.04, 0.1))))
    ders = draw(st.lists(st.sampled_from(channels), max_size=3, unique=True))
    dispatch = {ch: complex(draw(small(-0.02, 0.02)), draw(small(-0.02, 0.02)))
                for ch in draw(st.lists(st.sampled_from(channels), max_size=3, unique=True))}
    net = Network(nodes=(NodeSpec("source", "abc"),)
                  + tuple(NodeSpec(n, phases[n]) for n in nodes),
                  lines=tuple(lines), loads=tuple(loads),
                  der_units=tuple(DerSpec(n, p, 0.05) for n, p in ders),
                  vvc_units=tuple(vvc), line_configs=BASE.line_configs)
    # dispatch anywhere off the slack, not only on DER channels; a channel
    # tied to the slack has no balance row to take a draw, and both solvers
    # reject it
    return (net, {ch: w for ch, w in dispatch.items() if off_the_slack(net, ch)},
            lines[-1].name != "tie" or open_tie)


def off_the_slack(net, ch):
    """Whether channel ``ch`` is in a class the slack does not pin."""
    cf = net.compiled
    return cf.free_pos[cf.channel_class[cf.channel_pos[ch]]] >= 0


def with_dispatch_as_loads(net, dispatch):
    """The network with each dispatch as a constant-power load, for the sweep."""
    extra = tuple(LoadSpec(n, p, w) for (n, p), w in dispatch.items())
    return replace(net, loads=net.loads + extra)


@BATTERY
@given(feeders())
def test_exact_solution_passes_the_oracles(case):
    net, dispatch, radial = case
    sol = solve_exact(net, dispatch=dispatch)
    assert kcl_residual(net, sol) < 1e-9
    if radial:
        ref = sweep_reference(with_dispatch_as_loads(net, dispatch))
        assert max(abs(ref[ch] - sol.V[ch]) for ch in net.channels) <= 1e-9


@BATTERY
@given(feeders())
def test_batch_rows_equal_single_solves(case):
    net, dispatch, _ = case
    cf = net.compiled
    loads = cf.load_arrays(net.loads, dispatch)
    scales = (0.5, 1.0, 1.5)
    out = newton_batch(cf, replace(loads, demand=np.array([loads.demand * k for k in scales])))
    for row, k in enumerate(scales):
        scaled = replace(net, loads=tuple(replace(ld, demand=ld.demand * k) for ld in net.loads))
        sol = solve_exact(scaled, dispatch=dispatch)
        assert out.error[row] is None
        assert (out.steps[row], out.residual[row]) == (sol.iterations, sol.residual_norm)
        assert all(sol.V[ch] == out.v[row, c] for ch, c in zip(cf.channels, cf.channel_class))


@BATTERY
@given(feeders(), st.integers(0, 2**32 - 1))
def test_jacobian_matches_central_difference(case, seed):
    net, dispatch, _ = case
    cf = net.compiled
    loads = cf.load_arrays(net.loads, dispatch).batch()
    inj = np.array(cf.class_loads(loads))
    zb = cf.zbus(loads.channel)
    flat = cf.v_flat[zb.cls]
    if not len(flat):
        return  # nothing draws power: the Newton system is empty
    rng = np.random.default_rng(seed)
    x = (np.abs(flat) * (1.0 + rng.uniform(-0.05, 0.05, len(flat)))
         * np.exp(1j * (np.angle(flat) + rng.uniform(-0.05, 0.05, len(flat)))))[None]
    analytic = jacobian(cf, zb, inj, x)[0]
    h, cols = 1e-6, []
    for step in (h, 1j * h):
        for k in range(len(flat)):
            up, dn = x.copy(), x.copy()
            up[0, k] += step
            dn[0, k] -= step
            df = (evaluate(cf, zb, inj, up)[2] - evaluate(cf, zb, inj, dn)[2])[0] / (2 * h)
            cols.append(np.concatenate([df.real, df.imag]))
    numeric = np.array(cols).T
    assert np.max(np.abs(analytic - numeric)) <= 1e-6 * np.max(np.abs(analytic))


def volt_var_term(net, exact, approx):
    """Per (line, phase): the exact-minus-linear volt-var draw below the
    line's receiving end, for a radial net oriented away from the slack."""
    children, units_at = {}, {}
    for ln in net.lines:
        children.setdefault(ln.from_node, []).append(ln)
    for u in net.vvc_units:
        ch = (u.node, u.phase)
        units_at.setdefault(u.node, []).append((u.phase, 1j * (exact.vvc_q[ch] - approx.vvc_q[ch])))
    out = {}

    def below(node):
        tot = dict.fromkeys("abc", 0j)
        for phase, term in units_at.get(node, ()):
            tot[phase] += term
        for ln in children.get(node, ()):
            sub = below(ln.to_node)
            for p in ln.phases:
                out[(ln.name, p)] = sub[p]
                tot[p] += sub[p]
        return tot

    below(net.slack_id)
    return out


@BATTERY
@given(feeders())
def test_linear_solution_passes_the_oracles(case):
    net, dispatch, radial = case
    cf = net.compiled
    exact = solve_exact(net, dispatch=dispatch)
    assert angle_residual(net, exact) <= 1e-8
    x, _ = linear_response(cf, cf.load_arrays(net.loads, dispatch).batch())
    assert np.max(np.abs(x[0] - spla.spsolve(*linear_system(net, dispatch)))) <= 1e-12
    if radial:
        # Lossless and first order in E: per line, flow error = exact losses
        # below it + the beta_Z term + the volt-var term (criterion 1's identity).
        approx = solve_linear(net, dispatch=dispatch)
        vvc = volt_var_term(net, exact, approx)
        split = flow_error_split(net, exact, approx)
        assert max(abs(e - loss - bz - vvc[(name, p)])
                   for name, p, e, loss, bz in split) <= 1e-9


@BATTERY
@given(feeders(), st.data())
def test_dispatch_passes_kkt(case, data):
    net, _, _ = case
    free = [ch for ch in net.channels if off_the_slack(net, ch)]
    if not free:
        return  # every channel is tied to the slack: nothing to dispatch
    ders = data.draw(st.lists(st.sampled_from(free), min_size=1, max_size=4, unique=True))
    net = replace(net, der_units=tuple(DerSpec(n, p, 0.02) for n, p in ders))
    far = max(net.node_map, key=lambda n: int(n[1:]) if n.startswith("n") else -1)
    wide = build_opf(net, [("n0", far)], {"magnitude": 1000.0, "angle": 1000.0, "effort": 1.0},
                     e_min=0.5, e_max=1.5)
    disp = solve_opf(wide)
    assert kkt_check(wide, disp).passed
    # Halfway between the undispatched and the dispatched E extremes: half
    # the wide box's dispatch is feasible, the dispatch itself is not.
    c = np.array([w.real for w in disp.w.values()] + [w.imag for w in disp.w.values()])
    e0, e = wide.model.e0, wide.model.e0 + wide.model.b_e @ c
    prob = replace(wide, e_min=(e0.min() + e.min()) / 2, e_max=(e0.max() + e.max()) / 2)
    try:
        got = solve_opf(prob, max_iter=2000)
    except DispatchConvergenceError:
        return  # a binding box can stall the splitting; the audit needs a dispatch
    assert kkt_check(prob, got).passed


@BATTERY
@given(feeders(open_tie=True))
def test_closing_the_tie_matches_a_network_built_closed(case):
    net, dispatch, _ = case
    closed = net.close_switch("tie")  # Z from the open network's, by the tie's rank
    built = replace(net, lines=tuple(replace(ln, closed=True) for ln in net.lines))
    z, want = closed.compiled.z, built.compiled.z
    assert np.max(np.abs(z - want), initial=0.0) <= 1e-12 * np.max(np.abs(want), initial=0.0)
    got, ref = solve_exact(closed, dispatch=dispatch), solve_exact(built, dispatch=dispatch)
    assert max(abs(got.V[ch] - ref.V[ch]) for ch in net.channels) <= 1e-10
    got, ref = solve_linear(closed, dispatch=dispatch), solve_linear(built, dispatch=dispatch)
    assert max(max(abs(got.E[ch] - ref.E[ch]), abs(got.theta[ch] - ref.theta[ch]))
               for ch in net.channels) <= 1e-12
    assert max(np.max(np.abs(got.P[n] - ref.P[n]) + np.abs(got.Q[n] - ref.Q[n]))
               for n in got.P) <= 1e-12


@BATTERY
@given(st.one_of(feeders(), feeders(open_tie=True)))
def test_labelling_matches_a_walk_over_the_ideal_lines(case):
    net, _, _ = case
    # Components of the channels under closed ideal lines, each named by
    # its first channel in declaration order.
    adj = {ch: [] for ch in net.channels}
    for ln in net.lines:
        if ln.closed and ln.is_ideal:
            for p in ln.phases:
                adj[(ln.from_node, p)].append((ln.to_node, p))
                adj[(ln.to_node, p)].append((ln.from_node, p))
    group = {}
    for ch in net.channels:
        if ch not in group:
            group[ch], stack = ch, [ch]
            while stack:
                for other in adj[stack.pop()]:
                    if other not in group:
                        group[other] = ch
                        stack.append(other)
    cf = net.compiled
    cls = dict(zip(net.channels, cf.channel_class.tolist()))
    assert all((cls[a] == cls[b]) == (group[a] == group[b])
               for a in net.channels for b in net.channels)
    pinned = {group[(net.slack_id, p)] for p in "abc"}
    assert all((cf.free_pos[cls[ch]] < 0) == (group[ch] in pinned) for ch in net.channels)
    # classes are numbered in the order of their first channel
    assert list(dict.fromkeys(cls.values())) == list(range(cf.n_cls))


@BATTERY
@given(st.one_of(feeders(), feeders(open_tie=True)))
def test_z_inverts_y_ff(case):
    # radial, closed-tie and open-tie feeders; below the ideal head each
    # subtree of n0 is a component of its own, and with an open tie the
    # network built closed is checked too
    net, _, _ = case
    assert_z_inverts_y_ff(net)
    if net.open_switches:
        assert_z_inverts_y_ff(replace(net, lines=tuple(replace(ln, closed=True)
                                                        for ln in net.lines)))


@BATTERY
@given(st.one_of(feeders(), feeders(open_tie=True)), st.data())
def test_reader_round_trip(case, data):
    net, _, _ = case
    # demand-free loads anywhere: one with nothing, one with a capacitor only
    loads = list(net.loads)
    for cap in (0.0, 0.01):
        node, phase = data.draw(st.sampled_from(net.channels))
        loads.insert(data.draw(st.integers(0, len(loads))), LoadSpec(node, phase, 0j, cap=cap))
    net = replace(net, loads=tuple(loads))
    assert network_from_dict(network_to_dict(net)) == net
