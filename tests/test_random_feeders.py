"""Random valid feeders against the exact solver's oracles.

Hypothesis builds small networks the shipped feeders never show: random
trees of 1-, 2- and 3-phase segments from the ieee13 line configs behind an
ideal head coupling, sometimes meshed by a closed tie, with mixed loads,
capacitors, volt-var units and DER dispatch. The examples are derandomized,
so the battery is the same on every run.
"""

from dataclasses import replace

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import DATA
from phasorflow import load_feeder
from phasorflow.exact import (_injections, evaluate, jacobian, kcl_residual, newton_batch,
                              solve_exact)
from phasorflow.model import DerSpec, LineSpec, LoadSpec, Network, NodeSpec, VvcSpec
from test_exact import sweep_reference

BASE = load_feeder(DATA / "ieee13.json")
CONFIGS = sorted(BASE.line_configs.items())

BATTERY = settings(derandomize=True, deadline=None, max_examples=30,
                   suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


def small(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False)


@st.composite
def feeders(draw):
    """(network, dispatch, radial): a tree of 3-15 nodes below an ideal head
    coupling, some segments ideal too, lines pointing away from the slack,
    and maybe a closed tie.

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
    if draw(st.booleans()):
        a, b = draw(st.lists(st.sampled_from(nodes[1:]), min_size=2, max_size=2, unique=True))
        shared = set(phases[a]) & set(phases[b])
        ties = [c for _, c in CONFIGS if set(c.phases) <= shared]
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
    # dispatch anywhere, not only on DER channels
    dispatch = {ch: complex(draw(small(-0.02, 0.02)), draw(small(-0.02, 0.02)))
                for ch in draw(st.lists(st.sampled_from(channels), max_size=3, unique=True))}
    net = Network(nodes=(NodeSpec("source", "abc"),)
                  + tuple(NodeSpec(n, phases[n]) for n in nodes),
                  lines=tuple(lines), loads=tuple(loads),
                  der_units=tuple(DerSpec(n, p, 0.05) for n, p in ders),
                  vvc_units=tuple(vvc), line_configs=BASE.line_configs)
    return net, dispatch, lines[-1].name != "tie"


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
    loads = cf.load_arrays(net.loads)
    scales = (0.5, 1.0, 1.5)
    out = newton_batch(cf, replace(loads, demand=np.array([loads.demand * k for k in scales])),
                       dispatch)
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
    loads = cf.load_arrays(net.loads).batch()
    inj = np.array(_injections(cf, loads, dispatch))
    zb = cf.zbus(np.concatenate([loads.channel,
                                 np.array([cf.channel_pos[ch] for ch in dispatch], dtype=int)]))
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
