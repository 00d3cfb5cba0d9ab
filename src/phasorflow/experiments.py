"""Model-accuracy studies and switch-closure scenario runs.

Two workloads live here: a seeded Monte Carlo sweep that compares the exact
and linearized solvers over a grid of random loading levels, and a scenario
engine that dispatches controllable resources to close tie switches between
feeders, reporting terminal phasors and post-closure flows.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping

import numpy as np

from .exact import PhasorSolution, exact_state, newton_batch, solve_exact, switch_flow_estimate
from .feeders import (_entries, _num, apply_modifications, merge_with_switch, network_from_dict,
                      relabel_nodes)
# solve_linear stays importable from here: perfbench/spans.py wraps it by name.
from .linear import LinearSolution, linear_response, linear_state, solve_linear
from .model import DerSpec, LoadArrays, Network, NetworkError, VvcSpec, wrap_angle
from .opf import Dispatch, build_opf, solve_opf

Channel = tuple[str, str]

MC_BETA_S = 0.85
MC_BETA_Z = 0.15


def error_metrics(exact: PhasorSolution,
                  approx: LinearSolution) -> tuple[float, float, float]:
    """Worst-case deviations of the linear solution from the exact one.

    Returns (magnitude error in p.u., angle error in degrees, complex flow
    error in p.u.), each maximized over all channels or line phases.
    """
    if exact.V.keys() != approx.E.keys():
        raise ValueError("solutions cover different channels")
    if exact.S_line.keys() != approx.P.keys():
        raise ValueError("solutions cover different lines")
    names = list(exact.S_line)
    eps = _errors(
        np.array(list(exact.V.values())),
        np.array([approx.E[ch] for ch in exact.V]),
        np.array([approx.theta[ch] for ch in exact.V]),
        np.concatenate([exact.S_line[name] for name in names] or [np.zeros(0)]),
        np.concatenate([approx.P[name] + 1j * approx.Q[name] for name in names]
                       or [np.zeros(0)]),
    )
    return tuple(float(x) for x in eps)


def _errors(v, e, theta, s_exact, s_lin) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``error_metrics`` over the last axis: channel phasors ``v`` against
    linear ``e``/``theta``, exact flows ``s_exact`` against ``s_lin``."""
    eps_mag = np.max(np.abs(np.abs(v) - np.sqrt(e)), axis=-1, initial=0.0)
    gap = wrap_angle(np.angle(v) - theta)
    eps_angle = np.max(np.abs(np.degrees(gap)), axis=-1, initial=0.0)
    eps_power = np.max(np.abs(s_exact - s_lin), axis=-1, initial=0.0)
    return eps_mag, eps_angle, eps_power


@dataclass(frozen=True)
class ErrorRecord:
    """One Monte Carlo draw: sampled bounds, errors, and loading level.

    ``dr``/``di`` are the cell's upper bounds for the uniform real/reactive
    demand draws. Error fields are NaN when the exact solver did not
    converge (``converged`` False); such records are excluded from
    envelopes but kept for accounting.
    """

    dr: float
    di: float
    scenario_index: int
    eps_mag: float
    eps_angle: float
    eps_power: float
    substation_power: float
    converged: bool = True


def _substation_power(net: Network, s_line: np.ndarray) -> np.ndarray:
    """Summed |S| of every line at the slack, per row of flat line powers."""
    cf = net.compiled
    pos = dict(zip(cf.line_names, cf.line_slices))
    total = np.zeros(s_line.shape[:-1])
    for ln in net.lines:
        if ln.closed and net.slack_id in (ln.from_node, ln.to_node):
            total += np.sum(np.abs(s_line[..., pos[ln.name]]), axis=-1)
    return total


def _mc_demand(rng: np.random.Generator, per_cell: int, n: int, dr: float,
               di: float) -> np.ndarray:
    """``per_cell`` rows of ``n`` demands, real parts uniform on [0, dr) and
    reactive parts on [0, di), in one call: per row, n real then n reactive
    doubles, the stream and values of ``rng.uniform(0, dr, n)`` then
    ``rng.uniform(0, di, n)`` per row."""
    u = rng.random((per_cell, 2, n))
    return dr * u[:, 0] + 1j * (di * u[:, 1])


def _mc_cell(payload) -> list[ErrorRecord]:
    net, channels, dr, di, i, j, per_cell, seed = payload
    rng = np.random.default_rng(np.random.SeedSequence([seed, i, j]))
    n = len(channels)
    demand = _mc_demand(rng, per_cell, n, dr, di)
    loads = LoadArrays(channels, demand, np.full(n, MC_BETA_S), np.full(n, MC_BETA_Z),
                       np.zeros(n, dtype=complex))
    return _mc_records(net, loads, dr, di)


def _mc_records(net: Network, loads: LoadArrays, dr: float, di: float) -> list[ErrorRecord]:
    """One record per draw (row of ``loads.demand``) on the stripped feeder ``net``.

    Both solvers run on the whole batch, and the errors and substation
    power come from their arrays, in the same order of operations as
    ``error_metrics`` and the public solvers on one draw.
    """
    cf = net.compiled
    newton = newton_batch(cf, loads)
    ok = np.array([e is None for e in newton.error], dtype=bool)
    eps = np.full((4, len(ok)), np.nan)
    if ok.any():
        kept = LoadArrays(loads.channel, loads.demand[ok], loads.beta_s, loads.beta_z,
                          loads.fixed)
        exact = exact_state(cf, kept, newton.v[ok])
        approx = linear_state(cf, kept, linear_response(cf, kept)[0])
        eps[:3, ok] = _errors(exact.V, approx.E, approx.theta, exact.S_line,
                              approx.P + 1j * approx.Q)
        eps[3, ok] = _substation_power(net, exact.S_line)
    return [ErrorRecord(dr, di, s_idx, *(float(x) for x in eps[:, s_idx]),
                        converged=bool(ok[s_idx]))
            for s_idx in range(len(ok))]


def monte_carlo(net_base: Network, grid, scenarios_per_cell: int = 100,
                seed: int = 0, workers: int | None = None) -> list[ErrorRecord]:
    """Sweep random loading levels and collect linear-model error records.

    ``grid`` is either one sequence of bounds used for both the real and
    reactive axes or a (real_bounds, reactive_bounds) pair. Every spot-load
    channel of ``net_base`` receives an independent uniform draw per
    scenario; capacitors, controllable resources, and volt-var units are
    removed so the zero-bound cell is exactly load-free. The stripped
    feeder is compiled once, and each grid cell's draws are solved as one
    batch by the same kernels that ``solve_exact`` and ``solve_linear`` run
    on a batch of one, so a record equals the public solvers' result on
    that draw's network. Each grid cell draws from its own named
    substream, so results do not depend on ``workers``.
    """
    if len(grid) == 2 and isinstance(grid[0], (list, tuple, np.ndarray)):
        re_axis, im_axis = [float(v) for v in grid[0]], [float(v) for v in grid[1]]
    else:
        re_axis = im_axis = [float(v) for v in grid]

    stripped = replace(net_base, loads=(), der_units=(), vvc_units=())
    cf = stripped.compiled
    channels = np.array(list(dict.fromkeys(
        cf.channel_pos[(ld.node, ld.phase)] for ld in net_base.loads if ld.demand != 0)),
        dtype=int)

    payloads = [
        (stripped, channels, dr, di, i, j, scenarios_per_cell, seed)
        for i, dr in enumerate(re_axis)
        for j, di in enumerate(im_axis)
    ]
    if workers and workers > 1:
        # imported here: it loads multiprocessing, which no serial command needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(_mc_cell, payloads, chunksize=4))
    else:
        chunks = [_mc_cell(p) for p in payloads]
    return [rec for chunk in chunks for rec in chunk]


def load_scenario(path: str | Path) -> dict:
    """Read a dual-feeder scenario file; relative references resolve later
    against the file's own directory (stored under the "_dir" key)."""
    path = Path(path)
    spec = json.loads(path.read_text())
    spec["_dir"] = str(path.parent)
    return spec


def _resolve(ref, base_dir: Path | None, kind: str):
    if isinstance(ref, str):
        if base_dir is None:
            raise ValueError(f"{kind} reference {ref!r} needs a base directory")
        return json.loads((base_dir / ref).read_text())
    return ref


def build_scenario_network(spec: Mapping, base_dir: str | Path | None = None) -> Network:
    """Assemble the merged multi-feeder network a scenario file describes.

    Applies shared modifications to the base feeder, builds each prefixed
    feeder copy, joins the two on the first tie switch, adds any further
    switches, then attaches controllable resources and volt-var units on
    all phases of their nodes.
    """
    if base_dir is None and "_dir" in spec:
        base_dir = spec["_dir"]
    base_dir = Path(base_dir) if base_dir is not None else None

    base_data = _resolve(spec["base_feeder"], base_dir, "base feeder")
    base = network_from_dict(base_data)
    shared = _resolve(spec.get("shared_mods", []), base_dir, "shared mods")
    if isinstance(shared, Mapping):
        shared = shared["mods"]
    base = apply_modifications(base, shared)

    feeders = spec["feeders"]
    if len(feeders) != 2:
        raise ValueError("scenario needs exactly two feeders")
    built = []
    for feeder in feeders:
        if not isinstance(feeder, Mapping) or not isinstance(feeder.get("prefix"), str):
            raise NetworkError(
                f"scenario feeder {feeder!r} is not an object with a string 'prefix'")
        net = apply_modifications(base, feeder.get("mods", []))
        net = relabel_nodes(net, feeder["prefix"], keep=(base.slack_id,))
        built.append(net)

    switches = _nonempty(spec, "switches")
    merged = merge_with_switch(built[0], built[1], switches[0])
    for sw in switches[1:]:
        merged = apply_modifications(merged, [dict(sw, op="add_switch")])

    der = []
    for entry in _entries(spec, "der"):
        cap = _num(entry["capacity"], f"der at {entry['node']}")
        for p in merged.node_map[entry["node"]].phases:
            der.append(DerSpec(entry["node"], p, cap))
    vvc = []
    for entry in _entries(spec, "vvc"):
        droop = [_num(entry[k], f"vvc at {entry['node']}")
                 for k in ("q_min", "q_max", "v_min", "v_max")]
        for p in merged.node_map[entry["node"]].phases:
            vvc.append(VvcSpec(entry["node"], p, *droop))
    return replace(merged, der_units=tuple(der), vvc_units=tuple(vvc))


@dataclass(frozen=True)
class CaseResult:
    """One control case at one switch: open-network phasors and closure flows.

    ``s_closed`` re-solves the closed topology with the dispatch held
    fixed; ``s_estimate`` is the would-be flow evaluated at the still-open
    phasors, a cheap proxy for the closing transient.
    """

    case: str
    weights: dict[str, float] | None
    w: dict[Channel, complex]
    objective: float | None
    v1: dict[str, complex]
    v2: dict[str, complex]
    mag_diff: dict[str, float]
    angle_diff_deg: dict[str, float]
    s_closed: dict[str, complex]
    s_estimate: dict[str, complex]


@dataclass(frozen=True)
class ScenarioReport:
    switch: str
    targets: tuple[str, str]
    cases: tuple[CaseResult, ...]

    def case(self, name: str) -> CaseResult:
        for c in self.cases:
            if c.case == name:
                return c
        raise KeyError(name)


def _nonempty(spec: Mapping, key: str) -> list:
    """A nonempty list of objects under ``key`` of a scenario document."""
    items = spec.get(key)
    if not isinstance(items, list) or not items or not all(isinstance(e, Mapping) for e in items):
        raise NetworkError(f"scenario {key!r} must be a nonempty list of objects")
    return items


def _actions(spec: Mapping) -> list[tuple[str, str, str]]:
    """The scenario's switching actions as (switch, target 1, target 2)."""
    out = []
    for action in _nonempty(spec, "actions"):
        switch, targets = action.get("switch"), action.get("targets")
        if not (isinstance(switch, str) and isinstance(targets, list) and len(targets) == 2
                and all(isinstance(t, str) for t in targets)):
            raise NetworkError(f"scenario action {action!r} needs a 'switch' name and "
                               "two 'targets' node names")
        out.append((switch, *targets))
    return out


def _cases(spec: Mapping) -> dict[str, dict[str, float] | None]:
    """The scenario's control cases: name -> OPF weights, or None for no control."""
    cases = spec.get("cases")
    if not isinstance(cases, Mapping):
        raise NetworkError("scenario 'cases' must be an object of name: weights or null")
    out = {}
    for name, weights in cases.items():
        if weights is not None and not isinstance(weights, Mapping):
            raise NetworkError(f"case {name!r}: weights must be an object or null")
        out[name] = None if weights is None else {
            k: _num(v, f"case {name!r} weight {k!r}") for k, v in weights.items()}
    return out


def _run_action(net: Network, closed: Network, action: tuple[str, str, str],
                spec: Mapping) -> ScenarioReport:
    """Every control case of one switching action (switch, target 1, target
    2): ``net`` with the switch open, ``closed`` the same network with it
    closed."""
    switch_name, k1, k2 = action
    bounds = _entries(spec, "voltage_bounds", dict)
    e_min = _num(bounds.get("e_min", 0.9025), "voltage_bounds.e_min")
    e_max = _num(bounds.get("e_max", 1.1025), "voltage_bounds.e_max")
    line = net.line_map[switch_name]
    phases = line.phases
    y = np.linalg.inv(line.z)

    results = []
    for case_name, weights in _cases(spec).items():
        if weights is None:
            w: dict[Channel, complex] = {}
            objective = None
        else:
            prob = build_opf(net, [(k1, k2)], weights, e_min=e_min, e_max=e_max)
            disp: Dispatch = solve_opf(prob)
            w = disp.w
            objective = disp.objective_value

        open_sol = solve_exact(net, dispatch=w)
        v1 = {p: open_sol.V[(k1, p)] for p in phases}
        v2 = {p: open_sol.V[(k2, p)] for p in phases}
        mag = {p: abs(v1[p]) - abs(v2[p]) for p in phases}
        ang = {p: math.degrees(wrap_angle(np.angle(v1[p]) - np.angle(v2[p])))
               for p in phases}
        vf = np.array([open_sol.V[(line.from_node, p)] for p in phases])
        vt = np.array([open_sol.V[(line.to_node, p)] for p in phases])
        est = switch_flow_estimate(vf, vt, y)

        closed_sol = solve_exact(closed, dispatch=w)
        s_closed = closed_sol.S_line[switch_name]

        results.append(CaseResult(
            case=case_name,
            weights=dict(weights) if weights else None,
            w=w,
            objective=objective,
            v1=v1,
            v2=v2,
            mag_diff=mag,
            angle_diff_deg=ang,
            s_closed={p: complex(s_closed[m]) for m, p in enumerate(phases)},
            s_estimate={p: complex(est[m]) for m, p in enumerate(phases)},
        ))
    return ScenarioReport(switch=switch_name, targets=(k1, k2),
                          cases=tuple(results))


def run_switch_scenario(spec: Mapping, base_dir: str | Path | None = None) -> ScenarioReport:
    """Evaluate every control case for the scenario's first switching action."""
    net = build_scenario_network(spec, base_dir)
    action = _actions(spec)[0]
    return _run_action(net, net.close_switch(action[0]), action, spec)


def run_sequential_switching(spec: Mapping,
                             base_dir: str | Path | None = None) -> list[ScenarioReport]:
    """Work through the scenario's switching actions in order.

    Each action is evaluated on the topology left by the previous closures,
    then its switch is closed for good, so later actions may run meshed.
    """
    net = build_scenario_network(spec, base_dir)
    reports = []
    for action in _actions(spec):
        closed = net.close_switch(action[0])
        reports.append(_run_action(net, closed, action, spec))
        net = closed
    return reports


def _cx(z: complex) -> list[float]:
    return [z.real, z.imag]


def report_to_dict(report: ScenarioReport) -> dict:
    """JSON-ready view of a scenario report; angles in degrees."""
    return {
        "switch": report.switch,
        "targets": list(report.targets),
        "cases": [
            {
                "case": c.case,
                "weights": c.weights,
                "dispatch": {f"{n}.{p}": _cx(wv) for (n, p), wv in sorted(c.w.items())},
                "objective": c.objective,
                "terminal_1": {p: _cx(v) for p, v in c.v1.items()},
                "terminal_2": {p: _cx(v) for p, v in c.v2.items()},
                "magnitude_difference": c.mag_diff,
                "angle_difference_deg": c.angle_diff_deg,
                "closed_flow": {p: _cx(s) for p, s in c.s_closed.items()},
                "closure_estimate": {p: _cx(s) for p, s in c.s_estimate.items()},
            }
            for c in report.cases
        ],
    }
