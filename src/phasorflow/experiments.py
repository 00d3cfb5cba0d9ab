"""Model-accuracy studies and switch-closure scenario runs.

Two workloads live here: a seeded Monte Carlo sweep that compares the exact
and linearized solvers over a grid of random loading levels, and a scenario
engine that dispatches controllable resources to close tie switches between
feeders, reporting terminal phasors and post-closure flows.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .exact import (NonConvergenceError, PhasorSolution, solve_exact, solve_exact_compiled,
                    switch_flow_estimate)
from .feeders import apply_modifications, merge_with_switch, network_from_dict, relabel_nodes
# solve_linear stays importable from here: perfbench/spans.py wraps it by name.
from .linear import LinearSolution, solve_linear, solve_linear_compiled
from .model import DerSpec, LoadArrays, Network, VvcSpec, wrap_angle
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
    v = np.array(list(exact.V.values()))
    e = np.array([approx.E[ch] for ch in exact.V])
    theta = np.array([approx.theta[ch] for ch in exact.V])
    eps_mag = float(np.max(np.abs(np.abs(v) - np.sqrt(e)), initial=0.0))
    gap = wrap_angle(np.angle(v) - theta)
    eps_angle = float(np.max(np.abs(np.degrees(gap)), initial=0.0))
    names = list(exact.S_line)
    s_exact = np.concatenate([exact.S_line[name] for name in names] or [np.zeros(0)])
    s_lin = np.concatenate([approx.P[name] + 1j * approx.Q[name] for name in names]
                           or [np.zeros(0)])
    eps_power = float(np.max(np.abs(s_exact - s_lin), initial=0.0))
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


def _substation_power(net: Network, sol: PhasorSolution) -> float:
    total = 0.0
    for ln in net.lines:
        if ln.closed and net.slack_id in (ln.from_node, ln.to_node):
            total += float(np.sum(np.abs(sol.S_line[ln.name])))
    return total


def _mc_cell(payload) -> list[ErrorRecord]:
    net, channels, dr, di, i, j, per_cell, seed = payload
    cf = net.compiled
    rng = np.random.default_rng(np.random.SeedSequence([seed, i, j]))
    out = []
    n = len(channels)
    beta_s, beta_z, cap = np.full(n, MC_BETA_S), np.full(n, MC_BETA_Z), np.zeros(n)
    for s_idx in range(per_cell):
        re = rng.uniform(0.0, dr, n)
        im = rng.uniform(0.0, di, n)
        loads = LoadArrays(channels, re + 1j * im, beta_s, beta_z, cap)
        try:
            exact = solve_exact_compiled(cf, loads)
        except NonConvergenceError:
            out.append(ErrorRecord(dr, di, s_idx, float("nan"), float("nan"),
                                   float("nan"), float("nan"), converged=False))
            continue
        approx = solve_linear_compiled(cf, loads)
        eps_mag, eps_angle, eps_power = error_metrics(exact, approx)
        out.append(ErrorRecord(dr, di, s_idx, eps_mag, eps_angle, eps_power,
                               _substation_power(net, exact)))
    return out


def monte_carlo(net_base: Network, grid, scenarios_per_cell: int = 100,
                seed: int = 0, workers: int | None = None) -> list[ErrorRecord]:
    """Sweep random loading levels and collect linear-model error records.

    ``grid`` is either one sequence of bounds used for both the real and
    reactive axes or a (real_bounds, reactive_bounds) pair. Every spot-load
    channel of ``net_base`` receives an independent uniform draw per
    scenario; capacitors, controllable resources, and volt-var units are
    removed so the zero-bound cell is exactly load-free. The stripped
    feeder is compiled once; each draw only fills its load arrays and runs
    the same kernels as ``solve_exact`` and ``solve_linear``, so a record
    equals the public solvers' result on that draw's network. Each grid
    cell draws from its own named substream, so results do not depend on
    ``workers``.
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
        net = apply_modifications(base, feeder.get("mods", []))
        net = relabel_nodes(net, feeder["prefix"], keep=(base.slack_id,))
        built.append(net)

    switches = spec["switches"]
    merged = merge_with_switch(built[0], built[1], switches[0])
    for sw in switches[1:]:
        merged = apply_modifications(merged, [dict(sw, op="add_switch")])

    der = []
    for entry in spec.get("der", []):
        for p in merged.node_map[entry["node"]].phases:
            der.append(DerSpec(entry["node"], p, entry["capacity"]))
    vvc = []
    for entry in spec.get("vvc", []):
        for p in merged.node_map[entry["node"]].phases:
            vvc.append(VvcSpec(entry["node"], p, entry["q_min"], entry["q_max"],
                               entry["v_min"], entry["v_max"]))
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


def _run_action(net: Network, action: Mapping, spec: Mapping) -> ScenarioReport:
    switch_name = action["switch"]
    k1, k2 = action["targets"]
    bounds = spec.get("voltage_bounds", {})
    e_min = bounds.get("e_min", 0.9025)
    e_max = bounds.get("e_max", 1.1025)
    line = net.line_map[switch_name]
    phases = line.phases
    y = np.linalg.inv(line.z)

    results = []
    for case_name, weights in spec["cases"].items():
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

        closed_sol = solve_exact(net.close_switch(switch_name), dispatch=w)
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
    return _run_action(net, spec["actions"][0], spec)


def run_sequential_switching(spec: Mapping,
                             base_dir: str | Path | None = None) -> list[ScenarioReport]:
    """Work through the scenario's switching actions in order.

    Each action is evaluated on the topology left by the previous closures,
    then its switch is closed for good, so later actions may run meshed.
    """
    net = build_scenario_network(spec, base_dir)
    reports = []
    for action in spec["actions"]:
        reports.append(_run_action(net, action, spec))
        net = net.close_switch(action["switch"])
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
