"""Feeder document I/O and network modifications.

The on-disk format is JSON. Complex numbers are ``[re, im]`` pairs, line
lengths are feet, config impedances are ohms per mile, and loads are already
per-unit. Keys starting with ``comment`` are ignored everywhere, so documents
can carry provenance notes.
"""

from __future__ import annotations

import json
import math
from dataclasses import replace
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .model import (
    DEFAULT_SLACK_VOLTAGE,
    IDEAL_CONFIG,
    DerSpec,
    LineConfig,
    LineSpec,
    LoadSpec,
    Network,
    NetworkError,
    NodeSpec,
    VvcSpec,
    canonical_phases,
)


def _num(v: Any, context: str) -> float:
    """A finite real number from a document field."""
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise NetworkError(f"{context}: expected a finite number, got {v!r}")
    return float(v)


def _length(v: Any, context: str) -> float:
    length = _num(v, context)
    if length <= 0.0:
        raise NetworkError(f"{context}: length_ft must be positive, got {length!r}")
    return length


def _cx(v: Any, context: str) -> complex:
    if isinstance(v, (int, float)):
        return complex(_num(v, context))
    if isinstance(v, Sequence) and len(v) == 2:
        return complex(_num(v[0], context), _num(v[1], context))
    raise NetworkError(f"{context}: expected a number or [re, im] pair, got {v!r}")


def _phases(v: Any, context: str) -> tuple[str, ...]:
    if not isinstance(v, (str, list)) or not all(isinstance(p, str) for p in v):
        raise NetworkError(f"{context}: phases must be a string or a list of phase names, got {v!r}")
    return canonical_phases(v)


def _entries(doc: Mapping[str, Any], key: str, kind: type = list) -> Any:
    """A top-level list (or mapping) section of a document; absent means empty."""
    section = doc.get(key, kind())
    if not isinstance(section, kind):
        raise NetworkError(f"{key!r} must be {'a list' if kind is list else 'an object'}")
    if kind is list and not all(isinstance(e, Mapping) for e in section):
        raise NetworkError(f"every entry of {key!r} must be an object")
    return section


def _cx_matrix(rows: Any, context: str) -> list[list[complex]]:
    if not isinstance(rows, Sequence):
        raise NetworkError(f"{context}: expected a matrix")
    return [[_cx(v, context) for v in row] for row in rows]


def _cx_out(v: complex) -> list[float]:
    return [float(v.real), float(v.imag)]


def _strip_comments(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _strip_comments(v) for k, v in obj.items() if not k.startswith("comment")}
    if isinstance(obj, list):
        return [_strip_comments(v) for v in obj]
    return obj


def network_from_dict(doc: Mapping[str, Any]) -> Network:
    """Build a network from a parsed feeder document.

    Raises ``NetworkError`` on a malformed document: a section of the wrong
    type, a non-finite number, or a non-positive line length.
    """
    if not isinstance(doc, Mapping):
        raise NetworkError("a feeder document must be a JSON object")
    doc = _strip_comments(dict(doc))

    bases = _entries(doc, "bases", dict)
    s_base = _num(bases.get("s_base_va", 1.0e6), "s_base_va")
    v_base = _num(bases.get("v_base_v", 4160.0), "v_base_v")
    if s_base <= 0.0 or v_base <= 0.0:
        raise NetworkError("bases must be positive")
    z_base = v_base**2 / s_base

    slack = _entries(doc, "slack", dict)
    slack_id = slack.get("node", "source")
    if "voltage" in slack:
        sv = tuple(_cx(v, "slack voltage") for v in slack["voltage"])
    else:
        sv = DEFAULT_SLACK_VOLTAGE

    nodes = tuple(
        NodeSpec(id=str(n["id"]), phases=_phases(n["phases"], f"node {n['id']}"))
        for n in _entries(doc, "nodes")
    )

    configs: dict[str, LineConfig] = {}
    for name, cfg in _entries(doc, "line_configs", dict).items():
        if name == IDEAL_CONFIG:
            raise NetworkError(f"config name {IDEAL_CONFIG!r} is reserved")
        phases = _phases(cfg["phases"], f"config {name}")
        configs[name] = LineConfig(
            phases=phases, z_ohm_per_mile=_cx_matrix(cfg["z_ohm_per_mile"], f"config {name}")
        )

    lines = []
    for entry in _entries(doc, "lines"):
        frm, to = str(entry["from"]), str(entry["to"])
        name = str(entry.get("name", f"{frm}-{to}"))
        is_switch = bool(entry.get("is_switch", False))
        closed = bool(entry.get("closed", True))
        if "z_pu" in entry:
            phases = _phases(entry["phases"], f"line {name}")
            z_pu = _cx_matrix(entry["z_pu"], f"line {name}")
        else:
            cfg_name = entry["config"]
            if cfg_name == IDEAL_CONFIG:
                phases = _phases(entry["phases"], f"line {name}")
                z_pu = [[0.0j] * len(phases) for _ in phases]
            else:
                if cfg_name not in configs:
                    raise NetworkError(f"line {name}: unknown config {cfg_name!r}")
                cfg = configs[cfg_name]
                phases = cfg.phases
                z_pu = cfg.z_pu(_length(entry["length_ft"], f"line {name}"), z_base).tolist()
        lines.append(
            LineSpec(
                from_node=frm,
                to_node=to,
                phases=phases,
                z_pu=z_pu,
                name=name,
                is_switch=is_switch,
                closed=closed,
            )
        )

    loads = []
    for entry in _entries(doc, "loads"):
        where = f"load at {entry.get('node')}.{entry.get('phase')}"
        loads.append(
            LoadSpec(
                node=str(entry["node"]),
                phase=str(entry["phase"]),
                demand=complex(_num(entry["re"], where), _num(entry["im"], where)),
                beta_s=_num(entry.get("beta_S", 1.0), where),
                beta_z=_num(entry.get("beta_Z", 0.0), where),
                cap=0.0,
            )
        )
    # Capacitor banks merge into the co-located load channel when one exists.
    for entry in _entries(doc, "caps"):
        node, phase = str(entry["node"]), str(entry["phase"])
        q = _num(entry["q_pu"], f"cap at {node}.{phase}")
        for i, ld in enumerate(loads):
            if ld.node == node and ld.phase == phase:
                loads[i] = replace(ld, cap=ld.cap + q)
                break
        else:
            loads.append(LoadSpec(node=node, phase=phase, demand=0j, cap=q))

    der = tuple(
        DerSpec(node=str(e["node"]), phase=str(e["phase"]),
                capacity=_num(e["capacity"], f"der at {e['node']}"))
        for e in _entries(doc, "der")
    )
    vvc = tuple(
        VvcSpec(
            node=str(e["node"]),
            phase=str(e["phase"]),
            **{k: _num(e[k], f"vvc at {e['node']}") for k in ("q_min", "q_max", "v_min", "v_max")},
        )
        for e in _entries(doc, "vvc")
    )

    return Network(
        nodes=nodes,
        lines=tuple(lines),
        loads=tuple(loads),
        der_units=der,
        vvc_units=vvc,
        slack_id=slack_id,
        slack_voltage=sv,
        s_base_va=s_base,
        v_base_v=v_base,
        line_configs=configs,
        name=str(doc.get("name", "")),
    )


def network_to_dict(net: Network) -> dict[str, Any]:
    """Serialize a network to a feeder document (inline per-unit impedances)."""
    doc: dict[str, Any] = {
        "name": net.name,
        "bases": {"s_base_va": net.s_base_va, "v_base_v": net.v_base_v},
        "slack": {"node": net.slack_id, "voltage": [_cx_out(v) for v in net.slack_voltage]},
        "nodes": [{"id": n.id, "phases": list(n.phases)} for n in net.nodes],
        "line_configs": {
            name: {
                "phases": list(cfg.phases),
                "z_ohm_per_mile": [[_cx_out(v) for v in row] for row in cfg.z_ohm_per_mile],
            }
            for name, cfg in sorted(net.line_configs.items())
        },
        "lines": [
            {
                "name": ln.name,
                "from": ln.from_node,
                "to": ln.to_node,
                "phases": list(ln.phases),
                "z_pu": [[_cx_out(v) for v in row] for row in ln.z_pu],
                "is_switch": ln.is_switch,
                "closed": ln.closed,
            }
            for ln in net.lines
        ],
        "loads": [
            {
                "node": ld.node,
                "phase": ld.phase,
                "re": ld.demand.real,
                "im": ld.demand.imag,
                "beta_S": ld.beta_s,
                "beta_Z": ld.beta_z,
            }
            for ld in net.loads
            if ld.demand != 0
        ],
        "caps": [
            {"node": ld.node, "phase": ld.phase, "q_pu": ld.cap} for ld in net.loads if ld.cap != 0.0
        ],
        "der": [
            {"node": d.node, "phase": d.phase, "capacity": d.capacity} for d in net.der_units
        ],
        "vvc": [
            {
                "node": u.node,
                "phase": u.phase,
                "q_min": u.q_min,
                "q_max": u.q_max,
                "v_min": u.v_min,
                "v_max": u.v_max,
            }
            for u in net.vvc_units
        ],
    }
    return doc


def load_feeder(path: str | Path) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        return network_from_dict(json.load(fh))


def dump_feeder(net: Network, path: str | Path) -> None:
    tmp = Path(path).with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(network_to_dict(net), fh, indent=1)
        fh.write("\n")
    tmp.replace(path)


# ----------------------------------------------------------------------
# Modifications
# ----------------------------------------------------------------------


def apply_modifications(net: Network, mods: Sequence[Mapping[str, Any]]) -> Network:
    """Apply a modification script in order and return the resulting network.

    Supported operations:

    - ``{"op": "remove_regulator", "line": name}``: the named line must be an
      ideal placeholder; it is removed and its downstream node is renamed to
      its upstream node, splicing the graph.
    - ``{"op": "replace_with_line", "line": name, "config": cfg,
      "length_ft": L}``: swap a line's impedance for a config instance,
      keeping endpoints. Clears switch flags.
    - ``{"op": "add_spot_load", "node": n, "phase": p, "demand": [re, im],
      "beta_s": .., "beta_z": ..}``: append one load channel.
    - ``{"op": "scale_loads", "factor": f, "include_caps": bool}``: multiply
      all demands (and optionally capacitor injections) by ``f``.
    - ``{"op": "add_switch", "from": n1, "to": n2, "config": cfg,
      "length_ft": L, "closed": bool, "name": ...}``: add a switch line.
    """
    for mod in mods:
        mod = _strip_comments(dict(mod))
        op = mod.get("op")
        if op == "remove_regulator":
            net = _remove_regulator(net, str(mod["line"]))
        elif op == "replace_with_line":
            net = _replace_with_line(net, str(mod["line"]), str(mod["config"]),
                                     _length(mod["length_ft"], "replace_with_line"))
        elif op == "add_spot_load":
            load = LoadSpec(
                node=str(mod["node"]),
                phase=str(mod["phase"]),
                demand=_cx(mod["demand"], "add_spot_load"),
                beta_s=_num(mod.get("beta_s", 1.0), "add_spot_load"),
                beta_z=_num(mod.get("beta_z", 0.0), "add_spot_load"),
            )
            net = replace(net, loads=net.loads + (load,))
        elif op == "scale_loads":
            net = scale_loads(net, _num(mod["factor"], "scale_loads"),
                              include_caps=bool(mod.get("include_caps", False)))
        elif op == "add_switch":
            net = _add_switch(net, mod)
        else:
            raise NetworkError(f"unknown modification op {op!r}")
    return net


def _remove_regulator(net: Network, line_name: str) -> Network:
    """Drop an ideal placeholder line and splice its endpoints into one node."""
    ln = net.line_map.get(line_name)
    if ln is None:
        raise NetworkError(f"remove_regulator: unknown line {line_name!r}")
    if not ln.is_ideal:
        raise NetworkError(f"remove_regulator: line {line_name!r} is not an ideal placeholder")
    keep, drop = ln.from_node, ln.to_node
    if drop == net.slack_id:
        keep, drop = drop, keep

    merged_phases = canonical_phases(
        set(net.node_map[keep].phases) | set(net.node_map[drop].phases)
    )
    nodes = tuple(
        NodeSpec(keep, merged_phases) if n.id == keep else n
        for n in net.nodes
        if n.id != drop
    )

    def swap(x: str) -> str:
        return keep if x == drop else x

    lines = tuple(
        replace(l, from_node=swap(l.from_node), to_node=swap(l.to_node))
        for l in net.lines
        if l.name != line_name
    )
    loads = tuple(replace(l, node=swap(l.node)) for l in net.loads)
    der = tuple(replace(d, node=swap(d.node)) for d in net.der_units)
    vvc = tuple(replace(u, node=swap(u.node)) for u in net.vvc_units)
    return replace(net, nodes=nodes, lines=lines, loads=loads, der_units=der, vvc_units=vvc)


def _replace_with_line(net: Network, line_name: str, config: str, length_ft: float) -> Network:
    ln = net.line_map.get(line_name)
    if ln is None:
        raise NetworkError(f"replace_with_line: unknown line {line_name!r}")
    if config not in net.line_configs:
        raise NetworkError(f"replace_with_line: unknown config {config!r}")
    cfg = net.line_configs[config]
    end_ok = set(net.node_map[ln.from_node].phases) & set(net.node_map[ln.to_node].phases)
    phases = canonical_phases(set(cfg.phases) & end_ok)
    z = cfg.z_pu(length_ft, net.z_base_ohm)
    if phases != cfg.phases:
        idx = [cfg.phases.index(p) for p in phases]
        z = z[np.ix_(idx, idx)]
    new_line = LineSpec(
        from_node=ln.from_node,
        to_node=ln.to_node,
        phases=phases,
        z_pu=z.tolist(),
        name=ln.name,
        is_switch=False,
        closed=True,
    )
    lines = tuple(new_line if l.name == line_name else l for l in net.lines)
    return replace(net, lines=lines)


def _add_switch(net: Network, mod: Mapping[str, Any]) -> Network:
    frm, to = str(mod["from"]), str(mod["to"])
    cfg_name = str(mod["config"])
    if cfg_name == IDEAL_CONFIG:
        phases = canonical_phases(
            set(net.node_map[frm].phases) & set(net.node_map[to].phases)
        )
        z = np.zeros((len(phases), len(phases)), dtype=complex)
    else:
        if cfg_name not in net.line_configs:
            raise NetworkError(f"add_switch: unknown config {cfg_name!r}")
        cfg = net.line_configs[cfg_name]
        phases = cfg.phases
        z = cfg.z_pu(_length(mod["length_ft"], "add_switch"), net.z_base_ohm)
    line = LineSpec(
        from_node=frm,
        to_node=to,
        phases=phases,
        z_pu=z.tolist(),
        name=str(mod.get("name", f"{frm}-{to}")),
        is_switch=True,
        closed=bool(mod.get("closed", False)),
    )
    return replace(net, lines=net.lines + (line,))


def scale_loads(net: Network, factor: float, include_caps: bool = False) -> Network:
    loads = tuple(
        replace(l, demand=l.demand * factor, cap=l.cap * factor if include_caps else l.cap)
        for l in net.loads
    )
    return replace(net, loads=loads)


def relabel_nodes(net: Network, prefix: str, keep: Sequence[str] = ()) -> Network:
    """Prefix every node id except those listed in ``keep``."""
    keep_set = set(keep)

    def ren(x: str) -> str:
        return x if x in keep_set else f"{prefix}{x}"

    nodes = tuple(NodeSpec(ren(n.id), n.phases) for n in net.nodes)
    lines = tuple(
        replace(
            l,
            from_node=ren(l.from_node),
            to_node=ren(l.to_node),
            name=f"{ren(l.from_node)}-{ren(l.to_node)}" if l.name == f"{l.from_node}-{l.to_node}" else f"{prefix}{l.name}",
        )
        for l in net.lines
    )
    loads = tuple(replace(l, node=ren(l.node)) for l in net.loads)
    der = tuple(replace(d, node=ren(d.node)) for d in net.der_units)
    vvc = tuple(replace(u, node=ren(u.node)) for u in net.vvc_units)
    return replace(
        net,
        nodes=nodes,
        lines=lines,
        loads=loads,
        der_units=der,
        vvc_units=vvc,
        slack_id=ren(net.slack_id),
    )


def merge_with_switch(
    net1: Network,
    net2: Network,
    switch: Mapping[str, Any],
    shared_slack: str = "source",
) -> Network:
    """Join two feeders at a common infinite bus and add a tie switch.

    Both networks must use ``shared_slack`` as their slack id and agree on
    bases and slack phasors. Node ids must not collide outside the slack.
    The ``switch`` mapping uses the ``add_switch`` schema.
    """
    if net1.slack_id != shared_slack or net2.slack_id != shared_slack:
        raise NetworkError("merge: both networks must share the slack id")
    if (net1.s_base_va, net1.v_base_v) != (net2.s_base_va, net2.v_base_v):
        raise NetworkError("merge: base mismatch")
    if net1.slack_voltage != net2.slack_voltage:
        raise NetworkError("merge: slack phasor mismatch")
    ids1 = {n.id for n in net1.nodes} - {shared_slack}
    ids2 = {n.id for n in net2.nodes} - {shared_slack}
    clash = ids1 & ids2
    if clash:
        raise NetworkError(f"merge: node id collision: {sorted(clash)[:8]}")
    names1 = {l.name for l in net1.lines}
    names2 = {l.name for l in net2.lines}
    if names1 & names2:
        raise NetworkError(f"merge: line name collision: {sorted(names1 & names2)[:8]}")

    nodes = net1.nodes + tuple(n for n in net2.nodes if n.id != shared_slack)
    configs = dict(net1.line_configs)
    for k, v in net2.line_configs.items():
        if k in configs and v != configs[k]:
            raise NetworkError(f"merge: config {k!r} differs between networks")
        configs[k] = v
    merged = Network(
        nodes=nodes,
        lines=net1.lines + net2.lines,
        loads=net1.loads + net2.loads,
        der_units=net1.der_units + net2.der_units,
        vvc_units=net1.vvc_units + net2.vvc_units,
        slack_id=shared_slack,
        slack_voltage=net1.slack_voltage,
        s_base_va=net1.s_base_va,
        v_base_v=net1.v_base_v,
        line_configs=configs,
        name=f"{net1.name}+{net2.name}",
    )
    return _add_switch(merged, _strip_comments(dict(switch)))
