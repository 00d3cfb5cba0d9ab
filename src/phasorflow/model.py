"""Phase-aware network model for unbalanced distribution feeders.

Every quantity is per-unit. Voltages are complex phasors; angles are radians
internally (degrees only at I/O boundaries). Phases are ordered canonically
a < b < c, and any vector or matrix reduced to a subset of phases keeps that
order.

A line with an all-zero impedance matrix is an "ideal" coupling: its endpoint
(node, phase) channels are electrically one point. Both solvers merge such
channels into a single electrical class and recover the coupling's flow from
nodal balance afterwards. The tie between the infinite bus and a feeder head
is modeled this way.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np
import scipy.sparse as sp

PHASES: tuple[str, ...] = ("a", "b", "c")
PHASE_INDEX: dict[str, int] = {"a": 0, "b": 1, "c": 2}

#: Reserved config name for zero-impedance couplings.
IDEAL_CONFIG = "ideal"

FEET_PER_MILE = 5280.0

#: Default slack phasors: unit magnitude, phases rotated 0 / 240 / 120 degrees.
DEFAULT_SLACK_VOLTAGE: tuple[complex, complex, complex] = (
    1.0 + 0.0j,
    complex(math.cos(4.0 * math.pi / 3.0), math.sin(4.0 * math.pi / 3.0)),
    complex(math.cos(2.0 * math.pi / 3.0), math.sin(2.0 * math.pi / 3.0)),
)


class NetworkError(ValueError):
    """Raised when a network document or mutation violates model invariants."""


def canonical_phases(phases: Iterable[str]) -> tuple[str, ...]:
    """Normalize a phase collection to the canonical (a, b, c) order.

    Accepts any iterable of single-character phase names, including a plain
    string like ``"ca"``. Duplicates and unknown phases are rejected.
    """
    items = list(phases)
    if not items:
        raise NetworkError("phase set must be nonempty")
    for p in items:
        if p not in PHASE_INDEX:
            raise NetworkError(f"unknown phase {p!r}")
    if len(set(items)) != len(items):
        raise NetworkError(f"duplicate phase in {items!r}")
    return tuple(sorted(items, key=PHASE_INDEX.__getitem__))


def _as_complex_matrix(z, n: int, context: str) -> tuple[tuple[complex, ...], ...]:
    arr = np.asarray(z, dtype=complex)
    if arr.shape != (n, n):
        raise NetworkError(f"{context}: impedance must be {n}x{n}, got {arr.shape}")
    return tuple(tuple(complex(v) for v in row) for row in arr)


@dataclass(frozen=True)
class NodeSpec:
    id: str
    phases: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "phases", canonical_phases(self.phases))


@dataclass(frozen=True)
class LineSpec:
    """A series impedance element between two nodes on a subset of phases.

    ``z_pu`` is the per-unit impedance matrix over ``phases`` in canonical
    order. A switch is an ordinary line with ``is_switch=True``; only
    ``closed`` lines contribute equations. An all-zero ``z_pu`` marks an
    ideal (zero-impedance) coupling.
    """

    from_node: str
    to_node: str
    phases: tuple[str, ...]
    z_pu: tuple[tuple[complex, ...], ...]
    name: str = ""
    is_switch: bool = False
    closed: bool = True

    def __post_init__(self) -> None:
        phases = canonical_phases(self.phases)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(
            self, "z_pu", _as_complex_matrix(self.z_pu, len(phases), f"line {self.from_node}-{self.to_node}")
        )
        if not self.name:
            object.__setattr__(self, "name", f"{self.from_node}-{self.to_node}")
        if self.from_node == self.to_node:
            raise NetworkError(f"line {self.name}: endpoints coincide")

    @property
    def z(self) -> np.ndarray:
        return np.array(self.z_pu, dtype=complex)

    @property
    def is_ideal(self) -> bool:
        return all(v == 0 for row in self.z_pu for v in row)


@dataclass(frozen=True)
class LoadSpec:
    """Voltage-dependent wye load on one phase of one node.

    The consumed complex power is ``(beta_s + beta_z * |V|^2) * demand``
    plus the fixed capacitive injection ``-1j * cap``.
    """

    node: str
    phase: str
    demand: complex
    beta_s: float = 1.0
    beta_z: float = 0.0
    cap: float = 0.0

    def __post_init__(self) -> None:
        if self.phase not in PHASE_INDEX:
            raise NetworkError(f"load at {self.node}: unknown phase {self.phase!r}")
        if abs(self.beta_s + self.beta_z - 1.0) > 1e-12:
            raise NetworkError(f"load at {self.node}.{self.phase}: beta_s + beta_z must equal 1")
        if not (0.0 <= self.beta_s <= 1.0 and 0.0 <= self.beta_z <= 1.0):
            raise NetworkError(f"load at {self.node}.{self.phase}: betas must lie in [0, 1]")
        object.__setattr__(self, "demand", complex(self.demand))


@dataclass(frozen=True)
class DerSpec:
    """Controllable injection channel with an apparent-power capacity."""

    node: str
    phase: str
    capacity: float

    def __post_init__(self) -> None:
        if self.phase not in PHASE_INDEX:
            raise NetworkError(f"der at {self.node}: unknown phase {self.phase!r}")
        if self.capacity < 0:
            raise NetworkError(f"der at {self.node}.{self.phase}: capacity must be >= 0")


@dataclass(frozen=True)
class VvcSpec:
    """Autonomous volt-var unit: reactive consumption as a function of |V|.

    The response ramps linearly from ``q_min`` at ``v_min`` to ``q_max`` at
    ``v_max`` and saturates outside that band. Positive q consumes vars
    (pulls the local voltage down), so the feedback is stabilizing.
    """

    node: str
    phase: str
    q_min: float
    q_max: float
    v_min: float
    v_max: float

    def __post_init__(self) -> None:
        if self.phase not in PHASE_INDEX:
            raise NetworkError(f"vvc at {self.node}: unknown phase {self.phase!r}")
        if not self.q_min < self.q_max:
            raise NetworkError(f"vvc at {self.node}.{self.phase}: q_min must be < q_max")
        if not self.v_min < self.v_max:
            raise NetworkError(f"vvc at {self.node}.{self.phase}: v_min must be < v_max")

    @property
    def slope(self) -> float:
        return (self.q_max - self.q_min) / (self.v_max - self.v_min)

    def response(self, v_mag: float) -> float:
        """Clamped piecewise-linear reactive consumption at voltage ``v_mag``."""
        if v_mag <= self.v_min:
            return self.q_min
        if v_mag >= self.v_max:
            return self.q_max
        return self.q_min + self.slope * (v_mag - self.v_min)

    def linear_coeffs(self) -> tuple[float, float]:
        """Coefficients (k0, k1) of the unclamped segment written in E = |V|^2.

        Uses the first-order expansion |V| ~ (1 + E) / 2 around E = 1, so
        q(E) = k0 + k1 * E with k1 = slope / 2.
        """
        k1 = self.slope / 2.0
        k0 = self.q_min + self.slope * (0.5 - self.v_min)
        return k0, k1


@dataclass(frozen=True)
class Network:
    """Immutable feeder graph with loads, DER channels, and volt-var units.

    All mutation helpers return new networks. ``line_configs`` carries the
    per-mile impedance tables of the source document so that modification
    scripts can instantiate new lines by config name.
    """

    nodes: tuple[NodeSpec, ...]
    lines: tuple[LineSpec, ...]
    loads: tuple[LoadSpec, ...] = ()
    der_units: tuple[DerSpec, ...] = ()
    vvc_units: tuple[VvcSpec, ...] = ()
    slack_id: str = "source"
    slack_voltage: tuple[complex, complex, complex] = DEFAULT_SLACK_VOLTAGE
    s_base_va: float = 1.0e6
    v_base_v: float = 4160.0
    line_configs: Mapping[str, "LineConfig"] = field(default_factory=dict)
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "slack_voltage", tuple(complex(v) for v in self.slack_voltage))
        if len(self.slack_voltage) != 3:
            raise NetworkError("slack_voltage must have one phasor per phase")
        object.__setattr__(self, "line_configs", dict(self.line_configs))
        self._validate()

    # -- validation ----------------------------------------------------

    def _validate(self) -> None:
        ids = [n.id for n in self.nodes]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise NetworkError(f"duplicate node ids: {dup}")
        by_id = {n.id: n for n in self.nodes}
        if self.slack_id not in by_id:
            raise NetworkError(f"slack node {self.slack_id!r} not declared")
        if by_id[self.slack_id].phases != PHASES:
            raise NetworkError("slack node must carry all three phases")

        names = [ln.name for ln in self.lines]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise NetworkError(f"duplicate line names: {dup} (give explicit names to parallel lines)")

        for ln in self.lines:
            for end in (ln.from_node, ln.to_node):
                if end not in by_id:
                    raise NetworkError(f"line {ln.name}: unknown endpoint {end!r}")
            for end in (ln.from_node, ln.to_node):
                missing = set(ln.phases) - set(by_id[end].phases)
                if missing:
                    raise NetworkError(
                        f"line {ln.name}: phase {sorted(missing)} absent at node {end}"
                    )
            if not ln.is_ideal:
                z = ln.z
                if abs(np.linalg.det(z)) < 1e-30:
                    raise NetworkError(f"line {ln.name}: impedance matrix is singular")

        for load in self.loads:
            self._check_channel(load.node, load.phase, by_id, "load")
        for der in self.der_units:
            self._check_channel(der.node, der.phase, by_id, "der")
        for vvc in self.vvc_units:
            self._check_channel(vvc.node, vvc.phase, by_id, "vvc")

        self._check_connectivity(by_id)

    @staticmethod
    def _check_channel(node: str, phase: str, by_id: Mapping[str, NodeSpec], kind: str) -> None:
        if node not in by_id:
            raise NetworkError(f"{kind} references unknown node {node!r}")
        if phase not in by_id[node].phases:
            raise NetworkError(f"{kind} at {node}: phase {phase} absent at that node")

    def _check_connectivity(self, by_id: Mapping[str, NodeSpec]) -> None:
        # Channel-level reachability: every (node, phase) must connect to the
        # slack through closed lines carrying that walk's phases.
        adj: dict[tuple[str, str], list[tuple[str, str]]] = {}
        for ln in self.lines:
            if not ln.closed:
                continue
            for p in ln.phases:
                adj.setdefault((ln.from_node, p), []).append((ln.to_node, p))
                adj.setdefault((ln.to_node, p), []).append((ln.from_node, p))
        seen: set[tuple[str, str]] = set()
        stack = [(self.slack_id, p) for p in PHASES]
        seen.update(stack)
        while stack:
            ch = stack.pop()
            for nxt in adj.get(ch, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        unreachable = [
            (n.id, p) for n in self.nodes for p in n.phases if (n.id, p) not in seen
        ]
        if unreachable:
            raise NetworkError(
                "channels not connected to the slack through closed lines: "
                + ", ".join(f"{n}.{p}" for n, p in sorted(unreachable)[:8])
            )

    # -- convenient views ----------------------------------------------

    @cached_property
    def node_map(self) -> dict[str, NodeSpec]:
        return {n.id: n for n in self.nodes}

    @cached_property
    def line_map(self) -> dict[str, LineSpec]:
        return {ln.name: ln for ln in self.lines}

    @cached_property
    def channels(self) -> tuple[tuple[str, str], ...]:
        """All (node, phase) channels, nodes in declaration order."""
        return tuple((n.id, p) for n in self.nodes for p in n.phases)

    def slack_phasor(self, phase: str) -> complex:
        return self.slack_voltage[PHASE_INDEX[phase]]

    @property
    def z_base_ohm(self) -> float:
        return self.v_base_v**2 / self.s_base_va

    @cached_property
    def open_switches(self) -> tuple[str, ...]:
        return tuple(ln.name for ln in self.lines if ln.is_switch and not ln.closed)

    @cached_property
    def index(self) -> "NetworkIndex":
        return NetworkIndex(self)

    @cached_property
    def compiled(self) -> "CompiledFeeder":
        return CompiledFeeder(self)

    # -- mutation (pure) -----------------------------------------------

    def close_switch(self, switch_id: str) -> "Network":
        """Return a copy with the named switch closed. Meshes are allowed."""
        ln = self.line_map.get(switch_id)
        if ln is None or not ln.is_switch:
            raise NetworkError(f"unknown switch {switch_id!r}")
        if ln.closed:
            raise NetworkError(f"switch {switch_id!r} is already closed")
        lines = tuple(replace(l, closed=True) if l.name == switch_id else l for l in self.lines)
        return replace(self, lines=lines)


@dataclass(frozen=True)
class LineConfig:
    """Per-unit-length impedance table entry from a feeder document."""

    phases: tuple[str, ...]
    z_ohm_per_mile: tuple[tuple[complex, ...], ...]
    comment: str = ""

    def __post_init__(self) -> None:
        phases = canonical_phases(self.phases)
        object.__setattr__(self, "phases", phases)
        object.__setattr__(
            self, "z_ohm_per_mile", _as_complex_matrix(self.z_ohm_per_mile, len(phases), "config")
        )

    def z_pu(self, length_ft: float, z_base_ohm: float) -> np.ndarray:
        scale = (length_ft / FEET_PER_MILE) / z_base_ohm
        return np.array(self.z_ohm_per_mile, dtype=complex) * scale


# ----------------------------------------------------------------------
# Electrical indexing: merge ideal couplings, enumerate solver classes.
# ----------------------------------------------------------------------


class _UnionFind:
    def __init__(self) -> None:
        self.parent: dict = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != x:
            self.parent[x] = p = self.parent.setdefault(p, p)
            x, p = p, self.parent[p]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


class NetworkIndex:
    """Derived solver structure for a network.

    Channels tied by closed ideal lines collapse into electrical classes.
    Classes containing a slack channel are pinned; the remaining classes are
    the solver unknowns, ordered deterministically.
    """

    def __init__(self, net: Network) -> None:
        uf = _UnionFind()
        for ch in net.channels:
            uf.find(ch)

        self.ideal_lines = tuple(ln for ln in net.lines if ln.closed and ln.is_ideal)
        self.real_lines = tuple(ln for ln in net.lines if ln.closed and not ln.is_ideal)

        for ln in self.ideal_lines:
            for p in ln.phases:
                if not uf.union((ln.from_node, p), (ln.to_node, p)):
                    raise NetworkError(
                        f"ideal line {ln.name}: zero-impedance cycle on phase {p} "
                        "(coupling flow would be indeterminate)"
                    )

        members: dict[tuple[str, str], list[tuple[str, str]]] = {}
        for ch in net.channels:
            members.setdefault(uf.find(ch), []).append(ch)
        self.class_of: dict[tuple[str, str], int] = {}
        classes: list[tuple[tuple[str, str], ...]] = []
        for ch in net.channels:  # deterministic: declaration order
            root = uf.find(ch)
            if root in members:
                classes.append(tuple(sorted(members.pop(root))))
        for k, mem in enumerate(classes):
            for ch in mem:
                self.class_of[ch] = k
        self.classes = tuple(classes)

        self.slack_value: dict[int, complex] = {}
        for p in PHASES:
            k = self.class_of[(net.slack_id, p)]
            if k in self.slack_value:
                raise NetworkError("ideal lines tie two slack phases together")
            self.slack_value[k] = net.slack_phasor(p)

        self.free_classes = tuple(k for k in range(len(self.classes)) if k not in self.slack_value)

        # Per real line: class index arrays for both ends, reduced admittance.
        self.line_y: dict[str, np.ndarray] = {}
        self.line_from_cls: dict[str, np.ndarray] = {}
        self.line_to_cls: dict[str, np.ndarray] = {}
        for ln in self.real_lines:
            self.line_y[ln.name] = np.linalg.inv(ln.z)
            self.line_from_cls[ln.name] = np.array(
                [self.class_of[(ln.from_node, p)] for p in ln.phases], dtype=int
            )
            self.line_to_cls[ln.name] = np.array(
                [self.class_of[(ln.to_node, p)] for p in ln.phases], dtype=int
            )

        self._build_ideal_forest(net.slack_id)

    def _build_ideal_forest(self, slack_id: str) -> None:
        """Orient ideal couplings for flow recovery.

        Within each class the ideal lines form a tree over channels. Root each
        tree at the slack channel when present (else the first channel) and
        store edges in leaf-first order: the flow on an edge equals the
        accumulated nodal defect of the subtree hanging below it.
        """
        edges: dict[tuple[str, str], list[tuple[LineSpec, int, tuple[str, str]]]] = {}
        for ln in self.ideal_lines:
            for pi, p in enumerate(ln.phases):
                a, b = (ln.from_node, p), (ln.to_node, p)
                edges.setdefault(a, []).append((ln, pi, b))
                edges.setdefault(b, []).append((ln, pi, a))

        order: list[tuple[str, int, tuple[str, str], tuple[str, str], float]] = []
        visited: set[tuple[str, str]] = set()
        for mem in self.classes:
            root = next((ch for ch in mem if ch[0] == slack_id), mem[0])
            if root in visited or root not in edges:
                continue
            stack = [(root, None)]
            dfs: list[tuple[tuple[str, str], tuple[LineSpec, int, tuple[str, str]] | None]] = []
            visited.add(root)
            while stack:
                ch, via = stack.pop()
                dfs.append((ch, via))
                for ln, pi, other in edges.get(ch, ()):
                    if other not in visited:
                        visited.add(other)
                        stack.append((other, (ln, pi, ch)))
            # Leaf-first: reverse DFS discovery order.
            for ch, via in reversed(dfs):
                if via is None:
                    continue
                ln, pi, parent = via
                # Sign +1 when the oriented parent->child direction matches
                # the line's from->to direction.
                sign = 1.0 if (ln.from_node, ln.phases[pi]) == parent else -1.0
                order.append((ln.name, pi, ch, parent, sign))
        #: tuples (line name, phase position, child channel, parent channel,
        #: orientation sign)
        self.ideal_recovery = tuple(order)


# ----------------------------------------------------------------------
# Compiled solver arrays: everything both solvers need except the loads.
# ----------------------------------------------------------------------

_ALPHA = cmath.exp(2j * math.pi / 3.0)
#: Nominal ratio V_phi / V_psi for a balanced counterclockwise set: a at 0,
#: b at -120 degrees, c at +120 degrees.
_ROTATION = np.array(
    [
        [1.0, _ALPHA, _ALPHA**2],
        [_ALPHA**2, 1.0, _ALPHA],
        [_ALPHA, _ALPHA**2, 1.0],
    ],
    dtype=complex,
)


@dataclass(frozen=True)
class MnPair:
    """Drop-equation coefficient matrices for one line."""

    m: np.ndarray
    n: np.ndarray


def build_mn(z: np.ndarray, phases: tuple[str, ...]) -> MnPair:
    """Rotation-weighted drop coefficients for an impedance over ``phases``.

    The rotation factor is indexed by the global phase pair, so a two-phase
    line uses the same per-pair weights as the corresponding sub-block of a
    three-phase line.
    """
    z = np.asarray(z, dtype=complex)
    k = len(phases)
    if z.shape != (k, k):
        raise ValueError(f"impedance must be {k}x{k}, got {z.shape}")
    gi = [PHASE_INDEX[p] for p in phases]
    rot = _ROTATION[np.ix_(gi, gi)]
    w = rot * np.conj(z)
    return MnPair(m=w.real.copy(), n=w.imag.copy())


@dataclass(frozen=True)
class LoadArrays:
    """Loads as parallel arrays, one entry per load.

    ``channel`` indexes ``Network.channels``. Each load consumes
    ``(beta_s + beta_z * |V|^2) * demand - 1j * cap``.
    """

    channel: np.ndarray
    demand: np.ndarray
    beta_s: np.ndarray
    beta_z: np.ndarray
    cap: np.ndarray


class CompiledFeeder:
    """Solver arrays of one network, built once and shared by every solve.

    Holds the class index arrays and flat start, the free-class block of the
    dense nodal admittance ``Y`` (for the Newton Jacobian), the stacked line
    admittances and end classes that give line currents, the ideal-coupling
    recovery order, and (on first use) the sparse pattern of the linear
    system. Loads are not compiled: every solve passes them as
    ``LoadArrays``, so a sweep that only changes loads reuses one compile.
    """

    def __init__(self, net: Network) -> None:
        idx = net.index
        self.index = idx
        n = len(idx.classes)
        self.n_cls = n
        self.channels = net.channels
        self.channel_pos = {ch: i for i, ch in enumerate(self.channels)}
        self.channel_class = np.array([idx.class_of[ch] for ch in self.channels], dtype=int)
        self.free = np.array(idx.free_classes, dtype=int)
        self.v_flat = np.array([net.slack_phasor(mem[0][1]) for mem in idx.classes], dtype=complex)
        for k, v in idx.slack_value.items():
            self.v_flat[k] = v

        # Real lines padded to three phases: zero admittance on the padding.
        lines = idx.real_lines
        y = np.zeros((len(lines), 3, 3), dtype=complex)
        fcol = np.zeros((len(lines), 3), dtype=int)
        tcol = np.zeros((len(lines), 3), dtype=int)
        live = np.zeros((len(lines), 3), dtype=bool)
        for l, ln in enumerate(lines):
            k = len(ln.phases)
            y[l, :k, :k] = idx.line_y[ln.name]
            fcol[l, :k] = idx.line_from_cls[ln.name]
            tcol[l, :k] = idx.line_to_cls[ln.name]
            live[l, :k] = True
        self.line_y, self.line_fcol, self.line_tcol, self.line_live = y, fcol, tcol, live

        # Y = sum over lines of [[y, -y], [-y, y]] on (from, to) classes.
        ends = np.concatenate([fcol, tcol], axis=1)
        block = np.concatenate(
            [np.concatenate([y, -y], axis=2), np.concatenate([-y, y], axis=2)], axis=1
        )
        ybus = np.zeros((n, n), dtype=complex)
        np.add.at(
            ybus,
            (np.repeat(ends, 6, axis=1).ravel(), np.tile(ends, (1, 6)).ravel()),
            block.ravel(),
        )
        self.y_free_free = ybus[np.ix_(self.free, self.free)]

        # Per real line phase (lines in order, phases in order): end classes.
        self.lp_from_cls = fcol[live]
        self.lp_to_cls = tcol[live]
        self.n_flow = len(self.lp_from_cls)

        # Ideal couplings: leaf-first recovery steps over channel indices.
        pos = self.channel_pos
        ideal_slot: dict[tuple[str, int], int] = {}
        for ln in idx.ideal_lines:
            for pi in range(len(ln.phases)):
                ideal_slot[(ln.name, pi)] = len(ideal_slot)
        self.ideal_steps = [
            (pos[child], pos[parent], sign, ideal_slot[(name, pi)])
            for name, pi, child, parent, sign in idx.ideal_recovery
        ]
        self.n_ideal_flow = len(ideal_slot)

        # All closed lines, real then ideal: names, phase splits, receiving channels.
        closed = lines + idx.ideal_lines
        self.line_names = tuple(ln.name for ln in closed)
        bounds = np.cumsum([0] + [len(ln.phases) for ln in closed]).tolist()
        self.line_slices = tuple(slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]))
        self.line_to_ch = np.array(
            [pos[(ln.to_node, p)] for ln in closed for p in ln.phases], dtype=int
        )
        self.line_from_ch = np.array(
            [pos[(ln.from_node, p)] for ln in closed for p in ln.phases], dtype=int
        )

        units = net.vvc_units
        self.vvc_units = units
        #: Volt-var draw at the slack magnitude: where the fixed point starts.
        self.vvc_q0 = np.array([u.response(abs(net.slack_phasor(u.phase))) for u in units])
        self.vvc_ch = np.array([pos[(u.node, u.phase)] for u in units], dtype=int)
        self.vvc_cls = self.channel_class[self.vvc_ch]
        coeffs = np.array([u.linear_coeffs() for u in units], dtype=float).reshape(-1, 2)
        self.vvc_k0, self.vvc_k1 = coeffs[:, 0].copy(), coeffs[:, 1].copy()

    def load_arrays(self, loads: Sequence[LoadSpec]) -> LoadArrays:
        """``LoadArrays`` of load specs on this network's channels."""
        return LoadArrays(
            channel=np.array([self.channel_pos[(ld.node, ld.phase)] for ld in loads], dtype=int),
            demand=np.array([ld.demand for ld in loads], dtype=complex),
            beta_s=np.array([ld.beta_s for ld in loads], dtype=float),
            beta_z=np.array([ld.beta_z for ld in loads], dtype=float),
            cap=np.array([ld.cap for ld in loads], dtype=float),
        )

    def class_loads(self, loads: LoadArrays) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-class load vectors (s_const, s_zmag, s_fixed).

        A class consumes ``s_const + s_zmag * |V|^2 + s_fixed``; s_fixed
        holds the capacitors.
        """
        return _sum_loads(loads, self.channel_class[loads.channel], self.n_cls)

    def channel_power(
        self,
        loads: LoadArrays,
        e: np.ndarray,
        vvc_q: np.ndarray,
        dispatch: Mapping[tuple[str, str], complex],
    ) -> np.ndarray:
        """Complex power consumed per channel at squared magnitudes ``e``.

        Adds the volt-var draw ``vvc_q`` (one entry per unit) and the
        controllable ``dispatch`` to the loads.
        """
        s_const, s_zmag, s_fixed = _sum_loads(loads, loads.channel, len(self.channels))
        s = s_const + s_zmag * e + s_fixed
        np.add.at(s, self.vvc_ch, 1j * vvc_q)
        for ch, w in dispatch.items():
            s[self.channel_pos[ch]] += w
        return s

    def line_currents(self, v: np.ndarray) -> np.ndarray:
        """From -> to current of every real line phase at class voltages ``v``."""
        dv = v[self.line_fcol] - v[self.line_tcol]
        return (self.line_y @ dv[:, :, None])[:, :, 0][self.line_live]

    def line_injection(self, v: np.ndarray) -> np.ndarray:
        """Current the real lines inject into each class: arriving minus leaving."""
        i = self.line_currents(v)
        f = np.zeros(self.n_cls, dtype=complex)
        np.add.at(f, self.lp_to_cls, i)
        np.subtract.at(f, self.lp_from_cls, i)
        return f

    def ideal_flows(self, defect: np.ndarray, real_flow: np.ndarray) -> np.ndarray:
        """Flow of every ideal line phase, oriented from -> to.

        ``defect`` holds the per-channel draw and ``real_flow`` the flow of
        every real line phase, in whatever conserved quantity the caller
        uses (current for the exact model, complex power for the lossless
        linear model).
        """
        n_real = self.n_flow
        acc = defect.astype(complex)
        np.add.at(acc, self.line_from_ch[:n_real], real_flow)
        np.subtract.at(acc, self.line_to_ch[:n_real], real_flow)
        out = np.zeros(self.n_ideal_flow, dtype=complex)
        for child, parent, sign, slot in self.ideal_steps:
            f = acc[child]
            out[slot] = sign * f
            acc[parent] += f
        return out

    def per_line(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Split values over all closed line phases (real then ideal) by line."""
        return {name: flat[sl] for name, sl in zip(self.line_names, self.line_slices)}

    @cached_property
    def linear(self) -> "LinearPattern":
        return LinearPattern(self)


def _sum_loads(loads: LoadArrays, bins: np.ndarray, n: int):
    s_const = np.zeros(n, dtype=complex)
    s_zmag = np.zeros(n, dtype=complex)
    s_fixed = np.zeros(n, dtype=complex)
    np.add.at(s_const, bins, loads.beta_s * loads.demand)
    np.add.at(s_zmag, bins, loads.beta_z * loads.demand)
    np.add.at(s_fixed, bins, -1j * loads.cap)
    return s_const, s_zmag, s_fixed


class LinearPattern:
    """Sparse layout of the linear model's square system over [E; Theta; P; Q].

    Row layout: two drop rows per real line phase, then per class either two
    balance rows or, for slack-tied classes, two pin rows. The load-dependent
    entries (the E terms of the balance rows) and the balance right-hand
    sides are value slots that ``matrix`` and ``rhs`` fill for given loads.
    """

    def __init__(self, cf: CompiledFeeder) -> None:
        idx = cf.index
        n_cls, n_flow = cf.n_cls, cf.n_flow
        self.n_state = 2 * n_cls + 2 * n_flow
        col_p = 2 * n_cls
        col_q = 2 * n_cls + n_flow

        rows_i: list[int] = []
        cols_j: list[int] = []
        vals: list[float] = []

        def put(r: int, c: int, v: float) -> None:
            rows_i.append(r)
            cols_j.append(c)
            vals.append(v)

        r = 0
        base = 0
        for ln in idx.real_lines:
            mn = build_mn(ln.z, ln.phases)
            fc = idx.line_from_cls[ln.name]
            tc = idx.line_to_cls[ln.name]
            k = len(ln.phases)
            for pi in range(k):
                put(r, int(fc[pi]), 1.0)
                put(r, int(tc[pi]), -1.0)
                for pj in range(k):
                    put(r, col_p + base + pj, -2.0 * mn.m[pi, pj])
                    put(r, col_q + base + pj, 2.0 * mn.n[pi, pj])
                r += 1
                put(r, n_cls + int(fc[pi]), 1.0)
                put(r, n_cls + int(tc[pi]), -1.0)
                for pj in range(k):
                    put(r, col_p + base + pj, mn.n[pi, pj])
                    put(r, col_q + base + pj, mn.m[pi, pj])
                r += 1
            base += k

        # Flow incidence per class: +1 arriving, -1 leaving.
        arriving: dict[int, list[int]] = {}
        leaving: dict[int, list[int]] = {}
        for f, (fc, tc) in enumerate(zip(cf.lp_from_cls.tolist(), cf.lp_to_cls.tolist())):
            arriving.setdefault(tc, []).append(f)
            leaving.setdefault(fc, []).append(f)

        self.b_pin = np.zeros(self.n_state)
        self.row_p: dict[int, int] = {}
        self.row_q: dict[int, int] = {}
        for k in range(n_cls):
            if k in idx.slack_value:
                vs = idx.slack_value[k]
                put(r, k, 1.0)
                self.b_pin[r] = abs(vs) ** 2
                put(r + 1, n_cls + k, 1.0)
                self.b_pin[r + 1] = math.atan2(vs.imag, vs.real)
                r += 2
                continue
            for row, col in ((r, col_p), (r + 1, col_q)):
                for f in arriving.get(k, ()):
                    put(row, col + f, 1.0)
                for f in leaving.get(k, ()):
                    put(row, col + f, -1.0)
                put(row, k, 0.0)  # E slot, filled per solve
            self.row_p[k], self.row_q[k] = r, r + 1
            r += 2

        if r != self.n_state:
            raise AssertionError(f"system is not square: {r} rows, {self.n_state} columns")
        a = sp.csc_matrix(sp.coo_matrix((vals, (rows_i, cols_j)), shape=(r, r)))
        self.indptr, self.indices, self.data = a.indptr, a.indices, a.data

        self.bal_cls = np.array(list(self.row_p), dtype=int)
        self.bal_row_p = np.array(list(self.row_p.values()), dtype=int)
        self.bal_row_q = self.bal_row_p + 1

        def slot(row: int, col: int) -> int:
            lo, hi = self.indptr[col], self.indptr[col + 1]
            return int(lo + np.searchsorted(self.indices[lo:hi], row))

        self.slot_p = np.array([slot(r, k) for k, r in zip(self.bal_cls, self.bal_row_p)], dtype=int)
        self.slot_q = np.array([slot(r, k) for k, r in zip(self.bal_cls, self.bal_row_q)], dtype=int)
        self.k0 = np.zeros(n_cls)
        self.k1 = np.zeros(n_cls)
        np.add.at(self.k0, cf.vvc_cls, cf.vvc_k0)
        np.add.at(self.k1, cf.vvc_cls, cf.vvc_k1)

    def matrix(self, s_zmag: np.ndarray) -> sp.csc_matrix:
        """System matrix for per-class constant-impedance loads ``s_zmag``."""
        data = self.data.copy()
        k = self.bal_cls
        data[self.slot_p] = -s_zmag[k].real
        data[self.slot_q] = -(s_zmag[k].imag + self.k1[k])
        return sp.csc_matrix((data, self.indices, self.indptr), shape=(self.n_state, self.n_state))

    def rhs(self, s_base: np.ndarray) -> np.ndarray:
        """Right-hand side for the per-class load-independent draw ``s_base``."""
        b = self.b_pin.copy()
        k = self.bal_cls
        b[self.bal_row_p] = s_base[k].real
        b[self.bal_row_q] = s_base[k].imag + self.k0[k]
        return b


def wrap_angle(theta: float | np.ndarray):
    """Wrap angles to (-pi, pi]."""
    return -((-np.asarray(theta) + np.pi) % (2.0 * np.pi) - np.pi)
