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

A network compiles once (``Network.compiled``). ``NetworkIndex`` labels
the channels with their classes, pins the slack's classes and orders the
ideal couplings for flow recovery. ``CompiledFeeder`` adds the padded
per-line arrays (impedance, admittance, end classes), on first use the
Z-bus ``Z`` of the free classes, and ``dispatch_index``, which resolves
every dispatch and DER channel and rejects an unknown one, or one tied to
the slack. ``load_arrays`` resolves a dispatch once, as one more
fixed-power load row, like a capacitor's, that every model reads.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from functools import cache, cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

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
    return _canonical(tuple(phases))


@cache
def _canonical(items: tuple) -> tuple[str, ...]:
    # Memoized on the input order; only valid phase sets are cached (an
    # exception is not), so at most 15 entries.
    if not items:
        raise NetworkError("phase set must be nonempty")
    for p in items:
        if p not in PHASE_INDEX:
            raise NetworkError(f"unknown phase {p!r}")
    if len(set(items)) != len(items):
        raise NetworkError(f"duplicate phase in {list(items)!r}")
    return tuple(sorted(items, key=PHASE_INDEX.__getitem__))


def _as_complex_matrix(z, n: int, context: str) -> tuple[tuple[complex, ...], ...]:
    """``z`` as an n x n tuple of finite complex rows. Rows that already
    hold Python complex numbers, as the document reader builds them, are
    taken as they are; anything else goes through numpy, once rows of
    unequal lengths are rejected."""
    if (type(z) in (list, tuple) and len(z) == n
            and all(type(row) in (list, tuple) and len(row) == n
                    and all(type(v) is complex for v in row) for row in z)):
        out = tuple(map(tuple, z))
    else:
        if (type(z) in (list, tuple) and all(type(row) in (list, tuple) for row in z)
                and len({len(row) for row in z}) > 1):
            raise NetworkError(f"{context}: expected a matrix, got rows of lengths "
                               f"{[len(row) for row in z]}")
        try:
            arr = np.asarray(z, dtype=complex)
        except (TypeError, ValueError):
            raise NetworkError(f"{context}: impedance entries must be numbers, "
                               f"got {z!r}") from None
        if arr.shape != (n, n):
            raise NetworkError(f"{context}: impedance must be {n}x{n}, got {arr.shape}")
        out = tuple(tuple(complex(v) for v in row) for row in arr)
    if bad := [v for row in out for v in row if not cmath.isfinite(v)]:
        raise NetworkError(f"{context}: impedance entry {bad[0]} is not finite")
    return out


def _det(z: tuple[tuple[complex, ...], ...]) -> complex:
    """Determinant of a 1x1, 2x2 or 3x3 matrix (a line spans at most three
    phases), by cofactors."""
    if len(z) == 1:
        return z[0][0]
    if len(z) == 2:
        return z[0][0] * z[1][1] - z[0][1] * z[1][0]
    (a, b, c), (d, e, f), (g, h, i) = z
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


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
        if not self.is_ideal and abs(_det(self.z_pu)) < 1e-30:
            raise NetworkError(f"line {self.name}: impedance matrix is singular")

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
        try:
            demand = complex(self.demand)
            finite = cmath.isfinite(demand) and math.isfinite(self.cap)
        except (TypeError, ValueError):
            finite = False
        if not finite:
            raise NetworkError(f"load at {self.node}.{self.phase}: demand and cap must be finite "
                               f"numbers, got {self.demand!r} and {self.cap!r}")
        object.__setattr__(self, "demand", demand)


@dataclass(frozen=True)
class DerSpec:
    """Controllable injection channel with an apparent-power capacity."""

    node: str
    phase: str
    capacity: float

    def __post_init__(self) -> None:
        if self.phase not in PHASE_INDEX:
            raise NetworkError(f"der at {self.node}: unknown phase {self.phase!r}")
        if not self.capacity >= 0:
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
        if not all(0.0 < abs(v) < math.inf for v in self.slack_voltage):
            raise NetworkError("slack_voltage phasors must be finite and nonzero")
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
    def compiled(self) -> "CompiledFeeder":
        return CompiledFeeder(self)

    # -- mutation (pure) -----------------------------------------------

    def close_switch(self, switch_id: str) -> "Network":
        """Return a copy with the named switch closed. Meshes are allowed.

        A real-impedance switch leaves the electrical classes as they are,
        so the copy keeps a link to this network: its compile takes the
        link, and its Z-bus is this network's Z updated by the switch's
        rank (``CompiledFeeder.z``) instead of a fresh build.
        """
        ln = self.line_map.get(switch_id)
        if ln is None or not ln.is_switch:
            raise NetworkError(f"unknown switch {switch_id!r}")
        if ln.closed:
            raise NetworkError(f"switch {switch_id!r} is already closed")
        lines = tuple(replace(l, closed=True) if l.name == switch_id else l for l in self.lines)
        closed = replace(self, lines=lines)
        if not ln.is_ideal:
            object.__setattr__(closed, "_opened", (self, ln))
        return closed


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
    """Electrical-class labelling of a network's channels.

    Channels tied by closed ideal lines collapse into electrical classes,
    numbered in order of their first channel in ``Network.channels``.
    Classes holding a slack channel are pinned; the others, in ascending
    order, are the solver unknowns.

    ``channel_class`` is the class of each channel position, ``free`` the
    unpinned classes, and ``ideal_steps`` the flow recovery order of the
    ``ideal`` lines as (child channel, parent channel, orientation sign,
    flow slot), a flow slot being a phase of ``ideal`` (lines in order,
    phases in order).
    """

    def __init__(self, net: Network, channel_pos: Mapping[tuple[str, str], int],
                 ideal: Sequence[LineSpec]) -> None:
        uf = _UnionFind()
        # Per channel: (flow slot, other end, sign when this end is the parent).
        edges: dict[int, list[tuple[int, int, float]]] = {}
        slot = 0
        for ln in ideal:
            for p in ln.phases:
                a, b = channel_pos[(ln.from_node, p)], channel_pos[(ln.to_node, p)]
                if not uf.union(a, b):
                    raise NetworkError(
                        f"ideal line {ln.name}: zero-impedance cycle on phase {p} "
                        "(coupling flow would be indeterminate)"
                    )
                edges.setdefault(a, []).append((slot, b, 1.0))
                edges.setdefault(b, []).append((slot, a, -1.0))
                slot += 1

        label: dict[int, int] = {}
        cls = [label.setdefault(uf.find(i), len(label)) for i in range(len(channel_pos))]
        self.channel_class = np.array(cls, dtype=int)
        pinned = {cls[channel_pos[(net.slack_id, p)]] for p in PHASES}
        if len(pinned) < len(PHASES):
            raise NetworkError("ideal lines tie two slack phases together")
        self.free = np.array([k for k in range(len(label)) if k not in pinned], dtype=int)
        self.ideal_steps = self._recovery(net, cls, edges)

    @staticmethod
    def _recovery(net: Network, cls: list[int], edges: dict[int, list[tuple[int, int, float]]]
                  ) -> list[tuple[int, int, float, int]]:
        """Orient ideal couplings for flow recovery.

        Within each class the ideal lines form a tree over channels. Root each
        tree at the slack channel when present (else the least channel) and
        list edges in leaf-first order: the flow on an edge equals the
        accumulated nodal defect of the subtree hanging below it.
        """
        chs = net.channels
        roots: dict[int, int] = {}  # every channel of a class of several has edges
        for i in sorted(edges, key=lambda i: (chs[i][0] != net.slack_id, chs[i])):
            roots.setdefault(cls[i], i)
        order: list[tuple[int, int, float, int]] = []
        for k in sorted(roots):
            stack: list[tuple[int, tuple[int, int, float] | None]] = [(roots[k], None)]
            dfs = []
            visited = {roots[k]}
            while stack:
                ch, via = stack.pop()
                dfs.append((ch, via))
                for slot, other, sign in edges[ch]:
                    if other not in visited:
                        visited.add(other)
                        stack.append((other, (ch, sign, slot)))
            # Leaf-first: reverse DFS discovery order.
            order.extend((ch, *via) for ch, via in reversed(dfs) if via is not None)
        return order


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
    w = _rotate_conj(z, np.array([PHASE_INDEX[p] for p in phases]))
    return MnPair(m=w.real.copy(), n=w.imag.copy())


def _rotate_conj(z: np.ndarray, phase: np.ndarray) -> np.ndarray:
    """``rot ⊙ conj(z)`` for per-phase matrices ``z`` (..., k, k) whose rows
    and columns sit on the global phase indices ``phase`` (..., k)."""
    return _ROTATION[phase[..., :, None], phase[..., None, :]] * np.conj(z)


@dataclass(frozen=True)
class LoadArrays:
    """Loads as parallel arrays, one entry per load.

    ``channel`` indexes ``Network.channels``. Each row consumes
    ``(beta_s + beta_z * |V|^2) * demand + fixed``: a load's ``fixed`` is
    its capacitor's ``-1j * cap``, and a dispatch row has demand 0 and
    ``fixed = w``. ``demand`` may carry a leading batch axis, one row per
    draw of a sweep; every other field is shared by the whole batch.
    """

    channel: np.ndarray
    demand: np.ndarray
    beta_s: np.ndarray
    beta_z: np.ndarray
    fixed: np.ndarray

    def batch(self) -> "LoadArrays":
        """These loads as a batch: one draw unless ``demand`` already has rows."""
        return self if self.demand.ndim == 2 else replace(self, demand=self.demand[None])


@dataclass(frozen=True)
class ZBus:
    """Columns of ``Z = Y_ff^-1`` at the free classes ``cls`` that draw power:
    ``z`` is ``Z[free, cls]`` and ``z_ll`` its rows at ``cls``."""

    cls: np.ndarray
    z: np.ndarray
    z_ll: np.ndarray


class CompiledFeeder:
    """Solver arrays of one network, built once and shared by every solve.

    Holds the class labelling (``NetworkIndex``) and flat start, the
    padded per-line impedances, admittances and end classes that give line
    currents, (on first use) ``Z``, the inverse of the free-class block
    ``Y_ff`` of the nodal admittance that both models solve on (built line
    by line, never by inverting ``Y_ff``, so its bits do not depend on the
    BLAS thread count; or updated from the open network's after a switch
    closure), the ideal-coupling recovery order, and (on first use)
    the rotated line arrays of the linear model. ``dispatch_index`` is the
    one place a dispatch channel is resolved. Loads are not compiled:
    every solve passes them, dispatch included, as ``LoadArrays``, so a
    sweep that only changes loads reuses one compile.
    The per-class and per-line helpers take arrays with any leading batch
    axes and treat every row alike.
    """

    def __init__(self, net: Network) -> None:
        self.channels = net.channels
        pos = self.channel_pos = {ch: i for i, ch in enumerate(self.channels)}

        # Closed real lines padded to three phases, zero impedance and
        # admittance on the padding; closed ideal couplings apart. Padding
        # points at channel 0, hence at class 0.
        real: list[LineSpec] = []
        ideal: list[LineSpec] = []
        for ln in net.lines:
            if ln.closed:
                (ideal if ln.is_ideal else real).append(ln)
        z = np.zeros((len(real), 3, 3), dtype=complex)
        fch = np.zeros((len(real), 3), dtype=int)
        tch = np.zeros((len(real), 3), dtype=int)
        for l, ln in enumerate(real):
            k = len(ln.phases)
            z[l, :k, :k] = ln.z_pu
            fch[l, :k] = [pos[(ln.from_node, p)] for p in ln.phases]
            tch[l, :k] = [pos[(ln.to_node, p)] for p in ln.phases]
        width = np.array([len(ln.phases) for ln in real], dtype=int)
        live = np.arange(3) < width[:, None]
        # Each line's own inverse, stacked over the lines of one width.
        y = np.zeros_like(z)
        for k in range(1, 4):
            if np.any(same := width == k):
                y[same, :k, :k] = np.linalg.inv(z[same, :k, :k])
        self.line_z, self.line_y, self.line_live = z, y, live

        idx = NetworkIndex(net, pos, ideal)
        cc = self.channel_class = idx.channel_class
        self.n_cls = n = int(cc.max()) + 1
        self.free = idx.free
        self.free_pos = np.full(n, -1)
        self.free_pos[self.free] = np.arange(len(self.free))
        #: Global phase index of each class; an ideal coupling joins one
        #: phase only, so a class has one.
        self.class_phase = np.zeros(n, dtype=int)
        self.class_phase[cc] = [PHASE_INDEX[p] for _, p in self.channels]
        # Each class at its phase's slack phasor, which pins the slack classes.
        self.v_flat = np.array(net.slack_voltage, dtype=complex)[self.class_phase]

        self.line_fcol, self.line_tcol = cc[fch], cc[tch]
        # (open network, switch) when ``Network.close_switch`` made this
        # network; ``z`` drops it once used.
        self._opened = net.__dict__.pop("_opened", None)

        # Per real line phase (lines in order, phases in order): end classes.
        self.lp_from_cls = self.line_fcol[live]
        self.lp_to_cls = self.line_tcol[live]
        self.n_flow = len(self.lp_from_cls)

        # Ideal couplings: leaf-first recovery steps over channel indices.
        self.ideal_steps = idx.ideal_steps
        self.n_ideal_flow = sum(len(ln.phases) for ln in ideal)

        # All closed lines, real then ideal: names, phase splits, end channels.
        closed = real + ideal
        self.line_names = tuple(ln.name for ln in closed)
        bounds = np.cumsum([0] + [len(ln.phases) for ln in closed]).tolist()
        self.line_slices = tuple(slice(a, b) for a, b in zip(bounds[:-1], bounds[1:]))
        self.line_to_ch = np.concatenate([tch[live], np.array(
            [pos[(ln.to_node, p)] for ln in ideal for p in ln.phases], dtype=int)])
        self.line_from_ch = np.concatenate([fch[live], np.array(
            [pos[(ln.from_node, p)] for ln in ideal for p in ln.phases], dtype=int)])

        units = net.vvc_units
        self.vvc_units = units
        self.vvc_ch = np.array([pos[(u.node, u.phase)] for u in units], dtype=int)
        self.vvc_cls = self.channel_class[self.vvc_ch]
        droop = np.array([(u.q_min, u.q_max, u.v_min, u.v_max, u.slope) for u in units])
        self.vvc_qmin, self.vvc_qmax, self.vvc_vmin, self.vvc_vmax, self.vvc_slope = (
            droop.reshape(-1, 5).T.copy())
        coeffs = np.array([u.linear_coeffs() for u in units], dtype=float).reshape(-1, 2)
        self.vvc_k0, self.vvc_k1 = coeffs[:, 0].copy(), coeffs[:, 1].copy()

    def dispatch_index(self, channels: Iterable[tuple[str, str]]) -> np.ndarray:
        """Position of each (node, phase) channel that takes a dispatch or
        a DER unit, in order.

        Raises ``NetworkError`` naming the first channel that is not in the
        network or that is tied to the slack, where no balance row takes
        its draw.
        """
        out = []
        for node, phase in channels:
            i = self.channel_pos.get((node, phase))
            if i is None:
                raise NetworkError(f"dispatch channel {node}.{phase} is not in the network")
            if self.free_pos[self.channel_class[i]] < 0:
                raise NetworkError(f"dispatch channel {node}.{phase} is tied to the slack")
            out.append(i)
        return np.array(out, dtype=int)

    @cached_property
    def z(self) -> np.ndarray:
        """``Z = Y_ff^-1``, which the exact model, the linear model and the
        dispatch QP all read, built by the Z-bus building algorithm
        (Grainger & Stevenson, *Power System Analysis*, §8.4): level by
        level of ``_walk``, each branch copies its parents' rows, then
        columns, to its children and adds its ``z`` to their block (a line
        entered by its to ends flips both signs, which leaves ``z``); then
        the links go in. Copies and additions in a fixed order give the
        same bits on any BLAS thread count. After ``Network.close_switch``
        it is the open network's ``Z`` with the switch linked.
        """
        opened, self._opened = self._opened, None
        if opened is not None:
            net, switch = opened
            row, k = self.line_names.index(switch.name), len(switch.phases)
            return _link(net.compiled.z, self.free_pos[self.line_fcol[row, :k]],
                         self.free_pos[self.line_tcol[row, :k]], switch.z)
        # Slots: the free positions, then fresh ones, then a zero row and
        # column, slot -1, for the slack and the padding.
        child = np.where(self.line_live, self.free_pos[self.line_tcol], -1)
        parent = np.where(self.line_live, self.free_pos[self.line_fcol], -1)
        levels, flips, links, grounded, n_slots = self._walk(parent.tolist(), child.tolist())
        for l, (new, old) in flips.items():
            child[l, :len(new)], parent[l, :len(new)] = new, old
        order = [l for level in levels for l in level]
        child, parent, add = child[order], parent[order], self.line_z[order]
        z = np.zeros((n_slots + 1, n_slots + 1), dtype=complex)
        z[grounded, grounded] = 1.0
        block = child % len(z)  # flat positions of each branch's block
        block = block[:, :, None] * len(z) + block[:, None, :]
        end = 0
        for depth, level in enumerate(levels):
            start, end = end, end + len(level)
            if depth:  # the first level's parents are all tied to the slack
                new, old = child[start:end].ravel(), parent[start:end].ravel()
                z[new] = z.take(old, axis=0)
                z[:, new] = z[:, old]
            z.ravel()[block[start:end]] += add[start:end]
        for frm, to, zk in links:
            z = _link(z, frm, to, zk)
        return z[:len(self.free), :len(self.free)]

    def _walk(self, parent: list, child: list):
        """The levels of branches, ``flips``, links, grounded slots and slot
        count of ``z``, in O(lines), over the slots of the lines' ends.

        A line goes in once one side has every end placed, else it waits on
        an unplaced end of each side. Its children are the other side's
        ends, or fresh slots that one zero-impedance link per line merges
        with those already placed; ``flips`` holds (children, parents)
        where these are not (to, from). If every line left waits, the first
        has its unplaced from ends grounded through 1 p.u. until a last
        link of -1 p.u.
        """
        n = len(self.free)
        ends = [(f[:k], t[:k]) for f, t, k in zip(parent, child, self.line_live.sum(1).tolist())]
        lev = [-1] * n + [0]  # per slot; the slack, slot -1, is placed
        levels, flips, links, grounded, waiting, done = [], {}, [], [], {}, set()
        queue, at = list(range(len(ends))), 0
        while len(done) < len(ends):
            if at == len(queue):
                queue.append(l := next(l for l in range(len(ends)) if l not in done))
                for a in ends[l][0]:
                    if lev[a] < 0:
                        lev[a] = 1
                        grounded.append(a)
                        queue += waiting.pop(a, [])
            l, at = queue[at], at + 1
            if l in done:
                continue
            f, t = ends[l]
            near = [lev[a] for a in f]
            if min(near) < 0:
                far = [lev[b] for b in t]
                if min(far) < 0:
                    waiting.setdefault(f[near.index(-1)], []).append(l)
                    waiting.setdefault(t[far.index(-1)], []).append(l)
                    continue
                f, t, near = t, f, far  # in by the to ends
            done.add(l)
            lvl = max(near) + 1
            if lvl > len(levels):
                levels.append([])
            levels[lvl - 1].append(l)
            new, fresh, placed = [], [], []
            for c in t:
                if lev[c] < 0:
                    lev[c] = lvl
                    if c in waiting:
                        queue += waiting.pop(c)
                else:
                    fresh.append(n)
                    placed.append(c)
                    c, n = n, n + 1
                new.append(c)
            if fresh:
                links.append((fresh, placed, np.zeros((len(fresh), len(fresh)))))
            if new != ends[l][1]:
                flips[l] = (new, f)
        if grounded:
            links.append((grounded, [-1] * len(grounded), -np.eye(len(grounded))))
        return levels, flips, links, grounded, n

    def zbus(self, channels: np.ndarray) -> ZBus:
        """Z-bus columns of the free classes that ``channels`` (loads and
        dispatch) and the volt-var units draw at.

        The columns are copied C-ordered: a plain fancy slice is F-ordered,
        and a matrix product over it may then round differently for a batch
        than for a single draw. Every column is taken from the one cached
        ``Z`` (built, or updated after a closure, see ``z``), so it does not
        depend on which other columns are asked for.
        """
        cls = np.unique(self.channel_class[np.concatenate([channels, self.vvc_ch])])
        cls = cls[self.free_pos[cls] >= 0]
        need = self.free_pos[cls]
        z = np.ascontiguousarray(self.z[:, need])
        return ZBus(cls=cls, z=z, z_ll=z[need])

    @cached_property
    def class_rot(self) -> np.ndarray:
        """Nominal direction ``a = (1, alpha^2, alpha)`` of each class's
        phase: the ratio of its phase to phase a."""
        return _ROTATION[self.class_phase, 0]

    @cached_property
    def u_flat(self) -> np.ndarray:
        """Load-free linear state ``E/2 - j Theta`` per class: each class at
        its phase's slack phasor."""
        return np.abs(self.v_flat) ** 2 / 2.0 - 1j * np.angle(self.v_flat)

    @cached_property
    def flow_mates(self) -> np.ndarray:
        """Per real line phase, the flow positions of its line's phases in
        the order of ``line_y``'s columns; padding points at ``n_flow``."""
        pos = np.full(self.line_live.shape, self.n_flow)
        pos[self.line_live] = np.arange(self.n_flow)
        return np.repeat(pos[:, None, :], 3, axis=1)[self.line_live]

    @cached_property
    def flow_mn(self) -> np.ndarray:
        """``build_mn``'s ``m + jn`` row of every real line phase, over
        ``flow_mates``."""
        return _rotate_conj(self.line_z, self.class_phase[self.line_fcol])[self.line_live]

    @cached_property
    def flow_w_inv(self) -> np.ndarray:
        """The rows of ``rot ⊙ conj(y)``, the inverse of ``flow_mn`` per
        line: the linear model's flow is ``w^-1 (u_from - u_to)``."""
        return _rotate_conj(self.line_y, self.class_phase[self.line_fcol])[self.line_live]

    def vvc_droop(self, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``VvcSpec.response`` and its slope at one magnitude per volt-var unit.

        The slope is 0 outside the open band and at its edges: an element of
        the clamp's generalized Jacobian, as a semismooth Newton step needs.
        """
        lo, hi = m <= self.vvc_vmin, m >= self.vvc_vmax
        ramp = self.vvc_qmin + self.vvc_slope * (m - self.vvc_vmin)
        q = np.where(lo, self.vvc_qmin, np.where(hi, self.vvc_qmax, ramp))
        return q, np.where(lo | hi, 0.0, self.vvc_slope)

    def load_arrays(self, loads: Sequence[LoadSpec],
                    dispatch: Mapping[tuple[str, str], complex] | None = None) -> LoadArrays:
        """``LoadArrays`` of load specs on this network's channels, then one
        row per ``dispatch`` channel (consumption-positive), in its order."""
        dispatch = dispatch or {}
        w = [complex(v) for v in dispatch.values()]
        pad = [0.0] * len(w)
        return LoadArrays(
            channel=np.concatenate([
                np.array([self.channel_pos[(ld.node, ld.phase)] for ld in loads], dtype=int),
                self.dispatch_index(dispatch)]),
            demand=np.array([ld.demand for ld in loads] + pad, dtype=complex),
            beta_s=np.array([ld.beta_s for ld in loads] + pad, dtype=float),
            beta_z=np.array([ld.beta_z for ld in loads] + pad, dtype=float),
            fixed=np.array([-1j * ld.cap for ld in loads] + w, dtype=complex),
        )

    def class_loads(self, loads: LoadArrays) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-class load vectors (s_const, s_zmag, s_fixed).

        A class consumes ``s_const + s_zmag * |V|^2 + s_fixed``; s_fixed
        holds the capacitors and the dispatch.
        """
        return _sum_loads(loads, self.channel_class[loads.channel], self.n_cls)

    def channel_power(self, loads: LoadArrays, e: np.ndarray, vvc_q: np.ndarray) -> np.ndarray:
        """Complex power consumed per channel at squared magnitudes ``e``:
        the loads plus the volt-var draw ``vvc_q`` (one entry per unit)."""
        s_const, s_zmag, s_fixed = _sum_loads(loads, loads.channel, len(self.channels))
        s = s_const + s_zmag * e + s_fixed
        np.add.at(s, (..., self.vvc_ch), 1j * vvc_q)
        return s

    def line_currents(self, v: np.ndarray) -> np.ndarray:
        """From -> to current of every real line phase at class voltages ``v``."""
        dv = v[..., self.line_fcol] - v[..., self.line_tcol]
        return (self.line_y @ dv[..., None])[..., 0][..., self.line_live]

    def line_injection(self, v: np.ndarray) -> np.ndarray:
        """Current the real lines inject into each class: arriving minus leaving."""
        i = self.line_currents(v)
        f = np.zeros(v.shape, dtype=complex)
        np.add.at(f, (..., self.lp_to_cls), i)
        np.subtract.at(f, (..., self.lp_from_cls), i)
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
        np.add.at(acc, (..., self.line_from_ch[:n_real]), real_flow)
        np.subtract.at(acc, (..., self.line_to_ch[:n_real]), real_flow)
        out = np.zeros(acc.shape[:-1] + (self.n_ideal_flow,), dtype=complex)
        for child, parent, sign, slot in self.ideal_steps:
            f = acc[..., child]
            out[..., slot] = sign * f
            acc[..., parent] += f
        return out

    def per_line(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Split values over all closed line phases (real then ideal) by line."""
        return {name: flat[sl] for name, sl in zip(self.line_names, self.line_slices)}


def _link(z: np.ndarray, frm, to, zk: np.ndarray) -> np.ndarray:
    """A new ``z`` with a link of k x k impedance ``zk`` from slots ``frm``
    to slots ``to`` (-1: the slack): the Z-bus "add a link" step, at
    O(k n^2). With ``A`` the signed incidence (+1 from, -1 to), the link
    adds ``A^T zk^-1 A`` to ``Y``; by Woodbury, with ``U = Z A^T`` and the
    k x k ``K = zk + A U``, ``Z' = Z - U K^-1 (A Z)``."""
    k = len(zk)
    a = np.zeros((k, len(z)))
    for ends, sign in ((np.asarray(frm), 1.0), (np.asarray(to), -1.0)):
        a[np.arange(k)[ends >= 0], ends[ends >= 0]] += sign
    u = z @ a.T
    out = u @ np.linalg.solve(zk + a @ u, a @ z)
    np.subtract(z, out, out=out)  # in place: one n x n temporary less
    return out


def _sum_loads(loads: LoadArrays, bins: np.ndarray, n: int):
    shape = loads.demand.shape[:-1] + (n,)
    s_const = np.zeros(shape, dtype=complex)
    s_zmag = np.zeros(shape, dtype=complex)
    s_fixed = np.zeros(shape, dtype=complex)
    np.add.at(s_const, (..., bins), loads.beta_s * loads.demand)
    np.add.at(s_zmag, (..., bins), loads.beta_z * loads.demand)
    np.add.at(s_fixed, (..., bins), loads.fixed)
    return s_const, s_zmag, s_fixed


def wrap_angle(theta: float | np.ndarray):
    """Wrap angles to (-pi, pi]."""
    return -((-np.asarray(theta) + np.pi) % (2.0 * np.pi) - np.pi)
