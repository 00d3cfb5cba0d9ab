"""Linearized power flow in squared magnitudes and angles.

State per electrical class is (E, Theta) with E = |V|^2 and Theta the phase
angle; per line phase the oriented flow (P, Q) is measured at the receiving
end. Voltage drops couple phases through rotation-weighted impedances: with
the nominal 120-degree phase displacement folded into conj(Z), the drop rows
read

    E_up - E_dn = 2 (M P - N Q)
    Th_up - Th_dn = -(N P + M Q)

where M and N are the real and imaginary parts of the displacement-weighted
conjugate impedance. Power balance at each class closes the square system;
voltage-dependent loads and the unclamped volt-var segment keep their
E-proportional terms on the unknown side. The model is lossless, so one flow
variable per line phase suffices.

Loads enter the matrix only through the constant-impedance E terms of the
balance rows, so ``A(loads) = A0 + U V^T`` with one rank per loaded class.
The compiled feeder factors the load-free ``A0`` once; every solve is then
a Woodbury update on a batch of load draws, and a single solve is a batch
of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np

# MnPair and build_mn belong to the linear model; they live in model so that
# the compiled feeder can lay out the system pattern.
from .model import CompiledFeeder, LoadArrays, MnPair, Network, build_mn
from .exact import PhasorSolution

Channel = tuple[str, str]


def exact_mn(z: np.ndarray, v_recv: np.ndarray) -> MnPair:
    """Drop coefficients using true voltage ratios at the receiving node.

    Substituting the solved ratios V_phi / V_psi for the nominal rotation
    makes the angle drop row an identity on any converged operating point.
    """
    z = np.asarray(z, dtype=complex)
    v = np.asarray(v_recv, dtype=complex)
    gamma = v[:, None] / v[None, :]
    w = gamma * np.conj(z)
    return MnPair(m=w.real.copy(), n=w.imag.copy())


@dataclass(frozen=True)
class LinearSolution:
    """Solved linear state: per-channel E and Theta, per-line flows."""

    E: dict[Channel, float]
    theta: dict[Channel, float]
    P: dict[str, np.ndarray]
    Q: dict[str, np.ndarray]
    s_node: dict[Channel, complex]
    vvc_q: dict[Channel, float]
    residual_norm: float

    def v_mag(self, node: str, phase: str) -> float:
        return math.sqrt(self.E[(node, phase)])

    def v_deg(self, node: str, phase: str) -> float:
        return math.degrees(self.theta[(node, phase)])


class LinearSystem:
    """The linear model's square sparse system for one set of loads.

    Built on a compiled feeder's ``LinearPattern``. Exposes the class balance
    row indices so dispatch terms (and optimization variables) can be folded
    into the right-hand side.
    """

    def __init__(self, cf: CompiledFeeder, loads: LoadArrays):
        self.cf = cf
        self.loads = loads
        pattern = cf.linear
        self.row_p = pattern.row_p
        self.row_q = pattern.row_q
        s_const, s_zmag, s_fixed = cf.class_loads(loads)
        self.A = pattern.matrix(s_zmag)
        self.b0 = pattern.rhs(s_const + s_fixed)

    def rhs(self, dispatch: Mapping[Channel, complex] | None = None) -> np.ndarray:
        b = self.b0.copy()
        for ch, w in (dispatch or {}).items():
            k = self.cf.index.class_of[ch]
            if k not in self.row_p:
                raise KeyError(f"dispatch channel {ch} sits on the slack")
            w = complex(w)
            b[self.row_p[k]] += w.real
            b[self.row_q[k]] += w.imag
        return b

    def injection_rows(self, ch: Channel) -> tuple[int, int]:
        """Balance row indices (P, Q) for a channel's class."""
        k = self.cf.index.class_of[ch]
        return self.row_p[k], self.row_q[k]

    def extract(
        self, x: np.ndarray, dispatch: Mapping[Channel, complex] | None, residual: float
    ) -> LinearSolution:
        return _solution(self.cf, self.loads, x[None], dispatch, residual)


@dataclass(frozen=True)
class LinearState:
    """Per-draw arrays of a linear solution; rows are draws.

    ``E``/``theta``/``s_node`` are per channel, ``P``/``Q`` per closed line
    phase (real lines, then ideal couplings) and ``vvc_q`` per unit.
    """

    E: np.ndarray
    theta: np.ndarray
    P: np.ndarray
    Q: np.ndarray
    s_node: np.ndarray
    vvc_q: np.ndarray


def linear_state(cf: CompiledFeeder, loads: LoadArrays, x: np.ndarray,
                 dispatch: Mapping[Channel, complex] | None = None) -> LinearState:
    """Read channel and line quantities off the states ``x`` (draws, n_state)."""
    n, n_flow = cf.n_cls, cf.n_flow
    e_ch = x[..., :n][..., cf.channel_class]
    t_ch = x[..., n : 2 * n][..., cf.channel_class]
    p_real = x[..., 2 * n : 2 * n + n_flow]
    q_real = x[..., 2 * n + n_flow :]

    dispatch = {k_: complex(v) for k_, v in (dispatch or {}).items()}
    q_vvc = cf.vvc_k0 + cf.vvc_k1 * e_ch[..., cf.vvc_ch]
    s_ch = cf.channel_power(loads, e_ch, q_vvc, dispatch)
    ideal = cf.ideal_flows(s_ch, p_real + 1j * q_real)
    return LinearState(E=e_ch, theta=t_ch,
                       P=np.concatenate([p_real, ideal.real], axis=-1),
                       Q=np.concatenate([q_real, ideal.imag], axis=-1),
                       s_node=s_ch, vvc_q=q_vvc)


def _solution(cf: CompiledFeeder, loads: LoadArrays, x: np.ndarray,
              dispatch: Mapping[Channel, complex] | None, residual: float) -> LinearSolution:
    """The ``LinearSolution`` of a batch of one state."""
    st = linear_state(cf, loads.batch(), x, dispatch)
    units = cf.vvc_units
    return LinearSolution(
        E=dict(zip(cf.channels, st.E[0].tolist())),
        theta=dict(zip(cf.channels, st.theta[0].tolist())),
        P=cf.per_line(st.P[0]),
        Q=cf.per_line(st.Q[0]),
        s_node=dict(zip(cf.channels, st.s_node[0].tolist())),
        vvc_q={(u.node, u.phase): qv for u, qv in zip(units, st.vvc_q[0].tolist())},
        residual_norm=residual,
    )


def solve_linear(
    net: Network,
    dispatch: Mapping[Channel, complex] | None = None,
    residual_tol: float = 1e-10,
) -> LinearSolution:
    """Solve the linearized power flow with optional controllable dispatch.

    Dispatch is consumption-positive, matching the exact solver.
    """
    cf = net.compiled
    return solve_linear_compiled(cf, cf.load_arrays(net.loads), dispatch, residual_tol)


def solve_linear_compiled(
    cf: CompiledFeeder,
    loads: LoadArrays,
    dispatch: Mapping[Channel, complex] | None = None,
    residual_tol: float = 1e-10,
) -> LinearSolution:
    """``solve_linear`` on a compiled feeder with the given loads."""
    x, res = linear_response(cf, loads.batch(), dispatch, residual_tol)
    return _solution(cf, loads, x, dispatch, float(res[0]))


def linear_response(
    cf: CompiledFeeder,
    loads: LoadArrays,
    dispatch: Mapping[Channel, complex] | None = None,
    residual_tol: float = 1e-10,
) -> tuple[np.ndarray, np.ndarray]:
    """States (draws, n_state) and residuals (draws,) for a batch of loads.

    With y = A0^-1 b read off the cached balance-row solves G, the Woodbury
    identity gives x = y - A0^-1 U (I + V^T A0^-1 U)^-1 V^T y, one r x r
    capacitance solve per draw over the r classes with constant-impedance
    load. Every product that forms a draw's state is a stacked
    matrix-vector product, so the state does not depend on the batch
    around it. Raises
    ``RuntimeError`` when any draw's ``A x - b`` exceeds ``residual_tol``.
    """
    pattern = cf.linear
    dispatch = {k: complex(v) for k, v in (dispatch or {}).items()}
    s_const, s_zmag, s_fixed = cf.class_loads(loads)
    s_base = s_const + s_fixed
    touched = [cf.channel_class[loads.channel], cf.vvc_cls]
    for ch, w in dispatch.items():
        k = cf.index.class_of[ch]
        if pattern.bal_pos[k] < 0:
            raise KeyError(f"dispatch channel {ch} sits on the slack")
        s_base[..., k] += w
        touched.append([k])
    rhs_cls = np.unique(np.concatenate(touched).astype(int))
    rhs_cls = rhs_cls[pattern.bal_pos[rhs_cls] >= 0]
    z_cls = np.unique(cf.channel_class[loads.channel[loads.beta_z != 0]])
    z_cls = z_cls[pattern.bal_pos[z_cls] >= 0]

    rhs = np.concatenate([s_base[:, rhs_cls].real,
                          s_base[:, rhs_cls].imag + pattern.k0[rhs_cls]], axis=-1)
    x = pattern.x_pin + (pattern.response(rhs_cls) @ rhs[..., None])[..., 0]
    zr, zi = s_zmag[:, z_cls].real, s_zmag[:, z_cls].imag
    if len(z_cls):
        r = len(z_cls)
        g = pattern.response(z_cls)
        ge = g[z_cls]  # the E rows of the loaded classes
        cap = np.eye(r) - ge[:, :r] * zr[:, None, :] - ge[:, r:] * zi[:, None, :]
        try:
            w = np.linalg.solve(cap, x[:, z_cls, None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"singular linear system: {exc}") from exc
        x = x + (g @ np.concatenate([zr * w, zi * w], axis=-1)[..., None])[..., 0]

    # Audit A x - b = A0 x + U (V^T x) - b on every draw.
    row_p = pattern.bal_row_p[pattern.bal_pos[rhs_cls]]
    b = np.repeat(pattern.b_pin[None], len(x), axis=0)
    b[:, row_p] = rhs[:, : len(rhs_cls)]
    b[:, row_p + 1] = rhs[:, len(rhs_cls) :]
    ax = (pattern.a0 @ x.T).T
    row_z = pattern.bal_row_p[pattern.bal_pos[z_cls]]
    ax[:, row_z] -= zr * x[:, z_cls]
    ax[:, row_z + 1] -= zi * x[:, z_cls]
    res = np.max(np.abs(ax - b), axis=-1, initial=0.0)
    worst = float(np.max(res, initial=0.0))
    if worst > residual_tol:
        raise RuntimeError(f"linear solve residual {worst:.3e} exceeds {residual_tol:.1e}")
    return x, res


def angle_residual(net: Network, sol: PhasorSolution) -> float:
    """Deviation of the angle drop rows evaluated with exact voltage ratios.

    On a converged exact solution the angle row with true-ratio coefficients
    is an algebraic identity, so this measures solver and bookkeeping error;
    values near machine precision validate the linear model's sign and
    orientation conventions.
    """
    worst = 0.0
    for ln in net.index.real_lines:
        vm = np.array([sol.V[(ln.from_node, p)] for p in ln.phases])
        vn = np.array([sol.V[(ln.to_node, p)] for p in ln.phases])
        flow = sol.S_line[ln.name]
        mn = exact_mn(ln.z, vn)
        lhs = np.imag(vm * np.conj(vn))
        rhs = -(mn.n @ flow.real + mn.m @ flow.imag)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst
