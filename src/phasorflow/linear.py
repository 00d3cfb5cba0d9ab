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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

import numpy as np
import scipy.sparse.linalg as spla

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
        cf = self.cf
        n, n_flow = cf.n_cls, cf.n_flow
        e_ch = x[:n][cf.channel_class]
        t_ch = x[n : 2 * n][cf.channel_class]
        p_real = x[2 * n : 2 * n + n_flow]
        q_real = x[2 * n + n_flow :]

        dispatch = {k_: complex(v) for k_, v in (dispatch or {}).items()}
        q_vvc = cf.vvc_k0 + cf.vvc_k1 * e_ch[cf.vvc_ch]
        s_ch = cf.channel_power(self.loads, e_ch, q_vvc, dispatch)
        ideal = cf.ideal_flows(s_ch, p_real + 1j * q_real)
        units = cf.vvc_units
        return LinearSolution(
            E=dict(zip(cf.channels, e_ch.tolist())),
            theta=dict(zip(cf.channels, t_ch.tolist())),
            P=cf.per_line(np.concatenate([p_real, ideal.real])),
            Q=cf.per_line(np.concatenate([q_real, ideal.imag])),
            s_node=dict(zip(cf.channels, s_ch.tolist())),
            vvc_q={(u.node, u.phase): qv for u, qv in zip(units, q_vvc.tolist())},
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
    sys_ = LinearSystem(cf, loads)
    b = sys_.rhs(dispatch)
    x = spla.spsolve(sys_.A, b)
    res = float(np.max(np.abs(sys_.A @ x - b))) if len(b) else 0.0
    if res > residual_tol:
        raise RuntimeError(f"linear solve residual {res:.3e} exceeds {residual_tol:.1e}")
    return sys_.extract(x, dispatch, res)


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
