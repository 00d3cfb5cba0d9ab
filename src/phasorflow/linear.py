"""Linearized power flow in squared magnitudes and angles.

State per electrical class is (E, Theta) with E = |V|^2 and Theta the phase
angle; per line phase the oriented flow (P, Q) is measured at the receiving
end. Voltage drops couple phases through rotation-weighted impedances: with
the nominal 120-degree phase displacement folded into conj(Z), the drop rows
read

    E_up - E_dn = 2 (M P - N Q)
    Th_up - Th_dn = -(N P + M Q)

where M and N are the real and imaginary parts of the displacement-weighted
conjugate impedance w = rot * conj(z), rot[i, j] = a_i / a_j with
a = (1, alpha^2, alpha) for phases (a, b, c). Power balance at each class
closes the square system; voltage-dependent loads and the unclamped
volt-var segment keep their E-proportional terms on the unknown side. The
model is lossless, so one flow variable per line phase suffices.

With u = E/2 - j Theta per class the drop rows read u_up - u_dn = w S, so
the flow is S = w^-1 (u_up - u_dn) with w^-1 = rot * conj(y): the linear
model is a nodal system whose line admittance is w^-1. Every class is one
phase, so its nodal matrix is D conj(Y_ff) D^-1 with D = diag(a_phase), and
its inverse is Z_lin = D conj(Z) D^-1, the exact model's Z-bus conjugated
and phase-rotated. A free class consuming d + c E then sits at

    u = u_flat - Z_lin (d + c E),

u_flat being its phase's slack value. The classes W whose draw depends on
E (constant-impedance load or volt-var) first solve one real |W| x |W|
system for E_W. So the linear model reads the same cached Z-bus columns as
Newton and factors nothing of its own; every solve is checked against the
drop and balance rows written from ``build_mn`` and the flow incidence.

A dispatch enters ``d`` as one more fixed-power load row, resolved once in
``CompiledFeeder.load_arrays``, as it does for Newton.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

# MnPair and build_mn belong to the linear model; they live in model so that
# the compiled feeder can stack them per line.
from .model import CompiledFeeder, LoadArrays, MnPair, Network, ZBus, build_mn
from .exact import PhasorSolution

Channel = tuple[str, str]

#: Largest ``A x - b`` entry a linear solve may leave.
LINEAR_RESIDUAL_TOL = 1e-10


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


def linear_state(cf: CompiledFeeder, loads: LoadArrays, x: np.ndarray) -> LinearState:
    """Read channel and line quantities off the states ``x`` (draws, n_state)."""
    n, n_flow = cf.n_cls, cf.n_flow
    e_ch = x[..., :n][..., cf.channel_class]
    t_ch = x[..., n : 2 * n][..., cf.channel_class]
    p_real = x[..., 2 * n : 2 * n + n_flow]
    q_real = x[..., 2 * n + n_flow :]

    q_vvc = cf.vvc_k0 + cf.vvc_k1 * e_ch[..., cf.vvc_ch]
    s_ch = cf.channel_power(loads, e_ch, q_vvc)
    ideal = cf.ideal_flows(s_ch, p_real + 1j * q_real)
    return LinearState(E=e_ch, theta=t_ch,
                       P=np.concatenate([p_real, ideal.real], axis=-1),
                       Q=np.concatenate([q_real, ideal.imag], axis=-1),
                       s_node=s_ch, vvc_q=q_vvc)


def _solution(cf: CompiledFeeder, loads: LoadArrays, x: np.ndarray,
              residual: float) -> LinearSolution:
    """The ``LinearSolution`` of a batch of one state."""
    st = linear_state(cf, loads.batch(), x)
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
) -> LinearSolution:
    """Solve the linearized power flow with optional controllable dispatch.

    Dispatch is consumption-positive, matching the exact solver.
    """
    cf = net.compiled
    loads = cf.load_arrays(net.loads, dispatch)
    x, res = linear_response(cf, loads.batch())
    return _solution(cf, loads, x, float(res[0]))


def linear_response(cf: CompiledFeeder, loads: LoadArrays) -> tuple[np.ndarray, np.ndarray]:
    """States (draws, n_state) and residuals (draws,) for a batch of loads.

    Every product that forms a draw's state is a stacked matrix-vector
    product, and the E-coupled solve a stacked solve, so the state does not
    depend on the batch around it. Raises ``RuntimeError`` when any draw's
    ``A x - b`` exceeds ``LINEAR_RESIDUAL_TOL``.
    """
    d, c = _draws(cf, loads)
    zb, coupled = _columns(cf, loads)
    delta = np.zeros(d.shape, dtype=complex)
    delta[:, cf.free] = _nodal(cf, zb, coupled, True, d[:, zb.cls], c[:, zb.cls])
    x = _state(cf, delta)
    return x, _audit(cf, x, d, c, LINEAR_RESIDUAL_TOL)


def control_response(cf: CompiledFeeder, loads: LoadArrays, channels: Sequence[Channel]
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class rows ``[E; Theta]`` of the linear state as an affine map of
    the consumption ``w`` at ``channels``: ``x0 + B [Re w; Im w]``.

    Returns ``x0``, the state under ``loads`` alone, its offset ``dx0``
    from the flat state, and ``B``, whose column ``i`` is the response to
    a unit real draw at channel ``i`` and column ``k + i`` to a unit
    reactive one. All come from the same Z-bus columns.
    """
    loads = loads.batch()
    d, c = _draws(cf, loads)
    pos = cf.dispatch_index(channels)
    zb, coupled = _columns(cf, loads, pos)
    k = len(pos)
    unit = np.zeros((2 * k, len(zb.cls)), dtype=complex)
    at = np.searchsorted(zb.cls, cf.channel_class[pos])
    unit[np.arange(k), at] = 1.0
    unit[np.arange(k, 2 * k), at] = 1j
    delta = np.zeros((1 + 2 * k, cf.n_cls), dtype=complex)
    delta[:1, cf.free] = _nodal(cf, zb, coupled, True, d[:, zb.cls], c[:, zb.cls])
    delta[1:, cf.free] = _nodal(cf, zb, coupled, False, unit, c[:, zb.cls])
    u0 = cf.u_flat + delta[0]
    dx = np.concatenate([2.0 * delta.real, -delta.imag], axis=-1)
    return np.concatenate([2.0 * u0.real, -u0.imag]), dx[0], dx[1:].T


def class_solution(cf: CompiledFeeder, loads: LoadArrays, dx: np.ndarray,
                   residual_tol: float) -> LinearSolution:
    """The audited ``LinearSolution`` whose class rows ``[E; Theta]`` sit
    ``dx`` off the flat state, under ``loads``."""
    n = cf.n_cls
    x = _state(cf, (dx[:n] / 2.0 - 1j * dx[n:])[None])
    d, c = _draws(cf, loads.batch())
    return _solution(cf, loads, x, float(_audit(cf, x, d, c, residual_tol)[0]))


def _draws(cf: CompiledFeeder, loads: LoadArrays) -> tuple[np.ndarray, np.ndarray]:
    """Per-class draw ``d`` and E coefficient ``c`` (draws, n_cls): a free
    class consumes ``d + c E`` in the linear model."""
    s_const, s_zmag, s_fixed = cf.class_loads(loads)
    d = s_const + s_fixed
    k0, k1 = np.zeros(cf.n_cls), np.zeros(cf.n_cls)
    np.add.at(k0, cf.vvc_cls, cf.vvc_k0)
    np.add.at(k1, cf.vvc_cls, cf.vvc_k1)
    return d + 1j * k0, s_zmag + 1j * k1


def _columns(cf: CompiledFeeder, loads: LoadArrays, extra=None) -> tuple[ZBus, np.ndarray]:
    """Z-bus columns at the classes that draw power (``loads``, the ``extra``
    channel positions and the volt-var units), and the positions among them
    of the E-coupled classes: constant-impedance load or volt-var."""
    zb = cf.zbus(loads.channel if extra is None else np.concatenate([loads.channel, extra]))
    coupled = np.concatenate([cf.channel_class[loads.channel[loads.beta_z != 0]], cf.vvc_cls])
    return zb, np.flatnonzero(np.isin(zb.cls, coupled))


def _nodal(cf: CompiledFeeder, zb: ZBus, coupled: np.ndarray, flat: bool,
           d: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Offset ``u - u_flat = -Z_lin (d + c E)`` of the free classes, with
    ``d`` (draws, L) and ``c`` (draws or 1, L) given at the classes
    ``zb.cls``.

    ``Z_lin = D conj(Z) D^-1`` is applied as ``a ∘ conj(Z (a ∘ conj(v)))``
    for ``D = diag(a)``. ``E`` at the ``coupled`` positions W first solves
    the real ``(I + 2 Re(Z_lin[W, W] diag c_W)) E_W = E0_W - 2 Re(Z_lin d)_W``,
    where ``E0`` is the flat ``2 Re u_flat``, or 0 for the response to ``d``
    alone (``flat`` False). A ``c`` shared by every draw is one matrix
    product and one solve for all of them; otherwise each draw's products
    and solve are its own, so a draw's offset does not depend on the batch.
    """
    a_l = cf.class_rot[zb.cls]
    shared = len(c) == 1 < len(d)

    def z_times(z: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``conj(z (a_l ∘ conj(v)))`` per draw: one product for a shared ``c``,
        else a stacked matrix-vector product per draw."""
        v = a_l * np.conj(v)
        return np.conj((z @ v.T).T if shared else (z @ v[..., None])[..., 0])

    s = d
    if len(coupled):
        a_w = a_l[coupled]
        z_w = zb.z_ll[coupled]
        rhs = -2.0 * (a_w * z_times(z_w, d)).real
        if flat:
            rhs = 2.0 * cf.u_flat[zb.cls[coupled]].real + rhs
        z_ww = a_w[:, None] * np.conj(z_w[:, coupled]) * np.conj(a_w)
        c_w = c[..., None, coupled]
        cap = np.eye(len(coupled)) + 2.0 * (z_ww.real * c_w.real - z_ww.imag * c_w.imag)
        try:
            if shared:
                e = np.linalg.solve(cap[0], rhs.T).T
            else:
                e = np.linalg.solve(cap, rhs[..., None])[..., 0]
        except np.linalg.LinAlgError as exc:
            raise RuntimeError(f"singular linear system: {exc}") from exc
        s = d.copy()
        s[..., coupled] += c[..., coupled] * e
    return -cf.class_rot[cf.free] * z_times(zb.z, s)


def _state(cf: CompiledFeeder, delta: np.ndarray) -> np.ndarray:
    """States [E; Theta; P; Q] of the class offsets ``delta = u - u_flat``.

    Flows read the offsets alone: both ends of a line phase share their
    phase's ``u_flat``, and leaving it out keeps the angle's rounding out
    of the flow.
    """
    u = cf.u_flat + delta
    s = _per_line(cf, cf.flow_w_inv, delta[..., cf.lp_from_cls] - delta[..., cf.lp_to_cls])
    return np.concatenate([2.0 * u.real, -u.imag, s.real, s.imag], axis=-1)


def _per_line(cf: CompiledFeeder, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Each real line's block applied to its own phases of ``v`` (draws,
    n_flow): row ``f`` of ``w`` against ``v`` at ``cf.flow_mates[f]``."""
    v = np.concatenate([v, np.zeros((len(v), 1))], axis=-1)
    m = cf.flow_mates
    return w[:, 0] * v[:, m[:, 0]] + w[:, 1] * v[:, m[:, 1]] + w[:, 2] * v[:, m[:, 2]]


def _audit(cf: CompiledFeeder, x: np.ndarray, d: np.ndarray, c: np.ndarray,
           residual_tol: float) -> np.ndarray:
    """``max |A x - b|`` per draw over the model's rows, written from the
    drop coefficients and the flow incidence alone, so an error in the
    Z-bus solve or the rotation shows here.

    Raises ``RuntimeError`` when a draw exceeds ``residual_tol`` times
    ``max(1, max |d|, max |c|)``, a backward-error bound: a draw of 1e6
    p.u. is solved as well as a draw of 1 when its residual is 1e6 times
    larger. The pin rows of the slack classes hold by construction.
    """
    n, nf = cf.n_cls, cf.n_flow
    e, theta = x[:, :n], x[:, n : 2 * n]
    s = x[:, 2 * n : 2 * n + nf] + 1j * x[:, 2 * n + nf :]
    # Drop rows per real line phase: (m + jn) S against dE/2 - j dTheta.
    ws = _per_line(cf, cf.flow_mn, s)
    drop_e = e[:, cf.lp_from_cls] - e[:, cf.lp_to_cls] - 2.0 * ws.real
    drop_t = theta[:, cf.lp_from_cls] - theta[:, cf.lp_to_cls] + ws.imag
    # Balance rows per free class: arriving minus leaving flow is the draw.
    at = (np.arange(len(x))[:, None] * n + np.concatenate([cf.lp_to_cls, cf.lp_from_cls])).ravel()
    signed = np.concatenate([s, -s], axis=-1).ravel()
    inflow = (np.bincount(at, signed.real, len(x) * n)
              + 1j * np.bincount(at, signed.imag, len(x) * n)).reshape(len(x), n)
    bal = (inflow - d - c * e)[:, cf.free]
    res = np.max(np.abs(np.concatenate([drop_e, drop_t, bal.real, bal.imag], axis=-1)),
                 axis=-1, initial=0.0)
    bound = residual_tol * np.maximum(
        1.0, np.max(np.abs(np.concatenate([d, c], axis=-1)), axis=-1, initial=0.0))
    if np.any(over := res > bound):
        i = int(np.argmax(over))  # the first draw over its bound
        raise RuntimeError(f"linear solve residual {res[i]:.3e} exceeds {bound[i]:.1e}")
    return res


def angle_residual(net: Network, sol: PhasorSolution) -> float:
    """Deviation of the angle drop rows evaluated with exact voltage ratios.

    On a converged exact solution the angle row with true-ratio coefficients
    is an algebraic identity, so this measures solver and bookkeeping error;
    values near machine precision validate the linear model's sign and
    orientation conventions.
    """
    worst = 0.0
    for ln in (ln for ln in net.lines if ln.closed and not ln.is_ideal):
        vm = np.array([sol.V[(ln.from_node, p)] for p in ln.phases])
        vn = np.array([sol.V[(ln.to_node, p)] for p in ln.phases])
        flow = sol.S_line[ln.name]
        mn = exact_mn(ln.z, vn)
        lhs = np.imag(vm * np.conj(vn))
        rhs = -(mn.n @ flow.real + mn.m @ flow.imag)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst
