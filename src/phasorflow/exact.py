"""Exact unbalanced power flow via Newton's method in polar coordinates.

Each electrical class (channels merged across ideal couplings) carries one
complex voltage unknown, split into magnitude and angle. The residual is the
complex nodal current balance; its real and imaginary parts form the Newton
system together with the analytic partial derivatives of both the line
currents and the voltage-dependent load currents. Meshed topologies need no
special handling.

Volt-var units respond to voltage magnitude, so their reactive draw is held
fixed inside each Newton solve and updated in an outer fixed-point loop until
the draw is self-consistent.

The network enters through its ``CompiledFeeder``: the Jacobian scales the
dense nodal admittance, and loads arrive as per-class vectors, so a sweep
over loads reuses one compile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .model import CompiledFeeder, LoadArrays, Network

Channel = tuple[str, str]


class NonConvergenceError(RuntimeError):
    """Newton iteration failed to reach the residual tolerance."""

    def __init__(self, message: str, residual_history: list[float]):
        super().__init__(message)
        self.residual_history = residual_history


@dataclass(frozen=True)
class PhasorSolution:
    """Converged operating point of a network.

    ``I`` holds per-line phase currents oriented from -> to; ``S_line`` is
    the apparent power measured at the receiving end, ``V_to * conj(I)``.
    ``s_node`` is the net complex power consumed at each channel, including
    capacitors, controllable dispatch, and volt-var response.
    """

    V: dict[Channel, complex]
    I: dict[str, np.ndarray]
    S_line: dict[str, np.ndarray]
    s_node: dict[Channel, complex]
    vvc_q: dict[Channel, float]
    dispatch: dict[Channel, complex]
    iterations: int
    residual_norm: float

    def v_mag(self, node: str, phase: str) -> float:
        return abs(self.V[(node, phase)])

    def v_deg(self, node: str, phase: str) -> float:
        return float(np.degrees(np.angle(self.V[(node, phase)])))


def _load_current(cf: CompiledFeeder, inj, m_free: np.ndarray, v_free: np.ndarray) -> np.ndarray:
    s_const, s_zmag, s_fixed = (a[cf.free] for a in inj)
    return np.conj((s_const + s_zmag * m_free**2 + s_fixed) / v_free)


def mismatch(cf: CompiledFeeder, inj, m: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Current balance of every free class at polar class voltages (m, t).

    ``inj`` holds the per-class (s_const, s_zmag, s_fixed) draw. Lines inject
    the sum of their currents ``y (v_from - v_to)``, which equals ``-Y v``
    but keeps each line's balance exact: the rows of a floating-point ``Y``
    do not sum to exactly zero, which would act as a shunt of order
    eps * |y| and shift the solution. The loads draw ``conj(s / v)``.
    """
    v = m * np.exp(1j * t)
    return cf.line_injection(v)[cf.free] - _load_current(cf, inj, m[cf.free], v[cf.free])


def jacobian(cf: CompiledFeeder, inj, m: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Real Jacobian of ``mismatch`` over the free magnitudes, then angles.

    Rows are the real then the imaginary mismatch parts. The line part is
    ``Y[free, free]`` scaled by dV/dm = v/m and dV/dt = 1j v per column; the
    loads add a diagonal.
    """
    free = cf.free
    nf = len(free)
    mf = m[free]
    v = mf * np.exp(1j * t[free])
    drawn = _load_current(cf, inj, mf, v)
    jm = -(cf.y_free_free * (v / mf))
    jt = -(cf.y_free_free * (1j * v))
    di = np.diag_indices(nf)
    jm[di] -= np.conj(2.0 * inj[1][free] * mf) / np.conj(v) - drawn / mf
    jt[di] -= 1j * drawn
    jac = np.empty((2 * nf, 2 * nf))
    jac[:nf, :nf], jac[:nf, nf:] = jm.real, jt.real
    jac[nf:, :nf], jac[nf:, nf:] = jm.imag, jt.imag
    return jac


def _newton_solve(
    cf: CompiledFeeder, inj, tol: float, max_iter: int, history: list[float]
) -> tuple[np.ndarray, int, float]:
    """Run Newton iterations; return (class voltages, steps, final residual)."""
    m = np.abs(cf.v_flat)
    t = np.angle(cf.v_flat)
    free = cf.free
    nf = len(free)
    steps = 0
    for _ in range(max_iter + 1):
        f = mismatch(cf, inj, m, t)
        res = float(np.max(np.abs(f))) if nf else 0.0
        history.append(res)
        if res <= tol:
            return m * np.exp(1j * t), steps, res
        if steps >= max_iter:
            break
        rhs = np.concatenate([f.real, f.imag])
        try:
            delta = np.linalg.solve(jacobian(cf, inj, m, t), -rhs)
        except np.linalg.LinAlgError as exc:
            raise NonConvergenceError(f"singular Jacobian: {exc}", history) from exc
        dm, dt = delta[:nf], delta[nf:]
        # Backtracking keeps heavy-load starts from overshooting.
        alpha = 1.0
        for _ in range(40):
            m_try = m.copy()
            t_try = t.copy()
            m_try[free] = m[free] + alpha * dm
            t_try[free] = t[free] + alpha * dt
            if np.all(m_try[free] > 1e-6):
                r_try = mismatch(cf, inj, m_try, t_try)
                if float(np.max(np.abs(r_try))) < res:
                    break
            alpha *= 0.5
        else:
            raise NonConvergenceError(
                f"line search stalled at residual {res:.3e}", history
            )
        m, t = m_try, t_try
        steps += 1
    raise NonConvergenceError(
        f"no convergence after {steps} iterations (residual {history[-1]:.3e})", history
    )


def solve_exact(
    net: Network,
    dispatch: Mapping[Channel, complex] | None = None,
    tol: float = 1e-10,
    max_iter: int = 50,
    vvc_tol: float = 1e-9,
    max_vvc_iter: int = 100,
) -> PhasorSolution:
    """Solve the exact power flow, iterating volt-var response to a fixed point.

    ``dispatch`` maps (node, phase) channels to controllable complex power,
    consumption-positive: a positive real part adds load, a negative one
    injects. Raises ``NonConvergenceError`` when Newton or the volt-var
    loop fails.
    """
    cf = net.compiled
    return solve_exact_compiled(cf, cf.load_arrays(net.loads), dispatch, tol, max_iter,
                                vvc_tol, max_vvc_iter)


def solve_exact_compiled(
    cf: CompiledFeeder,
    loads: LoadArrays,
    dispatch: Mapping[Channel, complex] | None = None,
    tol: float = 1e-10,
    max_iter: int = 50,
    vvc_tol: float = 1e-9,
    max_vvc_iter: int = 100,
) -> PhasorSolution:
    """``solve_exact`` on a compiled feeder with the given loads."""
    dispatch = {k: complex(v) for k, v in (dispatch or {}).items()}
    s_const, s_zmag, s_fixed = cf.class_loads(loads)
    for ch, w in dispatch.items():
        if ch not in cf.channel_pos:
            raise KeyError(f"dispatch channel {ch} not in network")
        s_fixed[cf.channel_class[cf.channel_pos[ch]]] += w
    units = cf.vvc_units

    def newton(q: np.ndarray) -> tuple[np.ndarray, int, float]:
        # The volt-var draw is held fixed inside each Newton solve.
        s_vvc = s_fixed.copy()
        np.add.at(s_vvc, cf.vvc_cls, 1j * q)
        return _newton_solve(cf, (s_const, s_zmag, s_vvc), tol, max_iter, history)

    history: list[float] = []
    total_steps = 0
    q = cf.vvc_q0
    if len(units) == 0:
        v, steps, res = newton(q)
        total_steps = steps
    else:
        for outer in range(max_vvc_iter):
            v, steps, res = newton(q)
            total_steps += steps
            vm = np.abs(v[cf.vvc_cls])
            q_new = np.array([u.response(x) for u, x in zip(units, vm)])
            if np.max(np.abs(q_new - q)) <= vvc_tol:
                q = q_new
                break
            q = q_new
        else:
            raise NonConvergenceError("volt-var fixed point did not settle", history)
        v, steps, res = newton(q)
        total_steps += steps

    return _build_solution(cf, loads, v, q, dispatch, total_steps, res)


def _build_solution(
    cf: CompiledFeeder,
    loads: LoadArrays,
    v_cls: np.ndarray,
    q: np.ndarray,
    dispatch: dict[Channel, complex],
    steps: int,
    res: float,
) -> PhasorSolution:
    v_ch = v_cls[cf.channel_class]
    units = cf.vvc_units
    # Channels can share a class but vvc channels are distinct per unit.
    vvc_q = {(u.node, u.phase): float(qi) for u, qi in zip(units, q)}
    s_ch = cf.channel_power(loads, np.abs(v_ch) ** 2, q, dispatch)
    i_real = cf.line_currents(v_cls)
    i_all = np.concatenate([i_real, cf.ideal_flows(np.conj(s_ch / v_ch), i_real)])
    s_all = v_ch[cf.line_to_ch] * np.conj(i_all)
    return PhasorSolution(
        V=dict(zip(cf.channels, v_ch.tolist())),
        I=cf.per_line(i_all),
        S_line=cf.per_line(s_all),
        s_node=dict(zip(cf.channels, s_ch.tolist())),
        vvc_q=vvc_q,
        dispatch=dispatch,
        iterations=steps,
        residual_norm=res,
    )


def kcl_residual(net: Network, sol: PhasorSolution) -> float:
    """Largest per-channel current imbalance implied by a solution.

    Recomputes the drawn current from the network data and the solution
    phasors (not from the stored per-channel powers), so it independently
    checks both the voltages and the recovered coupling flows.
    """
    cf = net.compiled
    v = np.array([sol.V[ch] for ch in net.channels])
    q = np.array([sol.vvc_q[(u.node, u.phase)] for u in net.vvc_units])
    s = cf.channel_power(cf.load_arrays(net.loads), np.abs(v) ** 2, q, sol.dispatch)
    bal = dict(zip(net.channels, (-np.conj(s / v)).tolist()))
    for ln in net.lines:
        if not ln.closed:
            continue
        i = sol.I[ln.name]
        for pi, p in enumerate(ln.phases):
            bal[(ln.to_node, p)] += i[pi]
            bal[(ln.from_node, p)] -= i[pi]
    worst = 0.0
    for ch, b in bal.items():
        if ch[0] == net.slack_id or net.index.class_of[ch] in net.index.slack_value:
            continue
        worst = max(worst, abs(b))
    return worst


def switch_flow_estimate(v_from: np.ndarray, v_to: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Receiving-end apparent power if a tie with admittance ``y`` closed now.

    Evaluates ``V_to * conj(Y (V_from - V_to))`` at the given (typically
    pre-closure) phasors; no network re-solve is involved.
    """
    v_from = np.asarray(v_from, dtype=complex)
    v_to = np.asarray(v_to, dtype=complex)
    return v_to * np.conj(np.asarray(y, dtype=complex) @ (v_from - v_to))
