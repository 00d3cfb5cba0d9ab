"""Exact unbalanced power flow via Newton's method in polar coordinates.

Each electrical class (channels merged across ideal couplings) carries one
complex voltage unknown, split into magnitude and angle. The residual is the
complex nodal current balance; its real and imaginary parts form the Newton
system together with the analytic partial derivatives of both the line
currents and the voltage-dependent load currents. Meshed topologies need no
special handling.

Volt-var droops are clamps, piecewise linear in |V|, so they sit in the
residual as a semismooth term: Newton uses the slope of each unit's active
segment (Qi & Sun 1993), and one run settles voltages and volt-var together.

The network enters through its ``CompiledFeeder``: the Jacobian scales the
dense nodal admittance, and loads arrive as per-class vectors, so a sweep
over loads reuses one compile. Newton runs on a batch of load draws at
once, each draw with its own step, line search and stopping point; a
single solve is a batch of one, so a draw solved in a sweep is bit for bit
the draw solved alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .model import CompiledFeeder, LoadArrays, Network

Channel = tuple[str, str]

#: Bytes of stacked Jacobians built and factored at once. A batch needs a
#: Jacobian per draw, 32 nf^2 bytes for nf free classes; on a large feeder a
#: stack of many draws gains nothing over a few and costs memory, so larger
#: batches are solved in chunks of this size.
JACOBIAN_STACK_BYTES = 256 << 10


class NonConvergenceError(RuntimeError):
    """Newton iteration failed to reach the residual tolerance.

    ``residual_history`` is the residual of every iterate of the one Newton
    run, from the flat start to where it stopped.
    """

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


def _draw(cf: CompiledFeeder, inj, m: np.ndarray,
          slope: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-class draw ``s(m)``, volt-var included, and ``ds/dm`` (if ``slope``)
    at magnitudes ``m``."""
    s_const, s_zmag, s_fixed = inj
    s = s_const + s_zmag * m**2 + s_fixed
    ds = 2.0 * s_zmag * m if slope else None
    if len(cf.vvc_cls):
        q, dq = cf.vvc_droop(m[..., cf.vvc_cls])
        np.add.at(s, (..., cf.vvc_cls), 1j * q)
        if slope:
            np.add.at(ds, (..., cf.vvc_cls), 1j * dq)
    return s, ds


def mismatch(cf: CompiledFeeder, inj, m: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Current balance of every free class at polar class voltages (m, t).

    ``inj`` holds the per-class (s_const, s_zmag, s_fixed) loads and dispatch,
    no volt-var. Lines inject the sum of their currents ``y (v_from - v_to)``,
    which equals ``-Y v`` but keeps each line's balance exact: the rows of a
    floating-point ``Y`` do not sum to exactly zero, which would act as a
    shunt of order eps * |y| and shift the solution. The loads draw
    ``conj(s(m) / v)``, volt-var included. Takes one point or a batch,
    with the class axis last.
    """
    v = m * np.exp(1j * t)
    s = _draw(cf, inj, m, slope=False)[0]
    return (cf.line_injection(v) - np.conj(s / v))[..., cf.free]


def jacobian(cf: CompiledFeeder, inj, m: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Real Jacobian of ``mismatch`` over the free magnitudes, then angles.

    Rows are the real then the imaginary mismatch parts. The line part is
    ``Y[free, free]`` scaled by dV/dm = v/m and dV/dt = 1j v per column; the
    loads add a diagonal through ``ds/dm``, which carries the slope of each
    volt-var unit's active droop segment. Takes one point or a batch.
    """
    free = cf.free
    nf = len(free)
    mf = m[..., free]
    v = mf * np.exp(1j * t[..., free])
    s, ds = (a[..., free] for a in _draw(cf, inj, m))
    drawn = np.conj(s / v)
    jac = np.empty(m.shape[:-1] + (2 * nf, 2 * nf))
    di = np.arange(nf)
    # Each complex block, -Y with scaled columns and the loads on its diagonal,
    # fills its columns of the real rows, then of the imaginary rows.
    for col, scale, diag in ((0, v / mf, np.conj(ds) / np.conj(v) - drawn / mf),
                             (nf, 1j * v, 1j * drawn)):
        block = cf.y_free_free * -scale[..., None, :]
        block[..., di, di] -= diag
        jac[..., :nf, col : col + nf] = block.real
        jac[..., nf:, col : col + nf] = block.imag
    return jac


@dataclass(frozen=True)
class NewtonBatch:
    """Outcome of Newton on a batch of draws; rows are draws.

    ``v`` holds the class voltages (NaN where the draw failed), ``steps``
    and ``residual`` where each draw stopped, ``history`` every draw's
    residual trajectory from the flat start, and ``error`` the failure
    message of each draw, or None where it converged.
    """

    v: np.ndarray
    steps: np.ndarray
    residual: np.ndarray
    history: list[list[float]]
    error: list[str | None]


def newton_batch(cf: CompiledFeeder, inj: Sequence[np.ndarray], tol: float = 1e-10,
                 max_iter: int = 50) -> NewtonBatch:
    """Polar Newton on every draw of ``inj``, the per-class (s_const, s_zmag,
    s_fixed), each (draws, n_cls).

    Draws share the array work but nothing else: each keeps its own
    backtracking step and stops on its own. A singular Jacobian, a stalled
    line search or the iteration cap fails that draw only.
    """
    inj = np.array(inj)  # (3, draws, n_cls)
    n_draws = inj.shape[1]
    free = cf.free
    nf = len(free)
    chunk = max(1, JACOBIAN_STACK_BYTES // (8 * (2 * nf) ** 2)) if nf else 1
    v = np.full((n_draws, cf.n_cls), np.nan, dtype=complex)
    steps = np.zeros(n_draws, dtype=int)
    residual = np.full(n_draws, np.nan)
    history: list[list[float]] = [[] for _ in range(n_draws)]
    error: list[str | None] = [None] * n_draws

    # The draws still iterating: their ids, injections, iterates and mismatches.
    act = np.arange(n_draws)
    m = np.repeat(np.abs(cf.v_flat)[None], n_draws, axis=0)
    t = np.repeat(np.angle(cf.v_flat)[None], n_draws, axis=0)
    f = mismatch(cf, inj, m, t)
    for step in range(max_iter + 1):
        res = np.max(np.abs(f), axis=-1, initial=0.0)
        for d, r in zip(act.tolist(), res.tolist()):
            history[d].append(r)
        done = res <= tol
        if done.any():
            fin = act[done]
            v[fin] = m[done] * np.exp(1j * t[done])
            steps[fin] = step
            residual[fin] = res[done]
            act, m, t, f, res = act[~done], m[~done], t[~done], f[~done], res[~done]
            inj = inj[:, ~done]
        if not len(act):
            break
        if step == max_iter:
            for d in act.tolist():
                error[d] = (f"no convergence after {step} iterations "
                            f"(residual {history[d][-1]:.3e})")
            break

        rhs = -np.concatenate([f.real, f.imag], axis=-1)[..., None]
        delta = np.empty(rhs.shape[:-1])
        ok = np.ones(len(act), dtype=bool)
        for lo in range(0, len(act), chunk):
            sl = slice(lo, lo + chunk)
            jac = jacobian(cf, inj[:, sl], m[sl], t[sl])
            try:
                delta[sl] = np.linalg.solve(jac, rhs[sl])[..., 0]
            except np.linalg.LinAlgError:
                # Find the singular draws one by one; the rest keep their step.
                for i in range(lo, min(lo + chunk, len(act))):
                    try:
                        delta[i] = np.linalg.solve(jac[i - lo], rhs[i])[..., 0]
                    except np.linalg.LinAlgError as exc:
                        ok[i] = False
                        error[act[i]] = f"singular Jacobian: {exc}"

        # Backtracking keeps heavy-load starts from overshooting: the draws
        # whose residual has not dropped yet retry at half the step.
        rows = np.flatnonzero(ok)
        if len(rows) < len(act):
            m_0, t_0, dx, inj_0, res_0 = m[rows], t[rows], delta[rows], inj[:, rows], res[rows]
        else:
            m_0, t_0, dx, inj_0, res_0 = m, t, delta, inj, res
        alpha = 1.0
        for _ in range(40):
            m_try, t_try = m_0.copy(), t_0.copy()
            m_try[:, free] += alpha * dx[:, :nf]
            t_try[:, free] += alpha * dx[:, nf:]
            # A trial magnitude at or below 1e-6 fails whatever its residual.
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                r_try = mismatch(cf, inj_0, m_try, t_try)
            better = (np.all(m_try[:, free] > 1e-6, axis=-1)
                      & (np.max(np.abs(r_try), axis=-1, initial=0.0) < res_0))
            if len(rows) == len(act) and better.all():
                m, t, f = m_try, t_try, r_try
                rows = rows[:0]
                break
            won = rows[better]
            m[won], t[won], f[won] = m_try[better], t_try[better], r_try[better]
            lost = ~better
            if not lost.any():
                rows = rows[:0]
                break
            rows, m_0, t_0, dx, res_0 = rows[lost], m_0[lost], t_0[lost], dx[lost], res_0[lost]
            inj_0 = inj_0[:, lost]
            alpha *= 0.5
        for i in rows.tolist():
            ok[i] = False
            error[act[i]] = f"line search stalled at residual {res[i]:.3e}"
        if not ok.all():
            act, m, t, f, inj = act[ok], m[ok], t[ok], f[ok], inj[:, ok]

    return NewtonBatch(v=v, steps=steps, residual=residual, history=history, error=error)


def _injections(cf: CompiledFeeder, loads: LoadArrays,
                dispatch: dict[Channel, complex]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-class (s_const, s_zmag, s_fixed) of a load batch, dispatch in s_fixed."""
    s_const, s_zmag, s_fixed = cf.class_loads(loads)
    for ch, w in dispatch.items():
        if ch not in cf.channel_pos:
            raise KeyError(f"dispatch channel {ch} not in network")
        s_fixed[..., cf.channel_class[cf.channel_pos[ch]]] += w
    return s_const, s_zmag, s_fixed


def solve_exact(
    net: Network,
    dispatch: Mapping[Channel, complex] | None = None,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> PhasorSolution:
    """Solve the exact power flow; volt-var units settle inside the Newton run.

    ``dispatch`` maps (node, phase) channels to controllable complex power,
    consumption-positive: a positive real part adds load, a negative one
    injects. Raises ``NonConvergenceError`` when Newton fails.
    """
    cf = net.compiled
    return solve_exact_compiled(cf, cf.load_arrays(net.loads), dispatch, tol, max_iter)


def solve_exact_compiled(
    cf: CompiledFeeder,
    loads: LoadArrays,
    dispatch: Mapping[Channel, complex] | None = None,
    tol: float = 1e-10,
    max_iter: int = 50,
) -> PhasorSolution:
    """``solve_exact`` on a compiled feeder with the given loads: ``newton_batch``
    on a batch of one draw."""
    dispatch = {k: complex(v) for k, v in (dispatch or {}).items()}
    loads = loads.batch()
    out = newton_batch(cf, _injections(cf, loads, dispatch), tol, max_iter)
    if out.error[0] is not None:
        raise NonConvergenceError(out.error[0], out.history[0])
    st = exact_state(cf, loads, out.v, dispatch)
    units = cf.vvc_units
    # Channels can share a class but vvc channels are distinct per unit.
    vvc_q = {(u.node, u.phase): float(qi) for u, qi in zip(units, st.vvc_q[0])}
    return PhasorSolution(
        V=dict(zip(cf.channels, st.V[0].tolist())),
        I=cf.per_line(st.I[0]),
        S_line=cf.per_line(st.S_line[0]),
        s_node=dict(zip(cf.channels, st.s_node[0].tolist())),
        vvc_q=vvc_q,
        dispatch=dispatch,
        iterations=int(out.steps[0]),
        residual_norm=float(out.residual[0]),
    )


@dataclass(frozen=True)
class ExactState:
    """Per-draw arrays of exact solutions; rows are draws.

    ``V``/``s_node`` are per channel, ``I``/``S_line`` per closed line
    phase (real lines, then ideal couplings) and ``vvc_q`` per unit.
    """

    V: np.ndarray
    I: np.ndarray
    S_line: np.ndarray
    s_node: np.ndarray
    vvc_q: np.ndarray


def exact_state(cf: CompiledFeeder, loads: LoadArrays, v_cls: np.ndarray,
                dispatch: Mapping[Channel, complex]) -> ExactState:
    """Channel and line quantities at class voltages ``v_cls`` (draws, n_cls)."""
    v_ch = v_cls[..., cf.channel_class]
    q = cf.vvc_droop(np.abs(v_cls[..., cf.vvc_cls]))[0]
    s_ch = cf.channel_power(loads, np.abs(v_ch) ** 2, q, dispatch)
    i_real = cf.line_currents(v_cls)
    i_all = np.concatenate([i_real, cf.ideal_flows(np.conj(s_ch / v_ch), i_real)], axis=-1)
    s_all = v_ch[..., cf.line_to_ch] * np.conj(i_all)
    return ExactState(V=v_ch, I=i_all, S_line=s_all, s_node=s_ch, vvc_q=q)


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
