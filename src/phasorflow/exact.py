"""Exact unbalanced power flow: Newton on the implicit Z-bus form.

Each electrical class (channels merged across ideal couplings) carries one
complex voltage. Kirchhoff's current law at the free classes reads
``Y_ff (v_f - v_flat) + i(v_f) = 0``, where ``i`` is the current the loads
draw: the model has no shunt admittance, so every line current vanishes at
the flat start. Only the classes with a load, capacitor, volt-var unit or
dispatch draw current; call them L. With ``Z = Y_ff^-1`` the other free
voltages follow exactly as ``v_f = v_flat - Z[:, L] i_L``, and Newton solves

    F(x) = x - v_flat_L + Z_LL i_L(x) = 0

for the loaded-class voltages ``x`` alone (the implicit Z-bus method of
Bazrafshan & Gatsis 2018, driven by Newton: current-injection Newton in
rectangular coordinates with the unloaded classes eliminated). Its real
Jacobian is the identity plus ``Z_LL`` times the derivatives of ``i_L`` in
v and conj(v). Meshed topologies need no special handling.

Every iterate is audited on the full free-class current balance, computed
line by line, and that audit is the stopping test: ``residual_norm`` is the
largest current mismatch of any free class.

Volt-var droops are clamps, piecewise linear in |V|, so they sit in the
residual as a semismooth term: Newton uses the slope of each unit's active
segment (Qi & Sun 1993), and one run settles voltages and volt-var together.

The network enters through its ``CompiledFeeder``, which caches ``Z``, and
loads arrive as per-class vectors, so a sweep over loads reuses one
compile; a dispatch is one more fixed-power load row, resolved once in
``CompiledFeeder.load_arrays``. Newton runs on a batch of load draws at
once, each draw with its own step, line search and stopping point; a
single solve is a batch of one, so a draw solved in a sweep is bit for bit
the draw solved alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .model import CompiledFeeder, LoadArrays, Network, ZBus

Channel = tuple[str, str]

#: Bytes of stacked Jacobians built and factored at once. A batch needs a
#: Jacobian per draw, 32 nl^2 bytes for nl loaded classes; on a large feeder a
#: stack of many draws gains nothing over a few and costs memory, so larger
#: batches are solved in chunks of this size.
JACOBIAN_STACK_BYTES = 256 << 10


class NonConvergenceError(RuntimeError):
    """Newton iteration failed to reach the residual tolerance.

    ``residual_history`` is the residual of every iterate of the one Newton
    run, from the flat start of the loaded classes to where it stopped.
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


def _at(cf: CompiledFeeder, zb: ZBus, x: np.ndarray) -> np.ndarray:
    """Class voltages with the loaded classes at ``x`` (draws, nl), the rest flat."""
    v = np.repeat(cf.v_flat[None], len(x), axis=0)
    v[:, zb.cls] = x
    return v


def evaluate(cf: CompiledFeeder, zb: ZBus, inj,
             x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The iterate that loaded-class voltages ``x`` (draws, nl) stand for.

    ``inj`` holds the per-class (s_const, s_zmag, s_fixed) loads, dispatch
    included, no volt-var. Returns the class voltages, with every other free
    class at ``v_flat - Z i_L(x)``; their current mismatch at every free
    class; and the Z-bus residual ``F(x) = x - v_flat_L + Z_LL i_L(x)``.

    The recovery forms only the deviation from the flat start. The mismatch
    is the audit Newton stops on: lines inject the sum of their currents
    ``y (v_from - v_to)``, which equals ``-Y v`` but keeps each line's
    balance exact (the rows of a floating-point ``Y`` do not sum to exactly
    zero, which would act as a shunt of order eps * |y| and shift the
    solution), and the loads draw ``conj(s(|v|) / v)``, volt-var included.
    """
    v = _at(cf, zb, x)
    drawn = np.conj(_draw(cf, inj, np.abs(v), slope=False)[0] / v)
    v[:, cf.free] = cf.v_flat[cf.free] - (zb.z @ drawn[:, zb.cls, None])[..., 0]
    resid = x - v[:, zb.cls]
    v[:, zb.cls] = x
    # Classes outside L draw nothing, so ``drawn`` still holds at this ``v``.
    return v, (cf.line_injection(v) - drawn)[:, cf.free], resid


def jacobian(cf: CompiledFeeder, zb: ZBus, inj, x: np.ndarray) -> np.ndarray:
    """Real Jacobian of the Z-bus residual over Re x, then Im x.

    Rows are the real then the imaginary residual parts. With
    ``i = conj(s(|x|) / x)``, ``di/dv = conj(ds/dm) / 2m`` and
    ``di/dconj(v) = (di/dv) x / conj(x) - i / conj(x)``; ``ds/dm`` carries the
    constant-impedance loads and the slope of each volt-var unit's active
    droop segment.
    """
    s, ds = (a[..., zb.cls] for a in _draw(cf, inj, np.abs(_at(cf, zb, x))))
    xc = np.conj(x)
    di_dv = np.conj(ds) / (2.0 * np.abs(x))
    di_dvc = (di_dv * x - np.conj(s) / xc) / xc
    nl = len(zb.cls)
    jac = np.empty(x.shape[:-1] + (2 * nl, 2 * nl))
    # Columns scale Z_LL by the current's response to Re x, then to Im x.
    for col, scale in ((0, di_dv + di_dvc), (nl, 1j * (di_dv - di_dvc))):
        block = zb.z_ll * scale[..., None, :]
        jac[..., :nl, col : col + nl] = block.real
        jac[..., nl:, col : col + nl] = block.imag
    di = np.arange(2 * nl)
    jac[..., di, di] += 1.0
    return jac


@dataclass(frozen=True)
class NewtonBatch:
    """Outcome of Newton on a batch of draws; rows are draws.

    ``v`` holds the class voltages (NaN where the draw failed), ``steps``
    and ``residual`` where each draw stopped, ``history`` every draw's
    residual trajectory from the flat start of the loaded classes, and
    ``error`` the failure message of each draw, or None where it converged.
    """

    v: np.ndarray
    steps: np.ndarray
    residual: np.ndarray
    history: list[list[float]]
    error: list[str | None]


def newton_batch(cf: CompiledFeeder, loads: LoadArrays, tol: float = 1e-10,
                 max_iter: int = 50) -> NewtonBatch:
    """Z-bus Newton on every draw of ``loads`` (a row of ``loads.demand``).

    Draws share the array work but nothing else: each keeps its own
    backtracking step and stops on its own. A singular Jacobian, a stalled
    line search or the iteration cap fails that draw only.
    """
    loads = loads.batch()
    inj = np.array(cf.class_loads(loads))  # (3, draws, n_cls)
    zb = cf.zbus(loads.channel)
    n_draws = inj.shape[1]
    nl = len(zb.cls)
    chunk = max(1, JACOBIAN_STACK_BYTES // (8 * (2 * nl) ** 2)) if nl else 1
    v_out = np.full((n_draws, cf.n_cls), np.nan, dtype=complex)
    steps = np.zeros(n_draws, dtype=int)
    residual = np.full(n_draws, np.nan)
    history: list[list[float]] = [[] for _ in range(n_draws)]
    error: list[str | None] = [None] * n_draws

    # The draws still iterating: their ids, injections, iterates, mismatches
    # and Z-bus residuals. The first iterate is the one the flat loaded-class
    # voltages stand for.
    act = np.arange(n_draws)
    v, f, resid = evaluate(cf, zb, inj, np.repeat(cf.v_flat[None, zb.cls], n_draws, axis=0))
    for step in range(max_iter + 1):
        res = np.max(np.abs(f), axis=-1, initial=0.0)
        for d, r in zip(act.tolist(), res.tolist()):
            history[d].append(r)
        done = res <= tol
        if done.any():
            fin = act[done]
            v_out[fin] = v[done]
            steps[fin] = step
            residual[fin] = res[done]
            act, v, f, resid, res = act[~done], v[~done], f[~done], resid[~done], res[~done]
            inj = inj[:, ~done]
        if not len(act):
            break
        if step == max_iter:
            for d in act.tolist():
                error[d] = (f"no convergence after {step} iterations "
                            f"(residual {history[d][-1]:.3e})")
            break

        x = v[:, zb.cls]
        rhs = -np.concatenate([resid.real, resid.imag], axis=-1)[..., None]
        delta = np.empty(rhs.shape[:-1])
        ok = np.ones(len(act), dtype=bool)
        for lo in range(0, len(act), chunk):
            sl = slice(lo, lo + chunk)
            jac = jacobian(cf, zb, inj[:, sl], x[sl])
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
        dx = delta[:, :nl] + 1j * delta[:, nl:]

        # Backtracking keeps heavy-load starts from overshooting: the draws
        # whose residual has not dropped yet retry at half the step.
        rows = np.flatnonzero(ok)
        if len(rows) < len(act):
            x_0, dx, inj_0, res_0 = x[rows], dx[rows], inj[:, rows], res[rows]
        else:
            x_0, inj_0, res_0 = x, inj, res
        alpha = 1.0
        for _ in range(40):
            # A trial magnitude at or below 1e-6 fails whatever its residual.
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                v_try, f_try, r_try = evaluate(cf, zb, inj_0, x_0 + alpha * dx)
            better = (np.all(np.abs(v_try[:, cf.free]) > 1e-6, axis=-1)
                      & (np.max(np.abs(f_try), axis=-1, initial=0.0) < res_0))
            if len(rows) == len(act) and better.all():
                v, f, resid = v_try, f_try, r_try
                rows = rows[:0]
                break
            won = rows[better]
            v[won], f[won], resid[won] = v_try[better], f_try[better], r_try[better]
            lost = ~better
            if not lost.any():
                rows = rows[:0]
                break
            rows, x_0, dx, res_0 = rows[lost], x_0[lost], dx[lost], res_0[lost]
            inj_0 = inj_0[:, lost]
            alpha *= 0.5
        for i in rows.tolist():
            ok[i] = False
            error[act[i]] = f"line search stalled at residual {res[i]:.3e}"
        if not ok.all():
            act, v, f, resid, inj = act[ok], v[ok], f[ok], resid[ok], inj[:, ok]

    return NewtonBatch(v=v_out, steps=steps, residual=residual, history=history, error=error)


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
    dispatch = {k: complex(v) for k, v in (dispatch or {}).items()}
    loads = cf.load_arrays(net.loads, dispatch).batch()
    out = newton_batch(cf, loads, tol, max_iter)
    if out.error[0] is not None:
        raise NonConvergenceError(out.error[0], out.history[0])
    st = exact_state(cf, loads, out.v)
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


def exact_state(cf: CompiledFeeder, loads: LoadArrays, v_cls: np.ndarray) -> ExactState:
    """Channel and line quantities at class voltages ``v_cls`` (draws, n_cls)."""
    v_ch = v_cls[..., cf.channel_class]
    q = cf.vvc_droop(np.abs(v_cls[..., cf.vvc_cls]))[0]
    s_ch = cf.channel_power(loads, np.abs(v_ch) ** 2, q)
    i_real = cf.line_currents(v_cls)
    i_all = np.concatenate([i_real, cf.ideal_flows(np.conj(s_ch / v_ch), i_real)], axis=-1)
    s_all = v_ch[..., cf.line_to_ch] * np.conj(i_all)
    return ExactState(V=v_ch, I=i_all, S_line=s_all, s_node=s_ch, vvc_q=q)


def kcl_residual(net: Network, sol: PhasorSolution) -> float:
    """Largest per-channel current imbalance implied by a solution, over every
    channel but the slack node's, which supply whatever the rest draws.

    Recomputes the drawn current from the network data and the solution
    phasors (not from the stored per-channel powers), so it independently
    checks both the voltages and the recovered coupling flows.
    """
    cf = net.compiled
    v = np.array([sol.V[ch] for ch in net.channels])
    q = np.array([sol.vvc_q[(u.node, u.phase)] for u in net.vvc_units])
    s = cf.channel_power(cf.load_arrays(net.loads, sol.dispatch), np.abs(v) ** 2, q)
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
        if ch[0] == net.slack_id:
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
