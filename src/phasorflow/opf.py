"""Convex dispatch optimization that pulls open-switch terminal phasors together.

The decision variables are per-channel controllable powers w = u + jv at
designated resource nodes. The squared-magnitude and angle states respond
linearly to w through the linearized power-flow system, so the problem
reduces to a small dense strictly convex quadratic over (u, v), constrained
by per-channel apparent-power disks and box bounds on squared voltage
magnitude. It is solved with an operator-splitting iteration whose
projections are closed-form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .linear import LinearSolution, class_solution, control_response
from .model import Network

Channel = tuple[str, str]

WEIGHT_KEYS = ("magnitude", "angle", "effort")

#: Over-relaxation of the splitting's constraint step (OSQP's default).
OVER_RELAX = 1.6


class InfeasibleError(RuntimeError):
    """No dispatch satisfies the constraint set; carries the violated rows."""

    def __init__(self, message: str, violations: list[str]):
        super().__init__(message)
        self.violations = violations


class DispatchConvergenceError(RuntimeError):
    """Iteration cap hit; carries the best iterate and final residuals."""

    def __init__(self, message: str, best_w: dict[Channel, complex],
                 primal_residual: float, dual_residual: float):
        super().__init__(message)
        self.best_w = best_w
        self.primal_residual = primal_residual
        self.dual_residual = dual_residual


class _ReducedModel:
    """Dense affine response of the linear class state [E; Theta] to the
    control channels.

    x(c) = x0 + B c with c = [u_1..u_k, v_1..v_k], read off the feeder's
    cached Z-bus columns; ``dx0`` is x0's offset from the flat state. Rows
    of interest are pulled out once: target E/Theta differences and the
    box-bounded E of every free class.
    """

    def __init__(self, net: Network, targets: Sequence[tuple[str, str]],
                 channels: Sequence[Channel]):
        cf = net.compiled
        self.x0, self.dx0, self.B = control_response(cf, cf.load_arrays(net.loads), channels)

        n_cls = cf.n_cls
        diff_e: list[np.ndarray] = []
        diff_t: list[np.ndarray] = []
        self.target_phases: list[tuple[str, str, str]] = []
        for k1, k2 in targets:
            common = [p for p in net.node_map[k1].phases
                      if p in net.node_map[k2].phases]
            if not common:
                raise ValueError(f"targets {k1} and {k2} share no phase")
            for p in common:
                c1 = cf.channel_class[cf.channel_pos[(k1, p)]]
                c2 = cf.channel_class[cf.channel_pos[(k2, p)]]
                row = np.zeros(2 * n_cls)
                row[c1], row[c2] = 1.0, -1.0
                diff_e.append(row)
                row = np.zeros(2 * n_cls)
                row[n_cls + c1], row[n_cls + c2] = 1.0, -1.0
                diff_t.append(row)
                self.target_phases.append((k1, k2, p))
        d_e = np.array(diff_e)
        d_t = np.array(diff_t)
        self.gap_e0 = d_e @ self.x0
        self.gap_t0 = d_t @ self.x0
        self.gap_e = d_e @ self.B
        self.gap_t = d_t @ self.B

        self.e0 = self.x0[cf.free]
        self.b_e = self.B[cf.free, :]
        # The least channel of each class, for naming box violations.
        label: dict[int, Channel] = {}
        for ch, c in sorted(zip(cf.channels, cf.channel_class.tolist())):
            label.setdefault(c, ch)
        self.class_labels = [label[c] for c in cf.free.tolist()]

    def quadratic(self, rho_mag: float, rho_angle: float,
                  rho_effort: float) -> tuple[np.ndarray, np.ndarray, float]:
        """Objective as 0.5 c'Qc + g'c + const over the reduced controls."""
        m = self.B.shape[1]
        q = 2.0 * (rho_mag * self.gap_e.T @ self.gap_e
                   + rho_angle * self.gap_t.T @ self.gap_t
                   + rho_effort * np.eye(m))
        g = 2.0 * (rho_mag * self.gap_e.T @ self.gap_e0
                   + rho_angle * self.gap_t.T @ self.gap_t0)
        const = float(rho_mag * self.gap_e0 @ self.gap_e0
                      + rho_angle * self.gap_t0 @ self.gap_t0)
        return q, g, const


@dataclass(frozen=True)
class OpfProblem:
    """Phasor-gap dispatch problem over the linear feeder model.

    ``targets`` are node pairs whose per-phase E and Theta differences are
    penalized; ``channels``/``caps`` come from the network's controllable
    resources; E of every node is kept inside [e_min, e_max].
    """

    network: Network
    targets: tuple[tuple[str, str], ...]
    rho_mag: float
    rho_angle: float
    rho_effort: float
    e_min: float
    e_max: float
    channels: tuple[Channel, ...]
    caps: np.ndarray = field(repr=False)
    model: _ReducedModel = field(repr=False)

    @property
    def weights(self) -> dict[str, float]:
        return {"magnitude": self.rho_mag, "angle": self.rho_angle,
                "effort": self.rho_effort}

    @cached_property
    def m_map(self) -> np.ndarray:
        """Stacked constraint image: the controls themselves (disk slots),
        then the free-class E values (box slots)."""
        return np.vstack([np.eye(2 * len(self.channels)), self.model.b_e])


@dataclass(frozen=True)
class Dispatch:
    """Optimal controllable powers plus the predicted linear operating point.

    ``w`` is consumption-positive per channel. ``term_values`` carries the
    unweighted objective terms (magnitude-gap, angle-gap, effort);
    ``objective_value`` is their weighted sum. ``multipliers`` holds the
    constraint multipliers (disk slots then box slots) for KKT audits.
    ``solver_stats`` holds the iteration count, the final residuals, the
    final splitting penalty and how many times it was updated.
    """

    w: dict[Channel, complex]
    objective_value: float
    term_values: tuple[float, float, float]
    solver_stats: dict[str, float]
    multipliers: np.ndarray = field(repr=False)
    linear: LinearSolution = field(repr=False)


def build_opf(net: Network, targets: Sequence[tuple[str, str]],
              weights: Mapping[str, float],
              e_min: float = 0.9025, e_max: float = 1.1025) -> OpfProblem:
    """Validate inputs and precompute the reduced control response.

    ``weights`` maps "magnitude"/"angle"/"effort" to finite nonnegative
    penalties; missing keys default to zero, all-zero weights are rejected.
    Voltage bounds are finite, on squared magnitude (defaults 0.95^2 and
    1.05^2). A DER channel tied to the slack raises ``NetworkError``.
    """
    unknown = set(weights) - set(WEIGHT_KEYS)
    if unknown:
        raise ValueError(f"unknown weight keys: {sorted(unknown)}")
    rho = {k: float(weights.get(k, 0.0)) for k in WEIGHT_KEYS}
    if not all(0.0 <= v < math.inf for v in rho.values()):
        raise ValueError("weights must be nonnegative numbers")
    if all(v == 0.0 for v in rho.values()):
        raise ValueError("degenerate weights: all zero")
    if not (math.isfinite(e_min) and math.isfinite(e_max)):
        raise ValueError(f"voltage bounds must be finite, got e_min {e_min} and e_max {e_max}")
    if not e_min < e_max:
        raise ValueError("e_min must be below e_max")
    for k1, k2 in targets:
        for node in (k1, k2):
            if node not in net.node_map:
                raise ValueError(f"unknown target node {node}")

    channels: list[Channel] = []
    caps: list[float] = []
    for der in net.der_units:
        channels.append((der.node, der.phase))
        caps.append(der.capacity)

    model = _ReducedModel(net, targets, channels)
    return OpfProblem(
        network=net,
        targets=tuple((k1, k2) for k1, k2 in targets),
        rho_mag=rho["magnitude"],
        rho_angle=rho["angle"],
        rho_effort=rho["effort"],
        e_min=e_min,
        e_max=e_max,
        channels=tuple(channels),
        caps=np.array(caps),
        model=model,
    )


def _project(z: np.ndarray, k: int, caps: np.ndarray,
             e_min: float, e_max: float) -> np.ndarray:
    out = z.copy()
    if k:
        # Only channels outside their disk move; a zero norm never exceeds a cap.
        nrm = np.hypot(out[:k], out[k:2 * k])
        over = np.flatnonzero(nrm > caps)
        scale = caps[over] / nrm[over]
        out[over] *= scale
        out[k + over] *= scale
    out[2 * k:] = np.clip(out[2 * k:], e_min, e_max)
    return out


def solve_opf(prob: OpfProblem, penalty: float = 1.0, tol: float = 1e-9,
              max_iter: int = 200_000) -> Dispatch:
    """Minimize the weighted phasor-gap objective over capped controls.

    Operator splitting on c = [u; v]: the smooth quadratic step applies
    the inverse of its positive definite system, the constraint step
    projects channel pairs onto their apparent-power disks and free-class
    E onto the voltage box. Every 10 iterations, a step in the multipliers
    that annihilates the controls and has a negative support value
    certifies infeasibility (Banjac et al., JOTA 2019), and the penalty,
    which ``penalty`` only starts, is rebalanced against the scaled primal
    and dual residuals (Stellato et al., "OSQP", 2020), re-inverting the
    system when it moves by more than 5x.
    Deterministic for fixed parameters.
    """
    mdl = prob.model
    k = len(prob.channels)
    q, g, const = mdl.quadratic(prob.rho_mag, prob.rho_angle, prob.rho_effort)

    m_map = prob.m_map
    m0 = np.concatenate([np.zeros(2 * k), mdl.e0])

    if k == 0:
        viol = [f"E({lbl[0]}.{lbl[1]}) = {e:.6f}"
                for lbl, e in zip(mdl.class_labels, mdl.e0)
                if not prob.e_min - 1e-9 <= e <= prob.e_max + 1e-9]
        if viol:
            raise InfeasibleError("no controls and voltage box violated", viol)
        c = np.zeros(0)
        stats = {"iterations": 0, "primal_residual": 0.0,
                 "dual_residual": 0.0, "penalty": penalty,
                 "penalty_updates": 0}
        return _finish(prob, c, np.zeros(len(m0)), stats, q, g, const)

    mtm = m_map.T @ m_map
    k_inv = np.linalg.inv(q + penalty * mtm)
    c = np.zeros(2 * k)
    y = _project(m0, k, prob.caps, prob.e_min, prob.e_max)
    lam = np.zeros(len(m0))
    updates = 0

    r_primal = r_dual = np.inf
    for it in range(1, max_iter + 1):
        c = k_inv @ (penalty * m_map.T @ (y - lam - m0) - g)
        mc = m_map @ c + m0
        relaxed = OVER_RELAX * mc + (1.0 - OVER_RELAX) * y
        y_prev = y
        y = _project(relaxed + lam, k, prob.caps, prob.e_min, prob.e_max)
        lam_prev = lam
        lam = lam + relaxed - y
        r_primal = float(np.max(np.abs(mc - y)))
        r_dual = float(penalty * np.max(np.abs(m_map.T @ (y - y_prev))))
        if r_primal <= tol and r_dual <= tol:
            break
        if it % 10 == 0:
            _certify_infeasible(prob, penalty * (lam - lam_prev), it)
            scale_p = max(np.max(np.abs(mc)), np.max(np.abs(y)))
            scale_d = max(np.max(np.abs(q @ c)),
                          np.max(np.abs(m_map.T @ (penalty * lam))),
                          np.max(np.abs(g)))
            with np.errstate(divide="ignore", invalid="ignore"):
                ratio = (r_primal / scale_p) / (r_dual / scale_d)
            new = float(np.clip(penalty * np.sqrt(ratio), 1e-6, 1e6))
            if new > 5.0 * penalty or new < penalty / 5.0:
                lam *= penalty / new
                penalty = new
                k_inv = np.linalg.inv(q + penalty * mtm)
                updates += 1
    else:
        best = {ch: complex(c[i], c[k + i])
                for i, ch in enumerate(prob.channels)}
        raise DispatchConvergenceError(
            f"no convergence in {max_iter} iterations "
            f"(primal {r_primal:.2e}, dual {r_dual:.2e})",
            best, r_primal, r_dual)

    stats = {"iterations": it, "primal_residual": r_primal,
             "dual_residual": r_dual, "penalty": penalty,
             "penalty_updates": updates}
    return _finish(prob, c, penalty * lam, stats, q, g, const)


def _certify_infeasible(prob: OpfProblem, dmu: np.ndarray, it: int) -> None:
    """Raise InfeasibleError if the multiplier step ``dmu`` is a certificate.

    A certificate has M'dmu = 0 and a negative support value of the
    constraint set shifted by the uncontrolled E, sum_i cap_i |dmu_disk_i|
    + sum_j max(dmu_j e_max, dmu_j e_min) - e0'dmu_box; by Farkas no
    control then meets every row.
    """
    scale = float(np.max(np.abs(dmu)))
    if np.max(np.abs(prob.m_map.T @ dmu)) > 1e-6 * scale:
        return
    k = len(prob.channels)
    box = dmu[2 * k:]
    support = (float(prob.caps @ np.hypot(dmu[:k], dmu[k:2 * k]))
               + float(np.sum(np.maximum(box * prob.e_max, box * prob.e_min)))
               - float(prob.model.e0 @ box))
    if support >= -1e-6 * scale:
        return
    rows = np.flatnonzero(np.abs(dmu) > 1e-6 * scale)
    names = list(dict.fromkeys(_slot_name(prob, j, k) for j in rows))
    raise InfeasibleError(
        f"infeasibility certificate after {it} iterations "
        f"(support {support:.2e})", names)


def _slot_name(prob: OpfProblem, j: int, k: int) -> str:
    if j < 2 * k:
        ch = prob.channels[j % k]
        return f"|w({ch[0]}.{ch[1]})| <= {prob.caps[j % k]}"
    lbl = prob.model.class_labels[j - 2 * k]
    return f"E({lbl[0]}.{lbl[1]}) in [{prob.e_min}, {prob.e_max}]"


def _finish(prob: OpfProblem, c: np.ndarray, multipliers: np.ndarray,
            stats: dict, q: np.ndarray, g: np.ndarray, const: float) -> Dispatch:
    mdl = prob.model
    k = len(prob.channels)
    w = {ch: complex(c[i], c[k + i]) for i, ch in enumerate(prob.channels)}

    gap_e = mdl.gap_e0 + mdl.gap_e @ c
    gap_t = mdl.gap_t0 + mdl.gap_t @ c
    c_mag = float(gap_e @ gap_e)
    c_angle = float(gap_t @ gap_t)
    c_effort = float(c @ c)
    objective = (prob.rho_mag * c_mag + prob.rho_angle * c_angle
                 + prob.rho_effort * c_effort)

    cf, loads = prob.network.compiled, prob.network.loads
    linear = class_solution(cf, cf.load_arrays(loads, w), mdl.dx0 + mdl.B @ c, 1e-8)

    return Dispatch(
        w=w,
        objective_value=objective,
        term_values=(c_mag, c_angle, c_effort),
        solver_stats=stats,
        multipliers=multipliers,
        linear=linear,
    )


@dataclass(frozen=True)
class KktReport:
    """Optimality audit for a dispatch; all residuals should be tiny."""

    equality_residual: float
    disk_violation: float
    box_violation: float
    stationarity: float
    complementarity: float
    dual_sign: float
    passed: bool

    def conditions(self) -> dict[str, float]:
        return {
            "equality_residual": self.equality_residual,
            "disk_violation": self.disk_violation,
            "box_violation": self.box_violation,
            "stationarity": self.stationarity,
            "complementarity": self.complementarity,
            "dual_sign": self.dual_sign,
        }


def kkt_check(prob: OpfProblem, dispatch: Dispatch,
              feas_tol: float = 1e-8, opt_tol: float = 1e-6) -> KktReport:
    """Recompute first-order optimality conditions from scratch.

    Uses the multipliers reported by the solver: stationarity of the
    Lagrangian over the reduced controls, primal feasibility of disks and
    the voltage box, complementary slackness, and multiplier signs.
    """
    mdl = prob.model
    k = len(prob.channels)
    c = np.concatenate([
        np.array([dispatch.w[ch].real for ch in prob.channels]),
        np.array([dispatch.w[ch].imag for ch in prob.channels]),
    ])
    q, g, _ = mdl.quadratic(prob.rho_mag, prob.rho_angle, prob.rho_effort)
    mu = dispatch.multipliers

    stationarity = float(np.max(np.abs(q @ c + g + prob.m_map.T @ mu))) if k else 0.0

    nrm = np.hypot(c[:k], c[k:]) if k else np.zeros(0)
    disk_violation = float(np.max(nrm - prob.caps, initial=0.0))
    e_vals = mdl.e0 + mdl.b_e @ c
    box_violation = float(max(np.max(e_vals - prob.e_max, initial=0.0),
                              np.max(prob.e_min - e_vals, initial=0.0)))

    comp = 0.0
    dual_sign = 0.0
    for i in range(k):
        pair = np.array([mu[i], mu[k + i]])
        wmag = nrm[i]
        comp = max(comp, float(np.linalg.norm(pair)) * max(prob.caps[i] - wmag, 0.0))
        if wmag > 0:
            direction = np.array([c[i], c[k + i]]) / wmag
            dual_sign = max(dual_sign, -float(pair @ direction),
                            abs(float(pair[0] * direction[1] - pair[1] * direction[0])))
        else:
            dual_sign = max(dual_sign, float(np.linalg.norm(pair)))
    for j, e in enumerate(e_vals):
        m = mu[2 * k + j]
        up, lo = prob.e_max - e, e - prob.e_min
        if m >= 0:
            comp = max(comp, m * max(up, 0.0))
        else:
            comp = max(comp, -m * max(lo, 0.0))

    passed = (dispatch.linear.residual_norm <= feas_tol
              and disk_violation <= feas_tol
              and box_violation <= feas_tol
              and stationarity <= opt_tol
              and comp <= opt_tol
              and dual_sign <= opt_tol)
    return KktReport(
        equality_residual=dispatch.linear.residual_norm,
        disk_violation=disk_violation,
        box_violation=box_violation,
        stationarity=stationarity,
        complementarity=comp,
        dual_sign=dual_sign,
        passed=passed,
    )
