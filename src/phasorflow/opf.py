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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .linear import LinearSolution, LinearSystem
from .model import Network

Channel = tuple[str, str]

WEIGHT_KEYS = ("magnitude", "angle", "effort")


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
    """Dense affine response of the linear state to the control channels.

    x(c) = x0 + B c with c = [u_1..u_k, v_1..v_k]. Rows of interest are
    pulled out once: target E/Theta differences and the box-bounded E of
    every free class.
    """

    def __init__(self, net: Network, targets: Sequence[tuple[str, str]],
                 channels: Sequence[Channel]):
        cf = net.compiled
        self.system = LinearSystem(cf, cf.load_arrays(net.loads))
        idx = net.index
        lu = spla.splu(self.system.A)
        n_state = self.system.A.shape[0]
        self.x0 = lu.solve(self.system.b0)

        k = len(channels)
        self.B = np.zeros((n_state, 2 * k))
        for i, ch in enumerate(channels):
            row_p, row_q = self.system.injection_rows(ch)
            e = np.zeros(n_state)
            e[row_p] = 1.0
            self.B[:, i] = lu.solve(e)
            e[:] = 0.0
            e[row_q] = 1.0
            self.B[:, k + i] = lu.solve(e)

        n_cls = len(idx.classes)
        diff_e: list[np.ndarray] = []
        diff_t: list[np.ndarray] = []
        self.target_phases: list[tuple[str, str, str]] = []
        for k1, k2 in targets:
            common = [p for p in net.node_map[k1].phases
                      if p in net.node_map[k2].phases]
            if not common:
                raise ValueError(f"targets {k1} and {k2} share no phase")
            for p in common:
                c1 = idx.class_of[(k1, p)]
                c2 = idx.class_of[(k2, p)]
                row = np.zeros(n_state)
                row[c1], row[c2] = 1.0, -1.0
                diff_e.append(row)
                row = np.zeros(n_state)
                row[n_cls + c1], row[n_cls + c2] = 1.0, -1.0
                diff_t.append(row)
                self.target_phases.append((k1, k2, p))
        d_e = np.array(diff_e)
        d_t = np.array(diff_t)
        self.gap_e0 = d_e @ self.x0
        self.gap_t0 = d_t @ self.x0
        self.gap_e = d_e @ self.B
        self.gap_t = d_t @ self.B

        self.free_classes = np.array(idx.free_classes, dtype=int)
        self.e0 = self.x0[self.free_classes]
        self.b_e = self.B[self.free_classes, :]
        # First channel of each class, for naming box violations.
        self.class_labels = [idx.classes[c][0] for c in idx.free_classes]

    def state(self, c: np.ndarray) -> np.ndarray:
        return self.x0 + self.B @ c

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
        k = len(self.channels)
        b_e = self.model.b_e
        return np.vstack([np.eye(2 * k), b_e]) if k else b_e.reshape(-1, 0)


@dataclass(frozen=True)
class Dispatch:
    """Optimal controllable powers plus the predicted linear operating point.

    ``w`` is consumption-positive per channel. ``term_values`` carries the
    unweighted objective terms (magnitude-gap, angle-gap, effort);
    ``objective_value`` is their weighted sum. ``multipliers`` holds the
    constraint multipliers (disk slots then box slots) for KKT audits.
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

    ``weights`` maps "magnitude"/"angle"/"effort" to nonnegative penalties;
    missing keys default to zero, all-zero weights are rejected. Voltage
    bounds are on squared magnitude (defaults 0.95^2 and 1.05^2).
    """
    unknown = set(weights) - set(WEIGHT_KEYS)
    if unknown:
        raise ValueError(f"unknown weight keys: {sorted(unknown)}")
    rho = {k: float(weights.get(k, 0.0)) for k in WEIGHT_KEYS}
    if any(v < 0.0 for v in rho.values()):
        raise ValueError("weights must be nonnegative")
    if all(v == 0.0 for v in rho.values()):
        raise ValueError("degenerate weights: all zero")
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
    for ch in channels:
        if net.index.class_of[ch] not in model.system.row_p:
            raise ValueError(f"resource channel {ch} is tied to the slack")
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
        u, v = out[:k], out[k:2 * k]
        nrm = np.hypot(u, v)
        with np.errstate(invalid="ignore", divide="ignore"):
            scale = np.where(nrm > caps, caps / np.where(nrm == 0, 1, nrm), 1.0)
        out[:k] = u * scale
        out[k:2 * k] = v * scale
    out[2 * k:] = np.clip(out[2 * k:], e_min, e_max)
    return out


def solve_opf(prob: OpfProblem, penalty: float = 1.0, tol: float = 1e-9,
              max_iter: int = 200_000, over_relax: float = 1.6) -> Dispatch:
    """Minimize the weighted phasor-gap objective over capped controls.

    Operator splitting on c = [u; v]: the smooth quadratic step solves a
    fixed Cholesky system, the constraint step projects channel pairs onto
    their apparent-power disks and free-class E onto the voltage box.
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
                 "dual_residual": 0.0, "penalty": penalty}
        return _finish(prob, c, np.zeros(len(m0)), stats, q, g, const)

    chol = sla.cho_factor(q + penalty * (m_map.T @ m_map))
    c = np.zeros(2 * k)
    y = _project(m0, k, prob.caps, prob.e_min, prob.e_max)
    lam = np.zeros(len(m0))

    r_primal = r_dual = np.inf
    for it in range(1, max_iter + 1):
        c = sla.cho_solve(chol, penalty * m_map.T @ (y - lam - m0) - g)
        mc = m_map @ c + m0
        relaxed = over_relax * mc + (1.0 - over_relax) * y
        y_prev = y
        y = _project(relaxed + lam, k, prob.caps, prob.e_min, prob.e_max)
        lam = lam + relaxed - y
        r_primal = float(np.max(np.abs(mc - y)))
        r_dual = float(penalty * np.max(np.abs(m_map.T @ (y - y_prev))))
        if r_primal <= tol and r_dual <= tol:
            break
    else:
        best = {ch: complex(c[i], c[k + i])
                for i, ch in enumerate(prob.channels)}
        if r_dual <= tol and r_primal > 1e3 * tol:
            gaps = np.abs(m_map @ c + m0 - y)
            worst = np.argsort(gaps)[::-1][:5]
            names = [_slot_name(prob, j, k) for j in worst if gaps[j] > tol]
            raise InfeasibleError(
                f"constraint gap {r_primal:.2e} cannot close", names)
        raise DispatchConvergenceError(
            f"no convergence in {max_iter} iterations "
            f"(primal {r_primal:.2e}, dual {r_dual:.2e})",
            best, r_primal, r_dual)

    stats = {"iterations": it, "primal_residual": r_primal,
             "dual_residual": r_dual, "penalty": penalty}
    return _finish(prob, c, penalty * lam, stats, q, g, const)


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

    x = mdl.state(c)
    b = mdl.system.rhs(w)
    res = float(np.max(np.abs(mdl.system.A @ x - b)))
    if res > 1e-8:
        raise RuntimeError(f"dispatch state residual {res:.3e} exceeds 1e-8")
    linear = mdl.system.extract(x, w, res)

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
