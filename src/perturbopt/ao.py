"""Alternating block minimization: traces, the quadratic exactness identity,
and the local linear-convergence certificate.

One alternation step solves the nuisance block at the previous target
iterate, then the target block at the fresh nuisance iterate.  Error norms
are measured against the exact joint minimizer in the square-root-curvature
geometry, which is what the convergence statements control.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import tolerances as tol
from .errors import InnerSolveFailed, InsufficientSteps, MetricDominanceViolated
from .expansions import ConditionConstants, derived_constants, rho_star
from .numkit import BlockGeometry, BlockHessian, BlockSplit, MetricTensor, contraction_matrix
from .objective import QuadraticObjective, SmoothObjective, newton_minimize, partial_minimize

__all__ = [
    "AoTrace",
    "AoCertificate",
    "ao_run",
    "quad_ao_identity_check",
    "certify_convergence",
    "estimate_rate",
    "fixed_point_radii",
    "trace_to_csv",
]


@dataclass
class AoTrace:
    """Iterate history of one alternating run with curvature-weighted errors."""

    theta_iterates: list
    nui_iterates: list
    theta_err_norms: np.ndarray  # index 0 is the start gap
    nui_err_norms: np.ndarray
    eps_vectors: list
    alpha_vectors: list
    ppt_norm: float
    upsilon_star: np.ndarray
    split: BlockSplit

    def __post_init__(self):
        steps = len(self.nui_iterates)
        if len(self.theta_iterates) != steps + 1:
            raise ValueError("expected one more target iterate (the start) than steps")
        if self.theta_err_norms.shape[0] != steps + 1 or self.nui_err_norms.shape[0] != steps:
            raise ValueError("error-norm lengths inconsistent with the step count")
        if np.any(self.theta_err_norms < 0) or np.any(self.nui_err_norms < 0):
            raise ValueError("error norms must be nonnegative")

    @property
    def steps(self) -> int:
        return len(self.nui_iterates)

    @property
    def eps_norms(self) -> np.ndarray:
        return np.array([float(np.linalg.norm(e)) for e in self.eps_vectors])

    @property
    def alpha_norms(self) -> np.ndarray:
        return np.array([float(np.linalg.norm(a)) for a in self.alpha_vectors])


def ao_run(
    f: SmoothObjective,
    split: BlockSplit,
    theta0,
    n_steps: int,
    inner_tol: float = tol.JOINT_SOLVE_TOL,
    upsilon_star=None,
    geometry: Optional[BlockGeometry] = None,
) -> AoTrace:
    """Alternate the two partial minimizations for ``n_steps`` full steps.

    The joint minimizer is computed to high tolerance when not supplied;
    the convergence statements measure distances to it, not to the last
    iterate.  ``geometry`` is that of the Hessian at the joint minimizer,
    built from it when not supplied.
    """
    if n_steps < 1:
        raise ValueError("need at least one alternation step")
    theta0 = np.asarray(theta0, dtype=float)
    if upsilon_star is None:
        x0 = np.zeros(f.dim)
        x0[split.target_idx] = theta0
        joint = newton_minimize(f, x0, tol_grad=tol.JOINT_SOLVE_TOL)
        if not joint.converged:
            raise InnerSolveFailed(0, "joint", "joint reference solve did not converge")
        upsilon_star = joint.argmin
    upsilon_star = np.asarray(upsilon_star, dtype=float)
    theta_star = upsilon_star[split.target_idx]
    nui_star = upsilon_star[split.nuisance_idx]

    if geometry is None:
        geometry = contraction_matrix(BlockHessian.from_full(f.hessian(upsilon_star), split))
    tt_half, nn_half, p = geometry.tt_half, geometry.nn_half, geometry.p

    theta = theta0.copy()
    nui_guess = nui_star.copy()
    thetas = [theta.copy()]
    nuis: list = []
    theta_errs = [float(np.linalg.norm(tt_half @ (theta - theta_star)))]
    nui_errs: list = []
    eps_vecs: list = []
    alpha_vecs: list = []

    for step in range(1, n_steps + 1):
        sol_n = partial_minimize(f, split, "target", theta, warm_start=nui_guess,
                                 tol_grad=inner_tol)
        if not sol_n.converged:
            raise InnerSolveFailed(step, "nuisance")
        nui = sol_n.argmin
        sol_t = partial_minimize(f, split, "nuisance", nui, warm_start=theta, tol_grad=inner_tol)
        if not sol_t.converged:
            raise InnerSolveFailed(step, "target")
        e_prev = tt_half @ (theta - theta_star)
        theta = sol_t.argmin
        nui_guess = nui
        thetas.append(theta.copy())
        nuis.append(nui.copy())
        e_nui = nn_half @ (nui - nui_star)
        e_theta = tt_half @ (theta - theta_star)
        theta_errs.append(float(np.linalg.norm(e_theta)))
        nui_errs.append(float(np.linalg.norm(e_nui)))
        # step residuals relative to the exact quadratic alternation map;
        # both vanish identically when the objective is quadratic
        eps_vecs.append(e_theta + p @ e_nui)
        alpha_vecs.append(e_nui + p.T @ e_prev)

    return AoTrace(
        theta_iterates=thetas,
        nui_iterates=nuis,
        theta_err_norms=np.asarray(theta_errs),
        nui_err_norms=np.asarray(nui_errs),
        eps_vectors=eps_vecs,
        alpha_vectors=alpha_vecs,
        ppt_norm=geometry.ppt_norm,
        upsilon_star=upsilon_star,
        split=split,
    )


def quad_ao_identity_check(
    quad: QuadraticObjective, split: BlockSplit, theta0, n_steps: int = 5
) -> float:
    """Max sup-norm deviation from the exact one-step alternation identity.

    On a strictly convex quadratic, the curvature-weighted target error is
    mapped by P P' at every step, exactly.
    """
    geometry = contraction_matrix(BlockHessian.from_full(quad.curvature, split))
    trace = ao_run(quad, split, theta0, n_steps, upsilon_star=quad.minimizer, geometry=geometry)
    ppt = geometry.p @ geometry.p.T
    theta_star = quad.minimizer[split.target_idx]
    worst = 0.0
    prev = geometry.tt_half @ (trace.theta_iterates[0] - theta_star)
    for theta in trace.theta_iterates[1:]:
        cur = geometry.tt_half @ (theta - theta_star)
        worst = max(worst, float(np.abs(cur - ppt @ prev).max()))
        prev = cur
    return worst


@dataclass(frozen=True)
class AoCertificate:
    """Scalar certificate of local linear convergence for one start gap."""

    rho2: float
    delta_nano: float
    dltwb: float
    radii: tuple
    start_gap: float
    ppt_norm: float
    rho_star: float
    conditions_hold: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return bool(self.conditions_hold) and all(self.conditions_hold.values())

    @property
    def rate_bound(self) -> float:
        return self.ppt_norm

    def contraction_slack(self) -> float:
        """1 - ||PP'|| - (1 + rho2^2) delta_nano * start_gap (positive iff it certifies)."""
        return 1.0 - self.ppt_norm - (1.0 + self.rho2**2) * self.delta_nano * self.start_gap


def _check_dominance(block: np.ndarray, metric: MetricTensor, label: str) -> None:
    gap = block - metric.matrix() @ metric.matrix()
    scale = max(1.0, float(np.abs(block).max()))
    if np.linalg.eigvalsh(0.5 * (gap + gap.T)).min() < -1e-9 * scale:
        raise MetricDominanceViolated(f"squared {label}-metric is not dominated by the block")


def certify_convergence(
    geometry: BlockGeometry | BlockHessian,
    constants: ConditionConstants,
    theta0_gap: float,
    d_metric: MetricTensor,
    h_metric: MetricTensor,
    kappa: float = 1.0,
) -> AoCertificate:
    """Evaluate the local-convergence certificate inequalities.

    Requires D^2 <= f_tt and H^2 <= f_nn in the semidefinite order.  The
    radii come in through ``constants.radii``; the certificate checks them
    against the start gap rather than searching for feasible values.  A
    ``kappa`` > 1 rescales (tau3, d12, d21, rho_star) by
    (kappa^3, kappa, kappa^2, 1/kappa) before the checks, covering metrics
    that only dominate up to a factor.  A block Hessian is first turned into
    its geometry.
    """
    if isinstance(geometry, BlockHessian):
        geometry = contraction_matrix(geometry)
    bh = geometry.blocks
    _check_dominance(bh.f_tt, d_metric, "target")
    _check_dominance(bh.f_nn, h_metric, "nuisance")
    if len(constants.radii) < 2:
        raise ValueError("certificate needs radii (r_theta, r_nui)")
    r_theta, r_nui = float(constants.radii[0]), float(constants.radii[1])

    rho_star_value = rho_star(bh.f_tn, d_metric, h_metric, "l2")[0] / kappa

    scaled = ConditionConstants(
        tau3=constants.tau3 * kappa**3,
        d12=constants.d12 * kappa,
        d21=constants.d21 * kappa**2,
        norm_tag=constants.norm_tag,
        radii=(r_theta, r_nui),
        method=constants.method,
    )
    d_eff = scaled.d_effective
    dltwb = d_eff * max(r_theta, r_nui)

    if dltwb >= 1.0:
        conditions = {"dltwb_lt_1": False}
        return AoCertificate(
            rho2=float("nan"),
            delta_nano=float("nan"),
            dltwb=dltwb,
            radii=(r_theta, r_nui),
            start_gap=float(theta0_gap),
            ppt_norm=geometry.ppt_norm,
            rho_star=rho_star_value,
            conditions_hold=conditions,
        )

    diag = derived_constants(scaled, "ao", rho_star_value=rho_star_value)
    rho2, delta_nano = diag.rho2, diag.delta_nano
    gap = float(theta0_gap)
    conditions = {
        "dltwb_lt_1": True,
        "ppt_lt_1": geometry.ppt_norm < 1.0,
        "r_theta_big_enough": r_theta >= rho2**2 * gap,
        "r_nui_big_enough": r_nui >= rho2 * gap,
        "rho2_t3_r_small": rho2 * scaled.tau3 * max(r_theta, r_nui) <= 2.0 / 3.0,
        "start_gap_small": (1.0 + rho2**2) * delta_nano * gap < 1.0 - geometry.ppt_norm,
    }
    return AoCertificate(
        rho2=rho2,
        delta_nano=delta_nano,
        dltwb=dltwb,
        radii=(r_theta, r_nui),
        start_gap=gap,
        ppt_norm=geometry.ppt_norm,
        rho_star=rho_star_value,
        conditions_hold=conditions,
    )


def fixed_point_radii(
    constants: ConditionConstants, rho_star_value: float, gap: float, slack: float = 1.05,
    max_rounds: int = 100,
) -> Optional[tuple]:
    """Smallest self-consistent radii (r_theta, r_nui) for a given start gap.

    The radius inequalities couple through the damping scalar; iterating
    them from zero converges monotonically when a feasible pair exists.
    Returns None when the iteration leaves the valid damping range.
    """
    r_theta = r_nui = 0.0
    d_eff = constants.d_effective
    for _ in range(max_rounds):
        dltwb = d_eff * max(r_theta, r_nui)
        if dltwb >= 0.5:
            return None
        rho2 = 1.5 * (rho_star_value + dltwb / 2.0) / (1.0 - dltwb)
        new_theta = slack * rho2**2 * gap
        new_nui = slack * rho2 * gap
        if abs(new_theta - r_theta) <= 1e-12 and abs(new_nui - r_nui) <= 1e-12:
            return (new_theta, new_nui)
        r_theta, r_nui = new_theta, new_nui
    return (r_theta, r_nui)


def estimate_rate(theta_err_norms, burn_in: int = tol.AO_BURN_IN) -> float:
    """Geometric mean of successive error ratios after a burn-in.

    A zero norm anywhere in the post-burn-in tail means the run already
    converged; the rate is reported as zero.
    """
    norms = np.asarray(theta_err_norms, dtype=float)
    if burn_in < 0 or burn_in >= norms.shape[0]:
        raise InsufficientSteps("burn-in leaves no steps")
    tail = norms[burn_in:]
    if np.any(tail == 0.0):
        return 0.0
    if tail.shape[0] < 3:
        raise InsufficientSteps("need at least 3 post-burn-in error norms")
    ratios = tail[1:] / tail[:-1]
    return float(np.exp(np.mean(np.log(ratios))))


def trace_to_csv(trace: AoTrace, path) -> None:
    """Columns step,theta_err,nui_err,eps_norm,alpha_norm; step 0 is the start."""
    eps = trace.eps_norms
    alpha = trace.alpha_norms
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "theta_err", "nui_err", "eps_norm", "alpha_norm"])
        writer.writerow([0, format(trace.theta_err_norms[0], ".17g"), "", "", ""])
        for t in range(1, trace.steps + 1):
            writer.writerow(
                [
                    t,
                    format(trace.theta_err_norms[t], ".17g"),
                    format(trace.nui_err_norms[t - 1], ".17g"),
                    format(eps[t - 1], ".17g"),
                    format(alpha[t - 1], ".17g"),
                ]
            )
