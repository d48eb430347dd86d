"""Alternating block minimization: traces, the quadratic exactness identity,
and the local linear-convergence certificate.

One alternation step solves the nuisance block at the previous target
iterate, then the target block at the fresh nuisance iterate.  Error norms
are measured against the exact joint minimizer in the square-root-curvature
geometry, which is what the convergence statements control.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tolerances as tol
from .errors import InnerSolveFailed, InsufficientSteps
from .expansions import ConditionConstants, derived_constants
from .numkit import BlockGeometry, BlockHessian, BlockSplit, contraction_matrix
from .objective import QuadraticObjective, SmoothObjective, partial_minimize

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
    eps_norms: np.ndarray  # step residual norms against the exact quadratic map
    alpha_norms: np.ndarray
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


def ao_run(
    f: SmoothObjective,
    split: BlockSplit,
    theta0,
    n_steps: int,
    upsilon_star,
    inner_tol: float = tol.JOINT_SOLVE_TOL,
    geometry: Optional[BlockGeometry] = None,
) -> AoTrace:
    """Alternate the two partial minimizations for ``n_steps`` full steps.

    ``upsilon_star`` is the joint minimizer: the convergence statements
    measure distances to it, not to the last iterate.  ``geometry`` is that
    of the Hessian there, built from it when not supplied.
    """
    if n_steps < 1:
        raise ValueError("need at least one alternation step")
    theta0 = np.asarray(theta0, dtype=float)
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
    eps_norms: list = []
    alpha_norms: list = []

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
        eps_norms.append(float(np.linalg.norm(e_theta + p @ e_nui)))
        alpha_norms.append(float(np.linalg.norm(e_nui + p.T @ e_prev)))

    return AoTrace(
        theta_iterates=thetas,
        nui_iterates=nuis,
        theta_err_norms=np.asarray(theta_errs),
        nui_err_norms=np.asarray(nui_errs),
        eps_norms=np.asarray(eps_norms),
        alpha_norms=np.asarray(alpha_norms),
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
    trace = ao_run(quad, split, theta0, n_steps, quad.minimizer, geometry=geometry)
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
    """Scalar certificate of local linear convergence for one start gap.

    The radii and the derived scalars stay empty or NaN where a failed
    condition leaves them undefined.
    """

    start_gap: float
    ppt_norm: float
    rho_star: float
    conditions_hold: dict
    radii: tuple = ()
    dltwb: float = float("nan")
    rho2: float = float("nan")
    delta_nano: float = float("nan")

    @property
    def holds(self) -> bool:
        return bool(self.conditions_hold) and all(self.conditions_hold.values())


def certify_convergence(
    geometry: BlockGeometry, constants: ConditionConstants, theta0_gap: float
) -> AoCertificate:
    """Evaluate the local-convergence certificate inequalities.

    The metrics are the square-root blocks f_tt^{1/2} and f_nn^{1/2} of
    ``geometry``, in which the l2 constants are measured; there rho_star, the
    norm of the scaled cross block, is ||P|| = ||PP'||^{1/2}.  The radii come
    in through ``constants.radii``; the certificate checks them against the
    start gap rather than searching for feasible values.
    """
    if len(constants.radii) < 2:
        raise ValueError("certificate needs radii (r_theta, r_nui)")
    r_theta, r_nui = float(constants.radii[0]), float(constants.radii[1])
    ppt, gap = geometry.ppt_norm, float(theta0_gap)
    rho_star = ppt**0.5
    base = dict(start_gap=gap, ppt_norm=ppt, rho_star=rho_star, radii=(r_theta, r_nui))
    dltwb = constants.d_effective * max(r_theta, r_nui)
    if dltwb >= 1.0:
        return AoCertificate(**base, dltwb=dltwb, conditions_hold={"dltwb_lt_1": False})

    diag = derived_constants(constants, "ao", rho_star_value=rho_star)
    rho2, delta_nano = diag.rho2, diag.delta_nano
    conditions = {
        "dltwb_lt_1": True,
        "ppt_lt_1": ppt < 1.0,
        "r_theta_big_enough": r_theta >= rho2**2 * gap,
        "r_nui_big_enough": r_nui >= rho2 * gap,
        "rho2_t3_r_small": rho2 * constants.tau3 * max(r_theta, r_nui) <= 2.0 / 3.0,
        "start_gap_small": (1.0 + rho2**2) * delta_nano * gap < 1.0 - ppt,
    }
    return AoCertificate(**base, dltwb=dltwb, rho2=rho2, delta_nano=delta_nano,
                         conditions_hold=conditions)


def fixed_point_radii(
    constants: ConditionConstants, rho_star_value: float, gap: float
) -> Optional[tuple]:
    """Smallest self-consistent radii (r_theta, r_nui) for a given start gap.

    The radius inequalities couple through the damping scalar; iterating
    them from zero converges monotonically when a feasible pair exists.
    Each radius carries the ``tol.RADII_SLACK`` margin.  Returns None when
    the iteration leaves the valid damping range.
    """
    r_theta = r_nui = 0.0
    d_eff = constants.d_effective
    slack, stop = tol.RADII_SLACK, tol.RADII_STOP
    for _ in range(tol.RADII_MAX_ROUNDS):
        dltwb = d_eff * max(r_theta, r_nui)
        if dltwb >= 0.5:
            return None
        rho2 = 1.5 * (rho_star_value + dltwb / 2.0) / (1.0 - dltwb)
        new_theta = slack * rho2**2 * gap
        new_nui = slack * rho2 * gap
        if abs(new_theta - r_theta) <= stop and abs(new_nui - r_nui) <= stop:
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
