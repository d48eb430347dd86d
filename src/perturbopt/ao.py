"""Alternating block minimization: traces, the quadratic exactness identity,
and the local linear-convergence certificate.

One alternation step solves the nuisance block at the previous target
iterate, then the target block at the fresh nuisance iterate.  Error norms
are measured against the exact joint minimizer in the square-root-curvature
geometry, which is what the convergence statements control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, InnerSolveFailed, InsufficientSteps
from .expansions import ConditionConstants
from .numkit import BlockGeometry, BlockSplit, contraction_matrix
from .objective import QuadraticObjective, SmoothObjective, partial_minimize

__all__ = [
    "AoTrace",
    "AoCertificate",
    "ao_run",
    "quad_ao_identity_check",
    "certify_convergence",
    "estimate_rate",
    "fixed_point_radii",
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
    inner_iterations: np.ndarray  # Newton iterations per step: nuisance solve, target solve

    def __post_init__(self):
        steps = len(self.nui_iterates)
        if len(self.theta_iterates) != steps + 1:
            raise ValueError("expected one more target iterate (the start) than steps")
        if self.theta_err_norms.shape[0] != steps + 1 or self.nui_err_norms.shape[0] != steps:
            raise ValueError("error-norm lengths inconsistent with the step count")
        if self.inner_iterations.shape != (steps, 2):
            raise ValueError("expected one (nuisance, target) iteration pair per step")
        if np.any(self.theta_err_norms < 0) or np.any(self.nui_err_norms < 0):
            raise ValueError("error norms must be nonnegative")

    @property
    def steps(self) -> int:
        return len(self.nui_iterates)


def ao_run(
    f: SmoothObjective, geometry: BlockGeometry, theta0, n_steps: int, upsilon_star
) -> AoTrace:
    """Alternate the two partial minimizations for ``n_steps`` full steps.

    ``upsilon_star`` is the joint minimizer: the convergence statements
    measure distances to it, not to the last iterate.  ``geometry`` is that
    of the Hessian there (``contraction_matrix``); its split names the
    blocks.  Each partial solve starts at the partial minimizer of the
    quadratic model at ``upsilon_star``, the exact alternation map applied
    to the current error, and runs until its gradient passes
    ``tol.JOINT_SOLVE_TOL``; ``inner_iterations`` counts its Newton steps.
    Each partial solve is a ``partial_minimize`` call.
    """
    if n_steps < 1:
        raise ValueError("need at least one alternation step")
    split = geometry.split
    theta0 = np.asarray(theta0, dtype=float)
    upsilon_star = np.asarray(upsilon_star, dtype=float)
    if theta0.shape != (split.p,):
        raise DimensionMismatch(f"theta0 has shape {theta0.shape}, the target block {split.p}")
    if upsilon_star.shape != (split.dim,):
        raise DimensionMismatch(
            f"upsilon_star has shape {upsilon_star.shape}, the split covers {split.dim}")
    theta_star = upsilon_star[split.target_idx]
    nui_star = upsilon_star[split.nuisance_idx]
    tt_half, nn_half, p = geometry.tt_half, geometry.nn_half, geometry.p
    x = np.empty(split.dim)  # the solves' start; Newton copies it

    theta = theta0.copy()
    thetas = [theta]  # each iterate is a new array, never written after
    nuis: list = []
    e_prev = tt_half @ (theta - theta_star)
    theta_errs = [math.sqrt(e_prev @ e_prev)]
    nui_errs: list = []
    eps_norms: list = []
    alpha_norms: list = []
    inner: list = []

    for step in range(1, n_steps + 1):
        # to first order the nuisance error is -P'e_prev and the next target error -P e_nui
        pt_e_prev = p.T @ e_prev
        x[split.target_idx] = theta
        x[split.nuisance_idx] = nui_star - geometry.nn_inv_half @ pt_e_prev
        sol_n = partial_minimize(f, x, split.nuisance_idx, tol.JOINT_SOLVE_TOL)
        if not sol_n.converged:
            raise InnerSolveFailed(step, "nuisance")
        nui = sol_n.argmin
        e_nui = nn_half @ (nui - nui_star)
        p_e_nui = p @ e_nui
        x[split.nuisance_idx] = nui
        x[split.target_idx] = theta_star - geometry.tt_inv_half @ p_e_nui
        sol_t = partial_minimize(f, x, split.target_idx, tol.JOINT_SOLVE_TOL)
        if not sol_t.converged:
            raise InnerSolveFailed(step, "target")
        theta = sol_t.argmin
        thetas.append(theta)
        nuis.append(nui)
        inner.append((sol_n.iterations, sol_t.iterations))
        e_theta = tt_half @ (theta - theta_star)
        theta_errs.append(math.sqrt(e_theta @ e_theta))
        nui_errs.append(math.sqrt(e_nui @ e_nui))
        # step residuals relative to the exact quadratic alternation map;
        # both vanish identically when the objective is quadratic
        eps = e_theta + p_e_nui
        alpha = e_nui + pt_e_prev
        eps_norms.append(math.sqrt(eps @ eps))
        alpha_norms.append(math.sqrt(alpha @ alpha))
        e_prev = e_theta

    return AoTrace(
        theta_iterates=thetas,
        nui_iterates=nuis,
        theta_err_norms=np.asarray(theta_errs),
        nui_err_norms=np.asarray(nui_errs),
        eps_norms=np.asarray(eps_norms),
        alpha_norms=np.asarray(alpha_norms),
        inner_iterations=np.asarray(inner, dtype=int),
    )


def quad_ao_identity_check(
    quad: QuadraticObjective, split: BlockSplit, theta0, n_steps: int = 5
) -> float:
    """Max sup-norm deviation from the exact one-step alternation identity.

    On a strictly convex quadratic, the curvature-weighted target error is
    mapped by P P' at every step, exactly.
    """
    geometry = contraction_matrix(quad.curvature, split)
    trace = ao_run(quad, geometry, theta0, n_steps, quad.minimizer)
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

    The gap is the caller's argument to ``certify_convergence`` and is not
    kept here.  The radii and the derived scalars stay empty or NaN where a
    failed condition leaves them undefined.
    """

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


def _damping(rho_star: float, dltwb: float) -> float:
    """The damping scalar rho2 of the certificate; the caller checks dltwb < 1."""
    return 1.5 * (rho_star + dltwb / 2.0) / (1.0 - dltwb)


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
    ppt, rho_star, gap = geometry.ppt_norm, geometry.rho_star, float(theta0_gap)
    base = dict(ppt_norm=ppt, rho_star=rho_star, radii=(r_theta, r_nui))
    d_eff = constants.d_effective
    dltwb = d_eff * max(r_theta, r_nui)
    if dltwb >= 1.0:
        return AoCertificate(**base, dltwb=dltwb, conditions_hold={"dltwb_lt_1": False})

    rho2 = _damping(rho_star, dltwb)
    delta_nano = (d_eff * rho_star + d_eff / 2.0 + constants.tau3 * rho2**2 / 3.0) / (1.0 - dltwb)
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
        rho2 = _damping(rho_star_value, dltwb)
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
