"""Scalar diagnostics of the perturbation theory and residual checkers.

The checkers compare measured expansion errors of perturbed minimizers
against the theory's bounds.  Bounds are reported, not asserted: the
prerequisite flags can genuinely fail at finite sample sizes, and a report
then carries informational value only.  A row never holds when the solve it
measures did not converge or the given unperturbed minimizer is not
stationary to the joint-solve tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, DltwbTooLarge
from .numkit import BlockSplit, check_symmetric, contraction_matrix, spd_solve
from .objective import (
    LinearPerturbation,
    SeparablePerturbation,
    SeparableSpec,
    SmoothObjective,
    newton_minimize,
    partial_minimize,
)

__all__ = [
    "ConditionConstants",
    "ExpansionDiagnostics",
    "ResidualReport",
    "rho_dual",
    "derived_constants",
    "check_partial_bias",
    "check_linear_sup_expansion",
    "check_separable_sup_expansion",
    "check_perturbed_partial",
    "semi_orthogonality_probe",
    "SemiOrthogonalityReport",
]

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ConditionConstants:
    """Uniform bounds on scaled third derivatives over a local set.

    ``tau3`` bounds the pure third derivative, ``d12``/``d21`` the mixed
    ones (one/two target slots).  ``radii`` records the local set the
    constants were measured on.
    """

    tau3: float
    d12: float
    d21: float
    norm_tag: str = "l2"  # "l2" | "linf"
    radii: tuple = ()
    method: str = ""

    def __post_init__(self):
        if min(self.tau3, self.d12, self.d21) < 0:
            raise ValueError("condition constants must be nonnegative")

    @classmethod
    def zeros(cls, norm_tag: str = "l2", radii: tuple = ()) -> "ConditionConstants":
        return cls(0.0, 0.0, 0.0, norm_tag=norm_tag, radii=radii, method="exact")

    @property
    def d_effective(self) -> float:
        """max(d12, d21), used where the theory assumes the two coincide."""
        return max(self.d12, self.d21)


@dataclass(frozen=True)
class ExpansionDiagnostics:
    """Derived scalars of the sup-norm expansion regime, with prerequisite flags."""

    rho_dual: float = float("nan")
    rho_dual_l2: float = float("nan")
    dltwb: float = float("nan")
    delta_nano: float = float("nan")
    delta_infty: float = float("nan")
    r_infty: float = float("nan")
    a_norm: float = float("nan")
    prerequisites_hold: dict = field(default_factory=dict)

    @property
    def all_prerequisites_hold(self) -> bool:
        return bool(self.prerequisites_hold) and all(self.prerequisites_hold.values())


@dataclass(frozen=True)
class ResidualReport:
    """Measured left side of one expansion display against its bound."""

    variant: str
    leading: float
    remainder: float
    bound: float
    holds: bool
    prerequisite_flags: dict = field(default_factory=dict)

    @classmethod
    def build(cls, variant, leading, remainder, bound, flags) -> "ResidualReport":
        # a non-finite bound means the regime is invalid and nothing is claimed
        holds = bool(np.isfinite(bound) and remainder <= bound)
        return cls(
            variant=variant,
            leading=float(leading),
            remainder=float(remainder),
            bound=float(bound),
            holds=holds,
            prerequisite_flags=dict(flags),
        )


def rho_dual(f_mat, d_scales) -> tuple[float, float]:
    """Worst per-coordinate scaled off-diagonal row norm, exact and l2 variant.

    The exact value is the per-row scaled l1 norm: the sup over the unit
    sup-norm ball of a single scaled row is attained at a sign vector.  The
    l2 variant is the root of the per-row scaled sum of squares; it is
    smaller whenever a row has two or more nonzero off-diagonal entries, and
    both are always reported.
    """
    f = np.atleast_2d(np.asarray(f_mat, dtype=float))
    d = np.asarray(d_scales, dtype=float)
    n = f.shape[0]
    if f.shape != (n, n) or d.shape[0] != n:
        raise DimensionMismatch("matrix and scale vector dimensions differ")
    if np.any(d <= 0):
        raise ValueError("scales must be positive")
    scaled = np.outer(d, d)
    np.divide(f, scaled, out=scaled)  # |f| / dd' is |f / dd'| bit for bit, as dd' > 0
    np.fill_diagonal(scaled, 0.0)
    exact = float(np.abs(scaled, out=scaled).sum(axis=1).max())
    l2 = float(np.sqrt(np.square(scaled, out=scaled).sum(axis=1).max()))  # |x|^2 is x^2
    return exact, l2


def derived_constants(
    constants: ConditionConstants,
    rho: float,
    a_norm: Optional[float] = None,
    rho_dual_l2: float = float("nan"),
) -> ExpansionDiagnostics:
    """Combine sup-norm condition constants into the sup-norm regime's scalars.

    ``rho`` is the exact dual value, in [0, 1); the sup-norm radius is
    ``constants.radii[0]``; ``a_norm`` is the scaled perturbation sup-norm,
    by default the largest one that radius covers.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"the dual value rho must lie in [0, 1), got {rho!r}")
    if not constants.radii:
        raise ValueError("the sup-norm radius must be given in constants.radii")
    t3, d12, d21 = constants.tau3, constants.d12, constants.d21
    r_inf = float(constants.radii[0])
    dltwb = d21 * r_inf
    if dltwb >= 1.0:
        raise DltwbTooLarge(f"dltwb = {dltwb:.4f} >= 1")
    delta_nano = (
        rho * d21 + d12 / 2.0 + 3.0 * (rho + dltwb / 2.0) ** 2 * t3 / (4.0 * (1.0 - dltwb) ** 2)
    ) / (1.0 - dltwb)
    delta_infty = 2.0 * t3 + d21 / 2.0 + 2.0 * (delta_nano + d21) / (1.0 - rho) ** 2
    if a_norm is None:
        a_norm = r_inf * (1.0 - rho) / SQRT2
    flags = {
        "dltwb_le_quarter": bool(dltwb <= 0.25),
        "d12_r_le_quarter": bool(d12 * r_inf <= 0.25),
        "dinf_a_small": bool(delta_infty * a_norm <= SQRT2 - 1.0),
    }
    return ExpansionDiagnostics(
        rho_dual=float(rho),
        rho_dual_l2=float(rho_dual_l2),
        dltwb=float(dltwb),
        delta_nano=float(delta_nano),
        delta_infty=float(delta_infty),
        r_infty=float(r_inf),
        a_norm=float(a_norm),
        prerequisites_hold=flags,
    )


def _stationary(grad) -> bool:
    """Whether f's gradient at ``upsilon_star`` vanishes to the joint-solve tolerance."""
    return float(np.abs(grad).max()) <= tol.JOINT_SOLVE_TOL


def _report(variant, leading, remainder, bound, flags, solved: bool) -> ResidualReport:
    """A residual report; it claims nothing when the solve it measures is not trusted."""
    report = ResidualReport.build(variant, leading, remainder, bound, flags)
    return report if solved else replace(report, holds=False)


def _marginal_setup(f, split, nui_values, constants, upsilon_star):
    """Set-up shared by the partial checkers, all at the joint minimizer.

    The metrics D and H are the square-root blocks f_tt^{1/2} and f_nn^{1/2}
    of the Hessian's block geometry, in which the l2 constants are measured:
    there ||F_tt^{-1} D|| = 1/tt_smin and rho_star = ||P||.  Returns the
    geometry, ||F_tt^{-1} D||, one (||H (nu - nu*)||, flags) pair per
    nuisance value, the marginal regime's rho2 and delta_nano, and whether
    ``upsilon_star`` is stationary.  A row's ``offset_in_radius`` flag says
    whether its offset lies within the nuisance radius the constants were
    measured on.
    """
    if constants.norm_tag != "l2":
        raise ValueError("the partial bounds are proven in the l2 block metrics only")
    geometry = contraction_matrix(f.hessian(upsilon_star), split)
    nui_star = upsilon_star[split.nuisance_idx]
    h_norms = [float(np.linalg.norm(geometry.nn_half @ (np.asarray(nu, dtype=float) - nui_star)))
               for nu in nui_values]
    t3, d12, d21 = constants.tau3, constants.d12, constants.d21
    r_circ = float(constants.radii[0] if constants.radii else (max(h_norms) if h_norms else 0.0))
    dltwb = d21 * r_circ
    if dltwb >= 1.0:
        raise DltwbTooLarge(f"dltwb = {dltwb:.4f} >= 1")
    rho2 = 1.5 * (geometry.rho_star + d12 * r_circ / 2.0) / (1.0 - dltwb)
    delta_nano = (geometry.rho_star * d21 + d12 / 2.0 + rho2**2 * t3 / 3.0) / (1.0 - dltwb)
    rows = [(h, {"rho2_t3_r": bool(rho2 * t3 * r_circ <= 2.0 / 3.0),
                 "offset_in_radius": not constants.radii or h <= constants.radii[-1]})
            for h in h_norms]
    stationary = _stationary(f.gradient(upsilon_star))
    return geometry, 1.0 / geometry.tt_smin, rows, rho2, delta_nano, stationary


def check_partial_bias(
    f: SmoothObjective,
    split: BlockSplit,
    nui_values: Sequence,
    constants: ConditionConstants,
    upsilon_star,
) -> list[ResidualReport]:
    """Measure the bias of partial solutions against the linear-term expansion.

    For each nuisance value, solves the partial problem, subtracts the
    closed-form linear term, and compares the remainder with
    ||F^{-1} D|| * delta_nano * ||H (nui - nui*)||^2.  Also records the
    optimal-value expansion defect with its cubic bound.  D and H are the
    square-root Hessian blocks at ``upsilon_star`` (see ``_marginal_setup``);
    ``constants`` must be l2 constants, measured in those metrics.
    """
    geometry, f_inv_d_norm, rows, rho2, delta_nano, stationary = _marginal_setup(
        f, split, nui_values, constants, upsilon_star)
    theta_star = upsilon_star[split.target_idx]
    nui_star = upsilon_star[split.nuisance_idx]

    reports = []
    for nu, (h_norm, flags) in zip(nui_values, rows):
        nu = np.asarray(nu, dtype=float)
        x_at = split.embed(theta_star, nu)
        sol = partial_minimize(f, x_at, split.target_idx, tol.JOINT_SOLVE_TOL)
        solved = stationary and sol.converged
        theta_nu = sol.argmin
        linear_term = spd_solve(geometry.f_tt, geometry.f_tn @ (nu - nui_star))
        remainder = float(np.linalg.norm(theta_nu - theta_star + linear_term))
        leading = float(np.linalg.norm(linear_term))
        bound = f_inv_d_norm * delta_nano * h_norm**2
        reports.append(_report("partial_bias", leading, remainder, bound, flags, solved))

        # optimal-value expansion defect
        a_nu = f.gradient(x_at)[split.target_idx]
        f_nu = check_symmetric(f.hessian(x_at)[np.ix_(split.target_idx, split.target_idx)])
        f_nu_inv_a = spd_solve(f_nu, a_nu)
        quad = float(a_nu @ f_nu_inv_a)  # ||F_nu^{-1/2} A_nu||^2
        val_gap = 2.0 * f.value(split.embed(theta_nu, nu)) - 2.0 * f.value(x_at) + quad
        cube = float(np.linalg.norm(geometry.tt_half @ f_nu_inv_a)) ** 3
        reports.append(_report("value_expansion", quad, abs(val_gap),
                               2.5 * constants.tau3 * cube, flags, solved))
    return reports


def _sup_norm_diag_defensive(constants, rho_exact, rho_l2, a_norm):
    """Derived sup-norm constants on the radius sqrt(2) a / (1 - rho); non-finite
    bounds when the regime is invalid.

    Below rho = 1 there is one path: zero noise takes the constants at radius 0,
    where every bound is 0 and, with finite constants, every flag holds, and a
    NaN noise norm carries NaN through, so no flag holds.
    """
    if rho_exact < 1.0:
        r_inf = SQRT2 * a_norm / (1.0 - rho_exact)
        try:
            return derived_constants(
                replace(constants, norm_tag="linf", radii=(r_inf,)),
                rho_exact, a_norm=a_norm, rho_dual_l2=rho_l2,
            )
        except DltwbTooLarge:
            pass
    flags = {"dltwb_le_quarter": False, "d12_r_le_quarter": False, "dinf_a_small": False}
    return ExpansionDiagnostics(
        rho_dual=rho_exact,
        rho_dual_l2=rho_l2,
        r_infty=float("inf"),
        a_norm=a_norm,
        prerequisites_hold=flags,
    )


def _sup_norm_reports(prefix, fisher, d, rho, shift, v, constants, solved, f_inv_v=None):
    """Sup-norm displays (i)-(iv) of one perturbed minimizer, variants ``prefix_*``.

    ``shift`` is the perturbed minus the unperturbed minimizer, ``v`` the
    perturbation gradient at the unperturbed one, ``fisher`` the Hessian
    there, ``d`` the diagonal metric, ``rho`` the pair ``rho_dual(fisher,
    d)`` and ``f_inv_v`` the solve ``spd_solve(fisher, v)``, when the caller
    holds it.  Bounds are computed whenever the dual value is below one; the
    three prerequisite flags gate their interpretation.
    """
    rho_exact, rho_l2 = rho
    d_inv_v = v / d
    v_norm = float(np.abs(d_inv_v).max())
    diag = _sup_norm_diag_defensive(constants, rho_exact, rho_l2, v_norm)

    if f_inv_v is None:
        f_inv_v = spd_solve(fisher, v)
    dinf, rho = diag.delta_infty, diag.rho_dual
    flags = {**diag.prerequisites_hold,
             "radius_covered": not constants.radii or diag.r_infty <= constants.radii[0]}

    def over_gap(numerator: float) -> float:
        return numerator / (1.0 - rho) if rho < 1 else float("inf")

    rows = [
        ("i", v_norm, np.abs(d * shift).max(), diag.r_infty),
        ("ii", v_norm, np.abs((fisher @ shift + v) / d).max(), dinf * v_norm**2),
        # divided before the product, not via over_gap: the lin_iii bound's stored rounding
        ("iii", np.abs(d * f_inv_v).max(), np.abs(d * (shift + f_inv_v)).max(),
         dinf / (1.0 - rho) * v_norm**2 if rho < 1 else float("inf")),
        ("iv_a", v_norm, np.abs(d * shift + d_inv_v).max(),
         over_gap(dinf * v_norm**2 + rho * v_norm)),
        # (I + Delta) D^{-1} v with Delta = I - D^{-1} F D^{-1}, without an n x n temporary
        ("iv_b", v_norm, np.abs(d * shift + (2.0 * d_inv_v - fisher @ (d_inv_v / d) / d)).max(),
         over_gap(dinf * v_norm**2 + rho**2 * v_norm)),
    ]
    return diag, [_report(f"{prefix}_{name}", *row, flags, solved) for name, *row in rows]


def check_linear_sup_expansion(
    f: SmoothObjective,
    a_vec,
    constants: ConditionConstants,
    upsilon_star,
    fisher=None,
    rho=None,
    evaluation=None,
    f_inv_a=None,
) -> tuple[ExpansionDiagnostics, list[ResidualReport]]:
    """Solve argmin of f + <a, .> and check the sup-norm expansion displays.

    The diagonal metric is built from the Hessian diagonal at the
    unperturbed minimizer; ``fisher`` is that Hessian, ``rho`` its
    ``rho_dual`` pair in that metric, ``evaluation`` the value and gradient
    of f there and ``f_inv_a`` the solve ``spd_solve(fisher, a_vec)``, when
    the caller holds them.  The Hessian, given or built, passes
    ``check_symmetric`` before any use, and is the solve's first Newton
    matrix: f is evaluated at the unperturbed minimizer once, and zero times
    when the caller gives the evaluation.
    """
    a_vec = np.asarray(a_vec, dtype=float)
    if a_vec.shape[0] != f.dim:
        raise DimensionMismatch("perturbation vector length differs from objective dimension")
    fisher = check_symmetric(f.hessian(upsilon_star) if fisher is None else fisher)
    value, grad = f.evaluate(upsilon_star)[:2] if evaluation is None else evaluation
    # what LinearPerturbation(f, a_vec).evaluate(upsilon_star) returns, bit for bit
    # Newton factors its matrix in place, and the reports below read fisher
    start = (value + float(a_vec @ upsilon_star), grad + a_vec, lambda: fisher.copy())
    sol = newton_minimize(LinearPerturbation(f, a_vec), upsilon_star, tol.JOINT_SOLVE_TOL,
                          start=start)
    solved = sol.converged and _stationary(grad)
    d = np.sqrt(np.diag(fisher))
    rho = rho_dual(fisher, d) if rho is None else rho
    return _sup_norm_reports("lin", fisher, d, rho, sol.argmin - upsilon_star, a_vec, constants,
                             solved, f_inv_a)


def check_separable_sup_expansion(
    f: SmoothObjective,
    spec: SeparableSpec,
    constants: ConditionConstants,
    upsilon_star,
) -> tuple[ExpansionDiagnostics, list[ResidualReport]]:
    """Check the sup-norm displays for a coordinate-wise smooth perturbation.

    The metric diagonal is refreshed at the perturbed argmin:
    D_j^2 = F_jj(perturbed) + t_j''(perturbed_j).  Displays (ii) and (iii)
    are evaluated in both printed sign conventions: variants suffixed
    ``_printed`` subtract the gradient-of-perturbation vector where the
    source display does, while the unsuffixed variants carry the sign under
    which the remainder is second order (these are the ones that contract
    quadratically).
    """
    sol = newton_minimize(SeparablePerturbation(f, spec), upsilon_star,
                          tol_grad=tol.JOINT_SOLVE_TOL)
    ups_circ = sol.argmin
    fisher = check_symmetric(f.hessian(upsilon_star))
    d = np.sqrt(f.hessian_diagonal(ups_circ) + spec.t2(ups_circ))
    m_vec = spec.t1(upsilon_star)
    shift = ups_circ - upsilon_star
    solved = sol.converged and _stationary(f.gradient(upsilon_star))
    rho = rho_dual(fisher, d)
    diag, reports = _sup_norm_reports("sep", fisher, d, rho, shift, m_vec, constants, solved)
    # the printed convention is the same display with the sign of m flipped
    _, flipped = _sup_norm_reports("sep", fisher, d, rho, shift, -m_vec, constants, solved)
    ii_printed, iii_printed = (replace(r, variant=r.variant + "_printed") for r in flipped[1:3])
    return diag, [reports[0], ii_printed, reports[1], iii_printed, *reports[2:]]


def check_perturbed_partial(
    f: SmoothObjective,
    split: BlockSplit,
    a_target,
    nui_values: Sequence,
    constants: ConditionConstants,
    upsilon_star,
) -> list[ResidualReport]:
    """Partial solutions of a target-block linear perturbation vs their expansion.

    For each nuisance value, solves argmin over the target block of
    f + <a, theta>, subtracts both linear terms, and checks the combined
    quadratic bound plus the localization display, in the metrics of
    ``check_partial_bias``.
    """
    a_target = np.asarray(a_target, dtype=float)
    if a_target.shape[0] != split.p:
        raise DimensionMismatch("target perturbation length differs from target block size")
    geometry, f_inv_d_norm, rows, rho2, delta_nano, stationary = _marginal_setup(
        f, split, nui_values, constants, upsilon_star)
    theta_star = upsilon_star[split.target_idx]
    nui_star = upsilon_star[split.nuisance_idx]
    a_full = np.zeros(f.dim)
    a_full[split.target_idx] = a_target
    g = LinearPerturbation(f, a_full)

    f_inv_a = spd_solve(geometry.f_tt, a_target)
    d_f_inv_a = float(np.linalg.norm(geometry.tt_half @ f_inv_a))
    d_inv_a = float(np.linalg.norm(geometry.tt_inv_half @ a_target))

    reports = []
    for nu, (h_norm, flags) in zip(nui_values, rows):
        nu = np.asarray(nu, dtype=float)
        dltwb_local = constants.d21 * h_norm
        flags = {**flags, "dltwb_le_quarter": dltwb_local <= 0.25}
        sol = partial_minimize(g, split.embed(theta_star, nu), split.target_idx,
                               tol.JOINT_SOLVE_TOL)
        solved = stationary and sol.converged
        theta_circ = sol.argmin
        linear_term = spd_solve(geometry.f_tt, geometry.f_tn @ (nu - nui_star))
        remainder = float(np.linalg.norm(theta_circ - theta_star + linear_term + f_inv_a))
        leading = float(np.linalg.norm(linear_term + f_inv_a))
        bound = f_inv_d_norm * (
            (delta_nano + constants.d21) * h_norm**2
            + (2.0 * constants.tau3 + constants.d21 / 2.0) * d_f_inv_a**2
        )
        reports.append(_report("pp_expansion", leading, remainder, bound, flags, solved))
        loc_left = float(np.linalg.norm(geometry.tt_half @ (theta_circ - theta_star)))
        # no bound is proven once d21 ||H (nu - nu*)|| reaches 1
        loc_bound = (rho2 * h_norm + 1.5 / (1.0 - dltwb_local) * d_inv_a
                     if dltwb_local < 1.0 else float("inf"))
        reports.append(_report("pp_localization", rho2 * h_norm, loc_left, loc_bound,
                               flags, solved))
    return reports


@dataclass(frozen=True)
class SemiOrthogonalityReport:
    """Co-occurrence probe of small cross derivatives and small partial bias."""

    max_cross_inf: float
    max_bias: float
    cross_values: tuple
    bias_values: tuple
    converged: bool  # every partial solve behind ``bias_values`` converged

    @property
    def semi_orthogonal(self) -> bool:
        return self.max_cross_inf <= 1e-9


def semi_orthogonality_probe(
    f: SmoothObjective,
    split: BlockSplit,
    nui_values: Sequence,
    upsilon_star,
) -> SemiOrthogonalityReport:
    """Measure the cross Hessian block at fixed target and the induced l2 bias."""
    theta_star = upsilon_star[split.target_idx]
    cross_vals, bias_vals = [], []
    converged = True
    for nu in nui_values:
        nu = np.asarray(nu, dtype=float)
        x_at = split.embed(theta_star, nu)
        cross = f.hessian(x_at)[np.ix_(split.target_idx, split.nuisance_idx)]
        cross_vals.append(float(np.abs(cross).max()))
        sol = partial_minimize(f, x_at, split.target_idx, tol.JOINT_SOLVE_TOL)
        bias_vals.append(float(np.linalg.norm(sol.argmin - theta_star)))
        converged = converged and sol.converged
    return SemiOrthogonalityReport(
        max_cross_inf=max(cross_vals) if cross_vals else 0.0,
        max_bias=max(bias_vals) if bias_vals else 0.0,
        cross_values=tuple(cross_vals),
        bias_values=tuple(bias_vals),
        converged=converged,
    )
