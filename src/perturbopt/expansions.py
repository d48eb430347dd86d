"""Scalar diagnostics of the perturbation theory and residual checkers.

The checkers compare measured expansion errors of perturbed minimizers
against the theory's bounds.  Bounds are reported, not asserted: the
prerequisite flags can genuinely fail at finite sample sizes, and a report
then carries informational value only.  A row never holds when the solve it
measures did not converge or the given unperturbed minimizer is not
stationary to the joint-solve tolerance.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, DltwbTooLarge
from .numkit import (
    BlockHessian,
    BlockSplit,
    MetricTensor,
    check_symmetric,
    spd_solve,
    spectral_norm,
)
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
    "rho_star",
    "derived_constants",
    "check_partial_bias",
    "check_linear_sup_expansion",
    "check_separable_sup_expansion",
    "check_perturbed_partial",
    "semi_orthogonality_probe",
    "SemiOrthogonalityReport",
    "reports_to_csv",
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
    """All derived scalars of one expansion regime, with prerequisite flags."""

    flavor: str
    rho_dual: float = float("nan")
    rho_dual_l2: float = float("nan")
    rho_star: float = float("nan")
    rho2: float = float("nan")
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
    scaled = f / np.outer(d, d)  # |f| / dd' is |f / dd'| bit for bit, as dd' > 0
    np.fill_diagonal(scaled, 0.0)
    l2 = float(np.sqrt((scaled**2).sum(axis=1).max()))
    exact = float(np.abs(scaled, out=scaled).sum(axis=1).max())
    return exact, l2


def rho_star(
    f_tn,
    d_metric: MetricTensor,
    h_metric: MetricTensor,
    norm_tag: str = "l2",
    exact_limit: int = 20,
) -> tuple[float, str]:
    """Operator norm of the scaled cross block over the chosen unit ball.

    l2: spectral norm.  linf: maximized over sign vectors when the nuisance
    dimension allows exhaustion, otherwise a row-absolute-sum relaxation is
    returned with a method tag.
    """
    f_tn = np.atleast_2d(np.asarray(f_tn, dtype=float))
    if d_metric.dim != f_tn.shape[0] or h_metric.dim != f_tn.shape[1]:
        raise DimensionMismatch("cross block does not match the metric dimensions")
    b = d_metric.apply_inv(f_tn)
    b = (h_metric.apply_inv(b.T)).T
    if norm_tag == "l2":
        return spectral_norm(b), "spectral"
    if norm_tag != "linf":
        raise ValueError(f"unknown norm tag {norm_tag!r}")
    q = b.shape[1]
    if q <= exact_limit:
        best = 0.0
        # enumerate sign vectors in chunks
        chunk = 1 << 14
        total = 1 << q
        bits = np.arange(q)
        for start in range(0, total, chunk):
            idx = np.arange(start, min(start + chunk, total))
            signs = np.where((idx[:, None] >> bits) & 1, 1.0, -1.0)
            norms = np.linalg.norm(signs @ b.T, axis=1)
            best = max(best, float(norms.max()))
        return best, "sign_enumeration"
    relaxed = float(np.linalg.norm(np.abs(b).sum(axis=1)))
    return relaxed, "rowsum_relaxation"


def derived_constants(
    constants: ConditionConstants,
    flavor: str,
    rho: Optional[float] = None,
    rho_star_value: Optional[float] = None,
    a_norm: Optional[float] = None,
    rho_dual_l2: float = float("nan"),
) -> ExpansionDiagnostics:
    """Combine condition constants into the derived scalars of one regime.

    flavor="sup_norm": needs ``rho`` (the exact dual value) and the sup-norm
    radius in ``constants.radii``; optionally ``a_norm`` = the scaled
    perturbation sup-norm.  flavor="marginal"/"ao": need ``rho_star_value``
    and the localization radii.
    """
    t3, d12, d21 = constants.tau3, constants.d12, constants.d21
    if flavor == "sup_norm":
        if rho is None:
            raise ValueError("sup_norm flavor needs the dual-norm value rho")
        if not constants.radii:
            raise ValueError("sup_norm flavor needs the sup-norm radius in constants.radii")
        r_inf = float(constants.radii[0])
        dltwb = d21 * r_inf
        if dltwb >= 1.0:
            raise DltwbTooLarge(f"dltwb = {dltwb:.4f} >= 1")
        delta_nano = (
            rho * d21 + d12 / 2.0 + 3.0 * (rho + dltwb / 2.0) ** 2 * t3 / (4.0 * (1.0 - dltwb) ** 2)
        ) / (1.0 - dltwb)
        delta_infty = 2.0 * t3 + d21 / 2.0 + 2.0 * (delta_nano + d21) / (1.0 - rho) ** 2
        if a_norm is None:
            a_norm = r_inf * (1.0 - rho) / SQRT2 if rho < 1.0 else float("nan")
        flags = {
            "dltwb_le_quarter": bool(dltwb <= 0.25),
            "d12_r_le_quarter": bool(d12 * r_inf <= 0.25),
            "dinf_a_small": bool(delta_infty * a_norm <= SQRT2 - 1.0),
        }
        return ExpansionDiagnostics(
            flavor=flavor,
            rho_dual=float(rho),
            rho_dual_l2=float(rho_dual_l2),
            dltwb=float(dltwb),
            delta_nano=float(delta_nano),
            delta_infty=float(delta_infty),
            r_infty=float(r_inf),
            a_norm=float(a_norm),
            prerequisites_hold=flags,
        )

    if flavor == "marginal":
        if rho_star_value is None or not constants.radii:
            raise ValueError("marginal flavor needs rho_star_value and the radius r_circ")
        r_circ = float(constants.radii[0])
        dltwb = d21 * r_circ
        if dltwb >= 1.0:
            raise DltwbTooLarge(f"dltwb = {dltwb:.4f} >= 1")
        rho2 = 1.5 * (rho_star_value + d12 * r_circ / 2.0) / (1.0 - dltwb)
        delta_nano = (rho_star_value * d21 + d12 / 2.0 + rho2**2 * t3 / 3.0) / (1.0 - dltwb)
        flags = {"rho2_t3_r": bool(rho2 * t3 * r_circ <= 2.0 / 3.0),
                 "dltwb_lt_1": bool(dltwb < 1.0)}
        return ExpansionDiagnostics(
            flavor=flavor,
            rho_star=float(rho_star_value),
            rho2=float(rho2),
            dltwb=float(dltwb),
            delta_nano=float(delta_nano),
            prerequisites_hold=flags,
        )

    if flavor == "ao":
        if rho_star_value is None or len(constants.radii) < 2:
            raise ValueError("ao flavor needs rho_star_value and radii (r_theta, r_nui)")
        r_max = float(max(constants.radii))
        d_eff = constants.d_effective
        dltwb = d_eff * r_max
        if dltwb >= 1.0:
            raise DltwbTooLarge(f"dltwb = {dltwb:.4f} >= 1")
        rho2 = 1.5 * (rho_star_value + dltwb / 2.0) / (1.0 - dltwb)
        delta_nano = (d_eff * rho_star_value + d_eff / 2.0 + t3 * rho2**2 / 3.0) / (1.0 - dltwb)
        flags = {"dltwb_lt_1": dltwb < 1.0}
        return ExpansionDiagnostics(
            flavor=flavor,
            rho_star=rho_star_value,
            rho2=rho2,
            dltwb=dltwb,
            delta_nano=delta_nano,
            prerequisites_hold=flags,
        )

    raise ValueError(f"unknown flavor {flavor!r}")


def _circ_norm(v, tag: str) -> float:
    return float(np.abs(v).max()) if tag == "linf" else float(np.linalg.norm(v))


def _stationary(f: SmoothObjective, upsilon_star) -> bool:
    """Whether ``upsilon_star`` minimizes f to the joint-solve tolerance."""
    return float(np.abs(f.gradient(upsilon_star)).max()) <= tol.JOINT_SOLVE_TOL


def _report(variant, leading, remainder, bound, flags, solved: bool) -> ResidualReport:
    """A residual report; it claims nothing when the solve it measures is not trusted."""
    report = ResidualReport.build(variant, leading, remainder, bound, flags)
    return report if solved else replace(report, holds=False)


def _marginal_setup(f, split, nui_values, d_metric, h_metric, constants, upsilon_star):
    """Set-up shared by the partial checkers, all at the joint minimizer.

    Returns the block Hessian, ||F_tt^{-1} D||, the offsets ||H (nu - nu*)||
    of the nuisance values, the "marginal" diagnostics and whether
    ``upsilon_star`` is stationary.
    """
    bh = BlockHessian.from_full(f.hessian(upsilon_star), split)
    f_inv_d_norm = spectral_norm(np.linalg.solve(bh.f_tt, d_metric.matrix()))
    nui_star = upsilon_star[split.nuisance_idx]
    h_norms = [_circ_norm(h_metric.apply(np.asarray(nu, dtype=float) - nui_star),
                          constants.norm_tag) for nu in nui_values]
    r_circ = constants.radii[0] if constants.radii else (max(h_norms) if h_norms else 0.0)
    rho_star_value, _ = rho_star(bh.f_tn, d_metric, h_metric, norm_tag=constants.norm_tag)
    diag = derived_constants(replace(constants, radii=(r_circ,)), "marginal",
                             rho_star_value=rho_star_value)
    return bh, f_inv_d_norm, h_norms, diag, _stationary(f, upsilon_star)


def check_partial_bias(
    f: SmoothObjective,
    split: BlockSplit,
    nui_values: Sequence,
    d_metric: MetricTensor,
    h_metric: MetricTensor,
    constants: ConditionConstants,
    upsilon_star,
) -> list[ResidualReport]:
    """Measure the bias of partial solutions against the linear-term expansion.

    For each nuisance value, solves the partial problem, subtracts the
    closed-form linear term, and compares the remainder with
    ||F^{-1} D|| * delta_nano * ||H (nui - nui*)||^2.  Also records the
    optimal-value expansion defect with its cubic bound.
    """
    bh, f_inv_d_norm, h_norms, diag, stationary = _marginal_setup(
        f, split, nui_values, d_metric, h_metric, constants, upsilon_star)
    theta_star = upsilon_star[split.target_idx]
    nui_star = upsilon_star[split.nuisance_idx]
    flags = diag.prerequisites_hold

    reports = []
    for nu, h_norm in zip(nui_values, h_norms):
        nu = np.asarray(nu, dtype=float)
        sol = partial_minimize(f, split, "nuisance", nu, warm_start=theta_star,
                               tol_grad=tol.JOINT_SOLVE_TOL)
        solved = stationary and sol.converged
        theta_nu = sol.argmin
        linear_term = spd_solve(bh.f_tt, bh.f_tn @ (nu - nui_star))
        remainder = float(np.linalg.norm(theta_nu - theta_star + linear_term))
        leading = float(np.linalg.norm(linear_term))
        bound = f_inv_d_norm * diag.delta_nano * h_norm**2
        reports.append(_report("partial_bias", leading, remainder, bound, flags, solved))

        # optimal-value expansion defect
        x_at = split.embed(theta_star, nu)
        a_nu = f.gradient(x_at)[split.target_idx]
        f_nu = check_symmetric(f.hessian(x_at)[np.ix_(split.target_idx, split.target_idx)])
        f_nu_inv_a = spd_solve(f_nu, a_nu)
        quad = float(a_nu @ f_nu_inv_a)  # ||F_nu^{-1/2} A_nu||^2
        val_gap = 2.0 * f.value(split.embed(theta_nu, nu)) - 2.0 * f.value(x_at) + quad
        cube = float(np.linalg.norm(d_metric.apply(f_nu_inv_a))) ** 3
        reports.append(_report("value_expansion", quad, abs(val_gap),
                               2.5 * constants.tau3 * cube, flags, solved))
    return reports


def _sup_norm_diag_defensive(constants, rho_exact, rho_l2, a_norm):
    """Derived sup-norm constants; non-finite bounds when the regime is invalid."""
    if rho_exact < 1.0 and a_norm > 0.0:
        r_inf = SQRT2 * a_norm / (1.0 - rho_exact)
        try:
            return derived_constants(
                replace(constants, norm_tag="linf", radii=(r_inf,)), "sup_norm",
                rho=rho_exact, a_norm=a_norm, rho_dual_l2=rho_l2,
            )
        except DltwbTooLarge:
            pass
    elif rho_exact < 1.0:
        # zero perturbation: everything degenerates to the unperturbed point
        return ExpansionDiagnostics(
            flavor="sup_norm",
            rho_dual=rho_exact,
            rho_dual_l2=rho_l2,
            dltwb=0.0,
            delta_nano=0.0,
            delta_infty=0.0,
            r_infty=0.0,
            a_norm=0.0,
            prerequisites_hold={
                "dltwb_le_quarter": True,
                "d12_r_le_quarter": True,
                "dinf_a_small": True,
            },
        )
    flags = {"dltwb_le_quarter": False, "d12_r_le_quarter": False, "dinf_a_small": False}
    return ExpansionDiagnostics(
        flavor="sup_norm",
        rho_dual=rho_exact,
        rho_dual_l2=rho_l2,
        r_infty=float("inf"),
        a_norm=a_norm,
        prerequisites_hold=flags,
    )


def _sup_norm_reports(prefix, fisher, d, rho, shift, v, constants, solved):
    """Sup-norm displays (i)-(iv) of one perturbed minimizer, variants ``prefix_*``.

    ``shift`` is the perturbed minus the unperturbed minimizer, ``v`` the
    perturbation gradient at the unperturbed one, ``fisher`` the Hessian
    there, ``d`` the diagonal metric and ``rho`` the pair ``rho_dual(fisher,
    d)``.  Bounds are computed whenever the dual value is below one; the
    three prerequisite flags gate their interpretation.
    """
    rho_exact, rho_l2 = rho
    d_inv_v = v / d
    v_norm = float(np.abs(d_inv_v).max())
    diag = _sup_norm_diag_defensive(constants, rho_exact, rho_l2, v_norm)

    f_inv_v = spd_solve(fisher, v)
    eye = np.eye(d.shape[0])
    delta_mat = eye - fisher / np.outer(d, d)
    flags, dinf, rho = diag.prerequisites_hold, diag.delta_infty, diag.rho_dual

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
        ("iv_b", v_norm, np.abs(d * shift + (eye + delta_mat) @ d_inv_v).max(),
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
) -> tuple[ExpansionDiagnostics, list[ResidualReport]]:
    """Solve argmin of f + <a, .> and check the sup-norm expansion displays.

    The diagonal metric is built from the Hessian diagonal at the
    unperturbed minimizer; ``fisher`` is that Hessian and ``rho`` its
    ``rho_dual`` pair in that metric, when the caller holds them.  The Hessian,
    given or built, passes ``check_symmetric`` before any use.
    """
    a_vec = np.asarray(a_vec, dtype=float)
    if a_vec.shape[0] != f.dim:
        raise DimensionMismatch("perturbation vector length differs from objective dimension")
    fisher = check_symmetric(f.hessian(upsilon_star) if fisher is None else fisher)
    sol = newton_minimize(LinearPerturbation(f, a_vec), upsilon_star,
                          tol_grad=tol.JOINT_SOLVE_TOL)
    solved = sol.converged and _stationary(f, upsilon_star)
    d = np.sqrt(np.diag(fisher))
    rho = rho_dual(fisher, d) if rho is None else rho
    return _sup_norm_reports("lin", fisher, d, rho, sol.argmin - upsilon_star, a_vec, constants,
                             solved)


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
    d = np.sqrt(np.diag(f.hessian(ups_circ)) + spec.t2(ups_circ))
    m_vec = spec.t1(upsilon_star)
    shift = ups_circ - upsilon_star
    solved = sol.converged and _stationary(f, upsilon_star)
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
    d_metric: MetricTensor,
    h_metric: MetricTensor,
    constants: ConditionConstants,
    upsilon_star,
) -> list[ResidualReport]:
    """Partial solutions of a target-block linear perturbation vs their expansion.

    For each nuisance value, solves argmin over the target block of
    f + <a, theta>, subtracts both linear terms, and checks the combined
    quadratic bound plus the localization display.
    """
    a_target = np.asarray(a_target, dtype=float)
    if a_target.shape[0] != split.p:
        raise DimensionMismatch("target perturbation length differs from target block size")
    bh, f_inv_d_norm, h_norms, diag, stationary = _marginal_setup(
        f, split, nui_values, d_metric, h_metric, constants, upsilon_star)
    theta_star = upsilon_star[split.target_idx]
    nui_star = upsilon_star[split.nuisance_idx]
    a_full = np.zeros(f.dim)
    a_full[split.target_idx] = a_target
    g = LinearPerturbation(f, a_full)

    f_inv_a = spd_solve(bh.f_tt, a_target)
    d_f_inv_a = float(np.linalg.norm(d_metric.apply(f_inv_a)))
    d_inv_a = float(np.linalg.norm(d_metric.apply_inv(a_target)))

    reports = []
    for nu, h_norm in zip(nui_values, h_norms):
        nu = np.asarray(nu, dtype=float)
        dltwb_local = constants.d21 * h_norm
        flags = dict(diag.prerequisites_hold)
        flags["dltwb_le_quarter"] = dltwb_local <= 0.25
        sol = partial_minimize(g, split, "nuisance", nu, warm_start=theta_star,
                               tol_grad=tol.JOINT_SOLVE_TOL)
        solved = stationary and sol.converged
        theta_circ = sol.argmin
        linear_term = spd_solve(bh.f_tt, bh.f_tn @ (nu - nui_star))
        remainder = float(np.linalg.norm(theta_circ - theta_star + linear_term + f_inv_a))
        leading = float(np.linalg.norm(linear_term + f_inv_a))
        bound = f_inv_d_norm * (
            (diag.delta_nano + constants.d21) * h_norm**2
            + (2.0 * constants.tau3 + constants.d21 / 2.0) * d_f_inv_a**2
        )
        reports.append(_report("pp_expansion", leading, remainder, bound, flags, solved))
        loc_left = float(np.linalg.norm(d_metric.apply(theta_circ - theta_star)))
        loc_bound = diag.rho2 * h_norm + 1.5 / (1.0 - min(dltwb_local, 0.999)) * d_inv_a
        reports.append(_report("pp_localization", diag.rho2 * h_norm, loc_left, loc_bound,
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
    d_metric: Optional[MetricTensor] = None,
) -> SemiOrthogonalityReport:
    """Measure the cross Hessian block at fixed target and the induced bias."""
    theta_star = upsilon_star[split.target_idx]
    if d_metric is None:
        d_metric = MetricTensor.diagonal(np.ones(split.p))
    cross_vals, bias_vals = [], []
    converged = True
    for nu in nui_values:
        nu = np.asarray(nu, dtype=float)
        x_at = split.embed(theta_star, nu)
        cross = f.hessian(x_at)[np.ix_(split.target_idx, split.nuisance_idx)]
        cross_vals.append(float(np.abs(cross).max()))
        sol = partial_minimize(f, split, "nuisance", nu, warm_start=theta_star,
                               tol_grad=tol.JOINT_SOLVE_TOL)
        bias_vals.append(float(np.linalg.norm(d_metric.apply(sol.argmin - theta_star))))
        converged = converged and sol.converged
    return SemiOrthogonalityReport(
        max_cross_inf=max(cross_vals) if cross_vals else 0.0,
        max_bias=max(bias_vals) if bias_vals else 0.0,
        cross_values=tuple(cross_vals),
        bias_values=tuple(bias_vals),
        converged=converged,
    )


def reports_to_csv(reports: Sequence[ResidualReport], path) -> None:
    """Write residual reports as CSV with the fixed diagnostic column set."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["variant", "leading", "remainder", "bound", "holds",
             "flag_dltwb", "flag_d12r", "flag_dinf"]
        )
        for rep in reports:
            flags = rep.prerequisite_flags
            writer.writerow(
                [
                    rep.variant,
                    format(rep.leading, ".17g"),
                    format(rep.remainder, ".17g"),
                    format(rep.bound, ".17g"),
                    rep.holds,
                    flags.get("dltwb_le_quarter", ""),
                    flags.get("d12_r_le_quarter", ""),
                    flags.get("dinf_a_small", ""),
                ]
            )
