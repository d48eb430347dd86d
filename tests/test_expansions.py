"""Scalar diagnostics and residual checkers for perturbed minimizers."""

import functools
import itertools
import math

import numpy as np
import pytest

from conftest import random_spd
from perturbopt.btl import (
    PenaltySpec,
    btl_condition_constants,
    btl_objective,
    sample_er_graph,
)
from perturbopt import expansions
from perturbopt.errors import DltwbTooLarge
from perturbopt.expansions import (
    ConditionConstants,
    check_linear_sup_expansion,
    check_partial_bias,
    check_perturbed_partial,
    check_separable_sup_expansion,
    derived_constants,
    reports_to_csv,
    rho_dual,
    rho_star,
    semi_orthogonality_probe,
)
from perturbopt.numkit import BlockHessian, BlockSplit, MetricTensor, psd_power
from perturbopt.objective import (
    QuadraticObjective,
    SeparableSpec,
    newton_minimize,
    partial_minimize,
    ridge_spec,
)

SQRT2 = math.sqrt(2.0)


def _btl_expected(n, L, seed, gsq=1.0, p=1.0):
    rng = np.random.default_rng(seed)
    graph = sample_er_graph(n, p, L, rng)
    truth = rng.uniform(0, 2, n)
    truth -= truth.mean()
    f = btl_objective(graph, PenaltySpec.mean_shift(gsq), mode="expected", truth=truth)
    return graph, truth, f


class TestRhoDual:
    def test_single_off_diagonal(self):
        f = np.array([[2.0, 1.0], [1.0, 2.0]])
        d = np.sqrt([2.0, 2.0])
        exact, l2 = rho_dual(f, d)
        assert exact == pytest.approx(0.5)
        assert l2 == pytest.approx(0.5)

    def test_diagonal_matrix(self):
        exact, l2 = rho_dual(np.diag([1.0, 2.0, 3.0]), np.sqrt([1.0, 2.0, 3.0]))
        assert exact == 0.0 and l2 == 0.0

    def test_exact_via_sign_vectors_and_l2_smaller(self):
        f = np.array([[2.0, 0.5, 0.5], [0.5, 2.0, 0.1], [0.5, 0.1, 2.0]])
        d = np.sqrt(np.diag(f))
        exact, l2 = rho_dual(f, d)
        brute = 0.0
        for j in range(3):
            others = [m for m in range(3) if m != j]
            for signs in itertools.product((-1.0, 1.0), repeat=2):
                val = sum(s * f[j, m] / (d[j] * d[m]) for s, m in zip(signs, others))
                brute = max(brute, abs(val))
        assert exact == pytest.approx(brute, abs=1e-12)
        assert l2 < exact  # two nonzero off-diagonals in the first row

    def test_brute_force_randomized(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            q = int(rng.integers(2, 8))
            f = random_spd(rng, q)
            d = np.sqrt(np.diag(f))
            exact, _ = rho_dual(f, d)
            brute = 0.0
            for j in range(q):
                others = [m for m in range(q) if m != j]
                for signs in itertools.product((-1.0, 1.0), repeat=len(others)):
                    val = sum(s * f[j, m] / (d[j] * d[m]) for s, m in zip(signs, others))
                    brute = max(brute, abs(val))
            assert exact == pytest.approx(brute, abs=1e-12)


class TestRhoStar:
    def test_zero_cross_block(self):
        val, method = rho_star(np.zeros((2, 3)), MetricTensor.diagonal([1.0, 1.0]),
                               MetricTensor.diagonal([1.0, 1.0, 1.0]))
        assert val == 0.0 and method == "spectral"

    def test_scalar_blocks(self):
        val, _ = rho_star(np.array([[1.0]]), MetricTensor.diagonal([SQRT2]),
                          MetricTensor.diagonal([SQRT2]), norm_tag="l2")
        assert val == pytest.approx(0.5)

    def test_l2_matches_svd_oracle(self):
        rng = np.random.default_rng(1)
        f_tn = rng.standard_normal((3, 4))
        d = MetricTensor.diagonal(rng.uniform(0.5, 2.0, 3))
        h = MetricTensor.diagonal(rng.uniform(0.5, 2.0, 4))
        val, _ = rho_star(f_tn, d, h, norm_tag="l2")
        oracle = np.linalg.svd(np.diag(1 / d.values) @ f_tn @ np.diag(1 / h.values),
                               compute_uv=False)[0]
        assert val == pytest.approx(oracle, abs=1e-8)

    def test_linf_sign_enumeration_vs_brute(self):
        rng = np.random.default_rng(2)
        f_tn = rng.standard_normal((2, 5))
        d = MetricTensor.diagonal(np.ones(2))
        h = MetricTensor.diagonal(np.ones(5))
        val, method = rho_star(f_tn, d, h, norm_tag="linf")
        assert method == "sign_enumeration"
        brute = max(
            np.linalg.norm(f_tn @ np.asarray(z))
            for z in itertools.product((-1.0, 1.0), repeat=5)
        )
        assert val == pytest.approx(brute, abs=1e-12)

    def test_linf_relaxation_tagged(self):
        rng = np.random.default_rng(3)
        f_tn = rng.standard_normal((2, 25))
        val, method = rho_star(f_tn, MetricTensor.diagonal(np.ones(2)),
                               MetricTensor.diagonal(np.ones(25)),
                               norm_tag="linf", exact_limit=20)
        assert method == "rowsum_relaxation"
        assert val >= np.abs(f_tn).sum(axis=1).max() / math.sqrt(2)


class TestDerivedConstants:
    def test_reference_scenario(self):
        consts = ConditionConstants(1.0, 1.0, 1.0, norm_tag="linf", radii=(0.25,))
        diag = derived_constants(consts, "sup_norm", rho=1.0 - 1.0 / SQRT2)
        assert abs(diag.delta_nano - 1.37) <= 0.01
        assert abs(diag.delta_infty - 12.0) <= 0.1

    def test_quadratic_marginal(self):
        consts = ConditionConstants.zeros(radii=(1.0,))
        diag = derived_constants(consts, "marginal", rho_star_value=0.5)
        assert diag.rho2 == pytest.approx(0.75)
        assert diag.delta_nano == 0.0

    def test_monotone_in_every_constant(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            base = dict(tau3=rng.uniform(0.1, 1.0), d12=rng.uniform(0.1, 1.0),
                        d21=rng.uniform(0.1, 1.0))
            rho = rng.uniform(0.05, 0.5)
            r = rng.uniform(0.01, 0.2)

            def nano(**kw):
                merged = {**base, **kw}
                consts = ConditionConstants(merged["tau3"], merged["d12"], merged["d21"],
                                            norm_tag="linf", radii=(r,))
                return derived_constants(consts, "sup_norm", rho=kw.get("rho", rho)).delta_nano

            ref = nano()
            bump = 1e-4
            assert nano(tau3=base["tau3"] + bump) > ref
            assert nano(d12=base["d12"] + bump) > ref
            assert nano(d21=base["d21"] + bump) > ref
            assert nano(rho=rho + bump) > ref

    def test_dltwb_guard(self):
        consts = ConditionConstants(1.0, 1.0, 3.0, norm_tag="linf", radii=(0.5,))
        with pytest.raises(DltwbTooLarge):
            derived_constants(consts, "sup_norm", rho=0.1)


class TestPartialBias:
    def _quad_setup(self, seed, dim=6):
        rng = np.random.default_rng(seed)
        quad = QuadraticObjective(rng.standard_normal(dim), random_spd(rng, dim))
        split = BlockSplit.half(dim)
        bh = BlockHessian.from_full(quad.curvature, split)
        d = MetricTensor.full(psd_power(bh.f_tt, 0.5))
        h = MetricTensor.full(psd_power(bh.f_nn, 0.5))
        return rng, quad, split, d, h

    def test_quadratic_remainder_zero(self):
        rng, quad, split, d, h = self._quad_setup(5)
        nui_star = quad.minimizer[split.nuisance_idx]
        nus = [nui_star + rng.standard_normal(split.q) for _ in range(3)]
        reports = check_partial_bias(quad, split, nus, d, h,
                                     ConditionConstants.zeros(),
                                     upsilon_star=quad.minimizer)
        for rep in reports:
            # bounds are exactly zero here, so only solver-floor noise remains
            assert rep.remainder <= 1e-9

    def test_separable_quadratic_no_bias(self):
        rng = np.random.default_rng(6)
        curv = np.zeros((4, 4))
        curv[:2, :2] = random_spd(rng, 2)
        curv[2:, 2:] = random_spd(rng, 2)
        quad = QuadraticObjective(rng.standard_normal(4), curv)
        split = BlockSplit.half(4)
        bh = BlockHessian.from_full(curv, split)
        d = MetricTensor.full(psd_power(bh.f_tt, 0.5))
        h = MetricTensor.full(psd_power(bh.f_nn, 0.5))
        nus = [quad.minimizer[2:] + np.array([1.0, -0.5])]
        reports = check_partial_bias(quad, split, nus, d, h,
                                     ConditionConstants.zeros(),
                                     upsilon_star=quad.minimizer)
        bias = [r for r in reports if r.variant == "partial_bias"][0]
        assert bias.leading <= 1e-12
        assert bias.remainder <= 1e-10

    def test_value_expansion_zero_on_quadratic(self):
        rng, quad, split, d, h = self._quad_setup(7)
        nus = [quad.minimizer[split.nuisance_idx] + 0.5 * rng.standard_normal(split.q)]
        reports = check_partial_bias(quad, split, nus, d, h,
                                     ConditionConstants.zeros(),
                                     upsilon_star=quad.minimizer)
        value_rep = [r for r in reports if r.variant == "value_expansion"][0]
        assert value_rep.remainder <= 1e-9 * max(1.0, value_rep.leading)

    def test_btl_value_expansion_cubic(self):
        # the optimal-value defect is third order in the nuisance offset and
        # stays inside its cubic bound on a well-conditioned instance
        graph, truth, f = _btl_expected(10, 50, seed=42)
        ups_star = newton_minimize(f, truth, tol_grad=1e-13).argmin
        split = BlockSplit.half(10)
        bh = BlockHessian.from_full(f.hessian(ups_star), split)
        d = MetricTensor.full(psd_power(bh.f_tt, 0.5))
        h = MetricTensor.full(psd_power(bh.f_nn, 0.5))
        consts = btl_condition_constants(graph, f.penalty, ups_star, norm="l2",
                                         split=split, radii=(0.5, 0.5))
        rng = np.random.default_rng(43)
        direction = rng.standard_normal(split.q)
        direction /= np.linalg.norm(direction)
        nui_star = ups_star[split.nuisance_idx]
        scales = [0.2, 0.1, 0.05, 0.025]
        defects = []
        for s in scales:
            reports = check_partial_bias(f, split, [nui_star + s * direction], d, h,
                                         consts, upsilon_star=ups_star)
            value_rep = [r for r in reports if r.variant == "value_expansion"][0]
            assert value_rep.holds
            defects.append(value_rep.remainder)
        slope = np.polyfit(np.log(scales), np.log(defects), 1)[0]
        assert slope >= 2.7

    def test_btl_scaling_law(self):
        graph, truth, f = _btl_expected(10, 50, seed=8)
        ups_star = newton_minimize(f, truth, tol_grad=1e-13).argmin
        split = BlockSplit.half(10)
        bh = BlockHessian.from_full(f.hessian(ups_star), split)
        d = MetricTensor.full(psd_power(bh.f_tt, 0.5))
        h = MetricTensor.full(psd_power(bh.f_nn, 0.5))
        consts = btl_condition_constants(graph, f.penalty, ups_star, norm="l2",
                                         split=split, radii=(0.5, 0.5))
        rng = np.random.default_rng(9)
        direction = rng.standard_normal(split.q)
        direction /= np.linalg.norm(direction)
        nui_star = ups_star[split.nuisance_idx]
        scales = [0.1, 0.05, 0.025]
        rems = []
        for s in scales:
            reports = check_partial_bias(f, split, [nui_star + s * direction], d, h,
                                         consts, upsilon_star=ups_star)
            rems.append([r for r in reports if r.variant == "partial_bias"][0].remainder)
        slope = np.polyfit(np.log(scales), np.log(rems), 1)[0]
        assert slope >= 1.9


class TestLinearSupExpansion:
    def test_zero_perturbation(self):
        rng = np.random.default_rng(10)
        quad = QuadraticObjective(rng.standard_normal(4), random_spd(rng, 4))
        diag, reports = check_linear_sup_expansion(quad, np.zeros(4),
                                                   ConditionConstants.zeros(norm_tag="linf"),
                                                   upsilon_star=quad.minimizer)
        for rep in reports:
            assert rep.remainder <= 1e-12

    def test_quadratic_exact_displays(self):
        rng = np.random.default_rng(11)
        quad = QuadraticObjective(rng.standard_normal(5), random_spd(rng, 5))
        a = 0.1 * rng.standard_normal(5)
        diag, reports = check_linear_sup_expansion(quad, a,
                                                   ConditionConstants.zeros(norm_tag="linf"),
                                                   upsilon_star=quad.minimizer)
        by_variant = {r.variant: r for r in reports}
        # the argmin shift is exactly the linear term, so these residuals vanish
        assert by_variant["lin_ii"].remainder <= 1e-10
        assert by_variant["lin_iii"].remainder <= 1e-10
        if diag.all_prerequisites_hold:
            assert by_variant["lin_ii"].holds and by_variant["lin_iii"].holds

    def test_given_fisher_checked(self):
        rng = np.random.default_rng(11)
        quad = QuadraticObjective(rng.standard_normal(5), random_spd(rng, 5))
        skewed = quad.curvature.copy()
        skewed[0, 1] += 1e-6
        with pytest.raises(ValueError, match="not symmetric"):
            check_linear_sup_expansion(quad, np.ones(5), ConditionConstants.zeros(norm_tag="linf"),
                                       upsilon_star=quad.minimizer, fisher=skewed)

    def test_internal_consistency_iii_from_ii(self):
        # the v-weighted residual is the inverse image of the scaled one
        graph, truth, f = _btl_expected(8, 30, seed=12, gsq=8.0)
        ups_star = newton_minimize(f, truth, tol_grad=1e-13).argmin
        rng = np.random.default_rng(13)
        a = 0.05 * rng.standard_normal(8)
        consts = btl_condition_constants(graph, f.penalty, ups_star, radius=0.3,
                                         norm="linf")
        diag, reports = check_linear_sup_expansion(f, a, consts, upsilon_star=ups_star)
        by_variant = {r.variant: r for r in reports}
        assert diag.rho_dual < 1
        lhs = by_variant["lin_iii"].remainder
        assert lhs <= by_variant["lin_ii"].remainder / (1 - diag.rho_dual) + 1e-12

    def test_btl_bounds_hold_when_flags_hold(self):
        # large penalty and small noise put the instance inside the valid regime
        graph, truth, f = _btl_expected(8, 30, seed=14, gsq=8.0)
        ups_star = newton_minimize(f, truth, tol_grad=1e-13).argmin
        rng = np.random.default_rng(15)
        a = 0.02 * rng.standard_normal(8)
        fisher = f.hessian(ups_star)
        d = np.sqrt(np.diag(fisher))
        exact, _ = rho_dual(fisher, d)
        r_inf = SQRT2 * float(np.abs(a / d).max()) / (1 - exact)
        consts = btl_condition_constants(graph, f.penalty, ups_star, radius=r_inf,
                                         norm="linf")
        diag, reports = check_linear_sup_expansion(f, a, consts, upsilon_star=ups_star)
        assert diag.all_prerequisites_hold
        assert diag.r_infty == pytest.approx(
            SQRT2 * diag.a_norm / (1 - diag.rho_dual), rel=1e-12)
        for rep in reports:
            assert rep.holds, rep


class TestSeparableSupExpansion:
    def test_zero_spec(self):
        rng = np.random.default_rng(16)
        quad = QuadraticObjective(rng.standard_normal(4), random_spd(rng, 4))
        diag, reports = check_separable_sup_expansion(
            quad, ridge_spec(0.0), ConditionConstants.zeros(norm_tag="linf"),
            upsilon_star=quad.minimizer)
        for rep in reports:
            assert rep.remainder <= 1e-12

    def test_ridge_closed_form_oracle(self):
        rng = np.random.default_rng(17)
        curv = random_spd(rng, 5)
        quad = QuadraticObjective(rng.standard_normal(5), curv)
        lam = 0.2
        diag, reports = check_separable_sup_expansion(
            quad, ridge_spec(lam), ConditionConstants.zeros(norm_tag="linf"),
            upsilon_star=quad.minimizer)
        by_variant = {r.variant: r for r in reports}

        # closed form: perturbed argmin solves (curv + lam I) x = curv x*
        ups_circ = np.linalg.solve(curv + lam * np.eye(5), curv @ quad.minimizer)
        m_vec = lam * quad.minimizer
        d = np.sqrt(np.diag(curv) + lam)
        shift = ups_circ - quad.minimizer
        f_inv_m = np.linalg.solve(curv, m_vec)
        assert by_variant["sep_i"].remainder == pytest.approx(
            np.abs(d * shift).max(), abs=1e-10)
        assert by_variant["sep_iii"].remainder == pytest.approx(
            np.abs(d * (shift + f_inv_m)).max(), abs=1e-10)
        assert by_variant["sep_iii_printed"].remainder == pytest.approx(
            np.abs(d * (shift - f_inv_m)).max(), abs=1e-10)
        # the consistent variant is second order, the printed one is not
        assert by_variant["sep_iii"].remainder < by_variant["sep_iii_printed"].remainder

    def test_btl_ridge_scaling_law(self):
        graph, truth, f = _btl_expected(10, 50, seed=18)
        ups_star = newton_minimize(f, truth, tol_grad=1e-13).argmin
        consts = btl_condition_constants(graph, f.penalty, ups_star, radius=0.5,
                                         norm="linf")
        rems, m_norms = [], []
        for lam in (0.1, 0.05, 0.025):
            diag, reports = check_separable_sup_expansion(f, ridge_spec(lam), consts,
                                                          upsilon_star=ups_star)
            rems.append([r for r in reports if r.variant == "sep_iii"][0].remainder)
            m_norms.append(diag.a_norm)
        slope = np.polyfit(np.log(m_norms), np.log(rems), 1)[0]
        assert slope >= 1.9


    @pytest.mark.parametrize("instance", ["quadratic", "btl"])
    def test_affine_spec_matches_linear_checker(self, instance):
        # t_j(x) = c_j x_j is the linear perturbation by c, so both checkers build
        # the same displays; on BTL, c is constant: the likelihood depends on score
        # differences only, so the metric refreshed at the shifted argmin is unchanged
        rng = np.random.default_rng(28)
        if instance == "quadratic":
            f = QuadraticObjective(rng.standard_normal(5), random_spd(rng, 5) + 5.0 * np.eye(5))
            ups_star, c = f.minimizer, 0.1 * rng.standard_normal(5)
            consts = ConditionConstants.zeros(norm_tag="linf")
        else:
            graph, truth, f = _btl_expected(8, 30, seed=14, gsq=8.0)
            ups_star, c = newton_minimize(f, truth, tol_grad=1e-13).argmin, np.full(8, 0.05)
            consts = btl_condition_constants(graph, f.penalty, ups_star, radius=0.1, norm="linf")
        spec = SeparableSpec(t=lambda v: c * v, t1=lambda v: c + 0.0 * v,
                             t2=np.zeros_like, t3=np.zeros_like)
        lin_diag, lin = check_linear_sup_expansion(f, c, consts, upsilon_star=ups_star)
        sep_diag, sep = check_separable_sup_expansion(f, spec, consts, upsilon_star=ups_star)
        sep = [r for r in sep if not r.variant.endswith("_printed")]
        assert lin_diag.rho_dual < 1 and all(np.isfinite(r.bound) for r in lin)
        fields = ("rho_dual", "rho_dual_l2", "r_infty", "delta_infty", "a_norm",
                  "prerequisites_hold")
        assert [getattr(sep_diag, k) for k in fields] == [getattr(lin_diag, k) for k in fields]
        assert [r.variant[4:] for r in sep] == [r.variant[4:] for r in lin]
        for s, r in zip(sep, lin):
            assert (s.leading, s.remainder, s.holds) == (r.leading, r.remainder, r.holds), s
            assert s.bound == pytest.approx(r.bound, rel=1e-15, abs=0.0), s


class TestPerturbedPartial:
    def test_quadratic_zero_remainder(self):
        rng = np.random.default_rng(19)
        quad = QuadraticObjective(rng.standard_normal(6), random_spd(rng, 6))
        split = BlockSplit.half(6)
        bh = BlockHessian.from_full(quad.curvature, split)
        d = MetricTensor.full(psd_power(bh.f_tt, 0.5))
        h = MetricTensor.full(psd_power(bh.f_nn, 0.5))
        nus = [quad.minimizer[split.nuisance_idx] + 0.3 * rng.standard_normal(split.q)]
        reports = check_perturbed_partial(quad, split, 0.2 * rng.standard_normal(split.p),
                                          nus, d, h, ConditionConstants.zeros(),
                                          upsilon_star=quad.minimizer)
        exp_rep = [r for r in reports if r.variant == "pp_expansion"][0]
        assert exp_rep.remainder <= 1e-9

    def test_zero_perturbation_matches_partial_bias(self):
        rng = np.random.default_rng(20)
        graph, truth, f = _btl_expected(8, 20, seed=21)
        ups_star = newton_minimize(f, truth, tol_grad=1e-13).argmin
        split = BlockSplit.half(8)
        bh = BlockHessian.from_full(f.hessian(ups_star), split)
        d = MetricTensor.full(psd_power(bh.f_tt, 0.5))
        h = MetricTensor.full(psd_power(bh.f_nn, 0.5))
        consts = btl_condition_constants(graph, f.penalty, ups_star, norm="l2",
                                         split=split, radii=(0.4, 0.4))
        nus = [ups_star[split.nuisance_idx] + 0.05 * rng.standard_normal(split.q)]
        with_zero = check_perturbed_partial(f, split, np.zeros(split.p), nus, d, h,
                                            consts, upsilon_star=ups_star)
        plain = check_partial_bias(f, split, nus, d, h, consts, upsilon_star=ups_star)
        pp = [r for r in with_zero if r.variant == "pp_expansion"][0]
        pb = [r for r in plain if r.variant == "partial_bias"][0]
        assert pp.remainder == pytest.approx(pb.remainder, rel=1e-6, abs=1e-12)

    def test_btl_joint_scaling_law(self):
        graph, truth, f = _btl_expected(10, 50, seed=22)
        ups_star = newton_minimize(f, truth, tol_grad=1e-13).argmin
        split = BlockSplit.half(10)
        bh = BlockHessian.from_full(f.hessian(ups_star), split)
        d = MetricTensor.full(psd_power(bh.f_tt, 0.5))
        h = MetricTensor.full(psd_power(bh.f_nn, 0.5))
        consts = btl_condition_constants(graph, f.penalty, ups_star, norm="l2",
                                         split=split, radii=(0.5, 0.5))
        rng = np.random.default_rng(23)
        a_dir = rng.standard_normal(split.p)
        nu_dir = rng.standard_normal(split.q)
        nui_star = ups_star[split.nuisance_idx]
        scales = [0.1, 0.05, 0.025]
        rems = []
        for s in scales:
            reports = check_perturbed_partial(f, split, s * a_dir,
                                              [nui_star + s * nu_dir], d, h, consts,
                                              upsilon_star=ups_star)
            rems.append([r for r in reports if r.variant == "pp_expansion"][0].remainder)
        slope = np.polyfit(np.log(scales), np.log(rems), 1)[0]
        assert slope >= 1.9

    def test_localization_display(self):
        rng = np.random.default_rng(24)
        quad = QuadraticObjective(rng.standard_normal(4), random_spd(rng, 4))
        split = BlockSplit.half(4)
        bh = BlockHessian.from_full(quad.curvature, split)
        d = MetricTensor.full(psd_power(bh.f_tt, 0.5))
        h = MetricTensor.full(psd_power(bh.f_nn, 0.5))
        nus = [quad.minimizer[split.nuisance_idx] + 0.2 * rng.standard_normal(split.q)]
        reports = check_perturbed_partial(quad, split, 0.1 * rng.standard_normal(split.p),
                                          nus, d, h, ConditionConstants.zeros(),
                                          upsilon_star=quad.minimizer)
        loc = [r for r in reports if r.variant == "pp_localization"][0]
        assert loc.holds


class TestSemiOrthogonality:
    def test_additively_separable(self):
        rng = np.random.default_rng(25)
        curv = np.zeros((4, 4))
        curv[:2, :2] = random_spd(rng, 2)
        curv[2:, 2:] = random_spd(rng, 2)
        quad = QuadraticObjective(rng.standard_normal(4), curv)
        split = BlockSplit.half(4)
        nus = [quad.minimizer[2:] + rng.standard_normal(2) for _ in range(3)]
        rep = semi_orthogonality_probe(quad, split, nus, upsilon_star=quad.minimizer)
        assert rep.max_cross_inf <= 1e-9
        assert rep.max_bias <= 1e-9
        assert rep.semi_orthogonal

    def test_coupled_quadratic_bias_closed_form(self):
        rng = np.random.default_rng(26)
        curv = random_spd(rng, 4)
        quad = QuadraticObjective(rng.standard_normal(4), curv)
        split = BlockSplit.half(4)
        bh = BlockHessian.from_full(curv, split)
        offset = rng.standard_normal(2)
        nus = [quad.minimizer[2:] + offset]
        rep = semi_orthogonality_probe(quad, split, nus, upsilon_star=quad.minimizer)
        expected = np.linalg.norm(np.linalg.solve(bh.f_tt, bh.f_tn @ offset))
        assert rep.max_bias == pytest.approx(expected, rel=1e-8)
        assert not rep.semi_orthogonal
        assert rep.converged

    def test_unconverged_solve_reported(self, monkeypatch):
        graph, truth, f = _btl_expected(8, 30, seed=14, gsq=8.0)
        ups_star = newton_minimize(f, truth, tol_grad=1e-13).argmin
        split = BlockSplit.half(8)
        rng = np.random.default_rng(15)
        nus = [ups_star[split.nuisance_idx] + 0.5 * rng.standard_normal(split.q)
               for _ in range(2)]
        trusted = semi_orthogonality_probe(f, split, nus, upsilon_star=ups_star)
        assert trusted.converged
        monkeypatch.setattr(expansions, "partial_minimize",
                            functools.partial(partial_minimize, max_iter=1))
        capped = semi_orthogonality_probe(f, split, nus, upsilon_star=ups_star)
        assert capped.converged is False
        assert capped.bias_values != trusted.bias_values


class TestReportExport:
    def test_csv_schema(self, tmp_path):
        rng = np.random.default_rng(27)
        quad = QuadraticObjective(rng.standard_normal(3), random_spd(rng, 3))
        _, reports = check_linear_sup_expansion(quad, 0.1 * rng.standard_normal(3),
                                                ConditionConstants.zeros(norm_tag="linf"),
                                                upsilon_star=quad.minimizer)
        path = tmp_path / "reports.csv"
        reports_to_csv(reports, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "variant,leading,remainder,bound,holds,flag_dltwb,flag_d12r,flag_dinf"
        assert len(lines) == 1 + len(reports)


class TestConvergenceGate:
    """A row built from a solve that is not trusted never reads holds=True."""

    @staticmethod
    def _checkers():
        # a well-conditioned instance on which each checker has rows that hold
        graph, truth, f = _btl_expected(8, 30, seed=14, gsq=8.0)
        ups_star = newton_minimize(f, truth, tol_grad=1e-13).argmin
        rng = np.random.default_rng(15)
        a = 0.02 * rng.standard_normal(8)
        fisher = f.hessian(ups_star)
        scales = np.sqrt(np.diag(fisher))
        r_inf = SQRT2 * float(np.abs(a / scales).max()) / (1 - rho_dual(fisher, scales)[0])
        sup = btl_condition_constants(graph, f.penalty, ups_star, radius=r_inf, norm="linf")
        split = BlockSplit.half(8)
        bh = BlockHessian.from_full(fisher, split)
        d = MetricTensor.full(psd_power(bh.f_tt, 0.5))
        h = MetricTensor.full(psd_power(bh.f_nn, 0.5))
        block = btl_condition_constants(graph, f.penalty, ups_star, norm="l2", split=split,
                                        radii=(0.5, 0.5))
        nus = [ups_star[split.nuisance_idx] + 0.1 * rng.standard_normal(split.q)]
        a_target = 0.05 * rng.standard_normal(split.p)
        checkers = {
            "linear": lambda u: check_linear_sup_expansion(f, a, sup, upsilon_star=u)[1],
            "separable": lambda u: check_separable_sup_expansion(f, ridge_spec(0.002), sup,
                                                                 upsilon_star=u)[1],
            "partial_bias": lambda u: check_partial_bias(f, split, nus, d, h, block,
                                                         upsilon_star=u),
            "perturbed_partial": lambda u: check_perturbed_partial(f, split, a_target, nus, d, h,
                                                                   block, upsilon_star=u),
        }
        return ups_star, checkers

    def test_unconverged_solve_never_holds(self, monkeypatch):
        ups_star, checkers = self._checkers()
        trusted = {name: run(ups_star) for name, run in checkers.items()}
        monkeypatch.setattr(expansions, "newton_minimize",
                            functools.partial(newton_minimize, max_iter=1))
        monkeypatch.setattr(expansions, "partial_minimize",
                            functools.partial(partial_minimize, max_iter=1))
        for name, run in checkers.items():
            reports = run(ups_star)
            assert any(r.holds for r in trusted[name]), name
            assert not any(r.holds for r in reports), name
            # only holds is forced; the prerequisite flags are those of the trusted run
            assert ([r.prerequisite_flags for r in reports]
                    == [r.prerequisite_flags for r in trusted[name]]), name

    def test_non_stationary_upsilon_star_never_holds(self):
        ups_star, checkers = self._checkers()
        shifted = ups_star + 1e-6 * np.random.default_rng(16).standard_normal(ups_star.size)
        for name, run in checkers.items():
            assert any(r.holds for r in run(ups_star)), name
            assert not any(r.holds for r in run(shifted)), name
