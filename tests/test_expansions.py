"""Scalar diagnostics and residual checkers for perturbed minimizers."""

import functools
import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import expected_geometry, random_spd
from perturbopt.btl import (
    BtlObjective,
    PenaltySpec,
    btl_condition_constants,
    btl_objective,
    noise_gradient,
    sample_er_graph,
    sample_outcomes,
)
from perturbopt import btl, expansions, experiments
from perturbopt import tolerances as tol
from perturbopt.errors import DimensionMismatch, DltwbTooLarge, NotPositiveDefinite
from perturbopt.expansions import (
    ConditionConstants,
    check_linear_sup_expansion,
    check_partial_bias,
    check_perturbed_partial,
    check_separable_sup_expansion,
    derived_constants,
    rho_dual,
    semi_orthogonality_probe,
)
from perturbopt.experiments import diagnose_expansion, reports_to_csv
from perturbopt.numkit import (
    BlockSplit,
    check_symmetric,
    contraction_matrix,
    psd_power,
    spd_solve,
    spectral_norm,
)
from perturbopt.objective import (
    LinearPerturbation,
    QuadraticObjective,
    SeparableSpec,
    SmoothObjective,
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


def _marginal_scalars(consts, rho_star, r_circ):
    """rho2 and delta_nano of the marginal regime at nuisance radius ``r_circ``, written out."""
    dltwb = consts.d21 * r_circ
    rho2 = 1.5 * (rho_star + consts.d12 * r_circ / 2.0) / (1.0 - dltwb)
    delta_nano = (rho_star * consts.d21 + consts.d12 / 2.0
                  + rho2**2 * consts.tau3 / 3.0) / (1.0 - dltwb)
    return rho2, delta_nano


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

    def test_scales_in_one_matrix(self):
        # n=300 (720 KB): both variants are read from the one scaled matrix
        rng = np.random.default_rng(3)
        f = random_spd(rng, 300)
        d = np.sqrt(np.diag(f))
        tracemalloc.start()
        try:
            exact, l2 = rho_dual(f, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * f.nbytes
        scaled = f / np.outer(d, d)
        np.fill_diagonal(scaled, 0.0)
        assert exact == float(np.abs(scaled).sum(axis=1).max())
        assert l2 == float(np.sqrt((scaled**2).sum(axis=1).max()))


class TestDerivedConstants:
    def test_reference_scenario(self):
        consts = ConditionConstants(1.0, 1.0, 1.0, norm_tag="linf", radii=(0.25,))
        diag = derived_constants(consts, rho=1.0 - 1.0 / SQRT2)
        assert abs(diag.delta_nano - 1.37) <= 0.01
        assert abs(diag.delta_infty - 12.0) <= 0.1

    def test_quadratic_marginal(self):
        # unit diagonal blocks and cross entry 1/2: rho_star = ||P|| = 0.5
        quad = QuadraticObjective(np.zeros(2), np.array([[1.0, 0.5], [0.5, 1.0]]))
        split = BlockSplit.half(2)
        consts = ConditionConstants.zeros(radii=(1.0,))
        rho2, delta_nano = _marginal_scalars(consts, 0.5, 1.0)
        assert rho2 == pytest.approx(0.75)
        assert delta_nano == 0.0
        # the partial checkers use the same scalars; the offset has H-norm 0.4
        nus = [np.array([0.4])]
        rows = {r.variant: r for r in
                check_partial_bias(quad, split, nus, consts, upsilon_star=quad.minimizer)
                + check_perturbed_partial(quad, split, np.zeros(1), nus, consts,
                                          upsilon_star=quad.minimizer)}
        assert rows["pp_localization"].leading == pytest.approx(0.75 * 0.4)
        assert rows["partial_bias"].bound == 0.0

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
                return derived_constants(consts, rho=kw.get("rho", rho)).delta_nano

            ref = nano()
            bump = 1e-4
            assert nano(tau3=base["tau3"] + bump) > ref
            assert nano(d12=base["d12"] + bump) > ref
            assert nano(d21=base["d21"] + bump) > ref
            assert nano(rho=rho + bump) > ref

    def test_dltwb_guard(self):
        consts = ConditionConstants(1.0, 1.0, 3.0, norm_tag="linf", radii=(0.5,))
        with pytest.raises(DltwbTooLarge):
            derived_constants(consts, rho=0.1)

    @pytest.mark.parametrize("rho", [1.0, 1.5, -0.1, float("nan"), float("inf")])
    def test_dual_value_outside_unit_interval_refused(self, rho):
        # rho = 1 divided by zero; rho = 1.5 returned finite deltas with two flags set
        consts = ConditionConstants(1.0, 1.0, 1.0, norm_tag="linf", radii=(0.25,))
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            derived_constants(consts, rho=rho)


class TestPartialBias:
    def _quad_setup(self, seed, dim=6):
        rng = np.random.default_rng(seed)
        quad = QuadraticObjective(rng.standard_normal(dim), random_spd(rng, dim))
        split = BlockSplit.half(dim)
        return rng, quad, split

    def test_quadratic_remainder_zero(self):
        rng, quad, split = self._quad_setup(5)
        nui_star = quad.minimizer[split.nuisance_idx]
        nus = [nui_star + rng.standard_normal(split.q) for _ in range(3)]
        reports = check_partial_bias(quad, split, nus,
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
        nus = [quad.minimizer[2:] + np.array([1.0, -0.5])]
        reports = check_partial_bias(quad, split, nus,
                                     ConditionConstants.zeros(),
                                     upsilon_star=quad.minimizer)
        bias = [r for r in reports if r.variant == "partial_bias"][0]
        assert bias.leading <= 1e-12
        assert bias.remainder <= 1e-10

    def test_value_expansion_zero_on_quadratic(self):
        rng, quad, split = self._quad_setup(7)
        nus = [quad.minimizer[split.nuisance_idx] + 0.5 * rng.standard_normal(split.q)]
        reports = check_partial_bias(quad, split, nus,
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
        consts = btl_condition_constants(
            graph, f.penalty, ups_star, norm="l2", radii=(0.5, 0.5),
            geometry=expected_geometry(graph, f.penalty, ups_star, split))
        rng = np.random.default_rng(43)
        direction = rng.standard_normal(split.q)
        direction /= np.linalg.norm(direction)
        nui_star = ups_star[split.nuisance_idx]
        scales = [0.2, 0.1, 0.05, 0.025]
        defects = []
        for s in scales:
            reports = check_partial_bias(f, split, [nui_star + s * direction],
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
        consts = btl_condition_constants(
            graph, f.penalty, ups_star, norm="l2", radii=(0.5, 0.5),
            geometry=expected_geometry(graph, f.penalty, ups_star, split))
        rng = np.random.default_rng(9)
        direction = rng.standard_normal(split.q)
        direction /= np.linalg.norm(direction)
        nui_star = ups_star[split.nuisance_idx]
        scales = [0.1, 0.05, 0.025]
        rems = []
        for s in scales:
            reports = check_partial_bias(f, split, [nui_star + s * direction],
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

    @staticmethod
    def _dominant_quadratic():
        """A 5x5 quadratic with dual value 0.124, and finite nonzero sup-norm constants."""
        rng = np.random.default_rng(5)
        off = 0.02 * rng.standard_normal((5, 5))
        quad = QuadraticObjective(rng.standard_normal(5), np.eye(5) + off + off.T)
        consts = ConditionConstants(0.3, 0.2, 0.1, norm_tag="linf")
        rho = rho_dual(quad.curvature, np.sqrt(np.diag(quad.curvature)))
        assert rho[0] < 1.0
        return quad, consts, rho

    def test_zero_noise_takes_the_constants_at_radius_zero(self):
        quad, consts, rho = self._dominant_quadratic()
        diag, reports = check_linear_sup_expansion(quad, np.zeros(5), consts, quad.minimizer)
        assert len(reports) == 5
        assert all(r.bound == 0.0 and r.holds for r in reports)
        assert diag.a_norm == 0.0 and diag.r_infty == 0.0 and diag.all_prerequisites_hold
        at_zero = derived_constants(replace(consts, radii=(0.0,)), rho[0], a_norm=0.0)
        assert diag.delta_nano == at_zero.delta_nano > 0.0
        assert diag.delta_infty == at_zero.delta_infty

    def test_nan_noise_holds_nothing(self):
        """A NaN noise entry once read as zero noise: a_norm 0 and every flag True."""
        quad, consts, _ = self._dominant_quadratic()
        a = np.zeros(5)
        a[0] = np.nan
        diag, reports = check_linear_sup_expansion(quad, a, consts, quad.minimizer)
        assert math.isnan(diag.a_norm)
        assert diag.prerequisites_hold == dict.fromkeys(
            ("dltwb_le_quarter", "d12_r_le_quarter", "dinf_a_small"), False)
        assert len(reports) == 5 and not any(r.holds for r in reports)

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

    def test_indefinite_fisher_refused_before_the_solve(self):
        # the Fisher matrix, given or built, is factored before Newton runs, so an indefinite
        # one raises the factorization's NotPositiveDefinite, not Newton's HessianNotPD
        rng = np.random.default_rng(12)
        quad = QuadraticObjective(rng.standard_normal(4), random_spd(rng, 4))
        indefinite = quad.curvature.copy()
        indefinite[2, 2] = -1.0
        consts = ConditionConstants.zeros(norm_tag="linf")
        with pytest.raises(NotPositiveDefinite):
            check_linear_sup_expansion(quad, np.ones(4), consts, quad.minimizer,
                                       fisher=indefinite)
        quad.hessian = lambda x: indefinite.copy()
        with pytest.raises(NotPositiveDefinite):
            check_linear_sup_expansion(quad, np.ones(4), consts, quad.minimizer)

    def test_fisher_survives_the_solve(self, monkeypatch):
        # the given fisher is factored once, in a copy, for F^-1 a and the first Newton step;
        # the reports read that same matrix afterwards, unchanged
        graph, truth, f = _btl_expected(10, 4, seed=16, gsq=2.0)
        ups_star = newton_minimize(f, truth, tol_grad=1e-13).argmin
        a = 0.3 * np.random.default_rng(17).standard_normal(10)
        consts = btl_condition_constants(graph, f.penalty, ups_star, radius=0.2, norm="linf")
        fisher = f.hessian(ups_star)
        before = fisher.tobytes()
        read = []
        reports = expansions._sup_norm_reports
        monkeypatch.setattr(expansions, "_sup_norm_reports",
                            lambda prefix, fish, *rest: read.append(fish)
                            or reports(prefix, fish, *rest))
        _, given = check_linear_sup_expansion(f, a, consts, ups_star, fisher=fisher)
        assert fisher.tobytes() == before and read == [fisher] and read[0] is fisher
        _, built = check_linear_sup_expansion(f, a, consts, ups_star)
        assert given == built and read[1].tobytes() == before

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

    def test_radius_covered_flag(self):
        # constants measured on a radius below r_infty give smaller bounds that still "hold"
        rng = np.random.default_rng(3)
        graph = sample_er_graph(30, 0.6, 3, rng)
        truth = rng.uniform(0, 2, 30)
        truth -= truth.mean()
        obs = sample_outcomes(graph, truth, rng)
        penalty = PenaltySpec.ridge(20.0)
        f = btl_objective(graph, penalty, mode="expected", truth=truth)
        ups_star = newton_minimize(f, truth, tol_grad=1e-13).argmin
        noise = noise_gradient(obs, truth)
        bounds = {}
        for radius, covered in ((0.0, False), (10.0, True)):
            consts = btl_condition_constants(graph, penalty, ups_star, radius=radius,
                                             norm="linf")
            diag, reports = check_linear_sup_expansion(f, noise, consts, upsilon_star=ups_star)
            assert 0.0 < diag.r_infty < 10.0
            assert len(reports) == 5 and all(r.holds for r in reports)
            assert all(r.prerequisite_flags["radius_covered"] is covered for r in reports)
            bounds[radius] = {r.variant: r.bound for r in reports}
        assert bounds[0.0]["lin_iii"] < bounds[10.0]["lin_iii"]
        # the diagnose path measures the constants on r_infty itself
        _, diag, reports = diagnose_expansion(obs, truth, penalty)
        assert all(r.prerequisite_flags["radius_covered"] for r in reports)
        assert diag.r_infty == bounds[0.0]["lin_i"]


def _two_factor_check(f, a, constants, ups_star, fisher=None, rho=None, gradient=None):
    """The linear check with two factorizations of F: F^-1 a from spd_solve, and Newton
    started on a copy of F, which it factors again.  Its diagnostics, reports and argmin."""
    fisher = check_symmetric(f.hessian(ups_star) if fisher is None else fisher)
    grad = f.evaluate(ups_star)[1] if gradient is None else gradient
    start = (lambda: f.value(ups_star) + float(a @ ups_star), grad + a, lambda: fisher.copy())
    sol = newton_minimize(LinearPerturbation(f, a), ups_star, tol.JOINT_SOLVE_TOL, start=start)
    solved = sol.converged and float(np.abs(grad).max()) <= tol.JOINT_SOLVE_TOL
    d = np.sqrt(np.diag(fisher))
    rho = rho_dual(fisher, d) if rho is None else rho
    diag, reports = expansions._sup_norm_reports("lin", fisher, d, rho, sol.argmin - ups_star, a,
                                                 constants, solved, spd_solve(fisher, a))
    return diag, reports, sol.argmin


def _random_design(n, L, ridge, seed):
    """An ER design at p=0.6, truth, sampled outcomes and a mean-shift or ridge penalty."""
    rng = np.random.default_rng(seed)
    graph = sample_er_graph(n, 0.6, L, rng)
    truth = rng.uniform(0, 2, n)
    truth -= truth.mean()
    obs = sample_outcomes(graph, truth, rng)
    penalty = PenaltySpec.ridge(2.0) if ridge else PenaltySpec.mean_shift(1.0)
    return graph, truth, obs, penalty


_DESIGNS = dict(n=st.integers(3, 40), L=st.integers(1, 3), ridge=st.booleans(),
                seed=st.integers(0, 2**32 - 1))


class TestOneFactorPerCheck:
    """The linear check factors F once; its outputs are the bits of two factorizations."""

    @settings(max_examples=60, deadline=None)
    @given(given_fisher=st.booleans(), **_DESIGNS)
    def test_check_has_the_bits_of_two_factorizations(self, n, L, ridge, seed, given_fisher):
        graph, truth, obs, penalty = _random_design(n, L, ridge, seed)
        assume(graph.connected)
        f = btl_objective(graph, penalty, mode="expected", truth=truth)
        ups_star = newton_minimize(f, truth, tol_grad=tol.JOINT_SOLVE_TOL).argmin
        noise = noise_gradient(obs, truth)
        consts = ConditionConstants(0.3, 0.2, 0.1, norm_tag="linf", radii=(0.5,))
        fisher = f.hessian(ups_star) if given_fisher else None
        before = None if fisher is None else fisher.tobytes()
        solves = []
        with pytest.MonkeyPatch.context() as patch:
            newton = expansions.newton_minimize
            patch.setattr(expansions, "newton_minimize", lambda *args, **kwargs:
                          solves.append(newton(*args, **kwargs)) or solves[-1])
            diag, reports = check_linear_sup_expansion(f, noise, consts, ups_star, fisher=fisher)
        oracle_diag, oracle_reports, oracle_argmin = _two_factor_check(f, noise, consts,
                                                                       ups_star, fisher=fisher)
        assert repr(diag) == repr(oracle_diag) and repr(reports) == repr(oracle_reports)
        assert solves[0].argmin.tobytes() == oracle_argmin.tobytes()
        fisher = f.hessian(ups_star) if fisher is None else fisher
        assert before is None or fisher.tobytes() == before

    @settings(max_examples=30, deadline=None)
    @given(**_DESIGNS)
    def test_diagnose_has_the_bits_of_two_factorizations(self, n, L, ridge, seed):
        graph, truth, obs, penalty = _random_design(n, L, ridge, seed)
        assume(graph.connected and btl.minimizer_status(obs, penalty) is None)
        got = diagnose_expansion(obs, truth, penalty)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(experiments, "check_linear_sup_expansion",
                          lambda *args, **kwargs: _two_factor_check(*args, **kwargs)[:2])
            oracle = diagnose_expansion(obs, truth, penalty)
        assert repr(got) == repr(oracle)


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


    @pytest.mark.parametrize("penalty", [PenaltySpec.mean_shift(2.0), PenaltySpec.ridge(0.5)])
    def test_btl_metric_skips_the_dense_hessian(self, monkeypatch, penalty):
        """The metric refreshed at the perturbed argmin reads ``hessian_diagonal``: one dense
        Hessian fewer than the dense diagonal's metric, and its reports."""
        graph, truth, _ = _btl_expected(10, 50, seed=18)
        f = btl_objective(graph, penalty, mode="expected", truth=truth)
        ups_star = newton_minimize(f, truth, tol_grad=1e-13).argmin
        consts = btl_condition_constants(graph, f.penalty, ups_star, radius=0.5, norm="linf")
        hessian = BtlObjective.hessian
        built = []
        monkeypatch.setattr(BtlObjective, "hessian",
                            lambda obj, x: built.append(1) or hessian(obj, x))
        lean = check_separable_sup_expansion(f, ridge_spec(0.05), consts, upsilon_star=ups_star)
        lean_builds = len(built)  # the Newton solve's and the Fisher matrix
        monkeypatch.setattr(BtlObjective, "hessian_diagonal", SmoothObjective.hessian_diagonal)
        dense = check_separable_sup_expansion(f, ridge_spec(0.05), consts, upsilon_star=ups_star)
        assert len(built) - lean_builds == lean_builds + 1
        assert repr(lean) == repr(dense)

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
        nus = [quad.minimizer[split.nuisance_idx] + 0.3 * rng.standard_normal(split.q)]
        reports = check_perturbed_partial(quad, split, 0.2 * rng.standard_normal(split.p),
                                          nus, ConditionConstants.zeros(),
                                          upsilon_star=quad.minimizer)
        exp_rep = [r for r in reports if r.variant == "pp_expansion"][0]
        assert exp_rep.remainder <= 1e-9

    def test_zero_perturbation_matches_partial_bias(self):
        rng = np.random.default_rng(20)
        graph, truth, f = _btl_expected(8, 20, seed=21)
        ups_star = newton_minimize(f, truth, tol_grad=1e-13).argmin
        split = BlockSplit.half(8)
        consts = btl_condition_constants(
            graph, f.penalty, ups_star, norm="l2", radii=(0.4, 0.4),
            geometry=expected_geometry(graph, f.penalty, ups_star, split))
        nus = [ups_star[split.nuisance_idx] + 0.05 * rng.standard_normal(split.q)]
        with_zero = check_perturbed_partial(f, split, np.zeros(split.p), nus,
                                            consts, upsilon_star=ups_star)
        plain = check_partial_bias(f, split, nus, consts, upsilon_star=ups_star)
        pp = [r for r in with_zero if r.variant == "pp_expansion"][0]
        pb = [r for r in plain if r.variant == "partial_bias"][0]
        assert pp.remainder == pytest.approx(pb.remainder, rel=1e-6, abs=1e-12)

    def test_btl_joint_scaling_law(self):
        graph, truth, f = _btl_expected(10, 50, seed=22)
        ups_star = newton_minimize(f, truth, tol_grad=1e-13).argmin
        split = BlockSplit.half(10)
        consts = btl_condition_constants(
            graph, f.penalty, ups_star, norm="l2", radii=(0.5, 0.5),
            geometry=expected_geometry(graph, f.penalty, ups_star, split))
        rng = np.random.default_rng(23)
        a_dir = rng.standard_normal(split.p)
        nu_dir = rng.standard_normal(split.q)
        nui_star = ups_star[split.nuisance_idx]
        scales = [0.1, 0.05, 0.025]
        rems = []
        for s in scales:
            reports = check_perturbed_partial(f, split, s * a_dir,
                                              [nui_star + s * nu_dir], consts,
                                              upsilon_star=ups_star)
            rems.append([r for r in reports if r.variant == "pp_expansion"][0].remainder)
        slope = np.polyfit(np.log(scales), np.log(rems), 1)[0]
        assert slope >= 1.9

    def test_offset_outside_the_localization_regime_has_no_bound(self):
        # d21 ||H (nu - nu*)|| = 2 * 0.6 >= 1: the localization display proves nothing there
        rng = np.random.default_rng(32)
        quad = QuadraticObjective(rng.standard_normal(6), random_spd(rng, 6))
        split = BlockSplit.half(6)
        f_nn = contraction_matrix(quad.curvature, split).f_nn
        unit = rng.standard_normal(split.q)
        unit /= np.linalg.norm(unit)
        consts = ConditionConstants(0.0, 0.0, 2.0, radii=(0.1, 0.1))
        nu_star = quad.minimizer[split.nuisance_idx]
        nus = [nu_star + psd_power(f_nn, -0.5) @ (h * unit) for h in (0.6, 0.3)]
        reports = check_perturbed_partial(quad, split, 0.1 * rng.standard_normal(split.p),
                                          nus, consts, upsilon_star=quad.minimizer)
        outside, inside = [r for r in reports if r.variant == "pp_localization"]
        assert outside.bound == math.inf and not outside.holds
        assert math.isfinite(inside.bound) and inside.holds  # 2 * 0.3 < 1

    def test_localization_display(self):
        rng = np.random.default_rng(24)
        quad = QuadraticObjective(rng.standard_normal(4), random_spd(rng, 4))
        split = BlockSplit.half(4)
        nus = [quad.minimizer[split.nuisance_idx] + 0.2 * rng.standard_normal(split.q)]
        reports = check_perturbed_partial(quad, split, 0.1 * rng.standard_normal(split.p),
                                          nus, ConditionConstants.zeros(),
                                          upsilon_star=quad.minimizer)
        loc = [r for r in reports if r.variant == "pp_localization"][0]
        assert loc.holds


class TestPartialMetrics:
    """The partial checkers measure in the square-root Hessian blocks at upsilon_star."""

    @pytest.mark.parametrize("seed", [3, 5])
    @pytest.mark.parametrize("n", [10, 20, 40])
    def test_bounds_match_explicit_metrics(self, n, seed):
        graph, truth, f = _btl_expected(n, 3, seed, gsq=5.0)
        ups_star = newton_minimize(f, truth, tol_grad=1e-13).argmin
        split = BlockSplit.half(n)
        consts = btl_condition_constants(
            graph, f.penalty, ups_star, norm="l2", radii=(0.1, 0.1),
            geometry=expected_geometry(graph, f.penalty, ups_star, split))
        rng = np.random.default_rng(seed)
        nui_star = ups_star[split.nuisance_idx]
        nus = [nui_star + s * rng.standard_normal(split.q) / math.sqrt(split.q)
               for s in (0.05, 0.1)]
        a_target = 0.05 * rng.standard_normal(split.p)
        got = (check_partial_bias(f, split, nus, consts, upsilon_star=ups_star)
               + check_perturbed_partial(f, split, a_target, nus, consts, upsilon_star=ups_star))

        # the reference: explicit metrics D = F_tt^{1/2}, H = F_nn^{1/2} and dense solves
        t, s = split.target_idx, split.nuisance_idx
        fisher = f.hessian(ups_star)
        f_tt, f_tn, f_nn = fisher[np.ix_(t, t)], fisher[np.ix_(t, s)], fisher[np.ix_(s, s)]
        d, h = psd_power(f_tt, 0.5), psd_power(f_nn, 0.5)
        f_inv_d = spectral_norm(np.linalg.solve(f_tt, d))
        rho_star = spectral_norm(np.linalg.solve(h, np.linalg.solve(d, f_tn).T).T)
        rho2, delta_nano = _marginal_scalars(consts, rho_star, 0.1)
        tau3, d21 = consts.tau3, consts.d21
        theta_star = ups_star[t]
        d_f_inv_a = np.linalg.norm(d @ np.linalg.solve(f_tt, a_target))
        d_inv_a = np.linalg.norm(np.linalg.solve(d, a_target))
        want = {}
        for nu in nus:
            h_norm = np.linalg.norm(h @ (nu - nui_star))
            x_at = split.embed(theta_star, nu)
            f_nu = f.hessian(x_at)[np.ix_(t, t)]
            cube = np.linalg.norm(d @ np.linalg.solve(f_nu, f.gradient(x_at)[t])) ** 3
            want.setdefault("partial_bias", []).append(f_inv_d * delta_nano * h_norm**2)
            want.setdefault("value_expansion", []).append(2.5 * tau3 * cube)
            want.setdefault("pp_expansion", []).append(f_inv_d * (
                (delta_nano + d21) * h_norm**2 + (2.0 * tau3 + d21 / 2.0) * d_f_inv_a**2))
            want.setdefault("pp_localization", []).append(
                rho2 * h_norm + 1.5 / (1.0 - d21 * h_norm) * d_inv_a)
        assert {r.variant for r in got} == set(want)
        for variant, bounds in want.items():
            rows = [r for r in got if r.variant == variant]
            assert [r.bound for r in rows] == pytest.approx(bounds, rel=1e-12, abs=0.0), variant
            assert all(b > 0.0 for b in bounds)

    @pytest.mark.parametrize("seed", [3, 5, 7])
    @pytest.mark.parametrize("n", [20, 50])
    def test_marginal_bounds_pinned(self, n, seed):
        """Partial-row bounds, bit for bit, against the formulas written out."""
        graph, truth, f = _btl_expected(n, 3, seed, gsq=5.0)
        ups_star = newton_minimize(f, truth, tol_grad=1e-13).argmin
        split = BlockSplit.half(n)
        geometry = contraction_matrix(f.hessian(ups_star), split)
        rng = np.random.default_rng(seed)
        nui_star = ups_star[split.nuisance_idx]
        a_target = 0.05 * rng.standard_normal(split.p)
        f_inv_a = spd_solve(geometry.f_tt, a_target)
        d_f_inv_a = float(np.linalg.norm(geometry.tt_half @ f_inv_a))
        d_inv_a = float(np.linalg.norm(geometry.tt_inv_half @ a_target))
        f_inv_d = 1.0 / geometry.tt_smin
        for s in (0.05, 0.1, 0.2):
            consts = btl_condition_constants(
                graph, f.penalty, ups_star, norm="l2", radii=(s, s),
                geometry=expected_geometry(graph, f.penalty, ups_star, split))
            tau3, d21 = consts.tau3, consts.d21
            rho2, delta_nano = _marginal_scalars(consts, geometry.ppt_norm**0.5, float(s))
            nus = [nui_star + s * rng.standard_normal(split.q) / math.sqrt(split.q)
                   for _ in range(2)]
            got = (check_partial_bias(f, split, nus, consts, upsilon_star=ups_star)
                   + check_perturbed_partial(f, split, a_target, nus, consts,
                                             upsilon_star=ups_star))
            h_norms = [float(np.linalg.norm(geometry.nn_half @ (nu - nui_star))) for nu in nus]
            want = [("partial_bias", f_inv_d * delta_nano * h**2) for h in h_norms]
            for h in h_norms:
                want.append(("pp_expansion", f_inv_d * (
                    (delta_nano + d21) * h**2 + (2.0 * tau3 + d21 / 2.0) * d_f_inv_a**2)))
                want.append(("pp_localization",
                             rho2 * h + 1.5 / (1.0 - d21 * h) * d_inv_a))
            rows = [(r.variant, r.bound.hex()) for r in got if r.variant != "value_expansion"]
            assert rows == [(variant, b.hex()) for variant, b in want]
            assert [r.leading.hex() for r in got if r.variant == "pp_localization"] == [
                (rho2 * h).hex() for h in h_norms]
            assert all(r.prerequisite_flags["rho2_t3_r"] is (rho2 * tau3 * s <= 2.0 / 3.0)
                       for r in got)

    @pytest.mark.parametrize("checker", ["partial_bias", "perturbed_partial"])
    def test_linf_constants_refused(self, checker):
        rng = np.random.default_rng(30)
        quad = QuadraticObjective(rng.standard_normal(6), random_spd(rng, 6))
        split = BlockSplit.half(6)
        nus = [quad.minimizer[split.nuisance_idx] + 0.1 * rng.standard_normal(split.q)]
        consts = ConditionConstants.zeros(norm_tag="linf", radii=(0.5,))
        with pytest.raises(ValueError, match="l2"):
            if checker == "partial_bias":
                check_partial_bias(quad, split, nus, consts, upsilon_star=quad.minimizer)
            else:
                check_perturbed_partial(quad, split, np.zeros(split.p), nus, consts,
                                        upsilon_star=quad.minimizer)

    @pytest.mark.parametrize("radii, inside", [((0.01, 0.01), False), ((0.5, 0.5), True),
                                               ((), True)])
    def test_offset_outside_radius_flagged(self, radii, inside):
        rng = np.random.default_rng(31)
        quad = QuadraticObjective(rng.standard_normal(6), random_spd(rng, 6))
        split = BlockSplit.half(6)
        f_nn = contraction_matrix(quad.curvature, split).f_nn
        unit = rng.standard_normal(split.q)
        unit /= np.linalg.norm(unit)
        # an offset of H-norm 0.1 in H = F_nn^{1/2}
        nus = [quad.minimizer[split.nuisance_idx] + psd_power(f_nn, -0.5) @ (0.1 * unit)]
        consts = ConditionConstants.zeros(radii=radii)
        reports = (check_partial_bias(quad, split, nus, consts, upsilon_star=quad.minimizer)
                   + check_perturbed_partial(quad, split, 0.1 * rng.standard_normal(split.p),
                                             nus, consts, upsilon_star=quad.minimizer))
        assert len(reports) == 4
        for rep in reports:
            assert rep.prerequisite_flags["offset_in_radius"] is inside, rep.variant


class TestNuisanceValueShape:
    def test_scalar_nuisance_value_refused(self):
        """A nuisance value must have the nuisance block's shape; a scalar is not
        broadcast over the block."""
        rng = np.random.default_rng(26)
        quad = QuadraticObjective(rng.standard_normal(4), random_spd(rng, 4))
        split = BlockSplit.half(4)
        consts = ConditionConstants.zeros()
        for run in (lambda nus: check_partial_bias(quad, split, nus, consts, quad.minimizer),
                    lambda nus: check_perturbed_partial(quad, split, np.zeros(2), nus, consts,
                                                        quad.minimizer),
                    lambda nus: semi_orthogonality_probe(quad, split, nus, quad.minimizer)):
            run([quad.minimizer[2:]])
            with pytest.raises(DimensionMismatch):
                run([0.5])


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
        geometry = contraction_matrix(curv, split)
        offset = rng.standard_normal(2)
        nus = [quad.minimizer[2:] + offset]
        rep = semi_orthogonality_probe(quad, split, nus, upsilon_star=quad.minimizer)
        expected = np.linalg.norm(np.linalg.solve(geometry.f_tt, geometry.f_tn @ offset))
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
        block = btl_condition_constants(
            graph, f.penalty, ups_star, norm="l2", radii=(0.5, 0.5),
            geometry=expected_geometry(graph, f.penalty, ups_star, split))
        nus = [ups_star[split.nuisance_idx] + 0.1 * rng.standard_normal(split.q)]
        a_target = 0.05 * rng.standard_normal(split.p)
        checkers = {
            "linear": lambda u: check_linear_sup_expansion(f, a, sup, upsilon_star=u)[1],
            "separable": lambda u: check_separable_sup_expansion(f, ridge_spec(0.002), sup,
                                                                 upsilon_star=u)[1],
            "partial_bias": lambda u: check_partial_bias(f, split, nus, block,
                                                         upsilon_star=u),
            "perturbed_partial": lambda u: check_perturbed_partial(f, split, a_target, nus,
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
