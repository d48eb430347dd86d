"""Alternating minimization: traces, exactness, certificates, rates."""

import numpy as np
import pytest

from conftest import random_spd
from perturbopt.ao import (
    ao_run,
    certify_convergence,
    estimate_rate,
    fixed_point_radii,
    quad_ao_identity_check,
    trace_to_csv,
)
from perturbopt import tolerances as tol
from perturbopt.btl import (
    PenaltySpec,
    btl_condition_constants,
    btl_objective,
    sample_er_graph,
    sample_outcomes,
)
from perturbopt.errors import InsufficientSteps
from perturbopt.expansions import ConditionConstants
from perturbopt.numkit import (
    BlockHessian,
    BlockSplit,
    contraction_matrix,
    psd_power,
    spectral_norm,
)
from perturbopt.objective import QuadraticObjective, SmoothObjective, newton_minimize


def _coupled_quadratic():
    return QuadraticObjective(np.zeros(2), np.array([[2.0, 1.0], [1.0, 2.0]]))


def _btl_setup(n=20, L=3, gsq=5.0, seed=7):
    rng = np.random.default_rng(seed)
    graph = sample_er_graph(n, 1.0, L, rng)
    truth = rng.uniform(0, 2, n)
    truth -= truth.mean()
    obs = sample_outcomes(graph, truth, rng)
    f = btl_objective(obs, PenaltySpec.mean_shift(gsq))
    ups_star = newton_minimize(f, np.zeros(n), tol_grad=1e-12).argmin
    return f, ups_star


class TestAoRun:
    def test_two_by_two_geometric_decay(self):
        quad = _coupled_quadratic()
        split = BlockSplit(np.array([0]), np.array([1]))
        trace = ao_run(quad, split, np.array([1.0]), 3, upsilon_star=quad.minimizer)
        iterates = [float(t[0]) for t in trace.theta_iterates]
        np.testing.assert_allclose(iterates, [1.0, 0.25, 0.0625, 0.015625], atol=1e-12)
        assert trace.ppt_norm == pytest.approx(0.25, abs=1e-10)

    def test_block_diagonal_converges_in_one_step(self):
        rng = np.random.default_rng(0)
        curv = np.zeros((4, 4))
        curv[:2, :2] = random_spd(rng, 2)
        curv[2:, 2:] = random_spd(rng, 2)
        quad = QuadraticObjective(rng.standard_normal(4), curv)
        split = BlockSplit.half(4)
        theta0 = quad.minimizer[:2] + rng.standard_normal(2)
        trace = ao_run(quad, split, theta0, 2, upsilon_star=quad.minimizer)
        assert trace.theta_err_norms[1] <= 1e-10

    def test_btl_error_norms_decrease(self):
        f, ups_star = _btl_setup()
        split = BlockSplit.half(20)
        theta0 = ups_star[split.target_idx] + 0.05
        trace = ao_run(f, split, theta0, 6, upsilon_star=ups_star)
        assert np.all(np.diff(trace.theta_err_norms) < 0)

    def test_objective_monotone_along_alternation(self):
        f, ups_star = _btl_setup(n=10, seed=3)
        split = BlockSplit.half(10)
        theta_prev = ups_star[split.target_idx] + 0.2
        trace = ao_run(f, split, theta_prev, 4, upsilon_star=ups_star)
        slack = 1e-9
        for step in range(trace.steps):
            nui = trace.nui_iterates[step]
            theta = trace.theta_iterates[step + 1]
            before = f.value(split.embed(theta_prev, nui))
            after = f.value(split.embed(theta, nui))
            assert after <= before + slack
            if step > 0:
                prev_pair = f.value(split.embed(theta_prev, trace.nui_iterates[step - 1]))
                assert before <= prev_pair + slack
            theta_prev = theta

    def test_btl_block_evaluation_leaves_the_trace_unchanged(self):
        f, ups_star = _btl_setup(n=14, seed=5)

        class Plain(SmoothObjective):  # the default evaluate, from the three derivatives
            dim = f.dim
            value, gradient, hessian = f.value, f.gradient, f.hessian

        split = BlockSplit(np.array([9, 2, 5, 12, 0, 7]), np.array([1, 3, 4, 6, 8, 10, 11, 13]))
        theta0 = ups_star[split.target_idx] + 0.3
        traces = [ao_run(g, split, theta0, 5, upsilon_star=ups_star) for g in (f, Plain())]
        for a, b in zip(*(t.theta_iterates + t.nui_iterates for t in traces)):
            assert a.tobytes() == b.tobytes()
        assert traces[0].theta_err_norms.tobytes() == traces[1].theta_err_norms.tobytes()


class TestQuadraticIdentity:
    def test_exactness_small(self):
        rng = np.random.default_rng(1)
        quad = QuadraticObjective(rng.standard_normal(4), random_spd(rng, 4))
        dev = quad_ao_identity_check(quad, BlockSplit.half(4),
                                     rng.standard_normal(2), n_steps=5)
        assert dev <= 1e-9

    def test_block_diagonal_immediate(self):
        rng = np.random.default_rng(2)
        curv = np.zeros((4, 4))
        curv[:2, :2] = random_spd(rng, 2)
        curv[2:, 2:] = random_spd(rng, 2)
        quad = QuadraticObjective(np.zeros(4), curv)
        dev = quad_ao_identity_check(quad, BlockSplit.half(4), np.array([1.0, -1.0]),
                                     n_steps=3)
        assert dev <= 1e-10

    def test_exactness_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            dim = int(rng.integers(2, 8))
            quad = QuadraticObjective(rng.standard_normal(dim), random_spd(rng, dim))
            p = int(rng.integers(1, dim))
            split = BlockSplit(np.arange(p), np.arange(p, dim))
            theta0 = quad.minimizer[:p] + rng.standard_normal(p)
            assert quad_ao_identity_check(quad, split, theta0, n_steps=4) <= 1e-8


class TestCertificate:
    def test_quadratic_certificate(self):
        rng = np.random.default_rng(4)
        bh = BlockHessian.from_full(random_spd(rng, 6), BlockSplit.half(6))
        cert = certify_convergence(contraction_matrix(bh),
                                   ConditionConstants.zeros(radii=(5.0, 5.0)), theta0_gap=2.0)
        assert cert.holds
        assert cert.delta_nano == 0.0
        assert cert.rho2 == pytest.approx(1.5 * cert.rho_star)
        # rho_star is the spectral norm of the cross block in the square-root metrics
        scaled = psd_power(bh.f_tt, -0.5) @ bh.f_tn @ psd_power(bh.f_nn, -0.5)
        assert cert.rho_star == pytest.approx(spectral_norm(scaled), rel=1e-13)

    def test_unit_contraction_norm_fails(self):
        # a singular full matrix with positive diagonal blocks: coupling norm is 1
        full = np.array([[1.0, 1.0], [1.0, 1.0]])
        bh = BlockHessian.from_full(full, BlockSplit(np.array([0]), np.array([1])))
        cert = certify_convergence(contraction_matrix(bh),
                                   ConditionConstants.zeros(radii=(10.0, 10.0)), theta0_gap=1.0)
        assert cert.ppt_norm == pytest.approx(1.0, abs=1e-12)
        assert not cert.holds
        assert not cert.conditions_hold["ppt_lt_1"]

    def test_scalar_reevaluation_oracle(self):
        rng = np.random.default_rng(5)
        bh = BlockHessian.from_full(random_spd(rng, 8), BlockSplit.half(8))
        consts = ConditionConstants(0.4, 0.2, 0.3, radii=(0.6, 0.5))
        gap = 0.25
        cert = certify_convergence(contraction_matrix(bh), consts, gap)
        # recompute every inequality from the stored scalars
        d_eff = max(consts.d12, consts.d21)
        dltwb = d_eff * max(consts.radii)
        rho2 = 1.5 * (cert.rho_star + dltwb / 2) / (1 - dltwb)
        dnano = (d_eff * cert.rho_star + d_eff / 2 + consts.tau3 * rho2**2 / 3) / (1 - dltwb)
        assert cert.rho2 == pytest.approx(rho2)
        assert cert.delta_nano == pytest.approx(dnano)
        expected = {
            "dltwb_lt_1": dltwb < 1,
            "ppt_lt_1": cert.ppt_norm < 1,
            "r_theta_big_enough": consts.radii[0] >= rho2**2 * gap,
            "r_nui_big_enough": consts.radii[1] >= rho2 * gap,
            "rho2_t3_r_small": rho2 * consts.tau3 * max(consts.radii) <= 2 / 3,
            "start_gap_small": (1 + rho2**2) * dnano * gap < 1 - cert.ppt_norm,
        }
        assert cert.conditions_hold == expected

    def test_large_damping_scalar_fails_alone(self):
        rng = np.random.default_rng(6)
        bh = BlockHessian.from_full(random_spd(rng, 4), BlockSplit.half(4))
        cert = certify_convergence(contraction_matrix(bh),
                                   ConditionConstants(0.0, 2.0, 1.0, radii=(0.5, 0.25)), 0.1)
        assert cert.conditions_hold == {"dltwb_lt_1": False}
        assert cert.dltwb == 1.0 and np.isnan(cert.rho2) and np.isnan(cert.delta_nano)


class TestEpsAlphaResiduals:
    def test_quadratic_residuals_vanish(self):
        rng = np.random.default_rng(8)
        quad = QuadraticObjective(rng.standard_normal(6), random_spd(rng, 6))
        split = BlockSplit.half(6)
        theta0 = quad.minimizer[:3] + rng.standard_normal(3)
        trace = ao_run(quad, split, theta0, 4, upsilon_star=quad.minimizer)
        assert trace.eps_norms.max() <= 1e-10
        assert trace.alpha_norms.max() <= 1e-10

    def test_btl_quadratic_residual_bound(self):
        f, ups_star = _btl_setup()
        n = 20
        split = BlockSplit.half(n)
        geometry = contraction_matrix(BlockHessian.from_full(f.hessian(ups_star), split))
        consts = btl_condition_constants(f.graph, f.penalty, ups_star, norm="l2", split=split,
                                         radii=(0.3, 0.3))
        gap_dir = np.full(split.p, 0.02)
        theta0 = ups_star[split.target_idx] + gap_dir
        cert = certify_convergence(geometry, consts, np.linalg.norm(geometry.tt_half @ gap_dir))
        trace = ao_run(f, split, theta0, 5, ups_star)
        # curvature-weighted start errors coincide with the D-metric here
        prev = trace.theta_err_norms[:-1]
        eps = trace.eps_norms
        assert np.all(eps <= cert.delta_nano * cert.rho2**2 * prev**2 * (1 + 1e-9) + 1e-13)


class TestEstimateRate:
    def test_geometric_sequence(self):
        rate = estimate_rate(np.array([1.0, 0.25, 0.0625, 0.015625]), burn_in=0)
        assert rate == pytest.approx(0.25, abs=1e-14)

    def test_zero_tail_reports_zero(self):
        assert estimate_rate(np.array([1.0, 0.5, 0.0, 0.0]), burn_in=0) == 0.0

    def test_insufficient_steps(self):
        with pytest.raises(InsufficientSteps):
            estimate_rate(np.array([1.0, 0.5]), burn_in=0)
        with pytest.raises(InsufficientSteps):
            estimate_rate(np.array([1.0, 0.5, 0.25, 0.125]), burn_in=4)


class TestRadiiFixedPoint:
    def test_zero_constants_closed_form(self):
        consts = ConditionConstants.zeros(radii=())
        radii = fixed_point_radii(consts, rho_star_value=0.5, gap=0.1)
        rho2 = 1.5 * 0.5
        assert radii[0] == pytest.approx(tol.RADII_SLACK * rho2**2 * 0.1)
        assert radii[1] == pytest.approx(tol.RADII_SLACK * rho2 * 0.1)

    def test_infeasible_returns_none(self):
        consts = ConditionConstants(5.0, 5.0, 5.0, radii=())
        assert fixed_point_radii(consts, rho_star_value=0.9, gap=10.0) is None


class TestTraceExport:
    def test_csv_columns(self, tmp_path):
        quad = _coupled_quadratic()
        split = BlockSplit(np.array([0]), np.array([1]))
        trace = ao_run(quad, split, np.array([1.0]), 3, upsilon_star=quad.minimizer)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,theta_err,nui_err,eps_norm,alpha_norm"
        assert len(lines) == 1 + 1 + trace.steps
        assert lines[1].startswith("0,")
