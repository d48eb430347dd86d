"""Alternating minimization: traces, exactness, certificates, rates."""

from collections import Counter

import numpy as np
import pytest

from conftest import expected_geometry, random_spd
from perturbopt.ao import (
    ao_run,
    certify_convergence,
    estimate_rate,
    fixed_point_radii,
    quad_ao_identity_check,
    trace_to_csv,
)
from perturbopt import btl, experiments
from perturbopt import tolerances as tol
from perturbopt.btl import (
    BtlObjective,
    PenaltySpec,
    btl_condition_constants,
    btl_objective,
    sample_er_graph,
    sample_outcomes,
)
from perturbopt.errors import DimensionMismatch, InsufficientSteps
from perturbopt.expansions import ConditionConstants
from perturbopt.experiments import ExperimentConfig, ao_replication
from perturbopt.numkit import (
    BlockSplit,
    contraction_matrix,
    psd_power,
    spectral_norm,
)
from perturbopt.objective import (
    QuadraticObjective,
    SmoothObjective,
    newton_minimize,
    partial_minimize,
)


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
        geometry = contraction_matrix(quad.curvature, BlockSplit(np.array([0]), np.array([1])))
        trace = ao_run(quad, geometry, np.array([1.0]), 3, upsilon_star=quad.minimizer)
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
        trace = ao_run(quad, contraction_matrix(quad.curvature, split), theta0, 2,
                       upsilon_star=quad.minimizer)
        assert trace.theta_err_norms[1] <= 1e-10

    def test_btl_error_norms_decrease(self):
        f, ups_star = _btl_setup()
        split = BlockSplit.half(20)
        theta0 = ups_star[split.target_idx] + 0.05
        trace = ao_run(f, contraction_matrix(f.hessian(ups_star), split), theta0, 6,
                       upsilon_star=ups_star)
        assert np.all(np.diff(trace.theta_err_norms) < 0)

    def test_objective_monotone_along_alternation(self):
        f, ups_star = _btl_setup(n=10, seed=3)
        split = BlockSplit.half(10)
        theta_prev = ups_star[split.target_idx] + 0.2
        trace = ao_run(f, contraction_matrix(f.hessian(ups_star), split), theta_prev, 4,
                       upsilon_star=ups_star)
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
        geometry = contraction_matrix(f.hessian(ups_star), split)
        traces = [ao_run(g, geometry, theta0, 5, upsilon_star=ups_star) for g in (f, Plain())]
        for a, b in zip(*(t.theta_iterates + t.nui_iterates for t in traces)):
            assert a.tobytes() == b.tobytes()
        assert traces[0].theta_err_norms.tobytes() == traces[1].theta_err_norms.tobytes()

    def test_btl_error_norms_are_linalg_norm_bits(self):
        f, ups_star = _btl_setup()
        split = BlockSplit.half(20)
        geometry = contraction_matrix(f.hessian(ups_star), split)
        trace = ao_run(f, geometry, ups_star[split.target_idx] + 0.05, 6, upsilon_star=ups_star)
        theta_star, nui_star = ups_star[split.target_idx], ups_star[split.nuisance_idx]
        theta_errs = [np.linalg.norm(geometry.tt_half @ (theta - theta_star))
                      for theta in trace.theta_iterates]
        nui_errs = [np.linalg.norm(geometry.nn_half @ (nui - nui_star))
                    for nui in trace.nui_iterates]
        assert trace.theta_err_norms.tobytes() == np.array(theta_errs).tobytes()
        assert trace.nui_err_norms.tobytes() == np.array(nui_errs).tobytes()

    def test_operand_lengths_checked(self):
        f, ups_star = _btl_setup()
        split = BlockSplit.half(20)
        geometry = contraction_matrix(f.hessian(ups_star), split)
        theta0 = ups_star[split.target_idx] + 0.05
        with pytest.raises(DimensionMismatch, match="theta0"):
            ao_run(f, geometry, theta0[:9], 3, ups_star)
        with pytest.raises(DimensionMismatch, match="upsilon_star"):
            ao_run(f, geometry, theta0, 3, ups_star[:19])
        with pytest.raises(ValueError, match="finite"):
            ao_run(f, geometry, np.full(split.p, np.nan), 3, ups_star)


def _top_direction_start(geometry, theta_star, gap=0.02):
    """``ao_replication``'s start: the slowest mode of PP', scaled to sup-norm ``gap``."""
    direction = geometry.tt_inv_half @ geometry.top_direction
    return theta_star + direction / np.abs(direction).max() * gap


def _previous_iterate_errors(f, geometry, theta0, n_steps, ups_star):
    """Error norms of the alternation with each solve started at the previous iterate
    (the first nuisance solve at the joint minimizer's nuisance block)."""
    split = geometry.split
    theta_star, nui_star = ups_star[split.target_idx], ups_star[split.nuisance_idx]
    theta, nui = theta0, nui_star
    theta_errs = [np.linalg.norm(geometry.tt_half @ (theta - theta_star))]
    nui_errs = []
    for _ in range(n_steps):
        sol_n = partial_minimize(f, split, "target", theta, warm_start=nui,
                                 tol_grad=tol.JOINT_SOLVE_TOL)
        nui = sol_n.argmin
        sol_t = partial_minimize(f, split, "nuisance", nui, warm_start=theta,
                                 tol_grad=tol.JOINT_SOLVE_TOL)
        theta = sol_t.argmin
        assert sol_n.converged and sol_t.converged
        theta_errs.append(np.linalg.norm(geometry.tt_half @ (theta - theta_star)))
        nui_errs.append(np.linalg.norm(geometry.nn_half @ (nui - nui_star)))
    return np.array(theta_errs), np.array(nui_errs)


class TestInnerSolveStart:
    """Each partial solve starts at the quadratic model's partial minimizer."""

    def test_quadratic_starts_are_the_partial_minimizers(self):
        """On a quadratic the start is the exact partial minimizer: every solve passes the
        gradient test at JOINT_SOLVE_TOL before any Newton step."""
        rng = np.random.default_rng(12)
        quad = _coupled_quadratic()
        cases = [(quad, BlockSplit(np.array([0]), np.array([1])), np.array([1.0]))]
        for dim in (4, 6, 9):
            quad = QuadraticObjective(rng.standard_normal(dim), random_spd(rng, dim))
            perm = rng.permutation(dim)
            split = BlockSplit(perm[: dim // 2], perm[dim // 2:])
            cases.append((quad, split, quad.minimizer[split.target_idx]
                          + rng.standard_normal(split.p)))
        for quad, split, theta0 in cases:
            trace = ao_run(quad, contraction_matrix(quad.curvature, split), theta0, 5,
                           quad.minimizer)
            assert trace.inner_iterations.shape == (5, 2)
            assert trace.inner_iterations.dtype.kind == "i"
            assert not trace.inner_iterations.any()
            assert quad_ao_identity_check(quad, split, theta0, n_steps=5) <= 1e-8

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("n", [20, 50])
    def test_btl_trace_matches_previous_iterate_starts(self, n, seed):
        f, ups_star = _btl_setup(n=n, L=3, gsq=5.0, seed=seed)
        split = BlockSplit.half(n)
        geometry = contraction_matrix(f.hessian(ups_star), split)
        theta0 = _top_direction_start(geometry, ups_star[split.target_idx])
        trace = ao_run(f, geometry, theta0, 8, ups_star)
        theta_errs, nui_errs = _previous_iterate_errors(f, geometry, theta0, 8, ups_star)
        np.testing.assert_allclose(trace.theta_err_norms, theta_errs, rtol=0, atol=1e-11)
        np.testing.assert_allclose(trace.nui_err_norms, nui_errs, rtol=0, atol=1e-11)

    def test_inner_iterations_floor(self):
        """One replication took about 40 inner Newton iterations from the previous iterate."""
        cfg = ExperimentConfig(n_list=(50,), L=3, gsq=5.0, seed=1, reps=1)
        result = ao_replication(cfg, 50, 0)
        assert result.reason == "ok"
        assert result.trace.inner_iterations.sum() <= 24


class TestOnePassPerNewtonPoint:
    def test_ao_replication_evaluates_each_point_once(self, monkeypatch):
        """Each Newton point of the joint and the partial solves is one ``evaluate`` call,
        and each Newton step one Hessian thunk call; the Fisher matrix is the one direct
        ``hessian`` call.  The whole graph and each AO block are built once.  The seed's
        solves take full steps only, so no line search adds points."""
        counts = Counter()
        evaluate, hessian, edge_block = BtlObjective.evaluate, BtlObjective.hessian, btl._EdgeBlock
        joint_solves, builds = [], []

        def spy_evaluate(obj, x, block=None):
            counts["evaluate"] += 1
            value, grad, thunk = evaluate(obj, x, block)

            def counted():
                counts["thunk"] += 1
                return thunk()

            return value, grad, counted

        def spy_hessian(obj, x):
            counts["hessian"] += 1
            return hessian(obj, x)

        class CountedBlock(edge_block):
            def __init__(self, **fields):
                builds.append(fields["idx"].size)
                super().__init__(**fields)

        def spy_joint(*args, **kwargs):
            joint_solves.append(newton_minimize(*args, **kwargs))
            return joint_solves[-1]

        monkeypatch.setattr(BtlObjective, "evaluate", spy_evaluate)
        monkeypatch.setattr(BtlObjective, "hessian", spy_hessian)
        monkeypatch.setattr(btl, "_EdgeBlock", CountedBlock)
        monkeypatch.setattr(experiments, "newton_minimize", spy_joint)
        cfg = ExperimentConfig(n_list=(50,), L=3, gsq=5.0, gap=0.02, steps=8, seed=1, reps=1)
        result = ao_replication(cfg, 50, 0)
        assert result.reason == "ok" and len(joint_solves) == 1
        inner = result.trace.inner_iterations
        steps = joint_solves[0].iterations + int(inner.sum())
        points = steps + 1 + inner.size
        assert (counts["evaluate"], counts["thunk"], counts["hessian"]) == (points, steps, 1)
        assert sorted(builds) == [25, 25, 50]


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
        geometry = contraction_matrix(random_spd(rng, 6), BlockSplit.half(6))
        cert = certify_convergence(geometry,
                                   ConditionConstants.zeros(radii=(5.0, 5.0)), theta0_gap=2.0)
        assert cert.holds
        assert cert.delta_nano == 0.0
        assert cert.rho2 == pytest.approx(1.5 * cert.rho_star)
        # rho_star is the spectral norm of the cross block in the square-root metrics
        scaled = psd_power(geometry.f_tt, -0.5) @ geometry.f_tn @ psd_power(geometry.f_nn, -0.5)
        assert cert.rho_star == pytest.approx(spectral_norm(scaled), rel=1e-13)

    def test_unit_contraction_norm_fails(self):
        # a singular full matrix with positive diagonal blocks: coupling norm is 1
        full = np.array([[1.0, 1.0], [1.0, 1.0]])
        geometry = contraction_matrix(full, BlockSplit(np.array([0]), np.array([1])))
        cert = certify_convergence(geometry,
                                   ConditionConstants.zeros(radii=(10.0, 10.0)), theta0_gap=1.0)
        assert cert.ppt_norm == pytest.approx(1.0, abs=1e-12)
        assert not cert.holds
        assert not cert.conditions_hold["ppt_lt_1"]

    def test_scalar_reevaluation_oracle(self):
        rng = np.random.default_rng(5)
        geometry = contraction_matrix(random_spd(rng, 8), BlockSplit.half(8))
        consts = ConditionConstants(0.4, 0.2, 0.3, radii=(0.6, 0.5))
        gap = 0.25
        cert = certify_convergence(geometry, consts, gap)
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
        cert = certify_convergence(contraction_matrix(random_spd(rng, 4), BlockSplit.half(4)),
                                   ConditionConstants(0.0, 2.0, 1.0, radii=(0.5, 0.25)), 0.1)
        assert cert.conditions_hold == {"dltwb_lt_1": False}
        assert cert.dltwb == 1.0 and np.isnan(cert.rho2) and np.isnan(cert.delta_nano)


class TestEpsAlphaResiduals:
    def test_quadratic_residuals_vanish(self):
        rng = np.random.default_rng(8)
        quad = QuadraticObjective(rng.standard_normal(6), random_spd(rng, 6))
        split = BlockSplit.half(6)
        theta0 = quad.minimizer[:3] + rng.standard_normal(3)
        trace = ao_run(quad, contraction_matrix(quad.curvature, split), theta0, 4,
                       upsilon_star=quad.minimizer)
        assert trace.eps_norms.max() <= 1e-10
        assert trace.alpha_norms.max() <= 1e-10

    def test_btl_quadratic_residual_bound(self):
        f, ups_star = _btl_setup()
        n = 20
        split = BlockSplit.half(n)
        geometry = contraction_matrix(f.hessian(ups_star), split)
        consts = btl_condition_constants(
            f.graph, f.penalty, ups_star, norm="l2", radii=(0.3, 0.3),
            geometry=expected_geometry(f.graph, f.penalty, ups_star, split))
        gap_dir = np.full(split.p, 0.02)
        theta0 = ups_star[split.target_idx] + gap_dir
        cert = certify_convergence(geometry, consts, np.linalg.norm(geometry.tt_half @ gap_dir))
        trace = ao_run(f, geometry, theta0, 5, ups_star)
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


def _certificate_scalars(consts, rho_star):
    """dltwb, rho2 and delta_nano of the certificate, written out."""
    d_eff = max(consts.d12, consts.d21)
    dltwb = d_eff * float(max(consts.radii))
    rho2 = 1.5 * (rho_star + dltwb / 2.0) / (1.0 - dltwb)
    delta_nano = (d_eff * rho_star + d_eff / 2.0 + consts.tau3 * rho2**2 / 3.0) / (1.0 - dltwb)
    return dltwb, rho2, delta_nano


def _radii_written_out(consts, rho_star, gap):
    """The fixed-point radius iteration, written out."""
    d_eff = max(consts.d12, consts.d21)
    r_theta = r_nui = 0.0
    for _ in range(tol.RADII_MAX_ROUNDS):
        dltwb = d_eff * max(r_theta, r_nui)
        if dltwb >= 0.5:
            return None
        rho2 = 1.5 * (rho_star + dltwb / 2.0) / (1.0 - dltwb)
        new_theta, new_nui = tol.RADII_SLACK * rho2**2 * gap, tol.RADII_SLACK * rho2 * gap
        if abs(new_theta - r_theta) <= tol.RADII_STOP and abs(new_nui - r_nui) <= tol.RADII_STOP:
            return (new_theta, new_nui)
        r_theta, r_nui = new_theta, new_nui
    return (r_theta, r_nui)


class TestScalarsPinned:
    """Certificate scalars and fixed-point radii, bit for bit, against the formulas written out."""

    @pytest.mark.parametrize("seed", [1, 7])
    @pytest.mark.parametrize("n", [20, 30])
    def test_btl_instances(self, n, seed):
        f, ups_star = _btl_setup(n=n, seed=seed)
        split = BlockSplit.half(n)
        geometry = contraction_matrix(f.hessian(ups_star), split)
        rho_star = geometry.ppt_norm**0.5
        seen_feasible = seen_certified = False
        for radii in ((0.0, 0.0), (0.05, 0.1), (0.3, 0.2), (2.0, 2.0)):
            consts = btl_condition_constants(f.graph, f.penalty, ups_star, norm="l2",
                                             radii=radii, geometry=geometry)
            for gap in (1e-3, 0.02, 0.2):
                got = fixed_point_radii(consts, rho_star, gap)
                want = _radii_written_out(consts, rho_star, gap)
                assert (got is None) is (want is None)
                if got is not None:
                    seen_feasible = True
                    assert [r.hex() for r in got] == [r.hex() for r in want]
                cert = certify_convergence(geometry, consts, gap)
                dltwb, rho2, delta_nano = _certificate_scalars(consts, rho_star)
                assert cert.dltwb.hex() == dltwb.hex()
                if dltwb < 1.0:
                    seen_certified = True
                    assert (cert.rho2.hex(), cert.delta_nano.hex()) == (rho2.hex(),
                                                                          delta_nano.hex())
                else:
                    assert np.isnan(cert.rho2) and np.isnan(cert.delta_nano)
        assert seen_feasible and seen_certified


class TestTraceExport:
    def test_csv_columns(self, tmp_path):
        quad = _coupled_quadratic()
        geometry = contraction_matrix(quad.curvature, BlockSplit(np.array([0]), np.array([1])))
        trace = ao_run(quad, geometry, np.array([1.0]), 3, upsilon_star=quad.minimizer)
        path = tmp_path / "trace.csv"
        trace_to_csv(trace, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "step,theta_err,nui_err,eps_norm,alpha_norm"
        assert len(lines) == 1 + 1 + trace.steps
        assert lines[1].startswith("0,")
