"""Objective wrappers and the two convex solvers."""

import numpy as np
import pytest

from conftest import LogisticSymmetric, random_spd
from perturbopt.btl import PenaltySpec, btl_objective, sample_er_graph, sample_outcomes
from perturbopt.errors import DimensionMismatch, HessianNotPD
from perturbopt.numkit import BlockSplit, finite_diff_check
from perturbopt.objective import (
    LinearPerturbation,
    QuadraticObjective,
    SeparablePerturbation,
    SmoothObjective,
    coordinate_descent_minimize,
    newton_minimize,
    partial_minimize,
    ridge_spec,
)


def _btl_instance(n, L, seed, truth_scale=1.0):
    rng = np.random.default_rng(seed)
    graph = sample_er_graph(n, 1.0, L, rng)
    truth = truth_scale * rng.uniform(0, 2, n)
    truth -= truth.mean()
    obs = sample_outcomes(graph, truth, rng)
    return btl_objective(obs, PenaltySpec.mean_shift(1.0))


class TestLinearPerturb:
    def test_zero_vector_is_identity(self):
        rng = np.random.default_rng(0)
        quad = QuadraticObjective(rng.standard_normal(3), random_spd(rng, 3))
        g = LinearPerturbation(quad, np.zeros(3))
        x = rng.standard_normal(3)
        assert g.value(x) == quad.value(x)
        np.testing.assert_array_equal(g.gradient(x), quad.gradient(x))

    def test_quadratic_argmin_shift(self):
        rng = np.random.default_rng(1)
        curv = random_spd(rng, 4)
        quad = QuadraticObjective(rng.standard_normal(4), curv)
        a = rng.standard_normal(4)
        sol = newton_minimize(LinearPerturbation(quad, a), np.zeros(4), tol_grad=1e-12)
        expected = quad.minimizer - np.linalg.solve(curv, a)
        np.testing.assert_allclose(sol.argmin, expected, atol=1e-11)

    def test_btl_gradient_shift(self):
        obj = _btl_instance(4, 3, seed=2)
        rng = np.random.default_rng(3)
        a = rng.standard_normal(4)
        g = LinearPerturbation(obj, a)
        for _ in range(5):
            x = rng.uniform(-1, 1, 4)
            np.testing.assert_allclose(g.gradient(x) - obj.gradient(x), a, atol=1e-12)

    def test_dimension_mismatch(self):
        quad = QuadraticObjective(np.zeros(2), np.eye(2))
        with pytest.raises(DimensionMismatch):
            LinearPerturbation(quad, np.zeros(3))


class TestSeparablePerturb:
    def test_zero_spec_is_identity(self):
        rng = np.random.default_rng(4)
        quad = QuadraticObjective(rng.standard_normal(3), random_spd(rng, 3))
        g = SeparablePerturbation(quad, ridge_spec(0.0))
        x = rng.standard_normal(3)
        assert g.value(x) == pytest.approx(quad.value(x))
        np.testing.assert_allclose(g.hessian(x), quad.hessian(x))

    def test_ridge_normal_equations(self):
        rng = np.random.default_rng(5)
        curv = random_spd(rng, 4)
        quad = QuadraticObjective(rng.standard_normal(4), curv)
        lam = 0.3
        sol = newton_minimize(SeparablePerturbation(quad, ridge_spec(lam)), np.zeros(4),
                              tol_grad=1e-13)
        expected = np.linalg.solve(curv + lam * np.eye(4), curv @ quad.minimizer)
        np.testing.assert_allclose(sol.argmin, expected, atol=1e-11)

    def test_cross_derivatives_unchanged_on_btl(self):
        obj = _btl_instance(5, 2, seed=6)
        g = SeparablePerturbation(obj, ridge_spec(0.1))
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, 5)
        h_base, h_pert = obj.hessian(x), g.hessian(x)
        off = ~np.eye(5, dtype=bool)
        np.testing.assert_allclose(h_pert[off], h_base[off], atol=1e-12)
        np.testing.assert_allclose(np.diag(h_pert), np.diag(h_base) + 0.1, atol=1e-12)

    def test_third_derivative_adds_diagonal_only(self):
        # cubic coordinate perturbation contributes t''' on aligned directions
        from perturbopt.objective import SeparableSpec

        cubic = SeparableSpec(
            t=lambda v: v**3 / 6.0, t1=lambda v: v**2 / 2.0,
            t2=lambda v: v, t3=lambda v: np.ones_like(v),
        )
        rng = np.random.default_rng(8)
        quad = QuadraticObjective(np.zeros(3), random_spd(rng, 3))
        g = SeparablePerturbation(quad, cubic)
        x = rng.standard_normal(3)
        a, b, c = rng.standard_normal((3, 3))
        assert g.third_directional(x, a, b, c) == pytest.approx(float(np.sum(a * b * c)))


class TestNewtonMinimize:
    def test_quadratic_one_iteration(self):
        rng = np.random.default_rng(9)
        quad = QuadraticObjective(rng.standard_normal(5), random_spd(rng, 5))
        sol = newton_minimize(quad, rng.standard_normal(5), tol_grad=1e-12)
        assert sol.iterations == 1
        assert sol.converged
        np.testing.assert_allclose(sol.argmin, quad.minimizer, atol=1e-12)

    def test_logistic_symmetry(self):
        sol = newton_minimize(LogisticSymmetric(4), np.full(4, 2.0), tol_grad=1e-12)
        assert sol.converged
        np.testing.assert_allclose(sol.argmin, np.zeros(4), atol=1e-10)

    def test_reports_nonconvergence(self):
        sol = newton_minimize(LogisticSymmetric(3), np.full(3, 5.0), tol_grad=1e-12,
                              max_iter=1)
        assert not sol.converged
        assert sol.note

    def test_hessian_not_pd_raised(self):
        indefinite = QuadraticObjective.__new__(QuadraticObjective)
        indefinite.minimizer = np.zeros(2)
        indefinite.curvature = np.array([[1.0, 2.0], [2.0, 1.0]])
        indefinite.dim = 2
        with pytest.raises(HessianNotPD):
            newton_minimize(indefinite, np.ones(2))

    def test_value_never_evaluated_twice_at_one_point(self):
        f = _btl_instance(12, 2, seed=3)
        points = []
        evaluate = f.evaluate
        f.evaluate = lambda x, block=None: points.append(x.tobytes()) or evaluate(x, block)
        f.value = f.gradient = f.hessian = None  # Newton asks evaluate for everything
        rep = newton_minimize(f, np.zeros(12), tol_grad=1e-12)
        assert rep.converged and rep.iterations >= 3
        assert len(points) == len(set(points))

    def test_one_hessian_per_iteration(self):
        f = _btl_instance(12, 2, seed=3)
        built = []
        evaluate = f.evaluate

        def counting(x, block=None):
            value, grad, hessian = evaluate(x, block)
            return value, grad, lambda: built.append(x) or hessian()

        f.evaluate = counting
        rep = newton_minimize(f, np.zeros(12), tol_grad=1e-12)
        assert rep.converged and rep.iterations >= 3
        assert len(built) == rep.iterations
        built.clear()
        rep = partial_minimize(f, BlockSplit.half(12), "target", np.full(6, 0.3),
                               tol_grad=1e-12)
        assert rep.converged and rep.iterations >= 1
        assert len(built) == rep.iterations

    def test_trajectory_recorded(self):
        rng = np.random.default_rng(10)
        quad = QuadraticObjective(rng.standard_normal(3), random_spd(rng, 3))
        sol = newton_minimize(quad, np.zeros(3), record_trajectory=True)
        assert len(sol.trajectory) == sol.iterations + 1


class TestCoordinateDescent:
    def test_separable_one_sweep(self):
        target = np.array([1.0, -2.0, 0.5])
        quad = QuadraticObjective(target, 2.0 * np.eye(3))
        sol = coordinate_descent_minimize(quad, np.zeros(3), tol_grad=1e-12)
        assert sol.iterations == 1
        np.testing.assert_allclose(sol.argmin, target, atol=1e-12)

    def test_gauss_seidel_recursion(self):
        quad = QuadraticObjective(np.zeros(2), np.array([[2.0, 1.0], [1.0, 2.0]]))
        sol = coordinate_descent_minimize(quad, np.array([1.0, 1.0]), tol_grad=1e-13,
                                          record_trajectory=True)
        # after sweep k the first coordinate equals (1/4)^k of its recursion start
        first = [t[0] for t in sol.trajectory]
        assert first[1] == pytest.approx(-0.5)        # -x2/2 with x2 = 1
        assert first[2] == pytest.approx(first[1] / 4.0, abs=1e-12)
        np.testing.assert_allclose(sol.argmin, np.zeros(2), atol=1e-10)

    def test_objective_monotone_per_coordinate_step(self):
        obj = _btl_instance(4, 5, seed=11)
        sol = coordinate_descent_minimize(obj, np.full(4, 0.7), tol_grad=1e-10,
                                          record_trajectory=True)
        vals = np.asarray(sol.objective_values)
        assert np.all(np.diff(vals) <= 1e-10 * np.maximum(1.0, np.abs(vals[:-1])))

    def test_sweeps_evaluate_one_item_at_a_time(self):
        f = _btl_instance(10, 3, seed=7)

        class Plain(SmoothObjective):  # the default evaluate, from the full derivatives
            dim = f.dim
            value, gradient, hessian = f.value, f.gradient, f.hessian

        reference = coordinate_descent_minimize(Plain(), np.zeros(10), tol_grad=1e-11)
        calls = {"gradient": 0, "hessian": 0}

        def counted(name):
            full = getattr(f, name)

            def wrapper(x):
                calls[name] += 1
                return full(x)
            return wrapper

        f.gradient, f.hessian = counted("gradient"), counted("hessian")
        sol = coordinate_descent_minimize(f, np.zeros(10), tol_grad=1e-11)
        assert sol.converged and sol.iterations >= 3
        # one full gradient before the first sweep and one after each, for the stopping test
        assert calls == {"gradient": sol.iterations + 1, "hessian": 0}
        assert sol.argmin.tobytes() == reference.argmin.tobytes()

    def test_agrees_with_newton_on_btl(self):
        for n, seed in ((3, 12), (4, 13)):
            obj = _btl_instance(n, 4, seed=seed)
            a = newton_minimize(obj, np.zeros(n), tol_grad=1e-11)
            b = coordinate_descent_minimize(obj, np.zeros(n), tol_grad=1e-11)
            assert a.converged and b.converged
            assert np.abs(a.argmin - b.argmin).max() <= 1e-7


class TestPartialMinimize:
    def test_quadratic_closed_form(self):
        quad = QuadraticObjective(np.zeros(2), np.array([[2.0, 1.0], [1.0, 2.0]]))
        split = BlockSplit(np.array([0]), np.array([1]))
        sol = partial_minimize(quad, split, "nuisance", np.array([0.4]))
        assert sol.argmin[0] == pytest.approx(-0.2, abs=1e-12)

    def test_additively_separable_independent(self):
        rng = np.random.default_rng(14)
        curv = np.zeros((4, 4))
        curv[:2, :2] = random_spd(rng, 2)
        curv[2:, 2:] = random_spd(rng, 2)
        quad = QuadraticObjective(rng.standard_normal(4), curv)
        split = BlockSplit.half(4)
        sols = [
            partial_minimize(quad, split, "nuisance", quad.minimizer[2:] + off).argmin
            for off in (np.zeros(2), np.array([1.0, -2.0]), np.array([-3.0, 0.5]))
        ]
        for sol in sols[1:]:
            np.testing.assert_allclose(sol, sols[0], atol=1e-10)

    def test_btl_against_grid_refinement_oracle(self):
        obj = _btl_instance(4, 50, seed=15)
        split = BlockSplit.half(4)
        joint = newton_minimize(obj, np.zeros(4), tol_grad=1e-13)
        nui = joint.argmin[split.nuisance_idx] + np.array([0.2, -0.1])
        sol = partial_minimize(obj, split, "nuisance", nui, tol_grad=1e-12)

        # refine a 2-D grid around a generous window
        center = joint.argmin[split.target_idx]
        width = 1.0
        for _ in range(12):
            axes = [np.linspace(c - width, c + width, 21) for c in center]
            grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
            vals = [obj.value(split.embed(th, nui)) for th in grid]
            center = grid[int(np.argmin(vals))]
            width *= 0.2
        assert np.abs(sol.argmin - center).max() <= 1e-6

    def test_fixed_block_validation(self):
        quad = QuadraticObjective(np.zeros(2), np.eye(2))
        with pytest.raises(ValueError):
            partial_minimize(quad, BlockSplit.half(2), "both", np.zeros(1))


class TestDerivativeContracts:
    def test_shipped_objectives_pass_finite_differences(self):
        rng = np.random.default_rng(16)
        objectives = [
            QuadraticObjective(rng.standard_normal(4), random_spd(rng, 4)),
            _btl_instance(5, 2, seed=17),
            LinearPerturbation(_btl_instance(4, 3, seed=18), rng.standard_normal(4)),
            SeparablePerturbation(_btl_instance(4, 3, seed=19), ridge_spec(0.2)),
            LogisticSymmetric(4),
        ]
        for obj in objectives:
            for _ in range(10):
                x = rng.uniform(-1.5, 1.5, obj.dim)
                rep = finite_diff_check(obj, x)
                assert max(rep.grad_err, rep.hess_err, rep.third_err) <= 1e-4

    def test_solvers_agree_on_convex_objectives(self):
        rng = np.random.default_rng(22)
        objectives = [
            QuadraticObjective(rng.standard_normal(4), random_spd(rng, 4)),
            LogisticSymmetric(3),
            _btl_instance(4, 5, seed=23),
            SeparablePerturbation(_btl_instance(5, 3, seed=24), ridge_spec(0.3)),
        ]
        for obj in objectives:
            x0 = rng.uniform(-0.5, 0.5, obj.dim)
            a = newton_minimize(obj, x0, tol_grad=1e-11)
            b = coordinate_descent_minimize(obj, x0, tol_grad=1e-11)
            assert a.converged and b.converged
            assert np.abs(a.argmin - b.argmin).max() <= 1e-6

    def test_third_directional_symmetric(self):
        obj = _btl_instance(5, 3, seed=20)
        rng = np.random.default_rng(21)
        x = rng.uniform(-1, 1, 5)
        a, b, c = rng.standard_normal((3, 5))
        vals = {
            obj.third_directional(x, a, b, c),
            obj.third_directional(x, b, a, c),
            obj.third_directional(x, c, b, a),
        }
        assert max(vals) - min(vals) <= 1e-9 * max(1.0, abs(max(vals)))
