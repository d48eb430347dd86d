"""Objective wrappers, the Newton solver and partial minimization."""

import numpy as np
import pytest

from conftest import LogisticSymmetric, random_spd
from perturbopt.btl import (
    PenaltySpec,
    _mm_minimize,
    btl_objective,
    sample_er_graph,
    sample_outcomes,
)
from perturbopt import tolerances as tol
from perturbopt.errors import DimensionMismatch, HessianNotPD
from perturbopt.numkit import BlockSplit, finite_diff_check
from perturbopt.objective import (
    LinearPerturbation,
    QuadraticObjective,
    SeparablePerturbation,
    SmoothObjective,
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

    def test_block_solve_leaves_held_coordinates(self):
        rng = np.random.default_rng(10)
        objectives = [_btl_instance(12, 2, seed=3),
                      QuadraticObjective(rng.standard_normal(12), random_spd(rng, 12))]
        free, held = np.arange(0, 12, 2), np.arange(1, 12, 2)
        for f in objectives:
            x0 = rng.uniform(-1.0, 1.0, 12)
            rep = newton_minimize(f, x0, tol_grad=1e-12, block=f.block_index(free))
            assert rep.converged and rep.iterations >= 1
            assert rep.argmin[held].tobytes() == x0[held].tobytes()
            assert np.abs(f.gradient(rep.argmin)[free]).max() <= 1e-12

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_start_refused_before_any_evaluation(self, bad):
        f = _btl_instance(12, 2, seed=3)
        evaluated = []
        evaluate = f.evaluate
        f.evaluate = lambda x, block=None: evaluated.append(x) or evaluate(x, block)
        x0 = np.zeros(12)
        x0[4] = bad
        for block in (None, f.block_index(np.arange(6))):
            with pytest.raises(ValueError, match="finite"):
                newton_minimize(f, x0, tol_grad=1e-12, block=block)
        assert evaluated == []


class _SkewedHessian(SmoothObjective):
    """f(x) = x'Ax/2 + sum exp(x_i) - b'x, whose Hessian carries ``skew`` at entry (0, 1)."""

    def __init__(self, skew: float, symmetrize: bool = False):
        rng = np.random.default_rng(21)
        self.a = random_spd(rng, 5)
        self.b = rng.standard_normal(5)
        self.skew = skew
        self.symmetrize = symmetrize
        self.dim = 5

    def value(self, x):
        return 0.5 * float(x @ self.a @ x) + float(np.exp(x).sum()) - float(self.b @ x)

    def gradient(self, x):
        return self.a @ x + np.exp(x) - self.b

    def hessian(self, x):
        h = self.a + np.diag(np.exp(x))
        h[0, 1] += self.skew
        return 0.5 * (h + h.T) if self.symmetrize else h


_WRAPS = {
    "plain": lambda f: f,
    "linear": lambda f: LinearPerturbation(f, np.linspace(-1.0, 1.0, f.dim)),
    "separable": lambda f: SeparablePerturbation(f, ridge_spec(0.5)),
}


class TestUserHessianSymmetry:
    """Newton checks a user Hessian where it is built, as spd_solve reads one triangle."""

    @pytest.mark.parametrize("wrap", _WRAPS.values(), ids=_WRAPS.keys())
    def test_asymmetric_hessian_refused(self, wrap):
        f = wrap(_SkewedHessian(1e3 * tol.SYMMETRY_RTOL))
        with pytest.raises(ValueError, match="not symmetric"):
            newton_minimize(f, np.zeros(5))
        with pytest.raises(ValueError, match="not symmetric"):
            partial_minimize(f, BlockSplit.half(5), "nuisance", np.zeros(2))

    @pytest.mark.parametrize("wrap", _WRAPS.values(), ids=_WRAPS.keys())
    def test_hessian_within_tolerance_is_symmetrized(self, wrap):
        skew = 0.25 * tol.SYMMETRY_RTOL  # entries are above 1, so within the tolerance
        skewed, symmetric = wrap(_SkewedHessian(skew)), wrap(_SkewedHessian(skew, True))
        for solve in (lambda f: newton_minimize(f, np.zeros(5), tol_grad=1e-12),
                      lambda f: partial_minimize(f, BlockSplit.half(5), "nuisance",
                                                 np.full(2, 0.1), tol_grad=1e-12)):
            got, want = solve(skewed), solve(symmetric)
            assert got.converged and got.iterations == want.iterations >= 3
            assert got.argmin.tobytes() == want.argmin.tobytes()


class TestPartialMinimize:
    def test_quadratic_closed_form(self):
        quad = QuadraticObjective(np.zeros(2), np.array([[2.0, 1.0], [1.0, 2.0]]))
        split = BlockSplit(np.array([0]), np.array([1]))
        sol = partial_minimize(quad, split, "nuisance", np.array([0.4]))
        assert sol.argmin[0] == pytest.approx(-0.2, abs=1e-12)

    def test_quadratic_block_solution(self):
        """The free block is theta* - F_tt^-1 F_tn (nu - nu*), and likewise the nuisance."""
        rng = np.random.default_rng(11)
        quad = QuadraticObjective(rng.standard_normal(5), random_spd(rng, 5))
        split = BlockSplit(np.array([0, 2, 4]), np.array([3, 1]))
        for fixed, free_idx, fixed_idx in (("nuisance", split.target_idx, split.nuisance_idx),
                                           ("target", split.nuisance_idx, split.target_idx)):
            held = quad.minimizer[fixed_idx] + rng.standard_normal(fixed_idx.size)
            f_ff = quad.curvature[np.ix_(free_idx, free_idx)]
            f_fh = quad.curvature[np.ix_(free_idx, fixed_idx)]
            expected = (quad.minimizer[free_idx]
                        - np.linalg.solve(f_ff, f_fh @ (held - quad.minimizer[fixed_idx])))
            sol = partial_minimize(quad, split, fixed, held, tol_grad=1e-12)
            assert sol.converged and sol.argmin.shape == (free_idx.size,)
            np.testing.assert_allclose(sol.argmin, expected, atol=1e-10)

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
        with pytest.raises(DimensionMismatch):
            partial_minimize(quad, BlockSplit.half(2), "nuisance", np.zeros(2))
        for held in (0.5, np.zeros((1, 1))):
            with pytest.raises(DimensionMismatch):
                partial_minimize(quad, BlockSplit.half(2), "nuisance", held)

    @pytest.mark.parametrize("fixed", ["target", "nuisance"])
    def test_non_finite_warm_start_or_fixed_values_refused(self, fixed):
        """Each of these ran all NEWTON_MAX_ITER iterations and reported no convergence."""
        f = _btl_instance(20, 3, seed=7)
        split = BlockSplit.half(20)
        held = np.full(10, 0.1)
        for bad in (np.nan, np.inf, -np.inf):
            start = np.zeros(10)
            start[3] = bad
            with pytest.raises(ValueError, match="finite"):
                partial_minimize(f, split, fixed, held, warm_start=start)
        held[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            partial_minimize(f, split, fixed, held)

    @pytest.mark.parametrize("length", [9, 11])
    def test_warm_start_of_another_length_refused(self, length):
        f = _btl_instance(20, 3, seed=7)
        for fixed in ("target", "nuisance"):
            with pytest.raises(DimensionMismatch, match="warm start"):
                partial_minimize(f, BlockSplit.half(20), fixed, np.zeros(10),
                                 warm_start=np.zeros(length))


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
        quad = QuadraticObjective(rng.standard_normal(4), random_spd(rng, 4))
        btl = _btl_instance(4, 5, seed=23)
        minimizers = [  # each objective with its minimizer from another route
            (quad, quad.minimizer),
            (LogisticSymmetric(3), np.zeros(3)),
            (btl, _mm_minimize(btl, np.zeros(4), tol_grad=1e-12).argmin),
        ]
        for obj, minimizer in minimizers:
            x0 = rng.uniform(-0.5, 0.5, obj.dim)
            a = newton_minimize(obj, x0, tol_grad=1e-11)
            assert a.converged
            assert np.abs(a.argmin - minimizer).max() <= 1e-9
        ridged = SeparablePerturbation(_btl_instance(5, 3, seed=24), ridge_spec(0.3))
        assert newton_minimize(ridged, rng.uniform(-0.5, 0.5, 5), tol_grad=1e-11).converged

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
