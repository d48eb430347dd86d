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
from perturbopt.errors import DimensionMismatch, HessianNotPD, NotPositiveDefinite
from perturbopt.numkit import BlockSplit, Cholesky, finite_diff_check, spd_solve
from perturbopt.objective import (
    _ROUNDING_SLACK,
    LinearPerturbation,
    QuadraticObjective,
    SeparablePerturbation,
    SmoothObjective,
    _moved,
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


class _CliffOffStart(SmoothObjective):
    """x.x at the start ones(3) and x.x + 10 everywhere else: no trial point is accepted.
    It has no third-order scale, so every step is tested; ``values`` counts the values
    formed."""

    dim = 3

    def __init__(self):
        self.values = 0

    def value(self, x):
        self.values += 1
        return float(x @ x) + (0.0 if np.array_equal(x, np.ones(3)) else 10.0)

    def gradient(self, x):
        return 2.0 * x

    def hessian(self, x):
        return 2.0 * np.eye(3)


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

    @pytest.mark.parametrize("max_iter", [0, 1, tol.NEWTON_MAX_ITER])
    @pytest.mark.parametrize("make", [lambda: LogisticSymmetric(4),
                                      lambda: _btl_instance(12, 3, 5)],
                             ids=["default_evaluate", "btl"])
    def test_report_keeps_the_evaluation_at_argmin(self, make, max_iter):
        f = make()
        sol = newton_minimize(f, np.linspace(-1.0, 2.0, f.dim), tol_grad=1e-12,
                              max_iter=max_iter)
        assert sol.gradient.tobytes() == f.evaluate(sol.argmin)[1].tobytes()

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

    def test_given_start_is_not_evaluated_again(self):
        """``start`` is the caller's evaluation at x0: f is evaluated only where Newton moves,
        and the solve is the one that evaluates x0 itself."""
        f = _btl_instance(12, 2, seed=3)
        x0 = np.linspace(-0.5, 0.5, 12)
        evaluate = f.evaluate
        for block in (None, f.block_index(np.arange(6))):
            start = evaluate(x0, block)
            points = []
            f.evaluate = lambda x, block=None: points.append(x.tobytes()) or evaluate(x, block)
            rep = newton_minimize(f, x0, tol_grad=1e-12, block=block, start=start)
            assert rep.converged and rep.iterations >= 3
            assert len(points) >= rep.iterations and x0.tobytes() not in points
            own = newton_minimize(f, x0, tol_grad=1e-12, block=block)
            assert rep.argmin.tobytes() == own.argmin.tobytes()

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
        split = BlockSplit.half(12)
        rep = partial_minimize(f, split.embed(np.full(6, 0.3), np.zeros(6)), split.nuisance_idx,
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

    def test_stalled_line_search_keeps_the_start(self):
        """The line search forms the start's value once and one value per trial: 54 halvings
        from t = 1 before t falls below 1e-16."""
        f = _CliffOffStart()
        sol = newton_minimize(f, np.ones(3))
        assert not sol.converged and sol.note == "backtracking stalled"
        assert sol.iterations == 0 and sol.argmin.tobytes() == np.ones(3).tobytes()
        assert f.values == 1 + 54

    def test_start_thunk_may_give_the_factor(self):
        """A start thunk's Cholesky factor of the Hessian at x0 is solved with as the matrix
        would be: the same trials and iterates, and the iteration count includes its step.
        From this far start that step is too long to certify and fails the Armijo test,
        so it backtracks on values."""
        f = _btl_instance(12, 2, seed=3)
        x0 = np.linspace(-3.0, 3.0, 12)
        value, grad, hessian = f.evaluate(x0)
        h = hessian()
        step = Cholesky(h).solve(grad)
        assert f.third_order_scale * np.abs(step).max() > 1.0
        trials = []
        evaluate = f.evaluate
        f.evaluate = lambda x, block=None: trials.append(x.tobytes()) or evaluate(x, block)
        reports = []
        for first in (lambda: h.copy(), lambda: Cholesky(h)):
            trials.clear()
            reports.append(newton_minimize(f, x0, tol_grad=1e-12,
                                           start=(value, grad, first)))
            reports.append(list(trials))
        (matrix, matrix_trials), (factor, factor_trials) = reports[0:2], reports[2:4]
        assert factor.converged and factor.iterations == matrix.iterations >= 3
        assert factor.argmin.tobytes() == matrix.argmin.tobytes()
        assert factor_trials == matrix_trials
        assert matrix_trials[0] == (x0 - step).tobytes()
        assert (x0 - tol.BACKTRACK_FACTOR * step).tobytes() in factor_trials

    def test_kept_hessian_not_factored_in_place(self):
        """The default evaluate's thunk hands Newton a matrix of its own, even when the
        objective returns one it keeps."""
        kept = random_spd(np.random.default_rng(4), 5)
        before = kept.tobytes()

        class Kept(QuadraticObjective):
            def hessian(self, x):
                return kept

        f = Kept(np.arange(5.0), kept)
        sol = newton_minimize(f, np.zeros(5), tol_grad=1e-12)
        assert sol.converged and sol.iterations >= 1
        assert kept.tobytes() == before


class TestQuadraticObjective:
    def test_curvature_is_a_copy(self):
        rng = np.random.default_rng(8)
        curvature = random_spd(rng, 4)
        quad = QuadraticObjective(np.zeros(4), curvature)
        before = quad.curvature.tobytes()
        curvature[0, 0] += 1.0
        curvature[1, 2] = curvature[2, 1] = 0.0
        assert quad.curvature.tobytes() == before


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
            partial_minimize(f, np.zeros(5), BlockSplit.half(5).target_idx)

    @pytest.mark.parametrize("wrap", _WRAPS.values(), ids=_WRAPS.keys())
    def test_hessian_within_tolerance_is_symmetrized(self, wrap):
        skew = 0.25 * tol.SYMMETRY_RTOL  # entries are above 1, so within the tolerance
        skewed, symmetric = wrap(_SkewedHessian(skew)), wrap(_SkewedHessian(skew, True))
        split = BlockSplit.half(5)
        held = split.embed(np.zeros(3), np.full(2, 0.1))
        for solve in (lambda f: newton_minimize(f, np.zeros(5), tol_grad=1e-12),
                      lambda f: partial_minimize(f, held, split.target_idx, tol_grad=1e-12)):
            got, want = solve(skewed), solve(symmetric)
            assert got.converged and got.iterations == want.iterations >= 3
            assert got.argmin.tobytes() == want.argmin.tobytes()


def _penalized_instance(n, kind, seed):
    """A seeded ER design at p=0.5 with three games per pair, its truth, and its
    objective under the penalty ``kind``."""
    rng = np.random.default_rng(seed)
    graph = sample_er_graph(n, 0.5, 3, rng)
    truth = rng.uniform(-1.5, 1.5, n)
    penalty = PenaltySpec.none() if kind == "none" else PenaltySpec(kind, 2.0)
    return btl_objective(sample_outcomes(graph, truth, rng), penalty), truth


def _values_formed(f) -> list:
    """Spy on ``f.evaluate``: the points whose value thunk runs, in order."""
    formed = []
    evaluate = f.evaluate

    def spy(x, block=None):
        value, grad, hessian = evaluate(x, block)
        return (lambda: formed.append(x.tobytes()) or value()), grad, hessian

    f.evaluate = spy
    return formed


class TestStepCertificate:
    """A full step s with kappa ||s||_inf <= 1 is taken without forming a value."""

    def test_third_order_scales(self):
        """BTL's kappa = 2 bounds its third derivative along any direction, penalty or
        not; a quadratic's is 0, a linear perturbation keeps its base's, and an objective
        that states none has none."""
        rng = np.random.default_rng(30)
        quad = QuadraticObjective(np.zeros(3), random_spd(rng, 3))
        assert quad.third_order_scale == 0.0
        assert LinearPerturbation(quad, np.ones(3)).third_order_scale == 0.0
        for kind in ("none", "mean_shift", "ridge"):
            f, _ = _penalized_instance(8, kind, seed=31)
            assert f.third_order_scale == 2.0
            assert LinearPerturbation(f, np.ones(8)).third_order_scale == 2.0
            assert SeparablePerturbation(f, ridge_spec(0.1)).third_order_scale is None
            for _ in range(50):
                x, u = 3.0 * rng.standard_normal((2, 8))
                third = f.third_directional(x, u, u, u)
                assert abs(third) <= 2.0 * np.abs(u).max() * (u @ f.hessian(x) @ u) * (1 + 1e-12)
        assert LogisticSymmetric(3).third_order_scale is None

    @pytest.mark.parametrize("kind", ["none", "mean_shift", "ridge"])
    def test_certified_steps_lower_the_value(self, kind):
        """At every point of whole and block solves over seeded instances, from starts near
        the truth and N(0, 3^2) ones, a step with kappa ||s||_inf <= 1 lowers the computed
        value by at least (3 - e) g's, less the Armijo test's rounding allowance.  Without
        a penalty the whole Hessian is singular along shifts: block solves only."""
        certified = 0
        for seed in range(10):
            n = 8 + 4 * seed
            f, truth = _penalized_instance(n, kind, seed)
            rng = np.random.default_rng(seed + 100)
            blocks = [f.block_index(np.arange(0, n, 2)), f.block_index(np.arange(n // 3))]
            for block in blocks + ([] if kind == "none" else [None]):
                for x0 in (truth + 0.1 * rng.standard_normal(n), 3.0 * rng.standard_normal(n)):
                    points = []
                    evaluate = f.evaluate
                    f.evaluate = lambda x, block=None: points.append(x) or evaluate(x, block)
                    try:
                        newton_minimize(f, x0, tol_grad=1e-12, block=block)
                    except HessianNotPD:
                        pass
                    del f.evaluate
                    for x in points:
                        value, grad, hessian = f.evaluate(x, block)
                        try:
                            step = spd_solve(hessian(), grad)
                        except NotPositiveDefinite:
                            continue
                        if f.third_order_scale * np.abs(step).max() > 1.0:
                            continue
                        certified += 1
                        fx = value()
                        moved = f.evaluate(_moved(x, 1.0, step, block), block)[0]()
                        allowance = _ROUNDING_SLACK * (1.0 + abs(fx))
                        assert fx - moved >= (3.0 - np.e) * float(grad @ step) - allowance
        assert certified >= 150

    def test_certified_steps_form_no_value(self):
        """A quadratic's one step and a BTL solve near its minimizer, whole or on a block,
        run no value thunk; the BTL solves take several steps."""
        rng = np.random.default_rng(32)
        quad = QuadraticObjective(rng.standard_normal(5), random_spd(rng, 5))
        formed = _values_formed(quad)
        assert newton_minimize(quad, rng.standard_normal(5), tol_grad=1e-12).converged
        f = _btl_instance(12, 3, seed=5)
        near = newton_minimize(f, np.zeros(12), tol_grad=1e-12).argmin
        formed += _values_formed(f)
        for block in (None, f.block_index(np.arange(6))):
            rep = newton_minimize(f, near + 0.1 * rng.standard_normal(12), tol_grad=1e-12,
                                  block=block)
            assert rep.converged and rep.iterations >= 2
        assert formed == []

    def test_uncertified_step_backtracks_on_values(self):
        """From a far start the first step is too long to certify and fails the Armijo
        test: values are formed at the start and at each trial, and the step is halved.  Once
        the steps are short, no more values are formed."""
        f = _btl_instance(12, 2, seed=3)
        x0 = np.linspace(-3.0, 3.0, 12)
        step = spd_solve(f.hessian(x0), f.gradient(x0))
        assert f.third_order_scale * np.abs(step).max() > 1.0
        formed = _values_formed(f)
        rep = newton_minimize(f, x0, tol_grad=1e-12)
        assert rep.converged
        assert formed[:3] == [x0.tobytes(), (x0 - step).tobytes(),
                              (x0 - tol.BACKTRACK_FACTOR * step).tobytes()]
        assert f.value(x0 - step) > f.value(x0)
        assert rep.argmin.tobytes() not in formed


class TestPartialMinimize:
    @pytest.mark.parametrize("fixed", ["nuisance", "target"])
    def test_report_keeps_the_block_evaluation_at_argmin(self, fixed):
        f = _btl_instance(12, 3, 5)
        split = BlockSplit.half(12)
        held_idx, free_idx = ((split.nuisance_idx, split.target_idx) if fixed == "nuisance"
                              else (split.target_idx, split.nuisance_idx))
        x0 = np.zeros(12)
        x0[held_idx] = np.linspace(-0.5, 0.5, held_idx.size)
        sol = partial_minimize(f, x0, free_idx, tol_grad=1e-12)
        x = x0.copy()
        x[free_idx] = sol.argmin
        assert sol.gradient.tobytes() == f.evaluate(x, f.block_index(free_idx))[1].tobytes()

    def test_quadratic_closed_form(self):
        quad = QuadraticObjective(np.zeros(2), np.array([[2.0, 1.0], [1.0, 2.0]]))
        sol = partial_minimize(quad, np.array([0.0, 0.4]), np.array([0]))
        assert sol.argmin.shape == (1,) and sol.argmin[0] == pytest.approx(-0.2, abs=1e-12)

    def test_quadratic_block_solution(self):
        """The free block is theta* - F_tt^-1 F_tn (nu - nu*), and likewise the nuisance."""
        rng = np.random.default_rng(11)
        quad = QuadraticObjective(rng.standard_normal(5), random_spd(rng, 5))
        split = BlockSplit(np.array([0, 2, 4]), np.array([3, 1]))
        for free_idx, fixed_idx in ((split.target_idx, split.nuisance_idx),
                                    (split.nuisance_idx, split.target_idx)):
            held = quad.minimizer[fixed_idx] + rng.standard_normal(fixed_idx.size)
            x0 = np.zeros(5)
            x0[fixed_idx] = held
            f_ff = quad.curvature[np.ix_(free_idx, free_idx)]
            f_fh = quad.curvature[np.ix_(free_idx, fixed_idx)]
            expected = (quad.minimizer[free_idx]
                        - np.linalg.solve(f_ff, f_fh @ (held - quad.minimizer[fixed_idx])))
            sol = partial_minimize(quad, x0, free_idx, tol_grad=1e-12)
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
            partial_minimize(quad, split.embed(np.zeros(2), quad.minimizer[2:] + off),
                             split.target_idx).argmin
            for off in (np.zeros(2), np.array([1.0, -2.0]), np.array([-3.0, 0.5]))
        ]
        for sol in sols[1:]:
            np.testing.assert_allclose(sol, sols[0], atol=1e-10)

    def test_btl_against_grid_refinement_oracle(self):
        obj = _btl_instance(4, 50, seed=15)
        split = BlockSplit.half(4)
        joint = newton_minimize(obj, np.zeros(4), tol_grad=1e-13)
        nui = joint.argmin[split.nuisance_idx] + np.array([0.2, -0.1])
        sol = partial_minimize(obj, split.embed(np.zeros(2), nui), split.target_idx,
                               tol_grad=1e-12)

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

    @pytest.mark.parametrize("fixed", ["target", "nuisance"])
    def test_non_finite_warm_start_or_fixed_values_refused(self, fixed):
        """A non-finite entry of the start, in the free block or the held one, is refused
        before any evaluation; each ran all NEWTON_MAX_ITER iterations unconverged once."""
        f = _btl_instance(20, 3, seed=7)
        split = BlockSplit.half(20)
        free_idx, held_idx = ((split.nuisance_idx, split.target_idx) if fixed == "target"
                              else (split.target_idx, split.nuisance_idx))
        evaluated = []
        evaluate = f.evaluate
        f.evaluate = lambda x, block=None: evaluated.append(x) or evaluate(x, block)
        for where in (free_idx, held_idx):
            for bad in (np.nan, np.inf, -np.inf):
                x0 = np.full(20, 0.1)
                x0[where[3]] = bad
                with pytest.raises(ValueError, match="finite"):
                    partial_minimize(f, x0, free_idx)
        assert evaluated == []

    @pytest.mark.parametrize("length", [9, 11])
    def test_warm_start_of_another_length_refused(self, length):
        """The start, the free block's warm start embedded with the held values, must have
        the objective's length; a scalar or a 2-D start is refused too."""
        f = _btl_instance(10, 3, seed=7)
        free_idx = BlockSplit.half(10).target_idx
        for x0 in (np.zeros(length), 0.5, np.zeros((1, 10))):
            with pytest.raises(DimensionMismatch, match="start has shape"):
                partial_minimize(f, x0, free_idx)

    def test_stalled_line_search_keeps_the_start(self):
        f = _CliffOffStart()
        sol = partial_minimize(f, np.ones(3), np.array([0, 2]))
        assert not sol.converged and sol.note == "backtracking stalled"
        assert sol.iterations == 0 and sol.argmin.tobytes() == np.ones(2).tobytes()
        assert f.values == 1 + 54


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
            (btl, _mm_minimize(btl, tol_grad=1e-12).argmin),
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
