"""Smooth-objective evaluation contract, perturbation wrappers, and convex solvers.

Objectives are immutable evaluation contracts: ``value``, ``gradient``,
``hessian``, the directional third derivative, a bound on it
(``third_order_scale``), and ``evaluate`` on the whole vector or one block of
it.  A partial minimization is a Newton solve on one
block, the other held fixed.  The solvers (damped Newton here, and the BTL
minorize-maximize fit in ``btl``) report convergence as data, never as a
silent failure; the BTL likelihood can genuinely diverge and callers must
see it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, HessianNotPD, NotPositiveDefinite
from .numkit import Cholesky, check_symmetric, spd_solve

__all__ = [
    "BlockIndex",
    "SmoothObjective",
    "QuadraticObjective",
    "LinearPerturbation",
    "SeparableSpec",
    "SeparablePerturbation",
    "SolveReport",
    "ridge_spec",
    "newton_minimize",
    "partial_minimize",
]


@dataclass(frozen=True)
class BlockIndex:
    """A coordinate block ``idx`` of an objective, with any index data the objective keeps."""

    idx: np.ndarray


class SmoothObjective:
    """Evaluation contract for a three-times differentiable function.

    ``third_order_scale`` is a constant kappa with
    |D^3 f(x)[u, u, u]| <= kappa ||u||_inf D^2 f(x)[u, u] for every x and u,
    or None where none is known; ``newton_minimize`` certifies short steps
    with it.
    """

    dim: int
    third_order_scale: Optional[float] = None

    def value(self, x) -> float:
        raise NotImplementedError

    def gradient(self, x) -> np.ndarray:
        raise NotImplementedError

    def hessian(self, x) -> np.ndarray:
        raise NotImplementedError

    def hessian_diagonal(self, x) -> np.ndarray:
        """The Hessian's diagonal, a new array; objectives that can skip the n x n matrix
        override it."""
        return np.diag(self.hessian(x)).copy()

    def third_directional(self, x, a, b, c) -> float:
        """<third derivative tensor at x, a ⊗ b ⊗ c>."""
        raise NotImplementedError

    def block_index(self, idx) -> BlockIndex:
        """Index data for ``evaluate`` on the block ``idx``."""
        return BlockIndex(np.asarray(idx, dtype=int))

    def evaluate(self, x, block: Optional[BlockIndex] = None):
        """``(value, gradient, hessian)`` at ``x``: the gradient, and thunks that give the
        value and build the Hessian.

        With a ``block_index``, the gradient and the Hessian are the block's
        slices, and the value is the block's own terms: it may differ from
        ``value(x)`` by a constant that depends on the held coordinates only,
        which a minimization over the block never sees.  Newton steps
        evaluate every point once, run the Hessian thunk only where they need
        a step and the value thunk only where a line search tests one.  This
        default takes the full derivatives and slices them, and keeps the full
        value; objectives that can share work override it.  Its Hessian thunk
        checks the Hessian with ``check_symmetric``, since ``spd_solve`` reads
        one triangle; an override returns a symmetric matrix itself.  Each
        call of the Hessian thunk returns a new matrix that nothing else
        holds: Newton factors it in place.  It may instead return the
        Hessian's ``Cholesky`` factor, which Newton solves with as it is.
        """
        grad = self.gradient(x)
        if block is None:
            return (lambda: self.value(x)), grad, lambda: _owned_symmetric(self.hessian(x))
        idx = block.idx
        return ((lambda: self.value(x)), grad[idx],
                lambda: check_symmetric(self.hessian(x)[np.ix_(idx, idx)]))


def _owned_symmetric(h) -> np.ndarray:
    """``check_symmetric(h)`` as a matrix nothing else holds: ``h`` may be one its
    objective keeps, and Newton factors the thunk's matrix in place."""
    checked = check_symmetric(h)
    return checked.copy() if checked is h else checked


class QuadraticObjective(SmoothObjective):
    """f(x) = 0.5 (x - x*)' F (x - x*) with positive definite curvature F."""

    third_order_scale = 0.0

    def __init__(self, minimizer, curvature):
        self.minimizer = np.asarray(minimizer, dtype=float)
        # a copy of its own: the caller may write into the matrix it passed
        self.curvature = check_symmetric(np.array(curvature, dtype=float))
        if self.curvature.shape[0] != self.minimizer.shape[0]:
            raise DimensionMismatch("curvature and minimizer dimensions differ")
        Cholesky(self.curvature)  # fail fast on indefinite curvature
        self.dim = self.minimizer.shape[0]

    def value(self, x):
        d = np.asarray(x, dtype=float) - self.minimizer
        return 0.5 * float(d @ self.curvature @ d)

    def gradient(self, x):
        d = np.asarray(x, dtype=float) - self.minimizer
        return self.curvature @ d

    def hessian(self, x):
        return self.curvature.copy()

    def third_directional(self, x, a, b, c):
        return 0.0


class LinearPerturbation(SmoothObjective):
    """g(x) = f(x) + <a, x>: gradient shifts by a, higher derivatives unchanged."""

    def __init__(self, base: SmoothObjective, a):
        a = np.asarray(a, dtype=float)
        if a.shape[0] != base.dim:
            raise DimensionMismatch(f"perturbation length {a.shape[0]} != dim {base.dim}")
        self.base = base
        self.a = a
        self.dim = base.dim

    @property
    def third_order_scale(self):
        return self.base.third_order_scale

    def value(self, x):
        return self.base.value(x) + float(self.a @ np.asarray(x, dtype=float))

    def gradient(self, x):
        return self.base.gradient(x) + self.a

    def hessian(self, x):
        return self.base.hessian(x)

    def third_directional(self, x, a, b, c):
        return self.base.third_directional(x, a, b, c)

    def block_index(self, idx):
        return self.base.block_index(idx)

    def evaluate(self, x, block=None):
        return self.shifted(x, self.base.evaluate(x, block), block)

    def shifted(self, x, evaluation, block: Optional[BlockIndex] = None):
        """g's ``evaluate(x, block)`` from ``evaluation``, the base's: the value thunk adds
        <a, x>, the gradient the block's slice of a, and the Hessian thunk is the base's."""
        value, grad, hessian = evaluation
        a = self.a if block is None else self.a[block.idx]

        def shifted_value() -> float:
            return value() + float(self.a @ np.asarray(x, dtype=float))

        return shifted_value, grad + a, hessian


@dataclass(frozen=True)
class SeparableSpec:
    """Coordinate-wise smooth perturbation t(x) = sum_j t_j(x_j).

    The four callables evaluate t_j and its first three derivatives
    elementwise on a vector.
    """

    t: Callable[[np.ndarray], np.ndarray]
    t1: Callable[[np.ndarray], np.ndarray]
    t2: Callable[[np.ndarray], np.ndarray]
    t3: Callable[[np.ndarray], np.ndarray]


def ridge_spec(lam: float) -> SeparableSpec:
    """Quadratic per-coordinate penalty t_j(x) = lam * x^2 / 2."""
    return SeparableSpec(
        t=lambda v: 0.5 * lam * v**2,
        t1=lambda v: lam * v,
        t2=lambda v: np.full_like(np.asarray(v, dtype=float), lam),
        t3=lambda v: np.zeros_like(np.asarray(v, dtype=float)),
    )


class SeparablePerturbation(SmoothObjective):
    """g(x) = f(x) + sum_j t_j(x_j): cross derivatives of g equal those of f."""

    def __init__(self, base: SmoothObjective, spec: SeparableSpec):
        self.base = base
        self.spec = spec
        self.dim = base.dim

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.base.value(x) + float(np.sum(self.spec.t(x)))

    def gradient(self, x):
        x = np.asarray(x, dtype=float)
        return self.base.gradient(x) + self.spec.t1(x)

    def hessian(self, x):
        x = np.asarray(x, dtype=float)
        h = self.base.hessian(x).copy()
        h[np.diag_indices_from(h)] += self.spec.t2(x)
        return h

    def third_directional(self, x, a, b, c):
        x = np.asarray(x, dtype=float)
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        c = np.asarray(c, dtype=float)
        extra = float(np.sum(self.spec.t3(x) * a * b * c))
        return self.base.third_directional(x, a, b, c) + extra


@dataclass
class SolveReport:
    """Outcome of a minimization: argmin, effort, and an honest convergence flag.

    A Newton solve also keeps ``gradient``, the gradient of the ``evaluate``
    call at its last point, so a caller need not evaluate there again; on a
    block it is the block's gradient, and ``partial_minimize`` cuts
    ``argmin`` to the free block.  No solver keeps the value there: Newton
    forms it only for a line search.  Other solvers leave ``gradient`` None.
    """

    argmin: np.ndarray
    iterations: int
    final_grad_supnorm: float
    converged: bool
    note: str = ""
    gradient: Optional[np.ndarray] = field(default=None, repr=False, compare=False)


# the Armijo test's allowance for rounding, per unit of 1 + |f(x)|
_ROUNDING_SLACK = 64.0 * np.finfo(float).eps


def _moved(x, t: float, step, block: Optional[BlockIndex]) -> np.ndarray:
    """``x - t * step``; with a block, ``step`` moves the block's coordinates only."""
    if t != 1.0:  # a full step skips the product, whose bits would be step's own
        step = t * step
    if block is None:
        return x - step
    moved = x.copy()
    moved[block.idx] -= step
    return moved


def _newton_step(hessian, grad) -> np.ndarray:
    """H^-1 grad from a thunk's Hessian or its ``Cholesky`` factor.  Each thunk call
    builds a new matrix, so the solve factors it in place."""
    if isinstance(hessian, Cholesky):
        return hessian.solve(grad)
    return spd_solve(hessian, grad, overwrite_a=True)


def newton_minimize(
    f: SmoothObjective,
    x0,
    tol_grad: float = tol.SOLVER_GRAD_TOL,
    max_iter: int = tol.NEWTON_MAX_ITER,
    block: Optional[BlockIndex] = None,
    *,
    start=None,
) -> SolveReport:
    """Damped Newton with fixed backtracking (step halving, Armijo 1e-4).

    With a ``block_index`` of ``f``, only the block's coordinates of ``x0``
    move.  Each point takes one ``evaluate`` call: the line search's accepted
    evaluation is the next iterate's, and the Hessian is built only at
    iterates that fail the gradient test, so a solve builds ``iterations``
    Hessians.  ``start``, when given, is the caller's ``f.evaluate(x0,
    block)``, and ``f`` is then never evaluated at ``x0``; its Hessian thunk
    must give the Hessian at ``x0``, which the step certificate below
    assumes, or its ``Cholesky`` factor, which the first step solves with
    instead of factoring.

    A full step s is taken without the value test when kappa ||s||_inf <= 1,
    kappa being ``f.third_order_scale``.  Along h(t) = f(x - t s),
    |h'''| <= M h'' with M = kappa ||s||_inf, so h''(t) <= h''(0) e^(M t);
    integrating twice, with s'Hs = g's, f(x - s) <= f(x) - (1 - psi(M)) g's
    where psi(M) = (e^M - 1 - M) / M^2 <= psi(1) = e - 2.  So the step lowers
    f by at least (3 - e) g's ~ 0.28 g's, far beyond the Armijo test's
    1e-4 g's (the generalized self-concordance of Bach 2010, "Self-concordant
    analysis for logistic regression"; the damped-Newton argument of Boyd &
    Vandenberghe, "Convex Optimization", 9.6).  Every other step runs the
    Armijo test, with an allowance for rounding, and halves the step until
    it passes: only there are the value thunks run.

    Converged means the gradient sup-norm fell to ``tol_grad``.  A
    non-positive-definite Hessian at an iterate raises HessianNotPD; running
    out of iterations returns a report with ``converged=False``.  A start
    with a non-finite entry raises ValueError before any evaluation.
    """
    x = np.asarray(x0, dtype=float).copy()
    if not np.isfinite(x).all():
        raise ValueError("the Newton start must be finite")
    value, grad, hessian = f.evaluate(x, block) if start is None else start
    fx = None  # value(), once a line search has asked for it
    kappa = f.third_order_scale
    gnorm = float(np.abs(grad).max())
    iterations = 0
    note = ""
    for it in range(1, max_iter + 1):
        if gnorm <= tol_grad:
            break
        try:
            step = _newton_step(hessian(), grad)
        except NotPositiveDefinite as exc:
            raise HessianNotPD(it, f"iterate {it}: {exc}") from exc
        if kappa is not None and kappa * np.abs(step).max() <= 1.0:  # a certified decrease
            trial = f.evaluate(moved := _moved(x, 1.0, step, block), block)
            f_moved = None
        else:
            if fx is None:
                fx = value()
            slope = float(grad @ step)  # >= 0 for an SPD Hessian
            # the required decrease can fall below float resolution near the optimum
            noise = _ROUNDING_SLACK * (1.0 + abs(fx))
            t = 1.0
            while (f_moved := (trial := f.evaluate(moved := _moved(x, t, step, block),
                                                   block))[0]()) > (
                fx - tol.ARMIJO_C * t * slope + noise
            ):
                t *= tol.BACKTRACK_FACTOR
                if t < 1e-16:
                    note = "backtracking stalled"
                    break
            if note:
                break
        x = moved
        value, grad, hessian = trial
        fx = f_moved
        iterations = it
        gnorm = float(np.abs(grad).max())
    converged = gnorm <= tol_grad
    return SolveReport(argmin=x, iterations=iterations, final_grad_supnorm=gnorm,
                       converged=converged,
                       note="" if converged else note or "iteration cap reached",
                       gradient=grad)


def partial_minimize(
    f: SmoothObjective,
    x0,
    free_idx,
    tol_grad: float = tol.SOLVER_GRAD_TOL,
    max_iter: int = tol.NEWTON_MAX_ITER,
) -> SolveReport:
    """Minimize over the coordinates ``free_idx`` of ``x0``, the others held fixed.

    The solve is ``newton_minimize`` on the block ``f.block_index(free_idx)``,
    started at ``x0``; the report's argmin is the free-block vector.  An
    ``x0`` whose length is not ``f.dim`` raises DimensionMismatch.
    """
    if np.shape(x0) != (f.dim,):
        raise DimensionMismatch(f"start has shape {np.shape(x0)}, the objective {f.dim}")
    report = newton_minimize(f, x0, tol_grad=tol_grad, max_iter=max_iter,
                             block=f.block_index(free_idx))
    report.argmin = report.argmin[free_idx]
    return report
