"""Smooth-objective evaluation contract, perturbation wrappers, and convex solvers.

Objectives are immutable evaluation contracts: ``value``, ``gradient``,
``hessian``, the directional third derivative, and ``evaluate`` on the whole
vector or one block of it.  A partial minimization is a Newton solve on one
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
    """Evaluation contract for a three-times differentiable function."""

    dim: int

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
        """Value, gradient and a thunk that builds the Hessian, at ``x``.

        With a ``block_index``, the gradient and the Hessian are the block's
        slices, and the value is the block's own terms: it may differ from
        ``value(x)`` by a constant that depends on the held coordinates only,
        which a minimization over the block never sees.  Newton steps
        evaluate every point once and run the thunk only where they need a
        step.  This default takes the full derivatives and slices them, and
        keeps the full value; objectives that can share work override it.  Its
        thunk checks the Hessian with ``check_symmetric``, since ``spd_solve``
        reads one triangle; an override returns a symmetric matrix itself.
        Each call of the thunk returns a new matrix that nothing else holds:
        Newton factors it in place.  A thunk may instead return the Hessian's
        ``Cholesky`` factor, which Newton solves with as it is.
        """
        grad = self.gradient(x)
        if block is None:
            return self.value(x), grad, lambda: _owned_symmetric(self.hessian(x))
        idx = block.idx
        return (self.value(x), grad[idx],
                lambda: check_symmetric(self.hessian(x)[np.ix_(idx, idx)]))


def _owned_symmetric(h) -> np.ndarray:
    """``check_symmetric(h)`` as a matrix nothing else holds: ``h`` may be one its
    objective keeps, and Newton factors the thunk's matrix in place."""
    checked = check_symmetric(h)
    return checked.copy() if checked is h else checked


class QuadraticObjective(SmoothObjective):
    """f(x) = 0.5 (x - x*)' F (x - x*) with positive definite curvature F."""

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
        value, grad, hessian = self.base.evaluate(x, block)
        shift = self.a if block is None else self.a[block.idx]
        return value + float(self.a @ np.asarray(x, dtype=float)), grad + shift, hessian


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

    A Newton solve also keeps ``value`` and ``gradient``, the first two parts
    of the ``evaluate`` call at its last point, so a caller need not evaluate
    there again.  On a block they are the block's value and gradient, and
    ``partial_minimize`` cuts ``argmin`` to the free block.  Other solvers
    leave them None.
    """

    argmin: np.ndarray
    iterations: int
    final_grad_supnorm: float
    converged: bool
    note: str = ""
    value: Optional[float] = field(default=None, repr=False, compare=False)
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
    block)``, and ``f`` is then never evaluated at ``x0``; its thunk may
    return the Hessian's ``Cholesky`` factor, which the first step solves
    with instead of factoring.  Converged means the gradient sup-norm fell to
    ``tol_grad``.  A non-positive-definite Hessian at an iterate raises
    HessianNotPD; running out of iterations returns a report with
    ``converged=False``.  A start with a non-finite entry raises ValueError
    before any evaluation.
    """
    x = np.asarray(x0, dtype=float).copy()
    if not np.isfinite(x).all():
        raise ValueError("the Newton start must be finite")
    fx, grad, hessian = f.evaluate(x, block) if start is None else start
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
        slope = float(grad @ step)  # >= 0 for an SPD Hessian
        # the required decrease can fall below float resolution near the optimum
        noise = _ROUNDING_SLACK * (1.0 + abs(fx))
        t = 1.0
        while (trial := f.evaluate(moved := _moved(x, t, step, block), block))[0] > (
            fx - tol.ARMIJO_C * t * slope + noise
        ):
            t *= tol.BACKTRACK_FACTOR
            if t < 1e-16:
                note = "backtracking stalled"
                break
        if note:
            break
        x = moved
        fx, grad, hessian = trial
        iterations = it
        gnorm = float(np.abs(grad).max())
    converged = gnorm <= tol_grad
    return SolveReport(argmin=x, iterations=iterations, final_grad_supnorm=gnorm,
                       converged=converged,
                       note="" if converged else note or "iteration cap reached",
                       value=fx, gradient=grad)


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
