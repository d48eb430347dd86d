"""Smooth-objective evaluation contract, perturbation wrappers, and convex solvers.

Objectives are immutable evaluation contracts: ``value``, ``gradient``,
``hessian`` and the directional third derivative.  The solvers (damped
Newton here, and the BTL minorize-maximize fit in ``btl``) report convergence
as data, never as a silent failure; the BTL likelihood can genuinely diverge
and callers must see it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, HessianNotPD, NotPositiveDefinite
from .numkit import BlockSplit, check_symmetric, spd_solve

__all__ = [
    "BlockIndex",
    "SmoothObjective",
    "QuadraticObjective",
    "LinearPerturbation",
    "SeparableSpec",
    "SeparablePerturbation",
    "RestrictedObjective",
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

    def third_directional(self, x, a, b, c) -> float:
        """<third derivative tensor at x, a ⊗ b ⊗ c>."""
        raise NotImplementedError

    def block_index(self, idx) -> BlockIndex:
        """Index data for ``evaluate`` on the block ``idx``."""
        return BlockIndex(np.asarray(idx, dtype=int))

    def evaluate(self, x, block: Optional[BlockIndex] = None):
        """Value, gradient and a thunk that builds the Hessian, at ``x``.

        With a ``block_index``, the gradient and the Hessian are the block's
        slices, and the value may leave out ``held_value``, a term that does
        not depend on the block's coordinates.  Newton steps evaluate every
        point once and run the thunk only where they need a step.  This
        default takes the full derivatives and slices them; objectives that
        can share work override it.
        """
        grad = self.gradient(x)
        if block is None:
            return self.value(x), grad, lambda: self.hessian(x)
        idx = block.idx
        return self.value(x), grad[idx], lambda: self.hessian(x)[np.ix_(idx, idx)]

    def held_value(self, x, block: BlockIndex) -> float:
        """The term of ``value(x)`` that ``evaluate(x, block)`` leaves out (none here)."""
        return 0.0


class QuadraticObjective(SmoothObjective):
    """f(x) = 0.5 (x - x*)' F (x - x*) with positive definite curvature F."""

    def __init__(self, minimizer, curvature):
        self.minimizer = np.asarray(minimizer, dtype=float)
        self.curvature = check_symmetric(curvature)
        if self.curvature.shape[0] != self.minimizer.shape[0]:
            raise DimensionMismatch("curvature and minimizer dimensions differ")
        # fail fast on indefinite curvature
        spd_solve(self.curvature, np.zeros(self.minimizer.shape[0]))
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

    def held_value(self, x, block):
        return self.base.held_value(x, block)


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


class RestrictedObjective(SmoothObjective):
    """A smooth objective restricted to one block, the other held fixed."""

    def __init__(self, base: SmoothObjective, free_idx, fixed_idx, fixed_values):
        self.base = base
        self.free_idx = np.asarray(free_idx, dtype=int)
        self.fixed_idx = np.asarray(fixed_idx, dtype=int)
        self.fixed_values = np.asarray(fixed_values, dtype=float)
        if self.fixed_values.shape[0] != self.fixed_idx.shape[0]:
            raise DimensionMismatch("fixed values do not match fixed index count")
        self.dim = self.free_idx.shape[0]
        self._free_block = base.block_index(self.free_idx)
        # what the base's block evaluations leave out depends on the held values only
        self._held = base.held_value(self.embed(np.zeros(self.dim)), self._free_block)

    def embed(self, z) -> np.ndarray:
        x = np.empty(self.base.dim)
        x[self.free_idx] = z
        x[self.fixed_idx] = self.fixed_values
        return x

    def _embed_dir(self, d) -> np.ndarray:
        v = np.zeros(self.base.dim)
        v[self.free_idx] = d
        return v

    def value(self, z):
        return self.base.value(self.embed(z))

    def gradient(self, z):
        return self.base.gradient(self.embed(z))[self.free_idx]

    def hessian(self, z):
        return self.base.evaluate(self.embed(z), self._free_block)[2]()

    def third_directional(self, z, a, b, c):
        return self.base.third_directional(
            self.embed(z), self._embed_dir(a), self._embed_dir(b), self._embed_dir(c)
        )

    def evaluate(self, z, block=None):
        if block is not None:
            return super().evaluate(z, block)
        value, grad, hessian = self.base.evaluate(self.embed(z), self._free_block)
        return value + self._held, grad, hessian


@dataclass
class SolveReport:
    """Outcome of a minimization: argmin, effort, and an honest convergence flag."""

    argmin: np.ndarray
    iterations: int
    final_grad_supnorm: float
    converged: bool
    trajectory: Optional[list] = None
    note: str = ""


def newton_minimize(
    f: SmoothObjective,
    x0,
    tol_grad: float = tol.SOLVER_GRAD_TOL,
    max_iter: int = tol.NEWTON_MAX_ITER,
    record_trajectory: bool = False,
) -> SolveReport:
    """Damped Newton with fixed backtracking (step halving, Armijo 1e-4).

    Each point takes one ``evaluate`` call: the line search's accepted
    evaluation is the next iterate's, and the Hessian is built only at
    iterates that fail the gradient test, so a solve builds ``iterations``
    Hessians.  Converged means the gradient sup-norm fell to ``tol_grad``.  A
    non-positive-definite Hessian at an iterate raises HessianNotPD; running
    out of iterations returns a report with ``converged=False``.
    """
    x = np.asarray(x0, dtype=float).copy()
    traj = [x.copy()] if record_trajectory else None
    fx, grad, hessian = f.evaluate(x)
    gnorm = float(np.abs(grad).max())
    iterations = 0
    note = ""
    for it in range(1, max_iter + 1):
        if gnorm <= tol_grad:
            break
        try:
            step = spd_solve(hessian(), grad)
        except NotPositiveDefinite as exc:
            raise HessianNotPD(it, f"iterate {it}: {exc}") from exc
        slope = float(grad @ step)  # >= 0 for an SPD Hessian
        # the required decrease can fall below float resolution near the optimum
        noise = 64.0 * np.finfo(float).eps * (1.0 + abs(fx))
        t = 1.0
        while (trial := f.evaluate(x - t * step))[0] > fx - tol.ARMIJO_C * t * slope + noise:
            t *= tol.BACKTRACK_FACTOR
            if t < 1e-16:
                note = "backtracking stalled"
                break
        if note:
            break
        x = x - t * step
        fx, grad, hessian = trial
        iterations = it
        if traj is not None:
            traj.append(x.copy())
        gnorm = float(np.abs(grad).max())
    converged = gnorm <= tol_grad
    if not converged and not note:
        note = "iteration cap reached"
    return SolveReport(
        argmin=x,
        iterations=iterations,
        final_grad_supnorm=gnorm,
        converged=converged,
        trajectory=traj,
        note="" if converged else note,
    )


def partial_minimize(
    f: SmoothObjective,
    split: BlockSplit,
    fixed_block: str,
    fixed_value,
    warm_start=None,
    tol_grad: float = tol.SOLVER_GRAD_TOL,
    max_iter: int = tol.NEWTON_MAX_ITER,
) -> SolveReport:
    """Minimize over one block with the other held fixed.

    ``fixed_block`` names the block being *held*: fixing the nuisance solves
    the target subproblem and vice versa.  The report's argmin is the
    free-block vector.
    """
    if fixed_block not in ("target", "nuisance"):
        raise ValueError("fixed_block must be 'target' or 'nuisance'")
    if fixed_block == "nuisance":
        free_idx, fixed_idx = split.target_idx, split.nuisance_idx
    else:
        free_idx, fixed_idx = split.nuisance_idx, split.target_idx
    restricted = RestrictedObjective(f, free_idx, fixed_idx, fixed_value)
    z0 = np.zeros(restricted.dim) if warm_start is None else np.asarray(warm_start, dtype=float)
    return newton_minimize(restricted, z0, tol_grad=tol_grad, max_iter=max_iter)
