"""Dense symmetric linear algebra and norm machinery.

All operations are pure functions of their inputs; nothing here mutates
its arguments after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from . import tolerances as tol
from .errors import (
    DimensionMismatch,
    NoConvergence,
    NotPositiveDefinite,
    RhoNotLessThanOne,
    SingularMatrix,
)

__all__ = [
    "check_symmetric",
    "BlockSplit",
    "BlockGeometry",
    "NeumannReport",
    "DerivativeCheck",
    "spd_solve",
    "sym_eig",
    "psd_power",
    "spectral_norm",
    "contraction_matrix",
    "neumann_sup_bounds",
    "finite_diff_check",
]


def _square(a: np.ndarray) -> np.ndarray:
    """``a`` itself; DimensionMismatch unless it is a square matrix of dimension >= 1."""
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] < 1:
        raise DimensionMismatch("dimension must be >= 1")
    return a


def check_symmetric(a, rtol: float = tol.SYMMETRY_RTOL) -> np.ndarray:
    """Validate that ``a`` is square and symmetric; return a symmetrized copy.

    Raises DimensionMismatch for non-square input, ValueError when the
    asymmetry exceeds ``rtol`` relative to the matrix scale.
    """
    a = _square(np.asarray(a, dtype=float))
    if a.tobytes() == a.T.tobytes():  # already symmetric, bit for bit
        return a.copy()
    scale = max(1.0, float(np.abs(a).max()))
    gap = float(np.abs(a - a.T).max())
    if gap > rtol * scale:
        raise ValueError(f"matrix not symmetric: max asymmetry {gap:.3e} (scale {scale:.3e})")
    return 0.5 * (a + a.T)


@dataclass(frozen=True)
class BlockSplit:
    """Partition of coordinates into a target block and a nuisance block."""

    target_idx: np.ndarray
    nuisance_idx: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.target_idx, dtype=int)
        s = np.asarray(self.nuisance_idx, dtype=int)
        object.__setattr__(self, "target_idx", t)
        object.__setattr__(self, "nuisance_idx", s)
        if t.size == 0 or s.size == 0:
            raise DimensionMismatch("both blocks must be nonempty")
        merged = np.concatenate([t, s])
        if np.unique(merged).size != merged.size:
            raise DimensionMismatch("target and nuisance indices must be disjoint")
        if sorted(merged.tolist()) != list(range(merged.size)):
            raise DimensionMismatch("blocks must cover 0..dim-1 exactly")

    @classmethod
    def half(cls, dim: int) -> "BlockSplit":
        p = (dim + 1) // 2
        return cls(np.arange(p), np.arange(p, dim))

    @property
    def p(self) -> int:
        return self.target_idx.size

    @property
    def q(self) -> int:
        return self.nuisance_idx.size

    @property
    def dim(self) -> int:
        return self.p + self.q

    def embed(self, theta, nui) -> np.ndarray:
        x = np.empty(self.dim)
        x[self.target_idx] = theta
        x[self.nuisance_idx] = nui
        return x


def spd_solve(a, b) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A via Cholesky (LAPACK potrf/potrs).

    Reads one triangle of ``a``, the upper, as ``potrf`` and
    ``scipy.linalg.cho_factor`` do; symmetry is not checked here.  The library
    checks a matrix once, where it enters from outside (``check_symmetric``).
    """
    a = _square(np.array(a, dtype=float, order="C"))  # a private copy: potrf overwrites it
    b = np.asarray(b, dtype=float)
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch(f"rhs length {b.shape[0]} != dimension {a.shape[0]}")
    # the transpose of the C-ordered copy is Fortran-ordered, so potrf factors it in
    # place; its lower triangle is the upper triangle of a
    c, info = lapack.dpotrf(a.T, lower=1, clean=0, overwrite_a=1)
    if info > 0:
        raise NotPositiveDefinite(f"{info}-th leading minor of the array is not positive definite")
    x, info = lapack.dpotrs(c, b, lower=1)
    if info != 0:  # pragma: no cover - only for malformed arguments
        raise ValueError(f"illegal value in argument {-info} of potrs")
    return x


def _eigh(a):
    """``np.linalg.eigh`` of a matrix already known symmetric; NoConvergence when it fails."""
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(f"eigendecomposition failed: {exc}") from exc


def sym_eig(a):
    """Eigendecomposition of a symmetric matrix: ascending values, orthonormal columns."""
    return _eigh(check_symmetric(a))


def _powered(w, v, exponent: float) -> np.ndarray:
    """v diag(w**exponent) v' from an eigendecomposition, exponent in {1/2, -1/2, -1}."""
    if exponent < 0:
        floor = tol.SINGULAR_EIG_RTOL * max(abs(w[-1]), 1.0)
        if w[0] <= floor:
            raise SingularMatrix(
                f"eigenvalue {w[0]:.3e} at or below tolerance {floor:.3e} for exponent {exponent}"
            )
        powered = w**exponent
    else:
        powered = np.sqrt(np.clip(w, 0.0, None))
    return (v * powered) @ v.T


def psd_power(a, exponent: float) -> np.ndarray:
    """Matrix power of a positive (semi)definite matrix, exponent in {1/2, -1/2, -1}."""
    if exponent not in (0.5, -0.5, -1.0):
        raise ValueError("exponent must be one of +1/2, -1/2, -1")
    return _powered(*sym_eig(a), exponent)


def spectral_norm(m) -> float:
    """Largest singular value: the root of the top eigenvalue of the smaller Gram matrix.

    A dense symmetric eigensolver gives it to rounding, where a power
    iteration stops short of it when the top singular values are close.
    """
    m = np.atleast_2d(np.asarray(m, dtype=float))
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    if m.size == 0:
        return 0.0
    g = m @ m.T if m.shape[0] <= m.shape[1] else m.T @ m
    return float(np.sqrt(max(np.linalg.eigvalsh(g)[-1], 0.0)))


@dataclass(frozen=True)
class BlockGeometry:
    """What the alternating-minimization theory reads off one block Hessian.

    ``f_tt``/``f_tn``/``f_nn`` are the blocks of the symmetrized Hessian
    under ``split``.  ``p`` is P = f_tt^{-1/2} f_tn f_nn^{-1/2}.
    ``ppt_norm`` = ||PP'|| is the largest eigenvalue of PP' and
    ``top_direction`` a unit eigenvector for it; ``rho_star`` = ||P|| is its
    root.  ``tt_half``/``nn_half`` are the square-root metrics f_tt^{1/2} and
    f_nn^{1/2}; ``tt_smin``/``nn_smin`` are their smallest singular values,
    the roots of the smallest eigenvalues of f_tt and f_nn.
    """

    split: BlockSplit
    f_tt: np.ndarray
    f_tn: np.ndarray
    f_nn: np.ndarray
    tt_half: np.ndarray
    tt_inv_half: np.ndarray
    nn_half: np.ndarray
    nn_inv_half: np.ndarray
    p: np.ndarray
    ppt_norm: float
    rho_star: float
    top_direction: np.ndarray
    tt_smin: float
    nn_smin: float


def contraction_matrix(hessian, split: BlockSplit) -> BlockGeometry:
    """The block geometry of ``hessian`` under ``split``.

    Checks the whole matrix's symmetry once, then takes one
    eigendecomposition per diagonal block and one of PP'.  The block powers
    equal ``psd_power`` of the blocks bit for bit.  DimensionMismatch when
    ``split`` does not cover the matrix.
    """
    f = check_symmetric(hessian)
    if split.dim != f.shape[0]:
        raise DimensionMismatch(f"split covers {split.dim} coordinates, Hessian has {f.shape[0]}")
    t, s = split.target_idx, split.nuisance_idx
    f_tt, f_tn, f_nn = f[np.ix_(t, t)], f[np.ix_(t, s)], f[np.ix_(s, s)]
    halves = []
    for block in (f_tt, f_nn):
        w, v = _eigh(block)
        # the inverse root refuses a w[0] at or below its positive floor
        halves.append((_powered(w, v, 0.5), _powered(w, v, -0.5), float(np.sqrt(w[0]))))
    (tt_half, tt_inv_half, tt_smin), (nn_half, nn_inv_half, nn_smin) = halves
    p = tt_inv_half @ f_tn @ nn_inv_half
    w, v = np.linalg.eigh(p @ p.T)
    ppt_norm = max(float(w[-1]), 0.0)
    return BlockGeometry(
        split=split, f_tt=f_tt, f_tn=f_tn, f_nn=f_nn, tt_half=tt_half, tt_inv_half=tt_inv_half,
        nn_half=nn_half, nn_inv_half=nn_inv_half, p=p, ppt_norm=ppt_norm,
        rho_star=ppt_norm**0.5, top_direction=v[:, -1], tt_smin=tt_smin, nn_smin=nn_smin,
    )


@dataclass(frozen=True)
class NeumannReport:
    """Verification of the sup-norm Neumann-series bounds on a concrete vector."""

    rho: float
    lhs: tuple  # measured left sides of the three inequalities
    rhs: tuple  # corresponding right sides
    slack: tuple
    bounds_hold: tuple


def neumann_sup_bounds(b, u) -> NeumannReport:
    """Check the three sup-norm inverse bounds for a unit-diagonal matrix.

    rho is the max absolute off-diagonal row sum, which equals the
    sup-norm operator norm of B - I over the unit sup-norm ball.
    """
    b = np.atleast_2d(np.asarray(b, dtype=float))
    u = np.asarray(u, dtype=float)
    n = b.shape[0]
    if b.shape != (n, n) or u.shape[0] != n:
        raise DimensionMismatch("B must be square and u of matching length")
    if np.abs(np.diag(b) - 1.0).max() > 1e-10:
        raise ValueError("B must have unit diagonal")
    off = np.abs(b).sum(axis=1) - np.abs(np.diag(b))
    rho = float(off.max()) if n > 1 else 0.0
    if rho >= 1.0:
        raise RhoNotLessThanOne(f"rho = {rho:.6f} >= 1")

    u_norm = float(np.abs(u).max())
    binv_u = np.linalg.solve(b, u)
    lhs = (
        float(np.abs(binv_u).max()),
        float(np.abs(binv_u - u).max()),
        float(np.abs(binv_u - 2.0 * u + b @ u).max()),
    )
    rhs = (
        u_norm / (1.0 - rho),
        rho / (1.0 - rho) * u_norm,
        rho**2 / (1.0 - rho) * u_norm,
    )
    eps = 1e-12 * max(1.0, u_norm)
    holds = tuple(left <= right + eps for left, right in zip(lhs, rhs))
    slack = tuple(right - left for left, right in zip(lhs, rhs))
    return NeumannReport(rho=rho, lhs=lhs, rhs=rhs, slack=slack, bounds_hold=holds)


@dataclass(frozen=True)
class DerivativeCheck:
    """Max mixed absolute/relative finite-difference errors of the derivative stack."""

    grad_err: float
    hess_err: float
    third_err: float


def _mixed_err(a, b) -> float:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
    return float((np.abs(a - b) / denom).max())


def finite_diff_check(f, x, seed: int = 0) -> DerivativeCheck:
    """Central-difference validation of gradient, Hessian and third derivative.

    The step is h = 1e-5 * (1 + sup-norm of x).  The third derivative is
    compared with a differenced Hessian quadratic form along a few random
    directions.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    h = tol.FD_STEP_SCALE * (1.0 + float(np.abs(x).max()))

    grad = f.gradient(x)
    grad_fd = np.empty(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        grad_fd[i] = (f.value(x + e) - f.value(x - e)) / (2.0 * h)
    grad_err = _mixed_err(grad, grad_fd)

    hess = f.hessian(x)
    hess_fd = np.empty((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        hess_fd[:, i] = (f.gradient(x + e) - f.gradient(x - e)) / (2.0 * h)
    hess_err = _mixed_err(hess, 0.5 * (hess_fd + hess_fd.T))

    rng = np.random.default_rng(seed)
    third_err = 0.0
    for _ in range(tol.FD_DIRECTIONS):
        d = rng.standard_normal(n)
        d /= np.linalg.norm(d)
        analytic = f.third_directional(x, d, d, d)
        hp = f.hessian(x + h * d)
        hm = f.hessian(x - h * d)
        fd = (d @ hp @ d - d @ hm @ d) / (2.0 * h)
        third_err = max(third_err, _mixed_err(analytic, fd))

    return DerivativeCheck(grad_err=grad_err, hess_err=hess_err, third_err=third_err)
