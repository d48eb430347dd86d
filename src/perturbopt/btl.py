"""Bradley-Terry-Luce instantiation: comparison graphs, sampling, likelihood.

The penalized negative log-likelihood ships with closed-form derivatives
through third order and with the smoothness constants the expansion and
alternating-minimization certificates consume.  All logistic primitives
branch on the sign of their argument so that unbounded score ranges stay
overflow-safe.
"""

from __future__ import annotations

import csv
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from . import tolerances as tol
from .errors import DimensionMismatch, HessianNotPD
from .expansions import ConditionConstants
from .numkit import BlockGeometry, BlockHessian, BlockSplit, MetricTensor, contraction_matrix
from .objective import SmoothObjective, SolveReport, coordinate_descent_minimize, newton_minimize

__all__ = [
    "sigmoid",
    "log1pexp",
    "phi2",
    "phi3",
    "ComparisonGraph",
    "BtlObservation",
    "PenaltySpec",
    "BtlObjective",
    "sample_er_graph",
    "sample_outcomes",
    "btl_objective",
    "noise_gradient",
    "mle_exists",
    "fit_penalized_mle",
    "btl_condition_constants",
    "read_observations",
    "write_observations",
    "read_scores",
    "write_scores",
]

# location of the extrema of |phi'''|; phi'''(t) = phi''(t) (1 - 2 sigma(t))
_T3_PEAK = math.log(2.0 + math.sqrt(3.0))


def log1pexp(t):
    """log(1 + e^t) without overflow for large positive t."""
    t = np.asarray(t, dtype=float)
    return np.maximum(t, 0.0) + np.log1p(np.exp(-np.abs(t)))


def _sigmoid_from(t, e):
    """sigma(t) from e = exp(-|t|)."""
    return np.where(t >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _phi2_from(e):
    """phi''(t) from e = exp(-|t|)."""
    return e / (1.0 + e) ** 2


def sigmoid(t):
    t = np.asarray(t, dtype=float)
    return _sigmoid_from(t, np.exp(-np.abs(t)))


def phi2(t):
    """Second derivative of log(1 + e^t); symmetric, peaks at 1/4."""
    t = np.asarray(t, dtype=float)
    return _phi2_from(np.exp(-np.abs(t)))


def phi3(t):
    """Third derivative of log(1 + e^t); odd, |phi'''| <= phi''."""
    t = np.asarray(t, dtype=float)
    e = np.exp(-np.abs(t))
    # 1 - 2 sigma(t) = -tanh(t/2)
    return -(e / (1.0 + e) ** 2) * np.tanh(0.5 * t)


def _abs_phi3(t):
    """|phi'''(t)| with a fused even-function evaluation (hot-path helper)."""
    u = np.abs(t)
    e = np.exp(-u)
    return e / (1.0 + e) ** 2 * np.tanh(0.5 * u)


_PSI_STEP = 2.5e-4
_PSI_CUTOFF = 45.0  # |phi'''| < 3e-20 beyond this
_PSI_Y = np.arange(0.0, _PSI_CUTOFF + _PSI_STEP, _PSI_STEP)
# filled in blocks: whole-table temporaries leave ~3.5 MB of freed heap resident
for _block in np.split(_PSI_Y, range(8192, _PSI_Y.size, 8192)):
    _block[:] = _abs_phi3(_block)


def _abs_phi3_table(t):
    """Tabulated |phi'''| on a uniform grid; error ~1e-9, below the scan resolution."""
    u = np.abs(t) * (1.0 / _PSI_STEP)
    idx = u.astype(np.int64)
    inside = idx < _PSI_Y.size - 1
    np.clip(idx, 0, _PSI_Y.size - 2, out=idx)
    frac = u - idx
    vals = _PSI_Y[idx] * (1.0 - frac) + _PSI_Y[idx + 1] * frac
    return np.where(inside, vals, 0.0)


def _sup_abs_phi3(lo, hi):
    """Exact sup of |phi'''| over [lo, hi], elementwise on interval arrays.

    |phi'''(t)| depends only on |t| and is unimodal there with peak at
    log(2 + sqrt(3)); the maximum over an interval is attained at the points
    closest to the two peaks.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    cand1 = np.clip(_T3_PEAK, lo, hi)
    cand2 = np.clip(-_T3_PEAK, lo, hi)
    return np.maximum(_abs_phi3(cand1), _abs_phi3(cand2))


@dataclass(frozen=True)
class ComparisonGraph:
    """Items as vertices, compared pairs as edges with multiplicities.

    Edges are stored as parallel arrays with j < m (0-based), each pair at
    most once.  The edges at item v are ``row_edge[row_ptr[v]:row_ptr[v + 1]]``
    in edge order, their other endpoints ``row_other`` at the same positions.
    ``component_labels`` numbers the connected components 0..k-1;
    disconnected graphs are representable but flagged by ``connected``.
    """

    n: int
    j: np.ndarray
    m: np.ndarray
    counts: np.ndarray
    connected: bool
    component_labels: np.ndarray
    row_ptr: np.ndarray = field(repr=False)
    row_other: np.ndarray = field(repr=False)
    row_edge: np.ndarray = field(repr=False)

    @classmethod
    def from_edges(cls, n: int, j, m, counts) -> "ComparisonGraph":
        j = np.asarray(j, dtype=int)
        m = np.asarray(m, dtype=int)
        counts = np.asarray(counts, dtype=float)
        if not (j.shape == m.shape == counts.shape):
            raise DimensionMismatch("edge arrays must have equal length")
        if n < 1:
            raise ValueError("need at least one item")
        if j.size:
            if np.any(j >= m):
                raise ValueError("edges must satisfy j < m")
            if np.any(j < 0) or np.any(m >= n):
                raise ValueError("edge endpoints out of range")
            if np.any(counts < 1):
                raise ValueError("edge multiplicities must be >= 1")
            if np.unique(j * n + m).size != j.size:
                raise ValueError("duplicate edges")
        # a stable sort of the interleaved endpoints [j0, m0, j1, m1, ...] lists
        # each item's edges in edge order, keeping the edge list's summation order
        ends = np.column_stack((j, m)).ravel()
        order = np.argsort(ends, kind="stable")
        row_ptr = np.concatenate(([0], np.cumsum(np.bincount(ends, minlength=n))))
        row_other = np.column_stack((m, j)).ravel()[order]
        adjacency = csr_matrix((np.ones(order.size), row_other, row_ptr), shape=(n, n))
        k, labels = connected_components(adjacency, directed=False)
        return cls(
            n=n, j=j, m=m, counts=counts, connected=bool(k == 1), component_labels=labels,
            row_ptr=row_ptr, row_other=row_other, row_edge=order // 2,
        )

    @property
    def n_edges(self) -> int:
        return int(self.j.size)


def _edge_scatter(graph: ComparisonGraph, at_j, at_m) -> np.ndarray:
    """Per-item sums of ``at_j`` over the j endpoints plus ``at_m`` over the m endpoints.

    Accumulates in edge order, j endpoints first.
    """
    sums = np.bincount(np.concatenate((graph.j, graph.m)), np.concatenate((at_j, at_m)),
                       minlength=graph.n)
    return sums.astype(float, copy=False)  # bincount returns integers when there are no edges


@dataclass(frozen=True)
class BtlObservation:
    """Outcomes of the paired comparisons: wins of the lower-index item per edge."""

    graph: ComparisonGraph
    wins: np.ndarray

    def __post_init__(self):
        wins = np.asarray(self.wins, dtype=float)
        object.__setattr__(self, "wins", wins)
        if wins.shape != self.graph.counts.shape:
            raise DimensionMismatch("wins must align with the edge list")
        if np.any(wins < 0) or np.any(wins > self.graph.counts):
            raise ValueError("wins must lie in [0, N] per edge")


@dataclass(frozen=True)
class PenaltySpec:
    """Quadratic penalty 0.5 ||G ups||^2 resolving the shift non-identifiability.

    mean_shift uses G^2 = gsq * e e' with e the normalized all-ones vector,
    pinning only the score mean; ridge uses G^2 = gsq * I.
    """

    kind: str = "mean_shift"  # "none" | "mean_shift" | "ridge"
    gsq: float = 1.0

    def __post_init__(self):
        if self.kind not in ("none", "mean_shift", "ridge"):
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        if self.gsq < 0:
            raise ValueError("gsq must be >= 0")

    @classmethod
    def none(cls) -> "PenaltySpec":
        return cls("none", 0.0)

    @classmethod
    def mean_shift(cls, gsq: float = 1.0) -> "PenaltySpec":
        return cls("mean_shift", gsq)

    @classmethod
    def ridge(cls, gsq: float = 1.0) -> "PenaltySpec":
        return cls("ridge", gsq)

    def matrix(self, n: int, size: Optional[int] = None) -> np.ndarray:
        """G^2 for n items, or its principal block on ``size`` of them (all are equal)."""
        size = n if size is None else size
        if self.kind == "mean_shift":
            return np.full((size, size), self.gsq / n)
        if self.kind == "ridge":
            return self.gsq * np.eye(size)
        return np.zeros((size, size))

    def diag(self, n: int) -> np.ndarray:
        if self.kind == "mean_shift":
            return np.full(n, self.gsq / n)
        if self.kind == "ridge":
            return np.full(n, self.gsq)
        return np.zeros(n)

    def grad(self, v: np.ndarray) -> np.ndarray:
        if self.kind == "mean_shift":
            return np.full_like(v, self.gsq * v.sum() / v.size)
        if self.kind == "ridge":
            return self.gsq * v
        return np.zeros_like(v)

    def quad(self, v: np.ndarray) -> float:
        if self.kind == "mean_shift":
            return 0.5 * self.gsq * v.sum() ** 2 / v.size
        if self.kind == "ridge":
            return 0.5 * self.gsq * float(v @ v)
        return 0.0


@dataclass(frozen=True)
class _EdgeBlock:
    """A coordinate block of a BTL objective and the edges with both ends in it.

    ``rows``/``cols`` are those edges' endpoints as positions in ``idx``.
    """

    idx: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    edges: np.ndarray


class BtlObjective(SmoothObjective):
    """Penalized negative log-likelihood of paired-comparison outcomes.

    ``wins`` may be real-valued: the expected-mode objective replaces the
    observed win counts by their model expectations.
    """

    def __init__(self, graph: ComparisonGraph, wins, penalty: PenaltySpec):
        self.graph = graph
        self.wins = np.asarray(wins, dtype=float)
        if self.wins.shape != graph.counts.shape:
            raise DimensionMismatch("wins must align with the edge list")
        self.penalty = penalty
        self.dim = graph.n

    def _diffs(self, x: np.ndarray) -> np.ndarray:
        return x[self.graph.j] - x[self.graph.m]

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        d = self._diffs(x)
        ll = float(np.sum(d * self.wins - self.graph.counts * log1pexp(d)))
        return -ll + self.penalty.quad(x)

    def _gradient(self, x, d, e) -> np.ndarray:
        base = self.graph.counts * _sigmoid_from(d, e) - self.wins
        return _edge_scatter(self.graph, base, -base) + self.penalty.grad(x)

    def _curvature(self, e, block: Optional[_EdgeBlock]) -> np.ndarray:
        """The Hessian, or its ``block``, from e = exp(-|d|) on the edges."""
        w = self.graph.counts * _phi2_from(e)
        degree = _edge_scatter(self.graph, w, w)
        if block is None:
            h = self.penalty.matrix(self.dim)
            rows, cols = self.graph.j, self.graph.m
        else:
            h = self.penalty.matrix(self.dim, block.idx.size)
            rows, cols, w, degree = block.rows, block.cols, w[block.edges], degree[block.idx]
        h[rows, cols] -= w  # pairs are unique, so no entry is written twice
        h[cols, rows] -= w
        h.reshape(-1)[:: h.shape[0] + 1] += degree  # the diagonal, as a view of h
        return h

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        d = self._diffs(x)
        return self._gradient(x, d, np.exp(-np.abs(d)))

    def hessian(self, x) -> np.ndarray:
        d = self._diffs(np.asarray(x, dtype=float))
        return self._curvature(np.exp(-np.abs(d)), None)

    def block_index(self, idx) -> _EdgeBlock:
        idx = np.asarray(idx, dtype=int)
        position = np.full(self.dim, -1)
        position[idx] = np.arange(idx.size)
        rows, cols = position[self.graph.j], position[self.graph.m]
        edges = np.flatnonzero((rows >= 0) & (cols >= 0))
        return _EdgeBlock(idx=idx, rows=rows[edges], cols=cols[edges], edges=edges)

    def derivatives(self, x, block: Optional[_EdgeBlock] = None):
        """Gradient and Hessian (block) from one pass over the edges.

        The block is the sub-Laplacian of the edges inside it, plus the
        degrees over all edges on its diagonal, plus the penalty block: the
        same bits as slicing the full Hessian.
        """
        x = np.asarray(x, dtype=float)
        d = self._diffs(x)
        e = np.exp(-np.abs(d))
        return self._gradient(x, d, e), self._curvature(e, block)

    def third_directional(self, x, a, b, c) -> float:
        x = np.asarray(x, dtype=float)
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        c = np.asarray(c, dtype=float)
        w3 = self.graph.counts * phi3(self._diffs(x))
        gj, gm = self.graph.j, self.graph.m
        return float(np.sum(w3 * (a[gj] - a[gm]) * (b[gj] - b[gm]) * (c[gj] - c[gm])))


def sample_er_graph(n: int, p: float, L: int, rng: np.random.Generator) -> ComparisonGraph:
    """Erdos-Renyi comparison design: each pair kept with probability p, L games each."""
    if n < 2:
        raise ValueError("need at least two items")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    if L < 1:
        raise ValueError("need at least one comparison per edge")
    iu, im = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    j, m = iu[keep], im[keep]
    return ComparisonGraph.from_edges(n, j, m, np.full(j.size, float(L)))


def sample_outcomes(graph: ComparisonGraph, truth, rng: np.random.Generator) -> BtlObservation:
    """Binomial outcomes: lower-index item wins each game with prob sigma(score gap)."""
    truth = np.asarray(truth, dtype=float)
    if truth.shape[0] != graph.n:
        raise DimensionMismatch("truth length differs from item count")
    probs = sigmoid(truth[graph.j] - truth[graph.m])
    wins = rng.binomial(graph.counts.astype(int), probs).astype(float)
    return BtlObservation(graph=graph, wins=wins)


def btl_objective(
    obs: Union[BtlObservation, ComparisonGraph],
    penalty: PenaltySpec,
    mode: str = "empirical",
    truth=None,
) -> BtlObjective:
    """Build the likelihood objective, empirical or with expected win counts."""
    graph = obs.graph if isinstance(obs, BtlObservation) else obs
    if mode == "empirical":
        if not isinstance(obs, BtlObservation):
            raise ValueError("empirical mode needs observed outcomes")
        return BtlObjective(graph, obs.wins, penalty)
    if mode == "expected":
        if truth is None:
            raise ValueError("expected mode needs the generative scores")
        truth = np.asarray(truth, dtype=float)
        if truth.shape[0] != graph.n:
            raise DimensionMismatch("truth length differs from item count")
        wins = graph.counts * sigmoid(truth[graph.j] - truth[graph.m])
        return BtlObjective(graph, wins, penalty)
    raise ValueError(f"unknown mode {mode!r}")


def noise_gradient(obs: BtlObservation, truth) -> np.ndarray:
    """Gradient of the centered likelihood; constant in the score argument.

    The centered part is linear in the scores, so the gradient depends only
    on the outcome deviations from their expectations.
    """
    truth = np.asarray(truth, dtype=float)
    g = obs.graph
    if truth.shape[0] != g.n:
        raise DimensionMismatch("truth length differs from item count")
    r = obs.wins - g.counts * sigmoid(truth[g.j] - truth[g.m])
    return _edge_scatter(g, -r, r)


def mle_exists(obs: BtlObservation) -> bool:
    """Finite-minimizer check for shift-penalty-only fits.

    The likelihood has a finite minimizer exactly when each connected
    component of the design is strongly connected in the beats digraph, with
    an arc j -> m when j won a game against m (Ford 1957); a perfect overall
    record for any group of items pushes the fitted gap to infinity.  Every
    compared pair carries an arc, so this holds exactly when the digraph has
    as many strong components as the design has components.
    """
    g = obs.graph
    j_won = obs.wins > 0
    m_won = obs.wins < g.counts
    tail = np.concatenate((g.j[j_won], g.m[m_won]))
    head = np.concatenate((g.m[j_won], g.j[m_won]))
    beats = csr_matrix((np.ones(tail.size), (tail, head)), shape=(g.n, g.n))
    n_strong = connected_components(beats, directed=True, connection="strong",
                                    return_labels=False)
    return bool(n_strong == g.component_labels.max() + 1)


def fit_penalized_mle(
    obs: BtlObservation,
    penalty: PenaltySpec,
    solver: str = "newton",
    tol_grad: float = tol.SOLVER_GRAD_TOL,
    x0=None,
) -> SolveReport:
    """Fit the penalized maximum-likelihood scores.

    A divergent likelihood (some item or group with a perfect win/loss
    record under a shift-only penalty) is surfaced as a non-converged
    report, never clamped.
    """
    if penalty.kind == "none" and obs.graph.n_edges > 0:
        raise ValueError("an unpenalized fit is singular along score shifts; pick a penalty")
    obj = btl_objective(obs, penalty, mode="empirical")
    start = np.zeros(obs.graph.n) if x0 is None else np.asarray(x0, dtype=float)
    finite_minimizer = mle_exists(obs) if penalty.kind in ("none", "mean_shift") else True
    try:
        if solver == "newton":
            report = newton_minimize(obj, start, tol_grad=tol_grad)
        elif solver == "coord":
            report = coordinate_descent_minimize(obj, start, tol_grad=tol_grad)
        else:
            raise ValueError(f"unknown solver {solver!r}")
    except HessianNotPD as exc:
        return SolveReport(
            argmin=start,
            iterations=exc.iteration,
            final_grad_supnorm=float("nan"),
            converged=False,
            note=f"singular fit: {exc}",
        )
    if not finite_minimizer:
        report.converged = False
        report.note = "divergent: a one-sided win/loss pattern has no finite optimum"
    return report


_SCAN_COARSE_FACTOR = 20


def _scan_row_max(diffs, counts, half: float) -> float:
    """Max over the offset lattice of the weighted |phi'''| row sum.

    Two-stage scan on the dense lattice of the configured resolution: a
    coarse pass on every 20th point, then full resolution around every
    coarse local maximum.  The objective is a sum of humps of unit-order
    width, so each of its maxima shows up as a coarse local maximum; any
    coarse undershoot is bounded by curvature x (coarse step)^2 / 8, far
    below the scan's reporting precision.
    """
    npts = min(tol.GRID_MAX_POINTS, 2 * int(np.ceil(half / tol.GRID_RESOLUTION)) + 1)
    npts = max(npts, 3)
    lattice = np.linspace(-half, half, npts)

    def batch(points):
        return _abs_phi3_table(diffs[None, :] + points[:, None]) @ counts

    coarse_idx = np.arange(0, npts, _SCAN_COARSE_FACTOR)
    if coarse_idx[-1] != npts - 1:
        coarse_idx = np.append(coarse_idx, npts - 1)
    coarse = batch(lattice[coarse_idx])
    padded = np.concatenate(([-np.inf], coarse, [-np.inf]))
    is_peak = (padded[1:-1] >= padded[:-2]) & (padded[1:-1] >= padded[2:])
    windows = []
    for k in np.nonzero(is_peak)[0]:
        center = coarse_idx[k]
        windows.append(
            np.arange(max(0, center - _SCAN_COARSE_FACTOR),
                      min(npts, center + _SCAN_COARSE_FACTOR + 1))
        )
    fine_idx = np.unique(np.concatenate(windows)) if windows else np.array([], dtype=int)
    best = float(coarse.max())
    if fine_idx.size:
        best = max(best, float(batch(lattice[fine_idx]).max()))
    return best


def _linf_constants(graph, center, radius, d_scales) -> ConditionConstants:
    """Exact per-coordinate sup-norm constants via the separable tensor structure."""
    center = np.asarray(center, dtype=float)
    d = np.asarray(d_scales, dtype=float)
    tau3 = d21 = d12 = 0.0
    for v in range(graph.n):
        row = slice(graph.row_ptr[v], graph.row_ptr[v + 1])
        if row.start == row.stop:
            continue
        other = graph.row_other[row]
        diffs = center[v] - center[other]
        counts = graph.counts[graph.row_edge[row]]
        dm = d[other]

        # pure third derivative: shared offset of the v-th coordinate, dense scan.
        # Every term decays monotonically once the offset pushes all arguments
        # past the |phi'''| peak, so the scan clamps to that window exactly.
        half = 2.0 * radius / d[v]
        half = min(half, float(np.abs(diffs).max()) + _T3_PEAK)
        if half == 0.0:
            pure = float(np.sum(counts * _abs_phi3(diffs)))
        else:
            pure = _scan_row_max(diffs, counts, half)
        tau3 = max(tau3, pure / d[v] ** 3)

        # mixed derivatives: each neighbor moves independently in its own interval
        width = radius / dm
        sup = _sup_abs_phi3(diffs - width, diffs + width)
        d21 = max(d21, float(np.sum(counts * sup / dm)) / d[v] ** 2)
        d12 = max(d12, float(np.sum(counts * sup / dm**2)) / d[v])
    return ConditionConstants(
        tau3=tau3, d12=d12, d21=d21, norm_tag="linf", radii=(float(radius),),
        method="separable_exact",
    )


def _block_l2_constants(
    g: ComparisonGraph, geometry: BlockGeometry, center, split, radii
) -> ConditionConstants:
    """Rigorous envelope of the Euclidean block constants in the square-root Fisher metrics."""
    in_target = np.zeros(g.n, dtype=bool)
    in_target[split.target_idx] = True
    mu_t, smin_t = geometry.target_scales
    mu_n, smin_n = geometry.nuisance_scales

    r_theta, r_nui = float(radii[0]), float(radii[1])
    w_theta = r_theta / smin_t
    w_nui = r_nui / smin_n
    per_end = np.where(in_target, w_theta, w_nui)
    wiggle = per_end[g.j] + per_end[g.m]

    diffs = center[g.j] - center[g.m]
    sup3 = _sup_abs_phi3(diffs - wiggle, diffs + wiggle)
    curv = phi2(diffs)
    kappa_max = float((sup3 / curv).max()) if diffs.size else 0.0

    tau3_env = 2.0 * kappa_max * max(mu_t / smin_t, mu_n / smin_n)
    d12_env = 2.0 * kappa_max * mu_n / smin_t
    d21_env = 2.0 * kappa_max * mu_t / smin_n
    return ConditionConstants(
        tau3=tau3_env, d12=d12_env, d21=d21_env, norm_tag="l2",
        radii=(r_theta, r_nui), method="sup_envelope",
    )


def btl_condition_constants(
    graph: ComparisonGraph,
    penalty: PenaltySpec,
    center,
    radius=None,
    metric: Optional[MetricTensor] = None,
    norm: str = "linf",
    split: Optional[BlockSplit] = None,
    radii=None,
    geometry: Optional[BlockGeometry] = None,
):
    """Smoothness constants of the likelihood around ``center``.

    norm="linf": per-coordinate constants of the sup-norm theory, exact up
    to a dense scalar scan; the metric defaults to the penalized Hessian
    diagonal.  norm="l2": block constants for a target/nuisance split in the
    square-root Fisher block metrics, returned as their rigorous envelope
    only; pass the ``geometry`` of the Fisher matrix at ``center`` (from
    ``contraction_matrix``) to reuse it, which leaves O(edges) work per call.
    """
    center = np.asarray(center, dtype=float)
    if center.shape[0] != graph.n:
        raise DimensionMismatch("center length differs from item count")
    if norm == "linf":
        if radius is None:
            raise ValueError("sup-norm constants need a radius")
        if metric is None:
            obj = btl_objective(graph, penalty, mode="expected", truth=center)
            d_scales = np.sqrt(np.diag(obj.hessian(center)))
        else:
            if metric.kind != "diagonal":
                raise ValueError("the sup-norm theory uses a diagonal metric")
            d_scales = metric.values
        return _linf_constants(graph, center, float(radius), d_scales)
    if norm == "l2":
        if split is None or radii is None:
            raise ValueError("block constants need a split and radii (r_theta, r_nui)")
        if metric is not None:
            raise ValueError("block constants use the square-root Fisher block metrics")
        if geometry is None:
            obj = btl_objective(graph, penalty, mode="expected", truth=center)
            geometry = contraction_matrix(BlockHessian.from_full(obj.hessian(center), split))
        return _block_l2_constants(graph, geometry, center, split, radii)
    raise ValueError(f"unknown norm {norm!r}")


# ---------------------------------------------------------------------------
# file formats


def _exact_text(values: np.ndarray) -> list:
    """Each value as %g, or as repr where %g does not read back equal."""
    text = [f"{v:g}" for v in values.tolist()]
    for i in np.flatnonzero(np.array(text, dtype=float) != values):
        text[i] = repr(float(values[i]))
    return text


def write_observations(path, obs: BtlObservation) -> None:
    """CSV with header j,m,N,S; indices are 1-based and j < m."""
    g = obs.graph
    rows = zip(g.j.tolist(), g.m.tolist(), _exact_text(g.counts), _exact_text(obs.wins))
    with open(path, "w", newline="") as fh:
        fh.write("j,m,N,S\r\n")
        fh.write("".join([f"{a + 1},{b + 1},{c},{s}\r\n" for a, b, c, s in rows]))


_OBSERVATION_TYPES = {"j": np.int64, "m": np.int64, "N": np.float64, "S": np.float64}


def _parse_observation_rows(lines, columns: dict) -> np.ndarray:
    """Parse CSV data lines into a record array; ``columns`` maps names to positions."""
    with warnings.catch_warnings():
        # a header-only file has no rows, and that is not worth a warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # numpy from 1.23 until the fallback was removed parses an integer field like "3.0"
        # or "1e3" via a float and only warns; raised inside the converter, the warning
        # becomes loadtxt's ValueError for that row
        warnings.filterwarnings("error", category=DeprecationWarning)
        return np.loadtxt(
            lines, dtype=[(name, _OBSERVATION_TYPES[name]) for name in columns],
            delimiter=",", comments=None, quotechar='"', usecols=list(columns.values()), ndmin=1,
        )


def _data_lines(path) -> list:
    """(line number, text) of each non-blank line after the header; the header is line 1."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        return [(number, line) for number, line in enumerate(fh, reader.line_num + 1)
                if line.strip("\r\n")]


def read_observations(path, n: Optional[int] = None):
    """Read an observation CSV; graph-only files (no S column) yield the graph.

    The item count defaults to the largest index present.  A malformed row
    raises a ValueError that names the file and the row's line number (the
    header is line 1).
    """
    with open(path, newline="") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        position = {name.strip(): i for i, name in enumerate(header)}
        missing = {"j", "m", "N"} - position.keys()
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        has_wins = "S" in position
        columns = {name: position[name] for name in ("j", "m", "N", "S") if name in position}
        try:
            rows = _parse_observation_rows(fh, columns)
        except ValueError as exc:
            # only now look for the line: the first one that does not parse on its own
            for number, line in _data_lines(path):
                try:
                    _parse_observation_rows([line], columns)
                except ValueError:
                    fields = next(csv.reader([line]))
                    got = ", ".join(f"{name}={fields[i] if i < len(fields) else None!r}"
                                    for name, i in columns.items())
                    raise ValueError(f"{path}, line {number}: j and m must be integers "
                                     f"and the other fields numbers; got {got}") from None
            raise ValueError(f"{path}: {exc}") from None
    j, m, counts = rows["j"], rows["m"], rows["N"].copy()
    wins = rows["S"].copy() if has_wins else None
    if n is None:
        n = int(m.max(initial=1))
    _, first, inverse = np.unique(j * (n + 1) + m, return_index=True, return_inverse=True)
    first = first[inverse]
    checks = [
        (np.minimum(j, m) >= 1, "item indices start at 1"),
        (j < m, "need j < m"),
        (m <= n, f"indices must not exceed the item count {n}"),
        (np.isfinite(counts) & (counts >= 1), "N must be a finite number >= 1"),
        (first == np.arange(j.size), "the pair is already on line {first}"),
    ]
    if has_wins:
        checks.append(((wins >= 0) & (wins <= counts), "S must lie in [0, N]"))
    failures = [(np.argmin(ok), reason) for ok, reason in checks if not ok.all()]
    if failures:
        k, reason = min(failures, key=lambda failure: failure[0])
        lines = [number for number, _ in _data_lines(path)]
        got = f"j={j[k]}, m={m[k]}, N={counts[k]:g}" + (f", S={wins[k]:g}" if has_wins else "")
        raise ValueError(
            f"{path}, line {lines[k]}: {reason.format(first=lines[first[k]])}; got {got}"
        )
    graph = ComparisonGraph.from_edges(n, j - 1, m - 1, counts)
    if has_wins:
        return BtlObservation(graph=graph, wins=wins)
    return graph


def write_scores(path, scores) -> None:
    """CSV with header item,score; items are 1-based."""
    scores = np.asarray(scores, dtype=float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["item", "score"])
        for i, s in enumerate(scores):
            writer.writerow([i + 1, format(s, ".17g")])


def read_scores(path) -> np.ndarray:
    """Read a scores CSV; the item ids must be exactly 1..k, in any order.

    A row whose id is not an integer or whose score is not a number raises a
    ValueError that names the file and the row's line number (the header is
    line 1).
    """
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = {"item", "score"} - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        rows = []
        for r in reader:
            try:
                rows.append((int(r["item"]), float(r["score"])))
            except (TypeError, ValueError):
                raise ValueError(f"{path}, line {reader.line_num}: item must be an integer and "
                                 f"score a number; got item={r['item']!r}, "
                                 f"score={r['score']!r}") from None
    rows.sort()
    expected = range(1, len(rows) + 1)
    if [i for i, _ in rows] != list(expected):
        ids = Counter(i for i, _ in rows)
        raise ValueError(
            f"{path}: item ids must be exactly 1..{len(rows)}; "
            f"duplicated {sorted(i for i, c in ids.items() if c > 1)}, "
            f"missing {sorted(set(expected) - ids.keys())}, "
            f"out of range {sorted(ids.keys() - set(expected))}"
        )
    return np.array([s for _, s in rows])
