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
from functools import cached_property
from typing import Optional, Union

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from . import tolerances as tol
from .errors import DimensionMismatch, HessianNotPD
from .expansions import ConditionConstants
from .numkit import BlockGeometry, BlockHessian, BlockSplit, MetricTensor, contraction_matrix
from .objective import (
    BlockIndex,
    SmoothObjective,
    SolveReport,
    coordinate_descent_minimize,
    newton_minimize,
)

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
    one_e = 1.0 + e
    return np.where(t >= 0, 1.0 / one_e, e / one_e)


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
            if np.any(np.diff(np.sort(j * n + m)) == 0):
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


def _scatter(ends, at_j, at_m, size: int) -> np.ndarray:
    """Per-item sums of ``at_j`` then ``at_m`` over the item numbers ``ends`` below ``size``.

    Accumulates in input order; ends at ``size`` or above are dropped.
    """
    sums = np.bincount(ends, np.concatenate((at_j, at_m)), minlength=size + 1)[:size]
    return sums.astype(float, copy=False)  # bincount returns integers when there are no edges


def _edge_scatter(graph: ComparisonGraph, at_j, at_m) -> np.ndarray:
    """Per-item sums of ``at_j`` over the j endpoints plus ``at_m`` over the m endpoints.

    Accumulates in edge order, j endpoints first.
    """
    return _scatter(np.concatenate((graph.j, graph.m)), at_j, at_m, graph.n)


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
class _EdgeBlock(BlockIndex):
    """A coordinate block of a BTL objective and the edges with an end in it.

    The edges keep their edge-list order: endpoints ``j``/``m``, ``counts``
    and ``wins``.  ``ends`` holds each edge's j end, then each m end, as a
    position in ``idx``; a held end is at ``idx.size``.  ``inner`` picks the
    edges with both ends in the block, whose ends are ``rows``/``cols``.
    ``held`` numbers the other edges of the graph, those between held items.
    """

    j: np.ndarray
    m: np.ndarray
    counts: np.ndarray
    wins: np.ndarray
    ends: np.ndarray
    inner: Union[np.ndarray, slice]
    rows: np.ndarray
    cols: np.ndarray
    held: np.ndarray

    @cached_property
    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat positions of the inner edges' (j, m) and (m, j) entries in the Hessian block."""
        size = self.idx.size
        return self.rows * size + self.cols, self.cols * size + self.rows


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
        self._blocks: dict[bytes, _EdgeBlock] = {}

    @staticmethod
    def _edge_value(d, e, counts, wins) -> float:
        """Minus the log-likelihood of edges with differences d and e = exp(-|d|)."""
        return -float((d * wins - counts * (np.maximum(d, 0.0) + np.log1p(e))).sum())

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        d = x[self.graph.j] - x[self.graph.m]
        return (self._edge_value(d, np.exp(-np.abs(d)), self.graph.counts, self.wins)
                + self.penalty.quad(x))

    def held_value(self, x, block: _EdgeBlock) -> float:
        """The edges between held items, which a block evaluation leaves out."""
        x = np.asarray(x, dtype=float)
        g, held = self.graph, block.held
        d = x[g.j[held]] - x[g.m[held]]
        return self._edge_value(d, np.exp(-np.abs(d)), g.counts[held], self.wins[held])

    def _whole(self) -> _EdgeBlock:
        """Every edge, as the block of all items; made per call, so no graph-sized array is kept."""
        g = self.graph
        return _EdgeBlock(idx=np.arange(g.n), j=g.j, m=g.m, counts=g.counts, wins=self.wins,
                          ends=np.concatenate((g.j, g.m)), inner=slice(None), rows=g.j, cols=g.m,
                          held=np.arange(0))

    def _pass(self, x, block: _EdgeBlock):
        """``x`` as floats, and d and e = exp(-|d|) on the block's edges."""
        x = np.asarray(x, dtype=float)
        d = x[block.j] - x[block.m]
        return x, d, np.exp(-np.abs(d))

    def _gradient(self, x, block: _EdgeBlock, d, e) -> np.ndarray:
        base = block.counts * _sigmoid_from(d, e) - block.wins
        return _scatter(block.ends, base, -base, block.idx.size) + self.penalty.grad(x)[block.idx]

    def _hessian(self, block: _EdgeBlock, e) -> np.ndarray:
        """The Hessian block from e = exp(-|d|) on the block's edges.

        The sub-Laplacian of the inner edges, plus each item's degree over
        all its edges on the diagonal, plus the penalty block.
        """
        size = block.idx.size
        w = block.counts * _phi2_from(e)
        h = self.penalty.matrix(self.dim, size)
        flat = h.reshape(-1)  # a view of h
        inner = w[block.inner]
        upper, lower = block.entries
        flat[upper] -= inner  # pairs are unique, so no entry is written twice
        flat[lower] -= inner
        flat[:: size + 1] += _scatter(block.ends, w, w, size)  # the diagonal
        return h

    def gradient(self, x) -> np.ndarray:
        block = self._whole()
        x, d, e = self._pass(x, block)
        return self._gradient(x, block, d, e)

    def hessian(self, x) -> np.ndarray:
        block = self._whole()
        return self._hessian(block, self._pass(x, block)[2])

    def block_index(self, idx) -> _EdgeBlock:
        """The block ``idx`` and the edges with an end in it, built once per index set."""
        idx = np.asarray(idx, dtype=int)
        key = idx.tobytes()
        if key not in self._blocks:
            g = self.graph
            position = np.full(self.dim, idx.size)
            position[idx] = np.arange(idx.size)
            pj, pm = position[g.j], position[g.m]
            touches = (pj < idx.size) | (pm < idx.size)
            edges = np.flatnonzero(touches)
            pj, pm = pj[edges], pm[edges]
            inner = np.flatnonzero((pj < idx.size) & (pm < idx.size))
            self._blocks[key] = _EdgeBlock(
                idx=idx, j=g.j[edges], m=g.m[edges], counts=g.counts[edges],
                wins=self.wins[edges], ends=np.concatenate((pj, pm)), inner=inner,
                rows=pj[inner], cols=pm[inner], held=np.flatnonzero(~touches),
            )
        return self._blocks[key]

    def evaluate(self, x, block: Optional[_EdgeBlock] = None):
        """Value, gradient and Hessian thunk from one pass over the block's edges.

        Without a block that is every edge.  On a block the value leaves out
        ``held_value``, the edges between held items, and each free item sums
        its own edges in edge order, so the gradient and the Hessian block are
        the bits of the full ones' slices.
        """
        block = self._whole() if block is None else block
        x, d, e = self._pass(x, block)
        value = self._edge_value(d, e, block.counts, block.wins) + self.penalty.quad(x)
        return value, self._gradient(x, block, d, e), lambda: self._hessian(block, e)

    def third_directional(self, x, a, b, c) -> float:
        x = np.asarray(x, dtype=float)
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        c = np.asarray(c, dtype=float)
        gj, gm = self.graph.j, self.graph.m
        w3 = self.graph.counts * phi3(x[gj] - x[gm])
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


def _linf_constants(g: ComparisonGraph, center, radius, d_scales) -> ConditionConstants:
    """Exact per-coordinate sup-norm constants via the separable tensor structure.

    One pass over the edges.  |phi'''| is even, so an edge's term is the same
    seen from either end; only its interval width, the radius over the other
    end's scale, differs between the two ends.
    """
    center = np.asarray(center, dtype=float)
    d = np.asarray(d_scales, dtype=float)
    diffs = center[g.j] - center[g.m]

    # mixed derivatives: each neighbor moves independently in its own interval
    at_j = g.counts * _sup_abs_phi3(diffs - radius / d[g.m], diffs + radius / d[g.m])
    at_m = g.counts * _sup_abs_phi3(diffs - radius / d[g.j], diffs + radius / d[g.j])
    d21_rows = _edge_scatter(g, at_j / d[g.m], at_m / d[g.j])
    d12_rows = _edge_scatter(g, at_j / d[g.m] ** 2, at_m / d[g.j] ** 2)

    # pure third derivative: shared offset of the v-th coordinate.  At radius 0
    # the interval sups above are |phi'''(diffs)|; otherwise a dense scan per row.
    # Every term decays monotonically once the offset pushes all arguments
    # past the |phi'''| peak, so the scan clamps to that window exactly.
    rows = np.flatnonzero(np.diff(g.row_ptr))
    if radius == 0.0:
        pure = _edge_scatter(g, at_j, at_m)
    else:
        pure = np.zeros(g.n)
        for v in rows:
            row = slice(g.row_ptr[v], g.row_ptr[v + 1])
            row_diffs = center[v] - center[g.row_other[row]]
            half = min(2.0 * radius / d[v], float(np.abs(row_diffs).max()) + _T3_PEAK)
            pure[v] = _scan_row_max(row_diffs, g.counts[g.row_edge[row]], half)

    # items without edges have no terms, and d = 0 there under no penalty
    d_rows = d[rows]
    return ConditionConstants(
        tau3=float(np.max(pure[rows] / d_rows**3, initial=0.0)),
        d12=float(np.max(d12_rows[rows] / d_rows, initial=0.0)),
        d21=float(np.max(d21_rows[rows] / d_rows**2, initial=0.0)),
        norm_tag="linf", radii=(float(radius),), method="separable_exact",
    )


def _block_l2_constants(
    g: ComparisonGraph, geometry: BlockGeometry, center, split, radii
) -> ConditionConstants:
    """Rigorous envelope of the Euclidean block constants in the square-root Fisher metrics.

    In the metric M = F^{1/2} of a block F, M^{-1} F M^{-1} = I, and the
    smallest singular value of M is sqrt(lambda_min(F)).  So with kappa_max
    the largest ratio over the edges of sup |phi'''| on the edge's radius
    window to phi'' at the center, each constant is
    2 kappa_max / sqrt(lambda_min) of one block: d12 that of F_tt, d21 that of
    F_nn, and tau3 the larger of the two.
    """
    in_target = np.zeros(g.n, dtype=bool)
    in_target[split.target_idx] = True
    smin_t, smin_n = geometry.tt_smin, geometry.nn_smin

    r_theta, r_nui = float(radii[0]), float(radii[1])
    w_theta = r_theta / smin_t
    w_nui = r_nui / smin_n
    per_end = np.where(in_target, w_theta, w_nui)
    wiggle = per_end[g.j] + per_end[g.m]

    diffs = center[g.j] - center[g.m]
    sup3 = _sup_abs_phi3(diffs - wiggle, diffs + wiggle)
    curv = phi2(diffs)
    kappa_max = float((sup3 / curv).max()) if diffs.size else 0.0

    d12_env = 2.0 * kappa_max / smin_t
    d21_env = 2.0 * kappa_max / smin_n
    return ConditionConstants(
        tau3=max(d12_env, d21_env), d12=d12_env, d21=d21_env, norm_tag="l2",
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
