"""Bradley-Terry-Luce instantiation: comparison graphs, sampling, likelihood.

The penalized negative log-likelihood ships with closed-form derivatives
through third order and with the smoothness constants the expansion and
alternating-minimization certificates consume.  All logistic primitives
work from exp(-|t|), which cannot overflow, so that unbounded score ranges
stay overflow-safe.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import stat
import warnings
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from . import tolerances as tol
from .errors import DimensionMismatch, HessianNotPD
from .expansions import ConditionConstants
from .numkit import BlockGeometry
from .objective import BlockIndex, SmoothObjective, SolveReport, newton_minimize

__all__ = [
    "sigmoid",
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
    "design_status",
    "minimizer_status",
    "fit_penalized_mle",
    "btl_condition_constants",
    "read_observations",
    "write_observations",
    "read_scores",
    "write_scores",
]

# location of the extrema of |phi'''|; phi'''(t) = phi''(t) (1 - 2 sigma(t))
_T3_PEAK = math.log(2.0 + math.sqrt(3.0))


def _sigmoid_from(t, e):
    """sigma(t) from e = exp(-|t|): 1 / (1 + e) where t >= 0, else e / (1 + e).

    e lies in [0, 1], so max(e, t >= 0) is 1 where t >= 0 and e elsewhere, with
    no branch; a NaN t gives a NaN e, which the maximum keeps.
    """
    return np.maximum(e, t >= 0) / (1.0 + e)


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


def _sup_abs_phi3(lo, hi):
    """Exact sup of |phi'''| over [lo, hi], elementwise on interval arrays.

    |phi'''(t)| depends only on |t| and is unimodal there with peak at
    log(2 + sqrt(3)).  Over [lo, hi], |t| spans [near, far], so the maximum is
    at the point of that span closest to the peak: one evaluation per interval.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    near = np.maximum(np.maximum(lo, -hi), 0.0)
    far = np.maximum(-lo, hi)
    return _abs_phi3(np.clip(_T3_PEAK, near, far))


@dataclass(frozen=True)
class ComparisonGraph:
    """Items as vertices, compared pairs as edges with multiplicities.

    Edges are stored as parallel arrays with j < m (0-based), each pair at
    most once.  ``component_labels`` numbers the connected components
    0..k-1, found on first use; disconnected graphs are representable but
    flagged by ``connected``.
    """

    n: int
    j: np.ndarray
    m: np.ndarray
    counts: np.ndarray

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
            if not np.all(np.isfinite(counts) & (counts >= 1)):
                raise ValueError("edge multiplicities must be finite and >= 1")
            keys = j * n + m
            # sampled graphs and written files list their edges in key order: no sort
            if not np.all(keys[1:] > keys[:-1]) and np.any(np.diff(np.sort(keys)) == 0):
                raise ValueError("duplicate edges")
        return cls(n=n, j=j, m=m, counts=counts)

    @property
    def n_edges(self) -> int:
        return int(self.j.size)

    @cached_property
    def component_labels(self) -> np.ndarray:
        return connected_components(_arc_matrix(self.n, self.j, self.m), directed=False)[1]

    @property
    def connected(self) -> bool:
        return bool(self.component_labels.max() == 0)


def _index_dtype(n: int, size: int):
    """The CSR index dtype of an n x n pattern with ``size`` arcs, as scipy picks it."""
    return np.int32 if max(n, size) < 2**31 else np.int64


def _arc_matrix(n: int, tail, head) -> csr_matrix:
    """The n x n CSR pattern of the arcs tail -> head, each row's arcs in input order.

    Built straight from its arrays, without scipy's COO round trip.
    """
    index = _index_dtype(n, tail.size)
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(tail, minlength=n), out=indptr[1:])
    keys = tail.astype(np.uint16) if n <= 2**16 else tail  # numpy counting-sorts 16-bit keys
    heads = head.astype(index, copy=False)[np.argsort(keys, kind="stable")]
    return csr_matrix((np.ones(tail.size), heads, indptr), shape=(n, n))


def _beats_arcs(g: ComparisonGraph, wins) -> tuple[np.ndarray, np.ndarray]:
    """Tails and heads of the beats digraph's arcs, in the CSR index dtype: j -> m for
    each edge whose j won a game, then m -> j for each edge whose m won one."""
    j_won = np.flatnonzero(wins > 0)
    m_won = np.flatnonzero(wins < g.counts)
    k, size = j_won.size, j_won.size + m_won.size
    index = _index_dtype(g.n, size)
    tail, head = np.empty(size, dtype=index), np.empty(size, dtype=index)
    # every position is in range; under the default mode="raise", take fills `out`
    # through a buffer, at about 1.6 times the time
    np.take(g.j, j_won, out=tail[:k], mode="clip")
    np.take(g.m, m_won, out=tail[k:], mode="clip")
    np.take(g.m, j_won, out=head[:k], mode="clip")
    np.take(g.j, m_won, out=head[k:], mode="clip")
    return tail, head


def _differences(x: np.ndarray, block) -> np.ndarray:
    """Each edge's score difference x_j - x_m, over the edges of ``block``."""
    d = x[block.j]
    d -= x[block.m]
    return d


def _scatter(pj, pm, at_j, at_m, size: int) -> np.ndarray:
    """Per-item sums of ``at_j`` over the item numbers ``pj``, then of ``at_m`` over ``pm``.

    Accumulates in place, in input order: ``ufunc.at`` applies its updates in
    index order, so each item's sum goes on over its m ends in edge order.
    Ends at ``size`` are dropped.  The sums are floats even without edges,
    where bincount returns integers.
    """
    sums = np.bincount(pj, at_j, minlength=size + 1).astype(float, copy=False)
    np.add.at(sums, pm, at_m)
    return sums[:size]


def _edge_scatter(graph: ComparisonGraph, at_j, at_m) -> np.ndarray:
    """Per-item sums of ``at_j`` over the j endpoints, then of ``at_m`` over the m endpoints."""
    return _scatter(graph.j, graph.m, at_j, at_m, graph.n)


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
        if not np.all((wins >= 0) & (wins <= self.graph.counts)):  # NaN fails both
            raise ValueError("wins must lie in [0, N] per edge")


@dataclass(frozen=True)
class PenaltySpec:
    """Quadratic penalty 0.5 ||G ups||^2 resolving the shift non-identifiability.

    mean_shift uses G^2 = gsq * e e' with e the normalized all-ones vector,
    pinning only the score mean; ridge uses G^2 = gsq * I.  Both need a finite
    gsq > 0: at 0 neither resolves anything.
    """

    kind: str = "mean_shift"  # "none" | "mean_shift" | "ridge"
    gsq: float = 1.0

    def __post_init__(self):
        if self.kind not in ("none", "mean_shift", "ridge"):
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        if self.kind != "none" and not self.gsq > 0:  # NaN fails too
            raise ValueError(f"a {self.kind} penalty needs gsq > 0, got {self.gsq}")
        if not math.isfinite(self.gsq):
            raise ValueError(f"the penalty strength gsq must be finite, got {self.gsq}")

    @classmethod
    def none(cls) -> "PenaltySpec":
        return cls("none", 0.0)

    @classmethod
    def mean_shift(cls, gsq: float = 1.0) -> "PenaltySpec":
        return cls("mean_shift", gsq)

    @classmethod
    def ridge(cls, gsq: float = 1.0) -> "PenaltySpec":
        return cls("ridge", gsq)

    def curvature(self, n: int) -> tuple[float, float]:
        """G^2 for n items as (every, ridge): G^2 = every * 11' + ridge * I."""
        if self.kind == "mean_shift":
            return self.gsq / n, 0.0
        if self.kind == "ridge":
            return 0.0, self.gsq
        return 0.0, 0.0

    def value(self, v: np.ndarray) -> float:
        """The penalty 0.5 ||G v||^2."""
        if self.kind == "mean_shift":
            return 0.5 * self.gsq * v.sum()**2 / v.size
        if self.kind == "ridge":
            return 0.5 * self.gsq * float(v @ v)
        return 0.0

    def gradient(self, v: np.ndarray, idx):
        """The penalty's gradient on the items ``idx``; where it is the same on every
        item (mean_shift, none), that one number."""
        if self.kind == "mean_shift":
            return self.gsq * v.sum() / v.size
        if self.kind == "ridge":
            return self.gsq * v[idx]
        return 0.0


@dataclass(frozen=True)
class _EdgeBlock(BlockIndex):
    """A coordinate block of a BTL objective and the edges with an end in it.

    The edges keep their edge-list order: endpoints ``j``/``m``, ``counts``
    and ``wins``.  ``pj``/``pm`` hold each edge's j end and m end as a
    position in ``idx``; a held end is at ``idx.size``.  ``inner`` picks the
    edges with both ends in the block.  The other edges of the graph, those
    between held items, are not kept: a block evaluation leaves them out.
    """

    j: np.ndarray
    m: np.ndarray
    counts: np.ndarray
    wins: np.ndarray
    pj: np.ndarray
    pm: np.ndarray
    inner: Union[np.ndarray, slice]

    @cached_property
    def entries(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat positions of the inner edges' (j, m) and (m, j) entries in the Hessian block."""
        size = self.idx.size
        rows, cols = self.pj[self.inner], self.pm[self.inner]
        return rows * size + cols, cols * size + rows


class BtlObjective(SmoothObjective):
    """Penalized negative log-likelihood of paired-comparison outcomes.

    ``wins`` may be real-valued: the expected-mode objective replaces the
    observed win counts by their model expectations.
    """

    # |phi'''| <= phi'' and |u_j - u_m| <= 2 ||u||_inf bound each edge's third derivative
    # along u by 2 ||u||_inf times its second; the quadratic penalty adds to D^2 and
    # nothing to D^3, and a block step is zero on the held items
    third_order_scale = 2.0

    def __init__(self, graph: ComparisonGraph, wins, penalty: PenaltySpec):
        self.graph = graph
        self.wins = np.asarray(wins, dtype=float)
        if self.wins.shape != graph.counts.shape:
            raise DimensionMismatch("wins must align with the edge list")
        self.penalty = penalty
        self.dim = graph.n
        self._blocks: dict[bytes, _EdgeBlock] = {}

    @cached_property
    def _whole(self) -> _EdgeBlock:
        """Every edge, as the block of all items; built once per objective."""
        g = self.graph
        return _EdgeBlock(idx=np.arange(g.n), j=g.j, m=g.m, counts=g.counts, wins=self.wins,
                          pj=g.j, pm=g.m, inner=slice(None))

    def _point(self, x, block: _EdgeBlock, with_gradient: bool = True):
        """One pass over the block's edges at ``x``.

        Returns a thunk that gives the value, the gradient (None unless asked
        for), a thunk that builds the Hessian block, and the edges'
        differences d and e = exp(-|d|).  d and e are formed once and read by
        the gradient; 1 + e is formed where it is read.  The thunks hold e and
        a copy of x alone: the value thunk forms d again from the copy, which
        no caller can write into, so no thunk keeps an edge-length array of
        its own.  The gradient sums each item's edge terms in place, j ends
        first.  The Hessian is the sub-Laplacian of the inner edges, plus
        each item's degree over all its edges on the diagonal, plus the
        penalty block.  It is symmetric bit for bit: each inner edge's entry
        is subtracted once from the penalty's off-diagonal value, the same in
        every entry, and written to both mirrored places.  So Newton solves it
        without ``check_symmetric``.
        """
        x = np.asarray(x, dtype=float)
        d = _differences(x, block)
        e = np.abs(d)
        np.negative(e, out=e)
        np.exp(e, out=e)
        size = block.idx.size
        grad = None
        if with_gradient:
            base = np.maximum(e, d >= 0)  # the logistic numerator, as in _sigmoid_from
            base /= 1.0 + e
            base *= block.counts
            base -= block.wins
            # each edge's term at its j end, minus it at its m end: x - b is x + (-b)
            grad = np.bincount(block.pj, base, minlength=size + 1).astype(float, copy=False)
            np.subtract.at(grad, block.pm, base)
            grad = grad[:size]
            grad += self.penalty.gradient(x, block.idx)
        held = x.copy()

        def value() -> float:
            return self._value(held, block, _differences(held, block), e)

        def hessian() -> np.ndarray:
            w = 1.0 + e
            w *= w  # (1 + e)^2: squaring is one product
            np.divide(e, w, out=w)  # phi''(d), the bits of _phi2_from(e)
            w *= block.counts
            every, ridge = self.penalty.curvature(self.dim)
            h = np.full((size, size), every)  # new: Newton factors each matrix in place
            flat = h.reshape(-1)  # a view of h
            flat[:: size + 1] += _scatter(block.pj, block.pm, w, w, size) + ridge  # the diagonal
            off = w[block.inner]  # on the whole graph w itself, which is not read again
            np.subtract(every, off, out=off)
            upper, lower = block.entries
            flat[upper] = off  # pairs are unique, so no entry is written twice
            flat[lower] = off
            return h

        return value, grad, hessian, d, e

    def _value(self, x, block: _EdgeBlock, d, e) -> float:
        """The block's terms at ``x`` from its edges' d and e = exp(-|d|)."""
        loss = np.maximum(d, 0.0)
        loss += np.log1p(e)
        loss *= block.counts
        np.subtract(d * block.wins, loss, out=loss)
        return -float(loss.sum()) + self.penalty.value(x)

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        _, _, _, d, e = self._point(x, self._whole, with_gradient=False)
        return self._value(x, self._whole, d, e)

    def gradient(self, x) -> np.ndarray:
        return self._point(x, self._whole)[1]

    def hessian(self, x) -> np.ndarray:
        return self._point(x, self._whole, with_gradient=False)[2]()

    def hessian_diagonal(self, x) -> np.ndarray:
        return _hessian_diagonal(self.graph, self.penalty, np.asarray(x, dtype=float))

    def block_index(self, idx) -> _EdgeBlock:
        """The block ``idx`` and the edges with an end in it, built once per index set."""
        idx = np.asarray(idx, dtype=int)
        key = idx.tobytes()
        if key not in self._blocks:
            g = self.graph
            position = np.full(self.dim, idx.size)
            position[idx] = np.arange(idx.size)
            pj, pm = position[g.j], position[g.m]
            edges = np.flatnonzero((pj < idx.size) | (pm < idx.size))
            pj, pm = pj[edges], pm[edges]
            inner = np.flatnonzero((pj < idx.size) & (pm < idx.size))
            self._blocks[key] = _EdgeBlock(
                idx=idx, j=g.j[edges], m=g.m[edges], counts=g.counts[edges],
                wins=self.wins[edges], pj=pj, pm=pm, inner=inner)
        return self._blocks[key]

    def evaluate(self, x, block: Optional[_EdgeBlock] = None):
        """Value, gradient and Hessian thunk from one pass over the block's edges.

        Without a block that is every edge.  On a block the value is the
        block's own terms: it leaves out the edges between held items, which
        depend on the held scores only.  Each free item sums its own edges in
        edge order, so the gradient and the Hessian block are the bits of the
        full ones' slices.
        """
        return self._point(x, self._whole if block is None else block)[:3]

    def third_directional(self, x, a, b, c) -> float:
        x = np.asarray(x, dtype=float)
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        c = np.asarray(c, dtype=float)
        gj, gm = self.graph.j, self.graph.m
        w3 = self.graph.counts * phi3(x[gj] - x[gm])
        return float(np.sum(w3 * (a[gj] - a[gm]) * (b[gj] - b[gm]) * (c[gj] - c[gm])))


# pairs drawn per block by sample_er_graph: memory stays bounded at any item count
_ER_BLOCK_PAIRS = 1 << 20


def sample_er_graph(n: int, p: float, L: int, rng: np.random.Generator) -> ComparisonGraph:
    """Erdos-Renyi comparison design: each pair kept with probability p, L games each.

    The pairs' uniforms come in blocks of at most ``_ER_BLOCK_PAIRS``, so no array
    covers the whole upper triangle.
    """
    if n < 2:
        raise ValueError("need at least two items")
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    if L < 1:
        raise ValueError("need at least one comparison per edge")
    # the pairs in row-major order: row j holds (j, j+1), ..., (j, n-1) from position start[j]
    start = np.zeros(n, dtype=np.int64)
    np.cumsum(np.arange(n - 1, 0, -1), out=start[1:])
    total = n * (n - 1) // 2
    # one uniform per pair, drawn in blocks: the same stream as one draw of all of them
    kept = [a + np.flatnonzero(rng.random(min(_ER_BLOCK_PAIRS, total - a)) < p)
            for a in range(0, total, _ER_BLOCK_PAIRS)]
    k = np.concatenate(kept)
    j = np.searchsorted(start, k, side="right") - 1
    m = j + 1 + (k - start[j])
    return ComparisonGraph.from_edges(n, j, m, np.full(j.size, float(L)))


def _win_probability(graph: ComparisonGraph, truth) -> np.ndarray:
    """Each edge's model probability sigma(truth_j - truth_m) that its j end wins a game."""
    truth = np.asarray(truth, dtype=float)
    if truth.shape[0] != graph.n:
        raise DimensionMismatch(
            f"truth has {truth.shape[0]} scores, the design has {graph.n} items")
    return sigmoid(truth[graph.j] - truth[graph.m])


def sample_outcomes(graph: ComparisonGraph, truth, rng: np.random.Generator) -> BtlObservation:
    """Binomial outcomes: lower-index item wins each game with prob sigma(score gap)."""
    wins = rng.binomial(graph.counts.astype(int), _win_probability(graph, truth)).astype(float)
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
        return BtlObjective(graph, graph.counts * _win_probability(graph, truth), penalty)
    raise ValueError(f"unknown mode {mode!r}")


def noise_gradient(obs: BtlObservation, truth) -> np.ndarray:
    """Gradient of the centered likelihood; constant in the score argument.

    The centered part is linear in the scores, so the gradient depends only
    on the outcome deviations from their expectations.
    """
    return _noise_from(obs, obs.graph.counts * _win_probability(obs.graph, truth))


def _noise_from(obs: BtlObservation, expected_wins) -> np.ndarray:
    """``noise_gradient`` from the expected wins per edge, the ``wins`` of the
    expected-mode objective at the same scores."""
    r = obs.wins - expected_wins
    return _edge_scatter(obs.graph, -r, r)


def _strong_count(obs: BtlObservation) -> int:
    """Strong components of the beats digraph, with an arc j -> m when j won a game against m."""
    beats = _arc_matrix(obs.graph.n, *_beats_arcs(obs.graph, obs.wins))
    return int(connected_components(beats, directed=True, connection="strong",
                                    return_labels=False))


def mle_exists(obs: BtlObservation) -> bool:
    """Finite-minimizer check for shift-penalty-only fits.

    The likelihood has a finite minimizer exactly when each connected
    component of the design is strongly connected in the beats digraph, with
    an arc j -> m when j won a game against m (Ford 1957); a perfect overall
    record for any group of items pushes the fitted gap to infinity.  Every
    compared pair carries an arc, so this holds exactly when the digraph has
    as many strong components as the design has components, as it does with
    one strong component.
    """
    n_strong = _strong_count(obs)
    return bool(n_strong == 1 or n_strong == obs.graph.component_labels.max() + 1)


# why a design without a ridge has no unique fit, or no finite one
DISCONNECTED = ("singular fit: the design is disconnected, so the scores of its components "
                "are not comparable")
DIVERGENT = "divergent: a one-sided win/loss pattern has no finite optimum"


def design_status(obs: BtlObservation) -> Optional[str]:
    """Why the outcomes have no unique finite minimizer without a ridge, or None.

    ``DISCONNECTED`` when the design is disconnected, whatever the outcomes,
    else ``DIVERGENT`` when the MLE is not finite.  One strong component of
    the beats digraph proves both the design connected and the MLE finite
    (every compared pair carries an arc), so the connected components are
    found only when there are two or more strong ones.
    """
    if _strong_count(obs) == 1:
        return None
    return DIVERGENT if obs.graph.connected else DISCONNECTED


def _ridge_mm_step(x, s, wins, gsq: float) -> np.ndarray:
    """Each item's root y of W - s e^{y - x} - gsq y, by Newton steps from above it.

    The function is concave and decreasing in y, so a Newton step from any
    point lands at or above the root, and the steps after it fall
    monotonically to the root.  Where the root lies above x, the first step
    is capped by a second bound, x + log((W - gsq x) / s): at the root
    s e^{y - x} = W - gsq y < W - gsq x.  So no step overshoots far enough
    for the exponential to overflow.
    """
    excess = wins - s - gsq * x  # the function at y = x
    y = x + excess / (s + gsq)
    up = (excess > 0.0) & (s > 0.0)
    y[up] = np.minimum(y[up], x[up] + np.log((wins[up] - gsq * x[up]) / s[up]))
    for _ in range(tol.MM_RIDGE_NEWTON_MAX):
        t = s * np.exp(y - x)
        step = (wins - t - gsq * y) / (t + gsq)
        y += step
        if np.abs(step).max() <= 4.0 * np.finfo(float).eps * (1.0 + np.abs(y).max()):
            break
    return y


def _mm_minimize(obj: BtlObjective, tol_grad: float,
                 max_iter: int = tol.MM_MAX_ITER) -> SolveReport:
    """Minorize-maximize fit of the likelihood (Hunter 2004) from zero, one edge pass per
    iteration.

    With ``s`` the expected wins at x and ``W`` the observed ones (the
    likelihood gradient is s - W), Hunter's majorizer of the negative
    log-likelihood at x separates by item: s_i e^{y_i - x_i} - W_i y_i.
    Unpenalized its minimizer is the Zermelo step x_i + log W_i - log s_i.
    Under a positive ridge each item also carries gsq y_i^2 / 2, and y_i is
    the root of
    W_i - s_i e^{y - x_i} - gsq y (``_ridge_mm_step``), finite for an item
    with no wins or no edges.  Every step is centred, which leaves the
    likelihood unchanged and does not raise the penalty, so the objective
    never increases.  Stops on the gradient sup-norm test of
    ``newton_minimize``.  ``fit_penalized_mle`` runs it only where
    ``minimizer_status`` finds a unique finite minimizer.
    """
    g, block = obj.graph, obj._whole
    wins = _edge_scatter(g, obj.wins, g.counts - obj.wins)
    _, ridge = obj.penalty.curvature(g.n)
    x = np.zeros(g.n)
    for iterations in range(max_iter + 1):
        _, grad, _, d, e = obj._point(x, block)
        gnorm = float(np.abs(grad).max())
        if gnorm <= tol_grad or iterations == max_iter:
            break
        onep = 1.0 + e  # the logistic at d and at -d, as in _sigmoid_from
        s = _edge_scatter(g, g.counts * (np.maximum(e, d >= 0) / onep),
                          g.counts * (np.maximum(e, d <= 0) / onep))
        if ridge > 0.0:
            x = _ridge_mm_step(x, s, wins, ridge)
        else:  # an item without edges (a lone item) keeps its score
            x = x + np.log(np.divide(wins, s, out=np.ones(g.n), where=s > 0.0))
        x -= x.mean()
    converged = gnorm <= tol_grad
    return SolveReport(argmin=x, iterations=iterations, final_grad_supnorm=gnorm,
                       converged=converged, note="" if converged else "iteration cap reached")


def minimizer_status(obs: BtlObservation, penalty: PenaltySpec) -> Optional[str]:
    """Why the ``penalty`` fit of ``obs`` has no unique finite minimizer, or None.

    Without a penalty, any edge leaves the objective flat along score shifts:
    a ValueError, before any design count.  A ridge makes the objective
    strictly convex and coercive, so it always has one; a mean-shift penalty
    pins only the mean score, and ``design_status`` decides.
    """
    if penalty.kind == "none" and obs.graph.n_edges > 0:
        raise ValueError("an unpenalized fit is singular along score shifts; pick a penalty")
    return None if penalty.kind == "ridge" else design_status(obs)


def fit_penalized_mle(
    obs: BtlObservation,
    penalty: PenaltySpec,
    solver: str = "newton",
    tol_grad: float = tol.SOLVER_GRAD_TOL,
) -> SolveReport:
    """Fit the penalized maximum-likelihood scores with ``solver`` "newton" or "mm",
    started at zero.

    Neither solver runs where ``minimizer_status`` names no unique finite
    minimizer (Ford 1957, which Hunter 2004 assumes before an MM fit): a
    disconnected design, or outcomes where some item or group has a perfect
    win/loss record.  Both then return the zero start after 0 iterations,
    not converged, with the status as the note.  An unpenalized fit with
    edges raises the ValueError of ``minimizer_status``.  Where Newton's
    Hessian stops being positive definite, the report holds the start and
    the iteration it stopped at, noted as a singular fit.
    """
    if solver not in ("newton", "mm"):
        raise ValueError(f"unknown solver {solver!r}")
    if not (math.isfinite(tol_grad) and tol_grad > 0):
        raise ValueError(f"the gradient tolerance must be finite and > 0, got {tol_grad}")
    start = np.zeros(obs.graph.n)
    iterations, note = 0, minimizer_status(obs, penalty)
    if note is None:
        obj = btl_objective(obs, penalty, mode="empirical")
        if solver == "mm":
            return _mm_minimize(obj, tol_grad)
        try:
            return newton_minimize(obj, start, tol_grad=tol_grad)
        except HessianNotPD as exc:
            iterations, note = exc.iteration, f"singular fit: {exc}"
    return SolveReport(argmin=start, iterations=iterations, final_grad_supnorm=float("nan"),
                       converged=False, note=note)


def _hessian_diagonal(graph: ComparisonGraph, penalty: PenaltySpec, x: np.ndarray) -> np.ndarray:
    """The penalized Hessian's diagonal at ``x``: each item's degree plus the penalty's.

    The dense Hessian adds the same two numbers on its diagonal, so the bits are its own.
    """
    w = graph.counts * phi2(x[graph.j] - x[graph.m])
    return _edge_scatter(graph, w, w) + sum(penalty.curvature(graph.n))


def _linf_constants(g: ComparisonGraph, center, radius, d_scales) -> ConditionConstants:
    """Per-coordinate sup-norm constants via the separable tensor structure.

    One pass over the edges.  |phi'''| is even, so an edge's term is the same
    seen from either end; only its interval width differs between the two
    ends.  Each term is the exact sup of |phi'''| over its interval, so a row
    sum is the row's supremum at radius 0, where the intervals are points,
    and an upper bound of it otherwise: the sup of a sum is at most the sum
    of the sups.
    """
    center = np.asarray(center, dtype=float)
    d = np.asarray(d_scales, dtype=float)
    dj, dm = d[g.j], d[g.m]
    diffs = center[g.j] - center[g.m]

    def edge_sups(width_j, width_m):
        """Counts times the sup of |phi'''| on diffs -+ the width at each end."""
        return (g.counts * _sup_abs_phi3(diffs - width_j, diffs + width_j),
                g.counts * _sup_abs_phi3(diffs - width_m, diffs + width_m))

    # mixed derivatives: each neighbor moves on its own, within the radius over
    # its own scale.  Pure third derivative: one offset of the v-th coordinate
    # moves all of its row's arguments, within twice the radius over d[v].
    if radius == 0.0:  # every interval is the point diffs
        at_j = at_m = pure_j = pure_m = g.counts * _abs_phi3(diffs)
    else:
        at_j, at_m = edge_sups(radius / dm, radius / dj)
        pure_j, pure_m = edge_sups(2.0 * radius / dj, 2.0 * radius / dm)
    d21_rows = _edge_scatter(g, at_j / dm, at_m / dj)
    d12_rows = _edge_scatter(g, at_j / dm ** 2, at_m / dj ** 2)
    pure = _edge_scatter(g, pure_j, pure_m)

    # items without edges have no terms, and d = 0 there under no penalty
    has_edges = np.zeros(g.n, dtype=bool)
    has_edges[g.j] = has_edges[g.m] = True
    rows = np.flatnonzero(has_edges)
    d_rows = d[rows]
    return ConditionConstants(
        tau3=float(np.max(pure[rows] / d_rows**3, initial=0.0)),
        d12=float(np.max(d12_rows[rows] / d_rows, initial=0.0)),
        d21=float(np.max(d21_rows[rows] / d_rows**2, initial=0.0)),
        norm_tag="linf", radii=(float(radius),), method="edge_interval_sup",
    )


def _block_l2_constants(
    g: ComparisonGraph, geometry: BlockGeometry, center, radii
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
    in_target[geometry.split.target_idx] = True
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
    norm: str = "linf",
    radii=None,
    geometry: Optional[BlockGeometry] = None,
    d_scales=None,
):
    """Smoothness constants of the likelihood around ``center``.

    norm="linf": per-coordinate constants of the sup-norm theory from exact
    per-edge interval sups: exact at radius 0, proven upper bounds at a
    positive radius, in the diagonal metric of the root of the expected
    penalized Hessian's diagonal at ``center``; ``d_scales`` is that root,
    when the caller holds it.
    norm="l2": block constants in the square-root Fisher block metrics of
    ``geometry``, the ``contraction_matrix`` of the expected Fisher matrix at
    ``center`` under a target/nuisance split, returned as their rigorous
    envelope only; O(edges) work per call.
    A negative or NaN radius is refused; an infinite one is a valid bound.
    """
    center = np.asarray(center, dtype=float)
    if center.shape[0] != graph.n:
        raise DimensionMismatch("center length differs from item count")
    if norm == "linf":
        if radius is None:
            raise ValueError("sup-norm constants need a radius")
        if not float(radius) >= 0.0:  # NaN fails too; an infinite radius is a bound
            raise ValueError(f"the radius must be >= 0, got {radius}")
        if d_scales is None:
            d_scales = np.sqrt(_hessian_diagonal(graph, penalty, center))
        return _linf_constants(graph, center, float(radius), d_scales)
    if norm == "l2":
        if geometry is None or radii is None:
            raise ValueError("block constants need a geometry and radii (r_theta, r_nui)")
        if len(radii) != 2 or not all(float(r) >= 0.0 for r in radii):
            raise ValueError(f"the radii must be two numbers >= 0, got {tuple(radii)}")
        if geometry.split.dim != graph.n:
            raise DimensionMismatch(f"geometry split covers {geometry.split.dim} coordinates, "
                                    f"graph has {graph.n} items")
        return _block_l2_constants(graph, geometry, center, radii)
    raise ValueError(f"unknown norm {norm!r}")


# ---------------------------------------------------------------------------
# file formats


# rows that write_observations formats and writes at a time
_WRITE_ROWS = 1 << 16


def _exact_text(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each distinct value's text, %g or repr where %g does not read back equal, and each
    value's index into those texts.

    Values are told apart by their float64 bits, so -0.0 keeps its own text.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    _, first, inverse = np.unique(values.view(np.int64), return_index=True, return_inverse=True)
    distinct = values[first]
    text = [f"{v:g}" for v in distinct.tolist()]
    for i in np.flatnonzero(np.array(text, dtype=float) != distinct):
        text[i] = repr(float(distinct[i]))
    return np.array(text, dtype=object), inverse


def write_observations(path, obs: BtlObservation) -> None:
    """CSV with header j,m,N,S; indices are 1-based and j < m.

    Each item index and each distinct N and S value is formatted once, and rows are
    written in blocks of ``_WRITE_ROWS``.
    """
    g = obs.graph
    labels = np.array([str(i) for i in range(1, g.n + 1)], dtype=object)
    columns = [(labels, g.j), (labels, g.m), _exact_text(g.counts), _exact_text(obs.wins)]
    with open(path, "w", newline="") as fh:
        fh.write("j,m,N,S\r\n")
        for a in range(0, g.n_edges, _WRITE_ROWS):
            rows = zip(*[text[index[a:a + _WRITE_ROWS]].tolist() for text, index in columns])
            fh.write("".join([f"{j},{m},{c},{s}\r\n" for j, m, c, s in rows]))


_OBSERVATION_TYPES = {"j": np.int64, "m": np.int64, "N": np.float64, "S": np.float64}
_SCORE_TYPES = {"item": np.int64, "score": np.float64}
# numpy.loadtxt decompresses a file named with one of these suffixes
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")


def _numbered(lines, first: int) -> list:
    """(line number, text) of each non-blank line, the first one numbered ``first``."""
    return [(number, line) for number, line in enumerate(lines, first) if line.strip("\r\n")]


class _DataRows:
    """Where numpy reads the data rows of an open CSV file whose header ``reader`` has read.

    numpy reads a file by its name in chunks, where it takes an open file line
    by line; but a pipe can be read only once, and numpy decompresses by the
    suffix.  So a regular file with a plain name is parsed by its name, past
    the header, and read again only to find a bad row.  Any other source is
    read once, here: its lines are both the ones parsed and the ones scanned.
    """

    def __init__(self, path, fh, reader):
        self.path = path
        filename = os.fsdecode(path)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) and not filename.endswith(_COMPRESSED):
            self.source, self.skiprows = filename, reader.line_num  # a quoted header may span lines
            self._lines = None
        else:
            self.source, self.skiprows = list(fh), 0
            self._lines = _numbered(self.source, reader.line_num + 1)

    @property
    def lines(self) -> list:
        """(line number, text) of each non-blank data line; the header is line 1."""
        if self._lines is None:  # a file numpy read by its name, past the header
            with open(self.path, newline="") as fh:
                self._lines = _numbered(itertools.islice(fh, self.skiprows, None),
                                        self.skiprows + 1)
        return self._lines


def _fields(line: str, columns: dict) -> str:
    """``name='text'`` of each of the ``columns`` in ``line``; None past its end."""
    fields = next(csv.reader([line]))
    return ", ".join(f"{name}={fields[i] if i < len(fields) else None!r}"
                     for name, i in columns.items())


def _parse_rows(source, types: dict, columns: dict, skiprows: int = 0) -> np.ndarray:
    """Parse CSV data lines into a record array; ``columns`` maps names to positions,
    ``types`` names to dtypes.

    ``source`` is a file path, which numpy reads in chunks, or a list of lines;
    its first ``skiprows`` physical lines are skipped.
    """
    with warnings.catch_warnings():
        # a header-only file has no rows, and that is not worth a warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        # numpy from 1.23 until the fallback was removed parses an integer field like "3.0"
        # or "1e3" via a float and only warns; raised inside the converter, the warning
        # becomes loadtxt's ValueError for that row
        warnings.filterwarnings("error", category=DeprecationWarning)
        return np.loadtxt(
            source, dtype=[(name, types[name]) for name in columns],
            delimiter=",", comments=None, quotechar='"', usecols=list(columns.values()), ndmin=1,
            skiprows=skiprows,
        )


def _open_rows(path, required: tuple):
    """The columns of the CSV file ``path`` and its ``_DataRows``.

    The columns map each name of ``required`` to its position in the header
    (names stripped); a missing name or a file with no header raises a
    ValueError that names the file.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        position = {name.strip(): i for i, name in enumerate(header)}
        missing = set(required) - position.keys()
        if missing:
            raise ValueError(f"{path}: missing columns {sorted(missing)}")
        columns = {name: position[name] for name in required}
        return columns, _DataRows(path, fh, reader)


def _scan(rows: _DataRows, columns: dict, parse, malformed: str,
          check=lambda table: True, failure: str = "") -> np.ndarray:
    """The table ``parse(source, columns, skiprows)`` reads from ``rows``, if it passes
    ``check``.

    Otherwise raise a ValueError naming the first line, in file order, that
    does not parse on its own (``malformed``) or whose row fails ``check``
    (``failure``), with that line's fields.
    """
    try:
        table = parse(rows.source, columns, rows.skiprows)
        problem = None if check(table) else failure
    except ValueError as exc:
        problem = exc
    if problem is None:
        return table
    # only now look for the line
    for number, line in rows.lines:
        try:
            reason = None if check(parse([line], columns)) else failure
        except ValueError:
            reason = malformed
        if reason is not None:
            raise ValueError(f"{rows.path}, line {number}: {reason}; "
                             f"got {_fields(line, columns)}")
    raise ValueError(f"{rows.path}: {problem}")


def _parse_observation_rows(source, columns: dict, skiprows: int = 0) -> np.ndarray:
    """Observation rows with every column as integers if every field is one, else N and S
    as floats.

    numpy's integer parser is the faster one.  An integer field's int64 value
    converts to the float64 that the float parser reads from the same text:
    both round to nearest, ties to even.  A field beyond the int64 range fails
    the integer parse with a ValueError, and the float parse reads it.  Only
    ``-0`` differs: as an integer it is +0.0.
    """
    try:
        return _parse_rows(source, dict.fromkeys(columns, np.int64), columns, skiprows)
    except ValueError:
        return _parse_rows(source, _OBSERVATION_TYPES, columns, skiprows)


def read_observations(path) -> BtlObservation:
    """Read an observation CSV with columns j, m, N and S.

    The item count is the largest index present.  A malformed row raises a
    ValueError that names the file and the row's line number (the header is
    line 1).
    """
    columns, rows = _open_rows(path, ("j", "m", "N", "S"))
    table = _scan(rows, columns, _parse_observation_rows,
                  "j and m must be integers and the other fields numbers")
    j, m, counts, wins = table["j"], table["m"], table["N"].astype(float), table["S"].astype(float)
    n = int(m.max(initial=1))
    try:
        graph = ComparisonGraph.from_edges(n, j - 1, m - 1, counts)
        return BtlObservation(graph=graph, wins=wins)
    except ValueError:
        # the constructors check every row; only now find the first bad one
        _raise_bad_row(rows, n, j, m, counts, wins)
        raise


def _raise_bad_row(rows: _DataRows, n: int, j, m, counts, wins) -> None:
    """Raise a ValueError naming the file line of the first row that breaks a rule, if any."""
    _, first, inverse = np.unique(j * (n + 1) + m, return_index=True, return_inverse=True)
    first = first[inverse]
    checks = [
        (np.minimum(j, m) >= 1, "item indices start at 1"),
        (j < m, "need j < m"),
        (np.isfinite(counts) & (counts >= 1), "N must be a finite number >= 1"),
        (first == np.arange(j.size), "the pair is already on line {first}"),
        ((wins >= 0) & (wins <= counts), "S must lie in [0, N]"),
    ]
    failures = [(np.argmin(ok), reason) for ok, reason in checks if not ok.all()]
    if failures:
        k, reason = min(failures, key=lambda failure: failure[0])
        lines = [number for number, _ in rows.lines]
        raise ValueError(
            f"{rows.path}, line {lines[k]}: {reason.format(first=lines[first[k]])}; "
            f"got j={j[k]}, m={m[k]}, N={counts[k]:g}, S={wins[k]:g}"
        ) from None


def write_scores(path, scores) -> None:
    """CSV with header item,score; items are 1-based, scores ``.17g``, lines end in ``\\r\\n``."""
    scores = np.asarray(scores, dtype=float)
    rows = "".join([f"{i},{s:.17g}\r\n" for i, s in enumerate(scores.tolist(), 1)])
    with open(path, "w", newline="") as fh:
        fh.write("item,score\r\n" + rows)


def read_scores(path) -> np.ndarray:
    """Read a scores CSV; the item ids must be exactly 1..k, in any order.

    A row whose id is not an integer or whose score is not a finite number
    raises a ValueError that names the file and the row's line number (the
    header is line 1).
    """
    columns, rows = _open_rows(path, ("item", "score"))
    table = _scan(
        rows, columns,
        lambda source, columns, skiprows=0: _parse_rows(source, _SCORE_TYPES, columns, skiprows),
        "item must be an integer and score a number",
        lambda table: np.isfinite(table["score"]).all(), "score must be finite")
    items = table["item"]
    order = np.argsort(items, kind="stable")
    expected = range(1, items.size + 1)
    if not np.array_equal(items[order], expected):
        ids = Counter(items.tolist())
        raise ValueError(
            f"{path}: item ids must be exactly 1..{items.size}; "
            f"duplicated {sorted(i for i, c in ids.items() if c > 1)}, "
            f"missing {sorted(set(expected) - ids.keys())}, "
            f"out of range {sorted(ids.keys() - set(expected))}"
        )
    return table["score"][order]
