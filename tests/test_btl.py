"""Comparison graphs, outcome sampling, likelihood derivatives, constants."""

import itertools
import math
import os
import threading
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from conftest import expected_geometry
from perturbopt.btl import (
    DISCONNECTED,
    DIVERGENT,
    BtlObjective,
    BtlObservation,
    ComparisonGraph,
    PenaltySpec,
    btl_condition_constants,
    btl_objective,
    design_status,
    fit_penalized_mle,
    mle_exists,
    noise_gradient,
    phi2,
    phi3,
    read_observations,
    read_scores,
    sample_er_graph,
    sample_outcomes,
    sigmoid,
    write_observations,
    write_scores,
)
from perturbopt import btl
from perturbopt.btl import _T3_PEAK, _abs_phi3, _mm_minimize, _sup_abs_phi3
from perturbopt import tolerances as tol
from perturbopt.errors import DimensionMismatch
from perturbopt.numkit import BlockSplit, finite_diff_check, psd_power
from perturbopt.objective import LinearPerturbation


def _complete_graph(n, L=1):
    iu, im = np.triu_indices(n, k=1)
    return ComparisonGraph.from_edges(n, iu, im, np.full(iu.size, float(L)))


def _one_shot_er(n, p, rng):
    """Erdos-Renyi pairs from one uniform draw over the whole upper triangle."""
    iu, im = np.triu_indices(n, k=1)
    keep = rng.random(iu.size) < p
    return iu[keep], im[keep]


class TestSampling:
    def test_complete_graph(self):
        g = sample_er_graph(4, 1.0, 1, np.random.default_rng(0))
        assert g.n_edges == 6 and g.connected

    def test_empty_graph(self):
        g = sample_er_graph(5, 0.0, 1, np.random.default_rng(0))
        assert g.n_edges == 0 and not g.connected

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 40), p=st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
           seed=st.integers(0, 2**32 - 1), block=st.integers(1, 7))
    def test_blocks_draw_the_one_shot_graph(self, n, p, seed, block):
        # blocks of 1-7 pairs cross row ends; the graph and the stream after it are the same
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        with mock.patch.object(btl, "_ER_BLOCK_PAIRS", block):
            g = sample_er_graph(n, p, 2, rng)
        j, m = _one_shot_er(n, p, ref_rng)
        assert g.j.dtype == j.dtype and np.array_equal(g.j, j) and np.array_equal(g.m, m)
        assert rng.random() == ref_rng.random()

    def test_blocks_of_the_module_size(self):
        # 1,124,250 pairs: two blocks of 2**20
        rng, ref_rng = np.random.default_rng(4), np.random.default_rng(4)
        g = sample_er_graph(1500, 0.01, 1, rng)
        j, m = _one_shot_er(1500, 0.01, ref_rng)
        assert np.array_equal(g.j, j) and np.array_equal(g.m, m)
        assert rng.random() == ref_rng.random()

    def test_edge_count_binomial(self):
        n = 100
        p = math.log(n) ** 3 / n
        m_pairs = n * (n - 1) // 2
        counts = [
            sample_er_graph(n, p, 1, np.random.default_rng(seed)).n_edges
            for seed in range(200)
        ]
        sigma_mean = math.sqrt(m_pairs * p * (1 - p) / 200)
        assert abs(np.mean(counts) - p * m_pairs) <= 3 * sigma_mean

    def test_outcome_probabilities(self):
        assert sigmoid(0.0) == pytest.approx(0.5)
        assert sigmoid(math.log(3.0)) == pytest.approx(0.75)

    def test_outcome_frequencies_binomial(self):
        g = ComparisonGraph.from_edges(2, [0], [1], [10_000.0])
        obs = sample_outcomes(g, np.zeros(2), np.random.default_rng(1))
        assert abs(obs.wins[0] / 10_000.0 - 0.5) <= 0.015  # 3 sigma

    def test_wins_validated(self):
        g = _complete_graph(3)
        with pytest.raises(ValueError):
            BtlObservation(graph=g, wins=np.array([2.0, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_wins_rejected(self, bad):
        g = ComparisonGraph.from_edges(3, [0, 1], [1, 2], [2.0, 2.0])
        with pytest.raises(ValueError, match=r"wins must lie in \[0, N\]"):
            BtlObservation(graph=g, wins=np.array([bad, 1.0]))


def _closure(adj):
    """Reflexive transitive closure of a boolean adjacency matrix (Warshall)."""
    reach = adj | np.eye(adj.shape[0], dtype=bool)
    for k in range(adj.shape[0]):
        reach |= reach[:, [k]] & reach[[k], :]
    return reach


@st.composite
def _observations(draw):
    """Random designs on n <= 8 items: any edge subset, multiplicity and win count."""
    n = draw(st.integers(1, 8))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    counts = [draw(st.integers(1, 3)) for _ in chosen]
    # one-sided records (S = 0 or S = N) are the cases that decide existence
    wins = [draw(st.sampled_from([0, c, draw(st.integers(0, c))])) for c in counts]
    graph = ComparisonGraph.from_edges(n, [a for a, _ in chosen], [b for _, b in chosen],
                                       np.array(counts, dtype=float))
    return BtlObservation(graph=graph, wins=np.array(wins, dtype=float))


@st.composite
def _file_observations(draw):
    """Random designs on n <= 30 items with any finite counts N >= 1 and wins S in [0, N]."""
    pairs = list(itertools.combinations(range(30), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=40))
    counts = [draw(st.floats(min_value=1.0, allow_infinity=False)) for _ in chosen]
    wins = [draw(st.sampled_from([0.0, c, draw(st.floats(min_value=0.0, max_value=c))]))
            for c in counts]
    n = max((b + 1 for _, b in chosen), default=1)  # the reader takes n from the largest index
    graph = ComparisonGraph.from_edges(n, [a for a, _ in chosen], [b for _, b in chosen],
                                       np.array(counts))
    return BtlObservation(graph=graph, wins=np.array(wins))


# counts whose text takes each of the writer's forms: integers, halves, %g's exponent
# form (1e+06), and values %g rounds (1.23457e+06, 123456), written by repr
_COUNT_POOL = [1.0, 2.0, 3.0, 1.5, 2.5, 1e6, 2e6, 1234567.0, 123456.5]


@st.composite
def _written_observations(draw):
    """Designs on 12 items whose N and S columns mix repeated values of every text form
    (signed zeros and subnormals among the wins) with all-distinct real values."""
    pairs = list(itertools.combinations(range(12), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=40))
    counts = [draw(st.sampled_from(_COUNT_POOL) | st.floats(1.0, 1e12)) for _ in chosen]
    wins = [draw(st.sampled_from([0.0, -0.0, 5e-324, 2.5e-310, 0.5, 1.0, c / 2, c])
                 | st.floats(0.0, c)) for c in counts]
    graph = ComparisonGraph.from_edges(12, [a for a, _ in chosen], [b for _, b in chosen],
                                       np.array(counts))
    return BtlObservation(graph=graph, wins=np.array(wins))


def _per_value_text(values):
    """Each value as %g, or as repr where %g does not read back equal, formatted row by row."""
    text = [f"{v:g}" for v in values.tolist()]
    for i in np.flatnonzero(np.array(text, dtype=float) != values):
        text[i] = repr(float(values[i]))
    return text


def _observation_layout(header, rows, order, columns, newline="\n", pad=False, blank=False,
                        extra=False):
    """CSV text of the same observations with rows and columns rearranged."""
    header = [f" {header[c]} " if pad else header[c] for c in columns] + (["note"] * extra)
    lines = [header] + [[rows[r][c] for c in columns] + (["x"] * extra) for r in order]
    return (newline * (1 + blank)).join(",".join(fields) for fields in lines) + newline


def _penalty_grad(penalty, x):
    """The gradient of 0.5 ||G x||^2, written out per penalty kind."""
    if penalty.kind == "mean_shift":
        return np.full_like(x, penalty.gsq * x.sum() / x.size)
    if penalty.kind == "ridge":
        return penalty.gsq * x
    return np.zeros_like(x)


def _penalty_matrix(penalty, n):
    """G^2 for n items, written out per penalty kind."""
    if penalty.kind == "mean_shift":
        return np.full((n, n), penalty.gsq / n)
    if penalty.kind == "ridge":
        return penalty.gsq * np.eye(n)
    return np.zeros((n, n))


class TestGraphOracle:
    @settings(max_examples=300, deadline=None)
    @given(_observations())
    def test_components_and_existence_against_closure(self, obs):
        g = obs.graph
        undirected = np.zeros((g.n, g.n), dtype=bool)
        undirected[g.j, g.m] = undirected[g.m, g.j] = True
        weak = _closure(undirected)
        n_components = len({tuple(row) for row in weak})
        assert g.connected == bool(weak.all())
        assert sorted(set(g.component_labels.tolist())) == list(range(n_components))
        assert np.array_equal(weak, g.component_labels[:, None] == g.component_labels[None, :])

        beats = np.zeros((g.n, g.n), dtype=bool)
        beats[g.j[obs.wins > 0], g.m[obs.wins > 0]] = True
        beats[g.m[obs.wins < g.counts], g.j[obs.wins < g.counts]] = True
        strong = _closure(beats)
        assert mle_exists(obs) == bool(np.all(~weak | (strong & strong.T)))

    def test_scatter_matches_add_at_reference(self):
        rng = np.random.default_rng(14)
        graphs = [ComparisonGraph.from_edges(1, [], [], []), sample_er_graph(5, 0.0, 3, rng)]
        for n, p in ((30, 0.4), (60, 0.1)):
            g = sample_er_graph(n, p, 3, rng)
            perm = rng.permutation(g.n_edges)  # unsorted edge lists change summation order
            graphs += [g, ComparisonGraph.from_edges(n, g.j[perm], g.m[perm], g.counts[perm])]
        for g in graphs:
            n = g.n
            truth = rng.uniform(0, 2, n)
            obs = sample_outcomes(g, truth, rng)
            x = rng.uniform(-1, 1, n)
            d = x[g.j] - x[g.m]
            for penalty in (PenaltySpec.none(), PenaltySpec.mean_shift(2.0),
                            PenaltySpec.ridge(0.5)):
                obj = btl_objective(obs, penalty)
                base_grad = g.counts * sigmoid(d) - obs.wins
                grad = np.zeros(n)
                np.add.at(grad, g.j, base_grad)
                np.add.at(grad, g.m, -base_grad)
                assert np.array_equal(obj.gradient(x), grad + _penalty_grad(penalty, x))

                w = g.counts * phi2(d)
                hess = _penalty_matrix(penalty, n)
                np.add.at(hess, (g.j, g.m), -w)
                np.add.at(hess, (g.m, g.j), -w)
                diag = np.zeros(n)
                np.add.at(diag, g.j, w)
                np.add.at(diag, g.m, w)
                hess[np.diag_indices(n)] += diag
                assert np.array_equal(obj.hessian(x), hess)

            r = obs.wins - g.counts * sigmoid(truth[g.j] - truth[g.m])
            noise = np.zeros(n)
            np.add.at(noise, g.j, -r)
            np.add.at(noise, g.m, r)
            got = noise_gradient(obs, truth)
            assert got.dtype == noise.dtype and np.array_equal(got, noise)


class TestGraphValidation:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            ComparisonGraph.from_edges(3, [0, 0], [1, 1], [1.0, 1.0])

    def test_rejects_duplicates_out_of_order(self):
        with pytest.raises(ValueError, match="duplicate edges"):
            ComparisonGraph.from_edges(3, [0, 1, 0], [2, 2, 2], [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("j, m", [
        ([0, 0, 1, 0], [1, 2, 2, 1]),  # in key order but for the last edge, a repeat
        ([0, 0, 1], [1, 1, 2]),  # in key order, one pair twice in a row
    ], ids=["repeat_last", "repeat_adjacent"])
    def test_rejects_duplicates_near_key_order(self, j, m):
        # the sort is skipped only for strictly increasing keys j*n + m
        with pytest.raises(ValueError, match="^duplicate edges$"):
            ComparisonGraph.from_edges(3, j, m, np.ones(len(j)))

    def test_accepts_unsorted_unique_edges(self):
        g = ComparisonGraph.from_edges(4, [2, 0, 1, 0], [3, 2, 3, 1], [1.0, 2.0, 3.0, 4.0])
        assert g.n_edges == 4 and g.connected

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            ComparisonGraph.from_edges(3, [1], [1], [1.0])

    def test_disconnected_flagged(self):
        g = ComparisonGraph.from_edges(4, [0], [1], [1.0])
        assert not g.connected
        assert np.unique(g.component_labels).size == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_multiplicities(self, bad):
        with pytest.raises(ValueError, match="multiplicities must be finite"):
            ComparisonGraph.from_edges(3, [0, 1], [1, 2], [1.0, bad])


@st.composite
def _edge_lists(draw):
    """Edge lists on n <= 300 items in any order, isolated items common."""
    n = draw(st.integers(1, 300))
    iu, im = np.triu_indices(n, k=1)
    codes = draw(st.lists(st.integers(0, max(iu.size - 1, 0)), unique=True, max_size=150)
                 if iu.size else st.just([]))
    return n, iu[codes], im[codes]


def _components_reference(n, j, m):
    """Component labels by union-find, numbered in order of each component's first item."""
    parent = list(range(n))

    def root(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for a, b in zip(j.tolist(), m.tolist()):
        parent[root(a)] = root(b)
    first = {}
    return np.array([first.setdefault(root(v), len(first)) for v in range(n)])


class TestGraphComponents:
    @settings(max_examples=150, deadline=None)
    @given(_edge_lists())
    def test_components_match_a_union_find_reference(self, edges):
        n, j, m = edges
        g = ComparisonGraph.from_edges(n, j, m, np.ones(j.size))
        labels = _components_reference(n, j, m)
        assert np.array_equal(g.component_labels, labels)
        assert g.connected == (labels.max() == 0)


def _coo_graph_reference(n, j, m, counts, wins):
    """Component count and labels, and finite-MLE existence, through scipy's COO constructor."""
    k, labels = connected_components(csr_matrix((np.ones(j.size), (j, m)), shape=(n, n)),
                                     directed=False)
    j_won, m_won = wins > 0, wins < counts
    tail = np.concatenate((j[j_won], m[m_won]))
    head = np.concatenate((m[j_won], j[m_won]))
    beats = csr_matrix((np.ones(tail.size), (tail, head)), shape=(n, n))
    n_strong = connected_components(beats, directed=True, connection="strong",
                                    return_labels=False)
    return k, labels, n_strong == k


class TestGraphBuild:
    @settings(max_examples=150, deadline=None)
    @given(_edge_lists(), st.integers(0, 2**32 - 1))
    def test_matches_the_coo_built_reference(self, edges, seed):
        """Also on edge lists that are unsorted, and on each one shuffled."""
        n, j, m = edges
        rng = np.random.default_rng(seed)
        counts = rng.integers(1, 4, j.size).astype(float)
        # one-sided records (S = 0 or S = N) decide existence
        wins = np.choose(rng.integers(0, 3, j.size),
                         [np.zeros(j.size), counts, rng.integers(0, counts + 1).astype(float)])
        perm = rng.permutation(j.size)
        for order in (np.arange(j.size), perm):
            jo, mo, co, wo = j[order], m[order], counts[order], wins[order]
            k, labels, exists = _coo_graph_reference(n, jo, mo, co, wo)
            g = ComparisonGraph.from_edges(n, jo, mo, co)
            assert g.connected == (k == 1)
            assert g.component_labels.dtype == labels.dtype
            assert np.array_equal(g.component_labels, labels)
            assert mle_exists(BtlObservation(graph=g, wins=wo)) == exists

    def test_index_arrays_share_a_dtype(self):
        g = sample_er_graph(30, 0.3, 2, np.random.default_rng(3))
        for tail, head in ((g.j, g.m), (g.m[::-1], g.j[::-1]), (g.j[:0], g.m[:0])):
            arcs = btl._arc_matrix(g.n, tail, head)
            assert arcs.indices.dtype == arcs.indptr.dtype
            assert arcs.nnz == tail.size and arcs.shape == (g.n, g.n)


@st.composite
def _design_records(draw):
    """Edge lists on n <= 9 items with integer or real counts N >= 1 and wins S in [0, N]."""
    n = draw(st.integers(1, 9))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True) if pairs else st.just([]))
    counts = [draw(st.sampled_from([1.0, 2.0, 3.0, draw(st.floats(1.0, 5.0))])) for _ in chosen]
    # one-sided records (S = 0 or S = N) are the cases that decide existence
    wins = [draw(st.sampled_from([0.0, c, float(draw(st.integers(0, int(c)))),
                                  draw(st.floats(0.0, c))])) for c in counts]
    return (n, np.array([a for a, _ in chosen], dtype=int), np.array([b for _, b in chosen], dtype=int),
            np.array(counts), np.array(wins))


def _two_pass_reference(n, j, m, counts, wins):
    """Labels and the three answers from two scipy passes: the undirected one over the
    design, and the strong one over beats arcs gathered from endpoint concatenations."""
    k, labels = connected_components(btl._arc_matrix(n, j, m), directed=False)
    won = np.flatnonzero(np.concatenate((wins > 0, wins < counts)))  # j won, then m won
    beats = btl._arc_matrix(n, np.concatenate((j, m)).take(won), np.concatenate((m, j)).take(won))
    n_strong = connected_components(beats, directed=True, connection="strong",
                                    return_labels=False)
    status = DISCONNECTED if k > 1 else (DIVERGENT if n_strong > 1 else None)
    return labels, k == 1, n_strong == k, status


class TestDesignStatus:
    @settings(max_examples=300, deadline=None)
    @given(_design_records())
    @example((1, np.array([], dtype=int), np.array([], dtype=int), np.array([]), np.array([])))
    # items 2 and 3 without edges: disconnected, each component strongly connected
    @example((4, np.array([0]), np.array([1]), np.array([2.0]), np.array([1.0])))
    # disconnected and one-sided
    @example((4, np.array([0, 2]), np.array([1, 3]), np.array([3.0, 3.0]), np.array([3.0, 1.0])))
    # connected, real-valued, one edge one-sided inside a cycle
    @example((3, np.array([0, 0, 1]), np.array([1, 2, 2]), np.array([2.5, 1.0, 4.0]),
              np.array([2.5, 0.5, 1.75])))
    # connected and divergent
    @example((3, np.array([0, 1]), np.array([1, 2]), np.array([3.0, 3.0]), np.array([3.0, 1.5])))
    def test_matches_the_two_pass_definition(self, record):
        n, j, m, counts, wins = record
        labels, connected, exists, status = _two_pass_reference(n, j, m, counts, wins)
        obs = BtlObservation(graph=ComparisonGraph.from_edges(n, j, m, counts), wins=wins)
        assert design_status(obs) == status
        assert mle_exists(obs) is exists
        assert obs.graph.connected is connected
        assert obs.graph.component_labels.dtype == labels.dtype
        assert np.array_equal(obs.graph.component_labels, labels)

    def test_beats_arcs_match_the_concatenated_gather(self):
        rng = np.random.default_rng(8)
        g = sample_er_graph(40, 0.3, 2, rng)
        wins = rng.integers(0, 3, g.n_edges).astype(float)
        won = np.flatnonzero(np.concatenate((wins > 0, wins < g.counts)))
        tail, head = btl._beats_arcs(g, wins)
        assert tail.dtype == head.dtype == np.int32
        assert np.array_equal(tail, np.concatenate((g.j, g.m)).take(won))
        assert np.array_equal(head, np.concatenate((g.m, g.j)).take(won))


class TestObjectiveValues:
    def test_single_pair_closed_forms(self):
        g = ComparisonGraph.from_edges(2, [0], [1], [1.0])
        obs = BtlObservation(graph=g, wins=np.array([1.0]))
        obj = btl_objective(obs, PenaltySpec.none())
        x = np.zeros(2)
        assert obj.value(x) == pytest.approx(math.log(2.0))
        np.testing.assert_allclose(obj.gradient(x), [-0.5, 0.5])
        np.testing.assert_allclose(obj.hessian(x),
                                   [[0.25, -0.25], [-0.25, 0.25]])

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        g = _complete_graph(3)
        obs = sample_outcomes(g, rng.uniform(0, 2, 3), rng)
        obj = btl_objective(obs, PenaltySpec.none())
        rep = finite_diff_check(obj, rng.uniform(-1, 1, 3))
        assert rep.grad_err <= 1e-6

    def test_expected_mode_minimized_at_truth(self):
        rng = np.random.default_rng(3)
        g = _complete_graph(6, L=2)
        truth = rng.uniform(0, 2, 6)
        truth -= truth.mean()
        obj = btl_objective(g, PenaltySpec.mean_shift(1.0), mode="expected", truth=truth)
        assert np.abs(obj.gradient(truth)).max() <= 1e-12


class TestFisherStructure:
    def test_row_sums_vanish_and_eigenvalues_bounded(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(3, 9))
            g = sample_er_graph(n, 0.8, int(rng.integers(1, 4)), rng)
            x = rng.uniform(-2, 2, n)
            fisher = btl_objective(g, PenaltySpec.none(), mode="expected",
                                   truth=x).hessian(x)
            assert np.abs(fisher @ np.ones(n)).max() <= 1e-10
            eigs = np.linalg.eigvalsh(fisher)
            assert eigs.min() >= -1e-9
            assert eigs.max() <= 2 * np.diag(fisher).max() + 1e-9

    def test_mean_shift_penalty_makes_it_positive_definite(self):
        rng = np.random.default_rng(5)
        g = _complete_graph(5, L=2)
        x = rng.uniform(-1, 1, 5)
        fisher = btl_objective(g, PenaltySpec.mean_shift(1.0), mode="expected",
                               truth=x).hessian(x)
        assert np.linalg.eigvalsh(fisher).min() > 0

    @settings(max_examples=30, deadline=None)
    @given(st.floats(-50, 50), st.integers(0, 10_000))
    def test_shift_invariance(self, shift, seed):
        rng = np.random.default_rng(seed)
        g = _complete_graph(4, L=2)
        obs = sample_outcomes(g, rng.uniform(0, 2, 4), rng)
        obj = btl_objective(obs, PenaltySpec.none())
        x = rng.uniform(-1, 1, 4)
        v0, v1 = obj.value(x), obj.value(x + shift)
        assert abs(v1 - v0) <= 1e-10 * max(1.0, abs(v0), abs(v1))


@st.composite
def _objective_point_block(draw):
    """A BTL objective on a random design (any penalty), a point, and a coordinate block."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 14))
    graph = sample_er_graph(n, draw(st.sampled_from([0.0, 0.3, 0.7, 1.0])),
                            draw(st.integers(1, 4)), rng)
    wins = rng.integers(0, graph.counts.astype(int) + 1).astype(float)
    kind = draw(st.sampled_from(["none", "mean_shift", "ridge"]))
    gsq = 0.0 if kind == "none" else draw(st.floats(0.01, 20.0))
    x = rng.uniform(-1.0, 1.0, n) * draw(st.sampled_from([0.01, 1.0, 40.0]))
    idx = rng.permutation(n)[:draw(st.integers(1, n))]
    return BtlObjective(graph, wins, PenaltySpec(kind, gsq)), x, idx


def _same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _close(value, reference, scale=None) -> bool:
    """Within 1e-13 of ``scale``, by default ``|reference|``.

    Every term of a BTL value is nonnegative, so its rounding is relative to it.
    """
    return abs(value - reference) <= 1e-13 * abs(reference if scale is None else scale)


class TestDerivativeExactness:
    """Block and full evaluations give the separate derivatives, bit for bit."""

    @pytest.mark.parametrize("penalty", [PenaltySpec.none(), PenaltySpec.mean_shift(2.0),
                                         PenaltySpec.ridge(0.5)])
    def test_hessians_exactly_symmetric(self, penalty):
        """Bits, not values: array_equal takes -0.0 and 0.0 as equal."""
        rng = np.random.default_rng(13)
        g = sample_er_graph(12, 0.6, 3, rng)
        obj = BtlObjective(g, rng.integers(0, 4, g.n_edges).astype(float), penalty)
        x = rng.uniform(-2, 2, 12)
        blocks = [obj.hessian(x), obj.evaluate(x)[2]()]
        blocks += [obj.evaluate(x, obj.block_index(idx))[2]()
                   for idx in (np.arange(6), np.arange(6, 12), rng.permutation(12)[:7])]
        for h in blocks:
            assert h.tobytes() == h.T.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(_objective_point_block())
    def test_hessians_exactly_symmetric_drawn(self, case):
        """Newton solves these without check_symmetric, and spd_solve reads one triangle."""
        obj, x, idx = case
        hessians = (obj.hessian(x), obj.evaluate(x)[2](),
                    obj.evaluate(x, obj.block_index(idx))[2]())
        for h in hessians:
            assert h.tobytes() == h.T.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(_objective_point_block())
    def test_free_block_is_the_slice(self, case):
        obj, x, idx = case
        block = obj.block_index(idx)
        assert obj.block_index(idx.copy()) is block
        _, grad, hessian = obj.evaluate(x, block)
        assert _same_bits(hessian(), obj.hessian(x)[np.ix_(idx, idx)])
        assert _same_bits(grad, obj.gradient(x)[idx])

    @settings(max_examples=200, deadline=None)
    @given(_objective_point_block(), st.integers(0, 2**32 - 1))
    def test_block_value_moves_with_the_value(self, case, seed):
        """Between points that agree off the block, a block value changes as the value does."""
        obj, x, idx = case
        moved = x.copy()
        moved[idx] = np.random.default_rng(seed).uniform(-1.0, 1.0, idx.size) * np.abs(x).max()
        shifted = LinearPerturbation(obj, np.linspace(-1.0, 1.0, obj.dim))
        # the linear term can cancel the likelihood: measure against both
        linear = np.abs(shifted.a) @ (np.abs(x) + np.abs(moved))
        for f, scale in ((obj, 0.0), (shifted, linear)):
            block = f.block_index(idx)
            change = f.evaluate(moved, block)[0]() - f.evaluate(x, block)[0]()
            assert _close(change, f.value(moved) - f.value(x),
                          obj.value(x) + obj.value(moved) + scale)

    @settings(max_examples=200, deadline=None)
    @given(_objective_point_block())
    def test_fused_derivatives_are_the_separate_ones(self, case):
        obj, x, _ = case
        value, grad, hessian = obj.evaluate(x)
        assert value() == obj.value(x)
        assert _same_bits(grad, obj.gradient(x))
        assert _same_bits(hessian(), obj.hessian(x))

    @settings(max_examples=100, deadline=None)
    @given(_objective_point_block())
    def test_perturbed_block_is_the_slice(self, case):
        obj, x, idx = case
        shifted = LinearPerturbation(obj, np.linspace(-1.0, 1.0, obj.dim))
        _, grad, hessian = shifted.evaluate(x, shifted.block_index(idx))
        assert _same_bits(grad, shifted.gradient(x)[idx])
        assert _same_bits(hessian(), shifted.hessian(x)[np.ix_(idx, idx)])


# arguments where the sign test, exp(-|t|) or 1 + e is at an edge of the float range
_LOGISTIC_EDGES = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
                   1e-310, -1e-310, 745.2, -745.2, 800.0, -800.0, 1e308, -1e308)


class TestSigmoidFrom:
    """The branch-free numerator has the bits of the np.where form, on t and on -t
    (the MM fit reads both).  Compared by bytes, so -0.0 and NaN count."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.sampled_from(_LOGISTIC_EDGES), st.floats(-800.0, 800.0),
                              st.floats()), min_size=1, max_size=40).map(np.array))
    @example(np.array(_LOGISTIC_EDGES))
    def test_the_where_form(self, t):
        for arg in (t, -t):
            e = np.exp(-np.abs(arg))
            where = np.where(arg >= 0, 1.0, e) / (1.0 + e)
            assert btl._sigmoid_from(arg, e).tobytes() == where.tobytes()


def _parent_sigmoid(t, e):
    one_e = 1.0 + e
    return np.where(t >= 0, 1.0 / one_e, e / one_e)


def _parent_pass(obj, x, edges=slice(None)):
    g = obj.graph
    d = x[g.j[edges]] - x[g.m[edges]]
    return d, np.exp(-np.abs(d))


def _parent_value(obj, x, edges=slice(None)):
    """Minus the log-likelihood of ``edges``, in edge order, plus the penalty."""
    d, e = _parent_pass(obj, x, edges)
    counts, wins = obj.graph.counts[edges], obj.wins[edges]
    value = -float((d * wins - counts * (np.maximum(d, 0.0) + np.log1p(e))).sum())
    gsq = obj.penalty.gsq
    if obj.penalty.kind == "mean_shift":
        return value + 0.5 * gsq * x.sum() ** 2 / x.size
    return value + (0.5 * gsq * float(x @ x) if obj.penalty.kind == "ridge" else 0.0)


def _concatenated_scatter(pj, pm, at_j, at_m, size):
    """One bincount over the j ends, then the m ends, of both weight arrays; ends at
    ``size`` are dropped."""
    sums = np.bincount(np.concatenate((pj, pm)), np.concatenate((at_j, at_m)),
                       minlength=size + 1)[:size]
    return sums.astype(float, copy=False)


def _parent_scatter(g, at_j, at_m):
    return _concatenated_scatter(g.j, g.m, at_j, at_m, g.n)


def _parent_gradient(obj, x):
    d, e = _parent_pass(obj, x)
    base = obj.graph.counts * _parent_sigmoid(d, e) - obj.wins
    return _parent_scatter(obj.graph, base, -base) + _penalty_grad(obj.penalty, x)


def _parent_hessian(obj, x):
    g = obj.graph
    e = _parent_pass(obj, x)[1]
    w = g.counts * (e / (1.0 + e) ** 2)
    h = _penalty_matrix(obj.penalty, g.n)
    flat = h.reshape(-1)
    flat[g.j * g.n + g.m] -= w
    flat[g.m * g.n + g.j] -= w
    flat[:: g.n + 1] += _parent_scatter(g, w, w)
    return h


def _parent_mm(obj, max_iter):
    """The minorize-maximize fit's iterate, iteration count and gradient sup-norm at tol 0,
    from zero."""
    g = obj.graph
    wins = _parent_scatter(g, obj.wins, g.counts - obj.wins)
    gsq = obj.penalty.gsq if obj.penalty.kind == "ridge" else 0.0
    x = np.zeros(g.n)
    for iterations in range(max_iter + 1):
        gnorm = float(np.abs(_parent_gradient(obj, x)).max())
        if gnorm <= 0.0 or iterations == max_iter:
            break
        d, e = _parent_pass(obj, x)
        s = _parent_scatter(g, g.counts * _parent_sigmoid(d, e), g.counts * _parent_sigmoid(-d, e))
        if gsq > 0.0:  # the per-item ridge root, which the edge pass does not reach
            x = btl._ridge_mm_step(x, s, wins, gsq)
        else:
            x = x + np.log(np.divide(wins, s, out=np.ones(g.n), where=s > 0.0))
        x -= x.mean()
    return x, iterations, gnorm


@st.composite
def _pinned_case(draw):
    """``_objective_point_block`` with real-valued wins, an item without edges, scores at +0
    and -0, and score gaps beyond 745; the block may hold only the item without edges."""
    obj, x, idx = draw(_objective_point_block())
    g = obj.graph
    if draw(st.booleans()):  # the expected-mode objective's wins, anywhere in [0, N]
        wins = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).uniform(0.0, g.counts)
        obj = BtlObjective(g, wins, obj.penalty)
    if draw(st.booleans()):  # one more item, with no edges
        g = ComparisonGraph.from_edges(g.n + 1, g.j, g.m, g.counts)
        obj = BtlObjective(g, obj.wins, obj.penalty)
        x = np.append(x, draw(st.sampled_from([0.0, 0.5])))
        idx = np.array([g.n - 1]) if draw(st.booleans()) else np.append(idx, g.n - 1)
    x = x * draw(st.sampled_from([1.0, 40.0]))  # 40 * 40: exp(-|d|) underflows to 0
    signed_zeros = draw(st.lists(st.sampled_from([0.0, -0.0, None]), min_size=x.size,
                                 max_size=x.size))
    for i, zero in enumerate(signed_zeros):
        if zero is not None:
            x[i] = zero
    return obj, x, idx


def _pinned_example():
    """d = -0, +0, -800 and 800 on four items, whichever the penalty."""
    graph = ComparisonGraph.from_edges(4, [0, 1, 0, 2], [1, 3, 2, 3], [2.0, 3.0, 1.0, 2.0])
    obj = BtlObjective(graph, np.array([1.0, 0.0, 1.0, 2.0]), PenaltySpec.ridge(0.5))
    return obj, np.array([-0.0, 0.0, 800.0, 0.0]), np.array([2, 0])


def _edgeless_examples():
    """A design without edges, and a block of the one item without edges, per penalty."""
    cases = []
    for penalty in (PenaltySpec.none(), PenaltySpec.mean_shift(2.0), PenaltySpec.ridge(0.5)):
        empty = ComparisonGraph.from_edges(3, [], [], [])
        cases.append((BtlObjective(empty, np.zeros(0), penalty), np.array([0.5, -0.0, 2.0]),
                      np.array([1, 2])))
        lone = ComparisonGraph.from_edges(4, [0, 1], [1, 2], [3.0, 1.0])
        cases.append((BtlObjective(lone, np.array([1.5, 0.25]), penalty),
                      np.array([0.0, -0.0, 900.0, 0.25]), np.array([3])))
    return cases


def _examples(cases):
    """``hypothesis.example`` for each case."""
    def apply(test):
        for case in cases:
            test = example(case)(test)
        return test
    return apply


class TestLeanPassPinned:
    """The lean edge pass keeps every IEEE operation of the plain formulas, and their order.

    Compared by bytes: array_equal takes -0.0 and 0.0 as equal.
    """

    @settings(max_examples=300, deadline=None)
    @given(_pinned_case())
    @example(_pinned_example())
    @_examples(_edgeless_examples())
    def test_derivatives_are_the_plain_formulas(self, case):
        """The whole graph and a block, through evaluate and the three separate calls.

        Gradients stay float64 where a block or the design has no edges, and each
        Hessian thunk call returns a new matrix (Newton factors it in place)."""
        obj, x, idx = case
        grad, hess = _parent_gradient(obj, x), _parent_hessian(obj, x)
        value = _parent_value(obj, x)
        assert grad.dtype == np.float64
        assert np.float64(obj.value(x)).tobytes() == np.float64(value).tobytes()
        assert _same_bits(obj.gradient(x), grad) and _same_bits(obj.hessian(x), hess)
        got_value, got_grad, got_hess = obj.evaluate(x)
        assert np.float64(got_value()).tobytes() == np.float64(value).tobytes()
        assert _same_bits(got_grad, grad) and _same_bits(got_hess(), hess)
        # a block keeps its edges with an end in it, in edge order, and slices the rest
        edges = np.flatnonzero(np.isin(obj.graph.j, idx) | np.isin(obj.graph.m, idx))
        got_value, got_grad, got_hess = obj.evaluate(x, obj.block_index(idx))
        assert (np.float64(got_value()).tobytes()
                == np.float64(_parent_value(obj, x, edges)).tobytes())
        assert _same_bits(got_grad, grad[idx])
        first = got_hess()
        first += 1.0  # as a factorization in place would
        assert _same_bits(got_hess(), hess[np.ix_(idx, idx)])

    @pytest.mark.parametrize("kind", ["none", "mean_shift", "ridge"])
    @settings(max_examples=100, deadline=None)
    @given(case=_pinned_case(), gsq=st.floats(0.01, 20.0))
    def test_hessian_diagonal_is_the_dense_diagonal(self, kind, case, gsq):
        obj, x, _ = case
        obj = BtlObjective(obj.graph, obj.wins, PenaltySpec(kind, 0.0 if kind == "none" else gsq))
        assert _same_bits(obj.hessian_diagonal(x), np.diag(obj.hessian(x)).copy())

    @settings(max_examples=150, deadline=None)
    @given(_pinned_case(), st.integers(0, 4))
    @example(_pinned_example(), 3)
    def test_mm_iterates_are_the_plain_formulas(self, case, max_iter):
        obj, _, _ = case
        with np.errstate(all="ignore"):  # one-sided records send scores to infinity
            got = _mm_minimize(obj, 0.0, max_iter=max_iter)
            argmin, iterations, gnorm = _parent_mm(obj, max_iter)
        assert _same_bits(got.argmin, argmin) and got.iterations == iterations
        assert np.float64(got.final_grad_supnorm).tobytes() == np.float64(gnorm).tobytes()


# signed zeros, NaNs and infinities, and magnitudes whose sums depend on their order
_SPECIAL_WEIGHTS = [0.0, -0.0, 0.1, 1.0, 2.0**53, math.nan, -math.nan, math.inf, -math.inf]


@st.composite
def _scatter_case(draw):
    """Ends in [0, size], where ``size`` is a held end, and weights that are integers, or
    floats with signed zeros, NaNs and infinities; any of them may be empty."""
    size = draw(st.integers(0, 6))
    ends = st.lists(st.integers(0, size), max_size=12)
    pj, pm = draw(ends), draw(ends)

    def weights(k):
        if draw(st.booleans()):
            return np.array(draw(st.lists(st.integers(-2**40, 2**40), min_size=k, max_size=k)),
                            dtype=np.int64)
        values = st.one_of(st.sampled_from(_SPECIAL_WEIGHTS), st.floats())
        return np.array(draw(st.lists(values, min_size=k, max_size=k)), dtype=float)

    return (np.array(pj, dtype=np.intp), np.array(pm, dtype=np.intp), weights(len(pj)),
            weights(len(pm)), size)


class TestInPlaceScatter:
    """``_scatter`` accumulates in place with the bits of one bincount over the
    concatenated ends and weights."""

    @settings(max_examples=500, deadline=None)
    @given(_scatter_case())
    # every item of the block only as an m end: each j end is held
    @example((np.array([3, 3, 3]), np.array([0, 2, 1]), np.array([1.5, 2.0, -0.0]),
              np.array([-0.0, math.nan, 0.25]), 3))
    @example((np.array([], dtype=np.intp), np.array([], dtype=np.intp), np.array([]),
              np.array([]), 4))
    # (2^53 + 1) + 1 rounds twice, 2^53 + (1 + 1) once: the m ends continue the j sum
    @example((np.array([0]), np.array([0, 0]), np.array([2.0**53]), np.array([1.0, 1.0]), 1))
    # a sum that overflows to inf
    @example((np.array([0]), np.array([0]), np.array([1e308]), np.array([1e308]), 1))
    def test_bits_of_the_concatenated_bincount(self, case):
        pj, pm, at_j, at_m, size = case
        # ufunc.at raises the floating-point warnings of inf - inf and of an overflow,
        # which bincount does not; the bits are compared here
        with np.errstate(invalid="ignore", over="ignore"):
            got = btl._scatter(pj, pm, at_j, at_m, size)
            expected = _concatenated_scatter(pj, pm, at_j, at_m, size)
        assert got.dtype == np.float64 and _same_bits(got, expected)


class TestNoiseGradient:
    @pytest.mark.parametrize("penalty", [PenaltySpec.mean_shift(1.0), PenaltySpec.ridge(20.0)])
    def test_from_the_expected_wins(self, penalty):
        """The noise built from the expected-mode objective's wins has noise_gradient's bits."""
        rng = np.random.default_rng(8)
        g = sample_er_graph(40, 0.3, 3, rng)
        truth = rng.uniform(-3, 3, 40)
        obs = sample_outcomes(g, truth, rng)
        expected = btl_objective(g, penalty, mode="expected", truth=truth)
        assert btl._noise_from(obs, expected.wins).tobytes() == noise_gradient(obs, truth).tobytes()

    def test_zero_at_expectation_plug_in(self):
        g = _complete_graph(3, L=4)
        truth = np.array([0.5, 0.0, -0.5])
        wins = g.counts * sigmoid(truth[g.j] - truth[g.m])
        obs = BtlObservation(graph=g, wins=wins)
        assert np.abs(noise_gradient(obs, truth)).max() == 0.0

    def test_single_pair_values(self):
        g = ComparisonGraph.from_edges(2, [0], [1], [1.0])
        obs = BtlObservation(graph=g, wins=np.array([1.0]))
        np.testing.assert_allclose(noise_gradient(obs, np.zeros(2)), [-0.5, 0.5])

    def test_constant_in_evaluation_point(self):
        rng = np.random.default_rng(6)
        g = _complete_graph(4, L=3)
        truth = rng.uniform(0, 2, 4)
        obs = sample_outcomes(g, truth, rng)
        expected_obj = btl_objective(g, PenaltySpec.mean_shift(1.0), mode="expected",
                                     truth=truth)
        empirical = btl_objective(obs, PenaltySpec.mean_shift(1.0))
        ref = noise_gradient(obs, truth)
        for _ in range(5):
            x = rng.uniform(-2, 2, 4)
            diff = empirical.gradient(x) - expected_obj.gradient(x)
            np.testing.assert_allclose(diff, ref, atol=1e-10)

    def test_brute_force_mean_zero_two_items(self):
        # two items, two games, equal scores: all four win sequences equally likely
        g = ComparisonGraph.from_edges(2, [0], [1], [2.0])
        truth = np.zeros(2)
        total = np.zeros(2)
        for wins in (0.0, 1.0, 1.0, 2.0):  # sequences grouped by total
            total += noise_gradient(BtlObservation(graph=g, wins=np.array([wins])), truth)
        np.testing.assert_allclose(total / 4.0, 0.0, atol=1e-12)

    def test_brute_force_mean_zero_small_graphs(self):
        # every graph with at most 6 games: weighted average over all outcomes is zero
        rng = np.random.default_rng(7)
        g = ComparisonGraph.from_edges(3, [0, 0, 1], [1, 2, 2], [2.0, 2.0, 2.0])
        truth = rng.uniform(0, 1, 3)
        truth -= truth.mean()
        probs = sigmoid(truth[g.j] - truth[g.m])
        mean = np.zeros(3)
        for wins in itertools.product(range(3), repeat=3):
            w = np.asarray(wins, dtype=float)
            weight = 1.0
            for k in range(3):
                weight *= math.comb(2, wins[k]) * probs[k] ** wins[k] \
                    * (1 - probs[k]) ** (2 - wins[k])
            mean += weight * noise_gradient(BtlObservation(graph=g, wins=w), truth)
        np.testing.assert_allclose(mean, 0.0, atol=1e-12)


class TestWinProbability:
    """sigma(truth_j - truth_m) is written once; its three readers keep the inline bits."""

    @settings(max_examples=150, deadline=None)
    @given(_observations(), st.data(), st.integers(0, 2**32 - 1))
    def test_readers_keep_the_inline_bits(self, obs, data, seed):
        g = obs.graph
        truth = np.array(data.draw(st.lists(
            st.sampled_from([0.0, -0.0, 40.0, -745.0, 800.0]) | st.floats(-800.0, 800.0),
            min_size=g.n, max_size=g.n)))
        probs = sigmoid(truth[g.j] - truth[g.m])  # the reference, written out
        sampled = sample_outcomes(g, truth, np.random.default_rng(seed))
        reference = np.random.default_rng(seed).binomial(g.counts.astype(int), probs)
        assert sampled.wins.tobytes() == reference.astype(float).tobytes()
        expected = btl_objective(g, PenaltySpec.mean_shift(), mode="expected", truth=truth)
        assert expected.wins.tobytes() == (g.counts * probs).tobytes()
        r = obs.wins - g.counts * probs
        reference = btl._edge_scatter(g, -r, r)
        assert noise_gradient(obs, truth).tobytes() == reference.tobytes()

    def test_truth_of_another_length_names_both_counts(self):
        g = _complete_graph(4)
        obs = BtlObservation(graph=g, wins=np.ones(6))
        message = "truth has 3 scores, the design has 4 items"
        for read in (lambda t: sample_outcomes(g, t, np.random.default_rng(0)),
                     lambda t: btl_objective(g, PenaltySpec.mean_shift(), "expected", t),
                     lambda t: noise_gradient(obs, t)):
            with pytest.raises(DimensionMismatch, match=f"^{message}$"):
                read(np.zeros(3))


class TestPenaltySpec:
    @pytest.mark.parametrize("kind", ["mean_shift", "ridge"])
    @pytest.mark.parametrize("gsq", [0.0, -1.0, float("nan")])
    def test_penalty_strength_must_be_positive(self, kind, gsq):
        with pytest.raises(ValueError, match=f"a {kind} penalty needs gsq > 0"):
            PenaltySpec(kind, gsq)
        assert PenaltySpec.none().gsq == 0.0

    @pytest.mark.parametrize("kind", ["none", "mean_shift", "ridge"])
    def test_penalty_strength_must_be_finite(self, kind):
        with pytest.raises(ValueError, match="gsq must be finite, got inf"):
            PenaltySpec(kind, float("inf"))

    @pytest.mark.parametrize("penalty", [PenaltySpec.none(), PenaltySpec.mean_shift(3.0),
                                         PenaltySpec.ridge(3.0)])
    def test_curvature_is_the_written_out_matrix(self, penalty):
        """every * 11' + ridge * I, formed as the Hessian forms it, is G^2 bit for bit."""
        every, ridge = penalty.curvature(7)
        matrix = np.full((7, 7), every)
        matrix[np.diag_indices(7)] += ridge
        assert matrix.tobytes() == _penalty_matrix(penalty, 7).tobytes()


class TestFit:
    @pytest.mark.parametrize("solver", ["newton", "mm"])
    @pytest.mark.parametrize("tol_grad", [float("inf"), float("nan"), 0.0, -1.0])
    def test_unusable_tolerance_refused(self, solver, tol_grad):
        graph = ComparisonGraph.from_edges(2, [0], [1], [2.0])
        obs = BtlObservation(graph=graph, wins=np.array([1.0]))
        with pytest.raises(ValueError, match="gradient tolerance must be finite and > 0"):
            fit_penalized_mle(obs, PenaltySpec.mean_shift(), solver=solver, tol_grad=tol_grad)

    def test_symmetric_pair(self):
        g = ComparisonGraph.from_edges(2, [0], [1], [2.0])
        obs = BtlObservation(graph=g, wins=np.array([1.0]))
        sol = fit_penalized_mle(obs, PenaltySpec.mean_shift(1.0))
        assert sol.converged
        np.testing.assert_allclose(sol.argmin, np.zeros(2), atol=1e-8)

    def test_against_independent_newton_oracle(self):
        rng = np.random.default_rng(8)
        g = _complete_graph(3, L=50)
        truth = np.array([0.5, 0.0, -0.5])
        obs = sample_outcomes(g, truth, rng)
        sol = fit_penalized_mle(obs, PenaltySpec.mean_shift(1.0), tol_grad=1e-12)

        # plain full-step Newton written independently of the package solver
        obj = btl_objective(obs, PenaltySpec.mean_shift(1.0))
        x = np.zeros(3)
        for _ in range(60):
            x = x - np.linalg.solve(obj.hessian(x), obj.gradient(x))
        assert np.abs(sol.argmin - x).max() <= 1e-8

    def test_mean_pinned(self):
        rng = np.random.default_rng(9)
        g = _complete_graph(5, L=10)
        obs = sample_outcomes(g, rng.uniform(0, 2, 5), rng)
        sol = fit_penalized_mle(obs, PenaltySpec.mean_shift(1.0), tol_grad=1e-10)
        assert sol.converged
        assert abs(sol.argmin.sum()) <= 1e-10 * 5

    def test_perfect_record_reports_divergence(self):
        g = ComparisonGraph.from_edges(2, [0], [1], [1.0])
        obs = BtlObservation(graph=g, wins=np.array([1.0]))
        sol = fit_penalized_mle(obs, PenaltySpec.mean_shift(1.0))
        assert not sol.converged
        assert "divergent" in sol.note

    def test_ridge_always_finite(self):
        g = ComparisonGraph.from_edges(2, [0], [1], [1.0])
        obs = BtlObservation(graph=g, wins=np.array([1.0]))
        sol = fit_penalized_mle(obs, PenaltySpec.ridge(1.0))
        assert sol.converged

    def test_unpenalized_rejected(self):
        g = _complete_graph(3)
        obs = BtlObservation(graph=g, wins=np.ones(3))
        with pytest.raises(ValueError):
            fit_penalized_mle(obs, PenaltySpec.none())

    def test_unpenalized_refused_before_the_design_count(self):
        """The one unique-fit rule refuses an unpenalized objective with edges, without
        counting components; without edges it has nothing to refuse."""
        obs = BtlObservation(graph=_complete_graph(3), wins=np.ones(3))
        with mock.patch.object(btl, "_strong_count", side_effect=AssertionError):
            with pytest.raises(ValueError, match="unpenalized fit is singular along score"):
                btl.minimizer_status(obs, PenaltySpec.none())
        lone = BtlObservation(graph=ComparisonGraph.from_edges(1, [], [], []), wins=[])
        assert btl.minimizer_status(lone, PenaltySpec.none()) is None

    def test_coordinate_solver_route(self):
        # the per-item route is the minorize-maximize fit
        rng = np.random.default_rng(10)
        g = _complete_graph(4, L=20)
        obs = sample_outcomes(g, rng.uniform(0, 1, 4), rng)
        a = fit_penalized_mle(obs, PenaltySpec.mean_shift(1.0), solver="newton")
        b = fit_penalized_mle(obs, PenaltySpec.mean_shift(1.0), solver="mm")
        assert a.converged and b.converged
        assert np.abs(a.argmin - b.argmin).max() <= 1e-7
        with pytest.raises(ValueError, match="unknown solver 'coord'"):
            fit_penalized_mle(obs, PenaltySpec.mean_shift(1.0), solver="coord")

    @settings(max_examples=200, deadline=None)
    @given(_observations(), st.sampled_from(["mean_shift", "ridge"]),
           st.sampled_from([0.5, 1.0, 5.0]))
    # connected, no finite MLE, and a Newton run from zero meets a Hessian that is not
    # positive definite at iterate 27
    @example(BtlObservation(graph=ComparisonGraph.from_edges(6, [1, 4, 3, 0, 0, 0],
                                                             [3, 5, 4, 2, 5, 1], np.ones(6)),
                            wins=np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0])), "mean_shift", 1.0)
    # item 0 wins every game (the CLI's unbeaten.csv): a Newton run from zero passes its
    # gradient test after 24 iterations with item 0 at 18.90, far out on the flat likelihood
    @example(BtlObservation(graph=ComparisonGraph.from_edges(4, [0, 0, 1, 1, 2], [1, 2, 2, 3, 3],
                                                             np.full(5, 3.0)),
                            wins=np.array([3.0, 3.0, 1.0, 2.0, 1.0])), "mean_shift", 1.0)
    def test_mm_matches_newton(self, obs, kind, gsq):
        penalty = PenaltySpec(kind, gsq)
        a = fit_penalized_mle(obs, penalty, solver="newton", tol_grad=1e-12)
        b = fit_penalized_mle(obs, penalty, solver="mm", tol_grad=1e-12)
        identified = kind == "ridge" or (obs.graph.connected and mle_exists(obs))
        assert a.converged == b.converged == identified
        if identified:
            assert np.abs(a.argmin - b.argmin).max() <= 1e-9
        else:  # neither solver runs: both reports are the zero start
            zeros = np.zeros(obs.graph.n).tobytes()
            assert a.argmin.tobytes() == b.argmin.tobytes() == zeros
            assert a.iterations == b.iterations == 0
            assert math.isnan(a.final_grad_supnorm) and math.isnan(b.final_grad_supnorm)
            assert a.note == b.note == (btl.DIVERGENT if obs.graph.connected
                                        else btl.DISCONNECTED)

    @pytest.mark.parametrize("penalty", [PenaltySpec.mean_shift(1.0), PenaltySpec.ridge(0.01),
                                         PenaltySpec.ridge(20.0)], ids=["mean_shift", "ridge",
                                                                        "strong_ridge"])
    def test_mm_objective_never_increases(self, penalty):
        rng = np.random.default_rng(12)
        g = sample_er_graph(15, 0.4, 3, rng)
        obs = sample_outcomes(g, rng.uniform(-2, 2, 15), rng)
        assert g.connected and mle_exists(obs)
        pair = BtlObservation(graph=ComparisonGraph.from_edges(2, [0], [1], [10.0]),
                              wins=np.array([9.0]))
        for data in (obs, pair):
            obj = btl_objective(data, penalty)
            values = [obj.value(_mm_minimize(obj, 0.0, max_iter=k).argmin) for k in range(40)]
            assert np.all(np.diff(values) <= 1e-12 * np.abs(values[1:]))
            assert values[-1] < values[0]

    @pytest.mark.parametrize("gsq", [0.01, 20.0])
    def test_ridge_mm_step_from_far_below_stays_finite(self, gsq):
        """A pair whose winner (9 of 10 games) sits 30 below its opponent: an uncapped first
        step would overflow e^(y - x); the capped steps reach each item's root."""
        x = np.array([-15.0, 15.0])
        s = 10.0 * sigmoid(np.array([x[0] - x[1], x[1] - x[0]]))
        wins = np.array([9.0, 1.0])
        with np.errstate(over="raise", invalid="raise"):
            y = btl._ridge_mm_step(x, s, wins, gsq)
        assert np.all(np.isfinite(y))
        np.testing.assert_allclose(wins - s * np.exp(y - x) - gsq * y, 0.0, atol=1e-9)

    def test_mm_ridge_zero_win_and_isolated_items(self):
        # item 0 loses every game, item 3 plays none
        g = ComparisonGraph.from_edges(4, [0, 0, 1], [1, 2, 2], [3.0, 2.0, 4.0])
        obs = BtlObservation(graph=g, wins=np.array([0.0, 0.0, 1.0]))
        a = fit_penalized_mle(obs, PenaltySpec.ridge(1.0), solver="newton", tol_grad=1e-12)
        b = fit_penalized_mle(obs, PenaltySpec.ridge(1.0), solver="mm", tol_grad=1e-12)
        assert a.converged and b.converged
        assert np.all(np.isfinite(b.argmin)) and b.argmin[0] == b.argmin.min()
        assert abs(b.argmin[3]) <= 1e-12  # a lone item sits at the ridge's centre
        assert np.abs(a.argmin - b.argmin).max() <= 1e-10

    def test_existence_check_on_cycles(self):
        # a beats b, b beats c, c beats a: strongly connected, finite optimum
        g = ComparisonGraph.from_edges(3, [0, 0, 1], [1, 2, 2], [1.0, 1.0, 1.0])
        cyclic = BtlObservation(graph=g, wins=np.array([1.0, 0.0, 1.0]))
        assert mle_exists(cyclic)
        # a beats b and c, b beats c: perfect record for item a, divergent
        dominant = BtlObservation(graph=g, wins=np.array([1.0, 1.0, 1.0]))
        assert not mle_exists(dominant)


@st.composite
def _linf_instances(draw):
    """Designs on n <= 12 items, isolated items common, with a point, radius and penalty."""
    n = draw(st.integers(1, 12))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=20) if pairs
                  else st.just([]))
    counts = [draw(st.integers(1, 3)) for _ in chosen]
    graph = ComparisonGraph.from_edges(n, [a for a, _ in chosen], [b for _, b in chosen],
                                       np.array(counts, dtype=float))
    center = np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)))
    radius = draw(st.one_of(st.just(0.0), st.floats(0.01, 0.5)))
    penalty = draw(st.sampled_from(
        [PenaltySpec.none(), PenaltySpec.mean_shift(1.0), PenaltySpec.ridge(0.5)]))
    return graph, center, radius, penalty


def _linf_reference(g, center, radius, d):
    """The sup-norm constants item by item: each row's sums of per-edge window sups."""
    tau3 = d12 = d21 = 0.0
    for v in range(g.n):
        row = np.flatnonzero((g.j == v) | (g.m == v))
        if row.size == 0:
            continue
        other = np.where(g.j[row] == v, g.m[row], g.j[row])
        diffs = center[v] - center[other]
        counts = g.counts[row]
        half = 2.0 * radius / d[v]
        tau3 = max(tau3, np.sum(counts * _sup_abs_phi3(diffs - half, diffs + half)) / d[v] ** 3)
        width = radius / d[other]
        sup = _sup_abs_phi3(diffs - width, diffs + width)
        d21 = max(d21, np.sum(counts * sup / d[other]) / d[v] ** 2)
        d12 = max(d12, np.sum(counts * sup / d[other] ** 2) / d[v])
    return tau3, d12, d21


def _dense_tau3(g, center, radius, d, cells=20000):
    """Largest scaled row sum of |phi'''| over a dense scan of each row's shared offset.

    The offsets are the midpoints of ``cells`` equal cells of the offset
    window, cut where the offset pushes every term past the |phi'''| peak,
    beyond which the row sum only falls.
    """
    best = 0.0
    for v in range(g.n):
        row = np.flatnonzero((g.j == v) | (g.m == v))
        if row.size == 0:
            continue
        diffs = center[v] - center[np.where(g.j[row] == v, g.m[row], g.j[row])]
        half = min(2.0 * radius / d[v], float(np.abs(diffs).max()) + _T3_PEAK)
        offsets = np.linspace(-half, half, cells + 1)
        offsets = 0.5 * (offsets[:-1] + offsets[1:])
        sums = np.abs(phi3(diffs[None, :] + offsets[:, None])) @ g.counts[row]
        best = max(best, float(sums.max()) / d[v] ** 3)
    return best


# interval ends: finite values, the infinities, and the points where |phi'''| peaks
_ENDS = st.one_of(st.floats(-40.0, 40.0),
                  st.sampled_from([-math.inf, math.inf, -_T3_PEAK, _T3_PEAK, 0.0, -0.0]))


@st.composite
def _intervals(draw):
    """Arrays of intervals [lo, hi]: below, above or around 0, degenerate, or unbounded."""
    pairs = draw(st.lists(st.one_of(st.tuples(_ENDS, _ENDS).map(sorted),
                                    _ENDS.map(lambda t: [t, t])), min_size=1, max_size=12))
    return np.array([lo for lo, _ in pairs]), np.array([hi for _, hi in pairs])


class TestSupAbsPhi3:
    @given(_intervals())
    @settings(max_examples=200, deadline=None)
    @example((np.array([-2.0, 0.5, -0.3, 1.0, -math.inf, 3.0]),
              np.array([-1.0, 4.0, 0.2, 1.0, math.inf, math.inf])))
    def test_the_two_candidate_maximum(self, intervals):
        lo, hi = intervals
        nearest = np.clip(_T3_PEAK, lo, hi), np.clip(-_T3_PEAK, lo, hi)
        pair = np.maximum(*map(_abs_phi3, nearest))
        got = _sup_abs_phi3(lo, hi)
        # both candidates lie where |phi'''| rises in |t| (or coincide), so the sup is the
        # value at the larger |candidate|: one of the two the pair compares, bit for bit
        larger = np.maximum(*map(np.abs, nearest))
        assert got.tobytes() == _abs_phi3(larger).tobytes()
        # the pair's maximum, except where rounding leaves the computed |phi'''| out of
        # order by an ulp or two between two close candidates
        assert np.all(got <= pair) and np.all(pair - got <= 4.0 * np.spacing(pair))


class TestConditionConstants:
    @given(_linf_instances())
    @settings(max_examples=150, deadline=None)
    def test_linf_matches_row_by_row_reference(self, instance):
        graph, center, radius, penalty = instance
        consts = btl_condition_constants(graph, penalty, center, radius=radius, norm="linf")
        fisher = btl_objective(graph, penalty, mode="expected", truth=center).hessian(center)
        ref = _linf_reference(graph, center, radius, np.sqrt(np.diag(fisher)))
        got = (consts.tau3, consts.d12, consts.d21)
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0)
        assert consts.method == "edge_interval_sup" and consts.radii == (radius,)

    @given(_linf_instances())
    @settings(max_examples=100, deadline=None)
    def test_default_metric_is_the_hessian_diagonal(self, instance):
        graph, center, radius, penalty = instance
        fisher = btl_objective(graph, penalty, mode="expected", truth=center).hessian(center)
        with mock.patch.object(btl, "_linf_constants", wraps=btl._linf_constants) as spy:
            btl_condition_constants(graph, penalty, center, radius=radius, norm="linf")
        assert spy.call_args.args[3].tobytes() == np.sqrt(np.diag(fisher)).tobytes()

    @pytest.mark.parametrize("radius", [0.0, 0.2])
    def test_isolated_item_without_penalty(self, radius):
        # item 3 has no edges, so its scale is 0 under no penalty
        g = ComparisonGraph.from_edges(4, [0, 1], [1, 2], [2.0, 1.0])
        center = np.array([0.3, -0.2, 0.5, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            consts = btl_condition_constants(g, PenaltySpec.none(), center, radius=radius,
                                             norm="linf")
        values = np.array([consts.tau3, consts.d12, consts.d21])
        assert np.all(np.isfinite(values)) and np.all(values > 0.0)

    @given(_linf_instances())
    @settings(max_examples=150, deadline=None)
    def test_tau3_never_below_a_dense_offset_scan(self, instance):
        graph, center, radius, penalty = instance
        consts = btl_condition_constants(graph, penalty, center, radius=radius, norm="linf")
        fisher = btl_objective(graph, penalty, mode="expected", truth=center).hessian(center)
        dense = _dense_tau3(graph, center, radius, np.sqrt(np.diag(fisher)))
        # a few ulps for rounding between the two |phi'''| formulas
        assert consts.tau3 >= dense * (1.0 - 1e-14)

    @pytest.mark.parametrize("radius", [0.5, 1.0, 3.0])
    def test_single_edge_tau3_is_the_phi3_peak(self, radius):
        # d = sqrt(phi''(0)) = 1/2, and the offset window 4 r covers the peak at log(2 + sqrt 3),
        # where |phi'''| = sqrt(3)/18; so tau3 = 8 sqrt(3)/18
        g = ComparisonGraph.from_edges(2, [0], [1], [1.0])
        consts = btl_condition_constants(g, PenaltySpec.none(), np.zeros(2), radius=radius,
                                         norm="linf")
        assert abs(phi3(_T3_PEAK)) == pytest.approx(math.sqrt(3.0) / 18.0, rel=1e-15)
        assert consts.tau3 == pytest.approx(4.0 * math.sqrt(3.0) / 9.0, rel=1e-15)

    def test_equal_scores_radius_zero(self):
        g = _complete_graph(4, L=2)
        consts = btl_condition_constants(g, PenaltySpec.none(), np.zeros(4),
                                         radius=0.0, norm="linf")
        assert consts.tau3 == 0.0 and consts.d12 == 0.0 and consts.d21 == 0.0

    def test_single_pair_against_grid_oracle(self):
        g = ComparisonGraph.from_edges(2, [0], [1], [1.0])
        r = 0.05
        consts = btl_condition_constants(g, PenaltySpec.none(), np.zeros(2),
                                         radius=r, norm="linf")
        d_scale = math.sqrt(phi2(0.0))
        grid = np.linspace(-2 * r / d_scale, 2 * r / d_scale, 4001)
        oracle = np.abs(phi3(grid)).max() / d_scale**3
        assert consts.tau3 == pytest.approx(oracle, rel=1e-6)
        assert consts.tau3 <= np.abs(phi3(grid)).max() / phi2(0.0) ** 1.5 + 1e-12

    def test_mixed_terms_against_interval_oracle(self):
        rng = np.random.default_rng(11)
        g = _complete_graph(3, L=2)
        center = rng.uniform(-1, 1, 3)
        r = 0.2
        consts = btl_condition_constants(g, PenaltySpec.mean_shift(1.0), center,
                                         radius=r, norm="linf")
        fisher = btl_objective(g, PenaltySpec.mean_shift(1.0), mode="expected",
                               truth=center).hessian(center)
        d = np.sqrt(np.diag(fisher))
        d21 = 0.0
        for v in range(3):
            acc = 0.0
            for a, b, cnt in zip(g.j, g.m, g.counts):
                if v not in (a, b):
                    continue
                o = b if v == a else a
                diff = center[v] - center[o]
                dense = np.linspace(diff - r / d[o], diff + r / d[o], 20001)
                acc += cnt * np.abs(phi3(dense)).max() / d[o]
            d21 = max(d21, acc / d[v] ** 2)
        assert consts.d21 == pytest.approx(d21, rel=1e-6)

    def test_l2_monte_carlo_below_envelope(self):
        rng = np.random.default_rng(12)
        g = _complete_graph(8, L=3)
        center = rng.uniform(0, 2, 8)
        center -= center.mean()
        penalty = PenaltySpec.mean_shift(1.0)
        split = BlockSplit.half(8)
        envelope = btl_condition_constants(
            g, penalty, center, norm="l2", radii=(0.3, 0.3),
            geometry=expected_geometry(g, penalty, center, split),
        )
        # Monte Carlo floor: scaled third derivatives at the center along random
        # directions, in the square-root Fisher block metrics the envelope uses
        obj = btl_objective(g, penalty, mode="expected", truth=center)
        fisher = obj.hessian(center)
        t_idx, n_idx = split.target_idx, split.nuisance_idx
        d_metric = psd_power(fisher[np.ix_(t_idx, t_idx)], 0.5)
        h_metric = psd_power(fisher[np.ix_(n_idx, n_idx)], 0.5)
        mc = np.random.default_rng(0)
        tau3 = d12 = d21 = 0.0
        for _ in range(tol.MC_DIRECTIONS):
            zt = split.embed(mc.standard_normal(split.p), np.zeros(split.q))
            zn = split.embed(np.zeros(split.p), mc.standard_normal(split.q))
            nd = np.linalg.norm(d_metric @ zt[t_idx])
            nh = np.linalg.norm(h_metric @ zn[n_idx])
            tau3 = max(tau3, abs(obj.third_directional(center, zt, zt, zt)) / nd**3,
                       abs(obj.third_directional(center, zn, zn, zn)) / nh**3)
            d21 = max(d21, abs(obj.third_directional(center, zt, zt, zn)) / (nd**2 * nh))
            d12 = max(d12, abs(obj.third_directional(center, zt, zn, zn)) / (nd * nh**2))
        assert tau3 <= envelope.tau3
        assert d12 <= envelope.d12
        assert d21 <= envelope.d21
        assert tau3 > 0.0


    @pytest.mark.parametrize("bad", [-0.5, float("nan")])
    def test_negative_or_nan_radius_refused(self, bad):
        rng = np.random.default_rng(1)
        graph = sample_er_graph(30, 0.5, 3, rng)
        center = rng.uniform(-1, 1, 30)
        penalty = PenaltySpec.mean_shift(1.0)
        with pytest.raises(ValueError, match="radius must be >= 0"):
            btl_condition_constants(graph, penalty, center, radius=bad, norm="linf")
        geometry = expected_geometry(graph, penalty, center, BlockSplit.half(30))
        for radii in ((bad, 0.1), (0.1, bad)):
            with pytest.raises(ValueError, match="radii must be two numbers >= 0"):
                btl_condition_constants(graph, penalty, center, norm="l2", radii=radii,
                                        geometry=geometry)

    def test_radii_must_be_a_pair(self):
        rng = np.random.default_rng(1)
        graph = sample_er_graph(10, 0.8, 3, rng)
        penalty = PenaltySpec.mean_shift(1.0)
        geometry = expected_geometry(graph, penalty, np.zeros(10), BlockSplit.half(10))
        for radii in ((0.5,), (0.5, 0.5, 0.5)):
            with pytest.raises(ValueError, match="radii must be two numbers >= 0"):
                btl_condition_constants(graph, penalty, np.zeros(10), norm="l2", radii=radii,
                                        geometry=geometry)

    def test_l2_geometry_must_cover_the_graph(self):
        # the geometry of four items does not describe a graph of six
        geometry = expected_geometry(_complete_graph(4, L=3), PenaltySpec(), np.zeros(4),
                                     BlockSplit.half(4))
        with pytest.raises(DimensionMismatch, match="covers 4 coordinates, graph has 6 items"):
            btl_condition_constants(_complete_graph(6, L=3), PenaltySpec(), np.zeros(6),
                                    norm="l2", radii=(0.1, 0.1), geometry=geometry)

    def test_l2_constants_need_a_geometry(self):
        with pytest.raises(ValueError, match="need a geometry and radii"):
            btl_condition_constants(_complete_graph(4, L=3), PenaltySpec(), np.zeros(4),
                                    norm="l2", radii=(0.1, 0.1))

    def test_infinite_radius_is_a_bound(self):
        rng = np.random.default_rng(1)
        graph = sample_er_graph(30, 0.5, 3, rng)
        center = rng.uniform(-1, 1, 30)
        penalty = PenaltySpec.mean_shift(1.0)
        wide = btl_condition_constants(graph, penalty, center, radius=math.inf, norm="linf")
        near = btl_condition_constants(graph, penalty, center, radius=0.5, norm="linf")
        assert math.isfinite(wide.tau3) and wide.tau3 >= near.tau3
        geometry = expected_geometry(graph, penalty, center, BlockSplit.half(30))
        wide = btl_condition_constants(graph, penalty, center, norm="l2",
                                       radii=(math.inf, math.inf), geometry=geometry)
        near = btl_condition_constants(graph, penalty, center, norm="l2",
                                       radii=(0.5, 0.5), geometry=geometry)
        assert math.isfinite(wide.tau3) and wide.tau3 >= near.tau3


def _read_piped(read, data: bytes):
    """``read`` of a pipe that holds ``data``, opened by its /dev/fd name."""
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "wb") as fh:
        fh.write(data)  # less than a pipe buffer: the write does not block
    try:
        return read(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)


@st.composite
def _integer_fields(draw):
    """The text of an integer: any sign it may take, leading zeros, quotes; never ``-0``."""
    value = draw(st.one_of(
        st.integers(0, 10**6),
        st.integers(2**53 - 3, 2**53 + 3),
        st.integers(2**63 - 2**11, 2**63 + 2**11),  # the last int64s, then beyond
        st.integers(-2**63 - 2**11, -2**63 + 2**11),
        st.integers(-2**70, 2**70),
    ))
    sign = "-" if value < 0 else draw(st.sampled_from(["", "+"]))
    text = sign + "0" * draw(st.integers(0, 3)) + str(abs(value))
    return f'"{text}"' if draw(st.booleans()) else text


class TestFileFormats:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(_integer_fields(), _integer_fields()), min_size=1, max_size=6),
           st.sampled_from([None, "3.5", "1e3", "nan", "inf"]), st.data())
    def test_integer_parse_has_the_float_parse_bits(self, fields, other, data):
        """On integer text, the integer-first parse gives the float64 bytes of the float
        parse; a field it cannot read as an integer sends every row to the float parse."""
        lines = [f"1,2,{count},{wins}\n" for count, wins in fields]
        if other is not None:
            row = data.draw(st.integers(0, len(lines)))
            lines.insert(row, f"1,2,{other},{data.draw(_integer_fields())}\n")
        columns = {"j": 0, "m": 1, "N": 2, "S": 3}
        got = btl._parse_observation_rows(lines, columns)
        floats = btl._parse_rows(lines, btl._OBSERVATION_TYPES, columns)
        for name in ("N", "S"):
            assert got[name].astype(float).tobytes() == floats[name].tobytes()
        assert got["j"].tobytes() == floats["j"].tobytes()
        if other is not None:
            assert got["N"].dtype == np.float64

    def test_negative_zero_wins(self, tmp_path):
        """On the integer path an S written -0 reads +0.0; on the float path, -0.0."""
        path = tmp_path / "obs.csv"
        path.write_text("j,m,N,S\n1,2,3,-0\n")
        assert read_observations(path).wins.tobytes() == np.float64(0.0).tobytes()
        path.write_text("j,m,N,S\n1,2,3,-0\n1,3,2,0.5\n")
        assert read_observations(path).wins[:1].tobytes() == np.float64(-0.0).tobytes()
        # scores are always floats
        path.write_text("item,score\n1,-0\n")
        assert read_scores(path).tobytes() == np.float64(-0.0).tobytes()

    def test_observation_round_trip(self, tmp_path):
        rng = np.random.default_rng(13)
        g = _complete_graph(4, L=3)
        obs = sample_outcomes(g, rng.uniform(0, 1, 4), rng)
        path = tmp_path / "obs.csv"
        write_observations(path, obs)
        back = read_observations(path)
        assert isinstance(back, BtlObservation)
        np.testing.assert_array_equal(back.graph.j, g.j)
        np.testing.assert_array_equal(back.wins, obs.wins)

    def test_pipe_reads_like_the_file(self, tmp_path):
        """A pipe can be read once, so its rows come from the handle that read its header."""
        rng = np.random.default_rng(8)
        graph = sample_er_graph(100, 0.5, 2, rng)
        path = tmp_path / "obs.csv"
        write_observations(path, sample_outcomes(graph, rng.uniform(-1, 1, 100), rng))
        data = path.read_bytes()
        assert len(data) > 16_384  # more than one buffer of a text file
        read_end, write_end = os.pipe()

        def write():
            with os.fdopen(write_end, "wb") as fh:
                fh.write(data)

        # a second open of /dev/fd/N joins the same pipe without blocking
        writer = threading.Thread(target=write, daemon=True)
        writer.start()
        try:
            piped = read_observations(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)  # a writer still blocked on a full pipe then fails and ends
            writer.join(timeout=10)
        assert not writer.is_alive()
        read = read_observations(path)
        for name in ("j", "m", "counts"):
            assert getattr(piped.graph, name).tobytes() == getattr(read.graph, name).tobytes()
        assert piped.wins.tobytes() == read.wins.tobytes()

    @pytest.mark.parametrize("body, message", [
        ("1,2,3,1\n1,2,1,0\n", "line 3: the pair is already on line 2; got j=1, m=2, N=1, S=0"),
        ("1,2,3,1\n2,x,1,0\n", "line 3: j and m must be integers and the other fields "
                               "numbers; got j='2', m='x', N='1', S='0'"),
    ], ids=["duplicate_pair", "non_integer_index"])
    def test_piped_bad_row_names_its_line(self, body, message):
        """A pipe is read once: the lines parsed are the lines scanned for the bad row."""
        with pytest.raises(ValueError) as exc:
            _read_piped(read_observations, ("j,m,N,S\n" + body).encode())
        assert str(exc.value).startswith("/dev/fd/")
        assert message in str(exc.value)

    def test_piped_real_counts_read_like_the_file(self, tmp_path):
        """A real-valued N sends a pipe's lines, read once, to the float parse too."""
        text = "j,m,N,S\r\n1,2,3,1\r\n\r\n2,3,2.5,1.25\r\n1,3,1,0\r\n"
        path = tmp_path / "obs.csv"
        path.write_bytes(text.encode())
        piped, read = _read_piped(read_observations, text.encode()), read_observations(path)
        for name in ("j", "m", "counts"):
            assert getattr(piped.graph, name).tobytes() == getattr(read.graph, name).tobytes()
        assert piped.wins.tobytes() == read.wins.tobytes()
        assert read.graph.counts.tolist() == [3.0, 2.5, 1.0]

    @pytest.mark.parametrize("body, message", [
        ("1,0.5\n\nx,0.1\n", "line 4: item must be an integer and score a number; "
                              "got item='x', score='0.1'"),
        ("1,0.5\n2,nan\n", "line 3: score must be finite; got item='2', score='nan'"),
    ], ids=["non_integer_id", "nan_score"])
    def test_piped_bad_score_names_its_line(self, body, message):
        with pytest.raises(ValueError) as exc:
            _read_piped(read_scores, ("item,score\n" + body).encode())
        assert str(exc.value).startswith("/dev/fd/")
        assert message in str(exc.value)

    def test_piped_scores_read_like_the_file(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores(path, np.array([0.1, -2.5, 1e-300]))
        assert (_read_piped(read_scores, path.read_bytes()).tobytes()
                == read_scores(path).tobytes())

    @pytest.mark.parametrize("name", ["obs.csv", "obs.csv.gz", "obs.bz2", b"obs.xz"])
    def test_any_file_name(self, name, tmp_path):
        """A header over two lines, under any name: numpy would decompress some by the suffix."""
        text = 'j,m,N,S,"a note\r\nover two lines"\r\n1,2,3,1\r\n\r\n2,3,1,0\r\n'
        path = os.path.join(os.fsencode(tmp_path) if isinstance(name, bytes) else tmp_path, name)
        with open(path, "w", newline="") as fh:
            fh.write(text)
        obs = read_observations(path)
        assert obs.graph.j.tolist() == [0, 1] and obs.graph.m.tolist() == [1, 2]
        assert obs.wins.tolist() == [1.0, 0.0]

    def test_header_names_may_be_padded(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("j, m, N, S\n1,2,3,1\n")
        obs = read_observations(path)
        assert obs.graph.n == 2 and obs.wins.tolist() == [1.0]

    def test_scores_round_trip(self, tmp_path):
        path = tmp_path / "scores.csv"
        scores = np.array([0.25, -1.5, 1.25])
        write_scores(path, scores)
        np.testing.assert_array_equal(read_scores(path), scores)

    def test_scores_file_bytes(self, tmp_path):
        path = tmp_path / "scores.csv"
        write_scores(path, np.array([0.1, -0.0, 1e-300, -2.5, 3.0]))
        assert path.read_bytes() == (b"item,score\r\n1,0.10000000000000001\r\n2,-0\r\n"
                                     b"3,1e-300\r\n4,-2.5\r\n5,3\r\n")
        write_scores(path, np.array([]))
        assert path.read_bytes() == b"item,score\r\n"

    @pytest.mark.parametrize("body, message", [
        ("1,0.5\nx,0.1\n", "line 3: item must be an integer and score a number; "
                           "got item='x', score='0.1'"),
        ("1,0.5\n2.0,0.1\n", "line 3: item must be an integer"),
        ("1,0.5\n\n2,high\n", "line 4: item must be an integer and score a number; "
                               "got item='2', score='high'"),
        ("1\n", "line 2: item must be an integer and score a number; "
                "got item='1', score=None"),
        ("1,0.5\n2,nan\n", "line 3: score must be finite; got item='2', score='nan'"),
        ("1,inf\n2,0.5\n3,-inf\n", "line 2: score must be finite; got item='1', score='inf'"),
    ], ids=["non_integer_id", "float_id", "non_numeric_score", "short_row", "nan_score",
            "inf_score"])
    def test_malformed_scores_name_file_and_line(self, tmp_path, body, message):
        path = tmp_path / "scores.csv"
        path.write_text("item,score\n" + body)
        with pytest.raises(ValueError) as exc:
            read_scores(path)
        assert str(exc.value).startswith(f"{path}, line ")
        assert message in str(exc.value)

    @settings(max_examples=100, deadline=None)
    @given(values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8),
           decimals=st.lists(st.from_regex(
               r"[+-]?([0-9]{1,20}(\.[0-9]{0,20})?|\.[0-9]{1,20})([eE][+-]?[0-9]{1,3})?",
               fullmatch=True,
           ).filter(lambda t: math.isfinite(float(t))), max_size=8),
           random=st.randoms(use_true_random=False))
    def test_scores_have_the_bits_of_float(self, values, decimals, random, tmp_path_factory):
        """numpy's float parser reads a score as float() does: ``.17g`` text and decimals."""
        texts = [f"{v:.17g}" for v in values] + decimals
        items = list(range(1, len(texts) + 1))
        random.shuffle(items)
        path = tmp_path_factory.mktemp("scores") / "scores.csv"
        path.write_text("item,score\n" + "".join(f"{i},{t}\n" for i, t in zip(items, texts)))
        expected = np.empty(len(texts))
        expected[np.array(items, dtype=int) - 1] = [float(t) for t in texts]
        assert read_scores(path).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("row", ["1_0,0.5", "1,0_5", "\u0661,0.5"],
                             ids=["id", "score", "non_ascii_digit"])
    def test_scores_refuse_what_write_scores_never_writes(self, tmp_path, row):
        """Python's int() and float() read these; the score reader does not."""
        path = tmp_path / "scores.csv"
        path.write_text(f"item,score\n{row}\n", encoding="utf-8")
        with pytest.raises(ValueError, match="line 2: item must be an integer and score a number"):
            read_scores(path)

    def test_scores_missing_column(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("id,score\n1,0.5\n")
        with pytest.raises(ValueError, match=r"scores.csv: missing columns \['item'\]"):
            read_scores(path)

    @pytest.mark.parametrize("ids, bad", [
        ((1, 1, 2), "duplicated [1], missing [3]"),
        ((1, 2, 4), "missing [3], out of range [4]"),
        ((0, 1, 2), "missing [3], out of range [0]"),
    ], ids=["duplicate", "gap", "zero_based"])
    def test_scores_ids_must_be_one_to_k(self, tmp_path, ids, bad):
        path = tmp_path / "scores.csv"
        path.write_text("item,score\n" + "".join(f"{i},0.5\n" for i in ids))
        with pytest.raises(ValueError, match="scores.csv") as exc:
            read_scores(path)
        assert bad in str(exc.value)

    @pytest.mark.parametrize("body, message", [
        ("1,2,3,1\n2,x,3,1\n", "line 3: j and m must be integers and the other fields "
                               "numbers; got j='2', m='x', N='3', S='1'"),
        ("1,2,3,1\n2,3,three,1\n", "line 3: j and m must be integers"),
        ("1,2,3,1\n2,2,3,1\n", "line 3: need j < m; got j=2, m=2, N=3, S=1"),
        ("0,2,3,1\n", "line 2: item indices start at 1; got j=0, m=2"),
        ("1,2,0,0\n", "line 2: N must be a finite number >= 1; got j=1, m=2, N=0"),
        ("1,2,nan,0\n", "line 2: N must be a finite number >= 1; got j=1, m=2, N=nan, S=0"),
        ("1,2,inf,0\n", "line 2: N must be a finite number >= 1; got j=1, m=2, N=inf, S=0"),
        ("1,2,3,1\n2,3,3,nan\n", "line 3: S must lie in [0, N]; got j=2, m=3, N=3, S=nan"),
        ("1,3,3,1\n2,3,3,4\n", "line 3: S must lie in [0, N]; got j=2, m=3, N=3, S=4"),
        ("1,2,3,-1\n", "line 2: S must lie in [0, N]"),
        ("1,2,3,1\n2,3,3,1\n1,2,1,0\n", "line 4: the pair is already on line 2"),
        ("1,2,3,1\n\n2,3,3,9\n", "line 4: S must lie in [0, N]"),
        ("1,2,3,1\n2,3\n", "line 3: j and m must be integers and the other fields "
                           "numbers; got j='2', m='3', N=None, S=None"),
        ("1,2,3,1\n  \n", "line 3: j and m must be integers and the other fields "
                          "numbers; got j='  ', m=None, N=None, S=None"),
        (",,,\n", "line 2: j and m must be integers and the other fields "
                  "numbers; got j='', m='', N='', S=''"),
        ("3.0,4,1,1\n", "line 2: j and m must be integers and the other fields "
                        "numbers; got j='3.0', m='4', N='1', S='1'"),
        ("1,2,3,1\n\n2,x,3,1\n", "line 4: j and m must be integers"),
        ("1,2,3,1\n1_0,20,1,1\n", "line 3: j and m must be integers"),
    ], ids=["non_integer_index", "non_numeric_count", "j_not_below_m", "index_below_one",
            "count_below_one", "count_nan", "count_inf", "wins_nan", "wins_above_count",
            "wins_negative", "duplicate_pair", "blank_line_counted", "short_row", "whitespace_line",
            "empty_fields", "float_index", "bad_field_after_blank_line", "underscore_index"])
    def test_malformed_observations_name_file_and_line(self, tmp_path, body, message):
        path = tmp_path / "obs.csv"
        path.write_text("j,m,N,S\n" + body)
        with pytest.raises(ValueError) as exc:
            read_observations(path)
        assert str(exc.value).startswith(f"{path}, line ")
        assert message in str(exc.value)

    def test_file_without_outcomes_refused(self, tmp_path):
        path = tmp_path / "design.csv"
        path.write_text("j,m,N\n1,2,3\n2,3,1\n")
        with pytest.raises(ValueError, match=r"design\.csv: missing columns \['S'\]$") as exc:
            read_observations(path)
        assert str(exc.value).startswith(f"{path}: ")

    def test_quoted_fields(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text('"j","m","N","S"\n"1","2","3.5","1"\n2,"3",1,"0"\n')
        obs = read_observations(path)
        assert obs.graph.j.tolist() == [0, 1] and obs.graph.m.tolist() == [1, 2]
        assert obs.graph.counts.tolist() == [3.5, 1.0] and obs.wins.tolist() == [1.0, 0.0]

    def test_header_only_file_has_no_edges(self, tmp_path):
        path = tmp_path / "obs.csv"
        path.write_text("j,m,N,S\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            obs = read_observations(path)
        assert obs.graph.n == 1 and obs.graph.n_edges == 0 and obs.wins.size == 0

    def test_write_observations_bytes(self, tmp_path):
        graph = ComparisonGraph.from_edges(4, [1, 0, 0], [3, 1, 2], [2.5, 3.0, 1e6])
        path = tmp_path / "obs.csv"
        write_observations(path, BtlObservation(graph=graph, wins=np.array([1.25, 0.0, 1e6])))
        assert path.read_bytes() == (b"j,m,N,S\r\n2,4,2.5,1.25\r\n1,2,3,0\r\n"
                                     b"1,3,1e+06,1e+06\r\n")

    @settings(max_examples=100, deadline=None)
    @given(obs=_written_observations(), block=st.sampled_from([1, 2, 7, 1 << 16]))
    @example(obs=BtlObservation(
        graph=ComparisonGraph.from_edges(3, [0, 0, 1], [1, 2, 2], [2.0, 2.0, 2.0]),
        wins=np.array([0.0, -0.0, 0.0])), block=1 << 16)
    def test_write_observations_formats_each_value_as_alone(self, obs, block, tmp_path_factory):
        # each value's text as if formatted alone, -0.0 as -0 next to a 0.0, in blocks of
        # any size
        path = tmp_path_factory.mktemp("bytes") / "obs.csv"
        with mock.patch.object(btl, "_WRITE_ROWS", block):
            write_observations(path, obs)
        g = obs.graph
        rows = zip(g.j.tolist(), g.m.tolist(),
                   _per_value_text(g.counts), _per_value_text(obs.wins))
        expected = "j,m,N,S\r\n" + "".join(f"{a + 1},{b + 1},{c},{s}\r\n" for a, b, c, s in rows)
        assert path.read_bytes() == expected.encode()

    @settings(max_examples=60, deadline=None)
    @given(obs=_file_observations(), data=st.data())
    def test_round_trip_survives_layout_changes(self, obs, data, tmp_path_factory):
        path = tmp_path_factory.mktemp("round_trip") / "obs.csv"
        write_observations(path, obs)
        header, *rows = [line.split(",") for line in path.read_text().splitlines()]
        g = obs.graph
        order = data.draw(st.permutations(range(g.n_edges)))
        columns = data.draw(st.permutations(range(4)))
        same = dict(order=range(g.n_edges), columns=range(4))
        layouts = [None, dict(same, newline="\r\n"), dict(same, order=order),
                   dict(same, columns=columns), dict(same, pad=True), dict(same, blank=True),
                   dict(same, extra=True),
                   dict(order=order, columns=columns, newline="\r\n", pad=True, blank=True,
                        extra=True)]
        for layout in layouts:
            if layout is not None:  # None reads the file as written
                with open(path, "w", newline="") as fh:
                    fh.write(_observation_layout(header, rows, **layout))
            back = read_observations(path)
            perm = list(layout["order"]) if layout else list(range(g.n_edges))
            assert back.graph.n == g.n
            assert back.graph.j.tolist() == g.j[perm].tolist()
            assert back.graph.m.tolist() == g.m[perm].tolist()
            assert back.graph.counts.tolist() == g.counts[perm].tolist()
            assert back.wins.tolist() == obs.wins[perm].tolist()
