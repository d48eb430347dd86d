"""Comparison graphs, outcome sampling, likelihood derivatives, constants."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perturbopt.btl import (
    BtlObservation,
    ComparisonGraph,
    PenaltySpec,
    btl_condition_constants,
    btl_objective,
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
from perturbopt import tolerances as tol
from perturbopt.numkit import BlockSplit, MetricTensor, finite_diff_check, psd_power


def _complete_graph(n, L=1):
    iu, im = np.triu_indices(n, k=1)
    return ComparisonGraph.from_edges(n, iu, im, np.full(iu.size, float(L)))


class TestSampling:
    def test_complete_graph(self):
        g = sample_er_graph(4, 1.0, 1, np.random.default_rng(0))
        assert g.n_edges == 6 and g.connected

    def test_empty_graph(self):
        g = sample_er_graph(5, 0.0, 1, np.random.default_rng(0))
        assert g.n_edges == 0 and not g.connected

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
                assert np.array_equal(obj.gradient(x), grad + penalty.grad(x))

                w = g.counts * phi2(d)
                hess = penalty.matrix(n)
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

    def test_rejects_self_loops(self):
        with pytest.raises(ValueError):
            ComparisonGraph.from_edges(3, [1], [1], [1.0])

    def test_disconnected_flagged(self):
        g = ComparisonGraph.from_edges(4, [0], [1], [1.0])
        assert not g.connected
        assert np.unique(g.component_labels).size == 3


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


class TestNoiseGradient:
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


class TestFit:
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

    def test_coordinate_solver_route(self):
        rng = np.random.default_rng(10)
        g = _complete_graph(4, L=20)
        obs = sample_outcomes(g, rng.uniform(0, 1, 4), rng)
        a = fit_penalized_mle(obs, PenaltySpec.mean_shift(1.0), solver="newton")
        b = fit_penalized_mle(obs, PenaltySpec.mean_shift(1.0), solver="coord")
        assert np.abs(a.argmin - b.argmin).max() <= 1e-7

    def test_existence_check_on_cycles(self):
        # a beats b, b beats c, c beats a: strongly connected, finite optimum
        g = ComparisonGraph.from_edges(3, [0, 0, 1], [1, 2, 2], [1.0, 1.0, 1.0])
        cyclic = BtlObservation(graph=g, wins=np.array([1.0, 0.0, 1.0]))
        assert mle_exists(cyclic)
        # a beats b and c, b beats c: perfect record for item a, divergent
        dominant = BtlObservation(graph=g, wins=np.array([1.0, 1.0, 1.0]))
        assert not mle_exists(dominant)


class TestConditionConstants:
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
            g, penalty, center, norm="l2", split=split, radii=(0.3, 0.3),
        )
        # Monte Carlo floor: scaled third derivatives at the center along random
        # directions, in the square-root Fisher block metrics the envelope uses
        obj = btl_objective(g, penalty, mode="expected", truth=center)
        fisher = obj.hessian(center)
        t_idx, n_idx = split.target_idx, split.nuisance_idx
        d_metric = MetricTensor.full(psd_power(fisher[np.ix_(t_idx, t_idx)], 0.5))
        h_metric = MetricTensor.full(psd_power(fisher[np.ix_(n_idx, n_idx)], 0.5))
        mc = np.random.default_rng(0)
        tau3 = d12 = d21 = 0.0
        for _ in range(tol.MC_DIRECTIONS):
            zt = split.embed(mc.standard_normal(split.p), np.zeros(split.q))
            zn = split.embed(np.zeros(split.p), mc.standard_normal(split.q))
            nd = d_metric.norm(zt[t_idx])
            nh = h_metric.norm(zn[n_idx])
            tau3 = max(tau3, abs(obj.third_directional(center, zt, zt, zt)) / nd**3,
                       abs(obj.third_directional(center, zn, zn, zn)) / nh**3)
            d21 = max(d21, abs(obj.third_directional(center, zt, zt, zn)) / (nd**2 * nh))
            d12 = max(d12, abs(obj.third_directional(center, zt, zn, zn)) / (nd * nh**2))
        assert tau3 <= envelope.tau3
        assert d12 <= envelope.d12
        assert d21 <= envelope.d21
        assert tau3 > 0.0


class TestFileFormats:
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

    def test_graph_only_file(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text("j,m,N\n1,2,3\n2,3,1\n")
        g = read_observations(path)
        assert isinstance(g, ComparisonGraph)
        assert g.n == 3 and g.n_edges == 2

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
        ("1,2,nan,0\n", "line 2: N must be a finite number >= 1"),
        ("1,3,3,1\n2,3,3,4\n", "line 3: S must lie in [0, N]; got j=2, m=3, N=3, S=4"),
        ("1,2,3,-1\n", "line 2: S must lie in [0, N]"),
        ("1,2,3,1\n2,3,3,1\n1,2,1,0\n", "line 4: the pair is already on line 2"),
        ("1,2,3,1\n\n2,3,3,9\n", "line 4: S must lie in [0, N]"),
    ], ids=["non_integer_index", "non_numeric_count", "j_not_below_m", "index_below_one",
            "count_below_one", "count_nan", "wins_above_count", "wins_negative",
            "duplicate_pair", "blank_line_counted"])
    def test_malformed_observations_name_file_and_line(self, tmp_path, body, message):
        path = tmp_path / "obs.csv"
        path.write_text("j,m,N,S\n" + body)
        with pytest.raises(ValueError) as exc:
            read_observations(path)
        assert str(exc.value).startswith(f"{path}, line ")
        assert message in str(exc.value)

    def test_index_above_given_item_count(self, tmp_path):
        path = tmp_path / "graph.csv"
        path.write_text("j,m,N\n1,2,1\n2,5,1\n")
        with pytest.raises(ValueError, match="line 3: indices must not exceed the item count 4"):
            read_observations(path, n=4)
