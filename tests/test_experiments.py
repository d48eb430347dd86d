"""Seeded studies: determinism, schemas, substream independence."""

import collections
import itertools
import json
import math

import numpy as np
import pytest

from perturbopt import btl, expansions, experiments, numkit, objective
from perturbopt import tolerances as tol
from perturbopt.ao import estimate_rate
from perturbopt.btl import BtlObservation, ComparisonGraph, PenaltySpec, noise_gradient, sigmoid
from perturbopt.errors import InsufficientSteps
from perturbopt.experiments import (
    STUDIES,
    ExperimentConfig,
    _sample_instance,
    ao_replication,
    diagnose_expansion,
    edge_probability,
    emit,
    expansion_replication,
    parse_records,
    replication_rng,
    rho_replication,
    run_study,
    summarize_by_n,
)

# one small config per registered study, each with replications that record
# nothing (a disconnected design, no finite MLE) beside ones that do
STUDY_CONFIGS = {
    "rho": ExperimentConfig(n_list=(12, 20), p_rule=0.25, reps=3, seed=13),
    "expansion": ExperimentConfig(n_list=(12, 20), p_rule=0.2, reps=2, seed=7, L=5),
    "ao": ExperimentConfig(n_list=(10, 12), p_rule=0.4, reps=2, seed=8, L=3, gsq=5.0, steps=5),
}


class TestStudies:
    @pytest.mark.parametrize("name", list(STUDIES))
    def test_records_deterministic_in_registered_columns(self, name):
        study, cfg = STUDIES[name], STUDY_CONFIGS[name]
        first = run_study(study, cfg)
        np.testing.assert_equal(run_study(study, cfg), first)
        assert [(r["n"], r["rep"]) for r in first] == [
            (n, rep) for n in cfg.n_list for rep in range(cfg.reps)]
        for rec in first:
            assert rec["study"] == name and list(rec) == study.names
            assert all(isinstance(rec[key], kind) for key, kind in study.columns), rec


class TestConfig:
    def test_logcube_rule(self):
        cfg = ExperimentConfig(n_list=(100,))
        assert edge_probability(cfg, 100) == pytest.approx(math.log(100) ** 3 / 100)
        assert edge_probability(cfg, 20) == 1.0  # clipped into (0, 1]

    def test_fixed_rule(self):
        cfg = ExperimentConfig(n_list=(10,), p_rule=0.5)
        assert edge_probability(cfg, 10) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(n_list=(10,), reps=0)
        with pytest.raises(ValueError):
            ExperimentConfig(n_list=(10,), score_range=(2.0, 0.0))
        with pytest.raises(ValueError):
            ExperimentConfig(n_list=(10,), p_rule=0.0)
        with pytest.raises(ValueError, match="penalty needs gsq > 0"):
            ExperimentConfig(n_list=(10,), gsq=0.0)
        with pytest.raises(ValueError, match="unknown penalty kind"):
            ExperimentConfig(n_list=(10,), penalty_kind="lasso")
        with pytest.raises(ValueError, match="at least one comparison per edge"):
            ExperimentConfig(n_list=(10,), L=0)
        for steps in (0, tol.AO_BURN_IN + 1):
            with pytest.raises(ValueError, match="alternation steps"):
                ExperimentConfig(n_list=(10,), steps=steps)
        for gap in (float("nan"), float("inf"), -0.01):
            with pytest.raises(ValueError, match="start gap must be finite and >= 0"):
                ExperimentConfig(n_list=(10,), gap=gap)
        for score_range in ((0.0, float("inf")), (float("nan"), 1.0)):
            with pytest.raises(ValueError, match="score range ends must be finite"):
                ExperimentConfig(n_list=(10,), score_range=score_range)
        with pytest.raises(ValueError, match="gsq must be finite"):
            ExperimentConfig(n_list=(10,), gsq=float("inf"))
        # the fewest steps whose rate estimate_rate accepts: a run of s steps has s + 1 norms
        fewest = ExperimentConfig(n_list=(10,), steps=tol.AO_BURN_IN + 2).steps
        assert estimate_rate(0.5 ** np.arange(fewest + 1)) == pytest.approx(0.5, rel=1e-15)
        with pytest.raises(InsufficientSteps):
            estimate_rate(0.5 ** np.arange(fewest))


class TestRhoStudy:
    def test_execution_order_irrelevant(self):
        cfg = ExperimentConfig(n_list=(25,), reps=4, seed=9)
        ordered = [rho_replication(cfg, 25, rep) for rep in range(4)]
        permuted = [rho_replication(cfg, 25, rep) for rep in (2, 0, 3, 1)]
        permuted.sort(key=lambda r: r["rep"])
        assert ordered == permuted

    def test_tiny_complete_graph_against_brute_force(self):
        cfg = ExperimentConfig(n_list=(4,), p_rule=0.999999, reps=1, seed=1)
        rec = rho_replication(cfg, 4, 0)
        # rebuild the instance and enumerate sign vectors directly
        from perturbopt.btl import btl_objective
        from perturbopt.experiments import _sample_instance

        graph, truth, _ = _sample_instance(cfg, 4, 0)
        fisher = btl_objective(graph, cfg.penalty, mode="expected", truth=truth).hessian(truth)
        d = np.sqrt(np.diag(fisher))
        brute = 0.0
        for j in range(4):
            others = [m for m in range(4) if m != j]
            for signs in itertools.product((-1.0, 1.0), repeat=3):
                val = sum(s * fisher[j, m] / (d[j] * d[m]) for s, m in zip(signs, others))
                brute = max(brute, abs(val))
        assert rec["rho_dual"] == pytest.approx(brute, abs=1e-12)
        # squared cross-row display recomputed directly
        sq = (fisher / np.outer(d, d)) ** 2
        np.fill_diagonal(sq, 0.0)
        assert rec["rho_dual_l2"] == pytest.approx(sq.sum(axis=1).max(), abs=1e-12)

    def test_disconnected_recorded_and_excluded(self):
        cfg = ExperimentConfig(n_list=(12,), p_rule=0.05, reps=10, seed=2)
        records = run_study(STUDIES["rho"], cfg)
        assert len(records) == 10
        disconnected = [r for r in records if not r["connected"]]
        assert disconnected  # p this small leaves isolated vertices
        summary = summarize_by_n(records, "rho_dual_l2", keep=lambda r: r["connected"])
        if summary:
            assert summary[12]["count"] + summary[12]["dropped"] == 10


class TestExpansionStudy:
    def test_plug_in_observation_gives_zeros(self):
        # outcomes fixed at their expectations: noise gradient and both errors vanish
        g = ComparisonGraph.from_edges(3, [0, 0, 1], [1, 2, 2], [4.0, 4.0, 4.0])
        truth = np.array([0.6, 0.0, -0.6])
        wins = g.counts * sigmoid(truth[g.j] - truth[g.m])
        obs = BtlObservation(graph=g, wins=wins)
        assert np.abs(noise_gradient(obs, truth)).max() == 0.0
        from perturbopt.btl import fit_penalized_mle

        fit = fit_penalized_mle(obs, PenaltySpec.mean_shift(1.0), tol_grad=1e-12)
        assert fit.converged
        assert np.abs(fit.argmin - truth).max() <= 1e-10

    def test_study_records(self):
        cfg = ExperimentConfig(n_list=(20,), reps=3, seed=4)
        records = run_study(STUDIES["expansion"], cfg)
        assert len(records) == 3
        for rec in records:
            if rec["converged"]:
                assert rec["rem_fish"] < rec["lead_fish"]

    def test_high_precision_cross_check(self):
        # one replication re-derived end to end with an independent solver
        cfg = ExperimentConfig(n_list=(15,), reps=1, seed=6)
        rec = expansion_replication(cfg, 15, 0).record
        assert rec["converged"]

        from perturbopt.btl import btl_objective
        from perturbopt.experiments import _sample_instance

        graph, truth, obs = _sample_instance(cfg, 15, 0)
        obj = btl_objective(obs, cfg.penalty)
        x = np.zeros(15)
        for _ in range(80):  # plain full-step Newton at tight tolerance
            step = np.linalg.solve(obj.hessian(x), obj.gradient(x))
            x = x - step
            if np.abs(obj.gradient(x)).max() <= 1e-14:
                break
        fisher = btl_objective(graph, cfg.penalty, mode="expected", truth=truth).hessian(truth)
        noise = noise_gradient(obs, truth)
        lead = np.linalg.solve(fisher, noise)
        assert rec["lead_fish"] == pytest.approx(np.abs(lead).max(), rel=1e-10)
        assert rec["rem_fish"] == pytest.approx(np.abs(x - truth + lead).max(), rel=1e-6)

    def test_sup_norm_constants_reuse_the_fisher_diagonal(self, monkeypatch):
        seen = []

        def spy(*args, **kwargs):
            seen.append((args, kwargs))
            return btl.btl_condition_constants(*args, **kwargs)

        monkeypatch.setattr(experiments, "btl_condition_constants", spy)
        cfg = ExperimentConfig(n_list=(30,), reps=1, seed=3, gsq=20.0, penalty_kind="ridge")
        _, truth, obs = _sample_instance(cfg, 30, 0)
        constants, _, _ = diagnose_expansion(obs, truth, cfg.penalty)
        (args, kwargs), = seen
        _, ups_star, fisher = experiments._expected_minimizer(obs.graph, cfg.penalty, truth)
        assert np.array_equal(args[2], ups_star)
        # the metric the constants rebuild from the graph is the Fisher diagonal, bit for bit
        assert constants == btl._linf_constants(obs.graph, ups_star, kwargs["radius"],
                                                np.sqrt(np.diag(fisher)))

    @pytest.mark.parametrize("penalty", [PenaltySpec.mean_shift(1.0), PenaltySpec.ridge(20.0)])
    def test_diagnose_report_bytes_match_the_plain_check(self, penalty, tmp_path):
        """The residual check solves from its one evaluation at the minimizer, with the
        given Fisher matrix as the first Newton matrix; its report has the bits of the
        check run from nothing given, and of a plain Newton solve of the perturbed model."""
        cfg = ExperimentConfig(n_list=(40,), reps=1, seed=9)
        _, truth, obs = _sample_instance(cfg, 40, 0)
        constants, _, reports = diagnose_expansion(obs, truth, penalty)
        expected, ups_star, fisher = experiments._expected_minimizer(obs.graph, penalty, truth)
        noise = noise_gradient(obs, truth)
        _, plain = expansions.check_linear_sup_expansion(expected, noise, constants, ups_star)
        # the parent's solve: Newton from the perturbed model's own evaluation
        sol = experiments.newton_minimize(objective.LinearPerturbation(expected, noise),
                                          ups_star, tol_grad=tol.JOINT_SOLVE_TOL)
        d = np.sqrt(np.diag(fisher))
        _, reference = expansions._sup_norm_reports(
            "lin", fisher, d, expansions.rho_dual(fisher, d), sol.argmin - ups_star, noise,
            constants, sol.converged)
        written = []
        for name, rows in (("diagnose", reports), ("plain", plain), ("reference", reference)):
            expansions.reports_to_csv(rows, tmp_path / name)
            written.append((tmp_path / name).read_bytes())
        assert len(reports) == 5
        assert written[0] == written[1] == written[2]

    def test_one_fisher_matrix_per_diagnose(self, monkeypatch):
        points = []
        hessian = btl.BtlObjective.hessian
        monkeypatch.setattr(btl.BtlObjective, "hessian",
                            lambda self, x: points.append(x) or hessian(self, x))
        cfg = ExperimentConfig(n_list=(30,), reps=1, seed=3)
        _, truth, obs = _sample_instance(cfg, 30, 0)
        diagnose_expansion(obs, truth, cfg.penalty)
        assert len(points) == 1

    @pytest.mark.parametrize("p, gsq, radius_zero", [(0.3, 1.0, True), (1.0, 6.0, False)])
    def test_one_dual_value_at_either_radius(self, p, gsq, radius_zero, monkeypatch):
        calls = collections.Counter()
        for module in (expansions, experiments):
            fn = module.rho_dual
            monkeypatch.setattr(module, "rho_dual",
                                lambda *args, fn=fn: calls.update(["rho_dual"]) or fn(*args))
        rng = np.random.default_rng(11)
        graph = btl.sample_er_graph(25, p, 1, rng)
        truth = rng.uniform(-0.3, 0.3, 25)
        truth -= truth.mean()
        _, diagnostics, _ = diagnose_expansion(btl.sample_outcomes(graph, truth, rng), truth,
                                               PenaltySpec.mean_shift(gsq))
        # the dual value decides the radius of the sup-norm constants
        assert (diagnostics.rho_dual >= 1.0) == radius_zero
        assert calls["rho_dual"] == 1


class TestAoStudy:
    def test_surrogate_rate_matches_contraction_norm(self):
        cfg = ExperimentConfig(n_list=(12,), reps=1, seed=7, L=3, gsq=5.0,
                               gap=0.02, steps=6, surrogate=True)
        rec = ao_replication(cfg, 12, 0).record
        assert rec["rate"] == pytest.approx(rec["ppT"], abs=1e-6)

    def test_out_of_radius_start_recorded_with_failed_certificate(self):
        cfg = ExperimentConfig(n_list=(12,), reps=1, seed=7, L=3, gsq=5.0,
                               gap=2.5, steps=6)
        res = ao_replication(cfg, 12, 0)
        assert res.trace is not None
        assert not res.record["cert_ok"]
        assert np.isfinite(res.record["rate"])

    def test_one_fisher_matrix_and_one_geometry_per_replication(self, monkeypatch):
        calls = collections.defaultdict(list)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name].append(args)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(btl.BtlObjective, "hessian",
                            counted("hessian", btl.BtlObjective.hessian))
        monkeypatch.setattr(numkit.BlockGeometry, "__init__",
                            counted("geometry", numkit.BlockGeometry.__init__))
        monkeypatch.setattr(numkit, "spectral_norm",
                            counted("spectral_norm", numkit.spectral_norm))
        cfg = ExperimentConfig(n_list=(50,), reps=1, seed=1, L=3, gsq=5.0, gap=0.02, steps=8)
        result = ao_replication(cfg, 50, 0)
        assert result.trace is not None and np.isfinite(result.record["ppT"])
        ups_star = result.trace.upsilon_star
        assert len(calls["hessian"]) == 1
        assert np.array_equal(calls["hessian"][0][1], ups_star)
        assert len(calls["geometry"]) == 1
        # ppT is the top eigenvalue of PP', and rho_star of the certificate is its root
        assert len(calls["spectral_norm"]) == 0
        assert result.certificate.ppt_norm == result.record["ppT"]

    def test_one_symmetry_check_per_replication(self, monkeypatch):
        # the Fisher matrix is checked once, where contraction_matrix takes it in
        calls = []
        check = numkit.check_symmetric
        monkeypatch.setattr(numkit, "check_symmetric",
                            lambda *args, **kwargs: calls.append(args) or check(*args, **kwargs))
        cfg = ExperimentConfig(n_list=(50,), reps=1, seed=1, L=3, gsq=5.0, gap=0.02, steps=8)
        result = ao_replication(cfg, 50, 0)
        assert result.trace is not None
        assert len(calls) == 1

    def test_infeasible_radii_named_after_one_constants_call(self, monkeypatch):
        calls = []
        constants = experiments.btl_condition_constants
        monkeypatch.setattr(experiments, "btl_condition_constants",
                            lambda *args, **kwargs: calls.append(kwargs["radii"])
                            or constants(*args, **kwargs))
        cfg = ExperimentConfig(n_list=(30,), reps=1, seed=7, L=3, gsq=5.0)
        result = ao_replication(cfg, 30, 0)
        assert result.trace is not None and not result.record["cert_ok"]
        assert result.certificate.conditions_hold == {"radii_feasible": False}
        assert calls == [(0.0, 0.0)]  # no second call at infinite radii


class TestEmit:
    def test_header_only_csv(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit([], "csv", path)
        assert path.read_text().strip() == "study"
        assert parse_records(path) == []

    def test_unregistered_study_refused(self, tmp_path):
        path = tmp_path / "other.csv"
        with pytest.raises(ValueError, match="no registered study 'other'"):
            emit([{"study": "other", "n": 3}], "csv", path)
        assert not path.exists()

    @pytest.mark.parametrize("name", list(STUDIES))
    def test_round_trip(self, name, tmp_path):
        cfg = STUDY_CONFIGS[name]
        records = run_study(STUDIES[name], cfg)
        path = tmp_path / f"{name}.csv"
        emit(records, "csv", path, config=cfg)
        parsed = parse_records(path)
        assert len(parsed) == len(records)
        for a, b in zip(parsed, records):
            assert a.keys() == b.keys()
            for key in a:
                if isinstance(b[key], float):
                    assert a[key] == pytest.approx(b[key], rel=1e-15, nan_ok=True)
                else:
                    assert a[key] == b[key]

    _RHO = "study,n,rep,seed,rho_dual,rho_dual_l2,connected,diag_dom_margin\n"

    @pytest.mark.parametrize("text, message", [
        (_RHO + "rho,12,0,4,2.2,0.45,True,-0.6\n", "line 2: connected: cannot read 'True' as bool"),
        (_RHO + "rho,12,0,4,2.2,0.45,yes,-0.6\n", "line 2: connected: cannot read 'yes' as bool"),
        (_RHO + "rho,12,0,4,2.2,0.45,true,-0.6\nrho,12,1.5,4,2.2,0.45,true,-0.6\n",
         "line 3: rep: cannot read '1.5' as int"),
        (_RHO + "rho,12,0,4,2.2,,true,-0.6\n", "line 2: rho_dual_l2: cannot read '' as float"),
        (_RHO + "rho,12,0,4,2.2,0.45,true\n", "line 2: 7 cells under 8 columns"),
        (_RHO + "ao,12,0,4,0.3,0.3,true,8\n", "line 1: the header is not the ao study's columns"),
        (_RHO.replace("rho_dual,rho_dual_l2", "rho_dual_l2,rho_dual")
         + "rho,12,0,4,2.2,0.45,true,-0.6\n", "line 1: the header is not the rho study's columns"),
        (_RHO + "other,12,0,4,2.2,0.45,true,-0.6\n", "line 2: no registered study 'other'"),
        (_RHO, "no records, and the header is not the one-column 'study'"),
        ("", "no records, and the header is not the one-column 'study'"),
    ])
    def test_parse_records_refuses_a_bad_file(self, text, message, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            parse_records(path)
        assert str(info.value).startswith(str(path)) and message in str(info.value)

    def test_row_count_and_columns(self, tmp_path):
        cfg = ExperimentConfig(n_list=(20,), reps=3, seed=10)
        records = run_study(STUDIES["rho"], cfg)
        path = tmp_path / "rho.csv"
        emit(records, "csv", path, config=cfg)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 4
        assert lines[0] == ",".join(STUDIES["rho"].names)

    def test_json_mirror_and_sidecar(self, tmp_path):
        cfg = ExperimentConfig(n_list=(20,), reps=2, seed=11)
        records = run_study(STUDIES["rho"], cfg)
        path = tmp_path / "rho.json"
        emit(records, "json", path, config=cfg)
        payload = json.loads(path.read_text())
        assert [r["rep"] for r in payload] == [0, 1]
        meta = json.loads((tmp_path / "rho.json.meta.json").read_text())
        assert meta["seed"] == 11
        assert meta["config"]["n_list"] == [20]
        assert meta["records"] == 2

    def test_byte_identical_reruns(self, tmp_path):
        cfg = ExperimentConfig(n_list=(25,), reps=4, seed=12)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(run_study(STUDIES["rho"], cfg), "csv", p1, config=cfg)
        emit(run_study(STUDIES["rho"], cfg), "csv", p2, config=cfg)
        assert p1.read_bytes() == p2.read_bytes()


class TestSubstreams:
    def test_streams_differ_across_reps(self):
        a = replication_rng(1, 50, 0).standard_normal(4)
        b = replication_rng(1, 50, 1).standard_normal(4)
        assert not np.allclose(a, b)

    def test_streams_reproducible(self):
        a = replication_rng(1, 50, 3).standard_normal(4)
        b = replication_rng(1, 50, 3).standard_normal(4)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("name", list(STUDIES))
    def test_parallel_matches_serial(self, name):
        cfg = STUDY_CONFIGS[name]
        serial = run_study(STUDIES[name], cfg, threads=1)
        parallel = run_study(STUDIES[name], cfg, threads=2)
        np.testing.assert_equal(parallel, serial)


class TestSummaries:
    def test_moments(self):
        records = [
            {"n": 10, "x": 1.0, "ok": True},
            {"n": 10, "x": 3.0, "ok": True},
            {"n": 10, "x": 99.0, "ok": False},
        ]
        out = summarize_by_n(records, "x", keep=lambda r: r["ok"])
        assert out[10]["count"] == 2
        assert out[10]["dropped"] == 1
        assert out[10]["mean"] == pytest.approx(2.0)
        assert out[10]["std"] == pytest.approx(np.std([1.0, 3.0], ddof=1))
