"""Command-line interface: subcommands, flags, reproducibility, exit codes."""

import csv
import json

import numpy as np
import pytest

from perturbopt import tolerances as tol
from perturbopt.btl import (
    BtlObservation,
    ComparisonGraph,
    btl_condition_constants,
    btl_objective,
    read_scores,
    sample_er_graph,
    sample_outcomes,
    write_observations,
    write_scores,
)
from perturbopt.cli import dispatch
from perturbopt.experiments import ExperimentConfig, _sample_instance, expansion_replication
from perturbopt.objective import newton_minimize


@pytest.fixture()
def symmetric_obs(tmp_path):
    graph = ComparisonGraph.from_edges(2, [0], [1], [2.0])
    obs = BtlObservation(graph=graph, wins=np.array([1.0]))
    path = tmp_path / "obs.csv"
    write_observations(path, obs)
    return path


@pytest.fixture()
def sampled_instance(tmp_path):
    rng = np.random.default_rng(5)
    graph = sample_er_graph(8, 1.0, 4, rng)
    truth = rng.uniform(0, 2, 8)
    truth -= truth.mean()
    obs = sample_outcomes(graph, truth, rng)
    obs_path = tmp_path / "obs.csv"
    truth_path = tmp_path / "truth.csv"
    write_observations(obs_path, obs)
    write_scores(truth_path, truth)
    return obs_path, truth_path


class TestUsage:
    def test_unknown_flag_exits_2(self, capsys):
        assert dispatch(["selftest", "--bogus"]) == 2
        capsys.readouterr()

    def test_missing_subcommand_exits_2(self, capsys):
        assert dispatch([]) == 2
        capsys.readouterr()

    def test_help_lists_defaults(self, capsys):
        assert dispatch(["fit", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--penalty" in out and "--gsq" in out and "--seed" in out
        assert "mean_shift" in out


class TestFit:
    def test_symmetric_scores_zero(self, symmetric_obs, tmp_path, capsys):
        out = tmp_path / "scores.csv"
        code = dispatch(["fit", "--input", str(symmetric_obs), "--out", str(out)])
        assert code == 0
        scores = read_scores(out)
        np.testing.assert_allclose(scores, np.zeros(2), atol=1e-8)
        assert "converged" in capsys.readouterr().out

    def test_strict_flags_divergence(self, tmp_path, capsys):
        graph = ComparisonGraph.from_edges(2, [0], [1], [1.0])
        obs = BtlObservation(graph=graph, wins=np.array([1.0]))
        path = tmp_path / "one_sided.csv"
        write_observations(path, obs)
        out = tmp_path / "scores.csv"
        assert dispatch(["fit", "--input", str(path), "--out", str(out)]) == 0
        assert dispatch(["fit", "--input", str(path), "--out", str(out), "--strict"]) == 1
        capsys.readouterr()


class TestInputErrors:
    @pytest.mark.parametrize("command", ["fit", "diagnose"])
    @pytest.mark.parametrize("text, message", [
        ("j,m,N,S\n1,2,3,1\n1,2,3,2\n", ", line 3: the pair is already on line 2"),
        ("j,m,N\n1,2,3\n", ": no outcome column S"),
    ], ids=["duplicate_pair", "graph_only"])
    def test_malformed_observations_exit_1(self, command, text, message, tmp_path, capsys):
        path = tmp_path / "obs.csv"
        path.write_text(text)
        truth = tmp_path / "truth.csv"
        write_scores(truth, np.zeros(2))
        argv = [command, "--input", str(path), "--out", str(tmp_path / "out.csv")]
        if command == "diagnose":
            argv += ["--truth", str(truth)]
        assert dispatch(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {path}{message}")
        assert not (tmp_path / "out.csv").exists()

    def test_malformed_truth_exit_1(self, sampled_instance, tmp_path, capsys):
        obs_path, truth_path = sampled_instance
        truth_path.write_text("item,score\n1,0.0\n1,0.5\n")
        assert dispatch(["diagnose", "--input", str(obs_path), "--truth", str(truth_path),
                         "--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {truth_path}: item ids")


class TestDiagnose:
    def test_writes_reports_and_meta(self, sampled_instance, tmp_path, capsys):
        obs_path, truth_path = sampled_instance
        out = tmp_path / "report.csv"
        code = dispatch([
            "diagnose", "--input", str(obs_path), "--truth", str(truth_path),
            "--out", str(out), "--gsq", "4.0",
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("variant,")
        assert len(lines) >= 6
        meta = json.loads((tmp_path / "report.csv.meta.json").read_text())
        assert {"rho_dual", "rho_dual_l2", "delta_nano", "prerequisites"} <= meta.keys()
        capsys.readouterr()

    def test_matches_expansion_replication(self, tmp_path, capsys):
        # ridge penalty keeps rho_dual well below one, so every bound is finite
        cfg = ExperimentConfig(n_list=(30,), reps=1, seed=3, gsq=20.0, penalty_kind="ridge")
        result = expansion_replication(cfg, 30, 0, with_bounds=True)
        _, truth, obs = _sample_instance(cfg, 30, 0)
        obs_path, truth_path = tmp_path / "obs.csv", tmp_path / "truth.csv"
        write_observations(obs_path, obs)
        write_scores(truth_path, truth)
        out = tmp_path / "report.csv"
        assert dispatch(["diagnose", "--input", str(obs_path), "--truth", str(truth_path),
                         "--out", str(out), "--penalty", "ridge", "--gsq", "20"]) == 0
        capsys.readouterr()

        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["variant"], float(r["leading"]), float(r["remainder"]), float(r["bound"]),
                 r["holds"] == "True") for r in rows] == [
            (r.variant, r.leading, r.remainder, r.bound, r.holds) for r in result.reports
        ]
        diag = result.diagnostics
        assert diag.all_prerequisites_hold
        meta = json.loads((tmp_path / "report.csv.meta.json").read_text())
        assert meta["rho_dual"] == diag.rho_dual
        assert meta["rho_dual_l2"] == diag.rho_dual_l2
        assert meta["r_infty"] == diag.r_infty
        assert meta["dltwb"] == diag.dltwb
        assert meta["delta_nano"] == diag.delta_nano
        assert meta["delta_infty"] == diag.delta_infty
        assert meta["scaled_noise_supnorm"] == diag.a_norm
        assert meta["prerequisites"] == diag.prerequisites_hold
        # the constants are the sup-norm ones on the radius the diagnostics used
        expected = btl_objective(obs.graph, cfg.penalty, mode="expected", truth=truth)
        ups_star = newton_minimize(expected, truth, tol_grad=tol.JOINT_SOLVE_TOL).argmin
        constants = btl_condition_constants(obs.graph, cfg.penalty, ups_star,
                                            radius=diag.r_infty, norm="linf")
        assert meta["constants"] == {"tau3": constants.tau3, "d12": constants.d12,
                                     "d21": constants.d21}


class TestAoCommand:
    def test_degenerate_instance_exits_1(self, capsys):
        # one game between two items: the fit diverges, no trace is produced
        assert dispatch(["ao", "--n", "2", "--L", "1", "--seed", "1",
                         "--steps", "3"]) == 1
        assert "failed" in capsys.readouterr().out

    def test_trace_export(self, tmp_path, capsys):
        out = tmp_path / "trace.csv"
        code = dispatch([
            "ao", "--n", "12", "--seed", "7", "--gap", "0.02", "--steps", "5",
            "--L", "3", "--gsq", "5.0", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,theta_err,nui_err,eps_norm,alpha_norm"
        assert len(lines) == 7
        assert "measured-rate" in capsys.readouterr().out


class TestStudyCommands:
    def test_rho_study_deterministic(self, tmp_path, capsys):
        args = ["study-rho", "--n-list", "20", "--reps", "5", "--seed", "1",
                "--threads", "1"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert dispatch(args + ["--out", str(out1)]) == 0
        assert dispatch(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        capsys.readouterr()

    def test_env_seed_fallback(self, tmp_path, capsys, monkeypatch):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("PERTURBOPT_SEED", "77")
        assert dispatch(["study-rho", "--n-list", "20", "--reps", "2",
                         "--threads", "1", "--out", str(out1)]) == 0
        monkeypatch.delenv("PERTURBOPT_SEED")
        assert dispatch(["study-rho", "--n-list", "20", "--reps", "2", "--seed", "77",
                         "--threads", "1", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        capsys.readouterr()

    def test_config_file_layering(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"reps": 2, "seed": 3, "n_list": "20"}))
        out1 = tmp_path / "from_config.csv"
        assert dispatch(["study-rho", "--config", str(config), "--threads", "1",
                         "--out", str(out1)]) == 0
        # explicit flag overrides the config value
        out2 = tmp_path / "override.csv"
        assert dispatch(["study-rho", "--config", str(config), "--seed", "4",
                         "--threads", "1", "--out", str(out2)]) == 0
        assert out1.read_bytes() != out2.read_bytes()
        rows1 = out1.read_text().strip().splitlines()
        assert len(rows1) == 3
        capsys.readouterr()

    def test_expansion_study_json(self, tmp_path, capsys):
        out = tmp_path / "exp.json"
        code = dispatch(["study-expansion", "--n-list", "15", "--reps", "2",
                         "--seed", "2", "--format", "json", "--threads", "1",
                         "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert len(payload) == 2
        capsys.readouterr()

    def test_ao_study_runs(self, tmp_path, capsys):
        out = tmp_path / "ao.csv"
        code = dispatch(["study-ao", "--n-list", "10", "--reps", "2", "--seed", "7",
                         "--L", "3", "--gsq", "5.0", "--threads", "1",
                         "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 3
        capsys.readouterr()


class TestSelftest:
    def test_clean_build_passes(self, capsys):
        assert dispatch(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
