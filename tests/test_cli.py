"""Command-line interface: subcommands, flags, reproducibility, exit codes."""

import argparse
import csv
import dataclasses
import functools
import json
import math
import os
import pathlib
import runpy
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from perturbopt import btl, cli, experiments, numkit, objective
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
from perturbopt.errors import InnerSolveFailed
from perturbopt.experiments import ExperimentConfig, _sample_instance
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
        assert "--penalty" in out and "--gsq" in out and "--seed" not in out
        assert "mean_shift" in out
        assert dispatch(["study-rho", "--help"]) == 0
        assert "--seed" in capsys.readouterr().out

    @pytest.mark.parametrize("flag, value", [
        ("--n-list", "20,x"), ("--score-range", "0,1,2"), ("--p-rule", "often"),
    ])
    def test_malformed_flag_value_exits_2(self, flag, value, tmp_path, capsys):
        out = tmp_path / "rho.csv"
        assert dispatch(["study-rho", flag, value, "--out", str(out)]) == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err
        assert not out.exists()

    def test_shared_parser_keeps_no_values_between_calls(self, monkeypatch):
        assert cli.build_parser() is cli.build_parser()
        seen = []
        for name in ("_cmd_fit", "_cmd_ao"):
            monkeypatch.setattr(cli, name, lambda args: seen.append(vars(args)) or 0)
        assert dispatch(["fit", "--input", "a.csv", "--out", "b.csv", "--penalty", "ridge",
                         "--gsq", "2", "--solver", "mm", "--tol", "1e-3", "--strict",
                         "--config", "c.json"]) == 0
        assert dispatch(["ao", "--n", "7", "--L", "2", "--surrogate", "--out", "t.csv"]) == 0
        assert dispatch(["fit", "--input", "d.csv", "--out", "e.csv"]) == 0
        assert seen[1] == {"subcommand": "ao", "n": 7, "p_rule": None, "L": 2, "gsq": None,
                           "penalty": None, "score_range": None, "seed": None, "gap": None,
                           "steps": None, "surrogate": True, "out": "t.csv", "config": None}
        assert seen[2] == {"subcommand": "fit", "input": "d.csv", "out": "e.csv",
                           "penalty": None, "gsq": None, "solver": None, "tol": None,
                           "strict": False, "config": None}
        assert seen[0]["gsq"] == 2.0 and seen[0]["strict"] and seen[0]["tol"] == 1e-3


class TestFit:
    def test_symmetric_scores_zero(self, symmetric_obs, tmp_path, capsys):
        out = tmp_path / "scores.csv"
        code = dispatch(["fit", "--input", str(symmetric_obs), "--out", str(out)])
        assert code == 0
        scores = read_scores(out)
        np.testing.assert_allclose(scores, np.zeros(2), atol=1e-8)
        assert "converged" in capsys.readouterr().out

    def test_solvers_write_the_same_scores(self, sampled_instance, tmp_path, capsys):
        scores = {}
        for solver in ("newton", "mm"):
            out = tmp_path / f"{solver}.csv"
            assert dispatch(["fit", "--input", str(sampled_instance[0]), "--out", str(out),
                             "--solver", solver, "--tol", "1e-12", "--strict"]) == 0
            scores[solver] = read_scores(out)
        assert np.abs(scores["newton"] - scores["mm"]).max() <= 1e-9
        capsys.readouterr()

    def test_removed_coordinate_solver_is_refused(self, symmetric_obs, tmp_path, capsys):
        out = tmp_path / "scores.csv"
        assert dispatch(["fit", "--input", str(symmetric_obs), "--out", str(out),
                         "--solver", "coord"]) == 2
        assert "argument --solver: invalid choice: 'coord'" in capsys.readouterr().err
        config = tmp_path / "cfg.json"
        config.write_text('{"solver": "coord"}')
        assert dispatch(["fit", "--input", str(symmetric_obs), "--out", str(out),
                         "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {config}: solver: invalid value 'coord' for --solver\n"
        assert not out.exists()

    def test_strict_flags_divergence(self, tmp_path, capsys):
        graph = ComparisonGraph.from_edges(2, [0], [1], [1.0])
        obs = BtlObservation(graph=graph, wins=np.array([1.0]))
        path = tmp_path / "one_sided.csv"
        write_observations(path, obs)
        out = tmp_path / "scores.csv"
        assert dispatch(["fit", "--input", str(path), "--out", str(out)]) == 0
        assert dispatch(["fit", "--input", str(path), "--out", str(out), "--strict"]) == 1
        capsys.readouterr()


class TestSeed:
    """``fit`` and ``diagnose`` are deterministic and take no seed."""

    def test_fit_refuses_a_seed_flag(self, symmetric_obs, tmp_path, capsys):
        out = tmp_path / "scores.csv"
        assert dispatch(["fit", "--input", str(symmetric_obs), "--seed", "5",
                         "--out", str(out)]) == 2
        assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_variable_is_not_read(self, sampled_instance, tmp_path, capsys, monkeypatch):
        obs_path, truth_path = sampled_instance
        monkeypatch.setenv("PERTURBOPT_SEED", "abc")
        assert dispatch(["fit", "--input", str(obs_path), "--out",
                         str(tmp_path / "scores.csv")]) == 0
        assert dispatch(["diagnose", "--input", str(obs_path), "--truth", str(truth_path),
                         "--out", str(tmp_path / "report.csv")]) == 0
        assert capsys.readouterr().err == ""

    def test_config_seed_key_is_accepted(self, sampled_instance, tmp_path, capsys):
        # one config file may serve the studies and fit alike
        obs_path, _ = sampled_instance
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"seed": 3, "penalty": "ridge"}))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert dispatch(["fit", "--input", str(obs_path), "--config", str(config),
                         "--out", str(out1)]) == 0
        assert dispatch(["fit", "--input", str(obs_path), "--penalty", "ridge",
                         "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        capsys.readouterr()


class TestInputErrors:
    @pytest.mark.parametrize("command", ["fit", "diagnose"])
    @pytest.mark.parametrize("text, message", [
        ("j,m,N,S\n1,2,3,1\n1,2,3,2\n", ", line 3: the pair is already on line 2"),
        ("j,m,N\n1,2,3\n", ": missing columns ['S']\n"),
        ("j,m,N,S\n1,2,nan,1\n", ", line 2: N must be a finite number >= 1; got j=1, m=2, "
                                  "N=nan, S=1\n"),
        ("j,m,N,S\n1,2,3,1\n2,3,3,nan\n", ", line 3: S must lie in [0, N]"),
    ], ids=["duplicate_pair", "graph_only", "count_nan", "wins_nan"])
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

    @pytest.mark.parametrize("command", ["fit", "diagnose"])
    @pytest.mark.parametrize("penalty", ["mean_shift", "ridge"])
    def test_zero_penalty_strength_exit_1(self, command, penalty, sampled_instance, tmp_path,
                                          capsys):
        obs_path, truth_path = sampled_instance
        out = tmp_path / "out.csv"
        argv = [command, "--input", str(obs_path), "--out", str(out), "--penalty", penalty,
                "--gsq", "0"]
        if command == "diagnose":
            argv += ["--truth", str(truth_path)]
        assert dispatch(argv) == 1
        assert capsys.readouterr().err == f"error: a {penalty} penalty needs gsq > 0, got 0.0\n"
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, message", [
        ("--tol", "inf", "the gradient tolerance must be finite and > 0, got inf"),
        ("--tol", "nan", "the gradient tolerance must be finite and > 0, got nan"),
        ("--tol", "0", "the gradient tolerance must be finite and > 0, got 0.0"),
        ("--tol", "-1", "the gradient tolerance must be finite and > 0, got -1.0"),
        ("--gsq", "inf", "the penalty strength gsq must be finite, got inf"),
    ])
    def test_unusable_fit_setting_exit_1(self, flag, value, message, sampled_instance,
                                         tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert dispatch(["fit", "--input", str(sampled_instance[0]), "--out", str(out),
                         flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--input", "--truth"])
    def test_missing_file_exit_1(self, flag, sampled_instance, tmp_path, capsys):
        obs_path, truth_path = sampled_instance
        missing = tmp_path / "missing.csv"
        paths = {"--input": str(obs_path), "--truth": str(truth_path), flag: str(missing)}
        assert dispatch(["diagnose", *[v for item in paths.items() for v in item],
                         "--out", str(tmp_path / "out.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(missing) in err and err.count("\n") == 1
        assert not (tmp_path / "out.csv").exists()

    def test_malformed_truth_exit_1(self, sampled_instance, tmp_path, capsys):
        obs_path, truth_path = sampled_instance
        truth_path.write_text("item,score\n1,0.0\n1,0.5\n")
        assert dispatch(["diagnose", "--input", str(obs_path), "--truth", str(truth_path),
                         "--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {truth_path}: item ids")

    def test_non_numeric_truth_exit_1(self, sampled_instance, tmp_path, capsys):
        obs_path, truth_path = sampled_instance
        truth_path.write_text("item,score\n1,0.0\nx,0.5\n")
        assert dispatch(["diagnose", "--input", str(obs_path), "--truth", str(truth_path),
                         "--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: {truth_path}, line 3: item must be")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf"])
    def test_non_finite_truth_exit_1(self, score, sampled_instance, tmp_path, capsys):
        obs_path, truth_path = sampled_instance
        truth_path.write_text(f"item,score\n1,{score}\n2,0.5\n")
        assert dispatch(["diagnose", "--input", str(obs_path), "--truth", str(truth_path),
                         "--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err == (f"error: {truth_path}, line 2: score must be finite; "
                                           f"got item='1', score='{score}'\n")
        assert not (tmp_path / "out.csv").exists()

    def test_first_bad_truth_line_named(self, sampled_instance, tmp_path, capsys):
        """Line 2's score is not finite and line 3's does not parse: line 2 comes first."""
        obs_path, truth_path = sampled_instance
        truth_path.write_text("item,score\n1,nan\n2,x\n")
        assert dispatch(["diagnose", "--input", str(obs_path), "--truth", str(truth_path),
                         "--out", str(tmp_path / "out.csv")]) == 1
        assert capsys.readouterr().err == (f"error: {truth_path}, line 2: score must be finite; "
                                           f"got item='1', score='nan'\n")
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command, flag", [
        ("fit", "--input"), ("diagnose", "--input"), ("diagnose", "--truth"),
    ])
    def test_empty_file_exit_1(self, command, flag, sampled_instance, tmp_path, capsys):
        """An input file without even a header line reads the same for both readers."""
        obs_path, truth_path = sampled_instance
        empty, out = tmp_path / "empty.csv", tmp_path / "out.csv"
        empty.write_text("")
        argv = [command, "--input", str(obs_path), "--out", str(out)]
        if command == "diagnose":
            argv += ["--truth", str(truth_path)]
        argv[argv.index(flag) + 1] = str(empty)
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {empty}: empty file\n" and captured.out == ""
        assert not out.exists() and not (tmp_path / "out.csv.meta.json").exists()

    @pytest.mark.parametrize("penalty", ["mean_shift", "ridge"])
    def test_disconnected_diagnose(self, penalty, tmp_path, capsys):
        """Without a ridge a disconnected design has no expected minimizer: exit 1."""
        obs_path, truth_path, out = (tmp_path / name for name in ("obs.csv", "truth.csv", "r.csv"))
        obs_path.write_text("j,m,N,S\n1,2,3,1\n3,4,3,2\n")
        write_scores(truth_path, np.array([0.1, -0.1, 0.2, -0.2]))
        code = dispatch(["diagnose", "--input", str(obs_path), "--truth", str(truth_path),
                         "--out", str(out), "--penalty", penalty])
        err = capsys.readouterr().err
        if penalty == "ridge":
            assert code == 0 and err == "" and out.exists()
        else:
            assert code == 1 and not out.exists()
            assert err == "error: singular fit: the design is disconnected, so the scores of " \
                          "its components are not comparable\n"

    @pytest.mark.parametrize("penalty", ["mean_shift", "ridge"])
    def test_divergent_diagnose(self, penalty, tmp_path, capsys):
        """Item 1 wins every game: without a ridge the perturbed objective, the empirical
        likelihood, has no finite minimizer, and its solve once read converged at scores
        up to 22.7.  Exit 1 with fit's divergent note, and write nothing."""
        obs_path, truth_path, out = (tmp_path / name for name in ("obs.csv", "truth.csv", "r.csv"))
        obs_path.write_text("j,m,N,S\n1,2,3,3\n1,3,3,3\n2,3,3,1\n2,4,3,2\n3,4,3,1\n")
        write_scores(truth_path, np.zeros(4))
        code = dispatch(["diagnose", "--input", str(obs_path), "--truth", str(truth_path),
                         "--out", str(out), "--penalty", penalty])
        err = capsys.readouterr().err
        if penalty == "ridge":
            assert code == 0 and err == "" and out.exists()
        else:
            assert code == 1 and not out.exists()
            assert not (tmp_path / "r.csv.meta.json").exists()
            assert err == "error: divergent: a one-sided win/loss pattern has no finite optimum\n"

    def test_truth_of_another_length_exit_1(self, tmp_path, capsys):
        """The library's check names the fault; nothing is written."""
        obs_path, truth_path, out = (tmp_path / name for name in ("obs.csv", "truth.csv", "r.csv"))
        obs_path.write_text("j,m,N,S\n1,2,3,1\n2,3,3,2\n3,4,3,1\n1,4,3,2\n")
        write_scores(truth_path, np.array([0.1, 0.0, -0.1]))
        assert dispatch(["diagnose", "--input", str(obs_path), "--truth", str(truth_path),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: truth has 3 scores, the design has 4 items\n"
        assert not out.exists() and not (tmp_path / "r.csv.meta.json").exists()

    @pytest.mark.parametrize("truth, fault", [
        ([40.0, -40.0, 0.0], "2-th leading minor"),  # the Fisher matrix at the minimizer
        ([41.0, -39.0, 1.0], "iterate 1: 2-th leading minor"),  # the polish solve's Hessian
    ])
    def test_singular_truth_exit_1(self, truth, fault, tmp_path, capsys):
        """Gaps of 40 and 80 leave the expected Fisher matrix 1/3 11' to rounding: one error
        line, exit 1, nothing written.  Uncentered, the polish solve meets that matrix."""
        obs_path, truth_path, out = (tmp_path / name for name in ("obs.csv", "truth.csv", "r.csv"))
        obs_path.write_text("j,m,N,S\n1,2,3,1\n2,3,3,2\n1,3,2,1\n")
        write_scores(truth_path, np.array(truth))
        assert dispatch(["diagnose", "--input", str(obs_path), "--truth", str(truth_path),
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: the expected Fisher matrix of the truth scores is not positive "
                       f"definite: {fault} of the array is not positive definite\n")
        assert not out.exists() and not (tmp_path / "r.csv.meta.json").exists()

    @pytest.mark.parametrize("command", [
        ["fit"],
        ["diagnose"],
        ["ao", "--n", "20", "--seed", "7", "--L", "3", "--gsq", "5"],
        ["study-rho", "--n-list", "12", "--reps", "1", "--threads", "1"],
        ["study-ao", "--format", "json", "--n-list", "12", "--reps", "1", "--L", "3",
         "--gsq", "5", "--threads", "1"],
    ], ids=lambda command: command[0])
    def test_unwritable_output_exit_1(self, command, sampled_instance, tmp_path, capsys,
                                      monkeypatch):
        """The study and ``ao`` commands find the fault before any replication runs."""
        def replication(*args):
            raise AssertionError("a replication ran before the output path was checked")

        monkeypatch.setattr(experiments, "_replicate", replication)
        monkeypatch.setattr(cli, "ao_replication", replication)
        obs_path, truth_path = sampled_instance
        out = tmp_path / "missing" / "out.csv"
        argv = [*command, "--out", str(out)]
        if command[0] in ("fit", "diagnose"):
            argv += ["--input", str(obs_path)]
        if command[0] == "diagnose":
            argv += ["--truth", str(truth_path)]
        assert dispatch(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {out}: No such file or directory\n"
        assert captured.out == ""

    @pytest.mark.parametrize("n", [-5, 0, 1])
    @pytest.mark.parametrize("flag", ["--n", "--n-list"])
    def test_design_below_two_items_exit_1(self, flag, n, tmp_path, capsys):
        argv = (["ao", f"--n={n}"] if flag == "--n"
                else ["study-rho", f"--n-list={n}", "--reps", "1", "--threads", "1"])
        out = tmp_path / "out.csv"
        assert dispatch([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: need at least 2 items in a design, got n={n}\n"
        assert not out.exists()

    @pytest.mark.parametrize("threads, config", [("0", None), ("-3", None), (None, 0)])
    def test_no_threads_exit_1(self, threads, config, tmp_path, capsys):
        argv = ["study-rho", "--n-list", "12", "--reps", "1", "--out", str(tmp_path / "r.csv")]
        if threads is not None:
            argv += ["--threads", threads]
        else:
            (tmp_path / "cfg.json").write_text(json.dumps({"threads": config}))
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert dispatch(argv) == 1
        value = threads if threads is not None else config
        assert capsys.readouterr().err == f"error: need at least one thread, got threads={value}\n"
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity here")
    def test_default_threads_follow_the_affinity_mask(self):
        """Pinned to one CPU, as ``taskset -c`` pins it, a study starts one worker."""
        code = ("import os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
                "import perturbopt.cli; print(perturbopt.cli.DEFAULTS['threads'])")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.strip() == "1"
        assert cli.DEFAULTS["threads"] == len(os.sched_getaffinity(0))


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

    def test_matches_diagnose_expansion(self, tmp_path, capsys):
        # ridge penalty keeps rho_dual well below one, so every bound is finite
        cfg = ExperimentConfig(n_list=(30,), reps=1, seed=3, gsq=20.0, penalty="ridge")
        _, truth, obs = _sample_instance(cfg, 30, 0)
        _, diag, reports = experiments.diagnose_expansion(obs, truth, cfg.penalty_spec)
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
            (r.variant, r.leading, r.remainder, r.bound, r.holds) for r in reports
        ]
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
        expected = btl_objective(obs.graph, cfg.penalty_spec, mode="expected", truth=truth)
        ups_star = newton_minimize(expected, truth, tol_grad=tol.JOINT_SOLVE_TOL).argmin
        constants = btl_condition_constants(obs.graph, cfg.penalty_spec, ups_star,
                                            radius=diag.r_infty, norm="linf")
        assert meta["constants"] == {"tau3": constants.tau3, "d12": constants.d12,
                                     "d21": constants.d21}


    def test_one_factorization_fewer_than_two_per_fisher_matrix(self, tmp_path, monkeypatch,
                                                                 capsys):
        """On an n=300 logcube file of the benchmark's kind, fit factors five Hessians and
        diagnose four: one factor of the Fisher matrix for the linear check's F^-1 v and
        its first Newton step, and that solve's three later steps.  The polish solve starts
        at its minimizer.  A ``posv`` call is a factorization too."""
        n = 300
        rng = np.random.default_rng(21)
        graph = sample_er_graph(n, math.log(n) ** 3 / n, 1, rng)
        truth = rng.uniform(0, 2, n)
        truth -= truth.mean()
        obs_path, truth_path = tmp_path / "obs.csv", tmp_path / "truth.csv"
        write_observations(obs_path, sample_outcomes(graph, truth, rng))
        write_scores(truth_path, truth)
        factored = []
        potrf, posv = numkit._potrf, numkit._posv
        monkeypatch.setattr(numkit, "_potrf", lambda a: factored.append(a.shape) or potrf(a))
        monkeypatch.setattr(numkit, "_posv", lambda a, b: factored.append(a.shape) or posv(a, b))
        counts = []
        for command in (["fit", "--input", str(obs_path), "--out", str(tmp_path / "fit.csv")],
                        ["diagnose", "--input", str(obs_path), "--truth", str(truth_path),
                         "--out", str(tmp_path / "report.csv")]):
            factored.clear()
            assert dispatch(command) == 0
            counts.append(len(factored))
        capsys.readouterr()
        assert counts == [5, 4]

    def test_fit_forms_values_for_its_first_step_only(self, tmp_path, monkeypatch, capsys):
        """On an n=300 logcube file of the benchmark's kind, the fit's first step, from
        zero, is too long to certify and runs the Armijo test on values; every later step
        is certified and forms none."""
        n = 300
        rng = np.random.default_rng(21)
        graph = sample_er_graph(n, math.log(n) ** 3 / n, 1, rng)
        truth = rng.uniform(0, 2, n)
        truth -= truth.mean()
        obs_path = tmp_path / "obs.csv"
        write_observations(obs_path, sample_outcomes(graph, truth, rng))
        steps, formed_at = [], []
        evaluate = btl.BtlObjective.evaluate

        def spy(obj, x, block=None):
            value, grad, hessian = evaluate(obj, x, block)
            return ((lambda: formed_at.append(len(steps)) or value()), grad,
                    lambda: steps.append(x) or hessian())

        monkeypatch.setattr(btl.BtlObjective, "evaluate", spy)
        assert dispatch(["fit", "--input", str(obs_path), "--out", str(tmp_path / "fit.csv")]) == 0
        capsys.readouterr()
        assert len(steps) >= 4 and not steps[0].any()
        # each value was formed while the first Newton step was tested: at zero and its trials
        assert len(formed_at) >= 2 and set(formed_at) == {1}


class TestDesignChecks:
    """One strong-components pass decides connectivity and a finite MLE."""

    # items 1-2 and 3-4 never meet, and item 1 wins every game it plays
    DISCONNECTED_ONE_SIDED = "j,m,N,S\n1,2,3,3\n3,4,3,1\n"

    def test_disconnected_is_named_before_divergent(self, tmp_path, capsys):
        obs_path, truth_path, out = (tmp_path / name for name in ("obs.csv", "truth.csv", "r.csv"))
        obs_path.write_text(self.DISCONNECTED_ONE_SIDED)
        write_scores(truth_path, np.zeros(4))
        assert dispatch(["diagnose", "--input", str(obs_path), "--truth", str(truth_path),
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {btl.DISCONNECTED}\n"
        assert not out.exists() and not (tmp_path / "r.csv.meta.json").exists()
        assert dispatch(["fit", "--input", str(obs_path), "--out", str(out), "--strict"]) == 1
        assert capsys.readouterr().out == \
            f"fit: 4 items, 2 edges, 0 iterations, NOT converged ({btl.DISCONNECTED})\n"

    @pytest.fixture()
    def passes(self, monkeypatch):
        """The ``connected_components`` calls of ``btl``, by keyword arguments."""
        calls = []
        fn = btl.connected_components
        monkeypatch.setattr(btl, "connected_components",
                            lambda *args, **kwargs: calls.append(kwargs) or fn(*args, **kwargs))
        return calls

    def test_one_pass_per_command_on_a_finite_design(self, sampled_instance, tmp_path, passes):
        obs_path, truth_path = sampled_instance
        assert dispatch(["fit", "--input", str(obs_path), "--out", str(tmp_path / "s.csv"),
                         "--strict"]) == 0
        assert passes == [{"directed": True, "connection": "strong", "return_labels": False}]
        passes.clear()
        assert dispatch(["diagnose", "--input", str(obs_path), "--truth", str(truth_path),
                         "--out", str(tmp_path / "r.csv")]) == 0
        assert len(passes) == 1

    def test_two_passes_per_command_on_a_disconnected_design(self, tmp_path, passes):
        obs_path, truth_path = tmp_path / "obs.csv", tmp_path / "truth.csv"
        obs_path.write_text(self.DISCONNECTED_ONE_SIDED)
        write_scores(truth_path, np.zeros(4))
        assert dispatch(["fit", "--input", str(obs_path), "--out", str(tmp_path / "s.csv")]) == 0
        assert [kwargs.get("connection") for kwargs in passes] == ["strong", None]
        passes.clear()
        assert dispatch(["diagnose", "--input", str(obs_path), "--truth", str(truth_path),
                         "--out", str(tmp_path / "r.csv")]) == 1
        assert len(passes) == 2

    def test_one_pass_per_ao_replication_and_none_per_graph(self, passes):
        cfg = ExperimentConfig(n_list=(50,), reps=1, seed=1, L=3, gsq=5.0, gap=0.02, steps=8)
        assert experiments.ao_replication(cfg, 50, 0).reason == "ok"
        assert len(passes) == 1
        passes.clear()
        graph = sample_er_graph(50, 0.3, 3, np.random.default_rng(2))
        ComparisonGraph.from_edges(graph.n, graph.j, graph.m, graph.counts)
        assert passes == []


class TestAoCommand:
    def test_degenerate_instance_exits_1(self, capsys):
        # two items compared with probability 0.17: at this seed they never meet,
        # and no trace is produced
        assert dispatch(["ao", "--n", "2", "--L", "1", "--seed", "1",
                         "--steps", "3"]) == 1
        assert capsys.readouterr().out == "ao: replication failed (disconnected)\n"

    def test_one_sided_record_named(self, capsys):
        # at this seed the two items play one game, so the fit diverges
        assert dispatch(["ao", "--n", "2", "--L", "1", "--seed", "3",
                         "--steps", "3"]) == 1
        assert capsys.readouterr().out == "ao: replication failed (divergent_mle)\n"

    def test_failed_inner_solve_named(self, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise InnerSolveFailed(1, "target")

        monkeypatch.setattr(experiments, "ao_run", fail)
        assert dispatch(["ao", "--n", "12", "--seed", "7", "--L", "3", "--gsq", "5.0",
                         "--steps", "3"]) == 1
        assert capsys.readouterr().out == "ao: replication failed (inner_solve_failed)\n"

    def test_unconverged_joint_solve_named(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(btl, "newton_minimize",
                            functools.partial(objective.newton_minimize, max_iter=1))
        out = tmp_path / "trace.csv"
        assert dispatch(["ao", "--n", "12", "--seed", "7", "--L", "3", "--gsq", "5.0",
                         "--out", str(out)]) == 1
        assert capsys.readouterr().out == "ao: replication failed (joint_not_converged)\n"
        assert not out.exists()

    def test_zero_penalty_strength_exits_1(self, capsys):
        assert dispatch(["ao", "--n", "12", "--seed", "7", "--gsq", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: a mean_shift penalty needs gsq > 0, got 0.0\n"
        assert captured.out == ""

    @pytest.mark.parametrize("flag, value, message", [
        ("--L", "0", "need at least one comparison per edge (L >= 1)"),
        ("--steps", "0", "need at least 3 alternation steps"),
        ("--steps", "2", "need at least 3 alternation steps"),
        ("--gap", "nan", "the start gap must be finite and >= 0, got nan"),
        ("--gap", "inf", "the start gap must be finite and >= 0, got inf"),
        ("--gap", "-0.5", "the start gap must be finite and >= 0, got -0.5"),
    ])
    def test_bad_design_or_steps_exits_1(self, flag, value, message, capsys):
        assert dispatch(["ao", "--n", "30", flag, value]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
        assert captured.out == ""

    def test_infeasible_radii_named(self, capsys):
        # no self-consistent localization radii exist for this start gap
        assert dispatch(["ao", "--n", "30", "--seed", "7", "--L", "3", "--gsq", "5"]) == 0
        out = capsys.readouterr().out
        assert "certificate=fails" in out
        assert out.endswith("    failing conditions: radii_feasible\n")

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
    def test_subcommands_are_the_registered_studies(self):
        sub = next(action for action in cli.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction))
        studies = {name: parser for name, parser in sub.choices.items()
                   if name.startswith("study-")}
        assert list(studies) == [f"study-{name}" for name in experiments.STUDIES]
        shared = {"--out", "--config", "--n-list", "--reps", "--format", "--p-rule", "--L",
                  "--gsq", "--penalty", "--score-range", "--threads", "--seed"}
        flags = {"study-rho": shared, "study-expansion": shared,
                 "study-ao": shared | {"--gap", "--steps", "--surrogate"}}
        for name, parser in studies.items():
            options = {opt for action in parser._actions for opt in action.option_strings}
            assert options - {"-h", "--help"} == flags[name], name
        # ao traces one study-ao instance: its settings, with --n for --n-list and --reps
        options = {opt for action in sub.choices["ao"]._actions for opt in action.option_strings}
        assert options - {"-h", "--help"} == {
            "--n", "--p-rule", "--L", "--gsq", "--penalty", "--score-range", "--seed", "--gap",
            "--steps", "--surrogate", "--out", "--config"}

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

    def test_non_integer_env_seed_exits_1(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "rho.csv"
        monkeypatch.setenv("PERTURBOPT_SEED", "abc")
        assert dispatch(["study-rho", "--n-list", "20", "--reps", "1", "--threads", "1",
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: PERTURBOPT_SEED='abc' is not an integer\n"
        assert not out.exists()

    def test_invalid_study_setting_exits_1(self, tmp_path, capsys):
        out = tmp_path / "rho.csv"
        assert dispatch(["study-rho", "--n-list", "20", "--reps", "0", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: need at least one replication\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["study-rho", "study-expansion", "study-ao"])
    def test_zero_penalty_strength_exits_1(self, command, tmp_path, capsys):
        out = tmp_path / "study.csv"
        assert dispatch([command, "--n-list", "20", "--reps", "1", "--gsq", "0",
                         "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: a mean_shift penalty needs gsq > 0, got 0.0\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, flag, value, message", [
        ("study-rho", "--L", "0", "need at least one comparison per edge (L >= 1)"),
        ("study-expansion", "--L", "0", "need at least one comparison per edge (L >= 1)"),
        ("study-ao", "--L", "0", "need at least one comparison per edge (L >= 1)"),
        ("study-ao", "--steps", "1", "need at least 3 alternation steps"),
        ("study-rho", "--gsq", "inf", "the penalty strength gsq must be finite, got inf"),
        ("study-rho", "--score-range", "0,inf", "score range ends must be finite, got 0.0,inf"),
        ("study-expansion", "--score-range", "nan,1", "score range ends must be finite"),
        ("study-ao", "--gap", "nan", "the start gap must be finite and >= 0, got nan"),
    ])
    def test_bad_design_or_steps_exits_1(self, command, flag, value, message, tmp_path, capsys):
        out = tmp_path / "study.csv"
        assert dispatch([command, "--n-list", "20", "--reps", "1", flag, value,
                         "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and err.count("\n") == 1
        assert not out.exists()

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


class TestFigureScript:
    """``scripts/regenerate_figures.py``: the three study commands, run in its process."""

    SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "regenerate_figures.py"

    def run_script(self, monkeypatch, *argv) -> int:
        monkeypatch.setattr(sys, "argv", [str(self.SCRIPT), *argv])
        return runpy.run_path(str(self.SCRIPT))["main"]()

    @staticmethod
    def sidecar(path) -> list:
        return [line for line in pathlib.Path(f"{path}.meta.json").read_text().splitlines()
                if '"created_unix"' not in line]

    def test_writes_what_the_study_commands_write(self, tmp_path, monkeypatch, capsys):
        assert self.run_script(monkeypatch, "--outdir", str(tmp_path / "script"), "--seed", "3",
                               "--reps", "2", "--n-list", "20,30", "--expansion-n", "20",
                               "--expansion-reps", "2") == 0
        out = capsys.readouterr().out
        commands = {
            "rho": ["--n-list", "20,30", "--reps", "2", "--seed", "3"],
            "expansion": ["--n-list", "20", "--reps", "2", "--seed", "13"],
            "ao": ["--n-list", "20", "--reps", "2", "--seed", "23", "--L", "3", "--gsq", "5"],
        }
        for name, flags in commands.items():
            script, cli_out = (tmp_path / side / f"{name}_study.csv" for side in ("script", "cli"))
            cli_out.parent.mkdir(exist_ok=True)
            assert dispatch([f"study-{name}", *flags, "--threads", "1",
                             "--out", str(cli_out)]) == 0
            assert script.read_bytes() == cli_out.read_bytes()
            assert self.sidecar(script) == self.sidecar(cli_out)
            records = len(script.read_text().splitlines()) - 1  # less the header
            assert f"wrote {records} records -> {script}\n" in out
        capsys.readouterr()

    def test_exits_with_the_first_failing_code(self, tmp_path, monkeypatch, capsys):
        assert self.run_script(monkeypatch, "--outdir", str(tmp_path), "--n-list", "1") == 1
        assert capsys.readouterr().err == "error: need at least 2 items in a design, got n=1\n"
        assert list(tmp_path.iterdir()) == []


class TestConfigFile:
    @pytest.mark.parametrize("text, message", [
        (None, ": No such file or directory"),
        ('{"reps": 2,', ": not valid JSON: "),
        ('[{"reps": 2}]', ": the top level must be a JSON object"),
        ('{"rep": 2}', ": no subcommand reads 'rep'"),
        ('{"reps": "many"}', ": reps: invalid value 'many' for --reps"),
        ('{"penalty": "lasso"}', ": penalty: invalid value 'lasso' for --penalty"),
        ('{"surrogate": "yes"}', ": surrogate: invalid value 'yes' for --surrogate"),
    ], ids=["missing", "malformed", "not_an_object", "unknown_key", "bad_number",
            "bad_choice", "bad_boolean"])
    def test_bad_config_exits_1(self, text, message, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        if text is not None:
            config.write_text(text)
        out = tmp_path / "rho.csv"
        # the flags alone make a valid run, so the file is the only fault
        assert dispatch(["study-rho", "--config", str(config), "--n-list", "20", "--reps", "1",
                         "--threads", "1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {config}{message}") and err.count("\n") == 1
        assert not out.exists()

    def test_study_from_config_matches_flags(self, tmp_path, capsys):
        settings = {"n_list": [10, 12], "reps": 2, "seed": 7, "p_rule": 0.9, "L": 2,
                    "score_range": [0, 1.5], "gsq": 3, "penalty": "ridge", "gap": 0.03,
                    "steps": 4, "surrogate": True, "format": "json", "threads": 1}
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        assert fields == settings.keys() - {"format", "threads"}
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(settings))
        flags = ["--n-list", "10,12", "--reps", "2", "--seed", "7", "--p-rule", "0.9",
                 "--L", "2", "--score-range", "0,1.5", "--gsq", "3", "--penalty", "ridge",
                 "--gap", "0.03", "--steps", "4", "--surrogate", "--format", "json",
                 "--threads", "1"]
        from_config, from_flags = tmp_path / "config.json", tmp_path / "flags.json"
        assert dispatch(["study-ao", "--config", str(config), "--out", str(from_config)]) == 0
        assert dispatch(["study-ao", *flags, "--out", str(from_flags)]) == 0
        capsys.readouterr()
        assert from_config.read_bytes() == from_flags.read_bytes()
        sidecars = [json.loads((tmp_path / f"{p.name}.meta.json").read_text())["config"]
                    for p in (from_config, from_flags)]
        assert sidecars[0] == sidecars[1]
        assert sidecars[0]["n_list"] == [10, 12] and sidecars[0]["surrogate"] is True

    @pytest.mark.parametrize("name", list(experiments.STUDIES))
    def test_study_reruns_from_its_sidecar_config(self, name, tmp_path, capsys):
        flags = ["--n-list", "12,15", "--reps", "2", "--seed", "4", "--p-rule", "0.5",
                 "--L", "2", "--gsq", "5", "--penalty", "ridge", "--score-range", "0,1.5"]
        if name == "ao":
            flags += ["--gap", "0.03", "--steps", "5", "--surrogate"]
        def config_of(out):
            return json.loads(out.with_name(f"{out.name}.meta.json").read_text())["config"]

        for fmt in ("csv", "json"):  # a JSON study reruns as JSON
            first, again = tmp_path / f"first.{fmt}", tmp_path / f"again.{fmt}"
            assert dispatch([f"study-{name}", *flags, "--format", fmt, "--threads", "1",
                             "--out", str(first)]) == 0
            config = config_of(first)
            assert config["penalty"] == "ridge" and config["format"] == fmt
            (tmp_path / "back.json").write_text(json.dumps(config))
            assert dispatch([f"study-{name}", "--config", str(tmp_path / "back.json"),
                             "--threads", "1", "--out", str(again)]) == 0
            capsys.readouterr()
            assert again.read_bytes() == first.read_bytes()
            assert config_of(again) == config

    def test_ao_traces_the_study_ao_replication_of_a_config(self, tmp_path, capsys):
        """``ao`` reads every setting that ``study-ao`` reads from one file, so it prints the
        contraction bound of the study's replication 0."""
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"penalty": "ridge", "gsq": 5, "L": 3, "seed": 4,
                                      "p_rule": 0.2}))
        study = tmp_path / "ao.csv"
        assert dispatch(["study-ao", "--n-list", "12", "--reps", "1", "--config", str(config),
                         "--threads", "1", "--out", str(study)]) == 0
        capsys.readouterr()
        ppt = experiments.parse_records(study)[0]["ppT"]
        assert dispatch(["ao", "--n", "12", "--config", str(config)]) == 0
        out = capsys.readouterr().out
        assert f" contraction-bound={ppt:.6g} " in out
        assert " contraction-bound=0.0480604 " in out

    def test_booleans_from_config(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text('{"surrogate": true, "strict": true}')
        ao = ["ao", "--n", "12", "--seed", "7", "--L", "3", "--gsq", "5"]
        assert dispatch(ao) == 0
        plain = capsys.readouterr().out
        assert dispatch(ao + ["--surrogate"]) == 0
        surrogate = capsys.readouterr().out
        assert surrogate != plain
        assert dispatch(ao + ["--config", str(config)]) == 0
        assert capsys.readouterr().out == surrogate

        graph = ComparisonGraph.from_edges(2, [0], [1], [1.0])
        obs = tmp_path / "one_sided.csv"
        write_observations(obs, BtlObservation(graph=graph, wins=np.array([1.0])))
        fit = ["fit", "--input", str(obs), "--out", str(tmp_path / "scores.csv")]
        assert dispatch(fit) == 0
        assert dispatch(fit + ["--config", str(config)]) == 1
        capsys.readouterr()

    def test_one_file_serves_fit_and_study(self, symmetric_obs, tmp_path, capsys):
        # each subcommand reads the keys that name its own flags
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"solver": "mm", "tol": 1e-9, "n_list": [20],
                                      "reps": 2, "threads": 1}))
        scores = [tmp_path / "config.csv", tmp_path / "flags.csv"]
        assert dispatch(["fit", "--config", str(config), "--input", str(symmetric_obs),
                         "--out", str(scores[0])]) == 0
        assert dispatch(["fit", "--solver", "mm", "--tol", "1e-9",
                         "--input", str(symmetric_obs), "--out", str(scores[1])]) == 0
        assert scores[0].read_bytes() == scores[1].read_bytes()
        out = tmp_path / "rho.csv"
        assert dispatch(["study-rho", "--config", str(config), "--out", str(out)]) == 0
        assert len(out.read_text().strip().splitlines()) == 3
        capsys.readouterr()


class TestSelftest:
    def test_clean_build_passes(self, capsys):
        assert dispatch(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out


class TestHeapPolicy:
    """The CLI keeps freed heap memory in its process on glibc, and only there."""

    class _Mallopt:
        def __init__(self, result=1):
            self.calls, self.result = [], result

        def __call__(self, param, value):
            self.calls.append((param, value))
            return self.result

    @pytest.fixture()
    def fake_libc(self, monkeypatch):
        """An installer of a fake glibc detection and libc handle; the libc exposes
        ``mallopt`` (None: no such symbol), and the installer returns the names opened."""
        opened = []

        def install(mallopt, version="glibc 2.36"):
            def confstr(name):
                assert name == "CS_GNU_LIBC_VERSION"
                if isinstance(version, Exception):
                    raise version
                return version

            def cdll(name):
                opened.append(name)
                return SimpleNamespace() if mallopt is None else SimpleNamespace(mallopt=mallopt)

            monkeypatch.setattr(cli.os, "confstr", confstr)
            monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
            return opened

        cli._keep_freed_heap.cache_clear()
        yield install
        cli._keep_freed_heap.cache_clear()

    def test_sets_both_thresholds_once_per_process(self, fake_libc):
        mallopt = self._Mallopt()
        opened = fake_libc(mallopt)
        cli._keep_freed_heap()
        cli._keep_freed_heap()
        # M_MMAP_THRESHOLD (-3) at 32 MiB, then M_TRIM_THRESHOLD (-1) at 64 MiB
        assert mallopt.calls == [(-3, 32 * 2**20), (-1, 64 * 2**20)]
        assert opened == [None]

    @pytest.mark.parametrize("version", [None, "", ValueError("unrecognized configuration name"),
                                         OSError("confstr")])
    def test_does_nothing_without_glibc(self, fake_libc, version):
        mallopt = self._Mallopt()
        opened = fake_libc(mallopt, version=version)
        cli._keep_freed_heap()
        assert opened == [] and mallopt.calls == []

    def test_quiet_without_mallopt_or_when_refused(self, fake_libc):
        fake_libc(None)
        cli._keep_freed_heap()  # no mallopt symbol: nothing to call, nothing raised
        cli._keep_freed_heap.cache_clear()
        refused = self._Mallopt(result=0)
        fake_libc(refused)
        cli._keep_freed_heap()
        assert refused.calls == [(-3, 32 * 2**20)]  # stops at the first refusal

    def test_dispatch_applies_it(self, fake_libc, capsys):
        mallopt = self._Mallopt()
        fake_libc(mallopt)
        assert dispatch(["fit"]) == 2  # even a usage error runs in a process the CLI owns
        capsys.readouterr()
        assert len(mallopt.calls) == 2

    def test_importing_the_library_leaves_the_allocator_alone(self):
        code = ("import perturbopt, perturbopt.cli, perturbopt.experiments; "
                "print(perturbopt.cli._keep_freed_heap.cache_info().currsize)")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.strip() == "0"
