"""Acceptance gate: every promised behavior at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with its wall time.
"""

import contextlib
import itertools
import math
import sys
import time

import numpy as np

from conftest import expected_geometry, random_spd
from perturbopt.ao import quad_ao_identity_check
from perturbopt.btl import (
    PenaltySpec,
    btl_condition_constants,
    btl_objective,
    sample_er_graph,
    sample_outcomes,
)
from perturbopt.expansions import (
    ConditionConstants,
    check_partial_bias,
    check_perturbed_partial,
    check_separable_sup_expansion,
    derived_constants,
    rho_dual,
)
from perturbopt.experiments import (
    STUDIES,
    ExperimentConfig,
    _sample_instance,
    ao_replication,
    diagnose_expansion,
    expansion_replication,
    run_study,
    summarize_by_n,
)
from perturbopt.numkit import BlockSplit, finite_diff_check, neumann_sup_bounds
from perturbopt.objective import QuadraticObjective, newton_minimize, ridge_spec


@contextlib.contextmanager
def criterion(number: int, label: str, budget_seconds: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"[criterion {number:2d}] FAIL ({elapsed:6.1f}s) {label}", file=sys.stdout)
        raise
    elapsed = time.perf_counter() - start
    print(f"[criterion {number:2d}] PASS ({elapsed:6.1f}s) {label}", file=sys.stdout)
    assert elapsed < budget_seconds, f"runtime {elapsed:.1f}s exceeds budget {budget_seconds}s"


def test_criterion_1_quadratic_alternation_exactness():
    with criterion(1, "quadratic alternation identity on 50 random instances", 10.0):
        rng = np.random.default_rng(2024)
        worst = 0.0
        for _ in range(50):
            dim = int(rng.integers(2, 13))
            curv = random_spd(rng, dim)
            p = int(rng.integers(1, dim))
            split = BlockSplit(np.arange(p), np.arange(p, dim))
            quad = QuadraticObjective(rng.standard_normal(dim), curv)
            theta0 = quad.minimizer[:p] + rng.standard_normal(p)
            worst = max(worst, quad_ao_identity_check(quad, split, theta0, n_steps=5))
        assert worst <= 1e-8, f"max deviation {worst:.3e}"


def test_criterion_2_alternation_rate_certificate():
    with criterion(2, "certified linear rate on 40 replications (n=20)", 120.0):
        cfg = ExperimentConfig(n_list=(20,), reps=40, seed=7, L=3, gsq=5.0,
                               gap=0.02, steps=8)
        rate_ok = 0
        completed = 0
        for rep in range(cfg.reps):
            result = ao_replication(cfg, 20, rep)
            rec = result.record
            if result.trace is None:
                continue
            completed += 1
            cert = result.certificate
            assert cert.holds, f"certificate failed on replication {rep}"
            if rec["rate"] <= rec["ppT"] + 0.05:
                rate_ok += 1
            # per-step contraction inequality with the certified scalars
            errs = result.trace.theta_err_norms
            for t in range(1, errs.shape[0]):
                rhs = (rec["ppT"] + (1 + cert.rho2**2) * cert.delta_nano * errs[t - 1]) \
                    * errs[t - 1]
                assert errs[t] <= rhs * (1 + 1e-9) + 1e-15, \
                    f"contraction inequality violated at step {t} of replication {rep}"
        assert completed == cfg.reps
        assert rate_ok >= math.ceil(0.95 * cfg.reps), f"rate within slack on {rate_ok}/40"


def test_criterion_3_supnorm_expansion_split():
    with criterion(3, "fitted-score error dominated by its linear term (n=100)", 300.0):
        cfg = ExperimentConfig(n_list=(100,), reps=50, seed=11)
        leads, rems = [], []
        for rep in range(cfg.reps):
            rec = expansion_replication(cfg, 100, rep).record
            if not rec["converged"]:
                continue
            leads.append(rec["lead_fish"])
            rems.append(rec["rem_fish"])
            _, truth, obs = _sample_instance(cfg, 100, rep)
            _, diagnostics, reports = diagnose_expansion(obs, truth, cfg.penalty_spec)
            if diagnostics.all_prerequisites_hold:
                third = [r for r in reports if r.variant == "lin_iii"][0]
                assert third.holds, f"scaled-residual bound failed on replication {rep}"
        assert len(leads) >= 40, "too many non-converged replications"
        ratio = float(np.median(rems) / np.median(leads))
        assert ratio < 0.5, f"median remainder / median leading term = {ratio:.3f}"


def test_criterion_4_cross_curvature_trend():
    with criterion(4, "cross-curvature display decreasing with slope near -1", 600.0):
        cfg = ExperimentConfig(n_list=(100, 200, 400), reps=20, seed=5)
        records = run_study(STUDIES["rho"], cfg)
        summary = summarize_by_n(records, "rho_dual_l2", keep=lambda r: r["connected"])
        means = [summary[n]["mean"] for n in cfg.n_list]
        assert means[0] > means[1] > means[2], f"means not decreasing: {means}"
        xs = [math.log(n * min(1.0, math.log(n) ** 3 / n)) for n in cfg.n_list]
        slope = float(np.polyfit(xs, np.log(means), 1)[0])
        assert -1.5 <= slope <= -0.5, f"slope {slope:.3f} outside [-1.5, -0.5]"


def test_criterion_5_likelihood_derivative_stack():
    with criterion(5, "derivative stack accurate to 1e-4 (n=3 and n=10)", 5.0):
        rng = np.random.default_rng(31)
        for n in (3, 10):
            graph = sample_er_graph(n, 1.0, 2, rng)
            truth = rng.uniform(0, 2, n)
            truth -= truth.mean()
            obs = sample_outcomes(graph, truth, rng)
            objectives = [
                btl_objective(obs, PenaltySpec.mean_shift(1.0)),
                btl_objective(graph, PenaltySpec.mean_shift(1.0), mode="expected",
                              truth=truth),
            ]
            for obj in objectives:
                for _ in range(10):
                    x = rng.uniform(-1.5, 1.5, n)
                    rep = finite_diff_check(obj, x)
                    worst = max(rep.grad_err, rep.hess_err, rep.third_err)
                    assert worst <= 1e-4, f"n={n}: finite-difference error {worst:.2e}"


def test_criterion_6_supnorm_inverse_bounds():
    with criterion(6, "sup-norm inverse bounds on 1000 random pairs", 5.0):
        rng = np.random.default_rng(41)
        for _ in range(1000):
            n = int(rng.integers(2, 8))
            b = np.eye(n)
            off = rng.standard_normal((n, n))
            np.fill_diagonal(off, 0.0)
            rowsum = np.abs(off).sum(axis=1)
            b += off * (rng.uniform(0.02, 0.95) / max(rowsum.max(), 1e-12))
            report = neumann_sup_bounds(b, rng.standard_normal(n))
            assert all(report.bounds_hold), "bound violated"


def test_criterion_7_dual_norm_brute_force():
    with criterion(7, "exact dual value vs sign enumeration on 100 instances", 10.0):
        rng = np.random.default_rng(51)
        for _ in range(100):
            q = int(rng.integers(2, 13))
            f = random_spd(rng, q)
            d = np.sqrt(np.diag(f))
            exact, _ = rho_dual(f, d)
            brute = 0.0
            for j in range(q):
                others = [m for m in range(q) if m != j]
                row = f[j, others] / (d[j] * d[others])
                # the sup over sign vectors of |<row, z>| is the l1 norm,
                # realized explicitly here by enumerating the extreme z
                best = max(
                    abs(float(np.dot(row, z)))
                    for z in itertools.product((-1.0, 1.0), repeat=len(others))
                )
                brute = max(brute, best)
            assert abs(exact - brute) <= 1e-12


def test_criterion_8_curvature_structure():
    with criterion(8, "curvature row sums and eigenvalue range on 50 instances", 10.0):
        rng = np.random.default_rng(61)
        for _ in range(50):
            n = int(rng.integers(3, 12))
            graph = sample_er_graph(n, float(rng.uniform(0.5, 1.0)),
                                    int(rng.integers(1, 5)), rng)
            x = rng.uniform(-3, 3, n)
            fisher = btl_objective(graph, PenaltySpec.none(), mode="expected",
                                   truth=x).hessian(x)
            assert np.abs(fisher @ np.ones(n)).max() <= 1e-10
            eigs = np.linalg.eigvalsh(fisher)
            assert eigs.min() >= -1e-9
            assert eigs.max() <= 2 * np.diag(fisher).max() + 1e-9


def test_criterion_9_quadratic_remainder_scaling():
    with criterion(9, "remainders shrink quadratically along dyadic ladders", 60.0):
        rng = np.random.default_rng(71)
        graph = sample_er_graph(10, 1.0, 50, rng)
        truth = rng.uniform(0, 2, 10)
        truth -= truth.mean()
        penalty = PenaltySpec.mean_shift(1.0)
        f = btl_objective(graph, penalty, mode="expected", truth=truth)
        ups_star = newton_minimize(f, truth, tol_grad=1e-13).argmin
        split = BlockSplit.half(10)
        block_consts = btl_condition_constants(
            graph, penalty, ups_star, norm="l2", radii=(0.5, 0.5),
            geometry=expected_geometry(graph, penalty, ups_star, split))
        sup_consts = btl_condition_constants(graph, penalty, ups_star, radius=0.5,
                                             norm="linf")
        nui_star = ups_star[split.nuisance_idx]
        nu_dir = rng.standard_normal(split.q)
        nu_dir /= np.linalg.norm(nu_dir)
        a_dir = rng.standard_normal(split.p)
        a_dir /= np.linalg.norm(a_dir)
        scales = np.array([0.1, 0.05, 0.025])

        def slope_of(remainders, xs=scales):
            return float(np.polyfit(np.log(xs), np.log(remainders), 1)[0])

        bias_rems = [
            [r for r in check_partial_bias(f, split, [nui_star + s * nu_dir],
                                           block_consts, upsilon_star=ups_star)
             if r.variant == "partial_bias"][0].remainder
            for s in scales
        ]
        assert slope_of(bias_rems) >= 1.9, f"partial-bias slope {slope_of(bias_rems):.3f}"

        joint_rems = [
            [r for r in check_perturbed_partial(f, split, s * a_dir,
                                                [nui_star + s * nu_dir],
                                                block_consts, upsilon_star=ups_star)
             if r.variant == "pp_expansion"][0].remainder
            for s in scales
        ]
        assert slope_of(joint_rems) >= 1.9, f"joint slope {slope_of(joint_rems):.3f}"

        sep_rems, sep_printed, m_norms = [], [], []
        for lam in scales:
            diag, reports = check_separable_sup_expansion(f, ridge_spec(float(lam)),
                                                          sup_consts,
                                                          upsilon_star=ups_star)
            by_variant = {r.variant: r for r in reports}
            sep_rems.append(by_variant["sep_iii"].remainder)
            sep_printed.append(by_variant["sep_iii_printed"].remainder)
            m_norms.append(diag.a_norm)
        sep_slope = slope_of(sep_rems, xs=np.asarray(m_norms))
        assert sep_slope >= 1.9, f"separable slope {sep_slope:.3f}"
        # the verbatim-sign variant stays first order; recorded, not asserted
        printed_slope = slope_of(sep_printed, xs=np.asarray(m_norms))
        print(f"    (separable verbatim-sign slope: {printed_slope:.3f}, "
              f"consistent-sign slope: {sep_slope:.3f})")


def test_criterion_10_reference_constant_values():
    with criterion(10, "derived constants at the reference inputs", 1.0):
        for tau3 in (1.0, 0.5, 2.0):
            consts = ConditionConstants(tau3, tau3, tau3, norm_tag="linf",
                                        radii=(0.25 / tau3,))
            diag = derived_constants(consts, rho=1.0 - 1.0 / math.sqrt(2.0))
            assert abs(diag.delta_nano - 1.37 * tau3) <= 0.01 * max(1.0, tau3)
            assert abs(diag.delta_infty - 12.0 * tau3) <= 0.1 * max(1.0, tau3)
