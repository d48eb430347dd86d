"""Built-in invariant suite on tiny instances, used by the CLI selftest."""

from __future__ import annotations

import numpy as np

from .ao import certify_convergence, estimate_rate, quad_ao_identity_check
from .btl import PenaltySpec, btl_objective, fit_penalized_mle, sample_er_graph, sample_outcomes
from .expansions import ConditionConstants, derived_constants, rho_dual
from .numkit import (
    BlockHessian,
    BlockSplit,
    contraction_matrix,
    finite_diff_check,
    neumann_sup_bounds,
    psd_power,
    spd_solve,
    spectral_norm,
)
from .objective import QuadraticObjective


def _random_spd(rng, n: int) -> np.ndarray:
    r = rng.standard_normal((n, n))
    return r @ r.T + n * np.eye(n)


def run_selftest(seed: int = 1) -> int:
    """Run the quick checks; print one line per check; return 0 iff all pass."""
    rng = np.random.default_rng(seed)
    checks = []

    def check(name: str, ok: bool, detail: str = ""):
        checks.append(ok)
        print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f" ({detail})" if detail else ""))

    a = _random_spd(rng, 5)
    x = rng.standard_normal(5)
    resid = float(np.abs(a @ spd_solve(a, a @ x) - a @ x).max())
    check("spd solve round trip", resid <= 1e-8 * max(1.0, float(np.abs(a @ x).max())),
          f"residual {resid:.2e}")

    s = _random_spd(rng, 4)
    sandwich = psd_power(s, -0.5) @ s @ psd_power(s, -0.5)
    err = float(np.abs(sandwich - np.eye(4)).max())
    check("inverse square root sandwich", err <= 1e-9, f"max deviation {err:.2e}")

    m = rng.standard_normal((5, 4))
    gap = abs(spectral_norm(m) - float(np.linalg.svd(m, compute_uv=False)[0]))
    check("spectral norm vs dense SVD", gap <= 1e-8, f"gap {gap:.2e}")

    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 7))
        b = np.eye(n)
        off = rng.standard_normal((n, n))
        np.fill_diagonal(off, 0.0)
        rowsum = np.abs(off).sum(axis=1)
        target = rng.uniform(0.05, 0.9)
        scale = target / max(rowsum.max(), 1e-12)
        b += off * scale
        rep = neumann_sup_bounds(b, rng.standard_normal(n))
        ok = ok and all(rep.bounds_hold)
    check("sup-norm inverse bounds (200 random)", ok)

    quad = QuadraticObjective(rng.standard_normal(6), _random_spd(rng, 6))
    dev = quad_ao_identity_check(quad, BlockSplit.half(6), rng.standard_normal(3), n_steps=5)
    check("quadratic alternation identity", dev <= 1e-9, f"max deviation {dev:.2e}")

    graph = sample_er_graph(6, 1.0, 5, rng)
    truth = rng.uniform(0, 2, 6)
    truth -= truth.mean()
    obs = sample_outcomes(graph, truth, rng)
    obj = btl_objective(obs, PenaltySpec.mean_shift(1.0))
    fd = finite_diff_check(obj, rng.uniform(-1, 1, 6), seed=seed)
    check(
        "likelihood derivative stack",
        max(fd.grad_err, fd.hess_err, fd.third_err) <= 1e-4,
        f"errors {fd.grad_err:.1e}/{fd.hess_err:.1e}/{fd.third_err:.1e}",
    )

    fisher = btl_objective(obs, PenaltySpec.none()).hessian(truth)
    shift = float(np.abs(fisher @ np.ones(6)).max())
    check("unpenalized curvature annihilates shifts", shift <= 1e-10, f"sup-norm {shift:.1e}")

    fit = fit_penalized_mle(obs, PenaltySpec.mean_shift(1.0))
    check("penalized fit converges", fit.converged,
          f"grad sup-norm {fit.final_grad_supnorm:.1e}")

    f_small = np.array([[2.0, 0.5, 0.5], [0.5, 2.0, 0.3], [0.5, 0.3, 2.0]])
    d = np.sqrt(np.diag(f_small))
    exact, l2 = rho_dual(f_small, d)
    brute = 0.0
    for signs in ([1, 1], [1, -1], [-1, 1], [-1, -1]):
        for j in range(3):
            row = [f_small[j, m] / (d[j] * d[m]) for m in range(3) if m != j]
            brute = max(brute, abs(sum(s * v for s, v in zip(signs, row))))
    check("dual value vs sign enumeration", abs(exact - brute) <= 1e-12,
          f"{exact:.6f} vs {brute:.6f}")

    consts = ConditionConstants(1.0, 1.0, 1.0, norm_tag="linf", radii=(0.25,))
    diag = derived_constants(consts, "sup_norm", rho=1.0 - 2.0**-0.5)
    check(
        "derived-constant reference values",
        abs(diag.delta_nano - 1.37) <= 0.01 and abs(diag.delta_infty - 12.0) <= 0.1,
        f"delta_nano {diag.delta_nano:.4f}, delta_infty {diag.delta_infty:.3f}",
    )

    spd = _random_spd(rng, 4)
    geometry = contraction_matrix(BlockHessian.from_full(spd, BlockSplit.half(4)))
    cert = certify_convergence(geometry, ConditionConstants.zeros(radii=(1.0, 1.0)),
                               theta0_gap=0.5)
    check("quadratic certificate holds", cert.holds and cert.delta_nano == 0.0)

    rate = estimate_rate(np.array([1.0, 0.25, 0.0625, 0.015625]), burn_in=0)
    check("rate estimator on a geometric sequence", abs(rate - 0.25) <= 1e-12)

    passed = sum(checks)
    print(f"selftest: {passed}/{len(checks)} checks passed")
    return 0 if passed == len(checks) else 1
