"""Command-line entry point: fitting, diagnostics, traced runs, and studies.

Every subcommand honors ``--seed`` (falling back to the PERTURBOPT_SEED
environment variable) and is reproducible.  A JSON config file supplies
defaults that explicit flags override.  Exit codes: 0 success, 1 structured
failure (e.g. a non-converged fit under ``--strict``), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import tolerances as tol
from .ao import trace_to_csv
from .btl import (
    BtlObservation,
    PenaltySpec,
    fit_penalized_mle,
    read_observations,
    read_scores,
    write_scores,
)
from .expansions import reports_to_csv
from .experiments import (
    ExperimentConfig,
    ao_replication,
    diagnose_expansion,
    emit,
    run_ao_study,
    run_expansion_study,
    run_rho_study,
    summarize_by_n,
)

DEFAULTS = {
    "seed": 1,
    "penalty": "mean_shift",
    "gsq": 1.0,
    "tol": tol.SOLVER_GRAD_TOL,
    "solver": "newton",
    "n_list": "100",
    "reps": 20,
    "L": 1,
    "p_rule": "logcube",
    "score_range": "0,2",
    "format": "csv",
    "threads": os.cpu_count() or 1,
    "n": 20,
    "gap": 0.02,
    "steps": 8,
}


def _fallback_seed() -> int:
    env = os.environ.get("PERTURBOPT_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            pass
    return DEFAULTS["seed"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perturbopt",
        description="Penalized pairwise-comparison fitting, expansion diagnostics, "
        "alternating-minimization runs, and seeded studies.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--seed", type=int, default=None,
                       help=f"master seed (default {DEFAULTS['seed']}, or PERTURBOPT_SEED)")
        p.add_argument("--config", type=str, default=None,
                       help="JSON file with flag defaults; explicit flags win")

    p_fit = sub.add_parser("fit", help="fit penalized scores from an observation CSV")
    p_fit.add_argument("--input", required=True, help="observation CSV with columns j,m,N,S")
    p_fit.add_argument("--out", required=True, help="output CSV with columns item,score")
    p_fit.add_argument("--penalty", choices=["mean_shift", "ridge"], default=None,
                       help=f"penalty kind (default {DEFAULTS['penalty']})")
    p_fit.add_argument("--gsq", type=float, default=None,
                       help=f"penalty strength (default {DEFAULTS['gsq']})")
    p_fit.add_argument("--solver", choices=["newton", "coord"], default=None,
                       help=f"inner solver (default {DEFAULTS['solver']})")
    p_fit.add_argument("--tol", type=float, default=None,
                       help=f"gradient sup-norm tolerance (default {DEFAULTS['tol']:g})")
    p_fit.add_argument("--strict", action="store_true",
                       help="exit 1 when the fit does not converge")
    add_common(p_fit)

    p_diag = sub.add_parser("diagnose", help="expansion diagnostics for observed outcomes")
    p_diag.add_argument("--input", required=True, help="observation CSV with columns j,m,N,S")
    p_diag.add_argument("--truth", required=True, help="generative scores CSV (item,score)")
    p_diag.add_argument("--out", required=True, help="residual-report CSV path")
    p_diag.add_argument("--penalty", choices=["mean_shift", "ridge"], default=None)
    p_diag.add_argument("--gsq", type=float, default=None)
    add_common(p_diag)

    p_ao = sub.add_parser("ao", help="one traced alternating-minimization instance")
    p_ao.add_argument("--n", type=int, default=None, help=f"items (default {DEFAULTS['n']})")
    p_ao.add_argument("--gap", type=float, default=None,
                      help=f"start offset sup-norm (default {DEFAULTS['gap']})")
    p_ao.add_argument("--steps", type=int, default=None,
                      help=f"alternation steps (default {DEFAULTS['steps']})")
    p_ao.add_argument("--L", type=int, default=None,
                      help=f"games per compared pair (default {DEFAULTS['L']})")
    p_ao.add_argument("--gsq", type=float, default=None)
    p_ao.add_argument("--surrogate", action="store_true",
                      help="freeze the curvature at the optimum (quadratic surrogate)")
    p_ao.add_argument("--out", default=None, help="trace CSV path")
    add_common(p_ao)

    for study in ("study-rho", "study-expansion", "study-ao"):
        p_study = sub.add_parser(study, help=f"run the {study.split('-', 1)[1]} study")
        p_study.add_argument("--n-list", default=None,
                             help=f"comma-separated item counts (default {DEFAULTS['n_list']})")
        p_study.add_argument("--reps", type=int, default=None,
                             help=f"replications per n (default {DEFAULTS['reps']})")
        p_study.add_argument("--out", required=True, help="output path")
        p_study.add_argument("--format", choices=["csv", "json"], default=None)
        p_study.add_argument("--p-rule", default=None,
                             help="'logcube' for min(1, log(n)^3/n) or a fixed probability")
        p_study.add_argument("--L", type=int, default=None)
        p_study.add_argument("--gsq", type=float, default=None)
        p_study.add_argument("--penalty", choices=["mean_shift", "ridge"], default=None)
        p_study.add_argument("--score-range", default=None, help="comma pair, e.g. 0,2")
        p_study.add_argument("--threads", type=int, default=None,
                             help="parallel replications (default: machine parallelism)")
        if study == "study-ao":
            p_study.add_argument("--gap", type=float, default=None)
            p_study.add_argument("--steps", type=int, default=None)
            p_study.add_argument("--surrogate", action="store_true")
        add_common(p_study)

    p_self = sub.add_parser("selftest", help="run the built-in invariant suite")
    add_common(p_self)
    return parser


def _setting(args, config: dict, name: str, fallback):
    value = getattr(args, name.replace("-", "_"), None)
    if value is not None:
        return value
    if name in config:
        return config[name]
    return fallback


def _load_config(args) -> dict:
    if getattr(args, "config", None):
        with open(args.config) as fh:
            return json.load(fh)
    return {}


def _study_config(args, config: dict) -> tuple[ExperimentConfig, int]:
    n_list = tuple(int(v) for v in str(_setting(args, config, "n_list", DEFAULTS["n_list"])).split(","))
    p_rule = _setting(args, config, "p_rule", DEFAULTS["p_rule"])
    if p_rule != "logcube":
        p_rule = float(p_rule)
    rng_pair = str(_setting(args, config, "score_range", DEFAULTS["score_range"])).split(",")
    seed = _setting(args, config, "seed", _fallback_seed())
    cfg = ExperimentConfig(
        n_list=n_list,
        p_rule=p_rule,
        L=int(_setting(args, config, "L", DEFAULTS["L"])),
        score_range=(float(rng_pair[0]), float(rng_pair[1])),
        gsq=float(_setting(args, config, "gsq", DEFAULTS["gsq"])),
        penalty_kind=_setting(args, config, "penalty", DEFAULTS["penalty"]),
        reps=int(_setting(args, config, "reps", DEFAULTS["reps"])),
        seed=int(seed),
        gap=float(_setting(args, config, "gap", DEFAULTS["gap"])),
        steps=int(_setting(args, config, "steps", DEFAULTS["steps"])),
        surrogate=bool(getattr(args, "surrogate", False)),
    )
    threads = int(_setting(args, config, "threads", DEFAULTS["threads"]))
    return cfg, threads


def _cmd_fit(args) -> int:
    config = _load_config(args)
    obs = read_observations(args.input)
    if not isinstance(obs, BtlObservation):
        print("error: input file has no outcome column S", file=sys.stderr)
        return 1
    penalty = PenaltySpec(
        _setting(args, config, "penalty", DEFAULTS["penalty"]),
        float(_setting(args, config, "gsq", DEFAULTS["gsq"])),
    )
    report = fit_penalized_mle(
        obs,
        penalty,
        solver=_setting(args, config, "solver", DEFAULTS["solver"]),
        tol_grad=float(_setting(args, config, "tol", DEFAULTS["tol"])),
    )
    write_scores(args.out, report.argmin)
    status = "converged" if report.converged else f"NOT converged ({report.note})"
    print(f"fit: {obs.graph.n} items, {obs.graph.n_edges} edges, "
          f"{report.iterations} iterations, {status}")
    if args.strict and not report.converged:
        return 1
    return 0


def _cmd_diagnose(args) -> int:
    config = _load_config(args)
    obs = read_observations(args.input)
    if not isinstance(obs, BtlObservation):
        print("error: input file has no outcome column S", file=sys.stderr)
        return 1
    truth = read_scores(args.truth)
    if truth.shape[0] != obs.graph.n:
        print("error: truth length differs from the item count", file=sys.stderr)
        return 1
    penalty = PenaltySpec(
        _setting(args, config, "penalty", DEFAULTS["penalty"]),
        float(_setting(args, config, "gsq", DEFAULTS["gsq"])),
    )
    constants, diagnostics, reports = diagnose_expansion(obs, truth, penalty)
    rho_exact, rho_l2 = diagnostics.rho_dual, diagnostics.rho_dual_l2
    reports_to_csv(reports, args.out)
    with open(f"{args.out}.meta.json", "w") as fh:
        json.dump(
            {
                "rho_dual": rho_exact,
                "rho_dual_l2": rho_l2,
                "dual_exceeds_l2": rho_exact > rho_l2,
                "r_infty": diagnostics.r_infty,
                "dltwb": diagnostics.dltwb,
                "delta_nano": diagnostics.delta_nano,
                "delta_infty": diagnostics.delta_infty,
                "scaled_noise_supnorm": diagnostics.a_norm,
                "prerequisites": diagnostics.prerequisites_hold,
                "constants": {"tau3": constants.tau3, "d12": constants.d12,
                              "d21": constants.d21},
            },
            fh,
            indent=1,
        )
        fh.write("\n")
    print(f"diagnose: rho_dual={rho_exact:.6g} (l2 variant {rho_l2:.6g}), "
          f"prerequisites {'hold' if diagnostics.all_prerequisites_hold else 'FAIL'}; "
          f"{len(reports)} residual rows -> {args.out}")
    return 0


def _cmd_ao(args) -> int:
    config = _load_config(args)
    seed = int(_setting(args, config, "seed", _fallback_seed()))
    cfg = ExperimentConfig(
        n_list=(int(_setting(args, config, "n", DEFAULTS["n"])),),
        reps=1,
        seed=seed,
        L=int(_setting(args, config, "L", DEFAULTS["L"])),
        gsq=float(_setting(args, config, "gsq", DEFAULTS["gsq"])),
        gap=float(_setting(args, config, "gap", DEFAULTS["gap"])),
        steps=int(_setting(args, config, "steps", DEFAULTS["steps"])),
        surrogate=bool(getattr(args, "surrogate", False)),
    )
    result = ao_replication(cfg, cfg.n_list[0], 0)
    rec = result.record
    if result.trace is None:
        print("ao: replication failed (disconnected design or divergent fit)")
        return 1
    if args.out:
        trace_to_csv(result.trace, args.out)
    cert = result.certificate
    print(
        f"ao: n={rec['n']} steps={rec['steps']} contraction-bound={rec['ppT']:.6g} "
        f"measured-rate={rec['rate']:.6g} certificate={'holds' if rec['cert_ok'] else 'fails'}"
    )
    if cert is not None and not rec["cert_ok"]:
        failing = [k for k, v in cert.conditions_hold.items() if not v]
        print(f"    failing conditions: {', '.join(failing)}")
    return 0


def _cmd_study(args, kind: str) -> int:
    config = _load_config(args)
    cfg, threads = _study_config(args, config)
    runner = {"rho": run_rho_study, "expansion": run_expansion_study, "ao": run_ao_study}[kind]
    records = runner(cfg, threads=threads)
    fmt = _setting(args, config, "format", DEFAULTS["format"])
    emit(records, fmt, args.out, config=cfg)
    value_key = {"rho": "rho_dual_l2", "expansion": "rem_fish", "ao": "rate"}[kind]
    keep = {
        "rho": lambda r: r["connected"],
        "expansion": lambda r: r["converged"],
        "ao": lambda r: not np.isnan(r["rate"]),
    }[kind]
    summary = summarize_by_n(records, value_key, keep=keep)
    for n, stats in summary.items():
        print(
            f"{kind} study n={n}: {value_key} mean={stats['mean']:.6g} "
            f"std={stats['std']:.3g} (count {stats['count']}, dropped {stats['dropped']})"
        )
    print(f"wrote {len(records)} records -> {args.out}")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    seed = int(_setting(args, _load_config(args), "seed", _fallback_seed()))
    return run_selftest(seed=seed)


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    handlers = {
        "fit": _cmd_fit,
        "diagnose": _cmd_diagnose,
        "ao": _cmd_ao,
        "study-rho": lambda a: _cmd_study(a, "rho"),
        "study-expansion": lambda a: _cmd_study(a, "expansion"),
        "study-ao": lambda a: _cmd_study(a, "ao"),
        "selftest": _cmd_selftest,
    }
    return handlers[args.subcommand](args)


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
