"""Command-line entry point: fitting, diagnostics, traced runs, and studies.

Each setting comes from, in order: its flag, the ``--config`` JSON file, the
PERTURBOPT_SEED environment variable (the seed only), and the library's own
default.  A config key is a flag name with ``_`` for ``-``.  Every subcommand
is reproducible.  Exit codes: 0 success, 1 bad input (a config file, the
seed variable, a data file, an output path that cannot be written, or a
setting) or a non-converged fit under ``--strict``, 2 usage error.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import inspect
import json
import os
import sys

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
    STUDIES,
    ExperimentConfig,
    Study,
    ao_replication,
    diagnose_expansion,
    emit,
    run_study,
)

# the settings with no home in the library; every other default is the library's
DEFAULTS = {"format": "csv", "threads": os.cpu_count() or 1, "n": 20}

_FIT = inspect.signature(fit_penalized_mle).parameters


def _int_list(text: str) -> tuple:
    return tuple(int(v) for v in text.split(","))


def _float_pair(text: str) -> tuple:
    lo, hi = (float(v) for v in text.split(","))
    return lo, hi


def _p_rule(text: str):
    return text if text == "logcube" else float(text)


# every flag that a config file may set, with how its value is read
_FLAGS = {
    "--seed": dict(type=int, help=f"master seed (default {ExperimentConfig.seed}, "
                   "or PERTURBOPT_SEED)"),
    "--penalty": dict(choices=["mean_shift", "ridge"],
                      help=f"penalty kind (default {PenaltySpec.kind})"),
    "--gsq": dict(type=float, help=f"penalty strength (default {PenaltySpec.gsq})"),
    "--solver": dict(choices=["newton", "mm"],
                     help="'newton', or 'mm' for the matrix-free minorize-maximize fit "
                     f"(default {_FIT['solver'].default})"),
    "--tol": dict(type=float, help="gradient sup-norm tolerance "
                  f"(default {_FIT['tol_grad'].default:g})"),
    "--strict": dict(action="store_true", help="exit 1 when the fit does not converge"),
    "--n": dict(type=int, help=f"items (default {DEFAULTS['n']})"),
    "--n-list": dict(type=_int_list, help="comma-separated item counts "
                     f"(default {','.join(map(str, ExperimentConfig.n_list))})"),
    "--reps": dict(type=int, help=f"replications per n (default {ExperimentConfig.reps})"),
    "--p-rule": dict(type=_p_rule, help="'logcube' for min(1, log(n)^3/n) or a fixed "
                     f"probability (default {ExperimentConfig.p_rule})"),
    "--L": dict(type=int, help=f"games per compared pair (default {ExperimentConfig.L})"),
    "--score-range": dict(type=_float_pair, help="comma pair of generative score bounds "
                          "(default {:g},{:g})".format(*ExperimentConfig.score_range)),
    "--gap": dict(type=float, help=f"start offset sup-norm (default {ExperimentConfig.gap})"),
    "--steps": dict(type=int, help=f"alternation steps (default {ExperimentConfig.steps})"),
    "--surrogate": dict(action="store_true",
                        help="freeze the curvature at the optimum (quadratic surrogate)"),
    "--format": dict(choices=["csv", "json"],
                     help=f"records format (default {DEFAULTS['format']})"),
    "--threads": dict(type=int, help="parallel replications (default: machine parallelism)"),
}
_KEYS = {flag[2:].replace("-", "_"): flag for flag in _FLAGS}


@functools.cache  # built once per process: nothing in it depends on the environment
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perturbopt",
        description="Penalized pairwise-comparison fitting, expansion diagnostics, "
        "alternating-minimization runs, and seeded studies.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    study_flags = ["--n-list", "--reps", "--format", "--p-rule", "--L", "--gsq", "--penalty",
                   "--score-range", "--threads", "--seed"]
    studies = {f"study-{name}": (f"run the {name} study", {"--out": "output path"},
                                 study_flags + [_KEYS[field] for field in study.own_fields])
               for name, study in STUDIES.items()}
    observations = {"--input": "observation CSV with columns j,m,N,S"}
    commands = {  # name: (help, file flags with their help, setting flags)
        "fit": ("fit penalized scores from an observation CSV",
                observations | {"--out": "output CSV with columns item,score"},
                ["--penalty", "--gsq", "--solver", "--tol", "--strict"]),
        "diagnose": ("expansion diagnostics for observed outcomes",
                     observations | {"--truth": "generative scores CSV (item,score)",
                                     "--out": "residual-report CSV path"},
                     ["--penalty", "--gsq"]),
        "ao": ("one traced alternating-minimization instance", {"--out": "trace CSV path"},
               ["--n", "--gap", "--steps", "--L", "--gsq", "--surrogate", "--seed"]),
        **studies,
        "selftest": ("run the built-in invariant suite", {}, ["--seed"]),
    }
    for name, (text, files, flags) in commands.items():
        p = sub.add_parser(name, help=text)
        for flag, file_help in files.items():
            p.add_argument(flag, required=name != "ao", help=file_help)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.add_argument("--config", help="JSON file of settings, keyed by flag name with _ "
                       "for -; explicit flags win")
    return parser


class InputError(Exception):
    """Bad input from outside the program: ``dispatch`` prints it as one error line, exit 1."""


def _checked(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with the error it raises on bad input as an InputError.

    A file that cannot be read or written reads ``<path>: <reason>``.
    """
    try:
        return fn(*args, **kwargs)
    except OSError as exc:
        raise InputError(str(exc) if exc.filename is None
                         else f"{exc.filename}: {exc.strerror}") from None
    except ValueError as exc:
        raise InputError(str(exc)) from None


def _from_json(path, key: str, value):
    """A config value read as its flag reads text; a JSON list is its items joined by commas."""
    spec = _FLAGS[_KEYS[key]]
    if spec.get("action") == "store_true":
        if isinstance(value, bool):
            return value
    else:
        text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
        try:
            read = spec.get("type", str)(text)
        except ValueError:
            pass
        else:
            if read in spec.get("choices", [read]):
                return read
    raise InputError(f"{path}: {key}: invalid value {value!r} for {_KEYS[key]}")


def _read_config(path) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror}") from None
    except ValueError as exc:  # malformed JSON, or bytes that are not text
        raise InputError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(config, dict):
        raise InputError(f"{path}: the top level must be a JSON object")
    unknown = sorted(config.keys() - _KEYS.keys())
    if unknown:
        raise InputError(f"{path}: no subcommand reads {', '.join(map(repr, unknown))}")
    return {key: _from_json(path, key, value) for key, value in config.items()}


def _settings(args) -> dict:
    """This subcommand's settings, each from the first of: its flag, the config file,
    PERTURBOPT_SEED (the seed only) and ``DEFAULTS``.  A setting found in none of
    them is left out, so the library's own default applies."""
    config = _read_config(args.config) if args.config else {}
    settings = {}
    for key, value in vars(args).items():
        if key not in _KEYS:
            continue
        if value is not None and value is not False:  # False: a store_true flag not given
            settings[key] = value
        elif key in config:
            settings[key] = config[key]
        elif key == "seed" and "PERTURBOPT_SEED" in os.environ:
            env = os.environ["PERTURBOPT_SEED"]
            try:
                settings[key] = int(env)
            except ValueError:
                raise InputError(f"PERTURBOPT_SEED={env!r} is not an integer") from None
        elif key in DEFAULTS:
            settings[key] = DEFAULTS[key]
    return settings


def _pick(settings: dict, names: dict) -> dict:
    """``{parameter: settings[key]}`` over the ``names`` items whose key is set."""
    return {param: settings[key] for param, key in names.items() if key in settings}


def _experiment_config(settings: dict, **fixed) -> ExperimentConfig:
    """The one builder of a run's ExperimentConfig: the settings naming a field, and ``fixed``."""
    fields = {f.name: f.name for f in dataclasses.fields(ExperimentConfig)}
    fields["penalty_kind"] = "penalty"
    return _checked(ExperimentConfig, **_pick(settings, fields), **fixed)


def _penalty(settings: dict) -> PenaltySpec:
    return _checked(PenaltySpec, **_pick(settings, {"kind": "penalty", "gsq": "gsq"}))


def _read_outcomes(path) -> BtlObservation:
    obs = read_observations(path)
    if not isinstance(obs, BtlObservation):
        raise ValueError(f"{path}: no outcome column S")
    return obs


def _cmd_fit(args) -> int:
    settings = _settings(args)
    obs = _checked(_read_outcomes, args.input)
    report = _checked(fit_penalized_mle, obs, _penalty(settings),
                      **_pick(settings, {"solver": "solver", "tol_grad": "tol"}))
    _checked(write_scores, args.out, report.argmin)
    status = "converged" if report.converged else f"NOT converged ({report.note})"
    print(f"fit: {obs.graph.n} items, {obs.graph.n_edges} edges, "
          f"{report.iterations} iterations, {status}")
    if settings.get("strict") and not report.converged:
        return 1
    return 0


def _cmd_diagnose(args) -> int:
    settings = _settings(args)
    obs = _checked(_read_outcomes, args.input)
    truth = _checked(read_scores, args.truth)
    if truth.shape[0] != obs.graph.n:
        raise InputError("truth length differs from the item count")
    constants, diagnostics, reports = _checked(diagnose_expansion, obs, truth, _penalty(settings))
    rho_exact, rho_l2 = diagnostics.rho_dual, diagnostics.rho_dual_l2
    _checked(reports_to_csv, reports, args.out)
    _checked(_write_json, f"{args.out}.meta.json", {
        "rho_dual": rho_exact,
        "rho_dual_l2": rho_l2,
        "dual_exceeds_l2": rho_exact > rho_l2,
        "r_infty": diagnostics.r_infty,
        "dltwb": diagnostics.dltwb,
        "delta_nano": diagnostics.delta_nano,
        "delta_infty": diagnostics.delta_infty,
        "scaled_noise_supnorm": diagnostics.a_norm,
        "prerequisites": diagnostics.prerequisites_hold,
        "constants": {"tau3": constants.tau3, "d12": constants.d12, "d21": constants.d21},
    })
    print(f"diagnose: rho_dual={rho_exact:.6g} (l2 variant {rho_l2:.6g}), "
          f"prerequisites {'hold' if diagnostics.all_prerequisites_hold else 'FAIL'}; "
          f"{len(reports)} residual rows -> {args.out}")
    return 0


def _write_json(path, payload: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=1) + "\n")


def _probe_output(path) -> None:
    """Raise the OSError that writing ``path`` would raise, before the run that fills it.

    Opens ``path`` for appending, which changes no existing file, and removes
    the file again if the probe created it.
    """
    existed = os.path.lexists(path)
    with open(path, "a"):
        pass
    if not existed:
        os.remove(path)


def _cmd_ao(args) -> int:
    settings = _settings(args)
    cfg = _experiment_config(settings, n_list=(settings["n"],), reps=1)
    if args.out:
        _checked(_probe_output, args.out)
    result = ao_replication(cfg, cfg.n_list[0], 0)
    rec = result.record
    if result.trace is None:
        print(f"ao: replication failed ({result.reason})")
        return 1
    if args.out:
        _checked(trace_to_csv, result.trace, args.out)
    cert = result.certificate
    print(
        f"ao: n={rec['n']} steps={rec['steps']} contraction-bound={rec['ppT']:.6g} "
        f"measured-rate={rec['rate']:.6g} certificate={'holds' if rec['cert_ok'] else 'fails'}"
    )
    if cert is not None and not rec["cert_ok"]:
        failing = [k for k, v in cert.conditions_hold.items() if not v]
        print(f"    failing conditions: {', '.join(failing)}")
    return 0


def _cmd_study(args, study: Study) -> int:
    settings = _settings(args)
    cfg = _experiment_config(settings)
    _checked(_probe_output, args.out)
    records = _checked(run_study, study, cfg, threads=settings["threads"])
    _checked(emit, records, settings["format"], args.out, config=cfg)
    for line in study.summary(records):
        print(line)
    print(f"wrote {len(records)} records -> {args.out}")
    return 0


def _cmd_selftest(args) -> int:
    from .selftest import run_selftest

    return run_selftest(**_pick(_settings(args), {"seed": "seed"}))


@functools.cache  # once per process; pool workers forked after it inherit the setting
def _keep_freed_heap() -> None:
    """Tell glibc's allocator to keep freed memory in the process; elsewhere, nothing.

    Each fit and diagnose frees and reallocates edge arrays, Hessians and parse
    buffers of a few hundred KB, which glibc by default hands back to the kernel and
    then faults in again.  Both thresholds are pinned at glibc's 64-bit ceilings.
    """
    try:
        glibc = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name here
        return
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None) if glibc else None
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
        # M_MMAP_THRESHOLD at 32 MiB, then M_TRIM_THRESHOLD at twice that (malloc.h);
        # mallopt returns 0 when it refuses a value
        if mallopt(-3, 32 << 20):
            mallopt(-1, 64 << 20)


def dispatch(argv) -> int:
    _keep_freed_heap()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    handlers = {
        "fit": _cmd_fit,
        "diagnose": _cmd_diagnose,
        "ao": _cmd_ao,
        "selftest": _cmd_selftest,
    } | {f"study-{name}": functools.partial(_cmd_study, study=study)
         for name, study in STUDIES.items()}
    try:
        return handlers[args.subcommand](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
