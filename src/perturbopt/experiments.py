"""Seeded Monte Carlo studies over Erdos-Renyi comparison designs.

Three studies regenerate the quantities behind the reference figures at desk
scale: the scaled cross-curvature values, the leading-term/remainder split
of the fitted-score error, and traced alternating-minimization runs with
their certificates.  Replications draw from independent substreams keyed by
(master seed, item count, replication index), so execution order never
changes a record.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from . import tolerances as tol
from .ao import AoCertificate, AoTrace, ao_run, certify_convergence, estimate_rate, fixed_point_radii
from .btl import (
    DISCONNECTED,
    BtlObjective,
    BtlObservation,
    PenaltySpec,
    _noise_from,
    btl_condition_constants,
    btl_objective,
    fit_penalized_mle,
    mle_exists,
    sample_er_graph,
    sample_outcomes,
)
from .errors import InnerSolveFailed
from .expansions import (
    ConditionConstants,
    ExpansionDiagnostics,
    ResidualReport,
    check_linear_sup_expansion,
    rho_dual,
)
from .numkit import BlockSplit, contraction_matrix, spd_solve
from .objective import QuadraticObjective, SolveReport, newton_minimize

__all__ = [
    "ExperimentConfig",
    "Study",
    "STUDIES",
    "edge_probability",
    "replication_rng",
    "run_study",
    "run_ao_study",
    "rho_replication",
    "expansion_replication",
    "diagnose_expansion",
    "ao_replication",
    "ExpansionRepResult",
    "AoRepResult",
    "emit",
    "parse_records",
    "summarize_by_n",
]

ARTIFACT_VERSION = "0.1.0"


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs of the seeded studies; every output row is reproducible from these."""

    n_list: tuple = (100,)
    p_rule: object = "logcube"  # "logcube" -> min(1, log(n)^3 / n); or a fixed float
    L: int = 1
    score_range: tuple = (0.0, 2.0)
    gsq: float = PenaltySpec.gsq
    penalty_kind: str = PenaltySpec.kind
    reps: int = 20
    seed: int = 1
    # alternating-run knobs
    gap: float = 0.02
    steps: int = 8
    surrogate: bool = False

    def __post_init__(self):
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(self, "score_range", tuple(float(v) for v in self.score_range))
        for n in self.n_list:  # before edge_probability, whose log needs n > 0
            if n < 2:
                raise ValueError(f"need at least 2 items in a design, got n={n}")
        if self.reps < 1:
            raise ValueError("need at least one replication")
        if self.L < 1:
            raise ValueError("need at least one comparison per edge (L >= 1)")
        if self.steps < tol.AO_BURN_IN + 2:  # the fewest estimate_rate accepts
            raise ValueError(f"need at least {tol.AO_BURN_IN + 2} alternation steps: the rate "
                             f"is estimated after a burn-in of {tol.AO_BURN_IN}")
        lo, hi = self.score_range
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"score range ends must be finite, got {lo},{hi}")
        if not hi >= lo:
            raise ValueError("score range upper end below lower end")
        if not (math.isfinite(self.gap) and self.gap >= 0):
            raise ValueError(f"the start gap must be finite and >= 0, got {self.gap}")
        for n in self.n_list:
            p = edge_probability(self, n)
            if not 0.0 < p <= 1.0:
                raise ValueError(f"edge probability {p} out of (0, 1] for n={n}")
        self.penalty  # built here, so a bad penalty kind or strength fails at construction

    @cached_property
    def penalty(self) -> PenaltySpec:
        return PenaltySpec(self.penalty_kind, self.gsq)


def edge_probability(cfg: ExperimentConfig, n: int) -> float:
    if cfg.p_rule == "logcube":
        return min(1.0, math.log(n) ** 3 / n)
    return float(cfg.p_rule)


def replication_rng(seed: int, n: int, rep: int) -> np.random.Generator:
    """Independent substream keyed by (master seed, item count, replication)."""
    return np.random.default_rng(np.random.SeedSequence((seed, n, rep)))


def _sample_instance(cfg: ExperimentConfig, n: int, rep: int):
    """Graph, centered truth, and outcomes, drawn in a fixed order."""
    rng = replication_rng(cfg.seed, n, rep)
    graph = sample_er_graph(n, edge_probability(cfg, n), cfg.L, rng)
    raw = rng.uniform(cfg.score_range[0], cfg.score_range[1], n)
    truth = raw - raw.mean()  # zero-sum identification; gaps are unchanged
    obs = sample_outcomes(graph, truth, rng)
    return graph, truth, obs


def _new_record(study: str, cfg: ExperimentConfig, n: int, rep: int, **cells) -> dict:
    """A record in the registered columns of ``study``: the given ``cells``, and NaN
    or false in the float and bool columns not given."""
    record = {"study": study, "n": n, "rep": rep, "seed": cfg.seed}
    for name, kind in STUDIES[study].columns[len(_KEY):]:
        record[name] = cells[name] if name in cells else {float: math.nan, bool: False}[kind]
    return record


# ---------------------------------------------------------------------------
# scaled cross-curvature study


def rho_replication(cfg: ExperimentConfig, n: int, rep: int) -> dict:
    """One draw of the scaled cross-curvature values on a fresh design.

    ``rho_dual`` is the exact per-row dual value.  ``rho_dual_l2`` is the
    cross-row sum-of-squares display in its squared form, the quantity that
    tracks 1/(n p) on these designs (the unsquared root is available from
    :func:`perturbopt.expansions.rho_dual`).
    """
    graph, truth, _ = _sample_instance(cfg, n, rep)
    fisher = btl_objective(graph, cfg.penalty, mode="expected", truth=truth).hessian(truth)
    d = np.sqrt(np.diag(fisher))
    exact, l2 = rho_dual(fisher, d)
    off = np.abs(fisher).sum(axis=1) - np.abs(np.diag(fisher))
    margin = float((np.diag(fisher) - off).min())
    return _new_record("rho", cfg, n, rep, rho_dual=exact, rho_dual_l2=l2 * l2,
                       connected=graph.connected, diag_dom_margin=margin)


# ---------------------------------------------------------------------------
# leading-term / remainder study


@dataclass
class ExpansionRepResult:
    record: dict
    diagnostics: Optional[ExpansionDiagnostics] = None
    reports: tuple = ()


def expansion_replication(cfg: ExperimentConfig, n: int, rep: int,
                          with_bounds: bool = False) -> ExpansionRepResult:
    graph, truth, obs = _sample_instance(cfg, n, rep)
    record = _new_record("expansion", cfg, n, rep)
    if not graph.connected:
        return ExpansionRepResult(record=record)
    fit = fit_penalized_mle(obs, cfg.penalty, solver="newton", tol_grad=tol.SOLVER_GRAD_TOL)
    expected, polish, fisher = _expected_minimizer(graph, cfg.penalty, truth)
    noise = _noise_from(obs, expected.wins)
    fish_lead = spd_solve(fisher, noise)
    diag_lead = noise / np.diag(fisher)
    err = fit.argmin - polish.argmin
    record.update(
        lead_fish=float(np.abs(fish_lead).max()),
        lead_diag=float(np.abs(diag_lead).max()),
        rem_fish=float(np.abs(err + fish_lead).max()),
        rem_diag=float(np.abs(err + diag_lead).max()),
        converged=bool(fit.converged),
    )
    if not with_bounds or not fit.converged:
        return ExpansionRepResult(record=record)
    _, diagnostics, reports = _sup_expansion_bounds(expected, polish, fisher, noise, fish_lead)
    return ExpansionRepResult(record=record, diagnostics=diagnostics, reports=tuple(reports))


def _expected_minimizer(graph, penalty: PenaltySpec, truth):
    """Expected-count objective, the polish solve to its exact minimizer, and the
    Fisher matrix there.  The solve's report keeps the value and gradient at the
    minimizer, ``polish.argmin``."""
    expected = btl_objective(graph, penalty, mode="expected", truth=truth)
    # centered scores are the exact minimizer of the expected objective;
    # the polish solve verifies that before any residual is measured
    polish = newton_minimize(expected, truth, tol_grad=tol.JOINT_SOLVE_TOL)
    return expected, polish, expected.hessian(polish.argmin)


def _sup_expansion_bounds(
    expected: BtlObjective, polish: SolveReport, fisher, noise, f_inv_noise
) -> tuple[ConditionConstants, ExpansionDiagnostics, list[ResidualReport]]:
    """Sup-norm constants on the radius sqrt(2) a / (1 - rho_dual), then the residual check.

    ``f_inv_noise`` is ``spd_solve(fisher, noise)``.  The radius is 0 when
    rho_dual >= 1: the bounds are void there and the constants are taken at
    the center only.
    """
    ups_star = polish.argmin
    d = np.sqrt(np.diag(fisher))
    rho = rho_dual(fisher, d)
    a_norm = float(np.abs(noise / d).max())
    radius = math.sqrt(2.0) * a_norm / (1.0 - rho[0]) if rho[0] < 1.0 else 0.0
    # d is the metric the constants would build from the graph, bit for bit: the expected
    # Hessian's diagonal holds no outcomes
    constants = btl_condition_constants(expected.graph, expected.penalty, ups_star,
                                        radius=radius, norm="linf", d_scales=d)
    diagnostics, reports = check_linear_sup_expansion(
        expected, noise, constants, ups_star, fisher=fisher, rho=rho,
        evaluation=(polish.value, polish.gradient), f_inv_a=f_inv_noise)
    return constants, diagnostics, reports


def diagnose_expansion(
    obs: BtlObservation, truth, penalty: PenaltySpec
) -> tuple[ConditionConstants, ExpansionDiagnostics, list[ResidualReport]]:
    """Linear sup-norm expansion diagnostics of observed outcomes around ``truth``.

    The residuals are measured against the exact minimizer of the expected
    objective, which equals ``truth`` when the scores are centered.  Without
    a ridge, a disconnected design has no such minimizer: a ValueError.
    """
    if penalty.kind != "ridge" and not obs.graph.connected:
        raise ValueError(DISCONNECTED)
    expected, polish, fisher = _expected_minimizer(obs.graph, penalty, truth)
    noise = _noise_from(obs, expected.wins)
    return _sup_expansion_bounds(expected, polish, fisher, noise, spd_solve(fisher, noise))


# ---------------------------------------------------------------------------
# alternating-minimization study


@dataclass
class AoRepResult:
    """One AO replication.  Without a trace, ``reason`` says why: ``disconnected``,
    ``divergent_mle``, ``joint_not_converged`` or ``inner_solve_failed``."""

    record: dict
    trace: Optional[AoTrace] = None
    certificate: Optional[AoCertificate] = None
    reason: str = "ok"


def ao_replication(cfg: ExperimentConfig, n: int, rep: int) -> AoRepResult:
    graph, truth, obs = _sample_instance(cfg, n, rep)
    record = _new_record("ao", cfg, n, rep, steps=cfg.steps)
    if not graph.connected:
        return AoRepResult(record=record, reason="disconnected")
    if not mle_exists(obs):
        return AoRepResult(record=record, reason="divergent_mle")
    f = btl_objective(obs, cfg.penalty, mode="empirical")
    joint = newton_minimize(f, np.zeros(n), tol_grad=tol.JOINT_SOLVE_TOL)
    if not joint.converged:
        return AoRepResult(record=record, reason="joint_not_converged")
    ups_star = joint.argmin
    fisher = f.hessian(ups_star)
    if cfg.surrogate:
        f = QuadraticObjective(ups_star, fisher)

    split = BlockSplit.half(n)
    geometry = contraction_matrix(fisher, split)
    direction = geometry.tt_inv_half @ geometry.top_direction
    direction = direction / np.abs(direction).max() * cfg.gap
    theta_star = ups_star[split.target_idx]
    theta0 = theta_star + direction
    d_gap = float(np.linalg.norm(geometry.tt_half @ direction))

    def constants_on(radii):
        return btl_condition_constants(graph, cfg.penalty, ups_star, norm="l2", radii=radii,
                                       geometry=geometry)

    radii = fixed_point_radii(constants_on((0.0, 0.0)), geometry.rho_star, d_gap)
    if radii is None:  # the radius search left the damping range: nothing to certify on
        certificate = AoCertificate(start_gap=d_gap, ppt_norm=geometry.ppt_norm,
                                    rho_star=geometry.rho_star,
                                    conditions_hold={"radii_feasible": False})
    else:
        constants = constants_on(radii)
        refined = fixed_point_radii(constants, geometry.rho_star, d_gap)
        if refined is not None:
            constants = constants_on(refined)
        certificate = certify_convergence(geometry, constants, d_gap)

    try:
        trace = ao_run(f, geometry, theta0, cfg.steps, ups_star)
    except InnerSolveFailed:
        return AoRepResult(record=record, certificate=certificate, reason="inner_solve_failed")
    rate = estimate_rate(trace.theta_err_norms, burn_in=tol.AO_BURN_IN)
    record.update(ppT=geometry.ppt_norm, rate=rate, cert_ok=certificate.holds)
    return AoRepResult(record=record, trace=trace, certificate=certificate)


# ---------------------------------------------------------------------------
# the study registry


@dataclass(frozen=True)
class Study:
    """Everything the runner, ``emit``, ``parse_records``, the CLI and the figure
    script know of one study.

    ``record(cfg, n, rep)`` runs one replication and returns its record, whose
    cells are ``columns``, ``(name, type)`` pairs in record order.  ``summary``
    gives the moments of ``summarised`` over the records that ``keep`` accepts.
    ``own_fields`` are the ExperimentConfig fields that only this study reads,
    so only its subcommand takes them as flags.
    """

    name: str
    record: Callable[[ExperimentConfig, int, int], dict]
    columns: tuple
    summarised: str
    keep: Callable[[dict], bool]
    own_fields: tuple = ()

    @cached_property
    def names(self) -> list[str]:
        return [name for name, _ in self.columns]

    def summary(self, records: Sequence[dict]) -> list[str]:
        """One line per item count: the summarised column's moments over the kept records."""
        return [f"{self.name} study n={n}: {self.summarised} mean={stats['mean']:.6g} "
                f"std={stats['std']:.3g} (count {stats['count']}, dropped {stats['dropped']})"
                for n, stats in summarize_by_n(records, self.summarised, self.keep).items()]


# the columns that every study's record starts with
_KEY = (("study", str), ("n", int), ("rep", int), ("seed", int))

STUDIES = {study.name: study for study in (
    Study("rho", rho_replication,
          _KEY + (("rho_dual", float), ("rho_dual_l2", float), ("connected", bool),
                  ("diag_dom_margin", float)),
          "rho_dual_l2", lambda r: r["connected"]),
    Study("expansion", lambda cfg, n, rep: expansion_replication(cfg, n, rep).record,
          _KEY + (("lead_fish", float), ("lead_diag", float), ("rem_fish", float),
                  ("rem_diag", float), ("converged", bool)),
          "rem_fish", lambda r: r["converged"]),
    Study("ao", lambda cfg, n, rep: ao_replication(cfg, n, rep).record,
          _KEY + (("ppT", float), ("rate", float), ("cert_ok", bool), ("steps", int)),
          "rate", lambda r: not math.isnan(r["rate"]), own_fields=("gap", "steps", "surrogate")),
)}


def _replicate(name: str, cfg: ExperimentConfig, n: int, rep: int) -> dict:
    """One record of the study named ``name``: a process pool sends the name, not the
    study, whose functions need not pickle."""
    return STUDIES[name].record(cfg, n, rep)


def run_study(study: Study, cfg: ExperimentConfig, threads: int = 1) -> list[dict]:
    """Every replication's record, sorted by (n, rep); ``threads`` > 1 runs them in a
    process pool, which changes no record.  ValueError when ``threads`` < 1."""
    if threads < 1:
        raise ValueError(f"need at least one thread, got threads={threads}")
    tasks = [(study.name, cfg, n, rep) for n in cfg.n_list for rep in range(cfg.reps)]
    if threads == 1 or len(tasks) <= 1:
        records = [_replicate(*t) for t in tasks]
    else:
        # imported here, not at the top: the pool's modules add about 6 ms to the start-up
        # of every process, and most never start a pool
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=threads) as pool:
            records = [f.result() for f in [pool.submit(_replicate, *t) for t in tasks]]
    records.sort(key=lambda r: (r["n"], r["rep"]))
    return records


def run_ao_study(cfg: ExperimentConfig, threads: int = 1) -> list[dict]:
    return run_study(STUDIES["ao"], cfg, threads)


# ---------------------------------------------------------------------------
# emission and summaries


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def emit(records: Sequence[dict], fmt: str, path, config: Optional[ExperimentConfig] = None) -> None:
    """Write one study's records as CSV (its registered columns) or JSON, plus a
    metadata sidecar.  No records write the one-column header ``study``.  The
    sidecar's ``config`` leaves out the ``own_fields`` of the other studies, which
    this one never reads."""
    records = list(records)
    study = records[0]["study"] if records else None
    if records and study not in STUDIES:
        raise ValueError(f"no registered study {study!r}; the studies are {', '.join(STUDIES)}")
    columns = STUDIES[study].columns if records else (("study", str),)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([name for name, _ in columns])
            for rec in records:
                writer.writerow([_format_cell(rec[name]) for name, _ in columns])
    elif fmt == "json":
        # each cell as its column's plain Python type, NaN as null
        payload = [
            {name: (None if _is_nan(rec[name]) else kind(rec[name])) for name, kind in columns}
            for rec in records
        ]
        with open(path, "w") as fh:
            fh.write(json.dumps(payload, indent=1) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    meta = {
        "artifact_version": ARTIFACT_VERSION,
        "study": study,
        "records": len(records),
        "created_unix": time.time(),
    }
    if config is not None:
        foreign = {key for other in STUDIES.values() if other.name != study
                   for key in other.own_fields}
        meta["config"] = {k: v for k, v in asdict(config).items() if k not in foreign}
        meta["seed"] = config.seed
    # one write: json.dump with an indent writes each token on its own
    with open(f"{path}.meta.json", "w") as fh:
        fh.write(json.dumps(meta, indent=1, default=str) + "\n")


def _is_nan(v) -> bool:
    return isinstance(v, (float, np.floating)) and math.isnan(v)


def _read_bool(cell: str) -> bool:
    if cell not in ("true", "false"):
        raise ValueError(cell)
    return cell == "true"


def parse_records(path) -> list[dict]:
    """Read a study CSV back, each cell as its column's type.

    Each row's ``study`` cell names its registered study, and the header must
    be that study's columns.  A bool cell is ``true`` or ``false``, an int cell
    an integer and any other a float.  A header-only ``study`` file, which
    ``emit`` writes for no records, reads as [].  Anything else raises a
    ValueError naming the path and the line.
    """
    records = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        for row in reader:
            where = f"{path}, line {reader.line_num}"
            name = row[0] if row else ""
            if name not in STUDIES:
                raise ValueError(f"{where}: no registered study {name!r}")
            study = STUDIES[name]
            if header != study.names:
                raise ValueError(f"{path}, line 1: the header is not the {study.name} "
                                 f"study's columns {','.join(study.names)}")
            if len(row) != len(header):
                raise ValueError(f"{where}: {len(row)} cells under {len(header)} columns")
            record = {}
            for (name, kind), cell in zip(study.columns, row):
                try:
                    record[name] = _read_bool(cell) if kind is bool else kind(cell)
                except ValueError:
                    raise ValueError(f"{where}: {name}: cannot read {cell!r} as "
                                     f"{kind.__name__}") from None
            records.append(record)
    if not records and header != ["study"]:
        raise ValueError(f"{path}: no records, and the header is not the one-column 'study'")
    return records


def summarize_by_n(records: Sequence[dict], value_key: str,
                   keep=lambda r: True) -> dict[int, dict]:
    """Count/mean/sample-std of one column per item count, skipping filtered rows.

    Rows failing ``keep`` (e.g. disconnected or non-converged replications)
    are excluded from the moments but counted separately.
    """
    grouped: dict[int, list[float]] = {}
    dropped: dict[int, int] = {}
    for rec in records:
        n = rec["n"]
        if keep(rec) and not _is_nan(rec[value_key]):
            grouped.setdefault(n, []).append(float(rec[value_key]))
        else:
            dropped[n] = dropped.get(n, 0) + 1
    out = {}
    for n, vals in sorted(grouped.items()):
        arr = np.asarray(vals)
        out[n] = {
            "count": int(arr.size),
            "dropped": dropped.get(n, 0),
            "mean": float(arr.mean()),
            "std": float(arr.std(ddof=1)) if arr.size > 1 else 0.0,
        }
    return out
