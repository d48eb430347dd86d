"""The benchmark's workloads: seeded inputs, timed operations, correctness gates.

Every workload drives perturbopt through its public functions or
``cli.dispatch``.  The library sees only inputs generated here from the
benchmark's seed, or the seed of an ``ExperimentConfig``.  Work is done in
batches: a batch of study replications ends with one ``emit``, as a study
does, and a CLI batch is one ``fit`` + ``diagnose`` pair.  Each workload
attribute is looked up on its module at call time, so the tracer's wrappers
see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perturbopt import btl, cli, experiments

REFERENCE = Path(__file__).resolve().parent / "reference"
# records of the default seed are compared with the stored reference
GATE_SEED = 1
RTOL = 1e-9
ATOL = 1e-12

AO_N = 50
AO_CHUNK = 8
CLI_N = 300
CLI_INPUTS = 4
# batch index of the warm-up, far from the measured ones
WARMUP = 99_999


def chunk_seed(seed: int, index: int) -> int:
    """ExperimentConfig seed of batch ``index``: each batch draws fresh instances."""
    return seed * 100_000 + index


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def ao_config(seed: int, reps: int = AO_CHUNK) -> experiments.ExperimentConfig:
    return experiments.ExperimentConfig(
        n_list=(AO_N,), L=3, gsq=5.0, gap=0.02, steps=8, reps=reps, seed=seed
    )


def _is_nan(value) -> bool:
    return isinstance(value, float) and math.isnan(value)


def _report_failure(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# -- comparison with the stored reference -------------------------------


def _cell_match(a: str, b: str) -> bool:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return a == b  # booleans, names
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    if math.isinf(x) or math.isinf(y):
        return x == y
    return math.isclose(x, y, rel_tol=RTOL, abs_tol=ATOL)


def csv_matches(path: Path, ref: Path) -> tuple[bool, bool]:
    """(cells match within tolerance with equal booleans and NaN pattern, bytes identical)."""
    with open(path, newline="") as fh:
        got = list(csv.reader(fh))
    with open(ref, newline="") as fh:
        want = list(csv.reader(fh))
    same_shape = len(got) == len(want) and all(len(g) == len(w) for g, w in zip(got, want))
    cells = same_shape and all(
        _cell_match(g, w) for grow, wrow in zip(got, want) for g, w in zip(grow, wrow)
    )
    return cells, path.read_bytes() == ref.read_bytes()


# -- batches ------------------------------------------------------------


@dataclass
class Batch:
    """Operations, their latencies (s), failed operations and wall time incl. emit (s)."""

    ops: int = 0
    latencies: list = field(default_factory=list)
    failed: int = 0
    wall: float = 0.0
    output_ok: bool = True


class Workload:
    name = ""
    # batches of the traced run: fixed, so span counts repeat exactly
    trace_batches = 1
    # the traced run also measures the process pool of run_ao_study
    pooled = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Input generation and warm-up, outside every timed region."""
        raise NotImplementedError

    def batch(self, index: int) -> Batch:
        raise NotImplementedError

    def gate(self) -> tuple[dict, dict]:
        """(checks that must hold, facts reported alongside)."""
        raise NotImplementedError


class AoStudy(Workload):
    """``ao_replication`` called one by one, then ``emit``, in one process.

    Its traced run also times one study through ``run_ao_study``'s process
    pool.
    """

    name = "ao-study"
    reference = "ao.csv"
    gate_reps = 4
    trace_batches = 4
    pooled = True

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.workers = nproc()

    @staticmethod
    def empty(record: dict) -> bool:
        return _is_nan(record["rate"]) or _is_nan(record["ppT"])

    def run_study(self, cfg, out: Path) -> Batch:
        batch = Batch(ops=cfg.reps)
        records = []
        start = time.perf_counter()
        for rep in range(cfg.reps):
            t0 = time.perf_counter()
            try:
                record = experiments.ao_replication(cfg, AO_N, rep).record
            except Exception:
                _report_failure(f"{self.name} rep {rep} seed {cfg.seed}")
                batch.failed += 1
                record = None
            batch.latencies.append(time.perf_counter() - t0)
            if record is not None:
                records.append(record)
                batch.failed += self.empty(record)
        experiments.emit(records, "csv", out, config=cfg)
        batch.wall = time.perf_counter() - start
        batch.output_ok = len(experiments.parse_records(out)) == len(records)
        return batch

    def pool_study(self, cfg, out: Path) -> Batch:
        """A study through ``run_ao_study(cfg, threads=nproc)``, the CLI's default path."""
        batch = Batch(ops=cfg.reps)
        start = time.perf_counter()
        try:
            records = experiments.run_ao_study(cfg, threads=self.workers)
        except Exception:
            _report_failure(f"{self.name} pooled study seed {cfg.seed}")
            records = []
        experiments.emit(records, "csv", out, config=cfg)
        batch.wall = time.perf_counter() - start
        batch.failed = cfg.reps - len(records) + sum(self.empty(r) for r in records)
        batch.output_ok = [r["rep"] for r in records] == list(range(cfg.reps))
        return batch

    def setup(self):
        self.run_study(ao_config(chunk_seed(self.seed, WARMUP), reps=2), self.workdir / "ao.csv")

    def batch(self, index: int) -> Batch:
        return self.run_study(ao_config(chunk_seed(self.seed, index)), self.workdir / "ao.csv")

    def gate(self) -> tuple[dict, dict]:
        cfg = ao_config(GATE_SEED, reps=self.gate_reps)
        serial, pooled = self.workdir / "gate_ao.csv", self.workdir / "gate_ao_pool.csv"
        serial_batch = self.run_study(cfg, serial)
        pool_batch = self.pool_study(cfg, pooled)
        cells, identical = csv_matches(serial, REFERENCE / self.reference)
        return (
            {"reference_records_match": cells,
             "gate_no_failures": serial_batch.failed == 0 and pool_batch.failed == 0,
             "pool_csv_bytes_identical_to_single_process":
                 pooled.read_bytes() == serial.read_bytes()},
            {"reference_csv_bytes_identical": identical, "pool_workers": self.workers},
        )


class CliFitDiagnose(Workload):
    """``perturbopt fit`` then ``perturbopt diagnose`` on CSV files, in-process."""

    name = "cli-fit-diagnose"
    trace_batches = 12

    # report rows every diagnose must write; None skips the check
    variants = None

    def write_inputs(self, seed: int, index: int) -> tuple[Path, Path]:
        """Observation and truth CSVs of one seeded n=300 instance."""
        rng = np.random.default_rng([seed, index])
        cfg = experiments.ExperimentConfig(n_list=(CLI_N,))
        graph = btl.sample_er_graph(CLI_N, experiments.edge_probability(cfg, CLI_N), 1, rng)
        raw = rng.uniform(0.0, 2.0, CLI_N)
        truth = raw - raw.mean()
        obs = btl.sample_outcomes(graph, truth, rng)
        obs_path = self.workdir / f"obs_{seed}_{index}.csv"
        truth_path = self.workdir / f"truth_{seed}_{index}.csv"
        btl.write_observations(obs_path, obs)
        btl.write_scores(truth_path, truth)
        return obs_path, truth_path

    def load_variants(self) -> None:
        with open(REFERENCE / "cli_report.csv", newline="") as fh:
            self.variants = [row["variant"] for row in csv.DictReader(fh)]

    def setup(self):
        self.load_variants()
        self.inputs = [self.write_inputs(self.seed, i) for i in range(CLI_INPUTS)]
        self.batch(0)

    def fit_diagnose(self, obs: Path, truth: Path, scores: Path, report: Path) -> Batch:
        batch = Batch(ops=1)
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                codes = (
                    # --strict: a fit that does not converge exits 1
                    cli.dispatch(["fit", "--input", str(obs), "--out", str(scores),
                                  "--strict"]),
                    cli.dispatch(["diagnose", "--input", str(obs), "--truth", str(truth),
                                  "--out", str(report)]),
                )
        except Exception:
            _report_failure(f"{self.name} on {obs.name}")
            codes = (None,)
        batch.wall = time.perf_counter() - start
        batch.latencies.append(batch.wall)
        written = []
        if codes == (0, 0):
            with open(report, newline="") as fh:
                written = [row["variant"] for row in csv.DictReader(fh)]
        batch.failed = int(codes != (0, 0)
                           or (self.variants is not None and written != self.variants))
        return batch

    def batch(self, index: int) -> Batch:
        obs, truth = self.inputs[index % CLI_INPUTS]
        return self.fit_diagnose(obs, truth, self.workdir / "scores.csv",
                                 self.workdir / "report.csv")

    def gate(self) -> tuple[dict, dict]:
        self.load_variants()
        obs, truth = self.write_inputs(GATE_SEED, 0)
        scores, report = self.workdir / "gate_scores.csv", self.workdir / "gate_report.csv"
        batch = self.fit_diagnose(obs, truth, scores, report)
        scores_match, scores_identical = csv_matches(scores, REFERENCE / "cli_scores.csv")
        report_match, report_identical = csv_matches(report, REFERENCE / "cli_report.csv")
        return (
            {"exit_0_and_every_lin_row": batch.failed == 0,
             "reference_scores_match": scores_match,
             "reference_report_match": report_match},
            {"reference_scores_bytes_identical": scores_identical,
             "reference_report_bytes_identical": report_identical},
        )


WORKLOADS = {w.name: w for w in (AoStudy, CliFitDiagnose)}
