"""One workload in its own process: set-up, timed or traced run, gates.

Started by ``run.py``; not meant to be called by hand.  BLAS threads are
pinned to 1 through the environment before numpy is imported, so the
process and any pool workers it forks use at most one core each.  The
result is written as JSON to ``--result``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
# the timed loop keeps going past --seconds until p90 has enough samples,
# but never past this
MAX_MEASURE_S = 140.0


def import_library() -> None:
    """Import perturbopt from the checkout's ``src/``, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import perturbopt

    if Path(perturbopt.__file__).resolve().parent != SRC / "perturbopt":
        raise SystemExit(f"perturbopt imported from {perturbopt.__file__}, not from {SRC}")


def _blas_threads():
    """Threads the loaded OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_facts() -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": _blas_threads(),
    }


def _timing_metrics(latencies: list[float], wall: float) -> dict:
    from stats import p90

    ms = [1e3 * t for t in latencies]
    return {"reps_per_s": len(latencies) / wall, "rep_p50_ms": statistics.median(ms),
            "rep_p90_ms": p90(ms)}


def measure(workload, seconds: float) -> dict:
    """Batches until ``seconds`` have passed, each timed raw and scaled.

    A calibration unit runs before the first batch and after each one; a
    batch's times are scaled by the mean of the units on either side of it.
    """
    from calibration import scale, unit_s
    from stats import MIN_OPS_FOR_P90

    latencies, failed, wall, output_ok = [], 0, 0.0, True
    raw_latencies, raw_wall = [], 0.0
    start = time.perf_counter()
    before = unit_s()
    index = 0
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(latencies) >= MIN_OPS_FOR_P90:
            break
        if elapsed >= MAX_MEASURE_S:
            break
        batch = workload.batch(index)
        after = unit_s()
        factor = scale((before + after) / 2)
        before = after
        latencies += [t * factor for t in batch.latencies]
        wall += batch.wall * factor
        raw_latencies += batch.latencies
        raw_wall += batch.wall
        failed += batch.failed
        output_ok &= batch.output_ok
        index += 1
    metrics = _timing_metrics(latencies, wall)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "attempted": len(latencies),
        "failed": failed,
        "output_ok": output_ok,
        "metrics": metrics,
        "raw_metrics": _timing_metrics(raw_latencies, raw_wall),
    }


def _totals(batches) -> tuple[int, int, float, bool]:
    """Operations, failed operations, wall seconds and output check of some batches."""
    return (
        sum(b.ops for b in batches),
        sum(b.failed for b in batches),
        sum(b.wall for b in batches),
        all(b.output_ok for b in batches),
    )


def traced_run(workload, spans_out: str | None) -> dict:
    """The workload's fixed batches, each run untraced and traced.

    The two runs of a batch swap order on odd batches, so that neither one
    always goes first.  On a pooled workload the replications of all batches
    then go through ``run_ao_study``'s process pool as one study, untraced,
    since spans of pool workers are not collected.
    """
    from tracing import NEWTON, SPAN_NAMES, Tracer, layer_table
    from workloads import AO_CHUNK, ao_config, chunk_seed

    tracer = Tracer()
    plain, traced, pooled = [], [], []
    for index in range(workload.trace_batches):
        for traced_now in (index % 2 == 1, index % 2 == 0):
            if traced_now:
                with tracer:
                    traced.append(workload.batch(index))
            else:
                plain.append(workload.batch(index))
    if workload.pooled:
        cfg = ao_config(chunk_seed(workload.seed, 0), reps=workload.trace_batches * AO_CHUNK)
        pooled = [workload.pool_study(cfg, workload.workdir / "ao_pool.csv")]
    ops, _, plain_wall, _ = _totals(plain)
    traced_ops, _, traced_wall, _ = _totals(traced)
    pool_ops, _, pool_wall, _ = _totals(pooled)
    attempted, failed, _, output_ok = _totals(plain + traced + pooled)

    table = layer_table(tracer.spans)
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.calls"] = table[name]["calls"] / traced_ops
        metrics[f"{name}.self_ms"] = 1e3 * table[name]["self_s"] / traced_ops
        metrics[f"{name}.total_ms"] = 1e3 * table[name]["total_s"] / traced_ops
    metrics[f"{NEWTON}.iterations"] = tracer.newton_iterations / traced_ops
    metrics[f"{NEWTON}.not_converged"] = tracer.newton_not_converged / traced_ops
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    serial_rps = ops / plain_wall
    pool_rps = pool_ops / pool_wall if pooled else 0.0
    workers = workload.workers if pooled else 0
    metrics.update({
        "experiments.pool.efficiency": pool_rps / (workers * serial_rps) if pooled else 0.0,
        "experiments.pool.reps_per_s": pool_rps,
        "experiments.pool.serial_reps_per_s": serial_rps if pooled else 0.0,
        "experiments.pool.workers": float(workers),
    })
    notes = [f"per-layer values are per operation over {traced_ops} traced operations"]
    notes.append(
        f"pool: one run_ao_study of {pool_ops} replications with {workers} workers, "
        f"against the {ops} untraced ones in one process" if pooled
        else "pool metrics are measured on ao-study only and read 0 here")
    if spans_out:
        with open(spans_out, "w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps([s.sid, s.parent, s.name, s.start, s.end]) + "\n")
    return {"attempted": attempted, "failed": failed, "output_ok": output_ok,
            "metrics": metrics, "notes": notes}


def write_reference(workdir: Path) -> None:
    """Regenerate ``reference/`` from the current library at the gate seed."""
    import workloads as wl

    ao = wl.AoStudy(wl.GATE_SEED, workdir)
    ao.run_study(wl.ao_config(wl.GATE_SEED, reps=ao.gate_reps), workdir / ao.reference)
    shutil.copyfile(workdir / ao.reference, wl.REFERENCE / ao.reference)
    cli = wl.CliFitDiagnose(wl.GATE_SEED, workdir)
    obs, truth = cli.write_inputs(wl.GATE_SEED, 0)
    cli.fit_diagnose(obs, truth, workdir / "cli_scores.csv", workdir / "cli_report.csv")
    for name in ("cli_scores.csv", "cli_report.csv"):
        shutil.copyfile(workdir / name, wl.REFERENCE / name)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("measure", "setup", "reference"), default="measure",
                        help="reference: rewrite reference/ from the current library")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--result")
    parser.add_argument("--spans", default=None, help="write the traced spans here (JSON lines)")
    args = parser.parse_args(argv)
    needed = ("workload", "seed", "seconds", "t0", "result")
    if args.mode != "reference" and any(getattr(args, k) is None for k in needed):
        parser.error(f"--mode {args.mode} needs --{', --'.join(needed)}")

    import_library()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    if args.mode == "reference":
        write_reference(workdir)
        return 0

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    workload.setup()
    setup_s = time.monotonic() - args.t0
    from calibration import current_scale

    result = {"setup_s": setup_s * current_scale(), "raw_setup_s": setup_s}
    if args.mode == "measure":
        if args.trace == 0:
            result.update(measure(workload, args.seconds))
        else:
            result.update(traced_run(workload, args.spans))
        checks, facts = workload.gate()
        result.update(checks=checks, facts=facts, machine=machine_facts())
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
