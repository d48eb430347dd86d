"""perturbopt benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload ao-study --seed 3 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Workloads and metrics are listed in ``BENCHMARK.json``.  Each workload runs
in a process of its own (``worker.py``) so that set-up time and peak memory
belong to it.  ``--trace 0`` reports the end-to-end metrics: set-up is also done
``SETUP_EXTRA`` times in fresh processes, half before the timed run and half
after it, so the samples span the run, and ``setup_s`` is their median.
Times are scaled to a nominal machine speed (``calibration.py``); the
unscaled values are printed and stored alongside.  ``--trace 1`` reports the per-layer metrics from a separate traced run.
Every run also checks the library's outputs against the stored reference.

Standard output ends with one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The line before it, starting ``result:``, holds
the whole result: machine facts, gate checks and ``failed_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# fresh set-ups besides the measuring process's own, split before/after it
SETUP_EXTRA = 6
# a run must end within 180 s; children get what is left of this
DEADLINE_S = 170.0


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_child(args, mode: str, workdir: Path, result: Path, deadline: float,
              spans: str | None = None) -> dict:
    """Run ``worker.py`` in its own session; kill the whole group on timeout."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode, "--workdir", str(workdir),
           "--result", str(result), "--t0", repr(time.monotonic())]
    if spans:
        cmd += ["--spans", spans]
    proc = subprocess.Popen(cmd, stdout=sys.stderr, start_new_session=True)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"{args.workload}: {mode} run did not finish in time")
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if code != 0:
        raise SystemExit(f"{args.workload}: {mode} run exited with code {code}")
    with open(result) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None,
                        help="with --trace 1, write the spans here as JSON lines")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "perturbopt" / "__init__.py").is_file():
        print(f"error: no perturbopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: need --seed >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = start + DEADLINE_S
    scratch = ROOT / ".perfbench_work"
    workdir = scratch / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)

    def setup_samples(count: int) -> list[dict]:
        return [run_child(args, "setup", workdir, workdir / f"setup{i}.json", deadline)
                for i in range(0 if args.trace else count)]

    try:
        samples = setup_samples(SETUP_EXTRA // 2)
        result = run_child(args, "measure", workdir, workdir / "result.json", deadline,
                           spans=args.spans)
        samples.append(result)
        samples += setup_samples(SETUP_EXTRA - SETUP_EXTRA // 2)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if scratch.is_dir() and not any(scratch.iterdir()):
            scratch.rmdir()
    setups = [s["setup_s"] for s in samples]
    values = dict(result["metrics"], setup_s=statistics.median(setups))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: the run gave no value for {missing}", file=sys.stderr)
        return 1

    correct = result["output_ok"] and all(result["checks"].values())
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct, "attempted": result["attempted"],
        "failed": result["failed"], "failed_frac": result["failed"] / result["attempted"],
        "setup_samples_s": setups, "raw_setup_samples_s": [s["raw_setup_s"] for s in samples],
        "raw_metrics": result.get("raw_metrics", {}), "checks": result["checks"], "facts": result["facts"],
        "machine": result["machine"], "notes": result.get("notes", []),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    for name, metric in full["metrics"].items():
        print(f"{args.workload}: {name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in full["raw_metrics"].items():
        print(f"{args.workload}: unscaled {name} = {value:.6g}")
    if not args.trace:
        print(f"{args.workload}: unscaled setup_s = "
              f"{statistics.median(full['raw_setup_samples_s']):.6g}")
    print(f"{args.workload}: failed_frac = {full['failed_frac']:.6g} "
          f"({full['failed']} of {full['attempted']})")
    for name, ok in full["checks"].items():
        print(f"{args.workload}: check {name}: {'ok' if ok else 'FAILED'}")
    for note in full["notes"]:
        print(f"{args.workload}: note: {note}")
    print("result: " + json.dumps(full))
    print(json.dumps({key: full[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
