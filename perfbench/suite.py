"""Run every workload over several seeds, or compare two such result sets.

    python3 perfbench/suite.py run --out bench-results/parent --seeds 1-10
    python3 perfbench/suite.py compare bench-results/parent bench-results/change

``run`` calls ``run.py`` once per (seed, workload) with ``--trace 0``, then
makes the traced runs, and appends each run's full result to
``OUT/results.jsonl`` (spans of traced runs go to ``OUT/spans-*.jsonl``).
It prints, per workload and end-to-end metric, the median, the quartiles and
the spread against the metric's bound, and the per-layer table.

``compare`` pairs the runs of two result sets by workload and seed and
gives a verdict per (workload, end-to-end metric) by the rule in
``stats.verdict``; it also compares ``failed_frac``.  An improvement does
not count on a workload where more operations failed than in the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import quartiles, spread, verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_one(workload: str, seed: int, seconds: int, trace: int, spans: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited with code {proc.returncode}")
    line = next(x for x in proc.stdout.splitlines() if x.startswith("result: "))
    return dict(json.loads(line[len("result: "):]), wall_s=time.monotonic() - start)


def load_results(directory: Path) -> list[dict]:
    with open(directory / "results.jsonl") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def end_to_end_table(results: list[dict], spec: dict) -> None:
    print(f"{'workload':18} {'metric':12} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  runs")
    for w in spec["workloads"]:
        runs = [r for r in results if r["workload"] == w["name"] and r["trace"] == 0]
        if not runs:
            continue
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, q2, q3 = quartiles(values)
            flag = "" if spread(values) <= m["bound"] / 3 else "  spread above bound/3"
            print(f"{w['name']:18} {m['name']:12} {q2:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread(values):7.3f} {m['bound']:6.2f}  {len(values)}{flag}")
        failed = sum(r["failed"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        bad = [r["seed"] for r in runs if not r["correct"]]
        walls = [r["wall_s"] for r in runs if "wall_s" in r]
        print(f"{w['name']:18} failed_frac {failed / attempted:.6g} ({failed} of {attempted}); "
              f"incorrect seeds: {bad or 'none'}"
              + (f"; run wall {statistics.median(walls):.1f} s (max {max(walls):.1f})"
                 if walls else ""))


def per_layer_table(results: list[dict], spec: dict) -> None:
    traced = [r for r in results if r["trace"] == 1]
    for w in spec["workloads"]:
        runs = [r for r in traced if r["workload"] == w["name"]]
        if not runs:
            continue
        print(f"\n{w['name']} (traced, seed {runs[0]['seed']}, {len(runs)} run(s))")
        for note in runs[0]["notes"]:
            print(f"  note: {note}")
        for m in spec["per_layer"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            if any(values):
                print(f"  {m['name']:48} {statistics.median(values):12.6g} {m['unit']}")
        counts = [{k: v["value"] for k, v in r["metrics"].items()
                   if k.endswith((".calls", ".iterations", ".not_converged"))} for r in runs]
        if len(runs) > 1:
            same = all(c == counts[0] for c in counts)
            print(f"  counts repeat exactly across runs: {same}")


def cmd_run(args) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    results = []
    with open(out / "results.jsonl", "a") as fh:
        jobs = [(w, s, 0) for s in parse_seeds(args.seeds) for w in names]
        trace_seed = parse_seeds(args.seeds)[0]
        jobs += [(w, trace_seed, 1) for _ in range(args.trace_runs) for w in names]
        for i, (workload, seed, trace) in enumerate(jobs):
            spans = out / f"spans-{workload}-{seed}-{i}.jsonl" if trace else None
            result = run_one(workload, seed, seconds, trace, spans)
            fh.write(json.dumps(result) + "\n")
            fh.flush()
            results.append(result)
            print(f"[{i + 1}/{len(jobs)}] {workload} seed {seed} trace {trace}: "
                  f"correct={result['correct']}", file=sys.stderr)
    end_to_end_table(results, spec)
    per_layer_table(results, spec)
    return 0


def compare(parent: list[dict], change: list[dict], spec: dict) -> list[tuple]:
    """Rows of (workload, metric, parent median, change median, pairs, verdict)."""
    lengths = {r["seconds"] for r in parent + change if r["trace"] == 0}
    if len(lengths) > 1:
        raise SystemExit(f"runs of different lengths cannot be compared: {sorted(lengths)} s")
    rows = []
    for w in spec["workloads"]:
        p_runs = {r["seed"]: r for r in parent if r["workload"] == w["name"] and r["trace"] == 0}
        c_runs = {r["seed"]: r for r in change if r["workload"] == w["name"] and r["trace"] == 0}
        seeds = sorted(p_runs.keys() & c_runs.keys())
        if not seeds:
            continue
        p_fail = sum(p_runs[s]["failed"] for s in seeds) / sum(p_runs[s]["attempted"] for s in seeds)
        c_fail = sum(c_runs[s]["failed"] for s in seeds) / sum(c_runs[s]["attempted"] for s in seeds)
        more_failures = c_fail > p_fail
        for m in spec["end_to_end"]:
            p = [p_runs[s]["metrics"][m["name"]]["value"] for s in seeds]
            c = [c_runs[s]["metrics"][m["name"]]["value"] for s in seeds]
            v = verdict(p, c, m["better"], m["bound"])
            if v == "improved" and more_failures:
                v = "unresolved (more failures)"
            rows.append((w["name"], m["name"], statistics.median(p), statistics.median(c),
                         len(seeds), v))
        rows.append((w["name"], "failed_frac", p_fail, c_fail, len(seeds),
                     "regressed" if more_failures else "within bound"))
    return rows


def cmd_compare(args) -> int:
    spec = load_spec()
    rows = compare(load_results(Path(args.parent)), load_results(Path(args.change)), spec)
    print(f"{'workload':18} {'metric':12} {'parent':>12} {'change':>12} pairs  verdict")
    for workload, metric, p, c, n, v in rows:
        print(f"{workload:18} {metric:12} {p:12.6g} {c:12.6g} {n:5}  {v}")
    return 1 if any(r[-1] == "regressed" for r in rows) else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run the workloads and store a result set")
    p_run.add_argument("--out", required=True, help="result-set directory")
    p_run.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p_run.add_argument("--trace-runs", type=int, default=1,
                       help="traced runs per workload at the first seed")
    p_cmp = sub.add_parser("compare", help="verdicts of a change against its parent")
    p_cmp.add_argument("parent")
    p_cmp.add_argument("change")
    args = parser.parse_args(argv)
    return cmd_run(args) if args.command == "run" else cmd_compare(args)


if __name__ == "__main__":
    sys.exit(main())
