#!/usr/bin/env python3
"""Regenerate the desk-scale figure data: three seeded studies emitting CSV.

Outputs (written under --outdir, default ./results):
  rho_study.csv        per-replication scaled cross-curvature values vs n
  expansion_study.csv  leading-term / remainder split of the fitted-score error
  ao_study.csv         alternating-run contraction norms, measured rates, certificates

Dense eigendecompositions dominate beyond n ~ 500; larger item counts work but
are not part of the default sweep.
"""

import argparse
import pathlib
import time

from perturbopt.cli import _keep_freed_heap
from perturbopt.experiments import (
    ExperimentConfig,
    emit,
    run_ao_study,
    run_expansion_study,
    run_rho_study,
    summarize_by_n,
)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--outdir", default="results")
    parser.add_argument("--seed", type=int, default=ExperimentConfig.seed)
    parser.add_argument("--reps", type=int, default=ExperimentConfig.reps)
    parser.add_argument("--n-list", default="100,200,500",
                        help="item counts for the rho study sweep")
    parser.add_argument("--expansion-n", type=int, default=100)
    parser.add_argument("--expansion-reps", type=int, default=50)
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()
    _keep_freed_heap()  # this script owns its process, as the console script does

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    n_list = tuple(int(v) for v in args.n_list.split(","))

    def config(items, seed_offset, reps=args.reps, **knobs) -> ExperimentConfig:
        """A study's config: the library's defaults but for the given knobs."""
        return ExperimentConfig(n_list=items, reps=reps, seed=args.seed + seed_offset, **knobs)

    t0 = time.time()
    rho_cfg = config(n_list, 0)
    rho_records = run_rho_study(rho_cfg, threads=args.threads)
    emit(rho_records, "csv", outdir / "rho_study.csv", config=rho_cfg)
    for n, stats in summarize_by_n(rho_records, "rho_dual_l2",
                                   keep=lambda r: r["connected"]).items():
        print(f"rho study n={n}: mean={stats['mean']:.6g} "
              f"+/- 3sd={3 * stats['std']:.2g} (count {stats['count']})")

    exp_cfg = config((args.expansion_n,), 10, reps=args.expansion_reps)
    exp_records = run_expansion_study(exp_cfg, threads=args.threads)
    emit(exp_records, "csv", outdir / "expansion_study.csv", config=exp_cfg)
    lead = summarize_by_n(exp_records, "lead_fish", keep=lambda r: r["converged"])
    rem = summarize_by_n(exp_records, "rem_fish", keep=lambda r: r["converged"])
    for n in lead:
        print(f"expansion study n={n}: leading mean={lead[n]['mean']:.4g} "
              f"remainder mean={rem[n]['mean']:.4g}")

    ao_cfg = config((20,), 20, L=3, gsq=5.0)
    ao_records = run_ao_study(ao_cfg, threads=args.threads)
    emit(ao_records, "csv", outdir / "ao_study.csv", config=ao_cfg)
    certified = sum(r["cert_ok"] for r in ao_records)
    print(f"ao study: certificate holds on {certified}/{len(ao_records)} replications")
    print(f"done in {time.time() - t0:.1f} s; CSV files in {outdir}/")


if __name__ == "__main__":
    main()
