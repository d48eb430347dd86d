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
from perturbopt.experiments import STUDIES, ExperimentConfig, emit, run_study


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
    configs = {  # each study's config; its records go to <study>_study.csv
        "rho": config(n_list, 0),
        "expansion": config((args.expansion_n,), 10, reps=args.expansion_reps),
        "ao": config((20,), 20, L=3, gsq=5.0),
    }
    for name, cfg in configs.items():
        records = run_study(STUDIES[name], cfg, threads=args.threads)
        emit(records, "csv", outdir / f"{name}_study.csv", config=cfg)
        for line in STUDIES[name].summary(records):
            print(line)
    print(f"done in {time.time() - t0:.1f} s; CSV files in {outdir}/")


if __name__ == "__main__":
    main()
