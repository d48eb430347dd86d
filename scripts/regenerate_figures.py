#!/usr/bin/env python3
"""Regenerate the desk-scale figure data: three seeded studies emitting CSV.

Outputs (written under --outdir, default ./results):
  rho_study.csv        per-replication scaled cross-curvature values vs n
  expansion_study.csv  leading-term / remainder split of the fitted-score error
  ao_study.csv         alternating-run contraction norms, measured rates, certificates

Each study is one ``perturbopt study-<name>`` command, run in this process.
Dense eigendecompositions dominate beyond n ~ 500; larger item counts work but
are not part of the default sweep.
"""

import argparse
import pathlib
import sys
import time

from perturbopt.cli import dispatch
from perturbopt.experiments import ExperimentConfig


def main() -> int:
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

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    t0 = time.time()
    studies = {  # each study's item counts, reps, seed offset and own flags
        "rho": (args.n_list, args.reps, 0, []),
        "expansion": (str(args.expansion_n), args.expansion_reps, 10, []),
        "ao": ("20", args.reps, 20, ["--L", "3", "--gsq", "5"]),
    }
    for name, (n_list, reps, seed_offset, flags) in studies.items():
        code = dispatch([f"study-{name}", "--n-list", n_list, "--reps", str(reps),
                         "--seed", str(args.seed + seed_offset), "--threads", str(args.threads),
                         "--out", str(outdir / f"{name}_study.csv"), *flags])
        if code:
            return code
    print(f"done in {time.time() - t0:.1f} s; CSV files in {outdir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
