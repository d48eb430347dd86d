#!/usr/bin/env bash
# Write the outputs of one source tree, or compare two trees' outputs byte for byte.
#
#   scripts/compare_outputs.sh inputs
#   scripts/compare_outputs.sh write TREE OUT
#   scripts/compare_outputs.sh compare BASE_OUT HEAD_OUT
#
# `inputs` writes the observation and score files the outputs are made from into the
# current directory, with the perturbopt that `python` imports.  `write` runs the
# figure script and the CLI commands below with the sources of the checkout TREE
# (TREE/src and TREE/scripts), reading those files from the current directory, and
# writes every output under OUT.  `compare` lists the outputs whose bytes differ
# between two OUT directories and exits 1 if there is one.  To compare a change with
# its parent commit, check the parent out elsewhere (`git worktree add --detach
# ../base HEAD~1`) and run, from an empty directory, with PYTHONPATH naming the
# change's src:
#
#   compare=/path/to/repo/scripts/compare_outputs.sh
#   "$compare" inputs
#   "$compare" write ../base out-base && "$compare" write /path/to/repo out-head
#   "$compare" compare out-base out-head
set -euo pipefail

# every output `write` makes, as `compare` reads it
OUTPUTS=(
  rho_study.csv expansion_study.csv ao_study.csv rho_study.csv.meta.json
  expansion_study.csv.meta.json ao_study.csv.meta.json fit-newton.csv fit-mm.csv
  diagnose.csv diagnose.csv.meta.json fit-300-newton.csv fit-300-mm.csv
  diagnose-300.csv diagnose-300.csv.meta.json fit-ridge.csv diagnose-ridge.csv
  diagnose-ridge.csv.meta.json fit-unbeaten.csv fit-unbeaten.out
  ao-trace-20.csv ao-trace-30.csv ao-trace-50.csv
  study-rho.csv study-rho.out study-expansion.csv study-expansion.out
  study-expansion-sparse.csv study-expansion-sparse.out
  study-ao.csv study-ao.out study-ao-50.csv study-ao-50.out
  study-ao-ridge.csv study-ao-ridge.out
)

usage() {
  sed -n '4,6p' "$0" | sed 's/^# *//' >&2
  exit 2
}

inputs() {
  # obs.csv, a 40-item design, and its Newton fit newton.csv (the truth for diagnose);
  # one n=300 logcube file of the benchmark's kind (about 27,600 edges, about 180 per
  # item); and an n=30 complete design for the ridge fit and diagnose
  python -c "
import math
import numpy as np
from perturbopt.btl import sample_er_graph, sample_outcomes, write_observations, write_scores
rng = np.random.default_rng(3)
graph = sample_er_graph(40, 0.3, 3, rng)
write_observations('obs.csv', sample_outcomes(graph, rng.uniform(-1, 1, 40), rng))
n = 300
rng = np.random.default_rng(21)
graph = sample_er_graph(n, math.log(n) ** 3 / n, 1, rng)
truth = rng.uniform(0, 2, n)
truth -= truth.mean()
write_observations('obs-300.csv', sample_outcomes(graph, truth, rng))
write_scores('truth-300.csv', truth)
rng = np.random.default_rng(4)
graph = sample_er_graph(30, 1.0, 3, rng)
truth = rng.uniform(0, 2, 30)
truth -= truth.mean()
write_observations('ridge.csv', sample_outcomes(graph, truth, rng))
write_scores('ridge-truth.csv', truth)
"
  python -m perturbopt.cli fit --input obs.csv --solver newton --tol 1e-12 --out newton.csv \
    > /dev/null
  # item 1 wins every game: no finite MLE
  printf 'j,m,N,S\n1,2,3,3\n1,3,3,3\n2,3,3,1\n2,4,3,2\n3,4,3,1\n' > unbeaten.csv
}

write() {
  local tree out
  tree=$(cd "$1" && pwd)
  mkdir -p "$2"
  out=$(cd "$2" && pwd)
  export PYTHONPATH="$tree/src"
  python "$tree/scripts/regenerate_figures.py" --reps 3 --expansion-reps 3 \
    --n-list 50,100 --threads 1 --outdir "$out" > /dev/null
  # the figure sidecars less their creation time
  sed -i '/"created_unix"/d' "$out"/*_study.csv.meta.json
  for solver in newton mm; do
    python -m perturbopt.cli fit --input obs.csv --solver "$solver" \
      --out "$out/fit-$solver.csv" > /dev/null
    python -m perturbopt.cli fit --input obs-300.csv --solver "$solver" \
      --out "$out/fit-300-$solver.csv" > /dev/null
  done
  python -m perturbopt.cli diagnose --input obs.csv --truth newton.csv \
    --out "$out/diagnose.csv" > /dev/null
  python -m perturbopt.cli diagnose --input obs-300.csv --truth truth-300.csv \
    --out "$out/diagnose-300.csv" > /dev/null
  # a ridge fit and diagnose, and a fit of outcomes without a finite MLE
  python -m perturbopt.cli fit --input ridge.csv --penalty ridge --gsq 20 \
    --out "$out/fit-ridge.csv" > /dev/null
  python -m perturbopt.cli diagnose --input ridge.csv --truth ridge-truth.csv \
    --penalty ridge --gsq 20 --out "$out/diagnose-ridge.csv" > /dev/null
  python -m perturbopt.cli fit --input unbeaten.csv --out "$out/fit-unbeaten.csv" \
    > "$out/fit-unbeaten.out"
  # the per-step AO trace: one instance whose certificate holds, one without radii,
  # and the benchmarked ao-study size
  for n in 20 30 50; do
    python -m perturbopt.cli ao --n "$n" --seed 7 --L 3 --gsq 5 \
      --out "$out/ao-trace-$n.csv" > /dev/null
  done
  # each study command, run in $out so that its stdout names the same output path; the
  # rho design at p=0.2 leaves one n=12 replication disconnected, most sparse expansion
  # fits have no finite MLE, and the ridge AO study fits a disconnected design
  (
    cd "$out"
    python -m perturbopt.cli study-rho --n-list 12,30 --p-rule 0.2 --reps 3 --seed 4 \
      --threads 1 --out study-rho.csv > study-rho.out
    python -m perturbopt.cli study-expansion --n-list 15,25 --reps 3 --seed 5 \
      --threads 1 --out study-expansion.csv > study-expansion.out
    python -m perturbopt.cli study-expansion --n-list 8,10 --p-rule 0.5 --reps 20 --seed 2 \
      --threads 1 --out study-expansion-sparse.csv > study-expansion-sparse.out
    python -m perturbopt.cli study-ao --n-list 12,20 --reps 3 --seed 7 --L 3 --gsq 5 \
      --threads 1 --out study-ao.csv > study-ao.out
    python -m perturbopt.cli study-ao --n-list 50 --reps 8 --seed 3 --L 3 --gsq 5 \
      --threads 1 --out study-ao-50.csv > study-ao-50.out
    python -m perturbopt.cli study-ao --n-list 12 --p-rule 0.2 --reps 4 --seed 4 --L 3 \
      --gsq 5 --penalty ridge --threads 1 --out study-ao-ridge.csv > study-ao-ridge.out
  )
}

compare() {
  local differ="" f
  for f in "${OUTPUTS[@]}"; do
    cmp -s "$1/$f" "$2/$f" || differ="$differ $f"
  done
  if [ -n "$differ" ]; then
    echo "::warning::outputs that differ from the base commit's:$differ"
    exit 1
  fi
  echo "every output is byte-identical to the base commit's"
}

[ "$#" -ge 1 ] || usage
case "$1" in
  inputs) [ "$#" -eq 1 ] || usage; inputs ;;
  write) [ "$#" -eq 3 ] || usage; write "$2" "$3" ;;
  compare) [ "$#" -eq 3 ] || usage; compare "$2" "$3" ;;
  *) usage ;;
esac
