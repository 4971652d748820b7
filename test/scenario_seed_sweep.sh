#!/bin/sh
# Seed sweep of both scenario corpora.  Runs `pfi_run check --json` at
# --seed 1..SEEDS over test/scenarios/*.pfis and over the corpus that
# `pfi_run gen` expands from test/matrix/registry_demo.pfim, and prints
# how many seeds each scenario file reached each outcome at.  CI diffs
# the table against test/golden/scenario_seed_rates.expected.
#
# usage (from the repo root):
#   sh test/scenario_seed_sweep.sh PFI_RUN CORPUS_DIR [SEEDS]
set -eu
run=$1
corpus=$2
seeds=${3:-200}
"$run" gen test/matrix/registry_demo.pfim -o "$corpus" > /dev/null
echo "# scenario outcome seeds (of $seeds)"
for s in $(seq 1 "$seeds"); do
  # a FAIL or XPASS exits 1; the sweep counts it instead
  "$run" check test/scenarios/*.pfis --seed "$s" --json || true
  "$run" check "$corpus"/*.pfis --seed "$s" --json || true
done | awk '
  /^  "file": / { f = $2; gsub(/[",]/, "", f); sub(/.*\//, "", f); sub(/\.pfis$/, "", f) }
  /^  "outcome": / { o = $2; gsub(/[",]/, "", o); n[f " " o]++ }
  END { for (k in n) print k, n[k] }' | LC_ALL=C sort
