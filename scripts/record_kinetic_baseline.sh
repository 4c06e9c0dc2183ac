#!/usr/bin/env bash
# Records the kinetic-EMST benchmark baseline: builds the release preset,
# runs the kinetic-vs-batch trace sweep (bench/perf_kinetic), and writes the
# JSON to results/BENCH_kinetic.json. The bench exits nonzero if the kinetic
# engine's per-step trees ever diverge bitwise from the batch re-solve, so a
# recorded baseline is also a value-identity certificate for the machine
# that produced it.
#
# Usage: scripts/record_kinetic_baseline.sh [extra perf_kinetic flags...]
set -euo pipefail

cd "$(dirname "$0")/.."

. scripts/record_baseline_lib.sh
record_baseline perf_kinetic results/BENCH_kinetic.json "$@"
