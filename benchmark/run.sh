#!/usr/bin/env bash
# The benchmark of record: builds offline in release, then runs.
#
#   benchmark/run.sh                      every workload, every end-to-end metric
#   benchmark/run.sh --trace              the traced run: per-layer metrics, budget tables, span files
#   benchmark/run.sh --compare A.json B.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1    one workload (the driver's form)
#
# Builds into $CARGO_TARGET_DIR when set, else benchmark/target.
set -euo pipefail
cd "$(dirname "$0")/.."
target="${CARGO_TARGET_DIR:-benchmark/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet \
    --manifest-path benchmark/Cargo.toml
# Pin glibc's mmap threshold at its default, which also switches its dynamic
# adjustment off: every rep's large allocations then come fresh from the
# kernel and go back to it, as they would in a process that builds one
# fabric. Left dynamic, glibc keeps or returns freed memory depending on
# free order, and setup_s flips between two modes 2x apart from run to run.
export MALLOC_MMAP_THRESHOLD_=131072
exec "$target/release/an2-benchmark" "$@"
