#!/usr/bin/env bash
# Builds the benchmark (a cargo package of its own, offline) and runs it.
#
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1   one run
#   benchmark/run.sh [--seed S] [--trace] [--smoke]                  all four
#   benchmark/run.sh --calibrate N                                   bounds
#   benchmark/run.sh compare A.json B.json                           verdicts
#
# See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# Under the root's ignored target/ unless the caller chose a place.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target/benchmark}"

# The build's own output goes to stderr: stdout is the benchmark's.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$CARGO_TARGET_DIR/release/polystyrene-benchmark" \
    --root "$root" --out "$here/out" "$@"
