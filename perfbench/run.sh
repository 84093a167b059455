#!/usr/bin/env bash
# Build acs-serve and the benchmark from source, then run one workload:
#
#   bash perfbench/run.sh --workload serve-hot|serve-cold|sweep --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the run's JSON result. Artefacts (span files) land
# under $CARGO_TARGET_DIR/perfbench-out.
set -euo pipefail

root="$(pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$CARGO_TARGET_DIR" in
    /*) ;;
    *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;;
esac

cargo build --release --offline --locked --quiet --manifest-path "$root/Cargo.toml" -p acs-serve --bin acs-serve >&2
cargo build --release --offline --locked --quiet --manifest-path "$root/perfbench/Cargo.toml" >&2

exec "$CARGO_TARGET_DIR/release/perfbench" "$@" \
    --server "$CARGO_TARGET_DIR/release/acs-serve" \
    --out "$CARGO_TARGET_DIR/perfbench-out"
