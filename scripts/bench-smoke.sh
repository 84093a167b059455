#!/usr/bin/env bash
# Run the dependency-free smoke benchmark (tests/bench_smoke.rs).
#
# Times the hot paths with the std-only harness. Numbers are indicative,
# not publishable — the assertions only catch order-of-magnitude
# regressions (plus the telemetry-overhead budget, which is a real
# contract). The repository benchmark, with end-to-end and per-layer
# metrics, is perfbench/ (see perfbench/README.md).
#
# Writes BENCH_dse.json, BENCH_lattice.json, BENCH_scenarios.json,
# BENCH_serve.json, and BENCH_whatif.json (schema acs-bench-v1) to the
# repo root, or to $ACS_BENCH_DIR when set.
# Single-threaded so the benches never time each other's noise.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo test --release --offline --test bench_smoke -- --ignored --nocapture --test-threads=1
