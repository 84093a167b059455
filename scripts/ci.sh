#!/usr/bin/env bash
# Tier-1 verification: offline release build, full test suite, and the
# fault-injection robustness suite. Mirrors what the driver runs.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release --locked"
cargo build --release --locked --offline

echo "==> cargo test -q --locked"
cargo test -q --locked --offline

echo "==> every workspace crate's unit and integration tests"
cargo test -q --workspace --locked --offline

echo "==> fault-injection suite"
cargo test -q --locked --offline --test fault_injection

echo "==> sweep-engine golden equivalence (run_report, run_configs and run_report_resumable vs the reference oracle)"
cargo test -q --release --locked --offline --test lattice_equivalence --test plan_equivalence --test factored_equivalence

echo "==> what-if corner-pinning prune (counter-proven skip, byte-identical records)"
cargo test -q --release --locked --offline --test whatif_prune

echo "==> verification harness (golden corpus, seeded fuzz, socket chaos)"
# Golden-corpus diff: the blessed sweep digests, the 64-variant what-if
# rule-grid digest, and the paper anchors in
# crates/verify/corpus/golden.json must be bit-identical to a fresh
# evaluation. The differential suite includes the whatif batch-vs-naive
# ledger case. Then a fixed-seed structured fuzz pass (10k mutations over
# the HTTP surface — /v1/whatif rule grids included — and the JSON/CSV
# codecs, plus the checked-in regression corpus; HTTP inputs also arrive
# in seeded 1-5-byte chunks, and every re-parse of the accumulated buffer
# must frame exactly as the whole buffer does) and one socket-fault chaos
# round against a live server, all of which must end with zero findings
# and a healthy server. The diff suite includes the serve-tier oracle
# wire_vs_handler: a live server's answers to one replayed corpus must
# equal, byte for byte, the in-process handler's on a fresh state.
cargo run -q --release --locked --offline -p acs-verify --bin acs-verify -- corpus
cargo run -q --release --locked --offline -p acs-verify --bin acs-verify -- diff
cargo run -q --release --locked --offline -p acs-verify --bin acs-verify -- fuzz --iters 10000 --seed 1
cargo run -q --release --locked --offline -p acs-verify --bin acs-verify -- chaos --rounds 1 --seed 1

echo "==> checked-in results match what acs-repro writes"
# Every paper artefact and extension CSV, regenerated into a temp dir,
# must equal results/ byte for byte.
resultsdir=$(mktemp -d)
ACS_RESULTS_DIR="$resultsdir" cargo run -q --release --locked --offline -p acs-repro -- all >/dev/null
ACS_RESULTS_DIR="$resultsdir" cargo run -q --release --locked --offline -p acs-repro -- ext >/dev/null
diff -r "$resultsdir" results
rm -rf "$resultsdir"
echo "ok"

echo "==> quickstart example"
cargo run -q --release --locked --offline --example quickstart >/dev/null
echo "ok"

echo "==> serve loopback smoke test"
# Boot the real binary with a fifo as its stdin (the signal pipe), find
# the ephemeral port from its startup log, run the end-to-end client
# against it — which asserts a /v1/simulate raw-cache hit and a chunked
# /v1/whatif rule-grid stream (with its cache hit) via /v1/metrics —
# then stop it with a graceful 'shutdown' line and require a clean exit.
smokedir=$(mktemp -d)
trap 'rm -rf "$smokedir"' EXIT
mkfifo "$smokedir/ctl"
cargo run -q --release --locked --offline -p acs-serve --bin acs-serve \
    > "$smokedir/serve.log" 2>&1 < "$smokedir/ctl" &
serve_pid=$!
exec 3> "$smokedir/ctl"   # hold the pipe open so stdin stays live
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's#.*listening on http://##p' "$smokedir/serve.log" | head -n 1)
    [ -n "$addr" ] && break
    kill -0 "$serve_pid" 2>/dev/null || { cat "$smokedir/serve.log"; exit 1; }
    sleep 0.1
done
[ -n "$addr" ] || { echo "server never reported its address"; cat "$smokedir/serve.log"; exit 1; }
cargo run -q --release --locked --offline --example serve_client -- --addr "$addr"
echo "shutdown" >&3
exec 3>&-
wait "$serve_pid" || { echo "server exited uncleanly"; cat "$smokedir/serve.log"; exit 1; }
echo "ok (served on $addr, graceful shutdown)"

echo "==> loadgen throughput floor (unique /v1/simulate >= 2000 QPS, no failures)"
cargo run -q --release --locked --offline -p acs-serve --bin acs-serve -- \
    --loadgen --mode compare --requests 60 --connections 4 --min-unique-qps 2000

echo "==> profiled smoke bench (includes the <5% telemetry-overhead assertion)"
ACS_BENCH_DIR="$smokedir" scripts/bench-smoke.sh

echo "==> bench artefact schema validation (acs-bench-v1, fresh run_report >= 250k points/s, warm >= 1.5M points/s, what-if >= 3500 variants/s, serve >= 50k/2k qps)"
cargo run -q --release --locked --offline --example bench_validate -- \
    --min-dse-points-per-sec 250000 \
    --min-lattice-points-per-sec 1500000 \
    --min-whatif-variants-per-sec 3500 \
    --min-serve-cached-qps 50000 \
    --min-serve-unique-qps 2000 \
    "$smokedir/BENCH_dse.json" "$smokedir/BENCH_serve.json" "$smokedir/BENCH_whatif.json" \
    "$smokedir/BENCH_scenarios.json" "$smokedir/BENCH_lattice.json"

echo "==> profiled DSE trace determinism (identical structure across runs)"
# Two identical profiled runs must serialise to traces that differ only
# in timing-valued fields; structure (span IDs/ordering, instrument names
# and counts) is asserted inside tests/telemetry.rs, so here we only
# check the CLI end of the contract: both runs exit cleanly and emit the
# same number and sequence of line types.
ACS_RESULTS_DIR="$smokedir" cargo run -q --release --locked --offline -p acs-dse --bin acs-dse -- \
    --sweep table3-fig6 --limit 12 --profile --trace "$smokedir/trace_a.jsonl" >/dev/null
ACS_RESULTS_DIR="$smokedir" cargo run -q --release --locked --offline -p acs-dse --bin acs-dse -- \
    --sweep table3-fig6 --limit 12 --profile --trace "$smokedir/trace_b.jsonl" >/dev/null
shape_a=$(grep -o '"type":"[a-z_]*"' "$smokedir/trace_a.jsonl")
shape_b=$(grep -o '"type":"[a-z_]*"' "$smokedir/trace_b.jsonl")
[ "$shape_a" = "$shape_b" ] || { echo "profiled trace structure differs between runs"; exit 1; }
echo "ok ($(wc -l < "$smokedir/trace_a.jsonl") trace lines, identical structure)"

echo "==> error-handling policy grep (non-test library code must be clean)"
# Hits are allowed only inside #[cfg(test)] modules and comments; this
# mechanical pass fails if any file's pre-test-module region contains a
# panic site in live code.
fail=0
files=$(grep -rl "unwrap()\|expect(\|panic!" crates/hw/src crates/sim/src crates/dse/src crates/devices/src crates/llm/src crates/cache/src crates/serve/src crates/telemetry/src crates/whatif/src crates/scenarios/src 2>/dev/null || true)
for f in $files; do
    cut=$(awk '/#\[cfg\(test\)\]/{print NR; exit}' "$f")
    [ -z "$cut" ] && cut=$(($(wc -l < "$f") + 1))
    hits=$(head -n $((cut - 1)) "$f" | grep -n "unwrap()\|expect(\|panic!" | grep -v '^[0-9]*:[[:space:]]*//' || true)
    if [ -n "$hits" ]; then
        echo "panic site outside test module in $f:"
        echo "$hits"
        fail=1
    fi
done
[ "$fail" -eq 0 ] && echo "clean"
exit "$fail"
