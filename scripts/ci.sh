#!/usr/bin/env bash
# Tier-1 gate: formatting, release build, full test suite.
# Run from anywhere; it cds to the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

echo "== cargo build --release"
cargo build --workspace --release

echo "== cargo test (TRIAD_THREADS=1: serial everywhere)"
TRIAD_THREADS=1 cargo test --workspace -q

echo "== cargo test (TRIAD_THREADS=4: same suite through the parallel runtime)"
TRIAD_THREADS=4 cargo test --workspace -q

echo "== stream soak (high-rate replay, kill-and-restore mid-run)"
cargo test --release -q --test stream_soak -- --ignored

echo "== triad bench --smoke (determinism gate: each stage at 1 and 4 threads, both numeric modes)"
BENCH_DIR=$(mktemp -d)
TRACE_DIR=$(mktemp -d)
FAST_DIR=$(mktemp -d)
FLEET_DIR_1=""
FLEET_DIR_4=""
trap 'rm -rf "$BENCH_DIR" "$TRACE_DIR" "$FAST_DIR" "$FLEET_DIR_1" "$FLEET_DIR_4"' EXIT
# The verb exits nonzero if any (stage, mode) checksum changes with the
# thread count, after writing BENCH.json.
cargo run -q --release -p triad-cli --bin triad -- bench --smoke --out-dir "$BENCH_DIR"
[ -s "$BENCH_DIR/BENCH.json" ] || { echo "ERROR: missing BENCH.json" >&2; exit 1; }
echo "   BENCH.json written, checksums thread-count invariant"

echo "== numeric-mode fast lane (tolerance-equivalence gate + evalbed under --numeric-mode fast)"
# The equivalence harness proves fast-mode discords match exact mode on every
# archive anomaly kind (the bench gate above already ran fast mode at 1 and 4
# threads); the evalbed run proves the flag is plumbed end to end — fast mode
# reproduces the *exact-mode* committed evalbed baseline, since voting
# consumes discord positions, never distances.
cargo test --release -q --test numeric_equivalence
cargo run -q --release -p triad-cli --bin triad -- evalbed --smoke \
    --numeric-mode fast --out-dir "$FAST_DIR/evalbed" \
    --check evalbed_out/EVALBED_smoke.json
echo "   fast lane green: equivalence tests, evalbed baseline check"

echo "== triad fleet --smoke (memory-budgeted soak; gates at TRIAD_THREADS=1 and 4)"
# The verb itself sweeps worker-thread counts {1,4} and gates on
# bit-identical outputs, residency <= budget, and >= 1 completed
# drift-triggered refit per run. Running it under two ambient TRIAD_THREADS
# values additionally proves the soak's own scheduling is
# environment-invariant: the gated checksums must agree across both files.
FLEET_DIR_1=$(mktemp -d)
FLEET_DIR_4=$(mktemp -d)
for t in 1 4; do
    eval "dir=\$FLEET_DIR_$t"
    TRIAD_THREADS=$t cargo run -q --release -p triad-cli --bin triad -- \
        fleet --smoke --out-dir "$dir"
    f="$dir/FLEET_soak.json"
    [ -s "$f" ] || { echo "ERROR: missing $f" >&2; exit 1; }
    for key in '"stage":"fleet-soak"' '"streams"' '"budget_bytes"' '"runs"' \
               '"checksum"' '"resident_bytes_max"' '"evictions"' \
               '"rehydrations"' '"drift_events"' '"refits_completed"' \
               '"bit_identical":true' '"residency_ok":true' \
               '"refits_ok":true'; do
        grep -q "$key" "$f" || {
            echo "ERROR: $f missing $key" >&2
            exit 1
        }
    done
done
SOAK_SUM_1=$(grep -o '"checksum":"[0-9a-f]*"' "$FLEET_DIR_1/FLEET_soak.json" | sort -u)
SOAK_SUM_4=$(grep -o '"checksum":"[0-9a-f]*"' "$FLEET_DIR_4/FLEET_soak.json" | sort -u)
[ -n "$SOAK_SUM_1" ] && [ "$SOAK_SUM_1" = "$SOAK_SUM_4" ] || {
    echo "ERROR: fleet soak checksums differ across TRIAD_THREADS envs:" >&2
    echo "  t=1: $SOAK_SUM_1" >&2
    echo "  t=4: $SOAK_SUM_4" >&2
    exit 1
}
echo "   FLEET_soak.json schema-complete, gates green, checksums env-invariant"

echo "== triad trace --smoke (fixed-seed traced workload; exports must validate)"
# The verb itself validates both exports (unique ids, parent links, nesting,
# per-thread monotone timestamps), asserts the five pipeline stages are
# attributed, and requires >= 95% root-span coverage. The shell checks below
# are a redundant schema gate over the written JSONL.
cargo run -q --release -p triad-cli --bin triad -- trace --smoke --out-dir "$TRACE_DIR"
TRACE_FILE="$TRACE_DIR/TRACE.jsonl"
[ -s "$TRACE_FILE" ] || { echo "ERROR: missing $TRACE_FILE" >&2; exit 1; }
[ -s "$TRACE_DIR/TRACE_chrome.json" ] || { echo "ERROR: missing TRACE_chrome.json" >&2; exit 1; }
for key in '"id"' '"parent"' '"tid"' '"name"' '"start_ns"' '"end_ns"'; do
    grep -q "$key" "$TRACE_FILE" || {
        echo "ERROR: $TRACE_FILE missing field $key" >&2
        exit 1
    }
done
for stage in featurize rank narrow discord vote; do
    grep -q "\"name\":\"$stage\"" "$TRACE_FILE" || {
        echo "ERROR: $TRACE_FILE missing pipeline stage $stage" >&2
        exit 1
    }
done
# The stream phase runs through the fleet manager: its shard spans must land.
for span in fleet-open fleet-ingest fleet-score; do
    grep -q "\"name\":\"$span\"" "$TRACE_FILE" || {
        echo "ERROR: $TRACE_FILE missing stream-tier span $span" >&2
        exit 1
    }
done
# Every non-zero parent id must itself appear as a span id (no orphans).
awk -F'"id":' '{ split($2, a, ","); print a[1] }' "$TRACE_FILE" | sort -u > "$TRACE_DIR/ids"
awk -F'"parent":' '{ split($2, a, ","); if (a[1] != "0") print a[1] }' "$TRACE_FILE" \
    | sort -u > "$TRACE_DIR/parents"
ORPHANS=$(comm -13 "$TRACE_DIR/ids" "$TRACE_DIR/parents")
[ -z "$ORPHANS" ] || {
    echo "ERROR: $TRACE_FILE has orphan parent ids: $ORPHANS" >&2
    exit 1
}
echo "   TRACE.jsonl schema-complete, five stages + fleet spans attributed, no orphan parents"

echo "== triad evalbed --smoke (regression gate vs the committed baseline)"
# The gated summary must be byte-stable: same ranking, same metric means
# (within tolerance), same dataset/method sets as the committed baseline —
# at both thread counts. A ranking flip or metric drop fails the build.
for t in 1 4; do
    EVALBED_DIR=$(mktemp -d)
    cargo run -q --release -p triad-cli --bin triad -- evalbed --smoke \
        --out-dir "$EVALBED_DIR" --threads "$t" \
        --check evalbed_out/EVALBED_smoke.json
    rm -rf "$EVALBED_DIR"
done
echo "   evalbed smoke gate PASS at threads 1 and 4"

echo "== triad lint --deny (the workspace must have zero findings)"
cargo run -q --release -p triad-cli --bin triad -- lint --deny

echo "== triad lint --fixture (every rule must fire on the seeded fixtures)"
cargo run -q --release -p triad-cli --bin triad -- lint --fixture

echo "== triad lint --deny on fixtures (must be NONZERO: the rules still bite)"
if cargo run -q --release -p triad-cli --bin triad -- lint --deny --root crates/lint/fixtures >/dev/null; then
    echo "ERROR: lint found nothing on the seeded fixtures" >&2
    exit 1
fi

echo "== stale-suppression gate (a suppression whose rule no longer fires must fail --deny)"
STALE_DIR=$(mktemp -d)
mkdir -p "$STALE_DIR/src"
cat > "$STALE_DIR/src/stale.rs" <<'EOF'
//@ path: crates/core/src/stale.rs
pub fn head(xs: &[u64]) -> u64 {
    // lint-allow(no-unwrap): slice is never empty at this call site
    xs.first().copied().unwrap_or(0)
}
EOF
if cargo run -q --release -p triad-cli --bin triad -- lint --deny --root "$STALE_DIR" >/dev/null; then
    echo "ERROR: stale lint-allow was not flagged" >&2
    rm -rf "$STALE_DIR"
    exit 1
fi
rm -rf "$STALE_DIR"
echo "   stale suppression correctly rejected"

echo "CI green."
