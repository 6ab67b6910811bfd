#!/usr/bin/env bash
# Repo-wide hygiene gate: formatting, lints, tests. Run before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy (workspace, deny warnings) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo test (workspace) =="
# Includes the hot-path golden and the all-probes zero-interference leg
# (crates/bench/tests/golden.rs).
cargo test -q --workspace

echo "== cargo doc (no deps, deny warnings) =="
# Our crates only: vendored dev stubs (vendor/*) are not held to our
# rustdoc standards.
DOC_FLAGS=(-p ezflow)
for d in crates/*/; do DOC_FLAGS+=(-p "ezflow-$(basename "$d")"); done
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet "${DOC_FLAGS[@]}"

echo "== parallel sweep smoke (seeds, --quick --jobs=2) =="
cargo run --release -q -p ezflow-bench --bin experiments -- --quick --jobs=2 seeds >/dev/null

echo "== scheduler equivalence proptests (wheel vs heap oracle) =="
# Randomized schedule/reschedule/remove workloads must pop identically
# from the calendar queue and a plain binary heap (exact (at, seq)
# order, same high-water stats).
cargo test -q -p ezflow-sim --test sched_equiv

echo "== benchmark harness tests (perfbench) =="
# perfbench/ is its own cargo workspace built against the simulator's
# public API; running its tests here makes an API break fail this gate
# instead of the next benchmark run. They also carry mesh1k's end-to-end
# coverage (2 s of it, sliced vs single).
cargo test --release --offline -q --manifest-path perfbench/Cargo.toml

echo "== flight recorder + trace CLI smoke =="
# A short traced scenario-1 run exports lifecycle JSONL; the trace
# inspector must reconstruct journeys and a drop census from it.
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP"' EXIT
cargo run --release -q -p ezflow-bench --bin experiments -- \
  --quick --time=0.02 --trace-dir="$TRACE_TMP" scenario1 >/dev/null 2>&1 || true
JSONL="$TRACE_TMP/scenario1_80211.jsonl"
[ -s "$JSONL" ] || { echo "trace smoke: no lifecycle export at $JSONL"; exit 1; }
cargo run --release -q -p ezflow-bench --bin trace -- drops --by-cause "$JSONL" >/dev/null
cargo run --release -q -p ezflow-bench --bin trace -- drops --by-node "$JSONL" >/dev/null
cargo run --release -q -p ezflow-bench --bin trace -- worst --flow=0 --top=3 "$JSONL" >/dev/null
PKT="$(cargo run --release -q -p ezflow-bench --bin trace -- worst --flow=0 --top=1 "$JSONL" \
  | awk 'NR==3 {print $1}')"
# Plain grep (not -q) so the reader drains the whole stream — an early
# close would hit the writer as a broken pipe.
cargo run --release -q -p ezflow-bench --bin trace -- journey --packet="$PKT" "$JSONL" \
  | grep DELIVERED >/dev/null
echo "trace CLI reconstructed packet $PKT's journey"

echo "== telemetry bus + trace telemetry smoke =="
# A short telemetry-armed scenario-1 run must stream at least one
# sample-window JSONL record, surface a stability section in its JSON
# snapshots, and render through the telemetry inspector. (Shares
# TRACE_TMP and its EXIT trap; the subdir keeps the telemetry stream
# apart from the same-named lifecycle export above.)
TEL_DIR="$TRACE_TMP/telemetry"
cargo run --release -q -p ezflow-bench --bin experiments -- \
  --quick --time=0.02 --telemetry-dir="$TEL_DIR" --json="$TRACE_TMP/snap.json" \
  scenario1 >/dev/null 2>&1 || true
TEL_JSONL="$TEL_DIR/scenario1_80211.jsonl"
[ -s "$TEL_JSONL" ] || { echo "telemetry smoke: no stream at $TEL_JSONL"; exit 1; }
WINDOWS="$(wc -l < "$TEL_JSONL")"
[ "$WINDOWS" -ge 1 ] || { echo "telemetry smoke: zero sample windows"; exit 1; }
grep -q '"stability"' "$TRACE_TMP/snap.json" \
  || { echo "telemetry smoke: snapshots lack a stability section"; exit 1; }
grep -q '"worst_amplitude_mean"' "$TRACE_TMP/snap.json" \
  || { echo "telemetry smoke: stability section malformed"; exit 1; }
cargo run --release -q -p ezflow-bench --bin trace -- telemetry --top=3 "$TEL_JSONL" >/dev/null
echo "telemetry stream captured $WINDOWS sample windows"

echo "== controller audit + trace controller smoke =="
# A short audit-armed scenario-1 run must stream decision/sample JSONL
# records, surface a controller section in its JSON snapshots, and
# render through the controller inspector. (Shares TRACE_TMP and its
# EXIT trap.)
AUD_DIR="$TRACE_TMP/audit"
cargo run --release -q -p ezflow-bench --bin experiments -- \
  --quick --time=0.02 --audit-dir="$AUD_DIR" --json="$TRACE_TMP/audit_snap.json" \
  scenario1 >/dev/null 2>&1 || true
AUD_JSONL="$AUD_DIR/scenario1_EZ-flow.audit.jsonl"
[ -s "$AUD_JSONL" ] || { echo "audit smoke: no stream at $AUD_JSONL"; exit 1; }
grep -q '"kind":"sample"' "$AUD_JSONL" \
  || { echo "audit smoke: no estimation samples in stream"; exit 1; }
grep -Eq '"schema": ?2' "$TRACE_TMP/audit_snap.json" \
  || { echo "audit smoke: snapshots lack the schema version"; exit 1; }
grep -q '"decisions_total"' "$TRACE_TMP/audit_snap.json" \
  || { echo "audit smoke: snapshots lack a controller section"; exit 1; }
cargo run --release -q -p ezflow-bench --bin trace -- controller --top=3 "$AUD_JSONL" >/dev/null
cargo run --release -q -p ezflow-bench --bin trace -- drops --by-link "$JSONL" >/dev/null
RECORDS="$(wc -l < "$AUD_JSONL")"
echo "controller audit streamed $RECORDS records"

echo "== scenario spec smoke (--spec=scenarios/scenario1.json) =="
# A committed spec must drive the full parse -> compile -> sweep -> report
# pipeline and exit 0. time=0.01 simulates ~25 s — past scenario 1's t=5 s
# flow starts, so the "traffic flowed" check is real, not vacuous.
# (Shares TRACE_TMP and its EXIT trap.)
cargo run --release -q -p ezflow-bench --bin experiments -- \
  --quick --time=0.01 --spec=scenarios/scenario1.json >/dev/null
echo "scenario1.json ran end-to-end"

echo "== scenario spec schema-error smoke =="
# A malformed spec must fail loudly: nonzero exit plus a message that
# points at the offending field, not a panic or a silent zero.
BAD_SPEC="$TRACE_TMP/bad_spec.json"
printf '{"name": "bad", "duration_secs": 1, "topology": {"kind": "donut"}}\n' >"$BAD_SPEC"
if ERR="$(cargo run --release -q -p ezflow-bench --bin experiments -- \
    --quick --spec="$BAD_SPEC" 2>&1 >/dev/null)"; then
  echo "schema smoke: malformed spec exited 0"; exit 1
fi
echo "$ERR" | grep -q 'topology.kind' \
  || { echo "schema smoke: error did not name the bad field: $ERR"; exit 1; }
echo "malformed spec rejected with a pointed message"

echo "all checks passed"
