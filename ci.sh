#!/usr/bin/env bash
# The full local gate: everything CI would run, in dependency order.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

# verdict_gate PREFIX FAILURE LABEL_A CMD_A LABEL_B CMD_B
# Runs the two commands (each one shell string), keeps the line of each
# output that starts with PREFIX, prints both under their labels, and
# fails with FAILURE unless they are byte-identical. Leaves CMD_A's line
# in GATE_LINE for later stanzas.
verdict_gate() {
    local prefix="$1" failure="$2" line_b
    GATE_LINE="$(eval "$4" | grep "^$prefix")"
    line_b="$(eval "$6" | grep "^$prefix")"
    printf '  %-10s %s\n' "$3:" "$GATE_LINE" "$5:" "$line_b"
    if [ "$GATE_LINE" != "$line_b" ]; then
        echo "$failure" >&2
        exit 1
    fi
}

echo "== build (release) =="
cargo build --release --workspace --all-targets

echo "== tests =="
cargo test --workspace -q

echo "== clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== rustfmt =="
cargo fmt --all -- --check

echo "== bench smoke (PKVM_BENCH_QUICK=1) =="
PKVM_BENCH_QUICK=1 cargo bench -p pkvm-bench

echo "== quick campaign (2 workers, fixed seed) =="
# A short concurrent random-testing campaign under the oracle; the example
# exits non-zero on any violation or panic, so a concurrency regression in
# the oracle or the hypervisor fails the gate.
cargo run --release --example campaign -- 2 500 0xc1

echo "== chaos campaign (fixed seed, all hook families) =="
# Corrupts the oracle's inputs for a whole campaign, then replays the
# recorded trace twice; exits non-zero if the oracle (rather than the
# containment layer) crashes or the chaotic replay diverges.
cargo run --release --example chaos -- campaign 0xc2

echo "== trace-file record/replay (fresh-process determinism) =="
# Records a fixed-seed chaotic campaign to a .pkvmtrace file, replays it
# from disk in a *separate* process, and asserts the canonical verdict
# lines (violation counts, kinds, event sequence ids, panic, steps) are
# byte-identical. Fails if persistence or cross-process replay drifts.
TRACE_TMP="$(mktemp -t pkvmtrace.XXXXXX)"
trap 'rm -f "$TRACE_TMP"' EXIT
verdict_gate 'verdict:' "trace-file replay verdict differs from the recording process" \
    recorded 'cargo run --release --example chaos -- record "$TRACE_TMP" 0xc2 400' \
    replayed 'cargo run --release --example chaos -- replay "$TRACE_TMP"'
RECORDED_VERDICT="$GATE_LINE"
cargo run --release --example trace_inspect -- "$TRACE_TMP" summary > /dev/null
cargo run --release --example trace_inspect -- "$TRACE_TMP" stats > /dev/null

echo "== compaction gate (observation-only drop preserves the verdict) =="
# Rewrites the recorded trace without its observation-only families and
# replays the compacted file: the canonical verdict line must be
# byte-identical to the original recording's.
COMPACT_TMP="$(mktemp -t pkvmcompact.XXXXXX)"
trap 'rm -f "$TRACE_TMP" "$COMPACT_TMP"' EXIT
cargo run --release --example trace_inspect -- "$TRACE_TMP" compact "$COMPACT_TMP" \
    read-once lock-acquired lock-releasing trap-enter trap-exit chaos check
verdict_gate 'verdict:' "compacted trace replays to a different verdict" \
    original 'echo "$RECORDED_VERDICT"' \
    compacted 'cargo run --release --example chaos -- replay "$COMPACT_TMP"'

echo "== differential gate (fault-catalog replay matrix, fresh-process determinism) =="
# Records one clean fixed-seed schedule, replays it against the clean
# hypervisor and every cataloged fault, and enforces: clean row
# violation-free, at least 14/17 faults diverging (only the race-window
# and init-shape bugs are structurally out of a single-threaded
# schedule's reach), and a bit-identical canonical matrix line when the
# matrix is recomputed in a *second* process.
DIFF_TMP="$(mktemp -t pkvmdiff.XXXXXX)"
trap 'rm -f "$TRACE_TMP" "$COMPACT_TMP" "$DIFF_TMP"' EXIT
cargo run --release --example differential -- record "$DIFF_TMP" 0x42 2500
verdict_gate 'diff-matrix:' "differential matrix line differs across processes" \
    gate 'cargo run --release --example differential -- gate "$DIFF_TMP" 14' \
    recheck 'cargo run --release --example differential -- matrix "$DIFF_TMP"'

echo "== fuzz gate (fixed seed, coverage vs random + corpus round-trip) =="
# A short fixed-seed coverage-guided fuzzing session. Fails unless (a) the
# fuzzer's session coverage is at least the pure-random baseline's at an
# equal driver-step budget, (b) zero panics escaped the oracle's
# containment, and (c) the persisted corpus reloads and replays with
# bit-identical verdicts in a *second process*.
FUZZ_CORPUS="$(mktemp -d -t pkvmcorpus.XXXXXX)"
trap 'rm -f "$TRACE_TMP" "$COMPACT_TMP" "$DIFF_TMP"; rm -rf "$FUZZ_CORPUS"' EXIT
verdict_gate 'corpus-verdict:' "fuzz corpus replay verdict differs across processes" \
    gate 'cargo run --release --example fuzz -- gate "$FUZZ_CORPUS" 0xc5 4000' \
    verified 'cargo run --release --example fuzz -- verify "$FUZZ_CORPUS"'

echo "== fleet gate (2 workers, forced kill + torn file, merged-corpus round-trip) =="
# A short fixed-seed 2-worker fuzzing fleet with one forced worker kill
# and one forced torn corpus file. Fails unless zero admitted seeds were
# lost, the killed worker was respawned, the torn file was skip-counted,
# the coordinator shut down cleanly, and the merged corpus replays with a
# bit-identical verdict in a *second process*.
FLEET_ROOT="$(mktemp -d -t pkvmfleet.XXXXXX)"
trap 'rm -f "$TRACE_TMP" "$COMPACT_TMP" "$DIFF_TMP"; rm -rf "$FUZZ_CORPUS" "$FLEET_ROOT"' EXIT
verdict_gate 'fleet-verdict:' "fleet merged-corpus replay verdict differs across processes" \
    gate 'cargo run --release --example fleet -- gate "$FLEET_ROOT" 0xc6' \
    verified 'cargo run --release --example fleet -- verify "$FLEET_ROOT"'

echo "== pipeline gate (E12: mode equivalence + pipelined throughput) =="
# Runs the E3 workload at a fixed seed under CheckMode::Inline and
# CheckMode::Pipelined: exits non-zero unless both modes produce identical
# violation (kind, event seq) lists, checked-trap counts and canonical
# event-stream signatures, and pipelined checked throughput stays within
# 3x of unchecked.
cargo run --release --example pipeline_gate -- 1000 0xe12

echo "== bbm gate (E13: break-before-make spec check, both modes) =="
# The missing-TLBI bug must be detected by the break-before-make spec
# check — not only behaviourally — with identical verdicts and violation
# event seqs under CheckMode::Inline and CheckMode::Pipelined, and zero
# break-before-make verdicts on clean and stale-TLB-chaos runs.
cargo run --release --example bbm_gate -- 400 0xe13

echo "== android gate (E16: protected boot, share/unshare, churn) =="
# The Android workload surface: handwritten scenarios clean, a
# fixed-seed Android-weighted campaign violation-free and bit-identical
# under CheckMode::Inline and CheckMode::Pipelined, one detection per
# new spec check under its matching fault, and a canonical verdict line
# that reproduces when the saved trace is replayed in a *second* process.
ANDROID_TMP="$(mktemp -t pkvmandroid.XXXXXX)"
trap 'rm -f "$TRACE_TMP" "$COMPACT_TMP" "$DIFF_TMP" "$ANDROID_TMP"; rm -rf "$FUZZ_CORPUS" "$FLEET_ROOT"' EXIT
verdict_gate 'android-verdict:' "android trace replay verdict differs across processes" \
    gate 'cargo run --release --example android -- gate "$ANDROID_TMP" 0xe16 1200' \
    replayed 'cargo run --release --example android -- replay "$ANDROID_TMP"'

echo "== mutation mini-sweep (3 bugs x 3 chaos families) =="
# Known bugs injected while chaos corrupts the oracle's inputs; exits
# non-zero unless every bug is still detected with no worker panic.
cargo run --release --example chaos -- mutation 0xc3

echo "== oracle-tax benchmark (self-tests + 3 s smoke per workload) =="
# The benchmark package's own tests, then a short run of every workload.
# A run reports failures in its result object (the last stdout line), not
# in its exit code: fail unless it says "correct": true and "failed": 0.
cargo test --offline --manifest-path oraclebench/Cargo.toml
for WORKLOAD in e12-random android-churn diff-matrix; do
    RESULT="$(cargo run --release --quiet --offline --manifest-path oraclebench/Cargo.toml -- \
        --workload "$WORKLOAD" --seed 1 --seconds 3 --trace 0 | tail -n 1)"
    echo "  $WORKLOAD: $RESULT"
    if ! grep -q '"correct": true' <<<"$RESULT" || ! grep -Eq '"failed": 0[,}]' <<<"$RESULT"; then
        echo "oraclebench $WORKLOAD smoke run was not correct and failure-free" >&2
        exit 1
    fi
done

echo "ci.sh: all green"
