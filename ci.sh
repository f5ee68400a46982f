#!/usr/bin/env bash
# Local CI for the FlipTracker workspace.
#
#   ./ci.sh         # tier-1 verify + lint + format + docs
#   ./ci.sh quick   # tier-1 verify only
set -euo pipefail
cd "$(dirname "$0")"

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

# Campaign executors fan out over every available CPU; run tier-1 again on
# one CPU so single-worker and multi-worker schedules both gate.
echo "==> tier-1: cargo test -q, pinned to one CPU"
taskset -c 0 cargo test -q

if [[ "${1:-}" == "quick" ]]; then
    echo "==> quick mode: skipping lint + docs"
    exit 0
fi

# The optimizer may reorder floating-point operands that the debug build
# keeps in source order; the whole suite must pass in both builds.
echo "==> whole suite in release: cargo test --release -q"
cargo test --release -q

echo "==> registry-wide spec-conformance harness (all ten apps)"
cargo test --release -q --test conformance

echo "==> checkpoint equivalence: fork-point executor == cold executor (all ten apps)"
cargo test --release -q --test checkpoint_equivalence

echo "==> decode equivalence: decoded executors == frozen legacy fixtures (all ten apps)"
cargo test --release -q --test decode_equivalence

echo "==> streaming equivalence: streamed == gated == materialized (all ten apps)"
cargo test --release -q --test streaming_equivalence

echo "==> analyzed vs plain on promoted LU: each analyzed report field == the plain report"
analyzeddir="target/analyzed-diff"
rm -rf "$analyzeddir"
cargo run --release -q -p ftkr-bench --bin campaign_shard -- \
    plan LU region:lu_blts internal 24 7 2 "$analyzeddir" > /dev/null
for plan in plan plan_shard_0 plan_shard_1; do
    cargo run --release -q -p ftkr-bench --bin campaign_shard -- \
        run "$analyzeddir/$plan.json" > "$analyzeddir/${plan}_plain.json"
    cargo run --release -q -p ftkr-bench --bin campaign_shard -- \
        run --analyzed "$analyzeddir/$plan.json" > "$analyzeddir/${plan}_analyzed.json"
    if ! python3 -c 'import json, sys; sys.exit(json.load(open(sys.argv[1]))["report"] != json.load(open(sys.argv[2])))' \
        "$analyzeddir/${plan}_analyzed.json" "$analyzeddir/${plan}_plain.json"; then
        echo "    $plan: the analyzed report field differs from the plain report"
        exit 1
    fi
done
echo "    analyzed report field (whole plan and both shards) equals the plain report"

echo "==> fused-pipeline differentials: exact sweep == forward taint == streaming"
cargo test --release -q --test property_based fused
cargo test --release -q -p ftkr-patterns --test golden_scenarios golden

echo "==> shard round-trip on promoted LU: two-shard plan JSON == monolithic tally"
sharddir="target/shard-roundtrip"
rm -rf "$sharddir"
cargo run --release -q -p ftkr-bench --bin campaign_shard -- \
    plan LU region:lu_blts internal 32 7 2 "$sharddir" > /dev/null
cargo run --release -q -p ftkr-bench --bin campaign_shard -- \
    run "$sharddir/plan_shard_0.json" "$sharddir/report_0.json"
cargo run --release -q -p ftkr-bench --bin campaign_shard -- \
    run "$sharddir/plan_shard_1.json" "$sharddir/report_1.json"
# Monolithic reference captured from stdout (bare JSON): shard report
# *files* carry the crash-consistency checksum footer, stdout documents do
# not, so every diffed artifact below is plain JSON.
cargo run --release -q -p ftkr-bench --bin campaign_shard -- \
    run "$sharddir/plan.json" > "$sharddir/report_monolithic.json"
cargo run --release -q -p ftkr-bench --bin campaign_shard -- \
    merge "$sharddir/report_0.json" "$sharddir/report_1.json" \
    > "$sharddir/report_merged.json"
diff "$sharddir/report_monolithic.json" "$sharddir/report_merged.json"
echo "    merged shard tally is bit-identical to the monolithic run"
# Plans once carried the target's dynamic window; a plan file with that key
# must still parse and run to the same bytes.
sed '1a\  "window": [1, 2],' "$sharddir/plan.json" > "$sharddir/plan_with_window.json"
grep -q '"window"' "$sharddir/plan_with_window.json"
cargo run --release -q -p ftkr-bench --bin campaign_shard -- \
    run "$sharddir/plan_with_window.json" > "$sharddir/report_with_window.json"
diff "$sharddir/report_monolithic.json" "$sharddir/report_with_window.json"
echo "    a plan file carrying a legacy window key runs to the same bytes"

echo "==> resume: delete one shard report, resume re-executes only that shard"
rm "$sharddir/report_1.json"
cargo run --release -q -p ftkr-bench --bin campaign_shard -- \
    resume "$sharddir" > "$sharddir/report_resumed.json"
diff "$sharddir/report_monolithic.json" "$sharddir/report_resumed.json"
echo "    resumed manifest tally is bit-identical to the monolithic run"

echo "==> campaign server: daemon on an ephemeral port == offline run, byte for byte"
servedir="target/serve-smoke"
rm -rf "$servedir"
mkdir -p "$servedir"
cargo run --release -q -p ftkr-bench --bin campaign_shard -- \
    plan LU region:lu_rhs internal 16 7 3 "$servedir" > /dev/null
# Every blocking daemon command runs under `timeout`: a lost wake-up in the
# worker pool fails this step instead of hanging CI.
timeout 600 cargo run --release -q -p ftkr-bench --bin campaign_shard -- \
    serve 127.0.0.1:0 2 256 "$servedir/port.txt" &
serve_pid=$!
for _ in $(seq 100); do [[ -s "$servedir/port.txt" ]] && break; sleep 0.1; done
serve_addr="$(cat "$servedir/port.txt")"
job="$(timeout 300 cargo run --release -q -p ftkr-bench --bin campaign_shard -- \
    submit "$serve_addr" "$servedir/plan.json" 3)"
timeout 300 cargo run --release -q -p ftkr-bench --bin campaign_shard -- \
    watch "$serve_addr" "$job" > "$servedir/report_served.json"
cargo run --release -q -p ftkr-bench --bin campaign_shard -- \
    run --analyzed "$servedir/plan.json" > "$servedir/report_offline.json"
diff "$servedir/report_served.json" "$servedir/report_offline.json"
timeout 300 cargo run --release -q -p ftkr-bench --bin campaign_shard -- shutdown "$serve_addr"
wait "$serve_pid"
echo "    served report is byte-identical to the offline run"

echo "==> SPMD campaigns: 4-rank MG shards == monolithic, plus a message-fault run"
spmddir="target/spmd-smoke"
rm -rf "$spmddir"
# Computation faults, rank-swept across a 4-rank job, split into two shards:
# `plan` with `<ranks> <sweep>` writes an SPMD plan, `run` picks the
# multi-rank executor from it and `merge` goes by the report kind.
cargo run --release -q -p ftkr-bench --bin campaign_shard -- \
    plan MG region:mg_a internal 16 7 4 sweep 2 "$spmddir" > /dev/null
cargo run --release -q -p ftkr-bench --bin campaign_shard -- \
    run "$spmddir/plan_shard_0.json" "$spmddir/report_0.json"
cargo run --release -q -p ftkr-bench --bin campaign_shard -- \
    run "$spmddir/plan_shard_1.json" "$spmddir/report_1.json"
cargo run --release -q -p ftkr-bench --bin campaign_shard -- \
    run "$spmddir/plan.json" > "$spmddir/report_monolithic.json"
cargo run --release -q -p ftkr-bench --bin campaign_shard -- \
    merge "$spmddir/report_0.json" "$spmddir/report_1.json" \
    > "$spmddir/report_merged.json"
diff "$spmddir/report_monolithic.json" "$spmddir/report_merged.json"
echo "    merged SPMD shard tally is bit-identical to the monolithic run"
# Message-payload faults: corrupt one payload bit at a send boundary per test.
cargo run --release -q -p ftkr-bench --bin campaign_shard -- \
    plan MG messages internal 12 7 4 sweep 1 "$spmddir/msg" > /dev/null
cargo run --release -q -p ftkr-bench --bin campaign_shard -- \
    run "$spmddir/msg/plan.json" > /dev/null
echo "    message-fault campaign executed"
# The Wu-et-al.-style comparison table (same fault population, nranks 1 vs
# 4) must match its frozen output.
cargo run --release -q -p ftkr-bench --bin serial_vs_parallel -- MG 16 7 \
    > "$spmddir/serial_vs_parallel.txt"
diff tests/fixtures/serial_vs_parallel_MG_16_7.txt "$spmddir/serial_vs_parallel.txt"
echo "    serial_vs_parallel MG 16 7 matches its frozen table"

# The paper-artifact binaries' machine output (the section after `--- json ---`)
# must match its frozen fixture. Table 3's `mean_seconds` are timings and are
# left out on both sides.
echo "==> paper artifacts: quick and standard --json output == frozen fixtures"
artifactdir="target/artifacts"
rm -rf "$artifactdir"
mkdir -p "$artifactdir"
for bin in table1 table2_mg_error_magnitude table3_cg_hardening table4_prediction \
    fig5_per_region fig6_per_iteration fig7_lulesh_acl; do
    for effort in quick standard; do
        cargo run --release -q -p ftkr-bench --bin "$bin" -- "$effort" --json \
            | sed -n '/^--- json ---$/,$p' | grep -v '"mean_seconds"' \
            > "$artifactdir/${bin}_$effort.txt"
        diff "tests/fixtures/artifacts/${bin}_$effort.txt" "$artifactdir/${bin}_$effort.txt"
    done
done
echo "    all seven artifacts match their frozen quick and standard output"

echo "==> trap taxonomy: hangs/memory/arithmetic buckets, bit-identical shard merges"
cargo test --release -q --test trap_taxonomy

echo "==> chaos drill: campaign under injected harness faults converges after resume"
chaosdir="target/shard-chaos"
rm -rf "$chaosdir"
cargo run --release -q -p ftkr-bench --bin campaign_shard -- \
    chaos LU region:lu_blts internal 24 7 3 "$chaosdir" 99
# Whole-program tests fork from the step-0 checkpoint, where no restore can
# fail: the drill covers that start too, not only a mid-run region fork.
cargo run --release -q -p ftkr-bench --bin campaign_shard -- \
    chaos LU whole internal 24 7 3 "$chaosdir/whole" 99

echo "==> chaos convergence property suite (random fail-point schedules)"
cargo test --release -q -p ftkr-bench --test chaos_convergence

echo "==> benchmark output gate: every report matches its frozen digest (all ten apps)"
for workload in fig5_regions fig6_analyzed spmd4 deep_analysis; do
    result="$(python3 perfbench/run.py --workload "$workload" --seed 0 --seconds 2 --trace 0 | tail -n 1)"
    if ! python3 -c 'import json, sys; sys.exit(json.loads(sys.argv[1]).get("correct") is not True)' "$result"; then
        echo "    $workload: reports differ from the frozen digests: $result"
        exit 1
    fi
    echo "    $workload: correct"
done

# Off the default seed there are no frozen digests: perfbench instead diffs
# a sample of forked plans against Session::run_plan_analyzed_cold, so this
# gates fork-vs-cold equivalence of the streamed analysis on a fresh seed.
echo "==> off-seed analysis gate: fig6_analyzed seed 7, forked plans == cold executor"
result="$(python3 perfbench/run.py --workload fig6_analyzed --seed 7 --seconds 2 --trace 0 | tail -n 1)"
if ! python3 -c 'import json, sys; sys.exit(json.loads(sys.argv[1]).get("correct") is not True)' "$result"; then
    echo "    fig6_analyzed seed 7: forked reports differ from the cold executor: $result"
    exit 1
fi
echo "    fig6_analyzed seed 7: correct"

echo "==> examples compile"
cargo build --release --examples

echo "==> rustfmt: the workspace is formatted (cargo fmt --check)"
cargo fmt --check

echo "==> clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

# A library target may depend only on crates it uses; test-only crates are
# dev-dependencies.  `ftkr-bench` is excluded because only its binary uses
# `ftkr-serve`, which a lib-only check would flag.
echo "==> clippy: no unused dependency in any library"
cargo clippy --workspace --exclude ftkr-bench --lib -- -D warnings -D unused-crate-dependencies

echo "==> rustdoc (deny warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> OK"
