#!/usr/bin/env bash
# Offline CI gate: formatting, lints, the full test suite, and a smoke
# iteration of every bench harness. No network access required — all
# dependencies are in-tree (crates/*-shim).
#
# Usage: scripts/check.sh [--no-bench]
set -euo pipefail
cd "$(dirname "$0")/.."

run_bench=1
if [[ "${1:-}" == "--no-bench" ]]; then
    run_bench=0
fi

echo "== cargo fmt --check =="
cargo fmt --all --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (rustdoc warnings are errors) =="
# A deleted or renamed item leaves intra-doc links naming it; without
# this gate they dangle silently.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "== cargo test =="
cargo test --workspace -q

echo "== end-to-end benchmark: builds against the public API, answers correctly (--quick) =="
# benchmark/ is its own package (empty [workspace], path dependencies),
# so the workspace build above never compiles it: an API break against
# the constructors and views it pins would go unseen. Build it, then
# run all four workloads once at smoke size — the schedule's oracle and
# the crash-and-reopen checks are on, and the exit code is non-zero on
# any failed, refused or wrongly answered request. Numbers from a
# --quick run are not comparable and are not read here.
cargo build --release --manifest-path benchmark/Cargo.toml
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- --quick > /dev/null
# The benchmark's own unit tests. `meter`'s test drives
# `SegmentBacking::archive` through its metered backing: the engine no
# longer calls that method, so this test is what holds it (and
# `DirBacking`'s rename) working for as long as `benchmark/` uses it.
cargo test --release --manifest-path benchmark/Cargo.toml --lib

echo "== concurrency suite under a thread matrix (fails on any checker violation) =="
# The concurrent-serving harness sizes its real-thread history from
# CDB_TEST_THREADS; sweep writer counts so both the uncontended and the
# oversubscribed schedules get exercised. For the long-running variant:
#   cargo test --release --features stress --test concurrent_serving -- --ignored
for t in 1 4 "$(nproc)"; do
    echo "-- CDB_TEST_THREADS=$t"
    CDB_TEST_THREADS="$t" cargo test -q --test concurrent_serving
done
# The `stress` feature arms the publish-path assertion that every
# snapshot's transaction log extends its predecessor's
# (`assert_snapshot_extends` in core::shared) — the epoch-prefix
# invariant structural sharing must keep.
echo "-- stress feature: epoch-prefix assertions armed"
cargo test --release --features stress --test concurrent_serving

echo "== archive: every delta publish against a full merge (stress) =="
# A publish merges only the entries touched since the last one. The
# `stress` feature makes every publish also merge the full export into
# a copy of the archive and assert the two encode byte for byte; these
# two suites publish through every façade, across reopens, under both
# retentions, paged and not.
cargo test --release --features stress --test archive_consistency --test facade_agreement

echo "== sharded suite under a shard-count matrix (2PC + crash recovery) =="
# The sharded-serving harness sizes its shard map from CDB_TEST_SHARDS;
# sweep the degenerate single-shard map, a 2-shard map (the smallest
# that exercises cross-shard 2PC), and one shard per core, capped at the
# 95 shards a uniform map can give every one a printable key.
cores="$(nproc)"
for s in 1 2 "$(( cores < 95 ? cores : 95 ))"; do
    echo "-- CDB_TEST_SHARDS=$s"
    CDB_TEST_SHARDS="$s" cargo test -q --test sharded_serving
done

echo "== long-log smoke: bounded recovery over a segmented WAL =="
# Many segments of history, periodic checkpoints with truncation, then
# a reopen whose recovery must scan fewer bytes than two segments.
cargo test -q --test storage_recovery long_history_recovery_scans_a_bounded_tail

echo "== paged storage under a tiny buffer pool (heavy eviction churn) =="
# The differential and recovery suites size their pools from
# CDB_TEST_POOL_PAGES; a 4-frame pool forces eviction on nearly every
# touch, so replacement, write-back, and dirty-page checkpointing all
# run under maximum pressure. paged_storage includes the archive
# property (reopened_archives_encode_as_the_live_one): the archive a
# paged reopen rebuilds must not depend on the pool.
CDB_TEST_POOL_PAGES=4 cargo test -q --test paged_storage
CDB_TEST_POOL_PAGES=4 cargo test -q --test storage_recovery \
    reclaim_with_paged_checkpoints_recovers_from_retired_segments
# The `stress` feature materialises the heap after every paged capture
# and asserts it equals the state just captured, slot by slot: a slot
# the dirty rule missed fails at the capture that missed it.
echo "-- stress feature: every capture checked against the heap"
cargo test --release --features stress --test paged_storage

if [[ "$run_bench" == 1 ]]; then
    echo "== bench smoke (CDB_BENCH_SMOKE=1, one tiny iteration of every bench target) =="
    CDB_BENCH_SMOKE=1 cargo bench -p cdb-bench
fi

echo "== planner span taxonomy: every PlanOp variant maps to a relalg.op.* span =="
# Physical operators must be visible to profiles: plan_span_name gives
# each PlanOp variant a relalg.op.* span name, and this gate fails the
# build when someone adds a variant without wiring it into the
# taxonomy. (The unit test every_plan_op_has_a_span_name checks the
# exec side; this greps the source so even unreachable arms count.)
plan_src="crates/relalg/src/plan.rs"
variants="$(sed -n '/^pub enum PlanOp/,/^}/p' "$plan_src" \
    | grep -oE '^    [A-Z][A-Za-z]*' | tr -d ' ')"
span_fn="$(sed -n '/^pub fn plan_span_name/,/^}/p' "$plan_src")"
if [[ -z "$variants" || -z "$span_fn" ]]; then
    echo "could not locate PlanOp or plan_span_name in $plan_src"
    exit 1
fi
for v in $variants; do
    if ! grep -q "PlanOp::$v" <<<"$span_fn"; then
        echo "PlanOp::$v is not mapped in plan_span_name — add it to the relalg.op.* taxonomy"
        exit 1
    fi
done
if grep -oE '"[a-z_.]+"' <<<"$span_fn" | grep -qv '"relalg\.op\.'; then
    echo "plan_span_name returns a span name outside the relalg.op.* taxonomy:"
    grep -oE '"[a-z_.]+"' <<<"$span_fn" | grep -v '"relalg\.op\.'
    exit 1
fi

echo "== obs timing gate: raw Instant::now() only inside the span API =="
# Every library timing path must go through cdb-obs spans/histograms so
# profiles and metrics see it. Allowed: cdb-obs itself and the
# bench-shim stopwatch.
violations="$(grep -rn "Instant::now" crates/*/src src examples 2>/dev/null \
    | grep -v "^crates/obs/src/" \
    | grep -v "^crates/criterion-shim/src/" || true)"
if [[ -n "$violations" ]]; then
    echo "raw Instant::now() timing outside the cdb-obs span API:"
    echo "$violations"
    exit 1
fi

echo "== arena gate: the wire codec borrows arena slots =="
# The codec reads the tree arena through the borrowed `TreeDb::raw_slots`;
# the arena-copying `raw_nodes()` is gone, and a per-slot accessor on top
# of a copy is O(arena) per slot (paged attach/capture were O(arena²)).
# That entries are addressed rather than scanned is held by the tests
# (`tests/common::check_derived` against a scan,
# `tests/addressed_reads.rs` by counts), not by a grep.
if grep -rn 'raw_nodes' crates/*/src; then
    echo "raw_nodes() copied the whole arena per call — borrow it with TreeDb::raw_slots()"
    exit 1
fi

echo "== example smoke (every binary in examples/) =="
cargo build --examples -q
for src in examples/*.rs; do
    name="$(basename "$src" .rs)"
    echo "-- example: $name"
    if [[ "$name" == "cdbsh" ]]; then
        # The shell reads commands from stdin; drive it with a script
        # touching curation, publishing, citation, SQL, and lifecycle.
        cargo run -q --example cdbsh <<'CDBSH'
new iuphar name
add alice GABA-A kind=receptor tm=4
add bob 5-HT3 kind=receptor tm=4
publish 2008-06
edit alice GABA-A tm 5
publish 2008-12
series GABA-A tm
cite 0 GABA-A
sql SELECT name FROM entries WHERE tm = 4
index kind
indexes
explain SELECT name FROM entries WHERE tm = 4
explain SELECT name FROM entries WHERE kind = 'receptor'
drop-index kind
profile sql SELECT name FROM entries WHERE tm = 4
stats
stats json
path //tm
merge alice GABA-A 5-HT3
what 5-HT3
parallel 4 2 10
quit
CDBSH
        # Durable session: profile a write end-to-end — the span tree
        # must show the WAL sync — and smoke the trace commands.
        obs_dir="$(mktemp -d)"
        obs_out="$(cargo run -q --example cdbsh <<CDBSH2
open iuphar name $obs_dir
profile add alice GABA-A kind=receptor tm=4
trace on
edit alice GABA-A tm 5
trace show
trace off
checkpoint
stats
blackbox $obs_dir
quit
CDBSH2
)"
        rm -rf "$obs_dir"
        # A healthy session leaves no black-box dump — but the command
        # must find the armed directory and say so.
        if ! grep -q "no flight dump" <<<"$obs_out"; then
            echo "cdbsh blackbox did not read the armed flight-recorder dir:"
            echo "$obs_out"
            exit 1
        fi
        if ! grep -q "storage.group.sync" <<<"$obs_out"; then
            echo "cdbsh profile output is missing the storage.group.sync span:"
            echo "$obs_out"
            exit 1
        fi
        if ! grep -q "checkpoint installed" <<<"$obs_out"; then
            echo "cdbsh checkpoint output is missing the reclaim stats:"
            echo "$obs_out"
            exit 1
        fi
        # Server smoke: serve on an ephemeral port, connect the same
        # shell's wire client, curate over TCP, and check the server's
        # request-latency histogram recorded samples before a clean
        # drain. (`connect` with no address targets the shell's own
        # server, so no port needs to be scripted.)
        srv_out="$(cargo run -q --example cdbsh <<'CDBSH3'
new iuphar name
serve 127.0.0.1:0
connect
ping
add alice GABA-A kind=receptor tm=4
edit alice GABA-A tm 5
get GABA-A tm
entries
publish 2008-06
refresh
stats json
disconnect
quit
CDBSH3
)"
        if ! grep -q "GABA-A.tm = 5" <<<"$srv_out"; then
            echo "cdbsh wire session did not read back its own write:"
            echo "$srv_out"
            exit 1
        fi
        lat_line="$(grep '"name":"server.req.latency_ns"' <<<"$srv_out" || true)"
        if [[ -z "$lat_line" ]] || grep -q '"count":0,' <<<"$lat_line"; then
            echo "server stats show no server.req.latency_ns samples:"
            echo "$srv_out"
            exit 1
        fi
        if ! grep -q "server drained" <<<"$srv_out"; then
            echo "cdbsh quit did not drain the server cleanly:"
            echo "$srv_out"
            exit 1
        fi
        # Durable serving: a database opened from a directory, served
        # and curated over TCP, must reopen with both wire writes
        # recovered and the edited value in place.
        srv_dir="$(mktemp -d)"
        cargo run -q --example cdbsh > /dev/null <<CDBSH5
open iuphar name $srv_dir
serve 127.0.0.1:0
connect
add alice GABA-A kind=receptor tm=4
edit alice GABA-A tm 5
disconnect
quit
CDBSH5
        reopen_out="$(cargo run -q --example cdbsh <<CDBSH6
open iuphar name $srv_dir
show GABA-A
quit
CDBSH6
)"
        rm -rf "$srv_dir"
        for needle in "2 transactions recovered" "tm: 5"; do
            if ! grep -q -- "$needle" <<<"$reopen_out"; then
                echo "cdbsh durable serve did not reopen with $needle:"
                echo "$reopen_out"
                exit 1
            fi
        done
        # Distributed-trace smoke: serve a sharded db, run a traced
        # cross-shard merge over the wire, and reassemble the span tree
        # from both halves. The merged tree must show the client and
        # server sides of the same trace plus the 2PC engine, and every
        # line must carry the shared trace id.
        trc_out="$(cargo run -q --example cdbsh <<'CDBSH4'
shard new iuphar name 2
add alice GABA-A tm=4
add bob zeta tm=3
entries
show GABA-A
sql SELECT name FROM entries
serve 127.0.0.1:0
connect
trace on
merge carol GABA-A zeta
trace last
trace merged
trace off
disconnect
quit
CDBSH4
)"
        # Key-routed reads answer on two shards; whole-database reads
        # refuse rather than read one shard.
        if ! grep -q "GABA-A, zeta" <<<"$trc_out" || ! grep -q "not routed" <<<"$trc_out"; then
            echo "cdbsh routed reads or the whole-database refusal are missing:"
            echo "$trc_out"
            exit 1
        fi
        trace_id="$(sed -n 's/^last wire trace id: //p' <<<"$trc_out")"
        if [[ -z "$trace_id" ]]; then
            echo "cdbsh traced merge recorded no wire trace id:"
            echo "$trc_out"
            exit 1
        fi
        for needle in "client.req" "server.req" "core.sharded.cross_commit" "(t$trace_id)"; do
            if ! grep -q -- "$needle" <<<"$trc_out"; then
                echo "cdbsh merged span tree is missing $needle:"
                echo "$trc_out"
                exit 1
            fi
        done
    else
        cargo run -q --example "$name" > /dev/null
    fi
done

echo "== check.sh: all green =="
