//! The benchmark's contract with `BENCHMARK.json` and with itself:
//! the names it emits, and the counts that must repeat exactly.

use std::collections::BTreeSet;

use cdb_benchmark::cli::{measure_end_to_end, measure_layers};
use cdb_benchmark::plan::{Pass, Scale, Workload, RUN_SECONDS};
use cdb_benchmark::report::names_in_benchmark_json;
use cdb_benchmark::runner::run_pass;

fn benchmark_json() -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_workload_emits_exactly_the_names_in_benchmark_json() {
    let json = benchmark_json();
    let end_to_end: BTreeSet<String> = names_in_benchmark_json(&json, "end_to_end")
        .into_iter()
        .collect();
    let per_layer: BTreeSet<String> = names_in_benchmark_json(&json, "per_layer")
        .into_iter()
        .collect();
    assert!(end_to_end.contains("setup_s"));
    assert!(!per_layer.is_empty());
    for name in end_to_end.iter().chain(&per_layer) {
        assert!(well_formed(name), "{name}");
    }
    let workloads: BTreeSet<String> = names_in_benchmark_json(&json, "workloads")
        .into_iter()
        .collect();
    let known: BTreeSet<String> = Workload::ALL.iter().map(|w| w.name().to_owned()).collect();
    assert_eq!(workloads, known);

    for workload in Workload::ALL {
        let e2e = measure_end_to_end(workload, 5, Pass::Quick, RUN_SECONDS);
        assert_eq!(e2e.failed, 0, "{}: {:?}", workload.name(), e2e.failures);
        let emitted: BTreeSet<String> = e2e.end_to_end.iter().map(|m| m.name.to_owned()).collect();
        assert_eq!(emitted, end_to_end, "{}", workload.name());
        for m in &e2e.end_to_end {
            assert!(
                m.value > 0.0,
                "{} {} is {}",
                workload.name(),
                m.name,
                m.value
            );
        }

        let layers = measure_layers(workload, 5, true, RUN_SECONDS);
        assert_eq!(
            layers.failed,
            0,
            "{}: {:?}",
            workload.name(),
            layers.failures
        );
        let emitted: BTreeSet<String> =
            layers.per_layer.iter().map(|m| m.name.to_owned()).collect();
        assert_eq!(emitted, per_layer, "{}", workload.name());
        // The table's rows and its `unaccounted` row sum to its total.
        let table = layers.table.expect("the traced pass builds a table");
        let rows: u64 = table.rows.iter().map(|r| r.1).sum();
        assert_eq!(rows + table.unaccounted_ns, table.total_ns);
        assert!(table.total_ns > 0);
    }
}

#[test]
fn one_client_workloads_repeat_their_device_counts_exactly() {
    for workload in [Workload::QueryMix, Workload::ReleaseCycle] {
        let scale = Scale::of(workload, Pass::Quick, RUN_SECONDS);
        let counts = |tag: &str| {
            let pass = run_pass(workload, 11, scale, false, tag);
            assert_eq!(pass.failed, 0, "{:?}", pass.failures);
            pass.rounds
                .iter()
                .map(|r| {
                    let wal = r.after.wal.since(&r.before.wal);
                    let heap = r.after.heap.since(&r.before.heap);
                    (
                        (wal.appends, wal.append_bytes, wal.flushes),
                        (heap.appends, heap.append_bytes, heap.reads),
                        r.disk_bytes,
                        r.user_bytes,
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(
            counts("repeat-a"),
            counts("repeat-b"),
            "{}",
            workload.name()
        );
    }
}
