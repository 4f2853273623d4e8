//! The metric catalogue and how each metric is computed from what the
//! passes measured.
//!
//! `BENCHMARK.json` lists exactly the names in [`END_TO_END`] and
//! [`PER_LAYER`]; a test keeps the two in step.

use std::collections::BTreeMap;

use crate::ladder::Rungs;
use crate::runner::{counter, histogram, PassOutcome, RoundOutcome, Samples};
use crate::spans::LayerTable;
use crate::stats::{median, percentile, pooled_median, round_spread};

/// One entry of the catalogue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// get worse (0 for per-layer metrics, which have no bound).
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// The end-to-end metrics: what a curator, a reader or a release
/// manager sees. Timings are medians of the pooled samples of all
/// rounds.
pub const END_TO_END: [Spec; 12] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("write_p50_ms", "ms", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("get_p50_us", "us", "lower", 0.25),
    e2e("query_p50_ms", "ms", "lower", 0.25),
    e2e("prov_p50_us", "us", "lower", 0.25),
    e2e("publish_s", "s", "lower", 0.25),
    e2e("checkpoint_s", "s", "lower", 0.25),
    e2e("version_read_p50_ms", "ms", "lower", 0.25),
    e2e("recovery_s", "s", "lower", 0.25),
    e2e("disk_bytes_per_user_byte", "B/B", "lower", 0.02),
    e2e("rss_mb", "MB", "lower", 0.25),
];

/// The per-layer metrics; the layers are the crates, `io` is the
/// benchmark's metered device and `bench` the harness itself.
pub const PER_LAYER: [Spec; 96] = [
    layer("server.wire_overhead_us", "us", "lower"),
    layer("server.get_overhead_us", "us", "lower"),
    layer("server.proto_encode_ns", "ns", "lower"),
    layer("server.proto_decode_ns", "ns", "lower"),
    layer("server.connect_ms", "ms", "lower"),
    layer("server.shed_count", "count", "lower"),
    layer("server.admission_wait_us", "us", "lower"),
    layer("core.sharded_route_us", "us", "lower"),
    layer("core.cross_merge_ms", "ms", "lower"),
    layer("core.same_merge_ms", "ms", "lower"),
    layer("core.twopc_prepare_us", "us", "lower"),
    layer("core.twopc_decide_us", "us", "lower"),
    layer("core.publish_snapshot_us", "us", "lower"),
    layer("core.commit_growth_ratio", "ratio", "lower"),
    layer("core.snapshot_ns", "ns", "lower"),
    layer("core.get_field_us", "us", "lower"),
    layer("core.entry_relation_ms", "ms", "lower"),
    layer("core.planner_stats_ms", "ms", "lower"),
    layer("core.index_set_ms", "ms", "lower"),
    layer("core.index_lookup_us", "us", "lower"),
    layer("core.reindex_write_tax_us", "us", "lower"),
    layer("curation.txn_us", "us", "lower"),
    layer("curation.paste_us", "us", "lower"),
    layer("curation.prov_query_us", "us", "lower"),
    layer("curation.prov_records_per_write", "count", "lower"),
    layer("curation.wire_encode_ns", "ns", "lower"),
    layer("curation.wire_bytes_per_txn", "B", "lower"),
    layer("storage.wal_bytes_per_write", "B", "lower"),
    layer("storage.wal_flushes_per_write", "count", "lower"),
    layer("storage.group_writes_per_flush", "count", "higher"),
    layer("storage.group_commit_us", "us", "lower"),
    layer("storage.ckpt_bytes_per_checkpoint", "B", "lower"),
    layer("storage.heap_bytes_per_checkpoint", "B", "lower"),
    layer("storage.heap_growth_per_cycle", "B", "lower"),
    layer("storage.segments_retired", "count", "higher"),
    layer("storage.reclaimed_bytes", "B", "higher"),
    layer("storage.space_per_live_byte", "B/B", "lower"),
    layer("storage.buffer_hit_rate", "ratio", "higher"),
    layer("storage.buffer_evictions", "count", "lower"),
    layer("storage.buffer_stall_us", "us", "lower"),
    layer("storage.recover_txns_replayed", "count", "lower"),
    layer("storage.recover_frames_skipped", "count", "higher"),
    layer("storage.recover_bytes_scanned", "B", "lower"),
    layer("storage.recover_replay_ms", "ms", "lower"),
    layer("storage.recover_used_checkpoint", "ratio", "higher"),
    layer("archive.add_version_ms", "ms", "lower"),
    layer("archive.retrieve_ms", "ms", "lower"),
    layer("archive.cite_us", "us", "lower"),
    layer("archive.bytes_per_version", "B", "lower"),
    layer("relalg.plan_us", "us", "lower"),
    layer("relalg.exec_ms", "ms", "lower"),
    layer("relalg.rows_examined_per_result", "ratio", "lower"),
    layer("relalg.naive_fallbacks", "count", "lower"),
    layer("semiring.krel_eval_ms", "ms", "lower"),
    layer("annotation.colored_eval_ms", "ms", "lower"),
    layer("annotation.reverse_placement_ms", "ms", "lower"),
    layer("schema.release_check_ms", "ms", "lower"),
    layer("io.wal_flush_us", "us", "lower"),
    layer("io.wal_flush_count", "count", "lower"),
    layer("io.wal_bytes", "B", "lower"),
    layer("io.ckpt_bytes", "B", "lower"),
    layer("io.heap_bytes", "B", "lower"),
    layer("io.heap_reads", "count", "lower"),
    layer("io.device_share", "ratio", "lower"),
    layer("obs.trace_overhead_share", "ratio", "lower"),
    layer("obs.metrics_snapshot_us", "us", "lower"),
    layer("workload.generator_share", "ratio", "lower"),
    layer("bench.write_p99_ms", "ms", "lower"),
    layer("bench.write_samples", "count", "higher"),
    layer("bench.get_p99_us", "us", "lower"),
    layer("bench.get_samples", "count", "higher"),
    layer("bench.query_p99_ms", "ms", "lower"),
    layer("bench.query_samples", "count", "higher"),
    layer("bench.prov_p99_us", "us", "lower"),
    layer("bench.prov_samples", "count", "higher"),
    layer("bench.version_read_p99_ms", "ms", "lower"),
    layer("bench.version_read_samples", "count", "higher"),
    layer("bench.publish_max_s", "s", "lower"),
    layer("bench.checkpoint_max_s", "s", "lower"),
    layer("bench.recovery_max_s", "s", "lower"),
    layer("bench.round_spread_share", "ratio", "lower"),
    layer("bench.unaccounted_share", "ratio", "lower"),
    layer("bench.crash_cut_bytes", "B", "lower"),
    layer("bench.rss_peak_mb", "MB", "lower"),
    layer("bench.attempted_ops", "count", "higher"),
    layer("bench.failed_ops", "count", "lower"),
    layer("trace.server_self_s", "s", "lower"),
    layer("trace.core_self_s", "s", "lower"),
    layer("trace.curation_self_s", "s", "lower"),
    layer("trace.archive_self_s", "s", "lower"),
    layer("trace.relalg_self_s", "s", "lower"),
    layer("trace.semiring_self_s", "s", "lower"),
    layer("trace.annotation_self_s", "s", "lower"),
    layer("trace.schema_self_s", "s", "lower"),
    layer("trace.unaccounted_s", "s", "lower"),
    layer("trace.total_s", "s", "lower"),
];

/// The layers whose self time the traced pass reports, in the order of
/// the `trace.*_self_s` metrics.
pub const TRACED_LAYERS: [(&str, &str); 8] = [
    ("server", "trace.server_self_s"),
    ("core", "trace.core_self_s"),
    ("curation", "trace.curation_self_s"),
    ("archive", "trace.archive_self_s"),
    ("relalg", "trace.relalg_self_s"),
    ("semiring", "trace.semiring_self_s"),
    ("annotation", "trace.annotation_self_s"),
    ("schema", "trace.schema_self_s"),
];

/// A measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as in the catalogue.
    pub name: &'static str,
    /// Unit, as in the catalogue.
    pub unit: &'static str,
    /// The value, as measured.
    pub value: f64,
}

fn pooled_p50(pass: &PassOutcome, pick: impl Fn(&Samples) -> &Vec<f64>) -> f64 {
    pooled_median(&pass.by_round(pick))
}

fn sum_rounds(pass: &PassOutcome, f: impl Fn(&RoundOutcome) -> f64) -> f64 {
    pass.rounds.iter().map(f).sum()
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// A `kB` line of `/proc/self/status` (`"VmRSS:"`, `"VmHWM:"`), in MB.
pub fn proc_status_mb(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn assemble(specs: &[Spec], values: BTreeMap<&'static str, f64>) -> Vec<Metric> {
    let out: Vec<Metric> = specs
        .iter()
        .map(|s| Metric {
            name: s.name,
            unit: s.unit,
            value: *values
                .get(s.name)
                .unwrap_or_else(|| panic!("metric {} was not computed", s.name)),
        })
        .collect();
    assert_eq!(
        out.len(),
        values.len(),
        "a computed metric is not in the catalogue"
    );
    out
}

/// The end-to-end metrics of a full untraced pass.
pub fn end_to_end(pass: &PassOutcome) -> Vec<Metric> {
    let setups: Vec<f64> = pass.rounds.iter().map(|r| r.setup.as_secs_f64()).collect();
    let mut v = BTreeMap::new();
    v.insert("setup_s", median(&setups));
    v.insert("write_p50_ms", pooled_p50(pass, |s| &s.write) / 1e6);
    v.insert(
        "ops_per_s",
        ratio(
            sum_rounds(pass, |r| r.requests as f64),
            sum_rounds(pass, |r| r.timed.as_secs_f64()),
        ),
    );
    v.insert("get_p50_us", pooled_p50(pass, |s| &s.get) / 1e3);
    v.insert("query_p50_ms", pooled_p50(pass, |s| &s.query) / 1e6);
    v.insert("prov_p50_us", pooled_p50(pass, |s| &s.prov) / 1e3);
    v.insert("publish_s", pooled_p50(pass, |s| &s.publish) / 1e9);
    v.insert("checkpoint_s", pooled_p50(pass, |s| &s.checkpoint) / 1e9);
    v.insert(
        "version_read_p50_ms",
        pooled_p50(pass, |s| &s.version) / 1e6,
    );
    v.insert("recovery_s", pooled_p50(pass, |s| &s.recovery) / 1e9);
    v.insert(
        "disk_bytes_per_user_byte",
        ratio(
            sum_rounds(pass, |r| r.disk_bytes as f64),
            sum_rounds(pass, |r| r.user_bytes as f64),
        ),
    );
    let rss: Vec<f64> = pass
        .rounds
        .iter()
        .flat_map(|r| r.rss_mb.iter().copied())
        .collect();
    v.insert("rss_mb", median(&rss));
    assemble(&END_TO_END, v)
}

/// Write p50 of the last tenth of each client's writes over the first
/// tenth, median over rounds: how much a commit slows down as the
/// round's history grows.
fn commit_growth(pass: &PassOutcome) -> f64 {
    let ratios: Vec<f64> = pass
        .rounds
        .iter()
        .filter_map(|r| {
            let (mut first, mut last) = (Vec::new(), Vec::new());
            for w in &r.samples.writes_by_client {
                let tenth = (w.len() / 10).max(1).min(w.len());
                first.extend_from_slice(&w[..tenth]);
                last.extend_from_slice(&w[w.len() - tenth..]);
            }
            (!first.is_empty()).then(|| ratio(median(&last), median(&first)))
        })
        .collect();
    median(&ratios)
}

/// The per-layer metrics: counters and tails from the untraced pass,
/// the overhead and the self-time table from its traced twin, and the
/// ladder.
pub fn per_layer(
    untraced: &PassOutcome,
    traced: &PassOutcome,
    table: &LayerTable,
    rungs: &Rungs,
) -> Vec<Metric> {
    let mut v: BTreeMap<&'static str, f64> = rungs.clone();
    let p = untraced;
    let writes = p.pooled(|s| &s.write).len() as f64;
    let timed_s = sum_rounds(p, |r| r.timed.as_secs_f64());
    let reg_counter = |name: &str| {
        sum_rounds(p, |r| {
            (counter(&r.after.registry, name) - counter(&r.before.registry, name)) as f64
        })
    };
    let reg_mean_ns = |name: &str| {
        let (mut sum, mut count) = (0.0, 0.0);
        for r in &p.rounds {
            let (s1, c1) = histogram(&r.after.registry, name);
            let (s0, c0) = histogram(&r.before.registry, name);
            sum += (s1 - s0) as f64;
            count += (c1 - c0) as f64;
        }
        ratio(sum, count)
    };
    let wal = |f: fn(&crate::meter::DevTotals) -> u64| {
        sum_rounds(p, |r| f(&r.after.wal.since(&r.before.wal)) as f64)
    };
    let heap = |f: fn(&crate::meter::DevTotals) -> u64| {
        sum_rounds(p, |r| f(&r.after.heap.since(&r.before.heap)) as f64)
    };
    let mean_of = |f: fn(&RoundOutcome) -> &Vec<f64>| {
        let all: Vec<f64> = p.rounds.iter().flat_map(|r| f(r).iter().copied()).collect();
        ratio(all.iter().sum(), all.len() as f64)
    };
    let rounds = p.rounds.len() as f64;

    *v.entry("server.shed_count").or_default() += sum_rounds(p, |r| r.shed as f64);
    v.insert("core.commit_growth_ratio", commit_growth(p));
    v.insert(
        "curation.prov_records_per_write",
        ratio(
            sum_rounds(p, |r| (r.after.prov_records - r.before.prov_records) as f64),
            writes,
        ),
    );

    v.insert(
        "storage.wal_bytes_per_write",
        ratio(wal(|d| d.append_bytes), writes),
    );
    v.insert(
        "storage.wal_flushes_per_write",
        ratio(wal(|d| d.flushes), writes),
    );
    v.insert(
        "storage.group_writes_per_flush",
        ratio(
            reg_counter("storage.group.frames_synced"),
            reg_counter("storage.group.batches"),
        ),
    );
    v.insert(
        "storage.group_commit_us",
        reg_mean_ns("storage.group.commit_ns") / 1e3,
    );
    v.insert(
        "storage.ckpt_bytes_per_checkpoint",
        mean_of(|r| &r.ckpt_bytes),
    );
    v.insert(
        "storage.heap_bytes_per_checkpoint",
        mean_of(|r| &r.heap_bytes_per_ckpt),
    );
    v.insert("storage.heap_growth_per_cycle", mean_of(|r| &r.heap_growth));
    v.insert(
        "storage.segments_retired",
        sum_rounds(p, |r| r.segments_retired as f64),
    );
    v.insert(
        "storage.reclaimed_bytes",
        sum_rounds(p, |r| r.reclaimed_bytes as f64),
    );
    v.insert(
        "storage.space_per_live_byte",
        ratio(
            sum_rounds(p, |r| r.disk_bytes as f64),
            sum_rounds(p, |r| r.live_bytes as f64),
        ),
    );
    let hits = reg_counter("storage.buffer.hit") + sum_rounds(p, |r| r.recovery.buffer_hits as f64);
    let misses =
        reg_counter("storage.buffer.miss") + sum_rounds(p, |r| r.recovery.buffer_misses as f64);
    v.insert(
        "storage.buffer_hit_rate",
        if hits + misses == 0.0 {
            1.0
        } else {
            hits / (hits + misses)
        },
    );
    v.insert(
        "storage.buffer_evictions",
        reg_counter("storage.buffer.evict"),
    );
    v.insert(
        "storage.buffer_stall_us",
        reg_mean_ns("storage.buffer.stall_ns") / 1e3,
    );
    let rec = |f: fn(&RoundOutcome) -> u64| sum_rounds(p, |r| f(r) as f64) / rounds;
    v.insert(
        "storage.recover_txns_replayed",
        rec(|r| r.recovery.txns_replayed),
    );
    v.insert(
        "storage.recover_frames_skipped",
        rec(|r| r.recovery.frames_skipped),
    );
    v.insert(
        "storage.recover_bytes_scanned",
        rec(|r| r.recovery.bytes_scanned),
    );
    v.insert(
        "storage.recover_replay_ms",
        rec(|r| r.recovery.replay_ns) / 1e6,
    );
    v.insert(
        "storage.recover_used_checkpoint",
        ratio(
            sum_rounds(p, |r| r.recovery.used_checkpoint as f64),
            sum_rounds(p, |r| r.recovery.shards as f64),
        ),
    );
    v.insert(
        "archive.bytes_per_version",
        sum_rounds(p, |r| r.archive_bytes_per_version) / rounds,
    );
    v.insert(
        "relalg.rows_examined_per_result",
        ratio(
            sum_rounds(p, |r| r.plans.rows_examined as f64),
            sum_rounds(p, |r| r.plans.rows_returned as f64).max(1.0),
        ),
    );
    v.insert(
        "relalg.naive_fallbacks",
        sum_rounds(p, |r| r.plans.naive_fallbacks as f64),
    );

    v.insert(
        "io.wal_flush_us",
        ratio(wal(|d| d.flush_ns), wal(|d| d.flushes)) / 1e3,
    );
    v.insert("io.wal_flush_count", wal(|d| d.flushes));
    v.insert("io.wal_bytes", wal(|d| d.append_bytes));
    v.insert(
        "io.ckpt_bytes",
        sum_rounds(p, |r| r.ckpt_bytes.iter().sum::<f64>()),
    );
    v.insert("io.heap_bytes", heap(|d| d.append_bytes));
    v.insert("io.heap_reads", heap(|d| d.reads));
    v.insert(
        "io.device_share",
        ratio(
            (wal(|d| d.device_ns) + heap(|d| d.device_ns)) / 1e9,
            timed_s,
        ),
    );

    let traced_s = sum_rounds(traced, |r| r.timed.as_secs_f64());
    v.insert(
        "obs.trace_overhead_share",
        ratio(traced_s - timed_s, timed_s),
    );
    v.insert(
        "workload.generator_share",
        ratio(p.generator.as_secs_f64(), p.wall.as_secs_f64()),
    );

    let tail = |pick: fn(&Samples) -> &Vec<f64>, q: f64| percentile(&p.pooled(pick), q);
    let count = |pick: fn(&Samples) -> &Vec<f64>| p.pooled(pick).len() as f64;
    v.insert("bench.write_p99_ms", tail(|s| &s.write, 0.99) / 1e6);
    v.insert("bench.write_samples", count(|s| &s.write));
    v.insert("bench.get_p99_us", tail(|s| &s.get, 0.99) / 1e3);
    v.insert("bench.get_samples", count(|s| &s.get));
    v.insert("bench.query_p99_ms", tail(|s| &s.query, 0.99) / 1e6);
    v.insert("bench.query_samples", count(|s| &s.query));
    v.insert("bench.prov_p99_us", tail(|s| &s.prov, 0.99) / 1e3);
    v.insert("bench.prov_samples", count(|s| &s.prov));
    v.insert(
        "bench.version_read_p99_ms",
        tail(|s| &s.version, 0.99) / 1e6,
    );
    v.insert("bench.version_read_samples", count(|s| &s.version));
    v.insert("bench.publish_max_s", tail(|s| &s.publish, 1.0) / 1e9);
    v.insert("bench.checkpoint_max_s", tail(|s| &s.checkpoint, 1.0) / 1e9);
    v.insert("bench.recovery_max_s", tail(|s| &s.recovery, 1.0) / 1e9);
    v.insert(
        "bench.round_spread_share",
        round_spread(&p.by_round(|s| &s.write)),
    );
    v.insert("bench.unaccounted_share", table.unaccounted_share());
    v.insert(
        "bench.crash_cut_bytes",
        sum_rounds(p, |r| r.crash_cut_bytes as f64),
    );
    v.insert("bench.rss_peak_mb", proc_status_mb("VmHWM:"));
    v.insert(
        "bench.attempted_ops",
        (p.attempted + traced.attempted) as f64,
    );
    v.insert("bench.failed_ops", (p.failed + traced.failed) as f64);
    for (layer, metric) in TRACED_LAYERS {
        let self_ns: u64 = table
            .rows
            .iter()
            .filter(|r| r.0 == layer)
            .map(|r| r.1)
            .sum();
        v.insert(metric, self_ns as f64 / 1e9);
    }
    v.insert("trace.unaccounted_s", table.unaccounted_ns as f64 / 1e9);
    v.insert("trace.total_s", table.total_ns as f64 / 1e9);
    assemble(&PER_LAYER, v)
}

/// `name value unit`, one metric per line.
pub fn render(metrics: &[Metric]) -> String {
    metrics
        .iter()
        .map(|m| format!("{} {} {}\n", m.name, format_value(m.value), m.unit))
        .collect()
}

/// A number with all its digits; JSON has no NaN or infinity.
pub fn format_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// The result line the driver reads: one JSON object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                format_value(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Reads the metric values back out of a [`result_line`].
pub fn parse_result_line(line: &str) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let Some(start) = line.find("\"metrics\"") else {
        return out;
    };
    for piece in line[start..]
        .split("\"value\":")
        .collect::<Vec<_>>()
        .windows(2)
    {
        // The name is the last quoted string before `"value":`.
        let before = piece[0].trim_end().trim_end_matches('{').trim_end();
        let before = before.trim_end_matches(':').trim_end();
        let Some(name_end) = before.rfind('"') else {
            continue;
        };
        let Some(name_start) = before[..name_end].rfind('"') else {
            continue;
        };
        let number: String = piece[1]
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E'))
            .collect();
        if let Ok(value) = number.parse() {
            out.insert(before[name_start + 1..name_end].to_owned(), value);
        }
    }
    out
}

/// The metric names listed under `section` of `BENCHMARK.json`.
pub fn names_in_benchmark_json(json: &str, section: &str) -> Vec<String> {
    let Some(at) = json.find(&format!("\"{section}\"")) else {
        return Vec::new();
    };
    let rest = &json[at..];
    let end = rest.find(']').unwrap_or(rest.len());
    rest[..end]
        .split("\"name\"")
        .skip(1)
        .filter_map(|piece| {
            let open = piece.find('"')?;
            let close = piece[open + 1..].find('"')?;
            Some(piece[open + 1..open + 1 + close].to_owned())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips() {
        let metrics = vec![
            Metric {
                name: "write_p50_ms",
                unit: "ms",
                value: 3.25,
            },
            Metric {
                name: "ops_per_s",
                unit: "1/s",
                value: 1234.5678,
            },
        ];
        let line = result_line(true, 10, 0, &metrics);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
        let back = parse_result_line(&line);
        assert_eq!(back.len(), 2);
        assert_eq!(back["write_p50_ms"], 3.25);
        assert_eq!(back["ops_per_s"], 1234.5678);
        assert_eq!(format_value(f64::NAN), "0");
    }

    #[test]
    fn catalogue_names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for s in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(s.name), "{} listed twice", s.name);
            assert!(s.name.len() <= 64);
            assert!(s
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-')));
            assert!(s.unit.len() <= 16);
            assert!(s.better == "lower" || s.better == "higher");
            assert!(s.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|s| s.name == "setup_s" && s.unit == "s"));
    }

    #[test]
    fn names_are_read_from_a_json_section() {
        let json = r#"{"end_to_end": [{"name": "a_b", "unit": "s"}, {"name":"c.d"}],
                       "per_layer": [{"name": "x-y"}]}"#;
        assert_eq!(names_in_benchmark_json(json, "end_to_end"), ["a_b", "c.d"]);
        assert_eq!(names_in_benchmark_json(json, "per_layer"), ["x-y"]);
        assert!(names_in_benchmark_json(json, "workloads").is_empty());
    }
}
