//! Rounds, cycles and passes.
//!
//! A pass is R rounds. A round is: fresh directory → set-up (load the
//! corpus, open, `create_index`, one untimed warm-up cycle) → C timed
//! cycles → crash + reopen ×3. A cycle is each client's pre-generated
//! request list, then one publish, one checkpoint and a block of
//! version reads. In the last cycle the crash image is taken between
//! the requests and the publish, so recovery finds a checkpoint *and* a
//! log tail to replay.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use cdb_core::Snapshot;
use cdb_obs::MetricsSnapshot;
use cdb_server::{Client, Server, ServerConfig, TcpTransport};

use crate::corpus::{self, FIELDS, UPSTREAM};
use crate::engine::{self, Db};
use crate::exec::{self, Answer, Conn, PlanTotals};
use crate::meter::{self, DevClass, DevTotals, Meter};
use crate::plan::{self, CyclePlan, Req, RoundPlan, Scale, Workload};
use crate::spans::{self, span};

/// How often a round reopens its crash image.
pub const REOPENS: usize = 3;

/// Latency samples of one round, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Acknowledged durable curation writes, all kinds.
    pub write: Vec<f64>,
    /// Single-field reads.
    pub get: Vec<f64>,
    /// Key listings.
    pub entries: Vec<f64>,
    /// Relational reads, all shapes.
    pub query: Vec<f64>,
    /// Provenance reads (`how_arrived` + `last_modified`).
    pub prov: Vec<f64>,
    /// Version reads (`version`, `cite`, `field_series`).
    pub version: Vec<f64>,
    /// Publishes.
    pub publish: Vec<f64>,
    /// Checkpoints.
    pub checkpoint: Vec<f64>,
    /// Reopen of the crash image until the first `get` answers.
    pub recovery: Vec<f64>,
    /// Each client's writes in the order it issued them.
    pub writes_by_client: Vec<Vec<f64>>,
}

/// Counters read at the start and the end of a round's timed cycles.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// WAL device totals.
    pub wal: DevTotals,
    /// Page-heap device totals.
    pub heap: DevTotals,
    /// The engine's metric registry.
    pub registry: MetricsSnapshot,
    /// Provenance records stored.
    pub prov_records: u64,
}

/// What recovery reported through the reopened database's registry.
#[derive(Debug, Clone, Copy, Default)]
pub struct RecoveryCounters {
    /// Transactions re-applied from the log tail.
    pub txns_replayed: u64,
    /// Frames skipped below the checkpoint's watermark.
    pub frames_skipped: u64,
    /// Log bytes scanned.
    pub bytes_scanned: u64,
    /// Nanoseconds decoding, replaying and verifying.
    pub replay_ns: u64,
    /// Shards that used a checkpoint.
    pub used_checkpoint: u64,
    /// Shards recovered.
    pub shards: u64,
    /// Buffer-pool hits during the reopen.
    pub buffer_hits: u64,
    /// Buffer-pool misses during the reopen.
    pub buffer_misses: u64,
}

/// Everything one round produced.
#[derive(Debug, Clone, Default)]
pub struct RoundOutcome {
    /// Latency samples.
    pub samples: Samples,
    /// Set-up time, warm-up included.
    pub setup: Duration,
    /// Wall time of the timed cycles.
    pub timed: Duration,
    /// Requests in the timed cycles.
    pub requests: u64,
    /// Counters before the first timed cycle.
    pub before: Counters,
    /// Counters after the last timed cycle.
    pub after: Counters,
    /// Size of all files at the end of the round.
    pub disk_bytes: u64,
    /// Bytes of keys, field names and values written in the round.
    pub user_bytes: u64,
    /// Encoded size of the live state (`export()`).
    pub live_bytes: u64,
    /// Checkpoint file sizes after each timed checkpoint.
    pub ckpt_bytes: Vec<f64>,
    /// Heap bytes appended by each timed checkpoint.
    pub heap_bytes_per_ckpt: Vec<f64>,
    /// Heap file growth over each timed cycle.
    pub heap_growth: Vec<f64>,
    /// Segments retired by timed checkpoints.
    pub segments_retired: u64,
    /// Bytes those segments held.
    pub reclaimed_bytes: u64,
    /// Encoded size of the archive divided by its versions.
    pub archive_bytes_per_version: f64,
    /// Requests the server shed.
    pub shed: u64,
    /// Unflushed bytes cut from the crash image.
    pub crash_cut_bytes: u64,
    /// Recovery counters of the first reopen.
    pub recovery: RecoveryCounters,
    /// Planner actuals.
    pub plans: PlanTotals,
    /// Resident set (VmRSS, MB) after each timed cycle.
    pub rss_mb: Vec<f64>,
}

/// Everything one pass produced.
#[derive(Debug, Clone, Default)]
pub struct PassOutcome {
    /// Per-round results.
    pub rounds: Vec<RoundOutcome>,
    /// Requests attempted, recoveries and checks included.
    pub attempted: u64,
    /// Requests that failed, were refused or answered wrongly.
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
    /// Time spent generating schedules.
    pub generator: Duration,
    /// Wall time of the whole pass.
    pub wall: Duration,
}

impl PassOutcome {
    fn attempt(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(why);
            }
        }
    }

    /// One latency kind, per round.
    pub fn by_round(&self, pick: impl Fn(&Samples) -> &Vec<f64>) -> Vec<Vec<f64>> {
        self.rounds
            .iter()
            .map(|r| pick(&r.samples).clone())
            .collect()
    }

    /// One latency kind, all rounds pooled.
    pub fn pooled(&self, pick: impl Fn(&Samples) -> &Vec<f64>) -> Vec<f64> {
        self.rounds
            .iter()
            .flat_map(|r| pick(&r.samples).iter().copied())
            .collect()
    }
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Sums a counter over a plain name and its `shard.<i>.` variants.
pub fn counter(snap: &MetricsSnapshot, name: &str) -> u64 {
    snap.counters
        .iter()
        .filter(|(k, _)| is_metric(k, name))
        .map(|(_, v)| *v)
        .sum()
}

/// Sum and count of a histogram over a plain name and its
/// `shard.<i>.` variants.
pub fn histogram(snap: &MetricsSnapshot, name: &str) -> (u64, u64) {
    snap.histograms
        .iter()
        .filter(|(k, _)| is_metric(k, name))
        .fold((0, 0), |(s, c), (_, h)| (s + h.sum, c + h.count))
}

fn is_metric(key: &str, name: &str) -> bool {
    key == name
        || key
            .strip_prefix("shard.")
            .and_then(|rest| rest.split_once('.'))
            .is_some_and(|(_, tail)| tail == name)
}

fn counters(db: &Db, meter: &Meter) -> Counters {
    Counters {
        wal: meter.totals(DevClass::Wal),
        heap: meter.totals(DevClass::Heap),
        registry: db.metrics_snapshot(),
        prov_records: db
            .snapshots()
            .iter()
            .map(|s| s.curated.prov.record_count() as u64)
            .sum(),
    }
}

fn fresh_dir(path: &Path) -> std::io::Result<()> {
    if path.exists() {
        std::fs::remove_dir_all(path)?;
    }
    std::fs::create_dir_all(path)
}

fn copy_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    fresh_dir(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        std::fs::copy(entry.path(), dst.join(entry.file_name()))?;
    }
    Ok(())
}

/// What a client thread hands back after its list.
struct ListOutcome {
    answers: Vec<Answer>,
    nanos: Vec<f64>,
}

fn run_list(conn: &mut Conn<'_>, list: &[Req], request_base: u64) -> ListOutcome {
    let root = span(spans::ROOT);
    let mut out = ListOutcome {
        answers: Vec::with_capacity(list.len()),
        nanos: Vec::with_capacity(list.len()),
    };
    for (i, req) in list.iter().enumerate() {
        spans::set_request(request_base + i as u64 + 1);
        let (answer, took) = conn.execute(req);
        out.nanos.push(ns(took));
        out.answers.push(answer);
    }
    drop(root);
    spans::flush_thread();
    out
}

/// The state a round keeps between cycles.
struct Round<'a> {
    workload: Workload,
    db: &'a Db,
    meter: &'a Meter,
    dir: &'a Path,
    conns: Vec<Conn<'a>>,
}

impl Round<'_> {
    fn ckpt_file_bytes(&self) -> u64 {
        (0..self.db.shard_count())
            .map(|i| {
                let name = format!("{}.ckpt", engine::part_name(self.workload, i));
                std::fs::metadata(self.dir.join(name)).map_or(0, |m| m.len())
            })
            .sum()
    }

    fn heap_file_bytes(&self) -> u64 {
        std::fs::metadata(self.dir.join(format!("{}.heap", corpus::DB_NAME))).map_or(0, |m| m.len())
    }

    /// Runs one cycle. `timed` is `None` for the warm-up; `capture` is
    /// where the crash image goes when this is the round's last cycle.
    fn cycle(
        &mut self,
        number: u64,
        plan: &CyclePlan,
        pass: &mut PassOutcome,
        mut timed: Option<&mut RoundOutcome>,
        capture: Option<&Path>,
    ) {
        let clients = self.conns.len() as u64;
        let heap_len_before = self.heap_file_bytes();

        // ---- the clients' request lists, one thread each
        let started = Instant::now();
        let outcomes: Vec<ListOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .conns
                .iter_mut()
                .zip(&plan.clients)
                .enumerate()
                .map(|(c, (conn, list))| {
                    let base = number * 1_000_000 + c as u64 * 100_000;
                    s.spawn(move || run_list(conn, list, base))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a client thread panicked"))
                .collect()
        });
        let mut wall = started.elapsed();

        // ---- the crash image: everything acknowledged so far, and
        // nothing that was not flushed
        if let Some(image) = capture {
            let cut = self
                .meter
                .crash_image(self.dir, image)
                .expect("copying the crash image");
            if let Some(round) = timed.as_deref_mut() {
                round.crash_cut_bytes = cut.cut_bytes;
            }
        }

        // ---- publish, checkpoint, version reads
        let root = span(spans::ROOT);
        spans::set_request(number * 1_000_000 + 900_000);
        let t = Instant::now();
        let published = self.conns[0].publish(&plan.label);
        let publish = t.elapsed();
        let heap_before = self.meter.totals(DevClass::Heap).append_bytes;
        let t = Instant::now();
        let checkpointed = self.db.checkpoint();
        let checkpoint = t.elapsed();
        let heap_written = self.meter.totals(DevClass::Heap).append_bytes - heap_before;
        let mut version_nanos = Vec::with_capacity(plan.version_reads.len());
        let mut version_results = Vec::with_capacity(plan.version_reads.len());
        for read in &plan.version_reads {
            let t = Instant::now();
            version_results.push(exec::version_read(self.db, read));
            version_nanos.push(ns(t.elapsed()));
        }
        let t = Instant::now();
        let release = (self.workload == Workload::ReleaseCycle).then(|| release_check(self.db));
        wall += t.elapsed();
        drop(root);
        wall += publish + checkpoint;
        wall += Duration::from_nanos(version_nanos.iter().sum::<f64>() as u64);

        // ---- checks, outside the timed section
        for (c, (list, out)) in plan.clients.iter().zip(&outcomes).enumerate() {
            for (req, answer) in list.iter().zip(&out.answers) {
                pass.attempt(exec::check(req, answer, |k| {
                    corpus::serial(k) as u64 % clients == c as u64
                }));
            }
        }
        pass.attempt(published.map(|_| ()).map_err(|e| format!("publish: {e}")));
        let retired = checkpointed.map_err(|e| format!("checkpoint: {e}"));
        pass.attempt(retired.as_ref().map(|_| ()).map_err(Clone::clone));
        for r in version_results {
            pass.attempt(r);
        }
        if let Some(outcome) = &release {
            pass.attempt(outcome.clone());
        }

        let Some(round) = timed else { return };
        round.timed += wall;
        round.requests += plan.clients.iter().map(|l| l.len() as u64).sum::<u64>()
            + 2
            + plan.version_reads.len() as u64
            + u64::from(release.is_some());
        let s = &mut round.samples;
        s.writes_by_client.resize(self.conns.len(), Vec::new());
        for (c, (list, out)) in plan.clients.iter().zip(&outcomes).enumerate() {
            for (req, &t) in list.iter().zip(&out.nanos) {
                match req {
                    Req::Get { .. } => s.get.push(t),
                    Req::Entries { .. } => s.entries.push(t),
                    Req::Query { .. } => s.query.push(t),
                    Req::Prov { .. } => s.prov.push(t),
                    _ => {
                        s.write.push(t);
                        s.writes_by_client[c].push(t);
                    }
                }
            }
        }
        s.publish.push(ns(publish));
        s.checkpoint.push(ns(checkpoint));
        s.version.extend(version_nanos);
        round.rss_mb.push(crate::report::proc_status_mb("VmRSS:"));
        round.ckpt_bytes.push(self.ckpt_file_bytes() as f64);
        round.heap_bytes_per_ckpt.push(heap_written as f64);
        round
            .heap_growth
            .push((self.heap_file_bytes() - heap_len_before) as f64);
        if let Ok(r) = retired {
            round.segments_retired += r.segments;
            round.reclaimed_bytes += r.bytes;
        }
    }
}

/// The release manager's check: the inferred type of the new release
/// must be included in the previous release's.
fn release_check(db: &Db) -> Result<(), String> {
    let snap = &db.snapshots()[0];
    let latest = snap.archive().version_count() - 1;
    let (new, old) = {
        let _s = span("archive.retrieve");
        (snap.version(latest), snap.version(latest.saturating_sub(1)))
    };
    let (Ok(new), Ok(old)) = (new, old) else {
        return Err("release check: version missing".into());
    };
    let _s = span("schema.release_check");
    if cdb_schema::infer::type_of(&new).is_subtype_of(&cdb_schema::infer::type_of(&old)) {
        Ok(())
    } else {
        Err(format!(
            "release {latest} is not included in its predecessor's type"
        ))
    }
}

/// Whether the recovered database holds exactly the oracle's state.
fn recovered_matches(db: &Db, plan: &RoundPlan) -> Result<(), String> {
    let snaps: Vec<Snapshot> = db.snapshots();
    let mut keys = Vec::new();
    for s in &snaps {
        keys.extend(s.entry_keys().map_err(|e| e.to_string())?);
    }
    keys.sort();
    if !keys.iter().eq(plan.crash_state.keys()) {
        return Err(format!(
            "recovered {} entries, oracle holds {}",
            keys.len(),
            plan.crash_state.len()
        ));
    }
    for (key, fields) in &plan.crash_state {
        let snap = &snaps[db.route(key)];
        for f in FIELDS {
            let got = snap.field(key, f).map_err(|e| e.to_string())?;
            if Some(&got) != fields.get(f) {
                return Err(format!("recovered {key}.{f} = {got:?}"));
            }
        }
        let notes = snap.notes_on(key, None).len() + snap.notes_on(key, Some("de")).len();
        if notes as u64 != plan.crash_notes.get(key).copied().unwrap_or(0) {
            return Err(format!("recovered {notes} notes on {key}"));
        }
    }
    Ok(())
}

fn recovery_counters(db: &Db) -> RecoveryCounters {
    let reg = db.metrics_snapshot();
    RecoveryCounters {
        txns_replayed: counter(&reg, "storage.recovery.txns_replayed"),
        frames_skipped: counter(&reg, "storage.recovery.frames_skipped"),
        bytes_scanned: counter(&reg, "storage.recovery.bytes_scanned"),
        replay_ns: histogram(&reg, "storage.recovery.replay_ns").0,
        used_checkpoint: counter(&reg, "storage.recovery.checkpoint_used"),
        shards: counter(&reg, "storage.recovery.count"),
        buffer_hits: counter(&reg, "storage.buffer.hit"),
        buffer_misses: counter(&reg, "storage.buffer.miss"),
    }
}

fn run_round(
    workload: Workload,
    plan: &RoundPlan,
    base: &Path,
    round_no: u64,
    traced: bool,
    pass: &mut PassOutcome,
) -> RoundOutcome {
    let mut round = RoundOutcome {
        user_bytes: plan.user_bytes,
        ..RoundOutcome::default()
    };
    let dir = base.join("live");
    let image = base.join("image");
    fresh_dir(&dir).expect("creating the round's directory");
    let meter = Meter::new();
    // Copy-paste copies from an in-memory twin of the corpus.
    let upstream = engine::in_memory(UPSTREAM, &plan.corpus, false);

    // ------------------------------------------------------- set-up
    let setup_started = Instant::now();
    engine::load(workload, &dir, &meter, &plan.corpus).expect("loading the corpus");
    let db = engine::open(workload, &dir, &meter).expect("opening the loaded database");
    db.create_indexes().expect("creating the indexes");
    let server = match &db {
        Db::Sharded(sharded) if workload.is_wire() => Some(
            Server::bind(sharded.clone(), "127.0.0.1:0", ServerConfig::default())
                .expect("binding the server"),
        ),
        _ => None,
    };
    let mut wires: Vec<Client<TcpTransport>> = Vec::new();
    if let Some(server) = &server {
        let addr = server.local_addr().to_string();
        for c in 0..workload.clients() {
            let mut client = Client::dial(&addr).expect("dialling the server");
            client
                .hello(&format!("bench-client-{c}"))
                .expect("greeting the server");
            wires.push(client);
        }
    }
    {
        let mut wire_iter = wires.iter_mut();
        let conns = (0..workload.clients())
            .map(|c| Conn {
                db: &db,
                wire: wire_iter.next(),
                upstream: &upstream,
                pinned: db.snapshots(),
                curator: format!("curator-{c}"),
                clock: plan.corpus.len() as u64 + 1,
                plans: PlanTotals::default(),
            })
            .collect();
        let mut state = Round {
            workload,
            db: &db,
            meter: &meter,
            dir: &dir,
            conns,
        };
        state.cycle(round_no * 1000, &plan.warmup, pass, None, None);
        for conn in &mut state.conns {
            conn.plans = PlanTotals::default();
        }
        round.setup = setup_started.elapsed();
        spans::set_recording(traced);

        // ------------------------------------------------ timed cycles
        round.before = counters(&db, &meter);
        let last = plan.cycles.len() - 1;
        for (i, cycle) in plan.cycles.iter().enumerate() {
            let capture = (i == last).then_some(image.as_path());
            state.cycle(
                round_no * 1000 + i as u64 + 1,
                cycle,
                pass,
                Some(&mut round),
                capture,
            );
        }
        round.after = counters(&db, &meter);
        for conn in &state.conns {
            round.plans.plans += conn.plans.plans;
            round.plans.rows_examined += conn.plans.rows_examined;
            round.plans.rows_returned += conn.plans.rows_returned;
            round.plans.naive_fallbacks += conn.plans.naive_fallbacks;
        }
    }

    // ------------------------------------------------ end-of-round sizes
    round.disk_bytes = meter::dir_bytes(&dir).expect("sizing the round's directory");
    for snap in db.snapshots() {
        if let Ok(state) = snap.export() {
            round.live_bytes += cdb_archive::codec::encode_value(&state).len() as u64;
        }
        let versions = f64::from(snap.archive().version_count().max(1));
        round.archive_bytes_per_version += snap.archive().encoded_size() as f64 / versions;
    }
    if let Some(server) = server {
        round.shed = server.admission().shed_count();
        for wire in &mut wires {
            let _ = wire.close();
        }
        drop(wires);
        server.drain(Duration::from_secs(5));
    }
    drop(db);

    // ------------------------------------------------ crash + reopen
    for i in 0..REOPENS {
        let copy = base.join(format!("reopen-{i}"));
        copy_dir(&image, &copy).expect("copying the crash image");
        let probe = plan
            .crash_state
            .keys()
            .next()
            .expect("the oracle holds entries");
        let root = span(spans::ROOT);
        let started = Instant::now();
        let reopened = engine::open(workload, &copy, &Meter::new());
        let first_get = reopened.as_ref().map_err(|e| e.to_string()).and_then(|db| {
            let _s = span("core.get_field");
            db.snapshots()[db.route(probe)]
                .field(probe, "gn")
                .map_err(|e| e.to_string())
        });
        let took = started.elapsed();
        drop(root);
        let outcome = first_get.and_then(|_| {
            let db = reopened.as_ref().expect("checked by first_get");
            if i == 0 {
                round.recovery = recovery_counters(db);
            }
            recovered_matches(db, plan)
        });
        pass.attempt(outcome.map_err(|e| format!("recovery {i}: {e}")));
        round.samples.recovery.push(ns(took));
        drop(reopened);
        let _ = std::fs::remove_dir_all(&copy);
    }
    spans::set_recording(false);
    let _ = std::fs::remove_dir_all(base);
    round
}

/// Runs one pass of `workload` and returns everything it measured.
/// With `traced`, spans are recorded around the timed cycles and the
/// reopens. `tag` names the pass's scratch directory under
/// `benchmark/out`.
pub fn run_pass(
    workload: Workload,
    seed: u64,
    scale: Scale,
    traced: bool,
    tag: &str,
) -> PassOutcome {
    let started = Instant::now();
    let mut pass = PassOutcome::default();
    let base: PathBuf = crate::out_dir().join(format!(
        "run-{}-{}-{tag}",
        std::process::id(),
        workload.name()
    ));
    for round_no in 0..scale.rounds as u64 {
        let t = Instant::now();
        let plan = plan::round_plan(workload, seed, round_no, scale);
        pass.generator += t.elapsed();
        let round = run_round(workload, &plan, &base, round_no, traced, &mut pass);
        pass.rounds.push(round);
    }
    pass.wall = started.elapsed();
    pass
}
