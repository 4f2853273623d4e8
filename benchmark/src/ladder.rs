//! The layer ladder: the same operation timed on every rung from the
//! TCP client down to a bare `CuratedTree`, plus direct timings of the
//! public functions a request passes through.
//!
//! Rungs (for one field edit): TCP client → `ServeHandle` →
//! `ShardedDb` → owning `SharedDb` (durable) → in-memory `SharedDb` →
//! `CuratedDatabase` → `CuratedTree`. A layer's own cost is the
//! difference between its rung and the next one down; each rung runs
//! on a twin holding the workload's corpus, so the differences carry
//! the workload's size. Everything here is measured from outside.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use cdb_annotation::colored::{eval_colored, ColoredDatabase, Scheme};
use cdb_archive::{Archive, Citation};
use cdb_core::{views, CuratedDatabase, SharedDb};
use cdb_curation::{ops::CuratedTree, queries, wire};
use cdb_model::{Atom, KeySpec};
use cdb_relalg::{Database, ExecConfig, RaExpr, Relation};
use cdb_semiring::{KDatabase, KRelation, Polynomial};
use cdb_server::{Client, Request, Response, ServeHandle, Server, ServerConfig};

use crate::corpus::{Fields, DB_NAME, KEY_FIELD};
use crate::engine::{self, Db};
use crate::exec::{placements_in_gene_view, query_expr, VIEW_FIELDS};
use crate::meter::Meter;
use crate::plan::{Shape, Workload};
use crate::rng::Rng;
use crate::spans::span;
use crate::stats::median;

/// Ladder results: metric name → value, in the metric's unit.
pub type Rungs = BTreeMap<&'static str, f64>;

/// Median duration of `n` calls, in nanoseconds.
fn p50(n: usize, mut call: impl FnMut(usize)) -> f64 {
    let samples: Vec<f64> = (0..n)
        .map(|i| {
            let t = Instant::now();
            call(i);
            t.elapsed().as_nanos() as f64
        })
        .collect();
    median(&samples)
}

/// Mean duration of `n` back-to-back calls, for calls too short to
/// time one by one.
fn mean(n: usize, mut call: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        call(i);
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

fn loaded(entries: &[(String, Fields)], indexed: bool) -> CuratedDatabase {
    engine::in_memory(DB_NAME, entries, indexed)
}

/// How often each rung repeats its operation.
#[derive(Debug, Clone, Copy)]
pub struct Reps {
    /// Writes per rung.
    pub writes: usize,
    /// Cheap reads per rung.
    pub reads: usize,
    /// O(db) view steps and evaluations.
    pub views: usize,
    /// Merges of each kind.
    pub merges: usize,
}

impl Reps {
    /// The repetitions of a normal traced run.
    pub const FULL: Reps = Reps {
        writes: 60,
        reads: 400,
        views: 7,
        merges: 9,
    };
    /// The repetitions of a smoke run.
    pub const QUICK: Reps = Reps {
        writes: 8,
        reads: 40,
        views: 2,
        merges: 3,
    };
}

/// Runs every ladder for `workload` over `entries`, with scratch files
/// under `dir`.
pub fn run(workload: Workload, entries: &[(String, Fields)], dir: &Path, reps: Reps) -> Rungs {
    let mut out = Rungs::new();
    let map = Workload::WireSmall.shard_map();
    // The database a write lands on in this workload: one shard's share
    // for the wire workloads, the whole corpus otherwise.
    let landing: Vec<(String, Fields)> = if workload.is_wire() {
        entries
            .iter()
            .filter(|(k, _)| map.route(k) == 0)
            .cloned()
            .collect()
    } else {
        entries.to_vec()
    };
    durable_rungs(entries, dir, reps, &mut out);
    memory_rungs(&landing, reps, &mut out);
    read_rungs(&landing, reps, &mut out);
    archive_rungs(&landing, reps, &mut out);
    out
}

/// The edit the write rungs repeat: entry `i` of `keys`, field `de`.
fn edit_value(i: usize) -> Atom {
    Atom::Str(format!("LADDER REVISION {i:08}"))
}

/// Rungs over a durable two-shard twin: TCP, `ServeHandle`,
/// `ShardedDb`, the owning `SharedDb`; merges and two-phase commit.
fn durable_rungs(entries: &[(String, Fields)], dir: &Path, reps: Reps, out: &mut Rungs) {
    let _s = span("bench.ladder.durable");
    let workload = Workload::WireSmall; // the two-shard topology
    std::fs::create_dir_all(dir).expect("creating the ladder directory");
    let meter = Meter::new();
    engine::load(workload, dir, &meter, entries).expect("loading the ladder twin");
    let db = engine::open(workload, dir, &meter).expect("opening the ladder twin");
    db.create_indexes().expect("indexing the ladder twin");
    let Db::Sharded(sharded) = &db else {
        unreachable!("the wire topology is sharded")
    };
    let map = sharded.map().clone();
    let on_zero: Vec<&String> = entries
        .iter()
        .map(|(k, _)| k)
        .filter(|k| map.route(k) == 0)
        .collect();
    let on_one: Vec<&String> = entries
        .iter()
        .map(|(k, _)| k)
        .filter(|k| map.route(k) == 1)
        .collect();
    let key = |i: usize| on_zero[i % on_zero.len()].as_str();

    let server = Server::bind(sharded.clone(), "127.0.0.1:0", ServerConfig::default())
        .expect("binding the ladder server");
    let addr = server.local_addr().to_string();
    let connect = p50(5, |i| {
        let mut c = Client::dial(&addr).expect("dialling the ladder server");
        c.hello(&format!("ladder-{i}")).expect("greeting");
        c.close().expect("closing");
    });
    out.insert("server.connect_ms", connect / 1e6);
    let mut client = Client::dial(&addr).expect("dialling the ladder server");
    client.hello("ladder").expect("greeting");

    // The four write rungs take turns in short blocks: every commit
    // lengthens the twin's history (and with it the next commit's
    // clone), so rungs run one after the other would not be comparable.
    // The first edit of a block is not sampled: who frees the displaced
    // snapshot epoch depends on who still pins it (the TCP session pins
    // the epoch of its last write), and that settles after one edit.
    const BLOCK: usize = 3;
    let handle = ServeHandle::from(sharded.clone());
    let owner = &sharded.shard()[0];
    let mut edits: [Vec<f64>; 4] = Default::default();
    let mut i = 0;
    for _turn in 0..reps.writes.div_ceil(BLOCK - 1) {
        for (rung, samples) in edits.iter_mut().enumerate() {
            for nth in 0..BLOCK {
                i += 1;
                let (k, v, time) = (key(i), edit_value(i), i as u64);
                let t = Instant::now();
                match rung {
                    0 => {
                        let _s = span("server.ladder.tcp_edit");
                        client
                            .edit("ladder", time, k, "de", v)
                            .expect("edit over TCP");
                    }
                    1 => {
                        let _s = span("server.ladder.handle_edit");
                        handle
                            .edit_field("ladder", time, k, "de", v)
                            .expect("edit on the handle");
                    }
                    2 => {
                        let _s = span("core.ladder.sharded_edit");
                        sharded
                            .edit_field("ladder", time, k, "de", v)
                            .expect("edit on the sharded database");
                    }
                    _ => {
                        let _s = span("core.ladder.shard_edit");
                        owner
                            .edit_field("ladder", time, k, "de", v)
                            .expect("edit on the owning shard");
                    }
                }
                if nth > 0 {
                    samples.push(t.elapsed().as_nanos() as f64);
                }
            }
        }
    }
    let [tcp_edit, handle_edit, sharded_edit, owner_edit] = edits.map(|v| median(&v));
    client.refresh().expect("re-pinning the ladder session");
    let tcp_get = p50(reps.reads, |i| {
        let _s = span("server.ladder.tcp_get");
        client.get(key(i), "de").expect("get over TCP");
    });
    let pinned = handle.snapshot();
    let handle_get = p50(reps.reads, |i| {
        let _s = span("server.ladder.handle_get");
        pinned.field(key(i), "de").expect("get on the handle");
    });
    out.insert("server.wire_overhead_us", (tcp_edit - handle_edit) / 1e3);
    out.insert("server.get_overhead_us", (tcp_get - handle_get) / 1e3);
    out.insert("core.sharded_route_us", (sharded_edit - owner_edit) / 1e3);

    // Merges: absorbed entries come from the tail of each shard's keys,
    // kept entries from the head, so no key is used twice.
    let n = reps.merges.min(on_zero.len() / 4).min(on_one.len() / 4);
    let same = p50(n, |i| {
        let _s = span("core.ladder.same_merge");
        sharded
            .merge_entries(
                "ladder",
                i as u64,
                on_zero[i],
                on_zero[on_zero.len() - 1 - i],
            )
            .expect("same-shard merge");
    });
    let cross = p50(n, |i| {
        let _s = span("core.ladder.cross_merge");
        sharded
            .merge_entries(
                "ladder",
                i as u64,
                on_zero[n + i],
                on_one[on_one.len() - 1 - i],
            )
            .expect("cross-shard merge");
    });
    out.insert("core.same_merge_ms", same / 1e6);
    out.insert("core.cross_merge_ms", cross / 1e6);

    let snapshot_us = mean(200, |_| {
        std::hint::black_box(sharded.metrics_snapshot());
    });
    out.insert("obs.metrics_snapshot_us", snapshot_us / 1e3);
    let reg = sharded.metrics_snapshot();
    let mean_of = |name: &str| {
        let (sum, count) = crate::runner::histogram(&reg, name);
        sum as f64 / count.max(1) as f64
    };
    out.insert(
        "core.twopc_prepare_us",
        mean_of("core.twopc.prepare_ns") / 1e3,
    );
    out.insert(
        "core.twopc_decide_us",
        mean_of("core.twopc.decide_ns") / 1e3,
    );
    out.insert(
        "server.admission_wait_us",
        mean_of("server.admission.wait_ns") / 1e3,
    );
    out.insert("server.shed_count", server.admission().shed_count() as f64);

    // The request and response codecs, timed directly.
    let request = Request::Edit {
        curator: "ladder".into(),
        time: 1,
        key: key(0).to_owned(),
        field: "de".into(),
        value: edit_value(0),
    };
    let response = Response::Value {
        epoch: 1,
        value: edit_value(0),
    };
    let (req_bytes, resp_bytes) = (request.encode(), response.encode());
    let encode = mean(4000, |_| {
        std::hint::black_box(request.encode());
        std::hint::black_box(response.encode());
    });
    let decode = mean(4000, |_| {
        std::hint::black_box(Request::decode(&req_bytes).expect("decoding a request"));
        std::hint::black_box(Response::decode(&resp_bytes).expect("decoding a response"));
    });
    out.insert("server.proto_encode_ns", encode / 2.0);
    out.insert("server.proto_decode_ns", decode / 2.0);

    let _ = client.close();
    drop(client);
    server.drain(Duration::from_secs(5));
    drop(db);
    let _ = std::fs::remove_dir_all(dir);
}

/// Rungs over in-memory twins of the database a write lands on:
/// `SharedDb`, `CuratedDatabase` with and without indexes, and a bare
/// `CuratedTree`.
fn memory_rungs(landing: &[(String, Fields)], reps: Reps, out: &mut Rungs) {
    let _s = span("bench.ladder.memory");
    let key = |i: usize| landing[i % landing.len()].0.as_str();

    let shared = SharedDb::from_db(loaded(landing, true));
    let shared_edit = p50(reps.writes, |i| {
        let _s = span("core.ladder.memory_edit");
        shared
            .edit_field("ladder", i as u64, key(i), "de", edit_value(i))
            .expect("edit on the in-memory shared twin");
    });
    out.insert(
        "core.snapshot_ns",
        mean(2000, |_| {
            std::hint::black_box(shared.snapshot());
        }),
    );
    drop(shared);

    let mut indexed = loaded(landing, true);
    let indexed_edit = p50(reps.writes, |i| {
        let _s = span("curation.ladder.database_edit");
        indexed
            .edit_field("ladder", i as u64, key(i), "de", edit_value(i))
            .expect("edit on the database twin");
    });
    // The index tax shows on a field that is indexed.
    let gn = |i: usize| Atom::Str(format!("GN{}", i % 311));
    let taxed = p50(reps.writes, |i| {
        indexed
            .edit_field("ladder", i as u64, key(i), "gn", gn(i))
            .expect("edit of an indexed field");
    });
    let mut plain = loaded(landing, false);
    let untaxed = p50(reps.writes, |i| {
        plain
            .edit_field("ladder", i as u64, key(i), "gn", gn(i))
            .expect("edit without indexes");
    });
    out.insert(
        "core.publish_snapshot_us",
        (shared_edit - indexed_edit) / 1e3,
    );
    out.insert("core.reindex_write_tax_us", (taxed - untaxed) / 1e3);

    // The bottom rung: the same edit, and a paste, on a bare tree.
    let mut tree: CuratedTree = plain.curated.clone();
    let nodes: Vec<_> = (0..reps.writes)
        .map(|i| {
            let entry = plain.entry_node(key(i)).expect("twin entries exist");
            tree.tree
                .child_by_label(entry, "de")
                .expect("live entry")
                .expect("entries have a description")
        })
        .collect();
    let txn = p50(reps.writes, |i| {
        let _s = span("curation.ladder.tree_edit");
        let mut t = tree.begin("ladder", i as u64);
        t.modify(nodes[i], Some(edit_value(i)))
            .expect("modify on the tree");
        t.commit();
    });
    out.insert("curation.txn_us", txn / 1e3);
    let clip = plain
        .curated
        .copy(plain.entry_node(key(0)).expect("twin entries exist"))
        .expect("copying an entry");
    let root = tree.tree.root();
    let paste = p50(reps.writes, |i| {
        let _s = span("curation.ladder.tree_paste");
        let mut t = tree.begin("ladder", i as u64);
        t.paste(root, &clip).expect("paste on the tree");
        t.commit();
    });
    out.insert("curation.paste_us", paste / 1e3);

    // Provenance queries and the transaction codec on the same tree.
    let entry_nodes: Vec<_> = (0..reps.reads.min(landing.len()))
        .map(|i| plain.entry_node(key(i)).expect("twin entries exist"))
        .collect();
    let prov = p50(entry_nodes.len(), |i| {
        let _s = span("curation.ladder.prov_query");
        std::hint::black_box(queries::how_arrived(&plain.curated, entry_nodes[i]));
        std::hint::black_box(
            queries::last_modified(&plain.curated, entry_nodes[i]).expect("live node"),
        );
    });
    out.insert("curation.prov_query_us", prov / 1e3);
    let txns = plain.curated.transactions();
    let tail = &txns[txns.len() - reps.writes.min(txns.len())..];
    let mut bytes = 0usize;
    let encode = mean(tail.len(), |i| {
        bytes += std::hint::black_box(wire::encode_transaction(&tail[i])).len();
    });
    out.insert("curation.wire_encode_ns", encode);
    out.insert(
        "curation.wire_bytes_per_txn",
        bytes as f64 / tail.len() as f64,
    );
}

/// Direct timings of the read path on a held snapshot: the three O(db)
/// steps of `query_entries_planned` one by one, planning, execution,
/// the K-relation and colour evaluations, reverse placement.
fn read_rungs(landing: &[(String, Fields)], reps: Reps, out: &mut Rungs) {
    let _s = span("bench.ladder.reads");
    let shared = SharedDb::from_db(loaded(landing, true));
    let snap = shared.snapshot();
    let key = |i: usize| landing[i % landing.len()].0.as_str();
    let mut rng = Rng::stream("ladder", landing.len() as u64, 0, 0);

    out.insert(
        "core.get_field_us",
        p50(reps.reads, |i| {
            let _s = span("core.ladder.get_field");
            std::hint::black_box(snap.field(key(i), "de").expect("twin entries exist"));
        }) / 1e3,
    );
    let gn_of = |i: usize| landing[i % landing.len()].1["gn"].clone();
    out.insert(
        "core.index_lookup_us",
        p50(reps.reads, |i| {
            let _s = span("core.ladder.index_lookup");
            std::hint::black_box(snap.index_lookup("gn", &gn_of(i)));
        }) / 1e3,
    );

    let mut rel = None;
    out.insert(
        "core.entry_relation_ms",
        p50(reps.views, |_| {
            let _s = span("core.ladder.entry_relation");
            rel = Some(views::entry_relation(&snap, &VIEW_FIELDS).expect("entry relation"));
        }) / 1e6,
    );
    let rel: Relation = rel.expect("at least one repetition");
    let mut stats = None;
    out.insert(
        "core.planner_stats_ms",
        p50(reps.views, |_| {
            let _s = span("core.ladder.planner_stats");
            stats = Some(snap.planner_stats(&VIEW_FIELDS));
        }) / 1e6,
    );
    let mut indexes = None;
    out.insert(
        "core.index_set_ms",
        p50(reps.views, |_| {
            let _s = span("core.ladder.index_set");
            indexes = Some(snap.relalg_index_set(&VIEW_FIELDS).expect("index set"));
        }) / 1e6,
    );
    let (stats, indexes) = (stats.expect("ran"), indexes.expect("ran"));
    let rdb = Database::new().with("entries", rel.clone());

    // Constants as the workloads choose them: two genes of one organism.
    let shapes = [Shape::Point, Shape::Join, Shape::Union];
    let exprs: Vec<RaExpr> = (0..reps.views * shapes.len())
        .map(|i| {
            let x = rng.below(landing.len());
            let y = (x + 1 + rng.below(landing.len() - 1)) % landing.len();
            query_expr(shapes[i % shapes.len()], &gn_of(x), &gn_of(y))
        })
        .collect();
    let mut plans = Vec::new();
    out.insert(
        "relalg.plan_us",
        p50(exprs.len(), |i| {
            let _s = span("relalg.ladder.plan");
            plans.push(cdb_relalg::plan(&rdb, &stats, &indexes, &exprs[i]));
        }) / 1e3,
    );
    out.insert(
        "relalg.exec_ms",
        p50(plans.len(), |i| {
            let _s = span("relalg.ladder.exec");
            std::hint::black_box(
                cdb_relalg::eval_plan(&rdb, &plans[i], &indexes, &ExecConfig::default())
                    .expect("executing a plan"),
            );
        }) / 1e6,
    );

    // The join over ℕ[X] and with colours: evaluation only, the
    // relation is already built.
    let join = query_expr(Shape::Join, &gn_of(0), &gn_of(1));
    let join_plan = cdb_relalg::plan(&rdb, &stats, &indexes, &join);
    let tagged = KRelation::tagged(&rel, |i, _| Polynomial::var(format!("t{i}")))
        .expect("tagging the entry relation");
    let kdb = KDatabase::new().with("entries", tagged);
    out.insert(
        "semiring.krel_eval_ms",
        p50(reps.views, |_| {
            let _s = span("semiring.ladder.eval_k_planned");
            std::hint::black_box(
                cdb_semiring::planned::eval_k_planned(&kdb, &join_plan, &ExecConfig::default())
                    .expect("K-relation evaluation"),
            );
        }) / 1e6,
    );
    let cdb = ColoredDatabase::distinctly_colored(&rdb);
    out.insert(
        "annotation.colored_eval_ms",
        p50(reps.views, |_| {
            let _s = span("annotation.ladder.eval_colored");
            std::hint::black_box(
                eval_colored(&cdb, &join, &Scheme::Default).expect("colour evaluation"),
            );
        }) / 1e6,
    );

    // Reverse placement on the slice of entries that share a gene.
    out.insert(
        "annotation.reverse_placement_ms",
        p50(reps.writes, |i| {
            let _s = span("annotation.ladder.find_placements");
            let (key, fields) = &landing[i % landing.len()];
            let gn = &fields["gn"];
            let row = [Atom::Str(key.clone()), gn.clone(), fields["de"].clone()];
            std::hint::black_box(
                placements_in_gene_view(&snap, gn, &row).expect("placement search"),
            );
        }) / 1e6,
    );
}

/// The archive and the release check on their own: merge versions of
/// the landing database into a fresh archive, then retrieve and cite.
fn archive_rungs(landing: &[(String, Fields)], reps: Reps, out: &mut Rungs) {
    let _s = span("bench.ladder.archive");
    let mut db = loaded(landing, false);
    // Successive releases; 5 % of the entries change between two.
    let releases: Vec<_> = (0..reps.views.max(2))
        .map(|v| {
            for i in 0..landing.len().div_ceil(20) {
                let key = &landing[(v * 31 + i * 7) % landing.len()].0;
                let stamp = v * 1000 + i;
                db.edit_field("ladder", stamp as u64, key, "cc", edit_value(stamp))
                    .expect("editing between releases");
            }
            db.export().expect("exporting a release")
        })
        .collect();
    let spec = KeySpec::new().rule(Vec::<String>::new(), [KEY_FIELD]);
    let mut alone = Archive::new(DB_NAME, spec);
    out.insert(
        "archive.add_version_ms",
        p50(releases.len(), |v| {
            let _s = span("archive.ladder.add_version");
            alone
                .add_version(&releases[v], format!("ladder-{v}"))
                .expect("archiving a release");
        }) / 1e6,
    );
    out.insert(
        "archive.retrieve_ms",
        p50(reps.views * 2, |i| {
            let _s = span("archive.ladder.retrieve");
            std::hint::black_box(
                alone
                    .retrieve((i % releases.len()) as u32)
                    .expect("retrieving a version"),
            );
        }) / 1e6,
    );
    out.insert(
        "archive.cite_us",
        p50(reps.views * 2, |i| {
            let _s = span("archive.ladder.cite");
            let path = db.entry_key_path(&landing[i % landing.len()].0);
            std::hint::black_box(
                Citation::cite(&alone, (i % releases.len()) as u32, &path, Vec::new())
                    .expect("citing an entry"),
            );
        }) / 1e3,
    );
    let last = releases.len() - 1;
    out.insert(
        "schema.release_check_ms",
        p50(reps.views, |_| {
            let _s = span("schema.ladder.release_check");
            let new = cdb_schema::infer::type_of(&releases[last]);
            let old = cdb_schema::infer::type_of(&releases[last - 1]);
            std::hint::black_box(new.is_subtype_of(&old));
        }) / 1e6,
    );
}
