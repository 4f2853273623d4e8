//! Executing one request against the engine and checking its answer.
//!
//! Execution is timed; the answer is kept and checked against the
//! schedule's expectation afterwards, outside the timed section.

use std::time::{Duration, Instant};

use cdb_annotation::colored::Scheme;
use cdb_annotation::reverse::{find_placements, Placement, Target};
use cdb_core::views;
use cdb_core::{CuratedDatabase, DbError, Snapshot};
use cdb_curation::{queries, Origin};
use cdb_model::Atom;
use cdb_relalg::{Database, ExecConfig, PlanOp, Pred, ProjItem, RaExpr, Relation, Schema};
use cdb_semiring::{KDatabase, KRelation, Polynomial};
use cdb_server::{Client, ClientError, TcpTransport};

use crate::corpus::{self, UPSTREAM};
use crate::engine::Db;
use crate::plan::{Req, Shape, VersionRead};
use crate::spans::span;

/// The columns every relational read sees besides the key.
pub const VIEW_FIELDS: [&str; 2] = ["gn", "os"];

/// What the engine answered.
#[derive(Debug, Clone, PartialEq)]
pub enum Answer {
    /// A write was acknowledged.
    Done,
    /// A field value.
    Value(Atom),
    /// Entry keys.
    Keys(Vec<String>),
    /// Result rows, with planner actuals where a plan ran.
    Rows(Vec<Vec<Atom>>),
    /// Whether the chain holds a copy from upstream, and the last
    /// modifying transaction.
    Prov(bool, Option<u64>),
    /// The request failed, was refused, or was shed until retries ran
    /// out.
    Failed(String),
}

/// Planner actuals summed over the queries of a pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanTotals {
    /// Rows produced by all operators of all plans.
    pub rows_examined: u64,
    /// Rows the queries returned.
    pub rows_returned: u64,
    /// Plans whose root was the whole-query `Naive` fallback.
    pub naive_fallbacks: u64,
    /// Plans run.
    pub plans: u64,
}

/// A client's way to the database.
pub struct Conn<'a> {
    /// The database, for reads the protocol lacks.
    pub db: &'a Db,
    /// The TCP connection, for the wire workloads.
    pub wire: Option<&'a mut Client<TcpTransport>>,
    /// The upstream database copy-paste copies from.
    pub upstream: &'a CuratedDatabase,
    /// The snapshot in-process reads are served from; replaced after
    /// every write of this client.
    pub pinned: Vec<Snapshot>,
    /// Curator name.
    pub curator: String,
    /// Logical time of the next write.
    pub clock: u64,
    /// Planner actuals.
    pub plans: PlanTotals,
}

/// The three relational reads, over the relation `entries(ac, gn, os)`.
pub fn query_expr(shape: Shape, a: &Atom, b: &Atom) -> RaExpr {
    let entries = || RaExpr::scan("entries");
    match shape {
        Shape::Point => entries().select(Pred::col_eq_const("gn", a.clone())),
        Shape::Union => entries()
            .select(Pred::col_eq_const("gn", a.clone()))
            .project_cols(["ac", "os"])
            .union(
                entries()
                    .select(Pred::col_eq_const("gn", b.clone()))
                    .project_cols(["ac", "os"]),
            ),
        Shape::Join | Shape::KJoin | Shape::ColoredJoin => {
            RaExpr::ScanAs("entries".into(), "e1".into())
                .select(Pred::col_eq_const("e1.gn", a.clone()))
                .product(
                    RaExpr::ScanAs("entries".into(), "e2".into())
                        .select(Pred::col_eq_const("e2.gn", b.clone())),
                )
                .select(Pred::col_eq_col("e1.os", "e2.os"))
                .project(vec![
                    ProjItem::col("e1.ac", "k1"),
                    ProjItem::col("e2.ac", "k2"),
                ])
        }
    }
}

fn storage_err(e: impl std::fmt::Display) -> DbError {
    DbError::Storage(e.to_string())
}

/// Runs one relational read on one shard's snapshot.
fn query_shard(
    snap: &Snapshot,
    shape: Shape,
    expr: &RaExpr,
    totals: &mut PlanTotals,
) -> Result<Vec<Vec<Atom>>, DbError> {
    match shape {
        Shape::Point | Shape::Join | Shape::Union => {
            let _s = span("core.query_entries_planned");
            let (rel, plan, runs) = views::query_entries_planned(snap, &VIEW_FIELDS, expr)?;
            totals.plans += 1;
            totals.naive_fallbacks += u64::from(matches!(plan.op, PlanOp::Naive { .. }));
            totals.rows_examined += runs.iter().map(|r| r.rows as u64).sum::<u64>();
            totals.rows_returned += rel.len() as u64;
            Ok(rel.tuples().to_vec())
        }
        Shape::KJoin => {
            // The same plan, executed over ℕ[X]: every source tuple is
            // tagged with its own indeterminate.
            let rel = {
                let _s = span("core.entry_relation");
                views::entry_relation(snap, &VIEW_FIELDS)?
            };
            let plan = {
                let _s = span("core.plan_inputs");
                let stats = snap.planner_stats(&VIEW_FIELDS);
                let indexes = snap.relalg_index_set(&VIEW_FIELDS)?;
                let rdb = Database::new().with("entries", rel.clone());
                let _p = span("relalg.plan");
                cdb_relalg::plan(&rdb, &stats, &indexes, expr)
            };
            let _s = span("semiring.eval_k_planned");
            let tagged = KRelation::tagged(&rel, |i, _| Polynomial::var(format!("t{i}")))
                .map_err(storage_err)?;
            let kdb = KDatabase::new().with("entries", tagged);
            let out = cdb_semiring::planned::eval_k_planned(&kdb, &plan, &ExecConfig::default())
                .map_err(storage_err)?;
            Ok(out.to_relation().tuples().to_vec())
        }
        Shape::ColoredJoin => {
            let _s = span("annotation.colored_view");
            let out = views::colored_view(snap, &VIEW_FIELDS, expr, &Scheme::Default)?;
            Ok(out.to_relation().tuples().to_vec())
        }
    }
}

fn entry_prov(snap: &Snapshot, key: &str) -> Result<Answer, DbError> {
    let node = snap.entry_node(key)?;
    let chain = {
        let _s = span("curation.how_arrived");
        queries::how_arrived(&snap.curated, node)
    };
    let last = {
        let _s = span("curation.last_modified");
        queries::last_modified(&snap.curated, node)?
    };
    let copied = chain
        .iter()
        .any(|o| matches!(o, Origin::CopiedFrom { db, .. } if db == UPSTREAM));
    Ok(Answer::Prov(copied, last.map(|t| t.0)))
}

/// The side-effect-free placements of a note on the `de` cell of `row`
/// in the view `σ[gn = gn](ac, gn, de)`. The candidate relation is the
/// view's own slice of the entries (found through the `gn` index): the
/// placement search forward-propagates once per candidate cell, so over
/// the whole relation it would cost seconds per write at this size.
pub fn placements_in_gene_view(
    snap: &Snapshot,
    gn: &Atom,
    row: &[Atom],
) -> Result<Vec<Placement>, DbError> {
    let keys = snap
        .index_lookup("gn", gn)
        .ok_or_else(|| storage_err("gn is not indexed"))?;
    let schema = Schema::new(["ac", "gn", "de"]).map_err(storage_err)?;
    let mut slice = Relation::empty(schema);
    for k in keys {
        let tuple = vec![
            Atom::Str(k.clone()),
            snap.field(&k, "gn")?,
            snap.field(&k, "de")?,
        ];
        slice.insert(tuple).map_err(storage_err)?;
    }
    let rdb = Database::new().with("entries", slice);
    let view = RaExpr::scan("entries").select(Pred::col_eq_const("gn", gn.clone()));
    let target = Target {
        tuple: row.to_vec(),
        attr: "de".into(),
    };
    Ok(find_placements(&rdb, &view, &target)
        .map_err(storage_err)?
        .0)
}

/// Annotate-through-view: find where a note on one cell of the view
/// belongs in the source and attach it there.
fn annotate_view(
    conn: &mut Conn<'_>,
    gn: &Atom,
    row: &[Atom],
    text: &str,
) -> Result<Answer, DbError> {
    let Db::Single(db) = conn.db else {
        return Err(storage_err("annotate-through-view needs a single database"));
    };
    let snap = &conn.pinned[0];
    let placements = {
        let _s = span("annotation.find_placements");
        placements_in_gene_view(snap, gn, row)?
    };
    let mut placed = Vec::new();
    for p in &placements {
        let Atom::Str(key) = &p.tuple[0] else {
            return Err(storage_err("placement on a non-string key"));
        };
        let _s = span("core.annotate");
        db.annotate(key, Some(&p.attr), &conn.curator, text, conn.clock)?;
        placed.push(format!("{key}/{}", p.attr));
    }
    Ok(Answer::Keys(placed))
}

fn wire_result<T>(r: Result<T, ClientError>) -> Result<T, DbError> {
    r.map_err(storage_err)
}

/// Retries a shed request a few times, as a curator's client would.
fn with_retries<T>(mut call: impl FnMut() -> Result<T, ClientError>) -> Result<T, ClientError> {
    let mut left = 3;
    loop {
        match call() {
            Err(ClientError::Shed { after_hint_ms }) if left > 0 => {
                left -= 1;
                std::thread::sleep(Duration::from_millis(u64::from(after_hint_ms)));
            }
            other => return other,
        }
    }
}

impl Conn<'_> {
    /// Replaces the pinned snapshots. Dropping the old ones may free a
    /// whole epoch (this client can hold its last reference), so the
    /// span covers the drop too.
    fn repin(&mut self) {
        let _s = span("core.snapshot_swap");
        self.pinned = self.db.snapshots();
    }

    fn snap_for(&self, key: &str) -> &Snapshot {
        &self.pinned[self.db.route(key)]
    }

    /// Publishes a version: over the wire where there is one.
    pub fn publish(&mut self, label: &str) -> Result<u32, DbError> {
        match self.wire.as_mut() {
            Some(wire) => {
                let _s = span("server.publish");
                wire_result(with_retries(|| wire.publish(label)))
            }
            None => self.db.publish(label),
        }
    }

    /// Executes `req`; returns the engine's answer and how long the
    /// request took. Never panics on an engine error.
    ///
    /// Taking the snapshot a read is served from is not part of the
    /// request: a client re-pins after each of its own writes (as a
    /// server session does), and whoever drops the last reference to
    /// an old epoch pays for freeing it — here, outside the sample.
    pub fn execute(&mut self, req: &Req) -> (Answer, Duration) {
        let in_process_read = matches!(req, Req::Query { .. } | Req::Prov { .. });
        if self.wire.is_some() && in_process_read {
            self.repin();
        }
        let started = Instant::now();
        let out = if self.wire.is_some() && !in_process_read {
            self.execute_wire(req)
        } else {
            self.execute_local(req)
        };
        let took = started.elapsed();
        if req.is_write() {
            self.clock += 1;
            if self.wire.is_none() {
                self.repin();
            }
        }
        (out.unwrap_or_else(|e| Answer::Failed(e.to_string())), took)
    }

    fn execute_wire(&mut self, req: &Req) -> Result<Answer, DbError> {
        let (curator, time) = (self.curator.clone(), self.clock);
        let wire = self.wire.as_mut().expect("checked by the caller");
        match req {
            Req::Get { key, field, .. } => {
                let _s = span("server.get");
                let (_, v) = wire_result(with_retries(|| wire.get(key, field)))?;
                Ok(Answer::Value(v))
            }
            Req::Edit { key, field, value } => {
                let _s = span("server.edit");
                wire_result(with_retries(|| {
                    wire.edit(&curator, time, key, field, value.clone())
                }))?;
                Ok(Answer::Done)
            }
            Req::Add { key, fields } => {
                let _s = span("server.add");
                let fields: Vec<(String, Atom)> =
                    fields.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
                wire_result(with_retries(|| {
                    wire.add(&curator, time, key, fields.clone())
                }))?;
                Ok(Answer::Done)
            }
            Req::Annotate { key, field, text } => {
                let _s = span("server.annotate");
                wire_result(with_retries(|| {
                    wire.annotate(key, field.as_deref(), &curator, text, time)
                }))?;
                Ok(Answer::Done)
            }
            Req::Merge { kept, absorbed } => {
                let _s = span("server.merge");
                wire_result(with_retries(|| wire.merge(&curator, time, kept, absorbed)))?;
                Ok(Answer::Done)
            }
            Req::Delete { key } => {
                let _s = span("server.delete");
                wire_result(with_retries(|| wire.delete(&curator, time, key)))?;
                Ok(Answer::Done)
            }
            Req::Entries { .. } => {
                let _s = span("server.entries");
                let (_, keys) = wire_result(with_retries(|| wire.entries()))?;
                Ok(Answer::Keys(keys))
            }
            // Reads the protocol lacks go in-process (see `execute`).
            Req::Query { .. }
            | Req::Prov { .. }
            | Req::CopyPaste { .. }
            | Req::AnnotateView { .. }
            | Req::Split { .. } => Err(storage_err("the wire protocol has no such request")),
        }
    }

    fn execute_local(&mut self, req: &Req) -> Result<Answer, DbError> {
        let (curator, time) = (self.curator.clone(), self.clock);
        match req {
            Req::Get { key, field, .. } => {
                let _s = span("core.get_field");
                Ok(Answer::Value(self.snap_for(key).field(key, field)?))
            }
            Req::Entries { .. } => {
                let _s = span("core.entry_keys");
                let mut keys = Vec::new();
                for s in &self.pinned {
                    keys.extend(s.entry_keys()?);
                }
                Ok(Answer::Keys(keys))
            }
            Req::Query { shape, a, b, .. } => {
                let expr = query_expr(*shape, a, b);
                let mut rows = Vec::new();
                for s in &self.pinned {
                    rows.extend(query_shard(s, *shape, &expr, &mut self.plans)?);
                }
                Ok(Answer::Rows(rows))
            }
            Req::Prov { key, .. } => entry_prov(self.snap_for(key), key),
            Req::AnnotateView { gn, row, text, .. } => annotate_view(self, gn, row, text),
            write => {
                let Db::Single(db) = self.db else {
                    return Err(storage_err("in-process writes need a single database"));
                };
                match write {
                    Req::Edit { key, field, value } => {
                        let _s = span("core.edit_field");
                        db.edit_field(&curator, time, key, field, value.clone())?;
                    }
                    Req::Add { key, fields } => {
                        let _s = span("core.add_entry");
                        db.add_entry(&curator, time, key, &corpus::borrowed(fields))?;
                    }
                    Req::Annotate { key, field, text } => {
                        let _s = span("core.annotate");
                        db.annotate(key, field.as_deref(), &curator, text, time)?;
                    }
                    Req::Merge { kept, absorbed } => {
                        let _s = span("core.merge_entries");
                        db.merge_entries(&curator, time, kept, absorbed)?;
                    }
                    Req::Delete { key } => {
                        let _s = span("core.delete_entry");
                        db.delete_entry(&curator, time, key)?;
                    }
                    Req::CopyPaste { src, dst } => {
                        let clip = {
                            let _s = span("curation.copy");
                            let node = self.upstream.entry_node(src)?;
                            self.upstream.curated.copy(node)?
                        };
                        let _s = span("core.import_entry");
                        db.import_entry(&curator, time, dst, &clip)?;
                    }
                    Req::Split { original, parts } => {
                        let _s = span("core.split_entry");
                        let parts: Vec<(&str, Vec<(&str, Atom)>)> = parts
                            .iter()
                            .map(|(k, f)| (k.as_str(), corpus::borrowed(f)))
                            .collect();
                        db.split_entry(&curator, time, original, &parts)?;
                    }
                    _ => unreachable!("reads are handled above"),
                }
                Ok(Answer::Done)
            }
        }
    }
}

/// Checks an answer against the schedule. `own` says whether a key
/// belongs to the asking client: answers are compared on those only.
pub fn check(req: &Req, answer: &Answer, own: impl Fn(&str) -> bool) -> Result<(), String> {
    let is_own = |a: &Atom| matches!(a, Atom::Str(k) if own(k));
    let wrong = || Err(format!("{req:?} answered {answer:?}"));
    match (req, answer) {
        (_, Answer::Failed(_)) => wrong(),
        (Req::Get { expect, .. }, Answer::Value(v)) if v == expect => Ok(()),
        (Req::Entries { expect }, Answer::Keys(keys)) => {
            let mut mine: Vec<&String> = keys.iter().filter(|k| own(k)).collect();
            mine.sort();
            if mine.iter().copied().eq(expect.iter()) {
                Ok(())
            } else {
                wrong()
            }
        }
        (Req::Query { shape, expect, .. }, Answer::Rows(rows)) => {
            let key_cols = if *shape == Shape::Point || *shape == Shape::Union {
                1
            } else {
                2
            };
            let mut mine: Vec<&Vec<Atom>> = rows
                .iter()
                .filter(|r| r[..key_cols].iter().all(is_own))
                .collect();
            mine.sort();
            mine.dedup();
            if mine.iter().copied().eq(expect.iter()) {
                Ok(())
            } else {
                wrong()
            }
        }
        (
            Req::Prov {
                copied, last_txn, ..
            },
            Answer::Prov(c, last),
        ) => {
            let last_ok = match last_txn {
                Some(exact) => last == exact,
                None => last.is_some(),
            };
            if c == copied && last_ok {
                Ok(())
            } else {
                wrong()
            }
        }
        (Req::AnnotateView { key, .. }, Answer::Keys(placed)) => {
            if placed.len() == 1 && placed[0] == format!("{key}/de") {
                Ok(())
            } else {
                wrong()
            }
        }
        (r, Answer::Done) if r.is_write() => Ok(()),
        _ => wrong(),
    }
}

/// Executes one version read; returns an error text on a wrong answer.
pub fn version_read(db: &Db, read: &VersionRead) -> Result<(), String> {
    let snaps = db.snapshots();
    let fail = |e: DbError| format!("{read:?} failed: {e}");
    match read {
        VersionRead::Version {
            v,
            len,
            key,
            field,
            expect,
        } => {
            let mut total = 0;
            let mut found = None;
            for s in &snaps {
                let value = {
                    let _s = span("archive.retrieve");
                    s.version(*v).map_err(fail)?
                };
                let set = value.as_set().ok_or("a version is a set of entries")?;
                total += set.len();
                found = found.or_else(|| {
                    set.iter()
                        .find(|e| {
                            e.field(corpus::KEY_FIELD).and_then(|k| k.as_atom())
                                == Some(&Atom::Str(key.clone()))
                        })
                        .and_then(|e| e.field(field)?.as_atom().cloned())
                });
            }
            if total == *len && found.as_ref() == Some(expect) {
                Ok(())
            } else {
                Err(format!("{read:?} answered {total} entries, {found:?}"))
            }
        }
        VersionRead::Cite { v, key, label } => {
            let _s = span("archive.cite");
            let c = snaps[db.route(key)].cite(*v, key).map_err(fail)?;
            if c.version == *v && &c.version_label == label {
                Ok(())
            } else {
                Err(format!("{read:?} answered {c:?}"))
            }
        }
        VersionRead::Series { key, field, expect } => {
            let _s = span("archive.field_series");
            let got = snaps[db.route(key)]
                .field_series(key, field)
                .map_err(fail)?;
            if &got == expect {
                Ok(())
            } else {
                Err(format!("{read:?} answered {got:?}"))
            }
        }
    }
}
