//! Relational views over a curated database, with annotation
//! propagation in both directions (§2).
//!
//! Users see curated data through *views* — here, flat relations over
//! entry fields. Annotations made on a view must be carried **back** to
//! the source (reverse propagation, §2.2) and **forward** to other
//! views. [`annotate_through_view`] implements the full loop: find a
//! side-effect-free placement for the view annotation (via
//! `cdb-annotation`), and attach the note to the placed source field.
//!
//! The read-only views take a [`DbState`], so a live
//! [`CuratedDatabase`] and a [`crate::Snapshot`] both pass by deref.

use std::collections::BTreeMap;

use cdb_annotation::colored::{ColoredRelation, ColoredTuple, Scheme};
use cdb_annotation::reverse::{find_placements, Target};
use cdb_curation::NodeId;
use cdb_model::Atom;
use cdb_obs::SpanGuard;
use cdb_relalg::{ColumnIndex, Database, IndexSet, PhysPlan, PlanOp, RaExpr, Relation, Schema};

use crate::db::{CuratedDatabase, DbError, DbState};

/// The schema of the entries relation: `[key_field, fields…]`.
fn entries_schema(db: &DbState, fields: &[&str]) -> Result<Schema, DbError> {
    let attrs = std::iter::once(db.key_field()).chain(fields.iter().copied());
    Ok(Schema::new(attrs.map(str::to_owned))?)
}

/// One row per given entry, in the order given: the key, then `fields`
/// read off the entry's node. Every row a relational view holds is
/// built here and counted in `core.view.rows_materialised`, so a test
/// can bound a read by the rows it built.
fn materialise<'a>(
    db: &'a DbState,
    fields: &[&str],
    entries: impl Iterator<Item = (&'a str, NodeId)>,
) -> Result<Relation, DbError> {
    let mut span = SpanGuard::enter("core.view.entry_relation");
    let mut rel = Relation::empty(entries_schema(db, fields)?);
    for (key, node) in entries {
        let cells = fields.iter().map(|f| db.view_value(key, node, f));
        rel.insert(
            std::iter::once(Atom::Str(key.to_owned()))
                .chain(cells)
                .collect(),
        )?;
    }
    span.set_attr(rel.len() as u64);
    cdb_obs::global()
        .counter("core.view.rows_materialised")
        .add(rel.len() as u64);
    Ok(rel)
}

/// The flat relation of all entries over the given fields: schema is
/// `[key_field, fields…]`; entries missing a field get `Unit`. One walk
/// over the entries, each row read off its own node.
pub fn entry_relation(db: &DbState, fields: &[&str]) -> Result<Relation, DbError> {
    materialise(db, fields, db.entries()?.into_iter())
}

/// The entries an index-only `plan` can reach: when every leaf is an
/// [`PlanOp::IndexLookup`], the union of the postings it names, in tree
/// order. `None` when any leaf scans (or the plan fell back to the
/// reference evaluator), which needs every entry.
fn lookup_slice<'a>(db: &'a DbState, plan: &PhysPlan) -> Option<BTreeMap<NodeId, &'a str>> {
    let mut slice = BTreeMap::new();
    for op in plan.ops() {
        match op {
            PlanOp::Scan { .. } | PlanOp::ScanAs { .. } | PlanOp::Naive { .. } => return None,
            PlanOp::IndexLookup { col, key, .. } => {
                for k in db.field_index(col)?.posting(key) {
                    slice.insert(db.entry_node(k).ok()?, k);
                }
            }
            _ => {}
        }
    }
    Some(slice)
}

/// Plans and runs a query over the entries relation with the cost-based
/// planner, reading no more entries than the plan needs.
///
/// The plan comes first and touches no entry: the schema is
/// `[key_field, fields…]`, statistics come from
/// [`DbState::planner_stats`] (entry count from the primary index,
/// per-indexed-field distincts from the postings) and the access paths
/// are the registered indexes on view columns. If every leaf of the
/// chosen plan is an index lookup, only the entries in those postings
/// are materialised, each found through the primary index; any other
/// plan gets the full [`entry_relation`]. Either way the plan then runs
/// over the rows it was given with each lookup as the selection
/// `σ[col = key]` it stands for, so the result is the one the reference
/// evaluator computes over the full relation. Returns the canonical
/// result plus the physical plan and its per-operator actuals, so
/// callers (cdbsh `explain`) can show estimates against reality.
///
/// The query sees one relation named `entries` with schema
/// `[key_field, fields…]`, exactly as [`entry_relation`] builds it.
pub fn query_entries_planned(
    db: &DbState,
    fields: &[&str],
    q: &RaExpr,
) -> Result<(Relation, PhysPlan, Vec<cdb_relalg::PlanRun>), DbError> {
    let _trace = cdb_obs::trace_root();
    let _query = SpanGuard::enter("core.view.query");
    let (catalog, stats, indexed) = {
        let _s = SpanGuard::enter("core.view.plan_inputs");
        let schema = entries_schema(db, fields)?;
        // Which view columns are indexed is all the planner asks of an
        // index; the postings stay in `db`.
        let mut indexed = IndexSet::new();
        for idx in db.indexes.iter() {
            if let Some(col) = schema.attrs().iter().position(|a| a == idx.field()) {
                indexed.add(ColumnIndex::from_postings("entries", idx.field(), col, []));
            }
        }
        let catalog = Database::new().with("entries", Relation::empty(schema));
        (catalog, db.planner_stats(fields), indexed)
    };
    let plan = {
        let _s = SpanGuard::enter("core.view.plan");
        cdb_relalg::plan::plan(&catalog, &stats, &indexed, q)
    };
    let rel = match lookup_slice(db, &plan) {
        Some(slice) => materialise(db, fields, slice.into_iter().map(|(node, key)| (key, node)))?,
        None => entry_relation(db, fields)?,
    };
    let _s = SpanGuard::enter("core.view.exec");
    let rdb = Database::new().with("entries", rel);
    // No index set: the rows are already the lookups' postings (or the
    // whole relation), and a lookup without an index is its selection.
    let (out, runs) = cdb_relalg::plan::eval_plan(
        &rdb,
        &plan,
        &IndexSet::new(),
        &cdb_relalg::ExecConfig::default(),
    )?;
    Ok((out, plan, runs))
}

/// The same relation with every cell distinctly colored `key/field`, so
/// view outputs carry readable where-provenance.
fn colored_entry_relation(db: &DbState, fields: &[&str]) -> Result<ColoredRelation, DbError> {
    let plain = entry_relation(db, fields)?;
    let key_field = db.key_field().to_owned();
    let mut out = ColoredRelation::empty(plain.schema().clone());
    for row in plain.tuples() {
        let key = match &row[0] {
            Atom::Str(s) => s.clone(),
            other => other.to_string(),
        };
        let colors: Vec<String> = std::iter::once(format!("{key}/{key_field}"))
            .chain(fields.iter().map(|f| format!("{key}/{f}")))
            .collect();
        out.insert(ColoredTuple::with_colors(row.clone(), colors))?;
    }
    Ok(out)
}

/// The result of annotating through a view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ViewAnnotation {
    /// The annotation was placed on this source `(entry key, field)`.
    Placed {
        /// The entry the note landed on.
        key: String,
        /// The field the note landed on.
        field: String,
    },
    /// No side-effect-free placement exists (§2.2's hard case); the note
    /// was not attached.
    NoCleanPlacement,
    /// Multiple equally-valid placements; the note was attached to all.
    PlacedMultiple(Vec<(String, String)>),
}

/// Annotates a cell of the view `q(entries)`: finds side-effect-free
/// source placements by reverse propagation and attaches the note to the
/// placed source field(s).
///
/// The view `q` must reference the entry relation by the name
/// `"entries"` with schema `[key_field, fields…]`.
pub fn annotate_through_view(
    db: &mut CuratedDatabase,
    fields: &[&str],
    q: &RaExpr,
    target: &Target,
    author: &str,
    text: &str,
    time: u64,
) -> Result<ViewAnnotation, DbError> {
    let rel = entry_relation(db, fields)?;
    let rdb = Database::new().with("entries", rel.clone());
    let (placements, _stats) = find_placements(&rdb, q, target)?;
    if placements.is_empty() {
        return Ok(ViewAnnotation::NoCleanPlacement);
    }
    let mut placed = Vec::new();
    for p in &placements {
        // Recover (key, field) from the placement tuple.
        let key = match &p.tuple[0] {
            Atom::Str(s) => s.clone(),
            other => other.to_string(),
        };
        let field = p.attr.clone();
        if field == db.key_field() {
            db.annotate(&key, None, author, text, time)?;
            placed.push((key, "<entry>".to_owned()));
        } else {
            db.annotate(&key, Some(&field), author, text, time)?;
            placed.push((key, field));
        }
    }
    Ok(match placed.len() {
        1 => {
            let (key, field) = placed.remove(0);
            ViewAnnotation::Placed { key, field }
        }
        _ => ViewAnnotation::PlacedMultiple(placed),
    })
}

/// Evaluates a view over the colored entry relation so the output cells
/// carry `key/field` where-provenance.
pub fn colored_view(
    db: &DbState,
    fields: &[&str],
    q: &RaExpr,
    scheme: &Scheme,
) -> Result<ColoredRelation, DbError> {
    let colored = colored_entry_relation(db, fields)?;
    let mut cdb = cdb_annotation::colored::ColoredDatabase::new();
    cdb.insert("entries", colored);
    Ok(cdb_annotation::colored::eval_colored(&cdb, q, scheme)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_relalg::Pred;

    fn sample() -> CuratedDatabase {
        let mut db = CuratedDatabase::new("iuphar", "name");
        db.add_entry(
            "GABA-A",
            1,
            "GABA-A",
            &[("kind", Atom::Str("receptor".into())), ("tm", Atom::Int(4))],
        )
        .unwrap();
        db.add_entry(
            "alice",
            2,
            "5-HT3",
            &[("kind", Atom::Str("channel".into())), ("tm", Atom::Int(4))],
        )
        .unwrap();
        db
    }

    #[test]
    fn entry_relation_flattens_entries() {
        let db = sample();
        let rel = entry_relation(&db, &["kind", "tm"]).unwrap();
        assert_eq!(rel.schema().attrs(), ["name", "kind", "tm"]);
        assert_eq!(rel.len(), 2);
        // Missing fields come out as Unit.
        let rel2 = entry_relation(&db, &["nope"]).unwrap();
        assert!(rel2.tuples().iter().all(|t| t[1] == Atom::Unit));
    }

    #[test]
    fn unknown_attribute_is_a_relational_error_not_a_missing_entry() {
        let db = sample();
        let q = RaExpr::scan("entries").select(Pred::col_eq_const("nope", 1));
        let err = query_entries_planned(&db, &["kind", "tm"], &q).unwrap_err();
        assert!(
            matches!(
                &err,
                DbError::Relational(cdb_relalg::RelalgError::NoSuchAttribute { attr, .. })
                    if attr == "nope"
            ),
            "{err:?}"
        );
        assert!(!err.to_string().contains("no entry with key"), "{err}");
    }

    #[test]
    fn colored_view_carries_readable_provenance() {
        let db = sample();
        let q = RaExpr::scan("entries")
            .select(Pred::col_eq_const("kind", "receptor"))
            .project_cols(["tm"]);
        let out = colored_view(&db, &["kind", "tm"], &q, &Scheme::Default).unwrap();
        let cs = out.cell_colors(&vec![Atom::Int(4)], "tm").unwrap();
        assert_eq!(
            cs.iter().cloned().collect::<Vec<_>>(),
            vec!["GABA-A/tm".to_string()],
            "the 4 came from GABA-A's tm field, not 5-HT3's"
        );
    }

    #[test]
    fn annotating_through_a_selection_view_lands_on_the_source() {
        let mut db = sample();
        let q = RaExpr::scan("entries").select(Pred::col_eq_const("name", "GABA-A"));
        let target = Target {
            tuple: vec![
                Atom::Str("GABA-A".into()),
                Atom::Str("receptor".into()),
                Atom::Int(4),
            ],
            attr: "kind".into(),
        };
        let r = annotate_through_view(
            &mut db,
            &["kind", "tm"],
            &q,
            &target,
            "carol",
            "check this",
            9,
        )
        .unwrap();
        assert_eq!(
            r,
            ViewAnnotation::Placed {
                key: "GABA-A".into(),
                field: "kind".into()
            }
        );
        assert_eq!(db.notes_on("GABA-A", Some("kind")).len(), 1);
        assert_eq!(db.notes_on("5-HT3", Some("kind")).len(), 0);
    }

    #[test]
    fn annotation_with_spread_reports_no_clean_placement() {
        let mut db = sample();
        // π_tm merges the two entries' equal tm values: annotating the
        // merged output cell cannot be placed side-effect-free on one
        // source… actually placing on either source colors the single
        // merged cell exactly — both placements are clean. Force a
        // spread instead: a product duplicating a cell.
        let q = RaExpr::ScanAs("entries".into(), "a".into())
            .product(RaExpr::ScanAs("entries".into(), "b".into()))
            .project(vec![
                cdb_relalg::ProjItem::col("a.name", "name"),
                cdb_relalg::ProjItem::col("b.tm", "tm"),
            ]);
        // Output tuple (GABA-A, 4): its name cell is copied into rows
        // paired with both b-tuples, but projection merges them…
        // target the name cell of a *specific* row.
        let target = Target {
            tuple: vec![Atom::Str("GABA-A".into()), Atom::Int(4)],
            attr: "name".into(),
        };
        let r = annotate_through_view(&mut db, &["tm"], &q, &target, "x", "y", 1).unwrap();
        // GABA-A's name colors the (GABA-A, 4) row's name cell only —
        // both b-rows have tm = 4, so the projection merges to a single
        // output tuple and the placement is clean.
        assert!(matches!(r, ViewAnnotation::Placed { .. }));
        // Now make the tm values differ so the spread is real.
        db.edit_field("e", 2, "5-HT3", "tm", Atom::Int(9)).unwrap();
        let target2 = Target {
            tuple: vec![Atom::Str("GABA-A".into()), Atom::Int(4)],
            attr: "name".into(),
        };
        let r2 = annotate_through_view(&mut db, &["tm"], &q, &target2, "x", "y", 1).unwrap();
        assert_eq!(
            r2,
            ViewAnnotation::NoCleanPlacement,
            "GABA-A's name now spreads to (GABA-A,4) and (GABA-A,9)"
        );
    }

    #[test]
    fn union_merge_annotates_all_sources() {
        let mut db = sample();
        // π_tm over both entries with equal tm: both placements clean.
        let q = RaExpr::scan("entries").project_cols(["tm"]);
        let target = Target {
            tuple: vec![Atom::Int(4)],
            attr: "tm".into(),
        };
        let r = annotate_through_view(&mut db, &["tm"], &q, &target, "x", "note", 1).unwrap();
        match r {
            ViewAnnotation::PlacedMultiple(ps) => {
                assert_eq!(ps.len(), 2);
            }
            other => panic!("expected multiple placements, got {other:?}"),
        }
        assert_eq!(db.notes_on("GABA-A", Some("tm")).len(), 1);
        assert_eq!(db.notes_on("5-HT3", Some("tm")).len(), 1);
    }
}
