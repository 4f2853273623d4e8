//! Reads are addressed, not scanned — bounded by counts, not timers.
//!
//! On a 5 000-entry database: an indexed read materialises at most the
//! rows of the postings it looks up (`core.view.rows_materialised`, the
//! counter every relational row is built under), and any plan with a
//! scanning leaf takes one pass over the entries. (That finding an
//! entry reads no tree node at all is `cdb-core`'s unit test
//! `entry_node_answers_from_the_index_alone`.)
//!
//! One test function: the counter is process-global, and the deltas
//! below must be this thread's alone.

use cdb_core::views::{entry_relation, query_entries_planned};
use cdb_core::CuratedDatabase;
use cdb_model::Atom;
use cdb_relalg::eval::eval;
use cdb_relalg::{CmpOp, Database, Operand, PlanOp, Pred, RaExpr};

const ENTRIES: usize = 5_000;
const GENES: usize = 1_000;
const VIEW: [&str; 2] = ["gn", "os"];

fn key(i: usize) -> String {
    format!("K{i:05}")
}

fn rows_materialised() -> u64 {
    cdb_obs::global()
        .counter("core.view.rows_materialised")
        .get()
}

#[test]
fn indexed_reads_touch_their_postings() {
    let mut db = CuratedDatabase::new("big", "ac");
    db.create_index("gn").unwrap();
    db.create_index("os").unwrap();
    for i in 0..ENTRIES {
        let fields = [
            ("gn", Atom::Int((i % GENES) as i64)),
            ("os", Atom::Int((i % 7) as i64)),
            ("de", Atom::Str(format!("protein {i}"))),
        ];
        db.add_entry("c", i as u64 + 1, &key(i), &fields).unwrap();
    }
    let posting = |field: &str, v: i64| db.index_lookup(field, &Atom::Int(v)).unwrap().len() as u64;
    let reference = Database::new().with("entries", entry_relation(&db, &VIEW).unwrap());

    // What a read built, its plan's leaves, and its answer checked
    // against the reference interpreter over the full relation.
    let read = |q: &RaExpr| {
        let before = rows_materialised();
        let (got, plan, _) = query_entries_planned(&db, &VIEW, q).unwrap();
        let built = rows_materialised() - before;
        assert_eq!(got, eval(&reference, q).unwrap().canonical(), "{q}");
        let scans = plan.ops().iter().any(|op| {
            matches!(
                op,
                PlanOp::Scan { .. } | PlanOp::ScanAs { .. } | PlanOp::Naive { .. }
            )
        });
        (built, scans)
    };
    let by = |alias: &str, col: &str, v: i64| {
        RaExpr::ScanAs("entries".into(), alias.into())
            .select(Pred::col_eq_const(format!("{alias}.{col}"), v))
    };

    let point = RaExpr::scan("entries").select(Pred::col_eq_const("gn", 7));
    assert_eq!(posting("gn", 7), (ENTRIES / GENES) as u64);
    let (built, scans) = read(&point);
    assert!(!scans, "an indexed point selection plans as a lookup");
    assert!(
        built <= posting("gn", 7),
        "{built} rows for a posting of {}",
        posting("gn", 7)
    );

    let join = by("a", "gn", 7)
        .product(by("b", "gn", 14))
        .select(Pred::col_eq_col("a.os", "b.os"));
    let (built, scans) = read(&join);
    assert!(!scans);
    assert!(built <= posting("gn", 7) + posting("gn", 14), "{built}");

    let union = point
        .clone()
        .project_cols(["ac"])
        .union(by("b", "os", 3).project_cols(["b.ac"]));
    let (built, scans) = read(&union);
    assert!(!scans);
    assert!(built <= posting("gn", 7) + posting("os", 3), "{built}");
    assert!(built < ENTRIES as u64);

    // One scanning leaf and the whole relation is needed: one pass.
    let beside_a_scan = by("a", "gn", 7)
        .product(RaExpr::ScanAs("entries".into(), "b".into()))
        .select(Pred::col_eq_col("a.os", "b.os"));
    let (built, scans) = read(&beside_a_scan);
    assert!(scans);
    assert_eq!(built, ENTRIES as u64);
    let unindexed = RaExpr::scan("entries").select(Pred::cmp(
        Operand::col("os"),
        CmpOp::Lt,
        Operand::constant(2),
    ));
    let (built, scans) = read(&unindexed);
    assert!(scans);
    assert_eq!(built, ENTRIES as u64);
}
