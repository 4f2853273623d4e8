//! Differential tests for the cost-based planner (`cdb_relalg::plan`)
//! and the durable secondary indexes it consumes.
//!
//! Three obligations, each checked against an independent oracle:
//!
//! 1. **Set semantics** — `eval_planned` must agree with the naive
//!    nested-loop interpreter on random databases and a pool of query
//!    shapes covering everything the planner special-cases (chain
//!    joins, index-eligible point lookups, residual conjuncts, same-side
//!    equalities, duplicate conjuncts, unresolvable attributes, set
//!    operators). The planner emits canonical (sorted, deduplicated)
//!    relations, so the naive result is canonicalised before comparing.
//!    Errors must match too, by message.
//! 2. **Annotations** — `eval_k_via_planner` must produce byte-identical
//!    K-relations to the naive `eval_k` for `Nat` and `Polynomial`:
//!    join reordering is sound precisely because semiring `+`/`·` are
//!    associative and commutative, and these tests are where that
//!    argument meets the implementation (a duplicated hash-key pair
//!    would square an annotation; a reordered join must not reassociate
//!    a polynomial observably).
//! 3. **Planned reads over entries** — after a random commit career
//!    with random index DDL, `query_entries_planned` (which plans
//!    before it reads and may materialise only the postings it looks
//!    up) equals the reference interpreter over a full entries relation
//!    built entry by entry, for point, join-of-two-lookups, union and
//!    unindexed shapes; the one-pass `entry_relation` is that relation,
//!    and one plan over it agrees across sets, ℕ and ℕ[X].
//! 4. **Index durability** — a database that registered secondary
//!    indexes and then crashed mid-WAL must recover, at *every* byte
//!    offset, to indexes identical to a from-scratch rebuild of the
//!    recovered tree. Each property runs 256 generated cases by default
//!    (`PROPTEST_CASES` overrides); the WAL-cut sweep is exhaustive.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, Mutex};

use curated_db::core::storage::{CheckpointStore, Io, MemIo, StorageError};
use curated_db::core::views::{entry_relation, query_entries_planned};
use curated_db::relalg::eval::eval;
use curated_db::relalg::pred::{CmpOp, Operand};
use curated_db::relalg::{
    eval_planned, plan, Database, DbStats, ExecConfig, IndexSet, PlanOp, Pred, RaExpr, Relation,
};
use curated_db::semiring::eval::eval_k;
use curated_db::semiring::planned::eval_k_via_planner;
use curated_db::semiring::{KDatabase, KRelation, Nat, Polynomial, Semiring};
use curated_db::workload::relational::{
    chain_query, chain_tables, point_lookup_query, select_product_query, JoinConfig,
};
use curated_db::{Atom, CuratedDatabase, DbError};
use proptest::prelude::*;

// For the one-executor property.
use curated_db::relalg::plan::execute;
use curated_db::relalg::Tuple;
use curated_db::semiring::Bool;

/// Number of distinct query shapes produced by [`query`].
const PLANNER_SHAPES: usize = 16;

/// A pool of algebra expressions over the chain workload `R(K, A)` /
/// `S(K, B)` / `T(K, C)`, parameterised by a constant `c`. Covers the
/// shapes the planner rewrites (multi-way chains, index-eligible point
/// selections, pushdown through products) and the recognizer edges
/// that historically broke it (same-side equalities, duplicated
/// conjuncts, unresolvable attributes).
fn query(qi: usize, c: i64) -> RaExpr {
    let rs =
        || RaExpr::ScanAs("R".into(), "r".into()).product(RaExpr::ScanAs("S".into(), "s".into()));
    let nat = || RaExpr::scan("R").natural_join(RaExpr::scan("S"));
    match qi % PLANNER_SHAPES {
        // The two E25 benchmark shapes themselves.
        0 => chain_query(),
        1 => point_lookup_query(c),
        // Aliased point lookup: pushdown must rewrite through ScanAs.
        2 => RaExpr::ScanAs("R".into(), "r".into()).select(Pred::col_eq_const("r.K", c)),
        3 => nat(),
        4 => select_product_query(),
        // Equi-join with a residual payload conjunct.
        5 => rs().select(Pred::col_eq_col("r.K", "s.K").and(Pred::cmp(
            Operand::col("A"),
            CmpOp::Lt,
            Operand::constant(c),
        ))),
        // Non-equi predicate: no hash join to extract.
        6 => rs().select(Pred::cmp(Operand::col("A"), CmpOp::Le, Operand::col("B"))),
        // Same-side equality: both columns come from R, so it is a
        // filter, not a join key — demoting it would be wrong twice.
        7 => rs().select(Pred::col_eq_col("r.K", "A")),
        // Duplicated conjunct: one hash-key pair, not two.
        8 => rs().select(Pred::col_eq_col("r.K", "s.K").and(Pred::col_eq_col("r.K", "s.K"))),
        // One resolvable equi-conjunct plus an unresolvable attribute:
        // the whole query must fail exactly like the naive engine.
        9 => rs().select(Pred::col_eq_col("r.K", "s.K").and(Pred::col_eq_const("Z", c))),
        // Projection above the reordered chain (dedup after joins).
        10 => chain_query().project_cols(["A", "B", "C"]),
        11 => nat().project_cols(["K", "A"]).union(RaExpr::scan("R")),
        12 => RaExpr::scan("R").diff(nat().project_cols(["K", "A"])),
        // Renamed keys: the join happens on J after ρ.
        13 => RaExpr::scan("R")
            .rename([("K", "J")])
            .natural_join(RaExpr::scan("T").rename([("K", "J")])),
        // Selection below a join: index-eligible after pushdown.
        14 => RaExpr::scan("R")
            .select(Pred::col_eq_const("K", c))
            .natural_join(RaExpr::scan("S")),
        // Three-way union of key projections.
        _ => RaExpr::scan("R")
            .project_cols(["K"])
            .union(RaExpr::scan("S").project_cols(["K"]))
            .union(RaExpr::scan("T").project_cols(["K"])),
    }
}

/// Random workload parameters, small enough that 256 cases stay cheap
/// but with key cardinalities low enough to force multi-match probes
/// and genuinely skewed statistics.
fn cfg_strategy() -> impl Strategy<Value = JoinConfig> {
    (0usize..40, 0usize..40, 1usize..10, 1usize..6).prop_map(
        |(left_rows, right_rows, key_cardinality, payload_values)| JoinConfig {
            left_rows,
            right_rows,
            key_cardinality,
            payload_values,
        },
    )
}

/// The index set every planner test offers: both big tables on the
/// join key, so index scans are available whenever pushdown exposes a
/// constant key selection.
fn workload_indexes(db: &Database) -> IndexSet {
    IndexSet::build(db, [("R", "K"), ("S", "K")]).expect("workload columns exist")
}

/// Annotates named tables with per-tuple variables (`R0`, `R1`, …) so
/// join annotations are informative products, not all-ones.
fn tagged_db<K: Semiring>(
    db: &Database,
    names: &[&str],
    var: impl Fn(String) -> K,
) -> KDatabase<K> {
    let mut out = KDatabase::new();
    for name in names {
        let rel = db.get(name).unwrap();
        out.insert(
            *name,
            KRelation::tagged(rel, |i, _| var(format!("{name}{i}"))).unwrap(),
        );
    }
    out
}

proptest! {
    /// The planned engine is observationally identical to the naive
    /// nested-loop reference: same canonical relation on success, the
    /// same error on failure.
    #[test]
    fn planner_matches_reference_engine(
        seed in any::<u64>(),
        cfg in cfg_strategy(),
        qi in 0usize..PLANNER_SHAPES,
        c in 0i64..8,
    ) {
        let db = chain_tables(seed, &cfg);
        let stats = DbStats::analyze(&db);
        let indexes = workload_indexes(&db);
        let q = query(qi, c);
        let naive = eval(&db, &q);
        let planned = eval_planned(&db, &stats, &indexes, &q, &ExecConfig::default());
        match (naive, planned) {
            (Ok(n), Ok(p)) => prop_assert_eq!(n.canonical(), p, "shape {}", qi % PLANNER_SHAPES),
            (Err(n), Err(p)) => prop_assert_eq!(
                n.to_string(),
                p.to_string(),
                "shape {} errors differ", qi % PLANNER_SHAPES
            ),
            (n, p) => prop_assert!(
                false,
                "engines disagree on failure (shape {}): naive {:?}, planned {:?}",
                qi % PLANNER_SHAPES, n.map(|r| r.len()), p.map(|r| r.len())
            ),
        }
    }

    /// Indexes are a pure access-path choice: offering them must never
    /// change a result, only how it is computed.
    #[test]
    fn indexes_do_not_change_results(
        seed in any::<u64>(),
        cfg in cfg_strategy(),
        qi in 0usize..PLANNER_SHAPES,
        c in 0i64..8,
    ) {
        let db = chain_tables(seed, &cfg);
        let stats = DbStats::analyze(&db);
        let q = query(qi, c);
        let exec = ExecConfig::default();
        let with = eval_planned(&db, &stats, &workload_indexes(&db), &q, &exec);
        let without = eval_planned(&db, &stats, &IndexSet::new(), &q, &exec);
        match (with, without) {
            (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "shape {}", qi % PLANNER_SHAPES),
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            _ => prop_assert!(false, "index availability changed success/failure"),
        }
    }

    /// The planner preserves `Nat` (bag) annotations exactly: join
    /// reordering and hash-key dedup must not drop or square a
    /// multiplicity.
    #[test]
    fn planner_preserves_nat_annotations(
        seed in any::<u64>(),
        cfg in cfg_strategy(),
        qi in 0usize..PLANNER_SHAPES,
        c in 0i64..8,
    ) {
        let db = chain_tables(seed, &cfg);
        let q = query(qi, c);
        let kdb = tagged_db(&db, &["R", "S", "T"], |_| Nat(2));
        let naive = eval_k(&kdb, &q);
        let planned = eval_k_via_planner(&kdb, &q, &workload_indexes(&db), &ExecConfig::default());
        match (naive, planned) {
            (Ok(n), Ok(p)) => prop_assert_eq!(n, p, "shape {}", qi % PLANNER_SHAPES),
            (Err(n), Err(p)) => prop_assert_eq!(n.to_string(), p.to_string()),
            _ => prop_assert!(false, "Nat engines disagree on failure (shape {})", qi % PLANNER_SHAPES),
        }
    }

    /// The planner preserves provenance polynomials exactly — the
    /// K-relation analogue of byte-identical output, since `Polynomial`
    /// equality is structural over normalised monomials.
    #[test]
    fn planner_preserves_polynomial_annotations(
        seed in any::<u64>(),
        cfg in cfg_strategy(),
        qi in 0usize..PLANNER_SHAPES,
        c in 0i64..8,
    ) {
        let db = chain_tables(seed, &cfg);
        let q = query(qi, c);
        let kdb = tagged_db(&db, &["R", "S", "T"], |v| Polynomial::var(&v));
        let naive = eval_k(&kdb, &q);
        let planned = eval_k_via_planner(&kdb, &q, &workload_indexes(&db), &ExecConfig::default());
        match (naive, planned) {
            (Ok(n), Ok(p)) => prop_assert_eq!(n, p, "shape {}", qi % PLANNER_SHAPES),
            (Err(n), Err(p)) => prop_assert_eq!(n.to_string(), p.to_string()),
            _ => prop_assert!(false, "Polynomial engines disagree on failure (shape {})", qi % PLANNER_SHAPES),
        }
    }

    /// One executor, three annotations: the *same* plan run over sets,
    /// over 𝔹 and over ℕ differs only in what the annotation does. The
    /// 𝔹-relation's support is exactly the set result, and with every
    /// base tuple tagged 1 the ℕ annotations are the bag multiplicities
    /// — the number of times the set instantiation emits each tuple
    /// before its final dedup.
    #[test]
    fn one_executor_agrees_across_annotations(
        seed in any::<u64>(),
        cfg in cfg_strategy(),
        qi in 0usize..PLANNER_SHAPES,
        c in 0i64..8,
    ) {
        let q = query(qi, c);
        if !q.is_positive() {
            return Ok(()); // difference exists for sets only
        }
        let db = chain_tables(seed, &cfg);
        let indexes = workload_indexes(&db);
        let p = plan(&db, &DbStats::analyze(&db), &indexes, &q);
        let exec = ExecConfig::default();
        let bools = tagged_db(&db, &["R", "S", "T"], |_| Bool(true));
        let nats = tagged_db(&db, &["R", "S", "T"], |_| Nat(1));
        let set = execute::<Relation>(&db, &p, &indexes, &exec);
        let bools = execute::<KRelation<Bool>>(&bools, &p, &indexes, &exec);
        let nats = execute::<KRelation<Nat>>(&nats, &p, &indexes, &exec);
        match (set, bools, nats) {
            (Ok((set, _)), Ok((bools, _)), Ok((nats, _))) => {
                prop_assert_eq!(bools.to_relation(), set.canonical(), "shape {}", qi % PLANNER_SHAPES);
                let mut bag: BTreeMap<Tuple, u64> = BTreeMap::new();
                for t in set.tuples() {
                    *bag.entry(t.clone()).or_default() += 1;
                }
                let counts: BTreeMap<Tuple, u64> =
                    nats.iter().map(|(t, n)| (t.clone(), n.0)).collect();
                prop_assert_eq!(counts, bag, "shape {}", qi % PLANNER_SHAPES);
            }
            (Err(s), Err(b), Err(n)) => {
                prop_assert_eq!(s.to_string(), b.to_string());
                prop_assert_eq!(s.to_string(), n.to_string());
            }
            _ => prop_assert!(false, "instantiations disagree on failure (shape {})", qi % PLANNER_SHAPES),
        }
    }
}

/// The planner genuinely plans on realistic sizes: a point lookup over
/// an indexed column becomes an `IndexLookup`, and the result still
/// matches the naive engine. (The property tests above use tiny
/// tables, where the cost model may legitimately prefer a scan.)
#[test]
fn point_lookups_use_the_index_and_agree() {
    let cfg = JoinConfig {
        left_rows: 200,
        right_rows: 200,
        key_cardinality: 50,
        payload_values: 5,
    };
    let db = chain_tables(0xF1A7, &cfg);
    let stats = DbStats::analyze(&db);
    let indexes = workload_indexes(&db);
    for q in [
        point_lookup_query(7),
        RaExpr::ScanAs("R".into(), "r".into()).select(Pred::col_eq_const("r.K", 7)),
        RaExpr::scan("R")
            .select(Pred::col_eq_const("K", 7))
            .natural_join(RaExpr::scan("S")),
    ] {
        let p = plan(&db, &stats, &indexes, &q);
        assert!(
            p.ops()
                .iter()
                .any(|op| matches!(op, PlanOp::IndexLookup { col, .. } if col == "K")),
            "expected an index lookup in:\n{p}"
        );
        let planned = eval_planned(&db, &stats, &indexes, &q, &ExecConfig::default()).unwrap();
        assert_eq!(planned, eval(&db, &q).unwrap().canonical());
    }
}

// ---------------------------------------------------------------------------
// Recognizer edge suite over handcrafted K-databases (Nat / Polynomial)
// ---------------------------------------------------------------------------

/// Small tables with deliberate key collisions plus an empty relation,
/// so edge shapes have non-trivial multiplicities on both engines.
fn edge_tables() -> Database {
    let r = Relation::table(
        ["K", "A"],
        vec![
            vec![Atom::Int(1), Atom::Int(1)],
            vec![Atom::Int(1), Atom::Int(2)],
            vec![Atom::Int(2), Atom::Int(2)],
            vec![Atom::Int(3), Atom::Int(5)],
        ],
    )
    .unwrap();
    let s = Relation::table(
        ["K", "B"],
        vec![
            vec![Atom::Int(1), Atom::Int(10)],
            vec![Atom::Int(2), Atom::Int(20)],
            vec![Atom::Int(2), Atom::Int(21)],
        ],
    )
    .unwrap();
    let e = Relation::table(["K", "C"], Vec::<Vec<Atom>>::new()).unwrap();
    Database::new().with("R", r).with("S", s).with("E", e)
}

/// The recognizer edges, named for failure messages.
fn edge_queries() -> Vec<(&'static str, RaExpr)> {
    let rs =
        || RaExpr::ScanAs("R".into(), "r".into()).product(RaExpr::ScanAs("S".into(), "s".into()));
    vec![
        // r.K = A compares two R columns: a filter, not a join key.
        (
            "same-side equality",
            rs().select(Pred::col_eq_col("r.K", "A")),
        ),
        (
            "duplicated conjunct",
            rs().select(Pred::col_eq_col("r.K", "s.K").and(Pred::col_eq_col("r.K", "s.K"))),
        ),
        (
            "empty build side",
            RaExpr::ScanAs("R".into(), "r".into())
                .product(RaExpr::ScanAs("E".into(), "e".into()))
                .select(Pred::col_eq_col("r.K", "e.K")),
        ),
        (
            "empty probe side",
            RaExpr::ScanAs("E".into(), "e".into())
                .product(RaExpr::ScanAs("R".into(), "r".into()))
                .select(Pred::col_eq_col("e.K", "r.K")),
        ),
        (
            "equi plus residual",
            rs().select(Pred::col_eq_col("r.K", "s.K").and(Pred::cmp(
                Operand::col("B"),
                CmpOp::Lt,
                Operand::constant(21),
            ))),
        ),
    ]
}

fn assert_edges_agree<K: Semiring>(var: impl Fn(String) -> K) {
    let db = edge_tables();
    let kdb = tagged_db(&db, &["R", "S", "E"], var);
    let indexes = IndexSet::build(&db, [("R", "K")]).unwrap();
    for (name, q) in edge_queries() {
        let naive = eval_k(&kdb, &q).unwrap();
        let planned = eval_k_via_planner(&kdb, &q, &indexes, &ExecConfig::default()).unwrap();
        assert_eq!(naive, planned, "edge shape: {name}");
    }
    // One resolvable conjunct plus an unresolvable one fails whole, on
    // both engines, with the same message.
    let bad = RaExpr::ScanAs("R".into(), "r".into())
        .product(RaExpr::ScanAs("S".into(), "s".into()))
        .select(Pred::col_eq_col("r.K", "s.K").and(Pred::col_eq_const("Z", 1)));
    let naive = eval_k(&kdb, &bad).unwrap_err();
    let planned = eval_k_via_planner(&kdb, &bad, &indexes, &ExecConfig::default()).unwrap_err();
    assert_eq!(naive.to_string(), planned.to_string());
}

#[test]
fn recognizer_edges_preserve_nat_annotations() {
    // Nat(2) per tuple: a squared conjunct would show up as 4.
    assert_edges_agree(|_| Nat(2));
}

#[test]
fn recognizer_edges_preserve_polynomial_annotations() {
    assert_edges_agree(|v| Polynomial::var(&v));
}

#[test]
fn recognizer_edges_agree_under_set_semantics() {
    let db = edge_tables();
    let stats = DbStats::analyze(&db);
    let indexes = IndexSet::build(&db, [("R", "K")]).unwrap();
    for (name, q) in edge_queries() {
        let naive = eval(&db, &q).unwrap().canonical();
        let planned = eval_planned(&db, &stats, &indexes, &q, &ExecConfig::default()).unwrap();
        assert_eq!(naive, planned, "edge shape: {name}");
    }
}

// ---------------------------------------------------------------------------
// Index crash recovery: every WAL byte cut equals a from-scratch rebuild
// ---------------------------------------------------------------------------

/// A shared in-memory WAL device the test keeps a handle on after the
/// database takes ownership, so it can capture the byte image a crash
/// would leave behind.
#[derive(Debug, Clone)]
struct SharedIo(Arc<Mutex<MemIo>>);

impl SharedIo {
    fn new() -> Self {
        SharedIo(Arc::new(Mutex::new(MemIo::new())))
    }

    fn bytes(&self) -> Vec<u8> {
        self.0.lock().unwrap().bytes().to_vec()
    }
}

impl Io for SharedIo {
    fn len(&self) -> Result<u64, StorageError> {
        self.0.lock().unwrap().len()
    }
    fn read_at(&mut self, offset: u64, buf: &mut [u8]) -> Result<usize, StorageError> {
        self.0.lock().unwrap().read_at(offset, buf)
    }
    fn append(&mut self, bytes: &[u8]) -> Result<(), StorageError> {
        self.0.lock().unwrap().append(bytes)
    }
    fn flush(&mut self) -> Result<(), StorageError> {
        self.0.lock().unwrap().flush()
    }
    fn truncate(&mut self, len: u64) -> Result<(), StorageError> {
        self.0.lock().unwrap().truncate(len)
    }
}

/// Asserts every registered index equals a from-scratch rebuild of the
/// recovered tree, computed through the public API with the same
/// indexing rule the database uses: the key field indexes as
/// `Atom::Str(key)`, missing fields as `Atom::Unit`.
fn assert_indexes_match_rebuild(db: &CuratedDatabase, key_field: &str) {
    let keys = db.entry_keys().unwrap();
    for field in db.index_fields() {
        let idx = db.field_index(&field).expect("registered index present");
        let mut expect: BTreeMap<Atom, BTreeSet<String>> = BTreeMap::new();
        for k in &keys {
            let v = if field == key_field {
                Atom::Str(k.clone())
            } else {
                db.field(k, &field).unwrap_or(Atom::Unit)
            };
            expect.entry(v).or_default().insert(k.clone());
        }
        let got: BTreeMap<Atom, BTreeSet<String>> = idx
            .postings()
            .map(|(v, ks)| (v.clone(), ks.clone()))
            .collect();
        assert_eq!(got, expect, "index on {field:?} diverged from a rebuild");
    }
}

/// A career exercising every index-relevant WAL record: registrations,
/// drops, adds, edits, a merge, a split, a delete, and publishes — no
/// checkpoint, so every byte of state flows through the WAL tail.
fn index_career(db: &mut CuratedDatabase) {
    db.create_index("tm").unwrap();
    db.create_index("kind").unwrap();
    db.create_index("name").unwrap(); // the key field itself
    db.add_entry(
        "alice",
        1,
        "GABA-A",
        &[("kind", Atom::Str("receptor".into())), ("tm", Atom::Int(4))],
    )
    .unwrap();
    db.add_entry("bob", 2, "5-HT3", &[("kind", Atom::Str("receptor".into()))])
        .unwrap();
    db.publish("r0").unwrap();
    db.edit_field(
        "carol",
        3,
        "GABA-A",
        "kind",
        Atom::Str("ion channel".into()),
    )
    .unwrap();
    db.add_entry("erin", 4, "NMDA", &[("tm", Atom::Int(4))])
        .unwrap();
    db.merge_entries("erin", 5, "GABA-A", "5-HT3").unwrap();
    db.split_entry("erin", 6, "NMDA", &[("NMDA-1", vec![]), ("NMDA-2", vec![])])
        .unwrap();
    db.drop_index("kind").unwrap();
    db.add_entry("fred", 7, "AMPA", &[("tm", Atom::Int(3))])
        .unwrap();
    db.delete_entry("fred", 8, "AMPA").unwrap();
    db.publish("r1").unwrap();
}

fn reopen(image: Vec<u8>) -> CuratedDatabase {
    CuratedDatabase::open(
        "iuphar",
        "name",
        Box::new(MemIo::from_bytes(image)),
        CheckpointStore::mem(),
    )
    .unwrap()
}

/// The exhaustive sweep: cut the WAL at *every* byte offset, reopen,
/// and require the recovered indexes to equal a from-scratch rebuild
/// of whatever tree survived. This is the acceptance bar for index
/// durability: no prefix of the log may leave postings that disagree
/// with the data they claim to index.
#[test]
fn every_wal_byte_cut_recovers_consistent_indexes() {
    let wal = SharedIo::new();
    {
        let mut db = CuratedDatabase::open(
            "iuphar",
            "name",
            Box::new(wal.clone()),
            CheckpointStore::mem(),
        )
        .unwrap();
        index_career(&mut db);
    }
    let image = wal.bytes();
    assert!(image.len() > 100, "career should produce a non-trivial WAL");
    for cut in 0..=image.len() {
        let db = reopen(image[..cut].to_vec());
        assert_indexes_match_rebuild(&db, "name");
    }

    // At the full image the surviving registrations and postings are
    // exactly the career's end state.
    let db = reopen(image);
    let mut fields = db.index_fields();
    fields.sort();
    assert_eq!(fields, ["name", "tm"], "kind was dropped, tm/name survive");
    assert_eq!(db.index_lookup("tm", &Atom::Int(4)).unwrap(), ["GABA-A"]);
    assert_eq!(
        db.index_lookup("tm", &Atom::Int(3)).unwrap(),
        Vec::<String>::new()
    );
}

/// A tiny deterministic generator for the random-career property; the
/// proptest shim drives the seed.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// Applies `ops` random curation/index operations, ignoring individual
/// failures (duplicate adds, merges of missing entries, …) — failed
/// transactions must leave both the tree and the indexes untouched,
/// which the recovery assertion will verify.
fn random_career(db: &mut CuratedDatabase, seed: u64, ops: usize) {
    let mut s = seed | 1;
    let keys = ["E0", "E1", "E2", "E3", "E4"];
    let fields = ["tm", "kind", "name"];
    for t in 0..ops as u64 {
        let time = t + 1;
        let pick = |s: &mut u64, n: usize| (xorshift(s) % n as u64) as usize;
        match xorshift(&mut s) % 10 {
            0..=2 => {
                let k = keys[pick(&mut s, keys.len())];
                let v = Atom::Int((xorshift(&mut s) % 4) as i64);
                let _ = db.add_entry("u", time, k, &[("tm", v)]);
            }
            3 => {
                let k = keys[pick(&mut s, keys.len())];
                let v = Atom::Int((xorshift(&mut s) % 4) as i64);
                let _ = db.edit_field("u", time, k, "kind", v);
            }
            4 => {
                let k = keys[pick(&mut s, keys.len())];
                let _ = db.delete_entry("u", time, k);
            }
            5 => {
                let a = keys[pick(&mut s, keys.len())];
                let b = keys[pick(&mut s, keys.len())];
                let _ = db.merge_entries("u", time, a, b);
            }
            6 => {
                let k = keys[pick(&mut s, keys.len())];
                let p1 = format!("S{time}a");
                let p2 = format!("S{time}b");
                let _ = db.split_entry("u", time, k, &[(&p1, vec![]), (&p2, vec![])]);
            }
            7 => {
                let _ = db.create_index(fields[pick(&mut s, fields.len())]);
            }
            8 => {
                let _ = db.drop_index(fields[pick(&mut s, fields.len())]);
            }
            _ => {
                let _ = db.publish(format!("v{time}"));
            }
        }
    }
}

/// The fields the planned-read property views beside the key `name`.
const VIEW: [&str; 2] = ["tm", "kind"];

/// Read shapes over the `entries` view of a [`random_career`] database,
/// whose `tm` and `kind` are small integers and whose indexes come and
/// go: which leaves become index lookups varies with the career.
fn view_queries(c: i64) -> Vec<(&'static str, RaExpr)> {
    let by = |alias: &str, col: &str, v: i64| {
        RaExpr::ScanAs("entries".into(), alias.into())
            .select(Pred::col_eq_const(format!("{alias}.{col}"), v))
    };
    let names = |col: &str, v: i64| {
        RaExpr::scan("entries")
            .select(Pred::col_eq_const(col, v))
            .project_cols(["name"])
    };
    vec![
        (
            "point",
            RaExpr::scan("entries").select(Pred::col_eq_const("tm", c)),
        ),
        (
            "point on the key",
            RaExpr::scan("entries").select(Pred::col_eq_const("name", "E1")),
        ),
        (
            "join of two lookups",
            by("a", "tm", c)
                .product(by("b", "kind", (c + 1) % 4))
                .select(Pred::col_eq_col("a.kind", "b.kind")),
        ),
        ("union", names("tm", c).union(names("kind", c))),
        (
            "unindexed",
            RaExpr::scan("entries").select(Pred::cmp(
                Operand::col("tm"),
                CmpOp::Lt,
                Operand::constant(c),
            )),
        ),
        (
            "lookup beside a scan",
            by("a", "tm", c)
                .product(RaExpr::ScanAs("entries".into(), "b".into()))
                .select(Pred::col_eq_col("a.kind", "b.kind")),
        ),
        (
            "unknown attribute",
            RaExpr::scan("entries").select(Pred::col_eq_const("nope", c)),
        ),
    ]
}

/// Obligation 3 of the module docs, on `db` as it stands.
fn check_planned_entry_reads(db: &CuratedDatabase, c: i64) -> Result<(), TestCaseError> {
    // The reference relation: entry by entry through the point reads.
    let full = Relation::table(
        ["name", "tm", "kind"],
        db.entry_keys().unwrap().into_iter().map(|k| {
            let cell = |f| db.field(&k, f).unwrap_or(Atom::Unit);
            vec![Atom::Str(k.clone()), cell("tm"), cell("kind")]
        }),
    )
    .unwrap();
    let one_pass = entry_relation(db, &VIEW).unwrap();
    prop_assert_eq!(&one_pass, &full);
    let reference = Database::new().with("entries", full);

    let stats = db.planner_stats(&VIEW);
    let indexes = db.relalg_index_set(&VIEW).unwrap();
    let exec = ExecConfig::default();
    for (shape, q) in view_queries(c) {
        match (query_entries_planned(db, &VIEW, &q), eval(&reference, &q)) {
            (Ok((got, _, _)), Ok(want)) => prop_assert_eq!(got, want.canonical(), "{}", shape),
            (Err(DbError::Relational(got)), Err(want)) => {
                prop_assert_eq!(got.to_string(), want.to_string(), "{}", shape);
                continue;
            }
            (got, want) => prop_assert!(
                false,
                "{}: {:?} against {:?}",
                shape,
                got.map(|r| r.0),
                want
            ),
        }

        // One plan over the one-pass relation, three annotations.
        let p = plan(&reference, &stats, &indexes, &q);
        let nats = tagged_db(&reference, &["entries"], |_| Nat(1));
        let polys = tagged_db(&reference, &["entries"], |v| Polynomial::var(&v));
        let (set, _) = execute::<Relation>(&reference, &p, &indexes, &exec).unwrap();
        let (nats, _) = execute::<KRelation<Nat>>(&nats, &p, &indexes, &exec).unwrap();
        let (poly_rel, _) = execute::<KRelation<Polynomial>>(&polys, &p, &indexes, &exec).unwrap();
        let mut bag: BTreeMap<Tuple, u64> = BTreeMap::new();
        for t in set.tuples() {
            *bag.entry(t.clone()).or_default() += 1;
        }
        let counts: BTreeMap<Tuple, u64> = nats.iter().map(|(t, n)| (t.clone(), n.0)).collect();
        prop_assert_eq!(counts, bag, "{}", shape);
        prop_assert_eq!(&poly_rel, &eval_k(&polys, &q).unwrap(), "{}", shape);
        prop_assert_eq!(poly_rel.to_relation(), set.canonical(), "{}", shape);
    }
    Ok(())
}

proptest! {
    /// Planned reads neither lose nor invent rows, whatever the plan
    /// read: under the indexes the career happened to leave, and again
    /// with every view column indexed, so that the point, join and
    /// union shapes read only their postings.
    #[test]
    fn planned_entry_reads_match_the_reference_over_the_full_relation(
        seed in any::<u64>(),
        c in 0i64..4,
    ) {
        let mut db = CuratedDatabase::new("iuphar", "name");
        random_career(&mut db, seed, 40);
        check_planned_entry_reads(&db, c)?;
        for field in ["name", "tm", "kind"] {
            db.create_index(field).unwrap();
        }
        check_planned_entry_reads(&db, c)?;
    }

    /// Random careers, random crash points: the recovered indexes are
    /// always a from-scratch rebuild of the recovered tree.
    #[test]
    fn random_careers_recover_consistent_indexes(
        seed in any::<u64>(),
        cut_sel in any::<u64>(),
    ) {
        let wal = SharedIo::new();
        {
            let mut db = CuratedDatabase::open(
                "iuphar",
                "name",
                Box::new(wal.clone()),
                CheckpointStore::mem(),
            )
            .unwrap();
            random_career(&mut db, seed, 14);
        }
        let image = wal.bytes();
        let cut = (cut_sel as usize) % (image.len() + 1);
        let db = reopen(image[..cut].to_vec());
        assert_indexes_match_rebuild(&db, "name");
    }
}
