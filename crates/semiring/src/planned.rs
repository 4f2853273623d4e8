//! Executing cost-based physical plans over K-relations.
//!
//! [`eval_k_planned`] runs a [`PhysPlan`] from `cdb_relalg::plan` against
//! a [`KDatabase`]. There is no K-specific operator code: it is the one
//! physical executor ([`cdb_relalg::plan::execute`]) instantiated at
//! [`KRelation`], whose [`cdb_relalg::exec::Rows`] impl says what the
//! annotation does — `insert` is `+`, joined rows multiply with `·`,
//! difference is the positivity error. This is what makes the planner
//! *provenance-preserving* rather than merely set-preserving: the
//! differential suites check byte-identical results — tuples **and**
//! annotations — against [`crate::eval::eval_k`] for ℕ, 𝔹 and the
//! provenance polynomials.
//!
//! Why the same plan is valid for every semiring:
//!
//! * Join reordering re-associates and commutes the `·` products that
//!   annotate joined tuples — both laws hold in every semiring, and the
//!   [`KRelation`] `BTreeMap` makes tuple order canonical, so even the
//!   iteration-order change that reordering causes is invisible.
//! * Pushed filters multiply annotations by 0/1 before instead of after
//!   a join; since dropped tuples would only have contributed `0 · k`
//!   terms, the annotation sums are unchanged (σ commutes with ⋈ over
//!   any semiring — Green et al., Lemma 3.4's spirit).
//! * An index lookup here degrades to a support filter over the base
//!   relation, by reference: K-relations have no stable row offsets, and
//!   the lookup's semantics is exactly `σ[col = key]`.
//!
//! Difference stays rejected with the same error as the naive engine;
//! [`PlanOp::Naive`](cdb_relalg::PlanOp::Naive) fallback nodes run
//! [`crate::eval::eval_k`], so planned evaluation fails exactly when and
//! how naive evaluation fails.

use cdb_relalg::exec::ExecConfig;
use cdb_relalg::plan::{execute, PhysPlan};
use cdb_relalg::{Database, IndexSet, RelalgError};

use crate::krel::{KDatabase, KRelation};
use crate::semiring::Semiring;

/// The set-semantics shadow of a K-database: every relation's support,
/// in canonical order. Plan against this (it carries the schemas and
/// row counts the planner needs), execute with [`eval_k_planned`].
pub fn shadow_database<K: Semiring>(db: &KDatabase<K>) -> Database {
    let mut out = Database::new();
    for (name, rel) in db.iter() {
        out.insert(name, rel.to_relation());
    }
    out
}

/// Executes a physical plan over a K-database, returning the annotated
/// result. Annotation-identical to [`crate::eval::eval_k`] on the
/// expression the plan was built from; plans containing difference are
/// rejected with the naive engine's positivity error.
pub fn eval_k_planned<K: Semiring>(
    db: &KDatabase<K>,
    plan: &PhysPlan,
    cfg: &ExecConfig,
) -> Result<KRelation<K>, RelalgError> {
    // Index postings are row offsets into set relations; a K-relation
    // has none, so every lookup takes the executor's filter path.
    execute(db, plan, &IndexSet::new(), cfg).map(|(rel, _)| rel)
}

/// Plans `expr` against the database's set-semantics shadow and executes
/// the plan with annotations — the one-call version of
/// `plan` + [`eval_k_planned`].
pub fn eval_k_via_planner<K: Semiring>(
    db: &KDatabase<K>,
    expr: &cdb_relalg::RaExpr,
    indexes: &cdb_relalg::IndexSet,
    cfg: &ExecConfig,
) -> Result<KRelation<K>, RelalgError> {
    let shadow = shadow_database(db);
    let stats = cdb_relalg::DbStats::analyze(&shadow);
    let plan = cdb_relalg::plan::plan(&shadow, &stats, indexes, expr);
    eval_k_planned(db, &plan, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{eval_k, figure4_database, figure4_query};
    use crate::instances::nat::Nat;
    use crate::instances::polynomial::Polynomial;
    use crate::instances::Bool;
    use cdb_model::Atom;
    use cdb_relalg::{IndexSet, Pred, RaExpr};

    fn int(i: i64) -> Atom {
        Atom::Int(i)
    }

    fn chain_db<K: Semiring>(var: impl Fn(&str) -> K) -> KDatabase<K> {
        let mk = |name: &str, n: i64, m: i64| {
            KRelation::from_pairs(
                cdb_relalg::Schema::new(["K", name]).unwrap(),
                (0..n).map(|i| (vec![int(i % m), int(i)], var(&format!("{name}{i}")))),
            )
            .unwrap()
        };
        KDatabase::new()
            .with("R", mk("A", 20, 7))
            .with("S", mk("B", 12, 7))
            .with("T", mk("C", 5, 7))
    }

    fn chain_query() -> RaExpr {
        RaExpr::ScanAs("R".into(), "r".into())
            .product(RaExpr::ScanAs("S".into(), "s".into()))
            .product(RaExpr::ScanAs("T".into(), "t".into()))
            .select(Pred::col_eq_col("r.K", "s.K").and(Pred::col_eq_col("s.K", "t.K")))
    }

    #[test]
    fn reordered_chain_is_annotation_identical() {
        let db = chain_db(|v: &str| Polynomial::var(v));
        let q = chain_query();
        let naive = eval_k(&db, &q).unwrap();
        let planned =
            eval_k_via_planner(&db, &q, &IndexSet::new(), &ExecConfig::default()).unwrap();
        assert_eq!(planned, naive, "polynomials survive join reordering");
        // And under bag/set instantiations.
        let dbn = chain_db(|_| Nat(2));
        assert_eq!(
            eval_k_via_planner(&dbn, &q, &IndexSet::new(), &ExecConfig::default()).unwrap(),
            eval_k(&dbn, &q).unwrap()
        );
        let dbb = chain_db(|_| Bool(true));
        assert_eq!(
            eval_k_via_planner(&dbb, &q, &IndexSet::new(), &ExecConfig::default()).unwrap(),
            eval_k(&dbb, &q).unwrap()
        );
    }

    #[test]
    fn figure4_through_the_planner() {
        let db = figure4_database(|v| Polynomial::var(v));
        let q = figure4_query();
        let naive = eval_k(&db, &q).unwrap();
        let planned =
            eval_k_via_planner(&db, &q, &IndexSet::new(), &ExecConfig::default()).unwrap();
        assert_eq!(planned, naive, "Figure 4 polynomials are preserved");
    }

    #[test]
    fn index_plans_degrade_to_support_filters() {
        let db = chain_db(|v: &str| Polynomial::var(v));
        let shadow = shadow_database(&db);
        let idx = IndexSet::build(&shadow, [("R", "A")]).unwrap();
        let q = RaExpr::ScanAs("R".into(), "r".into())
            .product(RaExpr::ScanAs("S".into(), "s".into()))
            .select(Pred::col_eq_col("r.K", "s.K").and(Pred::col_eq_const("r.A", 7)));
        let stats = cdb_relalg::DbStats::analyze(&shadow);
        let plan = cdb_relalg::plan::plan(&shadow, &stats, &idx, &q);
        assert!(
            plan.ops()
                .iter()
                .any(|o| matches!(o, cdb_relalg::PlanOp::IndexLookup { .. })),
            "plan actually exercises the index path:\n{plan}"
        );
        let planned = eval_k_planned(&db, &plan, &ExecConfig::default()).unwrap();
        assert_eq!(planned, eval_k(&db, &q).unwrap());
    }

    #[test]
    fn difference_plans_are_rejected_like_naive() {
        let db = chain_db(|_| Bool(true));
        let q = RaExpr::scan("R").diff(RaExpr::scan("R"));
        let shadow = shadow_database(&db);
        let stats = cdb_relalg::DbStats::analyze(&shadow);
        let plan = cdb_relalg::plan::plan(&shadow, &stats, &IndexSet::new(), &q);
        let planned = eval_k_planned(&db, &plan, &ExecConfig::default());
        let naive = eval_k(&db, &q);
        assert_eq!(planned.unwrap_err(), naive.unwrap_err());
    }

    #[test]
    fn fallback_plans_run_the_naive_k_engine() {
        let db = chain_db(|v: &str| Polynomial::var(v));
        // Unresolvable predicate: the planner wraps the whole query.
        let q = RaExpr::scan("R").select(Pred::col_eq_const("nope", 0));
        let shadow = shadow_database(&db);
        let stats = cdb_relalg::DbStats::analyze(&shadow);
        let plan = cdb_relalg::plan::plan(&shadow, &stats, &IndexSet::new(), &q);
        assert!(matches!(plan.op, cdb_relalg::PlanOp::Naive { .. }));
        assert_eq!(
            eval_k_planned(&db, &plan, &ExecConfig::default()).unwrap_err(),
            eval_k(&db, &q).unwrap_err()
        );
    }
}
