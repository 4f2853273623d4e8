//! Positive relational algebra over K-relations.
//!
//! The Green–Karvounarakis–Tannen semantics: selection multiplies by 0/1,
//! projection and union *sum* the annotations of merged tuples, join and
//! product *multiply* the annotations of combined tuples. Difference is
//! rejected — the provenance semantics of §4.1 is for the positive
//! algebra (the paper notes that update/difference provenance "would need
//! some weaker structure than a semiring").

use cdb_relalg::exec::ExecConfig;
use cdb_relalg::expr::{ProjSource, RaExpr};
use cdb_relalg::plan::lower;
use cdb_relalg::{RelalgError, Schema, Tuple};

use crate::krel::{KDatabase, KRelation};
use crate::semiring::Semiring;

/// Evaluates a positive RA expression over a K-database with the naive
/// nested-loop interpreter (the reference semantics).
pub fn eval_k<K: Semiring>(db: &KDatabase<K>, expr: &RaExpr) -> Result<KRelation<K>, RelalgError> {
    check_positive(expr)?;
    eval_inner(db, expr)
}

/// Evaluates a positive RA expression over a K-database with the
/// physical engine: the expression is lowered shape-for-shape
/// ([`cdb_relalg::plan::lower`]) and run by the one executor, so natural
/// joins and recognized equi-joins are (optionally parallel) hash joins.
///
/// The kernel's probe partitions concatenate in probe order and the
/// matched rows are inserted into the output K-relation, where
/// duplicate tuples merge by the semiring's `+` — so partition results
/// combine exactly as [`KRelation::insert`] defines, and the result is
/// identical to [`eval_k`] for any partition count.
pub fn eval_k_with<K: Semiring>(
    db: &KDatabase<K>,
    expr: &RaExpr,
    cfg: &ExecConfig,
) -> Result<KRelation<K>, RelalgError> {
    check_positive(expr)?;
    crate::planned::eval_k_planned(db, &lower::<KRelation<K>>(db, expr), cfg)
}

fn check_positive(expr: &RaExpr) -> Result<(), RelalgError> {
    if expr.is_positive() {
        Ok(())
    } else {
        Err(positivity_error())
    }
}

/// The error every K-evaluator raises on difference (shared with the
/// executor's [`cdb_relalg::exec::Rows::diff`] hook so planned and
/// naive engines fail identically).
pub(crate) fn positivity_error() -> RelalgError {
    RelalgError::UpdateError(
        "K-relation semantics is defined for positive relational algebra only \
         (difference has no semiring interpretation)"
            .to_owned(),
    )
}

fn eval_inner<K: Semiring>(db: &KDatabase<K>, expr: &RaExpr) -> Result<KRelation<K>, RelalgError> {
    match expr {
        RaExpr::Scan(name) => Ok(db.get(name)?.clone()),
        RaExpr::ScanAs(name, alias) => {
            let base = db.get(name)?;
            let schema = base.schema().qualified(alias);
            Ok(base.clone().with_schema(schema))
        }
        RaExpr::Select(e, pred) => {
            let input = eval_inner(db, e)?;
            let mut out = KRelation::empty(input.schema().clone());
            for (t, k) in input.iter() {
                if pred.eval(input.schema(), t)? {
                    out.insert(t.clone(), k.clone())?;
                }
            }
            Ok(out)
        }
        RaExpr::Project(e, items) => {
            let input = eval_inner(db, e)?;
            let schema = Schema::new(items.iter().map(|i| i.name.clone()))?;
            let mut out = KRelation::empty(schema);
            for (t, k) in input.iter() {
                let mut row: Tuple = Vec::with_capacity(items.len());
                for item in items {
                    match &item.source {
                        ProjSource::Col(c) => row.push(t[input.schema().resolve(c)?].clone()),
                        ProjSource::Const(a) => row.push(a.clone()),
                    }
                }
                out.insert(row, k.clone())?; // merged tuples sum
            }
            Ok(out)
        }
        RaExpr::Product(a, b) => {
            let left = eval_inner(db, a)?;
            let right = eval_inner(db, b)?;
            let schema = Schema::new(
                left.schema()
                    .attrs()
                    .iter()
                    .chain(right.schema().attrs())
                    .cloned(),
            )?;
            let mut out = KRelation::empty(schema);
            for (lt, lk) in left.iter() {
                for (rt, rk) in right.iter() {
                    let mut row = lt.clone();
                    row.extend(rt.iter().cloned());
                    out.insert(row, lk.mul(rk))?;
                }
            }
            Ok(out)
        }
        RaExpr::NaturalJoin(a, b) => {
            let left = eval_inner(db, a)?;
            let right = eval_inner(db, b)?;
            let shared = cdb_relalg::eval::shared_attrs(left.schema(), right.schema());
            let right_kept: Vec<usize> = (0..right.schema().arity())
                .filter(|j| !shared.iter().any(|(_, sj)| sj == j))
                .collect();
            let attrs: Vec<String> = left
                .schema()
                .attrs()
                .iter()
                .cloned()
                .chain(
                    right_kept
                        .iter()
                        .map(|&j| right.schema().attrs()[j].clone()),
                )
                .collect();
            let mut out = KRelation::empty(Schema::new(attrs)?);
            for (lt, lk) in left.iter() {
                for (rt, rk) in right.iter() {
                    if shared.iter().all(|&(i, j)| lt[i] == rt[j]) {
                        let mut row = lt.clone();
                        row.extend(right_kept.iter().map(|&j| rt[j].clone()));
                        out.insert(row, lk.mul(rk))?;
                    }
                }
            }
            Ok(out)
        }
        RaExpr::Union(a, b) => {
            let left = eval_inner(db, a)?;
            let right = eval_inner(db, b)?;
            if !left.schema().union_compatible(right.schema()) {
                return Err(RelalgError::SchemaMismatch {
                    left: left.schema().attrs().to_vec(),
                    right: right.schema().attrs().to_vec(),
                });
            }
            let mut out = left;
            for (t, k) in right.iter() {
                out.insert(t.clone(), k.clone())?;
            }
            Ok(out)
        }
        RaExpr::Rename(e, pairs) => {
            let input = eval_inner(db, e)?;
            let mut attrs: Vec<String> = input.schema().attrs().to_vec();
            for (old, new) in pairs {
                let i = input.schema().resolve(old)?;
                attrs[i] = new.clone();
            }
            Ok(input.with_schema(Schema::new(attrs)?))
        }
        RaExpr::Diff(_, _) => unreachable!("rejected by positivity check"),
    }
}

/// Builds the Figure 4 query of the paper as a positive RA expression:
///
/// ```text
/// V = π_{X,Z}(R)  ∪  π_{r1.X, r2.Z}( σ_{r1.Y = r2.Y OR r1.Z = r2.Z}( R × R ) )
/// ```
///
/// (the copy rule plus the disjunctive self-join of Green et al.'s
/// running example, which the paper's figure abbreviates to Datalog).
pub fn figure4_query() -> RaExpr {
    use cdb_relalg::{CmpOp, Operand, Pred, ProjItem};
    let copy = RaExpr::scan("R").project(vec![ProjItem::col("X", "X"), ProjItem::col("Z", "Z")]);
    let self_join = RaExpr::ScanAs("R".into(), "r1".into())
        .product(RaExpr::ScanAs("R".into(), "r2".into()))
        .select(Pred::Or(
            Box::new(Pred::cmp(
                Operand::col("r1.Y"),
                CmpOp::Eq,
                Operand::col("r2.Y"),
            )),
            Box::new(Pred::cmp(
                Operand::col("r1.Z"),
                CmpOp::Eq,
                Operand::col("r2.Z"),
            )),
        ))
        .project(vec![ProjItem::col("r1.X", "X"), ProjItem::col("r2.Z", "Z")]);
    copy.union(self_join)
}

/// The Figure 4 source instance with its `p, r, s` tuple identifiers,
/// annotated in semiring `K` via `var`.
pub fn figure4_database<K: Semiring>(var: impl Fn(&str) -> K) -> KDatabase<K> {
    use cdb_model::Atom;
    let s = |x: &str| Atom::Str(x.into());
    let schema = Schema::new(["X", "Y", "Z"]).unwrap();
    let rel = KRelation::from_pairs(
        schema,
        [
            (vec![s("a"), s("b"), s("c")], var("p")),
            (vec![s("d"), s("b"), s("e")], var("r")),
            (vec![s("f"), s("g"), s("e")], var("s")),
        ],
    )
    .unwrap();
    KDatabase::new().with("R", rel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::nat::Nat;
    use crate::instances::polynomial::Polynomial;
    use crate::instances::why::Why;
    use crate::instances::Bool;
    use cdb_model::Atom;
    use cdb_relalg::{Pred, ProjItem};

    fn s(x: &str) -> Atom {
        Atom::Str(x.into())
    }

    #[test]
    fn figure4_polynomials_match_the_paper() {
        let db = figure4_database(|v| Polynomial::var(v));
        let v = eval_k(&db, &figure4_query()).unwrap();
        let poly = |x: &str, z: &str| v.annotation(&vec![s(x), s(z)]).to_string();
        // The five output tuples and their printed polynomials, exactly
        // as in Figure 4.
        assert_eq!(poly("a", "c"), "p + p·p");
        assert_eq!(poly("a", "e"), "p·r");
        assert_eq!(poly("d", "c"), "p·r"); // the paper writes r·p; · commutes
        assert_eq!(poly("d", "e"), "r + r·r + r·s");
        assert_eq!(poly("f", "e"), "s + r·s + s·s"); // paper: s + s·s + s·r
        assert_eq!(v.len(), 5);
    }

    #[test]
    fn figure4_under_bag_semantics() {
        // ℕ-instantiation with p = r = s = 1 gives derivation counts.
        let db = figure4_database(|_| Nat(1));
        let v = eval_k(&db, &figure4_query()).unwrap();
        assert_eq!(v.annotation(&vec![s("a"), s("c")]), Nat(2));
        assert_eq!(v.annotation(&vec![s("d"), s("e")]), Nat(3));
        assert_eq!(v.annotation(&vec![s("f"), s("e")]), Nat(3));
        assert_eq!(v.annotation(&vec![s("a"), s("e")]), Nat(1));
    }

    #[test]
    fn figure4_under_why_provenance() {
        let db = figure4_database(|v| Why::var(v));
        let v = eval_k(&db, &figure4_query()).unwrap();
        // (d,e): witnesses {r} (copy), {r} (self-join collapses), {r,s}.
        let de = v.annotation(&vec![s("d"), s("e")]);
        assert_eq!(de.witnesses().len(), 2);
        assert_eq!(de.to_string(), "{{r}, {r,s}}");
        // Minimal witnesses drop {r,s}.
        assert_eq!(de.minimal_witnesses().len(), 1);
    }

    #[test]
    fn boolean_instantiation_is_set_semantics() {
        let db = figure4_database(|_| Bool(true));
        let v = eval_k(&db, &figure4_query()).unwrap();
        assert_eq!(v.len(), 5);
        assert!(v.iter().all(|(_, k)| *k == Bool(true)));
    }

    #[test]
    fn difference_is_rejected() {
        let db = figure4_database(|_| Bool(true));
        let q = RaExpr::scan("R").diff(RaExpr::scan("R"));
        assert!(eval_k(&db, &q).is_err());
    }

    #[test]
    fn projection_sums_annotations() {
        // π_B over two tuples sharing B merges with +: Figure 2's
        // observation that the output "contains two tuples that differ
        // only on their annotation … equivalent to one tuple annotated
        // with a set of colors".
        let schema = Schema::new(["A", "B"]).unwrap();
        let r = KRelation::from_pairs(
            schema,
            [
                (vec![Atom::Int(10), Atom::Int(50)], Polynomial::var("b2")),
                (vec![Atom::Int(12), Atom::Int(50)], Polynomial::var("b4")),
            ],
        )
        .unwrap();
        let db = KDatabase::new().with("R", r);
        let q = RaExpr::scan("R").project(vec![ProjItem::col("B", "B")]);
        let v = eval_k(&db, &q).unwrap();
        assert_eq!(v.annotation(&vec![Atom::Int(50)]).to_string(), "b2 + b4");
    }

    #[test]
    fn selection_keeps_annotations() {
        let db = figure4_database(|v| Polynomial::var(v));
        let q = RaExpr::scan("R").select(Pred::col_eq_const("X", s("a")));
        let v = eval_k(&db, &q).unwrap();
        assert_eq!(v.len(), 1);
        assert_eq!(v.annotation(&vec![s("a"), s("b"), s("c")]).to_string(), "p");
    }

    #[test]
    fn hash_engine_matches_naive_on_figure4() {
        // The Figure 4 query contains a disjunctive self-join (falls
        // back to product) — add an equi-join on top so both physical
        // paths run.
        let db = figure4_database(|v| Polynomial::var(v));
        let q = figure4_query().natural_join(RaExpr::ScanAs("R".into(), "R".into()));
        let naive = eval_k(&db, &q).unwrap();
        for cfg in [ExecConfig::default(), ExecConfig::sequential(), {
            let mut c = ExecConfig::with_partitions(8);
            c.parallel_threshold = 1;
            c
        }] {
            assert_eq!(eval_k_with(&db, &q, &cfg).unwrap(), naive);
        }
    }

    #[test]
    fn hash_engine_recognizes_select_product() {
        let db = figure4_database(|v| Polynomial::var(v));
        let q = RaExpr::ScanAs("R".into(), "r1".into())
            .product(RaExpr::ScanAs("R".into(), "r2".into()))
            .select(Pred::col_eq_col("r1.Y", "r2.Y"));
        let naive = eval_k(&db, &q).unwrap();
        let hashed = eval_k_with(&db, &q, &ExecConfig::default()).unwrap();
        assert_eq!(naive, hashed);
        assert_eq!(
            hashed
                .annotation(&vec![s("a"), s("b"), s("c"), s("a"), s("b"), s("c")])
                .to_string(),
            "p·p"
        );
    }

    #[test]
    fn natural_join_multiplies() {
        let ab = Schema::new(["A", "B"]).unwrap();
        let bc = Schema::new(["B", "C"]).unwrap();
        let r = KRelation::from_pairs(
            ab,
            [(vec![Atom::Int(1), Atom::Int(2)], Polynomial::var("x"))],
        )
        .unwrap();
        let t = KRelation::from_pairs(
            bc,
            [(vec![Atom::Int(2), Atom::Int(3)], Polynomial::var("y"))],
        )
        .unwrap();
        let db = KDatabase::new().with("R", r).with("T", t);
        let q = RaExpr::scan("R").natural_join(RaExpr::scan("T"));
        let v = eval_k(&db, &q).unwrap();
        assert_eq!(
            v.annotation(&vec![Atom::Int(1), Atom::Int(2), Atom::Int(3)])
                .to_string(),
            "x·y"
        );
    }
}
