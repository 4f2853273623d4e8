//! Per-relation statistics feeding the cost-based planner.
//!
//! The planner in [`crate::plan`](mod@crate::plan) needs three numbers to order joins and
//! choose access paths: how many rows a relation has, how many distinct
//! values each column holds, and — for integer columns — roughly how
//! those values are distributed. [`DbStats::analyze`] computes all three
//! in one pass over a [`Database`]; the durable engine in `cdb-core`
//! instead maintains the same shape incrementally on commit (entry
//! counts and per-indexed-field distincts fall out of its transactional
//! secondary indexes) and hands the planner a ready-made [`DbStats`].
//!
//! Estimates are heuristics, never semantics: a wildly wrong histogram
//! can only produce a slower plan, not a wrong answer — every physical
//! plan is proven byte-identical to the reference evaluator by the
//! differential suites.

use std::collections::{BTreeMap, BTreeSet};

use cdb_model::Atom;

use crate::database::Database;
use crate::pred::CmpOp;
use crate::relation::Relation;

/// Bucket count for the per-column equi-width histograms.
pub const HIST_BUCKETS: usize = 8;

/// Join/filter selectivity assumed when no statistics are available.
pub const DEFAULT_DISTINCT: f64 = 10.0;

/// The unqualified base name of an attribute (`"r.A"` → `"A"`).
pub(crate) fn base_name(attr: &str) -> &str {
    attr.rsplit('.').next().unwrap_or(attr)
}

/// A small equi-width histogram over a column's integer values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Smallest observed value.
    pub min: i64,
    /// Largest observed value.
    pub max: i64,
    /// Row counts per equi-width bucket spanning `[min, max]`.
    pub buckets: Vec<u64>,
}

impl Histogram {
    /// Builds a histogram from integer values; `None` when empty.
    pub fn build(values: &[i64]) -> Option<Histogram> {
        let (&min, &max) = (values.iter().min()?, values.iter().max()?);
        let mut h = Histogram {
            min,
            max,
            buckets: vec![0; HIST_BUCKETS],
        };
        for &v in values {
            let b = h.bucket_of(v);
            h.buckets[b] += 1;
        }
        Some(h)
    }

    fn bucket_of(&self, v: i64) -> usize {
        if self.max <= self.min {
            return 0;
        }
        // Widths in u128: the value range may span the whole i64 line.
        let span = (self.max as i128 - self.min as i128) as u128 + 1;
        let off = (v as i128 - self.min as i128) as u128;
        ((off * self.buckets.len() as u128) / span) as usize
    }

    fn rows(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Estimated fraction of rows with value `≤ v`, linearly
    /// interpolating inside `v`'s bucket.
    pub fn le_fraction(&self, v: i64) -> f64 {
        if v < self.min {
            return 0.0;
        }
        if v >= self.max {
            return 1.0;
        }
        let rows = self.rows().max(1) as f64;
        let b = self.bucket_of(v);
        let below: u64 = self.buckets[..b].iter().sum();
        // Fraction of bucket b at or below v, assuming uniform spread.
        let span = (self.max as i128 - self.min as i128) as f64 + 1.0;
        let width = span / self.buckets.len() as f64;
        let bucket_lo = self.min as f64 + b as f64 * width;
        let inside = ((v as f64 - bucket_lo + 1.0) / width).clamp(0.0, 1.0);
        (below as f64 + inside * self.buckets[b] as f64) / rows
    }

    /// Estimated fraction of rows in `v`'s bucket (0 outside the range).
    pub fn bucket_fraction(&self, v: i64) -> f64 {
        if v < self.min || v > self.max {
            return 0.0;
        }
        self.buckets[self.bucket_of(v)] as f64 / self.rows().max(1) as f64
    }
}

/// Statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColStats {
    /// Number of distinct values.
    pub distinct: u64,
    /// Equi-width histogram, present when every value is an integer.
    pub hist: Option<Histogram>,
}

impl ColStats {
    /// Statistics for a column with `distinct` values and no histogram.
    pub fn distinct_only(distinct: u64) -> ColStats {
        ColStats {
            distinct,
            hist: None,
        }
    }

    /// Estimated selectivity of `col = v`.
    pub fn eq_selectivity(&self, v: &Atom) -> f64 {
        if let (Some(h), Atom::Int(i)) = (&self.hist, v) {
            if *i < h.min || *i > h.max {
                return 0.0;
            }
            // Rows in the bucket, spread over the bucket's share of the
            // column's distinct values.
            let per_bucket = (self.distinct as f64 / h.buckets.len() as f64).max(1.0);
            return (h.bucket_fraction(*i) / per_bucket).min(1.0);
        }
        1.0 / self.distinct.max(1) as f64
    }

    /// Estimated selectivity of `col <op> v` for an ordered comparison.
    pub fn range_selectivity(&self, op: CmpOp, v: &Atom) -> f64 {
        if let (Some(h), Atom::Int(i)) = (&self.hist, v) {
            let le = h.le_fraction(*i);
            let eq = self.eq_selectivity(v);
            return match op {
                CmpOp::Le => le,
                CmpOp::Lt => (le - eq).max(0.0),
                CmpOp::Ge => (1.0 - le + eq).min(1.0),
                CmpOp::Gt => 1.0 - le,
                CmpOp::Eq => eq,
                CmpOp::Ne => 1.0 - eq,
            };
        }
        match op {
            CmpOp::Eq => self.eq_selectivity(v),
            CmpOp::Ne => 1.0 - self.eq_selectivity(v),
            _ => 1.0 / 3.0,
        }
    }
}

/// Statistics for one relation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RelStats {
    /// Row count.
    pub rows: u64,
    /// Per-column statistics, keyed by unqualified attribute name.
    pub cols: BTreeMap<String, ColStats>,
}

impl RelStats {
    /// Analyzes one relation: row count, per-column distincts, and an
    /// integer histogram per all-integer column.
    pub fn analyze(rel: &Relation) -> RelStats {
        let mut cols = BTreeMap::new();
        for (i, attr) in rel.schema().attrs().iter().enumerate() {
            let mut seen: BTreeSet<&Atom> = BTreeSet::new();
            let mut ints: Vec<i64> = Vec::with_capacity(rel.len());
            let mut all_int = true;
            for t in rel.tuples() {
                seen.insert(&t[i]);
                match &t[i] {
                    Atom::Int(v) => ints.push(*v),
                    _ => all_int = false,
                }
            }
            cols.insert(
                base_name(attr).to_owned(),
                ColStats {
                    distinct: seen.len() as u64,
                    hist: if all_int {
                        Histogram::build(&ints)
                    } else {
                        None
                    },
                },
            );
        }
        RelStats {
            rows: rel.len() as u64,
            cols,
        }
    }

    /// Column statistics by (possibly qualified) attribute name.
    pub fn col(&self, attr: &str) -> Option<&ColStats> {
        self.cols.get(base_name(attr))
    }
}

/// Statistics for a whole database, keyed by relation name.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DbStats {
    /// Per-relation statistics.
    pub rels: BTreeMap<String, RelStats>,
}

impl DbStats {
    /// Empty statistics: the planner falls back to default heuristics.
    pub fn none() -> DbStats {
        DbStats::default()
    }

    /// Analyzes every relation in one pass.
    pub fn analyze(db: &Database) -> DbStats {
        DbStats {
            rels: db
                .iter()
                .map(|(n, r)| (n.to_owned(), RelStats::analyze(r)))
                .collect(),
        }
    }

    /// Statistics for one relation.
    pub fn rel(&self, name: &str) -> Option<&RelStats> {
        self.rels.get(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn int(i: i64) -> Atom {
        Atom::Int(i)
    }

    #[test]
    fn analyze_counts_rows_distincts_and_buckets() {
        let rel = Relation::table(["A", "B"], (0..40).map(|i| vec![int(i), int(i % 4)])).unwrap();
        let db = Database::new().with("R", rel);
        let st = DbStats::analyze(&db);
        let r = st.rel("R").unwrap();
        assert_eq!(r.rows, 40);
        assert_eq!(r.col("A").unwrap().distinct, 40);
        assert_eq!(r.col("B").unwrap().distinct, 4);
        let h = r.col("A").unwrap().hist.as_ref().unwrap();
        assert_eq!(h.rows(), 40);
        assert_eq!((h.min, h.max), (0, 39));
        // Qualified lookups hit the same column.
        assert_eq!(r.col("r.A").unwrap().distinct, 40);
    }

    #[test]
    fn eq_selectivity_tracks_distincts_and_range() {
        let rel = Relation::table(["A"], (0..100).map(|i| vec![int(i)])).unwrap();
        let st = RelStats::analyze(&rel);
        let c = st.col("A").unwrap();
        let sel = c.eq_selectivity(&int(50));
        assert!(sel > 0.0 && sel < 0.1, "point lookup is selective: {sel}");
        assert_eq!(c.eq_selectivity(&int(1000)), 0.0, "out of range");
        let le = c.range_selectivity(CmpOp::Le, &int(49));
        assert!((le - 0.5).abs() < 0.1, "half the range: {le}");
    }

    #[test]
    fn non_integer_columns_fall_back_to_distinct() {
        let rel = Relation::table(
            ["S"],
            ["a", "b", "a", "c"].map(|s| vec![Atom::Str(s.into())]),
        )
        .unwrap();
        let st = RelStats::analyze(&rel);
        let c = st.col("S").unwrap();
        assert_eq!(c.distinct, 3);
        assert!(c.hist.is_none());
        assert!((c.eq_selectivity(&Atom::Str("a".into())) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_handles_single_value_and_extremes() {
        let h = Histogram::build(&[7, 7, 7]).unwrap();
        assert_eq!(h.bucket_fraction(7), 1.0);
        assert_eq!(h.le_fraction(7), 1.0);
        assert_eq!(h.le_fraction(6), 0.0);
        let wide = Histogram::build(&[i64::MIN, 0, i64::MAX]).unwrap();
        assert_eq!(wide.rows(), 3);
        assert!(wide.le_fraction(i64::MAX) == 1.0);
    }
}
