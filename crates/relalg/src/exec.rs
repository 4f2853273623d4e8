//! The physical execution layer: the row-container trait ([`Rows`]) the
//! one executor is written over, the hash-join kernel with parallel
//! partitioned probing, and per-operator execution statistics.
//!
//! Only [`PhysPlan`] trees run ([`crate::plan::execute`]). The entry
//! points here, [`eval_hash`] and [`eval_with_stats`], compile with the
//! shape-preserving [`crate::plan::lower`], which keeps their output
//! byte- and order-identical to the reference interpreter in
//! [`crate::eval`]:
//!
//! * **Hash joins.** Natural joins hash on their shared columns, and the
//!   recognizer ([`recognize_equi_join`]) turns
//!   `σ[a.x = b.y ∧ rest](A × B)` — the shape every `SELECT … FROM A, B
//!   WHERE a.x = b.y` compiles to — into a hash join on the equated
//!   column pairs under a filter of the full predicate, so residual
//!   (non-equality) conjuncts still apply.
//! * **Parallel partitioned probing.** When the probe side is at least
//!   [`ExecConfig::parallel_threshold`] tuples, it is split into
//!   [`ExecConfig::partitions`] chunks probed concurrently under
//!   [`std::thread::scope`]. Chunk results are concatenated in chunk
//!   order, so the output is byte-identical to a sequential probe
//!   regardless of the partition count.
//! * **Statistics.** The executor records one [`PlanRun`] per plan node;
//!   [`eval_with_stats`] assembles them into an [`ExecStats`] operator
//!   tree whose `Display` impl renders the table the join benchmarks
//!   print.
//!
//! The kernel, [`join_matches`], works on borrowed key columns and
//! returns `(probe, build)` index pairs; [`join_on`] puts key extraction
//! in front of it. The colored evaluator of `cdb-annotation` calls it
//! too, but stays syntax-directed (see `eval_colored_with`).

use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

use cdb_obs::SpanGuard;

use cdb_model::Atom;

use crate::database::Database;
use crate::error::RelalgError;
use crate::expr::RaExpr;
use crate::index::{ColumnIndex, IndexSet};
use crate::plan::{execute, lower, PhysPlan, PlanRun};
use crate::pred::{CmpOp, Operand, Pred};
use crate::relation::{Relation, Schema, Tuple};

/// Tuning knobs for the physical engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExecConfig {
    /// Number of probe partitions; `0` means one per available core.
    /// `1` forces a sequential probe.
    pub partitions: usize,
    /// Probe sides smaller than this many tuples are probed
    /// sequentially — thread spawning costs more than it saves on
    /// small inputs.
    pub parallel_threshold: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            partitions: 0,
            parallel_threshold: 4096,
        }
    }
}

impl ExecConfig {
    /// Hash joins with a strictly sequential probe.
    pub fn sequential() -> Self {
        ExecConfig {
            partitions: 1,
            ..ExecConfig::default()
        }
    }

    /// Hash joins probing across exactly `n` partitions (subject to the
    /// parallel threshold); `0` means one per available core.
    pub fn with_partitions(n: usize) -> Self {
        ExecConfig {
            partitions: n,
            ..ExecConfig::default()
        }
    }

    /// The partition count to use for a probe side of `probe_rows`
    /// tuples: `1` below the threshold, otherwise the configured count
    /// (resolving `0` to the number of available cores).
    pub fn partitions_for(&self, probe_rows: usize) -> usize {
        if probe_rows < self.parallel_threshold.max(1) {
            return 1;
        }
        match self.partitions {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        }
    }
}

/// The row container the executor ([`crate::plan::execute`]) is generic
/// over: a relation whose rows carry an annotation from a commutative
/// semiring. [`Relation`] implements it with annotation `()` (sets),
/// `cdb-semiring`'s `KRelation<K>` with `K` (ℕ for bags, `ℕ[X]` for
/// provenance polynomials).
///
/// The contract: [`Rows::insert`] is the semiring `+`, [`Rows::times`]
/// is `·`, both associative and commutative — which is what lets one
/// plan, with its reordered joins and pushed filters, be valid for
/// every instance.
pub trait Rows: Clone + Sized {
    /// The per-row annotation.
    type Ann: Clone;
    /// The database the plan's scans read.
    type Db;

    /// The stored relation `name`.
    fn base<'a>(db: &'a Self::Db, name: &str) -> Result<&'a Self, RelalgError>;

    /// The reference evaluator, which runs [`crate::PlanOp::Naive`]
    /// nodes.
    fn reference(db: &Self::Db, expr: &RaExpr) -> Result<Self, RelalgError>;

    /// An empty container.
    fn empty(schema: Schema) -> Self;

    /// The schema.
    fn schema(&self) -> &Schema;

    /// The rows with their annotations, in the container's order.
    fn rows(&self) -> impl ExactSizeIterator<Item = (&Tuple, &Self::Ann)>;

    /// Adds a row; a tuple already present absorbs `ann` with `+`
    /// (sets just keep the duplicate until the caller's final dedup).
    fn insert(&mut self, tuple: Tuple, ann: Self::Ann) -> Result<(), RelalgError>;

    /// The annotation of a row joined from two: `l · r`.
    fn times(l: &Self::Ann, r: &Self::Ann) -> Self::Ann;

    /// Set difference. Only sets have one — semirings have no
    /// subtraction — so annotated containers return an error.
    fn diff(&self, other: &Self) -> Result<Self, RelalgError>;

    /// The rows a secondary index posts under `key`, for containers
    /// whose rows have the stable offsets the index stores. The default
    /// `None` makes the executor filter the base rows instead.
    fn index_rows(&self, _index: &ColumnIndex, _key: &Atom) -> Option<Vec<(&Tuple, &Self::Ann)>> {
        None
    }
}

impl Rows for Relation {
    type Ann = ();
    type Db = Database;

    fn base<'a>(db: &'a Database, name: &str) -> Result<&'a Relation, RelalgError> {
        db.get(name)
    }

    fn reference(db: &Database, expr: &RaExpr) -> Result<Relation, RelalgError> {
        crate::eval::eval(db, expr)
    }

    fn empty(schema: Schema) -> Relation {
        Relation::empty(schema)
    }

    fn schema(&self) -> &Schema {
        self.schema()
    }

    fn rows(&self) -> impl ExactSizeIterator<Item = (&Tuple, &())> {
        self.tuples().iter().map(|t| (t, &()))
    }

    fn insert(&mut self, tuple: Tuple, _ann: ()) -> Result<(), RelalgError> {
        self.insert(tuple)
    }

    fn times(_l: &(), _r: &()) {}

    fn diff(&self, other: &Relation) -> Result<Relation, RelalgError> {
        let gone = other.tuple_set();
        let kept = self.tuples().iter().filter(|t| !gone.contains(*t));
        Relation::from_rows(self.schema().clone(), kept.cloned())
    }

    fn index_rows(&self, index: &ColumnIndex, key: &Atom) -> Option<Vec<(&Tuple, &())>> {
        let tuples = self.tuples();
        Some(
            index
                .lookup(key)
                .iter()
                .map(|&i| (&tuples[i], &()))
                .collect(),
        )
    }
}

/// The result of a [`join_matches`] kernel invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinMatches {
    /// Matching `(probe_index, build_index)` pairs, ordered by probe
    /// index, then by build insertion order within a key bucket. This is
    /// exactly the order a probe-major nested loop would discover them
    /// in, which is what makes the hash engine's output byte-identical
    /// to the naive engine's.
    pub pairs: Vec<(usize, usize)>,
    /// How many probe partitions actually ran.
    pub partitions: usize,
}

/// The shared hash-join kernel: builds a hash table over `build` keys
/// and probes it with `probe` keys, in parallel when `cfg` allows.
///
/// Each key is the projection of one tuple onto the join columns; rows
/// with equal keys match. Callers go through [`join_on`] and combine
/// the matched rows under their own semantics (the executor's
/// [`Rows::times`], the colored evaluator's color merging).
pub fn join_matches(build: &[Vec<&Atom>], probe: &[Vec<&Atom>], cfg: &ExecConfig) -> JoinMatches {
    let mut table: HashMap<&[&Atom], Vec<usize>> = HashMap::with_capacity(build.len());
    for (i, key) in build.iter().enumerate() {
        table.entry(key.as_slice()).or_default().push(i);
    }
    let parts = cfg.partitions_for(probe.len()).max(1);
    if parts == 1 || probe.len() < 2 {
        let mut pairs = Vec::new();
        probe_chunk(&table, probe, 0, &mut pairs);
        return JoinMatches {
            pairs,
            partitions: 1,
        };
    }
    let chunk = probe.len().div_ceil(parts);
    std::thread::scope(|s| {
        let table = &table;
        let handles: Vec<_> = probe
            .chunks(chunk)
            .enumerate()
            .map(|(ci, rows)| {
                s.spawn(move || {
                    let mut pairs = Vec::new();
                    probe_chunk(table, rows, ci * chunk, &mut pairs);
                    pairs
                })
            })
            .collect();
        let partitions = handles.len();
        let mut pairs = Vec::new();
        for h in handles {
            // Chunks concatenate in order: determinism does not depend
            // on which worker finishes first.
            pairs.extend(h.join().expect("join probe worker panicked"));
        }
        JoinMatches { pairs, partitions }
    })
}

fn probe_chunk(
    table: &HashMap<&[&Atom], Vec<usize>>,
    probe: &[Vec<&Atom>],
    base: usize,
    out: &mut Vec<(usize, usize)>,
) {
    for (off, key) in probe.iter().enumerate() {
        if let Some(bucket) = table.get(key.as_slice()) {
            out.extend(bucket.iter().map(|&bi| (base + off, bi)));
        }
    }
}

/// Projects each tuple onto the given columns, borrowing the atoms —
/// the key extraction step in front of [`join_matches`].
fn extract_keys<'a>(
    rows: impl IntoIterator<Item = &'a Tuple>,
    cols: impl Iterator<Item = usize> + Clone,
) -> Vec<Vec<&'a Atom>> {
    rows.into_iter()
        .map(|t| cols.clone().map(|c| &t[c]).collect())
        .collect()
}

/// Hash-joins `probe` rows against `build` rows on the given
/// `(probe column, build column)` pairs: key extraction plus
/// [`join_matches`].
pub fn join_on<'a>(
    probe: impl IntoIterator<Item = &'a Tuple>,
    build: impl IntoIterator<Item = &'a Tuple>,
    keys: &[(usize, usize)],
    cfg: &ExecConfig,
) -> JoinMatches {
    let build = extract_keys(build, keys.iter().map(|&(_, b)| b));
    let probe = extract_keys(probe, keys.iter().map(|&(p, _)| p));
    join_matches(&build, &probe, cfg)
}

/// Whether every column reference inside a predicate resolves against
/// the given schema (descending through And/Or/Not). Resolution errors
/// are row-independent, so this exactly predicts whether evaluating the
/// predicate on *any* row would surface one.
pub(crate) fn pred_resolves(schema: &Schema, p: &Pred) -> bool {
    match p {
        Pred::True => true,
        Pred::Cmp { left, right, .. } => [left, right].iter().all(|o| match o {
            Operand::Col(c) => schema.resolve(c).is_ok(),
            Operand::Const(_) => true,
        }),
        Pred::And(a, b) | Pred::Or(a, b) => pred_resolves(schema, a) && pred_resolves(schema, b),
        Pred::Not(a) => pred_resolves(schema, a),
    }
}

/// Recognizes `σ_pred(A × B)` as an equi-join: scans the predicate's
/// top-level conjuncts for `col = col` comparisons whose operands
/// resolve to opposite sides of the product, and returns the
/// `(left column, right column)` pairs they equate — the hash keys.
/// Returns `None` when no conjunct qualifies (the caller falls back to
/// product-then-filter). The caller re-applies the *full* predicate to
/// matched rows, so the other conjuncts (and same-side equalities)
/// still filter.
///
/// Two correctness rules shape what becomes a hash key:
///
/// * **Duplicate equalities are collapsed.** `r.a = s.a AND r.a = s.a`
///   (or the flipped `s.a = r.a`) contributes one key pair, not two —
///   the duplicate would widen every extracted key and double the
///   comparison work without changing the match set.
/// * **An unresolvable conjunct poisons everything after it.** The
///   reference engine evaluates conjuncts left to right with
///   short-circuit, so a resolution error in conjunct *i* surfaces
///   exactly when some row passes conjuncts `1..i`. A key extracted
///   from a conjunct *after* i could filter out precisely that row and
///   hide the error. Keys gathered *before* i stay valid — a row they
///   reject would have short-circuited at that earlier conjunct anyway
///   — and the full predicate re-check on matched rows surfaces the
///   error in the same left-to-right order the reference engine uses.
pub fn recognize_equi_join(
    combined: &Schema,
    left_arity: usize,
    pred: &Pred,
) -> Option<Vec<(usize, usize)>> {
    let mut keys: Vec<(usize, usize)> = Vec::new();
    for conjunct in pred.conjuncts() {
        if !pred_resolves(combined, conjunct) {
            break;
        }
        if let Pred::Cmp {
            left: Operand::Col(l),
            op: CmpOp::Eq,
            right: Operand::Col(r),
        } = conjunct
        {
            let li = combined.resolve(l).expect("checked by pred_resolves");
            let ri = combined.resolve(r).expect("checked by pred_resolves");
            let pair = match (li < left_arity, ri < left_arity) {
                (true, false) => (li, ri - left_arity),
                (false, true) => (ri, li - left_arity),
                _ => continue, // same-side equality: plain filter
            };
            if !keys.contains(&pair) {
                keys.push(pair);
            }
        }
    }
    (!keys.is_empty()).then_some(keys)
}

/// Per-operator execution statistics, forming a tree that mirrors the
/// physical plan.
#[derive(Debug, Clone)]
pub struct OpStats {
    /// Operator label, e.g. `HashJoin[r.A=s.A]` or `Scan R`.
    pub op: String,
    /// Rows produced by this operator (before any final dedup).
    pub rows_out: usize,
    /// Hash-table size for join operators.
    pub build_rows: Option<usize>,
    /// Probe-side size for join operators.
    pub probe_rows: Option<usize>,
    /// Probe partitions actually used, for join operators.
    pub partitions: Option<usize>,
    /// Wall time spent in this operator, including its children.
    pub elapsed: Duration,
    /// Wall time spent in this operator *excluding* its children —
    /// summing `self_elapsed` over a tree gives the root's `elapsed`
    /// (up to clock granularity) instead of double-counting every
    /// subtree once per ancestor.
    pub self_elapsed: Duration,
    /// Child operators.
    pub children: Vec<OpStats>,
}

impl OpStats {
    /// Assembles the subtree for `plan` from the executor's per-node
    /// actuals, consuming one [`PlanRun`] per node in plan preorder.
    fn assemble(plan: &PhysPlan, runs: &mut std::slice::Iter<'_, PlanRun>) -> OpStats {
        let run = runs
            .next()
            .expect("the executor records one run per plan node");
        let children: Vec<OpStats> = plan
            .children
            .iter()
            .map(|c| OpStats::assemble(c, runs))
            .collect();
        let nested: Duration = children.iter().map(|c| c.elapsed).sum();
        // Only hash joins probe, so only they report partitions.
        let join = run.partitions > 0;
        OpStats {
            op: plan.label(),
            rows_out: run.rows,
            build_rows: join.then(|| children[1].rows_out),
            probe_rows: join.then(|| children[0].rows_out),
            partitions: join.then_some(run.partitions),
            elapsed: run.elapsed,
            self_elapsed: run.elapsed.saturating_sub(nested),
            children,
        }
    }

    /// Total number of operators in this subtree.
    pub fn operator_count(&self) -> usize {
        1 + self
            .children
            .iter()
            .map(OpStats::operator_count)
            .sum::<usize>()
    }
}

/// The statistics of one [`eval_with_stats`] run.
#[derive(Debug, Clone)]
pub struct ExecStats {
    /// The root of the physical operator tree.
    pub root: OpStats,
}

impl ExecStats {
    /// Finds the first operator (preorder) whose label starts with the
    /// given prefix — convenient for asserting on join stats in tests.
    pub fn find(&self, prefix: &str) -> Option<&OpStats> {
        fn go<'a>(n: &'a OpStats, prefix: &str) -> Option<&'a OpStats> {
            if n.op.starts_with(prefix) {
                return Some(n);
            }
            n.children.iter().find_map(|c| go(c, prefix))
        }
        go(&self.root, prefix)
    }
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn width(n: &OpStats, depth: usize) -> usize {
            let own = depth * 2 + n.op.chars().count();
            n.children
                .iter()
                .map(|c| width(c, depth + 1))
                .fold(own, usize::max)
        }
        fn row(f: &mut fmt::Formatter<'_>, n: &OpStats, depth: usize, opw: usize) -> fmt::Result {
            let pad = " ".repeat(depth * 2);
            let opt = |v: Option<usize>| v.map_or(String::from("-"), |v| v.to_string());
            let label: String = format!("{pad}{}", n.op);
            let fill = opw.saturating_sub(label.chars().count());
            writeln!(
                f,
                "{label}{}  {:>9}  {:>9}  {:>9}  {:>4}  {:>9.3}  {:>9.3}",
                " ".repeat(fill),
                n.rows_out,
                opt(n.build_rows),
                opt(n.probe_rows),
                opt(n.partitions),
                n.elapsed.as_secs_f64() * 1e3,
                n.self_elapsed.as_secs_f64() * 1e3,
            )?;
            for c in &n.children {
                row(f, c, depth + 1, opw)?;
            }
            Ok(())
        }
        let opw = width(&self.root, 0).max("operator".len());
        writeln!(
            f,
            "{:<opw$}  {:>9}  {:>9}  {:>9}  {:>4}  {:>9}  {:>9}",
            "operator", "rows", "build", "probe", "part", "ms", "self ms"
        )?;
        row(f, &self.root, 0, opw)
    }
}

/// Evaluates under set semantics with the physical engine, returning the
/// result and the operator statistics tree: the expression is lowered
/// shape-for-shape ([`lower`]) and run by the one executor, so the
/// result is byte-identical to [`crate::eval::eval`].
pub fn eval_with_stats(
    db: &Database,
    expr: &RaExpr,
    cfg: &ExecConfig,
) -> Result<(Relation, ExecStats), RelalgError> {
    let mut span = SpanGuard::enter("relalg.eval");
    let plan = lower::<Relation>(db, expr);
    let (mut rel, runs) = execute::<Relation>(db, &plan, &IndexSet::new(), cfg)?;
    rel.dedup();
    span.set_attr(rel.len() as u64);
    let m = cdb_obs::global();
    m.counter("relalg.eval.count").inc();
    m.histogram("relalg.eval.ns").observe(span.elapsed());
    let root = OpStats::assemble(&plan, &mut runs.iter());
    Ok((rel, ExecStats { root }))
}

/// Evaluates under set semantics with the physical engine (hash joins,
/// parallel probing), discarding statistics. Produces exactly the same
/// relation as [`crate::eval::eval`].
pub fn eval_hash(db: &Database, expr: &RaExpr, cfg: &ExecConfig) -> Result<Relation, RelalgError> {
    eval_with_stats(db, expr, cfg).map(|(rel, _)| rel)
}

/// The span name for an expression node — the `relalg.op.*` taxonomy
/// the reference interpreter in `eval.rs` shares with the executor
/// ([`crate::plan::plan_span_name`]).
pub(crate) fn span_name(expr: &RaExpr) -> &'static str {
    match expr {
        RaExpr::Scan(_) => "relalg.op.scan",
        RaExpr::ScanAs(..) => "relalg.op.scan_as",
        RaExpr::Select(..) => "relalg.op.select",
        RaExpr::Project(..) => "relalg.op.project",
        RaExpr::Product(..) => "relalg.op.product",
        RaExpr::NaturalJoin(..) => "relalg.op.join",
        RaExpr::Union(..) => "relalg.op.union",
        RaExpr::Diff(..) => "relalg.op.diff",
        RaExpr::Rename(..) => "relalg.op.rename",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::expr::ProjItem;

    fn int(i: i64) -> Atom {
        Atom::Int(i)
    }

    fn join_db(n: i64) -> Database {
        // R(A,B) with B = A % 7; S(B,C): join on B fans out.
        let r = Relation::table(["A", "B"], (0..n).map(|i| vec![int(i), int(i % 7)])).unwrap();
        let s =
            Relation::table(["B", "C"], (0..20).map(|i| vec![int(i % 7), int(100 + i)])).unwrap();
        Database::new().with("R", r).with("S", s)
    }

    #[test]
    fn kernel_matches_are_probe_ordered() {
        let a1 = int(1);
        let a2 = int(2);
        let build = vec![vec![&a1], vec![&a2], vec![&a1]];
        let probe = vec![vec![&a2], vec![&a1]];
        let m = join_matches(&build, &probe, &ExecConfig::sequential());
        assert_eq!(m.pairs, vec![(0, 1), (1, 0), (1, 2)]);
        assert_eq!(m.partitions, 1);
    }

    #[test]
    fn kernel_is_partition_invariant() {
        let atoms: Vec<Atom> = (0..500).map(|i| int(i % 13)).collect();
        let keys: Vec<Vec<&Atom>> = atoms.iter().map(|a| vec![a]).collect();
        let seq = join_matches(&keys, &keys, &ExecConfig::sequential());
        for parts in [2, 3, 8] {
            let mut cfg = ExecConfig::with_partitions(parts);
            cfg.parallel_threshold = 1;
            let par = join_matches(&keys, &keys, &cfg);
            assert_eq!(par.pairs, seq.pairs, "{parts} partitions");
            assert_eq!(par.partitions, parts);
        }
    }

    #[test]
    fn natural_join_agrees_with_naive_engine() {
        let db = join_db(50);
        let q = RaExpr::scan("R").natural_join(RaExpr::scan("S"));
        let naive = eval(&db, &q).unwrap();
        let (hashed, stats) = eval_with_stats(&db, &q, &ExecConfig::default()).unwrap();
        assert_eq!(naive, hashed, "byte-identical, not just set-equal");
        let join = stats.find("HashNaturalJoin").expect("hash join in plan");
        assert_eq!(join.build_rows, Some(20));
        assert_eq!(join.probe_rows, Some(50));
    }

    #[test]
    fn select_product_is_recognized_as_equi_join() {
        let db = join_db(30);
        let q = RaExpr::ScanAs("R".into(), "r".into())
            .product(RaExpr::ScanAs("S".into(), "s".into()))
            .select(Pred::col_eq_col("r.B", "s.B").and(Pred::col_eq_const("r.A", 3)));
        let naive = eval(&db, &q).unwrap();
        let (hashed, stats) = eval_with_stats(&db, &q, &ExecConfig::default()).unwrap();
        assert_eq!(naive, hashed);
        assert!(
            stats.root.op.starts_with("Filter σ["),
            "the full predicate is re-checked above the join"
        );
        assert_eq!(stats.root.children[0].op, "HashJoin[r.B=s.B]");
    }

    #[test]
    fn parallel_probe_equals_sequential() {
        let db = join_db(2000);
        let q = RaExpr::scan("R").natural_join(RaExpr::scan("S"));
        let seq = eval_hash(&db, &q, &ExecConfig::sequential()).unwrap();
        for parts in [2, 8] {
            let mut cfg = ExecConfig::with_partitions(parts);
            cfg.parallel_threshold = 1;
            let par = eval_hash(&db, &q, &cfg).unwrap();
            assert_eq!(seq, par, "{parts} partitions");
        }
    }

    #[test]
    fn threshold_keeps_small_probes_sequential() {
        let db = join_db(100);
        let q = RaExpr::scan("R").natural_join(RaExpr::scan("S"));
        let cfg = ExecConfig::with_partitions(8); // threshold 4096 > 100
        let (_, stats) = eval_with_stats(&db, &q, &cfg).unwrap();
        let join = stats.find("HashNaturalJoin").unwrap();
        assert_eq!(join.partitions, Some(1));
    }

    #[test]
    fn whole_algebra_matches_on_a_mixed_query() {
        let db = join_db(40);
        let q = RaExpr::scan("R")
            .natural_join(RaExpr::scan("S"))
            .select(Pred::col_eq_const("C", 103))
            .project(vec![ProjItem::col("A", "A"), ProjItem::constant(1, "One")])
            .union(
                RaExpr::scan("R")
                    .project(vec![ProjItem::col("A", "A"), ProjItem::constant(1, "One")])
                    .diff(
                        RaExpr::scan("R")
                            .project(vec![ProjItem::col("B", "A"), ProjItem::constant(1, "One")]),
                    ),
            );
        let naive = eval(&db, &q).unwrap();
        let hashed = eval_hash(&db, &q, &ExecConfig::default()).unwrap();
        assert_eq!(naive, hashed);
    }

    #[test]
    fn stats_render_a_table() {
        let db = join_db(30);
        let q = RaExpr::scan("R").natural_join(RaExpr::scan("S"));
        let (_, stats) = eval_with_stats(&db, &q, &ExecConfig::default()).unwrap();
        let table = stats.to_string();
        assert!(table.contains("operator"), "{table}");
        assert!(table.contains("HashNaturalJoin[B]"), "{table}");
        assert!(table.contains("  Scan R"), "children indented: {table}");
        assert_eq!(stats.root.operator_count(), 3);
    }

    #[test]
    fn self_elapsed_excludes_children() {
        let db = join_db(200);
        let q = RaExpr::scan("R")
            .natural_join(RaExpr::scan("S"))
            .select(Pred::col_eq_const("C", 103));
        let (_, stats) = eval_with_stats(&db, &q, &ExecConfig::default()).unwrap();
        fn check(n: &OpStats) -> Duration {
            let nested: Duration = n.children.iter().map(|c| c.elapsed).sum();
            assert!(
                n.self_elapsed <= n.elapsed,
                "{}: self {:?} > total {:?}",
                n.op,
                n.self_elapsed,
                n.elapsed
            );
            assert_eq!(
                n.self_elapsed,
                n.elapsed.saturating_sub(nested),
                "{}: self time is total minus children",
                n.op
            );
            for c in &n.children {
                check(c);
            }
            nested
        }
        check(&stats.root);
        // The rendered table exposes both columns.
        let table = stats.to_string();
        assert!(table.contains("self ms"), "{table}");
        // Summing self times over the tree reproduces the root total
        // (children run strictly inside their parent's span).
        fn sum_self(n: &OpStats) -> Duration {
            n.self_elapsed + n.children.iter().map(sum_self).sum::<Duration>()
        }
        let total = sum_self(&stats.root);
        assert!(
            total <= stats.root.elapsed + Duration::from_micros(10),
            "self times sum to at most the root total: {total:?} vs {:?}",
            stats.root.elapsed
        );
    }
}
