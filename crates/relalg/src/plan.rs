//! Physical plans: the two compilers that produce them and the one
//! executor that runs them.
//!
//! [`PhysPlan`] is the only tree that executes. [`execute`] walks it
//! once, generic over the row annotation ([`Rows`]: sets, ℕ, `ℕ[X]`);
//! [`eval_plan`] is its set instantiation. Two compilers feed it:
//! [`lower`] keeps the expression's shape (its output is byte-identical
//! to the reference interpreter — see its docs), and the cost-based
//! planner [`plan`] compiles an [`RaExpr`] in four steps:
//!
//! 1. **Normalize.** Maximal σ/× subtrees are flattened into *join
//!    blocks* — a set of leaf inputs plus the split conjuncts of every
//!    selection in the block. Conjuncts that mention a single leaf and
//!    use only `=`/`<>` comparisons are pushed to that leaf (descending
//!    through ∪ and π); `col = col` conjuncts across two leaves become
//!    join edges; everything else stays as a residual filter above the
//!    joins.
//! 2. **Estimate.** Cardinalities come from [`DbStats`]: row counts,
//!    per-column distinct counts and small equi-width histograms.
//! 3. **Order.** Components are joined greedily, smallest estimated
//!    output first, always preferring edge-connected pairs over cross
//!    products. The smaller side of each join becomes the hash build
//!    side.
//! 4. **Choose physical operators.** Equi-join edges execute as hash
//!    joins ([`crate::exec::join_on`]); a pushed `col = const` on a
//!    base-table leaf with a registered [`IndexSet`] entry becomes an
//!    [`PlanOp::IndexLookup`]; an [`PlanOp::Arrange`] restores the
//!    query's original column order after reordering.
//!
//! # Correctness contract
//!
//! The planner must be *provenance-preserving*: for every semiring the
//! planned result equals the reference evaluator's result — not just
//! set-equal, but with identical annotations. Three arguments carry
//! this (spelled out in DESIGN.md §S30):
//!
//! * Join reordering re-associates/commutes the semiring products that
//!   annotate joined tuples; semiring `·` is commutative and
//!   associative, so annotations are unchanged. Tuple *order* does
//!   change, so planned set-semantics output is normalized with
//!   [`Relation::canonical`] (K-relations are canonical already).
//! * Pushdown through π is the substitution σ_p(π(E)) = π(σ_p′(E)) with
//!   p′ mapping output names to their sources; through ∪ it distributes
//!   over both branches. Both commute with annotation sums because the
//!   predicate depends only on tuple values.
//! * **Errors.** Resolution errors are row-independent: the planner
//!   checks every conjunct against its scope schema at plan time and
//!   falls back to a whole-query [`PlanOp::Naive`] node on any failure,
//!   so malformed queries surface *exactly* the reference error. Pushed
//!   conjuncts are restricted to `=`/`<>`, which never raise the
//!   row-dependent mixed-type ordering error — so early filtering can
//!   only *mask* such an error from a residual (by removing a row the
//!   reference engine would have errored on), never introduce one —
//!   the same contract [`lower`]'s hash joins keep.

use std::fmt;
use std::time::Duration;

use cdb_model::Atom;
use cdb_obs::SpanGuard;

use crate::database::Database;
use crate::error::RelalgError;
use crate::exec::{join_on, pred_resolves, recognize_equi_join, ExecConfig, Rows};
use crate::expr::{ProjItem, ProjSource, RaExpr};
use crate::index::IndexSet;
use crate::pred::{CmpOp, Operand, Pred};
use crate::relation::{Relation, Schema, Tuple};
use crate::stats::{DbStats, DEFAULT_DISTINCT};

/// A physical operator.
#[derive(Debug, Clone)]
pub enum PlanOp {
    /// Full scan of a base relation.
    Scan {
        /// Relation name.
        rel: String,
    },
    /// Full scan under an alias (attributes re-qualified).
    ScanAs {
        /// Relation name.
        rel: String,
        /// The alias.
        alias: String,
    },
    /// Point lookup through a secondary index: yields exactly the rows
    /// whose indexed column equals `key`, in row order. Falls back to a
    /// scan-and-filter at execution time if the index is absent.
    IndexLookup {
        /// Relation name.
        rel: String,
        /// Alias, when the leaf was an aliased scan.
        alias: Option<String>,
        /// Unqualified indexed column name.
        col: String,
        /// Column position in the relation.
        col_idx: usize,
        /// The looked-up constant.
        key: Atom,
    },
    /// Row filter.
    Filter {
        /// The predicate, with column references rewritten to exact
        /// attribute names of this node's schema.
        pred: Pred,
    },
    /// Hash equi-join: builds over the right child, probes with the
    /// left, concatenates left ++ right columns.
    HashJoin {
        /// `(left column, right column)` key pairs, child-local.
        keys: Vec<(usize, usize)>,
    },
    /// Hash natural join on shared base attribute names.
    HashNaturalJoin {
        /// `(left column, right column)` shared-attribute pairs.
        shared: Vec<(usize, usize)>,
        /// Right columns kept in the output (the non-shared ones).
        right_kept: Vec<usize>,
    },
    /// Cartesian product (left ++ right columns).
    Product,
    /// Column permutation restoring the query's original column order
    /// after join reordering: output column `i` is input column
    /// `perm[i]`.
    Arrange {
        /// Source position of each output column.
        perm: Vec<usize>,
    },
    /// Projection (with renaming and constants).
    Project {
        /// The projection list.
        items: Vec<ProjItem>,
    },
    /// Set union of two union-compatible children.
    Union,
    /// Set difference of two union-compatible children.
    Diff,
    /// Schema renaming; the new attribute names live in the node schema.
    Rename,
    /// Whole-query fallback: the expression could not be compiled (an
    /// unresolvable predicate, a missing relation, a schema conflict)
    /// and is handed verbatim to the reference evaluator
    /// ([`Rows::reference`]), which surfaces exactly its result or
    /// error. Only ever the root.
    Naive {
        /// The original expression.
        expr: RaExpr,
    },
}

/// The span name a physical operator executes under — the `relalg.op.*`
/// taxonomy shared with both interpreter engines (`index_scan`,
/// `arrange` and `naive` are planner-only).
pub fn plan_span_name(op: &PlanOp) -> &'static str {
    match op {
        PlanOp::Scan { .. } => "relalg.op.scan",
        PlanOp::ScanAs { .. } => "relalg.op.scan_as",
        PlanOp::IndexLookup { .. } => "relalg.op.index_scan",
        PlanOp::Filter { .. } => "relalg.op.select",
        PlanOp::HashJoin { .. } | PlanOp::HashNaturalJoin { .. } => "relalg.op.join",
        PlanOp::Product => "relalg.op.product",
        PlanOp::Arrange { .. } => "relalg.op.arrange",
        PlanOp::Project { .. } => "relalg.op.project",
        PlanOp::Union => "relalg.op.union",
        PlanOp::Diff => "relalg.op.diff",
        PlanOp::Rename => "relalg.op.rename",
        PlanOp::Naive { .. } => "relalg.op.naive",
    }
}

/// A physical plan node: operator, output schema, cardinality estimate,
/// children.
#[derive(Debug, Clone)]
pub struct PhysPlan {
    /// The operator.
    pub op: PlanOp,
    /// The output schema (exact attribute names and order).
    pub schema: Schema,
    /// Estimated output rows.
    pub est_rows: f64,
    /// Child plans (join children are `[probe, build]`).
    pub children: Vec<PhysPlan>,
}

impl PhysPlan {
    fn node(op: PlanOp, schema: Schema, est_rows: f64, children: Vec<PhysPlan>) -> PhysPlan {
        PhysPlan {
            op,
            schema,
            est_rows,
            children,
        }
    }

    /// The display label of this node, e.g. `HashJoin[r.K=s.K]`.
    pub fn label(&self) -> String {
        match &self.op {
            PlanOp::Scan { rel } => format!("Scan {rel}"),
            PlanOp::ScanAs { rel, alias } => format!("Scan {rel} AS {alias}"),
            PlanOp::IndexLookup {
                rel,
                alias,
                col,
                key,
                ..
            } => match alias {
                Some(a) => format!("IndexScan {rel} AS {a} [{col} = {key}]"),
                None => format!("IndexScan {rel} [{col} = {key}]"),
            },
            PlanOp::Filter { pred } => format!("Filter σ[{pred}]"),
            PlanOp::HashJoin { keys } => {
                let ks: Vec<String> = keys
                    .iter()
                    .map(|&(l, r)| {
                        format!(
                            "{}={}",
                            self.children[0].schema.attrs()[l],
                            self.children[1].schema.attrs()[r]
                        )
                    })
                    .collect();
                format!("HashJoin[{}]", ks.join(","))
            }
            PlanOp::HashNaturalJoin { shared, .. } => {
                let ks: Vec<&str> = shared
                    .iter()
                    .map(|&(i, _)| self.children[0].schema.attrs()[i].as_str())
                    .collect();
                format!("HashNaturalJoin[{}]", ks.join(","))
            }
            PlanOp::Product => "Product ×".into(),
            PlanOp::Arrange { .. } => "Arrange".into(),
            PlanOp::Project { items } => {
                let ps: Vec<String> = items.iter().map(|i| i.to_string()).collect();
                format!("Project π[{}]", ps.join(", "))
            }
            PlanOp::Union => "Union ∪".into(),
            PlanOp::Diff => "Diff −".into(),
            PlanOp::Rename => "Rename ρ".into(),
            PlanOp::Naive { expr } => format!("Naive {expr}"),
        }
    }

    /// All operators in preorder (the order [`eval_plan`] fills its
    /// [`PlanRun`] slots in).
    pub fn ops(&self) -> Vec<&PlanOp> {
        let mut out = Vec::new();
        fn go<'a>(p: &'a PhysPlan, out: &mut Vec<&'a PlanOp>) {
            out.push(&p.op);
            for c in &p.children {
                go(c, out);
            }
        }
        go(self, &mut out);
        out
    }

    /// Total number of operators in the plan.
    pub fn operator_count(&self) -> usize {
        self.ops().len()
    }

    /// Renders the plan as an indented table; with `actuals` from an
    /// [`eval_plan`] run, each row shows estimated vs actual rows and
    /// per-operator wall time (cdbsh `explain`).
    pub fn render(&self, actuals: Option<&[PlanRun]>) -> String {
        fn width(p: &PhysPlan, depth: usize) -> usize {
            let own = depth * 2 + p.label().chars().count();
            p.children
                .iter()
                .map(|c| width(c, depth + 1))
                .fold(own, usize::max)
        }
        fn walk(
            p: &PhysPlan,
            depth: usize,
            idx: &mut usize,
            actuals: Option<&[PlanRun]>,
            opw: usize,
            out: &mut String,
        ) {
            let label = format!("{}{}", " ".repeat(depth * 2), p.label());
            let fill = opw.saturating_sub(label.chars().count());
            let (rows, ms) = match actuals.and_then(|a| a.get(*idx)) {
                Some(r) => (
                    r.rows.to_string(),
                    format!("{:.3}", r.elapsed.as_secs_f64() * 1e3),
                ),
                None => ("-".into(), "-".into()),
            };
            *idx += 1;
            out.push_str(&format!(
                "{label}{}  {:>12.1}  {:>9}  {:>9}\n",
                " ".repeat(fill),
                p.est_rows,
                rows,
                ms
            ));
            for c in &p.children {
                walk(c, depth + 1, idx, actuals, opw, out);
            }
        }
        let opw = width(self, 0).max("operator".len());
        let mut out = format!(
            "{:<opw$}  {:>12}  {:>9}  {:>9}\n",
            "operator", "est rows", "rows", "ms"
        );
        let mut idx = 0;
        walk(self, 0, &mut idx, actuals, opw, &mut out);
        out
    }
}

impl fmt::Display for PhysPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.render(None))
    }
}

/// Per-operator actuals from one [`execute`] run, in plan preorder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanRun {
    /// Rows the operator produced.
    pub rows: usize,
    /// Probe partitions a hash join actually used; `0` for every other
    /// operator.
    pub partitions: usize,
    /// Wall time including children.
    pub elapsed: Duration,
}

/// Plans a query. Never fails: anything the planner cannot handle —
/// unresolvable predicates, missing relations, schema conflicts —
/// becomes a root [`PlanOp::Naive`] node so execution surfaces exactly
/// the reference evaluator's behaviour.
pub fn plan(db: &Database, stats: &DbStats, indexes: &IndexSet, expr: &RaExpr) -> PhysPlan {
    let p = Planner::<Relation> {
        db,
        stats,
        indexes,
        reorder: true,
    };
    p.compile(expr)
}

/// Lowers an expression to a plan of the *same shape*: no reordering,
/// no pushdown, no index choice. Every operator becomes its physical
/// counterpart where it stands; the one rewrite is the join-block rule
/// `σ_p(A × B)` → `Filter p (HashJoin(A, B))` when `p` equates columns
/// across the two sides ([`recognize_equi_join`]). Because the hash
/// kernel emits probe-major pairs — the order a nested loop discovers
/// them in — executing the lowered plan is byte- and order-identical to
/// the reference interpreter, annotations included. Like [`plan`] it
/// never fails: what it cannot resolve becomes a root
/// [`PlanOp::Naive`].
pub fn lower<R: Rows>(db: &R::Db, expr: &RaExpr) -> PhysPlan {
    let p = Planner::<R> {
        db,
        stats: &DbStats::default(),
        indexes: &IndexSet::new(),
        reorder: false,
    };
    p.compile(expr)
}

/// Plans and executes in one call, returning the canonical result.
pub fn eval_planned(
    db: &Database,
    stats: &DbStats,
    indexes: &IndexSet,
    expr: &RaExpr,
    cfg: &ExecConfig,
) -> Result<Relation, RelalgError> {
    let p = plan(db, stats, indexes, expr);
    eval_plan(db, &p, indexes, cfg).map(|(rel, _)| rel)
}

/// The two plan compilers share every structural arm of
/// [`Planner::plan_expr`]; `reorder` picks the join-block rule —
/// cost-based blocks for [`plan`], the shape-preserving rule for
/// [`lower`].
struct Planner<'a, R: Rows> {
    db: &'a R::Db,
    stats: &'a DbStats,
    indexes: &'a IndexSet,
    reorder: bool,
}

/// One flattened input of a join block.
struct Leaf {
    plan: PhysPlan,
    /// Per column: the `(relation, base attribute)` it scans, when the
    /// leaf is a base-table scan — the hook into [`DbStats`].
    col_src: Vec<Option<(String, String)>>,
}

impl<R: Rows> Planner<'_, R> {
    fn compile(&self, expr: &RaExpr) -> PhysPlan {
        self.plan_expr(expr).unwrap_or_else(|| {
            PhysPlan::node(
                PlanOp::Naive { expr: expr.clone() },
                Schema::new(std::iter::empty::<String>()).expect("empty schema"),
                0.0,
                Vec::new(),
            )
        })
    }

    fn plan_expr(&self, expr: &RaExpr) -> Option<PhysPlan> {
        match expr {
            RaExpr::Scan(_) | RaExpr::ScanAs(_, _) => self.plan_leaf(expr).map(|l| l.plan),
            RaExpr::Select(_, _) | RaExpr::Product(_, _) if self.reorder => self.plan_block(expr),
            RaExpr::Select(e, pred) => {
                let child = match e.as_ref() {
                    RaExpr::Product(a, b) => self.lower_product(a, b, Some(pred))?,
                    _ => self.plan_expr(e)?,
                };
                let (schema, est) = (child.schema.clone(), child.est_rows);
                let pred = pred.clone();
                Some(PhysPlan::node(
                    PlanOp::Filter { pred },
                    schema,
                    est,
                    vec![child],
                ))
            }
            RaExpr::Product(a, b) => self.lower_product(a, b, None),
            RaExpr::Project(e, items) => {
                let child = self.plan_expr(e)?;
                let schema = Schema::new(items.iter().map(|i| i.name.clone())).ok()?;
                for i in items {
                    if let ProjSource::Col(c) = &i.source {
                        child.schema.resolve(c).ok()?;
                    }
                }
                let est = child.est_rows;
                Some(PhysPlan::node(
                    PlanOp::Project {
                        items: items.clone(),
                    },
                    schema,
                    est,
                    vec![child],
                ))
            }
            RaExpr::NaturalJoin(a, b) => {
                let l = self.plan_expr(a)?;
                let r = self.plan_expr(b)?;
                let shared = crate::eval::shared_attrs(&l.schema, &r.schema);
                let right_kept: Vec<usize> = (0..r.schema.arity())
                    .filter(|j| !shared.iter().any(|(_, sj)| sj == j))
                    .collect();
                let attrs: Vec<String> = l
                    .schema
                    .attrs()
                    .iter()
                    .cloned()
                    .chain(right_kept.iter().map(|&j| r.schema.attrs()[j].clone()))
                    .collect();
                let schema = Schema::new(attrs).ok()?;
                if shared.is_empty() {
                    let est = l.est_rows * r.est_rows;
                    return Some(PhysPlan::node(PlanOp::Product, schema, est, vec![l, r]));
                }
                let est =
                    l.est_rows * r.est_rows / DEFAULT_DISTINCT.powi(shared.len() as i32).max(1.0);
                Some(PhysPlan::node(
                    PlanOp::HashNaturalJoin { shared, right_kept },
                    schema,
                    est,
                    vec![l, r],
                ))
            }
            RaExpr::Union(a, b) => {
                let l = self.plan_expr(a)?;
                let r = self.plan_expr(b)?;
                if !l.schema.union_compatible(&r.schema) {
                    return None;
                }
                let schema = l.schema.clone();
                let est = l.est_rows + r.est_rows;
                Some(PhysPlan::node(PlanOp::Union, schema, est, vec![l, r]))
            }
            RaExpr::Diff(a, b) => {
                let l = self.plan_expr(a)?;
                let r = self.plan_expr(b)?;
                if !l.schema.union_compatible(&r.schema) {
                    return None;
                }
                let schema = l.schema.clone();
                let est = l.est_rows;
                Some(PhysPlan::node(PlanOp::Diff, schema, est, vec![l, r]))
            }
            RaExpr::Rename(e, pairs) => {
                let child = self.plan_expr(e)?;
                let mut attrs: Vec<String> = child.schema.attrs().to_vec();
                for (old, new) in pairs {
                    let i = child.schema.resolve(old).ok()?;
                    attrs[i] = new.clone();
                }
                let schema = Schema::new(attrs).ok()?;
                let est = child.est_rows;
                Some(PhysPlan::node(PlanOp::Rename, schema, est, vec![child]))
            }
        }
    }

    /// The shape-preserving join-block rule: `a × b` where it stands,
    /// as a hash join when the selection directly above it equates
    /// columns across the two sides. The caller keeps the full
    /// predicate as a filter on top, so residual conjuncts still apply.
    fn lower_product(&self, a: &RaExpr, b: &RaExpr, pred: Option<&Pred>) -> Option<PhysPlan> {
        let l = self.plan_expr(a)?;
        let r = self.plan_expr(b)?;
        let schema = Schema::new(l.schema.attrs().iter().chain(r.schema.attrs()).cloned()).ok()?;
        let est = l.est_rows * r.est_rows;
        let (op, est) = match pred.and_then(|p| recognize_equi_join(&schema, l.schema.arity(), p)) {
            Some(keys) => {
                let est = est / DEFAULT_DISTINCT.powi(keys.len() as i32);
                (PlanOp::HashJoin { keys }, est)
            }
            None => (PlanOp::Product, est),
        };
        Some(PhysPlan::node(op, schema, est, vec![l, r]))
    }

    fn plan_leaf(&self, expr: &RaExpr) -> Option<Leaf> {
        let (name, alias) = match expr {
            RaExpr::Scan(name) => (name, None),
            RaExpr::ScanAs(name, alias) => (name, Some(alias)),
            other => {
                let plan = self.plan_expr(other)?;
                let col_src = vec![None; plan.schema.arity()];
                return Some(Leaf { plan, col_src });
            }
        };
        let rel = R::base(self.db, name).ok()?;
        let est = self
            .stats
            .rel(name)
            .map_or(rel.rows().len() as f64, |r| r.rows as f64);
        let (rel, schema) = (name.clone(), rel.schema());
        let (op, schema) = match alias {
            Some(alias) => {
                let schema = schema.qualified(alias);
                let alias = alias.clone();
                (PlanOp::ScanAs { rel, alias }, schema)
            }
            None => (PlanOp::Scan { rel }, schema.clone()),
        };
        let col_src = schema
            .attrs()
            .iter()
            .map(|a| Some((name.clone(), crate::stats::base_name(a).to_owned())))
            .collect();
        let plan = PhysPlan::node(op, schema, est, Vec::new());
        Some(Leaf { plan, col_src })
    }

    /// Plans a maximal σ/× subtree as one join block.
    fn plan_block(&self, expr: &RaExpr) -> Option<PhysPlan> {
        let mut leaves: Vec<Leaf> = Vec::new();
        let mut conjs: Vec<(Pred, usize, usize)> = Vec::new();
        self.collect(expr, &mut leaves, &mut conjs)?;

        // The block-wide concatenated schema. Duplicate attributes here
        // mean the reference engine would also fail building some
        // pairwise product schema — fall back so it surfaces that error.
        let global = Schema::new(
            leaves
                .iter()
                .flat_map(|l| l.plan.schema.attrs().iter().cloned()),
        )
        .ok()?;
        let col_src: Vec<Option<(String, String)>> =
            leaves.iter().flat_map(|l| l.col_src.clone()).collect();
        let mut ranges: Vec<(usize, usize)> = Vec::with_capacity(leaves.len());
        let mut off = 0;
        for l in &leaves {
            ranges.push((off, off + l.plan.schema.arity()));
            off += l.plan.schema.arity();
        }
        let leaf_of = |g: usize| {
            ranges
                .iter()
                .position(|&(s, e)| g >= s && g < e)
                .expect("column inside some leaf")
        };

        // Classify each conjunct against its scope (the concatenated
        // schema of the subtree its σ applied to).
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let mut leaf_filters: Vec<Vec<Pred>> = vec![Vec::new(); leaves.len()];
        let mut residuals: Vec<Pred> = Vec::new();
        for (c, lo, hi) in &conjs {
            let scope = Schema::new(global.attrs()[*lo..*hi].iter().cloned())
                .expect("sub-range of a duplicate-free schema");
            if !pred_resolves(&scope, c) {
                // Resolution errors are row-independent; hand the whole
                // query to the reference engine to surface the error.
                return None;
            }
            if let Pred::Cmp {
                left: Operand::Col(l),
                op: CmpOp::Eq,
                right: Operand::Col(r),
            } = c
            {
                let li = lo + scope.resolve(l).expect("resolution pre-checked");
                let ri = lo + scope.resolve(r).expect("resolution pre-checked");
                if leaf_of(li) != leaf_of(ri) {
                    let e = (li.min(ri), li.max(ri));
                    if !edges.contains(&e) {
                        edges.push(e);
                    }
                    continue;
                }
            }
            let rewritten = rewrite_cols(c, &scope, *lo, &global);
            let mut cols = Vec::new();
            pred_cols(&rewritten, &global, &mut cols);
            let one_leaf = cols
                .first()
                .map(|&g| leaf_of(g))
                .filter(|&lf| cols.iter().all(|&g| leaf_of(g) == lf));
            match one_leaf {
                // Only error-free (=/<>) predicates may run early; see
                // the module docs' error contract.
                Some(lf) if errorless(c) => leaf_filters[lf].push(rewritten),
                _ => residuals.push(rewritten),
            }
        }

        // Push the single-leaf filters down (choosing index lookups at
        // base-table leaves).
        let mut plans: Vec<PhysPlan> = Vec::with_capacity(leaves.len());
        for (i, leaf) in leaves.into_iter().enumerate() {
            let mut p = leaf.plan;
            let (s, e) = ranges[i];
            for f in &leaf_filters[i] {
                let sel = self.conjunct_selectivity(f, &p.schema, &col_src[s..e]);
                p = self.push_filter(p, f, sel);
            }
            plans.push(p);
        }

        // Greedy join ordering over the filtered components.
        struct Comp {
            plan: PhysPlan,
            cols: Vec<usize>,
        }
        let mut comps: Vec<Comp> = plans
            .into_iter()
            .zip(&ranges)
            .map(|(p, &(s, e))| Comp {
                plan: p,
                cols: (s..e).collect(),
            })
            .collect();
        while comps.len() > 1 {
            let mut best: Option<(usize, usize, f64, bool)> = None;
            for i in 0..comps.len() {
                for j in (i + 1)..comps.len() {
                    let keys = connecting(&edges, &comps[i].cols, &comps[j].cols);
                    let connected = !keys.is_empty();
                    let est = self.join_est(
                        comps[i].plan.est_rows,
                        comps[j].plan.est_rows,
                        &keys,
                        &col_src,
                    );
                    let better = match best {
                        None => true,
                        Some((_, _, b_est, b_conn)) => {
                            (connected && !b_conn) || (connected == b_conn && est < b_est)
                        }
                    };
                    if better {
                        best = Some((i, j, est, connected));
                    }
                }
            }
            let (i, j, est, _) = best.expect("two or more components");
            let cj = comps.remove(j);
            let ci = comps.remove(i);
            let keys_g = connecting(&edges, &ci.cols, &cj.cols);
            edges.retain(|e| !keys_g.contains(e));
            // The larger side probes; the smaller becomes the hash build.
            let (l, r) = if ci.plan.est_rows >= cj.plan.est_rows {
                (ci, cj)
            } else {
                (cj, ci)
            };
            let schema = Schema::new(
                l.plan
                    .schema
                    .attrs()
                    .iter()
                    .chain(r.plan.schema.attrs())
                    .cloned(),
            )
            .expect("subset of a duplicate-free schema");
            let op = if keys_g.is_empty() {
                PlanOp::Product
            } else {
                let keys = keys_g
                    .iter()
                    .map(|&(a, b)| {
                        let (gl, gr) = if l.cols.contains(&a) { (a, b) } else { (b, a) };
                        (
                            l.cols.iter().position(|&c| c == gl).expect("left key col"),
                            r.cols.iter().position(|&c| c == gr).expect("right key col"),
                        )
                    })
                    .collect();
                PlanOp::HashJoin { keys }
            };
            let mut cols = l.cols;
            let children = vec![l.plan, r.plan];
            cols.extend(r.cols);
            comps.push(Comp {
                plan: PhysPlan::node(op, schema, est, children),
                cols,
            });
        }
        let comp = comps.pop().expect("one component remains");

        // Restore the query's original column order.
        let perm: Vec<usize> = (0..global.arity())
            .map(|g| {
                comp.cols
                    .iter()
                    .position(|&c| c == g)
                    .expect("cols is a permutation")
            })
            .collect();
        let mut out = comp.plan;
        if perm.iter().enumerate().any(|(i, &p)| i != p) {
            let est = out.est_rows;
            out = PhysPlan::node(PlanOp::Arrange { perm }, global.clone(), est, vec![out]);
        }

        // Residual conjuncts, in the reference engine's evaluation order.
        if !residuals.is_empty() {
            let mut sel = 1.0;
            for r in &residuals {
                sel *= self.conjunct_selectivity(r, &global, &col_src);
            }
            let est = out.est_rows * sel;
            let pred = residuals
                .into_iter()
                .reduce(Pred::and)
                .expect("non-empty residuals");
            out = PhysPlan::node(PlanOp::Filter { pred }, global, est, vec![out]);
        }
        Some(out)
    }

    /// Flattens a σ/× subtree: leaves plus scoped conjuncts, inner
    /// selections first (matching per-row evaluation order). Returns the
    /// subtree's global column range.
    fn collect(
        &self,
        expr: &RaExpr,
        leaves: &mut Vec<Leaf>,
        conjs: &mut Vec<(Pred, usize, usize)>,
    ) -> Option<(usize, usize)> {
        match expr {
            RaExpr::Select(e, pred) => {
                let (lo, hi) = self.collect(e, leaves, conjs)?;
                for c in pred.conjuncts() {
                    conjs.push((c.clone(), lo, hi));
                }
                Some((lo, hi))
            }
            RaExpr::Product(a, b) => {
                let (alo, _) = self.collect(a, leaves, conjs)?;
                let (_, bhi) = self.collect(b, leaves, conjs)?;
                Some((alo, bhi))
            }
            other => {
                let leaf = self.plan_leaf(other)?;
                let lo: usize = leaves.iter().map(|l| l.plan.schema.arity()).sum();
                let hi = lo + leaf.plan.schema.arity();
                leaves.push(leaf);
                Some((lo, hi))
            }
        }
    }

    /// Pushes one rewritten conjunct down a leaf plan: through ∪ and π,
    /// into an index lookup at a base-table scan, or as a filter node.
    fn push_filter(&self, plan: PhysPlan, pred: &Pred, sel: f64) -> PhysPlan {
        let PhysPlan {
            op,
            schema,
            est_rows,
            children,
        } = plan;
        match op {
            PlanOp::Union => {
                let kids: Vec<PhysPlan> = children
                    .into_iter()
                    .map(|ch| {
                        let p2 = remap_by_position(pred, &schema, &ch.schema);
                        self.push_filter(ch, &p2, sel)
                    })
                    .collect();
                let est = kids.iter().map(|k| k.est_rows).sum();
                PhysPlan::node(PlanOp::Union, schema, est, kids)
            }
            PlanOp::Project { items } => {
                match remap_through_project(pred, &items, &children[0].schema) {
                    Some(inner) => {
                        let kids: Vec<PhysPlan> = children
                            .into_iter()
                            .map(|ch| self.push_filter(ch, &inner, sel))
                            .collect();
                        let est = kids[0].est_rows;
                        PhysPlan::node(PlanOp::Project { items }, schema, est, kids)
                    }
                    None => wrap_filter(
                        PhysPlan::node(PlanOp::Project { items }, schema, est_rows, children),
                        pred,
                        sel,
                    ),
                }
            }
            PlanOp::Scan { .. } | PlanOp::ScanAs { .. } => {
                let rel = match &op {
                    PlanOp::Scan { rel } => rel.clone(),
                    PlanOp::ScanAs { rel, .. } => rel.clone(),
                    _ => unreachable!(),
                };
                if let Some((col_name, key)) = eq_const_pattern(pred) {
                    if let Some(idx) = self.indexes.get(&rel, &col_name) {
                        if let Ok(ci) = schema.resolve(&col_name) {
                            let alias = match &op {
                                PlanOp::ScanAs { alias, .. } => Some(alias.clone()),
                                _ => None,
                            };
                            return PhysPlan::node(
                                PlanOp::IndexLookup {
                                    rel,
                                    alias,
                                    col: idx.col.clone(),
                                    col_idx: ci,
                                    key,
                                },
                                schema,
                                est_rows * sel,
                                children,
                            );
                        }
                    }
                }
                wrap_filter(PhysPlan::node(op, schema, est_rows, children), pred, sel)
            }
            other => wrap_filter(PhysPlan::node(other, schema, est_rows, children), pred, sel),
        }
    }

    fn distinct_of(&self, g: usize, col_src: &[Option<(String, String)>]) -> f64 {
        col_src
            .get(g)
            .and_then(|s| s.as_ref())
            .and_then(|(rel, attr)| {
                self.stats
                    .rel(rel)
                    .and_then(|r| r.col(attr))
                    .map(|c| c.distinct as f64)
            })
            .unwrap_or(DEFAULT_DISTINCT)
    }

    fn join_est(
        &self,
        a_est: f64,
        b_est: f64,
        keys: &[(usize, usize)],
        col_src: &[Option<(String, String)>],
    ) -> f64 {
        let mut est = a_est * b_est;
        for &(g1, g2) in keys {
            let d = self
                .distinct_of(g1, col_src)
                .max(self.distinct_of(g2, col_src));
            est /= d.max(1.0);
        }
        est
    }

    /// Estimated selectivity of one conjunct against a schema whose
    /// columns carry the given stats sources.
    fn conjunct_selectivity(
        &self,
        pred: &Pred,
        schema: &Schema,
        col_src: &[Option<(String, String)>],
    ) -> f64 {
        if let Pred::Cmp { left, op, right } = pred {
            let (col, konst) = match (left, right) {
                (Operand::Col(c), Operand::Const(k)) | (Operand::Const(k), Operand::Col(c)) => {
                    (c, k)
                }
                _ => {
                    return match op {
                        CmpOp::Eq => 1.0 / DEFAULT_DISTINCT,
                        CmpOp::Ne => 1.0 - 1.0 / DEFAULT_DISTINCT,
                        _ => 1.0 / 3.0,
                    }
                }
            };
            if let Ok(i) = schema.resolve(col) {
                if let Some(Some((rel, attr))) = col_src.get(i) {
                    if let Some(cs) = self.stats.rel(rel).and_then(|r| r.col(attr)) {
                        return cs.range_selectivity(*op, konst);
                    }
                }
            }
            return match op {
                CmpOp::Eq => 1.0 / DEFAULT_DISTINCT,
                CmpOp::Ne => 1.0 - 1.0 / DEFAULT_DISTINCT,
                _ => 1.0 / 3.0,
            };
        }
        0.5
    }
}

fn wrap_filter(plan: PhysPlan, pred: &Pred, sel: f64) -> PhysPlan {
    // Fold into an existing filter rather than stacking two.
    if let PlanOp::Filter { pred: p0 } = plan.op {
        let est = plan.est_rows * sel;
        return PhysPlan::node(
            PlanOp::Filter {
                pred: p0.and(pred.clone()),
            },
            plan.schema,
            est,
            plan.children,
        );
    }
    let schema = plan.schema.clone();
    let est = plan.est_rows * sel;
    PhysPlan::node(
        PlanOp::Filter { pred: pred.clone() },
        schema,
        est,
        vec![plan],
    )
}

/// `col = const` (either orientation).
fn eq_const_pattern(pred: &Pred) -> Option<(String, Atom)> {
    match pred {
        Pred::Cmp {
            left: Operand::Col(c),
            op: CmpOp::Eq,
            right: Operand::Const(k),
        }
        | Pred::Cmp {
            left: Operand::Const(k),
            op: CmpOp::Eq,
            right: Operand::Col(c),
        } => Some((c.clone(), k.clone())),
        _ => None,
    }
}

/// Only `=`/`<>` comparisons: evaluation can never raise the
/// row-dependent mixed-type ordering error once resolution is checked.
fn errorless(p: &Pred) -> bool {
    match p {
        Pred::True => true,
        Pred::Cmp { op, .. } => matches!(op, CmpOp::Eq | CmpOp::Ne),
        Pred::And(a, b) | Pred::Or(a, b) => errorless(a) && errorless(b),
        Pred::Not(a) => errorless(a),
    }
}

fn map_operands(p: &Pred, f: &impl Fn(&Operand) -> Operand) -> Pred {
    match p {
        Pred::True => Pred::True,
        Pred::Cmp { left, op, right } => Pred::Cmp {
            left: f(left),
            op: *op,
            right: f(right),
        },
        Pred::And(a, b) => Pred::And(Box::new(map_operands(a, f)), Box::new(map_operands(b, f))),
        Pred::Or(a, b) => Pred::Or(Box::new(map_operands(a, f)), Box::new(map_operands(b, f))),
        Pred::Not(a) => Pred::Not(Box::new(map_operands(a, f))),
    }
}

/// Rewrites every column reference to the *exact* attribute name of the
/// global schema it resolves to — making later resolution unambiguous no
/// matter how wide the evaluating schema is.
fn rewrite_cols(p: &Pred, scope: &Schema, lo: usize, global: &Schema) -> Pred {
    map_operands(p, &|o| match o {
        Operand::Col(c) => Operand::Col(
            global.attrs()[lo + scope.resolve(c).expect("resolution pre-checked")].clone(),
        ),
        k => k.clone(),
    })
}

/// Global column indices referenced by a rewritten predicate.
fn pred_cols(p: &Pred, schema: &Schema, out: &mut Vec<usize>) {
    match p {
        Pred::True => {}
        Pred::Cmp { left, right, .. } => {
            for o in [left, right] {
                if let Operand::Col(c) = o {
                    if let Ok(i) = schema.resolve(c) {
                        out.push(i);
                    }
                }
            }
        }
        Pred::And(a, b) | Pred::Or(a, b) => {
            pred_cols(a, schema, out);
            pred_cols(b, schema, out);
        }
        Pred::Not(a) => pred_cols(a, schema, out),
    }
}

/// Maps exact parent-schema column names to the child's attribute at the
/// same position (union branches are positionally compatible).
fn remap_by_position(p: &Pred, parent: &Schema, child: &Schema) -> Pred {
    map_operands(p, &|o| match o {
        Operand::Col(c) => {
            Operand::Col(child.attrs()[parent.resolve(c).expect("exact parent attribute")].clone())
        }
        k => k.clone(),
    })
}

/// Substitutes projection outputs by their sources: columns map to the
/// child attribute they copy, constant items map to the constant itself.
/// `None` when a referenced name is not an exact item name (filter stays
/// above the projection).
fn remap_through_project(p: &Pred, items: &[ProjItem], child: &Schema) -> Option<Pred> {
    // Pre-compute the substitution to keep map_operands total.
    let mut subst: Vec<(String, Operand)> = Vec::new();
    let mut cols = Vec::new();
    collect_col_names(p, &mut cols);
    for name in cols {
        let item = items.iter().find(|i| i.name == name)?;
        let op = match &item.source {
            ProjSource::Col(src) => {
                let i = child.resolve(src).ok()?;
                Operand::Col(child.attrs()[i].clone())
            }
            ProjSource::Const(a) => Operand::Const(a.clone()),
        };
        subst.push((name, op));
    }
    Some(map_operands(p, &|o| match o {
        Operand::Col(c) => subst
            .iter()
            .find(|(n, _)| n == c)
            .map(|(_, op)| op.clone())
            .expect("substitution covers every column"),
        k => k.clone(),
    }))
}

fn collect_col_names(p: &Pred, out: &mut Vec<String>) {
    match p {
        Pred::True => {}
        Pred::Cmp { left, right, .. } => {
            for o in [left, right] {
                if let Operand::Col(c) = o {
                    if !out.contains(c) {
                        out.push(c.clone());
                    }
                }
            }
        }
        Pred::And(a, b) | Pred::Or(a, b) => {
            collect_col_names(a, out);
            collect_col_names(b, out);
        }
        Pred::Not(a) => collect_col_names(a, out),
    }
}

fn connecting(edges: &[(usize, usize)], a: &[usize], b: &[usize]) -> Vec<(usize, usize)> {
    edges
        .iter()
        .copied()
        .filter(|&(x, y)| (a.contains(&x) && b.contains(&y)) || (a.contains(&y) && b.contains(&x)))
        .collect()
}

/// Executes a physical plan under set semantics, returning the canonical
/// result relation and per-operator actuals (plan preorder) for
/// `explain`-style rendering.
///
/// The output is [`Relation::canonical`]: join reordering permutes tuple
/// discovery order, so the planned engine fixes a canonical order instead
/// of inheriting the plan shape's.
pub fn eval_plan(
    db: &Database,
    plan: &PhysPlan,
    indexes: &IndexSet,
    cfg: &ExecConfig,
) -> Result<(Relation, Vec<PlanRun>), RelalgError> {
    let (rel, runs) = execute::<Relation>(db, plan, indexes, cfg)?;
    Ok((rel.canonical(), runs))
}

/// The one physical executor: runs `plan` over any [`Rows`] container,
/// returning the root operator's raw output (for sets: discovery order,
/// duplicates not yet merged) and one [`PlanRun`] per node in plan
/// preorder.
pub fn execute<R: Rows>(
    db: &R::Db,
    plan: &PhysPlan,
    indexes: &IndexSet,
    cfg: &ExecConfig,
) -> Result<(R, Vec<PlanRun>), RelalgError> {
    let mut runs: Vec<PlanRun> = Vec::new();
    let out = run_node(db, plan, indexes, cfg, &mut runs)?;
    Ok((out, runs))
}

fn run_node<R: Rows>(
    db: &R::Db,
    plan: &PhysPlan,
    indexes: &IndexSet,
    cfg: &ExecConfig,
    runs: &mut Vec<PlanRun>,
) -> Result<R, RelalgError> {
    let slot = runs.len();
    runs.push(PlanRun {
        rows: 0,
        partitions: 0,
        elapsed: Duration::ZERO,
    });
    let mut span = SpanGuard::enter(plan_span_name(&plan.op));
    let mut parts = 0; // probe partitions, set by hash joins
    let mut child = |i: usize| run_node::<R>(db, &plan.children[i], indexes, cfg, runs);
    let out = match &plan.op {
        PlanOp::Scan { rel } => R::base(db, rel)?.clone(),
        PlanOp::ScanAs { rel, .. } => collect(&plan.schema, R::base(db, rel)?.rows())?,
        PlanOp::IndexLookup {
            rel,
            col,
            col_idx,
            key,
            ..
        } => {
            let base = R::base(db, rel)?;
            match indexes
                .get(rel, col)
                .and_then(|ix| base.index_rows(ix, key))
            {
                Some(hits) => collect(&plan.schema, hits.into_iter())?,
                // No index (dropped since planning), or rows without
                // stable offsets: the lookup is exactly σ[col = key].
                None => collect(
                    &plan.schema,
                    base.rows().filter(|(t, _)| t[*col_idx] == *key),
                )?,
            }
        }
        PlanOp::Filter { pred } => {
            let input = child(0)?;
            let mut out = R::empty(input.schema().clone());
            for (t, a) in input.rows() {
                if pred.eval(input.schema(), t)? {
                    out.insert(t.clone(), a.clone())?;
                }
            }
            out
        }
        PlanOp::HashJoin { keys } => join(plan, child(0)?, child(1)?, keys, None, cfg, &mut parts)?,
        PlanOp::HashNaturalJoin { shared, right_kept } => {
            let kept = Some(right_kept);
            join(plan, child(0)?, child(1)?, shared, kept, cfg, &mut parts)?
        }
        PlanOp::Product => join(plan, child(0)?, child(1)?, &[], None, cfg, &mut parts)?,
        PlanOp::Arrange { perm } => {
            // A bijective column permutation: no two rows can merge.
            let input = child(0)?;
            let mut out = R::empty(plan.schema.clone());
            for (t, a) in input.rows() {
                out.insert(perm.iter().map(|&p| t[p].clone()).collect(), a.clone())?;
            }
            out
        }
        PlanOp::Project { items } => {
            let input = child(0)?;
            let mut out = R::empty(plan.schema.clone());
            for (t, a) in input.rows() {
                let mut row: Tuple = Vec::with_capacity(items.len());
                for item in items {
                    match &item.source {
                        ProjSource::Col(c) => row.push(t[input.schema().resolve(c)?].clone()),
                        ProjSource::Const(k) => row.push(k.clone()),
                    }
                }
                out.insert(row, a.clone())?; // merged tuples sum
            }
            out
        }
        PlanOp::Union => {
            let mut out = child(0)?;
            for (t, a) in child(1)?.rows() {
                out.insert(t.clone(), a.clone())?;
            }
            out
        }
        PlanOp::Diff => {
            let (left, right) = (child(0)?, child(1)?);
            left.diff(&right)?
        }
        PlanOp::Rename => collect(&plan.schema, child(0)?.rows())?,
        PlanOp::Naive { expr } => R::reference(db, expr)?,
    };
    let rows = out.rows().len();
    span.set_attr(rows as u64);
    runs[slot] = PlanRun {
        rows,
        partitions: parts,
        elapsed: span.elapsed(),
    };
    Ok(out)
}

/// Copies rows into a fresh container under `schema`.
fn collect<'a, R: Rows + 'a>(
    schema: &Schema,
    rows: impl Iterator<Item = (&'a Tuple, &'a R::Ann)>,
) -> Result<R, RelalgError> {
    let mut out = R::empty(schema.clone());
    for (t, a) in rows {
        out.insert(t.clone(), a.clone())?;
    }
    Ok(out)
}

/// The one join loop: every `(left, right)` pair agreeing on `keys` —
/// all pairs when `keys` is empty — becomes the row
/// `left ++ right[kept]` (all of `right` when `kept` is `None`)
/// annotated `left · right`. Pairs come out probe-major (left-major),
/// the order a nested loop would discover them in.
fn join<R: Rows>(
    plan: &PhysPlan,
    left: R,
    right: R,
    keys: &[(usize, usize)],
    kept: Option<&Vec<usize>>,
    cfg: &ExecConfig,
    partitions: &mut usize,
) -> Result<R, RelalgError> {
    let lrows: Vec<(&Tuple, &R::Ann)> = left.rows().collect();
    let rrows: Vec<(&Tuple, &R::Ann)> = right.rows().collect();
    let pairs: Box<dyn Iterator<Item = (usize, usize)>> = if keys.is_empty() {
        let n = rrows.len();
        Box::new((0..lrows.len()).flat_map(move |li| (0..n).map(move |ri| (li, ri))))
    } else {
        let probe = lrows.iter().map(|&(t, _)| t);
        let build = rrows.iter().map(|&(t, _)| t);
        let m = join_on(probe, build, keys, cfg);
        *partitions = m.partitions;
        Box::new(m.pairs.into_iter())
    };
    let mut out = R::empty(plan.schema.clone());
    for (li, ri) in pairs {
        let ((lt, la), (rt, ra)) = (lrows[li], rrows[ri]);
        let mut row = lt.clone();
        match kept {
            Some(kept) => row.extend(kept.iter().map(|&j| rt[j].clone())),
            None => row.extend(rt.iter().cloned()),
        }
        out.insert(row, R::times(la, ra))?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::eval;
    use crate::exec::eval_hash;

    fn int(i: i64) -> Atom {
        Atom::Int(i)
    }

    /// R(K,A), S(K,B), T(K,C) — a classic join chain on K.
    fn chain_db(n: i64) -> Database {
        let r = Relation::table(["K", "A"], (0..n).map(|i| vec![int(i % 17), int(i)])).unwrap();
        let s = Relation::table(["K", "B"], (0..30).map(|i| vec![int(i % 17), int(i)])).unwrap();
        let t = Relation::table(["K", "C"], (0..8).map(|i| vec![int(i % 17), int(i)])).unwrap();
        Database::new().with("R", r).with("S", s).with("T", t)
    }

    fn canon(db: &Database, q: &RaExpr) -> Relation {
        let mut r = eval(db, q).unwrap().canonical();
        r.dedup();
        r
    }

    fn planned(db: &Database, idx: &IndexSet, q: &RaExpr) -> (PhysPlan, Relation) {
        let stats = DbStats::analyze(db);
        let p = plan(db, &stats, idx, q);
        let (rel, runs) = eval_plan(db, &p, idx, &ExecConfig::default()).unwrap();
        assert_eq!(runs.len(), p.operator_count(), "one actual per operator");
        (p, rel)
    }

    fn chain_query() -> RaExpr {
        RaExpr::ScanAs("R".into(), "r".into())
            .product(RaExpr::ScanAs("S".into(), "s".into()))
            .product(RaExpr::ScanAs("T".into(), "t".into()))
            .select(Pred::col_eq_col("r.K", "s.K").and(Pred::col_eq_col("s.K", "t.K")))
    }

    #[test]
    fn chain_plans_two_hash_joins_no_product() {
        let db = chain_db(50);
        let q = chain_query();
        let (p, rel) = planned(&db, &IndexSet::new(), &q);
        let ops = p.ops();
        let joins = ops
            .iter()
            .filter(|o| matches!(o, PlanOp::HashJoin { .. }))
            .count();
        assert_eq!(joins, 2, "both edges become hash joins:\n{p}");
        assert!(
            !ops.iter().any(|o| matches!(o, PlanOp::Product)),
            "no cross product in a connected chain:\n{p}"
        );
        assert_eq!(rel, canon(&db, &q), "byte-identical to canonical naive");
    }

    #[test]
    fn smallest_relation_becomes_the_build_side() {
        // T (8 rows) is smallest: the greedy planner joins it first and
        // always places the smaller side as the hash build (right child).
        let db = chain_db(200);
        let (p, _) = planned(&db, &IndexSet::new(), &chain_query());
        fn check(p: &PhysPlan) {
            if matches!(p.op, PlanOp::HashJoin { .. }) {
                assert!(
                    p.children[0].est_rows >= p.children[1].est_rows,
                    "build side (right) must be the smaller estimate:\n{p}"
                );
            }
            for c in &p.children {
                check(c);
            }
        }
        check(&p);
    }

    #[test]
    fn point_lookup_chooses_index_scan() {
        let db = chain_db(50);
        let q = RaExpr::scan("R").select(Pred::col_eq_const("K", 3));
        let idx = IndexSet::build(&db, [("R", "K")]).unwrap();
        let (p, rel) = planned(&db, &idx, &q);
        assert!(
            matches!(p.op, PlanOp::IndexLookup { .. }),
            "indexed point query is a pure index scan:\n{p}"
        );
        assert_eq!(rel, canon(&db, &q));
        // Without the index the same query is a filtered scan.
        let (p2, rel2) = planned(&db, &IndexSet::new(), &q);
        assert!(matches!(p2.op, PlanOp::Filter { .. }), "{p2}");
        assert_eq!(rel2, rel);
    }

    #[test]
    fn index_scan_inside_a_join_block() {
        let db = chain_db(50);
        let q = RaExpr::ScanAs("R".into(), "r".into())
            .product(RaExpr::ScanAs("S".into(), "s".into()))
            .select(Pred::col_eq_col("r.K", "s.K").and(Pred::col_eq_const("r.A", 7)));
        let idx = IndexSet::build(&db, [("R", "A")]).unwrap();
        let (p, rel) = planned(&db, &idx, &q);
        assert!(
            p.ops()
                .iter()
                .any(|o| matches!(o, PlanOp::IndexLookup { .. })),
            "pushed constant filter uses the index:\n{p}"
        );
        assert_eq!(rel, canon(&db, &q));
    }

    #[test]
    fn unresolvable_predicate_falls_back_to_naive() {
        let db = chain_db(10);
        let q = RaExpr::scan("R").select(Pred::col_eq_const("nope", 1));
        let stats = DbStats::analyze(&db);
        let p = plan(&db, &stats, &IndexSet::new(), &q);
        assert!(matches!(p.op, PlanOp::Naive { .. }), "{p}");
        let planned_err = eval_plan(&db, &p, &IndexSet::new(), &ExecConfig::default());
        let naive_err = eval(&db, &q);
        assert_eq!(planned_err.unwrap_err(), naive_err.unwrap_err());
    }

    #[test]
    fn partial_edges_still_avoid_full_product() {
        // Only r–s are connected; t joins by cross product, but the
        // connected pair must be joined first.
        let db = chain_db(40);
        let q = RaExpr::ScanAs("R".into(), "r".into())
            .product(RaExpr::ScanAs("T".into(), "t".into()))
            .product(RaExpr::ScanAs("S".into(), "s".into()))
            .select(Pred::col_eq_col("r.K", "s.K"));
        let (p, rel) = planned(&db, &IndexSet::new(), &q);
        let ops = p.ops();
        assert!(ops.iter().any(|o| matches!(o, PlanOp::HashJoin { .. })));
        assert!(ops.iter().any(|o| matches!(o, PlanOp::Product)));
        // The product sits above the hash join: the join ran first.
        fn depth_of(p: &PhysPlan, pick: &dyn Fn(&PlanOp) -> bool, d: usize) -> Option<usize> {
            if pick(&p.op) {
                return Some(d);
            }
            p.children.iter().find_map(|c| depth_of(c, pick, d + 1))
        }
        let dj = depth_of(&p, &|o| matches!(o, PlanOp::HashJoin { .. }), 0).unwrap();
        let dp = depth_of(&p, &|o| matches!(o, PlanOp::Product), 0).unwrap();
        assert!(dp < dj, "product above join:\n{p}");
        assert_eq!(rel, canon(&db, &q), "arrange restores the column order");
    }

    #[test]
    fn pushdown_descends_through_union_and_project() {
        let db = chain_db(30);
        let q = RaExpr::scan("R")
            .project_cols(["K"])
            .union(RaExpr::scan("S").project_cols(["K"]))
            .select(Pred::col_eq_const("K", 4));
        let (p, rel) = planned(&db, &IndexSet::new(), &q);
        assert!(
            matches!(p.op, PlanOp::Union),
            "filter fully pushed below the union:\n{p}"
        );
        fn scans_are_filtered(p: &PhysPlan) -> bool {
            match &p.op {
                PlanOp::Scan { .. } | PlanOp::ScanAs { .. } => false,
                PlanOp::Filter { .. } | PlanOp::IndexLookup { .. } => true,
                _ => p.children.iter().all(scans_are_filtered),
            }
        }
        assert!(scans_are_filtered(&p), "filters reached the scans:\n{p}");
        assert_eq!(rel, canon(&db, &q));
    }

    #[test]
    fn residual_predicates_filter_after_the_join() {
        let db = chain_db(40);
        let q = RaExpr::ScanAs("R".into(), "r".into())
            .product(RaExpr::ScanAs("S".into(), "s".into()))
            .select(Pred::col_eq_col("r.K", "s.K").and(Pred::cmp(
                Operand::col("r.A"),
                CmpOp::Lt,
                Operand::col("s.B"),
            )));
        let (p, rel) = planned(&db, &IndexSet::new(), &q);
        assert!(
            matches!(p.op, PlanOp::Filter { .. }),
            "ordered comparison stays residual:\n{p}"
        );
        assert_eq!(rel, canon(&db, &q));
    }

    #[test]
    fn whole_algebra_through_the_planner() {
        let db = chain_db(40);
        let q = RaExpr::scan("R")
            .natural_join(RaExpr::scan("S"))
            .select(Pred::col_eq_const("B", 5))
            .project(vec![ProjItem::col("A", "A"), ProjItem::constant(1, "One")])
            .union(
                RaExpr::scan("R")
                    .project(vec![ProjItem::col("A", "A"), ProjItem::constant(1, "One")])
                    .diff(
                        RaExpr::scan("R")
                            .project(vec![ProjItem::col("K", "A"), ProjItem::constant(1, "One")]),
                    ),
            )
            .rename([("A", "X")]);
        let (_, rel) = planned(&db, &IndexSet::new(), &q);
        assert_eq!(rel, canon(&db, &q));
    }

    #[test]
    fn render_shows_estimates_and_actuals() {
        let db = chain_db(30);
        let q = chain_query();
        let stats = DbStats::analyze(&db);
        let idx = IndexSet::new();
        let p = plan(&db, &stats, &idx, &q);
        let (_, runs) = eval_plan(&db, &p, &idx, &ExecConfig::default()).unwrap();
        let bare = p.render(None);
        assert!(bare.contains("est rows"), "{bare}");
        assert!(bare.contains("HashJoin"), "{bare}");
        let with = p.render(Some(&runs));
        assert!(!with.contains(" -\n"), "actuals fill every row:\n{with}");
    }

    // --- `lower`: the shape-preserving compiler and its join-block rule ---

    fn rs_select(pred: Pred) -> RaExpr {
        RaExpr::ScanAs("R".into(), "r".into())
            .product(RaExpr::ScanAs("S".into(), "s".into()))
            .select(pred)
    }

    /// Lowers σ(R × S) and returns the hash keys of the join under the
    /// filter — `None` when the product stayed a product.
    fn lowered_keys(db: &Database, q: &RaExpr) -> Option<Vec<(usize, usize)>> {
        let p = lower::<Relation>(db, q);
        assert!(
            matches!(p.op, PlanOp::Filter { .. }),
            "the full predicate stays on top:\n{p}"
        );
        match &p.children[0].op {
            PlanOp::HashJoin { keys } => Some(keys.clone()),
            PlanOp::Product => None,
            other => panic!("σ(A × B) lowers to a join or a product, not {other:?}"),
        }
    }

    #[test]
    fn repeated_equality_conjuncts_dedup_to_one_key() {
        let db = chain_db(30);
        // r.K = s.K stated three times, once flipped: still one key pair.
        let q = rs_select(
            Pred::col_eq_col("r.K", "s.K")
                .and(Pred::col_eq_col("r.K", "s.K"))
                .and(Pred::col_eq_col("s.K", "r.K")),
        );
        assert_eq!(lowered_keys(&db, &q), Some(vec![(0, 0)]));
        // End to end the duplicated predicate still matches the
        // reference engine byte for byte.
        let hashed = eval_hash(&db, &q, &ExecConfig::default()).unwrap();
        assert_eq!(eval(&db, &q).unwrap(), hashed);
    }

    #[test]
    fn unresolvable_residual_keeps_valid_keys() {
        let db = chain_db(30);
        // A valid equi-join key followed by a conjunct over a missing
        // column: the join must still hash on r.K = s.K, and the error
        // must surface exactly as the reference engine surfaces it.
        let q = rs_select(Pred::col_eq_col("r.K", "s.K").and(Pred::col_eq_const("r.nope", 1)));
        assert_eq!(lowered_keys(&db, &q), Some(vec![(0, 0)]));
        let naive = eval(&db, &q);
        let hashed = eval_hash(&db, &q, &ExecConfig::default());
        assert!(naive.is_err());
        assert_eq!(naive.unwrap_err(), hashed.unwrap_err());
    }

    #[test]
    fn unresolvable_conjunct_poisons_later_keys() {
        // The error conjunct comes FIRST: a key taken from the later
        // r.K = s.K equality could filter away the row on which the
        // reference engine errors, so no keys may be extracted at all.
        let db = chain_db(10);
        let q = rs_select(Pred::col_eq_const("r.nope", 1).and(Pred::col_eq_col("r.K", "s.K")));
        assert_eq!(lowered_keys(&db, &q), None);
        let naive = eval(&db, &q);
        let hashed = eval_hash(&db, &q, &ExecConfig::default());
        assert!(naive.is_err());
        assert_eq!(naive.unwrap_err(), hashed.unwrap_err());
    }

    #[test]
    fn empty_side_suppresses_residual_errors_in_both_engines() {
        // With an empty S, no row ever reaches the bad conjunct: both
        // engines return an empty relation rather than an error.
        let s = Relation::empty(Schema::new(["K", "B"].map(String::from)).unwrap());
        let db = chain_db(5).with("S", s);
        let q = rs_select(Pred::col_eq_col("r.K", "s.K").and(Pred::col_eq_const("r.nope", 1)));
        let naive = eval(&db, &q).unwrap();
        let hashed = eval_hash(&db, &q, &ExecConfig::default()).unwrap();
        assert_eq!(naive, hashed);
        assert!(naive.is_empty());
    }

    #[test]
    fn non_equi_select_falls_back_to_product() {
        let db = chain_db(10);
        let q = rs_select(Pred::cmp(
            Operand::col("r.K"),
            CmpOp::Lt,
            Operand::col("s.K"),
        ));
        assert_eq!(lowered_keys(&db, &q), None);
        let hashed = eval_hash(&db, &q, &ExecConfig::default()).unwrap();
        assert_eq!(eval(&db, &q).unwrap(), hashed);
    }

    #[test]
    fn every_plan_op_has_a_span_name() {
        // The check.sh taxonomy gate greps these names; keep the match
        // total so a new operator cannot silently skip the taxonomy.
        let ops = [
            PlanOp::Scan { rel: "R".into() },
            PlanOp::Product,
            PlanOp::Union,
            PlanOp::Naive {
                expr: RaExpr::scan("R"),
            },
            PlanOp::Arrange { perm: vec![0] },
        ];
        for op in &ops {
            assert!(plan_span_name(op).starts_with("relalg.op."));
        }
    }
}
