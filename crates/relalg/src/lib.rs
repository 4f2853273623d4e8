//! # cdb-relalg
//!
//! A small, complete relational algebra engine. This is the substrate on
//! which the provenance and annotation machinery of the paper is built:
//!
//! * flat relations over the atoms of `cdb-model` ([`Relation`],
//!   [`Tuple`], [`Schema`]),
//! * the full relational algebra AST ([`RaExpr`]) with selection,
//!   projection (including constants — the `50 AS B` of the paper's
//!   Q1/Q2 example), natural and theta joins, product, union, difference
//!   and renaming,
//! * conjunctive queries / non-recursive Datalog rules
//!   ([`conjunctive`]) — the form used in Figure 4 of the paper,
//! * a small SQL-ish surface syntax ([`sql`]) covering the paper's
//!   examples (`SELECT`–`FROM`–`WHERE`, `UNION`, `INSERT`, `DELETE`,
//!   `UPDATE`), so that the worked examples can be written exactly as
//!   they appear in print.
//!
//! The reference interpreter ([`eval`]) is deliberately naive
//! (nested-loop joins, no optimizer): the experiments measure provenance
//! and archiving behaviour, not join performance, and a naive engine
//! keeps the provenance semantics auditable. *Not* optimizing is also
//! faithful to §2.1's point that annotation propagation breaks classical
//! rewriting: `cdb-annotation` evaluates these ASTs exactly as written.
//!
//! For large curated instances there is one physical executor
//! ([`plan::execute`]) over physical plans, generic over the row
//! annotation ([`exec::Rows`]): hash joins with parallel partitioned
//! probing, index lookups, and per-operator statistics. Two compilers
//! feed it. The shape-preserving [`plan::lower`] behind [`eval_hash`]
//! is differentially tested byte-identical to the interpreter. The
//! cost-based planner ([`plan()`]) adds predicate pushdown,
//! per-relation statistics ([`stats`]), greedy join ordering and
//! secondary-index access paths ([`index`]); its plans are
//! provenance-preserving — differentially tested identical to the
//! interpreter across semirings — and anything a compiler cannot
//! resolve falls back to the reference interpreter wholesale.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod conjunctive;
pub mod database;
pub mod error;
pub mod eval;
pub mod exec;
pub mod expr;
pub mod index;
pub mod plan;
pub mod pred;
pub mod relation;
pub mod sql;
pub mod stats;

pub use database::Database;
pub use error::RelalgError;
pub use exec::{eval_hash, eval_with_stats, ExecConfig, ExecStats, OpStats};
pub use expr::{ProjItem, RaExpr};
pub use index::{ColumnIndex, IndexSet};
pub use plan::{eval_plan, eval_planned, plan, plan_span_name, PhysPlan, PlanOp, PlanRun};
pub use pred::{CmpOp, Operand, Pred};
pub use relation::{Relation, Schema, Tuple};
pub use stats::{ColStats, DbStats, Histogram, RelStats};
