//! Flat colored relations and the three annotation-propagation schemes.
//!
//! Each *cell* of a tuple carries a (possibly empty) set of colors; the
//! empty set is the paper's ⊥ — "the value does not originate from the
//! input, but was constructed by the query itself". Evaluation follows
//! §2.1:
//!
//! * **Default**: an output cell gets exactly the colors of the input
//!   cell it was copied from. This breaks the principle of substitution
//!   of equals for equals: the paper's Q1 and Q2 return the same ordinary
//!   relation but different colored relations.
//! * **DefaultAll**: "any two base values that are explicitly found to be
//!   equal in a selection or that are implicitly identified in a union or
//!   natural join have their annotations merged" — restoring invariance
//!   under the Q1/Q2 rewrite.
//! * **Custom**: propagation is steered explicitly, per output attribute,
//!   from a chosen list of source columns (the `PROPAGATE` clauses of
//!   pSQL/DBNotes).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use cdb_model::Atom;
use cdb_relalg::exec::{join_on, recognize_equi_join, ExecConfig};
use cdb_relalg::expr::{ProjSource, RaExpr};
use cdb_relalg::{Operand, RelalgError, Relation, Schema, Tuple};

/// An annotation color (the paper's ♭1, ♭2, …).
pub type Color = String;

/// A set of colors. Empty = ⊥ (constructed by the query).
pub type Colors = BTreeSet<Color>;

/// The propagation scheme to evaluate under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scheme {
    /// Propagate along copies only.
    Default,
    /// Additionally merge colors across explicitly-equated cells.
    DefaultAll,
    /// Steer propagation explicitly: for each output attribute of the
    /// *outermost projection*, take colors from these source columns
    /// (resolved against the projection's input). Attributes not listed
    /// fall back to the default scheme.
    Custom(BTreeMap<String, Vec<String>>),
}

/// A tuple whose cells carry color sets.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct ColoredTuple {
    /// The cell values.
    pub values: Tuple,
    /// The per-cell color sets (same arity as `values`).
    pub colors: Vec<Colors>,
}

impl ColoredTuple {
    /// A tuple with all cells uncolored.
    pub fn plain(values: Tuple) -> Self {
        let n = values.len();
        ColoredTuple {
            values,
            colors: vec![Colors::new(); n],
        }
    }

    /// A tuple with one color per cell.
    pub fn with_colors<C: Into<Color>>(values: Tuple, colors: Vec<C>) -> Self {
        assert_eq!(values.len(), colors.len());
        ColoredTuple {
            values,
            colors: colors
                .into_iter()
                .map(|c| [c.into()].into_iter().collect())
                .collect(),
        }
    }
}

/// A relation whose cells carry color sets. Set semantics: tuples with
/// equal values are merged cell-wise (their color sets union), matching
/// the paper's observation that duplicate tuples differing only in
/// annotation are "equivalent to one tuple annotated with a set of
/// colors".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColoredRelation {
    schema: Schema,
    tuples: Vec<ColoredTuple>,
    /// Value-to-position index for O(log n) duplicate merging.
    index: BTreeMap<Tuple, usize>,
}

impl ColoredRelation {
    /// An empty colored relation.
    pub fn empty(schema: Schema) -> Self {
        ColoredRelation {
            schema,
            tuples: Vec::new(),
            index: BTreeMap::new(),
        }
    }

    /// Builds from colored tuples, merging duplicates.
    pub fn from_tuples(
        schema: Schema,
        tuples: impl IntoIterator<Item = ColoredTuple>,
    ) -> Result<Self, RelalgError> {
        let mut rel = ColoredRelation::empty(schema);
        for t in tuples {
            rel.insert(t)?;
        }
        Ok(rel)
    }

    /// Colors every cell of an ordinary relation with a distinct color
    /// `♭1, ♭2, …` (row-major), as in the paper's examples. Duplicate
    /// rows merge (set semantics), their colors uniting cell-wise.
    pub fn distinctly_colored(rel: &Relation) -> Self {
        let mut n = 0;
        let mut out = ColoredRelation::empty(rel.schema().clone());
        for t in rel.tuples() {
            let colors = t
                .iter()
                .map(|_| {
                    n += 1;
                    format!("b{n}")
                })
                .collect::<Vec<_>>();
            out.insert(ColoredTuple::with_colors(t.clone(), colors))
                .expect("schema matches");
        }
        out
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The tuples.
    pub fn tuples(&self) -> &[ColoredTuple] {
        &self.tuples
    }

    /// Inserts, merging color sets into an existing equal-valued tuple.
    pub fn insert(&mut self, t: ColoredTuple) -> Result<(), RelalgError> {
        if t.values.len() != self.schema.arity() {
            return Err(RelalgError::UpdateError(format!(
                "arity mismatch inserting into colored relation {}",
                self.schema
            )));
        }
        match self.index.get(&t.values) {
            Some(&pos) => {
                let existing = &mut self.tuples[pos];
                for (ec, tc) in existing.colors.iter_mut().zip(t.colors) {
                    ec.extend(tc);
                }
            }
            None => {
                self.index.insert(t.values.clone(), self.tuples.len());
                self.tuples.push(t);
            }
        }
        Ok(())
    }

    /// The colors on the cell `(tuple, attr)`, if the tuple is present.
    pub fn cell_colors(&self, values: &Tuple, attr: &str) -> Option<&Colors> {
        let i = self.schema.resolve(attr).ok()?;
        self.index
            .get(values)
            .map(|&pos| &self.tuples[pos].colors[i])
    }

    /// Every cell on which a given color appears: `(tuple values, attr)`.
    pub fn occurrences(&self, color: &str) -> Vec<(Tuple, String)> {
        let mut out = Vec::new();
        for t in &self.tuples {
            for (i, cs) in t.colors.iter().enumerate() {
                if cs.contains(color) {
                    out.push((t.values.clone(), self.schema.attrs()[i].clone()));
                }
            }
        }
        out
    }

    /// Drops colors, yielding the ordinary relation.
    pub fn to_relation(&self) -> Relation {
        let mut rel = Relation::empty(self.schema.clone());
        for t in &self.tuples {
            rel.insert(t.values.clone()).expect("arity invariant");
        }
        rel
    }

    fn with_schema(mut self, schema: Schema) -> Self {
        debug_assert_eq!(schema.arity(), self.schema.arity());
        self.schema = schema;
        self
    }
}

impl fmt::Display for ColoredRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for t in &self.tuples {
            let cells: Vec<String> = t
                .values
                .iter()
                .zip(&t.colors)
                .map(|(v, cs)| {
                    if cs.is_empty() {
                        format!("{v}⊥")
                    } else {
                        format!("{v}{}", cs.iter().cloned().collect::<Vec<_>>().join(","))
                    }
                })
                .collect();
            writeln!(f, "  {}", cells.join(" | "))?;
        }
        Ok(())
    }
}

/// A database of colored relations.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColoredDatabase {
    relations: BTreeMap<String, ColoredRelation>,
}

impl ColoredDatabase {
    /// An empty colored database.
    pub fn new() -> Self {
        ColoredDatabase::default()
    }

    /// Adds (or replaces) a relation, builder-style.
    pub fn with(mut self, name: impl Into<String>, rel: ColoredRelation) -> Self {
        self.relations.insert(name.into(), rel);
        self
    }

    /// Adds (or replaces) a relation.
    pub fn insert(&mut self, name: impl Into<String>, rel: ColoredRelation) {
        self.relations.insert(name.into(), rel);
    }

    /// Looks up a relation.
    pub fn get(&self, name: &str) -> Result<&ColoredRelation, RelalgError> {
        self.relations
            .get(name)
            .ok_or_else(|| RelalgError::NoSuchRelation(name.to_owned()))
    }

    /// Colors every cell of every relation distinctly (prefixing colors
    /// with the relation name to keep them globally unique). Duplicate
    /// rows merge (set semantics).
    pub fn distinctly_colored(db: &cdb_relalg::Database) -> Self {
        let mut out = ColoredDatabase::new();
        for (name, rel) in db.iter() {
            let mut n = 0;
            let mut crel = ColoredRelation::empty(rel.schema().clone());
            for t in rel.tuples() {
                let colors = t
                    .iter()
                    .map(|_| {
                        n += 1;
                        format!("{name}.b{n}")
                    })
                    .collect::<Vec<_>>();
                crel.insert(ColoredTuple::with_colors(t.clone(), colors))
                    .expect("schema matches");
            }
            out.insert(name.to_owned(), crel);
        }
        out
    }
}

/// Evaluates a positive RA expression over a colored database under the
/// given propagation scheme, with the naive nested-loop interpreter.
pub fn eval_colored(
    db: &ColoredDatabase,
    expr: &RaExpr,
    scheme: &Scheme,
) -> Result<ColoredRelation, RelalgError> {
    eval_colored_cfg(db, expr, scheme, None)
}

/// Evaluates under the given propagation scheme with the hash-join
/// kernel of [`cdb_relalg::exec`]: natural joins and recognized
/// equi-joins enumerate their pairs by (optionally parallel) hashing.
/// Color propagation — including the DEFAULT-ALL merging across join
/// columns and equated cells — is applied per matched pair exactly as in
/// the naive interpreter, so the two produce identical colored
/// relations.
///
/// Unlike sets and K-relations, colors are *not* routed through
/// physical plans: evaluation stays directed by the query's syntax,
/// because DEFAULT propagation distinguishes classically equivalent
/// queries (§2.1's Q1 and Q2) — a cost-based rewrite would change the
/// answer.
pub fn eval_colored_with(
    db: &ColoredDatabase,
    expr: &RaExpr,
    scheme: &Scheme,
    cfg: &ExecConfig,
) -> Result<ColoredRelation, RelalgError> {
    eval_colored_cfg(db, expr, scheme, Some(cfg))
}

fn eval_colored_cfg(
    db: &ColoredDatabase,
    expr: &RaExpr,
    scheme: &Scheme,
    cfg: Option<&ExecConfig>,
) -> Result<ColoredRelation, RelalgError> {
    if !expr.is_positive() {
        return Err(RelalgError::UpdateError(
            "annotation propagation is defined for positive queries".to_owned(),
        ));
    }
    Ok(eval_inner(db, expr, scheme, true, cfg)?.0)
}

/// Per-column *guaranteed constants*: column index → the constant the
/// subquery's predicates force that column to equal on every result
/// tuple. This is how DEFAULT-ALL knows that Q2's emitted `50 AS B` is
/// "explicitly found to be equal" to `R.B` and must inherit its colors —
/// the merging is syntactic (driven by the query's equalities), not
/// value-based, so queries that merely *happen* to produce equal values
/// do not leak annotations.
type GuaranteedConsts = BTreeMap<usize, Atom>;

fn eval_inner(
    db: &ColoredDatabase,
    expr: &RaExpr,
    scheme: &Scheme,
    outermost: bool,
    cfg: Option<&ExecConfig>,
) -> Result<(ColoredRelation, GuaranteedConsts), RelalgError> {
    match expr {
        RaExpr::Scan(name) => Ok((db.get(name)?.clone(), GuaranteedConsts::new())),
        RaExpr::ScanAs(name, alias) => {
            let base = db.get(name)?;
            let schema = base.schema().qualified(alias);
            Ok((base.clone().with_schema(schema), GuaranteedConsts::new()))
        }
        RaExpr::Select(e, pred) => {
            // Physical path: σ[a.x = b.y ∧ …](A × B) as a hash join.
            // The guaranteed-constant and equality-class bookkeeping is
            // identical to the product-then-select path; only the pair
            // enumeration changes.
            if let (Some(cfg), RaExpr::Product(a, b)) = (cfg, e.as_ref()) {
                let (left, gcl) = eval_inner(db, a, scheme, false, Some(cfg))?;
                let (right, gcr) = eval_inner(db, b, scheme, false, Some(cfg))?;
                let offset = left.schema.arity();
                let schema = Schema::new(
                    left.schema
                        .attrs()
                        .iter()
                        .chain(right.schema.attrs())
                        .cloned(),
                )?;
                let mut gc = gcl;
                for (i, a) in gcr {
                    gc.insert(i + offset, a);
                }
                let classes = equality_classes(&schema, pred, &mut gc)?;
                let keys = recognize_equi_join(&schema, offset, pred).unwrap_or_default();
                let mut out = ColoredRelation::empty(schema);
                for (li, ri) in key_pairs(&left, &right, &keys, Some(cfg)) {
                    let (lt, rt) = (&left.tuples[li], &right.tuples[ri]);
                    let mut values = lt.values.clone();
                    values.extend(rt.values.iter().cloned());
                    if !pred.eval(&out.schema, &values)? {
                        continue;
                    }
                    let mut colors = lt.colors.clone();
                    colors.extend(rt.colors.iter().cloned());
                    let mut t = ColoredTuple { values, colors };
                    if matches!(scheme, Scheme::DefaultAll) {
                        merge_classes(&classes, &mut t);
                    }
                    out.insert(t)?;
                }
                return Ok((out, gc));
            }
            let (input, mut gc) = eval_inner(db, e, scheme, false, cfg)?;
            let classes = equality_classes(&input.schema, pred, &mut gc)?;
            let mut out = ColoredRelation::empty(input.schema.clone());
            for t in &input.tuples {
                if pred.eval(&input.schema, &t.values)? {
                    let mut t = t.clone();
                    if matches!(scheme, Scheme::DefaultAll) {
                        merge_classes(&classes, &mut t);
                    }
                    out.insert(t)?;
                }
            }
            Ok((out, gc))
        }
        RaExpr::Project(e, items) => {
            let (input, gc_in) = eval_inner(db, e, scheme, false, cfg)?;
            let schema = Schema::new(items.iter().map(|i| i.name.clone()))?;
            let mut gc_out = GuaranteedConsts::new();
            for (o, item) in items.iter().enumerate() {
                match &item.source {
                    ProjSource::Col(c) => {
                        let i = input.schema.resolve(c)?;
                        if let Some(a) = gc_in.get(&i) {
                            gc_out.insert(o, a.clone());
                        }
                    }
                    ProjSource::Const(a) => {
                        gc_out.insert(o, a.clone());
                    }
                }
            }
            let mut out = ColoredRelation::empty(schema);
            for t in &input.tuples {
                let mut values: Tuple = Vec::with_capacity(items.len());
                let mut colors: Vec<Colors> = Vec::with_capacity(items.len());
                for item in items {
                    let steered = match scheme {
                        Scheme::Custom(steer) if outermost => steer.get(&item.name).map(|srcs| {
                            let mut cs = Colors::new();
                            for s in srcs {
                                if let Ok(j) = input.schema.resolve(s) {
                                    cs.extend(t.colors[j].iter().cloned());
                                }
                            }
                            cs
                        }),
                        _ => None,
                    };
                    match &item.source {
                        ProjSource::Col(c) => {
                            let i = input.schema.resolve(c)?;
                            values.push(t.values[i].clone());
                            colors.push(steered.unwrap_or_else(|| t.colors[i].clone()));
                        }
                        ProjSource::Const(a) => {
                            values.push(a.clone());
                            let cs = steered.unwrap_or_else(|| {
                                if matches!(scheme, Scheme::DefaultAll) {
                                    // The constant inherits colors from
                                    // every column the query guarantees
                                    // equal to it.
                                    let mut cs = Colors::new();
                                    for (i, ga) in &gc_in {
                                        if ga == a {
                                            cs.extend(t.colors[*i].iter().cloned());
                                        }
                                    }
                                    cs
                                } else {
                                    Colors::new() // ⊥: invented
                                }
                            });
                            colors.push(cs);
                        }
                    }
                }
                out.insert(ColoredTuple { values, colors })?;
            }
            Ok((out, gc_out))
        }
        RaExpr::Product(a, b) => {
            let (left, gcl) = eval_inner(db, a, scheme, false, cfg)?;
            let (right, gcr) = eval_inner(db, b, scheme, false, cfg)?;
            let offset = left.schema.arity();
            let schema = Schema::new(
                left.schema
                    .attrs()
                    .iter()
                    .chain(right.schema.attrs())
                    .cloned(),
            )?;
            let mut gc = gcl;
            for (i, a) in gcr {
                gc.insert(i + offset, a);
            }
            let mut out = ColoredRelation::empty(schema);
            for lt in &left.tuples {
                for rt in &right.tuples {
                    let mut values = lt.values.clone();
                    values.extend(rt.values.iter().cloned());
                    let mut colors = lt.colors.clone();
                    colors.extend(rt.colors.iter().cloned());
                    out.insert(ColoredTuple { values, colors })?;
                }
            }
            Ok((out, gc))
        }
        RaExpr::NaturalJoin(a, b) => {
            let (left, gcl) = eval_inner(db, a, scheme, false, cfg)?;
            let (right, gcr) = eval_inner(db, b, scheme, false, cfg)?;
            let shared = cdb_relalg::eval::shared_attrs(&left.schema, &right.schema);
            let right_kept: Vec<usize> = (0..right.schema.arity())
                .filter(|j| !shared.iter().any(|(_, sj)| sj == j))
                .collect();
            let attrs: Vec<String> = left
                .schema
                .attrs()
                .iter()
                .cloned()
                .chain(right_kept.iter().map(|&j| right.schema.attrs()[j].clone()))
                .collect();
            let mut gc = gcl;
            // A shared column guaranteed constant on the right is
            // guaranteed on the (kept) left column too.
            for &(i, j) in &shared {
                if let Some(a) = gcr.get(&j) {
                    gc.insert(i, a.clone());
                }
            }
            for (o, &j) in right_kept.iter().enumerate() {
                if let Some(a) = gcr.get(&j) {
                    gc.insert(left.schema.arity() + o, a.clone());
                }
            }
            let mut out = ColoredRelation::empty(Schema::new(attrs)?);
            let emit = |lt: &ColoredTuple, rt: &ColoredTuple| {
                let mut values = lt.values.clone();
                values.extend(right_kept.iter().map(|&j| rt.values[j].clone()));
                let mut colors = lt.colors.clone();
                // Join cells are implicitly identified: their
                // colors merge under DEFAULT-ALL.
                if matches!(scheme, Scheme::DefaultAll) {
                    for &(i, j) in &shared {
                        colors[i].extend(rt.colors[j].iter().cloned());
                    }
                }
                colors.extend(right_kept.iter().map(|&j| rt.colors[j].clone()));
                ColoredTuple { values, colors }
            };
            for (li, ri) in key_pairs(&left, &right, &shared, cfg) {
                out.insert(emit(&left.tuples[li], &right.tuples[ri]))?;
            }
            Ok((out, gc))
        }
        RaExpr::Union(a, b) => {
            let (left, gcl) = eval_inner(db, a, scheme, outermost, cfg)?;
            let (right, gcr) = eval_inner(db, b, scheme, outermost, cfg)?;
            if !left.schema.union_compatible(&right.schema) {
                return Err(RelalgError::SchemaMismatch {
                    left: left.schema.attrs().to_vec(),
                    right: right.schema.attrs().to_vec(),
                });
            }
            // Only constants guaranteed on both branches survive a union.
            let gc = gcl
                .into_iter()
                .filter(|(i, a)| gcr.get(i) == Some(a))
                .collect();
            let mut out = left;
            for t in right.tuples {
                out.insert(t)?; // merging = implicit identification
            }
            Ok((out, gc))
        }
        RaExpr::Rename(e, pairs) => {
            let (input, gc) = eval_inner(db, e, scheme, false, cfg)?;
            let mut attrs: Vec<String> = input.schema.attrs().to_vec();
            for (old, new) in pairs {
                let i = input.schema.resolve(old)?;
                attrs[i] = new.clone();
            }
            let schema = Schema::new(attrs)?;
            Ok((input.with_schema(schema), gc))
        }
        RaExpr::Diff(_, _) => unreachable!("rejected by positivity check"),
    }
}

/// The `(left, right)` tuple-index pairs that agree on every
/// `(left column, right column)` key, left-major: by nested loop for the
/// reference interpreter (`cfg` absent) and when there is no key to hash
/// on (then every pair), by the shared hash kernel otherwise. The two
/// enumerate the same pairs in the same order.
fn key_pairs<'a>(
    left: &'a ColoredRelation,
    right: &'a ColoredRelation,
    keys: &'a [(usize, usize)],
    cfg: Option<&ExecConfig>,
) -> Box<dyn Iterator<Item = (usize, usize)> + 'a> {
    let lvals = left.tuples.iter().map(|t| &t.values);
    let rvals = right.tuples.iter().map(|t| &t.values);
    match cfg {
        Some(cfg) if !keys.is_empty() => {
            Box::new(join_on(lvals, rvals, keys, cfg).pairs.into_iter())
        }
        _ => Box::new(lvals.enumerate().flat_map(move |(li, l)| {
            let agree = move |r: &Tuple| keys.iter().all(|&(i, j)| l[i] == r[j]);
            let hits = rvals.clone().enumerate().filter(move |(_, r)| agree(r));
            hits.map(move |(ri, _)| (li, ri))
        })),
    }
}

/// The equivalence classes of column indices induced by a predicate's
/// top-level equalities (columns equated directly or through a shared
/// constant). Also records newly-guaranteed constants into `gc`.
fn equality_classes(
    schema: &Schema,
    pred: &cdb_relalg::Pred,
    gc: &mut GuaranteedConsts,
) -> Result<Vec<Vec<usize>>, RelalgError> {
    let n = schema.arity();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, i: usize) -> usize {
        if parent[i] != i {
            let r = find(parent, parent[i]);
            parent[i] = r;
            r
        } else {
            i
        }
    }
    let mut const_rep: BTreeMap<Atom, usize> = BTreeMap::new();
    for (l, r) in pred.equated_pairs() {
        match (l, r) {
            (Operand::Col(a), Operand::Col(b)) => {
                let (i, j) = (schema.resolve(&a)?, schema.resolve(&b)?);
                let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                parent[ri] = rj;
            }
            (Operand::Col(a), Operand::Const(c)) | (Operand::Const(c), Operand::Col(a)) => {
                let i = schema.resolve(&a)?;
                match const_rep.get(&c) {
                    Some(&j) => {
                        let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                        parent[ri] = rj;
                    }
                    None => {
                        const_rep.insert(c, i);
                    }
                }
            }
            (Operand::Const(_), Operand::Const(_)) => {}
        }
    }
    // Constants spread to whole classes.
    for (c, rep) in &const_rep {
        let r = find(&mut parent, *rep);
        for i in 0..n {
            if find(&mut parent, i) == r {
                gc.insert(i, c.clone());
            }
        }
    }
    let mut classes: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..n {
        let r = find(&mut parent, i);
        classes.entry(r).or_default().push(i);
    }
    Ok(classes.into_values().collect())
}

/// Merges color sets across each equivalence class of columns.
fn merge_classes(classes: &[Vec<usize>], t: &mut ColoredTuple) {
    for class in classes {
        if class.len() < 2 {
            continue;
        }
        let mut merged = Colors::new();
        for &i in class {
            merged.extend(t.colors[i].iter().cloned());
        }
        for &i in class {
            t.colors[i] = merged.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_relalg::eval::paper_q;
    use cdb_relalg::ProjItem;

    fn int(i: i64) -> Atom {
        Atom::Int(i)
    }

    /// The §2.1 instances with the paper's colors ♭1..♭8 (written b1..b8):
    /// R = {(10 b1, 49 b2), (12 b3, 50 b4)},
    /// S = {(11 b5, 49 b6), (12 b7, 50 b8)}.
    fn paper_db() -> ColoredDatabase {
        let r = ColoredRelation::from_tuples(
            Schema::new(["A", "B"]).unwrap(),
            [
                ColoredTuple::with_colors(vec![int(10), int(49)], vec!["b1", "b2"]),
                ColoredTuple::with_colors(vec![int(12), int(50)], vec!["b3", "b4"]),
            ],
        )
        .unwrap();
        let s = ColoredRelation::from_tuples(
            Schema::new(["A", "B"]).unwrap(),
            [
                ColoredTuple::with_colors(vec![int(11), int(49)], vec!["b5", "b6"]),
                ColoredTuple::with_colors(vec![int(12), int(50)], vec!["b7", "b8"]),
            ],
        )
        .unwrap();
        ColoredDatabase::new().with("R", r).with("S", s)
    }

    fn q1() -> RaExpr {
        paper_q(vec![ProjItem::col("R.A", "A"), ProjItem::col("R.B", "B")])
    }

    fn q2() -> RaExpr {
        paper_q(vec![ProjItem::col("S.A", "A"), ProjItem::constant(50, "B")])
    }

    fn colors(rel: &ColoredRelation, attr: &str) -> Vec<String> {
        rel.cell_colors(&vec![int(12), int(50)], attr)
            .unwrap()
            .iter()
            .cloned()
            .collect()
    }

    #[test]
    fn q1_q2_paper_example_default_scheme_distinguishes() {
        // §2.1: "A-values in the output of Q1 are copied from R, while
        // A-values in the output of Q2 are copied from S. Moreover,
        // B-values in the output of Q2 are apparently created by Q2."
        let db = paper_db();
        let r1 = eval_colored(&db, &q1(), &Scheme::Default).unwrap();
        let r2 = eval_colored(&db, &q2(), &Scheme::Default).unwrap();
        assert_eq!(r1.to_relation().tuple_set(), r2.to_relation().tuple_set());
        assert_eq!(colors(&r1, "A"), vec!["b3"]);
        assert_eq!(colors(&r1, "B"), vec!["b4"]);
        assert_eq!(colors(&r2, "A"), vec!["b7"]);
        assert_eq!(colors(&r2, "B"), Vec::<String>::new(), "50⊥: invented");
        assert_ne!(r1, r2, "equivalent queries, different annotations");
    }

    #[test]
    fn default_all_restores_query_equivalence() {
        let db = paper_db();
        let r1 = eval_colored(&db, &q1(), &Scheme::DefaultAll).unwrap();
        let r2 = eval_colored(&db, &q2(), &Scheme::DefaultAll).unwrap();
        // R.A = S.A merges b3 with b7 on the A cell; R.B = 50 puts b4 on
        // anything equated with the constant 50 — including Q2's emitted
        // constant.
        assert_eq!(colors(&r1, "A"), vec!["b3", "b7"]);
        assert_eq!(colors(&r2, "A"), vec!["b3", "b7"]);
        assert_eq!(colors(&r1, "B"), vec!["b4"]);
        assert_eq!(r1, r2, "DEFAULT-ALL is invariant under the rewrite");
    }

    #[test]
    fn custom_scheme_steers_annotations() {
        // Steer B's annotation from S.B even though the value is the
        // constant 50 (a pSQL PROPAGATE clause).
        let db = paper_db();
        let steer: BTreeMap<String, Vec<String>> = [("B".to_string(), vec!["S.B".to_string()])]
            .into_iter()
            .collect();
        let r2 = eval_colored(&db, &q2(), &Scheme::Custom(steer)).unwrap();
        assert_eq!(colors(&r2, "B"), vec!["b8"]);
        assert_eq!(colors(&r2, "A"), vec!["b7"], "unlisted attrs default");
    }

    #[test]
    fn union_merges_annotations_of_equal_tuples() {
        let db = paper_db();
        // R ∪ S: tuple (12,50) occurs in both; its colors merge.
        let q = RaExpr::scan("R").union(RaExpr::scan("S"));
        let out = eval_colored(&db, &q, &Scheme::Default).unwrap();
        assert_eq!(out.to_relation().len(), 3);
        assert_eq!(colors(&out, "A"), vec!["b3", "b7"]);
        assert_eq!(colors(&out, "B"), vec!["b4", "b8"]);
    }

    #[test]
    fn projection_merges_annotations() {
        // π_B over R' where two tuples share B=50.
        let r = ColoredRelation::from_tuples(
            Schema::new(["A", "B"]).unwrap(),
            [
                ColoredTuple::with_colors(vec![int(1), int(50)], vec!["c1", "c2"]),
                ColoredTuple::with_colors(vec![int(2), int(50)], vec!["c3", "c4"]),
            ],
        )
        .unwrap();
        let db = ColoredDatabase::new().with("T", r);
        let q = RaExpr::scan("T").project_cols(["B"]);
        let out = eval_colored(&db, &q, &Scheme::Default).unwrap();
        assert_eq!(out.tuples().len(), 1);
        let cs = out.cell_colors(&vec![int(50)], "B").unwrap();
        assert_eq!(cs.iter().cloned().collect::<Vec<_>>(), vec!["c2", "c4"]);
    }

    #[test]
    fn natural_join_merges_colors_under_default_all_only() {
        let r = ColoredRelation::from_tuples(
            Schema::new(["A", "B"]).unwrap(),
            [ColoredTuple::with_colors(
                vec![int(1), int(2)],
                vec!["x1", "x2"],
            )],
        )
        .unwrap();
        let s = ColoredRelation::from_tuples(
            Schema::new(["B", "C"]).unwrap(),
            [ColoredTuple::with_colors(
                vec![int(2), int(3)],
                vec!["y1", "y2"],
            )],
        )
        .unwrap();
        let db = ColoredDatabase::new().with("R", r).with("S", s);
        let q = RaExpr::scan("R").natural_join(RaExpr::scan("S"));
        let def = eval_colored(&db, &q, &Scheme::Default).unwrap();
        let t = vec![int(1), int(2), int(3)];
        assert_eq!(
            def.cell_colors(&t, "B")
                .unwrap()
                .iter()
                .cloned()
                .collect::<Vec<_>>(),
            vec!["x2"]
        );
        let all = eval_colored(&db, &q, &Scheme::DefaultAll).unwrap();
        assert_eq!(
            all.cell_colors(&t, "B")
                .unwrap()
                .iter()
                .cloned()
                .collect::<Vec<_>>(),
            vec!["x2", "y1"]
        );
    }

    #[test]
    fn hash_engine_preserves_all_three_schemes() {
        // Q1/Q2 are σ[R.A = S.A ∧ R.B = 50](R × S) projections: the
        // equi-join recognizer fires, and the colored output must be
        // identical — including DEFAULT-ALL's cross-cell merging and
        // CUSTOM's steered propagation.
        let db = paper_db();
        let steer: BTreeMap<String, Vec<String>> = [("B".to_string(), vec!["S.B".to_string()])]
            .into_iter()
            .collect();
        let schemes = [Scheme::Default, Scheme::DefaultAll, Scheme::Custom(steer)];
        for scheme in &schemes {
            for q in [
                q1(),
                q2(),
                RaExpr::scan("R").natural_join(RaExpr::scan("S")),
            ] {
                let naive = eval_colored(&db, &q, scheme).unwrap();
                for cfg in [ExecConfig::default(), {
                    let mut c = ExecConfig::with_partitions(4);
                    c.parallel_threshold = 1;
                    c
                }] {
                    let hashed = eval_colored_with(&db, &q, scheme, &cfg).unwrap();
                    assert_eq!(naive, hashed, "scheme {scheme:?}, query {q}");
                }
            }
        }
    }

    #[test]
    fn occurrences_tracks_color_spread() {
        let db = paper_db();
        let q = RaExpr::ScanAs("R".into(), "r1".into())
            .product(RaExpr::ScanAs("R".into(), "r2".into()));
        let out = eval_colored(&db, &q, &Scheme::Default).unwrap();
        // b1 colors the r1.A cell of both rows built from tuple 1 on the
        // left, and the r2.A cell of both rows built from it on the
        // right: the color has spread to four cells.
        assert_eq!(out.occurrences("b1").len(), 4);
    }

    #[test]
    fn distinctly_colored_assigns_unique_colors() {
        let rel = Relation::table(["A", "B"], [vec![int(1), int(2)]]).unwrap();
        let c = ColoredRelation::distinctly_colored(&rel);
        assert_eq!(c.cell_colors(&vec![int(1), int(2)], "A").unwrap().len(), 1);
        let all: BTreeSet<&Colors> = c.tuples().iter().flat_map(|t| &t.colors).collect();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn negative_queries_are_rejected() {
        let db = paper_db();
        let q = RaExpr::scan("R").diff(RaExpr::scan("S"));
        assert!(eval_colored(&db, &q, &Scheme::Default).is_err());
    }
}
