//! K-relations: relations whose tuples are annotated with elements of a
//! commutative semiring K (Green–Karvounarakis–Tannen).

use std::collections::BTreeMap;
use std::fmt;

use cdb_relalg::exec::Rows;
use cdb_relalg::{RaExpr, RelalgError, Relation, Schema, Tuple};

use crate::semiring::Semiring;

/// A K-relation: a schema plus a finitely-supported map from tuples to
/// semiring elements. Tuples mapped to `0` are absent and are pruned.
#[derive(Debug, Clone, PartialEq)]
pub struct KRelation<K: Semiring> {
    schema: Schema,
    support: BTreeMap<Tuple, K>,
}

impl<K: Semiring> KRelation<K> {
    /// An empty K-relation.
    pub fn empty(schema: Schema) -> Self {
        KRelation {
            schema,
            support: BTreeMap::new(),
        }
    }

    /// Builds from `(tuple, annotation)` pairs; repeated tuples have
    /// their annotations summed.
    pub fn from_pairs(
        schema: Schema,
        pairs: impl IntoIterator<Item = (Tuple, K)>,
    ) -> Result<Self, RelalgError> {
        let mut rel = KRelation::empty(schema);
        for (t, k) in pairs {
            rel.insert(t, k)?;
        }
        Ok(rel)
    }

    /// Tags every tuple of an ordinary relation with an annotation
    /// produced from its index and value — typically
    /// `|i, _t| K::var(format!("t{i}"))` to assign the paper's abstract
    /// identifiers `p, r, s, …`.
    pub fn tagged(
        rel: &Relation,
        mut tag: impl FnMut(usize, &Tuple) -> K,
    ) -> Result<Self, RelalgError> {
        let mut out = KRelation::empty(rel.schema().clone());
        for (i, t) in rel.tuples().iter().enumerate() {
            let k = tag(i, t);
            out.insert(t.clone(), k)?;
        }
        Ok(out)
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Adds `k` to the annotation of `tuple`.
    pub fn insert(&mut self, tuple: Tuple, k: K) -> Result<(), RelalgError> {
        if tuple.len() != self.schema.arity() {
            return Err(RelalgError::UpdateError(format!(
                "arity mismatch inserting into K-relation {}",
                self.schema
            )));
        }
        let merged = match self.support.get(&tuple) {
            Some(old) => old.add(&k),
            None => k,
        };
        if merged.is_zero() {
            self.support.remove(&tuple);
        } else {
            self.support.insert(tuple, merged);
        }
        Ok(())
    }

    /// The annotation of a tuple (`0` if absent).
    pub fn annotation(&self, tuple: &Tuple) -> K {
        self.support.get(tuple).cloned().unwrap_or_else(K::zero)
    }

    /// Iterates over `(tuple, annotation)` pairs in tuple order.
    pub fn iter(&self) -> impl Iterator<Item = (&Tuple, &K)> {
        self.support.iter()
    }

    /// The number of tuples with non-zero annotation.
    pub fn len(&self) -> usize {
        self.support.len()
    }

    /// Whether the support is empty.
    pub fn is_empty(&self) -> bool {
        self.support.is_empty()
    }

    /// Replaces the schema (used by rename/alias ops). The arity must
    /// match.
    pub(crate) fn with_schema(self, schema: Schema) -> Self {
        debug_assert_eq!(schema.arity(), self.schema.arity());
        KRelation {
            schema,
            support: self.support,
        }
    }

    /// Maps annotations through a semiring homomorphism, preserving the
    /// tuple structure. (If `h` is not actually a homomorphism the result
    /// is still a well-formed K-relation, but the commutation property
    /// with query evaluation is forfeit.)
    pub fn map_annotations<L: Semiring>(&self, h: &impl Fn(&K) -> L) -> KRelation<L> {
        let mut out = KRelation::empty(self.schema.clone());
        for (t, k) in &self.support {
            let l = h(k);
            if !l.is_zero() {
                out.support.insert(t.clone(), l);
            }
        }
        out
    }

    /// Drops annotations, producing the ordinary relation of the support.
    pub fn to_relation(&self) -> Relation {
        let mut rel = Relation::empty(self.schema.clone());
        for t in self.support.keys() {
            rel.insert(t.clone()).expect("arity checked at insert");
        }
        rel
    }
}

/// K-relations under the one physical executor
/// ([`cdb_relalg::plan::execute`]): inserting is the semiring `+`,
/// joining is `·`, and — semirings having no subtraction — difference is
/// the positivity error. Rows have no stable offsets (the support is a
/// sorted map), so index lookups keep the default filter.
impl<K: Semiring> Rows for KRelation<K> {
    type Ann = K;
    type Db = KDatabase<K>;

    fn base<'a>(db: &'a KDatabase<K>, name: &str) -> Result<&'a Self, RelalgError> {
        db.get(name)
    }

    fn reference(db: &KDatabase<K>, expr: &RaExpr) -> Result<Self, RelalgError> {
        crate::eval::eval_k(db, expr)
    }

    fn empty(schema: Schema) -> Self {
        KRelation::empty(schema)
    }

    fn schema(&self) -> &Schema {
        &self.schema
    }

    fn rows(&self) -> impl ExactSizeIterator<Item = (&Tuple, &K)> {
        self.support.iter()
    }

    fn insert(&mut self, tuple: Tuple, ann: K) -> Result<(), RelalgError> {
        self.insert(tuple, ann)
    }

    fn times(l: &K, r: &K) -> K {
        l.mul(r)
    }

    fn diff(&self, _other: &Self) -> Result<Self, RelalgError> {
        Err(crate::eval::positivity_error())
    }
}

impl<K: Semiring + fmt::Display> fmt::Display for KRelation<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.schema)?;
        for (t, k) in &self.support {
            let cells: Vec<String> = t.iter().map(|a| a.to_string()).collect();
            writeln!(f, "  {}  ↦  {k}", cells.join(" | "))?;
        }
        Ok(())
    }
}

/// A database of K-relations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct KDatabase<K: Semiring> {
    relations: BTreeMap<String, KRelation<K>>,
}

impl<K: Semiring> KDatabase<K> {
    /// An empty K-database.
    pub fn new() -> Self {
        KDatabase {
            relations: BTreeMap::new(),
        }
    }

    /// Adds (or replaces) a relation, builder-style.
    pub fn with(mut self, name: impl Into<String>, rel: KRelation<K>) -> Self {
        self.relations.insert(name.into(), rel);
        self
    }

    /// Adds (or replaces) a relation.
    pub fn insert(&mut self, name: impl Into<String>, rel: KRelation<K>) {
        self.relations.insert(name.into(), rel);
    }

    /// Looks up a relation.
    pub fn get(&self, name: &str) -> Result<&KRelation<K>, RelalgError> {
        self.relations
            .get(name)
            .ok_or_else(|| RelalgError::NoSuchRelation(name.to_owned()))
    }

    /// Iterates over `(name, relation)`.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &KRelation<K>)> {
        self.relations.iter().map(|(n, r)| (n.as_str(), r))
    }

    /// Maps every relation's annotations through a homomorphism.
    pub fn map_annotations<L: Semiring>(&self, h: &impl Fn(&K) -> L) -> KDatabase<L> {
        let mut out = KDatabase::new();
        for (n, r) in &self.relations {
            out.insert(n.clone(), r.map_annotations(h));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instances::nat::Nat;
    use crate::instances::Bool;
    use cdb_model::Atom;

    fn schema() -> Schema {
        Schema::new(["A"]).unwrap()
    }

    #[test]
    fn zero_annotations_are_pruned() {
        let mut r = KRelation::<Nat>::empty(schema());
        r.insert(vec![Atom::Int(1)], Nat(0)).unwrap();
        assert!(r.is_empty());
        r.insert(vec![Atom::Int(1)], Nat(2)).unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.annotation(&vec![Atom::Int(1)]), Nat(2));
    }

    #[test]
    fn repeated_insert_sums() {
        let mut r = KRelation::<Nat>::empty(schema());
        r.insert(vec![Atom::Int(1)], Nat(2)).unwrap();
        r.insert(vec![Atom::Int(1)], Nat(3)).unwrap();
        assert_eq!(r.annotation(&vec![Atom::Int(1)]), Nat(5));
    }

    #[test]
    fn tagged_assigns_identifiers() {
        let rel = Relation::table(["A"], [vec![Atom::Int(1)], vec![Atom::Int(2)]]).unwrap();
        let kr = KRelation::tagged(&rel, |i, _| Nat(i as u64 + 1)).unwrap();
        assert_eq!(kr.annotation(&vec![Atom::Int(2)]), Nat(2));
    }

    #[test]
    fn map_annotations_drops_zeros() {
        let mut r = KRelation::<Nat>::empty(schema());
        r.insert(vec![Atom::Int(1)], Nat(2)).unwrap();
        r.insert(vec![Atom::Int(2)], Nat(1)).unwrap();
        // Map n ↦ (n ≥ 2): tuple 2 drops out.
        let b = r.map_annotations(&|n: &Nat| Bool(n.0 >= 2));
        assert_eq!(b.len(), 1);
        assert_eq!(b.annotation(&vec![Atom::Int(1)]), Bool(true));
    }

    #[test]
    fn arity_is_checked() {
        let mut r = KRelation::<Nat>::empty(schema());
        assert!(r.insert(vec![Atom::Int(1), Atom::Int(2)], Nat(1)).is_err());
    }
}
