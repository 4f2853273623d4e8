//! Hierarchical keys ("Keys for XML", Buneman–Davidson–Fan–Hara–Tan),
//! the device §5.1 of the paper uses to archive curated databases:
//!
//! > "In the presence of hierarchical key constraints, it becomes
//! > possible to identify a node in a tree in a way that is invariant to
//! > updates that are performed on the tree."
//!
//! A [`KeySpec`] says, for each *context* (a chain of record-field labels
//! from the root, with set boundaries transparent), which fields of a set
//! element form its key. A [`KeyPath`] is then the canonical,
//! update-invariant address of a node: the field labels crossed, with each
//! set element identified by its key-field atoms rather than by position
//! or full value. The archiver (`cdb-archive`) merges successive versions
//! node-by-node along key paths, and the curation provenance store
//! records provenance against key paths for the same reason.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::atom::Atom;
use crate::error::ModelError;
use crate::path::{Path, Step};
use crate::value::{Label, Value};

/// One step of a key path.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum KeyStep {
    /// Crossing a record field.
    Field(Label),
    /// Entering the set element whose key fields have these atoms,
    /// in the order given by the governing [`KeySpec`] rule.
    Entry(Vec<Atom>),
    /// Entering a list position (lists are keyed by index).
    Index(usize),
}

impl fmt::Display for KeyStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KeyStep::Field(l) => write!(f, "/{l}"),
            KeyStep::Entry(atoms) => {
                write!(f, "[")?;
                for (i, a) in atoms.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, "]")
            }
            KeyStep::Index(i) => write!(f, "#{i}"),
        }
    }
}

/// An update-invariant address of a node in a keyed hierarchical value.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyPath {
    steps: Vec<KeyStep>,
}

impl KeyPath {
    /// The root key path.
    pub fn root() -> Self {
        KeyPath { steps: Vec::new() }
    }

    /// Builds a key path from steps.
    pub fn from_steps(steps: Vec<KeyStep>) -> Self {
        KeyPath { steps }
    }

    /// The steps of this key path.
    pub fn steps(&self) -> &[KeyStep] {
        &self.steps
    }

    /// Returns a new key path extended by one step.
    pub fn child(&self, step: KeyStep) -> Self {
        let mut steps = self.steps.clone();
        steps.push(step);
        KeyPath { steps }
    }

    /// The parent key path, or `None` at the root.
    pub fn parent(&self) -> Option<KeyPath> {
        if self.steps.is_empty() {
            None
        } else {
            Some(KeyPath {
                steps: self.steps[..self.steps.len() - 1].to_vec(),
            })
        }
    }

    /// Whether `self` is a (non-strict) prefix of `other`.
    pub fn is_prefix_of(&self, other: &KeyPath) -> bool {
        other.steps.len() >= self.steps.len() && self.steps[..] == other.steps[..self.steps.len()]
    }

    /// The number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether this is the root key path.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

impl fmt::Display for KeyPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.steps.is_empty() {
            return write!(f, "/");
        }
        for s in &self.steps {
            write!(f, "{s}")?;
        }
        Ok(())
    }
}

/// A hierarchical key specification.
///
/// Each rule maps a *context* — the chain of record-field labels from the
/// root down to a set (set and list crossings are transparent) — to the
/// list of fields that key the elements of that set. Sets with no rule
/// fall back to extensional identity (the element's whole value is its
/// key), which is always sound but defeats fat-node merging when leaf
/// fields change; well-organized curated databases (UniProt's `AC`
/// accession numbers, the Factbook's country names) always have real keys.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KeySpec {
    rules: BTreeMap<Vec<Label>, Vec<Label>>,
}

impl KeySpec {
    /// An empty specification (all sets use extensional identity).
    pub fn new() -> Self {
        KeySpec::default()
    }

    /// Adds a rule: elements of the set reached through record fields
    /// `context` are keyed by `key_fields`.
    pub fn rule<L1, L2>(
        mut self,
        context: impl IntoIterator<Item = L1>,
        key_fields: impl IntoIterator<Item = L2>,
    ) -> Self
    where
        L1: Into<Label>,
        L2: Into<Label>,
    {
        self.rules.insert(
            context.into_iter().map(Into::into).collect(),
            key_fields.into_iter().map(Into::into).collect(),
        );
        self
    }

    /// The key fields for a set reached via `context`, if a rule exists.
    pub fn key_fields(&self, context: &[Label]) -> Option<&[Label]> {
        self.rules.get(context).map(Vec::as_slice)
    }

    /// Computes the [`KeyStep::Entry`] identifying `element` within a set
    /// at `context`. Falls back to the element's whole atom value when no
    /// rule applies and the element is atomic; otherwise requires a rule.
    pub fn entry_step(
        &self,
        context: &[Label],
        element: &Value,
        at: &Path,
    ) -> Result<KeyStep, ModelError> {
        match self.key_fields(context) {
            Some(fields) => {
                let rec = element
                    .as_record()
                    .ok_or_else(|| ModelError::KeyViolation {
                        detail: format!(
                            "key rule at context {context:?} expects record elements, found {}",
                            element.kind()
                        ),
                        at: at.clone(),
                    })?;
                let mut atoms = Vec::with_capacity(fields.len());
                for fld in fields {
                    let v = rec.get(fld).ok_or_else(|| ModelError::KeyViolation {
                        detail: format!("missing key field {fld:?}"),
                        at: at.clone(),
                    })?;
                    let a = v.as_atom().ok_or_else(|| ModelError::KeyViolation {
                        detail: format!("key field {fld:?} is not atomic"),
                        at: at.clone(),
                    })?;
                    atoms.push(a.clone());
                }
                Ok(KeyStep::Entry(atoms))
            }
            None => match element.as_atom() {
                Some(a) => Ok(KeyStep::Entry(vec![a.clone()])),
                None => Err(ModelError::KeyViolation {
                    detail: format!(
                        "no key rule for set at context {context:?} with non-atomic elements"
                    ),
                    at: at.clone(),
                }),
            },
        }
    }

    /// Enumerates every node of `value` with its canonical key path, in
    /// depth-first order. Fails on key violations (missing key fields,
    /// duplicate keys among siblings, unkeyable sets).
    pub fn keyed_nodes<'v>(
        &self,
        value: &'v Value,
    ) -> Result<Vec<(KeyPath, &'v Value)>, ModelError> {
        let mut out = Vec::new();
        self.walk(
            value,
            &mut Vec::new(),
            KeyPath::root(),
            Path::root(),
            &mut out,
        )?;
        Ok(out)
    }

    fn walk<'v>(
        &self,
        value: &'v Value,
        context: &mut Vec<Label>,
        kp: KeyPath,
        vp: Path,
        out: &mut Vec<(KeyPath, &'v Value)>,
    ) -> Result<(), ModelError> {
        out.push((kp.clone(), value));
        match value {
            Value::Atom(_) => Ok(()),
            Value::Record(m) => {
                for (l, v) in m {
                    context.push(l.clone());
                    self.walk(
                        v,
                        context,
                        kp.child(KeyStep::Field(l.clone())),
                        vp.child(Step::Field(l.clone())),
                        out,
                    )?;
                    context.pop();
                }
                Ok(())
            }
            Value::Set(s) => {
                let mut seen: BTreeMap<KeyStep, ()> = BTreeMap::new();
                for v in s {
                    let step = self.entry_step(context, v, &vp)?;
                    if seen.insert(step.clone(), ()).is_some() {
                        return Err(ModelError::KeyViolation {
                            detail: format!("duplicate key {step} among siblings"),
                            at: vp.clone(),
                        });
                    }
                    self.walk(
                        v,
                        context,
                        kp.child(step),
                        vp.child(Step::Elem(Box::new(v.clone()))),
                        out,
                    )?;
                }
                Ok(())
            }
            Value::List(xs) => {
                for (i, v) in xs.iter().enumerate() {
                    self.walk(
                        v,
                        context,
                        kp.child(KeyStep::Index(i)),
                        vp.child(Step::Index(i)),
                        out,
                    )?;
                }
                Ok(())
            }
        }
    }

    /// Checks what [`KeySpec::keyed_nodes`] checks — every set element
    /// carries its key, and no two siblings share one — without
    /// enumerating the nodes: no key path is built, no value is copied
    /// and no node allocates. The walk reuses two buffers: the context
    /// (borrowed labels) and one vector of borrowed set elements, which
    /// each set sorts by key to find a repeated one.
    pub fn check_keys(&self, value: &Value) -> Result<(), ModelError> {
        self.check(value, &mut Vec::new(), &mut Vec::new())
    }

    fn check<'v>(
        &self,
        value: &'v Value,
        context: &mut Vec<&'v str>,
        siblings: &mut Vec<&'v Value>,
    ) -> Result<(), ModelError> {
        match value {
            Value::Atom(_) => Ok(()),
            Value::Record(m) => {
                for (l, v) in m {
                    context.push(l);
                    self.check(v, context, siblings)?;
                    context.pop();
                }
                Ok(())
            }
            Value::Set(s) => {
                self.check_siblings(context, s, siblings)?;
                s.iter().try_for_each(|v| self.check(v, context, siblings))
            }
            Value::List(xs) => xs.iter().try_for_each(|v| self.check(v, context, siblings)),
        }
    }

    /// The elements of one set at `context` are keyable and their keys
    /// distinct. Without a rule the elements must be atoms, and the
    /// distinct atoms of a set never collide; under a rule each element
    /// is a record with an atom in every key field, compared by those.
    fn check_siblings<'v>(
        &self,
        context: &[&str],
        set: &'v BTreeSet<Value>,
        siblings: &mut Vec<&'v Value>,
    ) -> Result<(), ModelError> {
        let violation = |detail| ModelError::KeyViolation {
            detail,
            at: Path::root(),
        };
        let rule = self.rules.iter().find(|(c, _)| {
            c.len() == context.len() && c.iter().zip(context).all(|(a, b)| a.as_str() == *b)
        });
        let Some((_, fields)) = rule else {
            return match set.iter().find(|v| v.as_atom().is_none()) {
                None => Ok(()),
                Some(_) => Err(violation(format!(
                    "no key rule for set at context {context:?} with non-atomic elements"
                ))),
            };
        };
        for v in set {
            let rec = v.as_record().ok_or_else(|| {
                violation(format!(
                    "key rule at context {context:?} expects record elements, found {}",
                    v.kind()
                ))
            })?;
            for fld in fields {
                let field = rec
                    .get(fld)
                    .ok_or_else(|| violation(format!("missing key field {fld:?}")))?;
                if field.as_atom().is_none() {
                    return Err(violation(format!("key field {fld:?} is not atomic")));
                }
            }
        }
        let key = |v: &'v Value| {
            fields
                .iter()
                .map(move |f| v.field(f).and_then(Value::as_atom))
        };
        siblings.clear();
        siblings.extend(set.iter());
        siblings.sort_unstable_by(|a, b| key(a).cmp(key(b)));
        let repeated = siblings.windows(2).find(|w| key(w[0]).eq(key(w[1])));
        let out = match repeated {
            Some(w) => Err(violation(format!(
                "duplicate key {} among siblings",
                KeyStep::Entry(key(w[0]).flatten().cloned().collect())
            ))),
            None => Ok(()),
        };
        siblings.clear();
        out
    }

    /// Resolves a key path to the part of `value` it addresses.
    pub fn resolve<'v>(
        &self,
        value: &'v Value,
        key_path: &KeyPath,
    ) -> Result<&'v Value, ModelError> {
        let mut cur = value;
        let mut context: Vec<Label> = Vec::new();
        for (i, step) in key_path.steps().iter().enumerate() {
            let at = || Path::root(); // best-effort location for errors
            cur = match (step, cur) {
                (KeyStep::Field(l), Value::Record(m)) => {
                    context.push(l.clone());
                    m.get(l).ok_or_else(|| ModelError::NoSuchField {
                        label: l.clone(),
                        at: at(),
                    })?
                }
                (KeyStep::Entry(_), Value::Set(s)) => {
                    let mut found = None;
                    for v in s {
                        let cand = self.entry_step(&context, v, &at())?;
                        if cand == *step {
                            found = Some(v);
                            break;
                        }
                    }
                    found.ok_or(ModelError::NoSuchElement { at: at() })?
                }
                (KeyStep::Index(n), Value::List(xs)) => {
                    xs.get(*n).ok_or_else(|| ModelError::IndexOutOfBounds {
                        index: *n,
                        len: xs.len(),
                        at: at(),
                    })?
                }
                (step, found) => {
                    let expected = match step {
                        KeyStep::Field(_) => "record",
                        KeyStep::Entry(_) => "set",
                        KeyStep::Index(_) => "list",
                    };
                    return Err(ModelError::ShapeMismatch {
                        expected,
                        found: found.kind(),
                        at: Path::root(),
                    });
                }
            };
            let _ = i;
        }
        Ok(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny Factbook-like database: a set of countries keyed by name.
    fn factbook() -> (KeySpec, Value) {
        let spec = KeySpec::new().rule(Vec::<Label>::new(), ["name"]);
        let v = Value::set([
            Value::record([
                ("name", Value::str("Iceland")),
                ("population", Value::int(300_000)),
            ]),
            Value::record([
                ("name", Value::str("Liechtenstein")),
                ("population", Value::int(35_000)),
            ]),
        ]);
        (spec, v)
    }

    #[test]
    fn key_paths_are_update_invariant() {
        let (spec, v1) = factbook();
        // Update Liechtenstein's population: its key path must not change.
        let v2 = Value::set([
            Value::record([
                ("name", Value::str("Iceland")),
                ("population", Value::int(300_000)),
            ]),
            Value::record([
                ("name", Value::str("Liechtenstein")),
                ("population", Value::int(36_000)),
            ]),
        ]);
        let kp = KeyPath::root()
            .child(KeyStep::Entry(vec![Atom::Str("Liechtenstein".into())]))
            .child(KeyStep::Field("population".into()));
        assert_eq!(spec.resolve(&v1, &kp).unwrap(), &Value::int(35_000));
        assert_eq!(spec.resolve(&v2, &kp).unwrap(), &Value::int(36_000));
    }

    #[test]
    fn keyed_nodes_enumerates_with_canonical_paths() {
        let (spec, v) = factbook();
        let nodes = spec.keyed_nodes(&v).unwrap();
        // root set + 2 records + 4 fields = 7 nodes.
        assert_eq!(nodes.len(), 7);
        for (kp, sub) in &nodes {
            assert_eq!(spec.resolve(&v, kp).unwrap(), *sub);
        }
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let spec = KeySpec::new().rule(Vec::<Label>::new(), ["name"]);
        let v = Value::set([
            Value::record([("name", Value::str("X")), ("a", Value::int(1))]),
            Value::record([("name", Value::str("X")), ("a", Value::int(2))]),
        ]);
        assert!(matches!(
            spec.keyed_nodes(&v),
            Err(ModelError::KeyViolation { .. })
        ));
    }

    #[test]
    fn missing_key_field_is_rejected() {
        let spec = KeySpec::new().rule(Vec::<Label>::new(), ["name"]);
        let v = Value::set([Value::record([("a", Value::int(1))])]);
        assert!(matches!(
            spec.keyed_nodes(&v),
            Err(ModelError::KeyViolation { .. })
        ));
    }

    #[test]
    fn atomic_sets_need_no_rule() {
        let spec = KeySpec::new();
        let v = Value::set([Value::int(1), Value::int(2)]);
        let nodes = spec.keyed_nodes(&v).unwrap();
        assert_eq!(nodes.len(), 3);
    }

    #[test]
    fn unkeyed_record_sets_are_rejected() {
        let spec = KeySpec::new();
        let v = Value::set([Value::record([("a", Value::int(1))])]);
        assert!(matches!(
            spec.keyed_nodes(&v),
            Err(ModelError::KeyViolation { .. })
        ));
    }

    #[test]
    fn nested_contexts_use_their_own_rules() {
        // countries keyed by name; each has cities keyed by city field.
        let spec = KeySpec::new()
            .rule(Vec::<Label>::new(), ["name"])
            .rule(["cities"], ["city"]);
        let v = Value::set([Value::record([
            ("name", Value::str("Iceland")),
            (
                "cities",
                Value::set([Value::record([
                    ("city", Value::str("Reykjavik")),
                    ("pop", Value::int(120_000)),
                ])]),
            ),
        ])]);
        let kp = KeyPath::root()
            .child(KeyStep::Entry(vec![Atom::Str("Iceland".into())]))
            .child(KeyStep::Field("cities".into()))
            .child(KeyStep::Entry(vec![Atom::Str("Reykjavik".into())]))
            .child(KeyStep::Field("pop".into()));
        assert_eq!(spec.resolve(&v, &kp).unwrap(), &Value::int(120_000));
    }

    #[test]
    fn key_path_display() {
        let kp = KeyPath::root()
            .child(KeyStep::Entry(vec![Atom::Str("Iceland".into())]))
            .child(KeyStep::Field("pop".into()))
            .child(KeyStep::Index(3));
        assert_eq!(kp.to_string(), "[\"Iceland\"]/pop#3");
        assert_eq!(KeyPath::root().to_string(), "/");
    }

    #[test]
    fn prefix_and_parent() {
        let a = KeyPath::root().child(KeyStep::Field("x".into()));
        let b = a.child(KeyStep::Index(0));
        assert!(a.is_prefix_of(&b));
        assert_eq!(b.parent(), Some(a.clone()));
        assert!(KeyPath::root().is_prefix_of(&a));
    }
}
