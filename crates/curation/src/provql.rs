//! A small provenance query language.
//!
//! §3.1 poses the design challenge: "Can we design a query language that
//! provides good high-level support for writing sophisticated queries
//! against curated databases involving provenance, the raw data, and
//! perhaps previous versions?" This module is a working answer at the
//! scale of this reproduction — one language spanning all three:
//!
//! ```text
//! VALUE /entry/name                    -- the raw data
//! VALUE /entry/name AT TXN 3           -- …in a past state (log replay)
//! WHEN CREATED /entry/name             -- provenance: first creation
//! FROM WHERE /entry                    -- provenance: the origin chain
//! WHO TOUCHED /entry                   -- provenance: contributing curators
//! HISTORY /entry/name                  -- every touching transaction
//! CHANGED BETWEEN TXN 1 AND TXN 4      -- what the period changed
//! ```
//!
//! Queries are parsed by [`parse`] and evaluated by [`eval`] against a
//! [`CuratedTree`]; answers are structured ([`Answer`]) and printable.

use std::fmt;

use crate::ops::{CuratedTree, CurationOp, TxnId};
use crate::queries;
use crate::replay;
use crate::tree::TreeError;

/// A parsed provenance query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProvQuery {
    /// `VALUE <path> [AT TXN <n>]`
    Value {
        /// Label path to the node.
        path: String,
        /// Evaluate against the state after this transaction.
        at: Option<TxnId>,
    },
    /// `WHEN CREATED <path>`
    WhenCreated {
        /// Label path to the node.
        path: String,
    },
    /// `FROM WHERE <path>`
    FromWhere {
        /// Label path to the node.
        path: String,
    },
    /// `WHO TOUCHED <path>`
    WhoTouched {
        /// Label path to the node.
        path: String,
    },
    /// `HISTORY <path>`
    History {
        /// Label path to the node.
        path: String,
    },
    /// `CHANGED BETWEEN TXN <a> AND TXN <b>`
    ChangedBetween {
        /// First transaction (exclusive lower bound is `a`-1; i.e.
        /// changes *of* transactions a..=b are reported).
        from: TxnId,
        /// Last transaction, inclusive.
        to: TxnId,
    },
}

/// A query answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Answer {
    /// A raw value (as a rendered string; `None` = node has no payload).
    Value(Option<String>),
    /// Creation info: transaction, curator, time.
    Created {
        /// The creating transaction.
        txn: TxnId,
        /// The curator.
        curator: String,
        /// The logical time.
        time: u64,
    },
    /// An origin chain, oldest first (rendered).
    Origins(Vec<String>),
    /// Curators, in first-touch order.
    Curators(Vec<String>),
    /// Touching transactions: (txn, curator, ops touching the node).
    History(Vec<(TxnId, String, usize)>),
    /// Paths changed in a transaction range.
    Changed(Vec<String>),
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Answer::Value(Some(v)) => write!(f, "{v}"),
            Answer::Value(None) => write!(f, "(no value)"),
            Answer::Created { txn, curator, time } => {
                write!(f, "created in {txn} by {curator} at t={time}")
            }
            Answer::Origins(os) => write!(f, "{}", os.join(" → ")),
            Answer::Curators(cs) => write!(f, "{}", cs.join(", ")),
            Answer::History(h) => {
                for (i, (t, c, n)) in h.iter().enumerate() {
                    if i > 0 {
                        writeln!(f)?;
                    }
                    write!(f, "{t} by {c} ({n} ops)")?;
                }
                Ok(())
            }
            Answer::Changed(ps) => write!(f, "{}", ps.join("\n")),
        }
    }
}

/// Parse errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "provql parse error: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Evaluation errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// Path lookup or tree error.
    Tree(TreeError),
    /// Replay failure.
    Replay(String),
    /// The node has no recorded creation.
    NoProvenance(String),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Tree(e) => write!(f, "{e}"),
            EvalError::Replay(m) => write!(f, "replay: {m}"),
            EvalError::NoProvenance(p) => write!(f, "no provenance recorded for {p}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<TreeError> for EvalError {
    fn from(e: TreeError) -> Self {
        EvalError::Tree(e)
    }
}

/// Parses a query.
pub fn parse(input: &str) -> Result<ProvQuery, ParseError> {
    let toks: Vec<&str> = input.split_whitespace().collect();
    let upper: Vec<String> = toks.iter().map(|t| t.to_ascii_uppercase()).collect();
    let u: Vec<&str> = upper.iter().map(String::as_str).collect();
    match u.as_slice() {
        ["VALUE", _p] => Ok(ProvQuery::Value {
            path: toks[1].to_owned(),
            at: None,
        }),
        ["VALUE", _p, "AT", "TXN", n] => Ok(ProvQuery::Value {
            path: toks[1].to_owned(),
            at: Some(TxnId(parse_num(n)?)),
        }),
        ["WHEN", "CREATED", _p] => Ok(ProvQuery::WhenCreated {
            path: toks[2].to_owned(),
        }),
        ["FROM", "WHERE", _p] => Ok(ProvQuery::FromWhere {
            path: toks[2].to_owned(),
        }),
        ["WHO", "TOUCHED", _p] => Ok(ProvQuery::WhoTouched {
            path: toks[2].to_owned(),
        }),
        ["HISTORY", _p] => Ok(ProvQuery::History {
            path: toks[1].to_owned(),
        }),
        ["CHANGED", "BETWEEN", "TXN", a, "AND", "TXN", b] => Ok(ProvQuery::ChangedBetween {
            from: TxnId(parse_num(a)?),
            to: TxnId(parse_num(b)?),
        }),
        _ => Err(ParseError(format!(
            "unrecognized query {input:?}; see module docs for the grammar"
        ))),
    }
}

fn parse_num(s: &str) -> Result<u64, ParseError> {
    s.parse()
        .map_err(|_| ParseError(format!("expected a number, got {s:?}")))
}

/// Evaluates a query against a curated tree.
pub fn eval(db: &CuratedTree, q: &ProvQuery) -> Result<Answer, EvalError> {
    match q {
        ProvQuery::Value { path, at: None } => {
            let node = db.tree.resolve_path(path)?;
            Ok(Answer::Value(db.tree.value(node)?.map(|a| a.to_string())))
        }
        ProvQuery::Value {
            path,
            at: Some(txn),
        } => {
            let past = replay::replay(db.tree.name(), db.log(), Some(*txn))
                .map_err(|e| EvalError::Replay(e.to_string()))?;
            let node = past.resolve_path(path)?;
            Ok(Answer::Value(past.value(node)?.map(|a| a.to_string())))
        }
        ProvQuery::WhenCreated { path } => {
            let node = db.tree.resolve_path(path)?;
            let txn = queries::when_created(db, node)
                .ok_or_else(|| EvalError::NoProvenance(path.clone()))?;
            let t = db
                .txn(txn)
                .ok_or_else(|| EvalError::NoProvenance(path.clone()))?;
            Ok(Answer::Created {
                txn,
                curator: t.curator.clone(),
                time: t.time,
            })
        }
        ProvQuery::FromWhere { path } => {
            let node = db.tree.resolve_path(path)?;
            Ok(Answer::Origins(
                queries::how_arrived(db, node)
                    .iter()
                    .map(|o| o.to_string())
                    .collect(),
            ))
        }
        ProvQuery::WhoTouched { path } => {
            let node = db.tree.resolve_path(path)?;
            Ok(Answer::Curators(queries::curators_of(db, node)?))
        }
        ProvQuery::History { path } => {
            let node = db.tree.resolve_path(path)?;
            Ok(Answer::History(
                queries::history(db, node)
                    .into_iter()
                    .map(|(t, ops)| (t.id, t.curator.clone(), ops.len()))
                    .collect(),
            ))
        }
        ProvQuery::ChangedBetween { from, to } => {
            // Replay to `to` so even since-deleted nodes resolve paths.
            let state = replay::replay(db.tree.name(), db.log(), Some(*to))
                .map_err(|e| EvalError::Replay(e.to_string()))?;
            let mut out = Vec::new();
            for txn in db.log() {
                if txn.id < *from || txn.id > *to {
                    continue;
                }
                for op in &txn.ops {
                    let node = op.node();
                    let desc = match op {
                        CurationOp::Insert { label, .. } => {
                            format!(
                                "+ {} ({})",
                                state.path_of(node).unwrap_or_else(|_| label.clone()),
                                txn.id
                            )
                        }
                        CurationOp::Paste { .. } => {
                            format!(
                                "⇐ {} ({})",
                                state.path_of(node).unwrap_or_else(|_| node.to_string()),
                                txn.id
                            )
                        }
                        CurationOp::Modify { .. } => {
                            format!(
                                "~ {} ({})",
                                state.path_of(node).unwrap_or_else(|_| node.to_string()),
                                txn.id
                            )
                        }
                        CurationOp::Delete { .. } => format!("- {node} ({})", txn.id),
                    };
                    out.push(desc);
                }
            }
            Ok(Answer::Changed(out))
        }
    }
}

/// Parses and evaluates in one step.
pub fn query(db: &CuratedTree, input: &str) -> Result<Answer, String> {
    let q = parse(input).map_err(|e| e.to_string())?;
    eval(db, &q).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provstore::StoreMode;
    use cdb_model::Atom;

    fn build() -> CuratedTree {
        let mut src = CuratedTree::new("uniprot", StoreMode::Hereditary);
        let sroot = src.tree.root();
        let mut t = src.begin("upstream", 1);
        let e = t.insert(sroot, "entry", None).unwrap();
        t.insert(e, "name", Some(Atom::Str("ywhah".into())))
            .unwrap();
        t.commit();
        let clip = src.copy(e).unwrap();

        let mut db = CuratedTree::new("mydb", StoreMode::Hereditary);
        let root = db.tree.root();
        let mut t = db.begin("alice", 10);
        t.paste(root, &clip).unwrap();
        t.commit();
        let name = db.tree.resolve_path("/entry/name").unwrap();
        let mut t = db.begin("bob", 20);
        t.modify(name, Some(Atom::Str("YWHAH".into()))).unwrap();
        t.commit();
        db
    }

    #[test]
    fn value_queries_read_raw_and_past_data() {
        let db = build();
        let now = query(&db, "VALUE /entry/name").unwrap();
        assert_eq!(now.to_string(), "\"YWHAH\"");
        let then = query(&db, "VALUE /entry/name AT TXN 0").unwrap();
        assert_eq!(then.to_string(), "\"ywhah\"");
    }

    #[test]
    fn when_created_names_the_paste_transaction() {
        let db = build();
        match query(&db, "WHEN CREATED /entry/name").unwrap() {
            Answer::Created { txn, curator, time } => {
                assert_eq!(txn, TxnId(0));
                assert_eq!(curator, "alice");
                assert_eq!(time, 10);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn from_where_shows_the_cross_database_chain() {
        let db = build();
        let a = query(&db, "FROM WHERE /entry").unwrap();
        let s = a.to_string();
        assert!(s.contains("local"), "{s}");
        assert!(s.contains("copied from uniprot:/entry"), "{s}");
    }

    #[test]
    fn who_touched_and_history() {
        let db = build();
        assert_eq!(
            query(&db, "WHO TOUCHED /entry").unwrap().to_string(),
            "alice, bob"
        );
        match query(&db, "HISTORY /entry/name").unwrap() {
            Answer::History(h) => {
                assert_eq!(h.len(), 1, "only the modify targets the name node itself");
                assert_eq!(h[0].1, "bob");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn changed_between_lists_operations() {
        let db = build();
        match query(&db, "CHANGED BETWEEN TXN 1 AND TXN 1").unwrap() {
            Answer::Changed(ps) => {
                assert_eq!(ps.len(), 1);
                assert!(ps[0].contains("/entry/name"), "{ps:?}");
                assert!(ps[0].starts_with('~'));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn keywords_are_case_insensitive_but_paths_are_not() {
        let db = build();
        assert!(query(&db, "value /entry/name").is_ok());
        assert!(query(&db, "VALUE /ENTRY/name").is_err());
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse("FROB /x").is_err());
        assert!(parse("VALUE /x AT TXN seven").is_err());
        assert!(parse("").is_err());
    }
}
