//! The touch index behind `last_modified`, `curators_of` and `history`
//! (`cdb_curation::queries`): the log's inverted form, kept by every
//! commit and rebuilt by every open, must answer as the folds over the
//! log that it replaced (`common::fold_*`).
//!
//! * `the_touch_index_answers_as_the_fold_in_both_store_modes` —
//!   copy-paste-correct sessions (`CurationSim`) in both provenance
//!   store modes, followed by random deletes, edits, inserts and pastes
//!   by other curators (some transactions abandoned uncommitted): every
//!   live node and every operation target answers as the folds, the
//!   same in both modes; the index the commits kept equals a rebuild
//!   from the whole log, and a rebuild from the tail a cut leaves
//!   answers as the folds over that tail.
//!
//! Database careers with reopens are in `tests/paged_storage.rs`
//! (`provenance_reads_answer_as_the_fold_across_reopens`); careers
//! across shards, with cross-shard fusion, fission and an aborted 2PC,
//! in `tests/structural_sharing.rs`, whose every pinned state is
//! checked the same way.

mod common;

use std::collections::BTreeSet;

use cdb_curation::ops::CuratedTree;
use cdb_curation::provstore::StoreMode;
use cdb_curation::{queries, NodeId, Transaction, TxnId};
use cdb_model::Atom;
use cdb_workload::sessions::{CurationSim, SessionConfig};
use proptest::prelude::*;

fn lcg(r: &mut u64) -> u64 {
    *r = r
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *r >> 33
}

/// The live nodes below the root.
fn live_below_root(db: &CuratedTree) -> Vec<NodeId> {
    let mut out = Vec::new();
    let mut stack = db.tree.children(db.tree.root()).unwrap().to_vec();
    while let Some(n) = stack.pop() {
        out.push(n);
        stack.extend_from_slice(db.tree.children(n).unwrap());
    }
    out.sort_unstable();
    out
}

/// A session in `mode`, then `extra` random transactions by two late
/// curators. The choices depend on the seed and the tree shape only,
/// which both store modes share, so both modes live the same career.
fn career(seed: u64, mode: StoreMode, txns: usize, extra: usize) -> CuratedTree {
    let cfg = SessionConfig {
        source_entries: 4,
        fields_per_entry: 3,
        transactions: txns,
        pastes_per_txn: 2,
        edits_per_txn: 3,
        inserts_per_txn: 1,
    };
    let mut sim = CurationSim::new(seed, mode, cfg);
    sim.run();
    let source_entry = sim.source.tree.children(sim.source.tree.root()).unwrap()[0];
    let clip = sim.source.copy(source_entry).unwrap();
    let mut db = sim.target;
    let mut r = seed;
    for i in 0..extra {
        let live = live_below_root(&db);
        let root = db.tree.root();
        let mut t = db.begin(format!("late{}", i % 2), 1_000 + i as u64);
        for _ in 0..1 + lcg(&mut r) % 3 {
            let pick = live.get(lcg(&mut r) as usize % live.len().max(1)).copied();
            // A node picked before an earlier op of this transaction
            // deleted it is refused; the refusal logs nothing.
            match (lcg(&mut r) % 5, pick) {
                (0 | 1, Some(n)) => {
                    let _ = t.delete(n);
                }
                (2, Some(n)) => {
                    let _ = t.modify(n, Some(Atom::Int(i as i64)));
                }
                (3, Some(n)) => {
                    let _ = t.insert(n, "late", Some(Atom::Int(i as i64)));
                }
                _ => {
                    t.paste(root, &clip).unwrap();
                }
            }
        }
        if lcg(&mut r).is_multiple_of(5) {
            drop(t); // abandoned: applied to the tree, never logged
        } else {
            t.commit();
        }
    }
    db
}

/// Every node the career made that is still live or that an operation
/// in its log targets.
fn nodes(db: &CuratedTree) -> BTreeSet<NodeId> {
    let targets = db
        .log()
        .iter()
        .flat_map(|t| t.ops.iter().map(|op| op.node()));
    live_below_root(db).into_iter().chain(targets).collect()
}

/// What the three queries answer for each of `nodes`.
type Answers = Vec<(Option<TxnId>, Vec<String>, Vec<TxnId>)>;

fn answers(db: &CuratedTree, nodes: &BTreeSet<NodeId>) -> Answers {
    nodes
        .iter()
        .map(|&n| {
            let history = queries::history(db, n).iter().map(|(t, _)| t.id).collect();
            (
                queries::last_modified(db, n).unwrap(),
                queries::curators_of(db, n).unwrap(),
                history,
            )
        })
        .collect()
}

proptest! {
    #[test]
    fn the_touch_index_answers_as_the_fold_in_both_store_modes(
        seed in 0u64..1_000_000,
        txns in 1usize..8,
        extra in 0usize..12,
    ) {
        let hereditary = career(seed, StoreMode::Hereditary, txns, extra);
        let naive = career(seed, StoreMode::Naive, txns, extra);
        prop_assert_eq!(hereditary.log(), naive.log());
        for db in [&hereditary, &naive] {
            common::check_provenance(db).map_err(TestCaseError::fail)?;
        }
        let nodes = nodes(&hereditary);
        prop_assert_eq!(answers(&hereditary, &nodes), answers(&naive, &nodes));

        // The index the commits kept is the one an open would build
        // from the whole log; a cut at a random transaction leaves a
        // tail whose rebuilt index answers as the folds over it.
        let db = &hereditary;
        prop_assert!(db.touch_index_is_derived());
        let cut = lcg(&mut seed.clone()) as usize % (db.log().len() + 1);
        let tail: Vec<Transaction> = db.log().iter_from(cut).cloned().collect();
        let base = cut.checked_sub(1).map(|i| db.log()[i].id);
        let cut_db = CuratedTree::from_parts_at(db.tree.clone(), tail, db.prov.clone(), base);
        prop_assert!(cut_db.touch_index_is_derived());
        common::check_provenance(&cut_db).map_err(TestCaseError::fail)?;
    }
}
