//! Curation-session simulation: the copy-paste-correct loop of §3.
//!
//! "One typically tries to find a bibtex entry on the web, copies and
//! pastes it into one's own bibliography, and then corrects it" — this
//! module drives `cdb-curation` through exactly that loop at scale, so
//! the provenance-store experiments (E6) measure realistic op mixes.

use cdb_curation::ops::CuratedTree;
use cdb_curation::provstore::StoreMode;
use cdb_curation::NodeId;
use cdb_model::Atom;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of a simulated curation effort.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// Entries available in the upstream source database.
    pub source_entries: usize,
    /// Fields per source entry.
    pub fields_per_entry: usize,
    /// Transactions (curator sessions) to run.
    pub transactions: usize,
    /// Pastes per transaction.
    pub pastes_per_txn: usize,
    /// Corrections (field edits) per transaction.
    pub edits_per_txn: usize,
    /// Fresh inserts per transaction.
    pub inserts_per_txn: usize,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            source_entries: 50,
            fields_per_entry: 8,
            transactions: 20,
            pastes_per_txn: 3,
            edits_per_txn: 4,
            inserts_per_txn: 1,
        }
    }
}

/// A simulated curation effort: an upstream source database and a
/// curator's target database built by copy-paste-correct loops.
#[derive(Debug)]
pub struct CurationSim {
    /// The upstream database entries are copied from.
    pub source: CuratedTree,
    /// The curator's database.
    pub target: CuratedTree,
    source_entries: Vec<NodeId>,
    pasted_roots: Vec<NodeId>,
    rng: StdRng,
    cfg: SessionConfig,
    time: u64,
}

impl CurationSim {
    /// Builds the source database and an empty target with the given
    /// provenance-store mode.
    pub fn new(seed: u64, mode: StoreMode, cfg: SessionConfig) -> Self {
        let mut source = CuratedTree::new("upstream", StoreMode::Hereditary);
        let mut source_entries = Vec::new();
        let root = source.tree.root();
        let mut t = source.begin("upstream-team", 0);
        for i in 0..cfg.source_entries {
            let e = t.insert(root, format!("entry{i}"), None).expect("insert");
            for f in 0..cfg.fields_per_entry {
                t.insert(e, format!("f{f}"), Some(Atom::Str(format!("v{i}.{f}"))))
                    .expect("insert");
            }
            source_entries.push(e);
        }
        t.commit();
        CurationSim {
            source,
            target: CuratedTree::new("curated", mode),
            source_entries,
            pasted_roots: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            cfg,
            time: 1,
        }
    }

    /// Runs all configured transactions.
    pub fn run(&mut self) {
        for s in 0..self.cfg.transactions {
            self.run_one(s);
        }
    }

    fn run_one(&mut self, session: usize) {
        let curator = format!("curator{}", session % 3);
        let root = self.target.tree.root();
        self.time += 1;

        // Copy phase: pick entries to paste (clipboards made before the
        // transaction opens, as in real desktop copy-paste).
        let mut clips = Vec::new();
        for _ in 0..self.cfg.pastes_per_txn {
            let i = self.rng.gen_range(0..self.source_entries.len());
            clips.push(self.source.copy(self.source_entries[i]).expect("copy"));
        }

        let mut t = self.target.begin(curator, self.time);
        for clip in &clips {
            let pasted = t.paste(root, clip).expect("paste");
            self.pasted_roots.push(pasted);
        }
        // Correct phase: edit random fields of random pasted entries.
        // Curators iterate: about half the corrections are revised again
        // within the same session (typo fixed, then wording improved) —
        // the pattern transaction squashing collapses.
        for _ in 0..self.cfg.edits_per_txn {
            if self.pasted_roots.is_empty() {
                break;
            }
            let i = self.rng.gen_range(0..self.pasted_roots.len());
            let entry = self.pasted_roots[i];
            if let Ok(children) = t.tree().children(entry).map(<[NodeId]>::to_vec) {
                if !children.is_empty() {
                    let c = children[self.rng.gen_range(0..children.len())];
                    let _ = t.modify(c, Some(Atom::Str(format!("corrected@{}", self.time))));
                    if self.rng.gen_bool(0.5) {
                        let _ = t.modify(c, Some(Atom::Str(format!("revised@{}", self.time))));
                    }
                }
            }
        }
        // Fresh data typed in by the curator — plus the occasional
        // scratch note created and discarded within the session.
        for k in 0..self.cfg.inserts_per_txn {
            let e = t
                .insert(
                    root,
                    format!("note_{session}_{k}"),
                    Some(Atom::Str("obs".into())),
                )
                .expect("insert");
            let _ = e;
        }
        if self.rng.gen_bool(0.4) {
            let scratch = t
                .insert(
                    root,
                    format!("scratch_{session}"),
                    Some(Atom::Str("tmp".into())),
                )
                .expect("insert");
            let _ = t.modify(scratch, Some(Atom::Str("tmp2".into())));
            let _ = t.delete(scratch);
        }
        t.commit();
    }

    /// The pasted entry roots (for provenance queries).
    pub fn pasted_roots(&self) -> &[NodeId] {
        &self.pasted_roots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_curation::provstore::squash;
    use cdb_curation::queries;

    #[test]
    fn sessions_are_deterministic() {
        let mut a = CurationSim::new(11, StoreMode::Hereditary, SessionConfig::default());
        let mut b = CurationSim::new(11, StoreMode::Hereditary, SessionConfig::default());
        a.run();
        b.run();
        assert_eq!(a.target.tree.size(), b.target.tree.size());
        assert_eq!(a.target.prov.record_count(), b.target.prov.record_count());
    }

    #[test]
    fn hereditary_store_is_much_smaller_than_naive() {
        let cfg = SessionConfig::default();
        let mut naive = CurationSim::new(5, StoreMode::Naive, cfg.clone());
        let mut hered = CurationSim::new(5, StoreMode::Hereditary, cfg);
        naive.run();
        hered.run();
        let (n, h) = (
            naive.target.prov.record_count(),
            hered.target.prov.record_count(),
        );
        assert!(
            n > 3 * h,
            "naive {n} records vs hereditary {h}: pasted subtrees have 9 nodes each"
        );
    }

    #[test]
    fn provenance_queries_work_after_simulation() {
        let mut sim = CurationSim::new(8, StoreMode::Hereditary, SessionConfig::default());
        sim.run();
        let some_entry = sim.pasted_roots()[0];
        // Every pasted entry knows it was copied from upstream.
        let chain = queries::how_arrived(&sim.target, some_entry);
        assert!(chain
            .iter()
            .any(|o| matches!(o, cdb_curation::Origin::CopiedFrom { db, .. } if db == "upstream")));
        assert!(queries::when_created(&sim.target, some_entry).is_some());
    }

    #[test]
    fn squashing_shortens_transaction_logs() {
        // Edits in the same txn as the paste fold away under squashing
        // only when they hit nodes created in that txn; measure overall.
        let mut sim = CurationSim::new(
            9,
            StoreMode::Hereditary,
            SessionConfig {
                transactions: 10,
                edits_per_txn: 8,
                ..Default::default()
            },
        );
        sim.run();
        let raw: usize = sim.target.log().iter().map(|t| t.ops.len()).sum();
        let squashed: usize = sim.target.log().iter().map(|t| squash(&t.ops).len()).sum();
        assert!(squashed < raw, "{squashed} < {raw}");
    }
}
