//! Shared fixtures for the benchmark harnesses.
//!
//! Six benches reproduce the paper's qualitative claims (E1, E4–E7 and
//! E9 of `EXPERIMENTS.md`); two engineering sweeps remain until the
//! end-to-end benchmark measures their claims (E20 admission knee, E22
//! shard sweep). The engine's own numbers come
//! from `benchmark/` and its per-layer ladder. The fixtures here build
//! the workloads deterministically so runs are comparable. Size tables
//! (bytes, record counts, state counts) are printed once per bench run
//! via [`print_once`]-guarded report functions — Criterion measures the
//! *times*, the printed tables carry the *space* results.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use std::sync::Once;

use cdb_archive::{Archive, DeltaStore, SnapshotStore};
use cdb_model::Value;
use cdb_workload::factbook::{FactbookConfig, FactbookSim};
use cdb_workload::uniprot::{UniprotConfig, UniprotSim};

/// Runs `f` exactly once per process (for printing report tables from
/// benches without spamming every iteration).
pub fn print_once(once: &'static Once, f: impl FnOnce()) {
    once.call_once(f);
}

/// Builds `versions` successive editions of the synthetic Factbook.
pub fn factbook_versions(seed: u64, countries: usize, versions: usize) -> Vec<Value> {
    let mut sim = FactbookSim::new(
        seed,
        FactbookConfig {
            countries,
            revision_fraction: 0.3,
            fission_probability: 0.1,
        },
    );
    let mut out = Vec::with_capacity(versions);
    for _ in 0..versions {
        out.push(sim.snapshot());
        sim.advance();
    }
    out
}

/// Builds `releases` successive releases of the synthetic UniProt.
pub fn uniprot_releases(seed: u64, entries: usize, releases: usize) -> Vec<Value> {
    let mut sim = UniprotSim::new(
        seed,
        UniprotConfig {
            initial_entries: entries,
            ..Default::default()
        },
    );
    let mut out = Vec::with_capacity(releases);
    for _ in 0..releases {
        out.push(sim.snapshot());
        sim.advance();
    }
    out
}

/// Loads a version sequence into all three stores, returning
/// `(archive, snapshots, deltas)`.
pub fn build_stores(
    spec: cdb_model::KeySpec,
    versions: &[Value],
) -> (Archive, SnapshotStore, DeltaStore) {
    let mut archive = Archive::new("bench", spec.clone());
    let mut snaps = SnapshotStore::new();
    let mut deltas = DeltaStore::new(spec);
    for (i, v) in versions.iter().enumerate() {
        let label = format!("v{i}");
        archive.add_version(v, &label).expect("archive add");
        snaps.add_version(v, &label);
        deltas.add_version(v, &label).expect("delta add");
    }
    (archive, snaps, deltas)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cdb_workload::factbook::FactbookSim;

    #[test]
    fn fixtures_build_consistent_stores() {
        let versions = factbook_versions(1, 10, 5);
        let (archive, snaps, deltas) = build_stores(FactbookSim::key_spec(), &versions);
        for v in 0..5u32 {
            let a = archive.retrieve(v).unwrap();
            assert_eq!(a, snaps.retrieve(v).unwrap());
            assert_eq!(a, deltas.retrieve(v).unwrap());
        }
    }

    #[test]
    fn uniprot_fixture_is_keyed() {
        let versions = uniprot_releases(2, 20, 3);
        let spec = cdb_workload::uniprot::UniprotSim::key_spec();
        for v in &versions {
            assert!(spec.keyed_nodes(v).is_ok());
        }
    }
}
