//! The repository's end-to-end benchmark.
//!
//! Four curation workloads drive the engine through its public
//! functions only; every layer is measured **from outside**. See
//! `README.md` for the workloads, the metrics and how they interact.

#![forbid(unsafe_code)]

pub mod cli;
pub mod corpus;
pub mod engine;
pub mod exec;
pub mod ladder;
pub mod meter;
pub mod plan;
pub mod report;
pub mod rng;
pub mod runner;
pub mod spans;
pub mod stats;

/// Where the benchmark keeps database directories and span dumps:
/// `benchmark/out`, next to this package's manifest.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
