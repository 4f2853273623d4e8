//! # curated-db
//!
//! A curated-database management system in Rust — a full reproduction of
//! the systems surveyed in Buneman, Cheney, Tan and Vansummeren,
//! *Curated Databases* (PODS 2008).
//!
//! This is the facade crate: it re-exports the integrated engine
//! ([`CuratedDatabase`]) and every substrate. See `DESIGN.md` for the
//! system inventory and `EXPERIMENTS.md` for the paper-example and
//! benchmark index.
//!
//! ```
//! use curated_db::{CuratedDatabase, Atom};
//!
//! let mut db = CuratedDatabase::new("iuphar", "name");
//! db.add_entry("alice", 1, "GABA-A", &[("kind", Atom::Str("receptor".into()))])
//!     .unwrap();
//! let v0 = db.publish("2008-06").unwrap();
//! let citation = db.cite(v0, "GABA-A").unwrap();
//! assert!(citation.to_string().contains("GABA-A"));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use cdb_core::{
    CuratedDatabase, DbError, DbState, Durability, EntryEvent, EntryRegistry, Fate, Note, ShardMap,
    ShardedDb, ShardedSnapshot, SharedDb, Snapshot, DEFAULT_BATCH_WINDOW,
};

pub use cdb_annotation as annotation;
pub use cdb_archive as archive;
pub use cdb_core as core;
pub use cdb_curation as curation;
pub use cdb_model as model;
pub use cdb_obs as obs;
pub use cdb_relalg as relalg;
pub use cdb_schema as schema;
pub use cdb_semiring as semiring;
pub use cdb_server as server;
pub use cdb_storage as storage;
pub use cdb_workload as workload;

pub use cdb_model::{Atom, KeyPath, KeySpec, Value};
