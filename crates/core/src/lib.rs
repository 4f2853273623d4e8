//! # cdb-core
//!
//! The integrated curated-database engine — the system the paper's §1
//! describes and §7 calls for: one store in which *"the connections
//! between annotation, provenance, updates, archiving, and evolution"*
//! actually connect.
//!
//! The engine is one value and some plumbing. The value is a
//! [`DbState`]: everything a commit changes, a snapshot freezes, a 2PC
//! abort restores and an open rebuilds, with every read and the
//! in-memory half of every curation operation. A [`CuratedDatabase`]
//! is a `DbState` plus optional [`durable`] plumbing; a [`Snapshot`]
//! is an `Arc<DbState>`; [`SharedDb`] and [`ShardedDb`] add locking,
//! snapshot publication, routing and 2PC around the same calls.
//!
//! A [`DbState`] is:
//!
//! * a semistructured working tree curated through transactions with
//!   automatic provenance recording (`cdb-curation`),
//! * an entry [`lifecycle`] registry tracking fission/fusion with
//!   retired identifiers (§6.2's "What happened to X?"),
//! * superimposed [`Note`] annotations (DAS-style, §2), which propagate
//!   into relational [`views`] and back (reverse propagation, §2.2),
//! * a fat-node [`cdb_archive::Archive`] that every [`publish`] merges
//!   into, enabling temporal queries and versioned [`citation`]s (§5),
//! * schema inference over the published versions (`cdb-schema`, §6).
//!
//! [`publish`]: CuratedDatabase::publish
//! [`citation`]: cdb_archive::Citation

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod db;
pub mod durable;
pub mod indexes;
pub mod lifecycle;
pub mod paged;
pub mod sharded;
pub mod shared;
pub mod views;

pub use db::{CuratedDatabase, DbError, DbState, Note};
pub use durable::{CheckpointStats, Durability};
pub use indexes::{FieldIndex, FieldIndexes};
pub use lifecycle::{EntryEvent, EntryRegistry, Fate};
pub use sharded::{ShardMap, ShardedDb, ShardedSnapshot};
pub use shared::{SharedDb, Snapshot, DEFAULT_BATCH_WINDOW};

// Re-export the substrate crates under one roof, so downstream users
// depend on `cdb-core` alone.
pub use cdb_annotation as annotation;
pub use cdb_archive as archive;
pub use cdb_curation as curation;
pub use cdb_model as model;
pub use cdb_relalg as relalg;
pub use cdb_schema as schema;
pub use cdb_semiring as semiring;
pub use cdb_storage as storage;
