//! # cdb-model
//!
//! The complex-object data model underlying the `curated-db` system, after
//! the model used throughout Buneman, Cheney, Tan and Vansummeren,
//! *Curated Databases* (PODS 2008), §2.3:
//!
//! > "it is more convenient to work in a domain of complex objects or
//! > nested relations in which values can be freely constructed out of
//! > base values, labeled records `(A:e1, B:e2, ...)` and sets
//! > `{e1, e2, ...}`."
//!
//! The crate provides:
//!
//! * [`Atom`] — base values (integers, strings, booleans, …),
//! * [`Value`] — complex objects built from atoms, records, sets and lists,
//! * [`Path`] / [`Step`] — canonical addresses of parts of a value,
//! * [`Type`] and type checking with *record subtyping* (§6.1 of the paper),
//! * hierarchical [`keys`] ("Keys for XML", used by the archiver and the
//!   provenance store to identify nodes invariantly under updates),
//! * the copy-on-write containers of [`cow`] ([`ChunkVec`], [`BucketMap`])
//!   that let a snapshot of the engine's state share every part a later
//!   write does not touch.
//!
//! Everything here is deliberately free of I/O and of any persistence
//! concern: the substrate crates (`cdb-archive`, `cdb-curation`, …) build
//! those layers on top.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod atom;
pub mod cow;
pub mod error;
pub mod keys;
pub mod path;
pub mod query;
pub mod types;
pub mod value;

pub use atom::Atom;
pub use cow::{BucketMap, ChunkVec};
pub use error::ModelError;
pub use keys::{KeyPath, KeySpec};
pub use path::{Path, Step};
pub use query::PathQuery;
pub use types::{AtomType, Type};
pub use value::{Label, Value};
