//! # xia-storage
//!
//! The XML database substrate standing in for DB2 pureXML: named
//! collections of XML documents with page-based size accounting, a
//! DB2-style *path dictionary* (one entry per distinct root-to-node label
//! path), per-path value statistics with equi-depth histograms, physical
//! XML pattern indexes maintained under insert/delete, and the update
//! cost accounting the advisor charges against index benefit.
//!
//! The query optimizer (`xia-optimizer`) consumes three things from this
//! layer: cardinalities (`count_matching` over the path dictionary),
//! value selectivities (histograms), and page counts — the same inputs
//! DB2's optimizer reads from its catalog statistics.

pub mod collection;
pub mod database;
pub mod durable;
pub mod persist;
pub mod stats;
pub mod vfs;

pub use collection::{Collection, DocId, UpdateReport};
pub use database::Database;
pub use durable::{
    checkpoint_database, crc32, derived_fingerprint, fingerprint, recover_database, Applied,
    DurableStore, Recovered, WalOp,
};
pub use persist::{
    load_collection, load_collection_with, load_database, load_database_with, save_collection,
    save_collection_with, save_database, save_database_with, PersistError,
};
pub use stats::{CollectionStats, PathId, PathStats, ValueDist};
pub use vfs::{atomic_write, Fault, FaultVfs, OpRecord, RealVfs, Vfs};

/// Simulated page size shared with the index layer.
pub const PAGE_SIZE: usize = xia_index::physical::PAGE_SIZE;
