//! The top-level database: named collections.

use crate::collection::Collection;
use std::collections::BTreeMap;
use std::sync::Arc;

/// An in-memory XML database instance.
///
/// Collections are independent (each has its own path dictionary,
/// statistics and indexes). Index ids are unique within a collection:
/// the server's committer gives a new index the collection's highest id
/// plus one.
///
/// Collections sit behind `Arc`, which makes the database **copy-on-
/// write**: `Database::clone` copies only the name → `Arc` map, and a
/// subsequent [`Database::collection_mut`] clones exactly the touched
/// collection (via `Arc::make_mut`), leaving every other collection
/// structurally shared with older clones. That clone is itself shallow
/// — pointers to documents, path entries and index leaves, see
/// [`Collection`] — so a write then copies only the parts it touches.
/// The snapshot-isolated server leans on this: readers hold immutable
/// `Arc<Database>` snapshots while a single committer clones, mutates,
/// and republishes.
#[derive(Debug, Default, Clone)]
pub struct Database {
    collections: BTreeMap<String, Arc<Collection>>,
}

impl Database {
    pub fn new() -> Database {
        Database::default()
    }

    /// Create an empty collection. Returns false if the name is taken.
    pub fn create_collection(&mut self, name: &str) -> bool {
        if self.collections.contains_key(name) {
            return false;
        }
        self.collections
            .insert(name.to_string(), Arc::new(Collection::new(name)));
        true
    }

    /// Adopt a pre-built collection under its own name. Returns false
    /// (and drops nothing) if the name is taken.
    pub fn add_collection(&mut self, collection: Collection) -> bool {
        if self.collections.contains_key(collection.name()) {
            return false;
        }
        self.collections
            .insert(collection.name().to_string(), Arc::new(collection));
        true
    }

    pub fn collection(&self, name: &str) -> Option<&Collection> {
        self.collections.get(name).map(Arc::as_ref)
    }

    /// Exclusive access to a collection. On a copy-on-write clone this
    /// is the point where the touched collection is shallow-copied
    /// (once — later calls in the same clone mutate in place).
    pub fn collection_mut(&mut self, name: &str) -> Option<&mut Collection> {
        self.collections.get_mut(name).map(Arc::make_mut)
    }

    /// Iterate collections in name order.
    pub fn collections(&self) -> impl Iterator<Item = &Collection> {
        self.collections.values().map(Arc::as_ref)
    }

    /// Total pages across all collections (data + indexes).
    pub fn total_pages(&self) -> u64 {
        self.collections().map(Collection::total_pages).sum()
    }

    /// Structural consistency re-check of the cheap cross-structure
    /// invariants. Its caller is the oracle's durability check, on the
    /// database a checkpoint + recovery round trip returns.
    pub fn verify(&self) -> Result<(), String> {
        for (name, coll) in &self.collections {
            if name != coll.name() {
                return Err(format!(
                    "collection registered as '{name}' names itself '{}'",
                    coll.name()
                ));
            }
            let live = coll.documents().count();
            if live != coll.len() {
                return Err(format!(
                    "collection '{name}': len() reports {} but {live} documents are live",
                    coll.len()
                ));
            }
            let mut seen = std::collections::BTreeSet::new();
            for ix in coll.indexes() {
                if !seen.insert(ix.definition().id.0) {
                    return Err(format!(
                        "collection '{name}': duplicate index id {}",
                        ix.definition().id.0
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xia_xml::Document;

    #[test]
    fn create_and_lookup_collections() {
        let mut db = Database::new();
        assert!(db.create_collection("auctions"));
        assert!(!db.create_collection("auctions"), "duplicate rejected");
        assert!(db.collection("auctions").is_some());
        assert!(db.collection("missing").is_none());
    }

    #[test]
    fn total_pages_spans_collections() {
        let mut db = Database::new();
        db.create_collection("a");
        db.create_collection("b");
        db.collection_mut("a")
            .unwrap()
            .insert(Document::parse("<x><y>1</y></x>").unwrap());
        assert!(db.total_pages() >= 2);
    }
}
