//! The optimizer's catalog view: a collection's real indexes overlaid
//! with session-scoped virtual indexes.
//!
//! This is the paper's central mechanism: virtual indexes "are added to
//! the database catalog and to all the internal data structures of the
//! optimizer, but they are not physically created on disk and no data is
//! inserted into them". Index matching and costing treat both kinds
//! identically; only the executor insists on physical indexes.

use xia_index::{DataType, IndexDefinition};
use xia_storage::{Collection, CollectionStats, PathId};
use xia_xpath::LinearPath;

/// Per-index statistics the cost model needs, sourced either from the
/// physical structure (real indexes) or from collection statistics
/// (virtual indexes).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IndexStats {
    pub entries: u64,
    pub pages: u64,
    pub btree_levels: u64,
    pub distinct_keys: u64,
}

/// The catalog the optimizer resolves indexes against.
pub struct Catalog<'a> {
    collection: &'a Collection,
    virtuals: Vec<IndexDefinition>,
    /// When set, real indexes are hidden — Evaluate Indexes mode costs a
    /// configuration exactly as hypothesized, nothing more.
    suppress_real: bool,
}

impl<'a> Catalog<'a> {
    /// A catalog exposing only the collection's real (physical) indexes.
    pub fn real_only(collection: &'a Collection) -> Catalog<'a> {
        Catalog {
            collection,
            virtuals: Vec::new(),
            suppress_real: false,
        }
    }

    /// A catalog with additional virtual indexes overlaid.
    pub fn with_virtuals(
        collection: &'a Collection,
        virtuals: Vec<IndexDefinition>,
    ) -> Catalog<'a> {
        let virtuals = virtuals
            .into_iter()
            .map(|mut def| {
                def.is_virtual = true;
                def
            })
            .collect();
        Catalog {
            collection,
            virtuals,
            suppress_real: false,
        }
    }

    /// A catalog containing *only* virtual indexes (no real ones) — used
    /// by Evaluate Indexes so the evaluated configuration is exactly the
    /// hypothesized one.
    pub fn virtual_only(collection: &'a Collection, virtuals: Vec<IndexDefinition>) -> Catalog<'a> {
        let mut c = Catalog::with_virtuals(collection, virtuals);
        c.suppress_real = true;
        c
    }

    pub fn collection(&self) -> &'a Collection {
        self.collection
    }

    /// Iterate every index definition visible to the optimizer.
    pub fn indexes(&self) -> impl Iterator<Item = &IndexDefinition> {
        let real = self
            .collection
            .indexes()
            .iter()
            .map(|ix| ix.definition())
            .filter(move |_| !self.suppress_real);
        real.chain(self.virtuals.iter())
    }

    /// Statistics for an index (actual for physical, estimated for virtual).
    pub fn index_stats(&self, def: &IndexDefinition) -> IndexStats {
        if !def.is_virtual {
            if let Some(ix) = self.collection.index(def.id) {
                return IndexStats {
                    entries: ix.len() as u64,
                    pages: ix.page_count() as u64,
                    btree_levels: ix.btree_levels() as u64,
                    distinct_keys: ix.distinct_keys() as u64,
                };
            }
        }
        self.estimate_stats(&def.pattern, def.data_type)
    }

    /// Statistics-based estimate for a hypothetical index on `pattern`.
    pub fn estimate_stats(&self, pattern: &LinearPath, ty: DataType) -> IndexStats {
        let stats = self.collection.stats();
        IndexStats::estimate(stats, &stats.paths_matching(pattern), ty)
    }
}

impl IndexStats {
    /// Estimate for a hypothetical index of type `ty` over the dictionary
    /// paths `paths` (its pattern's `paths_matching`).
    pub fn estimate(stats: &CollectionStats, paths: &[PathId], ty: DataType) -> IndexStats {
        let entries = stats.estimated_index_entries_in(paths, ty);
        let pages = stats.estimated_index_pages_in(paths, ty);
        IndexStats {
            entries,
            pages,
            btree_levels: ((pages as f64).log(200.0).ceil() as u64).max(1),
            distinct_keys: stats.distinct_matching_in(paths, ty),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xia_index::IndexId;
    use xia_xml::Document;

    fn collection() -> Collection {
        let mut c = Collection::new("t");
        c.insert(Document::parse("<site><item><price>5</price></item></site>").unwrap());
        c.insert(Document::parse("<site><item><price>9</price></item></site>").unwrap());
        c.create_index(IndexDefinition::new(
            IndexId(1),
            LinearPath::parse("//price").unwrap(),
            DataType::Double,
        ));
        c
    }

    #[test]
    fn real_only_sees_physical_indexes() {
        let c = collection();
        let cat = Catalog::real_only(&c);
        let defs: Vec<_> = cat.indexes().collect();
        assert_eq!(defs.len(), 1);
        assert!(!defs[0].is_virtual);
        let stats = cat.index_stats(defs[0]);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn virtual_overlay_is_visible_and_estimated() {
        let c = collection();
        let vdef = IndexDefinition::new(
            IndexId(99),
            LinearPath::parse("//item").unwrap(),
            DataType::Varchar,
        );
        let cat = Catalog::with_virtuals(&c, vec![vdef]);
        let defs: Vec<_> = cat.indexes().collect();
        assert_eq!(defs.len(), 2);
        let v = defs.iter().find(|d| d.id == IndexId(99)).unwrap();
        assert!(v.is_virtual, "overlay forces virtual flag");
        let stats = cat.index_stats(v);
        assert_eq!(stats.entries, 2, "estimated from path dictionary");
    }

    #[test]
    fn virtual_only_hides_real_indexes() {
        let c = collection();
        let cat = Catalog::virtual_only(&c, vec![]);
        assert_eq!(cat.indexes().count(), 0);
    }
}
