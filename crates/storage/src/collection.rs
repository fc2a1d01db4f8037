//! A collection of XML documents with maintained indexes and statistics.

use crate::stats::{CollectionStats, PathId};
use std::sync::Arc;
use xia_index::{DataType, IndexDefinition, IndexId, IndexKey, PhysicalIndex};
use xia_xml::{Document, NodeId};

/// Identifier of a document within a collection. Slots are never reused,
/// so a `DocId` stays valid (but dead) after deletion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u32);

/// What one insert/delete cost in index maintenance — the advisor charges
/// this against index benefit for update workloads.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UpdateReport {
    /// Index entries added or removed across all physical indexes.
    pub index_entries_touched: usize,
    /// Number of physical indexes that had to be maintained.
    pub indexes_touched: usize,
    /// Nodes pattern-matched during maintenance (CPU component).
    pub nodes_matched: usize,
}

/// A named collection of XML documents (the analogue of a table with an
/// XML column), plus its physical indexes and statistics.
///
/// Cloning a collection — the copy-on-write step of the snapshot-isolated
/// server — copies no data: documents are held behind `Arc`, and the
/// statistics and every index's postings are copy-on-write structures
/// whose clone copies pointers (see [`CollectionStats`] and
/// [`xia_index::CowMap`]). A write then copies only the path entries
/// and map leaves it touches ([`Collection::unshared_parts`] counts
/// them); what stays proportional to the collection is one pointer per
/// document slot, per dictionary path and per index leaf.
#[derive(Debug, Clone)]
pub struct Collection {
    name: String,
    docs: Vec<Option<Arc<Document>>>,
    stats: CollectionStats,
    indexes: Vec<PhysicalIndex>,
}

impl Collection {
    pub fn new(name: impl Into<String>) -> Collection {
        Collection {
            name: name.into(),
            docs: Vec::new(),
            stats: CollectionStats::new(),
            indexes: Vec::new(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Insert a document, maintaining statistics and all physical indexes.
    pub fn insert(&mut self, doc: Document) -> (DocId, UpdateReport) {
        self.insert_arc(Arc::new(doc))
    }

    /// [`Collection::insert`] for a document already behind an `Arc`
    /// (e.g. re-applying an op from another snapshot without copying).
    pub fn insert_arc(&mut self, doc: Arc<Document>) -> (DocId, UpdateReport) {
        let id = DocId(self.docs.len() as u32);
        let paths = self.stats.add_document(&doc);
        let mut report = UpdateReport::default();
        for ix in &mut self.indexes {
            sync_paths(ix, &self.stats);
            report.indexes_touched += 1;
            report.nodes_matched += doc.node_count();
        }
        report.index_entries_touched = index_document(&mut self.indexes, id.0, &doc, &paths);
        self.docs.push(Some(doc));
        (id, report)
    }

    /// Delete a document, maintaining statistics and indexes.
    /// Returns `None` if the id is already dead.
    pub fn delete(&mut self, id: DocId) -> Option<UpdateReport> {
        let slot = self.docs.get_mut(id.0 as usize)?;
        let doc = slot.take()?;
        self.stats.remove_document(&doc);
        let mut report = UpdateReport::default();
        for ix in &mut self.indexes {
            report.index_entries_touched += ix.remove_document(id.0);
            report.indexes_touched += 1;
        }
        Some(report)
    }

    /// Fetch a live document.
    pub fn get(&self, id: DocId) -> Option<&Document> {
        self.docs.get(id.0 as usize).and_then(Option::as_deref)
    }

    /// Iterate over live `(id, document)` pairs.
    pub fn documents(&self) -> impl Iterator<Item = (DocId, &Document)> {
        self.docs
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.as_deref().map(|doc| (DocId(i as u32), doc)))
    }

    /// Number of live documents.
    pub fn len(&self) -> usize {
        self.stats.doc_count as usize
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn stats(&self) -> &CollectionStats {
        &self.stats
    }

    /// Build a physical index over the current contents.
    /// Returns the number of entries built.
    pub fn create_index(&mut self, def: IndexDefinition) -> usize {
        let mut ix = [PhysicalIndex::build(def)];
        sync_paths(&mut ix[0], &self.stats);
        let mut entries = 0;
        for (id, doc) in self.documents() {
            entries += index_document(&mut ix, id.0, doc, &self.stats.path_column(doc));
        }
        let [ix] = ix;
        self.indexes.push(ix);
        entries
    }

    /// Drop an index by id. Returns true if it existed.
    pub fn drop_index(&mut self, id: IndexId) -> bool {
        let before = self.indexes.len();
        self.indexes.retain(|ix| ix.definition().id != id);
        self.indexes.len() != before
    }

    /// Drop every physical index.
    pub fn drop_all_indexes(&mut self) {
        self.indexes.clear();
    }

    /// The physical indexes on this collection.
    pub fn indexes(&self) -> &[PhysicalIndex] {
        &self.indexes
    }

    /// Look up a physical index by id.
    pub fn index(&self, id: IndexId) -> Option<&PhysicalIndex> {
        self.indexes.iter().find(|ix| ix.definition().id == id)
    }

    /// Statistics parts and index leaves of `self` that are not shared
    /// with `base` (see [`CollectionStats::unshared_parts`]): what the
    /// copy-on-write step of a commit from `base` has copied. The
    /// document slots, one pointer each, are not counted.
    pub fn unshared_parts(&self, base: &Collection) -> usize {
        let indexes: usize = self
            .indexes
            .iter()
            .map(|ix| ix.unshared_leaves(base.index(ix.definition().id)))
            .sum();
        self.stats.unshared_parts(&base.stats) + indexes
    }

    /// Total pages across data and indexes.
    pub fn total_pages(&self) -> u64 {
        self.stats.data_pages()
            + self
                .indexes
                .iter()
                .map(|ix| ix.page_count() as u64)
                .sum::<u64>()
    }
}

/// Bring `ix`'s path set up to date with the dictionary's new entries.
fn sync_paths(ix: &mut PhysicalIndex, stats: &CollectionStats) {
    let new = &stats.entries()[ix.paths_seen()..];
    if !new.is_empty() {
        ix.extend_paths(new.iter().map(|e| (e.labels.as_slice(), e.is_attribute)));
    }
}

/// Add the entries of document `doc_id` to `indexes`, given its path
/// column: each node goes into every index whose path set holds the
/// node's path. A node's value, and its key of each data type, are
/// computed once for all the indexes that cover it. Returns the number
/// of entries added.
fn index_document(
    indexes: &mut [PhysicalIndex],
    doc_id: u32,
    doc: &Document,
    paths: &[PathId],
) -> usize {
    let mut added = 0;
    for (raw, &path) in paths.iter().enumerate() {
        if path == PathId::NONE {
            continue;
        }
        let node = NodeId::from_u32(raw as u32);
        let mut value = None;
        let (mut varchar, mut double) = (None, None);
        for ix in indexes.iter_mut().filter(|ix| ix.covers(path.0)) {
            let ty = ix.definition().data_type;
            let key = match ty {
                DataType::Varchar => &mut varchar,
                DataType::Double => &mut double,
            }
            .get_or_insert_with(|| {
                let value = value.get_or_insert_with(|| doc.string_value_cow(node));
                IndexKey::of_value(value, ty)
            });
            if let Some(key) = key {
                ix.insert_entry(doc_id, node, key);
                added += 1;
            }
        }
    }
    added
}

#[cfg(test)]
mod tests {
    use super::*;
    use xia_index::{DataType, IndexId};
    use xia_xpath::LinearPath;

    fn doc(xml: &str) -> Document {
        Document::parse(xml).unwrap()
    }

    fn price_index(id: u32) -> IndexDefinition {
        IndexDefinition::new(
            IndexId(id),
            LinearPath::parse("//item/price").unwrap(),
            DataType::Double,
        )
    }

    #[test]
    fn insert_and_get() {
        let mut c = Collection::new("auctions");
        let (id, _) = c.insert(doc("<site><item><price>3</price></item></site>"));
        assert_eq!(c.len(), 1);
        assert!(c.get(id).is_some());
        assert_eq!(
            c.stats()
                .count_matching(&LinearPath::parse("//price").unwrap()),
            1
        );
    }

    #[test]
    fn delete_updates_stats_and_indexes() {
        let mut c = Collection::new("auctions");
        c.create_index(price_index(1));
        let (id, rep) = c.insert(doc("<site><item><price>3</price></item></site>"));
        assert_eq!(rep.index_entries_touched, 1);
        let rep = c.delete(id).unwrap();
        assert_eq!(rep.index_entries_touched, 1);
        assert_eq!(c.len(), 0);
        assert!(c.get(id).is_none());
        assert!(c.delete(id).is_none(), "double delete is a no-op");
        assert_eq!(c.index(IndexId(1)).unwrap().len(), 0);
    }

    #[test]
    fn create_index_over_existing_documents() {
        let mut c = Collection::new("auctions");
        c.insert(doc("<site><item><price>3</price></item></site>"));
        c.insert(doc(
            "<site><item><price>5</price></item><item><price>6</price></item></site>",
        ));
        let entries = c.create_index(price_index(1));
        assert_eq!(entries, 3);
        assert_eq!(c.index(IndexId(1)).unwrap().len(), 3);
    }

    #[test]
    fn insert_maintains_existing_indexes() {
        let mut c = Collection::new("auctions");
        c.create_index(price_index(1));
        let (_, rep) = c.insert(doc("<site><item><price>5</price></item></site>"));
        assert_eq!(rep.indexes_touched, 1);
        assert_eq!(rep.index_entries_touched, 1);
        assert!(rep.nodes_matched > 0);
    }

    #[test]
    fn drop_index() {
        let mut c = Collection::new("x");
        c.create_index(price_index(1));
        assert!(c.drop_index(IndexId(1)));
        assert!(!c.drop_index(IndexId(1)));
        assert!(c.indexes().is_empty());
    }

    #[test]
    fn total_pages_counts_indexes() {
        let mut c = Collection::new("x");
        c.insert(doc("<site><item><price>5</price></item></site>"));
        let base = c.total_pages();
        c.create_index(price_index(1));
        assert!(c.total_pages() > base);
    }

    #[test]
    fn documents_iterates_live_only() {
        let mut c = Collection::new("x");
        let (a, _) = c.insert(doc("<a/>"));
        let (b, _) = c.insert(doc("<b/>"));
        c.delete(a).unwrap();
        let ids: Vec<DocId> = c.documents().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![b]);
    }
}
