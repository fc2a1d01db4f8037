//! Physical XML pattern indexes.
//!
//! A B-tree-style ordered map ([`CowMap`]) from typed keys to posting
//! lists of `(document, node)` pairs. One entry exists per node reachable
//! by the index pattern; the key is the node's string value (VARCHAR) or its
//! numeric interpretation (DOUBLE, skipping non-numeric values).
//!
//! The structure also serves purely structural probes (existence of the
//! pattern) by scanning posting lists regardless of key.

use crate::cow_map::CowMap;
use crate::pattern::{DataType, IndexDefinition};
use std::ops::Bound;
use std::sync::Arc;
use xia_xml::{Document, NodeId, NodeKind};

/// Typed index key with a total order (NaNs are never stored).
#[derive(Debug, Clone, PartialEq)]
pub enum IndexKey {
    /// Shared, so the postings map's leaf copies and separators clone
    /// a pointer, not the text.
    Str(Arc<str>),
    Num(f64),
}

impl Eq for IndexKey {}

impl Ord for IndexKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        use IndexKey::*;
        match (self, other) {
            (Str(a), Str(b)) => a.cmp(b),
            (Num(a), Num(b)) => a.partial_cmp(b).expect("NaN keys are rejected on insert"),
            // A single index never mixes key types; order across types is
            // arbitrary but must be total for the ordered map.
            (Num(_), Str(_)) => std::cmp::Ordering::Less,
            (Str(_), Num(_)) => std::cmp::Ordering::Greater,
        }
    }
}

impl PartialOrd for IndexKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One index entry: the node (in a document) holding the indexed value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Posting {
    pub doc: u32,
    pub node: u32,
}

/// Simulated page size; matches the storage layer's accounting.
pub const PAGE_SIZE: usize = 4096;
/// Bytes of fixed per-entry overhead (rid + slot bookkeeping).
const ENTRY_OVERHEAD: usize = 12;

/// A built XML pattern index.
#[derive(Debug, Clone)]
pub struct PhysicalIndex {
    def: IndexDefinition,
    map: CowMap<IndexKey, Vec<Posting>>,
    entries: usize,
    key_bytes: usize,
}

impl PhysicalIndex {
    /// Create an empty index for `def`. Panics if `def` is virtual —
    /// virtual indexes must never be built.
    pub fn build(def: IndexDefinition) -> PhysicalIndex {
        assert!(!def.is_virtual, "cannot build a virtual index");
        PhysicalIndex {
            def,
            map: CowMap::new(),
            entries: 0,
            key_bytes: 0,
        }
    }

    pub fn definition(&self) -> &IndexDefinition {
        &self.def
    }

    /// Index every node of `doc` that the pattern reaches.
    ///
    /// Returns the number of entries added — the storage layer charges
    /// update cost proportional to this.
    pub fn insert_document(&mut self, doc_id: u32, doc: &Document) -> usize {
        let mut added = 0;
        let Some(root) = doc.root_element() else {
            return 0;
        };
        let targets_attr = self.def.pattern.targets_attribute();
        let mut labels: Vec<&str> = Vec::with_capacity(16);
        for node in std::iter::once(root).chain(doc.descendants(root)) {
            let kind = doc.kind(node);
            let is_attr = kind == NodeKind::Attribute;
            if kind == NodeKind::Text || is_attr != targets_attr {
                continue;
            }
            labels.clear();
            collect_labels(doc, node, &mut labels);
            if !self.def.pattern.matches_label_path(&labels, is_attr) {
                continue;
            }
            if let Some(key) = self.key_for(doc, node) {
                self.key_bytes += key_len(&key);
                self.map.upsert(&key, || key.clone()).push(Posting {
                    doc: doc_id,
                    node: node.as_u32(),
                });
                self.entries += 1;
                added += 1;
            }
        }
        added
    }

    fn key_for(&self, doc: &Document, node: NodeId) -> Option<IndexKey> {
        let value = doc.string_value(node);
        match self.def.data_type {
            DataType::Varchar => Some(IndexKey::Str(value.into())),
            DataType::Double => {
                let n = value.trim().parse::<f64>().ok()?;
                (!n.is_nan()).then_some(IndexKey::Num(n))
            }
        }
    }

    /// Remove every entry of `doc_id` (document deletion / replacement).
    /// Returns the number of entries removed.
    pub fn remove_document(&mut self, doc_id: u32) -> usize {
        let mut removed = 0;
        self.map.retain(|key, postings| {
            let before = postings.len();
            postings.retain(|p| p.doc != doc_id);
            let gone = before - postings.len();
            removed += gone;
            self.entries -= gone;
            self.key_bytes -= gone * key_len(key);
            !postings.is_empty()
        });
        removed
    }

    /// Equality probe.
    pub fn probe_eq(&self, key: &IndexKey) -> &[Posting] {
        self.map.get(key).map_or(&[], Vec::as_slice)
    }

    /// Range probe over `(lo, hi)` bounds.
    pub fn probe_range(
        &self,
        lo: Bound<&IndexKey>,
        hi: Bound<&IndexKey>,
    ) -> impl Iterator<Item = Posting> + '_ {
        self.map.range(lo, hi).flat_map(|(_, v)| v.iter().copied())
    }

    /// All postings (structural probe: "every node matching the pattern").
    pub fn scan(&self) -> impl Iterator<Item = Posting> + '_ {
        self.map.values().flat_map(|v| v.iter().copied())
    }

    /// Every key with its posting list, in key order.
    pub fn postings(&self) -> impl Iterator<Item = (&IndexKey, &[Posting])> + '_ {
        self.map.iter().map(|(k, v)| (k, v.as_slice()))
    }

    /// Prefix probe on a VARCHAR index: postings whose string key starts
    /// with `prefix` (serves `starts-with(path, "prefix")` sargably).
    pub fn probe_prefix<'a>(&'a self, prefix: &'a str) -> impl Iterator<Item = Posting> + 'a {
        self.map
            .range(
                Bound::Included(&IndexKey::Str(prefix.into())),
                Bound::Unbounded,
            )
            .take_while(move |(k, _)| match k {
                IndexKey::Str(s) => s.starts_with(prefix),
                IndexKey::Num(_) => false,
            })
            .flat_map(|(_, v)| v.iter().copied())
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries
    }

    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// Number of distinct keys.
    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }

    /// Postings-map leaves not shared with `base` (all of them without
    /// one): what writing to a clone of `base` has copied.
    pub fn unshared_leaves(&self, base: Option<&PhysicalIndex>) -> usize {
        base.map_or(self.map.leaf_count(), |b| self.map.unshared_leaves(&b.map))
    }

    /// Estimated on-disk size in bytes (keys + per-entry overhead).
    pub fn byte_size(&self) -> usize {
        self.key_bytes + self.entries * ENTRY_OVERHEAD
    }

    /// Estimated on-disk size in pages.
    pub fn page_count(&self) -> usize {
        self.byte_size().div_ceil(PAGE_SIZE).max(1)
    }

    /// Height of the simulated B-tree (log over fanout), charged as the
    /// descent cost of each probe.
    pub fn btree_levels(&self) -> usize {
        let leaves = self.page_count() as f64;
        (leaves.log(200.0).ceil() as usize).max(1)
    }
}

fn key_len(key: &IndexKey) -> usize {
    match key {
        IndexKey::Str(s) => s.len().min(64),
        IndexKey::Num(_) => 8,
    }
}

fn collect_labels<'d>(doc: &'d Document, node: NodeId, out: &mut Vec<&'d str>) {
    let mut cur = Some(node);
    while let Some(n) = cur {
        out.push(doc.name(n));
        cur = doc.parent(n);
    }
    out.reverse();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::IndexId;
    use xia_xpath::LinearPath;

    fn doc() -> Document {
        Document::parse(
            r#"<site>
              <item id="i1"><price>10</price><name>mask</name></item>
              <item id="i2"><price>25</price><name>drum</name></item>
              <item id="i3"><price>25</price><name>bowl</name></item>
            </site>"#,
        )
        .unwrap()
    }

    fn idx(pattern: &str, ty: DataType) -> PhysicalIndex {
        let def = IndexDefinition::new(IndexId(1), LinearPath::parse(pattern).unwrap(), ty);
        let mut ix = PhysicalIndex::build(def);
        ix.insert_document(0, &doc());
        ix
    }

    #[test]
    fn indexes_only_matching_nodes() {
        let ix = idx("/site/item/price", DataType::Double);
        assert_eq!(ix.len(), 3);
        assert_eq!(ix.distinct_keys(), 2);
    }

    #[test]
    fn equality_probe() {
        let ix = idx("/site/item/price", DataType::Double);
        assert_eq!(ix.probe_eq(&IndexKey::Num(25.0)).len(), 2);
        assert_eq!(ix.probe_eq(&IndexKey::Num(10.0)).len(), 1);
        assert_eq!(ix.probe_eq(&IndexKey::Num(99.0)).len(), 0);
    }

    #[test]
    fn range_probe() {
        let ix = idx("/site/item/price", DataType::Double);
        let hits: Vec<_> = ix
            .probe_range(Bound::Excluded(&IndexKey::Num(10.0)), Bound::Unbounded)
            .collect();
        assert_eq!(hits.len(), 2);
        let hits: Vec<_> = ix
            .probe_range(Bound::Unbounded, Bound::Included(&IndexKey::Num(10.0)))
            .collect();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn varchar_index_on_names() {
        let ix = idx("//item/name", DataType::Varchar);
        assert_eq!(ix.len(), 3);
        assert_eq!(ix.probe_eq(&IndexKey::Str("drum".into())).len(), 1);
    }

    #[test]
    fn attribute_index() {
        let ix = idx("//item/@id", DataType::Varchar);
        assert_eq!(ix.len(), 3);
        assert_eq!(ix.probe_eq(&IndexKey::Str("i2".into())).len(), 1);
    }

    #[test]
    fn double_index_skips_non_numeric() {
        let ix = idx("//item/name", DataType::Double);
        assert_eq!(ix.len(), 0, "names are not numbers");
    }

    #[test]
    fn wildcard_pattern_indexes_all_leaf_kinds() {
        let ix = idx("/site/item/*", DataType::Varchar);
        // price + name per item.
        assert_eq!(ix.len(), 6);
    }

    #[test]
    fn any_pattern_indexes_every_element() {
        let ix = idx("//*", DataType::Varchar);
        // site + 3 items + 3 prices + 3 names = 10 elements; attributes excluded.
        assert_eq!(ix.len(), 10);
    }

    #[test]
    fn remove_document_clears_entries() {
        let mut ix = idx("/site/item/price", DataType::Double);
        let other = Document::parse("<site><item><price>7</price></item></site>").unwrap();
        ix.insert_document(1, &other);
        assert_eq!(ix.len(), 4);
        let removed = ix.remove_document(0);
        assert_eq!(removed, 3);
        assert_eq!(ix.len(), 1);
        assert_eq!(ix.probe_eq(&IndexKey::Num(7.0)).len(), 1);
        assert_eq!(ix.probe_eq(&IndexKey::Num(25.0)).len(), 0);
    }

    #[test]
    fn size_accounting_tracks_entries() {
        let mut ix = idx("/site/item/price", DataType::Double);
        let size_before = ix.byte_size();
        assert!(size_before > 0);
        ix.remove_document(0);
        assert_eq!(ix.byte_size(), 0);
        assert_eq!(ix.page_count(), 1, "page count is floored at 1");
    }

    #[test]
    #[should_panic(expected = "cannot build a virtual index")]
    fn building_virtual_index_panics() {
        let def = IndexDefinition::virtual_index(
            IndexId(9),
            LinearPath::parse("//*").unwrap(),
            DataType::Varchar,
        );
        let _ = PhysicalIndex::build(def);
    }

    #[test]
    fn insert_returns_added_count() {
        let def = IndexDefinition::new(
            IndexId(2),
            LinearPath::parse("//price").unwrap(),
            DataType::Double,
        );
        let mut ix = PhysicalIndex::build(def);
        assert_eq!(ix.insert_document(5, &doc()), 3);
    }
}
