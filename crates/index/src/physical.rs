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
use xia_xml::NodeId;

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

impl IndexKey {
    /// The key of a node whose string value is `value` in an index of
    /// type `ty`; `None` when a DOUBLE index skips a non-numeric value.
    pub fn of_value(value: &str, ty: DataType) -> Option<IndexKey> {
        match ty {
            DataType::Varchar => Some(IndexKey::Str(value.into())),
            DataType::Double => {
                let n = value.trim().parse::<f64>().ok()?;
                (!n.is_nan()).then_some(IndexKey::Num(n))
            }
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
///
/// Maintenance works from the collection's path dictionary: the index
/// keeps the set of dictionary paths its pattern matches, so a node is
/// indexed iff its path is in the set, a bit test. Each dictionary path
/// is matched against the pattern once, when the index first sees it.
#[derive(Debug, Clone)]
pub struct PhysicalIndex {
    def: IndexDefinition,
    map: CowMap<IndexKey, Vec<Posting>>,
    entries: usize,
    key_bytes: usize,
    /// Bitset over dictionary path ids: the paths the pattern matches.
    /// Behind `Arc`, so a commit's clone shares it until a new
    /// dictionary path matches.
    paths: Arc<Vec<u64>>,
    /// Dictionary entries matched into `paths` so far (a prefix: the
    /// dictionary is append-only).
    paths_seen: usize,
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
            paths: Arc::default(),
            paths_seen: 0,
        }
    }

    pub fn definition(&self) -> &IndexDefinition {
        &self.def
    }

    /// Number of dictionary entries the path set covers: the caller
    /// passes the entries from here on to [`Self::extend_paths`].
    pub fn paths_seen(&self) -> usize {
        self.paths_seen
    }

    /// Match the dictionary entries after the first [`Self::paths_seen`]
    /// — each a label path and whether it ends in an attribute — against
    /// the pattern, adding the ids of those it matches to the set.
    pub fn extend_paths<'a, S: AsRef<str> + 'a>(
        &mut self,
        new_paths: impl IntoIterator<Item = (&'a [S], bool)>,
    ) {
        for (labels, is_attr) in new_paths {
            let id = self.paths_seen;
            self.paths_seen += 1;
            if !self.def.pattern.matches_label_path(labels, is_attr) {
                continue;
            }
            let bits = Arc::make_mut(&mut self.paths);
            if bits.len() <= id / 64 {
                bits.resize(id / 64 + 1, 0);
            }
            bits[id / 64] |= 1 << (id % 64);
        }
    }

    /// Does the pattern match dictionary path `path`?
    #[inline]
    pub fn covers(&self, path: u32) -> bool {
        let i = path as usize;
        self.paths
            .get(i / 64)
            .is_some_and(|&word| word & (1 << (i % 64)) != 0)
    }

    /// Index `node` of document `doc_id` (a node whose path the index
    /// covers) under `key`, its [`IndexKey::of_value`] for this index's
    /// data type.
    pub fn insert_entry(&mut self, doc_id: u32, node: NodeId, key: &IndexKey) {
        self.key_bytes += key_len(key);
        self.map.upsert(key, || key.clone()).push(Posting {
            doc: doc_id,
            node: node.as_u32(),
        });
        self.entries += 1;
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

    /// Postings-map leaves and path set not shared with `base` (all of
    /// them without one): what writing to a clone of `base` has copied.
    pub fn unshared_leaves(&self, base: Option<&PhysicalIndex>) -> usize {
        match base {
            Some(b) => {
                self.map.unshared_leaves(&b.map) + usize::from(!Arc::ptr_eq(&self.paths, &b.paths))
            }
            None => self.map.leaf_count() + 1,
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::IndexId;
    use xia_xml::{Document, NodeKind};
    use xia_xpath::LinearPath;

    /// The reference walk these tests index a standalone document with:
    /// each node's root-to-node labels matched against the pattern. A
    /// collection maintains its indexes from the dictionary's path
    /// column instead.
    trait InsertDocument {
        fn insert_document(&mut self, doc_id: u32, doc: &Document) -> usize;
    }

    impl InsertDocument for PhysicalIndex {
        fn insert_document(&mut self, doc_id: u32, doc: &Document) -> usize {
            let root = doc.root_element().unwrap();
            let mut added = 0;
            for node in std::iter::once(root).chain(doc.descendants(root)) {
                let is_attr = doc.kind(node) == NodeKind::Attribute;
                if doc.kind(node) == NodeKind::Text {
                    continue;
                }
                let mut labels = Vec::new();
                collect_labels(doc, node, &mut labels);
                if !self.def.pattern.matches_label_path(&labels, is_attr) {
                    continue;
                }
                let value = doc.string_value(node);
                if let Some(key) = IndexKey::of_value(&value, self.def.data_type) {
                    self.insert_entry(doc_id, node, &key);
                    added += 1;
                }
            }
            added
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

    #[test]
    fn the_path_set_grows_with_the_dictionary_and_is_shared_until_it_does() {
        let def = IndexDefinition::new(
            IndexId(1),
            LinearPath::parse("//item/@id").unwrap(),
            DataType::Varchar,
        );
        let mut ix = PhysicalIndex::build(def);
        let dict: [(&[&str], bool); 3] = [
            (&["site"], false),
            (&["site", "item"], false),
            (&["site", "item", "id"], true),
        ];
        ix.extend_paths(dict[..2].iter().copied());
        assert_eq!(ix.paths_seen(), 2);
        assert!(!ix.covers(0) && !ix.covers(1) && !ix.covers(2));
        let before = ix.clone();
        ix.extend_paths(dict[2..].iter().copied());
        assert_eq!(ix.paths_seen(), 3);
        assert!(ix.covers(2) && !ix.covers(70));
        assert_eq!(ix.unshared_leaves(Some(&before)), 1, "the set was copied");
        let shared = ix.clone();
        ix.extend_paths([(&["other"][..], false)]);
        assert_eq!(ix.unshared_leaves(Some(&shared)), 0, "no match, no copy");
    }

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
