//! Path dictionary and per-path value statistics.
//!
//! DB2 pureXML keeps a *path table*: one row per distinct root-to-node
//! label path in a collection. We reproduce that as [`CollectionStats`]:
//! each distinct label path gets a [`PathId`] and a [`PathStats`] record
//! with node counts, numeric-parse counts, value length sums, and a value
//! distribution ([`ValueDist`]) that is exact up to a cap and collapses to
//! equi-depth histograms beyond it.
//!
//! Everything the optimizer asks ("how many nodes match pattern P", "what
//! fraction of //item/price values exceed 100", "how many bytes would an
//! index on P occupy") is answered here by matching the pattern against
//! dictionary paths and aggregating.

use std::collections::HashMap;
use std::ops::Bound;
use std::sync::Arc;
use xia_index::{CowMap, DataType};
use xia_xml::{Document, NodeId, NodeKind};
use xia_xpath::{CmpOp, LinearPath, Literal};

/// Identifier of a distinct label path within one collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PathId(pub u32);

/// Distinct values kept exactly until this cap, then collapsed.
const EXACT_CAP: usize = 8192;
/// Number of equi-depth buckets after collapsing.
const HIST_BUCKETS: usize = 64;

/// Total-ordered f64 wrapper (NaNs are filtered out before insertion).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrdF64(pub f64);

impl Eq for OrdF64 {}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("NaN filtered on insert")
    }
}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Equi-depth histogram over an ordered domain `T`.
#[derive(Debug, Clone)]
pub struct EquiDepth<T> {
    /// Upper bounds of each bucket (ascending); the last equals the max.
    bounds: Vec<T>,
    /// Occurrences per bucket.
    counts: Vec<u64>,
    total: u64,
    distinct: u64,
}

impl<T: Ord + Clone> EquiDepth<T> {
    fn from_exact(map: &CowMap<T, u32>) -> EquiDepth<T> {
        let total: u64 = map.values().map(|&c| u64::from(c)).sum();
        let distinct = map.len() as u64;
        let per_bucket = (total / HIST_BUCKETS as u64).max(1);
        let mut bounds = Vec::with_capacity(HIST_BUCKETS);
        let mut counts = Vec::with_capacity(HIST_BUCKETS);
        let mut acc = 0u64;
        for (value, &c) in map.iter() {
            acc += u64::from(c);
            if acc >= per_bucket {
                bounds.push(value.clone());
                counts.push(acc);
                acc = 0;
            }
        }
        if acc > 0 {
            if let Some(last) = map.last_key() {
                bounds.push(last.clone());
                counts.push(acc);
            }
        }
        EquiDepth {
            bounds,
            counts,
            total,
            distinct,
        }
    }

    fn add(&mut self, value: &T) {
        // Find the first bucket whose bound >= value; overflow goes to the
        // last bucket (and stretches its bound).
        let idx = self.bounds.partition_point(|b| b < value);
        let idx = idx.min(self.counts.len().saturating_sub(1));
        if self.counts.is_empty() {
            self.bounds.push(value.clone());
            self.counts.push(0);
        }
        if let Some(last) = self.bounds.last_mut() {
            if *last < *value {
                *last = value.clone();
            }
        }
        self.counts[idx] += 1;
        self.total += 1;
    }

    fn remove(&mut self, value: &T) {
        let idx = self.bounds.partition_point(|b| b < value);
        let idx = idx.min(self.counts.len().saturating_sub(1));
        if !self.counts.is_empty() && self.counts[idx] > 0 {
            self.counts[idx] -= 1;
            self.total -= 1;
        }
    }

    /// Fraction of occurrences `op literal` selects.
    fn selectivity(&self, op: CmpOp, value: &T) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let total = self.total as f64;
        match op {
            CmpOp::Eq => (total / self.distinct.max(1) as f64 / total).min(1.0),
            CmpOp::Ne => 1.0 - (1.0 / self.distinct.max(1) as f64),
            CmpOp::Lt | CmpOp::Le => {
                let below: u64 = self
                    .bounds
                    .iter()
                    .zip(&self.counts)
                    .take_while(|(b, _)| *b < value)
                    .map(|(_, &c)| c)
                    .sum();
                // Half the boundary bucket, a standard interpolation.
                let boundary = self
                    .bounds
                    .iter()
                    .position(|b| b >= value)
                    .map_or(0, |i| self.counts[i] / 2);
                ((below + boundary) as f64 / total).min(1.0)
            }
            CmpOp::Gt | CmpOp::Ge => 1.0 - self.selectivity(CmpOp::Lt, value),
            // Histogram boundaries cannot answer substring questions; use
            // the standard constant guesses (prefix match acts like a
            // narrow range, substring like a broad one).
            CmpOp::StartsWith => (5.0 / self.distinct.max(1) as f64).min(1.0),
            CmpOp::Contains => 0.1,
        }
    }
}

/// Value distribution of one path: exact while small, histogram beyond.
#[derive(Debug, Clone)]
pub enum ValueDist {
    Exact {
        strings: CowMap<Arc<str>, u32>,
        numbers: CowMap<OrdF64, u32>,
    },
    Collapsed {
        strings: EquiDepth<Arc<str>>,
        numbers: EquiDepth<OrdF64>,
    },
}

impl Default for ValueDist {
    fn default() -> Self {
        ValueDist::Exact {
            strings: CowMap::new(),
            numbers: CowMap::new(),
        }
    }
}

impl ValueDist {
    fn add(&mut self, value: &str) {
        let num = value.trim().parse::<f64>().ok().filter(|n| !n.is_nan());
        match self {
            ValueDist::Exact { strings, numbers } => {
                *strings.upsert(value, || value.into()) += 1;
                if let Some(n) = num {
                    *numbers.upsert(&OrdF64(n), || OrdF64(n)) += 1;
                }
                if strings.len() > EXACT_CAP {
                    *self = ValueDist::Collapsed {
                        strings: EquiDepth::from_exact(strings),
                        numbers: EquiDepth::from_exact(numbers),
                    };
                }
            }
            ValueDist::Collapsed { strings, numbers } => {
                strings.add(&Arc::from(value));
                if let Some(n) = num {
                    numbers.add(&OrdF64(n));
                }
            }
        }
    }

    fn remove(&mut self, value: &str) {
        let num = value.trim().parse::<f64>().ok().filter(|n| !n.is_nan());
        match self {
            ValueDist::Exact { strings, numbers } => {
                strings.update_or_remove(value, decrement);
                if let Some(n) = num {
                    numbers.update_or_remove(&OrdF64(n), decrement);
                }
            }
            ValueDist::Collapsed { strings, numbers } => {
                strings.remove(&Arc::from(value));
                if let Some(n) = num {
                    numbers.remove(&OrdF64(n));
                }
            }
        }
    }

    /// Distinct value count (exact or histogram-tracked).
    pub fn distinct(&self, ty: DataType) -> u64 {
        match (self, ty) {
            (ValueDist::Exact { strings, .. }, DataType::Varchar) => strings.len() as u64,
            (ValueDist::Exact { numbers, .. }, DataType::Double) => numbers.len() as u64,
            (ValueDist::Collapsed { strings, .. }, DataType::Varchar) => strings.distinct,
            (ValueDist::Collapsed { numbers, .. }, DataType::Double) => numbers.distinct,
        }
    }

    /// Value-map leaves of `self` not shared with `base`.
    fn unshared_leaves(&self, base: &ValueDist) -> usize {
        match (self, base) {
            (
                ValueDist::Exact { strings, numbers },
                ValueDist::Exact {
                    strings: base_strings,
                    numbers: base_numbers,
                },
            ) => strings.unshared_leaves(base_strings) + numbers.unshared_leaves(base_numbers),
            (ValueDist::Exact { strings, numbers }, _) => {
                strings.leaf_count() + numbers.leaf_count()
            }
            (ValueDist::Collapsed { .. }, _) => 0,
        }
    }

    /// Number of numerically-typed occurrences.
    pub fn numeric_total(&self) -> u64 {
        match self {
            ValueDist::Exact { numbers, .. } => numbers.values().map(|&c| u64::from(c)).sum(),
            ValueDist::Collapsed { numbers, .. } => numbers.total,
        }
    }

    /// Selectivity of `op literal` among this path's occurrences.
    pub fn selectivity(&self, op: CmpOp, lit: &Literal, total: u64) -> f64 {
        if total == 0 {
            return 0.0;
        }
        // String functions are only defined on string literals; a numeric
        // literal can only arise from programmatic (non-parser) queries —
        // treat it as selecting nothing rather than panicking downstream.
        if op.is_string_function() && matches!(lit, Literal::Num(_)) {
            return 0.0;
        }
        match (self, lit) {
            (ValueDist::Exact { numbers, .. }, Literal::Num(v)) => {
                exact_selectivity(numbers, op, &OrdF64(*v), total)
            }
            (ValueDist::Exact { strings, .. }, Literal::Str(s)) => {
                if op == CmpOp::StartsWith {
                    // Exact prefix count over the ordered value map.
                    let hits: u64 = strings
                        .range(Bound::Included(s.as_str()), Bound::Unbounded)
                        .take_while(|(k, _)| k.starts_with(s.as_str()))
                        .map(|(_, &c)| u64::from(c))
                        .sum();
                    return (hits as f64 / total as f64).min(1.0);
                }
                if op == CmpOp::Contains {
                    let hits: u64 = strings
                        .iter()
                        .filter(|(k, _)| k.contains(s.as_str()))
                        .map(|(_, &c)| u64::from(c))
                        .sum();
                    return (hits as f64 / total as f64).min(1.0);
                }
                exact_selectivity(strings, op, s.as_str(), total)
            }
            (ValueDist::Collapsed { numbers, .. }, Literal::Num(v)) => {
                numbers.selectivity(op, &OrdF64(*v))
            }
            (ValueDist::Collapsed { strings, .. }, Literal::Str(s)) => {
                strings.selectivity(op, &Arc::from(s.as_str()))
            }
        }
    }
}

/// Count decrement for a value map: keep the entry while it is positive.
fn decrement(c: &mut u32) -> bool {
    *c -= 1;
    *c > 0
}

fn exact_selectivity<K, Q>(map: &CowMap<K, u32>, op: CmpOp, v: &Q, total: u64) -> f64
where
    K: Ord + Clone + std::borrow::Borrow<Q>,
    Q: Ord + ?Sized,
{
    let total = total as f64;
    let sum = |lo, hi| -> u64 { map.range(lo, hi).map(|(_, &c)| u64::from(c)).sum() };
    let count: u64 = match op {
        CmpOp::StartsWith | CmpOp::Contains => {
            unreachable!("string functions are handled before exact_selectivity")
        }
        CmpOp::Eq => map.get(v).copied().map_or(0, u64::from),
        CmpOp::Ne => {
            let eq = map.get(v).copied().map_or(0, u64::from);
            map.values().map(|&c| u64::from(c)).sum::<u64>() - eq
        }
        CmpOp::Lt => sum(Bound::Unbounded, Bound::Excluded(v)),
        CmpOp::Le => sum(Bound::Unbounded, Bound::Included(v)),
        CmpOp::Gt => sum(Bound::Excluded(v), Bound::Unbounded),
        CmpOp::Ge => sum(Bound::Included(v), Bound::Unbounded),
    };
    (count as f64 / total).min(1.0)
}

/// Statistics of one distinct label path.
#[derive(Debug, Clone, Default)]
pub struct PathStats {
    /// Total node occurrences of this path.
    pub count: u64,
    /// Sum of value byte lengths (for index size estimation).
    pub byte_len_sum: u64,
    /// Value distribution.
    pub values: ValueDist,
}

/// One dictionary entry: the concrete label path itself plus stats.
#[derive(Debug, Clone)]
pub struct PathEntry {
    pub labels: Vec<Box<str>>,
    pub is_attribute: bool,
    pub stats: PathStats,
}

/// Dictionary key: the label path plus its attribute-leaf flag.
type PathKey = (Box<[Box<str>]>, bool);

/// The path dictionary + statistics for one collection.
///
/// Cloning is copy-on-write at two levels: each path's entry and the
/// dictionary sit behind `Arc`, and each exact value map is a
/// [`CowMap`]. A commit that adds a document copies only the entries of
/// the paths the document reaches and, inside them, only the map leaves
/// its values land in.
#[derive(Debug, Default, Clone)]
pub struct CollectionStats {
    entries: Vec<Arc<PathEntry>>,
    lookup: Arc<HashMap<PathKey, PathId>>,
    /// Total element+attribute nodes across documents.
    pub total_nodes: u64,
    /// Total document bytes (page accounting input).
    pub total_bytes: u64,
    /// Number of live documents.
    pub doc_count: u64,
}

impl CollectionStats {
    pub fn new() -> CollectionStats {
        CollectionStats::default()
    }

    /// Register a document's nodes into the dictionary.
    pub fn add_document(&mut self, doc: &Document) {
        self.apply_document(doc, true);
        self.total_bytes += doc.byte_size() as u64;
        self.doc_count += 1;
    }

    /// Remove a document's contribution (document deletion).
    pub fn remove_document(&mut self, doc: &Document) {
        self.apply_document(doc, false);
        self.total_bytes = self.total_bytes.saturating_sub(doc.byte_size() as u64);
        self.doc_count = self.doc_count.saturating_sub(1);
    }

    fn apply_document(&mut self, doc: &Document, add: bool) {
        let Some(root) = doc.root_element() else {
            return;
        };
        // Reusable label stack mirroring the current ancestor chain.
        let mut stack: Vec<Box<str>> = Vec::new();
        self.visit(doc, root, &mut stack, add);
    }

    fn visit(&mut self, doc: &Document, node: NodeId, stack: &mut Vec<Box<str>>, add: bool) {
        stack.push(doc.name(node).into());
        let value = doc.string_value(node);
        self.touch(stack, doc.kind(node) == NodeKind::Attribute, &value, add);
        if doc.kind(node) == NodeKind::Element {
            for a in doc.attributes(node) {
                stack.push(doc.name(a).into());
                let v = doc.value(a).unwrap_or("");
                self.touch(stack, true, v, add);
                stack.pop();
            }
            for c in doc.child_elements(node) {
                self.visit(doc, c, stack, add);
            }
        }
        stack.pop();
    }

    fn touch(&mut self, labels: &[Box<str>], is_attr: bool, value: &str, add: bool) {
        let key = (labels.to_vec().into_boxed_slice(), is_attr);
        let id = match self.lookup.get(&key) {
            Some(&id) => id,
            None => {
                let id = PathId(self.entries.len() as u32);
                self.entries.push(Arc::new(PathEntry {
                    labels: labels.to_vec(),
                    is_attribute: is_attr,
                    stats: PathStats::default(),
                }));
                Arc::make_mut(&mut self.lookup).insert(key, id);
                id
            }
        };
        let stats = &mut Arc::make_mut(&mut self.entries[id.0 as usize]).stats;
        if add {
            stats.count += 1;
            stats.byte_len_sum += value.len() as u64;
            stats.values.add(value);
            self.total_nodes += 1;
        } else {
            stats.count = stats.count.saturating_sub(1);
            stats.byte_len_sum = stats.byte_len_sum.saturating_sub(value.len() as u64);
            stats.values.remove(value);
            self.total_nodes = self.total_nodes.saturating_sub(1);
        }
    }

    /// Number of distinct label paths.
    pub fn path_count(&self) -> usize {
        self.entries.len()
    }

    /// Total element/attribute nodes across all documents (the cost of
    /// one full navigational traversal).
    pub fn total_nodes(&self) -> u64 {
        self.total_nodes
    }

    /// All entries (for inspection/demo output).
    pub fn entries(&self) -> &[Arc<PathEntry>] {
        &self.entries
    }

    /// Path entries, dictionary and value-map leaves of `self` that are
    /// not the same allocation as `base`'s: what writing to a clone of
    /// `base` has copied.
    pub fn unshared_parts(&self, base: &CollectionStats) -> usize {
        let empty = ValueDist::default();
        let paths: usize = self
            .entries
            .iter()
            .enumerate()
            .map(|(i, e)| match base.entries.get(i) {
                Some(b) if Arc::ptr_eq(e, b) => 0,
                b => {
                    1 + e
                        .stats
                        .values
                        .unshared_leaves(b.map_or(&empty, |b| &b.stats.values))
                }
            })
            .sum();
        paths + usize::from(!Arc::ptr_eq(&self.lookup, &base.lookup))
    }

    /// Append a canonical rendering of every statistic: totals, then per
    /// path its count, byte sum and exact value maps or histograms.
    pub(crate) fn write_digest(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = writeln!(
            out,
            "stats nodes {} bytes {} docs {} paths {}",
            self.total_nodes,
            self.total_bytes,
            self.doc_count,
            self.entries.len()
        );
        for e in &self.entries {
            let s = &e.stats;
            let _ = writeln!(
                out,
                "path {:?} attr {} count {} bytes {}",
                e.labels, e.is_attribute, s.count, s.byte_len_sum
            );
            match &s.values {
                ValueDist::Exact { strings, numbers } => {
                    for (k, c) in strings.iter() {
                        let _ = writeln!(out, "  s {k:?} {c}");
                    }
                    for (k, c) in numbers.iter() {
                        let _ = writeln!(out, "  n {:?} {c}", k.0);
                    }
                }
                ValueDist::Collapsed { strings, numbers } => {
                    let _ = writeln!(out, "  hs {strings:?}");
                    let _ = writeln!(out, "  hn {numbers:?}");
                }
            }
        }
    }

    /// Data pages occupied by the collection's documents.
    pub fn data_pages(&self) -> u64 {
        (self.total_bytes / crate::PAGE_SIZE as u64).max(1)
    }

    /// Dictionary paths matched by a pattern.
    pub fn paths_matching(&self, pattern: &LinearPath) -> Vec<PathId> {
        self.entries
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                let labels: Vec<&str> = e.labels.iter().map(|l| &**l).collect();
                pattern.matches_label_path(&labels, e.is_attribute)
            })
            .map(|(i, _)| PathId(i as u32))
            .collect()
    }

    /// Number of nodes a pattern reaches.
    pub fn count_matching(&self, pattern: &LinearPath) -> u64 {
        self.paths_matching(pattern)
            .iter()
            .map(|&p| self.entries[p.0 as usize].stats.count)
            .sum()
    }

    /// Number of entries a (virtual) index on `pattern` would hold —
    /// DOUBLE indexes skip non-numeric values.
    pub fn estimated_index_entries(&self, pattern: &LinearPath, ty: DataType) -> u64 {
        self.paths_matching(pattern)
            .iter()
            .map(|&p| {
                let s = &self.entries[p.0 as usize].stats;
                match ty {
                    DataType::Varchar => s.count,
                    DataType::Double => s.values.numeric_total(),
                }
            })
            .sum()
    }

    /// Estimated byte size of a (virtual) index on `pattern`, using the
    /// same per-entry model as the physical index layer so virtual and
    /// actual sizes are comparable.
    pub fn estimated_index_bytes(&self, pattern: &LinearPath, ty: DataType) -> u64 {
        const ENTRY_OVERHEAD: u64 = 12;
        self.paths_matching(pattern)
            .iter()
            .map(|&p| {
                let s = &self.entries[p.0 as usize].stats;
                match ty {
                    DataType::Varchar => {
                        let avg = s.byte_len_sum.checked_div(s.count).unwrap_or(0);
                        s.count * (avg.min(64) + ENTRY_OVERHEAD)
                    }
                    DataType::Double => s.values.numeric_total() * (8 + ENTRY_OVERHEAD),
                }
            })
            .sum()
    }

    /// Estimated pages of a (virtual) index on `pattern`.
    pub fn estimated_index_pages(&self, pattern: &LinearPath, ty: DataType) -> u64 {
        self.estimated_index_bytes(pattern, ty)
            .div_ceil(crate::PAGE_SIZE as u64)
            .max(1)
    }

    /// Selectivity of `op literal` among nodes matching `pattern`
    /// (occurrence-weighted across matching dictionary paths).
    pub fn selectivity(&self, pattern: &LinearPath, op: CmpOp, lit: &Literal) -> f64 {
        let paths = self.paths_matching(pattern);
        let total: u64 = paths
            .iter()
            .map(|&p| self.entries[p.0 as usize].stats.count)
            .sum();
        if total == 0 {
            return 0.0;
        }
        let mut selected = 0.0;
        for &p in &paths {
            let s = &self.entries[p.0 as usize].stats;
            selected += s.values.selectivity(op, lit, s.count) * s.count as f64;
        }
        (selected / total as f64).clamp(0.0, 1.0)
    }

    /// Distinct values among nodes matching `pattern` (summed across
    /// paths; an upper bound since paths may share values).
    pub fn distinct_matching(&self, pattern: &LinearPath, ty: DataType) -> u64 {
        self.paths_matching(pattern)
            .iter()
            .map(|&p| self.entries[p.0 as usize].stats.values.distinct(ty))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xia_xml::Document;

    fn stats() -> CollectionStats {
        let mut s = CollectionStats::new();
        for xml in [
            r#"<site><item id="i1"><price>10</price><name>mask</name></item></site>"#,
            r#"<site><item id="i2"><price>25</price><name>drum</name></item><item id="i3"><price>40</price></item></site>"#,
        ] {
            s.add_document(&Document::parse(xml).unwrap());
        }
        s
    }

    fn lp(s: &str) -> LinearPath {
        LinearPath::parse(s).unwrap()
    }

    #[test]
    fn dictionary_has_one_entry_per_distinct_path() {
        let s = stats();
        // site, site/item, site/item/@id, site/item/price, site/item/name
        assert_eq!(s.path_count(), 5);
        assert_eq!(s.doc_count, 2);
    }

    #[test]
    fn count_matching_concrete_and_general() {
        let s = stats();
        assert_eq!(s.count_matching(&lp("/site/item/price")), 3);
        assert_eq!(s.count_matching(&lp("//price")), 3);
        assert_eq!(s.count_matching(&lp("//item")), 3);
        assert_eq!(s.count_matching(&lp("/site/item/*")), 5); // 3 price + 2 name
        assert_eq!(s.count_matching(&lp("//item/@id")), 3);
        assert_eq!(s.count_matching(&lp("//nothing")), 0);
    }

    #[test]
    fn star_counts_elements_not_attributes() {
        let s = stats();
        // Elements: 2 site + 3 item + 3 price + 2 name = 10.
        assert_eq!(s.count_matching(&LinearPath::any()), 10);
        assert_eq!(s.count_matching(&lp("//*/@*")), 3);
    }

    #[test]
    fn index_entry_estimation_respects_type() {
        let s = stats();
        assert_eq!(
            s.estimated_index_entries(&lp("//price"), DataType::Double),
            3
        );
        assert_eq!(
            s.estimated_index_entries(&lp("//name"), DataType::Double),
            0
        );
        assert_eq!(
            s.estimated_index_entries(&lp("//name"), DataType::Varchar),
            2
        );
    }

    #[test]
    fn selectivity_equality_and_range() {
        let s = stats();
        let sel = s.selectivity(&lp("//price"), CmpOp::Gt, &Literal::Num(20.0));
        assert!((sel - 2.0 / 3.0).abs() < 1e-9, "got {sel}");
        let sel = s.selectivity(&lp("//price"), CmpOp::Eq, &Literal::Num(10.0));
        assert!((sel - 1.0 / 3.0).abs() < 1e-9, "got {sel}");
        let sel = s.selectivity(&lp("//name"), CmpOp::Eq, &Literal::Str("drum".into()));
        assert!((sel - 0.5).abs() < 1e-9, "got {sel}");
        let sel = s.selectivity(&lp("//price"), CmpOp::Lt, &Literal::Num(5.0));
        assert_eq!(sel, 0.0);
    }

    #[test]
    fn removal_restores_counts() {
        let mut s = stats();
        let doc = Document::parse(
            r#"<site><item id="i2"><price>25</price><name>drum</name></item><item id="i3"><price>40</price></item></site>"#,
        )
        .unwrap();
        s.remove_document(&doc);
        assert_eq!(s.doc_count, 1);
        assert_eq!(s.count_matching(&lp("//price")), 1);
        let sel = s.selectivity(&lp("//price"), CmpOp::Eq, &Literal::Num(10.0));
        assert!((sel - 1.0).abs() < 1e-9);
    }

    #[test]
    fn byte_and_page_accounting() {
        let s = stats();
        assert!(s.total_bytes > 0);
        assert!(s.data_pages() >= 1);
        assert!(s.estimated_index_bytes(&lp("//price"), DataType::Double) > 0);
        assert_eq!(
            s.estimated_index_pages(&lp("//nothing"), DataType::Double),
            1
        );
    }

    #[test]
    fn distinct_counting() {
        let s = stats();
        assert_eq!(s.distinct_matching(&lp("//price"), DataType::Double), 3);
        assert_eq!(s.distinct_matching(&lp("//name"), DataType::Varchar), 2);
    }

    #[test]
    fn string_function_selectivities() {
        let s = stats();
        // names: mask, drum — starts-with("m") hits 1 of 2.
        let sel = s.selectivity(&lp("//name"), CmpOp::StartsWith, &Literal::Str("m".into()));
        assert!((sel - 0.5).abs() < 1e-9, "{sel}");
        let sel = s.selectivity(&lp("//name"), CmpOp::Contains, &Literal::Str("ru".into()));
        assert!((sel - 0.5).abs() < 1e-9, "{sel}");
        let sel = s.selectivity(&lp("//name"), CmpOp::StartsWith, &Literal::Str("zz".into()));
        assert_eq!(sel, 0.0);
    }

    #[test]
    fn ne_selectivity_is_complement_of_eq() {
        let s = stats();
        let eq = s.selectivity(&lp("//price"), CmpOp::Eq, &Literal::Num(25.0));
        let ne = s.selectivity(&lp("//price"), CmpOp::Ne, &Literal::Num(25.0));
        assert!((eq + ne - 1.0).abs() < 1e-9, "eq {eq} + ne {ne} != 1");
    }

    #[test]
    fn selectivity_bounds_are_respected() {
        let s = stats();
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            for v in [-1e9, 0.0, 10.0, 25.0, 1e9] {
                let sel = s.selectivity(&lp("//price"), op, &Literal::Num(v));
                assert!((0.0..=1.0).contains(&sel), "{op:?} {v}: {sel}");
            }
        }
    }

    #[test]
    fn histogram_removal_after_collapse_stays_consistent() {
        let mut s = CollectionStats::new();
        let n: usize = super::EXACT_CAP + 100;
        let mut b = xia_xml::DocumentBuilder::with_capacity(2 * n + 1);
        b.open("r");
        for i in 0..n {
            b.leaf("v", &format!("{i}"));
        }
        b.close();
        let doc = b.finish().unwrap();
        s.add_document(&doc);
        assert_eq!(s.count_matching(&lp("/r/v")), n as u64);
        s.remove_document(&doc);
        assert_eq!(s.count_matching(&lp("/r/v")), 0);
        assert_eq!(s.doc_count, 0);
    }

    #[test]
    fn estimated_pages_scale_with_entries() {
        let s = stats();
        let small = s.estimated_index_pages(&lp("//name"), DataType::Varchar);
        let mut big_stats = CollectionStats::new();
        let mut b = xia_xml::DocumentBuilder::new();
        b.open("r");
        for i in 0..2000 {
            b.leaf("name", &format!("value-{i:06}"));
        }
        b.close();
        big_stats.add_document(&b.finish().unwrap());
        let big = big_stats.estimated_index_pages(&lp("//name"), DataType::Varchar);
        assert!(big > small, "{big} vs {small}");
    }

    #[test]
    fn collapse_to_histogram_keeps_reasonable_selectivity() {
        let mut s = CollectionStats::new();
        // One path with 3 * EXACT_CAP occurrences of distinct values.
        let n: usize = 3 * super::EXACT_CAP / 2;
        let mut b = xia_xml::DocumentBuilder::with_capacity(2 * n + 1);
        b.open("r");
        for i in 0..n {
            b.leaf("v", &format!("{i}"));
        }
        b.close();
        s.add_document(&b.finish().unwrap());
        let sel = s.selectivity(&lp("/r/v"), CmpOp::Lt, &Literal::Num(n as f64 / 2.0));
        assert!(
            (sel - 0.5).abs() < 0.1,
            "histogram selectivity {sel} should be ~0.5"
        );
        let d = s.distinct_matching(&lp("/r/v"), DataType::Double);
        assert!(d > 0);
    }
}
