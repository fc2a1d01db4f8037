//! Arena-allocated document model with region-encoded node labels.
//!
//! Every node carries a `(start, end, level)` region label assigned in
//! document order: `start` is the node's pre-order rank, `end` is one
//! past the largest `start` in its subtree, and `level` is its depth.
//! This is the classic interval encoding used by native XML stores
//! (DB2 pureXML uses a variant): `a` is an ancestor of `d` iff
//! `a.start < d.start && d.end <= a.end`, and document order is `start`
//! order. Indexes store `(doc, start)` pairs and structural verification
//! never has to re-walk the tree.
//!
//! A sealed document is three flat blocks plus its [`NameTable`]: the
//! node records, in pre-order (so `start` is the arena index and is not
//! stored); one text buffer holding every text and attribute value
//! back to back, which a node addresses by offset and length; and the
//! name table's own buffers. Nothing is allocated per node.

use crate::name::{NameId, NameTable};
use std::borrow::Cow;
use std::sync::OnceLock;

/// Index of a node inside its [`Document`] arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

impl NodeId {
    pub(crate) const NONE: u32 = u32::MAX;

    #[inline]
    pub fn as_u32(self) -> u32 {
        self.0
    }

    /// Reconstruct a `NodeId` from a raw index, e.g. one stored in an index
    /// posting list. The caller must ensure it refers to the same document.
    #[inline]
    pub fn from_u32(raw: u32) -> Self {
        NodeId(raw)
    }
}

/// The three node kinds the advisor's substrate needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    Element,
    Attribute,
    Text,
}

/// One node's fixed-width record. Its `start` label is its arena index.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    pub(crate) kind: NodeKind,
    pub(crate) level: u16,
    pub(crate) name: NameId,
    pub(crate) parent: u32,
    pub(crate) first_child: u32,
    pub(crate) next_sibling: u32,
    pub(crate) end: u32,
    /// Text content for text nodes, attribute value for attributes, as
    /// a range of the document's text buffer. Empty for elements.
    pub(crate) value: Span,
}

/// A byte range of a document's text buffer.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Span {
    pub(crate) start: u32,
    pub(crate) len: u32,
}

impl Span {
    /// The span from `start` to the end of `text`.
    pub(crate) fn to_end(text: &str, start: usize) -> Span {
        let end = u32::try_from(text.len()).expect("a document's values exceed 4 GiB");
        let start = start as u32; // start <= end
        Span {
            start,
            len: end - start,
        }
    }

    /// The span of `value` once appended to `text`.
    pub(crate) fn push(text: &mut String, value: &str) -> Span {
        let start = text.len();
        text.push_str(value);
        Span::to_end(text, start)
    }

    #[inline]
    fn range(self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// The per-node size the cost model prices a document at: the 48 bytes
/// a node record took while each value was a heap string of its own.
/// [`Document::byte_size`] feeds `CollectionStats::total_bytes` and so
/// every page estimate and recommendation; it is modelled in these
/// units so that the arena's real record size never moves a plan.
pub(crate) const MODEL_NODE_BYTES: usize = 48;

/// A parsed XML document. Nodes live in a flat arena and are addressed by
/// [`NodeId`]; the document is immutable after construction (updates at the
/// database layer replace whole documents, as DB2 pureXML does per-document).
#[derive(Debug, Clone)]
pub struct Document {
    nodes: Box<[Node]>,
    /// Every text and attribute value, back to back in node order.
    text: Box<str>,
    names: NameTable,
    root: u32,
    /// Modelled size, computed once at construction — `byte_size()`
    /// sits on the executor's per-fetch hot path.
    byte_size: usize,
    /// Sorted region-label columns for the batched executor, built on
    /// first use. Excluded from `byte_size()`: the page-accounting model
    /// prices the document itself, not executor scratch state, and the
    /// cost model must not shift when a document happens to have been
    /// queried through the batched path.
    columns: OnceLock<NodeColumns>,
}

/// Column-oriented view of a document's region labels: for each node
/// population the batched executor consumes, the sorted list of `start`
/// ranks (pre-order ranks double as arena indexes, so a `start` column
/// *is* a node-id column). All lists are ascending and duplicate-free by
/// construction — the arena is laid out in pre-order.
#[derive(Debug, Clone, Default)]
pub struct NodeColumns {
    /// `elem_by_name[name.as_u32()]` = starts of elements named `name`.
    elem_by_name: Vec<Vec<u32>>,
    /// `attr_by_name[name.as_u32()]` = starts of attributes named `name`.
    attr_by_name: Vec<Vec<u32>>,
    /// Starts of every element.
    elements: Vec<u32>,
    /// Starts of every attribute node.
    attributes: Vec<u32>,
    /// Starts of every text node.
    texts: Vec<u32>,
}

impl NodeColumns {
    fn build(doc: &Document) -> NodeColumns {
        let mut cols = NodeColumns {
            elem_by_name: vec![Vec::new(); doc.names.len()],
            attr_by_name: vec![Vec::new(); doc.names.len()],
            ..NodeColumns::default()
        };
        for (i, n) in doc.nodes.iter().enumerate() {
            let start = i as u32;
            match n.kind {
                NodeKind::Element => {
                    cols.elements.push(start);
                    cols.elem_by_name[n.name.as_u32() as usize].push(start);
                }
                NodeKind::Attribute => {
                    cols.attributes.push(start);
                    cols.attr_by_name[n.name.as_u32() as usize].push(start);
                }
                NodeKind::Text => cols.texts.push(start),
            }
        }
        cols
    }
}

impl Document {
    /// Parse a document from its textual form.
    pub fn parse(input: &str) -> Result<Document, crate::ParseError> {
        crate::parse::parse_document(input)
    }

    /// The single root element.
    pub fn root_element(&self) -> Option<NodeId> {
        (self.root != NodeId::NONE).then_some(NodeId(self.root))
    }

    /// Total number of nodes (elements + attributes + text).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The document's name table.
    pub fn names(&self) -> &NameTable {
        &self.names
    }

    #[inline]
    fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Kind of `id`.
    #[inline]
    pub fn kind(&self, id: NodeId) -> NodeKind {
        self.node(id).kind
    }

    /// Interned name of `id` (`NameId::NONE` for text nodes).
    #[inline]
    pub fn name_id(&self, id: NodeId) -> NameId {
        self.node(id).name
    }

    /// Name of `id` as a string. Text nodes resolve to `""`.
    pub fn name(&self, id: NodeId) -> &str {
        let n = self.node(id);
        if n.name == NameId::NONE {
            ""
        } else {
            self.names.resolve(n.name)
        }
    }

    /// Parent node, if any.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        let p = self.node(id).parent;
        (p != NodeId::NONE).then_some(NodeId(p))
    }

    /// Pre-order rank (document order position): the arena index.
    #[inline]
    pub fn start(&self, id: NodeId) -> u32 {
        id.0
    }

    /// One past the largest `start` in the subtree of `id`.
    #[inline]
    pub fn end(&self, id: NodeId) -> u32 {
        self.node(id).end
    }

    /// Depth of `id`; the root element has level 0.
    #[inline]
    pub fn level(&self, id: NodeId) -> u16 {
        self.node(id).level
    }

    /// True iff `anc` is a proper ancestor of `desc` — O(1) via regions.
    #[inline]
    pub fn is_ancestor(&self, anc: NodeId, desc: NodeId) -> bool {
        anc.0 < desc.0 && self.node(desc).end <= self.node(anc).end
    }

    /// Attribute value for a text/attribute node; `None` for elements.
    pub fn value(&self, id: NodeId) -> Option<&str> {
        let n = self.node(id);
        (n.kind != NodeKind::Element).then(|| self.text_of(n))
    }

    /// The stored value of `n` (empty for elements).
    #[inline]
    fn text_of(&self, n: &Node) -> &str {
        &self.text[n.value.range()]
    }

    /// Child nodes of kind element or text, in document order.
    pub fn children(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.raw_children(id)
            .filter(move |&c| self.node(c).kind != NodeKind::Attribute)
    }

    /// Element children only.
    pub fn child_elements(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.raw_children(id)
            .filter(move |&c| self.node(c).kind == NodeKind::Element)
    }

    /// Attribute nodes of `id`, in source order.
    pub fn attributes(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.raw_children(id)
            .take_while(move |&c| self.node(c).kind == NodeKind::Attribute)
    }

    /// Value of the attribute named `name`, if present.
    pub fn attribute(&self, id: NodeId, name: &str) -> Option<&str> {
        let name_id = self.names.get(name)?;
        self.attributes(id)
            .find(|&a| self.node(a).name == name_id)
            .and_then(|a| self.value(a))
    }

    fn raw_children(&self, id: NodeId) -> RawChildren<'_> {
        RawChildren {
            doc: self,
            next: self.node(id).first_child,
        }
    }

    /// All descendants of `id` (excluding `id`), in document order,
    /// including attributes and text.
    ///
    /// Nodes are arena-allocated in pre-order, so `start` equals the arena
    /// index and a subtree is the contiguous index range `(start, end)`.
    pub fn descendants(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        (id.0 + 1..self.node(id).end).map(NodeId)
    }

    /// All nodes in document order.
    pub fn all_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// XPath string-value: concatenation of all descendant text for
    /// elements, the stored value for text and attribute nodes.
    pub fn string_value(&self, id: NodeId) -> String {
        self.string_value_cow(id).into_owned()
    }

    /// [`Document::string_value`], borrowed wherever no concatenation is
    /// needed: a text or attribute node's stored value, and an element's
    /// whose subtree holds at most one text node. Only an element with
    /// several text descendants builds a string.
    pub fn string_value_cow(&self, id: NodeId) -> Cow<'_, str> {
        let n = self.node(id);
        if n.kind != NodeKind::Element {
            return Cow::Borrowed(self.text_of(n));
        }
        // The subtree is the arena range after `id`, in document order,
        // so its text nodes in that order are the concatenation.
        let texts = || {
            self.nodes[id.0 as usize + 1..n.end as usize]
                .iter()
                .filter(|d| d.kind == NodeKind::Text)
        };
        let (mut count, mut len, mut only) = (0, 0, "");
        for t in texts() {
            count += 1;
            len += t.value.len as usize;
            only = self.text_of(t);
        }
        if count <= 1 {
            return Cow::Borrowed(only);
        }
        let mut out = String::with_capacity(len);
        for t in texts() {
            out.push_str(self.text_of(t));
        }
        Cow::Owned(out)
    }

    /// String-value parsed as a number, if it is one (XPath `number()` on
    /// the trimmed string-value).
    pub fn number_value(&self, id: NodeId) -> Option<f64> {
        self.string_value(id).trim().parse::<f64>().ok()
    }

    /// The root-to-node label path of `id`, e.g. `["site", "item", "price"]`.
    /// Attribute steps get their attribute name as the final label.
    pub fn label_path(&self, id: NodeId) -> Vec<NameId> {
        let mut path = Vec::with_capacity(self.node(id).level as usize + 1);
        let mut cur = Some(id);
        while let Some(n) = cur {
            let node = self.node(n);
            if node.kind != NodeKind::Text {
                path.push(node.name);
            }
            cur = self.parent(n);
        }
        path.reverse();
        path
    }

    /// Modelled size of this document in bytes, used by the
    /// page-accounting model in `xia-storage`: 48 bytes per node (the
    /// record size before values moved to one buffer), plus the value
    /// bytes, plus each name's bytes and 16. Precomputed at
    /// construction; O(1) here.
    pub fn byte_size(&self) -> usize {
        self.byte_size
    }

    #[inline]
    fn columns(&self) -> &NodeColumns {
        self.columns.get_or_init(|| NodeColumns::build(self))
    }

    /// Sorted starts of elements named `name` (empty for unknown names).
    pub fn elements_named(&self, name: NameId) -> &[u32] {
        self.columns()
            .elem_by_name
            .get(name.as_u32() as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// Sorted starts of attributes named `name` (empty for unknown names).
    pub fn attributes_named(&self, name: NameId) -> &[u32] {
        self.columns()
            .attr_by_name
            .get(name.as_u32() as usize)
            .map_or(&[], Vec::as_slice)
    }

    /// Sorted starts of every element node (the root included).
    pub fn element_starts(&self) -> &[u32] {
        &self.columns().elements
    }

    /// Sorted starts of every attribute node.
    pub fn attribute_starts(&self) -> &[u32] {
        &self.columns().attributes
    }

    /// Sorted starts of every text node.
    pub fn text_starts(&self) -> &[u32] {
        &self.columns().texts
    }

    /// Seal a finished arena (called once by the parser/builder) and
    /// compute its modelled size. Every block is shrunk to fit: the
    /// document is immutable from here on and a database keeps it for
    /// as long as it lives, growth slack included.
    pub(crate) fn from_arena(
        nodes: Vec<Node>,
        text: String,
        mut names: NameTable,
        root: u32,
    ) -> Document {
        names.seal();
        let value_bytes: usize = nodes.iter().map(|n| n.value.len as usize).sum();
        let name_bytes: usize = names.iter().map(|(_, n)| n.len() + 16).sum();
        Document {
            byte_size: nodes.len() * MODEL_NODE_BYTES + value_bytes + name_bytes,
            nodes: nodes.into_boxed_slice(),
            text: text.into_boxed_str(),
            names,
            root,
            columns: Default::default(),
        }
    }
}

struct RawChildren<'a> {
    doc: &'a Document,
    next: u32,
}

impl Iterator for RawChildren<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.next == NodeId::NONE {
            return None;
        }
        let id = NodeId(self.next);
        self.next = self.doc.nodes[self.next as usize].next_sibling;
        Some(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> Document {
        Document::parse(
            r#"<site><regions><africa><item id="i1"><price>12.5</price><name>mask</name></item></africa><europe><item id="i2"><price>7</price></item></europe></regions></site>"#,
        )
        .unwrap()
    }

    #[test]
    fn root_and_counts() {
        let d = doc();
        let root = d.root_element().unwrap();
        assert_eq!(d.name(root), "site");
        assert_eq!(d.kind(root), NodeKind::Element);
        assert!(d.parent(root).is_none());
    }

    #[test]
    fn regions_encode_ancestry() {
        let d = doc();
        let root = d.root_element().unwrap();
        for n in d.descendants(root) {
            assert!(d.is_ancestor(root, n), "root must be ancestor of all");
            assert!(!d.is_ancestor(n, root));
        }
    }

    #[test]
    fn children_skip_attributes() {
        let d = doc();
        let root = d.root_element().unwrap();
        let regions = d.child_elements(root).next().unwrap();
        let africa = d.child_elements(regions).next().unwrap();
        let item = d.child_elements(africa).next().unwrap();
        assert_eq!(d.name(item), "item");
        let kids: Vec<_> = d.children(item).map(|c| d.name(c).to_string()).collect();
        assert_eq!(kids, vec!["price", "name"]);
        assert_eq!(d.attribute(item, "id"), Some("i1"));
        assert_eq!(d.attribute(item, "missing"), None);
    }

    #[test]
    fn string_value_concatenates_descendant_text() {
        let d = doc();
        let root = d.root_element().unwrap();
        assert_eq!(d.string_value(root), "12.5mask7");
    }

    #[test]
    fn string_value_cow_borrows_unless_it_concatenates() {
        let d = Document::parse(r#"<a k="v"><b><c>x</c></b><d/><e>y<f>z</f></e></a>"#).unwrap();
        let root = d.root_element().unwrap();
        for n in std::iter::once(root).chain(d.descendants(root)) {
            let cow = d.string_value_cow(n);
            assert_eq!(cow, d.string_value(n));
            let texts = std::iter::once(n)
                .chain(d.descendants(n))
                .filter(|&t| d.kind(t) == NodeKind::Text)
                .count();
            let owned = d.kind(n) == NodeKind::Element && texts > 1;
            assert_eq!(matches!(cow, Cow::Owned(_)), owned, "{}", d.name(n));
        }
        assert_eq!(d.string_value_cow(root), "xyz");
    }

    #[test]
    fn number_value_parses_numeric_text() {
        let d = Document::parse("<a><b> 42.5 </b></a>").unwrap();
        let root = d.root_element().unwrap();
        let b = d.child_elements(root).next().unwrap();
        assert_eq!(d.number_value(b), Some(42.5));
    }

    #[test]
    fn label_path_includes_attribute_name() {
        let d = doc();
        let root = d.root_element().unwrap();
        let item = d
            .descendants(root)
            .find(|&n| d.kind(n) == NodeKind::Element && d.name(n) == "item")
            .unwrap();
        let attr = d.attributes(item).next().unwrap();
        let path: Vec<_> = d
            .label_path(attr)
            .iter()
            .map(|&n| d.names().resolve(n).to_string())
            .collect();
        assert_eq!(path, vec!["site", "regions", "africa", "item", "id"]);
    }

    #[test]
    fn descendants_in_document_order() {
        let d = doc();
        let root = d.root_element().unwrap();
        let starts: Vec<_> = d.descendants(root).map(|n| d.start(n)).collect();
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        assert_eq!(starts, sorted);
    }

    #[test]
    fn columns_agree_with_tree_walk() {
        let d = doc();
        let root = d.root_element().unwrap();
        let all: Vec<NodeId> = std::iter::once(root).chain(d.descendants(root)).collect();
        let expect = |pred: &dyn Fn(NodeId) -> bool| -> Vec<u32> {
            all.iter()
                .copied()
                .filter(|&n| pred(n))
                .map(|n| d.start(n))
                .collect()
        };
        assert_eq!(
            d.element_starts(),
            expect(&|n| d.kind(n) == NodeKind::Element)
        );
        assert_eq!(
            d.attribute_starts(),
            expect(&|n| d.kind(n) == NodeKind::Attribute)
        );
        assert_eq!(d.text_starts(), expect(&|n| d.kind(n) == NodeKind::Text));
        let item = d.names().get("item").unwrap();
        assert_eq!(
            d.elements_named(item),
            expect(&|n| d.kind(n) == NodeKind::Element && d.name_id(n) == item)
        );
        let id = d.names().get("id").unwrap();
        assert_eq!(
            d.attributes_named(id),
            expect(&|n| d.kind(n) == NodeKind::Attribute && d.name_id(n) == id)
        );
        assert_eq!(d.elements_named(id), &[] as &[u32]);
        // A clone starts with fresh (unbuilt) columns and rebuilds the same.
        let c = d.clone();
        assert_eq!(c.element_starts(), d.element_starts());
    }

    #[test]
    fn levels_increase_by_one() {
        let d = doc();
        let root = d.root_element().unwrap();
        for n in d.descendants(root) {
            let p = d.parent(n).unwrap();
            assert_eq!(d.level(n), d.level(p) + 1);
        }
    }
}
