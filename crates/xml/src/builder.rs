//! Programmatic document construction.
//!
//! The workload generators build large synthetic XMark/TPoX-like documents;
//! going through the textual parser for those would waste most of the
//! generation time, so [`DocumentBuilder`] constructs the arena directly
//! while preserving the same pre-order region-label invariants the parser
//! establishes.

use crate::dom::{Document, Node, NodeId, NodeKind, Span};
use crate::name::{NameId, NameTable};

/// Builds a [`Document`] with an open/close element API.
///
/// ```
/// use xia_xml::DocumentBuilder;
///
/// let mut b = DocumentBuilder::new();
/// b.open("item");
/// b.attr("id", "i1");
/// b.open("price");
/// b.text("12.5");
/// b.close();
/// b.close();
/// let doc = b.finish().unwrap();
/// assert_eq!(doc.string_value(doc.root_element().unwrap()), "12.5");
/// ```
#[derive(Debug, Default)]
pub struct DocumentBuilder {
    nodes: Vec<Node>,
    /// The document's values so far, back to back in node order.
    text: String,
    names: NameTable,
    /// Stack of (element index, last child index or NONE).
    open: Vec<(u32, u32)>,
    root: u32,
}

impl DocumentBuilder {
    pub fn new() -> Self {
        DocumentBuilder {
            nodes: Vec::new(),
            text: String::new(),
            names: NameTable::new(),
            open: Vec::new(),
            root: NodeId::NONE,
        }
    }

    /// Pre-size the arena when the caller knows roughly how many nodes the
    /// document will have.
    pub fn with_capacity(nodes: usize) -> Self {
        let mut b = Self::new();
        b.nodes.reserve(nodes);
        b
    }

    fn push_node(&mut self, kind: NodeKind, name: NameId, value: Span) -> u32 {
        let idx = self.nodes.len() as u32;
        let (parent, level) = match self.open.last() {
            Some(&(p, _)) => (p, self.nodes[p as usize].level + 1),
            None => (NodeId::NONE, 0),
        };
        self.nodes.push(Node {
            kind,
            level,
            name,
            parent,
            first_child: NodeId::NONE,
            next_sibling: NodeId::NONE,
            end: idx + 1,
            value,
        });
        if let Some(&mut (p, ref mut last)) = self.open.last_mut() {
            if *last == NodeId::NONE {
                self.nodes[p as usize].first_child = idx;
            } else {
                self.nodes[*last as usize].next_sibling = idx;
            }
            *last = idx;
        }
        idx
    }

    /// Open an element. Must be closed with [`close`](Self::close).
    pub fn open(&mut self, name: &str) -> &mut Self {
        assert!(
            !(self.open.is_empty() && self.root != NodeId::NONE),
            "document may only have one root element"
        );
        let name_id = self.names.intern(name);
        let idx = self.push_node(NodeKind::Element, name_id, Span::default());
        if self.open.is_empty() {
            self.root = idx;
        }
        self.open.push((idx, NodeId::NONE));
        self
    }

    /// Add an attribute to the currently open element. Must be called
    /// before any child element or text is added.
    pub fn attr(&mut self, name: &str, value: &str) -> &mut Self {
        let (elem, last) = *self.open.last().expect("attr() outside an open element");
        assert!(
            last == NodeId::NONE || self.nodes[last as usize].kind == NodeKind::Attribute,
            "attributes must precede element content"
        );
        let _ = elem;
        let name_id = self.names.intern(name);
        let value = Span::push(&mut self.text, value);
        self.push_node(NodeKind::Attribute, name_id, value);
        self
    }

    /// Add a text child to the currently open element.
    pub fn text(&mut self, content: &str) -> &mut Self {
        assert!(!self.open.is_empty(), "text() outside an open element");
        let value = Span::push(&mut self.text, content);
        self.push_node(NodeKind::Text, NameId::NONE, value);
        self
    }

    /// Convenience: `open(name); text(content); close()`.
    pub fn leaf(&mut self, name: &str, content: &str) -> &mut Self {
        self.open(name);
        self.text(content);
        self.close();
        self
    }

    /// Close the innermost open element.
    pub fn close(&mut self) -> &mut Self {
        let (idx, _) = self.open.pop().expect("close() without a matching open()");
        self.nodes[idx as usize].end = self.nodes.len() as u32;
        self
    }

    /// Finish the document. Fails if elements are still open or no root was
    /// ever created.
    pub fn finish(self) -> Result<Document, &'static str> {
        if !self.open.is_empty() {
            return Err("unclosed element at finish()");
        }
        if self.root == NodeId::NONE {
            return Err("document has no root element");
        }
        Ok(Document::from_arena(
            self.nodes, self.text, self.names, self.root,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize;

    #[test]
    fn builds_equivalent_of_parsed_document() {
        let mut b = DocumentBuilder::new();
        b.open("site");
        b.open("item");
        b.attr("id", "i1");
        b.leaf("price", "10");
        b.close();
        b.close();
        let built = b.finish().unwrap();

        let parsed =
            Document::parse(r#"<site><item id="i1"><price>10</price></item></site>"#).unwrap();
        assert_eq!(serialize(&built), serialize(&parsed));
        assert_eq!(built.node_count(), parsed.node_count());
    }

    #[test]
    fn builder_regions_match_parser_regions() {
        let mut b = DocumentBuilder::new();
        b.open("a");
        b.leaf("b", "1");
        b.leaf("c", "2");
        b.close();
        let built = b.finish().unwrap();
        let parsed = Document::parse("<a><b>1</b><c>2</c></a>").unwrap();
        for (x, y) in built.all_nodes().zip(parsed.all_nodes()) {
            assert_eq!(built.start(x), parsed.start(y));
            assert_eq!(built.end(x), parsed.end(y));
            assert_eq!(built.level(x), parsed.level(y));
        }
    }

    #[test]
    fn finish_rejects_unclosed() {
        let mut b = DocumentBuilder::new();
        b.open("a");
        assert!(b.finish().is_err());
    }

    #[test]
    fn finish_rejects_empty() {
        assert!(DocumentBuilder::new().finish().is_err());
    }

    #[test]
    #[should_panic(expected = "attributes must precede element content")]
    fn attr_after_content_panics() {
        let mut b = DocumentBuilder::new();
        b.open("a");
        b.text("x");
        b.attr("id", "1");
    }
}
