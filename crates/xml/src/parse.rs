//! Recursive-descent XML parser.
//!
//! Builds the arena [`Document`] directly, assigning region labels on the
//! fly: `start` is allocated at node creation (pre-order, equal to the
//! arena index) and `end` is patched when the element closes. Values are
//! appended straight to the document's text buffer and names are sliced
//! from the input, so the only allocations are the growing arena blocks.

use crate::dom::{Document, Node, NodeId, NodeKind, Span};
use crate::error::{ParseError, ParseErrorKind};
use crate::name::{NameId, NameTable};

pub(crate) fn parse_document(input: &str) -> Result<Document, ParseError> {
    let mut p = Parser::new(input);
    p.skip_prolog()?;
    p.skip_misc()?;
    if p.eof() {
        return Err(p.err(ParseErrorKind::EmptyDocument));
    }
    let root = p.parse_element(u32::MAX, 0)?;
    p.skip_misc()?;
    if !p.eof() {
        return Err(p.err(ParseErrorKind::ContentOutsideRoot));
    }
    Ok(Document::from_arena(p.nodes, p.text, p.names, root))
}

/// Every slice of `src` the parser takes starts and ends at an ASCII
/// delimiter or at the end of the input, so it lies on char boundaries.
struct Parser<'a> {
    src: &'a str,
    input: &'a [u8],
    pos: usize,
    line: u32,
    line_start: usize,
    nodes: Vec<Node>,
    /// The document's values so far, back to back in node order.
    text: String,
    names: NameTable,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            src: input,
            input: input.as_bytes(),
            pos: 0,
            line: 1,
            line_start: 0,
            nodes: Vec::new(),
            text: String::new(),
            names: NameTable::new(),
        }
    }

    fn err(&self, kind: ParseErrorKind) -> ParseError {
        ParseError {
            kind,
            line: self.line,
            column: (self.pos - self.line_start) as u32 + 1,
        }
    }

    #[inline]
    fn eof(&self) -> bool {
        self.pos >= self.input.len()
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    #[inline]
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.line_start = self.pos;
        }
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input[self.pos..].starts_with(s.as_bytes())
    }

    fn advance(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    /// Skip `<?xml ... ?>` if present.
    fn skip_prolog(&mut self) -> Result<(), ParseError> {
        self.skip_ws();
        if self.starts_with("<?xml") {
            self.skip_until("?>", "XML declaration")?;
        }
        Ok(())
    }

    /// Skip whitespace, comments and processing instructions between
    /// top-level constructs.
    fn skip_misc(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.skip_comment()?;
            } else if self.starts_with("<?") {
                self.skip_until("?>", "processing instruction")?;
            } else if self.starts_with("<!DOCTYPE") {
                // Tolerate a simple (bracket-free) DOCTYPE; internal subsets
                // are out of scope.
                self.skip_until(">", "DOCTYPE")?;
            } else {
                return Ok(());
            }
        }
    }

    fn skip_comment(&mut self) -> Result<(), ParseError> {
        self.advance(4); // <!--
        loop {
            if self.eof() {
                return Err(self.err(ParseErrorKind::Unterminated("comment")));
            }
            if self.starts_with("-->") {
                self.advance(3);
                return Ok(());
            }
            self.bump();
        }
    }

    fn skip_until(&mut self, end: &str, what: &'static str) -> Result<(), ParseError> {
        loop {
            if self.eof() {
                return Err(self.err(ParseErrorKind::Unterminated(what)));
            }
            if self.starts_with(end) {
                self.advance(end.len());
                return Ok(());
            }
            self.bump();
        }
    }

    fn parse_name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(b) if is_name_start(b) => {
                self.bump();
            }
            Some(b) if b >= 0x80 => {
                // Accept non-ASCII name start bytes wholesale.
                self.bump();
            }
            _ => return Err(self.err(ParseErrorKind::InvalidName)),
        }
        while let Some(b) = self.peek() {
            if is_name_char(b) || b >= 0x80 {
                self.bump();
            } else {
                break;
            }
        }
        Ok(&self.src[start..self.pos])
    }

    fn new_node(
        &mut self,
        kind: NodeKind,
        name: NameId,
        value: Span,
        parent: u32,
        level: u16,
    ) -> u32 {
        let idx = self.nodes.len() as u32;
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
        idx
    }

    fn link_child(&mut self, parent: u32, child: u32, last_child: &mut u32) {
        if *last_child == NodeId::NONE {
            self.nodes[parent as usize].first_child = child;
        } else {
            self.nodes[*last_child as usize].next_sibling = child;
        }
        *last_child = child;
    }

    /// Parse an element whose `<` has not yet been consumed.
    fn parse_element(&mut self, parent: u32, level: u16) -> Result<u32, ParseError> {
        if self.peek() != Some(b'<') {
            return Err(self.err(match self.peek() {
                Some(b) => ParseErrorKind::UnexpectedChar(b as char),
                None => ParseErrorKind::UnexpectedEof,
            }));
        }
        self.bump();
        let tag = self.parse_name()?;
        let name_id = self.names.intern(tag);
        let elem = self.new_node(NodeKind::Element, name_id, Span::default(), parent, level);
        let mut last_child = NodeId::NONE;

        // Attributes.
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.bump();
                    break;
                }
                Some(b'/') => {
                    self.bump();
                    if self.peek() != Some(b'>') {
                        return Err(self.err(ParseErrorKind::UnexpectedChar('/')));
                    }
                    self.bump();
                    self.nodes[elem as usize].end = self.nodes.len() as u32;
                    return Ok(elem);
                }
                Some(_) => {
                    let attr_name = self.parse_name()?;
                    let attr_id = self.names.intern(attr_name);
                    // Every node after `elem` so far is one of its attributes.
                    if self.nodes[elem as usize + 1..]
                        .iter()
                        .any(|a| a.name == attr_id)
                    {
                        return Err(
                            self.err(ParseErrorKind::DuplicateAttribute(attr_name.to_string()))
                        );
                    }
                    self.skip_ws();
                    if self.peek() != Some(b'=') {
                        return Err(self.err(ParseErrorKind::UnexpectedChar(
                            self.peek().map_or('\0', |b| b as char),
                        )));
                    }
                    self.bump();
                    self.skip_ws();
                    let value = self.parse_attr_value()?;
                    let attr = self.new_node(NodeKind::Attribute, attr_id, value, elem, level + 1);
                    self.link_child(elem, attr, &mut last_child);
                }
                None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
            }
        }

        // Content. The text appended since `run` is the pending text node.
        let mut run = self.text.len();
        loop {
            if self.eof() {
                return Err(self.err(ParseErrorKind::UnexpectedEof));
            }
            if self.starts_with("</") {
                self.flush_text(elem, level, run, &mut last_child);
                self.advance(2);
                let close = self.parse_name()?;
                if close != tag {
                    return Err(self.err(ParseErrorKind::MismatchedTag {
                        expected: tag.to_string(),
                        found: close.to_string(),
                    }));
                }
                self.skip_ws();
                if self.peek() != Some(b'>') {
                    return Err(self.err(ParseErrorKind::UnexpectedChar(
                        self.peek().map_or('\0', |b| b as char),
                    )));
                }
                self.bump();
                self.nodes[elem as usize].end = self.nodes.len() as u32;
                return Ok(elem);
            } else if self.starts_with("<!--") {
                self.skip_comment()?;
            } else if self.starts_with("<![CDATA[") {
                self.advance(9);
                let start = self.pos;
                loop {
                    if self.eof() {
                        return Err(self.err(ParseErrorKind::Unterminated("CDATA section")));
                    }
                    if self.starts_with("]]>") {
                        break;
                    }
                    self.bump();
                }
                self.text.push_str(&self.src[start..self.pos]);
                self.advance(3);
            } else if self.starts_with("<?") {
                self.skip_until("?>", "processing instruction")?;
            } else if self.peek() == Some(b'<') {
                self.flush_text(elem, level, run, &mut last_child);
                let child = self.parse_element(elem, level + 1)?;
                self.link_child(elem, child, &mut last_child);
                run = self.text.len();
            } else {
                self.parse_char_data()?;
            }
        }
    }

    /// Turn the text appended since `run` into a text node of `elem`.
    fn flush_text(&mut self, elem: u32, level: u16, run: usize, last_child: &mut u32) {
        // Whitespace-only runs between elements are formatting noise and
        // are dropped, matching how data-centric XML stores load documents.
        if self.text[run..].trim().is_empty() {
            self.text.truncate(run);
            return;
        }
        let value = Span::to_end(&self.text, run);
        let text = self.new_node(NodeKind::Text, NameId::NONE, value, elem, level + 1);
        self.link_child(elem, text, last_child);
    }

    /// Character data up to the next `<`, entities resolved, appended to
    /// the text buffer.
    fn parse_char_data(&mut self) -> Result<(), ParseError> {
        loop {
            match self.peek() {
                None | Some(b'<') => return Ok(()),
                Some(b'&') => self.parse_entity()?,
                Some(_) => {
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if b == b'<' || b == b'&' {
                            break;
                        }
                        self.bump();
                    }
                    self.text.push_str(&self.src[start..self.pos]);
                }
            }
        }
    }

    /// A quoted attribute value, entities resolved, appended to the text
    /// buffer.
    fn parse_attr_value(&mut self) -> Result<Span, ParseError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            Some(b) => return Err(self.err(ParseErrorKind::UnexpectedChar(b as char))),
            None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
        };
        self.bump();
        let start = self.text.len();
        loop {
            match self.peek() {
                None => return Err(self.err(ParseErrorKind::UnexpectedEof)),
                Some(b) if b == quote => {
                    self.bump();
                    return Ok(Span::to_end(&self.text, start));
                }
                Some(b'&') => self.parse_entity()?,
                Some(_) => {
                    let from = self.pos;
                    while let Some(b) = self.peek() {
                        if b == quote || b == b'&' {
                            break;
                        }
                        self.bump();
                    }
                    self.text.push_str(&self.src[from..self.pos]);
                }
            }
        }
    }

    /// `&lt; &gt; &amp; &apos; &quot;` and `&#NN;` / `&#xHH;`, resolved
    /// and appended to the text buffer.
    fn parse_entity(&mut self) -> Result<(), ParseError> {
        debug_assert_eq!(self.peek(), Some(b'&'));
        self.bump();
        let start = self.pos;
        loop {
            match self.peek() {
                Some(b';') => break,
                Some(_) if self.pos - start < 16 => {
                    self.bump();
                }
                _ => return Err(self.err(ParseErrorKind::BadCharRef)),
            }
        }
        let name = &self.src[start..self.pos];
        self.bump(); // ;
        let code = |digits: &str, radix| {
            u32::from_str_radix(digits, radix)
                .ok()
                .and_then(char::from_u32)
        };
        let resolved = match name {
            "lt" => '<',
            "gt" => '>',
            "amp" => '&',
            "apos" => '\'',
            "quot" => '"',
            _ if name.starts_with("#x") || name.starts_with("#X") => {
                code(&name[2..], 16).ok_or_else(|| self.err(ParseErrorKind::BadCharRef))?
            }
            _ if name.starts_with('#') => {
                code(&name[1..], 10).ok_or_else(|| self.err(ParseErrorKind::BadCharRef))?
            }
            _ => return Err(self.err(ParseErrorKind::UnknownEntity(name.to_string()))),
        };
        self.text.push(resolved);
        Ok(())
    }
}

#[inline]
fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':'
}

#[inline]
fn is_name_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'-' | b'.')
}

#[cfg(test)]
mod tests {
    use crate::{Document, NodeKind, ParseErrorKind};

    #[test]
    fn parses_minimal_document() {
        let d = Document::parse("<a/>").unwrap();
        assert_eq!(d.name(d.root_element().unwrap()), "a");
        assert_eq!(d.node_count(), 1);
    }

    #[test]
    fn parses_prolog_comments_and_pis() {
        let d = Document::parse(
            "<?xml version=\"1.0\"?><!-- hi --><?pi data?><a><!-- in --><b/></a><!-- after -->",
        )
        .unwrap();
        let root = d.root_element().unwrap();
        assert_eq!(d.child_elements(root).count(), 1);
    }

    #[test]
    fn parses_doctype() {
        let d = Document::parse("<!DOCTYPE site><site/>").unwrap();
        assert_eq!(d.name(d.root_element().unwrap()), "site");
    }

    #[test]
    fn text_and_entities() {
        let d = Document::parse("<a>x &amp; y &lt;z&gt; &#65;&#x42;</a>").unwrap();
        let root = d.root_element().unwrap();
        assert_eq!(d.string_value(root), "x & y <z> AB");
    }

    #[test]
    fn cdata_is_literal() {
        let d = Document::parse("<a><![CDATA[<not-a-tag> & stuff]]></a>").unwrap();
        assert_eq!(
            d.string_value(d.root_element().unwrap()),
            "<not-a-tag> & stuff"
        );
    }

    #[test]
    fn attributes_with_both_quote_styles() {
        let d = Document::parse(r#"<a x="1" y='two &amp; three'/>"#).unwrap();
        let root = d.root_element().unwrap();
        assert_eq!(d.attribute(root, "x"), Some("1"));
        assert_eq!(d.attribute(root, "y"), Some("two & three"));
    }

    #[test]
    fn whitespace_between_elements_is_dropped() {
        let d = Document::parse("<a>\n  <b>1</b>\n  <c>2</c>\n</a>").unwrap();
        let root = d.root_element().unwrap();
        let kinds: Vec<_> = d.children(root).map(|c| d.kind(c)).collect();
        assert_eq!(kinds, vec![NodeKind::Element, NodeKind::Element]);
    }

    #[test]
    fn mixed_content_text_preserved() {
        let d = Document::parse("<a>hello <b>bold</b> world</a>").unwrap();
        assert_eq!(
            d.string_value(d.root_element().unwrap()),
            "hello bold world"
        );
    }

    #[test]
    fn rejects_mismatched_tags() {
        let e = Document::parse("<a><b></a></b>").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::MismatchedTag { .. }));
    }

    #[test]
    fn rejects_duplicate_attributes() {
        let e = Document::parse(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::DuplicateAttribute(_)));
    }

    #[test]
    fn rejects_trailing_content() {
        let e = Document::parse("<a/><b/>").unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::ContentOutsideRoot);
    }

    #[test]
    fn rejects_empty_input() {
        let e = Document::parse("   ").unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::EmptyDocument);
    }

    #[test]
    fn rejects_unknown_entity() {
        let e = Document::parse("<a>&nope;</a>").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::UnknownEntity(_)));
    }

    #[test]
    fn rejects_unterminated_comment() {
        let e = Document::parse("<a><!-- oops</a>").unwrap_err();
        assert!(matches!(e.kind, ParseErrorKind::Unterminated(_)));
    }

    #[test]
    fn error_positions_are_1_based() {
        let e = Document::parse("<a>\n<b></c>\n</a>").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.column > 1);
    }

    #[test]
    fn deep_nesting_round_trip() {
        let mut s = String::new();
        for _ in 0..200 {
            s.push_str("<d>");
        }
        s.push('x');
        for _ in 0..200 {
            s.push_str("</d>");
        }
        let d = Document::parse(&s).unwrap();
        assert_eq!(d.string_value(d.root_element().unwrap()), "x");
        assert_eq!(d.node_count(), 201);
    }

    #[test]
    fn utf8_text_survives() {
        let d = Document::parse("<a>héllo wörld ≤≥</a>").unwrap();
        assert_eq!(d.string_value(d.root_element().unwrap()), "héllo wörld ≤≥");
    }
}
