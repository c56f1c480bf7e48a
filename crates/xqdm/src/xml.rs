//! A small well-formed XML parser and serializer.
//!
//! No XML crate exists in the offline dependency set, so we implement the
//! subset the engine needs: elements, attributes, character data, CDATA
//! sections, comments, processing instructions, the five predefined
//! entities and numeric character references. DTDs, namespaces-as-URIs and
//! encodings other than UTF-8 are out of scope (the paper works with
//! well-formed documents only, §3.2).

use crate::error::{XdmError, XdmResult};
use crate::node::{NodeId, NodeKind};
use crate::qname::QName;
use crate::store::Store;

/// Default cap on XML element nesting depth; the `_with_limit` entry
/// points take an explicit one (the engine passes its
/// `Limits::max_xml_depth`, set through `Engine::set_limits`).
///
/// The element parser is iterative, so the cap is not about the thread
/// stack — it is a resource-governance bound: a maliciously deep document
/// is reported as `XQB0040` instead of ballooning the open-element stack.
pub const DEFAULT_MAX_XML_DEPTH: usize = 4096;

/// Parse an XML document into `store`, returning the new document node.
pub fn parse_document(store: &mut Store, input: &str) -> XdmResult<NodeId> {
    parse_document_with_limit(store, input, DEFAULT_MAX_XML_DEPTH)
}

/// [`parse_document`] with an explicit element-nesting depth limit.
/// Exceeding it yields an `XQB0040` error.
pub fn parse_document_with_limit(
    store: &mut Store,
    input: &str,
    max_depth: usize,
) -> XdmResult<NodeId> {
    let mut p = Parser {
        input: input.as_bytes(),
        pos: 0,
        store,
        max_depth,
    };
    let doc = p.store.new_document();
    p.skip_misc()?;
    if p.peek() != Some(b'<') {
        return Err(XdmError::parse("expected root element"));
    }
    let root = p.parse_element()?;
    p.store.append_child(doc, root)?;
    p.skip_misc()?;
    if p.pos != p.input.len() {
        return Err(XdmError::parse(format!(
            "trailing content at byte {} after root element",
            p.pos
        )));
    }
    Ok(doc)
}

/// Parse an XML *fragment* (possibly multiple top-level elements and text)
/// into parentless nodes. Useful in tests and the data generator.
pub fn parse_fragment(store: &mut Store, input: &str) -> XdmResult<Vec<NodeId>> {
    parse_fragment_with_limit(store, input, DEFAULT_MAX_XML_DEPTH)
}

/// [`parse_fragment`] with an explicit element-nesting depth limit.
pub fn parse_fragment_with_limit(
    store: &mut Store,
    input: &str,
    max_depth: usize,
) -> XdmResult<Vec<NodeId>> {
    let mut p = Parser {
        input: input.as_bytes(),
        pos: 0,
        store,
        max_depth,
    };
    let mut out = Vec::new();
    loop {
        match p.peek() {
            None => break,
            Some(b'<') => {
                if p.rest().starts_with(b"<!--") {
                    out.push(p.parse_comment()?);
                } else if p.rest().starts_with(b"<?") {
                    out.push(p.parse_pi()?);
                } else {
                    out.push(p.parse_element()?);
                }
            }
            Some(_) => {
                let text = p.parse_text()?;
                if !text.is_empty() {
                    let t = p.store.new_text(text);
                    out.push(t);
                }
            }
        }
    }
    Ok(out)
}

struct Parser<'a, 's> {
    input: &'a [u8],
    pos: usize,
    store: &'s mut Store,
    max_depth: usize,
}

impl<'a, 's> Parser<'a, 's> {
    fn peek(&self) -> Option<u8> {
        self.input.get(self.pos).copied()
    }

    fn rest(&self) -> &[u8] {
        &self.input[self.pos..]
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.rest().starts_with(s.as_bytes()) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> XdmResult<()> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(XdmError::parse(format!(
                "expected \"{s}\" at byte {}",
                self.pos
            )))
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    /// Skip whitespace, comments, PIs and an optional XML declaration —
    /// the "misc" that may surround the root element.
    fn skip_misc(&mut self) -> XdmResult<()> {
        loop {
            self.skip_ws();
            if self.rest().starts_with(b"<?xml") {
                // XML declaration: scan to "?>".
                self.skip_until("?>")?;
            } else if self.rest().starts_with(b"<!--") {
                self.parse_comment()?;
            } else if self.rest().starts_with(b"<!DOCTYPE") {
                return Err(XdmError::parse("DTDs are not supported"));
            } else if self.rest().starts_with(b"<?") {
                self.parse_pi()?;
            } else {
                return Ok(());
            }
        }
    }

    /// Advance past the next occurrence of `term` (inclusive).
    fn skip_until(&mut self, term: &str) -> XdmResult<()> {
        let bytes = term.as_bytes();
        while self.pos < self.input.len() {
            if self.rest().starts_with(bytes) {
                self.pos += bytes.len();
                return Ok(());
            }
            self.pos += 1;
        }
        Err(XdmError::parse(format!(
            "unterminated construct, expected \"{term}\""
        )))
    }

    fn parse_name(&mut self) -> XdmResult<QName> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(XdmError::parse(format!("expected a name at byte {start}")));
        }
        let s = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| XdmError::parse("invalid UTF-8 in name"))?;
        QName::parse(s).ok_or_else(|| XdmError::parse(format!("invalid QName \"{s}\"")))
    }

    /// Parse a start tag beginning at `<`: name, attributes, and either
    /// `>` (returns `open = true`) or `/>` (`open = false`).
    fn parse_start_tag(&mut self) -> XdmResult<(NodeId, QName, bool)> {
        self.expect("<")?;
        let name = self.parse_name()?;
        let elem = self.store.new_element(name.clone());
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.pos += 1;
                    return Ok((elem, name, true));
                }
                Some(b'/') => {
                    self.expect("/>")?;
                    return Ok((elem, name, false));
                }
                Some(_) => {
                    let aname = self.parse_name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let quote = match self.bump() {
                        Some(q @ (b'"' | b'\'')) => q,
                        _ => return Err(XdmError::parse("expected quoted attribute value")),
                    };
                    let vstart = self.pos;
                    while let Some(c) = self.peek() {
                        if c == quote {
                            break;
                        }
                        if c == b'<' {
                            return Err(XdmError::parse("'<' in attribute value"));
                        }
                        self.pos += 1;
                    }
                    let raw = std::str::from_utf8(&self.input[vstart..self.pos])
                        .map_err(|_| XdmError::parse("invalid UTF-8 in attribute value"))?;
                    let value = decode_entities(raw)?;
                    self.expect(std::str::from_utf8(&[quote]).unwrap())?;
                    let attr = self.store.new_attribute(aname, value);
                    self.store.attach_attribute(elem, attr)?;
                }
                None => return Err(XdmError::parse("unexpected end of input in start tag")),
            }
        }
    }

    /// Parse one element subtree (cursor at `<`).
    ///
    /// Iterative: the open elements live on an explicit `Vec` rather than
    /// the call stack, so arbitrarily deep input cannot overflow the thread
    /// stack — it trips the `max_depth` bound with `XQB0040` instead.
    fn parse_element(&mut self) -> XdmResult<NodeId> {
        // Open (started, not yet closed) ancestor elements, innermost last.
        let mut stack: Vec<(NodeId, QName)> = Vec::new();
        loop {
            // The cursor is at the `<` of a start tag. The new element sits
            // at nesting depth stack.len() + 1 (root = 1).
            if stack.len() >= self.max_depth {
                return Err(XdmError::new(
                    "XQB0040",
                    format!(
                        "XML element nesting depth limit exceeded (max {})",
                        self.max_depth
                    ),
                ));
            }
            let (elem, name, open) = self.parse_start_tag()?;
            if let Some(&(parent, _)) = stack.last() {
                self.store.append_child(parent, elem)?;
            }
            if open {
                stack.push((elem, name));
            } else if stack.is_empty() {
                return Ok(elem); // self-closing root
            }
            // Content of the innermost open element, until a child start
            // tag (back to the outer loop) or an end tag (pop).
            while let Some((cur, cur_name)) = stack.last().cloned() {
                match self.peek() {
                    None => {
                        return Err(XdmError::parse(format!(
                            "unexpected end of input inside <{cur_name}>"
                        )))
                    }
                    Some(b'<') => {
                        if self.rest().starts_with(b"</") {
                            self.expect("</")?;
                            let close = self.parse_name()?;
                            if close != cur_name {
                                return Err(XdmError::parse(format!(
                                    "mismatched end tag </{close}> for <{cur_name}>"
                                )));
                            }
                            self.skip_ws();
                            self.expect(">")?;
                            stack.pop();
                            if stack.is_empty() {
                                return Ok(cur);
                            }
                        } else if self.rest().starts_with(b"<!--") {
                            let c = self.parse_comment()?;
                            self.store.append_child(cur, c)?;
                        } else if self.rest().starts_with(b"<![CDATA[") {
                            let t = self.parse_cdata()?;
                            self.store.append_child(cur, t)?;
                        } else if self.rest().starts_with(b"<?") {
                            let pi = self.parse_pi()?;
                            self.store.append_child(cur, pi)?;
                        } else {
                            break; // child element: outer loop parses it
                        }
                    }
                    Some(_) => {
                        let text = self.parse_text()?;
                        if !text.is_empty() {
                            let t = self.store.new_text(text);
                            self.store.append_child(cur, t)?;
                        }
                    }
                }
            }
        }
    }

    fn parse_text(&mut self) -> XdmResult<String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c == b'<' {
                break;
            }
            self.pos += 1;
        }
        let raw = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| XdmError::parse("invalid UTF-8 in text"))?;
        decode_entities(raw)
    }

    fn parse_comment(&mut self) -> XdmResult<NodeId> {
        self.expect("<!--")?;
        let start = self.pos;
        while self.pos < self.input.len() && !self.rest().starts_with(b"-->") {
            self.pos += 1;
        }
        if self.pos >= self.input.len() {
            return Err(XdmError::parse("unterminated comment"));
        }
        let content = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| XdmError::parse("invalid UTF-8 in comment"))?
            .to_string();
        self.expect("-->")?;
        Ok(self.store.new_comment(content))
    }

    fn parse_cdata(&mut self) -> XdmResult<NodeId> {
        self.expect("<![CDATA[")?;
        let start = self.pos;
        while self.pos < self.input.len() && !self.rest().starts_with(b"]]>") {
            self.pos += 1;
        }
        if self.pos >= self.input.len() {
            return Err(XdmError::parse("unterminated CDATA section"));
        }
        let content = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| XdmError::parse("invalid UTF-8 in CDATA"))?
            .to_string();
        self.expect("]]>")?;
        Ok(self.store.new_text(content))
    }

    fn parse_pi(&mut self) -> XdmResult<NodeId> {
        self.expect("<?")?;
        let target = self.parse_name()?;
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.input.len() && !self.rest().starts_with(b"?>") {
            self.pos += 1;
        }
        if self.pos >= self.input.len() {
            return Err(XdmError::parse("unterminated processing instruction"));
        }
        let content = std::str::from_utf8(&self.input[start..self.pos])
            .map_err(|_| XdmError::parse("invalid UTF-8 in PI"))?
            .to_string();
        self.expect("?>")?;
        Ok(self.store.new_pi(target.to_string(), content))
    }
}

/// Decode the five predefined entities plus numeric character references.
pub fn decode_entities(s: &str) -> XdmResult<String> {
    if !s.contains('&') {
        return Ok(s.to_string());
    }
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        rest = &rest[i..];
        let semi = rest
            .find(';')
            .ok_or_else(|| XdmError::parse("unterminated entity reference"))?;
        let ent = &rest[1..semi];
        match ent {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "quot" => out.push('"'),
            "apos" => out.push('\''),
            _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                let cp = u32::from_str_radix(&ent[2..], 16)
                    .map_err(|_| XdmError::parse(format!("bad character reference &{ent};")))?;
                out.push(
                    char::from_u32(cp)
                        .ok_or_else(|| XdmError::parse(format!("invalid code point in &{ent};")))?,
                );
            }
            _ if ent.starts_with('#') => {
                let cp = ent[1..]
                    .parse::<u32>()
                    .map_err(|_| XdmError::parse(format!("bad character reference &{ent};")))?;
                out.push(
                    char::from_u32(cp)
                        .ok_or_else(|| XdmError::parse(format!("invalid code point in &{ent};")))?,
                );
            }
            _ => return Err(XdmError::parse(format!("unknown entity &{ent};"))),
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

/// Escape character data for serialization.
pub fn escape_text(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '&' => out.push_str("&amp;"),
            _ => out.push(c),
        }
    }
    out
}

/// Escape an attribute value (double-quote delimited).
pub fn escape_attribute(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '<' => out.push_str("&lt;"),
            '&' => out.push_str("&amp;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Serialize the subtree rooted at `node` to XML text.
pub fn serialize(store: &Store, node: NodeId) -> XdmResult<String> {
    let mut out = String::new();
    serialize_into(store, node, &mut out)?;
    Ok(out)
}

/// Serialize with indentation: element-only content is broken across
/// lines and indented two spaces per level; mixed content (any text
/// child) is left verbatim, as XML indentation there would change the
/// document's string value.
pub fn serialize_pretty(store: &Store, node: NodeId) -> XdmResult<String> {
    let mut out = String::new();
    pretty_into(store, node, 0, &mut out)?;
    Ok(out)
}

// Like the parser, the serializers are iterative with an explicit work
// stack: a document nested to the (configurable) depth limit must
// serialize without exhausting the native stack, same as it parses.
fn pretty_into(store: &Store, node: NodeId, depth: usize, out: &mut String) -> XdmResult<()> {
    enum Work {
        Node(NodeId, usize),
        /// `'\n'` between document-level children.
        Sep,
        /// `'\n'` plus indentation before a nested child.
        Line(usize),
        /// `'\n'`, indentation, and the close tag of an open element.
        Close(NodeId, usize),
    }
    let mut stack = vec![Work::Node(node, depth)];
    while let Some(w) = stack.pop() {
        let (node, depth) = match w {
            Work::Sep => {
                out.push('\n');
                continue;
            }
            Work::Line(d) => {
                out.push('\n');
                out.push_str(&"  ".repeat(d));
                continue;
            }
            Work::Close(n, d) => {
                out.push('\n');
                out.push_str(&"  ".repeat(d));
                out.push_str("</");
                let name = store.name_id(n)?.expect("element has a name");
                store.symbols().push_qname(name, out);
                out.push('>');
                continue;
            }
            Work::Node(n, d) => (n, d),
        };
        match store.kind(node)? {
            NodeKind::Document { children } => {
                for (i, &c) in children.iter().enumerate().rev() {
                    stack.push(Work::Node(c, depth));
                    if i > 0 {
                        stack.push(Work::Sep);
                    }
                }
            }
            NodeKind::Element { .. } => {
                let children = store.children(node)?;
                let has_text = children
                    .iter()
                    .any(|&c| matches!(store.kind(c), Ok(NodeKind::Text { .. })));
                if children.is_empty() || has_text {
                    // Leaf or mixed content: single-line, exact.
                    serialize_into(store, node, out)?;
                    continue;
                }
                // Element-only content: open tag, indented children, close.
                out.push('<');
                let name = store.name_id(node)?.expect("element has a name");
                store.symbols().push_qname(name, out);
                for &a in store.attributes(node)? {
                    if let NodeKind::Attribute { name, value } = store.kind(a)? {
                        out.push(' ');
                        store.symbols().push_qname(*name, out);
                        out.push_str("=\"");
                        out.push_str(&escape_attribute(value));
                        out.push('"');
                    }
                }
                out.push('>');
                stack.push(Work::Close(node, depth));
                for &c in children.iter().rev() {
                    stack.push(Work::Node(c, depth + 1));
                    stack.push(Work::Line(depth + 1));
                }
            }
            _ => serialize_into(store, node, out)?,
        }
    }
    Ok(())
}

fn serialize_into(store: &Store, node: NodeId, out: &mut String) -> XdmResult<()> {
    enum Work {
        Node(NodeId),
        Close(NodeId),
    }
    fn serialize_node(
        store: &Store,
        node: NodeId,
        stack: &mut Vec<Work>,
        out: &mut String,
    ) -> XdmResult<()> {
        match store.kind(node)? {
            NodeKind::Document { children } => {
                for &c in children.iter().rev() {
                    stack.push(Work::Node(c));
                }
            }
            NodeKind::Element { name, .. } => {
                out.push('<');
                store.symbols().push_qname(*name, out);
                for &a in store.attributes(node)? {
                    if let NodeKind::Attribute { name, value } = store.kind(a)? {
                        out.push(' ');
                        store.symbols().push_qname(*name, out);
                        out.push_str("=\"");
                        out.push_str(&escape_attribute(value));
                        out.push('"');
                    }
                }
                let children = store.children(node)?;
                if children.is_empty() {
                    out.push_str("/>");
                } else {
                    out.push('>');
                    stack.push(Work::Close(node));
                    for &c in children.iter().rev() {
                        stack.push(Work::Node(c));
                    }
                }
            }
            NodeKind::Attribute { name, value } => {
                // A bare attribute serializes as name="value" (useful for debug).
                store.symbols().push_qname(*name, out);
                out.push_str("=\"");
                out.push_str(&escape_attribute(value));
                out.push('"');
            }
            NodeKind::Text { content } => out.push_str(&escape_text(content)),
            NodeKind::Comment { content } => {
                out.push_str("<!--");
                out.push_str(content);
                out.push_str("-->");
            }
            NodeKind::Pi { target, content } => {
                out.push_str("<?");
                out.push_str(store.symbols().resolve(*target));
                if !content.is_empty() {
                    out.push(' ');
                    out.push_str(content);
                }
                out.push_str("?>");
            }
        }
        Ok(())
    }

    let mut stack = vec![Work::Node(node)];
    while let Some(w) = stack.pop() {
        let node = match w {
            Work::Close(n) => {
                out.push_str("</");
                let name = store.name_id(n)?.expect("element has a name");
                store.symbols().push_qname(name, out);
                out.push('>');
                continue;
            }
            Work::Node(n) => n,
        };
        serialize_node(store, node, &mut stack, out)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(xml: &str) -> String {
        let mut s = Store::new();
        let doc = parse_document(&mut s, xml).unwrap();
        serialize(&s, doc).unwrap()
    }

    #[test]
    fn simple_round_trip() {
        assert_eq!(
            round_trip("<a><b>hi</b><c x=\"1\"/></a>"),
            "<a><b>hi</b><c x=\"1\"/></a>"
        );
    }

    #[test]
    fn xml_declaration_and_misc() {
        let xml = "<?xml version=\"1.0\"?>\n<!-- head --><a/>\n";
        assert_eq!(round_trip(xml), "<a/>");
    }

    #[test]
    fn entities_decode_and_reencode() {
        assert_eq!(
            round_trip("<a>x &lt; y &amp; z</a>"),
            "<a>x &lt; y &amp; z</a>"
        );
        let mut s = Store::new();
        let d = parse_document(&mut s, "<a k=\"&quot;q&quot;\">&#65;&#x42;</a>").unwrap();
        let root = s.children(d).unwrap()[0];
        assert_eq!(s.string_value(root).unwrap(), "AB");
        let attr = s.attribute_by_name(root, "k").unwrap().unwrap();
        assert_eq!(s.string_value(attr).unwrap(), "\"q\"");
    }

    #[test]
    fn cdata_becomes_text() {
        let mut s = Store::new();
        let d = parse_document(&mut s, "<a><![CDATA[<raw&>]]></a>").unwrap();
        let root = s.children(d).unwrap()[0];
        assert_eq!(s.string_value(root).unwrap(), "<raw&>");
        // Serializes escaped.
        assert_eq!(serialize(&s, root).unwrap(), "<a>&lt;raw&amp;&gt;</a>");
    }

    #[test]
    fn comments_and_pis_preserved() {
        assert_eq!(
            round_trip("<a><!--note--><?tgt data?></a>"),
            "<a><!--note--><?tgt data?></a>"
        );
    }

    #[test]
    fn nested_structure() {
        let xml = "<r><p id=\"1\"><n>A</n></p><p id=\"2\"><n>B</n></p></r>";
        let mut s = Store::new();
        let d = parse_document(&mut s, xml).unwrap();
        let r = s.children(d).unwrap()[0];
        assert_eq!(s.children(r).unwrap().len(), 2);
        assert_eq!(s.string_value(r).unwrap(), "AB");
        assert_eq!(serialize(&s, d).unwrap(), xml);
    }

    #[test]
    fn parse_errors() {
        let mut s = Store::new();
        assert!(parse_document(&mut s, "<a><b></a>").is_err()); // mismatched
        assert!(parse_document(&mut s, "<a>").is_err()); // unterminated
        assert!(parse_document(&mut s, "<a/><b/>").is_err()); // two roots
        assert!(parse_document(&mut s, "plain text").is_err()); // no element
        assert!(parse_document(&mut s, "<a>&unknown;</a>").is_err());
        assert!(parse_document(&mut s, "<a k=1/>").is_err()); // unquoted attr
        assert!(parse_document(&mut s, "<!DOCTYPE a><a/>").is_err());
    }

    #[test]
    fn duplicate_attributes_rejected() {
        let mut s = Store::new();
        assert!(parse_document(&mut s, "<a k=\"1\" k=\"2\"/>").is_err());
    }

    #[test]
    fn fragment_parsing() {
        let mut s = Store::new();
        let nodes = parse_fragment(&mut s, "<a/>text<b/>").unwrap();
        assert_eq!(nodes.len(), 3);
        assert!(matches!(s.kind(nodes[1]).unwrap(), NodeKind::Text { .. }));
        for &n in &nodes {
            assert_eq!(s.parent(n).unwrap(), None);
        }
    }

    #[test]
    fn whitespace_text_preserved_inside_elements() {
        let mut s = Store::new();
        let d = parse_document(&mut s, "<a> <b/> </a>").unwrap();
        let a = s.children(d).unwrap()[0];
        assert_eq!(s.children(a).unwrap().len(), 3);
        assert_eq!(s.string_value(a).unwrap(), "  ");
    }

    #[test]
    fn pretty_serialization_indents_element_content() {
        let mut s = Store::new();
        let d = parse_document(&mut s, "<r><a><b>text</b></a><c x=\"1\"/></r>").unwrap();
        assert_eq!(
            serialize_pretty(&s, d).unwrap(),
            "<r>\n  <a>\n    <b>text</b>\n  </a>\n  <c x=\"1\"/>\n</r>"
        );
    }

    #[test]
    fn pretty_serialization_preserves_mixed_content() {
        let mut s = Store::new();
        let d = parse_document(&mut s, "<p>before <em>mid</em> after</p>").unwrap();
        let root = s.children(d).unwrap()[0];
        // Mixed content stays on one line, byte-identical to compact form.
        assert_eq!(
            serialize_pretty(&s, root).unwrap(),
            serialize(&s, root).unwrap()
        );
    }

    #[test]
    fn pretty_round_trips_string_value() {
        let mut s = Store::new();
        let d = parse_document(&mut s, "<r><a><b>xy</b></a></r>").unwrap();
        let pretty = serialize_pretty(&s, d).unwrap();
        let mut s2 = Store::new();
        let d2 = parse_document(&mut s2, &pretty).unwrap();
        // Indentation adds whitespace-only text nodes but no content text
        // inside the leaves.
        let b1 = s.descendants(d).unwrap();
        let b2 = s2.descendants(d2).unwrap();
        let texts = |s: &Store, ns: &[NodeId]| -> Vec<String> {
            ns.iter()
                .filter_map(|&n| match s.kind(n) {
                    Ok(NodeKind::Text { content }) if !content.trim().is_empty() => {
                        Some(content.clone())
                    }
                    _ => None,
                })
                .collect()
        };
        assert_eq!(texts(&s, &b1), texts(&s2, &b2));
    }

    #[test]
    fn million_deep_document_is_an_error_not_an_abort() {
        // Before the iterative rewrite this overflowed the thread stack and
        // aborted the whole process; now it must surface as XQB0040.
        let n = 1_000_000;
        let mut xml = String::with_capacity(n * 8);
        for _ in 0..n {
            xml.push_str("<a>");
        }
        xml.push('x');
        for _ in 0..n {
            xml.push_str("</a>");
        }
        let mut s = Store::new();
        let err = parse_document(&mut s, &xml).unwrap_err();
        assert_eq!(err.code, "XQB0040");
    }

    #[test]
    fn xml_depth_limit_is_configurable() {
        let mut s = Store::new();
        let err = parse_document_with_limit(&mut s, "<a><b><c/></b></a>", 2).unwrap_err();
        assert_eq!(err.code, "XQB0040");
        assert!(parse_document_with_limit(&mut s, "<a><b><c/></b></a>", 3).is_ok());
        // Fragments honour the limit too.
        assert!(parse_fragment_with_limit(&mut s, "<a><b/></a><c><d/></c>", 2).is_ok());
        assert_eq!(
            parse_fragment_with_limit(&mut s, "<a><b><c/></b></a>", 2)
                .unwrap_err()
                .code,
            "XQB0040"
        );
    }

    #[test]
    fn deep_but_legal_document_round_trips() {
        // Depth well past the old recursive parser's comfort zone but under
        // the default limit: must parse and serialize correctly.
        let n = 2000;
        let mut xml = String::new();
        for _ in 0..n {
            xml.push_str("<d>");
        }
        xml.push('x');
        for _ in 0..n {
            xml.push_str("</d>");
        }
        let mut s = Store::new();
        let doc = parse_document(&mut s, &xml).unwrap();
        assert_eq!(serialize(&s, doc).unwrap(), xml);
        // The pretty serializer is iterative too: element-only nesting at
        // this depth must indent, not overflow.
        let pretty = serialize_pretty(&s, doc).unwrap();
        assert!(pretty.starts_with("<d>\n  <d>"));
        assert!(pretty.ends_with("</d>\n</d>"));
    }

    #[test]
    fn prefixed_names() {
        let mut s = Store::new();
        let d = parse_document(&mut s, "<x:a x:k=\"v\"/>").unwrap();
        let a = s.children(d).unwrap()[0];
        assert_eq!(s.name(a).unwrap().unwrap().to_string(), "x:a");
    }
}
