//! Direct element constructors (`<log user="{$n}">{$e}</log>`).
//!
//! This is the context-sensitive corner of XQuery's grammar: inside a direct
//! constructor the input follows XML lexing rules, except that `{...}`
//! switches back to expression parsing (with `{{` / `}}` escaping literal
//! braces). The paper's Web-service examples (§2.2–2.5) lean heavily on
//! this — log entries are built with attribute value templates like
//! `user="{$name}"`.

use crate::ast::{AttrChunk, DirectContent, DirectElement, Expr};
use crate::cursor::{PResult, ParseError};
use crate::parser::Parser;

impl<'a> Parser<'a> {
    /// Parse a direct element constructor. The cursor is at `<`.
    pub(crate) fn parse_direct_constructor(&mut self) -> PResult<Expr> {
        let elem = self.parse_direct_element()?;
        Ok(Expr::Direct(elem))
    }

    pub(crate) fn parse_direct_element(&mut self) -> PResult<DirectElement> {
        self.cur.expect("<")?;
        let name = self.cur.read_name()?;
        let mut attributes = Vec::new();
        // Attributes — inside a tag, whitespace separates; no comments.
        loop {
            self.skip_xml_ws();
            match self.cur.peek() {
                Some(b'>') => {
                    self.cur.bump();
                    break;
                }
                Some(b'/') => {
                    self.cur.expect("/>")?;
                    return Ok(DirectElement {
                        name,
                        attributes,
                        content: vec![],
                    });
                }
                Some(_) => {
                    let aname = self.cur.read_name()?;
                    self.skip_xml_ws();
                    if self.cur.bump() != Some(b'=') {
                        return self.cur.err("expected '=' in attribute");
                    }
                    self.skip_xml_ws();
                    let chunks = self.parse_attr_value()?;
                    attributes.push((aname, chunks));
                }
                None => return self.cur.err("unexpected end of input in start tag"),
            }
        }
        // Content.
        let mut content = Vec::new();
        loop {
            match self.cur.peek() {
                None => return self.cur.err(format!("unterminated element <{name}>")),
                Some(b'<') => {
                    if self.cur.rest().starts_with(b"</") {
                        self.cur.expect("</")?;
                        let close = self.cur.read_name()?;
                        if close != name {
                            return self
                                .cur
                                .err(format!("mismatched end tag </{close}> for <{name}>"));
                        }
                        self.skip_xml_ws();
                        if self.cur.bump() != Some(b'>') {
                            return self.cur.err("expected '>' in end tag");
                        }
                        return Ok(DirectElement {
                            name,
                            attributes,
                            content,
                        });
                    }
                    if self.cur.rest().starts_with(b"<!--") {
                        // XML comment inside content: skipped (comments are
                        // insignificant to the paper's semantics).
                        self.cur.expect("<!--")?;
                        while !self.cur.rest().starts_with(b"-->") {
                            if self.cur.bump().is_none() {
                                return self.cur.err("unterminated XML comment");
                            }
                        }
                        self.cur.expect("-->")?;
                        continue;
                    }
                    self.enter()?;
                    let child = self.parse_direct_element();
                    self.leave();
                    content.push(DirectContent::Element(child?));
                }
                Some(b'{') => {
                    if self.cur.rest().starts_with(b"{{") {
                        self.cur.pos += 2;
                        content.push(DirectContent::Text("{".to_string()));
                        continue;
                    }
                    self.cur.bump();
                    let e = self.parse_expr()?;
                    self.cur.expect("}")?;
                    content.push(DirectContent::Enclosed(e));
                }
                Some(b'}') => {
                    if self.cur.rest().starts_with(b"}}") {
                        self.cur.pos += 2;
                        content.push(DirectContent::Text("}".to_string()));
                        continue;
                    }
                    return self.cur.err("unescaped '}' in element content");
                }
                Some(_) => {
                    let text = self.read_direct_text()?;
                    if !text.is_empty() {
                        content.push(DirectContent::Text(text));
                    }
                }
            }
        }
    }

    /// Attribute value template: `"lit{expr}lit..."`. A value that spans
    /// a [`plain`](crate::lift::plain) skeleton slot exactly reads as a
    /// string literal does, so it lifts into that slot.
    fn parse_attr_value(&mut self) -> PResult<Vec<AttrChunk>> {
        let open = self.cur.pos;
        if let Some((i, end)) = self.slot_at(open) {
            let contents = std::str::from_utf8(self.cur.slice(open + 1, end - 1));
            if contents.is_ok_and(crate::lift::plain) {
                self.cur.pos = end;
                return Ok(vec![AttrChunk::Param(i)]);
            }
        }
        let quote = match self.cur.bump() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return self.cur.err("expected quoted attribute value"),
        };
        let mut chunks = Vec::new();
        let mut lit = String::new();
        loop {
            match self.cur.peek() {
                None => return self.cur.err("unterminated attribute value"),
                Some(c) if c == quote => {
                    // Doubled quote escapes itself.
                    if self.cur.peek_at(1) == Some(quote) {
                        self.cur.pos += 2;
                        lit.push(quote as char);
                        continue;
                    }
                    self.cur.bump();
                    break;
                }
                Some(b'{') => {
                    if self.cur.peek_at(1) == Some(b'{') {
                        self.cur.pos += 2;
                        lit.push('{');
                        continue;
                    }
                    if !lit.is_empty() {
                        chunks.push(AttrChunk::Text(std::mem::take(&mut lit)));
                    }
                    self.cur.bump();
                    let e = self.parse_expr()?;
                    self.cur.expect("}")?;
                    chunks.push(AttrChunk::Enclosed(e));
                }
                Some(b'}') => {
                    if self.cur.peek_at(1) == Some(b'}') {
                        self.cur.pos += 2;
                        lit.push('}');
                        continue;
                    }
                    return self.cur.err("unescaped '}' in attribute value");
                }
                Some(b'&') => {
                    lit.push_str(&self.read_entity()?);
                }
                Some(b'<') => return self.cur.err("'<' in attribute value"),
                Some(_) => match self.cur.bump_char() {
                    Some(c) => lit.push(c),
                    None => return self.cur.err("invalid UTF-8 in attribute value"),
                },
            }
        }
        if !lit.is_empty() || chunks.is_empty() {
            chunks.push(AttrChunk::Text(lit));
        }
        Ok(chunks)
    }

    /// Literal text content up to `<`, `{`, or `}`.
    fn read_direct_text(&mut self) -> PResult<String> {
        let mut out = String::new();
        loop {
            match self.cur.peek() {
                None | Some(b'<') | Some(b'{') | Some(b'}') => break,
                Some(b'&') => out.push_str(&self.read_entity()?),
                Some(_) => {
                    let start = self.cur.pos;
                    while !matches!(self.cur.peek(), None | Some(b'<' | b'{' | b'}' | b'&')) {
                        self.cur.pos += 1;
                    }
                    let chunk = std::str::from_utf8(self.cur.slice(start, self.cur.pos))
                        .map_err(|_| ParseError::new(start, "invalid UTF-8"))?;
                    out.push_str(chunk);
                }
            }
        }
        Ok(out)
    }

    fn read_entity(&mut self) -> PResult<String> {
        // Cursor at '&'.
        let start = self.cur.pos;
        self.cur.bump();
        let semi = match self.cur.rest().iter().position(|&b| b == b';') {
            Some(i) => i,
            None => return self.cur.err("unterminated entity reference"),
        };
        let ent = std::str::from_utf8(&self.cur.rest()[..semi])
            .map_err(|_| ParseError::new(start, "invalid UTF-8"))?
            .to_string();
        self.cur.pos += semi + 1;
        xqdm::xml::decode_entities(&format!("&{ent};"))
            .map_err(|e| ParseError::new(start, e.to_string()))
    }

    /// XML whitespace (no XQuery comments inside tags).
    fn skip_xml_ws(&mut self) {
        while matches!(self.cur.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.cur.pos += 1;
        }
    }
}
