//! Literal lifting: one program per query shape (DESIGN.md §15).
//!
//! A text's [`Skeleton`] is the text with the contents of every quoted
//! span removed. A context-free scan finds the spans, knowing nothing of
//! the grammar; they are the text's *slots*. A slot is *plain* when its
//! contents hold no `{`, `}`, `&`, `<` and no whitespace but the space
//! ([`plain`]); the skeleton keeps each slot as its empty literal (`""`),
//! or as `"&"` when it is not plain. A lifting parse ([`compile_lifted`])
//! turns each string-literal primary expression that spans one slot
//! exactly, and each direct attribute value that spans a plain slot
//! exactly, into [`Core::Param`] of that slot, whose value is bound per
//! run ([`Skeleton::bind`]). Every other slot is *pinned*: a quote in
//! direct-constructor content, an attribute value that is not plain, a
//! quote in a comment, or a span the scan cut across code. A pinned
//! slot's text is part of the text's key ([`Skeleton::pinned`]).
//!
//! The skeleton and the pinned texts give back the whole text but the
//! lifted slots' contents, and what a lifted slot holds never changes how
//! the rest of the text parses: the scan ends a span where the parser
//! ends the literal or the attribute value (at the quote not doubled; an
//! entity reference holds no quote), and whether an attribute value is
//! one plain text — no enclosed expression, no reference — is in the
//! skeleton. So two texts with one key are one program run with different
//! parameters, and a key never stands for two programs.

use crate::core::{Core, CoreProgram};
use crate::cursor::Cursor;
use crate::normalize::normalize_program;
use crate::parser::{parse_program_lifting, ParseError};
use std::ops::Range;
use xqdm::atomic::Atomic;

/// A query text and its skeleton: the text with each slot's contents
/// removed, the slot kept as its empty literal (`""` or `''`), or as
/// `"&"` (`'&'`) when its contents are not [`plain`].
#[derive(Debug, Clone, PartialEq)]
pub struct Skeleton<'t> {
    source: &'t str,
    text: String,
    slots: Vec<Range<usize>>,
}

impl<'t> Skeleton<'t> {
    /// Scan `source` for its slots: each span from a quote (`"` or `'`)
    /// to the next one of its kind that is not doubled. A quote with no
    /// closing one ends the scan; the rest of the text stays as it is.
    pub fn of(source: &'t str) -> Skeleton<'t> {
        let bytes = source.as_bytes();
        let mut text = String::with_capacity(source.len());
        let mut slots = Vec::new();
        let mut copied = 0;
        let mut at = 0;
        while let Some(open) = bytes[at..]
            .iter()
            .position(|&b| b == b'"' || b == b'\'')
            .map(|i| at + i)
        {
            let quote = bytes[open];
            let Some(end) = closing(bytes, open, quote) else {
                break;
            };
            text.push_str(&source[copied..open]);
            text.push(char::from(quote));
            if !plain(&source[open + 1..end - 1]) {
                text.push('&');
            }
            text.push(char::from(quote));
            slots.push(open..end);
            copied = end;
            at = end;
        }
        text.push_str(&source[copied..]);
        Skeleton {
            source,
            text,
            slots,
        }
    }

    /// The skeleton text: one per query shape and pinned-slot layout.
    pub fn text(&self) -> &str {
        &self.text
    }

    /// Each slot's byte span in the source, quotes included, in text order.
    pub fn slots(&self) -> &[Range<usize>] {
        &self.slots
    }

    /// The source text of every slot `lifted` (sorted slot indices) does
    /// not list, quotes included, in text order: the pinned share of the
    /// text's key.
    pub fn pinned<'s>(&'s self, lifted: &'s [usize]) -> impl Iterator<Item = &'t str> + 's {
        self.slots
            .iter()
            .enumerate()
            .filter(|(i, _)| lifted.binary_search(i).is_err())
            .map(|(_, span)| &self.source[span.clone()])
    }

    /// The parameters a run of the text's lifted program reads: for each
    /// slot `lifted` lists, the value of its literal; every other slot
    /// holds an empty string no `Param` reads. `None` when a lifted
    /// slot's literal does not decode (a bad entity reference): the text
    /// does not parse, and parsing it reports why.
    pub fn bind(&self, lifted: &[usize]) -> Option<Vec<Atomic>> {
        let mut params = vec![Atomic::String(String::new()); self.slots.len()];
        for &i in lifted {
            params[i] = Atomic::String(literal_value(&self.source[self.slots.get(i)?.clone()])?);
        }
        Some(params)
    }
}

/// May a slot with these contents (quotes excluded) lift as a direct
/// attribute value? Only when they read as written: no `{`, `}` (an
/// enclosed expression, or an escaped brace), no `&` (a reference), no
/// `<`, and no whitespace but the space, which attribute-value
/// normalization would leave as it is.
pub(crate) fn plain(contents: &str) -> bool {
    !contents
        .chars()
        .any(|c| matches!(c, '{' | '}' | '&' | '<') || (c.is_whitespace() && c != ' '))
}

/// The value of the string literal `raw` (quotes included), decoded as
/// the parser decodes it; `None` unless `raw` is exactly one literal.
fn literal_value(raw: &str) -> Option<String> {
    let contents = raw.get(1..raw.len().saturating_sub(1))?;
    // Most literals hold no escape: their value is their text.
    if !contents.contains(['&', '"', '\'']) {
        return Some(contents.to_string());
    }
    let mut cursor = Cursor::new(raw);
    let value = cursor.read_string_literal().ok()?;
    (cursor.pos == raw.len()).then_some(value)
}

/// One past the quote that closes the literal `quote` opens at `open`;
/// a doubled quote is an escaped one. `None` when no quote closes it.
fn closing(bytes: &[u8], open: usize, quote: u8) -> Option<usize> {
    let mut at = open + 1;
    loop {
        let close = at + bytes[at..].iter().position(|&b| b == quote)?;
        if bytes.get(close + 1) == Some(&quote) {
            at = close + 2;
        } else {
            return Some(close + 1);
        }
    }
}

/// Parse and normalize `skeleton`'s source, lifting the string literals
/// that span a slot exactly into [`Core::Param`]s. The program a run
/// with [`Skeleton::bind`]'s parameters gives the value, store and error
/// that [`crate::compile_with_limit`]'s unlifted program gives.
pub fn compile_lifted(skeleton: &Skeleton, max_depth: usize) -> Result<CoreProgram, ParseError> {
    let program = parse_program_lifting(skeleton.source, max_depth, &skeleton.slots)?;
    Ok(normalize_program(&program))
}

/// The slots `program` lifted, sorted: the [`Core::Param`] slots of its
/// prolog variables, function bodies and body. Every other slot of its
/// text is pinned.
pub fn lifted_slots(program: &CoreProgram) -> Vec<usize> {
    let mut slots = Vec::new();
    let mut collect = |core: &Core| {
        core.walk(&mut |e| {
            if let Core::Param(i) = e {
                slots.push(*i);
            }
        })
    };
    program.variables.iter().for_each(|(_, init)| collect(init));
    program.functions.iter().for_each(|f| collect(&f.body));
    collect(&program.body);
    slots.sort_unstable();
    slots.dedup();
    slots
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lifted(text: &str) -> (String, Vec<usize>, Vec<String>) {
        let skeleton = Skeleton::of(text);
        let program = compile_lifted(&skeleton, crate::DEFAULT_MAX_PARSE_DEPTH).unwrap();
        let lifted = lifted_slots(&program);
        let pinned = skeleton.pinned(&lifted).map(str::to_string).collect();
        (skeleton.text().to_string(), lifted, pinned)
    }

    #[test]
    fn the_scan_empties_each_quoted_span() {
        let s = Skeleton::of(r#"$a//p[@id = "p7"]/name, 'it''s', "a""b""#);
        assert_eq!(s.text(), r#"$a//p[@id = ""]/name, '', """#);
        assert_eq!(s.slots().len(), 3);
        // An unclosed quote ends the scan; the rest stays.
        let s = Skeleton::of(r#"<a>it's</a>, "x""#);
        assert_eq!(s.text(), r#"<a>it's</a>, "x""#);
        assert!(s.slots().is_empty());
    }

    #[test]
    fn a_literal_primary_lifts_and_everything_else_pins() {
        let (skeleton, slots, pinned) = lifted(r#"$d//person[@id = "person7"]/name"#);
        assert_eq!(skeleton, r#"$d//person[@id = ""]/name"#);
        assert_eq!((slots, pinned), (vec![0], vec![]));
        // Constructor content is markup, not a literal; a quote in a
        // comment is no literal either. A plain attribute value lifts.
        let (_, slots, pinned) = lifted(r#"<a b="x">"y"</a>, (: "z" :) "w""#);
        assert_eq!(slots, vec![0, 3]);
        assert_eq!(pinned, [r#""y""#, r#""z""#]);
        // An attribute value that is not plain is pinned, and marked in
        // the skeleton: it never shares a shape with a plain one.
        for value in ["{$x}", "a{{b", "a&amp;b", "a\tb"] {
            let text = format!(r#"<a b="{value}"/>"#);
            let (skeleton, slots, pinned) = lifted(&text);
            assert_eq!(skeleton, r#"<a b="&"/>"#, "{value}");
            assert_eq!(slots, Vec::<usize>::new(), "{value}");
            assert_eq!(pinned, [format!(r#""{value}""#)]);
        }
        let (skeleton, slots, _) = lifted(r#"<a b="x y" c=''/>"#);
        assert_eq!(
            (skeleton.as_str(), slots),
            (r#"<a b="" c=''/>"#, vec![0, 1])
        );
        // An enclosed expression's literal lifts.
        let (_, slots, _) = lifted(r#"<a>{ "x" }</a>"#);
        assert_eq!(slots, vec![0]);
    }

    #[test]
    fn binding_decodes_what_the_parser_decodes() {
        let text = r#"concat("a""b", 'c&amp;d', "e")"#;
        let skeleton = Skeleton::of(text);
        let program = compile_lifted(&skeleton, crate::DEFAULT_MAX_PARSE_DEPTH).unwrap();
        let params = skeleton.bind(&lifted_slots(&program)).unwrap();
        let strings: Vec<String> = params.iter().map(Atomic::string_value).collect();
        assert_eq!(strings, ["a\"b", "c&d", "e"]);
        // A bad entity reference binds nothing: the text does not parse.
        let bad = r#"concat("a&bogus;", "e")"#;
        assert!(Skeleton::of(bad).bind(&[0, 1]).is_none());
        assert!(crate::compile(bad).is_err());
    }

    #[test]
    fn the_program_holds_the_slot_not_the_value() {
        let a = Skeleton::of(r#"$d//p[@id = "p1"]"#);
        let b = Skeleton::of(r#"$d//p[@id = "p2"]"#);
        let depth = crate::DEFAULT_MAX_PARSE_DEPTH;
        assert_eq!(a.text(), b.text());
        assert_eq!(
            compile_lifted(&a, depth).unwrap().fingerprint(),
            compile_lifted(&b, depth).unwrap().fingerprint()
        );
        assert_ne!(
            crate::compile(a.source).unwrap().fingerprint(),
            crate::compile(b.source).unwrap().fingerprint()
        );
    }
}
