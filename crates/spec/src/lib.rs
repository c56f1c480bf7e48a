//! # xqspec — a definitional oracle for XQuery!
//!
//! The paper's judgment `store0; dynEnv ⊢ Expr ⇒ value; Δ; store1`
//! (§3.4, Appendix B) written down once, as literally as it reads, for
//! tests to check the engine against. Following Cheney's *Flux*, the
//! operational semantics is the reference an implementation answers to;
//! nothing here is fast, and nothing here is shared with the engine's
//! evaluator, store or update vocabulary:
//!
//! * **Store** — a plain tree in a `Vec` arena. A node's document order is
//!   its position in its tree (attributes before children); separate
//!   trees order by their roots' creation. No index, journal, pages or
//!   order keys.
//! * **Δ** — a list of this crate's own [`Request`]s, concatenated in
//!   evaluation order and applied, in order, when its `snap` closes.
//! * **Evaluator** — [`eval`] threads the store through every rule and
//!   returns the value, the Δ the expression requested and the store
//!   after it.
//!
//! The fragment is ordered-mode XQuery!: FLWOR, the child / descendant /
//! attribute / parent / self axes, predicates, comparisons, integer and
//! string arithmetic, constructors, `insert` / `delete` / `rename` /
//! `replace value of`, nested `snap`, and the built-ins in [`BUILTINS`].
//! Anything else stops with [`Stuck::Unsupported`], so a test can tell
//! "the oracle disagrees" from "the oracle has no opinion".

mod eval;

pub use eval::{eval, run, BUILTINS};

use std::cell::RefCell;
use std::rc::Rc;
use xqsyn::ast::SnapMode;

/// A node: an index into the [`Store`] arena.
pub type NodeId = usize;

/// What a node is.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Kind {
    /// A document node.
    Document,
    /// An element and its name.
    Element(String),
    /// An attribute: name and value.
    Attribute(String, String),
    /// A text node and its content.
    Text(String),
}

/// One arena slot.
#[derive(Debug, Clone)]
pub(crate) struct Node {
    /// What the node is.
    pub(crate) kind: Kind,
    /// Its parent, if attached.
    pub(crate) parent: Option<NodeId>,
    /// Its attributes, in order (elements only).
    pub(crate) attrs: Vec<NodeId>,
    /// Its children, in order (documents and elements only).
    pub(crate) children: Vec<NodeId>,
}

/// The store: every node ever made, documents and constructed trees alike.
/// Nodes are never freed; a deleted node is detached and stays reachable
/// through whatever variable still holds it.
#[derive(Debug, Clone, Default)]
pub struct Store {
    nodes: Vec<Node>,
    /// Every node's rank in document order, numbered on first use after
    /// the last change.
    order: RefCell<Option<Rc<[usize]>>>,
}

/// An atomic value.
#[derive(Debug, Clone, PartialEq)]
pub enum Atom {
    /// `xs:integer`.
    Int(i64),
    /// `xs:double` (decimals too).
    Dbl(f64),
    /// `xs:string`.
    Str(String),
    /// `xs:boolean`.
    Bool(bool),
    /// `xs:untypedAtomic`: what a node atomizes to.
    Untyped(String),
}

/// An item of a value.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A node of the store.
    Node(NodeId),
    /// An atomic value.
    Atom(Atom),
}

/// A value: a flat sequence of items.
pub type Value = Vec<Item>;

/// Where an insert request puts its nodes under its parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum At {
    /// Before every child.
    First,
    /// After every child.
    Last,
    /// Right after this child.
    After(NodeId),
}

/// One update request of a Δ (Appendix B's `insert`, `delete`, `rename`
/// and the value-setting `replace value of`).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Attach parentless `nodes` under `parent` at `at`.
    Insert {
        /// The nodes, in order.
        nodes: Vec<NodeId>,
        /// The new parent.
        parent: NodeId,
        /// The position among its children.
        at: At,
    },
    /// Detach a node from its parent.
    Delete(NodeId),
    /// Give an element or attribute a new name.
    Rename(NodeId, String),
    /// Set a text node's content or an attribute's value.
    SetValue(NodeId, String),
}

/// A Δ: requests in evaluation order.
pub type Delta = Vec<Request>;

/// Why evaluation stopped.
#[derive(Debug, Clone, PartialEq)]
pub enum Stuck {
    /// A dynamic error, by its code (`FOAR0001`, `XPTY0004`, …).
    Error(String),
    /// The expression leaves the fragment this oracle defines.
    Unsupported(String),
}

/// A stopped evaluation, with the store as it stood: snaps closed before
/// the error stay applied (§2.3).
#[derive(Debug, Clone)]
pub struct Failure {
    /// Why it stopped.
    pub stuck: Stuck,
    /// The store at that point.
    pub store: Store,
}

/// The result of one rule.
pub type Outcome<T> = Result<T, Failure>;

/// Stop with a dynamic error.
pub(crate) fn error<T>(code: &str) -> Result<T, Stuck> {
    Err(Stuck::Error(code.to_string()))
}

/// Stop outside the fragment.
pub(crate) fn unsupported<T>(what: impl Into<String>) -> Result<T, Stuck> {
    Err(Stuck::Unsupported(what.into()))
}

/// A dynamic environment: variable bindings, innermost first, and the
/// focus (context item, position, size) when there is one. Binding shares
/// the outer bindings instead of copying them.
#[derive(Debug, Clone, Default)]
pub struct Env {
    vars: Option<Rc<Binding>>,
    focus: Option<(Item, usize, usize)>,
    /// The strings a lifted program's `Param` slots read, by slot.
    params: Rc<[String]>,
}

#[derive(Debug)]
struct Binding {
    name: String,
    value: Value,
    outer: Option<Rc<Binding>>,
}

impl Env {
    /// The empty environment.
    pub fn new() -> Env {
        Env::default()
    }

    /// This environment with `name` bound to `value`.
    pub fn bind(&self, name: &str, value: Value) -> Env {
        Env {
            vars: Some(Rc::new(Binding {
                name: name.to_string(),
                value,
                outer: self.vars.clone(),
            })),
            focus: self.focus.clone(),
            params: self.params.clone(),
        }
    }

    /// This environment with a lifted program's slots bound: `Param(i)`
    /// is the string `params[i]`.
    pub fn with_params(&self, params: Vec<String>) -> Env {
        Env {
            params: params.into(),
            ..self.clone()
        }
    }

    pub(crate) fn param(&self, i: usize) -> Option<&str> {
        self.params.get(i).map(String::as_str)
    }

    /// This environment with the focus on `item`, at `position` of `size`.
    pub(crate) fn focus_on(&self, item: Item, position: usize, size: usize) -> Env {
        let mut env = self.clone();
        env.focus = Some((item, position, size));
        env
    }

    pub(crate) fn var(&self, name: &str) -> Option<&Value> {
        let mut binding = self.vars.as_deref();
        while let Some(b) = binding {
            if b.name == name {
                return Some(&b.value);
            }
            binding = b.outer.as_deref();
        }
        None
    }

    pub(crate) fn context_item(&self) -> Option<&Item> {
        self.focus.as_ref().map(|(item, _, _)| item)
    }
}

impl Store {
    /// An empty store.
    pub fn new() -> Store {
        Store::default()
    }

    /// The node `id` names.
    pub(crate) fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// Make a parentless node.
    pub(crate) fn make(&mut self, kind: Kind) -> NodeId {
        self.changed();
        self.nodes.push(Node {
            kind,
            parent: None,
            attrs: Vec::new(),
            children: Vec::new(),
        });
        self.nodes.len() - 1
    }

    /// Link `child` as the last child (or attribute) of `parent`.
    pub(crate) fn append(&mut self, parent: NodeId, child: NodeId) {
        self.changed();
        self.nodes[child].parent = Some(parent);
        match self.nodes[child].kind {
            Kind::Attribute(..) => self.nodes[parent].attrs.push(child),
            _ => self.nodes[parent].children.push(child),
        }
    }

    /// A parentless deep copy of `id`.
    pub(crate) fn deep_copy(&mut self, id: NodeId) -> NodeId {
        let node = self.nodes[id].clone();
        let copy = self.make(node.kind);
        for part in node.attrs.into_iter().chain(node.children) {
            let part = self.deep_copy(part);
            self.append(copy, part);
        }
        copy
    }

    /// The string value: the content of a text node or attribute, the
    /// concatenated descendant text of an element or document.
    pub(crate) fn string_value(&self, id: NodeId) -> String {
        match &self.nodes[id].kind {
            Kind::Text(s) | Kind::Attribute(_, s) => s.clone(),
            Kind::Element(_) | Kind::Document => self.nodes[id]
                .children
                .iter()
                .map(|&c| match self.nodes[c].kind {
                    Kind::Attribute(..) => String::new(),
                    _ => self.string_value(c),
                })
                .collect(),
        }
    }

    /// Forget the document-order numbering.
    fn changed(&mut self) {
        *self.order.get_mut() = None;
    }

    /// Every node's rank in document order: trees by their roots' ids,
    /// and within a tree the node, its attributes, then its children's
    /// trees.
    fn ranks(&self) -> Rc<[usize]> {
        if let Some(order) = &*self.order.borrow() {
            return order.clone();
        }
        let mut rank = vec![0; self.nodes.len()];
        let mut next = 0;
        let mut stack: Vec<NodeId> = Vec::new();
        for root in (0..self.nodes.len()).filter(|&n| self.nodes[n].parent.is_none()) {
            stack.push(root);
            while let Some(id) = stack.pop() {
                rank[id] = next;
                next += 1;
                let node = &self.nodes[id];
                stack.extend(node.attrs.iter().chain(&node.children).rev());
            }
        }
        let rank: Rc<[usize]> = rank.into();
        *self.order.borrow_mut() = Some(rank.clone());
        rank
    }

    /// Sort `nodes` into document order and drop duplicates.
    pub(crate) fn doc_order(&self, nodes: &mut Vec<NodeId>) {
        if nodes.len() < 2 {
            return;
        }
        let rank = self.ranks();
        nodes.sort_by_key(|&n| rank[n]);
        nodes.dedup();
    }

    /// Does `a` come before `b` in document order?
    pub(crate) fn precedes(&self, a: NodeId, b: NodeId) -> bool {
        let rank = self.ranks();
        rank[a] < rank[b]
    }

    /// Parse an XML document (elements, attributes, text and the five
    /// predefined entities plus character references) into a new document
    /// node. Whitespace-only text is kept, as in the engine's loader.
    pub fn parse_document(&mut self, xml: &str) -> Result<NodeId, Stuck> {
        let doc = self.make(Kind::Document);
        let mut open = vec![doc];
        let mut rest = xml.trim();
        if let Some(decl) = rest.strip_prefix("<?xml") {
            rest = decl.split_once("?>").map_or("", |(_, r)| r).trim_start();
        }
        while !rest.is_empty() {
            let parent = *open.last().unwrap();
            if let Some(close) = rest.strip_prefix("</") {
                let (_, after) = close
                    .split_once('>')
                    .ok_or(Stuck::Error("XQB0003".into()))?;
                open.pop();
                rest = after;
            } else if rest.starts_with("<!") || rest.starts_with("<?") {
                return unsupported("comments, processing instructions and CDATA");
            } else if let Some(tag) = rest.strip_prefix('<') {
                // The tag ends at the first `>` outside a quoted value.
                let mut quote = None;
                let end = tag
                    .char_indices()
                    .find(|&(_, c)| {
                        match quote {
                            Some(q) if c == q => quote = None,
                            None if c == '"' || c == '\'' => quote = Some(c),
                            _ => {}
                        }
                        quote.is_none() && c == '>'
                    })
                    .map(|(i, _)| i)
                    .ok_or(Stuck::Error("XQB0003".into()))?;
                let (body, empty) = match tag[..end].strip_suffix('/') {
                    Some(body) => (body, true),
                    None => (&tag[..end], false),
                };
                let (name, mut attrs) = body
                    .split_once(|c: char| c.is_whitespace())
                    .unwrap_or((body, ""));
                let element = self.make(Kind::Element(name.to_string()));
                self.append(parent, element);
                loop {
                    attrs = attrs.trim_start();
                    let Some((name, value)) = attrs.split_once('=') else {
                        break;
                    };
                    let value = value.trim_start();
                    let quote = value.chars().next().ok_or(Stuck::Error("XQB0003".into()))?;
                    let (text, after) = value[1..]
                        .split_once(quote)
                        .ok_or(Stuck::Error("XQB0003".into()))?;
                    let attr = self.make(Kind::Attribute(name.trim().to_string(), decode(text)?));
                    self.append(element, attr);
                    attrs = after;
                }
                if !empty {
                    open.push(element);
                }
                rest = &tag[end + 1..];
            } else {
                let end = rest.find('<').unwrap_or(rest.len());
                let text = self.make(Kind::Text(decode(&rest[..end])?));
                self.append(parent, text);
                rest = &rest[end..];
            }
        }
        Ok(doc)
    }

    /// Serialize `id` as the engine's serializer does: `<a x="v">…</a>`,
    /// `<a/>` when childless, a bare attribute as `x="v"`, text escaped.
    pub fn serialize(&self, id: NodeId) -> String {
        let mut out = String::new();
        self.serialize_into(id, &mut out);
        out
    }

    fn serialize_into(&self, id: NodeId, out: &mut String) {
        let node = &self.nodes[id];
        match &node.kind {
            Kind::Document => node
                .children
                .iter()
                .for_each(|&c| self.serialize_into(c, out)),
            Kind::Element(name) => {
                out.push('<');
                out.push_str(name);
                for &a in &node.attrs {
                    out.push(' ');
                    self.serialize_into(a, out);
                }
                if node.children.is_empty() {
                    out.push_str("/>");
                    return;
                }
                out.push('>');
                node.children
                    .iter()
                    .for_each(|&c| self.serialize_into(c, out));
                out.push_str("</");
                out.push_str(name);
                out.push('>');
            }
            Kind::Attribute(name, value) => {
                out.push_str(name);
                out.push_str("=\"");
                out.push_str(&escape(
                    value,
                    &[('<', "&lt;"), ('&', "&amp;"), ('"', "&quot;")],
                ));
                out.push('"');
            }
            Kind::Text(s) => {
                out.push_str(&escape(s, &[('<', "&lt;"), ('>', "&gt;"), ('&', "&amp;")]));
            }
        }
    }

    /// Serialize a value: each item (a node as XML, an atomic as its
    /// string value), separated by single spaces.
    pub fn serialize_value(&self, value: &Value) -> String {
        let parts: Vec<String> = value
            .iter()
            .map(|item| match item {
                Item::Node(n) => self.serialize(*n),
                Item::Atom(a) => a.string(),
            })
            .collect();
        parts.join(" ")
    }

    /// Apply `delta` in order (ordered mode, the only mode this oracle
    /// defines). A request whose precondition fails stops the whole Δ
    /// with `XQB0002` and leaves the store as it was before the Δ.
    pub(crate) fn apply(&self, mode: SnapMode, delta: &Delta) -> Result<Store, Stuck> {
        if mode != SnapMode::Ordered {
            return unsupported("snap modes other than ordered");
        }
        let mut store = self.clone();
        for request in delta {
            store.apply_one(request)?;
        }
        Ok(store)
    }

    fn apply_one(&mut self, request: &Request) -> Result<(), Stuck> {
        self.changed();
        match request {
            Request::Insert { nodes, parent, at } => {
                if !matches!(self.nodes[*parent].kind, Kind::Element(_) | Kind::Document) {
                    return error("XQB0002");
                }
                for &n in nodes {
                    let node = &self.nodes[n];
                    if node.parent.is_some()
                        || matches!(node.kind, Kind::Attribute(..) | Kind::Document)
                    {
                        return error("XQB0002");
                    }
                }
                let children = &self.nodes[*parent].children;
                let index = match at {
                    At::First => 0,
                    At::Last => children.len(),
                    At::After(anchor) => match children.iter().position(|c| c == anchor) {
                        Some(i) => i + 1,
                        None => return error("XQB0002"),
                    },
                };
                for (i, &n) in nodes.iter().enumerate() {
                    self.nodes[n].parent = Some(*parent);
                    self.nodes[*parent].children.insert(index + i, n);
                }
            }
            Request::Delete(n) => {
                if let Some(p) = self.nodes[*n].parent.take() {
                    let parent = &mut self.nodes[p];
                    parent.children.retain(|c| c != n);
                    parent.attrs.retain(|a| a != n);
                }
            }
            Request::Rename(n, name) => match &mut self.nodes[*n].kind {
                Kind::Element(old) => *old = name.clone(),
                Kind::Attribute(..) => return unsupported("renaming an attribute"),
                _ => return unsupported("renaming a text or document node"),
            },
            Request::SetValue(n, value) => match &mut self.nodes[*n].kind {
                Kind::Text(old) | Kind::Attribute(_, old) => *old = value.clone(),
                _ => unreachable!("the rule checked the target's kind"),
            },
        }
        Ok(())
    }
}

impl Atom {
    /// The string value (`fn:string` of the atomic).
    pub fn string(&self) -> String {
        match self {
            Atom::Int(i) => i.to_string(),
            Atom::Dbl(d) => format_double(*d),
            Atom::Str(s) | Atom::Untyped(s) => s.clone(),
            Atom::Bool(b) => b.to_string(),
        }
    }
}

/// XPath's canonical double: `NaN`, `INF`, an integral value without a
/// fraction below 10¹⁵, else the shortest round-trip form.
fn format_double(d: f64) -> String {
    if d.is_nan() {
        "NaN".into()
    } else if d.is_infinite() {
        if d > 0.0 { "INF" } else { "-INF" }.into()
    } else if d == d.trunc() && d.abs() < 1e15 {
        format!("{}", d as i64)
    } else {
        format!("{d}")
    }
}

fn escape(s: &str, table: &[(char, &str)]) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match table.iter().find(|(k, _)| *k == c) {
            Some((_, e)) => out.push_str(e),
            None => out.push(c),
        }
    }
    out
}

/// Decode the predefined entities and character references.
fn decode(s: &str) -> Result<String, Stuck> {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(i) = rest.find('&') {
        out.push_str(&rest[..i]);
        let (entity, after) = rest[i + 1..]
            .split_once(';')
            .ok_or(Stuck::Error("XQB0003".into()))?;
        let c = match entity {
            "lt" => '<',
            "gt" => '>',
            "amp" => '&',
            "quot" => '"',
            "apos" => '\'',
            _ => {
                let code = match entity.strip_prefix("#x") {
                    Some(hex) => u32::from_str_radix(hex, 16),
                    None => entity.trim_start_matches('#').parse(),
                };
                code.ok()
                    .and_then(char::from_u32)
                    .ok_or(Stuck::Error("XQB0003".into()))?
            }
        };
        out.push(c);
        rest = after;
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn documents_round_trip_through_the_serializer() {
        let mut store = Store::new();
        let xml = "<a x=\"1>2\" y='&quot;'> t&amp;<b/><c>&lt;</c></a>";
        let doc = store.parse_document(xml).unwrap();
        assert_eq!(
            store.serialize(doc),
            "<a x=\"1>2\" y=\"&quot;\"> t&amp;<b/><c>&lt;</c></a>"
        );
    }
}
