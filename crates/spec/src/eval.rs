//! The rules: one arm per core operator, each returning its value and
//! the Δ its sub-expressions requested, concatenated in evaluation order.
//! The store is the evaluator's state, read and grown (by construction and
//! copy) as evaluation proceeds and replaced when a `snap` applies its Δ.

use crate::{
    error, unsupported, At, Atom, Delta, Env, Failure, Item, Kind, NodeId, Outcome, Request, Store,
    Stuck, Value,
};
use std::cmp::Ordering;
use xqdm::atomic::{ArithOp, Atomic, CompareOp};
use xqsyn::ast::{Axis, NodeCompOp, NodeTest, Quantifier, SnapMode};
use xqsyn::core::{CoreInsertLoc, CoreName};
use xqsyn::{Core, CoreProgram};

/// The built-ins this oracle defines, by local name (an `fn:` prefix may
/// be written). Each is a `Read` row of the engine's built-in table.
pub const BUILTINS: &[&str] = &[
    "count",
    "empty",
    "exists",
    "not",
    "boolean",
    "true",
    "false",
    "string",
    "data",
    "string-length",
    "concat",
    "string-join",
    "contains",
    "starts-with",
    "ends-with",
    "upper-case",
    "lower-case",
    "sum",
    "name",
    "local-name",
    "root",
    "reverse",
    "head",
    "tail",
    "xs:integer",
    "xs:string",
    "xs:double",
    "fs:avt",
    "fs:intersect",
    "fs:except",
];

/// `store0; env ⊢ e ⇒ value; Δ; store1`.
pub fn eval(store: Store, env: &Env, e: &Core) -> Outcome<(Value, Delta, Store)> {
    let mut ev = Eval { store };
    match ev.rule(env, e) {
        Ok((value, delta)) => Ok((value, delta, ev.store)),
        Err(stuck) => Err(Failure {
            stuck,
            store: ev.store,
        }),
    }
}

/// Run a query body as the engine runs a program: inside an implicit
/// ordered `snap`, whose Δ applies when the body completes. A program
/// with a prolog is outside the fragment.
pub fn run(store: Store, env: &Env, program: &CoreProgram) -> Outcome<(Value, Store)> {
    if !program.variables.is_empty() || !program.functions.is_empty() {
        return Err(Failure {
            stuck: Stuck::Unsupported("prolog declarations".into()),
            store,
        });
    }
    let top = Core::Snap(SnapMode::Ordered, Box::new(program.body.clone()));
    eval(store, env, &top).map(|(value, _, store)| (value, store))
}

struct Eval {
    store: Store,
}

type Step = Result<(Value, Delta), Stuck>;

impl Eval {
    fn rule(&mut self, env: &Env, e: &Core) -> Step {
        match e {
            Core::Const(a) => Ok((vec![Item::Atom(constant(a))], vec![])),
            Core::Param(i) => match env.param(*i) {
                Some(s) => Ok((vec![Item::Atom(Atom::Str(s.to_string()))], vec![])),
                None => unsupported("an unbound parameter slot"),
            },
            Core::Var(name) => match env.var(name) {
                Some(v) => Ok((v.clone(), vec![])),
                None => error("XPST0008"),
            },
            Core::ContextItem => match env.context_item() {
                Some(item) => Ok((vec![item.clone()], vec![])),
                None => error("XPDY0002"),
            },
            Core::Seq(members) => {
                let (mut value, mut delta) = (Vec::new(), Vec::new());
                for m in members {
                    let (v, d) = self.rule(env, m)?;
                    value.extend(v);
                    delta.extend(d);
                }
                Ok((value, delta))
            }
            Core::For {
                var,
                position,
                source,
                body,
            } => {
                let (items, mut delta) = self.rule(env, source)?;
                let mut value = Vec::new();
                for (i, item) in items.into_iter().enumerate() {
                    let mut inner = env.bind(var, vec![item]);
                    if let Some(p) = position {
                        inner = inner.bind(p, vec![Item::Atom(Atom::Int(i as i64 + 1))]);
                    }
                    let (v, d) = self.rule(&inner, body)?;
                    value.extend(v);
                    delta.extend(d);
                }
                Ok((value, delta))
            }
            Core::Let { var, value, body } => {
                let (v, mut delta) = self.rule(env, value)?;
                let (value, d) = self.rule(&env.bind(var, v), body)?;
                delta.extend(d);
                Ok((value, delta))
            }
            Core::If(cond, then, els) => {
                let (c, mut delta) = self.rule(env, cond)?;
                let branch = if self.ebv(&c)? { then } else { els };
                let (value, d) = self.rule(env, branch)?;
                delta.extend(d);
                Ok((value, delta))
            }
            Core::Quantified {
                quantifier,
                var,
                source,
                satisfies,
            } => {
                let (items, mut delta) = self.rule(env, source)?;
                let every = *quantifier == Quantifier::Every;
                for item in items {
                    let (v, d) = self.rule(&env.bind(var, vec![item]), satisfies)?;
                    delta.extend(d);
                    if self.ebv(&v)? != every {
                        return Ok((vec![Item::Atom(Atom::Bool(!every))], delta));
                    }
                }
                Ok((vec![Item::Atom(Atom::Bool(every))], delta))
            }
            Core::SortedFor {
                var,
                source,
                keys,
                body,
            } => {
                let (items, mut delta) = self.rule(env, source)?;
                let mut keyed = Vec::new();
                for item in items {
                    let inner = env.bind(var, vec![item.clone()]);
                    let mut ks = Vec::new();
                    for k in keys {
                        let (v, d) = self.rule(&inner, &k.key)?;
                        delta.extend(d);
                        ks.push(self.optional_atom(v)?);
                    }
                    keyed.push((ks, item));
                }
                let mut failed = None;
                keyed.sort_by(|(a, _), (b, _)| {
                    for ((x, y), k) in a.iter().zip(b).zip(keys) {
                        let ord = match sort_order(x, y) {
                            Ok(o) => o,
                            Err(e) => {
                                failed.get_or_insert(e);
                                Ordering::Equal
                            }
                        };
                        let ord = if k.ascending { ord } else { ord.reverse() };
                        if ord != Ordering::Equal {
                            return ord;
                        }
                    }
                    Ordering::Equal
                });
                if let Some(e) = failed {
                    return Err(e);
                }
                let mut value = Vec::new();
                for (_, item) in keyed {
                    let (v, d) = self.rule(&env.bind(var, vec![item]), body)?;
                    value.extend(v);
                    delta.extend(d);
                }
                Ok((value, delta))
            }
            Core::Arith(op, a, b) => {
                let ((x, y), delta) = self.operands(env, a, b)?;
                let value = match (self.optional_atom(x)?, self.optional_atom(y)?) {
                    (Some(x), Some(y)) => vec![Item::Atom(arithmetic(*op, &x, &y)?)],
                    _ => vec![],
                };
                Ok((value, delta))
            }
            Core::Neg(a) => {
                let (x, delta) = self.rule(env, a)?;
                let value = match self.optional_atom(x)? {
                    Some(x) => vec![Item::Atom(arithmetic(ArithOp::Sub, &Atom::Int(0), &x)?)],
                    None => vec![],
                };
                Ok((value, delta))
            }
            Core::GeneralComp(op, a, b) => {
                let ((x, y), delta) = self.operands(env, a, b)?;
                let (xs, ys) = (self.atomize(&x), self.atomize(&y));
                let mut holds = false;
                'pairs: for x in &xs {
                    for y in &ys {
                        if compare(*op, x, y)? {
                            holds = true;
                            break 'pairs;
                        }
                    }
                }
                Ok((vec![Item::Atom(Atom::Bool(holds))], delta))
            }
            Core::ValueComp(op, a, b) => {
                let ((x, y), delta) = self.operands(env, a, b)?;
                let value = match (self.optional_atom(x)?, self.optional_atom(y)?) {
                    (Some(x), Some(y)) => vec![Item::Atom(Atom::Bool(compare(*op, &x, &y)?))],
                    _ => vec![],
                };
                Ok((value, delta))
            }
            Core::NodeComp(op, a, b) => {
                let ((x, y), delta) = self.operands(env, a, b)?;
                let value = match (zero_or_one(x)?, zero_or_one(y)?) {
                    (Some(x), Some(y)) => {
                        let (x, y) = (node(x)?, node(y)?);
                        let holds = match op {
                            NodeCompOp::Is => x == y,
                            NodeCompOp::Precedes => self.store.precedes(x, y),
                            NodeCompOp::Follows => self.store.precedes(y, x),
                        };
                        vec![Item::Atom(Atom::Bool(holds))]
                    }
                    _ => vec![],
                };
                Ok((value, delta))
            }
            Core::And(a, b) | Core::Or(a, b) => {
                let or = matches!(e, Core::Or(..));
                let (x, mut delta) = self.rule(env, a)?;
                if self.ebv(&x)? == or {
                    return Ok((vec![Item::Atom(Atom::Bool(or))], delta));
                }
                let (y, d) = self.rule(env, b)?;
                delta.extend(d);
                Ok((vec![Item::Atom(Atom::Bool(self.ebv(&y)?))], delta))
            }
            Core::Union(a, b) => {
                let ((mut x, y), delta) = self.operands(env, a, b)?;
                x.extend(y);
                Ok((self.ddo(&x)?, delta))
            }
            Core::Range(a, b) => {
                let ((x, y), delta) = self.operands(env, a, b)?;
                let value = match (self.optional_atom(x)?, self.optional_atom(y)?) {
                    (Some(x), Some(y)) => {
                        let (lo, hi) = (integer(&x)?, integer(&y)?);
                        if hi.saturating_sub(lo) > 1_000_000 {
                            return unsupported("ranges over a million items");
                        }
                        (lo..=hi).map(|i| Item::Atom(Atom::Int(i))).collect()
                    }
                    _ => vec![],
                };
                Ok((value, delta))
            }
            Core::MapStep {
                base,
                axis,
                test,
                predicates,
            } => {
                let (origins, mut delta) = self.rule(env, base)?;
                let mut out = Vec::new();
                for origin in origins {
                    let mut items: Value = self
                        .axis(node(origin)?, *axis, test)?
                        .into_iter()
                        .map(Item::Node)
                        .collect();
                    for p in predicates {
                        let (kept, d) = self.filter(env, items, p)?;
                        items = kept;
                        delta.extend(d);
                    }
                    out.extend(items);
                }
                Ok((self.ddo(&out)?, delta))
            }
            Core::DocOrder(a) => {
                let (x, delta) = self.rule(env, a)?;
                Ok((self.ddo(&x)?, delta))
            }
            Core::Predicate { base, pred } => {
                let (items, mut delta) = self.rule(env, base)?;
                let (kept, d) = self.filter(env, items, pred)?;
                delta.extend(d);
                Ok((kept, delta))
            }
            Core::Call(name, args) => {
                let (mut values, mut delta) = (Vec::new(), Vec::new());
                for a in args {
                    let (v, d) = self.rule(env, a)?;
                    values.push(v);
                    delta.extend(d);
                }
                Ok((self.builtin(env, name, values)?, delta))
            }
            Core::ElemCtor { name, content } => {
                let (name, mut delta) = self.ctor_name(env, name)?;
                let (items, d) = self.rule(env, content)?;
                delta.extend(d);
                let element = self.store.make(Kind::Element(name));
                self.construct(element, &items)?;
                Ok((vec![Item::Node(element)], delta))
            }
            Core::AttrCtor { name, content } => {
                let (name, mut delta) = self.ctor_name(env, name)?;
                let (v, d) = self.rule(env, content)?;
                delta.extend(d);
                let value = self.joined(&v);
                let attr = self.store.make(Kind::Attribute(name, value));
                Ok((vec![Item::Node(attr)], delta))
            }
            Core::TextCtor(content) => {
                let (v, delta) = self.rule(env, content)?;
                if v.is_empty() {
                    return Ok((vec![], delta));
                }
                let text = self.joined(&v);
                Ok((vec![Item::Node(self.store.make(Kind::Text(text)))], delta))
            }
            Core::DocCtor(_) => unsupported("document constructors"),
            Core::Insert { source, location } => {
                let (v, mut delta) = self.rule(env, source)?;
                let nodes = self.content_nodes(&v);
                let (t, d) = self.rule(env, location.target())?;
                delta.extend(d);
                let target = node(exactly_one(t)?)?;
                let (parent, at) = match location {
                    CoreInsertLoc::First(_) => (target, At::First),
                    CoreInsertLoc::Last(_) => (target, At::Last),
                    CoreInsertLoc::After(_) => (self.parent(target)?, At::After(target)),
                    CoreInsertLoc::Before(_) => {
                        let parent = self.parent(target)?;
                        let children = &self.store.node(parent).children;
                        match children.iter().position(|&c| c == target) {
                            Some(0) => (parent, At::First),
                            Some(i) => (parent, At::After(children[i - 1])),
                            None => return error("XQB0002"),
                        }
                    }
                };
                delta.push(Request::Insert { nodes, parent, at });
                Ok((vec![], delta))
            }
            Core::Delete(target) => {
                let (v, mut delta) = self.rule(env, target)?;
                for item in v {
                    delta.push(Request::Delete(node(item)?));
                }
                Ok((vec![], delta))
            }
            Core::Rename(target, name) => {
                let (t, mut delta) = self.rule(env, target)?;
                let target = node(exactly_one(t)?)?;
                let (n, d) = self.rule(env, name)?;
                delta.extend(d);
                let name = self.string_of(&exactly_one(n)?);
                if !is_qname(&name) {
                    return error("XQDY0074");
                }
                delta.push(Request::Rename(target, name));
                Ok((vec![], delta))
            }
            Core::ReplaceValue(target, with) => {
                let (t, mut delta) = self.rule(env, target)?;
                let target = node(exactly_one(t)?)?;
                if !matches!(
                    self.store.node(target).kind,
                    Kind::Text(_) | Kind::Attribute(..)
                ) {
                    return error("XQB0011");
                }
                let (w, d) = self.rule(env, with)?;
                delta.extend(d);
                delta.push(Request::SetValue(target, self.joined(&w)));
                Ok((vec![], delta))
            }
            Core::Replace(..) => unsupported("replace"),
            Core::Copy(a) => {
                let (v, delta) = self.rule(env, a)?;
                let copied = v
                    .into_iter()
                    .map(|item| match item {
                        Item::Node(n) => Item::Node(self.store.deep_copy(n)),
                        atom => atom,
                    })
                    .collect();
                Ok((copied, delta))
            }
            Core::Snap(mode, body) => {
                let (value, delta) = self.rule(env, body)?;
                self.store = self.store.apply(*mode, &delta)?;
                Ok((value, vec![]))
            }
        }
    }

    /// Two operands, left then right, their Δs concatenated.
    fn operands(
        &mut self,
        env: &Env,
        a: &Core,
        b: &Core,
    ) -> Result<((Value, Value), Delta), Stuck> {
        let (x, mut delta) = self.rule(env, a)?;
        let (y, d) = self.rule(env, b)?;
        delta.extend(d);
        Ok(((x, y), delta))
    }

    /// Keep the items of `items` for which `pred` holds: a numeric value
    /// tests the item's position, anything else its effective boolean
    /// value.
    fn filter(&mut self, env: &Env, items: Value, pred: &Core) -> Result<(Value, Delta), Stuck> {
        let size = items.len();
        let (mut kept, mut delta) = (Vec::new(), Vec::new());
        for (i, item) in items.into_iter().enumerate() {
            let (v, d) = self.rule(&env.focus_on(item.clone(), i + 1, size), pred)?;
            delta.extend(d);
            let keep = match v.as_slice() {
                [Item::Atom(Atom::Int(n))] => *n == i as i64 + 1,
                [Item::Atom(Atom::Dbl(n))] => *n == (i + 1) as f64,
                _ => self.ebv(&v)?,
            };
            if keep {
                kept.push(item);
            }
        }
        Ok((kept, delta))
    }

    /// The nodes of `origin`'s `axis` that pass `test`, in axis order.
    fn axis(&self, origin: NodeId, axis: Axis, test: &NodeTest) -> Result<Vec<NodeId>, Stuck> {
        let node = self.store.node(origin);
        let candidates: Vec<NodeId> = match axis {
            Axis::Child => node.children.clone(),
            Axis::Attribute => node.attrs.clone(),
            Axis::SelfAxis => vec![origin],
            Axis::Parent => node.parent.into_iter().collect(),
            Axis::Descendant | Axis::DescendantOrSelf => {
                let mut out = Vec::new();
                if axis == Axis::DescendantOrSelf {
                    out.push(origin);
                }
                self.descendants(origin, &mut out);
                out
            }
            other => return unsupported(format!("the {} axis", other.name())),
        };
        let principal_attribute = axis == Axis::Attribute;
        Ok(candidates
            .into_iter()
            .filter(|&n| self.passes(n, test, principal_attribute))
            .collect())
    }

    fn descendants(&self, origin: NodeId, out: &mut Vec<NodeId>) {
        for &c in &self.store.node(origin).children {
            out.push(c);
            self.descendants(c, out);
        }
    }

    fn passes(&self, n: NodeId, test: &NodeTest, principal_attribute: bool) -> bool {
        let kind = &self.store.node(n).kind;
        match test {
            NodeTest::Name(name) => match kind {
                Kind::Element(e) => !principal_attribute && e == name,
                Kind::Attribute(a, _) => principal_attribute && a == name,
                _ => false,
            },
            NodeTest::Wildcard => match kind {
                Kind::Element(_) => !principal_attribute,
                Kind::Attribute(..) => principal_attribute,
                _ => false,
            },
            NodeTest::AnyKind => true,
            NodeTest::Text => matches!(kind, Kind::Text(_)),
            NodeTest::Element => matches!(kind, Kind::Element(_)),
            NodeTest::AttributeTest => matches!(kind, Kind::Attribute(..)),
            NodeTest::Document => matches!(kind, Kind::Document),
            NodeTest::Comment | NodeTest::Pi => false,
        }
    }

    fn parent(&self, n: NodeId) -> Result<NodeId, Stuck> {
        self.store
            .node(n)
            .parent
            .ok_or(Stuck::Error("XQB0002".into()))
    }

    /// The nodes of `v` in document order, without duplicates.
    fn ddo(&self, v: &Value) -> Result<Value, Stuck> {
        let mut nodes = v.iter().cloned().map(node).collect::<Result<Vec<_>, _>>()?;
        self.store.doc_order(&mut nodes);
        Ok(nodes.into_iter().map(Item::Node).collect())
    }

    fn atomize(&self, v: &Value) -> Vec<Atom> {
        v.iter()
            .map(|item| match item {
                Item::Node(n) => Atom::Untyped(self.store.string_value(*n)),
                Item::Atom(a) => a.clone(),
            })
            .collect()
    }

    fn optional_atom(&self, v: Value) -> Result<Option<Atom>, Stuck> {
        Ok(zero_or_one(v)?.map(|item| self.atomize(&vec![item]).remove(0)))
    }

    fn string_of(&self, item: &Item) -> String {
        match item {
            Item::Node(n) => self.store.string_value(*n),
            Item::Atom(a) => a.string(),
        }
    }

    /// Atomize and join with single spaces (attribute and text content).
    fn joined(&self, v: &Value) -> String {
        let parts: Vec<String> = self.atomize(v).iter().map(Atom::string).collect();
        parts.join(" ")
    }

    /// The effective boolean value.
    fn ebv(&self, v: &Value) -> Result<bool, Stuck> {
        match v.as_slice() {
            [] => Ok(false),
            [Item::Node(_), ..] => Ok(true),
            [Item::Atom(a)] => match a {
                Atom::Bool(b) => Ok(*b),
                Atom::Str(s) | Atom::Untyped(s) => Ok(!s.is_empty()),
                Atom::Int(i) => Ok(*i != 0),
                Atom::Dbl(d) => Ok(*d != 0.0 && !d.is_nan()),
            },
            _ => error("XPTY0004"),
        }
    }

    fn ctor_name(&mut self, env: &Env, name: &CoreName) -> Result<(String, Delta), Stuck> {
        match name {
            CoreName::Fixed(n) => Ok((n.clone(), vec![])),
            CoreName::Computed(e) => {
                let (v, delta) = self.rule(env, e)?;
                let name = self.string_of(&exactly_one(v)?);
                if !is_qname(&name) {
                    return error("XQDY0074");
                }
                Ok((name, delta))
            }
        }
    }

    /// Element content (XQuery 1.0 construction): attributes first, then
    /// children; a node goes in as a copy, a document as copies of its
    /// children; adjacent atomics become one space-joined text node.
    fn construct(&mut self, element: NodeId, items: &Value) -> Result<(), Stuck> {
        let mut content_seen = false;
        for n in self.content_nodes(items) {
            match self.store.node(n).kind.clone() {
                Kind::Attribute(name, _) => {
                    if content_seen {
                        return error("XQTY0024");
                    }
                    let taken = self.store.node(element).attrs.iter().any(|&a| {
                        matches!(&self.store.node(a).kind, Kind::Attribute(other, _) if *other == name)
                    });
                    if taken {
                        return error("XQB0002");
                    }
                    let copy = self.store.deep_copy(n);
                    self.store.append(element, copy);
                }
                Kind::Document => {
                    for c in self.store.node(n).children.clone() {
                        let copy = self.store.deep_copy(c);
                        self.store.append(element, copy);
                    }
                    content_seen = true;
                }
                _ => {
                    let copy = self.store.deep_copy(n);
                    self.store.append(element, copy);
                    content_seen = true;
                }
            }
        }
        Ok(())
    }

    /// Content as nodes: nodes as they are, each run of adjacent atomics
    /// as one new space-joined text node. An insert source is a copy
    /// already, so its nodes go in as they are.
    fn content_nodes(&mut self, v: &Value) -> Vec<NodeId> {
        let (mut nodes, mut text) = (Vec::new(), Vec::<String>::new());
        for item in v {
            match item {
                Item::Atom(a) => text.push(a.string()),
                Item::Node(n) => {
                    if !text.is_empty() {
                        nodes.push(self.store.make(Kind::Text(text.join(" "))));
                        text.clear();
                    }
                    nodes.push(*n);
                }
            }
        }
        if !text.is_empty() {
            nodes.push(self.store.make(Kind::Text(text.join(" "))));
        }
        nodes
    }

    fn builtin(&mut self, env: &Env, name: &str, args: Vec<Value>) -> Result<Value, Stuck> {
        let local = name.strip_prefix("fn:").unwrap_or(name);
        if !BUILTINS.contains(&local) {
            return unsupported(format!("the function {name}"));
        }
        let one = |b: bool| Ok(vec![Item::Atom(Atom::Bool(b))]);
        let string = |s: String| Ok(vec![Item::Atom(Atom::Str(s))]);
        let int = |i: i64| Ok(vec![Item::Atom(Atom::Int(i))]);
        // The focus item, for the arity-0 forms.
        let focus = || match env.context_item() {
            Some(item) => Ok(vec![item.clone()]),
            None => error("XPDY0002"),
        };
        let mut args = args.into_iter();
        let mut arg = || args.next();
        match (local, arg(), arg(), arg()) {
            ("count", Some(v), None, None) => int(v.len() as i64),
            ("empty", Some(v), None, None) => one(v.is_empty()),
            ("exists", Some(v), None, None) => one(!v.is_empty()),
            ("not", Some(v), None, None) => one(!self.ebv(&v)?),
            ("boolean", Some(v), None, None) => one(self.ebv(&v)?),
            ("true", None, None, None) => one(true),
            ("false", None, None, None) => one(false),
            ("string", v, None, None) => {
                let v = match v {
                    Some(v) => v,
                    None => focus()?,
                };
                string(zero_or_one(v)?.map_or(String::new(), |i| self.string_of(&i)))
            }
            ("data", Some(v), None, None) => {
                Ok(self.atomize(&v).into_iter().map(Item::Atom).collect())
            }
            ("string-length", v, None, None) => {
                let v = match v {
                    Some(v) => v,
                    None => focus()?,
                };
                let s = zero_or_one(v)?.map_or(String::new(), |i| self.string_of(&i));
                int(s.chars().count() as i64)
            }
            ("concat", Some(a), Some(b), rest) => {
                let mut out = String::new();
                for v in [a, b]
                    .into_iter()
                    .chain(rest)
                    .chain(std::iter::from_fn(arg))
                {
                    if let Some(a) = self.optional_atom(v)? {
                        out.push_str(&a.string());
                    }
                }
                string(out)
            }
            ("string-join", Some(v), Some(sep), None) => {
                let sep = self
                    .optional_atom(sep)?
                    .map_or(String::new(), |a| a.string());
                let parts: Vec<String> = self.atomize(&v).iter().map(Atom::string).collect();
                string(parts.join(&sep))
            }
            ("contains" | "starts-with" | "ends-with", Some(a), Some(b), None) => {
                let a = self.optional_atom(a)?.map_or(String::new(), |a| a.string());
                let b = self.optional_atom(b)?.map_or(String::new(), |a| a.string());
                one(match local {
                    "contains" => a.contains(&b),
                    "starts-with" => a.starts_with(&b),
                    _ => a.ends_with(&b),
                })
            }
            ("upper-case" | "lower-case", Some(v), None, None) => {
                let s = self.optional_atom(v)?.map_or(String::new(), |a| a.string());
                string(if local == "upper-case" {
                    s.to_uppercase()
                } else {
                    s.to_lowercase()
                })
            }
            ("sum", Some(v), None, None) => {
                let mut total = Atom::Int(0);
                for a in self.atomize(&v) {
                    let a = match a {
                        Atom::Untyped(s) => Atom::Dbl(to_double(&s)?),
                        Atom::Int(_) | Atom::Dbl(_) => a,
                        Atom::Str(_) | Atom::Bool(_) => return error("FORG0001"),
                    };
                    total = arithmetic(ArithOp::Add, &total, &a)?;
                }
                Ok(vec![Item::Atom(total)])
            }
            ("name" | "local-name", v, None, None) => {
                let v = match v {
                    Some(v) => v,
                    None => focus()?,
                };
                let name = match zero_or_one(v)? {
                    None => String::new(),
                    Some(item) => match &self.store.node(node(item)?).kind {
                        Kind::Element(n) | Kind::Attribute(n, _) => n.clone(),
                        _ => String::new(),
                    },
                };
                let name = match (local, name.split_once(':')) {
                    ("local-name", Some((_, l))) => l.to_string(),
                    _ => name,
                };
                string(name)
            }
            ("root", Some(v), None, None) => match zero_or_one(v)? {
                None => Ok(vec![]),
                Some(item) => {
                    let mut n = node(item)?;
                    while let Some(p) = self.store.node(n).parent {
                        n = p;
                    }
                    Ok(vec![Item::Node(n)])
                }
            },
            ("reverse", Some(mut v), None, None) => {
                v.reverse();
                Ok(v)
            }
            ("head", Some(v), None, None) => Ok(v.into_iter().take(1).collect()),
            ("tail", Some(v), None, None) => Ok(v.into_iter().skip(1).collect()),
            ("xs:integer" | "xs:string" | "xs:double", Some(v), None, None) => {
                let Some(a) = self.optional_atom(v)? else {
                    return Ok(vec![]);
                };
                let cast = match (local, &a) {
                    ("xs:string", _) => Atom::Str(a.string()),
                    ("xs:integer", Atom::Int(_)) => a,
                    ("xs:integer", Atom::Str(s) | Atom::Untyped(s)) => {
                        Atom::Int(s.trim().parse().or(error("FORG0001"))?)
                    }
                    ("xs:double", Atom::Int(i)) => Atom::Dbl(*i as f64),
                    ("xs:double", Atom::Dbl(_)) => a,
                    ("xs:double", Atom::Str(s) | Atom::Untyped(s)) => Atom::Dbl(to_double(s)?),
                    _ => return unsupported(format!("{local} of {a:?}")),
                };
                Ok(vec![Item::Atom(cast)])
            }
            ("fs:avt", Some(v), None, None) => string(self.joined(&v)),
            ("fs:intersect" | "fs:except", Some(a), Some(b), None) => {
                let b = self.ddo(&b)?;
                let keep = local == "fs:intersect";
                let kept: Value = self
                    .ddo(&a)?
                    .into_iter()
                    .filter(|i| b.contains(i) == keep)
                    .collect();
                Ok(kept)
            }
            _ => error("XPST0017"),
        }
    }
}

fn constant(a: &Atomic) -> Atom {
    match a {
        Atomic::Integer(i) => Atom::Int(*i),
        Atomic::Double(d) => Atom::Dbl(*d),
        Atomic::String(s) => Atom::Str(s.clone()),
        Atomic::Boolean(b) => Atom::Bool(*b),
        Atomic::Untyped(s) => Atom::Untyped(s.clone()),
    }
}

fn zero_or_one(v: Value) -> Result<Option<Item>, Stuck> {
    match <[Item; 1]>::try_from(v) {
        Ok([item]) => Ok(Some(item)),
        Err(v) if v.is_empty() => Ok(None),
        Err(_) => error("XPTY0004"),
    }
}

fn exactly_one(v: Value) -> Result<Item, Stuck> {
    zero_or_one(v)?.ok_or(Stuck::Error("XPTY0004".into()))
}

fn node(item: Item) -> Result<NodeId, Stuck> {
    match item {
        Item::Node(n) => Ok(n),
        Item::Atom(_) => error("XPTY0004"),
    }
}

fn is_qname(s: &str) -> bool {
    let ncname = |p: &str| {
        p.chars()
            .next()
            .is_some_and(|c| c.is_alphabetic() || c == '_')
            && p.chars().all(|c| c.is_alphanumeric() || "_-.".contains(c))
    };
    match s.split_once(':') {
        Some((prefix, local)) => ncname(prefix) && ncname(local),
        None => ncname(s),
    }
}

fn to_double(s: &str) -> Result<f64, Stuck> {
    match s.trim() {
        "INF" => Ok(f64::INFINITY),
        "-INF" => Ok(f64::NEG_INFINITY),
        "NaN" => Ok(f64::NAN),
        t => t.parse().or(error("FORG0001")),
    }
}

fn integer(a: &Atom) -> Result<i64, Stuck> {
    match a {
        Atom::Int(i) => Ok(*i),
        Atom::Untyped(s) => s.trim().parse().or(error("FORG0001")),
        _ => error("XPTY0004"),
    }
}

/// A numeric operand: integers and doubles as they are, untyped cast to
/// double.
fn numeric(a: &Atom) -> Result<Atom, Stuck> {
    match a {
        Atom::Int(_) | Atom::Dbl(_) => Ok(a.clone()),
        Atom::Untyped(s) => Ok(Atom::Dbl(to_double(s)?)),
        Atom::Str(_) | Atom::Bool(_) => error("XPTY0004"),
    }
}

fn arithmetic(op: ArithOp, a: &Atom, b: &Atom) -> Result<Atom, Stuck> {
    match (numeric(a)?, numeric(b)?) {
        (Atom::Int(x), Atom::Int(y)) => {
            let checked = match op {
                ArithOp::Add => x.checked_add(y),
                ArithOp::Sub => x.checked_sub(y),
                ArithOp::Mul => x.checked_mul(y),
                ArithOp::Div | ArithOp::IDiv | ArithOp::Mod if y == 0 => return error("FOAR0001"),
                ArithOp::Div => return Ok(Atom::Dbl(x as f64 / y as f64)),
                ArithOp::IDiv => x.checked_div(y),
                ArithOp::Mod => x.checked_rem(y),
            };
            checked
                .map(Atom::Int)
                .ok_or(Stuck::Error("FOAR0002".into()))
        }
        (x, y) => {
            let (x, y) = (double(&x), double(&y));
            Ok(match op {
                ArithOp::Add => Atom::Dbl(x + y),
                ArithOp::Sub => Atom::Dbl(x - y),
                ArithOp::Mul => Atom::Dbl(x * y),
                ArithOp::Div if y == 0.0 => return unsupported("double division by zero"),
                ArithOp::Div => Atom::Dbl(x / y),
                ArithOp::IDiv if y == 0.0 => return error("FOAR0001"),
                ArithOp::IDiv => Atom::Int((x / y).trunc() as i64),
                ArithOp::Mod => Atom::Dbl(x % y),
            })
        }
    }
}

fn double(a: &Atom) -> f64 {
    match a {
        Atom::Int(i) => *i as f64,
        Atom::Dbl(d) => *d,
        _ => unreachable!("numeric() admits numbers only"),
    }
}

/// Compare two atomics: an untyped operand is cast to double against a
/// number and compared as a string otherwise (general and value
/// comparisons agree on every pair this oracle admits). `NaN` is
/// unordered: only `!=` holds.
fn compare(op: CompareOp, a: &Atom, b: &Atom) -> Result<bool, Stuck> {
    let ord = match (a, b) {
        (Atom::Untyped(x) | Atom::Str(x), Atom::Untyped(y) | Atom::Str(y)) => Some(x.cmp(y)),
        (Atom::Bool(x), Atom::Bool(y)) => Some(x.cmp(y)),
        (Atom::Bool(_), Atom::Untyped(_)) | (Atom::Untyped(_), Atom::Bool(_)) => {
            return unsupported("comparing untyped with boolean")
        }
        (x, y) => {
            let (x, y) = match (x, y) {
                (Atom::Str(_) | Atom::Bool(_), _) | (_, Atom::Str(_) | Atom::Bool(_)) => {
                    return error("XPTY0004")
                }
                _ => (double(&numeric(x)?), double(&numeric(y)?)),
            };
            x.partial_cmp(&y)
        }
    };
    Ok(match ord {
        None => op == CompareOp::Ne,
        Some(o) => match op {
            CompareOp::Eq => o == Ordering::Equal,
            CompareOp::Ne => o != Ordering::Equal,
            CompareOp::Lt => o == Ordering::Less,
            CompareOp::Le => o != Ordering::Greater,
            CompareOp::Gt => o == Ordering::Greater,
            CompareOp::Ge => o != Ordering::Less,
        },
    })
}

/// `order by` key order: the empty key sorts least, then by value
/// comparison.
fn sort_order(a: &Option<Atom>, b: &Option<Atom>) -> Result<Ordering, Stuck> {
    match (a, b) {
        (None, None) => Ok(Ordering::Equal),
        (None, Some(_)) => Ok(Ordering::Less),
        (Some(_), None) => Ok(Ordering::Greater),
        (Some(x), Some(y)) => {
            if compare(CompareOp::Lt, x, y)? {
                Ok(Ordering::Less)
            } else if compare(CompareOp::Gt, x, y)? {
                Ok(Ordering::Greater)
            } else {
                Ok(Ordering::Equal)
            }
        }
    }
}
