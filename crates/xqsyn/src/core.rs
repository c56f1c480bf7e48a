//! The core language (normalization target, paper §3.3).
//!
//! The dynamic semantics (paper §3.4 and Appendix B) is defined over this
//! language only. Its update fragment is "almost identical to that of the
//! surface language"; the classical XQuery lowerings have already happened:
//! FLWOR is nested `For`/`Let`/`If`, paths are per-step iterations followed
//! by document-order normalization, direct constructors are computed
//! constructors, and every `Insert`/`Replace` source arrives wrapped in an
//! implicit `Copy`.

use crate::ast::{Axis, NodeCompOp, NodeTest, Quantifier, SnapMode};
use xqdm::atomic::{ArithOp, Atomic, CompareOp};

/// Core-language insert anchors (the `into` form is already gone —
/// normalization rewrote it to `as last into`).
#[derive(Debug, Clone, PartialEq)]
pub enum CoreInsertLoc {
    /// `as first into { e }`
    First(Box<Core>),
    /// `as last into { e }`
    Last(Box<Core>),
    /// `before { e }`
    Before(Box<Core>),
    /// `after { e }`
    After(Box<Core>),
}

impl CoreInsertLoc {
    /// The target expression of the location.
    pub fn target(&self) -> &Core {
        match self {
            CoreInsertLoc::First(e)
            | CoreInsertLoc::Last(e)
            | CoreInsertLoc::Before(e)
            | CoreInsertLoc::After(e) => e,
        }
    }
}

/// One `order by` key in the core sort primitive.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreOrderSpec {
    /// Key expression, evaluated once per binding of the sort variable.
    pub key: Core,
    /// Ascending when true.
    pub ascending: bool,
}

/// A core expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Core {
    /// A constant atomic value.
    Const(Atomic),
    /// A string literal lifted out of the query text: the value of slot
    /// `i` of the text's skeleton, bound per run ([`crate::lift`]). Only
    /// string literals lift, so its value is always one `xs:string`; the
    /// program — and so its fingerprint — holds the slot, not the value.
    Param(usize),
    /// Variable reference.
    Var(String),
    /// The context item.
    ContextItem,
    /// Sequence construction, left to right (the paper's `e1,e2` rule —
    /// kept n-ary; the semantics folds it pairwise).
    Seq(Vec<Core>),
    /// `for $var (at $pos)? in source return body`
    For {
        /// Iteration variable.
        var: String,
        /// Optional positional variable.
        position: Option<String>,
        /// Binding sequence.
        source: Box<Core>,
        /// Body evaluated once per item.
        body: Box<Core>,
    },
    /// `let $var := value return body`
    Let {
        /// Bound variable.
        var: String,
        /// Bound value.
        value: Box<Core>,
        /// Body.
        body: Box<Core>,
    },
    /// Conditional.
    If(Box<Core>, Box<Core>, Box<Core>),
    /// `some/every $var in source satisfies pred` (kept primitive for
    /// early-exit evaluation).
    Quantified {
        /// Which quantifier.
        quantifier: Quantifier,
        /// Bound variable.
        var: String,
        /// Binding sequence.
        source: Box<Core>,
        /// The test.
        satisfies: Box<Core>,
    },
    /// Sort the tuple stream of `for $var in source` by keys, then iterate
    /// `body` — the lowering of a FLWOR `order by` (see normalize.rs for
    /// the supported shape).
    SortedFor {
        /// Iteration variable.
        var: String,
        /// Binding sequence.
        source: Box<Core>,
        /// Sort keys.
        keys: Vec<CoreOrderSpec>,
        /// Body.
        body: Box<Core>,
    },
    /// Arithmetic.
    Arith(ArithOp, Box<Core>, Box<Core>),
    /// Unary minus.
    Neg(Box<Core>),
    /// General comparison (existential).
    GeneralComp(CompareOp, Box<Core>, Box<Core>),
    /// Value comparison.
    ValueComp(CompareOp, Box<Core>, Box<Core>),
    /// Node comparison.
    NodeComp(NodeCompOp, Box<Core>, Box<Core>),
    /// Short-circuit conjunction.
    And(Box<Core>, Box<Core>),
    /// Short-circuit disjunction.
    Or(Box<Core>, Box<Core>),
    /// Node-sequence union with document-order/dedup result.
    Union(Box<Core>, Box<Core>),
    /// Range `a to b`.
    Range(Box<Core>, Box<Core>),
    /// One path step: for each node of `base`, gather `axis::test` nodes (in
    /// axis order), apply `predicates` positionally *per origin node* (the
    /// XPath rule that makes `a/b[1]` mean "first b of each a"), then
    /// normalize the union into document order.
    MapStep {
        /// Origin sequence.
        base: Box<Core>,
        /// Axis.
        axis: Axis,
        /// Node test.
        test: NodeTest,
        /// Per-origin positional predicates.
        predicates: Vec<Core>,
    },
    /// Sort a node sequence into document order and deduplicate.
    DocOrder(Box<Core>),
    /// Predicate application with positional semantics: keep the context
    /// items of `base` for which `pred` holds (numeric predicate = position
    /// test).
    Predicate {
        /// The filtered expression.
        base: Box<Core>,
        /// The predicate.
        pred: Box<Core>,
    },
    /// Function call (built-in or user-declared, resolved at evaluation).
    Call(String, Vec<Core>),
    /// `element {name} {content}` — content nodes are deep-copied in, atomics
    /// become text (XQuery 1.0 construction semantics).
    ElemCtor {
        /// Element name: fixed or computed.
        name: CoreName,
        /// Content expression.
        content: Box<Core>,
    },
    /// `attribute {name} {content}`.
    AttrCtor {
        /// Attribute name.
        name: CoreName,
        /// Value expression (atomized, space-joined).
        content: Box<Core>,
    },
    /// `text { content }`.
    TextCtor(Box<Core>),
    /// `document { content }`.
    DocCtor(Box<Core>),
    // ----- update fragment -----
    /// `insert { source } loc` — `source` is already `copy`-wrapped by
    /// normalization.
    Insert {
        /// The (copied) node sequence to insert.
        source: Box<Core>,
        /// Where to insert.
        location: CoreInsertLoc,
    },
    /// `delete { e }` — detach semantics.
    Delete(Box<Core>),
    /// `replace { target } with { source }` — produces an insert and a
    /// delete request (paper's rule); `source` is already `copy`-wrapped.
    Replace(Box<Core>, Box<Core>),
    /// `replace value of { target } with { source }` — produces a single
    /// set-value request: the target text/attribute node keeps its
    /// identity, only its string value changes (a value-aspect store
    /// write, no copy involved).
    ReplaceValue(Box<Core>, Box<Core>),
    /// `rename { target } to { name }`.
    Rename(Box<Core>, Box<Core>),
    /// `copy { e }` — deep copy, immediate (allocation, not an update).
    Copy(Box<Core>),
    /// `snap mode { e }` — evaluate, then apply the collected Δ.
    Snap(SnapMode, Box<Core>),
}

/// A constructor name in the core language.
#[derive(Debug, Clone, PartialEq)]
pub enum CoreName {
    /// A fixed QName.
    Fixed(String),
    /// A computed name expression.
    Computed(Box<Core>),
}

impl Core {
    /// Boxed.
    pub fn boxed(self) -> Box<Core> {
        Box::new(self)
    }

    /// The empty sequence.
    pub fn empty() -> Core {
        Core::Seq(Vec::new())
    }

    /// An integer constant.
    pub fn int(i: i64) -> Core {
        Core::Const(Atomic::Integer(i))
    }

    /// A string constant.
    pub fn str(s: impl Into<String>) -> Core {
        Core::Const(Atomic::String(s.into()))
    }

    /// Visit this expression and all sub-expressions, pre-order.
    pub fn walk(&self, f: &mut impl FnMut(&Core)) {
        f(self);
        self.for_each_child(|c| c.walk(f));
    }

    /// The variables this node binds: `for`'s variable and position, and
    /// the variable of `let`, `some`/`every` and `for … order by`. They
    /// are in scope in every child except the first (the source or bound
    /// value, which [`Core::for_each_child`] visits first). This is the
    /// one statement of Core's scoping rule; every scope-aware traversal
    /// reads it through [`Core::for_each_child_scoped`] or
    /// [`Core::map_children`].
    pub fn binds(&self) -> [Option<&str>; 2] {
        match self {
            Core::For { var, position, .. } => [Some(var), position.as_deref()],
            Core::Let { var, .. } | Core::Quantified { var, .. } | Core::SortedFor { var, .. } => {
                [Some(var), None]
            }
            _ => [None, None],
        }
    }

    /// Apply `f` to each direct sub-expression.
    pub fn for_each_child<'a>(&'a self, mut f: impl FnMut(&'a Core)) {
        match self {
            Core::Const(_) | Core::Param(_) | Core::Var(_) | Core::ContextItem => {}
            Core::MapStep {
                base, predicates, ..
            } => {
                f(base);
                predicates.iter().for_each(&mut f);
            }
            Core::Seq(es) => es.iter().for_each(&mut f),
            Core::For { source, body, .. } => {
                f(source);
                f(body);
            }
            Core::Let { value, body, .. } => {
                f(value);
                f(body);
            }
            Core::If(c, t, e) => {
                f(c);
                f(t);
                f(e);
            }
            Core::Quantified {
                source, satisfies, ..
            } => {
                f(source);
                f(satisfies);
            }
            Core::SortedFor {
                source, keys, body, ..
            } => {
                f(source);
                for k in keys {
                    f(&k.key);
                }
                f(body);
            }
            Core::Arith(_, a, b)
            | Core::GeneralComp(_, a, b)
            | Core::ValueComp(_, a, b)
            | Core::NodeComp(_, a, b)
            | Core::And(a, b)
            | Core::Or(a, b)
            | Core::Union(a, b)
            | Core::Range(a, b)
            | Core::Replace(a, b)
            | Core::ReplaceValue(a, b)
            | Core::Rename(a, b) => {
                f(a);
                f(b);
            }
            Core::Neg(e)
            | Core::DocOrder(e)
            | Core::TextCtor(e)
            | Core::DocCtor(e)
            | Core::Delete(e)
            | Core::Copy(e)
            | Core::Snap(_, e) => f(e),
            Core::Predicate { base, pred } => {
                f(base);
                f(pred);
            }
            Core::Call(_, args) => args.iter().for_each(&mut f),
            Core::ElemCtor { name, content } | Core::AttrCtor { name, content } => {
                if let CoreName::Computed(n) = name {
                    f(n);
                }
                f(content);
            }
            Core::Insert { source, location } => {
                f(source);
                f(location.target());
            }
        }
    }

    /// [`Core::for_each_child`], also telling `f` whether this node's
    /// [`Core::binds`] variables are in scope in the child: in every child
    /// after the first.
    pub fn for_each_child_scoped<'a>(&'a self, mut f: impl FnMut(&'a Core, bool)) {
        let mut in_scope = false;
        self.for_each_child(|c| {
            f(c, in_scope);
            in_scope = true;
        });
    }

    /// Rebuild this node with each direct child mapped through `f`, which
    /// is told, as in [`Core::for_each_child_scoped`], whether this node's
    /// [`Core::binds`] variables are in scope in the child. Children are
    /// mapped in [`Core::for_each_child`] order.
    pub fn map_children(&self, mut f: impl FnMut(&Core, bool) -> Core) -> Core {
        let mut in_scope = false;
        let g = &mut |c: &Core| {
            let mapped = f(c, in_scope);
            in_scope = true;
            mapped
        };
        match self {
            Core::Const(_) | Core::Param(_) | Core::Var(_) | Core::ContextItem => self.clone(),
            Core::Seq(items) => Core::Seq(items.iter().map(&mut *g).collect()),
            Core::For {
                var,
                position,
                source,
                body,
            } => Core::For {
                var: var.clone(),
                position: position.clone(),
                source: g(source).boxed(),
                body: g(body).boxed(),
            },
            Core::Let { var, value, body } => Core::Let {
                var: var.clone(),
                value: g(value).boxed(),
                body: g(body).boxed(),
            },
            Core::If(c, t, e) => Core::If(g(c).boxed(), g(t).boxed(), g(e).boxed()),
            Core::Quantified {
                quantifier,
                var,
                source,
                satisfies,
            } => Core::Quantified {
                quantifier: *quantifier,
                var: var.clone(),
                source: g(source).boxed(),
                satisfies: g(satisfies).boxed(),
            },
            Core::SortedFor {
                var,
                source,
                keys,
                body,
            } => Core::SortedFor {
                var: var.clone(),
                source: g(source).boxed(),
                keys: keys
                    .iter()
                    .map(|k| CoreOrderSpec {
                        key: g(&k.key),
                        ascending: k.ascending,
                    })
                    .collect(),
                body: g(body).boxed(),
            },
            Core::Arith(op, a, b) => Core::Arith(*op, g(a).boxed(), g(b).boxed()),
            Core::Neg(e) => Core::Neg(g(e).boxed()),
            Core::GeneralComp(op, a, b) => Core::GeneralComp(*op, g(a).boxed(), g(b).boxed()),
            Core::ValueComp(op, a, b) => Core::ValueComp(*op, g(a).boxed(), g(b).boxed()),
            Core::NodeComp(op, a, b) => Core::NodeComp(*op, g(a).boxed(), g(b).boxed()),
            Core::And(a, b) => Core::And(g(a).boxed(), g(b).boxed()),
            Core::Or(a, b) => Core::Or(g(a).boxed(), g(b).boxed()),
            Core::Union(a, b) => Core::Union(g(a).boxed(), g(b).boxed()),
            Core::Range(a, b) => Core::Range(g(a).boxed(), g(b).boxed()),
            Core::MapStep {
                base,
                axis,
                test,
                predicates,
            } => Core::MapStep {
                base: g(base).boxed(),
                axis: *axis,
                test: test.clone(),
                predicates: predicates.iter().map(&mut *g).collect(),
            },
            Core::DocOrder(e) => Core::DocOrder(g(e).boxed()),
            Core::Predicate { base, pred } => Core::Predicate {
                base: g(base).boxed(),
                pred: g(pred).boxed(),
            },
            Core::Call(name, args) => Core::Call(name.clone(), args.iter().map(&mut *g).collect()),
            Core::ElemCtor { name, content } => Core::ElemCtor {
                name: map_name(name, g),
                content: g(content).boxed(),
            },
            Core::AttrCtor { name, content } => Core::AttrCtor {
                name: map_name(name, g),
                content: g(content).boxed(),
            },
            Core::TextCtor(e) => Core::TextCtor(g(e).boxed()),
            Core::DocCtor(e) => Core::DocCtor(g(e).boxed()),
            Core::Insert { source, location } => Core::Insert {
                source: g(source).boxed(),
                location: match location {
                    CoreInsertLoc::First(t) => CoreInsertLoc::First(g(t).boxed()),
                    CoreInsertLoc::Last(t) => CoreInsertLoc::Last(g(t).boxed()),
                    CoreInsertLoc::Before(t) => CoreInsertLoc::Before(g(t).boxed()),
                    CoreInsertLoc::After(t) => CoreInsertLoc::After(g(t).boxed()),
                },
            },
            Core::Delete(e) => Core::Delete(g(e).boxed()),
            Core::Replace(t, w) => Core::Replace(g(t).boxed(), g(w).boxed()),
            Core::ReplaceValue(t, w) => Core::ReplaceValue(g(t).boxed(), g(w).boxed()),
            Core::Rename(t, n) => Core::Rename(g(t).boxed(), g(n).boxed()),
            Core::Copy(e) => Core::Copy(g(e).boxed()),
            Core::Snap(mode, e) => Core::Snap(*mode, g(e).boxed()),
        }
    }

    /// The free variables of this expression (referenced but not bound by
    /// an enclosing binder within it). Used by the optimizer's
    /// independence guards: an inner join branch may only be hoisted out
    /// of a loop when it does not mention the loop variable.
    pub fn free_vars(&self) -> std::collections::HashSet<String> {
        let mut out = std::collections::HashSet::new();
        self.collect_free(&mut Vec::new(), &mut out);
        out
    }

    fn collect_free<'a>(
        &'a self,
        bound: &mut Vec<&'a str>,
        out: &mut std::collections::HashSet<String>,
    ) {
        if let Core::Var(v) = self {
            if !bound.contains(&v.as_str()) {
                out.insert(v.clone());
            }
        }
        self.for_each_child_scoped(|c, in_scope| {
            let depth = bound.len();
            if in_scope {
                bound.extend(self.binds().into_iter().flatten());
            }
            c.collect_free(bound, out);
            bound.truncate(depth);
        });
    }
}

fn map_name(name: &CoreName, f: &mut impl FnMut(&Core) -> Core) -> CoreName {
    match name {
        CoreName::Fixed(s) => CoreName::Fixed(s.clone()),
        CoreName::Computed(e) => CoreName::Computed(f(e).boxed()),
    }
}

/// A user-declared function, normalized.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreFunction {
    /// Function name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Normalized body.
    pub body: Core,
}

/// A normalized program: global variables (initialized in order), functions,
/// and the body. Per §2.3 the body is implicitly wrapped in a top-level
/// `snap` by the *evaluator* (kept out of the core tree so optimizers can
/// see the program as written).
///
/// A program carries its [`fingerprint`](CoreProgram::fingerprint),
/// computed once where it is made ([`CoreProgram::new`]), so a program
/// run many times is hashed once. Fields edited afterwards keep the
/// fingerprint of the program as made: a program closed under module
/// functions (the compiler's input) is still keyed as the program it
/// closes, and a host that rewrites a program rebuilds it with
/// [`CoreProgram::new`].
#[derive(Clone, PartialEq)]
pub struct CoreProgram {
    /// `declare variable` initializers, in source order.
    pub variables: Vec<(String, Core)>,
    /// `declare function` declarations.
    pub functions: Vec<CoreFunction>,
    /// The query body.
    pub body: Core,
    fingerprint: (u64, u64),
}

impl CoreProgram {
    /// The program with these parts, fingerprinted.
    pub fn new(variables: Vec<(String, Core)>, functions: Vec<CoreFunction>, body: Core) -> Self {
        let mut program = CoreProgram {
            variables,
            functions,
            body,
            fingerprint: (0, 0),
        };
        // The `Debug` text leaves the fingerprint out.
        program.fingerprint = fingerprint_of(&program);
        program
    }

    /// The program's share of a plan-cache key: [`fingerprint_of`] the
    /// program, as computed when it was made.
    pub fn fingerprint(&self) -> (u64, u64) {
        self.fingerprint
    }
}

impl std::fmt::Debug for CoreProgram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CoreProgram")
            .field("variables", &self.variables)
            .field("functions", &self.functions)
            .field("body", &self.body)
            .finish()
    }
}

/// Fingerprint a value by streaming its debug representation once through
/// two independently-seeded hashers — no allocation of the full repr, and
/// 128 bits make accidental collisions (which would silently run the wrong
/// plan) implausible. `Core` holds `f64` literals, so it cannot derive
/// `Hash` directly.
pub fn fingerprint_of(value: &impl std::fmt::Debug) -> (u64, u64) {
    use std::collections::hash_map::DefaultHasher;
    use std::fmt::Write as _;
    use std::hash::Hasher as _;

    /// Feeds every formatted chunk to both hashers. SipHash's `write`
    /// does not depend on where the chunks split, so each key is the one
    /// a pass of its own would give.
    struct BothHashers(DefaultHasher, DefaultHasher);
    impl std::fmt::Write for BothHashers {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            self.1.write(s.as_bytes());
            Ok(())
        }
    }

    let mut hashers = BothHashers(DefaultHasher::new(), DefaultHasher::new());
    hashers.1.write_u64(0x9e37_79b9_7f4a_7c15);
    let _ = write!(hashers, "{value:?}");
    (hashers.0.finish(), hashers.1.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_vars_respects_binders() {
        // for $x in $src return ($x, $y) — free: src, y.
        let e = Core::For {
            var: "x".into(),
            position: None,
            source: Core::Var("src".into()).boxed(),
            body: Core::Seq(vec![Core::Var("x".into()), Core::Var("y".into())]).boxed(),
        };
        let fv = e.free_vars();
        assert!(fv.contains("src"));
        assert!(fv.contains("y"));
        assert!(!fv.contains("x"));
    }

    #[test]
    fn free_vars_let_value_is_outside_binding() {
        // let $x := $x return $x — the value's $x is free.
        let e = Core::Let {
            var: "x".into(),
            value: Core::Var("x".into()).boxed(),
            body: Core::Var("x".into()).boxed(),
        };
        assert!(e.free_vars().contains("x"));
    }

    #[test]
    fn binds_scopes_over_every_child_but_the_first() {
        fn next(c: &mut std::vec::IntoIter<Core>) -> Box<Core> {
            c.next().expect("child").boxed()
        }
        // (bound names, children, node built from its children in
        // `for_each_child` order)
        type Row = (&'static [&'static str], usize, fn(Vec<Core>) -> Core);
        let rows: [Row; 5] = [
            (&["v"], 2, |c| {
                let mut c = c.into_iter();
                Core::For {
                    var: "v".into(),
                    position: None,
                    source: next(&mut c),
                    body: next(&mut c),
                }
            }),
            (&["v", "p"], 2, |c| {
                let mut c = c.into_iter();
                Core::For {
                    var: "v".into(),
                    position: Some("p".into()),
                    source: next(&mut c),
                    body: next(&mut c),
                }
            }),
            (&["v"], 2, |c| {
                let mut c = c.into_iter();
                Core::Let {
                    var: "v".into(),
                    value: next(&mut c),
                    body: next(&mut c),
                }
            }),
            (&["v"], 2, |c| {
                let mut c = c.into_iter();
                Core::Quantified {
                    quantifier: Quantifier::Every,
                    var: "v".into(),
                    source: next(&mut c),
                    satisfies: next(&mut c),
                }
            }),
            (&["v"], 4, |c| {
                let mut c = c.into_iter();
                Core::SortedFor {
                    var: "v".into(),
                    source: next(&mut c),
                    keys: vec![
                        CoreOrderSpec {
                            key: *next(&mut c),
                            ascending: true,
                        },
                        CoreOrderSpec {
                            key: *next(&mut c),
                            ascending: false,
                        },
                    ],
                    body: next(&mut c),
                }
            }),
        ];
        for (names, arity, build) in rows {
            let node = build(vec![Core::int(0); arity]);
            let bound: Vec<&str> = node.binds().into_iter().flatten().collect();
            assert_eq!(bound, names, "{node:?}");
            for name in names {
                for i in 0..arity {
                    let mut children = vec![Core::int(0); arity];
                    children[i] = Core::Var((*name).into());
                    let node = build(children);
                    assert_eq!(node.free_vars().contains(*name), i == 0, "{node:?}");
                }
            }
        }
        assert_eq!(Core::Seq(vec![]).binds(), [None, None]);
    }

    #[test]
    fn walk_visits_insert_location() {
        let e = Core::Insert {
            source: Core::Var("a".into()).boxed(),
            location: CoreInsertLoc::Before(Core::Var("b".into()).boxed()),
        };
        let mut vars = Vec::new();
        e.walk(&mut |c| {
            if let Core::Var(v) = c {
                vars.push(v.clone());
            }
        });
        assert_eq!(vars, vec!["a".to_string(), "b".to_string()]);
    }
}
