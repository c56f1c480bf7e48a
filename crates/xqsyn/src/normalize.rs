//! Normalization: surface AST → core language (paper §3.3).
//!
//! "Normalization simplifies the semantics specification by first
//! transforming each XQuery! expression into a core expression." The rules
//! the paper states explicitly:
//!
//! * `insert {e1} into {e2}` ⇒ `insert {copy{[e1]}} as last into {[e2]}` —
//!   the implicit deep copy that keeps inserted trees single-parented;
//! * the same copy wraps the second argument of `replace`;
//!
//! plus the classical XQuery 1.0 lowerings: FLWOR to nested for/let/if,
//! where-clauses to conditionals, direct constructors to computed
//! constructors with attribute-value-template concatenation, and path
//! expressions to per-step mappings with document-order normalization.
//!
//! Normalization is total: the few surface shapes the engine restricts
//! (a FLWOR `order by` not attached to any `for`) normalize to an
//! `fn:error(...)` call that reports the restriction at evaluation time,
//! keeping this phase infallible.

use crate::ast::{self, AttrChunk, Declaration, DirectContent, Expr, FlworClause, PathBase};
use crate::core::{Core, CoreFunction, CoreInsertLoc, CoreName, CoreOrderSpec, CoreProgram};
use xqdm::atomic::Atomic;

/// Normalize a full program.
pub fn normalize_program(prog: &ast::Program) -> CoreProgram {
    let mut variables = Vec::new();
    let mut functions = Vec::new();
    for d in &prog.declarations {
        match d {
            Declaration::Variable { name, init } => {
                variables.push((name.clone(), normalize(init)));
            }
            Declaration::Function { name, params, body } => functions.push(CoreFunction {
                name: name.clone(),
                params: params.clone(),
                body: normalize(body),
            }),
        }
    }
    CoreProgram::new(variables, functions, normalize(&prog.body))
}

/// Normalize one expression.
pub fn normalize(e: &Expr) -> Core {
    match e {
        Expr::Literal(lit) => Core::Const(match lit {
            ast::Literal::Integer(i) => Atomic::Integer(*i),
            ast::Literal::Double(d) => Atomic::Double(*d),
            ast::Literal::String(s) => Atomic::String(s.clone()),
        }),
        Expr::Param(i) => Core::Param(*i),
        Expr::VarRef(v) => Core::Var(v.clone()),
        Expr::ContextItem => Core::ContextItem,
        Expr::Sequence(items) => Core::Seq(items.iter().map(normalize).collect()),
        Expr::Range(a, b) => Core::Range(normalize(a).boxed(), normalize(b).boxed()),
        Expr::Arith(op, a, b) => Core::Arith(*op, normalize(a).boxed(), normalize(b).boxed()),
        Expr::Neg(a) => Core::Neg(normalize(a).boxed()),
        Expr::GeneralComp(op, a, b) => {
            Core::GeneralComp(*op, normalize(a).boxed(), normalize(b).boxed())
        }
        Expr::ValueComp(op, a, b) => {
            Core::ValueComp(*op, normalize(a).boxed(), normalize(b).boxed())
        }
        Expr::NodeComp(op, a, b) => Core::NodeComp(*op, normalize(a).boxed(), normalize(b).boxed()),
        Expr::And(a, b) => Core::And(normalize(a).boxed(), normalize(b).boxed()),
        Expr::Or(a, b) => Core::Or(normalize(a).boxed(), normalize(b).boxed()),
        Expr::Union(a, b) => Core::Union(normalize(a).boxed(), normalize(b).boxed()),
        // intersect/except lower to internal builtins (identity-based,
        // document-order result) — no new core form needed.
        Expr::Intersect(a, b) => {
            Core::Call("fs:intersect".into(), vec![normalize(a), normalize(b)])
        }
        Expr::Except(a, b) => Core::Call("fs:except".into(), vec![normalize(a), normalize(b)]),
        Expr::If(c, t, e) => Core::If(
            normalize(c).boxed(),
            normalize(t).boxed(),
            normalize(e).boxed(),
        ),
        Expr::Flwor { clauses, ret } => normalize_flwor(clauses, ret),
        Expr::Quantified {
            quantifier,
            bindings,
            satisfies,
        } => {
            // Multi-binding quantifiers nest: some $x in A, $y in B satisfies P
            // == some $x in A satisfies (some $y in B satisfies P).
            let mut body = normalize(satisfies);
            for (var, source) in bindings.iter().rev() {
                body = Core::Quantified {
                    quantifier: *quantifier,
                    var: var.clone(),
                    source: normalize(source).boxed(),
                    satisfies: body.boxed(),
                };
            }
            body
        }
        Expr::Path { base, steps } => {
            let mut cur = match base {
                PathBase::Context => Core::ContextItem,
                PathBase::Root => Core::Call("fn:root".into(), vec![Core::ContextItem]),
                PathBase::Expr(e) => normalize(e),
            };
            for step in steps {
                cur = Core::MapStep {
                    base: cur.boxed(),
                    axis: step.axis,
                    test: step.test.clone(),
                    predicates: step.predicates.iter().map(normalize).collect(),
                };
            }
            cur
        }
        Expr::Filter(base, preds) => {
            let mut cur = normalize(base);
            for p in preds {
                cur = Core::Predicate {
                    base: cur.boxed(),
                    pred: normalize(p).boxed(),
                };
            }
            cur
        }
        Expr::Call(name, args) => Core::Call(name.clone(), args.iter().map(normalize).collect()),
        Expr::Direct(direct) => normalize_direct(direct),
        Expr::ElementCtor(name, content) => Core::ElemCtor {
            name: normalize_ctor_name(name),
            content: content
                .as_ref()
                .map(|c| normalize(c))
                .unwrap_or_else(Core::empty)
                .boxed(),
        },
        Expr::AttributeCtor(name, content) => Core::AttrCtor {
            name: normalize_ctor_name(name),
            content: content
                .as_ref()
                .map(|c| normalize(c))
                .unwrap_or_else(Core::empty)
                .boxed(),
        },
        Expr::TextCtor(content) => Core::TextCtor(normalize(content).boxed()),
        Expr::DocumentCtor(content) => Core::DocCtor(normalize(content).boxed()),
        // ----- updates (the paper's normalization rules) -----
        Expr::Insert(source, location) => {
            // [insert {e1} into {e2}] = insert {copy{[e1]}} as last into {[e2]}
            // — idempotently: a source that is already an explicit copy is
            // not wrapped again (copy of a fresh copy is the same tree, one
            // allocation cheaper), which also makes normalization stable
            // under print/reparse round trips.
            let copied = copy_wrap(normalize(source));
            let location = match location {
                ast::InsertLocation::AsFirstInto(t) => CoreInsertLoc::First(normalize(t).boxed()),
                ast::InsertLocation::AsLastInto(t) | ast::InsertLocation::Into(t) => {
                    CoreInsertLoc::Last(normalize(t).boxed())
                }
                ast::InsertLocation::Before(t) => CoreInsertLoc::Before(normalize(t).boxed()),
                ast::InsertLocation::After(t) => CoreInsertLoc::After(normalize(t).boxed()),
            };
            Core::Insert {
                source: copied.boxed(),
                location,
            }
        }
        Expr::Delete(target) => Core::Delete(normalize(target).boxed()),
        Expr::Replace(target, with) => {
            // The same implicit (idempotent) copy as insert (paper §3.3).
            Core::Replace(
                normalize(target).boxed(),
                copy_wrap(normalize(with)).boxed(),
            )
        }
        Expr::ReplaceValue(target, source) => {
            // No implicit copy: the source is atomized to a string, never
            // spliced into the tree.
            Core::ReplaceValue(normalize(target).boxed(), normalize(source).boxed())
        }
        Expr::Rename(target, name) => {
            Core::Rename(normalize(target).boxed(), normalize(name).boxed())
        }
        Expr::Copy(e) => Core::Copy(normalize(e).boxed()),
        Expr::Snap(mode, body) => Core::Snap(*mode, normalize(body).boxed()),
    }
}

/// Wrap in `copy {}` unless the expression already is one.
fn copy_wrap(core: Core) -> Core {
    match core {
        already @ Core::Copy(_) => already,
        other => Core::Copy(other.boxed()),
    }
}

fn normalize_ctor_name(name: &ast::CtorName) -> CoreName {
    match name {
        ast::CtorName::Literal(s) => CoreName::Fixed(s.clone()),
        ast::CtorName::Computed(e) => CoreName::Computed(normalize(e).boxed()),
    }
}

/// FLWOR lowering. Clauses fold right-to-left into nested core
/// expressions; `where` becomes a conditional with `()` else-branch
/// (exactly the XQuery 1.0 FS rule); `order by` attaches to the nearest
/// preceding `for`, producing a [`Core::SortedFor`].
fn normalize_flwor(clauses: &[FlworClause], ret: &Expr) -> Core {
    let mut body = normalize(ret);
    // Pending order-by keys waiting for their `for` (right-to-left scan).
    let mut pending_order: Option<Vec<CoreOrderSpec>> = None;
    for clause in clauses.iter().rev() {
        match clause {
            FlworClause::OrderBy(specs) => {
                let keys = specs
                    .iter()
                    .map(|s| CoreOrderSpec {
                        key: normalize(&s.key),
                        ascending: s.ascending,
                    })
                    .collect();
                pending_order = Some(keys);
            }
            FlworClause::Where(cond) => {
                body = Core::If(normalize(cond).boxed(), body.boxed(), Core::empty().boxed());
            }
            FlworClause::For {
                var,
                position,
                source,
            } => {
                if let Some(keys) = pending_order.take() {
                    // `order by` sorts the bindings of this (nearest) for.
                    // Positional variables cannot be combined with sorting.
                    if position.is_some() {
                        body = unsupported(
                            "order by combined with a positional variable is not supported",
                        );
                        continue;
                    }
                    body = Core::SortedFor {
                        var: var.clone(),
                        source: normalize(source).boxed(),
                        keys,
                        body: body.boxed(),
                    };
                } else {
                    body = Core::For {
                        var: var.clone(),
                        position: position.clone(),
                        source: normalize(source).boxed(),
                        body: body.boxed(),
                    };
                }
            }
            FlworClause::Let { var, value } => {
                body = Core::Let {
                    var: var.clone(),
                    value: normalize(value).boxed(),
                    body: body.boxed(),
                };
            }
        }
    }
    if pending_order.is_some() {
        return unsupported("order by requires a preceding for clause");
    }
    body
}

fn unsupported(msg: &str) -> Core {
    Core::Call(
        "fn:error".into(),
        vec![Core::str(format!("XQST0000: {msg}"))],
    )
}

/// Direct constructor lowering: attributes become computed attribute
/// constructors whose value is an `fn:concat` of literal chunks and
/// space-joined enclosed expressions (the AVT rule); boundary whitespace
/// (whitespace-only text between child elements) is stripped, matching the
/// XQuery default `boundary-space strip` policy.
fn normalize_direct(d: &ast::DirectElement) -> Core {
    let mut content: Vec<Core> = Vec::new();
    for (name, chunks) in &d.attributes {
        content.push(Core::AttrCtor {
            name: CoreName::Fixed(name.clone()),
            content: normalize_avt(chunks).boxed(),
        });
    }
    for c in &d.content {
        match c {
            DirectContent::Text(t) => {
                if !t.trim().is_empty() {
                    content.push(Core::TextCtor(Core::str(t.clone()).boxed()));
                }
            }
            DirectContent::Enclosed(e) => content.push(normalize(e)),
            DirectContent::Element(child) => content.push(normalize_direct(child)),
        }
    }
    Core::ElemCtor {
        name: CoreName::Fixed(d.name.clone()),
        content: Core::Seq(content).boxed(),
    }
}

/// Attribute value template: `"a{e}b"` ⇒ `fn:concat("a", fs:avt(e), "b")`.
/// `fs:avt` is the internal builtin that atomizes its argument and joins
/// with single spaces (the XQuery AVT rule for enclosed expressions).
fn normalize_avt(chunks: &[AttrChunk]) -> Core {
    let chunk = |c: &AttrChunk| match c {
        AttrChunk::Text(t) => Core::str(t.clone()),
        AttrChunk::Param(i) => Core::Param(*i),
        AttrChunk::Enclosed(e) => Core::Call("fs:avt".into(), vec![normalize(e)]),
    };
    match chunks {
        [one] => chunk(one),
        _ => Core::Call("fn:concat".into(), chunks.iter().map(chunk).collect()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_expr;

    fn norm(s: &str) -> Core {
        normalize(&parse_expr(s).expect("parse"))
    }

    #[test]
    fn insert_gets_copy_wrapped() {
        // The paper's explicit normalization rule.
        let c = norm("insert { $x } into { $y }");
        match c {
            Core::Insert { source, location } => {
                assert!(matches!(*source, Core::Copy(_)));
                assert!(matches!(location, CoreInsertLoc::Last(_)));
            }
            other => panic!("expected insert, got {other:?}"),
        }
    }

    #[test]
    fn replace_copies_second_argument() {
        let c = norm("replace { $x } with { $y }");
        match c {
            Core::Replace(target, with) => {
                assert!(matches!(*target, Core::Var(_)));
                assert!(matches!(*with, Core::Copy(_)));
            }
            other => panic!("expected replace, got {other:?}"),
        }
    }

    #[test]
    fn as_first_into_is_preserved() {
        let c = norm("insert { $x } as first into { $y }");
        match c {
            Core::Insert { location, .. } => assert!(matches!(location, CoreInsertLoc::First(_))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn where_becomes_conditional() {
        let c = norm("for $x in $s where $x > 1 return $x");
        match c {
            Core::For { body, .. } => match *body {
                Core::If(_, _, ref els) => assert_eq!(**els, Core::empty()),
                ref other => panic!("expected if, got {other:?}"),
            },
            other => panic!("expected for, got {other:?}"),
        }
    }

    #[test]
    fn lets_nest_in_order() {
        let c = norm("let $a := 1 let $b := 2 return $b");
        match c {
            Core::Let { var, body, .. } => {
                assert_eq!(var, "a");
                assert!(matches!(*body, Core::Let { .. }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn order_by_produces_sorted_for() {
        let c = norm("for $x in $s order by $x descending return $x");
        match c {
            Core::SortedFor { keys, .. } => {
                assert_eq!(keys.len(), 1);
                assert!(!keys[0].ascending);
            }
            other => panic!("expected SortedFor, got {other:?}"),
        }
    }

    #[test]
    fn paths_become_mapsteps() {
        let c = norm("$auction//person[@id = $u]/name");
        // name <- predicate-bearing person <- descendant-or-self <- $auction
        match c {
            Core::MapStep { base, .. } => match *base {
                Core::MapStep {
                    ref predicates,
                    ref base,
                    ..
                } => {
                    assert_eq!(predicates.len(), 1);
                    assert!(matches!(**base, Core::MapStep { .. }));
                }
                ref other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn direct_constructor_lowered() {
        let c = norm("<a k=\"v{1}\">x{2}</a>");
        match c {
            Core::ElemCtor { name, content } => {
                assert_eq!(name, CoreName::Fixed("a".into()));
                match *content {
                    Core::Seq(ref items) => {
                        assert_eq!(items.len(), 3); // attr, text, enclosed
                        assert!(matches!(items[0], Core::AttrCtor { .. }));
                        assert!(matches!(items[1], Core::TextCtor(_)));
                        assert!(matches!(items[2], Core::Const(Atomic::Integer(2))));
                    }
                    ref other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn boundary_whitespace_stripped() {
        let c = norm("<a> <b/> </a>");
        match c {
            Core::ElemCtor { content, .. } => match *content {
                Core::Seq(ref items) => assert_eq!(items.len(), 1),
                ref other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn avt_single_literal_is_plain_string() {
        let c = norm("<a k=\"plain\"/>");
        match c {
            Core::ElemCtor { content, .. } => match &*content {
                Core::Seq(items) => match &items[0] {
                    Core::AttrCtor { content, .. } => {
                        assert_eq!(**content, Core::str("plain"));
                    }
                    other => panic!("{other:?}"),
                },
                other => panic!("{other:?}"),
            },
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn snap_abbreviation_normalizes() {
        let c = norm("snap delete { $x }");
        assert!(matches!(c, Core::Snap(_, _)));
        if let Core::Snap(_, body) = c {
            assert!(matches!(*body, Core::Delete(_)));
        }
    }

    #[test]
    fn quantifier_bindings_nest() {
        let c = norm("some $x in $a, $y in $b satisfies $x = $y");
        match c {
            Core::Quantified { var, satisfies, .. } => {
                assert_eq!(var, "x");
                assert!(matches!(*satisfies, Core::Quantified { .. }));
            }
            other => panic!("{other:?}"),
        }
    }
}
