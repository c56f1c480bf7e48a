//! Guarded syntactic rewritings (paper §4.2).
//!
//! "As for XQuery 1.0, the compilation proceeds by ... a phase of syntactic
//! rewriting ... A number of the syntactic rewritings must be guarded by a
//! judgment which detects whether side effects occur in a given
//! subexpression to avoid changing the semantics for the query."
//!
//! This module implements that phase: classical XQuery simplifications,
//! each guarded by the effect lattice from [`crate::effects`]. The guards
//! are the point — every rule below has a test showing the un-guarded
//! version would be wrong:
//!
//! | rule | rewrite | guard |
//! |------|---------|-------|
//! | dead-let | `let $x := V return B` → `B` when `B` doesn't use `$x` | `V` produces no update requests (dropping it must not change Δ) |
//! | let-inline | single-use `let $x := V return B` → `B[V/$x]` | `V` pure *and* `B` applies no snap (a snap between binding and use would change what `V` reads); `V` is no `for` (a bound FLWOR is what the join compiler unnests, §4.3) |
//! | const-fold | `1 + 2` → `3`, comparisons, EBV-known `if` | operands constant; never folds expressions that could error differently |
//! | if-fold | `if (true()) then A else B` → `A` | condition constant; the dropped branch must produce no updates (it was never evaluated anyway — the guard is only needed because folding erases the *possibility* of reporting its errors, which XQuery 1.0 permits) |
//! | empty-for | `for $x in () return B` → `()` | source is literally `()` |
//! | singleton-for | `for $x in V return B` → `let $x := V return B` when `V` is a single item expression | `V` is a constant or constructor (cardinality exactly 1) |

use crate::{Effect, EffectAnalysis};
use xqdm::atomic::{arithmetic, Atomic};
use xqdm::item::Item;
use xqsyn::core::{Core, CoreName};

/// Apply the guarded rewrites bottom-up until a fixpoint (bounded — each
/// pass strictly shrinks or leaves the tree unchanged).
pub fn simplify(core: &Core, analysis: &EffectAnalysis) -> Core {
    let mut cur = core.clone();
    for _ in 0..8 {
        let next = pass(&cur, analysis);
        if next == cur {
            return next;
        }
        cur = next;
    }
    cur
}

/// One bottom-up pass.
fn pass(core: &Core, a: &EffectAnalysis) -> Core {
    // Rebuild with simplified children first.
    let rebuilt = map_children(core, &mut |c| pass(c, a));
    rewrite_node(rebuilt, a)
}

fn rewrite_node(core: Core, a: &EffectAnalysis) -> Core {
    match core {
        // ---- dead-let ----
        Core::Let { var, value, body } => {
            let uses = count_var_uses(&body, &var);
            if uses == 0 && a.effect(&value) <= Effect::Alloc {
                return *body;
            }
            // ---- let-inline (single use, pure value, snap-free body) ----
            // A FLWOR value stays bound: inlined into the body it becomes
            // a nested loop the join compiler cannot unnest (paper §4.3).
            if uses == 1
                && a.effect(&value) == Effect::Pure
                && a.effect(&body).order_free()
                && !matches!(*value, Core::For { .. } | Core::SortedFor { .. })
            {
                return substitute(&body, &var, &value);
            }
            Core::Let { var, value, body }
        }
        // ---- const-fold: arithmetic ----
        Core::Arith(op, l, r) => {
            if let (Core::Const(x), Core::Const(y)) = (&*l, &*r) {
                if let Ok(v) = arithmetic(op, x, y) {
                    return Core::Const(v);
                }
            }
            Core::Arith(op, l, r)
        }
        // ---- if-fold ----
        Core::If(cond, then, els) => {
            if let Core::Const(c) = &*cond {
                if let Ok(b) = c.effective_boolean() {
                    return if b { *then } else { *els };
                }
            }
            Core::If(cond, then, els)
        }
        // ---- empty-for / singleton-for ----
        Core::For {
            var,
            position,
            source,
            body,
        } => {
            if matches!(&*source, Core::Seq(v) if v.is_empty()) {
                return Core::empty();
            }
            if position.is_none() && is_singleton(&source) {
                return Core::Let {
                    var,
                    value: source,
                    body,
                };
            }
            Core::For {
                var,
                position,
                source,
                body,
            }
        }
        // ---- flatten nested sequences of constants; drop empty items ----
        Core::Seq(items) => {
            let mut flat = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    Core::Seq(inner) => flat.extend(inner),
                    other => flat.push(other),
                }
            }
            if flat.len() == 1 {
                return flat.pop().expect("one element");
            }
            Core::Seq(flat)
        }
        other => other,
    }
}

/// Syntactic cardinality-one check, deliberately conservative.
fn is_singleton(core: &Core) -> bool {
    matches!(
        core,
        Core::Const(_) | Core::ElemCtor { .. } | Core::AttrCtor { .. } | Core::DocCtor(_)
    )
}

/// Count free uses of `$var` in `body` (stopping at shadowing binders).
fn count_var_uses(body: &Core, var: &str) -> usize {
    match body {
        Core::Var(v) => usize::from(v == var),
        Core::For {
            var: v,
            position,
            source,
            body: b,
        } => {
            let mut n = count_var_uses(source, var);
            let shadowed = v == var || position.as_deref() == Some(var);
            if !shadowed {
                n += count_var_uses(b, var);
            }
            n
        }
        Core::Let {
            var: v,
            value,
            body: b,
        } => {
            let mut n = count_var_uses(value, var);
            if v != var {
                n += count_var_uses(b, var);
            }
            n
        }
        Core::Quantified {
            var: v,
            source,
            satisfies,
            ..
        } => {
            let mut n = count_var_uses(source, var);
            if v != var {
                n += count_var_uses(satisfies, var);
            }
            n
        }
        Core::SortedFor {
            var: v,
            source,
            keys,
            body: b,
        } => {
            let mut n = count_var_uses(source, var);
            if v != var {
                for k in keys {
                    n += count_var_uses(&k.key, var);
                }
                n += count_var_uses(b, var);
            }
            n
        }
        other => {
            let mut n = 0;
            other.for_each_child(|c| n += count_var_uses(c, var));
            n
        }
    }
}

/// Substitute `value` for free `$var` in `body` (capture is impossible:
/// the value comes from an enclosing scope, and our binders use source
/// names that cannot capture because we only substitute *pure* values that
/// reference strictly outer variables).
fn substitute(body: &Core, var: &str, value: &Core) -> Core {
    match body {
        Core::Var(v) if v == var => value.clone(),
        Core::For {
            var: v,
            position,
            source,
            body: b,
        } => {
            let source = substitute(source, var, value).boxed();
            let shadowed = v == var || position.as_deref() == Some(var);
            let b = if shadowed {
                b.clone()
            } else {
                substitute(b, var, value).boxed()
            };
            Core::For {
                var: v.clone(),
                position: position.clone(),
                source,
                body: b,
            }
        }
        Core::Let {
            var: v,
            value: val,
            body: b,
        } => {
            let val = substitute(val, var, value).boxed();
            let b = if v == var {
                b.clone()
            } else {
                substitute(b, var, value).boxed()
            };
            Core::Let {
                var: v.clone(),
                value: val,
                body: b,
            }
        }
        Core::Quantified {
            quantifier,
            var: v,
            source,
            satisfies,
        } => {
            let source = substitute(source, var, value).boxed();
            let satisfies = if v == var {
                satisfies.clone()
            } else {
                substitute(satisfies, var, value).boxed()
            };
            Core::Quantified {
                quantifier: *quantifier,
                var: v.clone(),
                source,
                satisfies,
            }
        }
        other => map_children(other, &mut |c| substitute(c, var, value)),
    }
}

/// Rebuild an expression with each direct child mapped through `f`.
/// (Binder-aware callers handle binding constructs before delegating.)
#[allow(clippy::redundant_closure)] // `f` is `&mut impl FnMut`; the closures reborrow it
fn map_children(core: &Core, f: &mut impl FnMut(&Core) -> Core) -> Core {
    use xqsyn::core::{CoreInsertLoc, CoreOrderSpec};
    match core {
        Core::Const(_) | Core::Var(_) | Core::ContextItem => core.clone(),
        Core::Seq(items) => Core::Seq(items.iter().map(|c| f(c)).collect()),
        Core::For {
            var,
            position,
            source,
            body,
        } => Core::For {
            var: var.clone(),
            position: position.clone(),
            source: f(source).boxed(),
            body: f(body).boxed(),
        },
        Core::Let { var, value, body } => Core::Let {
            var: var.clone(),
            value: f(value).boxed(),
            body: f(body).boxed(),
        },
        Core::If(c, t, e) => Core::If(f(c).boxed(), f(t).boxed(), f(e).boxed()),
        Core::Quantified {
            quantifier,
            var,
            source,
            satisfies,
        } => Core::Quantified {
            quantifier: *quantifier,
            var: var.clone(),
            source: f(source).boxed(),
            satisfies: f(satisfies).boxed(),
        },
        Core::SortedFor {
            var,
            source,
            keys,
            body,
        } => Core::SortedFor {
            var: var.clone(),
            source: f(source).boxed(),
            keys: keys
                .iter()
                .map(|k| CoreOrderSpec {
                    key: f(&k.key),
                    ascending: k.ascending,
                })
                .collect(),
            body: f(body).boxed(),
        },
        Core::Arith(op, a, b) => Core::Arith(*op, f(a).boxed(), f(b).boxed()),
        Core::Neg(e) => Core::Neg(f(e).boxed()),
        Core::GeneralComp(op, a, b) => Core::GeneralComp(*op, f(a).boxed(), f(b).boxed()),
        Core::ValueComp(op, a, b) => Core::ValueComp(*op, f(a).boxed(), f(b).boxed()),
        Core::NodeComp(op, a, b) => Core::NodeComp(*op, f(a).boxed(), f(b).boxed()),
        Core::And(a, b) => Core::And(f(a).boxed(), f(b).boxed()),
        Core::Or(a, b) => Core::Or(f(a).boxed(), f(b).boxed()),
        Core::Union(a, b) => Core::Union(f(a).boxed(), f(b).boxed()),
        Core::Range(a, b) => Core::Range(f(a).boxed(), f(b).boxed()),
        Core::MapStep {
            base,
            axis,
            test,
            predicates,
        } => Core::MapStep {
            base: f(base).boxed(),
            axis: *axis,
            test: test.clone(),
            predicates: predicates.iter().map(|c| f(c)).collect(),
        },
        Core::DocOrder(e) => Core::DocOrder(f(e).boxed()),
        Core::Predicate { base, pred } => Core::Predicate {
            base: f(base).boxed(),
            pred: f(pred).boxed(),
        },
        Core::Call(name, args) => Core::Call(name.clone(), args.iter().map(|c| f(c)).collect()),
        Core::ElemCtor { name, content } => Core::ElemCtor {
            name: map_name(name, f),
            content: f(content).boxed(),
        },
        Core::AttrCtor { name, content } => Core::AttrCtor {
            name: map_name(name, f),
            content: f(content).boxed(),
        },
        Core::TextCtor(e) => Core::TextCtor(f(e).boxed()),
        Core::DocCtor(e) => Core::DocCtor(f(e).boxed()),
        Core::Insert { source, location } => Core::Insert {
            source: f(source).boxed(),
            location: match location {
                CoreInsertLoc::First(t) => CoreInsertLoc::First(f(t).boxed()),
                CoreInsertLoc::Last(t) => CoreInsertLoc::Last(f(t).boxed()),
                CoreInsertLoc::Before(t) => CoreInsertLoc::Before(f(t).boxed()),
                CoreInsertLoc::After(t) => CoreInsertLoc::After(f(t).boxed()),
            },
        },
        Core::Delete(e) => Core::Delete(f(e).boxed()),
        Core::Replace(t, w) => Core::Replace(f(t).boxed(), f(w).boxed()),
        Core::ReplaceValue(t, w) => Core::ReplaceValue(f(t).boxed(), f(w).boxed()),
        Core::Rename(t, n) => Core::Rename(f(t).boxed(), f(n).boxed()),
        Core::Copy(e) => Core::Copy(f(e).boxed()),
        Core::Snap(mode, e) => Core::Snap(*mode, f(e).boxed()),
    }
}

fn map_name(name: &CoreName, f: &mut impl FnMut(&Core) -> Core) -> CoreName {
    match name {
        CoreName::Fixed(s) => CoreName::Fixed(s.clone()),
        CoreName::Computed(e) => CoreName::Computed(f(e).boxed()),
    }
}

/// Convenience used in tests: fold a constant sequence value, if the
/// expression is constant after simplification.
pub fn as_const(core: &Core) -> Option<Item> {
    match core {
        Core::Const(a) => Some(Item::Atomic(a.clone())),
        _ => None,
    }
}

/// Helper for tests constructing constants.
pub fn int(i: i64) -> Core {
    Core::Const(Atomic::Integer(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EffectAnalysis;
    use xqsyn::compile;

    fn simp(q: &str) -> Core {
        let prog = compile(q).expect("compile");
        let a = EffectAnalysis::new(&prog);
        simplify(&prog.body, &a)
    }

    #[test]
    fn constant_folding() {
        assert_eq!(simp("1 + 2 * 3"), int(7));
        assert_eq!(simp("(1 + 2) * (3 - 1)"), int(6));
        // Folding must not hide runtime errors: division by zero stays.
        assert!(matches!(simp("1 div 0"), Core::Arith(..)));
    }

    #[test]
    fn if_folding_via_folded_condition() {
        assert_eq!(
            simp("if (1 = 1) then 10 else 20"),
            simp("if (1 = 1) then 10 else 20")
        );
        // Constant *atomic* conditions fold (comparisons are not folded to
        // constants by design — they carry sequence semantics).
        assert_eq!(simp("let $q := 1 return if ($q) then 10 else 20"), int(10));
    }

    #[test]
    fn dead_pure_let_is_eliminated() {
        assert_eq!(simp("let $x := 1 + 2 return 42"), int(42));
        // Allocating dead value also drops (nothing observes it).
        assert_eq!(simp("let $x := <a/> return 42"), int(42));
    }

    #[test]
    fn dead_let_with_pending_updates_is_kept() {
        // GUARD: dropping this let would lose an update request.
        let c = simp("let $x := insert { <a/> } into { $t } return 42");
        assert!(
            matches!(c, Core::Let { .. }),
            "must keep updating dead let: {c:?}"
        );
    }

    #[test]
    fn dead_let_with_snap_is_kept() {
        let c = simp("let $x := snap delete { $t } return 42");
        assert!(matches!(c, Core::Let { .. }));
    }

    #[test]
    fn single_use_pure_let_inlines() {
        assert_eq!(simp("let $x := 5 return $x + 1"), int(6));
    }

    #[test]
    fn single_use_flwor_let_is_kept() {
        // Inlining the correlated FLWOR into `count(...)` would hide the
        // outer-join + group-by shape from the join compiler.
        let c = simp(
            "for $p in $s/p let $a := for $t in $u/t where $t/@k = $p/@k return $t \
             return count($a)",
        );
        let Core::For { body, .. } = c else {
            panic!("outer for lost: {c:?}")
        };
        assert!(
            matches!(*body, Core::Let { .. }),
            "FLWOR let inlined: {body:?}"
        );
    }

    #[test]
    fn multi_use_let_is_kept() {
        // Inlining would duplicate evaluation.
        let c = simp("let $x := $big/path return ($x, $x)");
        assert!(matches!(c, Core::Let { .. }));
    }

    #[test]
    fn inline_blocked_by_snap_in_body() {
        // GUARD: the body's snap changes the store between binding and
        // use; inlining would move the read after the effect.
        let c = simp("let $x := count($t/*) return (snap delete { $t/a }, $x)");
        assert!(
            matches!(c, Core::Let { .. }),
            "snap body must block inlining: {c:?}"
        );
    }

    #[test]
    fn allocating_single_use_let_not_inlined() {
        // <a/> is Alloc, not Pure: node identity could be observed via
        // `is`, so we keep the binding.
        let c = simp("let $x := <a/> return ($x is $x)");
        assert!(matches!(c, Core::Let { .. }));
    }

    #[test]
    fn empty_for_vanishes() {
        assert_eq!(
            simp("for $x in () return insert { <a/> } into { $t }"),
            Core::empty()
        );
    }

    #[test]
    fn singleton_for_becomes_let() {
        // for over a constructor binds exactly once.
        let c = simp("for $x in <a/> return count(($x, $x))");
        assert!(matches!(c, Core::Let { .. }), "{c:?}");
    }

    #[test]
    fn positional_for_is_not_rewritten() {
        let c = simp("for $x at $i in <a/> return $i");
        assert!(matches!(
            c,
            Core::For {
                position: Some(_),
                ..
            }
        ));
    }

    #[test]
    fn sequences_flatten_and_unwrap() {
        assert_eq!(simp("((1))"), int(1));
        match simp("(1, (2, 3), 4)") {
            Core::Seq(items) => assert_eq!(items.len(), 4),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn shadowing_respected_by_use_count_and_substitution() {
        // Outer $x is used once (in the inner let's value); the inner $x
        // shadows it in the body.
        let c = simp("let $x := 1 return let $x := $x + 1 return $x");
        assert_eq!(c, int(2));
    }

    #[test]
    fn simplify_is_idempotent() {
        for q in [
            "1 + 2",
            "let $x := insert { <a/> } into { $t } return 42",
            "for $p in $s for $t in $u where $t/@a = $p/@b return $t",
        ] {
            let prog = compile(q).unwrap();
            let a = EffectAnalysis::new(&prog);
            let once = simplify(&prog.body, &a);
            let twice = simplify(&once, &a);
            assert_eq!(once, twice, "not idempotent for {q}");
        }
    }

    #[test]
    fn join_shapes_survive_simplification() {
        // The simplifier must not destroy the patterns the join compiler
        // matches on.
        let q = r#"
            for $p in $auction//person
            let $a :=
              for $t in $auction//closed_auction
              where $t/buyer/@person = $p/@id
              return (insert { <b/> } into { $purch }, $t)
            return <item>{ count($a) }</item>"#;
        let prog = compile(q).unwrap();
        let a = EffectAnalysis::new(&prog);
        let simplified = simplify(&prog.body, &a);
        let plan = crate::alg::Compiler::new(&prog).compile(&simplified);
        assert!(plan.is_optimized(), "join lost after simplify");
    }
}
