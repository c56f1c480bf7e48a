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
//! | dead-let | `let $x := V return B` → `B` when `B` doesn't use `$x` | `V` cannot raise: a constant, a lifted literal, or a variable an enclosing binder binds (dropping it must change neither Δ nor the error) |
//! | let-inline | single-use `let $x := V return B` → `B[V/$x]` | `V` pure *and* `B` applies no snap (a snap between binding and use would change what `V` reads); `V` is no `for` (a bound FLWOR is what the join compiler unnests, §4.3); no binder in `B` rebinds a variable `V` mentions (no renaming: a captured `V` stays bound) |
//! | const-fold | `1 + 2` → `3`, comparisons, EBV-known `if` | operands constant; never folds expressions that could error differently |
//! | if-fold | `if (true()) then A else B` → `A` | condition constant; the dropped branch must produce no updates (it was never evaluated anyway — the guard is only needed because folding erases the *possibility* of reporting its errors, which XQuery 1.0 permits) |
//! | empty-for | `for $x in () return B` → `()` | source is literally `()` |
//! | singleton-for | `for $x in V return B` → `let $x := V return B` when `V` is a single item expression | `V` is a constant or constructor (cardinality exactly 1) |
//! | predicate-unnest | `for $v in S return B[P[L = R]]` → `for $v in S return let $a := (for $t in P where $t/L = R return $t) return B[$a]`, the shape the join compiler unnests (§4.3); every admitted occurrence of one loop at once | no `at` variable; `S` is a path (so `$v` is a node); `B` applies no snap; the occurrence is evaluated on every iteration (not in an `if` branch, quantifier, nested loop body, predicate or `and`/`or` operand); the predicate is a general `=` between `L`, a predicate-free step chain from `.`, and `R`, one from `$v` — both untyped nodes, so `=` compares string values as the join's hash keys do, and neither can raise; `P` is a pure path that reads neither the focus nor `$v`; `P` and `$v` are not bound between the `for` and the occurrence |

use crate::{Effect, EffectAnalysis};
use xqdm::atomic::{arithmetic, Atomic, CompareOp};
use xqsyn::core::Core;

/// Apply the guarded rewrites bottom-up until a fixpoint, at most 8
/// passes. Every rule but predicate-unnest shrinks the tree; that one
/// grows it, but hoists all the occurrences a loop admits in one go and
/// leaves none a later pass could admit.
pub fn simplify(core: &Core, analysis: &EffectAnalysis) -> Core {
    let mut cur = core.clone();
    for _ in 0..8 {
        let next = pass(&cur, analysis, &mut Vec::new());
        if next == cur {
            return next;
        }
        cur = next;
    }
    cur
}

/// One bottom-up pass. `bound` holds the variables the binders around
/// `core` bind.
fn pass(core: &Core, a: &EffectAnalysis, bound: &mut Vec<String>) -> Core {
    // Rebuild with simplified children first.
    let rebuilt = core.map_children(|c, in_scope| {
        let depth = bound.len();
        if in_scope {
            bound.extend(core.binds().into_iter().flatten().map(str::to_string));
        }
        let simplified = pass(c, a, bound);
        bound.truncate(depth);
        simplified
    });
    rewrite_node(rebuilt, a, bound)
}

/// Can evaluating `value` never raise? A constant, a lifted literal, and
/// a read of a variable some binder in `bound` binds. Dropping such a
/// value drops no error.
fn cannot_raise(value: &Core, bound: &[String]) -> bool {
    match value {
        Core::Const(_) | Core::Param(_) => true,
        Core::Var(v) => bound.contains(v),
        _ => false,
    }
}

fn rewrite_node(core: Core, a: &EffectAnalysis, bound: &[String]) -> Core {
    match core {
        // ---- dead-let ----
        Core::Let { var, value, body } => {
            let uses = count_var_uses(&body, &var);
            if uses == 0 && cannot_raise(&value, bound) {
                return *body;
            }
            // ---- let-inline (single use, pure value, snap-free body) ----
            // A FLWOR value stays bound: inlined into the body it becomes
            // a nested loop the join compiler cannot unnest (paper §4.3).
            // A value whose variable a body binder rebinds stays bound too:
            // there is no renaming, so the inline is refused.
            if uses == 1
                && a.effect(&value) == Effect::Pure
                && a.effect(&body).order_free()
                && !matches!(*value, Core::For { .. } | Core::SortedFor { .. })
                && !captures(&body, &value)
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
            // ---- predicate-unnest ----
            let body = if position.is_none() && is_path(&source) {
                unnest_predicates(&var, *body, a).boxed()
            } else {
                body
            };
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
        Core::Const(_)
            | Core::Param(_)
            | Core::ElemCtor { .. }
            | Core::AttrCtor { .. }
            | Core::DocCtor(_)
    )
}

/// Count free uses of `$var` in `body` (stopping at shadowing binders).
fn count_var_uses(body: &Core, var: &str) -> usize {
    if let Core::Var(v) = body {
        return usize::from(v == var);
    }
    let shadows = body.binds().contains(&Some(var));
    let mut n = 0;
    body.for_each_child_scoped(|c, in_scope| {
        if !(in_scope && shadows) {
            n += count_var_uses(c, var);
        }
    });
    n
}

/// Substitute `value` for free `$var` in `body`, stopping at shadowing
/// binders. The caller guarantees no binder in `body` captures a free
/// variable of `value` (see [`captures`]).
fn substitute(body: &Core, var: &str, value: &Core) -> Core {
    if matches!(body, Core::Var(v) if v == var) {
        return value.clone();
    }
    let shadows = body.binds().contains(&Some(var));
    body.map_children(|c, in_scope| {
        if in_scope && shadows {
            c.clone()
        } else {
            substitute(c, var, value)
        }
    })
}

/// Does some binder in `body` rebind a free variable of `value`? Then
/// substituting `value` under it would read the wrong binding.
fn captures(body: &Core, value: &Core) -> bool {
    let free = value.free_vars();
    let mut hit = false;
    body.walk(&mut |c| hit |= c.binds().into_iter().flatten().any(|b| free.contains(b)));
    hit
}

/// The first character of the variables predicate-unnest invents. A
/// parsed variable name starts with a letter or `_`, so no query can
/// name, shadow or capture one.
const FRESH: char = '~';

/// Hoist every `P[L = R]` in the body of `for $v` that [`hoistable`]
/// admits into `let $a := for $t in P where $t/L = R return $t`, directly
/// under the `for` and in evaluation order, each occurrence becoming its
/// `$a`. The filter and the loop keep the same items in the same order:
/// `P` is a path, whose value is in document order with no duplicates,
/// and a predicate with no position in it does not care which origin
/// node a step reached an item from.
fn unnest_predicates(v: &str, body: Core, a: &EffectAnalysis) -> Core {
    let mut path = Vec::new();
    let Some((source, pred)) = find(&body, v, &mut Vec::new(), a, &mut path) else {
        return body;
    };
    // `P` and `R` now run before whatever precedes the occurrence in
    // the body, so nothing there may apply updates they could read.
    if !a.effect(&body).order_free() {
        return body;
    }
    let n = fresh_index(&body);
    let (group, item) = (format!("{FRESH}a{n}"), format!("{FRESH}t{n}"));
    let flwor = Core::For {
        var: item.clone(),
        position: None,
        source: source.boxed(),
        body: Core::If(
            refocus(pred, &Core::Var(item.clone())).boxed(),
            Core::Var(item).boxed(),
            Core::empty().boxed(),
        )
        .boxed(),
    };
    let rest = replace_at(&body, &path, &Core::Var(group.clone()));
    Core::Let {
        value: flwor.boxed(),
        body: unnest_predicates(v, rest, a).boxed(),
        var: group,
    }
}

/// Search `e`, in evaluation order, for an occurrence [`hoistable`]
/// admits, descending only into the operands evaluated whenever `e` is:
/// not an `if` branch (XQuery 1.0 §3.10: an unselected branch raises no
/// error), a loop or quantifier body, a predicate, or an `and`/`or`
/// operand. `path` receives the child indices that lead to it; `between`
/// holds the variables bound on the way.
fn find<'e>(
    e: &'e Core,
    v: &str,
    between: &mut Vec<&'e str>,
    a: &EffectAnalysis,
    path: &mut Vec<usize>,
) -> Option<(Core, &'e Core)> {
    if let Some(found) = hoistable(e, v, between, a) {
        return Some(found);
    }
    let every_time = match e {
        Core::And(..) | Core::Or(..) => 0,
        Core::If(..)
        | Core::For { .. }
        | Core::Quantified { .. }
        | Core::SortedFor { .. }
        | Core::MapStep { .. }
        | Core::Predicate { .. } => 1,
        _ => usize::MAX,
    };
    let mut found = None;
    let mut i = 0;
    e.for_each_child_scoped(|c, in_scope| {
        if found.is_none() && i < every_time {
            let depth = between.len();
            if in_scope {
                between.extend(e.binds().into_iter().flatten());
            }
            path.push(i);
            found = find(c, v, between, a, path);
            if found.is_none() {
                path.pop();
            }
            between.truncate(depth);
        }
        i += 1;
    });
    found
}

/// Is `e` a `P[L = R]` that predicate-unnest may hoist out of `for $v`,
/// past the variables `between`? Then its `P` and its predicate.
fn hoistable<'e>(
    e: &'e Core,
    v: &str,
    between: &[&str],
    a: &EffectAnalysis,
) -> Option<(Core, &'e Core)> {
    let pred = match e {
        Core::MapStep { predicates, .. } => predicates.last()?,
        Core::Predicate { base, pred } if matches!(**base, Core::MapStep { .. }) => pred,
        _ => return None,
    };
    let Core::GeneralComp(CompareOp::Eq, x, y) = pred else {
        return None;
    };
    // Both sides untyped nodes: `=` compares their string values, which
    // is what the join hashes, and neither side can raise an error the
    // nested loop, over an empty `P`, would not have.
    let var = Core::Var(v.to_string());
    let sides = |l, r| chain_from(l, &Core::ContextItem) && chain_from(r, &var);
    if !(sides(x, y) || sides(y, x)) || between.contains(&v) {
        return None;
    }
    let source = match e {
        Core::MapStep {
            base,
            axis,
            test,
            predicates,
        } => Core::MapStep {
            base: base.clone(),
            axis: *axis,
            test: test.clone(),
            predicates: predicates[..predicates.len() - 1].to_vec(),
        },
        Core::Predicate { base, .. } => (**base).clone(),
        _ => unreachable!("matched above"),
    };
    let free_p = source.free_vars();
    (!free_p.contains(v)
        && !free_p.iter().any(|n| between.contains(&n.as_str()))
        && !reads_focus(&source)
        && a.facts(&source).strictly_pure())
    .then_some((source, pred))
}

/// Is `e` a path, whose items are nodes?
pub(crate) fn is_path(e: &Core) -> bool {
    match e {
        Core::MapStep { .. } => true,
        Core::Predicate { base, .. } => is_path(base),
        _ => false,
    }
}

/// Is `e` `root` followed by zero or more steps without predicates?
pub(crate) fn chain_from(e: &Core, root: &Core) -> bool {
    match e {
        Core::MapStep {
            base, predicates, ..
        } => predicates.is_empty() && chain_from(base, root),
        _ => e == root,
    }
}

/// How many of `e`'s children (in [`Core::for_each_child`] order) are
/// evaluated under `e`'s own focus: all but a step's or a filter's
/// predicates, which set their own.
fn same_focus(e: &Core) -> usize {
    match e {
        Core::MapStep { .. } | Core::Predicate { .. } => 1,
        _ => usize::MAX,
    }
}

/// Does `e` read its focus: as `.` or through a zero-argument call
/// (`string()`, `name()`, `position()`)?
fn reads_focus(e: &Core) -> bool {
    match e {
        Core::ContextItem => return true,
        Core::Call(_, args) if args.is_empty() => return true,
        _ => {}
    }
    let (mut reads, mut i) = (false, 0);
    e.for_each_child(|c| {
        reads |= i < same_focus(e) && reads_focus(c);
        i += 1;
    });
    reads
}

/// `e` with `with` in place of every `.` that reads `e`'s own focus.
fn refocus(e: &Core, with: &Core) -> Core {
    if matches!(e, Core::ContextItem) {
        return with.clone();
    }
    let mut i = 0;
    e.map_children(|c, _| {
        i += 1;
        if i > same_focus(e) {
            c.clone()
        } else {
            refocus(c, with)
        }
    })
}

/// `e` with `with` in place of the sub-expression `path` leads to.
fn replace_at(e: &Core, path: &[usize], with: &Core) -> Core {
    let Some((&at, rest)) = path.split_first() else {
        return with.clone();
    };
    let mut i = 0;
    e.map_children(|c, _| {
        i += 1;
        if i - 1 == at {
            replace_at(c, rest, with)
        } else {
            c.clone()
        }
    })
}

/// A number no invented variable in `e` carries, so the pair named after
/// it neither captures nor is captured by any variable `e` mentions.
fn fresh_index(e: &Core) -> usize {
    let mut next = 0;
    e.walk(&mut |c| {
        let named = match c {
            Core::Var(name) => [Some(name.as_str()), None],
            _ => c.binds(),
        };
        for name in named.into_iter().flatten() {
            if let Some(n) = name
                .strip_prefix(FRESH)
                .and_then(|s| s.get(1..)?.parse::<usize>().ok())
            {
                next = next.max(n + 1);
            }
        }
    });
    next
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
    fn dead_let_that_cannot_raise_is_eliminated() {
        assert_eq!(simp("let $x := 1 + 2 return 42"), int(42));
        // A bound variable's read cannot raise either.
        assert_eq!(
            simp("for $y in $s return let $x := $y return 42"),
            simp("for $y in $s return 42")
        );
    }

    #[test]
    fn dead_let_that_may_raise_is_kept() {
        // GUARD: dropping the value would drop its error — `7` where the
        // interpreter raises FOAR0001 (or XPST0008 for the unbound `$z`).
        for q in [
            "let $y := 1 div 0 return 7",
            "let $y := $z return 7",
            "let $y := <a>{1 div 0}</a> return 7",
        ] {
            let c = simp(q);
            assert!(matches!(c, Core::Let { .. }), "{q} must stay: {c:?}");
        }
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
    fn order_by_variable_shadows_the_inlined_let() {
        // The loop's own `$x` (key and body) is not the let's `$x`.
        assert_eq!(
            simp("let $x := 5 return ($x, for $x in (3,1,2) order by $x return $x)"),
            simp("(5, for $x in (3,1,2) order by $x return $x)")
        );
    }

    #[test]
    fn let_inline_refuses_a_capturing_binder() {
        // GUARD: each body rebinds `$y`, which the value `$y` reads;
        // inlining would read the inner binding instead.
        for q in [
            "let $x := $y return (for $y in (7,8) return $x)",
            "for $y in (1,2) return let $x := $y * 10 return (for $y in (7,8) return $x)",
            "let $x := $y return (some $y in (7,8) satisfies $x = 1)",
            "let $x := $y return (for $z at $y in (7,8) return $x)",
        ] {
            let mut kept = false;
            simp(q).walk(&mut |c| kept |= matches!(c, Core::Let { var, .. } if var == "x"));
            assert!(kept, "let $x inlined under a capturing binder: {q}");
        }
        // With a constant for the outer `$y` nothing is captured, and the
        // whole chain folds to the right value.
        for (q, folded) in [
            (
                "let $y := 1 return let $x := $y return (for $y in (7,8) return $x)",
                "for $y in (7,8) return 1",
            ),
            (
                "let $y := 1 return let $x := $y return (some $y in (7,8) satisfies $x = 1)",
                "some $y in (7,8) satisfies 1 = 1",
            ),
            (
                "let $y := 1 return let $x := $y return (for $z at $y in (7,8) return $x)",
                "for $z at $y in (7,8) return 1",
            ),
        ] {
            assert_eq!(simp(q), simp(folded), "{q}");
        }
    }

    #[test]
    fn simplify_is_idempotent() {
        // More predicates in one loop than `simplify` has passes.
        let counts: Vec<String> = (0..10)
            .map(|i| format!("count($d//c{i}[k = $p/@id])"))
            .collect();
        let many = format!("for $p in $d//p return ({})", counts.join(", "));
        for q in [
            "1 + 2",
            "let $x := insert { <a/> } into { $t } return 42",
            "for $p in $s for $t in $u where $t/@a = $p/@b return $t",
            &many,
        ] {
            let prog = compile(q).unwrap();
            let a = EffectAnalysis::new(&prog);
            let once = simplify(&prog.body, &a);
            let twice = simplify(&once, &a);
            assert_eq!(once, twice, "not idempotent for {q}");
        }
        let mut hoisted = 0;
        simp(&many).walk(&mut |c| {
            hoisted += usize::from(matches!(c, Core::Let { var, .. } if var.starts_with(FRESH)));
        });
        assert_eq!(hoisted, 10);
    }

    /// Does simplifying `q` hoist a predicate (bind an invented variable)?
    fn hoists(q: &str) -> bool {
        let mut found = false;
        simp(q).walk(&mut |c| {
            found |= matches!(c, Core::Let { var, .. } if var.starts_with(FRESH));
        });
        found
    }

    #[test]
    fn predicate_unnest_hoists_only_where_the_guards_hold() {
        let ca = "$d//ca[b/@p = $p/@id]";
        for q in [
            format!("for $p in $d//p return count({ca})"),
            format!("for $p in $d//p let $n := count({ca}) return ($n, $n)"),
            "for $p in $d//p return ($d//ca)[b/@p = $p/@id]".to_string(),
            "for $p in $d//p[@x] return count($d//ca/b[$p/@id = .])".to_string(),
        ] {
            assert!(hoists(&q), "{q}");
        }
        for q in [
            // An `at` variable, an `and` operand, a quantifier body, a
            // nested loop body, and a snap earlier in the body.
            format!("for $p at $i in $d//p return count({ca})"),
            format!("for $p in $d//p return ($p/@x and exists({ca}))"),
            format!("for $p in $d//p return some $x in (1, 2) satisfies exists({ca})"),
            format!("for $p in $d//p return for $q in $d//q return count({ca})"),
            format!("for $p in $d//p return (snap {{ delete {{ $d//x }} }}, count({ca}))"),
            // `R` reads a variable bound between the loop and the
            // occurrence; `P` reads the loop variable; `R` does not.
            "for $p in $d//p let $k := $p/@id return (count($d//ca[b/@p = $k]), $k)".into(),
            "for $p in $d//p return count($p//ca[b/@p = $p/@id])".into(),
            "for $p in $d//p return count($d//ca[b/@p = $d/@id])".into(),
            // A zero-argument call reads the focus on either side.
            "for $p in $d//p return count($d//ca[string() = $p/@id])".into(),
            "for $p in $d//p return count($d//ca[b/@p = concat($p/@id, string())])".into(),
            // A side that is no step chain may be typed (`"03" = 3` is
            // true, the join's string keys differ) or raise where the
            // nested loop, over an empty `P`, would not.
            "for $p in $d//p return count($d//ca[b/@p = $p/@id + 0])".into(),
            "for $p in $d//p return count($d//ca[b/@p = number($p/@id)])".into(),
            "for $p in $d//p return count($d//ca[b/@p = $d//p[@id = $p/@id]/@id])".into(),
            "for $p in $d//p return count($d//ca[b[1]/@p = $p/@id])".into(),
            // A loop over anything but a path may bind atomics.
            "for $p in ($d//p, 1) return count($d//ca[b/@p = $p/@id])".into(),
        ] {
            assert!(!hoists(&q), "{q}");
        }
    }

    #[test]
    fn invented_variables_are_fresh_per_hoist() {
        let c = simp(
            "for $p in $d//p return (count($d//ca[b/@p = $p/@id]), count($d//ca[s/@p = $p/@id]))",
        );
        let mut names = Vec::new();
        c.walk(&mut |e| names.extend(e.binds().into_iter().flatten().map(str::to_string)));
        names.sort();
        assert_eq!(names, ["p", "~a0", "~a1", "~t0", "~t1"]);
        // Hoisted in evaluation order, all in one pass.
        let Core::For { body, .. } = &c else {
            panic!("outer for lost: {c:?}")
        };
        assert!(
            matches!(&**body, Core::Let { var, .. } if var == "~a0"),
            "{body:?}"
        );
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
