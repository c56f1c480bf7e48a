//! Parallel evaluation of effect-free regions (DESIGN.md §9).
//!
//! The paper's §4.2 observation — evaluation inside an innermost `snap` is
//! effect-free, so "both the pure subexpressions and the update operations
//! can be evaluated in any order" — is exactly the precondition for data
//! parallelism. This module supplies the three pieces the evaluator and
//! the plan executor share:
//!
//! * the **gate** ([`within_ceiling`]; [`par_safe`] is its `Pure`
//!   instance): a loop body may fan out only when the effect lattice rates
//!   it `Pure` *and* a structural walk (transitive through called
//!   functions) finds no construct the rating hides — `fn:parse-xml`
//!   allocates store nodes behind its read-only rating, `fn:trace` has
//!   observable output order, and a `snap` over pure code draws seeds and
//!   bumps snap statistics. The server's snapshot-read gate is the same
//!   judgment with the ceiling at `Alloc`;
//! * the **pure evaluator** ([`eval_pure`]): the `Pure` subset of the
//!   dynamic semantics over a *shared* `&Store`, so workers need no store
//!   locking at all (the store has no interior mutability; see the
//!   `Send + Sync` assertions in `xqdm`);
//! * the **fan-out driver** ([`par_map`]): contiguous chunks over a scoped
//!   worker pool (`std::thread::scope`, no dependencies), per-item results
//!   collected in input order.
//!
//! Sequential semantics are preserved bit-for-bit: values and their order
//! (chunks are contiguous and reassembled in input order), Δ statistics
//! (a `Pure` body touches neither the Δ stack nor the snap counters), and
//! error codes ([`merge_in_order`] surfaces the error of the *first*
//! failing iteration, which is the one the sequential loop would have
//! raised; later iterations may run wastefully but — being pure — leave no
//! trace).

use crate::effects::{Effect, EffectAnalysis};
use crate::env::{DynEnv, FnKey, Focus, Scope};
use crate::eval::{cmp_keys, gather_axis, require_node};
use crate::functions;
use crate::limits::{self, LimitGuard, TripKind};
use std::collections::HashSet;
use xqdm::atomic::{arithmetic, negate, value_compare, Atomic};
use xqdm::item::{self, Item, Sequence};
use xqdm::seq;
use xqdm::{Store, XdmError, XdmResult};
use xqsyn::ast::{NodeCompOp, Quantifier};
use xqsyn::core::Core;

/// Fewest source items worth fanning out — below this, spawn cost
/// dominates any conceivable body.
pub const PAR_MIN_ITEMS: usize = 4;

/// Stack size for parallel workers: pure evaluation recurses like the main
/// evaluation thread (same depth limit, [`crate::limits::Limits::max_depth`]),
/// so workers get the same headroom. The reservation is virtual; pages
/// commit lazily.
const PAR_STACK_BYTES: usize = 64 << 20;

/// Upper bound on configured worker counts (a typo like `XQB_THREADS=800`
/// should not try to spawn 800 threads per loop).
pub const MAX_THREADS: usize = 64;

/// The thread count the `XQB_THREADS` environment variable requests, or 1
/// (sequential) when unset or unparsable. Read at engine construction;
/// override per engine with `Engine::set_threads`.
pub fn threads_from_env() -> usize {
    std::env::var("XQB_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .map(|n| n.clamp(1, MAX_THREADS))
        .unwrap_or(1)
}

/// The one safety judgment every gate consults (the E8 purity guard,
/// reused and sharpened): `body`'s effect rating is at most `ceiling`
/// **and** it is structurally transparent ([`par_transparent`])
/// transitively through every user function it can call, as `scope`
/// resolves them. Two ceilings are in use:
///
/// * [`Effect::Pure`] — worker fan-out ([`par_safe`]): workers share
///   `&Store`, so the body may not even allocate;
/// * [`Effect::Alloc`] — the server's snapshot-read gate
///   (`Engine::is_read_only`): the request owns a private COW fork, so
///   constructing nodes is harmless — they die with the fork — while
///   emitting or applying update requests is still a write.
pub fn within_ceiling(ceiling: Effect, body: &Core, scope: &Scope) -> bool {
    if scope.effects().effect(body) > ceiling {
        return false;
    }
    transparent_rec(body, scope, &mut HashSet::new())
}

/// May `body` be evaluated by parallel workers sharing `&Store`?
/// [`within_ceiling`] at [`Effect::Pure`]: the body neither allocates, nor
/// appends update requests, nor applies them. Every fan-out layer
/// (interpreter loop, plan executor, join sides) asks this.
pub fn par_safe(body: &Core, scope: &Scope) -> bool {
    within_ceiling(Effect::Pure, body, scope)
}

fn transparent_rec(expr: &Core, scope: &Scope, visited: &mut HashSet<FnKey>) -> bool {
    if !par_transparent(expr) {
        return false;
    }
    let mut callees: Vec<FnKey> = Vec::new();
    expr.walk(&mut |e| {
        if let Core::Call(name, args) = e {
            callees.push((name.clone(), args.len()));
        }
    });
    for key in callees {
        if let Some(f) = scope.function(&key.0, key.1) {
            if visited.insert(key) && !transparent_rec(&f.body, scope, visited) {
                return false;
            }
        }
        // Unknown non-builtins were already rated Effectful by the
        // analysis, so the ceiling rejected them before reaching here.
    }
    true
}

/// Expression-level transparency: no call to a par-opaque built-in
/// ([`functions::is_par_opaque`]) and no `snap` (even over pure code a
/// snap draws an application seed and counts toward the snap statistics,
/// which must match the sequential run exactly). Does **not** chase user
/// function calls — [`within_ceiling`] does.
pub fn par_transparent(expr: &Core) -> bool {
    let mut ok = true;
    expr.walk(&mut |e| match e {
        Core::Call(name, _) if functions::is_par_opaque(name) => ok = false,
        Core::Snap(..) => ok = false,
        _ => {}
    });
    ok
}

/// Would `body` be admitted by the parallel gate, judged from the effect
/// analysis alone? Used by EXPLAIN to annotate join bodies; advisory in
/// the rare case where a called pure function hides a par-opaque built-in
/// (the runtime gate still rejects it).
pub fn body_par(body: &Core, analysis: &EffectAnalysis) -> bool {
    analysis.effect(body) == Effect::Pure && par_transparent(body)
}

/// Does `core` contain a `for` loop whose body the parallel gate would
/// admit (see [`body_par`] for the advisory caveat)? Used by EXPLAIN to
/// put the `par` marker on `Iterate` leaves.
pub fn marks_par_loop(core: &Core, analysis: &EffectAnalysis) -> bool {
    let mut found = false;
    core.walk(&mut |e| {
        if let Core::For { body, .. } = e {
            if body_par(body, analysis) {
                found = true;
            }
        }
    });
    found
}

/// The read-only slice of an `Evaluator` that pure workers need. Obtain
/// one from `Evaluator::pure_ctx()`.
#[derive(Clone, Copy)]
pub struct PureCtx<'a> {
    /// The functions and globals the program can name, and under them the
    /// run policy (thread budget, depth limit, metric handles).
    pub scope: &'a Scope,
    /// The evaluator's armed limit guard, shared by every worker: the
    /// first worker to exceed a limit trips it and every sibling's next
    /// tick unwinds with the same error class (DESIGN.md §12).
    pub guard: &'a LimitGuard,
}

/// Fan `items` out over at most `ctx`'s thread budget of scoped workers
/// and collect the per-item results **in input order**. Each worker
/// receives a clone of `env` (workers never see each other's bindings)
/// and processes one contiguous chunk, so within-chunk evaluation order
/// equals sequential order. A panicking worker propagates its panic to the caller after the
/// scope joins every thread — identical blast radius to a panic in a
/// sequential loop (the engine's catch/rollback sees the same thing).
///
/// Thread-spawn failure (an OS resource limit, not a query error) degrades
/// gracefully: chunks whose worker could not be spawned are evaluated
/// sequentially on the calling thread after the spawned workers join, and
/// the `engine.par_spawn_fallback` counter records the event. A pure body
/// cannot observe the difference.
pub fn par_map<T, F>(ctx: &PureCtx<'_>, env: &DynEnv, items: &[T], f: F) -> Vec<XdmResult<Sequence>>
where
    T: Sync,
    F: Fn(&mut DynEnv, usize, &T) -> XdmResult<Sequence> + Sync,
{
    let n = items.len();
    let workers = ctx.scope.env().threads.clamp(1, MAX_THREADS).min(n);
    if workers <= 1 {
        let mut env = env.clone();
        return items
            .iter()
            .enumerate()
            .map(|(i, it)| f(&mut env, i, it))
            .collect();
    }
    let chunk = n.div_ceil(workers);
    let mut results: Vec<Option<XdmResult<Sequence>>> = (0..n).map(|_| None).collect();
    let mut spawn_failed = false;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        let mut rest: &mut [Option<XdmResult<Sequence>>] = &mut results;
        for w in 0..workers {
            let lo = w * chunk;
            let hi = ((w + 1) * chunk).min(n);
            if lo >= hi {
                break;
            }
            let (slot, tail) = rest.split_at_mut(hi - lo);
            rest = tail;
            let chunk_items = &items[lo..hi];
            let f = &f;
            let mut wenv = env.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("xqb-par-{w}"))
                .stack_size(PAR_STACK_BYTES)
                .spawn_scoped(scope, move || {
                    for (j, it) in chunk_items.iter().enumerate() {
                        slot[j] = Some(f(&mut wenv, lo + j, it));
                    }
                });
            match spawned {
                Ok(h) => handles.push(h),
                // An OS thread limit is not the query's fault: the dropped
                // closure releases its slots (still `None`), and the
                // sequential sweep below fills them.
                Err(_) => spawn_failed = true,
            }
        }
        for h in handles {
            if let Err(p) = h.join() {
                std::panic::resume_unwind(p);
            }
        }
    });
    if spawn_failed {
        ctx.scope.env().metrics.par_spawn_fallback.add(1);
        let mut fenv = env.clone();
        for (i, slot) in results.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(f(&mut fenv, i, &items[i]));
            }
        }
    }
    // Order preservation: the chunks partition 0..n exactly, so every slot
    // must be filled — a hole would mean dropped or reordered work.
    debug_assert!(
        results.iter().all(Option::is_some),
        "parallel worker left an item slot unfilled"
    );
    results
        .into_iter()
        .map(|r| r.expect("parallel worker left an item slot unfilled"))
        .collect()
}

/// Concatenate per-item results in input order; the first error — the one
/// the sequential loop would have raised — wins.
pub fn merge_in_order(results: Vec<XdmResult<Sequence>>) -> XdmResult<Sequence> {
    let mut out = Sequence::new();
    for r in results {
        out.extend(r?);
    }
    Ok(out)
}

fn non_pure(what: &str) -> XdmError {
    XdmError::new(
        "XQB0051",
        format!("internal: parallel worker reached a non-pure operator ({what})"),
    )
}

/// The `Pure` subset of the dynamic semantics over a shared `&Store`.
/// `depth` is the evaluator's recursion depth at the fan-out point, so the
/// `XQB0040` recursion limit fires at exactly the nesting the sequential
/// evaluation would have reported. Every step ticks the shared
/// [`LimitGuard`], so fuel/deadline trips cancel sibling workers
/// cooperatively. Operators outside the subset (updates, constructors,
/// `copy`, `snap`) report `XQB0051`: the gate excludes them statically, so
/// reaching one is a gate bug, never a user error.
pub fn eval_pure(
    ctx: &PureCtx<'_>,
    store: &Store,
    env: &mut DynEnv,
    depth: usize,
    expr: &Core,
) -> XdmResult<Sequence> {
    let depth = depth + 1;
    let max_depth = ctx.scope.env().limits.max_depth;
    if depth > max_depth {
        ctx.guard.note_trip(TripKind::Depth);
        return Err(limits::depth_error(max_depth));
    }
    ctx.guard.tick()?;
    match expr {
        Core::Const(a) => Ok(seq![Item::Atomic(a.clone())]),
        Core::Var(name) => match env.var(name) {
            Ok(v) => Ok(v.clone()),
            Err(e) => ctx.scope.global(name).cloned().ok_or(e),
        },
        Core::ContextItem => Ok(seq![env.focus()?.item.clone()]),
        Core::Seq(items) => {
            let mut out = Sequence::new();
            for e in items {
                out.extend(eval_pure(ctx, store, env, depth, e)?);
            }
            Ok(out)
        }
        Core::For {
            var,
            position,
            source,
            body,
        } => {
            // Sequential inside a worker: one level of fan-out is enough,
            // and nesting scoped pools would multiply thread counts.
            let src = eval_pure(ctx, store, env, depth, source)?;
            let mut out = Sequence::new();
            for (i, it) in src.into_iter().enumerate() {
                env.push_var(var.clone(), seq![it]);
                if let Some(p) = position {
                    env.push_var(p.clone(), seq![Item::integer((i + 1) as i64)]);
                }
                let r = eval_pure(ctx, store, env, depth, body);
                if position.is_some() {
                    env.pop_var();
                }
                env.pop_var();
                out.extend(r?);
            }
            Ok(out)
        }
        Core::Let { var, value, body } => {
            let v = eval_pure(ctx, store, env, depth, value)?;
            env.push_var(var.clone(), v);
            let r = eval_pure(ctx, store, env, depth, body);
            env.pop_var();
            r
        }
        Core::If(cond, then, els) => {
            let c = eval_pure(ctx, store, env, depth, cond)?;
            if item::effective_boolean(&c, store)? {
                eval_pure(ctx, store, env, depth, then)
            } else {
                eval_pure(ctx, store, env, depth, els)
            }
        }
        Core::Quantified {
            quantifier,
            var,
            source,
            satisfies,
        } => {
            let src = eval_pure(ctx, store, env, depth, source)?;
            let mut result = matches!(quantifier, Quantifier::Every);
            for it in src {
                env.push_var(var.clone(), seq![it]);
                let s = eval_pure(ctx, store, env, depth, satisfies);
                env.pop_var();
                let holds = item::effective_boolean(&s?, store)?;
                match quantifier {
                    Quantifier::Some if holds => {
                        result = true;
                        break;
                    }
                    Quantifier::Every if !holds => {
                        result = false;
                        break;
                    }
                    _ => {}
                }
            }
            Ok(seq![Item::boolean(result)])
        }
        Core::SortedFor {
            var,
            source,
            keys,
            body,
        } => {
            let src = eval_pure(ctx, store, env, depth, source)?;
            let mut keyed: Vec<(Vec<Option<Atomic>>, Item)> = Vec::with_capacity(src.len());
            for it in src {
                env.push_var(var.clone(), seq![it.clone()]);
                let ks = (|env: &mut DynEnv| {
                    let mut ks = Vec::with_capacity(keys.len());
                    for k in keys {
                        let kv = eval_pure(ctx, store, env, depth, &k.key)?;
                        let a = item::zero_or_one(kv)?
                            .map(|x| x.atomize(store))
                            .transpose()?;
                        ks.push(a);
                    }
                    Ok(ks)
                })(env);
                env.pop_var();
                keyed.push((ks?, it));
            }
            keyed.sort_by(|(ka, _), (kb, _)| {
                for (i, (a, b)) in ka.iter().zip(kb).enumerate() {
                    let ord = cmp_keys(a, b);
                    let ord = if keys[i].ascending {
                        ord
                    } else {
                        ord.reverse()
                    };
                    if ord != std::cmp::Ordering::Equal {
                        return ord;
                    }
                }
                std::cmp::Ordering::Equal
            });
            let mut out = Sequence::new();
            for (_, it) in keyed {
                env.push_var(var.clone(), seq![it]);
                let r = eval_pure(ctx, store, env, depth, body);
                env.pop_var();
                out.extend(r?);
            }
            Ok(out)
        }
        Core::Arith(op, l, r) => {
            let lv = eval_pure(ctx, store, env, depth, l)?;
            let rv = eval_pure(ctx, store, env, depth, r)?;
            let la = item::zero_or_one(lv)?
                .map(|x| x.atomize(store))
                .transpose()?;
            let ra = item::zero_or_one(rv)?
                .map(|x| x.atomize(store))
                .transpose()?;
            match (la, ra) {
                (Some(a), Some(b)) => Ok(seq![Item::Atomic(arithmetic(*op, &a, &b)?)]),
                _ => Ok(seq![]),
            }
        }
        Core::Neg(e) => {
            let v = eval_pure(ctx, store, env, depth, e)?;
            match item::zero_or_one(v)?
                .map(|x| x.atomize(store))
                .transpose()?
            {
                Some(a) => Ok(seq![Item::Atomic(negate(&a)?)]),
                None => Ok(seq![]),
            }
        }
        Core::GeneralComp(op, l, r) => {
            let lv = eval_pure(ctx, store, env, depth, l)?;
            let rv = eval_pure(ctx, store, env, depth, r)?;
            Ok(seq![Item::boolean(item::general_compare_seqs(
                *op, &lv, &rv, store,
            )?)])
        }
        Core::ValueComp(op, l, r) => {
            let lv = eval_pure(ctx, store, env, depth, l)?;
            let rv = eval_pure(ctx, store, env, depth, r)?;
            let la = item::zero_or_one(lv)?
                .map(|x| x.atomize(store))
                .transpose()?;
            let ra = item::zero_or_one(rv)?
                .map(|x| x.atomize(store))
                .transpose()?;
            match (la, ra) {
                (Some(a), Some(b)) => Ok(seq![Item::boolean(value_compare(*op, &a, &b)?)]),
                _ => Ok(seq![]),
            }
        }
        Core::NodeComp(op, l, r) => {
            let lv = eval_pure(ctx, store, env, depth, l)?;
            let rv = eval_pure(ctx, store, env, depth, r)?;
            let ln = item::zero_or_one(lv)?;
            let rn = item::zero_or_one(rv)?;
            match (ln, rn) {
                (Some(a), Some(b)) => {
                    let (a, b) = (require_node(a)?, require_node(b)?);
                    let res = match op {
                        NodeCompOp::Is => a == b,
                        NodeCompOp::Precedes => {
                            store.cmp_doc_order(a, b)? == std::cmp::Ordering::Less
                        }
                        NodeCompOp::Follows => {
                            store.cmp_doc_order(a, b)? == std::cmp::Ordering::Greater
                        }
                    };
                    Ok(seq![Item::boolean(res)])
                }
                _ => Ok(seq![]),
            }
        }
        Core::And(l, r) => {
            let lv = eval_pure(ctx, store, env, depth, l)?;
            if !item::effective_boolean(&lv, store)? {
                return Ok(seq![Item::boolean(false)]);
            }
            let rv = eval_pure(ctx, store, env, depth, r)?;
            Ok(seq![Item::boolean(item::effective_boolean(&rv, store)?)])
        }
        Core::Or(l, r) => {
            let lv = eval_pure(ctx, store, env, depth, l)?;
            if item::effective_boolean(&lv, store)? {
                return Ok(seq![Item::boolean(true)]);
            }
            let rv = eval_pure(ctx, store, env, depth, r)?;
            Ok(seq![Item::boolean(item::effective_boolean(&rv, store)?)])
        }
        Core::Union(l, r) => {
            let mut lv = eval_pure(ctx, store, env, depth, l)?;
            let rv = eval_pure(ctx, store, env, depth, r)?;
            lv.extend(rv);
            let mut nodes = item::all_nodes(&lv)?;
            store.sort_and_dedup(&mut nodes)?;
            Ok(nodes.into_iter().map(Item::Node).collect())
        }
        Core::Range(l, r) => {
            let lv = eval_pure(ctx, store, env, depth, l)?;
            let rv = eval_pure(ctx, store, env, depth, r)?;
            let la = item::zero_or_one(lv)?
                .map(|x| x.atomize(store))
                .transpose()?;
            let ra = item::zero_or_one(rv)?
                .map(|x| x.atomize(store))
                .transpose()?;
            match (la, ra) {
                (Some(a), Some(b)) => {
                    let (a, b) = (a.to_integer()?, b.to_integer()?);
                    let span = b
                        .checked_sub(a)
                        .and_then(|d| d.checked_add(1))
                        .unwrap_or(i64::MAX)
                        .max(0) as u64;
                    ctx.guard.charge(span)?;
                    Ok((a..=b).map(Item::integer).collect())
                }
                _ => Ok(seq![]),
            }
        }
        Core::MapStep {
            base,
            axis,
            test,
            predicates,
        } => {
            let origins = eval_pure(ctx, store, env, depth, base)?;
            let mut out = Sequence::new();
            for origin in &origins {
                let n = require_node(origin.clone())?;
                let axis_nodes = gather_axis(store, n, *axis, test)?;
                let mut items: Sequence = axis_nodes.into_iter().map(Item::Node).collect();
                for pred in predicates {
                    items = filter_positional_pure(ctx, store, env, depth, items, pred)?;
                }
                out.extend(items);
            }
            let mut nodes = item::all_nodes(&out)?;
            store.sort_and_dedup(&mut nodes)?;
            Ok(nodes.into_iter().map(Item::Node).collect())
        }
        Core::DocOrder(e) => {
            let v = eval_pure(ctx, store, env, depth, e)?;
            let mut nodes = item::all_nodes(&v)?;
            store.sort_and_dedup(&mut nodes)?;
            Ok(nodes.into_iter().map(Item::Node).collect())
        }
        Core::Predicate { base, pred } => {
            let v = eval_pure(ctx, store, env, depth, base)?;
            filter_positional_pure(ctx, store, env, depth, v, pred)
        }
        Core::Call(name, args) => {
            let mut values = Vec::with_capacity(args.len());
            for a in args {
                values.push(eval_pure(ctx, store, env, depth, a)?);
            }
            if let Some(result) = functions::dispatch_readonly(name, values.clone(), store, env) {
                return result;
            }
            let Some(func) = ctx.scope.function(name, args.len()) else {
                return Err(XdmError::new(
                    "XPST0017",
                    format!("undefined function {name}#{}", args.len()),
                ));
            };
            // Function bodies see only their parameters and globals.
            let mut fenv = DynEnv::new();
            for (p, v) in func.params.iter().zip(values) {
                fenv.push_var(p.clone(), v);
            }
            eval_pure(ctx, store, &mut fenv, depth, &func.body)
        }
        Core::ElemCtor { .. }
        | Core::AttrCtor { .. }
        | Core::TextCtor(_)
        | Core::DocCtor(_)
        | Core::Copy(_) => Err(non_pure("node constructor")),
        Core::Insert { .. }
        | Core::Delete(_)
        | Core::Replace(..)
        | Core::ReplaceValue(..)
        | Core::Rename(..) => Err(non_pure("update operator")),
        Core::Snap(..) => Err(non_pure("snap")),
    }
}

/// Positional predicate filtering — the pure twin of the evaluator's rule.
fn filter_positional_pure(
    ctx: &PureCtx<'_>,
    store: &Store,
    env: &mut DynEnv,
    depth: usize,
    items: Sequence,
    pred: &Core,
) -> XdmResult<Sequence> {
    if let Core::Const(a) = pred {
        if a.is_numeric() {
            let wanted = a.to_double()?;
            let idx = wanted as usize;
            if wanted.fract() == 0.0 && idx >= 1 && idx <= items.len() {
                return Ok(seq![items[idx - 1].clone()]);
            }
            return Ok(seq![]);
        }
    }
    let size = items.len();
    let mut out = Sequence::new();
    for (i, it) in items.into_iter().enumerate() {
        env.push_focus(Focus {
            item: it.clone(),
            position: i + 1,
            size,
        });
        let v = eval_pure(ctx, store, env, depth, pred);
        env.pop_focus();
        let v = v?;
        let keep = match v.as_slice() {
            [Item::Atomic(a)] if a.is_numeric() => a.to_double()? == (i + 1) as f64,
            other => item::effective_boolean(other, store)?,
        };
        if keep {
            out.push(it);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::ProgramEnv;
    use crate::eval::Evaluator;
    use std::sync::Arc;
    use xqsyn::compile;

    fn gate(src: &str) -> bool {
        gate_at(Effect::Pure, src)
    }

    fn gate_at(ceiling: Effect, src: &str) -> bool {
        let prog = compile(src).expect("compile");
        // Gate judged on the whole body expression, as a loop body would be.
        within_ceiling(ceiling, &prog.body, &Scope::new(Arc::default(), &prog))
    }

    /// An evaluator with a budget of `threads` workers, for its `pure_ctx`.
    fn evaluator_with_threads(threads: usize) -> Evaluator {
        let mut env = ProgramEnv::default();
        env.threads = threads;
        Evaluator::new(Arc::new(env), &compile("()").unwrap())
    }

    #[test]
    fn alloc_ceiling_admits_construction_and_nothing_more() {
        let alloc = |src| gate_at(Effect::Alloc, src);
        assert!(alloc("$x/a[@id = 3] + count($y)"));
        assert!(alloc(
            "for $p in $s return <item n=\"{$p/@n}\">{ count($p/*) }</item>"
        ));
        assert!(alloc("copy { $x }"));
        assert!(alloc("declare function mk($n) { <e>{$n}</e> }; mk(1)"));
        // Pending and Effectful stay above the ceiling, constructor or not.
        assert!(!alloc("insert { <a/> } into { $x }"));
        assert!(!alloc("(<a/>, snap { delete { $x } })"));
        // The transparency walk is the same one: snap, tracing and the
        // par-opaque built-ins are rejected at either ceiling, also behind
        // a constructor in a function body.
        assert!(!alloc("snap { <a/> }"));
        assert!(!alloc("<a>{ parse-xml(\"<b/>\") }</a>"));
        assert!(!alloc(
            "declare function mk() { <a>{ snap { 1 } }</a> }; mk()"
        ));
    }

    #[test]
    fn gate_admits_pure_rejects_impure() {
        assert!(gate("$x/a[@id = 3] + count($y)"));
        assert!(gate("for $i in 1 to 9 return $i * $i"));
        // Alloc, Pending, Effectful: all rejected.
        assert!(!gate("<a/>"));
        assert!(!gate("insert { <a/> } into { $x }"));
        assert!(!gate("snap { delete { $x } }"));
        // Pure-rated but par-opaque.
        assert!(!gate("parse-xml(\"<a/>\")"));
        assert!(!gate("trace($x, \"label\")"));
        // A snap over pure code is Pure on the lattice but draws seeds.
        assert!(!gate("snap { 1 + 2 }"));
    }

    #[test]
    fn gate_chases_function_bodies() {
        assert!(gate(
            "declare function f($n) { $n * 2 }; for $i in $s return f($i)"
        ));
        // parse-xml hides behind a pure-rated function body.
        assert!(!gate(
            "declare function f($n) { parse-xml(\"<a/>\") }; for $i in $s return f($i)"
        ));
        // ...and behind one more level of calls.
        assert!(!gate(
            "declare function g() { parse-xml(\"<a/>\") };
             declare function f($n) { g() };
             f(1)"
        ));
    }

    #[test]
    fn par_map_preserves_input_order_and_first_error() {
        let env = DynEnv::new();
        let items: Vec<i64> = (0..100).collect();
        let ev = evaluator_with_threads(8);
        let ctx = ev.pure_ctx();
        let results = par_map(&ctx, &env, &items, |_env, i, it| {
            assert_eq!(*it as usize, i);
            Ok(seq![Item::integer(*it * 2)])
        });
        let merged = merge_in_order(results).unwrap();
        assert_eq!(merged.len(), 100);
        assert_eq!(merged[41], Item::integer(82));

        // Two failing items: the earlier one's error surfaces.
        let results = par_map(&ctx, &env, &items, |_env, _i, it| {
            if *it == 97 {
                Err(XdmError::new("E-LATE", "late"))
            } else if *it == 13 {
                Err(XdmError::new("E-EARLY", "early"))
            } else {
                Ok(seq![])
            }
        });
        assert_eq!(merge_in_order(results).unwrap_err().code, "E-EARLY");
    }

    #[test]
    fn eval_pure_matches_sequential_evaluator() {
        let mut store = Store::new();
        let doc =
            xqdm::xml::parse_document(&mut store, "<r><e k=\"1\"/><e k=\"2\"/><e k=\"3\"/></r>")
                .unwrap();
        let prog = compile(
            "for $e in $doc//e order by -number($e/@k) return concat(\"k\", string($e/@k))",
        )
        .unwrap();
        let mut ev = Evaluator::new(Arc::default(), &prog);
        ev.bind_global("doc", seq![Item::Node(doc)]);
        let mut env = DynEnv::new();
        let sequential = ev.eval_query(&mut store, &mut env, &prog.body).unwrap();

        let ctx = ev.pure_ctx();
        let mut penv = DynEnv::new();
        let parallel_path = eval_pure(&ctx, &store, &mut penv, 0, &prog.body).unwrap();
        assert_eq!(sequential, parallel_path);
    }

    #[test]
    fn eval_pure_rejects_non_pure_operators_defensively() {
        let prog = compile("insert { <a/> } into { $x }").unwrap();
        let ev = Evaluator::new(Arc::default(), &prog);
        let ctx = ev.pure_ctx();
        let store = Store::new();
        let mut env = DynEnv::new();
        let err = eval_pure(&ctx, &store, &mut env, 0, &prog.body).unwrap_err();
        assert_eq!(err.code, "XQB0051");
    }

    #[test]
    fn threads_env_parsing_is_defensive() {
        // Not asserting on the live environment (tests run concurrently);
        // just the clamp logic via par_map worker counts.
        let env = DynEnv::new();
        let items = [1i64, 2, 3];
        let ev = evaluator_with_threads(usize::MAX);
        let r = par_map(&ev.pure_ctx(), &env, &items, |_e, _i, it| {
            Ok(seq![Item::integer(*it)])
        });
        assert_eq!(merge_in_order(r).unwrap().len(), 3);
    }
}
