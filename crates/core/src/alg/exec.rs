//! Physical execution of query plans.
//!
//! The optimized plans use a **typed hash join** (paper §4.3): each input
//! is evaluated exactly once, the inner side is hashed on its key's
//! atomized string values, and each outer binding probes the table. This
//! turns the naive `O(|outer| · |inner|)` nested loop into
//! `O(|outer| + |inner| + |matches|)` — the complexity claim experiment E1
//! reproduces.
//!
//! Correctness notes:
//!
//! * **Value order** matches the nested loop: outer-major, inner matches
//!   in inner-sequence order (match indices are collected and sorted).
//! * **Δ order** matches too: the per-match body runs with both variables
//!   bound, in the same (outer, inner) order the nested loop would use, so
//!   even the *ordered* snap semantics sees an identical update list.
//! * String-keyed hashing is faithful because the guards only admit
//!   general `=` over path keys, and untyped-vs-untyped general comparison
//!   is string equality.

use crate::alg::plan::{BatchFilter, BatchPathPlan, BatchStep, GroupByPlan, JoinPlan, QueryPlan};
use crate::eval::{resolve_test, EvalCtx};
use crate::par::Worker;
use crate::{DynEnv, Evaluator};
use std::collections::{HashMap, HashSet};
use xqdm::item::{self, Item, Sequence};
use xqdm::seq;
use xqdm::{KernelTest, NodeId, Store, XdmError, XdmResult};
use xqsyn::ast::{Axis, NodeTest};
use xqsyn::core::Core;

/// Execute a plan inside the caller's current Δ scope. Pending updates the
/// plan body produces are appended to the evaluator's current scope,
/// exactly as if the original core expression had been evaluated: the
/// structural nodes mirror the evaluator's rules operator-for-operator
/// (same binding discipline, same evaluation order, same Δ/seed draws), so
/// compiled and interpreted subtrees interleave freely.
pub fn execute(
    plan: &QueryPlan,
    evaluator: &mut Evaluator,
    store: &mut Store,
    env: &mut DynEnv,
) -> XdmResult<Sequence> {
    execute_at(plan, 0, evaluator, store, env)
}

/// [`execute`] with explicit profile node ids: `base` is this node's
/// pre-order index within its plan tree (child ids are `base + 1 +` the
/// node counts of earlier siblings — pure arithmetic, no per-node state).
/// When the evaluator is profiling, every node is bracketed by
/// `node_enter`/`node_exit` on both success and error paths so frames
/// stay balanced; when it is not, the only overhead is one boolean check.
pub fn execute_at(
    plan: &QueryPlan,
    base: usize,
    evaluator: &mut Evaluator,
    store: &mut Store,
    env: &mut DynEnv,
) -> XdmResult<Sequence> {
    evaluator.note_plan_node();
    // The compiled path's cooperative limit check (DESIGN.md §12): one
    // unit of fuel and a periodic deadline poll per plan node, mirroring
    // the interpreter's per-eval-step tick. Iterate leaves re-enter the
    // interpreter, whose own ticks then take over.
    evaluator.limit_tick()?;
    if !evaluator.profiling() {
        return run_node(plan, base, evaluator, store, env);
    }
    evaluator.node_enter();
    let r = run_node(plan, base, evaluator, store, env);
    let output_rows = r.as_ref().map_or(0, |v| v.len() as u64);
    evaluator.node_exit(base, output_rows);
    r
}

/// The per-operator execution rules shared by the profiled and
/// unprofiled paths.
fn run_node(
    plan: &QueryPlan,
    base: usize,
    evaluator: &mut Evaluator,
    store: &mut Store,
    env: &mut DynEnv,
) -> XdmResult<Sequence> {
    match plan {
        QueryPlan::Iterate(core) => evaluator.eval(store, env, core),
        QueryPlan::BatchPath(bp) => exec_batch_path(bp, true, evaluator, store, env),
        QueryPlan::HashJoin(join) => {
            evaluator.note_join();
            if evaluator.par_candidate(&join.body) {
                return par_hash_join(join, evaluator, store, env);
            }
            let mut out = Sequence::new();
            for_each_match(join, evaluator, store, env, |ev, store, env, _outer, _| {
                let v = ev.eval(store, env, &join.body)?;
                ev.limit_charge(&v)?;
                out.extend(v);
                Ok(())
            })?;
            Ok(out)
        }
        QueryPlan::OuterJoinGroupBy(group) => {
            evaluator.note_join();
            if evaluator.par_candidate(&group.join.body) && evaluator.par_candidate(&group.ret) {
                return par_group_by(group, evaluator, store, env);
            }
            execute_group_by(group, evaluator, store, env)
        }
        QueryPlan::Seq(items) => {
            let mut out = Sequence::new();
            let mut child = base + 1;
            for p in items {
                let v = execute_at(p, child, evaluator, store, env)?;
                evaluator.limit_charge(&v)?;
                out.extend(v);
                child += p.node_count();
            }
            Ok(out)
        }
        QueryPlan::Let { var, value, body } => {
            let value_id = base + 1;
            let body_id = value_id + value.node_count();
            let v = execute_at(value, value_id, evaluator, store, env)?;
            evaluator.note_input(v.len() as u64);
            env.push_var(var.clone(), v);
            let r = execute_at(body, body_id, evaluator, store, env);
            env.pop_var();
            r
        }
        QueryPlan::For {
            var,
            position,
            source,
            body,
        } => {
            let source_id = base + 1;
            let body_id = source_id + source.node_count();
            let src = execute_at(source, source_id, evaluator, store, env)?;
            evaluator.note_input(src.len() as u64);
            // Pure bodies fan out through the interpreter's own `Core::For`
            // helper (they collapsed to an `Iterate` leaf at compile time,
            // so the same gate applies to the same core expression).
            // Fanned-out iterations attribute to *this* node's profile
            // frame: the body node records no calls, but each iteration
            // still pays its `limit_tick`.
            if let QueryPlan::Iterate(core) = body.as_ref() {
                let binders = (var.as_str(), position.as_deref());
                if let Some(r) = evaluator.par_for(store, env, binders, &src, core, true) {
                    return r;
                }
            }
            let mut out = Sequence::new();
            for (i, it) in src.into_iter().enumerate() {
                env.push_var(var.clone(), seq![it]);
                if let Some(p) = position {
                    env.push_var(p.clone(), seq![Item::integer((i + 1) as i64)]);
                }
                let r = execute_at(body, body_id, evaluator, store, env);
                if position.is_some() {
                    env.pop_var();
                }
                env.pop_var();
                let v = r?;
                evaluator.limit_charge(&v)?;
                out.extend(v);
            }
            Ok(out)
        }
        QueryPlan::If { cond, then, els } => {
            let cond_id = base + 1;
            let then_id = cond_id + cond.node_count();
            let els_id = then_id + then.node_count();
            let c = execute_at(cond, cond_id, evaluator, store, env)?;
            evaluator.note_input(c.len() as u64);
            if item::effective_boolean(&c, store)? {
                execute_at(then, then_id, evaluator, store, env)
            } else {
                execute_at(els, els_id, evaluator, store, env)
            }
        }
        QueryPlan::Snap { mode, body } => {
            // The plan twin of the `Core::Snap` rule: same scope push, same
            // apply (and seed draw) on success, same discard on error.
            evaluator.begin_snap_scope();
            match execute_at(body, base + 1, evaluator, store, env) {
                Ok(value) => {
                    evaluator.apply_snap_scope(store, *mode)?;
                    Ok(value)
                }
                Err(e) => {
                    evaluator.end_snap_scope();
                    Err(e)
                }
            }
        }
    }
}

/// Execute a batched path chain: evaluate the input once, then map the
/// whole node batch through one store kernel per step, doc-order sorting
/// and deduplicating after each — the exact per-step `ddo` the
/// interpreter applies, so results are observably identical.
fn exec_batch_path(
    bp: &BatchPathPlan,
    note_input: bool,
    evaluator: &mut Evaluator,
    store: &mut Store,
    env: &mut DynEnv,
) -> XdmResult<Sequence> {
    let origins = evaluator.eval(store, env, &bp.input)?;
    // Only attribute input cardinality when this chain IS the profiled
    // plan node — as a join source, the join's own frame reports it.
    if note_input {
        evaluator.note_input(origins.len() as u64);
    }
    // Same type error (and message) `Core::MapStep` raises per origin.
    let mut cur: Vec<NodeId> = origins
        .iter()
        .map(|it| {
            it.as_node()
                .ok_or_else(|| XdmError::type_error("expected a node, got an atomic value"))
        })
        .collect::<XdmResult<_>>()?;
    let mut next: Vec<NodeId> = Vec::new();
    run_batch_steps(&bp.steps, bp.idx, evaluator, store, &mut cur, &mut next)?;
    Ok(cur.into_iter().map(Item::Node).collect())
}

/// Drive a step chain over `cur` in place, using `next` as the step
/// output buffer (both are caller-owned so key probes can recycle them).
/// When `allow_idx` is set (the planner saw an index-eligible step with
/// indexes available), each step first offers itself to [`try_index_scan`];
/// the runtime gates there keep a stale `,idx` plan correct.
fn run_batch_steps(
    steps: &[BatchStep],
    allow_idx: bool,
    evaluator: &mut Evaluator,
    store: &Store,
    cur: &mut Vec<NodeId>,
    next: &mut Vec<NodeId>,
) -> XdmResult<()> {
    for step in steps {
        next.clear();
        let used_idx = allow_idx && try_index_scan(step, store, cur, next)?;
        // From at most one origin, every kernel emits in DFS order:
        // already document-ordered and duplicate-free, so the per-step
        // normalization sort can be skipped. (With several origins,
        // nesting lets outputs interleave or repeat, so we must sort.
        // Index buckets hash in arbitrary order: always sort.)
        let sorted = !used_idx && cur.len() <= 1;
        if !used_idx {
            let test = resolve_test(store, &step.test);
            match step.axis {
                Axis::Child => store.batch_children_into(cur, test, next)?,
                Axis::Descendant => {
                    store.batch_descendants_into(cur, test, false, evaluator.scratch_mut(), next)?
                }
                Axis::DescendantOrSelf => {
                    store.batch_descendants_into(cur, test, true, evaluator.scratch_mut(), next)?
                }
                Axis::Attribute => store.batch_attributes_into(cur, test, next)?,
                // The compiler only lowers the four kernel axes.
                _ => {
                    return Err(XdmError::precondition(
                        "batch step on an axis without a kernel",
                    ))
                }
            }
        }
        for filter in &step.filters {
            let mut keep = 0;
            for i in 0..next.len() {
                if filter_keeps(filter, evaluator, store, next[i])? {
                    next[keep] = next[i];
                    keep += 1;
                }
            }
            next.truncate(keep);
        }
        if used_idx {
            evaluator.note_idx(next.len() as u64);
        } else {
            evaluator.note_batch(next.len() as u64);
        }
        if !sorted {
            store.sort_and_dedup_with(next, evaluator.scratch_mut())?;
        }
        std::mem::swap(cur, next);
    }
    Ok(())
}

/// Apply one step predicate to one candidate node. Re-checking an
/// [`BatchFilter::AttrEq`] that already drove an index scan is
/// idempotent — a deliberate simplification over tracking which filter
/// produced the bucket.
fn filter_keeps(
    filter: &BatchFilter,
    evaluator: &mut Evaluator,
    store: &Store,
    candidate: NodeId,
) -> XdmResult<bool> {
    match filter {
        BatchFilter::Exists(chain) => exists_chain(chain, evaluator, store, candidate),
        BatchFilter::AttrEq { name, value } => attr_eq(store, candidate, name, value),
    }
}

/// `@name = "value"` over one element: at most one attribute can carry
/// the name, and untyped-vs-string general comparison is exact string
/// equality (see `compare_atomics`), so a direct kernel probe suffices.
fn attr_eq(store: &Store, element: NodeId, name: &str, value: &str) -> XdmResult<bool> {
    let test = KernelTest::name(store.symbols(), name);
    let mut attrs = Vec::new();
    store.batch_attributes_into(&[element], test, &mut attrs)?;
    for a in attrs {
        if store.string_value(a)? == value {
            return Ok(true);
        }
    }
    Ok(false)
}

/// An existence filter: run the nested chain from one candidate node and
/// test non-emptiness. Nested chains never use index scans: they start
/// from a single binding, where the kernel walk is already minimal.
fn exists_chain(
    chain: &[BatchStep],
    evaluator: &mut Evaluator,
    store: &Store,
    origin: NodeId,
) -> XdmResult<bool> {
    let mut cur = vec![origin];
    let mut next = Vec::new();
    run_batch_steps(chain, false, evaluator, store, &mut cur, &mut next)?;
    Ok(!cur.is_empty())
}

/// Index buckets beyond this fraction of the element population fall
/// back to the batch kernels: a whole-store heuristic (the kernel's true
/// cost is per-subtree), tuned by the E18 selectivity crossover.
const IDX_COST_FACTOR: usize = 4;

/// Try to answer one step from the secondary indexes instead of a kernel
/// walk. Returns `Ok(false)` — leaving `next` empty for the kernel path —
/// whenever the scan is unavailable (indexing disabled, OCC read tracing
/// active) or unprofitable (cost gate). On `Ok(true)`, `next` holds the
/// step's result *before* doc-order normalization.
///
/// The OCC gate exists because a bucket probe reads "no node anywhere has
/// this name/value", a whole-store fact the per-node read footprint can't
/// express; falling back keeps optimistic commits sound.
fn try_index_scan(
    step: &BatchStep,
    store: &Store,
    cur: &[NodeId],
    next: &mut Vec<NodeId>,
) -> XdmResult<bool> {
    if !store.index_enabled() || store.tracing_reads() {
        return Ok(false);
    }
    if !matches!(
        step.axis,
        Axis::Child | Axis::Descendant | Axis::DescendantOrSelf
    ) {
        return Ok(false);
    }
    let budget = store.indexed_elements() / IDX_COST_FACTOR;
    // Prefer the attribute-value index: an equality bucket is almost
    // always narrower than a name bucket.
    let attr_drive = step.filters.iter().find_map(|f| match f {
        BatchFilter::AttrEq { name, value } => Some((name, value)),
        _ => None,
    });
    if let Some((name, value)) = attr_drive {
        let Some(qid) = store.symbols().lookup_lexical(name) else {
            // Name never interned: no such attribute exists anywhere.
            return Ok(true);
        };
        if store.index_attr_len(qid, value) > budget {
            return Ok(false);
        }
        let mut owners = Vec::new();
        store.index_attr_nodes(qid, value, &mut owners);
        let test = resolve_test(store, &step.test);
        let mut memo = HashMap::new();
        let origins: HashSet<NodeId> = cur.iter().copied().collect();
        for attr in owners {
            let Some(element) = store.parent(attr)? else {
                continue;
            };
            if store.kernel_matches(element, false, test)?
                && on_axis(store, &origins, &mut memo, step.axis, element)?
            {
                next.push(element);
            }
        }
        return Ok(true);
    }
    // Name-test drive: only worthwhile for an exact name.
    let NodeTest::Name(wanted) = &step.test else {
        return Ok(false);
    };
    let Some(qid) = store.symbols().lookup_lexical(wanted) else {
        return Ok(true);
    };
    if store.index_name_len(qid) > budget {
        return Ok(false);
    }
    let mut named = Vec::new();
    store.index_name_nodes(qid, &mut named);
    let mut memo = HashMap::new();
    let origins: HashSet<NodeId> = cur.iter().copied().collect();
    for n in named {
        if on_axis(store, &origins, &mut memo, step.axis, n)? {
            next.push(n);
        }
    }
    Ok(true)
}

/// Does `node` lie on `axis` from any origin? Child needs one parent
/// probe; the descendant axes walk the parent chain with a memo table so
/// a shared ancestor path is classified once per scan, not once per hit.
fn on_axis(
    store: &Store,
    origins: &HashSet<NodeId>,
    memo: &mut HashMap<NodeId, bool>,
    axis: Axis,
    node: NodeId,
) -> XdmResult<bool> {
    match axis {
        Axis::Child => Ok(match store.parent(node)? {
            Some(p) => origins.contains(&p),
            None => false,
        }),
        Axis::Descendant => contained(store, origins, memo, store.parent(node)?),
        Axis::DescendantOrSelf => contained(store, origins, memo, Some(node)),
        _ => Ok(false),
    }
}

/// Memoized "is some origin an ancestor-or-self of `start`": walk up
/// until an origin, a memo entry, or the root, then record the verdict
/// for every node on the trail.
fn contained(
    store: &Store,
    origins: &HashSet<NodeId>,
    memo: &mut HashMap<NodeId, bool>,
    start: Option<NodeId>,
) -> XdmResult<bool> {
    let mut trail = Vec::new();
    let mut at = start;
    let verdict = loop {
        let Some(n) = at else { break false };
        if origins.contains(&n) {
            break true;
        }
        if let Some(&v) = memo.get(&n) {
            break v;
        }
        trail.push(n);
        at = store.parent(n)?;
    };
    for n in trail {
        memo.insert(n, verdict);
    }
    Ok(verdict)
}

/// Evaluate one join side: through its batch lowering when present,
/// through the interpreter otherwise.
fn eval_join_source(
    source: &Core,
    batch: Option<&BatchPathPlan>,
    evaluator: &mut Evaluator,
    store: &mut Store,
    env: &mut DynEnv,
) -> XdmResult<Sequence> {
    match batch {
        Some(bp) => exec_batch_path(bp, false, evaluator, store, env),
        None => evaluator.eval(store, env, source),
    }
}

/// The hash-join driver shared by both optimized plans: evaluates both
/// sides once, hashes the inner side, then invokes `on_match` for every
/// (outer, inner) pair in nested-loop order. The callback receives the
/// outer item and the inner matches are bound in `env` around each call.
fn for_each_match(
    join: &JoinPlan,
    evaluator: &mut Evaluator,
    store: &mut Store,
    env: &mut DynEnv,
    mut on_match: impl FnMut(&mut Evaluator, &mut Store, &mut DynEnv, &Item, usize) -> XdmResult<()>,
) -> XdmResult<()> {
    drive_join(
        join,
        evaluator,
        store,
        env,
        |ev, store, env, outer, matches, inner| {
            env.push_var(join.outer_var.clone(), seq![outer.clone()]);
            let r = (|| {
                for &idx in matches {
                    env.push_var(join.inner_var.clone(), seq![inner[idx].clone()]);
                    let r = on_match(ev, store, env, outer, idx);
                    env.pop_var();
                    r?;
                }
                Ok(())
            })();
            env.pop_var();
            r
        },
    )
}

/// Outer-join + group-by: per outer binding, the grouped sequence is the
/// concatenation of the per-match body values (empty when no matches —
/// the LEFT OUTER part), bound to the group variable for the outer return.
fn execute_group_by(
    group: &GroupByPlan,
    evaluator: &mut Evaluator,
    store: &mut Store,
    env: &mut DynEnv,
) -> XdmResult<Sequence> {
    let join = &group.join;
    let mut out = Sequence::new();
    drive_join(
        join,
        evaluator,
        store,
        env,
        |ev, store, env, outer, matches, inner| {
            env.push_var(join.outer_var.clone(), seq![outer.clone()]);
            let r = (|| {
                let mut grouped = Sequence::new();
                for &idx in matches {
                    env.push_var(join.inner_var.clone(), seq![inner[idx].clone()]);
                    let v = ev.eval(store, env, &join.body);
                    env.pop_var();
                    let v = v?;
                    ev.limit_charge(&v)?;
                    grouped.extend(v);
                }
                env.push_var(group.group_var.clone(), grouped);
                let v = ev.eval(store, env, &group.ret);
                env.pop_var();
                let v = v?;
                ev.limit_charge(&v)?;
                out.extend(v);
                Ok(())
            })();
            env.pop_var();
            r
        },
    )?;
    Ok(out)
}

/// Core join machinery: evaluate both sides once, hash the inner side,
/// call `per_outer` with each outer item and its sorted match indices.
fn drive_join(
    join: &JoinPlan,
    evaluator: &mut Evaluator,
    store: &mut Store,
    env: &mut DynEnv,
    mut per_outer: impl FnMut(
        &mut Evaluator,
        &mut Store,
        &mut DynEnv,
        &Item,
        &[usize],
        &Sequence,
    ) -> XdmResult<()>,
) -> XdmResult<()> {
    // Each side evaluated exactly once (guards ensured this is sound).
    let outer = eval_join_source(
        &join.outer_source,
        join.outer_batch.as_ref(),
        evaluator,
        store,
        env,
    )?;
    let inner = eval_join_source(
        &join.inner_source,
        join.inner_batch.as_ref(),
        evaluator,
        store,
        env,
    )?;
    // The join node's profile frame is innermost here: input = outer rows.
    evaluator.note_input(outer.len() as u64);

    // Build: key string -> inner indices, in inner order.
    let mut table: HashMap<String, Vec<usize>> = HashMap::new();
    for (idx, it) in inner.iter().enumerate() {
        let keys = eval_key(
            evaluator,
            store,
            env,
            &join.inner_var,
            it,
            &join.inner_key,
            join.inner_key_steps.as_deref(),
        )?;
        for k in keys {
            table.entry(k).or_default().push(idx);
        }
    }

    // Probe.
    let mut matches: Vec<usize> = Vec::new();
    for o in &outer {
        let keys = eval_key(
            evaluator,
            store,
            env,
            &join.outer_var,
            o,
            &join.outer_key,
            join.outer_key_steps.as_deref(),
        )?;
        matches.clear();
        for k in &keys {
            if let Some(idxs) = table.get(k) {
                matches.extend_from_slice(idxs);
            }
        }
        // Nested-loop order: inner-sequence order, each match once (general
        // comparison is existential, so a pair matching on two key values
        // still contributes once).
        matches.sort_unstable();
        matches.dedup();
        per_outer(evaluator, store, env, o, &matches, &inner)?;
    }
    Ok(())
}

/// One outer binding with its inner matches in nested-loop order,
/// collected before fan-out.
struct ProbeRow {
    outer: Item,
    matches: Vec<Item>,
}

/// [`drive_join`] with the match rows collected instead of consumed, for
/// the parallel joins. The error, if any, is handed back beside the rows
/// that *precede* it in the sequential evaluation order, so running their
/// (pure) bodies first and surfacing it only if every body succeeds
/// reproduces the sequential first-error exactly. (A source or inner-key
/// error precedes every row: sequentially, the whole build finishes
/// before any probe body runs.)
fn probe_rows(
    join: &JoinPlan,
    evaluator: &mut Evaluator,
    store: &mut Store,
    env: &mut DynEnv,
) -> (Vec<ProbeRow>, XdmResult<()>) {
    let mut rows = Vec::new();
    let probed = drive_join(
        join,
        evaluator,
        store,
        env,
        |_, _, _, outer, matches, inner| {
            rows.push(ProbeRow {
                outer: outer.clone(),
                matches: matches.iter().map(|&idx| inner[idx].clone()).collect(),
            });
            Ok(())
        },
    );
    (rows, probed)
}

/// Hash join with a pure body: probe rows collected sequentially (key
/// expressions may error; bodies cannot leave a trace), then every
/// (outer, inner) match pair evaluated on the worker pool in nested-loop
/// order.
fn par_hash_join(
    join: &JoinPlan,
    evaluator: &mut Evaluator,
    store: &mut Store,
    env: &mut DynEnv,
) -> XdmResult<Sequence> {
    let (rows, probed) = probe_rows(join, evaluator, store, env);
    let pairs: Vec<(&Item, &Item)> = rows
        .iter()
        .flat_map(|row| row.matches.iter().map(move |inner| (&row.outer, inner)))
        .collect();
    let merged = evaluator.fan_out(store, env, &pairs, |worker, wenv, _i, (outer, inner)| {
        wenv.push_var(join.outer_var.clone(), seq![(*outer).clone()]);
        wenv.push_var(join.inner_var.clone(), seq![(*inner).clone()]);
        let r = worker.eval(wenv, &join.body);
        wenv.pop_var();
        wenv.pop_var();
        charged(worker, r)
    })?;
    probed.map(|()| merged)
}

/// Outer-join/group-by with pure body *and* return: one worker task per
/// outer binding (body over its matches, grouped sequence bound for the
/// return), results concatenated in outer order.
fn par_group_by(
    group: &GroupByPlan,
    evaluator: &mut Evaluator,
    store: &mut Store,
    env: &mut DynEnv,
) -> XdmResult<Sequence> {
    let join = &group.join;
    let (rows, probed) = probe_rows(join, evaluator, store, env);
    let merged = evaluator.fan_out(store, env, &rows, |worker, wenv, _i, row| {
        wenv.push_var(join.outer_var.clone(), seq![row.outer.clone()]);
        let r = (|| {
            let mut grouped = Sequence::new();
            for inner in &row.matches {
                wenv.push_var(join.inner_var.clone(), seq![inner.clone()]);
                let v = worker.eval(wenv, &join.body);
                wenv.pop_var();
                grouped.extend(charged(worker, v)?);
            }
            wenv.push_var(group.group_var.clone(), grouped);
            let v = worker.eval(wenv, &group.ret);
            wenv.pop_var();
            charged(worker, v)
        })();
        wenv.pop_var();
        r
    })?;
    probed.map(|()| merged)
}

/// A worker's share of the accumulation charge: what the sequential join
/// loops charge through [`Evaluator::limit_charge`], so the memory
/// threshold does not depend on the thread count.
fn charged(worker: &Worker<'_>, value: XdmResult<Sequence>) -> XdmResult<Sequence> {
    let v = value?;
    worker.guard().charge(v.len() as u64)?;
    Ok(v)
}

/// Evaluate a join key for one binding: the atomized string values.
///
/// With `batch` steps available and a node binding, the key path runs
/// directly through the store kernels from that node — no environment
/// push, no interpreter dispatch, no intermediate sequence. Atomizing an
/// untyped node is exactly its string value, so the two paths agree.
fn eval_key(
    evaluator: &mut Evaluator,
    store: &mut Store,
    env: &mut DynEnv,
    var: &str,
    item: &Item,
    key: &Core,
    batch: Option<&[BatchStep]>,
) -> XdmResult<Vec<String>> {
    if let (Some(steps), Item::Node(n)) = (batch, item) {
        let mut cur = vec![*n];
        let mut next = Vec::new();
        run_batch_steps(steps, false, evaluator, store, &mut cur, &mut next)?;
        return cur.into_iter().map(|n| store.string_value(n)).collect();
    }
    env.push_var(var.to_string(), seq![item.clone()]);
    let r = evaluator.eval(store, env, key);
    env.pop_var();
    let atoms = item::atomize(&r?, store)?;
    Ok(atoms.into_iter().map(|a| a.string_value()).collect())
}
