//! Physical execution of query plans.
//!
//! The join node is a **typed hash join** (paper §4.3): each input is
//! evaluated exactly once, the inner side is hashed on its key's
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
//!   bound, in the same (outer, inner) order the nested loop would use, and
//!   a group's return runs after its outer item's matches, so even the
//!   *ordered* snap semantics sees an identical update list.
//! * String-keyed hashing is faithful because the guards
//!   (`Compiler::join_guards`) only admit general `=` between step chains
//!   from each side's variable, whose atomized values are untyped, and
//!   untyped-vs-untyped general comparison is string equality.
//! * **Errors** match: one side's keys are evaluated only when the other
//!   side has an item, as the nested loop evaluates its `where`.

use crate::alg::plan::{BatchFilter, BatchPathPlan, BatchStep, JoinPlan, JoinSide, Op, QueryPlan};
use crate::env::Focus;
use crate::eval::{
    args_rule, for_rule, if_rule, let_rule, resolve_test, seq_rule, snap_rule, Operand,
};
use crate::{DynEnv, Evaluator};
use std::collections::{HashMap, HashSet};
use xqdm::item::{self, Item, Sequence};
use xqdm::seq;
use xqdm::{KernelTest, NodeId, QNameId, Store, XdmError, XdmResult};
use xqsyn::ast::Axis;

/// Execute a plan inside the caller's current Δ scope. Pending updates the
/// plan body produces are appended to the evaluator's current scope,
/// exactly as if the original core expression had been evaluated: a rule
/// node runs the evaluator's own rule for its operator (same binding
/// discipline, same evaluation order, same Δ/seed draws), so compiled and
/// interpreted subtrees interleave freely.
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
        QueryPlan::Join(join) => {
            evaluator.note_join();
            execute_join(join, evaluator, store, env)
        }
        QueryPlan::Rule(op, operands) => {
            // The evaluator's own rule for the operator, over operands
            // that are plan nodes (see the `Operand` impl below).
            let malformed = || {
                XdmError::precondition(format!(
                    "a {} plan node over {} operands",
                    op.name(),
                    operands.len()
                ))
            };
            if !op.admits(operands.len()) {
                return Err(malformed());
            }
            let mut it = plan.operands(base);
            let mut next = || it.next().ok_or_else(malformed);
            match op {
                Op::Seq => seq_rule(evaluator, store, env, plan.operands(base)),
                Op::Let(var) => let_rule(evaluator, store, env, var, next()?, next()?),
                Op::For(var, position) => for_rule(
                    evaluator,
                    store,
                    env,
                    var,
                    position.as_deref(),
                    next()?,
                    next()?,
                ),
                Op::If => if_rule(evaluator, store, env, next()?, next()?, next()?),
                Op::Snap(mode) => snap_rule(evaluator, store, env, *mode, next()?),
                Op::Call(name) => {
                    let values = args_rule(evaluator, store, env, plan.operands(base))?;
                    evaluator.call(store, env, name, values)
                }
            }
        }
    }
}

/// A plan node with its profile id, as an operand of the evaluator's
/// control rules: it runs through [`execute_at`], and the operator's node
/// reports the rows it consumed.
impl Operand for (&QueryPlan, usize) {
    #[inline]
    fn eval(self, ev: &mut Evaluator, store: &mut Store, env: &mut DynEnv) -> XdmResult<Sequence> {
        execute_at(self.0, self.1, ev, store, env)
    }

    #[inline]
    fn note_input(ev: &mut Evaluator, rows: u64) {
        ev.note_input(rows);
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
    let mut cur: Vec<NodeId> = Vec::with_capacity(origins.len());
    let mut next: Vec<NodeId> = Vec::new();
    for it in &origins {
        let Some(n) = it.as_node() else {
            // `Core::MapStep` raises this type error (and message) at the
            // first atomic origin, having filtered the first step from
            // every origin before it: a predicate error there comes first.
            run_batch_steps(
                &bp.steps[..1],
                false,
                evaluator,
                store,
                env,
                &mut cur,
                &mut next,
            )?;
            return Err(XdmError::type_error("expected a node, got an atomic value"));
        };
        cur.push(n);
    }
    run_batch_steps(&bp.steps, true, evaluator, store, env, &mut cur, &mut next)?;
    Ok(cur.into_iter().map(Item::Node).collect())
}

/// Drive a step chain over `cur` in place, using `next` as the step
/// output buffer (both are caller-owned so key probes can recycle them).
/// When `allow_idx` is set (a chain leaf or a join source; never a key or
/// an existence filter, which start from one binding), each step the
/// store's index plane can serve weighs its bucket against the kernel
/// walk from `cur` (see [`index_bucket`]) — the one place index use is
/// decided.
///
/// A step with a [`BatchFilter::Pred`] filter evaluates it in the
/// interpreter's order, so that the first error raised is the
/// interpreter's: from several origins it runs origin by origin, every
/// filter over one origin's candidates before the next origin's; from
/// one origin it puts an index bucket in document order first.
fn run_batch_steps(
    steps: &[BatchStep],
    allow_idx: bool,
    evaluator: &mut Evaluator,
    store: &mut Store,
    env: &mut DynEnv,
    cur: &mut Vec<NodeId>,
    next: &mut Vec<NodeId>,
) -> XdmResult<()> {
    for step in steps {
        next.clear();
        let test = resolve_test(store, &step.test);
        let ordered = step
            .filters
            .iter()
            .any(|f| matches!(f, BatchFilter::Pred(_)));
        if ordered && cur.len() > 1 {
            let mut one = Vec::new();
            for &origin in cur.iter() {
                one.clear();
                kernel_step(
                    step.axis,
                    test,
                    usize::MAX,
                    evaluator,
                    store,
                    &[origin],
                    &mut one,
                )?;
                evaluator.note_batch(one.len() as u64);
                apply_filters(&step.filters, evaluator, store, env, &mut one)?;
                next.extend_from_slice(&one);
            }
            store.sort_and_dedup_with(next, evaluator.scratch_mut())?;
            std::mem::swap(cur, next);
            continue;
        }
        let used_idx = match allow_idx.then(|| index_bucket(step, test, store)).flatten() {
            None => {
                kernel_step(step.axis, test, usize::MAX, evaluator, store, cur, next)?;
                false
            }
            // The cost gate: the walk from `cur` may visit
            // `KERNEL_VISITS_PER_ENTRY` nodes per bucket entry; a walk
            // that needs more reads less from the bucket.
            Some((bucket, len)) => {
                let allowance = len.saturating_mul(KERNEL_VISITS_PER_ENTRY);
                if kernel_step(step.axis, test, allowance, evaluator, store, cur, next)? {
                    false
                } else {
                    next.clear();
                    scan_bucket(step.axis, test, bucket, store, cur, next)?;
                    true
                }
            }
        };
        // From at most one origin, every kernel emits in DFS order:
        // already document-ordered and duplicate-free, so the per-step
        // normalization sort can be skipped. (With several origins,
        // nesting lets outputs interleave or repeat, so we must sort.
        // Index buckets hash in arbitrary order: always sort.)
        let mut sorted = !used_idx && cur.len() <= 1;
        if used_idx && ordered {
            // From its one origin the interpreter meets the step's
            // candidates in document order; so must a `Pred`.
            store.sort_and_dedup_with(next, evaluator.scratch_mut())?;
            sorted = true;
        }
        apply_filters(&step.filters, evaluator, store, env, next)?;
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

/// Keep the candidates that pass every filter, applying the filters in
/// predicate order, each over the survivors of the one before.
fn apply_filters(
    filters: &[BatchFilter],
    evaluator: &mut Evaluator,
    store: &mut Store,
    env: &mut DynEnv,
    candidates: &mut Vec<NodeId>,
) -> XdmResult<()> {
    for filter in filters {
        let mut keep = 0;
        for i in 0..candidates.len() {
            if filter_keeps(filter, evaluator, store, env, candidates[i])? {
                candidates[keep] = candidates[i];
                keep += 1;
            }
        }
        candidates.truncate(keep);
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
    store: &mut Store,
    env: &mut DynEnv,
    candidate: NodeId,
) -> XdmResult<bool> {
    match filter {
        BatchFilter::Exists(chain) => exists_chain(chain, evaluator, store, env, candidate),
        BatchFilter::AttrEq { name, value } => attr_eq(store, candidate, name, value),
        BatchFilter::Pred(pred) => {
            // The predicate reads neither position nor size (the guard
            // admits no `position()`, `last()` or number), so the focus
            // only needs its item.
            env.push_focus(Focus {
                item: Item::Node(candidate),
                position: 1,
                size: 1,
            });
            let v = evaluator.eval(store, env, pred);
            env.pop_focus();
            item::effective_boolean(&v?, store)
        }
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
    store: &mut Store,
    env: &mut DynEnv,
    origin: NodeId,
) -> XdmResult<bool> {
    let mut cur = vec![origin];
    let mut next = Vec::new();
    run_batch_steps(chain, false, evaluator, store, env, &mut cur, &mut next)?;
    Ok(!cur.is_empty())
}

/// Answer one step with a store kernel that may visit at most
/// `allowance` nodes (`usize::MAX`: unbounded). Returns `Ok(false)` when
/// the walk would exceed the allowance; `next` then holds a partial
/// answer the caller discards.
fn kernel_step(
    axis: Axis,
    test: KernelTest,
    allowance: usize,
    evaluator: &mut Evaluator,
    store: &Store,
    cur: &[NodeId],
    next: &mut Vec<NodeId>,
) -> XdmResult<bool> {
    match axis {
        Axis::Child => {
            // The child walk's cost is known up front: Σ child-list lengths.
            if allowance < usize::MAX {
                let mut visits = 0usize;
                for &origin in cur {
                    visits += store.children(origin)?.len();
                    if visits > allowance {
                        return Ok(false);
                    }
                }
            }
            store.batch_children_into(cur, test, next)?;
            Ok(true)
        }
        Axis::Descendant => {
            store.batch_descendants_into(cur, test, false, allowance, evaluator.scratch_mut(), next)
        }
        Axis::DescendantOrSelf => {
            store.batch_descendants_into(cur, test, true, allowance, evaluator.scratch_mut(), next)
        }
        Axis::Attribute => {
            store.batch_attributes_into(cur, test, next)?;
            Ok(true)
        }
        // The compiler only lowers the four kernel axes.
        _ => Err(XdmError::precondition(
            "batch step on an axis without a kernel",
        )),
    }
}

/// The cost gate's exchange rate: one index-bucket entry (a parent
/// probe, a hash lookup, and its share of the doc-order sort every scan
/// needs) costs about as much as this many kernel node visits. E18's
/// rows sit far from the crossover it sets — the selective lookup's walk
/// is thousands of times its allowance, a per-origin walk a small
/// fraction — so they pin which side each shape lands on, not the value.
const KERNEL_VISITS_PER_ENTRY: usize = 8;

/// The index bucket a step could be read from.
enum Bucket<'s> {
    /// Owners of the attributes `@name = "value"`.
    Attr(QNameId, &'s str),
    /// Every element named by the step's name test.
    Name(QNameId),
    /// The name is interned nowhere in the store: the answer is empty.
    Absent,
}

/// The bucket that could answer `step`, with its length, or `None` when
/// no scan is available: the store's index plane is off, or the step is
/// not [`BatchStep::index_servable`].
fn index_bucket<'s>(
    step: &'s BatchStep,
    test: KernelTest,
    store: &Store,
) -> Option<(Bucket<'s>, usize)> {
    if !store.index_enabled() || !step.index_servable() {
        return None;
    }
    // Prefer the attribute-value index: an equality bucket is almost
    // always narrower than a name bucket.
    let attr_drive = step.filters.iter().find_map(|f| match f {
        BatchFilter::AttrEq { name, value } => Some((name, value)),
        _ => None,
    });
    if let Some((name, value)) = attr_drive {
        return Some(match store.symbols().lookup_lexical(name) {
            Some(qid) => (Bucket::Attr(qid, value), store.index_attr_len(qid, value)),
            None => (Bucket::Absent, 0),
        });
    }
    let KernelTest::Name(name) = test else {
        return None;
    };
    Some(match name {
        Some(qid) => (Bucket::Name(qid), store.index_name_len(qid)),
        None => (Bucket::Absent, 0),
    })
}

/// Answer `step` from `bucket`: keep the entries that pass the step's
/// test and lie on its axis from some node of `cur`. `next` holds the
/// result *before* doc-order normalization.
fn scan_bucket(
    axis: Axis,
    test: KernelTest,
    bucket: Bucket,
    store: &Store,
    cur: &[NodeId],
    next: &mut Vec<NodeId>,
) -> XdmResult<()> {
    let mut candidates = Vec::new();
    match bucket {
        Bucket::Attr(qid, value) => {
            let mut owners = Vec::new();
            store.index_attr_nodes(qid, value, &mut owners);
            for attr in owners {
                if let Some(element) = store.parent(attr)? {
                    if store.kernel_matches(element, false, test)? {
                        candidates.push(element);
                    }
                }
            }
        }
        Bucket::Name(qid) => store.index_name_nodes(qid, &mut candidates),
        Bucket::Absent => return Ok(()),
    }
    let mut memo = HashMap::new();
    let origins: HashSet<NodeId> = cur.iter().copied().collect();
    for n in candidates {
        if on_axis(store, &origins, &mut memo, axis, n)? {
            next.push(n);
        }
    }
    Ok(())
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

/// Evaluate one join side's source: through its batch lowering when
/// present, through the interpreter otherwise.
fn eval_source(
    side: &JoinSide,
    evaluator: &mut Evaluator,
    store: &mut Store,
    env: &mut DynEnv,
) -> XdmResult<Sequence> {
    match &side.batch {
        Some(bp) => exec_batch_path(bp, false, evaluator, store, env),
        None => evaluator.eval(store, env, &side.source),
    }
}

/// The join: per outer binding, the per-match body values in inner order.
/// Without a group they are the output; with one they are bound to the
/// group variable (empty when no inner item matches — the LEFT OUTER
/// part) for the group's return, whose values are the output.
fn execute_join(
    join: &JoinPlan,
    evaluator: &mut Evaluator,
    store: &mut Store,
    env: &mut DynEnv,
) -> XdmResult<Sequence> {
    let mut out = Sequence::new();
    drive_join(
        join,
        evaluator,
        store,
        env,
        |ev, store, env, outer, matches, inner| {
            env.push_var(join.outer.var.clone(), seq![outer.clone()]);
            let r = (|| {
                let mut grouped = Sequence::new();
                let values = match join.group {
                    None => &mut out,
                    Some(_) => &mut grouped,
                };
                for &idx in matches {
                    env.push_var(join.inner.var.clone(), seq![inner[idx].clone()]);
                    let v = ev.eval(store, env, &join.body);
                    env.pop_var();
                    let v = v?;
                    ev.limit_charge(&v)?;
                    values.extend(v);
                }
                if let Some((var, ret)) = &join.group {
                    env.push_var(var.clone(), grouped);
                    let v = ev.eval(store, env, ret);
                    env.pop_var();
                    let v = v?;
                    ev.limit_charge(&v)?;
                    out.extend(v);
                }
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
    // Each side evaluated at most once (guards ensured this is sound).
    let outer = eval_source(&join.outer, evaluator, store, env)?;
    // The nested loop evaluates the inner side per outer item: with none,
    // it must not run here either, nor raise its errors.
    if outer.is_empty() {
        return Ok(());
    }
    let inner = eval_source(&join.inner, evaluator, store, env)?;
    // The join node's profile frame is innermost here: input = outer rows.
    evaluator.note_input(outer.len() as u64);

    // Build: key string -> inner indices, in inner order.
    let mut table: HashMap<String, Vec<usize>> = HashMap::new();
    for (idx, it) in inner.iter().enumerate() {
        let keys = eval_key(&join.inner, it, evaluator, store, env)?;
        for k in keys {
            table.entry(k).or_default().push(idx);
        }
    }

    // Probe. Over no inner item the nested loop never reads an outer key.
    let mut matches: Vec<usize> = Vec::new();
    for o in &outer {
        let keys = if inner.is_empty() {
            Vec::new()
        } else {
            eval_key(&join.outer, o, evaluator, store, env)?
        };
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

/// Evaluate a side's join key for one binding: the atomized string values.
///
/// With key steps available and a node binding, the key path runs
/// directly through the store kernels from that node — no environment
/// push, no interpreter dispatch, no intermediate sequence. Atomizing an
/// untyped node is exactly its string value, so the two paths agree.
fn eval_key(
    side: &JoinSide,
    item: &Item,
    evaluator: &mut Evaluator,
    store: &mut Store,
    env: &mut DynEnv,
) -> XdmResult<Vec<String>> {
    if let (Some(steps), Item::Node(n)) = (&side.key_steps, item) {
        let mut cur = vec![*n];
        let mut next = Vec::new();
        run_batch_steps(steps, false, evaluator, store, env, &mut cur, &mut next)?;
        return cur.into_iter().map(|n| store.string_value(n)).collect();
    }
    env.push_var(side.var.clone(), seq![item.clone()]);
    let r = evaluator.eval(store, env, &side.key);
    env.pop_var();
    let atoms = item::atomize(&r?, store)?;
    Ok(atoms.into_iter().map(|a| a.string_value()).collect())
}
