//! The dynamic semantics of XQuery! (paper §3.4 and Appendix B).
//!
//! The paper's judgment is
//!
//! ```text
//! store0; dynEnv ⊢ Expr ⇒ value; Δ; store1
//! ```
//!
//! Here the store is threaded as `&mut Store`, the environment as
//! `&mut DynEnv` (with balanced push/pop around binders), and Δ is kept on
//! the **stack of update lists** that §4.1 describes as the actual
//! implementation strategy: every update operator appends to the top list;
//! `snap` pushes a fresh list, evaluates its body, pops, and applies. The
//! recursion of `eval` *is* the paper's "stack-like behavior ... built into
//! the recursive machinery of the deduction process".
//!
//! Evaluation order is the **strict left-to-right order** the paper
//! specifies for a language with side effects (§2.4): every rule with two
//! sub-expressions evaluates the first before the second.

use crate::alg::exec;
use crate::alg::pipeline::FnTable;
use crate::delta::{apply_delta, Delta};
use crate::env::{DynEnv, Focus, ProgramEnv, Scope};
use crate::functions::{self, Kind};
use crate::limits::{self, LimitGuard};
use crate::obs::{self, CounterId};
use std::sync::Arc;
use std::time::Instant;
use xqdm::atomic::{arithmetic, negate, value_compare, Atomic, CompareOp};
use xqdm::item::{self, Item, Sequence};
use xqdm::seq;
use xqdm::store::InsertAnchor;
use xqdm::{KernelTest, NodeId, NodeKind, QName, RedoOp, Scratch, Store, XdmError, XdmResult};
use xqsyn::ast::{Axis, NodeCompOp, NodeTest, Quantifier, SnapMode};
use xqsyn::core::{Core, CoreInsertLoc, CoreName, CoreProgram};
use xqsyn::stack::with_deep_stack;

/// Execution statistics for one evaluation (experiment instrumentation
/// and host diagnostics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Snap scopes closed (including the implicit top-level one).
    pub snaps_closed: u64,
    /// Update requests *emitted* (appended to some Δ). A semantic counter:
    /// identical across interpreted and compiled execution. On a
    /// successful run it equals [`EvalStats::requests_applied`] — every
    /// pending request is applied exactly once when its snap closes; the
    /// two diverge only on error paths, where open scopes discard their Δ.
    pub requests_emitted: u64,
    /// Update requests applied to the store.
    pub requests_applied: u64,
    /// Deepest simultaneous Δ-stack nesting observed.
    pub max_snap_depth: usize,
    /// Compiled plan nodes executed (0 under pure interpretation).
    pub plan_nodes_executed: u64,
    /// Hash-join / outer-join-group-by operators executed.
    pub joins_executed: u64,
    /// Batch path-step kernel invocations (strategy counter: 0 under
    /// pure interpretation).
    pub batch_steps: u64,
    /// Nodes produced by those kernel invocations, pre-dedup (strategy
    /// counter).
    pub batch_nodes: u64,
    /// Secondary-index scans the executor chose over a batch kernel
    /// (strategy counter; DESIGN.md §17).
    pub idx_scans: u64,
    /// Nodes those index scans emitted, post-containment-filter but
    /// pre-dedup (strategy counter).
    pub idx_hits: u64,
}

impl EvalStats {
    /// Which registry counter each field feeds — the per-run flush is a
    /// loop over this. `max_snap_depth` is a high-water mark, not a count,
    /// and feeds none.
    pub(crate) fn counters(&self) -> [(CounterId, u64); 9] {
        [
            (CounterId::SnapsClosed, self.snaps_closed),
            (CounterId::RequestsEmitted, self.requests_emitted),
            (CounterId::RequestsApplied, self.requests_applied),
            (CounterId::PlanNodes, self.plan_nodes_executed),
            (CounterId::Joins, self.joins_executed),
            (CounterId::BatchSteps, self.batch_steps),
            (CounterId::BatchNodes, self.batch_nodes),
            (CounterId::IdxScans, self.idx_scans),
            (CounterId::IdxHits, self.idx_hits),
        ]
    }

    /// The strategy counters as the `label=events/items` pairs EXPLAIN
    /// ANALYZE prints: `batch=steps/nodes`, `idx=scans/hits`.
    pub(crate) fn strategy_pairs(&self) -> [(&'static str, u64, u64); 2] {
        [
            ("batch", self.batch_steps, self.batch_nodes),
            ("idx", self.idx_scans, self.idx_hits),
        ]
    }

    /// Combine two accounts counter by counter (the deeper nesting wins).
    fn zip(&self, o: &EvalStats, f: impl Fn(u64, u64) -> u64) -> EvalStats {
        EvalStats {
            snaps_closed: f(self.snaps_closed, o.snaps_closed),
            requests_emitted: f(self.requests_emitted, o.requests_emitted),
            requests_applied: f(self.requests_applied, o.requests_applied),
            max_snap_depth: self.max_snap_depth.max(o.max_snap_depth),
            plan_nodes_executed: f(self.plan_nodes_executed, o.plan_nodes_executed),
            joins_executed: f(self.joins_executed, o.joins_executed),
            batch_steps: f(self.batch_steps, o.batch_steps),
            batch_nodes: f(self.batch_nodes, o.batch_nodes),
            idx_scans: f(self.idx_scans, o.idx_scans),
            idx_hits: f(self.idx_hits, o.idx_hits),
        }
    }

    /// What was counted between the snapshot `earlier` and this one.
    fn since(&self, earlier: &EvalStats) -> EvalStats {
        self.zip(earlier, |now, then| now - then)
    }

    /// This account and `other`, added up.
    fn plus(&self, other: &EvalStats) -> EvalStats {
        self.zip(other, |a, b| a + b)
    }
}

/// The evaluator: one program's [`Scope`] over the engine's shared
/// [`ProgramEnv`], and the Δ stack.
pub struct Evaluator {
    /// What the program can name, and under it the run policy (seed,
    /// limits).
    scope: Scope,
    delta_stack: Vec<Delta>,
    /// Per-snap seed counter for the nondeterministic application order.
    snap_counter: u64,
    depth: usize,
    stats: EvalStats,
    /// The declared functions whose bodies compiled to a plan (installed
    /// by a `PlannedProgram` for the duration of its run).
    function_executor: Option<Arc<FnTable>>,
    /// Observability state (trace spans, per-node profiling). `None` — the
    /// default — is the zero-cost-when-off fast path: every hook below is
    /// a single `Option` discriminant check.
    obs: Option<Box<EvalObs>>,
    /// The armed runtime check of the environment's limits (DESIGN.md
    /// §12), re-armed at each program-scope entry so fuel and deadline
    /// measure one run.
    guard: LimitGuard,
    /// Reusable buffers for document-order sorting and the batch step
    /// kernels (DESIGN.md §14): one arena per evaluation, threaded into
    /// every `sort_and_dedup_with` call so steady-state path evaluation
    /// stops allocating.
    scratch: Scratch,
    /// The values of the program's [`Core::Param`] slots for this run
    /// (DESIGN.md §15): empty for a program with none.
    params: Vec<Atomic>,
}

/// One open profiled plan node: enough to compute inclusive wall time,
/// what the evaluator counted while it ran, and the self-vs-children split
/// of Δ emissions on exit.
struct NodeFrame {
    start: Instant,
    /// The evaluator's statistics at entry.
    at_entry: EvalStats,
    /// Sum of the *inclusive* emissions of direct profiled children.
    child_emitted: u64,
    /// Input cardinality reported via [`Evaluator::note_input`].
    input_rows: u64,
}

/// Trace + profiling state, boxed behind `Evaluator::obs` so the common
/// (observability off) case pays one pointer of space and one branch of
/// time.
struct EvalObs {
    /// Span sink plus the engine-level parent span id, when tracing.
    trace: Option<(Arc<obs::TraceSink>, Option<u64>)>,
    /// Open span ids, innermost last.
    span_stack: Vec<u64>,
    /// Per-node counters, when profiling (`explain_analyze`).
    profile: Option<obs::Profile>,
    /// Open profiled-node frames, innermost last.
    frames: Vec<NodeFrame>,
}

impl EvalObs {
    fn new() -> Box<EvalObs> {
        Box::new(EvalObs {
            trace: None,
            span_stack: Vec::new(),
            profile: None,
            frames: Vec::new(),
        })
    }
}

impl Evaluator {
    /// An evaluator for `program` under `env`: the program's own function
    /// declarations shadow the environment's module functions, and its
    /// prolog variables (bound as they are evaluated) its host bindings.
    pub fn new(env: Arc<ProgramEnv>, program: &CoreProgram) -> Self {
        let guard = LimitGuard::new(&env.limits);
        Evaluator {
            scope: Scope::new(env, program),
            delta_stack: Vec::new(),
            snap_counter: 0,
            depth: 0,
            stats: EvalStats::default(),
            function_executor: None,
            obs: None,
            guard,
            scratch: Scratch::new(),
            params: Vec::new(),
        }
    }

    /// Bind the program's [`Core::Param`] slots: slot `i` reads
    /// `params[i]`.
    pub(crate) fn bind_params(&mut self, params: Vec<Atomic>) {
        self.params = params;
    }

    /// The value bound to slot `i` ([`Evaluator::bind_params`]).
    pub(crate) fn param(&self, i: usize) -> XdmResult<&Atomic> {
        self.params
            .get(i)
            .ok_or_else(|| XdmError::precondition(format!("parameter slot {i} is not bound")))
    }

    /// Read `$name`: its innermost binding in `env`, else this run's
    /// global of that name, else `XPST0008`. A read has no effect.
    pub(crate) fn read_var<'a>(&'a self, env: &'a DynEnv, name: &str) -> XdmResult<&'a Sequence> {
        match env.var(name) {
            Ok(v) => Ok(v),
            Err(e) => self.scope.global(name).ok_or(e),
        }
    }

    /// Statistics accumulated since construction (snaps closed, requests
    /// applied, deepest snap nesting).
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// One cooperative limit check: a unit of fuel, a periodic deadline
    /// poll, and trip observation. Plan executors call this once per plan
    /// node; the interpreter once per `eval` step. A single branch when no
    /// fuel/deadline/memory limit is armed.
    #[inline]
    pub(crate) fn limit_tick(&self) -> XdmResult<()> {
        self.guard.tick()
    }

    /// Charge a value a plan loop is about to accumulate against the memory
    /// budget (`XQB0043`) — what the interpreter's `Seq`/`For` rules charge
    /// per member/iteration, so compiled and interpreted runs trip alike.
    #[inline]
    pub(crate) fn limit_charge(&self, value: &Sequence) -> XdmResult<()> {
        self.guard.charge(value.len() as u64)
    }

    /// Resume the per-snap seed counter from a previous evaluation. The
    /// engine persists the counter across runs so that two snaps — in the
    /// same run or in different runs of one engine — never reuse a
    /// nondeterministic application seed.
    pub(crate) fn with_snap_counter(mut self, counter: u64) -> Self {
        self.snap_counter = counter;
        self
    }

    /// The per-snap seed counter after the snaps closed so far (see
    /// [`Evaluator::with_snap_counter`]).
    pub(crate) fn snap_counter(&self) -> u64 {
        self.snap_counter
    }

    /// Define a global variable of this run (a prolog variable, or a
    /// binding a test installs by hand); shadows a host binding.
    pub fn bind_global(&mut self, name: impl Into<String>, value: Sequence) {
        self.scope.bind_global(name, value);
    }

    /// Read a global: this run's own, else the environment's host binding.
    pub fn global(&self, name: &str) -> Option<&Sequence> {
        self.scope.global(name)
    }

    /// Evaluate a whole program: globals in order, then the body inside the
    /// **implicit top-level snap** (§2.3: "a snap is always implicitly
    /// present around the top-level query").
    pub fn eval_program(
        &mut self,
        store: &mut Store,
        program: &CoreProgram,
    ) -> XdmResult<Sequence> {
        self.run_in_program_scope(store, move |ev, store| {
            let env = &mut DynEnv::new();
            for (name, init) in &program.variables {
                let v = ev.eval(store, env, init)?;
                ev.bind_global(name.clone(), v);
            }
            ev.eval(store, env, &program.body)
        })
    }

    /// Run `f` the way a whole program runs: under a freshly armed limit
    /// guard, on a deep native stack (`xqsyn::stack::with_deep_stack`: a
    /// runaway recursion meets the `XQB0040` depth limit, not the end of
    /// the stack), inside the implicit
    /// top-level snap (§2.3), whose Δ is applied in ordered mode with the
    /// next snap seed on success and discarded on error. This is the one
    /// program-scope harness — the interpreter
    /// ([`Evaluator::eval_program`]), compiled plans
    /// (`PlannedProgram::execute`) and module initializers
    /// ([`Evaluator::eval_query`]) all enter through it, which is what
    /// guarantees they agree on limits, spans, stats, seeds, and Δ
    /// discipline.
    pub(crate) fn run_in_program_scope<F>(&mut self, store: &mut Store, f: F) -> XdmResult<Sequence>
    where
        F: FnOnce(&mut Evaluator, &mut Store) -> XdmResult<Sequence> + Send,
    {
        // Re-arm the guard so fuel, memory, and the wall-clock deadline
        // measure this run alone (and a trip from a previous run on the
        // same evaluator does not leak into this one).
        self.guard = LimitGuard::new(&self.scope.env().limits);
        with_deep_stack(move || {
            // The implicit snap also covers prolog variable initializers, so
            // side-effecting initializers behave like the body. It is not
            // counted toward max_snap_depth (only explicit snaps are).
            self.delta_stack.push(Delta::new());
            self.obs_span_begin("snap:implicit");
            match f(&mut *self, store) {
                Ok(value) => {
                    self.apply_snap_scope(store, SnapMode::Ordered)?;
                    Ok(value)
                }
                Err(e) => {
                    self.end_snap_scope();
                    Err(e)
                }
            }
        })
    }

    /// Evaluate one expression inside an implicit snap of its own, under
    /// the caller's environment (module initializers; query fragments).
    pub fn eval_query(
        &mut self,
        store: &mut Store,
        env: &mut DynEnv,
        expr: &Core,
    ) -> XdmResult<Sequence> {
        self.run_in_program_scope(store, move |ev, store| ev.eval(store, env, expr))
    }

    /// Open a Δ scope (as `snap` does) without evaluating anything. For
    /// callers that drive `eval` or [`crate::alg::execute`] directly and
    /// need a surrounding snapshot scope; pair with
    /// [`Evaluator::end_snap_scope`]. Counts toward the max-snap-depth
    /// statistic exactly as an explicit `snap` does.
    pub fn begin_snap_scope(&mut self) {
        self.delta_stack.push(Delta::new());
        self.obs_span_begin("snap");
        self.stats.max_snap_depth = self.stats.max_snap_depth.max(self.delta_stack.len());
    }

    /// Close the scope opened by [`Evaluator::begin_snap_scope`], returning
    /// the collected Δ (not yet applied). Use on error paths, where the Δ
    /// is discarded without counting as a closed snap.
    pub fn end_snap_scope(&mut self) -> Delta {
        self.obs_span_end();
        self.delta_stack.pop().expect("unbalanced end_snap_scope")
    }

    /// Close the current Δ scope **and apply it** under `mode` with the
    /// next snap seed, updating the snap statistics — the tail of
    /// [`snap_rule`] and of the implicit top-level snap.
    fn apply_snap_scope(&mut self, store: &mut Store, mode: SnapMode) -> XdmResult<()> {
        let delta = self.delta_stack.pop().expect("unbalanced apply_snap_scope");
        self.stats.snaps_closed += 1;
        self.stats.requests_applied += delta.len() as u64;
        let seed = self.next_seed();
        self.obs_span_begin("apply");
        let r = apply_delta(store, delta, mode, seed);
        self.obs_span_end(); // apply
        self.obs_span_end(); // the enclosing snap span
        r
    }

    /// Install (or clear) the table of compiled function bodies.
    pub(crate) fn set_function_executor(&mut self, executor: Option<Arc<FnTable>>) {
        self.function_executor = executor;
    }

    /// Run function `name` over its evaluated arguments: a built-in
    /// through its row; a declared function in a fresh environment that
    /// binds its parameters, through its compiled plan when its body
    /// compiled, else by evaluating its body. The one dispatch of the call
    /// rule, interpreted or compiled.
    pub(crate) fn call(
        &mut self,
        store: &mut Store,
        env: &DynEnv,
        name: &str,
        values: Vec<Sequence>,
    ) -> XdmResult<Sequence> {
        let arity = values.len();
        if let Some(f) = functions::builtin(name, arity) {
            return match f.kind {
                Kind::MutStore => {
                    let max_depth = self.scope.env().limits.max_xml_depth;
                    functions::parse_xml(store, values, max_depth)
                }
                _ => functions::call(f, values, store, &self.scope, env),
            };
        }
        let Some(func) = self.scope.function(name, arity).cloned() else {
            return Err(functions::unresolved(name, arity));
        };
        // Function bodies see only their parameters and globals — build a
        // fresh environment rather than exposing the caller's locals.
        let mut fenv = DynEnv::new();
        for (p, v) in func.params.iter().zip(values) {
            fenv.push_var(p.clone(), v);
        }
        let compiled = self.function_executor.clone();
        match compiled.as_deref().and_then(|t| t.get(name, arity)) {
            // The plan's frame counts toward the recursion limit as the
            // body's `eval` frame does.
            Some((plan, base)) => {
                self.nested(|ev| exec::execute_at(plan, base, ev, store, &mut fenv))
            }
            None => self.eval(store, &mut fenv, &func.body),
        }
    }

    /// Record the execution of one compiled plan node.
    pub(crate) fn note_plan_node(&mut self) {
        self.stats.plan_nodes_executed += 1;
    }

    /// Record the execution of one join operator.
    pub(crate) fn note_join(&mut self) {
        self.stats.joins_executed += 1;
    }

    /// Record one batch step-kernel invocation that produced `nodes`
    /// nodes (pre-dedup). Feeds both the run statistics and, when
    /// profiling, the innermost plan node's `batch=` counters.
    pub(crate) fn note_batch(&mut self, nodes: u64) {
        self.stats.batch_steps += 1;
        self.stats.batch_nodes += nodes;
    }

    /// Record one index-driven path step that emitted `hits` nodes
    /// (post-containment-filter, pre-dedup). Feeds both the run
    /// statistics and, when profiling, the innermost plan node's `idx=`
    /// counters.
    pub(crate) fn note_idx(&mut self, hits: u64) {
        self.stats.idx_scans += 1;
        self.stats.idx_hits += hits;
    }

    /// The evaluation's scratch arena (document-order sort workspace and
    /// batch-kernel buffers), for plan executors that call the store
    /// kernels directly.
    pub(crate) fn scratch_mut(&mut self) -> &mut Scratch {
        &mut self.scratch
    }

    // ------------------------------------------------------------------
    // observability hooks (DESIGN.md §10)
    // ------------------------------------------------------------------

    /// Attach a trace sink: snap scopes evaluated from here on emit
    /// begin/end span events, parented under `parent` (typically the
    /// engine's per-run span).
    pub(crate) fn set_trace(&mut self, sink: Arc<obs::TraceSink>, parent: Option<u64>) {
        self.obs.get_or_insert_with(EvalObs::new).trace = Some((sink, parent));
    }

    /// Turn on per-plan-node profiling: [`Evaluator::node_enter`] /
    /// [`Evaluator::node_exit`] record into a fresh [`obs::Profile`],
    /// retrievable with [`Evaluator::take_profile`].
    pub(crate) fn enable_profiling(&mut self) {
        self.obs.get_or_insert_with(EvalObs::new).profile = Some(obs::Profile::default());
    }

    /// Is per-node profiling on? Plan executors check this once per node
    /// and skip the enter/exit bookkeeping entirely when it is off.
    pub(crate) fn profiling(&self) -> bool {
        self.obs.as_ref().is_some_and(|o| o.profile.is_some())
    }

    /// The profile recorded since [`Evaluator::enable_profiling`], if any.
    pub(crate) fn take_profile(&mut self) -> Option<obs::Profile> {
        self.obs.as_mut().and_then(|o| o.profile.take())
    }

    /// Open a profiled-node frame. Pair with [`Evaluator::node_exit`] on
    /// *every* path out of the node, success or error, or the self/child
    /// attribution of enclosing frames skews.
    pub(crate) fn node_enter(&mut self) {
        let at_entry = self.stats;
        if let Some(o) = self.obs.as_mut() {
            if o.profile.is_some() {
                o.frames.push(NodeFrame {
                    start: Instant::now(),
                    at_entry,
                    child_emitted: 0,
                    input_rows: 0,
                });
            }
        }
    }

    /// Report the input cardinality of the innermost open profiled node
    /// (loop source length, join outer length, condition rows).
    pub(crate) fn note_input(&mut self, rows: u64) {
        if let Some(o) = self.obs.as_mut() {
            if let Some(frame) = o.frames.last_mut() {
                frame.input_rows += rows;
            }
        }
    }

    /// Close the innermost profiled-node frame and record it under plan
    /// node `id`: one call, inclusive wall time, input/output cardinality,
    /// self Δ emissions, and everything the evaluator counted since entry.
    pub(crate) fn node_exit(&mut self, id: usize, output_rows: u64) {
        let now = self.stats;
        let Some(o) = self.obs.as_mut() else { return };
        let Some(frame) = o.frames.pop() else { return };
        let wall_ns = obs::elapsed_ns(frame.start);
        let incl = now.since(&frame.at_entry);
        if let Some(parent) = o.frames.last_mut() {
            parent.child_emitted += incl.requests_emitted;
        }
        if let Some(profile) = o.profile.as_mut() {
            let n = profile.node_mut(id);
            n.calls += 1;
            n.wall_ns += wall_ns;
            n.input_rows += frame.input_rows;
            n.output_rows += output_rows;
            n.delta_self += incl.requests_emitted - frame.child_emitted;
            n.incl = n.incl.plus(&incl);
        }
    }

    /// Begin a trace span (no-op without a sink). Balanced by
    /// [`Evaluator::obs_span_end`]; the snap-scope helpers below call these
    /// symmetrically, so the span stack mirrors the Δ stack.
    fn obs_span_begin(&mut self, name: &str) {
        if let Some(o) = self.obs.as_mut() {
            if let Some((sink, root)) = &o.trace {
                let parent = o.span_stack.last().copied().or(*root);
                let id = sink.begin(name, parent);
                o.span_stack.push(id);
            }
        }
    }

    /// End the innermost open trace span (no-op without a sink).
    fn obs_span_end(&mut self) {
        if let Some(o) = self.obs.as_mut() {
            if let Some((sink, _)) = &o.trace {
                if let Some(id) = o.span_stack.pop() {
                    sink.end(id);
                }
            }
        }
    }

    /// Draw the next per-snap seed (public so plan executors apply deltas
    /// with the same seed discipline as the evaluator itself).
    pub fn next_apply_seed(&mut self) -> u64 {
        self.next_seed()
    }

    fn next_seed(&mut self) -> u64 {
        self.snap_counter += 1;
        self.scope
            .env()
            .seed
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(self.snap_counter)
    }

    /// Append an update request to the innermost Δ — the single chokepoint
    /// for every update operator, so `requests_emitted` counts every
    /// request exactly once regardless of execution strategy.
    fn push_request(&mut self, req: RedoOp<'static>) -> XdmResult<()> {
        // Pending-update lists are the other unbounded buffer a runaway
        // query can grow; each entry costs one unit of memory budget.
        self.guard.charge(1)?;
        self.stats.requests_emitted += 1;
        self.delta_stack
            .last_mut()
            .expect("update evaluated outside any snap scope")
            .push(req);
        Ok(())
    }

    /// The core judgment, one step of it: the recursion-depth check
    /// (`XQB0040`), one tick of the limit guard, then `expr`'s [`rule`]
    /// over this evaluator and `store`.
    pub fn eval(
        &mut self,
        store: &mut Store,
        env: &mut DynEnv,
        expr: &Core,
    ) -> XdmResult<Sequence> {
        self.nested(|ev| ev.guard.tick().and_then(|()| rule(ev, store, env, expr)))
    }

    /// Run `f` one frame deeper, or raise the recursion-depth error
    /// (`XQB0040`) without running it when that frame passes the limit.
    #[inline(always)]
    fn nested(&mut self, f: impl FnOnce(&mut Self) -> XdmResult<Sequence>) -> XdmResult<Sequence> {
        let max_depth = self.scope.env().limits.max_depth;
        self.depth += 1;
        let r = if self.depth > max_depth {
            Err(limits::depth_error(max_depth))
        } else {
            f(self)
        };
        self.depth -= 1;
        r
    }

    fn eval_ctor_name(
        &mut self,
        store: &mut Store,
        env: &mut DynEnv,
        name: &CoreName,
    ) -> XdmResult<QName> {
        let s = match name {
            CoreName::Fixed(s) => s.clone(),
            CoreName::Computed(e) => {
                let v = self.eval(store, env, e)?;
                item::exactly_one(v)?.string_value(store)?
            }
        };
        QName::parse(&s)
            .ok_or_else(|| XdmError::value("XQDY0074", format!("invalid QName \"{s}\"")))
    }

    /// Evaluate constructor content, pairing every item with whether the
    /// sub-expression that produced it [`yields_fresh`] — the items
    /// [`append_content`] may adopt instead of copying. Sequences are
    /// flattened however deeply they nest and freshness is judged per
    /// leaf member, so `<a>{$x, <b/>}</a>` copies `$x` and adopts `<b/>`
    /// whether the enclosed expression arrives as a nested `Seq` (the
    /// interpreter) or spliced into the content (the plan rewriter).
    /// Members evaluate left to right and are charged against the memory
    /// budget as `Core::Seq` charges its own.
    fn eval_content(
        &mut self,
        store: &mut Store,
        env: &mut DynEnv,
        content: &Core,
        out: &mut Vec<(Item, bool)>,
    ) -> XdmResult<()> {
        if let Core::Seq(members) = content {
            return members
                .iter()
                .try_for_each(|e| self.eval_content(store, env, e, out));
        }
        let fresh = yields_fresh(content);
        let v = self.eval(store, env, content)?;
        self.guard.charge(v.len() as u64)?;
        out.extend(v.into_iter().map(|it| (it, fresh)));
        Ok(())
    }
}

/// Atomize an operand that must be empty or a single item.
fn optional_atom(v: Sequence, store: &Store) -> XdmResult<Option<Atomic>> {
    item::zero_or_one(v)?.map(|x| x.atomize(store)).transpose()
}

/// The rule of each operator — the paper's
/// `store0; dynEnv ⊢ Expr ⇒ value; Δ; store1`, one arm per operator.
/// Sub-expressions evaluate strictly left to right through
/// [`Evaluator::eval`], which reads, allocates in and applies Δ to `store`.
fn rule(
    ev: &mut Evaluator,
    store: &mut Store,
    env: &mut DynEnv,
    expr: &Core,
) -> XdmResult<Sequence> {
    match expr {
        Core::Const(a) => Ok(seq![Item::Atomic(a.clone())]),
        Core::Param(i) => Ok(seq![Item::Atomic(ev.param(*i)?.clone())]),
        Core::Var(name) => ev.read_var(env, name).cloned(),
        Core::ContextItem => Ok(seq![env.focus()?.item.clone()]),
        Core::Seq(items) => seq_rule(ev, store, env, items.iter()),
        Core::For {
            var,
            position,
            source,
            body,
        } => for_rule(ev, store, env, var, position.as_deref(), &**source, &**body),
        Core::Let { var, value, body } => let_rule(ev, store, env, var, &**value, &**body),
        Core::If(cond, then, els) => if_rule(ev, store, env, &**cond, &**then, &**els),
        Core::Quantified {
            quantifier,
            var,
            source,
            satisfies,
        } => {
            let src = ev.eval(store, env, source)?;
            let mut result = matches!(quantifier, Quantifier::Every);
            for it in src {
                env.push_var(var.clone(), seq![it]);
                let s = ev.eval(store, env, satisfies);
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
            let src = ev.eval(store, env, source)?;
            // Compute sort keys per binding (left-to-right, so key
            // expressions may have effects like any other expression).
            let mut keyed: Vec<(Vec<Option<Atomic>>, Item)> = Vec::with_capacity(src.len());
            for it in src {
                env.push_var(var.clone(), seq![it.clone()]);
                let ks = keys
                    .iter()
                    .map(|k| optional_atom(ev.eval(store, env, &k.key)?, store))
                    .collect::<XdmResult<Vec<_>>>();
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
                let r = ev.eval(store, env, body);
                env.pop_var();
                out.extend(r?);
            }
            Ok(out)
        }
        Core::Arith(op, l, r) => {
            let lv = ev.eval(store, env, l)?;
            let rv = ev.eval(store, env, r)?;
            let la = optional_atom(lv, store)?;
            let ra = optional_atom(rv, store)?;
            match (la, ra) {
                (Some(a), Some(b)) => Ok(seq![Item::Atomic(arithmetic(*op, &a, &b)?)]),
                _ => Ok(seq![]),
            }
        }
        Core::Neg(e) => {
            let v = ev.eval(store, env, e)?;
            match optional_atom(v, store)? {
                Some(a) => Ok(seq![Item::Atomic(negate(&a)?)]),
                None => Ok(seq![]),
            }
        }
        Core::GeneralComp(op, l, r) => {
            let lv = ev.eval(store, env, l)?;
            let rv = ev.eval(store, env, r)?;
            Ok(seq![Item::boolean(item::general_compare_seqs(
                *op, &lv, &rv, store,
            )?)])
        }
        Core::ValueComp(op, l, r) => {
            let lv = ev.eval(store, env, l)?;
            let rv = ev.eval(store, env, r)?;
            let la = optional_atom(lv, store)?;
            let ra = optional_atom(rv, store)?;
            match (la, ra) {
                (Some(a), Some(b)) => Ok(seq![Item::boolean(value_compare(*op, &a, &b)?)]),
                _ => Ok(seq![]),
            }
        }
        Core::NodeComp(op, l, r) => {
            let lv = ev.eval(store, env, l)?;
            let rv = ev.eval(store, env, r)?;
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
            let lv = ev.eval(store, env, l)?;
            if !item::effective_boolean(&lv, store)? {
                return Ok(seq![Item::boolean(false)]);
            }
            let rv = ev.eval(store, env, r)?;
            Ok(seq![Item::boolean(item::effective_boolean(&rv, store)?)])
        }
        Core::Or(l, r) => {
            let lv = ev.eval(store, env, l)?;
            if item::effective_boolean(&lv, store)? {
                return Ok(seq![Item::boolean(true)]);
            }
            let rv = ev.eval(store, env, r)?;
            Ok(seq![Item::boolean(item::effective_boolean(&rv, store)?)])
        }
        Core::Union(l, r) => {
            let mut lv = ev.eval(store, env, l)?;
            let rv = ev.eval(store, env, r)?;
            lv.extend(rv);
            doc_ordered(ev, store, &lv)
        }
        Core::Range(l, r) => {
            let lv = ev.eval(store, env, l)?;
            let rv = ev.eval(store, env, r)?;
            let la = optional_atom(lv, store)?;
            let ra = optional_atom(rv, store)?;
            match (la, ra) {
                (Some(a), Some(b)) => {
                    let (a, b) = (a.to_integer()?, b.to_integer()?);
                    // Pre-charge the span before materializing: `1 to
                    // 10000000000` must trip XQB0043, not exhaust RAM.
                    let span = b
                        .checked_sub(a)
                        .and_then(|d| d.checked_add(1))
                        .unwrap_or(i64::MAX)
                        .max(0) as u64;
                    ev.guard.charge(span)?;
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
            let (base, axis) = match descendant_fusion(base, *axis, predicates) {
                Some(origin) => (origin, Axis::Descendant),
                None => (&**base, *axis),
            };
            let origins = ev.eval(store, env, base)?;
            let mut out = Sequence::new();
            for origin in &origins {
                let n = require_node(origin.clone())?;
                let axis_nodes = gather_axis(store, n, axis, test)?;
                let mut items: Sequence = axis_nodes.into_iter().map(Item::Node).collect();
                for pred in predicates {
                    items = filter_positional(ev, store, env, items, pred)?;
                }
                out.extend(items);
            }
            // From at most one origin a forward axis already yields document
            // order without duplicates (the rule `run_batch_steps` applies
            // to its kernels); only several origins can interleave.
            let forward = matches!(
                axis,
                Axis::Child
                    | Axis::Descendant
                    | Axis::DescendantOrSelf
                    | Axis::Attribute
                    | Axis::SelfAxis
            );
            if forward && origins.len() <= 1 {
                return Ok(out);
            }
            doc_ordered(ev, store, &out)
        }
        Core::DocOrder(e) => {
            let v = ev.eval(store, env, e)?;
            doc_ordered(ev, store, &v)
        }
        Core::Predicate { base, pred } => {
            let v = ev.eval(store, env, base)?;
            filter_positional(ev, store, env, v, pred)
        }
        Core::Call(name, args) => {
            let values = args_rule(ev, store, env, args.iter())?;
            ev.call(store, env, name, values)
        }
        Core::ElemCtor { name, content } => {
            let qname = ev.eval_ctor_name(store, env, name)?;
            let mut items = Vec::new();
            ev.eval_content(store, env, content, &mut items)?;
            let elem = store.new_element(qname);
            append_content(store, elem, &items, /*allow_attrs=*/ true)?;
            Ok(seq![Item::Node(elem)])
        }
        Core::AttrCtor { name, content } => {
            let qname = ev.eval_ctor_name(store, env, name)?;
            let v = ev.eval(store, env, content)?;
            let parts: Vec<String> = item::atomize(&v, store)?
                .into_iter()
                .map(|a| a.string_value())
                .collect();
            let attr = store.new_attribute(qname, parts.join(" "));
            Ok(seq![Item::Node(attr)])
        }
        Core::TextCtor(content) => {
            let v = ev.eval(store, env, content)?;
            if v.is_empty() {
                return Ok(seq![]);
            }
            let parts: Vec<String> = item::atomize(&v, store)?
                .into_iter()
                .map(|a| a.string_value())
                .collect();
            let t = store.new_text(parts.join(" "));
            Ok(seq![Item::Node(t)])
        }
        Core::DocCtor(content) => {
            let mut items = Vec::new();
            ev.eval_content(store, env, content, &mut items)?;
            let doc = store.new_document();
            append_content(store, doc, &items, /*allow_attrs=*/ false)?;
            Ok(seq![Item::Node(doc)])
        }
        // ---------------- update operators (Appendix B) ----------------
        Core::Insert { source, location } => {
            // Rule order: Expr1 (source), then Expr2 (target), then the
            // InsertLocation judgment resolves (nodepar, nodepos).
            let src = ev.eval(store, env, source)?;
            let nodes = content_to_nodes(store, &src)?;
            let target = ev.eval(store, env, location.target())?;
            let t = item::exactly_one_node(target)?;
            let (parent, anchor) = resolve_insert_anchor(store, location, t)?;
            ev.push_request(RedoOp::Insert {
                seq: nodes.into(),
                parent,
                anchor,
            })?;
            Ok(seq![])
        }
        Core::Delete(target) => {
            let v = ev.eval(store, env, target)?;
            // The paper's rule shows a single node; its own §2.3 example
            // deletes a whole sequence ($log/logentry), so we accept a
            // node sequence and emit one request per node, in order.
            for n in item::all_nodes(&v)? {
                ev.push_request(RedoOp::Detach { node: n })?;
            }
            Ok(seq![])
        }
        Core::Replace(target, with) => {
            // Appendix B: Δ3 = (Δ1, Δ2, insert(nodeseq, nodepar, node),
            //                   delete(node))
            let tv = ev.eval(store, env, target)?;
            let node = item::exactly_one_node(tv)?;
            let wv = ev.eval(store, env, with)?;
            let nodeseq = content_to_nodes(store, &wv)?;
            let parent = store
                .parent(node)?
                .ok_or_else(|| XdmError::precondition("replace target has no parent"))?;
            if matches!(store.kind(node)?, NodeKind::Attribute { .. }) {
                // Attribute targets: the replacement must be attribute
                // nodes, attached to the owner element (attribute lists
                // only append, so no anchor is involved). The detach
                // precedes the attaches so a same-named replacement
                // does not trip the duplicate check.
                for &n in &nodeseq {
                    if !matches!(store.kind(n)?, NodeKind::Attribute { .. }) {
                        return Err(XdmError::type_error(
                            "replacing an attribute requires attribute content",
                        ));
                    }
                }
                ev.push_request(RedoOp::Detach { node })?;
                for attr in nodeseq {
                    ev.push_request(RedoOp::AttachAttr {
                        element: parent,
                        attr,
                    })?;
                }
            } else {
                ev.push_request(RedoOp::Insert {
                    seq: nodeseq.into(),
                    parent,
                    anchor: InsertAnchor::After(node),
                })?;
                ev.push_request(RedoOp::Detach { node })?;
            }
            Ok(seq![])
        }
        Core::ReplaceValue(target, with) => {
            // One value-setting request: the target node keeps its
            // identity, only its string value changes. The source is
            // atomized and space-joined like attribute content.
            let tv = ev.eval(store, env, target)?;
            let node = item::exactly_one_node(tv)?;
            let text = match store.kind(node)? {
                NodeKind::Text { .. } => true,
                NodeKind::Attribute { .. } => false,
                // An update-family error (XQB0010 block), not a type
                // error: the expression is well-typed, the target's
                // node kind just has no settable value.
                k => {
                    let k = k.kind_name();
                    return Err(XdmError::new(
                        "XQB0011",
                        format!(
                            "replace value of requires a text or attribute target, got a {k} node"
                        ),
                    ));
                }
            };
            let wv = ev.eval(store, env, with)?;
            let parts: Vec<String> = item::atomize(&wv, store)?
                .into_iter()
                .map(|a| a.string_value())
                .collect();
            let value = parts.join(" ");
            ev.push_request(if text {
                RedoOp::SetText {
                    node,
                    content: value,
                }
            } else {
                RedoOp::SetAttrValue { node, value }
            })?;
            Ok(seq![])
        }
        Core::Rename(target, name) => {
            let tv = ev.eval(store, env, target)?;
            let node = item::exactly_one_node(tv)?;
            let nv = ev.eval(store, env, name)?;
            let name_str = item::exactly_one(nv)?.string_value(store)?;
            let qname = QName::parse(&name_str).ok_or_else(|| {
                XdmError::value("XQDY0074", format!("\"{name_str}\" is not a valid QName"))
            })?;
            let name = store.intern_qname(&qname);
            ev.push_request(RedoOp::Rename { node, name })?;
            Ok(seq![])
        }
        Core::Copy(e) => {
            let v = ev.eval(store, env, e)?;
            // A fresh operand already is the parentless tree nobody
            // else can reach that the copy would produce.
            if yields_fresh(e) {
                return Ok(v);
            }
            let mut out = Sequence::with_capacity(v.len());
            for it in v {
                out.push(match it {
                    Item::Node(n) => Item::Node(store.deep_copy(n)?),
                    atomic => atomic,
                });
            }
            Ok(out)
        }
        Core::Snap(mode, body) => snap_rule(ev, store, env, *mode, &**body),
    }
}

/// An operand of a control rule ([`seq_rule`], [`for_rule`], [`let_rule`],
/// [`if_rule`], [`snap_rule`], [`args_rule`]): a core expression, which
/// the interpreter evaluates, or a plan node with its profile id, which
/// the plan executor runs (`alg::exec`). Each rule is written once, over
/// this trait, so a compiled control operator *is* the interpreted one.
pub(crate) trait Operand: Copy {
    /// `store0; dynEnv ⊢ operand ⇒ value; Δ; store1`.
    fn eval(self, ev: &mut Evaluator, store: &mut Store, env: &mut DynEnv) -> XdmResult<Sequence>;

    /// Report to the profiler that the operator over operands of this
    /// kind consumed `rows` rows: a plan node's input cardinality. A core
    /// expression has no node of its own, so it reports nothing.
    fn note_input(ev: &mut Evaluator, rows: u64);
}

impl Operand for &Core {
    #[inline]
    fn eval(self, ev: &mut Evaluator, store: &mut Store, env: &mut DynEnv) -> XdmResult<Sequence> {
        ev.eval(store, env, self)
    }

    #[inline]
    fn note_input(_: &mut Evaluator, _: u64) {}
}

/// The paper's sequence rule: e1 fully evaluated before e2, values and Δs
/// concatenated in order, each member charged against the memory budget.
pub(crate) fn seq_rule<O: Operand>(
    ev: &mut Evaluator,
    store: &mut Store,
    env: &mut DynEnv,
    members: impl IntoIterator<Item = O>,
) -> XdmResult<Sequence> {
    let mut out = Sequence::new();
    for e in members {
        let v = e.eval(ev, store, env)?;
        ev.guard.charge(v.len() as u64)?;
        out.extend(v);
    }
    Ok(out)
}

/// `for $var [at $position] in source return body`: the source once, then
/// the body per item in order with `$var` (and `$position`) bound, each
/// iteration's value charged against the memory budget.
pub(crate) fn for_rule<O: Operand>(
    ev: &mut Evaluator,
    store: &mut Store,
    env: &mut DynEnv,
    var: &str,
    position: Option<&str>,
    source: O,
    body: O,
) -> XdmResult<Sequence> {
    let src = source.eval(ev, store, env)?;
    O::note_input(ev, src.len() as u64);
    let mut out = Sequence::new();
    for (i, it) in src.into_iter().enumerate() {
        env.push_var(var, seq![it]);
        if let Some(p) = position {
            env.push_var(p, seq![Item::integer((i + 1) as i64)]);
        }
        let r = body.eval(ev, store, env);
        if position.is_some() {
            env.pop_var();
        }
        env.pop_var();
        let v = r?;
        ev.guard.charge(v.len() as u64)?;
        out.extend(v);
    }
    Ok(out)
}

/// `let $var := value return body`: the value once, then the body with
/// `$var` bound to it.
pub(crate) fn let_rule<O: Operand>(
    ev: &mut Evaluator,
    store: &mut Store,
    env: &mut DynEnv,
    var: &str,
    value: O,
    body: O,
) -> XdmResult<Sequence> {
    let v = value.eval(ev, store, env)?;
    O::note_input(ev, v.len() as u64);
    env.push_var(var, v);
    let r = body.eval(ev, store, env);
    env.pop_var();
    r
}

/// `if (cond) then … else …`: the condition's effective boolean value
/// picks the one branch that runs.
pub(crate) fn if_rule<O: Operand>(
    ev: &mut Evaluator,
    store: &mut Store,
    env: &mut DynEnv,
    cond: O,
    then: O,
    els: O,
) -> XdmResult<Sequence> {
    let c = cond.eval(ev, store, env)?;
    O::note_input(ev, c.len() as u64);
    if item::effective_boolean(&c, store)? {
        then.eval(ev, store, env)
    } else {
        els.eval(ev, store, env)
    }
}

/// The snap rule: evaluate the body with a fresh Δ on top of the stack,
/// pop it, apply it under `mode` with the next seed; on an error the Δ is
/// discarded. Nested snaps close first — the recursion gives the paper's
/// stack behavior for free.
pub(crate) fn snap_rule<O: Operand>(
    ev: &mut Evaluator,
    store: &mut Store,
    env: &mut DynEnv,
    mode: SnapMode,
    body: O,
) -> XdmResult<Sequence> {
    ev.begin_snap_scope();
    match body.eval(ev, store, env) {
        Ok(value) => {
            ev.apply_snap_scope(store, mode)?;
            Ok(value)
        }
        Err(e) => {
            ev.end_snap_scope();
            Err(e)
        }
    }
}

/// A call's arguments, left to right (Appendix B's function rule), the
/// first error winning, whether the target is built-in or user-declared;
/// [`Evaluator::call`] then runs the function over their values.
pub(crate) fn args_rule<O: Operand>(
    ev: &mut Evaluator,
    store: &mut Store,
    env: &mut DynEnv,
    args: impl IntoIterator<Item = O>,
) -> XdmResult<Vec<Sequence>> {
    let args = args.into_iter();
    let mut values = Vec::with_capacity(args.size_hint().0);
    let mut rows = 0;
    for a in args {
        let v = a.eval(ev, store, env)?;
        rows += v.len() as u64;
        values.push(v);
    }
    O::note_input(ev, rows);
    Ok(values)
}

/// The nodes of `items` in document order, duplicates removed (`ddo`).
fn doc_ordered(ev: &mut Evaluator, store: &mut Store, items: &[Item]) -> XdmResult<Sequence> {
    let mut nodes = item::all_nodes(items)?;
    store.sort_and_dedup_with(&mut nodes, &mut ev.scratch)?;
    Ok(nodes.into_iter().map(Item::Node).collect())
}

/// The `//T` fusion, for the interpreter's `MapStep` rule and the batch
/// lowering alike (DESIGN.md §14). The desugared
/// `descendant-or-self::node()/child::T[p]` selects exactly what
/// `descendant::T[p]` selects from the same origins — a node is a `T`
/// child of `$a`-or-below iff it is a `T` descendant of `$a` — provided no
/// predicate can tell one parent's children from the whole walk: none may
/// evaluate to a number (a position test) or call `position()` / `last()`,
/// and none may have an effect, whose order would follow the walk. Given
/// the step `axis::T[predicates]` over `base`, returns the origin of the
/// fused `descendant::T[predicates]` step, or `None` when it does not
/// apply.
pub(crate) fn descendant_fusion<'a>(
    base: &'a Core,
    axis: Axis,
    predicates: &[Core],
) -> Option<&'a Core> {
    let Core::MapStep {
        base: origin,
        axis: Axis::DescendantOrSelf,
        test: NodeTest::AnyKind,
        predicates: own,
    } = base
    else {
        return None;
    };
    (axis == Axis::Child && own.is_empty() && predicates.iter().all(position_blind))
        .then_some(&**origin)
}

/// Is predicate `p` blind to where its context node stands among others:
/// never a number, no `position()` / `last()`, and — so that evaluating it
/// in another order changes nothing — no constructor, update, `snap`,
/// user function or order-revealing built-in: every call is a
/// [`Kind::Read`] row.
pub(crate) fn position_blind(p: &Core) -> bool {
    let mut blind = never_numeric(p);
    p.walk(&mut |e| {
        blind &= match e {
            Core::Call(name, args) => {
                functions::builtin(name, args.len()).is_some_and(|f| f.kind == Kind::Read)
            }
            Core::ElemCtor { .. }
            | Core::AttrCtor { .. }
            | Core::TextCtor(_)
            | Core::DocCtor(_)
            | Core::Copy(_)
            | Core::Insert { .. }
            | Core::Delete(_)
            | Core::Replace(..)
            | Core::ReplaceValue(..)
            | Core::Rename(..)
            | Core::Snap(..) => false,
            _ => true,
        }
    });
    blind
}

/// Can `p`'s value never be a single number, whatever the data? Decided by
/// its outermost operator: comparisons, logic and quantifiers yield a
/// boolean, path steps yield nodes.
fn never_numeric(p: &Core) -> bool {
    match p {
        Core::GeneralComp(..)
        | Core::ValueComp(..)
        | Core::NodeComp(..)
        | Core::And(..)
        | Core::Or(..)
        | Core::Quantified { .. }
        | Core::MapStep { .. }
        | Core::DocOrder(_)
        | Core::Union(..) => true,
        Core::Const(a) => !a.is_numeric(),
        // A lifted literal is a string.
        Core::Param(_) => true,
        Core::Seq(members) => members.iter().all(never_numeric),
        Core::If(_, then, els) => never_numeric(then) && never_numeric(els),
        Core::Let { body, .. } => never_numeric(body),
        Core::Call(name, args) => {
            functions::builtin(name, args.len()).is_some_and(functions::Builtin::boolean)
        }
        _ => false,
    }
}

/// Positional predicate filtering (XPath semantics): a numeric
/// predicate value tests the context position; anything else is an
/// effective-boolean-value test.
fn filter_positional(
    ev: &mut Evaluator,
    store: &mut Store,
    env: &mut DynEnv,
    items: Sequence,
    pred: &Core,
) -> XdmResult<Sequence> {
    // Fast path: a constant numeric predicate ([1], [2]...) needs no
    // per-item evaluation.
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
        let v = ev.eval(store, env, pred);
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

/// Turn an insert/replace source sequence into parentless nodes: node items
/// pass through (they are fresh — normalization wrapped the source in
/// `copy`, which copies whatever [`yields_fresh`] does not vouch for), and
/// atomic items become text nodes with adjacent atomics
/// space-joined, mirroring element-construction content semantics. The
/// paper's §2.5 counter relies on this: `replace {$d/text()} with {$d + 1}`
/// replaces a text node with the *number* `$d + 1`.
fn content_to_nodes(store: &mut Store, seq: &[Item]) -> XdmResult<Vec<NodeId>> {
    let mut out = Vec::new();
    let mut acc: Vec<String> = Vec::new();
    for it in seq {
        match it {
            Item::Atomic(a) => acc.push(a.string_value()),
            Item::Node(n) => {
                if !acc.is_empty() {
                    out.push(store.new_text(acc.join(" ")));
                    acc.clear();
                }
                out.push(*n);
            }
        }
    }
    if !acc.is_empty() {
        out.push(store.new_text(acc.join(" ")));
    }
    Ok(out)
}

fn require_node(it: Item) -> XdmResult<NodeId> {
    it.as_node()
        .ok_or_else(|| XdmError::type_error("expected a node, got an atomic value"))
}

/// Compare order-by keys: the empty sequence sorts least ("empty least"
/// default); NaN sorts just above empty; otherwise value comparison.
fn cmp_keys(a: &Option<Atomic>, b: &Option<Atomic>) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
        (Some(x), Some(y)) => {
            if matches!(value_compare(CompareOp::Lt, x, y), Ok(true)) {
                Ordering::Less
            } else if matches!(value_compare(CompareOp::Gt, x, y), Ok(true)) {
                Ordering::Greater
            } else {
                Ordering::Equal
            }
        }
    }
}

/// Resolve an insert location to the paper's `(nodepar, nodepos)` pair —
/// the "Insert Location Judgments" of Appendix B.
fn resolve_insert_anchor(
    store: &Store,
    location: &CoreInsertLoc,
    target: NodeId,
) -> XdmResult<(NodeId, InsertAnchor)> {
    match location {
        CoreInsertLoc::First(_) => Ok((target, InsertAnchor::First)),
        CoreInsertLoc::Last(_) => Ok((target, InsertAnchor::Last)),
        CoreInsertLoc::After(_) => {
            let parent = store
                .parent(target)?
                .ok_or_else(|| XdmError::precondition("\"after\" target has no parent"))?;
            Ok((parent, InsertAnchor::After(target)))
        }
        CoreInsertLoc::Before(_) => {
            let parent = store
                .parent(target)?
                .ok_or_else(|| XdmError::precondition("\"before\" target has no parent"))?;
            let children = store.children(parent)?;
            match children.iter().position(|&c| c == target) {
                Some(0) => Ok((parent, InsertAnchor::First)),
                Some(i) => Ok((parent, InsertAnchor::After(children[i - 1]))),
                None => Err(XdmError::precondition(
                    "\"before\" target is not a child of its parent",
                )),
            }
        }
    }
}

/// Gather the nodes of `axis` from `origin` that satisfy `test`, in axis
/// order (reverse axes deliver nearest-first, which is what positional
/// predicates count along).
pub(crate) fn gather_axis(
    store: &Store,
    origin: NodeId,
    axis: Axis,
    test: &NodeTest,
) -> XdmResult<Vec<NodeId>> {
    let mut out = Vec::new();
    // Resolve the test against the interner once per gather, not once per
    // node: the hot per-node check is then integer-only (no name
    // materialization, no string compare).
    let ktest = resolve_test(store, test);
    let principal_attr = axis == Axis::Attribute;
    let push = |store: &Store, n: NodeId, out: &mut Vec<NodeId>| -> XdmResult<()> {
        if store.kernel_matches(n, principal_attr, ktest)? {
            out.push(n);
        }
        Ok(())
    };
    match axis {
        Axis::Child => {
            for &c in store.children(origin)? {
                push(store, c, &mut out)?;
            }
        }
        Axis::Descendant | Axis::DescendantOrSelf => {
            if axis == Axis::DescendantOrSelf {
                push(store, origin, &mut out)?;
            }
            // Depth-first with one open child list per tree level: only
            // the matches are kept, and the walk's own memory follows the
            // tree's depth, not its size or fan-out.
            let mut levels = vec![store.children(origin)?.iter()];
            while let Some(level) = levels.last_mut() {
                match level.next() {
                    Some(&n) => {
                        push(store, n, &mut out)?;
                        let kids = store.children(n)?;
                        if !kids.is_empty() {
                            levels.push(kids.iter());
                        }
                    }
                    None => {
                        levels.pop();
                    }
                }
            }
        }
        Axis::Attribute => {
            for &a in store.attributes(origin)? {
                push(store, a, &mut out)?;
            }
        }
        Axis::SelfAxis => push(store, origin, &mut out)?,
        Axis::Parent => {
            if let Some(p) = store.parent(origin)? {
                push(store, p, &mut out)?;
            }
        }
        Axis::Ancestor | Axis::AncestorOrSelf => {
            if axis == Axis::AncestorOrSelf {
                push(store, origin, &mut out)?;
            }
            let mut cur = store.parent(origin)?;
            while let Some(p) = cur {
                push(store, p, &mut out)?;
                cur = store.parent(p)?;
            }
        }
        Axis::FollowingSibling | Axis::PrecedingSibling => {
            if let Some(p) = store.parent(origin)? {
                let children = store.children(p)?;
                if let Some(i) = children.iter().position(|&c| c == origin) {
                    if axis == Axis::FollowingSibling {
                        for &c in &children[i + 1..] {
                            push(store, c, &mut out)?;
                        }
                    } else {
                        for &c in children[..i].iter().rev() {
                            push(store, c, &mut out)?;
                        }
                    }
                }
            }
        }
        Axis::Following => {
            // Nodes strictly after origin in document order, excluding its
            // descendants: for each ancestor-or-self, the following
            // siblings with their subtrees, in document order.
            let mut cur = origin;
            while let Some(p) = store.parent(cur)? {
                let children = store.children(p)?.to_vec();
                if let Some(i) = children.iter().position(|&c| c == cur) {
                    for &sib in &children[i + 1..] {
                        push(store, sib, &mut out)?;
                        for d in store.descendants(sib)? {
                            push(store, d, &mut out)?;
                        }
                    }
                }
                cur = p;
            }
        }
        Axis::Preceding => {
            // Nodes strictly before origin in document order, excluding
            // ancestors: for each ancestor-or-self (nearest first), the
            // preceding siblings' subtrees in reverse document order.
            let mut cur = origin;
            while let Some(p) = store.parent(cur)? {
                let children = store.children(p)?.to_vec();
                if let Some(i) = children.iter().position(|&c| c == cur) {
                    for &sib in children[..i].iter().rev() {
                        // Reverse document order within the subtree: the
                        // subtree in document order is [sib, d1, ..., dn],
                        // so reversed it is [dn, ..., d1, sib].
                        let mut subtree = vec![sib];
                        subtree.extend(store.descendants(sib)?);
                        for &d in subtree.iter().rev() {
                            push(store, d, &mut out)?;
                        }
                    }
                }
                cur = p;
            }
        }
    }
    Ok(out)
}

/// Resolve a syntactic [`NodeTest`] to a [`KernelTest`] against `store`'s
/// interner: one hash lookup per *step*, integer compares per *node*.
/// Valid only for that store; an interner miss on a name test yields
/// `Name(None)`, which matches nothing.
pub(crate) fn resolve_test(store: &Store, test: &NodeTest) -> KernelTest {
    match test {
        NodeTest::Name(wanted) => KernelTest::name(store.symbols(), wanted),
        NodeTest::Wildcard => KernelTest::Wildcard,
        NodeTest::Text => KernelTest::Text,
        NodeTest::AnyKind => KernelTest::AnyKind,
        NodeTest::Comment => KernelTest::Comment,
        NodeTest::Pi => KernelTest::Pi,
        NodeTest::Element => KernelTest::Element,
        NodeTest::AttributeTest => KernelTest::AttributeTest,
        NodeTest::Document => KernelTest::Document,
    }
}

/// Is every node `e` evaluates to **fresh**: allocated by this very
/// evaluation, parentless, and denoted by no variable, path or Δ entry —
/// so that attaching it somewhere is indistinguishable from attaching a
/// deep copy of it (DESIGN.md §15)? Judged by syntax alone: element,
/// attribute and text constructors and `copy {}` are fresh; a sequence, a
/// `for`/`let` body and a conditional (hence a `where`) are fresh when all
/// their value positions are. A variable, path step or function call never
/// is — its nodes may be reachable under another name — and neither is a
/// document constructor, whose node contributes its *children* to
/// enclosing content. The only two consumers are `Core::Copy` and
/// [`append_content`].
fn yields_fresh(e: &Core) -> bool {
    match e {
        Core::ElemCtor { .. } | Core::AttrCtor { .. } | Core::TextCtor(_) | Core::Copy(_) => true,
        Core::Seq(members) => members.iter().all(yields_fresh),
        Core::For { body, .. } | Core::SortedFor { body, .. } | Core::Let { body, .. } => {
            yields_fresh(body)
        }
        Core::If(_, then, els) => yields_fresh(then) && yields_fresh(els),
        _ => false,
    }
}

/// XQuery 1.0 construction semantics for a content sequence: attribute
/// nodes (which must precede other content) are attached; other nodes
/// become children, a document node contributing its children; adjacent
/// atomics become a single space-separated text node. Every node goes in
/// as a deep copy — the implicit copy that keeps trees single-parented —
/// except those flagged fresh ([`yields_fresh`]), which are adopted as
/// they are: a constructed tree of *n* nodes costs *n* allocations.
fn append_content(
    store: &mut Store,
    parent: NodeId,
    content: &[(Item, bool)],
    allow_attrs: bool,
) -> XdmResult<()> {
    let mut text_acc: Vec<String> = Vec::new();
    let mut seen_content = false;
    let flush = |store: &mut Store, acc: &mut Vec<String>, seen: &mut bool| -> XdmResult<()> {
        if !acc.is_empty() {
            let t = store.new_text(acc.join(" "));
            store.append_child(parent, t)?;
            acc.clear();
            *seen = true;
        }
        Ok(())
    };
    let own = |store: &mut Store, n: NodeId, fresh: bool| -> XdmResult<NodeId> {
        if fresh {
            Ok(n)
        } else {
            store.deep_copy(n)
        }
    };
    for (it, fresh) in content {
        match it {
            Item::Atomic(a) => text_acc.push(a.string_value()),
            Item::Node(n) => {
                flush(store, &mut text_acc, &mut seen_content)?;
                match store.kind(*n)? {
                    NodeKind::Attribute { .. } => {
                        if !allow_attrs {
                            return Err(XdmError::type_error("attribute node in document content"));
                        }
                        if seen_content {
                            return Err(XdmError::new(
                                "XQTY0024",
                                "attribute constructor after non-attribute content",
                            ));
                        }
                        let attr = own(store, *n, *fresh)?;
                        store.attach_attribute(parent, attr)?;
                    }
                    NodeKind::Document { children } => {
                        // A document node contributes its children, always
                        // as copies: adopting them would mean detaching
                        // them from their document first.
                        for c in children.clone() {
                            let copy = store.deep_copy(c)?;
                            store.append_child(parent, copy)?;
                        }
                        seen_content = true;
                    }
                    _ => {
                        let child = own(store, *n, *fresh)?;
                        store.append_child(parent, child)?;
                        seen_content = true;
                    }
                }
            }
        }
    }
    flush(store, &mut text_acc, &mut seen_content)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqsyn::ast::NodeTest;

    fn sample_tree() -> (Store, NodeId, Vec<NodeId>) {
        // <r><a/><b>t</b><c x="1"/></r>
        let mut s = Store::new();
        let r = s.new_element(QName::local("r"));
        let a = s.new_element(QName::local("a"));
        let b = s.new_element(QName::local("b"));
        let t = s.new_text("t");
        let c = s.new_element(QName::local("c"));
        let x = s.new_attribute(QName::local("x"), "1");
        s.append_child(b, t).unwrap();
        for n in [a, b, c] {
            s.append_child(r, n).unwrap();
        }
        s.attach_attribute(c, x).unwrap();
        (s, r, vec![a, b, t, c, x])
    }

    #[test]
    fn gather_axis_child_and_descendant() {
        let (s, r, ns) = sample_tree();
        let kids = gather_axis(&s, r, Axis::Child, &NodeTest::AnyKind).unwrap();
        assert_eq!(kids, vec![ns[0], ns[1], ns[3]]);
        let desc = gather_axis(&s, r, Axis::Descendant, &NodeTest::AnyKind).unwrap();
        assert_eq!(desc, vec![ns[0], ns[1], ns[2], ns[3]]);
        let texts = gather_axis(&s, r, Axis::Descendant, &NodeTest::Text).unwrap();
        assert_eq!(texts, vec![ns[2]]);
    }

    #[test]
    fn gather_axis_attribute_principal_kind() {
        let (s, _r, ns) = sample_tree();
        let c = ns[3];
        // Wildcard on the attribute axis matches attributes only.
        let attrs = gather_axis(&s, c, Axis::Attribute, &NodeTest::Wildcard).unwrap();
        assert_eq!(attrs, vec![ns[4]]);
        // Name test off the attribute axis does not match attributes.
        let none = gather_axis(&s, c, Axis::Child, &NodeTest::Name("x".into())).unwrap();
        assert!(none.is_empty());
    }

    #[test]
    fn gather_axis_reverse_axes_nearest_first() {
        let (s, r, ns) = sample_tree();
        let t = ns[2];
        let anc = gather_axis(&s, t, Axis::Ancestor, &NodeTest::AnyKind).unwrap();
        assert_eq!(anc, vec![ns[1], r]);
        let prec = gather_axis(&s, ns[3], Axis::PrecedingSibling, &NodeTest::AnyKind).unwrap();
        assert_eq!(prec, vec![ns[1], ns[0]]);
        let foll = gather_axis(&s, ns[0], Axis::FollowingSibling, &NodeTest::AnyKind).unwrap();
        assert_eq!(foll, vec![ns[1], ns[3]]);
    }

    #[test]
    fn descendant_fusion_only_where_no_predicate_can_tell() {
        let fuses = |q: &str| match xqsyn::compile(q).unwrap().body {
            Core::MapStep {
                base,
                axis,
                predicates,
                ..
            } => descendant_fusion(&base, axis, &predicates).is_some(),
            other => panic!("{q}: {other:?}"),
        };
        for q in [
            "$d//x",
            "$d//x[y]",
            "$d//x[@a = 'v']",
            "$d//x[q > 3]",
            "$d//x[not(y)][q]",
            "$d//x[y[1]]",
        ] {
            assert!(fuses(q), "{q} should fuse");
        }
        for q in [
            "$d//x[1]",
            "$d//x[last()]",
            "$d//x[position() = 2]",
            "$d//x[$n]",
            "$d//x[count(y)]",
            "$d//x[y][1]",
            "$d//x[f(.) = 1]",
            "$d//x[trace(y, 't')]",
            "$d//x[<a/>]",
            "$d//@a",
            "$d/descendant-or-self::y/x",
        ] {
            assert!(!fuses(q), "{q} must not fuse");
        }
    }

    #[test]
    fn resolve_anchor_before_after() {
        let (s, r, ns) = sample_tree();
        let (a, b) = (ns[0], ns[1]);
        // before first child -> First.
        assert_eq!(
            resolve_insert_anchor(&s, &CoreInsertLoc::Before(Core::empty().boxed()), a).unwrap(),
            (r, InsertAnchor::First)
        );
        // before a later child -> After(previous sibling).
        assert_eq!(
            resolve_insert_anchor(&s, &CoreInsertLoc::Before(Core::empty().boxed()), b).unwrap(),
            (r, InsertAnchor::After(a))
        );
        assert_eq!(
            resolve_insert_anchor(&s, &CoreInsertLoc::After(Core::empty().boxed()), a).unwrap(),
            (r, InsertAnchor::After(a))
        );
        // before/after a parentless node fails.
        assert!(
            resolve_insert_anchor(&s, &CoreInsertLoc::Before(Core::empty().boxed()), r).is_err()
        );
    }

    #[test]
    fn content_to_nodes_joins_adjacent_atomics() {
        let mut s = Store::new();
        let e = s.new_element(QName::local("e"));
        let seq = vec![
            Item::integer(1),
            Item::string("two"),
            Item::Node(e),
            Item::integer(3),
        ];
        let nodes = content_to_nodes(&mut s, &seq).unwrap();
        assert_eq!(nodes.len(), 3);
        assert_eq!(s.string_value(nodes[0]).unwrap(), "1 two");
        assert_eq!(nodes[1], e);
        assert_eq!(s.string_value(nodes[2]).unwrap(), "3");
    }

    #[test]
    fn snap_scope_api_balance() {
        let mut ev = Evaluator::new(Arc::default(), &xqsyn::compile("()").unwrap());
        ev.begin_snap_scope();
        ev.begin_snap_scope();
        assert!(ev.end_snap_scope().is_empty());
        assert!(ev.end_snap_scope().is_empty());
    }

    #[test]
    fn cmp_keys_empty_least_and_nan() {
        use std::cmp::Ordering;
        assert_eq!(cmp_keys(&None, &Some(Atomic::Integer(1))), Ordering::Less);
        assert_eq!(cmp_keys(&None, &None), Ordering::Equal);
        assert_eq!(
            cmp_keys(&Some(Atomic::Integer(1)), &Some(Atomic::Integer(2))),
            Ordering::Less
        );
        // NaN compares "equal" to everything under value_compare, so the
        // sort treats it as tied (stable order preserved).
        assert_eq!(
            cmp_keys(&Some(Atomic::Double(f64::NAN)), &Some(Atomic::Integer(1))),
            Ordering::Equal
        );
    }
}
