//! The high-level engine facade: the API a host application uses.
//!
//! Wraps store + parser + normalizer + evaluator into the workflow of the
//! paper's Web-service scenario: load documents, bind host variables, run
//! XQuery! programs (each with its implicit top-level snap), and inspect or
//! serialize the resulting store.

use crate::alg::pipeline::{compile_program, compile_structural_program};
use crate::alg::PlannedProgram;
use crate::env::{DynEnv, ProgramEnv, Scope};
use crate::eval::Evaluator;
use crate::limits::{self, Limits};
use crate::obs::{self, CounterId, HistogramId};
use crate::planner::{self, Prepared, SharedPlanCache};
use crate::server::{Server, ServerConfig};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use xqdm::atomic::Atomic;
use xqdm::item::{Item, Sequence};
use xqdm::seq;
use xqdm::{NodeId, RecoveryReport, Store, SyncMode, XdmResult};
use xqsyn::core::Core;
use xqsyn::cursor::ParseError;
use xqsyn::{CoreProgram, Skeleton};

/// Engine errors: parse-time or evaluation-time.
#[derive(Debug, Clone, PartialEq)]
pub enum Error {
    /// Syntax error.
    Parse(ParseError),
    /// Dynamic (evaluation/data-model) error.
    Eval(xqdm::XdmError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Parse(e) => write!(f, "{e}"),
            Error::Eval(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<ParseError> for Error {
    fn from(e: ParseError) -> Self {
        Error::Parse(e)
    }
}

impl From<xqdm::XdmError> for Error {
    fn from(e: xqdm::XdmError) -> Self {
        Error::Eval(e)
    }
}

pub use crate::eval::EvalStats;

/// The XQuery! engine.
pub struct Engine {
    /// The node store. Public: hosts may construct data directly.
    pub store: Store,
    /// Module functions, host bindings and run policy (DESIGN.md §19):
    /// shared with every snapshot, fork and evaluator made from this
    /// engine, and edited here — copy-on-write — and nowhere else.
    env: Arc<ProgramEnv>,
    /// Per-snap seed counter, persisted across runs so nondeterministic
    /// application orders are never replayed between successive queries.
    snap_counter: u64,
    /// Compiled plans by [`plan_key`]. This engine's own until
    /// [`Engine::set_shared_plan_cache`] installs another; forks share it.
    plans: Arc<SharedPlanCache>,
    /// The account of the most recent run (or module load).
    last_run: Option<RunReport>,
    /// fsync policy for the durable store (applied when a store is
    /// opened/saved, and live-switchable via [`Engine::set_durability`]).
    durability: SyncMode,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

/// The account of one run — what the paper's judgment returns beside the
/// value (DESIGN.md §10). `Engine::execute_program` produces it; the
/// metrics flush, the slow-query record and EXPLAIN ANALYZE's rendering
/// consume it; [`Engine::last_run`] keeps the latest.
pub struct RunReport {
    /// What the evaluator counted. `None` after a panic: the state of an
    /// evaluator that panicked is not trusted.
    pub stats: Option<EvalStats>,
    /// Wall time, nanoseconds.
    pub elapsed_ns: u64,
    /// Plan-cache outcome: `"hit"`, `"miss"`, or `"uncompiled"`
    /// (`set_compile(false)`, module loads).
    pub cache: &'static str,
    /// `(records, bytes)` this run committed to the redo log; `(0, 0)`
    /// for a read-only run or without a durable store.
    pub wal: (u64, u64),
    /// Per-plan-node counters ([`Engine::explain_analyze`] only).
    pub profile: Option<obs::Profile>,
    /// The plan that ran; `None` when the program was interpreted.
    pub plan: Option<Arc<PlannedProgram>>,
}

/// The plan-cache outcome of a run that looked no plan up: the
/// interpreter ran the program (`set_compile(false)`, module loads).
const UNCOMPILED: &str = "uncompiled";

impl Engine {
    /// A fresh engine with an empty in-memory store and the default
    /// policy. Everything else — a durable store, limits, tracing
    /// — is set by the host through the setters below; the engine reads
    /// nothing from its process.
    pub fn new() -> Self {
        Engine::over(
            Store::new(),
            Arc::new(ProgramEnv::default()),
            0,
            SharedPlanCache::new(),
        )
    }

    /// An engine over `store` with nothing run yet: the shared shape of a
    /// fresh engine and of a fork ([`EngineSnapshot::reader`]).
    fn over(
        store: Store,
        env: Arc<ProgramEnv>,
        snap_counter: u64,
        plans: Arc<SharedPlanCache>,
    ) -> Engine {
        Engine {
            store,
            env,
            snap_counter,
            plans,
            last_run: None,
            durability: SyncMode::default(),
        }
    }

    /// The environment, for editing. Copies it first if a snapshot, a fork
    /// or a running evaluator still shares the current one — they keep
    /// what they started with.
    fn env_mut(&mut self) -> &mut ProgramEnv {
        Arc::make_mut(&mut self.env)
    }

    /// Recover (or create) the durable store at `dir` and attach it: every
    /// subsequent run's committed snaps are flushed to its redo log. The
    /// recovered document roots are bound to `$doc`, `$doc2`, `$doc3`, …
    /// in slot order (bindings are per-session state and do not survive a
    /// restart). Replaces this engine's store and bindings.
    pub fn open_store(&mut self, dir: impl AsRef<Path>) -> XdmResult<RecoveryReport> {
        let (store, report) = Store::open_durable(dir, self.durability)?;
        self.store = store;
        let roots = self.store.document_roots();
        let env = self.env_mut();
        env.clear_bindings();
        for (i, root) in roots.into_iter().enumerate() {
            let name = if i == 0 {
                "doc".to_string()
            } else {
                format!("doc{}", i + 1)
            };
            env.bind(&name, seq![Item::Node(root)]);
        }
        let m = obs::global();
        m.counter(CounterId::WalReplayed)
            .add(report.replayed_commits);
        m.counter(CounterId::WalTailDropped)
            .add(report.tail_dropped);
        for w in &report.warnings {
            eprintln!("warning: durable store recovery: {w}");
        }
        Ok(report)
    }

    /// Persist this engine's current store to `dir` and keep it attached
    /// (the REPL's `:save`): the store contents become the initial
    /// checkpoint and later commits append to the redo log there.
    pub fn save_store(&mut self, dir: impl AsRef<Path>) -> XdmResult<()> {
        self.store.save_durable(dir, self.durability)
    }

    /// Set the fsync-on-commit policy (`always` / `batch` / `off`).
    /// Applies immediately to an attached store and to stores opened
    /// later.
    pub fn set_durability(&mut self, sync: SyncMode) {
        self.durability = sync;
        self.store.set_durability(sync);
    }

    /// The fsync-on-commit policy in force.
    pub fn durability(&self) -> SyncMode {
        self.durability
    }

    /// Flush redo ops recorded since the last durable point, returning the
    /// `(records, bytes)` appended — `(0, 0)` when there was nothing to
    /// flush or no store is attached. Called at every engine commit point
    /// (end of a run — success *or* error, since closed snaps are
    /// commitment either way — and after document loads). Installs a
    /// compacted checkpoint when one is due.
    fn commit_wal(&mut self) -> XdmResult<(u64, u64)> {
        if !self.store.has_wal() || self.store.frame_depth() != 0 {
            return Ok((0, 0));
        }
        let trace = self.env.trace.as_ref();
        let span = trace.map(|sink| sink.begin("wal_commit", None));
        let started = Instant::now();
        let committed = self.store.wal_commit();
        if let (Some(sink), Some(id)) = (trace, span) {
            sink.end(id);
        }
        let Some(receipt) = committed? else {
            return Ok((0, 0));
        };
        let m = obs::global();
        m.counter(CounterId::WalCommits).add(1);
        m.counter(CounterId::WalRecords).add(receipt.records);
        m.counter(CounterId::WalBytes).add(receipt.bytes);
        if receipt.fsynced {
            m.counter(CounterId::WalFsyncs).add(1);
        }
        m.histogram(HistogramId::WalCommitNs)
            .record(obs::elapsed_ns(started));
        if self.store.checkpoint_due() {
            self.store.checkpoint()?;
            m.counter(CounterId::WalCheckpoints).add(1);
        }
        Ok((receipt.records, receipt.bytes))
    }

    /// Attach a trace-span sink (the binaries' `--trace <FILE>`).
    pub fn set_trace(&mut self, sink: Arc<obs::TraceSink>) {
        self.env_mut().trace = Some(sink);
    }

    /// Set (or with `None` disable) the slow-query threshold in
    /// milliseconds. Runs at or above it are recorded in the global
    /// registry's slow-query ring and logged as JSON to stderr.
    pub fn set_slow_query_threshold(&mut self, millis: Option<f64>) {
        self.env_mut().slow_ms = millis;
    }

    /// Install resource limits (depth, fuel, deadline, memory; DESIGN.md
    /// §12). They apply to every subsequent run, parse, and document load.
    pub fn set_limits(&mut self, limits: Limits) {
        self.env_mut().limits = limits;
    }

    /// The resource limits in force.
    pub fn limits(&self) -> &Limits {
        &self.env.limits
    }

    /// Register a library module — a prolog-only program: its `declare
    /// function`s become available to every subsequent [`Engine::run`],
    /// and its `declare variable`s are evaluated *now* (each inside its own
    /// implicit snap) and installed as persistent bindings — so module
    /// state like the paper's §2.5 counter survives across service calls.
    /// A program with a body is not a module and is rejected (`XPST0003`),
    /// and so is a module declaring a function `(name, arity)` that is
    /// already declared, by an earlier module or twice in this one
    /// (`XQST0034`): the engine is left exactly as it was.
    ///
    /// Loading is a run like any other — same frame, same trace span, same
    /// accounting ([`Engine::last_run`], `engine.runs`, limit trips) — but
    /// all-or-nothing: if any initializer fails (or panics), the store is
    /// rolled back and the engine's function table and bindings are
    /// restored, so no half-loaded module is ever visible.
    pub fn load_module(&mut self, source: &str) -> Result<(), Error> {
        let program = self.compile(source)?;
        if program.body != Core::Seq(Vec::new()) {
            return Err(Error::Eval(xqdm::XdmError::new(
                "XPST0003",
                "a library module is prolog-only; run a program with a body through Engine::run",
            )));
        }
        let before = self.env.clone();
        // Functions first, so variable initializers may call them (and
        // functions from earlier modules). A redeclaration (`XQST0034`)
        // puts back the very environment the engine had, so what was
        // prepared under it still holds.
        if let Err(e) = self.env_mut().declare(&program.functions) {
            self.env = before;
            return Err(Error::Eval(e));
        }
        let (result, report) =
            self.run_frame(&program, None, UNCOMPILED, false, true, |ev, store| {
                let mut values = Vec::with_capacity(program.variables.len());
                for (name, init) in &program.variables {
                    let value = ev.eval_query(store, &mut DynEnv::new(), init)?;
                    ev.bind_global(name.clone(), value.clone());
                    values.push(value);
                }
                Ok(values)
            });
        self.last_run = Some(report);
        match result {
            Ok(values) => {
                let env = self.env_mut();
                for ((name, _), value) in program.variables.iter().zip(values) {
                    env.bind(name, value);
                }
                Ok(())
            }
            Err(e) => {
                self.env = before;
                Err(Error::Eval(e))
            }
        }
    }

    /// Roll back every frame opened at or above `depth` (the innermost
    /// first), restoring the store to its state when frame `depth + 1`
    /// was opened. Used on the panic path, where inner `apply_delta`
    /// frames may still be open.
    fn unwind_frames_to(&mut self, depth: usize) {
        while self.store.frame_depth() > depth {
            self.store.rollback_frame();
        }
    }

    /// Node roots currently referenced by host bindings: the liveness root
    /// set for sweeping orphaned construction nodes after a failed run.
    fn binding_roots(&self) -> Vec<NodeId> {
        self.env
            .bindings()
            .flat_map(|(_, seq)| seq.iter().filter_map(Item::as_node))
            .collect()
    }

    /// The account of the most recent [`Engine::run`] /
    /// [`Engine::run_program`] / [`Engine::explain_analyze`] /
    /// [`Engine::load_module`], whatever its outcome: statistics, wall
    /// time, plan-cache outcome, WAL receipt, the plan that ran and — after
    /// an analyzed run only — its per-node profile.
    pub fn last_run(&self) -> Option<&RunReport> {
        self.last_run.as_ref()
    }

    /// Statistics of the most recent run ([`RunReport::stats`]): snaps
    /// closed (≥ 1, the implicit one), update requests applied, deepest
    /// snap nesting.
    pub fn last_stats(&self) -> Option<EvalStats> {
        self.last_run.as_ref()?.stats
    }

    /// Fix the seed used for nondeterministic snap application.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.env_mut().seed = seed;
        self
    }

    /// Parse an XML document into the store and bind its document node to
    /// `$name`. Returns the document node.
    pub fn load_document(&mut self, name: &str, xml: &str) -> XdmResult<NodeId> {
        let parsed = xqdm::xml::parse_document_with_limit(
            &mut self.store,
            xml,
            self.env.limits.max_xml_depth,
        )
        .inspect_err(|e| obs::global().note_limit_trip(e.code));
        // Loading a document is an engine commit point: flush its nodes
        // to the redo log even when the parse failed partway, so a
        // recovered store always matches the in-memory one.
        let flushed = self.commit_wal();
        let doc = parsed?;
        flushed?;
        self.bind(name, seq![Item::Node(doc)]);
        Ok(doc)
    }

    /// Bind `$name` to a host-supplied value for subsequent queries.
    pub fn bind(&mut self, name: &str, value: Sequence) {
        self.env_mut().bind(name, value);
    }

    /// Look up a host binding.
    pub fn binding(&self, name: &str) -> Option<&Sequence> {
        self.env.binding(name)
    }

    /// Parse, normalize and run an XQuery! program against the store.
    /// The query body (and prolog variable initializers) run inside the
    /// implicit top-level snap; all effects are applied when this returns.
    /// A text of a shape run before under the same environment is not
    /// parsed again: its [`Prepared`] entry in the plan cache carries the
    /// program, and the text's string literals are bound to its slots
    /// (DESIGN.md §15).
    pub fn run(&mut self, query: &str) -> Result<Sequence, Error> {
        let (prepared, params) = prepare(&self.env, &self.plans, query)?;
        Ok(self.run_bound(&prepared.program, params)?)
    }

    /// Run an already-compiled program.
    ///
    /// Failure isolation: a run that returns an error keeps every snap that
    /// closed before the error (closing a snap is commitment, §2.3) but
    /// leaves no other trace — bindings and module functions are untouched,
    /// and nodes constructed during the run that ended up reachable from no
    /// host binding are reclaimed, so a failed run cannot leak store slots.
    /// A *panic* during evaluation is caught and the store is rolled back
    /// to its exact pre-call state (committed snaps included) before an
    /// `XQB0030` error is returned: a store that a panicking evaluation was
    /// mutating is not trusted as commitment.
    pub fn run_program(&mut self, program: &CoreProgram) -> XdmResult<Sequence> {
        self.run_bound(program, Vec::new())
    }

    /// [`Engine::run_program`] with `program`'s [`Core::Param`] slots bound
    /// to `params`: the one run entry of a prepared text, here and on a
    /// server's sessions.
    pub(crate) fn run_bound(
        &mut self,
        program: &CoreProgram,
        params: Vec<Atomic>,
    ) -> XdmResult<Sequence> {
        let (plan, cache) = self.plan_for(program);
        let (result, report) = self.execute_program(plan, cache, program, params, false);
        self.last_run = Some(report);
        result
    }

    /// Run `program` with `params` bound — its plan when there is one, the
    /// interpreter otherwise — and return the value with the run's
    /// account. With `profile` set, per-node counters are captured into
    /// the report. The shared body of [`Engine::run_bound`] and
    /// [`Engine::explain_analyze`].
    fn execute_program(
        &mut self,
        plan: Option<Arc<PlannedProgram>>,
        cache: &'static str,
        program: &CoreProgram,
        params: Vec<Atomic>,
        profile: bool,
    ) -> (XdmResult<Sequence>, RunReport) {
        let compiled = plan.clone();
        // Compiled and interpreted paths share the evaluator (and hence the
        // Δ-stack, seed counter, and statistics), and run inside the same
        // panic/undo frame.
        self.run_frame(program, plan, cache, profile, false, |ev, store| {
            ev.bind_params(params);
            match &compiled {
                Some(plan) => plan.execute(ev, store),
                None => ev.eval_program(store, program),
            }
        })
    }

    /// The one run frame: evaluate `body` on a fresh evaluator for
    /// `program` (run by `plan` with plan-cache outcome `cache`, or
    /// interpreted) under a `run` trace span, inside the PR-1 panic/undo
    /// frame; flush the WAL; account for the run whatever the outcome
    /// ([`Engine::finish_run`]) and return its [`RunReport`]. An evaluation
    /// error keeps the snaps that closed before it — or, with
    /// `all_or_nothing` (module loads), rolls the store back as a panic
    /// always does.
    fn run_frame<T>(
        &mut self,
        program: &CoreProgram,
        plan: Option<Arc<PlannedProgram>>,
        cache: &'static str,
        profile: bool,
        all_or_nothing: bool,
        body: impl FnOnce(&mut Evaluator, &mut Store) -> XdmResult<T>,
    ) -> (XdmResult<T>, RunReport) {
        let (mut evaluator, _) = self.evaluator(program);
        let trace = self.env.trace.clone();
        let run_span = trace.as_ref().map(|sink| sink.begin("run", None));
        if let Some(sink) = &trace {
            evaluator.set_trace(sink.clone(), run_span);
        }
        if profile {
            evaluator.enable_profiling();
        }
        let depth = self.store.frame_depth();
        self.store.begin_frame();
        let started = Instant::now();
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            body(&mut evaluator, &mut self.store)
        }));
        let elapsed_ns = obs::elapsed_ns(started);
        if let (Some(sink), Some(id)) = (&trace, run_span) {
            sink.end(id);
            sink.flush();
        }
        self.snap_counter = evaluator.snap_counter();
        let (stats, profile) = match &outcome {
            Ok(_) => (Some(evaluator.stats()), evaluator.take_profile()),
            Err(_panic) => (None, None),
        };
        drop(evaluator);
        let mut result = match outcome {
            Ok(Ok(value)) => {
                self.store.commit_frame();
                Ok(value)
            }
            Ok(Err(e)) if all_or_nothing => {
                self.unwind_frames_to(depth);
                Err(e)
            }
            Ok(Err(e)) => {
                // Keep committed snaps, then sweep constructed nodes the
                // failed run left unreachable.
                let allocs = self.store.frame_allocations();
                self.store.commit_frame();
                match self
                    .store
                    .reclaim_unreachable(&allocs, &self.binding_roots())
                {
                    Ok(_) => Err(e),
                    Err(sweep) => Err(sweep),
                }
            }
            Err(_panic) => {
                self.unwind_frames_to(depth);
                Err(xqdm::XdmError::new(
                    "XQB0030",
                    "evaluation panicked; store rolled back to the pre-run state",
                ))
            }
        };
        // Durable point: whatever this run committed (on error, every snap
        // closed before the failure; after a rollback, nothing — it
        // already discarded the pending redo ops) is flushed to the log
        // now. A flush failure becomes the run's error, but never masks
        // an evaluation error that is already being reported.
        let wal = self.commit_wal().unwrap_or_else(|wal| {
            if result.is_ok() {
                result = Err(wal);
            }
            (0, 0)
        });
        let report = RunReport {
            stats,
            elapsed_ns,
            cache,
            wal,
            profile,
            plan,
        };
        self.finish_run(program, &report, result.as_ref().err());
        (result, report)
    }

    /// Flush one run's account into the global registry — one relaxed add
    /// per counter, no lock — and, when the run crossed the slow-query
    /// threshold, record a [`obs::SlowQuery`]. Runs on every outcome —
    /// success, error (resource-governance trips get their own counters on
    /// top of `engine.errors`), and panic.
    fn finish_run(
        &self,
        program: &CoreProgram,
        report: &RunReport,
        error: Option<&xqdm::XdmError>,
    ) {
        let m = obs::global();
        m.counter(CounterId::Runs).add(1);
        if let Some(e) = error {
            m.counter(CounterId::Errors).add(1);
            m.note_limit_trip(e.code);
        }
        m.histogram(HistogramId::RunNs).record(report.elapsed_ns);
        let stats = report.stats.unwrap_or_default();
        for (counter, n) in stats.counters() {
            m.counter(counter).add(n);
        }
        let millis = report.elapsed_ns as f64 / 1e6;
        if self
            .env
            .slow_ms
            .is_some_and(|threshold| millis >= threshold)
        {
            // The key is derived here, on this rare path, from the two
            // fingerprints the program and the environment carry.
            let (h1, h2) = plan_key(&self.env, program);
            m.record_slow(obs::SlowQuery {
                fingerprint: format!("{h1:016x}{h2:016x}"),
                millis,
                cache: report.cache,
                snaps_closed: stats.snaps_closed,
                requests_applied: stats.requests_applied,
            });
        }
    }

    /// Run `query` with per-plan-node instrumentation and render the
    /// EXPLAIN tree annotated with live counters plus a totals line —
    /// `EXPLAIN ANALYZE` for XQuery!. The query *really runs* (effects
    /// apply exactly as under [`Engine::run`]).
    ///
    /// In compiled mode this analyzes the optimized plan; with compilation
    /// disabled it runs a structural (unoptimized) plan whose operators
    /// mirror interpretation one-for-one, so both modes report per-node
    /// counters.
    pub fn explain_analyze(&mut self, query: &str) -> Result<String, Error> {
        // The text is prepared as `run` prepares it, so the plan analyzed
        // and its cache outcome are the ones a run of the text gets.
        let (prepared, params) = prepare(&self.env, &self.plans, query)?;
        let program = &prepared.program;
        let ((plan, cache), mode) = if self.env.compile {
            (self.plan_for(program), "compiled")
        } else {
            let plan = compile_structural_program(&linked(&self.env, program));
            ((Some(Arc::new(plan)), UNCOMPILED), "interpreted")
        };
        let (result, report) = self.execute_program(plan, cache, program, params.clone(), true);
        let rendered =
            result.map(|value| self.render_analyzed(&report, value.len(), mode, &params));
        self.last_run = Some(report);
        Ok(rendered?)
    }

    /// The analyzed plan tree of `report`, its lifted literals printed as
    /// `params` binds them, and its `totals:` line.
    fn render_analyzed(
        &self,
        report: &RunReport,
        rows: usize,
        mode: &str,
        params: &[Atomic],
    ) -> String {
        let tree = match (&report.plan, &report.profile) {
            (Some(plan), Some(profile)) => plan.explain_analyzed(profile, &self.store, params),
            _ => String::new(),
        };
        let stats = report.stats.unwrap_or_default();
        let [_batch, idx] = stats.strategy_pairs();
        let mut totals = format!(
            "totals: time={} rows={rows} snaps={} Δ={}/{} plan_nodes={} joins={} \
             cache={} mode={mode}",
            obs::fmt_ns(report.elapsed_ns),
            stats.snaps_closed,
            stats.requests_emitted,
            stats.requests_applied,
            stats.plan_nodes_executed,
            stats.joins_executed,
            report.cache,
        );
        // Index scans only show when the executor actually chose one, so
        // index-free runs keep their historical totals line.
        if idx.1 > 0 {
            totals.push_str(&format!(" idx={}/{}", idx.1, idx.2));
        }
        // Only durable sessions carry the WAL token, so the goldens for
        // in-memory runs are unchanged.
        if self.store.has_wal() {
            let (records, bytes) = report.wal;
            totals.push_str(&format!(" wal={records}r/{bytes}B"));
        }
        format!("{tree}\n{totals}")
    }

    /// Compile `program` ([`crate::alg`]), consulting the plan cache
    /// first under its [`plan_key`]; returns the plan and the cache
    /// outcome token for the slow-query log and the EXPLAIN ANALYZE
    /// totals. No plan means "interpret": `set_compile(false)`.
    fn plan_for(&self, program: &CoreProgram) -> (Option<Arc<PlannedProgram>>, &'static str) {
        if !self.env.compile {
            return (None, UNCOMPILED);
        }
        let key = plan_key(&self.env, program);
        let (plan, cache) = match self.plans.get(key) {
            Some(plan) => (plan, "hit"),
            None => {
                let trace = self.env.trace.as_ref();
                let span = trace.map(|sink| sink.begin("plan", None));
                // Only a miss pays for the closed program the compiler
                // needs; a hit never copies a module function.
                let linked = linked(&self.env, program);
                let plan = Arc::new(compile_program(&linked));
                if let (Some(sink), Some(id)) = (trace, span) {
                    sink.end(id);
                }
                self.plans.insert(key, plan.clone());
                (plan, "miss")
            }
        };
        (Some(plan), cache)
    }

    /// Enable or disable compiled execution (enabled by default;
    /// `set_compile(false)` selects the reference interpreter).
    pub fn set_compile(&mut self, enabled: bool) {
        self.env_mut().compile = enabled;
    }

    /// Hits and misses of this engine's plan cache — counted by the cache,
    /// so once [`Engine::set_shared_plan_cache`] installed a shared one,
    /// across every engine holding it.
    pub fn plan_cache_stats(&self) -> (u64, u64) {
        self.plans.stats()
    }

    /// Plan into and hit from `cache` instead of this engine's own, so
    /// plans compiled here are visible to every other engine holding the
    /// same cache. Snapshots and forks taken afterwards inherit it.
    pub fn set_shared_plan_cache(&mut self, cache: Arc<SharedPlanCache>) {
        self.plans = cache;
    }

    /// The paper-style compiled plan for `query` (with effect
    /// annotations), without running it — `EXPLAIN` for XQuery!. Module
    /// functions participate as they would in [`Engine::run`]. The
    /// `xqb:explain` builtin prints the same text from inside a query.
    pub fn explain(&self, query: &str) -> Result<String, Error> {
        explain_query(&self.env, &self.store, query).map_err(parse_error)
    }

    /// Enable or disable the store's secondary-index plane (DESIGN.md
    /// §17). Maintenance continues either way; the executor reads the
    /// switch per scan, so no plan depends on it and a toggle re-plans
    /// nothing.
    pub fn set_indexing(&mut self, enabled: bool) {
        self.store.set_indexing(enabled);
    }

    /// Compile a query without running it (for repeated execution).
    pub fn compile(&self, query: &str) -> Result<CoreProgram, Error> {
        parse(&self.env, query)
    }

    /// Statically check a query against this engine's bindings: undefined
    /// variables/functions, duplicate declarations, and the effect lints
    /// (see [`crate::check`]). Module functions count as declared.
    pub fn check(&self, query: &str) -> Result<Vec<crate::check::Diagnostic>, Error> {
        // Module functions participate exactly as program-level ones do.
        let program = self.compile(query)?;
        let host_vars: Vec<&str> = self.env.bindings().map(|(n, _)| n).collect();
        Ok(crate::check::check_program(
            &linked(&self.env, &program),
            &host_vars,
        ))
    }

    /// Serialize an item the way a query shell would: nodes as XML, atomics
    /// via their string value.
    pub fn serialize_item(&self, item: &Item) -> XdmResult<String> {
        match item {
            Item::Node(n) => xqdm::xml::serialize(&self.store, *n),
            Item::Atomic(a) => Ok(a.string_value()),
        }
    }

    /// Serialize a whole sequence, space-separating atomics.
    pub fn serialize(&self, seq: &[Item]) -> XdmResult<String> {
        let mut parts = Vec::with_capacity(seq.len());
        for it in seq {
            parts.push(self.serialize_item(it)?);
        }
        Ok(parts.join(" "))
    }

    /// A point-in-time snapshot of this engine's queryable state: the
    /// COW-forked store plus the environment — bindings, module functions
    /// and run policy (DESIGN.md §15, §19). Taking one costs O(pages) +
    /// two `Arc` bumps, not a deep copy; the snapshot is immutable and
    /// `Send + Sync`, so a server can publish it to concurrent readers.
    /// Must be called between runs (no open undo frame).
    pub fn snapshot_state(&self) -> EngineSnapshot {
        EngineSnapshot {
            store: self.store.snapshot(),
            env: self.env.clone(),
            snap_counter: self.snap_counter,
            plans: self.plans.clone(),
        }
    }

    /// Host this engine behind a multi-session [`Server`] (xqserve's
    /// core): concurrent snapshot-isolated reads, serialized durable
    /// writes, per-session admission control.
    pub fn into_server(self, config: ServerConfig) -> Server {
        Server::with_config(self, config)
    }

    /// A fresh evaluator + environment pair for `program`, as a run of it
    /// here would start with: this engine's module functions, bindings,
    /// policy and seed position. Every run goes through this; tests and
    /// tools use it for expression-level work.
    pub fn evaluator(&self, program: &CoreProgram) -> (Evaluator, DynEnv) {
        let ev = Evaluator::new(self.env.clone(), program).with_snap_counter(self.snap_counter);
        (ev, DynEnv::new())
    }
}

/// A frozen copy of an engine's queryable state, published by a server
/// after every commit (see [`Engine::snapshot_state`]). Readers fork
/// private engines from it with [`EngineSnapshot::reader`]; the shared
/// COW pages make both the snapshot and each fork cheap.
pub struct EngineSnapshot {
    store: Store,
    env: Arc<ProgramEnv>,
    snap_counter: u64,
    plans: Arc<SharedPlanCache>,
}

impl EngineSnapshot {
    /// Fork a private engine over this snapshot. The fork sees exactly
    /// the snapshotted store and environment — bindings, module functions,
    /// limits, and the slow-query threshold and trace sink too, so forked
    /// runs are logged like any other — shares the plan cache, and
    /// carries no WAL (reads are never durable events). Pure queries
    /// leave the forked store untouched; a constructing or mutating run
    /// only ever touches the fork's private pages, which are dropped with
    /// it.
    pub fn reader(&self) -> Engine {
        Engine::over(
            self.store.snapshot(),
            self.env.clone(),
            self.snap_counter,
            self.plans.clone(),
        )
    }

    /// The snapshotted store (for fingerprinting in isolation tests).
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// `query` prepared under the snapshotted environment, with the
    /// parameters its literals bind — the server's request path, with no
    /// engine lock.
    pub(crate) fn prepare(&self, query: &str) -> Result<(Arc<Prepared>, Vec<Atomic>), Error> {
        prepare(&self.env, &self.plans, query)
    }
}

/// `query` prepared under `env`, with the parameters its lifted literals
/// bind: the entry `plans` holds for the text's shape when it holds for
/// `env` (DESIGN.md §15), else a new one — parsed with its literals lifted
/// under `env`'s nesting limit, and classified — kept for the next text
/// of that shape. A text that fails to parse is not kept.
///
/// The classification is what a run of the program may do — body and
/// prolog initializers joined — with calls resolved as a run under `env`'s
/// module functions resolves them (DESIGN.md §9). The server routes on
/// this one value ([`Facts::snapshot_read`](crate::Facts::snapshot_read));
/// the walk visits only the
/// program's own expressions: what the functions it calls may do was
/// settled when they were declared.
fn prepare(
    env: &Arc<ProgramEnv>,
    plans: &SharedPlanCache,
    query: &str,
) -> Result<(Arc<Prepared>, Vec<Atomic>), Error> {
    let skeleton = Skeleton::of(query);
    if let Some(hit) = plans.prepared(&skeleton, env) {
        return Ok(hit);
    }
    let trace = env.trace.as_ref();
    let span = trace.map(|sink| sink.begin("parse", None));
    let parsed = xqsyn::compile_lifted(&skeleton, env.limits.max_parse_depth);
    if let (Some(sink), Some(id)) = (trace, span) {
        sink.end(id);
    }
    let program = parsed.map_err(parse_error)?;
    let lifted = xqsyn::lifted_slots(&program);
    let params = bound(&skeleton, &lifted)?;
    let read = Scope::new(env.clone(), &program)
        .effects()
        .program_facts(&program)
        .snapshot_read();
    let entry = Arc::new(Prepared::new(env, program, read));
    plans.insert_prepared(&skeleton, &lifted, entry.clone());
    Ok((entry, params))
}

/// The parameters `skeleton`'s text binds to the slots its parse
/// `lifted`. A parse that lifted a slot decoded its literal as binding
/// does, so this fails only if the two disagree.
fn bound(skeleton: &Skeleton, lifted: &[usize]) -> XdmResult<Vec<Atomic>> {
    skeleton
        .bind(lifted)
        .ok_or_else(|| xqdm::XdmError::precondition("a lifted literal that parsed does not bind"))
}

/// Parse `query` under `env`'s expression-nesting limit.
fn parse(env: &ProgramEnv, query: &str) -> Result<CoreProgram, Error> {
    xqsyn::compile_with_limit(query, env.limits.max_parse_depth).map_err(parse_error)
}

/// The plan-cache key of `program` under `env`: its fingerprint folded
/// with the module table's (so loading a module invalidates), both
/// computed when they were made, so deriving the key hashes nothing. No
/// store state enters it: a plan holds for every index state. A program
/// that shadows a module function differs from one that does not in its
/// own fingerprint, so the two never share an entry.
fn plan_key(env: &ProgramEnv, program: &CoreProgram) -> (u64, u64) {
    let (p1, p2) = planner::program_fingerprint(program);
    let (m1, m2) = env.fingerprint();
    (p1 ^ m1.rotate_left(1), p2 ^ m2.rotate_left(1))
}

/// A parser depth trip is a resource-governance event like any other:
/// every surface that turns a [`ParseError`] into an engine error — an
/// engine's own parses, a server session's — does it here.
fn parse_error(e: ParseError) -> Error {
    if limits::is_parse_depth_trip(&e) {
        obs::global().counter(CounterId::LimitDepth).add(1);
    }
    Error::Parse(e)
}

/// `program` closed under the module functions of `env` it can reach: what
/// the compiler and the checker are given.
fn linked(env: &Arc<ProgramEnv>, program: &CoreProgram) -> CoreProgram {
    Scope::new(env.clone(), program).link(program)
}

/// The plan a run of `query` under `env` against `store` would execute,
/// printed: parsed with its literals lifted under `env`'s nesting limit,
/// closed under the module functions it can reach, compiled, and rendered
/// with each lifted literal as the value the text binds to it and with
/// `,idx` marks when `store`'s index plane is on. [`Engine::explain`] and
/// the `xqb:explain` builtin are both this.
pub(crate) fn explain_query(
    env: &Arc<ProgramEnv>,
    store: &Store,
    query: &str,
) -> Result<String, ParseError> {
    let skeleton = Skeleton::of(query);
    let program = xqsyn::compile_lifted(&skeleton, env.limits.max_parse_depth)?;
    let params = bound(&skeleton, &xqsyn::lifted_slots(&program))
        .map_err(|e| ParseError::new(0, e.message))?;
    Ok(compile_program(&linked(env, &program)).explain(store, &params))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_simple_query() {
        let mut e = Engine::new();
        let r = e.run("1 + 2").unwrap();
        assert_eq!(r, vec![Item::integer(3)]);
    }

    #[test]
    fn compiles_with_nothing_installed() {
        // The engine owns its compiler: joins are recognized and analyzed
        // runs are compiled in a process that did nothing but `new()`.
        const JOIN: &str = "for $l in $doc/r/l/e for $r in $doc/r/r/e \
                            where $l/@k = $r/@k return <m/>";
        let mut e = Engine::new();
        e.load_document(
            "doc",
            "<r><l><e k=\"1\"/><e k=\"2\"/></l><r><e k=\"2\"/></r></r>",
        )
        .unwrap();
        assert!(e.explain(JOIN).unwrap().contains("Join"));
        let analyzed = e.explain_analyze(JOIN).unwrap();
        assert!(analyzed.contains("mode=compiled"), "{analyzed}");
        assert!(analyzed.contains("joins=1"), "{analyzed}");
        e.set_compile(false);
        let analyzed = e.explain_analyze(JOIN).unwrap();
        assert!(analyzed.contains("mode=interpreted"), "{analyzed}");
    }

    #[test]
    fn load_and_query_document() {
        let mut e = Engine::new();
        e.load_document(
            "doc",
            "<site><person id=\"p1\"><name>Ada</name></person></site>",
        )
        .unwrap();
        let r = e.run("$doc//person/name").unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(e.serialize(&r).unwrap(), "<name>Ada</name>");
    }

    #[test]
    fn parse_errors_are_reported() {
        let mut e = Engine::new();
        assert!(matches!(e.run("for $x in"), Err(Error::Parse(_))));
    }

    #[test]
    fn eval_errors_are_reported() {
        let mut e = Engine::new();
        assert!(matches!(e.run("$undefined"), Err(Error::Eval(_))));
        assert!(matches!(e.run("1 div 0"), Err(Error::Eval(_))));
    }

    #[test]
    fn bindings_shadow_and_persist() {
        let mut e = Engine::new();
        e.bind("x", seq![Item::integer(1)]);
        e.bind("x", seq![Item::integer(2)]);
        assert_eq!(e.run("$x + 1").unwrap(), vec![Item::integer(3)]);
    }

    #[test]
    fn updates_apply_at_query_end() {
        let mut e = Engine::new();
        e.load_document("doc", "<log/>").unwrap();
        e.run("insert { <entry/> } into { $doc/log }").unwrap();
        let r = e.run("count($doc/log/entry)").unwrap();
        assert_eq!(r, vec![Item::integer(1)]);
    }

    #[test]
    fn modules_register_persistent_functions_and_state() {
        let mut e = Engine::new();
        e.load_document("log", "<log/>").unwrap();
        e.load_module(
            r#"
declare variable $d := element counter { 0 };
declare function nextid() {
  snap { replace { $d/text() } with { $d + 1 }, $d }
};
declare function log_call($what) {
  snap insert { <call id="{nextid()}" what="{$what}"/> } into { $log/log }
};"#,
        )
        .unwrap();
        // Three separate queries share the module's counter state.
        for what in ["a", "b", "c"] {
            e.run(&format!("log_call(\"{what}\")")).unwrap();
        }
        let ids = e
            .run("for $c in $log/log/call return string($c/@id)")
            .unwrap();
        assert_eq!(e.serialize(&ids).unwrap(), "1 2 3");
    }

    #[test]
    fn program_functions_shadow_module_functions() {
        let mut e = Engine::new();
        e.load_module("declare function f() { \"module\" };")
            .unwrap();
        let r = e.run("f()").unwrap();
        assert_eq!(e.serialize(&r).unwrap(), "module");
        let r = e.run("declare function f() { \"local\" }; f()").unwrap();
        assert_eq!(e.serialize(&r).unwrap(), "local");
        // And the module version is still there afterwards.
        let r = e.run("f()").unwrap();
        assert_eq!(e.serialize(&r).unwrap(), "module");
    }

    #[test]
    fn module_variable_initializers_can_update() {
        let mut e = Engine::new();
        e.load_document("doc", "<x/>").unwrap();
        e.load_module("declare variable $setup := (insert { <ready/> } into { $doc/x }, 1);")
            .unwrap();
        // The module's implicit snap applied the insert at load time.
        let r = e.run("(count($doc/x/ready), $setup)").unwrap();
        assert_eq!(e.serialize(&r).unwrap(), "1 1");
    }

    #[test]
    fn same_engine_seed_reproduces_identical_stores() {
        // Nondeterministic snaps draw their permutation from the engine
        // seed plus a per-snap counter; two engines with the same seed
        // running the same query sequence must end in identical stores.
        let run_all = |seed: u64| -> String {
            let mut e = Engine::new().with_seed(seed);
            e.load_document("doc", "<x/>").unwrap();
            for _ in 0..4 {
                e.run(
                    "snap nondeterministic {
                       insert { <a/> } into { $doc/x },
                       insert { <b/> } into { $doc/x },
                       insert { <c/> } into { $doc/x } }",
                )
                .unwrap();
            }
            let doc = e.binding("doc").unwrap().clone();
            e.serialize(&doc).unwrap()
        };
        assert_eq!(run_all(7), run_all(7));
        assert_eq!(run_all(8), run_all(8));
    }

    #[test]
    fn snap_seeds_are_not_reused_across_runs() {
        // The per-snap counter persists across Engine::run calls, so the
        // same nondeterministic snap executed in successive runs draws
        // fresh permutations. With per-run counter reset (the old bug),
        // every run would replay one fixed order and this test would see a
        // single distinct outcome.
        let mut e = Engine::new().with_seed(42);
        e.load_document("doc", "<root/>").unwrap();
        let mut seen = std::collections::HashSet::new();
        for i in 0..32 {
            e.run(&format!("snap insert {{ <x{i}/> }} into {{ $doc/root }}"))
                .unwrap();
            e.run(&format!(
                "snap nondeterministic {{
                   insert {{ <a/> }} into {{ $doc/root/x{i} }},
                   insert {{ <b/> }} into {{ $doc/root/x{i} }} }}"
            ))
            .unwrap();
            let order = e
                .run(&format!("for $c in $doc/root/x{i}/* return name($c)"))
                .unwrap();
            seen.insert(e.serialize(&order).unwrap());
        }
        assert_eq!(
            seen.len(),
            2,
            "expected both application orders across runs, saw {seen:?}"
        );
    }

    #[test]
    fn stats_count_snaps_and_requests() {
        let mut e = Engine::new();
        e.load_document("doc", "<x/>").unwrap();
        e.run("1 + 1").unwrap();
        let s = e.last_stats().unwrap();
        assert_eq!(s.snaps_closed, 1); // the implicit top-level snap
        assert_eq!(s.requests_applied, 0);

        e.run(
            "(snap insert { <a/> } into { $doc/x },
              insert { <b/> } into { $doc/x },
              snap { insert { <c/> } into { $doc/x },
                     snap delete { $doc/x/a } })",
        )
        .unwrap();
        let s = e.last_stats().unwrap();
        assert_eq!(s.snaps_closed, 4); // implicit + 3 explicit
        assert_eq!(s.requests_applied, 4);
        assert_eq!(s.max_snap_depth, 3); // implicit > snap > snap delete
    }
}
