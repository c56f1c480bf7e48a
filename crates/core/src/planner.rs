//! The planner seam between the engine and the algebraic compiler.
//!
//! The optimizer lives in `xqalg`, which depends on this crate — so the
//! engine cannot name the compiler's types directly. Instead the engine
//! consumes the optimizer through the object-safe traits below, and the
//! facade crate installs `xqalg`'s implementation into the process-wide
//! registry at startup. When nothing is installed (e.g. `xqcore` used on
//! its own), the engine transparently falls back to pure interpretation.
//!
//! The contract every implementation must honor is the paper's: a compiled
//! program produces **the same value sequence, the same final store, and
//! the same Δ ordering per snap mode** as the interpreted program. The
//! compiler only changes complexity, never semantics — the differential
//! suite (`tests/differential.rs`) enforces this.

use crate::eval::Evaluator;
use std::sync::{Arc, OnceLock};
use xqdm::item::Sequence;
use xqdm::{Store, XdmResult};
use xqsyn::CoreProgram;

/// A program compiled to an executable plan. Execution drives the given
/// evaluator (its Δ-stack, snap-seed counter, globals, and statistics), so
/// compiled and interpreted subtrees share one store/Δ discipline.
pub trait CompiledProgram: Send + Sync {
    /// Run the plan: prolog variables first, then the body, inside the
    /// implicit top-level snap — the compiled counterpart of
    /// [`Evaluator::eval_program`].
    fn execute(&self, evaluator: &mut Evaluator, store: &mut Store) -> XdmResult<Sequence>;

    /// The paper-style plan printout with effect annotations.
    fn explain(&self) -> String;

    /// Did any rewrite fire anywhere in the program (body, prolog
    /// variable, or declared function)?
    fn is_optimized(&self) -> bool;

    /// The plan printout annotated with live per-node counters from an
    /// analyzed run (`Engine::explain_analyze`). The default — for
    /// implementations predating observability — falls back to the plain
    /// printout.
    fn explain_analyzed(&self, profile: &crate::obs::Profile) -> String {
        let _ = profile;
        self.explain()
    }

    /// Cross-check a captured profile against this plan's shape (node-id
    /// assignment, parent/child call and cardinality relations). Used by
    /// the obs-invariants suite; the default accepts anything.
    fn verify_profile(&self, profile: &crate::obs::Profile) -> Result<(), String> {
        let _ = profile;
        Ok(())
    }
}

/// Store facts the planner may exploit (but must degrade without): the
/// engine snapshots these from the target store at plan time, and folds
/// them into the plan-cache key so a plan is only ever reused against a
/// store state it was compiled for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanOptions {
    /// Is the store's secondary-index plane available? When true the
    /// compiler may emit `,idx` scan hints (ISSUE 10); when false every
    /// path chain lowers to the plain batch kernels.
    pub index_available: bool,
}

/// A plan compiler: turns a core program into an executable plan.
pub trait Planner: Send + Sync {
    /// Compile `program` (including its declared functions) to a plan
    /// under `opts`.
    fn plan(&self, program: &CoreProgram, opts: &PlanOptions) -> Arc<dyn CompiledProgram>;

    /// Compile `program` to a *structural* plan: the operator tree mirrors
    /// the interpreter's evaluation shape one-for-one (no join recognition,
    /// no rewrites), so an analyzed interpreted run reports per-node
    /// counters for exactly the operators interpretation would execute.
    fn plan_structural(&self, program: &CoreProgram) -> Arc<dyn CompiledProgram>;
}

/// Executes calls to user-declared functions whose bodies compiled to an
/// optimized plan. The evaluator consults this hook after built-in
/// dispatch and before falling back to interpreting the declaration.
pub trait FunctionExecutor: Send + Sync {
    /// Try to run `name(args)` as a compiled plan. Returns `Err(args)` —
    /// handing the (already evaluated) arguments back — when this executor
    /// has no plan for that function, so the caller can interpret it.
    fn try_call(
        &self,
        evaluator: &mut Evaluator,
        store: &mut Store,
        name: &str,
        args: Vec<Sequence>,
    ) -> Result<XdmResult<Sequence>, Vec<Sequence>>;
}

/// Fingerprint a program for the plan cache by streaming its debug
/// representation through two independently-seeded hashers — no
/// allocation of the full repr, and 128 bits make accidental collisions
/// (which would silently run the wrong plan) implausible. `Core` holds
/// `f64` literals, so it cannot derive `Hash` directly.
pub fn program_fingerprint(program: &CoreProgram) -> (u64, u64) {
    fingerprint_of(program)
}

/// [`program_fingerprint`] for any part of a program (the environment
/// fingerprints its module table with it).
pub(crate) fn fingerprint_of(value: &impl std::fmt::Debug) -> (u64, u64) {
    use std::collections::hash_map::DefaultHasher;
    use std::fmt::Write as _;
    use std::hash::Hasher as _;

    struct HashWriter<'a>(&'a mut DefaultHasher);
    impl std::fmt::Write for HashWriter<'_> {
        fn write_str(&mut self, s: &str) -> std::fmt::Result {
            self.0.write(s.as_bytes());
            Ok(())
        }
    }

    let mut h1 = DefaultHasher::new();
    let mut h2 = DefaultHasher::new();
    h2.write_u64(0x9e37_79b9_7f4a_7c15);
    let _ = write!(HashWriter(&mut h1), "{value:?}");
    let _ = write!(HashWriter(&mut h2), "{value:?}");
    (h1.finish(), h2.finish())
}

/// The most plans a [`SharedPlanCache`] keeps before it is wholesale
/// cleared. A query workload repeats a bounded set of programs; an
/// unbounded cache would leak under ad-hoc query streams.
pub const SHARED_PLAN_CACHE_CAP: usize = 256;

/// The plan cache: thread-safe and fingerprint-keyed. Every engine holds
/// one — its own until [`Engine::set_shared_plan_cache`](crate::Engine::set_shared_plan_cache)
/// installs another — and every fork of an engine holds its parent's, so
/// on a server the write path and each concurrent snapshot reader consult
/// the same map and a query planned by one session is a cache hit for
/// every other. Plans are immutable (`Arc<dyn CompiledProgram>`,
/// `Send + Sync`), so sharing them across threads is free of locking
/// beyond the map probe itself.
#[derive(Default)]
pub struct SharedPlanCache {
    plans: std::sync::Mutex<std::collections::HashMap<(u64, u64), Arc<dyn CompiledProgram>>>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl SharedPlanCache {
    /// A fresh, empty shared cache.
    pub fn new() -> Arc<SharedPlanCache> {
        Arc::new(SharedPlanCache::default())
    }

    /// The plan for `key`, counting a hit or a miss.
    pub fn get(&self, key: (u64, u64)) -> Option<Arc<dyn CompiledProgram>> {
        use std::sync::atomic::Ordering;
        let plans = self.plans.lock().unwrap_or_else(|e| e.into_inner());
        match plans.get(&key) {
            Some(plan) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(plan.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Install the plan for `key` (idempotent: concurrent planners of the
    /// same program insert identical plans; first wins).
    pub fn insert(&self, key: (u64, u64), plan: Arc<dyn CompiledProgram>) {
        let mut plans = self.plans.lock().unwrap_or_else(|e| e.into_inner());
        if plans.len() >= SHARED_PLAN_CACHE_CAP {
            plans.clear();
        }
        plans.entry(key).or_insert(plan);
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        use std::sync::atomic::Ordering;
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.plans.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

static DEFAULT_PLANNER: OnceLock<Arc<dyn Planner>> = OnceLock::new();

/// Install the process-wide default planner. The first installation wins;
/// later calls are no-ops (installation is idempotent by design — every
/// facade `Engine::new()` calls this).
pub fn install(planner: Arc<dyn Planner>) {
    let _ = DEFAULT_PLANNER.set(planner);
}

/// The installed default planner, if any.
pub fn default_planner() -> Option<Arc<dyn Planner>> {
    DEFAULT_PLANNER.get().cloned()
}

/// The fallback "plan" rendering used when no planner is installed: the
/// whole program is one `Iterate` under the implicit snap.
pub fn render_unoptimized(program: &CoreProgram) -> String {
    format!("Snap {{\n  Iterate {{ {} }}\n}}", program.body)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_unoptimized_shows_iterate_under_snap() {
        let program = xqsyn::compile("1 + 2").unwrap();
        let s = render_unoptimized(&program);
        assert!(s.starts_with("Snap {"));
        assert!(s.contains("Iterate"));
    }
}
