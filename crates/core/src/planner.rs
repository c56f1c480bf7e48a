//! What the engine keeps around the compiler ([`crate::alg`]): the store
//! facts a plan may depend on ([`PlanOptions`]), program fingerprints, and
//! the fingerprint-keyed [`SharedPlanCache`].
//!
//! The contract every plan must honor is the paper's: a compiled program
//! produces **the same value sequence, the same final store, and the same
//! Δ ordering per snap mode** as the interpreted program. The compiler
//! only changes complexity, never semantics — the differential suite
//! (`tests/differential.rs`) enforces this.

use crate::alg::PlannedProgram;
use crate::obs::{self, CounterId};
use std::sync::Arc;
use xqsyn::CoreProgram;

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
/// every other. Plans are immutable (`Arc<PlannedProgram>`,
/// `Send + Sync`), so sharing them across threads is free of locking
/// beyond the map probe itself.
#[derive(Default)]
pub struct SharedPlanCache {
    plans: std::sync::Mutex<std::collections::HashMap<(u64, u64), Arc<PlannedProgram>>>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

impl SharedPlanCache {
    /// A fresh, empty shared cache.
    pub fn new() -> Arc<SharedPlanCache> {
        Arc::new(SharedPlanCache::default())
    }

    /// The plan for `key`, counting a hit or a miss — here and nowhere
    /// else: in this cache's own [`SharedPlanCache::stats`] and in the
    /// process-wide `engine.cache_hits` / `engine.cache_misses`.
    pub fn get(&self, key: (u64, u64)) -> Option<Arc<PlannedProgram>> {
        use std::sync::atomic::Ordering;
        let plans = self.plans.lock().unwrap_or_else(|e| e.into_inner());
        let plan = plans.get(&key).cloned();
        let (own, global) = match plan {
            Some(_) => (&self.hits, CounterId::CacheHits),
            None => (&self.misses, CounterId::CacheMisses),
        };
        own.fetch_add(1, Ordering::Relaxed);
        obs::global().counter(global).add(1);
        plan
    }

    /// Install the plan for `key` (idempotent: concurrent planners of the
    /// same program insert identical plans; first wins).
    pub fn insert(&self, key: (u64, u64), plan: Arc<PlannedProgram>) {
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
