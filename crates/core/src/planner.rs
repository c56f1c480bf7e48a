//! What the engine keeps around the compiler ([`crate::alg`]): program
//! fingerprints and the [`SharedPlanCache`] — plans by fingerprint, and in
//! front of them [`Prepared`] requests by query text.
//!
//! A plan, and so its cache key, depends only on the program and the
//! module functions it can reach: no store state. Whether a batch step is
//! read from the store's index plane is the executor's choice, made per
//! scan (docs/INDEXES.md, gate 1), so toggling indexing invalidates
//! nothing here.
//!
//! The contract every plan must honor is the paper's: a compiled program
//! produces **the same value sequence, the same final store, and the same
//! Δ ordering per snap mode** as the interpreted program. The compiler
//! only changes complexity, never semantics — the differential suite
//! (`tests/differential.rs`) enforces this.

use crate::alg::PlannedProgram;
use crate::env::ProgramEnv;
use crate::obs::{self, CounterId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, Weak};
use xqsyn::CoreProgram;

/// Options of [`compile_program_opts`](crate::alg::pipeline::compile_program_opts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanOptions {
    /// Accepted and ignored: index use is decided per scan from the
    /// store's `index_enabled()`, so no plan depends on it. The field
    /// stays so callers that set it build.
    pub index_available: bool,
}

/// A program's share of its plan-cache key: the fingerprint computed once
/// when the program was made ([`CoreProgram::fingerprint`]), so keying a
/// program run many times hashes nothing.
pub fn program_fingerprint(program: &CoreProgram) -> (u64, u64) {
    program.fingerprint()
}

/// The most plans a [`SharedPlanCache`] keeps before it is wholesale
/// cleared, and likewise the most prepared texts. A query workload repeats
/// a bounded set of programs; an unbounded cache would leak under ad-hoc
/// query streams.
pub const SHARED_PLAN_CACHE_CAP: usize = 256;

/// A query text made ready to run (DESIGN.md §15): the parsed program and
/// whether it may run as a snapshot read — what a request for a text the
/// engine has already seen would otherwise recompute. Its plan-cache key
/// is derived at lookup from the two fingerprints already stored (the
/// program's and the module table's). It holds for the program
/// environment it was made under, and for nothing else
/// ([`Prepared::holds_for`]).
pub(crate) struct Prepared {
    /// The environment the text was parsed and classified under.
    /// A `Weak`: it keeps no superseded environment alive, yet its
    /// allocation cannot be reused while the entry lives, and an edit of
    /// an environment that only entries still point at moves it to a new
    /// allocation (`Arc::make_mut`) — so pointer equality means "the same
    /// environment, unedited".
    env: Weak<ProgramEnv>,
    /// The parsed, normalized program.
    pub(crate) program: CoreProgram,
    /// [`Facts::snapshot_read`](crate::Facts::snapshot_read) of the program
    /// under `env`: the server's routing.
    pub(crate) read: bool,
}

impl Prepared {
    /// An entry for `program` as prepared under `env`.
    pub(crate) fn new(env: &Arc<ProgramEnv>, program: CoreProgram, read: bool) -> Prepared {
        Prepared {
            env: Arc::downgrade(env),
            program,
            read,
        }
    }

    /// Was this made under `env`? Then its program and verdict are what
    /// preparing the text afresh would give.
    pub(crate) fn holds_for(&self, env: &Arc<ProgramEnv>) -> bool {
        std::ptr::eq(self.env.as_ptr(), Arc::as_ptr(env))
    }
}

/// The plan cache: thread-safe, with two keys. Plans are keyed by
/// fingerprint; in front of them, [`Prepared`] requests are keyed by
/// query text, so a text seen before skips parsing and classification,
/// and reaches its plan through the fingerprints its program carries. Every
/// engine holds one cache — its own until
/// [`Engine::set_shared_plan_cache`](crate::Engine::set_shared_plan_cache)
/// installs another — and every fork of an engine holds its parent's, so
/// on a server the write path and each concurrent snapshot reader consult
/// the same maps and a query prepared and planned by one session is a hit
/// for every other. Entries are immutable (`Arc`, `Send + Sync`), so
/// sharing them across threads is free of locking beyond the map probe
/// itself.
#[derive(Default)]
pub struct SharedPlanCache {
    plans: Mutex<HashMap<(u64, u64), Arc<PlannedProgram>>>,
    texts: Mutex<HashMap<Box<str>, Arc<Prepared>>>,
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

    /// The entry prepared for `text`, if it holds for `env`. Counts
    /// nothing: the plan lookup a run of the entry's program makes is the
    /// one [`SharedPlanCache::get`] counts, as without the entry.
    pub(crate) fn prepared(&self, text: &str, env: &Arc<ProgramEnv>) -> Option<Arc<Prepared>> {
        let texts = self.texts.lock().unwrap_or_else(|e| e.into_inner());
        texts
            .get(text)
            .filter(|entry| entry.holds_for(env))
            .cloned()
    }

    /// The entry kept for `text`, whether or not it still holds.
    #[cfg(test)]
    pub(crate) fn text_entry(&self, text: &str) -> Option<Arc<Prepared>> {
        let texts = self.texts.lock().unwrap_or_else(|e| e.into_inner());
        texts.get(text).cloned()
    }

    /// Keep `entry` for `text`, replacing a stale one; the same capacity
    /// rule as the plans.
    pub(crate) fn insert_prepared(&self, text: &str, entry: Arc<Prepared>) {
        let mut texts = self.texts.lock().unwrap_or_else(|e| e.into_inner());
        if texts.len() >= SHARED_PLAN_CACHE_CAP {
            texts.clear();
        }
        texts.insert(text.into(), entry);
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        use std::sync::atomic::Ordering;
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Number of cached plans (prepared texts not included).
    pub fn len(&self) -> usize {
        self.plans.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
