//! What the engine keeps around the compiler ([`crate::alg`]): the store
//! facts a plan may depend on ([`PlanOptions`]), program fingerprints, and
//! the [`SharedPlanCache`] — plans by fingerprint, and in front of them
//! [`Prepared`] requests by query text.
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
use xqdm::Store;
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

/// A query text made ready to run (DESIGN.md §15): the parsed program,
/// whether it may run as a snapshot read, and its plan-cache key — what a
/// request for a text the engine has already seen would otherwise
/// recompute. It holds for the program environment it was made under
/// and the store's index state then, and for nothing else
/// ([`Prepared::holds_for`]).
pub(crate) struct Prepared {
    /// The environment the text was parsed, classified and keyed under.
    /// A `Weak`: it keeps no superseded environment alive, yet its
    /// allocation cannot be reused while the entry lives, and an edit of
    /// an environment that only entries still point at moves it to a new
    /// allocation (`Arc::make_mut`) — so pointer equality means "the same
    /// environment, unedited".
    env: Weak<ProgramEnv>,
    /// The store's index availability and epoch the key was computed for.
    index: (bool, u64),
    /// The parsed, normalized program.
    pub(crate) program: CoreProgram,
    /// [`Facts::snapshot_read`](crate::Facts::snapshot_read) of the program
    /// under `env`: the server's routing.
    pub(crate) read: bool,
    /// The plan-cache key under `env` and `index`; `None` when `env`
    /// interprets (`set_compile(false)`).
    key: Option<(u64, u64)>,
}

impl Prepared {
    /// An entry for `program` as prepared under `env` against `store`.
    pub(crate) fn new(
        env: &Arc<ProgramEnv>,
        store: &Store,
        program: CoreProgram,
        read: bool,
        key: Option<(u64, u64)>,
    ) -> Prepared {
        Prepared {
            env: Arc::downgrade(env),
            index: index_state(store),
            program,
            read,
            key,
        }
    }

    /// Was this made under `env` for a store in `store`'s index state?
    /// Then its program, verdict and key are what preparing the text
    /// afresh would give.
    pub(crate) fn holds_for(&self, env: &Arc<ProgramEnv>, store: &Store) -> bool {
        std::ptr::eq(self.env.as_ptr(), Arc::as_ptr(env)) && self.index == index_state(store)
    }

    /// The plan-cache key, if this entry holds for `env` and `store` and
    /// was keyed (a run there would compute the same one).
    pub(crate) fn key_for(&self, env: &Arc<ProgramEnv>, store: &Store) -> Option<(u64, u64)> {
        self.key.filter(|_| self.holds_for(env, store))
    }
}

/// What of a store a plan key depends on: index availability and epoch.
fn index_state(store: &Store) -> (bool, u64) {
    (store.index_enabled(), store.index_epoch())
}

/// The plan cache: thread-safe, with two keys. Plans are keyed by
/// fingerprint; in front of them, [`Prepared`] requests are keyed by
/// query text, so a text seen before skips parsing, classification and
/// the fingerprint, and reaches its plan through the prepared key. Every
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

    /// The entry prepared for `text`, if it holds for `env` and `store`.
    /// Counts nothing: the plan lookup a run makes with the entry's key
    /// is the one [`SharedPlanCache::get`] counts, as without the entry.
    pub(crate) fn prepared(
        &self,
        text: &str,
        env: &Arc<ProgramEnv>,
        store: &Store,
    ) -> Option<Arc<Prepared>> {
        let texts = self.texts.lock().unwrap_or_else(|e| e.into_inner());
        texts
            .get(text)
            .filter(|entry| entry.holds_for(env, store))
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
