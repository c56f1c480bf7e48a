//! What the engine keeps around the compiler ([`crate::alg`]): program
//! fingerprints and the [`SharedPlanCache`] — plans by fingerprint, and in
//! front of them [`Prepared`] requests by query shape.
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
use xqdm::atomic::Atomic;
use xqsyn::{CoreProgram, Skeleton};

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

/// A query text made ready to run (DESIGN.md §15): its program, with its
/// string literals lifted into parameter slots, and whether it may run as
/// a snapshot read — what a request for a text of a shape the engine has
/// already seen would otherwise recompute. Its plan-cache key
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
    /// The parsed, normalized program, literals lifted.
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

/// The plan cache: thread-safe, with two tiers. Plans are keyed by
/// fingerprint; in front of them, [`Prepared`] requests are keyed by
/// query shape — the text's [`Skeleton`] and the texts of its pinned
/// slots (DESIGN.md §15) — so a text whose shape was seen before skips
/// parsing, classification and the fingerprint: it binds its lifted
/// literals and reaches its plan through the fingerprints its program
/// carries. Every engine holds one cache — its own until
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
    texts: Mutex<Shapes>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
}

/// The text tier: per skeleton text, its [`Shape`].
#[derive(Default)]
struct Shapes {
    by_skeleton: HashMap<Box<str>, Shape>,
    /// Entries across every shape.
    entries: usize,
}

/// The prepared programs of one skeleton: which of its slots the lifting
/// parse lifted, and the entry for each list of its pinned slots' texts.
struct Shape {
    lifted: Box<[usize]>,
    by_pinned: HashMap<Box<[Box<str>]>, Arc<Prepared>>,
}

impl Shape {
    /// The pinned share of `skeleton`'s key under this shape.
    fn key(&self, skeleton: &Skeleton) -> Box<[Box<str>]> {
        skeleton.pinned(&self.lifted).map(Box::from).collect()
    }
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

    /// The entry prepared for `skeleton`'s shape, if it holds for `env`,
    /// with the parameters `skeleton`'s text binds. Counts nothing: the
    /// plan lookup a run of the entry's program makes is the one
    /// [`SharedPlanCache::get`] counts, as without the entry. `None` too
    /// when a lifted literal does not decode: parsing the text reports it.
    pub(crate) fn prepared(
        &self,
        skeleton: &Skeleton,
        env: &Arc<ProgramEnv>,
    ) -> Option<(Arc<Prepared>, Vec<Atomic>)> {
        let texts = self.texts.lock().unwrap_or_else(|e| e.into_inner());
        let shape = texts.by_skeleton.get(skeleton.text())?;
        let entry = shape
            .by_pinned
            .get(&shape.key(skeleton))
            .filter(|entry| entry.holds_for(env))?;
        Some((entry.clone(), skeleton.bind(&shape.lifted)?))
    }

    /// The entry kept for `text`'s shape, whether or not it still holds.
    #[cfg(test)]
    pub(crate) fn text_entry(&self, text: &str) -> Option<Arc<Prepared>> {
        let skeleton = Skeleton::of(text);
        let texts = self.texts.lock().unwrap_or_else(|e| e.into_inner());
        let shape = texts.by_skeleton.get(skeleton.text())?;
        shape.by_pinned.get(&shape.key(&skeleton)).cloned()
    }

    /// Number of prepared texts, across every shape.
    #[cfg(test)]
    pub(crate) fn text_entries(&self) -> usize {
        self.texts.lock().unwrap_or_else(|e| e.into_inner()).entries
    }

    /// Keep `entry` for `skeleton`'s shape, whose program lifted the slots
    /// `lifted`, replacing a stale one; the same capacity rule as the
    /// plans, over entries of every shape. A text whose pinned slots
    /// parse so that other slots lift than its skeleton's first text
    /// lifted is not kept: its shape's key does not reach it.
    pub(crate) fn insert_prepared(
        &self,
        skeleton: &Skeleton,
        lifted: &[usize],
        entry: Arc<Prepared>,
    ) {
        let mut texts = self.texts.lock().unwrap_or_else(|e| e.into_inner());
        if texts.entries >= SHARED_PLAN_CACHE_CAP {
            *texts = Shapes::default();
        }
        let shape = texts
            .by_skeleton
            .entry(skeleton.text().into())
            .or_insert_with(|| Shape {
                lifted: lifted.into(),
                by_pinned: HashMap::new(),
            });
        if *shape.lifted != *lifted {
            return;
        }
        let key = shape.key(skeleton);
        if shape.by_pinned.insert(key, entry).is_none() {
            texts.entries += 1;
        }
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
