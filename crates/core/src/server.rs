//! The multi-session server core (DESIGN.md §15, §16): one durable
//! engine, many concurrent sessions, snapshot-isolated reads, optimistic
//! concurrent writers.
//!
//! The concurrency contract:
//!
//! * **Writes validate, then serialize only their commit.** A writer
//!   evaluates against a private fork of its pinned base epoch while
//!   recording its Δ — redo ops plus read/write footprints
//!   ([`xqdm::CapturedDelta`], the paper's conflict-detection snap
//!   semantics lifted across transactions, DESIGN.md §16). At commit the
//!   detector checks the Δ's *read* footprint against the *write*
//!   footprint of every Δ committed since the base epoch: non-conflicting
//!   Δs rebase onto the live engine and commit through the WAL (log order
//!   still equals epoch order); conflicting Δs retry from a fresh
//!   snapshot, bounded by [`ServerConfig::max_retries`], then abort with
//!   the retryable `XQB0052` — or are waived by the
//!   [`ConflictPolicy::LastWriterWins`] reducer when only name/value
//!   aspects collide. Only the validate+rebase step holds the engine
//!   mutex, so write *evaluation* scales with sessions. Programs the
//!   footprint machinery cannot vouch for — those that can reach a
//!   nondeterministic or conflict-detection snap or a par-opaque builtin
//!   ([`Facts::occ_safe`](crate::Facts::occ_safe), the same static
//!   judgment that routed the request) — fall back to the fully
//!   serialized pessimistic path, as does the whole server when
//!   [`ServerConfig::occ_writers`] is off.
//! * **Reads run concurrently.** A query the PR-3 effect judgment rates
//!   `Pure` or `Alloc` ([`Facts::snapshot_read`](crate::Facts::snapshot_read):
//!   it emits and applies no update request, though it may construct
//!   nodes) pins the latest epoch and executes against a private fork of
//!   that snapshot — it never
//!   takes the engine lock, commits landing meanwhile cannot move the
//!   data under it, and whatever it allocated is dropped with the fork.
//!   The pin is released when the request finishes; superseded epochs
//!   retire as soon as their last pin drops.
//! * **Admission is bounded.** Opening a session past `max_sessions` is
//!   rejected with `XQB0050`; a request past `max_inflight` concurrent
//!   requests is rejected with `XQB0051` (backpressure — the client
//!   retries, the server never queues unboundedly).
//!
//! Sessions share one fingerprint-keyed [`SharedPlanCache`] — installed in
//! the hosted engine, inherited by every snapshot and fork of it — so a
//! query planned by any session is a plan-cache hit for every other. They
//! also share the engine's one [`ProgramEnv`](crate::env::ProgramEnv) —
//! the server has no resource policy of its own: a request is parsed and a
//! fork runs under the hosted engine's limits, thread budget, slow-query
//! threshold and trace sink, exactly as the writer does. Request
//! accounting lands in the global metrics registry under `server.*`
//! (counters, gauges, latency histograms); [`Server::stats`] reads them
//! back as one struct.

use crate::engine::{Engine, EngineSnapshot, Error};
use crate::obs::{self, CounterId, GaugeId, HistogramId};
use crate::planner::SharedPlanCache;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use xqdm::footprint::aspect;
use xqdm::{Footprint, VersionSet, XdmError};

/// Session-limit rejection: `open_session` past `max_sessions`.
pub const ERR_SESSIONS: &str = "XQB0050";
/// Backpressure rejection: a request past `max_inflight`.
pub const ERR_BACKPRESSURE: &str = "XQB0051";
/// Commit-conflict rejection (retryable): the Δ's footprint intersected
/// a commit since its base epoch and bounded retry was exhausted.
pub const ERR_CONFLICT: &str = "XQB0052";

/// What to do when a Δ's read footprint intersects a committed write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConflictPolicy {
    /// Retry from a fresh snapshot; abort with `XQB0052` once
    /// [`ServerConfig::max_retries`] is exhausted.
    #[default]
    Abort,
    /// Waive conflicts confined to name/value aspects (rename, text and
    /// attribute-value sets): the later committer's values win, exactly
    /// as if its transaction had run second serially. Structural
    /// conflicts (children/attribute lists, parent links) still retry —
    /// blind last-writer-wins on tree shape would lose subtrees.
    LastWriterWins,
}

impl ConflictPolicy {
    /// Parse a wire/flag token (`abort` / `lww` / `last-writer-wins`).
    pub fn parse(s: &str) -> Option<ConflictPolicy> {
        match s {
            "abort" => Some(ConflictPolicy::Abort),
            "lww" | "last-writer-wins" => Some(ConflictPolicy::LastWriterWins),
            _ => None,
        }
    }

    /// Wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            ConflictPolicy::Abort => "abort",
            ConflictPolicy::LastWriterWins => "lww",
        }
    }
}

/// Server admission and commit policy. Resource policy (limits, thread
/// budget) is the hosted engine's: set it there before
/// [`Engine::into_server`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Most sessions open at once (`XQB0050` beyond).
    pub max_sessions: usize,
    /// Most requests in flight at once across all sessions (`XQB0051`
    /// beyond).
    pub max_inflight: usize,
    /// Optimistic concurrent writers (DESIGN.md §16). Off: every write
    /// serializes its whole evaluation under the engine mutex (PR-8
    /// behavior).
    pub occ_writers: bool,
    /// Conflict resolution for optimistic commits.
    pub conflict_policy: ConflictPolicy,
    /// Conflicting commits retry from a fresh snapshot this many times
    /// before aborting with `XQB0052`.
    pub max_retries: usize,
    /// Committed write footprints retained for validation. A base epoch
    /// older than the ring's coverage forces a retry (indistinguishable
    /// from a conflict), so this bounds validator memory, not
    /// correctness. [`Server::commit_log`] retains as many records.
    pub footprint_ring: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 64,
            max_inflight: 32,
            occ_writers: true,
            conflict_policy: ConflictPolicy::default(),
            max_retries: 8,
            footprint_ring: 1024,
        }
    }
}

/// How a request was routed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Proven to request no update (`Pure` or `Alloc`): ran against a
    /// pinned snapshot, engine lock untouched, nothing committed.
    Read,
    /// May emit or apply updates: committed through the engine mutex + WAL.
    Write,
}

impl RequestKind {
    /// Wire token (`read` / `write`).
    pub fn as_str(self) -> &'static str {
        match self {
            RequestKind::Read => "read",
            RequestKind::Write => "write",
        }
    }
}

/// A successful request's result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Read or write routing.
    pub kind: RequestKind,
    /// For reads: the pinned epoch the query saw. For writes: the epoch
    /// this commit published.
    pub epoch: u64,
    /// The serialized result sequence.
    pub body: String,
}

/// One committed write, in commit order — the replay script for the
/// differential concurrency suite: running every record's `query` against
/// a fresh copy of the initial store must reproduce each `body` and each
/// epoch's fingerprint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitRecord {
    /// The epoch this commit published.
    pub epoch: u64,
    /// The session that issued it.
    pub session: u64,
    /// The query text.
    pub query: String,
    /// Serialized result (`Ok`) or error code (`Err`). Errored runs are
    /// commits too: snaps closed before the error are kept (§2.3), so
    /// replay must include them.
    pub body: Result<String, String>,
    /// Store fingerprint right after this commit.
    pub fingerprint: u64,
}

/// Count one `server.*` event.
fn count(id: CounterId) {
    obs::global().counter(id).add(1);
}

/// Publish a `server.*` level.
fn level(id: GaugeId, value: usize) {
    obs::global().gauge(id).set(value as i64);
}

/// Record the time since `started` in a `server.*` latency histogram.
fn timing(id: HistogramId, started: Instant) {
    obs::global().histogram(id).record(obs::elapsed_ns(started));
}

/// The committed-write-footprint ring: one `(epoch, write footprint)`
/// entry per published epoch, contiguous, trimmed to
/// [`ServerConfig::footprint_ring`] entries. Pushed under the engine
/// mutex, so entry order is epoch order.
struct FootprintRing {
    entries: Vec<(u64, Footprint)>,
    cap: usize,
}

impl FootprintRing {
    fn new(cap: usize) -> FootprintRing {
        FootprintRing {
            entries: Vec::new(),
            cap: cap.max(1),
        }
    }

    fn push(&mut self, epoch: u64, writes: Footprint) {
        self.entries.push((epoch, writes));
        if self.entries.len() > self.cap {
            let excess = self.entries.len() - self.cap;
            self.entries.drain(..excess);
        }
    }

    /// Validate a Δ built against `base_epoch`: `Ok(())` when it may
    /// rebase, `Err(aspects)` with the first colliding aspect mask when
    /// it conflicts. A base older than the ring's coverage is
    /// indistinguishable from a conflict (the missing footprints might
    /// have collided), so it conflicts on every aspect.
    fn validate(&self, base_epoch: u64, delta: &xqdm::CapturedDelta) -> Result<(), u8> {
        let since: Vec<&(u64, Footprint)> = self
            .entries
            .iter()
            .filter(|(e, _)| *e > base_epoch)
            .collect();
        if since.is_empty() {
            return Ok(());
        }
        // Every epoch in (base, latest] must be present: entries are
        // contiguous, so it suffices that the oldest retained entry is
        // no newer than base+1.
        if self.entries.first().map(|(e, _)| *e) > Some(base_epoch + 1) {
            return Err(aspect::ALL);
        }
        // A Δ with a whole-store write effect (explicit gc) cannot prove
        // it commutes with anything committed meanwhile.
        if delta.writes().is_global() {
            return Err(aspect::ALL);
        }
        for (_, writes) in since {
            let bits = delta.reads().conflict_aspects(writes);
            if bits != 0 {
                return Err(bits);
            }
        }
        Ok(())
    }
}

struct Inner {
    /// The writer path: validation + rebase (or, for pessimistic runs,
    /// the whole evaluation) serializes here.
    engine: Mutex<Engine>,
    /// Published snapshots; readers pin, writers publish.
    versions: VersionSet<EngineSnapshot>,
    /// Committed write footprints, for OCC validation. Locked only while
    /// the engine mutex is held (commit) or for a read-only scan
    /// (validation), never the other way around.
    ring: Mutex<FootprintRing>,
    /// The cross-session plan cache (the one installed into `engine`).
    cache: Arc<SharedPlanCache>,
    config: ServerConfig,
    sessions: AtomicUsize,
    next_session: AtomicU64,
    inflight: AtomicUsize,
    /// The most recent `footprint_ring` commits, oldest first.
    commits: Mutex<VecDeque<CommitRecord>>,
}

/// The server handle. Cheap to clone (an `Arc`); clones share the
/// engine, the version chain, the plan cache, and the admission state.
#[derive(Clone)]
pub struct Server {
    inner: Arc<Inner>,
}

impl Server {
    /// Host `engine` (documents loaded, modules registered, store opened)
    /// behind the default [`ServerConfig`].
    pub fn new(engine: Engine) -> Server {
        Server::with_config(engine, ServerConfig::default())
    }

    /// Host `engine` behind `config`. Only the engine's plan cache is
    /// replaced (by the cross-session one); its whole environment —
    /// limits, thread budget, modules, bindings, slow-query threshold,
    /// trace sink — is kept, and the writer path and every reader fork
    /// share it.
    pub fn with_config(mut engine: Engine, config: ServerConfig) -> Server {
        let cache = SharedPlanCache::new();
        engine.set_shared_plan_cache(cache.clone());
        // The live engine captures the write footprint of every commit
        // (no read tracing — only forks validate reads), feeding the
        // validation ring for both commit paths.
        engine.begin_capture(false);
        let versions = VersionSet::new(engine.snapshot_state());
        Server {
            inner: Arc::new(Inner {
                engine: Mutex::new(engine),
                versions,
                ring: Mutex::new(FootprintRing::new(config.footprint_ring)),
                cache,
                config,
                sessions: AtomicUsize::new(0),
                next_session: AtomicU64::new(1),
                inflight: AtomicUsize::new(0),
                commits: Mutex::new(VecDeque::new()),
            }),
        }
    }

    /// Open a session, or reject with `XQB0050` when `max_sessions` are
    /// already open. The slot frees when the returned [`Session`] drops.
    pub fn open_session(&self) -> Result<Session, Error> {
        let inner = &self.inner;
        let prev = inner.sessions.fetch_add(1, Ordering::SeqCst);
        if prev >= inner.config.max_sessions {
            inner.sessions.fetch_sub(1, Ordering::SeqCst);
            count(CounterId::ServerRejectedSessions);
            return Err(Error::Eval(XdmError::new(
                ERR_SESSIONS,
                format!(
                    "session limit reached ({} open); retry after a session closes",
                    inner.config.max_sessions
                ),
            )));
        }
        level(GaugeId::ServerSessions, prev + 1);
        Ok(Session {
            inner: inner.clone(),
            id: inner.next_session.fetch_add(1, Ordering::Relaxed),
        })
    }

    /// The latest published epoch (0 until the first commit).
    pub fn epoch(&self) -> u64 {
        self.inner.versions.latest_epoch()
    }

    /// Store fingerprint of the latest published snapshot.
    pub fn fingerprint(&self) -> u64 {
        self.inner.versions.pin_latest().store().fingerprint()
    }

    /// The most recent commits, in commit (= epoch) order: at most
    /// [`ServerConfig::footprint_ring`] records (1 024 by default) — the
    /// retention the validator already keeps — so a long-lived server
    /// does not hold every write's query text and response forever. A
    /// replay that wants the whole history must read it before that many
    /// commits have landed.
    pub fn commit_log(&self) -> Vec<CommitRecord> {
        let commits = self.inner.commits.lock().unwrap_or_else(|e| e.into_inner());
        commits.iter().cloned().collect()
    }

    /// The cross-session plan cache.
    pub fn plan_cache(&self) -> &Arc<SharedPlanCache> {
        &self.inner.cache
    }

    /// The admission policy in force.
    pub fn config(&self) -> &ServerConfig {
        &self.inner.config
    }

    /// Run `f` under the writer lock — host-side setup (loading extra
    /// documents, registering modules) after the server exists. Publishes
    /// a new epoch afterwards, since `f` may have changed the store.
    pub fn with_engine<R>(&self, f: impl FnOnce(&mut Engine) -> R) -> R {
        let mut engine = self.inner.engine.lock().unwrap_or_else(|e| e.into_inner());
        let r = f(&mut engine);
        // Host-side setup can change anything — bindings and module
        // functions included, which footprints don't cover — so its ring
        // entry is globally conflicting: every Δ in flight across it
        // revalidates from a fresh snapshot.
        let mut writes = engine.take_write_footprint().unwrap_or_default();
        writes.set_global();
        let epoch = self.inner.versions.publish(engine.snapshot_state());
        self.inner
            .ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(epoch, writes);
        r
    }

    /// A point-in-time view of the server's `server.*` metrics plus the
    /// shared-cache and version-chain state.
    pub fn stats(&self) -> ServerStats {
        let inner = &self.inner;
        let m = obs::global();
        let counted = |id| m.counter(id).get();
        let quantile = |id, q| m.histogram(id).quantile(q);
        let (cache_hits, cache_misses) = inner.cache.stats();
        ServerStats {
            epoch: inner.versions.latest_epoch(),
            sessions: inner.sessions.load(Ordering::SeqCst),
            inflight: inner.inflight.load(Ordering::SeqCst),
            snapshot_pins: inner.versions.pinned(),
            versions_retained: inner.versions.retained(),
            versions_retired: inner.versions.retired(),
            reads: counted(CounterId::ServerReads),
            writes: counted(CounterId::ServerWrites),
            errors: counted(CounterId::ServerErrors),
            rejected_sessions: counted(CounterId::ServerRejectedSessions),
            rejected_backpressure: counted(CounterId::ServerRejectedBackpressure),
            conflicts: counted(CounterId::ServerConflicts),
            retries: counted(CounterId::ServerRetries),
            cache_hits,
            cache_misses,
            read_p50_ns: quantile(HistogramId::ServerReadNs, 0.50),
            read_p99_ns: quantile(HistogramId::ServerReadNs, 0.99),
            write_p50_ns: quantile(HistogramId::ServerWriteNs, 0.50),
            write_p99_ns: quantile(HistogramId::ServerWriteNs, 0.99),
        }
    }
}

/// A point-in-time server status report ([`Server::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerStats {
    /// Latest published epoch.
    pub epoch: u64,
    /// Sessions currently open.
    pub sessions: usize,
    /// Requests currently in flight.
    pub inflight: usize,
    /// Snapshot pins currently held by in-flight reads.
    pub snapshot_pins: usize,
    /// Versions currently retained (latest + pinned ancestors).
    pub versions_retained: usize,
    /// Versions retired since startup.
    pub versions_retired: u64,
    /// Read requests served.
    pub reads: u64,
    /// Write requests served.
    pub writes: u64,
    /// Requests that returned an evaluation error.
    pub errors: u64,
    /// `XQB0050` session-limit rejections.
    pub rejected_sessions: u64,
    /// `XQB0051` backpressure rejections.
    pub rejected_backpressure: u64,
    /// Optimistic commits that failed validation (each is retried or
    /// aborted with `XQB0052`).
    pub conflicts: u64,
    /// Automatic conflict retries performed.
    pub retries: u64,
    /// Shared plan-cache hits across all sessions.
    pub cache_hits: u64,
    /// Shared plan-cache misses across all sessions.
    pub cache_misses: u64,
    /// Read-latency p50 (log₂-bucket estimate, nanoseconds).
    pub read_p50_ns: u64,
    /// Read-latency p99.
    pub read_p99_ns: u64,
    /// Write-latency p50.
    pub write_p50_ns: u64,
    /// Write-latency p99.
    pub write_p99_ns: u64,
}

impl ServerStats {
    /// One JSON object, for the wire protocol's `STATS` reply.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"epoch\":{},\"sessions\":{},\"inflight\":{},\"snapshot_pins\":{},\
             \"versions_retained\":{},\"versions_retired\":{},\
             \"reads\":{},\"writes\":{},\"errors\":{},\
             \"rejected_sessions\":{},\"rejected_backpressure\":{},\
             \"conflicts\":{},\"retries\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\
             \"read_p50_ns\":{},\"read_p99_ns\":{},\
             \"write_p50_ns\":{},\"write_p99_ns\":{}}}",
            self.epoch,
            self.sessions,
            self.inflight,
            self.snapshot_pins,
            self.versions_retained,
            self.versions_retired,
            self.reads,
            self.writes,
            self.errors,
            self.rejected_sessions,
            self.rejected_backpressure,
            self.conflicts,
            self.retries,
            self.cache_hits,
            self.cache_misses,
            self.read_p50_ns,
            self.read_p99_ns,
            self.write_p50_ns,
            self.write_p99_ns,
        )
    }
}

/// One client session. `Send` — a connection handler owns it on its own
/// thread. Dropping it frees the admission slot.
pub struct Session {
    inner: Arc<Inner>,
    id: u64,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session").field("id", &self.id).finish()
    }
}

impl Session {
    /// This session's id (1-based, unique per server).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Parse, route, and run one query.
    ///
    /// Routing: a query whose body and prolog initializers provably
    /// request no update — node construction included, allocation alone
    /// is not a commit — executes as a [`RequestKind::Read`] against the
    /// pinned latest snapshot, concurrently with other reads and with the
    /// writer. Anything else executes as a [`RequestKind::Write`] and
    /// publishes a new epoch — even when it returns an error, since snaps
    /// closed before an error are commitment (§2.3).
    pub fn execute(&self, query: &str) -> Result<Response, Error> {
        let inner = &self.inner;
        let _slot = InflightSlot::admit(inner)?;
        let note_pins = || level(GaugeId::ServerSnapshotPins, inner.versions.pinned());
        // Parse and classify against the latest snapshot's environment —
        // its nesting limit, its module functions — with no engine lock.
        // A commit between classification and execution is harmless: the
        // facts depend only on the function bodies, and module
        // registration goes through `with_engine` (the writer).
        let pin = inner.versions.pin_latest();
        note_pins();
        let classified = pin.compile(query).map(|program| {
            let facts = pin.facts(&program);
            (program, facts)
        });
        if let Ok((program, facts)) = &classified {
            if facts.snapshot_read() {
                let response = self.execute_read(&pin, program);
                drop(pin);
                note_pins();
                return response;
            }
        }
        // A writer pins afresh for every attempt.
        drop(pin);
        note_pins();
        let (program, facts) = classified?;
        let optimistic = inner.config.occ_writers && facts.occ_safe();
        self.execute_write(query, &program, optimistic)
    }

    fn execute_read(
        &self,
        pin: &xqdm::Pinned<EngineSnapshot>,
        program: &xqsyn::CoreProgram,
    ) -> Result<Response, Error> {
        let mut reader = pin.reader();
        let started = Instant::now();
        let result = reader.run_program(program);
        timing(HistogramId::ServerReadNs, started);
        count(CounterId::ServerReads);
        match result {
            Ok(value) => {
                let body = reader.serialize(&value).map_err(Error::Eval)?;
                Ok(Response {
                    kind: RequestKind::Read,
                    epoch: pin.epoch(),
                    body,
                })
            }
            Err(e) => {
                count(CounterId::ServerErrors);
                Err(Error::Eval(e))
            }
        }
    }

    /// The writer path. `optimistic` (OCC on and an OCC-safe program, as
    /// [`Session::execute`] judged once): evaluate on a forked snapshot,
    /// validate the Δ's footprint, rebase under the engine lock; retry on
    /// conflict up to `max_retries`, then abort with `XQB0052`. Everything
    /// else serializes its whole evaluation.
    fn execute_write(
        &self,
        query: &str,
        program: &xqsyn::CoreProgram,
        optimistic: bool,
    ) -> Result<Response, Error> {
        let inner = &self.inner;
        let started = Instant::now();
        count(CounterId::ServerWrites);
        let mut retries = 0usize;
        let outcome = loop {
            if !optimistic {
                break self.commit_pessimistic(query, program);
            }
            let pin = inner.versions.pin_latest();
            match self.try_commit_optimistic(query, program, &pin) {
                Ok(done) => break done,
                Err(_conflict_aspects) => {
                    count(CounterId::ServerConflicts);
                    if retries >= inner.config.max_retries {
                        break Err(Error::Eval(XdmError::new(
                            ERR_CONFLICT,
                            format!(
                                "commit conflict: Δ footprint intersects a commit since \
                                 epoch {} ({} retries exhausted); retry the query",
                                pin.epoch(),
                                retries
                            ),
                        )));
                    }
                    retries += 1;
                    count(CounterId::ServerRetries);
                    // Exponential backoff before re-evaluating: under hot
                    // contention every loser retries at once, and the next
                    // commit re-conflicts them all (thundering herd); the
                    // spread lets one writer land per window.
                    let exp = u32::try_from(retries.min(6)).unwrap_or(6);
                    std::thread::sleep(std::time::Duration::from_micros(100 << exp));
                }
            }
        };
        timing(HistogramId::ServerWriteNs, started);
        if outcome.is_err() {
            count(CounterId::ServerErrors);
        }
        outcome
    }

    /// One optimistic attempt. `Ok` carries the request's final outcome
    /// (including evaluation errors — those commit their closed snaps and
    /// do not retry); `Err` carries the conflicting aspect mask and means
    /// "evaluate again from a fresh snapshot".
    fn try_commit_optimistic(
        &self,
        query: &str,
        program: &xqsyn::CoreProgram,
        pin: &xqdm::Pinned<EngineSnapshot>,
    ) -> Result<Result<Response, Error>, u8> {
        let inner = &self.inner;
        let base_epoch = pin.epoch();
        let mut fork = pin.reader();
        fork.begin_capture(true);
        let result = fork.run_program(program);
        // Serialize on the fork, *before* draining the capture: the
        // response body is evaluator-visible output, so the reads that
        // shaped it belong in the validated footprint.
        let outcome = match result {
            Ok(value) => fork.serialize(&value).map_err(Error::Eval),
            Err(e) => Err(Error::Eval(e)),
        };
        let delta = fork.take_capture().expect("fork capture attached");
        let fork_snaps = fork.snap_counter().saturating_sub(pin.snap_counter());
        drop(fork);

        // Validate + rebase + publish, all under the engine mutex; the
        // ring lock nests inside it.
        let mut engine = inner.engine.lock().unwrap_or_else(|e| e.into_inner());
        {
            let ring = inner.ring.lock().unwrap_or_else(|e| e.into_inner());
            if let Err(bits) = ring.validate(base_epoch, &delta) {
                // Last-writer-wins may waive pure value collisions: the
                // rebase re-applies this Δ's renames/sets on top, which
                // is exactly the serial order "them first, us second".
                let structural = bits & !(aspect::NAME | aspect::VALUE);
                if !(inner.config.conflict_policy == ConflictPolicy::LastWriterWins
                    && structural == 0)
                {
                    return Err(bits);
                }
            }
        }
        engine.note_committer(self.id, base_epoch);
        if let Err(e) = engine.apply_captured(&delta) {
            // A precondition failed on the live store: some commit since
            // the base invalidated an op in a way footprints admit
            // (LWW waivers, untraced mutator-internal reads). Treat as a
            // conflict and retry — unless nothing can have interleaved,
            // in which case the Δ itself is unreplayable and retrying
            // would loop forever.
            if inner.versions.latest_epoch() == base_epoch {
                drop(engine);
                return Ok(Err(Error::Eval(e)));
            }
            return Err(aspect::ALL);
        }
        engine.advance_snap_counter(fork_snaps);
        let live_writes = engine.take_write_footprint().unwrap_or_default();
        Ok(self.publish_commit(inner, &mut engine, query, outcome, live_writes))
    }

    /// The PR-8 fully serialized writer: evaluate on the live engine
    /// under the mutex. Taken when OCC is off or the program is not
    /// OCC-safe; never conflicts.
    fn commit_pessimistic(
        &self,
        query: &str,
        program: &xqsyn::CoreProgram,
    ) -> Result<Response, Error> {
        let inner = &self.inner;
        let mut engine = inner.engine.lock().unwrap_or_else(|e| e.into_inner());
        let result = engine.run_program(program);
        let outcome = match result {
            Ok(value) => engine.serialize(&value).map_err(Error::Eval),
            Err(e) => Err(Error::Eval(e)),
        };
        let live_writes = engine.take_write_footprint().unwrap_or_default();
        self.publish_commit(inner, &mut engine, query, outcome, live_writes)
    }

    /// Publish the post-run state whatever the outcome: an errored run
    /// keeps its closed snaps, so readers must see them. Publishing,
    /// the ring push, and logging happen under the engine lock, so the
    /// commit log's order is the epoch order.
    fn publish_commit(
        &self,
        inner: &Inner,
        engine: &mut Engine,
        query: &str,
        outcome: Result<String, Error>,
        writes: Footprint,
    ) -> Result<Response, Error> {
        let logged = match &outcome {
            Ok(body) => Ok(body.clone()),
            Err(Error::Eval(e)) => Err(e.code.to_string()),
            Err(Error::Parse(_)) => unreachable!("program already parsed"),
        };
        let snapshot = engine.snapshot_state();
        let fingerprint = snapshot.store().fingerprint();
        let epoch = inner.versions.publish(snapshot);
        inner
            .ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(epoch, writes);
        let mut commits = inner.commits.lock().unwrap_or_else(|e| e.into_inner());
        if commits.len() >= inner.config.footprint_ring.max(1) {
            commits.pop_front();
        }
        commits.push_back(CommitRecord {
            epoch,
            session: self.id,
            query: query.to_string(),
            body: logged,
            fingerprint,
        });
        drop(commits);
        outcome.map(|body| Response {
            kind: RequestKind::Write,
            epoch,
            body,
        })
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        let prev = self.inner.sessions.fetch_sub(1, Ordering::SeqCst);
        level(GaugeId::ServerSessions, prev.saturating_sub(1));
    }
}

/// RAII admission slot: counts a request in flight, rejecting with
/// `XQB0051` past `max_inflight`.
struct InflightSlot<'a> {
    inner: &'a Inner,
}

impl<'a> InflightSlot<'a> {
    fn admit(inner: &'a Inner) -> Result<InflightSlot<'a>, Error> {
        let prev = inner.inflight.fetch_add(1, Ordering::SeqCst);
        if prev >= inner.config.max_inflight {
            inner.inflight.fetch_sub(1, Ordering::SeqCst);
            count(CounterId::ServerRejectedBackpressure);
            return Err(Error::Eval(XdmError::new(
                ERR_BACKPRESSURE,
                format!(
                    "server at capacity ({} requests in flight); retry",
                    inner.config.max_inflight
                ),
            )));
        }
        level(GaugeId::ServerInflight, prev + 1);
        Ok(InflightSlot { inner })
    }
}

impl Drop for InflightSlot<'_> {
    fn drop(&mut self) {
        let prev = self.inner.inflight.fetch_sub(1, Ordering::SeqCst);
        level(GaugeId::ServerInflight, prev.saturating_sub(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn server_with_doc() -> Server {
        let mut e = Engine::new();
        e.load_document("doc", "<log/>").unwrap();
        Server::new(e)
    }

    #[test]
    fn reads_and_writes_route_by_purity() {
        let server = server_with_doc();
        let s = server.open_session().unwrap();
        let r = s.execute("count($doc/log/*)").unwrap();
        assert_eq!(r.kind, RequestKind::Read);
        assert_eq!(r.body, "0");
        let w = s.execute("insert { <e/> } into { $doc/log }").unwrap();
        assert_eq!(w.kind, RequestKind::Write);
        assert_eq!(w.epoch, server.epoch());
        let r = s.execute("count($doc/log/*)").unwrap();
        assert_eq!(r.kind, RequestKind::Read);
        assert_eq!(r.body, "1");
        assert_eq!(r.epoch, w.epoch, "read pinned the committed epoch");
    }

    #[test]
    fn session_limit_rejects_with_xqb0050() {
        let config = ServerConfig {
            max_sessions: 2,
            ..ServerConfig::default()
        };
        let server = Server::with_config(Engine::new(), config);
        let _a = server.open_session().unwrap();
        let _b = server.open_session().unwrap();
        match server.open_session() {
            Err(Error::Eval(e)) => assert_eq!(e.code, ERR_SESSIONS),
            other => panic!("expected XQB0050, got {other:?}"),
        }
        drop(_a);
        // A freed slot admits again.
        assert!(server.open_session().is_ok());
    }

    #[test]
    fn errored_writes_keep_closed_snaps_and_publish() {
        let server = server_with_doc();
        let s = server.open_session().unwrap();
        // The snap commits, then the error fires: commitment per §2.3.
        let err = s
            .execute("(snap insert { <kept/> } into { $doc/log }, 1 div 0)")
            .unwrap_err();
        assert!(matches!(err, Error::Eval(_)));
        let r = s.execute("count($doc/log/kept)").unwrap();
        assert_eq!(r.body, "1");
        // The errored run is in the commit log for replay.
        let log = server.commit_log();
        assert_eq!(log.len(), 1);
        assert!(log[0].body.is_err());
    }

    #[test]
    fn commit_log_orders_by_epoch_and_fingerprints_match() {
        let server = server_with_doc();
        let s = server.open_session().unwrap();
        for i in 0..3 {
            s.execute(&format!("insert {{ <e n=\"{i}\"/> }} into {{ $doc/log }}"))
                .unwrap();
        }
        let log = server.commit_log();
        let epochs: Vec<u64> = log.iter().map(|c| c.epoch).collect();
        assert_eq!(epochs, vec![1, 2, 3]);
        assert_eq!(log[2].fingerprint, server.fingerprint());
    }

    #[test]
    fn shared_cache_hits_across_sessions() {
        // A query planned by one session is a cache hit for the next.
        let server = server_with_doc();
        let a = server.open_session().unwrap();
        let b = server.open_session().unwrap();
        a.execute("count($doc/log/*)").unwrap();
        let (hits_before, misses_before) = server.plan_cache().stats();
        b.execute("count($doc/log/*)").unwrap();
        let (hits_after, misses_after) = server.plan_cache().stats();
        assert!(hits_after > hits_before);
        assert_eq!(misses_after, misses_before);
    }

    // `stats_reflect_traffic` lives in tests/server_stats.rs: the counters
    // are process-global, so the exact before/after deltas it pins need a
    // process in which no sibling test runs a server.

    // -----------------------------------------------------------------
    // Routing by effect ceiling (DESIGN.md §9, §15)
    // -----------------------------------------------------------------

    /// A server over a fresh durable store at a unique temp directory,
    /// `$doc` bound to `xml`.
    fn durable_server(tag: &str, xml: &str) -> (Server, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("xqb_srv_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut e = Engine::new();
        e.open_store(&dir).unwrap();
        e.load_document("doc", xml).unwrap();
        (Server::new(e), dir)
    }

    fn wal_len(dir: &std::path::Path) -> u64 {
        std::fs::metadata(dir.join("wal.log")).unwrap().len()
    }

    /// Everything a commit would move: epoch, live node count, live
    /// fingerprint, log size.
    fn committed_state(server: &Server, dir: &std::path::Path) -> (u64, usize, u64, u64) {
        let engine = server.inner.engine.lock().unwrap();
        (
            server.epoch(),
            engine.store.len(),
            engine.store.fingerprint(),
            wal_len(dir),
        )
    }

    const CONSTRUCT: &str =
        "for $e in $doc/log/e return <item n=\"{$e/@n}\">{ count($e/*) }</item>";

    #[test]
    fn alloc_programs_are_snapshot_reads() {
        let (server, dir) = durable_server("alloc", "<log><e n=\"1\"/><e n=\"2\"><x/></e></log>");
        let s = server.open_session().unwrap();
        let before = committed_state(&server, &dir);
        let r = s.execute(CONSTRUCT).unwrap();
        assert_eq!(r.kind, RequestKind::Read);
        assert_eq!(r.epoch, before.0);
        assert_eq!(r.body, "<item n=\"1\">0</item> <item n=\"2\">1</item>");
        // The constructed nodes died with the reader's fork: no epoch, no
        // live node, no log byte.
        assert_eq!(committed_state(&server, &dir), before);
        assert!(server.commit_log().is_empty());

        // No writer lock either: the same query answers while it is held.
        let held = server.inner.engine.lock().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = {
            let server = server.clone();
            std::thread::spawn(move || {
                let s = server.open_session().unwrap();
                tx.send(s.execute(CONSTRUCT).map(|r| r.kind)).unwrap();
            })
        };
        let kind = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("an Alloc program waited for the writer lock");
        assert_eq!(kind.unwrap(), RequestKind::Read);
        drop(held);
        reader.join().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn constructing_programs_above_the_ceiling_stay_writes() {
        let server = server_with_doc();
        // The snap sits in a *module* function and applies nothing, so
        // the lattice rates `stamp()` Alloc; only the transparency walk,
        // chasing the call, sees it.
        server.with_engine(|e| {
            e.load_module("declare function stamp() { <at>{ snap { 1 } }</at> };")
                .unwrap()
        });
        let s = server.open_session().unwrap();
        for (why, query) in [
            ("Pending", "(insert { <e/> } into { $doc/log }, <ack/>)"),
            (
                "Effectful",
                "(snap insert { <e/> } into { $doc/log }, <ack/>)",
            ),
            ("snap behind a constructor", "<r>{ stamp() }</r>"),
            ("par-opaque builtin", "<r>{ parse-xml(\"<b/>\") }</r>"),
        ] {
            let epoch = server.epoch();
            let r = s.execute(query).unwrap();
            assert_eq!(r.kind, RequestKind::Write, "{why}: {query}");
            assert_eq!(r.epoch, epoch + 1, "{why}: {query}");
        }
        assert_eq!(s.execute("count($doc/log/e)").unwrap().body, "2");
    }

    /// The paper's §2 logging call, as `xqbench`'s `log_commit` sends it.
    #[test]
    fn logging_commits_leave_no_garbage() {
        let (server, dir) = durable_server("log", "<log next=\"0\"/>");
        let s = server.open_session().unwrap();
        let wal_before = wal_len(&dir);
        for n in 0..200 {
            let r = s
                .execute(&format!(
                    "let $l := $doc/log let $n := xs:integer($l/@next) return \
                     (replace value of {{ $l/@next }} with {{ $n + 1 }}, \
                     insert {{ <entry id=\"{{$n}}\" user=\"person{}\"/> }} into {{ $l }}, $n)",
                    n % 64
                ))
                .unwrap();
            assert_eq!((r.kind, r.body), (RequestKind::Write, n.to_string()));
        }
        let engine = server.inner.engine.lock().unwrap();
        let doc = engine.binding("doc").unwrap()[0].as_node().unwrap();
        let stats = engine.store.stats(&[doc]).unwrap();
        // Document, <log>, @next, then element + two attributes per call.
        // The deep-copying evaluator left 1 603 alive, 1 000 of them
        // orphans of the implicit copies.
        assert_eq!((stats.alive, stats.garbage), (3 + 3 * 200, 0));
        drop(engine);
        // Orphans were logged allocations: 400 B per commit before, and
        // the acceptance line is 40 % under that.
        let per_commit = (wal_len(&dir) - wal_before) / 200;
        assert!(per_commit <= 240, "{per_commit} WAL bytes per commit");
        let _ = std::fs::remove_dir_all(&dir);
    }

    // -----------------------------------------------------------------
    // One program environment (DESIGN.md §19)
    // -----------------------------------------------------------------

    #[test]
    fn environment_edits_reach_neither_forks_nor_pinned_snapshots() {
        let server = server_with_doc();
        let pin = server.inner.versions.pin_latest();
        let mut forked_before = pin.reader();
        server.with_engine(|e| {
            e.load_module("declare function greet() { \"hello\" };")
                .unwrap();
            e.bind("who", xqdm::seq![xqdm::Item::string("world")]);
        });
        // The edit copied the environment; the fork made before it, and a
        // fork made now from the snapshot pinned before it, keep the old.
        for old in [&mut forked_before, &mut pin.reader()] {
            assert!(old.binding("who").is_none());
            assert!(old.binding("doc").is_some());
            match old.run("greet()") {
                Err(Error::Eval(e)) => assert_eq!(e.code, "XPST0017"),
                other => panic!("the old environment has no greet(): {other:?}"),
            }
        }
        // Whatever is forked from the snapshot published after it — a
        // session's request — sees the new one.
        let s = server.open_session().unwrap();
        let r = s.execute("concat(greet(), \" \", $who)").unwrap();
        assert_eq!(
            (r.kind, r.body.as_str()),
            (RequestKind::Read, "hello world")
        );
    }

    #[test]
    fn the_hosted_engine_keeps_its_resource_policy() {
        // The server has no limits or thread budget of its own: what the
        // engine was given before `into_server` governs every request,
        // reads (forks) and writes (the live engine) alike, parse included.
        let mut e = Engine::new();
        e.load_document("doc", "<log/>").unwrap();
        e.set_limits(crate::Limits {
            fuel: Some(50),
            max_parse_depth: 8,
            ..crate::Limits::default()
        });
        let server = e.into_server(ServerConfig::default());
        let s = server.open_session().unwrap();
        for query in [
            "count(for $i in 1 to 100000 return $i + 1)",
            "(insert { <e/> } into { $doc/log }, for $i in 1 to 100000 return $i + 1)",
        ] {
            match s.execute(query) {
                Err(Error::Eval(e)) => assert_eq!(e.code, "XQB0041", "{query}"),
                other => panic!("{query}: expected a fuel trip, got {other:?}"),
            }
        }
        match s.execute("((((((((((1))))))))))") {
            Err(Error::Parse(e)) => assert!(e.message.contains("XQB0040"), "{e}"),
            other => panic!("expected a parse-depth trip, got {other:?}"),
        }
        assert_eq!(server.stats().snapshot_pins, 0);
    }

    // -----------------------------------------------------------------
    // Optimistic concurrent writers (DESIGN.md §16)
    // -----------------------------------------------------------------

    /// Run `q` on a scratch engine under capture and hand back its Δ.
    fn capture_of(e: &mut Engine, q: &str) -> xqdm::CapturedDelta {
        e.begin_capture(true);
        let _ = e.run(q);
        e.take_capture().expect("capture attached")
    }

    #[test]
    fn footprint_ring_validates_and_evicts() {
        let mut e = Engine::new();
        e.load_document("doc", "<c>0</c>").unwrap();
        // A value-set on the counter text: reads the counter, writes its
        // value aspect.
        let incr = capture_of(
            &mut e,
            "replace value of { $doc/c/text() } with { $doc/c + 1 }",
        );
        // A pure read of the counter (empty write footprint).
        let reader = capture_of(&mut e, "string($doc/c)");
        assert!(reader.writes().is_empty());
        // A query that never touched the document.
        let blind = capture_of(&mut e, "1 + 1");

        let mut ring = FootprintRing::new(2);
        ring.push(1, incr.writes().clone());
        // The reader saw the counter at base 0; epoch 1 rewrote it.
        let bits = ring.validate(0, &reader).unwrap_err();
        assert_eq!(bits & !(aspect::NAME | aspect::VALUE), 0, "value-only");
        // From base 1 nothing newer exists to conflict with.
        assert!(ring.validate(1, &reader).is_ok());
        // A Δ that read nothing commutes with anything covered.
        assert!(ring.validate(0, &blind).is_ok());
        // Eviction: once the base predates ring coverage, validation
        // must conservatively conflict — even for an empty read set.
        ring.push(2, Footprint::default());
        ring.push(3, Footprint::default());
        assert_eq!(ring.entries.len(), 2);
        assert_eq!(ring.validate(0, &blind).unwrap_err(), aspect::ALL);
        assert!(ring.validate(2, &reader).is_ok());
    }

    fn counter_server(config: ServerConfig) -> Server {
        let mut e = Engine::new();
        e.load_document("doc", "<c>0</c>").unwrap();
        Server::with_config(e, config)
    }

    const INCR: &str = "replace value of { $doc/c/text() } with { $doc/c + 1 }";
    /// An increment that evaluates slowly, widening the window in which
    /// another committer can land between its pin and its validation.
    const SLOW_INCR: &str =
        "(sum(1 to 300000)[. < 0], replace value of { $doc/c/text() } with { $doc/c + 1 })";

    #[test]
    fn concurrent_increments_never_lose_updates() {
        // The classic lost-update litmus: N sessions × K read-modify-write
        // increments. Backward validation forces every stale increment to
        // retry, so the final value is exactly N*K.
        let server = counter_server(ServerConfig::default());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let server = server.clone();
                std::thread::spawn(move || {
                    let s = server.open_session().unwrap();
                    for _ in 0..8 {
                        // XQB0052 is the documented retryable abort: a
                        // client that still wants the write re-submits.
                        loop {
                            match s.execute(INCR) {
                                Ok(_) => break,
                                Err(Error::Eval(e)) if e.code == ERR_CONFLICT => {}
                                Err(other) => panic!("unexpected error {other}"),
                            }
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = server.open_session().unwrap();
        assert_eq!(s.execute("string($doc/c)").unwrap().body, "32");
        // Log order = epoch order, and the last commit's fingerprint is
        // the live store's.
        let log = server.commit_log();
        assert!(log.windows(2).all(|w| w[0].epoch < w[1].epoch));
        assert_eq!(log.last().unwrap().fingerprint, server.fingerprint());
    }

    #[test]
    fn exhausted_retries_abort_with_xqb0052() {
        // max_retries = 0: the first conflict aborts. A slow writer pins,
        // evaluates while the main thread commits a colliding increment,
        // then fails validation.
        let server = counter_server(ServerConfig {
            max_retries: 0,
            ..ServerConfig::default()
        });
        let main = server.open_session().unwrap();
        let before = server.stats();
        let mut committed = 0u64;
        let mut aborted = 0;
        for _ in 0..30 {
            let slow = {
                let server = server.clone();
                std::thread::spawn(move || {
                    let s = server.open_session().unwrap();
                    s.execute(SLOW_INCR)
                })
            };
            std::thread::sleep(std::time::Duration::from_millis(2));
            main.execute(INCR).unwrap();
            committed += 1;
            match slow.join().unwrap() {
                Err(Error::Eval(e)) => {
                    assert_eq!(e.code, ERR_CONFLICT);
                    aborted += 1;
                }
                Ok(_) => committed += 1,
                other => panic!("unexpected outcome {other:?}"),
            }
            if aborted > 0 {
                break;
            }
        }
        assert!(aborted > 0, "no conflict in 30 rounds of forced collision");
        // Metrics are process-global (one obs registry), so compare
        // against the snapshot taken before this test's traffic.
        assert!(server.stats().conflicts > before.conflicts);
        // XQB0052 aborts left no partial effects: the counter equals the
        // number of successful commits.
        let got: u64 = main
            .execute("string($doc/c)")
            .unwrap()
            .body
            .parse()
            .unwrap();
        assert_eq!(got, committed);
    }

    #[test]
    fn bounded_retry_recovers_from_conflicts() {
        // Default max_retries: the slow loser re-evaluates from a fresh
        // snapshot and lands; nothing surfaces to the client.
        let server = counter_server(ServerConfig::default());
        let main = server.open_session().unwrap();
        let before = server.stats();
        let mut rounds = 0u64;
        for _ in 0..10 {
            let slow = {
                let server = server.clone();
                std::thread::spawn(move || {
                    let s = server.open_session().unwrap();
                    s.execute(SLOW_INCR)
                })
            };
            std::thread::sleep(std::time::Duration::from_millis(2));
            main.execute(INCR).unwrap();
            slow.join().unwrap().unwrap();
            rounds += 1;
            if server.stats().retries > before.retries {
                break;
            }
        }
        // Every round ran both increments to completion, conflicts or not.
        let got: u64 = main
            .execute("string($doc/c)")
            .unwrap()
            .body
            .parse()
            .unwrap();
        assert_eq!(got, rounds * 2);
    }

    #[test]
    fn last_writer_wins_waives_value_conflicts() {
        // Under lww a stale value-set commits anyway — the increment that
        // validated against an outdated counter overwrites the newer one,
        // exactly as if it had run second serially. The counter then
        // *undercounts*: that lost update is the policy's documented
        // trade, and the abort policy's raison d'être.
        let server = counter_server(ServerConfig {
            conflict_policy: ConflictPolicy::LastWriterWins,
            max_retries: 0,
            ..ServerConfig::default()
        });
        let main = server.open_session().unwrap();
        let mut lost = 0u64;
        let mut rounds = 0u64;
        for _ in 0..30 {
            let slow = {
                let server = server.clone();
                std::thread::spawn(move || {
                    let s = server.open_session().unwrap();
                    s.execute(SLOW_INCR)
                })
            };
            std::thread::sleep(std::time::Duration::from_millis(2));
            main.execute(INCR).unwrap();
            // Never XQB0052: value-only collisions are waived.
            slow.join().unwrap().unwrap();
            rounds += 1;
            let got: u64 = main
                .execute("string($doc/c)")
                .unwrap()
                .body
                .parse()
                .unwrap();
            lost = rounds * 2 - got;
            if lost > 0 {
                break;
            }
        }
        assert!(
            lost > 0,
            "no waived lost update in {rounds} rounds of forced collision"
        );
    }

    #[test]
    fn occ_unsafe_programs_take_the_pessimistic_path() {
        // A nondeterministic snap cannot be footprint-validated (its
        // replay could legitimately differ), so the write serializes
        // under the engine lock and never conflicts.
        let server = counter_server(ServerConfig::default());
        let s = server.open_session().unwrap();
        let before = server.stats();
        s.execute("snap nondeterministic { insert { <e/> } into { $doc/c } }")
            .unwrap();
        assert_eq!(s.execute("count($doc/c/e)").unwrap().body, "1");
        assert_eq!(server.stats().conflicts, before.conflicts);
        // Same for par-opaque builtins observed mid-query.
        s.execute("(insert { <f/> } into { $doc/c }, xqb:stats())")
            .unwrap();
        assert_eq!(server.stats().conflicts, before.conflicts);
    }

    #[test]
    fn unreachable_unordered_snaps_leave_a_write_optimistic() {
        // The module holds a nondeterministic snap, but the increment
        // cannot reach it: OCC eligibility is about what the program can
        // run, not about what the engine has loaded.
        let server = counter_server(ServerConfig::default());
        server.with_engine(|e| {
            e.load_module(
                "declare function shuffle() {
                   snap nondeterministic { insert { <e/> } into { $doc/c } } };",
            )
            .unwrap()
        });
        // An optimistic writer evaluates on a fork and needs the engine
        // lock only to commit; a pessimistic one evaluates under it. With
        // the lock held, only the former gets as far as planning.
        let held = server.inner.engine.lock().unwrap();
        let (_, misses) = server.plan_cache().stats();
        let writer = {
            let server = server.clone();
            std::thread::spawn(move || server.open_session().unwrap().execute(INCR))
        };
        let deadline = Instant::now() + std::time::Duration::from_secs(20);
        while server.plan_cache().stats().1 == misses {
            assert!(
                Instant::now() < deadline,
                "the writer waited for the engine lock before evaluating"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        drop(held);
        assert_eq!(writer.join().unwrap().unwrap().kind, RequestKind::Write);
        let s = server.open_session().unwrap();
        assert_eq!(s.execute("string($doc/c)").unwrap().body, "1");
    }

    #[test]
    fn commit_log_retains_the_footprint_ring() {
        let server = counter_server(ServerConfig {
            footprint_ring: 8,
            ..ServerConfig::default()
        });
        let s = server.open_session().unwrap();
        for _ in 0..24 {
            s.execute(INCR).unwrap();
        }
        let log = server.commit_log();
        assert_eq!(log.len(), 8);
        assert_eq!(log[0].epoch, 17);
        assert_eq!(log[7].epoch, server.epoch());
        assert_eq!(log[7].fingerprint, server.fingerprint());
    }

    #[test]
    fn occ_off_serializes_every_write() {
        let server = counter_server(ServerConfig {
            occ_writers: false,
            ..ServerConfig::default()
        });
        let before = server.stats();
        let threads: Vec<_> = (0..2)
            .map(|_| {
                let server = server.clone();
                std::thread::spawn(move || {
                    let s = server.open_session().unwrap();
                    for _ in 0..4 {
                        s.execute(INCR).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = server.open_session().unwrap();
        assert_eq!(s.execute("string($doc/c)").unwrap().body, "8");
        let stats = server.stats();
        assert_eq!(
            (stats.conflicts, stats.retries),
            (before.conflicts, before.retries)
        );
    }

    #[test]
    fn stats_json_is_pinned() {
        // The `STATS` reply: key set, spelling and order are wire format
        // (`xqbench` reads `versions_retained`, `cache_hits`,
        // `cache_misses`, `conflicts`, `retries` and `writes` from it).
        let stats = ServerStats {
            epoch: 1,
            sessions: 2,
            inflight: 3,
            snapshot_pins: 4,
            versions_retained: 5,
            versions_retired: 6,
            reads: 7,
            writes: 8,
            errors: 9,
            rejected_sessions: 10,
            rejected_backpressure: 11,
            conflicts: 12,
            retries: 13,
            cache_hits: 14,
            cache_misses: 15,
            read_p50_ns: 16,
            read_p99_ns: 17,
            write_p50_ns: 18,
            write_p99_ns: 19,
        };
        assert_eq!(
            stats.to_json(),
            "{\"epoch\":1,\"sessions\":2,\"inflight\":3,\"snapshot_pins\":4,\
             \"versions_retained\":5,\"versions_retired\":6,\
             \"reads\":7,\"writes\":8,\"errors\":9,\
             \"rejected_sessions\":10,\"rejected_backpressure\":11,\
             \"conflicts\":12,\"retries\":13,\
             \"cache_hits\":14,\"cache_misses\":15,\
             \"read_p50_ns\":16,\"read_p99_ns\":17,\
             \"write_p50_ns\":18,\"write_p99_ns\":19}"
        );
    }
}
