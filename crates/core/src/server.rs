//! The multi-session server core (DESIGN.md §15, §16): one durable
//! engine, many concurrent sessions, snapshot-isolated reads, serialized
//! writers.
//!
//! The concurrency contract:
//!
//! * **Writes serialize.** A write evaluates on the live engine under the
//!   engine mutex, then publishes a new epoch and logs its commit before
//!   the mutex drops, so log order equals epoch order. There is one
//!   writer path (DESIGN.md §16).
//! * **Reads run concurrently.** A query the PR-3 effect judgment rates
//!   `Pure` or `Alloc` ([`Facts::snapshot_read`](crate::Facts::snapshot_read):
//!   it emits and applies no update request, though it may construct
//!   nodes) pins the latest epoch and executes against a private fork of
//!   that snapshot — it never
//!   takes the engine lock, commits landing meanwhile cannot move the
//!   data under it, and whatever it allocated is dropped with the fork.
//!   A pin is a clone of the latest version's `Arc`, taken under the
//!   publication lock; releasing it takes no lock, and a superseded
//!   version retires on the thread that drops its last pin.
//! * **Admission is bounded.** Opening a session past `max_sessions` is
//!   rejected with `XQB0050`; a request past `max_inflight` concurrent
//!   requests is rejected with `XQB0051` (backpressure — the client
//!   retries, the server never queues unboundedly).
//!
//! Sessions share one [`SharedPlanCache`] — installed in the hosted
//! engine, inherited by every snapshot and fork of it — so a query text
//! prepared and planned by any session is a hit for every other. They
//! also share the engine's one [`ProgramEnv`](crate::env::ProgramEnv) —
//! the server has no resource policy of its own: a request is parsed and a
//! fork runs under the hosted engine's limits, slow-query threshold and
//! trace sink, exactly as the writer does. Request
//! accounting lands in the global metrics registry under `server.*`
//! (counters, gauges, latency histograms); [`Server::stats`] reads them
//! back as one struct.

use crate::engine::{Engine, EngineSnapshot, Error};
use crate::obs::{self, CounterId, GaugeId, HistogramId};
use crate::planner::{Prepared, SharedPlanCache};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Weak};
use std::time::Instant;
use xqdm::XdmError;

/// Session-limit rejection: `open_session` past `max_sessions`.
pub const ERR_SESSIONS: &str = "XQB0050";
/// Backpressure rejection: a request past `max_inflight`.
pub const ERR_BACKPRESSURE: &str = "XQB0051";
/// Commits [`Server::commit_log`] retains, newest last.
pub const COMMIT_LOG_RETAIN: usize = 1024;

/// Server admission policy. Resource policy (limits) is the hosted
/// engine's: set it there before [`Engine::into_server`].
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Most sessions open at once (`XQB0050` beyond).
    pub max_sessions: usize,
    /// Most requests in flight at once across all sessions (`XQB0051`
    /// beyond).
    pub max_inflight: usize,
    /// Accepted and ignored: every write serializes under the engine
    /// mutex. The optimistic writers it once switched on were deleted
    /// (DESIGN.md §16); the field stays so callers that set it build.
    pub occ_writers: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_sessions: 64,
            max_inflight: 32,
            occ_writers: true,
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
/// a fresh copy of the initial store must reproduce each `body`, and the
/// replica must end on [`Server::fingerprint`]. A record carries no store
/// fingerprint of its own: hashing the whole store on every commit would
/// make a write's cost grow with the store.
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

/// One published version: the engine state at a commit point.
struct Version {
    epoch: u64,
    state: EngineSnapshot,
}

/// The publication lock's contents: the latest version, and `Weak`s to
/// the superseded ones, pruned at each publish and each [`Server::stats`].
struct Published {
    latest: Arc<Version>,
    superseded: Vec<Weak<Version>>,
}

impl Published {
    /// Forget the superseded versions no reader holds any more; the
    /// number of versions still alive, the latest included.
    fn prune(&mut self) -> usize {
        self.superseded.retain(|v| v.strong_count() > 0);
        1 + self.superseded.len()
    }
}

struct Inner {
    /// The writer path: every write's whole evaluation serializes here.
    engine: Mutex<Engine>,
    /// The publication lock: readers pin, writers publish.
    published: Mutex<Published>,
    /// The cross-session plan cache (the one installed into `engine`).
    cache: Arc<SharedPlanCache>,
    config: ServerConfig,
    sessions: AtomicUsize,
    next_session: AtomicU64,
    inflight: AtomicUsize,
    pins: AtomicUsize,
    /// The most recent [`COMMIT_LOG_RETAIN`] commits, oldest first.
    commits: Mutex<VecDeque<CommitRecord>>,
}

/// The server handle. Cheap to clone (an `Arc`); clones share the
/// engine, the published versions, the plan cache, and the admission
/// state.
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
    /// limits, modules, bindings, slow-query threshold, trace sink — is
    /// kept, and the writer path and every reader fork
    /// share it.
    pub fn with_config(mut engine: Engine, config: ServerConfig) -> Server {
        let cache = SharedPlanCache::new();
        engine.set_shared_plan_cache(cache.clone());
        let latest = Arc::new(Version {
            epoch: 0,
            state: engine.snapshot_state(),
        });
        Server {
            inner: Arc::new(Inner {
                engine: Mutex::new(engine),
                published: Mutex::new(Published {
                    latest,
                    superseded: Vec::new(),
                }),
                cache,
                config,
                sessions: AtomicUsize::new(0),
                next_session: AtomicU64::new(1),
                inflight: AtomicUsize::new(0),
                pins: AtomicUsize::new(0),
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
        self.inner.published().latest.epoch
    }

    /// Store fingerprint of the latest published snapshot.
    pub fn fingerprint(&self) -> u64 {
        self.inner.pin().store().fingerprint()
    }

    /// The most recent commits, in commit (= epoch) order: at most
    /// [`COMMIT_LOG_RETAIN`] records, so a long-lived server does not
    /// hold every write's query text and response forever. A replay that
    /// wants the whole history must read it before that many commits have
    /// landed.
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
        self.inner.publish(engine.snapshot_state());
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
        let (epoch, retained) = {
            let mut published = inner.published();
            (published.latest.epoch, published.prune())
        };
        ServerStats {
            epoch,
            sessions: inner.sessions.load(Ordering::SeqCst),
            inflight: inner.inflight.load(Ordering::SeqCst),
            snapshot_pins: inner.pins.load(Ordering::SeqCst),
            versions_retained: retained,
            // One version per epoch, epoch 0 included.
            versions_retired: epoch + 1 - retained as u64,
            reads: counted(CounterId::ServerReads),
            writes: counted(CounterId::ServerWrites),
            errors: counted(CounterId::ServerErrors),
            rejected_sessions: counted(CounterId::ServerRejectedSessions),
            rejected_backpressure: counted(CounterId::ServerRejectedBackpressure),
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

    /// Prepare, route, and run one query: for a read, text → pin →
    /// prepared entry → fork → run → serialize.
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
        // Prepare against the latest snapshot's environment — its nesting
        // limit, its module functions — with no engine lock: a text seen
        // under that environment before is not parsed or classified again.
        // A commit between classification and execution is harmless: the
        // facts depend only on the function bodies, and module
        // registration goes through `with_engine` (the writer).
        let pin = inner.pin();
        let prepared = pin.prepare(query)?;
        if prepared.read {
            return self.execute_read(&pin, &prepared);
        }
        drop(pin);
        self.execute_write(query, &prepared)
    }

    fn execute_read(&self, pin: &Pin<'_>, prepared: &Prepared) -> Result<Response, Error> {
        let mut reader = pin.reader();
        let started = Instant::now();
        let result = reader.run_program(&prepared.program);
        timing(HistogramId::ServerReadNs, started);
        count(CounterId::ServerReads);
        match result {
            Ok(value) => {
                let body = reader.serialize(&value).map_err(Error::Eval)?;
                Ok(Response {
                    kind: RequestKind::Read,
                    epoch: pin.version.epoch,
                    body,
                })
            }
            Err(e) => {
                count(CounterId::ServerErrors);
                Err(Error::Eval(e))
            }
        }
    }

    /// The writer path: evaluate on the live engine under the mutex, then
    /// publish the post-run state and log the commit before the mutex
    /// drops, so the commit log's order is the epoch order. An errored run
    /// publishes too: it keeps its closed snaps, so readers must see them.
    fn execute_write(&self, query: &str, prepared: &Prepared) -> Result<Response, Error> {
        let inner = &self.inner;
        let started = Instant::now();
        count(CounterId::ServerWrites);
        let mut engine = inner.engine.lock().unwrap_or_else(|e| e.into_inner());
        let outcome = engine
            .run_program(&prepared.program)
            .and_then(|value| engine.serialize(&value));
        let epoch = inner.publish(engine.snapshot_state());
        let mut commits = inner.commits.lock().unwrap_or_else(|e| e.into_inner());
        if commits.len() >= COMMIT_LOG_RETAIN {
            commits.pop_front();
        }
        commits.push_back(CommitRecord {
            epoch,
            session: self.id,
            query: query.to_string(),
            body: outcome.clone().map_err(|e| e.code.to_string()),
        });
        drop(commits);
        drop(engine);
        timing(HistogramId::ServerWriteNs, started);
        if outcome.is_err() {
            count(CounterId::ServerErrors);
        }
        let body = outcome.map_err(Error::Eval)?;
        Ok(Response {
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

impl Inner {
    fn published(&self) -> MutexGuard<'_, Published> {
        self.published.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Pin the latest version for one request: one hold of the
    /// publication lock, counted in `snapshot_pins` until the pin drops.
    fn pin(&self) -> Pin<'_> {
        let version = self.published().latest.clone();
        let prev = self.pins.fetch_add(1, Ordering::SeqCst);
        level(GaugeId::ServerSnapshotPins, prev + 1);
        Pin {
            inner: self,
            version,
        }
    }

    /// Publish `state` as the next epoch and return it. The superseded
    /// version is dropped after the publication lock is released: unless
    /// a reader still holds it, its pages free here.
    fn publish(&self, state: EngineSnapshot) -> u64 {
        let mut published = self.published();
        let epoch = published.latest.epoch + 1;
        let superseded =
            std::mem::replace(&mut published.latest, Arc::new(Version { epoch, state }));
        published.prune();
        published.superseded.push(Arc::downgrade(&superseded));
        drop(published);
        drop(superseded);
        epoch
    }
}

/// A reader's hold on one published version. Dropping it takes no lock;
/// the last pin of a superseded version retires it.
struct Pin<'a> {
    inner: &'a Inner,
    version: Arc<Version>,
}

impl std::ops::Deref for Pin<'_> {
    type Target = EngineSnapshot;
    fn deref(&self) -> &EngineSnapshot {
        &self.version.state
    }
}

impl Drop for Pin<'_> {
    fn drop(&mut self) {
        let prev = self.inner.pins.fetch_sub(1, Ordering::SeqCst);
        level(GaugeId::ServerSnapshotPins, prev.saturating_sub(1));
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
    fn commit_log_orders_by_epoch() {
        let server = server_with_doc();
        let s = server.open_session().unwrap();
        for i in 0..3 {
            s.execute(&format!("insert {{ <e n=\"{i}\"/> }} into {{ $doc/log }}"))
                .unwrap();
        }
        let log = server.commit_log();
        let epochs: Vec<u64> = log.iter().map(|c| c.epoch).collect();
        assert_eq!(epochs, vec![1, 2, 3]);
        assert_eq!(log[2].query, "insert { <e n=\"2\"/> } into { $doc/log }");
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
            ("opaque builtin", "<r>{ parse-xml(\"<b/>\") }</r>"),
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

    #[test]
    fn pinned_reader_sees_pre_commit_fingerprint_for_whole_request() {
        // The barriers force "reader pins, writer commits twice, reader
        // keeps reading": the pin must hold the pre-commit state throughout.
        let server = server_with_doc();
        let pre_commit_fp = server.fingerprint();
        let retired_before = server.stats().versions_retired;
        let sync = Arc::new([(); 4].map(|()| std::sync::Barrier::new(2)));
        let reader = std::thread::spawn({
            let server = server.clone();
            let sync = sync.clone();
            move || {
                let pin = server.inner.pin();
                let first = pin.store().fingerprint();
                sync[0].wait(); // pinned: let the writer commit
                sync[1].wait(); // the writer has published two new epochs
                let second = pin.store().fingerprint();
                // A fork made from the same pin mid-request sees the pinned
                // state too (the fork is COW, not a re-pin).
                let mut fork = pin.reader();
                let count = fork.run("count($doc/log/*)").unwrap();
                let count = fork.serialize(&count).unwrap();
                sync[2].wait(); // still pinned while the writer reads STATS
                sync[3].wait();
                (pin.version.epoch, first, second, count)
            }
        });

        sync[0].wait();
        let s = server.open_session().unwrap();
        for i in 0..2 {
            let w = s
                .execute(&format!("insert {{ <e n=\"{i}\"/> }} into {{ $doc/log }}"))
                .unwrap();
            assert_eq!(w.epoch, i + 1, "each commit advances the epoch");
        }
        let post_commit_fp = server.fingerprint();
        assert_ne!(pre_commit_fp, post_commit_fp, "commits changed the store");
        sync[1].wait();
        sync[2].wait();
        // The pinned epoch 0 and the latest survive; the unpinned epoch 1
        // retired when epoch 2 was published.
        let held = server.stats();
        assert_eq!((held.versions_retained, held.snapshot_pins), (2, 1));
        sync[3].wait();

        let (epoch, first, second, count) = reader.join().unwrap();
        assert_eq!(epoch, 0, "reader pinned the pre-commit epoch");
        assert_eq!(first, pre_commit_fp);
        assert_eq!(
            second, pre_commit_fp,
            "pinned fingerprint unchanged across concurrent commits"
        );
        assert_eq!(count, "0", "forked reader queried the pinned snapshot");
        // The latest epoch moved on; a new pin sees the committed state.
        assert_eq!(server.epoch(), 2);
        assert_eq!(server.fingerprint(), post_commit_fp);
        // Epoch 0 retired with the reader's last pin.
        let stats = server.stats();
        assert_eq!((stats.versions_retained, stats.snapshot_pins), (1, 0));
        assert_eq!(stats.versions_retired, retired_before + 2);
    }

    // -----------------------------------------------------------------
    // One program environment (DESIGN.md §19)
    // -----------------------------------------------------------------

    #[test]
    fn environment_edits_reach_neither_forks_nor_pinned_snapshots() {
        let server = server_with_doc();
        let pin = server.inner.pin();
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
        // The server has no limits of its own: what the
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
    // Prepared requests (DESIGN.md §15)
    // -----------------------------------------------------------------

    /// The entry the server's cache keeps for `query`.
    fn entry(server: &Server, query: &str) -> Arc<Prepared> {
        server
            .plan_cache()
            .text_entry(query)
            .expect("a prepared entry")
    }

    #[test]
    fn a_repeated_text_reuses_its_prepared_entry() {
        let server = server_with_doc();
        let s = server.open_session().unwrap();
        const READ: &str = "count($doc/log/*)";
        s.execute(READ).unwrap();
        let first = entry(&server, READ);
        let (hits, misses) = server.plan_cache().stats();
        s.execute(READ).unwrap();
        // No parse: the same entry served; its key found the plan, and
        // that lookup is the one hit counted.
        assert!(Arc::ptr_eq(&first, &entry(&server, READ)));
        assert_eq!(server.plan_cache().stats(), (hits + 1, misses));
        // A write reuses its entry too, and a commit (no environment
        // edit) leaves the read's entry standing.
        const WRITE: &str = "insert { <e/> } into { $doc/log }";
        s.execute(WRITE).unwrap();
        let write = entry(&server, WRITE);
        assert_eq!(s.execute(WRITE).unwrap().kind, RequestKind::Write);
        assert!(Arc::ptr_eq(&write, &entry(&server, WRITE)));
        assert_eq!(s.execute(READ).unwrap().body, "2");
        assert!(Arc::ptr_eq(&first, &entry(&server, READ)));
    }

    #[test]
    fn a_text_that_fails_to_parse_is_not_kept() {
        let server = server_with_doc();
        let s = server.open_session().unwrap();
        for _ in 0..2 {
            assert!(matches!(s.execute("for $x in"), Err(Error::Parse(_))));
        }
        assert!(server.plan_cache().text_entry("for $x in").is_none());
    }

    #[test]
    fn a_tightened_nesting_limit_reaches_a_prepared_text() {
        let server = server_with_doc();
        let s = server.open_session().unwrap();
        const DEEP: &str = "((((((((((1))))))))))";
        assert_eq!(s.execute(DEEP).unwrap().body, "1");
        server.with_engine(|e| {
            e.set_limits(crate::Limits {
                max_parse_depth: 8,
                ..crate::Limits::default()
            })
        });
        match s.execute(DEEP) {
            Err(Error::Parse(e)) => assert!(e.message.contains("XQB0040"), "{e}"),
            other => panic!("the cached text must be parsed under the new limit: {other:?}"),
        }
    }

    #[test]
    fn an_index_toggle_re_prepares_nothing() {
        // Index use is decided per scan: a toggle leaves the prepared
        // entry and the plan standing, and no run reads a plane that is
        // off.
        let server = server_with_doc();
        let s = server.open_session().unwrap();
        s.execute("insert { for $i in 1 to 200 return <e id=\"e{$i}\"/> } into { $doc/log }")
            .unwrap();
        const SCAN: &str = r#"$doc/log/e[@id = "e17"]"#;
        // The live engine's run of `SCAN` through the shared cache: its
        // EXPLAIN and the index scans it took.
        let run = || {
            server.with_engine(|e| {
                assert_eq!(e.run(SCAN).unwrap().len(), 1);
                (e.explain(SCAN).unwrap(), e.last_stats().unwrap().idx_scans)
            })
        };
        s.execute(SCAN).unwrap();
        let prepared = entry(&server, SCAN);
        let (explain, scans) = run();
        assert!(explain.contains(",idx"), "{explain}");
        assert!(scans > 0, "the selective lookup scans");
        let misses = server.plan_cache().stats().1;
        server.with_engine(|e| e.set_indexing(false));
        s.execute(SCAN).unwrap();
        let (explain, scans) = run();
        assert!(!explain.contains(",idx"), "{explain}");
        assert_eq!(scans, 0, "no scan while the plane is off");
        server.with_engine(|e| e.set_indexing(true));
        s.execute(SCAN).unwrap();
        let (_, scans) = run();
        assert!(scans > 0, "re-enabled, the lookup scans again");
        assert_eq!(server.plan_cache().stats().1, misses, "re-planned nothing");
        assert!(Arc::ptr_eq(&prepared, &entry(&server, SCAN)));
    }

    #[test]
    fn a_redeclared_module_function_reroutes_a_prepared_read() {
        let server = server_with_doc();
        server
            .with_engine(|e| e.load_module("declare function f() { count($doc/log/*) };"))
            .unwrap();
        let s = server.open_session().unwrap();
        assert_eq!(s.execute("f()").unwrap().kind, RequestKind::Read);
        let first = entry(&server, "f()");
        // Redeclaring `f#0` is refused (DESIGN.md §19) and leaves the
        // environment as it was: the entry still holds, and `f()` is
        // still the read it was.
        let refused = server.with_engine(|e| {
            e.load_module("declare function f() { insert { <e/> } into { $doc/log } };")
        });
        match refused {
            Err(Error::Eval(e)) => assert_eq!(e.code, "XQST0034"),
            other => panic!("expected XQST0034, got {other:?}"),
        }
        assert_eq!(s.execute("f()").unwrap().kind, RequestKind::Read);
        assert!(Arc::ptr_eq(&first, &entry(&server, "f()")));
        assert_eq!(s.execute("f()").unwrap().body, "0");
        // The same text under an engine whose `f` updates: a write.
        server.with_engine(|e| {
            let mut fresh = Engine::new();
            fresh.load_document("doc", "<log/>").unwrap();
            fresh
                .load_module("declare function f() { insert { <e/> } into { $doc/log } };")
                .unwrap();
            fresh.set_shared_plan_cache(server.plan_cache().clone());
            *e = fresh;
        });
        assert_eq!(s.execute("f()").unwrap().kind, RequestKind::Write);
        assert_eq!(s.execute("count($doc/log/e)").unwrap().body, "1");
    }

    #[test]
    fn a_fork_keeps_its_new_names_to_itself() {
        let server = server_with_doc();
        let s = server.open_session().unwrap();
        let before = server.fingerprint();
        let r = s.execute("<brand-new/>").unwrap();
        assert_eq!(
            (r.kind, r.body.as_str()),
            (RequestKind::Read, "<brand-new/>")
        );
        let unknown = |store: &xqdm::Store| store.symbols().lookup("brand-new").is_none();
        assert!(unknown(server.inner.pin().store()), "published snapshot");
        assert!(
            unknown(&server.inner.engine.lock().unwrap().store),
            "writer"
        );
        assert_eq!(server.fingerprint(), before);
        // A write interning the name gets an id of its own, and the store
        // hashes as one that never saw the fork.
        s.execute("insert { <brand-new/> } into { $doc/log }")
            .unwrap();
        let engine = server.inner.engine.lock().unwrap();
        let id = engine.store.symbols().lookup("brand-new").unwrap();
        assert_eq!(engine.store.symbols().resolve(id), "brand-new");
        drop(engine);
        let mut alone = Engine::new();
        alone.load_document("doc", "<log/>").unwrap();
        alone
            .run("insert { <brand-new/> } into { $doc/log }")
            .unwrap();
        assert_eq!(server.fingerprint(), alone.store.fingerprint());
        assert_eq!(s.execute("count($doc/log/brand-new)").unwrap().body, "1");
    }

    // -----------------------------------------------------------------
    // One writer path (DESIGN.md §16)
    // -----------------------------------------------------------------

    fn counter_server() -> Server {
        let mut e = Engine::new();
        e.load_document("doc", "<c>0</c>").unwrap();
        Server::new(e)
    }

    const INCR: &str = "replace value of { $doc/c/text() } with { $doc/c + 1 }";

    #[test]
    fn concurrent_increments_never_lose_updates() {
        // The classic lost-update litmus: N sessions × K read-modify-write
        // increments. Writers serialize under the engine mutex, so the
        // final value is exactly N*K.
        let server = counter_server();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let server = server.clone();
                std::thread::spawn(move || {
                    let s = server.open_session().unwrap();
                    for _ in 0..8 {
                        s.execute(INCR).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let s = server.open_session().unwrap();
        assert_eq!(s.execute("string($doc/c)").unwrap().body, "32");
        // Log order = epoch order, and the last commit published the
        // latest epoch.
        let log = server.commit_log();
        assert!(log.windows(2).all(|w| w[0].epoch < w[1].epoch));
        assert_eq!(log.last().unwrap().epoch, server.epoch());
    }

    #[test]
    fn reads_never_wait_for_the_writer_lock() {
        // A write holds the engine mutex for its whole evaluation; a read
        // must answer from its pinned snapshot while it is held.
        let server = counter_server();
        let s = server.open_session().unwrap();
        s.execute(INCR).unwrap();
        let before = server.epoch();
        let (epoch, body) = server.with_engine(|_| {
            let (tx, rx) = std::sync::mpsc::channel();
            let reader = {
                let server = server.clone();
                std::thread::spawn(move || {
                    let s = server.open_session().unwrap();
                    tx.send(s.execute("string($doc/c)")).unwrap();
                })
            };
            let r = rx
                .recv_timeout(std::time::Duration::from_secs(30))
                .expect("a read waited for the writer lock")
                .unwrap();
            reader.join().unwrap();
            assert_eq!(r.kind, RequestKind::Read);
            (r.epoch, r.body)
        });
        assert_eq!((epoch, body.as_str()), (before, "1"));
    }

    #[test]
    fn commit_log_keeps_the_latest_commits() {
        let server = counter_server();
        let s = server.open_session().unwrap();
        for _ in 0..COMMIT_LOG_RETAIN + 16 {
            s.execute(INCR).unwrap();
        }
        let log = server.commit_log();
        assert_eq!(log.len(), COMMIT_LOG_RETAIN);
        assert_eq!(log[0].epoch, 17);
        assert_eq!(log[COMMIT_LOG_RETAIN - 1].epoch, server.epoch());
    }

    #[test]
    fn stats_json_is_pinned() {
        // The `STATS` reply: key set, spelling and order are wire format
        // (`xqbench` reads `versions_retained`, `cache_hits`,
        // `cache_misses` and `writes` from it, and a missing key as 0).
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
            cache_hits: 12,
            cache_misses: 13,
            read_p50_ns: 14,
            read_p99_ns: 15,
            write_p50_ns: 16,
            write_p99_ns: 17,
        };
        assert_eq!(
            stats.to_json(),
            "{\"epoch\":1,\"sessions\":2,\"inflight\":3,\"snapshot_pins\":4,\
             \"versions_retained\":5,\"versions_retired\":6,\
             \"reads\":7,\"writes\":8,\"errors\":9,\
             \"rejected_sessions\":10,\"rejected_backpressure\":11,\
             \"cache_hits\":12,\"cache_misses\":13,\
             \"read_p50_ns\":14,\"read_p99_ns\":15,\
             \"write_p50_ns\":16,\"write_p99_ns\":17}"
        );
    }
}
