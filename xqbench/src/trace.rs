//! The traced pass: replay a workload's request stream against an
//! in-process `Server`, then re-run each layer's public entry point on the
//! same request with a span around it; plus fixed probes of the layers no
//! request stream isolates (XML parse, the WAL, OCC against the lock).
//!
//! The server is not instrumented — spans inside the engine are a later
//! change — so the layer spans here are *probes*: the layer calls
//! `Session::execute` made, repeated right after it on equivalent state (a
//! shadow engine kept in step with the server). They are recorded under a
//! `probe` span beside the `xqcore.server.execute` span, not inside it, and
//! what they leave of it is an estimate of its self time, not a
//! decomposition of that one call.

use crate::json::Json;
use crate::stats::{median, percentile_of};
use crate::wire::{ERR_CONFLICT, RESUBMITS};
use crate::workload::{
    increments_serialized, Inputs, Kind, Ledger, Oracle, Stream, Workload, LOG_XML,
};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};
use xquery_bang::xqcore::planner::{program_fingerprint, PlanOptions, SharedPlanCache};
use xquery_bang::xqcore::Limits;
use xquery_bang::{xqalg, xqdm, xqsyn, Engine, Server, ServerConfig, Store, SyncMode};

/// The traced replay covers at most this many requests of a stream.
pub const REPLAY_REQUESTS: usize = 2000;

pub const SERVER_EXECUTE: &str = "xqcore.server.execute";
/// Parent of the layer calls `Session::execute` makes on every request,
/// repeated after it.
const PROBE: &str = "probe";
/// Requests are probed in alternate blocks of this many, so probed and
/// unprobed executions sit side by side in time and the host's drift falls
/// on both. A multiple of every workload's cycle.
const PROBE_BLOCK: usize = 8;
const SYN_COMPILE: &str = "xqsyn.compile";
const FINGERPRINT: &str = "xqcore.planner.fingerprint";
const ALG_COMPILE: &str = "xqalg.compile";
const READER_FORK: &str = "xqcore.engine.reader_fork";
const ENGINE_EXECUTE: &str = "xqcore.engine.execute";
const SERIALIZE: &str = "xqcore.engine.serialize";
const SNAPSHOT: &str = "xqcore.engine.snapshot";
/// The span names that carry a `<name>_us` per-layer metric.
pub const LAYER_SPANS: [&str; 8] = [
    SERVER_EXECUTE,
    SYN_COMPILE,
    FINGERPRINT,
    ALG_COMPILE,
    READER_FORK,
    ENGINE_EXECUTE,
    SERIALIZE,
    SNAPSHOT,
];

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Index of the request in the stream; spans of one request share it.
    pub request: usize,
}

impl Span {
    fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// Spans are kept in memory and written once, when the pass ends.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: usize) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: usize,
        f: impl FnOnce() -> R,
    ) -> (R, usize) {
        let id = self.open(name, parent, request);
        let r = f();
        self.close(id);
        (r, id)
    }
}

/// Durations in µs of every span called `name`, in request order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::us)
        .collect()
}

/// For every probed request: `(Session::execute, its probes)` in µs — the
/// duration of the request's `xqcore.server.execute` span, and the summed
/// durations of the spans directly under the `probe` span that follows it.
/// The first minus the second estimates the server layer's self time.
pub fn execute_and_probes(spans: &[Span]) -> Vec<(f64, f64)> {
    let mut out: Vec<(f64, f64)> = Vec::new();
    let mut execute_us = 0.0;
    let mut probe = None;
    for (id, s) in spans.iter().enumerate() {
        if s.name == SERVER_EXECUTE {
            execute_us = s.us();
        } else if s.name == PROBE {
            probe = Some(id);
            out.push((execute_us, 0.0));
        } else if probe.is_some() && s.parent == probe {
            out.last_mut().expect("pushed with the probe").1 += s.us();
        }
    }
    out
}

/// p50 over samples of `cycle` consecutive requests each (their mean), the
/// same grouping the TCP pass uses for `join_scan`.
pub fn p50_by_cycle(per_request: &[f64], cycle: usize) -> f64 {
    let samples: Vec<f64> = per_request
        .chunks_exact(cycle)
        .map(|c| c.iter().sum::<f64>() / c.len() as f64)
        .collect();
    percentile_of(&samples, 0.5)
}

pub fn spans_json(workload: Workload, seed: u64, spans: &[Span]) -> Json {
    let spans = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::from(s.name)),
                ("start_ns", Json::from(s.start_ns)),
                ("end_ns", Json::from(s.end_ns)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::from(p as u64)),
                ),
                ("request", Json::from(s.request as u64)),
            ])
        })
        .collect();
    Json::obj([
        ("workload", Json::from(workload.name())),
        ("seed", Json::from(seed)),
        ("spans", Json::Arr(spans)),
    ])
}

fn load_documents(engine: &mut Engine, workload: Workload, inputs: &Inputs) -> Result<(), String> {
    for (var, xml) in workload.documents(inputs) {
        engine
            .load_document(var, &xml)
            .map_err(|e| format!("load ${var}: {e}"))?;
    }
    Ok(())
}

/// The workload's server, in this process: the same documents, the same
/// default configuration, a durable store where xqserve would have one.
fn in_process_server(
    workload: Workload,
    inputs: &Inputs,
    store: Option<&Path>,
    config: ServerConfig,
) -> Result<Server, String> {
    let mut engine = Engine::new();
    if let Some(dir) = store {
        engine
            .open_store(dir)
            .map_err(|e| format!("open store {}: {e}", dir.display()))?;
    }
    load_documents(&mut engine, workload, inputs)?;
    Ok(engine.into_server(config))
}

/// `Session::execute` with the client's resubmission rule.
fn execute(
    session: &xquery_bang::Session,
    text: &str,
) -> Result<xquery_bang::Response, xquery_bang::Error> {
    let mut tries = 0;
    loop {
        match session.execute(text) {
            Err(xquery_bang::Error::Eval(e)) if e.code == ERR_CONFLICT && tries < RESUBMITS => {
                tries += 1
            }
            other => return other,
        }
    }
}

pub struct Replay {
    /// `Session::execute` per request, µs; `probed[i]` says whether request
    /// `i` was followed by its layer probes.
    pub execute_us: Vec<f64>,
    pub probed: Vec<bool>,
    pub spans: Vec<Span>,
    pub attempted: u64,
    pub failed: u64,
    pub complaints: Vec<String>,
}

impl Replay {
    /// `execute_us` of the probed (`true`) or unprobed requests.
    pub fn execute_us_where(&self, probed: bool) -> Vec<f64> {
        let pairs = self.execute_us.iter().zip(&self.probed);
        pairs
            .filter(|(_, &p)| p == probed)
            .map(|(&us, _)| us)
            .collect()
    }
}

/// Replay session 0's stream in-process: up to `REPLAY_REQUESTS` requests
/// or `budget`, whichever ends first (whole blocks only). Alternate blocks
/// of requests are each followed by their layer probes.
pub fn replay(
    workload: Workload,
    inputs: &Inputs,
    oracle: &Oracle,
    budget: Duration,
    store: &Path,
) -> Result<Replay, String> {
    let config = ServerConfig::default();
    let server = in_process_server(
        workload,
        inputs,
        workload.durable().then_some(store),
        config,
    )?;
    let session = server.open_session().map_err(|e| e.to_string())?;
    // The shadow engine: what the server's engine holds, without the server
    // around it, so layer calls can be made on equivalent state.
    let mut shadow = Engine::new();
    load_documents(&mut shadow, workload, inputs)?;
    let cache = SharedPlanCache::new();
    shadow.set_shared_plan_cache(cache.clone());
    let mut snapshot = shadow.snapshot_state();
    let parse_depth = Limits::default().max_parse_depth;

    let mut execute_us = Vec::new();
    let mut probed = Vec::new();
    let mut tracer = Tracer::new();
    let mut stream = Stream::new(workload, inputs, 0);
    let mut ledger = Ledger::new(oracle);
    let started = Instant::now();
    while execute_us.len() < REPLAY_REQUESTS
        && (!execute_us.len().is_multiple_of(2 * PROBE_BLOCK) || started.elapsed() < budget)
    {
        let i = execute_us.len();
        let request = stream.next_request();
        let root = tracer.open("request", None, i);
        let (result, exec) = tracer.time(SERVER_EXECUTE, Some(root), i, || {
            execute(&session, &request.text)
        });
        execute_us.push(tracer.spans[exec].us());
        probed.push((i / PROBE_BLOCK).is_multiple_of(2));

        let reply = result.as_ref().map(|r| r.body.as_bytes());
        ledger.judge(&request, reply.map_err(|e| e.to_string()));

        let write = request.kind != Kind::Read;
        if probed[i] {
            let probe = tracer.open(PROBE, Some(root), i);
            let (program, _) = tracer.time(SYN_COMPILE, Some(probe), i, || {
                xqsyn::compile_with_limit(&request.text, parse_depth)
            });
            let program = program.map_err(|e| format!("{}: {}", request.text, e.message))?;
            // Reads and optimistic writes both start from a fork.
            let (mut reader, _) = tracer.time(READER_FORK, Some(probe), i, || snapshot.reader());
            reader.set_shared_plan_cache(cache.clone());
            // A write runs on the shadow engine itself, so the shadow keeps
            // up with the server.
            let engine: &mut xquery_bang::xqcore::Engine =
                if write { &mut shadow } else { &mut reader };
            let (value, _) = tracer.time(ENGINE_EXECUTE, Some(probe), i, || {
                engine.run_program(&program)
            });
            let value = value.map_err(|e| format!("{}: {e}", request.text))?;
            let (body, _) = tracer.time(SERIALIZE, Some(probe), i, || engine.serialize(&value));
            black_box(body.map_err(|e| e.to_string())?);
            // Every commit publishes a snapshot; a read does not, so there
            // the call hangs off the request and not off what a read pays.
            let parent = if write { probe } else { root };
            let (snap, _) = tracer.time(SNAPSHOT, Some(parent), i, || shadow.snapshot_state());
            snapshot = snap;
            tracer.close(probe);
            // Part of every `run_program`, so already inside that span.
            let (print, _) =
                tracer.time(FINGERPRINT, Some(root), i, || program_fingerprint(&program));
            black_box(print);
            // Paid on a plan-cache miss only.
            let (plan, _) = tracer.time(ALG_COMPILE, Some(root), i, || {
                xqalg::pipeline::compile_program_opts(
                    &program,
                    &PlanOptions {
                        index_available: true,
                    },
                )
            });
            black_box(plan);
        } else if write {
            // Unprobed, but the shadow must still see every write.
            shadow
                .run(&request.text)
                .map_err(|e| format!("{}: {e}", request.text))?;
            snapshot = shadow.snapshot_state();
        }
        tracer.close(root);
    }
    // One session, so its increments read 0, 1, 2, … in order.
    if let Err(why) = increments_serialized(&[&ledger]) {
        ledger.complain(why);
    }
    Ok(Replay {
        execute_us,
        probed,
        spans: tracer.spans,
        attempted: ledger.attempted,
        failed: ledger.failed,
        complaints: ledger.complaints,
    })
}

/// Count of `Iterate[` — sub-plans left to the interpreter — in the
/// `EXPLAIN` of each query shape the workload sends.
pub fn iterate_fallbacks(workload: Workload, inputs: &Inputs) -> Result<f64, String> {
    let mut engine = Engine::new();
    load_documents(&mut engine, workload, inputs)?;
    let mut count = 0;
    for text in workload.shapes() {
        let plan = engine
            .explain(&text)
            .map_err(|e| format!("explain {text}: {e}"))?;
        count += plan.matches("Iterate[").count();
    }
    Ok(count as f64)
}

fn timed_us<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e6)
}

fn durable_engine(dir: &Path, sync: SyncMode) -> Result<Engine, String> {
    let mut engine = Engine::new();
    engine.set_durability(sync);
    engine
        .open_store(dir)
        .map_err(|e| format!("open store {}: {e}", dir.display()))?;
    Ok(engine)
}

/// `mixed_sessions` in-process, every session on its own thread, with
/// optimistic writers on or off: requests per second.
fn mixed_throughput(inputs: &Inputs, occ_writers: bool) -> Result<f64, String> {
    const PER_SESSION: usize = 400;
    let workload = Workload::MixedSessions;
    let config = ServerConfig {
        occ_writers,
        ..ServerConfig::default()
    };
    let server = in_process_server(workload, inputs, None, config)?;
    let sessions = workload.connections();
    let start = std::sync::Barrier::new(sessions + 1);
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..sessions)
            .map(|s| {
                let (server, start) = (&server, &start);
                scope.spawn(move || -> Result<(), String> {
                    let session = server.open_session().map_err(|e| e.to_string())?;
                    let mut stream = Stream::new(workload, inputs, s);
                    start.wait();
                    for _ in 0..PER_SESSION {
                        let text = stream.next_request().text;
                        execute(&session, &text).map_err(|e| format!("{text}: {e}"))?;
                    }
                    Ok(())
                })
            })
            .collect();
        start.wait();
        let t = Instant::now();
        for w in workers {
            w.join().map_err(|_| "a session thread panicked")??;
        }
        Ok((sessions * PER_SESSION) as f64 / t.elapsed().as_secs_f64())
    })
}

pub struct Probes {
    /// `(metric, value)`.
    pub values: Vec<(&'static str, f64)>,
    /// For each value that came out impossible, a line saying so.
    pub notes: Vec<String>,
}

/// The layer probes that need no server: the same for every workload, run
/// on the run's XMark document and the `log_commit` request.
pub fn layer_probes(inputs: &Inputs, tmp: &Path) -> Result<Probes, String> {
    let mut notes = Vec::new();
    let mut out = Vec::new();
    let mib = |bytes: usize| bytes as f64 / (1 << 20) as f64;

    // xqdm.xml: parse and serialize the document every server loads.
    let xml = &inputs.xmark_xml;
    let (mut parse_s, mut serialize_s) = (Vec::new(), Vec::new());
    let (mut nodes, mut serialized) = (0, 0);
    for _ in 0..5 {
        let mut store = Store::new();
        let (doc, us) = timed_us(|| xqdm::xml::parse_document(&mut store, xml));
        let doc = doc.map_err(|e| e.to_string())?;
        parse_s.push(us / 1e6);
        nodes = store.len();
        let (text, us) = timed_us(|| xqdm::xml::serialize(&store, doc));
        serialized = text.map_err(|e| e.to_string())?.len();
        serialize_s.push(us / 1e6);
    }
    out.push(("xqdm.xml.parse_mib_s", mib(xml.len()) / median(&parse_s)));
    out.push((
        "xqdm.xml.serialize_mib_s",
        mib(serialized) / median(&serialize_s),
    ));
    out.push(("xqdm.store.nodes", nodes as f64));
    out.push(("xqdm.store.doc_bytes", xml.len() as f64));

    // xqcore.engine: the point read without the index plane.
    let mut engine = Engine::new();
    load_documents(&mut engine, Workload::PointRead, inputs)?;
    engine.set_indexing(false);
    let mut stream = Stream::new(Workload::PointRead, inputs, 0);
    let mut noindex = Vec::new();
    for _ in 0..512 {
        let text = stream.next_request().text;
        let program = engine.compile(&text).map_err(|e| e.to_string())?;
        let (r, us) = timed_us(|| engine.run_program(&program));
        black_box(r.map_err(|e| e.to_string())?);
        noindex.push(us);
    }
    out.push((
        "xqcore.engine.execute_noindex_us",
        percentile_of(&noindex, 0.5),
    ));

    // xqdm.wal: the logging commit in memory, appended without fsync, and
    // appended with fsync. The three engines take the same stream in lock
    // step, so the host's drift falls on all of them, and the append and
    // the fsync are medians of the paired differences. The fsync engine
    // goes on alone through two checkpoints (commits 256 and 512; the
    // document load was commit 1, so request i is commit i + 2) and 200
    // commits more.
    const PAIRED: usize = 200;
    let always_dir = tmp.join("wal-always");
    let mut mem = Engine::new();
    let mut off = durable_engine(&tmp.join("wal-off"), SyncMode::Off)?;
    let mut always = durable_engine(&always_dir, SyncMode::Always)?;
    for engine in [&mut mem, &mut off, &mut always] {
        engine
            .load_document("doc", LOG_XML)
            .map_err(|e| e.to_string())?;
    }
    let commit = |engine: &mut Engine, text: &str| -> Result<f64, String> {
        let (r, us) = timed_us(|| engine.run(text));
        r.map(|_| us).map_err(|e| format!("{text}: {e}"))
    };
    let mut stream = Stream::new(Workload::LogCommit, inputs, 0);
    let (mut mem_us, mut off_us, mut always_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut log_bytes = 0;
    for i in 0..2 * 256 + PAIRED - 1 {
        let text = stream.next_request().text;
        if i < PAIRED {
            // Whoever goes first after the fsync engine's sleep finds the
            // caches cold; take turns.
            if i % 2 == 0 {
                mem_us.push(commit(&mut mem, &text)?);
                off_us.push(commit(&mut off, &text)?);
            } else {
                off_us.push(commit(&mut off, &text)?);
                mem_us.push(commit(&mut mem, &text)?);
            }
        }
        always_us.push(commit(&mut always, &text)?);
        if i + 2 == PAIRED {
            let log = always_dir.join("wal.log");
            log_bytes = std::fs::metadata(&log)
                .map_err(|e| format!("{}: {e}", log.display()))?
                .len();
        }
    }
    drop(always);
    let paired_difference = |a: &[f64], b: &[f64]| {
        let d: Vec<f64> = a.iter().zip(b).map(|(a, b)| a - b).collect();
        percentile_of(&d, 0.5)
    };
    let append = paired_difference(&off_us, &mem_us);
    let fsync = paired_difference(&always_us[..PAIRED], &off_us);
    for (name, value) in [("append", append), ("fsync", fsync)] {
        if value <= 0.0 {
            notes.push(format!(
                "xqdm.wal.{name}_us is {value:.1}: the cheaper engine measured slower; do not cite it"
            ));
        }
    }
    let always_p50 = percentile_of(&always_us, 0.5);
    out.push(("xqdm.wal.commit_mem_us", percentile_of(&mem_us, 0.5)));
    out.push(("xqdm.wal.commit_off_us", percentile_of(&off_us, 0.5)));
    out.push(("xqdm.wal.commit_always_us", always_p50));
    out.push(("xqdm.wal.append_us", append));
    out.push(("xqdm.wal.fsync_us", fsync));
    out.push((
        "xqdm.wal.bytes_per_commit",
        log_bytes as f64 / PAIRED as f64,
    ));
    let crossing = (always_us[254] + always_us[510]) / 2.0;
    out.push((
        "xqdm.wal.checkpoint_stall_ms",
        (crossing - always_p50) / 1e3,
    ));
    let mut replay_ms = Vec::new();
    for _ in 0..5 {
        let (opened, us) = timed_us(|| Store::open_durable(&always_dir, SyncMode::Always));
        let (_, report) = opened.map_err(|e| e.to_string())?;
        if report.replayed_commits != 200 {
            return Err(format!(
                "recovery probe replayed {} commits, not 200: has the checkpoint interval changed?",
                report.replayed_commits
            ));
        }
        replay_ms.push(us / 1e3);
    }
    out.push(("xqdm.wal.recovery_replay_ms", median(&replay_ms)));

    // xqcore.server: what optimistic writers buy over the engine lock, the
    // two taking turns so that the host's drift falls on both.
    let (mut occ, mut lock) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        occ.push(mixed_throughput(inputs, true)?);
        lock.push(mixed_throughput(inputs, false)?);
    }
    out.push((
        "xqcore.server.occ_vs_lock_ratio",
        median(&occ) / median(&lock),
    ));
    Ok(Probes { values: out, notes })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn probes_are_summed_beside_the_call_they_repeat() {
        let spans = vec![
            span("request", 0, 30_000, None),
            span(SERVER_EXECUTE, 0, 10_000, Some(0)),
            span(PROBE, 10_000, 18_000, Some(0)),
            span(SYN_COMPILE, 10_000, 13_000, Some(2)),
            span(ENGINE_EXECUTE, 13_000, 17_000, Some(2)),
            // Hangs off the request: measured, but no part of the sum.
            span(ALG_COMPILE, 18_000, 25_000, Some(0)),
            // An unprobed request contributes nothing.
            span("request", 30_000, 45_000, None),
            span(SERVER_EXECUTE, 30_000, 45_000, Some(6)),
        ];
        assert_eq!(execute_and_probes(&spans), vec![(10.0, 7.0)]);
        assert_eq!(durations(&spans, SYN_COMPILE), vec![3.0]);
        // Every child lies inside its parent.
        for s in &spans {
            if let Some(p) = s.parent {
                assert!(spans[p].start_ns <= s.start_ns && s.end_ns <= spans[p].end_ns);
            }
        }
    }

    #[test]
    fn cycles_average_before_the_median() {
        // Two rotations of four: means 2.5 and 25; a trailing partial
        // rotation is dropped.
        let v = [1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0, 99.0];
        assert_eq!(p50_by_cycle(&v, 4), 2.5);
        assert_eq!(p50_by_cycle(&v, 1), 10.0);
    }

    #[test]
    fn tracer_nests_and_orders_spans() {
        let mut t = Tracer::new();
        let root = t.open("request", None, 7);
        let (v, child) = t.time(SYN_COMPILE, Some(root), 7, || 42);
        t.close(root);
        assert_eq!(v, 42);
        assert_eq!(t.spans[child].parent, Some(root));
        assert!(t.spans[root].end_ns >= t.spans[child].end_ns);
        let json = spans_json(Workload::PointRead, 1, &t.spans).to_string();
        assert!(json.contains("\"parent\": null") && json.contains("\"request\": 7"));
    }
}
