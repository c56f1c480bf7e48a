//! Execution observability (DESIGN.md §10): a process-wide metrics
//! registry, per-plan-node runtime profiles, structured trace spans, and
//! the engine's slow-query log.
//!
//! Three layers, cheapest first:
//!
//! * **Registry** — named monotonic [`Counter`]s and log₂-bucketed
//!   [`Histogram`]s. The hot path is a relaxed atomic add on a
//!   pre-resolved handle; the name→handle map is only locked at
//!   registration and snapshot time ("lock-free-ish"). The engine flushes
//!   its per-run [`EvalStats`](crate::eval::EvalStats) deltas here after
//!   every run, and `xqb:stats()` / `xqb:reset-stats()` expose the
//!   [`global`] registry to queries.
//! * **[`Profile`]** — per-plan-node counters (calls, wall time,
//!   input/output cardinality, Δ requests, par attribution) captured only
//!   when the engine runs under `explain_analyze`. When profiling is off
//!   the evaluator's per-node hook is a single `Option` check.
//! * **[`TraceSink`]** — JSON-lines span events (begin/end with parent
//!   ids) written to the path named by `XQB_TRACE`. Spans cover the
//!   engine run, planning, and every snap scope — not every plan node, so
//!   trace volume stays proportional to query structure, not data size.
//!
//! The format parsers ([`parse_trace`], [`validate_spans`]) live here too
//! so the CI smoke test and the conformance suite validate exactly what
//! the sink writes.

use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

// ----------------------------------------------------------------------
// counters and histograms
// ----------------------------------------------------------------------

/// A monotonic counter. Updates are relaxed atomic adds; readers see a
/// value at least as fresh as the last `add` that happened-before the
/// read.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// An instantaneous level — in-flight requests, open sessions, snapshot
/// pins. Unlike a [`Counter`] it moves both ways and may be overwritten;
/// the snapshot reports its current value, not an accumulation.
#[derive(Default)]
pub struct Gauge(std::sync::atomic::AtomicI64);

impl Gauge {
    /// Raise the level by `n`.
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Lower the level by `n`.
    pub fn sub(&self, n: i64) {
        self.0.fetch_sub(n, Ordering::Relaxed);
    }

    /// Overwrite the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }

    fn reset(&self) {
        self.0.store(0, Ordering::Relaxed);
    }
}

/// Number of log₂ buckets a [`Histogram`] keeps: bucket *i* counts values
/// `v` with `⌊log₂ v⌋ = i` (bucket 0 also takes `v = 0`), covering the
/// full `u64` range.
pub const HIST_BUCKETS: usize = 64;

/// A log₂-bucketed histogram of `u64` samples (nanoseconds, cardinalities)
/// with exact count/sum/max. Same concurrency story as [`Counter`].
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); HIST_BUCKETS].map(|()| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&self, v: u64) {
        let bucket = if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        };
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Estimate the `q`-quantile (0 < q ≤ 1) from the log₂ buckets: the
    /// upper bound of the bucket where the cumulative count first reaches
    /// `q` of the total — within 2× of the true quantile. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count.load(Ordering::Relaxed);
        if total == 0 {
            return 0;
        }
        let target = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b.load(Ordering::Relaxed);
            if cum >= target {
                // The observed max is a tighter bound than the top
                // bucket's open upper edge.
                let edge = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                return edge.min(self.max.load(Ordering::Relaxed));
            }
        }
        self.max.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the aggregates.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.count.store(0, Ordering::Relaxed);
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }
}

/// Aggregates captured from a [`Histogram`] at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
}

// ----------------------------------------------------------------------
// registry
// ----------------------------------------------------------------------

/// How many slow-query records the registry retains (newest win).
pub const SLOW_LOG_CAP: usize = 64;

/// A named-metrics registry plus the slow-query ring. One process-wide
/// instance lives behind [`global`]; tests may construct private ones.
#[derive(Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    slow_log: Mutex<VecDeque<SlowQuery>>,
}

impl Registry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, registering it (at zero) on first use.
    /// Callers on hot paths should resolve once and keep the handle.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("counter registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, registering it (at zero) on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("gauge registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("histogram registry poisoned");
        map.entry(name.to_string()).or_default().clone()
    }

    /// Record a slow query (ring of [`SLOW_LOG_CAP`] entries) and emit its
    /// JSON line to stderr.
    pub fn record_slow(&self, entry: SlowQuery) {
        eprintln!("{}", entry.to_json());
        let mut ring = self.slow_log.lock().expect("slow log poisoned");
        if ring.len() >= SLOW_LOG_CAP {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// The retained slow-query records, oldest first.
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.slow_log
            .lock()
            .expect("slow log poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// A point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("counter registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("gauge registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histogram registry poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Zero every counter and histogram and clear the slow-query ring.
    /// Registered names stay registered (handles remain valid).
    pub fn reset(&self) {
        for c in self
            .counters
            .lock()
            .expect("counter registry poisoned")
            .values()
        {
            c.reset();
        }
        for g in self
            .gauges
            .lock()
            .expect("gauge registry poisoned")
            .values()
        {
            g.reset();
        }
        for h in self
            .histograms
            .lock()
            .expect("histogram registry poisoned")
            .values()
        {
            h.reset();
        }
        self.slow_log.lock().expect("slow log poisoned").clear();
    }
}

/// A point-in-time copy of a registry's metrics, name-sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram aggregates by name.
    pub histograms: BTreeMap<String, HistSnapshot>,
}

impl MetricsSnapshot {
    /// Render as a single JSON object (`xqb:stats()` returns this string):
    /// `{"counters":{...},"gauges":{...},"histograms":{"name":{"count":..,"sum":..,"max":..}}}`.
    /// The `gauges` member is omitted while no gauge is registered, so
    /// engine-only stats keep their original shape.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("{}:{v}", json_string(k)));
        }
        if !self.gauges.is_empty() {
            s.push_str("},\"gauges\":{");
            for (i, (k, v)) in self.gauges.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!("{}:{v}", json_string(k)));
            }
        }
        s.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{}:{{\"count\":{},\"sum\":{},\"max\":{}}}",
                json_string(k),
                h.count,
                h.sum,
                h.max
            ));
        }
        s.push_str("}}");
        s
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry: the one the engine flushes into and
/// `xqb:stats()` reads.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// Pre-resolved handles for the engine's per-run flush: one relaxed
/// atomic add per field per run, no map lookups on the hot path. Resolved
/// once per [`ProgramEnv`](crate::env::ProgramEnv) and shared with it.
#[derive(Clone)]
pub struct EngineMetrics {
    /// `engine.runs` — runs started (successful or not).
    pub runs: Arc<Counter>,
    /// `engine.errors` — runs that returned an error.
    pub errors: Arc<Counter>,
    /// `engine.snaps_closed` — cumulative [`EvalStats::snaps_closed`](crate::eval::EvalStats).
    pub snaps_closed: Arc<Counter>,
    /// `engine.requests_emitted` — cumulative Δ requests emitted.
    pub requests_emitted: Arc<Counter>,
    /// `engine.requests_applied` — cumulative Δ requests applied.
    pub requests_applied: Arc<Counter>,
    /// `engine.plan_nodes` — compiled plan nodes executed.
    pub plan_nodes: Arc<Counter>,
    /// `engine.joins` — join operators executed.
    pub joins: Arc<Counter>,
    /// `engine.par_regions` — regions that fanned out.
    pub par_regions: Arc<Counter>,
    /// `engine.par_items` — items evaluated inside those regions.
    pub par_items: Arc<Counter>,
    /// `engine.batch_steps` — batch step-kernel invocations.
    pub batch_steps: Arc<Counter>,
    /// `engine.batch_nodes` — nodes those kernels produced (pre-dedup).
    pub batch_nodes: Arc<Counter>,
    /// `engine.idx.scans` — index-driven path steps executed.
    pub idx_scans: Arc<Counter>,
    /// `engine.idx.hits` — nodes those index scans emitted (pre-dedup).
    pub idx_hits: Arc<Counter>,
    /// `engine.cache_hits` — plan-cache hits.
    pub cache_hits: Arc<Counter>,
    /// `engine.cache_misses` — plan-cache misses.
    pub cache_misses: Arc<Counter>,
    /// `engine.limit_trips.depth` — runs stopped by the recursion-depth
    /// limit (`XQB0040`; DESIGN.md §12).
    pub limit_depth: Arc<Counter>,
    /// `engine.limit_trips.fuel` — runs stopped by fuel exhaustion
    /// (`XQB0041`).
    pub limit_fuel: Arc<Counter>,
    /// `engine.limit_trips.deadline` — runs stopped by the wall-clock
    /// deadline (`XQB0042`).
    pub limit_deadline: Arc<Counter>,
    /// `engine.limit_trips.memory` — runs stopped by the memory budget
    /// (`XQB0043`).
    pub limit_memory: Arc<Counter>,
    /// `engine.par_spawn_fallback` — worker-thread spawns the OS refused
    /// (the chunk ran inline instead; docs/LIMITS.md).
    pub par_spawn_fallback: Arc<Counter>,
    /// `engine.slow_queries` — slow-query log entries recorded.
    pub slow_queries: Arc<Counter>,
    /// `engine.run_ns` — per-run wall time histogram (nanoseconds).
    pub run_ns: Arc<Histogram>,
    /// `engine.wal.commits` — durable commits flushed to the redo log
    /// (docs/DURABILITY.md).
    pub wal_commits: Arc<Counter>,
    /// `engine.wal.records` — redo records across those commits.
    pub wal_records: Arc<Counter>,
    /// `engine.wal.bytes` — bytes appended to the log, framing included.
    pub wal_bytes: Arc<Counter>,
    /// `engine.wal.fsyncs` — commits that fsynced (sync-mode dependent).
    pub wal_fsyncs: Arc<Counter>,
    /// `engine.wal.checkpoints` — compacted checkpoints installed.
    pub wal_checkpoints: Arc<Counter>,
    /// `engine.wal.tail_dropped` — corrupt log tails dropped during
    /// recovery (each one a graceful degradation, never an abort).
    pub wal_tail_dropped: Arc<Counter>,
    /// `engine.wal.replayed_commits` — committed batches replayed at
    /// startup recovery.
    pub wal_replayed: Arc<Counter>,
    /// `engine.wal.commit_ns` — per-commit flush latency histogram.
    pub wal_commit_ns: Arc<Histogram>,
}

impl EngineMetrics {
    /// Resolve every handle against the [`global`] registry.
    pub fn from_global() -> Self {
        let g = global();
        EngineMetrics {
            runs: g.counter("engine.runs"),
            errors: g.counter("engine.errors"),
            snaps_closed: g.counter("engine.snaps_closed"),
            requests_emitted: g.counter("engine.requests_emitted"),
            requests_applied: g.counter("engine.requests_applied"),
            plan_nodes: g.counter("engine.plan_nodes"),
            joins: g.counter("engine.joins"),
            par_regions: g.counter("engine.par_regions"),
            par_items: g.counter("engine.par_items"),
            batch_steps: g.counter("engine.batch_steps"),
            batch_nodes: g.counter("engine.batch_nodes"),
            idx_scans: g.counter("engine.idx.scans"),
            idx_hits: g.counter("engine.idx.hits"),
            cache_hits: g.counter("engine.cache_hits"),
            cache_misses: g.counter("engine.cache_misses"),
            limit_depth: g.counter("engine.limit_trips.depth"),
            limit_fuel: g.counter("engine.limit_trips.fuel"),
            limit_deadline: g.counter("engine.limit_trips.deadline"),
            limit_memory: g.counter("engine.limit_trips.memory"),
            par_spawn_fallback: g.counter("engine.par_spawn_fallback"),
            slow_queries: g.counter("engine.slow_queries"),
            run_ns: g.histogram("engine.run_ns"),
            wal_commits: g.counter("engine.wal.commits"),
            wal_records: g.counter("engine.wal.records"),
            wal_bytes: g.counter("engine.wal.bytes"),
            wal_fsyncs: g.counter("engine.wal.fsyncs"),
            wal_checkpoints: g.counter("engine.wal.checkpoints"),
            wal_tail_dropped: g.counter("engine.wal.tail_dropped"),
            wal_replayed: g.counter("engine.wal.replayed_commits"),
            wal_commit_ns: g.histogram("engine.wal.commit_ns"),
        }
    }

    /// Bump the limit-trip counter matching `code`, if it is one of the
    /// `XQB004x` resource-governance codes.
    pub fn note_limit_trip(&self, code: &str) {
        match code {
            "XQB0040" => self.limit_depth.add(1),
            "XQB0041" => self.limit_fuel.add(1),
            "XQB0042" => self.limit_deadline.add(1),
            "XQB0043" => self.limit_memory.add(1),
            _ => {}
        }
    }
}

// ----------------------------------------------------------------------
// slow-query log
// ----------------------------------------------------------------------

/// One slow-query record (threshold set by `XQB_SLOW_MS` or
/// `Engine::set_slow_query_threshold`).
#[derive(Debug, Clone, PartialEq)]
pub struct SlowQuery {
    /// The run's 128-bit plan-cache key, rendered as hex: the program's
    /// fingerprint folded with the module table's, index availability and
    /// the index epoch — stable across runs of the same query text until
    /// one of those changes.
    pub fingerprint: String,
    /// Wall time in milliseconds.
    pub millis: f64,
    /// Plan-cache outcome: `"hit"`, `"miss"`, or `"uncompiled"`
    /// (`set_compile(false)`).
    pub cache: &'static str,
    /// Δ-application mode of the implicit top-level snap (always
    /// `"ordered"`; recorded so the log format survives future modes).
    pub snap_mode: &'static str,
    /// Worker-thread budget the run used.
    pub threads: usize,
    /// Snaps closed during the run.
    pub snaps_closed: u64,
    /// Update requests applied during the run.
    pub requests_applied: u64,
}

impl SlowQuery {
    /// The JSON line the engine writes to stderr.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"slow_query\":{{\"fingerprint\":\"{}\",\"millis\":{:.3},\"cache\":\"{}\",\
             \"snap_mode\":\"{}\",\"threads\":{},\"snaps_closed\":{},\"requests_applied\":{}}}}}",
            self.fingerprint,
            self.millis,
            self.cache,
            self.snap_mode,
            self.threads,
            self.snaps_closed,
            self.requests_applied
        )
    }
}

// ----------------------------------------------------------------------
// per-node profiles
// ----------------------------------------------------------------------

/// Runtime counters for one plan node (identified by its pre-order index
/// in the plan tree; node ids are assigned per program section —
/// body, prolog variables, compiled functions — by the planner).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// Times the node was executed (a loop body counts per iteration).
    pub calls: u64,
    /// Inclusive wall time (nanoseconds) across all calls.
    pub wall_ns: u64,
    /// Input cardinality: loop-source / join-outer / condition / bound-value
    /// rows the node consumed, summed over calls.
    pub input_rows: u64,
    /// Output cardinality: items the node returned, summed over calls.
    pub output_rows: u64,
    /// Δ requests emitted while the node (or any descendant) ran.
    pub delta_incl: u64,
    /// Δ requests attributable to this node alone (inclusive minus the
    /// children's inclusive counts).
    pub delta_self: u64,
    /// Parallel regions begun while the node ran (inclusive).
    pub par_regions: u64,
    /// Items fanned out in those regions (inclusive).
    pub par_items: u64,
    /// Batch step-kernel invocations while the node ran (inclusive).
    pub batch_steps: u64,
    /// Nodes those kernels produced, pre-dedup (inclusive).
    pub batch_nodes: u64,
    /// Index-driven path steps while the node ran (inclusive).
    pub idx_scans: u64,
    /// Nodes those index scans emitted, pre-dedup (inclusive).
    pub idx_hits: u64,
}

/// Per-node statistics for one analyzed run, indexed by plan-node id.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Profile {
    nodes: Vec<NodeStats>,
}

impl Profile {
    /// Stats for node `id` (zeros if the node never executed).
    pub fn node(&self, id: usize) -> NodeStats {
        self.nodes.get(id).copied().unwrap_or_default()
    }

    /// Mutable stats slot for node `id`, growing the table as needed.
    pub fn node_mut(&mut self, id: usize) -> &mut NodeStats {
        if self.nodes.len() <= id {
            self.nodes.resize(id + 1, NodeStats::default());
        }
        &mut self.nodes[id]
    }

    /// Number of node slots (≥ highest executed id + 1).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// No node executed at all?
    pub fn is_empty(&self) -> bool {
        self.nodes.iter().all(|n| n.calls == 0)
    }

    /// Sum of `delta_self` over every node — must equal the run's
    /// `requests_emitted` total when every emission happened under some
    /// profiled node (the obs-invariants suite pins this).
    pub fn total_delta_self(&self) -> u64 {
        self.nodes.iter().map(|n| n.delta_self).sum()
    }

    /// Sum of `calls` over every node.
    pub fn total_calls(&self) -> u64 {
        self.nodes.iter().map(|n| n.calls).sum()
    }
}

// ----------------------------------------------------------------------
// trace spans
// ----------------------------------------------------------------------

/// A JSON-lines span sink. Each line is one event:
///
/// ```json
/// {"ev":"b","id":3,"parent":1,"name":"snap","t":123456}
/// {"ev":"e","id":3,"t":234567}
/// ```
///
/// `id` is unique per sink, `parent` is the enclosing span's id (omitted
/// for roots), `t` is nanoseconds since the sink was created. Writes are
/// line-atomic behind a mutex; span ids come from an atomic counter, so
/// concurrent spans interleave without corruption.
pub struct TraceSink {
    out: Mutex<Box<dyn std::io::Write + Send>>,
    next_id: AtomicU64,
    t0: Instant,
}

impl TraceSink {
    /// A sink writing to the file at `path` (truncated).
    pub fn to_path(path: &str) -> std::io::Result<TraceSink> {
        let file = std::fs::File::create(path)?;
        Ok(TraceSink {
            out: Mutex::new(Box::new(std::io::BufWriter::new(file))),
            next_id: AtomicU64::new(1),
            t0: Instant::now(),
        })
    }

    /// The sink named by the `XQB_TRACE` environment variable, if set.
    /// An unwritable path is reported to stderr and disables tracing
    /// rather than failing the engine.
    pub fn from_env() -> Option<Arc<TraceSink>> {
        let path = std::env::var("XQB_TRACE").ok()?;
        match TraceSink::to_path(&path) {
            Ok(sink) => Some(Arc::new(sink)),
            Err(e) => {
                eprintln!("XQB_TRACE: cannot open {path}: {e}");
                None
            }
        }
    }

    /// Begin a span; returns its id for [`TraceSink::end`] and for child
    /// spans' `parent`.
    pub fn begin(&self, name: &str, parent: Option<u64>) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let t = self.t0.elapsed().as_nanos();
        let mut out = self.out.lock().expect("trace sink poisoned");
        let _ = match parent {
            Some(p) => writeln!(
                out,
                "{{\"ev\":\"b\",\"id\":{id},\"parent\":{p},\"name\":{},\"t\":{t}}}",
                json_string(name)
            ),
            None => writeln!(
                out,
                "{{\"ev\":\"b\",\"id\":{id},\"name\":{},\"t\":{t}}}",
                json_string(name)
            ),
        };
        id
    }

    /// End the span `id`.
    pub fn end(&self, id: u64) {
        let t = self.t0.elapsed().as_nanos();
        let mut out = self.out.lock().expect("trace sink poisoned");
        let _ = writeln!(out, "{{\"ev\":\"e\",\"id\":{id},\"t\":{t}}}");
    }

    /// Flush buffered events to the underlying file.
    pub fn flush(&self) {
        let _ = self.out.lock().expect("trace sink poisoned").flush();
    }
}

/// One parsed trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// `true` for a begin (`"b"`) event, `false` for an end (`"e"`).
    pub begin: bool,
    /// Span id.
    pub id: u64,
    /// Parent span id (begin events only; `None` for roots and ends).
    pub parent: Option<u64>,
    /// Span name (begin events only; empty for ends).
    pub name: String,
    /// Nanoseconds since the sink was created.
    pub t: u64,
}

/// Parse the JSON-lines trace format [`TraceSink`] writes. This is a
/// validator for our own fixed single-line object shape, not a general
/// JSON parser; any malformed line is an error.
pub fn parse_trace(text: &str) -> Result<Vec<SpanEvent>, String> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let err = |what: &str| format!("trace line {}: {what}: {line}", lineno + 1);
        let body = line
            .strip_prefix('{')
            .and_then(|s| s.strip_suffix('}'))
            .ok_or_else(|| err("not a JSON object"))?;
        let mut begin = None;
        let mut id = None;
        let mut parent = None;
        let mut name = None;
        let mut t = None;
        for field in split_top_level_fields(body) {
            let (key, value) = field
                .split_once(':')
                .ok_or_else(|| err("field without ':'"))?;
            let key = key.trim().trim_matches('"');
            let value = value.trim();
            match key {
                "ev" => match value {
                    "\"b\"" => begin = Some(true),
                    "\"e\"" => begin = Some(false),
                    _ => return Err(err("ev must be \"b\" or \"e\"")),
                },
                "id" => id = Some(value.parse::<u64>().map_err(|_| err("bad id"))?),
                "parent" => parent = Some(value.parse::<u64>().map_err(|_| err("bad parent"))?),
                "name" => {
                    let inner = value
                        .strip_prefix('"')
                        .and_then(|s| s.strip_suffix('"'))
                        .ok_or_else(|| err("name must be a string"))?;
                    name = Some(inner.replace("\\\"", "\"").replace("\\\\", "\\"));
                }
                "t" => t = Some(value.parse::<u64>().map_err(|_| err("bad t"))?),
                _ => return Err(err("unknown field")),
            }
        }
        let begin = begin.ok_or_else(|| err("missing ev"))?;
        let id = id.ok_or_else(|| err("missing id"))?;
        let t = t.ok_or_else(|| err("missing t"))?;
        if begin && name.is_none() {
            return Err(err("begin event missing name"));
        }
        if !begin && (parent.is_some() || name.is_some()) {
            return Err(err("end event carries begin-only fields"));
        }
        events.push(SpanEvent {
            begin,
            id,
            parent,
            name: name.unwrap_or_default(),
            t,
        });
    }
    Ok(events)
}

/// Split `a:1,b:"x,y"` style object bodies on top-level commas (commas
/// inside string values don't split).
fn split_top_level_fields(body: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_string = false;
    let mut escaped = false;
    for (i, c) in body.char_indices() {
        match c {
            '\\' if in_string => escaped = !escaped,
            '"' if !escaped => in_string = !in_string,
            ',' if !in_string => {
                out.push(&body[start..i]);
                start = i + 1;
            }
            _ => escaped = false,
        }
    }
    if start < body.len() {
        out.push(&body[start..]);
    }
    out
}

/// Validate span discipline over parsed events: ids unique, every end has
/// a matching open begin, every parent is open when its child begins, and
/// no span is left open. Returns the number of complete spans.
pub fn validate_spans(events: &[SpanEvent]) -> Result<usize, String> {
    use std::collections::HashSet;
    let mut open: HashSet<u64> = HashSet::new();
    let mut seen: HashSet<u64> = HashSet::new();
    let mut closed = 0usize;
    for ev in events {
        if ev.begin {
            if !seen.insert(ev.id) {
                return Err(format!("span id {} reused", ev.id));
            }
            if let Some(p) = ev.parent {
                if !open.contains(&p) {
                    return Err(format!(
                        "span {} ({}) begins under parent {} which is not open",
                        ev.id, ev.name, p
                    ));
                }
            }
            open.insert(ev.id);
        } else {
            if !open.remove(&ev.id) {
                return Err(format!("span {} ends without an open begin", ev.id));
            }
            closed += 1;
        }
    }
    if !open.is_empty() {
        let mut ids: Vec<_> = open.into_iter().collect();
        ids.sort_unstable();
        return Err(format!("spans left open: {ids:?}"));
    }
    Ok(closed)
}

// ----------------------------------------------------------------------
// rendering helpers
// ----------------------------------------------------------------------

/// Human-readable nanoseconds (`742ns`, `13.2µs`, `4.71ms`, `1.20s`).
pub fn fmt_ns(ns: u64) -> String {
    let ns_f = ns as f64;
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns_f / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns_f / 1e6)
    } else {
        format!("{:.2}s", ns_f / 1e9)
    }
}

/// Mask every `time=<value>` token so analyzed plans can be pinned as
/// goldens: timings vary run to run, cardinalities must not.
pub fn mask_timings(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(i) = rest.find("time=") {
        let after = i + "time=".len();
        out.push_str(&rest[..after]);
        out.push_str("<t>");
        let tail = &rest[after..];
        let end = tail
            .find(|c: char| c.is_whitespace() || c == ')' || c == ',')
            .unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// Escape a string as a JSON string literal (quotes included).
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_snapshot_reset() {
        let r = Registry::new();
        let c = r.counter("x.count");
        c.add(3);
        r.counter("x.count").add(2);
        assert_eq!(c.get(), 5);
        let snap = r.snapshot();
        assert_eq!(snap.counters["x.count"], 5);
        r.reset();
        assert_eq!(c.get(), 0);
        // The handle stays live across reset.
        c.add(1);
        assert_eq!(r.snapshot().counters["x.count"], 1);
    }

    #[test]
    fn gauges_move_both_ways_and_render() {
        let r = Registry::new();
        let g = r.gauge("x.level");
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
        assert_eq!(r.snapshot().gauges["x.level"], 3);
        assert!(r
            .snapshot()
            .to_json()
            .contains("\"gauges\":{\"x.level\":3}"));
        r.reset();
        assert_eq!(g.get(), 0);
        g.set(-1);
        assert_eq!(r.snapshot().gauges["x.level"], -1);
        // Gauge-free snapshots keep the original two-member shape.
        assert!(!Registry::new().snapshot().to_json().contains("gauges"));
    }

    #[test]
    fn histogram_quantiles_bracket_samples() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(100); // bucket 6, upper edge 127
        }
        h.record(1_000_000); // bucket 19
        assert_eq!(h.quantile(0.5), 127);
        assert_eq!(h.quantile(0.99), 127);
        // The top-most populated bucket is clamped to the observed max.
        assert_eq!(h.quantile(1.0), 1_000_000);
        assert_eq!(Histogram::default().quantile(0.5), 0);
    }

    #[test]
    fn histogram_aggregates() {
        let h = Histogram::default();
        for v in [0, 1, 1000, 65_536] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 66_537);
        assert_eq!(s.max, 65_536);
    }

    #[test]
    fn snapshot_json_shape() {
        let r = Registry::new();
        r.counter("a").add(7);
        r.histogram("h").record(5);
        let json = r.snapshot().to_json();
        assert!(json.starts_with("{\"counters\":{"));
        assert!(json.contains("\"a\":7"));
        assert!(json.contains("\"h\":{\"count\":1,\"sum\":5,\"max\":5}"));
    }

    #[test]
    fn profile_grows_and_sums() {
        let mut p = Profile::default();
        p.node_mut(3).delta_self = 2;
        p.node_mut(1).delta_self = 1;
        p.node_mut(1).calls = 4;
        assert_eq!(p.len(), 4);
        assert_eq!(p.total_delta_self(), 3);
        assert_eq!(p.total_calls(), 4);
        assert_eq!(p.node(99), NodeStats::default());
    }

    #[test]
    fn trace_roundtrip_and_validation() {
        let path =
            std::env::temp_dir().join(format!("xqb-trace-test-{}.jsonl", std::process::id()));
        let sink = TraceSink::to_path(path.to_str().unwrap()).unwrap();
        let run = sink.begin("run", None);
        let snap = sink.begin("snap", Some(run));
        sink.end(snap);
        sink.end(run);
        sink.flush();
        let text = std::fs::read_to_string(&path).unwrap();
        let events = parse_trace(&text).unwrap();
        assert_eq!(events.len(), 4);
        assert_eq!(validate_spans(&events).unwrap(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn validation_rejects_bad_nesting() {
        let events = parse_trace(
            "{\"ev\":\"b\",\"id\":1,\"name\":\"run\",\"t\":0}\n{\"ev\":\"e\",\"id\":2,\"t\":1}\n",
        )
        .unwrap();
        assert!(validate_spans(&events).is_err());
        // A child under a never-opened parent.
        let events =
            parse_trace("{\"ev\":\"b\",\"id\":2,\"parent\":9,\"name\":\"x\",\"t\":0}").unwrap();
        assert!(validate_spans(&events).is_err());
        // Parse errors for malformed lines.
        assert!(parse_trace("{\"ev\":\"q\",\"id\":1,\"t\":0}").is_err());
        assert!(parse_trace("not json").is_err());
    }

    #[test]
    fn mask_timings_replaces_all_values() {
        let s = "Iterate (calls=2 time=1.23ms rows=5→3) time=99ns, time=4s)";
        assert_eq!(
            mask_timings(s),
            "Iterate (calls=2 time=<t> rows=5→3) time=<t>, time=<t>)"
        );
    }

    #[test]
    fn slow_query_json_line() {
        let q = SlowQuery {
            fingerprint: "00ff".into(),
            millis: 12.5,
            cache: "hit",
            snap_mode: "ordered",
            threads: 4,
            snaps_closed: 2,
            requests_applied: 3,
        };
        let j = q.to_json();
        assert!(j.contains("\"fingerprint\":\"00ff\""));
        assert!(j.contains("\"millis\":12.500"));
        assert!(j.contains("\"cache\":\"hit\""));
        assert!(j.contains("\"threads\":4"));
    }
}
