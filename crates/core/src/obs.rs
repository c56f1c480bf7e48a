//! Execution observability (DESIGN.md §10): a process-wide metrics
//! registry, per-plan-node runtime profiles, structured trace spans, and
//! the engine's slow-query log.
//!
//! Three layers, cheapest first:
//!
//! * **[`Registry`]** — monotonic [`Counter`]s, [`Gauge`]s and
//!   log₂-bucketed [`Histogram`]s, each declared by one row of a static
//!   table ([`CounterId`], [`GaugeId`], [`HistogramId`]) and stored in a
//!   fixed array indexed by that id: an update is one relaxed atomic add,
//!   no lock and no lookup. The engine flushes each run's
//!   [`EvalStats`] here ([`EvalStats::counters`] says which field feeds
//!   which counter), and `xqb:stats()` / `xqb:reset-stats()` expose the
//!   [`global`] registry to queries.
//! * **[`Profile`]** — per-plan-node counters (calls, wall time,
//!   input/output cardinality, and the [`EvalStats`] that accrued while
//!   the node ran) captured only when the engine runs under
//!   `explain_analyze`. When profiling is off the evaluator's per-node
//!   hook is a single `Option` check.
//! * **[`TraceSink`]** — JSON-lines span events (begin/end with parent
//!   ids) written to the file the host attaches (`Engine::set_trace`,
//!   the binaries' `--trace`). Spans cover the
//!   engine run, planning, and every snap scope — not every plan node, so
//!   trace volume stays proportional to query structure, not data size.
//!
//! The format parsers ([`parse_trace`], [`validate_spans`]) live here too
//! so the CI smoke test and the conformance suite validate exactly what
//! the sink writes.

use crate::eval::EvalStats;
use std::collections::{BTreeMap, VecDeque};
use std::io::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

// ----------------------------------------------------------------------
// counters and histograms
// ----------------------------------------------------------------------

/// A monotonic counter. Updates are relaxed atomic adds; readers see a
/// value at least as fresh as the last `add` that happened-before the
/// read.
pub struct Counter(AtomicU64);

impl Counter {
    const fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

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
pub struct Gauge(std::sync::atomic::AtomicI64);

impl Gauge {
    const fn new() -> Self {
        Gauge(std::sync::atomic::AtomicI64::new(0))
    }

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
        Histogram::new()
    }
}

impl Histogram {
    const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

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

/// Declares one kind of metric: the id enum, its `ALL` list (slot order)
/// and each id's registry name. A metric is declared by one row in one of
/// the three invocations below and nowhere else; `snapshot`, `to_json`,
/// `reset` and `xqb:stats()` iterate `ALL`. docs/OBSERVABILITY.md's table
/// is compared against these rows by a test.
macro_rules! metric_ids {
    ($(#[$doc:meta])* $ty:ident { $($(#[$vdoc:meta])* $variant:ident = $name:literal,)+ }) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $ty { $($(#[$vdoc])* $variant,)+ }

        impl $ty {
            /// Every declared id, in slot order.
            pub const ALL: &'static [$ty] = &[$($ty::$variant,)+];

            /// The metric's registry name.
            pub const fn name(self) -> &'static str {
                match self { $($ty::$variant => $name,)+ }
            }
        }
    };
}

metric_ids! {
    /// The declared [`Counter`]s.
    CounterId {
        /// Runs started (successful or not; module loads included).
        Runs = "engine.runs",
        /// Runs that returned an error.
        Errors = "engine.errors",
        /// Cumulative [`EvalStats::snaps_closed`].
        SnapsClosed = "engine.snaps_closed",
        /// Cumulative Δ requests emitted.
        RequestsEmitted = "engine.requests_emitted",
        /// Cumulative Δ requests applied.
        RequestsApplied = "engine.requests_applied",
        /// Compiled plan nodes executed.
        PlanNodes = "engine.plan_nodes",
        /// Join operators executed.
        Joins = "engine.joins",
        /// Batch step-kernel invocations.
        BatchSteps = "engine.batch_steps",
        /// Nodes those kernels produced (pre-dedup).
        BatchNodes = "engine.batch_nodes",
        /// Index-driven path steps executed.
        IdxScans = "engine.idx.scans",
        /// Nodes those index scans emitted (pre-dedup).
        IdxHits = "engine.idx.hits",
        /// Plan-cache hits.
        CacheHits = "engine.cache_hits",
        /// Plan-cache misses.
        CacheMisses = "engine.cache_misses",
        /// Runs, parses and document loads stopped by a depth limit
        /// (`XQB0040`; DESIGN.md §12).
        LimitDepth = "engine.limit_trips.depth",
        /// Runs stopped by fuel exhaustion (`XQB0041`).
        LimitFuel = "engine.limit_trips.fuel",
        /// Runs stopped by the wall-clock deadline (`XQB0042`).
        LimitDeadline = "engine.limit_trips.deadline",
        /// Runs stopped by the memory budget (`XQB0043`).
        LimitMemory = "engine.limit_trips.memory",
        /// Slow-query log entries recorded.
        SlowQueries = "engine.slow_queries",
        /// Durable commits flushed to the redo log (docs/DURABILITY.md).
        WalCommits = "engine.wal.commits",
        /// Redo records across those commits.
        WalRecords = "engine.wal.records",
        /// Bytes appended to the log, framing included.
        WalBytes = "engine.wal.bytes",
        /// Commits that fsynced (sync-mode dependent).
        WalFsyncs = "engine.wal.fsyncs",
        /// Compacted checkpoints installed.
        WalCheckpoints = "engine.wal.checkpoints",
        /// Corrupt log tails dropped during recovery (each one a graceful
        /// degradation, never an abort).
        WalTailDropped = "engine.wal.tail_dropped",
        /// Committed batches replayed at startup recovery.
        WalReplayed = "engine.wal.replayed_commits",
        /// Read requests a server served.
        ServerReads = "server.requests.read",
        /// Write requests a server served.
        ServerWrites = "server.requests.write",
        /// Server requests that returned an evaluation error.
        ServerErrors = "server.errors",
        /// `XQB0050` session-limit rejections.
        ServerRejectedSessions = "server.rejected.sessions",
        /// `XQB0051` backpressure rejections.
        ServerRejectedBackpressure = "server.rejected.backpressure",
    }
}

metric_ids! {
    /// The declared [`Gauge`]s.
    GaugeId {
        /// Sessions currently open.
        ServerSessions = "server.sessions",
        /// Requests currently in flight.
        ServerInflight = "server.inflight",
        /// Snapshot pins currently held.
        ServerSnapshotPins = "server.snapshot_pins",
    }
}

metric_ids! {
    /// The declared [`Histogram`]s.
    HistogramId {
        /// Per-run wall time (nanoseconds).
        RunNs = "engine.run_ns",
        /// Per-commit WAL flush latency (nanoseconds).
        WalCommitNs = "engine.wal.commit_ns",
        /// Server read-request latency (nanoseconds).
        ServerReadNs = "server.read_ns",
        /// Server write-request latency (nanoseconds).
        ServerWriteNs = "server.write_ns",
    }
}

/// How many slow-query records the registry retains (newest win).
pub const SLOW_LOG_CAP: usize = 64;

/// One slot per declared metric — fixed arrays of atomics indexed by id,
/// so an update is one relaxed add with no lock and no lookup — plus the
/// slow-query ring. One process-wide instance lives behind [`global`];
/// tests may construct private ones.
pub struct Registry {
    counters: [Counter; CounterId::ALL.len()],
    gauges: [Gauge; GaugeId::ALL.len()],
    histograms: [Histogram; HistogramId::ALL.len()],
    slow_log: Mutex<VecDeque<SlowQuery>>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// A fresh registry: every declared metric at zero.
    pub const fn new() -> Self {
        Registry {
            counters: [const { Counter::new() }; CounterId::ALL.len()],
            gauges: [const { Gauge::new() }; GaugeId::ALL.len()],
            histograms: [const { Histogram::new() }; HistogramId::ALL.len()],
            slow_log: Mutex::new(VecDeque::new()),
        }
    }

    /// The counter `id` names.
    pub fn counter(&self, id: CounterId) -> &Counter {
        &self.counters[id as usize]
    }

    /// The gauge `id` names.
    pub fn gauge(&self, id: GaugeId) -> &Gauge {
        &self.gauges[id as usize]
    }

    /// The histogram `id` names.
    pub fn histogram(&self, id: HistogramId) -> &Histogram {
        &self.histograms[id as usize]
    }

    /// Bump the limit-trip counter matching `code`, if it is one of the
    /// `XQB004x` resource-governance codes.
    pub fn note_limit_trip(&self, code: &str) {
        let id = match code {
            "XQB0040" => CounterId::LimitDepth,
            "XQB0041" => CounterId::LimitFuel,
            "XQB0042" => CounterId::LimitDeadline,
            "XQB0043" => CounterId::LimitMemory,
            _ => return,
        };
        self.counter(id).add(1);
    }

    /// Record a slow query (ring of [`SLOW_LOG_CAP`] entries) and emit its
    /// JSON line to stderr.
    pub fn record_slow(&self, entry: SlowQuery) {
        eprintln!("{}", entry.to_json());
        self.counter(CounterId::SlowQueries).add(1);
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

    /// A point-in-time copy of every declared metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: CounterId::ALL
                .iter()
                .map(|&id| (id.name(), self.counter(id).get()))
                .collect(),
            gauges: GaugeId::ALL
                .iter()
                .map(|&id| (id.name(), self.gauge(id).get()))
                .collect(),
            histograms: HistogramId::ALL
                .iter()
                .map(|&id| (id.name(), self.histogram(id).snapshot()))
                .collect(),
        }
    }

    /// Zero every metric and clear the slow-query ring.
    pub fn reset(&self) {
        self.counters.iter().for_each(Counter::reset);
        self.gauges.iter().for_each(Gauge::reset);
        self.histograms.iter().for_each(Histogram::reset);
        self.slow_log.lock().expect("slow log poisoned").clear();
    }
}

/// A point-in-time copy of a registry's metrics, name-sorted. Every
/// declared metric is present, at zero until something moved it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<&'static str, u64>,
    /// Gauge levels by name.
    pub gauges: BTreeMap<&'static str, i64>,
    /// Histogram aggregates by name.
    pub histograms: BTreeMap<&'static str, HistSnapshot>,
}

impl MetricsSnapshot {
    /// Render as a single JSON object (`xqb:stats()` returns this string):
    /// `{"counters":{...},"gauges":{...},"histograms":{"name":{"count":..,"sum":..,"max":..}}}`.
    pub fn to_json(&self) -> String {
        fn members<V>(map: &BTreeMap<&'static str, V>, value: impl Fn(&V) -> String) -> String {
            let members: Vec<String> = map
                .iter()
                .map(|(k, v)| format!("{}:{}", json_string(k), value(v)))
                .collect();
            members.join(",")
        }
        format!(
            "{{\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
            members(&self.counters, u64::to_string),
            members(&self.gauges, i64::to_string),
            members(&self.histograms, |h| format!(
                "{{\"count\":{},\"sum\":{},\"max\":{}}}",
                h.count, h.sum, h.max
            )),
        )
    }
}

static GLOBAL: Registry = Registry::new();

/// The process-wide registry: the one the engine flushes into and
/// `xqb:stats()` reads.
pub fn global() -> &'static Registry {
    &GLOBAL
}

// ----------------------------------------------------------------------
// slow-query log
// ----------------------------------------------------------------------

/// One slow-query record (threshold set by
/// `Engine::set_slow_query_threshold`, the binaries' `--slow-ms`).
#[derive(Debug, Clone, PartialEq)]
pub struct SlowQuery {
    /// The run's 128-bit plan-cache key, rendered as hex: the program's
    /// fingerprint folded with the module table's — stable across runs of
    /// the same query text until a module is loaded, whatever the index
    /// state.
    pub fingerprint: String,
    /// Wall time in milliseconds.
    pub millis: f64,
    /// Plan-cache outcome: `"hit"`, `"miss"`, or `"uncompiled"`
    /// (`set_compile(false)`).
    pub cache: &'static str,
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
             \"snaps_closed\":{},\"requests_applied\":{}}}}}",
            self.fingerprint, self.millis, self.cache, self.snaps_closed, self.requests_applied
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
    /// Δ requests attributable to this node alone (inclusive minus the
    /// children's inclusive counts).
    pub delta_self: u64,
    /// What the evaluator counted while the node (or any descendant) ran,
    /// summed over calls: `incl.requests_emitted` is the node's inclusive Δ,
    /// and the strategy counters are its `par=` / `batch=` / `idx=`.
    pub incl: EvalStats,
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
    pub fn to_path(path: impl AsRef<std::path::Path>) -> std::io::Result<TraceSink> {
        let file = std::fs::File::create(path)?;
        Ok(TraceSink {
            out: Mutex::new(Box::new(std::io::BufWriter::new(file))),
            next_id: AtomicU64::new(1),
            t0: Instant::now(),
        })
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

/// Nanoseconds since `started`, saturating.
pub fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

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
        let c = r.counter(CounterId::Runs);
        c.add(3);
        r.counter(CounterId::Runs).add(2);
        assert_eq!(c.get(), 5);
        let snap = r.snapshot();
        assert_eq!(snap.counters["engine.runs"], 5);
        r.reset();
        assert_eq!(c.get(), 0);
        // The slot stays live across reset.
        c.add(1);
        assert_eq!(r.snapshot().counters["engine.runs"], 1);
    }

    #[test]
    fn gauges_move_both_ways_and_render() {
        let r = Registry::new();
        let g = r.gauge(GaugeId::ServerInflight);
        g.add(5);
        g.sub(2);
        assert_eq!(g.get(), 3);
        assert_eq!(r.snapshot().gauges["server.inflight"], 3);
        assert!(r
            .snapshot()
            .to_json()
            .contains("\"gauges\":{\"server.inflight\":3,"));
        r.reset();
        assert_eq!(g.get(), 0);
        g.set(-1);
        assert_eq!(r.snapshot().gauges["server.inflight"], -1);
    }

    #[test]
    fn every_declared_metric_is_in_every_snapshot() {
        // Declared means present: a fresh registry lists each id at zero,
        // and no two ids share a name (the maps would come up short).
        let snap = Registry::new().snapshot();
        assert_eq!(snap.counters.len(), CounterId::ALL.len());
        assert_eq!(snap.gauges.len(), GaugeId::ALL.len());
        assert_eq!(snap.histograms.len(), HistogramId::ALL.len());
        assert!(snap.counters.values().all(|&v| v == 0));
    }

    #[test]
    fn note_limit_trip_maps_codes_to_counters() {
        let r = Registry::new();
        for code in [
            "XQB0040", "XQB0041", "XQB0041", "XQB0042", "XQB0043", "FOAR0001",
        ] {
            r.note_limit_trip(code);
        }
        let c = r.snapshot().counters;
        assert_eq!(
            (
                c["engine.limit_trips.depth"],
                c["engine.limit_trips.fuel"],
                c["engine.limit_trips.deadline"],
                c["engine.limit_trips.memory"]
            ),
            (1, 2, 1, 1)
        );
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
    fn snapshot_json_is_pinned() {
        // Key order and spelling are what `xqb:stats()` consumers parse.
        let r = Registry::new();
        r.counter(CounterId::Runs).add(7);
        r.gauge(GaugeId::ServerSessions).set(2);
        r.histogram(HistogramId::RunNs).record(5);
        assert_eq!(
            r.snapshot().to_json(),
            "{\"counters\":{\"engine.batch_nodes\":0,\"engine.batch_steps\":0,\
             \"engine.cache_hits\":0,\"engine.cache_misses\":0,\"engine.errors\":0,\
             \"engine.idx.hits\":0,\"engine.idx.scans\":0,\"engine.joins\":0,\
             \"engine.limit_trips.deadline\":0,\"engine.limit_trips.depth\":0,\
             \"engine.limit_trips.fuel\":0,\"engine.limit_trips.memory\":0,\
             \"engine.plan_nodes\":0,\
             \"engine.requests_applied\":0,\"engine.requests_emitted\":0,\
             \"engine.runs\":7,\"engine.slow_queries\":0,\"engine.snaps_closed\":0,\
             \"engine.wal.bytes\":0,\"engine.wal.checkpoints\":0,\"engine.wal.commits\":0,\
             \"engine.wal.fsyncs\":0,\"engine.wal.records\":0,\
             \"engine.wal.replayed_commits\":0,\"engine.wal.tail_dropped\":0,\
             \"server.errors\":0,\
             \"server.rejected.backpressure\":0,\"server.rejected.sessions\":0,\
             \"server.requests.read\":0,\"server.requests.write\":0},\
             \"gauges\":{\"server.inflight\":0,\"server.sessions\":2,\
             \"server.snapshot_pins\":0},\
             \"histograms\":{\"engine.run_ns\":{\"count\":1,\"sum\":5,\"max\":5},\
             \"engine.wal.commit_ns\":{\"count\":0,\"sum\":0,\"max\":0},\
             \"server.read_ns\":{\"count\":0,\"sum\":0,\"max\":0},\
             \"server.write_ns\":{\"count\":0,\"sum\":0,\"max\":0}}}"
        );
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_string("a\"b\\c\n\u{1}"), "\"a\\\"b\\\\c\\n\\u0001\"");
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
            snaps_closed: 2,
            requests_applied: 3,
        };
        assert_eq!(
            q.to_json(),
            "{\"slow_query\":{\"fingerprint\":\"00ff\",\"millis\":12.500,\"cache\":\"hit\",\
             \"snaps_closed\":2,\"requests_applied\":3}}"
        );
    }
}
