//! The untraced pass: spawn `xqserve`, drive it over TCP in a closed loop
//! (each connection sends its next request when the reply to the last one
//! has been read and checked), and reduce what the clients saw to per-round
//! values.

use crate::json::Json;
use crate::stats::percentile_of;
use crate::wire::{peak_rss_mib_of, Conn, Reply, ServerProc, CPU_TICK_US, ERR_CONFLICT, RESUBMITS};
use crate::workload::{increments_serialized, Inputs, Kind, Ledger, Oracle, Stream, Workload};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// xqserve's default checkpoint interval, in commits since the store was
/// opened. The durability leg uses it to end a fixed distance past a
/// checkpoint; it reports the replay length it actually found, so a changed
/// default shows instead of breaking the run.
const CHECKPOINT_EVERY: u64 = 256;
/// Commits the recovered server replays on top of its checkpoint.
const REPLAY_COMMITS: u64 = 200;
/// Server starts per batch. A batch's value is its fastest start: on a
/// shared host interference only ever adds time, in bursts shorter than a
/// batch, so the fastest of some back-to-back starts is what the start
/// costs. The run's value is the median over batches.
const STARTS_PER_BATCH: usize = 6;
/// The server's peak RSS is read when the run has completed this many
/// requests per connection, prelude and warm-up included: a fixed amount of
/// work, not the end of the run. Memory grows with every commit, so a
/// reading at the end rises with throughput — across ten seeds it followed
/// `join_scan`'s request count from 42 to 53 MiB — and would call a faster
/// server a regression. At today's rates this is three quarters of the way
/// through a `join_scan` run, the workload whose memory grows fastest, and
/// half way through the others.
pub const RSS_AT: u64 = 256;
/// Batches of restarts timed for `recovery_s` (each replays the same log).
const RECOVERY_BATCHES: usize = 5;

/// How long and how often to measure.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Batches of server starts timed for `setup_s` before the rounds and
    /// after them (two moments half a minute apart see different weather).
    pub setup_batches: [usize; 2],
    pub warmup: Duration,
    pub rounds: usize,
    pub round_len: Duration,
    /// The traced pass's TCP leg: also read `STATS`, time `PING`s and sample
    /// the version chain through a control connection, and skip the
    /// durability leg. The end-to-end pass leaves all that out so nothing
    /// but the workload touches the server.
    pub observe: bool,
}

pub struct Host<'a> {
    /// The release `xqserve` beside this executable.
    pub xqserve: &'a Path,
    /// A directory of this run's own; removed by the caller.
    pub tmp: &'a Path,
}

/// `STATS` counters over the measured rounds, plus what the control
/// connection sampled.
#[derive(Debug, Clone, Default)]
pub struct Observed {
    pub ping_rtt_us: Vec<f64>,
    pub cache_hits: f64,
    pub cache_misses: f64,
    pub conflicts: f64,
    pub retries: f64,
    pub writes: f64,
    pub versions_retained_max: f64,
}

#[derive(Debug, Clone, Default)]
pub struct TcpRun {
    pub connections: usize,
    /// Per batch: the fastest spawn → reply to a first query.
    pub setup_s: Vec<f64>,
    /// Per batch: the fastest spawn → banner.
    pub banner_s: Vec<f64>,
    /// Per round: latency samples in µs (for `join_scan`, one per rotation).
    pub latency_us: Vec<Vec<f64>>,
    pub read_us: Vec<Vec<f64>>,
    pub write_us: Vec<Vec<f64>>,
    /// Per round: OK replies per second.
    pub throughput_rps: Vec<f64>,
    /// Server CPU time (user + system, exited threads included) over all the
    /// rounds, in clock ticks, and the requests completed in them. One delta
    /// over the whole measured interval: a round of a stalled workload is a
    /// handful of 10 ms ticks, too few to state per round.
    pub cpu_ticks: u64,
    pub cpu_requests: u64,
    /// Every measured request's latency (for p99).
    pub all_latency_us: Vec<f64>,
    /// The server's `VmHWM` when the run had completed `RSS_AT` requests per
    /// connection, or at the end of a run too short to get there
    /// (`rss_at_end`).
    pub peak_rss_mib: f64,
    pub rss_at_end: bool,
    /// Per batch: the fastest SIGKILL → banner.
    pub recovery_s: Vec<f64>,
    pub replayed_commits: Option<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub resubmits: u64,
    pub reply_bytes: u64,
    pub observed: Option<Observed>,
    /// The first few failures, verbatim.
    pub complaints: Vec<String>,
}

struct Sample {
    /// Completion time in ns relative to the start of round 1 (negative
    /// during warm-up).
    done_ns: i64,
    latency_ns: u64,
    read: bool,
    ok: bool,
}

/// One closed-loop connection.
struct Client<'a> {
    conn: Conn,
    stream: Stream<'a>,
    ledger: Ledger<'a>,
    session: usize,
    samples: Vec<Sample>,
    resubmits: u64,
    reply_bytes: u64,
}

/// Shared by a run's clients: where to read the server's peak RSS.
struct RssProbe {
    pid: u32,
    completed: AtomicU64,
    read_at: u64,
    value: Mutex<Option<f64>>,
}

/// What the ledger judges: the body of an `OK`, or the `ERR` as text.
fn outcome(reply: &Reply) -> Result<&[u8], String> {
    match reply.ok {
        true => Ok(&reply.body),
        false => Err(format!("ERR {} {}", reply.tag, reply.text())),
    }
}

impl Client<'_> {
    /// Send one stream request (resubmitting conflicts), check the reply,
    /// record the sample.
    fn step(&mut self, origin: Instant, rss: &RssProbe) -> Result<(), String> {
        let request = self.stream.next_request();
        let started = Instant::now();
        let mut tries = 0;
        let reply = loop {
            let reply = self.conn.query(&request.text)?;
            self.reply_bytes += reply.wire_bytes as u64;
            if !reply.ok && reply.tag == ERR_CONFLICT && tries < RESUBMITS {
                tries += 1;
                self.resubmits += 1;
                continue;
            }
            break reply;
        };
        let finished = Instant::now();
        let ok = self.ledger.judge(&request, outcome(&reply));
        let done_ns = if finished >= origin {
            (finished - origin).as_nanos() as i64
        } else {
            -((origin - finished).as_nanos() as i64)
        };
        self.samples.push(Sample {
            done_ns,
            latency_ns: (finished - started).as_nanos() as u64,
            read: request.kind == Kind::Read,
            ok,
        });
        // Outside the timed interval: the request that brings the run to a
        // fixed amount of work reads the server's peak RSS.
        if rss.completed.fetch_add(1, Ordering::Relaxed) + 1 == rss.read_at {
            *rss.value.lock().expect("rss slot") = Some(peak_rss_mib_of(rss.pid)?);
        }
        Ok(())
    }

    fn run_until(&mut self, end: Instant, origin: Instant, rss: &RssProbe) -> Result<(), String> {
        while Instant::now() < end {
            self.step(origin, rss)?;
        }
        Ok(())
    }

    /// A checking read outside the stream: the reply must be `expected`.
    fn expect(&mut self, what: &str, query: &str, expected: &str) -> Result<(), String> {
        let reply = self.conn.query(query)?;
        self.ledger.expect(what, outcome(&reply), expected);
        Ok(())
    }

    /// `log_commit`: `@next` and the entries' ids are exactly the
    /// acknowledged commits — unique, gapless, in order.
    fn check_log(&mut self, when: &str) -> Result<(), String> {
        let n = self.ledger.log_acked;
        self.expect(
            &format!("{when}: @next"),
            "string($doc/log/@next)",
            &n.to_string(),
        )?;
        self.expect(
            &format!("{when}: entry ids"),
            "for $e in $doc/log/entry return string($e/@id)",
            &join(0..n),
        )
    }
}

fn join(ids: impl IntoIterator<Item = u64>) -> String {
    ids.into_iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(" ")
}

/// `mixed_sessions`: the shared counter equals the acknowledged increments,
/// each of which read a different value; each container holds exactly its
/// session's acknowledged appends.
fn check_mixed(clients: &mut [Client]) -> Result<(), String> {
    let ledgers: Vec<&Ledger> = clients.iter().map(|c| &c.ledger).collect();
    let increments = match increments_serialized(&ledgers) {
        Ok(n) => n,
        Err(why) => {
            let n = ledgers.iter().map(|l| l.increments_seen.len() as u64).sum();
            clients[0].ledger.complain(why);
            n
        }
    };
    clients[0].expect(
        "shared counter",
        "string($bench/bench/counter/@v)",
        &increments.to_string(),
    )?;
    for c in clients.iter_mut() {
        let query = format!(
            "for $e in $bench/bench/s{}/e return string($e/@n)",
            c.session
        );
        let expected = join(c.ledger.appends_acked.iter().copied());
        c.expect("session container", &query, &expected)?;
    }
    Ok(())
}

fn stats(control: &mut Conn) -> Result<Json, String> {
    let reply = control.command("STATS")?;
    if !reply.ok {
        return Err(format!("STATS failed: {}", reply.text()));
    }
    Json::parse(&reply.text())
}

fn counter(stats: &Json, key: &str) -> f64 {
    stats.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Starts servers for one workload, each on a fresh `--store` where the
/// workload has one, and times them.
struct Starter<'a> {
    workload: Workload,
    xqserve: &'a Path,
    tmp: &'a Path,
    doc_args: Vec<String>,
    started: usize,
}

impl<'a> Starter<'a> {
    /// Writes the workload's documents under `tmp`.
    fn new(workload: Workload, inputs: &Inputs, host: &Host<'a>) -> Result<Starter<'a>, String> {
        let mut doc_args = Vec::new();
        for (var, xml) in workload.documents(inputs) {
            let path = host.tmp.join(format!("{var}.xml"));
            std::fs::write(&path, xml).map_err(|e| format!("write {}: {e}", path.display()))?;
            doc_args.extend(["--doc".to_string(), format!("{var}={}", path.display())]);
        }
        Ok(Starter {
            workload,
            xqserve: host.xqserve,
            tmp: host.tmp,
            doc_args,
            started: 0,
        })
    }

    /// One fresh start, up to the reply to a first, trivial query:
    /// `(server, connection, its store, seconds to the banner, seconds to
    /// that reply)`.
    fn start(&mut self) -> Result<(ServerProc, Conn, PathBuf, f64, f64), String> {
        let store = self.tmp.join(format!("store-{}", self.started));
        self.started += 1;
        let mut args = Vec::new();
        if self.workload.durable() {
            args.extend(["--store".to_string(), store.display().to_string()]);
        }
        args.extend(self.doc_args.iter().cloned());
        let started = Instant::now();
        let (server, mut conn, to_banner) = ServerProc::spawn_connected(self.xqserve, &args)?;
        let reply = conn.query("1")?;
        let to_reply = started.elapsed().as_secs_f64();
        if !reply.ok || reply.body != b"1" {
            return Err(format!("the query `1` replied {:?}", reply.text()));
        }
        Ok((server, conn, store, to_banner, to_reply))
    }

    /// `batches` batches of starts; each batch's fastest time to the banner
    /// and to the first reply go to `out`. Returns the last server started,
    /// still running.
    fn batches(
        &mut self,
        batches: usize,
        out: &mut TcpRun,
    ) -> Result<Option<(ServerProc, Conn, PathBuf)>, String> {
        let mut live = None;
        for _ in 0..batches {
            let mut fastest = (f64::INFINITY, f64::INFINITY);
            for _ in 0..STARTS_PER_BATCH {
                // Kill the previous one first: one server at a time.
                drop(live.take());
                let (server, conn, store, to_banner, to_reply) = self.start()?;
                fastest = (fastest.0.min(to_banner), fastest.1.min(to_reply));
                live = Some((server, conn, store));
            }
            out.banner_s.push(fastest.0);
            out.setup_s.push(fastest.1);
        }
        Ok(live)
    }
}

pub fn run(
    workload: Workload,
    inputs: &Inputs,
    oracle: &Oracle,
    plan: Plan,
    host: &Host,
) -> Result<TcpRun, String> {
    let mut out = TcpRun {
        connections: workload.connections(),
        ..TcpRun::default()
    };

    // Set-up, many times over; the last server started is the one driven.
    let mut starter = Starter::new(workload, inputs, host)?;
    let (server, first_conn, store) = starter
        .batches(plan.setup_batches[0].max(1), &mut out)?
        .expect("at least one batch");

    let mut conns = vec![first_conn];
    while conns.len() < out.connections {
        conns.push(Conn::connect(server.addr)?);
    }
    let mut clients: Vec<Client> = conns
        .into_iter()
        .enumerate()
        .map(|(session, conn)| Client {
            conn,
            stream: Stream::new(workload, inputs, session),
            ledger: Ledger::new(oracle),
            session,
            samples: Vec::new(),
            resubmits: 0,
            reply_bytes: 0,
        })
        .collect();

    let mut control = match plan.observe {
        true => Some(Conn::connect(server.addr)?),
        false => None,
    };
    let mut observed = Observed::default();
    if let Some(control) = &mut control {
        for _ in 0..200 {
            let t = Instant::now();
            control.command("PING")?;
            observed.ping_rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }

    let rss = RssProbe {
        pid: server.pid(),
        completed: AtomicU64::new(0),
        read_at: RSS_AT * out.connections as u64,
        value: Mutex::new(None),
    };

    // Not timed: fill the plan cache (see `Workload::prelude`).
    let no_origin = Instant::now();
    for client in &mut clients {
        for _ in 0..workload.prelude() {
            client.step(no_origin, &rss)?;
        }
        client.samples.clear();
    }

    let origin = Instant::now() + plan.warmup;
    let end = origin + plan.round_len * plan.rounds as u32;
    let mut cpu_before = 0;
    let mut stats_before = None;
    std::thread::scope(|scope| -> Result<(), String> {
        let rss = &rss;
        let workers: Vec<_> = clients
            .iter_mut()
            .map(|c| scope.spawn(move || c.run_until(end, origin, rss)))
            .collect();
        // This thread keeps time: server CPU where the rounds start and end.
        for boundary in 0..=plan.rounds {
            let at = origin + plan.round_len * boundary as u32;
            loop {
                let now = Instant::now();
                if now >= at {
                    break;
                }
                match (&mut control, boundary) {
                    // Between boundaries the control connection samples how
                    // many versions readers keep alive.
                    (Some(control), 1..) => {
                        let s = stats(control)?;
                        observed.versions_retained_max = observed
                            .versions_retained_max
                            .max(counter(&s, "versions_retained"));
                        let left = at.saturating_duration_since(Instant::now());
                        std::thread::sleep(left.min(Duration::from_millis(50)));
                    }
                    _ => std::thread::sleep(at - now),
                }
            }
            if boundary == 0 {
                cpu_before = server.cpu_ticks()?;
                if let Some(control) = &mut control {
                    stats_before = Some(stats(control)?);
                }
            }
        }
        out.cpu_ticks = server.cpu_ticks()? - cpu_before;
        for w in workers {
            w.join().map_err(|_| "a client thread panicked")??;
        }
        Ok(())
    })?;

    if let (Some(control), Some(before)) = (&mut control, stats_before) {
        let after = stats(control)?;
        let delta = |key| counter(&after, key) - counter(&before, key);
        observed.cache_hits = delta("cache_hits");
        observed.cache_misses = delta("cache_misses");
        observed.conflicts = delta("conflicts");
        observed.retries = delta("retries");
        observed.writes = delta("writes");
        out.observed = Some(observed);
    }
    drop(control);

    // Reduce samples to rounds before the durability leg adds more.
    reduce(workload, plan, &clients, &mut out)?;

    match workload {
        Workload::LogCommit => {
            let client = &mut clients[0];
            if !plan.observe {
                // The document load was the store's first commit; stop a
                // fixed number of commits past the latest checkpoint.
                // At most one interval's worth of steps gets there, unless
                // the server has stopped acknowledging.
                let mut steps = 0;
                while (1 + client.ledger.log_acked) % CHECKPOINT_EVERY != REPLAY_COMMITS {
                    steps += 1;
                    if steps > 2 * CHECKPOINT_EVERY {
                        return Err(format!(
                            "durability leg: {steps} more requests did not bring the log to \
                             {REPLAY_COMMITS} commits past a checkpoint; it holds {} ({:?})",
                            client.ledger.log_acked, client.ledger.complaints
                        ));
                    }
                    client.step(origin, &rss)?;
                }
            }
            client.check_log("before the kill")?;
        }
        Workload::MixedSessions => check_mixed(&mut clients)?,
        Workload::PointRead | Workload::JoinScan => {}
    }

    let reached = *rss.value.lock().expect("rss slot");
    out.rss_at_end = reached.is_none();
    out.peak_rss_mib = match reached {
        Some(mib) => mib,
        None => peak_rss_mib_of(rss.pid)?,
    };

    // SIGKILL: the process gets no chance to flush, but the operating
    // system's cache survives — the durability leg checks the server's own
    // bookkeeping, not the device's.
    server.kill();
    if workload.durable() && !plan.observe {
        let args = vec!["--store".to_string(), store.display().to_string()];
        for batch in 0..RECOVERY_BATCHES {
            let mut fastest = f64::INFINITY;
            for i in 0..STARTS_PER_BATCH {
                let (server, conn, secs) = ServerProc::spawn_connected(host.xqserve, &args)?;
                fastest = fastest.min(secs);
                if (batch, i) == (0, 0) {
                    let client = &mut clients[0];
                    client.conn = conn;
                    client.check_log("after recovery")?;
                }
                server.kill();
            }
            out.recovery_s.push(fastest);
        }
        let (_, report) = xquery_bang::Store::open_durable(&store, xquery_bang::SyncMode::Always)
            .map_err(|e| format!("reopen {}: {e}", store.display()))?;
        out.replayed_commits = Some(report.replayed_commits);
    }
    drop(starter.batches(plan.setup_batches[1], &mut out)?);

    for c in &mut clients {
        out.attempted += c.ledger.attempted;
        out.failed += c.ledger.failed;
        out.resubmits += c.resubmits;
        out.reply_bytes += c.reply_bytes;
        out.complaints.append(&mut c.ledger.complaints);
    }
    out.complaints.truncate(5);
    Ok(out)
}

/// Bucket every client's samples into rounds by completion time.
fn reduce(
    workload: Workload,
    plan: Plan,
    clients: &[Client],
    out: &mut TcpRun,
) -> Result<(), String> {
    let round_ns = plan.round_len.as_nanos() as i64;
    let round_of = |s: &Sample| {
        let r = s.done_ns.div_euclid(round_ns);
        (s.done_ns >= 0 && r < plan.rounds as i64).then_some(r as usize)
    };
    // One latency sample per whole group of `size` consecutive requests
    // (their mean), filed under the round the group's last request
    // completed in. Groups start at the head of the stream, so each holds
    // one request of every kind that alternates.
    let file = |samples: Vec<&Sample>, size: usize, rounds: &mut Vec<Vec<f64>>| {
        for group in samples.chunks_exact(size) {
            if let Some(r) = round_of(group[size - 1]) {
                let total: u64 = group.iter().map(|s| s.latency_ns).sum();
                rounds[r].push(total as f64 / 1e3 / size as f64);
            }
        }
    };
    out.throughput_rps = vec![0.0; plan.rounds];
    out.latency_us = vec![Vec::new(); plan.rounds];
    out.read_us = vec![Vec::new(); plan.rounds];
    out.write_us = vec![Vec::new(); plan.rounds];
    for c in clients {
        // A closed loop sends back to back, so a request occupied its
        // connection from the previous completion to its own. A client's
        // rate in a round is the replies it completed there over the time
        // they occupied, whatever fraction of a request the round boundary
        // cut off; connections add.
        let mut ok = vec![0u64; plan.rounds];
        let mut occupied_ns = vec![0i64; plan.rounds];
        let mut previous = 0;
        for s in &c.samples {
            if let Some(r) = round_of(s) {
                out.cpu_requests += 1;
                out.all_latency_us.push(s.latency_ns as f64 / 1e3);
                ok[r] += u64::from(s.ok);
                occupied_ns[r] += s.done_ns - previous;
            }
            previous = s.done_ns.max(0);
        }
        for r in 0..plan.rounds {
            if occupied_ns[r] > 0 {
                out.throughput_rps[r] += ok[r] as f64 * 1e9 / occupied_ns[r] as f64;
            }
        }
        file(
            c.samples.iter().collect(),
            workload.cycle(),
            &mut out.latency_us,
        );
        file(
            c.samples.iter().filter(|s| s.read).collect(),
            1,
            &mut out.read_us,
        );
        file(
            c.samples.iter().filter(|s| !s.read).collect(),
            workload.write_cycle(),
            &mut out.write_us,
        );
    }
    let secs = plan.round_len.as_secs_f64();
    for r in 0..plan.rounds {
        if out.latency_us[r].is_empty() {
            return Err(format!(
                "round {} of {} completed no request in {secs} s; lengthen --seconds",
                r + 1,
                plan.rounds
            ));
        }
    }
    Ok(())
}

impl TcpRun {
    pub fn p99_us(&self) -> f64 {
        percentile_of(&self.all_latency_us, 0.99)
    }

    pub fn cpu_us_per_req(&self) -> f64 {
        self.cpu_ticks as f64 * CPU_TICK_US / self.cpu_requests.max(1) as f64
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}
