//! E16 — multi-session server throughput (ISSUE 8): what xqserve's
//! snapshot-isolated read path buys under concurrent load.
//!
//! Closed-loop harness against the in-process [`xqcore::Server`] (the
//! same core the xqserve binary fronts with TCP): each session thread
//! issues its next request the moment the previous one returns, and
//! every request's latency is collected client-side.
//!
//! Three workloads over an XMark-shaped document:
//!
//! * **read-1** — one session, read-only queries (the serial baseline).
//! * **read-4** — four sessions, the same read-only queries: reads fork
//!   COW snapshots and share one plan cache, so throughput must not drop
//!   below the single-session baseline (gate self-disabled below 4
//!   cores, where there is no parallelism to win).
//! * **mixed-4** — four sessions, one write per 8 requests: writes
//!   serialize through the durable commit path while reads keep pinning
//!   snapshots; reported separately as read/write p50/p99.
//!
//! Output: a table on stdout and the `server` section of the
//! canonical `BENCH.json` (other sections are preserved).

use std::sync::{Arc, Barrier};
use std::time::Instant;
use xqcore::{Engine, Server, ServerConfig};

const ITEMS: usize = 300;
const READS_PER_SESSION: usize = 250;
const MIXED_PER_SESSION: usize = 200;

/// Read queries cycled per session: a structural scan, an aggregate,
/// and a predicate walk — all pure, all plan-cacheable.
const READ_QUERIES: [&str; 3] = [
    "count($doc/site/items/item)",
    "sum(for $i in $doc/site/items/item return number($i/@n))",
    "count($doc/site/items/item[number(@n) mod 7 = 0])",
];

fn build_server(sessions: usize) -> Server {
    let mut items = String::from("<site><items>");
    for n in 0..ITEMS {
        items.push_str(&format!("<item n=\"{n}\"><name>lot {n}</name></item>"));
    }
    items.push_str("</items><log/></site>");
    let mut e = Engine::new().with_seed(16);
    e.load_document("doc", &items).expect("load");
    e.set_threads(1); // isolate inter-session scaling from intra-query parallelism
    let config = ServerConfig {
        max_sessions: sessions + 1,
        ..ServerConfig::default()
    };
    Server::with_config(e, config)
}

fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

struct Run {
    qps: f64,
    read_ns: Vec<u64>,
    write_ns: Vec<u64>,
}

/// Drive `sessions` closed-loop workers; a request is a write iff its
/// index hits `write_every` (0 = read-only). Returns client-side
/// latencies and wall-clock throughput.
fn drive(server: &Server, sessions: usize, requests: usize, write_every: usize) -> Run {
    let start = Arc::new(Barrier::new(sessions + 1));
    let workers: Vec<_> = (0..sessions)
        .map(|s| {
            let server = server.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                let session = server.open_session().expect("session");
                let mut reads = Vec::with_capacity(requests);
                let mut writes = Vec::new();
                start.wait();
                for i in 0..requests {
                    let is_write = write_every != 0 && i % write_every == write_every - 1;
                    let query = if is_write {
                        format!("insert {{ <e s=\"{s}\" i=\"{i}\"/> }} into {{ $doc/site/log }}")
                    } else {
                        READ_QUERIES[i % READ_QUERIES.len()].to_string()
                    };
                    let t0 = Instant::now();
                    session.execute(&query).expect("request");
                    let ns = t0.elapsed().as_nanos() as u64;
                    if is_write {
                        writes.push(ns);
                    } else {
                        reads.push(ns);
                    }
                }
                (reads, writes)
            })
        })
        .collect();
    start.wait();
    let t0 = Instant::now();
    let mut read_ns = Vec::new();
    let mut write_ns = Vec::new();
    for w in workers {
        let (r, wr) = w.join().expect("worker");
        read_ns.extend(r);
        write_ns.extend(wr);
    }
    let wall = t0.elapsed().as_secs_f64();
    read_ns.sort_unstable();
    write_ns.sort_unstable();
    Run {
        qps: (sessions * requests) as f64 / wall,
        read_ns,
        write_ns,
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "E16: closed-loop server throughput, {ITEMS}-item document, {cores} core(s) available"
    );
    println!(
        "{:<10} {:>10} {:>12} {:>12} {:>12} {:>12}",
        "workload", "qps", "read p50", "read p99", "write p50", "write p99"
    );

    let mut rows: Vec<(&str, Run)> = Vec::new();
    for (tag, sessions, requests, write_every) in [
        ("read-1", 1usize, READS_PER_SESSION, 0usize),
        ("read-4", 4, READS_PER_SESSION, 0),
        ("mixed-4", 4, MIXED_PER_SESSION, 8),
    ] {
        let server = build_server(sessions);
        // Warm the shared plan cache so the first request's planning
        // doesn't skew p99.
        let warm = server.open_session().expect("warm session");
        for q in READ_QUERIES {
            warm.execute(q).expect("warm");
        }
        drop(warm);
        let run = drive(&server, sessions, requests, write_every);
        let p = |v: &[u64], q| percentile(v, q) as f64 / 1e3;
        println!(
            "{tag:<10} {:>10.0} {:>9.1} us {:>9.1} us {:>9.1} us {:>9.1} us",
            run.qps,
            p(&run.read_ns, 0.50),
            p(&run.read_ns, 0.99),
            p(&run.write_ns, 0.50),
            p(&run.write_ns, 0.99),
        );
        // Every request in a mixed run either read a pinned snapshot or
        // committed an epoch; the server's own accounting must agree.
        let stats = server.stats();
        assert_eq!(stats.inflight, 0);
        assert_eq!(stats.snapshot_pins, 0);
        if write_every != 0 {
            assert_eq!(stats.epoch as usize, sessions * (requests / write_every));
        }
        rows.push((tag, run));
    }

    // Acceptance gate (ISSUE 8): concurrent read-only throughput at 4
    // sessions must not fall below 1 session — but only where the
    // machine can actually run 4 readers at once.
    let read1 = rows[0].1.qps;
    let read4 = rows[1].1.qps;
    println!("\nread-4 / read-1 throughput: {:.2}x", read4 / read1);
    if cores >= 4 {
        assert!(
            read4 >= read1,
            "4-session read throughput ({read4:.0} qps) fell below \
             1 session ({read1:.0} qps) on a {cores}-core machine"
        );
        println!("gate: 4-session reads >= 1-session baseline -- OK");
    } else {
        println!("gate: skipped ({cores} core(s) < 4; no parallelism to win)");
    }

    let mut section = String::from("{\n");
    section.push_str(&format!("    \"items\": {ITEMS}"));
    for (tag, run) in &rows {
        let key = tag.replace('-', "_");
        section.push_str(&format!(",\n    \"{key}_qps\": {:.0}", run.qps));
        section.push_str(&format!(
            ",\n    \"{key}_read_p50_us\": {:.1},\n    \"{key}_read_p99_us\": {:.1}",
            percentile(&run.read_ns, 0.50) as f64 / 1e3,
            percentile(&run.read_ns, 0.99) as f64 / 1e3
        ));
        if !run.write_ns.is_empty() {
            section.push_str(&format!(
                ",\n    \"{key}_write_p50_us\": {:.1},\n    \"{key}_write_p99_us\": {:.1}",
                percentile(&run.write_ns, 0.50) as f64 / 1e3,
                percentile(&run.write_ns, 0.99) as f64 / 1e3
            ));
        }
    }
    section.push_str(&format!(
        ",\n    \"read_scaling_4v1\": {:.3}\n  }}",
        read4 / read1
    ));

    xqexp::splice_bench_section("server", &section)?;
    Ok(())
}
