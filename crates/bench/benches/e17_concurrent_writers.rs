//! E17 — optimistic concurrent writers (ISSUE 9): what the Δ-footprint
//! commit path buys — and costs — under multi-writer load.
//!
//! Closed-loop harness against the in-process [`xqcore::Server`], like
//! E16 but write-only. Two workloads at 1/2/4 writers:
//!
//! * **disjoint** — each writer appends into its own container. The
//!   footprints never intersect, so every Δ validates on the first try;
//!   this measures the pure overhead/benefit of optimistic evaluation
//!   (forked evaluation overlaps, only the commit serializes).
//! * **contended** — every writer read-modify-writes one shared counter
//!   (`replace value of`, the §2.5 nextid shape). This is the worst
//!   case: almost every concurrent Δ conflicts, retries, and may fall
//!   back to the client's XQB0052 re-submit loop. The harness asserts
//!   the lost-update invariant — the final counter equals the total
//!   number of increments — at every writer count.
//!
//! For comparison, both workloads also run at 4 writers with
//! `occ_writers: false` (the PR-8 fully-serialized path), so the table
//! shows the conflict-rate sweep *and* the occ-vs-lock delta.
//!
//! Output: a table on stdout and the `concurrency` section of the
//! canonical `BENCH.json` (other sections are preserved).

use std::sync::{Arc, Barrier};
use std::time::Instant;
use xqcore::{Engine, Error, Server, ServerConfig};

const REQUESTS_PER_WRITER: usize = 150;

fn build_server(writers: usize, occ: bool) -> Server {
    let mut doc = String::from("<site><c>0</c>");
    for s in 0..writers {
        doc.push_str(&format!("<w{s}/>"));
    }
    doc.push_str("</site>");
    let mut e = Engine::new().with_seed(17);
    e.load_document("doc", &doc).expect("load");
    let config = ServerConfig {
        max_sessions: writers + 1,
        occ_writers: occ,
        ..ServerConfig::default()
    };
    Server::with_config(e, config)
}

struct Run {
    qps: f64,
    conflicts: u64,
    retries: u64,
    resubmits: u64,
    commits: u64,
}

/// Drive `writers` closed-loop sessions through `requests` writes each.
/// The per-request query comes from `query(s, i)`; XQB0052 aborts are
/// re-submitted (the documented client contract) and counted.
fn drive(
    server: &Server,
    writers: usize,
    requests: usize,
    query: impl Fn(usize, usize) -> String + Send + Sync + 'static,
) -> Run {
    // The metrics registry is process-global: measure by delta.
    let before = server.stats();
    let query = Arc::new(query);
    let start = Arc::new(Barrier::new(writers + 1));
    let workers: Vec<_> = (0..writers)
        .map(|s| {
            let server = server.clone();
            let start = start.clone();
            let query = query.clone();
            std::thread::spawn(move || {
                let session = server.open_session().expect("session");
                let mut resubmits = 0u64;
                start.wait();
                for i in 0..requests {
                    let q = query(s, i);
                    loop {
                        match session.execute(&q) {
                            Ok(_) => break,
                            Err(Error::Eval(e)) if e.code == "XQB0052" => resubmits += 1,
                            Err(e) => panic!("{q}: {e}"),
                        }
                    }
                }
                resubmits
            })
        })
        .collect();
    start.wait();
    let t0 = Instant::now();
    let mut resubmits = 0;
    for w in workers {
        resubmits += w.join().expect("worker");
    }
    let wall = t0.elapsed().as_secs_f64();
    let after = server.stats();
    Run {
        qps: (writers * requests) as f64 / wall,
        conflicts: after.conflicts - before.conflicts,
        retries: after.retries - before.retries,
        resubmits,
        commits: after.epoch - before.epoch,
    }
}

fn counter_of(server: &Server) -> u64 {
    let s = server.open_session().expect("probe session");
    s.execute("string($doc/site/c)")
        .expect("probe")
        .body
        .parse()
        .expect("numeric counter")
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "E17: closed-loop concurrent writers, {REQUESTS_PER_WRITER} writes/writer, \
         {cores} core(s) available"
    );
    println!(
        "{:<16} {:>10} {:>10} {:>9} {:>10} {:>9}",
        "workload", "qps", "conflicts", "retries", "resubmits", "rate"
    );

    let mut rows: Vec<(String, Run)> = Vec::new();
    let configs: [(&str, usize, bool); 8] = [
        ("disjoint-1", 1, true),
        ("disjoint-2", 2, true),
        ("disjoint-4", 4, true),
        ("disjoint-4-lock", 4, false),
        ("contended-1", 1, true),
        ("contended-2", 2, true),
        ("contended-4", 4, true),
        ("contended-4-lock", 4, false),
    ];
    for (tag, writers, occ) in configs {
        let server = build_server(writers, occ);
        let contended = tag.starts_with("contended");
        let run = if contended {
            drive(&server, writers, REQUESTS_PER_WRITER, |_, _| {
                "replace value of { $doc/site/c/text() } with { $doc/site/c + 1 }".to_string()
            })
        } else {
            drive(&server, writers, REQUESTS_PER_WRITER, |s, i| {
                format!("insert {{ <e i=\"{i}\"/> }} into {{ $doc/site/w{s} }}")
            })
        };

        // Hard invariants, whatever the interleaving:
        if contended {
            // The lost-update gate — every increment survived validation,
            // retry, or client re-submit.
            assert_eq!(
                counter_of(&server),
                (writers * REQUESTS_PER_WRITER) as u64,
                "{tag}: lost update"
            );
        } else {
            // Disjoint footprints must never conflict.
            assert_eq!(run.conflicts, 0, "{tag}: disjoint writers conflicted");
            assert_eq!(run.resubmits, 0, "{tag}: disjoint writers aborted");
        }
        // Every client request eventually committed exactly once — an
        // XQB0052 abort publishes nothing, and the client re-submitted.
        assert_eq!(
            run.commits,
            (writers * REQUESTS_PER_WRITER) as u64,
            "{tag}: commit accounting"
        );

        let rate = run.conflicts as f64 / run.commits as f64;
        println!(
            "{tag:<16} {:>10.0} {:>10} {:>9} {:>10} {:>8.1}%",
            run.qps,
            run.conflicts,
            run.retries,
            run.resubmits,
            rate * 100.0
        );
        rows.push((tag.to_string(), run));
    }

    let mut section = String::from("{\n");
    section.push_str(&format!(
        "    \"requests_per_writer\": {REQUESTS_PER_WRITER}"
    ));
    for (tag, run) in &rows {
        let key = tag.replace('-', "_");
        section.push_str(&format!(
            ",\n    \"{key}_qps\": {:.0},\n    \"{key}_conflicts\": {},\n    \
             \"{key}_retries\": {},\n    \"{key}_resubmits\": {}",
            run.qps, run.conflicts, run.retries, run.resubmits
        ));
    }
    section.push_str("\n  }");

    xqexp::splice_bench_section("concurrency", &section)?;
    Ok(())
}
