//! E14 — durable-commit latency (ISSUE 6): what one committed Δ costs
//! under each fsync policy.
//!
//! Workload: a stream of small single-insert commits (the paper's
//! Web-service shape — many tiny service calls, each one snap), measured
//! per-commit, medians of `REPS` streams:
//!
//! * **none**  — in-memory engine, no WAL attached (the PR-5 baseline).
//! * **off**   — WAL appends, no explicit fsync.
//! * **batch** — fsync once per 32 commits.
//! * **always**— fsync on every commit marker (the default; full
//!   process- and OS-crash safety).
//!
//! After the `always` stream the store is re-opened and its fingerprint
//! checked against the live engine — a recovery smoke on every bench run.
//!
//! Output: a table on stdout and the `durability` section of the
//! canonical `BENCH.json` (other sections are preserved).

use std::time::Instant;
use xqcore::Engine;
use xqdm::{Store, SyncMode};

const REPS: usize = 5;
const COMMITS: usize = 100;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn temp_dir(tag: &str, rep: usize) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("xqb_e14_{}_{tag}_{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Median per-commit seconds for a stream of small insert commits.
/// `sync = None` runs fully in-memory (no WAL). Returns the medians and,
/// for the durable modes, the last stream's directory fingerprint pair
/// (live, recovered) for the recovery smoke.
fn time_stream(sync: Option<SyncMode>, tag: &str) -> (f64, Option<(u64, u64)>) {
    let mut per_commit = Vec::with_capacity(REPS);
    let mut smoke = None;
    for rep in 0..REPS {
        let mut e = Engine::new().with_seed(14);
        let dir = temp_dir(tag, rep);
        if let Some(mode) = sync {
            e.set_durability(mode);
            e.open_store(&dir).expect("open store");
        }
        e.load_document("doc", "<site/>").expect("load");
        let t0 = Instant::now();
        for i in 0..COMMITS {
            e.run(&format!("insert {{ <e n=\"{i}\"/> }} into {{ $doc/site }}"))
                .expect("insert commit");
        }
        per_commit.push(t0.elapsed().as_secs_f64() / COMMITS as f64);
        if sync.is_some() && rep == REPS - 1 {
            let live = e.store.fingerprint();
            drop(e);
            let (store, _report) =
                Store::open_durable(&dir, SyncMode::Off).expect("recovery smoke");
            smoke = Some((live, store.fingerprint()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    (median(per_commit), smoke)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("E14: per-commit latency, {COMMITS} single-insert commits, median of {REPS} streams");
    println!("{:<10} {:>14} {:>10}", "sync", "per-commit", "vs none");

    let modes: [(&str, Option<SyncMode>); 4] = [
        ("none", None),
        ("off", Some(SyncMode::Off)),
        ("batch", Some(SyncMode::Batch)),
        ("always", Some(SyncMode::Always)),
    ];
    let mut results: Vec<(&str, f64)> = Vec::new();
    let mut baseline = None;
    for (tag, sync) in modes {
        let (t, smoke) = time_stream(sync, tag);
        if let Some((live, recovered)) = smoke {
            assert_eq!(
                live, recovered,
                "{tag}: recovered fingerprint diverged from the live store"
            );
        }
        let base = *baseline.get_or_insert(t);
        println!("{tag:<10} {:>11.2} us {:>9.2}x", t * 1e6, t / base);
        results.push((tag, t));
    }

    let mut section = String::from("{\n");
    section.push_str(&format!("    \"commits_per_stream\": {COMMITS},\n"));
    for (i, (tag, t)) in results.iter().enumerate() {
        if i > 0 {
            section.push_str(",\n");
        }
        section.push_str(&format!("    \"per_commit_us_{tag}\": {:.3}", t * 1e6));
    }
    section.push_str("\n  }");

    xqexp::splice_bench_section("durability", &section)?;
    Ok(())
}
