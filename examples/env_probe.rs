//! What a snapshot, a fork and a commit cost when the program environment
//! is not empty (EXPERIMENTS.md E19).
//!
//! The read side builds an engine with one document, a module of 20
//! functions and 8 host bindings, and times `Engine::snapshot_state()` and
//! `EngineSnapshot::reader()` per call, then a whole request on a fork.
//! The `point_read` row times `xqbench`'s `point_read` request in process:
//! `Session::execute` of its 64 texts in turn, on a server over the XMark
//! document `xqbench` generates, once every text has been prepared and
//! planned (DESIGN.md §15).
//! The write side times the §2 logging call on a durable `<log/>` store,
//! once on an engine alone and once on an engine that holds the snapshot
//! of its last commit, as a server that publishes every commit does: the
//! first write after a snapshot pays for copy-on-write. Numbers are
//! printed, nothing is asserted.
//!
//! Everything runs on one deep-stack thread (`xqsyn::stack::spawn_deep`),
//! as `xqserve`'s connection handlers do: on a plain thread every
//! `run_program` would start a fresh deep-stack thread and the probe would
//! time that spawn.
//!
//! ```text
//! cargo run --release --offline --example env_probe
//! ```

use std::hint::black_box;
use std::time::Instant;
use xquery_bang::xmarkgen::{Scale, XmarkGen};
use xquery_bang::xqsyn::stack::spawn_deep;
use xquery_bang::{Engine, ServerConfig, SyncMode};

/// Commits per write-side row.
const COMMITS: usize = 4_000;

/// The §2 logging call `xqbench`'s `log_commit` workload sends.
const LOG_APPEND: &str = "let $l := $doc/log let $n := xs:integer($l/@next) return \
     (replace value of { $l/@next } with { $n + 1 }, \
     insert { <entry id=\"{$n}\" user=\"person7\"/> } into { $l }, $n)";

/// Median over 7 rounds of the mean nanoseconds per call of `f`.
fn per_call_ns(calls: u32, mut f: impl FnMut()) -> f64 {
    let mut rounds: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / f64::from(calls)
        })
        .collect();
    rounds.sort_by(f64::total_cmp);
    rounds[rounds.len() / 2]
}

fn read_side() {
    let mut e = Engine::new();
    e.load_document("doc", "<log><e n=\"1\"/><e n=\"2\"/></log>")
        .unwrap();
    let module: String = (0..20)
        .map(|i| {
            format!(
                "declare function f{i}($x) {{ for $e in $doc/log/e where $e/@n = $x \
                 return <hit n=\"{{$e/@n}}\">{{ count($e/*) + {i} }}</hit> }};\n"
            )
        })
        .collect();
    e.load_module(&module).unwrap();
    let doc = e.binding("doc").unwrap().clone();
    for i in 0..8 {
        e.bind(&format!("v{i}"), doc.clone());
    }

    let snapshot_ns = per_call_ns(20_000, || {
        black_box(e.snapshot_state());
    });
    let snapshot = e.snapshot_state();
    let reader_ns = per_call_ns(20_000, || {
        black_box(snapshot.reader());
    });
    println!("snapshot_state() {snapshot_ns:.0} ns   reader() {reader_ns:.0} ns");

    // A request that calls one module function, on a fork, as a server
    // read runs it. The first run plans; the timed ones hit the cache the
    // forks inherit from the engine.
    let program = e.compile("f3(1)").unwrap();
    snapshot.reader().run_program(&program).unwrap();
    let request_ns = per_call_ns(2_000, || {
        black_box(snapshot.reader().run_program(&program).unwrap());
    });
    println!("reader() + run f3(1), plan-cache hit {request_ns:.0} ns");
}

fn point_read() {
    let xml = XmarkGen::new(1)
        .generate_xml(&Scale::factor(0.0314))
        .unwrap();
    let mut e = Engine::new();
    e.load_document("auction", &xml).unwrap();
    let server = e.into_server(ServerConfig::default());
    let session = server.open_session().unwrap();
    let texts: Vec<String> = (0..64)
        .map(|k| format!("$auction//person[@id = \"person{k}\"]/name"))
        .collect();
    for text in &texts {
        session.execute(text).unwrap();
    }
    let mut next = texts.iter().cycle();
    let request_ns = per_call_ns(10_000, || {
        black_box(session.execute(next.next().unwrap()).unwrap());
    });
    println!("point_read Session::execute, text seen before {request_ns:.0} ns");
}

/// Median microseconds of one logging commit on a fresh durable store,
/// over [`COMMITS`] commits. With `hold_snapshot` the engine publishes a
/// snapshot after every commit and keeps it until the next one.
fn commit_p50_us(sync: SyncMode, hold_snapshot: bool) -> f64 {
    let dir = std::env::temp_dir().join(format!(
        "xqb_env_probe_{}_{sync:?}_{hold_snapshot}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let mut e = Engine::new();
    e.set_durability(sync);
    e.open_store(&dir).unwrap();
    e.load_document("doc", "<log next=\"0\"/>").unwrap();
    let program = e.compile(LOG_APPEND).unwrap();
    let mut held = None;
    let mut us: Vec<f64> = Vec::with_capacity(COMMITS);
    for _ in 0..COMMITS {
        let t = Instant::now();
        black_box(e.run_program(&program).unwrap());
        us.push(t.elapsed().as_secs_f64() * 1e6);
        if hold_snapshot {
            held = Some(e.snapshot_state());
        }
    }
    drop(held);
    drop(e);
    let _ = std::fs::remove_dir_all(&dir);
    us.sort_by(f64::total_cmp);
    us[us.len() / 2]
}

fn write_side() {
    for sync in [SyncMode::Off, SyncMode::Always] {
        let alone = commit_p50_us(sync, false);
        let held = commit_p50_us(sync, true);
        println!(
            "log commit p50 over {COMMITS}, sync {sync:?}: engine alone {alone:.1} us   \
             holding last snapshot {held:.1} us"
        );
    }
}

fn main() {
    spawn_deep("env_probe", || {
        read_side();
        point_read();
        write_side();
    })
    .expect("spawn the probe thread")
    .join()
    .expect("probe thread");
}
