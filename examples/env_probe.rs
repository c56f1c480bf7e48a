//! What a snapshot, a fork and a commit cost when the program environment
//! is not empty (EXPERIMENTS.md E19).
//!
//! The read side builds an engine with one document, a module of 20
//! functions and 8 host bindings, and times `Engine::snapshot_state()` and
//! `EngineSnapshot::reader()` per call, then a whole request on a fork.
//! The `point_read` row times `xqbench`'s `point_read` request in process:
//! `Session::execute` of its 64 texts in turn, on a server over the XMark
//! document `xqbench` generates, once every text has been prepared and
//! planned (DESIGN.md §15). The `sum_prices` row times `mixed_sessions`'
//! one aggregate text the same way, on the same document: a built-in
//! call over an index-driven batch path (DESIGN.md §8).
//! The write side times the §2 logging call on a durable `<log/>` store,
//! once on an engine alone and once on an engine that holds the snapshot
//! of its last commit, as a server that publishes every commit does: the
//! first write after a snapshot pays for copy-on-write. The last row is
//! the heap the shared plan cache holds once `log_commit`'s 64 texts have
//! each been run: its plans and its prepared texts, measured as the fall
//! in live heap bytes when the cache is dropped (a counting global
//! allocator keeps the live total; it adds one relaxed atomic add per
//! allocation and per free to every row). Numbers are printed, nothing is
//! asserted.
//!
//! Everything runs on one deep-stack thread (`xqsyn::stack::spawn_deep`),
//! as `xqserve`'s connection handlers do: on a plain thread every
//! `run_program` would start a fresh deep-stack thread and the probe would
//! time that spawn.
//!
//! ```text
//! cargo run --release --offline --example env_probe
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Instant;
use xquery_bang::xmarkgen::{Scale, XmarkGen};
use xquery_bang::xqcore::SharedPlanCache;
use xquery_bang::xqsyn::stack::spawn_deep;
use xquery_bang::{Engine, Server, ServerConfig, SyncMode};

/// System allocator that keeps the process's live heap bytes: an
/// allocation adds its size, a free subtracts it, a reallocation adds the
/// difference.
struct CountingAlloc;

/// A statistic only (it publishes no other data), hence `Relaxed`.
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is all that is added.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE_BYTES.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE_BYTES.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Commits per write-side row.
const COMMITS: usize = 4_000;

/// Distinct texts of `xqbench`'s `log_commit` stream: one per person id.
const LOG_TEXTS: usize = 64;

/// The §2 logging call `xqbench`'s `log_commit` workload sends for
/// `person`.
fn log_append(person: usize) -> String {
    format!(
        "let $l := $doc/log let $n := xs:integer($l/@next) return \
         (replace value of {{ $l/@next }} with {{ $n + 1 }}, \
         insert {{ <entry id=\"{{$n}}\" user=\"person{person}\"/> }} into {{ $l }}, $n)"
    )
}

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
    // The same request as a text seen before: its prepared entry carries
    // the program, whose fingerprint keys the plan.
    let text_ns = per_call_ns(2_000, || {
        black_box(snapshot.reader().run("f3(1)").unwrap());
    });
    println!("reader() + run \"f3(1)\" text, prepared {text_ns:.0} ns");
}

/// A server over the XMark document `xqbench` generates.
fn xmark_server() -> Server {
    let xml = XmarkGen::new(1)
        .generate_xml(&Scale::factor(0.0314))
        .unwrap();
    let mut e = Engine::new();
    e.load_document("auction", &xml).unwrap();
    e.into_server(ServerConfig::default())
}

fn point_read(server: &Server) {
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

/// `mixed_sessions`' aggregate text, one request after another.
fn sum_prices(server: &Server) {
    const SUM_PRICES: &str = "sum($auction//closed_auction/price)";
    let session = server.open_session().unwrap();
    session.execute(SUM_PRICES).unwrap();
    let request_ns = per_call_ns(500, || {
        black_box(session.execute(SUM_PRICES).unwrap());
    });
    println!(
        "sum_prices Session::execute, text seen before {:.1} us",
        request_ns / 1e3
    );
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
    let program = e.compile(&log_append(7)).unwrap();
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

/// The heap a shared plan cache holds after `log_commit`'s text stream
/// (each of its texts, four times over): what dropping the cache frees.
fn plan_cache_bytes() {
    let mut e = Engine::new();
    e.load_document("doc", "<log next=\"0\"/>").unwrap();
    let cache = SharedPlanCache::new();
    e.set_shared_plan_cache(cache.clone());
    for _ in 0..4 {
        for person in 0..LOG_TEXTS {
            black_box(e.run(&log_append(person)).unwrap());
        }
    }
    e.set_shared_plan_cache(SharedPlanCache::new());
    let plans = cache.len();
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    drop(cache);
    let held = before - LIVE_BYTES.load(Ordering::Relaxed);
    println!(
        "plan cache after log_commit's {LOG_TEXTS} texts: {plans} plans and their prepared \
         texts hold {held} B ({} B per text)",
        held / LOG_TEXTS as i64
    );
}

fn main() {
    spawn_deep("env_probe", || {
        read_side();
        let server = xmark_server();
        point_read(&server);
        sum_prices(&server);
        write_side();
        plan_cache_bytes();
    })
    .expect("spawn the probe thread")
    .join()
    .expect("probe thread");
}
