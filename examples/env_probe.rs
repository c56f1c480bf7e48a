//! What a snapshot and a fork cost when the program environment is not
//! empty (EXPERIMENTS.md E19): an engine with one document, a module of 20
//! functions and 8 host bindings; `Engine::snapshot_state()` and
//! `EngineSnapshot::reader()` timed per call, then a whole request on a
//! fork. Numbers are printed, nothing is asserted.
//!
//! ```text
//! cargo run --release --offline --example env_probe
//! ```

use std::hint::black_box;
use std::time::Instant;
use xquery_bang::Engine;

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

fn main() {
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
