//! E15 — the raw-speed data model (DESIGN.md §14): what the interned
//! names, batch step kernels, and scratch reuse buy on real workloads.
//!
//! Three measurements, medians of `REPS` runs:
//!
//! * **parse MB/s** — XMark XML text into a fresh store (interner hot
//!   path: every tag name interns once, then compares as a `u32`).
//! * **serialize MB/s** — the same document back to text (ids resolve
//!   lexically; serialization is the bit-compatibility boundary the
//!   fingerprint pins in `tests/data_model.rs` guard).
//! * **compiled XMark Q8, 800 persons** — the engine-default pipeline
//!   with batched join sources and key paths, against the committed
//!   PR-6 row (`engine_s` 0.022494, BENCH.json history): the PR 7
//!   acceptance line is ≥2× on this row.
//!
//! Output: a table on stdout and the `data_model` section of the
//! canonical `BENCH.json` (other sections are preserved).

use std::time::Instant;
use xmarkgen::{Scale, XmarkGen};
use xqcore::Engine;
use xqdm::item::Item;
use xqdm::{xml, Store};

const REPS: usize = 5;
/// The committed PR-6 compiled-Q8 row at 800 persons (BENCH.json).
const PR6_Q8_800_S: f64 = 0.022494;
/// Regression tripwire: generous slack under the ≥2× acceptance line so
/// a loud CI container reports honestly instead of flaking; the real
/// measured speedup lands in BENCH.json either way.
const MIN_SPEEDUP: f64 = 1.5;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn q8_engine(scale: &Scale) -> Engine {
    let mut e = Engine::new();
    let auction = XmarkGen::new(8)
        .generate(&mut e.store, scale)
        .expect("generate xmark");
    let purchasers = xml::parse_fragment(&mut e.store, "<purchasers/>").expect("purchasers")[0];
    e.bind("auction", xqdm::seq![Item::Node(auction)]);
    e.bind("purchasers", xqdm::seq![Item::Node(purchasers)]);
    e
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- parse / serialize throughput -------------------------------
    let scale = Scale::join_sides(800, 400);
    let text = XmarkGen::new(8).generate_xml(&scale).expect("xmark xml");
    let mb = text.len() as f64 / (1024.0 * 1024.0);

    let mut parse_s = Vec::with_capacity(REPS);
    let mut serialize_s = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut store = Store::new();
        let t0 = Instant::now();
        let doc = xml::parse_document(&mut store, &text)?;
        parse_s.push(t0.elapsed().as_secs_f64());
        let t0 = Instant::now();
        let out = xml::serialize(&store, doc)?;
        serialize_s.push(t0.elapsed().as_secs_f64());
        assert!(!out.is_empty());
    }
    let parse_mbs = mb / median(parse_s);
    let serialize_mbs = mb / median(serialize_s);
    println!("E15: data model, {mb:.2} MiB XMark document, median of {REPS}");
    println!("  parse:     {parse_mbs:>8.1} MiB/s");
    println!("  serialize: {serialize_mbs:>8.1} MiB/s");

    // --- compiled Q8 with batched sources and keys ------------------
    let mut q8_s = Vec::with_capacity(REPS);
    let mut rows = 0usize;
    for _ in 0..REPS {
        let mut e = q8_engine(&scale);
        let t0 = Instant::now();
        let out = e.run(xqexp::Q8_VARIANT)?;
        q8_s.push(t0.elapsed().as_secs_f64());
        rows = out.len();
        let stats = e.last_stats().expect("stats");
        assert!(stats.joins_executed > 0, "Q8 did not take the join plan");
        assert!(stats.batch_steps > 0, "Q8 join did not run batch kernels");
    }
    assert_eq!(rows, 800);
    let q8 = median(q8_s);
    let speedup = PR6_Q8_800_S / q8;
    println!(
        "  compiled Q8 (800 persons): {:.2} ms vs {:.2} ms committed PR-6 = {speedup:.2}x",
        q8 * 1e3,
        PR6_Q8_800_S * 1e3
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "compiled Q8 regressed: {speedup:.2}x vs PR-6 (target ≥2x, tripwire {MIN_SPEEDUP}x)"
    );

    let section = format!(
        "{{\n    \"document_mib\": {mb:.3},\n    \"parse_mib_s\": {parse_mbs:.1},\n    \
         \"serialize_mib_s\": {serialize_mbs:.1},\n    \"q8_compiled_batched\": \
         {{\"persons\": 800, \"closed_auctions\": 400, \"engine_s\": {q8:.6}, \
         \"pr6_engine_s\": {PR6_Q8_800_S}, \"speedup\": {speedup:.2}}}\n  }}"
    );
    xqexp::splice_bench_section("data_model", &section)?;
    Ok(())
}
