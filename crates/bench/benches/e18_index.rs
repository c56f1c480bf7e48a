//! E18 — secondary-index selectivity crossover (ISSUE 10, DESIGN.md §17):
//! what the attribute-value hash index buys on selective point lookups,
//! and where the planner cost gate hands back to the PR-7 batch kernels.
//!
//! Three strategies answer the same selective XMark lookup
//! `$auction//person[@id = "person7"]` at growing store sizes:
//!
//! * **indexed** — compiled, index plane on: the attr bucket names the
//!   single owner, an ancestor walk proves containment (O(depth)).
//! * **batch** — compiled, index plane off: the PR-7 descendant kernel
//!   walks the whole subtree (O(store)).
//! * **interpreted** — the reference semantics, per-node axis steps.
//!
//! Acceptance (ISSUE 10): at the 800-person row the indexed scan is
//! ≥5× the batch walk, and the indexed curve is sublinear in store
//! size. A final probe shows the *cost gate*: a query whose name bucket
//! is ~100% of the element population keeps the batch kernels even with
//! the index available (idx hint present, zero idx scans at runtime).
//!
//! Output: a table on stdout and the `index` section of the
//! canonical `BENCH.json` (other sections are preserved).

use std::time::Instant;
use xmarkgen::{Scale, XmarkGen};
use xqcore::Engine;
use xqdm::item::Item;

/// Timed repetitions per sample (per-run seconds = total / ITERS).
const ITERS: usize = 200;
/// Samples per (size, strategy) cell; the median is reported.
const REPS: usize = 5;
/// Regression tripwire under the ≥5× acceptance line, so a loud CI
/// container reports honestly instead of flaking; the measured speedup
/// lands in BENCH.json either way.
const MIN_SPEEDUP: f64 = 3.0;

const LOOKUP: &str = r#"$auction//person[@id = "person7"]"#;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// An engine holding an XMark document at `scale`, configured for one
/// strategy.
fn engine(scale: &Scale, compile: bool, indexing: bool) -> Engine {
    let mut e = Engine::new();
    e.set_compile(compile);
    e.set_indexing(indexing);
    let auction = XmarkGen::new(8)
        .generate(&mut e.store, scale)
        .expect("generate xmark");
    e.bind("auction", xqdm::seq![Item::Node(auction)]);
    e
}

/// Median per-run seconds for `program` on `e`, verifying every run
/// returns exactly `expect_rows` items.
fn time_query(e: &mut Engine, program: &xqsyn::CoreProgram, expect_rows: usize) -> f64 {
    // One warmup: plan-cache fill, interner warm, scratch allocated.
    let out = e.run_program(program).expect("warmup");
    assert_eq!(out.len(), expect_rows, "wrong row count");
    let mut samples = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let t0 = Instant::now();
        for _ in 0..ITERS {
            let out = e.run_program(program).expect("run");
            assert_eq!(out.len(), expect_rows);
        }
        samples.push(t0.elapsed().as_secs_f64() / ITERS as f64);
    }
    median(samples)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let program = xqsyn::compile(LOOKUP).expect("parse lookup");

    println!("E18: index selectivity crossover, {REPS}×{ITERS} runs per cell");
    println!(
        "  {:>8} {:>12} {:>12} {:>12} {:>8}",
        "persons", "indexed_us", "batch_us", "interp_us", "idx/batch"
    );

    let sizes = [(100usize, 50usize), (200, 100), (400, 200), (800, 400)];
    let mut rows = Vec::new();
    for &(persons, closed) in &sizes {
        let scale = Scale::join_sides(persons, closed);
        let mut indexed = engine(&scale, true, true);
        let mut batch = engine(&scale, true, false);
        let mut interp = engine(&scale, false, false);
        let t_idx = time_query(&mut indexed, &program, 1);
        let t_batch = time_query(&mut batch, &program, 1);
        let t_interp = time_query(&mut interp, &program, 1);
        // Non-vacuity: the indexed engine chose the scan, the batch
        // engine never could.
        let si = indexed.last_stats().expect("stats");
        assert!(si.idx_scans > 0, "indexed engine never scanned the index");
        let sb = batch.last_stats().expect("stats");
        assert_eq!(sb.idx_scans, 0, "index-off engine used the index");
        assert!(sb.batch_steps > 0, "index-off engine skipped the kernels");
        let speedup = t_batch / t_idx;
        println!(
            "  {persons:>8} {:>12.3} {:>12.3} {:>12.3} {speedup:>7.1}x",
            t_idx * 1e6,
            t_batch * 1e6,
            t_interp * 1e6
        );
        rows.push((persons, closed, t_idx, t_batch, t_interp, speedup));
    }

    let (_, _, t_idx_100, ..) = rows[0];
    let &(_, _, t_idx_800, _, _, speedup_800) = rows.last().unwrap();
    assert!(
        speedup_800 >= MIN_SPEEDUP,
        "selective lookup at 800 persons: {speedup_800:.1}x vs batch \
         (target ≥5x, tripwire {MIN_SPEEDUP}x)"
    );
    // Store grew 8×; a sublinear curve stays well under that.
    let growth = t_idx_800 / t_idx_100;
    assert!(
        growth < 4.0,
        "indexed lookup not sublinear: {growth:.1}x time for 8x store"
    );

    // --- cost gate: unselective name bucket keeps the batch kernels --
    // Every element in this tree is named `node`: the bucket is ~100%
    // of the population, far past the selectivity threshold, so the
    // executor's gate refuses the scan even though the plan carries the
    // idx hint.
    let mut gated = Engine::new();
    gated.set_compile(true);
    let tree = xqexp::element_tree(&mut gated.store, 4000)?;
    gated.bind("doc", xqdm::seq![Item::Node(tree)]);
    let unselective = xqsyn::compile("$doc//node")?;
    let explain = gated.explain("$doc//node").expect("explain");
    assert!(explain.contains(",idx"), "idx hint missing: {explain}");
    let out = gated.run_program(&unselective)?;
    let gate_rows = out.len();
    let sg = gated.last_stats().expect("stats");
    assert_eq!(sg.idx_scans, 0, "cost gate failed to refuse the fat bucket");
    assert!(sg.batch_steps > 0, "gated query skipped the batch kernels");
    println!(
        "  cost gate: //node over {gate_rows} same-named elements: \
         idx hint planned, 0 scans taken (batch fallback)"
    );

    // --- JSON ------------------------------------------------------
    let rows_json: Vec<String> = rows
        .iter()
        .map(|(p, c, ti, tb, tn, s)| {
            format!(
                "{{\"persons\": {p}, \"closed_auctions\": {c}, \"indexed_s\": {ti:.9}, \
                 \"batch_s\": {tb:.9}, \"interpreted_s\": {tn:.9}, \"speedup\": {s:.2}}}"
            )
        })
        .collect();
    let section = format!(
        "{{\n    \"bench\": \"selective_id_lookup\",\n    \"query\": \"{}\",\n    \
         \"rows\": [\n      {}\n    ],\n    \"indexed_growth_100_to_800\": {growth:.2},\n    \
         \"cost_gate\": {{\"query\": \"$doc//node\", \"elements\": {gate_rows}, \
         \"idx_hint_planned\": true, \"idx_scans_taken\": 0}}\n  }}",
        LOOKUP.replace('"', "\\\""),
        rows_json.join(",\n      ")
    );
    xqexp::splice_bench_section("index", &section)?;
    Ok(())
}
