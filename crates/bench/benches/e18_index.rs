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
//! size.
//!
//! The *cost gate* weighs a step's bucket against the kernel walk from
//! that step's origins, so two probes pin the other side of the
//! crossover:
//!
//! * **per-origin rows** — one small step from each of many origins
//!   (`$p/name`, `$p//name` per person). The store-wide bucket is as big
//!   as the whole answer while each origin's walk reads a handful of
//!   nodes, so the indexed engine must stay on the kernels: at most
//!   [`MAX_PER_ORIGIN_RATIO`] × the batch time at every size.
//! * **fat bucket** — a query whose name bucket is ~100% of the element
//!   population keeps the batch kernels even with the index available
//!   (idx hint present, zero idx scans at runtime).
//! * **root scan** — `count($auction//person)`, a descendant step from
//!   the document root, which roots a clean order segment: the gate
//!   prices the walk by the segment's length and reads the bucket with
//!   no trial walk. At the 800-person row the indexed engine must be at
//!   least [`MIN_ROOT_SCAN_SPEEDUP`] × the batch walk.
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

/// Per-origin shapes: a child and a descendant step from each person.
const PER_ORIGIN: [(&str, &str); 2] = [
    ("child", "for $p in $auction//person return $p/name"),
    ("descendant", "for $p in $auction//person return $p//name"),
];
/// Timed repetitions per per-origin sample: each run walks every person.
const PER_ORIGIN_ITERS: usize = 20;
/// Alternating samples per per-origin (size, shape) cell and strategy.
const PAIR_REPS: usize = 9;
/// Per-origin tripwire: the indexed engine may cost at most this multiple
/// of the batch engine (the store-wide gate it replaced read 41× and
/// 217× at 800 persons on a 2-core host).
const MAX_PER_ORIGIN_RATIO: f64 = 1.5;

const ROOT_SCAN: &str = "count($auction//person)";
/// Root-scan tripwire: ~26× measured at 800 persons on a 2-core host;
/// a capped trial walk before every scan read 2.8× there.
const MIN_ROOT_SCAN_SPEEDUP: f64 = 6.0;

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

/// An engine holding the XMark document at `scale` parsed from its text,
/// so that the document roots one clean order segment; compiled, with
/// the index plane on or off.
fn parsed_engine(scale: &Scale, indexing: bool) -> Engine {
    let xml = XmarkGen::new(8)
        .generate_xml(scale)
        .expect("generate xmark");
    let mut e = Engine::new();
    e.set_indexing(indexing);
    e.load_document("auction", &xml).expect("parse xmark");
    e
}

/// Per-run seconds of one sample: `iters` runs of `program` on `e`,
/// each verified to return exactly `expect_rows` items.
fn sample(e: &mut Engine, program: &xqsyn::CoreProgram, iters: usize, expect_rows: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..iters {
        let out = e.run_program(program).expect("run");
        assert_eq!(out.len(), expect_rows, "wrong row count");
    }
    t0.elapsed().as_secs_f64() / iters as f64
}

/// Median per-run seconds for `program` on `e` over [`REPS`] samples of
/// [`ITERS`] runs, verifying every run returns exactly `expect_rows` items.
fn time_query(e: &mut Engine, program: &xqsyn::CoreProgram, expect_rows: usize) -> f64 {
    // One warmup: plan-cache fill, interner warm, scratch allocated.
    sample(e, program, 1, expect_rows);
    median(
        (0..REPS)
            .map(|_| sample(e, program, ITERS, expect_rows))
            .collect(),
    )
}

/// Median per-run seconds of `program` on `a` and on `b`, sampled
/// alternately ([`PAIR_REPS`] samples of [`PER_ORIGIN_ITERS`] runs each)
/// so host noise lands on both sides of the ratio alike.
fn time_pair(
    a: &mut Engine,
    b: &mut Engine,
    program: &xqsyn::CoreProgram,
    expect_rows: usize,
) -> (f64, f64) {
    sample(a, program, 1, expect_rows);
    sample(b, program, 1, expect_rows);
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for _ in 0..PAIR_REPS {
        ta.push(sample(a, program, PER_ORIGIN_ITERS, expect_rows));
        tb.push(sample(b, program, PER_ORIGIN_ITERS, expect_rows));
    }
    (median(ta), median(tb))
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

    // --- cost gate: per-origin steps stay on the kernels -------------
    println!("\n  per-origin steps, {PAIR_REPS}×{PER_ORIGIN_ITERS} alternating runs per cell");
    println!(
        "  {:>8} {:>11} {:>8} {:>12} {:>12} {:>9}",
        "persons", "shape", "rows", "indexed_us", "batch_us", "idx/batch"
    );
    let mut per_origin = Vec::new();
    for &(persons, closed) in &sizes {
        let scale = Scale::join_sides(persons, closed);
        let mut indexed = engine(&scale, true, true);
        let mut batch = engine(&scale, true, false);
        for (shape, query) in PER_ORIGIN {
            let program = xqsyn::compile(query)?;
            let rows = batch.run_program(&program)?.len();
            let (t_idx, t_batch) = time_pair(&mut indexed, &mut batch, &program, rows);
            let ratio = t_idx / t_batch;
            println!(
                "  {persons:>8} {shape:>11} {rows:>8} {:>12.3} {:>12.3} {ratio:>8.2}x",
                t_idx * 1e6,
                t_batch * 1e6
            );
            assert!(
                ratio <= MAX_PER_ORIGIN_RATIO,
                "per-origin {shape} step at {persons} persons: indexed {ratio:.2}x \
                 the batch walk (bound {MAX_PER_ORIGIN_RATIO}x)"
            );
            per_origin.push((persons, shape, query, rows, t_idx, t_batch, ratio));
        }
    }

    // --- cost gate: a scan from the document root walks nothing -------
    println!("\n  root scan {ROOT_SCAN}, {PAIR_REPS}×{PER_ORIGIN_ITERS} alternating runs per cell");
    println!(
        "  {:>8} {:>12} {:>12} {:>9}",
        "persons", "indexed_us", "batch_us", "batch/idx"
    );
    let root_scan = xqsyn::compile(ROOT_SCAN)?;
    // On a deep-stack thread, as a server runs a request: elsewhere every
    // run starts one, and the rows would time that.
    let root_rows = xqsyn::stack::spawn_deep("e18-root-scan", move || {
        let mut root_rows = Vec::new();
        for &(persons, closed) in &sizes {
            let scale = Scale::join_sides(persons, closed);
            let mut indexed = parsed_engine(&scale, true);
            let mut batch = parsed_engine(&scale, false);
            let (t_idx, t_batch) = time_pair(&mut indexed, &mut batch, &root_scan, 1);
            assert!(
                indexed.last_stats().expect("stats").idx_scans > 0,
                "root scan at {persons} persons walked"
            );
            let speedup = t_batch / t_idx;
            println!(
                "  {persons:>8} {:>12.3} {:>12.3} {speedup:>8.1}x",
                t_idx * 1e6,
                t_batch * 1e6
            );
            root_rows.push((persons, t_idx, t_batch, speedup));
        }
        root_rows
    })?
    .join()
    .expect("root-scan rows");
    let &(_, _, _, root_speedup_800) = root_rows.last().unwrap();
    assert!(
        root_speedup_800 >= MIN_ROOT_SCAN_SPEEDUP,
        "root scan at 800 persons: {root_speedup_800:.1}x vs batch \
         (tripwire {MIN_ROOT_SCAN_SPEEDUP}x)"
    );

    // --- cost gate: unselective name bucket keeps the batch kernels --
    // Every element in this tree is named `node`: the bucket is ~100%
    // of the population, so the walk from the root finishes within its
    // allowance and the executor never scans, even though the plan
    // carries the idx hint.
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
    let per_origin_json: Vec<String> = per_origin
        .iter()
        .map(|(p, shape, query, rows, ti, tb, r)| {
            format!(
                "{{\"persons\": {p}, \"shape\": \"{shape}\", \"query\": \"{query}\", \
                 \"rows\": {rows}, \"indexed_s\": {ti:.9}, \"batch_s\": {tb:.9}, \
                 \"indexed_over_batch\": {r:.2}}}"
            )
        })
        .collect();
    let root_json: Vec<String> = root_rows
        .iter()
        .map(|(p, ti, tb, s)| {
            format!(
                "{{\"persons\": {p}, \"indexed_s\": {ti:.9}, \"batch_s\": {tb:.9}, \
                 \"speedup\": {s:.2}}}"
            )
        })
        .collect();
    let section = format!(
        "{{\n    \"bench\": \"selective_id_lookup\",\n    \"query\": \"{}\",\n    \
         \"rows\": [\n      {}\n    ],\n    \"indexed_growth_100_to_800\": {growth:.2},\n    \
         \"per_origin\": [\n      {}\n    ],\n    \
         \"root_scan\": {{\"query\": \"{ROOT_SCAN}\", \"rows\": [\n      {}\n    ]}},\n    \
         \"cost_gate\": {{\"query\": \"$doc//node\", \"elements\": {gate_rows}, \
         \"idx_hint_planned\": true, \"idx_scans_taken\": 0}}\n  }}",
        LOOKUP.replace('"', "\\\""),
        rows_json.join(",\n      "),
        per_origin_json.join(",\n      "),
        root_json.join(",\n      ")
    );
    xqexp::splice_bench_section("index", &section)?;
    Ok(())
}
