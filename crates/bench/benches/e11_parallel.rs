//! E11 — parallel evaluation of effect-free regions (DESIGN.md §9).
//!
//! Three measurements, one claim: when the purity gate admits a loop
//! body, worker threads buy wall-clock time *without changing any
//! observable*; when it rejects one, the engine provably stays
//! sequential.
//!
//! * **Q8-pure × threads** — the XMark Q8 variant with its updates
//!   stripped (`Q8_PURE_VARIANT`), evaluated at 1/2/4/8 threads on both
//!   pipelines. The interpreted pipeline runs the paper's naive nested
//!   loop, so the fan-out parallelizes the quadratic scan; the compiled
//!   pipeline parallelizes the per-row group-by bodies on top of the
//!   hash join.
//! * **Q8-snap (impure)** — the `snap insert` variant: the gate must
//!   refuse it (`par_regions == 0` even at 8 threads, and EXPLAIN shows
//!   no `par` marker). Asserted, not just measured.
//! * **E3 logging workload** — per-item `snap insert` loop, the other
//!   impure shape: timed at 1 and 4 threads to show the thread knob is
//!   inert on impure code.
//!
//! Custom harness (no Criterion): medians over fixed repetitions, a
//! human-readable table on stdout, and the machine-readable `parallel`
//! section of the canonical `BENCH.json` (the PR-3 baseline e12 and e13
//! compare against; other sections are preserved).

use std::time::Instant;
use xmarkgen::Scale;
use xqcore::Engine;
use xqexp::{xmark_fixture, Q8_PURE_VARIANT, Q8_SNAP_VARIANT};

const REPS: usize = 5;
const THREADS: &[usize] = &[1, 2, 4, 8];

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

/// Engine with the XMark fixture bound to `$auction`/`$purchasers`.
fn q8_engine(scale: &Scale, compile: bool, threads: usize) -> Engine {
    let mut e = Engine::new().with_seed(11);
    e.set_compile(compile);
    e.set_threads(threads);
    let (store, bindings) = xmark_fixture(8, scale);
    e.store = store;
    for (name, seq) in bindings {
        e.bind(&name, seq);
    }
    e
}

/// Median seconds for `query` on a fresh engine per repetition.
fn time_q8(scale: &Scale, compile: bool, threads: usize, query: &str) -> (f64, String, u64) {
    let mut times = Vec::with_capacity(REPS);
    let mut result = String::new();
    let mut par_regions = 0;
    for _ in 0..REPS {
        let mut e = q8_engine(scale, compile, threads);
        let t0 = Instant::now();
        let v = e.run(query).expect("q8 run");
        times.push(t0.elapsed().as_secs_f64());
        result = e.serialize(&v).expect("serialize");
        par_regions = e.last_stats().unwrap().par_regions;
    }
    (median(times), result, par_regions)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let scale = Scale::join_sides(150, 75);
    let mut json = String::from("{\n    \"experiment\": \"e11_parallel\",\n");
    json.push_str("    \"scale\": {\"persons\": 150, \"closed_auctions\": 75},\n");

    // The pure variant must carry the par marker on the compiled plan…
    let probe = q8_engine(&scale, true, 8);
    let plan = probe.explain(Q8_PURE_VARIANT)?;
    assert!(
        plan.contains(",par"),
        "pure Q8 variant must carry a par marker:\n{plan}"
    );

    // --- Q8-pure × threads, both pipelines -----------------------------
    println!("E11: XMark Q8 pure variant, median of {REPS} runs ({cores} core(s) available)");
    println!(
        "{:<14} {:>8} {:>12} {:>9} {:>12}",
        "pipeline", "threads", "median", "speedup", "par_regions"
    );
    let mut baseline_value = None;
    let mut interpreted_speedup_4 = 1.0;
    for &compile in &[false, true] {
        let name = if compile { "compiled" } else { "interpreted" };
        let mut base = 0.0;
        json.push_str(&format!("    \"q8_pure_{name}\": {{"));
        for (i, &threads) in THREADS.iter().enumerate() {
            let (t, value, par_regions) = time_q8(&scale, compile, threads, Q8_PURE_VARIANT);
            if threads == 1 {
                base = t;
                assert_eq!(par_regions, 0, "{name}: sequential run must not fan out");
            } else {
                assert!(
                    par_regions > 0,
                    "{name}: pure Q8 did not fan out at {threads} threads"
                );
            }
            // Bit-for-bit identical values across every configuration.
            match &baseline_value {
                None => baseline_value = Some(value),
                Some(b) => assert_eq!(b, &value, "{name}×{threads} changed the result"),
            }
            let speedup = base / t;
            if !compile && threads == 4 {
                interpreted_speedup_4 = speedup;
            }
            println!(
                "{name:<14} {threads:>8} {:>9.2} ms {speedup:>8.2}x {par_regions:>12}",
                t * 1e3
            );
            if i > 0 {
                json.push_str(", ");
            }
            json.push_str(&format!("\"{threads}\": {:.6}", t));
        }
        json.push_str("},\n");
    }
    json.push_str(&format!(
        "    \"interpreted_speedup_at_4_threads\": {interpreted_speedup_4:.3},\n"
    ));
    // The speedup claim is a statement about parallel hardware; on a
    // single-core host the same run instead demonstrates that the
    // machinery adds no observable overhead (and no observable anything
    // else — values asserted identical above).
    if cores >= 4 {
        assert!(
            interpreted_speedup_4 >= 1.5,
            "expected ≥1.5× at 4 threads on {cores} cores, got {interpreted_speedup_4:.2}×"
        );
    } else {
        println!("(speedup assertion skipped: {cores} core(s) < 4 — nothing to parallelize onto)");
    }

    // --- Q8-snap: the impure variant provably stays sequential ---------
    let probe = q8_engine(&scale, true, 8);
    let plan = probe.explain(Q8_SNAP_VARIANT)?;
    assert!(
        !plan.contains(",par"),
        "impure Q8 snap variant must carry no par marker:\n{plan}"
    );
    let (t_snap, _, par_regions) = time_q8(&scale, true, 8, Q8_SNAP_VARIANT);
    assert_eq!(
        par_regions, 0,
        "snap-inside-loop variant fanned out — gate broken"
    );
    println!(
        "\nQ8 snap variant @8 threads: {:.2} ms, par_regions = 0, no `par` in EXPLAIN",
        t_snap * 1e3
    );
    json.push_str(&format!(
        "    \"q8_snap_8threads\": {{\"seconds\": {t_snap:.6}, \"par_regions\": 0, \"explain_has_par\": false}},\n"
    ));

    // --- E3 logging workload: thread knob inert on impure code ---------
    let n = 2_000usize;
    let log_query = format!(
        "for $i in 1 to {n} return snap insert {{ <entry n=\"{{$i}}\"/> }} into {{ $logdoc/log }}"
    );
    json.push_str("    \"e3_logging\": {");
    println!("\nE3 logging workload ({n} per-item snaps):");
    for (i, &threads) in [1usize, 4].iter().enumerate() {
        let mut times = Vec::with_capacity(REPS);
        let mut entries = 0;
        for _ in 0..REPS {
            let mut e = Engine::new().with_seed(11);
            e.set_threads(threads);
            e.load_document("logdoc", "<log/>").unwrap();
            let t0 = Instant::now();
            e.run(&log_query).expect("logging run");
            times.push(t0.elapsed().as_secs_f64());
            assert_eq!(e.last_stats().unwrap().par_regions, 0);
            let c = e.run("count($logdoc/log/entry)").unwrap();
            entries = e.serialize(&c).unwrap().parse::<usize>().unwrap();
        }
        assert_eq!(entries, n);
        let t = median(times);
        println!(
            "  threads={threads}: {:.2} ms (sequential by the gate)",
            t * 1e3
        );
        if i > 0 {
            json.push_str(", ");
        }
        json.push_str(&format!("\"{threads}\": {t:.6}"));
    }
    json.push_str(", \"par_regions\": 0}\n  }");

    xqexp::splice_bench_section("parallel", &json)?;
    Ok(())
}
