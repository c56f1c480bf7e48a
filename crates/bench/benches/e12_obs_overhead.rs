//! E12 — observability overhead: instrumentation must be zero-cost when
//! off.
//!
//! Measured on XMark Q8 variants (150 persons / 75 closed auctions), both
//! pipelines, in [`xqexp::paired`] runs: `PAIRS` pairs of one
//! `explain_analyze` and one plain `Engine::run`, each on a fresh engine,
//! the side that runs first alternating.
//!
//! * **Enabled cost** — the median analyze / plain ratio, its quartiles
//!   and the pairs analyze won: what opting in to per-node wall clocks and
//!   cardinality accounting costs. Reported for scale; there is no
//!   target, profiling is explicit opt-in.
//! * **Disabled cost** — the per-node profiling hooks compile into the hot
//!   path as a single branch on `Evaluator::profiling()`, and the metrics
//!   flush is a handful of relaxed atomics per *run*. A plain run's median
//!   is read against this bench's own previously committed `plain_s` of
//!   the same row: the drift is recorded, not asserted (a re-run on other
//!   hardware only re-reports).
//!
//! Output: a table on stdout and the `obs_overhead` section of the
//! canonical top-level `BENCH.json` (other sections are preserved).

use xmarkgen::Scale;
use xqcore::Engine;
use xqexp::{committed_field, paired, seconds, xmark_fixture, Q8_PURE_VARIANT, Q8_VARIANT};

const PAIRS: usize = 15;

fn q8_engine(scale: &Scale, compile: bool) -> Engine {
    let mut e = Engine::new().with_seed(11);
    e.set_compile(compile);
    let (store, bindings) = xmark_fixture(8, scale);
    e.store = store;
    for (name, seq) in bindings {
        e.bind(&name, seq);
    }
    e
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::join_sides(150, 75);
    let committed = xqexp::bench_section("obs_overhead").unwrap_or_default();

    println!("E12: observability overhead, analyze (A) vs plain (B), {PAIRS} pairs");
    println!(
        "{:<12} {:<12} {:>10} {:>11} {:>30} {:>8}",
        "workload", "pipeline", "plain", "analyze", "A/B [q1, q3] wins", "drift"
    );
    let mut obs = format!(
        "{{\n    \"scale\": {{\"persons\": 150, \"closed_auctions\": 75}},\n    \
         \"pairs\": {PAIRS},\n"
    );
    let mut rows = Vec::new();
    for (wname, query) in [("q8_pure", Q8_PURE_VARIANT), ("q8_update", Q8_VARIANT)] {
        for compile in [false, true] {
            let row = format!(
                "{wname}_{}",
                if compile { "compiled" } else { "interpreted" }
            );
            let (mut plain, mut analyze) = (Vec::new(), Vec::new());
            let p = paired(
                PAIRS,
                || {
                    let mut e = q8_engine(&scale, compile);
                    let t = seconds(|| {
                        let report = e.explain_analyze(query).expect("analyze run");
                        assert!(report.contains("totals:"), "analyze report missing totals");
                    });
                    analyze.push(t);
                    t
                },
                || {
                    let mut e = q8_engine(&scale, compile);
                    let t = seconds(|| {
                        e.run(query).expect("plain run");
                    });
                    plain.push(t);
                    t
                },
            );
            let (plain, analyze) = (median(plain), median(analyze));
            let drift = committed_field(&committed, &row, "plain_s").map(|c| plain / c);
            let drift_s = drift.map_or("null".to_string(), |d| format!("{d:.3}"));
            println!(
                "{wname:<12} {:<12} {:>7.2} ms {:>8.2} ms {:>30} {drift_s:>8}",
                &row[wname.len() + 1..],
                plain * 1e3,
                analyze * 1e3,
                p.summary()
            );
            // `plain_s` leads the row: the next run reads it back.
            rows.push(format!(
                "    \"{row}\": {{\"plain_s\": {plain:.6}, \"analyze_s\": {analyze:.6}, \
                 \"drift_vs_committed\": {drift_s}, \"analyze_vs_plain\": {}}}",
                p.json()
            ));
        }
    }
    obs.push_str(&rows.join(",\n"));
    obs.push_str("\n  }");
    xqexp::splice_bench_section("obs_overhead", &obs)?;
    Ok(())
}
