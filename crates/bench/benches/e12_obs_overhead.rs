//! E12 — observability overhead (ISSUE 4): instrumentation must be
//! zero-cost when off.
//!
//! Two questions, measured on the E11 workloads (XMark Q8 variants,
//! 150 persons / 75 closed auctions, medians of `REPS`):
//!
//! * **Disabled cost** — the per-node profiling hooks compile into the
//!   hot path as a single branch on `Evaluator::profiling()`, and the
//!   engine metrics flush is a handful of relaxed atomics per *run*.
//!   A plain `Engine::run` today is compared against the committed
//!   PR-3 baselines in `BENCH.json`'s `parallel` section (generated on
//!   the same container class before the hooks existed): the ratio is the
//!   end-to-end price of having the subsystem in the binary. Target
//!   ≤ 1.02 (recorded, not asserted — the committed BENCH.json value
//!   is the gate; a re-run on different hardware only re-reports).
//! * **Enabled cost** — `explain_analyze` on the same workloads: what
//!   opting in actually costs (per-node wall clocks + cardinality
//!   accounting). Reported for scale; there is no target, profiling is
//!   explicit opt-in.
//!
//! Output: a table on stdout and the `obs_overhead` section of the
//! canonical top-level `BENCH.json` (other sections are preserved).

use std::time::Instant;
use xmarkgen::Scale;
use xqcore::Engine;
use xqexp::{xmark_fixture, Q8_PURE_VARIANT, Q8_VARIANT};

const REPS: usize = 7;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn q8_engine(scale: &Scale, compile: bool) -> Engine {
    let mut e = Engine::new().with_seed(11);
    e.set_compile(compile);
    e.set_threads(1);
    let (store, bindings) = xmark_fixture(8, scale);
    e.store = store;
    for (name, seq) in bindings {
        e.bind(&name, seq);
    }
    e
}

/// Median seconds for a plain run and for `explain_analyze` of the same
/// query, fresh engine per repetition (updates must not accumulate).
fn time_pair(scale: &Scale, compile: bool, query: &str) -> (f64, f64) {
    let mut plain = Vec::with_capacity(REPS);
    let mut analyze = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut e = q8_engine(scale, compile);
        let t0 = Instant::now();
        e.run(query).expect("plain run");
        plain.push(t0.elapsed().as_secs_f64());

        let mut e = q8_engine(scale, compile);
        let t0 = Instant::now();
        let report = e.explain_analyze(query).expect("analyze run");
        analyze.push(t0.elapsed().as_secs_f64());
        assert!(report.contains("totals:"), "analyze report missing totals");
    }
    (median(plain), median(analyze))
}

/// Pull `"q8_pure_<mode>": {"1": <seconds>, …}` out of the committed
/// `parallel` section of BENCH.json without a JSON parser (the shape is
/// ours).
fn committed_baseline(parallel_json: Option<&str>, mode: &str) -> Option<f64> {
    let text = parallel_json?;
    let key = format!("\"q8_pure_{mode}\"");
    let obj = &text[text.find(&key)? + key.len()..];
    let one = &obj[obj.find("\"1\":")? + 4..];
    let end = one.find([',', '}'])?;
    one[..end].trim().parse().ok()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::join_sides(150, 75);

    println!("E12: observability overhead, median of {REPS} runs (1 thread)");
    println!(
        "{:<12} {:<12} {:>10} {:>11} {:>9}",
        "workload", "pipeline", "plain", "analyze", "ratio"
    );
    let mut obs = String::from("{\n    \"scale\": {\"persons\": 150, \"closed_auctions\": 75},\n");

    let mut q8_pure_plain = [0.0f64; 2]; // [interpreted, compiled]
    for (wname, query) in [("q8_pure", Q8_PURE_VARIANT), ("q8_update", Q8_VARIANT)] {
        for &compile in &[false, true] {
            let mode = if compile { "compiled" } else { "interpreted" };
            let (plain, analyze) = time_pair(&scale, compile, query);
            if wname == "q8_pure" {
                q8_pure_plain[compile as usize] = plain;
            }
            let ratio = analyze / plain;
            println!(
                "{wname:<12} {mode:<12} {:>7.2} ms {:>8.2} ms {ratio:>8.2}x",
                plain * 1e3,
                analyze * 1e3
            );
            obs.push_str(&format!(
                "    \"{wname}_{mode}\": {{\"plain_s\": {plain:.6}, \
                 \"analyze_s\": {analyze:.6}, \"analyze_ratio\": {ratio:.3}}},\n"
            ));
        }
    }

    // Disabled-path cost vs the committed PR-3 baselines.
    let parallel = xqexp::bench_section("parallel");
    obs.push_str("    \"disabled_vs_pr3_baseline\": {");
    println!("\ndisabled-path cost vs committed PR-3 baselines (target ≤ 1.02):");
    for (i, (mode, now)) in [
        ("interpreted", q8_pure_plain[0]),
        ("compiled", q8_pure_plain[1]),
    ]
    .into_iter()
    .enumerate()
    {
        let entry = match committed_baseline(parallel.as_deref(), mode) {
            Some(base) => {
                let ratio = now / base;
                println!(
                    "  q8_pure {mode}: {:.2} ms now vs {:.2} ms committed = {ratio:.3}x",
                    now * 1e3,
                    base * 1e3
                );
                format!(
                    "\"{mode}\": {{\"committed_s\": {base:.6}, \"now_s\": {now:.6}, \
                     \"ratio\": {ratio:.3}}}"
                )
            }
            None => {
                println!("  q8_pure {mode}: no committed baseline found");
                format!("\"{mode}\": null")
            }
        };
        if i > 0 {
            obs.push_str(", ");
        }
        obs.push_str(&entry);
    }
    obs.push_str("}\n  }");

    xqexp::splice_bench_section("obs_overhead", &obs)?;
    Ok(())
}
