//! E13 — resource-governance overhead (ISSUE 5): the limit guard must be
//! invisible when nothing is armed.
//!
//! Measured on XMark Q8 (pure variant, 150 persons / 75 closed auctions,
//! medians of `REPS`), interpreted and compiled:
//!
//! * **Disabled cost** — with no fuel/deadline/memory armed,
//!   `LimitGuard::tick()` is a single branch on an inline bool. A plain
//!   run today is compared against the committed PR-3 baselines in
//!   `BENCH.json`'s `parallel` section (recorded, not asserted — those
//!   baselines were produced on a different container class; the
//!   committed BENCH.json value is the gate).
//! * **Armed cost** — the same run with generous-but-armed limits (the
//!   fuel/memory atomics and periodic deadline poll actually execute).
//!   Target ≤ 2% over the disabled run. The assertion is self-gating: it
//!   only fires when the measured noise floor (two disabled medians
//!   against each other) is itself under 2%, so a noisy container cannot
//!   produce a spurious failure.
//!
//! Output: a table on stdout and the `limits_overhead` section of the
//! canonical `BENCH.json` (other sections are preserved).

use std::time::Instant;
use xmarkgen::Scale;
use xqcore::{Engine, Limits};
use xqexp::{xmark_fixture, Q8_PURE_VARIANT};

const REPS: usize = 7;

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).unwrap());
    v[v.len() / 2]
}

fn q8_engine(scale: &Scale, compile: bool, limits: Limits) -> Engine {
    let mut e = Engine::new().with_seed(11);
    e.set_compile(compile);
    e.set_limits(limits);
    let (store, bindings) = xmark_fixture(8, scale);
    e.store = store;
    for (name, seq) in bindings {
        e.bind(&name, seq);
    }
    e
}

/// Median seconds for a plain Q8-pure run under the given limits, fresh
/// engine per repetition.
fn time_run(scale: &Scale, compile: bool, limits: Limits) -> f64 {
    let mut times = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let mut e = q8_engine(scale, compile, limits);
        let t0 = Instant::now();
        e.run(Q8_PURE_VARIANT).expect("q8 pure run");
        times.push(t0.elapsed().as_secs_f64());
    }
    median(times)
}

/// Generous-but-armed limits: every checkable knob set, budgets far above
/// what Q8 needs — the guard's atomics run on every tick, but nothing
/// ever trips.
fn armed_limits() -> Limits {
    Limits {
        fuel: Some(u64::MAX / 2),
        memory_items: Some(u64::MAX / 2),
        deadline_ms: Some(3_600_000),
        ..Limits::default()
    }
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
    let parallel = xqexp::bench_section("parallel");

    println!("E13: limit-guard overhead on XMark Q8 pure, median of {REPS} runs (1 thread)");
    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>8} {:>8}",
        "pipeline", "disabled", "redisabled", "armed", "noise", "armed/x"
    );

    let mut section =
        String::from("{\n    \"scale\": {\"persons\": 150, \"closed_auctions\": 75},\n");
    for (i, &compile) in [false, true].iter().enumerate() {
        let mode = if compile { "compiled" } else { "interpreted" };
        let disabled = time_run(&scale, compile, Limits::default());
        // Second disabled median = the run-to-run noise floor on this
        // container, which gates the armed-cost assertion below.
        let disabled2 = time_run(&scale, compile, Limits::default());
        let armed = time_run(&scale, compile, armed_limits());
        let base = disabled.min(disabled2);
        let noise = (disabled - disabled2).abs() / base;
        let armed_ratio = armed / base;
        println!(
            "{mode:<12} {:>9.2} ms {:>9.2} ms {:>9.2} ms {:>7.1}% {armed_ratio:>7.3}x",
            disabled * 1e3,
            disabled2 * 1e3,
            armed * 1e3,
            noise * 1e2,
        );

        let committed = committed_baseline(parallel.as_deref(), mode);
        let vs_committed = committed.map(|c| base / c);
        match (committed, vs_committed) {
            (Some(c), Some(r)) => println!(
                "  vs committed PR-3 baseline: {:.2} ms committed = {r:.3}x (recorded)",
                c * 1e3
            ),
            _ => println!("  vs committed PR-3 baseline: not found (recorded as null)"),
        }

        // Self-gating assertion: only a quiet container may judge the 2%
        // target, and the allowance widens with whatever noise remains.
        if noise < 0.02 {
            let allowed = 1.02 + noise;
            assert!(
                armed_ratio <= allowed,
                "armed limit guard costs {armed_ratio:.3}x on {mode} Q8 \
                 (allowed {allowed:.3}x at {:.1}% noise)",
                noise * 1e2
            );
        } else {
            println!(
                "  (noise {:.1}% ≥ 2% — armed-cost assertion skipped)",
                noise * 1e2
            );
        }

        if i > 0 {
            section.push_str(",\n");
        }
        let vs = vs_committed
            .map(|r| format!("{r:.3}"))
            .unwrap_or_else(|| "null".to_string());
        section.push_str(&format!(
            "    \"q8_pure_{mode}\": {{\"disabled_s\": {base:.6}, \"armed_s\": {armed:.6}, \
             \"armed_ratio\": {armed_ratio:.3}, \"noise\": {noise:.4}, \
             \"disabled_vs_pr3_baseline\": {vs}}}"
        ));
    }
    section.push_str("\n  }");

    xqexp::splice_bench_section("limits_overhead", &section)?;
    Ok(())
}
