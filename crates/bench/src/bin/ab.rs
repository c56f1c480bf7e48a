//! `ab` — a paired A/B run of the wire benchmark.
//!
//! ```text
//! cargo run --release --offline -p xqexp --bin ab -- \
//!     --a A/release --b B/release --workload point_read --pairs 10 --seconds 8
//! ```
//!
//! Each side is a release directory holding an `xqserve` and the `xqbench`
//! built beside it (`bash xqbench/run.sh --help` builds both into
//! `target/release`; copy them aside per commit). `ab` treats `xqbench` as
//! a black box: it runs `DIR/xqbench --workload W --seed S --seconds T
//! --trace 0` for both sides, alternately — A first in even pairs, B first
//! in odd ones — with the seed `--seed + pair`, and reads each run's JSON
//! last line. For every end-to-end metric `BENCHMARK.json` lists it prints
//! each side's median, the median of the per-pair ratios B / A, their
//! quartiles, B's wins out of N by the metric's direction, a verdict
//! ([`verdict`]) and whether the median ratio lies inside the metric's
//! `bound` ([`in_bound`]).

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use xqexp::Paired;

/// The benchmark declaration: its `end_to_end` rows name the metrics and
/// say which way is better.
const BENCHMARK_JSON: &str = include_str!("../../../../BENCHMARK.json");

/// The fewest pairs on which a verdict other than `no claim` can be given.
const MIN_PAIRS: usize = 9;

const USAGE: &str = "usage: ab --a DIR --b DIR --workload NAME [--pairs N] [--seconds T] [--seed S]

DIR is a release directory holding xqserve and xqbench. Runs N pairs
(default 9) of T-second (default 18) untraced xqbench passes, alternating
which side goes first, and prints per end-to-end metric the median ratio
B/A [q1, q3], B's wins/N, the verdict and whether the median ratio is
inside BENCHMARK.json's bound for the metric. The verdict is improved or
regressed when B wins or loses at least N-1 of N >= 9 pairs and the
medians differ by more than A's own interquartile spread, else no claim.";

/// Which way a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Better {
    Lower,
    Higher,
}

impl Better {
    /// Is `x` better than `y`?
    fn beats(self, x: f64, y: f64) -> bool {
        match self {
            Better::Lower => x < y,
            Better::Higher => x > y,
        }
    }
}

/// What a paired run lets one say about B against A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verdict {
    Improved,
    Regressed,
    NoClaim,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::NoClaim => "no claim",
        }
    }
}

/// The verdict on B over `pairs` of (A, B) readings of one metric: B
/// `improved` (or `regressed`) when it is better (or worse) in at least
/// N − 1 of N ≥ [`MIN_PAIRS`] pairs, a tie counting for neither side, and
/// the medians differ by more than A's own spread, the distance between
/// its quartiles. Below that a difference is one A's runs show against
/// each other, so it says nothing about the code.
fn verdict(pairs: &[(f64, f64)], better: Better) -> Verdict {
    let n = pairs.len();
    let improved = pairs.iter().filter(|&&(a, b)| better.beats(b, a)).count();
    let regressed = pairs.iter().filter(|&&(a, b)| better.beats(a, b)).count();
    let a: Vec<f64> = pairs.iter().map(|p| p.0).collect();
    let difference = median(pairs.iter().map(|p| p.1)) - median(a.iter().copied());
    if n < MIN_PAIRS || difference.abs() <= spread(&a) {
        Verdict::NoClaim
    } else if improved + 1 >= n {
        Verdict::Improved
    } else if regressed + 1 >= n {
        Verdict::Regressed
    } else {
        Verdict::NoClaim
    }
}

/// The text after `"key": ` in `text`.
fn after_key<'t>(text: &'t str, key: &str) -> Option<&'t str> {
    let at = text.find(&format!("\"{key}\": "))?;
    Some(&text[at + key.len() + 4..])
}

/// The string value of `"key": "…"` in `text`.
fn string_field<'t>(text: &'t str, key: &str) -> Option<&'t str> {
    let rest = after_key(text, key)?.strip_prefix('"')?;
    rest.split('"').next()
}

/// The number value of `"key": …` in `text`.
fn number_field(text: &str, key: &str) -> Option<f64> {
    let rest = after_key(text, key)?;
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

/// The median of `values` (the upper one of an even count).
fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut values: Vec<f64> = values.collect();
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// The distance between the quartiles of `values`, by the nearest-rank
/// rule [`Paired::of`] reads its ratios' quartiles with.
fn spread(values: &[f64]) -> f64 {
    let mut values = values.to_vec();
    values.sort_by(f64::total_cmp);
    let at = |q: f64| values[((values.len() - 1) as f64 * q).round() as usize];
    at(0.75) - at(0.25)
}

/// Is a median ratio B / A no worse than `bound` (a fraction of A, as
/// BENCHMARK.json gives it) in the metric's direction?
fn in_bound(ratio: f64, better: Better, bound: f64) -> bool {
    match better {
        Better::Lower => ratio <= 1.0 + bound,
        Better::Higher => ratio >= 1.0 - bound,
    }
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
struct Metric {
    name: String,
    better: Better,
    /// How much worse than A the median of B may read.
    bound: f64,
}

/// `BENCHMARK.json`'s end-to-end metrics, in its order.
fn end_to_end() -> Vec<Metric> {
    let section = after_key(BENCHMARK_JSON, "end_to_end").expect("BENCHMARK.json has end_to_end");
    let section = &section[..section.find(']').expect("end_to_end is an array")];
    section
        .split('}')
        .filter_map(|row| {
            let better = match string_field(row, "better")? {
                "lower" => Better::Lower,
                _ => Better::Higher,
            };
            Some(Metric {
                name: string_field(row, "name")?.to_string(),
                better,
                bound: number_field(row, "bound")?,
            })
        })
        .collect()
}

/// One side's reading of one run: each metric's value (`None` when the
/// run did not report it) and whether every request succeeded.
struct Run {
    values: Vec<Option<f64>>,
    failed: f64,
}

/// Run `dir`'s xqbench once and read its last line.
fn run(
    dir: &Path,
    workload: &str,
    seed: u64,
    seconds: u64,
    metrics: &[Metric],
) -> Result<Run, String> {
    let exe = dir.join("xqbench");
    let out = Command::new(&exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    if !out.status.success() || !last.starts_with('{') {
        return Err(format!(
            "{} exited {}; last line {last:?}",
            exe.display(),
            out.status
        ));
    }
    Ok(Run {
        values: metrics
            .iter()
            .map(|m| number_field(after_key(last, &m.name)?, "value"))
            .collect(),
        failed: number_field(last, "failed").unwrap_or(f64::NAN),
    })
}

struct Args {
    a: PathBuf,
    b: PathBuf,
    workload: String,
    pairs: usize,
    seconds: u64,
    seed: u64,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut a, mut b, mut workload) = (None, None, None);
    let (mut pairs, mut seconds, mut seed) = (MIN_PAIRS, 18, 1);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if matches!(flag.as_str(), "-h" | "--help") {
            return Err(USAGE.to_string());
        }
        let value = it
            .next()
            .ok_or(format!("{flag} needs a value\n\n{USAGE}"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--a" => a = Some(PathBuf::from(value)),
            "--b" => b = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value.clone()),
            "--pairs" => pairs = number()?.max(1) as usize,
            "--seconds" => seconds = number()?,
            "--seed" => seed = number()?,
            other => return Err(format!("unknown argument {other:?}\n\n{USAGE}")),
        }
    }
    let missing = |what| format!("{what} is required\n\n{USAGE}");
    Ok(Args {
        a: a.ok_or_else(|| missing("--a"))?,
        b: b.ok_or_else(|| missing("--b"))?,
        workload: workload.ok_or_else(|| missing("--workload"))?,
        pairs,
        seconds,
        seed,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let metrics = end_to_end();
    let mut runs: Vec<(Run, Run)> = Vec::with_capacity(args.pairs);
    for i in 0..args.pairs {
        let seed = args.seed + i as u64;
        let side = |dir: &Path| run(dir, &args.workload, seed, args.seconds, &metrics);
        let pair = if i % 2 == 0 {
            side(&args.a).and_then(|a| Ok((a, side(&args.b)?)))
        } else {
            side(&args.b).and_then(|b| Ok((side(&args.a)?, b)))
        };
        match pair {
            Ok(pair) => {
                eprintln!("ab: pair {}/{} done (seed {seed})", i + 1, args.pairs);
                runs.push(pair);
            }
            Err(e) => {
                eprintln!("ab: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let failed = |pick: fn(&(Run, Run)) -> &Run| runs.iter().map(|r| pick(r).failed).sum::<f64>();
    println!(
        "ab: workload {} pairs {} seconds {} seeds {}..={}; failed requests A {} B {}",
        args.workload,
        args.pairs,
        args.seconds,
        args.seed,
        args.seed + args.pairs as u64 - 1,
        failed(|r| &r.0),
        failed(|r| &r.1),
    );
    println!(
        "{:<16} {:>12} {:>12} {:>30} {:>7}  {:<9} in bound",
        "metric", "median A", "median B", "ratio B/A [q1, q3]", "B wins", "verdict"
    );
    for (m, metric) in metrics.iter().enumerate() {
        let (name, better) = (&metric.name, metric.better);
        let pairs: Vec<(f64, f64)> = runs
            .iter()
            .filter_map(|(a, b)| Some((a.values[m]?, b.values[m]?)))
            .collect();
        if pairs.is_empty() {
            println!("{name:<16} not reported");
            continue;
        }
        let ratio = Paired::of(&pairs.iter().map(|&(a, b)| (b, a)).collect::<Vec<_>>());
        let wins = pairs.iter().filter(|&&(a, b)| better.beats(b, a)).count();
        let bound = if in_bound(ratio.ratio, better, metric.bound) {
            "yes"
        } else {
            "NO"
        };
        println!(
            "{name:<16} {:>12.4} {:>12.4} {:>30} {:>7}  {:<9} {bound} ({})",
            median(pairs.iter().map(|p| p.0)),
            median(pairs.iter().map(|p| p.1)),
            format!("{:.3} [{:.3}, {:.3}]", ratio.ratio, ratio.q1, ratio.q3),
            format!("{wins}/{}", pairs.len()),
            verdict(&pairs, better).as_str(),
            metric.bound,
        );
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` pairs in which B reads `b` where A reads 10, except the first
    /// `flipped` pairs, where B reads 10 + (10 − `b`).
    fn pairs(n: usize, b: f64, flipped: usize) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| (10.0, if i < flipped { 20.0 - b } else { b }))
            .collect()
    }

    #[test]
    fn all_or_all_but_one_of_nine_is_a_claim() {
        assert_eq!(verdict(&pairs(9, 8.0, 0), Better::Lower), Verdict::Improved);
        assert_eq!(verdict(&pairs(9, 8.0, 1), Better::Lower), Verdict::Improved);
        assert_eq!(
            verdict(&pairs(9, 12.0, 1), Better::Lower),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&pairs(12, 8.0, 1), Better::Lower),
            Verdict::Improved
        );
    }

    /// A's readings spread over [9.5, 10.5] (quartiles 9.75 and 10.25),
    /// B's each `delta` above A's.
    fn spread_pairs(delta: f64) -> Vec<(f64, f64)> {
        (0..9)
            .map(|i| 9.5 + i as f64 / 8.0)
            .map(|a| (a, a + delta))
            .collect()
    }

    #[test]
    fn a_difference_inside_a_own_spread_is_no_claim() {
        // B loses every pair, yet by less than A's runs differ among
        // themselves (an A/A run read peak RSS 1.007 this way).
        assert_eq!(
            verdict(&spread_pairs(0.07), Better::Lower),
            Verdict::NoClaim
        );
        assert_eq!(verdict(&spread_pairs(0.5), Better::Lower), Verdict::NoClaim);
        // Past the spread the same win count is a claim.
        assert_eq!(
            verdict(&spread_pairs(0.6), Better::Lower),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&spread_pairs(-0.6), Better::Lower),
            Verdict::Improved
        );
        assert_eq!(spread(&[3.0, 1.0, 2.0, 5.0, 4.0]), 2.0);
    }

    #[test]
    fn the_bound_is_read_in_the_metric_s_direction() {
        assert!(in_bound(1.25, Better::Lower, 0.25));
        assert!(!in_bound(1.26, Better::Lower, 0.25));
        assert!(in_bound(0.5, Better::Lower, 0.1));
        assert!(in_bound(0.75, Better::Higher, 0.25));
        assert!(!in_bound(0.74, Better::Higher, 0.25));
        assert!(in_bound(2.0, Better::Higher, 0.1));
    }

    #[test]
    fn two_losses_or_too_few_pairs_is_no_claim() {
        assert_eq!(verdict(&pairs(9, 8.0, 2), Better::Lower), Verdict::NoClaim);
        assert_eq!(verdict(&pairs(8, 8.0, 0), Better::Lower), Verdict::NoClaim);
        assert_eq!(verdict(&pairs(1, 8.0, 0), Better::Lower), Verdict::NoClaim);
    }

    #[test]
    fn direction_follows_the_metric() {
        assert_eq!(
            verdict(&pairs(9, 8.0, 0), Better::Higher),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&pairs(9, 12.0, 0), Better::Higher),
            Verdict::Improved
        );
    }

    #[test]
    fn ties_count_for_neither_side() {
        assert_eq!(verdict(&pairs(9, 10.0, 0), Better::Lower), Verdict::NoClaim);
        let mut one_tie = pairs(9, 8.0, 0);
        one_tie[0].1 = 10.0;
        assert_eq!(verdict(&one_tie, Better::Lower), Verdict::Improved);
        one_tie[1].1 = 10.0;
        assert_eq!(verdict(&one_tie, Better::Lower), Verdict::NoClaim);
    }

    #[test]
    fn benchmark_json_declares_the_four_metrics() {
        let metrics = end_to_end();
        let named: Vec<(&str, Better, f64)> = metrics
            .iter()
            .map(|m| (m.name.as_str(), m.better, m.bound))
            .collect();
        assert_eq!(
            named,
            [
                ("setup_s", Better::Lower, 0.25),
                ("latency_p50_us", Better::Lower, 0.25),
                ("throughput_rps", Better::Higher, 0.25),
                ("peak_rss_mib", Better::Lower, 0.1),
            ]
        );
    }

    #[test]
    fn reads_a_result_line() {
        let line = "{\"correct\": true, \"attempted\": 90, \"failed\": 2, \"metrics\": \
                    {\"setup_s\": {\"value\": 0.0123, \"unit\": \"s\"}, \
                    \"latency_p50_us\": {\"value\": 49.5, \"unit\": \"us\"}}}";
        assert_eq!(number_field(line, "failed"), Some(2.0));
        let p50 = after_key(line, "latency_p50_us").and_then(|m| number_field(m, "value"));
        assert_eq!(p50, Some(49.5));
        assert_eq!(after_key(line, "peak_rss_mib"), None);
    }
}
