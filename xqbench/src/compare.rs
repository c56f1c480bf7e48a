//! `xqbench compare <baseline.json> <candidate.json>`: apply each
//! end-to-end metric's bound, one row per metric × workload.
//!
//! * `ok` — the candidate is no worse than the baseline by more than the
//!   bound;
//! * `regressed` — it is;
//! * `unresolved` — either file's own spread on that metric (distance
//!   between the quartiles of its per-round values, as a share of their
//!   median) is wider than the bound, so the two values cannot be told
//!   apart at that resolution whatever their difference says.

use crate::json::Json;
use crate::metrics::{Better, EndToEnd, END_TO_END, FAILED_SHARE};
use crate::stats::spread;
use crate::workload::WORKLOADS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `candidate` is than `baseline`, in the unit the bound is
/// stated in: a share of the baseline, or for `failed_share` the plain
/// difference. Negative means better.
pub fn worsening(metric: &EndToEnd, baseline: f64, candidate: f64) -> f64 {
    let worse_by = match metric.better {
        Better::Lower => candidate - baseline,
        Better::Higher => baseline - candidate,
    };
    if metric.name == FAILED_SHARE {
        worse_by
    } else {
        worse_by / baseline.abs()
    }
}

pub fn judge(metric: &EndToEnd, baseline: f64, candidate: f64, widest_spread: f64) -> Verdict {
    if widest_spread > metric.bound {
        Verdict::Unresolved
    } else if worsening(metric, baseline, candidate) > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// `(value, spread of its per-round values)` of one metric of one workload
/// in a result file.
fn lookup(file: &Json, workload: &str, metric: &str) -> Option<(f64, f64)> {
    let m = file
        .get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(metric)?;
    let rounds: Vec<f64> = m
        .get("rounds")
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default();
    Some((m.get("value")?.as_f64()?, spread(&rounds)))
}

/// Print the table; `Ok(true)` when no row regressed.
pub fn run(baseline_path: &str, candidate_path: &str) -> Result<bool, String> {
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (baseline, candidate) = (read(baseline_path)?, read(candidate_path)?);
    for (label, file) in [("baseline", &baseline), ("candidate", &candidate)] {
        let fact = |key: &str| {
            let value = file.get("host").and_then(|h| h.get(key));
            value.map_or("?".to_string(), |v| {
                v.as_str().map_or_else(|| v.to_string(), str::to_string)
            })
        };
        println!(
            "{label}: commit {} seed {} nproc {}",
            fact("commit"),
            file.get("seed").map_or("?".to_string(), Json::to_string),
            fact("nproc"),
        );
    }
    println!(
        "{:<15} {:<22} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "baseline", "candidate", "worse", "bound", "spread"
    );
    let mut clean = true;
    for workload in WORKLOADS {
        for metric in END_TO_END.iter().filter(|m| m.applies_to(workload)) {
            let row = (
                lookup(&baseline, workload.name(), metric.name),
                lookup(&candidate, workload.name(), metric.name),
            );
            let ((a, spread_a), (b, spread_b)) = match row {
                (Some(a), Some(b)) => (a, b),
                _ => {
                    println!("{:<15} {:<22} missing", workload.name(), metric.name);
                    clean = false;
                    continue;
                }
            };
            let widest = spread_a.max(spread_b);
            let verdict = judge(metric, a, b, widest);
            clean &= verdict != Verdict::Regressed;
            let share = |x: f64| match metric.name {
                FAILED_SHARE => format!("{x:+.4}"),
                _ => format!("{:+.1}%", x * 100.0),
            };
            println!(
                "{:<15} {:<22} {:>12.3} {:>12.3} {:>8} {:>7} {:>7}  {}",
                workload.name(),
                metric.name,
                a,
                b,
                share(worsening(metric, a, b)),
                share(metric.bound).trim_start_matches('+'),
                format!("{:.1}%", widest * 100.0),
                verdict.as_str()
            );
        }
    }
    Ok(clean)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn bounds_respect_direction() {
        let latency = metric("latency_p50_us"); // lower is better
        let just_inside = 100.0 * (1.0 + latency.bound) - 1.0;
        assert_eq!(judge(latency, 100.0, just_inside, 0.01), Verdict::Ok);
        assert_eq!(
            judge(latency, 100.0, just_inside + 2.0, 0.01),
            Verdict::Regressed
        );
        assert_eq!(judge(latency, 100.0, 50.0, 0.01), Verdict::Ok);
        let throughput = metric("throughput_rps"); // higher is better
        let just_inside = 100.0 * (1.0 - throughput.bound) + 1.0;
        assert_eq!(judge(throughput, 100.0, just_inside, 0.01), Verdict::Ok);
        assert_eq!(
            judge(throughput, 100.0, just_inside - 2.0, 0.01),
            Verdict::Regressed
        );
        assert_eq!(judge(throughput, 100.0, 300.0, 0.01), Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let latency = metric("latency_p50_us");
        let wide = latency.bound + 0.01;
        assert_eq!(judge(latency, 100.0, 150.0, wide), Verdict::Unresolved);
        assert_eq!(judge(latency, 100.0, 100.0, wide), Verdict::Unresolved);
    }

    #[test]
    fn failed_share_is_bounded_absolutely() {
        let failed = metric(FAILED_SHARE);
        assert_eq!(judge(failed, 0.0, 0.0005, 0.0), Verdict::Ok);
        assert_eq!(judge(failed, 0.0, 0.002, 0.0), Verdict::Regressed);
    }

    #[test]
    fn looks_a_metric_up_with_its_spread() {
        let file = Json::parse(
            r#"{"workloads": {"point_read": {"end_to_end": {"latency_p50_us":
                {"value": 10, "unit": "us", "rounds": [9, 10, 10, 10, 11]}}}}}"#,
        )
        .unwrap();
        let (value, spread) = lookup(&file, "point_read", "latency_p50_us").unwrap();
        assert_eq!(value, 10.0);
        assert!((spread - 0.1).abs() < 1e-12);
        assert_eq!(lookup(&file, "join_scan", "latency_p50_us"), None);
    }
}
