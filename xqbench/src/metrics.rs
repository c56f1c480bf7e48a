//! The metric definitions: names, units, directions and regression bounds.
//! Each metric is here once. `BENCHMARK.json` repeats the part of this table
//! its driver can take; a test keeps the two equal.

use crate::workload::Workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which the metric may get worse;
    /// for `failed_share`, an absolute difference. The one bound the metric
    /// has: `BENCHMARK.json` repeats it and `xqbench compare` applies it.
    pub bound: f64,
    /// The one workload that can report it, if it is not all of them.
    pub only: Option<Workload>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    only: Option<Workload>,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        only,
    }
}

const MIXED: Option<Workload> = Some(Workload::MixedSessions);
const LOG: Option<Workload> = Some(Workload::LogCommit);
pub const FAILED_SHARE: &str = "failed_share";

/// Every end-to-end metric, once. How each is measured, and why the bounds
/// are what they are, is in README.md. `server_cpu_us_per_req` is not here:
/// calibration could not hold it to any bound on `log_commit`, so by the
/// issue's rule it is a per-layer metric.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e("setup_s", "s", Better::Lower, 0.25, None),
    e2e("latency_p50_us", "us", Better::Lower, 0.25, None),
    e2e("throughput_rps", "1/s", Better::Higher, 0.25, None),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.10, None),
    e2e("read_p50_us", "us", Better::Lower, 0.10, MIXED),
    e2e("write_p50_us", "us", Better::Lower, 0.15, MIXED),
    e2e("recovery_s", "s", Better::Lower, 0.25, LOG),
    e2e(FAILED_SHARE, "ratio", Better::Lower, 0.001, None),
];

impl EndToEnd {
    pub fn applies_to(&self, workload: Workload) -> bool {
        self.only.is_none_or(|w| w == workload)
    }

    /// Can `BENCHMARK.json` list it? The driver that reads that file wants
    /// every listed metric from every workload and never a 0, which leaves
    /// out the single-workload metrics and `failed_share` (0 at HEAD; the
    /// result line's `failed` / `attempted` carry it). Those keep the bound
    /// above all the same, and `xqbench compare` applies it.
    pub fn in_benchmark_json(&self) -> bool {
        self.only.is_none() && self.name != FAILED_SHARE
    }
}

/// `(name, unit, better)` of every per-layer metric a traced pass reports.
/// None is gated; each names, in the README, the end-to-end metric it
/// should move.
pub const PER_LAYER: [(&str, &str, Better); 37] = [
    ("server_cpu_us_per_req", "us", Better::Lower),
    ("xqserve.banner_ms", "ms", Better::Lower),
    ("xqserve.ping_rtt_us", "us", Better::Lower),
    ("xqserve.wire_overhead_us", "us", Better::Lower),
    ("xqserve.latency_p99_us", "us", Better::Lower),
    ("xqserve.bytes_out_per_req", "B", Better::Lower),
    ("xqsyn.compile_us", "us", Better::Lower),
    ("xqcore.planner.fingerprint_us", "us", Better::Lower),
    ("xqcore.planner.cache_hit_ratio", "ratio", Better::Higher),
    ("xqalg.compile_us", "us", Better::Lower),
    ("xqalg.iterate_fallbacks", "count", Better::Lower),
    ("xqcore.engine.reader_fork_us", "us", Better::Lower),
    ("xqcore.engine.snapshot_us", "us", Better::Lower),
    ("xqcore.engine.execute_us", "us", Better::Lower),
    ("xqcore.engine.execute_noindex_us", "us", Better::Lower),
    ("xqcore.engine.serialize_us", "us", Better::Lower),
    ("xqcore.server.execute_us", "us", Better::Lower),
    ("xqcore.server.self_us", "us", Better::Lower),
    ("xqcore.server.span_coverage", "ratio", Better::Higher),
    ("xqcore.server.trace_overhead_ratio", "ratio", Better::Lower),
    ("xqcore.server.conflicts_per_write", "ratio", Better::Lower),
    ("xqcore.server.retries_per_write", "ratio", Better::Lower),
    ("xqcore.server.resubmits", "count", Better::Lower),
    ("xqcore.server.occ_vs_lock_ratio", "ratio", Better::Higher),
    ("xqdm.xml.parse_mib_s", "MiB/s", Better::Higher),
    ("xqdm.xml.serialize_mib_s", "MiB/s", Better::Higher),
    ("xqdm.store.nodes", "count", Better::Lower),
    ("xqdm.store.doc_bytes", "B", Better::Lower),
    ("xqdm.wal.commit_mem_us", "us", Better::Lower),
    ("xqdm.wal.commit_off_us", "us", Better::Lower),
    ("xqdm.wal.commit_always_us", "us", Better::Lower),
    ("xqdm.wal.append_us", "us", Better::Lower),
    ("xqdm.wal.fsync_us", "us", Better::Lower),
    ("xqdm.wal.bytes_per_commit", "B", Better::Lower),
    ("xqdm.wal.checkpoint_stall_ms", "ms", Better::Lower),
    ("xqdm.wal.recovery_replay_ms", "ms", Better::Lower),
    ("xqdm.version.retained_max", "count", Better::Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::workload::WORKLOADS;

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// program reports and `compare` gates. They must say the same.
    #[test]
    fn benchmark_json_matches_this_table() {
        let file = Json::parse(include_str!("../../BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<String> {
            file.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        assert_eq!(
            names("workloads"),
            WORKLOADS.map(|w| w.name().to_string()).to_vec()
        );
        let listed: Vec<&EndToEnd> = END_TO_END
            .iter()
            .filter(|m| m.in_benchmark_json())
            .collect();
        assert_eq!(
            names("end_to_end"),
            listed.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        for (entry, m) in file
            .get("end_to_end")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .zip(listed)
        {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(m.better.as_str())
            );
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        assert_eq!(
            names("per_layer"),
            PER_LAYER.iter().map(|m| m.0).collect::<Vec<_>>()
        );
        for (entry, m) in file
            .get("per_layer")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .zip(PER_LAYER)
        {
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.1));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(m.2.as_str())
            );
        }
    }
}
