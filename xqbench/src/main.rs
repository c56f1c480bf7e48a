//! `xqbench` — the over-the-wire benchmark for `xqserve`.
//!
//! ```console
//! $ xqbench --seed 1                  # every workload, both passes
//! $ xqbench --workload point_read --seed 1 --seconds 18 --trace 0
//! $ xqbench compare baseline.json candidate.json
//! ```
//!
//! See README.md beside this package for what each workload and metric is
//! for. Build and run through `run.sh`, which puts this executable next to
//! the release `xqserve` it spawns.

mod compare;
mod drive;
mod json;
mod metrics;
mod stats;
mod trace;
mod wire;
mod workload;

use drive::{Host, Plan, TcpRun};
use json::Json;
use metrics::{END_TO_END, FAILED_SHARE, PER_LAYER};
use stats::{median, median_of_round_p50, percentile_of};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;
use wire::CPU_TICK_US;
use workload::{Inputs, Oracle, Workload, WORKLOADS};

/// Rounds per untraced run; a timing metric is the median over rounds.
const ROUNDS: usize = 5;
/// Batches of server starts timed for `setup_s`, before and after the rounds.
const SETUP_BATCHES: [usize; 2] = [3, 2];
const WARMUP: Duration = Duration::from_secs(2);
const DEFAULT_SECONDS: u64 = 18;

const USAGE: &str =
    "usage: xqbench [--seed N] [--seconds S] [--workload NAME] [--trace 0|1] [--out FILE]
       xqbench compare BASELINE.json CANDIDATE.json

Without --workload: every workload, untraced then traced; the result goes to
<target>/xqbench/result.json (or --out) and the spans to <target>/xqbench/trace.json.
With --workload: one pass (--trace 0 untraced, --trace 1 traced); the last
line of standard output is the result as one JSON object.";

struct Args {
    seed: u64,
    seconds: u64,
    workload: Option<Workload>,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        seed: 1,
        seconds: DEFAULT_SECONDS,
        workload: None,
        traced: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value\n\n{USAGE}"));
        let number = |v: &String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--seed" => parsed.seed = number(value()?)?,
            "--seconds" => parsed.seconds = number(value()?)?.max(1),
            "--workload" => {
                let name = value()?;
                parsed.workload = Some(
                    Workload::from_name(name)
                        .ok_or(format!("unknown workload {name:?}; one of {}", names()))?,
                );
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "-h" | "--help" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument {other:?}\n\n{USAGE}")),
        }
    }
    Ok(parsed)
}

fn names() -> String {
    WORKLOADS.map(Workload::name).join(", ")
}

/// Where this executable lives decides everything else: the server it
/// spawns is its sibling, and its files go under `<target>/xqbench/`.
struct Layout {
    xqserve: PathBuf,
    out_dir: PathBuf,
}

fn layout() -> Result<Layout, String> {
    if cfg!(debug_assertions) {
        return Err(
            "this is a debug build of xqbench; its numbers would mean nothing. \
                    Build with --release (bash xqbench/run.sh does)."
                .to_string(),
        );
    }
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let bin_dir = exe.parent().ok_or("executable has no directory")?;
    if bin_dir.file_name().is_none_or(|n| n != "release") {
        return Err(format!(
            "{} is not in a release profile directory; refusing to measure another profile",
            exe.display()
        ));
    }
    let xqserve = bin_dir.join("xqserve");
    if !xqserve.is_file() {
        return Err(format!(
            "no xqserve beside {}: build it into the same target directory first \
             (cargo build --release --offline --bin xqserve, or bash xqbench/run.sh)",
            exe.display()
        ));
    }
    let target = bin_dir.parent().ok_or("release directory has no parent")?;
    Ok(Layout {
        xqserve,
        out_dir: target.join("xqbench"),
    })
}

/// A scratch directory inside the target directory, removed on drop — also
/// when a panic unwinds through its owner.
struct TempDir(PathBuf);

impl TempDir {
    fn new(out_dir: &Path, label: &str) -> Result<TempDir, String> {
        let path = out_dir.join(format!("tmp-{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(TempDir(path))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn host_facts() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or("unknown".to_string(), |s| s.trim().to_string());
    Json::obj([
        ("nproc", Json::from(nproc as u64)),
        // A checkout without .git (the driver's) has no commit to name.
        (
            "commit",
            Json::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        ("kernel", Json::Str(kernel)),
    ])
}

/// `(steal, all)` clock ticks of the whole machine so far.
fn host_ticks() -> Result<(u64, u64), String> {
    let stat = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|t| t.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice; the
    // guest columns are already inside user and nice.
    match ticks.get(..8) {
        Some(own) => Ok((own[7], own.iter().sum())),
        None => Err("/proc/stat: no cpu line".to_string()),
    }
}

/// A pass in which the hypervisor took more of the machine than this is
/// flagged: its timings are upper bounds, not this commit's numbers.
const STEAL_FLAG: f64 = 0.10;

/// Share of the machine's CPU time the hypervisor took since `before`.
fn steal_share_since(before: (u64, u64)) -> Result<f64, String> {
    let now = host_ticks()?;
    Ok((now.0 - before.0) as f64 / (now.1 - before.1).max(1) as f64)
}

/// One reported number.
struct Measured {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// The per-round (or per-repeat) values `value` is the median of.
    rounds: Vec<f64>,
    /// Samples behind a percentile.
    samples: Option<usize>,
    note: String,
}

impl Measured {
    fn json(&self) -> Json {
        let mut pairs = vec![
            ("value", Json::Num(self.value)),
            ("unit", Json::from(self.unit)),
        ];
        if !self.rounds.is_empty() {
            pairs.push(("rounds", Json::nums(&self.rounds)));
        }
        if let Some(n) = self.samples {
            pairs.push(("samples", Json::from(n as u64)));
        }
        Json::obj(pairs)
    }

    fn print(&self) {
        let mut line = format!("  {:<36} {:>14.4} {:<6}", self.name, self.value, self.unit);
        if let Some(n) = self.samples {
            line.push_str(&format!(" n={n}"));
        }
        if !self.rounds.is_empty() {
            let shown: Vec<String> = self.rounds.iter().map(|v| format!("{v:.4}")).collect();
            line.push_str(&format!(" [{}]", shown.join(" ")));
        }
        if !self.note.is_empty() {
            line.push_str(&format!(" — {}", self.note));
        }
        println!("{}", line.trim_end());
    }
}

fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("metric {name} is not in the table"))
        .1
}

fn measured(name: &'static str, value: f64) -> Measured {
    Measured {
        name,
        unit: unit_of(name),
        value,
        rounds: Vec::new(),
        samples: None,
        note: String::new(),
    }
}

/// A timing metric: the median over rounds of each round's p50.
fn round_p50(name: &'static str, rounds: &[Vec<f64>]) -> Measured {
    Measured {
        rounds: rounds.iter().map(|r| percentile_of(r, 0.5)).collect(),
        samples: Some(rounds.iter().map(Vec::len).sum()),
        ..measured(name, median_of_round_p50(rounds))
    }
}

fn median_of(name: &'static str, values: &[f64]) -> Measured {
    Measured {
        rounds: values.to_vec(),
        ..measured(name, median(values))
    }
}

/// The end-to-end metrics of an untraced run, those that apply to `workload`.
fn end_to_end(workload: Workload, run: &TcpRun) -> Vec<Measured> {
    let mut out = vec![
        Measured {
            note: format!(
                "spawn → reply to a first query, median over batches of each batch's fastest start; \
                 {:.4} s of it to the banner",
                median(&run.banner_s)
            ),
            ..median_of("setup_s", &run.setup_s)
        },
        round_p50("latency_p50_us", &run.latency_us),
        median_of("throughput_rps", &run.throughput_rps),
        Measured {
            note: match run.rss_at_end {
                false => format!(
                    "VmHWM when the run had completed {} requests per connection",
                    drive::RSS_AT
                ),
                true => "VmHWM at the end: the run was shorter than the fixed request count".into(),
            },
            ..measured("peak_rss_mib", run.peak_rss_mib)
        },
    ];
    if workload == Workload::MixedSessions {
        out.push(round_p50("read_p50_us", &run.read_us));
        out.push(round_p50("write_p50_us", &run.write_us));
    }
    if workload == Workload::LogCommit {
        out.push(Measured {
            note: format!(
                "SIGKILL → banner, median over batches of each batch's fastest restart; flush policy fsync always; \
                 the kill keeps the OS cache; replayed {} commits",
                run.replayed_commits
                    .map_or("?".to_string(), |n| n.to_string())
            ),
            ..median_of("recovery_s", &run.recovery_s)
        });
    }
    out.push(Measured {
        note: format!("{} of {} checked replies", run.failed, run.attempted),
        ..measured(FAILED_SHARE, run.failed_share())
    });
    out
}

struct Pass {
    metrics: Vec<Measured>,
    attempted: u64,
    failed: u64,
    complaints: Vec<String>,
    /// Values not to cite, and why: impossible per-layer values, a pass the
    /// hypervisor disturbed.
    notes: Vec<String>,
    /// Share of the machine the hypervisor took during the pass.
    steal_share: f64,
    spans: Option<Json>,
}

fn untraced_pass(
    workload: Workload,
    inputs: &Inputs,
    oracle: &Oracle,
    seconds: u64,
    layout: &Layout,
) -> Result<Pass, String> {
    let tmp = TempDir::new(&layout.out_dir, workload.name())?;
    let plan = Plan {
        setup_batches: SETUP_BATCHES,
        warmup: WARMUP,
        rounds: ROUNDS,
        round_len: Duration::from_secs_f64(seconds as f64 / ROUNDS as f64),
        observe: false,
    };
    let host = Host {
        xqserve: &layout.xqserve,
        tmp: &tmp.0,
    };
    let ticks_before = host_ticks()?;
    let run = drive::run(workload, inputs, oracle, plan, &host)?;
    println!(
        "{}: untraced, {} connection(s), closed loop, {} s warm-up, {ROUNDS} rounds × {:.1} s, \
         {} batches of set-ups",
        workload.name(),
        run.connections,
        WARMUP.as_secs(),
        plan.round_len.as_secs_f64(),
        run.setup_s.len(),
    );
    let mut metrics = end_to_end(workload, &run);
    // Not gated, but a tail belongs beside every median.
    metrics.push(Measured {
        samples: Some(run.all_latency_us.len()),
        ..measured("xqserve.latency_p99_us", run.p99_us())
    });
    Ok(Pass {
        metrics,
        attempted: run.attempted,
        failed: run.failed,
        complaints: run.complaints,
        notes: Vec::new(),
        steal_share: steal_share_since(ticks_before)?,
        spans: None,
    })
}

fn traced_pass(
    workload: Workload,
    inputs: &Inputs,
    oracle: &Oracle,
    seconds: u64,
    layout: &Layout,
) -> Result<Pass, String> {
    let tmp = TempDir::new(&layout.out_dir, &format!("{}-trace", workload.name()))?;
    // Two fifths of the time for the TCP leg (server CPU is counted in
    // 10 ms ticks, so it wants as many requests as it can get), at most a
    // quarter for the in-process replay; the fixed probes take the rest.
    let tcp_len = Duration::from_secs_f64(seconds as f64 * 0.4);
    let budget = Duration::from_secs_f64(seconds as f64 * 0.25);
    let plan = Plan {
        setup_batches: [1, 0],
        warmup: Duration::from_secs(1),
        rounds: 1,
        round_len: tcp_len,
        observe: true,
    };
    let host = Host {
        xqserve: &layout.xqserve,
        tmp: &tmp.0,
    };
    let ticks_before = host_ticks()?;
    let tcp = drive::run(workload, inputs, oracle, plan, &host)?;
    let observed = tcp.observed.clone().expect("an observing run observes");
    let replay = trace::replay(workload, inputs, oracle, budget, &tmp.0.join("replay"))?;
    let trace::Probes {
        values: probes,
        mut notes,
    } = trace::layer_probes(inputs, &tmp.0)?;
    let (probed_us, plain_us) = (
        replay.execute_us_where(true),
        replay.execute_us_where(false),
    );
    println!(
        "{}: traced, TCP leg {:.1} s on {} connection(s), then {} requests replayed in-process, \
         alternate blocks of them ({}) each followed by its layer probes",
        workload.name(),
        tcp_len.as_secs_f64(),
        tcp.connections,
        replay.execute_us.len(),
        probed_us.len()
    );
    println!(
        "  server CPU: {} ticks of {} ms (utime + stime, exited threads included) over the leg's {} requests",
        tcp.cpu_ticks,
        CPU_TICK_US / 1e3,
        tcp.cpu_requests
    );

    let cycle = workload.cycle();
    let plain_p50 = trace::p50_by_cycle(&plain_us, cycle);
    let overhead = trace::p50_by_cycle(&probed_us, cycle) / plain_p50;
    if overhead < 1.0 {
        notes.push(format!(
            "xqcore.server.trace_overhead_ratio is {overhead:.3}: requests that follow their own \
             probes ran faster than those that do not (the probes warm what the next request \
             uses), so tracing cost is below what this run can resolve"
        ));
    }
    let chain = trace::execute_and_probes(&replay.spans);
    let self_us: Vec<f64> = chain.iter().map(|&(all, probes)| all - probes).collect();
    let self_p50 = trace::p50_by_cycle(&self_us, cycle);
    let per_write = |n: f64| {
        if observed.writes > 0.0 {
            n / observed.writes
        } else {
            0.0
        }
    };

    let mut values: Vec<(&'static str, f64, Option<usize>)> = vec![
        (
            "server_cpu_us_per_req",
            tcp.cpu_us_per_req(),
            Some(tcp.cpu_requests as usize),
        ),
        (
            "xqserve.ping_rtt_us",
            percentile_of(&observed.ping_rtt_us, 0.5),
            Some(observed.ping_rtt_us.len()),
        ),
        (
            "xqserve.wire_overhead_us",
            median_of_round_p50(&tcp.latency_us) - plain_p50,
            None,
        ),
        (
            "xqserve.latency_p99_us",
            tcp.p99_us(),
            Some(tcp.all_latency_us.len()),
        ),
        (
            "xqserve.bytes_out_per_req",
            tcp.reply_bytes as f64 / tcp.attempted as f64,
            None,
        ),
        (
            "xqcore.planner.cache_hit_ratio",
            observed.cache_hits / (observed.cache_hits + observed.cache_misses).max(1.0),
            None,
        ),
        (
            "xqalg.iterate_fallbacks",
            trace::iterate_fallbacks(workload, inputs)?,
            None,
        ),
        ("xqcore.server.self_us", self_p50, Some(self_us.len())),
        // The share of the probed requests' `Session::execute` p50 that
        // their probes leave unexplained, taken from 1.
        (
            "xqcore.server.span_coverage",
            1.0 - self_p50 / trace::p50_by_cycle(&probed_us, cycle),
            None,
        ),
        (
            "xqcore.server.trace_overhead_ratio",
            overhead,
            Some(probed_us.len()),
        ),
        (
            "xqcore.server.conflicts_per_write",
            per_write(observed.conflicts),
            None,
        ),
        (
            "xqcore.server.retries_per_write",
            per_write(observed.retries),
            None,
        ),
        ("xqcore.server.resubmits", tcp.resubmits as f64, None),
        ("xqserve.banner_ms", median(&tcp.banner_s) * 1e3, None),
        (
            "xqdm.version.retained_max",
            observed.versions_retained_max,
            None,
        ),
    ];
    for span in trace::LAYER_SPANS {
        let per_request = trace::durations(&replay.spans, span);
        let name = PER_LAYER
            .iter()
            .map(|m| m.0)
            .find(|n| n.strip_suffix("_us") == Some(span))
            .expect("every layer span has a metric");
        values.push((
            name,
            trace::p50_by_cycle(&per_request, cycle),
            Some(per_request.len()),
        ));
    }
    values.extend(probes.into_iter().map(|(n, v)| (n, v, None)));

    // Report in the table's order, and everything in the table.
    let metrics = PER_LAYER
        .iter()
        .map(|&(name, _, _)| {
            let &(_, value, samples) = values
                .iter()
                .find(|(n, _, _)| *n == name)
                .unwrap_or_else(|| panic!("per-layer metric {name} was not measured"));
            Measured {
                samples,
                ..measured(name, value)
            }
        })
        .collect();
    let mut complaints = tcp.complaints;
    complaints.extend(replay.complaints);
    Ok(Pass {
        metrics,
        attempted: tcp.attempted + replay.attempted,
        failed: tcp.failed + replay.failed,
        complaints,
        notes,
        steal_share: steal_share_since(ticks_before)?,
        spans: Some(trace::spans_json(workload, inputs.seed, &replay.spans)),
    })
}

fn report(pass: &Pass) {
    for m in &pass.metrics {
        m.print();
    }
    println!(
        "  checked {} replies, {} failed",
        pass.attempted, pass.failed
    );
    for c in &pass.complaints {
        println!("  FAILED: {c}");
    }
    println!(
        "  the hypervisor took {:.1}% of the machine during this pass",
        pass.steal_share * 100.0
    );
    for n in &pass.notes {
        println!("  NOTE: {n}");
    }
    if pass.steal_share > STEAL_FLAG {
        println!(
            "  NOTE: that is more than {:.0}%: this pass's timings are upper bounds; do not cite them",
            STEAL_FLAG * 100.0
        );
    }
}

fn write_json(path: &Path, value: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, format!("{value}\n")).map_err(|e| format!("write {}: {e}", path.display()))
}

fn write_trace(layout: &Layout, traces: Vec<Json>) -> Result<(), String> {
    let path = layout.out_dir.join("trace.json");
    write_json(&path, &Json::obj([("traces", Json::Arr(traces))]))?;
    println!("spans written to {}", path.display());
    Ok(())
}

fn metrics_json(metrics: &[Measured]) -> Json {
    Json::obj(metrics.iter().map(|m| (m.name, m.json())))
}

/// `--workload`: one pass, and the driver's result line last.
fn single(args: &Args, workload: Workload, layout: &Layout) -> Result<(), String> {
    println!(
        "xqbench: workload {} seed {} seconds {} trace {} host {}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.traced),
        host_facts()
    );
    let inputs = Inputs::generate(args.seed);
    let oracle = Oracle::build(workload, &inputs)?;
    let mut pass = match args.traced {
        false => untraced_pass(workload, &inputs, &oracle, args.seconds, layout)?,
        true => traced_pass(workload, &inputs, &oracle, args.seconds, layout)?,
    };
    report(&pass);
    if let Some(spans) = pass.spans.take() {
        write_trace(layout, vec![spans])?;
    }
    // Exactly the metrics BENCHMARK.json lists for this kind of pass.
    let listed = pass.metrics.iter().filter(|m| match args.traced {
        true => true,
        false => END_TO_END
            .iter()
            .any(|e| e.in_benchmark_json() && e.name == m.name),
    });
    let line = Json::obj([
        ("correct", Json::Bool(pass.failed == 0)),
        ("attempted", Json::from(pass.attempted)),
        ("failed", Json::from(pass.failed)),
        (
            "metrics",
            Json::obj(listed.map(|m| {
                (
                    m.name,
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::from(m.unit))]),
                )
            })),
        ),
    ]);
    println!("{line}");
    Ok(())
}

/// No `--workload`: every workload, untraced then traced.
fn full(args: &Args, layout: &Layout) -> Result<(), String> {
    let host = host_facts();
    println!(
        "xqbench: seed {} seconds {} per pass, host {host}",
        args.seed, args.seconds
    );
    let inputs = Inputs::generate(args.seed);
    // Every untraced pass before any traced one: the traced passes keep a
    // core busy for many seconds, and on a shared host the minutes after
    // such a burst run measurably slower.
    let mut untraced = Vec::new();
    for workload in WORKLOADS {
        let oracle = Oracle::build(workload, &inputs)?;
        let pass = untraced_pass(workload, &inputs, &oracle, args.seconds, layout)?;
        report(&pass);
        untraced.push((pass, oracle));
    }
    let mut workloads = Vec::new();
    let mut traces = Vec::new();
    let mut failed = 0;
    for (workload, (untraced, oracle)) in WORKLOADS.into_iter().zip(untraced) {
        let mut traced = traced_pass(workload, &inputs, &oracle, args.seconds, layout)?;
        report(&traced);
        traces.extend(traced.spans.take());
        failed += untraced.failed + traced.failed;
        workloads.push((
            workload.name(),
            Json::obj([
                ("connections", Json::from(workload.connections() as u64)),
                ("attempted", Json::from(untraced.attempted)),
                ("failed", Json::from(untraced.failed)),
                (
                    "host_steal_share",
                    Json::obj([
                        ("untraced", Json::Num(untraced.steal_share)),
                        ("traced", Json::Num(traced.steal_share)),
                    ]),
                ),
                ("end_to_end", metrics_json(&untraced.metrics)),
                ("per_layer", metrics_json(&traced.metrics)),
            ]),
        ));
    }
    write_trace(layout, traces)?;
    let result = Json::obj([
        ("host", host),
        ("seed", Json::from(args.seed)),
        ("seconds", Json::from(args.seconds)),
        ("rounds", Json::from(ROUNDS as u64)),
        ("warmup_s", Json::from(WARMUP.as_secs())),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = args
        .out
        .clone()
        .unwrap_or_else(|| layout.out_dir.join("result.json"));
    write_json(&path, &result)?;
    println!("result written to {}", path.display());
    if failed > 0 {
        return Err(format!("{failed} replies failed their check"));
    }
    Ok(())
}

fn run(args: &[String]) -> Result<(), String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => match compare::run(a, b)? {
                true => Ok(()),
                false => Err("at least one metric regressed".to_string()),
            },
            _ => Err(USAGE.to_string()),
        };
    }
    let args = parse_args(args)?;
    let layout = layout()?;
    match args.workload {
        Some(workload) => single(&args, workload, &layout),
        None => full(&args, &layout),
    }
}

fn main() -> ExitCode {
    // The server must run on its defaults, and so must the in-process
    // engines of the traced pass: drop every XQB_* knob before anything
    // reads one. Children inherit the scrubbed environment.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("XQB_") {
            std::env::remove_var(&key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("xqbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A release `xqserve`: in the target directory this test was built into,
    /// or in the repository's default one.
    fn release_xqserve() -> Option<PathBuf> {
        let exe = std::env::current_exe().ok()?;
        let own_target = exe.ancestors().nth(3)?.to_path_buf();
        let repo_target = Path::new(env!("CARGO_MANIFEST_DIR")).join("../target");
        [own_target, repo_target]
            .into_iter()
            .map(|t| t.join("release/xqserve"))
            .find(|p| p.is_file())
    }

    /// One 1 s round of every workload against a spawned server, durability
    /// leg included. Skipped when no release server has been built.
    #[test]
    fn smoke_one_round_of_each_workload() {
        let Some(xqserve) = release_xqserve() else {
            eprintln!("skipped: no release xqserve (build it with bash xqbench/run.sh --help)");
            return;
        };
        let out_dir = xqserve.ancestors().nth(2).unwrap().join("xqbench");
        let inputs = Inputs::generate(7);
        for workload in WORKLOADS {
            let tmp = TempDir::new(&out_dir, &format!("smoke-{}", workload.name())).unwrap();
            let oracle = Oracle::build(workload, &inputs).unwrap();
            let plan = Plan {
                setup_batches: [1, 1],
                warmup: Duration::ZERO,
                rounds: 1,
                round_len: Duration::from_secs(1),
                observe: false,
            };
            let host = Host {
                xqserve: &xqserve,
                tmp: &tmp.0,
            };
            let run = drive::run(workload, &inputs, &oracle, plan, &host).unwrap();
            assert_eq!(run.failed, 0, "{}: {:?}", workload.name(), run.complaints);
            assert!(run.attempted > workload.prelude() as u64);
            let metrics = end_to_end(workload, &run);
            for m in END_TO_END.iter().filter(|m| m.applies_to(workload)) {
                let got = metrics.iter().find(|g| g.name == m.name);
                let value = got.unwrap_or_else(|| panic!("{} missing", m.name)).value;
                assert!(value.is_finite(), "{}: {value}", m.name);
                assert!(value > 0.0 || m.name == FAILED_SHARE, "{}: {value}", m.name);
            }
            if workload.durable() {
                assert_eq!(run.replayed_commits, Some(200));
            }
            if workload == Workload::JoinScan {
                // The server evaluates each request on a thread that has
                // exited before anyone reads its CPU time; the reading must
                // hold that work all the same. Evaluating the same queries
                // here takes wall time the server's CPU time cannot be far
                // under (it also parses, forks and serializes; the margin is
                // for the 10 ms tick).
                let mut engine = xquery_bang::Engine::new();
                engine.load_document("auction", &inputs.xmark_xml).unwrap();
                let queries = workload.shapes();
                let started = std::time::Instant::now();
                for q in &queries {
                    std::hint::black_box(engine.run(q).unwrap());
                }
                let in_process_us = started.elapsed().as_secs_f64() * 1e6 / queries.len() as f64;
                assert!(
                    run.cpu_us_per_req() >= 0.8 * in_process_us,
                    "server CPU {} µs per request, in-process evaluation {in_process_us} µs",
                    run.cpu_us_per_req()
                );
            }
            drop(tmp);
            assert!(!out_dir
                .join(format!(
                    "tmp-{}-smoke-{}",
                    std::process::id(),
                    workload.name()
                ))
                .exists());
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let args = |line: &str| -> Vec<String> { line.split(' ').map(str::to_string).collect() };
        let a = parse_args(&args(
            "--workload log_commit --seed 9 --seconds 15 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.traced),
            (Some(Workload::LogCommit), 9, 15, true)
        );
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--trace 2")).is_err());
        assert!(parse_args(&args("--seed")).is_err());
    }
}
