//! Crash-point fault-injection harness for the durable store (ISSUE 6).
//!
//! The probe runs a scripted multi-snap workload against a durable store
//! and attacks it three ways:
//!
//! 1. **Kill sweep** — re-runs the workload in a child process with
//!    `XQB_WAL_CRASH_AT=<bytes>`, so the child aborts mid-write after
//!    exactly that many cumulative log bytes, leaving a genuinely torn
//!    record on disk.
//! 2. **Offline corruption** — takes a cleanly written log and either
//!    truncates it at an arbitrary offset or flips a single bit.
//! 3. **Checkpoint crossing** — `XQB_WAL_CRASH_CHECKPOINT=1|2` aborts the
//!    child between checkpoint install and log truncation, or mid-way
//!    through writing the snapshot itself.
//! 4. **Crash under load** (ISSUE 8) — the child hosts the store behind
//!    the multi-session [`Server`] with several writer sessions and a
//!    snapshot-pinned reader in flight when the abort fires. Commit order
//!    across sessions is nondeterministic, so the oracle is per-session:
//!    each session writes sequenced elements, and recovery must surface a
//!    gapless in-order prefix of every session's writes.
//!
//! After every attack the store is recovered and its fingerprint must
//! equal some committed prefix of the workload — never a torn, reordered,
//! or invented state. Exit code 0 iff every probe holds.
//!
//! Run with: `cargo run --example crash_probe`

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use xquery_bang::xqdm::SyncMode;
use xquery_bang::{Engine, ServerConfig, Store};

/// The scripted workload: deterministic (ordered snaps only), multi-snap,
/// with committed-then-failing runs, nested snaps, and an orphan sweep —
/// every redo-op kind is exercised. Runs identically on a durable engine
/// (the child) and an in-memory replica (the parent's oracle); returns
/// the store fingerprint after every engine commit point.
fn run_workload(e: &mut Engine) -> Vec<u64> {
    let mut prefixes = vec![e.store.fingerprint()];
    e.load_document("doc", "<site><open_auctions/></site>")
        .unwrap();
    prefixes.push(e.store.fingerprint());
    let queries = [
        // Plain inserts, with attributes and nested structure.
        "insert { <item id=\"1\"><name>alpha</name></item> } into { $doc/site }",
        "insert { <item id=\"2\"><name>beta</name><price>17</price></item> } into { $doc/site }",
        // A nested snap inside the implicit one.
        "snap { insert { <auction n=\"1\"/> } into { $doc/site/open_auctions },
                snap insert { <bid v=\"10\"/> } into { $doc/site/open_auctions/auction } }",
        // Rename and replace (text mutation).
        "rename { ($doc/site/item)[1] } to { \"lot\" }",
        "replace { ($doc/site/item/name/text())[1] } with { \"gamma\" }",
        // A failing run whose explicit snap committed first: the snap
        // must persist, the error must not.
        "(snap insert { <kept/> } into { $doc/site }, 1 div 0)",
        // A failing run that constructed an orphan: the engine sweeps it
        // (reclaim -> Collect redo op) at the commit point.
        "(element orphan { \"zzz\" }, 1 div 0)",
        // Delete, then refill so the freed slots get reused (free-list
        // order must replay exactly).
        "delete { ($doc/site/lot)[1] }",
        "insert { <item id=\"3\"><name>delta</name></item> } into { $doc/site }",
        "insert { <closed/> } into { $doc/site/open_auctions }",
    ];
    for q in queries {
        let _ = e.run(q); // the 1-div-0 runs error by design
        prefixes.push(e.store.fingerprint());
    }
    prefixes
}

/// Child mode: open the durable store at `dir` and run the workload.
/// The parent injects crashes via XQB_WAL_CRASH_AT / _CHECKPOINT /
/// XQB_CHECKPOINT_EVERY in our environment (read at store open).
fn child(dir: &str) -> ExitCode {
    let mut e = Engine::new();
    if let Err(err) = e.open_store(dir) {
        eprintln!("child: cannot open store: {err}");
        return ExitCode::FAILURE;
    }
    run_workload(&mut e);
    ExitCode::SUCCESS
}

/// Writer sessions in the server child, and inserts each performs.
const SERVER_WRITERS: usize = 3;
const SERVER_ROUNDS: usize = 12;

/// Server child mode: host the durable store behind a multi-session
/// [`xquery_bang::Server`] and keep several sessions in flight — three
/// writers appending sequenced elements plus one reader pinning snapshots
/// — so `XQB_WAL_CRASH_AT` aborts the process mid-commit while other
/// sessions are genuinely mid-request.
fn server_child(dir: &str) -> ExitCode {
    let mut e = Engine::new();
    if let Err(err) = e.open_store(dir) {
        eprintln!("server-child: cannot open store: {err}");
        return ExitCode::FAILURE;
    }
    e.load_document("doc", "<log/>").unwrap();
    let server = e.into_server(ServerConfig::default());
    let start = Arc::new(Barrier::new(SERVER_WRITERS + 1));
    let done = Arc::new(AtomicBool::new(false));

    let reader = {
        let server = server.clone();
        let start = start.clone();
        let done = done.clone();
        std::thread::spawn(move || {
            let session = server.open_session().unwrap();
            start.wait();
            while !done.load(Ordering::Relaxed) {
                session.execute("count($doc/log/e)").unwrap();
            }
        })
    };
    let writers: Vec<_> = (0..SERVER_WRITERS)
        .map(|s| {
            let server = server.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                let session = server.open_session().unwrap();
                start.wait();
                for n in 0..SERVER_ROUNDS {
                    session
                        .execute(&format!(
                            "insert {{ <e s=\"{s}\" n=\"{n}\"/> }} into {{ $doc/log }}"
                        ))
                        .unwrap();
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Relaxed);
    reader.join().unwrap();
    ExitCode::SUCCESS
}

/// Concurrent OCC writers in the occ-child, and commits each performs.
const OCC_WRITERS: usize = 3;
const OCC_ROUNDS: usize = 8;

/// OCC child mode (ISSUE 9): optimistic concurrent writers contending on
/// one shared counter while appending per-writer sequenced ticks. Every
/// commit atomically bumps the counter (an explicit snap, so the Δ
/// carries a value-aspect read-modify-write that *conflicts* with every
/// other writer — retries and interleaved-committer WAL records are
/// guaranteed) and appends one `<tick/>`. Every third request of writer 0
/// constructs nodes, commits the same pair inside a closed snap, then
/// calls `fn:error()`: the snap persists (paper §2.3), the engine sweeps
/// the constructed orphans, and the rebased batch carries that `Collect`
/// into the log — a collection missing there would replay every later
/// allocation onto the wrong slot. `XQB_WAL_CRASH_AT` aborts the process
/// mid-commit with validation, rebase, and retry genuinely in flight on
/// other threads.
fn occ_child(dir: &str) -> ExitCode {
    let mut e = Engine::new();
    if let Err(err) = e.open_store(dir) {
        eprintln!("occ-child: cannot open store: {err}");
        return ExitCode::FAILURE;
    }
    e.load_document("doc", "<site><c>0</c><ticks/></site>")
        .unwrap();
    let server = e.into_server(ServerConfig::default());
    let start = Arc::new(Barrier::new(OCC_WRITERS));
    let writers: Vec<_> = (0..OCC_WRITERS)
        .map(|s| {
            let server = server.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                let session = server.open_session().unwrap();
                start.wait();
                for n in 0..OCC_ROUNDS {
                    let bump = "replace value of { $doc/site/c/text() } with { $doc/site/c + 1 }";
                    let tick = format!(
                        "insert {{ <tick s=\"{s}\" n=\"{n}\"/> }} into {{ $doc/site/ticks }}"
                    );
                    let errored = s == 0 && n % 3 == 2;
                    let q = if errored {
                        format!("(<junk><k/><k/></junk>, snap {{ ({bump}, {tick}) }}, fn:error())")
                    } else {
                        format!("(snap {bump}, {tick})")
                    };
                    // XQB0052 after exhausted retries is retryable by
                    // contract; the crash abort can also kill us mid-call.
                    loop {
                        match session.execute(&q) {
                            Ok(_) => break,
                            Err(xquery_bang::Error::Eval(e)) if e.code == "XQB0052" => {}
                            // The scripted failure: its snap is committed.
                            Err(xquery_bang::Error::Eval(e)) if errored && e.code == "FOER0000" => {
                                break
                            }
                            Err(err) => {
                                eprintln!("occ-child: {err}");
                                return;
                            }
                        }
                    }
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    ExitCode::SUCCESS
}

struct Probe {
    exe: PathBuf,
    base: PathBuf,
    prefixes: Vec<u64>,
    failures: u64,
    probes: u64,
    tails_dropped: u64,
}

impl Probe {
    fn fresh_dir(&self, tag: &str) -> PathBuf {
        let dir = self.base.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Spawn a child (`child` or `server-child` mode) against `dir` with
    /// extra env vars.
    fn spawn_child_mode(&self, mode: &str, dir: &Path, env: &[(&str, String)]) {
        let mut cmd = Command::new(&self.exe);
        cmd.arg(mode)
            .arg(dir)
            .env_remove("XQB_WAL_CRASH_AT")
            .env_remove("XQB_WAL_CRASH_CHECKPOINT")
            .env("XQB_CHECKPOINT_EVERY", "0");
        for (k, v) in env {
            cmd.env(k, v);
        }
        // An aborting child is the point; ignore its status and let
        // recovery judge the on-disk state.
        let _ = cmd.output().expect("spawn child");
    }

    fn spawn_child(&self, dir: &Path, env: &[(&str, String)]) {
        self.spawn_child_mode("child", dir, env);
    }

    /// Recover `dir` and check the central invariant; a clean (uncrashed)
    /// run must recover to the *final* workload state, not merely some
    /// prefix — a harness that lost committed tail bytes silently would
    /// otherwise still pass.
    fn check_recovery(&mut self, dir: &Path, what: &str, expect_final: bool) {
        self.probes += 1;
        match Store::open_durable(dir, SyncMode::Always) {
            Ok((store, report)) => {
                self.tails_dropped += report.tail_dropped;
                let fp = store.fingerprint();
                let ok = if expect_final {
                    Some(&fp) == self.prefixes.last()
                } else {
                    self.prefixes.contains(&fp)
                };
                if ok {
                    let commits = report.replayed_commits;
                    println!(
                        "  ok: {what} -> prefix fingerprint {fp:016x} ({commits} commits replayed)"
                    );
                } else if expect_final {
                    self.failures += 1;
                    eprintln!(
                        "  FAIL: {what} -> fingerprint {fp:016x} is not the final workload state"
                    );
                } else {
                    self.failures += 1;
                    eprintln!("  FAIL: {what} -> fingerprint {fp:016x} is not a committed prefix");
                }
            }
            Err(e) => {
                // Corrupt tails must degrade, never abort recovery.
                self.failures += 1;
                eprintln!("  FAIL: {what} -> recovery errored: {e}");
            }
        }
    }

    /// Recover a server-child store and check the concurrent-workload
    /// invariant: commit order across sessions is nondeterministic, so
    /// instead of a global fingerprint oracle, every session's recovered
    /// writes must be a gapless in-order prefix 0..m of its script (each
    /// session commits sequentially, so any recovered state that is a
    /// committed prefix of the log satisfies exactly this per-session
    /// shape). A clean run must recover every session in full.
    fn check_server_recovery(&mut self, dir: &Path, what: &str, expect_complete: bool) {
        self.probes += 1;
        let mut e = Engine::new();
        let report = match e.open_store(dir) {
            Ok(report) => report,
            Err(err) => {
                self.failures += 1;
                eprintln!("  FAIL: {what} -> recovery errored: {err}");
                return;
            }
        };
        self.tails_dropped += report.tail_dropped;
        if e.store.document_roots().is_empty() {
            // Crashed before the initial document load committed: the
            // empty store is the (trivial) committed prefix.
            if expect_complete {
                self.failures += 1;
                eprintln!("  FAIL: {what} -> clean run recovered an empty store");
            } else {
                println!("  ok: {what} -> empty store (pre-load crash)");
            }
            return;
        }
        let mut recovered = 0usize;
        for s in 0..SERVER_WRITERS {
            let q = format!("for $e in $doc/log/e[@s=\"{s}\"] return string($e/@n)");
            let got = match e.run(&q) {
                Ok(v) => e.serialize(&v).unwrap_or_default(),
                Err(err) => {
                    self.failures += 1;
                    eprintln!("  FAIL: {what} -> query after recovery errored: {err}");
                    return;
                }
            };
            let ns: Vec<&str> = got.split(' ').filter(|p| !p.is_empty()).collect();
            let prefix: Vec<String> = (0..ns.len()).map(|n| n.to_string()).collect();
            if ns != prefix {
                self.failures += 1;
                eprintln!(
                    "  FAIL: {what} -> session {s} recovered [{}], not a gapless prefix",
                    ns.join(", ")
                );
                return;
            }
            if expect_complete && ns.len() != SERVER_ROUNDS {
                self.failures += 1;
                eprintln!(
                    "  FAIL: {what} -> clean run lost session {s} writes ({}/{SERVER_ROUNDS})",
                    ns.len()
                );
                return;
            }
            recovered += ns.len();
        }
        println!(
            "  ok: {what} -> per-session prefixes hold ({recovered}/{} writes survived)",
            SERVER_WRITERS * SERVER_ROUNDS
        );
    }

    /// Recover an occ-child store. The OCC commit order is
    /// nondeterministic and interleaved with retries, so the oracle is
    /// "a prefix consistent with *some* serial commit order":
    ///
    /// * every writer's recovered ticks are a gapless in-order prefix of
    ///   its script (per-session program order survives);
    /// * the counter equals the total tick count (each commit atomically
    ///   bumped once and appended once — a torn or reordered replay, or a
    ///   lost counter update, breaks the equality);
    /// * a clean run recovered everything, and its log carries one
    ///   interleaved-committer record per OCC commit.
    fn check_occ_recovery(&mut self, dir: &Path, what: &str, expect_complete: bool) {
        self.probes += 1;
        let mut e = Engine::new();
        let report = match e.open_store(dir) {
            Ok(report) => report,
            Err(err) => {
                self.failures += 1;
                eprintln!("  FAIL: {what} -> recovery errored: {err}");
                return;
            }
        };
        self.tails_dropped += report.tail_dropped;
        if expect_complete && report.tail_dropped != 0 {
            self.failures += 1;
            eprintln!(
                "  FAIL: {what} -> clean run dropped a log tail: {:?}",
                report.warnings
            );
            return;
        }
        if e.store.document_roots().is_empty() {
            if expect_complete {
                self.failures += 1;
                eprintln!("  FAIL: {what} -> clean run recovered an empty store");
            } else {
                println!("  ok: {what} -> empty store (pre-load crash)");
            }
            return;
        }
        let mut total_ticks = 0usize;
        for s in 0..OCC_WRITERS {
            let q = format!("for $t in $doc/site/ticks/tick[@s=\"{s}\"] return string($t/@n)");
            let got = match e.run(&q) {
                Ok(v) => e.serialize(&v).unwrap_or_default(),
                Err(err) => {
                    self.failures += 1;
                    eprintln!("  FAIL: {what} -> query after recovery errored: {err}");
                    return;
                }
            };
            let ns: Vec<&str> = got.split(' ').filter(|p| !p.is_empty()).collect();
            let prefix: Vec<String> = (0..ns.len()).map(|n| n.to_string()).collect();
            if ns != prefix {
                self.failures += 1;
                eprintln!(
                    "  FAIL: {what} -> writer {s} recovered [{}], not a gapless prefix",
                    ns.join(", ")
                );
                return;
            }
            if expect_complete && ns.len() != OCC_ROUNDS {
                self.failures += 1;
                eprintln!(
                    "  FAIL: {what} -> clean run lost writer {s} commits ({}/{OCC_ROUNDS})",
                    ns.len()
                );
                return;
            }
            total_ticks += ns.len();
        }
        let counter = match e.run("string($doc/site/c)") {
            Ok(v) => e.serialize(&v).unwrap_or_default(),
            Err(err) => {
                self.failures += 1;
                eprintln!("  FAIL: {what} -> counter read errored: {err}");
                return;
            }
        };
        if counter != total_ticks.to_string() {
            self.failures += 1;
            eprintln!(
                "  FAIL: {what} -> counter {counter} but {total_ticks} ticks recovered \
                 (lost or duplicated increment)"
            );
            return;
        }
        if expect_complete && report.committer_records == 0 {
            self.failures += 1;
            eprintln!("  FAIL: {what} -> no interleaved-committer records in a clean OCC run");
            return;
        }
        println!(
            "  ok: {what} -> serial-order prefix holds (counter={counter}, \
             {total_ticks}/{} commits, {} committer records)",
            OCC_WRITERS * OCC_ROUNDS,
            report.committer_records
        );
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    if args.len() == 3 && args[1] == "child" {
        return child(&args[2]);
    }
    if args.len() == 3 && args[1] == "server-child" {
        return server_child(&args[2]);
    }
    if args.len() == 3 && args[1] == "occ-child" {
        return occ_child(&args[2]);
    }

    let exe = std::env::current_exe().expect("current_exe");
    let base = std::env::temp_dir().join(format!("xqb_crash_probe_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    // Oracle: the committed-prefix fingerprints of the workload, computed
    // in-memory (the workload is deterministic, so the durable child
    // lands on exactly these states).
    let prefixes = run_workload(&mut Engine::new());
    let mut probe = Probe {
        exe,
        base,
        prefixes,
        failures: 0,
        probes: 0,
        tails_dropped: 0,
    };

    // A clean reference run: its final log tells us the total bytes the
    // workload writes (record bytes; the 8-byte header is not counted by
    // the crash threshold), which bounds the kill sweep.
    let clean = probe.fresh_dir("clean");
    probe.spawn_child(&clean, &[]);
    probe.check_recovery(&clean, "clean run", true);
    let log_bytes = std::fs::metadata(clean.join("wal.log"))
        .expect("clean wal.log")
        .len();
    let total = log_bytes.saturating_sub(8);
    println!("workload writes {total} log bytes; sweeping kill offsets");

    // 1. Kill sweep: abort the child after N cumulative log bytes.
    let step = (total / 24).max(1);
    let mut offsets: Vec<u64> = (0..=total).step_by(step as usize).collect();
    // Byte-level edges around the very first record are the classic torn
    // cases; make sure they are always probed.
    offsets.extend([1, 2, 7, 9, total.saturating_sub(1)]);
    offsets.sort_unstable();
    offsets.dedup();
    for off in &offsets {
        let dir = probe.fresh_dir(&format!("kill_{off}"));
        probe.spawn_child(&dir, &[("XQB_WAL_CRASH_AT", off.to_string())]);
        probe.check_recovery(&dir, &format!("kill at byte {off}"), false);
    }

    // 2. Offline corruption of a cleanly written log: truncation at an
    // arbitrary offset, and single-bit flips.
    let clean_log = std::fs::read(clean.join("wal.log")).expect("read clean log");
    for i in 0..24u64 {
        let cut = (clean_log.len() as u64 * i / 24).max(1);
        let dir = probe.fresh_dir(&format!("trunc_{cut}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal.log"), &clean_log[..cut as usize]).unwrap();
        probe.check_recovery(&dir, &format!("truncate at byte {cut}"), false);
    }
    for i in 0..24u64 {
        let pos = (clean_log.len() as u64 * i / 24) as usize % clean_log.len();
        let bit = (i % 8) as u8;
        let mut bytes = clean_log.clone();
        bytes[pos] ^= 1 << bit;
        let dir = probe.fresh_dir(&format!("flip_{pos}_{bit}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("wal.log"), &bytes).unwrap();
        probe.check_recovery(&dir, &format!("flip bit {bit} of byte {pos}"), false);
    }

    // 3. Checkpoint-crossing crashes: frequent checkpoints, aborting (a)
    // between checkpoint install and log truncation, (b) mid-snapshot.
    for mode in ["1", "2"] {
        let dir = probe.fresh_dir(&format!("ckpt_{mode}"));
        probe.spawn_child(
            &dir,
            &[
                ("XQB_CHECKPOINT_EVERY", "3".to_string()),
                ("XQB_WAL_CRASH_CHECKPOINT", mode.to_string()),
            ],
        );
        probe.check_recovery(&dir, &format!("checkpoint crash mode {mode}"), false);
    }
    // And a full run with frequent checkpoints but no crash: recovery
    // from snapshot + short log must land on the final state.
    let dir = probe.fresh_dir("ckpt_clean");
    probe.spawn_child(&dir, &[("XQB_CHECKPOINT_EVERY", "3".to_string())]);
    probe.check_recovery(&dir, "frequent checkpoints, clean exit", true);

    // 4. Crash under load: the multi-session server with writers and a
    // reader in flight, killed mid-commit at swept log offsets. The clean
    // reference run bounds the sweep and proves nothing is lost without a
    // crash.
    let sclean = probe.fresh_dir("server_clean");
    probe.spawn_child_mode("server-child", &sclean, &[]);
    probe.check_server_recovery(&sclean, "server clean run", true);
    let server_bytes = std::fs::metadata(sclean.join("wal.log"))
        .expect("server wal.log")
        .len()
        .saturating_sub(8);
    println!("server workload writes ~{server_bytes} log bytes; sweeping kill offsets under load");
    let step = (server_bytes / 16).max(1);
    let mut offsets: Vec<u64> = (step..=server_bytes).step_by(step as usize).collect();
    offsets.extend([1, server_bytes.saturating_sub(1)]);
    offsets.sort_unstable();
    offsets.dedup();
    for off in &offsets {
        let dir = probe.fresh_dir(&format!("server_kill_{off}"));
        probe.spawn_child_mode(
            "server-child",
            &dir,
            &[("XQB_WAL_CRASH_AT", off.to_string())],
        );
        probe.check_server_recovery(&dir, &format!("server kill at byte {off}"), false);
    }

    // 5. Crash under *contention* (ISSUE 9): optimistic concurrent
    // writers hammering one shared counter, killed mid-commit at swept
    // offsets. Recovery must land on a prefix consistent with some
    // serial commit order — per-writer program order intact and the
    // counter exactly equal to the surviving commit count.
    let oclean = probe.fresh_dir("occ_clean");
    probe.spawn_child_mode("occ-child", &oclean, &[]);
    probe.check_occ_recovery(&oclean, "occ clean run", true);
    let occ_bytes = std::fs::metadata(oclean.join("wal.log"))
        .expect("occ wal.log")
        .len()
        .saturating_sub(8);
    println!("occ workload writes ~{occ_bytes} log bytes; sweeping kill offsets under contention");
    let step = (occ_bytes / 16).max(1);
    let mut offsets: Vec<u64> = (step..=occ_bytes).step_by(step as usize).collect();
    offsets.extend([1, occ_bytes.saturating_sub(1)]);
    offsets.sort_unstable();
    offsets.dedup();
    for off in &offsets {
        let dir = probe.fresh_dir(&format!("occ_kill_{off}"));
        probe.spawn_child_mode("occ-child", &dir, &[("XQB_WAL_CRASH_AT", off.to_string())]);
        probe.check_occ_recovery(&dir, &format!("occ kill at byte {off}"), false);
    }

    println!(
        "crash probe: {} probes, {} failures, {} corrupt tails dropped gracefully",
        probe.probes, probe.failures, probe.tails_dropped
    );
    let _ = std::fs::remove_dir_all(&probe.base);
    if probe.failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
