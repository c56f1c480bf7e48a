//! Durable-store tests (ISSUE 6; docs/DURABILITY.md).
//!
//! The central invariant: after *any* crash or log corruption, recovery
//! reconstructs a store whose fingerprint equals some committed prefix of
//! the workload — never a torn, reordered, or invented state — and
//! corrupt tails are dropped with a warning, never an abort. These tests
//! pin single cases of it (a torn tail, a checkpoint crossing, a stale
//! `checkpoint.tmp`, random workloads cut or flipped once);
//! `tests/crash_recovery.rs` sweeps every byte of the logs of three
//! workloads, the multi-session server's among them.

use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use xquery_bang::xqdm::{RedoOp, SyncMode};
use xquery_bang::{Engine, Store};

/// A fresh, unique temp directory per test case (avoids collisions across
/// the test harness's threads and across repeated proptest cases).
fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicUsize = AtomicUsize::new(0);
    let n = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("xqb_dur_{}_{}_{}", std::process::id(), tag, n));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cleanup(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// The query for workload step `k` with opcode `op`. Every query is
/// deterministic (ordered snaps only), so an in-memory replica of the
/// same steps lands on the same store fingerprint.
fn step_query(op: u8, k: usize) -> String {
    match op % 6 {
        0 => format!("insert {{ <e{k}/> }} into {{ $doc/site }}"),
        1 => format!("insert {{ <p id=\"{k}\"><name>n{k}</name></p> }} into {{ $doc/site }}"),
        2 => "delete { ($doc/site/*)[1] }".to_string(),
        3 => format!("rename {{ ($doc/site/*)[1] }} to {{ \"r{k}\" }}"),
        4 => format!("replace {{ ($doc/site/p/name/text())[1] }} with {{ \"m{k}\" }}"),
        // A read-only step: must not move the fingerprint or the log.
        _ => "count($doc/site/*)".to_string(),
    }
}

/// Run the workload on `engine`, collecting the store fingerprint after
/// every engine commit point (document load and each run). Steps whose
/// query errors (e.g. replace with an empty target) still pass through
/// the engine's commit point, exactly like the durable run.
fn apply_workload(engine: &mut Engine, ops: &[u8]) -> Vec<u64> {
    let mut prefixes = vec![engine.store.fingerprint()];
    engine.load_document("doc", "<site/>").unwrap();
    prefixes.push(engine.store.fingerprint());
    for (k, &op) in ops.iter().enumerate() {
        let _ = engine.run(&step_query(op, k));
        prefixes.push(engine.store.fingerprint());
    }
    prefixes
}

/// Fingerprints of every committed prefix of `ops`, computed on a purely
/// in-memory engine (same deterministic workload ⇒ same stores).
fn prefix_fingerprints(ops: &[u8]) -> Vec<u64> {
    apply_workload(&mut Engine::new(), ops)
}

#[test]
fn commit_recover_roundtrip() {
    let ops = [0, 1, 2, 3, 0, 1];
    // The store also matches the purely in-memory run of the same steps.
    let in_memory = *prefix_fingerprints(&ops).last().unwrap();
    // `Batch` fsyncs every 32 commits and `Off` never does; the log holds
    // every commit either way, so a reopen in the same OS replays them all.
    for mode in [SyncMode::Always, SyncMode::Batch, SyncMode::Off] {
        let dir = temp_dir("roundtrip");
        let expected = {
            let mut e = Engine::new();
            e.set_durability(mode);
            e.open_store(&dir).unwrap();
            apply_workload(&mut e, &ops);
            e.store.fingerprint()
        };
        assert_eq!(expected, in_memory, "{mode:?}");

        let mut e = Engine::new();
        let report = e.open_store(&dir).unwrap();
        assert_eq!(e.store.fingerprint(), expected, "{mode:?}");
        assert!(report.replayed_commits >= 1, "{mode:?}: {report:?}");
        assert_eq!(report.tail_dropped, 0, "{mode:?}: clean log: {report:?}");
        // Recovery re-binds recovered document roots, so the store is
        // immediately queryable.
        let n = e.run("count($doc/site/*)").unwrap();
        let m = e.run("count($doc/site/*)").unwrap();
        assert_eq!(n, m);
        cleanup(&dir);
    }
}

#[test]
fn fingerprint_builtin_matches_store_api() {
    let mut e = Engine::new();
    e.load_document("doc", "<site><a/></site>").unwrap();
    let got = e.run("xqb:fingerprint()").unwrap();
    assert_eq!(
        e.serialize(&got).unwrap(),
        format!("{:016x}", e.store.fingerprint())
    );
}

#[test]
fn read_only_runs_do_not_grow_the_log() {
    let dir = temp_dir("readonly");
    let mut e = Engine::new();
    e.open_store(&dir).unwrap();
    e.load_document("doc", "<site><a/><b/></site>").unwrap();
    let len_before = std::fs::metadata(dir.join("wal.log")).unwrap().len();
    for _ in 0..5 {
        e.run("count($doc/site/*)").unwrap();
    }
    let len_after = std::fs::metadata(dir.join("wal.log")).unwrap().len();
    assert_eq!(
        len_before, len_after,
        "read-only runs must cost no log bytes"
    );
    drop(e);
    cleanup(&dir);
}

#[test]
fn limit_trip_preserves_committed_snaps() {
    let dir = temp_dir("limit");
    let fp = {
        let mut e = Engine::new();
        e.open_store(&dir).unwrap();
        e.load_document("doc", "<site/>").unwrap();
        let mut limits = *e.limits();
        limits.fuel = Some(20_000);
        e.set_limits(limits);
        // The explicit snap commits, then the fuel budget trips in the
        // long loop: the run errors with XQB0041 but the committed snap
        // must already be durable.
        let err = e
            .run(
                "(snap insert { <kept/> } into { $doc/site },
                  for $i in 1 to 10000000 return $i + 1)",
            )
            .unwrap_err();
        assert!(format!("{err}").contains("XQB0041"), "got: {err}");
        e.store.fingerprint()
    };
    let mut e = Engine::new();
    e.open_store(&dir).unwrap();
    assert_eq!(e.store.fingerprint(), fp);
    let n = e.run("count($doc/site/kept)").unwrap();
    assert_eq!(e.serialize(&n).unwrap(), "1");
    cleanup(&dir);
}

#[test]
fn truncated_tail_drops_with_warning() {
    let dir = temp_dir("tail");
    {
        let mut e = Engine::new();
        e.open_store(&dir).unwrap();
        apply_workload(&mut e, &[0, 1, 0]);
    }
    let log = dir.join("wal.log");
    let len = std::fs::metadata(&log).unwrap().len();
    // Chop mid-record: the tail must be dropped gracefully.
    let f = std::fs::OpenOptions::new().write(true).open(&log).unwrap();
    f.set_len(len - 3).unwrap();
    drop(f);
    let (store, report) = Store::open_durable(&dir, SyncMode::Always).unwrap();
    assert!(report.tail_dropped >= 1, "report: {report:?}");
    assert!(!report.warnings.is_empty(), "report: {report:?}");
    let prefixes = prefix_fingerprints(&[0, 1, 0]);
    assert!(
        prefixes.contains(&store.fingerprint()),
        "recovered fingerprint {:016x} not a committed prefix",
        store.fingerprint()
    );
    drop(store);
    cleanup(&dir);
}

#[test]
fn checkpoint_roundtrip_and_crossing_crash() {
    let dir = temp_dir("ckpt");
    let (fp_after_two, fp_final) = {
        let mut e = Engine::new();
        e.open_store(&dir).unwrap();
        e.load_document("doc", "<site/>").unwrap();
        e.run("insert { <a/> } into { $doc/site }").unwrap();
        e.run("insert { <b/> } into { $doc/site }").unwrap();
        let fp2 = e.store.fingerprint();
        // Save the pre-checkpoint log: this is what the file would hold
        // if the process died between checkpoint install and truncation.
        std::fs::copy(dir.join("wal.log"), dir.join("wal.log.saved")).unwrap();
        e.store.checkpoint().unwrap().expect("checkpoint installed");
        e.run("insert { <c/> } into { $doc/site }").unwrap();
        (fp2, e.store.fingerprint())
    };

    // Normal recovery: checkpoint + post-checkpoint commits.
    {
        let (store, report) = Store::open_durable(&dir, SyncMode::Always).unwrap();
        assert!(report.from_checkpoint, "report: {report:?}");
        assert_eq!(store.fingerprint(), fp_final);
    }

    // The checkpoint-crossing window: reinstate the stale (untruncated)
    // log next to the installed checkpoint. Its commit markers carry
    // LSNs at or below the snapshot's, so replay must skip them all —
    // applying them twice would corrupt the store.
    std::fs::copy(dir.join("wal.log.saved"), dir.join("wal.log")).unwrap();
    let (store, report) = Store::open_durable(&dir, SyncMode::Always).unwrap();
    assert!(report.from_checkpoint, "report: {report:?}");
    assert_eq!(
        report.replayed_commits, 0,
        "pre-checkpoint commits must be skipped: {report:?}"
    );
    assert_eq!(store.fingerprint(), fp_after_two);
    drop(store);
    cleanup(&dir);
}

#[test]
fn stale_checkpoint_tmp_is_ignored_then_replaced() {
    let ops = [0, 1, 0, 3];
    // A finished checkpoint of the workload, and the log it would have
    // truncated.
    let done = temp_dir("tmp_done");
    let (log, snapshot) = {
        let mut e = Engine::new();
        e.open_store(&done).unwrap();
        apply_workload(&mut e, &ops);
        let log = std::fs::read(done.join("wal.log")).unwrap();
        e.store.checkpoint().unwrap().expect("checkpoint installed");
        (log, std::fs::read(done.join("checkpoint.bin")).unwrap())
    };

    // A crash halfway through writing that snapshot: half of it in
    // checkpoint.tmp, no checkpoint.bin, the log untouched.
    let dir = temp_dir("tmp_stale");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("wal.log"), &log).unwrap();
    std::fs::write(dir.join("checkpoint.tmp"), &snapshot[..snapshot.len() / 2]).unwrap();
    let (mut store, report) = Store::open_durable(&dir, SyncMode::Always).unwrap();
    assert!(!report.from_checkpoint, "report: {report:?}");
    assert_eq!(report.tail_dropped, 0, "report: {report:?}");
    assert_eq!(
        Some(&store.fingerprint()),
        prefix_fingerprints(&ops).last(),
        "recovery must land on the whole log"
    );

    // The next checkpoint writes over the stale file and installs it.
    store.checkpoint().unwrap().expect("checkpoint installed");
    assert!(!dir.join("checkpoint.tmp").exists());
    assert_eq!(std::fs::read(dir.join("checkpoint.bin")).unwrap(), snapshot);
    drop(store);
    let (store, report) = Store::open_durable(&dir, SyncMode::Always).unwrap();
    assert!(report.from_checkpoint, "report: {report:?}");
    assert_eq!(Some(&store.fingerprint()), prefix_fingerprints(&ops).last());
    drop(store);
    cleanup(&done);
    cleanup(&dir);
}

#[test]
fn undo_journal_capacity_stays_bounded_across_10k_commits() {
    use xquery_bang::xqdm::QName;
    let mut store = Store::new();
    let root = store.new_element(QName::local("root"));
    let mut max_cap = 0usize;
    for i in 0..10_000 {
        store.begin_frame();
        let child = store.new_element(QName::local(format!("c{}", i % 7)));
        store.append_child(root, child).unwrap();
        if i % 3 == 0 {
            store.apply(RedoOp::Detach { node: child }).unwrap();
        }
        store.commit_frame();
        max_cap = max_cap.max(store.journal_capacity());
    }
    // The journal is cleared at every outermost commit and its capacity
    // shrunk back to the retention cap, so memory use is bounded by the
    // largest single transaction, not session length.
    assert!(
        store.journal_capacity() <= 4096,
        "journal capacity {} after 10k commits",
        store.journal_capacity()
    );
    assert!(
        max_cap <= 4096,
        "journal capacity peaked at {max_cap} across 10k commits"
    );
}

/// An errored write on a durable server allocates nodes, commits a snap,
/// then fails, so the engine sweeps the orphans with a `Collect`. The
/// writer must log that op like any other, or the next allocation
/// replays onto a different slot and the log forks from the store:
/// acknowledged commits are lost on restart.
#[test]
fn errored_serialized_write_stays_replayable() {
    let dir = temp_dir("lock_err");
    let live = {
        let mut engine = Engine::new();
        engine.open_store(&dir).unwrap();
        engine.load_document("doc", "<site/>").unwrap();
        let server = engine.into_server(xquery_bang::ServerConfig::default());
        let session = server.open_session().unwrap();
        let errored = session.execute(
            "(snap { insert { <a/> } into { $doc/site } }, <junk><k/><k/></junk>, fn:error())",
        );
        assert!(errored.is_err(), "the request must fail: {errored:?}");
        for k in 0..2 {
            session
                .execute(&format!("insert {{ <b{k}/> }} into {{ $doc/site }}"))
                .unwrap();
        }
        let live = server.fingerprint();
        drop(session);
        // A kill, not a shutdown: no final commit, no seal.
        std::mem::forget(server);
        live
    };
    let (store, report) = Store::open_durable(&dir, SyncMode::Always).unwrap();
    assert_eq!(report.tail_dropped, 0, "report: {report:?}");
    assert_eq!(store.fingerprint(), live, "report: {report:?}");
    drop(store);
    cleanup(&dir);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Torn-write fault injection: run a random workload durably, then
    // truncate the log at a random offset OR flip one random bit, and
    // recover. The recovered fingerprint must equal some committed
    // prefix of the workload — any tear, anywhere, degrades to a clean
    // earlier state, never a corrupt one.
    #[test]
    fn torn_log_recovers_to_a_committed_prefix(
        ops in proptest::collection::vec(0u8..6, 1..12),
        cut in 0usize..4096,
        flip in any::<bool>(),
        bit in 0u8..8,
    ) {
        let dir = temp_dir("torn");
        {
            let mut e = Engine::new();
            e.open_store(&dir).unwrap();
            apply_workload(&mut e, &ops);
        }
        let prefixes = prefix_fingerprints(&ops);

        let log = dir.join("wal.log");
        let mut bytes = std::fs::read(&log).unwrap();
        if flip && !bytes.is_empty() {
            let pos = cut % bytes.len();
            bytes[pos] ^= 1 << bit;
            std::fs::write(&log, &bytes).unwrap();
        } else {
            let len = (cut as u64) % (bytes.len() as u64 + 1);
            let f = std::fs::OpenOptions::new().write(true).open(&log).unwrap();
            f.set_len(len).unwrap();
        }

        let (store, _report) = Store::open_durable(&dir, SyncMode::Always).unwrap();
        let fp = store.fingerprint();
        prop_assert!(
            prefixes.contains(&fp),
            "recovered fingerprint {fp:016x} is not a committed prefix (ops {ops:?})"
        );
        drop(store);
        cleanup(&dir);
    }
}
