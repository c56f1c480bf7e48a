//! Snapshot-isolation tests for the multi-session server (ISSUE 8).
//!
//! Three layers of proof:
//!
//! 1. **Barrier-deterministic pinning** — threads synchronized with
//!    `std::sync::Barrier` force the exact interleaving "reader pins,
//!    writer commits, reader keeps reading": the pinned snapshot's
//!    `Store::fingerprint()` must equal the pre-commit fingerprint for
//!    the whole request, however many commits land meanwhile. The pin is
//!    private to the server, so this layer is a unit test in
//!    `crates/core/src/server.rs`.
//! 2. **End-to-end reads under write pressure** — every server read
//!    reports the epoch it pinned; with a workload where epoch *k*'s
//!    store holds exactly *k* entries, each response body must equal its
//!    reported epoch, and a query reading the count twice must see the
//!    same value twice even when commits land mid-request.
//! 3. **Proptest interleavings** — random read/write schedules across
//!    several sessions; every read must match the state of *some*
//!    committed version (epoch *k* holds *k* entries, and the commit log
//!    numbers every write densely).

use std::sync::{Arc, Barrier};
use xquery_bang::xqcore;
use xquery_bang::{Engine, RequestKind, Server, ServerConfig};

fn server_with_log() -> Server {
    let mut e = Engine::new();
    e.load_document("doc", "<log/>").unwrap();
    Server::new(e)
}

// ----------------------------------------------------------------------
// 2. end-to-end: server reads under concurrent writes
// ----------------------------------------------------------------------

/// Epoch k's store holds exactly k entries, so every read's body must
/// equal the epoch the response says it pinned — for any interleaving.
#[test]
fn server_reads_are_consistent_with_their_pinned_epoch() {
    let server = server_with_log();
    let writes = 30usize;
    let start = Arc::new(Barrier::new(3));

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let server = server.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                let session = server.open_session().unwrap();
                start.wait();
                let mut observed = Vec::new();
                for _ in 0..40 {
                    // Read the count, do pure busy work, read it again:
                    // both observations must agree (one snapshot for the
                    // whole request) and match the pinned epoch.
                    let r = session
                        .execute(
                            "(count($doc/log/e), sum(for $i in 1 to 500 return $i),
                              count($doc/log/e))",
                        )
                        .unwrap();
                    assert_eq!(r.kind, RequestKind::Read);
                    let parts: Vec<&str> = r.body.split(' ').collect();
                    assert_eq!(parts[0], parts[2], "one snapshot per request");
                    assert_eq!(parts[1], "125250");
                    assert_eq!(
                        parts[0],
                        r.epoch.to_string(),
                        "body must match the pinned epoch's state"
                    );
                    observed.push(r.epoch);
                }
                observed
            })
        })
        .collect();

    let writer = {
        let server = server.clone();
        let start = start.clone();
        std::thread::spawn(move || {
            let session = server.open_session().unwrap();
            start.wait();
            for i in 0..writes {
                let r = session
                    .execute(&format!("insert {{ <e n=\"{i}\"/> }} into {{ $doc/log }}"))
                    .unwrap();
                assert_eq!(r.kind, RequestKind::Write);
                assert_eq!(r.epoch, i as u64 + 1, "single writer: epochs are dense");
            }
        })
    };

    writer.join().unwrap();
    let mut all = Vec::new();
    for r in readers {
        let observed = r.join().unwrap();
        // Epochs never run backwards within one session.
        assert!(observed.windows(2).all(|w| w[0] <= w[1]));
        all.extend(observed);
    }
    assert!(all.iter().all(|&e| e <= writes as u64));
    assert_eq!(server.epoch(), writes as u64);
    // Nothing left pinned, superseded versions retired.
    let stats = server.stats();
    assert_eq!(stats.snapshot_pins, 0);
    assert_eq!(stats.versions_retained, 1);
}

// ----------------------------------------------------------------------
// 3. shared plan cache across sessions
// ----------------------------------------------------------------------

#[test]
fn plan_cached_by_one_session_hits_for_another() {
    let server = server_with_log();
    let a = server.open_session().unwrap();
    let b = server.open_session().unwrap();
    let query = "for $e in $doc/log/e return string($e/@n)";
    a.execute(query).unwrap();
    let (hits_a, misses_a) = server.plan_cache().stats();
    assert!(misses_a >= 1, "first execution plans the query");
    b.execute(query).unwrap();
    let (hits_b, misses_b) = server.plan_cache().stats();
    assert_eq!(misses_b, misses_a, "second session re-plans nothing");
    assert!(hits_b > hits_a, "second session hits the shared plan");
    // The stats surface exposes the same counters per endpoint.
    let stats = server.stats();
    assert_eq!(stats.cache_hits, hits_b);
    assert_eq!(stats.cache_misses, misses_b);
}

#[test]
fn write_path_and_read_path_share_one_cache() {
    // The same query text planned on the read path must hit when the
    // writer engine plans it (and vice versa): one cache, all sessions.
    let mut e = Engine::new();
    e.load_document("doc", "<log/>").unwrap();
    let server = Server::new(e);
    let s = server.open_session().unwrap();
    s.execute("count($doc/log/e)").unwrap(); // read path plans it
    let (_, misses) = server.plan_cache().stats();
    // Force the same program down the write path by running it through
    // the writer lock.
    server.with_engine(|engine| engine.run("count($doc/log/e)").unwrap());
    let (hits_after, misses_after) = server.plan_cache().stats();
    assert_eq!(misses_after, misses, "writer hit the reader's plan");
    assert!(hits_after >= 1);
}

#[test]
fn plan_cache_misses_when_index_availability_changes() {
    // No stale index use: a plan never outlives an index state, because
    // none depends on one. The executor reads the store's switch per scan
    // (docs/INDEXES.md, gate 1), so a toggle re-plans nothing, a run with
    // the plane off takes no scan however warm the cache, and a run after
    // re-enabling scans again through the same plan.
    let server = server_with_log();
    let s = server.open_session().unwrap();
    s.execute(r#"insert { for $i in 1 to 200 return <e id="e{$i}"/> } into { $doc/log }"#)
        .unwrap();
    // A write publishes the live store's index state to reader sessions.
    const PUBLISH: &str = "insert { <x/> } into { $doc/log }";
    s.execute(PUBLISH).unwrap();
    const LOOKUP: &str = r#"$doc/log/e[@id = "e17"]"#;
    // The live engine's run of `LOOKUP` through the shared cache: its
    // EXPLAIN and the index scans it took.
    let run = || {
        server.with_engine(|e| {
            assert_eq!(e.run(LOOKUP).unwrap().len(), 1);
            (
                e.explain(LOOKUP).unwrap(),
                e.last_stats().unwrap().idx_scans,
            )
        })
    };
    let body = s.execute(LOOKUP).unwrap().body;
    let (explain, scans) = run();
    assert!(
        explain.contains(",idx"),
        "the plane is on by default: {explain}"
    );
    assert!(scans > 0, "the selective lookup scans");
    let (hits, misses) = server.plan_cache().stats();

    server.with_engine(|e| e.set_indexing(false));
    s.execute(PUBLISH).unwrap();
    assert_eq!(s.execute(LOOKUP).unwrap().body, body);
    let (explain, scans) = run();
    assert!(
        !explain.contains(",idx"),
        "no idx mark with the plane off: {explain}"
    );
    assert_eq!(scans, 0, "no scan with the plane off");

    server.with_engine(|e| e.set_indexing(true));
    s.execute(PUBLISH).unwrap();
    assert_eq!(s.execute(LOOKUP).unwrap().body, body);
    let (_, scans) = run();
    assert!(scans > 0, "re-enabled, the lookup scans again");
    // Two toggles, six runs, every one a hit: nothing was re-planned.
    assert_eq!(server.plan_cache().stats(), (hits + 6, misses));
}

#[test]
fn shadowing_agrees_across_routing_planning_and_evaluation() {
    // "A program's own `f` wins over a module's `f`" has one statement
    // (`xqcore::Scope`); routing, the plan cache and the
    // evaluator all ask it, so they cannot disagree about which `f` a
    // call means.
    const MODULE: &str = "declare function pure() { count($doc/log/e) };
         declare function upd() { insert { <e/> } into { $doc/log } };";
    let mut e = Engine::new();
    e.load_document("doc", "<log/>").unwrap();
    e.load_module(MODULE).unwrap();
    let server = Server::new(e);
    let s = server.open_session().unwrap();
    let misses = || server.plan_cache().stats().1;

    // Unshadowed: the module's ratings route.
    assert_eq!(s.execute("pure()").unwrap().kind, RequestKind::Read);
    assert_eq!(s.execute("upd()").unwrap().kind, RequestKind::Write);
    let planned = misses();
    // Module `pure` is pure, the program's own `pure` updates: a write.
    let w = s
        .execute("declare function pure() { insert { <e/> } into { $doc/log } }; pure()")
        .unwrap();
    assert_eq!(w.kind, RequestKind::Write);
    // Module `upd` updates, the program's own `upd` is pure: a read.
    let r = s
        .execute("declare function upd() { count($doc/log/e) }; upd()")
        .unwrap();
    assert_eq!((r.kind, r.body.as_str()), (RequestKind::Read, "2"));
    // Each was planned on its own: neither shares a cache entry with the
    // unshadowed call of the same name.
    assert_eq!(misses(), planned + 2);
    // And the unshadowed calls still hit theirs.
    assert_eq!(s.execute("pure()").unwrap().body, "2");
    assert_eq!(misses(), planned + 2);

    // `Engine::evaluator` is how a run gets its evaluator, so it sees the
    // module functions (and the shadowing) exactly as `run` does.
    let mut e = Engine::new();
    e.load_document("doc", "<log><e/></log>").unwrap();
    e.load_module(MODULE).unwrap();
    for query in ["pure()", "declare function pure() { \"own\" }; pure()"] {
        let program = e.compile(query).unwrap();
        let (mut ev, _) = e.evaluator(&program);
        let direct = ev.eval_program(&mut e.store, &program).unwrap();
        assert_eq!(direct, e.run(query).unwrap(), "{query}");
    }
}

// ----------------------------------------------------------------------
// 4. proptest: random read/write interleavings
// ----------------------------------------------------------------------

mod interleavings {
    use super::*;
    use proptest::prelude::*;

    /// One scripted action for one session thread.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Read,
        Write,
    }

    fn schedule() -> impl Strategy<Value = Vec<u8>> {
        proptest::collection::vec(0u8..4, 4..24)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        // Split a random schedule across 2 worker sessions; afterwards
        // every read must have observed the state of some committed
        // version: body == epoch (epoch k holds exactly k entries), and
        // the commit log must hold every write in epoch order.
        #[test]
        fn random_interleavings_read_committed_versions(sched in schedule()) {
            let ops: Vec<Op> = sched
                .iter()
                .map(|&b| if b % 2 == 0 { Op::Read } else { Op::Write })
                .collect();
            let server = server_with_log();
            let mid = ops.len() / 2;
            let halves = [ops[..mid].to_vec(), ops[mid..].to_vec()];
            let start = Arc::new(Barrier::new(halves.len()));
            let workers: Vec<_> = halves
                .into_iter()
                .map(|ops| {
                    let server = server.clone();
                    let start = start.clone();
                    std::thread::spawn(move || -> Result<(), String> {
                        let session = server.open_session().map_err(|e| e.to_string())?;
                        start.wait();
                        for op in ops {
                            match op {
                                Op::Read => {
                                    let r = session
                                        .execute("count($doc/log/e)")
                                        .map_err(|e| e.to_string())?;
                                    if r.kind != RequestKind::Read {
                                        return Err("count routed as write".into());
                                    }
                                    if r.body != r.epoch.to_string() {
                                        return Err(format!(
                                            "read saw {} entries at epoch {}",
                                            r.body, r.epoch
                                        ));
                                    }
                                }
                                Op::Write => {
                                    session
                                        .execute("insert { <e/> } into { $doc/log }")
                                        .map_err(|e| e.to_string())?;
                                }
                            }
                        }
                        Ok(())
                    })
                })
                .collect();
            for w in workers {
                if let Err(msg) = w.join().expect("worker panicked") {
                    return Err(TestCaseError::fail(msg));
                }
            }
            // Every committed epoch is on the log, densely numbered, and
            // the latest snapshot holds every write.
            let log = server.commit_log();
            let writes = ops.iter().filter(|o| matches!(o, Op::Write)).count();
            prop_assert_eq!(log.len(), writes);
            for (i, c) in log.iter().enumerate() {
                prop_assert_eq!(c.epoch, i as u64 + 1);
            }
            let session = server.open_session().map_err(|e| TestCaseError::fail(e.to_string()))?;
            let r = session
                .execute("count($doc/log/e)")
                .map_err(|e| TestCaseError::fail(e.to_string()))?;
            prop_assert_eq!(r.body, writes.to_string());
            drop(session);
            prop_assert_eq!(server.stats().snapshot_pins, 0);
        }
    }
}

// ----------------------------------------------------------------------
// 5. admission control
// ----------------------------------------------------------------------

#[test]
fn backpressure_rejects_with_xqb0051_and_recovers() {
    let mut e = Engine::new();
    e.load_document("doc", "<log/>").unwrap();
    let config = ServerConfig {
        max_sessions: 8,
        max_inflight: 0, // every request rejected
        ..ServerConfig::default()
    };
    let server = Server::with_config(e, config);
    let s = server.open_session().unwrap();
    match s.execute("1 + 1") {
        Err(xqcore::Error::Eval(err)) => assert_eq!(err.code, xqcore::server::ERR_BACKPRESSURE),
        other => panic!("expected XQB0051, got {other:?}"),
    }
    assert_eq!(server.stats().rejected_backpressure, 1);
    assert_eq!(server.stats().inflight, 0, "rejection releases the slot");
}
