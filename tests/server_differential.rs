//! Differential concurrency suite (ISSUE 8): an N-session mixed
//! read/write workload against the server must be *serializable* — the
//! server's commit log, replayed one query at a time on a fresh engine,
//! must reproduce every write response and every per-epoch store
//! fingerprint exactly, ending on the server's final fingerprint.
//!
//! This is the concurrent analogue of `tests/differential.rs`: there the
//! compiled plan must match the interpreter; here the interleaved
//! execution must match its own serial commit order. Every workload runs
//! on servers whose engines have 1 and 4 worker threads ([`THREADS`]).

use proptest::prelude::*;
use std::sync::{Arc, Barrier};
use xquery_bang::{Engine, Error, RequestKind, Server};

const INITIAL_DOC: &str = "<site><items/><log/><counter>0</counter><tag/></site>";

/// The worker-thread budgets every server workload runs at: sequential,
/// and fanned out (reader forks inherit the budget).
const THREADS: [usize; 2] = [1, 4];

fn fresh_engine(threads: usize) -> Engine {
    let mut e = Engine::new();
    e.set_threads(threads);
    e.load_document("doc", INITIAL_DOC).unwrap();
    e
}

/// The per-session script: session `s` issues `rounds` interleaved
/// mixed requests. Writes carry the session id and a per-session
/// sequence number so replay equality is discriminating; one write in
/// three errors *after* committing a snap (commitment per §2.3), so the
/// replay also covers errored commits.
fn session_script(s: usize, rounds: usize) -> Vec<String> {
    let mut script = Vec::new();
    for n in 0..rounds {
        script.push(format!(
            "insert {{ <item s=\"{s}\" n=\"{n}\"/> }} into {{ $doc/site/items }}"
        ));
        script.push("count($doc/site/items/item)".to_string());
        if n % 3 == 2 {
            script.push(format!(
                "(snap insert {{ <err s=\"{s}\" n=\"{n}\"/> }} into {{ $doc/site/log }}, \
                 1 div 0)"
            ));
        }
        script.push(format!(
            "replace {{ ($doc/site/items/item[@s=\"{s}\"]/@n)[last()] }} \
             with {{ attribute n {{ \"{n}!\" }} }}"
        ));
        script.push("for $i in $doc/site/items/item return string($i/@s)".to_string());
    }
    script
}

/// Drive `sessions` worker threads through their scripts concurrently;
/// returns the server for post-hoc inspection.
fn run_mixed_workload(sessions: usize, rounds: usize, threads: usize) -> Server {
    let server = Server::new(fresh_engine(threads));
    let start = Arc::new(Barrier::new(sessions));
    let workers: Vec<_> = (0..sessions)
        .map(|s| {
            let server = server.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                let session = server.open_session().unwrap();
                start.wait();
                for query in session_script(s, rounds) {
                    // Errored writes are part of the workload; everything
                    // else must succeed, resubmitting on XQB0052.
                    let result = execute_with_retry(&session, &query);
                    if query.contains("1 div 0") {
                        assert!(result.is_err(), "scripted failure must fail: {query}");
                    } else {
                        result.unwrap_or_else(|e| panic!("{query}: {e}"));
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    server
}

/// The serializability check: replay the server's commit log, one query
/// at a time, on a fresh engine. Every write response and the final store
/// fingerprint must reproduce bit-for-bit — i.e. the concurrent
/// (OCC-interleaved) execution is equivalent to the serial execution in
/// commit-log order. Returns the replica for follow-up queries.
fn assert_replays_serially(server: &Server) -> Engine {
    let log = server.commit_log();
    // Epochs are dense and in log order (publishing happens under the
    // writer lock).
    for (i, c) in log.iter().enumerate() {
        assert_eq!(c.epoch, i as u64 + 1);
    }
    let mut replica = fresh_engine(1);
    for c in &log {
        match replica.run(&c.query) {
            Ok(value) => {
                let body = replica.serialize(&value).unwrap();
                assert_eq!(
                    Ok(&body),
                    c.body.as_ref(),
                    "write response diverged at epoch {} ({})",
                    c.epoch,
                    c.query
                );
            }
            Err(e) => {
                let code = match e {
                    Error::Eval(x) => x.code.to_string(),
                    Error::Parse(_) => panic!("replay parse error: {}", c.query),
                };
                assert_eq!(
                    Err(&code),
                    c.body.as_ref(),
                    "error code diverged at epoch {} ({})",
                    c.epoch,
                    c.query
                );
            }
        }
    }
    assert_eq!(
        replica.store.fingerprint(),
        server.fingerprint(),
        "final replica state must equal the server's latest snapshot"
    );
    // ISSUE 10: however many OCC retries, rollbacks, and errored commits
    // the schedule forced, the incrementally-maintained index plane must
    // equal a from-scratch rebuild — on the live writer and the replica.
    assert!(
        server.with_engine(|e| e.store.index_verify()),
        "server index diverged from a from-scratch rebuild"
    );
    assert!(
        replica.store.index_verify(),
        "replica index diverged from a from-scratch rebuild"
    );
    replica
}

#[test]
fn mixed_workload_replays_serially_in_commit_order() {
    let sessions = 4;
    for threads in THREADS {
        let server = run_mixed_workload(sessions, 6, threads);
        assert!(!server.commit_log().is_empty());
        let mut replica = assert_replays_serially(&server);

        // Per-session writes committed in program order: each session's
        // item sequence numbers appear as 0!,1!,... without reordering.
        for s in 0..sessions {
            let q = format!("for $i in $doc/site/items/item[@s=\"{s}\"] return string($i/@n)");
            let ns = replica.run(&q).unwrap();
            let ns = replica.serialize(&ns).unwrap();
            let expected: Vec<String> = (0..6).map(|n| format!("{n}!")).collect();
            assert_eq!(
                ns,
                expected.join(" "),
                "session {s} write order at {threads} threads"
            );
        }
    }
}

#[test]
fn same_script_twice_yields_identical_commit_effects() {
    // Two independent servers under the same concurrent workload — one
    // sequential, one fanning out — may interleave differently, but each
    // one's own replay must hold, and their per-session effects must agree
    // (the schedule only permutes commit order between sessions, never
    // within one).
    let [a, b] = THREADS.map(|threads| run_mixed_workload(3, 4, threads));
    assert_eq!(a.commit_log().len(), b.commit_log().len());
    let final_a = {
        let mut r = fresh_engine(1);
        for c in a.commit_log() {
            let _ = r.run(&c.query);
        }
        r.run("for $i in $doc/site/items/item order by string($i/@s), string($i/@n) return $i")
            .map(|v| r.serialize(&v).unwrap())
            .unwrap()
    };
    let final_b = {
        let mut r = fresh_engine(1);
        for c in b.commit_log() {
            let _ = r.run(&c.query);
        }
        r.run("for $i in $doc/site/items/item order by string($i/@s), string($i/@n) return $i")
            .map(|v| r.serialize(&v).unwrap())
            .unwrap()
    };
    assert_eq!(final_a, final_b, "order-normalized effects agree");
}

// ---------------------------------------------------------------------
// Random multi-writer schedules (ISSUE 9): proptest over per-session
// scripts drawn from a template pool engineered to collide — shared
// counter read-modify-writes, renames of one node, blind appends,
// structural replaces, errored commits, pessimistically-routed
// nondeterministic snaps, and (ISSUE 14) constructors inserted, returned
// by a write, and returned by a read. Whatever the interleaving and however many
// OCC retries it forces, the commit log must replay serially.
// ---------------------------------------------------------------------

/// Query templates; `s`/`n` discriminate the writer and its step so
/// replay equality is discriminating.
fn template(t: usize, s: usize, n: usize) -> String {
    match t % 11 {
        // Shared-counter increment: reads the counter value every other
        // writer sets — the canonical conflict.
        0 => "replace value of { $doc/site/counter/text() } \
              with { $doc/site/counter + 1 }"
            .to_string(),
        // Blind append into a shared container: commutes (untraced
        // mutator-internal reads), never conflicts.
        1 => format!("insert {{ <item s=\"{s}\" n=\"{n}\"/> }} into {{ $doc/site/items }}"),
        // Rename of one shared node: a name-aspect collision.
        2 => format!("rename {{ ($doc/site/*)[4] }} to {{ \"t{s}x{n}\" }}"),
        // Structural replace of the writer's own latest item attribute;
        // reads the shared children list on the way.
        3 => format!(
            "replace {{ ($doc/site/items/item[@s=\"{s}\"]/@n)[last()] }} \
             with {{ attribute n {{ \"{n}!\" }} }}"
        ),
        // Errored write: the snap commits, then the error fires
        // (commitment per §2.3) — replay must reproduce the code.
        4 => format!(
            "(snap insert {{ <err s=\"{s}\" n=\"{n}\"/> }} into {{ $doc/site/log }}, 1 div 0)"
        ),
        // Nondeterministic snap: occ-unsafe, exercises the pessimistic
        // route inside the same schedule.
        5 => format!(
            "snap nondeterministic {{ insert {{ <p s=\"{s}\" n=\"{n}\"/> }} \
             into {{ $doc/site/log }} }}"
        ),
        // Read-modify-write that folds the items count into the counter:
        // conflicts with appends *and* increments.
        6 => "replace value of { $doc/site/counter/text() } \
              with { $doc/site/counter + count($doc/site/items/item) }"
            .to_string(),
        // Constructor-inserting write: a nested fresh tree goes in without
        // a copy, and its content reads the list every appender writes.
        7 => format!(
            "insert {{ <item s=\"{s}\" n=\"{n}\"><seen>{{ count($doc/site/items/item) }}</seen></item> }} \
             into {{ $doc/site/items }}"
        ),
        // A write that also *returns* a constructed tree: the reply's
        // nodes are committed on the server and the replica alike.
        8 => format!(
            "(insert {{ <p s=\"{s}\" n=\"{n}\"/> }} into {{ $doc/site/log }}, \
             <ack s=\"{s}\">{{ count($doc/site/log/p) }}</ack>)"
        ),
        // Constructor-returning query: allocates, so it used to commit;
        // now a snapshot read that must leave no trace in the log.
        9 => "for $i in $doc/site/items/item return <row s=\"{$i/@s}\">{ string($i/@n) }</row>"
            .to_string(),
        // Interleaved read (never commits, pins a snapshot mid-schedule).
        _ => "count($doc/site/items/item)".to_string(),
    }
}

/// `replace` on a missing target (template 3 before the session's first
/// append) fails with a precondition error; both that and XQB0052-after-
/// exhausted-retries are legitimate schedule outcomes. Re-submitting on
/// conflict is the documented client contract: returns the first reply
/// that is not XQB0052, and panics after 64 of them in a row.
fn execute_with_retry(
    session: &xquery_bang::Session,
    query: &str,
) -> Result<xquery_bang::Response, Error> {
    for _ in 0..64 {
        match session.execute(query) {
            Err(Error::Eval(e)) if e.code == "XQB0052" => continue,
            other => return other,
        }
    }
    panic!("64 client retries exhausted for {query}");
}

fn run_scripted_schedule(scripts: Vec<Vec<usize>>, threads: usize) -> Server {
    let server = Server::new(fresh_engine(threads));
    let start = Arc::new(Barrier::new(scripts.len()));
    let workers: Vec<_> = scripts
        .into_iter()
        .enumerate()
        .map(|(s, script)| {
            let server = server.clone();
            let start = start.clone();
            std::thread::spawn(move || {
                let session = server.open_session().unwrap();
                start.wait();
                for (n, t) in script.into_iter().enumerate() {
                    let _ = execute_with_retry(&session, &template(t, s, n));
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    server
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn random_multi_writer_schedules_replay_serially(
        scripts in proptest::collection::vec(
            proptest::collection::vec(0usize..11, 4..10),
            2..5,
        )
    ) {
        for threads in THREADS {
            let server = run_scripted_schedule(scripts.clone(), threads);
            let mut replica = assert_replays_serially(&server);
            // The serial replica agrees with the live server on the shared
            // counter — every read-modify-write survived intact.
            let counter = replica.run("string($doc/site/counter)").unwrap();
            let counter = replica.serialize(&counter).unwrap();
            let session = server.open_session().unwrap();
            prop_assert_eq!(counter, session.execute("string($doc/site/counter)").unwrap().body);
        }
    }
}

#[test]
fn read_only_sessions_never_commit() {
    let server = Server::new(fresh_engine(1));
    let s = server.open_session().unwrap();
    let before = server.fingerprint();
    for _ in 0..5 {
        let r = s.execute("count($doc/site/items/item)").unwrap();
        assert_eq!(r.kind, RequestKind::Read);
        let r = s.execute(&template(9, 0, 0)).unwrap();
        assert_eq!(
            r.kind,
            RequestKind::Read,
            "construction alone is not a commit"
        );
    }
    assert_eq!(server.commit_log().len(), 0);
    assert_eq!(server.epoch(), 0);
    assert_eq!(server.fingerprint(), before);
}
