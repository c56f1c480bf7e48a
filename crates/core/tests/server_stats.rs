//! `Server::stats` counts each request exactly once, on the side it was
//! routed to. The counters live in the process-global metrics registry
//! (`xqcore::obs::global`), so this is the only test in its binary: any
//! other server running in the same process would move them under the
//! before/after window.

use std::sync::Barrier;
use xqcore::{Engine, Server};

/// Concurrent sessions, and the inserts each commits into its own
/// `$doc/log/w0` … `w3`.
const SESSIONS: usize = 4;
const INSERTS: usize = 8;

#[test]
fn stats_reflect_traffic() {
    let mut e = Engine::new();
    e.load_document("doc", "<log><w0/><w1/><w2/><w3/></log>")
        .unwrap();
    let server = Server::new(e);
    let before = server.stats();
    let s = server.open_session().unwrap();
    s.execute("1 + 1").unwrap();
    s.execute("insert { <e/> } into { $doc/log }").unwrap();
    // Allocation alone is a read: counted once there and not as a write.
    s.execute("<a>{ count($doc/log/e) }</a>").unwrap();
    let after = server.stats();
    assert_eq!(after.reads, before.reads + 2);
    assert_eq!(after.writes, before.writes + 1);
    assert_eq!(after.inflight, 0);
    assert_eq!(after.snapshot_pins, 0);
    assert!(after.epoch > before.epoch);
    let json = after.to_json();
    assert!(json.starts_with("{\"epoch\":"));
    assert!(json.contains("\"read_p50_ns\":"));
    assert!(json.contains("\"conflicts\":"));
    assert!(json.contains("\"retries\":"));
    drop(s);

    // Concurrent sessions whose writes touch disjoint subtrees: every
    // insert validates on its first try, commits exactly one epoch, and
    // the session's next read already sees it. The barrier starts all
    // sessions together, so their writes overlap.
    let before = server.stats();
    let start = Barrier::new(SESSIONS);
    std::thread::scope(|scope| {
        for w in 0..SESSIONS {
            let session = server.open_session().unwrap();
            let start = &start;
            scope.spawn(move || {
                start.wait();
                for i in 1..=INSERTS {
                    let insert = format!("insert {{ <e i=\"{i}\"/> }} into {{ $doc/log/w{w} }}");
                    session.execute(&insert).unwrap();
                    let read = session.execute(&format!("count($doc/log/w{w}/e)")).unwrap();
                    assert_eq!(read.body, i.to_string(), "session {w} lost its own write");
                }
            });
        }
    });
    let after = server.stats();
    let writes = (SESSIONS * INSERTS) as u64;
    assert_eq!(
        after.conflicts, before.conflicts,
        "disjoint writers conflicted"
    );
    assert_eq!(after.retries, before.retries);
    assert_eq!(after.writes, before.writes + writes);
    assert_eq!(after.reads, before.reads + writes);
    assert_eq!(after.epoch, before.epoch + writes);
    assert_eq!(after.inflight, 0);
    assert_eq!(after.snapshot_pins, 0);
    let epochs: Vec<u64> = server
        .commit_log()
        .iter()
        .map(|c| c.epoch)
        .filter(|&epoch| epoch > before.epoch)
        .collect();
    assert_eq!(epochs.len() as u64, writes);
    assert!(epochs.windows(2).all(|p| p[0] < p[1]), "{epochs:?}");
}
