//! `Server::stats` counts each request exactly once, on the side it was
//! routed to. The counters live in the process-global metrics registry
//! (`xqcore::obs::global`), so this is the only test in its binary: any
//! other server running in the same process would move them under the
//! before/after window.

use xqcore::{Engine, Server};

#[test]
fn stats_reflect_traffic() {
    let mut e = Engine::new();
    e.load_document("doc", "<log/>").unwrap();
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
}
