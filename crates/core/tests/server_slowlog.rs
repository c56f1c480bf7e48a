//! On a server every request but a lock-path write runs on a fork of a
//! pinned snapshot, and a fork inherits its engine's environment: with a
//! slow-query threshold and a trace sink installed before the server is
//! built, snapshot reads and optimistic writes are logged and traced like
//! lock-path writes, and all three plan into one cache. The slow-query
//! ring lives in the process-global registry (`xqcore::obs::global`), so
//! this is the only test in its binary.

use std::sync::Arc;
use xqcore::obs::{self, TraceSink};
use xqcore::{Engine, RequestKind, Server};

#[test]
fn forked_runs_are_logged_and_traced() {
    let trace_path = std::env::temp_dir().join(format!("xqb-slowlog-{}.jsonl", std::process::id()));
    let sink = Arc::new(TraceSink::to_path(trace_path.to_str().unwrap()).unwrap());

    let mut e = Engine::new();
    e.load_document("doc", "<log/>").unwrap();
    e.set_slow_query_threshold(Some(0.0));
    e.set_trace(sink.clone());
    let server = Server::new(e);
    let s = server.open_session().unwrap();
    obs::global().reset();

    const READ: &str = "count($doc/log/*)";
    // (query, routing, plan-cache outcome): a snapshot read, an optimistic
    // write, a write the footprint machinery cannot vouch for (it runs on
    // the live engine under the lock), and the first read again — planned
    // by one fork, a hit on the next.
    let requests = [
        (READ, RequestKind::Read, "miss"),
        (
            "insert { <e/> } into { $doc/log }",
            RequestKind::Write,
            "miss",
        ),
        (
            "snap nondeterministic { insert { <f/> } into { $doc/log } }",
            RequestKind::Write,
            "miss",
        ),
        (READ, RequestKind::Read, "hit"),
    ];
    for (i, (query, kind, cache)) in requests.iter().enumerate() {
        assert_eq!(s.execute(query).unwrap().kind, *kind, "{query}");
        let logged = obs::global().slow_queries();
        assert_eq!(logged.len(), i + 1, "one entry per request: {query}");
        assert_eq!(logged[i].cache, *cache, "{query}");
    }
    let logged = obs::global().slow_queries();
    assert_eq!(logged[0].fingerprint, logged[3].fingerprint);
    assert_ne!(logged[0].fingerprint, logged[1].fingerprint);
    assert_eq!(
        obs::global().snapshot().counters["engine.slow_queries"],
        requests.len() as u64
    );

    sink.flush();
    let events = obs::parse_trace(&std::fs::read_to_string(&trace_path).unwrap()).unwrap();
    obs::validate_spans(&events).unwrap();
    let runs = events.iter().filter(|e| e.begin && e.name == "run").count();
    assert_eq!(runs, requests.len(), "a run span per request");
    let plans = events
        .iter()
        .filter(|e| e.begin && e.name == "plan")
        .count();
    assert_eq!(plans, 3, "a plan span per cache miss");
    let _ = std::fs::remove_file(&trace_path);
}
