//! Smoke-check for structured tracing (run by CI): attach a trace sink to
//! an engine, run a few queries — including nested snaps, a compiled
//! join, and an error — then parse the JSON trace back and validate that
//! every span closes and nests properly.
//!
//! Exits non-zero (panics) if the trace is unparseable or malformed.
//!
//! Run with: `cargo run --example trace_smoke`

use std::sync::Arc;
use xquery_bang::{xqcore::obs, Engine};

fn main() {
    let path = std::env::temp_dir().join(format!("xqb_trace_{}.jsonl", std::process::id()));
    let sink = obs::TraceSink::to_path(&path).expect("trace file created");

    let mut engine = Engine::new();
    engine.set_trace(Arc::new(sink));
    engine.load_document("log", "<log/>").unwrap();
    engine
        .load_document("left", r#"<left><e k="a"/><e k="b"/></left>"#)
        .unwrap();
    engine
        .load_document("right", r#"<right><e k="a"/><e k="a"/></right>"#)
        .unwrap();

    // Nested snaps: span tree must nest run > snap > snap.
    engine
        .run(
            "snap { insert { <outer/> } into { $log/log },
                    snap insert { <inner/> } into { $log/log } }",
        )
        .unwrap();
    // A compiled join (plan span on the cache miss).
    engine
        .run(
            "for $l in $left/left/e
             for $r in $right/right/e
             where $l/@k = $r/@k
             return <m/>",
        )
        .unwrap();
    // Errors still close their spans.
    engine.run("1 div 0").unwrap_err();
    // explain_analyze traces too.
    engine.explain_analyze("count($log/log/*)").unwrap();

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let events = obs::parse_trace(&text).expect("trace must parse as JSON lines");
    let spans = obs::validate_spans(&events).expect("spans must close and nest");
    assert!(
        spans >= 4,
        "expected at least one span per query, got {spans}"
    );
    assert!(
        events.iter().any(|e| e.name == "run"),
        "no run span in trace"
    );
    assert!(
        events.iter().any(|e| e.name == "snap"),
        "no snap span in trace"
    );
    println!(
        "trace ok: {} events, {} well-nested spans ({})",
        events.len(),
        spans,
        path.display()
    );
    std::fs::remove_file(&path).ok();
}
