//! Golden test for EXPLAIN ANALYZE output (ISSUE 4 satellite): the
//! analyzed plan tree — structure, per-node cardinalities, and Δ counts —
//! is pinned in `docs/analyze.golden` next to `docs/explain.golden`.
//! Timings are masked to `<t>` by the generator; everything else must
//! match byte-for-byte.
//!
//! Regenerate with:
//! `cargo run --example analyze > docs/analyze.golden`

#[test]
fn analyze_output_matches_golden() {
    let actual = xquery_bang::analyze_golden::report().expect("analyze report");
    let golden =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/analyze.golden"))
            .expect("read docs/analyze.golden");
    assert_eq!(
        actual, golden,
        "EXPLAIN ANALYZE output drifted from docs/analyze.golden.\n\
         If the change is intentional, regenerate with:\n\
         cargo run --example analyze > docs/analyze.golden"
    );
}

/// The masked report still carries the signal the golden is meant to pin:
/// per-node annotations with exact cardinalities and Δ counts, a totals
/// line per case, and both execution modes.
#[test]
fn analyze_report_has_counters_in_both_modes() {
    let report = xquery_bang::analyze_golden::report().expect("analyze report");
    assert!(report.contains("time=<t>"), "timings must be masked");
    assert!(report.contains("mode=compiled"), "compiled case missing");
    assert!(
        report.contains("mode=interpreted"),
        "interpreted case missing"
    );
    assert!(
        report.contains("(never executed)"),
        "dead-branch marker missing"
    );
    assert!(
        report.contains("calls=") && report.contains("Δ="),
        "per-node annotations missing"
    );
}

/// EXPLAIN ANALYZE prepares its text as a run does: once a run has
/// planned a text's shape, analyzing another text of that shape hits the
/// plan cache, and the lifted literal prints as the analyzed text's own.
#[test]
fn analyze_hits_the_plan_a_run_of_its_shape_made() {
    let mut e = xquery_bang::Engine::new();
    e.load_document(
        "auction",
        "<site><people><person id=\"person1\"><name>A</name></person>\
         <person id=\"person2\"><name>B</name></person></people></site>",
    )
    .unwrap();
    e.run("$auction//person[@id = \"person1\"]/name").unwrap();
    let out = e
        .explain_analyze("$auction//person[@id = \"person2\"]/name")
        .unwrap();
    assert!(out.contains("cache=hit"), "{out}");
    assert!(
        out.contains("\"person2\"") && !out.contains("person1"),
        "{out}"
    );
}
