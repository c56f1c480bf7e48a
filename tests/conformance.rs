//! Data-driven conformance corpus, split per language area: one-line
//! query → expected serialization, against a fixed document. The
//! cheapest place to pin a behaviour or add a regression case — append
//! a row to the area it belongs to.
//!
//! Beyond the value tables there are: an error-code table (codes are
//! part of the observable semantics), and negative tests for `XQB0030`
//! engine isolation / rollback.

mod corpus;

use corpus::conformance::*;
use xquery_bang::xqcore::functions::{BUILTINS, MANY};
use xquery_bang::{Engine, Error};

/// Run a table of (query, expected-serialization) rows, fresh engine per
/// case so update cases cannot leak.
fn run_cases(area: &str, cases: &[(&str, &str)]) {
    let mut failures = Vec::new();
    for (query, expected) in cases {
        let mut e = Engine::new();
        e.load_document("doc", DOC).unwrap();
        match e.run(query) {
            Ok(v) => {
                let got = e.serialize(&v).unwrap();
                if got != *expected {
                    failures.push(format!(
                        "{query}\n  expected: {expected}\n  got:      {got}"
                    ));
                }
            }
            Err(err) => failures.push(format!(
                "{query}\n  expected: {expected}\n  error:    {err}"
            )),
        }
    }
    assert!(
        failures.is_empty(),
        "{} {area} failure(s):\n{}",
        failures.len(),
        failures.join("\n")
    );
}

#[test]
fn literals_arithmetic_logic() {
    run_cases("literals/arithmetic/logic", LITERALS);
}

#[test]
fn sequences() {
    run_cases("sequence", SEQUENCES);
}

#[test]
fn strings() {
    run_cases("string", STRINGS);
}

#[test]
fn numerics() {
    run_cases("numeric", NUMERICS);
}

#[test]
fn flwor_and_quantifiers() {
    run_cases("FLWOR/quantifier", FLWOR);
}

#[test]
fn paths() {
    run_cases("path", PATHS);
}

#[test]
fn constructors() {
    run_cases("constructor", CONSTRUCTORS);
}

#[test]
fn updates() {
    run_cases("update", UPDATES);
}

#[test]
fn snap_nesting() {
    run_cases("snap-nesting", SNAP_NESTING);
}

/// `xqb:stats()` / `xqb:reset-stats()` — metrics introspection from
/// inside the language. The registry is process-global (other tests in
/// this binary bump it concurrently), so assertions are shape-based
/// (`contains`), never exact counter values.
#[test]
fn stats_builtins() {
    run_cases(
        "stats builtins",
        &[
            // The snapshot is a single JSON string.
            ("count(xqb:stats())", "1"),
            // Reset returns the empty sequence.
            ("xqb:reset-stats()", ""),
            ("(xqb:reset-stats(), count(xqb:stats()))", "1"),
            // Both are callable inside a snap body: stats reads are
            // opaque but not *pending* — no Δ involved.
            ("count(snap { xqb:stats() })", "1"),
            ("(snap { xqb:reset-stats() }, \"done\")", "done"),
        ],
    );

    // The snapshot names the engine counters and histograms.
    let mut e = Engine::new();
    e.load_document("doc", DOC).unwrap();
    e.run("count($doc//person)").unwrap();
    let snapshot = e.run("xqb:stats()").unwrap();
    let json = e.serialize(&snapshot).unwrap();
    for key in [
        "\"counters\"",
        "\"histograms\"",
        "engine.runs",
        "engine.run_ns",
    ] {
        assert!(json.contains(key), "xqb:stats() missing {key}: {json}");
    }

    // One snapshot string per iteration of a loop body.
    let mut e = Engine::new();
    e.load_document("doc", DOC).unwrap();
    let v = e
        .run("for $p in $doc//person return count(xqb:stats())")
        .unwrap();
    assert_eq!(e.serialize(&v).unwrap(), "1 1 1");
}

#[test]
fn error_codes() {
    for (query, code) in ERRORS {
        let mut e = Engine::new();
        e.load_document("doc", DOC).unwrap();
        let before = doc_xml(&e);
        match e.run(query) {
            Err(Error::Eval(x)) => assert_eq!(x.code, *code, "wrong code for {query}"),
            other => panic!("{query}: expected {code}, got {other:?}"),
        }
        assert_eq!(doc_xml(&e), before, "{query} changed the store");
    }
}

fn doc_xml(e: &Engine) -> String {
    let b = e.binding("doc").unwrap().clone();
    e.serialize(&b).unwrap()
}

/// XQB0030 isolation: a panic after a committed snap and a pure loop
/// must roll the store back to the exact pre-run state and leave the
/// engine usable.
#[test]
fn xqb0030_rollback_after_a_committed_snap() {
    let mut e = Engine::new();
    e.load_document("doc", DOC).unwrap();
    e.run("for $p in $doc//person | $doc//n return string($p)")
        .unwrap();

    let before = doc_xml(&e);
    let err = e.run(
        "(snap insert { <committed/> } into { ($doc//people)[1] },
          for $p in $doc//person return string($p/name),
          xqb:panic())",
    );
    assert!(
        matches!(err, Err(Error::Eval(ref x)) if x.code == "XQB0030"),
        "got {err:?}"
    );
    assert_eq!(doc_xml(&e), before, "rollback must undo the committed snap");

    // Engine not poisoned: updates and loops still work.
    e.run("snap insert { <ok/> } into { ($doc//people)[1] }")
        .unwrap();
    let r = e.run("count($doc//ok)").unwrap();
    assert_eq!(e.serialize(&r).unwrap(), "1");
    let r = e
        .run("for $p in $doc//person | $doc//n return name($p)")
        .unwrap();
    assert_eq!(e.serialize(&r).unwrap(), "person person person n n n");
}

/// A panic raised *from a loop body* must also surface as XQB0030 with
/// full rollback.
#[test]
fn xqb0030_panic_in_loop_body() {
    let mut e = Engine::new();
    e.load_document("doc", DOC).unwrap();
    let before = doc_xml(&e);
    let err = e.run(
        "(snap insert { <committed/> } into { ($doc//people)[1] },
          for $p in $doc//person return xqb:panic())",
    );
    assert!(
        matches!(err, Err(Error::Eval(ref x)) if x.code == "XQB0030"),
        "got {err:?}"
    );
    assert_eq!(doc_xml(&e), before);
    let r = e.run("count($doc//person)").unwrap();
    assert_eq!(e.serialize(&r).unwrap(), "3");
}

/// docs/LANGUAGE.md §9 and `functions::BUILTINS` name the same built-ins
/// at the same arities: every row is documented, every documented
/// `name#arity` is a row.
#[test]
fn documented_builtins_are_the_table() {
    let table: std::collections::BTreeSet<String> = BUILTINS
        .iter()
        .map(|f| match (f.min, f.max) {
            (min, MANY) => format!("{}#{min}+", f.name),
            (min, max) if min == max => format!("{}#{min}", f.name),
            (min, max) => format!("{}#{min}-{max}", f.name),
        })
        .collect();
    let language = include_str!("../docs/LANGUAGE.md");
    let section = &language[language.find("## 9.").unwrap()..language.find("## 10.").unwrap()];
    // Code spans are the odd pieces between backticks.
    let documented: std::collections::BTreeSet<String> = section
        .split('`')
        .skip(1)
        .step_by(2)
        .filter(|span| span.contains('#'))
        .map(str::to_string)
        .collect();
    let undocumented: Vec<_> = table.difference(&documented).collect();
    let unknown: Vec<_> = documented.difference(&table).collect();
    assert!(
        undocumented.is_empty() && unknown.is_empty(),
        "rows not in docs/LANGUAGE.md §9: {undocumented:?}; documented but no row: {unknown:?}"
    );
}
