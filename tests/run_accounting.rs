//! One account of a run (ISSUE 19): every surface that can run, parse or
//! load counts in the one registry, exactly once.
//!
//! The registry is process-global, so the exact-delta legs live in a
//! single `#[test]` (nothing else in this binary moves a counter); the
//! documentation table test only reads declarations.

use xquery_bang::xqcore::obs::{self, CounterId, HistogramId};
use xquery_bang::xqcore::Limits;
use xquery_bang::{Engine, Error, ServerConfig};

/// `(depth trips, fuel trips, runs, errors)` right now.
fn account() -> (u64, u64, u64, u64) {
    let counted = |id| obs::global().counter(id).get();
    (
        counted(CounterId::LimitDepth),
        counted(CounterId::LimitFuel),
        counted(CounterId::Runs),
        counted(CounterId::Errors),
    )
}

#[test]
fn every_surface_counts_exactly_once() {
    // --- A parser depth trip is a limit trip on the engine and on a
    // server session alike.
    let deep = format!("{}1{}", "(".repeat(40), ")".repeat(40));
    let mut e = Engine::new();
    e.set_limits(Limits {
        max_parse_depth: 8,
        ..Limits::default()
    });
    let before = account();
    assert!(matches!(e.run(&deep), Err(Error::Parse(_))));
    assert_eq!(account(), (before.0 + 1, before.1, before.2, before.3));

    let server = e.into_server(ServerConfig::default());
    let session = server.open_session().unwrap();
    let before = account();
    assert!(matches!(session.execute(&deep), Err(Error::Parse(_))));
    assert_eq!(
        account(),
        (before.0 + 1, before.1, before.2, before.3),
        "a session's parser depth trip must be counted like the engine's"
    );
    drop(session);

    // --- A module load is a run: a fuel-tripping initializer is one run,
    // one error, one fuel trip — and leaves no trace in store or tables.
    let mut e = Engine::new();
    e.load_document("doc", "<x/>").unwrap();
    e.set_limits(Limits {
        fuel: Some(50),
        ..Limits::default()
    });
    let fingerprint = e.store.fingerprint();
    let before = account();
    let err = e.load_module(
        "declare function gone() { 2 };
         declare variable $a := (insert { <first/> } into { $doc/x }, 1);
         declare variable $b := count(for $i in 1 to 100000 return $i + 1);",
    );
    assert!(
        matches!(&err, Err(Error::Eval(x)) if x.code == "XQB0041"),
        "got {err:?}"
    );
    assert_eq!(
        account(),
        (before.0, before.1 + 1, before.2 + 1, before.3 + 1),
        "a failed module load is one run, one error, one fuel trip"
    );
    assert_eq!(e.store.fingerprint(), fingerprint, "store rolled back");
    assert!(e.binding("a").is_none());
    assert!(
        matches!(e.run("gone()"), Err(Error::Eval(x)) if x.code == "XPST0017"),
        "the failed module's functions must not be registered"
    );
    assert!(
        e.last_run().unwrap().stats.is_some(),
        "and it is what last_run() describes"
    );

    // A successful load is a run too, with no error.
    e.set_limits(Limits::default());
    let before = account();
    e.load_module("declare variable $ok := (insert { <ready/> } into { $doc/x }, 1);")
        .unwrap();
    assert_eq!(account(), (before.0, before.1, before.2 + 1, before.3));
    assert_eq!(e.last_stats().unwrap().requests_applied, 1);

    // --- A library module is prolog-only: a body is rejected, nothing of
    // the module is kept, and nothing ran.
    let mut e = Engine::new();
    e.load_document("log", "<log/>").unwrap();
    let before = account();
    let err = e.load_module("declare variable $x := 1; snap insert { <hit/> } into { $log/log }");
    assert!(
        matches!(&err, Err(Error::Eval(x)) if x.code == "XPST0003"),
        "got {err:?}"
    );
    assert_eq!(account(), before);
    assert!(e.binding("x").is_none());
    let hits = e.run("count($log/log/hit)").unwrap();
    assert_eq!(e.serialize(&hits).unwrap(), "0");
}

/// docs/OBSERVABILITY.md's metric table and the declarations in `obs.rs`
/// name the same metrics: every declared name is documented, every
/// documented `engine.*` / `server.*` name is declared.
#[test]
fn documented_metrics_are_the_declared_metrics() {
    let declared: std::collections::BTreeSet<&str> = CounterId::ALL
        .iter()
        .map(|id| id.name())
        .chain(HistogramId::ALL.iter().map(|id| id.name()))
        .collect();
    // Table rows are `| `name` [/ `name`…] | meaning |`; the first cell
    // holds the names.
    let documented: std::collections::BTreeSet<&str> = include_str!("../docs/OBSERVABILITY.md")
        .lines()
        .filter(|line| line.starts_with("| `engine.") || line.starts_with("| `server."))
        .flat_map(|line| line.split('|').nth(1).unwrap().split('`'))
        .filter(|cell| cell.starts_with("engine.") || cell.starts_with("server."))
        .collect();
    let undocumented: Vec<_> = declared.difference(&documented).collect();
    let undeclared: Vec<_> = documented.difference(&declared).collect();
    assert!(
        undocumented.is_empty() && undeclared.is_empty(),
        "declared but not in docs/OBSERVABILITY.md: {undocumented:?}; \
         documented but not declared: {undeclared:?}"
    );
}
