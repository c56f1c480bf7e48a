//! Failure injection: errors raised at different points of a program, and
//! what state survives them. The paper leaves failure semantics to future
//! work (§5–6 mention transactional mechanisms as open); these tests pin
//! the implementation's contract:
//!
//! * an error *inside* a snap body discards that scope's Δ (nothing from
//!   the failed scope applies);
//! * effects of **already-closed inner snaps survive** — closing a snap is
//!   commitment, exactly like the paper's counter keeps counting even if a
//!   later part of the query fails;
//! * Δ **application is atomic in every snap mode**: when any request in a
//!   Δ fails its precondition, the store's undo journal rolls the whole
//!   application back, so `apply Δ to store0` yields the updated store or
//!   leaves `store0` exactly as it was — never a prefix of Δ;
//! * conflict-detection verification failures apply nothing (verification
//!   precedes any modification, and the journal covers the rest);
//! * a **panic** during evaluation is caught by the engine, the store is
//!   rolled back to its pre-run state (committed snaps included), and an
//!   `XQB0030` error is returned;
//! * a failed run leaks nothing: constructed nodes that ended up reachable
//!   from no host binding are swept before the error returns.

use xqcore::{apply_delta, Delta, Engine, Error, SnapMode};
use xqdm::store::InsertAnchor;
use xqdm::{QName, RedoOp};

fn engine_with(xml: &str) -> Engine {
    let mut e = Engine::new();
    e.load_document("doc", xml).unwrap();
    e
}

fn run(e: &mut Engine, q: &str) -> String {
    let r = e
        .run(q)
        .unwrap_or_else(|err| panic!("query {q:?} failed: {err}"));
    e.serialize(&r).unwrap()
}

/// Serialize the `$doc` binding — the observable store state for a test.
fn doc_xml(e: &Engine) -> String {
    let seq = e.binding("doc").expect("doc binding").clone();
    e.serialize(&seq).unwrap()
}

#[test]
fn error_in_top_level_discards_pending_updates() {
    let mut e = engine_with("<x/>");
    let err = e.run("(insert { <a/> } into { $doc/x }, fn:error(\"late\"))");
    assert!(err.is_err());
    assert_eq!(run(&mut e, "count($doc/x/*)"), "0");
}

#[test]
fn closed_inner_snap_survives_later_error() {
    let mut e = engine_with("<x/>");
    let err = e.run(
        "(snap insert { <committed/> } into { $doc/x },
          insert { <pending/> } into { $doc/x },
          fn:error(\"boom\"))",
    );
    assert!(err.is_err());
    // The closed snap applied; the pending top-level insert did not.
    assert_eq!(run(&mut e, "count($doc/x/committed)"), "1");
    assert_eq!(run(&mut e, "count($doc/x/pending)"), "0");
}

#[test]
fn error_inside_nested_snap_discards_only_that_scope() {
    let mut e = engine_with("<x/>");
    let err = e.run(
        "(snap insert { <outer1/> } into { $doc/x },
          snap { insert { <inner/> } into { $doc/x }, fn:error(\"inner\") })",
    );
    assert!(err.is_err());
    assert_eq!(run(&mut e, "count($doc/x/outer1)"), "1");
    assert_eq!(run(&mut e, "count($doc/x/inner)"), "0");
}

#[test]
fn error_in_function_propagates_through_snap_boundaries() {
    let mut e = engine_with("<x/>");
    let q = r#"
declare function fail_after_commit() {
  (snap insert { <c/> } into { $doc/x }, fn:error("in function"))
};
(fail_after_commit(), insert { <never/> } into { $doc/x })"#;
    let err = e.run(q);
    assert!(err.is_err());
    assert_eq!(run(&mut e, "count($doc/x/c)"), "1");
    assert_eq!(run(&mut e, "count($doc/x/never)"), "0");
}

#[test]
fn ordered_application_is_atomic_on_precondition_failure() {
    // A Δ whose second request fails (inserting into a text node): the
    // first request must be rolled back, leaving the store byte-identical
    // to its pre-snap state.
    let mut e = engine_with("<x><t>text</t></x>");
    let before = doc_xml(&e);
    let err = e.run(
        "snap { insert { <applied/> } into { $doc/x },
                insert { <fails/> } into { ($doc/x/t/text()) } }",
    );
    assert!(matches!(err, Err(Error::Eval(x)) if x.code == "XQB0002"));
    assert_eq!(doc_xml(&e), before);
    assert_eq!(run(&mut e, "count($doc/x/applied)"), "0");
    assert_eq!(run(&mut e, "count($doc/x/fails)"), "0");
}

#[test]
fn nondeterministic_application_is_atomic_for_every_seed() {
    // The failing request (insert into a text node) fails under *every*
    // permutation; whatever prefix the shuffled order applied first must
    // be rolled back. Exercise several engine seeds so different
    // permutations hit the failure at different positions.
    for seed in 0..16 {
        let mut e = Engine::new().with_seed(seed);
        e.load_document("doc", "<x><t>text</t></x>").unwrap();
        let before = doc_xml(&e);
        let err = e.run(
            "snap nondeterministic {
               insert { <a/> } into { $doc/x },
               insert { <b/> } into { $doc/x },
               insert { <bad/> } into { ($doc/x/t/text()) },
               rename { $doc/x } to { \"y\" } }",
        );
        assert!(
            matches!(err, Err(Error::Eval(x)) if x.code == "XQB0002"),
            "seed {seed}"
        );
        assert_eq!(doc_xml(&e), before, "store changed under seed {seed}");
    }
}

#[test]
fn rollback_inside_nested_snap_leaves_outer_scope_usable() {
    // Drive the snap-scope API directly: an inner Δ fails and rolls back;
    // the outer scope keeps collecting and commits successfully.
    let mut e = engine_with("<x><t>text</t></x>");
    let program = e.compile("1").unwrap();
    let (mut ev, _env) = e.evaluator(&program);
    let x = {
        let doc = e.binding("doc").unwrap().clone();
        let doc = match &doc[0] {
            xqdm::item::Item::Node(n) => *n,
            _ => unreachable!(),
        };
        e.store.children(doc).unwrap()[0]
    };
    let t = e.store.children(x).unwrap()[0];
    let text = e.store.children(t).unwrap()[0];
    let before_kids = e.store.children(x).unwrap().len();

    ev.begin_snap_scope(); // outer
    let outer_node = e.store.new_element(QName::local("outer"));

    // Inner snap: one good request, one failing (insert under a text node).
    ev.begin_snap_scope();
    let good = e.store.new_element(QName::local("good"));
    let bad = e.store.new_element(QName::local("bad"));
    let inner: Delta = vec![
        RedoOp::Insert {
            seq: vec![good].into(),
            parent: x,
            anchor: InsertAnchor::Last,
        },
        RedoOp::Insert {
            seq: vec![bad].into(),
            parent: text,
            anchor: InsertAnchor::Last,
        },
    ];
    let mut inner_delta = ev.end_snap_scope();
    inner_delta.extend(inner);
    let err = apply_delta(
        &mut e.store,
        inner_delta,
        SnapMode::Ordered,
        ev.next_apply_seed(),
    )
    .unwrap_err();
    assert_eq!(err.code, "XQB0002");
    // Rolled back: the good insert is undone, nothing attached.
    assert_eq!(e.store.children(x).unwrap().len(), before_kids);
    assert_eq!(e.store.parent(good).unwrap(), None);

    // The outer scope continues, collects its own Δ, and commits.
    let outer: Delta = vec![RedoOp::Insert {
        seq: vec![outer_node].into(),
        parent: x,
        anchor: InsertAnchor::Last,
    }];
    // (requests recorded while the scope was open would land here too)
    let _ = ev.end_snap_scope();
    apply_delta(&mut e.store, outer, SnapMode::Ordered, ev.next_apply_seed()).unwrap();
    assert_eq!(e.store.parent(outer_node).unwrap(), Some(x));
    assert_eq!(e.store.children(x).unwrap().len(), before_kids + 1);
}

#[test]
fn conflict_detection_failure_applies_nothing() {
    let mut e = engine_with("<x><a/></x>");
    let before = doc_xml(&e);
    let err = e.run(
        "snap conflict-detection {
           rename { $doc/x/a } to { \"r1\" },
           insert { <i1/> } into { $doc/x },
           insert { <i2/> } into { $doc/x } }",
    );
    assert!(matches!(err, Err(Error::Eval(x)) if x.code == "XQB0010"));
    // Even the non-conflicting rename did not apply.
    assert_eq!(doc_xml(&e), before);
    assert_eq!(run(&mut e, "count($doc/x/r1)"), "0");
    assert_eq!(run(&mut e, "count($doc/x/*)"), "1");
}

#[test]
fn parse_error_leaves_engine_usable() {
    let mut e = engine_with("<x/>");
    assert!(matches!(e.run("for $x in"), Err(Error::Parse(_))));
    assert_eq!(run(&mut e, "count($doc/x)"), "1");
}

#[test]
fn type_error_mid_loop_discards_that_querys_pending_updates() {
    let mut e = engine_with("<x/>");
    let err = e.run(
        "for $i in (1, 2, \"boom\", 4)
         return (insert { <n/> } into { $doc/x }, $i * 2)",
    );
    assert!(err.is_err());
    assert_eq!(run(&mut e, "count($doc/x/n)"), "0");
}

#[test]
fn snap_per_iteration_commits_completed_iterations() {
    let mut e = engine_with("<x/>");
    let err = e.run(
        "for $i in (1, 2, \"boom\", 4)
         return (snap insert { <n/> } into { $doc/x }, $i * 2)",
    );
    assert!(err.is_err());
    // Iterations 1 and 2 committed before the failure; 3 failed after its
    // snap closed (the multiply errors after the insert applied).
    assert_eq!(run(&mut e, "count($doc/x/n)"), "3");
}

#[test]
fn engine_remains_consistent_after_many_failures() {
    let mut e = engine_with("<x/>");
    for _ in 0..20 {
        let _ = e.run("(insert { <a/> } into { $doc/x }, fn:error(\"x\"))");
        let _ = e.run("$undefined");
        let _ = e.run("1 div 0");
    }
    // No leaked pending updates, no store corruption.
    assert_eq!(run(&mut e, "count($doc/x/*)"), "0");
    run(&mut e, "snap insert { <ok/> } into { $doc/x }");
    assert_eq!(run(&mut e, "count($doc/x/ok)"), "1");
}

#[test]
fn failed_runs_leak_no_store_slots() {
    // Each failing run constructs nodes (the <a/> elements) that never
    // attach anywhere; the engine sweeps them before returning the error,
    // so the store does not grow across repeated failures.
    let mut e = engine_with("<x/>");
    let _ = e.run("(insert { <a><deep><tree/></deep></a> } into { $doc/x }, fn:error(\"x\"))");
    let doc = match e.binding("doc").unwrap()[0] {
        xqdm::item::Item::Node(n) => n,
        _ => unreachable!(),
    };
    let baseline = e.store.stats(&[doc]).unwrap();
    for _ in 0..10 {
        let _ = e.run("(insert { <a><deep><tree/></deep></a> } into { $doc/x }, fn:error(\"x\"))");
    }
    let after = e.store.stats(&[doc]).unwrap();
    assert_eq!(
        after, baseline,
        "failed runs must not accumulate store garbage"
    );
}

#[test]
fn recursion_limit_error_leaves_clean_state() {
    let mut e = engine_with("<x/>");
    let err = e.run(
        "declare function spin($n) { (insert { <s/> } into { $doc/x }, spin($n + 1)) };
         spin(0)",
    );
    assert!(matches!(err, Err(Error::Eval(x)) if x.code == "XQB0040"));
    assert_eq!(run(&mut e, "count($doc/x/*)"), "0");
}

#[test]
fn panic_during_evaluation_rolls_back_and_reports_xqb0030() {
    // xqb:panic() is the failure-injection hook: it panics mid-evaluation.
    // The engine must catch the unwind, roll the store back to the exact
    // pre-run state — committed snaps included, unlike the error path —
    // and surface XQB0030. The engine stays fully usable.
    let mut e = engine_with("<x/>");
    let before = doc_xml(&e);
    let err = e.run(
        "(snap insert { <committed/> } into { $doc/x },
          insert { <pending/> } into { $doc/x },
          xqb:panic())",
    );
    assert!(
        matches!(err, Err(Error::Eval(ref x)) if x.code == "XQB0030"),
        "got {err:?}"
    );
    assert_eq!(doc_xml(&e), before);
    // The engine is not poisoned: subsequent queries work.
    run(&mut e, "snap insert { <ok/> } into { $doc/x }");
    assert_eq!(run(&mut e, "count($doc/x/ok)"), "1");
}

#[test]
fn panic_during_module_load_restores_engine() {
    let mut e = engine_with("<x/>");
    e.load_module("declare function keep() { 1 };").unwrap();
    let before = doc_xml(&e);
    let err = e.load_module(
        "declare function gone() { 2 };
         declare variable $v := (insert { <m/> } into { $doc/x }, xqb:panic());",
    );
    assert!(
        matches!(err, Err(Error::Eval(ref x)) if x.code == "XQB0030"),
        "got {err:?}"
    );
    assert_eq!(doc_xml(&e), before);
    // Functions from the failed module are not registered; earlier ones are.
    assert_eq!(run(&mut e, "keep()"), "1");
    assert!(e.run("gone()").is_err());
    assert!(e.binding("v").is_none());
}

#[test]
fn failed_module_load_is_all_or_nothing() {
    let mut e = engine_with("<x/>");
    let before = doc_xml(&e);
    let err = e.load_module(
        "declare variable $a := (insert { <first/> } into { $doc/x }, 1);
         declare variable $b := fn:error(\"second init fails\");",
    );
    assert!(err.is_err());
    // The first initializer's committed snap is rolled back too: a module
    // either loads completely or leaves no trace.
    assert_eq!(doc_xml(&e), before);
    assert!(e.binding("a").is_none());
    assert!(e.binding("b").is_none());
}

/// A module redeclaring a function `(name, arity)` — one an earlier
/// module declared, or one it declares twice itself — is `XQST0034`, and
/// the load leaves no trace: the old body keeps answering and nothing
/// else the module declared or initialized is visible.
#[test]
fn redeclaring_a_module_function_is_refused_whole() {
    let code = |r: Result<(), Error>| match r {
        Err(Error::Eval(x)) => x.code,
        other => panic!("expected an evaluation error, got {other:?}"),
    };
    let mut e = engine_with("<x/>");
    e.load_module("declare function f() { 1 };").unwrap();
    let before = doc_xml(&e);
    for module in [
        "declare function g() { 2 };
         declare function f() { 3 };
         declare variable $v := (insert { <v/> } into { $doc/x }, 4);",
        "declare function h() { 5 };
         declare function h() { 6 };",
    ] {
        assert_eq!(code(e.load_module(module)), "XQST0034", "{module}");
        assert_eq!(doc_xml(&e), before);
        assert!(e.binding("v").is_none());
        for absent in ["g()", "h()"] {
            assert_eq!(code(e.run(absent).map(|_| ())), "XPST0017", "{absent}");
        }
        let v = e.run("f()").unwrap();
        assert_eq!(e.serialize(&v).unwrap(), "1");
    }
    // Another arity is another function.
    e.load_module("declare function f($n) { $n };").unwrap();
    let v = e.run("(f(), f(7))").unwrap();
    assert_eq!(e.serialize(&v).unwrap(), "1 7");
}
