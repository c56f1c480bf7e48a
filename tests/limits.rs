//! Resource-governance conformance (ISSUE 5): limit trips are ordinary
//! dynamic errors — correct code, full rollback, engine usable after —
//! compiled and interpreted.
//!
//! | code      | limit                        |
//! |-----------|------------------------------|
//! | `XQB0040` | recursion / nesting depth    |
//! | `XQB0041` | evaluation-step fuel         |
//! | `XQB0042` | wall-clock deadline          |
//! | `XQB0043` | materialized-memory budget   |
//!
//! The deadline rows use `deadline_ms = 0`: the guard polls the clock on
//! tick 0, so a zero deadline trips deterministically on the first
//! evaluation step — no sleeping, no flakiness.

use proptest::prelude::*;
use xquery_bang::xqcore::Limits;
use xquery_bang::{Engine, Error};

const DOC: &str = "<x><a/><b/><c/></x>";

fn doc_xml(e: &Engine) -> String {
    let b = e.binding("doc").unwrap().clone();
    e.serialize(&b).unwrap()
}

fn eval_code(result: Result<xquery_bang::Sequence, Error>) -> Option<String> {
    match result {
        Err(Error::Eval(x)) => Some(x.code.to_string()),
        _ => None,
    }
}

/// The conformance table: (limits, query, expected code). Codes are part
/// of the observable semantics.
#[test]
fn limit_error_codes() {
    let depth = Limits::default();
    let fuel = Limits {
        fuel: Some(200),
        ..Limits::default()
    };
    let deadline = Limits {
        deadline_ms: Some(0),
        ..Limits::default()
    };
    let memory = Limits {
        memory_items: Some(1_000),
        ..Limits::default()
    };
    let cases: &[(Limits, &str, &str)] = &[
        (
            depth,
            "declare function loop($n) { loop($n + 1) }; loop(0)",
            "XQB0040",
        ),
        (fuel, "for $i in 1 to 100000 return $i + 1", "XQB0041"),
        // Fuel is charged per evaluation *step*, not per materialized
        // item: 64 iterations of a cheap body exceed 100 steps.
        (
            Limits {
                fuel: Some(100),
                ..Limits::default()
            },
            "for $i in 1 to 64 return sum(1 to 200)",
            "XQB0041",
        ),
        (deadline, "for $i in 1 to 100000 return $i + 1", "XQB0042"),
        (memory, "count((1 to 100000))", "XQB0043"),
        // Compiled loops accumulate like the interpreter's and are charged
        // like them: a plan-level `for` over a batched path (6 000 items),
        // and a hash join (40 × 40 matches).
        (memory, "for $i in 1 to 2000 return $doc/x/*", "XQB0043"),
        // A built-in call over such a loop: the plan's `Call` node runs
        // the loop as its argument, ticking and charging as it goes.
        (
            fuel,
            "count(for $i in 1 to 100000 return $doc/x/*)",
            "XQB0041",
        ),
        (
            memory,
            "count(for $i in 1 to 2000 return $doc/x/*)",
            "XQB0043",
        ),
        (
            memory,
            "for $l in $big/r/e for $r in $big/r/e where $l/@k = $r/@k return $l",
            "XQB0043",
        ),
    ];
    let big = format!("<r>{}</r>", "<e k=\"1\"/>".repeat(40));
    for (limits, query, code) in cases {
        let mut e = Engine::new();
        e.load_document("doc", DOC).unwrap();
        e.load_document("big", &big).unwrap();
        e.set_limits(*limits);
        let before = e.store.fingerprint();
        match e.run(query) {
            Err(Error::Eval(x)) => assert_eq!(x.code, *code, "wrong code for {query}"),
            other => panic!("{query}: expected {code}, got {other:?}"),
        }
        assert_eq!(
            e.store.fingerprint(),
            before,
            "{query}: a trip must leave the store unchanged"
        );
        // The engine is not poisoned: the same engine still answers
        // (with the tripping limit disarmed — limits persist per
        // engine, so a 0 ms deadline would trip every later run too).
        e.set_limits(Limits::default());
        let v = e.run("1 + 1").unwrap();
        assert_eq!(e.serialize(&v).unwrap(), "2");
    }
}

/// Compiled and interpreted execution must trip the *same limit class*
/// for the same query and budget (the accounting differs per surface, the
/// observable error code must not). A row naming a plan operator asserts
/// that the compiled plan holds it, so the row keeps covering that rule
/// node. The memory budgets of the rows over `1 to 1000` lie above the
/// range's own 1 000 items, so they trip while a loop or sequence
/// accumulates, not at the range.
#[test]
fn compiled_and_interpreted_trip_the_same_class() {
    let fuel = Limits {
        fuel: Some(100),
        ..Limits::default()
    };
    let memory = |items| Limits {
        memory_items: Some(items),
        ..Limits::default()
    };
    let cases: &[(Limits, &str, Option<&str>)] = &[
        (fuel, "for $i in 1 to 100000 return $i * 2", None),
        (memory(500), "sum((1 to 50000))", None),
        (
            Limits::default(),
            "declare function f($n) { f($n) + 1 }; f(1)",
            None,
        ),
        // Built-in calls whose arguments are plans.
        (
            fuel,
            "sum(for $i in 1 to 100000 return count($doc/x/*))",
            Some("Call sum("),
        ),
        (
            memory(2500),
            "count(for $i in 1 to 1000 return $doc/x/*)",
            Some("For $i In"),
        ),
        // One row per rule node a compiled plan can hold.
        (
            memory(2500),
            "(count($doc/x/*), for $i in 1 to 1000 return $doc/x/*)",
            Some("Seq ["),
        ),
        (
            fuel,
            "let $xs := $doc/x/* return for $i in 1 to 100000 return count($xs) + count($xs)",
            Some("Let $xs := {"),
        ),
        (
            fuel,
            "if ($doc/x/*) then for $i in 1 to 100000 return $i * 2 else ()",
            Some("If {"),
        ),
        (
            memory(2500),
            "snap { for $i in 1 to 1000 return $doc/x/* }",
            Some("Snap(ordered) {"),
        ),
        // The join node, in both of its shapes: 40 × 40 matches.
        (
            memory(1000),
            "for $l in $big/r/e for $r in $big/r/e where $l/@k = $r/@k return $l",
            Some("(Join("),
        ),
        (
            memory(1000),
            "for $l in $big/r/e
             let $g := for $r in $big/r/e where $l/@k = $r/@k return $r
             return count($g)",
            Some("(GroupBy ["),
        ),
        // A declared function whose body compiled: each call runs its
        // plan, which recurses from the join's body.
        (
            Limits::default(),
            "declare function f($n) {
               for $l in $doc/x/* for $r in $doc/x/* where $l = $r return f($n + 1)
             };
             f(0)",
            Some("declare function f($n):"),
        ),
    ];
    let big = format!("<r>{}</r>", "<e k=\"1\"/>".repeat(40));
    for (limits, query, operator) in cases {
        let mut codes = Vec::new();
        for compiled in [true, false] {
            let mut e = Engine::new();
            e.set_compile(compiled);
            e.set_limits(*limits);
            e.load_document("doc", DOC).unwrap();
            e.load_document("big", &big).unwrap();
            if let (true, Some(op)) = (compiled, operator) {
                let plan = e.explain(query).unwrap();
                assert!(plan.contains(op), "{query}: no `{op}` in\n{plan}");
            }
            let code = eval_code(e.run(query))
                .unwrap_or_else(|| panic!("{query} (compiled={compiled}): expected limit error"));
            codes.push(code);
        }
        assert_eq!(
            codes[0], codes[1],
            "{query}: compiled and interpreted disagree on the limit class"
        );
    }
}

/// Runaway user-function recursion is a catchable XQB0040 in all three
/// snap modes, and the store fingerprint is unchanged — the Δs queued by
/// the partial recursion are rolled back like any other failed run.
#[test]
fn recursion_limit_rolls_back_in_all_snap_modes() {
    for mode in ["ordered", "nondeterministic", "conflict-detection"] {
        let mut e = Engine::new();
        e.load_document("doc", DOC).unwrap();
        let before = doc_xml(&e);
        let query = format!(
            "declare function spin($n) {{
               (insert {{ <s/> }} into {{ $doc/x }}, spin($n + 1)) }};
             snap {mode} {{ spin(0) }}"
        );
        let code = eval_code(e.run(&query)).unwrap_or_else(|| panic!("{mode}: expected an error"));
        assert_eq!(code, "XQB0040", "snap {mode}");
        assert_eq!(doc_xml(&e), before, "snap {mode} must leave no trace");
        // Engine stays usable, updates included.
        e.run("snap insert { <ok/> } into { $doc/x }").unwrap();
        let v = e.run("count($doc/x/ok)").unwrap();
        assert_eq!(e.serialize(&v).unwrap(), "1", "snap {mode}");
    }
}

/// Hostile *query* input: 100k nesting levels must be a reported parse
/// error (XQB0040 in the message), never a process abort.
#[test]
fn hostile_deep_query_is_a_parse_error() {
    let n = 100_000;
    let mut q = String::with_capacity(2 * n + 1);
    for _ in 0..n {
        q.push('(');
    }
    q.push('1');
    for _ in 0..n {
        q.push(')');
    }
    let mut e = Engine::new();
    match e.run(&q) {
        Err(Error::Parse(p)) => assert!(
            p.message.contains("XQB0040"),
            "expected XQB0040 in: {}",
            p.message
        ),
        other => panic!("expected parse error, got {other:?}"),
    }
    // Depth trips at the parse surface are counted like eval-time ones.
    assert!(
        xquery_bang::xqcore::obs::global()
            .counter(xquery_bang::xqcore::obs::CounterId::LimitDepth)
            .get()
            >= 1
    );
}

/// The recursion and parse-depth cases above once more, the way a server
/// connection meets them: through `Session::execute` on a deep-stack
/// thread, where parsing and evaluation run inline on the thread's own
/// stack (and `xqb:explain`'s parse, nested inside an evaluation, on a
/// fresh one). Same codes, no stack overflow, store unchanged — to the
/// fingerprint for the cases that allocate nothing, to the document for
/// the updating ones (their swept `<s/>` slots land on the free list the
/// fingerprint covers, as on the engine path above).
#[test]
fn depth_limits_hold_inline_on_a_deep_stack_thread() {
    let mut e = Engine::new();
    e.load_document("doc", DOC).unwrap();
    let server = e.into_server(xquery_bang::ServerConfig::default());
    let nested = |n: usize| format!("{}1{}", "(".repeat(n), ")".repeat(n));
    let mut cases = vec![
        (
            "declare function loop($n) { loop($n + 1) }; loop(0)".to_string(),
            true,
        ),
        (
            "declare function f($n) { f($n) + 1 }; f(1)".to_string(),
            true,
        ),
        (format!("xqb:explain('{}')", nested(300)), true),
        (nested(100_000), true),
    ];
    for mode in ["ordered", "nondeterministic", "conflict-detection"] {
        let spin = format!(
            "declare function spin($n) {{
               (insert {{ <s/> }} into {{ $doc/x }}, spin($n + 1)) }};
             snap {mode} {{ spin(0) }}"
        );
        cases.push((spin, false));
    }
    xquery_bang::xqsyn::stack::spawn_deep("session", move || {
        let session = server.open_session().unwrap();
        let read = |q: &str| session.execute(q).unwrap().body;
        let (fingerprint, doc) = (read("xqb:fingerprint()"), read("serialize($doc)"));
        for (query, allocates_nothing) in &cases {
            let shown = &query[..query.len().min(60)];
            match session.execute(query) {
                Err(Error::Eval(x)) => assert_eq!(x.code, "XQB0040", "{shown}"),
                Err(Error::Parse(p)) => assert!(p.message.contains("XQB0040"), "{shown}: {p}"),
                Ok(r) => panic!("{shown}: expected XQB0040, got {:?}", r.body),
            }
            assert_eq!(read("serialize($doc)"), doc, "{shown}: document changed");
            if *allocates_nothing {
                assert_eq!(
                    read("xqb:fingerprint()"),
                    fingerprint,
                    "{shown}: store changed"
                );
            }
        }
    })
    .unwrap()
    .join()
    .unwrap();
}

/// Hostile *document* input: a 1M-deep element chain is an XQB0040 load
/// error, never a stack overflow.
#[test]
fn hostile_deep_document_is_a_load_error() {
    let n = 1_000_000;
    let mut xml = String::with_capacity(n * 8);
    for _ in 0..n {
        xml.push_str("<d>");
    }
    xml.push('x');
    for _ in 0..n {
        xml.push_str("</d>");
    }
    let mut e = Engine::new();
    let err = e.load_document("deep", &xml).unwrap_err();
    assert_eq!(err.code, "XQB0040");
    // The engine is still usable after rejecting the document.
    e.load_document("doc", DOC).unwrap();
    let v = e.run("count($doc/x/*)").unwrap();
    assert_eq!(e.serialize(&v).unwrap(), "3");
}

/// The parsers a *query* can reach — `fn:parse-xml`, `xqb:explain` — obey
/// the run's `Limits` like `load_document` and `run` do, not a fresh read
/// of the process environment: one level past the bound is `XQB0040`, and
/// the store is left as the run found it (to the fingerprint for `explain`,
/// which allocates nothing; to the live nodes for `parse-xml`, whose swept
/// slots land on the free list the fingerprint covers).
#[test]
fn in_language_parsers_obey_the_run_limits() {
    let mut e = Engine::new();
    e.set_limits(Limits {
        max_xml_depth: 8,
        max_parse_depth: 32,
        ..Limits::default()
    });
    e.load_document("doc", DOC).unwrap();
    let nested_xml = |n: usize| format!("{}{}", "<d>".repeat(n), "</d>".repeat(n));
    let nested_query = |n: usize| format!("{}1{}", "(".repeat(n), ")".repeat(n));

    let v = e
        .run(&format!("count(parse-xml('{}')//d)", nested_xml(8)))
        .unwrap();
    assert_eq!(e.serialize(&v).unwrap(), "8");
    e.run(&format!("xqb:explain('{}')", nested_query(4)))
        .unwrap();

    let before = (e.store.fingerprint(), e.store.len(), doc_xml(&e));
    let hostile = format!("xqb:explain('{}')", nested_query(100));
    assert_eq!(eval_code(e.run(&hostile)).as_deref(), Some("XQB0040"));
    assert_eq!(e.store.fingerprint(), before.0);
    let hostile = format!("parse-xml('{}')", nested_xml(9));
    assert_eq!(eval_code(e.run(&hostile)).as_deref(), Some("XQB0040"));
    assert_eq!((e.store.len(), doc_xml(&e)), (before.1, before.2));
    // A plain syntax error is not a limit trip.
    assert_eq!(
        eval_code(e.run("xqb:explain('for $x in')")).as_deref(),
        Some("XPST0003")
    );
}

/// Limit trips bump the matching `engine.limit_trips.*` counter.
#[test]
fn limit_trips_are_counted() {
    let g = xquery_bang::xqcore::obs::global();
    let before = g
        .counter(xquery_bang::xqcore::obs::CounterId::LimitFuel)
        .get();
    let mut e = Engine::new();
    e.set_limits(Limits {
        fuel: Some(50),
        ..Limits::default()
    });
    e.load_document("doc", DOC).unwrap();
    assert_eq!(
        eval_code(e.run("for $i in 1 to 100000 return $i")).as_deref(),
        Some("XQB0041")
    );
    assert!(
        g.counter(xquery_bang::xqcore::obs::CounterId::LimitFuel)
            .get()
            > before,
        "fuel trip must be counted"
    );
}

/// Updating queries used by the rollback property below. All of them keep
/// their updates *pending* (top-level implicit snap, or one explicit snap
/// whose body trips before applying): on the error path, snaps that
/// already committed legitimately persist — same semantics as `fn:error`,
/// pinned by `limit_trip_after_a_committed_snap_keeps_the_commit` — so
/// byte-identity to the pre-run store is only promised when nothing has
/// committed before the trip.
const UPDATING_POOL: &[&str] = &[
    "for $i in 1 to 50 return insert { <e/> } into { $doc/x }",
    "snap { for $i in 1 to 50 return insert { <e v=\"{$i}\"/> } into { $doc/x } }",
    "snap nondeterministic {
       for $i in 1 to 50 return insert { <e/> } into { $doc/x } }",
    "declare function grow($n) {
       (insert { <g/> } into { $doc/x }, grow($n + 1)) };
     snap { grow(0) }",
];

/// The error path keeps snaps that committed before the trip (exactly
/// like `fn:error`; only the XQB0030 panic path unwinds commits).
#[test]
fn limit_trip_after_a_committed_snap_keeps_the_commit() {
    let mut e = Engine::new();
    e.load_document("doc", DOC).unwrap();
    let err = e.run(
        "declare function spin($n) { spin($n + 1) };
         (snap insert { <first/> } into { $doc/x }, spin(0))",
    );
    assert_eq!(eval_code(err).as_deref(), Some("XQB0040"));
    assert!(
        doc_xml(&e).contains("<first/>"),
        "snap committed before the trip must persist"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Property: when a run is stopped by *any* limit, the store is
    // byte-identical to its pre-run state — a limit trip composes with
    // the undo journal exactly like any other dynamic error.
    #[test]
    fn limit_trip_leaves_store_identical(
        fuel in 1u64..400,
        which in 0usize..UPDATING_POOL.len(),
    ) {
        let mut e = Engine::new();
        e.set_limits(Limits { fuel: Some(fuel), ..Limits::default() });
        e.load_document("doc", DOC).unwrap();
        let before = doc_xml(&e);
        match e.run(UPDATING_POOL[which]) {
            Ok(_) => {} // budget was enough: store may legitimately differ
            Err(Error::Eval(x)) => {
                prop_assert!(
                    x.code.starts_with("XQB004"),
                    "unexpected error class: {} ({})", x.code, x.message
                );
                prop_assert_eq!(
                    doc_xml(&e), before.clone(),
                    "limit trip must roll back (fuel={}, q#{})",
                    fuel, which
                );
            }
            Err(other) => prop_assert!(false, "unexpected error: {other}"),
        }
        // Whatever happened, the engine still answers.
        let v = e.run("1 + 1").unwrap();
        prop_assert_eq!(e.serialize(&v).unwrap(), "2");
    }
}
