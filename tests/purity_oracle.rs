//! Purity-oracle property tests for the parallel gate (DESIGN.md §9).
//!
//! Each generated loop body carries a *known* purity verdict from the
//! generator itself. The tests then check that verdict against the
//! engine three ways:
//!
//! 1. **Static oracle** — `explain` shows the `par` marker exactly when
//!    the generator says the body is gate-admissible, and exactly when
//!    the run fans out: marker and run-time gate are one predicate, also
//!    through declared functions.
//! 2. **Pure-marked** bodies really are effect-free: the run finishes
//!    with an empty pending-update list (`requests_applied == 0`) and
//!    an unchanged store fingerprint (every bound document serializes
//!    to the same text before and after), and with `threads = 8` over
//!    ≥ `PAR_MIN_ITEMS` items the loop actually fans out.
//! 3. **Gate-rejected** bodies provably stay sequential
//!    (`par_regions == 0` even at `threads = 8`) and produce results —
//!    values, stores, snap/Δ statistics, error codes — identical to the
//!    sequential interpreter reference.

use proptest::prelude::*;
use xquery_bang::{Engine, Error};

/// A loop body plus the generator's purity verdict.
#[derive(Debug, Clone)]
struct Body {
    text: String,
    gate_admits: bool,
    /// Function declarations the body calls.
    prolog: &'static str,
}

fn body_strategy() -> impl Strategy<Value = Body> {
    prop_oneof![
        // --- gate-admissible: Pure on the lattice, structurally clean ---
        (1u8..9).prop_map(|k| Body {
            text: format!("number($e/@v) + {k}"),
            gate_admits: true,
            prolog: "",
        }),
        (1u8..9).prop_map(|k| Body {
            text: format!("concat(string($e/@v), \"-{k}\")"),
            gate_admits: true,
            prolog: "",
        }),
        (1u8..5).prop_map(|k| Body {
            text: format!("for $i in 1 to {k} return number($e/@v) * $i"),
            gate_admits: true,
            prolog: "",
        }),
        (1u8..99).prop_map(|k| Body {
            text: format!("if (number($e/@v) > {k}) then \"hi\" else \"lo\""),
            gate_admits: true,
            prolog: "",
        }),
        Just(Body {
            text: "count($e/@v) + count($log/log)".to_string(),
            gate_admits: true,
            prolog: "",
        }),
        // --- gate-rejected ---
        // A snap over *pure* code: Pure-adjacent but structurally
        // opaque — it draws an application seed and bumps the snap
        // statistics, so the gate must refuse it.
        Just(Body {
            text: "snap { number($e/@v) }".to_string(),
            gate_admits: false,
            prolog: "",
        }),
        // An effectful snap in the body.
        Just(Body {
            text: "snap insert { <x/> } into { $log/log }".to_string(),
            gate_admits: false,
            prolog: "",
        }),
        // A bare pending update (applied by the implicit top-level snap).
        Just(Body {
            text: "(insert { <x/> } into { $log/log }, \"i\")".to_string(),
            gate_admits: false,
            prolog: "",
        }),
        // Node construction: Alloc on the lattice, needs `&mut Store`.
        Just(Body {
            text: "element hit { string($e/@v) }".to_string(),
            gate_admits: false,
            prolog: "",
        }),
        // Metrics introspection: reads the shared registry mid-flight,
        // so the gate refuses it (the *value* stays deterministic — the
        // snapshot is a single string, so the count is always 1).
        Just(Body {
            text: "number($e/@v) + count(xqb:stats()) - 1".to_string(),
            gate_admits: false,
            prolog: "",
        }),
        // Behind declared functions the verdict is the same one: the
        // judgment is closed over calls, and EXPLAIN reads that judgment.
        Just(Body {
            text: "twice(number($e/@v))".to_string(),
            gate_admits: true,
            prolog: "declare function twice($n) { $n * 2 };",
        }),
        Just(Body {
            text: "string(probe($e/@v))".to_string(),
            gate_admits: false,
            prolog: "declare function probe($x) { inner($x) };
                     declare function inner($x) { trace($x, \"probe\") };",
        }),
        Just(Body {
            text: "count(stamp($e))".to_string(),
            gate_admits: false,
            prolog: "declare function stamp($x) { snap { $x } };",
        }),
    ]
}

fn data_doc(vals: &[u8]) -> String {
    let mut s = String::from("<root>");
    for v in vals {
        s.push_str(&format!("<e v=\"{v}\"/>"));
    }
    s.push_str("</root>");
    s
}

fn fresh_engine(threads: usize, compile: bool, doc: &str) -> Engine {
    let mut e = Engine::new().with_seed(0x9ac1e);
    e.set_compile(compile);
    e.set_threads(threads);
    e.load_document("doc", doc).unwrap();
    e.load_document("log", "<log/>").unwrap();
    e
}

fn serialize_binding(e: &Engine, name: &str) -> String {
    let b = e.binding(name).unwrap().clone();
    e.serialize(&b).unwrap()
}

fn error_code(e: &Error) -> String {
    match e {
        Error::Parse(_) => "parse".to_string(),
        Error::Eval(x) => x.code.to_string(),
    }
}

/// EXPLAIN shows the gate's verdict in one of two positions (see
/// docs/EXPLAIN.md): `,par` inside an `Iterate[...]` effect bracket, or
/// `[par]` on a `For` binder whose source was lowered to a batch path.
fn shows_par(plan: &str) -> bool {
    plan.contains(",par") || plan.contains("[par]")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn purity_oracle_matches_gate_and_semantics(
        vals in proptest::collection::vec(0u8..100, 4..12),
        body in body_strategy(),
    ) {
        let doc = data_doc(&vals);
        let query = format!("{} for $e in $doc/root/e return {}", body.prolog, body.text);

        let mut par8 = fresh_engine(8, true, &doc);

        // 1. Static oracle: the `par` marker in EXPLAIN is exactly the
        //    gate's verdict on the loop body.
        let plan = par8.explain(&query).unwrap();
        prop_assert_eq!(
            shows_par(&plan),
            body.gate_admits,
            "par marker disagrees with generator verdict for `{}`:\n{}",
            &body.text,
            &plan
        );

        let doc_before = serialize_binding(&par8, "doc");
        let log_before = serialize_binding(&par8, "log");

        if body.gate_admits {
            // 2. Pure-marked: empty pending-update list, unchanged store,
            //    and the loop really fanned out at threads = 8.
            let v = par8.run(&query).expect("pure body must not error");
            let stats = par8.last_stats().unwrap();
            prop_assert_eq!(
                stats.requests_applied, 0,
                "pure-marked body produced pending updates: `{}`", &body.text
            );
            prop_assert_eq!(
                serialize_binding(&par8, "doc"), doc_before,
                "pure-marked body changed $doc: `{}`", &body.text
            );
            prop_assert_eq!(
                serialize_binding(&par8, "log"), log_before,
                "pure-marked body changed $log: `{}`", &body.text
            );
            prop_assert_eq!(
                stats.par_regions > 0,
                shows_par(&plan),
                "marked body did not fan out at threads=8: `{}` {:?}",
                &body.text, stats
            );

            // Values agree with the sequential interpreter.
            let mut seq = fresh_engine(1, false, &doc);
            let vs = seq.run(&query).unwrap();
            prop_assert_eq!(
                par8.serialize(&v).unwrap(),
                seq.serialize(&vs).unwrap(),
                "parallel vs sequential value mismatch for `{}`", &body.text
            );
        } else {
            // 3. Gate-rejected: provably sequential, and observably
            //    identical to the sequential interpreter.
            let r8 = par8.run(&query);
            let stats = par8.last_stats().unwrap();
            prop_assert_eq!(
                stats.par_regions > 0,
                shows_par(&plan),
                "marker and run-time gate disagree on `{}` {:?}:\n{}", &body.text, stats, &plan
            );

            let mut seq = fresh_engine(1, false, &doc);
            let r1 = seq.run(&query);
            match (&r8, &r1) {
                (Ok(v8), Ok(v1)) => {
                    prop_assert_eq!(
                        par8.serialize(v8).unwrap(),
                        seq.serialize(v1).unwrap(),
                        "value mismatch for `{}`", &body.text
                    );
                    let s1 = seq.last_stats().unwrap();
                    prop_assert_eq!(stats.snaps_closed, s1.snaps_closed);
                    prop_assert_eq!(stats.requests_applied, s1.requests_applied);
                    prop_assert_eq!(stats.max_snap_depth, s1.max_snap_depth);
                }
                (Err(e8), Err(e1)) => {
                    prop_assert_eq!(error_code(e8), error_code(e1));
                }
                _ => {
                    return Err(TestCaseError::fail(format!(
                        "divergence for `{}`: par8={r8:?} seq={r1:?}",
                        body.text
                    )));
                }
            }
            for name in ["doc", "log"] {
                prop_assert_eq!(
                    serialize_binding(&par8, name),
                    serialize_binding(&seq, name),
                    "store mismatch on ${} for `{}`", name, &body.text
                );
            }
        }
    }
}

/// Directed (non-random) companion: the gate's three structural
/// rejections beyond `Effect::Pure` — snap-over-pure, `fn:trace`, and
/// `fn:parse-xml` — each suppress `par` even though the effect lattice
/// alone would let them through.
#[test]
fn gate_is_strictly_tighter_than_the_effect_lattice() {
    let e = Engine::new();
    for (body, why) in [
        ("snap { 1 }", "snap draws a seed and bumps snap statistics"),
        (
            "trace(string($e/@v), \"probe\")",
            "trace has observable output order",
        ),
        ("parse-xml(\"<x/>\")", "parse-xml allocates store nodes"),
        (
            "count(xqb:stats())",
            "stats reads the shared metrics registry mid-flight",
        ),
        (
            "(xqb:reset-stats(), number($e/@v))",
            "reset-stats mutates the shared metrics registry",
        ),
        ("probe($e)", "a called function reaches trace"),
    ] {
        let plan = e
            .explain(&format!(
                "declare function probe($x) {{ trace($x, \"t\") }};
                 for $e in $doc/root/e return {body}"
            ))
            .unwrap();
        assert!(
            !shows_par(&plan),
            "`{body}` must be gate-rejected ({why}):\n{plan}"
        );
    }
    // …and the plain-pure control case is admitted.
    let plan = e
        .explain("for $e in $doc/root/e return string($e/@v)")
        .unwrap();
    assert!(shows_par(&plan), "control case not admitted:\n{plan}");
}
