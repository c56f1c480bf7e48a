//! Purity-oracle property tests for the purity verdict
//! (`Facts::strictly_pure`, DESIGN.md §9).
//!
//! Each generated loop body carries a *known* purity verdict from the
//! generator itself. The tests then check that verdict against the
//! engine three ways:
//!
//! 1. **Static oracle** — the effect judgment's verdict on the body is
//!    the generator's, also through declared functions.
//! 2. **Pure** bodies really are effect-free: the run finishes with an
//!    empty pending-update list (`requests_applied == 0`) and an
//!    unchanged store (every bound document serializes to the same text
//!    before and after), and the compiled value is the interpreter's.
//! 3. **Rejected** bodies produce results — values, stores, snap/Δ
//!    statistics, error codes — identical to the interpreter reference.

use proptest::prelude::*;
use xquery_bang::xqcore::{Effect, EffectAnalysis};
use xquery_bang::{Engine, Error};

/// A loop body plus the generator's purity verdict.
#[derive(Debug, Clone)]
struct Body {
    text: String,
    pure: bool,
    /// Function declarations the body calls.
    prolog: &'static str,
}

fn body_strategy() -> impl Strategy<Value = Body> {
    prop_oneof![
        // --- pure: Pure on the lattice, structurally clean ---
        (1u8..9).prop_map(|k| Body {
            text: format!("number($e/@v) + {k}"),
            pure: true,
            prolog: "",
        }),
        (1u8..9).prop_map(|k| Body {
            text: format!("concat(string($e/@v), \"-{k}\")"),
            pure: true,
            prolog: "",
        }),
        (1u8..5).prop_map(|k| Body {
            text: format!("for $i in 1 to {k} return number($e/@v) * $i"),
            pure: true,
            prolog: "",
        }),
        (1u8..99).prop_map(|k| Body {
            text: format!("if (number($e/@v) > {k}) then \"hi\" else \"lo\""),
            pure: true,
            prolog: "",
        }),
        Just(Body {
            text: "count($e/@v) + count($log/log)".to_string(),
            pure: true,
            prolog: "",
        }),
        // --- rejected ---
        // A snap over *pure* code: Pure-adjacent but structurally
        // opaque — it draws an application seed and bumps the snap
        // statistics, so the verdict must refuse it.
        Just(Body {
            text: "snap { number($e/@v) }".to_string(),
            pure: false,
            prolog: "",
        }),
        // An effectful snap in the body.
        Just(Body {
            text: "snap insert { <x/> } into { $log/log }".to_string(),
            pure: false,
            prolog: "",
        }),
        // A bare pending update (applied by the implicit top-level snap).
        Just(Body {
            text: "(insert { <x/> } into { $log/log }, \"i\")".to_string(),
            pure: false,
            prolog: "",
        }),
        // Node construction: Alloc on the lattice.
        Just(Body {
            text: "element hit { string($e/@v) }".to_string(),
            pure: false,
            prolog: "",
        }),
        // Metrics introspection: reads the shared registry mid-flight,
        // so the verdict refuses it (the *value* stays deterministic —
        // the snapshot is a single string, so the count is always 1).
        Just(Body {
            text: "number($e/@v) + count(xqb:stats()) - 1".to_string(),
            pure: false,
            prolog: "",
        }),
        // Behind declared functions the verdict is the same one: the
        // judgment is closed over calls.
        Just(Body {
            text: "twice(number($e/@v))".to_string(),
            pure: true,
            prolog: "declare function twice($n) { $n * 2 };",
        }),
        Just(Body {
            text: "string(probe($e/@v))".to_string(),
            pure: false,
            prolog: "declare function probe($x) { inner($x) };
                     declare function inner($x) { trace($x, \"probe\") };",
        }),
        Just(Body {
            text: "count(stamp($e))".to_string(),
            pure: false,
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

fn fresh_engine(compile: bool, doc: &str) -> Engine {
    let mut e = Engine::new().with_seed(0x9ac1e);
    e.set_compile(compile);
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

/// The effect judgment's purity verdict on `body`, its calls resolved
/// against the functions `prolog` declares.
fn verdict(prolog: &str, body: &str) -> bool {
    let prog = xquery_bang::xqsyn::compile(&format!("{prolog} {body}")).unwrap();
    EffectAnalysis::new(&prog).facts(&prog.body).strictly_pure()
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

        // 1. Static oracle: the judgment's verdict on the loop body is
        //    the generator's.
        prop_assert_eq!(
            verdict(body.prolog, &body.text),
            body.pure,
            "purity verdict disagrees with the generator for `{}`",
            &body.text
        );

        let mut compiled = fresh_engine(true, &doc);
        let doc_before = serialize_binding(&compiled, "doc");
        let log_before = serialize_binding(&compiled, "log");
        let rc = compiled.run(&query);
        let mut interp = fresh_engine(false, &doc);
        let ri = interp.run(&query);

        if body.pure {
            // 2. Pure: empty pending-update list, unchanged store, the
            //    interpreter's value.
            let v = rc.expect("pure body must not error");
            let stats = compiled.last_stats().unwrap();
            prop_assert_eq!(
                stats.requests_applied, 0,
                "pure body produced pending updates: `{}`", &body.text
            );
            prop_assert_eq!(
                serialize_binding(&compiled, "doc"), doc_before,
                "pure body changed $doc: `{}`", &body.text
            );
            prop_assert_eq!(
                serialize_binding(&compiled, "log"), log_before,
                "pure body changed $log: `{}`", &body.text
            );
            let vi = ri.expect("pure body must not error when interpreted");
            prop_assert_eq!(
                compiled.serialize(&v).unwrap(),
                interp.serialize(&vi).unwrap(),
                "compiled vs interpreted value mismatch for `{}`", &body.text
            );
        } else {
            // 3. Rejected: observably identical to the interpreter.
            match (&rc, &ri) {
                (Ok(vc), Ok(vi)) => {
                    prop_assert_eq!(
                        compiled.serialize(vc).unwrap(),
                        interp.serialize(vi).unwrap(),
                        "value mismatch for `{}`", &body.text
                    );
                    let sc = compiled.last_stats().unwrap();
                    let si = interp.last_stats().unwrap();
                    prop_assert_eq!(sc.snaps_closed, si.snaps_closed);
                    prop_assert_eq!(sc.requests_applied, si.requests_applied);
                    prop_assert_eq!(sc.max_snap_depth, si.max_snap_depth);
                }
                (Err(ec), Err(ei)) => {
                    prop_assert_eq!(error_code(ec), error_code(ei));
                }
                _ => {
                    return Err(TestCaseError::fail(format!(
                        "divergence for `{}`: compiled={rc:?} interpreted={ri:?}",
                        body.text
                    )));
                }
            }
            for name in ["doc", "log"] {
                prop_assert_eq!(
                    serialize_binding(&compiled, name),
                    serialize_binding(&interp, name),
                    "store mismatch on ${} for `{}`", name, &body.text
                );
            }
        }
    }
}

/// Directed (non-random) companion: the verdict's structural rejections
/// beyond `Effect::Pure` — snap-over-pure, `fn:trace`, `fn:parse-xml` and
/// the metrics built-ins — each refuse a body the effect lattice alone
/// rates `Pure`.
#[test]
fn gate_is_strictly_tighter_than_the_effect_lattice() {
    let prolog = "declare function probe($x) { trace($x, \"t\") };";
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
        let prog = xquery_bang::xqsyn::compile(&format!("{prolog} {body}")).unwrap();
        let facts = EffectAnalysis::new(&prog).facts(&prog.body);
        assert_eq!(facts.level, Effect::Pure, "`{body}` on the lattice");
        assert!(!facts.strictly_pure(), "`{body}` must be rejected ({why})");
    }
    // …and the plain-pure control case is admitted.
    assert!(
        verdict(prolog, "string($e/@v)"),
        "control case not admitted"
    );
}
