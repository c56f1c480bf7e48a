//! The engine against the definitional oracle (`crates/spec`): the
//! paper's §3 judgment written down once, sharing no rule, store or
//! update vocabulary with the engine. The differential compares two
//! strategies that run one set of rules, so a wrong rule is wrong on both
//! sides; this suite compares the engine, compiled and interpreted,
//! with an independent reading of the semantics.
//!
//! Every row of the path battery, the binder battery, the XMark texts and
//! the conformance tables that falls in the oracle's fragment runs on all
//! three; their values, serialized documents and error codes must agree.
//! A row the oracle does not define (`Stuck::Unsupported`) ends its
//! sequence unchecked, and a floor per corpus on the rows checked keeps
//! that from silently swallowing a corpus.
//!
//! One divergence is known and pinned by count, not hidden: the compiled
//! engine drops a `let` whose variable is never read, and with it the
//! error its value would raise, where the interpreter and the oracle
//! raise it (`let $y := 1 div 0 return 7`). The planted binder programs
//! that read `$z` out of scope inside such a `let` show it.

mod corpus;

use corpus::{binders, conformance, differential, paths, xmark};
use xqspec::{Env, Failure, Item, NodeId, Store, Stuck};
use xquery_bang::xmarkgen::XmarkGen;
use xquery_bang::{Engine, Error};

/// How a run ended, as both sides can report it: the serialized value,
/// or the error code.
type Outcome = Result<String, String>;

/// What one corpus's rows came to.
#[derive(Default)]
struct Tally {
    /// Rows run against the oracle and the engines.
    rows: usize,
    /// Rows the oracle defined, so that they were compared.
    checked: usize,
    /// Of those, rows where only the compiled engine succeeded where the
    /// oracle raised: the dead-`let` divergence.
    dead_let: usize,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.rows += other.rows;
        self.checked += other.checked;
        self.dead_let += other.dead_let;
    }

    /// Assert at least `floor` rows were checked and exactly `dead_let`
    /// of them showed the dead-`let` divergence.
    fn assert(&self, corpus: &str, floor: usize, dead_let: usize) {
        println!(
            "{corpus}: {} of {} rows checked against the oracle",
            self.checked, self.rows
        );
        assert!(
            self.checked >= floor,
            "{corpus}: only {} of {} rows in the oracle's fragment (floor {floor})",
            self.checked,
            self.rows
        );
        assert_eq!(self.dead_let, dead_let, "{corpus}: dead-let divergences");
    }
}

/// The oracle's side of one sequence: its store and the documents bound
/// in it.
struct Oracle {
    store: Store,
    env: Env,
    docs: Vec<(String, NodeId)>,
}

/// Run `texts` in order against `docs` on the oracle and on a compiled and
/// an interpreted engine, comparing each text's outcome, until the oracle
/// leaves its fragment; then compare the documents.
fn check(docs: &[(&str, &str)], texts: &[&str]) -> Tally {
    let mut tally = Tally {
        rows: texts.len(),
        ..Tally::default()
    };
    let mut oracle = Oracle {
        store: Store::new(),
        env: Env::new(),
        docs: Vec::new(),
    };
    for (name, xml) in docs {
        let doc = match oracle.store.parse_document(xml) {
            Ok(doc) => doc,
            Err(_) => return tally,
        };
        oracle.env = oracle.env.bind(name, vec![Item::Node(doc)]);
        oracle.docs.push((name.to_string(), doc));
    }
    let mut compiled = Engine::new();
    for (name, xml) in docs {
        compiled.load_document(name, xml).unwrap();
    }
    // The interpreted engine is a fork of the loaded one: the same store
    // and bindings, without parsing the documents twice.
    let mut interpreted = compiled.snapshot_state().reader();
    interpreted.set_compile(false);
    let mut engines = [("compiled", compiled), ("interpreted", interpreted)];
    let mut last = None;
    for text in texts {
        let Ok(program) = xquery_bang::xqsyn::compile(text) else {
            break;
        };
        let store = std::mem::take(&mut oracle.store);
        let expected: Outcome = match xqspec::run(store, &oracle.env, &program) {
            Ok((value, store)) => {
                oracle.store = store;
                Ok(oracle.store.serialize_value(&value))
            }
            Err(Failure {
                stuck: Stuck::Error(code),
                store,
            }) => {
                oracle.store = store;
                Err(code)
            }
            Err(Failure {
                stuck: Stuck::Unsupported(_),
                ..
            }) => break,
        };
        for (label, engine) in &mut engines {
            let got: Outcome = match engine.run(text) {
                Ok(v) => Ok(engine.serialize(&v).unwrap()),
                Err(Error::Eval(e)) => Err(e.code.to_string()),
                Err(Error::Parse(_)) => Err("parse".to_string()),
            };
            if *label == "compiled" && got.is_ok() && expected.is_err() {
                tally.dead_let += 1;
                continue;
            }
            assert_eq!(got, expected, "{label} engine vs oracle on {text}");
        }
        last = Some(text);
        tally.checked += 1;
    }
    // The documents after the checked texts: a store effect of any of
    // them shows here, as documents only move forward.
    let Some(last) = last else {
        return tally;
    };
    for (name, doc) in &oracle.docs {
        let want = oracle.store.serialize(*doc);
        for (label, engine) in &engines {
            let doc = engine.binding(name).unwrap().clone();
            assert_eq!(
                engine.serialize(&doc).unwrap(),
                want,
                "{label} engine vs oracle: ${name} after {last}"
            );
        }
    }
    tally
}

#[test]
fn path_battery_agrees_with_the_oracle() {
    let mut tally = Tally::default();
    for n in 0..paths::CASES {
        let (doc, updates, query) = paths::case(n);
        tally.add(check(&[("doc", &doc)], &[&updates, &query]));
    }
    tally.assert("path_battery", 320, 0);
}

/// The binder battery's `binder_battery/v1` programs over `$x` and `$y`.
#[test]
fn binder_battery_agrees_with_the_oracle() {
    binders(false).assert("binder_battery/v1", 300, 0);
}

/// The same battery with `$z` planted in and out of scope.
#[test]
fn planted_binder_battery_agrees_with_the_oracle() {
    binders(true).assert("binder_battery/v1, planted", 300, 11);
}

fn binders(plant: bool) -> Tally {
    let mut tally = Tally::default();
    for case in 0..binders::BINDER_CASES {
        tally.add(check(&[], &[&binders::BinderGen::program(case, plant)]));
    }
    tally
}

#[test]
fn xmark_texts_agree_with_the_oracle() {
    let mut e = Engine::new();
    let doc = XmarkGen::new(xmark::SEED)
        .generate(&mut e.store, &xmark::SCALE)
        .unwrap();
    let auction = e.serialize(&[xquery_bang::Item::Node(doc)]).unwrap();
    let docs = [
        ("auction", auction.as_str()),
        ("purchasers", "<purchasers/>"),
    ];
    let mut tally = Tally::default();
    for text in xmark::QUERY_TEXTS {
        tally.add(check(&docs, &[text]));
    }
    tally.assert("xmark_queries", 16, 0);
}

#[test]
fn conformance_rows_agree_with_the_oracle() {
    let docs = [("doc", conformance::DOC)];
    let mut tally = Tally::default();
    let rows = conformance::TABLES
        .iter()
        .flat_map(|(_, table)| table.iter());
    for (query, _) in rows.chain(conformance::ERRORS) {
        tally.add(check(&docs, &[query]));
    }
    tally.assert("conformance", 82, 0);
    check(&[("doc", differential::DOC)], differential::QUERIES).assert("differential", 11, 0);
}

/// The paper's §2 logging service with its functions inlined: each call
/// takes the next id from a counter document in a snap of its own, so the
/// log entry, built after that snap closed, carries the incremented id.
#[test]
fn logging_body_agrees_with_the_oracle() {
    let call = |what: &str| {
        format!(
            "snap insert {{ <call id=\"{{ snap {{ replace value of {{ $counter/counter/text() }} \
             with {{ $counter/counter + 1 }}, $counter/counter }} }}\" what=\"{what}\"/> }} \
             into {{ $log/log }}"
        )
    };
    let texts = [
        call("a"),
        call("b"),
        "for $c in $log/log/call return string($c/@id)".to_string(),
    ];
    let texts: Vec<&str> = texts.iter().map(String::as_str).collect();
    let docs = [("counter", "<counter>0</counter>"), ("log", "<log/>")];
    assert_eq!(check(&docs, &texts).checked, texts.len());
    let mut e = Engine::new();
    for (name, xml) in docs {
        e.load_document(name, xml).unwrap();
    }
    for text in &texts[..2] {
        e.run(text).unwrap();
    }
    let ids = e.run(texts[2]).unwrap();
    assert_eq!(e.serialize(&ids).unwrap(), "1 2");
}

/// §2.5: a nested snap applies its Δ when it closes, before the outer
/// snap's, so the inner insert lands first: `<b/><a/><c/>`.
#[test]
fn nested_snap_order_agrees_with_the_oracle() {
    let texts = [
        "snap { insert { <a/> } into { $x/x }, \
         snap { insert { <b/> } into { $x/x } }, \
         insert { <c/> } into { $x/x } }",
        "$x/x",
    ];
    assert_eq!(check(&[("x", "<x/>")], &texts).checked, texts.len());
    let mut e = Engine::new();
    e.load_document("x", "<x/>").unwrap();
    e.run(texts[0]).unwrap();
    let x = e.run(texts[1]).unwrap();
    assert_eq!(e.serialize(&x).unwrap(), "<x><b/><a/><c/></x>");
}

/// Every built-in the oracle defines is a `Read` row of the engine's table.
#[test]
fn oracle_builtins_are_read_rows() {
    use xquery_bang::xqcore::functions::{Kind, BUILTINS};
    for name in xqspec::BUILTINS {
        let row = BUILTINS.iter().find(|row| row.name == *name);
        assert!(
            row.is_some_and(|row| row.kind == Kind::Read),
            "{name} is not a Read built-in"
        );
    }
}
