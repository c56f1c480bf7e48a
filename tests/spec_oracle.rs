//! The engine against the definitional oracle (`crates/spec`): the
//! paper's §3 judgment written down once, sharing no rule, store or
//! update vocabulary with the engine. The differential compares two
//! strategies that run one set of rules, so a wrong rule is wrong on both
//! sides; this suite compares the engine, compiled and interpreted,
//! with an independent reading of the semantics.
//!
//! Every row of the path battery, the binder battery, the XMark texts and
//! the conformance tables that falls in the oracle's fragment runs on all
//! of them; their values, serialized documents and error codes must
//! agree. Each row runs twice on each side: as parsed, and with its
//! string literals lifted into parameter slots (the engine's prepared
//! path, DESIGN.md §15), the oracle reading each slot from the row's
//! parameter list. A row the oracle does not define
//! (`Stuck::Unsupported`) ends its sequence unchecked, and a floor per
//! corpus on the rows checked keeps that from silently swallowing a
//! corpus.

mod corpus;

use corpus::{binders, conformance, differential, paths, xmark};
use xqspec::{Env, Failure, Item, NodeId, Store, Stuck};
use xquery_bang::xmarkgen::XmarkGen;
use xquery_bang::xqsyn::{self, CoreProgram, Skeleton};
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
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.rows += other.rows;
        self.checked += other.checked;
    }

    /// Assert at least `floor` rows were checked.
    fn assert(&self, corpus: &str, floor: usize) {
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
    }
}

/// The oracle's side of one sequence: its store and the documents bound
/// in it.
struct Oracle {
    store: Store,
    env: Env,
    docs: Vec<(String, NodeId)>,
}

impl Oracle {
    /// An oracle store holding `docs`, or `None` when one is outside the
    /// oracle's XML.
    fn load(docs: &[(&str, &str)]) -> Option<Oracle> {
        let mut oracle = Oracle {
            store: Store::new(),
            env: Env::new(),
            docs: Vec::new(),
        };
        for (name, xml) in docs {
            let doc = oracle.store.parse_document(xml).ok()?;
            oracle.env = oracle.env.bind(name, vec![Item::Node(doc)]);
            oracle.docs.push((name.to_string(), doc));
        }
        Some(oracle)
    }

    /// Run `program` with its slots bound to `params`; `None` when it is
    /// outside the fragment.
    fn run(&mut self, program: &CoreProgram, params: Vec<String>) -> Option<Outcome> {
        let store = std::mem::take(&mut self.store);
        let env = self.env.with_params(params);
        match xqspec::run(store, &env, program) {
            Ok((value, store)) => {
                self.store = store;
                Some(Ok(self.store.serialize_value(&value)))
            }
            Err(Failure {
                stuck: Stuck::Error(code),
                store,
            }) => {
                self.store = store;
                Some(Err(code))
            }
            Err(Failure {
                stuck: Stuck::Unsupported(_),
                ..
            }) => None,
        }
    }
}

/// `text` with its literals lifted: the program and the strings its
/// slots read.
fn lifted(text: &str) -> (CoreProgram, Vec<String>) {
    let skeleton = Skeleton::of(text);
    let program = xqsyn::compile_lifted(&skeleton, xqsyn::DEFAULT_MAX_PARSE_DEPTH).unwrap();
    let params = skeleton.bind(&xqsyn::lifted_slots(&program)).unwrap();
    (program, params.iter().map(|a| a.string_value()).collect())
}

/// Run `texts` in order against `docs` on the oracle and on compiled and
/// interpreted engines, each as parsed and with its literals lifted,
/// comparing each text's outcome, until the oracle leaves its fragment;
/// then compare the documents.
fn check(docs: &[(&str, &str)], texts: &[&str]) -> Tally {
    let mut tally = Tally {
        rows: texts.len(),
        ..Tally::default()
    };
    let (Some(mut plain), Some(mut lifting)) = (Oracle::load(docs), Oracle::load(docs)) else {
        return tally;
    };
    let mut compiled = Engine::new();
    for (name, xml) in docs {
        compiled.load_document(name, xml).unwrap();
    }
    // The other engines are forks of the loaded one: the same store and
    // bindings, without parsing the documents again.
    let fork = |compile: bool| {
        let mut engine = compiled.snapshot_state().reader();
        engine.set_compile(compile);
        engine
    };
    let (interpreted, unlifted) = (fork(false), fork(true));
    // `Engine::run` lifts a text's literals; `run_program` runs the
    // program as parsed.
    let mut engines = [
        ("compiled", compiled, true),
        ("interpreted", interpreted, true),
        ("compiled, unlifted", unlifted, false),
    ];
    let mut last = None;
    for text in texts {
        let Ok(program) = xqsyn::compile(text) else {
            break;
        };
        let (lifted_program, params) = lifted(text);
        let Some(expected) = plain.run(&program, Vec::new()) else {
            break;
        };
        assert_eq!(
            lifting.run(&lifted_program, params),
            Some(expected.clone()),
            "the oracle, lifted vs as parsed, on {text}"
        );
        for (label, engine, lifts) in &mut engines {
            let run = match lifts {
                true => engine.run(text),
                false => engine.run_program(&program).map_err(Error::Eval),
            };
            let got: Outcome = match run {
                Ok(v) => Ok(engine.serialize(&v).unwrap()),
                Err(Error::Eval(e)) => Err(e.code.to_string()),
                Err(Error::Parse(_)) => Err("parse".to_string()),
            };
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
    for (name, doc) in &plain.docs {
        let want = plain.store.serialize(*doc);
        assert_eq!(
            lifting.store.serialize(*doc),
            want,
            "the oracle, lifted vs as parsed: ${name} after {last}"
        );
        for (label, engine, _) in &engines {
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
    tally.assert("path_battery", 320);
}

/// The binder battery's `binder_battery/v1` programs over `$x` and `$y`.
#[test]
fn binder_battery_agrees_with_the_oracle() {
    binders(false).assert("binder_battery/v1", 300);
}

/// The same battery with `$z` planted in and out of scope.
#[test]
fn planted_binder_battery_agrees_with_the_oracle() {
    binders(true).assert("binder_battery/v1, planted", 300);
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
    tally.assert("xmark_queries", 16);
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
    tally.assert("conformance", 82);
    check(&[("doc", differential::DOC)], differential::QUERIES).assert("differential", 11);
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
