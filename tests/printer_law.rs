//! The Core printer's law (`xqsyn::pretty`, what EXPLAIN, diagnostics
//! and a shrinker print through): over every text of the XMark, path,
//! differential and conformance corpora,
//!
//! * printing is a fixed point after one round — print the normalized
//!   program, parse and normalize the printed text, print again: the same
//!   text;
//! * the printed text runs to the same value, documents and error code as
//!   the original.
//!
//! The printer may emit a form the parser does not read back; each such
//! form is listed in [`UNPARSEABLE`] with the rows it excludes, and a row
//! that prints one is counted, not checked.

mod corpus;

use corpus::{binders, conformance, differential, paths, xmark};
use xquery_bang::xmarkgen::XmarkGen;
use xquery_bang::xqsyn::{compile, CoreProgram};
use xquery_bang::{Engine, Error};

/// Forms the printer emits that the parser rejects, with the rows they
/// exclude: `ddo(…)` is the document-order node a rewrite adds, which
/// normalization never produces, so no corpus row prints it.
const UNPARSEABLE: &[(&str, usize)] = &[("ddo(", 0)];

/// A program as text: its prolog's declarations, then its body.
fn print(program: &CoreProgram) -> String {
    let mut out = String::new();
    for (name, value) in &program.variables {
        out += &format!("declare variable ${name} := {value}; ");
    }
    for f in &program.functions {
        let params: Vec<String> = f.params.iter().map(|p| format!("${p}")).collect();
        out += &format!(
            "declare function {}({}) {{ {} }}; ",
            f.name,
            params.join(", "),
            f.body
        );
    }
    out + &program.body.to_string()
}

/// How a run ended: the serialized value or the error code.
fn outcome(e: &mut Engine, text: &str) -> Result<String, String> {
    match e.run(text) {
        Ok(v) => Ok(e.serialize(&v).unwrap()),
        Err(Error::Eval(x)) => Err(x.code.to_string()),
        Err(Error::Parse(_)) => Err("parse".to_string()),
    }
}

/// Rows checked and rows excluded by an [`UNPARSEABLE`] form.
#[derive(Default)]
struct Law {
    checked: usize,
    excluded: Vec<usize>,
}

impl Law {
    fn new() -> Law {
        Law {
            checked: 0,
            excluded: vec![0; UNPARSEABLE.len()],
        }
    }

    /// Check the law on `texts`, run in order against `docs`.
    fn check(&mut self, docs: &[(&str, &str)], texts: &[&str]) {
        let mut printed = Vec::new();
        for text in texts {
            let Ok(program) = compile(text) else {
                return;
            };
            let once = print(&program);
            if let Some(form) = UNPARSEABLE.iter().position(|(f, _)| once.contains(f)) {
                self.excluded[form] += 1;
                return;
            }
            let reparsed = compile(&once).unwrap_or_else(|e| {
                panic!("printed text does not parse ({e}):\n{once}\nfrom {text}")
            });
            let twice = print(&reparsed);
            assert_eq!(twice, once, "printing is not a fixed point for {text}");
            printed.push(once);
        }
        let engine = || {
            let mut e = Engine::new();
            for (name, xml) in docs {
                e.load_document(name, xml).unwrap();
            }
            e
        };
        let (mut original, mut reprinted) = (engine(), engine());
        for (text, once) in texts.iter().zip(&printed) {
            assert_eq!(
                outcome(&mut reprinted, once),
                outcome(&mut original, text),
                "the printed text runs differently:\n{once}\nfrom {text}"
            );
        }
        for (name, _) in docs {
            let a = original.binding(name).unwrap().clone();
            let b = reprinted.binding(name).unwrap().clone();
            assert_eq!(
                reprinted.serialize(&b).unwrap(),
                original.serialize(&a).unwrap(),
                "${name} after the printed texts of {texts:?}"
            );
        }
        self.checked += texts.len();
    }

    fn assert(&self, corpus: &str, rows: usize) {
        let excluded: usize = self.excluded.iter().sum();
        assert_eq!(self.checked + excluded, rows, "{corpus}: rows unaccounted");
        for ((form, pinned), n) in UNPARSEABLE.iter().zip(&self.excluded) {
            assert!(
                n <= pinned,
                "{corpus}: {n} rows print {form}, {pinned} listed"
            );
        }
    }
}

/// A filter over a whole path (`count(($d//p)[1])`, 1) printed like a
/// step predicate (`count($d//p[1])`, 2).
#[test]
fn a_filter_over_a_path_prints_apart_from_a_step_predicate() {
    let mut law = Law::new();
    let texts = ["count(($d//p)[1])", "count($d//p[1])"];
    law.check(&[("d", "<r><a><p/></a><a><p/></a></r>")], &texts);
    law.assert("pinned", texts.len());
    let once = |text| print(&compile(text).unwrap());
    assert_ne!(once(texts[0]), once(texts[1]));
}

/// A string constant printed its `"` unescaped: `"a""b"` as `"a"b"`.
#[test]
fn string_constants_print_escaped() {
    let mut law = Law::new();
    let texts = ["\"a\"\"b\"", "concat(\"x&amp;y\", '\"')"];
    law.check(&[], &texts);
    law.assert("pinned", texts.len());
}

#[test]
fn xmark_texts_print_and_reparse() {
    let mut e = Engine::new();
    let doc = XmarkGen::new(xmark::SEED)
        .generate(&mut e.store, &xmark::SCALE)
        .unwrap();
    let auction = e.serialize(&[xquery_bang::Item::Node(doc)]).unwrap();
    let docs = [
        ("auction", auction.as_str()),
        ("purchasers", "<purchasers/>"),
    ];
    let mut law = Law::new();
    for text in xmark::QUERY_TEXTS {
        law.check(&docs, &[text]);
    }
    law.assert("xmark_queries", xmark::QUERY_TEXTS.len());
}

#[test]
fn path_battery_prints_and_reparses() {
    let mut law = Law::new();
    for n in 0..paths::CASES {
        let (doc, updates, query) = paths::case(n);
        law.check(&[("doc", &doc)], &[&updates, &query]);
    }
    law.assert("path_battery", 2 * paths::CASES as usize);
}

#[test]
fn differential_texts_print_and_reparse() {
    let mut law = Law::new();
    law.check(&[("doc", differential::DOC)], differential::QUERIES);
    for plant in [false, true] {
        for case in 0..binders::BINDER_CASES {
            law.check(&[], &[&binders::BinderGen::program(case, plant)]);
        }
    }
    law.assert(
        "differential",
        differential::QUERIES.len() + 2 * binders::BINDER_CASES as usize,
    );
}

#[test]
fn conformance_rows_print_and_reparse() {
    let docs = [("doc", conformance::DOC)];
    let mut law = Law::new();
    let mut rows = 0;
    let tables = conformance::TABLES
        .iter()
        .flat_map(|(_, table)| table.iter());
    for (query, _) in tables.chain(conformance::ERRORS) {
        law.check(&docs, &[query]);
        rows += 1;
    }
    law.assert("conformance", rows);
}
