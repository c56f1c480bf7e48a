//! Data-driven conformance corpus, split per language area: one-line
//! query → expected serialization, against a fixed document. The
//! cheapest place to pin a behaviour or add a regression case — append
//! a row to the area it belongs to.
//!
//! Beyond the value tables there are: an error-code table (codes are
//! part of the observable semantics), and negative tests for `XQB0030`
//! engine isolation / rollback.

use xquery_bang::xqcore::functions::{BUILTINS, MANY};
use xquery_bang::{Engine, Error};

const DOC: &str = r#"<site>
  <people>
    <person id="p1" age="36"><name>Ada</name></person>
    <person id="p2" age="41"><name>Bob</name></person>
    <person id="p3" age="36"><name>Cyd</name></person>
  </people>
  <nums><n>3</n><n>1</n><n>2</n></nums>
  <mixed>alpha <b>beta</b> gamma</mixed>
</site>"#;

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
    run_cases(
        "literals/arithmetic/logic",
        &[
            ("2 + 3 * 4", "14"),
            ("(2 + 3) * 4", "20"),
            ("10 idiv 3", "3"),
            ("10 mod 3", "1"),
            ("10 div 4", "2.5"),
            ("-(2 + 3)", "-5"),
            ("1.5e2", "150"),
            ("\"a\" = \"a\"", "true"),
            ("true() and false()", "false"),
            ("true() or false()", "true"),
            ("not(())", "true"),
            ("() = ()", "false"),
            ("(1, 2) != (1, 2)", "true"), // existential: 1 != 2
            ("3 eq 3.0", "true"),
            ("\"b\" gt \"a\"", "true"),
        ],
    );
}

#[test]
fn sequences() {
    run_cases(
        "sequence",
        &[
            ("count(())", "0"),
            ("count((1, (2, 3)))", "3"),
            ("(1 to 3, 5)", "1 2 3 5"),
            ("reverse(1 to 3)", "3 2 1"),
            ("subsequence(1 to 10, 3, 2)", "3 4"),
            ("distinct-values((1, 2, 1))", "1 2"),
            ("string-join((\"x\", \"y\", \"z\"), \",\")", "x,y,z"),
            ("head(1 to 5)", "1"),
            ("tail(1 to 3)", "2 3"),
            ("insert-before((\"a\", \"c\"), 2, \"b\")", "a b c"),
            ("remove((\"a\", \"b\", \"c\"), 2)", "a c"),
            ("index-of((5, 10, 5), 5)", "1 3"),
        ],
    );
}

#[test]
fn strings() {
    run_cases(
        "string",
        &[
            ("upper-case(\"mixed\")", "MIXED"),
            ("substring(\"conformance\", 4, 4)", "form"),
            ("contains(\"conformance\", \"forma\")", "true"),
            ("starts-with(\"abc\", \"ab\")", "true"),
            ("ends-with(\"abc\", \"bc\")", "true"),
            ("substring-before(\"key=value\", \"=\")", "key"),
            ("substring-after(\"key=value\", \"=\")", "value"),
            ("normalize-space(\" a   b \")", "a b"),
            ("translate(\"abc\", \"ac\", \"xz\")", "xbz"),
            ("string-length(\"héllo\")", "5"),
            ("concat(\"a\", 1, true())", "a1true"),
            // unicode (regression: UTF-8 in literals/AVTs)
            ("string-length(\"naïve\")", "5"),
            ("<t v=\"schön\"/>", "<t v=\"schön\"/>"),
            ("upper-case(\"héllo\")", "HÉLLO"),
        ],
    );
}

#[test]
fn numerics() {
    run_cases(
        "numeric",
        &[
            ("abs(-7)", "7"),
            ("floor(3.7)", "3"),
            ("ceiling(3.2)", "4"),
            ("round(3.5)", "4"),
            ("sum(1 to 4)", "10"),
            ("avg((2, 4))", "3"),
            ("min((3, 1, 2))", "1"),
            ("max((3, 1, 2))", "3"),
            ("number(\"5\") + 5", "10"),
            ("xs:integer(\"08\")", "8"),
        ],
    );
}

#[test]
fn flwor_and_quantifiers() {
    run_cases(
        "FLWOR/quantifier",
        &[
            ("for $i in 1 to 3 return $i * $i", "1 4 9"),
            ("for $i at $p in (\"a\", \"b\") return $p", "1 2"),
            ("let $s := 1 to 4 return count($s)", "4"),
            ("for $i in 1 to 6 where $i mod 3 = 0 return $i", "3 6"),
            ("for $i in (3, 1, 2) order by $i return $i", "1 2 3"),
            (
                "for $i in (3, 1, 2) order by $i descending return $i",
                "3 2 1",
            ),
            ("some $i in 1 to 5 satisfies $i * $i = 16", "true"),
            ("every $i in 1 to 5 satisfies $i < 6", "true"),
            ("if (2 > 1) then \"yes\" else \"no\"", "yes"),
        ],
    );
}

#[test]
fn paths() {
    run_cases(
        "path",
        &[
            ("count($doc//person)", "3"),
            ("string($doc//person[1]/name)", "Ada"),
            ("string($doc//person[@id = \"p3\"]/name)", "Cyd"),
            ("count($doc//person[@age = 36])", "2"),
            ("$doc//person[last()]/name", "<name>Cyd</name>"),
            ("count($doc//@id)", "3"),
            ("name($doc//name[text() = \"Bob\"]/..)", "person"),
            ("sum($doc//n)", "6"),
            (
                "for $n in $doc//nums/n order by xs:integer($n) return string($n)",
                "1 2 3",
            ),
            ("string($doc//mixed)", "alpha beta gamma"),
            ("count($doc//mixed/node())", "3"),
            ("count($doc//person/following-sibling::person)", "2"),
            ("name(($doc//b)[1]/preceding::person[1])", "person"),
            ("count($doc//person | $doc//n)", "6"),
            ("count($doc//person intersect $doc//person[@age = 36])", "2"),
            ("count($doc//person except $doc//person[2])", "2"),
        ],
    );
}

#[test]
fn constructors() {
    run_cases(
        "constructor",
        &[
            ("<x>{1 + 1}</x>", "<x>2</x>"),
            ("<x a=\"{1 + 1}\"/>", "<x a=\"2\"/>"),
            ("element y { attribute k { \"v\" } }", "<y k=\"v\"/>"),
            ("string(text { \"plain\" })", "plain"),
            ("serialize(<a><b/></a>)", "<a><b/></a>"),
            ("count(parse-xml(\"<a><b/><b/></a>\")//b)", "2"),
            ("deep-equal(<a>1</a>, <a>1</a>)", "true"),
        ],
    );
}

#[test]
fn updates() {
    run_cases(
        "update",
        &[
            ("count((delete { $doc//person[1] }, $doc//person))", "3"), // pending
            (
                "count((snap insert { <person id=\"p4\"/> } into { ($doc//people)[1] }, $doc//person))",
                "4",
            ),
            (
                "let $c := copy { ($doc//person)[1] } return ($c is ($doc//person)[1])",
                "false",
            ),
            ("string(copy { ($doc//name)[1] })", "Ada"),
        ],
    );
}

#[test]
fn snap_nesting() {
    run_cases(
        "snap-nesting",
        &[
            ("snap { 40 + 2 }", "42"),
            // `snap { … }` is a primary expression, not an operand — bind
            // it with `let` to use its value.
            ("snap { let $x := snap { 40 } return $x + 2 }", "42"),
            // A pending update is invisible until its snap closes…
            (
                "snap { insert { <y/> } into { ($doc//nums)[1] }, count($doc//nums/y) }",
                "0",
            ),
            // …but an *inner* snap applies its Δ on close, so the outer
            // continuation observes it.
            (
                "count((snap { insert { <y/> } into { ($doc//nums)[1] } }, $doc//nums/y))",
                "1",
            ),
            (
                "snap { snap insert { <y/> } into { ($doc//nums)[1] }, count($doc//nums/y) }",
                "1",
            ),
            // Three levels deep: innermost applies first.
            (
                "snap { let $x := snap { snap insert { <y/> } into { ($doc//nums)[1] }, \
                 count($doc//nums/y) } return $x + 10 }",
                "11",
            ),
        ],
    );
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
    const CASES: &[(&str, &str)] = &[
        ("1 div 0", "FOAR0001"),
        ("0 idiv 0", "FOAR0001"),
        ("$nope", "XPST0008"),
        ("no-such-fn()", "XPST0017"),
        // Introspection builtins are nullary — wrong arity is a static
        // error, same code as an unknown function.
        ("xqb:stats(1)", "XPST0017"),
        ("xqb:reset-stats(\"x\")", "XPST0017"),
        ("xqb:fingerprint(1)", "XPST0017"),
        // A call is built-in only at an arity its row allows; no argument
        // is defaulted or dropped.
        ("xs:integer()", "XPST0017"),
        ("xs:string(\"a\", \"b\")", "XPST0017"),
        ("xqb:explain(\"1\", \"2\")", "XPST0017"),
        ("fs:intersect(1)", "XPST0017"),
        ("1 + \"a\"", "XPTY0004"),
        ("xs:integer(\"zz\")", "FORG0001"),
        ("sum((\"a\", \"b\"))", "FORG0001"),
        ("snap { snap { 1 div 0 } }", "FOAR0001"),
        // Errors inside a pure loop body: the first failing iteration's,
        // the poison value in the middle of the input.
        (
            "for $n in $doc//nums/n return 10 div (xs:integer($n) - 1)",
            "FOAR0001",
        ),
        ("for $i in 1 to 8 return 1 + \"a\"", "XPTY0004"),
        (
            "for $v in (1, 2, 3, 4, 0, 5, 0, 6) return 10 idiv $v",
            "FOAR0001",
        ),
    ];
    for (query, code) in CASES {
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
