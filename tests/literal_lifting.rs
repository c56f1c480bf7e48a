//! The lifting law (DESIGN.md §15): a text run through its shape's
//! prepared program, its string literals bound to parameter slots, gives
//! what the text parsed as written gives — value, store, Δ counts and
//! error code.
//!
//! Each text of the XMark, path battery and differential corpora, and a
//! few texts chosen for their quotes, first runs on a fork that shares
//! the plan cache, so its shape is prepared. Then the text with every
//! lifted literal changed runs through that entry (`Engine::run`) on one
//! fork and as parsed (`Engine::run_program`) on another, in all three
//! snap modes, with the index plane on and off, compiled and (but for the
//! path battery, which would take several times as long) interpreted.
//!
//! Then the run-time value of the index filter `[@id = $id]`: a string,
//! an untyped attribute value, an integer compared against `"3.0"`, two
//! items and the empty sequence. Then the cache itself: 801 point-read
//! texts make one plan, and texts that differ in a pinned slot never
//! share an entry. Last, EXPLAIN prints the same plan for a text lifted
//! and as parsed.

mod corpus;

use corpus::{differential, paths, xmark};
use std::sync::Arc;
use xquery_bang::xmarkgen::XmarkGen;
use xquery_bang::xqalg::pipeline::compile_program;
use xquery_bang::xqcore::planner::SharedPlanCache;
use xquery_bang::xqdm::seq;
use xquery_bang::xqsyn::{self, Skeleton};
use xquery_bang::{Engine, Error, Item, Sequence};

/// The snap modes a text runs under, as `snap` keywords.
const MODES: [&str; 3] = ["ordered", "nondeterministic", "conflict-detection"];

/// `text` with the value of every literal its parse lifts changed: a
/// trailing number counts up by one, anything else gains a `z`.
fn perturbed(text: &str) -> String {
    let skeleton = Skeleton::of(text);
    let Ok(program) = xqsyn::compile_lifted(&skeleton, xqsyn::DEFAULT_MAX_PARSE_DEPTH) else {
        return text.to_string();
    };
    let lifted = xqsyn::lifted_slots(&program);
    let params = skeleton.bind(&lifted).expect("a parsed text binds");
    let mut out = String::new();
    let mut copied = 0;
    for &i in &lifted {
        let span = skeleton.slots()[i].clone();
        out.push_str(&text[copied..span.start]);
        let value = params[i].string_value();
        let digits = value.len() - value.trim_end_matches(|c: char| c.is_ascii_digit()).len();
        let changed = match value[value.len() - digits..].parse::<u64>() {
            Ok(n) => format!("{}{}", &value[..value.len() - digits], n + 1),
            Err(_) => format!("{value}z"),
        };
        out.push('"');
        out.push_str(&changed.replace('&', "&amp;").replace('"', "\"\""));
        out.push('"');
        copied = span.end;
    }
    out.push_str(&text[copied..]);
    out
}

/// How a run ended: the serialized value and the run's Δ counts
/// (`snaps_closed`, `requests_emitted`, `requests_applied`,
/// `max_snap_depth`), or the error code.
type Outcome = Result<(String, [u64; 3], usize), String>;

fn outcome(engine: &mut Engine, run: Result<Sequence, Error>) -> Outcome {
    match run {
        Ok(value) => {
            let s = engine.last_stats().unwrap();
            Ok((
                engine.serialize(&value).unwrap(),
                [s.snaps_closed, s.requests_emitted, s.requests_applied],
                s.max_snap_depth,
            ))
        }
        Err(Error::Eval(e)) => Err(e.code.to_string()),
        Err(Error::Parse(_)) => Err("parse".to_string()),
    }
}

/// The law over one sequence of texts run in order against `base`'s
/// documents (`names`): for every compile × index × snap-mode variant,
/// the perturbed texts through the originals' prepared entries equal the
/// perturbed texts as parsed, text by text and in the documents after.
fn law(base: &Engine, names: &[&str], texts: &[&str]) {
    for mode in MODES {
        law_in(mode, &[true, false], base, names, texts);
    }
}

/// [`law`] under snap `mode` alone, compiled and interpreted as
/// `compiles` lists.
fn law_in(mode: &str, compiles: &[bool], base: &Engine, names: &[&str], texts: &[&str]) {
    for &compile in compiles {
        for indexing in [true, false] {
            {
                let mut root = base.snapshot_state().reader();
                root.set_compile(compile);
                root.set_indexing(indexing);
                root.set_shared_plan_cache(SharedPlanCache::new());
                // Forks of one engine share its environment and cache:
                // what `warm` prepares holds for `lifted`.
                let state = root.snapshot_state();
                let (mut warm, mut lifted, mut parsed) =
                    (state.reader(), state.reader(), state.reader());
                let label = format!("compile={compile} index={indexing} snap {mode}");
                for text in texts {
                    let text = format!("snap {mode} {{ {text} }}");
                    let _ = warm.run(&text);
                    let changed = perturbed(&text);
                    let got = lifted.run(&changed);
                    let got = outcome(&mut lifted, got);
                    let want = match xqsyn::compile(&changed) {
                        Ok(program) => parsed.run_program(&program).map_err(Error::Eval),
                        Err(e) => Err(Error::Parse(e)),
                    };
                    let want = outcome(&mut parsed, want);
                    assert_eq!(got, want, "{label}: {changed} (from {text})");
                    if compile && warm.last_run().is_some_and(|r| r.cache != "uncompiled") {
                        let shape = Skeleton::of(&changed).text() == Skeleton::of(&text).text();
                        if shape && lifted.last_run().is_some() {
                            assert_eq!(
                                lifted.last_run().unwrap().cache,
                                "hit",
                                "{label}: {changed}"
                            );
                        }
                    }
                }
                for name in names {
                    let doc = |e: &Engine| e.serialize(e.binding(name).unwrap()).unwrap();
                    assert_eq!(doc(&lifted), doc(&parsed), "{label}: ${name}");
                }
            }
        }
    }
}

#[test]
fn perturbing_a_literal_changes_its_value_only() {
    assert_eq!(
        perturbed(r#"$d//p[@id = "person7"]/name, concat('a', "b""c")"#),
        r#"$d//p[@id = "person8"]/name, concat("az", "b""cz")"#
    );
    // Constructor content and comments are not literals; a plain
    // attribute value lifts, one that is not plain stays as written.
    assert_eq!(
        perturbed(r#"<a b="1">"2"</a> (: "3" :)"#),
        r#"<a b="2">"2"</a> (: "3" :)"#
    );
    assert_eq!(
        perturbed(r#"<a b="x{{" c="{$y}" d=""/>"#),
        r#"<a b="x{{" c="{$y}" d="z"/>"#
    );
}

/// Direct attribute values, plain and not: the law over each, and a
/// cache warmed by a plain value never answers a text whose value in
/// that place is not plain (`{{`, a reference, an enclosed expression,
/// a tab): that text has its own skeleton and runs as written.
#[test]
fn attribute_values_obey_the_lifting_law() {
    const VALUES: [&str; 6] = ["7", "", "a{{b}}", "a&amp;b", "{$x}", "a\tb"];
    let texts: Vec<String> = VALUES
        .iter()
        .map(|v| {
            format!(
                r#"let $x := "v" return (<e n="{v}" m='k'/>, insert {{ <e n="{v}"/> }} into {{ $doc/r }})"#
            )
        })
        .collect();
    let mut base = Engine::new();
    base.load_document("doc", "<r/>").unwrap();
    let texts: Vec<&str> = texts.iter().map(String::as_str).collect();
    law(&base, &["doc"], &texts);

    let cache = SharedPlanCache::new();
    let (mut e, mut parsed) = (Engine::new(), Engine::new());
    e.set_shared_plan_cache(cache.clone());
    let text = |v: &str| format!(r#"let $x := "v" return <e n="{v}"/>"#);
    let first = e.run(&text("1")).unwrap();
    assert_eq!(e.serialize(&first).unwrap(), r#"<e n="1"/>"#);
    for v in VALUES {
        let got = e.run(&text(v)).unwrap();
        let want = parsed
            .run_program(&xqsyn::compile(&text(v)).unwrap())
            .unwrap();
        assert_eq!(
            e.serialize(&got).unwrap(),
            parsed.serialize(&want).unwrap(),
            "{v}"
        );
    }
    // One shape for the plain values; one entry per value that is not.
    assert_eq!(cache.len(), 5);
}

#[test]
fn xmark_texts_obey_the_lifting_law() {
    let mut base = Engine::new();
    let doc = XmarkGen::new(xmark::SEED)
        .generate(&mut base.store, &xmark::SCALE)
        .unwrap();
    base.bind("auction", seq![Item::Node(doc)]);
    base.load_document("purchasers", "<purchasers/>").unwrap();
    for text in xmark::QUERY_TEXTS {
        law(&base, &["purchasers"], &[text]);
    }
}

/// The path battery under snap `mode`, compiled (the interpreter reads a
/// slot as the other corpora show): one test per mode, so the three run
/// side by side.
fn path_battery_law(mode: &str) {
    for n in 0..paths::CASES {
        let (doc, updates, query) = paths::case(n);
        let mut base = Engine::new();
        base.load_document("doc", &doc).unwrap();
        law_in(mode, &[true], &base, &["doc"], &[&updates, &query]);
    }
}

#[test]
fn path_battery_obeys_the_lifting_law_ordered() {
    path_battery_law(MODES[0]);
}

#[test]
fn path_battery_obeys_the_lifting_law_nondeterministic() {
    path_battery_law(MODES[1]);
}

#[test]
fn path_battery_obeys_the_lifting_law_conflict_detection() {
    path_battery_law(MODES[2]);
}

#[test]
fn differential_texts_obey_the_lifting_law() {
    let mut base = Engine::new();
    base.load_document("doc", differential::DOC).unwrap();
    law(&base, &["doc"], differential::QUERIES);
    // Quotes in every position the scan meets them: escapes and entity
    // references in literals, markup, comments, an unclosed apostrophe
    // in content, a literal in an enclosed expression, and a computed
    // name.
    law(
        &base,
        &["doc"],
        &[
            r#"concat("a""b", 'c''d', "e&amp;f", '&#65;')"#,
            r#"<a title="t">"x" {"y"} it's</a>"#,
            r#"(: it's "c" :) ("d", 'e')"#,
            r#"element { "n1" } { attribute { "m" } { "v" } }"#,
            r#"for $p in $doc//person[@id = "p0"] return insert { <seen by="{ "p9" }"/> } into { $p }"#,
            r#"$doc//person[name = "Ada"]/@id = "p0""#,
            r#"if ("x") then "y" else "n""#,
            r#"$doc//person[@id = "p1"]/name, $doc//item[@ref = "p1"]"#,
        ],
    );
}

/// `local:p` reads its `$id` once per run of its chain: exactly one
/// string takes the exact-string filter (and the index); any other value
/// runs the predicate, with numeric promotion, existential semantics and
/// the predicate's errors.
#[test]
fn a_filter_value_known_only_at_run_time_agrees() {
    const DOC: &str = r#"<r><k v="4"/><e id="3.0">a</e><e id="3">b</e><e id="4">c</e><e>d</e></r>"#;
    const WORDS: &str = r#"<r><k v="4"/><e id="3">b</e><e id="b">c</e></r>"#;
    const P: &str = "declare function local:p($a, $id) { $a//e[@id = $id] };";
    let rows: [(&str, &str, Result<&str, &str>); 7] = [
        (DOC, "\"4\"", Ok("<e id=\"4\">c</e>")),
        (DOC, "data($doc/r/k/@v)", Ok("<e id=\"4\">c</e>")),
        (DOC, "$doc/r/k/@v", Ok("<e id=\"4\">c</e>")),
        (DOC, "3", Ok("<e id=\"3.0\">a</e> <e id=\"3\">b</e>")),
        (
            DOC,
            "(\"3\", \"4\")",
            Ok("<e id=\"3\">b</e> <e id=\"4\">c</e>"),
        ),
        (DOC, "()", Ok("")),
        (WORDS, "3", Err("FORG0001")),
    ];
    for (doc, value, want) in rows {
        for compile in [true, false] {
            for indexing in [true, false] {
                for mode in MODES {
                    let mut e = Engine::new();
                    e.set_compile(compile);
                    e.set_indexing(indexing);
                    e.load_document("doc", doc).unwrap();
                    let text = format!("{P} snap {mode} {{ local:p($doc, {value}) }}");
                    let got = match e.run(&text) {
                        Ok(v) => Ok(e.serialize(&v).unwrap()),
                        Err(Error::Eval(err)) => Err(err.code.to_string()),
                        Err(Error::Parse(err)) => panic!("{text}: {err}"),
                    };
                    assert_eq!(
                        got.as_deref().map_err(String::as_str),
                        want,
                        "compile={compile} index={indexing}: {text}"
                    );
                }
            }
        }
        // The body's chain is index-servable under the same rule as a
        // literal's, and a string value reads the index.
        let mut e = Engine::new();
        e.load_document("doc", doc).unwrap();
        let query = format!("{P} local:p($doc, {value})");
        assert!(e.explain(&query).unwrap().contains(",idx"), "{query}");
        let _ = e.run(&query);
        if value == "\"4\"" {
            assert!(e.last_stats().unwrap().idx_scans > 0, "{query}");
        }
    }
}

/// `mixed_sessions`' reads: 801 texts of one shape make one plan and run
/// as their literals say.
#[test]
fn one_shape_makes_one_plan() {
    let mut xml = String::from("<site><people>");
    for k in 0..801 {
        xml.push_str(&format!(
            "<person id=\"person{k}\"><name>n{k}</name></person>"
        ));
    }
    xml.push_str("</people></site>");
    let mut e = Engine::new();
    e.load_document("auction", &xml).unwrap();
    let cache = SharedPlanCache::new();
    e.set_shared_plan_cache(cache.clone());
    for k in 0..801 {
        let r = e
            .run(&format!(r#"$auction//person[@id = "person{k}"]/name"#))
            .unwrap();
        assert_eq!(e.serialize(&r).unwrap(), format!("<name>n{k}</name>"));
    }
    assert_eq!(cache.len(), 1);
    assert_eq!(cache.stats(), (800, 1));
}

/// A pinned slot's text is part of the key: these texts differ only
/// there, and each runs as written.
#[test]
fn texts_that_differ_in_a_pinned_slot_never_share_an_entry() {
    let cache: Arc<SharedPlanCache> = SharedPlanCache::new();
    let mut e = Engine::new();
    e.set_shared_plan_cache(cache.clone());
    for _ in 0..2 {
        for (text, want) in [
            (r#"<a>"x"</a>"#, r#"<a>"x"</a>"#),
            (r#"<a>"y"</a>"#, r#"<a>"y"</a>"#),
            (r#"<a b="x{{"/>"#, r#"<a b="x{"/>"#),
            (r#"<a b="y{{"/>"#, r#"<a b="y{"/>"#),
            (r#"(: "x" :) 1"#, "1"),
        ] {
            let r = e.run(text).unwrap();
            assert_eq!(e.serialize(&r).unwrap(), want, "{text}");
        }
    }
    assert_eq!(cache.len(), 5);
}

/// Rows whose plan differs lifted and as parsed, with the reason. None
/// of the XMark or path battery texts does.
const EXPLAIN_DIFFERS: &[(&str, &str)] = &[];

#[test]
fn explain_prints_the_same_plan_lifted_and_as_parsed() {
    let check = |e: &Engine, text: &str| {
        let parsed = compile_program(&xqsyn::compile(text).unwrap()).explain(&e.store, &[]);
        let lifted = e.explain(text).unwrap();
        if EXPLAIN_DIFFERS.iter().all(|(row, _)| *row != text) {
            assert_eq!(lifted, parsed, "{text}");
        }
    };
    let mut e = Engine::new();
    let doc = XmarkGen::new(xmark::SEED)
        .generate(&mut e.store, &xmark::SCALE)
        .unwrap();
    e.bind("auction", seq![Item::Node(doc)]);
    for text in xmark::QUERY_TEXTS {
        check(&e, text);
    }
    for n in 0..paths::CASES {
        let (doc, updates, query) = paths::case(n);
        let mut e = Engine::new();
        e.load_document("doc", &doc).unwrap();
        for indexing in [true, false] {
            e.set_indexing(indexing);
            check(&e, &updates);
            check(&e, &query);
        }
    }
}
