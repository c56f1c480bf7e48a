//! Differential determinism harness: every query runs on a compiled and
//! an interpreted engine, and both must produce the identical value sequence,
//! the identical serialized store, the identical snap/Δ statistics
//! (`snaps_closed`, `requests_emitted`, `requests_applied`,
//! `max_snap_depth`, which pin the Δ ordering and the per-snap seed
//! draws), and identical error codes,
//! in all three snap application modes. The interpreter
//! (`set_compile(false)`) is the reference semantics; the compiled plan is
//! an evaluation strategy that must be observably indistinguishable from
//! it.
//!
//! `plan_nodes_executed` / `joins_executed` / `batch_*` / `idx_*` are
//! *strategy* counters — they legitimately differ between the two and are
//! excluded from the comparison.
//!
//! A generated binder battery (pinned seed, vendored proptest RNG) feeds
//! programs of nested, shadowing `let` / `for` / `for … at` / `some` /
//! `every` / `order by` binders through the same pair, and checks that
//! the static checker's `XPST0008` predicts the interpreter's. A generated
//! builtin battery (pinned seed) calls every built-in row at each arity
//! from one below to one above its range, through the same pair, and
//! checks that the checker's `XPST0017` predicts the interpreter's.
//!
//! A `proptest` section generalizes the fixed corpus with randomly
//! generated join-shaped programs and data, additionally asserting the
//! compiled engine really did execute a hash join (`joins_executed > 0`)
//! so the equivalence is not vacuous.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use xquery_bang::xmarkgen::{Scale, XmarkGen};
use xquery_bang::xqcore::functions::{Kind, BUILTINS, MANY};
use xquery_bang::{Engine, Error, Item};

/// One engine configuration under test.
struct Variant {
    label: String,
    engine: Engine,
}

/// The interpreted reference and the compiled engine, with the same seed.
fn matrix(seed: u64) -> Vec<Variant> {
    [false, true]
        .into_iter()
        .map(|compile| {
            let mut engine = Engine::new().with_seed(seed);
            engine.set_compile(compile);
            let label = if compile { "compiled" } else { "interpreted" };
            Variant {
                label: label.to_string(),
                engine,
            }
        })
        .collect()
}

fn error_code(e: &Error) -> String {
    match e {
        Error::Parse(_) => "parse".to_string(),
        Error::Eval(x) => x.code.to_string(),
    }
}

/// Run `queries` in order on every matrix variant (same seed, same
/// documents, same preloaded modules) and assert observable equivalence
/// with the interpreter reference after every step.
fn differential(docs: &[(&str, &str)], modules: &[&str], queries: &[&str]) {
    let mut variants = matrix(0xd1ff);
    for v in &mut variants {
        for (name, xml) in docs {
            v.engine.load_document(name, xml).unwrap();
        }
        for m in modules {
            v.engine.load_module(m).unwrap();
        }
    }

    for q in queries {
        let (reference, rest) = variants.split_first_mut().unwrap();
        let rr = reference.engine.run(q);
        for v in rest.iter_mut() {
            let rv = v.engine.run(q);
            match (&rr, &rv) {
                (Ok(vr), Ok(vv)) => {
                    assert_eq!(
                        reference.engine.serialize(vr).unwrap(),
                        v.engine.serialize(vv).unwrap(),
                        "value mismatch for {q} ({} vs {})",
                        reference.label,
                        v.label
                    );
                    let (sr, sv) = (
                        reference.engine.last_stats().unwrap(),
                        v.engine.last_stats().unwrap(),
                    );
                    // Semantic statistics only — strategy counters
                    // (plan_nodes/joins/batch/idx) vary by design.
                    assert_eq!(
                        sr.snaps_closed, sv.snaps_closed,
                        "snaps_closed for {q} ({})",
                        v.label
                    );
                    assert_eq!(
                        sr.requests_emitted, sv.requests_emitted,
                        "requests_emitted for {q} ({})",
                        v.label
                    );
                    assert_eq!(
                        sr.requests_applied, sv.requests_applied,
                        "requests_applied for {q} ({})",
                        v.label
                    );
                    assert_eq!(
                        sr.max_snap_depth, sv.max_snap_depth,
                        "max_snap_depth for {q} ({})",
                        v.label
                    );
                }
                (Err(er), Err(ev)) => {
                    assert_eq!(
                        error_code(er),
                        error_code(ev),
                        "error code mismatch for {q} ({})",
                        v.label
                    );
                }
                _ => panic!(
                    "divergence for {q}: {}={rr:?} {}={rv:?}",
                    reference.label, v.label
                ),
            }
        }
    }

    // The stores must have converged to the same state: serialize every
    // loaded document from every engine.
    for (name, _) in docs {
        let reference = variants[0].engine.binding(name).unwrap().clone();
        let reference = variants[0].engine.serialize(&reference).unwrap();
        for v in &variants[1..] {
            let b = v.engine.binding(name).unwrap().clone();
            assert_eq!(
                reference,
                v.engine.serialize(&b).unwrap(),
                "final store mismatch for document {name} ({})",
                v.label
            );
        }
    }
}

#[test]
fn conformance_style_queries_agree() {
    let doc = r#"<site>
        <people>
            <person id="p0"><name>Ada</name><age>36</age></person>
            <person id="p1"><name>Grace</name><age>45</age></person>
            <person id="p2"><name>Alan</name></person>
        </people>
        <items><item ref="p1"/><item ref="p0"/><item ref="p1"/></items>
    </site>"#;
    differential(
        &[("doc", doc)],
        &[],
        &[
            "1 + 2 * 3",
            "sum(1 to 100)",
            "count($doc//person)",
            "for $p in $doc//person return string($p/name)",
            "for $p at $i in $doc//person return concat($i, \":\", string($p/name))",
            "let $adults := for $p in $doc//person where $p/age > 40 return $p \
             return count($adults)",
            "if (count($doc//item) > 2) then \"many\" else \"few\"",
            "(1, 2, (3, 4), ())",
            // A join over person ids — compiles to a hash join on the
            // compiled engine, nested loop on the interpreter.
            "for $i in $doc//item
             for $p in $doc//person
             where $i/@ref = $p/@id
             return string($p/name)",
            // Errors must agree too.
            "1 div 0",
            "$no_such_variable",
        ],
    );
}

/// `//T` evaluated as one descendant walk — fused whenever no predicate can
/// tell the desugared `descendant-or-self::node()/child::T` apart from it —
/// agrees with the per-parent reading everywhere: positional predicates
/// (which must not fuse), a numeric variable, value, existence and
/// comparison filters, aggregates over the step, attributes, and `x` nested
/// inside `x`.
#[test]
fn descendant_paths_agree() {
    let section = |k: usize| {
        format!(
            r#"<s n="{k}">
                 <x a="v"><y/><q>{q1}</q><p>1</p>
                   <x><q>1</q><p>2</p><y><x a="w"><q>9</q><y/></x></y></x>
                   <x a="v"><p>3</p></x>
                 </x>
                 <x a="w"><q>{q2}</q><p>4</p></x>
                 <z><x a="v"><q>7</q><y><y/></y></x><x/></z>
               </s>"#,
            q1 = k + 2,
            q2 = 6 - k,
        )
    };
    let doc = format!("<r>{}</r>", (0..4).map(section).collect::<String>());
    differential(
        &[("doc", &doc)],
        &[],
        &[
            "$doc//x[1]",
            "$doc//x[last()]",
            "$doc//x[position() = 2]",
            "let $n := 2 return $doc//x[$n]",
            r#"$doc//x[@a = "v"]"#,
            "$doc//x[y]",
            "$doc//x[q > 3]",
            "$doc//x[y][1]",
            "count($doc//x)",
            "count($doc//x[q > 3])",
            "sum($doc//x/p)",
            "$doc//@a",
            "$doc//x//y",
            "for $x in $doc//x[q > 3] return string($x/q)",
            "for $s in $doc/r/s return count($s//x[q > 3])",
            "for $s in $doc/r/s return $s//x[1]",
            "for $s in $doc/r/s return sum($s//x/p)",
        ],
    );
}

/// ISSUE 10: the same query answered three ways — index-selected scan,
/// batch kernel walk, plain interpretation — must be observably
/// identical, in all three snap modes, including when the updates in
/// flight move nodes between index buckets mid-run. The interpreted ×
/// index-off engine is the reference; index-on is just another strategy.
#[test]
fn index_selection_agrees_across_strategies() {
    let people: String = std::iter::once("<site>".to_string())
        .chain((0..30).map(|i| format!("<person id=\"p{i}\"><name>n{i}</name></person>")))
        .chain(std::iter::once("</site>".to_string()))
        .collect();
    for mode in ["ordered ", "nondeterministic ", "conflict-detection "] {
        let mut variants = Vec::new();
        for (label, compile, indexing) in [
            ("interpreted", false, false),
            ("batch", true, false),
            ("indexed", true, true),
        ] {
            let mut e = Engine::new().with_seed(0xd1ff);
            e.set_compile(compile);
            e.set_indexing(indexing);
            e.load_document("doc", &people).unwrap();
            e.load_document("out", "<out/>").unwrap();
            variants.push((label, e));
        }
        let queries = [
            r#"for $p in $doc/site/person[@id = "p7"] return string($p/name)"#.to_string(),
            "count($doc//person)".to_string(),
            // Move p3 to a new bucket inside a snap: maintenance runs
            // under the chosen application mode.
            format!(
                r#"snap {mode}{{
                     for $p in $doc/site/person[@id = "p3"]
                     return (replace value of {{ $p/@id }} with {{ "moved" }},
                             insert {{ <hit/> }} into {{ $out/out }}) }}"#
            ),
            r#"count($doc/site/person[@id = "p3"])"#.to_string(),
            r#"for $p in $doc//person[@id = "moved"] return string($p/name)"#.to_string(),
            r#"count($doc/site/person[@id = "no-such-id"])"#.to_string(),
            // Bare path last: compiles to a batch/index plan leaf, so
            // `last_stats` below shows the strategy counters for it.
            r#"$doc/site/person[@id = "moved"]/name"#.to_string(),
        ];
        for q in &queries {
            let mut outs = Vec::new();
            for (label, e) in &mut variants {
                let v = e
                    .run(q)
                    .unwrap_or_else(|err| panic!("{label}: {q} failed: {err}"));
                outs.push((label.to_string(), e.serialize(&v).unwrap()));
            }
            for (label, out) in &outs[1..] {
                assert_eq!(
                    out, &outs[0].1,
                    "strategy divergence for {q} ({label} vs interpreted, mode {mode})"
                );
            }
        }
        // Non-vacuity: the indexed engine really used index scans, and
        // its store still matches a from-scratch rebuild.
        let (_, indexed) = variants.last_mut().unwrap();
        let stats = indexed.last_stats().unwrap();
        assert!(
            stats.idx_scans > 0,
            "indexed variant never chose an index scan (mode {mode}): {stats:?}"
        );
        assert!(indexed.store.index_verify(), "index diverged (mode {mode})");
    }
}

/// The index cost gate weighs a step's bucket against the kernel walk
/// from *that step's* origins, pinned here by counters rather than
/// timings. Per-origin steps under small subtrees read a few nodes each,
/// so they stay on the kernels even though their name bucket is a small
/// share of the store; a value-driven child step under a wide parent
/// reads one bucket entry instead of every sibling, so it scans.
#[test]
fn index_gate_weighs_the_step_origins() {
    // Seven elements per person: the `name` bucket is 1/7 of the store.
    let mut doc = String::from("<site>");
    for i in 0..40 {
        doc.push_str(&format!(
            "<person id=\"p{i}\"><name>n{i}</name><email/><phone/>\
             <address><city>c{i}</city><zip/></address></person>"
        ));
    }
    doc.push_str("</site>");
    let mut log = String::from("<log>");
    for i in 0..1200 {
        log.push_str(&format!("<entry id=\"e{i}\"/>"));
    }
    log.push_str("</log>");
    let shapes = [
        // A child step from one origin, once per person.
        ("for $p in $doc/site/person return $p/name", false),
        // A descendant step from small subtrees.
        ("for $p in $doc/site/person return $p//name", false),
        // A value-driven child step under a 1 200-entry parent.
        (r#"$log/log/entry[@id = "e17"]"#, true),
    ];
    for mode in ["ordered ", "nondeterministic ", "conflict-detection "] {
        let mut variants = Vec::new();
        for (label, compile, indexing) in [
            ("interpreted", false, false),
            ("batch", true, false),
            ("indexed", true, true),
        ] {
            let mut e = Engine::new().with_seed(0x6a7e);
            e.set_compile(compile);
            e.set_indexing(indexing);
            e.load_document("doc", &doc).unwrap();
            e.load_document("log", &log).unwrap();
            variants.push((label, e));
        }
        for (shape, scans) in shapes {
            let q = format!("snap {mode}{{ {shape} }}");
            let mut outs = Vec::new();
            for (label, e) in &mut variants {
                let v = e
                    .run(&q)
                    .unwrap_or_else(|err| panic!("{label}: {q} failed: {err}"));
                outs.push((label.to_string(), e.serialize(&v).unwrap()));
            }
            for (label, out) in &outs[1..] {
                assert_eq!(out, &outs[0].1, "strategy divergence for {q} ({label})");
            }
            let (_, indexed) = variants.last().unwrap();
            let stats = indexed.last_stats().unwrap();
            if scans {
                assert!(stats.idx_scans >= 1, "gate refused a 1-entry bucket: {q}");
            } else {
                assert_eq!(stats.idx_scans, 0, "gate scanned per origin: {q}");
            }
        }
        assert!(variants.last().unwrap().1.store.index_verify());
    }
}

#[test]
fn updates_agree_in_all_snap_modes() {
    for mode in ["", "ordered ", "nondeterministic ", "conflict-detection "] {
        differential(
            &[("doc", "<root><log/></root>")],
            &[],
            &[
                &format!(
                    "snap {mode}{{
                       insert {{ <a/> }} into {{ $doc/root/log }},
                       insert {{ <b/> }} into {{ $doc/root/log }},
                       insert {{ <c/> }} into {{ $doc/root/log }} }}"
                ),
                "for $e in $doc/root/log/* return name($e)",
                // Nested snaps: inner commits before outer.
                &format!(
                    "snap {mode}{{
                       insert {{ <outer/> }} into {{ $doc/root/log }},
                       snap {mode}{{ insert {{ <inner/> }} into {{ $doc/root/log }} }},
                       count($doc/root/log/inner) }}"
                ),
                "count($doc/root/log/*)",
            ],
        );
    }
    // A snap in a loop body closes once per iteration, compiled or not.
    for compile in [false, true] {
        let mut e = Engine::new();
        e.set_compile(compile);
        e.load_document("log", "<log/>").unwrap();
        e.run("for $i in 1 to 40 return snap insert { <seen/> } into { $log/log }")
            .unwrap();
        let stats = e.last_stats().unwrap();
        assert_eq!(stats.snaps_closed, 41, "40 inner snaps + top level");
    }
}

/// ISSUE 14: constructor content and insert/replace sources adopt fresh
/// trees instead of copying them. Every strategy runs the same evaluator
/// for constructors, so what this row pins is that adoption composes with
/// each of them — plan nodes around `Iterate` leaves, index scans feeding
/// constructor content — in all three
/// snap modes (inserts target distinct parents, so conflict-detection
/// accepts them).
#[test]
fn constructors_agree_in_all_snap_modes() {
    let people: String = std::iter::once("<site>".to_string())
        .chain(
            (0..6).map(|i| format!("<person id=\"p{i}\"><name>n{i}</name><age>{i}</age></person>")),
        )
        .chain(std::iter::once("</site>".to_string()))
        .collect();
    for mode in ["ordered ", "nondeterministic ", "conflict-detection "] {
        differential(
            &[("doc", &people)],
            &["declare function mk($n) { <made n=\"{$n}\">{ for $i in 1 to $n return <i/> }</made> };"],
            &[
                // Returned: nested, attributes, text, atomics, copied paths.
                "for $p in $doc//person
                 return <row id=\"{$p/@id}\"><n>{ string($p/name) }</n>{ $p/age }</row>",
                "<a>{ for $i in 1 to 5 where $i mod 2 = 1 return <b n=\"{$i}\">{ $i, $i + 1 }</b> }</a>",
                "<hit>{ $doc/site/person[@id = \"p3\"]/name }</hit>",
                // Named nodes are copied, fresh ones adopted, side by side.
                "let $x := <b/> let $a := <a>{ $x, <c/>, copy { $x }, mk(2) }</a>
                 return ($a, count($a/b), $a/b[1] is $x, empty($x/..))",
                // Inserted and replaced.
                &format!(
                    "snap {mode}{{
                       for $p in $doc//person
                       return insert {{ <seen by=\"{{$p/@id}}\"><n>{{ string($p/name) }}</n></seen> }}
                              into {{ $p }} }}"
                ),
                // (`replace` is insert-after + delete of one node, which only
                // the ordered mode accepts.)
                "replace { $doc/site/person[1]/seen }
                 with { <first>{ $doc/site/person[1]/seen/n }</first> }",
                "$doc",
                // Errors raised on adopted content.
                "<a><b/>{ attribute x { 1 } }</a>",
                "<a x=\"1\">{ attribute x { 2 } }</a>",
            ],
        );
    }
}

#[test]
fn join_inside_snap_agrees() {
    let left = r#"<left><e n="l0" k="k1"/><e n="l1" k="k2"/><e n="l2" k="k1"/></left>"#;
    let right = r#"<right><e n="r0" k="k1"/><e n="r1" k="k3"/><e n="r2" k="k1"/></right>"#;
    for mode in ["", "nondeterministic ", "conflict-detection "] {
        differential(
            &[("left", left), ("right", right), ("out", "<out/>")],
            &[],
            &[&format!(
                "snap {mode}{{
                   for $l in $left/left/e
                   for $r in $right/right/e
                   where $l/@k = $r/@k
                   return insert {{ <m l=\"{{$l/@n}}\" r=\"{{$r/@n}}\"/> }} into {{ $out/out }} }}"
            )],
        );
    }
}

#[test]
fn join_inside_declared_function_agrees() {
    let left = r#"<left><e n="l0" k="k1"/><e n="l1" k="k2"/></left>"#;
    let right = r#"<right><e n="r0" k="k2"/><e n="r1" k="k1"/><e n="r2" k="k2"/></right>"#;
    differential(
        &[("left", left), ("right", right)],
        &[],
        &["declare function pairs($ls, $rs) {
               for $l in $ls/e
               for $r in $rs/e
               where $l/@k = $r/@k
               return concat(string($l/@n), \"-\", string($r/@n))
             };
             pairs($left/left, $right/right)"],
    );
}

#[test]
fn module_functions_agree() {
    differential(
        &[("log", "<log/>")],
        &[r#"
            declare variable $d := element counter { 0 };
            declare function nextid() {
              snap { replace { $d/text() } with { $d + 1 }, $d }
            };
            declare function log_call($what) {
              snap insert { <call id="{nextid()}" what="{$what}"/> } into { $log/log }
            };"#],
        &[
            "log_call(\"a\")",
            "log_call(\"b\")",
            "for $c in $log/log/call return string($c/@id)",
        ],
    );
}

#[test]
fn group_by_shape_agrees() {
    let doc = r#"<site>
        <people><person id="p0"/><person id="p1"/><person id="p2"/></people>
        <items><item ref="p0"/><item ref="p0"/><item ref="p2"/></items>
    </site>"#;
    differential(
        &[("doc", doc)],
        &[],
        &["for $p in $doc//person
             let $sold := for $i in $doc//item
                          where $i/@ref = $p/@id
                          return $i
             return <histo id=\"{$p/@id}\">{ count($sold) }</histo>"],
    );
}

/// A group whose return applies updates forms no join: the nested loop
/// reads the inner side anew for each outer item, after the snaps of the
/// items before it (the third person sees the first one's entry), which a
/// join that read it once would not.
#[test]
fn snap_in_group_return_agrees_in_all_snap_modes() {
    let doc = r#"<site><person id="p0"/><person id="p1"/><person id="p0"/></site>"#;
    for mode in ["ordered ", "nondeterministic ", "conflict-detection "] {
        differential(
            &[("doc", doc), ("log", "<log/>")],
            &[],
            &[
                &format!(
                    "for $p in $doc//person
                     let $a := for $t in $log//seen where $t/@by = $p/@id return $t
                     return (snap {mode}insert {{ <seen by=\"{{$p/@id}}\"/> }} into {{ $log/log }},
                             count($a))"
                ),
                "$log",
            ],
        );
    }
}

#[test]
fn xmark_queries_agree() {
    let scale = Scale {
        persons: 25,
        items: 20,
        closed_auctions: 15,
        open_auctions: 10,
    };
    // Same generated document on every engine via the same generator seed.
    let mut variants = matrix(99);
    for v in &mut variants {
        let doc = XmarkGen::new(17)
            .generate(&mut v.engine.store, &scale)
            .unwrap();
        v.engine.bind("auction", xqdm::seq![Item::Node(doc)]);
    }

    let queries = [
        // Q1-style lookup.
        r#"for $b in $auction/site/people/person[@id = "person0"] return string($b/name)"#,
        // Q8: purchase counts per person — the paper's join benchmark.
        r#"for $p in $auction/site/people/person
           let $a := for $t in $auction/site/closed_auctions/closed_auction
                     where $t/buyer/@person = $p/@id
                     return $t
           return <item person="{$p/name}">{ count($a) }</item>"#,
        // Q8 nested inside an updating snap.
        r#"snap {
             for $p in $auction/site/people/person
             for $t in $auction/site/closed_auctions/closed_auction
             where $t/buyer/@person = $p/@id
             return insert { <sale person="{$p/@id}"/> } into { $auction/site }
           }"#,
        "count($auction/site/sale)",
    ];
    for q in &queries {
        let (reference, rest) = variants.split_first_mut().unwrap();
        let vr = reference.engine.run(q).unwrap();
        let sref = reference.engine.serialize(&vr).unwrap();
        let stats_ref = reference.engine.last_stats().unwrap();
        for v in rest.iter_mut() {
            let vv = v.engine.run(q).unwrap();
            assert_eq!(
                sref,
                v.engine.serialize(&vv).unwrap(),
                "value mismatch for {q} ({})",
                v.label
            );
            let sv = v.engine.last_stats().unwrap();
            assert_eq!(stats_ref.snaps_closed, sv.snaps_closed, "{q} ({})", v.label);
            assert_eq!(
                stats_ref.requests_emitted, sv.requests_emitted,
                "{q} ({})",
                v.label
            );
            assert_eq!(
                stats_ref.requests_applied, sv.requests_applied,
                "{q} ({})",
                v.label
            );
        }
    }
    // Final stores must agree across the whole matrix.
    let reference = variants[0].engine.binding("auction").unwrap().clone();
    let reference = variants[0].engine.serialize(&reference).unwrap();
    for v in &variants[1..] {
        let b = v.engine.binding("auction").unwrap().clone();
        assert_eq!(
            reference,
            v.engine.serialize(&b).unwrap(),
            "final XMark store mismatch ({})",
            v.label
        );
    }
}

/// Index use is decided per scan, not at plan time: one compiled engine
/// runs the XMark texts and path-battery shapes with indexing on, then
/// off, then on again, through its one plan cache, in lockstep with an
/// interpreted reference. Every value and error equals the
/// interpreter's; no text is re-planned after the first pass; and the
/// engine takes index scans in both passes with the plane on and none in
/// the pass with it off.
#[test]
fn index_toggles_agree_with_the_interpreter_through_one_cache() {
    let scale = Scale {
        persons: 25,
        items: 20,
        closed_auctions: 15,
        open_auctions: 10,
    };
    let texts = [
        r#"for $b in $auction/site/people/person[@id = "person0"] return string($b/name)"#,
        "count(for $b in $auction/site/open_auctions/open_auction
               return <increase>{ string($b/bidder[1]/increase) }</increase>)",
        "count(for $i in $auction/site/closed_auctions/closed_auction
               where $i/price >= 40 return $i/price)",
        "count(for $b in $auction//site/regions return $b//item)",
        r#"for $p in $auction/site/people/person
           let $a := for $t in $auction/site/closed_auctions/closed_auction
                     where $t/buyer/@person = $p/@id
                     return $t
           return <item person="{ $p/name }">{ count($a) }</item>"#,
        r#"for $p in $auction//person
           for $t in $auction//closed_auction
           where $t/buyer/@person = $p/@id
           return insert { <buyer person="{$t/buyer/@person}"/> } into { $purchasers/purchasers }"#,
        "count($purchasers/purchasers/buyer)",
        "every $p in $auction//person satisfies exists($p/@id)",
        // Path-battery shapes: child, descendant and descendant-or-self
        // steps, by name and `*`, with and without a value filter, from
        // one origin and from many.
        r#"$auction//person[@id = "person3"]/name"#,
        r#"$auction//*[@id = "item2"]/name"#,
        r#"$auction/site/descendant-or-self::item[@id = "item5"]"#,
        "for $o in $auction//person return $o//name",
        "count($auction/site/regions//item/name)",
        r#"$auction/site/people/person[@id = "no-such-id"]"#,
        // An error: the interpreter's code and message.
        r#"xs:integer($auction//person[@id = "person0"]/name)"#,
    ];
    let engine = |compile: bool| {
        let mut e = Engine::new().with_seed(0x1d8);
        e.set_compile(compile);
        let doc = XmarkGen::new(17).generate(&mut e.store, &scale).unwrap();
        e.bind("auction", xqdm::seq![Item::Node(doc)]);
        e.load_document("purchasers", "<purchasers/>").unwrap();
        e
    };
    let mut reference = engine(false);
    let mut e = engine(true);
    let mut planned = None;
    for indexing in [true, false, true] {
        e.set_indexing(indexing);
        let mut scans = 0;
        for q in texts {
            let want = outcome(&mut reference, q);
            assert_eq!(outcome(&mut e, q), want, "index={indexing}: {q}");
            scans += e.last_stats().unwrap().idx_scans;
        }
        assert_eq!(scans > 0, indexing, "index={indexing}: {scans} scans");
        let misses = e.plan_cache_stats().1;
        assert_eq!(
            *planned.get_or_insert(misses),
            misses,
            "a toggle re-planned"
        );
    }
}

/// Correlated path predicates: the rewriter hoists each admitted
/// `P[L = R]` into a `let`-bound FLWOR the join compiler unnests, and
/// refuses the rest. Every row prints byte-identical output interpreted,
/// compiled over the batch kernels, and compiled over the indexes; the
/// compiled runs execute a join exactly on the unnested rows.
#[test]
fn correlated_predicates_agree_across_strategies() {
    // (query, unnested)
    let rows = [
        (
            "for $p in $auction//person
             return count($auction//closed_auction[buyer/@person = $p/@id])",
            true,
        ),
        (
            "for $p in $auction//person
             where exists($auction//closed_auction[buyer/@person = $p/@id])
             return string($p/name)",
            true,
        ),
        (
            "for $p in $auction//person
             return if (empty($auction//closed_auction[buyer/@person = $p/@id]))
                    then string($p/@id) else ()",
            true,
        ),
        // A predicate nested in a predicate, inside `P`.
        (
            "for $p in $auction//person
             return count($auction//closed_auction[itemref[starts-with(@item, \"item1\")]]
                                                  [buyer/@person = $p/@id])",
            true,
        ),
        // Two predicates in one loop.
        (
            "for $p in $auction//person
             return <n b=\"{count($auction//closed_auction[buyer/@person = $p/@id])}\"
                       s=\"{count($auction//closed_auction[seller/@person = $p/@id])}\"/>",
            true,
        ),
        // Refused: a positional predicate.
        (
            "for $p in $auction//person
             return string($auction//closed_auction[buyer/@person = $p/@id][1]/itemref/@item)",
            false,
        ),
        // Refused: a declared function in the predicate.
        (
            "declare function local:id($x) { $x/@id };
             for $p in $auction//person
             return count($auction//closed_auction[buyer/@person = local:id($p)])",
            false,
        ),
        // Refused: the right side reads the context item.
        (
            "for $p in $auction//person
             return count($auction//closed_auction[buyer/@person = concat($p/@id, .)])",
            false,
        ),
        // Refused: a predicate nested in the right side, which is then
        // no step chain from `$p`.
        (
            "for $p in $auction//person
             return count($auction//closed_auction[buyer/@person =
                          $auction//person[@id = $p/@id]/@id])",
            false,
        ),
        // Refused: a typed right side.
        (
            "for $p in $auction//person
             return count($auction//closed_auction[buyer/@person = string($p/@id)])",
            false,
        ),
        // Refused: inside an `if` branch.
        (
            "for $p in $auction//person
             return if (starts-with($p/@id, \"person1\"))
                    then count($auction//closed_auction[buyer/@person = $p/@id])
                    else -1",
            false,
        ),
    ];
    let scale = Scale {
        persons: 25,
        items: 20,
        closed_auctions: 30,
        open_auctions: 10,
    };
    let mut variants: Vec<(&str, Engine)> = [
        ("interpreted", false, false),
        ("batch", true, false),
        ("indexed", true, true),
    ]
    .into_iter()
    .map(|(label, compile, indexing)| {
        let mut e = Engine::new();
        e.set_compile(compile);
        e.set_indexing(indexing);
        let doc = XmarkGen::new(17).generate(&mut e.store, &scale).unwrap();
        e.bind("auction", xqdm::seq![Item::Node(doc)]);
        (label, e)
    })
    .collect();
    for (q, unnested) in rows {
        let mut outs = Vec::new();
        for (label, e) in &mut variants {
            let v = e.run(q).unwrap_or_else(|err| panic!("{label}: {q}: {err}"));
            outs.push(e.serialize(&v).unwrap());
            let joins = e.last_stats().unwrap().joins_executed;
            let compiled = *label != "interpreted";
            assert_eq!(joins > 0, compiled && unnested, "{label}: {q}");
        }
        assert_eq!(outs[1], outs[0], "batch vs interpreted: {q}");
        assert_eq!(outs[2], outs[0], "indexed vs interpreted: {q}");
    }
}

#[test]
fn correlated_predicates_compare_by_type_across_strategies() {
    // `=` casts an untyped side to the other side's type: "03", "3.0"
    // and " 3" equal the number 3, "1" equals true(), and "x" against a
    // number raises FORG0001. Only an untyped/untyped comparison is the
    // string equality the join's keys hash, so only that one is joined.
    let doc = r#"<d><x n="03"/><x n="3.0"/><x n=" 3"/><x n="3"/><x n="1"/>
        <y b="1"/><y b="true"/><y b="0"/><p k="3"/><p k="1"/></d>"#;
    differential(
        &[("d", doc), ("e", r#"<d><p k="x"/></d>"#)],
        &[],
        &[
            "for $p in $d//p return count($d//x[@n = $p/@k])",
            "for $p in $d//p return count($d//x[@n = $p/@k + 0])",
            "for $p in $d//p return count($d//x[$p/@k * 1 = @n])",
            "for $p in $d//p return count($d//y[@b = exists($p/@k)])",
            // Raises wherever the predicate runs, and nowhere else.
            "for $p in $e//p return count($d//x[@n = $p/@k + 0])",
            "for $p in $e//p return count($d//none[@n = $p/@k + 0])",
            "for $p in $e//none return count((1, 2)/x[@n = $p/@k])",
            // The FLWOR forms the join compiler matches directly.
            "for $p in $d//p for $t in $d//x where $t/@n = $p/@k return string($t/@n)",
            "for $p in $d//p
             let $a := for $t in $d//x where $t/@n = $p/@k + 0 return $t
             return count($a)",
            "for $v in (1, 3) for $t in $d//x where $t/@n = $v return string($t/@n)",
            "for $v in (1, 3) for $t in $d//x where $t/@n = $v/@k return 1",
            "for $v in (1, 3) for $t in $d//none where $t/@n = $v/@k return 1",
            "for $p in $d//none for $t in (1, 3) where $t/@n = $p/@k return 1",
        ],
    );
}

#[test]
fn compiled_engine_counts_joins_and_plan_nodes() {
    let mut e = Engine::new();
    e.load_document(
        "doc",
        r#"<site>
            <people><person id="p0"/><person id="p1"/></people>
            <items><item ref="p0"/><item ref="p1"/><item ref="p0"/></items>
        </site>"#,
    )
    .unwrap();
    e.run(
        "for $i in $doc//item
         for $p in $doc//person
         where $i/@ref = $p/@id
         return $p",
    )
    .unwrap();
    let stats = e.last_stats().unwrap();
    assert!(stats.joins_executed > 0, "expected a hash join: {stats:?}");
    assert!(stats.plan_nodes_executed > 0);

    // Interpreted engine: no plans, no joins.
    let mut i = Engine::new();
    i.set_compile(false);
    i.load_document("doc", "<x/>").unwrap();
    i.run("count($doc/x)").unwrap();
    let stats = i.last_stats().unwrap();
    assert_eq!(stats.plan_nodes_executed, 0);
    assert_eq!(stats.joins_executed, 0);
}

#[test]
fn plan_cache_hits_on_repeated_queries() {
    let mut e = Engine::new();
    e.load_document("doc", "<root/>").unwrap();
    for _ in 0..3 {
        e.run("count($doc/root)").unwrap();
    }
    let (hits, misses) = e.plan_cache_stats();
    assert_eq!(misses, 1, "same program text should compile once");
    assert_eq!(hits, 2);
    // A different query misses.
    e.run("1 + 1").unwrap();
    let (_, misses) = e.plan_cache_stats();
    assert_eq!(misses, 2);
    // Loading a module changes the augmented program => new cache entry.
    e.load_module("declare function f() { 1 };").unwrap();
    e.run("count($doc/root)").unwrap();
    let (_, misses) = e.plan_cache_stats();
    assert_eq!(misses, 3, "module load must invalidate by fingerprint");
}

#[test]
fn explain_shows_joins_everywhere() {
    let e = Engine::new();
    // Top level.
    let plan = e
        .explain(
            "for $l in $ls/e for $r in $rs/e
             where $l/@k = $r/@k return $r",
        )
        .unwrap();
    assert!(plan.contains("Join"), "top-level join missing:\n{plan}");
    // Inside a snap body.
    let plan = e
        .explain(
            "snap nondeterministic {
               for $l in $ls/e for $r in $rs/e
               where $l/@k = $r/@k
               return insert { <m/> } into { $out } }",
        )
        .unwrap();
    assert!(
        plan.contains("Snap(nondeterministic)") && plan.contains("Join"),
        "snap-nested join missing:\n{plan}"
    );
    // Inside a declared function.
    let plan = e
        .explain(
            "declare function pairs($ls, $rs) {
               for $l in $ls/e for $r in $rs/e
               where $l/@k = $r/@k return $r
             };
             pairs($a, $b)",
        )
        .unwrap();
    assert!(
        plan.contains("declare function pairs") && plan.contains("Join"),
        "function-body join missing:\n{plan}"
    );
    // xqb:explain surfaces the same plan from inside the language.
    let mut e = Engine::new();
    let r = e
        .run(r#"xqb:explain("for $l in $ls/e for $r in $rs/e where $l/@k = $r/@k return $r")"#)
        .unwrap();
    assert!(e.serialize(&r).unwrap().contains("Join"));
}

#[test]
fn interpret_escape_hatch_still_correct() {
    let mut e = Engine::new();
    e.set_compile(false);
    e.load_document("doc", "<x/>").unwrap();
    e.run("snap insert { <y/> } into { $doc/x }").unwrap();
    let r = e.run("count($doc/x/y)").unwrap();
    assert_eq!(e.serialize(&r).unwrap(), "1");
    let (hits, misses) = e.plan_cache_stats();
    assert_eq!((hits, misses), (0, 0), "interpreter must not touch cache");
}

/// Shadowed and captured variables: each row once gave the wrong answer
/// on the compiled path (let-inlining substituted under a binder that
/// rebinds the value's variable, or ignored `order by`'s own variable).
#[test]
fn shadowed_and_captured_variables_agree() {
    let rows = [
        (
            "let $x := 5 return ($x, for $x in (3,1,2) order by $x return $x)",
            "5 1 2 3",
        ),
        (
            "let $y := 1 return let $x := $y return (for $y in (7,8) return $x)",
            "1 1",
        ),
        (
            "for $y in (1,2) return let $x := $y * 10 return (for $y in (7,8) return $x)",
            "10 10 20 20",
        ),
        (
            "let $y := 1 return let $x := $y return (some $y in (7,8) satisfies $x = 1)",
            "true",
        ),
        (
            "let $y := 1 return let $x := $y return (for $z at $y in (7,8) return $x)",
            "1 1",
        ),
    ];
    let queries: Vec<&str> = rows.iter().map(|&(q, _)| q).collect();
    differential(&[], &[], &queries);
    for compile in [false, true] {
        let mut e = Engine::new();
        e.set_compile(compile);
        for (q, want) in rows {
            let r = e.run(q).unwrap();
            assert_eq!(e.serialize(&r).unwrap(), want, "{q} (compile={compile})");
        }
    }
}

/// A call is built-in only at an arity its row allows; at any other arity
/// the declared function of that name is called. A declared `exists#2`
/// is then not the boolean built-in: its numeric value is a position
/// test, which the `//` fusion must not evaluate over one walk (`1`).
#[test]
fn declared_functions_take_the_arities_no_row_has() {
    let doc = "<r><a><x/><x/></a><b><x/></b></r>";
    let rows = [
        (
            "declare function count($a, $b, $c) { $a + $b + $c }; count(1, 2, 3)",
            "6",
        ),
        (
            "declare function exists($a, $b) { 1 }; count($doc//x[exists(1, 2)])",
            "2",
        ),
    ];
    let queries: Vec<&str> = rows.iter().map(|&(q, _)| q).collect();
    differential(&[("doc", doc)], &[], &queries);
    // `differential` holds every strategy to the reference; pin its value.
    let mut e = Engine::new();
    e.set_compile(false);
    e.load_document("doc", doc).unwrap();
    for (q, want) in rows {
        let r = e.run(q).unwrap();
        assert_eq!(e.serialize(&r).unwrap(), want, "{q}");
    }
}

// ---------------------------------------------------------------------------
// Generated builtin battery
// ---------------------------------------------------------------------------

/// The builtin battery's pinned generator key: changing it changes every
/// argument list.
const BUILTIN_SEED: &str = "builtin_battery/v1";
/// Most arguments a call to a variadic built-in (`concat`) gets.
const VARIADIC_CAP: usize = 4;
/// The typed argument pool: integers, strings, the empty sequence and a
/// node path. No argument raises an error of its own.
const ARGUMENTS: &[&str] = &["1", "7", "\"a\"", "\"b c\"", "()", "$doc//x"];
/// The document the node path reads.
const BUILTIN_DOC: &str = "<r><a><x>1</x><x>2</x></a><b><x>3</x></b></r>";

/// One call per row of `functions::BUILTINS` at each arity from one below
/// its fewest to one above its most arguments, arguments drawn from
/// [`ARGUMENTS`]. `xqb:panic` panics by design and is left out; an
/// opaque row's value may read state outside the store (`xqb:stats`), so
/// only its count is compared.
fn builtin_battery() -> Vec<String> {
    let mut rng = TestRng::for_case(BUILTIN_SEED, 0);
    let mut programs = Vec::new();
    for f in BUILTINS.iter().filter(|f| f.kind != Kind::Panic) {
        let top = if f.max == MANY {
            VARIADIC_CAP
        } else {
            f.max + 1
        };
        for arity in f.min.saturating_sub(1)..=top {
            let args: Vec<&str> = (0..arity)
                .map(|_| ARGUMENTS[rng.below(ARGUMENTS.len())])
                .collect();
            let call = format!("{}({})", f.name, args.join(", "));
            programs.push(if f.kind == Kind::Opaque {
                format!("count({call})")
            } else {
                call
            });
        }
    }
    programs
}

#[test]
fn generated_builtin_calls_agree_across_strategies() {
    let programs = builtin_battery();
    let queries: Vec<&str> = programs.iter().map(String::as_str).collect();
    differential(&[("doc", BUILTIN_DOC)], &[], &queries);
}

/// The document the `Call` / `Pred` rows read: nested `x`s with numeric
/// and non-numeric `q`s, `item`s with quantities, and names.
fn call_rows_doc() -> String {
    let section = |k: usize| {
        format!(
            r#"<s n="{k}">
                 <x a="v"><q>{q1}</q><p>1</p>
                   <x><q>1</q><p>2</p><y><x a="w"><q>bad{k}</q></x></y></x>
                 </x>
                 <x a="w"><q>{q2}</q><p>4</p></x>
                 <item><quantity>{k}</quantity><name>i{k}</name></item>
                 <item><quantity>{q1}</quantity><name>j{k}</name></item>
               </s>"#,
            q1 = k + 2,
            q2 = 6 - k,
        )
    };
    format!("<r>{}</r>", (0..4).map(section).collect::<String>())
}

/// The outcome a variant shows for one query: the serialized value, or the
/// error's code *and* message — the message names the value a cast
/// refused, so it pins which candidate a predicate failed on first.
fn outcome(e: &mut Engine, q: &str) -> String {
    match e.run(q) {
        Ok(v) => e.serialize(&v).unwrap(),
        Err(Error::Eval(x)) => format!("error {x}"),
        Err(other) => format!("error {}", error_code(&other)),
    }
}

/// Built-in calls over batched paths (`Call` rule nodes) and predicates
/// evaluated per candidate (`BatchFilter::Pred`) answer as the interpreter
/// does: compiled and interpreted, index on and off, in all three snap
/// modes — values, error codes and which candidate raised first. Every
/// arity-1 `Read` built-in is called over a batchable path; positional
/// predicates stay interpreted.
#[test]
fn builtin_calls_and_predicates_agree_across_strategies() {
    let doc = call_rows_doc();
    let bad = "<r><item><quantity>2</quantity></item><item><quantity>lots</quantity></item></r>";
    // Filler enough that the index gate reads the three-entry `x` bucket.
    let origins = format!(
        "<r><s><x><p>1</p><q>bad-q0</q></x></s><s><x><p>bad-p1</p><q>1</q></x></s>{}</r>",
        "<f/>".repeat(200)
    );
    // (query, the compiled plan runs a `Call`)
    let mut rows: Vec<(String, bool)> = BUILTINS
        .iter()
        .filter(|f| f.kind == Kind::Read && (f.min..=f.max).contains(&1))
        .flat_map(|f| {
            ["$doc//x[q > 3]/p", "$doc/r/s[1]/@n", "$doc//none"]
                .map(|path| (format!("{}({path})", f.name), true))
        })
        .collect();
    let fixed: &[(&str, bool)] = &[
        // Nested calls.
        (
            "for $x in $doc//x return concat(string($x/@a), \":\", count($x/q))",
            true,
        ),
        (
            "string-join(for $i in $doc//item return string($i/name), \",\")",
            true,
        ),
        (
            "concat(sum($doc//item/quantity), \"/\", count($doc//x[p]))",
            true,
        ),
        // A predicate reading a variable, bound by `let` and by `for`.
        ("let $n := 3 return count($doc//x[q > $n])", true),
        (
            "for $k in (1, 4) return count($doc//item[quantity > $k])",
            true,
        ),
        // Predicates calling `error()`: raised wherever a candidate
        // reaches it, and nowhere else.
        ("count($doc//x[@a = \"v\" or error()])", true),
        ("count($doc//none[boolean(error())])", true),
        ("count($doc//item[quantity > 3 or error(\"never\")])", true),
        // A typed right side.
        ("count($doc//item[quantity + 0 > 3])", true),
        ("count($doc//x[q * 1 = 4])", true),
        // Over a constructed fragment.
        (
            "count(<a><item><quantity>5</quantity></item><item/></a>//item[quantity > 3])",
            true,
        ),
        // The first candidate to fail decides the message: one origin,
        // several origins, nested origins.
        ("count($doc//x[xs:integer(q) > 0])", true),
        ("count($doc/r/s//x[xs:integer(q) > 0])", true),
        ("count($doc//x//x[xs:integer(q) > 0])", true),
        ("count($doc//x[p][xs:integer(q) > 0])", true),
        ("count(($doc/r/s[2], 1)//x[xs:integer(q) > 0])", true),
        // Two predicates that can both fail, from two origins: the
        // interpreter runs both over the first origin's candidates
        // before the second origin's.
        (
            "count($o/r/s//x[xs:integer(p) > 0][xs:integer(q) > 0])",
            true,
        ),
        // A node inserted ahead of the others joins its name bucket last;
        // the predicate still meets it first.
        (
            "insert { <x><p>1</p><q>bad-first</q></x> } as first into { $o/r }",
            false,
        ),
        ("count($o//x[xs:integer(q) > 0])", true),
        // Error-code parity of the built-in itself.
        ("sum($doc//item/name)", true),
        ("sum($bad//item/quantity)", true),
        ("count($bad//item[quantity > 3])", true),
        ("avg($doc//x/q)", true),
        // Positional predicates stay interpreted.
        ("count($doc//x[1])", false),
        ("count($doc//x[last()])", false),
        ("$doc//x[position() = 2]/p", false),
    ];
    rows.extend(fixed.iter().map(|&(q, call)| (q.to_string(), call)));
    for mode in ["ordered ", "nondeterministic ", "conflict-detection "] {
        let mut variants: Vec<(String, Engine)> = Vec::new();
        for compile in [false, true] {
            for indexing in [false, true] {
                let mut e = Engine::new().with_seed(0xca11);
                e.set_compile(compile);
                e.set_indexing(indexing);
                e.load_document("doc", &doc).unwrap();
                e.load_document("bad", bad).unwrap();
                e.load_document("o", &origins).unwrap();
                let label = format!("compile={compile} index={indexing}");
                variants.push((label, e));
            }
        }
        for (q, call) in &rows {
            let wrapped = format!("snap {mode}{{ {q} }}");
            let (reference, rest) = variants.split_first_mut().unwrap();
            let expected = outcome(&mut reference.1, &wrapped);
            for (label, e) in rest.iter_mut() {
                assert_eq!(outcome(e, &wrapped), expected, "{label}: {wrapped}");
            }
            let plan = variants[3].1.explain(&wrapped).unwrap();
            assert_eq!(plan.contains("Call "), *call, "{wrapped}:\n{plan}");
        }
    }
}

/// `Engine::check` reports `XPST0017` exactly when the interpreter raises
/// it, on every call of the battery.
#[test]
fn checker_and_interpreter_agree_on_builtin_arity() {
    let mut e = Engine::new();
    e.set_compile(false);
    e.load_document("doc", BUILTIN_DOC).unwrap();
    let (mut rejected, mut accepted) = (0, 0);
    for q in builtin_battery() {
        let checked = e.check(&q).unwrap().iter().any(|d| d.code == "XPST0017");
        let raised = matches!(e.run(&q), Err(Error::Eval(x)) if x.code == "XPST0017");
        assert_eq!(checked, raised, "checker and interpreter disagree on {q}");
        *if raised { &mut rejected } else { &mut accepted } += 1;
    }
    assert!(
        rejected > 0 && accepted > 0,
        "{rejected} calls rejected, {accepted} accepted"
    );
}

// ---------------------------------------------------------------------------
// Generated binder battery
// ---------------------------------------------------------------------------

/// The binder battery's pinned generator key: changing it changes every
/// case.
const BINDER_SEED: &str = "binder_battery/v1";
/// Generated programs per battery run.
const BINDER_CASES: u32 = 300;

/// A random program of nested `let`, `for`, `for … at`, `some`, `every`
/// and `for … order by` over integer leaves, `+` and sequences. Binders
/// draw their names from a pool of two (three with `$z` planted), so
/// variables shadow one another and a `let` value often mentions a name
/// its body rebinds. Every source is non-empty and every program is
/// well-typed, so each sub-expression is evaluated at least once: the
/// only error a program can raise is a planted `$z` read out of scope
/// (`XPST0008`).
struct BinderGen {
    rng: TestRng,
    names: &'static [&'static str],
    /// Leaves may read `$z`, bound or not.
    plant: bool,
    /// Variables in scope, innermost last; `true` when bound to one
    /// integer, `false` when bound to a sequence.
    scope: Vec<(&'static str, bool)>,
}

impl BinderGen {
    fn program(case: u32, plant: bool) -> String {
        let mut g = BinderGen {
            rng: TestRng::for_case(BINDER_SEED, case + u32::from(plant) * BINDER_CASES),
            names: if plant { &["x", "y", "z"] } else { &["x", "y"] },
            plant,
            scope: Vec::new(),
        };
        g.seq(5)
    }

    fn name(&mut self) -> &'static str {
        self.names[self.rng.below(self.names.len())]
    }

    /// Is the innermost binding of `name` one integer?
    fn single(&self, name: &str) -> Option<bool> {
        self.scope
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .map(|&(_, single)| single)
    }

    /// An expression yielding exactly one integer.
    fn int(&mut self, depth: u32) -> String {
        if self.plant && self.rng.below(10) == 0 {
            return "$z".into();
        }
        if depth == 0 || self.rng.below(3) == 0 {
            let vars: Vec<&str> = self
                .names
                .iter()
                .copied()
                .filter(|n| self.single(n) == Some(true))
                .collect();
            return if !vars.is_empty() && self.rng.below(3) > 0 {
                format!("${}", vars[self.rng.below(vars.len())])
            } else {
                self.rng.below(10).to_string()
            };
        }
        match self.rng.below(3) {
            0 => format!("({} + {})", self.int(depth - 1), self.int(depth - 1)),
            1 => self.bind_let(depth, false),
            _ => self.quantified(depth),
        }
    }

    /// An expression yielding a non-empty sequence of integers.
    fn seq(&mut self, depth: u32) -> String {
        if depth == 0 || self.rng.below(5) == 0 {
            let vars: Vec<&str> = self
                .names
                .iter()
                .copied()
                .filter(|n| self.single(n).is_some())
                .collect();
            return match self.rng.below(3) {
                0 if !vars.is_empty() => format!("${}", vars[self.rng.below(vars.len())]),
                0 | 1 => format!("({}, {})", self.int(0), self.int(0)),
                _ => self.int(0),
            };
        }
        match self.rng.below(4) {
            0 => format!("({}, {})", self.any(depth - 1), self.any(depth - 1)),
            1 => self.bind_let(depth, true),
            _ => self.bind_for(depth),
        }
    }

    fn any(&mut self, depth: u32) -> String {
        if self.rng.below(2) == 0 {
            self.int(depth)
        } else {
            self.seq(depth)
        }
    }

    /// `let $v := … return body`. Half the values are a leaf, mostly a
    /// variable, and half the bodies open with a binder: the shape where a
    /// body binder can capture the value's variable. A `$z` is always
    /// bound to one integer, so a planted `$z` in scope never raises a
    /// type error.
    fn bind_let(&mut self, depth: u32, seq_body: bool) -> String {
        let v = self.name();
        let (single, value) = match self.rng.below(4) {
            0 | 1 => (true, self.int(0)),
            2 => (true, self.int(depth - 1)),
            _ if v == "z" => (true, self.int(depth - 1)),
            _ => (false, self.seq(depth - 1)),
        };
        self.scope.push((v, single));
        let body = match (self.rng.below(2), seq_body) {
            (0, true) => self.bind_for(depth),
            (0, false) => self.quantified(depth),
            (_, true) => self.seq(depth - 1),
            (_, false) => self.int(depth - 1),
        };
        self.scope.pop();
        format!("(let ${v} := {value} return {body})")
    }

    /// `for $v in …`, `for $v at $p in …` or `for $v in … order by …`.
    fn bind_for(&mut self, depth: u32) -> String {
        let v = self.name();
        let source = self.seq(depth - 1);
        let outer = self.scope.len();
        self.scope.push((v, true));
        let mut text = format!("for ${v}");
        match self.rng.below(3) {
            0 => {
                let p = loop {
                    let p = self.name();
                    if p != v {
                        break p;
                    }
                };
                self.scope.push((p, true));
                text += &format!(" at ${p} in {source}");
            }
            1 => {
                text += &format!(" in {source} order by ");
                for k in 0..1 + self.rng.below(2) {
                    if k > 0 {
                        text += ", ";
                    }
                    text += &self.int(depth - 1);
                    if self.rng.below(2) == 0 {
                        text += " descending";
                    }
                }
            }
            _ => text += &format!(" in {source}"),
        }
        let body = self.any(depth - 1);
        self.scope.truncate(outer);
        format!("({text} return {body})")
    }

    /// `some`/`every`, turned into one integer.
    fn quantified(&mut self, depth: u32) -> String {
        let q = if self.rng.below(2) == 0 {
            "some"
        } else {
            "every"
        };
        let v = self.name();
        let source = self.seq(depth - 1);
        self.scope.push((v, true));
        let (l, r) = (self.int(depth - 1), self.int(depth - 1));
        self.scope.pop();
        format!("(if ({q} ${v} in {source} satisfies {l} = {r}) then 1 else 0)")
    }
}

#[test]
fn generated_binders_agree_across_strategies() {
    let programs: Vec<String> = (0..BINDER_CASES)
        .map(|case| BinderGen::program(case, false))
        .collect();
    let queries: Vec<&str> = programs.iter().map(String::as_str).collect();
    differential(&[], &[], &queries);
}

/// `Engine::check` reports `XPST0008` exactly when the interpreter raises
/// it, on the battery's programs and on programs with `$z` planted in
/// and out of scope.
#[test]
fn checker_and_interpreter_agree_on_scope() {
    let mut e = Engine::new();
    e.set_compile(false);
    let (mut out_of_scope, mut in_scope) = (0, 0);
    for plant in [false, true] {
        for case in 0..BINDER_CASES {
            let q = BinderGen::program(case, plant);
            let checked = e.check(&q).unwrap().iter().any(|d| d.code == "XPST0008");
            let raised = matches!(e.run(&q), Err(Error::Eval(x)) if x.code == "XPST0008");
            assert_eq!(checked, raised, "checker and interpreter disagree on {q}");
            if plant && q.contains("$z") {
                *if raised {
                    &mut out_of_scope
                } else {
                    &mut in_scope
                } += 1;
            }
        }
    }
    assert!(
        out_of_scope > 0 && in_scope > 0,
        "planted $z: {out_of_scope} out of scope, {in_scope} in scope"
    );
}

// ---------------------------------------------------------------------------
// Property-based differential testing over join-shaped programs
// ---------------------------------------------------------------------------

/// Key list per side; `None` = element without the key attribute.
#[derive(Debug, Clone)]
struct SideSpec {
    keys: Vec<Option<u8>>,
}

fn side_strategy(max: usize) -> impl Strategy<Value = SideSpec> {
    proptest::collection::vec(proptest::option::of(0u8..5), 0..max)
        .prop_map(|keys| SideSpec { keys })
}

fn side_xml(name: &str, spec: &SideSpec) -> String {
    let mut s = format!("<{name}>");
    for (i, k) in spec.keys.iter().enumerate() {
        match k {
            Some(k) => s.push_str(&format!(r#"<e n="{name}{i}" k="k{k}"/>"#)),
            None => s.push_str(&format!(r#"<e n="{name}{i}"/>"#)),
        }
    }
    s.push_str(&format!("</{name}>"));
    s
}

fn prop_differential(
    left: &SideSpec,
    right: &SideSpec,
    query: &str,
    expect_join: bool,
) -> Result<(), TestCaseError> {
    let docs = [
        ("left".to_string(), side_xml("left", left)),
        ("right".to_string(), side_xml("right", right)),
        ("out".to_string(), "<out/>".to_string()),
    ];
    let mut compiled = Engine::new().with_seed(7);
    let mut interpreted = Engine::new().with_seed(7);
    interpreted.set_compile(false);
    for (n, x) in &docs {
        compiled.load_document(n, x).unwrap();
        interpreted.load_document(n, x).unwrap();
    }
    let vc = compiled.run(query).expect("compiled run");
    let vi = interpreted.run(query).expect("interpreted run");
    prop_assert_eq!(
        compiled.serialize(&vc).unwrap(),
        interpreted.serialize(&vi).unwrap(),
        "value mismatch"
    );
    for (n, _) in &docs {
        let bc = compiled.binding(n).unwrap().clone();
        let bi = interpreted.binding(n).unwrap().clone();
        prop_assert_eq!(
            compiled.serialize(&bc).unwrap(),
            interpreted.serialize(&bi).unwrap(),
            "store mismatch"
        );
    }
    let (sc, si) = (
        compiled.last_stats().unwrap(),
        interpreted.last_stats().unwrap(),
    );
    prop_assert_eq!(sc.snaps_closed, si.snaps_closed);
    prop_assert_eq!(sc.requests_emitted, si.requests_emitted);
    prop_assert_eq!(sc.requests_applied, si.requests_applied);
    if expect_join {
        prop_assert!(
            sc.joins_executed > 0,
            "compiled engine fell back to interpretation"
        );
    }
    prop_assert_eq!(si.joins_executed, 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_pure_joins_differential(
        left in side_strategy(10),
        right in side_strategy(10),
    ) {
        prop_differential(
            &left,
            &right,
            r#"for $l in $left/left/e
               for $r in $right/right/e
               where $l/@k = $r/@k
               return <m l="{$l/@n}" r="{$r/@n}"/>"#,
            true,
        )?;
    }

    #[test]
    fn random_updating_joins_in_snap_differential(
        left in side_strategy(8),
        right in side_strategy(8),
    ) {
        prop_differential(
            &left,
            &right,
            r#"snap {
                 for $l in $left/left/e
                 for $r in $right/right/e
                 where $l/@k = $r/@k
                 return insert { <m l="{$l/@n}" r="{$r/@n}"/> } into { $out/out }
               }"#,
            true,
        )?;
    }

    #[test]
    fn random_group_by_differential(
        left in side_strategy(8),
        right in side_strategy(8),
    ) {
        prop_differential(
            &left,
            &right,
            // `$g` is used twice so the simplifier cannot inline the
            // `let` away — the outer-join + group-by shape survives to
            // plan recognition.
            r#"for $l in $left/left/e
               let $g := for $r in $right/right/e
                         where $l/@k = $r/@k
                         return $r
               return <grp l="{$l/@n}" n="{count($g)}">{ $g }</grp>"#,
            true,
        )?;
    }
}
