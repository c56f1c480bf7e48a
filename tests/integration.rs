//! Cross-crate integration: XML text → parser → store → query →
//! optimizer → updates → serialization, on XMark-shaped data.

use xquery_bang::xmarkgen::{Scale, XmarkGen};
use xquery_bang::xqalg::{compile_program, run_naive, Compiler};
use xquery_bang::{Engine, Item};

/// Full pipeline: generate XMark as *text*, parse it through the XML
/// parser, and query it through the engine.
#[test]
fn xml_text_to_query_results() {
    let scale = Scale {
        persons: 12,
        items: 9,
        closed_auctions: 7,
        open_auctions: 4,
    };
    let xml = XmarkGen::new(99).generate_xml(&scale).unwrap();
    let mut engine = Engine::new();
    engine.load_document("auction", &xml).unwrap();
    let r = engine.run("count($auction//person)").unwrap();
    assert_eq!(engine.serialize(&r).unwrap(), "12");
    let r = engine.run("count($auction//closed_auction/buyer)").unwrap();
    assert_eq!(engine.serialize(&r).unwrap(), "7");
    // Every buyer reference joins to exactly one person.
    let r = engine
        .run(
            "count(for $t in $auction//closed_auction
             return $auction//person[@id = $t/buyer/@person])",
        )
        .unwrap();
    assert_eq!(engine.serialize(&r).unwrap(), "7");
}

/// The complete paper §2 story on one engine: logging inserts from inside
/// a function, snap-driven archiving, counter ids — then verify the final
/// store state is exactly right.
#[test]
fn full_webservice_scenario() {
    let mut engine = Engine::new();
    let scale = Scale::tiny();
    let auction = XmarkGen::new(5)
        .generate(&mut engine.store, &scale)
        .unwrap();
    engine.bind("auction", xqdm::seq![Item::Node(auction)]);
    engine.load_document("log", "<log/>").unwrap();
    let counter =
        xquery_bang::xqdm::xml::parse_fragment(&mut engine.store, "<counter>0</counter>").unwrap();
    engine.bind("d", xqdm::seq![Item::Node(counter[0])]);

    let module = r#"
declare function nextid() {
  snap { replace { $d/text() } with { $d + 1 }, $d }
};
declare function get_item($itemid, $userid) {
  let $item := $auction//item[@id = $itemid]
  return (
    let $name := $auction//person[@id = $userid]/name return
    insert { <logentry id="{nextid()}" user="{$name}" itemid="{$itemid}"/> }
    into { $log/log },
    $item
  )
};
"#;
    for i in 0..5 {
        let q = format!("{module} get_item(\"item{}\", \"person{}\")", i % 3, i % 2);
        let r = engine.run(&q).unwrap();
        assert_eq!(r.len(), 1, "call {i} should return the item");
    }
    // Five log entries with counter-issued ids 1..=5.
    let ids = engine
        .run("for $e in $log/log/logentry return string($e/@id)")
        .unwrap();
    assert_eq!(engine.serialize(&ids).unwrap(), "1 2 3 4 5");
    // The counter survived across calls.
    let c = engine.run("string($d)").unwrap();
    assert_eq!(engine.serialize(&c).unwrap(), "5");
}

/// Optimizer + evaluator agree on the full §4.3 pipeline at a nontrivial
/// scale, and the speedup direction is right.
#[test]
fn q8_naive_and_optimized_agree_and_optimized_wins() {
    let q = r#"
for $p in $auction//person
let $a :=
  for $t in $auction//closed_auction
  where $t/buyer/@person = $p/@id
  return (insert { <buyer person="{$t/buyer/@person}"/> } into { $purchasers }, $t)
return <item person="{ $p/name }">{ count($a) }</item>"#;
    let program = xquery_bang::xqsyn::compile(q).unwrap();
    assert!(Compiler::new(&program)
        .compile(&program.body)
        .is_optimized());

    let scale = Scale::join_sides(120, 60);
    let setup = || {
        let mut store = xquery_bang::Store::new();
        let auction = XmarkGen::new(31).generate(&mut store, &scale).unwrap();
        let purchasers = store.new_element(xquery_bang::xqdm::QName::local("purchasers"));
        let bindings = vec![
            ("auction".to_string(), xqdm::seq![Item::Node(auction)]),
            ("purchasers".to_string(), xqdm::seq![Item::Node(purchasers)]),
        ];
        (store, bindings, purchasers)
    };

    let (mut s1, b1, p1) = setup();
    let t = std::time::Instant::now();
    let v1 = run_naive(&program, &mut s1, &b1, 0).unwrap();
    let naive_time = t.elapsed();

    let (mut s2, b2, p2) = setup();
    let t = std::time::Instant::now();
    let planned = compile_program(&program);
    let v2 = xqexp::run_planned(&planned, &program, &mut s2, &b2);
    let opt_time = t.elapsed();

    assert!(planned.is_optimized());
    assert_eq!(v1.len(), v2.len());
    assert_eq!(
        xquery_bang::xqdm::xml::serialize(&s1, p1).unwrap(),
        xquery_bang::xqdm::xml::serialize(&s2, p2).unwrap()
    );
    // Not a benchmark, but at 120×60 the asymptotic gap is already far
    // beyond noise (debug builds included).
    assert!(
        opt_time < naive_time,
        "optimized ({opt_time:?}) should beat naive ({naive_time:?})"
    );
}

/// Nested snaps across function boundaries: the §2.5 counter called from a
/// loop that itself runs under an outer snap.
#[test]
fn counter_under_outer_snap() {
    let mut engine = Engine::new();
    engine.load_document("out", "<out/>").unwrap();
    let counter =
        xquery_bang::xqdm::xml::parse_fragment(&mut engine.store, "<counter>0</counter>").unwrap();
    engine.bind("d", xqdm::seq![Item::Node(counter[0])]);
    let q = r#"
declare function nextid() {
  snap { replace { $d/text() } with { $d + 1 }, $d }
};
snap { for $i in 1 to 4 return
       insert { <e id="{nextid()}"/> } into { $out/out } }"#;
    engine.run(q).unwrap();
    let ids = engine
        .run("for $e in $out/out/e return string($e/@id)")
        .unwrap();
    // The inner snap (nextid) applies immediately even while the outer
    // snap is still collecting the inserts.
    assert_eq!(engine.serialize(&ids).unwrap(), "1 2 3 4");
}

/// Store-level garbage accounting visible through the language: deleting
/// detaches, the data stays alive while referenced, and collect_garbage
/// reclaims it once unreferenced.
#[test]
fn detach_then_collect_garbage() {
    let mut engine = Engine::new();
    let doc = engine
        .load_document("doc", "<r><big><a/><b/><c/></big><keep/></r>")
        .unwrap();
    engine.run("snap delete ($doc/r/big)").unwrap();
    let stats = engine.store.stats(&[doc]).unwrap();
    assert_eq!(stats.garbage, 4); // big + 3 children
    let reclaimed = engine.store.collect_garbage(&[doc]).unwrap();
    assert_eq!(reclaimed, 4);
    let r = engine.run("count($doc//*)").unwrap();
    assert_eq!(engine.serialize(&r).unwrap(), "2"); // r, keep
}

/// The effect lattice drives the optimizer across crates: a seemingly pure
/// query calling an updating function is not rewritten.
#[test]
fn effect_analysis_blocks_rewrites_through_functions() {
    let q = r#"
declare function audit($t) { snap insert { <seen/> } into { $trail } };
for $p in $auction//person
for $t in $auction//closed_auction
where $t/buyer/@person = $p/@id
return audit($t)"#;
    let program = xquery_bang::xqsyn::compile(q).unwrap();
    let compiler = Compiler::new(&program);
    assert!(!compiler.compile(&program.body).is_optimized());
    assert_eq!(
        compiler.analysis().function_effect("audit", 1),
        Some(xquery_bang::xqcore::Effect::Effectful)
    );
}

#[test]
fn explain_builtin_is_engine_explain() {
    // `xqb:explain` prints what `Engine::explain` prints on the engine
    // running it: module functions linked in, `,idx` hints when the store
    // has its index plane.
    let mut e = Engine::new();
    e.load_document(
        "doc",
        r#"<r><ls><e k="1"/><e k="2"/></ls><rs><e k="2"/></rs></r>"#,
    )
    .unwrap();
    e.load_module(
        "declare function f() {
           for $l in $doc/r/ls/e for $r in $doc/r/rs/e
           where $l/@k = $r/@k return $r
         };",
    )
    .unwrap();
    let direct = e.explain("f()").unwrap();
    assert!(direct.contains("declare function f") && direct.contains("Join"));
    assert!(direct.contains(",idx"), "{direct}");
    let r = e.run(r#"xqb:explain("f()")"#).unwrap();
    assert_eq!(e.serialize(&r).unwrap(), direct);
}
