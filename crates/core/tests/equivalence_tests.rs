//! Plan equivalence: the optimized join plans must produce exactly the
//! same value sequence AND exactly the same final store as the naive
//! nested-loop evaluation — including the order of pending updates (we run
//! under the default ordered snap semantics, the strictest case).

mod common;

use common::run_compiled;
use xmarkgen::{Scale, XmarkGen};
use xqcore::alg::{run_naive, Compiler};
use xqdm::item::{Item, Sequence};
use xqdm::{NodeId, Store};
use xqsyn::CoreProgram;

/// Build an XMark store + a purchasers document; returns (store, bindings).
fn setup(seed: u64, scale: &Scale) -> (Store, Vec<(String, Sequence)>, NodeId) {
    let mut store = Store::new();
    let auction = XmarkGen::new(seed).generate(&mut store, scale).unwrap();
    let purchasers = xqdm::xml::parse_document(&mut store, "<purchasers/>").unwrap();
    let bindings = vec![
        ("auction".to_string(), xqdm::seq![Item::Node(auction)]),
        ("purchasers".to_string(), xqdm::seq![Item::Node(purchasers)]),
    ];
    (store, bindings, purchasers)
}

fn compile(q: &str) -> CoreProgram {
    xqsyn::compile(q).expect("compile")
}

/// Serialize the full store state reachable from a node.
fn snapshot(store: &Store, node: NodeId) -> String {
    xqdm::xml::serialize(store, node).unwrap()
}

fn serialize_seq(store: &Store, seq: &[Item]) -> String {
    seq.iter()
        .map(|it| match it {
            Item::Node(n) => xqdm::xml::serialize(store, *n).unwrap(),
            Item::Atomic(a) => a.string_value(),
        })
        .collect::<Vec<_>>()
        .join(" ")
}

const Q_JOIN: &str = r#"
for $p in $auction//person
for $t in $auction//closed_auction
where $t/buyer/@person = $p/@id
return insert { <buyer person="{$t/buyer/@person}"
                        itemid="{$t/itemref/@item}" /> }
       into { $purchasers/purchasers }"#;

const Q8_VARIANT: &str = r#"
for $p in $auction//person
let $a :=
  for $t in $auction//closed_auction
  where $t/buyer/@person = $p/@id
  return (insert { <buyer person="{$t/buyer/@person}"
                     itemid="{$t/itemref/@item}" /> }
          into { $purchasers/purchasers }, $t)
return <item person="{ $p/name }">{ count($a) }</item>"#;

fn check_equivalence(query: &str, expect_optimized: bool) {
    for seed in [1, 7, 42] {
        let scale = Scale {
            persons: 30,
            items: 20,
            closed_auctions: 25,
            open_auctions: 5,
        };
        let program = compile(query);

        let (mut store_n, bindings_n, purch_n) = setup(seed, &scale);
        let value_n = run_naive(&program, &mut store_n, &bindings_n, 0).unwrap();

        let (mut store_o, bindings_o, purch_o) = setup(seed, &scale);
        let (value_o, optimized) = run_compiled(&program, &mut store_o, &bindings_o);
        assert_eq!(
            optimized, expect_optimized,
            "optimizer decision for {query}"
        );

        // Same value sequence (serialized — node ids may differ).
        assert_eq!(
            serialize_seq(&store_n, &value_n),
            serialize_seq(&store_o, &value_o),
            "value mismatch (seed {seed})"
        );
        // Same final store effects, in the same order.
        assert_eq!(
            snapshot(&store_n, purch_n),
            snapshot(&store_o, purch_o),
            "store effect mismatch (seed {seed})"
        );
        let auction_n = bindings_n[0].1[0].as_node().unwrap();
        let auction_o = bindings_o[0].1[0].as_node().unwrap();
        assert_eq!(snapshot(&store_n, auction_n), snapshot(&store_o, auction_o));
    }
}

#[test]
fn join_query_value_and_effects_match() {
    check_equivalence(Q_JOIN, true);
}

#[test]
fn q8_variant_value_and_effects_match() {
    check_equivalence(Q8_VARIANT, true);
}

#[test]
fn snap_variant_falls_back_and_still_matches() {
    // With `snap insert`, the optimizer must not rewrite; both runners use
    // the nested loop and trivially agree — this guards against the
    // compiler mis-claiming optimization.
    let q = r#"
for $p in $auction//person
let $a :=
  for $t in $auction//closed_auction
  where $t/buyer/@person = $p/@id
  return (snap insert { <buyer person="{$t/buyer/@person}"/> }
          into { $purchasers/purchasers }, $t)
return <item person="{ $p/name }">{ count($a) }</item>"#;
    check_equivalence(q, false);
}

#[test]
fn pure_join_without_updates_matches() {
    let q = r#"
for $p in $auction//person
for $t in $auction//closed_auction
where $t/buyer/@person = $p/@id
return <match person="{$p/@id}" item="{$t/itemref/@item}"/>"#;
    check_equivalence(q, true);
}

#[test]
fn outer_join_keeps_unmatched_outers() {
    // Persons with no purchases still produce an <item> with count 0 —
    // the LEFT OUTER semantics. Compare against naive for a scale where
    // some persons are guaranteed unmatched.
    let scale = Scale {
        persons: 50,
        items: 10,
        closed_auctions: 5,
        open_auctions: 1,
    };
    let program = compile(Q8_VARIANT);
    let (mut store_n, bindings_n, _) = setup(3, &scale);
    let value_n = run_naive(&program, &mut store_n, &bindings_n, 0).unwrap();
    let (mut store_o, bindings_o, _) = setup(3, &scale);
    let (value_o, optimized) = run_compiled(&program, &mut store_o, &bindings_o);
    assert!(optimized);
    assert_eq!(value_n.len(), 50);
    assert_eq!(value_o.len(), 50);
    assert_eq!(
        serialize_seq(&store_n, &value_n),
        serialize_seq(&store_o, &value_o)
    );
}

#[test]
fn plan_render_matches_paper_shape() {
    let program = compile(Q8_VARIANT);
    let plan = Compiler::new(&program).compile(&program.body);
    let rendered = plan.render();
    for needle in ["Snap {", "MapFromItem", "GroupBy", "LeftOuterJoin", "on {"] {
        assert!(
            rendered.contains(needle),
            "missing {needle} in:\n{rendered}"
        );
    }
}

#[test]
fn multi_valued_keys_match_existentially_once() {
    // A pair matching on two key values must contribute exactly once
    // (general comparison is existential). Construct data where an outer
    // key has two values both present in one inner node.
    let mut store = Store::new();
    let doc = xqdm::xml::parse_document(
        &mut store,
        r#"<r>
  <left><e><k>1</k><k>2</k></e></left>
  <right><f><k>1</k><k>2</k></f><f><k>2</k></f></right>
</r>"#,
    )
    .unwrap();
    let bindings = vec![("d".to_string(), xqdm::seq![Item::Node(doc)])];
    let q = r#"
for $x in $d//left/e
for $y in $d//right/f
where $x/k = $y/k
return <m/>"#;
    let program = compile(q);
    let plan = Compiler::new(&program).compile(&program.body);
    assert!(plan.is_optimized());
    let mut store2 = store.clone();
    let naive = run_naive(&program, &mut store2, &bindings, 0).unwrap();
    let (opt, _) = run_compiled(&program, &mut store, &bindings);
    assert_eq!(naive.len(), 2, "e matches both f nodes, each once");
    assert_eq!(opt.len(), 2);
}

#[test]
fn join_handles_empty_sides() {
    let mut store = Store::new();
    let doc =
        xqdm::xml::parse_document(&mut store, "<r><left/><right><f k=\"1\"/></right></r>").unwrap();
    let bindings = vec![("d".to_string(), xqdm::seq![Item::Node(doc)])];
    let q = "for $x in $d//left/e for $y in $d//right/f where $x/@k = $y/@k return <m/>";
    let program = compile(q);
    let (v, optimized) = run_compiled(&program, &mut store, &bindings);
    assert!(optimized);
    assert!(v.is_empty());
}
