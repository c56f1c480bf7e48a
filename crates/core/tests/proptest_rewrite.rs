//! Rewrite-phase preservation: for a corpus of query shapes exercising
//! every simplification rule, `simplify(q)` evaluated naively must produce
//! the same value and the same final store as `q` itself, across random
//! input data. This is the semantic-preservation obligation of §4.2's
//! guarded rewritings.

use proptest::prelude::*;
use std::sync::Arc;
use xqcore::{DynEnv, EffectAnalysis, Evaluator, ProgramEnv};
use xqdm::item::Item;
use xqdm::{QName, Store};
use xqsyn::core::CoreProgram;

/// Queries chosen to trip each rewrite rule (and its guard): dead lets,
/// single-use lets, constant arithmetic, constant conditionals, empty and
/// singleton for-loops — with and without updates in the mix.
const CORPUS: &[&str] = &[
    // dead-let (pure, alloc, pending — the last must be preserved!)
    "let $dead := 1 + 2 return count($data/e)",
    "let $dead := <a/> return count($data/e)",
    "let $dead := insert { <a/> } into { $out } return count($data/e)",
    // let-inline and its snap guard
    "let $x := count($data/e) return $x + 1",
    "let $x := count($data/e) return (snap insert { <s/> } into { $out }, $x)",
    // const folding around real data
    "for $e in $data/e return $e/@k = (1 + 2)",
    "if (1 = 1) then count($data/e) else fn:error(\"unreachable\")",
    // empty / singleton for
    "for $x in () return insert { <never/> } into { $out }",
    "for $x in <seed/> return (insert { <once/> } into { $out }, count($data/e))",
    // sequences flattening with effects interleaved
    "((insert { <u1/> } into { $out }, 1), ((2, insert { <u2/> } into { $out })), 3)",
    // shadowing
    "let $x := 1 return let $x := $x + 1 return ($x, count($data/e[@k = $x]))",
    // updates guarded inside conditionals
    "for $e in $data/e return
       if ($e/@k = 2) then insert { <hit/> } into { $out }
       else insert { <miss/> } into { $out }",
];

fn build_data(store: &mut Store, keys: &[u8]) -> xqdm::NodeId {
    let data = store.new_element(QName::local("data"));
    for &k in keys {
        let e = store.new_element(QName::local("e"));
        let a = store.new_attribute(QName::local("k"), format!("{}", k % 5));
        store.attach_attribute(e, a).unwrap();
        store.append_child(data, e).unwrap();
    }
    data
}

fn run_body(program: &CoreProgram, body: &xqsyn::core::Core, keys: &[u8]) -> (String, String) {
    let mut store = Store::new();
    let data = build_data(&mut store, keys);
    let out = store.new_element(QName::local("out"));
    let mut ev = Evaluator::new(Arc::new(ProgramEnv::default().with_seed(7)), program);
    ev.bind_global("data", xqdm::seq![Item::Node(data)]);
    ev.bind_global("out", xqdm::seq![Item::Node(out)]);
    let mut env = DynEnv::new();
    let value = ev.eval_query(&mut store, &mut env, body).expect("eval");
    let rendered: Vec<String> = value
        .iter()
        .map(|it| match it {
            Item::Node(n) => xqdm::xml::serialize(&store, *n).unwrap(),
            Item::Atomic(a) => a.string_value(),
        })
        .collect();
    (
        rendered.join("|"),
        xqdm::xml::serialize(&store, out).unwrap(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn simplify_preserves_value_and_effects(
        keys in proptest::collection::vec(any::<u8>(), 0..8)
    ) {
        for q in CORPUS {
            let program = xqsyn::compile(q).expect("compile");
            let analysis = EffectAnalysis::new(&program);
            let simplified = xqcore::alg::simplify(&program.body, &analysis);
            let (v1, s1) = run_body(&program, &program.body, &keys);
            let (v2, s2) = run_body(&program, &simplified, &keys);
            prop_assert_eq!(&v1, &v2, "value mismatch for {}", q);
            prop_assert_eq!(&s1, &s2, "effect mismatch for {}", q);
        }
    }
}
