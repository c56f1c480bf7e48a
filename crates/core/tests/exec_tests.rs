//! Plan-executor specifics not covered by the equivalence suites: prolog
//! variables, explicit snap-scope driving, and plan reuse.

mod common;

use common::run_compiled;
use xqcore::alg::{execute, run_naive, Compiler, QueryPlan};
use xqcore::{apply_delta, DynEnv, Evaluator, SnapMode};
use xqdm::item::Item;
use xqdm::Store;

fn two_sided_store() -> (Store, Vec<(String, xqdm::Sequence)>) {
    let mut store = Store::new();
    let doc = xqdm::xml::parse_document(
        &mut store,
        r#"<r>
  <left><e k="1"/><e k="2"/><e k="3"/></left>
  <right><f k="2"/><f k="3"/><f k="3"/></right>
  <out/>
</r>"#,
    )
    .unwrap();
    (store, vec![("d".to_string(), xqdm::seq![Item::Node(doc)])])
}

#[test]
fn run_plan_evaluates_prolog_variables() {
    let q = r#"
declare variable $limit := 2;
for $x in $d//left/e
for $y in $d//right/f
where $x/@k = $y/@k
return if (xs:integer($y/@k) >= $limit) then <m k="{$y/@k}"/> else ()"#;
    let program = xqsyn::compile(q).unwrap();
    let (mut s1, b1) = two_sided_store();
    let naive = run_naive(&program, &mut s1, &b1, 0).unwrap();
    let (mut s2, b2) = two_sided_store();
    let (opt, optimized) = run_compiled(&program, &mut s2, &b2);
    assert!(optimized, "join should be recognized despite the prolog");
    assert_eq!(naive.len(), 3);
    assert_eq!(opt.len(), 3);
}

#[test]
fn execute_within_manual_snap_scope() {
    // Drive `execute` directly inside a hand-managed Δ scope — the API the
    // docs promise plan executors.
    let q = r#"
for $x in $d//left/e
for $y in $d//right/f
where $x/@k = $y/@k
return insert { <m/> } into { ($d//out)[1] }"#;
    let program = xqsyn::compile(q).unwrap();
    let plan = Compiler::new(&program).compile(&program.body);
    assert!(matches!(plan, QueryPlan::HashJoin(_)));

    let (mut store, bindings) = two_sided_store();
    let mut ev = Evaluator::new(Default::default(), &program);
    for (n, v) in &bindings {
        ev.bind_global(n.clone(), v.clone());
    }
    let mut env = DynEnv::new();
    ev.begin_snap_scope();
    let value = execute(&plan, &mut ev, &mut store, &mut env).unwrap();
    assert!(value.is_empty(), "inserts return ()");
    let delta = ev.end_snap_scope();
    assert_eq!(delta.len(), 3, "three matches, three pending inserts");
    // Nothing applied yet.
    let doc = bindings[0].1[0].as_node().unwrap();
    assert!(!xqdm::xml::serialize(&store, doc).unwrap().contains("<m/>"));
    apply_delta(&mut store, delta, SnapMode::Ordered, 0).unwrap();
    assert_eq!(
        xqdm::xml::serialize(&store, doc)
            .unwrap()
            .matches("<m/>")
            .count(),
        3
    );
}

#[test]
fn compiled_plan_is_reusable_across_stores() {
    let q = "for $x in $d//left/e for $y in $d//right/f where $x/@k = $y/@k return <m/>";
    let program = xqsyn::compile(q).unwrap();
    let plan = Compiler::new(&program).compile(&program.body);
    for _ in 0..3 {
        let (mut store, bindings) = two_sided_store();
        let mut ev = Evaluator::new(Default::default(), &program);
        for (n, v) in &bindings {
            ev.bind_global(n.clone(), v.clone());
        }
        let mut env = DynEnv::new();
        ev.begin_snap_scope();
        let value = execute(&plan, &mut ev, &mut store, &mut env).unwrap();
        ev.end_snap_scope();
        assert_eq!(value.len(), 3);
    }
}

#[test]
fn iterate_plan_matches_direct_evaluation() {
    let q = "sum(for $x in $d//left/e return xs:integer($x/@k))";
    let program = xqsyn::compile(q).unwrap();
    let plan = Compiler::new(&program).compile(&program.body);
    assert!(matches!(plan, QueryPlan::Iterate(_)));
    let (mut store, bindings) = two_sided_store();
    let (v, optimized) = run_compiled(&program, &mut store, &bindings);
    assert!(!optimized);
    assert_eq!(v, vec![Item::integer(6)]);
}
