//! Property-based optimizer equivalence: for *randomly generated* join
//! queries and random data, the optimized plan must produce exactly the
//! same value and the same final store as naive nested-loop evaluation.
//! This generalizes the hand-picked queries in `equivalence_tests.rs`.

mod common;

use common::run_compiled;
use proptest::prelude::*;
use xqcore::alg::{run_naive, Compiler};
use xqdm::item::Item;
use xqdm::{QName, Store};

/// Random flat data: `<side><e k="..."/>...</side>` with keys drawn from a
/// small alphabet (forcing collisions, empty key sets, and skew).
#[derive(Debug, Clone)]
struct SideSpec {
    /// Key value per element; `None` = element without the key attribute.
    keys: Vec<Option<u8>>,
}

fn side_strategy(max: usize) -> impl Strategy<Value = SideSpec> {
    proptest::collection::vec(proptest::option::of(0u8..5), 0..max)
        .prop_map(|keys| SideSpec { keys })
}

fn build_side(store: &mut Store, name: &str, spec: &SideSpec) -> xqdm::NodeId {
    let root = store.new_element(QName::local(name));
    for (i, k) in spec.keys.iter().enumerate() {
        let e = store.new_element(QName::local("e"));
        let id = store.new_attribute(QName::local("n"), format!("{name}{i}"));
        store.attach_attribute(e, id).unwrap();
        if let Some(k) = k {
            let a = store.new_attribute(QName::local("k"), format!("k{k}"));
            store.attach_attribute(e, a).unwrap();
        }
        store.append_child(root, e).unwrap();
    }
    root
}

/// The query templates the optimizer targets, parameterized over whether
/// the match body performs updates.
fn join_query(with_update: bool) -> String {
    let body = if with_update {
        r#"(insert { <m l="{$l/@n}" r="{$r/@n}"/> } into { $out }, $r)"#
    } else {
        r#"<m l="{$l/@n}" r="{$r/@n}"/>"#
    };
    format!(
        "for $l in $left/e
         for $r in $right/e
         where $l/@k = $r/@k
         return {body}"
    )
}

fn group_query(with_update: bool) -> String {
    let body = if with_update {
        r#"(insert { <m r="{$r/@n}"/> } into { $out }, $r)"#
    } else {
        "$r"
    };
    format!(
        "for $l in $left/e
         let $g := for $r in $right/e
                   where $l/@k = $r/@k
                   return {body}
         return <grp l=\"{{$l/@n}}\">{{ count($g) }}</grp>"
    )
}

fn check(query: &str, left: &SideSpec, right: &SideSpec) -> Result<(), TestCaseError> {
    let program = xqsyn::compile(query).expect("compile");
    // The optimizer must fire on these shapes at all.
    prop_assert!(Compiler::new(&program)
        .compile(&program.body)
        .is_optimized());

    let setup = |spec_l: &SideSpec, spec_r: &SideSpec| {
        let mut store = Store::new();
        let l = build_side(&mut store, "left", spec_l);
        let r = build_side(&mut store, "right", spec_r);
        let out = store.new_element(QName::local("out"));
        let bindings = vec![
            ("left".to_string(), xqdm::seq![Item::Node(l)]),
            ("right".to_string(), xqdm::seq![Item::Node(r)]),
            ("out".to_string(), xqdm::seq![Item::Node(out)]),
        ];
        (store, bindings, out)
    };

    let (mut s1, b1, out1) = setup(left, right);
    let v1 = run_naive(&program, &mut s1, &b1, 0).expect("naive run");
    let (mut s2, b2, out2) = setup(left, right);
    let (v2, _) = run_compiled(&program, &mut s2, &b2);

    let ser = |store: &Store, items: &[Item]| -> String {
        items
            .iter()
            .map(|it| match it {
                Item::Node(n) => xqdm::xml::serialize(store, *n).unwrap(),
                Item::Atomic(a) => a.string_value(),
            })
            .collect::<Vec<_>>()
            .join("|")
    };
    prop_assert_eq!(ser(&s1, &v1), ser(&s2, &v2), "value mismatch");
    prop_assert_eq!(
        xqdm::xml::serialize(&s1, out1).unwrap(),
        xqdm::xml::serialize(&s2, out2).unwrap(),
        "store effect mismatch"
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_pure_joins_agree(
        left in side_strategy(12),
        right in side_strategy(12),
    ) {
        check(&join_query(false), &left, &right)?;
    }

    #[test]
    fn random_updating_joins_agree(
        left in side_strategy(10),
        right in side_strategy(10),
    ) {
        check(&join_query(true), &left, &right)?;
    }

    #[test]
    fn random_group_by_queries_agree(
        left in side_strategy(10),
        right in side_strategy(10),
    ) {
        check(&group_query(false), &left, &right)?;
        check(&group_query(true), &left, &right)?;
    }
}
