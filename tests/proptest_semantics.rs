//! Property-based tests on the language semantics.
//!
//! * **Conflict-freedom means permutation-independence** — the defining
//!   property of §3.2's conflict-detection mode: if verification accepts a
//!   Δ, applying any permutation of it yields the same store.
//! * **The generated-Δ battery** — Δs of all six update ops over a richer
//!   arena, checked for (a) the §3.4 law over every permutation, (b) a
//!   round trip through the ops' redo-log encoding, and (c) index
//!   exactness and unique attribute names in every store reached.
//! * **Snapshot invisibility** — a pure read evaluated alongside pending
//!   updates sees the pre-state, whatever the updates are.
//! * **snap transparency for values** — `snap { e }` has `e`'s value for
//!   effect-free `e`.
//! * **Arithmetic/comparison algebraic properties** through the full
//!   parser+evaluator pipeline.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use xquery_bang::xqcore::{apply_delta, verify_conflict_free, Delta, SnapMode};
use xquery_bang::xqdm::store::InsertAnchor;
use xquery_bang::xqdm::{NodeId, QName, RedoOp, Store, SyncMode};
use xquery_bang::Engine;

fn run(q: &str) -> String {
    let mut e = Engine::new();
    let r = e.run(q).unwrap_or_else(|err| panic!("query {q:?}: {err}"));
    e.serialize(&r).unwrap()
}

// ---------------------------------------------------------------------
// Conflict-freedom <=> permutation independence
// ---------------------------------------------------------------------

/// A random Δ over a small fixed arena: a root with `k` attached children
/// plus `k` detached spares; requests pick targets by index.
#[derive(Debug, Clone)]
enum Req {
    Rename { target: usize, name: u8 },
    Delete { target: usize },
    InsertAfter { spare: usize, anchor: usize },
    InsertLast { spare: usize },
}

fn req_strategy() -> impl Strategy<Value = Req> {
    prop_oneof![
        (any::<usize>(), 0u8..6).prop_map(|(target, name)| Req::Rename { target, name }),
        any::<usize>().prop_map(|target| Req::Delete { target }),
        (any::<usize>(), any::<usize>())
            .prop_map(|(spare, anchor)| Req::InsertAfter { spare, anchor }),
        any::<usize>().prop_map(|spare| Req::InsertLast { spare }),
    ]
}

const ARENA: usize = 6;

fn build_arena(store: &mut Store) -> (NodeId, Vec<NodeId>, Vec<NodeId>) {
    let root = store.new_element(QName::local("root"));
    let children: Vec<_> = (0..ARENA)
        .map(|i| {
            let c = store.new_element(QName::local(format!("c{i}")));
            store.append_child(root, c).unwrap();
            c
        })
        .collect();
    let spares: Vec<_> = (0..ARENA)
        .map(|i| store.new_element(QName::local(format!("s{i}"))))
        .collect();
    (root, children, spares)
}

fn materialize(reqs: &[Req], store: &mut Store) -> (NodeId, Delta) {
    let (root, children, spares) = build_arena(store);
    let mut delta = Delta::new();
    let mut used_spares = std::collections::HashSet::new();
    for r in reqs {
        match r {
            Req::Rename { target, name } => delta.push(RedoOp::Rename {
                node: children[target % ARENA],
                name: store.intern_qname(&QName::local(format!("n{name}"))),
            }),
            Req::Delete { target } => delta.push(RedoOp::Detach {
                node: children[target % ARENA],
            }),
            Req::InsertAfter { spare, anchor } => {
                if used_spares.insert(spare % ARENA) {
                    delta.push(RedoOp::Insert {
                        seq: vec![spares[spare % ARENA]].into(),
                        parent: root,
                        anchor: InsertAnchor::After(children[anchor % ARENA]),
                    });
                }
            }
            Req::InsertLast { spare } => {
                if used_spares.insert(spare % ARENA) {
                    delta.push(RedoOp::Insert {
                        seq: vec![spares[spare % ARENA]].into(),
                        parent: root,
                        anchor: InsertAnchor::Last,
                    });
                }
            }
        }
    }
    (root, delta)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn conflict_free_deltas_are_permutation_independent(
        reqs in proptest::collection::vec(req_strategy(), 0..10),
        seeds in proptest::collection::vec(any::<u64>(), 3)
    ) {
        // Reference: ordered application.
        let mut s0 = Store::new();
        let (root0, delta0) = materialize(&reqs, &mut s0);
        if verify_conflict_free(&s0, &delta0).is_err() {
            // Not conflict-free: nothing to check (the converse direction —
            // that rejected deltas really are order-dependent — does not
            // hold; the rules are sound, not complete).
            return Ok(());
        }
        apply_delta(&mut s0, delta0, SnapMode::Ordered, 0).unwrap();
        let reference = xquery_bang::xqdm::xml::serialize(&s0, root0).unwrap();

        // Any shuffled application must match.
        for &seed in &seeds {
            let mut s = Store::new();
            let (root, delta) = materialize(&reqs, &mut s);
            apply_delta(&mut s, delta, SnapMode::Nondeterministic, seed).unwrap();
            prop_assert_eq!(
                xquery_bang::xqdm::xml::serialize(&s, root).unwrap(),
                reference.clone()
            );
        }
    }

    #[test]
    fn conflict_detection_mode_matches_ordered_when_accepted(
        reqs in proptest::collection::vec(req_strategy(), 0..10),
    ) {
        let mut s1 = Store::new();
        let (root1, delta1) = materialize(&reqs, &mut s1);
        let mut s2 = Store::new();
        let (root2, delta2) = materialize(&reqs, &mut s2);
        let cd = apply_delta(&mut s2, delta2, SnapMode::ConflictDetection, 0);
        if cd.is_ok() {
            apply_delta(&mut s1, delta1, SnapMode::Ordered, 0).unwrap();
            prop_assert_eq!(
                xquery_bang::xqdm::xml::serialize(&s1, root1).unwrap(),
                xquery_bang::xqdm::xml::serialize(&s2, root2).unwrap()
            );
        }
    }
}

// ---------------------------------------------------------------------
// Generated-Δ battery: every update op over a richer arena
// ---------------------------------------------------------------------

/// The battery's arena: `root` with children `c0..c5`, each with one
/// text child; `c0` carries `a` and `b`, `c1` carries `a` (attribute ops
/// target these two, so they interact often); detached spare elements
/// `s0..s5` and spare attributes named `a`, `b`, `x`, `y` in turn.
struct Arena {
    root: NodeId,
    children: Vec<NodeId>,
    texts: Vec<NodeId>,
    attrs: Vec<NodeId>,
    spares: Vec<NodeId>,
    spare_attrs: Vec<NodeId>,
}

impl Arena {
    /// [`build_arena`], then the attributes, texts and spare attributes.
    fn build(store: &mut Store) -> Arena {
        let (root, children, spares) = build_arena(store);
        let (mut texts, mut attrs) = (vec![], vec![]);
        for (i, &c) in children.iter().enumerate() {
            let names: &[&str] = match i {
                0 => &["a", "b"],
                1 => &["a"],
                _ => &[],
            };
            for name in names {
                let a = store.new_attribute(QName::local(*name), i.to_string());
                store.attach_attribute(c, a).unwrap();
                attrs.push(a);
            }
            let t = store.new_text(format!("t{i}"));
            store.append_child(c, t).unwrap();
            texts.push(t);
        }
        let spare_attrs = (0..ARENA)
            .map(|i| store.new_attribute(QName::local(ATTR_NAMES[i % 4]), format!("s{i}")))
            .collect();
        Arena {
            root,
            children,
            texts,
            attrs,
            spares,
            spare_attrs,
        }
    }

    /// Every node the arena made, in allocation order.
    fn nodes(&self) -> Vec<NodeId> {
        let mut all = vec![self.root];
        for list in [
            &self.children,
            &self.texts,
            &self.attrs,
            &self.spares,
            &self.spare_attrs,
        ] {
            all.extend(list.iter().copied());
        }
        all
    }
}

const ATTR_NAMES: [&str; 4] = ["a", "b", "x", "y"];

/// One generated op over the battery's arena; indices wrap.
#[derive(Debug, Clone)]
enum Gen {
    InsertFirst { spare: usize, parent: usize },
    InsertLast { spare: usize, parent: usize },
    InsertAfter { spare: usize, anchor: usize },
    AttachAttr { attr: usize, element: usize },
    DetachChild { child: usize },
    DetachAttr { attr: usize },
    RenameElement { element: usize, name: usize },
    RenameAttr { attr: usize, name: usize },
    SetText { text: usize, value: u8 },
    SetAttrValue { attr: usize, value: u8 },
}

fn gen_strategy() -> impl Strategy<Value = Gen> {
    prop_oneof![
        (any::<usize>(), any::<usize>())
            .prop_map(|(spare, parent)| Gen::InsertFirst { spare, parent }),
        (any::<usize>(), any::<usize>())
            .prop_map(|(spare, parent)| Gen::InsertLast { spare, parent }),
        (any::<usize>(), any::<usize>())
            .prop_map(|(spare, anchor)| Gen::InsertAfter { spare, anchor }),
        (any::<usize>(), any::<usize>())
            .prop_map(|(attr, element)| Gen::AttachAttr { attr, element }),
        any::<usize>().prop_map(|child| Gen::DetachChild { child }),
        any::<usize>().prop_map(|attr| Gen::DetachAttr { attr }),
        (any::<usize>(), any::<usize>())
            .prop_map(|(element, name)| Gen::RenameElement { element, name }),
        (any::<usize>(), any::<usize>()).prop_map(|(attr, name)| Gen::RenameAttr { attr, name }),
        (any::<usize>(), 0u8..3).prop_map(|(text, value)| Gen::SetText { text, value }),
        (any::<usize>(), 0u8..3).prop_map(|(attr, value)| Gen::SetAttrValue { attr, value }),
    ]
}

/// Build the arena in `store` and turn `gens` into a Δ against it. A
/// spare is inserted or attached at most once (a second use is rule 2's
/// conflict, which the old suite already covers).
fn materialize_gen(gens: &[Gen], store: &mut Store) -> (Arena, Delta) {
    let ar = Arena::build(store);
    let pick = |list: &[NodeId], i: usize| list[i % list.len()];
    // Parents: the root and its children; anchors: the children and texts.
    let parents: Vec<NodeId> = std::iter::once(ar.root)
        .chain(ar.children.iter().copied())
        .collect();
    let anchors: Vec<NodeId> = ar.children.iter().chain(&ar.texts).copied().collect();
    let detachable: Vec<NodeId> = ar.children.iter().chain(&ar.texts).copied().collect();
    let renamable_attrs: Vec<NodeId> = ar.attrs.iter().chain(&ar.spare_attrs).copied().collect();
    let mut used = std::collections::HashSet::new();
    let mut delta = Delta::new();
    for g in gens {
        match *g {
            Gen::InsertFirst { spare, parent } | Gen::InsertLast { spare, parent } => {
                let s = pick(&ar.spares, spare);
                if used.insert(s) {
                    let anchor = if matches!(g, Gen::InsertFirst { .. }) {
                        InsertAnchor::First
                    } else {
                        InsertAnchor::Last
                    };
                    delta.push(RedoOp::Insert {
                        seq: vec![s].into(),
                        parent: pick(&parents, parent),
                        anchor,
                    });
                }
            }
            Gen::InsertAfter { spare, anchor } => {
                let s = pick(&ar.spares, spare);
                let a = pick(&anchors, anchor);
                if used.insert(s) {
                    let parent = store.parent(a).unwrap().unwrap();
                    delta.push(RedoOp::Insert {
                        seq: vec![s].into(),
                        parent,
                        anchor: InsertAnchor::After(a),
                    });
                }
            }
            Gen::AttachAttr { attr, element } => {
                let y = pick(&ar.spare_attrs, attr);
                if used.insert(y) {
                    delta.push(RedoOp::AttachAttr {
                        element: pick(&ar.children[..2], element),
                        attr: y,
                    });
                }
            }
            Gen::DetachChild { child } => delta.push(RedoOp::Detach {
                node: pick(&detachable, child),
            }),
            Gen::DetachAttr { attr } => delta.push(RedoOp::Detach {
                node: pick(&ar.attrs, attr),
            }),
            Gen::RenameElement { element, name } => delta.push(RedoOp::Rename {
                node: pick(&ar.children, element),
                name: store.intern_qname(&QName::local(["a", "b", "n", "m"][name % 4])),
            }),
            Gen::RenameAttr { attr, name } => delta.push(RedoOp::Rename {
                node: pick(&renamable_attrs, attr),
                name: store.intern_qname(&QName::local(ATTR_NAMES[name % 4])),
            }),
            Gen::SetText { text, value } => delta.push(RedoOp::SetText {
                node: pick(&ar.texts, text),
                content: format!("v{value}"),
            }),
            Gen::SetAttrValue { attr, value } => delta.push(RedoOp::SetAttrValue {
                node: pick(&renamable_attrs, attr),
                value: format!("v{value}"),
            }),
        }
    }
    (ar, delta)
}

/// Every permutation of `0..n`, in Heap's order.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn heap(k: usize, a: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(a.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, a, out);
            a.swap(if k.is_multiple_of(2) { i } else { 0 }, k - 1);
        }
    }
    let mut out = vec![];
    heap(n, &mut (0..n).collect(), &mut out);
    out
}

/// What a permutation ends in: the serialized parentless arena nodes and
/// the store fingerprint, or the failing error code.
type Outcome = Result<(String, u64), &'static str>;

fn outcome(store: &Store, ar: &Arena, applied: Result<(), xquery_bang::xqdm::XdmError>) -> Outcome {
    applied.map_err(|e| e.code)?;
    let mut text = String::new();
    for n in ar.nodes() {
        if store.parent(n).unwrap().is_none() {
            text.push_str(&format!(
                "{n}={:?};",
                xquery_bang::xqdm::xml::serialize(store, n)
            ));
        }
    }
    Ok((text, store.fingerprint()))
}

/// Law (c), checked on every store the battery reaches: the index plane
/// matches a rebuild, and no element holds two attributes of one name.
fn law_c_store_invariants(store: &Store, ar: &Arena) -> Result<(), TestCaseError> {
    prop_assert!(store.index_verify(), "index diverged from rebuild");
    for e in std::iter::once(ar.root)
        .chain(ar.children.iter().copied())
        .chain(ar.spares.iter().copied())
    {
        let mut names: Vec<_> = store
            .attributes(e)
            .unwrap()
            .iter()
            .map(|&a| store.name(a).unwrap())
            .collect();
        let n = names.len();
        names.sort();
        names.dedup();
        prop_assert_eq!(
            names.len(),
            n,
            "element {} has two attributes of one name",
            e
        );
    }
    Ok(())
}

/// Law (a), §3.4: a Δ the verifier accepts ends in the same serialized
/// store and fingerprint in every order — exhaustively, |Δ| ≤ 6 — or
/// fails with the same error code in every order. A rejected Δ is still
/// applied once, in Δ order, for law (c).
fn law_a_permutations(gens: &[Gen]) -> Result<(), TestCaseError> {
    let mut base = Store::new();
    let (ar, delta) = materialize_gen(gens, &mut base);
    let orders = if verify_conflict_free(&base, &delta).is_ok() {
        permutations(delta.len())
    } else {
        vec![(0..delta.len()).collect()]
    };
    let mut first: Option<Outcome> = None;
    for order in orders {
        let mut s = base.clone();
        let permuted: Delta = order.iter().map(|&i| delta[i].clone()).collect();
        let applied = apply_delta(&mut s, permuted, SnapMode::Ordered, 0);
        law_c_store_invariants(&s, &ar)?;
        let got = outcome(&s, &ar, applied);
        match &first {
            None => first = Some(got),
            Some(expected) => prop_assert_eq!(
                &got,
                expected,
                "accepted Δ {:?} is order-dependent: order {:?}",
                gens,
                order
            ),
        }
    }
    Ok(())
}

/// Law (b), op-encoding round trip: the Δ applied on a durable store
/// (`SyncMode::Off`) reopens, through its redo-log records, to the same
/// fingerprint.
fn law_b_round_trip(gens: &[Gen]) -> Result<(), TestCaseError> {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "xqb_delta_battery_{}_{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut store, _) = Store::open_durable(&dir, SyncMode::Off).unwrap();
    let (ar, delta) = materialize_gen(gens, &mut store);
    let _ = apply_delta(&mut store, delta, SnapMode::Ordered, 0);
    store.wal_commit().unwrap();
    let fingerprint = store.fingerprint();
    drop(store);
    let (reopened, report) = Store::open_durable(&dir, SyncMode::Off).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    prop_assert_eq!(report.tail_dropped, 0);
    prop_assert_eq!(
        reopened.fingerprint(),
        fingerprint,
        "Δ {:?} does not survive its op encoding",
        gens
    );
    law_c_store_invariants(&reopened, &ar)
}

// Pinned: the shim keys every case on the test name and case index. Law
// (b) writes a store directory per case, so it runs fewer cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn generated_deltas_commute_when_accepted(gens in proptest::collection::vec(gen_strategy(), 2..7)) {
        law_a_permutations(&gens)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn generated_deltas_survive_their_op_encoding(gens in proptest::collection::vec(gen_strategy(), 1..7)) {
        law_b_round_trip(&gens)?;
    }
}

/// The battery's laws on one hand-reduced Δ.
fn battery_row(gens: &[Gen]) {
    law_a_permutations(gens).unwrap();
    law_b_round_trip(gens).unwrap();
}

/// `replace $e/@a with attribute a {..}` is a detach and an attach of
/// one name: applied attach-first it fails on the duplicate, so the
/// verifier must not accept it.
#[test]
fn battery_row_attribute_replace() {
    battery_row(&[
        Gen::DetachAttr { attr: 0 },
        Gen::AttachAttr {
            attr: 0,
            element: 0,
        },
    ]);
}

/// Renaming `c0/@a` to `b` would give `c0` two `b` attributes.
#[test]
fn battery_row_attribute_rename() {
    battery_row(&[Gen::RenameAttr { attr: 0, name: 1 }]);
}

/// Two attaches to `c1` (`b`, then `x`) land in application order.
#[test]
fn battery_row_two_attaches_to_one_element() {
    battery_row(&[
        Gen::AttachAttr {
            attr: 1,
            element: 1,
        },
        Gen::AttachAttr {
            attr: 2,
            element: 1,
        },
    ]);
}

/// Detaching `c0/@a` frees its rename target `b` too: renaming first
/// fails on `c0/@b`, detaching first succeeds.
#[test]
fn battery_row_rename_and_detach_of_one_attribute() {
    battery_row(&[
        Gen::RenameAttr { attr: 0, name: 1 },
        Gen::DetachAttr { attr: 0 },
    ]);
}

/// A spare `a` attached to `c1` (which has an `a`) and renamed to `x`:
/// attaching first fails, renaming first succeeds.
#[test]
fn battery_row_rename_and_attach_of_one_attribute() {
    battery_row(&[
        Gen::AttachAttr {
            attr: 0,
            element: 1,
        },
        Gen::RenameAttr { attr: 3, name: 2 },
    ]);
}

// ---------------------------------------------------------------------
// Language-level properties through the full pipeline
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn integer_arithmetic_matches_rust(a in -1000i64..1000, b in -1000i64..1000) {
        prop_assert_eq!(run(&format!("{a} + {b}")), (a + b).to_string());
        prop_assert_eq!(run(&format!("{a} * {b}")), (a * b).to_string());
        prop_assert_eq!(run(&format!("({a}) - ({b})")), (a - b).to_string());
        if b != 0 {
            prop_assert_eq!(run(&format!("({a}) idiv ({b})")), (a / b).to_string());
            prop_assert_eq!(run(&format!("({a}) mod ({b})")), (a % b).to_string());
        }
    }

    #[test]
    fn comparison_trichotomy(a in -100i64..100, b in -100i64..100) {
        let lt = run(&format!("{a} < {b}")) == "true";
        let eq = run(&format!("{a} = {b}")) == "true";
        let gt = run(&format!("{a} > {b}")) == "true";
        prop_assert_eq!(lt as u8 + eq as u8 + gt as u8, 1);
    }

    #[test]
    fn range_count_and_sum(a in 1i64..50, len in 0i64..50) {
        let b = a + len - 1;
        prop_assert_eq!(run(&format!("count({a} to {b})")), len.max(0).to_string());
        let expected: i64 = (a..=b).sum();
        prop_assert_eq!(run(&format!("sum({a} to {b})")), expected.to_string());
    }

    #[test]
    fn reverse_is_involutive(xs in proptest::collection::vec(-100i64..100, 0..12)) {
        let seq = xs.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(", ");
        let forward = run(&format!("({seq})"));
        let double = run(&format!("reverse(reverse(({seq})))"));
        prop_assert_eq!(forward, double);
    }

    #[test]
    fn snap_is_value_transparent_for_pure_bodies(xs in proptest::collection::vec(-100i64..100, 0..8)) {
        let seq = xs.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(", ");
        prop_assert_eq!(
            run(&format!("(snap {{ ({seq}) }})")),
            run(&format!("({seq})"))
        );
    }

    #[test]
    fn pending_updates_never_change_the_current_snapshot(n in 1usize..20) {
        // Whatever pending inserts accumulate, a read in the same scope
        // sees the original store.
        let mut e = Engine::new();
        e.load_document("doc", "<x><k/></x>").unwrap();
        let inserts = (0..n)
            .map(|_| "insert { <y/> } into { $doc/x }".to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let r = e.run(&format!("({inserts}, count($doc/x/*))")).unwrap();
        prop_assert_eq!(e.serialize(&r).unwrap(), "1");
        // And after the program, all n inserts are applied.
        let r = e.run("count($doc/x/*)").unwrap();
        prop_assert_eq!(e.serialize(&r).unwrap(), (n + 1).to_string());
    }

    #[test]
    fn for_loop_matches_flat_expansion(xs in proptest::collection::vec(0i64..50, 0..10)) {
        let seq = xs.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(", ");
        let looped = run(&format!("for $x in ({seq}) return $x * 2"));
        let expected =
            xs.iter().map(|x| (x * 2).to_string()).collect::<Vec<_>>().join(" ");
        prop_assert_eq!(looped, expected);
    }

    #[test]
    fn order_by_sorts(xs in proptest::collection::vec(-100i64..100, 0..12)) {
        let seq = xs.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(", ");
        let sorted_q = run(&format!("for $x in ({seq}) order by $x return $x"));
        let mut expected = xs.clone();
        expected.sort();
        prop_assert_eq!(
            sorted_q,
            expected.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(" ")
        );
    }

    #[test]
    fn string_functions_respect_rust_semantics(s in "[a-z]{0,12}", t in "[a-z]{0,4}") {
        prop_assert_eq!(run(&format!("contains(\"{s}\", \"{t}\")")), s.contains(&t).to_string());
        prop_assert_eq!(
            run(&format!("string-length(\"{s}\")")),
            s.chars().count().to_string()
        );
        prop_assert_eq!(run(&format!("upper-case(\"{s}\")")), s.to_uppercase());
    }
}
