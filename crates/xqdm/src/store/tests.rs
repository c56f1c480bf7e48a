//! Unit tests of the store: construction and accessors, the update
//! applications and their preconditions, document order, garbage, and
//! exact rollback.

use super::*;
use crate::wal::RedoOp;
use crate::QName;
use std::cmp::Ordering;

fn q(s: &str) -> QName {
    QName::local(s)
}

fn insert(seq: &[NodeId], parent: NodeId, anchor: InsertAnchor) -> RedoOp<'_> {
    RedoOp::Insert {
        seq: seq.into(),
        parent,
        anchor,
    }
}

/// A rename of `node` to the local name `name`, interned in `s`.
fn rename_to(s: &mut Store, node: NodeId, name: &str) -> RedoOp<'static> {
    let name = s.intern_qname(&q(name));
    RedoOp::Rename { node, name }
}

/// Build `<a><b>hi</b><c x="1"/></a>` and return (store, a, b, c, text).
fn sample() -> (Store, NodeId, NodeId, NodeId, NodeId) {
    let mut s = Store::new();
    let a = s.new_element(q("a"));
    let b = s.new_element(q("b"));
    let t = s.new_text("hi");
    let c = s.new_element(q("c"));
    let x = s.new_attribute(q("x"), "1");
    s.append_child(b, t).unwrap();
    s.append_child(a, b).unwrap();
    s.append_child(a, c).unwrap();
    s.attach_attribute(c, x).unwrap();
    (s, a, b, c, t)
}

#[test]
fn construction_and_accessors() {
    let (s, a, b, c, t) = sample();
    assert_eq!(s.children(a).unwrap(), &[b, c]);
    assert_eq!(s.parent(b).unwrap(), Some(a));
    assert_eq!(s.parent(a).unwrap(), None);
    assert_eq!(s.name(a).unwrap().unwrap().local, "a");
    assert_eq!(s.string_value(a).unwrap(), "hi");
    assert_eq!(s.string_value(t).unwrap(), "hi");
    let attr = s.attribute_by_name(c, "x").unwrap().unwrap();
    assert_eq!(s.string_value(attr).unwrap(), "1");
    assert_eq!(s.attribute_by_name(c, "nope").unwrap(), None);
}

#[test]
fn insert_anchors() {
    let mut s = Store::new();
    let p = s.new_element(q("p"));
    let c1 = s.new_element(q("c1"));
    let c2 = s.new_element(q("c2"));
    let c3 = s.new_element(q("c3"));
    s.apply(insert(&[c2], p, InsertAnchor::Last)).unwrap();
    s.apply(insert(&[c1], p, InsertAnchor::First)).unwrap();
    s.apply(insert(&[c3], p, InsertAnchor::After(c2))).unwrap();
    assert_eq!(s.children(p).unwrap(), &[c1, c2, c3]);
}

#[test]
fn insert_sequence_preserves_order() {
    let mut s = Store::new();
    let p = s.new_element(q("p"));
    let xs: Vec<NodeId> = (0..5).map(|i| s.new_element(q(&format!("x{i}")))).collect();
    s.apply(insert(&xs, p, InsertAnchor::Last)).unwrap();
    assert_eq!(s.children(p).unwrap(), &xs[..]);
}

#[test]
fn insert_preconditions() {
    let (mut s, a, b, _c, _t) = sample();
    let d = s.new_element(q("d"));
    // b already has a parent.
    assert_eq!(
        s.apply(insert(&[b], d, InsertAnchor::Last))
            .unwrap_err()
            .code,
        "XQB0002"
    );
    // anchor not a child of parent
    assert!(s.apply(insert(&[d], a, InsertAnchor::After(d))).is_err());
    // inserting into a text node
    let t2 = s.new_text("t");
    assert!(s.apply(insert(&[d], t2, InsertAnchor::Last)).is_err());
    // attribute as child
    let at = s.new_attribute(q("y"), "2");
    assert!(s.apply(insert(&[at], a, InsertAnchor::Last)).is_err());
}

#[test]
fn insert_rejects_cycles() {
    let (mut s, a, b, _c, _t) = sample();
    // detach a's subtree root "a" has no parent; inserting a into b (its
    // own descendant) must fail.
    assert!(s.apply(insert(&[a], b, InsertAnchor::Last)).is_err());
    // And self-insertion.
    let e = s.new_element(q("e"));
    assert!(s.apply(insert(&[e], e, InsertAnchor::Last)).is_err());
}

#[test]
fn detach_semantics() {
    let (mut s, a, b, c, t) = sample();
    s.apply(RedoOp::Detach { node: b }).unwrap();
    assert_eq!(s.children(a).unwrap(), &[c]);
    assert_eq!(s.parent(b).unwrap(), None);
    // Paper §3.1: a detached node can still be queried...
    assert_eq!(s.string_value(b).unwrap(), "hi");
    assert_eq!(s.parent(t).unwrap(), Some(b));
    // ...and inserted somewhere else.
    s.apply(insert(&[b], c, InsertAnchor::Last)).unwrap();
    assert_eq!(s.parent(b).unwrap(), Some(c));
    // Detaching a detached node is a no-op.
    let d = s.new_element(q("d"));
    s.apply(RedoOp::Detach { node: d }).unwrap();
}

#[test]
fn detach_attribute() {
    let (mut s, _a, _b, c, _t) = sample();
    let x = s.attribute_by_name(c, "x").unwrap().unwrap();
    s.apply(RedoOp::Detach { node: x }).unwrap();
    assert_eq!(s.attributes(c).unwrap(), &[]);
    assert_eq!(s.parent(x).unwrap(), None);
    assert_eq!(s.string_value(x).unwrap(), "1");
}

#[test]
fn rename() {
    let (mut s, a, _b, c, t) = sample();
    let op = rename_to(&mut s, a, "z");
    s.apply(op).unwrap();
    assert_eq!(s.name(a).unwrap().unwrap().local, "z");
    let x = s.attribute_by_name(c, "x").unwrap().unwrap();
    let op = rename_to(&mut s, x, "y");
    s.apply(op).unwrap();
    assert_eq!(s.attribute_by_name(c, "y").unwrap(), Some(x));
    let op = rename_to(&mut s, t, "nope");
    assert!(s.apply(op).is_err());
}

#[test]
fn renaming_an_attribute_onto_a_sibling_name_fails() {
    let mut s = Store::new();
    let e = s.new_element(q("e"));
    let a = s.new_attribute(q("a"), "1");
    let b = s.new_attribute(q("b"), "2");
    s.attach_attribute(e, a).unwrap();
    s.attach_attribute(e, b).unwrap();
    let before = s.fingerprint();
    let op = rename_to(&mut s, a, "b");
    assert_eq!(s.apply(op).unwrap_err().code, "XQB0002");
    assert_eq!(s.fingerprint(), before);
    // Renaming to its own name, or once detached, is fine.
    let op = rename_to(&mut s, a, "a");
    s.apply(op).unwrap();
    s.apply(RedoOp::Detach { node: a }).unwrap();
    let op = rename_to(&mut s, a, "b");
    s.apply(op).unwrap();
}

#[test]
fn deep_copy_is_detached_and_equal_shaped() {
    let (mut s, a, _b, _c, _t) = sample();
    let copy = s.deep_copy(a).unwrap();
    assert_ne!(copy, a);
    assert_eq!(s.parent(copy).unwrap(), None);
    assert_eq!(s.string_value(copy).unwrap(), "hi");
    assert_eq!(s.children(copy).unwrap().len(), 2);
    // Mutating the copy leaves the original alone.
    let nc = s.children(copy).unwrap()[0];
    s.apply(RedoOp::Detach { node: nc }).unwrap();
    assert_eq!(s.children(a).unwrap().len(), 2);
}

#[test]
fn document_order_within_tree() {
    let (s, a, b, c, t) = sample();
    assert_eq!(s.cmp_doc_order(a, b).unwrap(), Ordering::Less);
    assert_eq!(s.cmp_doc_order(b, t).unwrap(), Ordering::Less);
    assert_eq!(s.cmp_doc_order(t, c).unwrap(), Ordering::Less);
    assert_eq!(s.cmp_doc_order(c, c).unwrap(), Ordering::Equal);
    let x = s.attribute_by_name(c, "x").unwrap().unwrap();
    // Attribute after its element.
    assert_eq!(s.cmp_doc_order(c, x).unwrap(), Ordering::Less);
}

#[test]
fn document_order_across_trees_is_stable() {
    let mut s = Store::new();
    let r1 = s.new_element(q("r1"));
    let r2 = s.new_element(q("r2"));
    let o = s.cmp_doc_order(r1, r2).unwrap();
    assert_eq!(o, s.cmp_doc_order(r1, r2).unwrap());
    assert_eq!(o.reverse(), s.cmp_doc_order(r2, r1).unwrap());
}

#[test]
fn order_tracks_mutation() {
    let mut s = Store::new();
    let p = s.new_element(q("p"));
    let c1 = s.new_element(q("c1"));
    let c2 = s.new_element(q("c2"));
    s.append_child(p, c1).unwrap();
    s.append_child(p, c2).unwrap();
    assert_eq!(s.cmp_doc_order(c1, c2).unwrap(), Ordering::Less);
    // Move c1 after c2.
    s.apply(RedoOp::Detach { node: c1 }).unwrap();
    s.apply(insert(&[c1], p, InsertAnchor::After(c2))).unwrap();
    assert_eq!(s.cmp_doc_order(c1, c2).unwrap(), Ordering::Greater);
}

#[test]
fn sort_and_dedup() {
    let (s, a, b, c, t) = sample();
    let mut v = vec![c, t, a, b, c, a];
    s.sort_and_dedup(&mut v).unwrap();
    assert_eq!(v, vec![a, b, t, c]);
}

#[test]
fn descendants_preorder() {
    let (s, a, b, c, t) = sample();
    assert_eq!(s.descendants(a).unwrap(), vec![b, t, c]);
    assert_eq!(s.descendants(t).unwrap(), Vec::<NodeId>::new());
}

#[test]
fn garbage_accounting_and_collection() {
    let (mut s, a, b, _c, _t) = sample();
    s.apply(RedoOp::Detach { node: b }).unwrap();
    // Root set = {a}: b's subtree (b + text) is garbage.
    let st = s.stats(&[a]).unwrap();
    assert_eq!(st.alive, 5);
    assert_eq!(st.reachable, 3);
    assert_eq!(st.garbage, 2);
    // Holding b keeps its subtree alive.
    let st2 = s.stats(&[a, b]).unwrap();
    assert_eq!(st2.garbage, 0);
    let reclaimed = s.collect_garbage(&[a]).unwrap();
    assert_eq!(reclaimed, 2);
    assert!(!s.is_alive(b));
    assert!(s.kind(b).is_err());
    assert_eq!(s.len(), 3);
    // Reclaimed slots are reused rather than growing the arena.
    let n = s.new_element(q("reused"));
    assert!(n.index() < 5, "allocation should reuse a freed slot");
    assert!(s.is_alive(n));
}

#[test]
fn reachability_follows_parents() {
    // Holding an inner node keeps the whole tree (via root()) alive.
    let (mut s, a, b, _c, _t) = sample();
    let st = s.stats(&[b]).unwrap();
    assert_eq!(st.reachable, 5);
    let reclaimed = s.collect_garbage(&[b]).unwrap();
    assert_eq!(reclaimed, 0);
    assert!(s.is_alive(a));
}

#[test]
fn dangling_ids_error() {
    let mut s = Store::new();
    let a = s.new_element(q("a"));
    let b = s.new_element(q("b"));
    s.collect_garbage(&[a]).unwrap();
    assert_eq!(s.kind(b).unwrap_err().code, "XQB0001");
    assert!(s.parent(b).is_err());
    assert!(s.apply(RedoOp::Detach { node: b }).is_err());
}

#[test]
fn set_text_and_attribute_value() {
    let (mut s, _a, _b, c, t) = sample();
    let set_text = |node, content: &str| RedoOp::SetText {
        node,
        content: content.into(),
    };
    let set_value = |node, value: &str| RedoOp::SetAttrValue {
        node,
        value: value.into(),
    };
    s.apply(set_text(t, "bye")).unwrap();
    assert_eq!(s.string_value(t).unwrap(), "bye");
    let x = s.attribute_by_name(c, "x").unwrap().unwrap();
    s.apply(set_value(x, "2")).unwrap();
    assert_eq!(s.string_value(x).unwrap(), "2");
    assert!(s.apply(set_text(c, "no")).is_err());
    assert!(s.apply(set_value(t, "no")).is_err());
}

#[test]
fn gap_keys_survive_pathological_insertion_order() {
    // Repeatedly insert at the front and in the middle: forces gap
    // splitting and eventually renumbering; order must stay correct.
    let mut s = Store::new();
    let p = s.new_element(q("p"));
    let mut expected: Vec<NodeId> = Vec::new();
    for i in 0..200 {
        let c = s.new_element(q(&format!("c{i}")));
        let at = i % (expected.len() + 1);
        let anchor = if at == 0 {
            InsertAnchor::First
        } else {
            InsertAnchor::After(expected[at - 1])
        };
        s.apply(insert(&[c], p, anchor)).unwrap();
        expected.insert(at, c);
    }
    assert_eq!(s.children(p).unwrap(), &expected[..]);
    // Gap keys and the scan baseline must agree on every pair.
    for w in expected.windows(2) {
        assert_eq!(s.cmp_doc_order(w[0], w[1]).unwrap(), Ordering::Less);
        assert_eq!(s.cmp_doc_order_scan(w[0], w[1]).unwrap(), Ordering::Less);
    }
}

#[test]
fn gap_keys_force_renumbering() {
    // Keep inserting right after the first child: halves the gap each
    // time, so ~60 insertions must trigger at least one renumber.
    let mut s = Store::new();
    let p = s.new_element(q("p"));
    let first = s.new_element(q("first"));
    s.append_child(p, first).unwrap();
    for i in 0..100 {
        let c = s.new_element(q(&format!("c{i}")));
        s.apply(insert(&[c], p, InsertAnchor::After(first)))
            .unwrap();
    }
    let children = s.children(p).unwrap().to_vec();
    assert_eq!(children.len(), 101);
    assert_eq!(children[0], first);
    for w in children.windows(2) {
        assert_eq!(s.cmp_doc_order(w[0], w[1]).unwrap(), Ordering::Less);
    }
    // Most-recent insertion is closest to `first`.
    assert_eq!(s.name(children[1]).unwrap().unwrap().local, "c99");
}

#[test]
fn scan_and_gap_order_agree_after_moves() {
    let (mut s, a, b, c, t) = sample();
    s.apply(RedoOp::Detach { node: b }).unwrap();
    s.apply(insert(&[b], a, InsertAnchor::After(c))).unwrap();
    for &x in &[a, b, c, t] {
        for &y in &[a, b, c, t] {
            assert_eq!(
                s.cmp_doc_order(x, y).unwrap(),
                s.cmp_doc_order_scan(x, y).unwrap(),
                "disagreement on ({x}, {y})"
            );
        }
    }
}

#[test]
fn duplicate_attribute_rejected() {
    let mut s = Store::new();
    let e = s.new_element(q("e"));
    let a1 = s.new_attribute(q("k"), "1");
    let a2 = s.new_attribute(q("k"), "2");
    s.attach_attribute(e, a1).unwrap();
    assert!(s.attach_attribute(e, a2).is_err());
}

/// Observable snapshot of a whole store: every alive node's identity,
/// kind payload, parent, children, attributes, plus the relative
/// document order of all alive pairs. Order keys are compared only
/// relatively (renumbering is an invisible implementation detail).
fn observable(s: &Store) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let alive: Vec<NodeId> = (0..s.slots.len() as u32)
        .map(NodeId)
        .filter(|&n| s.is_alive(n))
        .collect();
    for &n in &alive {
        writeln!(
            out,
            "{n}: kind={:?} parent={:?} children={:?} attrs={:?}",
            s.kind(n).unwrap(),
            s.parent(n).unwrap(),
            s.children(n).unwrap(),
            s.attributes(n).unwrap()
        )
        .unwrap();
    }
    for &x in &alive {
        for &y in &alive {
            if s.root(x).unwrap() == s.root(y).unwrap() {
                writeln!(out, "cmp({x},{y})={:?}", s.cmp_doc_order(x, y).unwrap()).unwrap();
            }
        }
    }
    writeln!(out, "free={:?}", s.slots.free()).unwrap();
    out
}

#[test]
fn rollback_survives_renumbering() {
    // Force an okey renumber inside the frame: the rollback must
    // restore a consistent relative order for the survivors.
    let mut s = Store::new();
    let p = s.new_element(q("p"));
    let first = s.new_element(q("first"));
    let second = s.new_element(q("second"));
    s.append_child(p, first).unwrap();
    s.append_child(p, second).unwrap();
    let before = observable(&s);
    s.begin_frame();
    for i in 0..100 {
        let c = s.new_element(q(&format!("c{i}")));
        s.apply(insert(&[c], p, InsertAnchor::After(first)))
            .unwrap();
    }
    s.rollback_frame();
    assert_eq!(observable(&s), before);
}

#[test]
fn commit_clears_journal_and_keeps_state() {
    let (mut s, a, _b, _c, _t) = sample();
    s.begin_frame();
    let n = s.new_element(q("n"));
    s.append_child(a, n).unwrap();
    s.commit_frame();
    assert_eq!(s.frame_depth(), 0);
    assert!(
        s.journal.undo_len() == 0,
        "outermost commit should free the journal"
    );
    assert_eq!(s.parent(n).unwrap(), Some(a));
}

#[test]
fn frame_allocations_lists_fresh_nodes() {
    let mut s = Store::new();
    s.begin_frame();
    let a = s.new_element(q("a"));
    let b = s.new_text("t");
    let mut allocs = s.frame_allocations();
    allocs.sort();
    assert_eq!(allocs, vec![a, b]);
    s.commit_frame();
    assert!(s.frame_allocations().is_empty());
}

#[test]
fn string_value_survives_million_deep_chain() {
    // Hostile input: a 1M-element single chain. The old recursive
    // collect_text overflowed the thread stack (an abort, not an
    // error); the iterative rewrite must walk it and find the one
    // text leaf at the bottom.
    let mut s = Store::new();
    let root = s.new_element(q("d"));
    let mut cur = root;
    for _ in 0..1_000_000 {
        let next = s.new_element(q("d"));
        s.append_child(cur, next).unwrap();
        cur = next;
    }
    let leaf = s.new_text("bottom");
    s.append_child(cur, leaf).unwrap();
    assert_eq!(s.string_value(root).unwrap(), "bottom");
}

#[test]
fn reclaim_unreachable_is_targeted() {
    let (mut s, a, b, _c, _t) = sample();
    s.apply(RedoOp::Detach { node: b }).unwrap(); // pre-existing garbage: b + its text
    let orphan = s.new_element(q("orphan"));
    let kept = s.new_element(q("kept"));
    s.append_child(a, kept).unwrap();
    let n = s.reclaim_unreachable(&[orphan, kept], &[a]).unwrap();
    assert_eq!(n, 1);
    assert!(!s.is_alive(orphan));
    assert!(s.is_alive(kept));
    // Pre-existing garbage outside the candidate set is untouched.
    assert!(s.is_alive(b));
}

#[test]
fn reclaim_spares_candidates_above_a_survivor() {
    // `kept` predates the sweep and is no candidate; the fresh tree it
    // was moved into may not be retired from under it.
    let (mut s, a, _b, _c, _t) = sample();
    let kept = s.new_element(q("kept"));
    let outer = s.new_element(q("outer"));
    let inner = s.new_element(q("inner"));
    let lone = s.new_element(q("lone"));
    s.append_child(outer, inner).unwrap();
    s.append_child(inner, kept).unwrap();
    let n = s.reclaim_unreachable(&[outer, inner, lone], &[a]).unwrap();
    assert_eq!(n, 1);
    assert!(!s.is_alive(lone));
    assert_eq!(s.parent(kept).unwrap(), Some(inner));
    assert_eq!(s.parent(inner).unwrap(), Some(outer));
}

#[test]
fn failed_and_no_op_mutations_log_nothing() {
    let dir = std::env::temp_dir().join(format!("xqb_store_nolog_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (mut s, _) = Store::open_durable(&dir, crate::SyncMode::Off).unwrap();
    let a = s.new_element(q("a"));
    let b = s.new_element(q("b"));
    let t = s.new_text("hi");
    s.append_child(a, b).unwrap();
    s.append_child(b, t).unwrap();
    let loose = s.new_element(q("loose"));
    s.wal_commit().unwrap();
    assert!(s.apply(insert(&[b], a, InsertAnchor::Last)).is_err());
    let op = rename_to(&mut s, t, "nope");
    assert!(s.apply(op).is_err());
    s.apply(RedoOp::Detach { node: loose }).unwrap(); // already parentless: a no-op
    assert_eq!(s.journal.forward.len(), 0);
    drop(s);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_collect_is_atomic() {
    let (mut s, a, b, _c, _t) = sample();
    s.apply(RedoOp::Detach { node: b }).unwrap();
    let before = s.fingerprint();
    // A repeated id fails on its second visit, a dead one on its first:
    // neither may retire the ids before it.
    for ids in [vec![b, b], vec![b, NodeId(9_999)]] {
        assert!(s.apply(RedoOp::Collect { ids: ids.into() }).is_err());
        assert!(s.is_alive(b));
        assert_eq!(s.fingerprint(), before);
    }
    // A collection that did happen rolls back with its frame.
    s.begin_frame();
    assert_eq!(s.collect_garbage(&[a]).unwrap(), 2);
    s.rollback_frame();
    assert!(s.is_alive(b));
    assert_eq!(s.fingerprint(), before);
}

#[test]
fn snapshots_share_the_symbol_table_until_a_new_name() {
    let (s, ..) = sample();
    let mut fork = s.snapshot();
    assert!(
        std::ptr::eq(s.symbols(), fork.symbols()),
        "a snapshot copies no table"
    );
    // A name the table holds is looked up, not interned: still shared.
    let known = fork.new_element(q("b"));
    assert!(std::ptr::eq(s.symbols(), fork.symbols()));
    // A new name copies the fork's table, and only the fork's.
    let fresh = fork.new_element(q("brand-new"));
    assert!(!std::ptr::eq(s.symbols(), fork.symbols()));
    assert_eq!(s.symbols().lookup("brand-new"), None);
    assert_eq!(fork.name(fresh).unwrap(), Some(q("brand-new")));
    assert_eq!(fork.name(known).unwrap(), Some(q("b")));
    // The copy kept every id the original handed out.
    for name in ["a", "b", "c", "x"] {
        assert_eq!(fork.symbols().lookup(name), s.symbols().lookup(name));
    }
}
