//! Pending update lists Δ and their application (paper §3.2, §3.4, §4.1).
//!
//! An *update request* is "a tuple that contains the operation name and its
//! parameters"; its application is a partial function from stores to stores.
//! Here a request is the store's own op, [`RedoOp`] — the value
//! [`Store::apply`] executes (and checks the preconditions of) and the redo
//! log encodes — so a Δ is a list of them, collected during evaluation
//! inside a `snap` scope and applied when the scope closes. Six ops occur in
//! a Δ: `Insert`, `AttachAttr`, `Detach` (the paper's delete), `Rename`,
//! `SetText` and `SetAttrValue` (`replace value of`). `replace` appears as
//! the insert (or attribute attaches) plus detach its rule decomposes into.
//!
//! ## Application: the three semantics of §3.2
//!
//! * **Ordered**: ops apply in Δ order. Simple and deterministic, but most
//!   constraining for an optimizer.
//! * **Nondeterministic**: ops apply in an arbitrary permutation, drawn from
//!   a seeded RNG so runs are reproducible when a seed is fixed.
//! * **Conflict-detection**: two-phase — linear-time verification
//!   ([`verify_conflict_free`]), then order-independent application (Δ
//!   order, which by verification is equivalent to any other).
//!
//! Application is **atomic** in every mode: it runs inside a store undo
//! frame ([`Store::begin_frame`]), and when any op fails its precondition the
//! frame is rolled back before the error propagates, so the paper's `apply Δ
//! to store0` judgment either produces the updated store or leaves `store0`
//! untouched — never a prefix of Δ.
//!
//! ## Conflict rules
//!
//! Verification "tries to prove, by some simple rules, that the update
//! sequence is actually conflict-free, meaning that the ordered application
//! of every permutation of Δ would produce the same result", in **linear
//! time using a pair of hash tables over node ids** (§4.1) — the claim
//! experiment E2 measures. A Δ is conflict-free when none of the following
//! hold:
//!
//! 1. **rename/rename**: two renames of the same node to different names
//!    (whichever applies last wins); likewise two different values set on
//!    one node;
//! 2. **insert/insert (same node)**: the same node appears in the payload
//!    of two inserts or attaches (whichever applies second fails its
//!    parentless precondition — which one fails depends on order);
//! 3. **insert/insert (same slot)**: two inserts target the same insertion
//!    slot `(parent, anchor)`, or two attaches the same element (attributes
//!    only append) — the relative order of the payloads depends on
//!    application order;
//! 4. **delete/anchor**: a node is deleted and also used as the `After`
//!    anchor of an insert (once detached it is no longer a child of the
//!    insertion parent, so one order fails and the other succeeds);
//! 5. **delete/insert (same node)**: a node is both deleted and inserted
//!    (final attachment depends on order);
//! 6. **attribute free/claim**: one op *frees* an `(element,
//!    attribute-name)` slot — detaches the attribute, or renames it away —
//!    and another *claims* it — attaches an attribute of that name, or
//!    renames one to it. Claiming first fails on the duplicate name,
//!    freeing first succeeds. An attribute takes every name and owner Δ
//!    gives it (its current ones, its rename target, its attach target), so
//!    this rule reads the store and runs as a second linear pass.
//!
//! Duplicate deletes are *not* conflicts: detach is idempotent. A rename
//! combined with a delete of the same element commutes (renaming a
//! detached node is legal); for an attribute, rule 6 decides. As the paper
//! concedes, these rules "rule out many reasonable pieces of code" — e.g.
//! two independent appends to the same log element (rule 3) — which is why
//! ordered mode stays the default.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use xqdm::store::InsertAnchor;
use xqdm::{NodeId, NodeKind, QNameId, RedoOp, Store, XdmError, XdmResult};

pub use xqsyn::ast::SnapMode;

/// A pending update list Δ: the store ops of one `snap` scope, in the
/// order the language semantics (left-to-right evaluation) emitted them.
/// Whether application *honours* that order depends on the snap mode.
pub type Delta = Vec<RedoOp<'static>>;

/// Apply `delta` to `store` under the given snap mode, atomically: on
/// error the store is rolled back to its state at the call. `seed` drives
/// the nondeterministic permutation (callers thread a per-engine counter
/// through so successive snaps use different permutations).
pub fn apply_delta(
    store: &mut Store,
    mut delta: Delta,
    mode: SnapMode,
    seed: u64,
) -> XdmResult<()> {
    match mode {
        // Verification only reads, so it runs before the frame opens; a
        // rejected Δ costs no journal traffic.
        SnapMode::ConflictDetection => verify_conflict_free(store, &delta)?,
        SnapMode::Nondeterministic => delta.shuffle(&mut StdRng::seed_from_u64(seed)),
        SnapMode::Ordered => {}
    }
    store.begin_frame();
    store.journal_reserve(delta.len());
    for op in delta {
        if let Err(e) = store.apply(op) {
            store.rollback_frame();
            return Err(e);
        }
    }
    store.commit_frame();
    Ok(())
}

/// Per-node write flags — the first of the two hash tables.
#[derive(Debug, Default)]
struct NodeFlags<'d> {
    renamed_to: Option<QNameId>,
    value_set_to: Option<&'d str>,
    deleted: bool,
    inserted: bool,
    /// The element an `AttachAttr` of Δ attaches this node to.
    attached_to: Option<NodeId>,
}

/// An insertion slot — key of the second hash table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Slot {
    First(NodeId),
    Last(NodeId),
    After(NodeId),
    Attributes(NodeId),
}

/// Verify that `delta`, about to apply to `store`, is conflict-free.
/// Returns the offending description (`XQB0010`) on conflict. Linear
/// time: one pass over two hash tables, then rule 6's pass over the
/// attribute ops.
pub fn verify_conflict_free(store: &Store, delta: &[RedoOp<'_>]) -> XdmResult<()> {
    let mut node_flags: HashMap<NodeId, NodeFlags> = HashMap::new();
    let mut slots: HashSet<Slot> = HashSet::new();
    // Anchors used by inserts, checked against deletes (rule 4).
    let mut anchors_used: HashSet<NodeId> = HashSet::new();
    let name = |q: QNameId| store.symbols().qname_string(q);

    for op in delta {
        match op {
            RedoOp::Rename { node, name: to } => {
                let flags = node_flags.entry(*node).or_default();
                match flags.renamed_to {
                    Some(prev) if prev != *to => {
                        return Err(conflict(format!(
                            "node {node} renamed to both \"{}\" and \"{}\"",
                            name(prev),
                            name(*to)
                        )));
                    }
                    _ => flags.renamed_to = Some(*to),
                }
            }
            RedoOp::SetText {
                node,
                content: value,
            }
            | RedoOp::SetAttrValue { node, value } => {
                // Same shape as rename: two value sets on one node
                // observe application order unless they agree.
                let flags = node_flags.entry(*node).or_default();
                match flags.value_set_to {
                    Some(prev) if prev != value => {
                        return Err(conflict(format!(
                            "node {node} value set to both \"{prev}\" and \"{value}\""
                        )));
                    }
                    _ => flags.value_set_to = Some(value),
                }
            }
            RedoOp::Detach { node } => {
                let flags = node_flags.entry(*node).or_default();
                flags.deleted = true;
                if flags.inserted {
                    return Err(conflict(format!(
                        "node {node} is both inserted and deleted"
                    )));
                }
                if anchors_used.contains(node) {
                    return Err(conflict(format!(
                        "node {node} is deleted and used as an insertion anchor"
                    )));
                }
            }
            RedoOp::AttachAttr { element, attr } => {
                if !slots.insert(Slot::Attributes(*element)) {
                    return Err(conflict(format!("two attributes attached to {element}")));
                }
                mark_inserted(&mut node_flags, *attr)?.attached_to = Some(*element);
            }
            RedoOp::Insert {
                seq,
                parent,
                anchor,
            } => {
                let slot = match anchor {
                    InsertAnchor::First => Slot::First(*parent),
                    InsertAnchor::Last => Slot::Last(*parent),
                    InsertAnchor::After(pos) => Slot::After(*pos),
                };
                if !slots.insert(slot) {
                    return Err(conflict(format!(
                        "two inserts target the same slot under {parent}"
                    )));
                }
                if let InsertAnchor::After(pos) = anchor {
                    anchors_used.insert(*pos);
                    if node_flags.get(pos).is_some_and(|f| f.deleted) {
                        return Err(conflict(format!(
                            "node {pos} is deleted and used as an insertion anchor"
                        )));
                    }
                }
                for n in seq.iter() {
                    mark_inserted(&mut node_flags, *n)?;
                }
            }
            // The store's own ops; no Δ holds them.
            RedoOp::Alloc { .. } | RedoOp::Collect { .. } => {}
        }
    }

    // Rule 6, over every (owner, name) an attribute takes in Δ.
    let attribute = |n: NodeId| matches!(store.kind(n), Ok(NodeKind::Attribute { .. }));
    let names = |n: NodeId| {
        let flags = node_flags.get(&n);
        let current = store.name_id(n).ok().flatten();
        let renamed = flags.and_then(|f| f.renamed_to);
        current
            .into_iter()
            .chain(renamed.filter(|&r| Some(r) != current))
    };
    let owners = |n: NodeId| {
        let current = store.parent(n).ok().flatten();
        let attached = node_flags.get(&n).and_then(|f| f.attached_to);
        current
            .into_iter()
            .chain(attached.filter(|&a| Some(a) != current))
    };
    // Each (owner, name) slot remembers whether it was claimed (`true`)
    // or freed; the other use of the same slot is the conflict.
    let mut attr_slots: HashMap<(NodeId, QNameId), bool> = HashMap::new();
    let mut touch =
        |owner: NodeId, n: QNameId, claims: bool| match attr_slots.insert((owner, n), claims) {
            Some(prior) if prior != claims => Err(conflict(format!(
                "attribute \"{}\" of {owner} is both freed and claimed",
                name(n)
            ))),
            _ => Ok(()),
        };
    for op in delta {
        match op {
            RedoOp::AttachAttr { element, attr } => {
                for n in names(*attr) {
                    touch(*element, n, true)?;
                }
            }
            RedoOp::Detach { node } if attribute(*node) => {
                for owner in owners(*node) {
                    for n in names(*node) {
                        touch(owner, n, false)?;
                    }
                }
            }
            RedoOp::Rename { node, name: to } if attribute(*node) => {
                for owner in owners(*node) {
                    for n in names(*node).filter(|n| n != to) {
                        touch(owner, n, false)?;
                    }
                    touch(owner, *to, true)?;
                }
            }
            _ => {}
        }
    }
    Ok(())
}

/// Record `n` as an insert payload (rules 2 and 5).
fn mark_inserted<'f, 'd>(
    node_flags: &'f mut HashMap<NodeId, NodeFlags<'d>>,
    n: NodeId,
) -> XdmResult<&'f mut NodeFlags<'d>> {
    match node_flags.entry(n) {
        Entry::Occupied(e) => {
            let flags = e.into_mut();
            if flags.inserted {
                return Err(conflict(format!("node {n} inserted twice")));
            }
            if flags.deleted {
                return Err(conflict(format!("node {n} is both inserted and deleted")));
            }
            flags.inserted = true;
            Ok(flags)
        }
        Entry::Vacant(e) => Ok(e.insert(NodeFlags {
            inserted: true,
            ..Default::default()
        })),
    }
}

fn conflict(msg: String) -> XdmError {
    XdmError::new("XQB0010", format!("update conflict: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqdm::QName;

    /// `p` with children `a`, `b`.
    fn setup() -> (Store, NodeId, NodeId, NodeId) {
        let mut s = Store::new();
        let p = s.new_element(QName::local("p"));
        let a = s.new_element(QName::local("a"));
        let b = s.new_element(QName::local("b"));
        s.append_child(p, a).unwrap();
        s.append_child(p, b).unwrap();
        (s, p, a, b)
    }

    fn ins(seq: Vec<NodeId>, parent: NodeId, anchor: InsertAnchor) -> RedoOp<'static> {
        RedoOp::Insert {
            seq: seq.into(),
            parent,
            anchor,
        }
    }

    fn rename(s: &mut Store, node: NodeId, name: &str) -> RedoOp<'static> {
        let name = s.intern_qname(&QName::local(name));
        RedoOp::Rename { node, name }
    }

    fn detach(node: NodeId) -> RedoOp<'static> {
        RedoOp::Detach { node }
    }

    fn names(s: &Store, p: NodeId) -> Vec<String> {
        s.children(p)
            .unwrap()
            .iter()
            .map(|&c| s.name(c).unwrap().unwrap().local)
            .collect()
    }

    /// A parent with one child `c0` and a Δ appending `k` fresh children,
    /// each anchored after the previous one (conflict-free).
    fn conflict_free_delta(k: usize) -> (Store, NodeId, Delta) {
        let mut s = Store::new();
        let p = s.new_element(QName::local("p"));
        let first = s.new_element(QName::local("c0"));
        s.append_child(p, first).unwrap();
        let mut d = Delta::new();
        let mut anchor = first;
        for i in 1..=k {
            let c = s.new_element(QName::local(format!("c{i}")));
            d.push(ins(vec![c], p, InsertAnchor::After(anchor)));
            anchor = c;
        }
        (s, p, d)
    }

    #[test]
    fn ordered_applies_in_delta_order() {
        let (mut s, p, d) = conflict_free_delta(4);
        apply_delta(&mut s, d, SnapMode::Ordered, 0).unwrap();
        assert_eq!(names(&s, p), ["c0", "c1", "c2", "c3", "c4"]);
    }

    #[test]
    fn conflict_detection_accepts_conflict_free() {
        let (mut s, p, d) = conflict_free_delta(4);
        apply_delta(&mut s, d, SnapMode::ConflictDetection, 0).unwrap();
        assert_eq!(s.children(p).unwrap().len(), 5);
    }

    #[test]
    fn conflict_detection_rejects_conflicting() {
        let mut s = Store::new();
        let p = s.new_element(QName::local("p"));
        let a = s.new_element(QName::local("a"));
        let b = s.new_element(QName::local("b"));
        let d = vec![
            ins(vec![a], p, InsertAnchor::Last),
            ins(vec![b], p, InsertAnchor::Last),
        ];
        let err = apply_delta(&mut s, d, SnapMode::ConflictDetection, 0).unwrap_err();
        assert_eq!(err.code, "XQB0010");
        // Verification failed => nothing was applied.
        assert!(s.children(p).unwrap().is_empty());
    }

    #[test]
    fn nondeterministic_order_varies_with_seed_but_both_succeed() {
        // Independent renames commute: every permutation gives the same
        // result, so nondeterministic mode must succeed for any seed.
        for seed in 0..8 {
            let mut s = Store::new();
            let nodes: Vec<_> = (0..6)
                .map(|i| s.new_element(QName::local(format!("n{i}"))))
                .collect();
            let d: Delta = nodes
                .iter()
                .enumerate()
                .map(|(i, &n)| rename(&mut s, n, &format!("r{i}")))
                .collect();
            apply_delta(&mut s, d, SnapMode::Nondeterministic, seed).unwrap();
            for (i, &n) in nodes.iter().enumerate() {
                assert_eq!(s.name(n).unwrap().unwrap().local, format!("r{i}"));
            }
        }
    }

    #[test]
    fn nondeterministic_exposes_order_dependence() {
        // Two appends to the same parent land in seed-dependent order:
        // collect the child orders over several seeds and check both
        // outcomes occur — that's what "arbitrary order" means.
        let mut seen = HashSet::new();
        for seed in 0..32 {
            let mut s = Store::new();
            let p = s.new_element(QName::local("p"));
            let a = s.new_element(QName::local("a"));
            let b = s.new_element(QName::local("b"));
            let d = vec![
                ins(vec![a], p, InsertAnchor::Last),
                ins(vec![b], p, InsertAnchor::Last),
            ];
            apply_delta(&mut s, d, SnapMode::Nondeterministic, seed).unwrap();
            seen.insert(names(&s, p).join(","));
        }
        assert_eq!(
            seen.len(),
            2,
            "expected both application orders, saw {seen:?}"
        );
    }

    #[test]
    fn disjoint_updates_are_conflict_free() {
        let (mut s, p, a, b) = setup();
        let d = vec![
            rename(&mut s, a, "x"),
            detach(b),
            ins(vec![], p, InsertAnchor::First),
        ];
        assert!(verify_conflict_free(&s, &d).is_ok());
    }

    #[test]
    fn double_rename_same_name_ok_different_name_conflicts() {
        let (mut s, _, a, _) = setup();
        let same = vec![rename(&mut s, a, "x"), rename(&mut s, a, "x")];
        assert!(verify_conflict_free(&s, &same).is_ok());
        let diff = vec![rename(&mut s, a, "x"), rename(&mut s, a, "y")];
        let err = verify_conflict_free(&s, &diff).unwrap_err();
        assert!(err.message.contains("\"x\" and \"y\""), "{err}");
    }

    #[test]
    fn double_delete_is_idempotent_not_conflict() {
        let (s, _, a, _) = setup();
        assert!(verify_conflict_free(&s, &[detach(a), detach(a)]).is_ok());
    }

    #[test]
    fn rename_plus_delete_of_an_element_commutes() {
        let (mut s, _, a, _) = setup();
        let d = vec![rename(&mut s, a, "x"), detach(a)];
        assert!(verify_conflict_free(&s, &d).is_ok());
    }

    #[test]
    fn same_slot_inserts_conflict() {
        let (mut s, p, a, _) = setup();
        let n1 = s.new_element(QName::local("n1"));
        let n2 = s.new_element(QName::local("n2"));
        // Two appends to the same parent: the paper's "reasonable code"
        // that conflict detection nevertheless rules out.
        let d = vec![
            ins(vec![n1], p, InsertAnchor::Last),
            ins(vec![n2], p, InsertAnchor::Last),
        ];
        assert!(verify_conflict_free(&s, &d).is_err());
        // Different slots are fine.
        let d2 = vec![
            ins(vec![n1], p, InsertAnchor::First),
            ins(vec![n2], p, InsertAnchor::After(a)),
        ];
        assert!(verify_conflict_free(&s, &d2).is_ok());
    }

    #[test]
    fn node_inserted_twice_conflicts() {
        let (mut s, p, a, _) = setup();
        let n = s.new_element(QName::local("n"));
        let d = vec![
            ins(vec![n], p, InsertAnchor::First),
            ins(vec![n], p, InsertAnchor::After(a)),
        ];
        assert!(verify_conflict_free(&s, &d).is_err());
    }

    #[test]
    fn delete_of_anchor_conflicts_in_both_orders() {
        let (mut s, p, a, _) = setup();
        let n = s.new_element(QName::local("n"));
        let d = vec![detach(a), ins(vec![n], p, InsertAnchor::After(a))];
        assert!(verify_conflict_free(&s, &d).is_err());
        let d2 = vec![ins(vec![n], p, InsertAnchor::After(a)), detach(a)];
        assert!(verify_conflict_free(&s, &d2).is_err());
    }

    #[test]
    fn insert_and_delete_of_same_node_conflicts() {
        let (mut s, p, _, _) = setup();
        let n = s.new_element(QName::local("n"));
        let d = vec![ins(vec![n], p, InsertAnchor::First), detach(n)];
        assert!(verify_conflict_free(&s, &d).is_err());
    }

    /// `<e a="1" b="2"/>` plus a parentless attribute `fresh` named `a`.
    fn attribute_setup() -> (Store, NodeId, NodeId, NodeId, NodeId) {
        let mut s = Store::new();
        let e = s.new_element(QName::local("e"));
        let a = s.new_attribute(QName::local("a"), "1");
        let b = s.new_attribute(QName::local("b"), "2");
        s.attach_attribute(e, a).unwrap();
        s.attach_attribute(e, b).unwrap();
        let fresh = s.new_attribute(QName::local("a"), "new");
        (s, e, a, b, fresh)
    }

    #[test]
    fn freeing_and_claiming_one_attribute_name_conflicts_in_either_order() {
        let (mut s, e, a, b, fresh) = attribute_setup();
        // `replace $e/@a with attribute a {..}`: detach frees (e, a), the
        // attach claims it.
        let attach = RedoOp::AttachAttr {
            element: e,
            attr: fresh,
        };
        for d in [
            vec![detach(a), attach.clone()],
            vec![attach.clone(), detach(a)],
        ] {
            let err = verify_conflict_free(&s, &d).unwrap_err();
            assert!(err.message.contains("attribute \"a\""), "{err}");
        }
        // Renaming `b` onto a name `a` frees.
        let onto = rename(&mut s, b, "a");
        assert!(verify_conflict_free(&s, &[detach(a), onto.clone()]).is_err());
        // Renaming `a` away frees (e, a) for the attach.
        let away = rename(&mut s, a, "z");
        assert!(verify_conflict_free(&s, &[away, attach]).is_err());
        // Other names, or another element, do not interact.
        let other = rename(&mut s, b, "y");
        assert!(verify_conflict_free(&s, &[detach(a), other]).is_ok());
        let f = s.new_element(QName::local("f"));
        let elsewhere = RedoOp::AttachAttr {
            element: f,
            attr: fresh,
        };
        assert!(verify_conflict_free(&s, &[detach(a), elsewhere]).is_ok());
    }
}
