//! Conflict detection for update lists (paper §3.2, §4.1).
//!
//! In the *conflict-detection* snap mode, "update application is divided
//! into conflict verification followed by store modification. The first
//! phase tries to prove, by some simple rules, that the update sequence is
//! actually conflict-free, meaning that the ordered application of every
//! permutation of Δ would produce the same result." Verification runs in
//! **linear time using a pair of hash tables over node ids** (§4.1) — that
//! claim is exactly what experiment E2 measures.
//!
//! ## The rules
//!
//! A Δ is conflict-free when none of the following hold:
//!
//! 1. **rename/rename**: two renames of the same node to different names
//!    (whichever applies last wins, so the result is order-dependent);
//! 2. **insert/insert (same node)**: the same node appears in the payload
//!    of two inserts (whichever applies second fails its parentless
//!    precondition — which one fails depends on order);
//! 3. **insert/insert (same slot)**: two inserts target the same insertion
//!    slot `(parent, anchor)` — the relative order of the two payloads
//!    depends on application order;
//! 4. **delete/anchor**: a node is deleted and also used as the `After`
//!    anchor of an insert (once detached it is no longer a child of the
//!    insertion parent, so one order fails and the other succeeds);
//! 5. **delete/insert (same node)**: a node is both deleted and inserted
//!    (final attachment depends on order).
//!
//! Duplicate deletes are *not* conflicts: detach is idempotent. A rename
//! combined with a delete of the same node commutes (renaming a detached
//! node is legal). As the paper concedes, these rules "rule out many
//! reasonable pieces of code" — e.g. two independent appends to the same
//! log element (rule 3) — which is why ordered mode stays the default.

use crate::update::{Delta, UpdateRequest};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use xqdm::store::InsertAnchor;
use xqdm::{NodeId, QName, XdmError, XdmResult};

/// Per-node write flags — the first of the two hash tables.
#[derive(Debug, Default)]
struct NodeFlags {
    renamed_to: Option<QName>,
    value_set_to: Option<String>,
    deleted: bool,
    inserted: bool,
}

/// An insertion slot — key of the second hash table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Slot {
    First(NodeId),
    Last(NodeId),
    After(NodeId),
}

/// Verify that `delta` is conflict-free. Returns the offending description
/// on conflict. Linear time: one pass, two hash tables.
pub fn verify_conflict_free(delta: &Delta) -> XdmResult<()> {
    let mut node_flags: HashMap<NodeId, NodeFlags> = HashMap::new();
    let mut slots: HashSet<Slot> = HashSet::new();
    // Anchors used by inserts, checked against deletes (rule 4). Kept in the
    // node-flags table conceptually; tracked separately for clarity.
    let mut anchors_used: HashSet<NodeId> = HashSet::new();

    for req in delta.requests() {
        match req {
            UpdateRequest::Rename { node, name } => {
                let flags = node_flags.entry(*node).or_default();
                match &flags.renamed_to {
                    Some(prev) if prev != name => {
                        return Err(conflict(format!(
                            "node {node} renamed to both \"{prev}\" and \"{name}\""
                        )));
                    }
                    _ => flags.renamed_to = Some(name.clone()),
                }
            }
            UpdateRequest::SetValue { node, value } => {
                // Same shape as rename: two set-values on one node
                // observe application order unless they agree.
                let flags = node_flags.entry(*node).or_default();
                match &flags.value_set_to {
                    Some(prev) if prev != value => {
                        return Err(conflict(format!(
                            "node {node} value set to both \"{prev}\" and \"{value}\""
                        )));
                    }
                    _ => flags.value_set_to = Some(value.clone()),
                }
            }
            UpdateRequest::Delete { node } => {
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
            UpdateRequest::InsertAttributes { nodes, element } => {
                // Attribute order is insignificant (XDM), so two attribute
                // insertions on one element commute; only the payload-node
                // rules apply. (A duplicate attribute *name* fails in every
                // order — a uniform failure, not an order dependence.)
                let _ = element;
                for n in nodes {
                    match node_flags.entry(*n) {
                        Entry::Occupied(mut e) => {
                            let flags = e.get_mut();
                            if flags.inserted {
                                return Err(conflict(format!("node {n} inserted twice")));
                            }
                            if flags.deleted {
                                return Err(conflict(format!(
                                    "node {n} is both inserted and deleted"
                                )));
                            }
                            flags.inserted = true;
                        }
                        Entry::Vacant(e) => {
                            e.insert(NodeFlags {
                                inserted: true,
                                ..Default::default()
                            });
                        }
                    }
                }
            }
            UpdateRequest::Insert {
                nodes,
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
                    if node_flags.get(pos).map(|f| f.deleted).unwrap_or(false) {
                        return Err(conflict(format!(
                            "node {pos} is deleted and used as an insertion anchor"
                        )));
                    }
                }
                for n in nodes {
                    match node_flags.entry(*n) {
                        Entry::Occupied(mut e) => {
                            let flags = e.get_mut();
                            if flags.inserted {
                                return Err(conflict(format!("node {n} inserted twice")));
                            }
                            if flags.deleted {
                                return Err(conflict(format!(
                                    "node {n} is both inserted and deleted"
                                )));
                            }
                            flags.inserted = true;
                        }
                        Entry::Vacant(e) => {
                            e.insert(NodeFlags {
                                inserted: true,
                                ..Default::default()
                            });
                        }
                    }
                }
            }
        }
    }
    Ok(())
}

fn conflict(msg: String) -> XdmError {
    XdmError::new("XQB0010", format!("update conflict: {msg}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use xqdm::Store;

    fn setup() -> (Store, NodeId, NodeId, NodeId) {
        let mut s = Store::new();
        let p = s.new_element(QName::local("p"));
        let a = s.new_element(QName::local("a"));
        let b = s.new_element(QName::local("b"));
        s.append_child(p, a).unwrap();
        s.append_child(p, b).unwrap();
        (s, p, a, b)
    }

    fn ins(nodes: Vec<NodeId>, parent: NodeId, anchor: InsertAnchor) -> UpdateRequest {
        UpdateRequest::Insert {
            nodes,
            parent,
            anchor,
        }
    }

    #[test]
    fn disjoint_updates_are_conflict_free() {
        let (_, p, a, b) = setup();
        let d: Delta = vec![
            UpdateRequest::Rename {
                node: a,
                name: QName::local("x"),
            },
            UpdateRequest::Delete { node: b },
            ins(vec![], p, InsertAnchor::First),
        ]
        .into_iter()
        .collect();
        assert!(verify_conflict_free(&d).is_ok());
    }

    #[test]
    fn double_rename_same_name_ok_different_name_conflicts() {
        let (_, _, a, _) = setup();
        let same: Delta = vec![
            UpdateRequest::Rename {
                node: a,
                name: QName::local("x"),
            },
            UpdateRequest::Rename {
                node: a,
                name: QName::local("x"),
            },
        ]
        .into_iter()
        .collect();
        assert!(verify_conflict_free(&same).is_ok());
        let diff: Delta = vec![
            UpdateRequest::Rename {
                node: a,
                name: QName::local("x"),
            },
            UpdateRequest::Rename {
                node: a,
                name: QName::local("y"),
            },
        ]
        .into_iter()
        .collect();
        assert!(verify_conflict_free(&diff).is_err());
    }

    #[test]
    fn double_delete_is_idempotent_not_conflict() {
        let (_, _, a, _) = setup();
        let d: Delta = vec![
            UpdateRequest::Delete { node: a },
            UpdateRequest::Delete { node: a },
        ]
        .into_iter()
        .collect();
        assert!(verify_conflict_free(&d).is_ok());
    }

    #[test]
    fn rename_plus_delete_commutes() {
        let (_, _, a, _) = setup();
        let d: Delta = vec![
            UpdateRequest::Rename {
                node: a,
                name: QName::local("x"),
            },
            UpdateRequest::Delete { node: a },
        ]
        .into_iter()
        .collect();
        assert!(verify_conflict_free(&d).is_ok());
    }

    #[test]
    fn same_slot_inserts_conflict() {
        let (mut s, p, a, _) = setup();
        let n1 = s.new_element(QName::local("n1"));
        let n2 = s.new_element(QName::local("n2"));
        // Two appends to the same parent: the paper's "reasonable code"
        // that conflict detection nevertheless rules out.
        let d: Delta = vec![
            ins(vec![n1], p, InsertAnchor::Last),
            ins(vec![n2], p, InsertAnchor::Last),
        ]
        .into_iter()
        .collect();
        assert!(verify_conflict_free(&d).is_err());
        // Different slots are fine.
        let d2: Delta = vec![
            ins(vec![n1], p, InsertAnchor::First),
            ins(vec![n2], p, InsertAnchor::After(a)),
        ]
        .into_iter()
        .collect();
        assert!(verify_conflict_free(&d2).is_ok());
    }

    #[test]
    fn node_inserted_twice_conflicts() {
        let (mut s, p, a, _) = setup();
        let n = s.new_element(QName::local("n"));
        let d: Delta = vec![
            ins(vec![n], p, InsertAnchor::First),
            ins(vec![n], p, InsertAnchor::After(a)),
        ]
        .into_iter()
        .collect();
        assert!(verify_conflict_free(&d).is_err());
    }

    #[test]
    fn delete_of_anchor_conflicts_in_both_orders() {
        let (mut s, p, a, _) = setup();
        let n = s.new_element(QName::local("n"));
        let d: Delta = vec![
            UpdateRequest::Delete { node: a },
            ins(vec![n], p, InsertAnchor::After(a)),
        ]
        .into_iter()
        .collect();
        assert!(verify_conflict_free(&d).is_err());
        let d2: Delta = vec![
            ins(vec![n], p, InsertAnchor::After(a)),
            UpdateRequest::Delete { node: a },
        ]
        .into_iter()
        .collect();
        assert!(verify_conflict_free(&d2).is_err());
    }

    #[test]
    fn insert_and_delete_of_same_node_conflicts() {
        let (mut s, p, _, _) = setup();
        let n = s.new_element(QName::local("n"));
        let d: Delta = vec![
            ins(vec![n], p, InsertAnchor::First),
            UpdateRequest::Delete { node: n },
        ]
        .into_iter()
        .collect();
        assert!(verify_conflict_free(&d).is_err());
    }
}
