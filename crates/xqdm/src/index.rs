//! Secondary indexes over the node store (DESIGN.md §17).
//!
//! The [`IndexPlane`] is derived state maintained *underneath* the
//! paper's update semantics: the store's raw slot writers
//! (`store/slots.rs`) that change a node's name, value or liveness move
//! its entries in the same call, and forward execution, undo-journal
//! replay and log replay all write slots through them, so the plane is
//! exact across snap rollback, OCC retry and crash recovery (checkpoint
//! load rebuilds from the slots).
//!
//! Three components:
//!
//! * **Element-name index** — `QNameId → {alive element ids}`. Backs the
//!   `//T` descendant scans the planner marks `,idx`.
//! * **Attribute-value hash index** — `(QNameId, fnv64(value)) →
//!   {alive attribute ids}`. Backs `T[@a = "v"]` point lookups; buckets
//!   are keyed by a *hash* of the value, so lookups re-check the exact
//!   value (collisions cost a string compare, never a wrong answer).
//! * **Structural parent index** — the store's parent links themselves,
//!   consumed through the memoized containment checker the executor runs
//!   per scan (an index bucket is store-global; containment filters it
//!   to the scan's origin subtrees).
//!
//! Sharing follows the store's COW discipline: the outer maps and every
//! bucket sit behind [`Arc`]s, so [`crate::Store::snapshot`] forks the
//! whole plane by reference-count bumps and a writer unshares only the
//! buckets it touches (plus, once per fork, the outer map of `Arc`s).
//! The plane is *derived* — it never feeds the store fingerprint or any
//! on-disk format.

use crate::node::{NodeId, NodeKind};
use crate::pages::Pages;
use crate::symbols::QNameId;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// FNV-1a over an attribute value: the bucket key of the value index.
/// Stable across processes (same constants as the store fingerprint).
#[inline]
pub(crate) fn value_hash(value: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in value.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

type Bucket = Arc<HashSet<NodeId>>;

/// The store's secondary-index plane. Cheap to clone (Arc bumps); see
/// the module docs for the COW contract.
#[derive(Debug, Clone)]
pub(crate) struct IndexPlane {
    /// Alive elements by interned name.
    by_name: Arc<HashMap<QNameId, Bucket>>,
    /// Alive attributes by (interned name, value hash).
    by_attr: Arc<HashMap<(QNameId, u64), Bucket>>,
    /// Alive element count — the cost gate's selectivity denominator.
    elements: usize,
    /// Planner availability. Maintenance is unconditional (it is O(1)
    /// per affected mutation); this flag only gates plan selection.
    enabled: bool,
    /// Bumped on every enable/disable toggle; folded into plan-cache
    /// keys so a cached `,idx` plan can never outlive its index.
    epoch: u64,
}

impl Default for IndexPlane {
    fn default() -> Self {
        IndexPlane {
            by_name: Arc::new(HashMap::new()),
            by_attr: Arc::new(HashMap::new()),
            elements: 0,
            enabled: true,
            epoch: 0,
        }
    }
}

fn bucket_insert<K: std::hash::Hash + Eq + Copy>(
    map: &mut Arc<HashMap<K, Bucket>>,
    key: K,
    id: NodeId,
) {
    let map = Arc::make_mut(map);
    Arc::make_mut(map.entry(key).or_default()).insert(id);
}

fn bucket_remove<K: std::hash::Hash + Eq + Copy>(
    map: &mut Arc<HashMap<K, Bucket>>,
    key: K,
    id: NodeId,
) {
    let map = Arc::make_mut(map);
    if let Some(b) = map.get_mut(&key) {
        let set = Arc::make_mut(b);
        set.remove(&id);
        // Empty buckets are dropped so a rebuilt plane compares equal.
        if set.is_empty() {
            map.remove(&key);
        }
    }
}

impl IndexPlane {
    /// Is the plane visible to the planner?
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Toggle planner availability; bumps the epoch on a real change.
    pub(crate) fn set_enabled(&mut self, on: bool) {
        if self.enabled != on {
            self.enabled = on;
            self.epoch += 1;
        }
    }

    /// The availability epoch (see field docs).
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Alive element count.
    pub(crate) fn elements(&self) -> usize {
        self.elements
    }

    /// A node came alive (allocation, or an undone collection): insert
    /// its index entries.
    pub(crate) fn note_birth(&mut self, kind: &NodeKind, id: NodeId) {
        match kind {
            NodeKind::Element { name, .. } => {
                bucket_insert(&mut self.by_name, *name, id);
                self.elements += 1;
            }
            NodeKind::Attribute { name, value } => {
                bucket_insert(&mut self.by_attr, (*name, value_hash(value)), id);
            }
            _ => {}
        }
    }

    /// A node died (collection, or an undone allocation): remove its
    /// index entries.
    pub(crate) fn note_death(&mut self, kind: &NodeKind, id: NodeId) {
        match kind {
            NodeKind::Element { name, .. } => {
                bucket_remove(&mut self.by_name, *name, id);
                self.elements -= 1;
            }
            NodeKind::Attribute { name, value } => {
                bucket_remove(&mut self.by_attr, (*name, value_hash(value)), id);
            }
            _ => {}
        }
    }

    /// An element was renamed (`from` → `to`).
    pub(crate) fn move_element(&mut self, from: QNameId, to: QNameId, id: NodeId) {
        if from != to {
            bucket_remove(&mut self.by_name, from, id);
            bucket_insert(&mut self.by_name, to, id);
        }
    }

    /// An attribute's bucket key changed (rename or value write).
    pub(crate) fn move_attr(&mut self, from: (QNameId, u64), to: (QNameId, u64), id: NodeId) {
        if from != to {
            bucket_remove(&mut self.by_attr, from, id);
            bucket_insert(&mut self.by_attr, to, id);
        }
    }

    /// Size of a name bucket (0 when absent — which *is* an answer: no
    /// alive element bears the name).
    pub(crate) fn name_len(&self, name: QNameId) -> usize {
        self.by_name.get(&name).map_or(0, |b| b.len())
    }

    /// The name bucket, if any.
    pub(crate) fn name_bucket(&self, name: QNameId) -> Option<&HashSet<NodeId>> {
        self.by_name.get(&name).map(|b| b.as_ref())
    }

    /// Size of a value bucket (hash collisions inflate this by design;
    /// the gate only needs an upper bound).
    pub(crate) fn attr_len(&self, name: QNameId, vh: u64) -> usize {
        self.by_attr.get(&(name, vh)).map_or(0, |b| b.len())
    }

    /// The value bucket, if any. Callers must re-check the exact value.
    pub(crate) fn attr_bucket(&self, name: QNameId, vh: u64) -> Option<&HashSet<NodeId>> {
        self.by_attr.get(&(name, vh)).map(|b| b.as_ref())
    }

    /// Rebuild from scratch over the slot space, preserving the
    /// availability state (checkpoint recovery, and the proptest oracle).
    pub(crate) fn rebuild(nodes: &Pages, enabled: bool, epoch: u64) -> IndexPlane {
        let mut plane = IndexPlane {
            enabled,
            epoch,
            ..IndexPlane::default()
        };
        for (i, d) in nodes.iter().enumerate() {
            if d.alive {
                plane.note_birth(&d.kind, NodeId(i as u32));
            }
        }
        plane
    }

    /// Does this plane hold exactly the entries a from-scratch rebuild
    /// would? (Availability state is ignored — it is not derived.)
    pub(crate) fn matches_rebuild(&self, nodes: &Pages) -> bool {
        let fresh = IndexPlane::rebuild(nodes, self.enabled, self.epoch);
        self.elements == fresh.elements
            && *self.by_name == *fresh.by_name
            && *self.by_attr == *fresh.by_attr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qname::QName;
    use crate::store::Store;

    #[test]
    fn value_hash_is_fnv1a() {
        // Pinned: the empty-string FNV-1a offset basis.
        assert_eq!(value_hash(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(value_hash("a"), value_hash("b"));
    }

    #[test]
    fn maintenance_tracks_births_renames_and_deaths() {
        let mut s = Store::new();
        let a = s.new_element(QName::local("a"));
        let b = s.new_element(QName::local("a"));
        let x = s.new_attribute(QName::local("x"), "1");
        s.append_child(a, b).unwrap();
        s.attach_attribute(b, x).unwrap();
        assert!(s.index_verify());

        s.apply_rename(b, QName::local("c")).unwrap();
        s.set_attribute_value(x, "2").unwrap();
        assert!(s.index_verify());

        // Collect the whole forest away.
        s.detach(b).unwrap();
        s.collect_garbage(&[a]).unwrap();
        assert!(s.index_verify());
    }

    #[test]
    fn toggling_availability_bumps_the_epoch_once_per_change() {
        let mut s = Store::new();
        assert!(s.index_enabled());
        let e0 = s.index_epoch();
        s.set_indexing(true); // no-op
        assert_eq!(s.index_epoch(), e0);
        s.set_indexing(false);
        assert!(!s.index_enabled());
        assert_eq!(s.index_epoch(), e0 + 1);
        s.set_indexing(true);
        assert_eq!(s.index_epoch(), e0 + 2);
    }
}
