//! Secondary indexes over the node store (DESIGN.md §17).
//!
//! The [`IndexPlane`] is derived state maintained *underneath* the
//! paper's update semantics: the store's raw slot writers
//! (`store/slots.rs`) that change a node's name, value or liveness move
//! its entries in the same call, and forward execution, undo-journal
//! replay and log replay all write slots through them, so the plane is
//! exact across snap rollback and crash recovery (checkpoint
//! load rebuilds from the slots).
//!
//! Three components:
//!
//! * **Element-name index** — `QNameId → {alive element ids}`. Backs the
//!   `//T` descendant scans EXPLAIN marks `,idx`.
//! * **Attribute-value hash index** — `(QNameId, fnv64(value)) →
//!   {alive attribute ids}`. Backs `T[@a = "v"]` point lookups; buckets
//!   are keyed by a *hash* of the value, so lookups re-check the exact
//!   value (collisions cost a string compare, never a wrong answer).
//! * **Structural parent index** — the store's order segments and parent
//!   links (an index bucket is store-global; containment filters it to
//!   the scan's origin subtrees). A candidate inside a clean order
//!   segment rooted at an origin is contained by an id-range check
//!   ([`crate::store::Segment`], DESIGN.md §14); any other takes the
//!   memoized parent walk the executor runs per scan, O(depth).
//!
//! Sharing follows the store's COW discipline, at a grain fine enough
//! that a commit's index work does not grow with the index: each map is
//! split into [`SHARDS`] shards behind [`Arc`]s, a bucket holding one id
//! keeps it inline, and a bigger bucket keeps its ids in sorted chunks of
//! at most [`CHUNK`], each behind an `Arc`. [`crate::Store::snapshot`]
//! forks the whole plane by one reference-count bump per map; a writer
//! then unshares only the shard table, one shard, and the chunk it
//! touches. (Were a whole map or a whole bucket unshared per write, a log
//! that gains one uniquely-valued `<entry id=…>` per commit would copy
//! O(entries) per commit.)
//! The plane is *derived* — it never feeds the store fingerprint or any
//! on-disk format.

use crate::node::{NodeId, NodeKind};
use crate::pages::Pages;
use crate::symbols::QNameId;
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Shards per map: a write unshares one shard, 1/`SHARDS` of the map.
const SHARDS: usize = 64;
/// Most ids in one bucket chunk: a write unshares one chunk.
const CHUNK: usize = 256;

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

/// One index bucket: the ids under one key, ascending. A lone id — the
/// bucket of every distinct attribute value — is held inline, so cloning
/// a shard copies it without touching memory elsewhere; more ids sit in
/// [`Chunks`].
#[derive(Debug, Clone)]
pub(crate) enum Bucket {
    One(NodeId),
    Many(Arc<Chunks>),
}

impl Bucket {
    pub(crate) fn len(&self) -> usize {
        match self {
            Bucket::One(_) => 1,
            Bucket::Many(c) => c.len,
        }
    }

    /// The ids, ascending.
    pub(crate) fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        let (one, many) = match self {
            Bucket::One(id) => (Some(*id), None),
            Bucket::Many(c) => (None, Some(c.iter())),
        };
        one.into_iter().chain(many.into_iter().flatten())
    }

    fn insert(&mut self, id: NodeId) {
        match self {
            Bucket::One(x) if *x == id => {}
            Bucket::One(x) => {
                let mut c = Chunks::default();
                c.insert(*x);
                c.insert(id);
                *self = Bucket::Many(Arc::new(c));
            }
            Bucket::Many(c) => Arc::make_mut(c).insert(id),
        }
    }

    /// Remove `id`; true when the bucket is left empty.
    fn remove(&mut self, id: NodeId) -> bool {
        match self {
            Bucket::One(x) => *x == id,
            Bucket::Many(c) => {
                let c = Arc::make_mut(c);
                c.remove(id);
                c.len == 0
            }
        }
    }
}

/// Set equality: the representation depends on history, the ids do not.
impl PartialEq for Bucket {
    fn eq(&self, other: &Bucket) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

/// A bucket's ids, ascending, in COW chunks of at most [`CHUNK`] ids.
#[derive(Debug, Clone, Default)]
pub(crate) struct Chunks {
    len: usize,
    chunks: Vec<Arc<Vec<NodeId>>>,
}

impl Chunks {
    fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.chunks.iter().flat_map(|c| c.iter().copied())
    }

    /// The chunk `id` belongs in: the last one starting at or below it.
    fn chunk_of(&self, id: NodeId) -> usize {
        self.chunks
            .partition_point(|c| c[0] <= id)
            .saturating_sub(1)
    }

    fn insert(&mut self, id: NodeId) {
        if self.chunks.is_empty() {
            self.chunks.push(Arc::new(vec![id]));
            self.len = 1;
            return;
        }
        let i = self.chunk_of(id);
        let Err(pos) = self.chunks[i].binary_search(&id) else {
            return;
        };
        let full = self.chunks[i].len() >= CHUNK;
        if full && i + 1 == self.chunks.len() && pos == CHUNK {
            // Ids mostly arrive ascending: past a full last chunk, open a
            // new one rather than split.
            let mut chunk = Vec::with_capacity(CHUNK);
            chunk.push(id);
            self.chunks.push(Arc::new(chunk));
        } else {
            let chunk = Arc::make_mut(&mut self.chunks[i]);
            chunk.insert(pos, id);
            if full {
                let upper = chunk.split_off(chunk.len() / 2);
                self.chunks.insert(i + 1, Arc::new(upper));
            }
        }
        self.len += 1;
    }

    fn remove(&mut self, id: NodeId) {
        if self.chunks.is_empty() {
            return;
        }
        let i = self.chunk_of(id);
        let Ok(pos) = self.chunks[i].binary_search(&id) else {
            return;
        };
        let chunk = Arc::make_mut(&mut self.chunks[i]);
        chunk.remove(pos);
        if chunk.is_empty() {
            self.chunks.remove(i);
        }
        self.len -= 1;
    }
}

/// Buckets by key, in [`SHARDS`] COW shards chosen by a fixed hash of
/// the key (so two maps with the same entries shard them alike).
#[derive(Debug, Clone)]
struct ShardedMap<K> {
    shards: Arc<Vec<Arc<HashMap<K, Bucket>>>>,
}

impl<K> Default for ShardedMap<K> {
    fn default() -> Self {
        ShardedMap {
            shards: Arc::new((0..SHARDS).map(|_| Arc::new(HashMap::new())).collect()),
        }
    }
}

impl<K: Hash + Eq> PartialEq for ShardedMap<K> {
    fn eq(&self, other: &Self) -> bool {
        self.shards == other.shards
    }
}

impl<K: Hash + Eq + Clone> ShardedMap<K> {
    fn shard(key: &K) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % SHARDS as u64) as usize
    }

    fn get(&self, key: &K) -> Option<&Bucket> {
        self.shards[Self::shard(key)].get(key)
    }

    fn insert(&mut self, key: K, id: NodeId) {
        let shard = Arc::make_mut(&mut Arc::make_mut(&mut self.shards)[Self::shard(&key)]);
        match shard.entry(key) {
            Entry::Vacant(v) => {
                v.insert(Bucket::One(id));
            }
            Entry::Occupied(o) => o.into_mut().insert(id),
        }
    }

    fn remove(&mut self, key: K, id: NodeId) {
        let s = Self::shard(&key);
        if !self.shards[s].contains_key(&key) {
            return;
        }
        let shard = Arc::make_mut(&mut Arc::make_mut(&mut self.shards)[s]);
        // Empty buckets are dropped so a rebuilt plane compares equal.
        if shard.get_mut(&key).is_some_and(|b| b.remove(id)) {
            shard.remove(&key);
        }
    }
}

/// The store's secondary-index plane. Cheap to clone (Arc bumps); see
/// the module docs for the COW contract.
#[derive(Debug, Clone)]
pub(crate) struct IndexPlane {
    /// Alive elements by interned name.
    by_name: ShardedMap<QNameId>,
    /// Alive attributes by (interned name, value hash).
    by_attr: ShardedMap<(QNameId, u64)>,
    /// Availability to the executor's scans. Maintenance is
    /// unconditional (it is O(1) per affected mutation); this flag only
    /// gates whether a scan may read the plane.
    enabled: bool,
}

impl Default for IndexPlane {
    fn default() -> Self {
        IndexPlane {
            by_name: ShardedMap::default(),
            by_attr: ShardedMap::default(),
            enabled: true,
        }
    }
}

impl IndexPlane {
    /// May a scan read the plane?
    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Switch the plane's availability to scans on or off.
    pub(crate) fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// A node came alive (allocation, or an undone collection): insert
    /// its index entries.
    pub(crate) fn note_birth(&mut self, kind: &NodeKind, id: NodeId) {
        match kind {
            NodeKind::Element { name, .. } => {
                self.by_name.insert(*name, id);
            }
            NodeKind::Attribute { name, value } => {
                self.by_attr.insert((*name, value_hash(value)), id);
            }
            _ => {}
        }
    }

    /// A node died (collection, or an undone allocation): remove its
    /// index entries.
    pub(crate) fn note_death(&mut self, kind: &NodeKind, id: NodeId) {
        match kind {
            NodeKind::Element { name, .. } => {
                self.by_name.remove(*name, id);
            }
            NodeKind::Attribute { name, value } => {
                self.by_attr.remove((*name, value_hash(value)), id);
            }
            _ => {}
        }
    }

    /// An element was renamed (`from` → `to`).
    pub(crate) fn move_element(&mut self, from: QNameId, to: QNameId, id: NodeId) {
        if from != to {
            self.by_name.remove(from, id);
            self.by_name.insert(to, id);
        }
    }

    /// An attribute's bucket key changed (rename or value write).
    pub(crate) fn move_attr(&mut self, from: (QNameId, u64), to: (QNameId, u64), id: NodeId) {
        if from != to {
            self.by_attr.remove(from, id);
            self.by_attr.insert(to, id);
        }
    }

    /// Size of a name bucket (0 when absent — which *is* an answer: no
    /// alive element bears the name).
    pub(crate) fn name_len(&self, name: QNameId) -> usize {
        self.by_name.get(&name).map_or(0, |b| b.len())
    }

    /// The name bucket, if any.
    pub(crate) fn name_bucket(&self, name: QNameId) -> Option<&Bucket> {
        self.by_name.get(&name)
    }

    /// Size of a value bucket (hash collisions inflate this by design;
    /// the gate only needs an upper bound).
    pub(crate) fn attr_len(&self, name: QNameId, vh: u64) -> usize {
        self.by_attr.get(&(name, vh)).map_or(0, |b| b.len())
    }

    /// The value bucket, if any. Callers must re-check the exact value.
    pub(crate) fn attr_bucket(&self, name: QNameId, vh: u64) -> Option<&Bucket> {
        self.by_attr.get(&(name, vh))
    }

    /// Rebuild from scratch over the slot space, preserving the
    /// availability state (checkpoint recovery, and the proptest oracle).
    pub(crate) fn rebuild(nodes: &Pages, enabled: bool) -> IndexPlane {
        let mut plane = IndexPlane {
            enabled,
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
        let fresh = IndexPlane::rebuild(nodes, self.enabled);
        self.by_name == fresh.by_name && self.by_attr == fresh.by_attr
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qname::QName;
    use crate::store::Store;
    use crate::wal::RedoOp;

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

        let name = s.intern_qname(&QName::local("c"));
        s.apply(RedoOp::Rename { node: b, name }).unwrap();
        s.apply(RedoOp::SetAttrValue {
            node: x,
            value: "2".into(),
        })
        .unwrap();
        assert!(s.index_verify());

        // Collect the whole forest away.
        s.apply(RedoOp::Detach { node: b }).unwrap();
        s.collect_garbage(&[a]).unwrap();
        assert!(s.index_verify());
    }

    #[test]
    fn a_bucket_is_a_set_whatever_its_chunking() {
        // Ascending ids fill chunks; a shuffled order splits them.
        let n = (CHUNK * 5) as u32;
        let mut ascending = Chunks::default();
        let mut shuffled = Chunks::default();
        for i in 0..n {
            ascending.insert(NodeId(i));
            shuffled.insert(NodeId(i.wrapping_mul(7919) % n));
        }
        shuffled.insert(NodeId(3)); // already present
        assert_eq!(ascending.len, n as usize);
        assert!(ascending.chunks.iter().all(|c| c.len() == CHUNK));
        assert!(shuffled
            .chunks
            .iter()
            .all(|c| !c.is_empty() && c.len() <= CHUNK));
        let (mut ascending, mut shuffled) = (
            Bucket::Many(Arc::new(ascending)),
            Bucket::Many(Arc::new(shuffled)),
        );
        assert_eq!(ascending, shuffled);
        assert!(ascending.iter().eq((0..n).map(NodeId)));

        for i in (0..n).filter(|i| !i.is_multiple_of(3)) {
            ascending.remove(NodeId(i));
            shuffled.remove(NodeId(n - 1 - i));
        }
        ascending.remove(NodeId(n + 1)); // absent
        assert!(ascending
            .iter()
            .eq((0..n).filter(|i| i.is_multiple_of(3)).map(NodeId)));
        let left: Vec<NodeId> = shuffled.iter().collect();
        assert_eq!(
            left.len(),
            (0..n).filter(|i| (n - 1 - i).is_multiple_of(3)).count()
        );
        for (k, id) in left.iter().enumerate() {
            // Only the last removal empties the bucket.
            assert_eq!(shuffled.remove(*id), k + 1 == left.len());
        }

        // One id is held inline and compares equal to one chunked id.
        let mut one = Bucket::One(NodeId(7));
        assert!(!one.remove(NodeId(8)));
        one.insert(NodeId(7));
        assert_eq!(one.len(), 1);
        let mut chunked = Chunks::default();
        chunked.insert(NodeId(7));
        assert_eq!(one, Bucket::Many(Arc::new(chunked)));
        one.insert(NodeId(2));
        assert!(one.iter().eq([NodeId(2), NodeId(7)]));
        assert!(!one.remove(NodeId(7)));
        assert!(one.remove(NodeId(2)));
    }

    #[test]
    fn a_write_after_a_fork_unshares_one_shard_and_one_chunk() {
        // One element name with many ids and many distinct attribute
        // values: the shapes of a growing log.
        let mut plane = IndexPlane::default();
        let mut symbols = crate::symbols::Symbols::default();
        let entry = symbols.intern_parts(None, "entry");
        let id = symbols.intern_parts(None, "id");
        for i in 0..(CHUNK as u32 * 8) {
            plane.by_name.insert(entry, NodeId(i));
            plane.by_attr.insert((id, u64::from(i)), NodeId(i));
        }
        let fork = plane.clone();
        let next = NodeId(CHUNK as u32 * 8);
        plane.note_birth(
            &NodeKind::Element {
                name: entry,
                attributes: Vec::new(),
                children: Vec::new(),
            },
            next,
        );
        plane.by_attr.insert((id, 1 << 40), next);

        fn unshared<K>(a: &ShardedMap<K>, b: &ShardedMap<K>) -> usize {
            a.shards
                .iter()
                .zip(b.shards.iter())
                .filter(|(x, y)| !Arc::ptr_eq(x, y))
                .count()
        }
        assert_eq!(unshared(&plane.by_name, &fork.by_name), 1);
        assert_eq!(unshared(&plane.by_attr, &fork.by_attr), 1);
        let (now, then) = (
            plane.by_name.get(&entry).unwrap(),
            fork.by_name.get(&entry).unwrap(),
        );
        assert_eq!(now.len(), then.len() + 1);
        // The appended id opened a chunk; every full one is still shared.
        let (Bucket::Many(now), Bucket::Many(then)) = (now, then) else {
            panic!("a bucket of many ids is chunked");
        };
        let shared = now
            .chunks
            .iter()
            .zip(then.chunks.iter())
            .filter(|(x, y)| Arc::ptr_eq(x, y))
            .count();
        assert_eq!(shared, then.chunks.len());
    }
}
