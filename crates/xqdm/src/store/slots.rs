//! Node slots, the free list, the index plane and the order segments:
//! the raw slot writers (DESIGN.md "Mutation chokepoint").
//!
//! The four fields of [`Slots`] are private to this module, so nothing
//! else in the crate can change a node without going through one of the
//! writers below. The writers that change a node's name, value or
//! aliveness move its [`IndexPlane`] entries in the same call; the
//! structural writers (parent links, child and attribute lists, order
//! keys) touch nothing the plane derives from. The writers that take a
//! node out of its place — `unlink` a non-root, `retire`, `unbirth` —
//! drop the [`Segment`] holding it. Forward execution (`Store::apply`)
//! and rollback (`Store::undo_entry`) both go through them, so the plane
//! and the segments are exact in both directions by construction.
//!
//! The writers validate nothing: `apply` checks every precondition
//! first, and a writer handed a slot of the wrong kind panics.

use crate::error::{XdmError, XdmResult};
use crate::index::{value_hash, IndexPlane};
use crate::node::{NodeData, NodeId, NodeKind};
use crate::pages::Pages;
use crate::symbols::QNameId;
use std::sync::Arc;

/// An order segment (DESIGN.md §14): a tree whose ids `root..end` met a
/// pre-order walk (attributes before children) in ascending order, every
/// one of them `root` or a node of its subtree. Nodes never move
/// relative to one another except by a detach, so until a writer takes
/// one of them out of its place, id order inside the range *is* document
/// order, and `root` contains every id in it. Nodes linked in later sit
/// outside the range and leave it clean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    root: u32,
    end: u32,
}

impl Segment {
    /// The segment's root: its lowest id, an ancestor of every other.
    pub fn root(self) -> NodeId {
        NodeId(self.root)
    }

    /// Is `id` one of the segment's nodes? Every one but the root is a
    /// descendant of it, or an attribute of one.
    #[inline]
    pub fn contains(self, id: NodeId) -> bool {
        (self.root..self.end).contains(&id.0)
    }

    /// Number of nodes in the segment, attributes included.
    #[allow(clippy::len_without_is_empty)] // a kept segment has two or more
    pub fn len(self) -> u32 {
        self.end - self.root
    }
}

/// The segment a pre-order walk of the tree under `root` finds: the
/// longest run `root, root + 1, …` the walk meets in that order. Nodes
/// outside the run (linked in later, off the free list) are stepped over.
/// The walk descends only to an alive node whose parent link names the
/// node listing it, so every id it claims reaches `root` by parent links.
fn walk_segment(nodes: &Pages, root: NodeId, stack: &mut Vec<NodeId>) -> Segment {
    let mut end = root.0;
    stack.clear();
    stack.push(root);
    while let Some(n) = stack.pop() {
        if n.0 == end {
            end += 1;
        }
        let (attributes, children): (&[NodeId], &[NodeId]) = match &nodes[n.index()].kind {
            NodeKind::Document { children } => (&[], children),
            NodeKind::Element {
                attributes,
                children,
                ..
            } => (attributes, children),
            _ => continue,
        };
        let linked = |c: &&NodeId| {
            nodes
                .get(c.index())
                .is_some_and(|d| d.alive && d.parent == Some(n))
        };
        stack.extend(children.iter().rev().filter(linked));
        stack.extend(attributes.iter().rev().filter(linked));
    }
    Segment { root: root.0, end }
}

/// The slot space of one store.
#[derive(Debug, Clone, Default)]
pub(super) struct Slots {
    /// COW paged storage ([`crate::pages`]): a snapshot forks the whole
    /// slot space in O(pages) and later writes copy only the pages they
    /// touch.
    nodes: Pages,
    /// Retired slots, reused last-in first-out.
    free: Vec<NodeId>,
    /// Secondary indexes (DESIGN.md §17), COW-shared like the pages.
    index: IndexPlane,
    /// The clean order segments, sorted by root and disjoint; derived
    /// state like the plane. A fork shares the list; the first writer
    /// that drops a segment copies it.
    segments: Arc<Vec<Segment>>,
}

/// The payload left in a retired slot; the order key is kept so a
/// checkpoint of the dead slot stays byte-identical.
fn tombstone(okey: u64) -> NodeData {
    NodeData {
        parent: None,
        kind: NodeKind::Text {
            content: String::new(),
        },
        alive: false,
        okey,
    }
}

impl Slots {
    /// Rebuild from a checkpoint's flat slot image. The plane and the
    /// segments are derived state a checkpoint never carries, so they
    /// are rebuilt here.
    pub(super) fn from_parts(nodes: Vec<NodeData>, free: Vec<NodeId>) -> Slots {
        let nodes = Pages::from_vec(nodes);
        let index = IndexPlane::rebuild(&nodes, true);
        let mut slots = Slots {
            nodes,
            free,
            index,
            segments: Arc::default(),
        };
        slots.derive_segments();
        slots
    }

    // ------------------------------------------------------------------
    // Order segments (derived, like the plane)
    // ------------------------------------------------------------------

    /// Derive the segments afresh: one walk under every parentless alive
    /// node. A run of one node says nothing and is not kept.
    pub(super) fn derive_segments(&mut self) {
        let mut found = Vec::new();
        let mut stack = Vec::new();
        for (i, d) in self.nodes.iter().enumerate() {
            if d.alive && d.parent.is_none() {
                let seg = walk_segment(&self.nodes, NodeId(i as u32), &mut stack);
                if seg.len() > 1 {
                    found.push(seg);
                }
            }
        }
        // Trees are disjoint, so are their runs; sorting is all it takes.
        found.sort_unstable_by_key(|s| s.root);
        self.segments = Arc::new(found);
    }

    /// Verify the tree under the parentless `root` with one walk and keep
    /// the segment it finds (a parsed document's, when its slots came off
    /// the end of the address space, is the whole tree).
    pub(super) fn note_segment(&mut self, root: NodeId) {
        let seg = walk_segment(&self.nodes, root, &mut Vec::new());
        if seg.len() < 2 {
            return;
        }
        let list = Arc::make_mut(&mut self.segments);
        // Every id in the run is a node allocated after any segment that
        // held its slot was dropped, so no clean segment overlaps it.
        let at = list.partition_point(|s| s.root < seg.root);
        debug_assert!(list.get(at).is_none_or(|s| s.root >= seg.end));
        debug_assert!(at == 0 || list[at - 1].end <= seg.root);
        list.insert(at, seg);
    }

    /// The clean segment holding `id`, if any.
    #[inline]
    pub(super) fn segment_of(&self, id: NodeId) -> Option<Segment> {
        let at = self.segments.partition_point(|s| s.root <= id.0);
        let seg = *self.segments.get(at.checked_sub(1)?)?;
        seg.contains(id).then_some(seg)
    }

    /// Number of clean segments.
    pub(super) fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Drop the segment holding `id` (a writer is taking it out of its
    /// place); with `keep_root`, a segment rooted at `id` stays: the
    /// whole run moves with its root.
    fn dirty(&mut self, id: NodeId, keep_root: bool) {
        let at = self.segments.partition_point(|s| s.root <= id.0);
        let Some(i) = at.checked_sub(1) else { return };
        let seg = self.segments[i];
        if seg.contains(id) && !(keep_root && seg.root == id.0) {
            Arc::make_mut(&mut self.segments).remove(i);
        }
    }

    // ------------------------------------------------------------------
    // Readers
    // ------------------------------------------------------------------

    /// Size of the slot address space (alive or dead).
    pub(super) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// The slot at `id`, alive or not.
    #[inline]
    pub(super) fn get(&self, id: NodeId) -> Option<&NodeData> {
        self.nodes.get(id.index())
    }

    /// The alive slot at `id`, or a dangling-id error.
    #[inline]
    pub(super) fn alive(&self, id: NodeId) -> XdmResult<&NodeData> {
        match self.nodes.get(id.index()) {
            Some(d) if d.alive => Ok(d),
            _ => Err(XdmError::dangling(&id.to_string())),
        }
    }

    /// Every slot in id order.
    pub(super) fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeData)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, d)| (NodeId(i as u32), d))
    }

    /// The free list (last entry is reused first).
    pub(super) fn free(&self) -> &[NodeId] {
        &self.free
    }

    /// The id the next [`Slots::birth`] will return.
    pub(super) fn next_id(&self) -> NodeId {
        match self.free.last() {
            Some(&id) => id,
            None => NodeId(self.nodes.len() as u32),
        }
    }

    /// The index plane, read-only.
    pub(super) fn index(&self) -> &IndexPlane {
        &self.index
    }

    /// Does the plane hold exactly what a rebuild from the slots would?
    pub(super) fn index_matches_rebuild(&self) -> bool {
        self.index.matches_rebuild(&self.nodes)
    }

    pub(super) fn shared_pages_with(&self, other: &Slots) -> usize {
        self.nodes.shared_pages_with(&other.nodes)
    }

    pub(super) fn page_count(&self) -> usize {
        self.nodes.page_count()
    }

    // ------------------------------------------------------------------
    // Writers that the index plane follows
    // ------------------------------------------------------------------

    /// Toggle the plane's availability to scans (not derived state).
    pub(super) fn set_indexing(&mut self, on: bool) {
        self.index.set_enabled(on);
    }

    /// Bring a parentless node with payload `kind` alive in the next
    /// slot. Returns its id and whether the slot came off the free list.
    pub(super) fn birth(&mut self, kind: NodeKind) -> (NodeId, bool) {
        let data = NodeData {
            parent: None,
            kind,
            alive: true,
            okey: 0,
        };
        let (id, reused) = match self.free.pop() {
            Some(id) => {
                self.nodes[id.index()] = data;
                (id, true)
            }
            None => {
                let id = NodeId(self.nodes.len() as u32);
                self.nodes.push(data);
                (id, false)
            }
        };
        self.index.note_birth(&self.nodes[id.index()].kind, id);
        (id, reused)
    }

    /// Exact inverse of [`Slots::birth`]: the address space shrinks again
    /// when the slot was the newest, and a reused slot returns to the top
    /// of the free list.
    pub(super) fn unbirth(&mut self, id: NodeId, reused: bool) {
        self.dirty(id, false);
        self.index.note_death(&self.nodes[id.index()].kind, id);
        if !reused && id.index() + 1 == self.nodes.len() {
            self.nodes.pop();
        } else {
            let okey = self.nodes[id.index()].okey;
            self.nodes[id.index()] = tombstone(okey);
            if reused {
                self.free.push(id);
            }
        }
    }

    /// Retire an alive slot onto the free list, returning its payload.
    pub(super) fn retire(&mut self, id: NodeId) -> NodeData {
        self.dirty(id, false);
        let okey = self.nodes[id.index()].okey;
        let data = std::mem::replace(&mut self.nodes[id.index()], tombstone(okey));
        self.index.note_death(&data.kind, id);
        self.free.push(id);
        data
    }

    /// Exact inverse of [`Slots::retire`].
    pub(super) fn revive(&mut self, id: NodeId, data: NodeData) {
        self.index.note_birth(&data.kind, id);
        self.nodes[id.index()] = data;
        if self.free.last() == Some(&id) {
            self.free.pop();
        } else {
            self.free.retain(|&f| f != id);
        }
    }

    /// Set an element's or attribute's name; returns the previous one.
    pub(super) fn set_name(&mut self, id: NodeId, name: QNameId) -> QNameId {
        match &mut self.nodes[id.index()].kind {
            NodeKind::Element { name: n, .. } => {
                let old = std::mem::replace(n, name);
                self.index.move_element(old, name, id);
                old
            }
            NodeKind::Attribute { name: n, value } => {
                let old = std::mem::replace(n, name);
                let vh = value_hash(value);
                self.index.move_attr((old, vh), (name, vh), id);
                old
            }
            k => panic!("set_name on a {} slot", k.kind_name()),
        }
    }

    /// Set a text node's content or an attribute's value; returns the
    /// previous one.
    pub(super) fn set_value(&mut self, id: NodeId, value: String) -> String {
        match &mut self.nodes[id.index()].kind {
            NodeKind::Text { content } => std::mem::replace(content, value),
            NodeKind::Attribute { name, value: v } => {
                let name = *name;
                let to = value_hash(&value);
                let old = std::mem::replace(v, value);
                self.index
                    .move_attr((name, value_hash(&old)), (name, to), id);
                old
            }
            k => panic!("set_value on a {} slot", k.kind_name()),
        }
    }

    // ------------------------------------------------------------------
    // Structural writers (nothing the plane derives from)
    // ------------------------------------------------------------------

    /// Set a node's sibling order key; returns the previous one.
    pub(super) fn set_okey(&mut self, id: NodeId, okey: u64) -> u64 {
        std::mem::replace(&mut self.nodes[id.index()].okey, okey)
    }

    fn list_mut(&mut self, parent: NodeId, in_attributes: bool) -> &mut Vec<NodeId> {
        match (&mut self.nodes[parent.index()].kind, in_attributes) {
            (NodeKind::Element { attributes, .. }, true) => attributes,
            (NodeKind::Document { children } | NodeKind::Element { children, .. }, false) => {
                children
            }
            (k, _) => panic!("{} slot has no such list", k.kind_name()),
        }
    }

    /// Splice parentless `nodes` into `parent`'s child list (or attribute
    /// list) at `index` and point their parent links at it.
    pub(super) fn link(
        &mut self,
        parent: NodeId,
        in_attributes: bool,
        index: usize,
        nodes: &[NodeId],
    ) {
        self.list_mut(parent, in_attributes)
            .splice(index..index, nodes.iter().copied());
        for n in nodes {
            self.nodes[n.index()].parent = Some(parent);
        }
    }

    /// Exact inverse of [`Slots::link`]: drop `count` entries of the list
    /// from `index` and clear their parent links.
    pub(super) fn unlink(
        &mut self,
        parent: NodeId,
        in_attributes: bool,
        index: usize,
        count: usize,
    ) {
        for i in index..index + count {
            let n = self.list_mut(parent, in_attributes)[i];
            self.nodes[n.index()].parent = None;
            self.dirty(n, true);
        }
        self.list_mut(parent, in_attributes)
            .drain(index..index + count);
    }
}
