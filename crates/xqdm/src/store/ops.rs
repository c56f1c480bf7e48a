//! The mutation chokepoint (DESIGN.md "Mutation chokepoint").
//!
//! Every change to a store is a [`RedoOp`] handed to [`Store::apply`],
//! which owns the whole sequence: record the forward op and its write
//! footprint (when a consumer is attached), validate the paper's
//! preconditions (§3.2: update requests are *partial* functions on
//! stores), perform the raw slot writes and journal their inverses. The
//! public constructors and update applications are typed one-line
//! wrappers; log recovery and Δ rebase are one loop over decoded ops.

use super::journal::UndoEntry;
use super::{InsertAnchor, Store};
use crate::error::{XdmError, XdmResult};
use crate::footprint::aspect;
use crate::node::{NodeId, NodeKind};
use crate::qname::QName;
use crate::symbols::QNameId;
use crate::wal::RedoOp;
use std::collections::{HashMap, HashSet};

/// Gap spacing for freshly (re)numbered sibling order keys.
const OKEY_STRIDE: u64 = 1 << 32;

impl Store {
    /// Apply one forward op. On `Err` the op changed nothing and left no
    /// trace in the log, the capture or the journal.
    pub(crate) fn apply(&mut self, op: RedoOp<'_>) -> XdmResult<()> {
        // Record first, while the op still owns its payload (the slot
        // writes below consume it); an op that fails or turns out to be a
        // no-op is forgotten again.
        let forward = self.journal.forward.mark();
        let writes = self.journal.writes.len();
        let born = match &op {
            RedoOp::Alloc { id, .. } => Some(*id),
            _ => None,
        };
        if self.logging() {
            self.journal.forward.push(&op, &self.symbols);
            self.mark_footprint(&op);
        }
        let changed = match op {
            RedoOp::Alloc { id, kind } => self.alloc_at(id, kind),
            RedoOp::Insert {
                seq,
                parent,
                anchor,
            } => self.insert(&seq, parent, anchor),
            RedoOp::AttachAttr { element, attr } => self.attach(element, attr),
            RedoOp::Detach { node } => self.detach_node(node),
            RedoOp::Rename { node, name } => self.rename(node, name),
            RedoOp::SetText { node, content } => self.set_value(node, content, true),
            RedoOp::SetAttrValue { node, value } => self.set_value(node, value, false),
            RedoOp::Collect { ids } => self.retire(&ids),
        };
        match changed {
            // Later writes to a node this capture allocated are
            // fork-private: no mark.
            Ok(true) => {
                if let (Some(id), Some(capture)) = (born, &mut self.capture) {
                    capture.note_fresh(id);
                }
            }
            _ => {
                self.journal.forward.truncate(forward);
                self.journal.writes.truncate(writes);
            }
        }
        changed.map(drop)
    }

    /// The write footprint of `op` for the attached Δ capture: which
    /// aspects of which base-snapshot nodes it changes. Writes to nodes
    /// the capture itself allocated are dropped — no committed
    /// transaction can have observed them.
    fn mark_footprint(&mut self, op: &RedoOp<'_>) {
        let Some(capture) = &self.capture else {
            return;
        };
        let writes = &mut self.journal.writes;
        let mut mark = |id: NodeId, aspects: u8| {
            if !capture.is_fresh(id) {
                writes.push((id, aspects));
            }
        };
        match op {
            RedoOp::Alloc { .. } => {}
            RedoOp::Insert { seq, parent, .. } => {
                mark(*parent, aspect::CHILDREN);
                seq.iter().for_each(|&n| mark(n, aspect::PARENT));
            }
            RedoOp::AttachAttr { element, attr } => {
                mark(*element, aspect::ATTRS);
                mark(*attr, aspect::PARENT);
            }
            RedoOp::Detach { node } => {
                mark(*node, aspect::PARENT);
                if let Some(parent) = self.slots.get(*node).and_then(|d| d.parent) {
                    // Conservative: the entry may be in either list.
                    mark(parent, aspect::CHILDREN | aspect::ATTRS);
                }
            }
            RedoOp::Rename { node, .. } => mark(*node, aspect::NAME),
            RedoOp::SetText { node, .. } | RedoOp::SetAttrValue { node, .. } => {
                mark(*node, aspect::VALUE)
            }
            RedoOp::Collect { ids } => {
                // Reclaiming a base-snapshot node is a whole-store effect
                // for conflict purposes: its slot re-enters the free list
                // and may be re-allocated under a different identity.
                if let Some(&id) = ids.iter().find(|&&id| !capture.is_fresh(id)) {
                    writes.push((id, aspect::WHOLE_STORE));
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // The ops: validate, then raw slot writes with their inverses
    // ------------------------------------------------------------------

    fn alloc_at(&mut self, id: NodeId, kind: NodeKind) -> XdmResult<bool> {
        // Same history ⇒ same free-list state ⇒ the next slot is the
        // logged one; a mismatch means the log is corrupt.
        let next = self.slots.next_id();
        if id != next {
            return Err(XdmError::new(
                "XQB0060",
                format!("redo allocation mismatch: log says {id}, store would allocate {next}"),
            ));
        }
        let (id, reused) = self.slots.birth(kind);
        self.journal.undo(UndoEntry::Alloc { id, reused });
        Ok(true)
    }

    fn insert(&mut self, seq: &[NodeId], parent: NodeId, anchor: InsertAnchor) -> XdmResult<bool> {
        let p = self.slots.alive(parent)?;
        if !p.kind.is_container() {
            return Err(XdmError::precondition(format!(
                "insertion parent {parent} is a {} node",
                p.kind.kind_name()
            )));
        }
        // Cycle detection without an eager ancestor walk: a strict
        // ancestor of `parent` necessarily has at least one child (the
        // one on the path down to `parent`), so a childless inserted
        // node can never close a cycle. Fresh nodes — the overwhelming
        // majority of inserts, and every append in a deep-tree build —
        // therefore skip the O(depth) walk entirely; we only collect
        // the ancestor set once some inserted node already has children.
        let mut ancestors: Option<HashSet<NodeId>> = None;
        for &n in seq {
            let d = self.slots.alive(n)?;
            if d.parent.is_some() {
                return Err(XdmError::precondition(format!(
                    "inserted node {n} has a parent"
                )));
            }
            let has_children = match &d.kind {
                NodeKind::Attribute { .. } => {
                    return Err(XdmError::precondition(
                        "cannot insert an attribute node as a child",
                    ))
                }
                NodeKind::Document { .. } => {
                    return Err(XdmError::precondition(
                        "cannot insert a document node as a child",
                    ))
                }
                NodeKind::Element { children, .. } => !children.is_empty(),
                _ => false,
            };
            if n == parent {
                return Err(XdmError::precondition(format!(
                    "inserting {n} under {parent} would create a cycle"
                )));
            }
            if has_children {
                if ancestors.is_none() {
                    let mut set = HashSet::new();
                    let mut cur = Some(parent);
                    while let Some(a) = cur {
                        set.insert(a);
                        cur = self.slots.alive(a)?.parent;
                    }
                    ancestors = Some(set);
                }
                if ancestors.as_ref().is_some_and(|set| set.contains(&n)) {
                    return Err(XdmError::precondition(format!(
                        "inserting {n} under {parent} would create a cycle"
                    )));
                }
            }
        }
        let children = self.children_raw(parent)?;
        let index = match anchor {
            InsertAnchor::First => 0,
            InsertAnchor::Last => children.len(),
            InsertAnchor::After(pos) => match children.iter().position(|&c| c == pos) {
                Some(i) => i + 1,
                None => {
                    return Err(XdmError::precondition(format!(
                        "anchor {pos} is not a child of {parent}"
                    )))
                }
            },
        };
        self.slots.link(parent, false, index, seq);
        self.journal.undo(UndoEntry::Linked {
            parent,
            in_attributes: false,
            index,
            count: seq.len(),
        });
        self.assign_order_keys(parent, index, seq.len());
        Ok(true)
    }

    /// Assign sibling order keys to `count` children of `parent` starting
    /// at `index`, spacing them evenly inside the gap left by their
    /// neighbours; renumber the whole child list when the gap is too
    /// tight (amortized rare).
    fn assign_order_keys(&mut self, parent: NodeId, index: usize, count: usize) {
        if count == 0 {
            return;
        }
        // The i-th child of `parent`, re-read each time: the loop below
        // writes order keys between reads.
        let child = |s: &Store, i: usize| -> NodeId {
            s.children_raw(parent).expect("insertion parent is alive")[i]
        };
        let okey = |s: &Store, i: usize| -> u64 {
            s.slots.get(child(s, i)).expect("child slot exists").okey
        };
        let total = self.children_raw(parent).map_or(0, <[NodeId]>::len);
        let lo = if index == 0 { 0 } else { okey(self, index - 1) };
        let hi = if index + count == total {
            u64::MAX
        } else {
            okey(self, index + count)
        };
        let span = hi - lo;
        // Gap exhausted: renumber every child with fresh stride. Otherwise
        // step through the gap, capped at one stride: bisecting the full
        // remaining span would halve the tail gap on every end-anchored
        // insert and force a full renumber every ~64 appends; with the cap,
        // appends consume the key space linearly and renumbering stays
        // genuinely rare.
        let (range, base, step) = if span <= count as u64 {
            (0..total, 0, OKEY_STRIDE)
        } else {
            let step = (span / (count as u64 + 1)).min(OKEY_STRIDE);
            (index..index + count, lo, step)
        };
        for (j, i) in range.enumerate() {
            let id = child(self, i);
            let okey = self.slots.set_okey(id, base + step * (j as u64 + 1));
            self.journal.undo(UndoEntry::Okey { id, okey });
        }
    }

    fn attach(&mut self, element: NodeId, attr: NodeId) -> XdmResult<bool> {
        if self.slots.alive(attr)?.parent.is_some() {
            return Err(XdmError::precondition("attribute already has a parent"));
        }
        let attrs = self.attributes_raw(element)?;
        let okey = match attrs.last() {
            Some(&last) => self.slots.alive(last)?.okey.saturating_add(OKEY_STRIDE),
            None => OKEY_STRIDE,
        };
        let name = match &self.slots.alive(attr)?.kind {
            NodeKind::Attribute { name, .. } => *name,
            k => {
                return Err(XdmError::precondition(format!(
                    "attach_attribute expects an attribute node, got {}",
                    k.kind_name()
                )))
            }
        };
        for &existing in attrs {
            if self.name_id_raw(existing)? == Some(name) {
                return Err(XdmError::precondition(format!(
                    "duplicate attribute \"{}\"",
                    self.symbols.qname_string(name)
                )));
            }
        }
        let index = attrs.len();
        match &self.slots.alive(element)?.kind {
            NodeKind::Element { .. } => {}
            k => {
                return Err(XdmError::precondition(format!(
                    "cannot attach attribute to {} node",
                    k.kind_name()
                )))
            }
        }
        self.slots.link(element, true, index, &[attr]);
        self.journal.undo(UndoEntry::Linked {
            parent: element,
            in_attributes: true,
            index,
            count: 1,
        });
        let okey = self.slots.set_okey(attr, okey);
        self.journal.undo(UndoEntry::Okey { id: attr, okey });
        Ok(true)
    }

    /// Detaching an already-detached node changes nothing (`Ok(false)`).
    fn detach_node(&mut self, node: NodeId) -> XdmResult<bool> {
        let Some(parent) = self.slots.alive(node)?.parent else {
            return Ok(false);
        };
        let find = |list: &[NodeId]| list.iter().position(|&c| c == node);
        let (in_attributes, index) = match find(self.children_raw(parent)?) {
            Some(i) => (false, i),
            None => match find(self.attributes_raw(parent)?) {
                Some(i) => (true, i),
                None => {
                    return Err(XdmError::precondition(format!(
                        "node {node} has parent {parent} but is not among its children/attributes"
                    )))
                }
            },
        };
        self.slots.unlink(parent, in_attributes, index, 1);
        self.journal.undo(UndoEntry::Unlinked {
            node,
            parent,
            in_attributes,
            index,
        });
        Ok(true)
    }

    fn rename(&mut self, id: NodeId, name: QNameId) -> XdmResult<bool> {
        match &self.slots.alive(id)?.kind {
            NodeKind::Element { .. } | NodeKind::Attribute { .. } => {}
            k => {
                return Err(XdmError::precondition(format!(
                    "cannot rename a {} node",
                    k.kind_name()
                )))
            }
        }
        let name = self.slots.set_name(id, name);
        self.journal.undo(UndoEntry::Name { id, name });
        Ok(true)
    }

    /// `SetText` (`text`) wants a text node, `SetAttrValue` an attribute.
    fn set_value(&mut self, id: NodeId, value: String, text: bool) -> XdmResult<bool> {
        match (&self.slots.alive(id)?.kind, text) {
            (NodeKind::Text { .. }, true) | (NodeKind::Attribute { .. }, false) => {}
            (k, _) => {
                let op = if text {
                    "set_text"
                } else {
                    "set_attribute_value"
                };
                return Err(XdmError::precondition(format!(
                    "{op} on a {} node",
                    k.kind_name()
                )));
            }
        }
        let value = self.slots.set_value(id, value);
        self.journal.undo(UndoEntry::Value { id, value });
        Ok(true)
    }

    /// Retire exactly `ids`, in order: the one slot-retire routine behind
    /// both collections and the replay of a logged one.
    fn retire(&mut self, ids: &[NodeId]) -> XdmResult<bool> {
        let mut distinct = HashSet::with_capacity(ids.len());
        if let Some(id) = ids
            .iter()
            .find(|&&id| !self.is_alive(id) || !distinct.insert(id))
        {
            return Err(XdmError::new(
                "XQB0060",
                format!("redo collect of non-alive or repeated slot {id}"),
            ));
        }
        for &id in ids {
            let data = Box::new(self.slots.retire(id));
            self.journal.undo(UndoEntry::Retired { id, data });
        }
        Ok(!ids.is_empty())
    }

    // ------------------------------------------------------------------
    // Constructors (XDM constructors, paper §3.2)
    // ------------------------------------------------------------------

    fn alloc(&mut self, kind: NodeKind) -> NodeId {
        let id = self.slots.next_id();
        self.apply(RedoOp::Alloc { id, kind })
            .expect("allocating the next free slot cannot fail");
        id
    }

    /// Create a new, empty document node.
    pub fn new_document(&mut self) -> NodeId {
        self.alloc(NodeKind::Document {
            children: Vec::new(),
        })
    }

    /// Create a new, parentless element node with no content.
    pub fn new_element(&mut self, name: QName) -> NodeId {
        let name = self.symbols.intern_qname(&name);
        self.alloc(NodeKind::Element {
            name,
            attributes: Vec::new(),
            children: Vec::new(),
        })
    }

    /// Create a new, parentless attribute node.
    pub fn new_attribute(&mut self, name: QName, value: impl Into<String>) -> NodeId {
        let name = self.symbols.intern_qname(&name);
        self.alloc(NodeKind::Attribute {
            name,
            value: value.into(),
        })
    }

    /// Create a new, parentless text node.
    pub fn new_text(&mut self, content: impl Into<String>) -> NodeId {
        self.alloc(NodeKind::Text {
            content: content.into(),
        })
    }

    /// Create a new, parentless comment node.
    pub fn new_comment(&mut self, content: impl Into<String>) -> NodeId {
        self.alloc(NodeKind::Comment {
            content: content.into(),
        })
    }

    /// Create a new, parentless processing-instruction node.
    pub fn new_pi(&mut self, target: impl Into<String>, content: impl Into<String>) -> NodeId {
        let target = self.symbols.intern(&target.into());
        self.alloc(NodeKind::Pi {
            target,
            content: content.into(),
        })
    }

    // ------------------------------------------------------------------
    // Update-request applications (paper §3.2: partial functions on stores)
    // ------------------------------------------------------------------

    /// Append `child` as the last child of `parent`.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) -> XdmResult<()> {
        self.apply_insert(&[child], parent, InsertAnchor::Last)
    }

    /// Attach `attr` (an attribute node) to `element`.
    ///
    /// Precondition: `attr` is a parentless attribute node, `element` is an
    /// element, and no attribute with the same name is present.
    pub fn attach_attribute(&mut self, element: NodeId, attr: NodeId) -> XdmResult<()> {
        self.apply(RedoOp::AttachAttr { element, attr })
    }

    /// Apply `insert(nodeseq, nodepar, nodepos)`: splice the nodes of `seq`
    /// into `parent`'s children at `anchor`.
    ///
    /// Preconditions (the paper's, plus cycle safety):
    /// * every node of `seq` is alive, parentless, and not an attribute or
    ///   document node;
    /// * `parent` is a container (document or element);
    /// * an `After(pos)` anchor names a current child of `parent`;
    /// * no node of `seq` is `parent` itself or an ancestor of `parent`.
    pub fn apply_insert(
        &mut self,
        seq: &[NodeId],
        parent: NodeId,
        anchor: InsertAnchor,
    ) -> XdmResult<()> {
        self.apply(RedoOp::Insert {
            seq: seq.into(),
            parent,
            anchor,
        })
    }

    /// Apply `delete(node)` with the paper's **detach** semantics (§3.1):
    /// the node is removed from its parent's child/attribute list but stays
    /// alive and queryable; detaching an already-detached node is a no-op.
    pub fn detach(&mut self, node: NodeId) -> XdmResult<()> {
        self.apply(RedoOp::Detach { node })
    }

    /// Apply `rename(node, name)`. Precondition: the node is an element or
    /// attribute.
    pub fn apply_rename(&mut self, node: NodeId, name: QName) -> XdmResult<()> {
        let name = self.symbols.intern_qname(&name);
        self.apply(RedoOp::Rename { node, name })
    }

    /// Replace the content of a text node, keeping its identity: the
    /// application of `replace value of` on a text target.
    pub fn set_text(&mut self, node: NodeId, content: impl Into<String>) -> XdmResult<()> {
        let content = content.into();
        self.apply(RedoOp::SetText { node, content })
    }

    /// Replace the value of an attribute node, keeping its identity: the
    /// application of `replace value of` on an attribute target.
    pub fn set_attribute_value(&mut self, node: NodeId, value: impl Into<String>) -> XdmResult<()> {
        let value = value.into();
        self.apply(RedoOp::SetAttrValue { node, value })
    }

    // ------------------------------------------------------------------
    // Deep copy (the `copy {}` operator and normalization's implicit copy)
    // ------------------------------------------------------------------

    /// Deep-copy the subtree rooted at `node`, returning the parentless
    /// copy's id. Attributes are copied along with elements.
    pub fn deep_copy(&mut self, node: NodeId) -> XdmResult<NodeId> {
        // A copy observes everything about the source node, and it
        // bypasses the public accessors — trace the read here.
        self.trace_read(
            node,
            aspect::NAME | aspect::VALUE | aspect::CHILDREN | aspect::ATTRS,
        );
        // Names are already interned in this store, so copies alloc with
        // the source's ids directly — no resolve/re-intern round trip.
        match self.slots.alive(node)?.kind.clone() {
            NodeKind::Document { children } => {
                let copy = self.new_document();
                for c in children {
                    let cc = self.deep_copy(c)?;
                    self.append_child(copy, cc)?;
                }
                Ok(copy)
            }
            NodeKind::Element {
                name,
                attributes,
                children,
            } => {
                let copy = self.alloc(NodeKind::Element {
                    name,
                    attributes: Vec::new(),
                    children: Vec::new(),
                });
                for a in attributes {
                    let ac = self.deep_copy(a)?;
                    self.attach_attribute(copy, ac)?;
                }
                for c in children {
                    let cc = self.deep_copy(c)?;
                    self.append_child(copy, cc)?;
                }
                Ok(copy)
            }
            leaf => Ok(self.alloc(leaf)),
        }
    }

    // ------------------------------------------------------------------
    // Garbage (paper §4.1: "garbage collection of persistent but
    // unreachable nodes, resulting from the detach semantics")
    // ------------------------------------------------------------------

    /// Reclaim every alive node not reachable from `roots`. Returns the
    /// number of reclaimed slots. After collection, dereferencing a
    /// reclaimed id yields a dangling-id error; callers must ensure no such
    /// ids are still held (this is the explicit-GC contract the paper's
    /// "beyond the scope" remark leaves open, which we make concrete).
    pub fn collect_garbage(&mut self, roots: &[NodeId]) -> XdmResult<usize> {
        let reachable = self.reachable_set(roots)?;
        let ids: Vec<NodeId> = self
            .slots
            .iter()
            .filter(|(id, d)| d.alive && !reachable.contains(id))
            .map(|(id, _)| id)
            .collect();
        let reclaimed = ids.len();
        self.apply(RedoOp::Collect { ids: ids.into() })?;
        Ok(reclaimed)
    }

    /// Reclaim exactly the nodes of `candidates` that are alive and not
    /// reachable from `roots`. Unlike [`Store::collect_garbage`] this never
    /// touches other unreachable nodes, so pre-existing detached garbage
    /// (observable via [`Store::stats`]) is preserved. Returns the number
    /// of reclaimed slots.
    pub fn reclaim_unreachable(
        &mut self,
        candidates: &[NodeId],
        roots: &[NodeId],
    ) -> XdmResult<usize> {
        let reachable = self.reachable_set(roots)?;
        // A slot allocated, collected and allocated again is a candidate
        // twice.
        let mut seen = HashSet::new();
        let ids: Vec<NodeId> = candidates
            .iter()
            .copied()
            .filter(|&id| self.is_alive(id) && !reachable.contains(&id) && seen.insert(id))
            .collect();
        let reclaimed = ids.len();
        self.apply(RedoOp::Collect { ids: ids.into() })?;
        Ok(reclaimed)
    }

    // ------------------------------------------------------------------
    // Replay (log recovery and Δ rebase)
    // ------------------------------------------------------------------

    /// Decode and apply a stream of op records (see [`crate::wal::RedoBuf`]).
    ///
    /// Log recovery (`rebase` off) applies the ops as logged: the same
    /// history reproduces every allocation, so each `Alloc` asserts its
    /// logged id. A Δ rebase maps each allocation of the recording fork
    /// onto the slot this store allocates for it and rewrites later ops
    /// through that map; ids of base-snapshot nodes are stable across the
    /// fork and pass through unchanged.
    ///
    /// The caller wraps the call in an undo frame: an `Err` (undecodable
    /// record, failed precondition) leaves the earlier ops applied.
    pub(crate) fn replay<'r>(
        &mut self,
        records: impl Iterator<Item = &'r [u8]>,
        rebase: bool,
    ) -> XdmResult<()> {
        let mut map: HashMap<NodeId, NodeId> = HashMap::new();
        for payload in records {
            let mut op = RedoOp::decode(payload, &mut self.symbols)?;
            if rebase {
                if let RedoOp::Alloc { id, .. } = &op {
                    map.insert(*id, self.slots.next_id());
                }
                op.remap(|id| map.get(&id).copied().unwrap_or(id));
            }
            self.apply(op)?;
        }
        Ok(())
    }
}
