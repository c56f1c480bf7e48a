//! The mutation chokepoint (DESIGN.md "Mutation chokepoint").
//!
//! Every change to a store is a [`RedoOp`] handed to [`Store::apply`],
//! which owns the whole sequence: record the forward op (when a redo log
//! is attached), validate the paper's
//! preconditions (§3.2: update requests are *partial* functions on
//! stores), perform the raw slot writes and journal their inverses.
//! `apply` is also the public update entry point: a pending update list
//! Δ is a list of these ops. The constructors are typed one-line
//! wrappers; log recovery is one loop over decoded ops.

use super::journal::UndoEntry;
use super::{InsertAnchor, Store};
use crate::error::{XdmError, XdmResult};
use crate::node::{NodeId, NodeKind};
use crate::qname::QName;
use crate::symbols::QNameId;
use crate::wal::RedoOp;
use std::collections::HashSet;
use std::sync::Arc;

/// Gap spacing for freshly (re)numbered sibling order keys.
const OKEY_STRIDE: u64 = 1 << 32;

impl Store {
    /// Apply one forward op — an update request of §3.2, a partial
    /// function on stores whose preconditions [`RedoOp`]'s variants list.
    /// On `Err` the op changed nothing and left no trace in the log or the
    /// journal.
    pub fn apply(&mut self, op: RedoOp<'_>) -> XdmResult<()> {
        // Record first, while the op still owns its payload (the slot
        // writes below consume it); an op that fails or turns out to be a
        // no-op is forgotten again.
        let forward = self.journal.forward.mark();
        if self.wal.is_some() {
            self.journal.forward.push(&op, &self.symbols);
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
        if !matches!(changed, Ok(true)) {
            self.journal.forward.truncate(forward);
        }
        changed.map(drop)
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
        let children = self.children(parent)?;
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
            s.children(parent).expect("insertion parent is alive")[i]
        };
        let okey = |s: &Store, i: usize| -> u64 {
            s.slots.get(child(s, i)).expect("child slot exists").okey
        };
        let total = self.children(parent).map_or(0, <[NodeId]>::len);
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
        let attrs = self.attributes(element)?;
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
            if self.name_id(existing)? == Some(name) {
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
        let (in_attributes, index) = match find(self.children(parent)?) {
            Some(i) => (false, i),
            None => match find(self.attributes(parent)?) {
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
        let d = self.slots.alive(id)?;
        match (&d.kind, d.parent) {
            (NodeKind::Attribute { .. }, Some(owner)) => {
                // As `attach` checks: one owner, one attribute per name.
                for &other in self.attributes(owner)? {
                    if other != id && self.name_id(other)? == Some(name) {
                        return Err(XdmError::precondition(format!(
                            "duplicate attribute \"{}\"",
                            self.symbols.qname_string(name)
                        )));
                    }
                }
            }
            (NodeKind::Element { .. } | NodeKind::Attribute { .. }, _) => {}
            (k, _) => {
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
                let op = if text { "SetText" } else { "SetAttrValue" };
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
        let name = self.intern_qname(&name);
        self.alloc(NodeKind::Element {
            name,
            attributes: Vec::new(),
            children: Vec::new(),
        })
    }

    /// Create a new, parentless attribute node.
    pub fn new_attribute(&mut self, name: QName, value: impl Into<String>) -> NodeId {
        let name = self.intern_qname(&name);
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
        let target = target.into();
        let target = match self.symbols.lookup(&target) {
            Some(id) => id,
            None => Arc::make_mut(&mut self.symbols).intern(&target),
        };
        self.alloc(NodeKind::Pi {
            target,
            content: content.into(),
        })
    }

    // ------------------------------------------------------------------
    // Update helpers
    // ------------------------------------------------------------------

    /// Append `child` as the last child of `parent`.
    pub fn append_child(&mut self, parent: NodeId, child: NodeId) -> XdmResult<()> {
        self.apply(RedoOp::Insert {
            seq: std::slice::from_ref(&child).into(),
            parent,
            anchor: InsertAnchor::Last,
        })
    }

    /// Attach `attr` (an attribute node) to `element`.
    ///
    /// Precondition: `attr` is a parentless attribute node, `element` is an
    /// element, and no attribute with the same name is present.
    pub fn attach_attribute(&mut self, element: NodeId, attr: NodeId) -> XdmResult<()> {
        self.apply(RedoOp::AttachAttr { element, attr })
    }

    /// Intern `name` into this store's symbol table: the id a
    /// [`RedoOp::Rename`] against this store carries. A name the table
    /// already holds is looked up; only a new one copies a table that a
    /// snapshot still shares.
    pub fn intern_qname(&mut self, name: &QName) -> QNameId {
        match self.symbols.lookup_qname(name) {
            Some(id) => id,
            None => Arc::make_mut(&mut self.symbols).intern_qname(name),
        }
    }

    // ------------------------------------------------------------------
    // Deep copy (the `copy {}` operator and normalization's implicit copy)
    // ------------------------------------------------------------------

    /// Deep-copy the subtree rooted at `node`, returning the parentless
    /// copy's id. Attributes are copied along with elements.
    pub fn deep_copy(&mut self, node: NodeId) -> XdmResult<NodeId> {
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
    /// (observable via [`Store::stats`]) is preserved — and so is every
    /// candidate above such a node, whose parent link would otherwise
    /// dangle. Returns the number of reclaimed slots.
    pub fn reclaim_unreachable(
        &mut self,
        candidates: &[NodeId],
        roots: &[NodeId],
    ) -> XdmResult<usize> {
        let reachable = self.reachable_set(roots)?;
        let mut doomed: HashSet<NodeId> = candidates
            .iter()
            .copied()
            .filter(|&id| self.is_alive(id) && !reachable.contains(&id))
            .collect();
        // A doomed node holding a survivor survives, and so does every
        // doomed ancestor above it.
        let mut holders = Vec::new();
        for &id in &doomed {
            let (children, attributes) = (self.children(id)?, self.attributes(id)?);
            if children
                .iter()
                .chain(attributes)
                .any(|n| !doomed.contains(n))
            {
                holders.push(id);
            }
        }
        for mut id in holders {
            while doomed.remove(&id) {
                match self.parent(id)? {
                    Some(parent) => id = parent,
                    None => break,
                }
            }
        }
        // A slot allocated, collected and allocated again is a candidate
        // twice.
        let mut seen = HashSet::new();
        let ids: Vec<NodeId> = candidates
            .iter()
            .copied()
            .filter(|&id| doomed.contains(&id) && seen.insert(id))
            .collect();
        let reclaimed = ids.len();
        self.apply(RedoOp::Collect { ids: ids.into() })?;
        Ok(reclaimed)
    }

    // ------------------------------------------------------------------
    // Replay (log recovery)
    // ------------------------------------------------------------------

    /// Decode and apply a stream of op records (see [`crate::wal::RedoBuf`])
    /// as logged: the same history reproduces every allocation, so each
    /// `Alloc` asserts its logged id.
    ///
    /// The caller wraps the call in an undo frame: an `Err` (undecodable
    /// record, failed precondition) leaves the earlier ops applied.
    pub(crate) fn replay<'r>(&mut self, records: impl Iterator<Item = &'r [u8]>) -> XdmResult<()> {
        for payload in records {
            // Recovery replays into a store no snapshot shares yet, so
            // this borrows the table without copying it.
            let op = RedoOp::decode(payload, Arc::make_mut(&mut self.symbols))?;
            self.apply(op)?;
        }
        Ok(())
    }
}
