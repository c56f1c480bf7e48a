//! The read side of the store: XDM accessors, the secondary-index
//! reads, the batch step kernels (DESIGN.md §14), document order and
//! reachability. Nothing here writes a slot.

use super::{Store, StoreStats};
use crate::error::{XdmError, XdmResult};
use crate::index::value_hash;
use crate::node::{NodeData, NodeId, NodeKind};
use crate::qname::QName;
use crate::symbols::{QNameId, Symbols};
use std::cmp::Ordering;
use std::collections::HashSet;

/// Reusable scratch buffers for document-order sorting and the batch
/// step kernels (DESIGN.md §14). The hot loops — `sort_and_dedup` after
/// every path step, the kernels' per-origin gathers — previously
/// allocated fresh buffers per call; an evaluation owns one `Scratch`
/// and threads it through, so steady-state evaluation reuses the same
/// backing allocations. Pinned by an allocation-count assertion in
/// `tests/obs_invariants.rs`.
#[derive(Debug, Default)]
pub struct Scratch {
    /// Keyed-sort workspace: one `(order-key, node)` pair per input node.
    /// Entries are recycled, so each pair's key `Vec` keeps its capacity
    /// across calls.
    keyed: Vec<(Vec<(u64, u64)>, NodeId)>,
    /// Per-origin gather buffer for the batch step kernels.
    pub(crate) gather: Vec<NodeId>,
}

impl Scratch {
    /// Fresh, empty scratch space.
    pub fn new() -> Self {
        Scratch::default()
    }
}

/// A node test pre-resolved against a store's interner, consumed by the
/// batch step kernels and the evaluator's per-node test. Resolution
/// happens once per step (not once per node), so the hot match is pure
/// integer work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelTest {
    /// A name test. `None` records an interner miss: the lexical name
    /// appears on no node in this store, so the test matches nothing.
    Name(Option<QNameId>),
    /// `*` — any name on the principal axis.
    Wildcard,
    /// `text()`
    Text,
    /// `node()`
    AnyKind,
    /// `comment()`
    Comment,
    /// `processing-instruction()`
    Pi,
    /// `element()`
    Element,
    /// `attribute()`
    AttributeTest,
    /// `document-node()`
    Document,
}

impl KernelTest {
    /// Resolve a lexical name test. The returned test is only valid
    /// against the same store's interner (ids are per-store).
    pub fn name(symbols: &Symbols, lexical: &str) -> KernelTest {
        KernelTest::Name(symbols.lookup_lexical(lexical))
    }
}

impl Store {
    /// Is `id` an alive node in this store?
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.slots.get(id).is_some_and(|d| d.alive)
    }

    // ------------------------------------------------------------------
    // Secondary indexes (DESIGN.md §17; docs/INDEXES.md)
    // ------------------------------------------------------------------

    /// May the executor's scans read the index plane? Maintenance is
    /// unconditional (O(1) per affected mutation); this flag is the one
    /// place index use is decided (docs/INDEXES.md, gate 1), read per
    /// scan, never at plan time.
    pub fn index_enabled(&self) -> bool {
        self.slots.index().enabled()
    }

    /// Switch the index plane's availability to scans on or off. No plan
    /// depends on it, so nothing cached is invalidated.
    pub fn set_indexing(&mut self, on: bool) {
        self.slots.set_indexing(on);
    }

    /// Number of alive elements named `name` anywhere in the store
    /// (0 when none — bucket absence *is* an exact answer).
    pub fn index_name_len(&self, name: QNameId) -> usize {
        self.slots.index().name_len(name)
    }

    /// Append every alive element named `name` to `out` — store-global,
    /// in id order (not document order); callers filter by containment
    /// against their scan origins and doc-order sort the result.
    pub fn index_name_nodes(&self, name: QNameId, out: &mut Vec<NodeId>) {
        if let Some(bucket) = self.slots.index().name_bucket(name) {
            out.extend(bucket.iter());
        }
    }

    /// Upper bound on the number of alive attributes named `name` with
    /// value `value` (hash-bucket size; collisions inflate it).
    pub fn index_attr_len(&self, name: QNameId, value: &str) -> usize {
        self.slots.index().attr_len(name, value_hash(value))
    }

    /// Append every alive attribute node named `name` whose value
    /// equals `value` *exactly* to `out` (the hash bucket is re-checked
    /// here, so collisions cost a string compare, never a wrong
    /// answer). Same contract as [`Store::index_name_nodes`].
    pub fn index_attr_nodes(&self, name: QNameId, value: &str, out: &mut Vec<NodeId>) {
        if let Some(bucket) = self.slots.index().attr_bucket(name, value_hash(value)) {
            for id in bucket.iter() {
                if let Some(NodeData {
                    kind: NodeKind::Attribute { value: v, .. },
                    alive: true,
                    ..
                }) = self.slots.get(id)
                {
                    if v == value {
                        out.push(id);
                    }
                }
            }
        }
    }

    /// Does the plane hold exactly the entries a from-scratch rebuild
    /// would? The maintenance-equivalence oracle for the proptests.
    pub fn index_verify(&self) -> bool {
        self.slots.index_matches_rebuild()
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// The node's kind and payload.
    pub fn kind(&self, id: NodeId) -> XdmResult<&NodeKind> {
        Ok(&self.slots.alive(id)?.kind)
    }

    /// The node's parent, if attached.
    pub fn parent(&self, id: NodeId) -> XdmResult<Option<NodeId>> {
        Ok(self.slots.alive(id)?.parent)
    }

    /// The node's children (empty for non-containers).
    pub fn children(&self, id: NodeId) -> XdmResult<&[NodeId]> {
        Ok(match &self.slots.alive(id)?.kind {
            NodeKind::Document { children } | NodeKind::Element { children, .. } => children,
            _ => &[],
        })
    }

    /// The node's attribute nodes (empty for non-elements).
    pub fn attributes(&self, id: NodeId) -> XdmResult<&[NodeId]> {
        Ok(match &self.slots.alive(id)?.kind {
            NodeKind::Element { attributes, .. } => attributes,
            _ => &[],
        })
    }

    /// The node's name (elements and attributes; `None` otherwise),
    /// materialized lexically. Hot paths should prefer
    /// [`Store::name_id`], which is alloc-free.
    pub fn name(&self, id: NodeId) -> XdmResult<Option<QName>> {
        Ok(self.name_id(id)?.map(|q| self.symbols.resolve_qname(q)))
    }

    /// The node's interned name (elements and attributes; `None`
    /// otherwise). Within one store, equal ids ⇔ equal lexical names.
    pub fn name_id(&self, id: NodeId) -> XdmResult<Option<QNameId>> {
        Ok(match &self.slots.alive(id)?.kind {
            NodeKind::Element { name, .. } | NodeKind::Attribute { name, .. } => Some(*name),
            _ => None,
        })
    }

    /// Look up an attribute of `element` by (unprefixed) name; returns
    /// the attribute node. An interner miss means no node anywhere bears
    /// the name, so the attribute list is not even scanned.
    pub fn attribute_by_name(&self, element: NodeId, name: &str) -> XdmResult<Option<NodeId>> {
        let wanted = match self.symbols.lookup(name) {
            Some(s) => s,
            None => {
                self.slots.alive(element)?; // preserve dangling-id errors
                return Ok(None);
            }
        };
        for &a in self.attributes(element)? {
            if let NodeKind::Attribute { name: n, .. } = self.kind(a)? {
                if n.prefix().is_none() && n.local() == wanted {
                    return Ok(Some(a));
                }
            }
        }
        Ok(None)
    }

    /// The XDM string value: concatenated descendant text for containers,
    /// content for the leaf kinds.
    pub fn string_value(&self, id: NodeId) -> XdmResult<String> {
        match &self.slots.alive(id)?.kind {
            NodeKind::Attribute { value, .. } => Ok(value.clone()),
            NodeKind::Text { content } | NodeKind::Comment { content } => Ok(content.clone()),
            NodeKind::Pi { content, .. } => Ok(content.clone()),
            NodeKind::Document { .. } | NodeKind::Element { .. } => {
                let mut out = String::new();
                self.collect_text(id, &mut out)?;
                Ok(out)
            }
        }
    }

    /// Concatenate descendant text into `out`. Iterative with an
    /// explicit stack: `string_value` on a pathologically deep document
    /// must error or succeed, never abort the process on stack overflow
    /// (same treatment the parsers and serializers got).
    fn collect_text(&self, id: NodeId, out: &mut String) -> XdmResult<()> {
        let mut stack: Vec<NodeId> = vec![id];
        while let Some(n) = stack.pop() {
            match &self.slots.alive(n)?.kind {
                NodeKind::Text { content } => out.push_str(content),
                NodeKind::Document { children } | NodeKind::Element { children, .. } => {
                    stack.extend(children.iter().rev().copied());
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The root of the tree containing `id` (follows parent links; a
    /// detached node is its own root).
    pub fn root(&self, id: NodeId) -> XdmResult<NodeId> {
        let mut cur = id;
        while let Some(p) = self.parent(cur)? {
            cur = p;
        }
        Ok(cur)
    }

    /// All descendants of `id` in document (preorder) order, not including
    /// `id` itself. Attributes are *not* descendants (XDM).
    pub fn descendants(&self, id: NodeId) -> XdmResult<Vec<NodeId>> {
        let mut out = Vec::new();
        let mut stack: Vec<NodeId> = self.children(id)?.iter().rev().copied().collect();
        while let Some(n) = stack.pop() {
            out.push(n);
            for &c in self.children(n)?.iter().rev() {
                stack.push(c);
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // Batch step kernels (DESIGN.md §14): one call per path step over a
    // whole batch of origin nodes, with the node test pre-resolved to
    // interned ids so the per-node check is a couple of integer compares.
    // ------------------------------------------------------------------

    /// Does `node` satisfy `test`? `principal_attr` selects the principal
    /// node kind (attribute on the attribute axis, element elsewhere).
    /// Alloc-free: name tests compare interned ids.
    #[inline]
    pub fn kernel_matches(
        &self,
        node: NodeId,
        principal_attr: bool,
        test: KernelTest,
    ) -> XdmResult<bool> {
        let kind = &self.slots.alive(node)?.kind;
        Ok(match test {
            KernelTest::AnyKind => true,
            KernelTest::Text => matches!(kind, NodeKind::Text { .. }),
            KernelTest::Comment => matches!(kind, NodeKind::Comment { .. }),
            KernelTest::Pi => matches!(kind, NodeKind::Pi { .. }),
            KernelTest::Element => matches!(kind, NodeKind::Element { .. }),
            KernelTest::AttributeTest => matches!(kind, NodeKind::Attribute { .. }),
            KernelTest::Document => matches!(kind, NodeKind::Document { .. }),
            KernelTest::Wildcard => {
                if principal_attr {
                    matches!(kind, NodeKind::Attribute { .. })
                } else {
                    matches!(kind, NodeKind::Element { .. })
                }
            }
            KernelTest::Name(wanted) => {
                let name = match kind {
                    NodeKind::Element { name, .. } if !principal_attr => Some(*name),
                    NodeKind::Attribute { name, .. } if principal_attr => Some(*name),
                    _ => None,
                };
                match (name, wanted) {
                    (Some(n), Some(w)) => n == w,
                    _ => false,
                }
            }
        })
    }

    /// Child-axis kernel: append to `out` every child of every node in
    /// `input` that satisfies `test`. `out` is *not* cleared — callers
    /// own the buffer lifecycle — and is *not* doc-order normalized
    /// (when an input node is an ancestor of another, child batches can
    /// interleave); the driver applies `sort_and_dedup_with` per step.
    pub fn batch_children_into(
        &self,
        input: &[NodeId],
        test: KernelTest,
        out: &mut Vec<NodeId>,
    ) -> XdmResult<()> {
        for &origin in input {
            for &c in self.children(origin)? {
                if self.kernel_matches(c, false, test)? {
                    out.push(c);
                }
            }
        }
        Ok(())
    }

    /// Descendant-axis kernel (`or_self` widens to descendant-or-self).
    /// Uses the scratch gather buffer as the DFS stack, so steady-state
    /// traversal allocates nothing. Same output contract as
    /// [`Store::batch_children_into`].
    ///
    /// `allowance` caps the nodes the walk may test (`usize::MAX`:
    /// unbounded). Returns `Ok(true)` when the walk finished, and
    /// `Ok(false)` as soon as it would test one node more than allowed;
    /// `out` then holds a partial answer the caller must discard. The
    /// executor's index cost gate uses this to try the walk first.
    pub fn batch_descendants_into(
        &self,
        input: &[NodeId],
        test: KernelTest,
        or_self: bool,
        mut allowance: usize,
        scratch: &mut Scratch,
        out: &mut Vec<NodeId>,
    ) -> XdmResult<bool> {
        let stack = &mut scratch.gather;
        for &origin in input {
            if or_self {
                let Some(left) = allowance.checked_sub(1) else {
                    return Ok(false);
                };
                allowance = left;
                if self.kernel_matches(origin, false, test)? {
                    out.push(origin);
                }
            }
            stack.clear();
            stack.extend(self.children(origin)?.iter().rev());
            while let Some(n) = stack.pop() {
                let Some(left) = allowance.checked_sub(1) else {
                    return Ok(false);
                };
                allowance = left;
                if self.kernel_matches(n, false, test)? {
                    out.push(n);
                }
                for &c in self.children(n)?.iter().rev() {
                    stack.push(c);
                }
            }
        }
        Ok(true)
    }

    /// Attribute-axis kernel: the principal node kind is attribute. Same
    /// output contract as [`Store::batch_children_into`].
    pub fn batch_attributes_into(
        &self,
        input: &[NodeId],
        test: KernelTest,
        out: &mut Vec<NodeId>,
    ) -> XdmResult<()> {
        for &origin in input {
            for &a in self.attributes(origin)? {
                if self.kernel_matches(a, true, test)? {
                    out.push(a);
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Document order (paper §4.1: "document order maintenance" is one of
    // the two significant data-model challenges)
    // ------------------------------------------------------------------

    /// Compare two nodes in document order. Nodes in different trees are
    /// ordered by their roots' ids (stable, implementation-defined, as the
    /// XDM allows). An attribute sorts after its owner element and before
    /// the element's children, mirroring the XDM rule.
    pub fn cmp_doc_order(&self, a: NodeId, b: NodeId) -> XdmResult<Ordering> {
        if a == b {
            return Ok(Ordering::Equal);
        }
        let ka = self.order_key(a)?;
        let kb = self.order_key(b)?;
        Ok(ka.cmp(&kb))
    }

    /// The document-order key of a node: root id, then for each ancestor
    /// step the pair `(kind-rank, sibling-order-key)`. Attributes rank 0 so
    /// they sort right after their owner element and before its children
    /// (the XDM rule); other nodes rank 1 with their gap-based order key.
    /// O(depth) — no sibling scanning (see [`NodeData::okey`]).
    fn order_key(&self, node: NodeId) -> XdmResult<Vec<(u64, u64)>> {
        let mut key = Vec::new();
        self.order_key_into(node, &mut key)?;
        Ok(key)
    }

    /// [`Store::order_key`] into a caller-owned buffer (cleared first),
    /// so keyed sorting can recycle its key allocations.
    fn order_key_into(&self, node: NodeId, key: &mut Vec<(u64, u64)>) -> XdmResult<()> {
        key.clear();
        let mut cur = node;
        while let Some(p) = self.parent(cur)? {
            let d = self.slots.alive(cur)?;
            let rank = if matches!(d.kind, NodeKind::Attribute { .. }) {
                0
            } else {
                1
            };
            key.push((rank, d.okey));
            cur = p;
        }
        key.push((u64::from(cur.0), 0));
        key.reverse();
        Ok(())
    }

    /// The pre-optimization document-order comparison: recomputes sibling
    /// positions by scanning each ancestor's child list — O(depth · fanout)
    /// per comparison. Kept as the baseline for the document-order
    /// maintenance ablation (experiment E9); semantics identical to
    /// [`Store::cmp_doc_order`].
    pub fn cmp_doc_order_scan(&self, a: NodeId, b: NodeId) -> XdmResult<Ordering> {
        if a == b {
            return Ok(Ordering::Equal);
        }
        Ok(self.order_key_scan(a)?.cmp(&self.order_key_scan(b)?))
    }

    fn order_key_scan(&self, node: NodeId) -> XdmResult<Vec<(u64, u64)>> {
        let mut rev: Vec<(u64, u64)> = Vec::new();
        let mut cur = node;
        while let Some(p) = self.parent(cur)? {
            if let Some(i) = self.attributes(p)?.iter().position(|&x| x == cur) {
                rev.push((0, i as u64));
            } else if let Some(i) = self.children(p)?.iter().position(|&x| x == cur) {
                rev.push((1, i as u64));
            } else {
                return Err(XdmError::precondition(format!(
                    "node {cur} has parent {p} but is not among its children/attributes"
                )));
            }
            cur = p;
        }
        let mut key = vec![(u64::from(cur.0), 0)];
        rev.reverse();
        key.extend(rev);
        Ok(key)
    }

    /// Sort a node sequence in document order and remove duplicates (the
    /// `ddo` applied to every path-expression step result). Allocates
    /// fresh scratch space; hot loops should hold a [`Scratch`] and call
    /// [`Store::sort_and_dedup_with`].
    pub fn sort_and_dedup(&self, nodes: &mut Vec<NodeId>) -> XdmResult<()> {
        self.sort_and_dedup_with(nodes, &mut Scratch::new())
    }

    /// [`Store::sort_and_dedup`] reusing the caller's scratch buffers:
    /// in steady state (sequence length not exceeding any prior call's)
    /// this performs no allocation at all.
    pub fn sort_and_dedup_with(
        &self,
        nodes: &mut Vec<NodeId>,
        scratch: &mut Scratch,
    ) -> XdmResult<()> {
        match nodes[..] {
            [] => return Ok(()),
            [n] => {
                // Keep the dangling-id error the keyed path would raise.
                self.slots.alive(n)?;
                return Ok(());
            }
            _ => {}
        }
        while scratch.keyed.len() < nodes.len() {
            scratch.keyed.push((Vec::new(), NodeId(0)));
        }
        let keyed = &mut scratch.keyed[..nodes.len()];
        for (slot, &n) in keyed.iter_mut().zip(nodes.iter()) {
            self.order_key_into(n, &mut slot.0)?;
            slot.1 = n;
        }
        // Unstable sort: a node's order key is unique, and duplicates of
        // the same node are bitwise-equal pairs, so instability is
        // unobservable — and unlike the stable sort it allocates no merge
        // buffer, which the steady-state allocation pin relies on.
        keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        nodes.clear();
        for (_, n) in keyed.iter() {
            // Duplicates are adjacent after the sort (a node's key is
            // unique), so dedup is a last-pushed check.
            if nodes.last() != Some(n) {
                nodes.push(*n);
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Reachability & garbage (paper §4.1: "garbage collection of persistent
    // but unreachable nodes, resulting from the detach semantics")
    // ------------------------------------------------------------------

    /// Statistics on reachable vs garbage nodes with respect to `roots`.
    pub fn stats(&self, roots: &[NodeId]) -> XdmResult<StoreStats> {
        let reachable = self.reachable_set(roots)?;
        let alive = self.len();
        Ok(StoreStats {
            alive,
            reachable: reachable.len(),
            garbage: alive - reachable.len(),
        })
    }

    pub(super) fn reachable_set(&self, roots: &[NodeId]) -> XdmResult<HashSet<NodeId>> {
        let mut seen = HashSet::new();
        let mut stack: Vec<NodeId> = Vec::new();
        for &r in roots {
            // Reachability is from the root of each referenced tree: holding
            // any node keeps its whole tree alive (parent links are live).
            stack.push(self.root(r)?);
        }
        while let Some(n) = stack.pop() {
            if !seen.insert(n) {
                continue;
            }
            for &c in self.children(n)? {
                stack.push(c);
            }
            for &a in self.attributes(n)? {
                stack.push(a);
            }
        }
        Ok(seen)
    }
}
