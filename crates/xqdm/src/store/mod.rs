//! The mutable node store (paper §3.2).
//!
//! The store maps node ids to kind, parent, name and content, and exposes
//! exactly the three groups of operations the paper's semantics needs:
//!
//! 1. **XDM accessors and constructors** — `parent`, `children`,
//!    `attributes`, `node_name`, `string_value`, plus `new_element` & co.;
//! 2. **Update-request applications** — `Store::apply` of a
//!    [`crate::RedoOp`] (`Insert`, `AttachAttr`, `Detach` — the paper's
//!    delete-as-detach —, `Rename`, `SetText`, `SetAttrValue`), each a
//!    *partial function* whose preconditions mirror §3.2 (inserted nodes
//!    must be parentless, the insertion anchor must be a child of the
//!    parent, no cycles, one attribute per name);
//! 3. **Housekeeping the paper flags as the hard parts** (§4.1): document
//!    order over a mutable forest, and garbage accounting for nodes that
//!    are detached and unreachable yet persistent.
//!
//! The code is split along the mutation chokepoint (DESIGN.md "Mutation
//! chokepoint"): `slots` owns the node slots, the free list and the
//! index plane behind raw slot writers; `ops` turns every mutation
//! into one `apply(op)`; `journal` holds the undo journal, the forward
//! buffer and the frames; `read` is the accessors, batch kernels and
//! document order; `durable` is the log, checkpoint and fingerprint
//! surface.

mod durable;
mod journal;
mod ops;
mod read;
mod slots;
#[cfg(test)]
mod tests;

pub use read::{KernelTest, Scratch};
pub use slots::Segment;

use crate::node::NodeId;
use crate::symbols::Symbols;
use crate::wal::Wal;
use journal::Journal;
use slots::Slots;
use std::sync::Arc;

/// Where an insertion lands among a parent's children (paper §3.1's
/// `as first into` / `as last into` / `into` / `after` / `before` forms are
/// all resolved by the evaluator to one of these anchors plus a parent).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InsertAnchor {
    /// Before the first existing child.
    First,
    /// After the last existing child (also the meaning of plain `into`).
    Last,
    /// Immediately after the given sibling (which must be a child of the
    /// insertion parent — a paper precondition).
    After(NodeId),
}

/// Aggregate statistics about a store, used by the detach/GC experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// Total slots ever allocated and still alive.
    pub alive: usize,
    /// Alive nodes reachable from the given roots.
    pub reachable: usize,
    /// Alive nodes *not* reachable from the given roots (detached garbage).
    pub garbage: usize,
}
/// The mutable XML store.
#[derive(Debug, Default)]
pub struct Store {
    /// Node slots, free list and index plane; written only through the
    /// raw slot writers of `slots`.
    slots: Slots,
    /// Undo journal, forward buffer and open frames (see
    /// [`Store::begin_frame`]).
    journal: Journal,
    /// Attached durable redo log (see [`Store::open_durable`]). While
    /// present, every successful mutation records its forward op;
    /// [`Store::wal_commit`] makes them durable.
    wal: Option<Box<Wal>>,
    /// Interned names: node slots hold [`crate::QNameId`]s and
    /// [`crate::SymbolId`]s into this append-only table (DESIGN.md §14).
    /// Shared with every snapshot and clone of this store; interning
    /// copies it only for a name it has never held (`Store::intern_qname`).
    symbols: Arc<Symbols>,
}

impl Clone for Store {
    /// A cloned store is an in-memory fork: node slots, free list and
    /// journal state are copied, the symbol table is shared until either
    /// side interns a new name, and the redo log
    /// stays with the original (two writers on one log would interleave
    /// histories).
    fn clone(&self) -> Self {
        Store {
            slots: self.slots.clone(),
            journal: self.journal.fork(),
            wal: None,
            symbols: self.symbols.clone(),
        }
    }
}

impl Drop for Store {
    /// Clean shutdown of a durable store: flush any pending redo ops as
    /// a final commit and append a seal record carrying the fingerprint,
    /// so the next recovery can verify it rebuilt the identical store.
    /// Best-effort — a drop mid-unwind (open frames) seals nothing.
    fn drop(&mut self) {
        if self.wal.is_some() && !self.journal.in_frame() {
            let _ = self.wal_commit();
            let fp = self.fingerprint();
            if let Some(w) = &mut self.wal {
                if w.dirty_since_open() {
                    let _ = w.seal(fp);
                }
            }
        }
    }
}

impl Store {
    /// An empty store.
    pub fn new() -> Self {
        Store::default()
    }

    /// Number of alive nodes.
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|(_, d)| d.alive).count()
    }

    /// True when no alive nodes exist.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// An immutable copy-on-write fork of this store: the snapshot shares
    /// every node page with the live store (O(pages), not O(nodes)), and
    /// later mutations of either side copy only the pages they touch.
    /// Node ids remain valid across the fork, so bindings and values
    /// taken against the live store resolve identically in the snapshot.
    ///
    /// The symbol table is shared by reference count, not copied: a fork
    /// that constructs a name the store has never held copies the table
    /// then, and only in its own store.
    ///
    /// The snapshot is a plain in-memory [`Store`]: no redo log (the log
    /// stays with the writer), no undo journal, clean frame state. The
    /// caller must not be inside an open undo frame — a mid-frame fork
    /// would capture uncommitted mutations as if they were state.
    pub fn snapshot(&self) -> Store {
        assert!(
            !self.journal.in_frame(),
            "snapshot inside an open undo frame"
        );
        Store {
            slots: self.slots.clone(),
            journal: Journal::default(),
            wal: None,
            symbols: self.symbols.clone(),
        }
    }

    /// How many node pages this store still shares with `other`
    /// (snapshot-COW observability; see [`Store::snapshot`]).
    pub fn shared_pages_with(&self, other: &Store) -> usize {
        self.slots.shared_pages_with(&other.slots)
    }

    /// Total node pages backing this store.
    pub fn page_count(&self) -> usize {
        self.slots.page_count()
    }

    /// The store's symbol table (read access: name lookups, resolution).
    pub fn symbols(&self) -> &Symbols {
        &self.symbols
    }

    /// Keep the order segment of the freshly built, parentless tree under
    /// `root` (DESIGN.md §14): one walk verifies it. The parsers call
    /// this once a document is whole.
    pub(crate) fn note_segment(&mut self, root: NodeId) {
        self.slots.note_segment(root);
    }

    /// Derive every order segment afresh from the slots, as a checkpoint
    /// load does; log replay calls it once the log is applied.
    pub(crate) fn derive_segments(&mut self) {
        self.slots.derive_segments();
    }
}
