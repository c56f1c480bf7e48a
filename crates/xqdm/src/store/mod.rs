//! The mutable node store (paper §3.2).
//!
//! The store maps node ids to kind, parent, name and content, and exposes
//! exactly the three groups of operations the paper's semantics needs:
//!
//! 1. **XDM accessors and constructors** — `parent`, `children`,
//!    `attributes`, `node_name`, `string_value`, plus `new_element` & co.;
//! 2. **Update-request applications** — `apply_insert`, `detach` (the
//!    paper's delete-as-detach), `apply_rename`, each a *partial function*
//!    whose preconditions mirror §3.2 (inserted nodes must be parentless,
//!    the insertion anchor must be a child of the parent, no cycles);
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

use crate::error::XdmResult;
use crate::footprint::{Capture, CapturedDelta, Footprint};
use crate::node::NodeId;
use crate::symbols::Symbols;
use crate::wal::Wal;
use journal::Journal;
use slots::Slots;

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
    /// Δ capture for optimistic concurrency (DESIGN.md §16). While
    /// present, every successful mutation records its forward op and
    /// write footprint, and (when read tracing is on) every accessor
    /// records its read footprint; see [`Store::begin_capture`].
    capture: Option<Box<Capture>>,
    /// Interned names: node slots hold [`crate::QNameId`]s and
    /// [`crate::SymbolId`]s into this append-only table (DESIGN.md §14).
    symbols: Symbols,
}

impl Clone for Store {
    /// A cloned store is an in-memory fork: node slots, free list,
    /// journal state and the symbol table are copied, but the redo log
    /// stays with the original (two writers on one log would interleave
    /// histories).
    fn clone(&self) -> Self {
        Store {
            slots: self.slots.clone(),
            journal: self.journal.fork(),
            wal: None,
            capture: None,
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
            capture: None,
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

    /// Is any forward-op consumer attached (redo log or Δ capture)?
    fn logging(&self) -> bool {
        self.wal.is_some() || self.capture.is_some()
    }

    /// A consumer was detached: forward ops nobody is left to drain must
    /// not survive into the next consumer's stream.
    fn consumer_detached(&mut self) {
        if !self.logging() {
            self.journal.forward = Default::default();
        }
    }

    /// Record an evaluator-visible read of `aspects` of `id` (no-op
    /// unless a read-tracing capture is attached). `&self` on purpose:
    /// effect-free parallel regions read through shared `&Store`.
    #[inline]
    fn trace_read(&self, id: NodeId, aspects: u8) {
        if let Some(c) = &self.capture {
            c.trace_read(id, aspects);
        }
    }

    // ------------------------------------------------------------------
    // Δ capture (optimistic concurrency; DESIGN.md §16)
    // ------------------------------------------------------------------

    /// Attach a Δ capture: every subsequent mutation records its forward
    /// op and write footprint; with `trace_reads`, every evaluator-visible
    /// accessor records its read footprint too. Forked transaction
    /// stores capture with read tracing; the live store captures without
    /// it (only committed write footprints are needed there).
    pub fn begin_capture(&mut self, trace_reads: bool) {
        self.capture = Some(Box::new(Capture::new(trace_reads)));
    }

    /// Is a Δ capture attached?
    pub fn capturing(&self) -> bool {
        self.capture.is_some()
    }

    /// Detach the Δ capture, discarding anything recorded for it.
    pub fn end_capture(&mut self) {
        self.capture = None;
        self.journal.writes.clear();
        self.consumer_detached();
    }

    /// Drain everything recorded since the last take (or since
    /// [`Store::begin_capture`]) into a [`CapturedDelta`], leaving the
    /// capture attached and reset for the next transaction.
    ///
    /// Panics on a durable store: there the forward ops belong to the
    /// redo log, which drains them at [`Store::wal_commit`]. A Δ to be
    /// replayed is recorded on a fork, which never has a log; a durable
    /// store reports what it wrote through
    /// [`Store::take_write_footprint`].
    pub fn take_capture(&mut self) -> Option<CapturedDelta> {
        assert!(
            self.wal.is_none(),
            "take_capture on a durable store: its forward ops belong to the redo log"
        );
        let capture = self.capture.as_mut()?;
        let ops = std::mem::take(&mut self.journal.forward);
        Some(capture.take(ops, self.journal.writes.drain(..)))
    }

    /// Drain only the write footprint recorded since the last take,
    /// leaving the capture attached and reset for the next transaction:
    /// what a committing store publishes for others to validate against.
    /// The forward ops stay with the redo log; without one they are
    /// dropped.
    pub fn take_write_footprint(&mut self) -> Option<Footprint> {
        let capture = self.capture.as_mut()?;
        if self.wal.is_none() {
            self.journal.forward.truncate((0, 0));
        }
        Some(capture.take_writes(self.journal.writes.drain(..)))
    }

    /// Replay a captured Δ onto this store through `Store::apply`,
    /// remapping the Δ's fork-local allocations onto fresh live
    /// allocations (classic OCC rebase). Ops referencing base-snapshot
    /// nodes keep their ids — base ids are stable across the fork. Every
    /// precondition is re-validated against the live store; an error
    /// means the Δ does not apply here (the caller treats it as a
    /// conflict and rolls back its enclosing frame). Because the live
    /// free list and the op sequence fully determine allocation, the
    /// resulting state is bit-identical to running the transaction
    /// serially at this point in the commit order.
    pub fn apply_captured(&mut self, delta: &CapturedDelta) -> XdmResult<()> {
        self.replay(delta.ops.records(), true)
    }
}
