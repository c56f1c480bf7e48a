//! The undo journal, the forward buffer and the frames that bracket both
//! (failure atomicity, DESIGN.md §7; "Mutation chokepoint").
//!
//! While at least one frame is open, `Store::apply` records the inverse
//! of every slot write it makes; while a redo log or a Δ capture is
//! attached it also records the forward op and, for a capture, the write
//! marks. One [`Mark`] per open frame remembers where all three buffers
//! stood, so a rollback undoes the slot writes and forgets the frame's
//! forward ops and marks in one step — nothing uncommitted ever reaches
//! the log or a captured Δ. `apply_delta` (crate `xqcore`) opens a frame
//! around each snap application so a failed update leaves the store
//! exactly as it was; the engine opens an outer frame around each run so
//! a panic can be unwound to the pre-call store.

use super::Store;
use crate::node::{NodeData, NodeId};
use crate::symbols::QNameId;
use crate::wal::RedoBuf;

/// One recorded inverse of a raw slot write, *physical* where the forward
/// op is logical: exact order key, splice position, free-list position.
/// [`Store::rollback_frame`] replays entries in reverse through the slot
/// writers, never through `apply`, so rollback itself records nothing.
#[derive(Debug, Clone)]
pub(super) enum UndoEntry {
    /// A node was allocated; `reused` says whether the slot came off the
    /// free list (so undo can restore the free list exactly).
    Alloc { id: NodeId, reused: bool },
    /// An element or attribute was renamed; `name` is the previous
    /// (interned) name — symbol ids stay valid forever, the table being
    /// append-only, so the journal can hold them safely.
    Name { id: NodeId, name: QNameId },
    /// A text node's content or an attribute's value was replaced.
    Value { id: NodeId, value: String },
    /// A node's sibling order key was rewritten.
    Okey { id: NodeId, okey: u64 },
    /// `count` parentless nodes were linked into `parent`'s child list
    /// (attribute list when `in_attributes`) at `index`; undo unlinks
    /// them.
    Linked {
        parent: NodeId,
        in_attributes: bool,
        index: usize,
        count: usize,
    },
    /// `node` was unlinked from `parent` at `index`; undo links it back.
    Unlinked {
        node: NodeId,
        parent: NodeId,
        in_attributes: bool,
        index: usize,
    },
    /// A slot was retired; `data` is its full payload. Boxed so this
    /// rare, fat entry does not inflate the size of every other one.
    Retired { id: NodeId, data: Box<NodeData> },
}

/// Where the three buffers stood when a frame opened.
#[derive(Debug, Clone, Copy)]
struct Mark {
    undo: usize,
    forward: (usize, usize),
    writes: usize,
}

/// Journal capacity retained across outermost commits: the journal is
/// cleared on every outermost [`Store::commit_frame`], and any backing
/// allocation beyond this many entries is released too, so a long-lived
/// session's journal memory stays bounded by its largest recent frame,
/// not its largest-ever frame.
const UNDO_RETAIN_CAP: usize = 4096;

#[derive(Debug, Default)]
pub(super) struct Journal {
    /// Inverses of every slot write made while a frame is open.
    undo: Vec<UndoEntry>,
    /// One mark per open frame.
    frames: Vec<Mark>,
    /// Forward ops recorded since a consumer last drained them: the redo
    /// log at [`Store::wal_commit`], else the capture at
    /// [`Store::take_capture`]. Empty while neither is attached.
    pub(super) forward: RedoBuf,
    /// Write-footprint marks for the attached capture.
    pub(super) writes: Vec<(NodeId, u8)>,
}

impl Journal {
    /// The journal state a fork starts from: inverses and frames are
    /// copied, forward ops and write marks stay with the original's
    /// consumers.
    pub(super) fn fork(&self) -> Journal {
        Journal {
            undo: self.undo.clone(),
            frames: self.frames.clone(),
            ..Journal::default()
        }
    }

    #[cfg(test)]
    pub(super) fn undo_len(&self) -> usize {
        self.undo.len()
    }

    pub(super) fn in_frame(&self) -> bool {
        !self.frames.is_empty()
    }

    /// Record an inverse (no-op outside a frame).
    #[inline]
    pub(super) fn undo(&mut self, entry: UndoEntry) {
        if self.in_frame() {
            self.undo.push(entry);
        }
    }
}

impl Store {
    /// Open an undo frame: every subsequent mutation records its inverse
    /// until the frame is closed by [`Store::commit_frame`] or
    /// [`Store::rollback_frame`]. Frames nest; an inner frame's entries are
    /// retained for the enclosing frame when the inner one commits, so an
    /// outer rollback still undoes inner-committed work.
    pub fn begin_frame(&mut self) {
        let j = &mut self.journal;
        j.frames.push(Mark {
            undo: j.undo.len(),
            forward: j.forward.mark(),
            writes: j.writes.len(),
        });
    }

    /// Close the innermost frame, keeping its effects. O(1) when nested;
    /// the outermost commit frees the accumulated journal. Panics if no
    /// frame is open.
    pub fn commit_frame(&mut self) {
        let j = &mut self.journal;
        j.frames.pop().expect("commit_frame without an open frame");
        if j.frames.is_empty() {
            j.undo.clear();
            // Bound the journal's retained memory: clear() keeps the
            // backing allocation, so one huge frame would otherwise pin
            // its high-water capacity for the session's lifetime.
            if j.undo.capacity() > UNDO_RETAIN_CAP {
                j.undo.shrink_to(UNDO_RETAIN_CAP);
            }
        }
    }

    /// Close the innermost frame, undoing every mutation made since its
    /// [`Store::begin_frame`] — including mutations of inner frames that
    /// have already committed. The store is restored exactly: node slots,
    /// the free list, parent links, sibling positions, order keys and the
    /// index plane all return to their pre-frame state, and the frame's
    /// forward ops and write marks are forgotten. Panics if no frame is
    /// open.
    pub fn rollback_frame(&mut self) {
        let mark = self
            .journal
            .frames
            .pop()
            .expect("rollback_frame without an open frame");
        while self.journal.undo.len() > mark.undo {
            let entry = self.journal.undo.pop().expect("length checked");
            self.undo_entry(entry);
        }
        self.journal.forward.truncate(mark.forward);
        self.journal.writes.truncate(mark.writes);
    }

    /// Replay one inverse through the slot writers (reverse order is the
    /// caller's job).
    fn undo_entry(&mut self, entry: UndoEntry) {
        let slots = &mut self.slots;
        match entry {
            UndoEntry::Alloc { id, reused } => slots.unbirth(id, reused),
            UndoEntry::Name { id, name } => {
                slots.set_name(id, name);
            }
            UndoEntry::Value { id, value } => {
                slots.set_value(id, value);
            }
            UndoEntry::Okey { id, okey } => {
                slots.set_okey(id, okey);
            }
            UndoEntry::Linked {
                parent,
                in_attributes,
                index,
                count,
            } => slots.unlink(parent, in_attributes, index, count),
            UndoEntry::Unlinked {
                node,
                parent,
                in_attributes,
                index,
            } => slots.link(parent, in_attributes, index, &[node]),
            UndoEntry::Retired { id, data } => slots.revive(id, *data),
        }
    }

    /// Current backing capacity of the undo journal, in entries (for the
    /// boundedness test pinning the retained capacity).
    pub fn journal_capacity(&self) -> usize {
        self.journal.undo.capacity()
    }

    /// Pre-size the journal for roughly `additional` upcoming entries so a
    /// bulk application does not pay repeated reallocation copies. A no-op
    /// when no frame is open.
    pub fn journal_reserve(&mut self, additional: usize) {
        if self.journal.in_frame() {
            self.journal.undo.reserve(additional);
        }
    }

    /// Number of currently open undo frames.
    pub fn frame_depth(&self) -> usize {
        self.journal.frames.len()
    }

    /// Ids allocated since the innermost open frame began (empty when no
    /// frame is open). Used by the engine to sweep constructed-but-orphaned
    /// nodes after a failed run without touching pre-existing garbage.
    pub fn frame_allocations(&self) -> Vec<NodeId> {
        let Some(mark) = self.journal.frames.last() else {
            return Vec::new();
        };
        self.journal.undo[mark.undo..]
            .iter()
            .filter_map(|e| match e {
                UndoEntry::Alloc { id, .. } => Some(*id),
                _ => None,
            })
            .collect()
    }
}
