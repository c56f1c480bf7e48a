//! Durability (docs/DURABILITY.md): the redo-log and checkpoint surface
//! of the store, and the fingerprint both are verified against. The log
//! records the forward op of every committed mutation; recovery
//! reconstructs the store — node ids, order keys and free list included
//! — by replaying the same ops through `Store::apply`.

use super::slots::Slots;
use super::Store;
use crate::error::{XdmError, XdmResult};
use crate::node::{NodeData, NodeId, NodeKind};
use crate::symbols::{QNameId, Symbols};
use crate::wal::{self, CommitReceipt, Cursor, Fnv64, RecoveryReport, SyncMode, Wal};
use std::path::Path;

impl Store {
    /// Open (or create) a durable store rooted at `dir`: load the
    /// checkpoint snapshot if one exists (CRC- and fingerprint-verified),
    /// replay the redo log's committed batches, drop any corrupt tail
    /// with a warning, and re-attach the log for appending. See
    /// docs/DURABILITY.md for the recovery algorithm.
    pub fn open_durable(
        dir: impl AsRef<Path>,
        sync: SyncMode,
    ) -> XdmResult<(Store, RecoveryReport)> {
        wal::recover(dir.as_ref(), sync)
    }

    /// Attach a fresh durable log at `dir` to *this* store, persisting
    /// its current contents as the initial checkpoint (the REPL's
    /// `:save`). Any previous store files in `dir` are replaced.
    /// Precondition: no undo frame is open.
    pub fn save_durable(&mut self, dir: impl AsRef<Path>, sync: SyncMode) -> XdmResult<()> {
        if self.journal.in_frame() {
            return Err(XdmError::precondition(
                "save_durable inside an open undo frame",
            ));
        }
        let w = Wal::open(dir.as_ref(), sync, 0, Some(0))?;
        self.wal = Some(Box::new(w));
        self.checkpoint()?;
        Ok(())
    }

    pub(crate) fn attach_wal(&mut self, wal: Box<Wal>) {
        self.wal = Some(wal);
    }

    /// Is a durable log attached?
    pub fn has_wal(&self) -> bool {
        self.wal.is_some()
    }

    /// Set the fsync policy of the attached log (no-op without one).
    pub fn set_durability(&mut self, sync: SyncMode) {
        if let Some(w) = &mut self.wal {
            w.set_sync(sync);
        }
    }

    /// The attached log's fsync policy, if any.
    pub fn durability(&self) -> Option<SyncMode> {
        self.wal.as_deref().map(Wal::sync_mode)
    }

    /// Make every forward op recorded since the last commit durable:
    /// flush them with a commit marker and fsync per the sync policy.
    /// Returns `Ok(None)` when there is nothing to commit, no log is
    /// attached, or an undo frame is still open (an open frame means the
    /// ops are not yet commitment — the paper's §2.3 rule). The ops leave
    /// the forward buffer whether or not the write succeeds: after an I/O
    /// error the log refuses every later commit with `XQB0060` until the
    /// store is reopened.
    pub fn wal_commit(&mut self) -> XdmResult<Option<CommitReceipt>> {
        if self.journal.in_frame() {
            return Ok(None);
        }
        let Some(w) = &mut self.wal else {
            return Ok(None);
        };
        let ops = std::mem::take(&mut self.journal.forward);
        w.commit(&ops)
    }

    /// Is an automatic checkpoint due (256 commits since the last one)?
    pub fn checkpoint_due(&self) -> bool {
        self.wal.as_deref().is_some_and(Wal::checkpoint_due)
    }

    /// Write a compacted checkpoint: commit anything pending, snapshot
    /// the full store (with its fingerprint and the current LSN) to
    /// `checkpoint.tmp`, fsync, rename over `checkpoint.bin`, then
    /// truncate the log — recovery time becomes bounded by data size,
    /// not history length. Returns the snapshot size in bytes, or `None`
    /// when no log is attached or a frame is open.
    pub fn checkpoint(&mut self) -> XdmResult<Option<u64>> {
        if self.wal.is_none() || self.journal.in_frame() {
            return Ok(None);
        }
        self.wal_commit()?;
        let fp = self.fingerprint();
        let lsn = self.wal.as_deref().map(Wal::lsn).unwrap_or(0);
        let snapshot = self.snapshot_bytes(lsn, fp);
        self.wal
            .as_mut()
            .expect("checked above")
            .install_checkpoint(&snapshot)?;
        Ok(Some(snapshot.len() as u64))
    }

    /// A deterministic 64-bit fingerprint of the observable store state:
    /// every alive slot's id, kind payload, parent link, child order and
    /// attribute order, plus the free list (which fixes future node-id
    /// allocation). Sibling order *keys* are excluded — they are an
    /// implementation detail whose renumbering is invisible; the child
    /// lists already carry the order. FNV-1a, stable across processes
    /// and toolchains — the canonical store hash shared by recovery
    /// verification, the `xqb:fingerprint()` builtin, and the crash
    /// harness.
    pub fn fingerprint(&self) -> u64 {
        // Names hash lexically (resolved through the interner): the
        // fingerprint predates interning and must stay byte-identical.
        fn qname(h: &mut Fnv64, syms: &Symbols, q: QNameId) {
            let (prefix, local) = syms.qname_parts(q);
            match prefix {
                Some(p) => {
                    h.u8(1);
                    h.str(p);
                }
                None => h.u8(0),
            }
            h.str(local);
        }
        fn ids(h: &mut Fnv64, list: &[NodeId]) {
            h.u32(list.len() as u32);
            for n in list {
                h.u32(n.index() as u32);
            }
        }
        let mut h = Fnv64::new();
        for (id, d) in self.slots.iter() {
            if !d.alive {
                continue;
            }
            h.u32(id.index() as u32);
            match d.parent {
                Some(p) => {
                    h.u8(1);
                    h.u32(p.index() as u32);
                }
                None => h.u8(0),
            }
            match &d.kind {
                NodeKind::Document { children } => {
                    h.u8(0);
                    ids(&mut h, children);
                }
                NodeKind::Element {
                    name,
                    attributes,
                    children,
                } => {
                    h.u8(1);
                    qname(&mut h, &self.symbols, *name);
                    ids(&mut h, attributes);
                    ids(&mut h, children);
                }
                NodeKind::Attribute { name, value } => {
                    h.u8(2);
                    qname(&mut h, &self.symbols, *name);
                    h.str(value);
                }
                NodeKind::Text { content } => {
                    h.u8(3);
                    h.str(content);
                }
                NodeKind::Comment { content } => {
                    h.u8(4);
                    h.str(content);
                }
                NodeKind::Pi { target, content } => {
                    h.u8(5);
                    h.str(self.symbols.resolve(*target));
                    h.str(content);
                }
            }
        }
        h.u8(0xFF);
        for f in self.slots.free() {
            h.u32(f.index() as u32);
        }
        h.finish()
    }

    /// Alive document nodes with no parent, in slot order — the roots a
    /// host rebinds after recovery (bindings are per-session state and
    /// do not survive a restart).
    pub fn document_roots(&self) -> Vec<NodeId> {
        self.slots
            .iter()
            .filter(|(_, d)| {
                d.alive && d.parent.is_none() && matches!(d.kind, NodeKind::Document { .. })
            })
            .map(|(id, _)| id)
            .collect()
    }

    // Checkpoint snapshot format: SNAP_MAGIC, CRC32 of the body, then the
    // body — last LSN, fingerprint, every slot (alive flag, parent, order
    // key, full kind payload including child/attribute lists), and the
    // free list. Unlike the redo log this is a *physical* image: order
    // keys are stored exactly.

    pub(crate) fn snapshot_bytes(&self, last_lsn: u64, fingerprint: u64) -> Vec<u8> {
        use wal::{put_qname, put_str, put_u32, put_u64};
        fn put_ids(out: &mut Vec<u8>, list: &[NodeId]) {
            put_u32(out, list.len() as u32);
            for n in list {
                put_u32(out, n.index() as u32);
            }
        }
        let mut body = Vec::new();
        put_u64(&mut body, last_lsn);
        put_u64(&mut body, fingerprint);
        put_u32(&mut body, self.slots.len() as u32);
        for (_, d) in self.slots.iter() {
            body.push(u8::from(d.alive));
            match d.parent {
                Some(p) => {
                    body.push(1);
                    put_u32(&mut body, p.index() as u32);
                }
                None => body.push(0),
            }
            put_u64(&mut body, d.okey);
            match &d.kind {
                NodeKind::Document { children } => {
                    body.push(0);
                    put_ids(&mut body, children);
                }
                NodeKind::Element {
                    name,
                    attributes,
                    children,
                } => {
                    body.push(1);
                    put_qname(&mut body, &self.symbols, *name);
                    put_ids(&mut body, attributes);
                    put_ids(&mut body, children);
                }
                NodeKind::Attribute { name, value } => {
                    body.push(2);
                    put_qname(&mut body, &self.symbols, *name);
                    put_str(&mut body, value);
                }
                NodeKind::Text { content } => {
                    body.push(3);
                    put_str(&mut body, content);
                }
                NodeKind::Comment { content } => {
                    body.push(4);
                    put_str(&mut body, content);
                }
                NodeKind::Pi { target, content } => {
                    body.push(5);
                    put_str(&mut body, self.symbols.resolve(*target));
                    put_str(&mut body, content);
                }
            }
        }
        put_ids(&mut body, self.slots.free());
        let mut out = Vec::with_capacity(body.len() + 12);
        out.extend_from_slice(wal::SNAP_MAGIC);
        put_u32(&mut out, wal::crc32(&body));
        out.extend_from_slice(&body);
        out
    }

    /// Rebuild a store from a checkpoint snapshot, verifying the CRC and
    /// the embedded fingerprint. Returns the store and the snapshot's
    /// last LSN (replay skips log commits at or below it).
    pub(crate) fn from_snapshot(bytes: &[u8]) -> XdmResult<(Store, u64)> {
        let corrupt = |what: &str| XdmError::new("XQB0060", format!("corrupt checkpoint: {what}"));
        let header = wal::SNAP_MAGIC.len() + 4;
        if bytes.len() < header || &bytes[..wal::SNAP_MAGIC.len()] != wal::SNAP_MAGIC {
            return Err(corrupt("bad magic"));
        }
        let crc = u32::from_le_bytes(
            bytes[wal::SNAP_MAGIC.len()..header]
                .try_into()
                .expect("4 bytes"),
        );
        let body = &bytes[header..];
        if wal::crc32(body) != crc {
            return Err(corrupt("checksum mismatch"));
        }
        let mut c = Cursor::new(body);
        let last_lsn = c.u64()?;
        let fingerprint = c.u64()?;
        let n = c.u32()? as usize;
        if n > body.len() {
            return Err(corrupt("implausible slot count"));
        }
        let mut symbols = Symbols::new();
        let mut nodes = Vec::with_capacity(n);
        for _ in 0..n {
            let alive = c.u8()? != 0;
            let parent = if c.u8()? == 1 { Some(c.node()?) } else { None };
            let okey = c.u64()?;
            let kind = match c.u8()? {
                0 => NodeKind::Document {
                    children: c.nodes()?,
                },
                1 => NodeKind::Element {
                    name: c.qname(&mut symbols)?,
                    attributes: c.nodes()?,
                    children: c.nodes()?,
                },
                2 => NodeKind::Attribute {
                    name: c.qname(&mut symbols)?,
                    value: c.str()?,
                },
                3 => NodeKind::Text { content: c.str()? },
                4 => NodeKind::Comment { content: c.str()? },
                5 => NodeKind::Pi {
                    target: c.symbol(&mut symbols)?,
                    content: c.str()?,
                },
                _ => return Err(corrupt("unknown node kind")),
            };
            nodes.push(NodeData {
                parent,
                kind,
                alive,
                okey,
            });
        }
        let free = c.nodes()?;
        if !c.done() {
            return Err(corrupt("trailing bytes"));
        }
        let mut store = Store::new();
        store.slots = Slots::from_parts(nodes, free);
        store.symbols = std::sync::Arc::new(symbols);
        if store.fingerprint() != fingerprint {
            return Err(corrupt("fingerprint mismatch"));
        }
        Ok((store, last_lsn))
    }
}
