//! Durable redo log for the store (ISSUE 6; docs/DURABILITY.md).
//!
//! The paper's snap semantics gives every update a well-defined atomic
//! commit point; this module persists exactly those committed transitions.
//! While a durable store is attached, `Store::apply` encodes every
//! successful mutation's logical [`RedoOp`] into the store's forward
//! buffer ([`RedoBuf`]); at each engine commit point the buffer is
//! flushed to `wal.log` as length-prefixed, CRC32-checksummed records
//! followed by a commit marker, optionally fsynced ([`SyncMode`]).
//! Rollback of an undo frame truncates the buffer — nothing uncommitted
//! ever reaches the file as a committed batch.
//!
//! Recovery replays the log through the very same `Store::apply`, so
//! order-key assignment, free-list reuse and hence every [`NodeId`] are
//! reproduced bit-for-bit; anything after the last valid commit marker
//! (a torn record, a failed checksum, trailing unmarked ops) is dropped
//! with a warning, never an abort. Periodic checkpoints write a full
//! snapshot (`checkpoint.bin`) and truncate the log so recovery time is
//! bounded by data size, not history length.

use crate::error::{XdmError, XdmResult};
use crate::node::{NodeId, NodeKind};
use crate::store::{InsertAnchor, Store};
use crate::symbols::{QNameId, Symbols};
use std::borrow::Cow;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Magic header of `wal.log`.
pub const LOG_MAGIC: &[u8; 8] = b"XQWAL001";
/// Magic header of `checkpoint.bin`.
pub const SNAP_MAGIC: &[u8; 8] = b"XQSNAP01";
/// Upper bound on a single record's payload; a corrupted length field
/// must not trigger a giant allocation during recovery.
const MAX_RECORD: u32 = 64 << 20;
/// `SyncMode::Batch` fsyncs at most once per this many commits.
const BATCH_EVERY: u64 = 32;
/// An automatic checkpoint is installed every this many commits.
const CHECKPOINT_EVERY: u64 = 256;

/// When to fsync the redo log (set via `Engine::set_durability`, the
/// binaries' `--durability` flag, or [`Store::open_durable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncMode {
    /// fsync after every commit marker: a completed commit survives both
    /// process crash and OS crash.
    #[default]
    Always,
    /// fsync every [`BATCH_EVERY`] commits (and on seal/checkpoint):
    /// bounded data loss on OS crash, full safety on process crash.
    Batch,
    /// Never fsync explicitly; the OS flushes at its leisure.
    Off,
}

impl SyncMode {
    /// Parse `"always"` / `"batch"` / `"off"` (the `--durability`
    /// values); `None` for anything else.
    pub fn parse(s: &str) -> Option<SyncMode> {
        match s {
            "always" => Some(SyncMode::Always),
            "batch" => Some(SyncMode::Batch),
            "off" => Some(SyncMode::Off),
            _ => None,
        }
    }
}

impl std::fmt::Display for SyncMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            SyncMode::Always => "always",
            SyncMode::Batch => "batch",
            SyncMode::Off => "off",
        })
    }
}

/// One logical forward operation: what [`Store::apply`] executes, what a
/// pending update list Δ holds (paper §3.2: each op is a partial function
/// on stores) and, encoded, the record the redo log carries. In memory it
/// is store-relative — names are interned ids of the applying store, id
/// lists may be borrowed — so a mutation with no log attached builds
/// nothing. It becomes store-independent at the byte boundary:
/// [`RedoOp::encode`] resolves names lexically into the pinned `wal_v1`
/// record format and [`RedoOp::decode`] interns them into the replaying
/// store. Order keys are deliberately *not* part of an op — replay goes
/// through `apply`, which recomputes them (and the free list, and
/// therefore every node id) deterministically from the same history.
///
/// The six update ops are public; `Alloc` and `Collect` are the store's
/// own (constructors and garbage collection build them) and cannot be
/// constructed outside this crate, so a Δ holds update ops only.
#[derive(Debug, Clone, PartialEq)]
pub enum RedoOp<'a> {
    /// Slot `id` comes alive with the at-birth payload `kind` (containers
    /// are born empty). `id` must be the store's next free slot: trivially
    /// true going forward, the corruption check on log replay.
    #[non_exhaustive]
    Alloc {
        /// The slot born.
        id: NodeId,
        /// Its at-birth payload.
        kind: NodeKind,
    },
    /// `insert(nodeseq, nodepar, nodepos)`: `seq` is spliced into
    /// `parent`'s children at `anchor`. Preconditions: every node of `seq`
    /// is alive, parentless, and not an attribute or document node;
    /// `parent` is a container; an `After(pos)` anchor is a child of
    /// `parent`; no node of `seq` is `parent` or one of its ancestors.
    Insert {
        /// The nodes to splice, in order.
        seq: Cow<'a, [NodeId]>,
        /// The insertion parent.
        parent: NodeId,
        /// Where among `parent`'s children.
        anchor: InsertAnchor,
    },
    /// `attr` is pushed onto `element`'s attribute list. Preconditions:
    /// `attr` is a parentless attribute, `element` an element without an
    /// attribute of that name.
    AttachAttr {
        /// The owner element.
        element: NodeId,
        /// The parentless attribute node.
        attr: NodeId,
    },
    /// `delete(node)` with the paper's detach semantics (§3.1): `node` is
    /// detached from its parent but stays alive and queryable; detaching
    /// a parentless node changes nothing.
    Detach {
        /// The node to detach.
        node: NodeId,
    },
    /// `rename(node, name)`. Preconditions: `node` is an element or an
    /// attribute, and an attribute's owner has no other attribute named
    /// `name`.
    Rename {
        /// The element or attribute.
        node: NodeId,
        /// The new name, interned in the applying store
        /// ([`Store::intern_qname`]).
        name: QNameId,
    },
    /// `replace value of` on a text node: its content is replaced.
    SetText {
        /// The text node.
        node: NodeId,
        /// The new content.
        content: String,
    },
    /// `replace value of` on an attribute node: its value is replaced.
    SetAttrValue {
        /// The attribute node.
        node: NodeId,
        /// The new value.
        value: String,
    },
    /// Exactly these slots are reclaimed, in this order (the order fixes
    /// the free list, hence future allocation).
    #[non_exhaustive]
    Collect {
        /// The slots reclaimed.
        ids: Cow<'a, [NodeId]>,
    },
}

// ----------------------------------------------------------------------
// CRC32 (IEEE, table-driven — the offline dependency set has no digest
// crate) and FNV-1a 64 for the store fingerprint.
// ----------------------------------------------------------------------

fn crc32_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, e) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *e = c;
        }
        t
    })
}

/// CRC32 (IEEE 802.3) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = crc32_table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = t[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Incremental FNV-1a 64-bit hasher: fully deterministic across processes
/// and toolchain versions (unlike `DefaultHasher`), which recovery
/// equivalence checks require.
#[derive(Debug, Clone)]
pub(crate) struct Fnv64(u64);

impl Fnv64 {
    pub(crate) fn new() -> Self {
        Fnv64(0xcbf2_9ce4_8422_2325)
    }
    pub(crate) fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
    pub(crate) fn u8(&mut self, v: u8) {
        self.bytes(&[v]);
    }
    pub(crate) fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
    pub(crate) fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }
}

// ----------------------------------------------------------------------
// Binary encoding helpers (little-endian throughout)
// ----------------------------------------------------------------------

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A name crosses the byte boundary lexically (see [`RedoOp`]).
pub(crate) fn put_qname(out: &mut Vec<u8>, symbols: &Symbols, q: QNameId) {
    let (prefix, local) = symbols.qname_parts(q);
    match prefix {
        Some(p) => {
            out.push(1);
            put_str(out, p);
        }
        None => out.push(0),
    }
    put_str(out, local);
}

/// A bounds-checked little-endian reader over a record payload.
pub(crate) struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Cursor { buf, pos: 0 }
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn corrupt() -> XdmError {
        XdmError::new("XQB0060", "corrupt WAL record payload")
    }

    pub(crate) fn u8(&mut self) -> XdmResult<u8> {
        let b = *self.buf.get(self.pos).ok_or_else(Self::corrupt)?;
        self.pos += 1;
        Ok(b)
    }

    pub(crate) fn u32(&mut self) -> XdmResult<u32> {
        let end = self.pos.checked_add(4).ok_or_else(Self::corrupt)?;
        let b = self.buf.get(self.pos..end).ok_or_else(Self::corrupt)?;
        self.pos = end;
        Ok(u32::from_le_bytes(b.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> XdmResult<u64> {
        let end = self.pos.checked_add(8).ok_or_else(Self::corrupt)?;
        let b = self.buf.get(self.pos..end).ok_or_else(Self::corrupt)?;
        self.pos = end;
        Ok(u64::from_le_bytes(b.try_into().unwrap()))
    }

    /// A length-prefixed byte string, borrowed from the buffer.
    fn bytes(&mut self) -> XdmResult<&'a [u8]> {
        let len = self.u32()? as usize;
        let end = self.pos.checked_add(len).ok_or_else(Self::corrupt)?;
        let b = self.buf.get(self.pos..end).ok_or_else(Self::corrupt)?;
        self.pos = end;
        Ok(b)
    }

    fn str_ref(&mut self) -> XdmResult<&'a str> {
        std::str::from_utf8(self.bytes()?).map_err(|_| Self::corrupt())
    }

    pub(crate) fn str(&mut self) -> XdmResult<String> {
        self.str_ref().map(str::to_string)
    }

    /// A lexical name, interned into `symbols` as it is read.
    pub(crate) fn symbol(&mut self, symbols: &mut Symbols) -> XdmResult<crate::SymbolId> {
        Ok(symbols.intern(self.str_ref()?))
    }

    /// A lexical qualified name, interned into `symbols` as it is read.
    pub(crate) fn qname(&mut self, symbols: &mut Symbols) -> XdmResult<QNameId> {
        let prefix = if self.u8()? == 1 {
            Some(self.str_ref()?)
        } else {
            None
        };
        Ok(symbols.intern_parts(prefix, self.str_ref()?))
    }

    pub(crate) fn node(&mut self) -> XdmResult<NodeId> {
        Ok(NodeId(self.u32()?))
    }

    pub(crate) fn nodes(&mut self) -> XdmResult<Vec<NodeId>> {
        let n = self.u32()? as usize;
        // A corrupt count must not preallocate unbounded memory.
        if n > self.buf.len().saturating_sub(self.pos) / 4 + 1 {
            return Err(Self::corrupt());
        }
        (0..n).map(|_| self.node()).collect()
    }
}

fn put_nodes(out: &mut Vec<u8>, ids: &[NodeId]) {
    put_u32(out, ids.len() as u32);
    for id in ids {
        put_u32(out, id.0);
    }
}

// Record payload tags.
const TAG_OP: u8 = 1;
const TAG_COMMIT: u8 = 2;
const TAG_SEAL: u8 = 3;
/// Interleaved-committer info: which server session committed the batch
/// that follows, and against which base epoch it validated. Written only
/// by the optimistic writers of earlier binaries (DESIGN.md §16); still
/// decoded so their logs recover. Purely diagnostic — replay counts these
/// but applies nothing, and a torn info record drops the tail exactly
/// like any other record.
const TAG_INFO: u8 = 4;

// Op tags (first byte after TAG_OP).
const OP_ALLOC: u8 = 1;
const OP_INSERT: u8 = 2;
const OP_ATTACH_ATTR: u8 = 3;
const OP_DETACH: u8 = 4;
const OP_RENAME: u8 = 5;
const OP_SET_TEXT: u8 = 6;
const OP_SET_ATTR_VALUE: u8 = 7;
const OP_COLLECT: u8 = 8;

// At-birth node kind tags (containers are born empty, so Alloc never
// serializes child/attribute lists; the checkpoint format has its own
// full encoding in store/durable.rs).
const KIND_DOCUMENT: u8 = 0;
const KIND_ELEMENT: u8 = 1;
const KIND_ATTRIBUTE: u8 = 2;
const KIND_TEXT: u8 = 3;
const KIND_COMMENT: u8 = 4;
const KIND_PI: u8 = 5;

impl RedoOp<'_> {
    /// Append the `wal_v1` encoding of this op, resolving its names
    /// through `symbols` (the table of the store it was built against).
    fn encode(&self, out: &mut Vec<u8>, symbols: &Symbols) {
        match self {
            RedoOp::Alloc { id, kind } => {
                out.push(OP_ALLOC);
                put_u32(out, id.0);
                match kind {
                    NodeKind::Document { .. } => out.push(KIND_DOCUMENT),
                    NodeKind::Element { name, .. } => {
                        out.push(KIND_ELEMENT);
                        put_qname(out, symbols, *name);
                    }
                    NodeKind::Attribute { name, value } => {
                        out.push(KIND_ATTRIBUTE);
                        put_qname(out, symbols, *name);
                        put_str(out, value);
                    }
                    NodeKind::Text { content } => {
                        out.push(KIND_TEXT);
                        put_str(out, content);
                    }
                    NodeKind::Comment { content } => {
                        out.push(KIND_COMMENT);
                        put_str(out, content);
                    }
                    NodeKind::Pi { target, content } => {
                        out.push(KIND_PI);
                        put_str(out, symbols.resolve(*target));
                        put_str(out, content);
                    }
                }
            }
            RedoOp::Insert {
                seq,
                parent,
                anchor,
            } => {
                out.push(OP_INSERT);
                put_u32(out, parent.0);
                match anchor {
                    InsertAnchor::First => out.push(0),
                    InsertAnchor::Last => out.push(1),
                    InsertAnchor::After(n) => {
                        out.push(2);
                        put_u32(out, n.0);
                    }
                }
                put_nodes(out, seq);
            }
            RedoOp::AttachAttr { element, attr } => {
                out.push(OP_ATTACH_ATTR);
                put_u32(out, element.0);
                put_u32(out, attr.0);
            }
            RedoOp::Detach { node } => {
                out.push(OP_DETACH);
                put_u32(out, node.0);
            }
            RedoOp::Rename { node, name } => {
                out.push(OP_RENAME);
                put_u32(out, node.0);
                put_qname(out, symbols, *name);
            }
            RedoOp::SetText { node, content } => {
                out.push(OP_SET_TEXT);
                put_u32(out, node.0);
                put_str(out, content);
            }
            RedoOp::SetAttrValue { node, value } => {
                out.push(OP_SET_ATTR_VALUE);
                put_u32(out, node.0);
                put_str(out, value);
            }
            RedoOp::Collect { ids } => {
                out.push(OP_COLLECT);
                put_nodes(out, ids);
            }
        }
    }

    /// Decode the payload of one [`RedoBuf`] or log record, interning
    /// its names into `symbols` (the table of the store that will apply
    /// it).
    pub(crate) fn decode(payload: &[u8], symbols: &mut Symbols) -> XdmResult<RedoOp<'static>> {
        let c = &mut Cursor::new(payload);
        if c.u8()? != TAG_OP {
            return Err(Cursor::corrupt());
        }
        let op = match c.u8()? {
            OP_ALLOC => {
                let id = c.node()?;
                let kind = match c.u8()? {
                    KIND_DOCUMENT => NodeKind::Document { children: vec![] },
                    KIND_ELEMENT => NodeKind::Element {
                        name: c.qname(symbols)?,
                        attributes: vec![],
                        children: vec![],
                    },
                    KIND_ATTRIBUTE => NodeKind::Attribute {
                        name: c.qname(symbols)?,
                        value: c.str()?,
                    },
                    KIND_TEXT => NodeKind::Text { content: c.str()? },
                    KIND_COMMENT => NodeKind::Comment { content: c.str()? },
                    KIND_PI => NodeKind::Pi {
                        target: c.symbol(symbols)?,
                        content: c.str()?,
                    },
                    _ => return Err(Cursor::corrupt()),
                };
                RedoOp::Alloc { id, kind }
            }
            OP_INSERT => {
                let parent = c.node()?;
                let anchor = match c.u8()? {
                    0 => InsertAnchor::First,
                    1 => InsertAnchor::Last,
                    2 => InsertAnchor::After(c.node()?),
                    _ => return Err(Cursor::corrupt()),
                };
                RedoOp::Insert {
                    parent,
                    anchor,
                    seq: c.nodes()?.into(),
                }
            }
            OP_ATTACH_ATTR => RedoOp::AttachAttr {
                element: c.node()?,
                attr: c.node()?,
            },
            OP_DETACH => RedoOp::Detach { node: c.node()? },
            OP_RENAME => RedoOp::Rename {
                node: c.node()?,
                name: c.qname(symbols)?,
            },
            OP_SET_TEXT => RedoOp::SetText {
                node: c.node()?,
                content: c.str()?,
            },
            OP_SET_ATTR_VALUE => RedoOp::SetAttrValue {
                node: c.node()?,
                value: c.str()?,
            },
            OP_COLLECT => RedoOp::Collect {
                ids: c.nodes()?.into(),
            },
            _ => return Err(Cursor::corrupt()),
        };
        if !c.done() {
            return Err(Cursor::corrupt());
        }
        Ok(op)
    }
}

/// Encoded forward ops awaiting the redo log: the store's forward
/// buffer. Each record is a
/// little-endian `u32` length followed by that many payload bytes —
/// exactly the payload a log record carries, so a commit only adds the
/// checksum framing.
#[derive(Debug, Clone, Default)]
pub(crate) struct RedoBuf {
    bytes: Vec<u8>,
    ops: usize,
}

impl RedoBuf {
    pub(crate) fn push(&mut self, op: &RedoOp<'_>, symbols: &Symbols) {
        let start = self.bytes.len();
        self.bytes.extend_from_slice(&[0, 0, 0, 0, TAG_OP]);
        op.encode(&mut self.bytes, symbols);
        let len = (self.bytes.len() - start - 4) as u32;
        self.bytes[start..start + 4].copy_from_slice(&len.to_le_bytes());
        self.ops += 1;
    }

    /// Number of ops held.
    pub(crate) fn len(&self) -> usize {
        self.ops
    }

    /// A position [`RedoBuf::truncate`] can cut back to.
    pub(crate) fn mark(&self) -> (usize, usize) {
        (self.bytes.len(), self.ops)
    }

    /// Drop everything pushed since `mark` was taken.
    pub(crate) fn truncate(&mut self, mark: (usize, usize)) {
        self.bytes.truncate(mark.0);
        self.ops = self.ops.min(mark.1);
    }

    /// The record payloads, in push order.
    pub(crate) fn records(&self) -> impl Iterator<Item = &[u8]> {
        let mut rest = &self.bytes[..];
        std::iter::from_fn(move || {
            let (len, tail) = rest.split_first_chunk::<4>()?;
            let (payload, tail) = tail.split_at(u32::from_le_bytes(*len) as usize);
            rest = tail;
            Some(payload)
        })
    }
}

// ----------------------------------------------------------------------
// The writer
// ----------------------------------------------------------------------

/// Receipt of one durable commit (returned by `Store::wal_commit`; the
/// engine turns these into `engine.wal.*` counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitReceipt {
    /// Log sequence number of the commit marker.
    pub lsn: u64,
    /// Redo records the batch flushed (the marker excluded).
    pub records: u64,
    /// Bytes appended to the log, framing included.
    pub bytes: u64,
    /// Whether this commit fsynced the log.
    pub fsynced: bool,
}

/// What recovery found (returned by [`Store::open_durable`]).
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Committed batches replayed from the log.
    pub replayed_commits: u64,
    /// Redo records applied across those batches.
    pub replayed_records: u64,
    /// Corrupt-tail events: each one dropped a torn/unchecksummable/
    /// unmarked suffix of the log (0 on a clean log).
    pub tail_dropped: u64,
    /// Whether the store was seeded from `checkpoint.bin`.
    pub from_checkpoint: bool,
    /// Interleaved-committer info records seen in the log (written only
    /// by earlier binaries' optimistic writers; see DESIGN.md §16).
    pub committer_records: u64,
    /// Human-readable warnings, one per graceful degradation.
    pub warnings: Vec<String>,
}

/// The attached redo-log writer. Owned by [`Store`]; never cloned (a
/// cloned store is a fork and gets `wal: None`).
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    file: File,
    sync: SyncMode,
    /// LSN of the last commit marker written.
    lsn: u64,
    commits_since_sync: u64,
    commits_since_checkpoint: u64,
    /// Length of the log file: where the next record goes, and what a
    /// failed append cuts the file back to.
    len: u64,
    /// Has anything been appended since the log was opened?
    appended: bool,
    /// Set by a failed append: the store has moved past what the file
    /// holds, so every later write is refused until the store is reopened.
    poisoned: bool,
}

fn io_err(context: &str, e: std::io::Error) -> XdmError {
    XdmError::new(
        "XQB0060",
        format!("durable store I/O error ({context}): {e}"),
    )
}

fn poisoned() -> XdmError {
    XdmError::new(
        "XQB0060",
        "durable store refuses writes after a failed log append; reopen the store",
    )
}

/// Append one framed log record to `out`: payload length, CRC32, payload.
fn frame(out: &mut Vec<u8>, payload: &[u8]) {
    put_u32(out, payload.len() as u32);
    put_u32(out, crc32(payload));
    out.extend_from_slice(payload);
}

impl Wal {
    /// Path of the redo log inside `dir`.
    pub fn log_path(dir: &Path) -> PathBuf {
        dir.join("wal.log")
    }

    /// Path of the checkpoint snapshot inside `dir`.
    pub fn checkpoint_path(dir: &Path) -> PathBuf {
        dir.join("checkpoint.bin")
    }

    /// Open (creating or appending to) the log in `dir`; `existing_lsn`
    /// is the last committed LSN recovery observed, and the file is
    /// truncated to `valid_len` first (dropping any corrupt tail so new
    /// records append to a clean prefix).
    pub(crate) fn open(
        dir: &Path,
        sync: SyncMode,
        existing_lsn: u64,
        valid_len: Option<u64>,
    ) -> XdmResult<Wal> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create dir", e))?;
        let path = Self::log_path(dir);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)
            .map_err(|e| io_err("open log", e))?;
        let len = file.metadata().map_err(|e| io_err("stat log", e))?.len();
        let mut start = len;
        if let Some(v) = valid_len {
            if v < len {
                file.set_len(v).map_err(|e| io_err("truncate tail", e))?;
                start = v;
            }
        }
        if start < LOG_MAGIC.len() as u64 {
            file.set_len(0).map_err(|e| io_err("reset log", e))?;
            file.seek(SeekFrom::Start(0))
                .map_err(|e| io_err("seek", e))?;
            file.write_all(LOG_MAGIC)
                .map_err(|e| io_err("write header", e))?;
            start = LOG_MAGIC.len() as u64;
        } else {
            file.seek(SeekFrom::Start(start))
                .map_err(|e| io_err("seek", e))?;
        }
        Ok(Wal {
            dir: dir.to_path_buf(),
            file,
            sync,
            lsn: existing_lsn,
            commits_since_sync: 0,
            commits_since_checkpoint: 0,
            len: start,
            appended: false,
            poisoned: false,
        })
    }

    /// The last committed log sequence number.
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    pub(crate) fn set_sync(&mut self, sync: SyncMode) {
        self.sync = sync;
    }

    pub(crate) fn sync_mode(&self) -> SyncMode {
        self.sync
    }

    /// Has anything been appended since this log was opened? (Gates the
    /// shutdown seal: re-opening a store read-only must not dirty it.)
    pub(crate) fn dirty_since_open(&self) -> bool {
        self.appended
    }

    /// Append `bytes` at the end of the log, fsyncing when `fsync` is
    /// set. Any I/O error cuts the file back to its length before the
    /// append and poisons the log: the store already holds what the
    /// bytes describe, and a later record written behind a torn one would
    /// be dropped by recovery as part of a corrupt tail.
    fn append(&mut self, bytes: &[u8], fsync: bool) -> XdmResult<()> {
        if self.poisoned {
            return Err(poisoned());
        }
        let written = self
            .file
            .write_all(bytes)
            .map_err(|e| io_err("append record", e))
            .and_then(|()| {
                if fsync {
                    self.file.sync_data().map_err(|e| io_err("fsync", e))
                } else {
                    Ok(())
                }
            });
        if let Err(e) = written {
            let _ = self.file.set_len(self.len);
            let _ = self.file.seek(SeekFrom::Start(self.len));
            self.poisoned = true;
            return Err(e);
        }
        self.len += bytes.len() as u64;
        self.appended = true;
        Ok(())
    }

    /// Append `ops` and a commit marker as one write; fsync per the sync
    /// mode. A no-op (returns `None`) when `ops` is empty — read-only runs
    /// cost nothing.
    pub(crate) fn commit(&mut self, ops: &RedoBuf) -> XdmResult<Option<CommitReceipt>> {
        if ops.len() == 0 {
            return Ok(None);
        }
        let mut batch = Vec::new();
        for payload in ops.records() {
            frame(&mut batch, payload);
        }
        let lsn = self.lsn + 1;
        let mut marker = vec![TAG_COMMIT];
        put_u64(&mut marker, lsn);
        frame(&mut batch, &marker);
        let fsynced = match self.sync {
            SyncMode::Always => true,
            SyncMode::Batch => self.commits_since_sync + 1 >= BATCH_EVERY,
            SyncMode::Off => false,
        };
        self.append(&batch, fsynced)?;
        self.lsn = lsn;
        self.commits_since_sync = if fsynced {
            0
        } else {
            self.commits_since_sync + 1
        };
        self.commits_since_checkpoint += 1;
        Ok(Some(CommitReceipt {
            lsn,
            records: ops.len() as u64,
            bytes: batch.len() as u64,
            fsynced,
        }))
    }

    /// Append a seal record carrying the store fingerprint (written on
    /// clean shutdown; recovery verifies it when present).
    pub(crate) fn seal(&mut self, fingerprint: u64) -> XdmResult<()> {
        let mut payload = vec![TAG_SEAL];
        put_u64(&mut payload, fingerprint);
        let mut record = Vec::new();
        frame(&mut record, &payload);
        self.append(&record, !matches!(self.sync, SyncMode::Off))
    }

    /// Is an automatic checkpoint due?
    pub(crate) fn checkpoint_due(&self) -> bool {
        self.commits_since_checkpoint >= CHECKPOINT_EVERY
    }

    /// Install `snapshot` as the new checkpoint and truncate the log:
    /// write to `checkpoint.tmp`, fsync, rename over `checkpoint.bin`,
    /// then cut the log back to its header. A crash between rename and
    /// truncation is safe: replay skips commits with `lsn ≤` the
    /// snapshot's, so nothing is applied twice.
    pub(crate) fn install_checkpoint(&mut self, snapshot: &[u8]) -> XdmResult<()> {
        if self.poisoned {
            return Err(poisoned());
        }
        let tmp = self.dir.join("checkpoint.tmp");
        {
            let mut f = File::create(&tmp).map_err(|e| io_err("create checkpoint.tmp", e))?;
            f.write_all(snapshot)
                .map_err(|e| io_err("write checkpoint", e))?;
            f.sync_data().map_err(|e| io_err("fsync checkpoint", e))?;
        }
        std::fs::rename(&tmp, Self::checkpoint_path(&self.dir))
            .map_err(|e| io_err("rename checkpoint", e))?;
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        self.file
            .set_len(LOG_MAGIC.len() as u64)
            .map_err(|e| io_err("truncate log", e))?;
        self.len = LOG_MAGIC.len() as u64;
        self.file
            .seek(SeekFrom::Start(LOG_MAGIC.len() as u64))
            .map_err(|e| io_err("seek", e))?;
        if !matches!(self.sync, SyncMode::Off) {
            self.file
                .sync_data()
                .map_err(|e| io_err("fsync truncated log", e))?;
        }
        self.commits_since_checkpoint = 0;
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Recovery
// ----------------------------------------------------------------------

/// Rebuild a store from `dir`: load `checkpoint.bin` if present (its
/// CRC and fingerprint are verified), then replay `wal.log` through
/// [`Store::replay`], applying each batch only when a valid commit
/// marker follows it. A corrupt tail — torn record, failed checksum,
/// trailing ops with no marker — is dropped with a warning and counted,
/// never an abort. Returns the store (log re-attached for appending),
/// the recovery report.
pub(crate) fn recover(dir: &Path, sync: SyncMode) -> XdmResult<(Store, RecoveryReport)> {
    let mut report = RecoveryReport::default();
    let mut store = Store::new();
    let mut base_lsn = 0u64;

    let ckpt_path = Wal::checkpoint_path(dir);
    if ckpt_path.exists() {
        let bytes = std::fs::read(&ckpt_path).map_err(|e| io_err("read checkpoint", e))?;
        let (s, lsn) = Store::from_snapshot(&bytes)?;
        store = s;
        base_lsn = lsn;
        report.from_checkpoint = true;
    }

    let log_path = Wal::log_path(dir);
    let mut last_lsn = base_lsn;
    let mut valid_len: Option<u64> = None;
    if log_path.exists() {
        let bytes = std::fs::read(&log_path).map_err(|e| io_err("read log", e))?;
        let (applied_lsn, vlen) = replay_log(&bytes, &mut store, base_lsn, &mut report)?;
        last_lsn = applied_lsn;
        valid_len = Some(vlen);
        // Replay rebuilt the parsed documents op by op, so their segments
        // are derived again, as a checkpoint load derives them.
        store.derive_segments();
    }

    let wal = Wal::open(dir, sync, last_lsn, valid_len)?;
    store.attach_wal(Box::new(wal));
    Ok((store, report))
}

/// Replay `bytes` (the whole log file) into `store`. Returns the last
/// applied LSN and the byte offset after the last valid record (the
/// length the file should be truncated to before appending).
fn replay_log(
    bytes: &[u8],
    store: &mut Store,
    base_lsn: u64,
    report: &mut RecoveryReport,
) -> XdmResult<(u64, u64)> {
    let drop_tail = |report: &mut RecoveryReport, why: String| {
        report.tail_dropped += 1;
        report.warnings.push(why);
    };

    if bytes.len() < LOG_MAGIC.len() || &bytes[..LOG_MAGIC.len()] != LOG_MAGIC {
        if !bytes.is_empty() {
            drop_tail(
                report,
                format!("redo log header invalid ({} bytes dropped)", bytes.len()),
            );
        }
        return Ok((base_lsn, 0));
    }

    let mut pos = LOG_MAGIC.len();
    let mut valid_len = pos as u64;
    let mut last_lsn = base_lsn;
    // Op record payloads seen since the last commit marker; decoded
    // when the marker arrives and the batch is applied.
    let mut batch: Vec<&[u8]> = Vec::new();

    loop {
        if pos == bytes.len() {
            break; // clean end
        }
        if pos + 8 > bytes.len() {
            drop_tail(report, "torn record framing at log tail".to_string());
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().unwrap());
        if len == 0 || len > MAX_RECORD {
            drop_tail(
                report,
                format!("implausible record length {len} at offset {pos}"),
            );
            break;
        }
        let body_start = pos + 8;
        let body_end = match body_start.checked_add(len as usize) {
            Some(e) if e <= bytes.len() => e,
            _ => {
                drop_tail(report, format!("torn record at offset {pos}"));
                break;
            }
        };
        let payload = &bytes[body_start..body_end];
        if crc32(payload) != crc {
            drop_tail(report, format!("checksum mismatch at offset {pos}"));
            break;
        }
        let mut c = Cursor::new(payload);
        let tag = match c.u8() {
            Ok(t) => t,
            Err(_) => {
                drop_tail(report, format!("empty record at offset {pos}"));
                break;
            }
        };
        match tag {
            TAG_OP => batch.push(payload),
            TAG_COMMIT => {
                let lsn = match c.u64() {
                    Ok(l) if c.done() => l,
                    _ => {
                        drop_tail(report, format!("malformed commit marker at offset {pos}"));
                        break;
                    }
                };
                if lsn <= base_lsn {
                    // Pre-checkpoint commit left behind by a crash between
                    // checkpoint install and log truncation: the snapshot
                    // already contains it.
                    batch.clear();
                } else {
                    // Inside an undo frame, so a batch that fails to
                    // decode or apply rolls back exactly.
                    store.begin_frame();
                    let n = batch.len() as u64;
                    match store.replay(batch.drain(..)) {
                        Ok(()) => {
                            store.commit_frame();
                            report.replayed_commits += 1;
                            report.replayed_records += n;
                            last_lsn = lsn;
                        }
                        Err(e) => {
                            store.rollback_frame();
                            drop_tail(
                                report,
                                format!("redo batch for lsn {lsn} failed to apply: {e}"),
                            );
                            break;
                        }
                    }
                }
                valid_len = body_end as u64;
            }
            TAG_INFO => {
                // session id + base epoch; diagnostic only. Not counted
                // into valid_len on its own: a committer record without
                // its commit marker is an uncommitted prefix.
                match (c.u64(), c.u64()) {
                    (Ok(_), Ok(_)) if c.done() => report.committer_records += 1,
                    _ => {
                        drop_tail(report, format!("malformed committer info at offset {pos}"));
                        break;
                    }
                }
            }
            TAG_SEAL => {
                let fp = match c.u64() {
                    Ok(f) if c.done() => f,
                    _ => {
                        drop_tail(report, format!("malformed seal record at offset {pos}"));
                        break;
                    }
                };
                if !batch.is_empty() {
                    drop_tail(report, "seal record follows unmarked ops".to_string());
                    break;
                }
                if store.fingerprint() != fp {
                    drop_tail(
                        report,
                        format!(
                            "seal fingerprint mismatch at offset {pos}: log says {fp:016x}, \
                             recovered store is {:016x}",
                            store.fingerprint()
                        ),
                    );
                } // state itself is CRC-verified per record; keep it either way
                valid_len = body_end as u64;
            }
            other => {
                drop_tail(
                    report,
                    format!("unknown record tag {other} at offset {pos}"),
                );
                break;
            }
        }
        pos = body_end;
    }

    if !batch.is_empty() {
        drop_tail(
            report,
            format!(
                "{} uncommitted trailing redo op(s) dropped (no commit marker)",
                batch.len()
            ),
        );
    }
    Ok((last_lsn, valid_len))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE CRC32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn sync_mode_parse_roundtrip() {
        for m in [SyncMode::Always, SyncMode::Batch, SyncMode::Off] {
            assert_eq!(SyncMode::parse(&m.to_string()), Some(m));
        }
        assert_eq!(SyncMode::parse("sometimes"), None);
    }

    #[test]
    fn redo_op_encoding_roundtrip() {
        use crate::qname::QName;
        let mut syms = Symbols::new();
        let ops = vec![
            RedoOp::Alloc {
                id: NodeId(7),
                kind: NodeKind::Element {
                    name: syms.intern_qname(&QName::prefixed("p", "x")),
                    attributes: vec![],
                    children: vec![],
                },
            },
            RedoOp::Alloc {
                id: NodeId(8),
                kind: NodeKind::Pi {
                    target: syms.intern("t"),
                    content: "c".into(),
                },
            },
            RedoOp::Insert {
                seq: vec![NodeId(1), NodeId(2)].into(),
                parent: NodeId(0),
                anchor: InsertAnchor::After(NodeId(9)),
            },
            RedoOp::AttachAttr {
                element: NodeId(3),
                attr: NodeId(4),
            },
            RedoOp::Detach { node: NodeId(5) },
            RedoOp::Rename {
                node: NodeId(6),
                name: syms.intern_qname(&QName::local("renamed")),
            },
            RedoOp::SetText {
                node: NodeId(1),
                content: "héllo".into(),
            },
            RedoOp::SetAttrValue {
                node: NodeId(2),
                value: String::new(),
            },
            RedoOp::Collect {
                ids: vec![NodeId(2), NodeId(1)].into(),
            },
        ];
        let mut buf = RedoBuf::default();
        for op in &ops {
            buf.push(op, &syms);
        }
        assert_eq!(buf.len(), ops.len());
        // Decoding into the same table gives the same ids back; a fresh
        // table interns the same lexical names.
        for (payload, op) in buf.records().zip(&ops) {
            assert_eq!(&RedoOp::decode(payload, &mut syms).unwrap(), op);
        }
        let mut other = Symbols::new();
        let renamed = buf
            .records()
            .map(|p| RedoOp::decode(p, &mut other).unwrap())
            .find_map(|op| match op {
                RedoOp::Rename { name, .. } => Some(name),
                _ => None,
            });
        assert_eq!(other.qname_string(renamed.unwrap()), "renamed");
        // A mark cuts the buffer back exactly.
        let mark = buf.mark();
        buf.push(&ops[4], &syms);
        buf.truncate(mark);
        assert_eq!((buf.len(), buf.records().count()), (ops.len(), ops.len()));
    }

    #[test]
    fn decode_rejects_truncation() {
        let mut syms = Symbols::new();
        let mut buf = RedoBuf::default();
        let op = RedoOp::SetText {
            node: NodeId(1),
            content: "abcdef".into(),
        };
        buf.push(&op, &syms);
        let payload = buf.records().next().unwrap();
        for cut in 0..payload.len() {
            assert!(
                RedoOp::decode(&payload[..cut], &mut syms).is_err(),
                "cut at {cut}"
            );
        }
        assert_eq!(RedoOp::decode(payload, &mut syms).unwrap(), op);
    }

    #[test]
    fn fnv_is_stable() {
        let mut h = Fnv64::new();
        h.str("hello");
        h.u32(42);
        // Pinned: the fingerprint must be deterministic across processes
        // and toolchains (recovery equivalence depends on it).
        let first = h.finish();
        let mut h2 = Fnv64::new();
        h2.str("hello");
        h2.u32(42);
        assert_eq!(first, h2.finish());
        assert_ne!(first, Fnv64::new().finish());
    }

    #[test]
    fn a_failed_append_refuses_every_later_commit() {
        let dir = std::env::temp_dir().join(format!("xqb_wal_poison_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let log = Wal::log_path(&dir);
        let mut wal = Wal::open(&dir, SyncMode::Always, 0, None).unwrap();
        let mut ops = RedoBuf::default();
        ops.push(&RedoOp::Detach { node: NodeId(1) }, &Symbols::new());
        wal.commit(&ops).unwrap();
        let committed = std::fs::read(&log).unwrap();

        // A read-only handle makes the next append fail.
        let writable = std::mem::replace(&mut wal.file, File::open(&log).unwrap());
        assert!(wal.commit(&ops).is_err());
        // With the writable handle back, the log still refuses: a commit
        // appended now would follow a batch the store holds and the file
        // does not.
        wal.file = writable;
        let err = wal.commit(&ops).unwrap_err();
        assert_eq!(err.code, "XQB0060");
        assert_eq!(std::fs::read(&log).unwrap(), committed);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
