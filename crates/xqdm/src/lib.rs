//! # xqdm — the XQuery! Data Model
//!
//! This crate implements the store-based XML data model that the XQuery!
//! paper (Ghelli, Ré, Siméon — EDBT 2006, §3.2) builds its semantics on:
//!
//! * a mutable [`Store`] mapping node ids to node kind, parent, name and
//!   content, with the XDM accessors and constructors;
//! * the *applications* of the paper's update requests as store mutation
//!   primitives (`insert`, `delete`-as-detach, `rename`) with the paper's
//!   preconditions;
//! * deep copy (used by the explicit `copy {}` operator and by the implicit
//!   copy that normalization wraps around insertion sources);
//! * document order over a mutable forest, and reachability / garbage
//!   accounting for detached nodes (the two data-model problems §4.1 calls
//!   out);
//! * atomic values, items and sequences with XPath-style atomization,
//!   effective boolean value, and comparison semantics;
//! * a small well-formed XML parser and serializer, since no XML crate is
//!   available in the offline dependency set.
//!
//! Everything here is deliberately independent of the query language: the
//! `xqsyn` / `xqcore` crates sit on top.

pub mod atomic;
pub mod error;
pub(crate) mod index;
pub mod item;
pub mod node;
pub(crate) mod pages;
pub mod qname;
pub mod store;
pub mod symbols;
pub mod wal;
pub mod xml;

pub use atomic::Atomic;
pub use error::{XdmError, XdmResult};
pub use item::{Item, Sequence};
pub use node::{NodeId, NodeKind};
pub use qname::QName;
pub use store::{KernelTest, Scratch, Store};
pub use symbols::{QNameId, SymbolId, Symbols};
pub use wal::{CommitReceipt, RecoveryReport, RedoOp, SyncMode};

// The server's sessions read one published snapshot from many threads
// (xqcore's DESIGN.md §15), so a store is shared as `&Store` across
// threads. That is sound only while these types stay plain data — no
// `Rc`, no `Cell`/`RefCell`, no raw pointers. These assertions turn any
// future interior-mutability regression into a compile error at its
// source.
const _: () = {
    const fn assert_send_sync<T: ?Sized + Send + Sync>() {}
    assert_send_sync::<Store>();
    assert_send_sync::<NodeId>();
    assert_send_sync::<NodeKind>();
    assert_send_sync::<QName>();
    assert_send_sync::<QNameId>();
    assert_send_sync::<SymbolId>();
    assert_send_sync::<Symbols>();
    assert_send_sync::<Atomic>();
    assert_send_sync::<Item>();
    assert_send_sync::<Sequence>();
    assert_send_sync::<XdmError>();
};
