//! Interned names (DESIGN.md §14).
//!
//! Every element/attribute name and PI target in a store is interned
//! into a store-owned [`Symbols`] table: node slots then carry a 4-byte
//! [`SymbolId`] (or an 8-byte [`QNameId`]) instead of one or two heap
//! `String`s, and name tests in the hot path become integer compares.
//! The table is append-only — symbols are never removed, so ids stay
//! valid across undo rollback and garbage collection — and it is cloned
//! along with the store, keeping cloned stores self-contained.
//!
//! Interning is *not* observable state: `Store::fingerprint()`, the WAL
//! record format and the checkpoint snapshot all serialize lexical
//! names, so a store populated through a different interning history
//! (or none, pre-refactor) hashes and replays identically.

use crate::qname::QName;
use std::collections::HashMap;

/// An interned string: an index into the store's [`Symbols`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SymbolId(u32);

impl SymbolId {
    /// Sentinel packed into [`QNameId::prefix`] for "no prefix": never a
    /// valid table index (the table is capped far below `u32::MAX`).
    const NONE: SymbolId = SymbolId(u32::MAX);

    /// The raw table index (debugging; not an API guarantee).
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// An interned qualified name: prefix and local part as symbols. 8 bytes,
/// `Copy`, and — within one store — equal ids iff equal lexical names,
/// so name comparison is a single integer compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QNameId {
    /// Interned prefix, or [`SymbolId::NONE`] when the name has none.
    prefix: SymbolId,
    /// Interned local part.
    local: SymbolId,
}

impl QNameId {
    /// The interned prefix, if the name has one.
    pub fn prefix(self) -> Option<SymbolId> {
        (self.prefix != SymbolId::NONE).then_some(self.prefix)
    }

    /// The interned local part.
    pub fn local(self) -> SymbolId {
        self.local
    }
}

/// The append-only string interner owned by a store.
#[derive(Debug, Clone, Default)]
pub struct Symbols {
    /// Id → string. `Box<str>` keeps each entry one pointer-plus-length.
    strings: Vec<Box<str>>,
    /// String → id (entries duplicate `strings`; the table is small —
    /// distinct names, not nodes — so the doubled storage is cheap and
    /// keeps the implementation free of unsafe self-references).
    map: HashMap<Box<str>, SymbolId>,
}

impl Symbols {
    /// An empty table.
    pub fn new() -> Self {
        Symbols::default()
    }

    /// Number of distinct interned strings.
    pub fn len(&self) -> usize {
        self.strings.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.strings.is_empty()
    }

    /// Intern `s`, returning its (new or existing) id.
    pub fn intern(&mut self, s: &str) -> SymbolId {
        if let Some(&id) = self.map.get(s) {
            return id;
        }
        let id = SymbolId(self.strings.len() as u32);
        assert!(id != SymbolId::NONE, "symbol table overflow");
        self.strings.push(s.into());
        self.map.insert(s.into(), id);
        id
    }

    /// The id of `s` if it is already interned. A miss means no node in
    /// the store bears this name — callers can skip scanning entirely —
    /// and, unlike [`Symbols::intern`], a lookup needs only `&self`, so
    /// read-only parallel workers can run name tests over a shared store.
    pub fn lookup(&self, s: &str) -> Option<SymbolId> {
        self.map.get(s).copied()
    }

    /// The string behind `id`.
    ///
    /// Panics on an id from a different store's table that is out of
    /// range; ids are not meant to travel between stores.
    pub fn resolve(&self, id: SymbolId) -> &str {
        &self.strings[id.0 as usize]
    }

    /// Intern both parts of a qualified name.
    pub fn intern_qname(&mut self, q: &QName) -> QNameId {
        self.intern_parts(q.prefix.as_deref(), &q.local)
    }

    /// [`Symbols::intern_qname`] from borrowed parts (the decoders read
    /// names straight out of their byte buffers).
    pub fn intern_parts(&mut self, prefix: Option<&str>, local: &str) -> QNameId {
        QNameId {
            prefix: match prefix {
                Some(p) => self.intern(p),
                None => SymbolId::NONE,
            },
            local: self.intern(local),
        }
    }

    /// The id of `q` if both parts are already interned (`None` means no
    /// node bears this name; see [`Symbols::lookup`]).
    pub fn lookup_qname(&self, q: &QName) -> Option<QNameId> {
        let prefix = match &q.prefix {
            Some(p) => self.lookup(p)?,
            None => SymbolId::NONE,
        };
        Some(QNameId {
            prefix,
            local: self.lookup(&q.local)?,
        })
    }

    /// The id of the lexical name `s` (`local` or `prefix:local`) if it
    /// is already interned.
    pub fn lookup_lexical(&self, s: &str) -> Option<QNameId> {
        match s.split_once(':') {
            Some((p, l)) => Some(QNameId {
                prefix: self.lookup(p)?,
                local: self.lookup(l)?,
            }),
            None => Some(QNameId {
                prefix: SymbolId::NONE,
                local: self.lookup(s)?,
            }),
        }
    }

    /// Materialize the lexical [`QName`] behind `id`.
    pub fn resolve_qname(&self, id: QNameId) -> QName {
        QName {
            prefix: id.prefix().map(|p| self.resolve(p).to_string()),
            local: self.resolve(id.local).to_string(),
        }
    }

    /// The borrowed parts of `id` (no allocation).
    pub fn qname_parts(&self, id: QNameId) -> (Option<&str>, &str) {
        (id.prefix().map(|p| self.resolve(p)), self.resolve(id.local))
    }

    /// Append `id`'s lexical form (`prefix:local`) to `out` without
    /// allocating — the serializer's inner loop.
    pub fn push_qname(&self, id: QNameId, out: &mut String) {
        if let Some(p) = id.prefix() {
            out.push_str(self.resolve(p));
            out.push(':');
        }
        out.push_str(self.resolve(id.local));
    }

    /// Format `id` as a lexical name (error messages and debug output).
    pub fn qname_string(&self, id: QNameId) -> String {
        let mut s = String::new();
        self.push_qname(id, &mut s);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut t = Symbols::new();
        let a = t.intern("person");
        let b = t.intern("person");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
        assert_eq!(t.resolve(a), "person");
        assert_ne!(t.intern("item"), a);
    }

    #[test]
    fn lookup_misses_without_interning() {
        let mut t = Symbols::new();
        assert_eq!(t.lookup("absent"), None);
        let id = t.intern("present");
        assert_eq!(t.lookup("present"), Some(id));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn qname_round_trip() {
        let mut t = Symbols::new();
        for q in [QName::local("a"), QName::prefixed("x", "a")] {
            let id = t.intern_qname(&q);
            assert_eq!(t.resolve_qname(id), q);
            assert_eq!(t.lookup_qname(&q), Some(id));
            assert_eq!(t.lookup_lexical(&q.to_string()), Some(id));
            assert_eq!(t.qname_string(id), q.to_string());
        }
        // Same local part, different prefix presence: distinct ids.
        assert_ne!(
            t.lookup_qname(&QName::local("a")),
            t.lookup_qname(&QName::prefixed("x", "a"))
        );
    }

    #[test]
    fn qname_parts_borrow() {
        let mut t = Symbols::new();
        let id = t.intern_qname(&QName::prefixed("ns", "k"));
        assert_eq!(t.qname_parts(id), (Some("ns"), "k"));
        let mut out = String::new();
        t.push_qname(id, &mut out);
        assert_eq!(out, "ns:k");
    }

    #[test]
    fn clone_preserves_ids() {
        let mut t = Symbols::new();
        let id = t.intern("stable");
        let u = t.clone();
        assert_eq!(u.lookup("stable"), Some(id));
        assert_eq!(u.resolve(id), "stable");
    }
}
