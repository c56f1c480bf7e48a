//! Copy-on-write paged slot storage for the node store (DESIGN.md §15).
//!
//! The store's node slots used to live in one flat `Vec<NodeData>`, which
//! made forking the store for a concurrent reader an O(store) deep copy.
//! [`Pages`] keeps the same dense u32-indexed address space but splits it
//! in two levels: a *page* of [`PAGE_LEN`] slots is an [`Arc`]'d table of
//! [`LEAVES_PER_PAGE`] pointers, and each pointer is an [`Arc`]'d *leaf*
//! of [`LEAF_LEN`] slots. The slots past the last full leaf live in one
//! more leaf, the *tail*, outside the tables.
//!
//! * **Snapshot** ([`Pages::clone`]) is O(pages): it copies the page
//!   *table* vector and bumps one reference count per page, plus one for
//!   the tail. Node ids, and hence every value and binding that carries
//!   them, stay valid across the fork.
//! * **Mutation after a snapshot** (`Arc::make_mut` at both levels)
//!   copies one 16-pointer page table, bumping 16 reference counts, and
//!   deep-clones one 64-slot leaf: every attribute value, text and child
//!   list in it. A write to the tail copies the tail alone. The writer
//!   and any number of pinned readers diverge leaf by leaf, so a commit
//!   costs O(leaves touched). With one level of 1 024-slot pages the
//!   first write to a page deep-cloned all 1 024 slots, more than half
//!   of a durable logging commit (EXPERIMENTS.md E19).
//! * **Why two levels.** Flat 64-slot pages copy as little per write, but
//!   the page vector is 16× longer, and every snapshot and reader fork
//!   copies it: at XMark scale `reader()` went 4.6 → 11.1 µs and an
//!   in-process point read 18 → 24 µs. Two levels keep the snapshot at
//!   one `Arc` per 1 024 slots and the write at 64.
//! * **Why a tail.** A safe `&mut` through an `Arc` costs one atomic
//!   read-modify-write, so a slot in a page table costs two. Appends,
//!   and most of the writes that link what was just appended, hit the
//!   tail and pay one, as with one level.
//! * **Reads** compare the index with the tail's start, then index the
//!   tail, or the page, its table and the leaf. Tables and leaves are
//!   fixed arrays inside their `Arc`, so a read loads as many pointers as
//!   with one level. Leaves are allocated a page's worth at a time, so a
//!   page's slots stay close in memory and a scan in id order streams
//!   nearly as it did through one 1 024-slot array. The batch kernels
//!   and the document-order comparator are unchanged.
//!
//! Retirement is reference counting: when the last snapshot holding an
//! old page or leaf drops, it is freed. There is no epoch list down here
//! — that bookkeeping (pinning, publishing, retiring whole versions)
//! lives in [`crate::version`].

use crate::node::{NodeData, NodeKind};
use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// log2 of the leaf size, the unit a write after a snapshot deep-clones.
/// Chosen by EXPERIMENTS.md E19's sweep over 32 / 64 / 128 slots.
const LEAF_BITS: usize = 6;
/// Slots per leaf.
const LEAF_LEN: usize = 1 << LEAF_BITS;
const LEAF_MASK: usize = LEAF_LEN - 1;
/// log2 of the page size, the unit a snapshot shares. 1 024 slots keep
/// the page table a snapshot copies short.
const PAGE_BITS: usize = 10;
/// Slots per page.
const PAGE_LEN: usize = 1 << PAGE_BITS;
const PAGE_MASK: usize = PAGE_LEN - 1;
/// Leaves per page.
const LEAVES_PER_PAGE: usize = PAGE_LEN / LEAF_LEN;

/// A full run of [`LEAF_LEN`] slots in one allocation: a read reaches a
/// slot with no length to load and no bounds to check.
type Leaf = Arc<[NodeData; LEAF_LEN]>;
/// The leaf table of [`PAGE_LEN`] slots, inline in its allocation like a
/// leaf's slots, so a read loads no more pointers than with one level.
/// The last page's table may end in `None`s.
type Page = Arc<[Option<Leaf>; LEAVES_PER_PAGE]>;

/// The filler of a slot past the end: no heap payload, so filling and
/// cloning it allocates nothing.
fn spare() -> NodeData {
    NodeData {
        parent: None,
        kind: NodeKind::Text {
            content: String::new(),
        },
        alive: false,
        okey: 0,
    }
}

/// A leaf of the first [`LEAF_LEN`] of `slots`, [`spare`] past their end,
/// written in place.
fn leaf_of(slots: impl Iterator<Item = NodeData>) -> Leaf {
    let spares = std::iter::repeat_with(spare);
    let slots: Arc<[NodeData]> = slots.chain(spares).take(LEAF_LEN).collect();
    Leaf::try_from(slots).expect("LEAF_LEN slots")
}

/// The COW paged slot array. Cloning shares every page and the tail;
/// mutation unshares (copies) exactly the page tables and leaves it
/// touches.
#[derive(Debug)]
pub(crate) struct Pages {
    /// The full leaves, [`LEAVES_PER_PAGE`] to a page except possibly in
    /// the last. No page is empty.
    pages: Vec<Page>,
    /// The leaf after the last full one: its first `len % LEAF_LEN` slots
    /// are live, the rest [`spare`]. It sits outside the page tables so
    /// that an append, and the writes that link what it appended, go
    /// through one `Arc` where a sealed slot goes through two.
    tail: Leaf,
    /// Fresh leaves for the next tails, allocated a page's worth at a
    /// time so that a page's leaves lie next to each other in memory, as
    /// its slots did with one level: a scan in id order then streams.
    /// Never shared; a clone starts without them.
    spares: Vec<Leaf>,
    /// Total slot count.
    len: usize,
}

impl Clone for Pages {
    fn clone(&self) -> Pages {
        Pages {
            pages: self.pages.clone(),
            tail: Arc::clone(&self.tail),
            spares: Vec::new(),
            len: self.len,
        }
    }
}

impl Default for Pages {
    fn default() -> Pages {
        Pages {
            pages: Vec::new(),
            tail: leaf_of(std::iter::empty()),
            spares: Vec::new(),
            len: 0,
        }
    }
}

impl Pages {
    /// Total number of slots (alive or dead — this is the address-space
    /// size, the paged equivalent of `Vec::len`).
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// The slot at `i`, if in range.
    #[inline]
    pub(crate) fn get(&self, i: usize) -> Option<&NodeData> {
        if i >= self.len & !LEAF_MASK {
            return (i < self.len).then(|| &self.tail[i & LEAF_MASK]);
        }
        let leaf = self.pages[i >> PAGE_BITS][(i & PAGE_MASK) >> LEAF_BITS].as_ref();
        Some(&leaf.expect("a sealed slot's leaf")[i & LEAF_MASK])
    }

    /// Mutable access to the slot at `i`, unsharing what holds it if a
    /// snapshot still does: the tail, or the page table and then the leaf.
    #[inline]
    pub(crate) fn get_mut(&mut self, i: usize) -> Option<&mut NodeData> {
        if i >= self.len & !LEAF_MASK {
            if i >= self.len {
                return None;
            }
            return Some(&mut Arc::make_mut(&mut self.tail)[i & LEAF_MASK]);
        }
        let page = Arc::make_mut(&mut self.pages[i >> PAGE_BITS]);
        let leaf = page[(i & PAGE_MASK) >> LEAF_BITS].as_mut();
        Some(&mut Arc::make_mut(leaf.expect("a sealed slot's leaf"))[i & LEAF_MASK])
    }

    /// Append a slot at index `len`. A tail that fills becomes a leaf of
    /// the last page, or of a new one.
    pub(crate) fn push(&mut self, data: NodeData) {
        let i = self.len;
        Arc::make_mut(&mut self.tail)[i & LEAF_MASK] = data;
        self.len += 1;
        if self.len & LEAF_MASK != 0 {
            return;
        }
        if self.spares.is_empty() {
            let fresh = (0..LEAVES_PER_PAGE).map(|_| leaf_of(std::iter::empty()));
            self.spares.extend(fresh);
            // Hand them out in allocation order.
            self.spares.reverse();
        }
        let next = self.spares.pop().expect("spares just refilled");
        let mut leaf = Some(std::mem::replace(&mut self.tail, next));
        let first = i & !LEAF_MASK;
        if first & PAGE_MASK == 0 {
            self.pages
                .push(Arc::new(std::array::from_fn(|_| leaf.take())));
        } else {
            let page = Arc::make_mut(self.pages.last_mut().expect("a started page"));
            page[(first & PAGE_MASK) >> LEAF_BITS] = leaf;
        }
    }

    /// Remove and return the highest slot (undo of a fresh allocation).
    /// Popping from an empty tail takes the last leaf back out of its page
    /// table, and drops the table if that empties it.
    pub(crate) fn pop(&mut self) -> Option<NodeData> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        let i = self.len;
        if i & LEAF_MASK == LEAF_MASK {
            let first = i & !LEAF_MASK;
            let page = Arc::make_mut(self.pages.last_mut().expect("a full leaf"));
            let leaf = page[(first & PAGE_MASK) >> LEAF_BITS].take();
            if first & PAGE_MASK == 0 {
                self.pages.pop();
            }
            self.tail = leaf.expect("the last full leaf");
        }
        Some(std::mem::replace(
            &mut Arc::make_mut(&mut self.tail)[i & LEAF_MASK],
            spare(),
        ))
    }

    /// Iterate every slot in index order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &NodeData> {
        self.pages
            .iter()
            .flat_map(|p| p.iter().flatten())
            .flat_map(|l| l.iter())
            .chain(self.tail.iter())
            .take(self.len)
    }

    /// Build from a flat slot vector (checkpoint recovery).
    pub(crate) fn from_vec(nodes: Vec<NodeData>) -> Pages {
        let len = nodes.len();
        let mut nodes = nodes.into_iter();
        let mut leaf = || leaf_of(nodes.by_ref());
        let full_leaves = len >> LEAF_BITS;
        let pages = (0..full_leaves.div_ceil(LEAVES_PER_PAGE))
            .map(|p| {
                let leaves = full_leaves - p * LEAVES_PER_PAGE;
                Arc::new(std::array::from_fn(|l| (l < leaves).then(&mut leaf)))
            })
            .collect();
        Pages {
            pages,
            tail: leaf(),
            spares: Vec::new(),
            len,
        }
    }

    /// How many pages `self` and `other` share (same `Arc`s). Observability
    /// for the COW contract: a fresh snapshot shares everything; a writer
    /// that touched one node shares all pages but one. A page counts as
    /// shared when its table is, and also the tail if the page holds it.
    pub(crate) fn shared_pages_with(&self, other: &Pages) -> usize {
        let tails = Arc::ptr_eq(&self.tail, &other.tail);
        (0..self.page_count().min(other.page_count()))
            .filter(|&k| {
                let tables = match (self.pages.get(k), other.pages.get(k)) {
                    (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                    (a, b) => a.is_none() && b.is_none(),
                };
                let holds_tail = self.len & LEAF_MASK != 0 && k == self.len >> PAGE_BITS;
                tables && (!holds_tail || tails)
            })
            .count()
    }

    /// Total page count: [`PAGE_LEN`]-slot pages, the last possibly
    /// partial.
    pub(crate) fn page_count(&self) -> usize {
        self.len.div_ceil(PAGE_LEN)
    }
}

impl Index<usize> for Pages {
    type Output = NodeData;
    #[inline]
    fn index(&self, i: usize) -> &NodeData {
        self.get(i).expect("node slot index out of bounds")
    }
}

impl IndexMut<usize> for Pages {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut NodeData {
        self.get_mut(i).expect("node slot index out of bounds")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeKind;

    fn slot(tag: &str) -> NodeData {
        NodeData {
            parent: None,
            kind: NodeKind::Text {
                content: tag.to_string(),
            },
            alive: true,
            okey: 0,
        }
    }

    fn text(d: &NodeData) -> &str {
        match &d.kind {
            NodeKind::Text { content } => content,
            _ => unreachable!(),
        }
    }

    fn numbered(n: usize) -> Pages {
        let mut p = Pages::default();
        for i in 0..n {
            p.push(slot(&i.to_string()));
        }
        p
    }

    /// The full leaves, then the tail if it holds a slot.
    fn leaves(p: &Pages) -> Vec<&Leaf> {
        let full = p.pages.iter().flat_map(|page| page.iter().flatten());
        let tail = (!p.len.is_multiple_of(LEAF_LEN)).then_some(&p.tail);
        full.chain(tail).collect()
    }

    /// Leaves of `a` that are the same `Arc` as the leaf at the same
    /// position in `b`.
    fn shared_leaves(a: &Pages, b: &Pages) -> usize {
        let pairs = leaves(a).into_iter().zip(leaves(b));
        pairs.filter(|(x, y)| Arc::ptr_eq(x, y)).count()
    }

    /// The shape invariant of [`Pages`]: full page tables except the
    /// last, no empty table, a tail shorter than a leaf.
    fn assert_shape(p: &Pages) {
        assert_eq!(p.page_count(), p.len().div_ceil(PAGE_LEN));
        assert_eq!(leaves(p).len(), p.len().div_ceil(LEAF_LEN));
        let mut spares = p.tail[p.len() % LEAF_LEN..].iter();
        assert!(spares.all(|d| !d.alive && text(d).is_empty()));
        assert_eq!(
            p.pages.len(),
            (p.len() / LEAF_LEN).div_ceil(LEAVES_PER_PAGE)
        );
        for (k, page) in p.pages.iter().enumerate() {
            let full = page.iter().take_while(|l| l.is_some()).count();
            assert!(full > 0 && page[full..].iter().all(Option::is_none));
            assert!(k + 1 == p.pages.len() || full == LEAVES_PER_PAGE);
        }
    }

    /// Slot and leaf boundaries, either side.
    const SIZES: [usize; 8] = [0, 1, 63, 64, 65, 1_023, 1_024, 1_025];

    #[test]
    fn push_index_pop_round_trip() {
        let mut p = numbered(PAGE_LEN * 2 + 5);
        assert_eq!(p.len(), PAGE_LEN * 2 + 5);
        assert_eq!(p.page_count(), 3);
        assert_eq!(text(&p[0]), "0");
        assert_eq!(text(&p[PAGE_LEN]), &PAGE_LEN.to_string());
        assert_eq!(text(&p[p.len() - 1]), &(PAGE_LEN * 2 + 4).to_string());
        for _ in 0..6 {
            p.pop().unwrap();
        }
        // Popping across the page boundary drops the emptied page.
        assert_eq!(p.page_count(), 2);
        assert_eq!(p.len(), PAGE_LEN * 2 - 1);
        assert!(p.get(p.len()).is_none());
    }

    #[test]
    fn push_pop_from_vec_round_trip_at_boundaries() {
        assert_eq!(LEAF_LEN, 64);
        assert_eq!(PAGE_LEN, 1_024);
        for n in SIZES {
            let pushed = numbered(n);
            assert_shape(&pushed);
            let v: Vec<NodeData> = (0..n).map(|i| slot(&i.to_string())).collect();
            let built = Pages::from_vec(v);
            assert_shape(&built);
            assert_eq!(built.len(), n);
            assert_eq!(built.iter().count(), n);
            for (i, (a, b)) in pushed.iter().zip(built.iter()).enumerate() {
                assert_eq!(text(a), i.to_string());
                assert_eq!(text(b), i.to_string());
                assert_eq!(text(&built[i]), i.to_string());
            }
            assert!(built.get(n).is_none());
            // Pop everything back off, newest first.
            let mut popped = built;
            for i in (0..n).rev() {
                assert_eq!(text(&popped.pop().unwrap()), i.to_string());
                assert_shape(&popped);
            }
            assert!(popped.pop().is_none());
            // And grow again from empty.
            popped.push(slot("again"));
            assert_eq!(text(&popped[0]), "again");
            assert_shape(&popped);
        }
    }

    #[test]
    fn clone_shares_and_mutation_unshares_one_page() {
        let mut p = numbered(PAGE_LEN * 3);
        let snap = p.clone();
        assert_eq!(p.shared_pages_with(&snap), 3);
        p[PAGE_LEN + 1].okey = 42; // touch page 1 only
        assert_eq!(p.shared_pages_with(&snap), 2);
        // The snapshot still sees the pre-mutation value.
        assert_eq!(snap[PAGE_LEN + 1].okey, 0);
        assert_eq!(p[PAGE_LEN + 1].okey, 42);
    }

    #[test]
    fn one_slot_write_after_clone_copies_one_table_and_one_leaf() {
        let mut p = numbered(PAGE_LEN * 3 + 5);
        let snap = p.clone();
        let all = leaves(&p).len();
        assert_eq!(all, 3 * LEAVES_PER_PAGE + 1);
        assert_eq!(shared_leaves(&p, &snap), all);
        assert_eq!(p.shared_pages_with(&snap), 4);
        // A slot in the middle of page 1, at a leaf boundary.
        let i = PAGE_LEN + 5 * LEAF_LEN;
        p[i].okey = 7;
        // One page table and one leaf were copied, nothing else.
        assert_eq!(p.shared_pages_with(&snap), 3);
        let tables = p.pages.iter().zip(&snap.pages);
        assert_eq!(tables.filter(|(a, b)| !Arc::ptr_eq(a, b)).count(), 1);
        assert_eq!(shared_leaves(&p, &snap), all - 1);
        // The copied leaf is the slot's, and its LEAF_LEN slots are
        // everything the write deep-cloned.
        let pairs = leaves(&p).into_iter().zip(leaves(&snap));
        let copied: Vec<&Leaf> = pairs
            .filter(|(a, b)| !Arc::ptr_eq(a, b))
            .map(|(a, _)| a)
            .collect();
        assert_eq!(copied.len(), 1);
        assert_eq!(copied[0][0].okey, 7);
        // The snapshot and the slot before the boundary are untouched.
        assert_eq!(snap[i].okey, 0);
        assert_eq!(text(&p[i - 1]), text(&snap[i - 1]));
        // A second write to the same leaf copies nothing more.
        p[i + LEAF_LEN - 1].okey = 8;
        assert_eq!(shared_leaves(&p, &snap), all - 1);
        assert_eq!(snap[i + LEAF_LEN - 1].okey, 0);
        // A write to the tail copies the tail only.
        p[PAGE_LEN * 3 + 4].okey = 9;
        assert_eq!(shared_leaves(&p, &snap), all - 2);
        assert_eq!(p.shared_pages_with(&snap), 2);
        assert_eq!(snap[PAGE_LEN * 3 + 4].okey, 0);
    }

    #[test]
    fn pop_drops_emptied_leaves_and_pages() {
        let mut p = numbered(PAGE_LEN + LEAF_LEN + 1);
        assert_eq!((p.pages.len(), leaves(&p).len()), (2, LEAVES_PER_PAGE + 2));
        p.pop().unwrap();
        assert_eq!((p.pages.len(), leaves(&p).len()), (2, LEAVES_PER_PAGE + 1));
        // The next pop takes page 1's only leaf back out: its table goes.
        p.pop().unwrap();
        assert_eq!((p.pages.len(), leaves(&p).len()), (1, LEAVES_PER_PAGE + 1));
        assert_shape(&p);
        for _ in 0..LEAF_LEN - 2 {
            p.pop().unwrap();
            assert_shape(&p);
        }
        assert_eq!((p.len(), p.page_count()), (PAGE_LEN + 1, 2));
        p.pop().unwrap();
        assert_eq!((p.len(), p.page_count()), (PAGE_LEN, 1));
        assert_eq!((p.pages.len(), leaves(&p).len()), (1, LEAVES_PER_PAGE));
        p.pop().unwrap();
        assert_eq!((p.pages.len(), leaves(&p).len()), (1, LEAVES_PER_PAGE));
        assert!(p.pages[0][LEAVES_PER_PAGE - 1].is_none());
        assert_eq!(text(&p[PAGE_LEN - 2]), (PAGE_LEN - 2).to_string());
    }

    #[test]
    fn from_vec_matches_pushes() {
        let v: Vec<NodeData> = (0..(PAGE_LEN + 7)).map(|i| slot(&i.to_string())).collect();
        let a = Pages::from_vec(v.clone());
        let mut b = Pages::default();
        for d in v {
            b.push(d);
        }
        assert_eq!(a.len(), b.len());
        for i in 0..a.len() {
            assert_eq!(text(&a[i]), text(&b[i]));
        }
        assert_eq!(a.iter().count(), a.len());
    }

    #[test]
    fn push_after_shared_clone_does_not_disturb_snapshot() {
        for n in std::iter::once(5).chain(SIZES) {
            let mut p = numbered(n);
            let snap = p.clone();
            p.push(slot("new"));
            assert_eq!(snap.len(), n);
            assert_eq!(p.len(), n + 1);
            assert!(snap.get(n).is_none());
            assert_eq!(text(&p[n]), "new");
            assert_shape(&p);
            assert_shape(&snap);
            p.pop().unwrap();
            p.pop();
            assert_eq!(snap.len(), n);
            if n > 0 {
                assert_eq!(text(&snap[n - 1]), (n - 1).to_string());
            }
        }
    }
}
