//! E9 (ablation) — §4.1: "the only two significant challenges relate to
//! dealing with document order maintenance, and garbage collection".
//!
//! Compares our two document-order implementations on wide XMark-like
//! trees (XMark's `people` element has tens of thousands of children, so
//! fanout is the dominant term):
//!
//! * **gap-keys** (`cmp_doc_order`): O(depth) per comparison, maintained
//!   incrementally at insertion;
//! * **scan** (`cmp_doc_order_scan`): recompute sibling positions by
//!   scanning child lists — O(depth · fanout) per comparison.
//!
//! Expected shape: scan degrades linearly with fanout; gap-keys stay flat.
//! `sort_and_dedup` (every path step's ddo pass) inherits the gap-key
//! speedup.
//!
//! The **sort-dedup, one segment** row sorts the same reversed children
//! of a *parsed* tree: its ids form one order segment (DESIGN.md §14), so
//! the sort compares `u32` ids and builds no keys. Before timing, it
//! checks that the id sort and the gap-key sort agree.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;
use xqdm::{xml, NodeId, QName, Store};

/// A root with `fanout` children, each with one text child.
fn wide_tree(fanout: usize) -> (Store, Vec<NodeId>) {
    let mut store = Store::new();
    let root = store.new_element(QName::local("people"));
    let kids: Vec<NodeId> = (0..fanout)
        .map(|i| {
            let c = store.new_element(QName::local(format!("person{i}")));
            let t = store.new_text("x");
            store.append_child(c, t).unwrap();
            store.append_child(root, c).unwrap();
            c
        })
        .collect();
    (store, kids)
}

/// [`wide_tree`]'s shape, parsed: one order segment.
fn parsed_wide_tree(fanout: usize) -> (Store, Vec<NodeId>) {
    let text: String = (0..fanout)
        .map(|i| format!("<person{i}>x</person{i}>"))
        .collect();
    let mut store = Store::new();
    let doc = xml::parse_document(&mut store, &format!("<people>{text}</people>")).unwrap();
    let people = store.children(doc).unwrap()[0];
    let kids = store.children(people).unwrap().to_vec();
    assert_eq!(store.clean_segment_count(), 1);
    (store, kids)
}

fn bench_doc_order(c: &mut Criterion) {
    let mut group = c.benchmark_group("e9_doc_order");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));

    for fanout in [100usize, 1_000, 10_000] {
        let (store, kids) = wide_tree(fanout);
        // Compare nodes from the middle of the list (worst case for scan).
        let a = kids[fanout / 2 - 1];
        let b = kids[fanout / 2];
        group.bench_with_input(
            BenchmarkId::new("cmp-gap-keys", fanout),
            &fanout,
            |bch, _| {
                bch.iter(|| store.cmp_doc_order(a, b).unwrap());
            },
        );
        group.bench_with_input(BenchmarkId::new("cmp-scan", fanout), &fanout, |bch, _| {
            bch.iter(|| store.cmp_doc_order_scan(a, b).unwrap());
        });
        // The operation queries actually pay for: ddo over a step result.
        group.throughput(Throughput::Elements(fanout as u64));
        group.bench_with_input(BenchmarkId::new("sort-dedup", fanout), &fanout, |bch, _| {
            let mut shuffled: Vec<NodeId> = kids.iter().rev().copied().collect();
            bch.iter(|| {
                let mut v = shuffled.clone();
                store.sort_and_dedup(&mut v).unwrap();
                v
            });
            shuffled.reverse();
        });
        let (parsed, parsed_kids) = parsed_wide_tree(fanout);
        let reversed: Vec<NodeId> = parsed_kids.iter().rev().copied().collect();
        let mut by_ids = reversed.clone();
        parsed.sort_and_dedup(&mut by_ids).unwrap();
        let mut by_keys = reversed.clone();
        by_keys.sort_by(|&a, &b| parsed.cmp_doc_order_scan(a, b).unwrap());
        assert_eq!(by_ids, by_keys, "the id sort left document order");
        group.bench_with_input(
            BenchmarkId::new("sort-dedup-one-segment", fanout),
            &fanout,
            |bch, _| {
                bch.iter(|| {
                    let mut v = reversed.clone();
                    parsed.sort_and_dedup(&mut v).unwrap();
                    v
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_doc_order);
criterion_main!(benches);
