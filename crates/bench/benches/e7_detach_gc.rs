//! E7 — §3.1/§4.1: the detach semantics of `delete` leaves "persistent
//! but unreachable nodes", and the paper flags their garbage collection as
//! one of the two real data-model problems.
//!
//! Measures (a) how garbage accumulates under a delete-heavy workload
//! (detach itself is cheap — it never frees), and (b) the cost of the
//! explicit reachability sweep `collect_garbage` as store size grows —
//! expected linear in live+dead nodes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;
use xqdm::{NodeId, QName, RedoOp, Store};

/// A store with `n` children under a root, then all children detached:
/// maximal garbage relative to the root.
fn detach_heavy_store(n: usize) -> (Store, NodeId) {
    let mut store = Store::new();
    let root = store.new_element(QName::local("root"));
    let mut kids = Vec::with_capacity(n);
    for i in 0..n {
        let c = store.new_element(QName::local(format!("c{i}")));
        let t = store.new_text("payload");
        store.append_child(c, t).unwrap();
        store.append_child(root, c).unwrap();
        kids.push(c);
    }
    for c in kids {
        store.apply(RedoOp::Detach { node: c }).unwrap();
    }
    (store, root)
}

fn bench_gc(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_detach_gc");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));

    for n in [1_000usize, 10_000, 50_000] {
        group.throughput(Throughput::Elements(n as u64));
        // Detach alone: O(children-list) removal per node, no freeing.
        group.bench_with_input(BenchmarkId::new("detach-workload", n), &n, |b, &n| {
            b.iter_batched(
                || {
                    let mut store = Store::new();
                    let root = store.new_element(QName::local("root"));
                    let kids: Vec<NodeId> = (0..n)
                        .map(|_| {
                            let c = store.new_element(QName::local("c"));
                            store.append_child(root, c).unwrap();
                            c
                        })
                        .collect();
                    (store, kids)
                },
                |(mut store, kids)| {
                    // Each detach rescans the parent's remaining child
                    // list, so detaching all n children of one wide parent
                    // is O(n²) — the cost profile the detach semantics
                    // implies on wide nodes (reported as such in
                    // EXPERIMENTS.md).
                    for c in kids.into_iter().rev() {
                        store.apply(RedoOp::Detach { node: c }).unwrap();
                    }
                    store
                },
                criterion::BatchSize::LargeInput,
            );
        });
        // Reachability statistics (the monitoring a server would run).
        group.bench_with_input(BenchmarkId::new("stats", n), &n, |b, &n| {
            let (store, root) = detach_heavy_store(n);
            b.iter(|| store.stats(&[root]).unwrap());
        });
        // The sweep itself.
        group.bench_with_input(BenchmarkId::new("collect-garbage", n), &n, |b, &n| {
            b.iter_batched(
                || detach_heavy_store(n),
                |(mut store, root)| {
                    let reclaimed = store.collect_garbage(&[root]).unwrap();
                    assert_eq!(reclaimed, 2 * n); // element + text per child
                    store
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_gc);
criterion_main!(benches);
