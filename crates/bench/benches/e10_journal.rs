//! E10 — undo-journal overhead on the Δ-application success path.
//!
//! [`apply_delta`] runs every request inside a store undo frame so a failed
//! request can roll the store back to its pre-apply state. The frame is pure
//! insurance on the success path: each primitive mutation pushes one inverse
//! entry, and the outermost commit clears the journal in O(entries).
//!
//! This bench quantifies that insurance premium by comparing the journaled
//! entry point against a raw `Store::apply` loop with no frame open
//! (journaling is a no-op when no frame is active, so the raw loop records
//! nothing).
//! Target: < 15% overhead on the e2-style rename and chained-insert Δs.
//! The rollback benches bound the *failure* path: undoing a fully-applied
//! journal is the worst case, and should stay linear in |Δ|.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;
use xqcore::{apply_delta, Delta, SnapMode};
use xqdm::Store;
use xqexp::{chained_inserts_delta, renames_delta};

type Fixture = fn(&mut Store, usize) -> Delta;

fn rename_fixture(store: &mut Store, k: usize) -> Delta {
    renames_delta(store, k)
}

fn insert_fixture(store: &mut Store, k: usize) -> Delta {
    chained_inserts_delta(store, k).1
}

fn bench_journal(c: &mut Criterion) {
    // Warm the allocator before the first measured group: the very first
    // benchmark in the process otherwise pays page-fault costs none of the
    // later ones see, which skews the journaled/raw ratio.
    for _ in 0..50 {
        let mut store = Store::new();
        let delta = renames_delta(&mut store, 10_000);
        apply_delta(&mut store, delta, SnapMode::Ordered, 42).expect("warmup");
    }

    let mut group = c.benchmark_group("e10_journal");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));

    let fixtures: [(&str, Fixture); 2] = [("renames", rename_fixture), ("inserts", insert_fixture)];

    for k in [1_000usize, 10_000] {
        group.throughput(Throughput::Elements(k as u64));
        for (name, fixture) in fixtures {
            // Success path, journaled: frame + per-op inverse entries + commit.
            group.bench_with_input(
                BenchmarkId::new(format!("{name}-journaled"), k),
                &k,
                |b, &k| {
                    b.iter_batched(
                        || {
                            let mut store = Store::new();
                            let delta = fixture(&mut store, k);
                            (store, delta)
                        },
                        |(mut store, delta)| {
                            apply_delta(&mut store, delta, SnapMode::Ordered, 42).expect("apply")
                        },
                        criterion::BatchSize::LargeInput,
                    );
                },
            );
            // Baseline: the same ops with no frame open, so every
            // journaling() check is false and nothing is recorded.
            group.bench_with_input(BenchmarkId::new(format!("{name}-raw"), k), &k, |b, &k| {
                b.iter_batched(
                    || {
                        let mut store = Store::new();
                        let delta = fixture(&mut store, k);
                        (store, delta)
                    },
                    |(mut store, delta)| {
                        for op in delta {
                            store.apply(op).expect("apply");
                        }
                    },
                    criterion::BatchSize::LargeInput,
                );
            });
            // Failure path: apply everything inside a frame, then undo it
            // all — the worst-case rollback (journal holds |Δ| entries).
            group.bench_with_input(
                BenchmarkId::new(format!("{name}-rollback"), k),
                &k,
                |b, &k| {
                    b.iter_batched(
                        || {
                            let mut store = Store::new();
                            let delta = fixture(&mut store, k);
                            (store, delta)
                        },
                        |(mut store, delta)| {
                            store.begin_frame();
                            for op in delta {
                                store.apply(op).expect("apply");
                            }
                            store.rollback_frame();
                        },
                        criterion::BatchSize::LargeInput,
                    );
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_journal);
criterion_main!(benches);
