//! E2 — §3.2/§4.1: the three Δ-application semantics.
//!
//! Paper: conflict-detection verification runs "in linear time, using a
//! pair of hash-tables over node ids"; nondeterministic and
//! conflict-detection modes share an order-independent application.
//!
//! Expected shape: all three modes linear in |Δ|; conflict-detection pays
//! a small constant factor over ordered for the verification pass;
//! verification alone is linear whether the list is clean or has a buried
//! conflict.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::time::Duration;
use xqcore::{apply_delta, verify_conflict_free, SnapMode};
use xqdm::Store;
use xqexp::{chained_inserts_delta, conflicting_delta, renames_delta};

fn bench_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("e2_apply_semantics");
    group
        .sample_size(20)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));

    for k in [100usize, 1_000, 10_000] {
        group.throughput(Throughput::Elements(k as u64));
        for (mode, label) in [
            (SnapMode::Ordered, "ordered"),
            (SnapMode::Nondeterministic, "nondeterministic"),
            (SnapMode::ConflictDetection, "conflict-detection"),
        ] {
            group.bench_with_input(BenchmarkId::new(label, k), &k, |b, &k| {
                b.iter_batched(
                    || {
                        let mut store = Store::new();
                        let delta = renames_delta(&mut store, k);
                        (store, delta)
                    },
                    |(mut store, delta)| apply_delta(&mut store, delta, mode, 42).expect("apply"),
                    criterion::BatchSize::LargeInput,
                );
            });
        }
        // Chained inserts: the anchor-tracking path of the verifier.
        group.bench_with_input(BenchmarkId::new("cd-inserts", k), &k, |b, &k| {
            b.iter_batched(
                || {
                    let mut store = Store::new();
                    let (_, delta) = chained_inserts_delta(&mut store, k);
                    (store, delta)
                },
                |(mut store, delta)| {
                    apply_delta(&mut store, delta, SnapMode::ConflictDetection, 42).expect("apply")
                },
                criterion::BatchSize::LargeInput,
            );
        });
        // Verification only (no application), clean and conflicting.
        group.bench_with_input(BenchmarkId::new("verify-clean", k), &k, |b, &k| {
            let mut store = Store::new();
            let delta = renames_delta(&mut store, k);
            b.iter(|| verify_conflict_free(&delta).expect("clean"));
        });
        group.bench_with_input(BenchmarkId::new("verify-conflict", k), &k, |b, &k| {
            let mut store = Store::new();
            let delta = conflicting_delta(&mut store, k);
            b.iter(|| verify_conflict_free(&delta).expect_err("conflict"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_apply);
criterion_main!(benches);
