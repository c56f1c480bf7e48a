//! E1 — §4.3 complexity claim on the XMark Q8 variant.
//!
//! Paper: naive evaluation is `O(|person| · |closed_auction|)`; the
//! outer-join/group-by plan is `O(|person| + |closed_auction| +
//! |matches|)`, "resulting in a substantial improvement".
//!
//! Expected shape: naive time grows ~quadratically with the scale knob
//! (both sides grow together), optimized ~linearly; the ratio therefore
//! grows ~linearly. Absolute numbers are ours, not Galax's.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use xmarkgen::Scale;
use xqcore::alg::{compile_program, run_naive};
use xqexp::{run_planned, xmark_fixture, Q8_VARIANT};

fn bench_q8(c: &mut Criterion) {
    let program = xqsyn::compile(Q8_VARIANT).expect("compile Q8");
    let planned = compile_program(&program);
    assert!(planned.is_optimized());
    let mut group = c.benchmark_group("e1_xmark_q8");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));

    for n in [50usize, 100, 200] {
        let scale = Scale::join_sides(n, n / 2);
        group.bench_with_input(BenchmarkId::new("naive", n), &scale, |b, scale| {
            b.iter_batched(
                || xmark_fixture(8, scale),
                |(mut store, bindings)| {
                    run_naive(&program, &mut store, &bindings, 0).expect("naive")
                },
                criterion::BatchSize::LargeInput,
            );
        });
        group.bench_with_input(BenchmarkId::new("optimized", n), &scale, |b, scale| {
            b.iter_batched(
                || xmark_fixture(8, scale),
                |(mut store, bindings)| run_planned(&planned, &program, &mut store, &bindings),
                criterion::BatchSize::LargeInput,
            );
        });
    }
    // The optimized plan keeps scaling where naive would take minutes.
    for n in [400usize, 800] {
        let scale = Scale::join_sides(n, n / 2);
        group.bench_with_input(BenchmarkId::new("optimized", n), &scale, |b, scale| {
            b.iter_batched(
                || xmark_fixture(8, scale),
                |(mut store, bindings)| run_planned(&planned, &program, &mut store, &bindings),
                criterion::BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(benches, bench_q8);
criterion_main!(benches);
