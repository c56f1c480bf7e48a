//! E8 — §4.2/§4.3: the side-effect judgment as an optimizer guard.
//!
//! Paper: "if we had used a snap insert at line 5 of the source code, the
//! group-by optimization would be more difficult to detect". Our compiler
//! makes that concrete: the plain `insert` variant is rewritten to the
//! outer-join/group-by plan; the `snap insert` variant must fall back to
//! the nested loop.
//!
//! Expected shape: the two variants do the same work per match, but the
//! guarded one loses the O(n·m) → O(n+m+matches) rewrite, so its runtime
//! diverges quadratically — the measurable price of observing one's own
//! effects mid-query.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;
use xmarkgen::Scale;
use xqcore::alg::{compile_program, Compiler, QueryPlan};
use xqexp::{run_planned, xmark_fixture, Q8_SNAP_VARIANT, Q8_VARIANT};

fn bench_guard(c: &mut Criterion) {
    let plain = xqsyn::compile(Q8_VARIANT).expect("compile plain");
    let snapped = xqsyn::compile(Q8_SNAP_VARIANT).expect("compile snapped");

    // Pin the optimizer decisions the experiment is about.
    assert!(matches!(
        Compiler::new(&plain).compile(&plain.body),
        QueryPlan::OuterJoinGroupBy(_)
    ));
    assert!(matches!(
        Compiler::new(&snapped).compile(&snapped.body),
        QueryPlan::Iterate(_)
    ));
    let plain_plan = compile_program(&plain);
    let snapped_plan = compile_program(&snapped);
    assert!(plain_plan.is_optimized() && !snapped_plan.is_optimized());

    let mut group = c.benchmark_group("e8_purity_guard");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(2))
        .warm_up_time(Duration::from_millis(500));

    for n in [50usize, 100, 200] {
        let scale = Scale::join_sides(n, n / 2);
        group.bench_with_input(
            BenchmarkId::new("insert-rewritten", n),
            &scale,
            |b, scale| {
                b.iter_batched(
                    || xmark_fixture(8, scale),
                    |(mut store, bindings)| run_planned(&plain_plan, &plain, &mut store, &bindings),
                    criterion::BatchSize::LargeInput,
                );
            },
        );
        group.bench_with_input(
            BenchmarkId::new("snap-insert-fallback", n),
            &scale,
            |b, scale| {
                b.iter_batched(
                    || xmark_fixture(8, scale),
                    |(mut store, bindings)| {
                        run_planned(&snapped_plan, &snapped, &mut store, &bindings)
                    },
                    criterion::BatchSize::LargeInput,
                );
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_guard);
criterion_main!(benches);
