//! Serial vs parallel campaign driver on a reduced Figure 2(a) grid.
//!
//! This is the bench behind the PR's speedup claim: the parallel driver
//! must beat the serial path on multi-core hardware (≈ linearly up to the
//! grid's set count) **with identical output** — asserted here before
//! timing anything. On a single-core machine the two coincide; run on a
//! multi-core host to see the gap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rta_experiments::exec::Jobs;
use rta_experiments::figure2::{run_with_jobs, SweepConfig};
use std::hint::black_box;

/// Reduced Figure 2(a): m = 4, 5 utilization points, 8 sets per point.
fn reduced_fig2a() -> SweepConfig {
    let mut config = SweepConfig::paper_panel(4).with_sets_per_point(8);
    config.utilizations = (0..5).map(|i| 1.0 + 3.0 * i as f64 / 4.0).collect();
    config
}

fn bench_driver_comparison(c: &mut Criterion) {
    let config = reduced_fig2a();

    // The speedup claim is only meaningful if the outputs coincide.
    let serial = run_with_jobs(&config, Jobs::serial());
    assert_eq!(serial, run_with_jobs(&config, Jobs::Auto));
    assert!(serial.dominance_holds());

    let mut group = c.benchmark_group("fig2a_reduced_driver");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| run_with_jobs(black_box(&config), Jobs::serial()))
    });
    for workers in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("parallel", workers),
            &workers,
            |b, &workers| b.iter(|| run_with_jobs(black_box(&config), Jobs::Count(workers))),
        );
    }
    group.bench_function("parallel_auto", |b| {
        b.iter(|| run_with_jobs(black_box(&config), Jobs::Auto))
    });
    group.finish();
}

criterion_group!(parallel, bench_driver_comparison);
criterion_main!(parallel);
