//! Serial vs parallel campaign driver on a reduced Figure 2(a) grid.
//!
//! This is the bench behind the PR's speedup claim: the parallel driver
//! must beat the serial path on multi-core hardware (≈ linearly up to the
//! grid's set count) **with identical output** — asserted here before
//! timing anything. On a single-core machine the two coincide; run on a
//! multi-core host to see the gap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rta_analysis::ScenarioSpace;
use rta_experiments::campaign::{generate_on_worker, sweep_into, SweepSpec};
use rta_experiments::exec::Jobs;
use rta_experiments::figure2::{SweepPoint, SweepResult};
use rta_taskgen::group1;
use std::hint::black_box;

/// Reduced Figure 2(a): m = 4, 5 utilization points, 8 sets per point.
fn reduced_fig2a(jobs: Jobs) -> SweepResult {
    let xs: Vec<f64> = (0..5).map(|i| 1.0 + 3.0 * i as f64 / 4.0).collect();
    let spec = SweepSpec {
        cores: 4,
        xs: &xs,
        sets_per_point: 8,
        seed: 0xDA7E_2016,
        space: ScenarioSpace::PaperExact,
        make_set: |seed, u| generate_on_worker(seed, &group1(u)),
    };
    let mut points = Vec::new();
    sweep_into(&spec, jobs, &mut |p: &SweepPoint| points.push(p.clone()));
    SweepResult { cores: 4, points }
}

fn bench_driver_comparison(c: &mut Criterion) {
    // The speedup claim is only meaningful if the outputs coincide.
    let serial = reduced_fig2a(Jobs::serial());
    assert_eq!(serial, reduced_fig2a(Jobs::Auto));
    assert!(serial.dominance_holds());

    let mut group = c.benchmark_group("fig2a_reduced_driver");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| reduced_fig2a(black_box(Jobs::serial())))
    });
    for workers in [2usize, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("parallel", workers),
            &workers,
            |b, &workers| b.iter(|| reduced_fig2a(black_box(Jobs::Count(workers)))),
        );
    }
    group.bench_function("parallel_auto", |b| {
        b.iter(|| reduced_fig2a(black_box(Jobs::Auto)))
    });
    group.finish();
}

criterion_group!(parallel, bench_driver_comparison);
criterion_main!(parallel);
