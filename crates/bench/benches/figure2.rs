//! Benches regenerating the Figure 2 sweeps (experiments E4–E7) at reduced
//! set counts, plus the timing experiment E8 (per-analysis cost vs core
//! count — the quantity behind the paper's "0.45 s / 4.75 s / 43 min"
//! paragraph).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rta_analysis::{analyze, AnalysisConfig, Method};
use rta_experiments::exec::Jobs;
use rta_experiments::figure2::{run_task_count_with_jobs, run_with_jobs, SweepConfig};
use rta_taskgen::{generate_task_set, group1, group2};
use std::hint::black_box;

/// Reduced panels: 5 utilization points, 8 sets per point.
fn reduced_panel(cores: usize) -> SweepConfig {
    let mut config = SweepConfig::paper_panel(cores).with_sets_per_point(8);
    let m = cores as f64;
    config.utilizations = (0..5).map(|i| 1.0 + (m - 1.0) * i as f64 / 4.0).collect();
    config
}

fn bench_fig2_panels(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure2_panels_reduced");
    group.sample_size(10);
    for cores in [4usize, 8, 16] {
        group.bench_with_input(BenchmarkId::new("group1", cores), &cores, |b, &m| {
            let config = reduced_panel(m);
            b.iter(|| {
                let result = run_with_jobs(black_box(&config), Jobs::Auto);
                assert!(result.dominance_holds());
                result
            })
        });
    }
    group.bench_function("group2_m4", |b| {
        let config = reduced_panel(4).with_generator(group2);
        b.iter(|| run_with_jobs(black_box(&config), Jobs::Auto))
    });
    group.bench_function("task_count_variant_m16", |b| {
        let config = reduced_panel(16);
        b.iter(|| run_task_count_with_jobs(black_box(&config), &[2, 8, 16], Jobs::Auto))
    });
    group.finish();
}

/// E8: the cost of one schedulability test per method and core count.
fn bench_analysis_runtime(c: &mut Criterion) {
    let mut group = c.benchmark_group("analysis_runtime");
    for cores in [4usize, 8, 16] {
        let mut rng = SmallRng::seed_from_u64(cores as u64);
        let ts = generate_task_set(&mut rng, &group1(cores as f64 / 2.0));
        for method in Method::ALL {
            group.bench_with_input(
                BenchmarkId::new(method.label(), cores),
                &(&ts, method),
                |b, (ts, method)| {
                    let config = AnalysisConfig::new(cores, *method);
                    b.iter(|| analyze(black_box(ts), &config))
                },
            );
        }
    }
    group.finish();
}

criterion_group!(figure2, bench_fig2_panels, bench_analysis_runtime);
criterion_main!(figure2);
