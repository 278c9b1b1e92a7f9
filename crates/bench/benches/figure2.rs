//! Benches regenerating the Figure 2 sweeps (experiments E4–E7) at reduced
//! set counts, plus the timing experiment E8 (per-analysis cost vs core
//! count — the quantity behind the paper's "0.45 s / 4.75 s / 43 min"
//! paragraph).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rta_analysis::{analyze, AnalysisConfig, Method, ScenarioSpace};
use rta_experiments::campaign::{
    generate_on_worker, generate_on_worker_with_count, sweep_into, SweepSpec,
};
use rta_experiments::exec::Jobs;
use rta_experiments::figure2::{SweepPoint, SweepResult};
use rta_model::TaskSet;
use rta_taskgen::{generate_task_set, group1, group2};
use std::hint::black_box;

/// The 5-point utilization grid `1 → m` of a reduced panel.
fn reduced_grid(cores: usize) -> Vec<f64> {
    let m = cores as f64;
    (0..5).map(|i| 1.0 + (m - 1.0) * i as f64 / 4.0).collect()
}

/// A reduced Figure 2 sweep: the paper's seed, 8 sets per point.
fn reduced<F>(cores: usize, xs: &[f64], make_set: F) -> SweepResult
where
    F: Fn(u64, f64) -> TaskSet + Sync,
{
    let spec = SweepSpec {
        cores,
        xs,
        sets_per_point: 8,
        seed: 0xDA7E_2016,
        space: ScenarioSpace::PaperExact,
        make_set,
    };
    let mut points = Vec::new();
    sweep_into(&spec, Jobs::Auto, &mut |p: &SweepPoint| {
        points.push(p.clone())
    });
    SweepResult { cores, points }
}

fn bench_fig2_panels(c: &mut Criterion) {
    let mut group = c.benchmark_group("figure2_panels_reduced");
    group.sample_size(10);
    for cores in [4usize, 8, 16] {
        group.bench_with_input(BenchmarkId::new("group1", cores), &cores, |b, &m| {
            let xs = reduced_grid(m);
            b.iter(|| {
                let result = reduced(m, black_box(&xs), |seed, u| {
                    generate_on_worker(seed, &group1(u))
                });
                assert!(result.dominance_holds());
                result
            })
        });
    }
    group.bench_function("group2_m4", |b| {
        let xs = reduced_grid(4);
        b.iter(|| {
            reduced(4, black_box(&xs), |seed, u| {
                generate_on_worker(seed, &group2(u))
            })
        })
    });
    group.bench_function("task_count_variant_m16", |b| {
        // 2, 8 and 16 tasks per set at the fixed U = m/2.
        b.iter(|| {
            reduced(16, black_box(&[2.0, 8.0, 16.0]), |seed, tasks: f64| {
                generate_on_worker_with_count(seed, &group1(8.0), tasks as usize)
            })
        })
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
