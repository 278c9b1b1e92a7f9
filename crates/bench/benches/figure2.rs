//! Benches regenerating the Figure 2 sweeps (experiments E4–E7) at reduced
//! set counts, the serial vs parallel campaign driver on the reduced
//! Figure 2(a) panel, and the timing experiment E8 (per-analysis cost vs
//! core count — the quantity behind the paper's "0.45 s / 4.75 s / 43 min"
//! paragraph). Each label prints the median time of one call.
//!
//! The driver comparison asserts that the serial sweep equals the parallel
//! one before timing anything: the parallel driver should beat the serial
//! path on multi-core hardware with identical output. On a single-core
//! machine the two coincide.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rta_analysis::{analyze, AnalysisConfig, Method, ScenarioSpace};
use rta_bench::measure;
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

/// A reduced Figure 2 sweep on `jobs` workers: the paper's seed, 8 sets
/// per point.
fn reduced<F>(cores: usize, xs: &[f64], jobs: Jobs, make_set: F) -> SweepResult
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
    sweep_into(&spec, jobs, &mut |p: &SweepPoint| points.push(p.clone()));
    SweepResult { cores, points }
}

fn group1_set(seed: u64, u: f64) -> TaskSet {
    generate_on_worker(seed, &group1(u))
}

fn main() {
    for cores in [4usize, 8, 16] {
        let xs = reduced_grid(cores);
        measure(&format!("figure2_panels_reduced/group1/{cores}"), 1, || {
            let result = reduced(cores, black_box(&xs), Jobs::Auto, group1_set);
            assert!(result.dominance_holds());
            result
        });
    }
    let fig2a = reduced_grid(4);
    measure("figure2_panels_reduced/group2_m4", 1, || {
        reduced(4, black_box(&fig2a), Jobs::Auto, |seed, u| {
            generate_on_worker(seed, &group2(u))
        })
    });
    // 2, 8 and 16 tasks per set at the fixed U = m/2.
    measure("figure2_panels_reduced/task_count_variant_m16", 1, || {
        reduced(
            16,
            black_box(&[2.0, 8.0, 16.0]),
            Jobs::Auto,
            |seed, tasks: f64| generate_on_worker_with_count(seed, &group1(8.0), tasks as usize),
        )
    });

    // The driver speedup is only meaningful if the outputs coincide.
    let serial = reduced(4, &fig2a, Jobs::serial(), group1_set);
    assert_eq!(serial, reduced(4, &fig2a, Jobs::Auto, group1_set));
    assert!(serial.dominance_holds());
    let driver = |jobs| reduced(4, black_box(&fig2a), jobs, group1_set);
    measure("fig2a_reduced_driver/serial", 1, || driver(Jobs::serial()));
    for workers in [2usize, 4, 8] {
        measure(
            &format!("fig2a_reduced_driver/parallel/{workers}"),
            1,
            || driver(Jobs::Count(workers)),
        );
    }
    measure("fig2a_reduced_driver/parallel_auto", 1, || {
        driver(Jobs::Auto)
    });

    // E8: the cost of one schedulability test per method and core count.
    // LP-ILP's tables cost 10 µs to 10 ms per call; every other method
    // stays under 15 µs, so it is timed in batches of 100 calls.
    for cores in [4usize, 8, 16] {
        let mut rng = SmallRng::seed_from_u64(cores as u64);
        let ts = generate_task_set(&mut rng, &group1(cores as f64 / 2.0));
        for method in Method::ALL {
            let config = AnalysisConfig::new(cores, method);
            let calls = if method == Method::LpIlp { 1 } else { 100 };
            measure(
                &format!("analysis_runtime/{}/{cores}", method.label()),
                calls,
                || analyze(black_box(&ts), &config),
            );
        }
    }
}
