//! Ablation benches for the reproduction's departures from the paper:
//!
//! * A1 — the combinatorial solvers the analysis runs (clique
//!   branch-and-bound, Hungarian assignment) vs the paper's verbatim ILP
//!   formulations, their test reference, solved by the from-scratch
//!   branch-and-bound ILP engine;
//! * A2 — Algorithm 1 vs the exact reachability-complement parallel sets;
//! * the scenario-space extension.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rta_analysis::blocking::mu::mu_array;
use rta_analysis::blocking::paper_ilp::{blocking_from_mu_ilp, mu_array_ilp};
use rta_analysis::blocking::scenarios::blocking_from_mu;
use rta_analysis::{analyze, AnalysisConfig, Method, ScenarioSpace};
use rta_model::{parallel_sets_algorithm1, parallel_sets_exact, Dag};
use rta_taskgen::{generate_dag, generate_task_set, group1, DagGenConfig};
use std::hint::black_box;

fn sample_dags(count: usize, max_nodes: usize) -> Vec<Dag> {
    let config = DagGenConfig {
        max_nodes,
        ..DagGenConfig::default()
    };
    (0..count)
        .map(|seed| {
            let mut rng = SmallRng::seed_from_u64(seed as u64);
            generate_dag(&mut rng, &config)
        })
        .collect()
}

/// A1a: µ computation, clique search vs paper ILP.
fn bench_mu_solver_ablation(c: &mut Criterion) {
    let dags = sample_dags(8, 12);
    let mut group = c.benchmark_group("ablation_mu_solver");
    group.bench_function("clique", |b| {
        b.iter(|| {
            dags.iter()
                .map(|d| mu_array(black_box(d), 4))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("paper_ilp", |b| {
        b.iter(|| {
            dags.iter()
                .map(|d| mu_array_ilp(black_box(d), 4))
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

/// A1b: Δ computation, Hungarian vs paper ILP, both scenario spaces.
fn bench_rho_solver_ablation(c: &mut Criterion) {
    let mu: Vec<Vec<u64>> = sample_dags(6, 16).iter().map(|d| mu_array(d, 8)).collect();
    let mut group = c.benchmark_group("ablation_rho_solver");
    for space in [ScenarioSpace::PaperExact, ScenarioSpace::Extended] {
        group.bench_with_input(
            BenchmarkId::new("hungarian", format!("{space:?}")),
            &space,
            |b, &space| b.iter(|| blocking_from_mu(black_box(&mu), 8, space)),
        );
        group.bench_with_input(
            BenchmarkId::new("paper_ilp", format!("{space:?}")),
            &space,
            |b, &space| b.iter(|| blocking_from_mu_ilp(black_box(&mu), 8, space)),
        );
    }
    group.finish();
}

/// A2: parallel-NPR sets, Algorithm 1 vs the exact closure complement.
fn bench_parallel_sets_ablation(c: &mut Criterion) {
    let dags = sample_dags(16, 30);
    let mut group = c.benchmark_group("ablation_parallel_sets");
    group.bench_function("algorithm1", |b| {
        b.iter(|| {
            dags.iter()
                .map(|d| parallel_sets_algorithm1(black_box(d)))
                .collect::<Vec<_>>()
        })
    });
    group.bench_function("exact_closure", |b| {
        b.iter(|| {
            dags.iter()
                .map(|d| parallel_sets_exact(black_box(d)))
                .collect::<Vec<_>>()
        })
    });
    group.finish();
}

/// The scenario-space choice, measured on whole analyses.
fn bench_extension_knobs(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(99);
    let ts = generate_task_set(&mut rng, &group1(2.0));
    let mut group = c.benchmark_group("ablation_extensions");
    group.bench_function("lp_ilp_baseline", |b| {
        let config = AnalysisConfig::new(4, Method::LpIlp);
        b.iter(|| analyze(black_box(&ts), &config))
    });
    group.bench_function("lp_ilp_paper_exact_space", |b| {
        let config =
            AnalysisConfig::new(4, Method::LpIlp).with_scenario_space(ScenarioSpace::PaperExact);
        b.iter(|| analyze(black_box(&ts), &config))
    });
    group.finish();
}

criterion_group!(
    ablations,
    bench_mu_solver_ablation,
    bench_rho_solver_ablation,
    bench_parallel_sets_ablation,
    bench_extension_knobs
);
criterion_main!(ablations);
