//! Microbenches of the substrates everything else stands on: the workload
//! bound, integer partitions, the Hungarian assignment, clique search, the
//! ILP engine and the simulator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rta_analysis::workload::interfering_workload;
use rta_combinatorics::{
    max_weight_assignment_total, max_weight_clique_weight, partition_count, partitions,
    AssignmentScratch, BitSet, CliqueScratch,
};
use rta_ilp::{IlpBuilder, Sense};
use rta_sim::SimRequest;
use rta_taskgen::{generate_task_set, group1};
use std::hint::black_box;

fn bench_workload_function(c: &mut Criterion) {
    c.bench_function("interfering_workload", |b| {
        b.iter(|| {
            let mut acc = 0u128;
            for window in (0..1000u128).step_by(7) {
                acc += interfering_workload(black_box(window), 120, 57, 23, 4);
            }
            acc
        })
    });
}

fn bench_partitions(c: &mut Criterion) {
    let mut group = c.benchmark_group("partitions");
    for m in [8u32, 16, 32] {
        group.bench_with_input(BenchmarkId::new("enumerate", m), &m, |b, &m| {
            b.iter(|| partitions(black_box(m)).count())
        });
        group.bench_with_input(BenchmarkId::new("pentagonal_count", m), &m, |b, &m| {
            b.iter(|| partition_count(black_box(m)))
        });
    }
    group.finish();
}

fn bench_assignment(c: &mut Criterion) {
    let weights: Vec<Vec<u64>> = (0..12)
        .map(|r| (0..20).map(|c| ((r * 37 + c * 17) % 100) as u64).collect())
        .collect();
    c.bench_function("hungarian_12x20", |b| {
        let mut scratch = AssignmentScratch::new();
        b.iter(|| {
            let weights = black_box(&weights);
            max_weight_assignment_total(12, 20, |r, c| weights[r][c], &mut scratch)
        })
    });
}

fn bench_clique(c: &mut Criterion) {
    // A 24-vertex graph shaped like a parallelism graph (complement of a
    // layered order).
    let n = 24;
    let mut adj = vec![BitSet::with_capacity(n); n];
    for a in 0..n {
        for b in a + 1..n {
            if (a + b) % 3 != 0 {
                adj[a].insert(b);
                adj[b].insert(a);
            }
        }
    }
    let weights: Vec<u64> = (0..n as u64).map(|i| i * 7 % 97 + 1).collect();
    c.bench_function("max_weight_clique_size8_n24", |b| {
        let mut scratch = CliqueScratch::new();
        b.iter(|| max_weight_clique_weight(black_box(&adj), &weights, 8, &mut scratch))
    });
}

fn bench_ilp_engine(c: &mut Criterion) {
    c.bench_function("ilp_knapsack_16_vars", |b| {
        b.iter(|| {
            let mut m = IlpBuilder::new();
            let vars: Vec<_> = (0..16).map(|i| m.binary(format!("x{i}"))).collect();
            for (i, &v) in vars.iter().enumerate() {
                m.objective(v, ((i * 13) % 29 + 1) as f64);
            }
            let weights: Vec<_> = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| (v, ((i * 7) % 11 + 1) as f64))
                .collect();
            m.constraint(&weights, Sense::Le, 30.0);
            m.build().maximize().expect("feasible")
        })
    });
}

fn bench_simulator(c: &mut Criterion) {
    let mut rng = SmallRng::seed_from_u64(5);
    let ts = generate_task_set(&mut rng, &group1(2.0));
    let horizon = ts.tasks().iter().map(|t| t.period()).max().unwrap_or(1) * 10;
    c.bench_function("simulate_10_maxperiods_m4", |b| {
        let request = SimRequest::new(4, horizon);
        b.iter(|| request.evaluate(black_box(&ts)))
    });
}

criterion_group!(
    substrates,
    bench_workload_function,
    bench_partitions,
    bench_assignment,
    bench_clique,
    bench_ilp_engine,
    bench_simulator
);
criterion_main!(substrates);
