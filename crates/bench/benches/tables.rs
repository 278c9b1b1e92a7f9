//! Benches regenerating Tables I–III of the paper (experiments E1–E3).
//!
//! Each bench measures the full recomputation of the table from the
//! Figure 1 DAGs and asserts the golden values, so the bench doubles as a
//! regression check on the reproduced numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use rta_experiments::tables::{table1, table1_ilp, table2, table3, table3_ilp};

fn bench_table1(c: &mut Criterion) {
    let mut group = c.benchmark_group("table1_mu_arrays");
    group.bench_function("clique_solver", |b| {
        b.iter(|| {
            let t = table1();
            assert_eq!(t.mu[3], vec![5, 9, 12, 0]);
            t
        })
    });
    group.bench_function("paper_ilp_solver", |b| {
        b.iter(|| {
            let t = table1_ilp();
            assert_eq!(t.mu[3], vec![5, 9, 12, 0]);
            t
        })
    });
    group.finish();
}

fn bench_table2(c: &mut Criterion) {
    c.bench_function("table2_scenarios_e4", |b| {
        b.iter(|| {
            let t = table2();
            assert_eq!(t.pentagonal_count, 5);
            t
        })
    });
}

fn bench_table3(c: &mut Criterion) {
    let mut group = c.benchmark_group("table3_rho");
    group.bench_function("hungarian_solver", |b| {
        b.iter(|| {
            let t = table3();
            assert_eq!(t.delta_4_ilp, 19);
            t
        })
    });
    group.bench_function("paper_ilp_solver", |b| {
        b.iter(|| {
            let t = table3_ilp();
            assert_eq!(t.delta_4_ilp, 19);
            t
        })
    });
    group.finish();
}

criterion_group!(tables, bench_table1, bench_table2, bench_table3);
criterion_main!(tables);
