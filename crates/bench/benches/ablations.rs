//! Ablation benches for the reproduction's departures from the paper:
//!
//! * A1 — the combinatorial solvers the analysis runs (clique
//!   branch-and-bound, Hungarian assignment) vs the paper's verbatim ILP
//!   formulations, their test reference, solved by the from-scratch
//!   branch-and-bound ILP engine: first on the paper's own example
//!   (Tables I–III recomputed from the Figure 1 DAGs, golden values
//!   asserted, so the bench doubles as a regression check on the
//!   reproduced numbers), then on generated DAGs;
//! * A2 — Algorithm 1 vs the exact reachability-complement parallel sets;
//! * the scenario-space extension.
//!
//! Each label prints the median time of one call.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rta_analysis::blocking::mu::mu_array;
use rta_analysis::blocking::paper_ilp::{blocking_from_mu_ilp, mu_array_ilp};
use rta_analysis::blocking::scenarios::blocking_from_mu;
use rta_analysis::{analyze, AnalysisConfig, Method, ScenarioSpace};
use rta_bench::measure;
use rta_experiments::tables::{table1, table1_ilp, table2, table3, table3_ilp};
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

fn main() {
    // A1 on the paper's example: Table I's µ arrays, Table II's scenarios
    // and Table III's ρ values.
    measure("table1_mu_arrays/clique_solver", 100, || {
        let t = table1();
        assert_eq!(t.mu[3], vec![5, 9, 12, 0]);
        t
    });
    measure("table1_mu_arrays/paper_ilp_solver", 1, || {
        let t = table1_ilp();
        assert_eq!(t.mu[3], vec![5, 9, 12, 0]);
        t
    });
    measure("table2_scenarios_e4", 1000, || {
        let t = table2();
        assert_eq!(t.pentagonal_count, 5);
        t
    });
    measure("table3_rho/hungarian_solver", 100, || {
        let t = table3();
        assert_eq!(t.delta_4_ilp, 19);
        t
    });
    measure("table3_rho/paper_ilp_solver", 1, || {
        let t = table3_ilp();
        assert_eq!(t.delta_4_ilp, 19);
        t
    });

    // A1a: µ computation, clique search vs paper ILP.
    let dags = sample_dags(8, 12);
    measure("ablation_mu_solver/clique", 100, || {
        dags.iter()
            .map(|d| mu_array(black_box(d), 4))
            .collect::<Vec<_>>()
    });
    measure("ablation_mu_solver/paper_ilp", 1, || {
        dags.iter()
            .map(|d| mu_array_ilp(black_box(d), 4))
            .collect::<Vec<_>>()
    });

    // A1b: Δ computation, Hungarian vs paper ILP, both scenario spaces.
    let mu: Vec<Vec<u64>> = sample_dags(6, 16).iter().map(|d| mu_array(d, 8)).collect();
    for space in [ScenarioSpace::PaperExact, ScenarioSpace::Extended] {
        measure(
            &format!("ablation_rho_solver/hungarian/{space:?}"),
            100,
            || blocking_from_mu(black_box(&mu), 8, space),
        );
        measure(
            &format!("ablation_rho_solver/paper_ilp/{space:?}"),
            1,
            || blocking_from_mu_ilp(black_box(&mu), 8, space),
        );
    }

    // A2: parallel-NPR sets, Algorithm 1 vs the exact closure complement.
    let dags = sample_dags(16, 30);
    measure("ablation_parallel_sets/algorithm1", 100, || {
        dags.iter()
            .map(|d| parallel_sets_algorithm1(black_box(d)))
            .collect::<Vec<_>>()
    });
    measure("ablation_parallel_sets/exact_closure", 100, || {
        dags.iter()
            .map(|d| parallel_sets_exact(black_box(d)))
            .collect::<Vec<_>>()
    });

    // The scenario-space choice, measured on whole analyses.
    let mut rng = SmallRng::seed_from_u64(99);
    let ts = generate_task_set(&mut rng, &group1(2.0));
    let baseline = AnalysisConfig::new(4, Method::LpIlp);
    measure("ablation_extensions/lp_ilp_baseline", 100, || {
        analyze(black_box(&ts), &baseline)
    });
    let paper_exact =
        AnalysisConfig::new(4, Method::LpIlp).with_scenario_space(ScenarioSpace::PaperExact);
    measure("ablation_extensions/lp_ilp_paper_exact_space", 100, || {
        analyze(black_box(&ts), &paper_exact)
    });
}
