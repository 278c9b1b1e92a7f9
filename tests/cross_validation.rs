//! Cross-crate property tests: independent implementations must agree, and
//! structural dominance relations must hold on random workloads.

use dag_lp_rta::analysis::blocking::lpmax::lp_max_blocking;
use dag_lp_rta::analysis::blocking::mu::mu_array;
use dag_lp_rta::analysis::blocking::paper_ilp::{mu_array_ilp, rho_ilp};
use dag_lp_rta::analysis::blocking::scenarios::{blocking_from_mu, rho};
use dag_lp_rta::combinatorics::partitions;
use dag_lp_rta::prelude::*;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rta_taskgen::{generate_dag, DagGenConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// µ via clique search equals µ via the paper's ILP on random DAGs.
    #[test]
    fn mu_solvers_agree(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let config = DagGenConfig { max_nodes: 14, ..DagGenConfig::default() };
        let dag = generate_dag(&mut rng, &config);
        for cores in [1usize, 2, 4] {
            prop_assert_eq!(mu_array(&dag, cores), mu_array_ilp(&dag, cores), "m = {}", cores);
        }
    }

    /// ρ via Hungarian equals ρ via the paper's ILP on every scenario that
    /// pins its core-count multiset (all partitions of m ≤ 5 do).
    #[test]
    fn rho_solvers_agree(seed in any::<u64>(), n_tasks in 1usize..5) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let config = DagGenConfig { max_nodes: 10, ..DagGenConfig::default() };
        let mu: Vec<Vec<u64>> = (0..n_tasks)
            .map(|_| mu_array(&generate_dag(&mut rng, &config), 4))
            .collect();
        for scenario in partitions(4) {
            prop_assert_eq!(rho(&mu, &scenario), rho_ilp(&mu, &scenario), "scenario {}", scenario);
        }
    }

    /// Δ dominance: LP-ILP never exceeds LP-max, and the extended scenario
    /// space never falls below the paper's exact space.
    #[test]
    fn blocking_dominance(seed in any::<u64>(), n_tasks in 1usize..6, cores in 2usize..9) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let tasks: Vec<DagTask> = (0..n_tasks)
            .map(|_| {
                let dag = generate_dag(&mut rng, &DagGenConfig::default());
                DagTask::with_implicit_deadline(dag, 1_000_000).expect("valid")
            })
            .collect();
        let mu: Vec<Vec<u64>> = tasks
            .iter()
            .map(|t| mu_array(t.dag(), cores))
            .collect();
        let exact = blocking_from_mu(&mu, cores, ScenarioSpace::PaperExact);
        let extended = blocking_from_mu(&mu, cores, ScenarioSpace::Extended);
        let lpmax = lp_max_blocking(&tasks, cores);
        prop_assert!(exact.delta_m <= extended.delta_m);
        prop_assert!(exact.delta_m_minus_one <= extended.delta_m_minus_one);
        prop_assert!(extended.delta_m <= lpmax.delta_m);
        prop_assert!(extended.delta_m_minus_one <= lpmax.delta_m_minus_one);
    }

    /// Method dominance through the full analysis: per-task response-time
    /// bounds order as FP-ideal ≤ LP-ILP ≤ LP-max on the analyzed prefix.
    #[test]
    fn response_bound_dominance(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ts = rta_taskgen::generate_task_set(&mut rng, &group1(1.5));
        let fp = analyze(&ts, &AnalysisConfig::new(4, Method::FpIdeal));
        let ilp = analyze(&ts, &AnalysisConfig::new(4, Method::LpIlp));
        let max = analyze(&ts, &AnalysisConfig::new(4, Method::LpMax));
        let n = fp.tasks.len().min(ilp.tasks.len()).min(max.tasks.len());
        for k in 0..n {
            prop_assert!(fp.tasks[k].response_bound.scaled() <= ilp.tasks[k].response_bound.scaled());
            prop_assert!(ilp.tasks[k].response_bound.scaled() <= max.tasks[k].response_bound.scaled());
        }
        // Schedulability verdicts order the same way.
        prop_assert!(!max.schedulable || ilp.schedulable);
        prop_assert!(!ilp.schedulable || fp.schedulable);
    }

    /// More cores never hurt: the response bound is non-increasing in m for
    /// FP-ideal (blocking-free). (The LP variants are not monotone in m by
    /// construction — Δ grows with m — so no such law is asserted there.)
    #[test]
    fn fp_bound_monotone_in_cores(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ts = rta_taskgen::generate_task_set(&mut rng, &group1(1.0));
        let mut last: Option<u128> = None;
        for cores in [2usize, 4, 8] {
            let report = analyze(&ts, &AnalysisConfig::new(cores, Method::FpIdeal));
            if !report.schedulable { return Ok(()); }
            // Compare exactly via a common denominator (scaled values use
            // different cores): R = scaled/m → compare scaled·m'.
            let bound = report.tasks.last().unwrap().response_bound;
            let value = bound.scaled() * (8 / cores as u128);
            if let Some(prev) = last {
                prop_assert!(value <= prev, "m = {}: {} > {}", cores, value, prev);
            }
            last = Some(value);
        }
    }
}
