//! Property tests over generated workloads, including the check that the
//! paper's Algorithm 1 equals the exact parallel sets on the fork-join
//! class the generator produces (see `rta_model::parallel`), and the generator-invariant
//! pins of the streaming campaign engine: configured structural limits
//! (`max_width`, `max_path_nodes`, `max_nodes`, WCET range), period-model
//! utilization tolerance, and bit-identity of scratch-reusing streaming
//! generation with the original allocate-per-call path.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rta_model::{parallel_sets_algorithm1, parallel_sets_exact};
use rta_taskgen::{
    chain_mix, generate_dag, generate_sequential_dag, generate_task_set,
    generate_task_set_with_count, group1, group2, DagGenConfig, PeriodModel, TaskSetGenerator,
};

proptest! {
    /// On the nested fork-join class the paper's Algorithm 1 must agree
    /// exactly with the reachability-based definition of parallel NPRs.
    #[test]
    fn algorithm1_equals_exact_on_fork_join_dags(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let dag = generate_dag(&mut rng, &DagGenConfig::default());
        prop_assert_eq!(parallel_sets_algorithm1(&dag), parallel_sets_exact(&dag));
    }

    #[test]
    fn algorithm1_equals_exact_on_chains(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let dag = generate_sequential_dag(&mut rng, &DagGenConfig::default());
        prop_assert_eq!(parallel_sets_algorithm1(&dag), parallel_sets_exact(&dag));
    }

    /// Structural invariants of generated DAGs (the paper's generator
    /// parameters).
    #[test]
    fn generated_dags_respect_paper_limits(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let config = DagGenConfig::default();
        let dag = generate_dag(&mut rng, &config);
        prop_assert!(dag.node_count() <= 30);
        prop_assert!(dag.longest_path_node_count() <= 7);
        prop_assert!(dag.wcets().iter().all(|&w| (1..=100).contains(&w)));
        prop_assert!(dag.volume() >= dag.longest_path());
        prop_assert!(dag.longest_path() >= dag.max_wcet());
    }

    /// Task sets land on their utilization target — or on the documented
    /// per-task-cap saturation value `n/min_slack` — and are well-formed.
    #[test]
    fn task_sets_hit_target(seed in any::<u64>(), target_times_4 in 2u32..40) {
        let target = f64::from(target_times_4) / 4.0;
        let mut rng = SmallRng::seed_from_u64(seed);
        for config in [group1(target), group2(target)] {
            let ts = generate_task_set(&mut rng, &config);
            let u = ts.total_utilization();
            let saturation = ts.len() as f64 / 2.0; // n · (1/min_slack), min_slack = 2
            let expected = target.min(saturation);
            prop_assert!(
                (u - expected).abs() < 0.05 * expected + 0.05,
                "target {} (expected {}) got {}", target, expected, u
            );
            for t in ts.tasks() {
                prop_assert!(t.deadline() == t.period());
                prop_assert!(t.period() >= t.dag().longest_path());
            }
        }
    }

    /// Every configured structural limit holds on arbitrary (valid)
    /// generator knobs, not just the paper presets: node budget, per-path
    /// node budget, WCET range, and — the one the fork-width splitter must
    /// actively enforce — the global antichain width `max_width`.
    #[test]
    fn configured_limits_hold_on_arbitrary_knobs(
        seed in any::<u64>(),
        max_branches in 2usize..=6,
        max_width in 2usize..=6,
        max_path_nodes in 3usize..=9,
        max_nodes in 4usize..=40,
        wcet_lo in 1u64..=40,
        wcet_span in 0u64..=80,
        p_term_percent in 0u32..=100,
        nested in any::<bool>(),
    ) {
        let config = DagGenConfig {
            p_term: f64::from(p_term_percent) / 100.0,
            max_branches,
            max_path_nodes,
            max_nodes,
            wcet_range: (wcet_lo, wcet_lo + wcet_span),
            force_root_fork: false,
            min_chain_nodes: 1,
            max_width,
            nested_forks: nested,
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let dag = generate_dag(&mut rng, &config);
        prop_assert!(dag.node_count() <= max_nodes, "nodes {}", dag.node_count());
        prop_assert!(
            dag.longest_path_node_count() <= max_path_nodes,
            "path {}", dag.longest_path_node_count()
        );
        prop_assert!(dag
            .wcets()
            .iter()
            .all(|&w| (wcet_lo..=wcet_lo + wcet_span).contains(&w)));
        prop_assert!(
            dag.max_parallelism() <= max_width,
            "width {} > {}", dag.max_parallelism(), max_width
        );
    }

    /// The [`PeriodModel`] implementations land within their documented
    /// utilization tolerance for low (unsaturated) targets.
    #[test]
    fn period_models_land_within_tolerance(
        seed in any::<u64>(),
        target_times_4 in 4u32..=12,
        model_choice in 0usize..3,
    ) {
        let target = f64::from(target_times_4) / 4.0;
        let mut config = group1(target);
        config.period_model = match model_choice {
            0 => PeriodModel::SlackFactor {
                min_slack: 2.0,
                max_slack: 10.0,
                tasks_per_utilization: 1.5,
            },
            1 => PeriodModel::CommonScale { spread: 2.0 },
            _ => PeriodModel::PerTaskUtilization { max: 1.0 },
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let ts = generate_task_set(&mut rng, &config);
        let u = ts.total_utilization();
        // Integer-rounded periods of small DAGs cost at most a few percent;
        // the saturation bound n/min_slack applies to the slack model only.
        let expected = if model_choice == 0 {
            target.min(ts.len() as f64 / 2.0)
        } else {
            target
        };
        prop_assert!(
            (u - expected).abs() < 0.08 * expected + 0.08,
            "model {} target {} got {}", model_choice, target, u
        );
    }

    /// Streaming generation — one scratch-reusing [`TaskSetGenerator`] fed
    /// many coordinates — is bit-identical to the original two-phase path
    /// that allocates a fresh generator per set, for every preset the
    /// campaign engine uses.
    #[test]
    fn streaming_generation_is_bit_identical_to_two_phase(
        base_seed in any::<u64>(),
        target_times_4 in 2u32..=20,
    ) {
        let target = f64::from(target_times_4) / 4.0;
        let mut generator = TaskSetGenerator::new();
        let configs = [
            group1(target),
            group2(target),
            chain_mix(target, 0.5),
            group1(target).with_deadline_factor(0.75),
        ];
        // Interleave presets through ONE generator, as a worker thread of a
        // multi-panel campaign would, and replay each against the free
        // functions.
        for (i, config) in configs.iter().enumerate() {
            let seed = base_seed.wrapping_add(i as u64);
            let streamed = generator.generate(&mut SmallRng::seed_from_u64(seed), config);
            let two_phase = generate_task_set(&mut SmallRng::seed_from_u64(seed), config);
            prop_assert_eq!(streamed, two_phase, "preset {}", i);
            let n = 2 + (i % 3);
            let streamed_n =
                generator.generate_with_count(&mut SmallRng::seed_from_u64(seed), config, n);
            let two_phase_n =
                generate_task_set_with_count(&mut SmallRng::seed_from_u64(seed), config, n);
            prop_assert_eq!(streamed_n, two_phase_n, "preset {} n {}", i, n);
        }
    }
}
