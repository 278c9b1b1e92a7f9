//! The verdict fast path's contract: a verdict-only [`AnalysisRequest`]
//! must agree with the `schedulable` flags of the uncached reference
//! [`analyze_uncached`] on every input — the dominance shortcut (FP-ideal ≼
//! LP-ILP ≼ LP-max) is an optimization, never an approximation. The
//! bound-carrying shape is pinned to the same oracle. Also pins the
//! process-global partition table's once-per-`m` property from the
//! analysis layer's point of view.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rta_analysis::{analyze_uncached, AnalysisRequest, Method, ResponseBound, ScenarioSpace};
use rta_combinatorics::PartitionTable;
use rta_model::examples::figure1_task_set;
use rta_model::TaskSet;
use rta_taskgen::{generate_task_set, group1, group2};

/// The uncached reference's verdict for every method `request` asks for,
/// in request order.
fn reference_verdicts(ts: &TaskSet, request: &AnalysisRequest) -> Vec<bool> {
    request
        .methods
        .iter()
        .map(|&m| analyze_uncached(ts, &request.config_for(m)).schedulable)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Verdicts equal the reference's schedulability on random group-1
    /// sets, across core counts, utilizations and both scenario spaces.
    #[test]
    fn verdicts_match_full_reports_on_random_sets(
        seed in 0u64..1_000_000,
        cores in 1usize..=6,
        load_percent in 10u32..=110,
    ) {
        let target = cores as f64 * load_percent as f64 / 100.0;
        let mut rng = SmallRng::seed_from_u64(seed);
        let ts = generate_task_set(&mut rng, &group1(target));
        for space in [ScenarioSpace::PaperExact, ScenarioSpace::Extended] {
            let request = AnalysisRequest::new(cores).with_scenario_space(space);
            prop_assert_eq!(
                request.evaluate(&ts).verdicts(),
                reference_verdicts(&ts, &request),
                "seed {} cores {} {:?}",
                seed,
                cores,
                space
            );
        }
    }

    /// Same agreement on group-2 sets (uniformly parallel DAGs), whose
    /// heavier µ structure stresses the LP-ILP-only leg of the shortcut.
    #[test]
    fn verdicts_match_on_group2_sets(
        seed in 0u64..1_000_000,
        cores in 2usize..=4,
        load_percent in 30u32..=100,
    ) {
        let target = cores as f64 * load_percent as f64 / 100.0;
        let mut rng = SmallRng::seed_from_u64(seed);
        let ts = generate_task_set(&mut rng, &group2(target));
        let request = AnalysisRequest::new(cores).with_scenario_space(ScenarioSpace::PaperExact);
        prop_assert_eq!(request.evaluate(&ts).verdicts(), reference_verdicts(&ts, &request));
    }

    /// The bound-carrying shape is pinned to the reference on every field
    /// the validation campaign reads: the verdict flag and the per-task
    /// response bounds of the analyzed prefix (length included — it must
    /// stop at the same first unschedulable task).
    #[test]
    fn bounds_match_uncached_reports_on_random_sets(
        seed in 0u64..1_000_000,
        cores in 1usize..=6,
        load_percent in 10u32..=110,
    ) {
        let target = cores as f64 * load_percent as f64 / 100.0;
        let mut rng = SmallRng::seed_from_u64(seed);
        let ts = generate_task_set(&mut rng, &group1(target));
        for space in [ScenarioSpace::PaperExact, ScenarioSpace::Extended] {
            let request = AnalysisRequest::new(cores)
                .with_scenario_space(space)
                .with_bounds(true);
            let outcome = request.evaluate(&ts);
            prop_assert_eq!(outcome.outcomes().len(), request.methods.len());
            for answer in outcome.outcomes() {
                let report = analyze_uncached(&ts, &request.config_for(answer.method));
                prop_assert_eq!(answer.schedulable, report.schedulable,
                    "seed {} cores {} {:?}", seed, cores, space);
                let expected: Vec<ResponseBound> =
                    report.tasks.iter().map(|t| t.response_bound).collect();
                prop_assert_eq!(answer.bounds.as_ref(), Some(&expected),
                    "seed {} cores {} {:?}", seed, cores, space);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The new dominance edge used by the verdict shortcut, stated on the
    /// bounds themselves: per task, FP-ideal's bound never exceeds
    /// LP-sound's (the sound method adds a non-negative monotone term to
    /// the same fixed point), hence LP-sound schedulable ⇒ FP-ideal
    /// schedulable on every random set.
    #[test]
    fn lp_sound_bounds_dominate_fp_ideal(
        seed in 0u64..1_000_000,
        cores in 1usize..=6,
        load_percent in 10u32..=110,
    ) {
        let target = cores as f64 * load_percent as f64 / 100.0;
        let mut rng = SmallRng::seed_from_u64(seed);
        let ts = generate_task_set(&mut rng, &group1(target));
        let outcome = AnalysisRequest::new(cores)
            .with_methods([Method::FpIdeal, Method::LpSound])
            .with_bounds(true)
            .evaluate(&ts);
        let [fp, sound] = outcome.outcomes() else {
            panic!("two outcomes expected");
        };
        prop_assert!(
            !sound.schedulable || fp.schedulable,
            "seed {}: LP-sound accepted a set FP-ideal rejects",
            seed
        );
        let fp_bounds = fp.bounds.as_ref().expect("bounds requested");
        let sound_bounds = sound.bounds.as_ref().expect("bounds requested");
        for (k, (f, s)) in fp_bounds.iter().zip(sound_bounds).enumerate() {
            // Compare converged bounds only: a diverged entry is the first
            // deadline-crossing iterate, not a bound.
            if k + 1 == fp_bounds.len() && !fp.schedulable {
                break;
            }
            if k + 1 == sound_bounds.len() && !sound.schedulable {
                break;
            }
            prop_assert!(
                f.scaled() <= s.scaled(),
                "seed {} task {}: FP {} above LP-sound {}",
                seed,
                k,
                f,
                s
            );
        }
    }
}

#[test]
fn verdicts_match_across_core_counts_and_scenario_spaces() {
    // Requests on different platforms and under both scenario spaces, each
    // against the uncached reference.
    let ts = figure1_task_set();
    let mut requests: Vec<AnalysisRequest> =
        [2usize, 4].into_iter().map(AnalysisRequest::new).collect();
    requests.push(AnalysisRequest::new(4).with_scenario_space(ScenarioSpace::PaperExact));
    for request in &requests {
        assert_eq!(
            request.evaluate(&ts).verdicts(),
            reference_verdicts(&ts, request),
            "{request:?}"
        );
    }
}

#[test]
fn partition_enumeration_happens_once_per_m_per_process() {
    // Warm every cardinality any test in this binary can touch, so the
    // counter below cannot be bumped by concurrent first-touches.
    for m in 0..=31u32 {
        let _ = PartitionTable::scenarios(m);
    }
    let before = PartitionTable::enumerations();
    // Dozens of task sets, each with its own cache, analyzed at several
    // platform sizes: under the old per-cache scenario cells this would
    // have re-enumerated partitions per task set; the global table must
    // perform zero further enumerations.
    for seed in 0..24u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ts = generate_task_set(&mut rng, &group1(3.0));
        for cores in [2usize, 4, 6] {
            let request =
                AnalysisRequest::new(cores).with_scenario_space(ScenarioSpace::PaperExact);
            let _ = request.evaluate(&ts);
            let _ = request.with_bounds(true).evaluate(&ts);
        }
    }
    assert_eq!(
        PartitionTable::enumerations(),
        before,
        "scenario lists must come from the process-global table, \
         enumerated at most once per m per process"
    );
}
