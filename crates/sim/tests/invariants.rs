//! Simulator invariants on random workloads: work conservation, causality
//! and policy sanity — exercised through the unified request API.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rta_model::Time;
use rta_sim::{ExecutionModel, Jitter, PreemptionPolicy, Release, SimRequest, TraceEventKind};
use rta_taskgen::{generate_task_set, group1};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Work conservation: the busy time painted on all cores equals the
    /// total executed work (every released job completes and each node
    /// runs for exactly its WCET under the default execution model).
    #[test]
    fn busy_time_equals_total_work(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ts = generate_task_set(&mut rng, &group1(1.5));
        let horizon = ts.tasks().iter().map(|t| t.period()).max().unwrap_or(1) * 4;
        let outcome = SimRequest::new(4, horizon).with_trace(true).evaluate(&ts);
        prop_assume!(outcome.trace_dropped() == 0);
        let trace = outcome.trace().expect("trace enabled");

        // Busy time from Start/Finish pairs per core.
        let mut started: Vec<Option<Time>> = vec![None; 4];
        let mut busy: u128 = 0;
        for e in trace.events() {
            match e.kind {
                TraceEventKind::Start => started[e.core] = Some(e.time),
                TraceEventKind::Finish => {
                    let s = started[e.core].take().expect("finish without start");
                    busy += (e.time - s) as u128;
                }
                _ => {}
            }
        }
        // Total work: every released job executes its full volume.
        let expected: u128 = outcome
            .per_task()
            .iter()
            .enumerate()
            .map(|(k, stats)| stats.jobs_completed as u128 * ts.task(k).dag().volume() as u128)
            .sum();
        prop_assert_eq!(busy, expected);
        // Everything released was completed (the run drains).
        for stats in outcome.per_task() {
            prop_assert_eq!(stats.jobs_released, stats.jobs_completed);
        }
    }

    /// Precedence causality: within a job, a node never starts before all
    /// of its predecessors have finished.
    #[test]
    fn nodes_respect_precedence(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ts = generate_task_set(&mut rng, &group1(1.0));
        let horizon = ts.tasks().iter().map(|t| t.period()).max().unwrap_or(1) * 3;
        let outcome = SimRequest::new(4, horizon).with_trace(true).evaluate(&ts);
        prop_assume!(outcome.trace_dropped() == 0);
        let trace = outcome.trace().expect("trace enabled");

        use std::collections::BTreeMap;
        let mut finish: BTreeMap<(usize, u64, usize), Time> = BTreeMap::new();
        for e in trace.events() {
            if e.kind == TraceEventKind::Finish {
                finish.insert((e.task, e.job, e.node), e.time);
            }
        }
        for e in trace.events() {
            if e.kind == TraceEventKind::Start {
                let dag = ts.task(e.task).dag();
                for p in dag.predecessors(rta_model::NodeId::new(e.node)).iter() {
                    let pf = finish
                        .get(&(e.task, e.job, p))
                        .expect("predecessor finished (run drained)");
                    prop_assert!(
                        *pf <= e.time,
                        "node {} of τ{} job {} started at {} before pred {} finished at {}",
                        e.node, e.task, e.job, e.time, p, pf
                    );
                }
            }
        }
    }

    /// The fully preemptive policy never yields a *larger* max response for
    /// the highest-priority task than limited preemption (it can only be
    /// blocked less).
    #[test]
    fn fp_never_hurts_top_task(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ts = generate_task_set(&mut rng, &group1(1.5));
        let horizon = ts.tasks().iter().map(|t| t.period()).max().unwrap_or(1) * 4;
        let lp = SimRequest::new(4, horizon).evaluate(&ts);
        let fp = SimRequest::new(4, horizon)
            .with_policy(PreemptionPolicy::FullyPreemptive)
            .evaluate(&ts);
        prop_assert!(fp.per_task()[0].max_response <= lp.per_task()[0].max_response);
    }

    /// Determinism of the full simulation (the request includes the seed),
    /// across the scenario generators that draw from the RNG.
    #[test]
    fn simulation_is_deterministic(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ts = generate_task_set(&mut rng, &group1(1.0));
        let request = SimRequest::new(2, 5_000)
            .with_release(Release::Sporadic { jitter: Jitter::PeriodFraction { percent: 10 } })
            .with_execution(ExecutionModel::Randomized { fraction: 0.4 })
            .with_seed(seed);
        prop_assert_eq!(request.evaluate(&ts), request.evaluate(&ts));
    }
}
