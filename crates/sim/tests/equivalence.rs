//! Pins the event-driven core bit-identical to the frozen pre-redesign
//! engine, across all three preemption policies, the release models the
//! step loop knows and both execution models — statistics *and* trace
//! bytes.
//!
//! `rta_sim::step_loop::simulate_step_loop` is the original implementation
//! kept verbatim; `SimRequest::evaluate` runs the event core. Their
//! results must be indistinguishable: same per-task max responses, misses
//! and completion counts, same makespan, and the exact same trace event
//! sequence.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rta_model::{DagBuilder, DagTask, TaskSet, Time};
use rta_sim::step_loop::simulate_step_loop;
use rta_sim::{ExecutionModel, Jitter, PreemptionPolicy, Release, SimRequest, SimResult};
use rta_taskgen::{generate_task_set, group1};

const POLICIES: [PreemptionPolicy; 3] = [
    PreemptionPolicy::LimitedPreemptive,
    PreemptionPolicy::LazyPreemptive,
    PreemptionPolicy::FullyPreemptive,
];

/// The release models the step loop knows: synchronous, small jitter
/// (the validation campaign's "jitter" adversary) and period-scale jitter
/// ("sporadic").
const RELEASES: [Release; 3] = [
    Release::Synchronous,
    Release::Sporadic {
        jitter: Jitter::Uniform(7),
    },
    Release::Sporadic {
        jitter: Jitter::Uniform(401),
    },
];

const EXECUTIONS: [ExecutionModel; 2] = [
    ExecutionModel::Wcet,
    ExecutionModel::Randomized { fraction: 0.5 },
];

/// The event core's answer in the step loop's result shape.
fn event_core(ts: &TaskSet, request: &SimRequest) -> SimResult {
    request.evaluate(ts).into_result()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The full cross-product on random task sets: every (policy, release,
    /// execution) cell must agree on the complete `SimResult` — per-task
    /// stats, makespan and the trace.
    #[test]
    fn event_core_is_bit_identical_to_the_step_loop(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ts = generate_task_set(&mut rng, &group1(1.2));
        let horizon = ts.tasks().iter().map(|t| t.period()).max().unwrap_or(1) * 3;
        for policy in POLICIES {
            for release in &RELEASES {
                for execution in EXECUTIONS {
                    let request = SimRequest::new(3, horizon)
                        .with_policy(policy)
                        .with_release(release.clone())
                        .with_execution(execution)
                        .with_seed(seed ^ 0x5bd1_e995)
                        .with_trace(true);
                    let reference = simulate_step_loop(&ts, &request);
                    let redesigned = event_core(&ts, &request);
                    prop_assert_eq!(
                        &reference, &redesigned,
                        "divergence under {:?} / {:?} / {:?}",
                        policy, release, execution
                    );
                }
            }
        }
    }

    /// The slab never holds more slots than jobs ever released, and on
    /// draining runs the footprint is the *in-flight* peak, decoupled from
    /// the horizon.
    #[test]
    fn job_slab_footprint_is_bounded_by_in_flight_jobs(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let ts = generate_task_set(&mut rng, &group1(1.0));
        let horizon = ts.tasks().iter().map(|t| t.period()).max().unwrap_or(1) * 4;
        let outcome = SimRequest::new(4, horizon).evaluate(&ts);
        let released: u64 = outcome.per_task().iter().map(|s| s.jobs_released).sum();
        prop_assert!(outcome.peak_live_jobs() as u64 <= released);
    }
}

fn single(wcet: Time, period: Time) -> DagTask {
    let mut b = DagBuilder::new();
    b.add_node(wcet);
    DagTask::with_implicit_deadline(b.build().unwrap(), period).unwrap()
}

/// Hand-computed tie-break pinning. One core, hp = (2, T10), lp = (8,
/// T100), horizon 20: the lp job finishes at exactly t = 10, the same
/// instant hp's second job is released. The hp release event was scheduled
/// at t = 0 (tie 3) — *before* the lp completion was scheduled at t = 2
/// (tie 5) — so FIFO tie-breaking must pop the release first, and the
/// trace at t = 10 must read Release(τ0), Finish(τ1), JobComplete(τ1),
/// Start(τ0), identically in both engines.
#[test]
fn simultaneous_events_pop_in_scheduling_order() {
    use rta_sim::TraceEventKind as K;
    let ts = TaskSet::new(vec![single(2, 10), single(8, 100)]);
    let request = SimRequest::new(1, 20).with_trace(true);
    let reference = simulate_step_loop(&ts, &request);
    let redesigned = event_core(&ts, &request);
    assert_eq!(reference, redesigned);

    let trace = redesigned.trace.as_ref().expect("trace enabled");
    let at_ten: Vec<(K, usize)> = trace
        .events()
        .iter()
        .filter(|e| e.time == 10)
        .map(|e| (e.kind, e.task))
        .collect();
    assert_eq!(
        at_ten,
        vec![
            (K::Release, 0),
            (K::Finish, 1),
            (K::JobComplete, 1),
            (K::Start, 0),
        ],
        "tie-break order at the t = 10 instant"
    );
    // And the schedule the ordering produces: hp job 2 runs 10–12.
    assert_eq!(redesigned.per_task[0].max_response, 2);
    assert_eq!(redesigned.makespan, 12);
}

/// The same instant-drain pinning under the fully-preemptive policy, where
/// a release and a completion coincide and the preemption pass runs after
/// the drain: no divergence is tolerated.
#[test]
fn simultaneous_events_agree_under_full_preemption() {
    let ts = TaskSet::new(vec![single(2, 10), single(8, 100), single(5, 50)]);
    for cores in [1, 2] {
        let request = SimRequest::new(cores, 40)
            .with_policy(PreemptionPolicy::FullyPreemptive)
            .with_trace(true);
        assert_eq!(simulate_step_loop(&ts, &request), event_core(&ts, &request));
    }
}
