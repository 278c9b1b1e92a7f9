//! The unified simulation request API.
//!
//! [`SimRequest`] is the single entry point of the simulator, mirroring
//! `rta_core::AnalysisRequest` on the analysis side: a builder-style value
//! describing *everything* one run needs — platform (cores), horizon,
//! preemption policy, release scenario, execution model, seed and tracing
//! — resolved by [`SimRequest::evaluate`] into a [`SimOutcome`].

use crate::config::{ExecutionModel, PreemptionPolicy};
use crate::scenario::Release;
use crate::stats::{SimResult, TaskStats};
use crate::trace::Trace;
use rta_model::{TaskSet, Time};

/// Everything one simulation run needs, as a buildable value.
///
/// # Example
///
/// ```
/// use rta_sim::{Jitter, PreemptionPolicy, Release, SimRequest};
/// use rta_model::examples::figure1_task_set;
///
/// let outcome = SimRequest::new(4, 10_000)
///     .with_policy(PreemptionPolicy::LimitedPreemptive)
///     .with_release(Release::Sporadic {
///         jitter: Jitter::PeriodFraction { percent: 10 },
///     })
///     .with_seed(7)
///     .evaluate(&figure1_task_set());
/// assert_eq!(outcome.total_deadline_misses(), 0);
/// assert!(outcome.per_task()[0].jobs_completed > 0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct SimRequest {
    /// Number of identical cores.
    pub cores: usize,
    /// Jobs are released strictly before this time; the run then drains
    /// until every released job finishes.
    pub horizon: Time,
    /// Preemption policy.
    pub policy: PreemptionPolicy,
    /// Release scenario (per-task jitter is first-class here — see
    /// [`crate::scenario::Jitter`]).
    pub release: Release,
    /// Execution-time model.
    pub execution: ExecutionModel,
    /// RNG seed for the randomized models.
    pub seed: u64,
    /// Record a full execution trace (bounded; see [`Trace`]).
    pub record_trace: bool,
}

impl SimRequest {
    /// Creates a request with the default models: eager limited
    /// preemption, synchronous periodic releases, WCET execution, seed 0,
    /// no trace.
    ///
    /// # Panics
    ///
    /// Panics if `cores == 0` or `horizon == 0`.
    pub fn new(cores: usize, horizon: Time) -> Self {
        assert!(cores >= 1, "at least one core required");
        assert!(horizon >= 1, "horizon must be positive");
        Self {
            cores,
            horizon,
            policy: PreemptionPolicy::default(),
            release: Release::default(),
            execution: ExecutionModel::default(),
            seed: 0,
            record_trace: false,
        }
    }

    /// Sets the preemption policy.
    #[must_use]
    pub fn with_policy(mut self, policy: PreemptionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the release scenario.
    #[must_use]
    pub fn with_release(mut self, release: Release) -> Self {
        self.release = release;
        self
    }

    /// Sets the execution-time model.
    #[must_use]
    pub fn with_execution(mut self, execution: ExecutionModel) -> Self {
        self.execution = execution;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables or disables trace recording.
    #[must_use]
    pub fn with_trace(mut self, record: bool) -> Self {
        self.record_trace = record;
        self
    }

    /// Runs the simulation.
    ///
    /// # Panics
    ///
    /// Panics on an execution fraction outside `(0, 1]`.
    pub fn evaluate(&self, task_set: &TaskSet) -> SimOutcome {
        crate::engine::run(task_set, self)
    }
}

/// What one simulation run produced: the classic [`SimResult`] plus the
/// event core's own observability.
#[derive(Clone, Debug, PartialEq)]
pub struct SimOutcome {
    result: SimResult,
    trace_dropped: u64,
    deferred_preemptions: u64,
    events_processed: u64,
    peak_live_jobs: usize,
    heap_high_water: usize,
}

impl SimOutcome {
    pub(crate) fn new(
        result: SimResult,
        trace_dropped: u64,
        deferred_preemptions: u64,
        events_processed: u64,
        peak_live_jobs: usize,
        heap_high_water: usize,
    ) -> Self {
        Self {
            result,
            trace_dropped,
            deferred_preemptions,
            events_processed,
            peak_live_jobs,
            heap_high_water,
        }
    }

    /// The statistics (and trace, if recorded), by reference.
    pub fn result(&self) -> &SimResult {
        &self.result
    }

    /// Consumes the outcome into its [`SimResult`] — the shape the frozen
    /// step loop returns.
    pub fn into_result(self) -> SimResult {
        self.result
    }

    /// Statistics per task, indexed by priority.
    pub fn per_task(&self) -> &[TaskStats] {
        &self.result.per_task
    }

    /// The instant the last event was processed.
    pub fn makespan(&self) -> Time {
        self.result.makespan
    }

    /// The recorded trace, when tracing was enabled.
    pub fn trace(&self) -> Option<&Trace> {
        self.result.trace.as_ref()
    }

    /// Largest observed response time of task `k`.
    pub fn max_response(&self, k: usize) -> Time {
        self.result.max_response(k)
    }

    /// Total deadline misses across all tasks.
    pub fn total_deadline_misses(&self) -> u64 {
        self.result.total_deadline_misses()
    }

    /// `true` when no job missed its deadline.
    pub fn all_deadlines_met(&self) -> bool {
        self.result.all_deadlines_met()
    }

    /// Number of trace events silently discarded after the bounded trace
    /// reached capacity — `0` when tracing was off or nothing was lost.
    /// A nonzero value means the trace is *truncated*: renderings of it
    /// (counterexample Gantt charts in particular) are missing the tail.
    pub fn trace_dropped(&self) -> u64 {
        self.trace_dropped
    }

    /// Number of lazy continuation claims honoured — preemptions deferred
    /// to the lowest-priority victim's next node boundary. Always `0`
    /// under the eager and fully-preemptive policies.
    pub fn deferred_preemptions(&self) -> u64 {
        self.deferred_preemptions
    }

    /// Total events the core processed (releases, completions, boundary
    /// markers).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Peak number of simultaneously in-flight jobs — the job slab's high
    /// water mark, and the simulator's memory footprint driver (the frozen
    /// step loop's footprint grows with jobs *ever released* instead).
    pub fn peak_live_jobs(&self) -> usize {
        self.peak_live_jobs
    }

    /// Largest number of events ever pending in the queue at once — the
    /// other half of the memory footprint (see
    /// [`peak_live_jobs`](Self::peak_live_jobs)).
    pub fn heap_high_water(&self) -> usize {
        self.heap_high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Jitter;
    use rta_model::{DagBuilder, DagTask};

    fn single(wcet: Time, period: Time) -> DagTask {
        let mut b = DagBuilder::new();
        b.add_node(wcet);
        DagTask::with_implicit_deadline(b.build().unwrap(), period).unwrap()
    }

    #[test]
    fn builder_roundtrip() {
        let r = SimRequest::new(4, 1000)
            .with_policy(PreemptionPolicy::FullyPreemptive)
            .with_release(Release::Sporadic {
                jitter: Jitter::Uniform(3),
            })
            .with_execution(ExecutionModel::Randomized { fraction: 0.9 })
            .with_seed(99)
            .with_trace(true);
        assert_eq!(r.policy, PreemptionPolicy::FullyPreemptive);
        assert_eq!(
            r.release,
            Release::Sporadic {
                jitter: Jitter::Uniform(3)
            }
        );
        assert_eq!(r.seed, 99);
        assert!(r.record_trace);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_cores_panics() {
        let _ = SimRequest::new(0, 100);
    }

    #[test]
    #[should_panic(expected = "horizon must be positive")]
    fn zero_horizon_panics() {
        let _ = SimRequest::new(1, 0);
    }

    #[test]
    fn outcome_accessors_agree_with_the_result() {
        let ts = TaskSet::new(vec![single(2, 10), single(3, 10)]);
        let out = SimRequest::new(1, 40).with_trace(true).evaluate(&ts);
        assert_eq!(out.max_response(0), out.result().per_task[0].max_response);
        assert_eq!(
            out.total_deadline_misses(),
            out.result().total_deadline_misses()
        );
        assert_eq!(out.makespan(), out.result().makespan);
        assert!(out.trace().is_some());
        assert_eq!(out.trace_dropped(), 0);
        assert!(out.events_processed() > 0);
        assert!(out.peak_live_jobs() >= 1);
        let result = out.clone().into_result();
        assert_eq!(&result, out.result());
    }

    #[test]
    fn truncated_traces_are_surfaced() {
        // 100 jobs × (release + start + finish + complete) ≫ capacity 8 is
        // impossible to tune here (capacity is fixed), so drive the default
        // capacity over with a long dense run.
        let ts = TaskSet::new(vec![single(1, 2)]);
        let out = SimRequest::new(1, 2 * (Trace::DEFAULT_CAPACITY as Time))
            .with_trace(true)
            .evaluate(&ts);
        assert!(out.trace_dropped() > 0, "expected a truncated trace");
    }
}
