//! Discrete-event simulation of global fixed-priority multicore scheduling
//! of DAG tasks.
//!
//! The analysis of Serrano et al. (DATE 2016) produces response-time *upper
//! bounds*; this crate provides the executable counterpart — a cycle-exact
//! scheduler simulator — so the bounds can be validated empirically:
//! simulated response times must never exceed the analytical bounds of a
//! schedulable configuration.
//!
//! # Architecture
//!
//! The simulator is a discrete-event core in four layers:
//!
//! * [`event`] — the event queue, a std `BinaryHeap`: releases, node
//!   completions and preemption-boundary markers, totally ordered by
//!   `(time, insertion tie)` for bit-exact determinism;
//! * [`topology`] — the task set flattened once per run into CSR successor
//!   lists, predecessor counts and WCET arrays, plus the free-list job
//!   slab that keeps memory proportional to *in-flight* jobs (horizons can
//!   grow orders of magnitude without the footprint following);
//! * [`scenario`] — release models ([`Release`]: synchronous, or sporadic
//!   with per-task [`Jitter`]) as event *generators* plugged into the
//!   queue, not branches inside the scheduling loop;
//! * [`engine`] — the policy state machine that drains each instant and
//!   fills cores.
//!
//! The single entry point is [`SimRequest`] (mirroring
//! `rta_core::AnalysisRequest` on the analysis side), resolved by
//! [`SimRequest::evaluate`] into a [`SimOutcome`]. The equivalence
//! proptests in `tests/equivalence.rs` pin it bit-identical — same
//! [`SimResult`] statistics, same trace bytes — to the frozen
//! pre-redesign engine (`step_loop`) across all three preemption
//! policies, the release models that engine knows and both execution
//! models.
//!
//! That validation actually runs, at campaign scale, in
//! `rta_experiments::validate` (the `repro validate` CLI command): every
//! generated task set is analyzed with per-task bounds (a bound-carrying
//! `rta_analysis::AnalysisRequest`) *and* simulated under the
//! eager- and lazy-limited-preemptive and the fully-preemptive policies,
//! and the soundness invariants — an accepted set shows zero deadline
//! misses, per-task [`TaskStats::max_response`] never exceeds the bound,
//! the fully-preemptive baseline cross-checks FP-ideal — are asserted on
//! hundreds of sets per sweep point. The per-task statistics
//! ([`SimOutcome::per_task`]) are always collected; the execution trace is
//! opt-in ([`SimRequest::with_trace`], off by default) and bounded, with
//! truncation surfaced through [`SimOutcome::trace_dropped`], so
//! campaign-scale simulation pays nothing for it.
//!
//! Three preemption policies are implemented (see
//! [`PreemptionPolicy`]):
//!
//! * **limited preemptive (eager)** — the paper's model: every DAG node is
//!   a non-preemptive region; scheduling decisions happen only at node
//!   boundaries and job releases, with *eager* preemption (at a preemption
//!   point, the highest-priority ready work takes the core immediately);
//! * **limited preemptive (lazy)** — the alternative flavour of Nasri,
//!   Nelissen & Brandenburg (ECRTS 2019): a waiting higher-priority job
//!   preempts only the *lowest*-priority running job, at that job's next
//!   node boundary; other jobs reaching a boundary continue (each such
//!   deferred boundary is a first-class queue event, counted in
//!   [`SimOutcome::deferred_preemptions`]);
//! * **fully preemptive** — the FP baseline: running nodes can be suspended
//!   at any instant and resumed later.
//!
//! # Example
//!
//! ```
//! use rta_sim::{Jitter, PreemptionPolicy, Release, SimRequest};
//! use rta_model::examples::figure1_task_set;
//!
//! let ts = figure1_task_set();
//! let outcome = SimRequest::new(4, 10_000)
//!     .with_policy(PreemptionPolicy::LimitedPreemptive)
//!     .with_release(Release::Sporadic {
//!         jitter: Jitter::PeriodFraction { percent: 10 },
//!     })
//!     .evaluate(&ts);
//! assert_eq!(outcome.total_deadline_misses(), 0);
//! assert!(outcome.per_task()[0].jobs_completed > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod engine;
pub mod event;
mod metrics;
pub mod request;
pub mod scenario;
pub mod stats;
#[doc(hidden)]
pub mod step_loop;
pub mod topology;
pub mod trace;

pub use config::{ExecutionModel, PreemptionPolicy};
pub use request::{RunExtent, SimOutcome, SimRequest};
pub use scenario::{Jitter, Release};
pub use stats::{SimResult, TaskStats};
pub use trace::{ChartOptions, Trace, TraceEvent, TraceEventKind};
