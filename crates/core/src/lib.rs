//! Response-time analysis of DAG tasks under global fixed-priority
//! scheduling with limited preemptions.
//!
//! This crate is the reproduction of the primary contribution of Serrano,
//! Melani, Bertogna, Quinones — *"Response-Time Analysis of DAG Tasks under
//! Fixed Priority Scheduling with Limited Preemptions"*, DATE 2016. It
//! computes, for every task of a [`TaskSet`] running on `m` identical cores:
//!
//! ```text
//! R_k ← L_k + (1/m)(vol(G_k) − L_k) + ⌊(1/m)(I_lp_k + I_hp_k)⌋     (Eq. 4)
//! ```
//!
//! where the higher-priority interference `I_hp` uses the DAG workload bound
//! of Melani et al. ([`workload`]), and the lower-priority blocking
//! `I_lp = Δ^m + p_k·Δ^{m−1}` ([`blocking`]) is bounded with either of the
//! paper's two methods:
//!
//! * [`Method::LpMax`] — the `m` (and `m−1`) largest NPRs among
//!   lower-priority tasks (Eq. 5);
//! * [`Method::LpIlp`] — precedence-aware: per-task worst-case workloads
//!   `µ_i[c]` (max-weight parallel sets) combined over all execution
//!   scenarios (integer partitions of `m`) via an assignment problem
//!   (Eqs. 6–8).
//!
//! [`Method::FpIdeal`] is the fully-preemptive baseline of the paper's
//! evaluation (Eq. 1, zero blocking and zero preemption cost).
//!
//! Beyond the paper, [`Method::LpSound`] replaces the event-counted
//! `I_lp` — empirically refuted by this repository's validation campaign
//! (the eager-LP unsoundness class of Nasri, Nelissen & Brandenburg,
//! ECRTS 2019) — with the **corrected, sound** window-workload term of
//! [`blocking::sound`]: lower-priority tasks charge their full
//! deadline-bounded carry-in workload over the response window, which
//! covers non-preemptive regions newly started on cores the DAG's own
//! precedence constraints leave idle.
//!
//! All arithmetic is exact: the rational terms of Eq. 4 are tracked in
//! scaled units of `1/m` (see [`report::ResponseBound`]); there is no
//! floating point anywhere in the fixed-point iteration.
//!
//! Everything task-intrinsic — µ-arrays, parallel adjacency, LP-max WCET
//! pools, per-cardinality Δ rows, longest paths and volumes — is computed
//! once per task set in a [`cache::TaskSetCache`] and shared across tasks
//! under analysis, platform slices and methods. [`analyze`] builds the
//! cache internally; [`analyze_uncached`] keeps the original
//! recompute-per-task path as a pinned reference. Each LP-ILP quantity has
//! one solver — the clique search for `µ`, the Hungarian assignment for
//! `ρ` — and the paper's ILP formulations ([`blocking::paper_ilp`]) are
//! their test reference.
//!
//! # The request API
//!
//! Batch analysis goes through **one** entry point: build an
//! [`AnalysisRequest`] (platform + method selection + bounds on/off +
//! scenario space) and call [`AnalysisRequest::evaluate`] (or
//! [`AnalysisRequest::evaluate_with`] to share a [`TaskSetCache`]); it
//! resolves to an [`AnalysisOutcome`] carrying one verdict — and, on
//! request, the per-task response bounds — per method. Verdict-only
//! requests run the method-dominance fast path automatically. On top of
//! it, [`lru::AnalysisLru`] memoizes outcomes across repeated task sets —
//! the admission-control layer behind `repro serve`. [`analyze`] remains
//! for callers that want one method's full [`TaskReport`]s.
//!
//! # Example
//!
//! ```
//! use rta_analysis::{analyze, AnalysisConfig, Method};
//! use rta_model::examples::figure1_task_set;
//!
//! let task_set = figure1_task_set();
//! let config = AnalysisConfig::new(4, Method::LpIlp);
//! let report = analyze(&task_set, &config);
//! assert!(report.schedulable);
//! // The highest-priority task is blocked once by Δ⁴ = 19 (paper Table III).
//! let blocking = report.tasks[0].blocking.as_ref().unwrap();
//! assert_eq!(blocking.delta_m, 19);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocking;
pub mod cache;
pub mod config;
pub mod gen_sporadic;
pub mod long_paths;
pub mod lru;
mod metrics;
pub mod report;
pub mod request;
pub mod rta;
pub mod workload;

pub use cache::TaskSetCache;
pub use config::{AnalysisConfig, Method, ScenarioSpace};
pub use lru::{AnalysisLru, CacheOutcome, LruStats};
pub use report::{AnalysisReport, ResponseBound, TaskReport};
pub use request::{AnalysisOutcome, AnalysisRequest, MethodOutcome};
pub use rta::{analyze, analyze_uncached, verdict_with};

// Re-exported for callers that want to work with model types directly.
pub use rta_model::{DagTask, TaskSet, Time};
