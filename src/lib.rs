//! # dag-lp-rta
//!
//! Response-time analysis of sporadic DAG tasks under **global
//! fixed-priority scheduling with limited preemptions** — a full
//! reproduction of Serrano, Melani, Bertogna, Quinones, *DATE 2016*.
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`model`] | `rta-model` | DAGs of non-preemptive regions, tasks, task sets, Algorithm 1 |
//! | [`analysis`] | `rta-analysis` | the paper's RTA: FP-ideal, LP-max, LP-ILP |
//! | [`taskgen`] | `rta-taskgen` | the random workload generator of the evaluation |
//! | [`sim`] | `rta-sim` | discrete-event multicore scheduler simulator |
//! | [`combinatorics`] | `rta-combinatorics` | partitions, assignment, cliques, bitsets |
//! | [`ilp`] | `rta-ilp` | from-scratch 0/1 ILP solver (the CPLEX substitute) |
//!
//! # Quickstart
//!
//! ```
//! use dag_lp_rta::prelude::*;
//!
//! # fn main() -> Result<(), rta_model::ModelError> {
//! // Build a small fork-join task…
//! let mut b = DagBuilder::new();
//! let fork = b.add_node(2);
//! let left = b.add_node(6);
//! let right = b.add_node(4);
//! let join = b.add_node(1);
//! b.add_edge(fork, left)?;
//! b.add_edge(fork, right)?;
//! b.add_edge(left, join)?;
//! b.add_edge(right, join)?;
//! let video = DagTask::new(b.build()?, 40, 40)?.named("video");
//!
//! // …a lower-priority sequential task…
//! let mut b = DagBuilder::new();
//! let chain = b.add_nodes([5, 9, 3]);
//! b.add_chain(&chain)?;
//! let logger = DagTask::new(b.build()?, 100, 100)?.named("logger");
//!
//! // …and check schedulability on 2 cores with the LP-ILP analysis.
//! let task_set = TaskSet::new(vec![video, logger]);
//! let report = analyze(&task_set, &AnalysisConfig::new(2, Method::LpIlp));
//! assert!(report.schedulable);
//! // The video task can be blocked once by the logger's largest NPR (9).
//! assert_eq!(report.tasks[0].blocking.unwrap().delta_m, 9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub use rta_analysis as analysis;
pub use rta_combinatorics as combinatorics;
pub use rta_ilp as ilp;
pub use rta_model as model;
pub use rta_sim as sim;
pub use rta_taskgen as taskgen;

/// The most common imports in one place.
pub mod prelude {
    pub use rta_analysis::{
        analyze, AnalysisConfig, AnalysisReport, Method, MuSolver, ResponseBound, RhoSolver,
        ScenarioSpace, TaskReport,
    };
    pub use rta_model::{Dag, DagBuilder, DagTask, ModelError, NodeId, TaskId, TaskSet, Time};
    pub use rta_sim::{PreemptionPolicy, Release, SimOutcome, SimRequest, SimResult};
    pub use rta_taskgen::{generate_task_set, group1, group2, TaskSetConfig};
}
