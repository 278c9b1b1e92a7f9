//! Random sporadic DAG task-set generation for schedulability experiments.
//!
//! Re-implements the simulation environment the paper borrows from Melani
//! et al. (paper Section VI-A) from its published parameters:
//!
//! * DAGs grow by recursive fork-join expansion: a block either terminates
//!   in a single NPR (probability `p_term = 0.4`) or forks into up to
//!   `n_par = 6` parallel sub-blocks (probability `p_par = 0.6`) between a
//!   fork node and a join node — see [`DagGenConfig`] and [`generate_dag`];
//! * the longest path is at most 7 nodes, a DAG has at most 30 nodes, and
//!   node WCETs are uniform in `[1, 100]`;
//! * periods give every task real slack: `T_i = vol_i · s_i` with
//!   log-uniform slack factors, anchored by the paper's `β = 0.5` (see
//!   [`PeriodModel::SlackFactor`] for the calibration),
//!   with implicit deadlines `D = T`;
//! * task sets are rescaled onto the target utilization by a common
//!   correction of the slack factors ([`generate_task_set`]);
//! * priorities are deadline monotonic.
//!
//! Two presets mirror the paper's two evaluation groups: [`group1`] mixes
//! highly-parallel (data-flow) tasks with sequential (control-flow) chains;
//! [`group2`] generates only highly-parallel tasks of similar shape.
//!
//! All generation is deterministic given a seed.
//!
//! # Example
//!
//! ```
//! use rta_taskgen::{group1, generate_task_set};
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(42);
//! let ts = generate_task_set(&mut rng, &group1(1.0));
//! assert!((ts.total_utilization() - 1.0).abs() < 0.06);
//! assert!(ts.tasks().iter().all(|t| t.dag().node_count() <= 30));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dag_gen;
pub mod set_gen;

pub use dag_gen::{
    generate_dag, generate_dag_with, generate_sequential_dag, generate_sequential_dag_with,
    DagGenConfig,
};
pub use set_gen::{
    chain_mix, generate_task, generate_task_set, generate_task_set_with_count, group1, group2,
    DagShape, PeriodModel, TaskKind, TaskSetConfig, TaskSetGenerator,
};
