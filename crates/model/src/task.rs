//! The sporadic DAG task: a DAG plus timing parameters.

use crate::dag::Dag;
use crate::error::ModelError;
use crate::time::Time;

/// A sporadic DAG task `τ_k = (G_k, T_k, D_k)` (paper Section III-A).
///
/// Releases an infinite sequence of jobs separated by at least the period
/// `T_k`; every job must finish within the constrained relative deadline
/// `D_k ≤ T_k`. The DAG's nodes are non-preemptive regions.
///
/// # Example
///
/// ```
/// use rta_model::{DagBuilder, DagTask};
///
/// # fn main() -> Result<(), rta_model::ModelError> {
/// let mut b = DagBuilder::new();
/// b.add_node(5);
/// let task = DagTask::new(b.build()?, 10, 8)?;
/// assert_eq!(task.period(), 10);
/// assert_eq!(task.deadline(), 8);
/// assert!((task.utilization() - 0.5).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DagTask {
    dag: Dag,
    period: Time,
    deadline: Time,
    name: Option<String>,
}

impl DagTask {
    /// Creates a task with implicit or constrained deadline.
    ///
    /// # Errors
    ///
    /// * [`ModelError::ZeroPeriod`] / [`ModelError::ZeroDeadline`] for zero
    ///   timing parameters;
    /// * [`ModelError::DeadlineExceedsPeriod`] if `deadline > period` — the
    ///   analysis requires constrained deadlines.
    pub fn new(dag: Dag, period: Time, deadline: Time) -> Result<Self, ModelError> {
        if period == 0 {
            return Err(ModelError::ZeroPeriod);
        }
        if deadline == 0 {
            return Err(ModelError::ZeroDeadline);
        }
        if deadline > period {
            return Err(ModelError::DeadlineExceedsPeriod { deadline, period });
        }
        Ok(Self {
            dag,
            period,
            deadline,
            name: None,
        })
    }

    /// Creates a task with an implicit deadline (`D = T`), the configuration
    /// used throughout the paper's evaluation.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::ZeroPeriod`] if `period` is zero.
    pub fn with_implicit_deadline(dag: Dag, period: Time) -> Result<Self, ModelError> {
        Self::new(dag, period, period)
    }

    /// Attaches a human-readable name (used in DOT exports and reports).
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// The task's DAG of non-preemptive regions.
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Minimum inter-arrival time `T_k`.
    pub fn period(&self) -> Time {
        self.period
    }

    /// Constrained relative deadline `D_k ≤ T_k`.
    pub fn deadline(&self) -> Time {
        self.deadline
    }

    /// Optional display name.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }

    /// Utilization `vol(G_k) / T_k`.
    pub fn utilization(&self) -> f64 {
        self.dag.volume() as f64 / self.period as f64
    }

    /// Density `vol(G_k) / D_k`.
    pub fn density(&self) -> f64 {
        self.dag.volume() as f64 / self.deadline as f64
    }

    /// `true` when the critical path alone already exceeds the deadline, so
    /// the task can never be schedulable on any number of cores.
    pub fn is_trivially_infeasible(&self) -> bool {
        self.dag.longest_path() > self.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DagBuilder;

    fn simple_dag(wcet: Time) -> Dag {
        let mut b = DagBuilder::new();
        b.add_node(wcet);
        b.build().unwrap()
    }

    #[test]
    fn constrained_deadline_accepted() {
        let t = DagTask::new(simple_dag(3), 10, 7).unwrap();
        assert_eq!(t.period(), 10);
        assert_eq!(t.deadline(), 7);
    }

    #[test]
    fn implicit_deadline() {
        let t = DagTask::with_implicit_deadline(simple_dag(3), 10).unwrap();
        assert_eq!(t.deadline(), 10);
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert_eq!(
            DagTask::new(simple_dag(1), 0, 1).unwrap_err(),
            ModelError::ZeroPeriod
        );
        assert_eq!(
            DagTask::new(simple_dag(1), 5, 0).unwrap_err(),
            ModelError::ZeroDeadline
        );
        assert_eq!(
            DagTask::new(simple_dag(1), 5, 6).unwrap_err(),
            ModelError::DeadlineExceedsPeriod {
                deadline: 6,
                period: 5
            }
        );
    }

    #[test]
    fn utilization_and_density() {
        let t = DagTask::new(simple_dag(4), 8, 4).unwrap();
        assert!((t.utilization() - 0.5).abs() < 1e-12);
        assert!((t.density() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn trivially_infeasible_detection() {
        let mut b = DagBuilder::new();
        let v = b.add_nodes([5, 5]);
        b.add_chain(&v).unwrap();
        let t = DagTask::new(b.build().unwrap(), 20, 8).unwrap();
        assert!(t.is_trivially_infeasible()); // L = 10 > D = 8
        let ok = DagTask::new(simple_dag(5), 20, 8).unwrap();
        assert!(!ok.is_trivially_infeasible());
    }

    #[test]
    fn named_task() {
        let t = DagTask::new(simple_dag(1), 2, 2).unwrap().named("camera");
        assert_eq!(t.name(), Some("camera"));
    }
}
