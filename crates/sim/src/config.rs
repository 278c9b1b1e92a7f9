//! Scheduling and execution vocabulary shared by [`crate::SimRequest`] and
//! the frozen step loop: [`PreemptionPolicy`] and [`ExecutionModel`].

/// When running nodes may lose their core.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum PreemptionPolicy {
    /// The paper's model: nodes are non-preemptive regions; scheduling
    /// happens at node boundaries only, with **eager** preemption — a
    /// waiting higher-priority job takes over at the first preemption
    /// point (node boundary) reached by *any* lower-priority job.
    #[default]
    LimitedPreemptive,
    /// Limited preemption with **lazy** preemption (Nasri, Nelissen &
    /// Brandenburg, ECRTS 2019): a waiting higher-priority job preempts
    /// only the **lowest-priority** running job, at that job's next
    /// preemption point. A job reaching a node boundary keeps its core for
    /// its own next ready node when a lower-priority victim is still
    /// running elsewhere; the policy stays work-conserving — a core with
    /// no continuation falls back to the globally highest-priority ready
    /// node.
    LazyPreemptive,
    /// Fully-preemptive global fixed priority: a higher-priority ready node
    /// immediately displaces the lowest-priority running node.
    FullyPreemptive,
}

/// How long each node actually executes.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum ExecutionModel {
    /// Every node runs for exactly its WCET.
    #[default]
    Wcet,
    /// Each node instance runs for a uniform random duration in
    /// `[max(1, ⌈fraction·C⌉), C]` (deterministic per
    /// [`SimRequest::seed`](crate::SimRequest::seed)).
    /// Useful for probing execution-time anomalies of non-preemptive
    /// scheduling.
    Randomized {
        /// Lower bound on the executed fraction of the WCET, in `(0, 1]`.
        fraction: f64,
    },
}
