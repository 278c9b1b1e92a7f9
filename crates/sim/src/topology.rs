//! Precomputed task-set topology, the job slab and ready-node tracking.
//!
//! The engine's hot loops never touch [`rta_model`] structures directly:
//! [`Topology`] flattens every task's DAG once per run into CSR successor
//! lists, predecessor counts and a WCET array, so releasing a job or
//! completing a node is pure array arithmetic (the old engine re-derived
//! predecessor counts from bitsets and collected successor vectors on every
//! release/completion). `JobSlab` recycles completed job slots — and the
//! per-node record `Vec` inside them — through a free list, keeping the
//! live memory footprint proportional to the number of *in-flight* jobs
//! rather than the number ever released, which is what lets horizons grow
//! by orders of magnitude.
//!
//! Slot reuse cannot perturb scheduling order: the priority key of a ready
//! node (`ReadyKey`) is `(task, seq, node, slot)` and `(task, seq, node)`
//! is already unique, so the trailing slot index never decides a
//! comparison.

use rta_model::{NodeId, TaskSet, Time};

/// One task's DAG flattened for the simulator: CSR successor lists,
/// predecessor counts, WCETs and the timing parameters.
#[derive(Clone, Debug)]
pub struct TaskTopo {
    wcets: Vec<Time>,
    pred_count: Vec<u32>,
    sources: Vec<u32>,
    succ_off: Vec<u32>,
    succ: Vec<u32>,
    period: Time,
    deadline: Time,
}

impl TaskTopo {
    fn new(task: &rta_model::DagTask) -> Self {
        let dag = task.dag();
        let n = dag.node_count();
        let mut succ_off = Vec::with_capacity(n + 1);
        let mut succ = Vec::new();
        succ_off.push(0);
        for v in 0..n {
            succ.extend(dag.successors(NodeId::new(v)).iter().map(|s| s as u32));
            succ_off.push(succ.len() as u32);
        }
        let pred_count: Vec<u32> = (0..n)
            .map(|v| dag.predecessors(NodeId::new(v)).len() as u32)
            .collect();
        Self {
            wcets: dag.wcets().to_vec(),
            sources: pred_count
                .iter()
                .enumerate()
                .filter(|(_, &c)| c == 0)
                .map(|(v, _)| v as u32)
                .collect(),
            pred_count,
            succ_off,
            succ,
            period: task.period(),
            deadline: task.deadline(),
        }
    }

    /// Number of nodes in the task's DAG.
    pub fn node_count(&self) -> usize {
        self.wcets.len()
    }

    /// WCET of node `v`.
    pub fn wcet(&self, v: usize) -> Time {
        self.wcets[v]
    }

    /// All node WCETs, indexed by node.
    pub fn wcets(&self) -> &[Time] {
        &self.wcets
    }

    /// Source nodes (no predecessors), in ascending node order.
    pub fn sources(&self) -> &[u32] {
        &self.sources
    }

    /// Direct-predecessor counts, indexed by node.
    pub fn pred_counts(&self) -> &[u32] {
        &self.pred_count
    }

    /// Direct successors of node `v`, in ascending node order.
    pub fn successors(&self, v: usize) -> &[u32] {
        &self.succ[self.succ_off[v] as usize..self.succ_off[v + 1] as usize]
    }

    /// The task's period (minimum inter-arrival time).
    pub fn period(&self) -> Time {
        self.period
    }

    /// The task's relative deadline.
    pub fn deadline(&self) -> Time {
        self.deadline
    }
}

/// The whole task set flattened, indexed by task (= priority).
#[derive(Clone, Debug)]
pub struct Topology {
    tasks: Vec<TaskTopo>,
}

impl Topology {
    /// Flattens `task_set` (one pass per task, no lazy state).
    pub fn new(task_set: &TaskSet) -> Self {
        Self {
            tasks: (0..task_set.len())
                .map(|i| TaskTopo::new(task_set.task(i)))
                .collect(),
        }
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// `true` when the task set is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// The flattened view of task `i`.
    pub fn task(&self, i: usize) -> &TaskTopo {
        &self.tasks[i]
    }
}

/// Lifecycle of one node within a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum NodeState {
    /// Precedence constraints not yet satisfied.
    Waiting,
    /// Dispatchable.
    Ready,
    /// On a core.
    Running,
    /// Finished.
    Done,
}

/// Per-node run state, interleaved so one cache line covers several
/// adjacent nodes (the completion handler touches `remaining`, `waiting`
/// and `state` of the same node together).
#[derive(Clone, Copy, Debug)]
pub(crate) struct NodeRec {
    /// Execution time left (the draw until dispatch, then decremented on
    /// preemption).
    pub remaining: Time,
    /// Direct predecessors not yet finished.
    pub waiting: u32,
    /// Lifecycle state.
    pub state: NodeState,
}

/// One in-flight job occupying a slab slot.
#[derive(Clone, Debug)]
pub(crate) struct Job {
    pub task: usize,
    pub seq: u64,
    pub release: Time,
    pub abs_deadline: Time,
    /// Per-node records; left empty by [`JobSlab::acquire`] — the engine
    /// fills it in one pass together with the execution draws.
    pub nodes: Vec<NodeRec>,
    pub unfinished: usize,
}

/// Slab of job slots with a free list: completed slots — including the
/// capacity of their per-node `Vec`s — are recycled, so steady-state
/// simulation performs no allocation per release.
#[derive(Clone, Debug, Default)]
pub(crate) struct JobSlab {
    jobs: Vec<Job>,
    free: Vec<usize>,
}

impl JobSlab {
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquires a slot for a fresh job of `topo` with `nodes` cleared to
    /// *empty*: the engine fills the per-node records in a single pass
    /// together with the execution draws, so initializing them here would
    /// be a wasted pass over the job.
    pub fn acquire(&mut self, topo: &TaskTopo, task: usize, seq: u64, release: Time) -> usize {
        let n = topo.node_count();
        match self.free.pop() {
            Some(idx) => {
                let job = &mut self.jobs[idx];
                job.task = task;
                job.seq = seq;
                job.release = release;
                job.abs_deadline = release + topo.deadline();
                job.unfinished = n;
                job.nodes.clear();
                idx
            }
            None => {
                self.jobs.push(Job {
                    task,
                    seq,
                    release,
                    abs_deadline: release + topo.deadline(),
                    nodes: Vec::with_capacity(n),
                    unfinished: n,
                });
                self.jobs.len() - 1
            }
        }
    }

    /// Returns a completed job's slot to the free list.
    pub fn recycle(&mut self, idx: usize) {
        debug_assert_eq!(self.jobs[idx].unfinished, 0, "recycling a live job");
        self.free.push(idx);
    }

    pub fn job(&self, idx: usize) -> &Job {
        &self.jobs[idx]
    }

    pub fn job_mut(&mut self, idx: usize) -> &mut Job {
        &mut self.jobs[idx]
    }

    /// Peak number of simultaneously-live job slots over the run.
    pub fn peak(&self) -> usize {
        self.jobs.len()
    }
}

/// Priority-ordered key of a ready node: `(task, job seq, node, slot)`
/// packed into one `u128` — `task` in the top 16 bits, then `seq` (64),
/// `node` (16) and `slot` (32). Because every field is fixed-width
/// unsigned, integer order on the packed value *is* the field-wise
/// lexicographic order, so the ready set compares one wide integer
/// instead of a four-field tuple on its hottest path. Smaller is higher
/// priority; the slot index is carried for O(1) job lookup and never
/// decides a comparison (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct ReadyKey(u128);

impl ReadyKey {
    pub fn new(task: usize, seq: u64, node: usize, slot: usize) -> Self {
        debug_assert!(task <= u16::MAX as usize, "task index exceeds 16 bits");
        debug_assert!(node <= u16::MAX as usize, "node index exceeds 16 bits");
        debug_assert!(slot <= u32::MAX as usize, "slab slot exceeds 32 bits");
        Self(
            ((task as u128) << 112) | ((seq as u128) << 48) | ((node as u128) << 32) | slot as u128,
        )
    }

    pub fn task(self) -> usize {
        (self.0 >> 112) as usize
    }

    pub fn seq(self) -> u64 {
        (self.0 >> 48) as u64
    }

    pub fn node(self) -> usize {
        ((self.0 >> 32) & 0xFFFF) as usize
    }

    pub fn slot(self) -> usize {
        (self.0 & 0xFFFF_FFFF) as usize
    }

    /// The owning job `(task, seq)` — the priority pair job-level
    /// comparisons are made on.
    pub fn owner(self) -> (usize, u64) {
        (self.task(), self.seq())
    }
}

/// The dispatchable-node set, ordered by [`ReadyKey`] priority.
///
/// Backed by a sorted `Vec` rather than a `BTreeSet`: the set holds the
/// ready nodes of the *in-flight* jobs only (a handful of entries even on
/// loaded platforms), where binary search plus a short `memmove` beats
/// tree-node traversal by a wide margin — this container sits on the hot
/// path of every dispatch decision.
#[derive(Clone, Debug, Default)]
pub(crate) struct ReadySet {
    set: Vec<ReadyKey>,
}

impl ReadySet {
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when no node is ready.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    pub fn insert(&mut self, key: ReadyKey) {
        let pos = self.set.partition_point(|k| k < &key);
        debug_assert!(self.set.get(pos) != Some(&key), "duplicate ready key");
        self.set.insert(pos, key);
    }

    pub fn remove(&mut self, key: &ReadyKey) {
        if let Ok(pos) = self.set.binary_search(key) {
            self.set.remove(pos);
        }
    }

    /// The globally highest-priority ready node.
    pub fn first(&self) -> Option<ReadyKey> {
        self.set.first().copied()
    }

    /// Removes and returns the globally highest-priority ready node.
    pub fn pop_first(&mut self) -> Option<ReadyKey> {
        if self.set.is_empty() {
            None
        } else {
            Some(self.set.remove(0))
        }
    }

    /// The highest-priority ready node belonging to job `owner` — the
    /// lazy policy's continuation lookup.
    pub fn first_of_job(&self, owner: (usize, u64)) -> Option<ReadyKey> {
        // Every key of `owner` is ≥ its zero-node-zero-slot prefix, and
        // every key of a higher-priority job is < it.
        let prefix = ReadyKey(((owner.0 as u128) << 112) | ((owner.1 as u128) << 48));
        let pos = self.set.partition_point(|k| k < &prefix);
        self.set.get(pos).filter(|k| k.owner() == owner).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rta_model::{DagBuilder, DagTask};

    fn diamond() -> DagTask {
        let mut b = DagBuilder::new();
        let v: Vec<NodeId> = b.add_nodes([1, 3, 2, 1]);
        b.add_edge(v[0], v[1]).unwrap();
        b.add_edge(v[0], v[2]).unwrap();
        b.add_edge(v[1], v[3]).unwrap();
        b.add_edge(v[2], v[3]).unwrap();
        DagTask::with_implicit_deadline(b.build().unwrap(), 100).unwrap()
    }

    #[test]
    fn csr_matches_the_dag() {
        let ts = TaskSet::new(vec![diamond()]);
        let topo = Topology::new(&ts);
        let t = topo.task(0);
        assert_eq!(t.node_count(), 4);
        assert_eq!(t.successors(0), &[1, 2]);
        assert_eq!(t.successors(1), &[3]);
        assert_eq!(t.successors(3), &[] as &[u32]);
        assert_eq!(t.pred_counts(), &[0, 1, 1, 2]);
        assert_eq!(t.wcet(1), 3);
        assert_eq!(t.period(), 100);
        assert_eq!(t.deadline(), 100);
    }

    #[test]
    fn slab_recycles_slots_and_capacity() {
        let ts = TaskSet::new(vec![diamond()]);
        let topo = Topology::new(&ts);
        let mut slab = JobSlab::new();
        let a = slab.acquire(topo.task(0), 0, 0, 0);
        slab.job_mut(a).nodes.push(NodeRec {
            remaining: 7,
            waiting: 0,
            state: NodeState::Ready,
        });
        slab.job_mut(a).unfinished = 0;
        slab.recycle(a);
        let b = slab.acquire(topo.task(0), 0, 1, 100);
        assert_eq!(a, b, "freed slot must be reused");
        assert_eq!(slab.peak(), 1);
        let j = slab.job(b);
        assert_eq!(j.seq, 1);
        assert_eq!(j.unfinished, 4);
        assert_eq!(j.abs_deadline, 200);
        assert!(j.nodes.is_empty(), "acquire must hand back a cleared slot");
    }

    #[test]
    fn ready_set_orders_by_priority_and_finds_continuations() {
        let mut ready = ReadySet::new();
        ready.insert(ReadyKey::new(2, 0, 1, 9));
        ready.insert(ReadyKey::new(0, 3, 0, 4));
        ready.insert(ReadyKey::new(0, 2, 5, 7));
        assert_eq!(ready.first(), Some(ReadyKey::new(0, 2, 5, 7)));
        assert_eq!(ready.first_of_job((0, 3)), Some(ReadyKey::new(0, 3, 0, 4)));
        assert_eq!(ready.first_of_job((1, 0)), None);
        ready.remove(&ReadyKey::new(0, 2, 5, 7));
        assert_eq!(ready.first(), Some(ReadyKey::new(0, 3, 0, 4)));
        assert_eq!(ready.pop_first(), Some(ReadyKey::new(0, 3, 0, 4)));
        assert_eq!(ready.pop_first(), Some(ReadyKey::new(2, 0, 1, 9)));
        assert_eq!(ready.pop_first(), None);
    }

    #[test]
    fn ready_key_packs_and_unpacks_every_field() {
        let key = ReadyKey::new(513, u64::MAX, 65_535, 0xDEAD_BEEF);
        assert_eq!(key.task(), 513);
        assert_eq!(key.seq(), u64::MAX);
        assert_eq!(key.node(), 65_535);
        assert_eq!(key.slot(), 0xDEAD_BEEF);
        assert_eq!(key.owner(), (513, u64::MAX));
        // Packed order is field-wise lexicographic order.
        assert!(ReadyKey::new(1, 9, 9, 9) < ReadyKey::new(2, 0, 0, 0));
        assert!(ReadyKey::new(1, 1, 9, 9) < ReadyKey::new(1, 2, 0, 0));
        assert!(ReadyKey::new(1, 1, 1, 9) < ReadyKey::new(1, 1, 2, 0));
        assert!(ReadyKey::new(1, 1, 1, 1) < ReadyKey::new(1, 1, 1, 2));
    }
}
