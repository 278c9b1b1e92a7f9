//! The event-driven scheduler state machine.
//!
//! The engine is the *dispatcher* only: it pulls [`Event`]s from the
//! [`EventQueue`], mutates job state held in the
//! [`JobSlab`](crate::topology), and fills cores from the
//! [`ReadySet`](crate::topology). Everything scenario-specific — when jobs
//! arrive — lives in [`crate::scenario`]; everything structural about the
//! task set — successor lists, predecessor counts, WCETs — is precomputed
//! in [`crate::topology`]. The engine itself is the policy state machine:
//!
//! 1. drain every event scheduled at the current instant;
//! 2. fill free cores with the highest-priority ready nodes
//!    (priority = task index, then job sequence, then node index);
//! 3. under the fully-preemptive policy, remaining higher-priority ready
//!    nodes displace the lowest-priority running nodes.
//!
//! Under the limited-preemptive policy step 3 never happens — running
//! non-preemptive regions keep their cores until completion, which is
//! exactly the paper's eager-preemption model: a higher-priority task takes
//! over at the first preemption point (node boundary) reached by any
//! lower-priority task.
//!
//! Under the **lazy** limited-preemptive policy (Nasri, Nelissen &
//! Brandenburg, ECRTS 2019) step 2 is refined: a job reaching one of its
//! node boundaries keeps the core for its own next ready node whenever a
//! higher-priority job is waiting but a *lower-priority* job is still
//! running elsewhere — the waiting job preempts only the lowest-priority
//! running job, at that job's next boundary. Each honoured continuation
//! schedules an explicit [`Event::PreemptionBoundary`] marker at the
//! victim's boundary (counted in the outcome as a deferred preemption);
//! the marker is provably stale when it fires, so it never perturbs the
//! schedule. Cores whose freeing job has no ready continuation fall back
//! to the globally highest-priority ready node, so the policy remains
//! work-conserving.
//!
//! Preempted nodes (fully-preemptive only) re-enter the ready set with
//! their remaining execution; stale completion events are invalidated by an
//! assignment-id check, so preemption is O(log n) without heap surgery.
//!
//! The equivalence proptests in `tests/equivalence.rs` pin this engine
//! bit-identical (stats *and* trace) to the frozen pre-redesign step loop
//! in `step_loop`.

use crate::config::{ExecutionModel, PreemptionPolicy};
use crate::event::{Event, EventQueue};
use crate::request::{SimOutcome, SimRequest};
use crate::scenario::ScenarioState;
use crate::stats::{SimResult, TaskStats};
use crate::topology::{JobSlab, NodeRec, NodeState, ReadyKey, ReadySet, Topology};
use crate::trace::{Trace, TraceEvent, TraceEventKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rta_model::{TaskSet, Time};

/// A node occupying a core.
#[derive(Clone, Copy)]
struct Running {
    job: usize,
    node: usize,
    assignment: u64,
    start: Time,
}

/// The dispatcher. Borrows the precomputed topology; owns all mutable run
/// state.
struct Engine<'a> {
    topo: &'a Topology,
    policy: PreemptionPolicy,
    execution: ExecutionModel,
    horizon: Time,
    rng: SmallRng,
    queue: EventQueue,
    scenario: ScenarioState,
    slab: JobSlab,
    ready: ReadySet,
    cores: Vec<Option<Running>>,
    /// Which job `(task, seq)` freed each core at the current instant —
    /// the lazy policy's continuation claim, cleared after scheduling.
    freed_by: Vec<Option<(usize, u64)>>,
    /// `true` while some `freed_by` entry is set, so instants without a
    /// completion skip the clearing pass.
    any_freed: bool,
    /// Number of unoccupied cores, so instants that freed none skip the
    /// core-fill scan.
    idle_cores: usize,
    next_assignment: u64,
    seq_counters: Vec<u64>,
    stats: Vec<TaskStats>,
    trace: Option<Trace>,
    makespan: Time,
    deferred_preemptions: u64,
    events_processed: u64,
}

/// Runs `request` against `task_set` and returns the full outcome. This is
/// the engine behind [`SimRequest::evaluate`]; use that instead of calling
/// into this module.
pub(crate) fn run(task_set: &TaskSet, request: &SimRequest) -> SimOutcome {
    let topo = Topology::new(task_set);
    let scenario = ScenarioState::new(&request.release, &topo);
    let mut engine = Engine {
        topo: &topo,
        policy: request.policy,
        execution: request.execution,
        horizon: request.horizon,
        rng: SmallRng::seed_from_u64(request.seed),
        queue: EventQueue::new(),
        scenario,
        slab: JobSlab::new(),
        ready: ReadySet::new(),
        cores: vec![None; request.cores],
        freed_by: vec![None; request.cores],
        any_freed: false,
        idle_cores: request.cores,
        next_assignment: 0,
        seq_counters: vec![0; task_set.len()],
        stats: vec![TaskStats::default(); task_set.len()],
        trace: request.record_trace.then(Trace::new),
        makespan: 0,
        deferred_preemptions: 0,
        events_processed: 0,
    };
    engine.run();
    let trace_dropped = engine.trace.as_ref().map_or(0, Trace::dropped);
    let outcome = SimOutcome::new(
        SimResult {
            per_task: engine.stats,
            makespan: engine.makespan,
            trace: engine.trace,
        },
        trace_dropped,
        engine.deferred_preemptions,
        engine.events_processed,
        engine.slab.peak(),
        engine.queue.high_water(),
    );
    crate::metrics::record_run(&outcome);
    outcome
}

impl Engine<'_> {
    fn record(&mut self, event: TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.push(event);
        }
    }

    fn run(&mut self) {
        // Initial releases, drawn per task in task order.
        for task in 0..self.topo.len() {
            let first = self.scenario.first_release(task, &mut self.rng);
            if first < self.horizon {
                self.queue.push(first, Event::Release { task: task as u32 });
            }
        }

        while let Some(now) = self.queue.peek_time() {
            self.makespan = self.makespan.max(now);
            // Drain every event at this instant before scheduling.
            while let Some(entry) = self.queue.pop_at(now) {
                match entry.event {
                    Event::Release { task } => self.handle_release(task as usize, now),
                    Event::NodeCompletion { core, assignment } => {
                        self.handle_completion(core as usize, assignment, now)
                    }
                    Event::PreemptionBoundary { core, assignment } => {
                        // The victim's own completion at this instant has an
                        // earlier tie, so by the time the marker fires the
                        // core has been freed or reassigned: always stale.
                        debug_assert!(
                            self.cores[core as usize].is_none_or(|r| r.assignment != assignment),
                            "a preemption-boundary marker fired before its victim's completion"
                        );
                        let _ = (core, assignment);
                    }
                }
            }
            self.schedule(now);
        }
        // The loop drains the queue completely, so every event ever
        // scheduled was processed.
        debug_assert!(self.queue.is_empty());
        self.events_processed = self.queue.scheduled_total();
    }

    fn handle_release(&mut self, task: usize, now: Time) {
        let seq = self.seq_counters[task];
        self.seq_counters[task] += 1;
        self.stats[task].jobs_released += 1;

        // `self.topo` is a shared borrow with the engine's outer lifetime,
        // so the task view can be held across the mutations below.
        let topo = self.topo.task(task);
        let n = topo.node_count();
        let job_idx = self.slab.acquire(topo, task, seq, now);
        // Per-node records and execution draws, in node order (the step
        // loop's draw order). WCET execution makes no draws, so the whole
        // vector is built in one zipped pass.
        match self.execution {
            ExecutionModel::Wcet => {
                let job = self.slab.job_mut(job_idx);
                job.nodes
                    .extend(
                        topo.wcets()
                            .iter()
                            .zip(topo.pred_counts())
                            .map(|(&wcet, &preds)| NodeRec {
                                remaining: wcet,
                                waiting: preds,
                                state: NodeState::Waiting,
                            }),
                    );
            }
            ExecutionModel::Randomized { .. } => {
                for v in 0..n {
                    let c = self.draw_execution(topo.wcet(v));
                    self.slab.job_mut(job_idx).nodes.push(NodeRec {
                        remaining: c,
                        waiting: topo.pred_counts()[v],
                        state: NodeState::Waiting,
                    });
                }
            }
        }
        // Source nodes become ready, in node order.
        let job = self.slab.job_mut(job_idx);
        for &v in topo.sources() {
            let v = v as usize;
            job.nodes[v].state = NodeState::Ready;
            self.ready.insert(ReadyKey::new(task, seq, v, job_idx));
        }
        self.record(TraceEvent {
            time: now,
            task,
            job: seq,
            node: usize::MAX,
            core: usize::MAX,
            kind: TraceEventKind::Release,
        });

        // Schedule the next release of this task.
        let next = self.scenario.next_release(task, now, &mut self.rng);
        if next < self.horizon {
            self.queue.push(next, Event::Release { task: task as u32 });
        }
    }

    fn draw_execution(&mut self, wcet: Time) -> Time {
        match self.execution {
            ExecutionModel::Wcet => wcet,
            ExecutionModel::Randomized { fraction } => {
                assert!(
                    fraction > 0.0 && fraction <= 1.0,
                    "execution fraction must be in (0, 1]"
                );
                if wcet == 0 {
                    return 0;
                }
                let lo = ((wcet as f64 * fraction).ceil() as Time).clamp(1, wcet);
                self.rng.gen_range(lo..=wcet)
            }
        }
    }

    fn handle_completion(&mut self, core: usize, assignment: u64, now: Time) {
        // Stale events (the node was preempted) are dropped.
        let Some(running) = self.cores[core] else {
            return;
        };
        if running.assignment != assignment {
            return;
        }
        self.cores[core] = None;
        self.idle_cores += 1;
        let job_idx = running.job;
        let node = running.node;
        // One slab lookup covers the whole node-completion mutation.
        let job = self.slab.job_mut(job_idx);
        let (task, seq) = (job.task, job.seq);
        job.nodes[node].state = NodeState::Done;
        job.nodes[node].remaining = 0;
        job.unfinished -= 1;
        let job_done = job.unfinished == 0;
        let (release, abs_deadline) = (job.release, job.abs_deadline);
        // Continuation claims are only ever consulted by the lazy fill.
        if self.policy == PreemptionPolicy::LazyPreemptive {
            self.freed_by[core] = Some((task, seq));
            self.any_freed = true;
        }
        self.record(TraceEvent {
            time: now,
            task,
            job: seq,
            node,
            core,
            kind: TraceEventKind::Finish,
        });

        // Successors whose last predecessor just finished become ready,
        // under a single slab borrow.
        let successors = self.topo.task(task).successors(node);
        let job = self.slab.job_mut(job_idx);
        for &s in successors {
            let s = s as usize;
            let rec = &mut job.nodes[s];
            rec.waiting -= 1;
            if rec.waiting == 0 {
                rec.state = NodeState::Ready;
                self.ready.insert(ReadyKey::new(task, seq, s, job_idx));
            }
        }

        if job_done {
            let response = now - release;
            let missed = now > abs_deadline;
            let stats = &mut self.stats[task];
            stats.jobs_completed += 1;
            stats.max_response = stats.max_response.max(response);
            stats.total_response += response as u128;
            if missed {
                stats.deadline_misses += 1;
            }
            self.record(TraceEvent {
                time: now,
                task,
                job: seq,
                node: usize::MAX,
                core: usize::MAX,
                kind: TraceEventKind::JobComplete,
            });
            self.slab.recycle(job_idx);
        }
    }

    fn schedule(&mut self, now: Time) {
        // Nothing dispatchable: only expire this instant's continuation
        // claims (both fill flavours and the preemption pass would no-op).
        if self.ready.is_empty() {
            if self.any_freed {
                self.freed_by.fill(None);
                self.any_freed = false;
            }
            return;
        }
        // Step 1: fill free cores with the highest-priority ready nodes —
        // except under lazy preemption, where a freeing job may keep its
        // core for its own continuation.
        if self.policy == PreemptionPolicy::LazyPreemptive {
            if self.idle_cores > 0 {
                self.fill_lazily(now);
            }
        } else if self.idle_cores > 0 {
            for core in 0..self.cores.len() {
                if self.cores[core].is_some() {
                    continue;
                }
                let Some(key) = self.ready.pop_first() else {
                    break;
                };
                self.assign(core, key, now);
            }
        }
        // Continuation claims only live within the scheduling instant.
        if self.any_freed {
            self.freed_by.fill(None);
            self.any_freed = false;
        }

        // Step 2 (fully preemptive only): displace lower-priority running
        // nodes.
        if self.policy == PreemptionPolicy::FullyPreemptive {
            while let Some(key) = self.ready.first() {
                let Some((victim_core, victim_prio)) = self.lowest_priority_running() else {
                    break;
                };
                // Compare job priorities: (task, seq). Nodes of the same job
                // never preempt each other.
                if key.owner() < victim_prio {
                    self.preempt(victim_core, now);
                    self.ready.remove(&key);
                    self.assign(victim_core, key, now);
                } else {
                    break;
                }
            }
        }
    }

    /// The lazy fill: each free core first honours its freeing job's
    /// continuation claim. The claim holds when the job has a ready node
    /// of its own, the globally best ready node belongs to a
    /// higher-priority job (a preemption would happen under the eager
    /// policy), and a lower-priority job is still running on another core
    /// (the lazy victim the waiting job must preempt instead). Without a
    /// claim the core takes the globally highest-priority ready node, so
    /// no core idles while work is ready.
    ///
    /// Each honoured claim is a *deferred preemption*: the waiting job's
    /// takeover moves to the victim's next node boundary, which the engine
    /// marks with an explicit [`Event::PreemptionBoundary`] in the queue.
    fn fill_lazily(&mut self, now: Time) {
        for core in 0..self.cores.len() {
            if self.cores[core].is_some() {
                continue;
            }
            let Some(global_best) = self.ready.first() else {
                break;
            };
            let key = match self.freed_by[core] {
                Some(owner) => {
                    let own_next = self.ready.first_of_job(owner);
                    match own_next {
                        Some(own)
                            if global_best.owner() < owner
                                && self.lower_priority_job_running(owner) =>
                        {
                            self.mark_deferred_preemption();
                            own
                        }
                        _ => global_best,
                    }
                }
                None => global_best,
            };
            self.ready.remove(&key);
            self.assign(core, key, now);
        }
    }

    /// Records a lazy continuation claim: counts it and schedules the
    /// preemption-boundary marker at the current lowest-priority victim's
    /// node boundary. The marker carries the victim's assignment id, so it
    /// is provably stale when it fires (the victim's completion at the
    /// same instant has an earlier tie) — inserting it shifts absolute tie
    /// values but never the relative order of other events, which is why
    /// the step-loop equivalence holds under the lazy policy too.
    fn mark_deferred_preemption(&mut self) {
        self.deferred_preemptions += 1;
        if let Some((victim_core, _)) = self.lowest_priority_running() {
            let r = self.cores[victim_core].expect("victim is running");
            let boundary = r.start + self.slab.job(r.job).nodes[r.node].remaining;
            self.queue.push(
                boundary,
                Event::PreemptionBoundary {
                    core: victim_core as u32,
                    assignment: r.assignment,
                },
            );
        }
    }

    /// `true` when some currently-running job has lower priority than
    /// `job` — the lazy policy's victim check.
    fn lower_priority_job_running(&self, job: (usize, u64)) -> bool {
        self.cores.iter().any(|slot| {
            slot.is_some_and(|r| {
                let running = self.slab.job(r.job);
                (running.task, running.seq) > job
            })
        })
    }

    /// The running node with the numerically largest (task, seq) — the
    /// lowest-priority victim candidate.
    fn lowest_priority_running(&self) -> Option<(usize, (usize, u64))> {
        self.cores
            .iter()
            .enumerate()
            .filter_map(|(c, slot)| {
                slot.map(|r| {
                    let job = self.slab.job(r.job);
                    (c, (job.task, job.seq))
                })
            })
            .max_by_key(|&(_, prio)| prio)
    }

    fn assign(&mut self, core: usize, key: ReadyKey, now: Time) {
        let (task, seq, node, job_idx) = (key.task(), key.seq(), key.node(), key.slot());
        let job = self.slab.job_mut(job_idx);
        debug_assert_eq!(job.nodes[node].state, NodeState::Ready);
        job.nodes[node].state = NodeState::Running;
        let finish = now + job.nodes[node].remaining;
        self.next_assignment += 1;
        let assignment = self.next_assignment;
        self.idle_cores -= 1;
        self.cores[core] = Some(Running {
            job: job_idx,
            node,
            assignment,
            start: now,
        });
        self.queue.push(
            finish,
            Event::NodeCompletion {
                core: core as u32,
                assignment,
            },
        );
        self.record(TraceEvent {
            time: now,
            task,
            job: seq,
            node,
            core,
            kind: TraceEventKind::Start,
        });
    }

    fn preempt(&mut self, core: usize, now: Time) {
        let running = self.cores[core].take().expect("preempting an idle core");
        self.idle_cores += 1;
        let job = self.slab.job_mut(running.job);
        let executed = now - running.start;
        debug_assert!(
            executed < job.nodes[running.node].remaining,
            "a node finishing now would have completed before scheduling"
        );
        job.nodes[running.node].remaining -= executed;
        job.nodes[running.node].state = NodeState::Ready;
        let key = ReadyKey::new(job.task, job.seq, running.node, running.job);
        let (task, seq) = (job.task, job.seq);
        self.ready.insert(key);
        self.record(TraceEvent {
            time: now,
            task,
            job: seq,
            node: running.node,
            core,
            kind: TraceEventKind::Preempt,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Jitter, Release};
    use rta_model::{DagBuilder, DagTask, NodeId};

    fn single(wcet: Time, period: Time) -> DagTask {
        let mut b = DagBuilder::new();
        b.add_node(wcet);
        DagTask::with_implicit_deadline(b.build().unwrap(), period).unwrap()
    }

    fn fork_join(wcets: [Time; 4], period: Time) -> DagTask {
        let mut b = DagBuilder::new();
        let v: Vec<NodeId> = b.add_nodes(wcets);
        b.add_edge(v[0], v[1]).unwrap();
        b.add_edge(v[0], v[2]).unwrap();
        b.add_edge(v[1], v[3]).unwrap();
        b.add_edge(v[2], v[3]).unwrap();
        DagTask::with_implicit_deadline(b.build().unwrap(), period).unwrap()
    }

    #[test]
    fn lone_task_runs_at_graham_speed() {
        // Fork-join on 2 cores: v1(1) then v2(3) ∥ v3(2), then v4(1):
        // completion at 1 + 3 + 1 = 5.
        let ts = TaskSet::new(vec![fork_join([1, 3, 2, 1], 100)]);
        let result = SimRequest::new(2, 100).evaluate(&ts);
        assert_eq!(result.per_task()[0].jobs_completed, 1);
        assert_eq!(result.per_task()[0].max_response, 5);
        assert!(result.all_deadlines_met());
    }

    #[test]
    fn lone_task_serialized_on_one_core() {
        let ts = TaskSet::new(vec![fork_join([1, 3, 2, 1], 100)]);
        let result = SimRequest::new(1, 100).evaluate(&ts);
        assert_eq!(result.per_task()[0].max_response, 7); // volume
    }

    #[test]
    fn periodic_releases_counted() {
        let ts = TaskSet::new(vec![single(1, 10)]);
        let result = SimRequest::new(1, 100).evaluate(&ts);
        assert_eq!(result.per_task()[0].jobs_released, 10); // t = 0, 10, …, 90
        assert_eq!(result.per_task()[0].jobs_completed, 10);
        assert_eq!(result.per_task()[0].max_response, 1);
    }

    #[test]
    fn lp_blocking_observed() {
        // hp task period 10, lp NPR 9; the second hp job at t = 10 finds
        // the lp NPR (started at t = 2) running until 11 → response 3.
        let hp = single(2, 10);
        let lp = single(9, 100);
        let ts = TaskSet::new(vec![hp, lp]);
        let result = SimRequest::new(1, 20).with_trace(true).evaluate(&ts);
        // t=0: hp runs (0–2); lp starts at 2, runs to 11 (non-preemptive);
        // hp job 2 released at 10 waits until 11, finishes 13 → response 3.
        assert_eq!(result.per_task()[0].max_response, 3);
        assert!(result.all_deadlines_met());
    }

    #[test]
    fn fp_preempts_immediately() {
        // Same scenario fully preemptive: hp job 2 preempts lp at t = 10,
        // so its response stays 2.
        let hp = single(2, 10);
        let lp = single(9, 100);
        let ts = TaskSet::new(vec![hp, lp]);
        let result = SimRequest::new(1, 20)
            .with_policy(PreemptionPolicy::FullyPreemptive)
            .evaluate(&ts);
        assert_eq!(result.per_task()[0].max_response, 2);
        // The lp job still completes (preempted then resumed).
        assert_eq!(result.per_task()[1].jobs_completed, 1);
        assert!(result.all_deadlines_met());
    }

    #[test]
    fn fp_preempted_work_is_conserved() {
        // lp node of 9 preempted for 2 units finishes at 9 + 2 = 11 + … —
        // total busy time on the core equals total work.
        let hp = single(2, 10);
        let lp = single(9, 100);
        let ts = TaskSet::new(vec![hp, lp]);
        let result = SimRequest::new(1, 20)
            .with_policy(PreemptionPolicy::FullyPreemptive)
            .evaluate(&ts);
        // hp: 2 jobs × 2 = 4; lp: 9. Last completion = 13.
        assert_eq!(result.makespan(), 13);
    }

    fn chain(wcets: &[Time], period: Time) -> DagTask {
        let mut b = DagBuilder::new();
        let v: Vec<NodeId> = wcets.iter().map(|&w| b.add_node(w)).collect();
        b.add_chain(&v).unwrap();
        DagTask::with_implicit_deadline(b.build().unwrap(), period).unwrap()
    }

    /// The defining divergence of the two limited-preemption flavours.
    /// m = 2, H = (2, T 10), M = chain 5-5-5 (T 100), L = (9, T 100):
    /// at t = 10, H's second job is released just as M finishes a node
    /// while L's long NPR still runs on the other core. Eager preemption
    /// hands M's freed core to H (response 2); lazy preemption lets M
    /// continue — H must wait for the *lowest*-priority job L's boundary
    /// at t = 11 (response 3).
    #[test]
    fn lazy_defers_preemption_to_the_lowest_priority_boundary() {
        let ts = TaskSet::new(vec![single(2, 10), chain(&[5, 5, 5], 100), single(9, 100)]);
        let eager = SimRequest::new(2, 20).evaluate(&ts);
        assert_eq!(eager.per_task()[0].max_response, 2);
        let lazy = SimRequest::new(2, 20)
            .with_policy(PreemptionPolicy::LazyPreemptive)
            .evaluate(&ts);
        assert_eq!(lazy.per_task()[0].max_response, 3);
        // Lazy is kinder to the continuing middle job: it finishes at 15
        // instead of 16.
        assert_eq!(lazy.per_task()[1].max_response, 15);
        assert_eq!(eager.per_task()[1].max_response, 16);
        // Work is conserved under both policies.
        assert_eq!(eager.per_task()[2].jobs_completed, 1);
        assert_eq!(lazy.per_task()[2].jobs_completed, 1);
    }

    /// The same scenario through the request API: the honoured
    /// continuation claim is surfaced as a deferred-preemption count.
    #[test]
    fn deferred_preemptions_are_counted() {
        let ts = TaskSet::new(vec![single(2, 10), chain(&[5, 5, 5], 100), single(9, 100)]);
        let lazy = SimRequest::new(2, 20)
            .with_policy(PreemptionPolicy::LazyPreemptive)
            .evaluate(&ts);
        assert!(lazy.deferred_preemptions() > 0);
        let eager = SimRequest::new(2, 20).evaluate(&ts);
        assert_eq!(eager.deferred_preemptions(), 0);
    }

    #[test]
    fn lazy_equals_eager_without_contention() {
        // With a single task (or idle cores for every ready node) the
        // continuation claim never fires: both flavours produce identical
        // schedules.
        let ts = TaskSet::new(vec![fork_join([1, 3, 2, 1], 100), single(4, 50)]);
        let eager = SimRequest::new(4, 200).evaluate(&ts);
        let lazy = SimRequest::new(4, 200)
            .with_policy(PreemptionPolicy::LazyPreemptive)
            .evaluate(&ts);
        assert_eq!(eager.result(), lazy.result());
    }

    #[test]
    fn lazy_is_work_conserving() {
        // A freeing job with no ready continuation must hand its core to
        // whatever is ready — here the lower-priority task, which would
        // otherwise starve behind an idle continuation claim.
        let ts = TaskSet::new(vec![single(3, 100), single(5, 100)]);
        let lazy = SimRequest::new(1, 50)
            .with_policy(PreemptionPolicy::LazyPreemptive)
            .evaluate(&ts);
        // hp runs 0–3, lp runs 3–8 on the single core.
        assert_eq!(lazy.per_task()[1].max_response, 8);
        assert_eq!(lazy.makespan(), 8);
    }

    #[test]
    fn lazy_is_deterministic() {
        let ts = TaskSet::new(vec![
            single(3, 7),
            fork_join([1, 2, 2, 1], 13),
            single(6, 29),
        ]);
        let request = SimRequest::new(2, 500)
            .with_policy(PreemptionPolicy::LazyPreemptive)
            .with_release(Release::Sporadic {
                jitter: Jitter::Uniform(5),
            })
            .with_execution(ExecutionModel::Randomized { fraction: 0.5 })
            .with_seed(42);
        assert_eq!(request.evaluate(&ts), request.evaluate(&ts));
    }

    #[test]
    fn deadline_misses_detected() {
        // Two unit-period tasks of WCET 2 on one core: hopeless overload.
        let ts = TaskSet::new(vec![single(2, 2), single(2, 2)]);
        let result = SimRequest::new(1, 20).evaluate(&ts);
        assert!(result.total_deadline_misses() > 0);
    }

    #[test]
    fn deterministic_with_seed() {
        let ts = TaskSet::new(vec![single(3, 7), fork_join([1, 2, 2, 1], 13)]);
        let request = SimRequest::new(2, 500)
            .with_release(Release::Sporadic {
                jitter: Jitter::Uniform(5),
            })
            .with_execution(ExecutionModel::Randomized { fraction: 0.5 })
            .with_seed(42);
        let a = request.evaluate(&ts);
        let b = request.evaluate(&ts);
        assert_eq!(a, b);
        let c = request.clone().with_seed(43).evaluate(&ts);
        assert_ne!(a, c);
    }

    #[test]
    fn sporadic_spacing_respects_period() {
        let ts = TaskSet::new(vec![single(1, 10)]);
        let request = SimRequest::new(1, 200)
            .with_release(Release::Sporadic {
                jitter: Jitter::Uniform(7),
            })
            .with_seed(3);
        let result = request.evaluate(&ts);
        // With jitter ≥ 0, at most horizon/period jobs are released.
        assert!(result.per_task()[0].jobs_released <= 20);
        assert!(result.per_task()[0].jobs_released >= 10); // jitter ≤ 7 < 10
        assert!(result.all_deadlines_met());
    }

    #[test]
    fn parallel_tasks_share_cores() {
        // Two independent single-node tasks on two cores run concurrently.
        let ts = TaskSet::new(vec![single(5, 100), single(5, 100)]);
        let result = SimRequest::new(2, 10).evaluate(&ts);
        assert_eq!(result.per_task()[0].max_response, 5);
        assert_eq!(result.per_task()[1].max_response, 5);
    }

    #[test]
    fn trace_records_gantt() {
        let ts = TaskSet::new(vec![single(2, 10), single(3, 10)]);
        let result = SimRequest::new(1, 10).with_trace(true).evaluate(&ts);
        let trace = result.trace().expect("trace enabled");
        let gantt = trace.gantt(1, 5);
        assert_eq!(gantt.trim_end(), "core 0: 11222");
    }

    #[test]
    fn randomized_execution_bounded_by_wcet() {
        let ts = TaskSet::new(vec![single(10, 50)]);
        let request = SimRequest::new(1, 500)
            .with_execution(ExecutionModel::Randomized { fraction: 0.3 })
            .with_seed(9);
        let result = request.evaluate(&ts);
        assert!(result.per_task()[0].max_response <= 10);
        assert!(result.per_task()[0].max_response >= 3);
    }
}
