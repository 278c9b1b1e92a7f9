//! The frozen pre-redesign engine, kept as the equivalence reference.
//!
//! This is the monolithic step-loop scheduler the event-driven core in
//! [`crate::engine`] replaced: job state lives in an unbounded `Vec`
//! (three heap allocations per release), predecessor counts are re-derived
//! from the model's bitsets on every release, and successor lists are
//! collected into fresh vectors on every node completion. It is **not** a
//! public API — it exists so that
//!
//! 1. the equivalence proptests can pin the new core bit-identical
//!    (stats *and* trace) to the original behavior across all preemption
//!    policies, the release models it knows and both execution models,
//!    and
//! 2. `BENCH_8.json` can measure the redesign's speedup against the real
//!    former implementation rather than a strawman.
//!
//! Do not modify the scheduling logic here: it is the specification the
//! event core is pinned against. It models synchronous releases and
//! sporadic releases with one [`Jitter::Uniform`] magnitude for every
//! task, and nothing else.

use crate::config::{ExecutionModel, PreemptionPolicy};
use crate::request::SimRequest;
use crate::scenario::{Jitter, Release};
use crate::stats::{SimResult, TaskStats};
use crate::trace::{Trace, TraceEvent, TraceEventKind};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rta_model::{TaskSet, Time};
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Event {
    Release { task: usize },
    Completion { core: usize, assignment: u64 },
}

/// Heap entry ordered by time, with a monotone tie-breaker for determinism.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Scheduled {
    time: Time,
    tie: u64,
    event: Event,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.tie).cmp(&(other.time, other.tie))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum NodeState {
    Waiting,
    Ready,
    Running,
    Done,
}

struct Job {
    task: usize,
    seq: u64,
    release: Time,
    abs_deadline: Time,
    state: Vec<NodeState>,
    waiting_preds: Vec<usize>,
    remaining: Vec<Time>,
    unfinished: usize,
}

#[derive(Clone, Copy)]
struct Running {
    job: usize,
    node: usize,
    assignment: u64,
    start: Time,
}

/// Priority-ordered key of a ready node: `(task, job seq, node, job index)`.
type ReadyKey = (usize, u64, usize, usize);

struct Engine<'a> {
    task_set: &'a TaskSet,
    config: &'a SimRequest,
    /// The uniform release jitter; 0 (no draws) for synchronous releases.
    jitter: Time,
    rng: SmallRng,
    heap: BinaryHeap<Reverse<Scheduled>>,
    tie: u64,
    jobs: Vec<Job>,
    ready: BTreeSet<ReadyKey>,
    cores: Vec<Option<Running>>,
    /// Which job `(task, seq)` freed each core at the current instant —
    /// the lazy policy's continuation claim, cleared after scheduling.
    freed_by: Vec<Option<(usize, u64)>>,
    next_assignment: u64,
    seq_counters: Vec<u64>,
    stats: Vec<TaskStats>,
    trace: Option<Trace>,
    makespan: Time,
}

/// Runs one simulation with the frozen step-loop reference engine.
///
/// Semantics are those of the simulator before the event-driven redesign;
/// see the module docs for why this is kept.
///
/// # Panics
///
/// Panics if `config` asks for a release model other than
/// [`Release::Synchronous`] or [`Release::Sporadic`] with
/// [`Jitter::Uniform`].
pub fn simulate_step_loop(task_set: &TaskSet, config: &SimRequest) -> SimResult {
    let jitter = match config.release {
        Release::Synchronous => 0,
        Release::Sporadic {
            jitter: Jitter::Uniform(jitter),
        } => jitter,
        ref other => panic!("the step loop does not model {other:?}"),
    };
    let mut engine = Engine {
        task_set,
        config,
        jitter,
        rng: SmallRng::seed_from_u64(config.seed),
        heap: BinaryHeap::new(),
        tie: 0,
        jobs: Vec::new(),
        ready: BTreeSet::new(),
        cores: vec![None; config.cores],
        freed_by: vec![None; config.cores],
        next_assignment: 0,
        seq_counters: vec![0; task_set.len()],
        stats: vec![TaskStats::default(); task_set.len()],
        trace: config.record_trace.then(Trace::new),
        makespan: 0,
    };
    engine.run();
    SimResult {
        per_task: engine.stats,
        makespan: engine.makespan,
        trace: engine.trace,
    }
}

impl Engine<'_> {
    fn push_event(&mut self, time: Time, event: Event) {
        self.tie += 1;
        self.heap.push(Reverse(Scheduled {
            time,
            tie: self.tie,
            event,
        }));
    }

    fn record(&mut self, event: TraceEvent) {
        if let Some(trace) = &mut self.trace {
            trace.push(event);
        }
    }

    fn run(&mut self) {
        // Initial releases.
        for task in 0..self.task_set.len() {
            let first = if self.jitter > 0 {
                self.rng.gen_range(0..=self.jitter)
            } else {
                0
            };
            if first < self.config.horizon {
                self.push_event(first, Event::Release { task });
            }
        }

        while let Some(&Reverse(next)) = self.heap.peek() {
            let now = next.time;
            self.makespan = self.makespan.max(now);
            // Drain every event at this instant before scheduling.
            while let Some(&Reverse(entry)) = self.heap.peek() {
                if entry.time != now {
                    break;
                }
                let Reverse(entry) = self.heap.pop().expect("peeked");
                match entry.event {
                    Event::Release { task } => self.handle_release(task, now),
                    Event::Completion { core, assignment } => {
                        self.handle_completion(core, assignment, now)
                    }
                }
            }
            self.schedule(now);
        }
    }

    fn handle_release(&mut self, task: usize, now: Time) {
        let t = self.task_set.task(task);
        let dag = t.dag();
        let seq = self.seq_counters[task];
        self.seq_counters[task] += 1;
        self.stats[task].jobs_released += 1;

        let n = dag.node_count();
        let mut job = Job {
            task,
            seq,
            release: now,
            abs_deadline: now + t.deadline(),
            state: vec![NodeState::Waiting; n],
            waiting_preds: (0..n)
                .map(|v| dag.predecessors(rta_model::NodeId::new(v)).len())
                .collect(),
            remaining: (0..n)
                .map(|v| self.draw_execution(dag.wcet(rta_model::NodeId::new(v))))
                .collect(),
            unfinished: n,
        };
        let job_idx = self.jobs.len();
        for v in 0..n {
            if job.waiting_preds[v] == 0 {
                job.state[v] = NodeState::Ready;
                self.ready.insert((task, seq, v, job_idx));
            }
        }
        self.jobs.push(job);
        self.record(TraceEvent {
            time: now,
            task,
            job: seq,
            node: usize::MAX,
            core: usize::MAX,
            kind: TraceEventKind::Release,
        });

        // Schedule the next release of this task.
        let extra = if self.jitter > 0 {
            self.rng.gen_range(0..=self.jitter)
        } else {
            0
        };
        let next = now + t.period() + extra;
        if next < self.config.horizon {
            self.push_event(next, Event::Release { task });
        }
    }

    fn draw_execution(&mut self, wcet: Time) -> Time {
        match self.config.execution {
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
        let job_idx = running.job;
        self.freed_by[core] = Some((self.jobs[job_idx].task, self.jobs[job_idx].seq));
        let node = running.node;
        let (task, seq) = (self.jobs[job_idx].task, self.jobs[job_idx].seq);
        self.record(TraceEvent {
            time: now,
            task,
            job: seq,
            node,
            core,
            kind: TraceEventKind::Finish,
        });

        let dag = self.task_set.task(task).dag();
        let successors: Vec<usize> = dag
            .successors(rta_model::NodeId::new(node))
            .iter()
            .collect();
        {
            let job = &mut self.jobs[job_idx];
            job.state[node] = NodeState::Done;
            job.remaining[node] = 0;
            job.unfinished -= 1;
        }
        for s in successors {
            let job = &mut self.jobs[job_idx];
            job.waiting_preds[s] -= 1;
            if job.waiting_preds[s] == 0 {
                job.state[s] = NodeState::Ready;
                self.ready.insert((task, seq, s, job_idx));
            }
        }

        if self.jobs[job_idx].unfinished == 0 {
            let job = &self.jobs[job_idx];
            let response = now - job.release;
            let missed = now > job.abs_deadline;
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
        }
    }

    fn schedule(&mut self, now: Time) {
        // Step 1: fill free cores with the highest-priority ready nodes —
        // except under lazy preemption, where a freeing job may keep its
        // core for its own continuation.
        if self.config.policy == PreemptionPolicy::LazyPreemptive {
            self.fill_lazily(now);
        } else {
            for core in 0..self.cores.len() {
                if self.cores[core].is_some() {
                    continue;
                }
                let Some(&key) = self.ready.first() else {
                    break;
                };
                self.ready.remove(&key);
                self.assign(core, key, now);
            }
        }
        // Continuation claims only live within the scheduling instant.
        self.freed_by.fill(None);

        // Step 2 (fully preemptive only): displace lower-priority running
        // nodes.
        if self.config.policy == PreemptionPolicy::FullyPreemptive {
            while let Some(&key) = self.ready.first() {
                let Some((victim_core, victim_prio)) = self.lowest_priority_running() else {
                    break;
                };
                // Compare job priorities: (task, seq). Nodes of the same job
                // never preempt each other.
                if (key.0, key.1) < victim_prio {
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
    fn fill_lazily(&mut self, now: Time) {
        for core in 0..self.cores.len() {
            if self.cores[core].is_some() {
                continue;
            }
            let Some(&global_best) = self.ready.first() else {
                break;
            };
            let key = match self.freed_by[core] {
                Some(owner) => {
                    let own_next = self
                        .ready
                        .range(
                            (owner.0, owner.1, 0, 0)..=(owner.0, owner.1, usize::MAX, usize::MAX),
                        )
                        .next()
                        .copied();
                    match own_next {
                        Some(own)
                            if (global_best.0, global_best.1) < owner
                                && self.lower_priority_job_running(owner) =>
                        {
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

    /// `true` when some currently-running job has lower priority than
    /// `job` — the lazy policy's victim check.
    fn lower_priority_job_running(&self, job: (usize, u64)) -> bool {
        self.cores.iter().any(|slot| {
            slot.is_some_and(|r| {
                let running = &self.jobs[r.job];
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
                    let job = &self.jobs[r.job];
                    (c, (job.task, job.seq))
                })
            })
            .max_by_key(|&(_, prio)| prio)
    }

    fn assign(&mut self, core: usize, key: ReadyKey, now: Time) {
        let (task, seq, node, job_idx) = key;
        debug_assert_eq!(self.jobs[job_idx].state[node], NodeState::Ready);
        self.jobs[job_idx].state[node] = NodeState::Running;
        self.next_assignment += 1;
        let assignment = self.next_assignment;
        self.cores[core] = Some(Running {
            job: job_idx,
            node,
            assignment,
            start: now,
        });
        let finish = now + self.jobs[job_idx].remaining[node];
        self.push_event(finish, Event::Completion { core, assignment });
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
        let job = &mut self.jobs[running.job];
        let executed = now - running.start;
        debug_assert!(
            executed < job.remaining[running.node],
            "a node finishing now would have completed before scheduling"
        );
        job.remaining[running.node] -= executed;
        job.state[running.node] = NodeState::Ready;
        let key = (job.task, job.seq, running.node, running.job);
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
