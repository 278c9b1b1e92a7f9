//! The response-time fixed-point iteration (paper Eqs. (1) and (4)).
//!
//! For each task, from highest to lowest priority:
//!
//! ```text
//! R_k ← L_k + (1/m)(vol(G_k) − L_k) + ⌊(1/m)(I_lp_k + I_hp_k)⌋
//! ```
//!
//! starting at `R⁰_k = L_k + (vol − L)/m` and iterating until the value is
//! stable or provably exceeds the deadline. All quantities are kept scaled
//! by `m` (units of `1/m` time), so the rational self-interference term and
//! the `⌈R/T⌉` ceilings are computed exactly in integer arithmetic. The
//! update is monotone non-decreasing, so the iteration converges to the
//! least fixed point or crosses `m·D_k` in finitely many steps (each step
//! increases the scaled value by at least 1).

use crate::blocking::lpmax::lp_max_blocking;
use crate::blocking::scenarios::lp_ilp_blocking;
use crate::blocking::sound::SoundBlocking;
use crate::blocking::BlockingBounds;
use crate::cache::TaskSetCache;
use crate::config::{AnalysisConfig, Method};
use crate::gen_sporadic::gen_sporadic_workload;
use crate::long_paths::long_path_bound;
use crate::report::{AnalysisReport, ResponseBound, TaskReport};
use crate::workload::interfering_workload;
use rta_model::{TaskId, TaskSet, Time};
use std::borrow::Cow;

/// Analyzes a task set, producing per-task response-time bounds and the
/// overall schedulability verdict.
///
/// Tasks are processed in priority order; analysis stops after the first
/// unschedulable task. See the crate docs for an end-to-end example.
///
/// Builds a [`TaskSetCache`] internally, so the per-task µ-arrays and the
/// per-cardinality Δ rows are computed once and shared across all tasks
/// under analysis. To share them across methods or calls too, evaluate an
/// [`AnalysisRequest`](crate::AnalysisRequest) (bounds on request) through
/// [`AnalysisRequest::evaluate_with`](crate::AnalysisRequest::evaluate_with).
/// The report is bit-identical to the uncached reference path
/// [`analyze_uncached`].
///
/// # Panics
///
/// Panics if `config.cores == 0` (prevented by
/// [`AnalysisConfig::new`]).
pub fn analyze(task_set: &TaskSet, config: &AnalysisConfig) -> AnalysisReport {
    let cache = TaskSetCache::new(task_set, config.cores);
    analyze_cached(&cache, config)
}

/// The schedulability verdict of one configuration through a caller-owned
/// cache: the `schedulable` flag of [`analyze`]. No dominance shortcuts —
/// callers wanting those use a verdict-only
/// [`AnalysisRequest`](crate::AnalysisRequest).
///
/// # Panics
///
/// Panics if `config.cores == 0` or `config.cores > cache.max_cores()`.
pub(crate) fn verdict_with(cache: &TaskSetCache<'_>, config: &AnalysisConfig) -> bool {
    analyze_cached(cache, config).schedulable
}

/// Per-task response bounds and the verdict of one configuration — the
/// bound-carrying evaluation behind
/// [`AnalysisRequest::evaluate_with`](crate::AnalysisRequest::evaluate_with):
/// the `(schedulable, response bounds of the analyzed prefix)` projection
/// of the full report.
pub(crate) fn bounds_with(
    cache: &TaskSetCache<'_>,
    config: &AnalysisConfig,
) -> (bool, Vec<ResponseBound>) {
    let report = analyze_cached(cache, config);
    (
        report.schedulable,
        report.tasks.iter().map(|t| t.response_bound).collect(),
    )
}

/// The full report through `cache`, timed into the method's verdict
/// histogram: the one entry behind [`analyze`], [`verdict_with`] and the
/// bound-carrying request shape.
fn analyze_cached(cache: &TaskSetCache<'_>, config: &AnalysisConfig) -> AnalysisReport {
    assert!(
        config.cores <= cache.max_cores(),
        "config wants {} cores but the cache was built for {}",
        config.cores,
        cache.max_cores()
    );
    let start = std::time::Instant::now();
    let report = analyze_tasks(cache.task_set(), config, |k| TaskInputs {
        longest_path: cache.longest_path(k),
        volume: cache.volume(k),
        deadline: cache.deadline(k),
        preemption_points: cache.preemption_points(k),
        blocking: cache.blocking_for(k, config),
        sound: cache.sound_blocking_for(k, config),
        long_path_decomposition: (config.method == Method::LongPaths)
            .then(|| Cow::Borrowed(cache.long_path_decomposition(k))),
    });
    crate::metrics::verdict_ns(config.method).observe_since(start);
    report
}

/// The per-call reference analysis: recomputes every input of every task
/// straight from the model — each lower-priority task's µ-array and both Δ
/// bounds included, per task under analysis.
///
/// Kept as the independent check the cached path is pinned against (tests
/// assert bit-identical [`AnalysisReport`]s) and as the baseline of
/// `benches/cache.rs`. Use [`analyze`] everywhere else.
///
/// # Panics
///
/// Panics if `config.cores == 0`.
pub fn analyze_uncached(task_set: &TaskSet, config: &AnalysisConfig) -> AnalysisReport {
    analyze_tasks(task_set, config, |k| {
        let task = task_set.task(k);
        let dag = task.dag();
        let lp = task_set.lower_priority(k);
        TaskInputs {
            longest_path: dag.longest_path(),
            volume: dag.volume(),
            deadline: task.deadline(),
            preemption_points: dag.preemption_points(),
            blocking: match config.method {
                // LP-sound has no (Δ^m, Δ^{m−1}) pair — its window-dependent
                // term is built separately and evaluated per fixed-point
                // iterate. The two fully-preemptive competitor methods have
                // no blocking at all.
                Method::FpIdeal | Method::LpSound | Method::LongPaths | Method::GenSporadic => None,
                Method::LpMax => Some(lp_max_blocking(lp, config.cores)),
                Method::LpIlp => Some(lp_ilp_blocking(lp, config.cores, config.scenario_space)),
            },
            sound: (config.method == Method::LpSound).then(|| SoundBlocking::new(lp, config.cores)),
            long_path_decomposition: (config.method == Method::LongPaths)
                .then(|| Cow::Owned(dag.long_path_decomposition())),
        }
    })
}

/// Everything the fixed point reads about one task under analysis,
/// gathered by the caller — from the [`TaskSetCache`] or straight from the
/// model.
struct TaskInputs<'a> {
    longest_path: Time,
    volume: Time,
    deadline: Time,
    preemption_points: usize,
    /// The `(Δ^m, Δ^{m−1})` pair (LP-ILP and LP-max only).
    blocking: Option<BlockingBounds>,
    /// The window-dependent sound term (LP-sound only).
    sound: Option<SoundBlocking>,
    /// The long-chain decomposition (Long-paths only).
    long_path_decomposition: Option<Cow<'a, [Time]>>,
}

/// The per-task loop every analysis runs: tasks in priority order, each
/// one's inputs taken from `inputs(k)`, stopping after the first
/// unschedulable task.
fn analyze_tasks<'a>(
    task_set: &TaskSet,
    config: &AnalysisConfig,
    inputs: impl Fn(usize) -> TaskInputs<'a>,
) -> AnalysisReport {
    assert!(config.cores >= 1, "at least one core required");
    let mut tasks = Vec::with_capacity(task_set.len());
    let mut schedulable = true;
    // Scaled response bounds of already-analyzed (higher-priority) tasks.
    let mut hp_bounds: Vec<u128> = Vec::with_capacity(task_set.len());

    for k in 0..task_set.len() {
        let task = inputs(k);
        let outcome = match &task.long_path_decomposition {
            Some(decomposition) => {
                long_paths_outcome(&task, task_set, k, &hp_bounds, decomposition, config)
            }
            None => fixed_point(&task, task_set, k, &hp_bounds, config),
        };
        tasks.push(TaskReport {
            task: TaskId::new(k),
            response_bound: ResponseBound::from_scaled(outcome.scaled, config.cores as u32),
            schedulable: outcome.schedulable,
            blocking: task.blocking,
            preemption_bound: outcome.preemptions,
            iterations: outcome.iterations,
        });
        if !outcome.schedulable {
            schedulable = false;
            break;
        }
        hp_bounds.push(outcome.scaled);
    }

    AnalysisReport {
        schedulable,
        cores: config.cores,
        method: config.method,
        tasks,
    }
}

struct FixedPointOutcome {
    /// Scaled (`m·R`) response bound; when `schedulable` is false, the first
    /// iterate that crossed the deadline.
    scaled: u128,
    schedulable: bool,
    preemptions: u64,
    iterations: u32,
}

/// The total higher-priority interfering workload (plain execution units)
/// over a window of scaled length `window_scaled`, Melani-bounded with the
/// analyzed response bounds — the `I` the long-path refinement consumes.
fn hp_interference(
    task_set: &TaskSet,
    k: usize,
    hp_bounds: &[u128],
    window_scaled: u128,
    cores: usize,
) -> u128 {
    task_set
        .higher_priority(k)
        .iter()
        .zip(hp_bounds)
        .map(|(t, &r_i)| {
            interfering_workload(window_scaled, r_i, t.dag().volume(), t.period(), cores)
        })
        .sum()
}

/// The [`Method::LongPaths`] driver: the fully-preemptive fixed point —
/// fed this method's **own** higher-priority bounds — post-refined by the
/// long-path stall bound of [`crate::long_paths`], with one
/// deadline-window rescue attempt when the Graham-shaped recurrence
/// diverges (see the module docs there for why both windows are sound and
/// why an FP-ideal failure does not settle this method).
fn long_paths_outcome(
    task: &TaskInputs<'_>,
    task_set: &TaskSet,
    k: usize,
    hp_bounds: &[u128],
    decomposition: &[Time],
    config: &AnalysisConfig,
) -> FixedPointOutcome {
    let m = config.cores as u128;
    let deadline_scaled = m * task.deadline as u128;
    let base = fixed_point(task, task_set, k, hp_bounds, config);
    if base.schedulable {
        // The converged window certifies its own interference; the `min`
        // makes per-task dominance over the Graham value structural.
        let i = hp_interference(task_set, k, hp_bounds, base.scaled, config.cores);
        let refined = long_path_bound(i, decomposition, task.volume, config.cores).min(base.scaled);
        FixedPointOutcome {
            scaled: refined,
            ..base
        }
    } else {
        // Rescue: assume-and-verify over the deadline window — before the
        // earliest miss every response window fits inside its deadline
        // window, so a refined bound at or below `m·D_k` is sound even
        // though the Graham recurrence never converged.
        let i = hp_interference(task_set, k, hp_bounds, deadline_scaled, config.cores);
        let refined = long_path_bound(i, decomposition, task.volume, config.cores);
        if refined <= deadline_scaled {
            FixedPointOutcome {
                scaled: refined,
                schedulable: true,
                ..base
            }
        } else {
            base
        }
    }
}

fn fixed_point(
    task: &TaskInputs<'_>,
    task_set: &TaskSet,
    k: usize,
    hp_bounds: &[u128],
    config: &AnalysisConfig,
) -> FixedPointOutcome {
    let m = config.cores as u128;
    let longest = task.longest_path as u128;
    let volume = task.volume as u128;
    let deadline_scaled = m * task.deadline as u128;
    let q = task.preemption_points as u128;
    // R⁰ = L + (vol − L)/m, scaled: m·L + (vol − L).
    let base = m * longest + (volume - longest);

    // Loop-invariant higher-priority quantities, hoisted out of the
    // iteration: the scaled period `m·T_i` behind every ⌈·⌉, plus the
    // volume, period and deadline the workload bounds read.
    let hp_invariants: Vec<(u128, Time, Time, Time)> = task_set
        .higher_priority(k)
        .iter()
        .map(|t| {
            (
                m * t.period() as u128,
                t.dag().volume(),
                t.period(),
                t.deadline(),
            )
        })
        .collect();

    let mut r = base;
    let mut iterations = 0u32;
    loop {
        iterations += 1;
        // h_k = Σ_{i ∈ hp(k)} ⌈t/T_i⌉ with t the current response window;
        // ⌈(r/m)/T⌉ = ⌈r/(m·T)⌉ exactly.
        let h: u128 = hp_invariants
            .iter()
            .map(|&(scaled_period, ..)| r.div_ceil(scaled_period))
            .sum();
        let p = q.min(h);
        // Event-counted blocking (LP-ILP / LP-max) or the sound
        // window-workload term (LP-sound) — at most one is present.
        let i_lp: u128 = task.blocking.map_or(0, |b| b.interference(p))
            + task.sound.as_ref().map_or(0, |s| s.interference(r));
        let i_hp: u128 = if config.method == Method::GenSporadic {
            // Contract-anchored interference ([`crate::gen_sporadic`]):
            // deadline-anchored Melani windows, independent of the
            // analyzed higher-priority response bounds.
            hp_invariants
                .iter()
                .map(|&(_, vol, period, deadline)| {
                    gen_sporadic_workload(r, vol, period, deadline, config.cores)
                })
                .sum()
        } else {
            hp_invariants
                .iter()
                .zip(hp_bounds)
                .map(|(&(_, vol, period, _), &r_i)| {
                    interfering_workload(r, r_i, vol, period, config.cores)
                })
                .sum()
        };
        let r_new = base + m * ((i_lp + i_hp) / m);
        debug_assert!(r_new >= r, "fixed-point iteration must be monotone");
        let preemptions = u64::try_from(p).expect("preemption bound fits u64");
        if r_new == r {
            crate::metrics::FIXED_POINT_ITERS.add(u64::from(iterations));
            return FixedPointOutcome {
                scaled: r,
                schedulable: r <= deadline_scaled,
                preemptions,
                iterations,
            };
        }
        if r_new > deadline_scaled {
            crate::metrics::FIXED_POINT_ITERS.add(u64::from(iterations));
            return FixedPointOutcome {
                scaled: r_new,
                schedulable: false,
                preemptions,
                iterations,
            };
        }
        r = r_new;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Method, ScenarioSpace};
    use crate::request::AnalysisRequest;
    use rta_model::examples::figure1_task_set;
    use rta_model::{DagBuilder, DagTask, NodeId};

    fn single_node_task(wcet: u64, period: u64) -> DagTask {
        let mut b = DagBuilder::new();
        b.add_node(wcet);
        DagTask::with_implicit_deadline(b.build().unwrap(), period).unwrap()
    }

    fn fork_join(wcets: [u64; 4], period: u64) -> DagTask {
        let mut b = DagBuilder::new();
        let v: Vec<NodeId> = b.add_nodes(wcets);
        b.add_edge(v[0], v[1]).unwrap();
        b.add_edge(v[0], v[2]).unwrap();
        b.add_edge(v[1], v[3]).unwrap();
        b.add_edge(v[2], v[3]).unwrap();
        DagTask::with_implicit_deadline(b.build().unwrap(), period).unwrap()
    }

    #[test]
    fn lone_task_bound_is_graham() {
        // Single task, no interference: R = L + (vol − L)/m.
        let ts = TaskSet::new(vec![fork_join([1, 3, 2, 1], 100)]);
        // L = 1+3+1 = 5, vol = 7.
        let report = analyze(&ts, &AnalysisConfig::new(2, Method::FpIdeal));
        assert!(report.schedulable);
        let r = report.tasks[0].response_bound;
        assert_eq!(r.scaled(), 2 * 5 + (7 - 5)); // 12 → R = 6
        assert_eq!(r.ceil(), 6);
        assert_eq!(report.tasks[0].iterations, 1);
    }

    #[test]
    fn highest_priority_lp_task_blocked_once() {
        // Two single-node tasks; the lower-priority one has WCET 9, so the
        // top task is blocked by Δ¹ = 9 on m = 1 with p = 0.
        let ts = TaskSet::new(vec![single_node_task(2, 20), single_node_task(9, 50)]);
        let report = analyze(&ts, &AnalysisConfig::new(1, Method::LpMax));
        let top = &report.tasks[0];
        assert_eq!(top.blocking.unwrap().delta_m, 9);
        assert_eq!(top.preemption_bound, 0);
        // R = 2 + ⌊9/1⌋ = 11.
        assert_eq!(top.response_bound.ceil(), 11);
        assert!(top.schedulable);
    }

    #[test]
    fn two_tasks_with_interference_hand_computed() {
        // m = 1, FP-ideal, classic RTA: τ1 (C=2, T=10), τ2 (C=3, T=20).
        // R1 = 2. R2: 3 + W1(R2). Iteration: R=3 → W = ⌊(3+2−2)/10⌋·2 +
        // min(2, (3)%10) = 0·2 + min(2,3) = 2 → R=5 → W = min(2,5)=2 → 5 ✓.
        let ts = TaskSet::new(vec![single_node_task(2, 10), single_node_task(3, 20)]);
        let report = analyze(&ts, &AnalysisConfig::new(1, Method::FpIdeal));
        assert!(report.schedulable);
        assert_eq!(report.tasks[0].response_bound.ceil(), 2);
        assert_eq!(report.tasks[1].response_bound.ceil(), 5);
    }

    #[test]
    fn figure1_example_analyzes_schedulably() {
        // All four methods — including the corrected LP-sound bound —
        // schedule the paper's running example on its m = 4 platform.
        let ts = figure1_task_set();
        for method in Method::ALL {
            let report = analyze(&ts, &AnalysisConfig::new(4, method));
            assert!(report.schedulable, "{method} should schedule the example");
            assert_eq!(report.tasks.len(), 5);
        }
    }

    #[test]
    fn figure1_blocking_matches_tables() {
        let ts = figure1_task_set();
        let report = analyze(&ts, &AnalysisConfig::new(4, Method::LpIlp));
        let b = report.tasks[0].blocking.unwrap();
        assert_eq!(b.delta_m, 19); // Table III maximum
        assert_eq!(b.delta_m_minus_one, 15);
        let report = analyze(&ts, &AnalysisConfig::new(4, Method::LpMax));
        let b = report.tasks[0].blocking.unwrap();
        assert_eq!(b.delta_m, 20); // Eq. (5) on the same example
        assert_eq!(b.delta_m_minus_one, 16);
    }

    #[test]
    fn method_dominance_on_example() {
        // Per-task bounds: FP-ideal ≤ LP-ILP ≤ LP-max, and FP-ideal ≤
        // LP-sound (the only theorem edge the corrected bound joins).
        let ts = figure1_task_set();
        let fp = analyze(&ts, &AnalysisConfig::new(4, Method::FpIdeal));
        let ilp = analyze(&ts, &AnalysisConfig::new(4, Method::LpIlp));
        let max = analyze(&ts, &AnalysisConfig::new(4, Method::LpMax));
        let sound = analyze(&ts, &AnalysisConfig::new(4, Method::LpSound));
        for k in 0..ts.len() {
            let (f, i, m, s) = (
                fp.tasks[k].response_bound.scaled(),
                ilp.tasks[k].response_bound.scaled(),
                max.tasks[k].response_bound.scaled(),
                sound.tasks[k].response_bound.scaled(),
            );
            assert!(f <= i, "task {k}: FP {f} > ILP {i}");
            assert!(i <= m, "task {k}: ILP {i} > MAX {m}");
            assert!(f <= s, "task {k}: FP {f} > SOUND {s}");
        }
    }

    #[test]
    fn lp_sound_dominates_fp_ideal_per_task() {
        // LP-sound's fixed point is FP-ideal's plus a non-negative monotone
        // term, so every converged per-task bound is at least FP-ideal's.
        let ts = figure1_task_set();
        for cores in [1usize, 2, 4, 8] {
            let fp = analyze(&ts, &AnalysisConfig::new(cores, Method::FpIdeal));
            let sound = analyze(&ts, &AnalysisConfig::new(cores, Method::LpSound));
            for (f, s) in fp.tasks.iter().zip(&sound.tasks) {
                if !f.schedulable || !s.schedulable {
                    break;
                }
                assert!(
                    s.response_bound.scaled() >= f.response_bound.scaled(),
                    "m = {cores}: LP-sound below FP-ideal"
                );
            }
        }
    }

    #[test]
    fn long_paths_never_exceeds_fp_ideal_per_task() {
        // The `min` against the Graham value in `long_paths_outcome`, plus
        // the hp-bound induction, makes per-task R_LongPaths ≤ R_FpIdeal
        // structural on any prefix both methods accept.
        let ts = figure1_task_set();
        for cores in [1usize, 2, 4, 8] {
            let fp = analyze(&ts, &AnalysisConfig::new(cores, Method::FpIdeal));
            let lp = analyze(&ts, &AnalysisConfig::new(cores, Method::LongPaths));
            for (f, l) in fp.tasks.iter().zip(&lp.tasks) {
                if !f.schedulable || !l.schedulable {
                    break;
                }
                assert!(
                    l.response_bound.scaled() <= f.response_bound.scaled(),
                    "m = {cores}: Long-paths above FP-ideal"
                );
            }
        }
    }

    #[test]
    fn gen_sporadic_dominates_fp_ideal_per_task() {
        // Deadline-anchored carry-in windows are at least the analyzed
        // response windows of an accepted prefix, so per-task
        // R_FpIdeal ≤ R_GenSporadic (the verdict edge the request layer
        // exploits in the other direction).
        let ts = figure1_task_set();
        for cores in [1usize, 2, 4, 8] {
            let fp = analyze(&ts, &AnalysisConfig::new(cores, Method::FpIdeal));
            let gs = analyze(&ts, &AnalysisConfig::new(cores, Method::GenSporadic));
            for (f, g) in fp.tasks.iter().zip(&gs.tasks) {
                if !f.schedulable || !g.schedulable {
                    break;
                }
                assert!(
                    g.response_bound.scaled() >= f.response_bound.scaled(),
                    "m = {cores}: Gen-sporadic below FP-ideal"
                );
            }
        }
    }

    #[test]
    fn long_paths_tightens_a_two_chain_dag() {
        // Two independent nodes of 10 and 6 on m = 3: Graham charges
        // R = 10 + (16 − 10)/3 = 12; both chains fit on the 3 cores, so
        // the long-path bound is exactly the critical path, R = 10.
        let mut b = DagBuilder::new();
        b.add_node(10);
        b.add_node(6);
        let ts = TaskSet::new(vec![DagTask::with_implicit_deadline(
            b.build().unwrap(),
            100,
        )
        .unwrap()]);
        let fp = analyze(&ts, &AnalysisConfig::new(3, Method::FpIdeal));
        let lp = analyze(&ts, &AnalysisConfig::new(3, Method::LongPaths));
        assert_eq!(fp.tasks[0].response_bound.ceil(), 12);
        assert_eq!(lp.tasks[0].response_bound.ceil(), 10);
    }

    #[test]
    fn gen_sporadic_carries_no_blocking_pair() {
        let ts = figure1_task_set();
        for method in [Method::LongPaths, Method::GenSporadic] {
            let report = analyze(&ts, &AnalysisConfig::new(4, method));
            for t in &report.tasks {
                assert!(t.blocking.is_none(), "{method} must carry no blocking");
            }
        }
    }

    #[test]
    fn lp_sound_carries_no_blocking_pair() {
        // The corrected term is window-dependent; the report's constant
        // (Δ^m, Δ^{m−1}) slot stays empty, like FP-ideal's.
        let ts = figure1_task_set();
        let report = analyze(&ts, &AnalysisConfig::new(4, Method::LpSound));
        for t in &report.tasks {
            assert!(t.blocking.is_none());
        }
    }

    #[test]
    fn lp_sound_alone_equals_fp_ideal() {
        // A lone task has neither higher- nor lower-priority interference:
        // the sound term is empty and the bound is exactly the Graham term
        // FP-ideal computes. (For a lowest-priority task inside a set the
        // bounds differ: the higher-priority carry-in windows use the
        // method's own — larger — response bounds.)
        let ts = TaskSet::new(vec![fork_join([1, 3, 2, 1], 100)]);
        let fp = analyze(&ts, &AnalysisConfig::new(2, Method::FpIdeal));
        let sound = analyze(&ts, &AnalysisConfig::new(2, Method::LpSound));
        assert!(sound.schedulable);
        assert_eq!(fp.tasks[0].response_bound, sound.tasks[0].response_bound);
    }

    #[test]
    fn lp_sound_blocks_highest_priority_task_mid_job() {
        // The defining scenario of the correction: the top task has p = 0,
        // so the paper's Eq. (3) charges at most one blocking event — the
        // sound term instead charges the lower-priority carry-in workload
        // of the whole window. m = 1, lp NPR of 9: LP-max gives R = 2 + 9
        // = 11; LP-sound additionally admits further lp workload in the
        // window (here the window stays short, so one job: same 11).
        let ts = TaskSet::new(vec![single_node_task(2, 20), single_node_task(9, 50)]);
        let max = analyze(&ts, &AnalysisConfig::new(1, Method::LpMax));
        let sound = analyze(&ts, &AnalysisConfig::new(1, Method::LpSound));
        assert!(sound.schedulable);
        assert!(
            sound.tasks[0].response_bound.scaled() >= max.tasks[0].response_bound.scaled(),
            "one lp job's volume subsumes its single NPR here"
        );
    }

    #[test]
    fn unschedulable_set_stops_early() {
        // Huge lower-priority NPR blocks a tight top task on one core.
        let ts = TaskSet::new(vec![single_node_task(2, 5), single_node_task(100, 1000)]);
        let report = analyze(&ts, &AnalysisConfig::new(1, Method::LpMax));
        assert!(!report.schedulable);
        assert_eq!(report.tasks.len(), 1); // stops at the first failure
        assert!(!report.tasks[0].schedulable);
        // FP-ideal has no blocking and schedules both.
        let fp = analyze(&ts, &AnalysisConfig::new(1, Method::FpIdeal));
        assert!(fp.schedulable);
        assert_eq!(fp.tasks.len(), 2);
    }

    #[test]
    fn deadline_equal_bound_is_schedulable() {
        // R = D exactly must count as schedulable (R ≤ D).
        let ts = TaskSet::new(vec![single_node_task(7, 7)]);
        let report = analyze(&ts, &AnalysisConfig::new(1, Method::FpIdeal));
        assert!(report.schedulable);
        assert_eq!(report.tasks[0].response_bound.ceil(), 7);
    }

    #[test]
    fn preemption_bound_counts_hp_releases() {
        // τ2 (8 nodes, q = 7) under a fast τ1: p = min(q, ⌈R/T1⌉).
        let mut b = DagBuilder::new();
        let v: Vec<NodeId> = b.add_nodes([1, 1, 1, 1, 1, 1, 1, 1]);
        b.add_chain(&v).unwrap();
        let slow = DagTask::with_implicit_deadline(b.build().unwrap(), 100).unwrap();
        let fast = single_node_task(1, 4);
        let ts = TaskSet::new(vec![fast, slow]);
        let report = analyze(&ts, &AnalysisConfig::new(2, Method::LpMax));
        assert!(report.schedulable);
        let t2 = &report.tasks[1];
        // No lower-priority tasks for τ2 → blocking zero, but p still
        // reported from the window.
        assert_eq!(t2.blocking.unwrap(), BlockingBounds::default());
        assert!(t2.preemption_bound >= 1);
        assert!(t2.preemption_bound <= 7);
    }

    #[test]
    fn extended_space_is_at_least_as_conservative() {
        // The default Extended scenario space accounts for blocking that the
        // paper's exact space misses when |lp(k)| < |s_l| for every feasible
        // scenario; its bounds dominate PaperExact's.
        let ts = figure1_task_set();
        let extended = analyze(&ts, &AnalysisConfig::new(4, Method::LpIlp));
        let exact = analyze(
            &ts,
            &AnalysisConfig::new(4, Method::LpIlp).with_scenario_space(ScenarioSpace::PaperExact),
        );
        for (e, p) in extended.tasks.iter().zip(&exact.tasks) {
            assert!(e.response_bound.scaled() >= p.response_bound.scaled());
        }
    }

    /// The `(schedulable, bounds)` projection of a full report — what a
    /// bound-carrying request answers per method.
    fn projection(report: &AnalysisReport) -> (bool, Vec<ResponseBound>) {
        let bounds = report.tasks.iter().map(|t| t.response_bound).collect();
        (report.schedulable, bounds)
    }

    /// Every bound-carrying outcome of `request` through `cache`, as
    /// `(config, schedulable, bounds)`.
    fn request_bounds(
        request: &AnalysisRequest,
        cache: &TaskSetCache<'_>,
    ) -> Vec<(AnalysisConfig, bool, Vec<ResponseBound>)> {
        request
            .evaluate_with(cache)
            .into_outcomes()
            .into_iter()
            .map(|o| {
                let bounds = o.bounds.expect("bounds were requested");
                (request.config_for(o.method), o.schedulable, bounds)
            })
            .collect()
    }

    #[test]
    fn cached_paths_are_bit_identical_to_uncached() {
        // `analyze`, requests sharing one cache across methods and
        // `analyze_uncached` must agree to the bit on every method, core
        // count and scenario space.
        let ts = figure1_task_set();
        for cores in 1..=6 {
            let cache = TaskSetCache::new(&ts, cores);
            let all = AnalysisRequest::new(cores).with_bounds(true);
            let requests = [
                all.clone(),
                all.with_methods([Method::LpIlp])
                    .with_scenario_space(ScenarioSpace::PaperExact),
            ];
            for request in &requests {
                for (config, schedulable, bounds) in request_bounds(request, &cache) {
                    let reference = analyze_uncached(&ts, &config);
                    assert_eq!(analyze(&ts, &config), reference, "{config:?}");
                    assert_eq!(
                        (schedulable, bounds),
                        projection(&reference),
                        "request vs uncached, {config:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn one_cache_serves_smaller_core_counts() {
        // One cache built at the largest m must serve smaller slices
        // identically to dedicated analyses.
        let ts = figure1_task_set();
        let cache = TaskSetCache::new(&ts, 8);
        for cores in [1usize, 3, 4, 8] {
            let request = AnalysisRequest::new(cores)
                .with_methods([Method::LpIlp])
                .with_bounds(true);
            for (config, schedulable, bounds) in request_bounds(&request, &cache) {
                let reference = analyze_uncached(&ts, &config);
                assert_eq!((schedulable, bounds), projection(&reference), "{config:?}");
            }
        }
    }

    #[test]
    fn requests_share_a_cache_across_calls() {
        let ts = figure1_task_set();
        let cache = TaskSetCache::new(&ts, 4);
        let request = AnalysisRequest::new(4).with_bounds(true);
        let first = request_bounds(&request, &cache);
        assert_eq!(first, request_bounds(&request, &cache));
        for (config, schedulable, bounds) in first {
            let reference = analyze_uncached(&ts, &config);
            assert_eq!((schedulable, bounds), projection(&reference), "{config:?}");
        }
    }

    #[test]
    #[should_panic(expected = "cache was built for")]
    fn oversized_requests_are_rejected() {
        let ts = figure1_task_set();
        let cache = TaskSetCache::new(&ts, 2);
        let _ = AnalysisRequest::new(4).evaluate_with(&cache);
    }

    #[test]
    #[should_panic(expected = "cache was built for")]
    fn verdict_with_rejects_oversized_configs() {
        let ts = figure1_task_set();
        let cache = TaskSetCache::new(&ts, 2);
        let _ = verdict_with(&cache, &AnalysisConfig::new(4, Method::FpIdeal));
    }

    #[test]
    fn request_bounds_mirror_full_reports() {
        // Schedulable and unschedulable sets, every method: a
        // bound-carrying outcome must carry exactly the bounds of the
        // analyzed prefix.
        let sets = [
            figure1_task_set(),
            TaskSet::new(vec![single_node_task(2, 5), single_node_task(100, 1000)]),
        ];
        for ts in &sets {
            for cores in [1usize, 4] {
                let outcome = AnalysisRequest::new(cores).with_bounds(true).evaluate(ts);
                for answer in outcome.outcomes() {
                    let report = analyze(ts, &AnalysisConfig::new(cores, answer.method));
                    assert_eq!(answer.schedulable, report.schedulable);
                    let (_, expected) = projection(&report);
                    assert_eq!(answer.bounds.as_ref(), Some(&expected));
                    assert_eq!(answer.bound(0), report.response_bound(0));
                }
            }
        }
    }

    #[test]
    fn single_core_lp_is_classic_blocking() {
        // m = 1: LP blocking reduces to the largest lower-priority NPR.
        let ts = TaskSet::new(vec![
            single_node_task(1, 10),
            single_node_task(4, 40),
            single_node_task(6, 60),
        ]);
        let r = analyze(&ts, &AnalysisConfig::new(1, Method::LpIlp));
        assert_eq!(r.tasks[0].blocking.unwrap().delta_m, 6);
        assert_eq!(r.tasks[1].blocking.unwrap().delta_m, 6);
        assert_eq!(r.tasks[2].blocking.unwrap().delta_m, 0);
    }
}
