//! The simulation-backed validation campaign: `repro validate`.
//!
//! The paper's analysis produces response-time **upper bounds**; the
//! workspace ships a cycle-exact scheduler simulator (`rta-sim`) as the
//! executable counterpart. This module is the driver that actually runs
//! the two against each other, at campaign scale, and checks the soundness
//! invariants on every generated task set:
//!
//! 1. **No misses on accepted sets** — a set any method declares
//!    schedulable must show *zero* deadline misses when simulated under
//!    the scheduling model that method speaks about (LP-ILP / LP-max /
//!    LP-sound → the limited-preemptive simulators; FP-ideal → the
//!    fully-preemptive baseline simulator).
//! 2. **Bounds dominate observations** — for every task of an accepted
//!    set, the simulated maximum response time never exceeds the
//!    analytical bound (compared exactly, in scaled `m·R` units).
//! 3. **The FP baseline cross-check** — FP-ideal's bounds (Eq. (1), zero
//!    blocking) are validated against the *fully-preemptive* simulator,
//!    pinning the baseline leg of the paper's evaluation, not just the
//!    limited-preemptive contribution.
//!
//! # What the campaign found: the paper's LP bound is not sound
//!
//! Running this campaign at scale **empirically refutes strict soundness
//! of the paper's limited-preemptive bounds**: on a small fraction of
//! `m = 2` task sets (≈0.1% of the utilization sweep), the simulated
//! maximum response time exceeds the LP-ILP/LP-max bound by 1–3%. The
//! counterexamples are legitimate work-conserving eager-LP schedules (one
//! is frozen as a regression test below): whenever the DAG under analysis
//! leaves cores idle through its own precedence constraints, *newly
//! started* lower-priority NPRs occupy them and later block the task's
//! nodes — blocking the paper's `I_lp = Δ^m + p_k·Δ^{m−1}` term never
//! accounts for (the highest-priority task has `p_k = 0`, yet suffers
//! such blocking mid-job). This matches the unsoundness of prior global
//! limited-preemptive DAG analyses later demonstrated by Nasri, Nelissen
//! & Brandenburg (ECRTS 2019, "Response-Time Analysis of Limited-
//! Preemptive Parallel DAG Tasks Under Global Scheduling").
//!
//! # The corrected bound, held to a harder standard
//!
//! `rta_analysis::Method::LpSound` is the repository's corrected bound
//! (`rta_analysis::blocking::sound`): it charges the full lower-priority
//! carry-in workload of the window instead of counting blocking events.
//! Its soundness argument needs only work conservation, so the campaign
//! checks it against **both limited-preemption flavours** — the paper's
//! eager policy *and* the lazy policy of Nasri et al.
//! ([`rta_sim::PreemptionPolicy::LazyPreemptive`]) — and under every
//! release model; any exceedance or miss on an LP-sound-accepted set is a
//! **hard violation** (non-zero exit), exactly like the FP-ideal leg. The
//! paper's LP-ILP/LP-max legs are checked against the same two policies
//! but keep their *soft* counters:
//!
//! * **hard violations** — the FP-ideal and LP-sound legs (sound
//!   analyses): any miss or bound exceedance is a definite bug in this
//!   repository, and the CLI exits non-zero;
//! * **LP bound exceedances** — simulated response times above an LP-ILP/
//!   LP-max bound under either limited-preemption flavour: the expected,
//!   literature-documented optimism of the paper's analysis, reported per
//!   sweep point (`lp_bound_exceedances` column);
//! * **LP verdict misses** — an LP-ILP/LP-max-accepted set actually
//!   missing a deadline in simulation (a full counterexample to the
//!   schedulability *verdict*, not just the bound); none observed so far,
//!   reported in `lp_deadline_misses` and loudly printed if ever nonzero.
//!
//! The CSV additionally reports **bound tightness** — the ratio `sim max
//! RT / analytical bound`, worst task per set across the policies the
//! method was checked under, aggregated as mean/max over the accepted
//! sets of each sweep point — so it doubles as an empirical-pessimism
//! chart (values above 1 are exceedances).
//!
//! # Release models
//!
//! The analysis speaks about *sporadic* tasks, so its bounds must hold
//! for every legal release pattern. The campaign's default adversary is
//! the synchronous-periodic WCET pattern; [`ReleaseChoice`] promotes the
//! simulator's other patterns to first-class `--release` knobs (`sync`,
//! `jitter` — every inter-arrival of task `i` stretched by a uniform
//! random delay of up to a tenth of *its own* period `T_i` — and
//! `sporadic` — inter-arrivals stretched by up to a full own period),
//! and dedicated panels ([`ValidatePanel::Release`]) run the `m = 4`
//! utilization sweep under each non-synchronous pattern. Jitter is
//! first-class and per-task ([`rta_sim::Jitter::PeriodFraction`]); the
//! relative fraction of *random* release jitter is reported in the
//! `jitter` CSV column (0 for the deterministic synchronous pattern).
//! Every pattern keeps inter-arrivals at or above the period, so every
//! analysis remains on the hook: a violation under any of them is real.
//!
//! # The competitor panel
//!
//! The two published fully-preemptive competitor methods
//! ([`rta_analysis::Method::LongPaths`], the long-path stall refinement,
//! and [`rta_analysis::Method::GenSporadic`], the deadline-anchored
//! generalized-sporadic characterization) join the campaign as **sound**
//! legs: both are checked against the fully-preemptive simulator, and —
//! like FP-ideal and LP-sound — any miss or bound exceedance on a set
//! they accept is a hard violation with a non-zero exit.
//!
//! The analysis side runs through a bounds-carrying
//! [`rta_analysis::AnalysisRequest`]: the dominance-short-circuited
//! verdict path of the ordinary campaign panels discards per-task bounds,
//! which validation cannot live without. Cells flow through the same
//! streaming engine as every other panel ([`crate::exec::stream_indexed`]
//! feeding an O(1) per-point fold), so arbitrarily long validation
//! horizons and set counts never accumulate rows in memory.
//!
//! Panels: the utilization sweep on `m ∈ {2, 4, 8, 16}` (the m = 16
//! column exercises the mixed suffix-DP path of the analysis cache), the
//! constrained-deadline and chain-mixture populations of the campaign
//! panels, and the two release-model sweeps.

use crate::ascii;
use crate::campaign::{self, generated, Layout, PeriodFamily};
use crate::exec::{self, Jobs};
use crate::set_seed;
use rta_analysis::{AnalysisRequest, Method, ScenarioSpace};
use rta_model::TaskSet;
use rta_sim::{Jitter, PreemptionPolicy, Release, SimRequest};
use rta_taskgen::{chain_mix, group1};

/// Base seed of the validation panels (a fresh population, distinct from
/// both the Figure 2 and the campaign seeds).
const VALIDATE_SEED: u64 = 0x51A1_DA7E;

/// Number of analysis methods every per-method array in this module spans
/// (always [`Method::ALL`] order).
const METHODS: usize = Method::ALL.len();

/// Default [`ValidateOptions::horizon_factor`]: simulate releases over
/// three spans of the set's largest period, then drain.
pub const DEFAULT_HORIZON_FACTOR: u64 = 3;

/// Which simulator policies the campaign runs each set under.
///
/// Restricting the selection skips the corresponding invariant checks and
/// tightness columns (they report 0); the default [`Both`](Self::Both)
/// validates the limited-preemptive methods under both preemption
/// flavours *and* the fully-preemptive baseline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PolicyChoice {
    /// Eager- and lazy-limited-preemptive plus fully-preemptive runs (the
    /// default).
    #[default]
    Both,
    /// Both limited-preemptive simulators (validates LP-ILP / LP-max /
    /// LP-sound under eager *and* lazy preemption).
    Limited,
    /// Only the eager limited-preemptive simulator (the paper's model).
    Eager,
    /// Only the lazy limited-preemptive simulator (Nasri et al.).
    Lazy,
    /// Only the fully-preemptive simulator (validates FP-ideal).
    Fully,
}

impl PolicyChoice {
    /// Parses the `--policy` CLI value.
    pub fn from_flag(value: &str) -> Option<Self> {
        match value {
            "both" => Some(PolicyChoice::Both),
            "limited" => Some(PolicyChoice::Limited),
            "eager" => Some(PolicyChoice::Eager),
            "lazy" => Some(PolicyChoice::Lazy),
            "full" => Some(PolicyChoice::Fully),
            _ => None,
        }
    }

    fn includes(self, policy: PreemptionPolicy) -> bool {
        match self {
            PolicyChoice::Both => true,
            PolicyChoice::Limited => policy != PreemptionPolicy::FullyPreemptive,
            PolicyChoice::Eager => policy == PreemptionPolicy::LimitedPreemptive,
            PolicyChoice::Lazy => policy == PreemptionPolicy::LazyPreemptive,
            PolicyChoice::Fully => policy == PreemptionPolicy::FullyPreemptive,
        }
    }
}

/// Which release pattern the simulator drives — the `--release` CLI knob.
///
/// Every choice keeps inter-arrivals at or above the period (the sporadic
/// task model every analysis assumes), so the soundness invariants apply
/// unchanged under each of them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ReleaseChoice {
    /// Synchronous-periodic releases — the classic WCET adversary and the
    /// campaign default.
    #[default]
    Sync,
    /// Sporadic with small per-task jitter: every inter-arrival of task
    /// `i` is stretched by a uniform random delay of up to a tenth of its
    /// own period `T_i`.
    Jitter,
    /// Strongly sporadic: per-task inter-arrivals stretched by up to a
    /// full own period — the low-interference end of the legal patterns.
    Sporadic,
}

impl ReleaseChoice {
    /// Parses the `--release` CLI value.
    pub fn from_flag(value: &str) -> Option<Self> {
        match value {
            "sync" => Some(ReleaseChoice::Sync),
            "jitter" => Some(ReleaseChoice::Jitter),
            "sporadic" => Some(ReleaseChoice::Sporadic),
            _ => None,
        }
    }

    /// The CSV/label spelling.
    pub fn label(self) -> &'static str {
        match self {
            ReleaseChoice::Sync => "sync",
            ReleaseChoice::Jitter => "jitter",
            ReleaseChoice::Sporadic => "sporadic",
        }
    }

    /// The simulator release scenario: jitter is a first-class per-task
    /// magnitude ([`Jitter::PeriodFraction`] resolves to a fraction of
    /// each task's *own* period), so the pattern scales with the
    /// generated time base and never needs the task set in hand.
    pub fn release(self) -> Release {
        match self {
            ReleaseChoice::Sync => Release::Synchronous,
            ReleaseChoice::Jitter => Release::Sporadic {
                jitter: Jitter::PeriodFraction { percent: 10 },
            },
            ReleaseChoice::Sporadic => Release::Sporadic {
                jitter: Jitter::PeriodFraction { percent: 100 },
            },
        }
    }

    /// The per-task *random* jitter magnitude as a fraction of the period
    /// — the scalar reported in the `jitter` CSV column. The deterministic
    /// synchronous pattern reports 0.
    pub fn jitter_fraction(self) -> f64 {
        match self {
            ReleaseChoice::Sync => 0.0,
            ReleaseChoice::Jitter => 0.1,
            ReleaseChoice::Sporadic => 1.0,
        }
    }
}

/// Knobs of one validation campaign run.
#[derive(Clone, Copy, Debug)]
pub struct ValidateOptions {
    /// Generated task sets per sweep point.
    pub sets_per_point: usize,
    /// Simulation horizon as a multiple of the set's largest period
    /// (releases happen strictly before `factor · max T_i`; the run then
    /// drains). The `--horizon` CLI flag.
    pub horizon_factor: u64,
    /// Simulator policies to run (the `--policy` CLI flag).
    pub policies: PolicyChoice,
    /// Release-model override (the `--release` CLI flag). `None` keeps
    /// each panel's own default: synchronous-periodic everywhere except
    /// the [`ValidatePanel::Release`] panels.
    pub release: Option<ReleaseChoice>,
}

impl Default for ValidateOptions {
    fn default() -> Self {
        Self {
            sets_per_point: 300,
            horizon_factor: DEFAULT_HORIZON_FACTOR,
            policies: PolicyChoice::Both,
            release: None,
        }
    }
}

/// Outcome of validating a single task set (one campaign cell).
#[derive(Clone, Debug, PartialEq)]
pub struct SetValidation {
    /// Total utilization of the set.
    pub utilization: f64,
    /// Schedulability verdict per method, in [`Method::ALL`] order.
    pub accepted: [bool; METHODS],
    /// Hard soundness violations — the FP-ideal and LP-sound
    /// (sound-analysis) legs: a miss or bound exceedance here is a
    /// definite bug in this repository. 0 on a correct implementation
    /// pair.
    pub hard_violations: u64,
    /// Simulated response times exceeding an LP-ILP/LP-max bound under
    /// either limited-preemption flavour — the documented optimism of the
    /// paper's eager-LP analysis (see the module docs), counted per
    /// exceeding method and policy.
    pub lp_exceedances: u64,
    /// Deadline misses on an LP-ILP/LP-max-accepted set (a counterexample
    /// to the paper's schedulability verdict itself), counted per method
    /// and policy.
    pub lp_misses: u64,
    /// Per method: worst `sim max RT / analytical bound` over the tasks
    /// and over every policy the method was checked under, when the
    /// method accepted the set and at least one of its simulator policies
    /// ran.
    pub tightness: [Option<f64>; METHODS],
    /// Counterexample witness traces that hit the bounded-trace capacity:
    /// whenever a policy run produced any finding (hard violation,
    /// exceedance or miss), the cell re-simulates with tracing enabled to
    /// capture the offending schedule; a truncated witness means the
    /// recorded Gantt chart is missing its tail, and `repro validate`
    /// warns about it.
    pub truncated_traces: u64,
}

/// The simulator policies whose schedules method `mi`'s bounds must
/// dominate: the fully-preemptive analyses (FP-ideal, Long-paths,
/// Gen-sporadic) speak about the fully-preemptive baseline simulator; the
/// three limited-preemption methods are checked under both the eager and
/// the lazy flavour.
fn policies_of(mi: usize) -> &'static [PreemptionPolicy] {
    match Method::ALL[mi] {
        Method::FpIdeal | Method::LongPaths | Method::GenSporadic => {
            &[PreemptionPolicy::FullyPreemptive]
        }
        Method::LpIlp | Method::LpMax | Method::LpSound => &[
            PreemptionPolicy::LimitedPreemptive,
            PreemptionPolicy::LazyPreemptive,
        ],
    }
}

/// Whether an exceedance or miss on method `mi`'s leg is a hard violation
/// (a sound analysis failed) rather than a soft finding: only the paper's
/// documented-optimistic LP-ILP / LP-max bounds are soft.
fn is_sound(mi: usize) -> bool {
    matches!(
        Method::ALL[mi],
        Method::FpIdeal | Method::LpSound | Method::LongPaths | Method::GenSporadic
    )
}

/// Analyzes `ts` with all six methods (bounds included) and simulates it
/// under the selected policies and release pattern, checking every
/// soundness invariant — the campaign cell, exposed for tests and ad-hoc
/// use.
pub fn validate_set(
    ts: &TaskSet,
    cores: usize,
    horizon_factor: u64,
    policies: PolicyChoice,
    release: ReleaseChoice,
) -> SetValidation {
    // The *extended* scenario space is deliberate: the paper's exact space
    // is known to under-count blocking when `lp(k)` has fewer tasks than
    // every feasible scenario's cardinality (see
    // `ScenarioSpace::Extended`), and simulation finds those sets — the
    // validation campaign therefore checks the sound space, while the
    // reproduction panels keep charting the paper's exact one.
    let verdicts = AnalysisRequest::new(cores)
        .with_scenario_space(ScenarioSpace::Extended)
        .with_bounds(true)
        .evaluate(ts)
        .into_outcomes();
    let accepted: [bool; METHODS] = std::array::from_fn(|mi| verdicts[mi].schedulable);
    let max_period = ts.tasks().iter().map(|t| t.period()).max().unwrap_or(1);
    let horizon = horizon_factor.saturating_mul(max_period).max(1);

    let mut hard_violations = 0u64;
    let mut lp_exceedances = 0u64;
    let mut lp_misses = 0u64;
    let mut tightness = [None; METHODS];
    let mut truncated_traces = 0u64;
    for policy in [
        PreemptionPolicy::LimitedPreemptive,
        PreemptionPolicy::LazyPreemptive,
        PreemptionPolicy::FullyPreemptive,
    ] {
        if !policies.includes(policy) {
            continue;
        }
        if !(0..METHODS).any(|mi| policies_of(mi).contains(&policy) && verdicts[mi].schedulable) {
            // No accepted method speaks about this policy: nothing to
            // validate, skip the simulation entirely.
            continue;
        }
        let request = SimRequest::new(cores, horizon)
            .with_policy(policy)
            .with_release(release.release());
        let outcome = request.evaluate(ts);
        let findings_before = (hard_violations, lp_exceedances, lp_misses);
        for (mi, verdict) in verdicts.iter().enumerate() {
            if !policies_of(mi).contains(&policy) || !verdict.schedulable {
                continue;
            }
            let sound = is_sound(mi);
            // Invariant 1: an accepted set never misses a deadline.
            if outcome.total_deadline_misses() > 0 {
                if sound {
                    hard_violations += 1;
                } else {
                    lp_misses += 1;
                }
            }
            // Invariant 2: simulated max response ≤ bound, per task,
            // compared exactly in scaled units.
            let mut exceeded = false;
            let mut worst = 0.0f64;
            for (stats, &bound) in outcome
                .per_task()
                .iter()
                .zip(verdict.bounds.iter().flatten())
            {
                if (stats.max_response as u128) * bound.cores() as u128 > bound.scaled() {
                    exceeded = true;
                }
                if stats.jobs_completed > 0 && bound.scaled() > 0 {
                    worst = worst.max(stats.max_response as f64 / bound.as_f64());
                }
            }
            if exceeded {
                if sound {
                    hard_violations += 1;
                } else {
                    lp_exceedances += 1;
                }
            }
            tightness[mi] = Some(tightness[mi].map_or(worst, |w: f64| w.max(worst)));
        }
        if (hard_violations, lp_exceedances, lp_misses) != findings_before {
            // Capture the counterexample schedule as a trace witness (the
            // run is deterministic, so the re-run reproduces it exactly)
            // and surface whether the bounded trace could hold all of it.
            let witness = request.with_trace(true).evaluate(ts);
            if witness.trace_dropped() > 0 {
                truncated_traces += 1;
            }
        }
    }

    SetValidation {
        utilization: ts.total_utilization(),
        accepted,
        hard_violations,
        lp_exceedances,
        lp_misses,
        tightness,
        truncated_traces,
    }
}

/// One aggregated sweep point of a validation panel.
#[derive(Clone, Debug, PartialEq)]
pub struct ValidatePoint {
    /// X coordinate (utilization target, deadline factor or chain share).
    pub x: f64,
    /// Release pattern the panel simulated under.
    pub release: ReleaseChoice,
    /// Per-task release-jitter magnitude as a fraction of each task's own
    /// period (0 under synchronous releases) — the `jitter` CSV column.
    pub jitter: f64,
    /// Mean utilization actually achieved by the generated sets.
    pub achieved_utilization: f64,
    /// Acceptance percentage per method, in [`Method::ALL`] order.
    pub accepted_pct: [f64; METHODS],
    /// Total hard (sound-analysis) violations at this point — must be 0.
    pub violations: u64,
    /// Simulated responses above an LP-ILP/LP-max bound at this point
    /// (the paper's documented optimism; see the module docs).
    pub lp_exceedances: u64,
    /// Deadline misses on LP-ILP/LP-max-accepted sets at this point.
    pub lp_misses: u64,
    /// Mean of the per-set worst `sim/bound` ratio over accepted sets, per
    /// method (0 when no set was both accepted and simulated).
    pub tightness_mean: [f64; METHODS],
    /// Maximum of the per-set worst `sim/bound` ratio, per method.
    pub tightness_max: [f64; METHODS],
    /// Counterexample witness traces truncated at the bounded-trace
    /// capacity at this point (not a CSV column; `repro validate` prints
    /// a warning when any panel reports a nonzero total).
    pub truncated_traces: u64,
}

impl ValidatePoint {
    /// The point as CSV cells, in [`csv_header`] column order.
    pub fn csv_cells(&self) -> Vec<String> {
        let mut cells = vec![
            format!("{:.4}", self.x),
            self.release.label().to_string(),
            format!("{:.1}", self.jitter),
            format!("{:.4}", self.achieved_utilization),
        ];
        for mi in 0..METHODS {
            cells.push(format!("{:.2}", self.accepted_pct[mi]));
        }
        cells.push(format!("{}", self.violations));
        cells.push(format!("{}", self.lp_exceedances));
        cells.push(format!("{}", self.lp_misses));
        for mi in 0..METHODS {
            cells.push(format!("{:.4}", self.tightness_mean[mi]));
            cells.push(format!("{:.4}", self.tightness_max[mi]));
        }
        cells
    }
}

/// The CSV header of a validation sweep: the release pattern and its
/// per-task jitter fraction, acceptance percentages, the
/// violation/finding counters, then `(mean, max)` tightness per method.
pub fn csv_header(x_label: &str) -> [&str; 25] {
    [
        x_label,
        "release",
        "jitter",
        "achieved_utilization",
        "fp_ideal_pct",
        "lp_ilp_pct",
        "lp_max_pct",
        "lp_sound_pct",
        "long_paths_pct",
        "gen_sporadic_pct",
        "violations",
        "lp_bound_exceedances",
        "lp_deadline_misses",
        "fp_ideal_tightness_mean",
        "fp_ideal_tightness_max",
        "lp_ilp_tightness_mean",
        "lp_ilp_tightness_max",
        "lp_max_tightness_mean",
        "lp_max_tightness_max",
        "lp_sound_tightness_mean",
        "lp_sound_tightness_max",
        "long_paths_tightness_mean",
        "long_paths_tightness_max",
        "gen_sporadic_tightness_mean",
        "gen_sporadic_tightness_max",
    ]
}

/// Result of one full validation panel.
#[derive(Clone, Debug, PartialEq)]
pub struct ValidateResult {
    /// Core count the panel ran on.
    pub cores: usize,
    /// The aggregated sweep points.
    pub points: Vec<ValidatePoint>,
}

impl ValidateResult {
    /// Total hard (sound-analysis) violations across the panel.
    pub fn total_violations(&self) -> u64 {
        self.points.iter().map(|p| p.violations).sum()
    }

    /// Total LP bound exceedances across the panel (the paper's
    /// documented optimism).
    pub fn total_lp_exceedances(&self) -> u64 {
        self.points.iter().map(|p| p.lp_exceedances).sum()
    }

    /// Total deadline misses on LP-accepted sets across the panel.
    pub fn total_lp_misses(&self) -> u64 {
        self.points.iter().map(|p| p.lp_misses).sum()
    }

    /// Total counterexample witness traces the bounded trace truncated
    /// across the panel (the CLI warns when this is nonzero).
    pub fn total_truncated_traces(&self) -> u64 {
        self.points.iter().map(|p| p.truncated_traces).sum()
    }

    /// ASCII rendering: acceptance, violation/finding counters and
    /// worst-case tightness.
    pub fn render(&self, x_label: &str) -> String {
        let header = [
            x_label,
            "rel",
            "jit",
            "achieved U",
            "FP-ideal %",
            "LP-ILP %",
            "LP-max %",
            "LP-sound %",
            "Long-p %",
            "Gen-sp %",
            "viol",
            "lp-exc",
            "lp-miss",
            "tight FP",
            "tight ILP",
            "tight MAX",
            "tight SOUND",
            "tight LONG",
            "tight GEN",
        ];
        let rows: Vec<Vec<String>> = self
            .points
            .iter()
            .map(|p| {
                let mut row = vec![
                    format!("{:.2}", p.x),
                    p.release.label().to_string(),
                    format!("{:.1}", p.jitter),
                    format!("{:.2}", p.achieved_utilization),
                ];
                for mi in 0..METHODS {
                    row.push(format!("{:.1}", p.accepted_pct[mi]));
                }
                row.push(format!("{}", p.violations));
                row.push(format!("{}", p.lp_exceedances));
                row.push(format!("{}", p.lp_misses));
                for mi in 0..METHODS {
                    row.push(format!("{:.3}", p.tightness_max[mi]));
                }
                row
            })
            .collect();
        ascii::table(&header, &rows)
    }
}

/// One validation panel, identified ahead of running it (metadata first,
/// then [`run_into`](Self::run_into) — the same streaming shape as
/// [`crate::campaign::PanelKind`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValidatePanel {
    /// Utilization sweep on `m` cores (the campaign runs `m ∈ {2, 4, 8,
    /// 16}`; see [`ValidatePanel::all`]).
    Cores(usize),
    /// Constrained deadlines: `m = 4`, `U = 2`, `D = f·T` with `f` swept.
    Deadline,
    /// Chain-heavy mixtures: `m = 4`, `U = 2`, chain share swept.
    Chains,
    /// Release-model sweep: `m = 4` utilization sweep simulated under the
    /// given non-synchronous release pattern.
    Release(ReleaseChoice),
}

impl ValidatePanel {
    /// Every validation panel, in CLI order.
    pub fn all() -> Vec<ValidatePanel> {
        vec![
            ValidatePanel::Cores(2),
            ValidatePanel::Cores(4),
            ValidatePanel::Cores(8),
            ValidatePanel::Cores(16),
            ValidatePanel::Deadline,
            ValidatePanel::Chains,
            ValidatePanel::Release(ReleaseChoice::Jitter),
            ValidatePanel::Release(ReleaseChoice::Sporadic),
        ]
    }

    /// The panel's layout and its own release pattern. The grids are
    /// shared with the `repro campaign` panels so the reproduction and
    /// validation populations sweep the same coordinates.
    fn layout(self) -> (Layout, ReleaseChoice) {
        let prefix = "bounds vs simulation:";
        match self {
            ValidatePanel::Cores(m) => (
                Layout {
                    name: format!("validate_cores_m{m}"),
                    title: format!("{prefix} m = {m} utilization sweep (group 1)"),
                    x_label: "utilization",
                    cores: m,
                    xs: campaign::utilization_grid(m),
                    seed: VALIDATE_SEED ^ (m as u64),
                    make_set: generated(group1),
                },
                ReleaseChoice::Sync,
            ),
            ValidatePanel::Deadline => (
                Layout {
                    name: "validate_deadline".into(),
                    title: format!("{prefix} m = 4, U = 2, D = f*T, f swept"),
                    x_label: "deadline_factor",
                    cores: 4,
                    xs: campaign::deadline_factor_grid(),
                    seed: VALIDATE_SEED ^ 0x1_0000,
                    make_set: PeriodFamily::SlackFactor.deadline_sweep(),
                },
                ReleaseChoice::Sync,
            ),
            ValidatePanel::Chains => (
                Layout {
                    name: "validate_chains".into(),
                    title: format!("{prefix} m = 4, U = 2, chain share swept"),
                    x_label: "chain_share",
                    cores: 4,
                    xs: campaign::chain_share_grid(),
                    seed: VALIDATE_SEED ^ 0x2_0000,
                    make_set: generated(|share| chain_mix(2.0, share)),
                },
                ReleaseChoice::Sync,
            ),
            ValidatePanel::Release(release) => {
                let (seed, pattern) = match release {
                    ReleaseChoice::Jitter => (0x3_0000, "sporadic releases with small jitter"),
                    ReleaseChoice::Sporadic => (0x4_0000, "strongly sporadic releases"),
                    ReleaseChoice::Sync => (0x5_0000, "synchronous periodic releases"),
                };
                (
                    Layout {
                        name: format!("validate_release_{}", release.label()),
                        title: format!("{prefix} m = 4 sweep, {pattern}"),
                        x_label: "utilization",
                        cores: 4,
                        xs: campaign::utilization_grid(4),
                        seed: VALIDATE_SEED ^ seed,
                        make_set: generated(group1),
                    },
                    release,
                )
            }
        }
    }

    /// CSV file stem and display name (`validate_cores_m4` for
    /// `Cores(4)`).
    pub fn name(self) -> String {
        self.layout().0.name
    }

    /// Human-readable description printed above the table.
    pub fn title(self) -> String {
        self.layout().0.title
    }

    /// X-axis label of the rendered table / CSV header.
    pub fn x_label(self) -> &'static str {
        self.layout().0.x_label
    }

    /// Core count the panel analyzes and simulates on.
    pub fn cores(self) -> usize {
        self.layout().0.cores
    }

    /// The panel's own release pattern when no `--release` override is
    /// given.
    pub fn default_release(self) -> ReleaseChoice {
        self.layout().1
    }

    /// Streams the panel: each cell generates, analyzes (bounds included)
    /// and simulates its task set on the worker that claims it; the
    /// consumer folds outcomes in coordinate order and emits one
    /// [`ValidatePoint`] per x value — bit-identical for any worker count.
    pub fn run_into(
        self,
        options: &ValidateOptions,
        jobs: Jobs,
        on_point: &mut dyn FnMut(&ValidatePoint),
    ) {
        let (layout, default_release) = self.layout();
        let release = options.release.unwrap_or(default_release);
        let sets = options.sets_per_point;
        exec::fold_points(
            layout.xs.len(),
            sets,
            jobs,
            |p, s| {
                let ts = (layout.make_set)(set_seed(layout.seed, p, s), layout.xs[p]);
                validate_set(
                    &ts,
                    layout.cores,
                    options.horizon_factor,
                    options.policies,
                    release,
                )
            },
            PointFold::add,
            |p, fold| on_point(&fold.point(layout.xs[p], release, sets)),
        );
    }
}

/// The per-point accumulator of a validation panel.
#[derive(Default)]
struct PointFold {
    accepted: [usize; METHODS],
    achieved: f64,
    violations: u64,
    lp_exceedances: u64,
    lp_misses: u64,
    tight_sum: [f64; METHODS],
    tight_n: [usize; METHODS],
    tight_max: [f64; METHODS],
    truncated: u64,
}

impl PointFold {
    fn add(&mut self, outcome: SetValidation) {
        self.achieved += outcome.utilization;
        self.violations += outcome.hard_violations;
        self.lp_exceedances += outcome.lp_exceedances;
        self.lp_misses += outcome.lp_misses;
        self.truncated += outcome.truncated_traces;
        for mi in 0..METHODS {
            if outcome.accepted[mi] {
                self.accepted[mi] += 1;
            }
            if let Some(ratio) = outcome.tightness[mi] {
                self.tight_sum[mi] += ratio;
                self.tight_n[mi] += 1;
                self.tight_max[mi] = self.tight_max[mi].max(ratio);
            }
        }
    }

    /// The aggregated point of `sets` folded cells at `x`.
    fn point(self, x: f64, release: ReleaseChoice, sets: usize) -> ValidatePoint {
        let pct = |c: usize| 100.0 * c as f64 / sets as f64;
        let mean = |mi: usize| {
            if self.tight_n[mi] > 0 {
                self.tight_sum[mi] / self.tight_n[mi] as f64
            } else {
                0.0
            }
        };
        ValidatePoint {
            x,
            release,
            jitter: release.jitter_fraction(),
            achieved_utilization: self.achieved / sets as f64,
            accepted_pct: self.accepted.map(pct),
            violations: self.violations,
            lp_exceedances: self.lp_exceedances,
            lp_misses: self.lp_misses,
            tightness_mean: std::array::from_fn(mean),
            tightness_max: self.tight_max,
            truncated_traces: self.truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use rta_model::examples::{figure1_task_set, lp_counterexample_task_set};
    use rta_model::{DagBuilder, DagTask};
    use rta_taskgen::generate_task_set;

    /// Collects one panel's streamed points.
    fn collect(panel: ValidatePanel, options: &ValidateOptions, jobs: Jobs) -> ValidateResult {
        let mut points = Vec::new();
        panel.run_into(options, jobs, &mut |p: &ValidatePoint| {
            points.push(p.clone())
        });
        ValidateResult {
            cores: panel.cores(),
            points,
        }
    }

    #[test]
    fn figure1_set_validates_cleanly() {
        let ts = figure1_task_set();
        let v = validate_set(&ts, 4, 3, PolicyChoice::Both, ReleaseChoice::Sync);
        assert_eq!(v.accepted, [true; 6]);
        assert_eq!(v.hard_violations, 0);
        assert_eq!(v.lp_exceedances, 0);
        assert_eq!(v.lp_misses, 0);
        for mi in 0..METHODS {
            let t = v.tightness[mi].expect("accepted and simulated");
            assert!(t > 0.0 && t <= 1.0, "tightness {t} out of (0, 1]");
        }
        // Among the limited-preemptive methods (same simulations), looser
        // bounds give smaller ratios: LP-max's cannot exceed LP-ILP's.
        assert!(v.tightness[2] <= v.tightness[1]);
    }

    #[test]
    fn overloaded_set_misses_deadlines_and_is_rejected() {
        // Two WCET-2 tasks with period 2 on one core: hopeless overload.
        // The deadline-miss invariant holds *because* every method rejects
        // the set — simulation shows misses, validation flags nothing.
        let single = |wcet: u64, period: u64| {
            let mut b = DagBuilder::new();
            b.add_node(wcet);
            DagTask::with_implicit_deadline(b.build().unwrap(), period).unwrap()
        };
        let ts = TaskSet::new(vec![single(2, 2), single(2, 2)]);
        let sim = SimRequest::new(1, 20).evaluate(&ts);
        assert!(sim.total_deadline_misses() > 0, "overload must miss");
        let v = validate_set(&ts, 1, 10, PolicyChoice::Both, ReleaseChoice::Sync);
        assert_eq!(v.accepted, [false; 6]);
        assert_eq!(v.hard_violations, 0);
        assert_eq!(v.lp_exceedances, 0);
        assert_eq!(v.lp_misses, 0);
        assert_eq!(v.tightness, [None; 6]);
    }

    /// The frozen m = 2 counterexample to the paper's LP blocking bound
    /// (see the module docs): a legal work-conserving eager-LP schedule
    /// produces a response of 304 against an LP bound of 300.5 — the
    /// campaign must classify it as an LP exceedance, not a hard
    /// violation, the sound FP-ideal leg must stay clean, and the
    /// corrected LP-sound bound must *cover* the schedule (here by
    /// rejecting the set: its bound admits further mid-job lp workload
    /// and crosses the deadline, so LP-sound never vouches for the
    /// counterexample at all).
    #[test]
    fn known_lp_counterexample_is_classified_as_exceedance() {
        let ts = lp_counterexample_task_set();

        // The analysis accepts the set with an LP bound of 300.5 for the
        // top task (Δ² = 189, p = 0), yet the simulator legally observes
        // a response of 304: blocking NPRs that *start mid-job* on cores
        // idled by the hp-DAG's own precedence structure.
        let sim = SimRequest::new(2, 3 * 1216)
            .with_policy(PreemptionPolicy::LimitedPreemptive)
            .evaluate(&ts);
        assert_eq!(sim.max_response(0), 304);

        let v = validate_set(&ts, 2, 3, PolicyChoice::Both, ReleaseChoice::Sync);
        assert!(v.accepted[0], "FP-ideal accepts");
        assert!(v.accepted[1], "LP-ILP accepts (unsoundly)");
        assert!(v.accepted[2], "LP-max accepts (unsoundly)");
        assert_eq!(
            v.hard_violations, 0,
            "the FP-ideal and LP-sound legs are sound"
        );
        assert!(
            v.lp_exceedances >= 2,
            "both LP methods share the bound here (eager leg at least)"
        );
        assert_eq!(v.lp_misses, 0, "no deadline is missed (304 < D = 502)");
        assert!(v.tightness[1].unwrap() > 1.0);
    }

    /// The same counterexample, stated positively for the corrected
    /// bound: LP-sound either rejects the set or its bound dominates the
    /// observed schedule — it can never vouch for a response the eager
    /// simulator exceeds. (Here it rejects; the assertion covers both
    /// forms so the test documents the invariant, not one artifact.)
    #[test]
    fn lp_sound_covers_the_frozen_counterexample() {
        use rta_analysis::Method;
        let ts = lp_counterexample_task_set();
        let outcome = AnalysisRequest::new(2)
            .with_methods([Method::LpSound])
            .with_scenario_space(ScenarioSpace::Extended)
            .with_bounds(true)
            .evaluate(&ts);
        let verdict = outcome.outcome(Method::LpSound).expect("LP-sound answered");
        let sim = SimRequest::new(2, 3 * 1216)
            .with_policy(PreemptionPolicy::LimitedPreemptive)
            .evaluate(&ts);
        assert_eq!(sim.max_response(0), 304);
        if verdict.schedulable {
            let bound = verdict.bound(0).expect("task 0 analyzed");
            assert!(
                (sim.max_response(0) as u128) * bound.cores() as u128 <= bound.scaled(),
                "LP-sound accepted but its bound {bound} is below the simulated 304"
            );
        }
        // Current behaviour (pinned so a regression is loud): the sound
        // bound admits the mid-job lp workload the paper's bound misses,
        // crosses D = 502, and rejects the set.
        assert!(!verdict.schedulable, "LP-sound rejects the counterexample");
    }

    #[test]
    fn policy_restriction_skips_the_other_legs() {
        let ts = figure1_task_set();
        let limited = validate_set(&ts, 4, 3, PolicyChoice::Limited, ReleaseChoice::Sync);
        assert!(limited.tightness[0].is_none(), "FP leg must be skipped");
        assert!(limited.tightness[1].is_some());
        assert!(
            limited.tightness[3].is_some(),
            "LP-sound runs on the LP legs"
        );
        assert!(
            limited.tightness[4].is_none() && limited.tightness[5].is_none(),
            "the fully-preemptive competitor legs must be skipped too"
        );
        let fully = validate_set(&ts, 4, 3, PolicyChoice::Fully, ReleaseChoice::Sync);
        assert!(fully.tightness[0].is_some());
        assert!(fully.tightness[1].is_none(), "LP legs must be skipped");
        assert!(fully.tightness[3].is_none());
        assert!(
            fully.tightness[4].is_some() && fully.tightness[5].is_some(),
            "Long-paths and Gen-sporadic validate on the FP leg"
        );
        // Eager-only and lazy-only both exercise the LP legs; their
        // per-policy worst ratios can only be dominated by the combined
        // run's.
        let eager = validate_set(&ts, 4, 3, PolicyChoice::Eager, ReleaseChoice::Sync);
        let lazy = validate_set(&ts, 4, 3, PolicyChoice::Lazy, ReleaseChoice::Sync);
        for mi in [1usize, 2, 3] {
            let combined = limited.tightness[mi].unwrap();
            assert!(eager.tightness[mi].unwrap() <= combined + 1e-12);
            assert!(lazy.tightness[mi].unwrap() <= combined + 1e-12);
        }
    }

    #[test]
    fn release_models_keep_the_sound_legs_clean() {
        for release in [
            ReleaseChoice::Sync,
            ReleaseChoice::Jitter,
            ReleaseChoice::Sporadic,
        ] {
            for seed in 0..10u64 {
                let mut rng = SmallRng::seed_from_u64(seed);
                let ts = generate_task_set(&mut rng, &group1(2.0));
                let v = validate_set(&ts, 4, 3, PolicyChoice::Both, release);
                assert_eq!(
                    v.hard_violations,
                    0,
                    "seed {seed} release {:?}",
                    release.label()
                );
            }
        }
    }

    #[test]
    fn panel_seeds_are_distinct() {
        let mut panels = ValidatePanel::all();
        panels.push(ValidatePanel::Release(ReleaseChoice::Sync));
        let seeds: Vec<u64> = panels.iter().map(|p| p.layout().0.seed).collect();
        let mut unique = seeds.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), seeds.len(), "panel seed collision");
        let names: Vec<String> = panels.iter().map(|p| p.name()).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "panel name collision");
    }

    #[test]
    fn panel_names_and_titles_carry_the_core_count() {
        for m in [3usize, 4, 32] {
            let panel = ValidatePanel::Cores(m);
            assert_eq!(panel.name(), format!("validate_cores_m{m}"));
            assert!(
                panel.title().contains(&format!("m = {m} ")),
                "{}",
                panel.title()
            );
            assert_eq!(panel.cores(), m);
        }
        let sync = ValidatePanel::Release(ReleaseChoice::Sync);
        assert_eq!(sync.name(), "validate_release_sync");
        assert_eq!(sync.default_release(), ReleaseChoice::Sync);
        assert!(!sync.title().contains("sporadic"), "{}", sync.title());
    }

    #[test]
    fn random_sets_validate_with_zero_violations() {
        for seed in 0..30u64 {
            let mut rng = SmallRng::seed_from_u64(seed);
            let ts = generate_task_set(&mut rng, &group1(2.0));
            let v = validate_set(&ts, 4, 3, PolicyChoice::Both, ReleaseChoice::Sync);
            assert_eq!(v.hard_violations, 0, "seed {seed}");
            assert_eq!(v.lp_misses, 0, "seed {seed}");
        }
    }

    #[test]
    fn small_panel_runs_clean_and_streams_in_order() {
        let options = ValidateOptions {
            sets_per_point: 4,
            ..ValidateOptions::default()
        };
        let mut xs = Vec::new();
        ValidatePanel::Chains.run_into(&options, Jobs::serial(), &mut |p: &ValidatePoint| {
            xs.push(p.x);
            assert_eq!(p.violations, 0);
            assert_eq!(p.release, ReleaseChoice::Sync);
        });
        assert_eq!(xs.len(), 9);
        assert!(xs.windows(2).all(|w| w[0] < w[1]), "points in x order");
    }

    #[test]
    fn release_panels_default_to_their_pattern_and_honour_overrides() {
        let options = ValidateOptions {
            sets_per_point: 2,
            ..ValidateOptions::default()
        };
        let panel = ValidatePanel::Release(ReleaseChoice::Jitter);
        assert_eq!(panel.name(), "validate_release_jitter");
        assert_eq!(panel.default_release(), ReleaseChoice::Jitter);
        let result = collect(panel, &options, Jobs::serial());
        assert_eq!(result.total_violations(), 0);
        assert!(result
            .points
            .iter()
            .all(|p| p.release == ReleaseChoice::Jitter));
        // An explicit --release override wins over the panel default.
        let overridden = collect(
            ValidatePanel::Cores(2),
            &ValidateOptions {
                sets_per_point: 2,
                release: Some(ReleaseChoice::Sporadic),
                ..ValidateOptions::default()
            },
            Jobs::serial(),
        );
        assert!(overridden
            .points
            .iter()
            .all(|p| p.release == ReleaseChoice::Sporadic));
        assert_eq!(overridden.total_violations(), 0);
    }

    #[test]
    fn csv_row_matches_header_width() {
        let options = ValidateOptions {
            sets_per_point: 3,
            ..ValidateOptions::default()
        };
        let result = collect(ValidatePanel::Cores(2), &options, Jobs::serial());
        assert_eq!(result.cores, 2);
        assert_eq!(result.total_violations(), 0);
        let header = csv_header("utilization");
        for p in &result.points {
            assert_eq!(p.csv_cells().len(), header.len());
        }
        let csv =
            crate::csv::to_string(&header, result.points.iter().map(ValidatePoint::csv_cells));
        assert_eq!(csv.lines().count(), result.points.len() + 1);
        assert!(csv.starts_with("utilization,release,jitter,achieved_utilization,fp_ideal_pct"));
    }

    /// The jitter column carries the per-task fraction of each release
    /// pattern, and the release panels report their own pattern's value.
    #[test]
    fn jitter_column_reflects_the_release_pattern() {
        assert_eq!(ReleaseChoice::Sync.jitter_fraction(), 0.0);
        assert_eq!(ReleaseChoice::Jitter.jitter_fraction(), 0.1);
        assert_eq!(ReleaseChoice::Sporadic.jitter_fraction(), 1.0);
        let options = ValidateOptions {
            sets_per_point: 2,
            ..ValidateOptions::default()
        };
        let result = collect(
            ValidatePanel::Release(ReleaseChoice::Sporadic),
            &options,
            Jobs::serial(),
        );
        assert!(result.points.iter().all(|p| p.jitter == 1.0));
        for p in &result.points {
            assert_eq!(p.csv_cells()[2], "1.0");
        }
    }

    /// Satellite bugfix pinning: a counterexample witness longer than the
    /// bounded trace is flagged as truncated; a short witness is not.
    #[test]
    fn truncated_counterexample_traces_are_counted() {
        let ts = lp_counterexample_task_set();
        // The eager-LP exceedance reproduces at any horizon; at 2500 max
        // periods its witness trace overflows the bounded capacity.
        let long = validate_set(&ts, 2, 2500, PolicyChoice::Eager, ReleaseChoice::Sync);
        assert!(long.lp_exceedances > 0);
        assert!(long.truncated_traces > 0, "long witness must be truncated");
        let short = validate_set(&ts, 2, 3, PolicyChoice::Eager, ReleaseChoice::Sync);
        assert!(short.lp_exceedances > 0);
        assert_eq!(short.truncated_traces, 0, "short witness fits the trace");
    }
}
