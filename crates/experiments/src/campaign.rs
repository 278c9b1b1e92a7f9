//! The streaming campaign engine: every experiment driver's substrate.
//!
//! A *campaign* is a grid of independent, deterministic cells fanned over
//! the [`exec`] worker pool and folded per sweep point by
//! `exec::fold_points`. Two cell types exist today: the
//! **schedulability cell** (generate one task set, evaluate the six
//! analyses through the verdict fast path — this module's [`sweep_into`])
//! and the **validation cell** (generate, analyze *with per-task bounds*,
//! simulate under every preemption policy and check the soundness
//! invariants — [`crate::validate`]). The engine owns the properties every
//! sweep (the [`PanelKind`] panels and the [`crate::validate`] panels)
//! relies on:
//!
//! * **Streaming evaluation, end to end.** Generation is not a separate
//!   phase: each cell generates its task set *on the worker that claims
//!   it*, using a per-worker [`TaskSetGenerator`] scratch (DAG builder and
//!   assembly buffers reused across thousands of sets), then analyzes it
//!   through the verdict fast path (a verdict-only [`AnalysisRequest`]) —
//!   unschedulable
//!   sets of a high-utilization point never touch the combinatorial
//!   blocking machinery, and schedulable sets answer LP-ILP from LP-max's
//!   verdict via the dominance chain. Results stream too: cell outcomes
//!   flow through the order-preserving worker channel
//!   ([`exec::stream_indexed`]) into an O(1) per-point fold, and each
//!   completed point is handed to the caller immediately — the `repro`
//!   CLI writes it to the panel's CSV file on the spot through a
//!   [`CsvSink`](crate::csv::CsvSink). No cell list, row list or CSV body
//!   is ever buffered, so campaign memory is flat no matter how many sets
//!   per point (or sweep points) are requested.
//! * **Bit-identical output for any worker count.** Cell seeds derive only
//!   from campaign coordinates ([`crate::set_seed`]), generation scratch
//!   never influences a random draw (pinned in `rta-taskgen`'s tests), and
//!   the per-point fold consumes outcomes in coordinate order — including
//!   its floating-point accumulation order, so even the tightness ratios
//!   of the validation campaign are reproducible bytes.
//!
//! On top of the substrate, this module describes every schedulability
//! sweep as one [`PanelKind`]: the paper's Figure 2 panels, its task-count
//! and group-2 variants and the period-model sensitivity study (`repro
//! fig2a|fig2b|fig2c|fig2c-tasks|group2|sensitivity`), and the scenario
//! panels beyond the paper that the streaming engine makes cheap (`repro
//! campaign`): a constrained-deadline panel (`D_i = f·T_i`, `f` swept), a
//! chain-heavy/control-flow mixture panel, an `m ∈ {2, 8, 16}` core-count
//! panel, and the `PeriodModel × deadline_factor` cross panels
//! ([`PanelKind::Cross`]) that re-run the deadline sweep under each
//! period-derivation family. Every panel charts all six methods — the
//! paper's three, the corrected [`rta_analysis::Method::LpSound`] bound,
//! and the published fully-preemptive competitors
//! ([`rta_analysis::Method::LongPaths`],
//! [`rta_analysis::Method::GenSporadic`]) — and the CLI aggregates the
//! LP-ILP/LP-sound acceptance gap into `soundness_cost.csv`.
//!
//! # The competitor comparison (`repro campaign compare`)
//!
//! [`PanelKind::run_compare_into`] re-streams the core/deadline/chain
//! panels ([`compare_panels`]) while folding every cell's six verdicts
//! into a pairwise **wins/losses matrix** ([`MethodMatrix`]):
//! `wins[a][b]` counts the task sets method `a` accepted and method `b`
//! rejected. The fold is a sum of per-set indicator contributions, so the
//! matrix is independent of both worker count and fold order — `repro
//! campaign compare` emits the same `method_matrix.csv` bytes serially
//! and in parallel, and the per-point acceptance CSVs stream through the
//! ordinary coordinate-ordered point fold alongside it.

use crate::exec::{self, Jobs};
use crate::figure2::{SweepPoint, METHODS};
use crate::set_seed;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rta_analysis::{AnalysisRequest, Method, ScenarioSpace};
use rta_model::TaskSet;
use rta_taskgen::{chain_mix, group1, group2, TaskSetConfig, TaskSetGenerator};
use std::cell::RefCell;

thread_local! {
    /// The calling worker's reusable generation scratch. Worker threads are
    /// scoped per [`exec::stream_indexed`] call, so the scratch lives
    /// exactly as long as its worker; under the serial driver the main
    /// thread keeps one scratch across the whole campaign.
    static GENERATOR: RefCell<TaskSetGenerator> = RefCell::new(TaskSetGenerator::new());
}

/// Generates one task set on the calling worker's reusable scratch —
/// bit-identical to `generate_task_set(&mut SmallRng::seed_from_u64(seed),
/// config)` with a fresh generator.
pub fn generate_on_worker(seed: u64, config: &TaskSetConfig) -> TaskSet {
    GENERATOR.with(|g| {
        g.borrow_mut()
            .generate(&mut SmallRng::seed_from_u64(seed), config)
    })
}

/// As [`generate_on_worker`], with an exact task count (the task-count
/// sweep variant).
pub fn generate_on_worker_with_count(seed: u64, config: &TaskSetConfig, count: usize) -> TaskSet {
    GENERATOR.with(|g| {
        g.borrow_mut()
            .generate_with_count(&mut SmallRng::seed_from_u64(seed), config, count)
    })
}

/// One sweep described to the streaming engine: analysis platform,
/// x-coordinates, sets per point, base seed, and how to generate a set
/// from `(per-set seed, x)`.
pub struct SweepSpec<'a, F> {
    /// Core count the three methods analyze on.
    pub cores: usize,
    /// The x-axis values (utilization targets, deadline factors, …).
    pub xs: &'a [f64],
    /// Generated task sets per x value.
    pub sets_per_point: usize,
    /// Base RNG seed; per-set seeds derive via [`set_seed`].
    pub seed: u64,
    /// Scenario space of the LP-ILP leg.
    pub space: ScenarioSpace,
    /// `make_set(per_set_seed, x)` — must be pure (the engine may evaluate
    /// it on any worker); use [`generate_on_worker`] inside for scratch
    /// reuse.
    pub make_set: F,
}

/// The streaming heart of every sweep: cells flow through the
/// order-preserving worker channel ([`exec::stream_indexed`]) straight
/// into an O(1) per-point fold, and each [`SweepPoint`] is handed to
/// `on_point` the moment its last set folds — no per-cell (or per-point)
/// buffering anywhere, so sweep memory no longer grows with `sets_per_point`
/// or the grid size. The fold consumes cell outcomes in coordinate order
/// regardless of which worker produced them, keeping the emitted points —
/// including the floating-point accumulation order — bit-identical for
/// every worker count.
pub fn sweep_into<F>(spec: &SweepSpec<'_, F>, jobs: Jobs, on_point: &mut dyn FnMut(&SweepPoint))
where
    F: Fn(u64, f64) -> TaskSet + Sync,
{
    sweep_cells_into(spec, jobs, &mut |_| {}, on_point);
}

/// As [`sweep_into`], additionally handing every cell's per-method
/// verdicts (in [`Method::ALL`] order) to `on_cell` before they fold into
/// the point — the hook the comparison matrix of `repro campaign compare`
/// accumulates through. Cells reach `on_cell` in coordinate order (the
/// same order the fold consumes them), so even order-sensitive consumers
/// see identical sequences for every worker count.
pub fn sweep_cells_into<F>(
    spec: &SweepSpec<'_, F>,
    jobs: Jobs,
    on_cell: &mut dyn FnMut(&[bool]),
    on_point: &mut dyn FnMut(&SweepPoint),
) where
    F: Fn(u64, f64) -> TaskSet + Sync,
{
    let sets = spec.sets_per_point;
    let request = AnalysisRequest::new(spec.cores).with_scenario_space(spec.space);
    exec::fold_points(
        spec.xs.len(),
        sets,
        jobs,
        |p, s| {
            let ts = (spec.make_set)(set_seed(spec.seed, p, s), spec.xs[p]);
            (ts.total_utilization(), request.evaluate(&ts).verdicts())
        },
        |acc: &mut SweepFold, (utilization, verdicts)| {
            on_cell(&verdicts);
            acc.achieved += utilization;
            for (count, ok) in acc.accepted.iter_mut().zip(verdicts) {
                *count += usize::from(ok);
            }
        },
        |p, acc| {
            let pct = |c: usize| 100.0 * c as f64 / sets as f64;
            on_point(&SweepPoint {
                x: spec.xs[p],
                achieved_utilization: acc.achieved / sets as f64,
                schedulable_pct: acc.accepted.map(pct),
            });
        },
    );
}

/// The per-point accumulator of a schedulability sweep.
#[derive(Default)]
struct SweepFold {
    /// Sets each method accepted, in [`Method::ALL`] order.
    accepted: [usize; METHODS],
    /// Sum of the sets' achieved utilizations.
    achieved: f64,
}

/// The pairwise wins/losses matrix of `repro campaign compare`:
/// `wins[a][b]` counts the task sets method `a` (row, [`Method::ALL`]
/// order) declared schedulable while method `b` (column) rejected them,
/// over every cell folded into the matrix. The diagonal is always zero; a
/// provable dominance edge shows up as a structurally zero entry (e.g.
/// `wins[LP-max][LP-ILP] = 0`: LP-max never accepts a set LP-ILP
/// rejects).
///
/// The accumulation is a sum of per-set indicator contributions, so the
/// final matrix is independent of fold order — serial and parallel runs
/// emit byte-identical CSVs.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MethodMatrix {
    /// `wins[a][b]` = sets accepted by `Method::ALL[a]`, rejected by
    /// `Method::ALL[b]`.
    pub wins: [[u64; METHODS]; METHODS],
    /// Total cells folded in.
    pub sets: u64,
}

impl MethodMatrix {
    /// Folds one cell's verdicts (in [`Method::ALL`] order) into the
    /// matrix.
    pub fn record(&mut self, verdicts: &[bool]) {
        debug_assert_eq!(verdicts.len(), METHODS);
        self.sets += 1;
        for a in 0..METHODS {
            for b in 0..METHODS {
                if verdicts[a] && !verdicts[b] {
                    self.wins[a][b] += 1;
                }
            }
        }
    }

    /// Net score of method `mi`: total wins minus total losses across all
    /// pairings — the single-number ranking the CLI prints.
    pub fn net(&self, mi: usize) -> i64 {
        let wins: u64 = self.wins[mi].iter().sum();
        let losses: u64 = (0..METHODS).map(|b| self.wins[b][mi]).sum();
        wins as i64 - losses as i64
    }

    /// The `method_matrix.csv` header: the row method, one wins column per
    /// opponent, then the row totals.
    pub fn csv_header() -> [&'static str; METHODS + 3] {
        [
            "method",
            "vs_fp_ideal",
            "vs_lp_ilp",
            "vs_lp_max",
            "vs_lp_sound",
            "vs_long_paths",
            "vs_gen_sporadic",
            "wins_total",
            "net",
        ]
    }

    /// The matrix as CSV rows, one per method in [`Method::ALL`] order.
    pub fn csv_rows(&self) -> Vec<Vec<String>> {
        (0..METHODS)
            .map(|a| {
                let mut row = vec![Method::ALL[a].slug().to_string()];
                for b in 0..METHODS {
                    row.push(format!("{}", self.wins[a][b]));
                }
                row.push(format!("{}", self.wins[a].iter().sum::<u64>()));
                row.push(format!("{}", self.net(a)));
                row
            })
            .collect()
    }

    /// CSV rendering (the `method_matrix.csv` bytes).
    pub fn to_csv(&self) -> String {
        crate::csv::to_string(&Self::csv_header(), self.csv_rows())
    }

    /// ASCII rendering for the CLI.
    pub fn render(&self) -> String {
        let mut header = vec!["wins \\ losses"];
        for mi in 0..METHODS {
            header.push(Method::ALL[mi].label());
        }
        header.push("net");
        let rows: Vec<Vec<String>> = (0..METHODS)
            .map(|a| {
                let mut row = vec![Method::ALL[a].label().to_string()];
                for b in 0..METHODS {
                    row.push(format!("{}", self.wins[a][b]));
                }
                row.push(format!("{:+}", self.net(a)));
                row
            })
            .collect();
        crate::ascii::table(&header, &rows)
    }
}

/// Per-method analysis cost over one compare run, read back from the
/// process-global metrics registry (`analysis_verdict_ns_*` histograms).
///
/// The counts are deterministic — every verdict the sweep evaluates lands
/// exactly once — but the nanosecond figures are wall-clock measurements
/// and vary run to run. The CLI therefore writes them to their own
/// `method_costs.csv`, which the CI golden diff excludes, instead of
/// folding them into the byte-pinned `compare_*`/`method_matrix` files.
#[derive(Clone, Debug)]
pub struct MethodCosts {
    /// Per method in [`Method::ALL`] order: verdicts measured, mean
    /// verdict cost (ns), worst verdict cost (ns).
    pub rows: [(u64, f64, u64); METHODS],
}

impl MethodCosts {
    /// Reads the per-method cost out of a snapshot **delta**
    /// ([`rta_obs::Snapshot::since`]), so concurrent servers or earlier
    /// panels in the same process don't leak into the figures.
    pub fn from_snapshot(delta: &rta_obs::Snapshot) -> Self {
        let rows = std::array::from_fn(|mi| {
            let name = format!("analysis_verdict_ns_{}", Method::ALL[mi].slug());
            match delta.histogram(&name) {
                Some(h) => (h.count, h.mean(), h.max),
                None => (0, 0.0, 0),
            }
        });
        Self { rows }
    }

    /// The `method_costs.csv` header.
    pub fn csv_header() -> [&'static str; 4] {
        ["method", "verdicts", "mean_verdict_ns", "max_verdict_ns"]
    }

    /// The matrix as CSV rows, one per method in [`Method::ALL`] order.
    pub fn csv_rows(&self) -> Vec<Vec<String>> {
        (0..METHODS)
            .map(|mi| {
                let (count, mean, max) = self.rows[mi];
                vec![
                    Method::ALL[mi].slug().to_string(),
                    count.to_string(),
                    format!("{mean:.0}"),
                    max.to_string(),
                ]
            })
            .collect()
    }

    /// CSV rendering (the `method_costs.csv` bytes).
    pub fn to_csv(&self) -> String {
        crate::csv::to_string(&Self::csv_header(), self.csv_rows())
    }

    /// ASCII rendering for the CLI compare summary.
    pub fn render(&self) -> String {
        let header = ["method", "verdicts", "mean ns", "max ns"];
        let rows: Vec<Vec<String>> = (0..METHODS)
            .map(|mi| {
                let (count, mean, max) = self.rows[mi];
                vec![
                    Method::ALL[mi].label().to_string(),
                    count.to_string(),
                    format!("{mean:.0}"),
                    max.to_string(),
                ]
            })
            .collect();
        crate::ascii::table(&header, &rows)
    }
}

/// Base seed of the paper's population: the Figure 2, task-count, group-2
/// and sensitivity panels.
const FIGURE2_SEED: u64 = 0xDA7E_2016;

/// Base seed of the campaign panels (distinct from the Figure 2 seed so
/// the panels are a fresh population, not a re-analysis).
const CAMPAIGN_SEED: u64 = 0xCA4A_161C;

/// The 13-point utilization grid `1 → m` every core-count panel sweeps —
/// shared by the `repro campaign` and `repro validate` panels so the two
/// populations stay comparable point for point.
pub fn utilization_grid(cores: usize) -> Vec<f64> {
    let m = cores as f64;
    (0..13)
        .map(|i| 1.0 + (m - 1.0) * f64::from(i) / 12.0)
        .collect()
}

/// The deadline-factor grid `f ∈ {0.5, 0.55, …, 1.0}` of the
/// constrained-deadline panels (campaign and validation).
pub fn deadline_factor_grid() -> Vec<f64> {
    (0..=10).map(|i| 0.5 + 0.05 * f64::from(i)).collect()
}

/// The chain-share grid `{0, 0.125, …, 1}` of the chain-mixture panels
/// (campaign and validation).
pub fn chain_share_grid() -> Vec<f64> {
    (0..=8).map(|i| 0.125 * f64::from(i)).collect()
}

/// The period-derivation family of one [`PanelKind::Cross`] panel — the
/// `PeriodModel` axis of the `PeriodModel × deadline_factor` cross.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeriodFamily {
    /// The calibrated default: heterogeneous periods via log-uniform slack
    /// factors (the [`group1`] preset).
    SlackFactor,
    /// Near-homogeneous periods on a common scale — the regime where the
    /// carry-in term alone consumes a `U/m` share of every deadline (see
    /// [`rta_taskgen::PeriodModel::SlackFactor`]).
    CommonScale,
    /// Independent heavy per-task utilizations — the fragile-small-task
    /// regime.
    PerTaskUtilization,
}

impl PeriodFamily {
    /// The family's CSV slug and display name.
    fn names(self) -> (&'static str, &'static str) {
        match self {
            PeriodFamily::SlackFactor => ("slack", "slack-factor"),
            PeriodFamily::CommonScale => ("common", "common-scale"),
            PeriodFamily::PerTaskUtilization => ("pertask", "per-task-utilization"),
        }
    }

    /// The group-1 preset at `target` utilization with this family's
    /// period model.
    pub(crate) fn config(self, target: f64) -> TaskSetConfig {
        let mut config = group1(target);
        config.period_model = match self {
            PeriodFamily::SlackFactor => return config,
            PeriodFamily::CommonScale => rta_taskgen::PeriodModel::CommonScale { spread: 2.0 },
            PeriodFamily::PerTaskUtilization => {
                rta_taskgen::PeriodModel::PerTaskUtilization { max: 1.0 }
            }
        };
        config
    }

    /// The `D = f·T` sweep at `U = 2` under this family's periods.
    pub(crate) fn deadline_sweep(self) -> MakeSet {
        generated(move |f| self.config(2.0).with_deadline_factor(f))
    }
}

/// How a panel builds the task set of one cell: `make_set(per-set seed,
/// x)`. Pure, so any worker may call it.
pub(crate) type MakeSet = Box<dyn Fn(u64, f64) -> TaskSet + Sync>;

/// The [`MakeSet`] generating the preset `config(x)` on the calling
/// worker's scratch.
pub(crate) fn generated(config: impl Fn(f64) -> TaskSetConfig + Sync + 'static) -> MakeSet {
    Box::new(move |seed, x| generate_on_worker(seed, &config(x)))
}

/// What tells one sweep panel from another — a campaign panel or a
/// validation panel — so each panel enum answers all of it in one match.
pub(crate) struct Layout {
    /// CSV file stem and display name.
    pub(crate) name: String,
    /// Human-readable description printed above the table.
    pub(crate) title: String,
    /// X-axis label of the rendered table and CSV header.
    pub(crate) x_label: &'static str,
    /// Core count the panel analyzes on.
    pub(crate) cores: usize,
    /// The x-axis values.
    pub(crate) xs: Vec<f64>,
    /// Base seed of the panel's population.
    pub(crate) seed: u64,
    /// The task set of one cell.
    pub(crate) make_set: MakeSet,
}

/// One schedulability sweep, identified ahead of running it — the CLI
/// reads the metadata first (to open the streaming CSV sink), then runs
/// the sweep through [`PanelKind::run_into`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PanelKind {
    /// Figure 2 of the paper: the group-1 utilization sweep on `m` cores
    /// (`fig2a`, `fig2b` and `fig2c` are `m = 4, 8, 16`).
    Figure2(usize),
    /// The task-count variant of Figure 2(c): `m = 16`, total utilization
    /// fixed at `m/2`, 2 to 16 tasks per set — each added task makes every
    /// task lighter and adds a blocking candidate.
    TaskCount,
    /// The paper's group-2 comparison: the Figure 2 sweep on `m` cores over
    /// uniformly parallel task sets, where LP-max should approach LP-ILP.
    Group2(usize),
    /// Sensitivity of Figure 2(a) to the generator's unpublished period
    /// model: the same seed, grid and DAG population under each
    /// period-derivation family (so the slack-factor panel is Figure 2(a)
    /// itself). Common-scale periods show the carry-in collapse of every
    /// analysis near `U = m/2`; per-task utilizations show the
    /// fragile-small-task failure that destroys the LP plateau.
    Sensitivity(PeriodFamily),
    /// Constrained deadlines: `m = 4`, `U = 2`, `D = f·T` with `f` swept —
    /// how quickly each analysis sheds schedulability as the slack between
    /// response bound and deadline is removed.
    Deadline,
    /// Chain-heavy mixtures: `m = 4`, `U = 2`, chain share swept from 0 to
    /// 1 — the regime where DAGs degenerate into control-flow chains and
    /// LP-max's pooled-NPR bound over-counts hardest relative to LP-ILP.
    Chains,
    /// Core-count utilization sweep on `m` cores (the panels are `m ∈
    /// {2, 8, 16}`; see [`PanelKind::all`]).
    Cores(usize),
    /// The `PeriodModel × deadline_factor` cross: the deadline sweep of
    /// [`PanelKind::Deadline`] re-run under each period-derivation family,
    /// so the deadline sensitivity of the analyses can be compared across
    /// generator regimes rather than only under the calibrated default.
    Cross(PeriodFamily),
}

impl PanelKind {
    /// Every `repro campaign` panel, in CLI order (the paper's own panels
    /// run under their `repro fig2*`, `group2` and `sensitivity` commands).
    pub fn all() -> Vec<PanelKind> {
        vec![
            PanelKind::Deadline,
            PanelKind::Chains,
            PanelKind::Cores(2),
            PanelKind::Cores(8),
            PanelKind::Cores(16),
            PanelKind::Cross(PeriodFamily::SlackFactor),
            PanelKind::Cross(PeriodFamily::CommonScale),
            PanelKind::Cross(PeriodFamily::PerTaskUtilization),
        ]
    }

    pub(crate) fn layout(self) -> Layout {
        match self {
            PanelKind::Figure2(m) => Layout {
                name: match m {
                    4 => "fig2a".into(),
                    8 => "fig2b".into(),
                    16 => "fig2c".into(),
                    _ => format!("fig2_m{m}"),
                },
                title: format!("Figure 2: m = {m} utilization sweep (group 1)"),
                x_label: "utilization",
                cores: m,
                xs: utilization_grid(m),
                seed: FIGURE2_SEED,
                make_set: generated(group1),
            },
            PanelKind::TaskCount => Layout {
                name: "fig2c_tasks".into(),
                title: "Figure 2(c) variant: m = 16, U = 8, task count swept (group 1)".into(),
                x_label: "tasks",
                cores: 16,
                xs: (1..=8).map(|i| f64::from(2 * i)).collect(),
                seed: FIGURE2_SEED,
                make_set: Box::new(|seed, tasks: f64| {
                    generate_on_worker_with_count(seed, &group1(8.0), tasks as usize)
                }),
            },
            PanelKind::Group2(m) => Layout {
                name: format!("group2_m{m}"),
                title: format!("uniformly parallel sets (group 2): m = {m} utilization sweep"),
                x_label: "utilization",
                cores: m,
                xs: utilization_grid(m),
                seed: FIGURE2_SEED,
                make_set: generated(group2),
            },
            PanelKind::Sensitivity(family) => {
                let (slug, periods) = family.names();
                Layout {
                    name: format!("sensitivity_{slug}"),
                    title: format!("{periods} periods: the Figure 2(a) population, m = 4"),
                    x_label: "utilization",
                    cores: 4,
                    xs: utilization_grid(4),
                    seed: FIGURE2_SEED,
                    make_set: generated(move |u| family.config(u)),
                }
            }
            PanelKind::Deadline => Layout {
                name: "campaign_deadline".into(),
                title: "constrained deadlines: m = 4, U = 2, D = f*T, f swept".into(),
                x_label: "deadline_factor",
                cores: 4,
                xs: deadline_factor_grid(),
                seed: CAMPAIGN_SEED,
                make_set: PeriodFamily::SlackFactor.deadline_sweep(),
            },
            PanelKind::Chains => Layout {
                name: "campaign_chains".into(),
                title: "chain-heavy mixtures: m = 4, U = 2, chain share swept".into(),
                x_label: "chain_share",
                cores: 4,
                xs: chain_share_grid(),
                seed: CAMPAIGN_SEED ^ 1,
                make_set: generated(|share| chain_mix(2.0, share)),
            },
            PanelKind::Cores(m) => Layout {
                name: format!("campaign_cores_m{m}"),
                title: format!("core count: m = {m} utilization sweep (group 1)"),
                x_label: "utilization",
                cores: m,
                xs: utilization_grid(m),
                seed: CAMPAIGN_SEED ^ (m as u64),
                make_set: generated(group1),
            },
            PanelKind::Cross(family) => {
                let (slug, periods) = family.names();
                Layout {
                    name: format!("campaign_cross_{slug}"),
                    title: format!("period model x deadline: {periods} periods, D = f*T, f swept"),
                    x_label: "deadline_factor",
                    cores: 4,
                    xs: deadline_factor_grid(),
                    seed: CAMPAIGN_SEED ^ (0x100 + family as u64),
                    make_set: family.deadline_sweep(),
                }
            }
        }
    }

    /// CSV file stem and display name (`campaign_cores_m4` for
    /// `Cores(4)`).
    pub fn name(self) -> String {
        self.layout().name
    }

    /// CSV file stem of the panel's `repro campaign compare` acceptance
    /// sweep: [`name`](Self::name) with `compare_` for `campaign_` (same
    /// rows as the ordinary panel CSV, fresh file so the two runs never
    /// clobber each other).
    pub fn compare_name(self) -> String {
        self.name().replacen("campaign_", "compare_", 1)
    }

    /// Human-readable description printed above the table.
    pub fn title(self) -> String {
        self.layout().title
    }

    /// X-axis label of the rendered table / CSV header.
    pub fn x_label(self) -> &'static str {
        self.layout().x_label
    }

    /// Core count the panel analyzes on.
    pub fn cores(self) -> usize {
        self.layout().cores
    }

    /// Streams the panel's sweep, delivering each completed point to
    /// `on_point` (see [`sweep_into`]).
    pub fn run_into(
        self,
        sets_per_point: usize,
        jobs: Jobs,
        on_point: &mut dyn FnMut(&SweepPoint),
    ) {
        self.stream(sets_per_point, jobs, &mut |_| {}, on_point);
    }

    /// As [`Self::run_into`], additionally folding every cell's six verdicts
    /// into `matrix` — the streaming engine behind `repro campaign
    /// compare` (see [`MethodMatrix`]).
    pub fn run_compare_into(
        self,
        sets_per_point: usize,
        jobs: Jobs,
        matrix: &mut MethodMatrix,
        on_point: &mut dyn FnMut(&SweepPoint),
    ) {
        self.stream(
            sets_per_point,
            jobs,
            &mut |verdicts| matrix.record(verdicts),
            on_point,
        );
    }

    fn stream(
        self,
        sets_per_point: usize,
        jobs: Jobs,
        on_cell: &mut dyn FnMut(&[bool]),
        on_point: &mut dyn FnMut(&SweepPoint),
    ) {
        let layout = self.layout();
        sweep_cells_into(
            &SweepSpec {
                cores: layout.cores,
                xs: &layout.xs,
                sets_per_point,
                seed: layout.seed,
                space: ScenarioSpace::PaperExact,
                make_set: &layout.make_set,
            },
            jobs,
            on_cell,
            on_point,
        );
    }
}

/// The panels `repro campaign compare` streams its wins/losses matrix
/// over: the deadline, chain-mixture and core-count sweeps (the cross
/// panels re-use the deadline population and would double-count it).
pub fn compare_panels() -> Vec<PanelKind> {
    vec![
        PanelKind::Deadline,
        PanelKind::Chains,
        PanelKind::Cores(2),
        PanelKind::Cores(8),
        PanelKind::Cores(16),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figure2::{csv_header, SweepResult};

    /// Collects one panel's streamed points.
    fn collect(kind: PanelKind, sets: usize, jobs: Jobs) -> SweepResult {
        let mut points = Vec::new();
        kind.run_into(sets, jobs, &mut |p: &SweepPoint| points.push(p.clone()));
        SweepResult {
            cores: kind.cores(),
            points,
        }
    }

    #[test]
    fn deadline_panel_tightening_costs_schedulability() {
        // Tighter deadlines hurt overall. (Strict per-point monotonicity in
        // f does not hold: shrinking deadlines also reshuffles the
        // deadline-monotonic priority order, which can locally help a small
        // sample — only the trend is a theorem-like expectation.)
        let result = collect(PanelKind::Deadline, 12, Jobs::serial());
        assert_eq!(result.points.len(), 11);
        assert!(result.dominance_holds());
        let fp: Vec<f64> = result.points.iter().map(|p| p.schedulable_pct[0]).collect();
        let (first, last) = (fp[0], *fp.last().unwrap());
        assert!(
            first < last,
            "f = 0.5 ({first}%) must schedule fewer sets than f = 1 ({last}%)"
        );
        // f = 1 is the implicit-deadline population: identical generation.
        assert!((result.points.last().unwrap().x - 1.0).abs() < 1e-12);
    }

    #[test]
    fn chain_panel_runs_and_dominates() {
        let result = collect(PanelKind::Chains, 8, Jobs::serial());
        assert_eq!(result.points.len(), 9);
        assert!(result.dominance_holds());
    }

    #[test]
    fn core_count_panels_cover_m2_m8_and_m16() {
        let kinds: Vec<PanelKind> = PanelKind::all()
            .into_iter()
            .filter(|k| matches!(k, PanelKind::Cores(_)))
            .collect();
        assert_eq!(kinds.len(), 3);
        let results: Vec<SweepResult> = kinds
            .iter()
            .map(|&k| collect(k, 4, Jobs::serial()))
            .collect();
        assert_eq!(results[0].cores, 2);
        assert_eq!(results[1].cores, 8);
        assert_eq!(results[2].cores, 16);
        for (kind, result) in kinds.iter().zip(&results) {
            assert!(result.dominance_holds(), "{}", kind.name());
            assert_eq!(result.points.len(), 13);
        }
    }

    #[test]
    fn cross_panels_cover_every_period_family() {
        let kinds: Vec<PanelKind> = PanelKind::all()
            .into_iter()
            .filter(|k| matches!(k, PanelKind::Cross(_)))
            .collect();
        assert_eq!(kinds.len(), 3);
        let names: Vec<String> = kinds.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            [
                "campaign_cross_slack",
                "campaign_cross_common",
                "campaign_cross_pertask"
            ]
        );
        let results: Vec<SweepResult> = kinds
            .iter()
            .map(|&k| collect(k, 4, Jobs::serial()))
            .collect();
        for (kind, result) in kinds.iter().zip(&results) {
            assert_eq!(kind.x_label(), "deadline_factor");
            assert_eq!(result.points.len(), 11);
            assert!(result.dominance_holds(), "{}", kind.name());
        }
        // The slack-factor cross panel shares generation with the plain
        // deadline panel's family but uses its own seed: a fresh
        // population, not a re-analysis.
        let deadline = collect(PanelKind::Deadline, 4, Jobs::serial());
        assert_ne!(results[0], deadline);
    }

    #[test]
    fn panel_names_and_titles_carry_the_core_count() {
        for m in [3usize, 4, 32] {
            let kind = PanelKind::Cores(m);
            assert_eq!(kind.name(), format!("campaign_cores_m{m}"));
            assert_eq!(kind.compare_name(), format!("compare_cores_m{m}"));
            assert!(
                kind.title().contains(&format!("m = {m} ")),
                "{}",
                kind.title()
            );
            assert_eq!(kind.cores(), m);
        }
        let names: Vec<String> = PanelKind::all().into_iter().map(PanelKind::name).collect();
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "panel name collision");
    }

    #[test]
    fn every_panel_has_its_name_label_cores_grid_and_seed() {
        // One line per panel — CSV stem, x label, cores, grid points and
        // seed — so a renamed CSV or a reseeded population fails here, not
        // only in CI's golden diff.
        use PeriodFamily::{CommonScale, PerTaskUtilization, SlackFactor};
        let mut panels = vec![
            PanelKind::Figure2(4),
            PanelKind::Figure2(8),
            PanelKind::Figure2(16),
            PanelKind::TaskCount,
            PanelKind::Group2(4),
            PanelKind::Group2(8),
            PanelKind::Group2(16),
            PanelKind::Sensitivity(SlackFactor),
            PanelKind::Sensitivity(CommonScale),
            PanelKind::Sensitivity(PerTaskUtilization),
        ];
        panels.extend(PanelKind::all());
        let lines: Vec<String> = panels
            .iter()
            .map(|&kind| {
                let layout = kind.layout();
                format!(
                    "{} {} m={} x{} seed={:#x}",
                    kind.name(),
                    kind.x_label(),
                    kind.cores(),
                    layout.xs.len(),
                    layout.seed
                )
            })
            .collect();
        assert_eq!(
            lines,
            [
                "fig2a utilization m=4 x13 seed=0xda7e2016",
                "fig2b utilization m=8 x13 seed=0xda7e2016",
                "fig2c utilization m=16 x13 seed=0xda7e2016",
                "fig2c_tasks tasks m=16 x8 seed=0xda7e2016",
                "group2_m4 utilization m=4 x13 seed=0xda7e2016",
                "group2_m8 utilization m=8 x13 seed=0xda7e2016",
                "group2_m16 utilization m=16 x13 seed=0xda7e2016",
                "sensitivity_slack utilization m=4 x13 seed=0xda7e2016",
                "sensitivity_common utilization m=4 x13 seed=0xda7e2016",
                "sensitivity_pertask utilization m=4 x13 seed=0xda7e2016",
                "campaign_deadline deadline_factor m=4 x11 seed=0xca4a161c",
                "campaign_chains chain_share m=4 x9 seed=0xca4a161d",
                "campaign_cores_m2 utilization m=2 x13 seed=0xca4a161e",
                "campaign_cores_m8 utilization m=8 x13 seed=0xca4a1614",
                "campaign_cores_m16 utilization m=16 x13 seed=0xca4a160c",
                "campaign_cross_slack deadline_factor m=4 x11 seed=0xca4a171c",
                "campaign_cross_common deadline_factor m=4 x11 seed=0xca4a171d",
                "campaign_cross_pertask deadline_factor m=4 x11 seed=0xca4a171e",
            ]
        );
        // No two panels share a CSV file.
        let mut names: Vec<String> = panels.iter().map(|k| k.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), panels.len(), "panel name collision");
    }

    #[test]
    fn sensitivity_slack_panel_is_figure_2a() {
        // Same seed, generator and grid: `repro sensitivity` writes
        // `sensitivity_slack.csv` with the bytes of `fig2a.csv`.
        let csv = |kind: PanelKind| {
            let result = collect(kind, 4, Jobs::serial());
            crate::csv::to_string(
                &csv_header(kind.x_label()),
                result.points.iter().map(SweepPoint::csv_cells),
            )
        };
        assert_eq!(
            csv(PanelKind::Sensitivity(PeriodFamily::SlackFactor)),
            csv(PanelKind::Figure2(4))
        );
    }

    #[test]
    fn all_variants_run_and_dominate() {
        for family in [
            PeriodFamily::SlackFactor,
            PeriodFamily::CommonScale,
            PeriodFamily::PerTaskUtilization,
        ] {
            let result = collect(PanelKind::Sensitivity(family), 6, Jobs::Auto);
            assert!(
                result.dominance_holds(),
                "{family:?}: ordering must hold under every generator"
            );
            assert_eq!(result.points.len(), 13);
        }
    }

    #[test]
    fn common_scale_collapses_earlier_for_fp() {
        // The carry-in collapse: by U = 3 (0.75·m) the common-scale variant
        // must be far below the slack-factor variant for FP-ideal.
        let fp_at = |family: PeriodFamily, idx: usize| -> f64 {
            collect(PanelKind::Sensitivity(family), 24, Jobs::Auto).points[idx].schedulable_pct[0]
        };
        // Point index 8 ≈ U = 3.0 on the 13-point 1..4 grid.
        let slack = fp_at(PeriodFamily::SlackFactor, 8);
        let common = fp_at(PeriodFamily::CommonScale, 8);
        assert!(
            common <= slack,
            "common-scale FP-ideal ({common}) should not beat slack-factor ({slack})"
        );
    }

    #[test]
    fn method_matrix_counts_pairwise_wins() {
        let mut m = MethodMatrix::default();
        // Set 1: FP-ideal and Long-paths accept, everyone else rejects.
        m.record(&[true, false, false, false, true, false]);
        // Set 2: only Long-paths accepts (a Graham-divergence rescue).
        m.record(&[false, false, false, false, true, false]);
        assert_eq!(m.sets, 2);
        assert_eq!(m.wins[4][0], 1, "Long-paths beats FP-ideal once");
        assert_eq!(m.wins[0][4], 0, "FP-ideal never beats Long-paths");
        assert_eq!(m.wins[0][1], 1);
        assert_eq!(m.wins[4][1], 2);
        for a in 0..METHODS {
            assert_eq!(m.wins[a][a], 0, "diagonal is structurally zero");
        }
        assert_eq!(m.net(4), 1 + 2 + 2 + 2 + 2);
        assert_eq!(m.net(5), -3, "loses to FP-ideal once and Long-paths twice");
        let csv = m.to_csv();
        assert!(csv.starts_with("method,vs_fp_ideal,vs_lp_ilp"));
        assert_eq!(csv.lines().count(), METHODS + 1);
        assert!(m.render().contains("Long-paths"));
    }

    #[test]
    fn compare_matrix_respects_the_dominance_edges() {
        // Every compare panel streamed into one matrix, the per-panel
        // acceptance sweeps collected alongside.
        let run_compare = |jobs: Jobs| {
            let mut matrix = MethodMatrix::default();
            let mut panels = Vec::new();
            for kind in compare_panels() {
                let mut points = Vec::new();
                kind.run_compare_into(4, jobs, &mut matrix, &mut |p: &SweepPoint| {
                    points.push(p.clone())
                });
                panels.push((kind.compare_name(), points));
            }
            (panels, matrix)
        };
        let (panels, matrix) = run_compare(Jobs::serial());
        assert_eq!(panels.len(), 5);
        assert_eq!(panels[0].0, "compare_deadline");
        let total_cells: usize = panels.iter().map(|(_, points)| points.len() * 4).sum();
        assert_eq!(matrix.sets, total_cells as u64);
        // Provable edges are structurally zero columns of the winner:
        // nobody ever beats Long-paths' superset-acceptance over FP-ideal,
        // and the paper-internal chain holds.
        let mi = |m: Method| Method::ALL.iter().position(|&x| x == m).unwrap();
        assert_eq!(matrix.wins[mi(Method::FpIdeal)][mi(Method::LongPaths)], 0);
        assert_eq!(matrix.wins[mi(Method::LpMax)][mi(Method::LpIlp)], 0);
        assert_eq!(matrix.wins[mi(Method::LpIlp)][mi(Method::FpIdeal)], 0);
        assert_eq!(matrix.wins[mi(Method::GenSporadic)][mi(Method::FpIdeal)], 0);
        // The comparison is deterministic: a second serial run folds the
        // same bytes, and the parallel run must match it (the per-set
        // indicator sum is order-independent).
        let (panels2, matrix2) = run_compare(Jobs::Count(3));
        assert_eq!(matrix2, matrix);
        assert_eq!(panels2.len(), panels.len());
        for (a, b) in panels.iter().zip(&panels2) {
            assert_eq!(a.1, b.1, "{}", a.0);
        }
    }

    #[test]
    fn worker_scratch_generation_matches_fresh() {
        let config = group1(2.5);
        let direct = rta_taskgen::generate_task_set(&mut SmallRng::seed_from_u64(42), &config);
        assert_eq!(generate_on_worker(42, &config), direct);
        let counted =
            rta_taskgen::generate_task_set_with_count(&mut SmallRng::seed_from_u64(42), &config, 5);
        assert_eq!(generate_on_worker_with_count(42, &config, 5), counted);
    }
}
