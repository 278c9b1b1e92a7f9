//! The batch workloads, `sweep-m16` and `validate-m4`: one worker, each
//! task set generated and analyzed (and simulated and checked) through the
//! program's own campaign driver, timed per set and per run.
//!
//! One worker, because on a small shared host the same m = 16 sweep spreads
//! widely with two workers but stays within a few percent serially. A run
//! is a sequence of rounds, one set per grid point each, until `--seconds`
//! have passed. The untraced run repeats a cycle of rounds seeded from
//! `--seed` and the round's place in the cycle, so each window of the cycle
//! is timed many times over the run, on the same sets each time; the traced
//! run seeds every round from its number.
//!
//! The traced run repeats the untraced run's rounds with every call into a
//! layer inside a span, plus one warm re-evaluation per set on the same
//! analysis cache: the warm evaluation is the fixed point alone, and the
//! cold evaluation minus the warm one is the lazy tables. The registry
//! counts of the two runs must agree exactly once the warm evaluations'
//! own counts are taken out.

use crate::report::{self, Counts, Report, SimTimes};
use crate::spans::{Tracer, ROOT};
use crate::Args;
use rta_analysis::{AnalysisRequest, Method, MethodOutcome, ScenarioSpace, TaskSetCache};
use rta_experiments::campaign::{self, generate_on_worker, utilization_grid, PanelKind, SweepSpec};
use rta_experiments::exec::{self, Jobs};
use rta_experiments::figure2::{SweepPoint, SweepResult};
use rta_experiments::set_seed;
use rta_experiments::validate::{self, PolicyChoice, ReleaseChoice, SetValidation};
use rta_model::TaskSet;
use rta_sim::{PreemptionPolicy, SimOutcome, SimRequest};
use rta_taskgen::group1;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Seed of the round every set-up runs: fixed, so set-up does the same
/// work on every run.
const WARMUP_SEED: u64 = 0x0005_E70B;

/// The validation horizon factor: ten times the default, as the
/// sim-equivalence CI job runs `repro validate cores --horizon 30`.
const VALIDATE_HORIZON: u64 = 10 * validate::DEFAULT_HORIZON_FACTOR;

/// Sets per point of the `repro campaign cores` m = 16 panel whose
/// acceptance counts are recorded below.
const REFERENCE_SETS: usize = 4;

/// Per-point acceptance counts of that panel on its default seed, in
/// [`Method::ALL`] order (the committed `ci/golden/campaign_cores_m16.csv`).
const REFERENCE_COUNTS: [[u8; 6]; 13] = [
    [4, 4, 4, 4, 4, 4],
    [4, 4, 4, 4, 4, 4],
    [4, 4, 2, 4, 4, 4],
    [4, 2, 0, 0, 4, 4],
    [4, 0, 0, 0, 4, 4],
    [4, 0, 0, 0, 4, 4],
    [4, 0, 0, 0, 4, 3],
    [3, 0, 0, 0, 3, 2],
    [0; 6],
    [0; 6],
    [0; 6],
    [0; 6],
    [0; 6],
];

/// The traced layer spans must sum to the untraced wall time within this
/// many percent.
const ACCOUNTING_TOLERANCE_PCT: f64 = 10.0;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Batch {
    Sweep,
    Validate,
}

impl Batch {
    fn cores(self) -> usize {
        match self {
            Batch::Sweep => 16,
            Batch::Validate => 4,
        }
    }

    /// Heavy sets ask for more than half the platform.
    fn heavy(self, utilization: f64) -> bool {
        utilization > self.cores() as f64 / 2.0
    }

    /// The request each set is analyzed with.
    fn request(self) -> AnalysisRequest {
        match self {
            Batch::Sweep => {
                AnalysisRequest::new(self.cores()).with_scenario_space(ScenarioSpace::PaperExact)
            }
            Batch::Validate => AnalysisRequest::new(self.cores())
                .with_scenario_space(ScenarioSpace::Extended)
                .with_bounds(true),
        }
    }

    /// One untraced round through the program's own driver; returns the
    /// sets run and the sets that failed their checks.
    fn round(
        self,
        seed: u64,
        latency: &mut Latencies,
        keep: Option<&mut Vec<SetValidation>>,
    ) -> (u64, u64) {
        match self {
            Batch::Sweep => sweep_round(seed, latency),
            Batch::Validate => validate_round(seed, latency, keep),
        }
    }
}

/// Wall time (µs) of each round's light half (its sets at utilizations up
/// to half the platform) and heavy half. A half round mixes cheap and
/// costly grid points in fixed proportions, so its percentiles do not
/// swing with the share of costly sets a seed happens to draw.
#[derive(Default)]
struct Latencies {
    light: Vec<f64>,
    heavy: Vec<f64>,
    round: [f64; 2],
}

impl Latencies {
    fn add(&mut self, heavy: bool, micros: f64) {
        self.round[usize::from(heavy)] += micros;
    }

    fn end_round(&mut self) {
        self.light.push(self.round[0]);
        self.heavy.push(self.round[1]);
        self.round = [0.0; 2];
    }
}

/// One sweep-m16 round through `campaign::sweep_into`. A set's wall time
/// is the gap between successive `make_set` calls (generation, analysis
/// and the fold), so nothing inside the program is timed.
fn sweep_round(seed: u64, latency: &mut Latencies) -> (u64, u64) {
    let cores = Batch::Sweep.cores();
    let grid = utilization_grid(cores);
    let starts = Mutex::new(Vec::with_capacity(grid.len()));
    let mut points = Vec::with_capacity(grid.len());
    {
        let spec = SweepSpec {
            cores,
            xs: &grid,
            sets_per_point: 1,
            seed,
            space: ScenarioSpace::PaperExact,
            make_set: |set_seed, x| {
                starts
                    .lock()
                    .expect("no thread panics holding the stamp lock")
                    .push(Instant::now());
                generate_on_worker(set_seed, &group1(x))
            },
        };
        campaign::sweep_into(&spec, Jobs::serial(), &mut |point| {
            points.push(point.clone())
        });
    }
    let end = Instant::now();
    let starts = starts
        .into_inner()
        .expect("no thread panics holding the stamp lock");
    for (i, &start) in starts.iter().enumerate() {
        let next = starts.get(i + 1).copied().unwrap_or(end);
        let heavy = Batch::Sweep.heavy(grid[i]);
        latency.add(heavy, (next - start).as_secs_f64() * 1e6);
    }
    latency.end_round();
    let failed = points
        .iter()
        .filter(|point| !dominance_holds(cores, point))
        .count();
    (starts.len() as u64, failed as u64)
}

/// The method-dominance chain at one sweep point.
fn dominance_holds(cores: usize, point: &SweepPoint) -> bool {
    SweepResult {
        cores,
        points: vec![point.clone()],
    }
    .dominance_holds()
}

/// One validate-m4 round: `validate::validate_set` per set through the
/// campaign driver's `exec::stream_indexed`, as `repro validate` runs it.
fn validate_round(
    seed: u64,
    latency: &mut Latencies,
    mut keep: Option<&mut Vec<SetValidation>>,
) -> (u64, u64) {
    let cores = Batch::Validate.cores();
    let grid = utilization_grid(cores);
    let sets = grid.len();
    let mut failed = 0;
    exec::stream_indexed(
        sets,
        Jobs::serial(),
        |index| {
            let started = Instant::now();
            let ts = generate_on_worker(set_seed(seed, index, 0), &group1(grid[index]));
            let outcome = validate::validate_set(
                &ts,
                cores,
                VALIDATE_HORIZON,
                PolicyChoice::Both,
                ReleaseChoice::Sync,
            );
            (outcome, started.elapsed())
        },
        |index, (outcome, took)| {
            let heavy = Batch::Validate.heavy(grid[index]);
            latency.add(heavy, took.as_secs_f64() * 1e6);
            if outcome.hard_violations > 0 {
                failed += 1;
            }
            if let Some(keep) = keep.as_deref_mut() {
                keep.push(outcome);
            }
        },
    );
    latency.end_round();
    (sets as u64, failed)
}

fn round_seed(seed: u64, round: u64) -> u64 {
    report::mix(report::mix(seed) ^ round)
}

/// What a run of untraced rounds did.
#[derive(Default)]
struct Timed {
    rounds: u64,
    sets: u64,
    failed: u64,
    wall: Duration,
}

/// How much round time passes between two calls of `timed_rounds`'s
/// `between`.
const CHUNK: Duration = Duration::from_secs(1);

/// Untraced rounds until they have run for `budget` (at least one). After
/// each [`CHUNK`] of round time the clock stops for `between`.
fn timed_rounds(
    batch: Batch,
    seed: u64,
    budget: Duration,
    latency: &mut Latencies,
    between: &mut dyn FnMut(),
) -> Timed {
    let mut timed = Timed::default();
    let mut chunk = Duration::ZERO;
    loop {
        let started = Instant::now();
        let place = timed.rounds % (WINDOW_ROUNDS * CYCLE_WINDOWS) as u64;
        let (sets, failed) = batch.round(round_seed(seed, place), latency, None);
        let took = started.elapsed();
        timed.rounds += 1;
        timed.sets += sets;
        timed.failed += failed;
        timed.wall += took;
        chunk += took;
        if chunk >= CHUNK {
            chunk = Duration::ZERO;
            between();
        }
        if timed.wall >= budget {
            break;
        }
    }
    timed
}

/// Runs one batch workload, untraced or traced.
pub fn run(batch: Batch, args: &Args) -> Result<Report, String> {
    report::print_provenance(args, 1, 0, "closed loop, one worker");
    let mut report = Report::new();
    // Warm this process the way each set-up probe does, untimed.
    let (sets, failed) = batch.round(WARMUP_SEED, &mut Latencies::default(), None);
    report.attempted += sets;
    report.fail(failed, "warm-up sets failed their output checks");
    if args.trace {
        traced(batch, args, &mut report)?;
    } else {
        untraced(batch, args, &mut report)?;
    }
    if batch == Batch::Sweep {
        reference_check(&mut report);
    }
    report.set("peak_rss_mb", report::peak_rss_mb()?);
    Ok(report)
}

fn untraced(batch: Batch, args: &Args, report: &mut Report) -> Result<(), String> {
    let mut latency = Latencies::default();
    let budget = Duration::from_secs_f64(args.seconds);
    let mut probes = Vec::new();
    let mut probe = || report::setup_probe(args).map(|seconds| probes.push(seconds));
    let mut probe_error = None;
    let timed = timed_rounds(batch, args.seed, budget, &mut latency, &mut || {
        if let Err(e) = probe() {
            probe_error = Some(e);
        }
    });
    if let Some(e) = probe_error {
        return Err(e);
    }
    // A run shorter than one chunk still reports a set-up.
    if probes.is_empty() {
        probes.push(report::setup_probe(args)?);
    }
    report::set_setup(report, &probes);
    report.attempted += timed.sets;
    report.fail(timed.failed, "sets failed their output checks");
    let rounds_us: Vec<f64> = latency
        .light
        .iter()
        .zip(&latency.heavy)
        .map(|(l, h)| l + h)
        .collect();
    let round_us = fastest_cycle(&rounds_us, "rounds");
    let rate = utilization_grid(batch.cores()).len() as f64 / round_us * 1e6;
    println!(
        "{} rounds, {} sets in {:.3} s: {:.3} sets/s overall, {rate:.3} sets/s at the fastest \
         cycle's pace",
        timed.rounds,
        timed.sets,
        timed.wall.as_secs_f64(),
        timed.sets as f64 / timed.wall.as_secs_f64(),
    );
    report.set("sets_per_s", rate);
    // A closed loop has no offered-rate ladder: the highest rate it
    // sustains is its throughput.
    report.set("max_rps", rate);
    report.set(
        "p50_us.light",
        fastest_cycle(&latency.light, "light half rounds"),
    );
    report.set(
        "p50_us.heavy",
        fastest_cycle(&latency.heavy, "heavy half rounds"),
    );
    Ok(())
}

/// Rounds per timing window: about two thirds of a second of sweep-m16.
const WINDOW_ROUNDS: usize = 50;
/// Windows per cycle of the untraced run: 200 rounds, 2600 sets, so that
/// which sets a seed draws moves a cycle's time by little even for the
/// heavy half, whose round times spread about 45% around their mean.
const CYCLE_WINDOWS: usize = 4;

/// The mean round time (µs) of a cycle whose every window runs at the
/// fast end ([`report::fast_end`]) of that window's repeats over the run.
/// A window's repeats run the same sets, so they differ only in how fast
/// the host ran them: a small shared host slows down for seconds to
/// minutes at a time, and each window is timed in all of them. A run
/// shorter than a cycle reports the mean of its rounds.
fn fastest_cycle(rounds_us: &[f64], what: &str) -> f64 {
    let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    let windows: Vec<f64> = rounds_us.chunks_exact(WINDOW_ROUNDS).map(mean).collect();
    if windows.len() < CYCLE_WINDOWS {
        println!("{what}: {} rounds, less than a cycle", rounds_us.len());
        return mean(rounds_us);
    }
    let fastest: Vec<f64> = (0..CYCLE_WINDOWS)
        .map(|w| {
            let repeats: Vec<f64> = windows
                .iter()
                .skip(w)
                .step_by(CYCLE_WINDOWS)
                .copied()
                .collect();
            report::fast_end(&repeats, true)
        })
        .collect();
    let cycle = mean(&fastest);
    println!(
        "{what}: {} rounds, {} windows of {WINDOW_ROUNDS}, window means from {:.1} to {:.1} us; \
         cycle of {CYCLE_WINDOWS} windows at their fastest repeats {cycle:.1} us per round",
        rounds_us.len(),
        windows.len(),
        windows.iter().copied().fold(f64::INFINITY, f64::min),
        windows.iter().copied().fold(0.0, f64::max),
    );
    cycle
}

/// What the traced replica of the rounds measured, per layer (ns).
#[derive(Default)]
struct Layers {
    sets: u64,
    taskgen_ns: f64,
    cold_ns: Vec<f64>,
    warm_ns: f64,
    sim: SimTimes,
    check_ns: f64,
    warm_counts: Counts,
}

/// Each round twice, untraced and then traced, until the untraced rounds
/// have run for half the time. Alternating keeps the two runs on the same
/// host conditions, so the traced spans can be held to the untraced wall
/// time.
fn traced(batch: Batch, args: &Args, report: &mut Report) -> Result<(), String> {
    let budget = Duration::from_secs_f64(args.seconds / 2.0);
    let mut latency = Latencies::default();
    let mut reference = Vec::new();
    let mut tracer = Tracer::new();
    let mut layers = Layers::default();
    let (mut untraced, mut traced) = (Counts::default(), Counts::default());
    let (mut wall, mut traced_wall, mut rounds, mut untraced_sets) =
        (Duration::ZERO, Duration::ZERO, 0, 0);
    while rounds == 0 || wall < budget {
        let seed = round_seed(args.seed, rounds);
        reference.clear();
        let (((sets, failed), took), counts) = Counts::around(|| {
            let started = Instant::now();
            let result = batch.round(seed, &mut latency, Some(&mut reference));
            (result, started.elapsed())
        });
        wall += took;
        untraced.add(&counts);
        untraced_sets += sets;
        report.attempted += sets;
        report.fail(failed, "untraced sets failed their output checks");
        let ((failed, took), counts) = Counts::around(|| {
            let started = Instant::now();
            let failed = traced_round(batch, seed, &mut tracer, &mut layers, &reference);
            (failed, started.elapsed())
        });
        traced_wall += took;
        traced.add(&counts);
        report.attempted += sets;
        report.fail(
            failed,
            "traced sets failed their checks or disagree with the untraced run",
        );
        rounds += 1;
    }
    let traced_wall_ns = traced_wall.as_nanos() as f64;
    let drift = untraced.differing(&traced.minus(&layers.warm_counts));

    let sets = layers.sets.max(1) as f64;
    let wall_ns = wall.as_nanos() as f64;
    let cold_ns: f64 = layers.cold_ns.iter().sum();
    let tables_ns = cold_ns - layers.warm_ns;
    let accounted = layers.taskgen_ns + cold_ns + layers.sim.ns + layers.check_ns;
    report.set("taskgen.set_ns", layers.taskgen_ns / sets);
    report::report_analysis(report, &mut layers.cold_ns, layers.warm_ns);
    untraced.report(report, untraced_sets * Method::ALL.len() as u64);
    layers.sim.report(report);
    report.set("exec.overhead_ns", (wall_ns - accounted) / sets);
    report.set(
        "trace.overhead_pct",
        100.0 * (traced_wall_ns - layers.warm_ns - wall_ns) / wall_ns,
    );
    let accounted_pct = 100.0 * accounted / wall_ns;
    report.set("trace.accounted_pct", accounted_pct);
    report.set("trace.nondeterministic_counts", drift as f64);
    let share = |ns: f64| 100.0 * ns / wall_ns;
    let shares = [
        ("share.taskgen_pct", share(layers.taskgen_ns)),
        ("share.tables_pct", share(tables_ns)),
        ("share.fixed_point_pct", share(layers.warm_ns)),
        ("share.sim_pct", share(layers.sim.ns)),
    ];
    let mut rest = 100.0;
    for (name, value) in shares {
        report.set(name, value);
        rest -= value;
    }
    report.set("share.exec_pct", rest);
    let within = (accounted_pct - 100.0).abs() <= ACCOUNTING_TOLERANCE_PCT;
    println!(
        "accounting: traced layer spans sum to {accounted_pct:.1}% of the untraced wall time \
         (tolerance ±{ACCOUNTING_TOLERANCE_PCT}%): {}",
        if within { "within" } else { "OUTSIDE" }
    );
    if !within {
        report.fail(1, "the traced layer spans miss the untraced wall time");
    }
    tracer.print_self_times(traced_wall_ns);
    tracer.write_run(&args.out_dir, args.workload.name(), args.seed)
}

fn verdicts(outcomes: &[MethodOutcome]) -> Vec<bool> {
    outcomes.iter().map(|o| o.schedulable).collect()
}

/// The traced replica of one round: the same sets and calls as the
/// untraced round, each call into a layer inside a span; `reference` holds
/// the untraced round's `validate_set` results. Returns the sets that
/// failed their checks.
fn traced_round(
    batch: Batch,
    seed: u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
    reference: &[SetValidation],
) -> u64 {
    let cores = batch.cores();
    let request = batch.request();
    let round = tracer.open("round", ROOT, seed);
    let mut failed = 0;
    for (point, &x) in utilization_grid(cores).iter().enumerate() {
        let id = layers.sets;
        layers.sets += 1;
        let cell = tracer.open("set", round, id);
        let (ts, ns) = tracer.leaf("taskgen", cell, id, || {
            generate_on_worker(set_seed(seed, point, 0), &group1(x))
        });
        layers.taskgen_ns += ns as f64;
        let span = tracer.open("analysis", cell, id);
        let cache = TaskSetCache::new(&ts, cores);
        let outcomes = request.evaluate_with(&cache).into_outcomes();
        layers.cold_ns.push(tracer.close(span) as f64);
        let ((warm, ns), counts) = Counts::around(|| {
            tracer.leaf("analysis.warm", cell, id, || {
                request.evaluate_with(&cache).into_outcomes()
            })
        });
        layers.warm_ns += ns as f64;
        layers.warm_counts.add(&counts);
        let ok = verdicts(&warm) == verdicts(&outcomes)
            && match batch {
                Batch::Sweep => dominance_holds(
                    cores,
                    &SweepPoint {
                        x,
                        achieved_utilization: ts.total_utilization(),
                        schedulable_pct: std::array::from_fn(|mi| {
                            if outcomes[mi].schedulable {
                                100.0
                            } else {
                                0.0
                            }
                        }),
                    },
                ),
                Batch::Validate => {
                    let expected = reference.get(point);
                    validate_traced(&ts, &outcomes, cell, id, tracer, layers, expected)
                }
            };
        if !ok {
            failed += 1;
        }
        tracer.close(cell);
    }
    tracer.close(round);
    failed
}

/// The traced replica of `validate_set` after its analysis: each policy's
/// simulation (skipped when no accepted method is checked under it), the
/// invariant checks, and the trace re-run `validate_set` makes of a
/// schedule with findings. True when the set has no hard finding and
/// agrees with the untraced run's `validate_set` result.
fn validate_traced(
    ts: &TaskSet,
    outcomes: &[MethodOutcome],
    cell: usize,
    id: u64,
    tracer: &mut Tracer,
    layers: &mut Layers,
    expected: Option<&SetValidation>,
) -> bool {
    let max_period = ts.tasks().iter().map(|t| t.period()).max().unwrap_or(1);
    let horizon = VALIDATE_HORIZON.saturating_mul(max_period).max(1);
    let (mut hard, mut soft) = (0, 0);
    for policy in [
        PreemptionPolicy::LimitedPreemptive,
        PreemptionPolicy::LazyPreemptive,
        PreemptionPolicy::FullyPreemptive,
    ] {
        let checked = |(mi, outcome): (usize, &MethodOutcome)| {
            outcome.schedulable && checked_under(mi).contains(&policy)
        };
        if !outcomes.iter().enumerate().any(checked) {
            continue;
        }
        let request = SimRequest::new(Batch::Validate.cores(), horizon)
            .with_policy(policy)
            .with_release(ReleaseChoice::Sync.release());
        let (outcome, ns) = tracer.leaf("sim", cell, id, || request.evaluate(ts));
        layers.sim.add(ns, &outcome);
        let ((h, s), ns) = tracer.leaf("validate.check", cell, id, || {
            findings(outcomes, policy, &outcome)
        });
        layers.check_ns += ns as f64;
        if h + s > 0 {
            let (witness, ns) = tracer.leaf("sim", cell, id, || {
                request.clone().with_trace(true).evaluate(ts)
            });
            layers.sim.add(ns, &witness);
        }
        hard += h;
        soft += s;
    }
    hard == 0
        && expected.is_some_and(|e| {
            e.accepted[..] == verdicts(outcomes)[..]
                && e.hard_violations == hard
                && e.lp_exceedances + e.lp_misses == soft
        })
}

/// The simulator policies method `mi`'s bounds are checked under, as in
/// `validate_set`.
fn checked_under(mi: usize) -> &'static [PreemptionPolicy] {
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

/// `validate_set`'s invariants on one simulated schedule under synchronous
/// releases, as (hard, soft) findings: a deadline miss or a response above
/// the bound of an accepted method checked under `policy` is hard for the
/// sound methods and soft for the paper's LP-ILP and LP-max.
fn findings(outcomes: &[MethodOutcome], policy: PreemptionPolicy, sim: &SimOutcome) -> (u64, u64) {
    let (mut hard, mut soft) = (0, 0);
    for (mi, outcome) in outcomes.iter().enumerate() {
        if !outcome.schedulable || !checked_under(mi).contains(&policy) {
            continue;
        }
        let exceeded = sim
            .per_task()
            .iter()
            .zip(outcome.bounds.iter().flatten())
            .any(|(stats, bound)| {
                u128::from(stats.max_response) * u128::from(bound.cores()) > bound.scaled()
            });
        let sound = !matches!(Method::ALL[mi], Method::LpIlp | Method::LpMax);
        for finding in [sim.total_deadline_misses() > 0, exceeded] {
            if finding && sound {
                hard += 1;
            } else if finding {
                soft += 1;
            }
        }
    }
    (hard, soft)
}

/// Re-runs the `repro campaign cores` m = 16 panel at [`REFERENCE_SETS`]
/// sets per point and compares each point's per-method acceptance counts
/// with the recorded ones.
fn reference_check(report: &mut Report) {
    let mut points = Vec::with_capacity(REFERENCE_COUNTS.len());
    PanelKind::Cores(16).run_into(REFERENCE_SETS, Jobs::serial(), &mut |point| {
        points.push(
            point
                .schedulable_pct
                .map(|pct| (pct * REFERENCE_SETS as f64 / 100.0).round() as u8),
        )
    });
    let matching = points
        .iter()
        .zip(&REFERENCE_COUNTS)
        .filter(|(got, want)| got == want)
        .count();
    println!(
        "reference: campaign cores m = 16 at {REFERENCE_SETS} sets per point, \
         {matching} of {} points match the recorded acceptance counts",
        REFERENCE_COUNTS.len()
    );
    report.attempted += (REFERENCE_COUNTS.len() * REFERENCE_SETS) as u64;
    report.fail(
        ((REFERENCE_COUNTS.len() - matching) * REFERENCE_SETS) as u64,
        "the m = 16 reference panel's acceptance counts differ from the recorded ones",
    );
}

/// One cold set-up: the fixed warm-up round in a fresh process.
pub fn setup_probe(batch: Batch) -> Result<f64, String> {
    let started = Instant::now();
    let (_, failed) = batch.round(WARMUP_SEED, &mut Latencies::default(), None);
    let seconds = started.elapsed().as_secs_f64();
    if failed > 0 {
        return Err(format!("{failed} warm-up sets failed their checks"));
    }
    Ok(seconds)
}
