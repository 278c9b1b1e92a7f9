//! `repro` — regenerate every table and figure of the paper, plus the
//! campaign panels beyond it.
//!
//! ```text
//! repro <command> [--sets N] [--out DIR] [--samples N] [--jobs N]
//!
//! commands:
//!   table1       Table I   (µ_i[c] of the Figure 1 tasks)
//!   table2       Table II  (execution scenarios e_4)
//!   table3       Table III (ρ_k[s_l], Δ⁴/Δ³, LP-ILP vs LP-max)
//!   fig2a        Figure 2(a): m = 4 utilization sweep
//!   fig2b        Figure 2(b): m = 8 utilization sweep
//!   fig2c        Figure 2(c): m = 16 utilization sweep
//!   fig2c-tasks  Figure 2(c) variant: task-count sweep at U = m/2
//!   group2       group-2 sweep (uniformly parallel task sets)
//!   timing       average analysis runtime for m = 4, 8, 16 (one thread)
//!   sensitivity  generator sensitivity study: Figure 2(a) under each
//!                period model (sensitivity_{slack,common,pertask}.csv,
//!                at most 60 sets/point)
//!   campaign     scenario panels beyond the paper; optional selector:
//!                  deadline  constrained deadlines (D = f·T, f swept)
//!                  chains    chain-heavy task mixtures
//!                  cores     m ∈ {2, 8, 16} utilization sweeps
//!                  cross     PeriodModel × deadline_factor cross panels
//!                  compare   competitor panel: re-streams the deadline/
//!                            chain/core sweeps with per-point acceptance
//!                            CSVs for all six methods (compare_*.csv)
//!                            and folds every cell into the pairwise
//!                            wins/losses matrix (method_matrix.csv);
//!                            byte-identical for any --jobs value
//!                  all       every panel (default); also aggregates the
//!                            LP-ILP vs LP-sound acceptance gap into
//!                            soundness_cost.csv
//!   validate     simulation-backed soundness campaign: analyze each
//!                generated set (per-task bounds, all six methods) AND
//!                simulate it under the eager-/lazy-limited and fully
//!                preemptive policies, check the invariants (accepted ⇒
//!                zero misses, sim max RT ≤ bound; the FP-ideal, LP-sound,
//!                Long-paths and Gen-sporadic legs are hard), report bound
//!                tightness; panels m ∈ {2,4,8,16} + deadline/chain
//!                mixtures + release models;
//!                optional selector:
//!                cores | deadline | chains | release | all.
//!                Exits non-zero on any hard invariant violation
//!                (including any LP-sound exceedance).
//!   trace        counterexample forensics: simulate the frozen task set
//!                that beats the paper's LP bound (LP-ILP/LP-max 300.5 vs
//!                an observed response of 304 under limited-preemptive
//!                scheduling on m = 2) and render the witness schedule as
//!                a deterministic ASCII Gantt chart — per-core lanes,
//!                preemption markers, release/completion/deadline-miss
//!                rows — to stdout and trace_counterexample.txt in --out
//!   dump-set     print one generated task set as JSON (--seed N --target U)
//!   serve        admission-control daemon: answer accept/reject verdicts
//!                over line-delimited JSON frames on a TCP socket, with a
//!                bounded LRU of analyzed task sets, a bounded connection
//!                pool, idle/frame timeouts and watermark load shedding
//!                (see README, "Serving verdicts" and "Operating the
//!                server"); runs until a client sends {"shutdown":true},
//!                then drains live connections and reports the drain
//!   loadgen      drive a running server with a repeat/fresh request mix
//!                at configurable concurrency; retries transient failures
//!                with capped, deterministically jittered backoff; prints
//!                throughput, cache hit rate, latency percentiles and
//!                retry accounting. With --chaos, runs a seeded script of
//!                hostile client behaviours instead (slowloris, mid-frame
//!                disconnects, malformed/oversized bursts, idle connects)
//!   all          everything above (except dump-set, serve and loadgen)
//!
//! options:
//!   --sets N     task sets per sweep point        (default 300)
//!   --samples N  positive answers per timing row  (default 20)
//!   --out DIR    also write CSV files to DIR      (default out/)
//!   --jobs N     sweep worker threads; 0 = one per core (default 0)
//!   --serial     shorthand for --jobs 1
//!   --horizon N  validate: simulate releases over N spans of the set's
//!                largest period (default 3)
//!   --policy P   validate: limited | eager | lazy | full | both
//!                (default both)
//!   --release R  validate: sync | jitter | sporadic — overrides each
//!                panel's own release pattern (default: sync everywhere
//!                except the release panels); jitter magnitudes are
//!                per-task fractions of each task's own period (T_i/10
//!                for jitter, T_i for sporadic), reported in the CSV
//!                jitter column
//!   --addr A     serve/loadgen: socket address (default 127.0.0.1:7431)
//!   --lru N      serve: task sets kept in the admission cache (default 128)
//!   --conns N    loadgen: concurrent connections      (default 8)
//!   --requests N loadgen: requests per connection     (default 200)
//!   --repeat P   loadgen: percent of repeat requests  (default 80)
//!   --simulate P loadgen: percent of requests sent as {"simulate":...}
//!                frames (event-driven simulation on the server; default 0)
//!   --competitors P loadgen: percent of analysis frames restricted to the
//!                published competitor bounds (Long-paths, Gen-sporadic;
//!                default 0)
//!   --bounds     loadgen: request per-task bounds on every frame
//!   --bench P    loadgen: also write the flat BENCH JSON report to P
//!   --metrics P  loadgen: scrape {"metrics":true} after the burst (before
//!                any --shutdown) and write the JSON response to P
//!   --metrics-dump P serve: write the metrics registry to P in Prometheus
//!                text format when the server drains
//!   --width N    trace: chart width in columns            (default 96)
//!   --shutdown   loadgen: stop the server after the burst
//!   --max-conns N serve: connection-pool bound          (default 64)
//!   --watermark N serve: shed-mode threshold            (default 3/4 of
//!                the pool bound)
//!   --idle-ms N  serve: idle-connection timeout, ms     (default 30000)
//!   --frame-ms N serve: frame arrival/processing budget (default 10000)
//!   --drain-ms N serve: shutdown drain deadline, ms     (default 5000)
//!   --retries N  loadgen: transient-failure retries     (default 4)
//!   --chaos      loadgen: run the seeded hostile-client script
//! ```
//!
//! Sweep output is bit-identical for every `--jobs` value: task-set seeds
//! derive only from sweep coordinates, generation scratch never influences
//! a random draw, and results are folded in coordinate order. Every sweep
//! CSV is **streamed**: rows hit the file as their sweep point completes
//! (`rta_experiments::csv::CsvSink` fed by the order-preserving worker
//! channel), no panel buffers its rows in memory.

use rta_experiments::campaign::{self, MethodMatrix, PanelKind, PeriodFamily};
use rta_experiments::csv::CsvSink;
use rta_experiments::exec::Jobs;
use rta_experiments::figure2::{self, SweepPoint, SweepResult};
use rta_experiments::loadgen::{self, LoadgenOptions};
use rta_experiments::serve::{self, ServeOptions};
use rta_experiments::validate::{
    PolicyChoice, ReleaseChoice, ValidateOptions, ValidatePanel, ValidatePoint,
};
use rta_experiments::{tables, timing, validate};
use std::path::PathBuf;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// A parsed command line. Flags land straight in the library option
/// structs, which start from their `Default` impls; only the values the
/// CLI sets on purpose are written here.
#[derive(Debug)]
struct Cli {
    command: String,
    selector: Option<String>,
    /// Also holds `--sets` for every sweep (see [`Cli::sets`]).
    validate: ValidateOptions,
    serve: ServeOptions,
    /// Also holds `--seed` and `--target` for `dump-set`.
    loadgen: LoadgenOptions,
    /// Sweep workers (`--jobs`, `--serial`; one per core by default).
    jobs: Jobs,
    samples: usize,
    out: PathBuf,
    width: usize,
    bench: Option<PathBuf>,
}

impl Cli {
    /// `--sets`: task sets per sweep point, for every sweep and panel.
    fn sets(&self) -> usize {
        self.validate.sets_per_point
    }
}

fn parsed<T: FromStr>(v: &str) -> Option<T> {
    v.parse().ok()
}

fn positive<T: FromStr + Default + PartialOrd>(v: &str) -> Option<T> {
    parsed(v).filter(|n| *n > T::default())
}

/// A utilization target: the generator sizes a set from it, so it must be
/// finite as well as positive.
fn utilization(v: &str) -> Option<f64> {
    positive(v).filter(|u: &f64| u.is_finite())
}

fn percent(v: &str) -> Option<u32> {
    parsed(v).filter(|&n| n <= 100)
}

fn millis(v: &str) -> Option<Duration> {
    positive(v).map(Duration::from_millis)
}

/// The value after a flag, converted and checked by `check`; `error` when
/// the value is missing or `check` rejects it.
fn value<'a, T>(
    it: &mut impl Iterator<Item = &'a String>,
    check: impl FnOnce(&str) -> Option<T>,
    error: &str,
) -> Result<T, String> {
    it.next()
        .and_then(|v| check(v))
        .ok_or_else(|| error.to_string())
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let loadgen = LoadgenOptions::default();
    let mut cli = Cli {
        command: String::new(),
        selector: None,
        validate: ValidateOptions::default(),
        // `serve` listens where `loadgen` connects by default.
        serve: ServeOptions {
            addr: loadgen.addr.clone(),
            ..Default::default()
        },
        loadgen: LoadgenOptions { seed: 0, ..loadgen },
        jobs: Jobs::Auto,
        samples: 20,
        out: PathBuf::from("out"),
        width: 96,
        bench: None,
    };
    let mut command = None;
    let mut watermark = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let it = &mut it;
        match arg.as_str() {
            "--sets" => cli.validate.sets_per_point = value(it, parsed, "--sets needs a number")?,
            "--samples" => cli.samples = value(it, parsed, "--samples needs a number")?,
            "--out" => cli.out = value(it, parsed, "--out needs a path")?,
            "--seed" => cli.loadgen.seed = value(it, parsed, "--seed needs a number")?,
            "--target" => {
                cli.loadgen.target =
                    value(it, utilization, "--target needs a finite positive number")?;
            }
            "--horizon" => {
                cli.validate.horizon_factor = value(
                    it,
                    positive,
                    "--horizon needs a positive number of period spans",
                )?;
            }
            "--policy" => {
                cli.validate.policies = value(
                    it,
                    PolicyChoice::from_flag,
                    "--policy must be limited, eager, lazy, full or both",
                )?;
            }
            "--release" => {
                cli.validate.release = Some(value(
                    it,
                    ReleaseChoice::from_flag,
                    "--release must be sync, jitter or sporadic",
                )?);
            }
            "--jobs" => {
                let n = value(it, parsed, "--jobs needs a number (0 = one per core)")?;
                cli.jobs = Jobs::from_flag(n);
            }
            "--serial" => cli.jobs = Jobs::serial(),
            "--addr" => {
                cli.serve.addr = value(it, parsed, "--addr needs a host:port address")?;
                cli.loadgen.addr = cli.serve.addr.clone();
            }
            "--lru" => {
                cli.serve.lru_capacity =
                    value(it, positive, "--lru needs a positive number of task sets")?;
            }
            "--conns" => {
                cli.loadgen.connections = value(it, positive, "--conns needs a positive number")?;
            }
            "--requests" => {
                cli.loadgen.requests_per_connection =
                    value(it, positive, "--requests needs a positive number")?;
            }
            "--repeat" => {
                cli.loadgen.repeat_percent =
                    value(it, percent, "--repeat needs a percentage (0..=100)")?;
            }
            "--simulate" => {
                cli.loadgen.simulate_percent =
                    value(it, percent, "--simulate needs a percentage (0..=100)")?;
            }
            "--competitors" => {
                cli.loadgen.competitor_percent =
                    value(it, percent, "--competitors needs a percentage (0..=100)")?;
            }
            "--bounds" => cli.loadgen.bounds = true,
            "--bench" => cli.bench = Some(value(it, parsed, "--bench needs a path")?),
            "--metrics" => cli.loadgen.metrics = Some(value(it, parsed, "--metrics needs a path")?),
            "--metrics-dump" => {
                cli.serve.metrics_dump = Some(value(it, parsed, "--metrics-dump needs a path")?);
            }
            "--width" => {
                cli.width = value(
                    it,
                    |v| parsed(v).filter(|&n| n >= 16),
                    "--width needs a number of columns (>= 16)",
                )?;
            }
            "--shutdown" => cli.loadgen.shutdown = true,
            "--max-conns" => {
                cli.serve.max_conns = value(it, positive, "--max-conns needs a positive number")?;
            }
            "--watermark" => {
                watermark = Some(value(it, positive, "--watermark needs a positive number")?);
            }
            "--idle-ms" => {
                cli.serve.idle_timeout =
                    value(it, millis, "--idle-ms needs a positive number of ms")?;
            }
            "--frame-ms" => {
                cli.serve.frame_timeout =
                    value(it, millis, "--frame-ms needs a positive number of ms")?;
            }
            "--drain-ms" => {
                cli.serve.drain_timeout =
                    value(it, millis, "--drain-ms needs a positive number of ms")?;
            }
            "--retries" => cli.loadgen.retries = value(it, parsed, "--retries needs a number")?,
            "--chaos" => cli.loadgen.chaos = true,
            cmd if command.is_none() && !cmd.starts_with('-') => command = Some(cmd.to_string()),
            sel if cli.selector.is_none() && !sel.starts_with('-') => {
                cli.selector = Some(sel.to_string());
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    cli.serve.shed_watermark =
        watermark.unwrap_or_else(|| serve::default_watermark(cli.serve.max_conns));
    cli.command = command.ok_or("missing command")?;
    if cli.selector.is_some() && cli.command != "campaign" && cli.command != "validate" {
        return Err("only the campaign and validate commands take a panel selector".into());
    }
    Ok(cli)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = parse(&args).unwrap_or_else(|e| usage(&e));
    std::fs::create_dir_all(&options.out).expect("create output directory");
    let selector = options.selector.as_deref().unwrap_or("all");
    match options.command.as_str() {
        "table1" => table1(&options, &tables::run_all()),
        "table2" => table2(&tables::run_all()),
        "table3" => table3(&tables::run_all()),
        "fig2a" => run_sweeps(&options, &[PanelKind::Figure2(4)], false),
        "fig2b" => run_sweeps(&options, &[PanelKind::Figure2(8)], false),
        "fig2c" => run_sweeps(&options, &[PanelKind::Figure2(16)], false),
        "fig2c-tasks" => run_sweeps(&options, &[PanelKind::TaskCount], false),
        "group2" => run_sweeps(&options, &GROUP2, false),
        "timing" => run_timing(&options),
        "sensitivity" => run_sweeps(&options, &SENSITIVITY, false),
        "campaign" => run_campaign(&options, selector),
        "validate" => run_validate(&options, selector),
        "dump-set" => dump_set(&options),
        "trace" => run_trace(&options),
        "serve" => run_serve(&options),
        "loadgen" => run_loadgen(&options),
        "all" => {
            let t = tables::run_all();
            table1(&options, &t);
            table2(&t);
            table3(&t);
            let figure2 = [4, 8, 16].map(PanelKind::Figure2);
            run_sweeps(&options, &figure2, false);
            run_sweeps(&options, &[PanelKind::TaskCount], false);
            run_sweeps(&options, &GROUP2, false);
            run_timing(&options);
            run_sweeps(&options, &SENSITIVITY, false);
            run_campaign(&options, "all");
            run_validate(&options, "all");
        }
        other => usage(&format!("unknown command: {other}")),
    }
}

/// Opens the streaming CSV sink of one panel in the output directory.
fn open_sink(options: &Cli, name: &str, header: &[&str]) -> CsvSink<impl std::io::Write> {
    let path = options.out.join(format!("{name}.csv"));
    CsvSink::create(&path, header).unwrap_or_else(|e| panic!("create CSV {}: {e}", path.display()))
}

/// Streams one panel into `<out>/<name>.csv`, writing each point's row as
/// it completes, and returns the points for the terminal rendering. `run`
/// drives the panel, handing every completed point to its callback.
fn streamed<P: Clone>(
    options: &Cli,
    name: &str,
    header: &[&str],
    cells: fn(&P) -> Vec<String>,
    run: impl FnOnce(&mut dyn FnMut(&P)),
) -> Vec<P> {
    let mut sink = open_sink(options, name, header);
    let mut points = Vec::new();
    run(&mut |p: &P| {
        sink.row(&cells(p)).expect("write CSV row");
        points.push(p.clone());
    });
    sink.finish().expect("flush CSV");
    points
}

/// Runs the requested validation panels, streaming each CSV row as its
/// sweep point completes, and exits non-zero on any invariant violation.
fn run_validate(options: &Cli, selector: &str) {
    let jobs = options.jobs;
    let panels = match selector {
        "cores" => ValidatePanel::all()
            .into_iter()
            .filter(|p| matches!(p, ValidatePanel::Cores(_)))
            .collect(),
        "deadline" => vec![ValidatePanel::Deadline],
        "chains" => vec![ValidatePanel::Chains],
        "release" => ValidatePanel::all()
            .into_iter()
            .filter(|p| matches!(p, ValidatePanel::Release(_)))
            .collect(),
        "all" => ValidatePanel::all(),
        other => usage(&format!("unknown validate panel: {other}")),
    };
    let vopts = &options.validate;
    let mut total_violations = 0u64;
    let mut total_exceedances = 0u64;
    let mut total_lp_misses = 0u64;
    let mut total_truncated = 0u64;
    for panel in panels {
        let name = panel.name();
        println!(
            "== validate/{name}: {} — {} sets/point, horizon {}x max period, {} worker(s) ==",
            panel.title(),
            vopts.sets_per_point,
            vopts.horizon_factor,
            jobs.worker_count()
        );
        let points = streamed(
            options,
            &name,
            &validate::csv_header(panel.x_label()),
            ValidatePoint::csv_cells,
            |emit| panel.run_into(vopts, jobs, emit),
        );
        let result = validate::ValidateResult {
            cores: panel.cores(),
            points,
        };
        println!("{}", result.render(panel.x_label()));
        total_violations += result.total_violations();
        total_exceedances += result.total_lp_exceedances();
        total_lp_misses += result.total_lp_misses();
        total_truncated += result.total_truncated_traces();
        println!(
            "hard violations: {}; LP bound exceedances: {}; LP deadline misses: {}\nwrote {}\n",
            result.total_violations(),
            result.total_lp_exceedances(),
            result.total_lp_misses(),
            options.out.join(format!("{name}.csv")).display()
        );
    }
    if total_exceedances > 0 {
        println!(
            "note: {total_exceedances} simulated response(s) exceeded an LP-ILP/LP-max bound — \
             the documented optimism of the paper's eager-LP blocking bound \
             (cf. Nasri, Nelissen & Brandenburg, ECRTS 2019); \
             the sound FP-ideal and LP-sound legs are unaffected"
        );
    }
    if total_lp_misses > 0 {
        println!(
            "note: {total_lp_misses} LP-accepted set(s) missed a deadline in simulation — \
             a full counterexample to the paper's schedulability verdict; \
             inspect the lp_deadline_misses column"
        );
    }
    if total_truncated > 0 {
        eprintln!(
            "warning: {total_truncated} counterexample trace(s) hit the bounded-trace \
             capacity and are truncated — recorded witness schedules are missing their \
             tail; re-run the offending cell with a smaller --horizon to capture it whole"
        );
    }
    if total_violations > 0 {
        eprintln!(
            "error: {total_violations} hard soundness violation(s) — \
             the analysis or the simulator has a bug"
        );
        std::process::exit(1);
    }
    println!("all hard soundness invariants held");
}

/// The column layout of `soundness_cost.csv`: per campaign panel point,
/// the LP-ILP / LP-sound acceptance ratios and their gap in percentage
/// points — how much schedulability the corrected bound costs over the
/// paper's optimistic one.
const SOUNDNESS_COST_HEADER: [&str; 7] = [
    "panel",
    "x",
    "fp_ideal_pct",
    "lp_ilp_pct",
    "lp_max_pct",
    "lp_sound_pct",
    "soundness_cost_pp",
];

/// The `repro group2` panels.
const GROUP2: [PanelKind; 3] = [
    PanelKind::Group2(4),
    PanelKind::Group2(8),
    PanelKind::Group2(16),
];

/// The `repro sensitivity` panels: Figure 2(a) under each period model.
const SENSITIVITY: [PanelKind; 3] = [
    PanelKind::Sensitivity(PeriodFamily::SlackFactor),
    PanelKind::Sensitivity(PeriodFamily::CommonScale),
    PanelKind::Sensitivity(PeriodFamily::PerTaskUtilization),
];

/// Runs the requested `repro campaign` panels. A full-coverage run
/// (`campaign all`) additionally aggregates the per-point LP-ILP vs
/// LP-sound acceptance gap into `soundness_cost.csv`; partial selectors
/// leave any existing aggregate untouched rather than clobbering it with
/// a subset.
fn run_campaign(options: &Cli, selector: &str) {
    let panels: Vec<PanelKind> = match selector {
        "deadline" => vec![PanelKind::Deadline],
        "chains" => vec![PanelKind::Chains],
        "cores" => vec![
            PanelKind::Cores(2),
            PanelKind::Cores(8),
            PanelKind::Cores(16),
        ],
        "cross" => PanelKind::all()
            .into_iter()
            .filter(|k| matches!(k, PanelKind::Cross(_)))
            .collect(),
        "compare" => return run_campaign_compare(options),
        "all" => PanelKind::all(),
        other => usage(&format!("unknown campaign panel: {other}")),
    };
    run_sweeps(options, &panels, selector == "all");
}

/// Streams each schedulability panel into `<out>/<name>.csv`, writing
/// every CSV row as its sweep point completes, then prints the panel's
/// table and dominance check. With `soundness_cost`, every point's LP-ILP
/// vs LP-sound acceptance gap also goes to `soundness_cost.csv`.
fn run_sweeps(options: &Cli, panels: &[PanelKind], soundness_cost: bool) {
    let jobs = options.jobs;
    let mut cost_sink =
        soundness_cost.then(|| open_sink(options, "soundness_cost", &SOUNDNESS_COST_HEADER));
    for &kind in panels {
        let name = kind.name();
        // `repro sensitivity` runs three full panels; keep it bounded.
        let sets = match kind {
            PanelKind::Sensitivity(_) => options.sets().min(60),
            _ => options.sets(),
        };
        println!(
            "== {name}: {} — {sets} sets/point, {} worker(s) ==",
            kind.title(),
            jobs.worker_count()
        );
        let start = Instant::now();
        let points = streamed(
            options,
            &name,
            &figure2::csv_header(kind.x_label()),
            SweepPoint::csv_cells,
            |emit| {
                kind.run_into(sets, jobs, &mut |p: &SweepPoint| {
                    if let Some(sink) = &mut cost_sink {
                        sink.row(&[
                            name.clone(),
                            format!("{:.4}", p.x),
                            format!("{:.2}", p.schedulable_pct[0]),
                            format!("{:.2}", p.schedulable_pct[1]),
                            format!("{:.2}", p.schedulable_pct[2]),
                            format!("{:.2}", p.schedulable_pct[3]),
                            format!("{:.2}", p.schedulable_pct[1] - p.schedulable_pct[3]),
                        ])
                        .expect("write soundness-cost row");
                    }
                    emit(p);
                })
            },
        );
        let result = SweepResult {
            cores: kind.cores(),
            points,
        };
        println!("{}", result.render(kind.x_label()));
        println!(
            "dominance (LP-max ≤ LP-ILP ≤ FP-ideal ≥ LP-sound; Gen-sporadic ≤ FP-ideal ≤ Long-paths): {}; computed in {:.1}s",
            result.dominance_holds(),
            start.elapsed().as_secs_f64()
        );
        if let PanelKind::Group2(_) = kind {
            // The paper says the LP-ILP/LP-max gap shrinks for group 2.
            let gap: f64 = result
                .points
                .iter()
                .map(|p| p.schedulable_pct[1] - p.schedulable_pct[2])
                .fold(0.0f64, f64::max);
            println!("max LP-ILP − LP-max gap: {gap:.1} percentage points");
        }
        println!(
            "wrote {}\n",
            options.out.join(format!("{name}.csv")).display()
        );
    }
    if let Some(sink) = cost_sink {
        sink.finish().expect("flush soundness-cost CSV");
        println!(
            "wrote {} (LP-ILP vs LP-sound acceptance gap per panel point)\n",
            options.out.join("soundness_cost.csv").display()
        );
    }
}

/// The `repro campaign compare` driver: re-streams the core/deadline/
/// chain panels with all six methods' per-point acceptance ratios
/// (`compare_*.csv`, same schema as the ordinary campaign CSVs) while
/// folding every cell's verdicts into one pairwise wins/losses matrix,
/// written to `method_matrix.csv`. Both outputs are byte-identical for
/// every worker count: the point fold runs in coordinate order and the
/// matrix is a sum of per-set indicator contributions.
fn run_campaign_compare(options: &Cli) {
    let jobs = options.jobs;
    let sets = options.sets();
    let mut matrix = MethodMatrix::default();
    // Analysis-cost accounting: delta the process-global verdict-latency
    // histograms across the whole compare run. The verdict *counts* are
    // deterministic; the nanosecond columns are measurements, so they live
    // in their own method_costs.csv outside the byte-pinned goldens.
    let costs_before = rta_obs::snapshot();
    for kind in campaign::compare_panels() {
        let name = kind.compare_name();
        println!(
            "== campaign/{name}: {} — {} sets/point, {} worker(s) ==",
            kind.title(),
            sets,
            jobs.worker_count()
        );
        let points = streamed(
            options,
            &name,
            &figure2::csv_header(kind.x_label()),
            SweepPoint::csv_cells,
            |emit| kind.run_compare_into(sets, jobs, &mut matrix, emit),
        );
        let result = SweepResult {
            cores: kind.cores(),
            points,
        };
        println!("{}", result.render(kind.x_label()));
        println!(
            "wrote {}\n",
            options.out.join(format!("{name}.csv")).display()
        );
    }
    println!(
        "== pairwise wins/losses over {} task sets (row accepts what the column rejects) ==",
        matrix.sets
    );
    println!("{}", matrix.render());
    let path = options.out.join("method_matrix.csv");
    std::fs::write(&path, matrix.to_csv()).expect("write method matrix CSV");
    println!("wrote {}\n", path.display());
    let costs = campaign::MethodCosts::from_snapshot(&rta_obs::snapshot().since(&costs_before));
    println!("== per-method analysis cost (wall-clock per verdict; not golden-pinned) ==");
    println!("{}", costs.render());
    let path = options.out.join("method_costs.csv");
    std::fs::write(&path, costs.to_csv()).expect("write method costs CSV");
    println!("wrote {}\n", path.display());
}

/// Renders the frozen LP counterexample's witness schedule (see
/// `rta_experiments::forensics`): the paper's LP bound says 300.5, the
/// limited-preemptive schedule shows 304.
fn run_trace(options: &Cli) {
    use rta_experiments::forensics;
    println!(
        "== trace: frozen LP counterexample — m = 2, horizon {}x the blocking task's period ==",
        forensics::HORIZON_SPANS
    );
    let report = forensics::counterexample_trace(options.width);
    print!("{}", report.chart);
    println!(
        "\nLP-ILP/LP-max response bound: {}  observed response: {}{}",
        forensics::LP_BOUND,
        report.observed_response,
        if report.observed_response as f64 > 300.5 {
            "  — BOUND EXCEEDED (the documented optimism of the eager-LP blocking bound)"
        } else {
            ""
        }
    );
    println!(
        "deadline misses: {} (the counterexample beats the bound, not the deadline)",
        report.deadline_misses
    );
    let path = options.out.join("trace_counterexample.txt");
    std::fs::write(&path, &report.chart).expect("write trace chart");
    println!("wrote {}", path.display());
}

/// Runs the admission-control daemon in the foreground until a client's
/// `{"shutdown":true}` frame stops it.
fn run_serve(options: &Cli) {
    let serve_options = &options.serve;
    let handle = serve::spawn(serve_options)
        .unwrap_or_else(|e| usage(&format!("cannot bind {}: {e}", serve_options.addr)));
    println!(
        "serving admission-control verdicts on {} (LRU capacity {}; \
         send {{\"shutdown\":true}} to stop)",
        handle.addr(),
        serve_options.lru_capacity
    );
    println!(
        "limits: {} connections (shedding past {}), idle timeout {}ms, \
         frame timeout {}ms, drain timeout {}ms",
        serve_options.max_conns,
        serve_options.shed_watermark,
        serve_options.idle_timeout.as_millis(),
        serve_options.frame_timeout.as_millis(),
        serve_options.drain_timeout.as_millis()
    );
    let report = handle.join();
    println!("server stopped: {}", report.render());
    if report.panicked > 0 {
        eprintln!("error: {} connection thread(s) panicked", report.panicked);
        std::process::exit(1);
    }
}

/// Drives a running server with the configured request mix and prints
/// (and optionally writes) the measurement report.
fn run_loadgen(options: &Cli) {
    let loadgen_options = &options.loadgen;
    if loadgen_options.chaos {
        println!(
            "== loadgen --chaos: {} workers x {} seeded hostile actions, against {} ==",
            loadgen_options.connections,
            loadgen_options.requests_per_connection,
            loadgen_options.addr
        );
    } else {
        println!(
            "== loadgen: {} connections x {} requests, {}% repeats, against {} ==",
            loadgen_options.connections,
            loadgen_options.requests_per_connection,
            loadgen_options.repeat_percent,
            loadgen_options.addr
        );
    }
    let report = loadgen::run(loadgen_options).unwrap_or_else(|e| {
        usage(&format!(
            "loadgen against {} failed: {e}",
            loadgen_options.addr
        ))
    });
    println!("{}", report.render());
    if let Some(path) = &options.bench {
        std::fs::write(path, report.to_bench_json(loadgen_options)).expect("write BENCH JSON");
        println!("wrote {}", path.display());
    }
    if report.errors > 0 {
        eprintln!("error: {} request(s) failed", report.errors);
        std::process::exit(1);
    }
}

fn dump_set(options: &Cli) {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let LoadgenOptions { seed, target, .. } = options.loadgen;
    let mut rng = SmallRng::seed_from_u64(seed);
    let ts = rta_taskgen::generate_task_set(&mut rng, &rta_taskgen::group1(target));
    println!("{}", rta_model::json::task_set_to_json(&ts));
    eprintln!(
        "# {} tasks, U = {:.3} (seed {seed}, target {target})",
        ts.len(),
        ts.total_utilization(),
    );
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\n");
    eprintln!(
        "usage: repro <table1|table2|table3|fig2a|fig2b|fig2c|fig2c-tasks|group2|timing|\
         campaign [deadline|chains|cores|cross|compare|all]|\
         validate [cores|deadline|chains|release|all]|trace|serve|loadgen|all> \
         [--sets N] [--samples N] [--out DIR] [--jobs N] [--serial] \
         [--horizon N] [--policy limited|eager|lazy|full|both] \
         [--release sync|jitter|sporadic] \
         [--addr HOST:PORT] [--lru N] [--conns N] [--requests N] \
         [--repeat PCT] [--simulate PCT] [--competitors PCT] [--bounds] \
         [--bench PATH] [--metrics PATH] [--metrics-dump PATH] [--width N] \
         [--shutdown] \
         [--max-conns N] [--watermark N] [--idle-ms N] [--frame-ms N] \
         [--drain-ms N] [--retries N] [--chaos]"
    );
    std::process::exit(2);
}

fn table1(options: &Cli, t: &tables::Tables) {
    println!("== Table I: worst-case workloads µ_i[c] of the Figure 1 tasks ==");
    println!("{}", t.table1.render());
    assert_eq!(t.table1, t.table1_ilp, "clique and ILP solvers must agree");
    println!("(cross-checked against the paper's ILP formulation: identical)\n");
    write_csv(options, "table1", &t.table1.to_csv());
}

fn table2(t: &tables::Tables) {
    println!("== Table II: execution scenarios e_4 (p(4) = 5) ==");
    println!("{}", t.table2.render());
    println!(
        "pentagonal-number count p(4) = {}\n",
        t.table2.pentagonal_count
    );
}

fn table3(t: &tables::Tables) {
    println!("== Table III: overall worst-case workloads ρ_k[s_l] ==");
    println!("{}", t.table3.render());
    assert_eq!(
        t.table3, t.table3_ilp,
        "Hungarian and ILP solvers must agree"
    );
    println!("(cross-checked against the paper's ILP formulation: identical)\n");
}

fn run_timing(options: &Cli) {
    println!("== timing: average runtime of a positive schedulability test (one thread) ==");
    let rows = timing::run(&[4, 8, 16], options.samples, 0xBEEF);
    println!("{}", timing::render(&rows));
    println!(
        "(paper, MATLAB + CPLEX: 0.45 s / 4.75 s / 43 min — trend, not absolute, is comparable)\n"
    );
}

fn write_csv(options: &Cli, name: &str, csv: &str) {
    let path = options.out.join(format!("{name}.csv"));
    std::fs::write(&path, csv).expect("write CSV");
    println!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &str) -> Result<Cli, String> {
        let args: Vec<String> = args.split_whitespace().map(String::from).collect();
        parse(&args)
    }

    #[test]
    fn defaults_resolve_as_before() {
        let c = cli("serve").expect("parses");
        assert_eq!((c.command.as_str(), c.selector.as_deref()), ("serve", None));
        assert_eq!(c.sets(), 300);
        assert_eq!(c.samples, 20);
        assert_eq!(c.out, PathBuf::from("out"));
        assert_eq!(c.width, 96);
        assert_eq!(c.bench, None);
        assert_eq!(c.jobs, Jobs::Auto);
        assert_eq!(c.validate.horizon_factor, 3);
        assert_eq!(c.validate.policies, PolicyChoice::Both);
        assert_eq!(c.validate.release, None);
        assert_eq!(c.serve.addr, "127.0.0.1:7431");
        assert_eq!(c.serve.lru_capacity, 128);
        assert_eq!(c.serve.max_conns, 64);
        assert_eq!(c.serve.shed_watermark, 48);
        assert_eq!(c.serve.idle_timeout, Duration::from_millis(30_000));
        assert_eq!(c.serve.frame_timeout, Duration::from_millis(10_000));
        assert_eq!(c.serve.drain_timeout, Duration::from_millis(5_000));
        assert_eq!(c.serve.metrics_dump, None);
        let l = &c.loadgen;
        assert_eq!(l.addr, "127.0.0.1:7431");
        assert_eq!((l.seed, l.target), (0, 2.0));
        assert_eq!((l.connections, l.requests_per_connection), (8, 200));
        assert_eq!(
            (l.repeat_percent, l.simulate_percent, l.competitor_percent),
            (80, 0, 0)
        );
        assert_eq!(l.retries, 4);
        assert_eq!(l.metrics, None);
        assert!(!l.bounds && !l.shutdown && !l.chaos);
    }

    #[test]
    fn watermark_defaults_to_three_quarters_of_the_pool_in_any_flag_order() {
        assert_eq!(
            cli("serve --max-conns 20").unwrap().serve.shed_watermark,
            15
        );
        for args in [
            "serve --max-conns 20 --watermark 5",
            "serve --watermark 5 --max-conns 20",
        ] {
            let serve = cli(args).unwrap().serve;
            assert_eq!((serve.max_conns, serve.shed_watermark), (20, 5), "{args}");
        }
    }

    #[test]
    fn every_flag_lands_in_its_option() {
        let c = cli(
            "validate cores --sets 4 --horizon 30 --policy full --release jitter --jobs 3 \
             --out o --samples 2 --width 16 --bench b.json",
        )
        .unwrap();
        assert_eq!(
            (c.command.as_str(), c.selector.as_deref()),
            ("validate", Some("cores"))
        );
        assert_eq!((c.sets(), c.validate.horizon_factor), (4, 30));
        assert_eq!(c.validate.policies, PolicyChoice::Fully);
        assert_eq!(c.validate.release, Some(ReleaseChoice::Jitter));
        assert_eq!(c.jobs, Jobs::Count(3));
        assert_eq!((c.out, c.samples, c.width), (PathBuf::from("o"), 2, 16));
        assert_eq!(c.bench, Some(PathBuf::from("b.json")));
        assert_eq!(cli("fig2a --serial").unwrap().jobs, Jobs::Count(1));
        assert_eq!(cli("fig2a --jobs 0").unwrap().jobs, Jobs::Auto);

        let s = cli(
            "serve --addr 0.0.0.0:9 --lru 4 --idle-ms 1 --frame-ms 2 --drain-ms 3 \
             --metrics-dump m.prom",
        )
        .unwrap();
        assert_eq!(
            (s.serve.addr.as_str(), s.loadgen.addr.as_str()),
            ("0.0.0.0:9", "0.0.0.0:9")
        );
        assert_eq!(s.serve.lru_capacity, 4);
        assert_eq!(
            [
                s.serve.idle_timeout,
                s.serve.frame_timeout,
                s.serve.drain_timeout
            ],
            [1, 2, 3].map(Duration::from_millis)
        );
        assert_eq!(s.serve.metrics_dump, Some(PathBuf::from("m.prom")));

        let l = cli(
            "loadgen --seed 7 --target 1.5 --conns 2 --requests 3 --repeat 100 --simulate 10 \
             --competitors 20 --bounds --metrics m.json --shutdown --retries 0 --chaos",
        )
        .unwrap()
        .loadgen;
        assert_eq!((l.seed, l.target), (7, 1.5));
        assert_eq!((l.connections, l.requests_per_connection), (2, 3));
        assert_eq!(
            (l.repeat_percent, l.simulate_percent, l.competitor_percent),
            (100, 10, 20)
        );
        assert_eq!((l.metrics, l.retries), (Some(PathBuf::from("m.json")), 0));
        assert!(l.bounds && l.shutdown && l.chaos);
    }

    #[test]
    fn rejected_inputs_return_errors() {
        for (args, error) in [
            ("validate --horizon 0", "--horizon needs a positive number"),
            ("loadgen --repeat 101", "--repeat needs a percentage"),
            ("trace --width 15", "--width needs a number of columns"),
            ("serve --lru 0", "--lru needs a positive number"),
            ("dump-set --target 0", "--target needs a finite"),
            ("dump-set --target -1", "--target needs a finite"),
            ("loadgen --target inf", "--target needs a finite"),
            ("dump-set --target NaN", "--target needs a finite"),
            ("fig2a --sets", "--sets needs a number"),
            ("fig2a --bogus", "unknown argument: --bogus"),
            ("fig2a cores", "only the campaign and validate commands"),
            ("--sets 4", "missing command"),
        ] {
            let message = cli(args).expect_err(args);
            assert!(message.starts_with(error), "{args}: {message}");
        }
    }
}
