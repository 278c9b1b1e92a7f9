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
//!   timing       average analysis runtime for m = 4, 8, 16
//!   sensitivity  generator sensitivity study (DESIGN.md §5.3)
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

use rta_experiments::campaign::{self, MethodMatrix, PanelKind};
use rta_experiments::csv::CsvSink;
use rta_experiments::exec::Jobs;
use rta_experiments::figure2::{self, SweepConfig, SweepPoint, SweepResult};
use rta_experiments::validate::{
    PolicyChoice, ReleaseChoice, ValidateOptions, ValidatePanel, ValidatePoint,
};
use rta_experiments::{tables, timing, validate};
use std::path::PathBuf;

struct Options {
    sets: usize,
    samples: usize,
    out: PathBuf,
    seed: u64,
    target: f64,
    horizon: u64,
    policy: PolicyChoice,
    release: Option<ReleaseChoice>,
    /// `None` until `--jobs`/`--serial` is given: sweeps then default to
    /// one worker per core, while `timing` defaults to serial so its
    /// wall-clock averages are not skewed by worker contention.
    jobs: Option<Jobs>,
    addr: String,
    lru: usize,
    conns: usize,
    requests: usize,
    repeat: u32,
    simulate: u32,
    competitors: u32,
    bounds: bool,
    bench: Option<PathBuf>,
    metrics: Option<PathBuf>,
    metrics_dump: Option<PathBuf>,
    width: usize,
    shutdown: bool,
    max_conns: usize,
    /// `None` derives the shed watermark as 3/4 of `max_conns`.
    watermark: Option<usize>,
    idle_ms: u64,
    frame_ms: u64,
    drain_ms: u64,
    retries: usize,
    chaos: bool,
}

impl Options {
    fn sweep_jobs(&self) -> Jobs {
        self.jobs.unwrap_or(Jobs::Auto)
    }

    fn timing_jobs(&self) -> Jobs {
        self.jobs.unwrap_or_else(Jobs::serial)
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut command = None;
    let mut selector: Option<String> = None;
    let mut options = Options {
        sets: 300,
        samples: 20,
        out: PathBuf::from("out"),
        seed: 0,
        target: 2.0,
        horizon: validate::DEFAULT_HORIZON_FACTOR,
        policy: PolicyChoice::Both,
        release: None,
        jobs: None,
        addr: "127.0.0.1:7431".into(),
        lru: rta_experiments::serve::DEFAULT_LRU_CAPACITY,
        conns: 8,
        requests: 200,
        repeat: 80,
        simulate: 0,
        competitors: 0,
        bounds: false,
        bench: None,
        metrics: None,
        metrics_dump: None,
        width: 96,
        shutdown: false,
        max_conns: rta_experiments::serve::DEFAULT_MAX_CONNS,
        watermark: None,
        idle_ms: 30_000,
        frame_ms: 10_000,
        drain_ms: 5_000,
        retries: 4,
        chaos: false,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--sets" => {
                options.sets = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--sets needs a number"));
            }
            "--samples" => {
                options.samples = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--samples needs a number"));
            }
            "--out" => {
                options.out = it
                    .next()
                    .map(PathBuf::from)
                    .unwrap_or_else(|| usage("--out needs a path"));
            }
            "--seed" => {
                options.seed = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            "--target" => {
                options.target = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--target needs a number"));
            }
            "--horizon" => {
                options.horizon = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--horizon needs a positive number of period spans"));
            }
            "--policy" => {
                options.policy = it
                    .next()
                    .and_then(|v| PolicyChoice::from_flag(v))
                    .unwrap_or_else(|| {
                        usage("--policy must be limited, eager, lazy, full or both")
                    });
            }
            "--release" => {
                options.release = Some(
                    it.next()
                        .and_then(|v| ReleaseChoice::from_flag(v))
                        .unwrap_or_else(|| usage("--release must be sync, jitter or sporadic")),
                );
            }
            "--jobs" => {
                let n: usize = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--jobs needs a number (0 = one per core)"));
                options.jobs = Some(Jobs::from_flag(n));
            }
            "--serial" => {
                options.jobs = Some(Jobs::serial());
            }
            "--addr" => {
                options.addr = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| usage("--addr needs a host:port address"));
            }
            "--lru" => {
                options.lru = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--lru needs a positive number of task sets"));
            }
            "--conns" => {
                options.conns = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--conns needs a positive number"));
            }
            "--requests" => {
                options.requests = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--requests needs a positive number"));
            }
            "--repeat" => {
                options.repeat = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n <= 100)
                    .unwrap_or_else(|| usage("--repeat needs a percentage (0..=100)"));
            }
            "--simulate" => {
                options.simulate = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n <= 100)
                    .unwrap_or_else(|| usage("--simulate needs a percentage (0..=100)"));
            }
            "--competitors" => {
                options.competitors = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n <= 100)
                    .unwrap_or_else(|| usage("--competitors needs a percentage (0..=100)"));
            }
            "--bounds" => {
                options.bounds = true;
            }
            "--bench" => {
                options.bench = Some(
                    it.next()
                        .map(PathBuf::from)
                        .unwrap_or_else(|| usage("--bench needs a path")),
                );
            }
            "--metrics" => {
                options.metrics = Some(
                    it.next()
                        .map(PathBuf::from)
                        .unwrap_or_else(|| usage("--metrics needs a path")),
                );
            }
            "--metrics-dump" => {
                options.metrics_dump = Some(
                    it.next()
                        .map(PathBuf::from)
                        .unwrap_or_else(|| usage("--metrics-dump needs a path")),
                );
            }
            "--width" => {
                options.width = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 16)
                    .unwrap_or_else(|| usage("--width needs a number of columns (>= 16)"));
            }
            "--shutdown" => {
                options.shutdown = true;
            }
            "--max-conns" => {
                options.max_conns = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--max-conns needs a positive number"));
            }
            "--watermark" => {
                options.watermark = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&n| n > 0)
                        .unwrap_or_else(|| usage("--watermark needs a positive number")),
                );
            }
            "--idle-ms" => {
                options.idle_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--idle-ms needs a positive number of ms"));
            }
            "--frame-ms" => {
                options.frame_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--frame-ms needs a positive number of ms"));
            }
            "--drain-ms" => {
                options.drain_ms = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n > 0)
                    .unwrap_or_else(|| usage("--drain-ms needs a positive number of ms"));
            }
            "--retries" => {
                options.retries = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--retries needs a number"));
            }
            "--chaos" => {
                options.chaos = true;
            }
            cmd if command.is_none() && !cmd.starts_with('-') => {
                command = Some(cmd.to_string());
            }
            sel if selector.is_none() && !sel.starts_with('-') => {
                selector = Some(sel.to_string());
            }
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    let Some(command) = command else {
        usage("missing command");
    };
    if selector.is_some() && command != "campaign" && command != "validate" {
        usage("only the campaign and validate commands take a panel selector");
    }

    if !Jobs::parallelism_available() && matches!(options.jobs, Some(Jobs::Count(n)) if n > 1) {
        eprintln!(
            "note: built without the `parallel` feature; sweeps run serially \
             (output is identical either way)"
        );
    }

    std::fs::create_dir_all(&options.out).expect("create output directory");
    match command.as_str() {
        "table1" => table1(&options, &regenerate_tables(&options)),
        "table2" => table2(&regenerate_tables(&options)),
        "table3" => table3(&regenerate_tables(&options)),
        "fig2a" => sweep("fig2a", SweepConfig::paper_panel(4), &options),
        "fig2b" => sweep("fig2b", SweepConfig::paper_panel(8), &options),
        "fig2c" => sweep("fig2c", SweepConfig::paper_panel(16), &options),
        "fig2c-tasks" => task_count_sweep(&options),
        "group2" => group2(&options),
        "timing" => run_timing(&options),
        "sensitivity" => sensitivity(&options),
        "campaign" => run_campaign(&options, selector.as_deref().unwrap_or("all")),
        "validate" => run_validate(&options, selector.as_deref().unwrap_or("all")),
        "dump-set" => dump_set(&options),
        "trace" => run_trace(&options),
        "serve" => run_serve(&options),
        "loadgen" => run_loadgen(&options),
        "all" => {
            let t = regenerate_tables(&options);
            table1(&options, &t);
            table2(&t);
            table3(&t);
            sweep("fig2a", SweepConfig::paper_panel(4), &options);
            sweep("fig2b", SweepConfig::paper_panel(8), &options);
            sweep("fig2c", SweepConfig::paper_panel(16), &options);
            task_count_sweep(&options);
            group2(&options);
            run_timing(&options);
            sensitivity(&options);
            run_campaign(&options, "all");
            run_validate(&options, "all");
        }
        other => usage(&format!("unknown command: {other}")),
    }
}

/// Opens the streaming CSV sink of one panel in the output directory.
fn open_sink(options: &Options, name: &str, header: &[&str]) -> CsvSink<impl std::io::Write> {
    let path = options.out.join(format!("{name}.csv"));
    CsvSink::create(&path, header).unwrap_or_else(|e| panic!("create CSV {}: {e}", path.display()))
}

/// Runs the requested validation panels, streaming each CSV row as its
/// sweep point completes, and exits non-zero on any invariant violation.
fn run_validate(options: &Options, selector: &str) {
    let jobs = options.sweep_jobs();
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
    let vopts = ValidateOptions {
        sets_per_point: options.sets,
        horizon_factor: options.horizon,
        policies: options.policy,
        release: options.release,
    };
    let mut total_violations = 0u64;
    let mut total_exceedances = 0u64;
    let mut total_lp_misses = 0u64;
    let mut total_truncated = 0u64;
    for panel in panels {
        println!(
            "== validate/{}: {} — {} sets/point, horizon {}x max period, {} worker(s) ==",
            panel.name(),
            panel.title(),
            vopts.sets_per_point,
            vopts.horizon_factor,
            jobs.worker_count()
        );
        let mut sink = open_sink(
            options,
            panel.name(),
            &validate::csv_header(panel.x_label()),
        );
        let mut points = Vec::new();
        panel.run_into(&vopts, jobs, &mut |p: &ValidatePoint| {
            sink.row(&p.csv_cells()).expect("write CSV row");
            points.push(p.clone());
        });
        sink.finish().expect("flush CSV");
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
            options.out.join(format!("{}.csv", panel.name())).display()
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

/// Runs the requested campaign panels, streaming each CSV row as its
/// sweep point completes. A full-coverage run (`campaign all`)
/// additionally aggregates the per-point LP-ILP vs LP-sound acceptance
/// gap into `soundness_cost.csv`; partial selectors leave any existing
/// aggregate untouched rather than clobbering it with a subset.
fn run_campaign(options: &Options, selector: &str) {
    let jobs = options.sweep_jobs();
    let sets = options.sets;
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
    let mut cost_sink =
        (selector == "all").then(|| open_sink(options, "soundness_cost", &SOUNDNESS_COST_HEADER));
    for kind in panels {
        println!(
            "== campaign/{}: {} — {} sets/point, {} worker(s) ==",
            kind.name(),
            kind.title(),
            sets,
            jobs.worker_count()
        );
        let cost_sink = &mut cost_sink;
        let result = streamed_sweep(
            options,
            kind.name(),
            kind.x_label(),
            kind.cores(),
            |emit| kind.run_into(sets, jobs, emit),
            |p| {
                if let Some(sink) = cost_sink {
                    sink.row(&[
                        kind.name().to_string(),
                        format!("{:.4}", p.x),
                        format!("{:.2}", p.schedulable_pct[0]),
                        format!("{:.2}", p.schedulable_pct[1]),
                        format!("{:.2}", p.schedulable_pct[2]),
                        format!("{:.2}", p.schedulable_pct[3]),
                        format!("{:.2}", p.schedulable_pct[1] - p.schedulable_pct[3]),
                    ])
                    .expect("write soundness-cost row");
                }
            },
        );
        println!("{}", result.render(kind.x_label()));
        println!(
            "dominance (LP-max ≤ LP-ILP ≤ FP-ideal ≥ LP-sound; Gen-sporadic ≤ FP-ideal ≤ Long-paths): {}",
            result.dominance_holds()
        );
        println!(
            "wrote {}\n",
            options.out.join(format!("{}.csv", kind.name())).display()
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
fn run_campaign_compare(options: &Options) {
    let jobs = options.sweep_jobs();
    let sets = options.sets;
    let mut matrix = MethodMatrix::default();
    // Analysis-cost accounting: delta the process-global verdict-latency
    // histograms across the whole compare run. The verdict *counts* are
    // deterministic; the nanosecond columns are measurements, so they live
    // in their own method_costs.csv outside the byte-pinned goldens.
    let costs_before = rta_obs::snapshot();
    for kind in campaign::compare_panels() {
        println!(
            "== campaign/{}: {} — {} sets/point, {} worker(s) ==",
            kind.compare_name(),
            kind.title(),
            sets,
            jobs.worker_count()
        );
        let mut sink = open_sink(
            options,
            kind.compare_name(),
            &figure2::csv_header(kind.x_label()),
        );
        let mut points = Vec::new();
        kind.run_compare_into(sets, jobs, &mut matrix, &mut |p: &SweepPoint| {
            sink.row(&p.csv_cells()).expect("write CSV row");
            points.push(p.clone());
        });
        sink.finish().expect("flush CSV");
        let result = SweepResult {
            cores: kind.cores(),
            points,
        };
        println!("{}", result.render(kind.x_label()));
        println!(
            "wrote {}\n",
            options
                .out
                .join(format!("{}.csv", kind.compare_name()))
                .display()
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

/// Streams one schedulability sweep into its CSV file (row per completed
/// point) while collecting the points for terminal rendering; `tap` sees
/// every point as it completes (side CSVs like the soundness-cost
/// aggregate hook in here).
fn streamed_sweep(
    options: &Options,
    name: &str,
    x_label: &str,
    cores: usize,
    run: impl FnOnce(&mut dyn FnMut(&SweepPoint)),
    mut tap: impl FnMut(&SweepPoint),
) -> SweepResult {
    let mut sink = open_sink(options, name, &figure2::csv_header(x_label));
    let mut points = Vec::new();
    run(&mut |p: &SweepPoint| {
        sink.row(&p.csv_cells()).expect("write CSV row");
        tap(p);
        points.push(p.clone());
    });
    sink.finish().expect("flush CSV");
    SweepResult { cores, points }
}

fn sensitivity(options: &Options) {
    println!("== sensitivity: Figure 2(a) under alternative period models (DESIGN.md §5.3) ==");
    let sets = options.sets.min(60); // three full panels; keep it bounded
    for (variant, result) in
        rta_experiments::sensitivity::run_all_with_jobs(sets, options.sweep_jobs())
    {
        println!("-- {} --", variant.label);
        println!("{}", result.render("U"));
    }
}

/// Renders the frozen LP counterexample's witness schedule (see
/// `rta_experiments::forensics`): the paper's LP bound says 300.5, the
/// limited-preemptive schedule shows 304.
fn run_trace(options: &Options) {
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
fn run_serve(options: &Options) {
    use std::time::Duration;
    let serve_options = rta_experiments::serve::ServeOptions {
        addr: options.addr.clone(),
        lru_capacity: options.lru,
        max_conns: options.max_conns,
        shed_watermark: options.watermark.unwrap_or(options.max_conns * 3 / 4),
        idle_timeout: Duration::from_millis(options.idle_ms),
        frame_timeout: Duration::from_millis(options.frame_ms),
        drain_timeout: Duration::from_millis(options.drain_ms),
        metrics_dump: options.metrics_dump.clone(),
        ..Default::default()
    };
    let handle = rta_experiments::serve::spawn(&serve_options)
        .unwrap_or_else(|e| usage(&format!("cannot bind {}: {e}", serve_options.addr)));
    println!(
        "serving admission-control verdicts on {} (LRU capacity {}; \
         send {{\"shutdown\":true}} to stop)",
        handle.addr(),
        options.lru
    );
    println!(
        "limits: {} connections (shedding past {}), idle timeout {}ms, \
         frame timeout {}ms, drain timeout {}ms",
        serve_options.max_conns,
        serve_options.shed_watermark,
        options.idle_ms,
        options.frame_ms,
        options.drain_ms
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
fn run_loadgen(options: &Options) {
    let loadgen_options = rta_experiments::loadgen::LoadgenOptions {
        addr: options.addr.clone(),
        connections: options.conns,
        requests_per_connection: options.requests,
        repeat_percent: options.repeat,
        simulate_percent: options.simulate,
        competitor_percent: options.competitors,
        bounds: options.bounds,
        seed: options.seed,
        target: options.target,
        metrics: options.metrics.clone(),
        shutdown: options.shutdown,
        retries: options.retries,
        chaos: options.chaos,
        ..Default::default()
    };
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
    let report = rta_experiments::loadgen::run(&loadgen_options)
        .unwrap_or_else(|e| usage(&format!("loadgen against {} failed: {e}", options.addr)));
    println!("{}", report.render());
    if let Some(path) = &options.bench {
        std::fs::write(path, report.to_bench_json(&loadgen_options)).expect("write BENCH JSON");
        println!("wrote {}", path.display());
    }
    if report.errors > 0 {
        eprintln!("error: {} request(s) failed", report.errors);
        std::process::exit(1);
    }
}

fn dump_set(options: &Options) {
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    let mut rng = SmallRng::seed_from_u64(options.seed);
    let ts = rta_taskgen::generate_task_set(&mut rng, &rta_taskgen::group1(options.target));
    println!("{}", rta_model::json::task_set_to_json(&ts));
    eprintln!(
        "# {} tasks, U = {:.3} (seed {}, target {})",
        ts.len(),
        ts.total_utilization(),
        options.seed,
        options.target
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

/// All tables through the campaign engine (each `(table, solver)` pair is
/// one cell on the worker pool). Called once per invocation — `repro all`
/// shares one regeneration across the three table subcommands.
fn regenerate_tables(options: &Options) -> tables::Tables {
    tables::run_all(options.sweep_jobs())
}

fn table1(options: &Options, t: &tables::Tables) {
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

fn sweep(name: &str, config: SweepConfig, options: &Options) {
    let config = config.with_sets_per_point(options.sets);
    println!(
        "== {name}: m = {}, {} sets/point (group 1), {} worker(s) ==",
        config.cores,
        config.sets_per_point,
        options.sweep_jobs().worker_count()
    );
    let start = std::time::Instant::now();
    let result = streamed_sweep(
        options,
        name,
        "utilization",
        config.cores,
        |emit| figure2::run_into(&config, options.sweep_jobs(), emit),
        |_| {},
    );
    println!("{}", result.render("U"));
    println!(
        "dominance (LP-max ≤ LP-ILP ≤ FP-ideal; Gen-sporadic ≤ FP-ideal ≤ Long-paths): {}; computed in {:.1}s",
        result.dominance_holds(),
        start.elapsed().as_secs_f64()
    );
    println!(
        "wrote {}\n",
        options.out.join(format!("{name}.csv")).display()
    );
}

fn task_count_sweep(options: &Options) {
    let config = SweepConfig::paper_panel(16).with_sets_per_point(options.sets);
    let counts: Vec<usize> = (1..=8).map(|i| 2 * i).collect();
    println!(
        "== fig2c-tasks: m = 16, U = 8, task-count sweep, {} sets/point ==",
        config.sets_per_point
    );
    let result = streamed_sweep(
        options,
        "fig2c_tasks",
        "tasks",
        config.cores,
        |emit| figure2::run_task_count_into(&config, &counts, options.sweep_jobs(), emit),
        |_| {},
    );
    println!("{}", result.render("tasks"));
    println!("wrote {}\n", options.out.join("fig2c_tasks.csv").display());
}

fn group2(options: &Options) {
    println!("== group 2: uniformly parallel task sets (paper: LP-max ≈ LP-ILP) ==");
    for cores in [4usize, 8, 16] {
        let config = SweepConfig::paper_panel(cores)
            .with_sets_per_point(options.sets)
            .with_generator(rta_taskgen::group2);
        let name = format!("group2_m{cores}");
        let result = streamed_sweep(
            options,
            &name,
            "utilization",
            cores,
            |emit| figure2::run_into(&config, options.sweep_jobs(), emit),
            |_| {},
        );
        println!("m = {cores}:");
        println!("{}", result.render("U"));
        // Quantify the gap between LP-ILP and LP-max, which the paper says
        // shrinks for this group.
        let gap: f64 = result
            .points
            .iter()
            .map(|p| p.schedulable_pct[1] - p.schedulable_pct[2])
            .fold(0.0f64, f64::max);
        println!("max LP-ILP − LP-max gap: {gap:.1} percentage points");
        println!(
            "wrote {}\n",
            options.out.join(format!("{name}.csv")).display()
        );
    }
}

fn run_timing(options: &Options) {
    println!("== timing: average runtime of a positive schedulability test ==");
    let jobs = options.timing_jobs();
    if jobs.worker_count() > 1 {
        println!(
            "(note: {} workers — averages include contention; omit --jobs for \
             uncontended serial measurements)",
            jobs.worker_count()
        );
    }
    let rows = timing::run_with_jobs(&[4, 8, 16], options.samples, 0xBEEF, jobs);
    println!("{}", timing::render(&rows));
    println!(
        "(paper, MATLAB + CPLEX: 0.45 s / 4.75 s / 43 min — trend, not absolute, is comparable)\n"
    );
}

fn write_csv(options: &Options, name: &str, csv: &str) {
    let path = options.out.join(format!("{name}.csv"));
    std::fs::write(&path, csv).expect("write CSV");
    println!("wrote {}", path.display());
}
