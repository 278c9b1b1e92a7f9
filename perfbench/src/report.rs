//! The result line and the metric catalogue, plus the statistics,
//! registry-count, provenance and set-up helpers every workload shares.

use crate::Args;
use rta_analysis::Method;
use rta_sim::SimOutcome;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::process::Command;

/// Every end-to-end metric and its unit: what a `--trace 0` run prints.
/// The p99s are printed on the lines before the result but carry no
/// bound: on a small shared host they follow the host's scheduling stalls
/// more than the program.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("sets_per_s", "sets/s"),
    ("p50_us.light", "us"),
    ("p50_us.heavy", "us"),
    ("max_rps", "frames/s"),
    ("peak_rss_mb", "MB"),
];

/// Every per-layer metric and its unit: what a `--trace 1` run prints. A
/// layer the workload never calls reports 0.
pub const PER_LAYER: [(&str, &str); 48] = [
    ("taskgen.set_ns", "ns"),
    ("analysis.tables_ns", "ns"),
    ("analysis.fixed_point_ns", "ns"),
    ("analysis.set_ns.p50", "ns"),
    ("analysis.set_ns.p99", "ns"),
    ("analysis.mu_builds", "count"),
    ("analysis.rho_builds", "count"),
    ("analysis.fp_iters", "count"),
    ("analysis.verdicts.fp_ideal", "count"),
    ("analysis.verdicts.lp_ilp", "count"),
    ("analysis.verdicts.lp_max", "count"),
    ("analysis.verdicts.lp_sound", "count"),
    ("analysis.verdicts.long_paths", "count"),
    ("analysis.verdicts.gen_sporadic", "count"),
    ("analysis.short_circuit_ratio", "ratio"),
    ("sim.runs", "count"),
    ("sim.events", "count"),
    ("sim.event_ns", "ns"),
    ("sim.peak_live_jobs", "count"),
    ("sim.heap_high_water", "count"),
    ("model.parse_ns", "ns"),
    ("model.build_ns", "ns"),
    ("model.hash_ns", "ns"),
    ("model.frame_bytes", "bytes"),
    ("lru.fetch_ns", "ns"),
    ("lru.store_ns", "ns"),
    ("lru.hit_ratio", "ratio"),
    ("lru.evictions", "count"),
    ("serve.server_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.render_ns", "ns"),
    ("serve.socket_us", "us"),
    ("exec.overhead_ns", "ns"),
    ("loadgen.late_us.p99", "us"),
    ("loadgen.backlog_max", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.accounted_pct", "%"),
    ("trace.nondeterministic_counts", "count"),
    ("failed_frac", "ratio"),
    ("share.taskgen_pct", "%"),
    ("share.tables_pct", "%"),
    ("share.fixed_point_pct", "%"),
    ("share.sim_pct", "%"),
    ("share.exec_pct", "%"),
    ("share.model_pct", "%"),
    ("share.server_pct", "%"),
    ("share.render_pct", "%"),
    ("share.socket_pct", "%"),
];

/// The per-method verdict-count metrics, in [`Method::ALL`] order.
const VERDICT_METRICS: [&str; 6] = [
    "analysis.verdicts.fp_ideal",
    "analysis.verdicts.lp_ilp",
    "analysis.verdicts.lp_max",
    "analysis.verdicts.lp_sound",
    "analysis.verdicts.long_paths",
    "analysis.verdicts.gen_sporadic",
];

/// What one run measured and checked.
pub struct Report {
    /// Operations run and checked: task sets, frames.
    pub attempted: u64,
    /// Operations that failed, were refused or gave a wrong output.
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    pub fn new() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|(n, _)| *n == name),
            "{name} is not in the metric catalogue"
        );
        self.values.insert(name, value);
    }

    /// Counts `count` failed operations, saying why on standard error.
    pub fn fail(&mut self, count: u64, why: &str) {
        if count > 0 {
            self.failed += count;
            eprintln!("check failed ({count}): {why}");
        }
    }

    /// Prints the run's metric catalogue, one metric a line, then the
    /// result object as the last line of standard output.
    pub fn print(mut self, trace: bool) {
        let failed_frac = self.failed as f64 / self.attempted.max(1) as f64;
        self.set("failed_frac", failed_frac);
        println!(
            "checks: {} attempted, {} failed (failed_frac {failed_frac})",
            self.attempted, self.failed
        );
        let catalogue: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = String::new();
        for (name, unit) in catalogue {
            let value = self.values.get(name).copied().unwrap_or(0.0);
            assert!(value.is_finite(), "{name} = {value} is not a finite number");
            println!("{name:<32} {value:>18.4} {unit}");
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
    }
}

/// Nearest-rank quantile `q` of the ascending `sorted` (0 when empty).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of `values`, in any order.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile(&sorted, 0.5)
}

/// Sorts `samples` and returns their p50 and p99, printing the sample count
/// and how many lie beyond the p99 (ten or more take 1000 samples).
pub fn p50_p99(samples: &mut [f64], what: &str) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let beyond = n - (0.99 * n as f64).ceil() as usize;
    let (p50, p99) = (quantile(samples, 0.5), quantile(samples, 0.99));
    println!("{what}: {n} samples, p50 {p50:.1}, p99 {p99:.1} ({beyond} beyond the p99)");
    (p50, p99)
}

/// Samples per latency group: twenty of a group's samples lie beyond its
/// p99, so a stall that delays fewer frames than that (a few milliseconds
/// of a shared host's scheduling) does not set the group's p99.
pub const GROUP: usize = 2000;

/// Consecutive groups of `size` samples, in the order they were taken; a
/// final partial group joins the one before it.
pub fn groups(samples: &[f64], size: usize) -> Vec<&[f64]> {
    let n = (samples.len() / size).max(1);
    (0..n)
        .map(|g| {
            let end = if g + 1 == n {
                samples.len()
            } else {
                (g + 1) * size
            };
            &samples[g * size..end]
        })
        .collect()
}

/// The median over consecutive groups of [`GROUP`] samples of each group's
/// p50 and p99. A shared host slows down for seconds at a time; the median
/// over groups reports the run's typical latency instead of the luck of its
/// slowest stretch.
pub fn grouped_p50_p99(samples: &[f64], what: &str) -> (f64, f64) {
    let groups = groups(samples, GROUP);
    let (mut p50s, mut p99s) = (Vec::with_capacity(groups.len()), Vec::new());
    for group in &groups {
        let mut group = group.to_vec();
        group.sort_by(f64::total_cmp);
        p50s.push(quantile(&group, 0.5));
        p99s.push(quantile(&group, 0.99));
    }
    let (p50, p99) = (median(&p50s), median(&p99s));
    println!(
        "{what}: {} samples in {} groups of {GROUP}, median group p50 {p50:.1}, p99 {p99:.1}",
        samples.len(),
        groups.len()
    );
    (p50, p99)
}

/// Share of a run's windows that lie beyond the value [`fast_end`] reads.
pub const FAST_SHARE: f64 = 0.05;

/// The value [`FAST_SHARE`] of the way in from the fast end of `values`:
/// their 5th percentile when lower is faster, their 95th when higher is.
/// Each value is one short window of a run. A small shared host alternates
/// between its normal speed and states up to twice as slow (neighbours
/// contending for the core and its caches; no steal time shows) that last
/// from a second to many minutes. The median over a run's windows follows
/// such a state whenever it covers half the run; this figure only when it
/// covers all but a twentieth.
pub fn fast_end(values: &[f64], lower_is_faster: bool) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q = if lower_is_faster {
        FAST_SHARE
    } else {
        1.0 - FAST_SHARE
    };
    quantile(&sorted, q)
}

/// A 64-bit mixer (splitmix64) for deriving independent seeds.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The registry counters whose deltas the traced runs report exactly.
const COUNTERS: [&str; 10] = [
    "analysis_fixed_point_iters_total",
    "cache_builds_total",
    "cache_mu_builds_total",
    "cache_rho_builds_total",
    "lru_hits_total",
    "lru_near_hits_total",
    "lru_misses_total",
    "lru_evictions_total",
    "sim_runs_total",
    "sim_events_total",
];

/// Exact work counts of one stretch of a run, from `rta_obs` registry
/// deltas: [`COUNTERS`] plus the sample count of every
/// `analysis_verdict_ns_<slug>` histogram (the methods actually run).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts(BTreeMap<String, u64>);

impl Counts {
    pub fn of(delta: &rta_obs::Snapshot) -> Self {
        let mut counts = BTreeMap::new();
        for name in COUNTERS {
            counts.insert(name.to_string(), delta.counter(name));
        }
        for method in Method::ALL {
            let name = verdict_histogram(method);
            let count = delta.histogram(&name).map_or(0, |h| h.count);
            counts.insert(name, count);
        }
        Self(counts)
    }

    /// Runs `f` and returns its result with the counts of the work it did.
    pub fn around<R>(f: impl FnOnce() -> R) -> (R, Self) {
        let before = rta_obs::snapshot();
        let result = f();
        (result, Self::of(&rta_obs::snapshot().since(&before)))
    }

    pub fn get(&self, name: &str) -> u64 {
        self.0.get(name).copied().unwrap_or(0)
    }

    pub fn add(&mut self, other: &Self) {
        for (name, count) in &other.0 {
            *self.0.entry(name.clone()).or_default() += count;
        }
    }

    pub fn minus(&self, other: &Self) -> Self {
        Self(
            self.0
                .iter()
                .map(|(name, count)| (name.clone(), count.saturating_sub(other.get(name))))
                .collect(),
        )
    }

    /// The counts that differ between two runs of the same inputs:
    /// nondeterminism, flagged on standard error rather than averaged.
    pub fn differing(&self, other: &Self) -> usize {
        let names: BTreeSet<&String> = self.0.keys().chain(other.0.keys()).collect();
        let mut differing = 0;
        for name in names {
            let (a, b) = (self.get(name), other.get(name));
            if a != b {
                eprintln!("nondeterministic count {name}: {a} vs {b}");
                differing += 1;
            }
        }
        differing
    }

    /// Sets the analysis, simulator and LRU count metrics. `requested` is
    /// the method evaluations the requests asked for; the dominance chain
    /// runs only the ones the verdict counts show.
    pub fn report(&self, report: &mut Report, requested: u64) {
        report.set(
            "analysis.mu_builds",
            self.get("cache_mu_builds_total") as f64,
        );
        report.set(
            "analysis.rho_builds",
            self.get("cache_rho_builds_total") as f64,
        );
        report.set(
            "analysis.fp_iters",
            self.get("analysis_fixed_point_iters_total") as f64,
        );
        let mut run = 0;
        for (method, metric) in Method::ALL.into_iter().zip(VERDICT_METRICS) {
            let count = self.get(&verdict_histogram(method));
            run += count;
            report.set(metric, count as f64);
        }
        if requested > 0 {
            report.set(
                "analysis.short_circuit_ratio",
                1.0 - run as f64 / requested as f64,
            );
        }
        report.set("sim.runs", self.get("sim_runs_total") as f64);
        report.set("sim.events", self.get("sim_events_total") as f64);
        report.set("lru.evictions", self.get("lru_evictions_total") as f64);
    }
}

/// Cold analyses (ns each) and the total of their warm re-evaluations on
/// the same cache: the warm evaluation is the fixed point alone, the cold
/// one minus the warm one is the lazy tables.
pub fn report_analysis(report: &mut Report, cold_ns: &mut [f64], warm_ns: f64) {
    let evaluated = cold_ns.len().max(1) as f64;
    let cold_total: f64 = cold_ns.iter().sum();
    report.set("analysis.tables_ns", (cold_total - warm_ns) / evaluated);
    report.set("analysis.fixed_point_ns", warm_ns / evaluated);
    let (p50, p99) = p50_p99(cold_ns, "analysis, ns per cold evaluation");
    report.set("analysis.set_ns.p50", p50);
    report.set("analysis.set_ns.p99", p99);
}

/// What the traced simulations measured.
#[derive(Default)]
pub struct SimTimes {
    pub ns: f64,
    events: u64,
    peak_live_jobs: usize,
    heap_high_water: usize,
}

impl SimTimes {
    pub fn add(&mut self, ns: u64, outcome: &SimOutcome) {
        self.ns += ns as f64;
        self.events += outcome.events_processed();
        self.peak_live_jobs = self.peak_live_jobs.max(outcome.peak_live_jobs());
        self.heap_high_water = self.heap_high_water.max(outcome.heap_high_water());
    }

    pub fn report(&self, report: &mut Report) {
        if self.events > 0 {
            report.set("sim.event_ns", self.ns / self.events as f64);
        }
        report.set("sim.peak_live_jobs", self.peak_live_jobs as f64);
        report.set("sim.heap_high_water", self.heap_high_water as f64);
    }
}

fn verdict_histogram(method: Method) -> String {
    format!("analysis_verdict_ns_{}", method.slug())
}

/// Prints where and how the result was measured.
pub fn print_provenance(args: &Args, workers: usize, connections: usize, rates: &str) {
    println!(
        "provenance: {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"nproc\":{},\"cpu_model\":\"{}\",\"workers\":{workers},\"connections\":{connections},\
         \"offered_rates\":\"{rates}\",\"git_commit\":\"{}\",\"build_profile\":\"{}\"}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        rta_obs::host_info().available_parallelism,
        cpu_model(),
        git_commit(),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        }
    );
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|line| line.strip_prefix("model name"))
                .and_then(|rest| rest.split_once(':'))
                .map(|(_, model)| model.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The commit checked out in the working directory, read from `.git`
/// without running git (a benchmark checkout may have no `.git` at all).
fn git_commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = std::fs::read_to_string(format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split_whitespace().next().map(String::from))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Runs one cold set-up of the workload in a fresh process of this binary
/// (`--setup-probe`) and returns the duration it reports. Fresh processes
/// keep set-up cold, so work moved into start-up or into lazily built
/// process-wide tables shows in `setup_s`. Workloads spread their probes
/// over the run and report the median, so a host that slows down for a
/// second does not decide the figure.
pub fn setup_probe(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--setup-probe",
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
        ])
        .output()
        .map_err(|e| format!("running a set-up probe: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "set-up probe failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .and_then(|line| line.trim().parse().ok())
        .ok_or_else(|| format!("set-up probe printed no duration: {stdout:?}"))
}

/// Sets `setup_s` to the median of the run's set-up probes.
pub fn set_setup(report: &mut Report, probes: &[f64]) {
    let setup = median(probes);
    println!(
        "setup: median {setup:.5} s of {} cold set-ups",
        probes.len()
    );
    report.set("setup_s", setup);
}
