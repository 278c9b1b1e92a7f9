//! `repro loadgen` — a load-generating client for [`crate::serve`].
//!
//! Drives a running `repro serve` instance with a configurable mix of
//! **repeat** requests (drawn from a small pool of pre-generated task
//! sets, so a warm server answers them from its admission cache) and
//! **fresh** requests (a never-seen task set each, forcing cold
//! analyses), over N concurrent connections. Every worker keeps its own
//! connection and deterministic RNG, so a `(seed, workers, requests)`
//! triple always produces the same request stream.
//!
//! The report separates latency by the server's own `cache` label, which
//! is what makes the admission cache's value measurable: `hit_p50_micros`
//! vs `miss_p50_micros` is the repeat-vs-cold speedup the BENCH gate
//! asserts on. Latencies are measured client-side (send → response line),
//! so they include the wire round trip; `micros` from the server is used
//! for the per-class analysis-time split.
//!
//! # Retries
//!
//! A request that fails transiently — the connection drops, the read
//! times out, or the server answers `overloaded` while shedding load —
//! is retried up to [`LoadgenOptions::retries`] times with capped
//! exponential backoff. The jitter is drawn from a **separate** seeded
//! RNG, so retry timing never perturbs the repeat/fresh request mix: the
//! request stream for a given seed is identical whether or not the
//! server sheds. Retry accounting (`retries`, `reconnects`,
//! `overloaded`, `gave_up`) lands in the report and the BENCH output.
//!
//! # Chaos mode
//!
//! With [`LoadgenOptions::chaos`] set, workers stop measuring throughput
//! and instead run a seeded script of hostile client behaviours —
//! slowloris half-frames, mid-frame disconnects, malformed and oversized
//! bursts, connect-and-idle — against the server. The script is a pure
//! function of `(seed, worker)` ([`chaos_script`]), so a chaos run is
//! exactly reproducible. The tally counts what the server did about it
//! (structured error frames observed, connections closed on us); the
//! point of the mode is that a concurrent *clean* client stays unharmed,
//! which the chaos suite and the CI `chaos-smoke` job assert.

use crate::serve::DEFAULT_MAX_FRAME;
use crate::set_seed;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rta_model::json::task_set_to_json_compact;
use rta_model::TaskSet;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How long a well-behaved client waits for a response line before it
/// declares the connection dead and retries elsewhere.
const CLIENT_READ_TIMEOUT: Duration = Duration::from_secs(5);

/// How long chaos actions linger to observe the server's reaction.
const CHAOS_READ_TIMEOUT: Duration = Duration::from_millis(250);

/// Write timeout on chaos sockets, so a refused connection cannot stall
/// the chaos worker on a large write.
const CHAOS_WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// The horizon every loadgen simulate frame asks for — long enough that a
/// simulation costs real work, far below the server-side cap.
const SIM_HORIZON: u64 = 20_000;

/// Load-generator configuration.
#[derive(Clone, Debug)]
pub struct LoadgenOptions {
    /// Server address, e.g. `127.0.0.1:7431`.
    pub addr: String,
    /// Concurrent connections (worker threads).
    pub connections: usize,
    /// Requests sent per connection (chaos actions per worker in chaos
    /// mode).
    pub requests_per_connection: usize,
    /// Percentage of requests drawn from the shared repeat pool.
    pub repeat_percent: u32,
    /// Percentage of requests sent as `{"simulate":...}` frames instead
    /// of analyses (0 disables the simulate leg entirely, leaving the
    /// request stream byte-identical to earlier releases).
    pub simulate_percent: u32,
    /// Percentage of *analysis* requests that ask only for the published
    /// competitor bounds (`"methods":["Long-paths","Gen-sporadic"]`)
    /// instead of the default all-methods frame. Exercises the server's
    /// method-subset path and the per-DAG path-decomposition cache under
    /// load; 0 disables the leg entirely (no extra RNG draw, request
    /// stream byte-identical to earlier releases).
    pub competitor_percent: u32,
    /// Size of the shared repeat pool.
    pub pool_size: usize,
    /// Platform size every request asks about.
    pub cores: usize,
    /// Ask for per-task bounds on every request.
    pub bounds: bool,
    /// Base RNG seed for task-set generation.
    pub seed: u64,
    /// Target utilization of generated sets.
    pub target: f64,
    /// Scrape the server's `{"metrics":true}` frame after the burst (and
    /// before any `shutdown`) and write the JSON response line to this
    /// path.
    pub metrics: Option<std::path::PathBuf>,
    /// Send `{"shutdown":true}` after the run (stops the server).
    pub shutdown: bool,
    /// Transient-failure retries per request (0 disables retrying).
    pub retries: usize,
    /// First backoff delay, microseconds; doubles per retry.
    pub backoff_micros: u64,
    /// Backoff ceiling, microseconds.
    pub backoff_cap_micros: u64,
    /// Run the seeded hostile-client script instead of the measured burst.
    pub chaos: bool,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7431".into(),
            connections: 8,
            requests_per_connection: 200,
            repeat_percent: 80,
            simulate_percent: 0,
            competitor_percent: 0,
            pool_size: 16,
            cores: 4,
            bounds: false,
            seed: 0xC0FFEE,
            target: 2.0,
            metrics: None,
            shutdown: false,
            retries: 4,
            backoff_micros: 500,
            backoff_cap_micros: 100_000,
            chaos: false,
        }
    }
}

/// Latency statistics of one response class, in microseconds.
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencyStats {
    /// Responses in this class.
    pub count: usize,
    /// Median.
    pub p50: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Arithmetic mean.
    pub mean: f64,
}

impl LatencyStats {
    /// Computes the percentiles of a set of samples (sorted in place).
    fn from_samples(samples: &mut [u64]) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        samples.sort_unstable();
        let pct = |p: f64| {
            let rank = ((samples.len() as f64) * p).ceil() as usize;
            samples[rank.clamp(1, samples.len()) - 1]
        };
        Self {
            count: samples.len(),
            p50: pct(0.50),
            p99: pct(0.99),
            p999: pct(0.999),
            mean: samples.iter().sum::<u64>() as f64 / samples.len() as f64,
        }
    }
}

/// What the chaos script did and what the server did about it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ChaosTally {
    /// Hostile actions executed.
    pub actions: usize,
    /// Byte-at-a-time partial frames (then abandoned).
    pub slowloris: usize,
    /// Connections dropped halfway through a frame.
    pub mid_frame_disconnects: usize,
    /// Bursts of junk lines.
    pub malformed_bursts: usize,
    /// Frames exceeding the server's frame cap.
    pub oversized: usize,
    /// Connections opened and left idle.
    pub connect_and_idle: usize,
    /// Structured `"ok":false` frames the server answered with.
    pub error_frames_seen: usize,
    /// Times the server closed the connection on us (timeout policy at
    /// work).
    pub server_closes: usize,
    /// Connects refused outright (pool exhausted or injected fault).
    pub failed_connects: usize,
}

/// The hostile behaviours chaos mode can exhibit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChaosAction {
    /// Send a partial frame one byte at a time, then stop mid-frame.
    Slowloris,
    /// Send half a frame and disconnect immediately.
    MidFrameDisconnect,
    /// Send several lines of junk and read the error frames back.
    MalformedBurst,
    /// Send a frame larger than any server accepts.
    Oversized,
    /// Connect, say nothing, linger, leave.
    ConnectAndIdle,
}

/// What one loadgen run measured.
#[derive(Clone, Debug, Default)]
pub struct LoadgenReport {
    /// Requests sent (all workers; chaos actions in chaos mode).
    pub requests: usize,
    /// Requests that failed after all retries (zero on a healthy run).
    pub errors: usize,
    /// Responses labelled `hit` / `near` / `miss` by the server.
    pub hits: usize,
    /// Near-hits (set cached, some method evaluated).
    pub near_hits: usize,
    /// Cold analyses.
    pub misses: usize,
    /// Successful `{"simulate":...}` responses.
    pub sims: usize,
    /// Retry attempts across all requests.
    pub retries: usize,
    /// Connections re-established after a drop or read timeout.
    pub reconnects: usize,
    /// `overloaded` error frames received (server shedding load).
    pub overloaded: usize,
    /// Requests abandoned after exhausting the retry budget.
    pub gave_up: usize,
    /// Wall-clock of the whole burst, seconds.
    pub elapsed_secs: f64,
    /// Sustained successful verdict responses per second.
    pub verdicts_per_sec: f64,
    /// Client-side round-trip latency over all successful responses.
    pub latency: LatencyStats,
    /// Server-side analysis micros of cache-hit responses.
    pub hit_micros: LatencyStats,
    /// Server-side analysis micros of cold (miss) responses.
    pub miss_micros: LatencyStats,
    /// Server-side simulation micros of simulate responses.
    pub sim_micros: LatencyStats,
    /// The chaos tally, present iff the run was a chaos run.
    pub chaos: Option<ChaosTally>,
}

impl LoadgenReport {
    /// Cache hit rate over successful responses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.near_hits + self.misses;
        if total == 0 {
            return 0.0;
        }
        self.hits as f64 / total as f64
    }

    /// Cold-to-hit speedup on the server-side analysis path (p50-based;
    /// the BENCH gate asserts this is at least 5).
    pub fn repeat_speedup(&self) -> f64 {
        if self.hit_micros.count == 0 || self.miss_micros.count == 0 {
            return 0.0;
        }
        // Guard the denominator: an O(lookup) hit can round to 0 µs.
        self.miss_micros.p50 as f64 / (self.hit_micros.p50 as f64).max(1.0)
    }

    /// Human-readable summary.
    pub fn render(&self) -> String {
        if let Some(chaos) = &self.chaos {
            return format!(
                "chaos: {} hostile actions over {:.2}s\n\
                 mix: {} slowloris / {} mid-frame disconnects / {} malformed bursts / \
                 {} oversized / {} connect-and-idle\n\
                 server reaction: {} structured error frames, {} connections closed on us, \
                 {} connects refused",
                chaos.actions,
                self.elapsed_secs,
                chaos.slowloris,
                chaos.mid_frame_disconnects,
                chaos.malformed_bursts,
                chaos.oversized,
                chaos.connect_and_idle,
                chaos.error_frames_seen,
                chaos.server_closes,
                chaos.failed_connects,
            );
        }
        let sim_line = if self.sims > 0 {
            format!(
                "\nsimulate: {} responses, server p50 {} µs",
                self.sims, self.sim_micros.p50
            )
        } else {
            String::new()
        };
        format!(
            "requests: {} ({} errors)\n\
             retries: {} ({} overloaded, {} reconnects, {} gave up)\n\
             cache: {} hits / {} near / {} misses (hit rate {:.1}%)\n\
             throughput: {:.0} verdicts/s over {:.2}s\n\
             latency (client µs): p50 {} / p99 {} / p999 {}\n\
             analysis (server µs): hit p50 {} vs cold p50 {} — {:.0}x repeat speedup{sim_line}",
            self.requests,
            self.errors,
            self.retries,
            self.overloaded,
            self.reconnects,
            self.gave_up,
            self.hits,
            self.near_hits,
            self.misses,
            self.hit_rate() * 100.0,
            self.verdicts_per_sec,
            self.elapsed_secs,
            self.latency.p50,
            self.latency.p99,
            self.latency.p999,
            self.hit_micros.p50,
            self.miss_micros.p50,
            self.repeat_speedup(),
        )
    }

    /// The flat BENCH JSON format of this repository (one scalar per
    /// line, greppable).
    pub fn to_bench_json(&self, options: &LoadgenOptions) -> String {
        let host = rta_obs::host_info();
        let host_fields = format!(
            "\"host_parallelism\": {},\n  \"jobs\": {},\n  \
             \"wall_ms\": {:.0},\n  \"cpu_ms\": {}",
            host.available_parallelism,
            options.connections,
            self.elapsed_secs * 1000.0,
            host.cpu_time_ms
                .map_or_else(|| "null".into(), |ms| ms.to_string()),
        );
        if let Some(chaos) = &self.chaos {
            return format!(
                "{{\n  \"bench\": \"serve-chaos\",\n  \"connections\": {},\n  \
                 \"actions\": {},\n  \"slowloris\": {},\n  \
                 \"mid_frame_disconnects\": {},\n  \"malformed_bursts\": {},\n  \
                 \"oversized\": {},\n  \"connect_and_idle\": {},\n  \
                 \"error_frames_seen\": {},\n  \"server_closes\": {},\n  \
                 \"failed_connects\": {},\n  \"errors\": {},\n  {host_fields}\n}}\n",
                options.connections,
                chaos.actions,
                chaos.slowloris,
                chaos.mid_frame_disconnects,
                chaos.malformed_bursts,
                chaos.oversized,
                chaos.connect_and_idle,
                chaos.error_frames_seen,
                chaos.server_closes,
                chaos.failed_connects,
                self.errors,
            );
        }
        format!(
            "{{\n  \"bench\": \"serve\",\n  \"connections\": {},\n  \
             \"requests\": {},\n  \"repeat_percent\": {},\n  \
             \"simulate_percent\": {},\n  \"pool_size\": {},\n  \
             \"cores\": {},\n  \"errors\": {},\n  \"retries\": {},\n  \
             \"overloaded\": {},\n  \"reconnects\": {},\n  \"gave_up\": {},\n  \
             \"hits\": {},\n  \
             \"near_hits\": {},\n  \"misses\": {},\n  \"sim_requests\": {},\n  \
             \"hit_rate_pct\": {:.2},\n  \
             \"verdicts_per_sec\": {:.0},\n  \"latency_p50_micros\": {},\n  \
             \"latency_p99_micros\": {},\n  \"latency_p999_micros\": {},\n  \
             \"hit_p50_micros\": {},\n  \"miss_p50_micros\": {},\n  \
             \"sim_p50_micros\": {},\n  \
             \"repeat_speedup\": {:.1},\n  {host_fields}\n}}\n",
            options.connections,
            self.requests,
            options.repeat_percent,
            options.simulate_percent,
            options.pool_size,
            options.cores,
            self.errors,
            self.retries,
            self.overloaded,
            self.reconnects,
            self.gave_up,
            self.hits,
            self.near_hits,
            self.misses,
            self.sims,
            self.hit_rate() * 100.0,
            self.verdicts_per_sec,
            self.latency.p50,
            self.latency.p99,
            self.latency.p999,
            self.hit_micros.p50,
            self.miss_micros.p50,
            self.sim_micros.p50,
            self.repeat_speedup(),
        )
    }
}

/// Per-worker tally, merged after the burst.
#[derive(Default)]
struct WorkerTally {
    requests: usize,
    errors: usize,
    hits: usize,
    near_hits: usize,
    misses: usize,
    sims: usize,
    retries: usize,
    reconnects: usize,
    overloaded: usize,
    gave_up: usize,
    latencies: Vec<u64>,
    hit_micros: Vec<u64>,
    miss_micros: Vec<u64>,
    sim_micros: Vec<u64>,
    chaos: ChaosTally,
}

/// Sends one control frame (`{"metrics":true}`, `{"shutdown":true}`) over
/// a fresh connection and returns the response line, under the same read
/// timeout as the burst's requests.
fn control(addr: &str, frame: &str) -> io::Result<String> {
    let mut line = String::new();
    Conn::connect(addr)?.round_trip(frame, &mut line)?;
    Ok(line)
}

/// Runs the burst (or chaos script) and aggregates the report. Fails
/// fast on a first connection error in clean mode (a missing server is a
/// setup problem, not a measurement).
pub fn run(options: &LoadgenOptions) -> io::Result<LoadgenReport> {
    assert!(options.connections >= 1, "need at least one connection");
    assert!(options.pool_size >= 1, "need at least one pooled set");
    // The repeat pool is generated once and shared read-only; its compact
    // JSON is pre-rendered so workers do no serialization work per frame.
    let pool: Arc<Vec<String>> = Arc::new(
        (0..options.pool_size)
            .map(|i| {
                let mut rng = SmallRng::seed_from_u64(set_seed(options.seed, 0, i));
                let ts =
                    rta_taskgen::generate_task_set(&mut rng, &rta_taskgen::group1(options.target));
                task_set_to_json_compact(&ts)
            })
            .collect(),
    );
    let started = Instant::now();
    let mut workers = Vec::new();
    for worker in 0..options.connections {
        let options = options.clone();
        let pool = Arc::clone(&pool);
        workers.push(thread::spawn(move || {
            if options.chaos {
                Ok(run_chaos_worker(&options, worker, &pool))
            } else {
                run_worker(&options, worker, &pool)
            }
        }));
    }
    let mut tally = WorkerTally::default();
    for worker in workers {
        let part: WorkerTally = worker
            .join()
            .map_err(|_| io::Error::other("loadgen worker panicked"))??;
        tally.requests += part.requests;
        tally.errors += part.errors;
        tally.hits += part.hits;
        tally.near_hits += part.near_hits;
        tally.misses += part.misses;
        tally.sims += part.sims;
        tally.retries += part.retries;
        tally.reconnects += part.reconnects;
        tally.overloaded += part.overloaded;
        tally.gave_up += part.gave_up;
        tally.latencies.extend(part.latencies);
        tally.hit_micros.extend(part.hit_micros);
        tally.miss_micros.extend(part.miss_micros);
        tally.sim_micros.extend(part.sim_micros);
        merge_chaos(&mut tally.chaos, &part.chaos);
    }
    let elapsed = started.elapsed().as_secs_f64();
    if let Some(path) = &options.metrics {
        // Scrape before any shutdown: the registry lives in the server
        // process and the frame needs a live socket.
        match control(&options.addr, "{\"v\":1,\"metrics\":true}\n") {
            Ok(line) => {
                std::fs::write(path, line)?;
            }
            Err(e) => eprintln!("warning: metrics scrape from {} failed: {e}", options.addr),
        }
    }
    if options.shutdown {
        // Best effort: the burst is done.
        if let Err(e) = control(&options.addr, "{\"shutdown\":true}\n") {
            eprintln!("warning: shutdown of {} failed: {e}", options.addr);
        }
    }
    let successes = tally.requests - tally.errors;
    Ok(LoadgenReport {
        requests: tally.requests,
        errors: tally.errors,
        hits: tally.hits,
        near_hits: tally.near_hits,
        misses: tally.misses,
        sims: tally.sims,
        retries: tally.retries,
        reconnects: tally.reconnects,
        overloaded: tally.overloaded,
        gave_up: tally.gave_up,
        elapsed_secs: elapsed,
        verdicts_per_sec: successes as f64 / elapsed.max(1e-9),
        latency: LatencyStats::from_samples(&mut tally.latencies),
        hit_micros: LatencyStats::from_samples(&mut tally.hit_micros),
        miss_micros: LatencyStats::from_samples(&mut tally.miss_micros),
        sim_micros: LatencyStats::from_samples(&mut tally.sim_micros),
        chaos: options.chaos.then_some(tally.chaos),
    })
}

fn merge_chaos(into: &mut ChaosTally, part: &ChaosTally) {
    into.actions += part.actions;
    into.slowloris += part.slowloris;
    into.mid_frame_disconnects += part.mid_frame_disconnects;
    into.malformed_bursts += part.malformed_bursts;
    into.oversized += part.oversized;
    into.connect_and_idle += part.connect_and_idle;
    into.error_frames_seen += part.error_frames_seen;
    into.server_closes += part.server_closes;
    into.failed_connects += part.failed_connects;
}

/// One client connection with a bounded read, so a stalled server can
/// never hang the load generator.
struct Conn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn connect(addr: &str) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(CLIENT_READ_TIMEOUT))?;
        Ok(Self {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one frame and reads one response line. An error means the
    /// connection is unusable (dropped, reset, timed out, or closed before
    /// a whole line) and the caller should reconnect.
    fn round_trip(&mut self, frame: &str, line: &mut String) -> io::Result<()> {
        self.writer.write_all(frame.as_bytes())?;
        line.clear();
        self.reader.read_line(line)?;
        if line.ends_with('\n') {
            Ok(())
        } else {
            Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed without a whole response line",
            ))
        }
    }
}

/// The capped exponential backoff before retry number `attempt` (1-based).
/// Jitter lands the delay in the upper half of the exponential ceiling;
/// drawing it from a dedicated RNG keeps the request mix independent of
/// how many retries happened.
fn backoff_delay(attempt: usize, base: u64, cap: u64, jitter: &mut SmallRng) -> Duration {
    let shift = (attempt.saturating_sub(1)).min(16) as u32;
    let ceiling = base.saturating_mul(1u64 << shift).min(cap).max(1);
    Duration::from_micros(ceiling / 2 + jitter.gen_range(0..=ceiling.div_ceil(2)))
}

fn run_worker(options: &LoadgenOptions, worker: usize, pool: &[String]) -> io::Result<WorkerTally> {
    // A missing server fails the run outright; everything after this is
    // retried rather than fatal.
    let mut conn = Some(Conn::connect(&options.addr)?);
    let mut rng = SmallRng::seed_from_u64(options.seed ^ (worker as u64).wrapping_mul(0x9E37));
    let mut jitter_rng =
        SmallRng::seed_from_u64(options.seed ^ 0xB0_FF0E ^ (worker as u64).wrapping_mul(0x51F7));
    let mut tally = WorkerTally::default();
    let mut line = String::new();
    for request_index in 0..options.requests_per_connection {
        // The simulate draw is gated on the flag so a 0% run makes no
        // extra RNG draws — its request stream is byte-identical to one
        // produced before the simulate leg existed.
        let simulate =
            options.simulate_percent > 0 && rng.gen_range(0..100u32) < options.simulate_percent;
        let repeat = rng.gen_range(0..100u32) < options.repeat_percent;
        let set_json = if repeat {
            pool[rng.gen_range(0..pool.len())].clone()
        } else {
            // A set no other worker or iteration generates: point index 1
            // keeps fresh seeds disjoint from the pool's (point 0).
            let fresh = set_seed(
                options.seed,
                1,
                worker * options.requests_per_connection + request_index,
            );
            let mut set_rng = SmallRng::seed_from_u64(fresh);
            let ts: TaskSet =
                rta_taskgen::generate_task_set(&mut set_rng, &rta_taskgen::group1(options.target));
            task_set_to_json_compact(&ts)
        };
        // Gated like the simulate draw: a 0% run makes no extra draw.
        let competitors = !simulate
            && options.competitor_percent > 0
            && rng.gen_range(0..100u32) < options.competitor_percent;
        let frame = if simulate {
            format!(
                "{{\"v\":1,\"simulate\":{{\"cores\":{},\"horizon\":{},\"task_set\":{}}}}}\n",
                options.cores, SIM_HORIZON, set_json
            )
        } else if competitors {
            format!(
                "{{\"v\":1,\"cores\":{},\"methods\":[\"Long-paths\",\"Gen-sporadic\"],\
                 \"bounds\":{},\"task_set\":{}}}\n",
                options.cores, options.bounds, set_json
            )
        } else {
            format!(
                "{{\"v\":1,\"cores\":{},\"bounds\":{},\"task_set\":{}}}\n",
                options.cores, options.bounds, set_json
            )
        };
        let mut attempt = 0;
        let latency = loop {
            if conn.is_none() {
                if let Ok(fresh) = Conn::connect(&options.addr) {
                    conn = Some(fresh);
                    tally.reconnects += 1;
                }
            }
            let mut answered = false;
            let sent = Instant::now();
            if let Some(c) = conn.as_mut() {
                answered = c.round_trip(&frame, &mut line).is_ok();
                if !answered {
                    conn = None;
                }
            }
            if answered {
                if line.contains("\"kind\":\"overloaded\"") {
                    // The server is shedding; the connection survives.
                    tally.overloaded += 1;
                } else {
                    break Some(sent.elapsed().as_micros() as u64);
                }
            }
            if attempt >= options.retries {
                break None;
            }
            attempt += 1;
            tally.retries += 1;
            thread::sleep(backoff_delay(
                attempt,
                options.backoff_micros,
                options.backoff_cap_micros,
                &mut jitter_rng,
            ));
        };
        tally.requests += 1;
        let Some(latency) = latency else {
            tally.errors += 1;
            tally.gave_up += 1;
            continue;
        };
        if line.contains("\"ok\":true") {
            tally.latencies.push(latency);
            let micros = field_u64(&line, "\"micros\":").unwrap_or(0);
            if simulate {
                tally.sims += 1;
                tally.sim_micros.push(micros);
            } else if line.contains("\"cache\":\"hit\"") {
                tally.hits += 1;
                tally.hit_micros.push(micros);
            } else if line.contains("\"cache\":\"near\"") {
                tally.near_hits += 1;
            } else {
                tally.misses += 1;
                tally.miss_micros.push(micros);
            }
        } else {
            tally.errors += 1;
        }
    }
    Ok(tally)
}

// ---------------------------------------------------------------------------
// Chaos mode
// ---------------------------------------------------------------------------

/// The deterministic hostile-action script for one chaos worker: a pure
/// function of `(seed, worker, actions)`, so any chaos run can be
/// replayed exactly.
pub fn chaos_script(seed: u64, worker: usize, actions: usize) -> Vec<ChaosAction> {
    let mut rng =
        SmallRng::seed_from_u64(seed ^ 0xC7A0_5EED ^ (worker as u64).wrapping_mul(0x9E37));
    (0..actions)
        .map(|_| match rng.gen_range(0..5u32) {
            0 => ChaosAction::Slowloris,
            1 => ChaosAction::MidFrameDisconnect,
            2 => ChaosAction::MalformedBurst,
            3 => ChaosAction::Oversized,
            _ => ChaosAction::ConnectAndIdle,
        })
        .collect()
}

fn run_chaos_worker(options: &LoadgenOptions, worker: usize, pool: &[String]) -> WorkerTally {
    let script = chaos_script(options.seed, worker, options.requests_per_connection);
    // Action parameters (which set, how long to idle) come from their own
    // seeded stream, independent of the action sequence.
    let mut param_rng =
        SmallRng::seed_from_u64(options.seed ^ 0x9A4A_11CE ^ (worker as u64).wrapping_mul(0x51F7));
    let mut tally = WorkerTally::default();
    for action in script {
        tally.chaos.actions += 1;
        let sample = &pool[param_rng.gen_range(0..pool.len())];
        let frame = format!(
            "{{\"v\":1,\"cores\":{},\"task_set\":{}}}\n",
            options.cores, sample
        );
        run_chaos_action(options, action, &frame, &mut param_rng, &mut tally.chaos);
    }
    tally
}

/// Opens a socket for one hostile action; both directions are bounded so
/// no action can take more than a couple of seconds.
fn chaos_connect(addr: &str, chaos: &mut ChaosTally) -> Option<TcpStream> {
    match TcpStream::connect(addr) {
        Ok(stream) => {
            let _ = stream.set_read_timeout(Some(CHAOS_READ_TIMEOUT));
            let _ = stream.set_write_timeout(Some(CHAOS_WRITE_TIMEOUT));
            Some(stream)
        }
        Err(_) => {
            chaos.failed_connects += 1;
            None
        }
    }
}

/// Reads whatever the server has to say within the observation window,
/// counting structured error frames and whether the server closed on us.
fn observe_responses(stream: &TcpStream, chaos: &mut ChaosTally) {
    let Ok(clone) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(clone);
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) => {
                chaos.server_closes += 1;
                return;
            }
            Ok(_) => {
                if line.contains("\"ok\":false") {
                    chaos.error_frames_seen += 1;
                }
            }
            Err(_) => return, // window over, server still has us
        }
    }
}

fn run_chaos_action(
    options: &LoadgenOptions,
    action: ChaosAction,
    frame: &str,
    param_rng: &mut SmallRng,
    chaos: &mut ChaosTally,
) {
    match action {
        ChaosAction::Slowloris => {
            chaos.slowloris += 1;
            let Some(mut stream) = chaos_connect(&options.addr, chaos) else {
                return;
            };
            // Dribble out the first half of a real frame one byte at a
            // time, then stop writing and watch what the server does.
            let half = &frame.as_bytes()[..(frame.len() / 2).min(48)];
            for byte in half {
                if stream.write_all(&[*byte]).is_err() {
                    break;
                }
                thread::sleep(Duration::from_millis(1));
            }
            observe_responses(&stream, chaos);
        }
        ChaosAction::MidFrameDisconnect => {
            chaos.mid_frame_disconnects += 1;
            let Some(mut stream) = chaos_connect(&options.addr, chaos) else {
                return;
            };
            let _ = stream.write_all(&frame.as_bytes()[..frame.len() / 2]);
            // Drop without finishing the frame: the server must treat it
            // as a closed connection, not a parse error.
        }
        ChaosAction::MalformedBurst => {
            chaos.malformed_bursts += 1;
            let Some(mut stream) = chaos_connect(&options.addr, chaos) else {
                return;
            };
            // The last line nests far past the reader's depth bound.
            let deep = "[".repeat(100_000);
            for junk in ["{\"cores\":", "definitely not json", "[1,2,", &deep] {
                if stream.write_all(junk.as_bytes()).is_err() || stream.write_all(b"\n").is_err() {
                    break;
                }
            }
            observe_responses(&stream, chaos);
        }
        ChaosAction::Oversized => {
            chaos.oversized += 1;
            let Some(mut stream) = chaos_connect(&options.addr, chaos) else {
                return;
            };
            // Larger than any server's default frame cap; written in
            // chunks so a refused connection bails out early.
            let chunk = vec![b'x'; 64 * 1024];
            let mut remaining = DEFAULT_MAX_FRAME + 4096;
            while remaining > 0 {
                let n = remaining.min(chunk.len());
                if stream.write_all(&chunk[..n]).is_err() {
                    break;
                }
                remaining -= n;
            }
            let _ = stream.write_all(b"\n");
            observe_responses(&stream, chaos);
        }
        ChaosAction::ConnectAndIdle => {
            chaos.connect_and_idle += 1;
            let Some(stream) = chaos_connect(&options.addr, chaos) else {
                return;
            };
            thread::sleep(Duration::from_millis(param_rng.gen_range(20..=80)));
            observe_responses(&stream, chaos);
        }
    }
}

/// Pulls one `"key":<integer>` field out of a response line without a full
/// JSON parse (the hot path of the measurement loop).
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let start = line.find(key)? + key.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_of_known_samples() {
        let mut samples: Vec<u64> = (1..=1000).collect();
        let stats = LatencyStats::from_samples(&mut samples);
        assert_eq!(stats.count, 1000);
        assert_eq!(stats.p50, 500);
        assert_eq!(stats.p99, 990);
        assert_eq!(stats.p999, 999);
        assert!((stats.mean - 500.5).abs() < 1e-9);
        assert_eq!(LatencyStats::from_samples(&mut []).count, 0);
    }

    #[test]
    fn integer_fields_parse_out_of_response_lines() {
        let line = r#"{"v":1,"ok":true,"cache":"hit","micros":412,"verdicts":[]}"#;
        assert_eq!(field_u64(line, "\"micros\":"), Some(412));
        assert_eq!(field_u64(line, "\"absent\":"), None);
    }

    #[test]
    fn backoff_is_capped_exponential_and_deterministic() {
        let delays = |seed: u64| -> Vec<Duration> {
            let mut jitter = SmallRng::seed_from_u64(seed);
            (1..=8)
                .map(|attempt| backoff_delay(attempt, 500, 4_000, &mut jitter))
                .collect()
        };
        // Deterministic for a fixed seed.
        assert_eq!(delays(7), delays(7));
        for (i, delay) in delays(7).iter().enumerate() {
            // Every delay lands in the upper half of the exponential
            // ceiling, and the ceiling respects the cap.
            let ceiling = (500u64 << i).min(4_000);
            assert!(
                delay.as_micros() >= u128::from(ceiling / 2),
                "{i}: {delay:?}"
            );
            assert!(delay.as_micros() <= u128::from(ceiling), "{i}: {delay:?}");
        }
    }

    #[test]
    fn control_frames_to_a_silent_server_time_out() {
        use std::net::TcpListener;
        // A server that accepts and never answers.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("local addr").to_string();
        let silent = thread::spawn(move || {
            (0..2)
                .map(|_| listener.accept().expect("accept").0)
                .collect::<Vec<_>>()
        });
        let started = Instant::now();
        let calls: Vec<_> = ["{\"v\":1,\"metrics\":true}\n", "{\"shutdown\":true}\n"]
            .into_iter()
            .map(|frame| {
                let addr = addr.clone();
                thread::spawn(move || control(&addr, frame))
            })
            .collect();
        for call in calls {
            let err = call
                .join()
                .expect("control thread")
                .expect_err("no answer came");
            assert!(
                matches!(
                    err.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ),
                "{err}"
            );
        }
        assert!(
            started.elapsed() < CLIENT_READ_TIMEOUT + Duration::from_secs(2),
            "{:?}",
            started.elapsed()
        );
        drop(silent.join().expect("listener thread"));
    }

    #[test]
    fn chaos_scripts_are_deterministic_and_diverse() {
        let a = chaos_script(42, 0, 64);
        assert_eq!(a, chaos_script(42, 0, 64));
        assert_eq!(a.len(), 64);
        // Workers get distinct scripts; all five behaviours appear in a
        // script of this length.
        assert_ne!(a, chaos_script(42, 1, 64));
        for kind in [
            ChaosAction::Slowloris,
            ChaosAction::MidFrameDisconnect,
            ChaosAction::MalformedBurst,
            ChaosAction::Oversized,
            ChaosAction::ConnectAndIdle,
        ] {
            assert!(a.contains(&kind), "{kind:?} missing from the script");
        }
    }
}
