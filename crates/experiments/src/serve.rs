//! `repro serve` — an admission-control daemon answering schedulability
//! verdicts over a socket, hardened against overload and hostile clients.
//!
//! The ROADMAP's north star is serving verdicts at production scale; this
//! module is the long-running surface over the unified request API
//! ([`rta_analysis::AnalysisRequest`]) and the admission-control cache
//! ([`rta_analysis::AnalysisLru`]).
//!
//! # Wire protocol
//!
//! Line-delimited JSON over TCP: every frame is one compact JSON object
//! terminated by `\n`, in both directions (`rta_model::json` is the only
//! JSON machinery — no new dependencies). A request:
//!
//! ```json
//! {"v":1,"id":7,"cores":4,"methods":["FP-ideal","LP-sound"],"bounds":true,
//!  "task_set":{"version":1,"tasks":[{"period":40,"deadline":40,
//!  "dag":{"wcets":[2,6,4,1],"edges":[[0,1],[0,2],[1,3],[2,3]]}}]}}
//! ```
//!
//! * `v` — optional envelope version; must be `1` when present.
//! * `id` — optional integer, echoed verbatim in the response so clients
//!   can pipeline frames.
//! * `cores` — required platform size (`1..=MAX_CORES`).
//! * `methods` — optional array of method labels (`"FP-ideal"`,
//!   `"LP-ILP"`, `"LP-max"`, `"LP-sound"`, `"Long-paths"`,
//!   `"Gen-sporadic"`); omitted means all six.
//! * `bounds` — optional, default `false`; `true` materializes per-task
//!   response bounds.
//! * `task_set` — required, the versioned task-set payload of
//!   [`rta_model::json`].
//!
//! A successful response (`cache` is the [`CacheOutcome`] label, `micros`
//! the server-side analysis time, `bounds` the per-task response-time
//! ceilings of the analyzed prefix, present iff requested):
//!
//! ```json
//! {"v":1,"id":7,"ok":true,"cache":"miss","micros":412,"verdicts":[
//!   {"method":"FP-ideal","schedulable":true,"bounds":[9]},
//!   {"method":"LP-sound","schedulable":true,"bounds":[9]}]}
//! ```
//!
//! Any failure — malformed JSON, schema violations, unknown schema
//! versions, model violations such as cyclic DAGs, oversized frames, an
//! exhausted connection pool, a stalled client — produces a structured
//! error on the same path and the server keeps serving (no panic, no
//! abandoned socket):
//!
//! ```json
//! {"v":1,"ok":false,"error":{"kind":"model","message":"..."}}
//! ```
//!
//! `kind` is one of `syntax`, `schema`, `version`, `model`, `protocol`,
//! `too_large`, `overloaded`, `timeout`. Three special frames bypass
//! analysis: `{"stats":true}` reports this server's counters,
//! `{"metrics":true}` returns the process-global [`rta_obs`] registry
//! (per-method verdict latency histograms, cache counters, simulator
//! telemetry, per-frame-kind latency histograms) merged with this
//! server's counters as `serve_<name>_total`, as
//! `{"v":1,"ok":true,"metrics":{...}}`, and `{"shutdown":true}`
//! acknowledges and stops the server. When
//! [`ServeOptions::metrics_dump`] names a path, the same merged snapshot
//! is additionally written there in Prometheus text exposition format
//! when the server drains.
//!
//! # Simulation frames
//!
//! Besides analysis verdicts, the server runs the event-driven simulator
//! ([`rta_sim::SimRequest`]) on demand. A simulate frame carries one
//! `"simulate"` object in the same versioned envelope:
//!
//! ```json
//! {"v":1,"id":9,"simulate":{"cores":4,"horizon":20000,"policy":"lazy",
//!  "release":"jitter","seed":7,"task_set":{"version":1,"tasks":[...]}}}
//! ```
//!
//! * `cores` — required, `1..=MAX_CORES`.
//! * `horizon` — required; **capped server-side** at [`MAX_SIM_HORIZON`]
//!   (a horizon is simulated work, not a free parameter — an unbounded
//!   one would be a denial-of-service lever).
//! * `policy` — optional: `"eager"` (default), `"lazy"`, `"full"`.
//! * `release` — optional: `"sync"` (default), `"jitter"`, `"sporadic"` —
//!   the validation campaign's release patterns (per-task
//!   period-fraction jitter of 0, T_i/10 and T_i respectively).
//! * `seed` — optional RNG seed, default 0.
//! * `task_set` — required, same versioned payload as analyze frames.
//!
//! The response reports the run's statistics (no trace crosses the
//! wire):
//!
//! ```json
//! {"v":1,"id":9,"ok":true,"micros":2140,"sim":{"makespan":20125,
//!  "deadline_misses":0,"events":1843,"deferred_preemptions":0,
//!  "peak_live_jobs":3,"trace_dropped":0,"max_responses":[9,41]}}
//! ```
//!
//! `trace_dropped` mirrors [`rta_sim::SimOutcome::trace_dropped`]: wire
//! runs never record a trace, so it is 0 today, but the field is part of
//! the frame contract so a client can always tell a complete observation
//! from a truncated one if tracing ever crosses the wire.
//!
//! Simulate frames obey the same robustness rules as analyze frames:
//! past the shed watermark they are refused with `overloaded` (there is
//! no cache to degrade to), and a run that outlives the frame budget
//! counts against the `overruns` stat.
//!
//! # Robustness model
//!
//! The server is built to survive overload and hostile clients **by
//! construction** (and the chaos suite in
//! `crates/experiments/tests/chaos.rs` injects faults to prove it):
//!
//! * **Bounded connection pool** — at most [`ServeOptions::max_conns`]
//!   connections are served concurrently; excess connections receive one
//!   `overloaded` error frame and are closed, so a connection flood can
//!   never spawn unbounded threads.
//! * **Idle and frame timeouts** — a connection that sends nothing for
//!   [`ServeOptions::idle_timeout`], or starts a frame and fails to finish
//!   it within [`ServeOptions::frame_timeout`] (the slowloris pattern),
//!   receives a `timeout` error frame and is closed. Both are enforced
//!   with `set_read_timeout` ticks, so a stalled socket occupies its pool
//!   slot for a bounded time only. Writes carry the same timeout, so a
//!   client that stops *reading* cannot park a thread either.
//! * **Load shedding** — once the pool is at or past
//!   [`ServeOptions::shed_watermark`], analyze frames are answered from
//!   recorded cache facts only ([`AnalysisLru::fetch_facts`]): a repeat of
//!   an answered request is still served in O(lookup), anything that would
//!   need a cold analysis gets an `overloaded` error frame instead — the
//!   connection survives and resynchronizes at the next newline. Cold
//!   frames that do run are timed; completions past the frame budget are
//!   counted (`overruns` in `stats`) — the fixed point itself is not
//!   cancellable mid-flight, so the budget is enforced *before* the
//!   analysis (shedding), not by killing it.
//! * **Graceful drain** — shutdown stops accepting, then joins every live
//!   connection thread up to [`ServeOptions::drain_timeout`]; the
//!   resulting [`DrainReport`] says how many threads were joined, cut off,
//!   or had panicked. Connection threads observe the stop flag at every
//!   read tick, so drain latency is bounded by the tick, not by client
//!   behaviour.
//! * **Bounded accept loop** — the listener is non-blocking and rechecks
//!   the stop flag every few milliseconds, so shutdown can never hang in
//!   `accept` (this replaces the PR-6 `poke_acceptor` self-connect hack,
//!   whose failure path was silent); accept errors are counted, not
//!   ignored.
//! * **Fault hook** — [`ServeOptions::fault`] installs a seeded
//!   [`FaultPlan`] (test-only knob) that drops freshly accepted
//!   connections and delays frame processing at configurable rates, so
//!   the chaos suite can widen race windows deterministically without
//!   touching the serving logic.

use crate::validate::ReleaseChoice;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rta_analysis::{AnalysisLru, AnalysisRequest, CacheOutcome, Method};
use rta_model::json::{self, Decoded, JsonError, Value};
use rta_model::{TaskSet, Time};
use rta_sim::{PreemptionPolicy, SimOutcome, SimRequest};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Hard cap on `cores`: a request is a platform description, not a memory
/// allocation license (per-core tables grow with `m`).
pub const MAX_CORES: usize = 1024;

/// Default bound on one request frame, newline included.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Server-side cap on a simulate frame's horizon: simulated time is
/// simulated *work*, so an uncapped horizon would let one frame occupy a
/// connection thread indefinitely.
pub const MAX_SIM_HORIZON: Time = 10_000_000;

/// Default number of task sets the admission cache retains.
pub const DEFAULT_LRU_CAPACITY: usize = 128;

/// Default bound on concurrently served connections.
pub const DEFAULT_MAX_CONNS: usize = 64;

/// How often blocked reads and the accept loop recheck the stop flag; the
/// upper bound on how long a drain waits for an *idle* connection.
const STOP_TICK: Duration = Duration::from_millis(25);

/// Accept-loop sleep between polls when no connection is pending — the
/// bounded recheck that makes a hung shutdown impossible.
const ACCEPT_TICK: Duration = Duration::from_millis(5);

/// Smallest socket timeout we ever set (zero would disable the timeout).
const MIN_SOCKET_TIMEOUT: Duration = Duration::from_millis(1);

/// Seeded fault injection — the test-only knob behind the chaos suite.
///
/// When installed via [`ServeOptions::fault`], the server draws from a
/// [`SmallRng`] seeded with `seed` to (a) drop freshly accepted
/// connections before serving them (`drop_accept_pct`) and (b) sleep for
/// up to `delay_max_micros` before processing an analyze frame
/// (`delay_pct`). Neither fault can corrupt an answer — drops look like
/// network failures to the client, delays only widen race windows — which
/// is exactly what the chaos suite needs to prove the server stays
/// correct under scheduling adversity.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// RNG seed for the injected-fault stream.
    pub seed: u64,
    /// Percent of accepted connections dropped before serving (0..=100).
    pub drop_accept_pct: u32,
    /// Percent of analyze frames delayed before processing (0..=100).
    pub delay_pct: u32,
    /// Upper bound on one injected delay, in microseconds.
    pub delay_max_micros: u64,
}

/// Server configuration.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Listen address, e.g. `127.0.0.1:0` (port 0 picks a free port).
    pub addr: String,
    /// Task-set capacity of the admission cache.
    pub lru_capacity: usize,
    /// Maximum accepted frame length in bytes (newline included); longer
    /// frames are answered with a `too_large` error and skipped.
    pub max_frame: usize,
    /// Maximum concurrently served connections; excess connections get an
    /// `overloaded` error frame and are closed.
    pub max_conns: usize,
    /// Active-connection count at which the server starts shedding load:
    /// analyze frames are then answered from cache facts only, anything
    /// cold gets an `overloaded` error frame.
    pub shed_watermark: usize,
    /// A connection that sends no byte for this long is closed with a
    /// `timeout` error frame.
    pub idle_timeout: Duration,
    /// A started frame must arrive completely within this budget, or the
    /// connection is closed with a `timeout` error frame (slowloris
    /// defense). Also the write timeout, and the processing budget whose
    /// breaches the `overruns` counter records.
    pub frame_timeout: Duration,
    /// How long shutdown waits for live connection threads to finish
    /// before cutting them off.
    pub drain_timeout: Duration,
    /// Seeded fault injection (test-only); `None` in production.
    pub fault: Option<FaultPlan>,
    /// When set, the process-global metrics registry plus this server's
    /// counters are written to this path in Prometheus text exposition
    /// format when the server drains.
    pub metrics_dump: Option<std::path::PathBuf>,
}

/// The shed watermark for a pool of `max_conns` connections when none is
/// configured: three quarters of the pool.
pub fn default_watermark(max_conns: usize) -> usize {
    max_conns * 3 / 4
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            lru_capacity: DEFAULT_LRU_CAPACITY,
            max_frame: DEFAULT_MAX_FRAME,
            max_conns: DEFAULT_MAX_CONNS,
            shed_watermark: default_watermark(DEFAULT_MAX_CONNS),
            idle_timeout: Duration::from_secs(30),
            frame_timeout: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(5),
            fault: None,
            metrics_dump: None,
        }
    }
}

/// Every counter a server keeps, stored once per server in
/// [`ServerState::counters`]. Its entry in [`Stat::NAMES`] is the
/// counter's key in the `{"stats":true}` frame and the stem of its
/// `serve_<name>_total` entry in the metrics scrape and the Prometheus
/// dump.
#[derive(Clone, Copy)]
enum Stat {
    Requests,
    SimRequests,
    Errors,
    Shed,
    Timeouts,
    Overruns,
    Drained,
    AcceptErrors,
    InjectedDrops,
    InjectedDelays,
    CutOff,
    Panicked,
}

impl Stat {
    /// Indexed by `Stat as usize`.
    const NAMES: [&'static str; 12] = [
        "requests",
        "sim_requests",
        "errors",
        "shed",
        "timeouts",
        "overruns",
        "drained",
        "accept_errors",
        "injected_drops",
        "injected_delays",
        "cut_off",
        "panicked",
    ];
}

/// The server's per-frame-kind latency histograms in the process-global
/// [`rta_obs`] registry.
mod obs {
    use rta_obs::Histogram;
    use std::sync::LazyLock;

    pub static FRAME_NS_ANALYZE: LazyLock<Histogram> =
        LazyLock::new(|| rta_obs::histogram("serve_frame_ns_analyze"));
    pub static FRAME_NS_SIMULATE: LazyLock<Histogram> =
        LazyLock::new(|| rta_obs::histogram("serve_frame_ns_simulate"));
    pub static FRAME_NS_STATS: LazyLock<Histogram> =
        LazyLock::new(|| rta_obs::histogram("serve_frame_ns_stats"));
    pub static FRAME_NS_METRICS: LazyLock<Histogram> =
        LazyLock::new(|| rta_obs::histogram("serve_frame_ns_metrics"));
}

/// Gauge of live connections: the pool bound, the shed signal, and the
/// condition drain waits on.
struct ActiveGauge {
    count: Mutex<usize>,
    zero: Condvar,
}

impl ActiveGauge {
    fn new() -> Self {
        Self {
            count: Mutex::new(0),
            zero: Condvar::new(),
        }
    }

    /// Claims a pool slot unless `max` are already taken.
    fn try_acquire(&self, max: usize) -> bool {
        let mut count = self.count.lock().expect("gauge lock");
        if *count >= max {
            false
        } else {
            *count += 1;
            true
        }
    }

    fn release(&self) {
        let mut count = self.count.lock().expect("gauge lock");
        *count -= 1;
        if *count == 0 {
            self.zero.notify_all();
        }
    }

    fn current(&self) -> usize {
        *self.count.lock().expect("gauge lock")
    }

    /// Blocks until no connection is live or `deadline` passes; returns
    /// whether the pool drained in time.
    fn wait_zero(&self, deadline: Instant) -> bool {
        let mut count = self.count.lock().expect("gauge lock");
        while *count > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = self
                .zero
                .wait_timeout(count, deadline - now)
                .expect("gauge lock");
            count = guard;
        }
        true
    }
}

/// Releases the pool slot when a connection thread exits — including by
/// panic, so a crashed handler can never wedge the gauge.
struct ConnGuard {
    state: Arc<ServerState>,
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.state.active.release();
    }
}

/// Shared server state: the admission cache plus the server's counters.
struct ServerState {
    options: ServeOptions,
    lru: Mutex<AnalysisLru>,
    stop: AtomicBool,
    local_addr: SocketAddr,
    active: ActiveGauge,
    /// Indexed by [`Stat`]; statistics only, so `Relaxed` throughout.
    counters: [AtomicU64; Stat::NAMES.len()],
    fault: Option<Mutex<SmallRng>>,
}

impl ServerState {
    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    fn bump(&self, stat: Stat) {
        self.counters[stat as usize].fetch_add(1, Ordering::Relaxed);
    }

    fn count(&self, stat: Stat) -> u64 {
        self.counters[stat as usize].load(Ordering::Relaxed)
    }

    /// The process-global registry merged with this server's counters —
    /// what the metrics frame and the Prometheus dump carry.
    fn metrics(&self) -> rta_obs::Snapshot {
        let mut snapshot = rta_obs::snapshot();
        snapshot.counters.extend(
            Stat::NAMES
                .iter()
                .zip(&self.counters)
                .map(|(name, n)| (format!("serve_{name}_total"), n.load(Ordering::Relaxed))),
        );
        snapshot.counters.sort_by(|a, b| a.0.cmp(&b.0));
        snapshot
    }

    /// Fault hook: should this freshly accepted connection be dropped?
    fn inject_accept_drop(&self) -> bool {
        let Some(rng) = &self.fault else { return false };
        let plan = self.options.fault.as_ref().expect("fault plan");
        if plan.drop_accept_pct == 0 {
            return false;
        }
        let hit = rng.lock().expect("fault rng").gen_range(0..100u32) < plan.drop_accept_pct;
        if hit {
            self.bump(Stat::InjectedDrops);
        }
        hit
    }

    /// Fault hook: artificial processing delay for the current frame.
    fn inject_delay(&self) -> Option<Duration> {
        let rng = self.fault.as_ref()?;
        let plan = self.options.fault.as_ref().expect("fault plan");
        if plan.delay_pct == 0 {
            return None;
        }
        let mut rng = rng.lock().expect("fault rng");
        if rng.gen_range(0..100u32) < plan.delay_pct {
            self.bump(Stat::InjectedDelays);
            Some(Duration::from_micros(
                rng.gen_range(0..=plan.delay_max_micros),
            ))
        } else {
            None
        }
    }
}

/// What a drain observed: every connection thread is accounted for.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Connection threads joined cleanly (over the server's lifetime).
    pub drained: u64,
    /// Threads still running when the drain deadline passed (detached).
    pub cut_off: u64,
    /// Threads that had panicked (always 0 on a correct server).
    pub panicked: u64,
}

impl DrainReport {
    /// Human-readable one-liner.
    pub fn render(&self) -> String {
        format!(
            "drained {} connection thread(s), cut off {}, panicked {}",
            self.drained, self.cut_off, self.panicked
        )
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`shutdown`](ServerHandle::shutdown) (or send a `{"shutdown":true}`
/// frame) to stop it, or [`join`](ServerHandle::join) to serve until a
/// client does. Either way the accept loop drains live connection threads
/// before exiting and reports what it saw.
pub struct ServerHandle {
    state: Arc<ServerState>,
    acceptor: thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.state.local_addr
    }

    /// Stops accepting, drains live connection threads up to the
    /// configured deadline and reports the result.
    pub fn shutdown(self) -> DrainReport {
        self.state.stop.store(true, Ordering::SeqCst);
        self.join()
    }

    /// Blocks until some client's `{"shutdown":true}` frame stops the
    /// server (the foreground `repro serve` mode), then reports the drain.
    pub fn join(self) -> DrainReport {
        let _ = self.acceptor.join();
        if let Some(path) = &self.state.options.metrics_dump {
            // Best effort: a failed dump must not turn a clean drain into
            // a crash, but it should not be silent either.
            if let Err(e) = std::fs::write(path, self.state.metrics().to_prometheus()) {
                eprintln!(
                    "warning: could not write metrics dump {}: {e}",
                    path.display()
                );
            }
        }
        DrainReport {
            drained: self.state.count(Stat::Drained),
            cut_off: self.state.count(Stat::CutOff),
            panicked: self.state.count(Stat::Panicked),
        }
    }
}

/// Binds the listener and spawns the accept loop (thread per connection,
/// bounded by the pool).
pub fn spawn(options: &ServeOptions) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(&options.addr)?;
    listener.set_nonblocking(true)?;
    let state = Arc::new(ServerState {
        options: options.clone(),
        lru: Mutex::new(AnalysisLru::new(options.lru_capacity)),
        stop: AtomicBool::new(false),
        local_addr: listener.local_addr()?,
        active: ActiveGauge::new(),
        counters: Default::default(),
        fault: options
            .fault
            .as_ref()
            .map(|plan| Mutex::new(SmallRng::seed_from_u64(plan.seed))),
    });
    let accept_state = Arc::clone(&state);
    let acceptor = thread::spawn(move || accept_loop(&accept_state, listener));
    Ok(ServerHandle { state, acceptor })
}

/// The accept loop: non-blocking polls with a bounded stop recheck, pool
/// admission, and — once stopped — the drain of live connection threads.
fn accept_loop(state: &Arc<ServerState>, listener: TcpListener) {
    let mut registry: Vec<thread::JoinHandle<()>> = Vec::new();
    loop {
        if state.stopping() {
            break;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                reap_finished(state, &mut registry);
                if state.inject_accept_drop() {
                    continue; // simulated accept-path failure
                }
                if state.active.try_acquire(state.options.max_conns) {
                    let guard = ConnGuard {
                        state: Arc::clone(state),
                    };
                    let conn_state = Arc::clone(state);
                    registry.push(thread::spawn(move || {
                        let _guard = guard;
                        // A failed connection is the client's problem; the
                        // server must outlive it either way.
                        let _ = serve_connection(&conn_state, stream);
                    }));
                } else {
                    state.bump(Stat::Shed);
                    refuse_overloaded(stream, state.options.frame_timeout);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => thread::sleep(ACCEPT_TICK),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                state.bump(Stat::AcceptErrors);
                thread::sleep(ACCEPT_TICK);
            }
        }
    }
    drain_connections(state, registry);
}

/// Joins already-finished connection threads so the registry stays
/// bounded by the number of *live* connections, not lifetime totals.
fn reap_finished(state: &ServerState, registry: &mut Vec<thread::JoinHandle<()>>) {
    let mut i = 0;
    while i < registry.len() {
        if registry[i].is_finished() {
            finish(state, registry.swap_remove(i));
        } else {
            i += 1;
        }
    }
}

fn finish(state: &ServerState, handle: thread::JoinHandle<()>) {
    state.bump(match handle.join() {
        Ok(()) => Stat::Drained,
        Err(_) => Stat::Panicked,
    });
}

/// The drain phase: wait for the pool to empty (connection threads see the
/// stop flag at every read tick), then join what finished and cut off —
/// detach and count — whatever is still running at the deadline.
fn drain_connections(state: &ServerState, registry: Vec<thread::JoinHandle<()>>) {
    let deadline = Instant::now() + state.options.drain_timeout;
    let all_done = state.active.wait_zero(deadline);
    for handle in registry {
        if all_done || handle.is_finished() {
            finish(state, handle);
        } else {
            state.bump(Stat::CutOff);
        }
    }
}

/// Answers a pool-exceeding connection with one `overloaded` frame and
/// closes it; best effort under a short write timeout so a hostile client
/// cannot stall the acceptor.
fn refuse_overloaded(stream: TcpStream, write_timeout: Duration) {
    let _ = stream.set_write_timeout(Some(write_timeout.max(MIN_SOCKET_TIMEOUT)));
    let mut stream = stream;
    let _ = respond_error(&mut stream, None, &WireError::overloaded());
}

// ---------------------------------------------------------------------------
// Per-connection loop
// ---------------------------------------------------------------------------

/// What one request frame asks for.
#[derive(Debug, PartialEq)]
enum Frame {
    Analyze {
        id: Option<u64>,
        task_set: TaskSet,
        request: AnalysisRequest,
    },
    Simulate {
        id: Option<u64>,
        task_set: TaskSet,
        request: SimRequest,
    },
    Stats {
        id: Option<u64>,
    },
    Metrics {
        id: Option<u64>,
    },
    Shutdown {
        id: Option<u64>,
    },
}

/// A structured wire error: `kind` is part of the protocol, `message` is
/// for humans.
#[derive(Debug, PartialEq)]
struct WireError {
    kind: &'static str,
    message: String,
}

impl WireError {
    fn protocol(message: impl Into<String>) -> Self {
        Self {
            kind: "protocol",
            message: message.into(),
        }
    }

    fn overloaded() -> Self {
        Self {
            kind: "overloaded",
            message: "server is shedding load; retry with backoff".into(),
        }
    }

    fn timeout(message: impl Into<String>) -> Self {
        Self {
            kind: "timeout",
            message: message.into(),
        }
    }
}

impl From<JsonError> for WireError {
    fn from(e: JsonError) -> Self {
        let kind = match &e {
            JsonError::Syntax { .. } => "syntax",
            JsonError::Schema(_) => "schema",
            JsonError::UnknownVersion { .. } => "version",
            JsonError::Model(_) => "model",
        };
        Self {
            kind,
            message: e.to_string(),
        }
    }
}

/// How one attempt to read a frame ended.
enum FrameRead {
    /// A complete newline-terminated frame is in the buffer.
    Frame,
    /// The client closed the connection (possibly mid-frame).
    Closed,
    /// The server is stopping; close without reading further.
    Stopped,
    /// No byte arrived within the idle budget.
    IdleTimeout,
    /// A frame started but did not complete within the frame budget.
    Stalled,
    /// The frame exceeded `max_frame` bytes without a newline.
    Oversized,
}

fn serve_connection(state: &Arc<ServerState>, stream: TcpStream) -> io::Result<()> {
    // A client that stops *reading* must not park this thread forever.
    stream.set_write_timeout(Some(state.options.frame_timeout.max(MIN_SOCKET_TIMEOUT)))?;
    let mut writer = stream.try_clone()?;
    let mut reader = BufReader::new(stream);
    let mut line = Vec::new();
    loop {
        match read_frame(state, &mut reader, &mut line)? {
            FrameRead::Closed | FrameRead::Stopped => return Ok(()),
            FrameRead::IdleTimeout => {
                state.bump(Stat::Timeouts);
                let _ = respond_error(
                    &mut writer,
                    None,
                    &WireError::timeout(format!(
                        "no frame within the {}ms idle budget",
                        state.options.idle_timeout.as_millis()
                    )),
                );
                return Ok(());
            }
            FrameRead::Stalled => {
                state.bump(Stat::Timeouts);
                let _ = respond_error(
                    &mut writer,
                    None,
                    &WireError::timeout(format!(
                        "frame did not complete within the {}ms frame budget",
                        state.options.frame_timeout.as_millis()
                    )),
                );
                return Ok(());
            }
            FrameRead::Oversized => {
                // Answer the structured error, then drain the rest of the
                // oversized line so the connection re-synchronizes at the
                // next newline.
                state.bump(Stat::Errors);
                respond_error(
                    &mut writer,
                    None,
                    &WireError {
                        kind: "too_large",
                        message: format!("frame exceeds {} bytes", state.options.max_frame),
                    },
                )?;
                if !drain_to_newline(state, &mut reader)? {
                    return Ok(()); // EOF or stall inside the oversized frame
                }
            }
            FrameRead::Frame => {
                let text = String::from_utf8_lossy(&line);
                if text.trim().is_empty() {
                    continue; // bare keep-alive newline
                }
                if !handle_frame(state, &mut writer, text.trim())? {
                    return Ok(());
                }
            }
        }
    }
}

/// Parses and answers one complete frame; returns `false` when the
/// connection should close (wire shutdown).
fn handle_frame(state: &Arc<ServerState>, writer: &mut TcpStream, text: &str) -> io::Result<bool> {
    match parse_frame(text) {
        Err(error) => {
            state.bump(Stat::Errors);
            respond_error(writer, None, &error)?;
        }
        Ok(Frame::Stats { id }) => {
            let started = Instant::now();
            let (stats, cached) = {
                let lru = state.lru.lock().expect("lru lock");
                (lru.stats(), lru.len())
            };
            let mut out = String::from("{\"v\":1,");
            push_id(&mut out, id);
            write_stats(&mut out, state, cached, stats);
            writeln_frame(writer, out)?;
            obs::FRAME_NS_STATS.observe_since(started);
        }
        Ok(Frame::Metrics { id }) => {
            let started = Instant::now();
            let mut out = String::from("{\"v\":1,");
            push_id(&mut out, id);
            out.push_str("\"ok\":true,\"metrics\":");
            out.push_str(&state.metrics().to_json());
            out.push('}');
            writeln_frame(writer, out)?;
            obs::FRAME_NS_METRICS.observe_since(started);
        }
        Ok(Frame::Shutdown { id }) => {
            let mut out = String::from("{\"v\":1,");
            push_id(&mut out, id);
            out.push_str("\"ok\":true,\"shutdown\":true}");
            writeln_frame(writer, out)?;
            state.stop.store(true, Ordering::SeqCst);
            return Ok(false);
        }
        Ok(Frame::Analyze {
            id,
            task_set,
            request,
        }) => {
            state.bump(Stat::Requests);
            if let Some(delay) = state.inject_delay() {
                thread::sleep(delay);
            }
            let started = Instant::now();
            if state.active.current() >= state.options.shed_watermark {
                // Degraded mode: answer from recorded facts only — never
                // start a cold analysis while the pool is under pressure.
                let cached = state
                    .lru
                    .lock()
                    .expect("lru lock")
                    .fetch_facts(&task_set, &request);
                match cached {
                    Some(outcome) => {
                        let micros = started.elapsed().as_micros();
                        respond_outcome(writer, id, CacheOutcome::Hit, micros, &outcome)?;
                    }
                    None => {
                        state.bump(Stat::Shed);
                        respond_error(writer, id, &WireError::overloaded())?;
                    }
                }
                obs::FRAME_NS_ANALYZE.observe_since(started);
                return Ok(true);
            }
            // Hold the cache lock only for the O(lookup) parts; the
            // analysis itself runs unlocked so connections that miss
            // do not serialize behind each other.
            let fetched = state
                .lru
                .lock()
                .expect("lru lock")
                .fetch(&task_set, &request);
            let (outcome, status) = match fetched {
                (Some(outcome), status) => (outcome, status),
                (None, status) => {
                    let outcome = request.evaluate(&task_set);
                    state
                        .lru
                        .lock()
                        .expect("lru lock")
                        .store(&task_set, &request, &outcome);
                    (outcome, status)
                }
            };
            let elapsed = started.elapsed();
            if elapsed > state.options.frame_timeout {
                state.bump(Stat::Overruns);
            }
            obs::FRAME_NS_ANALYZE.observe(elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
            respond_outcome(writer, id, status, elapsed.as_micros(), &outcome)?;
        }
        Ok(Frame::Simulate {
            id,
            task_set,
            request,
        }) => {
            state.bump(Stat::SimRequests);
            if let Some(delay) = state.inject_delay() {
                thread::sleep(delay);
            }
            // Simulations are never cached (the state space is seeded and
            // horizon-shaped, so hits would be coincidental), so under
            // pressure there is no degraded answer to give: shed outright.
            if state.active.current() >= state.options.shed_watermark {
                state.bump(Stat::Shed);
                respond_error(writer, id, &WireError::overloaded())?;
                return Ok(true);
            }
            let started = Instant::now();
            let outcome = request.evaluate(&task_set);
            let elapsed = started.elapsed();
            if elapsed > state.options.frame_timeout {
                state.bump(Stat::Overruns);
            }
            obs::FRAME_NS_SIMULATE.observe(elapsed.as_nanos().min(u128::from(u64::MAX)) as u64);
            respond_sim(writer, id, elapsed.as_micros(), &outcome)?;
        }
    }
    Ok(true)
}

/// Reads one newline-terminated frame into `line` under the idle/frame
/// budgets, rechecking the stop flag every tick.
fn read_frame(
    state: &ServerState,
    reader: &mut BufReader<TcpStream>,
    line: &mut Vec<u8>,
) -> io::Result<FrameRead> {
    line.clear();
    let max_frame = state.options.max_frame;
    let idle_deadline = Instant::now() + state.options.idle_timeout;
    let mut frame_deadline: Option<Instant> = None;
    loop {
        if state.stopping() {
            return Ok(FrameRead::Stopped);
        }
        let deadline = frame_deadline.unwrap_or(idle_deadline);
        let now = Instant::now();
        if now >= deadline {
            return Ok(if line.is_empty() {
                FrameRead::IdleTimeout
            } else {
                FrameRead::Stalled
            });
        }
        let wait = (deadline - now).min(STOP_TICK).max(MIN_SOCKET_TIMEOUT);
        reader.get_ref().set_read_timeout(Some(wait))?;
        let cap = (max_frame - line.len()) as u64;
        match (&mut *reader).take(cap).read_until(b'\n', line) {
            Ok(0) if line.is_empty() => return Ok(FrameRead::Closed),
            // `Ok` without a newline means the cap was exhausted or the
            // client closed mid-frame.
            Ok(_) if line.last() == Some(&b'\n') => return Ok(FrameRead::Frame),
            Ok(_) => {
                return Ok(if line.len() >= max_frame {
                    FrameRead::Oversized
                } else {
                    FrameRead::Closed
                });
            }
            Err(e) if is_timeout(&e) => {
                // Partial bytes read before the tick expired stay in
                // `line`; the first of them starts the frame budget.
                if !line.is_empty() && frame_deadline.is_none() {
                    frame_deadline = Some(Instant::now() + state.options.frame_timeout);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Discards input up to and including the next newline, under the frame
/// budget. Returns `false` when the connection should close (EOF, stop,
/// or a stalled oversized frame).
fn drain_to_newline(state: &ServerState, reader: &mut BufReader<TcpStream>) -> io::Result<bool> {
    let deadline = Instant::now() + state.options.frame_timeout;
    let mut chunk = Vec::with_capacity(4096);
    loop {
        if state.stopping() {
            return Ok(false);
        }
        let now = Instant::now();
        if now >= deadline {
            state.bump(Stat::Timeouts);
            return Ok(false);
        }
        let wait = (deadline - now).min(STOP_TICK).max(MIN_SOCKET_TIMEOUT);
        reader.get_ref().set_read_timeout(Some(wait))?;
        chunk.clear();
        match (&mut *reader).take(4096).read_until(b'\n', &mut chunk) {
            Ok(0) => return Ok(false),
            Ok(_) if chunk.last() == Some(&b'\n') => return Ok(true),
            Ok(_) => {}
            Err(e) if is_timeout(&e) => {}
            Err(e) => return Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Request parsing
// ---------------------------------------------------------------------------

fn method_from_label(label: &str) -> Option<Method> {
    Method::ALL.into_iter().find(|m| m.label() == label)
}

/// Decodes one request frame in a single pass over its bytes: a
/// [`json::Reader`] walks the envelope's members and hands each embedded
/// task set to [`json::Reader::task_set`], which builds it straight into
/// the model. The answer is the one the `Value`-tree reference
/// (`reference::parse_frame`) gives, errors included: a syntax error
/// anywhere in the frame wins, and the members are checked in the order
/// [`Envelope::frame`] lists, whatever the document's.
fn parse_frame(text: &str) -> Result<Frame, WireError> {
    let mut reader = json::Reader::new(text);
    let frame = decode_envelope(&mut reader)?;
    reader.finish()?;
    frame
}

/// A request envelope's members, as read (the last of duplicates wins).
#[derive(Default)]
struct Envelope {
    v: Option<Value>,
    id: Option<Value>,
    stats: Option<Value>,
    metrics: Option<Value>,
    shutdown: Option<Value>,
    simulate: Option<Result<(TaskSet, SimRequest), WireError>>,
    cores: Option<Value>,
    methods: Option<Value>,
    bounds: Option<Value>,
    task_set: Option<Decoded<TaskSet>>,
}

/// Reads a frame's envelope. The outer `Result` carries syntax errors, the
/// inner one everything else, which waits for the frame to end.
fn decode_envelope(reader: &mut json::Reader<'_>) -> Result<Result<Frame, WireError>, JsonError> {
    if reader.peek() != Some(b'{') {
        reader.value()?;
        return Ok(Err(WireError::protocol("a request must be a JSON object")));
    }
    let mut envelope = Envelope::default();
    if reader.begin_object()? {
        loop {
            match &*reader.key()? {
                "v" => envelope.v = Some(reader.value()?),
                "id" => envelope.id = Some(reader.value()?),
                "stats" => envelope.stats = Some(reader.value()?),
                "metrics" => envelope.metrics = Some(reader.value()?),
                "shutdown" => envelope.shutdown = Some(reader.value()?),
                "simulate" => envelope.simulate = Some(decode_simulate(reader)?),
                "cores" => envelope.cores = Some(reader.value()?),
                "methods" => envelope.methods = Some(reader.value()?),
                "bounds" => envelope.bounds = Some(reader.value()?),
                "task_set" => envelope.task_set = Some(reader.task_set()?),
                _ => drop(reader.value()?),
            }
            if !reader.next_member()? {
                break;
            }
        }
    }
    Ok(envelope.frame())
}

impl Envelope {
    /// The frame the members ask for. `"stats":true` makes a stats frame
    /// whatever else the envelope holds, then `metrics`, `shutdown` and
    /// `simulate`; only then is it an analyze frame.
    fn frame(self) -> Result<Frame, WireError> {
        check_envelope_version(self.v.as_ref())?;
        let id = parse_id(self.id.as_ref())?;
        if is_true(self.stats.as_ref()) {
            return Ok(Frame::Stats { id });
        }
        if is_true(self.metrics.as_ref()) {
            return Ok(Frame::Metrics { id });
        }
        if is_true(self.shutdown.as_ref()) {
            return Ok(Frame::Shutdown { id });
        }
        if let Some(simulate) = self.simulate {
            let (task_set, request) = simulate?;
            return Ok(Frame::Simulate {
                id,
                task_set,
                request,
            });
        }
        let cores = parse_cores(self.cores.as_ref())?;
        let methods = parse_methods(self.methods.as_ref())?;
        let want_bounds = parse_bounds(self.bounds.as_ref())?;
        let task_set = self
            .task_set
            .ok_or_else(|| WireError::protocol("request is missing \"task_set\""))??;
        Ok(Frame::Analyze {
            id,
            task_set,
            request: AnalysisRequest::new(cores)
                .with_methods(methods)
                .with_bounds(want_bounds),
        })
    }
}

/// A `"simulate"` object's members, as read.
#[derive(Default)]
struct SimulateMembers {
    cores: Option<Value>,
    horizon: Option<Value>,
    policy: Option<Value>,
    release: Option<Value>,
    seed: Option<Value>,
    task_set: Option<Decoded<TaskSet>>,
}

/// Reads the `"simulate"` member of a frame (syntax errors in the outer
/// `Result`, as for [`decode_envelope`]).
fn decode_simulate(
    reader: &mut json::Reader<'_>,
) -> Result<Result<(TaskSet, SimRequest), WireError>, JsonError> {
    if reader.peek() != Some(b'{') {
        reader.value()?;
        return Ok(Err(WireError::protocol(
            "\"simulate\" must be a JSON object",
        )));
    }
    let mut members = SimulateMembers::default();
    if reader.begin_object()? {
        loop {
            match &*reader.key()? {
                "cores" => members.cores = Some(reader.value()?),
                "horizon" => members.horizon = Some(reader.value()?),
                "policy" => members.policy = Some(reader.value()?),
                "release" => members.release = Some(reader.value()?),
                "seed" => members.seed = Some(reader.value()?),
                "task_set" => members.task_set = Some(reader.task_set()?),
                _ => drop(reader.value()?),
            }
            if !reader.next_member()? {
                break;
            }
        }
    }
    Ok(members.request())
}

impl SimulateMembers {
    /// The simulation the members ask for, checked in field order.
    fn request(self) -> Result<(TaskSet, SimRequest), WireError> {
        let cores = parse_cores(self.cores.as_ref())?;
        let horizon = parse_horizon(self.horizon.as_ref())?;
        let policy = parse_policy(self.policy.as_ref())?;
        let release = parse_release(self.release.as_ref())?;
        let seed = parse_seed(self.seed.as_ref())?;
        let task_set = self
            .task_set
            .ok_or_else(|| WireError::protocol("\"simulate\" is missing \"task_set\""))??;
        Ok((task_set, sim_request(cores, horizon, policy, release, seed)))
    }
}

// One check per envelope or `"simulate"` member, shared by the decoder and
// its reference.

fn check_envelope_version(v: Option<&Value>) -> Result<(), WireError> {
    match v {
        None => Ok(()),
        Some(v) if v.as_u64() == Some(1) => Ok(()),
        Some(other) => Err(WireError::protocol(format!(
            "unsupported envelope version {other:?} (this server speaks v=1)"
        ))),
    }
}

fn parse_id(id: Option<&Value>) -> Result<Option<u64>, WireError> {
    id.map(|v| {
        v.as_u64()
            .ok_or_else(|| WireError::protocol("\"id\" must be a non-negative integer"))
    })
    .transpose()
}

/// A special-frame flag: only `true` counts; any other value is ignored.
fn is_true(flag: Option<&Value>) -> bool {
    flag.and_then(Value::as_bool) == Some(true)
}

/// Validates the `cores` field of an analyze frame or a `simulate`
/// object (shared bounds: a core count is a platform description, not an
/// allocation license).
fn parse_cores(cores: Option<&Value>) -> Result<usize, WireError> {
    let cores = cores
        .ok_or_else(|| WireError::protocol("request is missing \"cores\""))?
        .as_u64()
        .ok_or_else(|| WireError::protocol("\"cores\" must be a non-negative integer"))?;
    if cores == 0 || cores as usize > MAX_CORES {
        return Err(WireError::protocol(format!(
            "\"cores\" must be in 1..={MAX_CORES}, got {cores}"
        )));
    }
    Ok(cores as usize)
}

fn parse_methods(methods: Option<&Value>) -> Result<Vec<Method>, WireError> {
    let Some(methods) = methods else {
        return Ok(Method::ALL.to_vec());
    };
    methods
        .as_array()
        .ok_or_else(|| WireError::protocol("\"methods\" must be an array of labels"))?
        .iter()
        .map(|item| {
            item.as_str().and_then(method_from_label).ok_or_else(|| {
                WireError::protocol(format!(
                    "unknown method {item:?}; expected one of \
                     \"FP-ideal\", \"LP-ILP\", \"LP-max\", \"LP-sound\", \
                     \"Long-paths\", \"Gen-sporadic\""
                ))
            })
        })
        .collect()
}

fn parse_bounds(bounds: Option<&Value>) -> Result<bool, WireError> {
    bounds.map_or(Ok(false), |v| {
        v.as_bool()
            .ok_or_else(|| WireError::protocol("\"bounds\" must be a boolean"))
    })
}

fn parse_horizon(horizon: Option<&Value>) -> Result<Time, WireError> {
    let horizon = horizon
        .ok_or_else(|| WireError::protocol("\"simulate\" is missing \"horizon\""))?
        .as_u64()
        .ok_or_else(|| WireError::protocol("\"horizon\" must be a non-negative integer"))?;
    if horizon == 0 || horizon > MAX_SIM_HORIZON {
        return Err(WireError::protocol(format!(
            "\"horizon\" must be in 1..={MAX_SIM_HORIZON}, got {horizon} \
             (the horizon is capped server-side)"
        )));
    }
    Ok(horizon)
}

fn parse_policy(policy: Option<&Value>) -> Result<PreemptionPolicy, WireError> {
    let Some(v) = policy else {
        return Ok(PreemptionPolicy::LimitedPreemptive);
    };
    match v.as_str() {
        Some("eager") => Ok(PreemptionPolicy::LimitedPreemptive),
        Some("lazy") => Ok(PreemptionPolicy::LazyPreemptive),
        Some("full") => Ok(PreemptionPolicy::FullyPreemptive),
        _ => Err(WireError::protocol(format!(
            "unknown policy {v:?}; expected \"eager\", \"lazy\" or \"full\""
        ))),
    }
}

fn parse_release(release: Option<&Value>) -> Result<ReleaseChoice, WireError> {
    let Some(v) = release else {
        return Ok(ReleaseChoice::Sync);
    };
    v.as_str()
        .and_then(ReleaseChoice::from_flag)
        .ok_or_else(|| {
            WireError::protocol(format!(
                "unknown release {v:?}; expected \"sync\", \"jitter\" or \"sporadic\""
            ))
        })
}

fn parse_seed(seed: Option<&Value>) -> Result<u64, WireError> {
    seed.map_or(Ok(0), |v| {
        v.as_u64()
            .ok_or_else(|| WireError::protocol("\"seed\" must be a non-negative integer"))
    })
}

/// The [`SimRequest`] of a simulate frame (never with tracing: traces are
/// bounded but large, and no client needs them over the wire).
fn sim_request(
    cores: usize,
    horizon: Time,
    policy: PreemptionPolicy,
    release: ReleaseChoice,
    seed: u64,
) -> SimRequest {
    SimRequest::new(cores, horizon)
        .with_policy(policy)
        .with_release(release.release())
        .with_seed(seed)
}

/// The `Value`-tree frame parser the one-pass decoder replaced, kept as the
/// decoder's test reference: parse the whole frame into a tree, then pick
/// the members off it.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn parse_frame(text: &str) -> Result<Frame, WireError> {
        let doc = json::parse(text)?;
        let Value::Object(_) = &doc else {
            return Err(WireError::protocol("a request must be a JSON object"));
        };
        check_envelope_version(doc.get("v"))?;
        let id = parse_id(doc.get("id"))?;
        if is_true(doc.get("stats")) {
            return Ok(Frame::Stats { id });
        }
        if is_true(doc.get("metrics")) {
            return Ok(Frame::Metrics { id });
        }
        if is_true(doc.get("shutdown")) {
            return Ok(Frame::Shutdown { id });
        }
        if let Some(sim) = doc.get("simulate") {
            return parse_simulate(id, sim);
        }
        let cores = parse_cores(doc.get("cores"))?;
        let methods = parse_methods(doc.get("methods"))?;
        let want_bounds = parse_bounds(doc.get("bounds"))?;
        let task_set = json::task_set_from_value(
            doc.get("task_set")
                .ok_or_else(|| WireError::protocol("request is missing \"task_set\""))?,
        )?;
        let request = AnalysisRequest::new(cores)
            .with_methods(methods)
            .with_bounds(want_bounds);
        Ok(Frame::Analyze {
            id,
            task_set,
            request,
        })
    }

    fn parse_simulate(id: Option<u64>, sim: &Value) -> Result<Frame, WireError> {
        let Value::Object(_) = sim else {
            return Err(WireError::protocol("\"simulate\" must be a JSON object"));
        };
        let cores = parse_cores(sim.get("cores"))?;
        let horizon = parse_horizon(sim.get("horizon"))?;
        let policy = parse_policy(sim.get("policy"))?;
        let release = parse_release(sim.get("release"))?;
        let seed = parse_seed(sim.get("seed"))?;
        let task_set = json::task_set_from_value(
            sim.get("task_set")
                .ok_or_else(|| WireError::protocol("\"simulate\" is missing \"task_set\""))?,
        )?;
        Ok(Frame::Simulate {
            id,
            task_set,
            request: sim_request(cores, horizon, policy, release, seed),
        })
    }
}

// ---------------------------------------------------------------------------
// Response rendering
// ---------------------------------------------------------------------------

fn push_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_id(out: &mut String, id: Option<u64>) {
    if let Some(id) = id {
        use std::fmt::Write as _;
        let _ = write!(out, "\"id\":{id},");
    }
}

fn writeln_frame(writer: &mut impl Write, mut frame: String) -> io::Result<()> {
    frame.push('\n');
    writer.write_all(frame.as_bytes())?;
    writer.flush()
}

fn respond_error(writer: &mut impl Write, id: Option<u64>, error: &WireError) -> io::Result<()> {
    let mut out = String::from("{\"v\":1,");
    push_id(&mut out, id);
    out.push_str("\"ok\":false,\"error\":{\"kind\":\"");
    out.push_str(error.kind);
    out.push_str("\",\"message\":");
    push_escaped(&mut out, &error.message);
    out.push_str("}}");
    writeln_frame(writer, out)
}

/// The compact JSON array of per-method verdicts exactly as the wire
/// carries it — public so tests can pin server responses byte-identical
/// to the library path.
pub fn verdicts_json(outcome: &rta_analysis::AnalysisOutcome) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("[");
    for (i, answer) in outcome.outcomes().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"method\":\"{}\",\"schedulable\":{}",
            answer.method.label(),
            answer.schedulable
        );
        if let Some(bounds) = &answer.bounds {
            out.push_str(",\"bounds\":[");
            for (j, bound) in bounds.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}", bound.ceil());
            }
            out.push(']');
        }
        out.push('}');
    }
    out.push(']');
    out
}

fn respond_outcome(
    writer: &mut impl Write,
    id: Option<u64>,
    status: CacheOutcome,
    micros: u128,
    outcome: &rta_analysis::AnalysisOutcome,
) -> io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::from("{\"v\":1,");
    push_id(&mut out, id);
    let _ = write!(
        out,
        "\"ok\":true,\"cache\":\"{}\",\"micros\":{micros},\"verdicts\":{}}}",
        status.label(),
        verdicts_json(outcome)
    );
    writeln_frame(writer, out)
}

/// The compact JSON object of simulation results exactly as the wire
/// carries it — public so tests can pin server responses to the library
/// path.
pub fn sim_json(outcome: &SimOutcome) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("{");
    let _ = write!(
        out,
        "\"makespan\":{},\"deadline_misses\":{},\"events\":{},\
         \"deferred_preemptions\":{},\"peak_live_jobs\":{},\
         \"trace_dropped\":{},\"max_responses\":[",
        outcome.makespan(),
        outcome.total_deadline_misses(),
        outcome.events_processed(),
        outcome.deferred_preemptions(),
        outcome.peak_live_jobs(),
        outcome.trace_dropped(),
    );
    for (i, stats) in outcome.per_task().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", stats.max_response);
    }
    out.push_str("]}");
    out
}

fn respond_sim(
    writer: &mut impl Write,
    id: Option<u64>,
    micros: u128,
    outcome: &SimOutcome,
) -> io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::from("{\"v\":1,");
    push_id(&mut out, id);
    let _ = write!(
        out,
        "\"ok\":true,\"micros\":{micros},\"sim\":{}",
        sim_json(outcome)
    );
    out.push('}');
    writeln_frame(writer, out)
}

fn write_stats(
    out: &mut String,
    state: &ServerState,
    cached_sets: usize,
    lru: rta_analysis::LruStats,
) {
    use std::fmt::Write as _;
    let stat = |stat: Stat| (Stat::NAMES[stat as usize], state.count(stat));
    let fields = [
        stat(Stat::Requests),
        stat(Stat::SimRequests),
        stat(Stat::Errors),
        ("active_conns", state.active.current() as u64),
        stat(Stat::Shed),
        stat(Stat::Timeouts),
        stat(Stat::Overruns),
        stat(Stat::Drained),
        stat(Stat::AcceptErrors),
        stat(Stat::InjectedDrops),
        stat(Stat::InjectedDelays),
        ("cached_sets", cached_sets as u64),
        ("hits", lru.hits),
        ("near_hits", lru.near_hits),
        ("misses", lru.misses),
        ("evictions", lru.evictions),
    ];
    out.push_str("\"ok\":true,\"stats\":{");
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{key}\":{value}");
    }
    out.push_str("}}");
}

/// Seeded JSON noise, shared with the model crate's decoder test.
#[cfg(test)]
#[path = "../../model/tests/noise/mod.rs"]
mod noise;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rta_model::json::{task_set_to_json, task_set_to_json_compact};
    use rta_taskgen::{generate_task_set, group1, group2};

    #[test]
    fn method_labels_round_trip() {
        for method in Method::ALL {
            assert_eq!(method_from_label(method.label()), Some(method));
        }
        assert_eq!(method_from_label("FP-Ideal"), None);
    }

    #[test]
    fn frame_parsing_defaults_and_errors() {
        let ok = parse_frame(
            r#"{"cores":4,"task_set":{"tasks":[{"period":9,"deadline":9,"dag":{"wcets":[1],"edges":[]}}]}}"#,
        );
        let Ok(Frame::Analyze {
            id,
            request,
            task_set,
        }) = ok
        else {
            panic!("expected an analyze frame");
        };
        assert_eq!(id, None);
        assert_eq!(request.methods, Method::ALL.to_vec());
        assert!(!request.want_bounds);
        assert_eq!(task_set.len(), 1);
        for (text, kind) in [
            (r#"{"task_set":{"tasks":[]}}"#, "protocol"), // no cores
            (r#"{"cores":0,"task_set":{"tasks":[]}}"#, "protocol"),
            (r#"{"cores":4,"v":2,"task_set":{"tasks":[]}}"#, "protocol"),
            (
                r#"{"cores":4,"methods":["fp"],"task_set":{"tasks":[]}}"#,
                "protocol",
            ),
            (r#"{"cores":4}"#, "protocol"), // no task_set
            (
                r#"{"cores":4,"task_set":{"version":9,"tasks":[]}}"#,
                "version",
            ),
            (r#"{"cores":4,"task_set":{"tasks":"#, "syntax"),
        ] {
            let err = parse_frame(text).expect_err(text);
            assert_eq!(err.kind, kind, "{text}: {}", err.message);
        }
    }

    #[test]
    fn simulate_frame_parsing_defaults_and_errors() {
        const SET: &str = r#"{"tasks":[{"period":9,"deadline":9,"dag":{"wcets":[1],"edges":[]}}]}"#;
        let ok = parse_frame(&format!(
            r#"{{"v":1,"id":9,"simulate":{{"cores":4,"horizon":20000,"task_set":{SET}}}}}"#
        ));
        let Ok(Frame::Simulate {
            id,
            request,
            task_set,
        }) = ok
        else {
            panic!("expected a simulate frame");
        };
        assert_eq!(id, Some(9));
        assert_eq!(task_set.len(), 1);
        // Defaults: the paper's eager policy, synchronous release, seed 0.
        let reference = SimRequest::new(4, 20_000);
        assert_eq!(request, reference);
        // Explicit knobs land in the request.
        let Ok(Frame::Simulate { request, .. }) = parse_frame(&format!(
            r#"{{"simulate":{{"cores":2,"horizon":500,"policy":"lazy","release":"sporadic","seed":7,"task_set":{SET}}}}}"#
        )) else {
            panic!("expected a simulate frame");
        };
        assert_eq!(
            request,
            SimRequest::new(2, 500)
                .with_policy(PreemptionPolicy::LazyPreemptive)
                .with_release(ReleaseChoice::Sporadic.release())
                .with_seed(7)
        );
        let bad = [
            r#"{"simulate":true}"#.to_string(),
            format!(r#"{{"simulate":{{"horizon":10,"task_set":{SET}}}}}"#), // no cores
            format!(r#"{{"simulate":{{"cores":4,"task_set":{SET}}}}}"#),    // no horizon
            format!(r#"{{"simulate":{{"cores":4,"horizon":0,"task_set":{SET}}}}}"#),
            // Above MAX_SIM_HORIZON: the horizon is capped server-side.
            format!(r#"{{"simulate":{{"cores":4,"horizon":10000001,"task_set":{SET}}}}}"#),
            format!(r#"{{"simulate":{{"cores":4,"horizon":10,"policy":"np","task_set":{SET}}}}}"#),
            format!(
                r#"{{"simulate":{{"cores":4,"horizon":10,"release":"burst","task_set":{SET}}}}}"#
            ),
            format!(
                r#"{{"simulate":{{"cores":4,"horizon":10,"release":"bursty","task_set":{SET}}}}}"#
            ),
            r#"{"simulate":{"cores":4,"horizon":10}}"#.to_string(), // no task_set
            format!(r#"{{"simulate":{{"cores":4,"horizon":10,"task_set":{SET}}},"v":3}}"#),
        ];
        for text in &bad {
            let err = parse_frame(text).expect_err(text);
            assert_eq!(err.kind, "protocol", "{text}: {}", err.message);
        }
    }

    /// One member value, drawn from `options` (JSON texts).
    fn pick<'a>(rng: &mut SmallRng, options: &[&'a str]) -> &'a str {
        options[rng.gen_range(0..options.len())]
    }

    fn coin(rng: &mut SmallRng) -> bool {
        rng.gen_range(0..2u32) == 0
    }

    /// A frame of one of the five kinds, as a client writes it: the embedded
    /// task set is a generated group-1 or group-2 set as the compact or the
    /// pretty writer renders it, the other members are drawn at random,
    /// some out of range or of the wrong type.
    fn frame_text(rng: &mut SmallRng, max_utilization: f64) -> String {
        let utilization = rng.gen_range(1.0..max_utilization);
        let config = if coin(rng) {
            group1(utilization)
        } else {
            group2(utilization)
        };
        let task_set: TaskSet = generate_task_set(rng, &config)
            .into_iter()
            .enumerate()
            .map(|(i, task)| {
                if i % 2 == 0 {
                    task.named(format!("τ{i}"))
                } else {
                    task
                }
            })
            .collect();
        let set = if coin(rng) {
            task_set_to_json_compact(&task_set)
        } else {
            task_set_to_json(&task_set)
        };
        let cores = ["4", "4", "1", "16", "0", "1025", "\"4\""];
        let mut members = Vec::new();
        if coin(rng) {
            members.push(format!("\"v\":{}", pick(rng, &["1", "1", "2", "1.0"])));
        }
        if coin(rng) {
            members.push(format!("\"id\":{}", pick(rng, &["7", "0", "-7", "null"])));
        }
        match rng.gen_range(0..5u32) {
            kind @ 0..=2 => {
                let flag = ["stats", "metrics", "shutdown"][kind as usize];
                members.push(format!(
                    "\"{flag}\":{}",
                    pick(rng, &["true", "true", "false", "1"])
                ));
                if coin(rng) {
                    members.push(format!("\"cores\":4,\"task_set\":{set}"));
                }
            }
            3 => {
                let mut sim = vec![
                    format!("\"cores\":{}", pick(rng, &cores)),
                    format!(
                        "\"horizon\":{}",
                        pick(rng, &["20000", "500", "0", "10000001"])
                    ),
                ];
                if coin(rng) {
                    sim.push(format!(
                        "\"policy\":{}",
                        pick(rng, &["\"eager\"", "\"lazy\"", "\"full\"", "\"np\""])
                    ));
                }
                if coin(rng) {
                    sim.push(format!(
                        "\"release\":{}",
                        pick(rng, &["\"sync\"", "\"jitter\"", "\"sporadic\"", "3"])
                    ));
                }
                if coin(rng) {
                    sim.push(format!("\"seed\":{}", pick(rng, &["7", "0", "true"])));
                }
                sim.push(format!("\"task_set\":{set}"));
                members.push(format!("\"simulate\":{{{}}}", sim.join(",")));
            }
            _ => {
                members.push(format!("\"cores\":{}", pick(rng, &cores)));
                if coin(rng) {
                    members.push(format!(
                        "\"methods\":{}",
                        pick(
                            rng,
                            &[
                                "[\"FP-ideal\",\"LP-sound\"]",
                                "[]",
                                "[\"fp\"]",
                                "\"LP-ILP\""
                            ]
                        )
                    ));
                }
                if coin(rng) {
                    members.push(format!("\"bounds\":{}", pick(rng, &["true", "false", "1"])));
                }
                members.push(format!("\"task_set\":{set}"));
            }
        }
        format!("{{{}}}", members.join(","))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn one_pass_decoder_matches_the_value_tree_reference(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let text = frame_text(&mut rng, 8.0);
            let tree = json::parse(&text).expect("generated frames are well-formed");
            let rate = rng.gen_range(0..30u32);
            let noisy = noise::render(&tree, rate, &mut rng);
            let texts = [
                noise::damage(&text, &mut rng),
                noise::damage(&noisy, &mut rng),
                noisy,
                text,
            ];
            for text in &texts {
                prop_assert_eq!(parse_frame(text), reference::parse_frame(text), "{}", text);
            }
        }

        #[test]
        fn arbitrary_bytes_never_panic_and_accepted_frames_round_trip(seed in any::<u64>()) {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut bytes: Vec<u8> = if coin(&mut rng) {
                (0..rng.gen_range(0..=4096usize)).map(|_| rng.gen_range(0..=255u8)).collect()
            } else {
                let frame = frame_text(&mut rng, 3.0);
                noise::damage(&frame, &mut rng).into_bytes()
            };
            bytes.truncate(4096);
            // As `serve_connection` reads a frame.
            let text = String::from_utf8_lossy(&bytes);
            let _ = json::parse(&text);
            if let Ok(Frame::Analyze { task_set, .. } | Frame::Simulate { task_set, .. }) =
                parse_frame(&text)
            {
                let back = json::task_set_from_json(&task_set_to_json_compact(&task_set));
                prop_assert_eq!(
                    back.as_ref().map(TaskSet::stable_hash),
                    Ok(task_set.stable_hash())
                );
                prop_assert_eq!(back, Ok(task_set));
            }
        }
    }

    #[test]
    fn sim_json_reports_the_library_outcome() {
        use rta_model::{DagBuilder, DagTask};
        let mut b = DagBuilder::new();
        b.add_node(2);
        let task = DagTask::with_implicit_deadline(b.build().unwrap(), 10).unwrap();
        let ts = TaskSet::new(vec![task]);
        let outcome = SimRequest::new(1, 20).evaluate(&ts);
        let json = sim_json(&outcome);
        assert!(json.contains("\"makespan\":12"), "{json}");
        assert!(json.contains("\"deadline_misses\":0"), "{json}");
        assert!(json.contains("\"max_responses\":[2]"), "{json}");
        assert!(json.contains("\"peak_live_jobs\":"), "{json}");
        // Wire runs never record a trace, so the dropped counter is 0 —
        // but it must be *present*, not silently omitted (the satellite
        // bug this pins: the field used to be swallowed entirely).
        assert!(json.contains("\"trace_dropped\":0"), "{json}");
        // A traced run that overflows the bounded capacity reports its
        // nonzero drop count through the same JSON path.
        let traced = SimRequest::new(1, 2_000_000).with_trace(true).evaluate(&ts);
        if traced.trace_dropped() > 0 {
            let json = sim_json(&traced);
            assert!(
                json.contains(&format!("\"trace_dropped\":{}", traced.trace_dropped())),
                "{json}"
            );
        }
    }

    #[test]
    fn default_watermark_sits_below_the_pool_bound() {
        let options = ServeOptions::default();
        assert!(options.shed_watermark < options.max_conns);
        assert!(options.shed_watermark > 0);
    }
}
