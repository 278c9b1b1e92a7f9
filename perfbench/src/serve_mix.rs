//! The `serve-mix` workload: admission-control traffic against the
//! program's own server (`serve::spawn`) on a loopback port.
//!
//! The mix is `repro loadgen`'s default one (80% of frames repeat one of 16
//! pooled sets, the rest carry fresh sets) plus the two legs that mix
//! leaves off: simulate frames and analyze frames asking for per-task
//! bounds. Their shares ([`SIMULATE_PCT`], [`BOUNDS_PCT`]) are assumptions;
//! no recorded traffic gives them. Pooled and fresh sets range over the
//! utilizations 1..m, so some are FP-rejected and some fall in the LP-ILP
//! band.
//!
//! Frames are rendered, and the answers they must get computed through the
//! library path (`serve::verdicts_json`, `serve::sim_json`), one group of
//! at most [`GROUP`] at a time before the group runs, so the client does no
//! JSON or analysis work on the hot path; a group's frames and responses
//! are dropped once judged. An untraced run repeats a cycle of four
//! stretches, so each figure samples the whole run:
//!
//! * `light` and `heavy`: fixed-rate open loops. Each connection has one
//!   writer thread, which sends its frames at their due times (pipelined by
//!   `id`), and one reader thread. Latency runs from a frame's due time to
//!   its response, so a stall also counts against the frames queued behind
//!   it; a failed, refused or wrong response counts as the full response
//!   timeout.
//! * `capacity`: a closed loop that keeps [`DEPTH`] frames in flight on
//!   every connection; the fast end (`report::fast_end`) of its windows'
//!   frames answered per second is `sets_per_s`.
//! * `ladder`: open-loop trials stepping down the fixed rate ladder from
//!   the cycle's capacity; the first that qualifies ends the search, and
//!   the fast end of the searches is `max_rps`.
//!
//! The traced run times the layers of the wire path by replaying each
//! group's frames, once answered, through the public functions the server
//! calls for them (`json::parse`, `task_set_from_value`, `stable_hash`, a
//! mirror `AnalysisLru` fed the same stream, the analysis, the simulator,
//! the renderers) and attributes the rest of each round trip to the socket.

use crate::report::{self, grouped_p50_p99, Counts, Report, SimTimes, GROUP};
use crate::spans::{Tracer, ROOT};
use crate::Args;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use rta_analysis::{AnalysisLru, AnalysisRequest, TaskSetCache};
use rta_experiments::campaign::{generate_on_worker, utilization_grid};
use rta_experiments::serve::{self, ServeOptions};
use rta_experiments::set_seed;
use rta_experiments::validate::ReleaseChoice;
use rta_model::json::{self, task_set_to_json_compact};
use rta_model::TaskSet;
use rta_sim::{PreemptionPolicy, SimRequest};
use rta_taskgen::group1;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// The platform every frame asks about.
const CORES: usize = 4;
/// Repeat-pool size and percent of frames that repeat a pooled set:
/// `repro loadgen`'s defaults (`pool_size`, `repeat_percent`).
const POOL: usize = 16;
const REPEAT_PCT: u32 = 80;
/// Percent of frames that are simulate frames (assumed).
const SIMULATE_PCT: u32 = 3;
/// Percent of analyze frames that ask for per-task bounds (assumed).
const BOUNDS_PCT: u32 = 20;
/// Horizon of every simulate frame, as `repro loadgen` sends it.
const SIM_HORIZON: u64 = 20_000;
/// The simulate frames' policies, by wire label.
const SIM_POLICIES: [(&str, PreemptionPolicy); 3] = [
    ("eager", PreemptionPolicy::LimitedPreemptive),
    ("lazy", PreemptionPolicy::LazyPreemptive),
    ("full", PreemptionPolicy::FullyPreemptive),
];
/// The fixed light and heavy offered rates, frames/s.
const LIGHT_RPS: f64 = 3000.0;
const HEAVY_RPS: f64 = 5000.0;
/// The fixed rate ladder `max_rps` is read on: [`LADDER_RUNGS`] rungs,
/// each [`LADDER_STEP`] times the one below, from [`LADDER_BASE`] frames/s
/// to far past the server's capacity. A step is much finer than the
/// metric's bound, so losing or gaining one rung of capacity shows.
const LADDER_BASE: f64 = 1000.0;
const LADDER_STEP: f64 = 1.02;
const LADDER_RUNGS: usize = 200;
/// A ladder rate qualifies when its p99 from due time stays within this…
const P99_LIMIT_US: f64 = 5000.0;
/// …the writers' p99 lateness within this, with no failures and no
/// growing backlog.
const LATE_LIMIT_US: f64 = 2000.0;
/// Frames each connection keeps in flight in the capacity window: enough
/// that the server always has a frame waiting, far less than the socket
/// buffers hold.
const DEPTH: usize = 16;
/// An untraced run is cut into cycles of about this many seconds, each
/// with its own stretch of every window and its own ladder search, so
/// every figure samples the whole run rather than one part of it: a small
/// shared host slows down for seconds at a time.
const CYCLE_SECONDS: f64 = 5.0;
/// Share of each cycle each of its two fixed-rate stretches and its
/// capacity stretch takes. The ladder trials after them are one group
/// each, and the first usually qualifies.
const WINDOW_SHARE: f64 = 0.3;
/// Share of `--seconds` the traced run's window takes.
const TRACED_SHARE: f64 = 0.4;
/// The replayed server-side spans must sum to the server's own `micros`
/// within this many percent.
const SERVER_TOLERANCE_PCT: f64 = 25.0;
/// A frame unanswered this long counts as failed, at this latency.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(10);
/// Outstanding frames a group may gain between its first and last quarter.
const BACKLOG_SLACK: f64 = 16.0;
/// Set-up probes run before each cycle.
const PROBES_PER_GAP: usize = 4;
/// Head start between opening the connections and the first due time.
const LEAD: Duration = Duration::from_millis(20);

/// What a frame asks for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    Repeat,
    Fresh,
    Simulate(PreemptionPolicy),
}

/// One pre-rendered frame and the body its response must carry.
struct Frame {
    id: u64,
    text: String,
    kind: Kind,
    bounds: bool,
    body: Arc<str>,
}

impl Frame {
    /// Whether `line` is this frame's correct response: its last field is
    /// the expected body.
    fn answered_by(&self, line: &str) -> bool {
        let key = match self.kind {
            Kind::Simulate(_) => "\"sim\":",
            _ => "\"verdicts\":",
        };
        body(line, key) == Some(&*self.body)
    }
}

/// One pooled set: its wire JSON and its reference answers.
struct Pooled {
    set: TaskSet,
    json: String,
    verdicts: Arc<str>,
    bounds: Arc<str>,
}

fn analyze_frame(id: u64, bounds: bool, task_set: &str) -> String {
    format!(
        "{{\"v\":1,\"id\":{id},\"cores\":{CORES},\"bounds\":{bounds},\"task_set\":{task_set}}}\n"
    )
}

fn simulate_frame(id: u64, policy: &str, task_set: &str) -> String {
    format!(
        "{{\"v\":1,\"id\":{id},\"simulate\":{{\"cores\":{CORES},\"horizon\":{SIM_HORIZON},\
         \"policy\":\"{policy}\",\"task_set\":{task_set}}}}}\n"
    )
}

/// The simulation a simulate frame asks for, as the server builds it.
fn sim_request(policy: PreemptionPolicy) -> SimRequest {
    SimRequest::new(CORES, SIM_HORIZON)
        .with_policy(policy)
        .with_release(ReleaseChoice::Sync.release())
        .with_seed(0)
}

/// The library-path answer to an analyze frame.
fn reference(ts: &TaskSet, bounds: bool) -> Arc<str> {
    serve::verdicts_json(&AnalysisRequest::new(CORES).with_bounds(bounds).evaluate(ts)).into()
}

/// The library-path answer to a simulate frame.
fn sim_reference(ts: &TaskSet, policy: PreemptionPolicy) -> Arc<str> {
    serve::sim_json(&sim_request(policy).evaluate(ts)).into()
}

/// The repeat pool's sets, spread over the utilization grid 1..m.
fn pool_sets(seed: u64) -> Vec<TaskSet> {
    let grid = utilization_grid(CORES);
    (0..POOL)
        .map(|i| generate_on_worker(set_seed(seed, 0, i), &group1(grid[i % grid.len()])))
        .collect()
}

/// The LRU warm-up: one bounds frame per pooled set (recorded bounds also
/// answer verdict-only repeats), ids `0..POOL`.
fn warm_up_texts(pool_json: &[&str]) -> Vec<String> {
    pool_json
        .iter()
        .enumerate()
        .map(|(i, json)| analyze_frame(i as u64, true, json))
        .collect()
}

/// Sends frames one at a time over one connection and returns the
/// responses.
fn warm_up(addr: SocketAddr, texts: &[String]) -> Result<Vec<String>, String> {
    let io = |e: io::Error| format!("warming the server: {e}");
    let stream = TcpStream::connect(addr).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    stream
        .set_read_timeout(Some(RESPONSE_TIMEOUT))
        .map_err(io)?;
    let mut reader = BufReader::new(stream.try_clone().map_err(io)?);
    let mut writer = stream;
    let mut lines = Vec::with_capacity(texts.len());
    for text in texts {
        writer.write_all(text.as_bytes()).map_err(io)?;
        let mut line = String::new();
        reader.read_line(&mut line).map_err(io)?;
        lines.push(line);
    }
    Ok(lines)
}

/// The checked part of a response: the value of `key`, its last field.
fn body<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let start = line.find(key)? + key.len();
    let end = line.trim_end().len().checked_sub(1)?;
    line.get(start..end)
}

/// The unsigned integer after `key` in a response line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(key)? + key.len()..];
    let digits = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..digits].parse().ok()
}

/// The seeded frame source, numbered by a running id. Each frame draws in
/// `repro loadgen`'s order: simulate or analyze, then a pooled or a fresh
/// set, then (analyze frames) whether to ask for bounds.
struct Mix<'p> {
    pool: &'p [Pooled],
    /// Reference answers of simulate frames on pooled sets, by pool index
    /// and policy, computed on first use.
    pool_sims: Vec<[Option<Arc<str>>; 3]>,
    rng: SmallRng,
    seed: u64,
    grid: Vec<f64>,
    fresh: usize,
    next_id: u64,
    /// Time spent generating fresh sets, and how many.
    taskgen_ns: f64,
    generated: u64,
}

impl<'p> Mix<'p> {
    fn new(seed: u64, pool: &'p [Pooled]) -> Self {
        Self {
            pool,
            pool_sims: vec![Default::default(); pool.len()],
            rng: SmallRng::seed_from_u64(report::mix(seed ^ 0x005E_12E3)),
            seed,
            grid: utilization_grid(CORES),
            fresh: 0,
            next_id: POOL as u64,
            taskgen_ns: 0.0,
            generated: 0,
        }
    }

    fn frames(&mut self, n: usize) -> Vec<Frame> {
        (0..n).map(|_| self.frame()).collect()
    }

    fn frame(&mut self) -> Frame {
        let id = self.next_id;
        self.next_id += 1;
        let simulate = self.rng.gen_range(0..100u32) < SIMULATE_PCT;
        let pooled = (self.rng.gen_range(0..100u32) < REPEAT_PCT)
            .then(|| self.rng.gen_range(0..self.pool.len()));
        let pool = self.pool;
        if simulate {
            let p = self.rng.gen_range(0..SIM_POLICIES.len());
            let (label, policy) = SIM_POLICIES[p];
            let (text, body) = match pooled {
                Some(k) => {
                    let body = self.pool_sims[k][p]
                        .get_or_insert_with(|| sim_reference(&pool[k].set, policy));
                    (simulate_frame(id, label, &pool[k].json), Arc::clone(body))
                }
                None => {
                    let ts = self.fresh_set();
                    let text = simulate_frame(id, label, &task_set_to_json_compact(&ts));
                    (text, sim_reference(&ts, policy))
                }
            };
            return Frame {
                id,
                text,
                kind: Kind::Simulate(policy),
                bounds: false,
                body,
            };
        }
        let bounds = self.rng.gen_range(0..100u32) < BOUNDS_PCT;
        match pooled {
            Some(k) => Frame {
                id,
                text: analyze_frame(id, bounds, &pool[k].json),
                kind: Kind::Repeat,
                bounds,
                body: Arc::clone(if bounds {
                    &pool[k].bounds
                } else {
                    &pool[k].verdicts
                }),
            },
            None => {
                let ts = self.fresh_set();
                Frame {
                    id,
                    text: analyze_frame(id, bounds, &task_set_to_json_compact(&ts)),
                    kind: Kind::Fresh,
                    bounds,
                    body: reference(&ts, bounds),
                }
            }
        }
    }

    /// A set no earlier frame carried, at a utilization drawn from the grid
    /// 1..m: some FP-rejected, some in the LP-ILP band.
    fn fresh_set(&mut self) -> TaskSet {
        let x = self.grid[self.rng.gen_range(0..self.grid.len())];
        let started = Instant::now();
        let ts = generate_on_worker(set_seed(self.seed, 1, self.fresh), &group1(x));
        self.taskgen_ns += started.elapsed().as_nanos() as f64;
        self.generated += 1;
        self.fresh += 1;
        ts
    }
}

fn since(origin: Instant) -> u64 {
    u64::try_from(Instant::now().saturating_duration_since(origin).as_nanos()).unwrap_or(u64::MAX)
}

/// Opens `conns` fresh client connections.
fn connect(addr: SocketAddr, conns: usize) -> Result<Vec<TcpStream>, String> {
    let io = |e: io::Error| format!("opening a client connection: {e}");
    (0..conns)
        .map(|_| {
            let stream = TcpStream::connect(addr).map_err(io)?;
            stream.set_nodelay(true).map_err(io)?;
            stream
                .set_read_timeout(Some(RESPONSE_TIMEOUT))
                .map_err(io)?;
            Ok(stream)
        })
        .collect()
}

/// Where response `line` belongs among `n` frames numbered from `first_id`.
fn index_of(line: &str, first_id: u64, n: usize) -> Option<usize> {
    field_u64(line, "\"id\":")
        .and_then(|id| id.checked_sub(first_id))
        .and_then(|k| usize::try_from(k).ok())
        .filter(|&k| k < n)
}

/// One open-loop group, times in ns from its first due time.
struct Group {
    origin: Instant,
    due_ns: Vec<u64>,
    sent_ns: Vec<Option<u64>>,
    recv_ns: Vec<Option<u64>>,
    lines: Vec<Option<String>>,
    /// Frames sent but not yet answered, seen by each send.
    backlog: Vec<u64>,
}

/// Sends `frames` at `rate` over `conns` fresh connections (frame `i` on
/// connection `i % conns`, due `i / rate` after the start; a writer that
/// wakes late sends every frame then due in one write, so the client keeps
/// pace at rates its sleeps cannot resolve) and collects the responses.
/// A connection that falls into a slow TCP pattern stays in
/// it: the server writes responses without `TCP_NODELAY`, so under
/// pipelining Nagle's algorithm can hold each response until the client's
/// next frame acknowledges the one before. Fresh connections per group let
/// the median over groups report the usual pattern rather than one
/// connection's luck.
fn run_group(addr: SocketAddr, frames: &[Frame], rate: f64, conns: usize) -> Result<Group, String> {
    let n = frames.len();
    let first_id = frames.first().map_or(0, |f| f.id);
    let streams = connect(addr, conns)?;
    let sent_total = AtomicU64::new(0);
    let recv_total = AtomicU64::new(0);
    let origin = Instant::now() + LEAD;
    let due = |i: usize| Duration::from_secs_f64(i as f64 / rate);
    let mut group = Group {
        origin,
        due_ns: (0..n).map(|i| due(i).as_nanos() as u64).collect(),
        sent_ns: vec![None; n],
        recv_ns: vec![None; n],
        lines: vec![None; n],
        backlog: vec![0; n],
    };
    thread::scope(|scope| -> Result<(), String> {
        let mut workers = Vec::with_capacity(conns);
        for (c, mut stream) in streams.into_iter().enumerate() {
            let reader = stream
                .try_clone()
                .map_err(|e| format!("opening a client connection: {e}"))?;
            let (sent_total, recv_total) = (&sent_total, &recv_total);
            let expected = (c..n).step_by(conns).count();
            let writer = scope.spawn(move || {
                let mine: Vec<usize> = (c..n).step_by(conns).collect();
                let mut sends = Vec::with_capacity(expected);
                let mut batch = Vec::new();
                let mut next = 0;
                while next < mine.len() {
                    let now = Instant::now();
                    if origin + due(mine[next]) > now {
                        thread::sleep(origin + due(mine[next]) - now);
                    }
                    // Every frame due by now goes out in one write.
                    let sent = since(origin);
                    let first = next;
                    batch.clear();
                    while next < mine.len()
                        && (next == first || due(mine[next]).as_nanos() as u64 <= sent)
                    {
                        batch.extend_from_slice(frames[mine[next]].text.as_bytes());
                        next += 1;
                    }
                    if stream.write_all(&batch).is_err() {
                        break; // the unsent frames count as failed
                    }
                    let count = (next - first) as u64;
                    let outstanding = sent_total.fetch_add(count, Ordering::Relaxed) + count
                        - recv_total.load(Ordering::Relaxed);
                    sends.extend(mine[first..next].iter().map(|&i| (i, sent, outstanding)));
                }
                sends
            });
            let reader = scope.spawn(move || {
                let mut reader = BufReader::new(reader);
                let mut responses = Vec::with_capacity(expected);
                for _ in 0..expected {
                    let mut line = String::new();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break, // the missing frames count as failed
                        Ok(_) => {}
                    }
                    recv_total.fetch_add(1, Ordering::Relaxed);
                    responses.push((since(origin), line));
                }
                responses
            });
            workers.push((writer, reader));
        }
        for (writer, reader) in workers {
            for (i, sent, outstanding) in writer.join().expect("writer threads do not panic") {
                group.sent_ns[i] = Some(sent);
                group.backlog[i] = outstanding;
            }
            for (at, line) in reader.join().expect("reader threads do not panic") {
                if let Some(k) = index_of(&line, first_id, n) {
                    group.recv_ns[k] = Some(at);
                    group.lines[k] = Some(line);
                }
            }
        }
        Ok(())
    })?;
    Ok(group)
}

/// Whether a group's backlog grew: the median count of frames outstanding
/// over its last quarter of sends exceeds that of its first quarter by
/// more than [`BACKLOG_SLACK`]. Medians let a brief stall that drains pass;
/// an offered rate above capacity piles up frames to the end.
fn backlog_grew(backlog: &[u64]) -> bool {
    let quarter = (backlog.len() / 4).max(1).min(backlog.len());
    let median = |xs: &[u64]| report::median(&xs.iter().map(|&x| x as f64).collect::<Vec<_>>());
    median(&backlog[backlog.len() - quarter..]) > median(&backlog[..quarter]) + BACKLOG_SLACK
}

/// What the traced run does with each group once it is judged: its
/// frames, their responses, and which were answered correctly.
type Visit<'a> = dyn FnMut(&[Frame], &Group, &[bool]) -> Result<(), String> + 'a;

/// One judged open-loop window.
struct Phase {
    failed: u64,
    /// Latency from due time (µs): median group p50 and p99.
    p50: f64,
    p99: f64,
    /// How late the writers sent (µs): median group p99.
    late_p99: f64,
    /// Correct answers per second the window offered frames: from each
    /// group's first due time to one frame interval past its last send.
    /// (The answer to a group's last frame can wait out the client's
    /// delayed ACK, so the last response would make a poor end mark.)
    achieved: f64,
    /// Most frames sent but not yet answered.
    backlog_max: u64,
    /// Whether the backlog grew within more than half of the groups.
    grew: bool,
    /// Registry counts of the server's work during the groups.
    counts: Counts,
}

/// An open-loop window at one fixed rate, run in one or more stretches:
/// what its groups have measured so far.
struct Window {
    label: String,
    rate: f64,
    frames: usize,
    groups: usize,
    failed: u64,
    latency_us: Vec<f64>,
    late_us: Vec<f64>,
    active_ns: u64,
    backlog_max: u64,
    grew: usize,
    counts: Counts,
}

impl Window {
    fn new(label: &str, rate: f64) -> Self {
        Self {
            label: label.to_string(),
            rate,
            frames: 0,
            groups: 0,
            failed: 0,
            latency_us: Vec::new(),
            late_us: Vec::new(),
            active_ns: 0,
            backlog_max: 0,
            grew: 0,
            counts: Counts::default(),
        }
    }

    /// Runs `n` more frames of `mix` in consecutive groups of [`GROUP`] (a
    /// final partial group joins the one before), each rendered just before
    /// it runs on `conns` fresh connections, and checks every response.
    fn run(
        &mut self,
        addr: SocketAddr,
        conns: usize,
        mix: &mut Mix,
        n: usize,
        visit: &mut Visit,
    ) -> Result<(), String> {
        let groups = (n / GROUP).max(1);
        let timeout_us = RESPONSE_TIMEOUT.as_secs_f64() * 1e6;
        let rate = self.rate;
        for g in 0..groups {
            let len = if g + 1 == groups {
                n - g * GROUP
            } else {
                GROUP
            };
            let frames = mix.frames(len);
            let (group, counts) = Counts::around(|| run_group(addr, &frames, rate, conns));
            let group = group?;
            self.counts.add(&counts);
            let mut ok = Vec::with_capacity(len);
            for (i, frame) in frames.iter().enumerate() {
                let answered = group.lines[i]
                    .as_deref()
                    .is_some_and(|line| frame.answered_by(line));
                if let Some(sent) = group.sent_ns[i] {
                    self.late_us
                        .push(sent.saturating_sub(group.due_ns[i]) as f64 / 1e3);
                }
                match group.recv_ns[i] {
                    Some(recv) if answered => {
                        self.latency_us
                            .push(recv.saturating_sub(group.due_ns[i]) as f64 / 1e3);
                    }
                    _ => {
                        if self.failed == 0 {
                            eprintln!(
                                "{}: frame {} got {:?}, expected body {}",
                                self.label, frame.id, group.lines[i], frame.body
                            );
                        }
                        self.failed += 1;
                        self.latency_us.push(timeout_us);
                    }
                }
                ok.push(answered);
            }
            let last_sent = group.sent_ns.iter().flatten().copied().max().unwrap_or(0);
            self.active_ns += last_sent + (1e9 / rate) as u64;
            self.backlog_max = self
                .backlog_max
                .max(group.backlog.iter().copied().max().unwrap_or(0));
            self.grew += usize::from(backlog_grew(&group.backlog));
            visit(&frames, &group, &ok)?;
        }
        self.frames += n;
        self.groups += groups;
        Ok(())
    }

    /// Judges every frame the window has run.
    fn judge(self, report: &mut Report) -> Phase {
        let label = &self.label;
        report.attempted += self.frames as u64;
        report.fail(
            self.failed,
            &format!("{label}: failed, refused or wrong responses"),
        );
        let (p50, p99) = grouped_p50_p99(&self.latency_us, &format!("{label}: us from due time"));
        let (_, late_p99) = grouped_p50_p99(&self.late_us, &format!("{label}: us sent late"));
        let achieved =
            (self.frames as u64 - self.failed) as f64 / (self.active_ns.max(1) as f64 / 1e9);
        println!(
            "{label}: {} frames at {}/s, {} failed, achieved {achieved:.1}/s, backlog max {}, \
             grew in {} of {} groups",
            self.frames, self.rate, self.failed, self.backlog_max, self.grew, self.groups
        );
        Phase {
            failed: self.failed,
            p50,
            p99,
            late_p99,
            achieved,
            backlog_max: self.backlog_max,
            grew: 2 * self.grew > self.groups,
            counts: self.counts,
        }
    }
}

/// Runs `n` frames of `mix` at `rate` as one open-loop window and judges
/// it.
#[allow(clippy::too_many_arguments)]
fn phase(
    addr: SocketAddr,
    conns: usize,
    mix: &mut Mix,
    n: usize,
    rate: f64,
    label: &str,
    report: &mut Report,
    visit: &mut Visit,
) -> Result<Phase, String> {
    let mut window = Window::new(label, rate);
    window.run(addr, conns, mix, n, visit)?;
    Ok(window.judge(report))
}

/// Leaves a group as it is.
fn skip(_: &[Frame], _: &Group, _: &[bool]) -> Result<(), String> {
    Ok(())
}

/// Frames in a window of `seconds` at `rate`.
fn frames_for(rate: f64, seconds: f64) -> usize {
    ((rate * seconds).round() as usize).max(1)
}

/// Runs `frames` in a closed loop over `conns` fresh connections (frame
/// `i` on connection `i % conns`). Each connection has one client thread,
/// so the client and the server together run one thread per core: it
/// sends [`DEPTH`] frames, then one more after each answer, so every
/// answer is acknowledged at once by the next frame. Returns the responses
/// and the time from the first send to the last response.
fn run_closed(
    addr: SocketAddr,
    frames: &[Frame],
    conns: usize,
) -> Result<(Vec<Option<String>>, Duration), String> {
    let n = frames.len();
    let first_id = frames.first().map_or(0, |f| f.id);
    let streams = connect(addr, conns)?;
    let mut lines = vec![None; n];
    let started = Instant::now();
    let mut ended = started;
    thread::scope(|scope| -> Result<(), String> {
        let mut clients = Vec::with_capacity(conns);
        for (c, mut stream) in streams.into_iter().enumerate() {
            let reader = stream
                .try_clone()
                .map_err(|e| format!("opening a client connection: {e}"))?;
            clients.push(scope.spawn(move || {
                let mine: Vec<usize> = (c..n).step_by(conns).collect();
                let mut reader = BufReader::new(reader);
                let mut responses = Vec::with_capacity(mine.len());
                let first: Vec<u8> = mine
                    .iter()
                    .take(DEPTH)
                    .flat_map(|&i| frames[i].text.bytes())
                    .collect();
                let mut sent = DEPTH.min(mine.len());
                if stream.write_all(&first).is_ok() {
                    for _ in 0..mine.len() {
                        let mut line = String::new();
                        match reader.read_line(&mut line) {
                            Ok(0) | Err(_) => break, // the missing frames count as failed
                            Ok(_) => {}
                        }
                        responses.push(line);
                        if let Some(&i) = mine.get(sent) {
                            if stream.write_all(frames[i].text.as_bytes()).is_err() {
                                break;
                            }
                            sent += 1;
                        }
                    }
                }
                (Instant::now(), responses)
            }));
        }
        for client in clients {
            let (at, responses) = client.join().expect("client threads do not panic");
            ended = ended.max(at);
            for line in responses {
                if let Some(k) = index_of(&line, first_id, n) {
                    lines[k] = Some(line);
                }
            }
        }
        Ok(())
    })?;
    Ok((lines, ended - started))
}

/// One stretch of the server's capacity: closed-loop windows of [`GROUP`]
/// frames, each rendered just before it runs on fresh connections, until
/// they have run for `seconds` (at least one). Appends each window's correct
/// answers per second to `rates` and returns the stretch's fast end.
fn capacity(
    addr: SocketAddr,
    conns: usize,
    mix: &mut Mix,
    seconds: f64,
    rates: &mut Vec<f64>,
    report: &mut Report,
) -> Result<f64, String> {
    let start = rates.len();
    let mut busy = Duration::ZERO;
    let mut failed = 0;
    while rates.len() == start || busy.as_secs_f64() < seconds {
        let frames = mix.frames(GROUP);
        let (lines, elapsed) = run_closed(addr, &frames, conns)?;
        let ok = frames
            .iter()
            .zip(&lines)
            .filter(|(frame, line)| line.as_deref().is_some_and(|l| frame.answered_by(l)))
            .count();
        failed += (GROUP - ok) as u64;
        report.attempted += GROUP as u64;
        busy += elapsed;
        rates.push(ok as f64 / elapsed.as_secs_f64().max(1e-9));
    }
    report.fail(failed, "capacity: failed, refused or wrong responses");
    let stretch = &rates[start..];
    let rate = report::fast_end(stretch, false);
    println!(
        "capacity: {} closed-loop windows of {GROUP} frames, {DEPTH} in flight per connection, \
         in {:.3} s: 95th percentile {rate:.1} frames/s, min {:.1}, max {:.1}",
        stretch.len(),
        busy.as_secs_f64(),
        stretch.iter().copied().fold(f64::INFINITY, f64::min),
        stretch.iter().copied().fold(0.0, f64::max),
    );
    Ok(rate)
}

/// Rung `k` of the fixed rate ladder, frames/s.
fn ladder(k: usize) -> f64 {
    (LADDER_BASE * LADDER_STEP.powi(k as i32)).round()
}

/// One ladder search for `max_rps`: the highest rung of the fixed ladder,
/// up to the `capacity` measured just before, that qualifies in an
/// open-loop trial of [`GROUP`] frames; the trials step down the ladder
/// from the capacity until one qualifies, and the result is that trial's
/// achieved rate (0 when none does). The search does not climb
/// past the capacity: up there, whether a trial qualifies depends on how
/// often the host stalls far more than on the server (on a small shared
/// host an up-down staircase above it moved twice as far between two sets
/// of runs as the capacity did).
fn max_rps(
    addr: SocketAddr,
    conns: usize,
    mix: &mut Mix,
    capacity: f64,
    report: &mut Report,
) -> Result<f64, String> {
    let mut k = (0..LADDER_RUNGS)
        .rev()
        .find(|&k| ladder(k) <= capacity)
        .unwrap_or(0);
    loop {
        let rate = ladder(k);
        let label = format!("ladder {rate}/s");
        let trial = phase(addr, conns, mix, GROUP, rate, &label, report, &mut skip)?;
        let qualifies = trial.failed == 0
            && trial.p99 <= P99_LIMIT_US
            && trial.late_p99 <= LATE_LIMIT_US
            && !trial.grew;
        println!(
            "{label}: {} (p99 {:.1} us, limit {P99_LIMIT_US}; lateness p99 {:.1} us, \
             limit {LATE_LIMIT_US}; {} failed; backlog {})",
            if qualifies {
                "qualifies"
            } else {
                "does not qualify"
            },
            trial.p99,
            trial.late_p99,
            trial.failed,
            if trial.grew { "grew" } else { "steady" },
        );
        if qualifies || k == 0 {
            let max_rps = if qualifies { trial.achieved } else { 0.0 };
            println!("ladder search: {max_rps:.1} frames/s (capacity {capacity:.1} frames/s)");
            return Ok(max_rps);
        }
        k -= 1;
    }
}

/// Builds the pool with its reference answers (outside any timing).
fn pool(seed: u64) -> Vec<Pooled> {
    pool_sets(seed)
        .into_iter()
        .map(|set| Pooled {
            json: task_set_to_json_compact(&set),
            verdicts: reference(&set, false),
            bounds: reference(&set, true),
            set,
        })
        .collect()
}

/// Runs the workload, untraced or traced.
pub fn run(args: &Args) -> Result<Report, String> {
    let conns = (rta_obs::host_info().available_parallelism / 2).max(1);
    report::print_provenance(
        args,
        conns,
        conns,
        &format!(
            "light {LIGHT_RPS}/s and heavy {HEAVY_RPS}/s open loops, a closed loop {DEPTH} \
             deep per connection, ladder {LADDER_BASE}/s x {LADDER_STEP}^k \
             for k < {LADDER_RUNGS}"
        ),
    );
    let mut report = Report::new();
    let pool = pool(args.seed);
    let warm_texts = warm_up_texts(&pool.iter().map(|p| p.json.as_str()).collect::<Vec<_>>());
    let server =
        serve::spawn(&ServeOptions::default()).map_err(|e| format!("spawning the server: {e}"))?;
    let addr = server.addr();
    let result = warm_up(addr, &warm_texts).and_then(|lines| {
        let wrong = pool
            .iter()
            .zip(&lines)
            .filter(|(p, line)| body(line, "\"verdicts\":") != Some(&*p.bounds))
            .count();
        report.attempted += POOL as u64;
        report.fail(wrong as u64, "warm-up frames got wrong answers");
        let mut mix = Mix::new(args.seed, &pool);
        if args.trace {
            traced(args, addr, conns, &mut mix, &warm_texts, &mut report)
        } else {
            untraced(args, addr, conns, &mut mix, &mut report)
        }
    });
    let drain = server.shutdown();
    if drain.panicked > 0 || drain.cut_off > 0 {
        report.fail(1, &format!("server drain: {}", drain.render()));
    }
    result?;
    report.set("peak_rss_mb", report::peak_rss_mb()?);
    Ok(report)
}

fn untraced(
    args: &Args,
    addr: SocketAddr,
    conns: usize,
    mix: &mut Mix,
    report: &mut Report,
) -> Result<(), String> {
    let cycles = (args.seconds / CYCLE_SECONDS).round().max(1.0);
    let stretch = WINDOW_SHARE * args.seconds / cycles;
    let mut light = Window::new("light", LIGHT_RPS);
    let mut heavy = Window::new("heavy", HEAVY_RPS);
    let (mut probes, mut rates, mut found) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..cycles as usize {
        // Set-up probes run between the stretches, never during one.
        for _ in 0..PROBES_PER_GAP {
            probes.push(report::setup_probe(args)?);
        }
        light.run(addr, conns, mix, frames_for(LIGHT_RPS, stretch), &mut skip)?;
        heavy.run(addr, conns, mix, frames_for(HEAVY_RPS, stretch), &mut skip)?;
        let capacity = capacity(addr, conns, mix, stretch, &mut rates, report)?;
        found.push(max_rps(addr, conns, mix, capacity, report)?);
    }
    for (window, metric) in [(light, "p50_us.light"), (heavy, "p50_us.heavy")] {
        let p50 = window.judge(report).p50;
        report.set(metric, p50);
    }
    let capacity = report::fast_end(&rates, false);
    let max_rps = report::fast_end(&found, false);
    println!(
        "over {cycles} cycles: capacity {capacity:.1} frames/s, the 95th percentile of {} \
         closed-loop windows; max_rps {max_rps:.1} frames/s, the 95th percentile of the cycles' \
         ladder searches",
        rates.len()
    );
    report.set("sets_per_s", capacity);
    report.set("max_rps", max_rps);
    report::set_setup(report, &probes);
    Ok(())
}

/// Per-frame layer times of the replayed traced window (ns unless noted).
#[derive(Default)]
struct WireLayers {
    parse_ns: Vec<f64>,
    build_ns: Vec<f64>,
    hash_ns: Vec<f64>,
    fetch_ns: Vec<f64>,
    store_ns: Vec<f64>,
    render_ns: Vec<f64>,
    cold_ns: Vec<f64>,
    warm_ns: f64,
    sim: SimTimes,
    warm_counts: Counts,
    mismatches: u64,
}

/// What replaying one frame took (ns): parse + build, the server-side
/// calls the response's `micros` times (LRU fetch, analysis, LRU store,
/// or the simulation), and rendering.
struct Replayed {
    model_ns: u64,
    server_ns: u64,
    render_ns: u64,
}

/// Replays one frame through the calls the server makes for it, against
/// the mirror LRU; spans go under `parent` (the frame) and `server` (the
/// server-side part).
fn replay(
    frame: &Frame,
    mirror: &mut AnalysisLru,
    tracer: &mut Tracer,
    layers: &mut WireLayers,
    parent: usize,
    server: usize,
) -> Result<Replayed, String> {
    let id = frame.id;
    let (doc, parse) = tracer.leaf("model.parse", parent, id, || {
        json::parse(frame.text.trim_end())
    });
    let doc = doc.map_err(|e| format!("frame {id} does not parse: {e}"))?;
    let envelope = match frame.kind {
        Kind::Simulate(_) => doc.get("simulate").ok_or("simulate frame without a body")?,
        _ => &doc,
    };
    let spec = envelope.get("task_set").ok_or("frame without a task set")?;
    let (ts, build) = tracer.leaf("model.build", parent, id, || {
        json::task_set_from_value(spec)
    });
    let ts = ts.map_err(|e| format!("frame {id} does not build: {e}"))?;
    layers.parse_ns.push(parse as f64);
    layers.build_ns.push(build as f64);
    let (body, server_ns, render) = match frame.kind {
        Kind::Simulate(policy) => {
            let (outcome, ns) =
                tracer.leaf("sim", server, id, || sim_request(policy).evaluate(&ts));
            layers.sim.add(ns, &outcome);
            let (body, render) =
                tracer.leaf("serve.render", parent, id, || serve::sim_json(&outcome));
            (body, ns, render)
        }
        Kind::Repeat | Kind::Fresh => {
            let (_, hash) = tracer.leaf("model.hash", ROOT, id, || {
                std::hint::black_box(ts.stable_hash())
            });
            layers.hash_ns.push(hash as f64);
            let request = AnalysisRequest::new(CORES).with_bounds(frame.bounds);
            let ((cached, _), fetch) =
                tracer.leaf("lru.fetch", server, id, || mirror.fetch(&ts, &request));
            layers.fetch_ns.push(fetch as f64);
            let mut server_ns = fetch;
            let outcome = match cached {
                Some(outcome) => outcome,
                None => {
                    let span = tracer.open("analysis", server, id);
                    let cache = TaskSetCache::new(&ts, CORES);
                    let outcome = request.evaluate_with(&cache);
                    let cold = tracer.close(span);
                    layers.cold_ns.push(cold as f64);
                    // Extra work the server does not do: kept outside the
                    // frame and taken out of the counts.
                    let ((_, warm), counts) = Counts::around(|| {
                        tracer.leaf("analysis.warm", ROOT, id, || request.evaluate_with(&cache))
                    });
                    layers.warm_ns += warm as f64;
                    layers.warm_counts.add(&counts);
                    let (_, store) = tracer.leaf("lru.store", server, id, || {
                        mirror.store(&ts, &request, &outcome)
                    });
                    layers.store_ns.push(store as f64);
                    server_ns += cold + store;
                    outcome
                }
            };
            let (body, render) = tracer.leaf("serve.render", parent, id, || {
                serve::verdicts_json(&outcome)
            });
            (body, server_ns, render)
        }
    };
    layers.render_ns.push(render as f64);
    if body.as_str() != &*frame.body {
        layers.mismatches += 1;
    }
    Ok(Replayed {
        model_ns: parse + build,
        server_ns,
        render_ns: render,
    })
}

/// Round-trip parts of the traced window's correctly answered frames (µs).
#[derive(Default)]
struct RoundTrips {
    rtt: Vec<f64>,
    micros: Vec<f64>,
    wire: Vec<f64>,
    socket: Vec<f64>,
    /// Σ the server's `micros`, and Σ the replayed server-side spans, each
    /// truncated to whole µs as the server truncates `micros`.
    server_micros: f64,
    replayed_micros: f64,
    /// Σ over cache hits of the round trip and its parts.
    hit_rtt: f64,
    hit_model: f64,
    hit_server: f64,
    hit_render: f64,
    hit_socket: f64,
    frame_bytes: usize,
    frames: usize,
}

/// A heavy-rate window whose groups are each replayed, layer by layer,
/// right after they are answered.
fn traced(
    args: &Args,
    addr: SocketAddr,
    conns: usize,
    mix: &mut Mix,
    warm_texts: &[String],
    report: &mut Report,
) -> Result<(), String> {
    // A mirror LRU in the server's state: the same warm-up frames first,
    // then the same stream, in order.
    let mut mirror = AnalysisLru::new(serve::DEFAULT_LRU_CAPACITY);
    let mut scratch = Tracer::new();
    let mut scratch_layers = WireLayers::default();
    for (i, text) in warm_texts.iter().enumerate() {
        let frame = Frame {
            id: i as u64,
            text: text.clone(),
            kind: Kind::Repeat,
            bounds: true,
            body: Arc::from(""),
        };
        replay(
            &frame,
            &mut mirror,
            &mut scratch,
            &mut scratch_layers,
            ROOT,
            ROOT,
        )?;
    }
    drop(scratch);

    let mut tracer = Tracer::new();
    let mut layers = WireLayers::default();
    let mut trips = RoundTrips::default();
    let mut mirror_counts = Counts::default();
    let mut visit = |frames: &[Frame], group: &Group, ok: &[bool]| -> Result<(), String> {
        let origin_ns = tracer.at(group.origin);
        let (result, counts) = Counts::around(|| -> Result<(), String> {
            for (i, frame) in frames.iter().enumerate() {
                trips.frame_bytes += frame.text.len();
                trips.frames += 1;
                let (Some(sent), Some(recv), Some(line), true) = (
                    group.sent_ns[i],
                    group.recv_ns[i],
                    group.lines[i].as_deref(),
                    ok[i],
                ) else {
                    continue;
                };
                let micros = field_u64(line, "\"micros\":").unwrap_or(0) as f64;
                let rtt = (recv - sent) as f64 / 1e3;
                let span = tracer.record("frame", ROOT, frame.id, origin_ns + sent, recv - sent);
                let server = tracer.record(
                    "serve.server",
                    span,
                    frame.id,
                    origin_ns + sent,
                    (micros * 1e3) as u64,
                );
                let done = replay(frame, &mut mirror, &mut tracer, &mut layers, span, server)?;
                let (model, render) = (done.model_ns as f64 / 1e3, done.render_ns as f64 / 1e3);
                let socket = rtt - model - micros - render;
                trips.rtt.push(rtt);
                trips.micros.push(micros);
                trips.wire.push(rtt - micros);
                trips.socket.push(socket);
                trips.server_micros += micros;
                trips.replayed_micros += (done.server_ns / 1000) as f64;
                if line.contains("\"cache\":\"hit\"") {
                    trips.hit_rtt += rtt;
                    trips.hit_model += model;
                    trips.hit_server += micros;
                    trips.hit_render += render;
                    trips.hit_socket += socket;
                }
            }
            Ok(())
        });
        mirror_counts.add(&counts);
        result
    };
    let n = frames_for(HEAVY_RPS, TRACED_SHARE * args.seconds);
    let window = phase(
        addr,
        conns,
        mix,
        n,
        HEAVY_RPS,
        "heavy, traced",
        report,
        &mut visit,
    )?;
    let mirror_counts = mirror_counts.minus(&layers.warm_counts);
    report.fail(
        layers.mismatches,
        "replayed frames rendered different answers",
    );
    let drift = window.counts.differing(&mirror_counts);
    let server = &window.counts;

    let med = |xs: &[f64]| report::median(xs);
    report.set(
        "taskgen.set_ns",
        mix.taskgen_ns / mix.generated.max(1) as f64,
    );
    report::report_analysis(report, &mut layers.cold_ns, layers.warm_ns);
    let evaluated = server.get("lru_misses_total") + server.get("lru_near_hits_total");
    server.report(report, evaluated * rta_analysis::Method::ALL.len() as u64);
    layers.sim.report(report);
    report.set("model.parse_ns", med(&layers.parse_ns));
    report.set("model.build_ns", med(&layers.build_ns));
    report.set("model.hash_ns", med(&layers.hash_ns));
    report.set(
        "model.frame_bytes",
        trips.frame_bytes as f64 / trips.frames.max(1) as f64,
    );
    report.set("lru.fetch_ns", med(&layers.fetch_ns));
    report.set("lru.store_ns", med(&layers.store_ns));
    let lookups = server.get("lru_hits_total") + evaluated;
    report.set(
        "lru.hit_ratio",
        server.get("lru_hits_total") as f64 / lookups.max(1) as f64,
    );
    report.set("serve.server_us", med(&trips.micros));
    report.set("serve.wire_us", med(&trips.wire));
    report.set("serve.render_ns", med(&layers.render_ns));
    report.set("serve.socket_us", med(&trips.socket));
    report.set("loadgen.late_us.p99", window.late_p99);
    report.set("loadgen.backlog_max", window.backlog_max as f64);
    // The traced window's client and server run exactly as untraced ones:
    // every span comes from replaying a group after it is answered.
    println!("trace overhead: none on the wire path, whose spans are replayed afterwards");
    report.set("trace.overhead_pct", 0.0);
    // The check the replay could fail: its server-side spans must account
    // for the time the server itself reports in `micros`.
    let accounted_pct = 100.0 * trips.replayed_micros / trips.server_micros.max(1.0);
    report.set("trace.accounted_pct", accounted_pct);
    let within = (accounted_pct - 100.0).abs() <= SERVER_TOLERANCE_PCT;
    println!(
        "accounting: replayed server-side spans sum to {accounted_pct:.1}% of the responses' \
         micros, {:.0} us (tolerance ±{SERVER_TOLERANCE_PCT}%): {}",
        trips.server_micros,
        if within { "within" } else { "OUTSIDE" }
    );
    if !within {
        report.fail(1, "replayed server-side spans miss the server's micros");
    }
    report.set("trace.nondeterministic_counts", drift as f64);
    if trips.hit_rtt > 0.0 {
        report.set("share.model_pct", 100.0 * trips.hit_model / trips.hit_rtt);
        report.set("share.server_pct", 100.0 * trips.hit_server / trips.hit_rtt);
        report.set("share.render_pct", 100.0 * trips.hit_render / trips.hit_rtt);
        report.set("share.socket_pct", 100.0 * trips.hit_socket / trips.hit_rtt);
    }
    let total_rtt: f64 = trips.rtt.iter().sum();
    tracer.print_self_times(total_rtt * 1e3);
    tracer.write_run(&args.out_dir, args.workload.name(), args.seed)
}

/// One cold set-up in a fresh process: spawn the server and warm its LRU
/// with the repeat pool. The frames are rendered before the clock starts;
/// the answers are checked after it stops.
pub fn setup_probe(args: &Args) -> Result<f64, String> {
    let sets = pool_sets(args.seed);
    let json: Vec<String> = sets.iter().map(task_set_to_json_compact).collect();
    let texts = warm_up_texts(&json.iter().map(String::as_str).collect::<Vec<_>>());
    let started = Instant::now();
    let server =
        serve::spawn(&ServeOptions::default()).map_err(|e| format!("spawning the server: {e}"))?;
    let lines = warm_up(server.addr(), &texts);
    let seconds = started.elapsed().as_secs_f64();
    let drain = server.shutdown();
    let lines = lines?;
    let wrong = sets
        .iter()
        .zip(&lines)
        .filter(|(ts, line)| body(line, "\"verdicts\":") != Some(&*reference(ts, true)))
        .count();
    if wrong > 0 || drain.panicked > 0 {
        return Err(format!("{wrong} wrong warm-up answers; {}", drain.render()));
    }
    Ok(seconds)
}
