//! Hand-rolled observability for the RTA stack: a metrics registry of
//! monotonic **counters**, high-water **gauges** and fixed-bucket latency
//! **histograms**, cheap enough to sit on the analysis and simulation hot
//! paths and scraped wholesale by `repro serve`'s `{"metrics":true}` frame
//! (the server adds its own per-instance counters to that scrape; they
//! are not registered here).
//!
//! # Design
//!
//! * **Per-thread shards, merged on scrape.** Every recording thread owns
//!   one shard per registry — a fixed array of lazily allocated
//!   `AtomicU64` blocks, one block per metric. Recording is a
//!   `thread_local` lookup plus relaxed atomic adds on memory no other
//!   thread writes, so there is no cross-thread cache-line ping-pong and
//!   no lock anywhere near a hot path. [`Registry::snapshot`] folds the
//!   shards of live threads: counters and histogram buckets merge by
//!   summation, gauges by maximum — all three folds are commutative and
//!   associative, so the merged snapshot is independent of thread
//!   interleaving (pinned by the proptest in `tests/merge.rs`).
//! * **Exited threads cost nothing.** When a thread exits, the registry
//!   holds the only reference to its shard; the next shard attach (or
//!   snapshot) folds it into one per-registry accumulator by the same
//!   rules and frees it. Memory and scrape time therefore track the
//!   threads alive now, not every thread a thread-per-connection server
//!   has ever run.
//! * **Fixed log₂ buckets.** Histograms bucket a sample by its bit length:
//!   bucket `i ≥ 1` holds values in `[2^(i-1), 2^i)`, bucket 0 holds zero,
//!   the last bucket is the overflow. Quantiles are therefore upper-bound
//!   estimates with a factor-2 resolution — plenty for latency telemetry,
//!   and the representation is a flat `[u64; 40]` that merges with 40
//!   additions.
//! * **Names are identity.** [`Registry::counter`] and friends register on
//!   first use and return the existing handle on repeated registration, so
//!   `static` handles in different crates can share a metric. Snapshot
//!   output is sorted by name — deterministic bytes for golden tests.
//!
//! The default registry is process-global ([`global`]); tests that need
//! isolation build their own [`Registry`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod host;

pub use host::{host_info, host_json_fields, HostInfo};

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of histogram buckets: bit lengths 0 (the value zero) through 38,
/// plus the overflow bucket — in nanoseconds that spans 1 ns to ~4.6 min
/// before overflow, far beyond any latency this stack measures.
pub const HIST_BUCKETS: usize = 40;

/// Most metrics one registry can hold. Registration past this cap panics
/// (metrics are a small static population, not user data).
pub const MAX_METRICS: usize = 192;

const CELLS_COUNTER: usize = 1;
const CELLS_HIST: usize = HIST_BUCKETS + 3;
const IDX_COUNT: usize = HIST_BUCKETS;
const IDX_SUM: usize = HIST_BUCKETS + 1;
const IDX_MAX: usize = HIST_BUCKETS + 2;

/// What a metric is — determines the shard block shape and the merge rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Monotonic sum; shards merge by addition.
    Counter,
    /// High-water mark; shards merge by maximum.
    Gauge,
    /// Fixed-bucket distribution; shards merge bucket-wise (max for the
    /// max cell).
    Histogram,
}

/// Merges one shard's block of a `kind` metric into `totals` (grown to
/// the block's length): gauges and a histogram's max cell by maximum,
/// every other cell by sum.
fn fold(totals: &mut Vec<u64>, kind: Kind, cells: &[AtomicU64]) {
    totals.resize(cells.len(), 0);
    for (i, (total, cell)) in totals.iter_mut().zip(cells).enumerate() {
        let v = cell.load(Ordering::Relaxed);
        *total = match (kind, i) {
            (Kind::Gauge, _) | (Kind::Histogram, IDX_MAX) => (*total).max(v),
            _ => *total + v,
        };
    }
}

/// One thread's private block store: `slots[id]` is the metric's cells,
/// allocated on the thread's first touch of that metric.
struct Shard {
    slots: [OnceLock<Box<[AtomicU64]>>; MAX_METRICS],
}

impl Shard {
    fn new() -> Self {
        Self {
            slots: [const { OnceLock::new() }; MAX_METRICS],
        }
    }

    fn cells(&self, id: usize, len: usize) -> &[AtomicU64] {
        self.slots[id].get_or_init(|| (0..len).map(|_| AtomicU64::new(0)).collect())
    }
}

struct Descriptor {
    name: String,
    kind: Kind,
}

/// The shards of one registry: one per thread that may still record, plus
/// the folded totals of every thread that has exited.
#[derive(Default)]
struct Shards {
    live: Vec<Arc<Shard>>,
    /// `exited[id]` is metric `id`'s block folded over every exited
    /// thread's shard; empty while no exited thread touched the metric.
    exited: Vec<Vec<u64>>,
}

impl Shards {
    /// Folds the shard of every exited thread into `exited` and frees it.
    /// A thread's shard map drops its `Arc` when the thread exits, so a
    /// shard only this list owns can never be written again; the
    /// successful `try_unwrap` also synchronizes with that drop, making
    /// the thread's last writes visible.
    fn fold_exited(&mut self, descriptors: &[Descriptor]) {
        self.exited.resize_with(descriptors.len(), Vec::new);
        for shard in std::mem::take(&mut self.live) {
            match Arc::try_unwrap(shard) {
                Ok(shard) => {
                    for (id, descriptor) in descriptors.iter().enumerate() {
                        if let Some(cells) = shard.slots[id].get() {
                            fold(&mut self.exited[id], descriptor.kind, cells);
                        }
                    }
                }
                Err(shard) => self.live.push(shard),
            }
        }
    }
}

/// A metrics registry: the descriptor table plus the shards attached to
/// it. All recording goes through the [`Counter`] / [`Gauge`] /
/// [`Histogram`] handles it hands out.
pub struct Registry {
    /// Distinguishes registries in the per-thread shard map.
    id: usize,
    /// Locked before `shards` wherever both are held.
    descriptors: Mutex<Vec<Descriptor>>,
    shards: Mutex<Shards>,
}

static NEXT_REGISTRY_ID: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's shard per registry it has recorded into. The vec is
    /// tiny (the global registry plus any test-local ones), so a linear
    /// scan beats any map.
    static SHARDS: std::cell::RefCell<Vec<(usize, Arc<Shard>)>> =
        const { std::cell::RefCell::new(Vec::new()) };
}

impl Registry {
    /// Creates an empty registry. Most code wants [`global`] instead;
    /// tests build their own for isolation (leak it for `'static`).
    pub fn new() -> Self {
        Self {
            id: NEXT_REGISTRY_ID.fetch_add(1, Ordering::Relaxed),
            descriptors: Mutex::new(Vec::new()),
            shards: Mutex::new(Shards::default()),
        }
    }

    fn register(&self, name: String, kind: Kind) -> usize {
        let mut descriptors = self.descriptors.lock().expect("descriptor lock");
        if let Some(id) = descriptors.iter().position(|d| d.name == name) {
            assert_eq!(
                descriptors[id].kind, kind,
                "metric {name:?} re-registered with a different kind"
            );
            return id;
        }
        assert!(
            descriptors.len() < MAX_METRICS,
            "metric registry full ({MAX_METRICS})"
        );
        descriptors.push(Descriptor { name, kind });
        descriptors.len() - 1
    }

    /// Registers (or finds) a monotonic counter.
    pub fn counter(&'static self, name: impl Into<String>) -> Counter {
        Counter {
            registry: self,
            id: self.register(name.into(), Kind::Counter),
        }
    }

    /// Registers (or finds) a high-water gauge.
    pub fn gauge(&'static self, name: impl Into<String>) -> Gauge {
        Gauge {
            registry: self,
            id: self.register(name.into(), Kind::Gauge),
        }
    }

    /// Registers (or finds) a latency histogram.
    pub fn histogram(&'static self, name: impl Into<String>) -> Histogram {
        Histogram {
            registry: self,
            id: self.register(name.into(), Kind::Histogram),
        }
    }

    /// Runs `f` over the calling thread's cells of metric `id`, attaching
    /// a fresh shard to the registry on the thread's first record.
    fn with_cells<R>(&'static self, id: usize, len: usize, f: impl FnOnce(&[AtomicU64]) -> R) -> R {
        SHARDS.with(|shards| {
            let mut shards = shards.borrow_mut();
            if let Some((_, shard)) = shards.iter().find(|(rid, _)| *rid == self.id) {
                return f(shard.cells(id, len));
            }
            let shard = self.attach();
            let result = f(shard.cells(id, len));
            shards.push((self.id, shard));
            result
        })
    }

    /// A fresh shard for the calling thread, attached after folding the
    /// shards of exited threads. It runs once per thread, so it stays out
    /// of the recording fast path that every call site inlines.
    #[cold]
    #[inline(never)]
    fn attach(&self) -> Arc<Shard> {
        let shard = Arc::new(Shard::new());
        let descriptors = self.descriptors.lock().expect("descriptor lock");
        let mut attached = self.shards.lock().expect("shard lock");
        attached.fold_exited(&descriptors);
        attached.live.push(Arc::clone(&shard));
        shard
    }

    /// Merges every shard into one deterministic snapshot (entries sorted
    /// by metric name).
    pub fn snapshot(&self) -> Snapshot {
        let descriptors = self.descriptors.lock().expect("descriptor lock");
        let mut shards = self.shards.lock().expect("shard lock");
        shards.fold_exited(&descriptors);
        let mut snapshot = Snapshot::default();
        for (id, descriptor) in descriptors.iter().enumerate() {
            let mut cells = shards.exited[id].clone();
            for shard in &shards.live {
                if let Some(live) = shard.slots[id].get() {
                    fold(&mut cells, descriptor.kind, live);
                }
            }
            // A metric no thread has recorded yet has no cells: all zero.
            let cell = |i: usize| cells.get(i).copied().unwrap_or(0);
            let name = descriptor.name.clone();
            match descriptor.kind {
                Kind::Counter => snapshot.counters.push((name, cell(0))),
                Kind::Gauge => snapshot.gauges.push((name, cell(0))),
                Kind::Histogram => snapshot.histograms.push((
                    name,
                    HistogramSnapshot {
                        count: cell(IDX_COUNT),
                        sum: cell(IDX_SUM),
                        max: cell(IDX_MAX),
                        buckets: std::array::from_fn(cell),
                    },
                )),
            }
        }
        snapshot.counters.sort_by(|a, b| a.0.cmp(&b.0));
        snapshot.gauges.sort_by(|a, b| a.0.cmp(&b.0));
        snapshot.histograms.sort_by(|a, b| a.0.cmp(&b.0));
        snapshot
    }
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-global registry every instrumented crate records into.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

/// A counter on the [`global`] registry.
pub fn counter(name: impl Into<String>) -> Counter {
    global().counter(name)
}

/// A gauge on the [`global`] registry.
pub fn gauge(name: impl Into<String>) -> Gauge {
    global().gauge(name)
}

/// A histogram on the [`global`] registry.
pub fn histogram(name: impl Into<String>) -> Histogram {
    global().histogram(name)
}

/// Snapshot of the [`global`] registry.
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Nanoseconds since `start`, saturated into a histogram sample.
pub fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Handle to a monotonic counter.
#[derive(Clone, Copy)]
pub struct Counter {
    registry: &'static Registry,
    id: usize,
}

impl Counter {
    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.registry.with_cells(self.id, CELLS_COUNTER, |cells| {
            cells[0].fetch_add(n, Ordering::Relaxed);
        });
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }
}

/// Handle to a high-water gauge: [`Gauge::record`] keeps the maximum ever
/// seen (per shard; shards merge by maximum too).
#[derive(Clone, Copy)]
pub struct Gauge {
    registry: &'static Registry,
    id: usize,
}

impl Gauge {
    /// Raises the gauge to `v` if `v` is a new high-water mark.
    pub fn record(&self, v: u64) {
        self.registry.with_cells(self.id, CELLS_COUNTER, |cells| {
            cells[0].fetch_max(v, Ordering::Relaxed);
        });
    }
}

/// Handle to a fixed-bucket histogram.
#[derive(Clone, Copy)]
pub struct Histogram {
    registry: &'static Registry,
    id: usize,
}

/// The log₂ bucket of a sample: its bit length, clamped into the overflow
/// bucket.
fn bucket_of(v: u64) -> usize {
    ((u64::BITS - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
}

impl Histogram {
    /// Records one sample.
    pub fn observe(&self, v: u64) {
        self.registry.with_cells(self.id, CELLS_HIST, |cells| {
            cells[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
            cells[IDX_COUNT].fetch_add(1, Ordering::Relaxed);
            cells[IDX_SUM].fetch_add(v, Ordering::Relaxed);
            cells[IDX_MAX].fetch_max(v, Ordering::Relaxed);
        });
    }

    /// Records the nanoseconds elapsed since `start`.
    pub fn observe_since(&self, start: Instant) {
        self.observe(elapsed_ns(start));
    }
}

/// One histogram, merged across shards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample.
    pub max: u64,
    /// Per-bucket sample counts (see [`bucket_upper_bound`]).
    pub buckets: [u64; HIST_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            count: 0,
            sum: 0,
            max: 0,
            buckets: [0; HIST_BUCKETS],
        }
    }
}

/// Inclusive upper bound of bucket `i`: `2^i - 1` (`u64::MAX` for the
/// overflow bucket).
pub fn bucket_upper_bound(i: usize) -> u64 {
    if i >= HIST_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

impl HistogramSnapshot {
    /// Arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Upper-bound estimate of quantile `q ∈ [0, 1]`: the upper bound of
    /// the first bucket whose cumulative count reaches `q·count`, clamped
    /// to the observed maximum. Factor-2 resolution by construction.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cumulative += c;
            if cumulative >= rank {
                return bucket_upper_bound(i).min(self.max);
            }
        }
        self.max
    }

    /// This histogram minus an `earlier` reading of the same histogram.
    fn since(&self, earlier: &Self) -> Self {
        let mut buckets = [0u64; HIST_BUCKETS];
        for (b, slot) in buckets.iter_mut().enumerate() {
            *slot = self.buckets[b].saturating_sub(earlier.buckets[b]);
        }
        Self {
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            // High-water only: the per-window max is not recoverable.
            max: self.max,
            buckets,
        }
    }
}

/// A merged, name-sorted reading of a whole registry.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, total)`, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, high water)`, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// `(name, merged histogram)`, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl Snapshot {
    /// Counter total by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Gauge high-water by name (0 when absent).
    pub fn gauge(&self, name: &str) -> u64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// The delta since an `earlier` snapshot of the same registry:
    /// counters and histogram counts subtract; gauges keep their current
    /// high water (a high-water mark has no meaningful delta). The scoping
    /// primitive behind per-panel cost accounting.
    pub fn since(&self, earlier: &Snapshot) -> Snapshot {
        let counters_before: HashMap<&str, u64> = earlier
            .counters
            .iter()
            .map(|(n, v)| (n.as_str(), *v))
            .collect();
        let hists_before: HashMap<&str, &HistogramSnapshot> = earlier
            .histograms
            .iter()
            .map(|(n, h)| (n.as_str(), h))
            .collect();
        Snapshot {
            counters: self
                .counters
                .iter()
                .map(|(n, v)| {
                    let before = counters_before.get(n.as_str()).copied().unwrap_or(0);
                    (n.clone(), v.saturating_sub(before))
                })
                .collect(),
            gauges: self.gauges.clone(),
            histograms: self
                .histograms
                .iter()
                .map(|(n, h)| {
                    let delta = match hists_before.get(n.as_str()) {
                        Some(before) => h.since(before),
                        None => h.clone(),
                    };
                    (n.clone(), delta)
                })
                .collect(),
        }
    }

    /// Compact JSON rendering — the payload of the `{"metrics":true}` wire
    /// frame. Histogram buckets are emitted sparsely as `[le, count]`
    /// pairs; `p50`/`p99` are the factor-2 upper-bound estimates.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"schema\":1,\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{v}"));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{name}\":{v}"));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{name}\":{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p99\":{},\"buckets\":[",
                h.count,
                h.sum,
                h.max,
                h.quantile(0.50),
                h.quantile(0.99),
            ));
            let mut first = true;
            for (b, &c) in h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                if !first {
                    out.push(',');
                }
                first = false;
                let le = bucket_upper_bound(b);
                if le == u64::MAX {
                    out.push_str(&format!("[-1,{c}]"));
                } else {
                    out.push_str(&format!("[{le},{c}]"));
                }
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }

    /// Prometheus-style text exposition — what `repro serve
    /// --metrics-dump PATH` writes on drain.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        for (name, v) in &self.counters {
            out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
        }
        for (name, v) in &self.gauges {
            out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
        }
        for (name, h) in &self.histograms {
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (b, &c) in h.buckets.iter().enumerate() {
                if c == 0 {
                    continue;
                }
                cumulative += c;
                let le = bucket_upper_bound(b);
                if le == u64::MAX {
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {cumulative}\n"));
                } else {
                    out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
                }
            }
            if cumulative < h.count {
                // Every sample must appear under +Inf even when the
                // overflow bucket itself was never hit.
                out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", h.count));
            }
            out.push_str(&format!("{name}_sum {}\n{name}_count {}\n", h.sum, h.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> &'static Registry {
        Box::leak(Box::new(Registry::new()))
    }

    #[test]
    fn counters_sum_and_dedupe_by_name() {
        let r = fresh();
        let a = r.counter("a_total");
        let a2 = r.counter("a_total");
        a.add(3);
        a2.inc();
        assert_eq!(r.snapshot().counter("a_total"), 4);
        assert_eq!(r.snapshot().counter("missing"), 0);
    }

    #[test]
    fn gauges_keep_the_high_water() {
        let r = fresh();
        let g = r.gauge("peak");
        g.record(7);
        g.record(3);
        assert_eq!(r.snapshot().gauge("peak"), 7);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_conflicts_are_rejected() {
        let r = fresh();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    fn histogram_buckets_by_bit_length() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(255), 8);
        assert_eq!(bucket_of(256), 9);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(8), 255);
        assert_eq!(bucket_upper_bound(HIST_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn histogram_stats_and_quantiles() {
        let r = fresh();
        let h = r.histogram("lat_ns");
        for v in [1u64, 2, 3, 100, 1000] {
            h.observe(v);
        }
        let snap = r.snapshot();
        let hist = snap.histogram("lat_ns").expect("registered");
        assert_eq!(hist.count, 5);
        assert_eq!(hist.sum, 1106);
        assert_eq!(hist.max, 1000);
        assert!((hist.mean() - 221.2).abs() < 1e-9);
        // p50 falls in the bucket of 3 (bit length 2, upper bound 3).
        assert_eq!(hist.quantile(0.5), 3);
        // p99 clamps to the observed max, not the bucket bound 1023.
        assert_eq!(hist.quantile(0.99), 1000);
        assert_eq!(hist.quantile(0.0), 1);
    }

    #[test]
    fn snapshot_delta_scopes_a_window() {
        let r = fresh();
        let c = r.counter("n");
        let h = r.histogram("d");
        c.add(5);
        h.observe(10);
        let before = r.snapshot();
        c.add(2);
        h.observe(20);
        h.observe(30);
        let delta = r.snapshot().since(&before);
        assert_eq!(delta.counter("n"), 2);
        let hd = delta.histogram("d").expect("registered");
        assert_eq!(hd.count, 2);
        assert_eq!(hd.sum, 50);
    }

    #[test]
    fn shards_from_dead_threads_survive() {
        let r = fresh();
        let c = r.counter("spawned");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| c.add(10));
            }
        });
        c.inc();
        assert_eq!(r.snapshot().counter("spawned"), 41);
    }

    #[test]
    fn exited_threads_fold_into_exact_totals() {
        let r = fresh();
        let c = r.counter("short_lived_total");
        let g = r.gauge("short_lived_peak");
        let h = r.histogram("short_lived_ns");
        const THREADS: u64 = 10_000;
        for i in 0..THREADS {
            std::thread::spawn(move || {
                c.inc();
                g.record(i);
                h.observe(i);
            })
            .join()
            .expect("recording thread");
        }
        // Every recording thread has exited; only the newest shard can
        // still be waiting for the next attach to fold it.
        assert!(r.shards.lock().expect("shard lock").live.len() <= 1);
        let snap = r.snapshot();
        assert_eq!(snap.counter("short_lived_total"), THREADS);
        assert_eq!(snap.gauge("short_lived_peak"), THREADS - 1);
        let hist = snap.histogram("short_lived_ns").expect("registered");
        assert_eq!(hist.count, THREADS);
        assert_eq!(hist.sum, THREADS * (THREADS - 1) / 2);
        assert_eq!(hist.max, THREADS - 1);
        assert_eq!(hist.buckets.iter().sum::<u64>(), THREADS);
    }

    #[test]
    fn json_and_prometheus_render() {
        let r = fresh();
        r.counter("reqs_total").add(2);
        r.gauge("hw").record(9);
        let h = r.histogram("lat");
        h.observe(5);
        h.observe(300);
        let snap = r.snapshot();
        let json = snap.to_json();
        assert!(json.starts_with("{\"schema\":1,"));
        assert!(json.contains("\"reqs_total\":2"));
        assert!(json.contains("\"hw\":9"));
        assert!(json.contains("\"lat\":{\"count\":2,\"sum\":305,\"max\":300"));
        assert!(json.contains("\"buckets\":[[7,1],[511,1]]"));
        let prom = snap.to_prometheus();
        assert!(prom.contains("# TYPE reqs_total counter\nreqs_total 2\n"));
        assert!(prom.contains("# TYPE hw gauge\nhw 9\n"));
        assert!(prom.contains("lat_bucket{le=\"7\"} 1\n"));
        assert!(prom.contains("lat_bucket{le=\"511\"} 2\n"));
        assert!(prom.contains("lat_sum 305\nlat_count 2\n"));
    }

    #[test]
    fn global_registry_is_shared() {
        let c = counter("obs_selftest_total");
        c.inc();
        assert!(snapshot().counter("obs_selftest_total") >= 1);
    }

    #[test]
    fn elapsed_ns_is_monotone() {
        let t = Instant::now();
        let a = elapsed_ns(t);
        let b = elapsed_ns(t);
        assert!(b >= a);
    }
}
