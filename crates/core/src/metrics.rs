//! The observability handles this crate records into — created once, on
//! first use, against the process-global [`rta_obs`] registry.
//!
//! Everything here is deliberately coarse so the analysis hot paths stay
//! un-measurable in the CI perf gates: per-method verdict latency is timed
//! around each whole cached analysis — `analyze`, `verdict_with` and the
//! bound-carrying request shape (two `Instant` reads per method
//! evaluation, which itself costs microseconds), the
//! fixed-point iteration counter is flushed **once** per fixed point from
//! its local tally, and the cache counters ride inside `get_or_init`
//! closures that run once per materialized table. Nothing in a per-iterate
//! or per-node loop ever touches a metric.

use crate::config::Method;
use rta_obs::{Counter, Histogram};
use std::sync::LazyLock;

/// Per-method verdict latency in nanoseconds
/// (`analysis_verdict_ns_<slug>`), indexed in [`Method::ALL`] order.
static VERDICT_NS: LazyLock<[Histogram; Method::ALL.len()]> = LazyLock::new(|| {
    Method::ALL.map(|m| rta_obs::histogram(format!("analysis_verdict_ns_{}", m.slug())))
});

/// The verdict-latency histogram of `method`.
pub(crate) fn verdict_ns(method: Method) -> Histogram {
    let i = Method::ALL
        .iter()
        .position(|&m| m == method)
        .expect("Method::ALL covers every method");
    VERDICT_NS[i]
}

/// Total fixed-point iterations across all tasks, methods and calls.
pub(crate) static FIXED_POINT_ITERS: LazyLock<Counter> =
    LazyLock::new(|| rta_obs::counter("analysis_fixed_point_iters_total"));

/// [`crate::lru::AnalysisLru`] requests answered entirely from the memo.
pub(crate) static LRU_HITS: LazyLock<Counter> =
    LazyLock::new(|| rta_obs::counter("lru_hits_total"));

/// LRU hits answered by the task set's JSON text, without decoding it
/// (`AnalysisLru::fetch_text`); a subset of [`LRU_HITS`].
pub(crate) static LRU_TEXT_HITS: LazyLock<Counter> =
    LazyLock::new(|| rta_obs::counter("lru_text_hits_total"));

/// LRU requests on a cached set that still had to evaluate some method.
pub(crate) static LRU_NEAR_HITS: LazyLock<Counter> =
    LazyLock::new(|| rta_obs::counter("lru_near_hits_total"));

/// LRU requests on an uncached set.
pub(crate) static LRU_MISSES: LazyLock<Counter> =
    LazyLock::new(|| rta_obs::counter("lru_misses_total"));

/// LRU task-set entries displaced by the capacity bound.
pub(crate) static LRU_EVICTIONS: LazyLock<Counter> =
    LazyLock::new(|| rta_obs::counter("lru_evictions_total"));

/// [`crate::cache::TaskSetCache`] constructions.
pub(crate) static CACHE_BUILDS: LazyLock<Counter> =
    LazyLock::new(|| rta_obs::counter("cache_builds_total"));

/// µ-arrays materialized (first touch of a task's cell).
pub(crate) static CACHE_MU_BUILDS: LazyLock<Counter> =
    LazyLock::new(|| rta_obs::counter("cache_mu_builds_total"));

/// `max ρ` cells materialized (first touch of a `(task, cores)` cell).
pub(crate) static CACHE_RHO_BUILDS: LazyLock<Counter> =
    LazyLock::new(|| rta_obs::counter("cache_rho_builds_total"));
