//! Bounded memoization of analysis outcomes across repeated task sets —
//! the admission-control cache behind `repro serve`.
//!
//! An admission controller sees the same task sets over and over: the
//! currently-admitted workload is re-analyzed with every candidate change,
//! and clients retry or poll with identical payloads. [`AnalysisLru`]
//! makes that traffic cheap without touching the analysis itself:
//!
//! * task sets are keyed by [`TaskSet::stable_hash`] (with a full equality
//!   check behind the hash, so 64-bit collisions cannot cross-pollute
//!   results) and kept in a bounded least-recently-used store;
//! * per task set, the cache remembers **per-method facts**, keyed by the
//!   exact [`AnalysisConfig`] the method ran under: the verdict, and — when
//!   they were materialized — the per-task response bounds. A request is a
//!   *hit* when every method it asks for is already answered, so repeat
//!   queries **and** near-repeats that recombine previously answered
//!   methods (e.g. all four methods first, `LP-sound` alone later) are
//!   O(lookup).
//!
//! Sharing verdicts across request shapes is sound: a method's
//! schedulability flag is the same fact whether it came from the
//! verdict-only dominance chain or from a bound-carrying fixed point —
//! the chain's short-circuits are exact (see
//! [`AnalysisRequest::evaluate`]), and only *requested* methods are ever
//! recorded, never the chain's internal placeholders.
//!
//! The cache cannot hold [`crate::TaskSetCache`]s directly — those borrow
//! their task set, and this crate forbids the `unsafe` a self-referential
//! owner would need — so a *near* lookup (set known, some requested method
//! not yet answered) re-derives the lazy tables. What the LRU buys is the
//! O(lookup) repeat path. Its facts are small (verdicts and bound vectors,
//! not the combinatorial tables); each entry also owns its built task set
//! and, when it came over the wire, that set's JSON text.
//!
//! **The text index.** A server that decodes its requests can look a
//! repeat up before decoding it: [`fetch_text`] finds the entry whose set
//! was first stored ([`store_text`]) from exactly the same `task_set` text,
//! by a hash of the text with full byte equality behind it. Equal text
//! decodes to an equal set, so the entry's facts answer it. A text miss
//! counts nothing: the caller decodes the text and asks [`fetch`], which
//! counts the hit, near-hit or miss, so every request is counted once.
//! Texts longer than [`MAX_TEXT_BYTES`] are never indexed, which bounds
//! the text a full cache holds to `capacity × MAX_TEXT_BYTES`.
//!
//! Locking discipline: [`fetch`] and [`store`] are split so a concurrent
//! server holds its mutex only for the O(lookup) parts and evaluates
//! outside the lock; single-threaded callers use [`analyze`].
//!
//! [`fetch`]: AnalysisLru::fetch
//! [`fetch_text`]: AnalysisLru::fetch_text
//! [`store`]: AnalysisLru::store
//! [`store_text`]: AnalysisLru::store_text
//! [`analyze`]: AnalysisLru::analyze
//!
//! # Example
//!
//! ```
//! use rta_analysis::{AnalysisLru, AnalysisRequest, CacheOutcome, Method};
//! use rta_model::examples::figure1_task_set;
//!
//! let mut lru = AnalysisLru::new(8);
//! let ts = figure1_task_set();
//! let all = AnalysisRequest::new(4);
//! assert_eq!(lru.analyze(&ts, &all).1, CacheOutcome::Miss);
//! // Identical repeat: answered from the memo.
//! assert_eq!(lru.analyze(&ts, &all).1, CacheOutcome::Hit);
//! // Near-repeat recombining already-answered methods: still a hit.
//! let sound = AnalysisRequest::new(4).with_methods([Method::LpSound]);
//! assert_eq!(lru.analyze(&ts, &sound).1, CacheOutcome::Hit);
//! ```

use crate::config::AnalysisConfig;
use crate::report::ResponseBound;
use crate::request::{AnalysisOutcome, AnalysisRequest, MethodOutcome};
use rta_model::TaskSet;
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::hash::BuildHasher;

/// Per-entry bound on remembered per-method facts. A cooperating client
/// reuses a handful of configurations; only an adversarial stream of
/// ever-new core counts could grow an entry without bound, so past the
/// cap the entry's facts are simply reset.
const MAX_FACTS_PER_SET: usize = 256;

/// The longest task-set text the [text index](self) keeps: a longer one
/// is looked up by its decoded set every time. Without the bound, a few
/// whitespace-padded frames could pin megabytes of text behind small sets.
pub const MAX_TEXT_BYTES: usize = 64 * 1024;

/// How a request was answered relative to the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Task set known and every requested method already answered.
    Hit,
    /// Task set known, but at least one requested method had to run.
    Near,
    /// Task set not in the cache.
    Miss,
}

impl CacheOutcome {
    /// The wire label (`"hit"` / `"near"` / `"miss"`).
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Near => "near",
            CacheOutcome::Miss => "miss",
        }
    }
}

/// Running counters of cache behaviour.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LruStats {
    /// Requests answered entirely from the memo.
    pub hits: u64,
    /// Requests on a cached set that still had to evaluate some method.
    pub near_hits: u64,
    /// Requests on an uncached set.
    pub misses: u64,
    /// Task-set entries displaced by the capacity bound.
    pub evictions: u64,
}

/// The JSON text an entry's set was decoded from, with its hash under the
/// owning cache's hasher.
struct Text {
    hash: u64,
    bytes: Box<str>,
}

/// One cached task set with its answered per-method facts.
struct Entry {
    key: u64,
    task_set: TaskSet,
    /// The text the set was first stored with, if any and if short enough.
    text: Option<Text>,
    /// Verdicts recorded from verdict-only evaluations.
    verdicts: HashMap<AnalysisConfig, bool>,
    /// Verdict + per-task bounds from bound-carrying evaluations.
    bounds: HashMap<AnalysisConfig, (bool, Vec<ResponseBound>)>,
    /// Recency stamp from the owner's monotone clock.
    last_used: u64,
}

impl Entry {
    fn fact_count(&self) -> usize {
        self.verdicts.len() + self.bounds.len()
    }

    /// Answers one method from the recorded facts, if present. A bound
    ///-carrying fact also answers the verdict-only shape of the same
    /// configuration (the flag is the same fixed point's answer); the
    /// converse direction is impossible.
    fn answer(&self, config: &AnalysisConfig, want_bounds: bool) -> Option<MethodOutcome> {
        let method = config.method;
        if want_bounds {
            let (schedulable, bounds) = self.bounds.get(config)?;
            Some(MethodOutcome {
                method,
                schedulable: *schedulable,
                bounds: Some(bounds.clone()),
            })
        } else {
            let schedulable = self
                .verdicts
                .get(config)
                .copied()
                .or_else(|| self.bounds.get(config).map(|(s, _)| *s))?;
            Some(MethodOutcome {
                method,
                schedulable,
                bounds: None,
            })
        }
    }
}

/// A bounded least-recently-used cache of analysis outcomes, keyed by
/// [`TaskSet::stable_hash`]. See the [module docs](self) for the design.
pub struct AnalysisLru {
    entries: Vec<Entry>,
    capacity: usize,
    clock: u64,
    stats: LruStats,
    /// Hashes entry texts. Seeded per cache, so a client cannot choose
    /// texts that all collide and force a byte comparison per entry.
    text_hasher: RandomState,
}

impl AnalysisLru {
    /// Creates a cache holding at most `capacity` task sets.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "capacity must be at least 1");
        Self {
            entries: Vec::new(),
            capacity,
            clock: 0,
            stats: LruStats::default(),
            text_hasher: RandomState::new(),
        }
    }

    /// Number of task sets currently cached.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The capacity this cache was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The running counters.
    pub fn stats(&self) -> LruStats {
        self.stats
    }

    /// Attempts to answer `request` from the cache alone — O(lookup), no
    /// analysis. On [`CacheOutcome::Hit`] the full outcome is returned and
    /// the entry's recency is bumped; otherwise the caller should evaluate
    /// the request (outside any lock guarding this cache) and hand the
    /// result to [`store`](Self::store).
    pub fn fetch(
        &mut self,
        task_set: &TaskSet,
        request: &AnalysisRequest,
    ) -> (Option<AnalysisOutcome>, CacheOutcome) {
        let Some(i) = self.position(task_set.stable_hash(), task_set) else {
            self.stats.misses += 1;
            crate::metrics::LRU_MISSES.inc();
            return (None, CacheOutcome::Miss);
        };
        if let Some(outcome) = self.hit(i, request) {
            return (Some(outcome), CacheOutcome::Hit);
        }
        self.touch(i);
        self.stats.near_hits += 1;
        crate::metrics::LRU_NEAR_HITS.inc();
        (None, CacheOutcome::Near)
    }

    /// Answers `request` from recorded facts only, or not at all — the
    /// degraded-mode fast path for callers shedding load. Behaves like
    /// [`fetch`](Self::fetch) on a full hit (recency bumped, hit counted);
    /// on anything less it returns `None` **without** counting a miss or
    /// near-hit, because no analysis follows — the caller refuses the
    /// request instead, and its own shed accounting covers that.
    pub fn fetch_facts(
        &mut self,
        task_set: &TaskSet,
        request: &AnalysisRequest,
    ) -> Option<AnalysisOutcome> {
        let i = self.position(task_set.stable_hash(), task_set)?;
        self.hit(i, request)
    }

    /// Answers `request` for the set whose JSON text is `text`, without
    /// decoding it: a full hit on the entry first stored with exactly
    /// this text by [`store_text`](Self::store_text) is counted and bumps
    /// recency as [`fetch`](Self::fetch)'s does. On anything less it
    /// returns `None` and counts nothing; the caller then decodes the text
    /// and calls [`fetch`](Self::fetch), which counts the outcome.
    pub fn fetch_text(&mut self, text: &str, request: &AnalysisRequest) -> Option<AnalysisOutcome> {
        if text.len() > MAX_TEXT_BYTES {
            return None;
        }
        let hash = self.text_hasher.hash_one(text);
        let i = self.entries.iter().position(|e| {
            e.text
                .as_ref()
                .is_some_and(|t| t.hash == hash && *t.bytes == *text)
        })?;
        let outcome = self.hit(i, request)?;
        crate::metrics::LRU_TEXT_HITS.inc();
        Some(outcome)
    }

    /// Records an evaluated outcome: every `(configuration, method)` fact
    /// it carries becomes answerable, creating (and if necessary evicting
    /// to make room for) the task set's entry.
    pub fn store(
        &mut self,
        task_set: &TaskSet,
        request: &AnalysisRequest,
        outcome: &AnalysisOutcome,
    ) {
        let key = task_set.stable_hash();
        let i = match self.position(key, task_set) {
            Some(i) => i,
            None => self.insert(key, task_set.clone()),
        };
        self.record(i, request, outcome);
    }

    /// As [`store`](Self::store), for a set decoded from the JSON `text`:
    /// the set moves into a new entry, and the entry is indexed by `text`
    /// for [`fetch_text`](Self::fetch_text) unless the text is longer than
    /// [`MAX_TEXT_BYTES`]. An existing entry without a text gains this one.
    ///
    /// `text` must be the text `task_set` was decoded from.
    pub fn store_text(
        &mut self,
        text: &str,
        task_set: TaskSet,
        request: &AnalysisRequest,
        outcome: &AnalysisOutcome,
    ) {
        debug_assert_eq!(
            rta_model::json::task_set_from_json(text).as_ref(),
            Ok(&task_set),
            "the text decodes to the stored set"
        );
        let key = task_set.stable_hash();
        let i = match self.position(key, &task_set) {
            Some(i) => i,
            None => self.insert(key, task_set),
        };
        if self.entries[i].text.is_none() && text.len() <= MAX_TEXT_BYTES {
            let hash = self.text_hasher.hash_one(text);
            self.entries[i].text = Some(Text {
                hash,
                bytes: text.into(),
            });
        }
        self.record(i, request, outcome);
    }

    /// The entry holding `task_set`, whose stable hash is `key`.
    fn position(&self, key: u64, task_set: &TaskSet) -> Option<usize> {
        self.entries
            .iter()
            .position(|e| e.key == key && e.task_set == *task_set)
    }

    /// Marks entry `i` as the most recently used.
    fn touch(&mut self, i: usize) {
        self.clock += 1;
        self.entries[i].last_used = self.clock;
    }

    /// Answers `request` from entry `i`'s facts. A full hit bumps the
    /// entry's recency and counts the hit; anything less returns `None`
    /// and changes nothing.
    fn hit(&mut self, i: usize, request: &AnalysisRequest) -> Option<AnalysisOutcome> {
        let entry = &self.entries[i];
        let outcomes: Vec<MethodOutcome> = request
            .methods
            .iter()
            .map(|&m| entry.answer(&request.config_for(m), request.want_bounds))
            .collect::<Option<_>>()?;
        self.touch(i);
        self.stats.hits += 1;
        crate::metrics::LRU_HITS.inc();
        Some(AnalysisOutcome::from_parts(request.cores, outcomes))
    }

    /// Adds an entry for `task_set`, evicting the least recently used one
    /// when the cache is full, and returns its index.
    fn insert(&mut self, key: u64, task_set: TaskSet) -> usize {
        if self.entries.len() == self.capacity {
            let (lru, _) = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.last_used)
                .expect("capacity >= 1, so a full cache is non-empty");
            self.entries.swap_remove(lru);
            self.stats.evictions += 1;
            crate::metrics::LRU_EVICTIONS.inc();
        }
        self.entries.push(Entry {
            key,
            task_set,
            text: None,
            verdicts: HashMap::new(),
            bounds: HashMap::new(),
            last_used: 0,
        });
        self.entries.len() - 1
    }

    /// Records the facts `outcome` carries in entry `i` and bumps its
    /// recency.
    fn record(&mut self, i: usize, request: &AnalysisRequest, outcome: &AnalysisOutcome) {
        self.touch(i);
        let entry = &mut self.entries[i];
        if entry.fact_count() + outcome.outcomes().len() > MAX_FACTS_PER_SET {
            entry.verdicts.clear();
            entry.bounds.clear();
        }
        for answer in outcome.outcomes() {
            let config = request.config_for(answer.method);
            match &answer.bounds {
                Some(bounds) => {
                    entry
                        .bounds
                        .insert(config, (answer.schedulable, bounds.clone()));
                }
                None => {
                    entry.verdicts.insert(config, answer.schedulable);
                }
            }
        }
    }

    /// Fetch-or-evaluate convenience for single-threaded callers: answers
    /// from the cache when possible, otherwise evaluates and stores.
    pub fn analyze(
        &mut self,
        task_set: &TaskSet,
        request: &AnalysisRequest,
    ) -> (AnalysisOutcome, CacheOutcome) {
        match self.fetch(task_set, request) {
            (Some(outcome), status) => (outcome, status),
            (None, status) => {
                let outcome = request.evaluate(task_set);
                self.store(task_set, request, &outcome);
                (outcome, status)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Method;
    use rta_model::examples::figure1_task_set;
    use rta_model::{DagBuilder, DagTask};

    fn small_set(wcet: u64, period: u64) -> TaskSet {
        let mut b = DagBuilder::new();
        b.add_node(wcet);
        TaskSet::new(vec![DagTask::with_implicit_deadline(
            b.build().unwrap(),
            period,
        )
        .unwrap()])
    }

    #[test]
    fn repeat_and_recombined_queries_hit() {
        let mut lru = AnalysisLru::new(4);
        let ts = figure1_task_set();
        let all = AnalysisRequest::new(4);
        assert_eq!(lru.analyze(&ts, &all).1, CacheOutcome::Miss);
        let (outcome, status) = lru.analyze(&ts, &all);
        assert_eq!(status, CacheOutcome::Hit);
        assert_eq!(outcome, all.evaluate(&ts));
        // Any subset of the answered methods is a hit, in any order.
        let sub = AnalysisRequest::new(4).with_methods([Method::LpSound, Method::FpIdeal]);
        let (outcome, status) = lru.analyze(&ts, &sub);
        assert_eq!(status, CacheOutcome::Hit);
        assert_eq!(outcome, sub.evaluate(&ts));
    }

    #[test]
    fn bounds_answer_verdicts_but_not_vice_versa() {
        let mut lru = AnalysisLru::new(4);
        let ts = figure1_task_set();
        let with_bounds = AnalysisRequest::new(4).with_bounds(true);
        lru.analyze(&ts, &with_bounds);
        // Bound-carrying facts answer the verdict-only shape...
        let verdicts_only = AnalysisRequest::new(4);
        assert_eq!(lru.analyze(&ts, &verdicts_only).1, CacheOutcome::Hit);
        // ...but verdict facts cannot conjure bounds: a different platform
        // slice has only verdicts recorded, so asking it for bounds is Near.
        let narrow = AnalysisRequest::new(2);
        lru.analyze(&ts, &narrow);
        let narrow_bounds = AnalysisRequest::new(2).with_bounds(true);
        assert_eq!(lru.analyze(&ts, &narrow_bounds).1, CacheOutcome::Near);
    }

    #[test]
    fn near_hits_on_new_methods_then_hit() {
        let mut lru = AnalysisLru::new(4);
        let ts = figure1_task_set();
        let fp = AnalysisRequest::new(4).with_methods([Method::FpIdeal]);
        lru.analyze(&ts, &fp);
        let more = AnalysisRequest::new(4).with_methods([Method::FpIdeal, Method::LpMax]);
        assert_eq!(lru.analyze(&ts, &more).1, CacheOutcome::Near);
        assert_eq!(lru.analyze(&ts, &more).1, CacheOutcome::Hit);
        assert_eq!(
            lru.stats(),
            LruStats {
                hits: 1,
                near_hits: 1,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn eviction_displaces_the_least_recently_used_set() {
        let mut lru = AnalysisLru::new(2);
        let a = small_set(1, 10);
        let b = small_set(2, 10);
        let c = small_set(3, 10);
        let req = AnalysisRequest::new(2);
        lru.analyze(&a, &req);
        lru.analyze(&b, &req);
        lru.analyze(&a, &req); // touch a: b is now the LRU entry
        lru.analyze(&c, &req); // evicts b
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.stats().evictions, 1);
        assert_eq!(lru.analyze(&a, &req).1, CacheOutcome::Hit);
        assert_eq!(lru.analyze(&c, &req).1, CacheOutcome::Hit);
        assert_eq!(lru.analyze(&b, &req).1, CacheOutcome::Miss);
    }

    #[test]
    fn hash_collisions_cannot_cross_pollute() {
        // Force a collision by lying about the key: two entries with equal
        // keys but different sets must still resolve by full equality.
        let mut lru = AnalysisLru::new(4);
        let a = small_set(1, 10);
        let b = small_set(9, 10);
        let req = AnalysisRequest::new(2);
        let (outcome_a, _) = lru.analyze(&a, &req);
        lru.entries[0].key = b.stable_hash();
        assert_eq!(lru.analyze(&b, &req).1, CacheOutcome::Miss);
        let (outcome_b, _) = lru.analyze(&b, &req);
        assert_eq!(outcome_a, req.evaluate(&a));
        assert_eq!(outcome_b, req.evaluate(&b));
    }

    #[test]
    fn structurally_equal_sets_share_an_entry() {
        let mut lru = AnalysisLru::new(4);
        let req = AnalysisRequest::new(2);
        lru.analyze(&small_set(1, 10), &req);
        // An independently built but equal set is the same cache line.
        assert_eq!(lru.analyze(&small_set(1, 10), &req).1, CacheOutcome::Hit);
        assert_eq!(lru.len(), 1);
    }

    #[test]
    fn fact_bound_resets_instead_of_growing() {
        let mut lru = AnalysisLru::new(1);
        let ts = figure1_task_set();
        for cores in 1..=(MAX_FACTS_PER_SET + 2) {
            let req = AnalysisRequest::new(cores).with_methods([Method::FpIdeal]);
            lru.analyze(&ts, &req);
        }
        assert_eq!(lru.len(), 1);
        assert!(lru.entries[0].fact_count() <= MAX_FACTS_PER_SET);
    }

    #[test]
    fn empty_method_lists_only_hit_known_sets() {
        let mut lru = AnalysisLru::new(2);
        let ts = small_set(1, 10);
        let none = AnalysisRequest::new(2).with_methods([]);
        assert_eq!(lru.analyze(&ts, &none).1, CacheOutcome::Miss);
        assert_eq!(lru.analyze(&ts, &none).1, CacheOutcome::Hit);
    }

    #[test]
    fn facts_only_path_answers_hits_and_refuses_everything_else() {
        let mut lru = AnalysisLru::new(4);
        let ts = figure1_task_set();
        let req = AnalysisRequest::new(4);
        // Nothing recorded: no answer, and no miss/near counted — the
        // caller refuses the request and accounts for it as shed.
        assert_eq!(lru.fetch_facts(&ts, &req), None);
        lru.analyze(&ts, &req);
        let stats_before = lru.stats();
        let outcome = lru.fetch_facts(&ts, &req).expect("recorded facts");
        assert_eq!(outcome, req.evaluate(&ts));
        assert_eq!(lru.stats().hits, stats_before.hits + 1);
        // A shape needing facts that were never recorded is refused, and
        // neither the miss nor the near-hit counter moves.
        let bounds = AnalysisRequest::new(4).with_bounds(true);
        assert_eq!(lru.fetch_facts(&ts, &bounds), None);
        assert_eq!(lru.stats().misses, stats_before.misses);
        assert_eq!(lru.stats().near_hits, stats_before.near_hits);
        // The hit bumped recency: under eviction pressure the facts-served
        // set survives over one analyzed earlier but never re-touched.
        let mut lru = AnalysisLru::new(2);
        let small = AnalysisRequest::new(2);
        let a = small_set(1, 10);
        let b = small_set(2, 10);
        lru.analyze(&a, &small);
        lru.analyze(&b, &small);
        lru.fetch_facts(&a, &small).expect("a is cached");
        lru.analyze(&small_set(3, 10), &small); // evicts b, not a
        assert_eq!(lru.analyze(&a, &small).1, CacheOutcome::Hit);
        assert_eq!(lru.analyze(&b, &small).1, CacheOutcome::Miss);
    }

    /// Analyzes `text`'s set the way a server does on a text miss: decode,
    /// fetch, evaluate, then the owning store.
    fn serve_text(lru: &mut AnalysisLru, text: &str, request: &AnalysisRequest) -> CacheOutcome {
        if lru.fetch_text(text, request).is_some() {
            return CacheOutcome::Hit;
        }
        let ts = rta_model::json::task_set_from_json(text).expect("test texts decode");
        let (cached, status) = lru.fetch(&ts, request);
        if cached.is_none() {
            let outcome = request.evaluate(&ts);
            lru.store_text(text, ts, request, &outcome);
        }
        status
    }

    #[test]
    fn text_hits_answer_exact_repeats_and_count_once() {
        let mut lru = AnalysisLru::new(4);
        let ts = figure1_task_set();
        let text = rta_model::json::task_set_to_json_compact(&ts);
        let all = AnalysisRequest::new(4);
        assert_eq!(lru.fetch_text(&text, &all), None);
        assert_eq!(
            lru.stats(),
            LruStats::default(),
            "a text miss counts nothing"
        );
        assert_eq!(serve_text(&mut lru, &text, &all), CacheOutcome::Miss);
        assert_eq!(lru.fetch_text(&text, &all), Some(all.evaluate(&ts)));
        assert_eq!(lru.stats().hits, 1);
        // A subset of the answered methods is a text hit too; a new shape
        // is not, and counts nothing until `fetch` sees the decoded set.
        let sound = AnalysisRequest::new(4).with_methods([Method::LpSound]);
        assert_eq!(lru.fetch_text(&text, &sound), Some(sound.evaluate(&ts)));
        let bounds = AnalysisRequest::new(4).with_bounds(true);
        let before = lru.stats();
        assert_eq!(lru.fetch_text(&text, &bounds), None);
        assert_eq!(lru.stats(), before);
        assert_eq!(serve_text(&mut lru, &text, &bounds), CacheOutcome::Near);
        assert_eq!(serve_text(&mut lru, &text, &bounds), CacheOutcome::Hit);
        // The same set spelled differently shares the entry, through the
        // decoded set; only the first text is indexed.
        let pretty = rta_model::json::task_set_to_json(&ts);
        assert_eq!(lru.fetch_text(&pretty, &all), None);
        assert_eq!(serve_text(&mut lru, &pretty, &all), CacheOutcome::Hit);
        assert_eq!(lru.len(), 1);
        assert_eq!(
            lru.stats(),
            LruStats {
                hits: 4,
                near_hits: 1,
                misses: 1,
                evictions: 0
            }
        );
    }

    #[test]
    fn an_entry_stored_by_reference_gains_its_first_text() {
        let mut lru = AnalysisLru::new(4);
        let ts = small_set(1, 10);
        let req = AnalysisRequest::new(2);
        lru.analyze(&ts, &req);
        let text = rta_model::json::task_set_to_json_compact(&ts);
        assert_eq!(lru.fetch_text(&text, &req), None);
        lru.store_text(&text, ts.clone(), &req, &req.evaluate(&ts));
        assert!(lru.fetch_text(&text, &req).is_some());
        let respelled = format!(" {text}");
        lru.store_text(&respelled, ts.clone(), &req, &req.evaluate(&ts));
        assert_eq!(lru.fetch_text(&respelled, &req), None);
        assert!(lru.fetch_text(&text, &req).is_some());
    }

    #[test]
    fn long_texts_are_never_indexed_and_evictions_drop_texts() {
        let mut lru = AnalysisLru::new(1);
        let ts = small_set(1, 10);
        let req = AnalysisRequest::new(2);
        let compact = rta_model::json::task_set_to_json_compact(&ts);
        let padded = format!("{compact}{}", " ".repeat(MAX_TEXT_BYTES));
        assert_eq!(serve_text(&mut lru, &padded, &req), CacheOutcome::Miss);
        assert!(lru.entries[0].text.is_none());
        assert_eq!(lru.fetch_text(&padded, &req), None);
        assert_eq!(serve_text(&mut lru, &padded, &req), CacheOutcome::Hit);
        // At the limit the text is still indexed.
        let other = small_set(2, 10);
        let compact = rta_model::json::task_set_to_json_compact(&other);
        let at_limit = format!("{compact}{}", " ".repeat(MAX_TEXT_BYTES - compact.len()));
        assert_eq!(serve_text(&mut lru, &at_limit, &req), CacheOutcome::Miss);
        assert_eq!(lru.stats().evictions, 1);
        assert!(lru.fetch_text(&at_limit, &req).is_some());
        // Evicting the entry drops its text with it.
        assert_eq!(serve_text(&mut lru, &padded, &req), CacheOutcome::Miss);
        assert_eq!(lru.fetch_text(&at_limit, &req), None);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_panics() {
        let _ = AnalysisLru::new(0);
    }
}
