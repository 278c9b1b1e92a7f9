//! The campaign execution substrate: how sweep work is spread over cores.
//!
//! Every experiment in this crate reduces to "evaluate a list of
//! independent, deterministic jobs" — one schedulability test per generated
//! task set, seeded purely from its sweep coordinates (see
//! [`set_seed`](crate::set_seed)). One worker pool runs every such list:
//!
//! * [`stream_indexed`] is the **order-preserving worker channel**: it
//!   delivers each result to a consumer callback *on the calling thread,
//!   in index order, as soon as it is ready*, holding at most a bounded
//!   reorder window in memory — so a sweep of a million cells feeds its
//!   per-point fold (and the streaming [`CsvSink`](crate::csv::CsvSink))
//!   without ever materializing the result list;
//! * `fold_points` runs a `points × sets` grid through it and folds each
//!   point's cells into a per-point accumulator — the loop every sweep
//!   panel shares.
//!
//! Results reach the caller in input order, so any fold over them is
//! bit-identical regardless of the worker count. That property is what
//! lets `repro --jobs 1` and `repro --jobs 32` print the same bytes. The
//! pool runs on the standard library's scoped threads; with one worker it
//! is the plain serial loop, evaluation and fold interleaved.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// How many workers a campaign may use.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Jobs {
    /// One worker per available core (the default).
    #[default]
    Auto,
    /// Exactly this many workers; `0` and `1` both mean serial.
    Count(usize),
}

impl Jobs {
    /// Parses the `--jobs N` CLI value (`0` = auto).
    pub fn from_flag(n: usize) -> Self {
        if n == 0 {
            Jobs::Auto
        } else {
            Jobs::Count(n)
        }
    }

    /// The serial driver.
    pub fn serial() -> Self {
        Jobs::Count(1)
    }

    /// The worker count this setting resolves to on this machine.
    pub fn worker_count(self) -> usize {
        match self {
            Jobs::Auto => std::thread::available_parallelism().map_or(1, |n| n.get()),
            Jobs::Count(n) => n.max(1),
        }
    }
}

/// Streams a grid of `points × sets` cells over the pool and folds each
/// point's cells into a fresh accumulator: `eval(point, set)` runs on a
/// worker, `add(&mut acc, cell)` on the calling thread in coordinate
/// order, and `emit(point, acc)` the moment the point's last set has
/// folded. Every sweep panel is this loop; only its accumulator differs.
///
/// Folding in coordinate order keeps even floating-point sums
/// bit-identical for every worker count.
pub(crate) fn fold_points<R, A, F>(
    points: usize,
    sets: usize,
    jobs: Jobs,
    eval: F,
    mut add: impl FnMut(&mut A, R),
    mut emit: impl FnMut(usize, A),
) where
    R: Send,
    A: Default,
    F: Fn(usize, usize) -> R + Sync,
{
    if sets == 0 {
        return;
    }
    let mut acc = A::default();
    stream_indexed(
        points * sets,
        jobs,
        |index| eval(index / sets, index % sets),
        |index, cell| {
            add(&mut acc, cell);
            if index % sets == sets - 1 {
                emit(index / sets, std::mem::take(&mut acc));
            }
        },
    );
}

/// Streams `len` independent evaluations over [`Jobs::worker_count`]
/// workers, delivering each result to `consume` **on the calling thread,
/// in index order**, as soon as it (and all its predecessors) is ready.
///
/// The result list never materializes: at most a bounded reorder window
/// (a small multiple of the worker count) of results exists at any
/// instant, with workers back-pressured once they run that far ahead of
/// the consumer — the memory footprint of a sweep does not grow with its
/// cell count. Work indices are claimed dynamically, so the load balances
/// itself. A panic in `eval` or `consume` releases every waiting thread
/// and reaches the caller.
///
/// `eval` must be pure: its result may depend only on the index, which is
/// what makes every worker count interchangeable. `consume` runs strictly
/// sequentially and may hold `&mut` state — the per-point folds and CSV
/// sinks of a campaign live there.
pub fn stream_indexed<R, F, C>(len: usize, jobs: Jobs, eval: F, mut consume: C)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    C: FnMut(usize, R),
{
    let workers = jobs.worker_count().min(len);
    if workers > 1 {
        stream_parallel(len, workers, &eval, &mut consume);
    } else {
        for index in 0..len {
            consume(index, eval(index));
        }
    }
}

fn stream_parallel<R, F, C>(len: usize, workers: usize, eval: &F, consume: &mut C)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    C: FnMut(usize, R),
{
    /// Consumer-side cursor plus the reorder buffer, under one lock so the
    /// condition variable's predicate is race-free. `dead` releases every
    /// waiter when either side unwinds (a blocked worker must never
    /// deadlock the scope's implicit join).
    struct Shared<R> {
        buffer: BTreeMap<usize, R>,
        emitted: usize,
        dead: bool,
    }

    let window = (2 * workers).max(16);
    let shared = Mutex::new(Shared::<R> {
        buffer: BTreeMap::new(),
        emitted: 0,
        dead: false,
    });
    let signal = Condvar::new();
    let next_claim = AtomicUsize::new(0);

    struct Release<'a, R> {
        shared: &'a Mutex<Shared<R>>,
        signal: &'a Condvar,
        only_on_panic: bool,
    }
    impl<R> Drop for Release<'_, R> {
        fn drop(&mut self) {
            if self.only_on_panic && !std::thread::panicking() {
                return;
            }
            if let Ok(mut guard) = self.shared.lock() {
                guard.dead = true;
            }
            self.signal.notify_all();
        }
    }

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                // A worker that unwinds mid-`eval` wakes the consumer (and
                // its peers) instead of leaving them waiting on a result
                // that will never arrive.
                let _abort = Release {
                    shared: &shared,
                    signal: &signal,
                    only_on_panic: true,
                };
                loop {
                    let index = next_claim.fetch_add(1, Ordering::Relaxed);
                    if index >= len {
                        break;
                    }
                    {
                        // Backpressure: stay within `window` of the consumer.
                        let mut guard = shared.lock().expect("stream state poisoned");
                        while !guard.dead && index >= guard.emitted.saturating_add(window) {
                            guard = signal.wait(guard).expect("stream state poisoned");
                        }
                        if guard.dead {
                            break;
                        }
                    }
                    let value = eval(index);
                    shared
                        .lock()
                        .expect("stream state poisoned")
                        .buffer
                        .insert(index, value);
                    signal.notify_all();
                }
            });
        }
        // If `consume` unwinds, every blocked worker is released before the
        // scope joins; on normal exit this is a no-op (all work is done).
        let _release = Release {
            shared: &shared,
            signal: &signal,
            only_on_panic: false,
        };
        for index in 0..len {
            let value = {
                let mut guard = shared.lock().expect("stream state poisoned");
                loop {
                    if let Some(value) = guard.buffer.remove(&index) {
                        guard.emitted = index + 1;
                        break value;
                    }
                    assert!(!guard.dead, "stream worker panicked");
                    guard = signal.wait(guard).expect("stream state poisoned");
                }
            };
            signal.notify_all();
            consume(index, value);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parsing() {
        assert_eq!(Jobs::from_flag(0), Jobs::Auto);
        assert_eq!(Jobs::from_flag(1), Jobs::Count(1));
        assert_eq!(Jobs::from_flag(8), Jobs::Count(8));
        assert_eq!(Jobs::serial().worker_count(), 1);
        assert!(Jobs::Auto.worker_count() >= 1);
    }

    #[test]
    fn empty_input() {
        for jobs in [Jobs::serial(), Jobs::Auto] {
            stream_indexed(0, jobs, |i| i, |i, _| panic!("cell {i} of none"));
        }
    }

    #[test]
    fn stream_delivers_in_index_order_for_every_driver() {
        for jobs in [Jobs::serial(), Jobs::Count(3), Jobs::Count(8), Jobs::Auto] {
            let mut seen = Vec::new();
            stream_indexed(
                400,
                jobs,
                |i| i as u64 * 7 + 1,
                |i, v| {
                    assert_eq!(v, i as u64 * 7 + 1);
                    seen.push(i);
                },
            );
            assert_eq!(seen, (0..400).collect::<Vec<_>>(), "jobs = {jobs:?}");
        }
    }

    #[test]
    fn stream_consumer_holds_mutable_state() {
        // The whole point of the streaming driver: the fold lives in a
        // FnMut on the calling thread.
        let mut sum = 0u64;
        stream_indexed(100, Jobs::Count(4), |i| i as u64, |_, v| sum += v);
        assert_eq!(sum, 99 * 100 / 2);
    }

    #[test]
    fn stream_bounds_the_reorder_window() {
        // With a slow consumer, workers must not race arbitrarily far
        // ahead: the largest evaluated index can exceed the consumed
        // prefix by at most the window (2·workers, floored at 16) plus
        // the workers' in-flight claims.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let workers = 4usize;
        let max_evaluated = AtomicUsize::new(0);
        let mut consumed = 0usize;
        stream_indexed(
            600,
            Jobs::Count(workers),
            |i| {
                max_evaluated.fetch_max(i, Ordering::Relaxed);
                i
            },
            |i, _| {
                let ahead = max_evaluated.load(Ordering::Relaxed).saturating_sub(i);
                assert!(
                    ahead <= 16 + 2 * workers,
                    "worker ran {ahead} cells ahead of the consumer"
                );
                consumed += 1;
            },
        );
        assert_eq!(consumed, 600);
    }

    #[test]
    fn stream_empty_is_a_no_op() {
        stream_indexed(0, Jobs::Auto, |_| 0u8, |_, _| panic!("no cells to consume"));
    }

    #[test]
    fn fold_points_emits_each_point_in_order_for_every_driver() {
        for jobs in [Jobs::serial(), Jobs::Count(3), Jobs::Auto] {
            let mut emitted = Vec::new();
            fold_points(
                5,
                7,
                jobs,
                |point, set| point * 100 + set,
                |acc: &mut Vec<usize>, cell| acc.push(cell),
                |point, acc| emitted.push((point, acc)),
            );
            let expected: Vec<(usize, Vec<usize>)> = (0..5)
                .map(|p| (p, (0..7).map(|s| p * 100 + s).collect()))
                .collect();
            assert_eq!(emitted, expected, "jobs = {jobs:?}");
        }
        fold_points(
            4,
            0,
            Jobs::Auto,
            |_, _| 0u8,
            |_: &mut u8, _| panic!("no cells"),
            |_, _| panic!("no points"),
        );
    }

    // A panic on either side of the channel must reach the caller rather
    // than leave a thread waiting on a result that never arrives.

    #[test]
    #[should_panic(expected = "stream worker panicked")]
    fn a_panicking_eval_reaches_the_caller() {
        stream_indexed(
            400,
            Jobs::Count(4),
            |i| {
                assert_ne!(i, 137, "cell 137 fails");
                i
            },
            |_, _| {},
        );
    }

    #[test]
    #[should_panic(expected = "consumer fails at 50")]
    fn a_panicking_consumer_reaches_the_caller() {
        stream_indexed(
            400,
            Jobs::Count(4),
            |i| i,
            |i, _| assert_ne!(i, 50, "consumer fails at 50"),
        );
    }
}
