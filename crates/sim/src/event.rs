//! The binary-heap event queue driving the simulator.
//!
//! Every state change in the simulator is an [`Event`] popped from an
//! [`EventQueue`]: job releases, node completions and deferred preemption
//! boundaries. The queue is a [`BinaryHeap`] ordered by a private key, so
//! pushes and pops are `O(log n)` with no per-event allocation once the
//! heap has grown.
//!
//! # Deterministic ordering
//!
//! Entries are totally ordered by `(time, tie)` where `tie` is a monotone
//! insertion counter: events at the same instant pop in the order they were
//! scheduled (FIFO), which makes every run bit-for-bit deterministic for a
//! given seed. Because ties are broken by *relative* insertion order,
//! inserting additional marker events (such as
//! [`Event::PreemptionBoundary`]) never reorders the events around them —
//! the guarantee the step-loop equivalence proptests rely on.

use rta_model::Time;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One scheduled occurrence in the simulation.
///
/// Index payloads are `u32`, not `usize`: the heap moves [`Scheduled`]
/// entries by value on every sift, so keeping the enum at 16 bytes (and
/// the entry at 32) measurably cuts the queue's memory traffic. Task,
/// core and node counts are nowhere near the `u32` range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Event {
    /// A job of task `task` is released.
    Release {
        /// Task index (= priority).
        task: u32,
    },
    /// The node running on `core` under `assignment` finishes. Stale
    /// completions (the node was preempted and `assignment` no longer
    /// matches the core's current one) are dropped by the engine.
    NodeCompletion {
        /// Core the node was assigned to.
        core: u32,
        /// Assignment id the completion belongs to.
        assignment: u64,
    },
    /// A deferred preemption point: under the lazy policy a waiting
    /// higher-priority job preempts only the lowest-priority running job,
    /// at that job's next node boundary. The engine schedules this marker
    /// at the victim's boundary when it honours a continuation claim; by
    /// construction the victim's own [`Event::NodeCompletion`] at the same
    /// instant carries an earlier tie, so the marker always arrives stale
    /// and is a provable no-op — it exists to make the deferred boundary
    /// first-class in the event stream (and countable in the outcome).
    PreemptionBoundary {
        /// Core the victim was running on when the claim was honoured.
        core: u32,
        /// The victim's assignment id at that point.
        assignment: u64,
    },
}

/// A heap entry: an [`Event`] with its firing time and insertion tie.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Scheduled {
    /// Firing time.
    pub time: Time,
    /// Monotone insertion counter breaking same-instant ties FIFO.
    pub tie: u64,
    /// The event itself.
    pub event: Event,
}

/// A queued [`Scheduled`] entry, ordered by its reversed `(time, tie)` key
/// alone, so std's max-heap pops the earliest entry first. `tie` is unique
/// per queue, so no two entries compare equal.
#[derive(Clone, Copy, Debug)]
struct Pending(Scheduled);

impl Pending {
    fn key(&self) -> Reverse<(Time, u64)> {
        Reverse((self.0.time, self.0.tie))
    }
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// Min-queue of [`Scheduled`] entries ordered by `(time, tie)`.
#[derive(Clone, Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Pending>,
    tie: u64,
    high_water: usize,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no event is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events ever scheduled (the current tie counter).
    pub fn scheduled_total(&self) -> u64 {
        self.tie
    }

    /// Largest number of events ever pending at once — the queue's memory
    /// footprint high-water mark.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Schedules `event` at `time`, after every event already scheduled
    /// for the same instant.
    pub fn push(&mut self, time: Time, event: Event) {
        self.tie += 1;
        self.heap.push(Pending(Scheduled {
            time,
            tie: self.tie,
            event,
        }));
        self.high_water = self.high_water.max(self.heap.len());
    }

    /// Firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|p| p.0.time)
    }

    /// Pops the earliest pending event.
    pub fn pop(&mut self) -> Option<Scheduled> {
        self.heap.pop().map(|p| p.0)
    }

    /// Pops the earliest pending event only if it fires exactly at `now` —
    /// the engine's drain-the-instant loop.
    pub fn pop_at(&mut self, now: Time) -> Option<Scheduled> {
        if self.peek_time() == Some(now) {
            self.pop()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(5, Event::Release { task: 0 });
        q.push(1, Event::Release { task: 1 });
        q.push(3, Event::Release { task: 2 });
        let times: Vec<Time> = std::iter::from_fn(|| q.pop()).map(|s| s.time).collect();
        assert_eq!(times, vec![1, 3, 5]);
    }

    #[test]
    fn same_instant_pops_fifo() {
        let mut q = EventQueue::new();
        for task in 0..8 {
            q.push(7, Event::Release { task });
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|s| match s.event {
                Event::Release { task } => task,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.push(4, Event::Release { task: 0 });
        q.push(2, Event::Release { task: 1 });
        assert_eq!(q.pop().unwrap().time, 2);
        q.push(1, Event::Release { task: 2 });
        q.push(4, Event::Release { task: 3 });
        assert_eq!(q.pop().unwrap().time, 1);
        // The two time-4 entries pop in insertion order.
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        assert_eq!((a.time, b.time), (4, 4));
        assert!(a.tie < b.tie);
        assert_eq!(a.event, Event::Release { task: 0 });
        assert!(q.is_empty());
    }

    #[test]
    fn pop_at_respects_the_instant() {
        let mut q = EventQueue::new();
        q.push(3, Event::Release { task: 0 });
        q.push(3, Event::Release { task: 1 });
        q.push(9, Event::Release { task: 2 });
        assert!(q.pop_at(2).is_none());
        assert!(q.pop_at(3).is_some());
        assert!(q.pop_at(3).is_some());
        assert!(q.pop_at(3).is_none());
        assert_eq!(q.peek_time(), Some(9));
    }

    /// A random queue workload, one step per entry: `(0 | 1, time)` pushes
    /// at `time`, `(2, _)` pops, and `(3, time)` pops at `time`.
    fn ops() -> impl Strategy<Value = Vec<(u8, Time)>> {
        proptest::collection::vec((0u8..4, 0u64..4), 0..200)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of `push`, `pop` and `pop_at` against a
        /// sorted reference. Times come from a small range, so most pops
        /// break a tie; every pop must return the reference's minimum by
        /// `(time, insertion order)`.
        #[test]
        fn pops_match_a_sorted_reference(ops in ops()) {
            let mut q = EventQueue::new();
            // Pending `(time, tie)` pairs; `tie` is the 1-based insertion
            // number, and the event names it too.
            let mut reference: Vec<(Time, u64)> = Vec::new();
            let (mut pushed, mut high_water) = (0u64, 0usize);
            for (op, time) in ops {
                let expected = reference.iter().copied().min();
                let popped = match op {
                    0 | 1 => {
                        pushed += 1;
                        q.push(time, Event::Release { task: pushed as u32 });
                        reference.push((time, pushed));
                        high_water = high_water.max(reference.len());
                        None
                    }
                    2 => Some((q.pop(), expected)),
                    _ => Some((q.pop_at(time), expected.filter(|&(t, _)| t == time))),
                };
                if let Some((got, want)) = popped {
                    let want = want.map(|(time, tie)| Scheduled {
                        time,
                        tie,
                        event: Event::Release { task: tie as u32 },
                    });
                    prop_assert_eq!(got, want);
                    if let Some(entry) = want {
                        reference.retain(|&(_, tie)| tie != entry.tie);
                    }
                }
                prop_assert_eq!(q.len(), reference.len());
                prop_assert_eq!(q.peek_time(), reference.iter().map(|&(t, _)| t).min());
                prop_assert_eq!(q.high_water(), high_water);
                prop_assert_eq!(q.scheduled_total(), pushed);
            }
        }
    }
}
