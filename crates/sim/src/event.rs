//! The indexed binary-heap event queue driving the simulator.
//!
//! Every state change in the simulator is an [`Event`] popped from an
//! [`EventQueue`]: job releases, node completions and deferred preemption
//! boundaries. The queue is a hand-rolled indexed binary min-heap over a
//! flat `Vec` — entries are addressed by heap index and moved with
//! `swap`-based sift operations, so pushes and pops are `O(log n)` with no
//! per-event allocation.
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

/// Indexed binary min-heap of [`Scheduled`] entries ordered by
/// `(time, tie)`.
#[derive(Clone, Debug, Default)]
pub struct EventQueue {
    heap: Vec<Scheduled>,
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
        let entry = Scheduled {
            time,
            tie: self.tie,
            event,
        };
        // Hole-based sift-up: shift larger parents down and write the new
        // entry once, instead of swapping it level by level.
        self.heap.push(entry);
        self.high_water = self.high_water.max(self.heap.len());
        let mut i = self.heap.len() - 1;
        let key = (time, self.tie);
        while i > 0 {
            let parent = (i - 1) / 2;
            if key < self.key(parent) {
                self.heap[i] = self.heap[parent];
                i = parent;
            } else {
                break;
            }
        }
        self.heap[i] = entry;
    }

    /// Firing time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.first().map(|s| s.time)
    }

    /// Pops the earliest pending event.
    pub fn pop(&mut self) -> Option<Scheduled> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("heap is non-empty");
        if !self.heap.is_empty() {
            // Hole-based sift-down of the displaced last entry: shift
            // smaller children up and write `last` once at its final slot.
            let n = self.heap.len();
            let key = (last.time, last.tie);
            let mut i = 0;
            loop {
                let left = 2 * i + 1;
                if left >= n {
                    break;
                }
                let right = left + 1;
                let child = if right < n && self.key(right) < self.key(left) {
                    right
                } else {
                    left
                };
                if self.key(child) < key {
                    self.heap[i] = self.heap[child];
                    i = child;
                } else {
                    break;
                }
            }
            self.heap[i] = last;
        }
        Some(top)
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

    fn key(&self, i: usize) -> (Time, u64) {
        (self.heap[i].time, self.heap[i].tie)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
}
