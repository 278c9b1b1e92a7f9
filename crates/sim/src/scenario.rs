//! The scenario layer: release models as event generators.
//!
//! A scenario is not a branch inside the scheduling loop — it is a
//! generator the engine consults at exactly one point: *when is the next
//! release of task `i`?* (producing [`crate::event::Event::Release`]
//! entries). Adding a release behavior therefore never touches the
//! scheduler state machine.
//!
//! # Release models
//!
//! * [`Release::Synchronous`] — all tasks release at time 0, then strictly
//!   periodically: the classic high-interference pattern.
//! * [`Release::Sporadic`] — each inter-arrival is `T_i` plus a uniform
//!   draw in `[0, jitter_i]` (drifting, never below the period): the legal
//!   sporadic adversary the validation campaign simulates.
//!
//! Jitter magnitudes are **per task** ([`Jitter`]): one shared magnitude,
//! or a fraction of each task's own period.
//!
//! # Determinism
//!
//! All draws come from the engine's single seeded RNG in a fixed order
//! (initial release per task in task order; per release: execution draws
//! in node order, then the next-release draw). Magnitudes of zero draw
//! nothing, so synchronous releases and `Jitter::Uniform(0)` leave the RNG
//! stream untouched — the order the frozen step loop draws in.

use crate::request::{RunExtent, SimRequest};
use crate::topology::Topology;
use rand::rngs::SmallRng;
use rand::Rng;
use rta_model::{DagTask, TaskSet, Time};

/// Per-task release-jitter magnitudes.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Jitter {
    /// The same magnitude for every task.
    Uniform(Time),
    /// Each task's magnitude is `percent`% of its *own* period, with a
    /// floor of 1 when `percent > 0` (so small periods still jitter) and a
    /// ceiling of `Time::MAX`.
    PeriodFraction {
        /// Percentage of each task's period, e.g. `10` for `T_i / 10`.
        percent: u32,
    },
}

impl Jitter {
    /// Resolves to one magnitude per task.
    pub fn resolve(&self, topo: &Topology) -> Vec<Time> {
        (0..topo.len())
            .map(|i| self.magnitude(topo.task(i).period()))
            .collect()
    }

    /// The magnitude of a task whose period is `period`.
    fn magnitude(&self, period: Time) -> Time {
        match *self {
            Jitter::Uniform(j) => j,
            Jitter::PeriodFraction { percent: 0 } => 0,
            Jitter::PeriodFraction { percent } => {
                // In u128: `T_i · percent` passes u64 once T_i passes
                // u64::MAX / 100, even at 100%.
                let magnitude = u128::from(period) * u128::from(percent) / 100;
                Time::try_from(magnitude).unwrap_or(Time::MAX).max(1)
            }
        }
    }
}

/// Job release pattern (see the module docs for the catalogue).
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub enum Release {
    /// Synchronous periodic releases starting at time 0.
    #[default]
    Synchronous,
    /// Sporadic: inter-arrival `T_i` plus a draw in `[0, jitter_i]`.
    Sporadic {
        /// Per-task jitter magnitudes.
        jitter: Jitter,
    },
}

/// The resolved scenario the engine consults during a run: one jitter
/// magnitude per task, all zero for synchronous releases.
#[derive(Clone, Debug)]
pub(crate) struct ScenarioState {
    magnitudes: Vec<Time>,
    periods: Vec<Time>,
}

impl ScenarioState {
    /// Resolves `release` against the task set.
    pub fn new(release: &Release, task_set: &TaskSet) -> Self {
        let periods: Vec<Time> = task_set.tasks().iter().map(DagTask::period).collect();
        let magnitudes = match release {
            Release::Synchronous => vec![0; periods.len()],
            Release::Sporadic { jitter } => periods.iter().map(|&t| jitter.magnitude(t)).collect(),
        };
        Self {
            magnitudes,
            periods,
        }
    }

    /// Bounds a run of `request` over `task_set`, whose scenario this is;
    /// see [`RunExtent`] for why each bound holds.
    pub fn extent(&self, task_set: &TaskSet, request: &SimRequest) -> RunExtent {
        let horizon = u128::from(request.horizon);
        let (mut work, mut node_jobs, mut release_gap) = (0u128, 0u128, 0u128);
        for ((task, &period), &jitter) in task_set
            .tasks()
            .iter()
            .zip(&self.periods)
            .zip(&self.magnitudes)
        {
            let period = u128::from(period);
            let jobs = horizon.div_ceil(period);
            work += jobs * u128::from(task.dag().volume());
            node_jobs += jobs * task.dag().node_count() as u128;
            release_gap = release_gap.max(period + u128::from(jitter));
        }
        RunExtent {
            last_time: horizon + work.max(release_gap),
            node_jobs,
            core_steps: node_jobs * request.cores as u128,
        }
    }

    /// Draw in `[0, magnitude]`, touching the RNG only when the magnitude
    /// is positive (see the module docs on determinism).
    fn draw(magnitude: Time, rng: &mut SmallRng) -> Time {
        if magnitude > 0 {
            rng.gen_range(0..=magnitude)
        } else {
            0
        }
    }

    /// First release of `task`.
    pub fn first_release(&self, task: usize, rng: &mut SmallRng) -> Time {
        Self::draw(self.magnitudes[task], rng)
    }

    /// Release following the one of `task` that fired at `now`.
    pub fn next_release(&self, task: usize, now: Time, rng: &mut SmallRng) -> Time {
        now + self.periods[task] + Self::draw(self.magnitudes[task], rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rta_model::DagBuilder;

    fn set(periods: &[Time]) -> TaskSet {
        let tasks = periods
            .iter()
            .map(|&t| {
                let mut b = DagBuilder::new();
                b.add_node(1);
                DagTask::with_implicit_deadline(b.build().unwrap(), t).unwrap()
            })
            .collect();
        TaskSet::new(tasks)
    }

    fn topo(periods: &[Time]) -> Topology {
        Topology::new(&set(periods))
    }

    #[test]
    fn period_fraction_resolves_per_task() {
        let topo = topo(&[100, 7, 40]);
        let j = Jitter::PeriodFraction { percent: 10 };
        assert_eq!(j.resolve(&topo), vec![10, 1, 4]); // 7/10 floors to 1
        let z = Jitter::PeriodFraction { percent: 0 };
        assert_eq!(z.resolve(&topo), vec![0, 0, 0]);
    }

    #[test]
    fn period_fractions_of_huge_periods_do_not_wrap() {
        let topo = topo(&[Time::MAX, Time::MAX / 99]);
        let full = Jitter::PeriodFraction { percent: 100 };
        assert_eq!(full.resolve(&topo), vec![Time::MAX, Time::MAX / 99]);
        let tenth = Jitter::PeriodFraction { percent: 10 };
        assert_eq!(tenth.resolve(&topo), vec![Time::MAX / 10, Time::MAX / 990]);
        let triple = Jitter::PeriodFraction { percent: 300 };
        assert_eq!(triple.resolve(&topo), vec![Time::MAX, Time::MAX / 99 * 3]);
    }

    #[test]
    fn zero_magnitudes_never_touch_the_rng() {
        let set = set(&[10]);
        let sporadic = Release::Sporadic {
            jitter: Jitter::Uniform(0),
        };
        for release in [Release::Synchronous, sporadic] {
            let s = ScenarioState::new(&release, &set);
            let mut a = SmallRng::seed_from_u64(7);
            let mut b = SmallRng::seed_from_u64(7);
            assert_eq!(s.first_release(0, &mut a), 0);
            assert_eq!(s.next_release(0, 0, &mut a), 10);
            // The RNG state is untouched: both streams still agree.
            assert_eq!(a.gen_range(0..=1_000_000u64), b.gen_range(0..=1_000_000u64));
        }
    }
}
