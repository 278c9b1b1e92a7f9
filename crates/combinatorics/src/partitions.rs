//! Integer partitions: the *execution scenarios* of the paper.
//!
//! Section IV-B of Serrano et al. defines the set of execution scenarios
//! `e_m = {s_1, …, s_p(m)}` of the lower-priority tasks on `m` cores: each
//! scenario fixes how many cores each (anonymous) task uses, so scenarios
//! are exactly the **partitions of the integer `m`** — `m = 4` yields
//! `{1,1,1,1}, {2,1,1}, {2,2}, {3,1}, {4}` (Table II).
//!
//! The paper counts scenarios with Euler's pentagonal number theorem;
//! [`partition_count`] implements that recurrence and is cross-checked in
//! the tests against direct enumeration by [`partitions`].

/// A partition of a positive integer: parts in non-increasing order.
///
/// In scheduling terms, `parts()[i]` is the number of cores assigned to the
/// `i`-th lower-priority task of an execution scenario, and
/// [`cardinality`](Partition::cardinality) is the `|s_l|` of the paper (the
/// number of tasks that participate in the scenario).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Partition {
    parts: Vec<u32>,
}

impl Partition {
    /// Creates a partition from parts.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is not non-increasing or contains a zero part; such
    /// a value is not a partition and indicates a caller bug.
    pub fn new(parts: Vec<u32>) -> Self {
        assert!(
            parts.windows(2).all(|w| w[0] >= w[1]),
            "partition parts must be non-increasing: {parts:?}"
        );
        assert!(
            parts.iter().all(|&p| p > 0),
            "partition parts must be positive: {parts:?}"
        );
        Self { parts }
    }

    /// The parts, in non-increasing order.
    pub fn parts(&self) -> &[u32] {
        &self.parts
    }

    /// Number of parts (`|s_l|` in the paper: tasks running in the scenario).
    pub fn cardinality(&self) -> usize {
        self.parts.len()
    }

    /// Sum of the parts (the total number of cores the scenario occupies).
    pub fn total(&self) -> u32 {
        self.parts.iter().sum()
    }
}

impl std::fmt::Display for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.parts.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

/// Iterator over all partitions of `m`, in descending lexicographic order of
/// parts (i.e. `{m}` first, `{1,1,…,1}` last).
///
/// # Example
///
/// ```
/// use rta_combinatorics::partitions::partitions;
///
/// let e4: Vec<String> = partitions(4).map(|p| p.to_string()).collect();
/// assert_eq!(e4, ["{4}", "{3,1}", "{2,2}", "{2,1,1}", "{1,1,1,1}"]);
/// ```
pub fn partitions(m: u32) -> Partitions {
    Partitions {
        next: if m == 0 { None } else { Some(vec![m]) },
    }
}

/// Iterator over the partitions of an integer. Created by [`partitions`].
#[derive(Clone, Debug)]
pub struct Partitions {
    next: Option<Vec<u32>>,
}

impl Iterator for Partitions {
    type Item = Partition;

    fn next(&mut self) -> Option<Partition> {
        let current = self.next.take()?;
        let result = Partition {
            parts: current.clone(),
        };
        // Standard successor computation: find the rightmost part > 1,
        // decrement it, and redistribute the remainder greedily.
        let mut parts = current;
        let ones = parts.iter().rev().take_while(|&&p| p == 1).count();
        parts.truncate(parts.len() - ones);
        if parts.is_empty() {
            self.next = None;
            return Some(result);
        }
        let last = parts.len() - 1;
        parts[last] -= 1;
        let cap = parts[last];
        let mut rem = ones as u32 + 1;
        while rem > 0 {
            let take = rem.min(cap);
            parts.push(take);
            rem -= take;
        }
        self.next = Some(parts);
        Some(result)
    }
}

/// Number of partitions of `m`, via Euler's pentagonal number theorem:
///
/// ```text
/// p(m) = Σ_{q ≠ 0} (−1)^{q−1} · p(m − q(3q−1)/2)
/// ```
///
/// with `p(0) = 1` and `p(k) = 0` for `k < 0`. This is the counting method
/// the paper cites for the size of the execution-scenario set `e_m`.
///
/// # Example
///
/// ```
/// use rta_combinatorics::partition_count;
/// // Table II: p(4) = 5 scenarios on a 4-core platform.
/// assert_eq!(partition_count(4), 5);
/// assert_eq!(partition_count(16), 231);
/// ```
pub fn partition_count(m: u32) -> u64 {
    let m = m as usize;
    let mut p = vec![0u64; m + 1];
    p[0] = 1;
    for n in 1..=m {
        let mut total: i128 = 0;
        let mut q: i64 = 1;
        loop {
            let mut advanced = false;
            for gq in [q, -q] {
                let gen = gq * (3 * gq - 1) / 2;
                if gen as usize <= n {
                    advanced = true;
                    let sign = if q % 2 == 1 { 1 } else { -1 };
                    total += sign as i128 * p[n - gen as usize] as i128;
                }
            }
            if !advanced {
                break;
            }
            q += 1;
        }
        p[n] = u64::try_from(total).expect("partition function is positive");
    }
    p[m]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_ii_scenarios_for_four_cores() {
        // Table II of the paper, in our enumeration order.
        let e4: Vec<Partition> = partitions(4).collect();
        assert_eq!(e4.len(), 5);
        let expected = [
            (vec![4u32], 1usize),
            (vec![3, 1], 2),
            (vec![2, 2], 2),
            (vec![2, 1, 1], 3),
            (vec![1, 1, 1, 1], 4),
        ];
        for (p, (parts, card)) in e4.iter().zip(expected.iter()) {
            assert_eq!(p.parts(), parts.as_slice());
            assert_eq!(p.cardinality(), *card);
            assert_eq!(p.total(), 4);
        }
    }

    #[test]
    fn known_partition_counts() {
        // OEIS A000041.
        let expected = [
            1u64, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231,
        ];
        for (m, &want) in expected.iter().enumerate() {
            assert_eq!(partition_count(m as u32), want, "p({m})");
        }
        assert_eq!(partition_count(64), 1_741_630);
    }

    #[test]
    fn enumeration_matches_pentagonal_count() {
        for m in 0..=20u32 {
            let enumerated = partitions(m).count() as u64;
            let counted = partition_count(m);
            if m == 0 {
                assert_eq!(enumerated, 0);
                assert_eq!(counted, 1); // p(0) = 1 by convention (empty partition).
            } else {
                assert_eq!(enumerated, counted, "m = {m}");
            }
        }
    }

    #[test]
    fn every_partition_is_valid_and_unique() {
        for m in 1..=15u32 {
            let all: Vec<Partition> = partitions(m).collect();
            for p in &all {
                assert_eq!(p.total(), m);
                assert!(p.parts().windows(2).all(|w| w[0] >= w[1]));
                assert!(p.parts().iter().all(|&x| x > 0));
            }
            let mut sorted = all.clone();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), all.len(), "duplicates for m = {m}");
        }
    }

    #[test]
    #[should_panic(expected = "non-increasing")]
    fn partition_new_rejects_increasing_parts() {
        let _ = Partition::new(vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn partition_new_rejects_zero_parts() {
        let _ = Partition::new(vec![2, 0]);
    }

    #[test]
    fn display_formats_like_the_paper() {
        assert_eq!(Partition::new(vec![2, 1, 1]).to_string(), "{2,1,1}");
    }
}
