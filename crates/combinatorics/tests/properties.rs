//! Property-based tests for the combinatorial substrate.

use proptest::prelude::*;
use rta_combinatorics::assignment::max_weight_assignment_bruteforce;
use rta_combinatorics::clique::max_weight_clique_bruteforce;
use rta_combinatorics::{
    max_weight_assignment_total, max_weight_clique_weight, partition_count, partitions,
    AssignmentScratch, BitSet, CliqueScratch,
};
use std::cell::RefCell;
use std::collections::BTreeSet;

thread_local! {
    // One scratch per kernel, reused across every case and problem size —
    // the way the analysis cache's per-thread scratch serves a whole sweep.
    static ASSIGNMENT_SCRATCH: RefCell<AssignmentScratch> = RefCell::new(AssignmentScratch::new());
    static CLIQUE_SCRATCH: RefCell<CliqueScratch> = RefCell::new(CliqueScratch::new());
}

/// A set as a test starts it, with its reference: empty (`new`), empty
/// with room for `0..k` (`with_capacity`), or holding `0..k` (`full`).
/// Capacities on both sides of 64 put the set's elements inline only or
/// spill them to the heap.
fn start((kind, k): (u8, usize)) -> (BitSet, BTreeSet<usize>) {
    match kind {
        0 => (BitSet::new(), BTreeSet::new()),
        1 => (BitSet::with_capacity(k), BTreeSet::new()),
        _ => (BitSet::full(k), (0..k).collect()),
    }
}

fn elements(set: &BitSet) -> Vec<usize> {
    set.iter().collect()
}

fn sorted(set: &BTreeSet<usize>) -> Vec<usize> {
    set.iter().copied().collect()
}

proptest! {
    #[test]
    fn bitset_behaves_like_btreeset(
        from in (0u8..3, 0usize..200),
        ops in proptest::collection::vec((0usize..200, 0u8..3), 0..200),
    ) {
        let (mut bs, mut reference) = start(from);
        for (idx, op) in ops {
            match op {
                0 => prop_assert_eq!(bs.insert(idx), reference.insert(idx)),
                1 => prop_assert_eq!(bs.remove(idx), reference.remove(&idx)),
                _ => prop_assert_eq!(bs.contains(idx), reference.contains(&idx)),
            }
        }
        prop_assert_eq!(bs.len(), reference.len());
        prop_assert_eq!(bs.is_empty(), reference.is_empty());
        prop_assert_eq!(bs.first(), reference.first().copied());
        prop_assert_eq!(elements(&bs), sorted(&reference));
        // A clone is a set of its own: changing it leaves the original.
        let mut copy = bs.clone();
        for idx in [0, 63, 64, 65, 199] {
            copy.insert(idx);
        }
        copy.remove(reference.first().copied().unwrap_or(1));
        prop_assert_eq!(elements(&bs), sorted(&reference));
        copy.clear();
        prop_assert!(copy.is_empty());
        prop_assert_eq!(copy.len(), 0);
        prop_assert_eq!(copy.first(), None);
        prop_assert!(!copy.contains(64));
        prop_assert_eq!(elements(&bs), sorted(&reference));
    }

    #[test]
    fn bitset_algebra_matches_btreeset(
        a in proptest::collection::btree_set(0usize..150, 0..60),
        b in proptest::collection::btree_set(0usize..150, 0..60),
        from_a in (0u8..3, 0usize..200),
        from_b in (0u8..3, 0usize..200),
    ) {
        let (mut ba, mut ra) = start(from_a);
        ba.extend(a.iter().copied());
        ra.extend(a);
        let (mut bb, mut rb) = start(from_b);
        bb.extend(b.iter().copied());
        rb.extend(b);
        let (a, b) = (ra, rb);
        let union: Vec<usize> = a.union(&b).copied().collect();
        let inter: Vec<usize> = a.intersection(&b).copied().collect();
        let diff: Vec<usize> = a.difference(&b).copied().collect();
        prop_assert_eq!(ba.union(&bb).iter().collect::<Vec<_>>(), union.clone());
        prop_assert_eq!(ba.intersection(&bb).iter().collect::<Vec<_>>(), inter.clone());
        prop_assert_eq!(ba.difference(&bb).iter().collect::<Vec<_>>(), diff.clone());
        prop_assert_eq!(ba.is_subset(&bb), a.is_subset(&b));
        prop_assert_eq!(ba.is_disjoint(&bb), a.is_disjoint(&b));
        // In place, each on a clone of `ba`, which keeps its elements.
        let mut u = ba.clone();
        u.union_with(&bb);
        prop_assert_eq!(elements(&u), union);
        let mut d = ba.clone();
        d.difference_with(&bb);
        prop_assert_eq!(elements(&d), diff);
        let mut i = ba.clone();
        i.intersect_with(&bb);
        prop_assert_eq!(elements(&i), inter.clone());
        prop_assert_eq!(i.first(), inter.first().copied());
        prop_assert_eq!(i.is_empty(), inter.is_empty());
        prop_assert_eq!(elements(&ba), sorted(&a));
        prop_assert_eq!(elements(&bb), sorted(&b));
    }

    #[test]
    fn partition_enumeration_is_complete_and_sound(m in 1u32..=18) {
        let all: Vec<_> = partitions(m).collect();
        // Count matches the pentagonal-number recurrence.
        prop_assert_eq!(all.len() as u64, partition_count(m));
        // Each partition sums to m with non-increasing positive parts.
        for p in &all {
            prop_assert_eq!(p.total(), m);
            prop_assert!(p.parts().windows(2).all(|w| w[0] >= w[1]));
            prop_assert!(p.parts().iter().all(|&x| x > 0));
        }
        // No duplicates.
        let set: BTreeSet<_> = all.iter().map(|p| p.parts().to_vec()).collect();
        prop_assert_eq!(set.len(), all.len());
    }

    #[test]
    fn hungarian_matches_bruteforce(
        rows in 1usize..5,
        cols in 1usize..6,
        seed in proptest::collection::vec(0u64..1000, 30),
    ) {
        let weights: Vec<Vec<u64>> = (0..rows)
            .map(|r| (0..cols).map(|c| seed[(r * cols + c) % seed.len()]).collect())
            .collect();
        // Every leading sub-matrix too, infeasible shapes (more rows than
        // columns) included, through the same scratch.
        for r in 0..=rows {
            let sub: Vec<Vec<u64>> = weights[..r].to_vec();
            let fast = ASSIGNMENT_SCRATCH.with(|scratch| {
                max_weight_assignment_total(r, cols, |i, j| sub[i][j], &mut scratch.borrow_mut())
            });
            prop_assert_eq!(fast, max_weight_assignment_bruteforce(&sub), "{}x{}", r, cols);
        }
    }

    #[test]
    fn clique_matches_bruteforce(
        n in 1usize..9,
        edge_bits in any::<u64>(),
        weight_seed in proptest::collection::vec(1u64..100, 9),
    ) {
        let mut adj = vec![BitSet::with_capacity(n); n];
        let mut bit = 0;
        for a in 0..n {
            for b in a + 1..n {
                if edge_bits >> (bit % 64) & 1 == 1 {
                    adj[a].insert(b);
                    adj[b].insert(a);
                }
                bit += 1;
            }
        }
        let weights: Vec<u64> = (0..n).map(|i| weight_seed[i]).collect();
        for size in 0..=n + 1 {
            let fast = CLIQUE_SCRATCH.with(|scratch| {
                max_weight_clique_weight(&adj, &weights, size, &mut scratch.borrow_mut())
            });
            let slow = max_weight_clique_bruteforce(&adj, &weights, size);
            prop_assert_eq!(fast, slow, "size {}", size);
        }
    }
}
