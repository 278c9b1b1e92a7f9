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

proptest! {
    #[test]
    fn bitset_behaves_like_btreeset(ops in proptest::collection::vec((0usize..200, any::<bool>()), 0..200)) {
        let mut bs = BitSet::new();
        let mut reference = BTreeSet::new();
        for (idx, insert) in ops {
            if insert {
                prop_assert_eq!(bs.insert(idx), reference.insert(idx));
            } else {
                prop_assert_eq!(bs.remove(idx), reference.remove(&idx));
            }
        }
        prop_assert_eq!(bs.len(), reference.len());
        prop_assert_eq!(bs.iter().collect::<Vec<_>>(), reference.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn bitset_algebra_matches_btreeset(
        a in proptest::collection::btree_set(0usize..150, 0..60),
        b in proptest::collection::btree_set(0usize..150, 0..60),
    ) {
        let ba: BitSet = a.iter().copied().collect();
        let bb: BitSet = b.iter().copied().collect();
        let union: Vec<usize> = a.union(&b).copied().collect();
        let inter: Vec<usize> = a.intersection(&b).copied().collect();
        let diff: Vec<usize> = a.difference(&b).copied().collect();
        prop_assert_eq!(ba.union(&bb).iter().collect::<Vec<_>>(), union);
        prop_assert_eq!(ba.intersection(&bb).iter().collect::<Vec<_>>(), inter);
        prop_assert_eq!(ba.difference(&bb).iter().collect::<Vec<_>>(), diff);
        prop_assert_eq!(ba.is_subset(&bb), a.is_subset(&b));
        prop_assert_eq!(ba.is_disjoint(&bb), a.is_disjoint(&b));
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
