//! Maximum-weight clique of prescribed cardinality.
//!
//! The per-task worst-case workload `µ_i[c]` of the paper (Definition 1 and
//! Section V-A2) is the largest total WCET of `c` NPRs of one task that can
//! all run **pairwise** in parallel. Viewing "can run in parallel" (the
//! output of the paper's Algorithm 1) as an undirected graph over the task's
//! nodes, `µ_i[c]` is a **maximum-weight clique of size exactly `c`**.
//! Equivalently, it is a maximum-weight antichain of cardinality `c` of the
//! DAG's reachability partial order.
//!
//! The paper solves this with an ILP; this module provides the exact
//! branch-and-bound search the analysis runs, which exploits the small node
//! counts of DAG tasks (the paper caps DAGs at 30 nodes). Two independent
//! references check it in tests: the exhaustive
//! [`max_weight_clique_bruteforce`] here, and the paper's ILP formulation
//! in `rta-analysis` (`blocking::paper_ilp`, solved by `rta-ilp`).

use crate::bitset::BitSet;

/// Reusable working memory for the clique search
/// ([`max_weight_clique_weight`]).
///
/// Over a sweep campaign the µ-array searches would dominate the allocator
/// with a fresh candidate vector per branch point. This scratch keeps one
/// candidate buffer per search depth (depth is bounded by the requested
/// clique size, i.e. the core count), so repeated searches allocate nothing
/// once warm.
#[derive(Clone, Debug, Default)]
pub struct CliqueScratch {
    /// Vertices sorted by descending weight (branch order).
    order: Vec<usize>,
    /// `levels[d]` holds the candidate positions (into `order`) at depth `d`.
    levels: Vec<Vec<usize>>,
}

impl CliqueScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// The weight of a maximum-weight clique with **exactly** `size` vertices,
/// reusing `scratch` across calls.
///
/// `adjacency[v]` is the set of neighbours of `v` (must be symmetric and
/// irreflexive); `weights[v]` the vertex weight. Returns `None` when the
/// graph has no clique of the requested size — in the paper's terms, when a
/// task cannot occupy `c` cores at once, in which case `µ_i[c] = 0`
/// (cf. `µ_2[3] = µ_2[4] = 0` in Table I). `size = 0` yields `Some(0)`.
///
/// Branches on vertices in descending weight order and prunes on the sum of
/// the heaviest remaining candidates; performs no allocation once the
/// scratch buffers are warm. This is the solver behind the analysis cache's
/// µ-arrays.
///
/// # Panics
///
/// Panics if `adjacency` and `weights` have different lengths.
///
/// # Example
///
/// ```
/// use rta_combinatorics::{max_weight_clique_weight, BitSet, CliqueScratch};
///
/// // Path graph 0 - 1 - 2: cliques of size 2 are {0,1} and {1,2}.
/// let adjacency = vec![
///     [1].into_iter().collect::<BitSet>(),
///     [0, 2].into_iter().collect(),
///     [1].into_iter().collect(),
/// ];
/// let weights = [5, 1, 7];
/// let mut scratch = CliqueScratch::new();
/// assert_eq!(max_weight_clique_weight(&adjacency, &weights, 2, &mut scratch), Some(8));
/// assert_eq!(max_weight_clique_weight(&adjacency, &weights, 3, &mut scratch), None);
/// ```
pub fn max_weight_clique_weight(
    adjacency: &[BitSet],
    weights: &[u64],
    size: usize,
    scratch: &mut CliqueScratch,
) -> Option<u64> {
    assert_eq!(
        adjacency.len(),
        weights.len(),
        "adjacency and weights must cover the same vertices"
    );
    let n = adjacency.len();
    if size == 0 {
        return Some(0);
    }
    if size > n {
        return None;
    }

    let CliqueScratch { order, levels } = scratch;
    order.clear();
    order.extend(0..n);
    order.sort_by(|&a, &b| weights[b].cmp(&weights[a]).then(a.cmp(&b)));
    if levels.len() < size {
        levels.resize_with(size, Vec::new);
    }
    levels[0].clear();
    levels[0].extend(0..n);

    let mut best = None;
    search_weight(
        adjacency,
        weights,
        order,
        size,
        0,
        &mut levels[..size],
        &mut best,
    );
    best
}

/// Depth-first branch-and-bound tracking only the best weight and drawing
/// candidate storage from `levels` (one buffer per remaining slot;
/// `levels[0]` holds the current candidates).
fn search_weight(
    adjacency: &[BitSet],
    weights: &[u64],
    order: &[usize],
    need: usize,
    chosen_weight: u64,
    levels: &mut [Vec<usize>],
    best: &mut Option<u64>,
) {
    let (candidates, deeper) = levels.split_first_mut().expect("one level per slot");
    if candidates.len() < need {
        return;
    }
    // Upper bound: current weight plus the `need` heaviest candidates
    // (candidates stay sorted by descending weight — they are positions
    // filtered from `order`).
    let optimistic: u64 = chosen_weight
        + candidates
            .iter()
            .take(need)
            .map(|&pos| weights[order[pos]])
            .sum::<u64>();
    if let Some(bw) = *best {
        if optimistic <= bw {
            return;
        }
    }

    for idx in 0..candidates.len() {
        // Even taking this and every later candidate cannot reach `need`.
        if candidates.len() - idx < need {
            break;
        }
        let v = order[candidates[idx]];
        let weight = chosen_weight + weights[v];
        if need == 1 {
            if best.is_none_or(|bw| weight > bw) {
                *best = Some(weight);
            }
            continue;
        }
        deeper[0].clear();
        for &p in &candidates[idx + 1..] {
            if adjacency[v].contains(order[p]) {
                deeper[0].push(p);
            }
        }
        search_weight(adjacency, weights, order, need - 1, weight, deeper, best);
    }
}

/// Exhaustive reference solver (all `C(n, size)` subsets); exact and
/// exponential, called only by tests to validate the branch-and-bound.
pub fn max_weight_clique_bruteforce(
    adjacency: &[BitSet],
    weights: &[u64],
    size: usize,
) -> Option<u64> {
    let n = adjacency.len();
    if size == 0 {
        return Some(0);
    }
    if size > n {
        return None;
    }
    let mut best: Option<u64> = None;
    let mut subset: Vec<usize> = Vec::new();
    fn rec(
        adjacency: &[BitSet],
        weights: &[u64],
        size: usize,
        start: usize,
        subset: &mut Vec<usize>,
        best: &mut Option<u64>,
    ) {
        if subset.len() == size {
            let w = subset.iter().map(|&v| weights[v]).sum();
            if best.is_none_or(|b| w > b) {
                *best = Some(w);
            }
            return;
        }
        for v in start..adjacency.len() {
            if subset.iter().all(|&u| adjacency[u].contains(v)) {
                subset.push(v);
                rec(adjacency, weights, size, v + 1, subset, best);
                subset.pop();
            }
        }
    }
    rec(adjacency, weights, size, 0, &mut subset, &mut best);
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, edges: &[(usize, usize)]) -> Vec<BitSet> {
        let mut adj = vec![BitSet::with_capacity(n); n];
        for &(a, b) in edges {
            adj[a].insert(b);
            adj[b].insert(a);
        }
        adj
    }

    fn clique(adj: &[BitSet], weights: &[u64], size: usize) -> Option<u64> {
        max_weight_clique_weight(adj, weights, size, &mut CliqueScratch::new())
    }

    #[test]
    fn empty_size_zero() {
        let adj = graph(3, &[]);
        assert_eq!(clique(&adj, &[1, 2, 3], 0), Some(0));
    }

    #[test]
    fn singleton_is_max_vertex() {
        let adj = graph(4, &[]);
        assert_eq!(clique(&adj, &[3, 9, 1, 4], 1), Some(9));
    }

    #[test]
    fn no_edges_no_pairs() {
        let adj = graph(4, &[]);
        assert_eq!(clique(&adj, &[3, 9, 1, 4], 2), None);
    }

    #[test]
    fn triangle_plus_pendant() {
        // Triangle 0-1-2 plus pendant 3 attached to 0.
        let adj = graph(4, &[(0, 1), (1, 2), (0, 2), (0, 3)]);
        let w = [10, 1, 2, 100];
        assert_eq!(clique(&adj, &w, 2), Some(110)); // {0, 3}
        assert_eq!(clique(&adj, &w, 3), Some(13)); // {0, 1, 2} — 3 has degree 1
        assert_eq!(clique(&adj, &w, 4), None);
    }

    #[test]
    fn size_larger_than_graph() {
        let adj = graph(2, &[(0, 1)]);
        assert_eq!(clique(&adj, &[1, 1], 3), None);
    }

    #[test]
    fn paper_task4_parallel_graph() {
        // τ4 of Figure 1: nodes v1..v5 (0-indexed 0..4) with weights
        // C = [5, 2, 4, 5, 3]; parallel pairs {(1,2),(2,3),(2,4),(3,4)}.
        // (v1 is the source and parallel with nothing; v2–v5 form the
        // pattern where {v3,v4,v5} is the only 3-clique.)
        let adj = graph(5, &[(1, 2), (2, 3), (2, 4), (3, 4)]);
        let w = [5u64, 2, 4, 5, 3];
        assert_eq!(clique(&adj, &w, 1), Some(5)); // µ4[1]
        assert_eq!(clique(&adj, &w, 2), Some(9)); // C4,3 + C4,4 (nodes 2 and 3)
        assert_eq!(clique(&adj, &w, 3), Some(12)); // nodes {2, 3, 4}
        assert_eq!(clique(&adj, &w, 4), None); // µ4[4] = 0
    }

    #[test]
    fn matches_bruteforce_with_a_shared_scratch() {
        // One scratch shared across graphs and sizes (the cache usage
        // pattern): complete graph minus a perfect matching (n = 8), then
        // the sparse τ4 graph.
        let mut scratch = CliqueScratch::new();
        let n = 8;
        let mut edges = Vec::new();
        for a in 0..n {
            for b in a + 1..n {
                if b != a + n / 2 {
                    edges.push((a, b));
                }
            }
        }
        let dense = graph(n, &edges);
        let dense_w: Vec<u64> = (0..n as u64).map(|i| i * i + 1).collect();
        let sparse = graph(5, &[(1, 2), (2, 3), (2, 4), (3, 4)]);
        let sparse_w = vec![5u64, 2, 4, 5, 3];
        for (adj, w) in [(&dense, &dense_w), (&sparse, &sparse_w)] {
            for size in 0..=adj.len() + 1 {
                assert_eq!(
                    max_weight_clique_weight(adj, w, size, &mut scratch),
                    max_weight_clique_bruteforce(adj, w, size),
                    "size {size}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "same vertices")]
    fn mismatched_inputs_panic() {
        let adj = graph(2, &[(0, 1)]);
        let _ = clique(&adj, &[1], 1);
    }
}
