//! The DAG of non-preemptive regions and its builder.

use crate::error::ModelError;
use crate::ids::NodeId;
use crate::time::Time;
use rta_combinatorics::{max_weight_clique_weight, BitSet, CliqueScratch};
use std::sync::OnceLock;

/// A directed acyclic graph of non-preemptive regions (paper Section III-A).
///
/// Nodes carry WCETs; edges are precedence constraints. A `Dag` is immutable
/// once built (use [`DagBuilder`]) and pre-computes what every consumer
/// reads: a topological order and the graph's aggregate measures
/// [`volume`](Dag::volume) (`vol(G)`) and [`longest_path`](Dag::longest_path)
/// (`L`, the critical path). The per-node transitive closures (ancestors and
/// descendants) are computed **lazily** on first use and then shared: sweep
/// campaigns generate thousands of DAGs whose closures are only consulted
/// when an analysis actually reaches the precedence-aware µ computation, so
/// eager closure construction was pure overhead on the generation hot path.
#[derive(Clone, Debug)]
pub struct Dag {
    wcets: Vec<Time>,
    succ: Vec<BitSet>,
    pred: Vec<BitSet>,
    topo: Vec<NodeId>,
    closures: OnceLock<Closures>,
    volume: Time,
    longest_path: Time,
}

/// The lazily-derived transitive closures of a [`Dag`].
#[derive(Clone, Debug)]
struct Closures {
    ancestors: Vec<BitSet>,
    descendants: Vec<BitSet>,
}

impl PartialEq for Dag {
    fn eq(&self, other: &Self) -> bool {
        // The closures, `pred` and `topo` are all functions of the WCETs and
        // the successor sets; comparing the defining data keeps equality
        // independent of whether the lazy closures have been materialized.
        self.wcets == other.wcets && self.succ == other.succ
    }
}

impl Eq for Dag {}

impl Dag {
    /// Number of nodes (`q_k + 1` in the paper's notation).
    pub fn node_count(&self) -> usize {
        self.wcets.len()
    }

    /// Number of potential preemption points `q_k = |V_k| − 1`.
    pub fn preemption_points(&self) -> usize {
        self.node_count() - 1
    }

    /// Iterator over all node ids in index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count()).map(NodeId::new)
    }

    /// WCET `C_{k,j}` of a node.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    pub fn wcet(&self, node: NodeId) -> Time {
        self.wcets[node.index()]
    }

    /// All WCETs, indexed by node.
    pub fn wcets(&self) -> &[Time] {
        &self.wcets
    }

    /// Direct successors of `node`.
    pub fn successors(&self, node: NodeId) -> &BitSet {
        &self.succ[node.index()]
    }

    /// Direct predecessors of `node`.
    pub fn predecessors(&self, node: NodeId) -> &BitSet {
        &self.pred[node.index()]
    }

    /// Transitive closures along the topological order, computed on first
    /// use and shared by every later query.
    fn closures(&self) -> &Closures {
        self.closures.get_or_init(|| {
            let n = self.wcets.len();
            let mut descendants = vec![BitSet::with_capacity(n); n];
            for &v in self.topo.iter().rev() {
                let mut d = self.succ[v.index()].clone();
                for s in self.succ[v.index()].iter() {
                    d.union_with(&descendants[s]);
                }
                descendants[v.index()] = d;
            }
            let mut ancestors = vec![BitSet::with_capacity(n); n];
            for &v in &self.topo {
                let mut a = self.pred[v.index()].clone();
                for p in self.pred[v.index()].iter() {
                    a.union_with(&ancestors[p]);
                }
                ancestors[v.index()] = a;
            }
            Closures {
                ancestors,
                descendants,
            }
        })
    }

    /// All nodes reachable from `node` (the paper's `SUCC(v)`), excluding
    /// `node` itself.
    pub fn descendants(&self, node: NodeId) -> &BitSet {
        &self.closures().descendants[node.index()]
    }

    /// All nodes from which `node` is reachable (the paper's `PRED(v)`),
    /// excluding `node` itself.
    pub fn ancestors(&self, node: NodeId) -> &BitSet {
        &self.closures().ancestors[node.index()]
    }

    /// Nodes sharing a common direct predecessor with `node` (the paper's
    /// `SIBLING(v)`), excluding `node` itself.
    pub fn siblings(&self, node: NodeId) -> BitSet {
        let mut sib = BitSet::with_capacity(self.node_count());
        for p in self.pred[node.index()].iter() {
            sib.union_with(&self.succ[p]);
        }
        sib.remove(node.index());
        sib
    }

    /// `true` if `to` is reachable from `from` by a non-empty path.
    pub fn reaches(&self, from: NodeId, to: NodeId) -> bool {
        self.closures().descendants[from.index()].contains(to.index())
    }

    /// A topological order of the nodes (parents before children).
    pub fn topological_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// Nodes with no predecessors.
    pub fn sources(&self) -> Vec<NodeId> {
        self.nodes()
            .filter(|v| self.pred[v.index()].is_empty())
            .collect()
    }

    /// Nodes with no successors.
    pub fn sinks(&self) -> Vec<NodeId> {
        self.nodes()
            .filter(|v| self.succ[v.index()].is_empty())
            .collect()
    }

    /// `vol(G)`: total WCET of all nodes — the execution time of the task on
    /// a dedicated single core.
    pub fn volume(&self) -> Time {
        self.volume
    }

    /// `L`: the length of the longest (critical) path — the minimum makespan
    /// of the task on infinitely many cores.
    pub fn longest_path(&self) -> Time {
        self.longest_path
    }

    /// The largest WCET of any single node (`max_j C_{k,j}`): the longest
    /// non-preemptive region of the task.
    pub fn max_wcet(&self) -> Time {
        self.wcets.iter().copied().max().unwrap_or(0)
    }

    /// The number of nodes on the longest path counted in nodes (not WCET).
    /// The paper's generator bounds this at 7.
    pub fn longest_path_node_count(&self) -> usize {
        let n = self.node_count();
        let mut depth = vec![1usize; n];
        let mut best = 1;
        for &v in &self.topo {
            let d = self.pred[v.index()]
                .iter()
                .map(|p| depth[p] + 1)
                .max()
                .unwrap_or(1);
            depth[v.index()] = d;
            best = best.max(d);
        }
        best
    }

    /// The `n` largest node WCETs in non-increasing order (fewer if the DAG
    /// has fewer nodes). Used by the LP-max blocking bound (paper Eq. (5)).
    pub fn largest_wcets(&self, n: usize) -> Vec<Time> {
        let mut sorted = self.wcets.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        sorted.truncate(n);
        sorted
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.succ.iter().map(BitSet::len).sum()
    }

    /// Iterator over all edges as `(from, to)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.succ.iter().enumerate().flat_map(|(from, set)| {
            set.iter()
                .map(move |to| (NodeId::new(from), NodeId::new(to)))
        })
    }

    /// Greedy decomposition of the node set into vertex-disjoint **chains**
    /// (totally precedence-ordered node sets), longest first: repeatedly
    /// peel the maximum-WCET chain of the remaining induced sub-poset.
    ///
    /// Returns the chain lengths `ℓ1 ≥ ℓ2 ≥ … ≥ ℓp` with
    /// `ℓ1 = L` (the critical path is a chain, and no chain can outweigh
    /// it: a chain's nodes lie on a real path, whose length bounds the
    /// chain's WCET sum from above) and `Σ ℓi = vol(G)` (every node lands
    /// in exactly one chain). The sequence is non-increasing because a
    /// chain of the remaining sub-poset is a chain of the original poset,
    /// so each peel's optimum is feasible for — and therefore bounded by —
    /// the previous peel's.
    ///
    /// Chains rather than paths on purpose: peeling may disconnect a
    /// direct path (`u → v → w` loses `v` to an earlier chain), but `u`
    /// and `w` stay precedence-ordered and still execute sequentially,
    /// which is the only property the long-paths response-time refinement
    /// needs. The chain DP runs over the transitive closure
    /// ([`ancestors`](Self::ancestors)) for exactly that reason.
    pub fn long_path_decomposition(&self) -> Vec<Time> {
        let n = self.node_count();
        let mut alive = vec![true; n];
        let mut remaining = n;
        let mut lengths = Vec::new();
        // Scratch for the weighted-chain DP: best chain WCET ending at v,
        // and the chain predecessor that achieved it.
        let mut best = vec![0 as Time; n];
        let mut prev: Vec<Option<usize>> = vec![None; n];
        while remaining > 0 {
            let mut top: Option<usize> = None;
            for &v in &self.topo {
                let v = v.index();
                if !alive[v] {
                    continue;
                }
                let mut chain_best: Time = 0;
                let mut chain_prev = None;
                for a in self.ancestors(NodeId::new(v)).iter() {
                    if alive[a] && best[a] > chain_best {
                        chain_best = best[a];
                        chain_prev = Some(a);
                    }
                }
                best[v] = chain_best + self.wcets[v];
                prev[v] = chain_prev;
                if top.is_none_or(|t| best[v] > best[t]) {
                    top = Some(v);
                }
            }
            let top = top.expect("remaining > 0 leaves a live node");
            lengths.push(best[top]);
            let mut cursor = Some(top);
            while let Some(v) = cursor {
                alive[v] = false;
                remaining -= 1;
                cursor = prev[v];
            }
        }
        lengths
    }

    /// The maximum number of nodes that can execute simultaneously: the size
    /// of the largest antichain of the precedence order.
    ///
    /// Computed by growing the required clique size over the parallelism
    /// graph; DAG tasks are small (the paper caps them at 30 nodes), so the
    /// exact search is cheap.
    pub fn max_parallelism(&self) -> usize {
        let adjacency = crate::parallel::parallel_adjacency(self);
        let weights = vec![1u64; self.node_count()];
        let mut scratch = CliqueScratch::new();
        (2..=self.node_count())
            .take_while(|&size| {
                max_weight_clique_weight(&adjacency, &weights, size, &mut scratch).is_some()
            })
            .last()
            .unwrap_or(1)
    }
}

/// Incremental builder for [`Dag`].
///
/// # Example
///
/// ```
/// use rta_model::DagBuilder;
///
/// # fn main() -> Result<(), rta_model::ModelError> {
/// let mut b = DagBuilder::new();
/// let a = b.add_node(3);
/// let c = b.add_node(4);
/// b.add_edge(a, c)?;
/// let dag = b.build()?;
/// assert_eq!(dag.longest_path(), 7);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct DagBuilder {
    wcets: Vec<Time>,
    edges: Vec<(NodeId, NodeId)>,
}

impl DagBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node with the given WCET and returns its id.
    pub fn add_node(&mut self, wcet: Time) -> NodeId {
        self.wcets.push(wcet);
        NodeId::new(self.wcets.len() - 1)
    }

    /// Adds several nodes at once, returning their ids in order.
    pub fn add_nodes<I: IntoIterator<Item = Time>>(&mut self, wcets: I) -> Vec<NodeId> {
        wcets.into_iter().map(|w| self.add_node(w)).collect()
    }

    /// Adds a precedence edge `from → to`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::UnknownNode`] if either endpoint has not been
    /// added, or [`ModelError::SelfLoop`] if `from == to`. Cycles are
    /// detected at [`build`](DagBuilder::build) time.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> Result<&mut Self, ModelError> {
        let n = self.wcets.len();
        for node in [from, to] {
            if node.index() >= n {
                return Err(ModelError::UnknownNode {
                    node,
                    node_count: n,
                });
            }
        }
        if from == to {
            return Err(ModelError::SelfLoop { node: from });
        }
        self.edges.push((from, to));
        Ok(self)
    }

    /// Adds a chain of edges `nodes[0] → nodes[1] → …`.
    ///
    /// # Errors
    ///
    /// Same as [`add_edge`](DagBuilder::add_edge).
    pub fn add_chain(&mut self, nodes: &[NodeId]) -> Result<&mut Self, ModelError> {
        for pair in nodes.windows(2) {
            self.add_edge(pair[0], pair[1])?;
        }
        Ok(self)
    }

    /// Current number of nodes added.
    pub fn node_count(&self) -> usize {
        self.wcets.len()
    }

    /// Validates the graph and produces an immutable [`Dag`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::EmptyDag`] for a graph without nodes,
    /// [`ModelError::CycleDetected`] if the edges are not acyclic, or
    /// [`ModelError::VolumeOverflow`] if the WCETs sum past `u64::MAX`.
    pub fn build(self) -> Result<Dag, ModelError> {
        build_dag(self.wcets, &self.edges)
    }

    /// As [`build`](Self::build), but resets the builder in place so its
    /// edge buffer's capacity is reused by the next DAG: the node WCETs move
    /// into the built DAG, the edge list is cleared but keeps its
    /// allocation. This is the entry point of scratch-reusing generators
    /// that build thousands of DAGs per sweep campaign.
    ///
    /// # Errors
    ///
    /// As [`build`](Self::build). The builder is reset even on error.
    pub fn build_reset(&mut self) -> Result<Dag, ModelError> {
        let wcets = std::mem::take(&mut self.wcets);
        let result = build_dag(wcets, &self.edges);
        self.edges.clear();
        result
    }
}

/// Validates `(wcets, edges)` and assembles the immutable [`Dag`].
fn build_dag(wcets: Vec<Time>, edges: &[(NodeId, NodeId)]) -> Result<Dag, ModelError> {
    let n = wcets.len();
    if n == 0 {
        return Err(ModelError::EmptyDag);
    }
    // The longest path sums a subset of these WCETs, so it cannot overflow
    // once the volume fits.
    let volume = wcets
        .iter()
        .try_fold(0 as Time, |sum, &w| sum.checked_add(w))
        .ok_or(ModelError::VolumeOverflow)?;
    let mut succ = vec![BitSet::with_capacity(n); n];
    let mut pred = vec![BitSet::with_capacity(n); n];
    for (from, to) in edges {
        succ[from.index()].insert(to.index());
        pred[to.index()].insert(from.index());
    }

    // Kahn's algorithm for the topological order + cycle detection.
    let mut indegree: Vec<usize> = (0..n).map(|v| pred[v].len()).collect();
    let mut queue: Vec<usize> = (0..n).filter(|&v| indegree[v] == 0).collect();
    let mut topo = Vec::with_capacity(n);
    let mut head = 0;
    while head < queue.len() {
        let v = queue[head];
        head += 1;
        topo.push(NodeId::new(v));
        for s in succ[v].iter() {
            indegree[s] -= 1;
            if indegree[s] == 0 {
                queue.push(s);
            }
        }
    }
    if topo.len() != n {
        return Err(ModelError::CycleDetected);
    }

    // Longest path by dynamic programming over the topological order. The
    // transitive closures are *not* computed here — see [`Dag::closures`].
    let mut finish: Vec<Time> = vec![0; n];
    let mut longest = 0;
    for &v in &topo {
        let start = pred[v.index()].iter().map(|p| finish[p]).max().unwrap_or(0);
        finish[v.index()] = start + wcets[v.index()];
        longest = longest.max(finish[v.index()]);
    }

    Ok(Dag {
        volume,
        longest_path: longest,
        wcets,
        succ,
        pred,
        topo,
        closures: OnceLock::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running example: v1 -> {v2,v3,v4,v5}; v2,v3 -> v6; v4,v5 -> v7;
    /// v6,v7 -> v8 (task τ1 of the paper's Figure 1, structure only).
    fn diamond() -> Dag {
        let mut b = DagBuilder::new();
        let v: Vec<NodeId> = b.add_nodes([2, 1, 1, 1, 2, 3, 2, 3]);
        for &mid in &v[1..5] {
            b.add_edge(v[0], mid).unwrap();
        }
        b.add_edge(v[1], v[5]).unwrap();
        b.add_edge(v[2], v[5]).unwrap();
        b.add_edge(v[3], v[6]).unwrap();
        b.add_edge(v[4], v[6]).unwrap();
        b.add_edge(v[5], v[7]).unwrap();
        b.add_edge(v[6], v[7]).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn empty_dag_is_rejected() {
        assert_eq!(DagBuilder::new().build().unwrap_err(), ModelError::EmptyDag);
    }

    #[test]
    fn build_reset_reuses_the_builder_and_matches_build() {
        let mut b = DagBuilder::new();
        let v: Vec<NodeId> = b.add_nodes([2, 3, 4]);
        b.add_edge(v[0], v[1]).unwrap();
        b.add_edge(v[0], v[2]).unwrap();
        let reference = b.clone().build().unwrap();
        let first = b.build_reset().unwrap();
        assert_eq!(first, reference);
        // The builder is empty again and usable for an unrelated DAG.
        assert_eq!(b.node_count(), 0);
        let w = b.add_node(7);
        let x = b.add_node(1);
        b.add_edge(w, x).unwrap();
        let second = b.build_reset().unwrap();
        assert_eq!(second.node_count(), 2);
        assert_eq!(second.longest_path(), 8);
        assert_ne!(first, second);
    }

    #[test]
    fn equality_ignores_lazy_closure_state() {
        let a = diamond();
        let b = diamond();
        // Force `a`'s closures only; the DAGs must still compare equal, and
        // a clone must preserve the defining data either way.
        let _ = a.descendants(NodeId::new(0));
        assert_eq!(a, b);
        assert_eq!(a.clone(), b.clone());
        // Closures computed on both sides agree node for node.
        for v in a.nodes() {
            assert_eq!(a.descendants(v), b.descendants(v));
            assert_eq!(a.ancestors(v), b.ancestors(v));
        }
    }

    #[test]
    fn single_node() {
        let mut b = DagBuilder::new();
        b.add_node(7);
        let dag = b.build().unwrap();
        assert_eq!(dag.node_count(), 1);
        assert_eq!(dag.preemption_points(), 0);
        assert_eq!(dag.volume(), 7);
        assert_eq!(dag.longest_path(), 7);
        assert_eq!(dag.max_parallelism(), 1);
    }

    #[test]
    fn volume_overflow_is_rejected() {
        // Three WCETs of 7·10¹⁸ sum past u64::MAX; the wrapped sum would be
        // 2.1·10¹⁹ mod 2⁶⁴.
        let mut b = DagBuilder::new();
        let v: Vec<NodeId> = b.add_nodes([7_000_000_000_000_000_000; 3]);
        b.add_chain(&v).unwrap();
        assert_eq!(b.clone().build().unwrap_err(), ModelError::VolumeOverflow);
        assert_eq!(b.build_reset().unwrap_err(), ModelError::VolumeOverflow);
        // Exactly u64::MAX still fits.
        let mut b = DagBuilder::new();
        b.add_nodes([u64::MAX - 1, 1]);
        assert_eq!(b.build().unwrap().volume(), u64::MAX);
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = DagBuilder::new();
        let v = b.add_node(1);
        assert_eq!(
            b.add_edge(v, v).unwrap_err(),
            ModelError::SelfLoop { node: v }
        );
    }

    #[test]
    fn unknown_node_rejected() {
        let mut b = DagBuilder::new();
        let v = b.add_node(1);
        let ghost = NodeId::new(5);
        assert!(matches!(
            b.add_edge(v, ghost),
            Err(ModelError::UnknownNode { .. })
        ));
    }

    #[test]
    fn cycle_rejected() {
        let mut b = DagBuilder::new();
        let a = b.add_node(1);
        let c = b.add_node(1);
        b.add_edge(a, c).unwrap();
        b.add_edge(c, a).unwrap();
        assert_eq!(b.build().unwrap_err(), ModelError::CycleDetected);
    }

    #[test]
    fn volume_and_longest_path() {
        let dag = diamond();
        assert_eq!(dag.volume(), 15);
        // Critical path: v1(2) v5(2) v7(2) v8(3) = 9? No: v1(2) v2(1) v6(3)
        // v8(3) = 9 as well; both are 9.
        assert_eq!(dag.longest_path(), 9);
    }

    #[test]
    fn closures_and_reachability() {
        let dag = diamond();
        let v1 = NodeId::new(0);
        let v3 = NodeId::new(2);
        let v6 = NodeId::new(5);
        let v7 = NodeId::new(6);
        let v8 = NodeId::new(7);
        assert!(dag.reaches(v1, v8));
        assert!(dag.reaches(v3, v6));
        assert!(!dag.reaches(v3, v7));
        assert!(!dag.reaches(v6, v3));
        assert_eq!(dag.descendants(v3).iter().collect::<Vec<_>>(), vec![5, 7]);
        assert_eq!(dag.ancestors(v6).iter().collect::<Vec<_>>(), vec![0, 1, 2]);
        assert_eq!(dag.ancestors(v1).len(), 0);
        assert_eq!(dag.descendants(v8).len(), 0);
    }

    #[test]
    fn siblings_share_a_direct_parent() {
        let dag = diamond();
        let v3 = NodeId::new(2);
        // Siblings of v3: the other children of v1.
        assert_eq!(dag.siblings(v3).iter().collect::<Vec<_>>(), vec![1, 3, 4]);
        // v8 has parents v6 and v7 whose only child is v8: no siblings.
        assert!(dag.siblings(NodeId::new(7)).is_empty());
    }

    #[test]
    fn topological_order_respects_edges() {
        let dag = diamond();
        let pos: Vec<usize> = {
            let mut pos = vec![0; dag.node_count()];
            for (i, v) in dag.topological_order().iter().enumerate() {
                pos[v.index()] = i;
            }
            pos
        };
        for (from, to) in dag.edges() {
            assert!(pos[from.index()] < pos[to.index()], "{from} before {to}");
        }
    }

    #[test]
    fn sources_and_sinks() {
        let dag = diamond();
        assert_eq!(dag.sources(), vec![NodeId::new(0)]);
        assert_eq!(dag.sinks(), vec![NodeId::new(7)]);
    }

    #[test]
    fn max_parallelism_of_diamond_is_four() {
        assert_eq!(diamond().max_parallelism(), 4);
    }

    #[test]
    fn largest_wcets_sorted() {
        let dag = diamond();
        assert_eq!(dag.largest_wcets(3), vec![3, 3, 2]);
        assert_eq!(dag.largest_wcets(100).len(), 8);
        assert_eq!(dag.max_wcet(), 3);
    }

    #[test]
    fn longest_path_node_count_diamond() {
        // v1 → middle → v6/v7 → v8: four nodes on the longest path.
        assert_eq!(diamond().longest_path_node_count(), 4);
        let mut b = DagBuilder::new();
        b.add_node(5);
        assert_eq!(b.build().unwrap().longest_path_node_count(), 1);
    }

    #[test]
    fn long_path_decomposition_covers_the_diamond() {
        let dag = diamond();
        let lengths = dag.long_path_decomposition();
        // First chain is the critical path; the rest are non-increasing
        // and the chains partition the node set by WCET.
        assert_eq!(lengths[0], dag.longest_path());
        assert!(lengths.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(lengths.iter().sum::<Time>(), dag.volume());
    }

    #[test]
    fn long_path_decomposition_of_a_chain_is_one_path() {
        let mut b = DagBuilder::new();
        let v = b.add_nodes([1, 2, 3]);
        b.add_chain(&v).unwrap();
        assert_eq!(b.build().unwrap().long_path_decomposition(), vec![6]);
    }

    #[test]
    fn long_path_decomposition_of_independent_nodes_is_singletons() {
        let mut b = DagBuilder::new();
        b.add_nodes([4, 9, 1]);
        assert_eq!(b.build().unwrap().long_path_decomposition(), vec![9, 4, 1]);
    }

    #[test]
    fn long_path_decomposition_peels_chains_not_direct_paths() {
        // u(4) → v(10) → w(4), x(5) → v → y(5). The first peel takes the
        // heaviest chain x·v·y (20) and removes v; u and w then lose their
        // connecting node but stay precedence-ordered through the closure,
        // so the second peel is the chain u·w (8) — a direct-edge DP would
        // strand them as two singleton paths instead.
        let mut b = DagBuilder::new();
        let n = b.add_nodes([4, 10, 4, 5, 5]);
        b.add_chain(&n[..3]).unwrap();
        b.add_edge(n[3], n[1]).unwrap();
        b.add_edge(n[1], n[4]).unwrap();
        assert_eq!(b.build().unwrap().long_path_decomposition(), vec![20, 8]);
    }

    #[test]
    fn chain_builder() {
        let mut b = DagBuilder::new();
        let v = b.add_nodes([1, 2, 3]);
        b.add_chain(&v).unwrap();
        let dag = b.build().unwrap();
        assert_eq!(dag.longest_path(), 6);
        assert_eq!(dag.max_parallelism(), 1);
        assert_eq!(dag.edge_count(), 2);
    }

    #[test]
    fn duplicate_edges_collapse() {
        let mut b = DagBuilder::new();
        let a = b.add_node(1);
        let c = b.add_node(1);
        b.add_edge(a, c).unwrap();
        b.add_edge(a, c).unwrap();
        let dag = b.build().unwrap();
        assert_eq!(dag.edge_count(), 1);
    }
}
