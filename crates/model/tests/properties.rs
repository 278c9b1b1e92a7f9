//! Property tests on arbitrary random DAGs (not just the fork-join family
//! the generator produces): structural invariants of the graph engine.

use proptest::prelude::*;
use rta_combinatorics::BitSet;
use rta_model::{parallel_sets_exact, Dag, DagBuilder, NodeId};

/// Builds a random DAG from a node count and an edge bitmask over the
/// upper-triangular pairs (i < j edges only — guarantees acyclicity).
fn arbitrary_dag(nodes: usize, edge_bits: &[bool]) -> Dag {
    let mut b = DagBuilder::new();
    let ids: Vec<NodeId> = (0..nodes).map(|i| b.add_node((i as u64 % 9) + 1)).collect();
    let mut bit = 0;
    for i in 0..nodes {
        for j in i + 1..nodes {
            if edge_bits[bit % edge_bits.len()] {
                b.add_edge(ids[i], ids[j]).expect("forward edge is valid");
            }
            bit += 1;
        }
    }
    b.build().expect("forward edges cannot form a cycle")
}

proptest! {
    #[test]
    fn topological_order_is_a_valid_linearization(
        nodes in 1usize..20,
        edges in proptest::collection::vec(any::<bool>(), 1..200),
    ) {
        let dag = arbitrary_dag(nodes, &edges);
        let mut pos = vec![0usize; nodes];
        for (i, v) in dag.topological_order().iter().enumerate() {
            pos[v.index()] = i;
        }
        for (from, to) in dag.edges() {
            prop_assert!(pos[from.index()] < pos[to.index()]);
        }
    }

    #[test]
    fn closures_agree_with_bfs(
        nodes in 1usize..16,
        edges in proptest::collection::vec(any::<bool>(), 1..200),
    ) {
        let dag = arbitrary_dag(nodes, &edges);
        // Reference reachability by BFS on direct successors.
        for v in dag.nodes() {
            let mut reach = BitSet::with_capacity(nodes);
            let mut stack: Vec<usize> = dag.successors(v).iter().collect();
            while let Some(u) = stack.pop() {
                if reach.insert(u) {
                    stack.extend(dag.successors(NodeId::new(u)).iter());
                }
            }
            prop_assert_eq!(dag.descendants(v), &reach, "descendants of {}", v);
            // Ancestors are the transpose.
            for u in dag.nodes() {
                prop_assert_eq!(
                    dag.ancestors(u).contains(v.index()),
                    reach.contains(u.index()),
                    "ancestor/descendant transpose broken for ({}, {})", v, u
                );
            }
        }
    }

    #[test]
    fn volume_and_longest_path_invariants(
        nodes in 1usize..20,
        edges in proptest::collection::vec(any::<bool>(), 1..200),
    ) {
        let dag = arbitrary_dag(nodes, &edges);
        prop_assert_eq!(dag.volume(), dag.wcets().iter().sum::<u64>());
        prop_assert!(dag.longest_path() <= dag.volume());
        prop_assert!(dag.longest_path() >= dag.max_wcet());
        prop_assert!(dag.longest_path_node_count() <= dag.node_count());
        // A DAG with no edges: L = max WCET; fully chained: L = volume.
        if dag.edge_count() == 0 {
            prop_assert_eq!(dag.longest_path(), dag.max_wcet());
        }
    }

    #[test]
    fn exact_parallel_sets_are_complement_of_comparability(
        nodes in 1usize..14,
        edges in proptest::collection::vec(any::<bool>(), 1..120),
    ) {
        let dag = arbitrary_dag(nodes, &edges);
        let par = parallel_sets_exact(&dag);
        for u in dag.nodes() {
            // Irreflexive.
            prop_assert!(!par[u.index()].contains(u.index()));
            for w in dag.nodes() {
                if u == w { continue; }
                let comparable = dag.reaches(u, w) || dag.reaches(w, u);
                prop_assert_eq!(
                    par[u.index()].contains(w.index()),
                    !comparable,
                    "parallel({}, {}) must equal incomparable", u, w
                );
                // Symmetric.
                prop_assert_eq!(
                    par[u.index()].contains(w.index()),
                    par[w.index()].contains(u.index())
                );
            }
        }
    }

    #[test]
    fn max_parallelism_bounds(
        nodes in 1usize..12,
        edges in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let dag = arbitrary_dag(nodes, &edges);
        let width = dag.max_parallelism();
        prop_assert!(width >= 1);
        prop_assert!(width <= dag.node_count());
        // Mirman check: a DAG with no edges has width = n; a total order has 1.
        if dag.edge_count() == 0 {
            prop_assert_eq!(width, dag.node_count());
        }
        // Width 1 ⇔ every pair comparable.
        let par = parallel_sets_exact(&dag);
        let any_parallel = par.iter().any(|s| !s.is_empty());
        prop_assert_eq!(width > 1, any_parallel);
    }

    /// The width equals the largest antichain of the precedence order,
    /// found by brute force over every node subset.
    #[test]
    fn max_parallelism_is_the_largest_antichain(
        nodes in 1usize..=10,
        edges in proptest::collection::vec(any::<bool>(), 1..60),
    ) {
        let dag = arbitrary_dag(nodes, &edges);
        let ids: Vec<NodeId> = dag.nodes().collect();
        let incomparable = |u: NodeId, w: NodeId| !dag.reaches(u, w) && !dag.reaches(w, u);
        let largest = (1u32..1 << nodes)
            .filter(|&mask| {
                let members: Vec<NodeId> =
                    ids.iter().copied().filter(|v| mask >> v.index() & 1 == 1).collect();
                members
                    .iter()
                    .enumerate()
                    .all(|(i, &u)| members[i + 1..].iter().all(|&w| incomparable(u, w)))
            })
            .map(|mask| mask.count_ones() as usize)
            .max()
            .expect("every singleton is an antichain");
        prop_assert_eq!(dag.max_parallelism(), largest);
    }

    #[test]
    fn json_round_trip(
        nodes in 1usize..10,
        edges in proptest::collection::vec(any::<bool>(), 1..60),
    ) {
        let dag = arbitrary_dag(nodes, &edges);
        let task = rta_model::DagTask::with_implicit_deadline(dag, 10_000).expect("valid");
        let json = rta_model::json::task_to_json(&task);
        let back = rta_model::json::task_from_json(&json).expect("deserialize");
        prop_assert_eq!(task, back);
    }
}
