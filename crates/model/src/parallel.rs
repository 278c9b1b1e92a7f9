//! Parallel-NPR sets: which nodes of a DAG can execute simultaneously.
//!
//! Two NPRs of the same task can potentially overlap in time exactly when
//! neither precedes the other — i.e. when they are *incomparable* in the
//! DAG's reachability partial order. The paper computes these sets with its
//! **Algorithm 1** (Section V-A1); this module provides both:
//!
//! * [`parallel_sets_exact`] — directly from the definition, using the
//!   transitive closures pre-computed by [`Dag`]: `Par(v) = V \ (SUCC(v) ∪
//!   PRED(v) ∪ {v})`. This is the default used by the analysis.
//! * [`parallel_sets_algorithm1`] — a faithful transliteration of the
//!   paper's Algorithm 1, kept for fidelity and cross-validation.
//!
//! The two agree on every nested fork-join DAG (the class produced by
//! OpenMP-style programs and by the paper's task generator; property-tested
//! in `rta-taskgen`). On arbitrary DAGs Algorithm 1 can over-approximate:
//! its sibling seed (line 5) only excludes *direct* edges, so a sibling
//! reachable through a longer path (e.g. `a→b, a→c, b→d, d→c`) is wrongly
//! classified parallel. `rta-analysis` therefore uses the exact sets, which
//! are also what Definition 1 of the paper requires.

use crate::dag::Dag;
use crate::ids::NodeId;
use rta_combinatorics::BitSet;

/// Computes `Par(v)` for every node directly from the partial order:
/// `u ∈ Par(v)` iff `u ≠ v`, `u` does not reach `v` and `v` does not reach
/// `u`.
///
/// # Example
///
/// ```
/// use rta_model::{DagBuilder, parallel_sets_exact};
///
/// # fn main() -> Result<(), rta_model::ModelError> {
/// let mut b = DagBuilder::new();
/// let v1 = b.add_node(1);
/// let v2 = b.add_node(1);
/// let v3 = b.add_node(1);
/// b.add_edge(v1, v2)?;
/// b.add_edge(v1, v3)?;
/// let dag = b.build()?;
/// let par = parallel_sets_exact(&dag);
/// assert!(par[v2.index()].contains(v3.index()));
/// assert!(par[v1.index()].is_empty());
/// # Ok(())
/// # }
/// ```
pub fn parallel_sets_exact(dag: &Dag) -> Vec<BitSet> {
    let n = dag.node_count();
    let all = BitSet::full(n);
    dag.nodes()
        .map(|v| {
            let mut par = all.clone();
            par.remove(v.index());
            par.difference_with(dag.descendants(v));
            par.difference_with(dag.ancestors(v));
            par
        })
        .collect()
}

/// Faithful implementation of the paper's **Algorithm 1** (Section V-A1).
///
/// Inputs per the paper: the DAG, its topological order, and for each node
/// the `SIBLING`, `SUCC` (descendants) and `PRED` (ancestors) sets — all
/// supplied by [`Dag`]. Output: `Par(v)` for every node.
///
/// The first loop seeds `Par(v)` from siblings not directly connected to
/// `v`, together with the siblings' descendants that are not descendants of
/// `v`; the second loop propagates the parents' parallel sets down the
/// topological order, removing `v`'s ancestors.
pub fn parallel_sets_algorithm1(dag: &Dag) -> Vec<BitSet> {
    let n = dag.node_count();
    let mut par = vec![BitSet::with_capacity(n); n];

    // Lines 2–10: sibling seeding.
    for vj in dag.nodes() {
        let j = vj.index();
        for l in dag.siblings(vj).iter() {
            let vl = NodeId::new(l);
            let direct_edge = dag.successors(vj).contains(l) || dag.successors(vl).contains(j);
            if !direct_edge {
                // Succ ← SUCC(v_l) \ SUCC(v_j)
                let mut succ = dag.descendants(vl).clone();
                succ.difference_with(dag.descendants(vj));
                par[j].insert(l);
                par[j].union_with(&succ);
            }
        }
    }

    // Lines 11–16: propagate along the topological order. `PRED` is the
    // transitive predecessor set per the algorithm's input definition.
    for &vj in dag.topological_order() {
        let j = vj.index();
        let mut add = BitSet::with_capacity(n);
        for l in dag.ancestors(vj).iter() {
            // Pred ← Par(v_l) \ PRED(v_j)
            let mut pred = par[l].clone();
            pred.difference_with(dag.ancestors(vj));
            add.union_with(&pred);
        }
        // Nodes that precede or equal v_j can never run in parallel with it;
        // Algorithm 1 removes ancestors via line 13. The node itself can
        // appear in a parent's Par set; drop it.
        add.remove(j);
        par[j].union_with(&add);
    }

    par
}

/// Symmetric adjacency of the "can execute in parallel" relation, suitable
/// for [`rta_combinatorics::max_weight_clique_weight`]. Uses the exact
/// parallel sets.
pub fn parallel_adjacency(dag: &Dag) -> Vec<BitSet> {
    parallel_sets_exact(dag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::DagBuilder;

    fn ids(set: &BitSet) -> Vec<usize> {
        set.iter().collect()
    }

    /// τ1 of the paper's Figure 1 (structure): v1 → {v2,v3,v4,v5};
    /// v2,v3 → v6; v4,v5 → v7; v6,v7 → v8.
    fn tau1() -> Dag {
        let mut b = DagBuilder::new();
        let v = b.add_nodes([2, 1, 1, 1, 2, 3, 2, 3]);
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
    fn paper_worked_example_par_v13() {
        // Section V-A1: Par(v_{1,3}) = {v_{1,2}, v_{1,4}, v_{1,5}, v_{1,7}}.
        let dag = tau1();
        let par = parallel_sets_algorithm1(&dag);
        assert_eq!(ids(&par[2]), vec![1, 3, 4, 6]);
        // And the exact method agrees.
        assert_eq!(ids(&parallel_sets_exact(&dag)[2]), vec![1, 3, 4, 6]);
    }

    #[test]
    fn paper_worked_example_par_v17() {
        // Section V-A1: the second loop adds v_{1,2}, v_{1,3}, v_{1,6} to
        // Par(v_{1,7}).
        let dag = tau1();
        let par = parallel_sets_algorithm1(&dag);
        assert_eq!(ids(&par[6]), vec![1, 2, 5]);
    }

    #[test]
    fn source_and_sink_have_empty_par() {
        let dag = tau1();
        for par in [parallel_sets_algorithm1(&dag), parallel_sets_exact(&dag)] {
            assert!(par[0].is_empty(), "source Par must be empty");
            assert!(par[7].is_empty(), "sink Par must be empty");
        }
    }

    #[test]
    fn exact_and_algorithm1_agree_on_tau1() {
        let dag = tau1();
        assert_eq!(parallel_sets_exact(&dag), parallel_sets_algorithm1(&dag));
    }

    #[test]
    fn exact_is_symmetric_and_irreflexive() {
        let dag = tau1();
        let par = parallel_sets_exact(&dag);
        for v in 0..dag.node_count() {
            assert!(!par[v].contains(v));
            for u in par[v].iter() {
                assert!(par[u].contains(v), "symmetry broken for ({u}, {v})");
            }
        }
    }

    #[test]
    fn chain_has_no_parallelism() {
        let mut b = DagBuilder::new();
        let v = b.add_nodes([1, 1, 1, 1]);
        b.add_chain(&v).unwrap();
        let dag = b.build().unwrap();
        for par in parallel_sets_exact(&dag) {
            assert!(par.is_empty());
        }
        for par in parallel_sets_algorithm1(&dag) {
            assert!(par.is_empty());
        }
    }

    #[test]
    fn independent_nodes_all_parallel_exact() {
        // Multi-source DAG: no edges at all. The exact method sees full
        // parallelism.
        let mut b = DagBuilder::new();
        b.add_nodes([1, 1, 1]);
        let dag = b.build().unwrap();
        let par = parallel_sets_exact(&dag);
        for par_v in par.iter().take(3) {
            assert_eq!(par_v.len(), 2);
        }
    }

    #[test]
    fn algorithm1_misses_parallel_sources() {
        // A divergence from the exact sets: Algorithm 1 seeds from
        // siblings, so independent sources are never discovered as parallel.
        let mut b = DagBuilder::new();
        b.add_nodes([1, 1]);
        let dag = b.build().unwrap();
        let par = parallel_sets_algorithm1(&dag);
        assert!(par[0].is_empty());
        assert!(par[1].is_empty());
    }

    #[test]
    fn algorithm1_overapproximates_on_sibling_with_indirect_path() {
        // a→b, a→c, b→d, d→c: b and c are siblings with no direct edge, but
        // b reaches c through d. Algorithm 1 wrongly reports them parallel;
        // the exact method does not.
        let mut b = DagBuilder::new();
        let v = b.add_nodes([1, 1, 1, 1]); // a=0, b=1, c=2, d=3
        b.add_edge(v[0], v[1]).unwrap();
        b.add_edge(v[0], v[2]).unwrap();
        b.add_edge(v[1], v[3]).unwrap();
        b.add_edge(v[3], v[2]).unwrap();
        let dag = b.build().unwrap();
        let alg1 = parallel_sets_algorithm1(&dag);
        let exact = parallel_sets_exact(&dag);
        assert!(alg1[1].contains(2), "Algorithm 1 calls b ∥ c");
        assert!(!exact[1].contains(2), "exact method knows b precedes c");
        // In this graph every pair is ordered, so b is parallel to nothing.
        assert!(exact[1].is_empty());
    }
}
