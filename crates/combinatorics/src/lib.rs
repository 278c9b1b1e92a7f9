//! Combinatorial substrate for the DAG limited-preemption response-time
//! analysis.
//!
//! The analysis of Serrano et al. (DATE 2016) leans on a handful of classic
//! combinatorial objects that this crate provides from scratch:
//!
//! * [`BitSet`] — a compact dynamic bitset used for node sets, transitive
//!   closures and "can execute in parallel" adjacency in `rta-model`; its
//!   first 64 bits live inline, so the sets of a DAG of at most 64 nodes
//!   never allocate;
//! * [`partitions`](mod@partitions) — enumeration of the *execution scenarios* `e_m` of the
//!   paper (Section IV-B), which are exactly the integer partitions of the
//!   core count `m`, together with the pentagonal-number-theorem counter
//!   [`partitions::partition_count`];
//! * [`PartitionTable`] — a process-global memo of the scenario lists: each
//!   cardinality is enumerated once per process and shared as a `&'static`
//!   slice by every task-set analysis and worker thread;
//! * [`assignment`] — maximum-weight assignment (Hungarian algorithm), the
//!   combinatorial equivalent of the paper's ILP formulation for the overall
//!   worst-case workload `ρ_k[s_l]` (Section V-B);
//! * [`clique`] — maximum-weight clique of prescribed cardinality, the
//!   combinatorial equivalent of the paper's ILP formulation for the
//!   per-task worst-case workload `µ_i[c]` (Section V-A2).
//!
//! Each kernel has one production entry point, fed a reusable scratch
//! ([`max_weight_assignment_total`], [`max_weight_clique_weight`]), and one
//! exhaustive brute-force solver that only tests call as its reference.
//!
//! Everything here is exact integer arithmetic; there is no floating point
//! and no `unsafe`.
//!
//! # Example
//!
//! ```
//! use rta_combinatorics::partitions::{partitions, partition_count};
//!
//! // Table II of the paper: e_4 has p(4) = 5 execution scenarios.
//! let scenarios: Vec<_> = partitions(4).collect();
//! assert_eq!(scenarios.len(), 5);
//! assert_eq!(partition_count(4), 5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod assignment;
pub mod bitset;
pub mod clique;
pub mod partition_table;
pub mod partitions;

pub use assignment::{max_weight_assignment_total, AssignmentScratch};
pub use bitset::BitSet;
pub use clique::{max_weight_clique_weight, CliqueScratch};
pub use partition_table::PartitionTable;
pub use partitions::{partition_count, partitions, Partition, Partitions};
