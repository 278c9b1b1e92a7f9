//! Microbenches of the substrates everything else stands on: the workload
//! bound, integer partitions, the Hungarian assignment, clique search, the
//! ILP engine, the simulator, and the wire decoder and syntax skip. Each
//! label prints the median time of one call.

use rand::rngs::SmallRng;
use rand::SeedableRng;
use rta_analysis::workload::interfering_workload;
use rta_bench::measure;
use rta_combinatorics::{
    max_weight_assignment_total, max_weight_clique_weight, partition_count, partitions,
    AssignmentScratch, BitSet, CliqueScratch,
};
use rta_experiments::campaign::utilization_grid;
use rta_ilp::{IlpBuilder, Sense};
use rta_model::json::{
    parse, task_set_from_json, task_set_from_value, task_set_to_json_compact, Reader,
};
use rta_sim::SimRequest;
use rta_taskgen::{generate_task_set, group1};
use std::hint::black_box;

fn main() {
    measure("interfering_workload", 100, || {
        let mut acc = 0u128;
        for window in (0..1000u128).step_by(7) {
            acc += interfering_workload(black_box(window), 120, 57, 23, 4);
        }
        acc
    });

    // Enumerating the partitions of 32 takes a third of a millisecond;
    // everything else here runs in microseconds or less.
    for (m, calls) in [(8u32, 100), (16, 100), (32, 1)] {
        measure(&format!("partitions/enumerate/{m}"), calls, || {
            partitions(black_box(m)).count()
        });
        measure(&format!("partitions/pentagonal_count/{m}"), 1000, || {
            partition_count(black_box(m))
        });
    }

    let weights: Vec<Vec<u64>> = (0..12)
        .map(|r| (0..20).map(|c| ((r * 37 + c * 17) % 100) as u64).collect())
        .collect();
    let mut scratch = AssignmentScratch::new();
    measure("hungarian_12x20", 100, || {
        let weights = black_box(&weights);
        max_weight_assignment_total(12, 20, |r, c| weights[r][c], &mut scratch)
    });

    // A 24-vertex graph shaped like a parallelism graph (complement of a
    // layered order).
    let n = 24;
    let mut adj = vec![BitSet::with_capacity(n); n];
    for a in 0..n {
        for b in a + 1..n {
            if (a + b) % 3 != 0 {
                adj[a].insert(b);
                adj[b].insert(a);
            }
        }
    }
    let weights: Vec<u64> = (0..n as u64).map(|i| i * 7 % 97 + 1).collect();
    let mut scratch = CliqueScratch::new();
    measure("max_weight_clique_size8_n24", 100, || {
        max_weight_clique_weight(black_box(&adj), &weights, 8, &mut scratch)
    });

    measure("ilp_knapsack_16_vars", 100, || {
        let mut m = IlpBuilder::new();
        let vars: Vec<_> = (0..16).map(|i| m.binary(format!("x{i}"))).collect();
        for (i, &v) in vars.iter().enumerate() {
            m.objective(v, ((i * 13) % 29 + 1) as f64);
        }
        let weights: Vec<_> = vars
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, ((i * 7) % 11 + 1) as f64))
            .collect();
        m.constraint(&weights, Sense::Le, 30.0);
        m.build().maximize().expect("feasible")
    });

    let mut rng = SmallRng::seed_from_u64(5);
    let ts = generate_task_set(&mut rng, &group1(2.0));
    let horizon = ts.tasks().iter().map(|t| t.period()).max().unwrap_or(1) * 10;
    let request = SimRequest::new(4, horizon);
    measure("simulate_10_maxperiods_m4", 100, || {
        request.evaluate(black_box(&ts))
    });

    // Decoding one `repro serve` task set: the one-pass decoder against
    // the `Value`-tree reference it replaced, and the syntax skip every
    // analyze frame's `task_set` member gets, each timed per frame over 16
    // group-1 sets at m = 4 spread across the campaign's utilization grid
    // (parse, build and drop). The benchmark's traced replay times the
    // tree path and never the skip, so this is where their savings show.
    let grid = utilization_grid(4);
    let mut rng = SmallRng::seed_from_u64(16);
    let frames: Vec<String> = (0..16)
        .map(|i| {
            let config = group1(grid[i * grid.len() / 16]);
            task_set_to_json_compact(&generate_task_set(&mut rng, &config))
        })
        .collect();
    let mut next = frames.iter().cycle();
    measure("wire/one_pass_decode", 100, || {
        task_set_from_json(black_box(next.next().expect("endless cycle")))
    });
    let mut next = frames.iter().cycle();
    measure("wire/skip_value", 100, || {
        Reader::new(black_box(next.next().expect("endless cycle"))).skip_value()
    });
    let mut next = frames.iter().cycle();
    measure("wire/value_tree_reference", 100, || {
        parse(black_box(next.next().expect("endless cycle")))
            .and_then(|tree| task_set_from_value(&tree))
    });
}
