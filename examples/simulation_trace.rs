//! Visualize limited-preemptive vs fully-preemptive scheduling: run the
//! same two-task workload under both policies and print the Gantt charts.
//!
//! The high-priority task releases every 10 time units; the low-priority
//! task carries a long non-preemptive region. Under limited preemption the
//! second high-priority job is *blocked* until the NPR completes; under
//! full preemption it preempts immediately.
//!
//! Run with `cargo run --example simulation_trace`.

use dag_lp_rta::prelude::*;
use dag_lp_rta::sim::{ChartOptions, ExecutionModel, Release};

fn main() -> Result<(), ModelError> {
    let mut b = DagBuilder::new();
    b.add_node(2);
    let hp = DagTask::new(b.build()?, 10, 10)?.named("hp");

    let mut b = DagBuilder::new();
    b.add_node(9);
    let lp = DagTask::new(b.build()?, 100, 100)?.named("lp(long NPR)");

    let task_set = TaskSet::new(vec![hp, lp]);

    for policy in [
        PreemptionPolicy::LimitedPreemptive,
        PreemptionPolicy::FullyPreemptive,
    ] {
        let outcome = SimRequest::new(1, 25)
            .with_policy(policy)
            .with_release(Release::Synchronous)
            .with_execution(ExecutionModel::Wcet)
            .with_trace(true)
            .evaluate(&task_set);
        let trace = outcome.trace().expect("trace enabled");
        println!("{policy:?}: (1 = hp task, 2 = lp task, . = idle)");
        let one_unit_per_column = ChartOptions {
            width: 25,
            span: Some(25),
            ..ChartOptions::default()
        };
        print!("{}", trace.chart(1, &one_unit_per_column));
        for (k, stats) in outcome.per_task().iter().enumerate() {
            println!(
                "  task {}: max response {} ({} jobs)",
                k + 1,
                stats.max_response,
                stats.jobs_completed
            );
        }
        println!();
    }

    println!("Note how under LimitedPreemptive the hp job released at t = 10 waits");
    println!("for the lp NPR (running 2..11) to finish — the blocking the paper's");
    println!("Δ^m term bounds — while under FullyPreemptive it runs immediately.");
    Ok(())
}
