//! Scenario: cohorts as infrastructure — elect, then compute.
//!
//! ```text
//! cargo run --release -p contention-bench --example cohort_services
//! ```
//!
//! The paper's closing conjecture is that coalescing cohorts are useful
//! beyond leader election: a cohort is a ready-made CREW PRAM work group.
//! This example runs the two stages end to end:
//!
//! 1. `LeafElection` coalesces the active nodes; the *winning cohort*
//!    (leader plus its merged partners) survives with distinct cohort ids.
//! 2. That cohort then answers fleet-management questions in `O(log p)`
//!    rounds each, using `CohortAggregate`: how many members, the maximum
//!    battery level, and the total buffered telemetry.
//!
//! The same pattern backs any post-election coordination: the leader knows
//! it has `p` numbered peers and a channel range, which is all a parallel
//! fold needs.

use contention::cohort_compute::{AggregateOp, CohortAggregate};
use contention::LeafElection;
use mac_sim::{ChannelId, Engine, SimConfig, StopWhen};

fn main() -> Result<(), mac_sim::SimError> {
    let channels: u32 = 64; // 32-leaf channel tree

    // Stage 1: election over densely occupied leaves so cohorts coalesce.
    let ids: Vec<u32> = (1..=16).collect();
    let cfg = SimConfig::new(channels)
        .seed(11)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(10_000);
    let mut exec = Engine::new(cfg);
    let node_ids: Vec<_> = ids
        .iter()
        .map(|&id| exec.add_node(LeafElection::new(channels, id)))
        .collect();
    let report = exec.run()?;
    let winner = exec.node(report.leaders[0]);

    println!(
        "election: leader at leaf {}, winning cohort of {} members, {} rounds\n",
        ids[report.leaders[0].0],
        winner.cohort_size(),
        report.rounds_executed
    );

    // Collect the winning cohort's membership (cID -> leaf id).
    let mut roster: Vec<(u32, u32)> = node_ids
        .iter()
        .enumerate()
        .filter(|(_, &nid)| {
            exec.node(nid).cohort_node() == winner.cohort_node()
                && exec.node(nid).cohort_size() == winner.cohort_size()
        })
        .map(|(i, &nid)| (exec.node(nid).cohort_id(), ids[i]))
        .collect();
    roster.sort_unstable();
    let p = roster.len() as u32;

    // Stage 2: the cohort computes. Synthetic per-member sensor state,
    // keyed by leaf id for reproducibility.
    let battery = |leaf: u32| i64::from((leaf * 37) % 100);
    let buffered = |leaf: u32| i64::from(leaf * 3 + 5);

    type Metric<'a> = &'a dyn Fn(u32) -> i64;
    let queries: Vec<(&str, AggregateOp, Metric<'_>)> = vec![
        ("max battery level", AggregateOp::Max, &battery),
        ("total buffered telemetry", AggregateOp::Sum, &buffered),
        ("member count", AggregateOp::Count, &battery),
    ];
    for (question, op, value) in queries {
        let cfg = SimConfig::new(channels)
            .seed(12)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(100);
        let mut exec =
            Engine::new(cfg).populated(roster.iter().map(|&(cid, leaf)| {
                CohortAggregate::new(ChannelId::new(2), p, cid, value(leaf), op)
            }));
        let agg_report = exec.run()?;
        let result = exec
            .iter_nodes()
            .next()
            .expect("has members")
            .result()
            .expect("computed");
        println!(
            "{question:<26} = {result:>5}   ({} rounds for p = {p})",
            agg_report.rounds_executed
        );
    }

    println!(
        "\neach query costs ⌈lg p⌉+1 = {} rounds — the cohort structure pays rent \
         long after the election",
        (f64::from(p)).log2().ceil() as u32 + 1
    );
    Ok(())
}
