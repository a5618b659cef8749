//! Watching coalescing cohorts at work.
//!
//! ```text
//! cargo run --release -p contention-bench --example cohort_watch
//! ```
//!
//! Runs `LeafElection` (the paper's step 3) with a channel trace attached
//! and narrates the coalescing-cohorts dynamics: how many phases ran, how
//! the per-phase `SplitSearch` cost shrinks as cohorts double (Lemma 16),
//! and which cohort produced the leader.

use contention::LeafElection;
use mac_sim::{Engine, SimConfig, StopWhen, Trace};

fn main() -> Result<(), mac_sim::SimError> {
    let channels: u32 = 256; // tree with 128 leaves, height 7
    let ids: Vec<u32> = vec![
        3, 4, 17, 18, 40, 41, 90, 91, 100, 101, 120, 121, 6, 7, 55, 56,
    ];

    println!(
        "leaf election over a {}-leaf channel tree, {} occupied leaves\n",
        128,
        ids.len()
    );

    let config = SimConfig::new(channels)
        .seed(1)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(10_000);
    let mut exec = Engine::new(config);
    let node_ids: Vec<_> = ids
        .iter()
        .map(|&id| exec.add_node(LeafElection::new(channels, id)))
        .collect();

    let mut trace = Trace::new();
    let report = exec.run_observed(&mut trace)?;
    let winner_id = report.leaders[0];
    let winner = exec.node(winner_id);

    println!(
        "leader: node {} (leaf id {}), elected in round {}",
        winner_id,
        ids[winner_id.0],
        report.solved_round.expect("solved")
    );
    println!(
        "final cohort size {} — it absorbed {} merges\n",
        winner.cohort_size(),
        winner.stats().phases
    );

    println!("per-phase SplitSearch rounds (Lemma 16: ~ (1/i)·log h):");
    for (i, rounds) in winner.stats().search_rounds_by_phase.iter().enumerate() {
        let p = 1u32 << i;
        println!(
            "  phase {:>2} (cohort size {:>3}): {:>3} rounds",
            i + 1,
            p,
            rounds
        );
    }

    // Reconstruct the final cohort roster from node state.
    let mut members: Vec<(u32, u32)> = node_ids
        .iter()
        .enumerate()
        .map(|(i, &nid)| (exec.node(nid).cohort_id(), ids[i]))
        .filter(|_| true)
        .collect();
    members.retain(|&(_, leaf)| {
        let nid = node_ids[ids.iter().position(|&x| x == leaf).expect("present")];
        exec.node(nid).cohort_node() == winner.cohort_node()
            && exec.node(nid).cohort_size() == winner.cohort_size()
    });
    members.sort_unstable();
    println!("\nwinning cohort roster (cID → leaf):");
    for (cid, leaf) in members {
        println!("  cID {cid:>3} → leaf {leaf}");
    }

    println!("\nfirst 12 traced rounds (channel activity):");
    for rt in trace.rounds().iter().take(12) {
        print!("  r{:<3} [{}]", rt.round, rt.phase);
        for oc in &rt.outcomes {
            print!("  {oc}");
        }
        println!();
    }

    println!("\nactivity chart (S silence, M message, X collision):");
    print!("{}", mac_sim::render::activity_chart(&trace, 40));
    Ok(())
}
