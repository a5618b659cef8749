//! Scenario: draining a burst of packets — repeated contention resolution.
//!
//! ```text
//! cargo run --release -p contention-bench --example packet_scheduler
//! ```
//!
//! The original conflict-resolution literature (ALOHA onward) wants every
//! packet delivered, not just one winner. `SerializeAll` lifts the paper's
//! election into exactly that: each epoch elects a sender, the sender
//! delivers in a dedicated ack slot, and the rest re-contend. The paper's
//! multi-channel speed-up then applies *per delivery*.
//!
//! This example drains a 24-packet burst and prints the delivery schedule
//! and per-packet latencies, then compares total drain time against a
//! single-channel tournament serializer on the same burst.

use contention::baselines::CdTournament;
use contention::serialize::SerializeAll;
use contention::{FullAlgorithm, Params};
use mac_sim::{Engine, SimConfig, StopWhen};

// A dense burst (every provisioned node has a packet): the regime where the
// paper's n-indexed knock-out schedule shines. With K << N, the adaptive
// O(log K) tournament wins instead — see the closing note this example
// prints.
const K: usize = 1 << 10;
const N: u64 = 1 << 10;

fn drain_with_pipeline(c: u32, seed: u64) -> (u64, Vec<(u32, u64)>) {
    let cfg = SimConfig::new(c)
        .seed(seed)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(1_000_000);
    let factory = move || FullAlgorithm::new(Params::practical(), c, N);
    let mut exec = Engine::new(cfg)
        .populated((0..K as u32).map(|payload| SerializeAll::new(factory, payload)));
    let report = exec.run().expect("drains");
    let mut deliveries: Vec<(u32, u64)> = exec
        .iter_nodes()
        .filter_map(|s| s.served_at().map(|at| (s.payload(), at)))
        .collect();
    deliveries.sort_by_key(|&(_, at)| at);
    (report.rounds_executed, deliveries)
}

fn drain_with_tournament(seed: u64) -> u64 {
    let cfg = SimConfig::new(1)
        .seed(seed)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(1_000_000);
    let mut exec = Engine::new(cfg)
        .populated((0..K as u32).map(|payload| SerializeAll::new(CdTournament::new, payload)));
    exec.run().expect("drains").rounds_executed
}

fn main() {
    let c = 64u32;
    let (total, deliveries) = drain_with_pipeline(c, 7);

    println!("packet burst: {K} packets, C = {c} channels, n = {N}\n");
    println!("first deliveries (packet id @ round):");
    for chunk in deliveries.chunks(6).take(4) {
        let line: Vec<String> = chunk
            .iter()
            .map(|(p, at)| format!("#{p:<4}@{at:<5}"))
            .collect();
        println!("  {}", line.join("  "));
    }
    println!("  ... {} more", deliveries.len().saturating_sub(24));

    let gaps: Vec<u64> = deliveries.windows(2).map(|w| w[1].1 - w[0].1).collect();
    let mean_gap = gaps.iter().sum::<u64>() as f64 / gaps.len().max(1) as f64;
    println!(
        "\nall {K} packets drained in {total} rounds ({mean_gap:.1} rounds/packet steady-state)"
    );

    let tournament_total = drain_with_tournament(7);
    println!(
        "single-channel tournament serializer on the same burst: {tournament_total} rounds \
         ({:.2}× slower)",
        tournament_total as f64 / total as f64
    );
    println!(
        "\nnote: the pipeline's per-epoch cost is indexed by n (its knock-out schedule \
         starts at probability 1/n), so it wins dense bursts like this one; for sparse \
         bursts (K << n) the adaptive O(log K) tournament catches up — measure both \
         with your workload before choosing."
    );
}
