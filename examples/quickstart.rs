//! Quickstart: solve contention resolution with the paper's full algorithm.
//!
//! ```text
//! cargo run --release -p contention-bench --example quickstart
//! ```
//!
//! Spins up `|A|` active nodes out of an `n`-node universe on `C` channels
//! with strong collision detection, runs the three-step pipeline
//! (`Reduce → IdReduction → LeafElection`), and prints what happened.

use std::collections::BTreeMap;

use contention::{theory, FullAlgorithm, Params};
use mac_sim::render::activity_chart;
use mac_sim::{Engine, SimConfig, StopWhen, Trace};

fn main() -> Result<(), mac_sim::SimError> {
    let n: u64 = 1 << 14; // universe size (max possible nodes)
    let channels: u32 = 128; // C
    let active: usize = 1_000; // |A|: the adversary's activation choice
    let seed: u64 = 2016; // PODC'16

    println!("contention resolution: n = {n}, C = {channels}, |A| = {active}\n");

    let config = SimConfig::new(channels)
        .seed(seed)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(100_000);
    let mut exec = Engine::new(config)
        .populated((0..active).map(|_| FullAlgorithm::new(Params::practical(), channels, n)));

    // Record the channel trace by attaching a `Trace` to the run — any
    // EventSink rides along like this.
    let mut trace = Trace::new();
    let report = exec.run_observed(&mut trace)?;

    match report.solved_round {
        Some(round) => println!("solved in round {round} (rounds to solve: {})", round + 1),
        None => println!("not solved (this should not happen!)"),
    }
    println!("leader: {:?}", report.leaders.first());
    println!(
        "total transmissions (energy proxy): {}",
        report.metrics.transmissions
    );
    // Each traced round carries its phase label: count rounds per label.
    let mut rounds_per_phase = BTreeMap::new();
    for round in trace.rounds() {
        *rounds_per_phase.entry(round.phase).or_insert(0u64) += 1;
    }
    println!("\nrounds per phase:");
    for (phase, rounds) in rounds_per_phase {
        println!("  {phase:<16} {rounds}");
    }

    println!("\nfirst 60 rounds of channel activity:");
    print!("{}", activity_chart(&trace, 60));

    // The theory line this run reproduces (Theorem 4).
    let curve = theory::upper_bound_curve(n, channels);
    println!(
        "\nTheorem 4 curve (lg n/lg C + lglg n·lglglg n) = {curve:.1}; measured {} rounds",
        report.rounds_to_solve().unwrap_or(0)
    );
    Ok(())
}
