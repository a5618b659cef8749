//! Degraded network: the same contention-resolution run on increasingly
//! hostile radios.
//!
//! ```text
//! cargo run --release -p contention-bench --example degraded_network
//! ```
//!
//! The paper's model is a *clean* multiple-access channel: collision
//! detection never lies, frames are never lost, nodes never die. This
//! example runs the paper's pipeline on four progressively degraded
//! networks built from the `mac_sim::fault` layers —
//!
//! 1. a clean strong-CD channel (the paper's model),
//! 2. noisy collision detection (5% silence ↔ collision flips),
//! 3. the same noise over a 10% lossy channel,
//! 4. all of that with a crash-stop adversary killing a quarter of the
//!    fleet in the first 20 rounds —
//!
//! and finally pits the protocols against two hopeless radios: the
//! pipeline vs a reactive jammer with an unbounded budget (it detects the
//! dead channel and gives up cleanly), and `Decay` vs a flood jammer
//! drowning the primary channel in every round, where the round-budget
//! watchdog converts the wedged run into a structured `BudgetExhausted`
//! error instead of a hang.

use contention::baselines::Decay;
use contention::{FullAlgorithm, Params};
use mac_sim::fault::{CrashStop, JamBudget, Layered, LossyChannel, NoisyCd};
use mac_sim::{CdMode, Engine, FeedbackModel, Protocol, SimConfig, SimError};

const N: u64 = 1 << 14;
const CHANNELS: u32 = 64;
const ACTIVE: usize = 300;
const BUDGET: u64 = 5_000;
const SEED: u64 = 2016;

fn fleet() -> Vec<FullAlgorithm> {
    (0..ACTIVE)
        .map(|_| FullAlgorithm::new(Params::practical(), CHANNELS, N))
        .collect()
}

fn run_on<P: Protocol, F: FeedbackModel>(label: &str, feedback: F, nodes: Vec<P>) {
    let config = SimConfig::new(CHANNELS).seed(SEED).round_budget(BUDGET);
    let mut engine = Engine::with_feedback(config, feedback).populated(nodes);
    match engine.run() {
        Ok(report) => match report.rounds_to_solve() {
            Some(rounds) => println!(
                "  {label:<46} solved in {rounds} rounds, {} transmissions",
                report.metrics.transmissions
            ),
            None => println!("  {label:<46} GAVE UP: every node terminated without a solve"),
        },
        Err(SimError::BudgetExhausted { budget, .. }) => {
            println!("  {label:<46} WEDGED: watchdog fired after {budget} rounds")
        }
        Err(e) => println!("  {label:<46} failed: {e}"),
    }
}

fn main() {
    println!(
        "degraded network: n = {N}, C = {CHANNELS}, |A| = {ACTIVE}, \
         round budget {BUDGET}\n"
    );

    run_on(
        "clean strong CD (the paper's model)",
        CdMode::Strong,
        fleet(),
    );
    run_on(
        "5% noisy collision detection",
        Layered::new(NoisyCd::symmetric(0.05), CdMode::Strong),
        fleet(),
    );
    run_on(
        "5% noise over a 10% lossy channel",
        Layered::new(
            NoisyCd::symmetric(0.05),
            Layered::new(LossyChannel::new(0.10), CdMode::Strong),
        ),
        fleet(),
    );
    run_on(
        "noise + loss + 25% of nodes crash by round 20",
        Layered::new(
            NoisyCd::symmetric(0.05),
            Layered::new(
                LossyChannel::new(0.10),
                Layered::new(CrashStop::random(ACTIVE / 4, ACTIVE, 20), CdMode::Strong),
            ),
        ),
        fleet(),
    );
    run_on(
        "pipeline vs unbounded reactive jammer",
        JamBudget::new(CdMode::Strong, u64::MAX),
        fleet(),
    );
    // Decay backs off forever but never gives up, so a flooded primary
    // channel wedges it — the watchdog turns the hang into an error.
    run_on(
        "Decay vs flooded primary channel",
        JamBudget::flood(CdMode::Strong),
        (0..ACTIVE).map(|_| Decay::new(N)).collect(),
    );

    println!(
        "\nEvery run above used the same seed: rerun the binary and the numbers\n\
         repeat bit-for-bit — fault injection draws from RNG streams derived\n\
         from the master seed, disjoint from the per-node streams."
    );
}
