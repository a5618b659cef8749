//! Supervised recovery: restart-with-backoff turns a wedged run into a
//! late solve — when the fault is the kind that drains.
//!
//! ```text
//! cargo run --release -p contention-bench --example supervised_recovery
//! ```
//!
//! A reactive jammer with veto budget `B` silently cancels the first `B`
//! rounds in which the pipeline would have solved. The unsupervised
//! pipeline spends its whole round budget on one attempt, so a handful of
//! vetoes wedge it: the attempt that would have solved is exactly the one
//! the jammer kills. `contention::Supervised` splits the same budget into
//! slices and restarts any node whose attempt exhausts its slice (or
//! reports an invariant violation) from clean state on a fresh derived
//! RNG stream. Every attempt the jammer kills costs it budget, so each
//! restart faces a cleaner channel than the attempt it replaces — the
//! same total rounds, spent on several short attempts instead of one long
//! one, move the breakdown point several-fold (E19 quantifies the curve).
//!
//! The contrast case at the bottom is symmetric CD noise: it is
//! memoryless, a restarted attempt faces exactly the flip probability it
//! just wedged under, and supervision neither helps nor hurts. Restart
//! policies are transient-fault machinery, not a universal shield — see
//! docs/ROBUSTNESS.md.

use contention::phase::PhaseTelemetry;
use contention::supervise::RESTART_MARKER;
use contention::{supervised_paper_node, FullAlgorithm, Params, RestartPolicy};
use mac_sim::fault::{JamBudget, Layered, NoisyCd};
use mac_sim::{CdMode, Engine, FeedbackModel, SimConfig, SimError};

const N: u64 = 1 << 12;
const CHANNELS: u32 = 64;
const ACTIVE: usize = 96;
/// One total round budget for both algorithms: the supervisor gets no
/// extra rounds, only a different spending schedule (4 slices of 250).
const BUDGET: u64 = 1_000;
const SLICE: u64 = 250;
const ATTEMPTS: u32 = 4;
const SEED: u64 = 2016;

fn policy() -> RestartPolicy {
    RestartPolicy::new(SLICE, ATTEMPTS).backoff(1)
}

/// Runs the unsupervised pipeline once; reports solve or wedge.
fn unsupervised<F: FeedbackModel>(label: &str, feedback: F) {
    let config = SimConfig::new(CHANNELS).seed(SEED).round_budget(BUDGET);
    let mut engine = Engine::with_feedback(config, feedback)
        .populated((0..ACTIVE).map(|_| FullAlgorithm::new(Params::practical(), CHANNELS, N)));
    match engine.run() {
        Ok(report) => match report.rounds_to_solve() {
            Some(rounds) => println!("  {label:<42} solved in {rounds} rounds"),
            None => println!("  {label:<42} GAVE UP without a solve"),
        },
        Err(SimError::BudgetExhausted { budget, .. }) => {
            println!("  {label:<42} WEDGED: one attempt burned all {budget} rounds")
        }
        Err(e) => println!("  {label:<42} failed: {e}"),
    }
}

/// Runs the supervised pipeline once; reports solve (with the solver's
/// restart count read off its telemetry spine) or wedge.
fn supervised<F: FeedbackModel>(label: &str, feedback: F) {
    let config = SimConfig::new(CHANNELS).seed(SEED).round_budget(BUDGET);
    let mut engine = Engine::with_feedback(config, feedback).populated(
        (0..ACTIVE).map(|_| supervised_paper_node(Params::practical(), CHANNELS, N, policy())),
    );
    match engine.run() {
        Ok(report) => match (report.solver, report.solved_round) {
            (Some(id), Some(rounds)) => {
                let restarts = engine
                    .node(id)
                    .phase_stats()
                    .iter()
                    .filter(|s| s.name == RESTART_MARKER)
                    .count();
                println!(
                    "  {label:<42} solved in {rounds} rounds after {restarts} solver restart(s)"
                );
            }
            _ => println!("  {label:<42} GAVE UP without a solve"),
        },
        Err(SimError::BudgetExhausted { .. }) => {
            println!("  {label:<42} WEDGED: all {ATTEMPTS} attempts exhausted")
        }
        Err(e) => println!("  {label:<42} failed: {e}"),
    }
}

fn main() {
    println!(
        "supervised recovery: n = {N}, C = {CHANNELS}, |A| = {ACTIVE}, \
         round budget {BUDGET} ({ATTEMPTS} slices of {SLICE} when supervised)\n"
    );

    println!("reactive jammer, veto budget B = 8:");
    unsupervised(
        "one attempt, whole budget",
        JamBudget::new(CdMode::Strong, 8),
    );
    supervised(
        "restart-with-backoff, same budget",
        JamBudget::new(CdMode::Strong, 8),
    );

    println!("\nreactive jammer, veto budget B = 16:");
    unsupervised(
        "one attempt, whole budget",
        JamBudget::new(CdMode::Strong, 16),
    );
    supervised(
        "restart-with-backoff, same budget",
        JamBudget::new(CdMode::Strong, 16),
    );

    // The control: memoryless noise. A restart faces the same flip
    // probability the dead attempt did, so supervision buys nothing here.
    println!("\nsymmetric CD noise, p = 0.7 (memoryless — the control):");
    unsupervised(
        "one attempt, whole budget",
        Layered::new(NoisyCd::symmetric(0.7), CdMode::Strong),
    );
    supervised(
        "restart-with-backoff, same budget",
        Layered::new(NoisyCd::symmetric(0.7), CdMode::Strong),
    );

    println!(
        "\nSame seed, same total budget in every pair: only the spending\n\
         schedule differs. Each jammed attempt the supervisor sacrifices\n\
         drains the jammer's veto budget, so the restart it buys faces a\n\
         cleaner channel; noise has no budget to drain. Rerun the binary\n\
         and every line repeats bit-for-bit."
    );
}
