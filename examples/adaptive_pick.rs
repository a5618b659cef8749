//! Scenario: estimate first, then pick the right algorithm.
//!
//! ```text
//! cargo run --release -p contention-bench --example adaptive_pick
//! ```
//!
//! The experiments show a density trade-off: the adaptive tournament is
//! great when few nodes contend, the paper's pipeline when many do (E9's
//! density table). A deployment can buy the best of both with one cheap
//! measurement: run the `lg n + 1`-round [`SizeEstimate`] sweep, then
//! dispatch on the agreed estimate. This example plays that policy against
//! three very different activation densities and prints what it chose and
//! what it cost end to end — estimation rounds included.

use contention::extensions::SizeEstimate;
use contention::session::{Algorithm, Session};
use contention::Params;
use mac_sim::{Engine, SimConfig, StopWhen};

const N: u64 = 1 << 12;
const C: u32 = 64;

/// Phase 1: all activated nodes run the estimator; returns the consensus
/// estimate and the rounds spent.
fn estimate(active: usize, seed: u64) -> (u64, u64) {
    let cfg = SimConfig::new(C)
        .seed(seed)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(1000);
    let mut exec = Engine::new(cfg).populated((0..active).map(|_| SizeEstimate::new(N)));
    let report = exec.run().expect("sweep finishes");
    let estimate = exec
        .iter_nodes()
        .next()
        .expect("nonempty")
        .estimate()
        .expect("agreed");
    (estimate, report.rounds_executed)
}

/// Phase 2: the dispatch policy. Sparse bursts go to the adaptive
/// tournament; dense ones to the paper's pipeline.
fn pick(estimate: u64) -> Algorithm {
    if estimate * 16 < N {
        Algorithm::CdTournament
    } else {
        Algorithm::Paper(Params::practical())
    }
}

fn main() {
    println!("adaptive policy on n = {N}, C = {C}: estimate |A|, then dispatch\n");
    for (label, active) in [("sparse", 6usize), ("medium", 200), ("dense", 4096)] {
        let (est, est_rounds) = estimate(active, 42);
        let algo = pick(est);
        let resolution = Session::new(C, N)
            .algorithm(algo)
            .seed(43)
            .run(active)
            .expect("resolves");
        let solve_rounds = resolution.rounds().expect("solved");
        println!(
            "{label:<7} |A| = {active:<5} estimate ≈ {est:<5} → {:<15} \
             {est_rounds} + {solve_rounds} rounds total",
            resolution.algorithm
        );
    }
    println!(
        "\nthe estimator costs a flat lg n + 1 = {} rounds and every node agrees on \
         its output by construction (strong CD makes the sweep a broadcast).",
        (N as f64).log2() as u64 + 1
    );
}
