//! Scenario: picking a symmetry-breaking algorithm for a given radio.
//!
//! ```text
//! cargo run --release -p contention-bench --example algorithm_shootout
//! ```
//!
//! A systems designer choosing between radios (with/without collision
//! detection, narrow/wideband) wants the contention-resolution landscape:
//! this example races the paper's algorithm against the three prior-art
//! baselines across channel counts and prints a decision table — a
//! miniature of experiment E9 (run `repro e9` for the full sweep).

use contention::baselines::{BinaryDescent, Decay, MultiChannelNoCd};
use contention::{FullAlgorithm, Params};
use contention_analysis::Table;
use mac_sim::{CdMode, Engine, Protocol, SimConfig};

const N: u64 = 1 << 14;
// Dense activation (|A| = n): the adversarial case the worst-case bounds
// target, and where the landscape separates most cleanly.
const ACTIVE: usize = 1 << 14;
const TRIALS: usize = 12;

fn mean_rounds<P: Protocol>(build: impl Fn(u64) -> Engine<P> + Sync) -> f64 {
    // The summary path skips metrics/trace entirely — all this shootout
    // needs is the solve round — and the trials fan out over threads.
    let total: u64 = mac_sim::trials::fan_out(TRIALS, 0, None, |seed| {
        build(seed)
            .run_summary()
            .unwrap_or_else(|e| panic!("trial with seed {seed} failed: {e}"))
            .rounds_to_solve()
            .expect("solved")
    })
    .iter()
    .sum();
    total as f64 / TRIALS as f64
}

fn main() {
    println!("algorithm shootout: n = {N}, |A| = {ACTIVE}, {TRIALS} trials/cell\n");

    let mut table = Table::new(&[
        "C",
        "this paper (CD)",
        "binary descent (CD)",
        "decay (no CD)",
        "multi no-CD",
    ]);

    for c in [1u32, 8, 64, 512] {
        let full = mean_rounds(|seed| {
            Engine::new(SimConfig::new(c).seed(seed).max_rounds(10_000_000))
                .populated((0..ACTIVE).map(|_| FullAlgorithm::new(Params::practical(), c, N)))
        });
        let descent = mean_rounds(|seed| {
            // Spread ids evenly over the universe.
            let stride = N / ACTIVE as u64;
            Engine::new(SimConfig::new(c).seed(seed).max_rounds(10_000_000))
                .populated((0..ACTIVE as u64).map(|i| BinaryDescent::new(i * stride, N)))
        });
        let no_cd = |seed| {
            SimConfig::new(c)
                .seed(seed)
                .cd_mode(CdMode::None)
                .max_rounds(10_000_000)
        };
        let decay = mean_rounds(|seed| {
            Engine::new(no_cd(seed)).populated((0..ACTIVE).map(|_| Decay::new(N)))
        });
        let nocd = mean_rounds(|seed| {
            Engine::new(no_cd(seed)).populated((0..ACTIVE).map(|_| MultiChannelNoCd::new(c, N)))
        });
        table.row_owned(vec![
            c.to_string(),
            format!("{full:.1}"),
            format!("{descent:.1}"),
            format!("{decay:.1}"),
            format!("{nocd:.1}"),
        ]);
    }

    println!("{table}");
    println!("\n(mean rounds to the first lone primary-channel transmission; lower is better)");
}
