//! Custom pipeline: composing a hybrid protocol stack out of phases.
//!
//! ```text
//! cargo run --release -p contention-bench --example custom_pipeline
//! ```
//!
//! The paper's Theorem 4 algorithm is a composition of phases —
//! `Reduce → IdReduction → LeafElection` — and `contention::phase` makes
//! that composition operator available to everyone. This example builds a
//! hybrid stack the paper never wrote down:
//!
//! ```text
//! Reduce  →  CdTournament
//! ```
//!
//! knock the contender field down with the paper's multi-channel `Reduce`,
//! then finish on a single channel with the id-free tournament — skipping
//! the renaming and tree-search machinery entirely. The tournament costs
//! `O(log |survivors|)` rounds, so spending `Reduce`'s `O(log n / log C)`
//! rounds first is a sensible engineering trade at moderate `C`.
//!
//! The example then stresses the same stack on faulted radios (the
//! `mac_sim::fault` layers): symmetric collision-detection noise via
//! `fault::Layered`, a one-attempt `Supervised` watchdog that turns a
//! jam-wedged stack into a clean give-up, and the §3 wake-up combinator (`staggered`) over
//! the whole hybrid — phases compose with the fault and wake-up machinery
//! with no engine changes.

use contention::baselines::{CdTournament, Decay};
use contention::phase::{Phase, PhaseProtocol, PhaseTelemetry};
use contention::{FullAlgorithm, Params, Reduce, RestartPolicy, Supervised};
use mac_sim::fault::{JamBudget, Layered, NoisyCd};
use mac_sim::{CdMode, Engine, FeedbackModel, Protocol, SimConfig, SimError};

const N: u64 = 1 << 14;
const CHANNELS: u32 = 32;
const ACTIVE: usize = 300;
const BUDGET: u64 = 5_000;
const SEED: u64 = 4;

/// The hybrid stack: `Reduce` knocks the field down, survivors hand off —
/// at a barrier-synchronized round boundary — to the single-channel
/// tournament. `impl Phase` keeps the combinator type out of sight.
fn hybrid(params: Params, n: u64) -> impl Phase<Output = ()> {
    Reduce::with_params(params, n).and_then(|()| CdTournament::new())
}

fn report_run<P, F>(label: &str, mut engine: Engine<P, F>)
where
    P: Protocol,
    F: FeedbackModel,
{
    match engine.run() {
        Ok(report) => match report.rounds_to_solve() {
            Some(rounds) => println!(
                "  {label:<52} solved in {rounds} rounds, {} transmissions",
                report.metrics.transmissions
            ),
            None => println!("  {label:<52} GAVE UP: all nodes terminated, no solve"),
        },
        Err(SimError::BudgetExhausted { budget, .. }) => {
            println!("  {label:<52} WEDGED: watchdog fired after {budget} rounds")
        }
        Err(e) => println!("  {label:<52} failed: {e}"),
    }
}

fn main() {
    let params = Params::practical();
    println!(
        "custom pipeline: n = {N}, C = {CHANNELS}, |A| = {ACTIVE}, seed {SEED}\n\n\
         clean channel — the hybrid vs its ingredients:"
    );

    // 1. The hybrid stack on the paper's clean strong-CD channel, with the
    //    solver's telemetry spine showing where its rounds went.
    let mut engine = Engine::new(SimConfig::new(CHANNELS).seed(SEED).round_budget(BUDGET))
        .populated((0..ACTIVE).map(|_| PhaseProtocol::new(hybrid(params, N))));
    let report = engine.run().expect("clean run solves");
    let rounds = report.rounds_to_solve().expect("solved");
    println!(
        "  {:<52} solved in {rounds} rounds, {} transmissions",
        "Reduce -> CdTournament (hybrid)", report.metrics.transmissions
    );
    if let Some(solver) = report.solver {
        for record in engine.node(solver).phase_stats() {
            println!(
                "      solver spent {:>3} rounds ({} transmissions) in {}",
                record.rounds, record.transmissions, record.name
            );
        }
    }

    // Its two ingredients, for scale: the paper's full pipeline and the
    // tournament alone (which pays lg |A| with the whole field contending).
    report_run(
        "full paper pipeline",
        Engine::new(SimConfig::new(CHANNELS).seed(SEED).round_budget(BUDGET))
            .populated((0..ACTIVE).map(|_| FullAlgorithm::new(params, CHANNELS, N))),
    );

    report_run(
        "CdTournament alone",
        Engine::new(SimConfig::new(CHANNELS).seed(SEED).round_budget(BUDGET))
            .populated((0..ACTIVE).map(|_| PhaseProtocol::new(CdTournament::new()))),
    );

    // 2. The same stack under fault::Layered collision-detection noise: a
    //    flipped observation can cost rounds, but modest noise is survivable.
    println!("\nnoisy collision detection (fault::Layered over strong CD):");
    for noise in [0.02, 0.10] {
        let config = SimConfig::new(CHANNELS).seed(SEED).round_budget(BUDGET);
        let feedback = Layered::new(NoisyCd::symmetric(noise), CdMode::Strong);
        report_run(
            &format!("hybrid, {:.0}% CD noise", noise * 100.0),
            Engine::with_feedback(config, feedback)
                .populated((0..ACTIVE).map(|_| PhaseProtocol::new(hybrid(params, N)))),
        );
    }

    // 3. The round watchdog. A jammer owning the primary channel for
    //    the whole run fails the CD-driven stacks *fast* (every listener
    //    hears collisions and knocks itself out — a clean give-up). The
    //    protocol that wedges is `Decay`, which never listens: unwatched,
    //    it spins until the engine's round budget fires; a `Supervised`
    //    stack with one 1500-round attempt retires every node first and
    //    the run ends in a clean no-solve.
    println!("\nprimary channel jammed for the whole run:");
    let config = SimConfig::new(CHANNELS).seed(SEED).round_budget(BUDGET);
    let jammer = JamBudget::flood(CdMode::Strong);
    report_run(
        "hybrid vs jammer (CD fails fast)",
        Engine::with_feedback(config, jammer)
            .populated((0..ACTIVE).map(|_| PhaseProtocol::new(hybrid(params, N)))),
    );

    let config = SimConfig::new(CHANNELS).seed(SEED).round_budget(BUDGET);
    let jammer = JamBudget::flood(CdMode::Strong);
    report_run(
        "Decay (never listens) vs jammer",
        Engine::with_feedback(config, jammer)
            .populated((0..ACTIVE).map(|_| PhaseProtocol::new(Decay::new(N)))),
    );

    let config = SimConfig::new(CHANNELS).seed(SEED).round_budget(BUDGET);
    let jammer = JamBudget::flood(CdMode::Strong);
    report_run(
        "Decay, one 1500-round supervised attempt, vs jammer",
        Engine::with_feedback(config, jammer).populated((0..ACTIVE).map(|_| {
            PhaseProtocol::new(Supervised::new(
                || Decay::new(N),
                RestartPolicy::new(1_500, 1),
            ))
        })),
    );

    // 4. The §3 wake-up combinator over the whole hybrid: `staggered()`
    //    wraps any composed stack, tolerating adversarial wake offsets at
    //    the usual x2 round cost.
    println!("\nstaggered wake-ups (offsets i mod 5):");
    let mut engine = Engine::new(SimConfig::new(CHANNELS).seed(SEED).round_budget(BUDGET));
    for i in 0..ACTIVE as u64 {
        engine.add_node_at(hybrid(params, N).staggered(), i % 5);
    }
    report_run("hybrid.staggered()", engine);
}
