//! Reproducibility guarantees: every run is a pure function of
//! (seed, configuration, node set) — the property that makes the
//! experiment tables in EXPERIMENTS.md regenerable bit-for-bit.

use contention::baselines::CdTournament;
use contention::{FullAlgorithm, Params, TwoActive};
use mac_sim::{Engine, RunReport, SimConfig, StopWhen};

fn run_full(seed: u64, c: u32, n: u64, active: usize) -> RunReport {
    let cfg = SimConfig::new(c)
        .seed(seed)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(1_000_000);
    let mut exec = Engine::new(cfg)
        .populated((0..active).map(|_| FullAlgorithm::new(Params::practical(), c, n)));
    exec.run().expect("runs")
}

#[test]
fn identical_seeds_identical_everything() {
    let a = run_full(12345, 64, 1 << 12, 300);
    let b = run_full(12345, 64, 1 << 12, 300);
    assert_eq!(a.solved_round, b.solved_round);
    assert_eq!(a.solver, b.solver);
    assert_eq!(a.leaders, b.leaders);
    assert_eq!(a.rounds_executed, b.rounds_executed);
    assert_eq!(a.metrics.transmissions, b.metrics.transmissions);
    assert_eq!(
        a.metrics.transmissions_per_node,
        b.metrics.transmissions_per_node
    );
}

#[test]
fn different_seeds_differ_somewhere() {
    let outcomes: Vec<Option<u64>> = (0..10)
        .map(|s| run_full(s, 64, 1 << 12, 300).solved_round)
        .collect();
    let first = outcomes[0];
    assert!(
        outcomes.iter().any(|&o| o != first),
        "10 different seeds all produced {first:?}"
    );
}

#[test]
fn node_insertion_order_defines_identity() {
    // Swapping insertion order re-seeds nodes, so outcomes may change, but
    // the same order twice must agree — node identity is positional.
    let build = |seed| {
        let cfg = SimConfig::new(8)
            .seed(seed)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(100_000);
        Engine::new(cfg).populated([TwoActive::new(8, 256), TwoActive::new(8, 256)])
    };
    let w1 = build(7).run().expect("runs").leaders;
    let w2 = build(7).run().expect("runs").leaders;
    assert_eq!(w1, w2);
}

#[test]
fn harness_parallel_runner_is_deterministic() {
    use mac_sim::trials::fan_out;
    let solved_round = |seed: u64| {
        let mut exec = Engine::new(SimConfig::new(1).seed(seed).max_rounds(100_000))
            .populated((0..32).map(|_| CdTournament::new()));
        exec.run().expect("runs").solved_round
    };
    let a = fan_out(16, 5, None, solved_round);
    let b = fan_out(16, 5, None, solved_round);
    assert_eq!(a, b, "thread scheduling leaked into results");
}

#[test]
fn trial_results_are_thread_count_invariant() {
    use mac_sim::trials::fan_out;
    let trial = |seed: u64| {
        let mut engine = Engine::new(SimConfig::new(4).seed(seed).max_rounds(100_000))
            .populated((0..24).map(|_| CdTournament::new()));
        let r = engine.run().expect("runs");
        (r.summary(), r.metrics.transmissions_per_node)
    };
    let serial = fan_out(17, 900, Some(1), trial);
    for threads in [2, 4, 7, 16] {
        let parallel = fan_out(17, 900, Some(threads), trial);
        assert_eq!(
            serial, parallel,
            "{threads} worker threads changed trial results"
        );
    }
}

#[test]
fn trace_is_reproducible() {
    let run = || {
        let cfg = SimConfig::new(16)
            .seed(3)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(100_000);
        let mut exec = Engine::new(cfg)
            .populated((0..10).map(|_| FullAlgorithm::new(Params::practical(), 16, 1 << 8)));
        let mut trace = mac_sim::Trace::new();
        exec.run_observed(&mut trace).expect("runs");
        trace
    };
    assert_eq!(run(), run());
}
