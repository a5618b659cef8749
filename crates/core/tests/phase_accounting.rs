//! Stage-boundary round accounting for the composed pipeline.
//!
//! `FullStats::reduce_rounds` / `id_reduction_rounds` / `election_rounds`
//! are views over the per-phase telemetry spine, and phase handoffs happen
//! at observe/act round boundaries with no round lost or double-counted —
//! so for the node that solves the run (it participates in *every* round up
//! to the solving one), the per-stage counters must sum to exactly the
//! engine's reported rounds-to-solve. This holds on the pipeline path and,
//! via the spine's `cd-tournament` record, on the small-`C` fallback path.

use contention::phase::PhaseTelemetry;
use contention::{FullAlgorithm, Params};
use mac_sim::{Engine, NodeId, SimConfig, StopWhen};

fn solve(c: u32, n: u64, active: usize, seed: u64) -> (u64, NodeId, Engine<FullAlgorithm>) {
    let cfg = SimConfig::new(c)
        .seed(seed)
        .stop_when(StopWhen::Solved)
        .max_rounds(1_000_000);
    let mut exec = Engine::new(cfg)
        .populated((0..active).map(|_| FullAlgorithm::new(Params::practical(), c, n)));
    let report = exec.run().expect("run solves");
    let rounds = report.rounds_to_solve().expect("solved");
    let solver = report.solver.expect("solved runs name a solver");
    (rounds, solver, exec)
}

#[test]
fn stage_counters_sum_to_total_rounds_on_the_pipeline_path() {
    // C = 64 is above the fallback threshold: the stack is the 3-step
    // pipeline, and the three FullStats counters must account for every
    // engine round of the solver's run.
    for seed in 0..10u64 {
        let (rounds, solver, exec) = solve(64, 1 << 12, 400, seed);
        let stats = exec.node(solver).stats();
        assert!(!stats.used_fallback);
        assert_eq!(
            stats.reduce_rounds + stats.id_reduction_rounds + stats.election_rounds,
            rounds,
            "seed {seed}: stage counters must sum to rounds-to-solve {rounds} (stats {stats:?})"
        );
    }
}

#[test]
fn stage_counters_sum_to_total_rounds_on_the_fallback_path() {
    // C = 2 is below the fallback threshold: the whole run is the
    // single-channel tournament. The three pipeline counters stay zero and
    // the spine's cd-tournament record carries the full round count.
    for seed in 0..10u64 {
        let (rounds, solver, exec) = solve(2, 1 << 12, 100, seed);
        let node = exec.node(solver);
        let stats = node.stats();
        assert!(stats.used_fallback);
        assert_eq!(
            stats.reduce_rounds + stats.id_reduction_rounds + stats.election_rounds,
            0,
            "seed {seed}: pipeline counters must stay zero under fallback"
        );
        let spine = node.phase_stats();
        assert_eq!(spine.len(), 1, "fallback spine is a single record");
        assert_eq!(spine[0].name, "cd-tournament");
        assert_eq!(
            spine[0].rounds, rounds,
            "seed {seed}: the tournament record must account for every round"
        );
    }
}

#[test]
fn every_node_spine_is_bounded_by_the_run_and_ordered() {
    // Non-solver nodes may retire early; their spines still may not exceed
    // the run length, and records appear in pipeline order.
    let (rounds, _, exec) = solve(64, 1 << 12, 400, 42);
    let order = ["reduce", "id-reduction", "leaf-election"];
    for node in exec.iter_nodes() {
        let spine = node.phase_stats();
        let total: u64 = spine.iter().map(|r| r.rounds).sum();
        assert!(total <= rounds);
        let positions: Vec<usize> = spine
            .iter()
            .map(|r| {
                order
                    .iter()
                    .position(|o| *o == r.name)
                    .expect("known phase")
            })
            .collect();
        assert!(
            positions.windows(2).all(|w| w[0] < w[1]),
            "spine out of pipeline order: {spine:?}"
        );
        // The stats view agrees with the spine it is derived from.
        let stats = node.stats();
        assert_eq!(
            stats.reduce_rounds + stats.id_reduction_rounds + stats.election_rounds,
            total
        );
    }
}
