//! Crash-stop fault injection against the paper's algorithms.
//!
//! The paper's model has **no crash faults**, so none of its algorithms
//! promise crash tolerance — but a real deployment wants to know the blast
//! radius. These tests measure it with the `mac_sim::fault` subsystem
//! (`CrashStop` layered over the clean strong-CD channel):
//!
//! * crashes *before a node matters* (it would have been knocked out
//!   anyway) are harmless — the overwhelmingly common case, since the
//!   pipeline's first step eliminates all but `O(log n)` nodes;
//! * mass crashes are harmless as long as at least one node survives
//!   (survivors simply hear more silence, which the knock-out logic reads
//!   correctly);
//! * crashing a node that holds a *structural role* (a cohort member in
//!   `LeafElection`) can wedge the cohort protocol — the honest negative
//!   result, measured here as a timeout rather than a wrong answer.
//!
//! Two crash-at-round regressions at the bottom pin the scheduled form
//! (`CrashStop::schedule`): every node but one dead on arrival, and 80% of
//! nodes crashing in round 2.

use contention::{FullAlgorithm, Params};
use mac_sim::fault::{CrashStop, Layered};
use mac_sim::trials::fan_out;
use mac_sim::{CdMode, Engine, NodeId, SimConfig, SimError, StopWhen};

const C: u32 = 64;
const N: u64 = 1 << 12;

fn engine_with_crashes(
    active: usize,
    crashes: Vec<(NodeId, u64)>,
    seed: u64,
    cap: u64,
) -> Engine<FullAlgorithm, Layered<CrashStop, CdMode>> {
    let cfg = SimConfig::new(C)
        .seed(seed)
        .stop_when(StopWhen::Solved)
        .max_rounds(cap);
    let fault = Layered::new(CrashStop::schedule(crashes), CdMode::Strong);
    Engine::with_feedback(cfg, fault)
        .populated((0..active).map(|_| FullAlgorithm::new(Params::practical(), C, N)))
}

#[test]
fn early_crashes_of_most_nodes_are_harmless() {
    // 80% of nodes crash in round 2 — statistically all of them were going
    // to lose anyway; the rest solve. Fanned out over 10 seeds via the
    // trials helper, which panics (with the seed) on any failure.
    let crashes: Vec<_> = (0..500)
        .filter(|idx| idx % 5 != 0)
        .map(|idx| (NodeId(idx), 2))
        .collect();
    let reports = fan_out(10, 0, None, |seed| {
        engine_with_crashes(500, crashes.clone(), seed, 100_000)
            .run()
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"))
    });
    for (seed, report) in reports.iter().enumerate() {
        assert!(report.is_solved(), "seed {seed}");
    }
}

#[test]
fn all_but_one_crashing_leaves_a_winner() {
    let crashes: Vec<_> = (0..100)
        .filter(|&idx| idx != 37)
        .map(|idx| (NodeId(idx), 0))
        .collect();
    let report = engine_with_crashes(100, crashes, 3, 100_000)
        .run()
        .expect("lone survivor solves");
    assert!(report.is_solved());
    assert_eq!(report.solver, Some(NodeId(37)));
}

#[test]
fn random_crash_waves_leave_survivors_that_solve() {
    // The seeded random-victim mode: a third of the fleet is dead on
    // arrival (window 1 ⇒ every victim crashes in round 0), different
    // victims per master seed. Survivors must still solve — a node that
    // never transmits is indistinguishable from a smaller population.
    // (Crashes *during* the pipeline can legitimately wedge the cohort
    // election; that regime is covered by the staggered-wave and
    // wedge tests below.)
    let reports = fan_out(10, 100, None, |seed| {
        let cfg = SimConfig::new(C)
            .seed(seed)
            .stop_when(StopWhen::Solved)
            .max_rounds(100_000);
        let fault = Layered::new(CrashStop::random(100, 300, 1), CdMode::Strong);
        let mut engine = Engine::with_feedback(cfg, fault)
            .populated((0..300).map(|_| FullAlgorithm::new(Params::practical(), C, N)));
        engine.run().unwrap_or_else(|e| panic!("seed {seed}: {e}"))
    });
    for (i, report) in reports.iter().enumerate() {
        assert!(report.is_solved(), "seed {}", 100 + i);
    }
}

#[test]
fn staggered_crash_wave_during_reduce_is_tolerated() {
    // Crashes spread over the Reduce step (rounds 1..=8): knocked-out-to-be
    // nodes disappearing early only *reduces* contention.
    for seed in 0..10 {
        let crashes: Vec<_> = (0..400)
            .map(|idx| (NodeId(idx), 1 + (idx as u64 % 8)))
            .collect();
        let report = engine_with_crashes(400, crashes, seed, 100_000).run();
        // The entire population crashes within 8 rounds; a solve only
        // happens if some lone transmission landed first. Either outcome
        // (solve, or a clean everyone-terminated end) is acceptable — what
        // must not happen is a simulation error other than timeout.
        match report {
            Ok(_) => {}
            Err(SimError::Timeout { .. }) => {}
            Err(e) => panic!("seed {seed}: unexpected error {e}"),
        }
    }
}

#[test]
fn crashing_every_cohort_coordinator_wedges_leaf_election() {
    // The honest negative result: LeafElection's cohorts assume their
    // members stay; crash-stop faults inside the election can silence a
    // round the protocol's search interprets as "no collision", wedging
    // progress. We crash every node at round 30 (typically mid-election for
    // this configuration) and expect a timeout, not a wrong answer:
    // split-brain (two leaders) must never occur even under crashes.
    let result = std::panic::catch_unwind(|| {
        let crashes: Vec<_> = (0..300).map(|idx| (NodeId(idx), 30)).collect();
        let cfg = SimConfig::new(256)
            .seed(5)
            .stop_when(StopWhen::Solved)
            .max_rounds(2_000);
        let fault = Layered::new(CrashStop::schedule(crashes), CdMode::Strong);
        let mut engine = Engine::with_feedback(cfg, fault)
            .populated((0..300).map(|_| FullAlgorithm::new(Params::practical(), 256, N)));
        engine.run()
    });
    match result {
        Ok(Ok(report)) => {
            // Solved before the crash wave hit, or survivors limped through.
            assert!(report.leaders.len() <= 1, "split brain under crashes");
        }
        Ok(Err(SimError::Timeout { .. })) => {} // wedged: expected
        Ok(Err(e)) => panic!("unexpected error: {e}"),
        // Debug builds may trip protocol assertions (e.g. a cohort hearing
        // silence where the paper's model guarantees a broadcast) — that is
        // the fault being *detected*, which is also acceptable.
        Err(_) => {}
    }
}

#[test]
fn an_assassin_only_delays_the_pipeline() {
    // The adaptive adversary: kill the first two would-be solvers the
    // instant they would win. The solve-validity rail means neither corpse
    // is reported as a solver; a third node eventually gets through, or the
    // run ends cleanly without a winner — never a crashed winner.
    for seed in 0..5 {
        let cfg = SimConfig::new(C)
            .seed(seed)
            .stop_when(StopWhen::Solved)
            .max_rounds(100_000);
        let fault = Layered::new(CrashStop::assassin(2), CdMode::Strong);
        let mut engine = Engine::with_feedback(cfg, fault)
            .populated((0..50).map(|_| FullAlgorithm::new(Params::practical(), C, N)));
        match engine.run() {
            Ok(report) => {
                if let Some(solver) = report.solver {
                    assert!(
                        !engine.feedback().layer().crashed(solver),
                        "seed {seed}: a crashed node was reported as solver"
                    );
                    assert_eq!(engine.feedback().layer().crash_count(), 2, "seed {seed}");
                }
            }
            Err(SimError::Timeout { .. }) => {} // all survivors knocked out: acceptable
            Err(e) => panic!("seed {seed}: unexpected error {e}"),
        }
    }
}

// --- Crash-at-round regressions ------------------------------------------
//
// A node that crashes after `k` rounds is scheduled at round `k`; a node
// that never crashes is left out of the schedule.

#[test]
fn crash_at_wrapper_still_solves_with_survivors() {
    let crashes = (0..100)
        .filter(|&idx| idx != 37)
        .map(|idx| (NodeId(idx), 0))
        .collect();
    let report = engine_with_crashes(100, crashes, 7, 100_000)
        .run()
        .expect("lone survivor solves");
    assert!(report.is_solved());
    assert_eq!(report.solver, Some(NodeId(37)));
}

#[test]
fn crash_at_wrapper_tolerates_early_mass_crashes() {
    let crashes: Vec<_> = (0..500)
        .filter(|idx| idx % 5 != 0)
        .map(|idx| (NodeId(idx), 2))
        .collect();
    for seed in 0..3 {
        let report = engine_with_crashes(500, crashes.clone(), seed, 100_000)
            .run()
            .expect("survivors solve");
        assert!(report.is_solved(), "seed {seed}");
    }
}
