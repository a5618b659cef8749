//! Model-level integration tests: the algorithms really do depend on the
//! model features the paper assumes — strong collision detection and
//! multiple channels — and degrade exactly as predicted without them.

use contention::baselines::{BinaryDescent, Decay};
use contention::{FullAlgorithm, Params, TwoActive};
use mac_sim::{CdMode, Engine, SimConfig, SimError, StopWhen};

/// `TwoActive`'s renaming step has transmitters use their collision
/// detectors to learn they are alone — under receiver-only CD the
/// transmitter learns nothing, so the step can never advance and the run
/// times out. This is the paper's strong-CD assumption made executable.
#[test]
fn two_active_requires_strong_cd() {
    let cfg = SimConfig::new(16)
        .seed(1)
        .cd_mode(CdMode::ReceiverOnly)
        .max_rounds(2_000);
    let mut exec =
        Engine::new(cfg).populated([TwoActive::new(16, 1 << 10), TwoActive::new(16, 1 << 10)]);
    match exec.run() {
        Err(SimError::Timeout { .. }) => {}
        Ok(report) => {
            // Both transmit every round; a solve could only be a freak lone
            // transmission on channel 1 while the protocol is stuck — but
            // the protocol itself must never have terminated cleanly.
            assert!(
                !report.leaders.len() > 0,
                "no node can believe it won without transmitter CD"
            );
        }
        Err(e) => panic!("unexpected error: {e}"),
    }
}

/// The full algorithm's knock-out logic reads transmitter-side feedback the
/// same way; without strong CD no node can ever become leader through the
/// protocol's own logic.
#[test]
fn full_algorithm_never_self_elects_without_strong_cd() {
    let cfg = SimConfig::new(64)
        .seed(2)
        .cd_mode(CdMode::ReceiverOnly)
        .stop_when(StopWhen::Solved)
        .max_rounds(3_000);
    let mut exec = Engine::new(cfg)
        .populated((0..50).map(|_| FullAlgorithm::new(Params::practical(), 64, 1 << 10)));
    // The run may luck into a lone primary transmission (solving the
    // one-shot problem) or time out; either way, no leader self-elects.
    let leaders = match exec.run() {
        Ok(report) => report.leaders.len(),
        Err(SimError::Timeout { .. }) => 0,
        Err(e) => panic!("unexpected error: {e}"),
    };
    assert_eq!(leaders, 0, "self-election requires transmitter-side CD");
}

/// The no-CD baselines, by contrast, are honest about their model: they run
/// fine under `CdMode::None`.
#[test]
fn decay_is_cd_free() {
    let cfg = SimConfig::new(1)
        .seed(3)
        .cd_mode(CdMode::None)
        .max_rounds(100_000);
    let mut exec = Engine::new(cfg).populated((0..64).map(|_| Decay::new(1 << 10)));
    assert!(exec.run().expect("solves").is_solved());
}

/// Binary descent under strong CD is deterministic: same activation set,
/// same number of rounds, every seed (it uses no randomness at all).
#[test]
fn binary_descent_is_seed_independent() {
    let rounds: Vec<u64> = (0..5)
        .map(|seed| {
            let cfg = SimConfig::new(1).seed(seed).max_rounds(10_000);
            let mut exec = Engine::new(cfg).populated(
                [5u64, 99, 731, 1000]
                    .into_iter()
                    .map(|id| BinaryDescent::new(id, 1 << 10)),
            );
            exec.run()
                .expect("solves")
                .rounds_to_solve()
                .expect("solved")
        })
        .collect();
    assert!(rounds.windows(2).all(|w| w[0] == w[1]), "{rounds:?}");
}

/// Channel isolation: traffic on channel i is invisible on channel j. Two
/// disjoint populations running on disjoint channel ranges (via distinct
/// primary-channel use) cannot interfere — the two-node algorithm on 2
/// channels solves identically whether or not a decay population hammers
/// channels above 2.
#[test]
fn channels_are_isolated() {
    // Reference: clean two-node run on C=16 restricted to its own behavior.
    let clean = {
        let cfg = SimConfig::new(16).seed(4).max_rounds(10_000);
        let mut exec = Engine::new(cfg);
        exec.add_node(TwoActive::new(2, 1 << 8)); // uses only channels 1..2
        exec.add_node(TwoActive::new(2, 1 << 8));
        exec.run().expect("solves").solved_round
    };
    // Same two nodes, same seeds (node indices preserved), plus background
    // noise pinned to channels 3..=16 — sleepers that transmit off-range.
    use mac_sim::{Action, ChannelId, Feedback, Protocol, RoundContext, Status};
    use rand::rngs::SmallRng;
    use rand::Rng;
    struct Noise;
    impl Protocol for Noise {
        type Msg = u32;
        fn act(&mut self, _ctx: &RoundContext, rng: &mut SmallRng) -> Action<u32> {
            Action::transmit(ChannelId::new(rng.gen_range(3..=16)), 0)
        }
        fn observe(&mut self, _: &RoundContext, _: Feedback<u32>, _: &mut SmallRng) {}
        fn status(&self) -> Status {
            Status::Active
        }
    }
    let noisy = {
        let cfg = SimConfig::new(16).seed(4).max_rounds(10_000);
        let mut exec: Engine<Box<dyn Protocol<Msg = u32>>> = Engine::new(cfg);
        exec.add_node(Box::new(TwoActive::new(2, 1 << 8)));
        exec.add_node(Box::new(TwoActive::new(2, 1 << 8)));
        for _ in 0..20 {
            exec.add_node(Box::new(Noise));
        }
        exec.run().expect("solves").solved_round
    };
    assert_eq!(clean, noisy, "off-channel traffic must not affect the run");
}

/// Simultaneous vs staggered: the executor's wake-up machinery shifts an
/// execution in time without changing its structure when all offsets are
/// equal.
#[test]
fn uniform_offset_shifts_solve_round() {
    let run_at = |offset: u64| {
        let cfg = SimConfig::new(32).seed(9).max_rounds(100_000);
        let mut exec = Engine::new(cfg);
        for _ in 0..20 {
            exec.add_node_at(FullAlgorithm::new(Params::practical(), 32, 1 << 10), offset);
        }
        exec.run().expect("solves").solved_round.expect("solved")
    };
    let base = run_at(0);
    let shifted = run_at(17);
    assert_eq!(base + 17, shifted);
}
