//! Pseudocode-fidelity tests: the executed round/channel schedules match
//! the paper's figures, checked against recorded channel traces.

use contention::{IdReduction, LeafElection, Params, Reduce, TwoActive};
use mac_sim::{Engine, OutcomeKind, SimConfig, StopWhen, Trace};

/// Fig. 2: `Reduce` runs exactly `2·⌈lg lg n⌉` rounds when no leader
/// emerges, all of them on the primary channel only.
#[test]
fn reduce_round_schedule_matches_figure_2() {
    let n = 1u64 << 32; // lg lg n = 5 -> 10 rounds
    let mut saw_full_schedule = false;
    for seed in 0..40 {
        let cfg = SimConfig::new(8)
            .seed(seed)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(100);
        let mut exec = Engine::new(cfg).populated([Reduce::new(n), Reduce::new(n)]);
        let mut trace = Trace::new();
        let report = exec.run_observed(&mut trace).expect("terminates");
        // A run ends early only because a lone broadcast elected a leader;
        // otherwise it runs the exact 2·⌈lg lg n⌉ schedule.
        assert!(report.rounds_executed <= 10, "seed {seed}");
        if report.leaders.is_empty() {
            assert_eq!(report.rounds_executed, 10, "seed {seed}");
            saw_full_schedule = true;
        } else {
            assert!(report.is_solved(), "seed {seed}: leader without solve");
        }
        for rt in trace.rounds() {
            for oc in &rt.outcomes {
                assert!(oc.channel.is_primary(), "Reduce strayed to {}", oc.channel);
            }
        }
    }
    assert!(saw_full_schedule, "no seed exercised the full schedule");
}

/// §5.2: `IdReduction`'s schedule is (rename, report, reduce, …): rename
/// rounds use channels `1..=C/2`, report and reduction rounds use only the
/// primary channel.
#[test]
fn id_reduction_schedule_matches_section_5_2() {
    let c = 64u32;
    let cfg = SimConfig::new(c)
        .seed(3)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(10_000);
    let mut exec =
        Engine::new(cfg).populated((0..40).map(|_| IdReduction::new(Params::practical(), c)));
    let mut trace = Trace::new();
    exec.run_observed(&mut trace).expect("terminates");
    for rt in trace.rounds() {
        match rt.round % 3 {
            0 => {
                // Rename round: any channel in [C/2]; everyone transmits.
                for oc in &rt.outcomes {
                    assert!(
                        oc.channel.get() <= c / 2,
                        "round {}: rename used {}",
                        rt.round,
                        oc.channel
                    );
                }
            }
            _ => {
                // Report / reduction rounds live on the primary channel.
                for oc in &rt.outcomes {
                    assert!(
                        oc.channel.is_primary(),
                        "round {}: {} used off the primary channel",
                        rt.round,
                        oc.channel
                    );
                }
            }
        }
    }
}

/// §4: in every rename round of `TwoActive`, both nodes transmit (the
/// trace never shows a rename round with fewer than two transmitters
/// before the search begins), and the search's probes use channels that
/// are level positions, i.e. `≤ C`.
#[test]
fn two_active_everyone_transmits_until_renamed() {
    let c = 8u32;
    let cfg = SimConfig::new(c)
        .seed(5)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(10_000);
    let mut exec =
        Engine::new(cfg).populated([TwoActive::new(c, 1 << 10), TwoActive::new(c, 1 << 10)]);
    let mut trace = Trace::new();
    let report = exec.run_observed(&mut trace).expect("terminates");
    for rt in trace.rounds() {
        let tx: usize = rt.outcomes.iter().map(|oc| oc.transmitters).sum();
        // Every round of TwoActive has both nodes transmitting, except the
        // final declaration round (1 transmitter + 1 listener).
        assert!(
            tx == 2 || (tx == 1 && rt.round + 1 == report.rounds_executed),
            "round {}: {tx} transmitters",
            rt.round
        );
    }
}

/// Fig. 3 / Lemma 16: every `SplitSearch` iteration costs exactly 5 rounds,
/// so per-phase search rounds are always multiples of 5.
#[test]
fn split_search_iterations_cost_exactly_five_rounds() {
    let c = 1u32 << 10;
    let cfg = SimConfig::new(c)
        .seed(7)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(100_000);
    let mut exec = Engine::new(cfg).populated((1..=64u32).map(|id| LeafElection::new(c, id)));
    let report = exec.run().expect("elects");
    assert_eq!(report.leaders.len(), 1);
    for node in exec.iter_nodes() {
        for (phase, rounds) in node.stats().search_rounds_by_phase.iter().enumerate() {
            assert_eq!(
                rounds % 5,
                0,
                "phase {}: {rounds} search rounds not a multiple of 5",
                phase + 1
            );
        }
    }
}

/// §3 transform: runners beacon on the primary channel in their odd local
/// rounds — verified from the trace of a lone runner (its beacons are the
/// only primary-channel activity).
#[test]
fn staggered_start_beacons_on_odd_local_rounds() {
    use contention::baselines::Decay;
    use contention::wakeup::{StaggeredStart, LISTEN_ROUNDS};

    // A lone wrapped node: listens LISTEN_ROUNDS rounds, then beacons on
    // odd steps. Its very first beacon solves the problem (lone on ch1).
    let cfg = SimConfig::new(4).seed(2).max_rounds(100);
    let mut exec = Engine::new(cfg).populated([StaggeredStart::new(Decay::new(16))]);
    let mut trace = Trace::new();
    let report = exec.run_observed(&mut trace).expect("solves");
    assert_eq!(report.solved_round, Some(LISTEN_ROUNDS));
    let (beacon, listens) = trace.rounds().split_last().expect("traced");
    for rt in listens {
        assert!(rt.outcomes.iter().all(|oc| oc.transmitters == 0));
    }
    assert!(beacon
        .outcomes
        .iter()
        .any(|oc| oc.channel.is_primary() && oc.kind == OutcomeKind::Message));
}

/// The full pipeline transitions between steps without skipping or
/// overlapping rounds: each executed round carries exactly one phase
/// label, in round order.
#[test]
fn full_pipeline_phase_accounting_is_complete() {
    use contention::FullAlgorithm;
    let cfg = SimConfig::new(64)
        .seed(11)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(100_000);
    let mut exec = Engine::new(cfg)
        .populated((0..200).map(|_| FullAlgorithm::new(Params::practical(), 64, 1 << 12)));
    let mut trace = Trace::new();
    let report = exec.run_observed(&mut trace).expect("solves");
    assert_eq!(trace.len() as u64, report.rounds_executed);
    assert!(trace.rounds().iter().zip(0..).all(|(r, i)| r.round == i));
}

/// Budgets from `contention::theory` hold on live executions.
#[test]
fn theory_budgets_hold_end_to_end() {
    use contention::theory;
    // TwoActive.
    for (c, ne) in [(4u32, 12u32), (64, 16), (1024, 20)] {
        let n = 1u64 << ne;
        for seed in 0..10 {
            let cfg = SimConfig::new(c)
                .seed(seed)
                .stop_when(StopWhen::AllTerminated)
                .max_rounds(100_000);
            let mut exec = Engine::new(cfg).populated([TwoActive::new(c, n), TwoActive::new(c, n)]);
            let report = exec.run().expect("solves");
            let budget = theory::two_active_budget(n, c);
            assert!(
                (report.rounds_executed as f64) <= budget,
                "C={c} n=2^{ne} seed={seed}: {} > {budget}",
                report.rounds_executed
            );
        }
    }
    // LeafElection, dense occupancy (worst case).
    for (c, x) in [(64u32, 32u32), (1024, 128)] {
        let cfg = SimConfig::new(c)
            .seed(3)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(100_000);
        let mut exec = Engine::new(cfg).populated((1..=x).map(|id| LeafElection::new(c, id)));
        let report = exec.run().expect("elects");
        let h = contention::tree::ChannelTree::for_election(c).height();
        let budget = theory::leaf_election_budget(h, x);
        assert!(
            (report.rounds_executed as f64) <= budget,
            "C={c} x={x}: {} > {budget}",
            report.rounds_executed
        );
    }
}
