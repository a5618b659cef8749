//! Differential testing of the executor against a naive reference model.
//!
//! The executor uses incremental per-channel scratch buffers for speed; the
//! oracle here recomputes every round from scratch with the dumbest
//! possible code. Property: for arbitrary random action scripts, both
//! produce identical feedback for every node in every round, identical
//! solve rounds, and identical transmission counts — under every
//! collision-detection mode.

use mac_sim::{
    Action, CdMode, ChannelId, Engine, Feedback, Protocol, RoundContext, SimConfig, Status,
    StopWhen,
};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::SmallRng;

/// A compact encodable action for proptest generation.
#[derive(Debug, Clone, Copy)]
enum Op {
    Tx { ch: u8, msg: u8 },
    Rx { ch: u8 },
    Zzz,
}

fn op_strategy(channels: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        (1..=channels, any::<u8>()).prop_map(|(ch, msg)| Op::Tx { ch, msg }),
        (1..=channels).prop_map(|ch| Op::Rx { ch }),
        Just(Op::Zzz),
    ]
}

/// Scripted node driven by a pre-generated action list.
struct Scripted {
    script: Vec<Op>,
    cursor: usize,
    heard: Vec<Feedback<u32>>,
}

impl Protocol for Scripted {
    type Msg = u32;
    fn act(&mut self, _ctx: &RoundContext, _rng: &mut SmallRng) -> Action<u32> {
        let op = self.script.get(self.cursor).copied().unwrap_or(Op::Zzz);
        self.cursor += 1;
        match op {
            Op::Tx { ch, msg } => Action::transmit(ChannelId::new(u32::from(ch)), u32::from(msg)),
            Op::Rx { ch } => Action::listen(ChannelId::new(u32::from(ch))),
            Op::Zzz => Action::Sleep,
        }
    }
    fn observe(&mut self, _ctx: &RoundContext, fb: Feedback<u32>, _rng: &mut SmallRng) {
        self.heard.push(fb);
    }
    fn status(&self) -> Status {
        if self.cursor >= self.script.len() {
            Status::Inactive
        } else {
            Status::Active
        }
    }
}

/// The reference model: recompute everything naively.
#[allow(clippy::type_complexity)]
fn oracle(
    scripts: &[Vec<Op>],
    channels: u8,
    cd: CdMode,
) -> (Vec<Vec<Feedback<u32>>>, Option<u64>, u64) {
    let rounds = scripts.iter().map(Vec::len).max().unwrap_or(0);
    let mut heard: Vec<Vec<Feedback<u32>>> = vec![Vec::new(); scripts.len()];
    let mut solved: Option<u64> = None;
    let mut transmissions = 0u64;
    for r in 0..rounds {
        // Gather this round's ops for still-active nodes (a node is active
        // until its script is exhausted).
        let ops: Vec<Option<Op>> = scripts
            .iter()
            .map(|s| if r < s.len() { Some(s[r]) } else { None })
            .collect();
        // Per-channel transmitter lists.
        let mut txs: Vec<Vec<(usize, u32)>> = vec![Vec::new(); usize::from(channels) + 1];
        for (node, op) in ops.iter().enumerate() {
            if let Some(Op::Tx { ch, msg }) = op {
                txs[usize::from(*ch)].push((node, u32::from(*msg)));
                transmissions += 1;
            }
        }
        if solved.is_none() && txs[1].len() == 1 {
            solved = Some(r as u64);
        }
        for (node, op) in ops.iter().enumerate() {
            let Some(op) = op else { continue };
            let fb = match op {
                Op::Zzz => Feedback::Slept,
                Op::Tx { ch, .. } | Op::Rx { ch } => {
                    let on = &txs[usize::from(*ch)];
                    let truth = match on.len() {
                        0 => Feedback::Silence,
                        1 => Feedback::Message(on[0].1),
                        _ => Feedback::Collision,
                    };
                    let is_tx = matches!(op, Op::Tx { .. });
                    match cd {
                        CdMode::Strong => truth,
                        CdMode::ReceiverOnly if is_tx => Feedback::TransmittedBlind,
                        CdMode::ReceiverOnly => truth,
                        CdMode::None if is_tx => Feedback::TransmittedBlind,
                        CdMode::None => match truth {
                            Feedback::Collision => Feedback::Silence,
                            other => other,
                        },
                    }
                }
            };
            heard[node].push(fb);
        }
    }
    (heard, solved, transmissions)
}

fn run_executor(
    scripts: &[Vec<Op>],
    channels: u8,
    cd: CdMode,
) -> (Vec<Vec<Feedback<u32>>>, Option<u64>, u64) {
    let cfg = SimConfig::new(u32::from(channels))
        .cd_mode(cd)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(10_000);
    let mut exec = Engine::new(cfg).populated(scripts.iter().map(|script| Scripted {
        script: script.clone(),
        cursor: 0,
        heard: Vec::new(),
    }));
    let report = exec.run().expect("scripts terminate");
    let heard = exec.iter_nodes().map(|n| n.heard.clone()).collect();
    (heard, report.solved_round, report.metrics.transmissions)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn executor_matches_naive_oracle(
        scripts in vec(vec(op_strategy(5), 0..12), 1..8),
        mode in prop_oneof![Just(CdMode::Strong), Just(CdMode::ReceiverOnly), Just(CdMode::None)],
    ) {
        let (oracle_heard, oracle_solved, oracle_tx) = oracle(&scripts, 5, mode);
        let (exec_heard, exec_solved, exec_tx) = run_executor(&scripts, 5, mode);
        prop_assert_eq!(exec_heard, oracle_heard);
        prop_assert_eq!(exec_solved, oracle_solved);
        prop_assert_eq!(exec_tx, oracle_tx);
    }
}

#[test]
fn oracle_spot_check() {
    // Hand-computed: node 0 transmits ch1, node 1 listens ch1, node 2
    // transmits ch2 then everyone stops.
    let scripts = vec![
        vec![Op::Tx { ch: 1, msg: 9 }],
        vec![Op::Rx { ch: 1 }],
        vec![Op::Tx { ch: 2, msg: 4 }],
    ];
    let (heard, solved, tx) = oracle(&scripts, 3, CdMode::Strong);
    assert_eq!(heard[0], vec![Feedback::Message(9)]);
    assert_eq!(heard[1], vec![Feedback::Message(9)]);
    assert_eq!(heard[2], vec![Feedback::Message(4)]);
    assert_eq!(solved, Some(0));
    assert_eq!(tx, 2);
}
