//! Property suite pinning the traffic driver on the active-set scheduler
//! to the dense O(n) reference.
//!
//! [`mac_sim::run_traffic`] injects a continuous arrival stream into the
//! agenda-based [`mac_sim::Engine`]; [`mac_sim::run_traffic_dense`] runs
//! the *same* driver over the full-scan [`mac_sim::dense::DenseEngine`].
//! Over random arrival processes × collision-detection modes × fault
//! stacks × workload protocols, both must produce **bit-identical**
//! [`TrafficReport`]s — same delivery ledger, same latency histogram,
//! same backlog trajectory moments, same stop cause. Any divergence means
//! incremental agenda injection or continuous-delivery retirement changed
//! observable semantics relative to the dense reference, which is exactly
//! what this suite exists to catch.

use mac_sim::fault::{CrashStop, JamBudget, Layered, LossyChannel, NoisyCd};
use mac_sim::{
    run_traffic, run_traffic_dense, ArrivalProcess, BackoffMac, CdMode, FeedbackModel, NodeId,
    SimConfig, SlottedAloha, StopCause, TrafficReport, TrafficSpec,
};
use proptest::prelude::*;

/// The workload both drivers execute.
#[derive(Debug, Clone)]
struct Workload {
    seed: u64,
    channels: u32,
    process: ArrivalProcess,
    window: u64,
    horizon: Option<u64>,
    rearm: Option<u64>,
    protocol: ProtoChoice,
    cd_mode: CdMode,
    faults: FaultChoice,
    round_budget: u64,
}

#[derive(Debug, Clone, Copy)]
enum ProtoChoice {
    /// p-persistent ALOHA with `p = tenths / 10`.
    Aloha {
        tenths: u8,
    },
    Backoff {
        cw_max: u64,
    },
}

#[derive(Debug, Clone, Copy)]
enum FaultChoice {
    Clean,
    CrashRandom {
        f: usize,
        window: u64,
    },
    Assassin {
        kills: u64,
    },
    JamBudget {
        budget: u64,
    },
    Stacked,
    /// `CrashStop::schedule` crashing one node at one round.
    CrashAt {
        node: usize,
        round: u64,
    },
}

fn config(w: &Workload) -> SimConfig {
    SimConfig::new(w.channels)
        .seed(w.seed)
        .cd_mode(w.cd_mode)
        .max_rounds(200_000)
        .round_budget(w.round_budget)
}

fn spec(w: &Workload) -> TrafficSpec {
    let mut spec = TrafficSpec::new(w.process, w.window);
    spec.horizon = w.horizon;
    spec.rearm = w.rearm;
    spec
}

/// Runs the workload through either driver; both paths share this code so
/// only the engine under test differs.
fn run_workload(w: &Workload, dense: bool) -> Result<TrafficReport, String> {
    fn drive<F: FeedbackModel>(
        w: &Workload,
        feedback: F,
        dense: bool,
    ) -> Result<TrafficReport, String> {
        let out = match (w.protocol, dense) {
            (ProtoChoice::Aloha { tenths }, false) => {
                run_traffic(config(w), feedback, &spec(w), |pkt| {
                    SlottedAloha::new(f64::from(tenths) / 10.0, pkt)
                })
            }
            (ProtoChoice::Aloha { tenths }, true) => {
                run_traffic_dense(config(w), feedback, &spec(w), |pkt| {
                    SlottedAloha::new(f64::from(tenths) / 10.0, pkt)
                })
            }
            (ProtoChoice::Backoff { cw_max }, false) => {
                run_traffic(config(w), feedback, &spec(w), |pkt| {
                    BackoffMac::new(2, cw_max, pkt)
                })
            }
            (ProtoChoice::Backoff { cw_max }, true) => {
                run_traffic_dense(config(w), feedback, &spec(w), |pkt| {
                    BackoffMac::new(2, cw_max, pkt)
                })
            }
        };
        out.map_err(|e| format!("{e:?}"))
    }

    // Crash victims are drawn among the first 16 NodeIds — both drivers
    // assign ids in arrival order, so the victim set is the same packets.
    match w.faults {
        FaultChoice::Clean => drive(w, w.cd_mode, dense),
        FaultChoice::CrashRandom { f, window } => drive(
            w,
            Layered::new(CrashStop::random(f, 16, window), w.cd_mode),
            dense,
        ),
        FaultChoice::Assassin { kills } => drive(
            w,
            Layered::new(CrashStop::assassin(kills), w.cd_mode),
            dense,
        ),
        FaultChoice::JamBudget { budget } => drive(w, JamBudget::new(w.cd_mode, budget), dense),
        FaultChoice::CrashAt { node, round } => drive(
            w,
            Layered::new(CrashStop::schedule(vec![(NodeId(node), round)]), w.cd_mode),
            dense,
        ),
        FaultChoice::Stacked => drive(
            w,
            Layered::new(
                NoisyCd::symmetric(0.05),
                Layered::new(
                    LossyChannel::new(0.05),
                    Layered::new(CrashStop::random(1, 16, 16), JamBudget::new(w.cd_mode, 1)),
                ),
            ),
            dense,
        ),
    }
}

fn process_strategy() -> impl Strategy<Value = ArrivalProcess> {
    prop_oneof![
        (1u32..16).prop_map(|r| ArrivalProcess::Poisson {
            rate: f64::from(r) / 10.0,
        }),
        (1u32..20, 1u32..6, 1u32..6).prop_map(|(r, off, on)| ArrivalProcess::Bursty {
            burst_rate: f64::from(r) / 10.0,
            on_to_off: f64::from(off) / 10.0,
            off_to_on: f64::from(on) / 10.0,
        }),
        (1u64..12, 1u32..4).prop_map(|(period, batch)| ArrivalProcess::FixedRate { period, batch }),
        (
            0u64..24,
            1u32..8,
            prop_oneof![Just(None), (4u64..32).prop_map(Some)]
        )
            .prop_map(|(at, size, period)| ArrivalProcess::Batch { at, size, period }),
    ]
}

fn cd_mode_strategy() -> impl Strategy<Value = CdMode> {
    prop_oneof![
        Just(CdMode::Strong),
        Just(CdMode::ReceiverOnly),
        Just(CdMode::None),
    ]
}

fn proto_strategy() -> impl Strategy<Value = ProtoChoice> {
    prop_oneof![
        (1u8..6).prop_map(|tenths| ProtoChoice::Aloha { tenths }),
        (8u64..128).prop_map(|cw_max| ProtoChoice::Backoff { cw_max }),
    ]
}

fn fault_strategy() -> impl Strategy<Value = FaultChoice> {
    prop_oneof![
        Just(FaultChoice::Clean),
        (1usize..3, 1u64..32).prop_map(|(f, window)| FaultChoice::CrashRandom { f, window }),
        (1u64..3).prop_map(|kills| FaultChoice::Assassin { kills }),
        (1u64..4).prop_map(|budget| FaultChoice::JamBudget { budget }),
        Just(FaultChoice::Stacked),
    ]
}

fn workload_strategy() -> impl Strategy<Value = Workload> {
    (
        (any::<u64>(), 2u32..9, process_strategy(), 1u64..64),
        (
            prop_oneof![Just(None), (32u64..256).prop_map(Some)],
            prop_oneof![Just(None), (1u64..8).prop_map(Some)],
            proto_strategy(),
            cd_mode_strategy(),
            fault_strategy(),
        ),
    )
        .prop_map(
            |((seed, channels, process, window), (horizon, rearm, protocol, cd_mode, faults))| {
                Workload {
                    seed,
                    channels,
                    process,
                    window,
                    horizon,
                    rearm,
                    protocol,
                    cd_mode,
                    faults,
                    round_budget: 5_000,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The headline property: for any traffic workload, the active-set
    /// driver and the dense reference produce bit-identical reports.
    #[test]
    fn traffic_matches_dense_reference(w in workload_strategy()) {
        let active = run_workload(&w, false);
        let dense = run_workload(&w, true);
        prop_assert_eq!(active, dense);
    }
}

/// Deterministic spot-checks of corners the random strategy can miss:
/// a long idle gap between batches (stop-latch re-arming), an overload
/// that only the budget stops, a crash schedule racing the drain, a
/// closed-loop rearm workload, and three ends of an idle span inside the
/// gap: a pending packet's crash, the round budget and the horizon.
#[test]
fn corner_cases_match_dense_reference() {
    let base = Workload {
        seed: 11,
        channels: 4,
        process: ArrivalProcess::Batch {
            at: 0,
            size: 1,
            period: Some(300),
        },
        window: 301,
        horizon: None,
        rearm: None,
        protocol: ProtoChoice::Backoff { cw_max: 32 },
        cd_mode: CdMode::Strong,
        faults: FaultChoice::Clean,
        round_budget: 5_000,
    };
    // Idle gap: batch at 0, batch at 300 — the driver idles across the gap.
    assert_eq!(run_workload(&base, false), run_workload(&base, true));

    // Overload with zero deliveries possible: two steady arrivals per
    // round at ALOHA p near 1 jam forever; only the budget stops it.
    let mut jammed = base.clone();
    jammed.process = ArrivalProcess::FixedRate {
        period: 1,
        batch: 2,
    };
    jammed.window = 6_000;
    jammed.protocol = ProtoChoice::Aloha { tenths: 9 };
    let report = run_workload(&jammed, false);
    assert_eq!(report, run_workload(&jammed, true));
    assert_eq!(
        report.unwrap().stop,
        StopCause::BudgetExhausted,
        "overload past the budget must stop cleanly"
    );

    // Crash schedule overlapping the drain tail.
    let mut crashed = base.clone();
    crashed.process = ArrivalProcess::Batch {
        at: 0,
        size: 6,
        period: None,
    };
    crashed.window = 1;
    crashed.faults = FaultChoice::CrashRandom { f: 2, window: 8 };
    assert_eq!(run_workload(&crashed, false), run_workload(&crashed, true));

    // The packet of the batch at 300 waits pending through the gap after
    // the first delivery; its crash in round 150 empties the system, so
    // the driver injects the batch at 600 at once...
    let mut pending_crash = base.clone();
    pending_crash.window = 601;
    pending_crash.faults = FaultChoice::CrashAt {
        node: 1,
        round: 150,
    };
    let report = run_workload(&pending_crash, false);
    assert_eq!(report, run_workload(&pending_crash, true));
    let report = report.unwrap();
    assert_eq!(
        (report.offered, report.delivered, report.dropped),
        (3, 2, 1)
    );
    assert!(report.first_delivery().unwrap() < 150);
    // ...and with no batch left, the run drains in the round after it.
    let mut last_crash = pending_crash.clone();
    last_crash.window = 301;
    let report = run_workload(&last_crash, false);
    assert_eq!(report, run_workload(&last_crash, true));
    let report = report.unwrap();
    assert_eq!((report.stop, report.rounds), (StopCause::Drained, 151));

    // The round budget trips inside the gap.
    let mut budget = base.clone();
    budget.round_budget = 150;
    let report = run_workload(&budget, false);
    assert_eq!(report, run_workload(&budget, true));
    let report = report.unwrap();
    assert_eq!(
        (report.stop, report.rounds),
        (StopCause::BudgetExhausted, 150)
    );

    // The horizon falls inside the gap, with the next packet pending.
    let mut horizon = base.clone();
    horizon.horizon = Some(200);
    let report = run_workload(&horizon, false);
    assert_eq!(report, run_workload(&horizon, true));
    let report = report.unwrap();
    assert_eq!(
        (report.stop, report.rounds, report.backlog_final),
        (StopCause::Horizon, 200, 1)
    );

    // Closed loop: every delivery inside the window re-arms a packet.
    let mut saturated = base;
    saturated.process = ArrivalProcess::Batch {
        at: 0,
        size: 3,
        period: None,
    };
    saturated.window = 200;
    saturated.horizon = Some(200);
    saturated.rearm = Some(2);
    assert_eq!(
        run_workload(&saturated, false),
        run_workload(&saturated, true)
    );
}
