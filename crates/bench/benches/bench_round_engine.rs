//! Bench target for the layered round engine itself: the same workload
//! (the paper's full algorithm at C = 64, n = 2¹², |A| = 500) driven
//! through each execution path, so the cost of the observation layer is
//! visible in isolation:
//!
//! * `run/full_report` — the default path: metrics on, full [`RunReport`];
//! * `run_summary/no_observers` — metrics off, cheap [`RunSummary`] only;
//! * `run/traffic_stream` — the dynamic-arrivals driver
//!   ([`mac_sim::run_traffic`]): a Poisson packet stream injected
//!   incrementally, continuous delivery, latency histogram recorded;
//! * `run/trace_channels` — per-round channel outcomes recorded too;
//! * `run/recorder_attached` — a [`mac_sim::obs::RunRecorder`] span-model
//!   sink riding along, quantifying the structured-telemetry overhead;
//! * `run/metrics_hub` — a [`mac_sim::TelemetrySink`] tallying the
//!   live-metrics counters and flushing into a [`mac_sim::MetricsHub`]
//!   shard per run, pricing the hub's whole hot path against
//!   `run/full_report`;
//! * `run/supervised_wrapper` — the same fleet wrapped in
//!   [`contention::Supervised`] restart-with-backoff supervision on a
//!   clean channel, pricing the wrapper on the fault-free path (where it
//!   never fires — see docs/ROBUSTNESS.md).
//!
//! A second group prices the sparse regime the active-set scheduler
//! exists for (same workload, namespace n = 2²⁰, |A| = 500):
//!
//! * `run/sparse_population` — the intended path: a
//!   [`mac_sim::SparsePopulation`] materializes only the 500 active
//!   slots;
//! * `ab/active_set` — the same ensemble with all 2²⁰ slots materialized
//!   (499 500 never-waking fillers), isolating what the agenda-driven
//!   scheduler saves once slots exist;
//! * `ab/dense_reference` — the identical materialized population on
//!   [`mac_sim::dense::DenseEngine`], the all-slots-scanned reference
//!   scheduler. `ab/active_set ÷ ab/dense_reference` is the scheduler
//!   A/B at equal memory; `run/sparse_population ÷ ab/dense_reference`
//!   is the end-to-end win of the sparse path.
//!
//! Like `bench_campaign`, this bench has a custom `main`: after the runs
//! it exports the measurements as schema-versioned JSONL
//! (`BENCH_round_engine.json` at the workspace root — `kind: "bench"`
//! records, diffable with `obsdiff`) and exits non-zero if the write
//! fails.

use contention::{
    supervised_paper_node, FullAlgorithm, Params, PhaseProtocol, RestartPolicy,
    SupervisedPaperStack,
};
use contention_harness::record;
use criterion::{criterion_group, take_results, Criterion};
use mac_sim::dense::DenseEngine;
use mac_sim::obs::RunRecorder;
use mac_sim::{
    run_traffic, Action, ArrivalProcess, BackoffMac, CdMode, ChannelId, Engine, Feedback,
    MetricsHub, Protocol, RoundContext, SimConfig, SparsePopulation, Status, TelemetrySink, Trace,
    TrafficSpec,
};
use rand::rngs::SmallRng;
use std::hint::black_box;
use std::path::Path;
use std::process::ExitCode;

const C: u32 = 64;
const N: u64 = 1 << 12;
const ACTIVE: usize = 500;

/// The sparse-regime namespace: 2²⁰ identities, |A| = 500 of them awake.
const N_SPARSE: u64 = 1 << 20;

fn engine(config: SimConfig) -> Engine<FullAlgorithm> {
    let mut engine = Engine::new(config);
    for _ in 0..ACTIVE {
        engine.add_node(FullAlgorithm::new(Params::practical(), C, N));
    }
    engine
}

fn supervised_engine(config: SimConfig) -> Engine<PhaseProtocol<SupervisedPaperStack>> {
    let mut engine = Engine::new(config);
    for _ in 0..ACTIVE {
        engine.add_node(supervised_paper_node(
            Params::practical(),
            C,
            N,
            RestartPolicy::new(2_500_000, 4),
        ));
    }
    engine
}

fn bench_round_engine(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("round_engine(C=64,n=2^12,|A|=500)");
    group.measurement_time(std::time::Duration::from_secs(2));

    group.bench_function("run/full_report", |b| {
        let mut seed = 0;
        b.iter(|| {
            // Cycle a fixed seed set so every execution path measures the
            // exact same ensemble of runs.
            seed = (seed % 16) + 1;
            let mut eng = engine(SimConfig::new(C).seed(seed).max_rounds(10_000_000));
            black_box(eng.run().expect("solves").solved_round)
        });
    });

    group.bench_function("run_summary/no_observers", |b| {
        let mut seed = 0;
        b.iter(|| {
            // Cycle a fixed seed set so every execution path measures the
            // exact same ensemble of runs.
            seed = (seed % 16) + 1;
            let cfg = SimConfig::new(C)
                .seed(seed)
                .max_rounds(10_000_000)
                .record_metrics(false);
            let mut eng = engine(cfg);
            black_box(eng.run_summary().expect("solves").solved_round)
        });
    });

    group.bench_function("run/traffic_stream", |b| {
        // The dynamic-arrivals driver: a Poisson packet stream over the
        // same engine, continuous delivery, horizon-bounded. Prices the
        // incremental agenda injection + per-delivery retirement path
        // against the one-shot runs above.
        let spec = TrafficSpec::new(ArrivalProcess::Poisson { rate: 0.5 }, 2_000).horizon(2_000);
        let mut seed = 0;
        b.iter(|| {
            // Cycle a fixed seed set so every execution path measures the
            // exact same ensemble of runs.
            seed = (seed % 16) + 1;
            let cfg = SimConfig::new(C)
                .seed(seed)
                .max_rounds(10_000_000)
                .record_metrics(false);
            let report = run_traffic(cfg, CdMode::Strong, &spec, |pkt| {
                BackoffMac::new(2, 256, pkt)
            })
            .expect("traffic run");
            black_box((report.delivered, report.latency.quantile(0.99)))
        });
    });

    group.bench_function("run/trace_channels", |b| {
        let mut seed = 0;
        b.iter(|| {
            // Cycle a fixed seed set so every execution path measures the
            // exact same ensemble of runs.
            seed = (seed % 16) + 1;
            let mut eng = engine(SimConfig::new(C).seed(seed).max_rounds(10_000_000));
            let mut trace = Trace::new();
            let report = eng.run_observed(&mut trace).expect("solves");
            black_box((report.solved_round, trace.len()))
        });
    });

    group.bench_function("run/recorder_attached", |b| {
        let mut seed = 0;
        b.iter(|| {
            // Cycle a fixed seed set so every execution path measures the
            // exact same ensemble of runs.
            seed = (seed % 16) + 1;
            let mut eng = engine(SimConfig::new(C).seed(seed).max_rounds(10_000_000));
            let mut recorder = RunRecorder::new();
            let report = eng.run_observed(&mut recorder).expect("solves");
            black_box((report.solved_round, recorder.into_record(seed).rounds))
        });
    });

    group.bench_function("run/metrics_hub", |b| {
        let hub = MetricsHub::new(1);
        let mut seed = 0;
        b.iter(|| {
            // Cycle a fixed seed set so every execution path measures the
            // exact same ensemble of runs.
            seed = (seed % 16) + 1;
            let mut eng = engine(SimConfig::new(C).seed(seed).max_rounds(10_000_000));
            let mut sink = TelemetrySink::new();
            let report = eng.run_observed(&mut sink).expect("solves");
            sink.flush_to(&hub, 0);
            black_box(report.solved_round)
        });
    });

    group.bench_function("run/supervised_wrapper", |b| {
        let mut seed = 0;
        b.iter(|| {
            // Cycle a fixed seed set so every execution path measures the
            // exact same ensemble of runs.
            seed = (seed % 16) + 1;
            let mut eng = supervised_engine(SimConfig::new(C).seed(seed).max_rounds(10_000_000));
            black_box(eng.run().expect("solves").solved_round)
        });
    });

    group.finish();
}

/// One slot of the fully materialized sparse-regime population: boxed so
/// the 2²⁰ − |A| fillers cost a tag word each, not a full algorithm.
enum WideSlot {
    /// A real contender (slots `0..ACTIVE`, so its per-node RNG stream —
    /// derived from the slot index — matches the sparse run's exactly and
    /// all three benches execute the same ensemble of rounds).
    Active(Box<FullAlgorithm>),
    /// A materialized identity that never wakes (`start_round = u64::MAX`).
    Filler,
}

impl Protocol for WideSlot {
    type Msg = u32;

    fn on_wake(&mut self, ctx: &RoundContext, rng: &mut SmallRng) {
        if let WideSlot::Active(node) = self {
            node.on_wake(ctx, rng);
        }
    }

    fn act(&mut self, ctx: &RoundContext, rng: &mut SmallRng) -> Action<u32> {
        match self {
            WideSlot::Active(node) => node.act(ctx, rng),
            // Never reached: fillers never wake, so they are never live.
            WideSlot::Filler => Action::listen(ChannelId::PRIMARY),
        }
    }

    fn observe(&mut self, ctx: &RoundContext, feedback: Feedback<u32>, rng: &mut SmallRng) {
        if let WideSlot::Active(node) = self {
            node.observe(ctx, feedback, rng);
        }
    }

    fn status(&self) -> Status {
        match self {
            WideSlot::Active(node) => node.status(),
            WideSlot::Filler => Status::Active,
        }
    }

    fn phase(&self) -> &'static str {
        match self {
            WideSlot::Active(node) => node.phase(),
            WideSlot::Filler => "asleep",
        }
    }
}

fn sparse_config(seed: u64) -> SimConfig {
    SimConfig::new(C)
        .seed(seed)
        .max_rounds(10_000_000)
        .record_metrics(false)
}

/// Materializes the full namespace: `ACTIVE` real contenders first, then
/// never-waking fillers for every other identity.
fn add_wide_slots(mut add: impl FnMut(WideSlot, u64)) {
    for _ in 0..ACTIVE {
        add(
            WideSlot::Active(Box::new(FullAlgorithm::new(
                Params::practical(),
                C,
                N_SPARSE,
            ))),
            0,
        );
    }
    for _ in ACTIVE as u64..N_SPARSE {
        add(WideSlot::Filler, u64::MAX);
    }
}

fn bench_sparse_regime(criterion: &mut Criterion) {
    let mut group = criterion.benchmark_group("round_engine(C=64,n=2^20,|A|=500)");
    group.measurement_time(std::time::Duration::from_secs(2));

    group.bench_function("run/sparse_population", |b| {
        let mut seed = 0;
        b.iter(|| {
            // Cycle a fixed seed set so every execution path measures the
            // exact same ensemble of runs.
            seed = (seed % 16) + 1;
            let pop = SparsePopulation::uniform(N_SPARSE, ACTIVE, 1, seed);
            let mut eng = pop.engine(sparse_config(seed), |_| {
                FullAlgorithm::new(Params::practical(), C, N_SPARSE)
            });
            black_box(eng.run_summary().expect("solves").solved_round)
        });
    });

    group.bench_function("ab/active_set", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed = (seed % 16) + 1;
            let mut eng = Engine::new(sparse_config(seed));
            add_wide_slots(|slot, wake| {
                let _ = eng.add_node_at(slot, wake);
            });
            black_box(eng.run_summary().expect("solves").solved_round)
        });
    });

    group.bench_function("ab/dense_reference", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed = (seed % 16) + 1;
            let mut eng = DenseEngine::new(sparse_config(seed));
            add_wide_slots(|slot, wake| {
                let _ = eng.add_node_at(slot, wake);
            });
            black_box(eng.run_summary().expect("solves").solved_round)
        });
    });

    group.finish();
}

criterion_group!(benches, bench_round_engine, bench_sparse_regime);

fn main() -> ExitCode {
    benches();
    // Export the measurements in the run-record JSONL schema so obsdiff
    // (and CI) can compare bench runs the same way it compares trials. A
    // failed write fails the bench, so CI never trends a stale export.
    let lines: Vec<String> = take_results()
        .iter()
        .map(|r| record::bench_record(&r.name, r.mean_ns, r.iters).render())
        .collect();
    let out = Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_round_engine.json"
    ));
    match record::write_jsonl(out, &lines) {
        Ok(()) => {
            eprintln!("wrote {}", out.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("cannot write {}: {e}", out.display());
            ExitCode::FAILURE
        }
    }
}
