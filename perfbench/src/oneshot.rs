//! `oneshot_anchor`: the paper stack at the ROADMAP anchor configuration,
//! run back to back on one thread through the default `Engine::run` path
//! (Metrics on).
//!
//! Runs stop when every node has terminated rather than at the first lone
//! primary transmission: under the default stop rule about 0.7% of runs end
//! on an early lone transmission before the election has named its leader,
//! so only the full election can be checked for exactly one leader. It
//! adds about 1.4% to the rounds executed.

use std::rc::Rc;
use std::time::Instant;

use contention::{FullAlgorithm, Params};
use mac_sim::{derive_stream_seed, CdMode, Engine, RunReport, SimConfig, SimError, StopWhen};

use crate::bench::{fold, Pass, Workload};
use crate::trace::{ns, Calibration, Layer, Model, Tracer};
use crate::wrap::{run_observed, TimedFeedback, TimedProtocol};

const CHANNELS: u32 = 64;
const NAMESPACE: u64 = 1 << 12;
const ACTIVE: usize = 500;
/// Runs per pass: the seed set every pass repeats. Enough distinct runs
/// that the p99 of their latencies has twenty beyond it.
const RUNS: u64 = 2048;

pub struct OneShot {
    seeds: Vec<u64>,
}

fn config(seed: u64) -> SimConfig {
    SimConfig::new(CHANNELS)
        .seed(seed)
        .stop_when(StopWhen::AllTerminated)
}

fn node() -> FullAlgorithm {
    FullAlgorithm::new(Params::practical(), CHANNELS, NAMESPACE)
}

fn run_once(seed: u64) -> Result<RunReport, SimError> {
    let mut engine = Engine::new(config(seed));
    for _ in 0..ACTIVE {
        engine.add_node(node());
    }
    engine.run()
}

fn run_traced(seed: u64, tracer: &Rc<Tracer>) -> Result<RunReport, SimError> {
    tracer.enter(Layer::EngineBuild);
    let feedback = TimedFeedback::new(CdMode::Strong, Model::Strong, tracer.clone());
    let mut engine = Engine::with_feedback(config(seed), feedback);
    for _ in 0..ACTIVE {
        engine.add_node(TimedProtocol::new(node(), tracer.clone()));
    }
    tracer.exit();
    run_observed(&mut engine, &mut (), tracer)
}

/// Checks one run and folds it into the pass: it must solve with exactly
/// one leader.
fn admit(pass: &mut Pass, result: &Result<RunReport, SimError>) {
    pass.ops += 1;
    let fingerprint = match result {
        Ok(report) => {
            if !report.is_solved() || report.leaders.len() != 1 {
                pass.failed += 1;
            }
            pass.count("engine.rounds", report.rounds_executed);
            pass.count("packets", u64::from(report.is_solved()));
            fold([
                report.solved_round.map_or(0, |r| r + 1),
                report.solver.map_or(0, |s| s.0 as u64 + 1),
                report.rounds_executed,
                report.leaders.len() as u64,
                report.metrics.transmissions,
                report.metrics.listens,
            ])
        }
        Err(_) => {
            pass.failed += 1;
            0
        }
    };
    pass.fingerprints.push((fingerprint, 1));
}

impl Workload for OneShot {
    const THREADS: usize = 1;
    const LOOP: &'static str = "closed";

    fn new(seed: u64) -> Self {
        OneShot {
            seeds: (0..RUNS).map(|i| derive_stream_seed(seed, i)).collect(),
        }
    }

    fn pass(&mut self) -> Pass {
        let mut pass = Pass::default();
        for &seed in &self.seeds {
            let started = Instant::now();
            let result = run_once(seed);
            let elapsed = ns(started.elapsed());
            pass.work_ns += elapsed;
            pass.latency_ns.push(elapsed as f64);
            admit(&mut pass, &result);
        }
        pass
    }

    fn traced_pass(&mut self, calibration: Calibration, span_cap: usize) -> Pass {
        let mut pass = Pass::default();
        let tracer = Rc::new(Tracer::new(span_cap, calibration));
        for (i, &seed) in self.seeds.iter().enumerate() {
            tracer.begin_run(i as u64);
            let started = Instant::now();
            tracer.enter(Layer::Run);
            let result = run_traced(seed, &tracer);
            tracer.exit();
            pass.work_ns += ns(started.elapsed());
            admit(&mut pass, &result);
        }
        pass.trace = Some(
            Rc::try_unwrap(tracer)
                .ok()
                .expect("engines are dropped")
                .finish(),
        );
        pass
    }

    /// The Metrics sink priced by difference: the same seeds through
    /// `run_summary` with metric recording off.
    fn ablated_pass(&mut self) -> Option<(&'static str, Pass)> {
        let mut pass = Pass::default();
        for &seed in &self.seeds {
            let started = Instant::now();
            let mut engine = Engine::new(config(seed).record_metrics(false));
            for _ in 0..ACTIVE {
                engine.add_node(node());
            }
            let solved = engine.run_summary().is_ok_and(|s| s.is_solved());
            drop(engine);
            pass.work_ns += ns(started.elapsed());
            pass.ops += 1;
            pass.failed += u64::from(!solved);
        }
        Some(("sink.metrics_ns", pass))
    }
}
