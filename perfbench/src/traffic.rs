//! `traffic_lossy`: CD-aware backoff under Poisson arrivals over a lossy
//! two-channel radio, one stream after another on one thread. Arrivals are
//! open-loop in simulated time; the load sits below the saturation knee so
//! the cost per round measures the code, not a growing queue.

use std::rc::Rc;
use std::time::Instant;

use mac_sim::fault::{Layered, LossyChannel};
use mac_sim::{
    derive_stream_seed, run_traffic, ArrivalProcess, ArrivalStream, BackoffMac, CdMode, Engine,
    EventSink, NodeId, PowHistogram, SimConfig, SimError, SlotState, StopCause, StopWhen,
    TrafficReport, TrafficSpec,
};

use crate::bench::{fold, Pass, Workload};
use crate::trace::{ns, Calibration, Layer, Model, Tracer};
use crate::wrap::{TimedFeedback, TimedProtocol, TimedSink};

const CHANNELS: u32 = 2;
/// Offered load in packets per round, below the knee of this stack.
const RATE: f64 = 0.2;
const ERASURE: f64 = 0.1;
/// Arrival window and round horizon of every stream: about a thousand
/// packets, far beyond the packets' own latencies.
const HORIZON: u64 = 5_000;
/// Streams per pass: the seed set every pass repeats. Enough distinct
/// streams that the p99 of their latencies has ten beyond it.
const STREAMS: u64 = 1100;

pub struct Traffic {
    seeds: Vec<u64>,
}

fn spec() -> TrafficSpec {
    TrafficSpec::new(ArrivalProcess::Poisson { rate: RATE }, HORIZON).horizon(HORIZON)
}

fn config(seed: u64) -> SimConfig {
    SimConfig::new(CHANNELS).seed(seed).max_rounds(2 * HORIZON)
}

fn mac(packet: u64) -> BackoffMac {
    BackoffMac::new(2, 256, packet)
}

fn stream(seed: u64) -> Result<TrafficReport, SimError> {
    let feedback = Layered::new(LossyChannel::new(ERASURE), CdMode::Strong);
    run_traffic(config(seed), feedback, &spec(), mac)
}

/// Records deliveries, like `run_traffic`'s own capture sink.
#[derive(Default)]
struct Deliveries(Vec<(u64, NodeId)>);

impl EventSink for Deliveries {
    fn on_solved(&mut self, round: u64, solver: NodeId) {
        self.0.push((round, solver));
    }
    fn wants_outcomes(&self) -> bool {
        false
    }
}

/// `run_traffic` rebuilt from the engine's public API with every layer
/// call timed: the same injection order, stop tests and accounting, so its
/// report must equal `run_traffic`'s. Also returns the erasure count.
fn stream_traced(seed: u64, tracer: &Rc<Tracer>) -> Result<(TrafficReport, u64), SimError> {
    let spec = spec();
    let config = config(seed)
        .continuous_delivery(true)
        .stop_when(StopWhen::AllTerminated);
    let max_rounds = config.max_rounds;
    tracer.enter(Layer::EngineBuild);
    let inner = TimedFeedback::new(CdMode::Strong, Model::Strong, tracer.clone());
    let lossy = Layered::new(LossyChannel::new(ERASURE), inner);
    let mut eng = Engine::with_feedback(
        config,
        TimedFeedback::new(lossy, Model::Lossy, tracer.clone()),
    );
    tracer.exit();

    let next = |stream: &mut ArrivalStream| {
        let timed = tracer.leaf_start();
        let batch = stream.next_batch();
        tracer.leaf_end(timed, Layer::ArrivalsNextBatch, None);
        batch
    };
    let mut arrivals_stream = ArrivalStream::new(spec.process, spec.window, seed);
    let mut next_batch = next(&mut arrivals_stream);
    let mut arrivals: Vec<u64> = Vec::new();
    let mut latency = PowHistogram::new();
    let mut deliveries = Vec::new();
    let (mut offered, mut delivered, mut backlog_peak, mut backlog_sum) = (0u64, 0u64, 0u64, 0u64);
    let mut sink = TimedSink::new(Deliveries::default(), tracer.clone());

    let stop = loop {
        let now = eng.current_round();
        while let Some((round, count)) = next_batch {
            let idle = eng.live_len() == 0 && eng.pending_len() == 0;
            if round > now + 1 && !idle {
                break;
            }
            for _ in 0..count {
                let timed = tracer.leaf_start();
                eng.add_node_at(
                    TimedProtocol::new(mac(offered), tracer.clone()),
                    round.max(now),
                );
                tracer.leaf_end(timed, Layer::EngineAddNode, None);
                arrivals.push(round.max(now));
                offered += 1;
            }
            next_batch = next(&mut arrivals_stream);
        }
        if let Some(h) = spec.horizon {
            if now >= h {
                break StopCause::Horizon;
            }
        }
        if next_batch.is_none() && eng.live_len() == 0 && eng.pending_len() == 0 {
            break StopCause::Drained;
        }
        if now >= max_rounds {
            return Err(SimError::Timeout { max_rounds });
        }
        tracer.enter(Layer::EngineStep);
        let stepped = eng.step_observed(&mut sink);
        tracer.exit();
        match stepped {
            Ok(_) => {}
            Err(SimError::BudgetExhausted { .. }) => break StopCause::BudgetExhausted,
            Err(e) => return Err(e),
        }
        for &(round, id) in &sink.inner.0 {
            delivered += 1;
            latency.record(round - arrivals[id.0] + 1);
            deliveries.push((round, id));
        }
        sink.inner.0.clear();
        let backlog = eng.live_len() as u64;
        backlog_peak = backlog_peak.max(backlog);
        backlog_sum += backlog;
    };

    let (mut dropped, mut backlog_final) = (0u64, 0u64);
    for idx in 0..arrivals.len() {
        match eng.slot_state(NodeId(idx)) {
            SlotState::Crashed => dropped += 1,
            SlotState::Live | SlotState::Pending => backlog_final += 1,
            SlotState::Terminated => {}
        }
    }
    let erasures = eng.feedback().inner().layer().erasures();
    let report = TrafficReport {
        offered,
        delivered,
        dropped,
        backlog_final,
        backlog_peak,
        backlog_sum,
        rounds: eng.current_round(),
        stop,
        latency,
        deliveries,
    };
    Ok((report, erasures))
}

/// Checks one stream and folds it into the pass: every offered packet is
/// delivered, dropped or still queued, and each delivery has one latency
/// sample.
fn admit(pass: &mut Pass, latency: &mut PowHistogram, result: &Result<TrafficReport, SimError>) {
    pass.ops += 1;
    let fingerprint = match result {
        Ok(r) => {
            if r.delivered + r.dropped + r.backlog_final != r.offered
                || r.latency.count() != r.delivered
            {
                pass.failed += 1;
            }
            latency.merge(&r.latency);
            pass.count("engine.rounds", r.rounds);
            pass.count("packets", r.delivered);
            pass.count("traffic.offered", r.offered);
            pass.count("traffic.delivered", r.delivered);
            let peak = pass.counts.entry("traffic.backlog_peak").or_default();
            *peak = (*peak).max(r.backlog_peak);
            fold(
                [
                    r.offered,
                    r.delivered,
                    r.dropped,
                    r.backlog_final,
                    r.backlog_peak,
                    r.backlog_sum,
                    r.rounds,
                    r.stop as u64,
                    r.latency.count(),
                    r.latency.sum(),
                ]
                .into_iter()
                .chain(
                    r.deliveries
                        .iter()
                        .map(|&(round, id)| round << 20 ^ id.0 as u64),
                ),
            )
        }
        Err(_) => {
            pass.failed += 1;
            0
        }
    };
    pass.fingerprints.push((fingerprint, 1));
}

fn close(pass: &mut Pass, latency: &PowHistogram) {
    pass.count("traffic.latency_p99_rounds", latency.quantile(0.99));
}

impl Workload for Traffic {
    const THREADS: usize = 1;
    const LOOP: &'static str = "open";

    fn new(seed: u64) -> Self {
        Traffic {
            seeds: (0..STREAMS).map(|i| derive_stream_seed(seed, i)).collect(),
        }
    }

    fn pass(&mut self) -> Pass {
        let mut pass = Pass::default();
        let mut latency = PowHistogram::new();
        for &seed in &self.seeds {
            let started = Instant::now();
            let result = stream(seed);
            let elapsed = ns(started.elapsed());
            pass.work_ns += elapsed;
            pass.latency_ns.push(elapsed as f64);
            admit(&mut pass, &mut latency, &result);
        }
        close(&mut pass, &latency);
        pass
    }

    fn traced_pass(&mut self, calibration: Calibration, span_cap: usize) -> Pass {
        let mut pass = Pass::default();
        let mut latency = PowHistogram::new();
        let tracer = Rc::new(Tracer::new(span_cap, calibration));
        let mut erasures = 0;
        for (i, &seed) in self.seeds.iter().enumerate() {
            tracer.begin_run(i as u64);
            let started = Instant::now();
            tracer.enter(Layer::Run);
            let result = stream_traced(seed, &tracer);
            tracer.exit();
            pass.work_ns += ns(started.elapsed());
            let result = result.map(|(report, erased)| {
                erasures += erased;
                report
            });
            admit(&mut pass, &mut latency, &result);
        }
        close(&mut pass, &latency);
        pass.measured
            .insert("fault.lossy.erasures", erasures as f64);
        pass.trace = Some(
            Rc::try_unwrap(tracer)
                .ok()
                .expect("engines are dropped")
                .finish(),
        );
        pass
    }
}
