//! `sweep_sparse`: a seeded sweep through the harness's `RunCtx::sweep` —
//! the path `repro` uses — with a `RecordStore` checkpointing rows and a
//! `MetricsHub` attached, on two campaign workers. Each cell runs the paper
//! stack on sparse populations: many short trials, so campaign dispatch,
//! population builds, checkpoint I/O and telemetry flushes carry weight.
//!
//! Without collision detection the paper stack never elects itself (E16):
//! a run ends only on an accidental lone transmission, after 6 rounds at
//! the median but 900 at the 99th percentile. A round budget of
//! [`BUDGET`] keeps those trials short. Under no CD, running out of
//! budget is an expected outcome, counted as unsolved; under the other
//! modes, which solve within 30 rounds, it is a failure.

use std::path::PathBuf;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use contention::{FullAlgorithm, Params};
use contention_harness::record::verify_sealed_line;
use contention_harness::{RecordStore, RunCtx, Scale};
use mac_sim::campaign::{Aggregate, SeedStream};
use mac_sim::obs::Json;
use mac_sim::{
    CdMode, MetricsHub, RunReport, SimConfig, SimError, SparsePopulation, TelemetrySink,
};

use crate::bench::{fold, mix, Pass, Workload};
use crate::trace::{ns, Calibration, Layer, Model, TraceData, Tracer};
use crate::wrap::{run_observed, TimedFeedback, TimedProtocol, TimedSink};

const CHANNELS: u32 = 16;
const ACTIVE: usize = 48;
/// Namespace sizes `2^e`.
const EXPONENTS: [u32; 5] = [12, 14, 16, 18, 20];
const MODES: [CdMode; 3] = [CdMode::Strong, CdMode::ReceiverOnly, CdMode::None];
/// Trials per cell; every cell runs the same seed stream.
const TRIALS: usize = 256;
const WORKERS: usize = 2;
const BUDGET: u64 = 64;
const EXPERIMENT: &str = "perfbench_sweep";
const HEADERS: [&str; 9] = [
    "n", "cd", "trials", "solved", "unsolved", "failed", "rounds", "acts", "digest",
];

pub struct Sweep {
    seed: u64,
    dir: PathBuf,
}

impl Drop for Sweep {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
        if let Some(parent) = self.dir.parent() {
            // Fails, harmlessly, while another run still uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn config(seed: u64, mode: CdMode) -> SimConfig {
    SimConfig::new(CHANNELS)
        .seed(seed)
        .cd_mode(mode)
        .round_budget(BUDGET)
}

fn node(n: u64) -> FullAlgorithm {
    FullAlgorithm::new(Params::practical(), CHANNELS, n)
}

/// Telemetry shard for a trial, spreading flushes over the hub's shards.
fn shard(seed: u64) -> usize {
    (seed % WORKERS as u64) as usize
}

fn mode_name(mode: CdMode) -> &'static str {
    match mode {
        CdMode::Strong => "strong",
        CdMode::ReceiverOnly => "receiver_only",
        CdMode::None => "none",
    }
}

/// One cell's streamed results. Everything but the timing and trace
/// fields renders into the cell's table row.
#[derive(Default)]
struct Agg {
    trials: u64,
    solved: u64,
    unsolved: u64,
    failed: u64,
    rounds: u64,
    acts: u64,
    /// Order-free sum of per-trial fingerprints, so shards merge exactly.
    fingerprint: u64,
    latency_ns: Vec<f64>,
    span_cap: usize,
    trace: Option<TraceData>,
}

impl Aggregate for Agg {
    fn merge(&mut self, other: Self) {
        self.trials += other.trials;
        self.solved += other.solved;
        self.unsolved += other.unsolved;
        self.failed += other.failed;
        self.rounds += other.rounds;
        self.acts += other.acts;
        self.fingerprint = self.fingerprint.wrapping_add(other.fingerprint);
        self.latency_ns.extend(other.latency_ns);
        match (&mut self.trace, other.trace) {
            (Some(mine), Some(theirs)) => mine.merge(theirs, self.span_cap),
            (mine @ None, theirs) => *mine = theirs,
            (Some(_), None) => {}
        }
    }
}

impl Agg {
    /// Checks one trial: it must solve without error, or, without
    /// collision detection, run out of its round budget.
    fn admit(
        &mut self,
        seed: u64,
        mode: CdMode,
        result: &Result<RunReport, SimError>,
        elapsed_ns: u64,
    ) {
        self.trials += 1;
        self.latency_ns.push(elapsed_ns as f64);
        match result {
            Err(SimError::BudgetExhausted { solved: false, .. }) if mode == CdMode::None => {
                self.unsolved += 1;
                self.rounds += BUDGET;
                self.fingerprint = self.fingerprint.wrapping_add(fold([seed, BUDGET]));
            }
            Ok(report) if report.is_solved() => {
                self.solved += 1;
                self.rounds += report.rounds_executed;
                self.acts += report.metrics.transmissions + report.metrics.listens;
                self.fingerprint = self.fingerprint.wrapping_add(fold([
                    seed,
                    report.solved_round.map_or(0, |r| r + 1),
                    report.solver.map_or(0, |s| s.0 as u64 + 1),
                    report.rounds_executed,
                    report.metrics.transmissions,
                    report.metrics.listens,
                ]));
            }
            _ => self.failed += 1,
        }
    }

    fn cells(&self, exp: u32, mode: CdMode) -> Vec<String> {
        vec![
            format!("2^{exp}"),
            mode_name(mode).to_string(),
            self.trials.to_string(),
            self.solved.to_string(),
            self.unsolved.to_string(),
            self.failed.to_string(),
            self.rounds.to_string(),
            self.acts.to_string(),
            format!("{:016x}", self.fingerprint),
        ]
    }
}

fn trial(n: u64, mode: CdMode, seed: u64, hub: &MetricsHub, acc: &mut Agg) {
    let started = Instant::now();
    let result = {
        let pop = SparsePopulation::uniform(n, ACTIVE, 1, seed);
        let mut engine = pop.engine(config(seed, mode), |_| node(n));
        let mut sink = TelemetrySink::new();
        let result = engine.run_observed(&mut sink);
        sink.flush_to(hub, shard(seed));
        result
    };
    acc.admit(seed, mode, &result, ns(started.elapsed()));
}

fn trial_traced(
    n: u64,
    mode: CdMode,
    seed: u64,
    hub: &MetricsHub,
    acc: &mut Agg,
    calibration: Calibration,
) {
    let started = Instant::now();
    let tracer = Rc::new(Tracer::new(acc.span_cap, calibration));
    tracer.begin_run(mix(seed ^ n.rotate_left(8) ^ mode as u64));
    tracer.enter(Layer::CampaignTrial);
    let result = {
        tracer.enter(Layer::PopulationBuild);
        let pop = SparsePopulation::uniform(n, ACTIVE, 1, seed);
        tracer.enter(Layer::EngineBuild);
        let feedback = TimedFeedback::new(mode, Model::of_cd_mode(mode), tracer.clone());
        let mut engine = pop.engine_with(config(seed, mode), feedback, |_| {
            TimedProtocol::new(node(n), tracer.clone())
        });
        tracer.exit();
        tracer.exit();
        let mut sink = TimedSink::new(TelemetrySink::new(), tracer.clone());
        let result = run_observed(&mut engine, &mut sink, &tracer);
        tracer.enter(Layer::TelemetryFlush);
        sink.inner.flush_to(hub, shard(seed));
        tracer.exit();
        result
    };
    tracer.exit();
    acc.admit(seed, mode, &result, ns(started.elapsed()));
    let data = Rc::try_unwrap(tracer)
        .ok()
        .expect("engine and sink are dropped")
        .finish();
    match &mut acc.trace {
        Some(trace) => trace.merge(data, acc.span_cap),
        None => acc.trace = Some(data),
    }
}

/// What the render closures hand back besides the row cells.
#[derive(Default)]
struct Side {
    latency_ns: Vec<f64>,
    trace: Option<TraceData>,
    rounds: u64,
    solved: u64,
    trials: u64,
}

impl Sweep {
    /// One sweep. `store` attaches the record store; `traced` runs every
    /// trial through the timing wrappers.
    fn sweep(&self, store: bool, traced: Option<(Calibration, usize)>) -> Pass {
        let mut pass = Pass::default();
        let side = Mutex::new(Side::default());
        let span_cap = traced.map_or(0, |(_, cap)| cap);
        let started = Instant::now();
        let hub = Arc::new(MetricsHub::new(WORKERS));
        let mut ctx = RunCtx::new(Scale::Quick)
            .workers(WORKERS)
            .metrics_hub(hub.clone());
        if store {
            match RecordStore::create(&self.dir) {
                Ok(records) => ctx = ctx.record_store(records),
                Err(e) => println!(
                    "cannot open the record store in {}: {e}",
                    self.dir.display()
                ),
            }
        }
        ctx.begin_experiment(EXPERIMENT);
        let mut sweep = ctx.sweep::<Agg>("perfbench sparse sweep", &HEADERS);
        for exp in EXPONENTS {
            for mode in MODES {
                let n = 1u64 << exp;
                let (hub, side) = (&*hub, &side);
                sweep.row(
                    TRIALS,
                    SeedStream::Derived(self.seed),
                    move || Agg {
                        span_cap,
                        ..Agg::default()
                    },
                    move |seed, acc| match traced {
                        None => trial(n, mode, seed, hub, acc),
                        Some((calibration, _)) => {
                            trial_traced(n, mode, seed, hub, acc, calibration)
                        }
                    },
                    move |acc| {
                        let cells = acc.cells(exp, mode);
                        let mut side = side.lock().expect("side channel lock");
                        side.latency_ns.extend(acc.latency_ns);
                        side.rounds += acc.rounds;
                        side.solved += acc.solved;
                        side.trials += acc.trials;
                        if let Some(data) = acc.trace {
                            match &mut side.trace {
                                Some(trace) => trace.merge(data, span_cap),
                                None => side.trace = Some(data),
                            }
                        }
                        cells
                    },
                );
            }
        }
        let table = sweep.run();
        pass.work_ns = ns(started.elapsed());

        let side = side.into_inner().expect("side channel lock");
        pass.ops = side.trials;
        pass.measured
            .insert("campaign.busy_ns", side.latency_ns.iter().sum());
        pass.latency_ns = side.latency_ns;
        pass.trace = side.trace;
        pass.count("engine.rounds", side.rounds);
        pass.count("packets", side.solved);
        pass.count("campaign.trials", side.trials);
        for row in table.rows() {
            let failed: u64 = row[5].parse().unwrap_or(TRIALS as u64);
            pass.failed += failed;
            pass.fingerprints
                .push((fold(row.iter().map(|cell| mix_str(cell))), TRIALS as u64));
        }
        if store {
            self.check_records(table.rows(), &mut pass);
        }
        pass
    }

    /// The rows the record store checkpointed must be the table's rows.
    fn check_records(&self, rows: &[Vec<String>], pass: &mut Pass) {
        let part = self.dir.join(format!("{EXPERIMENT}.jsonl.part"));
        let mut stored: Vec<Option<Vec<String>>> = vec![None; rows.len()];
        let mut written = 0;
        let body = std::fs::read_to_string(&part).unwrap_or_default();
        for line in body.lines() {
            let Ok(record) = verify_sealed_line(line) else {
                continue;
            };
            if record.get("kind").and_then(Json::as_str) != Some("cell") {
                continue;
            }
            written += 1;
            let row = record.get("row").and_then(Json::as_u64);
            let cells = record.get("cells").and_then(Json::as_arr).map(|cells| {
                cells
                    .iter()
                    .map(|c| c.as_str().unwrap_or_default().to_string())
                    .collect::<Vec<_>>()
            });
            if let (Some(row), Some(cells)) = (row, cells) {
                if let Some(slot) = stored.get_mut(row as usize) {
                    *slot = Some(cells);
                }
            }
        }
        let mismatched = rows
            .iter()
            .zip(&stored)
            .filter(|(row, stored)| stored.as_ref() != Some(row))
            .count();
        if mismatched > 0 || written != rows.len() {
            println!(
                "record check: {written} rows written for {} table rows, {mismatched} differ",
                rows.len()
            );
            pass.failed += (mismatched.max(1) * TRIALS) as u64;
        }
        pass.count("record.rows", written as u64);
        let bytes: u64 = std::fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0);
        pass.measured.insert("record.bytes", bytes as f64);
    }
}

fn mix_str(cell: &str) -> u64 {
    fold(cell.bytes().map(u64::from))
}

impl Workload for Sweep {
    const THREADS: usize = WORKERS;
    const LOOP: &'static str = "closed";

    fn new(seed: u64) -> Self {
        let dir = std::env::current_dir()
            .unwrap_or_default()
            .join(".perfbench_tmp")
            .join(format!("sweep-{}", std::process::id()));
        Sweep { seed, dir }
    }

    fn pass(&mut self) -> Pass {
        self.sweep(true, None)
    }

    fn traced_pass(&mut self, calibration: Calibration, span_cap: usize) -> Pass {
        self.sweep(true, Some((calibration, span_cap)))
    }

    /// The record store priced by difference: the same sweep without it.
    fn ablated_pass(&mut self) -> Option<(&'static str, Pass)> {
        Some(("record.overhead_ns", self.sweep(false, None)))
    }
}
