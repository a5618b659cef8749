//! The workload-independent half of the benchmark: the timed loop, the
//! traced run, the output checks and the report.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use crate::trace::{ticks, Calibration, Layer, Model, Phase, TickRate, TraceData, SAMPLE_EVERY};

/// One pass over a workload's fixed seed set.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host time spent in the system under test (result checks excluded).
    pub work_ns: u64,
    /// Per-run latency samples in ns.
    pub latency_ns: Vec<f64>,
    /// Operations (runs, streams or trials) attempted.
    pub ops: u64,
    /// Operations whose outputs failed a check or returned an error.
    pub failed: u64,
    /// Output fingerprints in seed order, each covering `weight` operations.
    pub fingerprints: Vec<(u64, u64)>,
    /// Exact simulated counts; they must repeat on every pass.
    pub counts: BTreeMap<&'static str, u64>,
    /// Layer measurements that are not exact counts (host time, bytes
    /// written), or that only a traced pass can see.
    pub measured: BTreeMap<&'static str, f64>,
    /// Present on traced passes.
    pub trace: Option<TraceData>,
}

impl Pass {
    pub fn count(&mut self, name: &'static str, delta: u64) {
        *self.counts.entry(name).or_default() += delta;
    }

    pub fn digest(&self) -> u64 {
        fold(self.fingerprints.iter().map(|&(fp, _)| fp))
    }
}

/// A benchmark workload: seeded inputs plus the passes run over them.
pub trait Workload: Sized {
    /// Worker threads the workload runs on.
    const THREADS: usize;
    /// Open loop (work arrives on a schedule) or closed loop.
    const LOOP: &'static str;

    /// Builds the inputs from `seed`; the caller times this as set-up.
    fn new(seed: u64) -> Self;
    /// One untraced pass over the seed set.
    fn pass(&mut self) -> Pass;
    /// The same pass through the timing wrappers. Spans are recorded up to
    /// `span_cap`.
    fn traced_pass(&mut self, calibration: Calibration, span_cap: usize) -> Pass;
    /// The same pass with one layer switched off, to price that layer by
    /// difference: `(metric name, pass)`.
    fn ablated_pass(&mut self) -> Option<(&'static str, Pass)> {
        None
    }
}

/// Set-ups per timed run, spread evenly over it; the median is reported.
const SETUP_REPS: u32 = 12;
/// Spans kept from the first traced pass.
const SPAN_CAP: usize = 250_000;

/// Per-layer metrics, in the order `BENCHMARK.json` lists them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.build_ns", "ns"),
    ("engine.step_self_ns", "ns"),
    ("engine.rounds", "count"),
    ("engine.node_acts", "count"),
    ("phase.reduce.act_ns", "ns"),
    ("phase.reduce.observe_ns", "ns"),
    ("phase.reduce.rounds", "count"),
    ("phase.id_reduction.act_ns", "ns"),
    ("phase.id_reduction.observe_ns", "ns"),
    ("phase.id_reduction.rounds", "count"),
    ("phase.leaf_election.act_ns", "ns"),
    ("phase.leaf_election.observe_ns", "ns"),
    ("phase.leaf_election.rounds", "count"),
    ("feedback.strong.deliver_ns", "ns"),
    ("fault.lossy.begin_round_ns", "ns"),
    ("fault.lossy.deliver_ns", "ns"),
    ("fault.lossy.erasures", "count"),
    ("sink.metrics_ns", "ns"),
    ("sink.telemetry_flush_ns", "ns"),
    ("traffic.arrivals_ns", "ns"),
    ("traffic.offered", "count"),
    ("traffic.delivered", "count"),
    ("traffic.backlog_peak", "count"),
    ("traffic.latency_p99_rounds", "rounds"),
    ("population.build_ns", "ns"),
    ("campaign.trial_busy_ns", "ns"),
    ("campaign.idle_ns", "ns"),
    ("campaign.busy_frac", "ratio"),
    ("campaign.trials", "count"),
    ("record.rows", "count"),
    ("record.bytes", "bytes"),
    ("record.overhead_ns", "ns"),
    ("trace.overhead_ns", "ns"),
];

/// What a run prints as its last line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Running totals over the passes of one run, plus the repeat check.
struct Ledger {
    reference: Pass,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Ledger {
    fn new(reference: Pass) -> Self {
        let mut ledger = Ledger {
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            reference: Pass::default(),
        };
        ledger.admit("warm-up", &reference, false);
        ledger.reference = reference;
        ledger
    }

    /// Records a problem once, however many passes show it.
    fn problem(&mut self, problem: String) {
        if !self.problems.contains(&problem) {
            self.problems.push(problem);
        }
    }

    /// Counts `pass`'s operations and failures; with `compare`, every
    /// fingerprint and exact count must equal the reference pass's.
    fn admit(&mut self, what: &str, pass: &Pass, compare: bool) {
        self.attempted += pass.ops;
        self.failed += pass.failed;
        if pass.failed > 0 {
            self.problem(format!(
                "{what}: {} operations failed their output check",
                pass.failed
            ));
        }
        if !compare {
            return;
        }
        let reference = &self.reference;
        let mismatched: u64 = if pass.fingerprints.len() == reference.fingerprints.len() {
            pass.fingerprints
                .iter()
                .zip(&reference.fingerprints)
                .filter(|(a, b)| a != b)
                .map(|(a, _)| a.1)
                .sum()
        } else {
            pass.ops
        };
        if pass.counts != reference.counts {
            self.problem(format!(
                "{what}: exact counts differ from the first pass: {:?}",
                pass.counts
            ));
        }
        if mismatched > 0 {
            self.failed += mismatched;
            self.problem(format!(
                "{what}: {mismatched} operations differ from the same seeds' first pass"
            ));
        }
    }
}

fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile; sorts `values`.
fn quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    if values.is_empty() {
        return f64::NAN;
    }
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Builds the workload and runs one untraced pass over it, so caches and
/// lazy state are warm before anything is timed. Returns the workload, the
/// set-up time in seconds and the warm-up pass.
fn set_up<W: Workload>(seed: u64) -> (W, f64, Pass) {
    let started = Instant::now();
    let mut workload = W::new(seed);
    let warm = workload.pass();
    (workload, started.elapsed().as_secs_f64(), warm)
}

fn print_counts(pass: &Pass) {
    println!(
        "sim_digest: {:016x} over {} operations",
        pass.digest(),
        pass.ops
    );
    for (name, value) in &pass.counts {
        println!("count {name} = {value} (exact, per pass)");
    }
}

/// The untraced run: end-to-end metrics.
///
/// Every pass repeats the same seeds and must reproduce the same outputs,
/// so each run does the same work on every pass. Other tenants of a
/// shared machine can only add time to a timing, so a run's latency is its
/// fastest timing over the passes. On one thread a pass is its runs one
/// after another, and the pass time behind the rates is the sum of those
/// fastest timings. A parallel pass also spends time between runs
/// (dispatch, merging, record I/O), so there it is the fastest pass.
///
/// Set-up is repeated `SETUP_REPS` times, spread evenly over the run, and
/// its median is reported: a burst of load from other tenants then moves
/// one or two set-ups, not the figure. Each repeat drops the workload and
/// builds it again from the seed; its warm-up pass is checked like the
/// timed passes but not timed with them.
pub fn measure<W: Workload>(seed: u64, seconds: u64) -> Outcome {
    let (mut workload, first_setup_s, warm) = set_up::<W>(seed);
    print_counts(&warm);
    let mut ledger = Ledger::new(warm);
    let mut setup_times = vec![first_setup_s];

    let run = Duration::from_secs(seconds);
    let started = Instant::now();
    let deadline = started + run;
    let mut fastest: Vec<f64> = Vec::new();
    let mut pass_ns: Vec<f64> = Vec::new();
    loop {
        let reps = setup_times.len() as u32;
        if reps < SETUP_REPS && started.elapsed() >= run * reps / SETUP_REPS {
            drop(workload);
            let (rebuilt, setup_s, warm) = set_up::<W>(seed);
            ledger.admit("set-up pass", &warm, true);
            workload = rebuilt;
            setup_times.push(setup_s);
        }
        let pass = workload.pass();
        ledger.admit("timed pass", &pass, true);
        pass_ns.push(pass.work_ns as f64);
        if fastest.is_empty() {
            fastest = pass.latency_ns;
        } else {
            for (best, &t) in fastest.iter_mut().zip(&pass.latency_ns) {
                *best = best.min(t);
            }
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    let wall_s = started.elapsed().as_secs_f64();
    println!("setup_s reps: {setup_times:?}");
    let setup_s = median(&mut setup_times);
    let passes = pass_ns.len();
    let timed_s = pass_ns.iter().sum::<f64>() / 1e9;
    let pass_s = if W::THREADS == 1 {
        fastest.iter().sum::<f64>()
    } else {
        pass_ns.iter().copied().fold(f64::INFINITY, f64::min)
    } / 1e9;
    let reference = &ledger.reference;
    let per_pass = |name| reference.counts.get(name).copied().unwrap_or(0);
    let (ops, rounds, packets) = (
        reference.ops,
        per_pass("engine.rounds"),
        per_pass("packets"),
    );

    let mut latency: Vec<f64> = fastest.iter().map(|ns| ns / 1e6).collect();
    let samples = latency.len();
    let p50 = quantile(&mut latency, 0.5);
    let p99 = quantile(&mut latency, 0.99);
    let beyond = latency.iter().filter(|&&v| v > p99).count();

    println!(
        "passes: {passes}; {timed_s:.3} s of timed work in {wall_s:.3} s wall (checks and set-ups excluded)"
    );
    println!(
        "rates: ({ops} runs | {rounds} rounds | {packets} packets) per pass / {pass_s:.6} s per pass, {}",
        if W::THREADS == 1 {
            "the sum of each run's fastest timing"
        } else {
            "the fastest pass"
        }
    );
    println!(
        "run latency: {samples} runs, each its fastest of {passes} timings; {beyond} beyond p99"
    );
    if beyond < 10 {
        ledger.problem(format!(
            "only {beyond} runs lie beyond p99; p99 is not resolved"
        ));
    }
    if p50.max(p99) > wall_s * 1e3 {
        ledger.problem(format!(
            "a per-run percentile ({p50} / {p99} ms) exceeds the {wall_s} s wall"
        ));
    }

    let metrics = vec![
        ("setup_s".to_string(), setup_s, "s"),
        ("runs_per_s".to_string(), ops as f64 / pass_s, "1/s"),
        ("rounds_per_s".to_string(), rounds as f64 / pass_s, "1/s"),
        ("packets_per_s".to_string(), packets as f64 / pass_s, "1/s"),
        ("run_p50_ms".to_string(), p50, "ms"),
        ("run_p99_ms".to_string(), p99, "ms"),
        ("peak_rss_mb".to_string(), peak_rss_mb(), "MiB"),
    ];
    finish(ledger, metrics)
}

/// The traced run: per-layer metrics. Untraced, ablated and traced passes
/// over the same seeds alternate until the time is up.
pub fn traced<W: Workload>(seed: u64, seconds: u64, spans_out: &std::path::Path) -> Outcome {
    let (mut workload, _, warm) = set_up::<W>(seed);
    print_counts(&warm);
    let mut ledger = Ledger::new(warm);
    let calibration = Calibration::measure();
    let rate = TickRate::start();
    let epoch = ticks();
    let deadline = Instant::now() + Duration::from_secs(seconds);

    let mut data = TraceData::default();
    let (mut untraced_ns, mut untraced_ops, mut traced_ns, mut traced_ops) =
        (0u64, 0u64, 0u64, 0u64);
    let mut ablation: Option<(&'static str, u64)> = None;
    let mut measured: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut last;
    let mut passes = 0u64;
    loop {
        let untraced = workload.pass();
        ledger.admit("untraced pass", &untraced, true);
        untraced_ns += untraced.work_ns;
        untraced_ops += untraced.ops;
        for (name, value) in &untraced.measured {
            *measured.entry(name).or_default() += value;
        }
        if let Some((name, ablated)) = workload.ablated_pass() {
            ledger.admit("ablated pass", &ablated, false);
            ablation.get_or_insert((name, 0)).1 += ablated.work_ns;
        }
        let cap = if passes == 0 { SPAN_CAP } else { 0 };
        let mut pass = workload.traced_pass(calibration, cap);
        ledger.admit("traced pass", &pass, true);
        traced_ns += pass.work_ns;
        traced_ops += pass.ops;
        data.merge(
            pass.trace.take().expect("traced passes carry trace data"),
            SPAN_CAP,
        );
        last = pass;
        passes += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    let ns_per_tick = rate.ns_per_tick();
    println!(
        "traced sim_digest: {:016x} (untraced: {:016x})",
        last.digest(),
        ledger.reference.digest()
    );

    // Self-time ledger. On every thread the workload used, the traced wall
    // time splits into the layers' self times, the tracer's own estimated
    // cost, and time outside any timed call (the pass glue; on the sweep,
    // campaign dispatch and idle workers).
    let threads = W::THREADS as f64;
    let estimates = data.estimates(calibration);
    let est = |layer: Layer| estimates[layer.index()];
    let per_op = |ticks: f64| ticks * ns_per_tick / traced_ops as f64;
    let capacity_ns = threads * traced_ns as f64;
    let covered_ns: f64 = estimates.iter().map(|e| e.self_ * ns_per_tick).sum();
    let estimated_ns = data.overhead(calibration) * ns_per_tick;
    let outside_ns = capacity_ns - covered_ns - estimated_ns;
    let measured_ns =
        threads * (traced_ns as f64 - untraced_ns as f64 * traced_ops as f64 / untraced_ops as f64);
    println!(
        "tracing overhead: {:.0} ns per op measured ({threads} threads × (traced {traced_ns} ns − untraced {untraced_ns} ns scaled to {traced_ops} ops)), {:.0} ns per op estimated by the tracer",
        measured_ns / traced_ops as f64,
        estimated_ns / traced_ops as f64,
    );
    println!(
        "tracer calibration: {} ticks inside a frame, {} in its parent, {:.1} per untimed call; {ns_per_tick:.4} ns per tick; per-node calls timed 1 in {SAMPLE_EVERY}",
        calibration.inside, calibration.in_parent, calibration.untimed
    );
    println!("time by layer (ns per op; base {traced_ops} ops over {passes} traced passes):");
    for layer in Layer::all() {
        let e = est(layer);
        if e.calls > 0 {
            println!(
                "  {:<34} calls {:>11}  total {:>11.0}  self {:>11.0}",
                layer.name(),
                e.calls,
                per_op(e.total),
                per_op(e.self_)
            );
        }
    }
    println!(
        "  {:<34} {:>48.0}",
        "outside any timed call",
        outside_ns / traced_ops as f64
    );
    println!(
        "  {:<34} {:>48.0}",
        "tracer (estimated)",
        estimated_ns / traced_ops as f64
    );
    // The self times, with the time outside any timed call, must add up
    // to the traced wall within the measured tracing overhead: what is
    // left is the tracer's estimate of its own cost, which must be neither
    // negative nor more than the overhead actually measured.
    let unexplained = capacity_ns - covered_ns - outside_ns.max(0.0);
    println!(
        "self times + outside = {:.0} ns of {threads} threads × {traced_ns} ns traced wall; the remaining {unexplained:.0} ns is within the {measured_ns:.0} ns measured overhead: {}",
        covered_ns + outside_ns.max(0.0),
        unexplained <= measured_ns + 0.02 * capacity_ns
    );
    if outside_ns < -0.05 * capacity_ns {
        ledger.problems.push(format!(
            "timed calls cover {:.0} ns more than the traced wall",
            -outside_ns
        ));
    }
    if unexplained > measured_ns + 0.02 * capacity_ns {
        ledger.problems.push(format!(
            "self times miss the traced wall by {unexplained:.0} ns, more than the {measured_ns:.0} ns measured overhead"
        ));
    }

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let self_of = |layer: Layer| per_op(est(layer).self_);
    let total_of = |layer: Layer| per_op(est(layer).total);
    values.insert(
        "engine.build_ns".into(),
        total_of(Layer::EngineBuild) + total_of(Layer::EngineAddNode),
    );
    values.insert("engine.step_self_ns".into(), self_of(Layer::EngineStep));
    for phase in [Phase::Reduce, Phase::IdReduction, Phase::LeafElection] {
        let name = phase.name();
        values.insert(
            format!("phase.{name}.act_ns"),
            self_of(Layer::PhaseAct(phase)),
        );
        values.insert(
            format!("phase.{name}.observe_ns"),
            self_of(Layer::PhaseObserve(phase)),
        );
        values.insert(
            format!("phase.{name}.rounds"),
            (data.phase_rounds[phase as usize] / passes) as f64,
        );
    }
    values.insert(
        "feedback.strong.deliver_ns".into(),
        self_of(Layer::FeedbackDeliver(Model::Strong)),
    );
    values.insert(
        "fault.lossy.begin_round_ns".into(),
        self_of(Layer::FeedbackBegin(Model::Lossy)),
    );
    values.insert(
        "fault.lossy.deliver_ns".into(),
        self_of(Layer::FeedbackDeliver(Model::Lossy)),
    );
    values.insert(
        "sink.telemetry_flush_ns".into(),
        total_of(Layer::TelemetryFlush),
    );
    values.insert(
        "traffic.arrivals_ns".into(),
        total_of(Layer::ArrivalsNextBatch),
    );
    values.insert(
        "population.build_ns".into(),
        total_of(Layer::PopulationBuild),
    );
    let acts: u64 = Phase::ALL
        .iter()
        .map(|&p| est(Layer::PhaseAct(p)).calls)
        .sum();
    values.insert("engine.node_acts".into(), (acts / passes) as f64);
    for (name, value) in &last.counts {
        values.insert((*name).to_string(), *value as f64);
    }
    if let Some(&erasures) = last.measured.get("fault.lossy.erasures") {
        values.insert("fault.lossy.erasures".into(), erasures);
    }
    if let Some((name, ablated_ns)) = ablation {
        let saved = (untraced_ns as f64 - ablated_ns as f64) / untraced_ops as f64;
        println!("{name} base: untraced {untraced_ns} ns − ablated {ablated_ns} ns, over {untraced_ops} ops");
        values.insert(name.into(), saved);
    }
    if let Some(&busy) = measured.get("campaign.busy_ns") {
        let capacity = threads * untraced_ns as f64;
        println!("campaign.busy_frac base: {busy:.0} ns in trial closures / ({threads} workers × {untraced_ns} ns untraced wall)");
        values.insert("campaign.trial_busy_ns".into(), busy / untraced_ops as f64);
        values.insert(
            "campaign.idle_ns".into(),
            (capacity - busy) / untraced_ops as f64,
        );
        values.insert("campaign.busy_frac".into(), busy / capacity);
    }
    if let Some(&bytes) = measured.get("record.bytes") {
        values.insert("record.bytes".into(), bytes / passes as f64);
    }
    values.insert("trace.overhead_ns".into(), measured_ns / traced_ops as f64);

    match std::fs::File::create(spans_out) {
        Ok(file) => {
            let mut out = std::io::BufWriter::new(file);
            let written = data
                .write_spans(&mut out, epoch, ns_per_tick)
                .and_then(|()| std::io::Write::flush(&mut out));
            match written {
                Ok(()) => println!(
                    "spans: {} written to {} ({} beyond the cap not kept)",
                    data.spans.len(),
                    spans_out.display(),
                    data.spans_dropped
                ),
                Err(e) => ledger.problems.push(format!("cannot write spans: {e}")),
            }
        }
        Err(e) => ledger.problems.push(format!("cannot write spans: {e}")),
    }

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            (
                name.to_string(),
                values.get(name).copied().unwrap_or(0.0),
                unit,
            )
        })
        .collect();
    finish(ledger, metrics)
}

fn finish(ledger: Ledger, metrics: Vec<(String, f64, &'static str)>) -> Outcome {
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    for problem in &ledger.problems {
        println!("PROBLEM: {problem}");
    }
    Outcome {
        correct: ledger.problems.is_empty() && ledger.failed == 0,
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics,
    }
}

/// Order-dependent 64-bit fold (SplitMix64 finaliser per step).
pub fn fold(values: impl IntoIterator<Item = u64>) -> u64 {
    values
        .into_iter()
        .fold(0x9E37_79B9_7F4A_7C15, |acc, v| mix(acc ^ mix(v)))
}

pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
