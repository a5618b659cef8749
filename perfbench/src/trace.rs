//! In-memory span tracer for the traced run.
//!
//! Every timed call into a layer opens a frame on a stack; closing it adds
//! the frame's duration to its layer's total and its *self* time (duration
//! minus the time its child frames cover) to the layer's self total, so
//! the self times of all layers and the tracer's own cost partition the
//! traced wall time.
//!
//! Coarse layers (a run, an engine build, one engine step, …) are also kept
//! as [`Span`] records — name, start, end, parent, and the id of the run
//! they belong to — and written out when the benchmark ends. Per-node
//! calls are only sampled and aggregated ([`SAMPLE_EVERY`]).
//!
//! Time is read from the CPU's time-stamp counter, which costs less than
//! half of `Instant::now` here, and converted to ns once at the end. The
//! tracer's own cost per frame is measured up front ([`Calibration`]) and
//! taken out of every layer's self and total time, so that a leaf call of
//! a few ns is not buried under the clock reads around it; what was taken
//! out is the tracer's estimate of its own overhead.

use std::cell::{Cell, RefCell};
use std::io::{self, Write};
use std::time::Instant;

/// Reads the time-stamp counter.
#[cfg(target_arch = "x86_64")]
pub fn ticks() -> u64 {
    // SAFETY: `rdtsc` only reads the time-stamp counter; it has no memory
    // effects and every x86-64 CPU implements it.
    unsafe { core::arch::x86_64::_rdtsc() }
}

/// Nanoseconds since the first call, where no time-stamp counter exists.
#[cfg(not(target_arch = "x86_64"))]
pub fn ticks() -> u64 {
    static EPOCH: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    ns(EPOCH.get_or_init(Instant::now).elapsed())
}

/// Converts ticks to ns, measured against `Instant` over an interval.
#[derive(Debug, Clone, Copy)]
pub struct TickRate {
    started: Instant,
    started_ticks: u64,
}

impl TickRate {
    pub fn start() -> Self {
        TickRate {
            started: Instant::now(),
            started_ticks: ticks(),
        }
    }

    /// ns per tick over the interval since [`TickRate::start`].
    pub fn ns_per_tick(&self) -> f64 {
        let elapsed_ticks = ticks().saturating_sub(self.started_ticks).max(1);
        ns(self.started.elapsed()) as f64 / elapsed_ticks as f64
    }
}

/// The tracer's own cost, in ticks: per timed frame, the part that falls
/// inside the frame's measured interval and the part its parent sees; per
/// untimed per-node call, the part its parent sees.
#[derive(Debug, Clone, Copy, Default)]
pub struct Calibration {
    pub inside: u64,
    pub in_parent: u64,
    pub untimed: f64,
}

impl Calibration {
    /// Times empty frames nested in one parent, then empty per-node calls;
    /// keeps the smallest cost over a few repetitions, since interruptions
    /// only add.
    pub fn measure() -> Self {
        const FRAMES: u64 = 20_000;
        let mut best = Calibration {
            inside: u64::MAX,
            in_parent: u64::MAX,
            untimed: f64::INFINITY,
        };
        for _ in 0..7 {
            let tracer = Tracer::new(0, Calibration::default());
            tracer.enter(Layer::Run);
            for _ in 0..FRAMES {
                tracer.enter(Layer::SinkEvents);
                tracer.exit();
            }
            tracer.exit();
            let data = tracer.finish();
            let child = data.layers[Layer::SinkEvents.index()].total_ticks;
            let parent_self = data.layers[Layer::Run.index()].self_ticks;
            if child / FRAMES + parent_self / FRAMES < best.inside + best.in_parent {
                best.inside = child / FRAMES;
                best.in_parent = parent_self / FRAMES;
            }
        }
        for _ in 0..7 {
            let tracer = Tracer::new(0, best);
            tracer.enter(Layer::Run);
            for _ in 0..FRAMES {
                let timed = tracer.leaf_start();
                tracer.leaf_end(timed, Layer::SinkEvents, None);
            }
            tracer.exit();
            let data = tracer.finish();
            let untimed_calls =
                data.untimed[Layer::Run.index() * LAYERS + Layer::SinkEvents.index()];
            let parent_self = data.layers[Layer::Run.index()].self_ticks;
            best.untimed = best
                .untimed
                .min(parent_self as f64 / untimed_calls.max(1) as f64);
        }
        best
    }
}

/// A timed layer boundary. The names are the per-layer metric stems.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Run,
    EngineBuild,
    EngineAddNode,
    EngineStep,
    PhaseAct(Phase),
    PhaseObserve(Phase),
    ProtocolWake,
    FeedbackBegin(Model),
    FeedbackDeliver(Model),
    SinkEvents,
    TelemetryFlush,
    ArrivalsNextBatch,
    PopulationBuild,
    CampaignTrial,
}

/// Which phase of the paper stack a protocol call ran in, keyed by the
/// protocol's `phase()` label.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    Reduce,
    IdReduction,
    LeafElection,
    Other,
}

impl Phase {
    pub const ALL: [Phase; 4] = [
        Phase::Reduce,
        Phase::IdReduction,
        Phase::LeafElection,
        Phase::Other,
    ];

    /// Maps a fine-grained label (`"id-report"`, `"le-pair"`, …) to the
    /// paper phase that reports it.
    pub fn of_label(label: &str) -> Phase {
        if label.starts_with("reduce") {
            Phase::Reduce
        } else if label.starts_with("id-") {
            Phase::IdReduction
        } else if label.starts_with("le-") {
            Phase::LeafElection
        } else {
            Phase::Other
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Phase::Reduce => "reduce",
            Phase::IdReduction => "id_reduction",
            Phase::LeafElection => "leaf_election",
            Phase::Other => "other",
        }
    }
}

/// The feedback model (or fault layer) a wrapped `FeedbackModel` call ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    Strong,
    ReceiverOnly,
    NoCd,
    Lossy,
}

impl Model {
    pub const ALL: [Model; 4] = [
        Model::Strong,
        Model::ReceiverOnly,
        Model::NoCd,
        Model::Lossy,
    ];

    pub fn of_cd_mode(mode: mac_sim::CdMode) -> Model {
        match mode {
            mac_sim::CdMode::Strong => Model::Strong,
            mac_sim::CdMode::ReceiverOnly => Model::ReceiverOnly,
            mac_sim::CdMode::None => Model::NoCd,
        }
    }

    fn prefix(self) -> &'static str {
        match self {
            Model::Strong => "feedback.strong",
            Model::ReceiverOnly => "feedback.receiver_only",
            Model::NoCd => "feedback.none",
            Model::Lossy => "fault.lossy",
        }
    }
}

const PHASES: usize = Phase::ALL.len();
const MODELS: usize = Model::ALL.len();
/// Number of [`Layer`] variants without a phase or model.
const PLAIN: usize = 10;
/// Number of distinct [`Layer`] values.
pub const LAYERS: usize = PLAIN + 2 * PHASES + 2 * MODELS;

impl Layer {
    /// Dense index into per-layer tables.
    pub fn index(self) -> usize {
        match self {
            Layer::Run => 0,
            Layer::EngineBuild => 1,
            Layer::EngineAddNode => 2,
            Layer::EngineStep => 3,
            Layer::ProtocolWake => 4,
            Layer::SinkEvents => 5,
            Layer::TelemetryFlush => 6,
            Layer::ArrivalsNextBatch => 7,
            Layer::PopulationBuild => 8,
            Layer::CampaignTrial => 9,
            Layer::PhaseAct(p) => PLAIN + p as usize,
            Layer::PhaseObserve(p) => PLAIN + PHASES + p as usize,
            Layer::FeedbackBegin(m) => PLAIN + 2 * PHASES + m as usize,
            Layer::FeedbackDeliver(m) => PLAIN + 2 * PHASES + MODELS + m as usize,
        }
    }

    /// Every layer, in [`Layer::index`] order.
    pub fn all() -> Vec<Layer> {
        let mut all = vec![
            Layer::Run,
            Layer::EngineBuild,
            Layer::EngineAddNode,
            Layer::EngineStep,
            Layer::ProtocolWake,
            Layer::SinkEvents,
            Layer::TelemetryFlush,
            Layer::ArrivalsNextBatch,
            Layer::PopulationBuild,
            Layer::CampaignTrial,
        ];
        all.extend(Phase::ALL.map(Layer::PhaseAct));
        all.extend(Phase::ALL.map(Layer::PhaseObserve));
        all.extend(Model::ALL.map(Layer::FeedbackBegin));
        all.extend(Model::ALL.map(Layer::FeedbackDeliver));
        debug_assert!(all.iter().enumerate().all(|(i, l)| l.index() == i));
        all
    }

    pub fn name(self) -> String {
        match self {
            Layer::Run => "bench.run".into(),
            Layer::EngineBuild => "engine.build".into(),
            Layer::EngineAddNode => "engine.add_node".into(),
            Layer::EngineStep => "engine.step".into(),
            Layer::ProtocolWake => "protocol.on_wake".into(),
            Layer::SinkEvents => "sink.events".into(),
            Layer::TelemetryFlush => "sink.telemetry_flush".into(),
            Layer::ArrivalsNextBatch => "traffic.arrivals".into(),
            Layer::PopulationBuild => "population.build".into(),
            Layer::CampaignTrial => "campaign.trial".into(),
            Layer::PhaseAct(p) => format!("phase.{}.act", p.name()),
            Layer::PhaseObserve(p) => format!("phase.{}.observe", p.name()),
            Layer::FeedbackBegin(m) => format!("{}.begin_round", m.prefix()),
            Layer::FeedbackDeliver(m) => format!("{}.deliver", m.prefix()),
        }
    }

    /// Whether the layer's calls are kept as individual spans (the rest
    /// are per-node calls, aggregated only).
    fn is_recorded(self) -> bool {
        matches!(
            self,
            Layer::Run
                | Layer::EngineBuild
                | Layer::EngineStep
                | Layer::TelemetryFlush
                | Layer::PopulationBuild
                | Layer::CampaignTrial
        )
    }
}

/// Accumulated time of one layer, in ticks, with the tracer's own cost
/// taken out. `timed` counts the calls that were timed; per-node layers
/// time one call in [`SAMPLE_EVERY`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub calls: u64,
    pub timed: u64,
    pub total_ticks: u64,
    pub self_ticks: u64,
}

/// Per-node and per-round calls (`act`, `observe`, `deliver`,
/// `begin_round`, sink events, arrival batches, packet injections) cost a
/// few ns each and happen up to hundreds of times per round, so timing
/// every one would mostly time the clock. One in this many is timed; the
/// rest are counted, and their time is estimated from the timed ones. Odd,
/// so the alternating `deliver`/`observe` calls of a round are both
/// sampled.
pub const SAMPLE_EVERY: u32 = 13;

/// One recorded span, with raw counter stamps. `parent` indexes the same
/// span list ([`NO_PARENT`] for a root); spans of one run share `run`.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub run: u64,
    pub layer: Layer,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
}

pub const NO_PARENT: u32 = u32::MAX;

/// Everything a tracer measured: per-layer totals, per-phase round counts
/// and the recorded spans. Mergeable, so per-trial tracers on campaign
/// workers fold into one result.
#[derive(Debug, Clone)]
pub struct TraceData {
    pub layers: Vec<Totals>,
    /// `untimed[p * LAYERS + c]`: calls of per-node layer `c` made directly
    /// inside a frame of layer `p` without being timed.
    pub untimed: Vec<u64>,
    /// The tracer's estimate of its own cost inside root frames, in ticks.
    pub overhead_ticks: u64,
    /// Rounds in which at least one node acted in each [`Phase`].
    pub phase_rounds: [u64; PHASES],
    pub spans: Vec<Span>,
    pub spans_dropped: u64,
}

impl Default for TraceData {
    fn default() -> Self {
        TraceData {
            layers: vec![Totals::default(); LAYERS],
            untimed: vec![0; LAYERS * LAYERS],
            overhead_ticks: 0,
            phase_rounds: [0; PHASES],
            spans: Vec::new(),
            spans_dropped: 0,
        }
    }
}

/// A layer's time with untimed calls accounted for, in ticks.
#[derive(Debug, Clone, Copy, Default)]
pub struct Estimate {
    pub calls: u64,
    pub total: f64,
    pub self_: f64,
}

impl TraceData {
    /// Each layer's estimated time: a per-node layer's timed calls scaled
    /// up to all its calls, and every layer's self time less the estimated
    /// time of the untimed calls made inside it and the tracer's cost for
    /// them.
    pub fn estimates(&self, cal: Calibration) -> Vec<Estimate> {
        let mean_total = |t: &Totals| {
            if t.timed == 0 {
                0.0
            } else {
                t.total_ticks as f64 / t.timed as f64
            }
        };
        let scale = |t: &Totals| {
            if t.timed == 0 {
                0.0
            } else {
                t.calls as f64 / t.timed as f64
            }
        };
        (0..LAYERS)
            .map(|p| {
                let t = &self.layers[p];
                let untimed_inside: f64 = (0..LAYERS)
                    .map(|c| {
                        let n = self.untimed[p * LAYERS + c] as f64;
                        n * (mean_total(&self.layers[c]) + cal.untimed)
                    })
                    .sum();
                Estimate {
                    calls: t.calls,
                    total: t.total_ticks as f64 * scale(t),
                    self_: (t.self_ticks as f64 * scale(t) - untimed_inside).max(0.0),
                }
            })
            .collect()
    }

    /// The tracer's estimate of its own cost, in ticks.
    pub fn overhead(&self, cal: Calibration) -> f64 {
        self.overhead_ticks as f64 + self.untimed.iter().sum::<u64>() as f64 * cal.untimed
    }

    /// Adds `other`, appending its spans (parents re-based) up to `cap`.
    pub fn merge(&mut self, other: TraceData, cap: usize) {
        for (mine, theirs) in self.layers.iter_mut().zip(&other.layers) {
            mine.calls += theirs.calls;
            mine.timed += theirs.timed;
            mine.total_ticks += theirs.total_ticks;
            mine.self_ticks += theirs.self_ticks;
        }
        for (mine, theirs) in self.untimed.iter_mut().zip(&other.untimed) {
            *mine += theirs;
        }
        self.overhead_ticks += other.overhead_ticks;
        for (mine, theirs) in self.phase_rounds.iter_mut().zip(other.phase_rounds) {
            *mine += theirs;
        }
        let room = cap.saturating_sub(self.spans.len());
        self.spans_dropped += other.spans_dropped;
        if other.spans.len() > room {
            self.spans_dropped += (other.spans.len() - room) as u64;
            return;
        }
        let base = u32::try_from(self.spans.len()).expect("span count fits u32");
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            if span.parent != NO_PARENT {
                span.parent += base;
            }
            span
        }));
    }

    /// Writes the spans as tab-separated lines:
    /// `index run parent name start_ns end_ns`, times from `epoch`.
    pub fn write_spans(
        &self,
        out: &mut impl Write,
        epoch: u64,
        ns_per_tick: f64,
    ) -> io::Result<()> {
        let to_ns = |t: u64| (t.saturating_sub(epoch) as f64 * ns_per_tick).round() as u64;
        let names: Vec<String> = Layer::all().into_iter().map(Layer::name).collect();
        writeln!(out, "# index\trun\tparent\tname\tstart_ns\tend_ns")?;
        for (idx, span) in self.spans.iter().enumerate() {
            let parent = if span.parent == NO_PARENT {
                "-".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{idx}\t{}\t{parent}\t{}\t{}\t{}",
                span.run,
                names[span.layer.index()],
                to_ns(span.start),
                to_ns(span.end)
            )?;
        }
        Ok(())
    }
}

struct Frame {
    start: u64,
    /// Ticks of this frame covered by child frames, their tracer cost
    /// included.
    covered: u64,
    /// Estimated tracer cost inside this frame's children.
    overhead: u64,
    /// Index of this frame's span, or [`NO_PARENT`] if not recorded.
    span: u32,
    layer: Option<Layer>,
}

struct State {
    data: TraceData,
    stack: Vec<Frame>,
    run: u64,
}

/// A single-threaded tracer, shared by the wrappers of one engine through
/// an `Rc`. Span stamps are raw counter reads, so spans from different
/// worker threads line up. The per-node fast path touches only the `Cell`
/// counters.
pub struct Tracer {
    calibration: Calibration,
    span_cap: usize,
    state: RefCell<State>,
    /// Per-node calls since the last timed one.
    since_timed: Cell<u32>,
    /// Nesting depth of untimed per-node calls (their nested calls are
    /// untimed too), and of timed ones (their nested calls are timed too).
    untimed_depth: Cell<u32>,
    timed_depth: Cell<u32>,
    /// Layer index of the innermost open [`Tracer::enter`] frame.
    top: Cell<usize>,
    calls: Vec<Cell<u64>>,
    untimed: Vec<Cell<u64>>,
    /// Last round (plus one) counted per phase in the current run.
    phase_seen: [Cell<u64>; PHASES],
    phase_rounds: [Cell<u64>; PHASES],
}

impl Tracer {
    pub fn new(span_cap: usize, calibration: Calibration) -> Self {
        Tracer {
            calibration,
            span_cap,
            state: RefCell::new(State {
                data: TraceData::default(),
                stack: Vec::with_capacity(8),
                run: 0,
            }),
            since_timed: Cell::new(0),
            untimed_depth: Cell::new(0),
            timed_depth: Cell::new(0),
            top: Cell::new(LAYERS),
            calls: (0..LAYERS).map(|_| Cell::new(0)).collect(),
            untimed: (0..LAYERS * LAYERS).map(|_| Cell::new(0)).collect(),
            phase_seen: Default::default(),
            phase_rounds: Default::default(),
        }
    }

    /// Starts a new run: later spans carry `run` as their run id.
    pub fn begin_run(&self, run: u64) {
        self.state.borrow_mut().run = run;
        for seen in &self.phase_seen {
            seen.set(0);
        }
    }

    /// Opens a frame around a coarse call (a run, a build, a step, …).
    pub fn enter(&self, layer: Layer) {
        let mut st = self.state.borrow_mut();
        let span = if !layer.is_recorded() || self.span_cap == 0 {
            NO_PARENT
        } else if st.data.spans.len() < self.span_cap {
            let parent = st
                .stack
                .iter()
                .rev()
                .find(|f| f.span != NO_PARENT)
                .map_or(NO_PARENT, |f| f.span);
            let idx = u32::try_from(st.data.spans.len()).expect("span count fits u32");
            let run = st.run;
            st.data.spans.push(Span {
                run,
                layer,
                start: 0,
                end: 0,
                parent,
            });
            idx
        } else {
            st.data.spans_dropped += 1;
            NO_PARENT
        };
        self.top.set(layer.index());
        let start = ticks();
        if span != NO_PARENT {
            st.data.spans[span as usize].start = start;
        }
        st.stack.push(Frame {
            start,
            covered: 0,
            overhead: 0,
            span,
            layer: Some(layer),
        });
    }

    /// Closes the frame opened by the matching [`Tracer::enter`].
    pub fn exit(&self) {
        let end = ticks();
        let layer = self.close(end, None);
        bump(&self.calls[layer.index()]);
    }

    /// Starts a per-node call; returns whether it is timed. Calls nested
    /// in a per-node call follow its choice.
    pub fn leaf_start(&self) -> bool {
        let timed = if self.untimed_depth.get() > 0 {
            false
        } else if self.timed_depth.get() > 0 {
            true
        } else if self.since_timed.get() + 1 == SAMPLE_EVERY {
            self.since_timed.set(0);
            true
        } else {
            bump32(&self.since_timed);
            false
        };
        if timed {
            bump32(&self.timed_depth);
            self.state.borrow_mut().stack.push(Frame {
                start: ticks(),
                covered: 0,
                overhead: 0,
                span: NO_PARENT,
                layer: None,
            });
        } else {
            bump32(&self.untimed_depth);
        }
        timed
    }

    /// Ends a per-node call started by [`Tracer::leaf_start`], naming its
    /// layer; an `act` also counts `round` once per run for its phase.
    pub fn leaf_end(&self, timed: bool, layer: Layer, act_round: Option<u64>) {
        if timed {
            let end = ticks();
            self.timed_depth.set(self.timed_depth.get() - 1);
            self.close(end, Some(layer));
        } else {
            let depth = self.untimed_depth.get() - 1;
            self.untimed_depth.set(depth);
            let top = self.top.get();
            if depth == 0 && top < LAYERS {
                bump(&self.untimed[top * LAYERS + layer.index()]);
            }
        }
        bump(&self.calls[layer.index()]);
        if let (Layer::PhaseAct(phase), Some(round)) = (layer, act_round) {
            let seen = &self.phase_seen[phase as usize];
            if seen.get() != round + 1 {
                seen.set(round + 1);
                bump(&self.phase_rounds[phase as usize]);
            }
        }
    }

    /// Pops the innermost frame ending at `end` and books its time;
    /// returns its layer.
    fn close(&self, end: u64, label: Option<Layer>) -> Layer {
        let cal = self.calibration;
        let mut st = self.state.borrow_mut();
        let frame = st.stack.pop().expect("every exit matches an enter");
        let layer = frame
            .layer
            .or(label)
            .expect("every frame is labelled by enter or leaf_end");
        let dur = end.saturating_sub(frame.start);
        let inner_overhead = cal.inside + frame.overhead;
        if frame.span != NO_PARENT {
            st.data.spans[frame.span as usize].end = end;
        }
        let totals = &mut st.data.layers[layer.index()];
        totals.timed += 1;
        totals.total_ticks += dur.saturating_sub(inner_overhead);
        totals.self_ticks += dur.saturating_sub(frame.covered + cal.inside);
        match st.stack.last_mut() {
            Some(parent) => {
                parent.covered += dur + cal.in_parent;
                parent.overhead += inner_overhead + cal.in_parent;
            }
            None => st.data.overhead_ticks += inner_overhead,
        }
        if frame.layer.is_some() {
            let top = st
                .stack
                .iter()
                .rev()
                .find_map(|f| f.layer)
                .map_or(LAYERS, Layer::index);
            self.top.set(top);
        }
        layer
    }

    /// Ends tracing and returns what was measured.
    pub fn finish(self) -> TraceData {
        let st = self.state.into_inner();
        assert!(st.stack.is_empty(), "every traced call returned");
        let mut data = st.data;
        for (totals, calls) in data.layers.iter_mut().zip(&self.calls) {
            totals.calls = calls.get();
        }
        for (mine, cell) in data.untimed.iter_mut().zip(&self.untimed) {
            *mine = cell.get();
        }
        for (mine, cell) in data.phase_rounds.iter_mut().zip(&self.phase_rounds) {
            *mine = cell.get();
        }
        data
    }
}

fn bump(cell: &Cell<u64>) {
    cell.set(cell.get() + 1);
}

fn bump32(cell: &Cell<u32>) {
    cell.set(cell.get() + 1);
}

pub fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}
