//! The structured run-record layer: span-model telemetry with stable JSONL
//! serialization.
//!
//! Markdown reports are for human eyes; this module is for machines. A
//! [`RunRecorder`] attaches to any run via [`crate::Engine::run_observed`]
//! and assembles the event stream into a *span tree*:
//!
//! ```text
//! run (seed, wall clock, totals)
//! ├── phase span "reduce"        rounds 0..=117   tx=511  rx=203  wall=…
//! ├── phase span "id-rename"     rounds 118..=141 tx=64   rx=80   wall=…
//! └── per-channel tallies        silences / messages / collisions
//! ```
//!
//! A span opens when a phase label first produces activity and closes when
//! a round goes by without any. Under staggered wake-ups (§3 transform)
//! different nodes are legitimately in different phases at once, so spans
//! may **overlap** in time — each span still counts exactly the
//! transmissions and listens its own phase produced (see
//! [`RunRecord::phase_node_rounds`]). That is the exact per-phase count;
//! the engine's per-round label, which a [`crate::Trace`] records, is the
//! lowest-indexed live node's phase and misattributes staggered rounds.
//!
//! The serialized form is versioned JSONL (see [`SCHEMA_VERSION`]): one
//! [`RunRecord`] per trial plus one [`RunManifest`] per batch capturing
//! full provenance. Serialization is hand-rolled ([`Json`]) so the
//! offline/vendored build stays registry-free.
//!
//! Recording is observer-effect free by construction: the recorder only
//! reads the event stream, never touches a node's RNG, and the engine's
//! behavior with a sink attached is pinned bit-identical by the
//! `observer_effect` test suite.

mod json;
pub mod telemetry;

pub use json::Json;
pub use telemetry::{
    Counter, Gauge, Histogram, MetricsHub, MetricsSnapshot, PowHistogram, Registry, TelemetrySink,
};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::channel::{ChannelId, ChannelOutcome};
use crate::config::SimConfig;
use crate::engine::NodeId;
use crate::sink::EventSink;

/// Version stamped into every record this layer writes. Bump when a field
/// changes meaning; `obsdiff` refuses to compare across versions.
///
/// History: v1 introduced `manifest`/`trial` (and the harness-side
/// `cell`/`bench`/`quarantine`) records; v2 adds the `kind: "snapshot"`
/// metrics record ([`telemetry::MetricsSnapshot`]) with no field changes
/// to the existing kinds — v1 files re-validate after regeneration only
/// because the stamped version must match. The harness later dropped the
/// `bench` kind without a bump: nothing writes it, and no committed v2
/// file holds one.
pub const SCHEMA_VERSION: u64 = 2;

/// One phase span of a recorded run: a maximal stretch of consecutive
/// rounds in which the phase produced at least one action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpan {
    /// The phase label (e.g. `"reduce"`, `"wakeup-listen"`).
    pub label: String,
    /// First round (0-based) of the span.
    pub start_round: u64,
    /// Last round of the span, inclusive.
    pub end_round: u64,
    /// Rounds in which this phase had at least one acting node.
    pub rounds: u64,
    /// Transmissions made by nodes in this phase during the span.
    pub transmissions: u64,
    /// Listen actions by nodes in this phase during the span.
    pub listens: u64,
    /// Wall-clock time the span was open, in nanoseconds.
    pub wall_ns: u64,
}

/// Per-channel outcome tallies over a whole run.
///
/// Only rounds in which the channel had at least one participant are
/// counted (an idle channel generates no outcome). A run has one row per
/// channel up to the highest channel that saw a participant, so a channel
/// below it that never did keeps an all-zero row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelTally {
    /// 1-based channel number.
    pub channel: u32,
    /// Rounds with listeners but no transmitter.
    pub silences: u64,
    /// Rounds with exactly one transmitter.
    pub messages: u64,
    /// Rounds with two or more transmitters.
    pub collisions: u64,
    /// Total transmitter-slots over all rounds (the channel's TX energy).
    pub transmissions: u64,
    /// Total listener-slots over all rounds (the channel's RX energy).
    pub listens: u64,
}

/// The complete structured record of one run, ready for JSONL export.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    /// The master seed the run executed under.
    pub seed: u64,
    /// Round of the lone primary-channel transmission, if the run solved.
    pub solved_round: Option<u64>,
    /// The solving node's id.
    pub solver: Option<u64>,
    /// Total rounds executed.
    pub rounds: u64,
    /// Total transmissions (TX energy).
    pub transmissions: u64,
    /// Total listen actions (RX energy).
    pub listens: u64,
    /// The maximum transmissions made by any single node.
    pub max_node_transmissions: u64,
    /// Wall-clock duration of the run in nanoseconds.
    pub wall_ns: u64,
    /// Phase spans in `(start_round, label)` order; overlapping under
    /// staggered wake-ups.
    pub spans: Vec<PhaseSpan>,
    /// Per-channel outcome tallies, sorted by channel.
    pub channels: Vec<ChannelTally>,
    /// Exact node-round accounting per phase label: each acting node
    /// contributes one count per round to *its own* phase. This is the
    /// breakdown that stays correct when nodes are in different phases
    /// simultaneously. Summed from the label's spans (transmissions plus
    /// listens), in label order; a zero total is left out.
    pub phase_node_rounds: Vec<(String, u64)>,
    /// Transmissions per phase label, attributed per acting node: the sum
    /// of the label's span transmissions, in label order; a zero total is
    /// left out.
    pub phase_transmissions: Vec<(String, u64)>,
}

impl RunRecord {
    /// Rounds in which `label` had at least one acting node, summed over
    /// its spans.
    #[must_use]
    pub fn phase_rounds(&self, label: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.label == label)
            .map(|s| s.rounds)
            .sum()
    }

    /// Exact node-rounds spent in `label` (see
    /// [`RunRecord::phase_node_rounds`]).
    #[must_use]
    pub fn node_rounds(&self, label: &str) -> u64 {
        self.phase_node_rounds
            .iter()
            .find(|(l, _)| l == label)
            .map_or(0, |(_, v)| *v)
    }

    /// Transmissions attributed to `label`.
    #[must_use]
    pub fn phase_tx(&self, label: &str) -> u64 {
        self.phase_transmissions
            .iter()
            .find(|(l, _)| l == label)
            .map_or(0, |(_, v)| *v)
    }

    /// This record as a JSON value (`kind: "trial"`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                Json::obj(vec![
                    ("label".into(), s.label.as_str().into()),
                    ("start_round".into(), s.start_round.into()),
                    ("end_round".into(), s.end_round.into()),
                    ("rounds".into(), s.rounds.into()),
                    ("transmissions".into(), s.transmissions.into()),
                    ("listens".into(), s.listens.into()),
                    ("wall_ns".into(), s.wall_ns.into()),
                ])
            })
            .collect();
        let channels = self
            .channels
            .iter()
            .map(|t| {
                Json::obj(vec![
                    ("channel".into(), t.channel.into()),
                    ("silences".into(), t.silences.into()),
                    ("messages".into(), t.messages.into()),
                    ("collisions".into(), t.collisions.into()),
                    ("transmissions".into(), t.transmissions.into()),
                    ("listens".into(), t.listens.into()),
                ])
            })
            .collect();
        let pairs = |entries: &[(String, u64)]| {
            Json::Obj(
                entries
                    .iter()
                    .map(|(label, v)| (label.clone(), Json::UInt(*v)))
                    .collect(),
            )
        };
        Json::obj(vec![
            ("schema_version".into(), SCHEMA_VERSION.into()),
            ("kind".into(), "trial".into()),
            ("seed".into(), self.seed.into()),
            ("solved_round".into(), self.solved_round.into()),
            ("solver".into(), self.solver.into()),
            ("rounds".into(), self.rounds.into()),
            ("transmissions".into(), self.transmissions.into()),
            ("listens".into(), self.listens.into()),
            (
                "max_node_transmissions".into(),
                self.max_node_transmissions.into(),
            ),
            ("wall_ns".into(), self.wall_ns.into()),
            ("spans".into(), Json::Arr(spans)),
            ("channels".into(), Json::Arr(channels)),
            ("phase_node_rounds".into(), pairs(&self.phase_node_rounds)),
            (
                "phase_transmissions".into(),
                pairs(&self.phase_transmissions),
            ),
        ])
    }

    /// One JSONL line for this record.
    #[must_use]
    pub fn to_jsonl_line(&self) -> String {
        self.to_json().render()
    }

    /// Parses a record back from its JSON form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field.
    pub fn from_json(value: &Json) -> Result<RunRecord, String> {
        let need = |key: &str| {
            value
                .get(key)
                .ok_or_else(|| format!("trial record missing '{key}'"))
        };
        let need_u64 = |key: &str| {
            need(key)?
                .as_u64()
                .ok_or_else(|| format!("trial field '{key}' is not a u64"))
        };
        let opt_u64 = |key: &str| need(key).map(Json::as_u64);
        if need_u64("schema_version")? != SCHEMA_VERSION {
            return Err(format!(
                "schema_version {} != supported {SCHEMA_VERSION}",
                need_u64("schema_version")?
            ));
        }
        let spans = need("spans")?
            .as_arr()
            .ok_or("'spans' is not an array")?
            .iter()
            .map(|s| {
                let f = |key: &str| {
                    s.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("span field '{key}' missing or mistyped"))
                };
                Ok(PhaseSpan {
                    label: s
                        .get("label")
                        .and_then(Json::as_str)
                        .ok_or("span missing 'label'")?
                        .to_string(),
                    start_round: f("start_round")?,
                    end_round: f("end_round")?,
                    rounds: f("rounds")?,
                    transmissions: f("transmissions")?,
                    listens: f("listens")?,
                    wall_ns: f("wall_ns")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let channels = need("channels")?
            .as_arr()
            .ok_or("'channels' is not an array")?
            .iter()
            .map(|t| {
                let f = |key: &str| {
                    t.get(key)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("channel field '{key}' missing or mistyped"))
                };
                Ok(ChannelTally {
                    channel: u32::try_from(f("channel")?).map_err(|_| "channel overflows u32")?,
                    silences: f("silences")?,
                    messages: f("messages")?,
                    collisions: f("collisions")?,
                    transmissions: f("transmissions")?,
                    listens: f("listens")?,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let pairs = |key: &str| -> Result<Vec<(String, u64)>, String> {
            need(key)?
                .as_obj()
                .ok_or_else(|| format!("'{key}' is not an object"))?
                .iter()
                .map(|(label, v)| {
                    v.as_u64()
                        .map(|v| (label.clone(), v))
                        .ok_or_else(|| format!("'{key}.{label}' is not a u64"))
                })
                .collect()
        };
        Ok(RunRecord {
            seed: need_u64("seed")?,
            solved_round: opt_u64("solved_round")?,
            solver: opt_u64("solver")?,
            rounds: need_u64("rounds")?,
            transmissions: need_u64("transmissions")?,
            listens: need_u64("listens")?,
            max_node_transmissions: need_u64("max_node_transmissions")?,
            wall_ns: need_u64("wall_ns")?,
            spans,
            channels,
            phase_node_rounds: pairs("phase_node_rounds")?,
            phase_transmissions: pairs("phase_transmissions")?,
        })
    }

    /// Pretty-prints the span tree for terminal output.
    #[must_use]
    pub fn render_tree(&self) -> String {
        let mut out = String::new();
        let solved = match self.solved_round {
            Some(r) => format!("solved @ round {r}"),
            None => "unsolved".to_string(),
        };
        let _ = writeln!(
            out,
            "run seed={} {} rounds={} tx={} rx={} wall={:.3}ms",
            self.seed,
            solved,
            self.rounds,
            self.transmissions,
            self.listens,
            self.wall_ns as f64 / 1e6,
        );
        for (i, s) in self.spans.iter().enumerate() {
            let branch = if i + 1 == self.spans.len() {
                "└──"
            } else {
                "├──"
            };
            let _ = writeln!(
                out,
                "{branch} {:<16} rounds {:>5}..={:<5} ({:>5} active)  tx={:<6} rx={:<6} wall={:.3}ms",
                s.label,
                s.start_round,
                s.end_round,
                s.rounds,
                s.transmissions,
                s.listens,
                s.wall_ns as f64 / 1e6,
            );
        }
        for t in &self.channels {
            let _ = writeln!(
                out,
                "    ch {:>3}: {} silence / {} message / {} collision",
                t.channel, t.silences, t.messages, t.collisions
            );
        }
        out
    }
}

/// An in-flight phase span, before it closes.
#[derive(Debug)]
struct OpenSpan {
    span: PhaseSpan,
    opened: Instant,
}

/// An [`EventSink`] that assembles a run into a [`RunRecord`].
///
/// Attach with [`crate::Engine::run_observed`], then call
/// [`RunRecorder::into_record`]:
///
/// ```
/// use mac_sim::obs::RunRecorder;
/// use mac_sim::{Action, ChannelId, Engine, Feedback, Protocol, RoundContext,
///               SimConfig, Status};
/// # struct Beacon;
/// # impl Protocol for Beacon {
/// #     type Msg = u8;
/// #     fn act(&mut self, _: &RoundContext, _: &mut rand::rngs::SmallRng) -> Action<u8> {
/// #         Action::transmit(ChannelId::PRIMARY, 0)
/// #     }
/// #     fn observe(&mut self, _: &RoundContext, _: Feedback<u8>, _: &mut rand::rngs::SmallRng) {}
/// #     fn status(&self) -> Status { Status::Active }
/// # }
/// # fn main() -> Result<(), mac_sim::SimError> {
/// let mut engine = Engine::new(SimConfig::new(4).seed(9));
/// engine.add_node(Beacon);
/// let mut recorder = RunRecorder::new();
/// let report = engine.run_observed(&mut recorder)?;
/// let record = recorder.into_record(9);
/// assert_eq!(record.transmissions, report.metrics.transmissions);
/// println!("{}", record.to_jsonl_line());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct RunRecorder {
    started: Instant,
    /// This round's `(label, transmissions, listens)`; a handful of
    /// entries at most.
    round_acts: Vec<(&'static str, u64, u64)>,
    open: Vec<OpenSpan>,
    closed: Vec<PhaseSpan>,
    node_tx: Vec<u64>,
    /// The run's rounds, solve and channel rows, and so its totals.
    tally: TelemetrySink,
    wall_ns: Option<u64>,
}

impl Default for RunRecorder {
    fn default() -> Self {
        RunRecorder::new()
    }
}

impl RunRecorder {
    /// Creates an empty recorder; the run's wall clock starts now.
    #[must_use]
    pub fn new() -> Self {
        RunRecorder {
            started: Instant::now(),
            round_acts: Vec::new(),
            open: Vec::new(),
            closed: Vec::new(),
            node_tx: Vec::new(),
            tally: TelemetrySink::new(),
            wall_ns: None,
        }
    }

    fn bump_phase(&mut self, label: &'static str, tx: u64, rx: u64) {
        match self.round_acts.iter_mut().find(|(l, _, _)| *l == label) {
            Some(entry) => {
                entry.1 += tx;
                entry.2 += rx;
            }
            None => self.round_acts.push((label, tx, rx)),
        }
    }

    fn close_stale_spans(&mut self, round: u64) {
        let mut i = 0;
        while i < self.open.len() {
            if self.open[i].span.end_round < round {
                let done = self.open.swap_remove(i);
                let mut span = done.span;
                span.wall_ns = u64::try_from(done.opened.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.closed.push(span);
            } else {
                i += 1;
            }
        }
    }

    /// Finishes the run record for a run executed at `seed` (the recorder
    /// never sees the configuration, so the caller supplies it).
    ///
    /// Valid mid-run too: still-open spans are closed at the current wall
    /// clock.
    #[must_use]
    pub fn into_record(mut self, seed: u64) -> RunRecord {
        self.close_stale_spans(u64::MAX);
        let wall_ns = self.wall_ns.unwrap_or_else(|| {
            u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
        });
        let mut spans = self.closed;
        spans.sort_by(|a, b| (a.start_round, &a.label).cmp(&(b.start_round, &b.label)));
        // Per-phase totals are sums over each label's spans; a label with
        // a zero total gets no entry.
        let mut per_label: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for s in &spans {
            let (acts, tx) = per_label.entry(&s.label).or_default();
            *acts += s.transmissions + s.listens;
            *tx += s.transmissions;
        }
        let (mut phase_node_rounds, mut phase_transmissions) = (Vec::new(), Vec::new());
        for (label, (acts, tx)) in per_label {
            if acts > 0 {
                phase_node_rounds.push((label.to_string(), acts));
            }
            if tx > 0 {
                phase_transmissions.push((label.to_string(), tx));
            }
        }
        let tally = self.tally;
        RunRecord {
            seed,
            solved_round: tally.solved.map(|(round, _)| round),
            solver: tally.solved.map(|(_, solver)| solver.0 as u64),
            rounds: tally.rounds,
            transmissions: tally.transmissions(),
            listens: tally.listens(),
            max_node_transmissions: self.node_tx.iter().copied().max().unwrap_or(0),
            wall_ns,
            channels: tally.channels,
            phase_node_rounds,
            phase_transmissions,
            spans,
        }
    }
}

impl EventSink for RunRecorder {
    fn on_transmission(
        &mut self,
        _round: u64,
        node: NodeId,
        _channel: ChannelId,
        phase: &'static str,
    ) {
        if self.node_tx.len() <= node.0 {
            self.node_tx.resize(node.0 + 1, 0);
        }
        self.node_tx[node.0] += 1;
        self.bump_phase(phase, 1, 0);
    }

    fn on_listen(&mut self, _round: u64, _node: NodeId, _channel: ChannelId, phase: &'static str) {
        self.bump_phase(phase, 0, 1);
    }

    fn on_solved(&mut self, round: u64, solver: NodeId) {
        self.tally.on_solved(round, solver);
    }

    fn on_round(&mut self, round: u64, phase: &'static str, outcomes: &[ChannelOutcome]) {
        // Rows and rounds only: a record holds no acts-per-round histogram.
        self.tally.tally_round(outcomes);
        // A round with no acting node at all (everyone asleep or
        // terminated) is attributed to the engine's representative label,
        // typically "idle".
        if self.round_acts.is_empty() {
            self.round_acts.push((phase, 0, 0));
        }
        for &(label, tx, rx) in &self.round_acts {
            // `end_round + 1 == round` never matches in round 0, so the
            // very first round always opens fresh spans.
            match self
                .open
                .iter_mut()
                .find(|o| o.span.label == label && o.span.end_round + 1 == round)
            {
                Some(open) => {
                    open.span.end_round = round;
                    open.span.rounds += 1;
                    open.span.transmissions += tx;
                    open.span.listens += rx;
                }
                None => {
                    self.open.push(OpenSpan {
                        span: PhaseSpan {
                            label: label.to_string(),
                            start_round: round,
                            end_round: round,
                            rounds: 1,
                            transmissions: tx,
                            listens: rx,
                            wall_ns: 0,
                        },
                        opened: Instant::now(),
                    });
                }
            }
        }
        self.round_acts.clear();
        self.close_stale_spans(round);
    }

    fn on_finished(&mut self, _rounds_executed: u64) {
        self.close_stale_spans(u64::MAX);
        self.wall_ns = Some(u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    }

    fn wants_outcomes(&self) -> bool {
        true
    }

    fn wants_node_phases(&self) -> bool {
        true
    }
}

/// Full provenance of a recorded batch: everything needed to reproduce it.
///
/// Written as the first line of every JSONL record file (`kind:
/// "manifest"`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunManifest {
    /// Name of the algorithm or experiment that ran.
    pub algorithm: String,
    /// The master seed (for batches, the base seed of trial 0).
    pub master_seed: u64,
    /// Channel count `C`.
    pub channels: u32,
    /// The collision-detection mode, in `Debug` form.
    pub cd_mode: String,
    /// The stop condition, in `Debug` form.
    pub stop_when: String,
    /// The configured round cap.
    pub max_rounds: u64,
    /// The fault watchdog budget, if armed.
    pub round_budget: Option<u64>,
    /// The id-space size `n`, when meaningful.
    pub n: Option<u64>,
    /// The number of activated nodes `|A|`, when meaningful.
    pub active: Option<u64>,
    /// Human-readable descriptions of any fault layers in effect.
    pub fault_layers: Vec<String>,
    /// The git revision the binary was built from, when discoverable.
    pub git_rev: Option<String>,
    /// `(crate, version)` pairs of the involved crates.
    pub crates: Vec<(String, String)>,
    /// Free-form extra provenance (`scale`, experiment section, …).
    pub extra: Vec<(String, String)>,
}

impl RunManifest {
    /// Captures `config` under the given algorithm name. The `mac-sim`
    /// crate version is always included; add more with
    /// [`RunManifest::crate_version`].
    #[must_use]
    pub fn new(algorithm: impl Into<String>, config: &SimConfig) -> Self {
        RunManifest {
            algorithm: algorithm.into(),
            master_seed: config.master_seed,
            channels: config.channels,
            cd_mode: format!("{:?}", config.cd_mode),
            stop_when: format!("{:?}", config.stop_when),
            max_rounds: config.max_rounds,
            round_budget: config.round_budget,
            n: None,
            active: None,
            fault_layers: Vec::new(),
            git_rev: None,
            crates: vec![("mac-sim".to_string(), env!("CARGO_PKG_VERSION").to_string())],
            extra: Vec::new(),
        }
    }

    /// Sets the id-space size `n`.
    #[must_use]
    pub fn n(mut self, n: u64) -> Self {
        self.n = Some(n);
        self
    }

    /// Sets the activated-node count `|A|`.
    #[must_use]
    pub fn active(mut self, active: u64) -> Self {
        self.active = Some(active);
        self
    }

    /// Records a fault layer description.
    #[must_use]
    pub fn fault_layer(mut self, description: impl Into<String>) -> Self {
        self.fault_layers.push(description.into());
        self
    }

    /// Records the git revision.
    #[must_use]
    pub fn git_rev(mut self, rev: impl Into<String>) -> Self {
        self.git_rev = Some(rev.into());
        self
    }

    /// Records another crate's version, replacing any earlier entry for
    /// the same crate (so re-recording `mac-sim` cannot produce duplicate
    /// JSON keys).
    #[must_use]
    pub fn crate_version(mut self, name: impl Into<String>, version: impl Into<String>) -> Self {
        let (name, version) = (name.into(), version.into());
        match self.crates.iter_mut().find(|(n, _)| *n == name) {
            Some(entry) => entry.1 = version,
            None => self.crates.push((name, version)),
        }
        self
    }

    /// Attaches a free-form `(key, value)` provenance pair.
    #[must_use]
    pub fn extra(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.extra.push((key.into(), value.into()));
        self
    }

    /// This manifest as a JSON value (`kind: "manifest"`).
    #[must_use]
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version".into(), SCHEMA_VERSION.into()),
            ("kind".into(), "manifest".into()),
            ("algorithm".into(), self.algorithm.as_str().into()),
            ("master_seed".into(), self.master_seed.into()),
            ("channels".into(), self.channels.into()),
            ("cd_mode".into(), self.cd_mode.as_str().into()),
            ("stop_when".into(), self.stop_when.as_str().into()),
            ("max_rounds".into(), self.max_rounds.into()),
            ("round_budget".into(), self.round_budget.into()),
            ("n".into(), self.n.into()),
            ("active".into(), self.active.into()),
            (
                "fault_layers".into(),
                Json::Arr(
                    self.fault_layers
                        .iter()
                        .map(|s| s.as_str().into())
                        .collect(),
                ),
            ),
            ("git_rev".into(), self.git_rev.clone().into()),
            (
                "crates".into(),
                Json::Obj(
                    self.crates
                        .iter()
                        .map(|(name, version)| (name.clone(), version.as_str().into()))
                        .collect(),
                ),
            ),
            (
                "extra".into(),
                Json::Obj(
                    self.extra
                        .iter()
                        .map(|(key, value)| (key.clone(), value.as_str().into()))
                        .collect(),
                ),
            ),
        ])
    }

    /// One JSONL line for this manifest.
    #[must_use]
    pub fn to_jsonl_line(&self) -> String {
        self.to_json().render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::{Action, Feedback};
    use crate::config::StopWhen;
    use crate::engine::Engine;
    use crate::protocol::{Protocol, RoundContext, Status};
    use rand::rngs::SmallRng;

    /// Transmits on channel 3 for `tx_rounds` rounds in phase "early",
    /// then listens on channel 1 for `rx_rounds` in phase "late", then
    /// retires.
    struct TwoPhase {
        acted: u64,
        tx_rounds: u64,
        rx_rounds: u64,
    }

    impl Protocol for TwoPhase {
        type Msg = u8;
        fn act(&mut self, _ctx: &RoundContext, _rng: &mut SmallRng) -> Action<u8> {
            self.acted += 1;
            if self.acted <= self.tx_rounds {
                Action::transmit(ChannelId::new(3), 0)
            } else {
                Action::listen(ChannelId::PRIMARY)
            }
        }
        fn observe(&mut self, _ctx: &RoundContext, _fb: Feedback<u8>, _rng: &mut SmallRng) {}
        fn status(&self) -> Status {
            if self.acted >= self.tx_rounds + self.rx_rounds {
                Status::Inactive
            } else {
                Status::Active
            }
        }
        fn phase(&self) -> &'static str {
            if self.acted < self.tx_rounds {
                "early"
            } else {
                "late"
            }
        }
    }

    fn two_phase(tx_rounds: u64, rx_rounds: u64) -> TwoPhase {
        TwoPhase {
            acted: 0,
            tx_rounds,
            rx_rounds,
        }
    }

    /// A `channels`-channel engine that runs until every node retires,
    /// holding one [`TwoPhase`] node.
    fn engine(channels: u32, tx_rounds: u64, rx_rounds: u64) -> Engine<TwoPhase> {
        let cfg = SimConfig::new(channels)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(10);
        let mut engine = Engine::new(cfg);
        engine.add_node(two_phase(tx_rounds, rx_rounds));
        engine
    }

    fn recorded_run() -> RunRecord {
        let mut recorder = RunRecorder::new();
        engine(4, 3, 2).run_observed(&mut recorder).unwrap();
        recorder.into_record(3)
    }

    #[test]
    fn recorder_builds_contiguous_spans() {
        let record = recorded_run();
        assert_eq!(record.rounds, 5);
        assert_eq!(record.transmissions, 3);
        assert_eq!(record.listens, 2);
        assert_eq!(record.max_node_transmissions, 3);
        // Per-node phase labels are read post-act, so the 3rd transmission
        // already reports "late" (acted == tx_rounds after the bump).
        assert_eq!(record.node_rounds("early"), 2);
        assert_eq!(record.node_rounds("late"), 3);
        assert_eq!(record.phase_tx("early"), 2);
        assert_eq!(record.phase_tx("late"), 1);
        let labels: Vec<&str> = record.spans.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, vec!["early", "late"]);
        assert_eq!(record.spans[0].start_round, 0);
        assert_eq!(record.spans[0].end_round, 1);
        assert_eq!(record.spans[1].start_round, 2);
        assert_eq!(record.spans[1].end_round, 4);
        assert_eq!(record.phase_rounds("late"), 3);
    }

    #[test]
    fn recorder_tallies_channels() {
        let record = recorded_run();
        // Channel 3 carried 3 lone transmissions; channel 1 heard 2
        // silent listens.
        let ch3 = record.channels.iter().find(|t| t.channel == 3).unwrap();
        assert_eq!(ch3.messages, 3);
        assert_eq!(ch3.transmissions, 3);
        let ch1 = record.channels.iter().find(|t| t.channel == 1).unwrap();
        assert_eq!(ch1.silences, 2);
        assert_eq!(ch1.listens, 2);
    }

    #[test]
    fn channels_below_the_highest_active_one_get_zero_rows() {
        let mut sinks = (RunRecorder::new(), TelemetrySink::new());
        engine(4, 2, 0).run_observed(&mut sinks).unwrap();
        let (recorder, mut sink) = sinks;
        let row = |channel, messages| ChannelTally {
            channel,
            messages,
            transmissions: messages,
            ..ChannelTally::default()
        };
        let channels = recorder.into_record(0).channels;
        assert_eq!(channels, [row(1, 0), row(2, 0), row(3, 2)]);
        let mut reg = Registry::new();
        sink.flush_into(&mut reg);
        let channel_keys: Vec<String> = reg
            .counters()
            .into_keys()
            .filter(|name| name.starts_with("engine_channel_outcomes_total"))
            .collect();
        assert_eq!(
            channel_keys,
            ["engine_channel_outcomes_total{channel=\"3\",kind=\"message\"}"]
        );
    }

    #[test]
    fn a_round_that_fails_adds_nothing_to_the_totals() {
        // Node 0 listens in rounds 0 and 1. Node 1 wakes in round 1 and
        // transmits on channel 3 of 2, so round 1 fails after node 0's
        // listen.
        let mut engine = engine(2, 0, 2);
        engine.add_node_at(two_phase(1, 0), 1);
        let mut sinks = (RunRecorder::new(), TelemetrySink::new());
        let err = engine.run_observed(&mut sinks).unwrap_err();
        assert!(matches!(
            err,
            crate::SimError::ChannelOutOfRange { round: 1, .. }
        ));
        let (recorder, mut sink) = sinks;
        let mut reg = Registry::new();
        sink.flush_into(&mut reg);
        let totals = [Counter::EngineRounds, Counter::EngineListens].map(|c| reg.counter(c));
        assert_eq!(totals, [1, 1]);
        let record = recorder.into_record(0);
        assert_eq!((record.rounds, record.listens), (1, 1));
        assert_eq!(record.phase_node_rounds, [("late".to_string(), 1)]);
    }

    #[test]
    fn a_failed_round_latches_and_is_never_run_again() {
        // As above, with node 0 listening in rounds 0 to 2, and the driver
        // stepping on after the error.
        let mut engine = engine(2, 0, 3);
        engine.add_node_at(two_phase(1, 0), 1);
        let mut sinks = (RunRecorder::new(), TelemetrySink::new());
        let err = engine.run_observed(&mut sinks).unwrap_err();
        let metrics = engine.report().metrics;
        for _ in 0..2 {
            assert_eq!(engine.step_observed(&mut sinks), Err(err.clone()));
        }
        assert_eq!(
            engine.report().metrics,
            metrics,
            "the failed round ran again"
        );
        let (recorder, mut sink) = sinks;
        let record = recorder.into_record(0);
        let spans = record.spans.iter().fold((0, 0, 0), |(r, tx, rx), s| {
            (r + s.rounds, tx + s.transmissions, rx + s.listens)
        });
        assert_eq!(spans, (record.rounds, record.transmissions, record.listens));
        assert_eq!(spans, (1, 0, 1));
        let mut reg = Registry::new();
        sink.flush_into(&mut reg);
        assert_eq!(reg.counter(Counter::EngineListens), 1);
    }

    #[test]
    fn a_recorders_tally_fills_no_acts_histogram() {
        let mut sinks = (RunRecorder::new(), TelemetrySink::new());
        engine(4, 3, 2).run_observed(&mut sinks).unwrap();
        let [mut recorded, mut sunk] = [Registry::new(), Registry::new()];
        sinks.0.tally.flush_into(&mut recorded);
        sinks.1.flush_into(&mut sunk);
        assert_eq!(recorded.counter(Counter::EngineRounds), 5);
        assert!(recorded.histograms().is_empty());
        assert_eq!(sunk.histogram(Histogram::EngineRoundActs).count(), 5);
    }

    #[test]
    fn record_roundtrips_through_json() {
        let record = recorded_run();
        let line = record.to_jsonl_line();
        let parsed = RunRecord::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed, record);
        assert!(line.contains(&format!("\"schema_version\":{SCHEMA_VERSION}")));
        assert!(line.contains("\"kind\":\"trial\""));
    }

    #[test]
    fn tree_rendering_mentions_every_span() {
        let record = recorded_run();
        let tree = record.render_tree();
        assert!(tree.contains("early"));
        assert!(tree.contains("late"));
        assert!(tree.contains("run seed=3"));
    }

    #[test]
    fn manifest_serializes_with_provenance() {
        let cfg = SimConfig::new(8).seed(42).round_budget(500);
        let manifest = RunManifest::new("full", &cfg)
            .n(1024)
            .active(40)
            .fault_layer("NoisyCd(p=0.01)")
            .git_rev("abc1234")
            .crate_version("contention", "0.1.0")
            .extra("scale", "quick");
        let line = manifest.to_jsonl_line();
        let v = Json::parse(&line).unwrap();
        assert_eq!(v.get("kind").and_then(Json::as_str), Some("manifest"));
        assert_eq!(v.get("master_seed").and_then(Json::as_u64), Some(42));
        assert_eq!(v.get("round_budget").and_then(Json::as_u64), Some(500));
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(1024));
        assert_eq!(
            v.get("fault_layers")
                .and_then(Json::as_arr)
                .map(<[Json]>::len),
            Some(1)
        );
        assert_eq!(v.get("git_rev").and_then(Json::as_str), Some("abc1234"));
        assert!(v.get("crates").unwrap().get("mac-sim").is_some());
    }

    #[test]
    fn unsolved_record_serializes_nulls() {
        let mut recorder = RunRecorder::new();
        engine(2, 0, 1).run_observed(&mut recorder).unwrap();
        let record = recorder.into_record(0);
        assert_eq!(record.solved_round, None);
        let line = record.to_jsonl_line();
        assert!(line.contains("\"solved_round\":null"));
        let parsed = RunRecord::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed.solved_round, None);
    }
}
