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
pub use telemetry::{MetricsHub, MetricsSnapshot, PowHistogram, Registry, TelemetrySink};

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::channel::{ChannelId, ChannelOutcome, OutcomeKind};
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
/// counted (an idle channel generates no outcome).
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
    /// simultaneously.
    pub phase_node_rounds: Vec<(String, u64)>,
    /// Transmissions per phase label, attributed per acting node.
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
    last_round: u64,
    opened: Instant,
}

/// Per-round scratch: activity per phase label this round.
#[derive(Debug, Default)]
struct RoundActs {
    /// `(label, transmissions, listens)`; a handful of entries at most.
    by_label: Vec<(&'static str, u64, u64)>,
}

impl RoundActs {
    fn bump(&mut self, label: &'static str, tx: u64, rx: u64) {
        if let Some(entry) = self.by_label.iter_mut().find(|(l, _, _)| *l == label) {
            entry.1 += tx;
            entry.2 += rx;
        } else {
            self.by_label.push((label, tx, rx));
        }
    }
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
    round_acts: RoundActs,
    open: Vec<OpenSpan>,
    closed: Vec<PhaseSpan>,
    node_tx: Vec<u64>,
    channels: Vec<ChannelTally>,
    phase_node_rounds: BTreeMap<&'static str, u64>,
    phase_transmissions: BTreeMap<&'static str, u64>,
    transmissions: u64,
    listens: u64,
    rounds: u64,
    solved_round: Option<u64>,
    solver: Option<u64>,
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
            round_acts: RoundActs::default(),
            open: Vec::new(),
            closed: Vec::new(),
            node_tx: Vec::new(),
            channels: Vec::new(),
            phase_node_rounds: BTreeMap::new(),
            phase_transmissions: BTreeMap::new(),
            transmissions: 0,
            listens: 0,
            rounds: 0,
            solved_round: None,
            solver: None,
            wall_ns: None,
        }
    }

    fn bump_node(&mut self, node: usize) {
        if self.node_tx.len() <= node {
            self.node_tx.resize(node + 1, 0);
        }
        self.node_tx[node] += 1;
    }

    fn channel_tally(&mut self, channel: u32) -> &mut ChannelTally {
        let idx = channel.saturating_sub(1) as usize;
        if self.channels.len() <= idx {
            self.channels.resize_with(idx + 1, ChannelTally::default);
            for (i, t) in self.channels.iter_mut().enumerate() {
                if t.channel == 0 {
                    t.channel = i as u32 + 1;
                }
            }
        }
        &mut self.channels[idx]
    }

    fn close_stale_spans(&mut self, round: u64) {
        let mut i = 0;
        while i < self.open.len() {
            if self.open[i].last_round < round {
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
        // Channels that never carried activity keep all-zero tallies but
        // only exist up to the highest channel that did; drop trailing
        // zero-channel placeholders that were never initialized.
        let channels = self
            .channels
            .into_iter()
            .filter(|t| t.channel != 0)
            .collect();
        RunRecord {
            seed,
            solved_round: self.solved_round,
            solver: self.solver,
            rounds: self.rounds,
            transmissions: self.transmissions,
            listens: self.listens,
            max_node_transmissions: self.node_tx.iter().copied().max().unwrap_or(0),
            wall_ns,
            spans,
            channels,
            phase_node_rounds: self
                .phase_node_rounds
                .into_iter()
                .map(|(l, v)| (l.to_string(), v))
                .collect(),
            phase_transmissions: self
                .phase_transmissions
                .into_iter()
                .map(|(l, v)| (l.to_string(), v))
                .collect(),
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
        self.transmissions += 1;
        self.bump_node(node.0);
        self.round_acts.bump(phase, 1, 0);
        *self.phase_node_rounds.entry(phase).or_insert(0) += 1;
        *self.phase_transmissions.entry(phase).or_insert(0) += 1;
    }

    fn on_listen(&mut self, _round: u64, _node: NodeId, _channel: ChannelId, phase: &'static str) {
        self.listens += 1;
        self.round_acts.bump(phase, 0, 1);
        *self.phase_node_rounds.entry(phase).or_insert(0) += 1;
    }

    fn on_solved(&mut self, round: u64, solver: NodeId) {
        self.solved_round = Some(round);
        self.solver = Some(solver.0 as u64);
    }

    fn on_round(&mut self, round: u64, phase: &'static str, outcomes: &[ChannelOutcome]) {
        self.rounds += 1;
        // A round with no acting node at all (everyone asleep or
        // terminated) is attributed to the engine's representative label,
        // typically "idle".
        if self.round_acts.by_label.is_empty() {
            self.round_acts.by_label.push((phase, 0, 0));
        }
        let acts = std::mem::take(&mut self.round_acts.by_label);
        for &(label, tx, rx) in &acts {
            // `last_round + 1 == round` never matches in round 0, so the
            // very first round always opens fresh spans.
            match self
                .open
                .iter_mut()
                .find(|o| o.span.label == label && o.last_round + 1 == round)
            {
                Some(open) => {
                    open.span.end_round = round;
                    open.span.rounds += 1;
                    open.span.transmissions += tx;
                    open.span.listens += rx;
                    open.last_round = round;
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
                        last_round: round,
                        opened: Instant::now(),
                    });
                }
            }
        }
        self.round_acts.by_label = acts;
        self.round_acts.by_label.clear();
        self.close_stale_spans(round);
        for outcome in outcomes {
            let tally = self.channel_tally(outcome.channel.get());
            match outcome.kind {
                OutcomeKind::Silence => tally.silences += 1,
                OutcomeKind::Message => tally.messages += 1,
                OutcomeKind::Collision => tally.collisions += 1,
            }
            tally.transmissions += outcome.transmitters as u64;
            tally.listens += outcome.listeners as u64;
        }
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

    /// Transmits for `tx_rounds` rounds in phase "early", then listens for
    /// `rx_rounds` in phase "late", then retires.
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
                Action::transmit(ChannelId::new(2), 0)
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

    fn recorded_run() -> RunRecord {
        let cfg = SimConfig::new(4)
            .seed(3)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(100);
        let mut engine = Engine::new(cfg);
        engine.add_node(TwoPhase {
            acted: 0,
            tx_rounds: 3,
            rx_rounds: 2,
        });
        let mut recorder = RunRecorder::new();
        engine.run_observed(&mut recorder).unwrap();
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
        // Channel 2 carried 3 lone transmissions; channel 1 heard 2
        // silent listens.
        let ch2 = record.channels.iter().find(|t| t.channel == 2).unwrap();
        assert_eq!(ch2.messages, 3);
        assert_eq!(ch2.transmissions, 3);
        let ch1 = record.channels.iter().find(|t| t.channel == 1).unwrap();
        assert_eq!(ch1.silences, 2);
        assert_eq!(ch1.listens, 2);
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
        let cfg = SimConfig::new(2)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(10);
        let mut engine = Engine::new(cfg);
        engine.add_node(TwoPhase {
            acted: 0,
            tx_rounds: 0,
            rx_rounds: 1,
        });
        let mut recorder = RunRecorder::new();
        engine.run_observed(&mut recorder).unwrap();
        let record = recorder.into_record(0);
        assert_eq!(record.solved_round, None);
        let line = record.to_jsonl_line();
        assert!(line.contains("\"solved_round\":null"));
        let parsed = RunRecord::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(parsed.solved_round, None);
    }
}
