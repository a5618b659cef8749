//! # mac-sim — a multiple-access-channel simulator with collision detection
//!
//! This crate is the substrate on which the algorithms from *Contention
//! Resolution on Multiple Channels with Collision Detection* (Fineman,
//! Newport, Wang; PODC 2016) run. It simulates the paper's model exactly
//! (§3 of the paper):
//!
//! * time proceeds in synchronous rounds;
//! * there are `C ≥ 1` channels, labelled `1..=C`, each behaving like a
//!   standard MAC with **strong collision detection**;
//! * in each round every awake, active node picks one channel and either
//!   *transmits* a message on it or *listens* to it;
//! * on a channel with no transmitter, participants detect **silence**; with
//!   exactly one transmitter, every participant (including the transmitter)
//!   receives the **message**; with two or more, every participant observes a
//!   **collision**;
//! * the *contention resolution* problem is solved in the first round in
//!   which exactly one node transmits on channel 1 (the *primary* channel).
//!
//! The simulator is deterministic: a master seed derives one independent
//! [`rand::rngs::SmallRng`] per node, so every run is exactly reproducible.
//!
//! Weaker feedback models ([`CdMode::ReceiverOnly`], [`CdMode::None`]) are
//! also provided so experiments can demonstrate *why* the paper's strong-CD
//! assumption matters.
//!
//! ## Architecture
//!
//! The simulator is three layers:
//!
//! * **engine** — [`Engine`] runs the per-round hot loop on preallocated
//!   scratch (no steady-state allocation, messages cloned only per actual
//!   receiver);
//! * **feedback** — a pluggable [`FeedbackModel`] decides what each node
//!   hears; [`CdMode`] is the default model, and adversarial radios like
//!   [`fault::JamBudget`] plug in via [`Engine::with_feedback`];
//! * **observation** — [`EventSink`] observers ([`Metrics`], [`Trace`], or
//!   anything user-supplied via [`Engine::run_observed`]) record what
//!   happened; none are required, and [`Engine::run_summary`] skips them
//!   entirely.
//!
//! On top sit two scheduling layers: [`trials`], the per-cell fan-out that
//! runs many seeds of one configuration, and [`campaign`], which schedules
//! *whole sweeps* — every cell of a parameter grid — on one work-stealing
//! worker pool with streaming, deterministically merged aggregation.
//! `trials` is itself a single-cell campaign, so both layers share one
//! scheduler.
//!
//! The engine is deliberately *protocol-agnostic*: it schedules anything
//! implementing [`Protocol`] and never interprets what a node is doing
//! beyond its [`Action`]s and [`Status`]. Structured algorithms — multi-step
//! pipelines, fallback branches, wake-up wrappers — are composed one level
//! up, in the `contention` crate's `phase` module, whose `PhaseProtocol`
//! adapter presents any composed stack to the engine as a plain `Protocol`.
//! The only engine-visible trace of that structure is the
//! [`Protocol::phase`] label, which [`obs::RunRecorder`] turns into
//! per-phase round and transmission counts.
//!
//! The [`fault`] module layers seeded fault injection over any feedback
//! model — noisy collision detection, lossy channels, crash-stop nodes, and
//! budgeted reactive jamming — with [`SimConfig::round_budget`] as the
//! watchdog that turns a fault-wedged run into a structured
//! [`SimError::BudgetExhausted`] instead of a hang.
//!
//! ## Quick example
//!
//! ```
//! use mac_sim::{Action, ChannelId, Engine, Feedback, Protocol, RoundContext,
//!               SimConfig, Status};
//! use rand::rngs::SmallRng;
//!
//! /// A toy protocol: transmit on the primary channel with probability 1/2
//! /// until you hear a lone transmission.
//! struct Half {
//!     status: Status,
//!     sent: bool,
//! }
//!
//! impl Protocol for Half {
//!     type Msg = ();
//!
//!     fn act(&mut self, _ctx: &RoundContext, rng: &mut SmallRng) -> Action<()> {
//!         use rand::Rng;
//!         self.sent = rng.gen_bool(0.5);
//!         if self.sent {
//!             Action::transmit(ChannelId::PRIMARY, ())
//!         } else {
//!             Action::listen(ChannelId::PRIMARY)
//!         }
//!     }
//!
//!     fn observe(&mut self, _ctx: &RoundContext, fb: Feedback<()>, _rng: &mut SmallRng) {
//!         match fb {
//!             Feedback::Message(()) if self.sent => self.status = Status::Leader,
//!             Feedback::Message(()) => self.status = Status::Inactive,
//!             _ => {}
//!         }
//!     }
//!
//!     fn status(&self) -> Status {
//!         self.status
//!     }
//! }
//!
//! # fn main() -> Result<(), mac_sim::SimError> {
//! let config = SimConfig::new(4).seed(7).max_rounds(10_000);
//! let mut engine = Engine::new(config)
//!     .populated((0..2).map(|_| Half { status: Status::Active, sent: false }));
//! let report = engine.run()?;
//! assert!(report.solved_round.is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod action;
pub mod campaign;
mod channel;
mod config;
pub mod dense;
mod engine;
mod error;
pub mod fault;
pub mod feedback;
mod metrics;
pub mod obs;
pub mod population;
mod protocol;
pub mod render;
mod rng;
pub mod sink;
mod trace;
pub mod traffic;
pub mod trials;

pub use action::{Action, Feedback};
pub use campaign::{CampaignOutcome, Quarantined};
pub use channel::{ChannelId, ChannelOutcome, OutcomeKind};
pub use config::{CdMode, SimConfig, StopWhen};
pub use engine::{Engine, NodeId, RunReport, RunSummary, SlotState, StepStatus};
pub use error::SimError;
pub use feedback::{ChannelState, FeedbackModel};
pub use metrics::Metrics;
pub use obs::telemetry::{
    Counter, Gauge, Histogram, MetricsHub, MetricsSnapshot, PowHistogram, Registry, TelemetrySink,
};
pub use population::{Member, SparsePopulation};
pub use protocol::{Protocol, RoundContext, Status};
pub use rng::{derive_fault_seed, derive_node_seed, derive_stream_seed};
pub use sink::EventSink;
pub use trace::{RoundTrace, Trace};
pub use traffic::{
    run_traffic, run_traffic_dense, ArrivalProcess, ArrivalStream, BackoffMac, SlottedAloha,
    StopCause, TrafficReport, TrafficSpec,
};
