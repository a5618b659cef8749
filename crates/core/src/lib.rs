//! # contention — multi-channel contention resolution with collision detection
//!
//! A complete implementation of *Contention Resolution on Multiple Channels
//! with Collision Detection* (Fineman, Newport, Wang; PODC 2016), on top of
//! the [`mac_sim`] channel simulator.
//!
//! The paper's model: `n` possible nodes, an unknown subset activated, and
//! `C ≥ 1` synchronous multiple-access channels with strong collision
//! detection. The problem is solved in the first round in which exactly one
//! node transmits on channel 1.
//!
//! ## What's here
//!
//! * [`TwoActive`] — the optimal `O(log n/log C + log log n)` algorithm for
//!   the restricted two-node case (§4), matching the lower bound of
//!   \[Newport 2014\].
//! * [`Reduce`] — step 1 of the general algorithm: knock the active set
//!   down to `O(log n)` in `O(log log n)` rounds (§5.1, Fig. 2).
//! * [`IdReduction`] — step 2: rename survivors with unique ids from
//!   `[C/2]` in `O(log n / log C)` rounds (§5.2).
//! * [`LeafElection`] — step 3: deterministic leader election through
//!   *coalescing cohorts* that simulate Snir's CREW-PRAM `(p+1)`-ary search
//!   (§5.3, Fig. 3), in `O(log h · log log x)` rounds.
//! * [`FullAlgorithm`] — the composed pipeline of Theorem 4:
//!   `O(log n / log C + (log log n)(log log log n))` rounds w.h.p.
//! * [`phase`] — the composition layer the pipeline is built from: the
//!   [`phase::Phase`] trait with barrier-synchronized
//!   [`and_then`](phase::Phase::and_then) handoff, small-`C`
//!   [`with_fallback`](phase::Phase::with_fallback) routing, and a unified
//!   per-phase [`phase::PhaseStats`] telemetry spine.
//! * [`baselines`] — the prior-art comparators: single-channel collision
//!   detection descent (`O(log n)`), single-channel decay without collision
//!   detection (`O(log² n)`), and a multi-channel no-CD algorithm
//!   (`O(log² n / C + log n)`).
//! * [`supervise`] — restart-with-backoff recovery: wrap any phase stack
//!   in [`supervise::Supervised`] and a wedge under faults (round slice
//!   exhausted, invariant violated) restarts it from clean state on a
//!   fresh derived RNG stream, per a bounded [`supervise::RestartPolicy`].
//! * [`wakeup`] — the §3 transform that lifts any of the above to
//!   non-simultaneous wake-up at a ×2 round cost.
//! * [`session`] — a one-stop facade (`Session::new(c, n).run(k)`) over all
//!   algorithms with feedback-model bookkeeping.
//! * [`serialize`] — repeated contention resolution: deliver *every*
//!   contender's packet, Komlós–Greenberg style, with any embedded
//!   election.
//! * [`extensions`] — the paper's §6 material made executable: the
//!   expected-O(1) regime and population-size estimation.
//! * [`theory`] — the closed-form round budgets and shape curves the
//!   experiments and tests check executions against, computed on the
//!   channel geometry of [`tree`].
//!
//! ## Quickstart
//!
//! ```
//! use contention::{FullAlgorithm, Params};
//! use mac_sim::{Engine, SimConfig};
//!
//! # fn main() -> Result<(), mac_sim::SimError> {
//! let (n, c, active) = (1u64 << 12, 64u32, 500usize);
//! let mut exec = Engine::new(SimConfig::new(c).seed(7))
//!     .populated((0..active).map(|_| FullAlgorithm::new(Params::practical(), c, n)));
//! let report = exec.run()?;
//! println!("solved in {} rounds", report.rounds_to_solve().unwrap());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod extensions;
mod full;
mod id_reduction;
mod leaf_election;
mod params;
pub mod phase;
mod reduce;
pub mod serialize;
pub mod session;
pub mod supervise;
pub mod theory;
pub mod tree;
mod two_active;
pub mod wakeup;

pub use full::{
    supervised_paper_node, FullAlgorithm, FullStats, MakePaperStack, PaperStack,
    SupervisedPaperStack,
};
pub use id_reduction::{IdReduction, IdReductionOutcome, IdReductionStats};
pub use leaf_election::{LeafElection, LeafElectionStats};
pub use params::Params;
pub use phase::{Phase, PhaseOutcome, PhaseProtocol, PhaseStats, PhaseTelemetry};
pub use reduce::{Reduce, ReduceOutcome};
pub use supervise::{RestartPolicy, Supervised};
pub use two_active::{TwoActive, TwoActiveStats};
