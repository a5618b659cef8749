//! A one-stop facade: pick an algorithm, describe the network, run.
//!
//! The lower-level API (construct protocols, add them to a
//! [`mac_sim::Engine`]) gives full control; [`Session`] wraps the common
//! case — *"solve contention resolution among `k` activated nodes out of
//! `n`, on `C` channels, with algorithm X"* — including the feedback-model
//! bookkeeping (no-collision-detection algorithms are automatically run
//! under [`CdMode::None`]).

use mac_sim::{
    CdMode, Counter, Engine, EventSink, Histogram, Registry, RunReport, SimConfig, SimError,
    StopWhen,
};
use std::error::Error;
use std::fmt;

use crate::baselines::{BinaryDescent, CdTournament, Decay, MultiChannelNoCd, TreeSplit, Willard};
use crate::extensions::ExpectedConstant;
use crate::full::{supervised_paper_node, FullAlgorithm};
use crate::params::Params;
use crate::phase::{PhaseProtocol, PhaseStats, PhaseTelemetry};
use crate::supervise::{RestartPolicy, RESTART_MARKER};
use crate::two_active::TwoActive;

/// Which contention-resolution algorithm a [`Session`] runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Algorithm {
    /// The paper's general pipeline (Theorem 4) with the given constants.
    Paper(Params),
    /// The paper pipeline under restart-with-backoff supervision (see
    /// [`crate::supervise`]): wedges under faults restart the stack
    /// instead of burning the whole round budget.
    SupervisedPaper(Params, RestartPolicy),
    /// The paper's two-node specialist (§4); requires exactly two actives.
    TwoActive,
    /// Single-channel coin-flip knock-out, `O(log n)` w.h.p., no ids.
    CdTournament,
    /// Deterministic binary descent over ids, `O(log n)` worst case.
    BinaryDescent,
    /// Capetanakis tree splitting over ids: first slot in `O(log n)`,
    /// all contenders served if run to completion.
    TreeSplit,
    /// Decay cycle without collision detection, `O(log² n)` w.h.p.
    Decay,
    /// Multi-channel no-CD baseline, `O(log² n / C + log n)` shape.
    MultiChannelNoCd,
    /// Expected-`O(1)` with `≈ lg n` channels (§6 extension).
    ExpectedConstant,
    /// Willard's expected-`O(log log n)` single-channel classic (ref \[5\]).
    Willard,
}

impl Algorithm {
    /// Short display name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Paper(_) => "paper-pipeline",
            Algorithm::SupervisedPaper(..) => "supervised-paper",
            Algorithm::TwoActive => "two-active",
            Algorithm::CdTournament => "cd-tournament",
            Algorithm::BinaryDescent => "binary-descent",
            Algorithm::TreeSplit => "tree-split",
            Algorithm::Decay => "decay",
            Algorithm::MultiChannelNoCd => "multichannel-no-cd",
            Algorithm::ExpectedConstant => "expected-constant",
            Algorithm::Willard => "willard",
        }
    }

    /// The feedback model the algorithm is designed for — sessions run
    /// under exactly this model so comparisons are honest.
    #[must_use]
    pub fn cd_mode(self) -> CdMode {
        match self {
            Algorithm::Decay | Algorithm::MultiChannelNoCd => CdMode::None,
            _ => CdMode::Strong,
        }
    }

    /// Minimum channel count the algorithm requires.
    #[must_use]
    pub fn min_channels(self) -> u32 {
        match self {
            Algorithm::TwoActive | Algorithm::ExpectedConstant => 2,
            _ => 1,
        }
    }
}

/// Errors from [`Session::run`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SessionError {
    /// The configuration cannot host the chosen algorithm.
    InvalidConfig(String),
    /// The underlying simulation failed.
    Sim(SimError),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SessionError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl Error for SessionError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SessionError::Sim(e) => Some(e),
            SessionError::InvalidConfig(_) => None,
        }
    }
}

impl From<SimError> for SessionError {
    fn from(value: SimError) -> Self {
        SessionError::Sim(value)
    }
}

/// The outcome of a resolved session.
#[derive(Debug, Clone)]
pub struct Resolution {
    /// The algorithm that ran.
    pub algorithm: &'static str,
    /// The full simulator report (solve round, leaders, metrics).
    pub report: RunReport,
    /// The solving node's per-phase telemetry spine (see
    /// [`PhaseTelemetry`]): one [`PhaseStats`] record per phase the node
    /// passed through, in execution order. Empty when the run timed out.
    pub solver_phases: Vec<PhaseStats>,
}

impl Resolution {
    /// Rounds until the problem was solved.
    #[must_use]
    pub fn rounds(&self) -> Option<u64> {
        self.report.rounds_to_solve()
    }

    /// Rounds the solving node spent in the named phase (0 if it never
    /// entered it).
    #[must_use]
    pub fn phase_rounds(&self, name: &str) -> u64 {
        self.solver_phases
            .iter()
            .filter(|r| r.name == name)
            .map(|r| r.rounds)
            .sum()
    }

    /// Supervised restarts the solving node performed, counted from the
    /// [`RESTART_MARKER`] records in its spine. Always 0 for unsupervised
    /// algorithms.
    #[must_use]
    pub fn restarts(&self) -> u64 {
        self.solver_phases
            .iter()
            .filter(|r| r.name == RESTART_MARKER)
            .count() as u64
    }

    /// Rounds the solving node burned in abandoned supervised attempts
    /// (the sum of the restart markers' round counts).
    #[must_use]
    pub fn restart_rounds(&self) -> u64 {
        self.phase_rounds(RESTART_MARKER)
    }

    /// Tallies this resolution into a telemetry [`Registry`] (the
    /// `session_*` / `supervised_*` metric families; see
    /// `docs/OBSERVABILITY.md`). Purely observational — reads the
    /// already-finished report and spine, so calling it can never perturb
    /// a run.
    pub fn record_telemetry(&self, reg: &mut Registry) {
        reg.count(Counter::SessionRuns, 1);
        reg.count(Counter::SessionRounds, self.report.rounds_executed);
        reg.count(
            Counter::SessionTransmissions,
            self.report.metrics.transmissions,
        );
        if let Some(rounds) = self.rounds() {
            reg.count(Counter::SessionSolved, 1);
            reg.observe(Histogram::SessionSolveRounds, rounds);
        }
        reg.count(Counter::SupervisedRestarts, self.restarts());
        reg.count(Counter::SupervisedRestartRounds, self.restart_rounds());
    }
}

/// Builder-style session configuration.
///
/// ```
/// use contention::session::{Algorithm, Session};
/// use contention::Params;
///
/// # fn main() -> Result<(), contention::session::SessionError> {
/// let resolution = Session::new(64, 1 << 12)
///     .algorithm(Algorithm::Paper(Params::practical()))
///     .seed(7)
///     .run(500)?;
/// assert!(resolution.rounds().is_some());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Session {
    channels: u32,
    n: u64,
    algorithm: Algorithm,
    seed: u64,
    max_rounds: u64,
    run_to_completion: bool,
}

impl Session {
    /// Creates a session on `channels` channels with universe size `n`,
    /// defaulting to the paper's pipeline with practical constants.
    ///
    /// # Panics
    ///
    /// Panics if `channels == 0` or `n < 2`.
    #[must_use]
    pub fn new(channels: u32, n: u64) -> Self {
        assert!(channels >= 1, "the model requires C >= 1");
        assert!(n >= 2, "the model requires n >= 2");
        Session {
            channels,
            n,
            algorithm: Algorithm::Paper(Params::practical()),
            seed: 0,
            max_rounds: 10_000_000,
            run_to_completion: false,
        }
    }

    /// Selects the algorithm.
    #[must_use]
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the master seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Sets the round cap.
    #[must_use]
    pub fn max_rounds(mut self, max_rounds: u64) -> Self {
        self.max_rounds = max_rounds;
        self
    }

    /// Runs until every node terminates instead of stopping at the first
    /// solving transmission.
    #[must_use]
    pub fn run_to_completion(mut self, yes: bool) -> Self {
        self.run_to_completion = yes;
        self
    }

    /// Builds one protocol instance for the node with namespace identity
    /// `id` (only the id-keyed algorithms read it). Every algorithm is
    /// boxed as [`PhaseTelemetry`] so the session can read the solver's
    /// phase spine back out of the engine after the run. Single-phase
    /// algorithms go through [`PhaseProtocol`] so their round/transmission
    /// meters tick; `FullAlgorithm` already runs on its own phase stack.
    fn make_node(&self, id: u64) -> Box<dyn PhaseTelemetry> {
        match self.algorithm {
            Algorithm::Paper(params) => Box::new(FullAlgorithm::new(params, self.channels, self.n)),
            Algorithm::SupervisedPaper(params, policy) => {
                Box::new(supervised_paper_node(params, self.channels, self.n, policy))
            }
            Algorithm::TwoActive => {
                Box::new(PhaseProtocol::new(TwoActive::new(self.channels, self.n)))
            }
            Algorithm::CdTournament => Box::new(PhaseProtocol::new(CdTournament::new())),
            Algorithm::BinaryDescent => Box::new(PhaseProtocol::new(BinaryDescent::new(
                id.min(self.n - 1),
                self.n,
            ))),
            Algorithm::TreeSplit => Box::new(PhaseProtocol::new(TreeSplit::new(
                id.min(self.n - 1),
                self.n,
            ))),
            Algorithm::Decay => Box::new(PhaseProtocol::new(Decay::new(self.n))),
            Algorithm::MultiChannelNoCd => Box::new(PhaseProtocol::new(MultiChannelNoCd::new(
                self.channels,
                self.n,
            ))),
            Algorithm::ExpectedConstant => Box::new(PhaseProtocol::new(ExpectedConstant::new(
                self.channels,
                self.n,
            ))),
            Algorithm::Willard => Box::new(PhaseProtocol::new(Willard::new(self.n))),
        }
    }

    /// Activates `active` nodes and runs the session.
    ///
    /// # Errors
    ///
    /// [`SessionError::InvalidConfig`] when the algorithm cannot run at this
    /// configuration (too few channels, wrong active count for the
    /// specialist, `active > n`);
    /// [`SessionError::Sim`] when the simulation itself fails (timeout).
    pub fn run(&self, active: usize) -> Result<Resolution, SessionError> {
        self.run_observed(active, &mut ())
    }

    /// Like [`Session::run`], but streams the engine's events into `sink`
    /// — attach a [`mac_sim::Trace`] to record every round's channel
    /// outcomes.
    ///
    /// # Errors
    ///
    /// Same as [`Session::run`].
    pub fn run_observed(
        &self,
        active: usize,
        sink: &mut impl EventSink,
    ) -> Result<Resolution, SessionError> {
        if active == 0 {
            return Err(SessionError::InvalidConfig("no nodes activated".into()));
        }
        if active as u64 > self.n {
            return Err(SessionError::InvalidConfig(format!(
                "cannot activate {active} of {} possible nodes",
                self.n
            )));
        }
        self.check_algorithm(active)?;
        let cfg = SimConfig::new(self.channels)
            .seed(self.seed)
            .cd_mode(self.algorithm.cd_mode())
            .max_rounds(self.max_rounds)
            .stop_when(if self.run_to_completion {
                StopWhen::AllTerminated
            } else {
                StopWhen::Solved
            });
        // Spread ids evenly across the universe, deterministically — a
        // session has no real identities to hand out.
        let stride = (self.n / active as u64).max(1);
        let mut exec =
            Engine::new(cfg).populated((0..active as u64).map(|idx| self.make_node(idx * stride)));
        let report = exec.run_observed(sink)?;
        let solver_phases = report
            .solver
            .map(|id| exec.node(id).phase_stats())
            .unwrap_or_default();
        Ok(Resolution {
            algorithm: self.algorithm.name(),
            report,
            solver_phases,
        })
    }

    /// Rejects an algorithm that cannot run on this many channels or with
    /// `active` nodes.
    fn check_algorithm(&self, active: usize) -> Result<(), SessionError> {
        if self.channels < self.algorithm.min_channels() {
            return Err(SessionError::InvalidConfig(format!(
                "{} needs at least {} channels, got {}",
                self.algorithm.name(),
                self.algorithm.min_channels(),
                self.channels
            )));
        }
        if self.algorithm == Algorithm::TwoActive && active != 2 {
            return Err(SessionError::InvalidConfig(format!(
                "two-active solves the |A| = 2 restricted case, got {active}"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_algorithm_resolves_through_the_facade() {
        let algos = [
            Algorithm::Paper(Params::practical()),
            Algorithm::SupervisedPaper(Params::practical(), RestartPolicy::new(5_000, 3)),
            Algorithm::CdTournament,
            Algorithm::BinaryDescent,
            Algorithm::TreeSplit,
            Algorithm::Willard,
            Algorithm::Decay,
            Algorithm::MultiChannelNoCd,
            Algorithm::ExpectedConstant,
        ];
        for algo in algos {
            let res = Session::new(32, 1 << 10)
                .algorithm(algo)
                .seed(5)
                .run(100)
                .unwrap_or_else(|e| panic!("{}: {e}", algo.name()));
            assert!(res.rounds().is_some(), "{}", algo.name());
            assert_eq!(res.algorithm, algo.name());
        }
    }

    #[test]
    fn two_active_requires_exactly_two() {
        let session = Session::new(32, 1 << 10).algorithm(Algorithm::TwoActive);
        assert!(matches!(
            session.run(3),
            Err(SessionError::InvalidConfig(_))
        ));
        assert!(session.run(2).is_ok());
    }

    #[test]
    fn activation_cannot_exceed_universe() {
        let err = Session::new(8, 16).run(17).unwrap_err();
        assert!(matches!(err, SessionError::InvalidConfig(_)));
        assert!(err.to_string().contains("17"));
    }

    #[test]
    fn zero_active_is_rejected() {
        assert!(Session::new(8, 16).run(0).is_err());
    }

    #[test]
    fn channel_minimums_are_enforced() {
        let err = Session::new(1, 1 << 10)
            .algorithm(Algorithm::ExpectedConstant)
            .run(10)
            .unwrap_err();
        assert!(err.to_string().contains("channels"));
    }

    #[test]
    fn completion_mode_reports_leaders() {
        let res = Session::new(32, 1 << 10)
            .seed(9)
            .run_to_completion(true)
            .run(50)
            .expect("completes");
        assert!(res.report.leaders.len() <= 1);
        assert!(res.report.active_remaining.is_empty());
    }

    #[test]
    fn attached_trace_records_every_round() {
        let session = Session::new(8, 1 << 8).seed(1);
        let mut trace = mac_sim::Trace::new();
        let res = session.run_observed(10, &mut trace).expect("solves");
        assert_eq!(trace.len() as u64, res.report.rounds_executed);
        let rounds: Vec<u64> = trace.rounds().iter().map(|rt| rt.round).collect();
        assert_eq!(rounds, (0..res.report.rounds_executed).collect::<Vec<_>>());
        // Observing changes nothing about the run itself.
        assert_eq!(session.run(10).expect("solves").rounds(), res.rounds());
    }

    #[test]
    fn no_cd_algorithms_run_under_none_mode() {
        assert_eq!(Algorithm::Decay.cd_mode(), CdMode::None);
        assert_eq!(Algorithm::MultiChannelNoCd.cd_mode(), CdMode::None);
        assert_eq!(
            Algorithm::Paper(Params::practical()).cd_mode(),
            CdMode::Strong
        );
    }

    #[test]
    fn solver_phase_spine_is_exposed() {
        let res = Session::new(64, 1 << 12).seed(2).run(200).expect("solves");
        assert!(!res.solver_phases.is_empty());
        assert_eq!(res.solver_phases[0].name, "reduce");
        // The solver acted in every round up to the solving one, so its
        // spine accounts for the whole run.
        let spine_total: u64 = res.solver_phases.iter().map(|r| r.rounds).sum();
        assert_eq!(Some(spine_total), res.rounds());
        assert_eq!(res.phase_rounds("reduce"), res.solver_phases[0].rounds);
        assert_eq!(res.phase_rounds("no-such-phase"), 0);
    }

    #[test]
    fn baseline_spines_carry_their_own_label() {
        let res = Session::new(32, 1 << 10)
            .algorithm(Algorithm::CdTournament)
            .seed(4)
            .run(60)
            .expect("solves");
        assert_eq!(res.solver_phases.len(), 1);
        assert_eq!(res.solver_phases[0].name, "cd-tournament");
        assert!(res.phase_rounds("cd-tournament") > 0);
    }

    #[test]
    fn supervised_session_reports_zero_restarts_fault_free() {
        let res = Session::new(64, 1 << 12)
            .algorithm(Algorithm::SupervisedPaper(
                Params::practical(),
                RestartPolicy::new(5_000, 3),
            ))
            .seed(2)
            .run(200)
            .expect("solves");
        assert!(res.rounds().is_some());
        assert_eq!(res.algorithm, "supervised-paper");
        assert_eq!(res.restarts(), 0);
        assert_eq!(res.restart_rounds(), 0);
        assert!(!res.solver_phases.is_empty());
    }

    #[test]
    fn resolution_tallies_into_a_registry() {
        let res = Session::new(64, 1 << 12).seed(2).run(200).expect("solves");
        let mut reg = Registry::new();
        res.record_telemetry(&mut reg);
        assert_eq!(reg.counter(Counter::SessionRuns), 1);
        assert_eq!(reg.counter(Counter::SessionSolved), 1);
        assert_eq!(
            reg.counter(Counter::SessionRounds),
            res.report.rounds_executed
        );
        assert_eq!(reg.counter(Counter::SupervisedRestarts), 0);
        let solve = reg.histogram(Histogram::SessionSolveRounds);
        assert_eq!(solve.count(), 1);
        assert_eq!(solve.sum(), res.rounds().unwrap());
    }

    #[test]
    fn session_error_displays() {
        let e = SessionError::InvalidConfig("boom".into());
        assert!(e.to_string().contains("boom"));
        let e = SessionError::from(SimError::NoNodes);
        assert!(e.to_string().contains("simulation failed"));
    }
}
