//! Cohorts as a computing platform — the paper's §6 conjecture, made real.
//!
//! > "We conjecture that this strategy can be combined with a variety of
//! > well-known parallel algorithms to speed up computation in our
//! > distributed model. Even without parallel algorithm simulation,
//! > however, the structure provided by these cohorts still provides a
//! > powerful algorithmic tool…" (§1, Impact; §6)
//!
//! A cohort — `p` nodes with distinct ids from `[p]` and a commonly known
//! channel range — is exactly a CREW PRAM work group: ids are processor
//! ranks and channels are memory cells with broadcast reads. This module
//! simulates the binary-tournament fold (the `crew-pram` crate's
//! [`crew_pram::max::tournament_max`] program) over channels: a cohort
//! aggregates one value per member (max, min, sum, or count) in
//! `⌈lg p⌉ + 1` rounds, ending with every member knowing the result.
//!
//! Round `k` pairs member `i` (1-based, `i ≡ 1 mod 2^{k+1}`) with member
//! `i + 2^k`: the partner transmits its running value on a pair-indexed
//! channel and the anchor folds it in. A final round has member 1 broadcast
//! the aggregate to the whole cohort.

use mac_sim::{Action, ChannelId, Feedback, Protocol, RoundContext, Status};
use rand::rngs::SmallRng;

/// The aggregation operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggregateOp {
    /// Maximum of the members' values.
    Max,
    /// Minimum of the members' values.
    Min,
    /// Sum of the members' values.
    Sum,
    /// Number of members (each contributes 1, values ignored).
    Count,
}

impl AggregateOp {
    fn fold(self, a: i64, b: i64) -> i64 {
        match self {
            AggregateOp::Max => a.max(b),
            AggregateOp::Min => a.min(b),
            AggregateOp::Sum | AggregateOp::Count => a + b,
        }
    }

    fn seed(self, value: i64) -> i64 {
        match self {
            AggregateOp::Count => 1,
            _ => value,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    /// Tournament step `k`.
    Fold { k: u32 },
    /// Member 1 announces the aggregate.
    Announce,
    /// Finished; `result` is available.
    Done,
}

/// A cohort member participating in one aggregation.
///
/// All members must be constructed with the same `(base_channel, p, op)`
/// and distinct `c_id`s covering `1..=p` — exactly the state a
/// [`crate::LeafElection`] cohort ends with (use the cohort node's subtree
/// channels, or any agreed range, as the base).
///
/// ```
/// use contention::cohort_compute::{AggregateOp, CohortAggregate};
/// use mac_sim::{ChannelId, Engine, SimConfig, StopWhen};
///
/// # fn main() -> Result<(), mac_sim::SimError> {
/// let values = [13i64, -4, 99, 7, 22];
/// let p = values.len() as u32;
/// let cfg = SimConfig::new(16).stop_when(StopWhen::AllTerminated);
/// let mut exec = Engine::new(cfg).populated(values.iter().enumerate().map(|(i, &v)| {
///     CohortAggregate::new(ChannelId::new(2), p, i as u32 + 1, v, AggregateOp::Max)
/// }));
/// exec.run()?;
/// for node in exec.iter_nodes() {
///     assert_eq!(node.result(), Some(99));
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CohortAggregate {
    base: ChannelId,
    p: u32,
    c_id: u32,
    op: AggregateOp,
    acc: i64,
    stage: Stage,
    result: Option<i64>,
    rounds: u64,
}

impl CohortAggregate {
    /// Creates a member with cohort id `c_id` (1-based) of a `p`-member
    /// cohort contributing `value`, using channels
    /// `base..base+⌈p/2⌉` for pair exchanges and announcements.
    ///
    /// # Panics
    ///
    /// Panics if `p == 0` or `c_id` is outside `1..=p`.
    #[must_use]
    pub fn new(base: ChannelId, p: u32, c_id: u32, value: i64, op: AggregateOp) -> Self {
        assert!(p >= 1, "cohort must have at least one member");
        assert!((1..=p).contains(&c_id), "cohort id {c_id} outside 1..={p}");
        CohortAggregate {
            base,
            p,
            c_id,
            op,
            acc: op.seed(value),
            stage: if p == 1 {
                Stage::Announce
            } else {
                Stage::Fold { k: 0 }
            },
            result: None,
            rounds: 0,
        }
    }

    /// The aggregate, once the protocol finished.
    #[must_use]
    pub fn result(&self) -> Option<i64> {
        self.result
    }

    /// Rounds this member participated in (`⌈lg p⌉ + 1`).
    #[must_use]
    pub fn rounds_run(&self) -> u64 {
        self.rounds
    }

    /// In fold step `k`: `Some((pair_channel, is_sender))` if this member
    /// participates, `None` if it idles.
    fn fold_role(&self, k: u32) -> Option<(ChannelId, bool)> {
        let stride = 1u64 << k;
        let span = stride * 2;
        let idx = u64::from(self.c_id - 1);
        let (anchor, offset) = (idx / span * span, idx % span);
        let pair_channel = ChannelId::new(self.base.get() + (idx / span) as u32);
        if offset == 0 {
            // Anchor: listens if a partner exists.
            let partner = anchor + stride;
            (partner < u64::from(self.p)).then_some((pair_channel, false))
        } else if offset == stride {
            Some((pair_channel, true))
        } else {
            None
        }
    }
}

impl Protocol for CohortAggregate {
    type Msg = i64;

    fn act(&mut self, _ctx: &RoundContext, _rng: &mut SmallRng) -> Action<i64> {
        self.rounds += 1;
        match self.stage {
            Stage::Fold { k } => match self.fold_role(k) {
                Some((channel, true)) => Action::transmit(channel, self.acc),
                Some((channel, false)) => Action::listen(channel),
                None => Action::Sleep,
            },
            Stage::Announce => {
                if self.c_id == 1 {
                    Action::transmit(self.base, self.acc)
                } else {
                    Action::listen(self.base)
                }
            }
            Stage::Done => Action::Sleep,
        }
    }

    fn observe(&mut self, _ctx: &RoundContext, feedback: Feedback<i64>, _rng: &mut SmallRng) {
        match self.stage {
            Stage::Fold { k } => {
                if let Some((_, is_sender)) = self.fold_role(k) {
                    if !is_sender {
                        match feedback.message() {
                            Some(&v) => self.acc = self.op.fold(self.acc, v),
                            None => debug_assert!(false, "anchor heard {feedback:?}"),
                        }
                    } else {
                        // Senders have delivered their contribution and only
                        // relay from here on; they wait for the announcement.
                    }
                }
                let next_k = k + 1;
                self.stage = if 1u64 << next_k >= u64::from(self.p) {
                    Stage::Announce
                } else {
                    Stage::Fold { k: next_k }
                };
            }
            Stage::Announce => {
                if self.c_id == 1 {
                    self.result = Some(self.acc);
                } else {
                    match feedback.message() {
                        Some(&v) => self.result = Some(v),
                        None => debug_assert!(false, "member heard {feedback:?} in announce"),
                    }
                }
                self.stage = Stage::Done;
            }
            Stage::Done => {}
        }
    }

    fn status(&self) -> Status {
        if self.result.is_some() {
            // Aggregation is a service computation, not a leader election:
            // everyone retires as a non-leader when done.
            Status::Inactive
        } else {
            Status::Active
        }
    }

    fn phase(&self) -> &'static str {
        match self.stage {
            Stage::Fold { .. } => "cohort-fold",
            Stage::Announce => "cohort-announce",
            Stage::Done => "done",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mac_sim::{Engine, SimConfig, StopWhen};

    fn run(values: &[i64], op: AggregateOp) -> (Vec<Option<i64>>, u64) {
        let p = values.len() as u32;
        let cfg = SimConfig::new(64)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(1000);
        let mut exec = Engine::new(cfg).populated(
            values
                .iter()
                .enumerate()
                .map(|(i, &v)| CohortAggregate::new(ChannelId::new(2), p, i as u32 + 1, v, op)),
        );
        let report = exec.run().expect("aggregates");
        let results = exec.iter_nodes().map(CohortAggregate::result).collect();
        (results, report.rounds_executed)
    }

    #[test]
    fn max_agrees_with_pram_tournament_for_all_sizes() {
        for p in 1..=33usize {
            let values: Vec<i64> = (0..p as i64).map(|i| (i * 31) % 67 - 20).collect();
            let (results, rounds) = run(&values, AggregateOp::Max);
            let pram = crew_pram::max::tournament_max(&values).expect("pram runs");
            for r in &results {
                assert_eq!(*r, Some(pram.max), "p={p}");
            }
            // lg p fold rounds + 1 announce round.
            let budget = (p as f64).log2().ceil() as u64 + 1;
            assert!(rounds <= budget, "p={p}: {rounds} > {budget}");
        }
    }

    #[test]
    fn sum_and_count_and_min() {
        let values = [5i64, -3, 10, 2, 2, 7];
        let (results, _) = run(&values, AggregateOp::Sum);
        assert!(results.iter().all(|r| *r == Some(23)));
        let (results, _) = run(&values, AggregateOp::Count);
        assert!(results.iter().all(|r| *r == Some(6)));
        let (results, _) = run(&values, AggregateOp::Min);
        assert!(results.iter().all(|r| *r == Some(-3)));
    }

    #[test]
    fn singleton_cohort_is_one_round() {
        let (results, rounds) = run(&[42], AggregateOp::Max);
        assert_eq!(results, vec![Some(42)]);
        assert_eq!(rounds, 1);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn rejects_bad_cohort_id() {
        let _ = CohortAggregate::new(ChannelId::new(2), 4, 5, 0, AggregateOp::Max);
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn rejects_empty_cohort() {
        let _ = CohortAggregate::new(ChannelId::new(2), 0, 1, 0, AggregateOp::Max);
    }

    #[test]
    fn two_cohorts_on_disjoint_bases_do_not_interfere() {
        let cfg = SimConfig::new(64)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(1000);
        let cohort = |base: u32, values: &'static [i64]| {
            values.iter().enumerate().map(move |(i, &v)| {
                let size = values.len() as u32;
                CohortAggregate::new(
                    ChannelId::new(base),
                    size,
                    i as u32 + 1,
                    v,
                    AggregateOp::Max,
                )
            })
        };
        let mut exec =
            Engine::new(cfg).populated(cohort(2, &[1, 9, 4]).chain(cohort(30, &[100, 50])));
        exec.run().expect("aggregates");
        let results: Vec<Option<i64>> = exec.iter_nodes().map(CohortAggregate::result).collect();
        assert_eq!(
            results,
            vec![Some(9), Some(9), Some(9), Some(100), Some(100)]
        );
    }
}
