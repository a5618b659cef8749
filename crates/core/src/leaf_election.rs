//! `LeafElection` — step 3 of the general algorithm (§5.3, Fig. 3):
//! deterministic leader election through *coalescing cohorts*.
//!
//! Input: `x ≤ C/2` active nodes holding distinct ids from `[C/2]`, mapped
//! to the leaves of a channel tree with `C/2` leaves (every tree node owns
//! a channel under heap numbering; the root's channel is the primary
//! channel). The algorithm repeatedly:
//!
//! 1. **Root check** (1 round): each cohort's master (`cID = 1`) broadcasts
//!    on the root channel. A lone broadcast means one cohort remains — its
//!    master is the leader, and because the root channel *is* the primary
//!    channel, that same broadcast solves contention resolution.
//! 2. **`SplitSearch`** (`5·⌈log_{p+1} h⌉` rounds for cohort size `p`):
//!    find the level `ℓ` closest to the root at which all cohorts occupy
//!    distinct tree nodes. This is a distributed simulation of Snir's CREW
//!    PRAM `(p+1)`-ary search (see the `crew-pram` crate, whose
//!    `split_points` function is shared so the two stay in lockstep):
//!    member `cID = j` of every cohort probes split level `ℓ_j` and
//!    `ℓ_{j+1}` with the two-round `CheckLevel` primitive, and the unique
//!    member that straddles the boundary announces the surviving subrange
//!    on the cohort's own channel.
//! 3. **Pairing** (1 round): masters broadcast on their level-`(ℓ−1)`
//!    ancestor's channel. A collision there means exactly two cohorts share
//!    that ancestor (one per subtree — they merge: members in the right
//!    subtree add the old cohort size to their `cID`, the cohort size
//!    doubles, and the shared ancestor becomes the new cohort node. A lone
//!    broadcast means the cohort found no partner and goes inactive.
//!
//! Cohort sizes double every phase, so phase `i` searches with `p = 2^{i-1}`
//! processors and Lemma 16 gives `O((1/i)·log h)` rounds per search; summing
//! over `O(log x)` phases yields Theorem 17's `O(log h · log log x)` bound.

use crew_pram::search::split_points;
use mac_sim::{Action, Feedback, Protocol, RoundContext, Status};
use rand::rngs::SmallRng;

use crate::phase::{impl_phase_telemetry, Phase, PhaseMeter, PhaseOutcome, PhaseStats};
use crate::tree::{row_channel, ChannelTree, TreeNode};

/// Per-node counters exposed for experiments E8/E13.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LeafElectionStats {
    /// Number of phases entered (root checks that found > 1 cohort).
    pub phases: u32,
    /// Rounds spent inside `SplitSearch`, per phase.
    pub search_rounds_by_phase: Vec<u64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SearchState {
    l_min: u32,
    l_max: u32,
    /// Sub-round within the 5-round iteration: 0–1 first `CheckLevel`,
    /// 2–3 second `CheckLevel`, 4 announcement.
    sub: u8,
    /// Collision observed on the ancestor channel in the current
    /// `CheckLevel`'s first round.
    anc_collision: bool,
    /// Global result of the first check ("was there a collision at
    /// `ℓ_cID`?"), once known.
    check1: Option<bool>,
    /// Global result of the second check (level `ℓ_{cID+1}`), once known.
    check2: Option<bool>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    RootCheck,
    Search(SearchState),
    Pair { level: u32 },
    Done,
}

/// The coalescing-cohorts leader election of Fig. 3.
///
/// # Preconditions
///
/// Every node running this protocol in an execution must hold a *distinct*
/// id (as guaranteed by [`crate::IdReduction`]); duplicate ids violate
/// Property 11 and the run's behavior is unspecified. Feedback that is
/// impossible on a clean channel — a fault-injected collision at the root,
/// a swallowed announcement — does *not* panic: the node parks and reports
/// it through [`Phase::invariant_violation`], so a
/// [`crate::Supervised`] wrapper can restart the stack.
///
/// ```
/// use contention::LeafElection;
/// use mac_sim::{Engine, SimConfig, StopWhen};
///
/// # fn main() -> Result<(), mac_sim::SimError> {
/// let c = 64; // tree with 32 leaves
/// let cfg = SimConfig::new(c).stop_when(StopWhen::AllTerminated);
/// let mut exec = Engine::new(cfg)
///     .populated([3, 7, 20, 21, 30].into_iter().map(|id| LeafElection::new(c, id)));
/// let report = exec.run()?;
/// assert_eq!(report.leaders.len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LeafElection {
    tree: ChannelTree,
    leaf: TreeNode,
    c_size: u32,
    c_id: u32,
    c_node: TreeNode,
    stage: Stage,
    status: Status,
    /// First fault-corrupted observation, if any: an adversarial channel
    /// (jam, noise, loss) can deliver feedback that is impossible on a
    /// clean channel. Instead of panicking, the node parks and reports the
    /// violation through [`Phase::invariant_violation`] so a supervisor
    /// can restart the stack.
    violation: Option<&'static str>,
    stats: LeafElectionStats,
    meter: PhaseMeter,
    /// Ablation knob (experiment E13): when set, `SplitSearch` pretends the
    /// cohort has a single member, degrading the `(p+1)`-ary search to the
    /// plain binary search a cohort-free design would use.
    force_binary_search: bool,
}

impl LeafElection {
    /// Creates a node with unique id `id` on the channel tree sized for
    /// `channels` channels, [`ChannelTree::for_election`] (`C'/2` leaves,
    /// `C'` = largest power of two `≤ channels`).
    ///
    /// # Panics
    ///
    /// Panics if `channels < 2` or `id` is outside `1..=C'/2`.
    #[must_use]
    pub fn new(channels: u32, id: u32) -> Self {
        assert!(channels >= 2, "LeafElection needs C >= 2, got {channels}");
        let tree = ChannelTree::for_election(channels);
        let leaf = tree.leaf(id);
        LeafElection {
            tree,
            leaf,
            c_size: 1,
            c_id: 1,
            c_node: leaf,
            stage: Stage::RootCheck,
            status: Status::Active,
            violation: None,
            stats: LeafElectionStats::default(),
            meter: PhaseMeter::default(),
            force_binary_search: false,
        }
    }

    /// Like [`LeafElection::new`], but with the coalescing-cohorts search
    /// acceleration disabled: every `SplitSearch` runs as a plain binary
    /// search no matter how large cohorts grow. Used by the E13 ablation to
    /// measure what the cohort structure buys
    /// (`O(log h · log x)` instead of `O(log h · log log x)` rounds).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`LeafElection::new`].
    #[must_use]
    pub fn with_binary_search(channels: u32, id: u32) -> Self {
        let mut node = LeafElection::new(channels, id);
        node.force_binary_search = true;
        node
    }

    /// This node's current cohort size (`2^{i-1}` in phase `i`).
    #[must_use]
    pub fn cohort_size(&self) -> u32 {
        self.c_size
    }

    /// This node's id within its cohort (`1..=cohort_size`).
    #[must_use]
    pub fn cohort_id(&self) -> u32 {
        self.c_id
    }

    /// The tree node currently acting as this node's cohort node.
    #[must_use]
    pub fn cohort_node(&self) -> TreeNode {
        self.c_node
    }

    /// Round counters for experiments.
    #[must_use]
    pub fn stats(&self) -> &LeafElectionStats {
        &self.stats
    }

    /// The level interval `(l_min, l_max]` the node's current `SplitSearch`
    /// is working on, if it is inside one — the observable the PRAM
    /// trace-equivalence tests compare against Snir's search.
    #[must_use]
    pub fn search_interval(&self) -> Option<(u32, u32)> {
        match self.stage {
            Stage::Search(s) => Some((s.l_min, s.l_max)),
            _ => None,
        }
    }

    /// The first invariant violation this node observed, if the channel
    /// ever delivered feedback that is impossible on a clean channel.
    #[must_use]
    pub fn violation(&self) -> Option<&'static str> {
        self.violation
    }

    /// Whether this node is its cohort's master (`cID = 1`).
    fn is_master(&self) -> bool {
        self.c_id == 1
    }

    /// Parks the node on a fault-corrupted observation. The protocol's
    /// state machine has no sound transition for feedback that violates
    /// its invariants, so the node goes idle (it still answers rounds with
    /// `Sleep`) and surfaces the violation for a supervisor to act on; an
    /// unsupervised run simply stays wedged until its round budget expires
    /// — the same verdict either way, with or without debug assertions.
    fn record_violation(&mut self, msg: &'static str) {
        if self.violation.is_none() {
            self.violation = Some(msg);
        }
        self.stage = Stage::Done;
    }

    /// The probe level `ℓ_j` of the current search iteration: interior
    /// levels are `l_min + j·seg`, and `ℓ_k = l_max`.
    fn probe_level(s: &SearchState, c_size: u32, j: usize) -> u32 {
        let (seg, k) = split_points(s.l_min as usize, s.l_max as usize, c_size as usize);
        if j >= k {
            s.l_max
        } else {
            s.l_min + (j * seg) as u32
        }
    }

    /// The processor count the search runs with: the cohort size, unless
    /// the E13 ablation pinned it to 1.
    fn search_width(&self) -> u32 {
        if self.force_binary_search {
            1
        } else {
            self.c_size
        }
    }

    /// Whether this node probes in the current iteration (`cID ≤ k−1`).
    fn is_prober(&self, s: &SearchState) -> bool {
        let (_, k) = split_points(
            s.l_min as usize,
            s.l_max as usize,
            self.search_width() as usize,
        );
        (self.c_id as usize) < k
    }

    /// Enters a search over `(l_min, l_max]`, or skips straight to pairing
    /// when the interval is already resolved.
    fn enter_search(&mut self, l_min: u32, l_max: u32) {
        debug_assert!(l_max > l_min, "search interval must be nonempty");
        if l_max == l_min + 1 {
            self.stage = Stage::Pair { level: l_max };
        } else {
            self.stage = Stage::Search(SearchState {
                l_min,
                l_max,
                sub: 0,
                anc_collision: false,
                check1: None,
                check2: None,
            });
        }
    }

    /// Applies the announced subrange index `i` and recurses or finishes.
    fn apply_announcement(&mut self, s: SearchState, i: u32) {
        let new_min = Self::probe_level(&s, self.search_width(), i as usize);
        let new_max = Self::probe_level(&s, self.search_width(), i as usize + 1);
        self.enter_search(new_min, new_max);
    }
}

impl Protocol for LeafElection {
    type Msg = u32;

    fn act(&mut self, _ctx: &RoundContext, _rng: &mut SmallRng) -> Action<u32> {
        let action = match &self.stage {
            Stage::RootCheck => {
                if self.is_master() {
                    Action::transmit(self.tree.root().channel(), 0)
                } else {
                    Action::listen(self.tree.root().channel())
                }
            }
            Stage::Search(s) => {
                let s = *s;
                if let Some(r) = self.stats.search_rounds_by_phase.last_mut() {
                    *r += 1;
                }
                match s.sub {
                    // First CheckLevel, round 1: probe own ancestor at ℓ_cID.
                    0 | 2 => {
                        if self.is_prober(&s) {
                            let j = self.c_id as usize + usize::from(s.sub == 2);
                            let level = Self::probe_level(&s, self.search_width(), j);
                            Action::transmit(self.leaf.ancestor_at_level(level).channel(), 0)
                        } else {
                            Action::Sleep
                        }
                    }
                    // CheckLevel round 2: globalize on the row channel.
                    1 | 3 => {
                        if self.is_prober(&s) {
                            let j = self.c_id as usize + usize::from(s.sub == 3);
                            let level = Self::probe_level(&s, self.search_width(), j);
                            if s.anc_collision {
                                Action::transmit(row_channel(level), 0)
                            } else {
                                Action::listen(row_channel(level))
                            }
                        } else {
                            Action::Sleep
                        }
                    }
                    // Announcement round on the cohort's own channel.
                    4 => {
                        let check1 = s.check1.unwrap_or(false);
                        let check2 = s.check2.unwrap_or(false);
                        if self.c_id == 1 && self.is_prober(&s) && !check1 {
                            Action::transmit(self.c_node.channel(), 0)
                        } else if self.is_prober(&s) && check1 && !check2 {
                            Action::transmit(self.c_node.channel(), self.c_id)
                        } else {
                            Action::listen(self.c_node.channel())
                        }
                    }
                    _ => unreachable!("sub-round out of range"),
                }
            }
            Stage::Pair { level } => {
                let ancestor = self.leaf.ancestor_at_level(level - 1);
                if self.is_master() {
                    Action::transmit(ancestor.channel(), 0)
                } else {
                    Action::listen(ancestor.channel())
                }
            }
            Stage::Done => Action::Sleep,
        };
        self.meter.on_act(&action);
        action
    }

    fn observe(&mut self, _ctx: &RoundContext, feedback: Feedback<u32>, _rng: &mut SmallRng) {
        match self.stage {
            Stage::RootCheck => {
                if feedback.is_collision() {
                    let l_max = self.c_node.level();
                    if l_max == 0 {
                        // A jammed channel can turn the lone root broadcast
                        // into a collision; impossible on a clean channel.
                        self.record_violation("colliding cohorts cannot sit at the root");
                        return;
                    }
                    // More than one cohort: search for the divergence level.
                    self.stats.phases += 1;
                    self.stats.search_rounds_by_phase.push(0);
                    self.enter_search(0, l_max);
                } else if feedback.message().is_none() {
                    // Noise or loss swallowed every master's broadcast.
                    self.record_violation("root check heard silence; a master failed to broadcast");
                } else {
                    // Lone broadcast: one cohort remains and its master won.
                    self.status = if self.is_master() {
                        Status::Leader
                    } else {
                        Status::Inactive
                    };
                    self.stage = Stage::Done;
                }
            }
            Stage::Search(ref mut s) => match s.sub {
                0 | 2 => {
                    s.anc_collision = feedback.is_collision();
                    s.sub += 1;
                }
                1 | 3 => {
                    // Transmitters on the row channel already know the
                    // answer is "collision"; listeners learn it from whether
                    // the row channel stayed silent.
                    let result = s.anc_collision || !feedback.is_silence();
                    if s.sub == 1 {
                        s.check1 = Some(result);
                    } else {
                        s.check2 = Some(result);
                    }
                    s.sub += 1;
                }
                4 => {
                    let s = *s;
                    let check1 = s.check1.unwrap_or(false);
                    let check2 = s.check2.unwrap_or(false);
                    let announced_by_me =
                        self.is_prober(&s) && ((self.c_id == 1 && !check1) || (check1 && !check2));
                    let i = if announced_by_me {
                        if self.c_id == 1 && !check1 {
                            0
                        } else {
                            self.c_id
                        }
                    } else {
                        match feedback.message() {
                            Some(&i) => i,
                            None => {
                                // Faults erased the announcement; exactly one
                                // member should have announced on a clean
                                // channel.
                                self.record_violation(
                                    "announcement round delivered no subrange; \
                                     exactly one member should have announced",
                                );
                                return;
                            }
                        }
                    };
                    self.apply_announcement(s, i);
                }
                _ => unreachable!("sub-round out of range"),
            },
            Stage::Pair { level } => {
                if feedback.is_collision() {
                    // Two cohorts share the level-(ℓ-1) ancestor: merge.
                    if self.leaf.ancestor_at_level(level).is_right_child() {
                        self.c_id += self.c_size;
                    }
                    self.c_size *= 2;
                    self.c_node = self.leaf.ancestor_at_level(level - 1);
                    self.stage = Stage::RootCheck;
                } else if feedback.message().is_none() {
                    // Even this node's own master went unheard.
                    self.record_violation(
                        "pairing round heard silence; own master failed to broadcast",
                    );
                } else {
                    // Lone master: no partner at this level — cohort retires.
                    self.status = Status::Inactive;
                    self.stage = Stage::Done;
                }
            }
            Stage::Done => {}
        }
    }

    fn status(&self) -> Status {
        self.status
    }

    fn phase(&self) -> &'static str {
        if self.violation.is_some() {
            return "le-wedged";
        }
        match self.stage {
            Stage::RootCheck => "le-root-check",
            Stage::Search(_) => "le-split-search",
            Stage::Pair { .. } => "le-pair",
            Stage::Done => "le-done",
        }
    }
}

/// As a [`Phase`], `LeafElection` only ever *terminates* — it is the last
/// step of the paper's pipeline, so there is no completion value to hand
/// on: the node ends as leader or inactive.
impl Phase for LeafElection {
    type Output = ();

    fn act(&mut self, ctx: &RoundContext, rng: &mut SmallRng) -> Action<u32> {
        Protocol::act(self, ctx, rng)
    }

    fn observe(
        &mut self,
        ctx: &RoundContext,
        feedback: Feedback<u32>,
        rng: &mut SmallRng,
    ) -> Option<PhaseOutcome<()>> {
        Protocol::observe(self, ctx, feedback, rng);
        Phase::outcome(self)
    }

    fn outcome(&self) -> Option<PhaseOutcome<()>> {
        match self.status {
            Status::Active => None,
            status => Some(PhaseOutcome::Terminated(status)),
        }
    }

    fn name(&self) -> &'static str {
        "leaf-election"
    }

    fn label(&self) -> &'static str {
        Protocol::phase(self)
    }

    fn collect_stats(&self, out: &mut Vec<PhaseStats>) {
        out.push(self.meter.snapshot("leaf-election"));
    }

    fn invariant_violation(&self) -> Option<&'static str> {
        self.violation
    }
}

impl_phase_telemetry!(LeafElection);

#[cfg(test)]
mod tests {
    use super::*;
    use mac_sim::{Engine, RunReport, SimConfig, StopWhen};

    fn run_ids(c: u32, ids: &[u32]) -> (RunReport, Vec<LeafElection>) {
        let cfg = SimConfig::new(c)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(100_000);
        let mut exec = Engine::new(cfg).populated(ids.iter().map(|&id| LeafElection::new(c, id)));
        let report = exec.run().expect("run succeeds");
        let nodes = exec.iter_nodes().cloned().collect();
        (report, nodes)
    }

    #[test]
    fn elects_exactly_one_leader_for_all_small_id_sets() {
        // Exhaustive over all nonempty subsets of an 8-leaf tree (C = 16).
        for mask in 1u32..(1 << 8) {
            let ids: Vec<u32> = (0..8)
                .filter(|b| mask & (1 << b) != 0)
                .map(|b| b + 1)
                .collect();
            let (report, _) = run_ids(16, &ids);
            assert_eq!(report.leaders.len(), 1, "ids {ids:?}");
            assert!(report.is_solved(), "ids {ids:?}");
            assert!(report.active_remaining.is_empty(), "ids {ids:?}");
        }
    }

    #[test]
    fn single_node_wins_in_one_round() {
        let (report, _) = run_ids(64, &[17]);
        assert_eq!(report.leaders.len(), 1);
        assert_eq!(report.solved_round, Some(0));
    }

    #[test]
    fn deterministic_winner_is_reproducible() {
        let (r1, _) = run_ids(64, &[2, 9, 23, 24]);
        let (r2, _) = run_ids(64, &[2, 9, 23, 24]);
        assert_eq!(r1.leaders, r2.leaders);
        assert_eq!(r1.rounds_executed, r2.rounds_executed);
    }

    #[test]
    fn adjacent_leaves_merge_in_first_phase() {
        // Leaves 1 and 2 share their parent: the first search must find the
        // leaf level, and pairing must merge them into one cohort of 2.
        let (report, nodes) = run_ids(16, &[1, 2]);
        assert_eq!(report.leaders.len(), 1);
        let winner = &nodes[report.leaders[0].0];
        assert_eq!(winner.cohort_size(), 2);
    }

    #[test]
    fn power_of_two_occupancy_coalesces_fully() {
        // All 8 leaves active: cohorts double every phase; the final winner
        // sits in a cohort of 8 and 3 phases of searching happened.
        let ids: Vec<u32> = (1..=8).collect();
        let (report, nodes) = run_ids(16, &ids);
        assert_eq!(report.leaders.len(), 1);
        let winner = &nodes[report.leaders[0].0];
        assert_eq!(winner.cohort_size(), 8);
        assert_eq!(winner.stats().phases, 3);
    }

    #[test]
    fn cohort_ids_stay_distinct_within_cohort() {
        // Property 11: after every run, group surviving nodes by cohort node
        // and check their cIDs form [1..=size].
        let ids: Vec<u32> = (1..=16).collect();
        let (report, nodes) = run_ids(32, &ids);
        assert_eq!(report.leaders.len(), 1);
        let winner = &nodes[report.leaders[0].0];
        // The winning cohort at the end: collect members with same c_node.
        let members: Vec<&LeafElection> = nodes
            .iter()
            .filter(|n| {
                n.cohort_node() == winner.cohort_node() && n.cohort_size() == winner.cohort_size()
            })
            .collect();
        let mut cids: Vec<u32> = members.iter().map(|m| m.cohort_id()).collect();
        cids.sort_unstable();
        let want: Vec<u32> = (1..=winner.cohort_size()).collect();
        assert_eq!(cids, want);
    }

    #[test]
    fn rounds_match_theorem_17_budget() {
        // O(log h * log log x) with h = lg(C/2). Use a generous concrete
        // budget: per phase, searches cost 5*ceil(log_{p+1} h)+2; sum + x.
        for (c, x) in [(64u32, 16u32), (256, 64), (1024, 128), (4096, 256)] {
            let leaves = c / 2;
            let ids: Vec<u32> = (1..=x.min(leaves)).collect();
            let (report, _) = run_ids(c, &ids);
            let h = f64::from(leaves).log2();
            let phases = (f64::from(x)).log2().ceil() + 1.0;
            let mut budget = 0.0;
            for i in 1..=(phases as u32) {
                let p = f64::from(1u32 << (i - 1));
                budget += 5.0 * (h.ln() / (p + 1.0).ln()).ceil().max(1.0) + 2.0;
            }
            budget += 2.0;
            assert!(
                (report.rounds_executed as f64) <= budget,
                "C={c} x={x}: {} rounds > budget {budget}",
                report.rounds_executed
            );
        }
    }

    #[test]
    fn later_phases_search_faster_per_lemma_16() {
        // Bigger cohorts mean higher-arity searches: per-phase search rounds
        // must be non-increasing (up to the +-1 granularity of ceil).
        let ids: Vec<u32> = (1..=128).collect();
        let (report, nodes) = run_ids(1024, &ids);
        assert_eq!(report.leaders.len(), 1);
        let winner = &nodes[report.leaders[0].0];
        let by_phase = &winner.stats().search_rounds_by_phase;
        assert!(
            by_phase.len() >= 4,
            "expected several phases, got {by_phase:?}"
        );
        for w in by_phase.windows(2) {
            assert!(
                w[1] <= w[0] + 5,
                "search rounds grew sharply across phases: {by_phase:?}"
            );
        }
        assert!(
            *by_phase.last().unwrap() <= by_phase[0],
            "last phase should be no slower than the first: {by_phase:?}"
        );
    }

    #[test]
    fn sparse_far_apart_leaves_work() {
        let (report, _) = run_ids(256, &[1, 128]);
        assert_eq!(report.leaders.len(), 1);
    }

    #[test]
    fn tiny_tree_with_two_leaves() {
        // C = 4 gives a 2-leaf tree (height 1).
        let (report, _) = run_ids(4, &[1, 2]);
        assert_eq!(report.leaders.len(), 1);
        assert!(report.is_solved());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_id_beyond_leaves() {
        let _ = LeafElection::new(16, 9); // 8 leaves only
    }

    #[test]
    #[should_panic(expected = "C >= 2")]
    fn rejects_single_channel() {
        let _ = LeafElection::new(1, 1);
    }

    #[test]
    fn jammed_root_collision_parks_with_a_reported_violation() {
        use rand::SeedableRng;
        // C = 2 gives a single-leaf tree: the cohort node *is* the root, so
        // a collision during the root check is impossible on a clean channel
        // — only a jammer can produce it. The node must not panic: it parks,
        // stays non-terminated, and reports the violation for a supervisor.
        let mut node = LeafElection::new(2, 1);
        let ctx = RoundContext {
            round: 0,
            local_round: 0,
            channels: 2,
        };
        let mut rng = rand::rngs::SmallRng::seed_from_u64(0);
        let _ = Protocol::act(&mut node, &ctx, &mut rng);
        Protocol::observe(&mut node, &ctx, Feedback::Collision, &mut rng);
        assert_eq!(
            Phase::invariant_violation(&node),
            Some("colliding cohorts cannot sit at the root")
        );
        assert_eq!(node.status(), Status::Active, "wedged, not terminated");
        assert!(Phase::outcome(&node).is_none());
        assert_eq!(Protocol::phase(&node), "le-wedged");
        // Once parked the node sleeps; further rounds change nothing.
        assert!(matches!(
            Protocol::act(&mut node, &ctx, &mut rng),
            Action::Sleep
        ));
    }

    #[test]
    fn lossy_root_silence_parks_with_a_reported_violation() {
        use rand::SeedableRng;
        // Every master's broadcast swallowed by loss: the root check hears
        // silence, which a clean channel can never deliver.
        let mut node = LeafElection::new(16, 3);
        let ctx = RoundContext {
            round: 0,
            local_round: 0,
            channels: 16,
        };
        let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
        let _ = Protocol::act(&mut node, &ctx, &mut rng);
        Protocol::observe(&mut node, &ctx, Feedback::Silence, &mut rng);
        assert_eq!(
            node.violation(),
            Some("root check heard silence; a master failed to broadcast")
        );
        assert!(Phase::outcome(&node).is_none());
    }

    #[test]
    fn accessors_report_initial_state() {
        let le = LeafElection::new(64, 5);
        assert_eq!(le.cohort_size(), 1);
        assert_eq!(le.cohort_id(), 1);
        assert_eq!(le.cohort_node(), ChannelTree::new(32).leaf(5));
        assert_eq!(le.phase(), "le-root-check");
    }
}
