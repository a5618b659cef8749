//! Sparse populations: activation schedules over a huge namespace.
//!
//! The paper's regime separates the *namespace* size `n` (how many node
//! identities exist — `2^20` and up) from the *active set* `A ⊆ V` (who
//! actually wakes — typically a few hundred, unknown to the protocol).
//! The active-set engine already pays per-round cost proportional to
//! `|live|` only; [`SparsePopulation`] completes the path by never even
//! *materializing* slots for the `n − |A|` nodes that stay asleep: a
//! population is an explicit activation schedule — `(virtual id, wake
//! round)` pairs over the namespace — and building an engine from it
//! allocates exactly `|A|` slots.
//!
//! ```
//! use mac_sim::population::SparsePopulation;
//! use mac_sim::SimConfig;
//! # use mac_sim::{Action, ChannelId, Feedback, Protocol, RoundContext, Status};
//! # use rand::rngs::SmallRng;
//! # struct Node { _id: u64 }
//! # impl Protocol for Node {
//! #     type Msg = u8;
//! #     fn act(&mut self, _: &RoundContext, _: &mut SmallRng) -> Action<u8> {
//! #         Action::transmit(ChannelId::PRIMARY, 1)
//! #     }
//! #     fn observe(&mut self, _: &RoundContext, _: Feedback<u8>, _: &mut SmallRng) {}
//! #     fn status(&self) -> Status { Status::Active }
//! # }
//!
//! // One active node in a namespace of a million: the engine holds one slot.
//! let pop = SparsePopulation::uniform(1 << 20, 1, 1, 42);
//! let mut engine = pop.engine(SimConfig::new(4), |virtual_id| Node { _id: virtual_id });
//! assert_eq!(engine.len(), 1);
//! assert!(engine.run().expect("a lone node solves").is_solved());
//! ```
//!
//! Engine [`NodeId`](crate::NodeId)s remain dense slot indices (`0..|A|`,
//! in activation order); the member's namespace identity is handed to the
//! protocol factory, which is where algorithms that use ids (renaming,
//! size estimation) pick it up.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::config::SimConfig;
use crate::engine::Engine;
use crate::feedback::FeedbackModel;
use crate::protocol::Protocol;

/// One activated member of a sparse population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Member {
    /// The node's identity in the namespace `0..n`.
    pub virtual_id: u64,
    /// The round this node wakes.
    pub wake_round: u64,
}

/// An activation schedule over a namespace of `n` possible nodes: which
/// (few) identities wake, and when. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparsePopulation {
    namespace: u64,
    members: Vec<Member>,
}

impl SparsePopulation {
    /// `active` distinct identities drawn uniformly from the namespace,
    /// each waking at a seeded uniform round in `0..window` (`window == 1`
    /// is simultaneous wake-up). Pure in `(namespace, active, window,
    /// seed)`: the same arguments always produce the same population.
    ///
    /// # Panics
    ///
    /// Panics if `namespace == 0`, `active as u64 > namespace`, or
    /// `window == 0`.
    #[must_use]
    pub fn uniform(namespace: u64, active: usize, window: u64, seed: u64) -> Self {
        assert!(namespace >= 1, "namespace must be non-empty");
        assert!(
            (active as u64) <= namespace,
            "cannot activate {active} of {namespace} identities"
        );
        assert!(window >= 1, "wake window must be positive");
        let mut rng = SmallRng::seed_from_u64(seed);
        // Distinct ids by rejection: |A| ≪ n in the sparse regime, so
        // collisions are rare and this terminates fast. Each batch draws
        // exactly as many ids as are still missing, then sorts and drops
        // repeats; a batch that completes the set has drawn only new ids,
        // so the draws consumed (and the ids kept) are exactly those of
        // drawing one id at a time until `active` distinct ones are seen.
        let mut ids: Vec<u64> = Vec::with_capacity(active);
        while ids.len() < active {
            let missing = active - ids.len();
            ids.extend((0..missing).map(|_| rng.gen_range(0..namespace)));
            ids.sort_unstable();
            ids.dedup();
        }
        let members = ids
            .into_iter()
            .map(|virtual_id| Member {
                virtual_id,
                wake_round: if window == 1 {
                    0
                } else {
                    rng.gen_range(0..window)
                },
            })
            .collect();
        SparsePopulation { namespace, members }
    }

    /// The namespace size `n`.
    #[must_use]
    pub fn namespace(&self) -> u64 {
        self.namespace
    }

    /// Number of activated identities `|A|`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Returns `true` if nothing is activated.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The activated members, in activation (= engine
    /// [`NodeId`](crate::NodeId)) order.
    #[must_use]
    pub fn members(&self) -> &[Member] {
        &self.members
    }

    /// Builds an engine holding exactly `|A|` slots, one per member, each
    /// scheduled at its member's wake round. The factory receives the
    /// member's namespace identity. Returns the engine; slot `NodeId(i)`
    /// corresponds to `self.members()[i]`.
    #[must_use]
    pub fn engine<P: Protocol>(&self, config: SimConfig, make: impl FnMut(u64) -> P) -> Engine<P> {
        let cd_mode = config.cd_mode;
        self.engine_with(config, cd_mode, make)
    }

    /// Like [`SparsePopulation::engine`] with a custom [`FeedbackModel`]
    /// (fault layers compose with sparse populations like with any other
    /// engine).
    #[must_use]
    pub fn engine_with<P: Protocol, F: FeedbackModel>(
        &self,
        config: SimConfig,
        feedback: F,
        mut make: impl FnMut(u64) -> P,
    ) -> Engine<P, F> {
        let mut engine = Engine::with_feedback(config, feedback);
        engine.reserve_nodes(self.members.len());
        for member in &self.members {
            let id = engine.add_node_at(make(member.virtual_id), member.wake_round);
            debug_assert!(id.0 < self.members.len());
        }
        engine
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_deterministic_distinct_and_sorted() {
        let a = SparsePopulation::uniform(1 << 20, 100, 64, 7);
        let b = SparsePopulation::uniform(1 << 20, 100, 64, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        let ids: Vec<u64> = a.members().iter().map(|m| m.virtual_id).collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(ids, sorted, "ids must be distinct and sorted");
        assert!(a.members().iter().all(|m| m.wake_round < 64));
    }

    /// The hashed rejection sampler `uniform` used to run: draw until
    /// `active` distinct ids are seen, then sort them and draw wake rounds.
    fn hashed_reference(namespace: u64, active: usize, window: u64, seed: u64) -> Vec<Member> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut chosen = std::collections::HashSet::new();
        while chosen.len() < active {
            chosen.insert(rng.gen_range(0..namespace));
        }
        let mut ids: Vec<u64> = chosen.into_iter().collect();
        ids.sort_unstable();
        ids.into_iter()
            .map(|virtual_id| Member {
                virtual_id,
                wake_round: if window == 1 {
                    0
                } else {
                    rng.gen_range(0..window)
                },
            })
            .collect()
    }

    #[test]
    fn uniform_draws_what_a_hashed_rejection_sampler_draws() {
        // Dense namespaces (48 of 48 or 64) force many repeats and batches;
        // the window of 16 checks that both consume the same draws before
        // the wake rounds.
        for (namespace, active) in [(48, 48), (64, 48), (1 << 12, 48), (1 << 20, 48), (200, 150)] {
            for window in [1, 16] {
                for seed in 0..300 {
                    let pop = SparsePopulation::uniform(namespace, active, window, seed);
                    assert_eq!(
                        pop.members(),
                        hashed_reference(namespace, active, window, seed),
                        "n = {namespace}, |A| = {active}, window = {window}, seed = {seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn window_one_is_simultaneous() {
        let pop = SparsePopulation::uniform(1 << 16, 50, 1, 3);
        assert!(pop.members().iter().all(|m| m.wake_round == 0));
    }
}
