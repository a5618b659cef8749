//! Serializing *all* contenders — repeated contention resolution.
//!
//! The one-shot problem ends at the first lone transmission, but the
//! original conflict-resolution literature (Komlós–Greenberg, reference
//! \[13\] of the paper) wants more: every contender eventually delivers its
//! packet. This module lifts any single-shot election into a full
//! serializer by interleaving:
//!
//! * **even rounds** — an embedded election protocol runs among the nodes
//!   that have not yet been served;
//! * **odd rounds** — an *ack* slot on the primary channel: once a node's
//!   embedded election declares it leader, it transmits its payload in the
//!   next ack slot (alone — there is at most one new leader), every other
//!   node hears it, the served node retires, and the survivors restart a
//!   fresh election synchronously.
//!
//! With the paper's pipeline embedded, serving all `k` contenders costs
//! `≈ 2·k·T(n, C)` rounds where `T` is Theorem 4's bound — each delivery
//! inherits the paper's speed-up.

use mac_sim::{Action, ChannelId, Feedback, Protocol, RoundContext, Status};
use rand::rngs::SmallRng;

/// Builds fresh instances of the embedded election protocol. A plain `Fn`
/// so restarts can mint as many instances as needed.
pub trait ElectionFactory {
    /// The election protocol type produced.
    type Election: Protocol<Msg = u32>;
    /// Creates a fresh, unstarted election instance.
    fn fresh(&self) -> Self::Election;
}

impl<F, P> ElectionFactory for F
where
    F: Fn() -> P,
    P: Protocol<Msg = u32>,
{
    type Election = P;
    fn fresh(&self) -> P {
        self()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Still contending: run the embedded election in even rounds.
    Electing,
    /// Declared leader by the embedded election; will ack next odd round.
    PendingAck,
    /// Knocked out of the current election; waiting for an ack to restart.
    Waiting,
    /// Served (acked); retired.
    Served,
}

/// A node of the all-contenders serializer.
///
/// ```
/// use contention::serialize::SerializeAll;
/// use contention::{FullAlgorithm, Params};
/// use mac_sim::{Engine, SimConfig, StopWhen};
///
/// # fn main() -> Result<(), mac_sim::SimError> {
/// let (c, n, k) = (32u32, 1u64 << 10, 12usize);
/// let cfg = SimConfig::new(c).seed(4).stop_when(StopWhen::AllTerminated);
/// let factory = move || FullAlgorithm::new(Params::practical(), c, n);
/// let mut exec =
///     Engine::new(cfg).populated((0..k as u32).map(|payload| SerializeAll::new(factory, payload)));
/// exec.run()?;
/// let served: Vec<u32> = exec.iter_nodes().filter_map(|s| s.served_at().map(|_| s.payload())).collect();
/// assert_eq!(served.len(), k, "every contender must be served");
/// # Ok(())
/// # }
/// ```
pub struct SerializeAll<F: ElectionFactory> {
    factory: F,
    election: F::Election,
    payload: u32,
    mode: Mode,
    /// Local round counter; even = election slot, odd = ack slot.
    step: u64,
    /// The ack slot (local step) in which this node delivered its payload.
    served_at: Option<u64>,
    /// Payloads heard in ack slots, in delivery order.
    deliveries: Vec<u32>,
}

impl<F, P> Clone for SerializeAll<F>
where
    F: ElectionFactory<Election = P> + Clone,
    P: Protocol<Msg = u32> + Clone,
{
    fn clone(&self) -> Self {
        SerializeAll {
            factory: self.factory.clone(),
            election: self.election.clone(),
            payload: self.payload,
            mode: self.mode,
            step: self.step,
            served_at: self.served_at,
            deliveries: self.deliveries.clone(),
        }
    }
}

impl<F: ElectionFactory> SerializeAll<F> {
    /// Creates a contender that will deliver `payload` once it wins an
    /// election epoch. All contenders must use equivalent factories.
    pub fn new(factory: F, payload: u32) -> Self {
        let election = factory.fresh();
        SerializeAll {
            factory,
            election,
            payload,
            mode: Mode::Electing,
            step: 0,
            served_at: None,
            deliveries: Vec::new(),
        }
    }

    /// This node's payload.
    pub fn payload(&self) -> u32 {
        self.payload
    }

    /// The local step at which this node was served, if it was.
    pub fn served_at(&self) -> Option<u64> {
        self.served_at
    }

    /// Every payload this node heard delivered, in order (including its
    /// own). All nodes observe the same delivery order — the serializer
    /// doubles as a total-order broadcast of one message per node.
    pub fn deliveries(&self) -> &[u32] {
        &self.deliveries
    }

    fn restart_election(&mut self) {
        self.election = self.factory.fresh();
        self.mode = Mode::Electing;
    }
}

impl<F: ElectionFactory> Protocol for SerializeAll<F> {
    type Msg = u32;

    fn act(&mut self, ctx: &RoundContext, rng: &mut SmallRng) -> Action<u32> {
        let step = self.step;
        self.step += 1;
        if step % 2 == 1 {
            // Ack slot.
            return match self.mode {
                Mode::PendingAck => Action::transmit(ChannelId::PRIMARY, self.payload),
                _ => Action::listen(ChannelId::PRIMARY),
            };
        }
        // Election slot.
        match self.mode {
            Mode::Electing => {
                let inner_ctx = RoundContext {
                    round: ctx.round,
                    local_round: step / 2,
                    channels: ctx.channels,
                };
                self.election.act(&inner_ctx, rng)
            }
            _ => Action::Sleep,
        }
    }

    fn observe(&mut self, ctx: &RoundContext, feedback: Feedback<u32>, rng: &mut SmallRng) {
        let step = self.step - 1;
        if step % 2 == 1 {
            // Ack slot outcome.
            match self.mode {
                Mode::PendingAck => {
                    debug_assert!(
                        feedback.message().is_some(),
                        "ack collided; two leaders in one epoch?"
                    );
                    self.deliveries.push(self.payload);
                    self.served_at = Some(step);
                    self.mode = Mode::Served;
                }
                Mode::Served => {}
                Mode::Electing | Mode::Waiting => {
                    if let Some(&payload) = feedback.message() {
                        // Someone was served: epoch over, restart.
                        self.deliveries.push(payload);
                        self.restart_election();
                    }
                }
            }
            return;
        }
        // Election slot outcome.
        if self.mode == Mode::Electing {
            let inner_ctx = RoundContext {
                round: ctx.round,
                local_round: step / 2,
                channels: ctx.channels,
            };
            self.election.observe(&inner_ctx, feedback, rng);
            match self.election.status() {
                Status::Leader => self.mode = Mode::PendingAck,
                Status::Inactive => self.mode = Mode::Waiting,
                Status::Active => {}
            }
        }
    }

    fn status(&self) -> Status {
        match self.mode {
            Mode::Served => {
                // Every node retires as soon as it is served; the last
                // served node is this problem's notion of completion.
                Status::Inactive
            }
            _ => Status::Active,
        }
    }

    fn phase(&self) -> &'static str {
        match self.mode {
            Mode::Electing => "serialize-elect",
            Mode::PendingAck => "serialize-ack",
            Mode::Waiting => "serialize-wait",
            Mode::Served => "done",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baselines::CdTournament;
    use crate::{FullAlgorithm, Params};
    use mac_sim::{Engine, SimConfig, StopWhen};

    fn run_serializer(
        c: u32,
        n: u64,
        k: usize,
        seed: u64,
    ) -> Vec<SerializeAll<impl ElectionFactory + Clone>> {
        let cfg = SimConfig::new(c)
            .seed(seed)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(10_000_000);
        let factory = move || FullAlgorithm::new(Params::practical(), c, n);
        let mut exec = Engine::new(cfg)
            .populated((0..k as u32).map(|payload| SerializeAll::new(factory, payload)));
        exec.run().expect("serializes");
        exec.iter_nodes().cloned().collect()
    }

    #[test]
    fn every_contender_is_served_exactly_once() {
        for (k, seed) in [(1usize, 0u64), (2, 1), (7, 2), (25, 3)] {
            let nodes = run_serializer(32, 1 << 10, k, seed);
            let mut payloads: Vec<u32> = nodes
                .iter()
                .filter(|s| s.served_at().is_some())
                .map(SerializeAll::payload)
                .collect();
            payloads.sort_unstable();
            let expect: Vec<u32> = (0..k as u32).collect();
            assert_eq!(payloads, expect, "k={k} seed={seed}");
        }
    }

    #[test]
    fn all_nodes_agree_on_delivery_order() {
        let nodes = run_serializer(32, 1 << 10, 10, 5);
        // A node only observes deliveries while still present, so earlier-
        // served nodes have prefixes of the full order. The last-served
        // node's log is the complete order; everyone else must match its
        // prefix up to and including their own delivery.
        let full = nodes
            .iter()
            .max_by_key(|s| s.deliveries().len())
            .expect("nonempty")
            .deliveries()
            .to_vec();
        assert_eq!(full.len(), 10);
        let unique: std::collections::HashSet<u32> = full.iter().copied().collect();
        assert_eq!(unique.len(), 10, "duplicate deliveries: {full:?}");
        for node in &nodes {
            let d = node.deliveries();
            assert_eq!(
                d,
                &full[..d.len()],
                "divergent order at {:?}",
                node.payload()
            );
        }
    }

    #[test]
    fn serialization_cost_scales_with_contenders() {
        let rounds = |k: usize| {
            let cfg = SimConfig::new(32)
                .seed(9)
                .stop_when(StopWhen::AllTerminated)
                .max_rounds(10_000_000);
            let factory = move || FullAlgorithm::new(Params::practical(), 32, 1 << 10);
            let mut exec = Engine::new(cfg)
                .populated((0..k as u32).map(|payload| SerializeAll::new(factory, payload)));
            exec.run().expect("serializes").rounds_executed
        };
        let few = rounds(4);
        let many = rounds(16);
        assert!(
            many > few,
            "serving 16 ({many}) must cost more than 4 ({few})"
        );
        // Linear-ish in k: 16 contenders shouldn't cost more than ~8x the 4.
        assert!(many < few * 12, "cost blow-up: {few} -> {many}");
    }

    #[test]
    fn works_with_the_tournament_election_too() {
        let cfg = SimConfig::new(4)
            .seed(2)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(1_000_000);
        let mut exec = Engine::new(cfg)
            .populated((0..8u32).map(|payload| SerializeAll::new(CdTournament::new, payload)));
        exec.run().expect("serializes");
        let served = exec
            .iter_nodes()
            .filter(|s| s.served_at().is_some())
            .count();
        assert_eq!(served, 8);
    }

    #[test]
    fn lone_contender_served_fast() {
        let nodes = run_serializer(32, 1 << 10, 1, 7);
        assert!(nodes[0].served_at().is_some());
        assert_eq!(nodes[0].deliveries(), &[0]);
    }
}
