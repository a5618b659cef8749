//! Comparing the two ways this crate can serve *all* contenders:
//! the generic [`contention::serialize::SerializeAll`] wrapper (repeat any
//! election) and the classic Capetanakis [`TreeSplit`] protocol.

use contention::baselines::TreeSplit;
use contention::serialize::SerializeAll;
use contention::{FullAlgorithm, Params};
use mac_sim::{Engine, SimConfig, StopWhen};

fn tree_split_drain(n: u64, ids: &[u64]) -> u64 {
    let cfg = SimConfig::new(1)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(10_000_000);
    let mut exec = Engine::new(cfg).populated(ids.iter().map(|&id| TreeSplit::new(id, n)));
    let report = exec.run().expect("drains");
    assert!(exec.iter_nodes().all(|t| t.served_at().is_some()));
    report.rounds_executed
}

fn serializer_drain(c: u32, n: u64, k: usize, seed: u64) -> u64 {
    let cfg = SimConfig::new(c)
        .seed(seed)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(10_000_000);
    let mut exec = Engine::new(cfg);
    for payload in 0..k as u32 {
        let factory = move || FullAlgorithm::new(Params::practical(), c, n);
        exec.add_node(SerializeAll::new(factory, payload));
    }
    let report = exec.run().expect("drains");
    assert!(exec.iter_nodes().all(|s| s.served_at().is_some()));
    report.rounds_executed
}

/// Both strategies serve everyone; correctness parity on identical bursts.
#[test]
fn both_strategies_serve_everyone() {
    let n = 1u64 << 10;
    let k = 32usize;
    let ids: Vec<u64> = (0..k as u64).map(|i| i * (n / k as u64)).collect();
    let tree = tree_split_drain(n, &ids);
    let serial = serializer_drain(16, n, k, 3);
    assert!(tree > 0 && serial > 0);
}

/// For sparse bursts the deterministic tree algorithm is extremely
/// efficient (O(k·log(n/k))) — the reference point the generic serializer
/// pays a constant-factor premium against for its generality.
#[test]
fn tree_split_is_the_efficiency_reference_for_sparse_bursts() {
    let n = 1u64 << 14;
    let k = 16usize;
    let ids: Vec<u64> = (0..k as u64).map(|i| i * (n / k as u64) + 3).collect();
    let tree = tree_split_drain(n, &ids);
    let serial = serializer_drain(16, n, k, 5);
    assert!(
        tree < serial,
        "tree splitting ({tree}) should beat the generic serializer ({serial}) on sparse bursts"
    );
}

/// Per-contender service cost: the tree algorithm amortizes to O(log(n/k))
/// rounds per packet; check a generous constant across scales.
#[test]
fn per_packet_cost_scales_with_log_density() {
    for (n, k) in [(1u64 << 10, 8usize), (1 << 14, 64), (1 << 16, 16)] {
        let ids: Vec<u64> = (0..k as u64).map(|i| i * (n / k as u64)).collect();
        let rounds = tree_split_drain(n, &ids);
        let per = rounds as f64 / k as f64;
        let bound = 3.0 * ((n as f64 / k as f64).log2() + 2.0);
        assert!(
            per <= bound,
            "n={n} k={k}: {per:.1} rounds/packet > {bound:.1}"
        );
    }
}
