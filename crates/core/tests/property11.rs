//! Mid-execution verification of Property 11 (the cohort invariant that
//! Lemma 14 proves inductively).
//!
//! The paper's correctness argument rests on four structural facts holding
//! at the start of every phase; in this implementation the cohort fields
//! `(cSize, cID, cNode)` are updated atomically at pairing instants, so the
//! invariant must in fact hold at **every round boundary**. The simulator's
//! stepping API makes that directly checkable: advance one round, audit the
//! survivors, repeat.
//!
//! 1. every active node belongs to a cohort (has consistent fields);
//! 2. all active cohorts have the same size `cSize`;
//! 3. within a cohort, `cID`s are exactly `{1, …, cSize}`;
//! 4. all cohort nodes are distinct tree nodes at the same level.

use contention::LeafElection;
use mac_sim::{Engine, Protocol as _, SimConfig, Status, StepStatus, StopWhen};
use std::collections::HashMap;

/// Audits Property 11 over the active nodes of an execution.
fn audit(nodes: &[&LeafElection], round: u64) {
    if nodes.is_empty() {
        return;
    }
    let c_size = nodes[0].cohort_size();
    let level = nodes[0].cohort_node().level();
    let mut cohorts: HashMap<u32, Vec<u32>> = HashMap::new();
    for node in nodes {
        assert_eq!(
            node.cohort_size(),
            c_size,
            "round {round}: cohort sizes diverged"
        );
        assert_eq!(
            node.cohort_node().level(),
            level,
            "round {round}: cohort nodes at different levels"
        );
        cohorts
            .entry(node.cohort_node().heap_index())
            .or_default()
            .push(node.cohort_id());
    }
    for (c_node, mut cids) in cohorts {
        cids.sort_unstable();
        let expect: Vec<u32> = (1..=c_size).collect();
        assert_eq!(
            cids, expect,
            "round {round}: cohort at tree node {c_node} has cIDs != [1..={c_size}]"
        );
    }
}

/// Steps an election to completion, auditing after every round.
fn stepped_audit(c: u32, ids: &[u32], seed: u64) {
    let cfg = SimConfig::new(c)
        .seed(seed)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(10_000);
    let mut exec = Engine::new(cfg).populated(ids.iter().map(|&id| LeafElection::new(c, id)));
    let mut rounds = 0u64;
    loop {
        let status = exec.step().expect("steps");
        rounds += 1;
        assert!(rounds < 10_000, "election did not terminate");
        let active: Vec<&LeafElection> = exec
            .iter_nodes()
            .filter(|n| n.status() == Status::Active)
            .collect();
        audit(&active, exec.current_round());
        // Cohort sizes are powers of two throughout.
        for node in &active {
            assert!(node.cohort_size().is_power_of_two());
            assert!(node.cohort_id() >= 1 && node.cohort_id() <= node.cohort_size());
        }
        if status == StepStatus::Finished {
            break;
        }
    }
    let report = exec.report();
    assert_eq!(report.leaders.len(), 1, "exactly one leader at the end");
}

#[test]
fn property_11_holds_at_every_round_boundary_dense() {
    let ids: Vec<u32> = (1..=32).collect();
    stepped_audit(64, &ids, 0);
}

#[test]
fn property_11_holds_at_every_round_boundary_sparse() {
    let ids = [3u32, 9, 17, 21, 60, 77, 100, 128, 2, 90];
    stepped_audit(256, &ids, 0);
}

#[test]
fn property_11_holds_for_sibling_pairs() {
    // Adjacent leaves merge in phase one; the invariant must survive the
    // very first pairings.
    let ids = [1u32, 2, 5, 6, 9, 10, 13, 14];
    stepped_audit(64, &ids, 0);
}

#[test]
fn property_11_holds_across_many_shapes() {
    for (c, ids) in [
        (16u32, vec![1u32, 8]),
        (16, (1..=8).collect::<Vec<u32>>()),
        (128, vec![1, 2, 3, 4, 33, 34, 35, 36]),
        (512, vec![5, 250, 13, 77, 200, 199]),
        (1024, (1..=64).collect()),
    ] {
        stepped_audit(c, &ids, 3);
    }
}

#[test]
fn binary_search_ablation_preserves_property_11() {
    // The E13 ablation variant must keep the same invariants.
    let cfg = SimConfig::new(256)
        .seed(1)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(10_000);
    let mut exec =
        Engine::new(cfg).populated((1..=64u32).map(|id| LeafElection::with_binary_search(256, id)));
    loop {
        let status = exec.step().expect("steps");
        let active: Vec<&LeafElection> = exec
            .iter_nodes()
            .filter(|n| n.status() == Status::Active)
            .collect();
        audit(&active, exec.current_round());
        if status == StepStatus::Finished {
            break;
        }
    }
    assert_eq!(exec.report().leaders.len(), 1);
}
