//! Adversarial occupancy patterns for `LeafElection`: the activation
//! choices that stress specific parts of Fig. 3's logic.

use contention::tree::ChannelTree;
use contention::LeafElection;
use mac_sim::{Engine, RunReport, SimConfig, StopWhen};

fn run(c: u32, ids: &[u32]) -> (RunReport, Vec<LeafElection>) {
    let cfg = SimConfig::new(c)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(100_000);
    let mut exec = Engine::new(cfg).populated(ids.iter().map(|&id| LeafElection::new(c, id)));
    let report = exec.run().expect("elects");
    let nodes = exec.iter_nodes().cloned().collect();
    (report, nodes)
}

/// Comb occupancy with stride ≥ 2: no two actives are siblings, so *every*
/// first-phase pairing attempt fails except where the comb aliases at a
/// higher level — maximal early retirement. The election must still finish
/// with exactly one leader.
#[test]
fn comb_occupancy_maximizes_retirement() {
    let c = 256u32; // 128 leaves
    for stride in [2u32, 4, 8] {
        let k = 128 / stride;
        let ids: Vec<u32> = (0..k).map(|i| i * stride + 1).collect();
        let (report, nodes) = run(c, &ids);
        assert_eq!(report.leaders.len(), 1, "stride {stride}");
        // With stride >= 2 the comb is self-similar one level up: the
        // surviving structure still coalesces. Verify the winner exists and
        // cohort invariants held to the end (winner has valid state).
        let winner = &nodes[report.leaders[0].0];
        assert!(winner.cohort_size().is_power_of_two());
    }
}

/// Two far-apart actives: the search interval starts at the leaf level and
/// must find divergence level 1 (they split immediately below the root) in
/// `O(lg h)` rounds.
#[test]
fn antipodal_pair_splits_at_level_one() {
    let c = 1u32 << 12; // 2048 leaves
    let tree = ChannelTree::new(2048);
    let (a, b) = (1u32, 2048u32);
    assert_eq!(tree.divergence_level(a, b), Some(1));
    let (report, _) = run(c, &[a, b]);
    assert_eq!(report.leaders.len(), 1);
    // One root check + one binary search over (0, 11] + pairing + final
    // root check; generous cap:
    assert!(report.rounds_executed <= 1 + 5 * 4 + 1 + 1 + 5 * 4 + 2);
}

/// Sibling-pair chains: actives arranged so pairings cascade — after phase
/// one the merged cohorts are again siblings one level up, and so on. The
/// maximally-coalescing pattern: every node survives to the final cohort.
#[test]
fn cascading_siblings_coalesce_completely() {
    let c = 64u32; // 32 leaves
    let ids: Vec<u32> = (1..=32).collect();
    let (report, nodes) = run(c, &ids);
    assert_eq!(report.leaders.len(), 1);
    let winner = &nodes[report.leaders[0].0];
    assert_eq!(winner.cohort_size(), 32, "full coalescence expected");
    // Everyone is in the final cohort: nobody retired.
    let in_final = nodes
        .iter()
        .filter(|n| n.cohort_size() == 32 && n.cohort_node() == winner.cohort_node())
        .count();
    assert_eq!(in_final, 32);
}

/// Half-dense, half-empty: actives pack the left subtree only. The first
/// divergence is found inside the left half; the right half's channels
/// never carry traffic.
#[test]
fn one_sided_occupancy() {
    let c = 256u32; // 128 leaves
    let ids: Vec<u32> = (1..=64).collect(); // entire left subtree
    let cfg = SimConfig::new(c)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(100_000);
    let mut exec = Engine::new(cfg).populated(ids.iter().map(|&id| LeafElection::new(c, id)));
    let mut trace = mac_sim::Trace::new();
    let report = exec.run_observed(&mut trace).expect("elects");
    assert_eq!(report.leaders.len(), 1);
    // Tree nodes fully inside the right half of the tree (heap indices
    // whose path starts 1->3) must never be transmitted on, except row
    // channels (leftmost per level, always in the left half) and the root.
    for rt in trace.rounds() {
        for oc in &rt.outcomes {
            if oc.transmitters == 0 {
                continue;
            }
            let mut v = oc.channel.get();
            // Walk up to find the depth-1 ancestor.
            while v > 3 {
                v >>= 1;
            }
            assert_ne!(
                v, 3,
                "round {}: traffic on {} inside the empty right subtree",
                rt.round, oc.channel
            );
        }
    }
}

/// The degenerate two-leaf tree (C = 4): still a correct election for both
/// occupancy patterns.
#[test]
fn smallest_tree_edge_cases() {
    for ids in [vec![1u32], vec![2], vec![1, 2]] {
        let (report, _) = run(4, &ids);
        assert_eq!(report.leaders.len(), 1, "ids {ids:?}");
        assert!(report.is_solved());
    }
}
