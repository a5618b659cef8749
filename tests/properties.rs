//! Property-based tests (proptest) over the workspace's core invariants.

use contention::tree::ChannelTree;
use contention::{
    FullAlgorithm, IdReduction, IdReductionOutcome, LeafElection, Params, Reduce, ReduceOutcome,
};
use crew_pram::search::{snir_boundary, split_points};
use mac_sim::{Engine, SimConfig, StopWhen};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::HashSet;

proptest! {
    /// Tree ancestor arithmetic matches the paper's closed-form channel
    /// assignment at every level, for arbitrary tree sizes.
    #[test]
    fn tree_position_formula(h in 1u32..10, id_raw in 1u32..1024) {
        let leaves = 1u32 << h;
        let id = (id_raw - 1) % leaves + 1;
        let tree = ChannelTree::new(leaves);
        for m in 0..=h {
            let expected = id.div_ceil(1 << (h - m));
            prop_assert_eq!(tree.leaf(id).ancestor_at_level(m).position_in_level(), expected);
        }
    }

    /// Divergence level is symmetric, within [1, h], and is exactly the
    /// first level at which ancestors differ.
    #[test]
    fn tree_divergence_properties(h in 1u32..10, a_raw in 1u32..1024, b_raw in 1u32..1024) {
        let leaves = 1u32 << h;
        let a = (a_raw - 1) % leaves + 1;
        let b = (b_raw - 1) % leaves + 1;
        let tree = ChannelTree::new(leaves);
        match tree.divergence_level(a, b) {
            None => prop_assert_eq!(a, b),
            Some(level) => {
                prop_assert!(a != b);
                prop_assert!(level >= 1 && level <= h);
                prop_assert_eq!(tree.divergence_level(b, a), Some(level));
                prop_assert_ne!(
                    tree.leaf(a).ancestor_at_level(level),
                    tree.leaf(b).ancestor_at_level(level)
                );
                prop_assert_eq!(
                    tree.leaf(a).ancestor_at_level(level - 1),
                    tree.leaf(b).ancestor_at_level(level - 1)
                );
            }
        }
    }

    /// Snir's PRAM search returns the same boundary as a linear scan, for
    /// arbitrary monotone predicates and processor counts, within the
    /// iteration budget of `ideal_iterations`.
    #[test]
    fn snir_search_matches_linear_scan(
        zeros in 0usize..40,
        extra_ones in 1usize..40,
        p in 1usize..12,
    ) {
        let mut bits = vec![false; zeros];
        bits.extend(std::iter::repeat_n(true, extra_ones));
        let report = snir_boundary(&bits, p).expect("search runs");
        prop_assert_eq!(report.index, zeros + 1);
        let ideal = crew_pram::search::ideal_iterations(bits.len(), p);
        prop_assert!(report.iterations <= ideal);
    }

    /// `split_points` always produces a shrinking, covering subdivision.
    #[test]
    fn split_points_invariants(lo in 0usize..100, extra in 2usize..100, p in 1usize..64) {
        let hi = lo + extra;
        let (seg, k) = split_points(lo, hi, p);
        prop_assert!(seg >= 1);
        prop_assert!(k >= 2, "k={k} for range {extra}"); // range >= 2 here
        prop_assert!(k <= p + 1);
        prop_assert!(lo + (k - 1) * seg < hi);
        prop_assert!(lo + k * seg >= hi);
        prop_assert!(seg < extra, "interval must shrink");
    }
}

proptest! {
    // Simulation-heavy properties: fewer cases, still broad coverage.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// LeafElection with any nonempty set of distinct leaf ids elects
    /// exactly one leader, and the winning id belongs to the input set.
    #[test]
    fn leaf_election_always_one_leader(
        h in 2u32..8,
        ids_raw in vec(1u32..=256, 1..20),
        seed in 0u64..1000,
    ) {
        let leaves = 1u32 << h;
        let c = leaves * 2;
        let ids: HashSet<u32> = ids_raw.iter().map(|&x| (x - 1) % leaves + 1).collect();
        let cfg = SimConfig::new(c)
            .seed(seed)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(1_000_000);
        let ordered: Vec<u32> = ids.iter().copied().collect();
        let mut exec = Engine::new(cfg).populated(ordered.iter().map(|&id| LeafElection::new(c, id)));
        let report = exec.run().expect("elects");
        prop_assert_eq!(report.leaders.len(), 1);
        let winner_idx = report.leaders[0].0;
        prop_assert!(ids.contains(&ordered[winner_idx]));
        // Property 11 residue: the winner's cohort ids form [1..=size].
        let winner = exec.node(report.leaders[0]);
        let mut cids: Vec<u32> = exec
            .iter_nodes()
            .filter(|n| {
                n.cohort_node() == winner.cohort_node() && n.cohort_size() == winner.cohort_size()
            })
            .map(contention::LeafElection::cohort_id)
            .collect();
        cids.sort_unstable();
        let expect: Vec<u32> = (1..=winner.cohort_size()).collect();
        prop_assert_eq!(cids, expect);
    }

    /// IdReduction renames a random crowd into distinct ids from [C/2].
    #[test]
    fn id_reduction_unique_ids(ce in 3u32..10, active in 1usize..80, seed in 0u64..1000) {
        let c = 1u32 << ce;
        let cfg = SimConfig::new(c)
            .seed(seed)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(1_000_000);
        let mut exec =
            Engine::new(cfg).populated((0..active).map(|_| IdReduction::new(Params::practical(), c)));
        exec.run().expect("terminates");
        let ids: Vec<u32> = exec
            .iter_nodes()
            .filter_map(|p| match p.outcome().expect("terminated") {
                IdReductionOutcome::Renamed(id) => Some(id),
                IdReductionOutcome::Eliminated => None,
            })
            .collect();
        prop_assert!(!ids.is_empty());
        let set: HashSet<u32> = ids.iter().copied().collect();
        prop_assert_eq!(set.len(), ids.len());
        prop_assert!(ids.iter().all(|&id| id >= 1 && id <= c / 2));
    }

    /// Reduce never knocks out the entire population unless a leader
    /// emerged (who, by definition, already solved the problem).
    #[test]
    fn reduce_never_wipes_everyone(
        ne in 2u32..20,
        active in 1usize..300,
        seed in 0u64..1000,
    ) {
        let n = 1u64 << ne;
        let cfg = SimConfig::new(1)
            .seed(seed)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(100_000);
        let mut exec = Engine::new(cfg).populated((0..active).map(|_| Reduce::new(n)));
        exec.run().expect("terminates");
        let mut survivors = 0usize;
        let mut leaders = 0usize;
        for node in exec.iter_nodes() {
            match node.outcome().expect("terminated") {
                ReduceOutcome::Survived => survivors += 1,
                ReduceOutcome::Leader => leaders += 1,
                ReduceOutcome::Knocked => {}
            }
        }
        prop_assert!(leaders <= 1);
        prop_assert!(survivors + leaders >= 1);
    }

    /// The full algorithm solves for arbitrary (C, n, |A|) and never
    /// produces two leaders.
    #[test]
    fn full_algorithm_always_solves(
        ce in 0u32..10,
        ne in 1u32..16,
        active in 1usize..120,
        seed in 0u64..1000,
    ) {
        let c = 1u32 << ce;
        let n = 1u64 << ne.max(1);
        let cfg = SimConfig::new(c)
            .seed(seed)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(1_000_000);
        let mut exec = Engine::new(cfg)
            .populated((0..active).map(|_| FullAlgorithm::new(Params::practical(), c, n)));
        let report = exec.run().expect("solves");
        prop_assert!(report.is_solved());
        prop_assert!(report.leaders.len() <= 1);
        prop_assert!(report.active_remaining.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The serializer serves every contender exactly once, under any
    /// contender count and seed.
    #[test]
    fn serializer_serves_everyone(k in 1usize..24, seed in 0u64..500) {
        use contention::serialize::SerializeAll;
        let cfg = SimConfig::new(16)
            .seed(seed)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(10_000_000);
        let mut exec = Engine::new(cfg);
        for payload in 0..k as u32 {
            let factory = move || FullAlgorithm::new(Params::practical(), 16, 1 << 10);
            exec.add_node(SerializeAll::new(factory, payload));
        }
        exec.run().expect("serializes");
        let mut served: Vec<u32> = exec
            .iter_nodes()
            .filter(|s| s.served_at().is_some())
            .map(|s| s.payload())
            .collect();
        served.sort_unstable();
        prop_assert_eq!(served, (0..k as u32).collect::<Vec<_>>());
    }

    /// The session facade solves for every algorithm at random valid
    /// configurations.
    #[test]
    fn session_facade_resolves(
        ce in 1u32..8,
        ne in 3u32..14,
        frac in 0.01f64..1.0,
        seed in 0u64..500,
    ) {
        use contention::session::{Algorithm, Session};
        let c = 1u32 << ce;
        let n = 1u64 << ne;
        let active = (((n as f64) * frac) as usize).clamp(1, 2000);
        for algo in [
            Algorithm::Paper(Params::practical()),
            Algorithm::CdTournament,
            Algorithm::BinaryDescent,
            Algorithm::Decay,
        ] {
            let res = Session::new(c, n)
                .algorithm(algo)
                .seed(seed)
                .run(active)
                .expect("resolves");
            prop_assert!(res.rounds().is_some(), "{}", algo.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The harness's distinct sampler is honest.
    #[test]
    fn sample_distinct_properties(universe in 1u64..10_000, frac in 0.0f64..1.0, seed in 0u64..1000) {
        let count = ((universe as f64) * frac) as usize;
        let sample = contention_harness::sample_distinct(universe, count, seed);
        prop_assert_eq!(sample.len(), count);
        let set: HashSet<u64> = sample.iter().copied().collect();
        prop_assert_eq!(set.len(), count);
        prop_assert!(sample.iter().all(|&x| x < universe));
    }
}
