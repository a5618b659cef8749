//! Cross-crate integration: the full pipeline end to end, step hand-offs,
//! and agreement between the harness experiments and the core library.

use contention::{
    FullAlgorithm, IdReduction, IdReductionOutcome, LeafElection, Params, Reduce, ReduceOutcome,
    TwoActive,
};
use contention_harness::{sample_distinct, RunCtx, Scale};
use mac_sim::trials::fan_out;
use mac_sim::{Engine, Protocol as _, SimConfig, Status, StopWhen};
use std::collections::HashSet;

/// The whole pipeline, across a grid of (n, C, |A|), always elects at most
/// one leader, solves the problem, and leaves nobody active.
#[test]
fn full_pipeline_grid() {
    for &(c, n, active) in &[
        (8u32, 1u64 << 8, 3usize),
        (16, 1 << 10, 50),
        (64, 1 << 12, 500),
        (256, 1 << 14, 2000),
        (1024, 1 << 16, 1000),
    ] {
        let cfg = SimConfig::new(c)
            .seed(99)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(1_000_000);
        let mut exec = Engine::new(cfg)
            .populated((0..active).map(|_| FullAlgorithm::new(Params::practical(), c, n)));
        let report = exec.run().expect("pipeline runs");
        assert!(report.is_solved(), "C={c} n={n} |A|={active}");
        assert!(report.leaders.len() <= 1, "C={c}: {:?}", report.leaders);
        assert!(report.active_remaining.is_empty());
    }
}

/// Manually chain the three steps the way `FullAlgorithm` does, verifying
/// the contracts at each hand-off: Reduce's survivors are few; IdReduction
/// renames them uniquely into [C/2]; LeafElection elects exactly one.
#[test]
fn step_contracts_chain_manually() {
    let (c, n, active) = (128u32, 1u64 << 12, 800usize);

    // Step 1: Reduce. A seed usually ends with a leader instead of
    // survivors (with |A| << n the early low-probability rounds make a lone
    // broadcast — which already solves the problem — the likely outcome),
    // so search seeds for the uncommon run that hands survivors to step 2.
    let mut survivors = 0usize;
    for seed in 0..200u64 {
        let cfg = SimConfig::new(1)
            .seed(seed)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(10_000);
        let mut exec = Engine::new(cfg).populated((0..active).map(|_| Reduce::new(n)));
        let report = exec.run().expect("reduce runs");
        let survived = exec
            .iter_nodes()
            .filter(|r| r.outcome() == Some(ReduceOutcome::Survived))
            .count();
        let led = report.leaders.len();
        assert!(survived + led >= 1, "seed {seed}: Reduce wiped everyone");
        assert!(
            survived <= 12 * 12,
            "seed {seed}: Reduce left too many: {survived}"
        );
        if survived >= 2 {
            survivors = survived;
            break;
        }
    }
    assert!(survivors >= 2, "no seed in 0..200 produced plain survivors");

    // Step 2: IdReduction over the survivors.
    let cfg = SimConfig::new(c)
        .seed(6)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(100_000);
    let mut exec = Engine::new(cfg)
        .populated((0..survivors).map(|_| IdReduction::new(Params::practical(), c)));
    exec.run().expect("id reduction runs");
    let ids: Vec<u32> = exec
        .iter_nodes()
        .filter_map(|p| match p.outcome().expect("terminated") {
            IdReductionOutcome::Renamed(id) => Some(id),
            IdReductionOutcome::Eliminated => None,
        })
        .collect();
    assert!(!ids.is_empty());
    let set: HashSet<u32> = ids.iter().copied().collect();
    assert_eq!(set.len(), ids.len(), "duplicate ids from IdReduction");
    assert!(ids.iter().all(|&id| id >= 1 && id <= c / 2));

    // Step 3: LeafElection over the renamed ids.
    let cfg = SimConfig::new(c)
        .seed(7)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(100_000);
    let mut exec = Engine::new(cfg).populated(ids.iter().map(|&id| LeafElection::new(c, id)));
    let report = exec.run().expect("leaf election runs");
    assert_eq!(report.leaders.len(), 1);
    assert!(report.is_solved());
}

/// The two-node specialist and the general algorithm agree on the contract
/// (exactly one leader) for the restricted case, across seeds.
#[test]
fn specialist_and_generalist_agree_on_two_nodes() {
    for seed in 0..15 {
        let (c, n) = (64u32, 1u64 << 12);
        for use_specialist in [true, false] {
            let cfg = SimConfig::new(c)
                .seed(seed)
                .stop_when(StopWhen::AllTerminated)
                .max_rounds(1_000_000);
            let leaders = if use_specialist {
                let mut exec =
                    Engine::new(cfg).populated([TwoActive::new(c, n), TwoActive::new(c, n)]);
                exec.run().expect("runs").leaders.len()
            } else {
                let mut exec = Engine::new(cfg).populated([
                    FullAlgorithm::new(Params::practical(), c, n),
                    FullAlgorithm::new(Params::practical(), c, n),
                ]);
                exec.run().expect("runs").leaders.len()
            };
            assert!(
                leaders <= 1,
                "seed {seed} specialist={use_specialist}: {leaders} leaders"
            );
        }
    }
}

/// The harness's trial runner, sampling, and the core crate compose: run a
/// LeafElection sweep through the harness API and check its invariants.
#[test]
fn harness_drives_core_correctly() {
    let c = 128u32;
    let winners: Vec<u32> = fan_out(10, 42, None, |seed| {
        let cfg = SimConfig::new(c)
            .seed(seed)
            .stop_when(StopWhen::AllTerminated)
            .max_rounds(100_000);
        let mut exec = Engine::new(cfg).populated(
            sample_distinct(64, 20, seed)
                .into_iter()
                .map(|id| LeafElection::new(c, id as u32 + 1)),
        );
        let report = exec.run().expect("runs");
        assert_eq!(report.leaders.len(), 1);
        exec.node(report.leaders[0]).cohort_size()
    });
    // Winners coalesced at least once in every trial (20 actives).
    assert!(winners.iter().all(|&size| size >= 2), "{winners:?}");
}

/// Quick-scale experiments run end to end and produce non-empty reports.
/// (The cheap ones only — the expensive sweeps run in `repro`/benches.)
#[test]
fn quick_experiments_produce_reports() {
    use contention_harness::experiments;
    for id in ["e3", "e4", "e7"] {
        let runner = experiments::by_id(id).expect("known id");
        let report = runner(&RunCtx::new(Scale::Quick));
        assert!(!report.sections.is_empty(), "{id}: no sections");
        assert!(
            report.sections.iter().all(|s| !s.table.is_empty()),
            "{id}: empty table"
        );
    }
}

/// Leaders reported by the executor are consistent with node-level status.
#[test]
fn leader_report_matches_node_status() {
    let cfg = SimConfig::new(32)
        .seed(3)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(100_000);
    let mut exec = Engine::new(cfg)
        .populated((0..100).map(|_| FullAlgorithm::new(Params::practical(), 32, 1 << 10)));
    let report = exec.run().expect("runs");
    let by_status: Vec<usize> = exec
        .iter_nodes()
        .enumerate()
        .filter(|(_, p)| p.status() == Status::Leader)
        .map(|(i, _)| i)
        .collect();
    let by_report: Vec<usize> = report.leaders.iter().map(|id| id.0).collect();
    assert_eq!(by_status, by_report);
}

/// Every experiment produces a non-empty report at quick scale — the full
/// harness exercised end to end. (Release-profile CI runs this in seconds;
/// debug takes a couple of minutes, which is still acceptable for a suite
/// gate.)
#[test]
fn all_experiments_render_at_quick_scale() {
    use contention_harness::experiments;
    let reports = experiments::run_all(&RunCtx::new(Scale::Quick));
    assert_eq!(reports.len(), 21);
    for report in &reports {
        assert!(!report.sections.is_empty(), "{}: no sections", report.id);
        for section in &report.sections {
            assert!(
                !section.table.is_empty(),
                "{}/{}: empty table",
                report.id,
                section.caption
            );
        }
        assert!(report.to_markdown().contains(report.id));
    }
}
