//! **E17** (extension) — serving *all* contenders, the original
//! conflict-resolution problem (ALOHA onward; the paper's refs \[9, 13\]).
//! Three strategies drain the same burst:
//!
//! * `SerializeAll` around the paper's pipeline — every delivery inherits
//!   the multi-channel speed-up;
//! * `SerializeAll` around the single-channel tournament — the adaptive
//!   `O(log k)`-per-epoch generic alternative;
//! * the deterministic Capetanakis `TreeSplit` — the classic
//!   `O(k + k·log(n/k))` benchmark.
//!
//! The interesting read-out is rounds **per packet** as a function of
//! burst density `k/n`.

use contention::baselines::{CdTournament, TreeSplit};
use contention::serialize::SerializeAll;
use contention::{FullAlgorithm, Params};
use mac_sim::campaign::SeedStream;
use mac_sim::{Engine, Protocol, SimConfig, StopWhen};

use super::{run_trial, seed_base};
use crate::{ExperimentReport, RunCtx, Samples};

/// Rounds until every node of one drain on `c` channels has terminated.
fn drain_rounds<P: Protocol>(c: u32, seed: u64, nodes: impl IntoIterator<Item = P>) -> u64 {
    let cfg = SimConfig::new(c)
        .seed(seed)
        .stop_when(StopWhen::AllTerminated)
        .max_rounds(10_000_000);
    run_trial(&mut Engine::new(cfg).populated(nodes)).rounds_executed
}

/// One pipeline-serializer drain of a `k`-packet burst.
fn pipeline_drain_one(c: u32, n: u64, k: usize, seed: u64) -> u64 {
    let factory = move || FullAlgorithm::new(Params::practical(), c, n);
    drain_rounds(
        c,
        seed,
        (0..k as u32).map(|payload| SerializeAll::new(factory, payload)),
    )
}

/// One tournament-serializer drain.
fn tournament_drain_one(k: usize, seed: u64) -> u64 {
    drain_rounds(
        1,
        seed,
        (0..k as u32).map(|payload| SerializeAll::new(CdTournament::new, payload)),
    )
}

/// One deterministic tree-split drain. Random id placement: evenly spaced
/// ids would be the DFS's best case (every singleton subtree resolves in
/// one probe); random placement is the fair workload for the
/// O(k·log(n/k)) claim.
fn tree_split_drain_one(n: u64, k: usize, seed: u64) -> u64 {
    drain_rounds(
        1,
        seed,
        crate::sample_distinct(n, k, seed ^ 0x17)
            .into_iter()
            .map(|id| TreeSplit::new(id, n)),
    )
}

/// Runs the experiment.
#[must_use]
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let scale = ctx.scale;
    let mut report = ExperimentReport::new(
        "E17",
        "Serving all contenders: per-packet cost of three strategies",
    );
    let n = 1u64 << 12;
    let c = 64u32;
    let trials = scale.trials().min(15);

    let caption = format!("Rounds per packet, n = 2^12, C = {c} (pipeline only)");
    let mut sweep = ctx.sweep::<(Samples, Samples, Samples)>(
        &caption,
        &[
            "k (packets)",
            "k/n",
            "pipeline serializer (r/pkt)",
            "tournament serializer (r/pkt)",
            "tree split (r/pkt)",
        ],
    );
    for &k in &scale.thin(&[16usize, 64, 256, 1024]) {
        // Big bursts cost O(k) epochs each; scale trials down so every grid
        // point costs roughly the same wall time.
        let kt = trials.max(3) * 64 / k.max(64);
        let kt = kt.clamp(3, trials);
        let pb = seed_base("e17p", k as u64, n);
        let tb = seed_base("e17t", k as u64, n);
        let sb = seed_base("e17s", k as u64, n);
        sweep.row(
            kt,
            SeedStream::Offset(0),
            <(Samples, Samples, Samples)>::default,
            move |i, acc| {
                acc.0.push(pipeline_drain_one(c, n, k, pb.wrapping_add(i)));
                acc.1.push(tournament_drain_one(k, tb.wrapping_add(i)));
                acc.2.push(tree_split_drain_one(n, k, sb.wrapping_add(i)));
            },
            move |(pipeline, tournament, tree)| {
                #[allow(clippy::cast_precision_loss)]
                let per = |s: &Samples| s.mean() / k as f64;
                #[allow(clippy::cast_precision_loss)]
                let density = k as f64 / n as f64;
                vec![
                    k.to_string(),
                    format!("{density:.3}"),
                    format!("{:.1}", per(&pipeline)),
                    format!("{:.1}", per(&tournament)),
                    format!("{:.1}", per(&tree)),
                ]
            },
        );
    }
    report.section(caption, sweep.run());
    report.note(
        "Tree splitting — the one strategy here that consumes unique ids — is the \
         efficiency reference at every density (O(k + k·log(n/k)) total). Among the \
         id-free strategies, the tournament serializer pays ~2·lg k per packet while \
         the pipeline serializer is governed by n, flat in k: the two cross near \
         k ≈ 2^8, the same density story as E9 but for full service."
            .to_string(),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    #[test]
    fn all_three_strategies_drain() {
        let n = 1u64 << 10;
        let k = 32usize;
        let ctx = RunCtx::new(Scale::Quick);
        assert!(!ctx
            .trials("pipeline", 2, 1, |s| pipeline_drain_one(16, n, k, s))
            .is_empty());
        assert!(!ctx
            .trials("tournament", 2, 1, |s| tournament_drain_one(k, s))
            .is_empty());
        assert!(!ctx
            .trials("tree split", 2, 1, |s| tree_split_drain_one(n, k, s))
            .is_empty());
    }

    #[test]
    fn tree_split_flat_per_packet_when_dense() {
        let n = 1u64 << 10;
        let drain =
            RunCtx::new(Scale::Quick).trials("dense", 1, 0, |s| tree_split_drain_one(n, 1024, s));
        let dense = drain[0] as f64 / 1024.0;
        assert!(
            dense <= 3.0,
            "dense tree split should be ~2 rounds/packet: {dense}"
        );
    }

    #[test]
    fn report_renders() {
        let r = run(&RunCtx::new(Scale::Quick));
        assert_eq!(r.sections.len(), 1);
        assert!(!r.notes.is_empty());
    }
}
