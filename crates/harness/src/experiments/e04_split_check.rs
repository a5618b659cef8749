//! **E4** — Lemma 3: `SplitCheck` is a deterministic binary search over the
//! `lg C + 1` levels of the channel tree, so it costs `O(log log C)` probe
//! rounds regardless of which two leaves are occupied.
//!
//! The probe count is a pure function of the tree height `h` and the
//! divergence level `L`; we enumerate it exhaustively for every `L` and
//! cross-check against real protocol executions.

use contention::theory::split_check_budget;
use contention::tree::ChannelTree;
use contention::TwoActive;
use contention_analysis::Table;
use mac_sim::{Engine, SimConfig, StopWhen};

use super::{run_trial, seed_base};
use crate::{ExperimentReport, RunCtx};
use mac_sim::trials::fan_out;

/// Probe rounds `SplitCheck` spends to locate divergence level `target` in
/// a tree of height `h` — the recursion of Fig. 1, counted exactly.
#[must_use]
pub fn split_check_probes(h: u32, target: u32) -> u32 {
    assert!(target >= 1 && target <= h, "divergence level in 1..=h");
    let (mut l, mut r, mut probes) = (0u32, h, 0u32);
    while l < r {
        let m = (l + r) / 2;
        probes += 1;
        if target > m {
            // Collision: paths still shared at level m.
            l = m + 1;
        } else {
            r = m;
        }
    }
    debug_assert_eq!(l, target);
    probes
}

/// Runs the experiment.
///
/// The probe table is pure math (no trials); the protocol cross-check runs
/// on the trial layer, which is itself a single-cell campaign.
#[must_use]
pub fn run(ctx: &RunCtx) -> ExperimentReport {
    let scale = ctx.scale;
    let mut report = ExperimentReport::new(
        "E4",
        "SplitCheck probe count (Lemma 3: deterministic O(log log C))",
    );
    let cs: Vec<u32> = scale.thin(&[4, 16, 64, 256, 1024, 4096, 1 << 14]);

    let mut table = Table::new(&[
        "C",
        "h = lg C",
        "min probes",
        "max probes",
        "budget ⌈lg h⌉+1",
    ]);
    for &c in &cs {
        let h = ChannelTree::new(c).height();
        let probes: Vec<u32> = (1..=h).map(|t| split_check_probes(h, t)).collect();
        let budget = split_check_budget(h);
        table.row_owned(vec![
            c.to_string(),
            h.to_string(),
            probes.iter().min().expect("nonempty").to_string(),
            probes.iter().max().expect("nonempty").to_string(),
            budget.to_string(),
        ]);
    }
    report.section("Exhaustive probe counts over all divergence levels", table);

    // Cross-check against real executions at one configuration.
    let c = 1024u32;
    let measured: Vec<(u32, u32, u64)> = fan_out(
        scale.trials(),
        seed_base("e4", u64::from(c), 0),
        None,
        |s| {
            let cfg = SimConfig::new(c)
                .seed(s)
                .stop_when(StopWhen::AllTerminated)
                .max_rounds(100_000);
            let mut exec = Engine::new(cfg)
                .populated([TwoActive::new(c, 1 << 20), TwoActive::new(c, 1 << 20)]);
            run_trial(&mut exec);
            let stats: Vec<_> = exec.iter_nodes().map(TwoActive::stats).collect();
            (
                stats[0].adopted_id.expect("renamed"),
                stats[1].adopted_id.expect("renamed"),
                stats[0].search_rounds,
            )
        },
    );
    let tree = ChannelTree::new(c);
    let mut mismatches = 0usize;
    for &(a, b, rounds) in &measured {
        let level = tree.divergence_level(a, b).expect("distinct ids");
        if u64::from(split_check_probes(tree.height(), level)) != rounds {
            mismatches += 1;
        }
    }
    report.note(format!(
        "Protocol cross-check at C=1024: {} of {} executions matched the closed-form \
         probe count exactly.",
        measured.len() - mismatches,
        measured.len()
    ));
    assert_eq!(mismatches, 0, "protocol probes diverge from the recursion");
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_count_is_within_lg_h_plus_one() {
        for h in 1..=20u32 {
            let budget = split_check_budget(h);
            for target in 1..=h {
                let p = split_check_probes(h, target);
                assert!(p <= budget, "h={h} target={target}: {p} > {budget}");
                assert!(p >= 1);
            }
        }
    }

    #[test]
    fn height_one_needs_exactly_one_probe() {
        assert_eq!(split_check_probes(1, 1), 1);
    }

    #[test]
    #[should_panic(expected = "divergence level")]
    fn target_zero_rejected() {
        let _ = split_check_probes(4, 0);
    }

    #[test]
    fn report_renders_and_cross_check_passes() {
        let r = run(&crate::RunCtx::new(crate::Scale::Quick));
        assert_eq!(r.sections.len(), 1);
        assert!(!r.notes.is_empty());
    }
}
