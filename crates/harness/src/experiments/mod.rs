//! The experiment suite: one module per claim reproduced. See DESIGN.md §3
//! for the claim ↔ experiment index and EXPERIMENTS.md for recorded output.

pub mod e01_two_active_vs_n;
pub mod e02_two_active_vs_c;
pub mod e03_rename_geometric;
pub mod e04_split_check;
pub mod e05_reduce;
pub mod e06_id_reduction;
pub mod e07_balls_in_bins;
pub mod e08_leaf_election;
pub mod e09_full_vs_baselines;
pub mod e10_lower_bound_ratio;
pub mod e11_two_vs_general;
pub mod e12_wakeup;
pub mod e13_cohort_ablation;
pub mod e14_expected_time;
pub mod e15_energy;
pub mod e16_cd_modes;
pub mod e17_serve_all;
pub mod e18_fault_thresholds;
pub mod e19_supervised_recovery;
pub mod e20_sparse_scale;
pub mod e21_traffic_load;

use crate::{ExperimentReport, RunCtx};
use contention::theory::lg;

/// The tight two-node / lower-bound curve: `lg n / lg C + max(lg lg n, 1)`.
#[must_use]
pub fn theory_two_active(n: u64, c: u32) -> f64 {
    lg(n as f64) / lg(f64::from(c.max(2))) + lg(lg(n as f64)).max(1.0)
}

/// The general-algorithm curve of Theorem 4:
/// `lg n / lg C + lg lg n · max(lg lg lg n, 1)`.
#[must_use]
pub fn theory_general(n: u64, c: u32) -> f64 {
    let lglg = lg(lg(n as f64)).max(1.0);
    lg(n as f64) / lg(f64::from(c.max(2))) + lglg * lg(lglg).max(1.0)
}

/// A deterministic per-configuration seed base so that sweep points use
/// decorrelated seed ranges.
#[must_use]
pub fn seed_base(tag: &str, a: u64, b: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in tag.bytes().chain(a.to_le_bytes()).chain(b.to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Runs every experiment in the given context, in order.
///
/// # Panics
///
/// Panics with [`crate::SweepCancelled`] if the context's cancellation
/// token fires mid-run, and on record-store I/O errors.
#[must_use]
pub fn run_all(ctx: &RunCtx) -> Vec<ExperimentReport> {
    list()
        .iter()
        .map(|(id, _)| run_one(id, ctx).expect("registry ids resolve"))
        .collect()
}

/// Runs one experiment by id, wrapped in the context's record-store
/// begin/finish protocol: resumable rows are loaded before the run and the
/// final record file is written after. This is the entry point `repro`
/// uses; calling an experiment's `run` directly skips checkpointing.
///
/// # Panics
///
/// Panics with [`crate::SweepCancelled`] if the context's cancellation
/// token fires mid-run, and on record-store I/O errors.
#[must_use]
pub fn run_one(id: &str, ctx: &RunCtx) -> Option<ExperimentReport> {
    let runner = by_id(id)?;
    let canonical = canonical_id(id)?;
    ctx.begin_experiment(canonical);
    let report = runner(ctx);
    ctx.finish_experiment(&report);
    Some(report)
}

/// Normalizes any accepted id spelling (`"E07"`, `"e7"`) to the registry
/// form (`"e7"`), which doubles as the record-file stem.
#[must_use]
pub fn canonical_id(id: &str) -> Option<&'static str> {
    let norm = id.trim().to_lowercase();
    let norm = norm.strip_prefix('e').unwrap_or(&norm);
    let number: usize = norm.trim_start_matches('0').parse().ok()?;
    list().get(number.checked_sub(1)?).map(|(id, _)| *id)
}

/// All experiment ids with their one-line titles, in order.
#[must_use]
pub fn list() -> Vec<(&'static str, &'static str)> {
    vec![
        ("e1", "TwoActive vs n (Theorem 1)"),
        ("e2", "TwoActive vs C (Theorem 1 crossover)"),
        ("e3", "Renaming race tail (Lemma 2)"),
        ("e4", "SplitCheck probe count (Lemma 3)"),
        ("e5", "Reduce survivor counts (Theorem 5)"),
        ("e6", "IdReduction (Theorem 6, Lemmas 7-10)"),
        ("e7", "Balls-in-bins (Lemma 9)"),
        ("e8", "LeafElection (Theorem 17, Lemma 16)"),
        ("e9", "Full algorithm vs baselines (Theorem 4)"),
        ("e10", "Lower-bound ratio (optimality)"),
        ("e11", "TwoActive vs general on |A| = 2"),
        ("e12", "Wake-up transform (section 3)"),
        ("e13", "Coalescing-cohorts ablation"),
        ("e14", "Expected-O(1) with ~lg n channels (section 6)"),
        ("e15", "Transmission energy"),
        ("e16", "Collision-detection model matrix"),
        ("e17", "Serving all contenders (conflict resolution)"),
        ("e18", "Fault-injection breakdown thresholds"),
        ("e19", "Supervised recovery beyond the breakdown thresholds"),
        (
            "e20",
            "Sparse-scale curve: namespace 2^12..2^22 at fixed |A|",
        ),
        (
            "e21",
            "Dynamic-arrivals traffic: throughput and latency vs offered load",
        ),
    ]
}

/// Looks up a single experiment runner by id (`"e1"`, `"E07"`, …).
#[must_use]
pub fn by_id(id: &str) -> Option<fn(&RunCtx) -> ExperimentReport> {
    let norm = id.trim().to_lowercase();
    let norm = norm.strip_prefix('e').unwrap_or(&norm);
    match norm.trim_start_matches('0') {
        "1" => Some(e01_two_active_vs_n::run),
        "2" => Some(e02_two_active_vs_c::run),
        "3" => Some(e03_rename_geometric::run),
        "4" => Some(e04_split_check::run),
        "5" => Some(e05_reduce::run),
        "6" => Some(e06_id_reduction::run),
        "7" => Some(e07_balls_in_bins::run),
        "8" => Some(e08_leaf_election::run),
        "9" => Some(e09_full_vs_baselines::run),
        "10" => Some(e10_lower_bound_ratio::run),
        "11" => Some(e11_two_vs_general::run),
        "12" => Some(e12_wakeup::run),
        "13" => Some(e13_cohort_ablation::run),
        "14" => Some(e14_expected_time::run),
        "15" => Some(e15_energy::run),
        "16" => Some(e16_cd_modes::run),
        "17" => Some(e17_serve_all::run),
        "18" => Some(e18_fault_thresholds::run),
        "19" => Some(e19_supervised_recovery::run),
        "20" => Some(e20_sparse_scale::run),
        "21" => Some(e21_traffic_load::run),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theory_curves_are_monotone_sensibly() {
        assert!(theory_two_active(1 << 20, 4) > theory_two_active(1 << 10, 4));
        assert!(theory_two_active(1 << 20, 1024) < theory_two_active(1 << 20, 4));
        assert!(theory_general(1 << 20, 4) >= theory_two_active(1 << 20, 4));
    }

    #[test]
    fn seed_bases_differ() {
        assert_ne!(seed_base("a", 1, 2), seed_base("a", 2, 1));
        assert_ne!(seed_base("a", 1, 2), seed_base("b", 1, 2));
        assert_eq!(seed_base("a", 1, 2), seed_base("a", 1, 2));
    }

    #[test]
    fn list_is_complete_and_resolvable() {
        let listed = list();
        assert_eq!(listed.len(), 21);
        for (id, title) in listed {
            assert!(by_id(id).is_some(), "{id} listed but unresolvable");
            assert!(!title.is_empty());
        }
    }

    #[test]
    fn canonical_ids_normalize_to_registry_form() {
        assert_eq!(canonical_id("E07"), Some("e7"));
        assert_eq!(canonical_id("e7"), Some("e7"));
        assert_eq!(canonical_id(" e18 "), Some("e18"));
        assert_eq!(canonical_id("e19"), Some("e19"));
        assert_eq!(canonical_id("e20"), Some("e20"));
        assert_eq!(canonical_id("e21"), Some("e21"));
        assert_eq!(canonical_id("e22"), None);
        assert_eq!(canonical_id("banana"), None);
    }

    #[test]
    fn by_id_resolves_all_twenty_one() {
        for i in 1..=21 {
            assert!(by_id(&format!("e{i}")).is_some(), "e{i} missing");
            assert!(by_id(&format!("E{i:02}")).is_some(), "E{i:02} missing");
        }
        assert!(by_id("e22").is_none());
        assert!(by_id("banana").is_none());
    }
}
