//! # contention-harness — the experiment suite
//!
//! The paper is a theory paper: its "results" are theorem bounds, not
//! benchmark tables. This crate regenerates every one of those bounds
//! empirically — each experiment sweeps a workload, measures rounds on the
//! `mac-sim` substrate, and prints the paper-vs-measured rows recorded in
//! `EXPERIMENTS.md`. See DESIGN.md §3 for the experiment ↔ claim index.
//!
//! | Experiment | Claim |
//! |---|---|
//! | [`experiments::e01_two_active_vs_n`] | Thm 1 round scaling in `n` |
//! | [`experiments::e02_two_active_vs_c`] | Thm 1 round scaling in `C` |
//! | [`experiments::e03_rename_geometric`] | Lemma 2 geometric tail |
//! | [`experiments::e04_split_check`] | Lemma 3 deterministic search cost |
//! | [`experiments::e05_reduce`] | Thm 5 survivor bound |
//! | [`experiments::e06_id_reduction`] | Thm 6 / Lemmas 7–10 |
//! | [`experiments::e07_balls_in_bins`] | Lemma 9 bound |
//! | [`experiments::e08_leaf_election`] | Thm 17 / Lemma 16 |
//! | [`experiments::e09_full_vs_baselines`] | Thm 4 + §2 landscape |
//! | [`experiments::e10_lower_bound_ratio`] | Optimality vs the \[14\] bound |
//! | [`experiments::e11_two_vs_general`] | §4 vs §5 on `|A| = 2` |
//! | [`experiments::e12_wakeup`] | §3 staggered-start transform |
//! | [`experiments::e13_cohort_ablation`] | Coalescing-cohorts speed-up |
//! | [`experiments::e14_expected_time`] | §6: expected O(1) with ~lg n channels |
//! | [`experiments::e15_energy`] | transmission-energy landscape |
//! | [`experiments::e16_cd_modes`] | collision-detection model matrix |
//! | [`experiments::e17_serve_all`] | serving all contenders (conflict resolution) |
//! | [`experiments::e18_fault_thresholds`] | breakdown thresholds under injected faults |
//!
//! Run them all with the `repro` binary:
//!
//! ```text
//! cargo run --release -p contention-harness --bin repro -- --quick
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod record;
mod report;
mod runner;
mod scale;
mod stats;

pub use record::RecordStore;
pub use report::{ExperimentReport, Section};
pub use runner::{cell_f64, cell_u64, sample_distinct, ProgressHub, RunCtx, Sweep, SweepCancelled};
pub use scale::Scale;
pub use stats::Samples;
