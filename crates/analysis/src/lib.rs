//! # contention-analysis — statistics and reporting for the experiments
//!
//! Small, dependency-light building blocks used by the experiment harness:
//!
//! * [`stats`] — the Kolmogorov–Smirnov distance of a round-count sample
//!   from a predicted law (cell summaries are the harness's `Samples`);
//! * [`fit`] — least-squares fits of measured rounds against the paper's
//!   theory curves (e.g. `a·(lg n / lg C) + b·lg lg n + c`), used to check
//!   *shape*, not absolute constants;
//! * [`table`] — markdown table rendering for `EXPERIMENTS.md` and the
//!   `repro` binary's stdout;
//! * [`tail`] — empirical tail probabilities for the paper's
//!   with-high-probability claims;
//! * [`balls`] — the balls-in-bins Monte Carlo behind Lemma 9.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod balls;
pub mod fit;
pub mod stats;
pub mod table;
pub mod tail;

pub use balls::no_lone_ball_probability;
pub use fit::{fit_linear, fit_two_term, threshold_crossing, Fit};
pub use table::Table;
pub use tail::exceed_fraction;
