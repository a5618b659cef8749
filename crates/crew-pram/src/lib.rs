//! # crew-pram — a CREW PRAM simulator and Snir's parallel search
//!
//! The third step of the paper's general algorithm (`LeafElection`, §5.3)
//! accelerates its level searches by *simulating a CREW PRAM parallel search
//! algorithm* — Snir's classic `(p+1)`-ary search (SIAM J. Comput., 1985,
//! reference \[16\] of the paper) — with the members of a *coalescing cohort*
//! playing the role of the `p` processors.
//!
//! This crate builds that substrate for real:
//!
//! * [`Machine`] — a synchronous **C**oncurrent-**R**ead
//!   **E**xclusive-**W**rite PRAM: shared memory of integer words, a set of
//!   [`Processor`] state machines stepping in lock-step, and *runtime
//!   enforcement* of the exclusive-write rule (two writes to one cell in one
//!   step abort the run with [`PramError::WriteConflict`]).
//! * [`search`] — Snir's `(p+1)`-ary search implemented as a PRAM program,
//!   which finds the boundary of a monotone predicate over `N` positions in
//!   `Θ(log N / log(p+1))` iterations. The distributed `SplitSearch` of the
//!   paper is a round-for-round simulation of this program, and the property
//!   tests in the `contention` crate cross-check the two against each other.
//!
//! ## Example: parallel lower bound
//!
//! ```
//! use crew_pram::search::{snir_lower_bound, SearchReport};
//!
//! # fn main() -> Result<(), crew_pram::PramError> {
//! let sorted = vec![1, 3, 3, 7, 20, 41];
//! let SearchReport { index, iterations, .. } = snir_lower_bound(&sorted, 7, 3)?;
//! assert_eq!(index, 3);          // first position with value >= 7
//! assert!(iterations <= 2);      // 4-ary search over 7 boundary slots
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod machine;
pub mod search;

pub use error::PramError;
pub use machine::{Machine, MemView, Processor, StepOutcome, Word, Write};
