//! # contention-bench — cross-crate tests and examples
//!
//! This crate hosts the workspace-level integration tests under `/tests`
//! and the runnable examples under `/examples`.
//!
//! The *round counts* the paper is about are regenerated by the `repro`
//! binary of `contention-harness`; host time, end to end and layer by
//! layer, is measured by the separate `perfbench` package.
//!
//! The library itself is empty.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
