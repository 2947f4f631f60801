//! Reproduction harness for the SBF paper's evaluation (Section 6).
//!
//! Every table and figure has a generator in [`experiments`], surfaced by
//! the `repro` binary (`cargo run -p sbf-bench --release --bin repro -- all`).
//! [`metrics`] holds the error measures the paper reports — the mean
//! squared additive error `E_add = √(Σ (f̂−f)²/n)` and the error ratio
//! (fraction of erroneous queries) — and the algorithm runners that feed
//! identical streams to Minimum Selection, Minimal Increase and Recurring
//! Minimum under space-fair budgets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod metrics;

pub use metrics::{AccuracyMetrics, Algo};
