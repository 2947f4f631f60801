//! **Spectral Bloom Filters** — a faithful, production-grade implementation
//! of Cohen & Matias, *Spectral Bloom Filters*, SIGMOD 2003.
//!
//! A Spectral Bloom Filter (SBF) replaces the bit vector of a Bloom filter
//! with a vector of `m` counters, turning set membership into *multiset
//! multiplicity*: for any key `x` the filter returns an estimate
//! `f̂_x ≥ f_x` that is exact except with probability roughly the Bloom
//! error `E_b = (1 − e^{−kn/m})^k`. Errors are strictly one-sided, so a
//! threshold test `f_x ≥ T` never yields false negatives — the property
//! the paper's ad-hoc iceberg queries, spectral Bloomjoins and bifocal
//! sampling all build on.
//!
//! # Choosing an algorithm
//!
//! | Type | Paper § | Inserts | Deletes | Accuracy |
//! |---|---|---|---|---|
//! | [`MsSbf`] | 2.2 | ✔ | ✔ | baseline (Minimum Selection) |
//! | [`MiSbf`] | 3.2 | ✔ | ✖ (false negatives!) | best for insert-only |
//! | [`RmSbf`] | 3.3 | ✔ | ✔ | much better than MS, supports deletes |
//! | [`TrappingRmSbf`] | 3.3.1 | ✔ | ✔ | RM + late-detection compensation |
//!
//! All algorithms implement [`MultisetSketch`] (updates) over the
//! [`SketchReader`] query supertrait — which the concurrent
//! [`ShardedSketch`] also implements —
//! and are generic over the hash family (`sbf-hash`) and over the counter
//! storage: [`PlainCounters`] (one word per counter, fastest) or
//! [`CompressedCounters`] (the §4 String-Array-Index representation at
//! `N + o(N) + O(m)` bits).
//!
//! # Quick start
//!
//! Prefer sizing through [`SbfParams`] + [`FromParams`] over the positional
//! `new(m, k, seed)` constructors:
//!
//! ```
//! use spectral_bloom::{FromParams, MsSbf, MultisetSketch, SbfParams, SketchReader};
//!
//! let params = SbfParams::for_capacity(2_000).with_target_error(0.01);
//! let mut sbf = MsSbf::from_params(&params, 42);
//! sbf.insert(&"apple");
//! sbf.insert_by(&"apple", 99);
//! sbf.insert(&"pear");
//! assert!(sbf.estimate(&"apple") >= 100);    // one-sided
//! assert_eq!(sbf.estimate(&"plum"), 0);      // w.h.p.
//! sbf.remove(&"pear").unwrap();
//! ```
//!
//! # Telemetry
//!
//! Hot paths are instrumented behind [`sbf_telemetry::enabled`] (default
//! off; one relaxed load + predictable branch when disabled). See
//! [`metrics`] for the metric-name table and
//! [`ShardedSketch::publish_metrics`] for per-shard gauges.

// Library code must surface failures as `Result`/documented panics, never
// ad-hoc `unwrap`/`expect` (ISSUE 4 lint wall); tests keep idiomatic unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::as_conversions))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod bloom;
pub mod core_ops;
pub mod estimator;
pub mod iceberg;
pub mod metrics;
pub mod mi;
pub mod ms;
pub mod num;
pub mod paged;
pub mod params;
pub mod range;
pub mod rm;
pub mod sharded;
pub mod sketch;
pub mod spectrum;
pub mod store;
pub mod sync;
pub mod trap;
pub mod window;

pub use bloom::BloomFilter;
pub use core_ops::{SbfCore, PIPELINE_DEPTH};
pub use estimator::{median_of_means_estimate, rm_combined_estimate, unbiased_estimate};
pub use iceberg::{
    ad_hoc_iceberg, adaptive_multiscan_iceberg, multiscan_iceberg, MultiscanConfig,
    StreamingIceberg, TopKTracker,
};
pub use metrics::{core_metrics, CoreMetrics};
pub use mi::MiSbf;
pub use ms::{BlockedMsSbf, MsSbf};
pub use paged::{IoStats, PagedCounters};
pub use params::{bloom_error_rate, optimal_k, FromParams, SbfParams};
pub use range::RangeTreeSketch;
pub use rm::RmSbf;
pub use sharded::{ShardMerge, ShardedSketch};
pub use sketch::{MultisetSketch, SketchReader};
pub use spectrum::{frequency_histogram, profile, SpectrumProfile};
pub use store::{CompactCounters, CompressedCounters, CounterStore, PlainCounters, RemoveError};
pub use trap::TrappingRmSbf;
pub use window::SlidingWindowSbf;

/// The default hash family used by the convenience constructors.
pub type DefaultFamily = sbf_hash::MixFamily;
