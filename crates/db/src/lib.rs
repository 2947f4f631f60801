//! Mini relational substrate for the SBF paper's database applications.
//!
//! The paper's §5.3 (Spectral Bloomjoins) and §5.4 (bifocal sampling) run
//! against distributed database machinery the paper assumes; this crate
//! builds it:
//!
//! * [`relation`] — relations of `(join-key, payload)` tuples with group
//!   counts,
//! * [`hashtable`] — a chained hash table with pluggable hash functions,
//!   the stand-in for the LEDA table of §6.4's performance and storage
//!   comparisons,
//! * [`network`] — byte- and message-level accounting for simulated
//!   site-to-site transfers (the currency Bloomjoins optimize),
//! * [`wire`] — compact wire encoding of SBF counter vectors (Elias δ), so
//!   the "filter as a message" scenario of §4.7.1 is exercised end-to-end,
//! * [`framing`] — the single checked `u32` length narrowing the wire
//!   protocol and the log records route through,
//! * [`logrec`] — CRC-framed log records layered on the wire encoding, the
//!   on-disk grammar of the `sbfd` write-ahead log,
//! * [`join`] — three distributed join/aggregation strategies over two
//!   sites: ship-everything, classic Bloomjoin \[ML86\], and the paper's
//!   Spectral Bloomjoin (one SBF transfer, zero feedback rounds),
//! * [`bifocal`] — bifocal sampling join-size estimation \[GGMS96\] with the
//!   SBF replacing the t-index,
//! * [`cache`] — the Summary-Cache and attenuated-filter distributed cache
//!   schemes the paper's introduction surveys (§1.1.1),
//! * [`diff_file`] — the Bloom-guarded differential file of §1.1.2.

// Library code must surface failures as `Result`/documented panics, never
// ad-hoc `unwrap`/`expect` (ISSUE 4 lint wall); tests keep idiomatic unwraps.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bifocal;
pub mod cache;
pub mod diff_file;
pub mod framing;
pub mod hashtable;
pub mod join;
pub mod logrec;
pub mod metrics;
pub mod network;
pub mod relation;
pub mod wire;

pub use bifocal::{bifocal_estimate, exact_join_size, BifocalConfig};
pub use cache::{AttenuatedFilter, CacheNode, SbfCacheNode, SummaryCacheCluster};
pub use diff_file::GuardedStore;
pub use framing::EncodeError;
pub use hashtable::ChainedHashTable;
pub use join::{
    bloomjoin, multiway_spectral_join, ship_all_join, spectral_bloomjoin,
    spectral_bloomjoin_verified, threshold_groups, JoinOutcome, JoinPlan,
};
pub use metrics::{db_metrics, DbMetrics};
pub use network::Network;
pub use relation::Relation;
