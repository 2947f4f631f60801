//! Synchronization facade: the single point where this crate's concurrent
//! code binds to either `std::sync` or the in-workspace model checker.
//!
//! Every mutex, rwlock and shared handle used by the concurrent layer
//! ([`crate::sharded`], [`crate::metrics`]) is imported from here, never
//! from `std::sync` directly (enforced by `sbf-lint`'s sync-facade pass).
//! Normal builds re-export `std` types with zero overhead; under
//! `RUSTFLAGS='--cfg sbf_modelcheck'` the same paths resolve to
//! `sbf-modelcheck`'s model types, so the exhaustive interleaving tests in
//! `tests/modelcheck_suite.rs` exercise the exact production code.

#[cfg(not(sbf_modelcheck))]
pub use std::sync::{Arc, Mutex, OnceLock, RwLock};

#[cfg(sbf_modelcheck)]
pub use sbf_modelcheck::sync::{Arc, Mutex, OnceLock, RwLock};

/// Unwraps a lock guard, propagating poisoning as a panic.
///
/// Poisoning means another thread panicked mid-mutation: a shard may hold a
/// half-applied batch, and serving that data would silently break the
/// one-sided `f̂ ≥ f` contract — so readers and writers die loudly instead
/// (the crate-wide `expect_used` lint funnels every lock acquisition
/// through here, where that choice is documented once).
#[allow(clippy::expect_used)]
pub(crate) fn lock_unpoisoned<T>(r: std::sync::LockResult<T>) -> T {
    r.expect("lock poisoned: a thread panicked mid-mutation")
}
