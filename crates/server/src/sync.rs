//! Synchronization facade for the server crate (see `spectral-bloom`'s
//! `sync` module for the full rationale).
//!
//! The daemon's shared state — shutdown/drain flags, the remote-merge
//! filter lock, the reactors' inboxes and connection counts — goes
//! through this module, never
//! `std::sync` directly (enforced by `tests/static_guards.rs`), so
//! `RUSTFLAGS='--cfg sbf_modelcheck'` can rebind it to the in-workspace
//! model checker and keep the drain protocol model-checkable.

#[cfg(not(sbf_modelcheck))]
pub(crate) use std::sync::{Arc, Mutex, OnceLock, RwLock};

/// Atomic types, mirroring `std::sync::atomic`.
#[cfg(not(sbf_modelcheck))]
pub(crate) mod atomic {
    pub use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
}

#[cfg(sbf_modelcheck)]
pub(crate) use sbf_modelcheck::sync::{Arc, Mutex, OnceLock, RwLock};

/// Model atomic types (checker build).
#[cfg(sbf_modelcheck)]
pub(crate) mod atomic {
    pub use sbf_modelcheck::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
}

/// Unwraps a lock guard, propagating poisoning as a panic.
///
/// A poisoned lock means a thread panicked mid-mutation; serving the
/// half-written state would break the one-sided estimate contract, so the
/// daemon dies loudly instead (same policy as `spectral-bloom::sync`).
#[allow(clippy::expect_used)]
pub(crate) fn lock_unpoisoned<T>(r: std::sync::LockResult<T>) -> T {
    r.expect("lock poisoned: a thread panicked mid-mutation")
}
