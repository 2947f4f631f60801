//! `sbf-modelcheck` — a dependency-free, loom-style model checker for the
//! workspace's concurrent protocols.
//!
//! The crates registry is unreachable in this build environment, so the
//! usual tool for this job (`loom`) is out of reach; this crate implements
//! the same idea on `std` alone:
//!
//! * [`sync::atomic`] provides model `AtomicU64` / `AtomicUsize` /
//!   `AtomicBool` that keep each location's full store history. A load
//!   with a weak ordering may return *any* coherent stale value — the
//!   scheduler enumerates them — while vector-clock happens-before
//!   tracking prunes values that a `Release`/`Acquire` (or lock) edge has
//!   already synchronized away.
//! * [`sync`] provides model `Mutex` / `RwLock` whose block/unblock
//!   transitions are scheduler events (lock-order deadlocks are found
//!   exhaustively, with a replay schedule).
//! * [`thread`] provides model `spawn`/`join` with the matching
//!   happens-before edges.
//! * [`Checker`] explores bounded thread interleavings depth-first with
//!   iterative deepening over the *preemption bound* (the CHESS
//!   discipline): counterexamples with the fewest context switches are
//!   found first, and every run is bounded.
//!
//! On failure the checker prints a **replay schedule** — a short string
//! like `t0,t1,v1,t0` recording every scheduling and value choice — and
//! [`replay`] re-runs exactly that interleaving for debugging.
//!
//! The workspace's production crates route all synchronization through
//! `sync` facades that resolve to these types under
//! `RUSTFLAGS='--cfg sbf_modelcheck'` and to `std` otherwise, so the code
//! being checked is the code that ships.
//!
//! # Example
//!
//! ```
//! use sbf_modelcheck::sync::atomic::{AtomicU64, Ordering};
//! use sbf_modelcheck::{thread, Checker};
//! use std::sync::Arc;
//!
//! // A correct CAS counter: no increment is ever lost.
//! let report = Checker::new().max_preemptions(2).check(|| {
//!     let n = Arc::new(AtomicU64::new(0));
//!     let n2 = Arc::clone(&n);
//!     let t = thread::spawn(move || {
//!         n2.fetch_add(1, Ordering::Relaxed);
//!     });
//!     n.fetch_add(1, Ordering::Relaxed);
//!     t.join().unwrap();
//!     assert_eq!(n.load(Ordering::Relaxed), 2);
//! });
//! assert!(report.complete);
//! ```

mod atomic;
mod clock;
mod exec;
mod lock;
pub mod thread;

use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool as StdAtomicBool, Ordering as StdOrdering};
use std::sync::{Arc, Mutex as StdMutex};

use exec::{parse_trail, run_once, Decision};

/// Model synchronization primitives, mirroring the `std::sync` paths the
/// production facades re-export.
pub mod sync {
    pub use crate::lock::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
    pub use std::sync::{Arc, LockResult, OnceLock, TryLockError, TryLockResult, Weak};

    /// Model atomics, mirroring `std::sync::atomic`.
    pub mod atomic {
        pub use crate::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    }
}

/// A counterexample found by the checker.
#[derive(Clone, Debug)]
pub struct Failure {
    /// Replay string reproducing the failing interleaving (see [`replay`]).
    pub schedule: String,
    /// The assertion/panic message, or the checker's own diagnosis
    /// (deadlock, thread-table overflow, replay divergence).
    pub message: String,
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}\n  replay schedule: \"{}\"",
            self.message, self.schedule
        )
    }
}

/// Summary of a completed exploration.
#[derive(Clone, Copy, Debug)]
pub struct Report {
    /// Number of distinct executions run.
    pub executions: u64,
    /// `true` when the state space was exhausted within the preemption
    /// bound; `false` when `max_executions` cut exploration short.
    pub complete: bool,
}

/// Configurable exploration driver.
#[derive(Clone, Copy, Debug)]
pub struct Checker {
    max_preemptions: u32,
    max_executions: u64,
}

impl Default for Checker {
    fn default() -> Self {
        Checker::new()
    }
}

/// Serializes concurrent `check()` calls in one test binary: model state
/// that lives in process-global `static`s (epoch-reset atomics) must not
/// be shared between two explorations at once.
static CHECK_LOCK: StdMutex<()> = StdMutex::new(());

/// Installed once per process: silences the default panic printout for
/// panics on model threads (they are caught, recorded as a [`Failure`]
/// with a replay schedule, and reported properly by the checker).
static HOOK_INSTALLED: StdAtomicBool = StdAtomicBool::new(false);

fn install_hook() {
    if HOOK_INSTALLED.swap(true, StdOrdering::SeqCst) {
        return;
    }
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if exec::current_ctx().is_none() {
            prev(info);
        }
    }));
}

/// Runs the closure once, sequentially and outside the scheduler, so
/// process-global lazies (`OnceLock` registries and the like) initialize
/// before exploration — otherwise the first execution takes a different
/// path than every later one and replay diverges.
fn warmup(f: &Arc<dyn Fn() + Send + Sync>) {
    let fw = Arc::clone(f);
    let h = std::thread::Builder::new()
        .name("mc-warmup".to_string())
        .spawn(move || {
            let _ = std::panic::catch_unwind(AssertUnwindSafe(|| fw()));
        });
    if let Ok(h) = h {
        let _ = h.join();
    }
}

/// Advances a completed trail to the depth-first next one: bump the last
/// decision that still has an untried alternative, drop everything after
/// it. Returns `None` when the space (at this preemption budget) is
/// exhausted.
fn next_prefix(mut trail: Vec<Decision>) -> Option<Vec<Decision>> {
    while let Some(mut last) = trail.pop() {
        if let Some(p) = last.alts.iter().position(|&a| a == last.pick) {
            if p + 1 < last.alts.len() {
                last.pick = last.alts[p + 1];
                trail.push(last);
                return Some(trail);
            }
        }
    }
    None
}

impl Checker {
    /// A checker with the default bounds (2 preemptions, 100 000
    /// executions).
    pub fn new() -> Self {
        Checker {
            max_preemptions: 2,
            max_executions: 100_000,
        }
    }

    /// Sets the preemption bound. Exploration iteratively deepens from 0
    /// up to this bound, so minimal-preemption counterexamples print
    /// first. Empirically (CHESS), 2 preemptions expose the vast majority
    /// of real concurrency bugs.
    pub fn max_preemptions(mut self, n: u32) -> Self {
        self.max_preemptions = n;
        self
    }

    /// Caps the total number of executions; exceeding it yields an
    /// incomplete (but still failure-free) [`Report`].
    pub fn max_executions(mut self, n: u64) -> Self {
        self.max_executions = n;
        self
    }

    /// Explores the closure's interleavings; panics with the replay
    /// schedule on the first failure.
    ///
    /// # Panics
    ///
    /// Panics if any explored interleaving fails an assertion, deadlocks,
    /// or otherwise aborts.
    pub fn check<F>(&self, f: F) -> Report
    where
        F: Fn() + Send + Sync + 'static,
    {
        match self.try_check(f) {
            Ok(report) => report,
            Err(failure) => panic!("model checking failed: {failure}"),
        }
    }

    /// Explores the closure's interleavings, returning the counterexample
    /// instead of panicking.
    ///
    /// # Errors
    ///
    /// Returns the first [`Failure`] found, with its replay schedule.
    pub fn try_check<F>(&self, f: F) -> Result<Report, Failure>
    where
        F: Fn() + Send + Sync + 'static,
    {
        install_hook();
        let _guard = CHECK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
        warmup(&f);
        let mut executions = 0u64;
        for budget in 0..=self.max_preemptions {
            let mut prefix: Vec<Decision> = Vec::new();
            loop {
                let outcome = run_once(&f, prefix, budget);
                executions += 1;
                if let Some(failure) = outcome.failure {
                    return Err(failure);
                }
                match next_prefix(outcome.trail) {
                    None => break,
                    Some(next) => {
                        if executions >= self.max_executions {
                            return Ok(Report {
                                executions,
                                complete: false,
                            });
                        }
                        prefix = next;
                    }
                }
            }
        }
        Ok(Report {
            executions,
            complete: true,
        })
    }
}

/// Explores with the default [`Checker`]; panics with a replay schedule on
/// failure.
///
/// # Panics
///
/// Panics if any explored interleaving fails (see [`Checker::check`]).
pub fn check<F>(f: F) -> Report
where
    F: Fn() + Send + Sync + 'static,
{
    Checker::new().check(f)
}

/// Re-runs exactly one interleaving from a replay schedule printed by a
/// failing [`Checker::check`].
///
/// Returns `Ok(())` when the run passes (the bug did not reproduce — e.g.
/// after a fix) and the recorded [`Failure`] when it fails again.
///
/// # Errors
///
/// Returns a [`Failure`] when the replayed interleaving fails again, or
/// when `schedule` cannot be parsed / no longer matches the closure's
/// choice points (nondeterministic body).
pub fn replay<F>(schedule: &str, f: F) -> Result<(), Failure>
where
    F: Fn() + Send + Sync + 'static,
{
    install_hook();
    let _guard = CHECK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let trail = parse_trail(schedule).map_err(|message| Failure {
        schedule: schedule.to_string(),
        message,
    })?;
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    warmup(&f);
    let outcome = run_once(&f, trail, u32::MAX);
    match outcome.failure {
        Some(failure) => Err(failure),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::sync::atomic::{AtomicU64, Ordering};
    use super::*;

    #[test]
    fn sequential_fallback_outside_executions() {
        // No execution active: model atomics behave like plain atomics.
        let a = AtomicU64::new(7);
        assert_eq!(a.fetch_add(1, Ordering::Relaxed), 7);
        assert_eq!(a.load(Ordering::SeqCst), 8);
        let m = sync::Mutex::new(3);
        *m.lock().unwrap() += 1;
        assert_eq!(*m.lock().unwrap(), 4);
    }

    #[test]
    fn single_thread_check_is_one_execution_per_budget() {
        let report = Checker::new().max_preemptions(1).check(|| {
            let a = AtomicU64::new(0);
            a.store(5, Ordering::Relaxed);
            assert_eq!(a.load(Ordering::Relaxed), 5);
        });
        assert!(report.complete);
        // Budgets 0 and 1, one deterministic execution each.
        assert_eq!(report.executions, 2);
    }

    #[test]
    fn two_thread_interleavings_are_enumerated() {
        let report = Checker::new().max_preemptions(2).check(|| {
            let a = std::sync::Arc::new(AtomicU64::new(0));
            let a2 = std::sync::Arc::clone(&a);
            let t = thread::spawn(move || {
                a2.fetch_add(1, Ordering::SeqCst);
            });
            a.fetch_add(1, Ordering::SeqCst);
            t.join().unwrap();
            assert_eq!(a.load(Ordering::SeqCst), 2);
        });
        assert!(report.complete);
        assert!(report.executions > 2, "expected real interleaving fan-out");
    }
}
