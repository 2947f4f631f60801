//! Tests that check the checker: known-buggy protocols must be caught
//! (with a usable replay schedule), known-correct ones must pass an
//! exhaustive exploration.
//!
//! The bugs seeded here are miniatures of the protocol shapes the
//! workspace model tests guard (CAS counters, release/acquire
//! publication), so a regression in the checker's visibility or
//! scheduling logic fails loudly before it silently weakens those tests.

use std::sync::Arc;

use sbf_modelcheck::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use sbf_modelcheck::sync::Mutex;
use sbf_modelcheck::{replay, thread, Checker};

/// Plain load-then-store increments race: the checker must find the lost
/// update and print a replayable schedule.
#[test]
fn lost_update_is_found_with_replayable_schedule() {
    let body = || {
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        let t = thread::spawn(move || {
            let v = n2.load(Ordering::SeqCst);
            n2.store(v + 1, Ordering::SeqCst);
        });
        let v = n.load(Ordering::SeqCst);
        n.store(v + 1, Ordering::SeqCst);
        t.join().unwrap();
        assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
    };
    let failure = Checker::new()
        .max_preemptions(2)
        .try_check(body)
        .expect_err("load+store increment must lose an update");
    assert!(
        failure.message.contains("lost update"),
        "unexpected message: {}",
        failure.message
    );
    assert!(!failure.schedule.is_empty(), "schedule must be printable");

    // The schedule deterministically reproduces the same failure, twice.
    for _ in 0..2 {
        let err = replay(&failure.schedule, body).expect_err("replay must reproduce the failure");
        assert!(err.message.contains("lost update"));
    }
}

/// The same race fixed with a CAS loop passes exhaustively.
#[test]
fn cas_increment_is_exhaustively_correct() {
    let report = Checker::new().max_preemptions(2).check(|| {
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        let t = thread::spawn(move || {
            let mut cur = n2.load(Ordering::Relaxed);
            while let Err(actual) =
                n2.compare_exchange_weak(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed)
            {
                cur = actual;
            }
        });
        let mut cur = n.load(Ordering::Relaxed);
        while let Err(actual) =
            n.compare_exchange_weak(cur, cur + 1, Ordering::Relaxed, Ordering::Relaxed)
        {
            cur = actual;
        }
        t.join().unwrap();
        assert_eq!(n.load(Ordering::Relaxed), 2);
    });
    assert!(report.complete, "state space must be exhausted");
}

/// SPSC flag hand-off with an injected stale-read bug: publishing the data
/// with `Relaxed` lets the consumer read the flag yet miss the payload.
/// A weak-memory bug — invisible to an x86 TSan run — caught within the
/// depth bound because the model load *chooses* the stale store.
#[test]
fn spsc_relaxed_flag_bug_is_caught() {
    let failure = Checker::new()
        .max_preemptions(2)
        .try_check(|| {
            let data = Arc::new(AtomicU64::new(0));
            let flag = Arc::new(AtomicBool::new(false));
            let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
            let producer = thread::spawn(move || {
                d2.store(42, Ordering::Relaxed);
                f2.store(true, Ordering::Relaxed); // BUG: should be Release
            });
            if flag.load(Ordering::Acquire) {
                assert_eq!(data.load(Ordering::Relaxed), 42, "stale read through flag");
            }
            producer.join().unwrap();
        })
        .expect_err("relaxed publish must leak a stale read");
    assert!(failure.message.contains("stale read through flag"));
    // The counterexample necessarily involves a value choice (the stale
    // store), not just thread ordering.
    assert!(
        failure.schedule.contains('v'),
        "expected a value decision in {:?}",
        failure.schedule
    );
}

/// The fixed SPSC hand-off (Release publish, Acquire consume) passes
/// exhaustively: the happens-before edge prunes the stale candidate.
#[test]
fn spsc_release_acquire_passes_exhaustively() {
    let report = Checker::new().max_preemptions(2).check(|| {
        let data = Arc::new(AtomicU64::new(0));
        let flag = Arc::new(AtomicBool::new(false));
        let (d2, f2) = (Arc::clone(&data), Arc::clone(&flag));
        let producer = thread::spawn(move || {
            d2.store(42, Ordering::Relaxed);
            f2.store(true, Ordering::Release);
        });
        if flag.load(Ordering::Acquire) {
            assert_eq!(data.load(Ordering::Relaxed), 42);
        }
        producer.join().unwrap();
    });
    assert!(report.complete);
}

/// Miniature of a version-stamp publication protocol: a writer mutates
/// state then bumps a stamp; a reader that observes the bumped stamp must
/// see the new state. It models no production code: it is the checker's
/// own test that a seeded `Relaxed` publication bug is caught, with a
/// replayable interleaving, and that the `Release` form passes.
#[test]
fn seeded_relaxed_stamp_bug_is_caught_and_release_fix_passes() {
    fn stamp_protocol(bump_order: Ordering) -> impl Fn() + Send + Sync + 'static {
        move || {
            let state = Arc::new(AtomicU64::new(0));
            let stamp = Arc::new(AtomicU64::new(0));
            let (s2, v2) = (Arc::clone(&state), Arc::clone(&stamp));
            let writer = thread::spawn(move || {
                s2.store(1, Ordering::Relaxed);
                v2.fetch_add(1, bump_order);
            });
            // Snapshotter: a bumped stamp promises the new state is visible.
            if stamp.load(Ordering::Acquire) > 0 {
                assert_eq!(
                    state.load(Ordering::Relaxed),
                    1,
                    "stale snapshot served as fresh"
                );
            }
            writer.join().unwrap();
        }
    }

    let failure = Checker::new()
        .max_preemptions(2)
        .try_check(stamp_protocol(Ordering::Relaxed))
        .expect_err("Relaxed stamp bump must be caught");
    assert!(failure.message.contains("stale snapshot served as fresh"));
    assert!(!failure.schedule.is_empty());
    // And the replay string printed for the user reproduces it.
    let err = replay(&failure.schedule, stamp_protocol(Ordering::Relaxed))
        .expect_err("replay must reproduce the stale snapshot");
    assert!(err.message.contains("stale snapshot served as fresh"));

    // The Release bump is exhaustively correct.
    let report = Checker::new()
        .max_preemptions(2)
        .check(stamp_protocol(Ordering::Release));
    assert!(report.complete);
}

/// Model mutexes provide real mutual exclusion and a happens-before edge:
/// two guarded read-modify-writes never lose an update, exhaustively.
#[test]
fn mutex_guarded_increments_are_exhaustively_correct() {
    let report = Checker::new().max_preemptions(2).check(|| {
        let n = Arc::new(Mutex::new(0u64));
        let n2 = Arc::clone(&n);
        let t = thread::spawn(move || {
            *n2.lock().unwrap() += 1;
        });
        *n.lock().unwrap() += 1;
        t.join().unwrap();
        assert_eq!(*n.lock().unwrap(), 2);
    });
    assert!(report.complete);
}

/// ABBA lock ordering deadlocks; the checker reports it (rather than
/// hanging) with a schedule.
#[test]
fn abba_deadlock_is_detected() {
    let failure = Checker::new()
        .max_preemptions(2)
        .try_check(|| {
            let a = Arc::new(Mutex::new(()));
            let b = Arc::new(Mutex::new(()));
            let (a2, b2) = (Arc::clone(&a), Arc::clone(&b));
            let t = thread::spawn(move || {
                let _gb = b2.lock().unwrap();
                let _ga = a2.lock().unwrap();
            });
            let _ga = a.lock().unwrap();
            let _gb = b.lock().unwrap();
            drop(_gb);
            drop(_ga);
            t.join().unwrap();
        })
        .expect_err("ABBA must deadlock under some interleaving");
    assert!(
        failure.message.contains("deadlock"),
        "unexpected message: {}",
        failure.message
    );
    assert!(!failure.schedule.is_empty());
}

/// Preemption budget 0 is pure run-to-completion: the lost-update bug
/// needs one preemption, so it is invisible at budget 0 and found at 1 —
/// iterative deepening's bound is real.
#[test]
fn preemption_bound_gates_what_is_explored() {
    let body = || {
        let n = Arc::new(AtomicU64::new(0));
        let n2 = Arc::clone(&n);
        let t = thread::spawn(move || {
            let v = n2.load(Ordering::SeqCst);
            n2.store(v + 1, Ordering::SeqCst);
        });
        let v = n.load(Ordering::SeqCst);
        n.store(v + 1, Ordering::SeqCst);
        t.join().unwrap();
        assert_eq!(n.load(Ordering::SeqCst), 2);
    };
    let report = Checker::new()
        .max_preemptions(0)
        .try_check(body)
        .expect("no preemptions: threads run to completion, no lost update");
    assert!(report.complete);
    Checker::new()
        .max_preemptions(1)
        .try_check(body)
        .expect_err("one preemption suffices to lose an update");
}
