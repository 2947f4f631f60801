//! Exhaustive interleaving tests for the lock-free layer, run under the
//! in-workspace model checker.
//!
//! This suite only compiles with `RUSTFLAGS='--cfg sbf_modelcheck'` (the
//! CI `modelcheck` job): the crate's `sync` facade then binds every
//! atomic, mutex and rwlock to `sbf-modelcheck`'s model types, so the
//! code explored here is the exact production code, not a transliterated
//! model of it.
//!
//! Each test pins one protocol from DESIGN.md's memory-ordering audit:
//!
//! 1. the CAS-saturating counter loops in `AtomicCounters` lose no
//!    increments, never underflow, and saturate instead of wrapping;
//! 2. shard union under concurrent insert keeps the one-sided bound
//!    f̂ ≥ f for keys fully inserted beforehand;
//! 3. the telemetry enable gate is coherent and counter increments are
//!    never lost.
//!
//! Closures must be deterministic (the replay trail is positional), so
//! the test bodies avoid anything schedule-dependent outside the model
//! types. Test parameters are tiny on purpose: exploration is
//! exponential in the number of atomic events.

#![cfg(sbf_modelcheck)]

use std::sync::Arc;

use sbf_modelcheck::{thread, Checker};
use spectral_bloom::{
    AtomicCounters, AtomicMsSbf, ConcurrentCounterStore, MsSbf, ShardedSketch, SketchReader,
};

/// Three concurrent saturating CAS increments: every increment lands.
#[test]
fn cas_add_loses_no_increments() {
    let report = Checker::new().max_preemptions(2).check(|| {
        let store = Arc::new(AtomicCounters::with_len(1));
        let (s1, s2) = (Arc::clone(&store), Arc::clone(&store));
        let t1 = thread::spawn(move || s1.fetch_add(0, 1));
        let t2 = thread::spawn(move || s2.fetch_add(0, 2));
        store.fetch_add(0, 4);
        t1.join().unwrap();
        t2.join().unwrap();
        assert_eq!(store.load(0), 7, "a CAS increment was lost");
    });
    assert!(report.complete, "state space must be exhausted");
}

/// Concurrent saturating subtract never drives a counter below zero
/// (no wrap-around to huge values), whatever the interleaving.
#[test]
fn cas_sub_never_underflows() {
    let report = Checker::new().max_preemptions(2).check(|| {
        let store = Arc::new(AtomicCounters::with_len(1));
        store.fetch_add(0, 1);
        let s1 = Arc::clone(&store);
        let t1 = thread::spawn(move || s1.fetch_sub_saturating(0, 2));
        store.fetch_sub_saturating(0, 1);
        t1.join().unwrap();
        let v = store.load(0);
        assert!(v <= 1, "saturating sub underflowed: {v}");
    });
    assert!(report.complete, "state space must be exhausted");
}

/// Near-`u64::MAX` concurrent adds saturate instead of wrapping: a
/// wrapped counter would transiently report a tiny value — a false
/// negative the MS one-sided contract forbids.
#[test]
fn cas_add_saturates_instead_of_wrapping() {
    let report = Checker::new().max_preemptions(2).check(|| {
        let store = Arc::new(AtomicCounters::with_len(1));
        store.fetch_add(0, u64::MAX - 1);
        let s1 = Arc::clone(&store);
        let t1 = thread::spawn(move || s1.fetch_add(0, 3));
        store.fetch_add(0, 2);
        t1.join().unwrap();
        assert_eq!(
            store.load(0),
            u64::MAX,
            "counter wrapped instead of saturating"
        );
    });
    assert!(report.complete, "state space must be exhausted");
}

/// Shard union under concurrent insert keeps f̂ ≥ f one-sided for keys
/// fully inserted before the union began.
#[test]
fn union_under_concurrent_insert_stays_one_sided() {
    let report = Checker::new().max_preemptions(2).check(|| {
        let sketch = Arc::new(ShardedSketch::with_shards(2, |_| MsSbf::new(8, 1, 7)));
        sketch.insert_by(&1u64, 2);
        let w = Arc::clone(&sketch);
        let writer = thread::spawn(move || w.insert(&2u64));
        // The union may or may not include the in-flight key 2, but the
        // fully-inserted key 1 must never be undercounted.
        let snap = sketch.snapshot();
        assert!(
            snap.estimate(&1u64) >= 2,
            "union undercounted a fully-inserted key: {}",
            snap.estimate(&1u64)
        );
        writer.join().unwrap();
        assert!(sketch.estimate(&2u64) >= 1);
    });
    assert!(report.complete, "state space must be exhausted");
}

/// Lock-free `AtomicMsSbf` ingest from two threads: the one-sided bound
/// and the exact total both hold in every interleaving.
#[test]
fn atomic_ms_concurrent_ingest_is_one_sided_and_total_exact() {
    let report = Checker::new().max_preemptions(2).check(|| {
        let sbf = Arc::new(AtomicMsSbf::new(8, 1, 7));
        let s1 = Arc::clone(&sbf);
        let t1 = thread::spawn(move || s1.insert_by(&1u64, 3));
        sbf.insert_by(&2u64, 2);
        t1.join().unwrap();
        assert!(sbf.estimate(&1u64) >= 3, "one-sided bound broken for key 1");
        assert!(sbf.estimate(&2u64) >= 2, "one-sided bound broken for key 2");
        assert_eq!(sbf.total_count(), 5, "total_count lost an increment");
    });
    assert!(report.complete, "state space must be exhausted");
}

/// The telemetry enable gate: a reader sees a coherent `bool` in every
/// interleaving, the join edge forces visibility of the final state, and
/// concurrent counter increments are never lost. The closure leaves the
/// gate disabled so later explorations start from the quiet state.
#[test]
fn telemetry_gate_is_coherent_and_counters_lose_nothing() {
    let report = Checker::new().max_preemptions(2).check(|| {
        let counter = Arc::new(sbf_telemetry::Counter::new());
        let c1 = Arc::clone(&counter);
        let t1 = thread::spawn(move || {
            sbf_telemetry::set_enabled(true);
            c1.inc();
        });
        // Concurrent read: any coherent answer is fine; the load must not
        // tear, deadlock, or panic.
        let _mid = sbf_telemetry::enabled();
        counter.add(2);
        t1.join().unwrap();
        assert!(
            sbf_telemetry::enabled(),
            "join edge must force gate visibility"
        );
        assert_eq!(counter.get(), 3, "counter increment lost");
        sbf_telemetry::set_enabled(false);
    });
    assert!(report.complete, "state space must be exhausted");
}
