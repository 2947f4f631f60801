//! Exhaustive interleaving tests for the shard-union protocol and the
//! telemetry gate, run under the in-workspace model checker.
//!
//! This suite only compiles with `RUSTFLAGS='--cfg sbf_modelcheck'` (the
//! CI `modelcheck` job): the crate's `sync` facade then binds every
//! mutex and rwlock to `sbf-modelcheck`'s model types, so the
//! code explored here is the exact production code, not a transliterated
//! model of it.
//!
//! Each test pins one protocol from DESIGN.md's memory-ordering audit:
//!
//! 1. shard union under concurrent insert keeps the one-sided bound
//!    f̂ ≥ f for keys fully inserted beforehand;
//! 2. the telemetry enable gate is coherent and counter increments are
//!    never lost;
//! 3. a batched estimate holding every shard's read guard (taken in
//!    ascending order) against one writer per shard neither deadlocks nor
//!    undercounts.
//!
//! Closures must be deterministic (the replay trail is positional), so
//! the test bodies avoid anything schedule-dependent outside the model
//! types. Test parameters are tiny on purpose: exploration is
//! exponential in the number of atomic events.

#![cfg(sbf_modelcheck)]

use std::sync::Arc;

use sbf_modelcheck::{thread, Checker};
use spectral_bloom::{MsSbf, ShardedSketch, SketchReader};

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

/// A batched estimate holds both shards' read guards at once, taken in
/// ascending order, against one writer per shard. Every interleaving must
/// finish (the checker reports a deadlock as a failure) and keep f̂ ≥ f for
/// the keys inserted before the threads started; after the joins, the
/// writers' inserts are covered too.
#[test]
fn batched_estimate_against_one_writer_per_shard() {
    let report = Checker::new().max_preemptions(2).check(|| {
        let sketch = Arc::new(ShardedSketch::with_shards(2, |_| MsSbf::new(8, 1, 7)));
        let owned_by = |s: usize| (0u64..).find(|k| sketch.shard_of(k) == s).unwrap();
        let keys = [owned_by(0), owned_by(1)];
        for key in &keys {
            sketch.insert_by(key, 2);
        }
        let writers: Vec<_> = keys
            .iter()
            .map(|&key| {
                let w = Arc::clone(&sketch);
                thread::spawn(move || w.insert(&key))
            })
            .collect();
        let ests = sketch.estimate_batch(&keys);
        assert!(
            ests.iter().all(|&e| e >= 2),
            "batched estimate undercounted a fully-inserted key: {ests:?}"
        );
        for w in writers {
            w.join().unwrap();
        }
        let ests = sketch.estimate_batch(&keys);
        assert!(ests.iter().all(|&e| e >= 3), "joined insert lost: {ests:?}");
    });
    assert!(report.complete, "state space must be exhausted");
}
