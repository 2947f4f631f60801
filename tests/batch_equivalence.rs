//! Batch/single equivalence: every backend's `insert_batch` /
//! `estimate_batch` must be **bit-identical** to the item-at-a-time loop —
//! the pipelined Minimum Selection engines and the sharded partition are
//! allowed to go faster, never to answer differently. The MI and RM
//! properties pin the trait's default item loops to the same contract.
//!
//! The `simd_*` properties extend the contract across dispatch levels:
//! the same batch answered with the dispatch level forced to
//! scalar ([`sbf_hash::set_simd_level`]) and at the machine's full level
//! must agree bit for bit, and both must equal the single-item loop. On a
//! machine without SIMD the two legs collapse to the same code path and
//! the assertions hold trivially.

use std::sync::Mutex;

use proptest::prelude::*;

use spectral_bloom::{
    BlockedMsSbf, CompactCounters, CompressedCounters, DefaultFamily, MiSbf, MsSbf, MultisetSketch,
    RmSbf, ShardedSketch, SketchReader,
};

/// Probe set: the inserted keys plus a band of keys that were never
/// inserted (batch and single must agree on zeros/false positives too).
fn probes(keys: &[u64]) -> Vec<u64> {
    let mut p = keys.to_vec();
    p.extend(10_000u64..10_064);
    p
}

/// Feeds `keys` into `a` one at a time and into `b` via `insert_batch`,
/// then checks that every probe estimates identically (batch query path on
/// `b`, single query path on `a`) and the totals match.
fn assert_insert_equiv<S: MultisetSketch>(a: &mut S, b: &mut S, keys: &[u64]) {
    for key in keys {
        a.insert(key);
    }
    b.insert_batch(keys);
    assert_queries_equiv(a, b, keys);
}

/// Checks single-path estimates on `a` against batch-path estimates on `b`.
fn assert_queries_equiv<S: SketchReader>(a: &S, b: &S, keys: &[u64]) {
    let probes = probes(keys);
    let singles: Vec<u64> = probes.iter().map(|k| a.estimate(k)).collect();
    let mut batched = Vec::new();
    b.estimate_batch_into(&probes, &mut batched);
    assert_eq!(singles, batched, "estimate_batch diverged from estimate");
    // And the cross-check: batch on `a` matches singles on `b`.
    let batched_a = a.estimate_batch(&probes);
    let singles_b: Vec<u64> = probes.iter().map(|k| b.estimate(k)).collect();
    assert_eq!(batched_a, singles_b);
    assert_eq!(a.total_count(), b.total_count());
}

/// Serialises tests that toggle the process-global SIMD dispatch level so
/// a forced-scalar window in one test cannot leak into another's timing of
/// the full level (results are identical at every level by contract — the
/// lock keeps the *legs* of each comparison honest).
static SIMD_LOCK: Mutex<()> = Mutex::new(());

/// Answers `probes` three ways — batch at the machine's full dispatch
/// level, batch with the level forced to scalar, and the single-item
/// loop — and requires all three to agree exactly.
fn assert_simd_scalar_equiv<S: SketchReader>(sketch: &S, keys: &[u64]) {
    let _guard = SIMD_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let probes = probes(keys);
    let full = sbf_hash::simd_level();
    let mut vectored = Vec::new();
    sketch.estimate_batch_into(&probes, &mut vectored);
    sbf_hash::set_simd_level(sbf_hash::SimdLevel::Scalar);
    let mut scalar = Vec::new();
    sketch.estimate_batch_into(&probes, &mut scalar);
    sbf_hash::set_simd_level(full);
    assert_eq!(
        vectored, scalar,
        "estimate_batch at {full:?} diverged from forced-scalar"
    );
    let singles: Vec<u64> = probes.iter().map(|k| sketch.estimate(k)).collect();
    assert_eq!(vectored, singles, "batch diverged from single-item loop");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Minimum Selection, plain counters.
    #[test]
    fn ms_plain(keys in prop::collection::vec(0u64..500, 0..400), seed in any::<u64>()) {
        let mut a = MsSbf::new(1 << 12, 4, seed);
        let mut b = MsSbf::new(1 << 12, 4, seed);
        assert_insert_equiv(&mut a, &mut b, &keys);
    }

    /// Minimum Selection over the Elias-γ compressed store.
    #[test]
    fn ms_compressed(keys in prop::collection::vec(0u64..500, 0..400), seed in any::<u64>()) {
        let fam = DefaultFamily::new(1 << 12, 4, seed);
        let mut a = MsSbf::<DefaultFamily, CompressedCounters>::from_family(fam.clone());
        let mut b = MsSbf::<DefaultFamily, CompressedCounters>::from_family(fam);
        assert_insert_equiv(&mut a, &mut b, &keys);
    }

    /// Minimum Selection over the 4-bit compact store.
    #[test]
    fn ms_compact(keys in prop::collection::vec(0u64..2000, 0..300), seed in any::<u64>()) {
        let fam = DefaultFamily::new(1 << 13, 4, seed);
        let mut a = MsSbf::<DefaultFamily, CompactCounters>::from_family(fam.clone());
        let mut b = MsSbf::<DefaultFamily, CompactCounters>::from_family(fam);
        assert_insert_equiv(&mut a, &mut b, &keys);
    }

    /// Cache-blocked MS layout.
    #[test]
    fn ms_blocked(keys in prop::collection::vec(0u64..500, 0..400), seed in any::<u64>()) {
        let mut a = BlockedMsSbf::new_blocked(64, 64, 4, seed);
        let mut b = BlockedMsSbf::new_blocked(64, 64, 4, seed);
        assert_insert_equiv(&mut a, &mut b, &keys);
    }

    /// Minimal Increase — the floor rule makes results depend on insertion
    /// order, so bit-identity here pins that the default batch loop applies
    /// strictly in order.
    #[test]
    fn mi_order_dependent(keys in prop::collection::vec(0u64..500, 0..400), seed in any::<u64>()) {
        let mut a = MiSbf::new(1 << 12, 4, seed);
        let mut b = MiSbf::new(1 << 12, 4, seed);
        assert_insert_equiv(&mut a, &mut b, &keys);
    }

    /// Recurring Minimum (primary + secondary + marker): batched queries
    /// after batched inserts, and again after removing the first half key
    /// by key from both sketches.
    #[test]
    fn rm_insert_remove(keys in prop::collection::vec(0u64..500, 0..400), seed in any::<u64>()) {
        let mut a = RmSbf::new(1 << 13, 4, seed);
        let mut b = RmSbf::new(1 << 13, 4, seed);
        assert_insert_equiv(&mut a, &mut b, &keys);
        for key in &keys[..keys.len() / 2] {
            a.remove(key).expect("remove of a present key");
            b.remove(key).expect("remove of a present key");
        }
        assert_queries_equiv(&a, &b, &keys);
    }

    /// Sharded wrapper: partitioned batch application must equal the
    /// key-at-a-time routing, with one shard as with four.
    #[test]
    fn sharded(
        keys in prop::collection::vec(0u64..500, 0..400),
        seed in any::<u64>(),
        shards in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let a = ShardedSketch::with_shards(shards, |i| MsSbf::new(1 << 11, 4, seed ^ i as u64));
        let b = ShardedSketch::with_shards(shards, |i| MsSbf::new(1 << 11, 4, seed ^ i as u64));
        for key in &keys {
            a.insert(key);
        }
        b.insert_batch(&keys);
        assert_queries_equiv(&a, &b, &keys);
    }

    /// SIMD vs scalar, plain MS store — the gathered-min kernel path.
    #[test]
    fn simd_ms(keys in prop::collection::vec(0u64..500, 0..400), seed in any::<u64>()) {
        let mut s = MsSbf::new(1 << 12, 4, seed);
        s.insert_batch(&keys);
        assert_simd_scalar_equiv(&s, &keys);
    }

    /// SIMD vs scalar, cache-blocked layout — block-local gathered min.
    #[test]
    fn simd_blocked(keys in prop::collection::vec(0u64..500, 0..400), seed in any::<u64>()) {
        let mut s = BlockedMsSbf::new_blocked(64, 64, 4, seed);
        s.insert_batch(&keys);
        assert_simd_scalar_equiv(&s, &keys);
    }

    /// SIMD vs scalar through the sharded wrapper's partitioned batches,
    /// with one shard as with four.
    #[test]
    fn simd_sharded(
        keys in prop::collection::vec(0u64..500, 0..400),
        seed in any::<u64>(),
        shards in prop_oneof![Just(1usize), Just(4usize)],
    ) {
        let s = ShardedSketch::with_shards(shards, |i| MsSbf::new(1 << 11, 4, seed ^ i as u64));
        s.insert_batch(&keys);
        assert_simd_scalar_equiv(&s, &keys);
    }
}
