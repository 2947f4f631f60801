//! A batched sharded estimate must leave the same telemetry as answering
//! its keys one at a time: `sbf_estimates_total` rises by the batch length
//! and `sbf_estimate_values` gains the same observations, whether the batch
//! takes the one routed pass (shards of one hash family) or the per-key
//! loop (shards seeded apart).
//!
//! Telemetry is process-global, so this file holds one test: no other
//! estimate runs in the process while it measures.

use std::collections::BTreeMap;

use sbf_telemetry::{HistogramSnapshot, SampleValue};
use spectral_bloom::{MsSbf, ShardedSketch};

/// The estimate counter and histogram as they stand now.
fn estimate_metrics() -> (u64, HistogramSnapshot) {
    let snap = sbf_telemetry::global().snapshot();
    let total = snap.counter_value("sbf_estimates_total").unwrap_or(0);
    let hist = match snap.get("sbf_estimate_values") {
        Some(SampleValue::Histogram(h)) => h.clone(),
        other => panic!("sbf_estimate_values is not a histogram: {other:?}"),
    };
    (total, hist)
}

/// Observations per histogram bucket, keyed by the bucket's upper bound.
/// A snapshot elides empty trailing buckets, so a bucket it leaves out
/// holds none.
fn per_bucket(h: &HistogramSnapshot) -> BTreeMap<u64, u64> {
    let mut prev = 0;
    let mut out = BTreeMap::new();
    for &(bound, cumulative) in &h.buckets {
        out.insert(bound.to_bits(), cumulative - prev);
        prev = cumulative;
    }
    out
}

/// What happened between two readings: the counter's rise, the
/// histogram's count and sum, and each bucket's rise.
fn delta(
    before: &(u64, HistogramSnapshot),
    after: &(u64, HistogramSnapshot),
) -> (u64, u64, u64, BTreeMap<u64, u64>) {
    let old = per_bucket(&before.1);
    let buckets = per_bucket(&after.1)
        .into_iter()
        .map(|(bound, n)| (bound, n - old.get(&bound).copied().unwrap_or(0)))
        .filter(|&(_, n)| n > 0)
        .collect();
    (
        after.0 - before.0,
        after.1.count - before.1.count,
        after.1.sum - before.1.sum,
        buckets,
    )
}

#[test]
fn batched_sharded_estimates_count_like_per_key_estimates() {
    sbf_telemetry::set_enabled(true);
    let keys: Vec<u64> = (0..2000).map(|i| i % 700).collect();
    let probes: Vec<u64> = (0..1025).map(|i| i * 3).collect();
    for same_family in [true, false] {
        let sketch = ShardedSketch::with_shards(4, |i| {
            let seed = if same_family { 9 } else { 9 ^ i as u64 };
            MsSbf::new(1 << 12, 4, seed)
        });
        sketch.insert_batch(&keys);
        let start = estimate_metrics();
        for key in &probes {
            sketch.estimate(key);
        }
        let per_key = estimate_metrics();
        sketch.estimate_batch(&probes);
        let batched = estimate_metrics();
        let want = delta(&start, &per_key);
        assert_eq!(want.0, probes.len() as u64, "same_family={same_family}");
        assert_eq!(delta(&per_key, &batched), want, "same_family={same_family}");
    }
    sbf_telemetry::set_enabled(false);
}
