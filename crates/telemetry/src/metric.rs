//! The three metric primitives: counter, gauge, log2 histogram.
//!
//! All are lock-free over relaxed atomics. Relaxed is enough: metrics are
//! independent statistics, no reader infers cross-metric ordering from
//! them, and the snapshot path tolerates seeing counts mid-flight.

use crate::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing event count.
///
/// ```
/// let c = sbf_telemetry::Counter::new();
/// c.inc();
/// c.add(9);
/// assert_eq!(c.get(), 10);
/// ```
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `by`.
    #[inline]
    pub fn add(&self, by: u64) {
        self.value.fetch_add(by, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An instantaneous value that can move both ways (occupancy ratio, shard
/// total, queue depth). Stored as the bit pattern of an `f64` in an
/// `AtomicU64`, so reads and writes stay lock-free.
///
/// ```
/// let g = sbf_telemetry::Gauge::new();
/// g.set(0.25);
/// assert_eq!(g.get(), 0.25);
/// g.set_u64(1500);
/// assert_eq!(g.get(), 1500.0);
/// ```
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    /// A gauge at `0.0`.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the value.
    #[inline]
    pub fn set(&self, v: f64) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Sets the value from an integer (convenience for totals).
    #[inline]
    pub fn set_u64(&self, v: u64) {
        self.set(v as f64);
    }

    /// Moves the value by `delta` (negative to lower it). A compare-and-swap
    /// on the bits, so concurrent adjusters never lose one another's
    /// updates — what a process-wide count kept by several threads needs.
    #[inline]
    pub fn adjust(&self, delta: f64) {
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of histogram buckets: `le = 0, 1, 2, 4, …, 2^62`, plus `+Inf`.
pub const BUCKETS: usize = 65;

/// A fixed-bucket base-2 histogram over `u64` observations.
///
/// Bucket `0` holds observations equal to zero; bucket `i ≥ 1` holds
/// observations in `(2^{i-2}, 2^{i-1}]` (upper bound `2^{i-1}`); the last
/// bucket is `+Inf`. Fixed buckets mean `observe` is a shift, a branch and
/// three relaxed `fetch_add`s (bucket, sum, count) on cells that share
/// cache lines — cheap for one operation, but contended when several
/// threads observe at once. Batched paths use
/// [`observe_many`](Self::observe_many), which pays those RMWs once per
/// touched bucket rather than once per value.
///
/// ```
/// let h = sbf_telemetry::Histogram::new();
/// h.observe(0);
/// h.observe(3);
/// h.observe(4);
/// assert_eq!(h.count(), 3);
/// assert_eq!(h.sum(), 7);
/// ```
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

/// The frozen state of a [`Histogram`] at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Total number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: u64,
    /// Cumulative bucket counts as `(upper_bound, observations ≤ bound)`;
    /// the final entry has bound `f64::INFINITY` and equals `count`.
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    /// Upper-bound estimate of the `q`-quantile (`0.0 ≤ q ≤ 1.0`).
    ///
    /// Returns the upper bound of the first bucket whose cumulative count
    /// reaches `⌈q · count⌉`. With log2 buckets the answer is within 2× of
    /// the true quantile — the right resolution for latency SLO gauges
    /// (p50/p99 "order of magnitude" questions), not for fine comparisons.
    /// Returns `None` for an empty histogram; `Some(f64::INFINITY)` when
    /// the quantile falls in the overflow bucket.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // ⌈q·count⌉, but at least 1 so q = 0 means "smallest observation".
        let target = ((q * self.count as f64).ceil() as u64).max(1);
        self.buckets
            .iter()
            .find(|&&(_, cum)| cum >= target)
            .map(|&(bound, _)| bound)
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// The bucket index for a value: 0 for 0, else `⌈log2 v⌉ + 1` capped at
    /// the `+Inf` slot.
    #[inline]
    fn slot(v: u64) -> usize {
        if v == 0 {
            return 0;
        }
        let bits = 64 - v.leading_zeros() as usize;
        let slot = if v.is_power_of_two() { bits } else { bits + 1 };
        slot.min(BUCKETS - 1)
    }

    /// The upper bound (`le`) of bucket `i`; the last bucket is `+Inf`.
    fn bound(i: usize) -> f64 {
        match i {
            0 => 0.0,
            _ if i == BUCKETS - 1 => f64::INFINITY,
            _ => (1u64 << (i - 1)) as f64,
        }
    }

    /// Records one observation.
    #[inline]
    pub fn observe(&self, v: u64) {
        self.buckets[Self::slot(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records every value in `values`, leaving exactly the state that one
    /// [`observe`](Self::observe) per value would. The values are binned
    /// into a local array first, so the shared cells see one `fetch_add`
    /// per touched bucket plus one each for sum and count, however long
    /// the slice.
    pub fn observe_many(&self, values: &[u64]) {
        if values.is_empty() {
            return;
        }
        let mut local = [0u64; BUCKETS];
        let mut sum = 0u64;
        for &v in values {
            local[Self::slot(v)] += 1;
            // `fetch_add` wraps, so the per-value path wraps the sum too.
            sum = sum.wrapping_add(v);
        }
        for (cell, &n) in self.buckets.iter().zip(&local) {
            if n > 0 {
                cell.fetch_add(n, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(sum, Ordering::Relaxed);
        self.count.fetch_add(values.len() as u64, Ordering::Relaxed);
    }

    /// Records a [`std::time::Duration`] in nanoseconds (saturating at
    /// `u64::MAX` ≈ 584 years — the `+Inf` bucket either way). Log2 buckets
    /// give ~1.4 significant digits, exactly the resolution wanted for
    /// latency histograms like `sbfd_wal_fsync_ns`.
    #[inline]
    pub fn observe_duration(&self, d: std::time::Duration) {
        self.observe(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Freezes the current state, converting per-bucket counts into the
    /// cumulative form Prometheus exposition uses. Empty trailing buckets
    /// (beyond the largest observation) are elided; the `+Inf` bucket is
    /// always present.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let raw: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let last_used = raw.iter().rposition(|&c| c > 0).unwrap_or(0);
        let mut cumulative = 0u64;
        let mut buckets = Vec::with_capacity(last_used + 2);
        for (i, &c) in raw.iter().enumerate().take(last_used + 1) {
            cumulative += c;
            buckets.push((Self::bound(i), cumulative));
        }
        let count = raw.iter().sum();
        if buckets.last().is_none_or(|&(b, _)| b.is_finite()) {
            buckets.push((f64::INFINITY, count));
        }
        HistogramSnapshot {
            count,
            sum: self.sum(),
            buckets,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::Arc;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        assert_eq!(c.get(), 0);
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn counter_is_safe_under_concurrent_increments() {
        let c = Arc::new(Counter::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000, "increments must never be lost");
    }

    #[test]
    fn gauge_roundtrips_floats_and_ints() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(0.625);
        assert_eq!(g.get(), 0.625);
        g.set_u64(u64::MAX);
        assert_eq!(g.get(), u64::MAX as f64);
        g.set(-1.5);
        assert_eq!(g.get(), -1.5);
    }

    #[test]
    fn gauge_adjust_moves_both_ways_without_losing_updates() {
        let g = Arc::new(Gauge::new());
        g.adjust(3.0);
        g.adjust(-1.0);
        assert_eq!(g.get(), 2.0);
        std::thread::scope(|s| {
            for t in 0..4 {
                let g = Arc::clone(&g);
                s.spawn(move || {
                    let delta = if t % 2 == 0 { 1.0 } else { -1.0 };
                    for _ in 0..5_000 {
                        g.adjust(delta);
                        g.adjust(2.0 * delta);
                    }
                });
            }
        });
        assert_eq!(g.get(), 2.0, "paired adjusters must cancel exactly");
    }

    #[test]
    fn observe_many_matches_repeated_observe() {
        let edge = [
            0u64,
            1,
            2,
            3,
            1 << 62,
            (1 << 62) + 1,
            u64::MAX,
            u64::MAX, // the sum wraps past u64::MAX
            7,
            1000,
        ];
        for len in 0..=edge.len() {
            let values = &edge[..len];
            let one_by_one = Histogram::new();
            for &v in values {
                one_by_one.observe(v);
            }
            let batched = Histogram::new();
            batched.observe_many(values);
            assert_eq!(
                batched.snapshot(),
                one_by_one.snapshot(),
                "first {len} values"
            );
        }
        // Batches add to what is already there, like single observations.
        let one_by_one = Histogram::new();
        let batched = Histogram::new();
        for &v in &edge {
            one_by_one.observe(v);
            one_by_one.observe(v);
        }
        batched.observe_many(&edge);
        batched.observe_many(&edge);
        let snap = batched.snapshot();
        assert_eq!(snap, one_by_one.snapshot());
        assert_eq!(snap.count, 2 * edge.len() as u64);
        let wrapped = edge.iter().fold(0u64, |a, &v| a.wrapping_add(v));
        assert_eq!(snap.sum, wrapped.wrapping_mul(2));
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Values land in the bucket whose upper bound is the smallest
        // power of two ≥ value (0 has its own bucket).
        assert_eq!(Histogram::slot(0), 0);
        assert_eq!(Histogram::slot(1), 1); // le 1
        assert_eq!(Histogram::slot(2), 2); // le 2
        assert_eq!(Histogram::slot(3), 3); // le 4
        assert_eq!(Histogram::slot(4), 3); // le 4
        assert_eq!(Histogram::slot(5), 4); // le 8
        assert_eq!(Histogram::slot(1 << 20), 21);
        assert_eq!(Histogram::slot((1 << 20) + 1), 22);
        assert_eq!(Histogram::slot(u64::MAX), BUCKETS - 1); // +Inf slot
    }

    #[test]
    fn histogram_snapshot_is_cumulative() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 2, 3, 4, 100] {
            h.observe(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 7);
        assert_eq!(snap.sum, 111);
        // Cumulative counts at each bound.
        let at = |bound: f64| {
            snap.buckets
                .iter()
                .find(|&&(b, _)| b == bound)
                .map(|&(_, c)| c)
        };
        assert_eq!(at(0.0), Some(1));
        assert_eq!(at(1.0), Some(3));
        assert_eq!(at(2.0), Some(4));
        assert_eq!(at(4.0), Some(6));
        assert_eq!(at(128.0), Some(7));
        let (last_bound, last_count) = *snap.buckets.last().unwrap();
        assert!(last_bound.is_infinite());
        assert_eq!(last_count, 7);
        // Monotone non-decreasing.
        for w in snap.buckets.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn quantiles_come_from_bucket_upper_bounds() {
        let h = Histogram::new();
        // 90 fast observations (≤ 8), 10 slow ones (≤ 1024).
        for _ in 0..90 {
            h.observe(7);
        }
        for _ in 0..10 {
            h.observe(1000);
        }
        let snap = h.snapshot();
        assert_eq!(snap.quantile(0.5), Some(8.0));
        assert_eq!(snap.quantile(0.9), Some(8.0));
        assert_eq!(snap.quantile(0.99), Some(1024.0));
        assert_eq!(snap.quantile(1.0), Some(1024.0));
        assert_eq!(snap.quantile(0.0), Some(8.0));
        // A value past every finite bucket lands in +Inf.
        h.observe(u64::MAX);
        assert_eq!(h.snapshot().quantile(1.0), Some(f64::INFINITY));
    }

    #[test]
    fn durations_observe_as_nanoseconds() {
        let h = Histogram::new();
        h.observe_duration(std::time::Duration::from_nanos(1500));
        assert_eq!(h.count(), 1);
        assert_eq!(h.sum(), 1500);
        // A duration too large for u64 nanoseconds saturates instead of
        // panicking and lands in +Inf.
        h.observe_duration(std::time::Duration::from_secs(u64::MAX / 1000));
        assert_eq!(h.snapshot().quantile(1.0), Some(f64::INFINITY));
    }

    #[test]
    fn empty_histogram_quantile_is_none() {
        assert_eq!(Histogram::new().snapshot().quantile(0.5), None);
    }

    #[test]
    fn empty_histogram_snapshot() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.sum, 0);
        assert_eq!(
            snap.buckets.last().map(|&(b, c)| (b.is_infinite(), c)),
            Some((true, 0))
        );
    }

    #[test]
    fn concurrent_observations_preserve_count_and_sum() {
        let h = Arc::new(Histogram::new());
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..5_000u64 {
                        h.observe(t + i % 7);
                    }
                });
            }
        });
        assert_eq!(h.count(), 20_000);
        let snap = h.snapshot();
        assert_eq!(snap.buckets.last().unwrap().1, 20_000);
    }
}
