//! Order statistics: the latency histogram and its percentile rule, and
//! the median and quartiles the spread and compare rules use.

/// The tail percentiles the output considers, lowest first, as
/// `(label, numerator, denominator)`: `p99` is `99/100`. Integer ratios
/// keep the rank arithmetic exact.
pub const TAILS: [(&str, u64, u64); 5] = [
    ("p50", 1, 2),
    ("p90", 9, 10),
    ("p99", 99, 100),
    ("p99.9", 999, 1000),
    ("p99.99", 9999, 10000),
];

/// Nearest rank of the `num/den` percentile among `n` samples (1-based):
/// the smallest rank with at least `num/den` of the samples at or below it.
pub fn rank(n: usize, num: u64, den: u64) -> usize {
    let n64 = n as u64;
    (n64 * num).div_ceil(den).clamp(1, n64.max(1)) as usize
}

/// Sub-buckets per power of two: a latency is kept to 1/128 of itself.
const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;

/// A log-linear histogram of latencies in nanoseconds, exact below 128 ns
/// and within 0.4% above. Its memory is fixed (58 KiB), so a program that
/// serves more frames does not show up as a larger `rss_mb`, and a run can
/// keep one per measured window.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    n: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; (64 - SUB_BITS as usize + 1) * SUB as usize],
            n: 0,
            max: 0,
        }
    }
}

impl Histogram {
    fn index(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        ((u64::from(shift) + 1) * SUB + ((v >> shift) & (SUB - 1))) as usize
    }

    /// The middle of bucket `i`.
    fn value(i: usize) -> u64 {
        let i = i as u64;
        if i < SUB {
            return i;
        }
        let shift = i / SUB - 1;
        ((SUB + i % SUB) << shift) + (1 << shift) / 2
    }

    pub fn record(&mut self, ns: u64) {
        self.counts[Self::index(ns)] += 1;
        self.n += 1;
        self.max = self.max.max(ns);
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> usize {
        self.n as usize
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// The `num/den` percentile (nearest rank); 0 when empty.
    pub fn percentile(&self, num: u64, den: u64) -> u64 {
        if self.n == 0 {
            return 0;
        }
        let rank = rank(self.count(), num, den) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::value(i).min(self.max);
            }
        }
        self.max
    }
}

/// The highest percentile in [`TAILS`] that leaves at least ten samples
/// beyond it among `n` samples, with that count; `None` below 20 samples.
pub fn tail(n: usize) -> Option<(&'static str, u64, u64, usize)> {
    TAILS.iter().rev().find_map(|&(label, num, den)| {
        let beyond = n - rank(n, num, den);
        (n > 0 && beyond >= 10).then_some((label, num, den, beyond))
    })
}

/// The median, averaging the middle pair for an even count.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles by Python's `statistics.quantiles(values,
/// n=4)` (the default "exclusive" method), so spreads computed here match
/// the ones a Python reader computes from the same values. Needs at least
/// two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len() as i64;
    let m = ld + 1;
    let cut = |i: i64| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m - j * 4) as f64;
        (v[(j - 1) as usize] * (4.0 - delta) + v[j as usize] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut h = Histogram::default();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.percentile(1, 2), 50);
        assert_eq!(h.percentile(99, 100), 99);
        assert_eq!(h.percentile(1, 1), 100);
        let mut one = Histogram::default();
        one.record(7);
        assert_eq!(one.percentile(99, 100), 7);
        assert_eq!(Histogram::default().percentile(1, 2), 0);
    }

    #[test]
    fn histogram_keeps_values_within_four_tenths_of_a_percent() {
        for v in [
            127,
            128,
            129,
            1_025,
            31_234,
            640_000,
            2_176_861,
            9_999_999_999,
        ] {
            let mut h = Histogram::default();
            h.record(v);
            h.record(u64::MAX);
            let got = h.percentile(1, 2);
            assert!(
                got.abs_diff(v) as f64 <= v as f64 / 256.0,
                "{v} read back as {got}"
            );
        }
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        a.record(10);
        b.record(30);
        a.merge(&b);
        assert_eq!((a.count(), a.max(), a.percentile(1, 1)), (2, 30, 30));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail(19), None);
        assert_eq!(tail(20).map(|t| (t.0, t.3)), Some(("p50", 10)));
        assert_eq!(tail(99).map(|t| t.0), Some("p50"));
        assert_eq!(tail(100).map(|t| (t.0, t.3)), Some(("p90", 10)));
        assert_eq!(tail(999).map(|t| t.0), Some("p90"));
        assert_eq!(tail(1000).map(|t| (t.0, t.3)), Some(("p99", 10)));
        assert_eq!(tail(10_000).map(|t| (t.0, t.3)), Some(("p99.9", 10)));
        assert_eq!(tail(10_000_000).map(|t| t.0), Some("p99.99"));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
        assert_eq!(median(&[3.0, 1.0, 4.0, 1.0]), 2.0);
    }
}
