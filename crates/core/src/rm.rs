//! Recurring Minimum — the delete-capable accuracy booster of §3.3.

use sbf_hash::{HashFamily, Key};

use crate::bloom::BloomFilter;
use crate::core_ops::SbfCore;
use crate::metrics;
use crate::params::{FromParams, SbfParams};
use crate::sketch::{MultisetSketch, SketchReader};
use crate::store::{CounterStore, PlainCounters, RemoveError};
use crate::DefaultFamily;

/// The Recurring Minimum SBF.
///
/// Observation (§3.3): an item suffering a Bloom error typically has a
/// *single* minimum among its `k` counters; items with a *recurring*
/// minimum are rarely wrong. RM therefore answers recurring-minimum items
/// from the primary SBF and mirrors single-minimum items into a smaller
/// **secondary SBF**, whose lighter load (γ_s) makes it far more accurate.
/// Unlike Minimal Increase, the scheme supports deletions and updates with
/// no false negatives.
///
/// An optional **marker Bloom filter** (the refinement of §3.3) pins items
/// to the secondary SBF once moved, avoiding repeated single-minimum
/// re-detection; its own error contributes `≈ (1 − e^{−γ/5})^k`, negligible
/// per the paper's arithmetic. It is on by default.
///
/// ```
/// use spectral_bloom::{RmSbf, MultisetSketch, SketchReader};
///
/// let mut rm = RmSbf::new(3000, 5, 7); // total space, split ⅔/⅓
/// for day in 0..30u64 {
///     rm.insert(&day);
/// }
/// rm.remove(&3u64).unwrap();           // deletions are first-class
/// assert_eq!(rm.estimate(&3u64), 0);
/// assert!(rm.estimate(&4u64) >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct RmSbf<F: HashFamily = DefaultFamily, S: CounterStore = PlainCounters> {
    primary: SbfCore<F, S>,
    secondary: SbfCore<F, S>,
    marker: Option<BloomFilter<F>>,
}

impl RmSbf<DefaultFamily, PlainCounters> {
    /// Splits a *total* budget of `m_total` counters space-fairly: ⅔ to the
    /// primary SBF and ⅓ to the secondary (the secondary is then half the
    /// primary, the `m_s = m/2` setup of the paper's Table 1).
    pub fn new(m_total: usize, k: usize, seed: u64) -> Self {
        let m_secondary = (m_total / 3).max(1);
        let m_primary = (m_total - m_secondary).max(1);
        Self::with_split(m_primary, m_secondary, k, seed)
    }

    /// Explicit primary/secondary sizes. Prefer [`FromParams::from_params`]
    /// when sizing from a capacity/error target.
    ///
    /// The §3.3 marker-filter refinement is enabled by default (a Bloom
    /// filter of `m_primary` *bits* pinning moved items to the secondary):
    /// without it, an item that drifts back to a recurring minimum stops
    /// updating its secondary counters, and unmoved single-minimum items
    /// read other keys' mass out of the secondary — both effects measurably
    /// erode RM's advantage (see EXPERIMENTS.md). Use
    /// [`RmSbf::without_marker`] for the base algorithm.
    pub fn with_split(m_primary: usize, m_secondary: usize, k: usize, seed: u64) -> Self {
        RmSbf {
            primary: SbfCore::from_family(DefaultFamily::new(m_primary, k, seed)),
            secondary: SbfCore::from_family(DefaultFamily::new(m_secondary, k, seed ^ 0x5ec0_4da5)),
            marker: Some(BloomFilter::from_family(DefaultFamily::new(
                m_primary,
                k,
                seed ^ 0x6d61_726b,
            ))),
        }
    }
}

impl FromParams for RmSbf<DefaultFamily, PlainCounters> {
    fn from_params(params: &SbfParams, seed: u64) -> Self {
        let (m, k) = params.dimensions();
        Self::new(m, k, seed)
    }
}

impl<F: HashFamily, S: CounterStore> RmSbf<F, S> {
    /// Builds from explicit primary and secondary hash families.
    pub fn from_families(primary: F, secondary: F) -> Self {
        RmSbf {
            primary: SbfCore::from_family(primary),
            secondary: SbfCore::from_family(secondary),
            marker: None,
        }
    }

    /// Enables the marker-filter refinement with the given marker family.
    pub fn with_marker(mut self, marker_family: F) -> Self {
        self.marker = Some(BloomFilter::from_family(marker_family));
        self
    }

    /// Disables the marker refinement — the base §3.3 algorithm, where
    /// membership in the secondary is inferred from its counters.
    pub fn without_marker(mut self) -> Self {
        self.marker = None;
        self
    }

    /// The primary SBF core.
    pub fn primary(&self) -> &SbfCore<F, S> {
        &self.primary
    }

    /// The secondary SBF core.
    pub fn secondary(&self) -> &SbfCore<F, S> {
        &self.secondary
    }

    /// Whether `key` currently shows a recurring minimum in the primary.
    pub fn has_recurring_min<K: Key + ?Sized>(&self, key: &K) -> bool {
        self.primary.key_counters(key).has_recurring_min()
    }

    /// Unites another RM filter into this one: primary and secondary by
    /// counter addition (§5), markers by bitwise OR.
    ///
    /// Sound when each key's occurrences all live in **one** of the two
    /// filters — the invariant [`crate::ShardedSketch`]'s hash routing
    /// maintains — because then the other filter contributes only collision
    /// mass, which can only raise counters. (Splitting one key's mass
    /// across both inputs could under-read through the secondary, which is
    /// why this is not exposed as a general multiset union.)
    pub fn union_assign(&mut self, other: &RmSbf<F, S>)
    where
        F: PartialEq,
    {
        self.primary.union_assign(&other.primary);
        self.secondary.union_assign(&other.secondary);
        match (&mut self.marker, &other.marker) {
            (Some(mine), Some(theirs)) => mine.union_assign(theirs),
            (None, None) => {}
            _ => panic!("union requires both RM filters to agree on the marker refinement"),
        }
    }

    fn in_secondary<K: Key + ?Sized>(&self, key: &K) -> bool {
        if let Some(marker) = &self.marker {
            return marker.contains(key);
        }
        self.secondary.key_counters(key).min() > 0
    }

    /// The §3.3 estimate rule, before instrumentation.
    fn estimate_uninstrumented<K: Key + ?Sized>(&self, key: &K) -> u64 {
        let kc = self.primary.key_counters(key);
        if let Some(marker) = &self.marker {
            if marker.contains(key) {
                let s = self.secondary.key_counters(key).min();
                return if s > 0 { s.min(kc.min()) } else { kc.min() };
            }
            return kc.min();
        }
        if kc.has_recurring_min() {
            return kc.min();
        }
        let s = self.secondary.key_counters(key).min();
        if s > 0 {
            s.min(kc.min())
        } else {
            kc.min()
        }
    }
}

impl<F: HashFamily, S: CounterStore> SketchReader for RmSbf<F, S> {
    fn estimate<K: Key + ?Sized>(&self, key: &K) -> u64 {
        // "Check if x has a recurring minimum in the primary SBF. If so
        // return the minimum. Otherwise perform lookup in the secondary; if
        // the returned value is greater than 0, return it. Otherwise return
        // the minimum from the primary SBF."
        // The secondary answer is capped by the primary minimum: the
        // primary is a sound upper bound, so the cap only removes
        // overestimates (secondary collisions can otherwise exceed it).
        let est = self.estimate_uninstrumented(key);
        metrics::on(|m| {
            m.estimates.inc();
            m.estimate_values.observe(est);
        });
        est
    }

    fn total_count(&self) -> u64 {
        self.primary.total_count()
    }

    fn storage_bits(&self) -> usize {
        self.primary.store().storage_bits()
            + self.secondary.store().storage_bits()
            + self.marker.as_ref().map_or(0, BloomFilter::storage_bits)
    }

    fn occupancy(&self) -> f64 {
        // The primary carries the load signal; the secondary holds only the
        // single-minimum spill-over.
        self.primary.occupancy()
    }
}

impl<F: HashFamily, S: CounterStore> MultisetSketch for RmSbf<F, S> {
    fn insert_by<K: Key + ?Sized>(&mut self, key: &K, count: u64) {
        metrics::on(|m| {
            m.inserts.inc();
            m.rm_inserts.inc();
        });
        // "When adding an item x, increase the counters of x in the primary
        // SBF. Then check if x has a recurring minimum. If so, continue
        // normally."
        let idx = self.primary.key_indexes(key);
        self.primary.increment_idx(&idx, count);
        let kc = self.primary.key_counters_idx(&idx);
        if kc.has_recurring_min() && !self.marker.as_ref().is_some_and(|m| m.contains(key)) {
            return;
        }
        // "Otherwise look for x in the secondary SBF. If found, increase
        // its counters, otherwise add x to the secondary SBF, with an
        // initial value that equals its minimal value from the primary."
        // Multiplicity totals are tracked by the primary core alone; the
        // secondary's internal total is not meaningful and never read.
        metrics::on(|m| m.rm_secondary_spills.inc());
        if self.in_secondary(key) && self.secondary.key_counters(key).min() > 0 {
            self.secondary.increment_all(key, count);
        } else {
            let initial = kc.min();
            self.secondary.increment_all(key, initial);
            if let Some(marker) = &mut self.marker {
                marker.insert(key);
            }
        }
    }

    fn remove_by<K: Key + ?Sized>(&mut self, key: &K, count: u64) -> Result<(), RemoveError> {
        metrics::on(|m| m.removes.inc());
        // "Deleting x is essentially reversing the increase operation:
        // first decrease its counters in the primary SBF, then if it has a
        // single minimum (or if it exists in Bf) decrease its counters in
        // the secondary SBF, unless at least one of them is 0."
        let idx = self.primary.key_indexes(key);
        self.primary.decrement_idx(&idx, count)?;
        let single_min = !self.primary.key_counters_idx(&idx).has_recurring_min();
        if single_min || self.in_secondary(key) {
            let s_min = self.secondary.key_counters(key).min();
            if s_min >= count {
                self.secondary
                    .decrement_all(key, count)
                    .unwrap_or_else(|_| unreachable!("secondary min pre-checked"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_are_one_sided() {
        let mut rm = RmSbf::new(3000, 5, 1);
        for key in 0u64..400 {
            rm.insert_by(&key, key % 11 + 1);
        }
        for key in 0u64..400 {
            assert!(rm.estimate(&key) > key % 11, "false negative for {key}");
        }
    }

    #[test]
    fn deletions_leave_no_false_negatives() {
        let mut rm = RmSbf::new(1500, 5, 2);
        for key in 0u64..200 {
            rm.insert_by(&key, 10);
        }
        for key in 0u64..200 {
            rm.remove_by(&key, 4).unwrap();
        }
        for key in 0u64..200 {
            assert!(
                rm.estimate(&key) >= 6,
                "false negative after deletes for {key}"
            );
        }
        // Full removal drives estimates to zero for most keys.
        for key in 0u64..200 {
            rm.remove_by(&key, 6).unwrap();
        }
        let nonzero = (0u64..200).filter(|k| rm.estimate(k) > 0).count();
        assert!(nonzero <= 20, "{nonzero} keys stuck above zero");
    }

    #[test]
    fn beats_ms_on_streaming_inserts() {
        use crate::ms::MsSbf;
        // The paper's regime: incremental single inserts (RM's
        // single-minimum detection is an *online* signal; bulk-loading a
        // key's whole mass in one call gives it nothing to observe).
        // Primary sized for γ = 0.7 at n = 500, secondary = m/2, and MS is
        // given the same primary size, as in Table 1.
        let n = 500u64;
        let k = 5;
        let m_primary = (n as usize * k * 10) / 7;
        let mut ms = MsSbf::new(m_primary, k, 3);
        let mut rm = RmSbf::with_split(m_primary, m_primary / 2, k, 3);
        // Skewed incremental stream: key i appears 1 + 4000/(i+1) times,
        // round-robin so arrivals interleave.
        let freq = |key: u64| 1 + 4000 / (key + 1);
        let mut remaining: Vec<u64> = (0..n).map(freq).collect();
        let mut any = true;
        while any {
            any = false;
            for key in 0..n {
                if remaining[key as usize] > 0 {
                    remaining[key as usize] -= 1;
                    ms.insert(&key);
                    rm.insert(&key);
                    any = true;
                }
            }
        }
        // RM's late-detection path can slightly *under*-estimate (the
        // secondary value of a never-moved key is another key's mass), so
        // measure absolute error for both.
        let mut ms_err = 0u64;
        let mut rm_err = 0u64;
        for key in 0..n {
            let f = freq(key);
            ms_err += ms.estimate(&key).abs_diff(f);
            rm_err += rm.estimate(&key).abs_diff(f);
        }
        assert!(
            rm_err <= ms_err,
            "RM total error {rm_err} should not exceed MS {ms_err} (same primary size)"
        );
    }

    #[test]
    fn marker_variant_roundtrips() {
        use sbf_hash::MixFamily;
        let primary = MixFamily::new(1000, 5, 7);
        let secondary = MixFamily::new(500, 5, 8);
        let marker = MixFamily::new(1000, 5, 9);
        let mut rm: RmSbf<MixFamily, PlainCounters> =
            RmSbf::from_families(primary, secondary).with_marker(marker);
        for key in 0u64..150 {
            rm.insert_by(&key, 5);
        }
        for key in 0u64..150 {
            assert!(rm.estimate(&key) >= 5);
        }
        for key in 0u64..150 {
            rm.remove_by(&key, 5).unwrap();
        }
        let nonzero = (0u64..150).filter(|k| rm.estimate(k) > 0).count();
        assert!(nonzero <= 15);
    }

    #[test]
    fn update_pattern() {
        let mut rm = RmSbf::new(600, 5, 4);
        rm.insert_by(&"gauge", 10);
        rm.remove_by(&"gauge", 10).unwrap();
        rm.insert_by(&"gauge", 3);
        let est = rm.estimate(&"gauge");
        assert!(est >= 3, "estimate {est} below true count");
    }

    #[test]
    fn total_count_tracks_primary() {
        let mut rm = RmSbf::new(300, 4, 5);
        rm.insert_by(&1u64, 5);
        rm.insert_by(&2u64, 7);
        assert_eq!(rm.total_count(), 12);
        rm.remove_by(&1u64, 5).unwrap();
        assert_eq!(rm.total_count(), 7);
    }
}
