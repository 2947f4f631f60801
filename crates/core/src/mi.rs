//! Minimal Increase — the insert-only accuracy booster of §3.2.

use sbf_hash::{HashFamily, Key};

use crate::core_ops::SbfCore;
use crate::metrics;
use crate::params::{FromParams, SbfParams};
use crate::sketch::{MultisetSketch, SketchReader};
use crate::store::{CounterStore, PlainCounters, RemoveError};
use crate::DefaultFamily;

/// The Minimal Increase SBF: on insert, only counters equal to the current
/// minimum are raised, performing "the minimal number of increases needed
/// to maintain `m_x ≥ f_x`".
///
/// Claim 4: MI's error probability and error size never exceed Minimum
/// Selection's; Claim 5: on uniform data the error probability drops by a
/// factor of `k`. The price (§3.2, "Minimal Increase and deletions"): the
/// method cannot support deletions — removing items introduces *false
/// negatives*. [`MultisetSketch::remove_by`] therefore returns
/// [`RemoveError::Unsupported`] by default; the experiments that reproduce
/// the paper's Figure 8/9 breakdown call [`MiSbf::remove_unchecked`]
/// explicitly.
///
/// ```
/// use spectral_bloom::{MiSbf, MultisetSketch, SketchReader};
///
/// let mut mi = MiSbf::new(2048, 5, 1);
/// mi.insert_by(&"query", 41);
/// mi.insert(&"query");
/// assert_eq!(mi.estimate(&"query"), 42);
/// assert!(mi.remove(&"query").is_err(), "MI refuses deletions");
/// ```
#[derive(Debug, Clone)]
pub struct MiSbf<F: HashFamily = DefaultFamily, S: CounterStore = PlainCounters> {
    core: SbfCore<F, S>,
    allow_deletions: bool,
}

impl MiSbf<DefaultFamily, PlainCounters> {
    /// An MI filter with `m` counters, `k` hash functions. Prefer
    /// [`FromParams::from_params`] when sizing from a capacity/error target.
    pub fn new(m: usize, k: usize, seed: u64) -> Self {
        Self::from_family(DefaultFamily::new(m, k, seed))
    }
}

impl FromParams for MiSbf<DefaultFamily, PlainCounters> {
    fn from_params(params: &SbfParams, seed: u64) -> Self {
        let (m, k) = params.dimensions();
        Self::new(m, k, seed)
    }
}

impl<F: HashFamily, S: CounterStore> MiSbf<F, S> {
    /// Builds over an explicit hash family.
    pub fn from_family(family: F) -> Self {
        MiSbf {
            core: SbfCore::from_family(family),
            allow_deletions: false,
        }
    }

    /// Opts in to (unsound) deletions, reproducing the paper's negative
    /// result: after deletions MI "becomes practically unusable" with
    /// false-negative errors 1–2 orders of magnitude above RM.
    pub fn with_unchecked_deletions(mut self) -> Self {
        self.allow_deletions = true;
        self
    }

    /// The underlying core.
    pub fn core(&self) -> &SbfCore<F, S> {
        &self.core
    }

    /// Unites another MI filter into this one by counter addition (§5).
    ///
    /// The sum is not the filter MI itself would have built over the
    /// combined stream (MI's floor rule is order-dependent), but every
    /// counter still dominates each key's combined true count, so
    /// estimates stay one-sided upper bounds — this is what lets
    /// [`crate::ShardedSketch`] union MI shards.
    pub fn union_assign<S2: CounterStore>(&mut self, other: &MiSbf<F, S2>)
    where
        F: PartialEq,
    {
        self.core.union_assign(&other.core);
    }

    /// Deletes by decrementing all counters, clamping at zero — the
    /// operation the paper warns about. Available regardless of the
    /// `allow_deletions` flag so experiments can show the damage.
    pub fn remove_unchecked<K: Key + ?Sized>(&mut self, key: &K, count: u64) {
        self.core.decrement_all_saturating(key, count);
    }
}

impl<F: HashFamily, S: CounterStore> SketchReader for MiSbf<F, S> {
    fn estimate<K: Key + ?Sized>(&self, key: &K) -> u64 {
        let est = self.core.min_of_key(key);
        metrics::on(|m| {
            m.estimates.inc();
            m.estimate_values.observe(est);
        });
        est
    }

    fn total_count(&self) -> u64 {
        self.core.total_count()
    }

    fn storage_bits(&self) -> usize {
        self.core.store().storage_bits()
    }

    fn occupancy(&self) -> f64 {
        self.core.occupancy()
    }
}

impl<F: HashFamily, S: CounterStore> MultisetSketch for MiSbf<F, S> {
    fn insert_by<K: Key + ?Sized>(&mut self, key: &K, count: u64) {
        metrics::on(|m| m.inserts.inc());
        // §3.2: "increase the smallest counter(s) by r, and update every
        // other counter to the maximum of its old value and m_x + r".
        let idx = self.core.key_indexes(key);
        let mx = self.core.key_counters_idx(&idx).min();
        self.core.raise_to_floor_idx(&idx, mx + count);
        self.core.add_to_total(count);
    }

    fn remove_by<K: Key + ?Sized>(&mut self, key: &K, count: u64) -> Result<(), RemoveError> {
        if !self.allow_deletions {
            return Err(RemoveError::Unsupported);
        }
        metrics::on(|m| m.removes.inc());
        self.remove_unchecked(key, count);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ms::MsSbf;

    #[test]
    fn one_sided_without_deletions() {
        let mut mi = MiSbf::new(2048, 5, 1);
        for key in 0u64..300 {
            for _ in 0..(key % 7 + 1) {
                mi.insert(&key);
            }
        }
        for key in 0u64..300 {
            assert!(mi.estimate(&key) > key % 7, "false negative for {key}");
        }
    }

    #[test]
    fn batch_insert_equals_iterated_insert() {
        let mut a = MiSbf::new(512, 5, 2);
        let mut b = MiSbf::new(512, 5, 2);
        let keys = [3u64, 9, 3, 27, 81, 3, 9];
        for &k in &keys {
            a.insert(&k);
        }
        b.insert_by(&3u64, 3);
        b.insert_by(&9u64, 2);
        b.insert_by(&27u64, 1);
        b.insert_by(&81u64, 1);
        // Batch order differs from interleaved order, so counters may not be
        // bit-identical; but estimates of inserted keys must still dominate
        // the true counts, and on an otherwise-empty filter they are equal.
        assert_eq!(a.estimate(&3u64), 3);
        assert_eq!(b.estimate(&3u64), 3);
        assert_eq!(b.estimate(&9u64), 2);
    }

    #[test]
    fn never_worse_than_ms_on_same_stream() {
        // Claim 4: per-key error of MI ≤ error of MS.
        let mut ms = MsSbf::new(700, 5, 3);
        let mut mi = MiSbf::new(700, 5, 3);
        // Dense load to force collisions.
        let stream: Vec<u64> = (0..5000).map(|i| (i * 17) % 400).collect();
        for &x in &stream {
            use crate::sketch::MultisetSketch as _;
            ms.insert(&x);
            mi.insert(&x);
        }
        let mut truth = std::collections::HashMap::new();
        for &x in &stream {
            *truth.entry(x).or_insert(0u64) += 1;
        }
        for (&x, &f) in &truth {
            let e_ms = ms.estimate(&x) - f;
            let e_mi = mi.estimate(&x).saturating_sub(f);
            assert!(e_mi <= e_ms, "key {x}: MI error {e_mi} > MS error {e_ms}");
        }
    }

    #[test]
    fn remove_is_refused_by_default() {
        let mut mi = MiSbf::new(128, 4, 4);
        mi.insert(&1u64);
        // The refusal is `Unsupported`, not an `Underflow` with a
        // fabricated counter index a caller could mistakenly index with.
        assert_eq!(mi.remove(&1u64), Err(RemoveError::Unsupported));
        assert_eq!(mi.estimate(&1u64), 1, "refused remove must not mutate");
    }

    #[test]
    fn unchecked_deletions_can_create_false_negatives() {
        // Construct the §3.2 failure: y shares counters with x; inserting x
        // via MI leaves some of y's counters low, so deleting y drags x's
        // counters below f_x.
        let mut mi = MiSbf::new(8, 1, 5).with_unchecked_deletions();
        // With k = 1 and m = 8 collisions are certain among 20 keys.
        let mut colliding = None;
        let idx0 = mi.core().family().indexes(&0u64)[0];
        for cand in 1u64..40 {
            if mi.core().family().indexes(&cand)[0] == idx0 {
                colliding = Some(cand);
                break;
            }
        }
        let y = colliding.expect("collision must exist in 8 slots");
        mi.insert_by(&0u64, 5);
        mi.insert_by(&y, 2); // MI: counter already ≥ 5+2? min is 5, floor 7
        mi.remove_by(&y, 2).unwrap();
        // Counter is now 5 + 2 − 2 = 5 only if MI raised it; the point is the
        // estimate may drop below the true count in adversarial orders.
        // Reverse order demonstrates the drop:
        let mut mi2 = MiSbf::new(8, 1, 5).with_unchecked_deletions();
        mi2.insert_by(&y, 2);
        mi2.insert_by(&0u64, 5); // floor = 2 + 5 = 7 (shared counter)
        mi2.remove_by(&y, 2).unwrap(); // counter 7 → 5: still fine
        mi2.remove_by(&y, 2).unwrap(); // y over-deleted: counter 5 → 3 < 5
        assert!(mi2.estimate(&0u64) < 5, "expected a false negative");
    }
}
