//! The query/update abstractions shared by all SBF algorithms:
//! [`SketchReader`] for shared-reference queries, [`MultisetSketch`] for
//! the full update contract — both in single-item and batched form.
//!
//! The batched methods default to item-at-a-time loops. Only
//! [`crate::MsSbf`] overrides them with the pipelined engines of
//! [`crate::SbfCore`], and [`crate::ShardedSketch`] partitions a batch
//! across its shards before handing each shard its picks; every other
//! sketch answers a batch key by key, with the same results.

use sbf_hash::Key;

use crate::num;
use crate::store::RemoveError;

/// Read-only multiplicity queries by `&self`.
///
/// This is the half of the sketch contract that a concurrent backend can
/// honour without exclusive access: [`crate::ShardedSketch`] implements it
/// alongside the four single-threaded algorithms, so query-side code —
/// iceberg scans, join candidate filtering — is written once over any
/// backend.
///
/// The accuracy contract mirrors the paper's claims: estimates are
/// one-sided (`estimate(x) ≥ f_x`) for the Minimum Selection and Recurring
/// Minimum families; Minimal Increase preserves this only while no removals
/// occur (§3.2).
///
/// # Batched queries
///
/// [`SketchReader::estimate_batch_into`] answers many keys in one call and
/// returns **bit-identical** results to per-key [`SketchReader::estimate`].
/// Two backends override it, only to go faster, never to change answers:
/// [`crate::MsSbf`] (software-pipelined hashing with counter prefetch, or
/// the SIMD lane pass) and [`crate::ShardedSketch`] (one lock acquisition
/// per shard). Every other sketch answers with the per-key loop.
pub trait SketchReader {
    /// Estimates the multiplicity `f̂_key`.
    fn estimate<K: Key + ?Sized>(&self, key: &K) -> u64;

    /// Estimates every key of `keys`, writing the results into `out`
    /// (cleared first; `out[i]` answers `keys[i]`).
    ///
    /// Results are exactly those of calling [`SketchReader::estimate`] per
    /// key. Passing a reused buffer keeps the steady-state allocation count
    /// at zero.
    fn estimate_batch_into<K: Key>(&self, keys: &[K], out: &mut Vec<u64>) {
        out.clear();
        out.reserve(keys.len());
        for key in keys {
            out.push(self.estimate(key));
        }
    }

    /// Convenience form of [`SketchReader::estimate_batch_into`] returning
    /// a fresh `Vec`.
    fn estimate_batch<K: Key>(&self, keys: &[K]) -> Vec<u64> {
        let mut out = Vec::new();
        self.estimate_batch_into(keys, &mut out);
        out
    }

    /// Estimates the keys selected by `picks` (indices into `keys`), in
    /// pick order, **appending** one result per pick to `out` (not clearing
    /// it — callers accumulate across several picked sub-batches).
    ///
    /// This is the indirection [`crate::ShardedSketch`] batches through: it
    /// partitions a batch into per-shard pick lists once and hands each
    /// shard its picks, so the scratch buffers hold plain indices rather
    /// than borrowed keys. Results are exactly per-key
    /// [`SketchReader::estimate`] calls.
    fn estimate_batch_picked_into<K: Key>(&self, keys: &[K], picks: &[u32], out: &mut Vec<u64>) {
        out.reserve(picks.len());
        for &j in picks {
            out.push(self.estimate(&keys[num::to_usize(j)]));
        }
    }

    /// Membership test: `f̂ > 0` (identical to a plain Bloom filter, §2.2).
    fn contains<K: Key + ?Sized>(&self, key: &K) -> bool {
        self.estimate(key) > 0
    }

    /// Spectral threshold test: `f̂ ≥ threshold`, false positives only (for
    /// the one-sided algorithms).
    fn passes_threshold<K: Key + ?Sized>(&self, key: &K, threshold: u64) -> bool {
        self.estimate(key) >= threshold
    }

    /// Total multiplicity currently represented.
    fn total_count(&self) -> u64;

    /// Storage footprint in bits.
    fn storage_bits(&self) -> usize;

    /// Fraction of non-zero counters (the load signal telemetry publishes
    /// per shard; `0.0` for an empty sketch).
    fn occupancy(&self) -> f64;
}

/// A sketch answering multiplicity queries over a dynamic multiset, with
/// updates.
///
/// Every single-threaded SBF variant implements this, so applications —
/// iceberg queries, range trees, Bloomjoins, bifocal sampling — are written
/// once and run under any estimation policy. Query-only code should bound
/// on the [`SketchReader`] supertrait instead, which the concurrent
/// backends also implement. The update contract:
///
/// * `remove` of a key truly present `count` times always succeeds for the
///   MS/RM families; Minimal Increase refuses with
///   [`RemoveError::Unsupported`].
///
/// Prefer constructing implementations through
/// [`crate::params::FromParams`] (capacity/error-rate sizing in one place)
/// over the positional `new(m, k, seed)` constructors.
///
/// # Batched updates
///
/// [`MultisetSketch::insert_batch`] applies the items **in order** and
/// leaves the sketch in exactly the state the item-at-a-time loop would.
/// [`crate::MsSbf`] is the one sketch that overrides it, for throughput
/// only: hashing item `i+D` and prefetching its counter lines while item
/// `i` is applied hides the cache-miss latency that dominates at
/// production `m`. There is no batched removal; remove key by key.
pub trait MultisetSketch: SketchReader {
    /// Adds `count` occurrences of `key`.
    fn insert_by<K: Key + ?Sized>(&mut self, key: &K, count: u64);

    /// Adds one occurrence of `key`.
    fn insert<K: Key + ?Sized>(&mut self, key: &K) {
        self.insert_by(key, 1);
    }

    /// Adds one occurrence of every key in `keys`, in order. Equivalent to
    /// — and bit-identical with — inserting each in turn.
    fn insert_batch<K: Key>(&mut self, keys: &[K]) {
        for key in keys {
            self.insert(key);
        }
    }

    /// Adds one occurrence of each key selected by `picks` (indices into
    /// `keys`), in pick order — the mutation-side counterpart of
    /// [`SketchReader::estimate_batch_picked_into`], used by
    /// [`crate::ShardedSketch`] to hand each shard its partition of a batch
    /// without materialising per-shard key slices.
    fn insert_batch_picked<K: Key>(&mut self, keys: &[K], picks: &[u32]) {
        for &j in picks {
            self.insert(&keys[num::to_usize(j)]);
        }
    }

    /// Removes `count` occurrences of `key`.
    fn remove_by<K: Key + ?Sized>(&mut self, key: &K, count: u64) -> Result<(), RemoveError>;

    /// Removes one occurrence of `key`.
    fn remove<K: Key + ?Sized>(&mut self, key: &K) -> Result<(), RemoveError> {
        self.remove_by(key, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ms::MsSbf;

    #[test]
    fn default_batch_methods_match_singles() {
        let mut a = MsSbf::new(1024, 4, 1);
        let mut b = MsSbf::new(1024, 4, 1);
        let keys: Vec<u64> = (0..200).map(|i| i % 40).collect();
        // Route through the *default* trait bodies to pin their contract.
        fn insert_default<S: MultisetSketch, K: Key>(s: &mut S, keys: &[K]) {
            for key in keys {
                s.insert(key);
            }
        }
        insert_default(&mut a, &keys);
        b.insert_batch(&keys);
        let probes: Vec<u64> = (0..60).collect();
        assert_eq!(a.estimate_batch(&probes), b.estimate_batch(&probes));
        assert_eq!(a.total_count(), b.total_count());
    }
}
