//! Collision oracle: on geometries so small that most keys have two hash
//! functions landing on one counter (m ∈ {2, 3, 5, 17}), every write path
//! must leave exactly the counters of a reference that touches each member
//! of a key's raw-family index *set* once per occurrence (§3.1). The
//! filters keep a key's distinct indices in hash-function order and sort
//! only on a collision, so these geometries drive that rare branch on
//! nearly every key.

use std::collections::BTreeSet;

use sbf_hash::{HashFamily, MixFamily, MAX_K};
use spectral_bloom::{
    CounterStore, MiSbf, MsSbf, MultisetSketch, RmSbf, SbfCore, ShardedSketch, SketchReader,
};

const GEOMETRIES: [(usize, usize); 8] = [
    (2, 5),
    (3, 5),
    (5, 5),
    (17, 5),
    (2, MAX_K),
    (3, MAX_K),
    (5, MAX_K),
    (17, MAX_K),
];

const SEED: u64 = 0xC011_1DE5;

type Core = SbfCore<MixFamily>;

fn family(m: usize, k: usize) -> MixFamily {
    MixFamily::new(m, k, SEED)
}

/// A stream of 23 distinct keys with repeats, in a scrambled order.
fn stream() -> Vec<u64> {
    (0..120u64).map(|i| (i * 7) % 23).collect()
}

/// The distinct counters `family` maps `key` to.
fn index_set(family: &MixFamily, key: u64) -> BTreeSet<usize> {
    family.indexes(&key).as_slice().iter().copied().collect()
}

/// Minimum Selection reference: every distinct counter of a key is bumped
/// once per occurrence.
fn ms_reference(family: &MixFamily, keys: &[u64]) -> Vec<u64> {
    let mut counters = vec![0u64; family.m()];
    for &key in keys {
        for i in index_set(family, key) {
            counters[i] += 1;
        }
    }
    counters
}

/// Minimal Increase reference (§3.2): raise every distinct counter of a key
/// to at least its minimum plus one.
fn mi_reference(family: &MixFamily, keys: &[u64]) -> Vec<u64> {
    let mut counters = vec![0u64; family.m()];
    for &key in keys {
        let set = index_set(family, key);
        let floor = set.iter().map(|&i| counters[i]).min().unwrap_or(0) + 1;
        for i in set {
            counters[i] = counters[i].max(floor);
        }
    }
    counters
}

/// Recurring Minimum reference (§3.3, no marker filter), with minimum
/// multiplicities counted over the distinct counters.
fn rm_reference(primary: &MixFamily, secondary: &MixFamily, keys: &[u64]) -> [Vec<u64>; 2] {
    let mut p = vec![0u64; primary.m()];
    let mut s = vec![0u64; secondary.m()];
    for &key in keys {
        let pset = index_set(primary, key);
        for &i in &pset {
            p[i] += 1;
        }
        let p_min = pset.iter().map(|&i| p[i]).min().unwrap_or(0);
        let recurring = pset.iter().filter(|&&i| p[i] == p_min).count() >= 2;
        if recurring {
            continue;
        }
        let sset = index_set(secondary, key);
        let s_min = sset.iter().map(|&i| s[i]).min().unwrap_or(0);
        let by = if s_min > 0 { 1 } else { p_min };
        for i in sset {
            s[i] += by;
        }
    }
    [p, s]
}

fn counters<S: CounterStore>(core: &SbfCore<MixFamily, S>) -> Vec<u64> {
    (0..core.m()).map(|i| core.store().get(i)).collect()
}

#[test]
fn the_geometries_collide_on_most_keys() {
    for (m, k) in GEOMETRIES {
        let f = family(m, k);
        let colliding = (0..23u64)
            .filter(|&key| index_set(&f, key).len() < k)
            .count();
        assert!(colliding >= 12, "m={m} k={k}: only {colliding}/23 collide");
    }
}

#[test]
fn core_write_paths_match_the_set_reference() {
    let keys = stream();
    let picks: Vec<u32> = (0..u32::try_from(keys.len()).unwrap()).rev().collect();
    let picked: Vec<u64> = picks.iter().map(|&j| keys[j as usize]).collect();
    for (m, k) in GEOMETRIES {
        let f = family(m, k);
        let want = ms_reference(&f, &keys);

        let mut single = Core::from_family(f.clone());
        for key in &keys {
            single.increment_all(key, 1);
        }
        assert_eq!(counters(&single), want, "increment_all m={m} k={k}");

        let mut batch = Core::from_family(f.clone());
        batch.increment_batch(&keys);
        assert_eq!(counters(&batch), want, "increment_batch m={m} k={k}");

        let mut by_pick = Core::from_family(f.clone());
        by_pick.increment_batch_picked(&keys, &picks);
        assert_eq!(
            counters(&by_pick),
            ms_reference(&f, &picked),
            "increment_batch_picked m={m} k={k}"
        );

        // Draining the first half key by key leaves the second half's mass.
        let half = keys.len() / 2;
        for key in &keys[..half] {
            batch.decrement_all(key, 1).unwrap();
        }
        assert_eq!(
            counters(&batch),
            ms_reference(&f, &keys[half..]),
            "decrement_all m={m} k={k}"
        );
        for key in &keys[half..] {
            batch.decrement_all(key, 1).unwrap();
        }
        assert!(counters(&batch).iter().all(|&c| c == 0), "m={m} k={k}");
        assert_eq!(batch.total_count(), 0);
    }
}

#[test]
fn ms_and_mi_sketches_match_the_set_reference() {
    let keys = stream();
    for (m, k) in GEOMETRIES {
        let f = family(m, k);
        let ms_want = ms_reference(&f, &keys);
        let mi_want = mi_reference(&f, &keys);

        let mut ms: MsSbf<MixFamily> = MsSbf::from_family(f.clone());
        for key in &keys {
            ms.insert(key);
        }
        assert_eq!(counters(ms.core()), ms_want, "MsSbf insert m={m} k={k}");
        let mut ms_batch: MsSbf<MixFamily> = MsSbf::from_family(f.clone());
        ms_batch.insert_batch(&keys);
        assert_eq!(
            counters(ms_batch.core()),
            ms_want,
            "MsSbf batch m={m} k={k}"
        );

        let mut mi: MiSbf<MixFamily> = MiSbf::from_family(f.clone());
        for key in &keys {
            mi.insert(key);
        }
        assert_eq!(counters(mi.core()), mi_want, "MiSbf insert m={m} k={k}");
        let mut mi_batch: MiSbf<MixFamily> = MiSbf::from_family(f.clone());
        mi_batch.insert_batch(&keys);
        assert_eq!(
            counters(mi_batch.core()),
            mi_want,
            "MiSbf batch m={m} k={k}"
        );

        // Minimum reads skip dedup; they must still equal the set minimum.
        for key in 0..23u64 {
            let set_min = |c: &[u64]| index_set(&f, key).iter().map(|&i| c[i]).min();
            assert_eq!(Some(ms.estimate(&key)), set_min(&ms_want), "MS key {key}");
            assert_eq!(Some(mi.estimate(&key)), set_min(&mi_want), "MI key {key}");
        }
        let probes: Vec<u64> = (0..23).collect();
        let singles: Vec<u64> = probes.iter().map(|p| ms.estimate(p)).collect();
        assert_eq!(ms_batch.estimate_batch(&probes), singles, "m={m} k={k}");
    }
}

#[test]
fn rm_matches_the_set_reference() {
    let keys = stream();
    for (m, k) in GEOMETRIES {
        let primary = family(m, k);
        let secondary = MixFamily::new(m, k, SEED ^ 0x5ec0);
        let [p_want, s_want] = rm_reference(&primary, &secondary, &keys);

        let mut single: RmSbf<MixFamily> = RmSbf::from_families(primary.clone(), secondary.clone());
        for key in &keys {
            single.insert(key);
        }
        assert_eq!(counters(single.primary()), p_want, "RM primary m={m} k={k}");
        assert_eq!(
            counters(single.secondary()),
            s_want,
            "RM secondary m={m} k={k}"
        );

        let mut batch: RmSbf<MixFamily> = RmSbf::from_families(primary.clone(), secondary.clone());
        batch.insert_batch(&keys);
        assert_eq!(counters(batch.primary()), p_want, "RM batch m={m} k={k}");
        assert_eq!(counters(batch.secondary()), s_want, "RM batch m={m} k={k}");
    }
}

#[test]
fn sharded_inserts_match_the_set_reference() {
    let keys = stream();
    for (m, k) in GEOMETRIES {
        let f = family(m, k);
        let sharded = ShardedSketch::with_shards(3, |_| MsSbf::<MixFamily>::from_family(f.clone()));
        sharded.insert_batch(&keys);
        let mut shard_want = Vec::new();
        for shard in 0..sharded.num_shards() {
            let mine: Vec<u64> = keys
                .iter()
                .copied()
                .filter(|key| sharded.shard_of(key) == shard)
                .collect();
            let got = sharded.with_shard_read(shard, |s| counters(s.core()));
            assert_eq!(got, ms_reference(&f, &mine), "shard {shard} m={m} k={k}");
            shard_want.push(got);
        }
        // A key's estimate is the minimum over its distinct index set in
        // the shard that owns it, single and batched alike.
        let probes: Vec<u64> = (0..23).collect();
        for &key in &probes {
            let want = &shard_want[sharded.shard_of(&key)];
            let set_min = index_set(&f, key).iter().map(|&i| want[i]).min();
            assert_eq!(Some(sharded.estimate(&key)), set_min, "key {key}");
        }
        let singles: Vec<u64> = probes.iter().map(|p| sharded.estimate(p)).collect();
        assert_eq!(sharded.estimate_batch(&probes), singles, "m={m} k={k}");

        for key in &keys {
            sharded.remove(key).unwrap();
        }
        for shard in 0..sharded.num_shards() {
            let got = sharded.with_shard_read(shard, |s| counters(s.core()));
            assert!(got.iter().all(|&c| c == 0), "shard {shard} m={m} k={k}");
        }
    }
}

#[test]
fn removal_drains_a_colliding_key_to_zero() {
    for (m, k) in GEOMETRIES {
        let f = family(m, k);
        let key = (0..)
            .find(|&key| index_set(&f, key).len() < k)
            .expect("a colliding key");

        let mut ms: MsSbf<MixFamily> = MsSbf::from_family(f.clone());
        ms.insert_by(&key, 3);
        ms.remove_by(&key, 2).unwrap();
        assert_eq!(ms.estimate(&key), 1, "m={m} k={k}");
        ms.remove(&key).unwrap();
        assert!(counters(ms.core()).iter().all(|&c| c == 0), "m={m} k={k}");

        let mut rm: RmSbf<MixFamily> =
            RmSbf::from_families(f.clone(), MixFamily::new(m, k, SEED ^ 0x5ec0));
        rm.insert_by(&key, 3);
        rm.remove_by(&key, 3).unwrap();
        assert!(
            counters(rm.primary()).iter().all(|&c| c == 0),
            "m={m} k={k}"
        );
        assert!(
            counters(rm.secondary()).iter().all(|&c| c == 0),
            "m={m} k={k}"
        );
    }
}

#[test]
fn an_underflow_leaves_every_counter_unchanged() {
    let keys = stream();
    for (m, k) in GEOMETRIES {
        let f = family(m, k);
        let key = (0..)
            .find(|&key| index_set(&f, key).len() < k)
            .expect("a colliding key");

        let mut core = Core::from_family(f.clone());
        core.increment_batch(&keys);
        let before = counters(&core);
        let over = before.iter().max().copied().unwrap_or(0) + 1;
        assert!(core.decrement_all(&key, over).is_err(), "m={m} k={k}");
        assert_eq!(counters(&core), before, "decrement_all m={m} k={k}");

        // One key alone: its counters hold exactly its count, so removing
        // one more than that must fail on every one of them.
        let mut ms: MsSbf<MixFamily> = MsSbf::from_family(f.clone());
        ms.insert_by(&key, 2);
        let before = counters(ms.core());
        assert!(ms.remove_by(&key, 3).is_err(), "m={m} k={k}");
        assert_eq!(counters(ms.core()), before, "remove_by m={m} k={k}");
        // Key by key, the third removal of two occurrences is the one
        // that fails, and it leaves the drained counters at zero.
        ms.remove(&key).unwrap();
        ms.remove(&key).unwrap();
        assert!(ms.remove(&key).is_err(), "m={m} k={k}");
        assert!(counters(ms.core()).iter().all(|&c| c == 0), "m={m} k={k}");
    }
}
