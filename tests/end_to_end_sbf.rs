//! End-to-end flows that span crates: compressed storage under the RM
//! algorithm, sliding windows over compressed counters, distributed
//! union/multiply through the wire encoding, and blocked (external-memory)
//! hashing.

use sbf_db::wire;
use sbf_hash::{BlockedFamily, HashFamily, MixFamily};
use sbf_workloads::{SlidingWindowStream, StreamEvent, ZipfWorkload};
use spectral_bloom::{
    CompressedCounters, CounterStore, MsSbf, MultisetSketch, PlainCounters, RmSbf, SketchReader,
};

#[test]
fn compressed_rm_sliding_window() {
    // The full §2.2 sliding-window scenario on the §4 storage: Recurring
    // Minimum over String-Array-Index counters, explicit deletions.
    let workload = ZipfWorkload::generate(500, 20_000, 1.0, 3);
    let window = 4_000;
    let stream = SlidingWindowStream::from_zipf(&workload, window);
    let primary = MixFamily::new(2500, 5, 9);
    let secondary = MixFamily::new(1250, 5, 10);
    let marker = MixFamily::new(2500, 5, 11);
    let mut rm: RmSbf<MixFamily, CompressedCounters> =
        RmSbf::from_families(primary, secondary).with_marker(marker);
    for &e in &stream.events {
        match e {
            StreamEvent::Insert(x) => rm.insert(&x),
            StreamEvent::Delete(x) => rm.remove(&x).expect("window leaver present"),
        }
    }
    assert_eq!(rm.total_count(), window as u64);
    // One-sided threshold queries over the window contents.
    let heavy: Vec<u64> = (0..500u64).filter(|k| rm.passes_threshold(k, 50)).collect();
    for (key, &f) in stream.truth.iter().enumerate() {
        if f >= 50 {
            assert!(
                heavy.contains(&(key as u64)),
                "missed heavy window key {key}"
            );
        }
    }
}

#[test]
fn distributed_union_over_the_wire() {
    // Two sites build SBFs with agreed parameters over disjoint partitions
    // of one logical relation; uniting the decoded counters answers
    // queries over the whole (§2.2 "Distributed processing").
    let fam = MixFamily::new(4096, 5, 21);
    let mut site_a: MsSbf<MixFamily, PlainCounters> = MsSbf::from_family(fam.clone());
    let mut site_b: MsSbf<MixFamily, PlainCounters> = MsSbf::from_family(fam.clone());
    for key in 0u64..300 {
        site_a.insert_by(&key, 2);
    }
    for key in 200u64..500 {
        site_b.insert_by(&key, 3);
    }
    // Ship site B's counters as a message.
    let frame = wire::encode_counters((0..4096).map(|i| site_b.core().store().get(i)));
    let decoded = wire::decode_counters(&frame).expect("valid frame");
    let mut remote: MsSbf<MixFamily, PlainCounters> = MsSbf::from_family(fam);
    for (i, &c) in decoded.iter().enumerate() {
        remote.core_mut().store_mut().set(i, c);
    }
    site_a.union_assign(&remote);
    // Keys in both partitions now count 5; single-partition keys 2 or 3.
    assert!(site_a.estimate(&250u64) >= 5);
    assert!(site_a.estimate(&100u64) >= 2);
    assert!(site_a.estimate(&450u64) >= 3);
    assert_eq!(site_a.estimate(&9999u64), 0);
}

#[test]
fn multiply_after_wire_roundtrip_models_the_join() {
    let fam = MixFamily::new(8192, 5, 33);
    let mut r: MsSbf<MixFamily, PlainCounters> = MsSbf::from_family(fam.clone());
    let mut s: MsSbf<MixFamily, PlainCounters> = MsSbf::from_family(fam.clone());
    for key in 0u64..200 {
        r.insert(&key);
    }
    for key in 100u64..300 {
        s.insert_by(&key, 4);
    }
    let frame = wire::encode_counters((0..8192).map(|i| s.core().store().get(i)));
    let decoded = wire::decode_counters(&frame).expect("valid frame");
    let mut s_remote: MsSbf<MixFamily, PlainCounters> = MsSbf::from_family(fam);
    for (i, &c) in decoded.iter().enumerate() {
        s_remote.core_mut().store_mut().set(i, c);
    }
    r.multiply_assign(&s_remote);
    // Intersection keys: 1·4 = 4; R-only and S-only keys: 0 (w.h.p.).
    for key in 100u64..200 {
        assert!(r.estimate(&key) >= 4, "join key {key}");
    }
    let leaked = (0u64..100).filter(|k| r.estimate(k) > 0).count()
        + (200u64..300).filter(|k| r.estimate(k) > 0).count();
    assert!(leaked <= 4, "{leaked} non-join keys survived the multiply");
}

#[test]
fn blocked_family_confines_lookups_and_keeps_accuracy() {
    // §2.2 external-memory SBF: same total size, hashing confined to one
    // block per key. Accuracy degrades only marginally for large blocks.
    let n_keys = 800u64;
    let flat = MixFamily::new(8192, 5, 7);
    let blocked = BlockedFamily::new(MixFamily::new(512, 5, 7), 16, 7);
    assert_eq!(blocked.m(), 8192);

    let mut sbf_flat: MsSbf<MixFamily, PlainCounters> = MsSbf::from_family(flat);
    let mut sbf_blocked: MsSbf<BlockedFamily<MixFamily>, PlainCounters> =
        MsSbf::from_family(blocked.clone());
    for key in 0..n_keys {
        sbf_flat.insert_by(&key, 3);
        sbf_blocked.insert_by(&key, 3);
    }
    let err = |est: u64| est.saturating_sub(3);
    let flat_err: u64 = (0..n_keys).map(|k| err(sbf_flat.estimate(&k))).sum();
    let blocked_err: u64 = (0..n_keys).map(|k| err(sbf_blocked.estimate(&k))).sum();
    // The paper: "for large enough segments, the difference is negligible".
    assert!(
        blocked_err <= flat_err + n_keys / 10,
        "blocked {blocked_err} vs flat {flat_err}"
    );
    // And every key's probes stay within one 512-counter block.
    for key in 0..n_keys {
        let idxs = blocked.indexes(&key);
        let block = idxs[0] / 512;
        assert!(idxs.iter().all(|&i| i / 512 == block));
    }
}

#[test]
fn compressed_store_saves_space_under_real_load() {
    let workload = ZipfWorkload::generate(2_000, 50_000, 0.8, 5);
    let fam = MixFamily::new(14_000, 5, 13);
    let mut plain: MsSbf<MixFamily, PlainCounters> = MsSbf::from_family(fam.clone());
    let mut packed: MsSbf<MixFamily, CompressedCounters> = MsSbf::from_family(fam);
    for &x in &workload.stream {
        plain.insert(&x);
        packed.insert(&x);
    }
    for key in (0u64..2000).step_by(37) {
        assert_eq!(
            plain.estimate(&key),
            packed.estimate(&key),
            "estimates must agree"
        );
    }
    // The §4 form stays under half of a 64-bit word per counter (measured
    // at ~17.4 bits here), and under the 32-bit plain store.
    assert!(
        packed.storage_bits() * 2 < 64 * plain.core().m()
            && packed.storage_bits() < plain.storage_bits(),
        "compressed {} vs plain {}",
        packed.storage_bits(),
        plain.storage_bits()
    );
}
