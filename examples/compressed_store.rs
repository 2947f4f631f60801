//! The Section 4 machinery in action: one Zipf-loaded filter's counter
//! vector stored three ways — raw `u64` words, the §4 String-Array Index
//! ([`StaticCounterArray`]) and the §4.5 Elias-δ compact array
//! ([`CompactCounterArray`]) — with the storage cost of each, read off the
//! same accessors `sbf info` reports, and a check that every layout
//! answers exactly the counters it was built from.
//!
//! Run with: `cargo run --example compressed_store --release`

use sbf_sai::{CompactCounterArray, StaticCounterArray};
use sbf_workloads::ZipfWorkload;
use spectral_bloom::{CounterStore, MsSbf, ShardedSketch, SketchReader};

const M: usize = 100_000;
const K: usize = 5;
const SEED: u64 = 1;

fn main() {
    // The live store a production `sbfd` would mutate, unioned (§5
    // counter addition) into the one counter vector to store.
    let live = ShardedSketch::with_shards(4, |_| MsSbf::new(M, K, SEED));
    let workload = ZipfWorkload::generate(10_000, 200_000, 1.0, 9);
    live.insert_batch(&workload.stream);
    let union = live.snapshot();
    let store = union.core().store();
    let counters: Vec<u64> = (0..M).map(|i| store.get(i)).collect();

    let sai = StaticCounterArray::from_counters(&counters);
    let elias = CompactCounterArray::from_counters(&counters);

    // Identical counters, so identical answers: every estimate is a
    // minimum over the same k counters in any layout, and the union stays
    // one-sided against the true frequencies.
    for (i, &c) in counters.iter().enumerate() {
        assert_eq!(sai.get(i), c, "SAI counter {i}");
        assert_eq!(elias.get(i), c, "Elias counter {i}");
    }
    for key in (0u64..10_000).step_by(97) {
        assert!(
            union.estimate(&key) >= workload.truth[key as usize],
            "union must stay one-sided"
        );
    }

    // ...very different footprints.
    let layouts = [
        ("raw", 64 * M),
        ("sai", sai.size_breakdown().total_bits()),
        ("elias", elias.total_bits()),
    ];
    let bytes_per_counter = |bits: usize| bits as f64 / 8.0 / M as f64;
    println!("{:<8} {:>12} {:>14}", "layout", "bits", "bytes/counter");
    for (name, bits) in layouts {
        println!("{name:<8} {bits:>12} {:>14.4}", bytes_per_counter(bits));
    }
    for (name, bits) in &layouts[1..] {
        println!(
            "{name}: {:.1}x smaller than raw",
            layouts[0].1 as f64 / *bits as f64
        );
    }
    println!("\nall {M} counters agree across every layout ✓");
}
