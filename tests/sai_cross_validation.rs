//! Cross-validation of every counter-array representation in `sbf-sai`:
//! the static String-Array Index, the select-reduction reference (§4.2),
//! the compact scan-decoded alternative (§4.5), and the dynamic slack
//! array (§4.4) must all agree with a plain `Vec<u64>` model and with each
//! other on identical data.

use proptest::prelude::*;
use sbf_sai::{CompactCounterArray, DynamicCounterArray, SelectCounterArray, StaticCounterArray};
use sbf_workloads::ZipfWorkload;
use spectral_bloom::{CounterStore, MsSbf, ShardedSketch};

fn check_all_agree(counters: &[u64]) {
    let stat = StaticCounterArray::from_counters(counters);
    let select = SelectCounterArray::from_counters(counters);
    let compact = CompactCounterArray::from_counters(counters);
    let dynamic = DynamicCounterArray::from_counters(counters);
    for (i, &c) in counters.iter().enumerate() {
        assert_eq!(stat.get(i), c, "static at {i}");
        assert_eq!(select.get(i), c, "select at {i}");
        assert_eq!(compact.get(i), c, "compact at {i}");
        assert_eq!(dynamic.get(i), c, "dynamic at {i}");
    }
}

#[test]
fn agree_on_typical_sbf_counters() {
    // A realistic SBF counter profile: mostly tiny, a few huge.
    let counters: Vec<u64> = (0..5000)
        .map(|i| match i % 100 {
            0 => 1 << 30,
            1..=4 => 1000 + i as u64,
            5..=30 => 2,
            _ => u64::from(i % 3 == 0),
        })
        .collect();
    check_all_agree(&counters);
    // A real one: the §5 union of a Zipf-loaded sharded MS filter.
    let live = ShardedSketch::with_shards(4, |_| MsSbf::new(1 << 14, 5, 42));
    live.insert_batch(&ZipfWorkload::generate(4_000, 40_000, 1.1, 7).stream);
    let union = live.snapshot();
    let store = union.core().store();
    let counters: Vec<u64> = (0..1 << 14).map(|i| store.get(i)).collect();
    check_all_agree(&counters);
}

#[test]
fn agree_on_boundary_values() {
    let counters = vec![
        0,
        1,
        2,
        3,
        u64::MAX >> 1,
        (1 << 32) - 1,
        1 << 32,
        0,
        0,
        u64::from(u32::MAX),
    ];
    check_all_agree(&counters);
}

#[test]
fn dynamic_array_converges_to_static_after_mutation() {
    // Drive the dynamic array through growth + shrink churn, then freeze
    // its values into the static representations.
    let mut dynamic = DynamicCounterArray::new(2000);
    let mut x = 77u64;
    for step in 0..30_000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let i = (x >> 33) as usize % 2000;
        if step % 5 == 4 {
            let v = dynamic.get(i);
            if v > 0 {
                dynamic.decrement(i, 1 + x % v).expect("bounded");
            }
        } else {
            dynamic.increment(i, 1 + x % 100);
        }
    }
    let frozen = dynamic.to_vec();
    check_all_agree(&frozen);
    // The dynamic array has undergone real maintenance.
    let stats = dynamic.stats();
    assert!(stats.expansions > 0, "expected growth events: {stats:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn all_representations_agree_prop(
        counters in prop::collection::vec(
            prop_oneof![
                5 => 0u64..4,
                3 => 4u64..1000,
                1 => 1000u64..(1 << 40),
            ],
            0..600,
        )
    ) {
        check_all_agree(&counters);
    }

    #[test]
    fn static_matches_select_reference_on_adversarial_lengths(
        counters in prop::collection::vec(prop_oneof![
            1 => Just(0u64),
            1 => Just(u64::MAX - 1),
            2 => 0u64..(1 << 20),
        ], 1..200)
    ) {
        let stat = StaticCounterArray::from_counters(&counters);
        let select = SelectCounterArray::from_counters(&counters);
        for i in 0..counters.len() {
            prop_assert_eq!(stat.get(i), select.get(i));
        }
    }
}
