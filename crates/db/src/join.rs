//! Distributed joins over two sites: ship-all, Bloomjoin, Spectral
//! Bloomjoin (§5.3).
//!
//! The query under evaluation is the paper's
//!
//! ```sql
//! SELECT R.a, count(*) FROM R, S WHERE R.a = S.a GROUP BY R.a
//! [HAVING count(*) >= T]
//! ```
//!
//! with `R` at site 1 and `S` at site 2. The three strategies differ in
//! what crosses the wire:
//!
//! | Strategy | messages | payload |
//! |---|---|---|
//! | [`ship_all_join`] | 1 | every tuple of `S` |
//! | [`bloomjoin`] | 2 | a Bloom filter + the filtered tuples of `S` |
//! | [`spectral_bloomjoin`] | 1 | one Elias-coded SBF of `S.a` — no feedback round |
//!
//! Ship-all and Bloomjoin produce exact answers (Bloomjoin's false
//! positives die in the final local join); the Spectral Bloomjoin answers
//! from the *product* SBF with one-sided error — every true group is
//! reported with `count ≥ truth`, and a small fraction of spurious groups
//! may appear, exactly the trade §5.3 describes.

use std::collections::HashMap;

use spectral_bloom::{BloomFilter, MsSbf, MultisetSketch, SketchReader};

use crate::metrics;
use crate::network::Network;
use crate::relation::Relation;
use crate::wire;

/// Parameters shared by both sites ahead of time (the paper's precondition
/// for multiplying SBFs: "identical in their parameters and hash
/// functions").
#[derive(Debug, Clone, Copy)]
pub struct JoinPlan {
    /// Counters / bits in the filters.
    pub m: usize,
    /// Hash functions.
    pub k: usize,
    /// Shared hash seed.
    pub seed: u64,
    /// Optional `HAVING count(*) >= T` filter.
    pub threshold: Option<u64>,
}

impl JoinPlan {
    /// A plan sized for roughly `distinct` distinct join values at γ ≈ 0.7.
    pub fn sized_for(distinct: usize, seed: u64) -> Self {
        JoinPlan {
            m: (distinct * 5 * 10 / 7).max(64),
            k: 5,
            seed,
            threshold: None,
        }
    }

    /// Adds a `HAVING count(*) >= threshold` clause.
    pub fn with_threshold(mut self, threshold: u64) -> Self {
        self.threshold = Some(threshold);
        self
    }
}

/// Result of a distributed join strategy.
#[derive(Debug, Clone)]
pub struct JoinOutcome {
    /// `R.a → count(*)` (join cardinality per group), post-HAVING.
    pub groups: HashMap<u64, u64>,
    /// Wire accounting.
    pub network: Network,
    /// Whether the counts are exact (ship-all, Bloomjoin) or one-sided
    /// estimates (spectral).
    pub exact: bool,
}

fn exact_groups(r: &Relation, s: &Relation, threshold: Option<u64>) -> HashMap<u64, u64> {
    let s_counts = s.group_counts();
    let mut groups = HashMap::new();
    for (key, f_r) in r.group_counts() {
        if let Some(&f_s) = s_counts.get(&key) {
            let count = f_r * f_s;
            if threshold.is_none_or(|t| count >= t) {
                groups.insert(key, count);
            }
        }
    }
    groups
}

/// The spectral join's final pass, written once over any
/// [`SketchReader`]: scans `r`'s distinct values against `sketch` (usually
/// a product SBF) and reports every group whose one-sided estimate clears
/// `threshold`.
///
/// Accepting any reader means the coordinator-side synopsis can just as
/// well be a concurrent `ShardedSketch` fed by parallel ingest threads,
/// without a copy into a single-threaded sketch first.
pub fn threshold_groups<SK: SketchReader>(
    sketch: &SK,
    r: &Relation,
    threshold: u64,
) -> HashMap<u64, u64> {
    // One batched probe over R's distinct values: backends with a pipelined
    // `estimate_batch_into` (and sharded ones, which take each shard lock
    // once instead of once per key) answer the whole scan in one pass.
    let candidates: Vec<u64> = r.group_counts().keys().copied().collect();
    let estimates = sketch.estimate_batch(&candidates);
    let mut groups = HashMap::new();
    for (key, est) in candidates.iter().zip(&estimates) {
        if *est >= threshold {
            groups.insert(*key, *est);
        }
    }
    metrics::on(|m| {
        m.join_candidates.add(candidates.len() as u64);
        m.join_reported.add(groups.len() as u64);
    });
    groups
}

/// Baseline: site 2 ships every tuple of `S`; site 1 joins locally.
pub fn ship_all_join(r: &Relation, s: &Relation, plan: &JoinPlan) -> JoinOutcome {
    let mut network = Network::new();
    network.send(s.ship_all_bytes());
    JoinOutcome {
        groups: exact_groups(r, s, plan.threshold),
        network,
        exact: true,
    }
}

/// Classic Bloomjoin \[ML86\]: site 1 sends `BF(R.a)` (m bits); site 2 ships
/// only tuples whose key passes the filter; site 1 completes the join.
pub fn bloomjoin(r: &Relation, s: &Relation, plan: &JoinPlan) -> JoinOutcome {
    let mut network = Network::new();
    // Round 1: R's Bloom filter to site 2.
    let mut bf = BloomFilter::new(plan.m, plan.k, plan.seed);
    for t in &r.tuples {
        bf.insert(&t.key);
    }
    network.send(plan.m.div_ceil(8));
    // Round 2: the surviving tuples of S back to site 1.
    let survivors: Vec<_> = s.tuples.iter().filter(|t| bf.contains(&t.key)).collect();
    network.send(survivors.len() * s.tuple_bytes);
    // Local exact join at site 1 (Bloom false positives have no R partner,
    // so they drop out here).
    let mut s_counts: HashMap<u64, u64> = HashMap::new();
    for t in survivors {
        *s_counts.entry(t.key).or_insert(0) += 1;
    }
    let mut groups = HashMap::new();
    for (key, f_r) in r.group_counts() {
        if let Some(&f_s) = s_counts.get(&key) {
            let count = f_r * f_s;
            if plan.threshold.is_none_or(|t| count >= t) {
                groups.insert(key, count);
            }
        }
    }
    JoinOutcome {
        groups,
        network,
        exact: true,
    }
}

/// Spectral Bloomjoin (§5.3): site 2 sends one Elias-coded SBF of `S.a`;
/// site 1 multiplies it with its own SBF counter-wise and answers the
/// grouped query with **no feedback round**.
///
/// Counts are one-sided (`reported ≥ true`), groups absent from `S` may
/// appear with the product-SBF's Bloom-error probability.
pub fn spectral_bloomjoin(r: &Relation, s: &Relation, plan: &JoinPlan) -> JoinOutcome {
    let mut network = Network::new();
    // Site 2: build + ship SBF(S.a).
    let mut sbf_s = MsSbf::new(plan.m, plan.k, plan.seed);
    for t in &s.tuples {
        sbf_s.insert(&t.key);
    }
    let frame = wire::encode_counters(
        (0..plan.m).map(|i| spectral_bloom::CounterStore::get(sbf_s.core().store(), i)),
    );
    network.send(frame.len());
    // Site 1: decode, rebuild, multiply with the local SBF(R.a).
    let decoded =
        wire::decode_counters(&frame).unwrap_or_else(|e| unreachable!("self-produced frame: {e}"));
    let mut sbf_s_remote = MsSbf::new(plan.m, plan.k, plan.seed);
    for (i, &c) in decoded.iter().enumerate() {
        spectral_bloom::CounterStore::set(sbf_s_remote.core_mut().store_mut(), i, c);
    }
    let mut sbf_rs = MsSbf::new(plan.m, plan.k, plan.seed);
    for t in &r.tuples {
        sbf_rs.insert(&t.key);
    }
    sbf_rs.multiply_assign(&sbf_s_remote);
    // Scan R (local), report each distinct value whose product estimate
    // clears the threshold. "Results can be reported immediately since no
    // value is repeated more than once in R['s scan of distinct values]".
    let groups = threshold_groups(&sbf_rs, r, plan.threshold.unwrap_or(1));
    JoinOutcome {
        groups,
        network,
        exact: false,
    }
}

/// Spectral Bloomjoin with the verification pass of §5.3: "since the
/// errors are one-sided, they can be eliminated by retrieving the accurate
/// frequencies for the items in the result set, resulting in a fraction of
/// ρ extra accesses to the data".
///
/// Site 1 runs the one-message spectral join, then sends the candidate
/// group keys back to site 2, which returns exact counts for them. The
/// result is exact; the extra cost is one round plus `|candidates|`
/// key/count pairs — still far below shipping tuples when the result set
/// is selective.
pub fn spectral_bloomjoin_verified(r: &Relation, s: &Relation, plan: &JoinPlan) -> JoinOutcome {
    let approx = spectral_bloomjoin(r, s, plan);
    let mut network = approx.network;
    // Round 2: candidate keys to site 2 (8 bytes each)...
    network.send(approx.groups.len() * 8);
    // ...and exact per-key counts back (8 bytes each).
    let s_counts = s.group_counts();
    network.send(approx.groups.len() * 8);
    let r_counts = r.group_counts();
    let threshold = plan.threshold.unwrap_or(1);
    let mut groups = HashMap::new();
    for key in approx.groups.keys() {
        let f_r = r_counts.get(key).copied().unwrap_or(0);
        let f_s = s_counts.get(key).copied().unwrap_or(0);
        let count = f_r * f_s;
        if count >= threshold {
            groups.insert(*key, count);
        }
    }
    JoinOutcome {
        groups,
        network,
        exact: true,
    }
}

/// Multi-way spectral join: the §2.2 "Queries over joins of sets"
/// multiplication generalized to any number of relations.
///
/// Each remote site ships one Elias-coded SBF; the coordinator multiplies
/// them all counter-wise and scans the first relation's distinct values.
/// Counts estimate `Π_i f_i(a)` one-sidedly; the result-set shrinks with
/// every factor ("the number of distinct items in a join is bounded by the
/// maximal number of distinct items in the relations, resulting in an SBF
/// with fewer values, and hence better accuracy").
pub fn multiway_spectral_join(relations: &[&Relation], plan: &JoinPlan) -> JoinOutcome {
    assert!(relations.len() >= 2, "a join needs at least two relations");
    let mut network = Network::new();
    // The first relation is local to the coordinator.
    let mut product = MsSbf::new(plan.m, plan.k, plan.seed);
    for t in &relations[0].tuples {
        product.insert(&t.key);
    }
    for rel in &relations[1..] {
        let mut local = MsSbf::new(plan.m, plan.k, plan.seed);
        for t in &rel.tuples {
            local.insert(&t.key);
        }
        let frame = wire::encode_counters(
            (0..plan.m).map(|i| spectral_bloom::CounterStore::get(local.core().store(), i)),
        );
        network.send(frame.len());
        let decoded = wire::decode_counters(&frame)
            .unwrap_or_else(|e| unreachable!("self-produced frame: {e}"));
        let mut remote = MsSbf::new(plan.m, plan.k, plan.seed);
        for (i, &c) in decoded.iter().enumerate() {
            spectral_bloom::CounterStore::set(remote.core_mut().store_mut(), i, c);
        }
        product.multiply_assign(&remote);
    }
    let groups = threshold_groups(&product, relations[0], plan.threshold.unwrap_or(1));
    JoinOutcome {
        groups,
        network,
        exact: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_relations() -> (Relation, Relation) {
        // R: 400 distinct keys 0..400, one tuple each (the "one" side).
        let r_keys: Vec<u64> = (0..400).collect();
        // S: detail table, keys 100..300 with multiplicity 1 + key % 5.
        let mut s_keys = Vec::new();
        for key in 100u64..300 {
            for _ in 0..(1 + key % 5) {
                s_keys.push(key);
            }
        }
        (
            Relation::from_keys("R", &r_keys, 32),
            Relation::from_keys("S", &s_keys, 32),
        )
    }

    #[test]
    fn all_strategies_agree_on_true_groups() {
        let (r, s) = test_relations();
        let plan = JoinPlan::sized_for(400, 7);
        let exact = ship_all_join(&r, &s, &plan);
        let bj = bloomjoin(&r, &s, &plan);
        let sj = spectral_bloomjoin(&r, &s, &plan);
        assert_eq!(exact.groups, bj.groups, "Bloomjoin must be exact");
        // Spectral: every true group present with count ≥ truth.
        for (key, &count) in &exact.groups {
            let got = sj.groups.get(key).copied().unwrap_or(0);
            assert!(got >= count, "group {key}: {got} < {count}");
        }
        // And few spurious groups.
        let spurious = sj
            .groups
            .keys()
            .filter(|k| !exact.groups.contains_key(k))
            .count();
        assert!(spurious <= 400 / 20, "{spurious} spurious groups");
    }

    #[test]
    fn network_ordering_matches_the_paper() {
        let (r, s) = test_relations();
        let plan = JoinPlan::sized_for(400, 8);
        let ship = ship_all_join(&r, &s, &plan);
        let bj = bloomjoin(&r, &s, &plan);
        let sj = spectral_bloomjoin(&r, &s, &plan);
        // Spectral uses a single message; Bloomjoin needs the feedback round.
        assert_eq!(sj.network.messages, 1);
        assert_eq!(bj.network.messages, 2);
        assert_eq!(ship.network.messages, 1);
        // Spectral ships only a synopsis — far less than shipping tuples.
        assert!(
            sj.network.bytes < ship.network.bytes / 2,
            "sbf {} vs ship {}",
            sj.network.bytes,
            ship.network.bytes
        );
        // Every tuple of S matches R here, so Bloomjoin filters nothing and
        // pays only the filter itself on top (its win appears when S has
        // non-matching tuples — see bloomjoin_filters_nonmatching_tuples).
        assert!(bj.network.bytes <= ship.network.bytes + plan.m.div_ceil(8));
    }

    #[test]
    fn threshold_filter_has_no_false_negatives() {
        let (r, s) = test_relations();
        let plan = JoinPlan::sized_for(400, 9).with_threshold(4);
        let exact = ship_all_join(&r, &s, &plan);
        let sj = spectral_bloomjoin(&r, &s, &plan);
        for key in exact.groups.keys() {
            assert!(
                sj.groups.contains_key(key),
                "HAVING filter dropped true group {key}"
            );
        }
    }

    #[test]
    fn verified_spectral_join_is_exact_and_still_cheap() {
        let (r, s) = test_relations();
        let plan = JoinPlan::sized_for(600, 21);
        let exact = ship_all_join(&r, &s, &plan);
        let verified = spectral_bloomjoin_verified(&r, &s, &plan);
        assert!(verified.exact);
        assert_eq!(
            verified.groups, exact.groups,
            "verification must remove all error"
        );
        assert_eq!(
            verified.network.messages, 3,
            "one synopsis + two verification legs"
        );
        assert!(
            verified.network.bytes < exact.network.bytes / 3,
            "verified spectral {} vs ship-all {}",
            verified.network.bytes,
            exact.network.bytes
        );
    }

    #[test]
    fn multiway_join_intersects_three_relations() {
        // R ∩ S ∩ T keys: 100..200.
        let r = Relation::from_keys("R", &(0..200u64).collect::<Vec<_>>(), 16);
        let s = Relation::from_keys("S", &(100..300u64).collect::<Vec<_>>(), 16);
        let t_keys: Vec<u64> = (50..200u64).flat_map(|k| [k, k]).collect(); // f_T = 2
        let t = Relation::from_keys("T", &t_keys, 16);
        let plan = JoinPlan::sized_for(500, 13);
        let out = multiway_spectral_join(&[&r, &s, &t], &plan);
        assert_eq!(out.network.messages, 2, "two remote synopses");
        for key in 100u64..200 {
            let est = out.groups.get(&key).copied().unwrap_or(0);
            assert!(est >= 2, "3-way join key {key}: {est} < f_R·f_S·f_T = 2");
        }
        let spurious = out
            .groups
            .keys()
            .filter(|k| !(100..200).contains(*k))
            .count();
        assert!(spurious <= 5, "{spurious} spurious 3-way groups");
    }

    #[test]
    fn disjoint_relations_join_empty() {
        let r = Relation::from_keys("R", &[1, 2, 3], 16);
        let s = Relation::from_keys("S", &[100, 200], 16);
        let plan = JoinPlan::sized_for(64, 10);
        assert!(ship_all_join(&r, &s, &plan).groups.is_empty());
        assert!(bloomjoin(&r, &s, &plan).groups.is_empty());
        // Spectral may have rare false positives; with 5 keys in m=64·…
        // counters there are none.
        assert!(spectral_bloomjoin(&r, &s, &plan).groups.is_empty());
    }

    #[test]
    fn threshold_groups_accepts_a_concurrent_backend() {
        // The final scan is generic over SketchReader, so a ShardedSketch
        // filled by parallel ingest threads can answer the grouped query
        // directly — no copy into a single-threaded sketch.
        let (r, s) = test_relations();
        let plan = JoinPlan::sized_for(400, 17);
        let sharded = spectral_bloom::ShardedSketch::with_shards(4, |_| {
            spectral_bloom::MsSbf::new(plan.m, plan.k, plan.seed)
        });
        std::thread::scope(|scope| {
            for chunk in s.tuples.chunks(s.tuples.len().div_ceil(4)) {
                let handle = &sharded;
                scope.spawn(move || {
                    for t in chunk {
                        handle.insert(&t.key);
                    }
                });
            }
        });
        let groups = threshold_groups(&sharded, &r, 1);
        let s_counts = s.group_counts();
        for (key, &f_s) in &s_counts {
            let got = groups.get(key).copied().unwrap_or(0);
            assert!(got >= f_s, "group {key}: {got} < {f_s}");
        }
        let spurious = groups.keys().filter(|k| !s_counts.contains_key(k)).count();
        assert!(spurious <= 400 / 20, "{spurious} spurious groups");
    }

    #[test]
    fn bloomjoin_filters_nonmatching_tuples() {
        let (r, s) = test_relations();
        // Tight filter: S has 200 matching keys of 400 in R, plus none
        // outside; add non-matching bulk to S to see filtering.
        let mut s2 = s.clone();
        for key in 5000u64..6000 {
            s2.tuples.push(crate::relation::Tuple { key, payload: 0 });
        }
        let plan = JoinPlan::sized_for(400, 11);
        let bj = bloomjoin(&r, &s2, &plan);
        let ship = ship_all_join(&r, &s2, &plan);
        assert_eq!(bj.groups, ship.groups);
        assert!(
            bj.network.bytes < ship.network.bytes / 2,
            "filtering 1000 non-matching tuples must pay off"
        );
    }
}
