//! The crate's telemetry handle: named metrics in the process-global
//! [`sbf_telemetry`] registry, touched by the hot paths only when telemetry
//! is enabled.
//!
//! # Overhead model
//!
//! Every instrumented operation guards its metric updates with
//! [`sbf_telemetry::enabled`] — one relaxed atomic load and a branch the
//! predictor learns immediately. With telemetry disabled (the default) no
//! metric is ever allocated or touched. With it enabled, a counter update is
//! one relaxed `fetch_add` and a histogram observation is three (bucket,
//! sum, count). The cells are not padded, so they share cache lines, and
//! threads updating them at once contend for those lines. Batched estimates
//! therefore record their values with one
//! [`Histogram::observe_many`](sbf_telemetry::Histogram::observe_many) per
//! batch: one `fetch_add` per touched bucket plus sum and count, not three
//! per key.
//!
//! # Metric names
//!
//! | name | kind | measures |
//! |---|---|---|
//! | `sbf_inserts_total` | counter | `insert_by` calls on any sketch |
//! | `sbf_removes_total` | counter | `remove_by` calls on any sketch |
//! | `sbf_estimates_total` | counter | `estimate` calls on any sketch |
//! | `sbf_estimate_values` | histogram | distribution of returned estimates |
//! | `sbf_counter_saturations_total` | counter | counter writes that stuck a [`crate::PlainCounters`] counter at `u32::MAX` (or clamped another store at `u64::MAX`), and join products clamped at `u64::MAX` |
//! | `sbf_rm_inserts_total` | counter | Recurring Minimum inserts |
//! | `sbf_rm_secondary_spills_total` | counter | RM inserts that touched the secondary SBF |
//! | `sbf_page_faults_total` | counter | buffer misses in [`crate::PagedCounters`] |
//! | `sbf_page_accesses_total` | counter | page touches in [`crate::PagedCounters`] |
//! | `sbf_sharded_ops_total` | counter | mutations routed through [`crate::ShardedSketch`] |
//! | `sbf_sharded_snapshot_rebuilds_total` | counter | §5 shard unions built by [`crate::ShardedSketch::snapshot`] |
//!
//! [`crate::ShardedSketch::publish_metrics`] additionally writes per-shard
//! gauges `sbf_shard_occupancy_ratio{shard="i"}` and
//! `sbf_shard_total_count{shard="i"}`.

use crate::sync::{Arc, OnceLock};

use sbf_telemetry::{Counter, Histogram};

/// Handles to every metric this crate publishes (see the module table).
#[derive(Debug)]
pub struct CoreMetrics {
    /// `sbf_inserts_total`.
    pub inserts: Arc<Counter>,
    /// `sbf_removes_total`.
    pub removes: Arc<Counter>,
    /// `sbf_estimates_total`.
    pub estimates: Arc<Counter>,
    /// `sbf_estimate_values`.
    pub estimate_values: Arc<Histogram>,
    /// `sbf_counter_saturations_total`.
    pub saturations: Arc<Counter>,
    /// `sbf_rm_inserts_total`.
    pub rm_inserts: Arc<Counter>,
    /// `sbf_rm_secondary_spills_total`.
    pub rm_secondary_spills: Arc<Counter>,
    /// `sbf_page_faults_total`.
    pub page_faults: Arc<Counter>,
    /// `sbf_page_accesses_total`.
    pub page_accesses: Arc<Counter>,
    /// `sbf_sharded_ops_total`.
    pub sharded_ops: Arc<Counter>,
    /// `sbf_sharded_snapshot_rebuilds_total`.
    pub snapshot_rebuilds: Arc<Counter>,
}

static CORE: OnceLock<CoreMetrics> = OnceLock::new();

/// The crate's metric handles, registered in [`sbf_telemetry::global`] on
/// first call. Calling this pre-registers every metric name, so an
/// exposition dump shows the full schema even before any event fires.
pub fn core_metrics() -> &'static CoreMetrics {
    CORE.get_or_init(|| {
        let reg = sbf_telemetry::global();
        CoreMetrics {
            inserts: reg.counter("sbf_inserts_total"),
            removes: reg.counter("sbf_removes_total"),
            estimates: reg.counter("sbf_estimates_total"),
            estimate_values: reg.histogram("sbf_estimate_values"),
            saturations: reg.counter("sbf_counter_saturations_total"),
            rm_inserts: reg.counter("sbf_rm_inserts_total"),
            rm_secondary_spills: reg.counter("sbf_rm_secondary_spills_total"),
            page_faults: reg.counter("sbf_page_faults_total"),
            page_accesses: reg.counter("sbf_page_accesses_total"),
            sharded_ops: reg.counter("sbf_sharded_ops_total"),
            snapshot_rebuilds: reg.counter("sbf_sharded_snapshot_rebuilds_total"),
        }
    })
}

/// Runs `f` against the metric handles iff telemetry is enabled — the
/// zero-cost-when-disabled guard every hot path goes through.
#[inline]
pub(crate) fn on(f: impl FnOnce(&CoreMetrics)) {
    if sbf_telemetry::enabled() {
        f(core_metrics());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_registered_once() {
        let a = core_metrics() as *const CoreMetrics;
        let b = core_metrics() as *const CoreMetrics;
        assert_eq!(a, b);
        // The names exist in the global registry.
        let snap = sbf_telemetry::global().snapshot();
        assert!(snap.get("sbf_inserts_total").is_some());
        assert!(snap.get("sbf_counter_saturations_total").is_some());
    }

    #[test]
    fn on_is_a_noop_while_disabled() {
        // Tests in this workspace run with telemetry disabled unless a test
        // flips it; `on` must then not touch (or even create) handles.
        if !sbf_telemetry::enabled() {
            let before = core_metrics().inserts.get();
            on(|m| m.inserts.add(1_000_000));
            assert_eq!(core_metrics().inserts.get(), before);
        }
    }
}
