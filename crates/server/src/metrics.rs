//! Server telemetry: connection, request, latency and traffic metrics,
//! published to the process-global [`sbf_telemetry`] registry.
//!
//! Same overhead contract as `spectral_bloom::metrics`: every update is
//! guarded by [`sbf_telemetry::enabled`] (one relaxed load + a predictable
//! branch when disabled). The daemon flips telemetry on at startup — a
//! server exists to be observed — but embedded/test uses can leave it off.
//!
//! # Metric names
//!
//! | name | kind | measures |
//! |---|---|---|
//! | `sbfd_connections_total` | counter | accepted TCP connections |
//! | `sbfd_connections_active` | gauge | connections currently registered with a reactor, summed over every server in the process |
//! | `sbfd_requests_total{op="…"}` | counter | decoded requests, per command |
//! | `sbfd_request_latency_ns` | histogram | decode→respond wall time per request |
//! | `sbfd_bytes_read_total` | counter | request frame bytes received |
//! | `sbfd_bytes_written_total` | counter | response frame bytes sent |
//! | `sbfd_errors_total` | counter | error frames answered (all codes) |
//! | `sbfd_frames_oversized_total` | counter | frames rejected for exceeding the size cap |
//! | `sbfd_timeouts_total` | counter | connections closed by the timer wheel (read/write timeout) |
//! | `sbfd_batch_keys_total` | counter | keys carried by batched insert/estimate requests |
//! | `sbfd_wal_appends_total` | counter | mutations fsynced to the write-ahead log |
//! | `sbfd_wal_bytes_total` | counter | record bytes (headers included) appended to the log |
//! | `sbfd_wal_fsync_ns` | histogram | per-append `fsync` wall time |
//! | `sbfd_wal_log_bytes` | gauge | bytes in the current generation log |
//! | `sbfd_wal_compactions_total` | counter | checkpoints cut (snapshot written, log rotated) |
//! | `sbfd_wal_checkpoint_failures_total` | counter | background checkpoints that failed (the log is kept; the next tick retries) |
//! | `sbfd_wal_replayed_records_total` | counter | log records re-applied during boot recovery |
//! | `sbfd_wal_torn_tails_total` | counter | torn log tails truncated during boot recovery |
//! | `sbfd_pipeline_batches_total` | counter | dispatch jobs run (one per pipelined batch of up to `pipeline_depth` frames) |
//! | `sbfd_pipeline_frames_total` | counter | frames carried by those batches (`frames / batches` = achieved pipelining depth) |
//! | `sbfd_backpressure_stalls_total` | counter | reads paused (queue or write buffer full) and listener parks (connection cap) |
//! | `sbfd_cluster_fanout_nodes` | histogram | nodes touched per scatter-gather batch |
//! | `sbfd_cluster_failovers_total` | counter | reads redirected from a dead primary to its replica |
//! | `sbfd_cluster_join_bytes_total` | counter | filter-envelope bytes shipped between servers for JOIN_PLAN |
//! | `sbfd_repl_shipped_total` | counter | mutation frames acknowledged by the replica |
//! | `sbfd_repl_lag_bytes` | gauge | mutation bytes applied locally but not yet replicated (reset to zero by a resync) |
//! | `sbfd_repl_resyncs_total` | counter | replica links (re)established via snapshot bootstrap |

use crate::proto::LABELS;
use crate::sync::{Arc, OnceLock};

use sbf_telemetry::{Counter, Gauge, Histogram};

/// Handles to every metric this crate publishes (see the module table).
#[derive(Debug)]
pub struct ServerMetrics {
    /// `sbfd_connections_total`.
    pub connections: Arc<Counter>,
    /// `sbfd_connections_active`.
    pub connections_active: Arc<Gauge>,
    /// `sbfd_requests_total{op="…"}`, one handle per command in opcode order.
    pub requests: Vec<Arc<Counter>>,
    /// `sbfd_request_latency_ns`.
    pub request_latency_ns: Arc<Histogram>,
    /// `sbfd_bytes_read_total`.
    pub bytes_read: Arc<Counter>,
    /// `sbfd_bytes_written_total`.
    pub bytes_written: Arc<Counter>,
    /// `sbfd_errors_total`.
    pub errors: Arc<Counter>,
    /// `sbfd_frames_oversized_total`.
    pub frames_oversized: Arc<Counter>,
    /// `sbfd_timeouts_total`.
    pub timeouts: Arc<Counter>,
    /// `sbfd_batch_keys_total`.
    pub batch_keys: Arc<Counter>,
    /// `sbfd_wal_appends_total`.
    pub wal_appends: Arc<Counter>,
    /// `sbfd_wal_bytes_total`.
    pub wal_bytes: Arc<Counter>,
    /// `sbfd_wal_fsync_ns`.
    pub wal_fsync_ns: Arc<Histogram>,
    /// `sbfd_wal_log_bytes`.
    pub wal_log_bytes: Arc<Gauge>,
    /// `sbfd_wal_compactions_total`.
    pub wal_compactions: Arc<Counter>,
    /// `sbfd_wal_checkpoint_failures_total`.
    pub wal_checkpoint_failures: Arc<Counter>,
    /// `sbfd_wal_replayed_records_total`.
    pub wal_replayed: Arc<Counter>,
    /// `sbfd_wal_torn_tails_total`.
    pub wal_torn_tails: Arc<Counter>,
    /// `sbfd_pipeline_batches_total`.
    pub pipeline_batches: Arc<Counter>,
    /// `sbfd_pipeline_frames_total`.
    pub pipeline_frames: Arc<Counter>,
    /// `sbfd_backpressure_stalls_total`.
    pub backpressure_stalls: Arc<Counter>,
    /// `sbfd_cluster_fanout_nodes`.
    pub cluster_fanout: Arc<Histogram>,
    /// `sbfd_cluster_failovers_total`.
    pub cluster_failovers: Arc<Counter>,
    /// `sbfd_cluster_join_bytes_total`.
    pub cluster_join_bytes: Arc<Counter>,
    /// `sbfd_repl_shipped_total`.
    pub repl_shipped: Arc<Counter>,
    /// `sbfd_repl_lag_bytes`.
    pub repl_lag_bytes: Arc<Gauge>,
    /// `sbfd_repl_resyncs_total`.
    pub repl_resyncs: Arc<Counter>,
}

impl ServerMetrics {
    /// The request counter for a command label from
    /// [`crate::proto::RequestRef::label`]; unknown names fall back to slot
    /// 0 (cannot happen for decoded requests).
    pub fn requests_for(&self, op: &str) -> &Counter {
        let slot = LABELS.iter().position(|&o| o == op).unwrap_or(0);
        &self.requests[slot]
    }
}

static SERVER: OnceLock<ServerMetrics> = OnceLock::new();

/// The crate's metric handles, registered in [`sbf_telemetry::global`] on
/// first call. Calling this pre-registers every metric name, so a STATS
/// response shows the full schema even before any event fires.
pub fn server_metrics() -> &'static ServerMetrics {
    SERVER.get_or_init(|| {
        let reg = sbf_telemetry::global();
        ServerMetrics {
            connections: reg.counter("sbfd_connections_total"),
            connections_active: reg.gauge("sbfd_connections_active"),
            requests: LABELS
                .iter()
                .map(|op| reg.counter(&format!("sbfd_requests_total{{op=\"{op}\"}}")))
                .collect(),
            request_latency_ns: reg.histogram("sbfd_request_latency_ns"),
            bytes_read: reg.counter("sbfd_bytes_read_total"),
            bytes_written: reg.counter("sbfd_bytes_written_total"),
            errors: reg.counter("sbfd_errors_total"),
            frames_oversized: reg.counter("sbfd_frames_oversized_total"),
            timeouts: reg.counter("sbfd_timeouts_total"),
            batch_keys: reg.counter("sbfd_batch_keys_total"),
            wal_appends: reg.counter("sbfd_wal_appends_total"),
            wal_bytes: reg.counter("sbfd_wal_bytes_total"),
            wal_fsync_ns: reg.histogram("sbfd_wal_fsync_ns"),
            wal_log_bytes: reg.gauge("sbfd_wal_log_bytes"),
            wal_compactions: reg.counter("sbfd_wal_compactions_total"),
            wal_checkpoint_failures: reg.counter("sbfd_wal_checkpoint_failures_total"),
            wal_replayed: reg.counter("sbfd_wal_replayed_records_total"),
            wal_torn_tails: reg.counter("sbfd_wal_torn_tails_total"),
            pipeline_batches: reg.counter("sbfd_pipeline_batches_total"),
            pipeline_frames: reg.counter("sbfd_pipeline_frames_total"),
            backpressure_stalls: reg.counter("sbfd_backpressure_stalls_total"),
            cluster_fanout: reg.histogram("sbfd_cluster_fanout_nodes"),
            cluster_failovers: reg.counter("sbfd_cluster_failovers_total"),
            cluster_join_bytes: reg.counter("sbfd_cluster_join_bytes_total"),
            repl_shipped: reg.counter("sbfd_repl_shipped_total"),
            repl_lag_bytes: reg.gauge("sbfd_repl_lag_bytes"),
            repl_resyncs: reg.counter("sbfd_repl_resyncs_total"),
        }
    })
}

/// Runs `f` against the metric handles iff telemetry is enabled.
#[inline]
pub(crate) fn on(f: impl FnOnce(&ServerMetrics)) {
    if sbf_telemetry::enabled() {
        f(server_metrics());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_registered_once() {
        let a = server_metrics() as *const ServerMetrics;
        let b = server_metrics() as *const ServerMetrics;
        assert_eq!(a, b);
        let snap = sbf_telemetry::global().snapshot();
        assert!(snap.get("sbfd_connections_total").is_some());
        assert!(snap
            .get("sbfd_requests_total{op=\"insert_batch\"}")
            .is_some());
        assert!(snap.get("sbfd_request_latency_ns").is_some());
    }

    #[test]
    fn per_op_counters_resolve_by_name() {
        let m = server_metrics();
        let before = m.requests_for("merge").get();
        m.requests_for("merge").inc();
        assert_eq!(m.requests_for("merge").get(), before + 1);
    }
}
