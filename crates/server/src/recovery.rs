//! Replay-on-boot: rebuilding server state from a WAL directory, plus the
//! offline inspector behind `sbf wal inspect`.
//!
//! Recovery order (the inverse of the write order in [`crate::wal`]):
//!
//! 1. delete stale `*.tmp` files — in-flight atomic writes that never
//!    reached their rename are garbage by construction;
//! 2. restore `snapshot.sbf`, if present, into the *remote* filter. The
//!    snapshot is whole-range mass (a checkpoint cut of live + remote),
//!    which is precisely what the remote filter exists to hold — folding
//!    it into one shard of the live sketch would hide it from most keys;
//! 3. replay every `wal-*.log` in generation order through the ordinary
//!    mutation path. Each record was applied before it was logged, so
//!    replay can only re-add mass a snapshot already covers — estimates
//!    stay one-sided (`f̂ ≥ f`), never low;
//! 4. truncate a torn tail at the CRC-verified boundary and keep going —
//!    torn tails are the expected residue of a crash mid-append, and
//!    everything past one was never acknowledged.
//!
//! A snapshot that fails to decode or disagrees with the server's
//! `(m, k, seed)` is fatal: snapshots are written atomically, so an
//! unreadable one is operator error (wrong directory, wrong geometry),
//! not crash damage, and silently serving without its mass would break
//! the one-sided contract for every key it covered.

use std::fs::{self, OpenOptions};
use std::io;
use std::path::Path;

use sbf_db::logrec::{LogScanner, TailStatus};
use sbf_db::wire::FilterEnvelope;
use spectral_bloom::{CounterStore, PlainCounters};

use crate::metrics;
use crate::proto::RequestRef;
use crate::server::SharedState;
use crate::wal::{list_logs, SNAPSHOT_FILE, TMP_SUFFIX};

/// Why recovery refused to bring the server up.
#[derive(Debug)]
pub enum RecoveryError {
    /// Filesystem failure reading or repairing the WAL directory.
    Io(io::Error),
    /// `snapshot.sbf` exists but does not decode, or its geometry
    /// disagrees with the server's `(m, k, seed)`.
    Snapshot(String),
}

impl std::fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoveryError::Io(e) => write!(f, "wal recovery i/o: {e}"),
            RecoveryError::Snapshot(msg) => write!(f, "wal snapshot rejected: {msg}"),
        }
    }
}

impl std::error::Error for RecoveryError {}

impl From<io::Error> for RecoveryError {
    fn from(e: io::Error) -> Self {
        RecoveryError::Io(e)
    }
}

/// What recovery found and did; logged by the daemon at startup.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Whether a snapshot was restored into the remote filter.
    pub snapshot_loaded: bool,
    /// Total counter mass the snapshot carried, saturating at `u64::MAX`.
    pub snapshot_mass: u64,
    /// Number of generation logs scanned.
    pub logs_scanned: usize,
    /// Records decoded and re-applied through the mutation path.
    pub records_replayed: u64,
    /// Records skipped (not a mutation, undecodable, or a remove that
    /// would underflow — all safe to drop: skipping only *over*-counts).
    pub records_skipped: u64,
    /// Torn tails truncated away (at most one per log).
    pub torn_tails: usize,
    /// Stale `*.tmp` files deleted.
    pub stale_tmp_removed: usize,
}

impl RecoveryReport {
    /// One-line summary for the daemon's startup banner.
    pub fn summary(&self) -> String {
        format!(
            "snapshot={} ({} mass), logs={}, replayed={}, skipped={}, torn_tails={}",
            if self.snapshot_loaded { "yes" } else { "no" },
            self.snapshot_mass,
            self.logs_scanned,
            self.records_replayed,
            self.records_skipped,
            self.torn_tails
        )
    }
}

/// Deletes leftover `*.tmp` files from crashed atomic writes.
fn remove_stale_tmp(dir: &Path) -> io::Result<usize> {
    let mut removed = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        if entry.file_name().to_string_lossy().ends_with(TMP_SUFFIX) {
            fs::remove_file(entry.path())?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// Rebuilds `state` from the WAL directory at `dir` (creating it when
/// absent), repairing torn log tails in place. Call before [`crate::wal::Wal::open`]
/// and before serving. See the module docs for the ordering argument.
pub fn recover(dir: &Path, state: &SharedState) -> Result<RecoveryReport, RecoveryError> {
    fs::create_dir_all(dir)?;
    let mut report = RecoveryReport {
        stale_tmp_removed: remove_stale_tmp(dir)?,
        ..RecoveryReport::default()
    };

    let (m, k, seed) = state.geometry();
    let snapshot_path = dir.join(SNAPSHOT_FILE);
    match fs::read(&snapshot_path) {
        Ok(bytes) => {
            // The counters narrow into the served store as they decode.
            let env =
                FilterEnvelope::<PlainCounters>::decode_capped_as(&bytes, m).map_err(|e| {
                    RecoveryError::Snapshot(format!("{}: {e}", snapshot_path.display()))
                })?;
            if env.counters.len() != m || env.k as usize != k || env.seed != seed {
                return Err(RecoveryError::Snapshot(format!(
                    "geometry (m={}, k={}, seed={}) != server (m={m}, k={k}, seed={seed})",
                    env.counters.len(),
                    env.k,
                    env.seed,
                )));
            }
            report.snapshot_mass = mass(env.counters.values());
            state.absorb_envelope(env);
            report.snapshot_loaded = true;
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e.into()),
    }

    for (_generation, path) in list_logs(dir)? {
        report.logs_scanned += 1;
        let bytes = fs::read(&path)?;
        let mut scan = LogScanner::with_cap(&bytes, state.max_frame);
        for payload in scan.by_ref() {
            let replayed = payload
                .split_first()
                .and_then(|(&opcode, body)| RequestRef::decode(opcode, body).ok())
                .is_some_and(|req| req.is_mutation() && state.apply_replay(&req));
            if replayed {
                report.records_replayed += 1;
            } else {
                report.records_skipped += 1;
            }
        }
        if let TailStatus::Torn(_) = scan.tail() {
            let keep = scan.valid_len() as u64;
            let file = OpenOptions::new().write(true).open(&path)?;
            file.set_len(keep)?;
            file.sync_all()?;
            report.torn_tails += 1;
            metrics::on(|met| met.wal_torn_tails.inc());
        }
    }
    metrics::on(|met| met.wal_replayed.add(report.records_replayed));
    Ok(report)
}

/// Per-log facts from an offline [`inspect`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogInfo {
    /// Generation number from the file name.
    pub generation: u64,
    /// File size in bytes.
    pub bytes: u64,
    /// Intact, CRC-verified records.
    pub records: u64,
    /// Bytes of the valid record prefix.
    pub valid_bytes: u64,
    /// Torn-tail description, when the log does not end on a boundary.
    pub torn: Option<String>,
    /// `(op name, count)` over the decodable records, in first-seen order.
    pub ops: Vec<(String, u64)>,
}

/// Snapshot facts from an offline [`inspect`] pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// File size in bytes.
    pub bytes: u64,
    /// Counter count.
    pub m: usize,
    /// Hash-function count.
    pub k: u32,
    /// Hash seed.
    pub seed: u64,
    /// Total counter mass, saturating at `u64::MAX`.
    pub mass: u64,
}

/// The sum of `counters`, saturating: one saturated counter is already
/// `u64::MAX`.
fn mass(counters: impl Iterator<Item = u64>) -> u64 {
    counters.fold(0, |sum, c| sum.saturating_add(c))
}

/// Everything `sbf wal inspect` prints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WalInspection {
    /// The snapshot, if present and decodable; `Err` keeps the reason.
    pub snapshot: Option<Result<SnapshotInfo, String>>,
    /// Logs in generation order.
    pub logs: Vec<LogInfo>,
}

/// Reads a WAL directory without touching it: no truncation, no replay.
/// Safe to run against a live server's directory (reads may race appends
/// and see a not-yet-complete tail record as torn — that is the honest
/// answer at that instant).
pub fn inspect(dir: &Path, max_record: usize) -> io::Result<WalInspection> {
    let mut out = WalInspection::default();
    match fs::read(dir.join(SNAPSHOT_FILE)) {
        Ok(bytes) => {
            let info = FilterEnvelope::decode(&bytes)
                .map(|env| SnapshotInfo {
                    bytes: bytes.len() as u64,
                    m: env.counters.len(),
                    k: env.k,
                    seed: env.seed,
                    mass: mass(env.counters.iter().copied()),
                })
                .map_err(|e| e.to_string());
            out.snapshot = Some(info);
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    for (generation, path) in list_logs(dir)? {
        let bytes = fs::read(&path)?;
        let mut ops: Vec<(String, u64)> = Vec::new();
        let mut records = 0u64;
        let mut scan = LogScanner::with_cap(&bytes, max_record);
        for payload in scan.by_ref() {
            records += 1;
            let name = payload
                .split_first()
                .and_then(|(&opcode, body)| RequestRef::decode(opcode, body).ok())
                .map_or("undecodable", |req| req.label());
            match ops.iter_mut().find(|(n, _)| n == name) {
                Some((_, c)) => *c += 1,
                None => ops.push((name.to_string(), 1)),
            }
        }
        out.logs.push(LogInfo {
            generation,
            bytes: bytes.len() as u64,
            records,
            valid_bytes: scan.valid_len() as u64,
            torn: match scan.tail() {
                TailStatus::Clean => None,
                TailStatus::Torn(reason) => Some(reason.to_string()),
            },
            ops,
        });
    }
    Ok(out)
}
