//! The `sbfd` write-ahead log: append-only durability for acknowledged
//! mutations, checkpoint/compaction, and the atomic-write helper every
//! snapshot flush goes through.
//!
//! # On-disk layout
//!
//! A WAL directory holds one snapshot and one or more generation-numbered
//! logs:
//!
//! ```text
//! wal-dir/
//!   snapshot.sbf       # FilterEnvelope, atomically replaced at checkpoint
//!   wal-000003.log     # sbf_db::logrec records: older generation(s) …
//!   wal-000004.log     # … and the generation currently appended to
//!   *.tmp              # in-flight atomic writes; stale ones are ignored
//! ```
//!
//! Each log record's payload is exactly a wire frame minus its length
//! prefix (`opcode + body`), so the log format *is* the wire format and
//! replay is the ordinary request-decode path.
//!
//! # Ordering contract (why recovery is one-sided)
//!
//! The mutation path is **apply → append+fsync → acknowledge**:
//!
//! 1. every byte in the log describes a mutation already applied to the
//!    in-memory sketch, and
//! 2. every *acknowledged* mutation is fsynced in the log (or, after a
//!    checkpoint, covered by the snapshot — see below), so
//! 3. a crash loses only unacknowledged mutations, and replaying
//!    snapshot + logs can only **over**-count (a record may double-apply
//!    mass the snapshot already holds) — which preserves the SBF's
//!    one-sided `f̂ ≥ f` estimate contract. Exactness returns at the next
//!    checkpoint.
//!
//! [`Wal::checkpoint`] cuts the snapshot *under the append lock*: appends
//! serialize on the same mutex, and each append's mutation was applied
//! before the lock was taken, so the cut sketch state is a superset of
//! every record in the previous generations. That is the invariant the
//! `wal_ordering` model test explores exhaustively; it licenses deleting
//! the old logs once the snapshot is durable.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::Instant;

use sbf_db::logrec;

use crate::metrics;
use crate::sync::{lock_unpoisoned, Mutex};

/// File name of the checkpoint snapshot inside a WAL directory.
pub const SNAPSHOT_FILE: &str = "snapshot.sbf";

/// Suffix of in-flight atomic writes; anything still wearing it at boot is
/// a crashed write and is deleted by recovery.
pub const TMP_SUFFIX: &str = ".tmp";

/// Opens (or creates) a generation log for positioned writes.
fn open_log(path: &Path) -> io::Result<File> {
    OpenOptions::new()
        .create(true)
        .truncate(false)
        .write(true)
        .open(path)
}

/// Log file name for a generation.
pub(crate) fn log_file_name(generation: u64) -> String {
    format!("wal-{generation:06}.log")
}

/// Parses a generation number back out of a `wal-NNNNNN.log` file name.
pub(crate) fn parse_log_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".log")?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Lists a WAL directory's log files as `(generation, path)`, sorted by
/// generation. Non-log files are ignored.
pub(crate) fn list_logs(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
    let mut logs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(generation) = name.to_str().and_then(parse_log_name) {
            logs.push((generation, entry.path()));
        }
    }
    logs.sort_unstable_by_key(|&(generation, _)| generation);
    Ok(logs)
}

/// Flushes directory metadata so a just-created, -renamed or -removed
/// entry survives power loss (POSIX requires a directory fsync for that;
/// on platforms where directories cannot be opened this is a no-op, which
/// only weakens durability to what `std::fs::write` offered before).
fn sync_dir(dir: &Path) -> io::Result<()> {
    match File::open(dir) {
        Ok(d) => d.sync_all(),
        Err(_) => Ok(()),
    }
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// `fsync`, rename over the target, directory fsync. A crash at any point
/// leaves either the old file or the new file — never a torn hybrid —
/// which is what lets recovery treat an unreadable snapshot as fatal
/// rather than expected wreckage.
///
/// This is the satellite-1 fix: the drain-time snapshot flush and every
/// checkpoint go through here instead of `std::fs::write`.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp_name = path
        .file_name()
        .ok_or_else(|| io::Error::other("atomic_write target has no file name"))?
        .to_os_string();
    tmp_name.push(TMP_SUFFIX);
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        sync_dir(parent)?;
    }
    Ok(())
}

/// Append-side state, all guarded by one mutex so that appends serialize
/// with the checkpoint cut (the ordering the recovery proof rests on).
#[derive(Debug)]
struct WalInner {
    /// The open generation log. Records are written at `log_bytes`, not in
    /// append mode (see [`Wal::append`]).
    file: File,
    /// Generation of `file`.
    generation: u64,
    /// End of the last record that was written and fsynced in `file`.
    log_bytes: u64,
    /// Size of the last durable snapshot (0 before the first checkpoint).
    snapshot_bytes: u64,
}

/// The write-ahead log: one open generation file plus the checkpoint
/// machinery. Shared across reactors behind an `Arc`.
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    inner: Mutex<WalInner>,
    /// Log size past which [`Wal::wants_checkpoint`] fires, as a multiple
    /// of the last snapshot's size (floored by `compact_min_bytes`).
    compact_ratio: u64,
    /// Floor for the compaction threshold, so an empty filter does not
    /// checkpoint on every record.
    compact_min_bytes: u64,
}

impl Wal {
    /// Opens (or creates) the WAL in `dir`, resuming the highest existing
    /// generation. Run recovery *first* — this trusts that any torn tail
    /// has already been truncated away.
    pub fn open(dir: &Path, compact_ratio: u64, compact_min_bytes: u64) -> io::Result<Wal> {
        fs::create_dir_all(dir)?;
        let logs = list_logs(dir)?;
        let generation = logs.last().map_or(0, |&(generation, _)| generation);
        let path = dir.join(log_file_name(generation));
        let file = open_log(&path)?;
        let log_bytes = file.metadata()?.len();
        let snapshot_bytes = fs::metadata(dir.join(SNAPSHOT_FILE)).map_or(0, |m| m.len());
        // Make sure a freshly created first log survives power loss.
        sync_dir(dir)?;
        metrics::on(|m| m.wal_log_bytes.set_u64(log_bytes));
        Ok(Wal {
            dir: dir.to_path_buf(),
            inner: Mutex::new(WalInner {
                file,
                generation,
                log_bytes,
                snapshot_bytes,
            }),
            compact_ratio: compact_ratio.max(1),
            compact_min_bytes,
        })
    }

    /// The WAL directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends one record (a wire frame minus its length prefix) and
    /// fsyncs it. On `Ok`, the mutation is durable and may be
    /// acknowledged; on `Err` it MUST NOT be acknowledged as applied
    /// (the caller answers [`crate::proto::ErrorCode::Io`]).
    ///
    /// The record is written at the end of the last good record, not at
    /// the end of the file. A write that failed part-way leaves bytes past
    /// that end; the next record overwrites them instead of landing behind
    /// them, where recovery, which stops at the first bad record, would
    /// never reach it.
    pub fn append(&self, payload: &[u8]) -> io::Result<()> {
        let mut rec = Vec::with_capacity(logrec::RECORD_HEADER_LEN + payload.len());
        logrec::append_record(&mut rec, payload)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidInput, e))?;
        let mut inner = lock_unpoisoned(self.inner.lock());
        inner.file.write_all_at(&rec, inner.log_bytes)?;
        let fsync_started = Instant::now();
        inner.file.sync_data()?;
        inner.log_bytes += rec.len() as u64;
        metrics::on(|m| {
            m.wal_appends.inc();
            m.wal_bytes.add(rec.len() as u64);
            m.wal_fsync_ns.observe_duration(fsync_started.elapsed());
            m.wal_log_bytes.set_u64(inner.log_bytes);
        });
        Ok(())
    }

    /// Bytes in the current generation log.
    pub fn log_bytes(&self) -> u64 {
        lock_unpoisoned(self.inner.lock()).log_bytes
    }

    /// Whether the log has outgrown the compaction threshold
    /// (`compact_ratio × max(last snapshot size, compact_min_bytes)`).
    pub fn wants_checkpoint(&self) -> bool {
        let inner = lock_unpoisoned(self.inner.lock());
        let floor = inner.snapshot_bytes.max(self.compact_min_bytes);
        inner.log_bytes > self.compact_ratio.saturating_mul(floor)
    }

    /// Cuts a checkpoint: calls `cut` for the current filter state *while
    /// holding the append lock* (so the envelope is a superset of every
    /// record in generations ≤ the current one), swaps to a fresh
    /// generation log, then — off the lock — atomically writes the
    /// snapshot and deletes the superseded logs.
    ///
    /// A panic in `cut` is caught before it can poison the append lock,
    /// and returned as `Err` with the generation and the logs untouched,
    /// so later appends and checkpoints proceed.
    ///
    /// Crash windows, in order, all recover one-sided:
    /// - before the snapshot rename: old snapshot + all logs (old and new
    ///   generation) replay; records the cut had folded in double-apply —
    ///   over-count only;
    /// - after the rename, before log deletion: new snapshot + old logs
    ///   double-apply the old generation — over-count only;
    /// - after deletion: exact.
    pub fn checkpoint(&self, cut: impl FnOnce() -> Vec<u8>) -> io::Result<()> {
        let (envelope, stale_logs, new_generation) = {
            let mut inner = lock_unpoisoned(self.inner.lock());
            let envelope = panic::catch_unwind(AssertUnwindSafe(cut))
                .map_err(|_| io::Error::other("checkpoint cut panicked"))?;
            let new_generation = inner.generation + 1;
            let path = self.dir.join(log_file_name(new_generation));
            let file = open_log(&path)?;
            inner.file = file;
            inner.generation = new_generation;
            inner.log_bytes = 0;
            (envelope, list_logs(&self.dir)?, new_generation)
        };
        // The new generation file must exist durably before the old logs
        // can go: otherwise a crash could leave neither.
        sync_dir(&self.dir)?;
        atomic_write(&self.dir.join(SNAPSHOT_FILE), &envelope)?;
        for (generation, path) in stale_logs {
            if generation < new_generation {
                fs::remove_file(path)?;
            }
        }
        sync_dir(&self.dir)?;
        let mut inner = lock_unpoisoned(self.inner.lock());
        inner.snapshot_bytes = envelope.len() as u64;
        metrics::on(|m| {
            m.wal_compactions.inc();
            m.wal_log_bytes.set_u64(inner.log_bytes);
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sbf_db::logrec::{LogScanner, TailStatus};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sbf-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn log_names_roundtrip() {
        assert_eq!(log_file_name(0), "wal-000000.log");
        assert_eq!(parse_log_name("wal-000007.log"), Some(7));
        assert_eq!(parse_log_name("wal-1000000.log"), Some(1_000_000));
        assert_eq!(parse_log_name("wal-.log"), None);
        assert_eq!(parse_log_name("wal-00x000.log"), None);
        assert_eq!(parse_log_name("snapshot.sbf"), None);
        assert_eq!(parse_log_name("wal-000001.log.tmp"), None);
    }

    #[test]
    fn appends_survive_reopen() {
        let dir = tmpdir("reopen");
        {
            let wal = Wal::open(&dir, 4, 1 << 20).unwrap();
            wal.append(b"one").unwrap();
            wal.append(b"two").unwrap();
        }
        let wal = Wal::open(&dir, 4, 1 << 20).unwrap();
        wal.append(b"three").unwrap();
        let bytes = fs::read(dir.join(log_file_name(0))).unwrap();
        let mut scan = LogScanner::new(&bytes);
        let records: Vec<&[u8]> = scan.by_ref().collect();
        assert_eq!(records, vec![&b"one"[..], b"two", b"three"]);
        assert_eq!(scan.tail(), TailStatus::Clean);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_rotates_generation_and_deletes_old_logs() {
        let dir = tmpdir("ckpt");
        let wal = Wal::open(&dir, 4, 16).unwrap();
        wal.append(b"record-a").unwrap();
        wal.checkpoint(|| b"SNAP".to_vec()).unwrap();
        assert_eq!(fs::read(dir.join(SNAPSHOT_FILE)).unwrap(), b"SNAP");
        let logs = list_logs(&dir).unwrap();
        assert_eq!(
            logs.iter()
                .map(|&(generation, _)| generation)
                .collect::<Vec<_>>(),
            vec![1],
            "old generation must be deleted, new one live"
        );
        assert_eq!(wal.log_bytes(), 0);
        wal.append(b"record-b").unwrap();
        let bytes = fs::read(dir.join(log_file_name(1))).unwrap();
        assert_eq!(LogScanner::new(&bytes).count(), 1);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_panicking_cut_fails_the_checkpoint_and_leaves_the_log_usable() {
        let dir = tmpdir("cut-panic");
        let wal = Wal::open(&dir, 4, 16).unwrap();
        wal.append(b"record-a").unwrap();
        assert!(wal.checkpoint(|| panic!("cut failed")).is_err());
        let generations = || {
            list_logs(&dir)
                .unwrap()
                .iter()
                .map(|&(generation, _)| generation)
                .collect::<Vec<_>>()
        };
        assert_eq!(generations(), vec![0], "a failed cut rotates nothing");
        assert!(!dir.join(SNAPSHOT_FILE).exists());
        wal.append(b"record-b").unwrap();
        let bytes = fs::read(dir.join(log_file_name(0))).unwrap();
        assert_eq!(LogScanner::new(&bytes).count(), 2);
        wal.checkpoint(|| b"SNAP".to_vec()).unwrap();
        assert_eq!(fs::read(dir.join(SNAPSHOT_FILE)).unwrap(), b"SNAP");
        assert_eq!(generations(), vec![1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_partial_record_does_not_hide_later_appends() {
        let dir = tmpdir("partial");
        let wal = Wal::open(&dir, 4, 1 << 20).unwrap();
        wal.append(b"one").unwrap();
        // What a write that failed part-way leaves behind the last record.
        let path = dir.join(log_file_name(0));
        let mut other = OpenOptions::new().append(true).open(&path).unwrap();
        other.write_all(&[0xA5; 5]).unwrap();
        wal.append(b"two").unwrap();
        let bytes = fs::read(&path).unwrap();
        let mut scan = LogScanner::new(&bytes);
        let records: Vec<&[u8]> = scan.by_ref().collect();
        assert_eq!(records, vec![&b"one"[..], b"two"]);
        assert_eq!(scan.tail(), TailStatus::Clean);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_trigger_tracks_snapshot_size() {
        let dir = tmpdir("trigger");
        let wal = Wal::open(&dir, 2, 32).unwrap();
        assert!(!wal.wants_checkpoint());
        // Threshold before any snapshot: 2 × 32 bytes.
        for _ in 0..10 {
            wal.append(&[7u8; 8]).unwrap();
        }
        assert!(wal.wants_checkpoint(), "160 bytes of records > 64");
        // A large snapshot raises the threshold.
        wal.checkpoint(|| vec![0u8; 1000]).unwrap();
        for _ in 0..10 {
            wal.append(&[7u8; 8]).unwrap();
        }
        assert!(!wal.wants_checkpoint(), "160 < 2 × 1000");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn atomic_write_replaces_and_cleans_tmp() {
        let dir = tmpdir("atomic");
        let target = dir.join("file.bin");
        atomic_write(&target, b"first").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"first");
        atomic_write(&target, b"second").unwrap();
        assert_eq!(fs::read(&target).unwrap(), b"second");
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(TMP_SUFFIX))
            .collect();
        assert!(leftovers.is_empty(), "tmp file must be renamed away");
        fs::remove_dir_all(&dir).unwrap();
    }
}
