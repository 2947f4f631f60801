//! Concurrency suite: the invariants the ingest path must keep under real
//! thread interleavings (`std::thread::scope`, no mocked schedulers).
//!
//! The paper's one-sided contract is `f̂_x ≥ f_x`. Concurrently that reads:
//! once an insert has returned, every later estimate of that key must be at
//! least as large as the key's completed-insert count.

use std::sync::Arc;

use spectral_bloom::{MiSbf, MsSbf, RemoveError, RmSbf, ShardedSketch, SketchReader};

/// The sharded aggregate equals the sum of its parts after a mixed
/// insert/remove workload: no count is lost to or duplicated by routing.
#[test]
fn sharded_total_is_sum_of_shard_totals() {
    let sketch = ShardedSketch::with_shards(8, |_| RmSbf::new(1 << 14, 5, 33));
    const THREADS: u64 = 4;
    const KEYS: u64 = 400;
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let sketch = &sketch;
            scope.spawn(move || {
                for i in 0..KEYS {
                    let key = t * 10_000 + i;
                    sketch.insert_by(&key, 3);
                    sketch.remove(&key).expect("just inserted 3");
                }
            });
        }
    });
    let expected = THREADS * KEYS * 2; // 3 in, 1 out per key
    assert_eq!(sketch.total_count(), expected);
    assert_eq!(sketch.shard_totals().iter().sum::<u64>(), expected);
    // Each key's mass lives in exactly one shard; the union by counter
    // addition can only add other shards' collision mass on top, so the
    // merged filter stays one-sided (and is never below the owning shard).
    let merged = sketch.snapshot();
    for t in 0..THREADS {
        for i in 0..KEYS {
            let key = t * 10_000 + i;
            assert!(merged.estimate(&key) >= 2, "undercount for {key}");
        }
    }
    assert_eq!(merged.total_count(), expected);
}

/// A refused removal must not mutate — even while other threads are
/// concurrently writing to the same shard.
#[test]
fn failed_removes_under_contention_leave_counters_unchanged() {
    let sketch = ShardedSketch::with_shards(4, |_| MsSbf::new(1 << 14, 5, 55));
    const RESIDENT: u64 = 200;
    for key in 0..RESIDENT {
        sketch.insert_by(&key, 5);
    }
    std::thread::scope(|scope| {
        // Attackers: over-remove resident keys (must fail: only 5 present)
        // and remove absent keys (must fail: counters are 0 w.h.p.).
        for t in 0..2u64 {
            let sketch = &sketch;
            scope.spawn(move || {
                for key in 0..RESIDENT {
                    let err = sketch.remove_by(&key, 1000).expect_err("only 5 inserted");
                    assert!(matches!(err, RemoveError::Underflow { .. }));
                    // Absent-key removals may accidentally succeed only if
                    // collisions raised every counter — not at this load.
                    let absent = 1_000_000 + t * RESIDENT + key;
                    assert!(
                        sketch.remove(&absent).is_err(),
                        "phantom removal of {absent}"
                    );
                }
            });
        }
        // Meanwhile writers keep inserting disjoint keys into the same shards.
        for t in 0..2u64 {
            let sketch = &sketch;
            scope.spawn(move || {
                for i in 0..RESIDENT {
                    sketch.insert(&(2_000_000 + t * RESIDENT + i));
                }
            });
        }
    });
    // Failed removes contributed nothing; the residents are intact.
    assert_eq!(sketch.total_count(), RESIDENT * 5 + 2 * RESIDENT);
    for key in 0..RESIDENT {
        assert!(sketch.estimate(&key) >= 5, "resident {key} was damaged");
    }
}

/// An `Arc`-shared sketch over MI shards: batch ingest from several
/// threads keeps the one-sided bound and the exact global total, and a
/// reader running alongside never sees an earlier insert disappear.
#[test]
fn shared_mi_batches_stay_one_sided() {
    let shared = Arc::new(ShardedSketch::with_shards(4, |_| MiSbf::new(1 << 14, 5, 9)));
    const THREADS: u64 = 4;
    const PER_THREAD: u64 = 2000;
    const RESIDENT: u64 = 1 << 40;
    shared.insert_by(&RESIDENT, 3);
    std::thread::scope(|scope| {
        let r = Arc::clone(&shared);
        scope.spawn(move || {
            for _ in 0..500 {
                assert!(r.estimate(&RESIDENT) >= 3);
            }
        });
        for t in 0..THREADS {
            let h = Arc::clone(&shared);
            scope.spawn(move || {
                let keys: Vec<u64> = (0..PER_THREAD).map(|i| i % 100).collect();
                let _ = t;
                h.insert_batch(&keys);
            });
        }
    });
    assert_eq!(shared.total_count(), THREADS * PER_THREAD + 3);
    for key in 0u64..100 {
        assert!(
            shared.estimate(&key) >= THREADS * PER_THREAD / 100,
            "undercount for {key}"
        );
    }
}

/// A batched estimate holds every shard's read guard at once, taken in
/// ascending index order, while writers lock one shard at a time. Two
/// batched readers against two writers running `insert_batch` and `remove`
/// across all four shards must finish (a lock-order cycle would hang them,
/// and the watchdog turns that into a failure), and every estimate must
/// cover the inserts acknowledged before its batch began.
#[test]
fn batched_estimates_against_writers_finish_and_stay_one_sided() {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    const WRITERS: usize = 2;
    const ROUNDS: u64 = 300;
    const KEYS: u64 = 256;
    let sketch = Arc::new(ShardedSketch::with_shards(4, |_| {
        MsSbf::new(1 << 14, 5, 77)
    }));
    // Writer `t` inserts its own keys `t * KEYS..(t + 1) * KEYS` once per
    // round and counts the round here once `insert_batch` has returned.
    let acked: Arc<[AtomicU64; WRITERS]> = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
    let writers_done = Arc::new(AtomicBool::new(false));
    let (done_tx, done_rx) = mpsc::channel();
    let run = {
        let (sketch, acked, writers_done) = (sketch.clone(), acked.clone(), writers_done.clone());
        std::thread::spawn(move || {
            std::thread::scope(|scope| {
                let mut writers = Vec::new();
                for (t, acked) in acked.iter().enumerate() {
                    let sketch = &sketch;
                    writers.push(scope.spawn(move || {
                        let base = t as u64 * KEYS;
                        let keys: Vec<u64> = (base..base + KEYS).collect();
                        for round in 0..ROUNDS {
                            sketch.insert_batch(&keys);
                            acked.fetch_add(1, Ordering::Release);
                            // Churn on keys of their own, across shards:
                            // insert, then remove what was inserted.
                            let churn = 1_000_000 + base + round % KEYS;
                            sketch.insert_by(&churn, 2);
                            sketch.remove(&churn).expect("churn key holds 2");
                        }
                    }));
                }
                for _ in 0..2 {
                    let (sketch, acked, writers_done) = (&sketch, &acked, &writers_done);
                    scope.spawn(move || {
                        let keys: Vec<u64> = (0..WRITERS as u64 * KEYS).collect();
                        let mut out = Vec::new();
                        let mut batches = 0u32;
                        while batches < 50 || !writers_done.load(Ordering::Acquire) {
                            let floor: Vec<u64> =
                                acked.iter().map(|a| a.load(Ordering::Acquire)).collect();
                            sketch.estimate_batch_into(&keys, &mut out);
                            for (&key, &est) in keys.iter().zip(&out) {
                                let want = floor[(key / KEYS) as usize];
                                assert!(est >= want, "key {key}: {est} < {want} acknowledged");
                            }
                            batches += 1;
                        }
                    });
                }
                for w in writers {
                    w.join().expect("writer panicked");
                }
                writers_done.store(true, Ordering::Release);
            });
            done_tx.send(()).expect("watchdog is waiting");
        })
    };
    // A panicking reader or writer drops the sender early; only a timeout
    // means the threads are stuck.
    if let Err(mpsc::RecvTimeoutError::Timeout) = done_rx.recv_timeout(Duration::from_secs(120)) {
        panic!("batched readers and writers did not finish in 120 s: lock-order deadlock?");
    }
    run.join().expect("a reader or writer panicked");
    for key in 0..WRITERS as u64 * KEYS {
        assert!(sketch.estimate(&key) >= ROUNDS, "undercount for {key}");
    }
}
