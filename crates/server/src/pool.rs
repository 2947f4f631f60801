//! A fixed-size worker thread pool over an `mpsc` job queue.
//!
//! The reactor (`reactor/mod.rs`) owns every socket and hands this pool
//! the jobs it does not run inline: batches, MERGE, SNAPSHOT, joins, STATS,
//! HELLO, SHUTDOWN and every durable mutation. A job is one connection's
//! run of pipelined frames; the worker decodes, applies and encodes them
//! and posts the response bytes back to the reactor. Workers never own a
//! connection, so the pool size bounds concurrent CPU work, not
//! connections (`max_connections` caps those, in the reactor). Drain stays
//! trivially correct: close the queue, join the workers, and every queued
//! and running job has finished.

use crate::sync::{lock_unpoisoned, Arc, Mutex};
use std::sync::mpsc;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// The fixed pool. Dropping it (or calling [`WorkerPool::join`]) closes
/// the queue and blocks until every queued and running job has finished.
#[derive(Debug)]
pub struct WorkerPool {
    sender: Option<mpsc::Sender<Job>>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `size` workers (at least one).
    pub fn new(size: usize) -> Self {
        let size = size.max(1);
        let (sender, receiver) = mpsc::channel::<Job>();
        // `mpsc::Receiver` is single-consumer; the workers share it behind
        // a mutex, which doubles as the queue's fairness point. A worker
        // holds the lock only while dequeuing, never while running a job.
        let receiver = Arc::new(Mutex::new(receiver));
        let workers = (0..size)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                std::thread::Builder::new()
                    .name(format!("sbfd-worker-{i}"))
                    .spawn(move || loop {
                        let job = {
                            let guard = lock_unpoisoned(receiver.lock());
                            guard.recv()
                        };
                        match job {
                            Ok(job) => job(),
                            // Channel closed: the pool is draining.
                            Err(_) => return,
                        }
                    })
                    .unwrap_or_else(|e| panic!("spawning worker thread: {e}"))
            })
            .collect();
        WorkerPool {
            sender: Some(sender),
            workers,
        }
    }

    /// Number of worker threads.
    pub fn size(&self) -> usize {
        self.workers.len()
    }

    /// Queues a job. Returns `false` if the pool is already draining.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) -> bool {
        match &self.sender {
            Some(sender) => sender.send(Box::new(job)).is_ok(),
            None => false,
        }
    }

    /// Closes the queue and joins every worker: all queued and running
    /// jobs complete before this returns. Idempotent.
    pub fn join(&mut self) {
        // Dropping the sender disconnects the channel; workers exit after
        // draining whatever was already queued.
        self.sender = None;
        for handle in self.workers.drain(..) {
            if handle.join().is_err() {
                // A worker panicked in a job; the panic was already printed
                // by the default hook. Keep joining the rest so drain still
                // completes.
            }
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_all_jobs_before_join_returns() {
        let done = Arc::new(AtomicUsize::new(0));
        let mut pool = WorkerPool::new(4);
        for _ in 0..100 {
            let done = Arc::clone(&done);
            assert!(pool.execute(move || {
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.join();
        assert_eq!(done.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn execute_after_join_is_refused() {
        let mut pool = WorkerPool::new(1);
        pool.join();
        assert!(!pool.execute(|| {}));
    }

    #[test]
    fn zero_size_is_clamped_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.size(), 1);
    }

    #[test]
    fn a_panicking_job_does_not_wedge_the_pool() {
        let done = Arc::new(AtomicUsize::new(0));
        let mut pool = WorkerPool::new(2);
        pool.execute(|| panic!("job panic (expected in test output)"));
        for _ in 0..10 {
            let done = Arc::clone(&done);
            pool.execute(move || {
                done.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.join();
        assert_eq!(done.load(Ordering::SeqCst), 10);
    }
}
