//! The worker pool shard jobs run on.
//!
//! A fixed set of threads takes jobs from one FIFO queue.  Shard jobs run
//! for seconds, so one lock over the queue is never contended enough to
//! matter.  Idle workers park, and [`WorkerPool::drain`] waits, on one
//! condvar under the queue's own lock, so no wake-up can be missed.  Jobs
//! are opaque closures; a job that panics is caught at the pool perimeter
//! (the thread survives and keeps serving), counted, and otherwise ignored
//! — outcome bookkeeping is the job's own responsibility, which is how the
//! server turns a dead worker into degraded tallies rather than a dead
//! daemon.
//!
//! [`WorkerPool::drain`] blocks until every queued and running job has
//! finished — the graceful-shutdown barrier — and [`WorkerPool::join`]
//! additionally stops and joins the threads.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// A queued unit of work.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Everything the pool tracks, under one lock.
struct Queue {
    /// Jobs not yet taken, oldest first.
    jobs: VecDeque<Job>,
    /// Jobs a worker has taken and not yet finished.
    running: usize,
    /// Jobs whose closure panicked (absorbed at the perimeter).
    panics: u64,
    /// Set once: workers exit when this is up and no job is queued.
    stop: bool,
}

impl Queue {
    /// Jobs queued or currently executing.
    fn pending(&self) -> usize {
        self.jobs.len() + self.running
    }
}

/// Shared state between the pool handle and its worker threads.
struct PoolState {
    queue: Mutex<Queue>,
    /// Signalled when a job is queued, when the pool goes idle, and on stop.
    signal: Condvar,
}

impl PoolState {
    fn lock(&self) -> MutexGuard<'_, Queue> {
        self.queue.lock().expect("pool queue poisoned")
    }
}

/// A fixed-size pool of worker threads over one FIFO job queue.
pub struct WorkerPool {
    state: Arc<PoolState>,
    /// Guarded so [`WorkerPool::join`] can take `&self` (the server shares
    /// the pool behind an `Arc`); emptied by the first join.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl WorkerPool {
    /// Start `workers` threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> WorkerPool {
        let state = Arc::new(PoolState {
            queue: Mutex::new(Queue {
                jobs: VecDeque::new(),
                running: 0,
                panics: 0,
                stop: false,
            }),
            signal: Condvar::new(),
        });
        let threads = (0..workers.max(1))
            .map(|i| {
                let state = Arc::clone(&state);
                std::thread::Builder::new()
                    .name(format!("ftkr-serve-worker-{i}"))
                    .spawn(move || worker_loop(&state))
                    .expect("worker thread spawns")
            })
            .collect();
        WorkerPool {
            state,
            threads: Mutex::new(threads),
        }
    }

    /// Queue a job.  Jobs start in submission order but race across
    /// workers; anything order-sensitive must synchronize itself.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.state.lock().jobs.push_back(Box::new(job));
        // All, not one: `drain` waiters share the condvar, and a single
        // wake-up could land on a waiter instead of a parked worker.
        self.state.signal.notify_all();
    }

    /// Jobs queued or currently executing.
    pub fn pending(&self) -> usize {
        self.state.lock().pending()
    }

    /// Jobs whose closure panicked (each was absorbed; the worker thread
    /// survived).
    pub fn panics(&self) -> u64 {
        self.state.lock().panics
    }

    /// Block until every queued and running job has finished.
    pub fn drain(&self) {
        let _idle = self
            .state
            .signal
            .wait_while(self.state.lock(), |queue| queue.pending() > 0)
            .expect("pool queue poisoned");
    }

    /// Drain, then stop and join the worker threads.  Idempotent: a second
    /// call finds no threads left to join.
    pub fn join(&self) {
        self.drain();
        self.state.lock().stop = true;
        self.state.signal.notify_all();
        let handles: Vec<JoinHandle<()>> = self
            .threads
            .lock()
            .expect("pool threads poisoned")
            .drain(..)
            .collect();
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// One worker thread: run jobs until stopped and out of work.
fn worker_loop(state: &PoolState) {
    let mut queue = state.lock();
    loop {
        if let Some(job) = queue.jobs.pop_front() {
            queue.running += 1;
            drop(queue);
            let panicked = catch_unwind(AssertUnwindSafe(job)).is_err();
            queue = state.lock();
            queue.running -= 1;
            queue.panics += u64::from(panicked);
            if queue.pending() == 0 {
                state.signal.notify_all();
            }
        } else if queue.stop {
            return;
        } else {
            queue = state.signal.wait(queue).expect("pool queue poisoned");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn jobs_run_exactly_once_across_workers() {
        let pool = WorkerPool::new(4);
        let counter = Arc::new(AtomicU32::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            pool.spawn(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.drain();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
        assert_eq!(pool.pending(), 0);
        pool.join();
    }

    #[test]
    fn a_panicking_job_does_not_kill_its_worker() {
        let pool = WorkerPool::new(1);
        pool.spawn(|| panic!("job dies"));
        let ran = Arc::new(AtomicU32::new(0));
        let flag = Arc::clone(&ran);
        pool.spawn(move || {
            flag.store(1, Ordering::SeqCst);
        });
        pool.drain();
        assert_eq!(ran.load(Ordering::SeqCst), 1, "the single worker survived");
        assert_eq!(pool.panics(), 1);
        pool.join();
    }

    #[test]
    fn drain_waits_for_jobs_queued_by_running_jobs() {
        let pool = Arc::new(WorkerPool::new(1));
        let log = Arc::new(Mutex::new(Vec::new()));
        let (inner_pool, outer_log) = (Arc::clone(&pool), Arc::clone(&log));
        pool.spawn(move || {
            let inner_log = Arc::clone(&outer_log);
            inner_pool.spawn(move || inner_log.lock().unwrap().push("inner"));
            outer_log.lock().unwrap().push("outer");
        });
        pool.drain();
        assert_eq!(
            *log.lock().unwrap(),
            ["outer", "inner"],
            "the parked worker ran both"
        );
        assert_eq!(pool.pending(), 0);
        pool.join();
        pool.join();
    }
}
