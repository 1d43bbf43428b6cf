//! A bounded worker pool with a deterministic FIFO queue.
//!
//! Jobs are boxed closures; workers pull in submission order. Shutdown
//! policy is explicit ([`DrainPolicy`]): [`WorkerPool::shutdown`] stops
//! intake, **drains the queue** (every already-queued job still runs),
//! and joins every worker; [`WorkerPool::shutdown_with`] can instead
//! *abandon* queued jobs — they are dropped unexecuted (their drop guards
//! fire) and workers are detached to exit after their current job, so a
//! wedged job cannot block the caller. A job that panics takes down
//! neither its worker (the thread survives via `catch_unwind`) nor the
//! pool.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use pp_engine::sync::{Condvar, Mutex};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// What shutdown does with jobs still waiting in the queue. The running
/// job of each worker always finishes either way (cancellation tokens,
/// not the pool, interrupt running work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainPolicy {
    /// Let every queued job run to completion, then join the workers.
    /// This is what [`WorkerPool::shutdown`] (and a clean
    /// [`PpServer::shutdown`](crate::server::PpServer::shutdown)) does.
    DrainQueued,
    /// Drop queued jobs unexecuted (firing their drop guards, so ticket
    /// holders still get a typed response) and detach workers instead of
    /// joining, so a long-running job cannot block the caller. Used by
    /// [`PpServer::drain`](crate::server::PpServer::drain) when its
    /// timeout expires.
    AbandonQueued,
}

struct Queue {
    jobs: Mutex<QueueState>,
    cv: Condvar,
}

struct QueueState {
    pending: VecDeque<Job>,
    shutting_down: bool,
}

/// A fixed-size pool of worker threads.
pub struct WorkerPool {
    queue: Arc<Queue>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns `workers` threads (clamped to at least 1). If the OS refuses
    /// a thread the pool runs with the ones it got; with none at all it
    /// starts shut down, so [`submit`](Self::submit) returns `false` and
    /// the server sheds with a typed rejection rather than panicking.
    pub fn new(workers: usize) -> Self {
        let queue = Arc::new(Queue {
            jobs: Mutex::new(QueueState {
                pending: VecDeque::new(),
                shutting_down: false,
            }),
            cv: Condvar::new(),
        });
        let workers: Vec<_> = (0..workers.max(1))
            .map_while(|i| {
                let queue = Arc::clone(&queue);
                std::thread::Builder::new()
                    .name(format!("pp-server-worker-{i}"))
                    .spawn(move || worker_loop(&queue))
                    .ok()
            })
            .collect();
        if workers.is_empty() {
            queue.jobs.lock().shutting_down = true;
        }
        WorkerPool { queue, workers }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Enqueues a job; returns `false` (job not queued) after shutdown.
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> bool {
        let mut state = self.queue.jobs.lock();
        if state.shutting_down {
            return false;
        }
        state.pending.push_back(Box::new(job));
        drop(state);
        self.queue.cv.notify_one();
        true
    }

    /// Jobs waiting for a worker (excludes running jobs).
    pub fn queued(&self) -> usize {
        self.queue.jobs.lock().pending.len()
    }

    /// Stops intake, lets queued jobs finish, and joins every worker
    /// (equivalent to `shutdown_with(DrainPolicy::DrainQueued)`).
    pub fn shutdown(&mut self) {
        self.shutdown_with(DrainPolicy::DrainQueued);
    }

    /// Stops intake and shuts down under `policy`; see [`DrainPolicy`].
    /// Returns the number of queued jobs dropped unexecuted (always 0
    /// for [`DrainPolicy::DrainQueued`]). Idempotent: repeat calls finish
    /// whatever the first left (e.g. joining still-attached workers).
    pub fn shutdown_with(&mut self, policy: DrainPolicy) -> usize {
        let abandoned: Vec<Job> = {
            let mut state = self.queue.jobs.lock();
            state.shutting_down = true;
            match policy {
                DrainPolicy::DrainQueued => Vec::new(),
                DrainPolicy::AbandonQueued => state.pending.drain(..).collect(),
            }
        };
        self.queue.cv.notify_all();
        let dropped = abandoned.len();
        // Dropping the boxed jobs fires their captured drop guards (permit
        // release, typed "abandoned" responses) without running them.
        drop(abandoned);
        match policy {
            DrainPolicy::DrainQueued => {
                for w in self.workers.drain(..) {
                    let _ = w.join();
                }
            }
            DrainPolicy::AbandonQueued => {
                // Detach: each worker exits after its current job; a
                // wedged job must not block the drain deadline.
                self.workers.clear();
            }
        }
        dropped
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(queue: &Queue) {
    loop {
        let job = {
            let mut state = queue.jobs.lock();
            loop {
                if let Some(job) = state.pending.pop_front() {
                    break job;
                }
                if state.shutting_down {
                    return;
                }
                state = queue.cv.wait(state);
            }
        };
        // A panicking job must not kill the worker; the panic is contained
        // and the caller (holding a QueryTicket) observes a disconnect.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    #[test]
    fn runs_all_jobs_across_workers() {
        let mut pool = WorkerPool::new(4);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let done = Arc::clone(&done);
            assert!(pool.submit(move || {
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn shutdown_rejects_new_jobs_but_drains_queued_ones() {
        let mut pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        {
            let gate = Arc::clone(&gate);
            pool.submit(move || {
                let (lock, cv) = &*gate;
                let mut open = lock.lock();
                while !*open {
                    open = cv.wait(open);
                }
            });
        }
        // Queued behind the blocked job.
        let tx2 = tx.clone();
        pool.submit(move || tx2.send(2).unwrap());
        // Open the gate from another thread, then shut down.
        let opener = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                let (lock, cv) = &*gate;
                *lock.lock() = true;
                cv.notify_all();
            })
        };
        pool.shutdown();
        opener.join().unwrap();
        assert_eq!(rx.try_recv().unwrap(), 2, "queued job was dropped");
        assert!(!pool.submit(|| {}), "post-shutdown submit accepted");
    }

    #[test]
    fn abandon_queued_drops_jobs_but_fires_their_guards() {
        struct NotifyOnDrop(mpsc::Sender<&'static str>);
        impl Drop for NotifyOnDrop {
            fn drop(&mut self) {
                let _ = self.0.send("dropped");
            }
        }
        let mut pool = WorkerPool::new(1);
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let (started_tx, started_rx) = mpsc::channel();
        {
            let gate = Arc::clone(&gate);
            pool.submit(move || {
                started_tx.send(()).unwrap();
                let (lock, cv) = &*gate;
                let mut open = lock.lock();
                while !*open {
                    open = cv.wait(open);
                }
            });
        }
        // The worker is provably busy; this job can only sit in the queue.
        started_rx.recv().unwrap();
        let (tx, rx) = mpsc::channel();
        let guard = NotifyOnDrop(tx);
        pool.submit(move || {
            let _ = guard.0.send("ran");
        });
        let dropped = pool.shutdown_with(DrainPolicy::AbandonQueued);
        assert_eq!(dropped, 1);
        // The guard fired without the job running.
        assert_eq!(rx.recv().unwrap(), "dropped");
        // Unblock the detached worker so its thread exits cleanly.
        let (lock, cv) = &*gate;
        *lock.lock() = true;
        cv.notify_all();
        assert!(!pool.submit(|| {}), "post-abandon submit accepted");
    }

    #[test]
    fn panicking_job_does_not_kill_worker() {
        let mut pool = WorkerPool::new(1);
        pool.submit(|| panic!("job died"));
        let (tx, rx) = mpsc::channel();
        pool.submit(move || tx.send(42).unwrap());
        pool.shutdown();
        assert_eq!(rx.recv().unwrap(), 42);
    }
}
