//! The workspace's one lock family: `std::sync` primitives behind
//! non-poisoning newtypes.
//!
//! A thread that panics while holding a std lock poisons it, and every
//! later `lock()` returns an error the caller must recover from by hand.
//! Every structure these locks guard is valid between any two statements
//! that touch it (counters, maps, queues — no multi-step invariants held
//! across a panic point), so recovery is always "take the guard anyway".
//! These wrappers do that once: `lock` / `read` / `write` / `wait` return
//! the guard directly, so no panic is reachable from a poisoned lock and
//! no call site spells the recovery.

use std::sync::{self, PoisonError, TryLockError, WaitTimeoutResult};
use std::time::Duration;

pub use std::sync::{MutexGuard, RwLockReadGuard, RwLockWriteGuard};

/// A mutex whose `lock` never fails.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Creates a mutex around `value`.
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, whether or not a previous holder panicked.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The guard if nobody holds the lock right now, `None` if someone
    /// does.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(poisoned)) => Some(poisoned.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }
}

/// A reader-writer lock whose `read` / `write` never fail.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Creates a lock around `value`.
    pub const fn new(value: T) -> Self {
        RwLock(sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read guard, whether or not a writer panicked.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires the exclusive write guard, whether or not a previous
    /// holder panicked.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A condition variable over [`Mutex`] guards whose waits never fail.
#[derive(Debug, Default)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    /// Creates a condition variable.
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    /// Releases `guard`, blocks until notified, and re-acquires it.
    /// Spurious wake-ups happen: callers loop on their condition.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// [`wait`](Self::wait) bounded by `timeout`; the second value says
    /// whether the bound elapsed.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        self.0
            .wait_timeout(guard, timeout)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn rwlock_read_write() {
        let l = RwLock::new(1);
        *l.write() += 1;
        assert_eq!(*l.read(), 2);
    }

    #[test]
    fn mutex_basic() {
        let m = Mutex::new(vec![1]);
        m.lock().push(2);
        {
            let held = m.lock();
            assert!(m.try_lock().is_none(), "contended");
            drop(held);
        }
        assert!(m.try_lock().is_some());
        assert_eq!(m.into_inner(), vec![1, 2]);
    }

    #[test]
    fn lock_survives_panicking_holder() {
        let l = Arc::new(RwLock::new(0));
        let l2 = l.clone();
        let _ = std::thread::spawn(move || {
            let _guard = l2.write();
            panic!("holder dies");
        })
        .join();
        assert_eq!(*l.read(), 0);

        // Condvar: a waiter wakes after its notifier's sibling panicked
        // holding the mutex. The channel forces the order — the waiter
        // holds the lock until it is parked in `wait`, so the sibling can
        // only poison the mutex while the waiter is asleep on it.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let (parked_tx, parked_rx) = std::sync::mpsc::channel();
        let waiter = {
            let gate = gate.clone();
            std::thread::spawn(move || {
                let (lock, cv) = &*gate;
                let mut open = lock.lock();
                parked_tx.send(()).ok();
                while !*open {
                    open = cv.wait(open);
                }
                *open
            })
        };
        parked_rx.recv().ok();
        let sibling = gate.clone();
        let _ = std::thread::spawn(move || {
            let _guard = sibling.0.lock();
            panic!("sibling dies holding the mutex");
        })
        .join();
        *gate.0.lock() = true;
        gate.1.notify_all();
        assert!(waiter.join().expect("the waiter itself never panics"));
    }

    #[test]
    fn wait_timeout_reports_the_elapsed_bound() {
        let (lock, cv) = (Mutex::new(()), Condvar::new());
        let mut guard = lock.lock();
        // Nobody notifies, so only a spurious wake-up can return early.
        loop {
            let (g, result) = cv.wait_timeout(guard, Duration::from_millis(1));
            guard = g;
            if result.timed_out() {
                break;
            }
        }
    }
}
