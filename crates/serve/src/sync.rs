//! Poison-tolerant locking for the daemon's shared state.
//!
//! Every mutex in this crate guards state that stays *valid* across a
//! panic: caches and maps are only mutated through small, non-panicking
//! critical sections (or, for the cache's byte accounting, are repaired on
//! recovery), so a poisoned lock carries no corruption worth dying for.
//! The old `.expect("... lock poisoned")` policy turned one confined
//! worker panic into a cascade — the panicking worker poisons a lock on
//! its way out, and every *healthy* worker that touches the same lock then
//! panics too, until the whole pool is gone and requests time out instead
//! of getting the structured `WorkerPanic` answer the fault-isolation
//! design promises. Recovering the guard keeps "one panic, one structured
//! answer, pool replaced" true even when the panic happened mid-lock.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Lock `m`, recovering the guard if a previous holder panicked.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wait on `cv`, recovering the re-acquired guard if another holder
/// panicked while we slept.
pub(crate) fn wait_unpoisoned<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cv.wait(guard).unwrap_or_else(PoisonError::into_inner)
}

/// [`Condvar::wait_timeout_while`], recovering the guard the same way as
/// [`wait_unpoisoned`];
/// the caller reads the state to tell a timeout from a wake-up.
pub(crate) fn wait_timeout_while_unpoisoned<'a, T>(
    cv: &Condvar,
    guard: MutexGuard<'a, T>,
    timeout: Duration,
    condition: impl FnMut(&mut T) -> bool,
) -> MutexGuard<'a, T> {
    cv.wait_timeout_while(guard, timeout, condition)
        .unwrap_or_else(PoisonError::into_inner)
        .0
}

/// Test helper: panic while holding `m`'s guard on a scoped thread,
/// leaving the mutex poisoned — the precondition every poisoned-lock
/// recovery test needs to manufacture.
#[cfg(test)]
pub(crate) fn poison_for_test<T: Send>(m: &Mutex<T>) {
    std::thread::scope(|scope| {
        let t = scope.spawn(|| {
            let _guard = m.lock().unwrap();
            panic!("poisoning the lock under test");
        });
        assert!(t.join().is_err());
    });
    assert!(m.is_poisoned());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_a_poisoned_guard() {
        let m = Mutex::new(7usize);
        poison_for_test(&m);
        *lock_unpoisoned(&m) += 1;
        assert_eq!(*lock_unpoisoned(&m), 8);
    }
}
