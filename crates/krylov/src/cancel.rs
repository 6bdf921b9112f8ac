//! Cooperative mid-solve cancellation: deadlines and external stop
//! requests, polled by the drivers at the watchdog observation point.
//!
//! The serving daemon needs a solve that has outlived its request deadline
//! to *stop occupying a worker* — but the Krylov drivers are synchronous
//! loops. The [`CancelToken`] closes that gap cooperatively: the caller
//! registers a token for the current thread with [`with_cancel`], and every
//! driver polls it exactly where it already hands the residual to the PR-7
//! [`crate::Watchdog`] (scalar drivers each iteration, GMRES/FGMRES also at
//! every restart, batched drivers once per lockstep round). The poll is a
//! thread-local read plus an atomic load — zero floating-point work — so a
//! solve that is never cancelled is bit-identical to one run without any
//! token, and a cancelled solve stops at a deterministic point in the
//! iteration stream with its best iterate and true residual reported like
//! any other structured failure ([`SolveFailure::Cancelled`]).
//!
//! Cancellation is *not* a numerical failure: the recovery ladder
//! explicitly refuses to escalate a cancelled solve (retrying on spent
//! deadline budget is exactly the overload behaviour the serving layer
//! exists to prevent).

use crate::solver::SolveFailure;
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A cloneable cancellation handle: an explicit flag (set from any thread
/// via [`CancelToken::cancel`]) plus an optional wall-clock deadline.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token with no deadline; cancels only on [`CancelToken::cancel`].
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that additionally reports cancelled once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> Self {
        Self {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// Request cancellation. Takes effect at the solve's next poll point;
    /// safe to call from any thread (the serving daemon's drain path calls
    /// this on every in-flight worker).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Relaxed);
    }

    /// Has the flag been set or the deadline passed?
    fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Relaxed) {
            return true;
        }
        match self.deadline {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }

    /// The deadline, if one was set.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

thread_local! {
    /// The token the current thread's in-flight solve polls, if any.
    static ACTIVE: RefCell<Option<CancelToken>> = const { RefCell::new(None) };
}

/// Run `f` with `token` registered as the current thread's cancellation
/// token; every driver invoked inside polls it at its watchdog observation
/// points. Nests correctly (the previous token is restored on exit, even on
/// panic) so a recovery rung launched under a token stays cancellable.
pub fn with_cancel<R>(token: &CancelToken, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<CancelToken>);
    impl Drop for Restore {
        fn drop(&mut self) {
            ACTIVE.with(|a| *a.borrow_mut() = self.0.take());
        }
    }
    let prev = ACTIVE.with(|a| a.borrow_mut().replace(token.clone()));
    let _restore = Restore(prev);
    f()
}

/// The token the current thread's solve polls, if any — for a solve that
/// hands its columns to other threads, which register it again there.
pub(crate) fn current() -> Option<CancelToken> {
    ACTIVE.with(|a| a.borrow().clone())
}

/// Driver-side poll: the structured failure to abort with if the current
/// thread's token (if any) is cancelled. Called from
/// [`crate::Watchdog::observe`] so every observation point in the six
/// drivers is a cancellation point without touching their arithmetic.
pub(crate) fn poll() -> Option<SolveFailure> {
    ACTIVE.with(|a| {
        let b = a.borrow();
        match b.as_ref() {
            Some(tok) if tok.is_cancelled() => Some(SolveFailure::Cancelled),
            _ => None,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn no_token_never_cancels() {
        assert_eq!(poll(), None);
    }

    #[test]
    fn flag_cancels_inside_scope_only() {
        let tok = CancelToken::new();
        tok.cancel();
        assert_eq!(poll(), None, "token not registered yet");
        with_cancel(&tok, || {
            assert_eq!(poll(), Some(SolveFailure::Cancelled));
        });
        assert_eq!(poll(), None, "token deregistered on scope exit");
    }

    #[test]
    fn deadline_in_the_past_cancels() {
        let tok = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        with_cancel(&tok, || {
            assert_eq!(poll(), Some(SolveFailure::Cancelled));
        });
    }

    #[test]
    fn far_deadline_does_not_cancel() {
        let tok = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        with_cancel(&tok, || {
            assert_eq!(poll(), None);
        });
    }

    #[test]
    fn nesting_restores_the_outer_token() {
        let outer = CancelToken::new();
        let inner = CancelToken::new();
        inner.cancel();
        with_cancel(&outer, || {
            assert_eq!(poll(), None);
            with_cancel(&inner, || {
                assert_eq!(poll(), Some(SolveFailure::Cancelled));
            });
            assert_eq!(poll(), None);
        });
    }

    #[test]
    fn cancel_is_visible_across_threads() {
        let tok = CancelToken::new();
        let remote = tok.clone();
        std::thread::spawn(move || remote.cancel()).join().unwrap();
        assert!(tok.is_cancelled());
    }
}
