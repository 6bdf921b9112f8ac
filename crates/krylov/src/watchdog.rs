//! Deterministic mid-solve convergence watchdog.
//!
//! Every driver loop already computes a residual norm each iteration (the
//! recursive residual in GMRES/FGMRES, the preconditioned residual norm in
//! CG/FCG/BiCGStab). The [`Watchdog`] observes exactly those
//! already-computed numbers — it never adds floating-point arithmetic to
//! the iteration itself — and trips a structured [`SolveFailure`] when the
//! solve is visibly going nowhere:
//!
//! - **non-finite sentinel** — a NaN/Inf residual norm aborts immediately
//!   instead of poisoning further iterations;
//! - **divergence** — the residual grew by more than
//!   [`WatchdogConfig::divergence_growth`] over the best seen so far;
//! - **stagnation** — a sliding window of
//!   [`WatchdogConfig::stall_window`] consecutive iterations without a
//!   relative improvement of [`WatchdogConfig::stall_improvement`].
//!
//! The monitor is pure bookkeeping on observed values, so it is
//! bit-deterministic at every thread count, and the defaults are
//! conservative enough that healthy solves never trip (the iteration
//! budget `max_iter` remains the outer backstop, classified as
//! [`SolveFailure::BudgetExhausted`]).

use crate::solver::SolveFailure;
use serde::{Deserialize, Serialize};

/// Configuration of the mid-solve [`Watchdog`], carried inside
/// [`crate::SolveOptions`].
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct WatchdogConfig {
    /// Consecutive iterations without meaningful progress before
    /// [`SolveFailure::Stagnated`] trips.
    pub stall_window: usize,
    /// Relative residual improvement that counts as progress: an observed
    /// norm below `best × (1 − stall_improvement)` resets the window.
    pub stall_improvement: f64,
    /// Growth factor over the best residual seen that trips
    /// [`SolveFailure::Diverged`].
    pub divergence_growth: f64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            stall_window: 400,
            stall_improvement: 1e-3,
            divergence_growth: 1e8,
        }
    }
}

/// Per-solve (per-column, in the batched drivers) watchdog state.
#[derive(Clone, Debug)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    best: f64,
    since_progress: usize,
}

impl Watchdog {
    /// Fresh monitor; `best` starts at +∞ so the first observation always
    /// counts as progress.
    pub fn new(cfg: WatchdogConfig) -> Self {
        Self {
            cfg,
            best: f64::INFINITY,
            since_progress: 0,
        }
    }

    /// Best residual norm observed so far (+∞ before the first
    /// observation).
    pub fn best(&self) -> f64 {
        self.best
    }

    /// Observe a residual norm the driver already computed. Returns the
    /// structured failure to abort with if the monitor tripped, `None`
    /// otherwise. Call *after* the driver's own convergence test so a
    /// converging iteration always wins.
    ///
    /// Every observation point doubles as a cooperative cancellation
    /// point: if the current thread has a [`crate::CancelToken`] registered
    /// ([`crate::with_cancel`]) and it is cancelled (flag or deadline),
    /// [`SolveFailure::Cancelled`] is returned before any monitor
    /// bookkeeping. Without a registered
    /// token the poll is a thread-local read; no floating-point work is
    /// added either way, so clean solves stay bit-identical.
    pub fn observe(&mut self, residual: f64) -> Option<SolveFailure> {
        if let Some(cancelled) = crate::cancel::poll() {
            return Some(cancelled);
        }
        if !residual.is_finite() {
            return Some(SolveFailure::NonFinite {
                what: "residual norm".to_string(),
            });
        }
        if self.best > 0.0
            && self.best.is_finite()
            && residual > self.cfg.divergence_growth * self.best
        {
            return Some(SolveFailure::Diverged {
                growth: residual / self.best,
            });
        }
        if residual < self.best * (1.0 - self.cfg.stall_improvement) {
            self.best = residual;
            self.since_progress = 0;
        } else {
            if residual < self.best {
                // Track the true best even when the step is too small to
                // count as progress — it is the divergence baseline and the
                // `best_residual` reported on stagnation.
                self.best = residual;
            }
            self.since_progress += 1;
            if self.since_progress >= self.cfg.stall_window {
                return Some(SolveFailure::Stagnated {
                    window: self.cfg.stall_window,
                    best_residual: self.best,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_residual_trips_immediately() {
        let mut wd = Watchdog::new(WatchdogConfig::default());
        assert!(matches!(
            wd.observe(f64::NAN),
            Some(SolveFailure::NonFinite { .. })
        ));
        let mut wd = Watchdog::new(WatchdogConfig::default());
        assert!(matches!(
            wd.observe(f64::INFINITY),
            Some(SolveFailure::NonFinite { .. })
        ));
    }

    #[test]
    fn steady_progress_never_trips() {
        let cfg = WatchdogConfig {
            stall_window: 5,
            stall_improvement: 0.01,
            ..WatchdogConfig::default()
        };
        let mut wd = Watchdog::new(cfg);
        let mut r = 1.0;
        for _ in 0..1000 {
            assert_eq!(wd.observe(r), None);
            r *= 0.9;
        }
    }

    #[test]
    fn flat_residual_trips_stagnation_after_window() {
        let cfg = WatchdogConfig {
            stall_window: 8,
            ..WatchdogConfig::default()
        };
        let mut wd = Watchdog::new(cfg);
        assert_eq!(wd.observe(1.0), None); // first observation = progress
        for _ in 0..7 {
            assert_eq!(wd.observe(1.0), None);
        }
        assert_eq!(
            wd.observe(1.0),
            Some(SolveFailure::Stagnated {
                window: 8,
                best_residual: 1.0
            })
        );
    }

    #[test]
    fn explosive_growth_trips_divergence() {
        let cfg = WatchdogConfig {
            divergence_growth: 100.0,
            ..WatchdogConfig::default()
        };
        let mut wd = Watchdog::new(cfg);
        assert_eq!(wd.observe(1.0), None);
        assert_eq!(wd.observe(99.0), None); // under the growth factor
        assert_eq!(
            wd.observe(150.0),
            Some(SolveFailure::Diverged { growth: 150.0 })
        );
    }

    #[test]
    fn sub_threshold_improvement_still_updates_best() {
        let cfg = WatchdogConfig {
            stall_window: 100,
            stall_improvement: 0.5,
            ..WatchdogConfig::default()
        };
        let mut wd = Watchdog::new(cfg);
        wd.observe(1.0);
        wd.observe(0.9); // not 50% better, but still the best seen
        assert_eq!(wd.best(), 0.9);
    }
}
