//! Deterministic mid-solve convergence watchdog.
//!
//! Every driver loop already computes a residual norm each iteration (the
//! recursive residual in GMRES/FGMRES, the preconditioned residual norm in
//! CG/FCG/BiCGStab). The [`Watchdog`] observes exactly those
//! already-computed numbers — it never adds floating-point arithmetic to
//! the iteration itself — and trips a structured [`SolveFailure`] when the
//! solve is visibly going nowhere. Four rules, checked in this order:
//!
//! - **non-finite sentinel** — a NaN/Inf residual norm aborts immediately
//!   instead of poisoning further iterations;
//! - **divergence** — the residual grew by more than
//!   [`WatchdogConfig::divergence_growth`] over the best seen so far;
//! - **stagnation** — a sliding window of
//!   [`WatchdogConfig::stall_window`] consecutive iterations without a
//!   relative improvement of [`WatchdogConfig::stall_improvement`];
//! - **reach** (opt-in, [`WatchdogConfig::reach_window`]) — at a window
//!   boundary, the best residual's decay over the last window, kept up
//!   for the iterations the cap has left, would still end above the
//!   driver's own stopping threshold times [`CONVERGENCE_SLACK`], the
//!   level the result wrap still accepts ([`SolveFailure::OutOfReach`]).
//!
//! A cancelled [`crate::CancelToken`] wins over all four. The monitor is
//! pure bookkeeping on observed values, so it is bit-deterministic at
//! every thread count, and the defaults are conservative enough that
//! healthy solves never trip (the iteration budget `max_iter` remains the
//! outer backstop, classified as [`SolveFailure::BudgetExhausted`]).

use crate::solver::{SolveFailure, CONVERGENCE_SLACK};
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
    /// Observations between the reach rule's checkpoints; 0 (the default)
    /// turns the rule off. The first observation is the reference. At
    /// each checkpoint, with `reach = target ×` [`CONVERGENCE_SLACK`] and
    /// `q = best now / best at the last checkpoint`, the rule trips
    /// [`SolveFailure::OutOfReach`] when `best > reach` and either `q ≥ 1`
    /// or `best · q^((max_iter − seen) / reach_window) > reach`, `seen`
    /// counting observations since the reference. The tuner's ranking
    /// probe sets it to its restart length.
    #[serde(default)]
    pub reach_window: usize,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        Self {
            stall_window: 400,
            stall_improvement: 1e-3,
            divergence_growth: 1e8,
            reach_window: 0,
        }
    }
}

/// Per-solve (per-column, in the batched drivers) watchdog state.
#[derive(Clone, Debug)]
pub struct Watchdog {
    cfg: WatchdogConfig,
    best: f64,
    since_progress: usize,
    /// The driver's absolute stopping threshold (`tol × stop_norm`).
    target: f64,
    max_iter: usize,
    /// Observations since the first one (the reach rule's clock).
    seen: usize,
    /// `best` at the reach rule's last checkpoint.
    mark: f64,
}

impl Watchdog {
    /// Fresh monitor for a solve that stops once its residual norm is at
    /// most `target` or it has run `max_iter` iterations (the reach rule
    /// reads both; the other rules ignore them). `best` starts at +∞ so the
    /// first observation always counts as progress.
    pub fn new(cfg: WatchdogConfig, target: f64, max_iter: usize) -> Self {
        Self {
            cfg,
            best: f64::INFINITY,
            since_progress: 0,
            target,
            max_iter,
            seen: 0,
            mark: f64::INFINITY,
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
        if self.cfg.reach_window > 0 {
            return self.reach();
        }
        None
    }

    /// The reach rule's step, after `best` has taken in the observation.
    fn reach(&mut self) -> Option<SolveFailure> {
        let window = self.cfg.reach_window;
        // A solve that ends within the slack of its threshold still
        // converges, so that is the level the projection must miss.
        let reach = self.target * CONVERGENCE_SLACK;
        if self.seen == 0 {
            self.mark = self.best;
        } else if self.seen.is_multiple_of(window) {
            let rate = self.best / self.mark;
            let windows_left = self.max_iter.saturating_sub(self.seen) as f64 / window as f64;
            if self.best > reach && (rate >= 1.0 || self.best * rate.powf(windows_left) > reach) {
                return Some(SolveFailure::OutOfReach { window, rate });
            }
            self.mark = self.best;
        }
        self.seen += 1;
        None
    }
}
