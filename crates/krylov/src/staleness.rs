//! Staleness monitoring for drifting operators.
//!
//! A session solving a *sequence* of nearby systems with one fixed MCMC
//! preconditioner has exactly one cheap, already-measured signal of
//! preconditioner decay: the per-solve iteration count. A fresh
//! preconditioner holds the count near a baseline; as the operator drifts
//! away from the one the inverse was built for, the count creeps up long
//! before the solve outright fails. The [`StalenessMonitor`] watches that
//! creep — calibrating a baseline from the first few converged solves,
//! then classifying each subsequent solve as
//! [`StalenessVerdict::Fresh`], [`StalenessVerdict::Degrading`], or
//! [`StalenessVerdict::Stale`] — so refresh policies
//! (`mcmcmi_core::drift`) can act *before* the recovery ladder has to.
//!
//! Pure integer/fp bookkeeping on observed counts: no effect on the solves
//! themselves, bit-deterministic at any thread count.

use crate::solver::SolveResult;
use serde::{Deserialize, Serialize};

/// Converged solves averaged into the baseline before verdicts start
/// (everything during calibration reports `Fresh`).
const CALIBRATION_WINDOW: usize = 3;

/// `iterations / baseline` at which the verdict becomes
/// [`StalenessVerdict::Stale`]. A non-converged solve is `Stale` regardless
/// of ratio.
const STALE_RATIO: f64 = 3.0;

/// How stale the preconditioner looks after one observed solve.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum StalenessVerdict {
    /// Iteration count within the degrading threshold of the baseline (or
    /// still calibrating).
    Fresh,
    /// Iteration count has drifted past the monitor's degrading ratio but
    /// not yet three times the baseline: the preconditioner still works, a
    /// cheap partial refresh is warranted.
    Degrading {
        /// `iterations / baseline` of the observed solve.
        ratio: f64,
    },
    /// Iteration count at three times the baseline or more, or the solve
    /// failed outright: the preconditioner no longer matches the operator.
    Stale,
}

impl StalenessVerdict {
    /// Short stable label for logs and trail summaries.
    pub fn label(&self) -> &'static str {
        match self {
            StalenessVerdict::Fresh => "fresh",
            StalenessVerdict::Degrading { .. } => "degrading",
            StalenessVerdict::Stale => "stale",
        }
    }
}

/// Per-session iteration-drift monitor. Feed it every [`SolveResult`] in
/// arrival order; call [`StalenessMonitor::recalibrate`] after replacing
/// the preconditioner so the baseline re-learns from the refreshed state.
#[derive(Clone, Debug)]
pub struct StalenessMonitor {
    degrading_ratio: f64,
    baseline_sum: f64,
    baseline_count: usize,
}

impl StalenessMonitor {
    /// A monitor with no baseline yet (the first three converged solves
    /// calibrate) that reports [`StalenessVerdict::Degrading`] from
    /// `iterations / baseline ≥ degrading_ratio`.
    pub fn new(degrading_ratio: f64) -> Self {
        Self {
            degrading_ratio,
            baseline_sum: 0.0,
            baseline_count: 0,
        }
    }

    /// The calibrated baseline iteration count, once the window has filled
    /// (`None` while calibrating). Floored at one iteration so a session
    /// calibrated on instantly-converging warm starts still measures
    /// ratios sanely.
    pub fn baseline(&self) -> Option<f64> {
        (self.baseline_count >= CALIBRATION_WINDOW)
            .then(|| (self.baseline_sum / self.baseline_count as f64).max(1.0))
    }

    /// Observe one solve and classify the preconditioner's staleness.
    ///
    /// Failed solves are `Stale` outright and never pollute the baseline;
    /// converged solves during calibration accumulate into the baseline
    /// and report `Fresh`.
    pub fn observe(&mut self, result: &SolveResult) -> StalenessVerdict {
        if !result.converged {
            return StalenessVerdict::Stale;
        }
        match self.baseline() {
            None => {
                self.baseline_sum += result.iterations as f64;
                self.baseline_count += 1;
                StalenessVerdict::Fresh
            }
            Some(baseline) => {
                let ratio = result.iterations as f64 / baseline;
                if ratio >= STALE_RATIO {
                    StalenessVerdict::Stale
                } else if ratio >= self.degrading_ratio {
                    StalenessVerdict::Degrading { ratio }
                } else {
                    StalenessVerdict::Fresh
                }
            }
        }
    }

    /// Forget the baseline — call after a preconditioner refresh so the
    /// monitor re-learns what "fresh" costs against the new inverse.
    pub fn recalibrate(&mut self) {
        self.baseline_sum = 0.0;
        self.baseline_count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::{ConvergedWithin, SolveFailure, SolveOutcome};

    fn converged(iterations: usize) -> SolveResult {
        SolveResult {
            x: vec![],
            converged: true,
            iterations,
            rel_residual: 1e-9,
            initial_rel_residual: 1.0,
            outcome: SolveOutcome::Converged(ConvergedWithin::Tol),
        }
    }

    fn failed() -> SolveResult {
        SolveResult {
            converged: false,
            outcome: SolveOutcome::Failed(SolveFailure::BudgetExhausted),
            ..converged(5000)
        }
    }

    #[test]
    fn calibrates_then_classifies_by_ratio() {
        let mut m = StalenessMonitor::new(1.5);
        for _ in 0..3 {
            assert_eq!(m.observe(&converged(100)), StalenessVerdict::Fresh);
        }
        assert_eq!(m.baseline(), Some(100.0));
        assert_eq!(m.observe(&converged(120)), StalenessVerdict::Fresh);
        assert!(matches!(
            m.observe(&converged(180)),
            StalenessVerdict::Degrading { .. }
        ));
        assert_eq!(m.observe(&converged(300)), StalenessVerdict::Stale);
    }

    #[test]
    fn failure_is_stale_and_never_pollutes_the_baseline() {
        let mut m = StalenessMonitor::new(1.5);
        assert_eq!(m.observe(&failed()), StalenessVerdict::Stale);
        assert_eq!(m.baseline(), None);
        for _ in 0..3 {
            m.observe(&converged(10));
        }
        assert_eq!(m.baseline(), Some(10.0));
        assert_eq!(m.observe(&failed()), StalenessVerdict::Stale);
        assert_eq!(m.baseline(), Some(10.0));
    }

    #[test]
    fn recalibrate_relearns_the_baseline() {
        let mut m = StalenessMonitor::new(1.5);
        for _ in 0..3 {
            m.observe(&converged(100));
        }
        assert_eq!(m.observe(&converged(400)), StalenessVerdict::Stale);
        m.recalibrate();
        assert_eq!(m.baseline(), None);
        for _ in 0..3 {
            assert_eq!(m.observe(&converged(400)), StalenessVerdict::Fresh);
        }
        assert_eq!(m.observe(&converged(400)), StalenessVerdict::Fresh);
    }

    #[test]
    fn zero_iteration_calibration_floors_the_baseline() {
        let mut m = StalenessMonitor::new(1.5);
        for _ in 0..3 {
            m.observe(&converged(0));
        }
        assert_eq!(m.baseline(), Some(1.0));
        // 2 iterations against a floor-1 baseline: degrading, not a panic.
        assert!(matches!(
            m.observe(&converged(2)),
            StalenessVerdict::Degrading { .. }
        ));
    }
}
