//! Drift-tolerant serving: the escalating refresh ladder.
//!
//! A deployed session rarely solves one fixed system; it solves a *drifting
//! sequence* — time-stepped coefficients, re-linearised Jacobians, locally
//! refined meshes. Rebuilding the MCMC preconditioner every step wastes the
//! build's amortisation; never rebuilding lets iteration counts creep until
//! solves fail. [`DriftSession`] sits between those extremes with an
//! escalating ladder, decided per step from the
//! [`StalenessMonitor`]'s verdict and the accumulated dirty-row set:
//!
//! 1. **Keep applying** — the verdict is `Fresh`: the old inverse still
//!    preconditions well, do nothing.
//! 2. **Partial row rebuild** — `Degrading`, and few enough rows have
//!    drifted: re-estimate only the dirty rows
//!    ([`McmcInverse::rebuild_rows`]), a cost proportional to the drift,
//!    not the operator.
//! 3. **Safeguarded full rebuild** — `Stale`, the solve failed, or too much
//!    of the operator is dirty for a partial refresh to be honest. When
//!    nothing changed since the inverse in hand was built, α first moves
//!    one safeguard back-off step: the same seed on the same inputs would
//!    only return the same inverse.
//! 4. **Full retune** — repeated full rebuilds mean the operator has walked
//!    out of the parameter regime it was tuned for; re-run the
//!    [`AutoTuner`] and rebuild from the winning `(α, ε, δ)`.
//!
//! Every decision is recorded in a serialisable [`RefreshTrail`], the
//! drift-side sibling of the recovery ladder's `RecoveryTrail`: after a
//! 100-step sequence you can read back exactly which steps rebuilt what
//! and why.

use crate::autotune::{AutoTuner, AutotuneConfig};
use mcmcmi_krylov::{
    SolveOptions, SolveResult, SolveSession, SolverType, SparsePrecond, StalenessMonitor,
    StalenessVerdict, TuneBudget,
};
use mcmcmi_mcmc::{
    BuildConfig, BuildError, BuildOutcome, McmcInverse, McmcParams, SafeguardConfig,
};
use mcmcmi_sparse::Csr;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Full rebuilds tolerated since the last (re)tune before the ladder
/// escalates to a full [`AutoTuner`] retune.
const RETUNE_AFTER_FULL_REBUILDS: usize = 3;

/// Thresholds governing the refresh ladder.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RefreshPolicy {
    /// `iterations / baseline` at which the [`StalenessMonitor`] reports
    /// [`StalenessVerdict::Degrading`].
    pub degrading_ratio: f64,
    /// Largest fraction of rows a *partial* rebuild may cover; past it a
    /// full rebuild is cheaper and honest (the splice would redo most of
    /// the walk work anyway, and clean-row entries grow stale against the
    /// re-derived splitting).
    pub max_partial_fraction: f64,
}

impl Default for RefreshPolicy {
    fn default() -> Self {
        Self {
            degrading_ratio: 1.5,
            max_partial_fraction: 0.3,
        }
    }
}

/// Which refresh rung a drift step executed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RefreshAction {
    /// Verdict `Fresh`: the preconditioner was left alone.
    KeepApplying,
    /// Dirty rows re-estimated and spliced into the preconditioner.
    PartialRebuild,
    /// Safeguarded full rebuild at the current parameters.
    FullRebuild,
    /// Autotuner re-run; rebuilt at the winning parameters.
    Retune,
}

impl RefreshAction {
    /// Short stable label for logs and summaries.
    pub fn label(&self) -> &'static str {
        match self {
            RefreshAction::KeepApplying => "keep",
            RefreshAction::PartialRebuild => "partial-rebuild",
            RefreshAction::FullRebuild => "full-rebuild",
            RefreshAction::Retune => "retune",
        }
    }
}

/// One drift step's decision record.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RefreshStep {
    /// Zero-based drift step index.
    pub step: usize,
    /// Rows this step's operator diff dirtied.
    pub dirty_new: usize,
    /// Accumulated dirty rows at decision time (since the last refresh).
    pub dirty_pending: usize,
    /// The staleness verdict the decision was made from.
    pub verdict: StalenessVerdict,
    /// The rung executed.
    pub action: RefreshAction,
    /// Rows actually re-estimated (partial rebuilds only; full rebuilds
    /// and retunes re-estimate everything).
    pub rows_rebuilt: usize,
    /// Iterations of the step's *first* solve (the one the verdict judged).
    pub iterations: usize,
    /// Iterations of the re-solve after an in-step rescue rebuild (only
    /// set when the first solve failed).
    pub resolve_iterations: Option<usize>,
    /// Warm-start quality of the step's first solve.
    pub initial_rel_residual: f64,
    /// Did the step end with a converged solution?
    pub converged: bool,
}

/// The whole sequence's decision trail — serialisable, like the recovery
/// ladder's `RecoveryTrail`.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RefreshTrail {
    /// One record per drift step, in order.
    pub steps: Vec<RefreshStep>,
}

impl RefreshTrail {
    /// One-line human summary, e.g.
    /// `"100 steps: 82 keep, 14 partial-rebuild, 3 full-rebuild, 1 retune"`.
    pub fn summary(&self) -> String {
        let count = |a: RefreshAction| self.steps.iter().filter(|s| s.action == a).count();
        format!(
            "{} steps: {} keep, {} partial-rebuild, {} full-rebuild, {} retune",
            self.steps.len(),
            count(RefreshAction::KeepApplying),
            count(RefreshAction::PartialRebuild),
            count(RefreshAction::FullRebuild),
            count(RefreshAction::Retune),
        )
    }

    /// Total refresh work: rows re-estimated across partial rebuilds plus
    /// `n` per full rebuild/retune.
    pub fn rows_rebuilt_total(&self, n: usize) -> usize {
        self.steps
            .iter()
            .map(|s| match s.action {
                RefreshAction::KeepApplying => 0,
                RefreshAction::PartialRebuild => s.rows_rebuilt,
                RefreshAction::FullRebuild | RefreshAction::Retune => n,
            })
            .sum()
    }
}

/// A solve session for a drifting operator sequence: warm starts from the
/// previous step's solution, staleness-monitored solves, and the
/// escalating refresh ladder described in the module docs.
pub struct DriftSession {
    outcome: BuildOutcome,
    session: SolveSession<SparsePrecond>,
    monitor: StalenessMonitor,
    policy: RefreshPolicy,
    build: BuildConfig,
    guard: SafeguardConfig,
    params: McmcParams,
    solver: SolverType,
    pending_dirty: BTreeSet<usize>,
    full_rebuilds_since_tune: usize,
    prev_x: Option<Vec<f64>>,
    trail: RefreshTrail,
}

impl DriftSession {
    /// Build the initial preconditioner for `a` — behind the safeguard, like
    /// every later rebuild — and bind the session to the form of it
    /// `solver` wants ([`SparsePrecond::for_solver`]); the build as made is
    /// kept for partial rebuilds.
    ///
    /// # Errors
    /// The safeguard's [`BuildError`] when no α within its back-off budget
    /// gives a contractive splitting.
    pub fn new(
        a: Csr,
        params: McmcParams,
        build: BuildConfig,
        guard: SafeguardConfig,
        solver: SolverType,
        opts: SolveOptions,
        policy: RefreshPolicy,
    ) -> Result<Self, BuildError> {
        let guarded = McmcInverse::new(build).build_safeguarded(&a, params, &guard)?;
        let precond = guarded.outcome.precond.for_solver(solver).into_owned();
        let session = SolveSession::new(a, precond, solver, opts);
        Ok(Self {
            outcome: guarded.outcome,
            session,
            monitor: StalenessMonitor::new(policy.degrading_ratio),
            policy,
            build,
            guard,
            params: guarded.params,
            solver,
            pending_dirty: BTreeSet::new(),
            full_rebuilds_since_tune: 0,
            prev_x: None,
            trail: RefreshTrail::default(),
        })
    }

    /// The decision trail so far.
    pub fn trail(&self) -> &RefreshTrail {
        &self.trail
    }

    /// The parameters of the inverse in hand (α reflects the safeguard's
    /// back-off and the step a rebuild of unchanged inputs takes; a retune
    /// replaces all three).
    pub fn params(&self) -> McmcParams {
        self.params
    }

    /// Dirty rows accumulated since the last refresh.
    #[cfg(test)]
    fn pending_dirty(&self) -> usize {
        self.pending_dirty.len()
    }

    /// Push the preconditioner, in the solver's form, into the session.
    fn sync_precond(&mut self) {
        let precond = self.outcome.precond.for_solver(self.solver);
        self.session.replace_precond(precond.into_owned());
        self.monitor.recalibrate();
        self.pending_dirty.clear();
    }

    /// Safeguarded full rebuild at `params` (the current ones, or a
    /// retune's). A build the safeguard rejects leaves the previous inverse,
    /// its parameters and the pending dirty rows in place — the session
    /// keeps serving on what it has — and still counts toward a retune.
    fn full_rebuild(&mut self, mut params: McmcParams) {
        // Nothing dirty and the parameters of the inverse in hand: the same
        // seed on the same inputs would return that inverse bit for bit.
        // Take one of the safeguard's back-off steps first.
        if self.pending_dirty.is_empty() && params == self.params {
            params.alpha = SafeguardConfig::next_alpha(params.alpha);
        }
        self.full_rebuilds_since_tune += 1;
        let built = McmcInverse::new(self.build).build_safeguarded(
            self.session.matrix(),
            params,
            &self.guard,
        );
        if let Ok(guarded) = built {
            self.params = guarded.params;
            self.outcome = guarded.outcome;
            self.sync_precond();
        }
    }

    /// Autotuner retune: joint search from scratch on the current operator,
    /// then a safeguarded rebuild at the winning parameters — at the current
    /// ones when the tuner cannot certify any candidate.
    fn retune(&mut self) {
        let mut tuner = AutoTuner::new(AutotuneConfig {
            solver: self.solver,
            build: self.build,
            safeguard: self.guard,
        });
        let budget = TuneBudget {
            probe_opts: self.session.opts(),
            ..Default::default()
        };
        let tuned = tuner.tune_parts(self.session.matrix(), &budget);
        self.full_rebuild(tuned.map_or(self.params, |(_, report)| report.params));
        self.full_rebuilds_since_tune = 0;
    }

    /// Partial refresh: re-estimate exactly the pending dirty rows.
    fn partial_rebuild(&mut self) -> usize {
        let rows: Vec<usize> = self.pending_dirty.iter().copied().collect();
        McmcInverse::new(self.build).rebuild_rows(
            &mut self.outcome,
            self.session.matrix(),
            &rows,
            self.params,
        );
        self.sync_precond();
        rows.len()
    }

    /// Advance one drift step: diff the incoming operator against the
    /// current one, swap it under the session, solve warm-started from the
    /// previous step's solution, classify staleness, and run the refresh
    /// ladder. A failed solve triggers an in-step rescue (full rebuild —
    /// or retune when the rebuild budget is spent — plus one re-solve), so
    /// the returned result is the step's best effort.
    ///
    /// # Panics
    /// Panics if `a_new` changes dimension (a dimension change is a new
    /// operator sequence, not drift) or `b` has the wrong length.
    pub fn step(&mut self, a_new: Csr, b: &[f64]) -> SolveResult {
        let step_idx = self.trail.steps.len();
        let dirty_new = self.session.matrix().diff_rows(&a_new);
        self.pending_dirty.extend(dirty_new.iter().copied());
        self.session.replace_matrix(a_new);

        let first = self.session.solve_warm(b, self.prev_x.as_deref());
        let first_iters = first.iterations;
        let verdict = self.monitor.observe(&first);
        let n = self.session.matrix().nrows();
        let dirty_pending = self.pending_dirty.len();
        let partial_ok = dirty_pending > 0
            && (dirty_pending as f64) <= self.policy.max_partial_fraction * n as f64;
        let retune_due = self.full_rebuilds_since_tune >= RETUNE_AFTER_FULL_REBUILDS;

        let (action, rows_rebuilt, result, resolve_iterations) = if !first.converged {
            // Rescue: refresh *now* and re-solve the same system.
            let (action, rows) = if retune_due {
                self.retune();
                (RefreshAction::Retune, n)
            } else {
                self.full_rebuild(self.params);
                (RefreshAction::FullRebuild, n)
            };
            let second = self.session.solve_warm(b, self.prev_x.as_deref());
            let it = second.iterations;
            (action, rows, second, Some(it))
        } else {
            match verdict {
                StalenessVerdict::Fresh => (RefreshAction::KeepApplying, 0, first, None),
                StalenessVerdict::Degrading { .. } if partial_ok => {
                    // The solve already met its contract; the refresh pays
                    // off on the *next* step.
                    let rows = self.partial_rebuild();
                    (RefreshAction::PartialRebuild, rows, first, None)
                }
                StalenessVerdict::Degrading { .. } | StalenessVerdict::Stale => {
                    if retune_due {
                        self.retune();
                        (RefreshAction::Retune, n, first, None)
                    } else {
                        self.full_rebuild(self.params);
                        (RefreshAction::FullRebuild, n, first, None)
                    }
                }
            }
        };

        if result.converged {
            self.prev_x = Some(result.x.clone());
        } else {
            // Do not warm-start the next step from a non-converged vector.
            self.prev_x = None;
        }
        self.trail.steps.push(RefreshStep {
            step: step_idx,
            dirty_new: dirty_new.len(),
            dirty_pending,
            verdict,
            action,
            rows_rebuilt,
            iterations: first_iters,
            resolve_iterations,
            initial_rel_residual: result.initial_rel_residual,
            converged: result.converged,
        });
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmcmi_matgen::fd_laplace_2d;

    fn rhs(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.17).sin() + 0.5).collect()
    }

    fn drift_some_rows(a: &Csr, rows: &[usize], scale: f64) -> Csr {
        let mut b = a.clone();
        for &i in rows {
            for v in b.row_values_mut(i) {
                *v *= scale;
            }
        }
        b
    }

    fn session_for(a: &Csr) -> DriftSession {
        session_capped(a, SolveOptions::default().max_iter)
    }

    fn session_capped(a: &Csr, max_iter: usize) -> DriftSession {
        let opts = SolveOptions {
            max_iter,
            ..Default::default()
        };
        DriftSession::new(
            a.clone(),
            McmcParams::new(0.1, 0.0625, 0.0625),
            BuildConfig::default(),
            SafeguardConfig::default(),
            SolverType::Gmres,
            opts,
            RefreshPolicy::default(),
        )
        .expect("laplacian builds")
    }

    #[test]
    fn identical_steps_stay_fresh_and_keep_applying() {
        let a = fd_laplace_2d(10);
        let b = rhs(a.nrows());
        let mut sess = session_for(&a);
        for _ in 0..5 {
            let res = sess.step(a.clone(), &b);
            assert!(res.converged);
        }
        assert!(sess
            .trail()
            .steps
            .iter()
            .all(|s| s.action == RefreshAction::KeepApplying));
        // After the first step the previous solution is the exact answer:
        // zero-iteration warm-started steps.
        assert_eq!(sess.trail().steps.last().unwrap().iterations, 0);
    }

    #[test]
    fn mild_drift_accumulates_dirty_rows() {
        let a = fd_laplace_2d(10);
        let n = a.nrows();
        let b = rhs(n);
        let mut sess = session_for(&a);
        let _ = sess.step(a.clone(), &b);
        let a2 = drift_some_rows(&a, &[3, 4, 5], 1.0 + 1e-6);
        let _ = sess.step(a2, &b);
        let s = &sess.trail().steps[1];
        assert_eq!(s.dirty_new, 3);
        assert!(sess.pending_dirty() >= 3);
    }

    #[test]
    fn failed_solve_triggers_in_step_rescue() {
        let a = fd_laplace_2d(12);
        let n = a.nrows();
        let b = rhs(n);
        let mut sess = session_capped(&a, 40);
        let _ = sess.step(a.clone(), &b);
        // A violent drift the stale inverse cannot handle in 40 iterations.
        let rows: Vec<usize> = (0..n).collect();
        let a2 = drift_some_rows(&a, &rows, 6.0);
        let res = sess.step(a2, &b);
        let s = sess.trail().steps.last().unwrap();
        if s.resolve_iterations.is_some() {
            assert!(matches!(
                s.action,
                RefreshAction::FullRebuild | RefreshAction::Retune
            ));
            assert!(res.converged, "rescue rebuild must recover this operator");
        }
    }

    #[test]
    fn first_build_goes_through_the_safeguard() {
        // The non-dominant ring of `safeguard.rs`'s tests: divergent at a
        // tiny α, and one attempt is not enough to back off out of it.
        let mut coo = mcmcmi_sparse::Coo::new(32, 32);
        for i in 0..32 {
            coo.push(i, i, 1.0);
            coo.push(i, (i + 1) % 32, 2.5);
            coo.push(i, (i + 5) % 32, -2.5);
        }
        let guard = SafeguardConfig {
            max_attempts: 1,
            ..Default::default()
        };
        let refused = DriftSession::new(
            coo.to_csr(),
            McmcParams::new(0.001, 0.125, 1e-3),
            BuildConfig::default(),
            guard,
            SolverType::Gmres,
            SolveOptions::default(),
            RefreshPolicy::default(),
        );
        assert!(matches!(refused, Err(BuildError::Divergent { .. })));
    }

    #[test]
    fn a_rescue_on_unchanged_inputs_moves_alpha_one_step_and_the_inverse() {
        let a = fd_laplace_2d(12);
        let b = rhs(a.nrows());
        let mut sess = session_capped(&a, 3);
        // Nothing dirty, same parameters, same seed: rebuilding as is would
        // return the inverse that just failed, and the same residual again.
        let first = sess.session.solve(&b);
        let rescued = sess.step(a.clone(), &b);
        assert_eq!(sess.trail().steps[0].action, RefreshAction::FullRebuild);
        assert_eq!(sess.params().alpha, 0.2, "one max(α, floor) · growth step");
        assert_ne!(rescued.rel_residual, first.rel_residual);

        // Dirty rows pending: the inputs changed, α is left alone.
        let rescued = sess.step(drift_some_rows(&a, &[3, 4, 5], 1.5), &b);
        assert!(!rescued.converged);
        assert_eq!(sess.trail().steps[1].action, RefreshAction::FullRebuild);
        assert_eq!(sess.params().alpha, 0.2);
        // New parameters (what a retune hands over): α is the caller's.
        sess.full_rebuild(McmcParams::new(0.3, 0.0625, 0.0625));
        assert_eq!(sess.params().alpha, 0.3);
    }

    #[test]
    fn trail_serialises_and_summarises() {
        let a = fd_laplace_2d(8);
        let b = rhs(a.nrows());
        let mut sess = session_for(&a);
        for _ in 0..3 {
            let _ = sess.step(a.clone(), &b);
        }
        let json = serde_json::to_string(sess.trail()).unwrap();
        let back: RefreshTrail = serde_json::from_str(&json).unwrap();
        assert_eq!(back.steps.len(), 3);
        assert!(sess.trail().summary().contains("3 steps"));
        assert_eq!(sess.trail().rows_rebuilt_total(a.nrows()), 0);
    }
}
