//! The mcmc side of the recovery ladder: a [`PrecondRebuild`] hook that
//! re-runs the safeguarded build with α backed off one more geometric step
//! each time the ladder asks.
//!
//! Rung 4 of `mcmcmi_krylov`'s [`RecoveryPolicy`] escalation is "rebuild
//! the preconditioner" — but the krylov crate cannot know *how* MCMC
//! builds work. [`SafeguardedRebuilder`] closes the loop: it owns the
//! matrix reference, the current [`McmcParams`], and a [`SafeguardConfig`],
//! and every [`PrecondRebuild::rebuild`] call advances α by the same
//! `max(α, floor) × growth` step PR-5's in-build backoff uses, then runs
//! [`McmcInverse::build_safeguarded`] from there. The full [`BuildAttempt`]
//! trail accumulates across calls, so a caller can see exactly which α
//! values were burned on recovery.
//!
//! [`RecoveryPolicy`]: mcmcmi_krylov::RecoveryPolicy

use crate::builder::{BuildOutcome, McmcInverse};
use crate::params::McmcParams;
use crate::safeguard::{BuildAttempt, BuildError, SafeguardConfig};
use mcmcmi_krylov::{PrecondRebuild, PrecondRefresh, Preconditioner, SolveFailure};
use mcmcmi_sparse::Csr;

/// A [`PrecondRebuild`] implementation backed by the safeguarded MCMC
/// build: each `rebuild` call backs α off one geometric step and rebuilds.
pub struct SafeguardedRebuilder<'a> {
    a: &'a Csr,
    builder: McmcInverse,
    params: McmcParams,
    guard: SafeguardConfig,
    symmetrize: bool,
    attempts: Vec<BuildAttempt>,
    rebuilds: usize,
    max_rebuilds: usize,
}

impl<'a> SafeguardedRebuilder<'a> {
    /// A rebuilder starting from the parameters the failed preconditioner
    /// was built with. `symmetrize` should be `true` when the consuming
    /// driver is the CG family (the MCMC inverse is generally
    /// nonsymmetric).
    pub fn new(
        a: &'a Csr,
        builder: McmcInverse,
        params: McmcParams,
        guard: SafeguardConfig,
        symmetrize: bool,
    ) -> Self {
        Self {
            a,
            builder,
            params,
            guard,
            symmetrize,
            attempts: Vec::new(),
            rebuilds: 0,
            max_rebuilds: 2,
        }
    }

    /// Cap on how many rebuilds this hook will serve (default 2); further
    /// `rebuild` calls return `None` so the ladder falls through to its
    /// unpreconditioned floor instead of burning build time forever.
    pub fn with_max_rebuilds(mut self, max_rebuilds: usize) -> Self {
        self.max_rebuilds = max_rebuilds;
        self
    }

    /// Every build attempt made across all rebuild calls, in order —
    /// the same [`BuildAttempt`] records PR-5's safeguard machinery emits.
    pub fn attempts(&self) -> &[BuildAttempt] {
        &self.attempts
    }

    /// The parameters the *next* rebuild would start from (α reflects the
    /// backoffs taken so far).
    pub fn params(&self) -> McmcParams {
        self.params
    }
}

/// A [`PrecondRefresh`] implementation backed by
/// [`McmcInverse::rebuild_rows`]: the stale-refresh rung of the recovery
/// ladder re-estimates only the rows drift dirtied, which is dramatically
/// cheaper than the full rebuild rung below it.
///
/// The refresher is **single-shot**: the dirty-row set describes one
/// concrete drift event, so serving a second refresh from the same set
/// would just repeat identical walks. After the first call (or when the
/// dirty set is empty) `refresh` returns `None` and the ladder escalates
/// to the rebuild rung.
pub struct PartialRefresher<'a> {
    a: &'a Csr,
    outcome: &'a mut BuildOutcome,
    dirty: Vec<usize>,
    builder: McmcInverse,
    params: McmcParams,
    symmetrize: bool,
    spent: bool,
}

impl<'a> PartialRefresher<'a> {
    /// A refresher that will rebuild `dirty` rows of `outcome` against the
    /// drifted operator `a` when the ladder asks. `symmetrize` mirrors
    /// [`SafeguardedRebuilder::new`]: set it when the consuming driver is
    /// the CG family.
    pub fn new(
        a: &'a Csr,
        outcome: &'a mut BuildOutcome,
        dirty: Vec<usize>,
        builder: McmcInverse,
        params: McmcParams,
        symmetrize: bool,
    ) -> Self {
        Self {
            a,
            outcome,
            dirty,
            builder,
            params,
            symmetrize,
            spent: false,
        }
    }

    /// Whether the single refresh this hook can serve has been consumed.
    pub fn spent(&self) -> bool {
        self.spent
    }
}

impl PrecondRefresh for PartialRefresher<'_> {
    fn refresh(&mut self, _trigger: &SolveFailure) -> Option<Box<dyn Preconditioner>> {
        if self.spent || self.dirty.is_empty() {
            return None;
        }
        self.spent = true;
        self.builder
            .rebuild_rows(self.outcome, self.a, &self.dirty, self.params);
        let precond = if self.symmetrize {
            self.outcome.precond.symmetrized()
        } else {
            self.outcome.precond.clone()
        };
        Some(Box::new(precond))
    }
}

impl PrecondRebuild for SafeguardedRebuilder<'_> {
    fn rebuild(&mut self, _trigger: &SolveFailure) -> Option<Box<dyn Preconditioner>> {
        if self.rebuilds >= self.max_rebuilds {
            return None;
        }
        self.rebuilds += 1;
        // One geometric backoff step before the safeguarded build — the
        // previous α already produced a preconditioner that failed a solve,
        // so retrying it unchanged would reproduce the same operator.
        self.params.alpha = self.params.alpha.max(self.guard.alpha_floor) * self.guard.alpha_growth;
        match self
            .builder
            .build_safeguarded(self.a, self.params, &self.guard)
        {
            Ok(guarded) => {
                self.attempts.extend_from_slice(&guarded.attempts);
                self.params = guarded.params;
                let precond = if self.symmetrize {
                    guarded.outcome.precond.symmetrized()
                } else {
                    guarded.outcome.precond
                };
                Some(Box::new(precond))
            }
            Err(BuildError::Divergent { attempts }) => {
                self.attempts.extend_from_slice(&attempts);
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::BuildConfig;
    use mcmcmi_krylov::{
        solve_resilient, RecoveryContext, RecoveryPolicy, RecoveryStepKind, SolverType,
    };

    #[test]
    fn rebuilder_backs_alpha_off_and_builds() {
        let a = mcmcmi_matgen::fd_laplace_2d(8);
        let params = McmcParams::new(0.5, 0.5, 0.25);
        let mut rb = SafeguardedRebuilder::new(
            &a,
            McmcInverse::new(BuildConfig::default()),
            params,
            SafeguardConfig::default(),
            false,
        );
        let p = rb
            .rebuild(&SolveFailure::BudgetExhausted)
            .expect("laplacian build must pass");
        assert_eq!(p.dim(), a.nrows());
        assert!(rb.params().alpha > 0.5, "α must have backed off upward");
        assert!(!rb.attempts().is_empty());
    }

    #[test]
    fn rebuild_cap_exhausts_to_none() {
        let a = mcmcmi_matgen::fd_laplace_2d(6);
        let mut rb = SafeguardedRebuilder::new(
            &a,
            McmcInverse::new(BuildConfig::default()),
            McmcParams::new(0.5, 0.5, 0.25),
            SafeguardConfig::default(),
            false,
        )
        .with_max_rebuilds(1);
        assert!(rb.rebuild(&SolveFailure::BudgetExhausted).is_some());
        assert!(rb.rebuild(&SolveFailure::BudgetExhausted).is_none());
    }

    #[test]
    fn ladder_stale_refresh_rung_uses_the_partial_refresher() {
        // Start from a preconditioner built for a *drifted-away* operator
        // and starve the base solve; the stale-refresh rung rebuilds only
        // the dirty rows and must recover before the full-rebuild rung.
        let a = mcmcmi_matgen::fd_laplace_2d(8);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).cos()).collect();
        let params = McmcParams::new(0.1, 0.125, 0.0625);
        let builder = McmcInverse::new(BuildConfig::default());
        let mut outcome = builder.build(&a, params);
        let dirty: Vec<usize> = (0..n).collect();
        let mut refresher =
            PartialRefresher::new(&a, &mut outcome, dirty, builder.clone(), params, true);
        let opts = mcmcmi_krylov::SolveOptions {
            max_iter: 2, // starve the base solve into BudgetExhausted
            ..Default::default()
        };
        let policy = RecoveryPolicy {
            full_precision_retry: false,
            flexible_swap: false,
            rebuild: false,
            ..Default::default()
        };
        let res = solve_resilient(
            &a,
            &b,
            &mcmcmi_krylov::IdentityPrecond::new(n),
            SolverType::Cg,
            opts,
            &policy,
            RecoveryContext {
                refresher: Some(&mut refresher),
                ..Default::default()
            },
        );
        assert!(res
            .trail
            .steps
            .iter()
            .any(|s| s.step == RecoveryStepKind::StaleRefresh));
        assert!(refresher.spent());
    }

    #[test]
    fn spent_refresher_returns_none() {
        let a = mcmcmi_matgen::fd_laplace_2d(6);
        let params = McmcParams::new(0.5, 0.25, 0.25);
        let builder = McmcInverse::new(BuildConfig::default());
        let mut outcome = builder.build(&a, params);
        let mut refresher =
            PartialRefresher::new(&a, &mut outcome, vec![0, 1], builder, params, false);
        assert!(refresher.refresh(&SolveFailure::BudgetExhausted).is_some());
        assert!(refresher.refresh(&SolveFailure::BudgetExhausted).is_none());
    }

    #[test]
    fn ladder_rebuild_rung_uses_the_mcmc_rebuilder() {
        // Identity "preconditioner" that lies about convergence never helps
        // CG on this operator within 3 iterations, so the ladder reaches the
        // rebuild rung; the rebuilt MCMC inverse (or the floor) recovers.
        let a = mcmcmi_matgen::fd_laplace_2d(8);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).sin()).collect();
        let mut rb = SafeguardedRebuilder::new(
            &a,
            McmcInverse::new(BuildConfig::default()),
            McmcParams::new(0.5, 0.25, 0.125),
            SafeguardConfig::default(),
            true,
        );
        let opts = mcmcmi_krylov::SolveOptions {
            max_iter: 3, // starve the base solve so it fails with BudgetExhausted
            ..Default::default()
        };
        let policy = RecoveryPolicy {
            flexible_swap: false,
            unpreconditioned_fallback: false,
            ..Default::default()
        };
        let res = solve_resilient(
            &a,
            &b,
            &mcmcmi_krylov::IdentityPrecond::new(n),
            SolverType::Cg,
            opts,
            &policy,
            RecoveryContext {
                rebuilder: Some(&mut rb),
                ..Default::default()
            },
        );
        assert!(!res.trail.is_clean());
        assert!(res
            .trail
            .steps
            .iter()
            .any(|s| s.step == RecoveryStepKind::Rebuild));
    }
}
