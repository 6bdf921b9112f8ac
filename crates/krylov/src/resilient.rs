//! The recovery ladder: automatic, deterministic escalation after a
//! failed solve.
//!
//! The MCMC preconditioner is stochastic by construction — a build can be
//! subtly bad, compression can destroy it, and the Krylov drivers can break
//! down or stagnate on it. Once a solve fails with a structured
//! [`SolveFailure`], the ladder escalates through deterministic rungs, each
//! strictly more conservative (and more expensive) than the last:
//!
//! 1. **Full-precision retry** — if the active preconditioner is a lossy
//!    compressed form ([`Preconditioner::is_compressed`]) and the caller
//!    supplied its full-precision parent, retry with the parent: compression
//!    artifacts are the cheapest failure to undo.
//! 2. **Flexible-driver swap** — rerun with the flexible variant of the
//!    same Krylov family (FCG/FGMRES), which tolerates an inexact or
//!    slightly nonsymmetric operator where the classical driver's theory
//!    quietly assumed exactness.
//! 3. **Unpreconditioned GMRES** — the always-available floor: no
//!    preconditioner to distrust, the most robust general-purpose driver.
//!
//! These are the repairs a solve can make with what it was handed: change
//! the precision, change the driver, drop the preconditioner. A *better*
//! preconditioner takes the operator, the build parameters and the per-row
//! walk statistics, and whoever owns those repairs it there
//! (`mcmcmi_core::DriftSession`); the ladder takes no hook to ask for one,
//! and a solve that only recovers at the floor says so in its trail.
//!
//! Every rung executed is appended to a [`RecoveryTrail`] — which rung, the
//! failure that triggered it, the driver used, and the iteration cost — so
//! callers (the serving daemon puts it on the wire) can log and alert on
//! degraded solves. A clean solve takes the exact same code path as
//! [`crate::solve`]/[`crate::solve_batch`] and returns an empty trail:
//! resilience costs nothing until something fails.

use crate::precond::{IdentityPrecond, Preconditioner};
use crate::solver::{
    only, solve_columns, SolveFailure, SolveOptions, SolveResult, SolverType, Workspaces,
};
use mcmcmi_sparse::KernelBackend;
use serde::{Deserialize, Serialize};

/// Which rungs of the ladder are allowed to run, in their fixed order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryPolicy {
    /// Rung 1: retry with the full-precision parent of a compressed
    /// preconditioner (needs [`RecoveryContext::full_precision`]).
    pub full_precision_retry: bool,
    /// Rung 2: swap to the flexible driver of the same Krylov family.
    pub flexible_swap: bool,
    /// Rung 3: final fallback to unpreconditioned GMRES.
    pub unpreconditioned_fallback: bool,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        Self {
            full_precision_retry: true,
            flexible_swap: true,
            unpreconditioned_fallback: true,
        }
    }
}

impl RecoveryPolicy {
    /// A policy with every rung disabled: `solve_resilient` degenerates to
    /// a plain solve that also reports its trail (always empty).
    pub fn disabled() -> Self {
        Self {
            full_precision_retry: false,
            flexible_swap: false,
            unpreconditioned_fallback: false,
        }
    }
}

/// Identifies a ladder rung in the trail.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecoveryStepKind {
    /// Rung 1: same driver, full-precision preconditioner.
    FullPrecisionRetry,
    /// Rung 2: flexible driver (FCG/FGMRES), current preconditioner.
    FlexibleSwap,
    /// Rung 3: unpreconditioned GMRES.
    UnpreconditionedFallback,
}

impl RecoveryStepKind {
    /// Short stable label for logs.
    pub fn label(self) -> &'static str {
        match self {
            RecoveryStepKind::FullPrecisionRetry => "full-precision-retry",
            RecoveryStepKind::FlexibleSwap => "flexible-swap",
            RecoveryStepKind::UnpreconditionedFallback => "unpreconditioned-fallback",
        }
    }
}

/// One executed rung of the ladder.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RecoveryStep {
    /// Which rung ran.
    pub step: RecoveryStepKind,
    /// The failure that triggered this escalation (the previous attempt's
    /// diagnosis).
    pub trigger: SolveFailure,
    /// Krylov driver used at this rung.
    pub solver: SolverType,
    /// Iteration cost of this rung (summed over columns for batched
    /// recovery).
    pub iterations: usize,
    /// Did this rung converge (all targeted columns, for batches)?
    pub recovered: bool,
}

/// The full escalation record returned alongside a resilient solve.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryTrail {
    /// Every rung executed, in ladder order. Empty for a clean solve.
    pub steps: Vec<RecoveryStep>,
    /// Final verdict: did the solve (every column, for batches) end
    /// converged?
    pub recovered: bool,
}

impl RecoveryTrail {
    /// `true` when no recovery rung had to run.
    pub fn is_clean(&self) -> bool {
        self.steps.is_empty()
    }

    /// One-line human summary, e.g.
    /// `"stagnated → flexible-swap(FGMRES, 213 it) ✓"`.
    pub fn summary(&self) -> String {
        if self.steps.is_empty() {
            return "clean".to_string();
        }
        let mut out = String::new();
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push_str("; ");
            }
            out.push_str(&format!(
                "{} → {}({}, {} it) {}",
                s.trigger.label(),
                s.step.label(),
                s.solver.name(),
                s.iterations,
                if s.recovered { "✓" } else { "✗" }
            ));
        }
        out
    }
}

/// A scalar resilient solve: the final (best) result plus its trail.
#[derive(Clone, Debug)]
pub struct ResilientResult {
    /// The converged result of the first successful rung, or the best
    /// attempt (smallest finite true residual) if every rung failed.
    pub result: SolveResult,
    /// What the ladder did to get there.
    pub trail: RecoveryTrail,
}

/// What the ladder may draw on besides the solve's own inputs; without it
/// the rung that needs it is skipped.
#[derive(Default)]
pub struct RecoveryContext<'a> {
    /// Full-precision parent of a compressed preconditioner, for rung 1.
    pub full_precision: Option<&'a dyn Preconditioner>,
}

impl RecoveryContext<'_> {
    /// A context with nothing in it (rung 1 is skipped).
    pub fn none() -> Self {
        Self::default()
    }
}

/// Is `candidate` a better terminal iterate than `best`? Converged beats
/// non-converged; otherwise the smaller finite true residual wins
/// (non-finite residuals lose to everything finite).
fn better(candidate: &SolveResult, best: &SolveResult) -> bool {
    if candidate.converged != best.converged {
        return candidate.converged;
    }
    match (
        candidate.rel_residual.is_finite(),
        best.rel_residual.is_finite(),
    ) {
        (true, true) => candidate.rel_residual < best.rel_residual,
        (true, false) => true,
        _ => false,
    }
}

/// The ladder, written once over columns. `results` are the plain solve's
/// per-column results; each rung that applies re-solves only the
/// still-failing columns as one sub-batch through the crate's dispatch (so
/// a lone failing column — every scalar resilient solve — runs the scalar
/// loop), keeps the better iterate per column, and leaves converged
/// siblings untouched: recovery never perturbs a healthy column. A clean
/// batch never gets past the first check. `ws` is the scratch the plain
/// solve ran on, so a rung that stays in the family (the flexible swap)
/// reuses the blocks already held.
#[allow(clippy::too_many_arguments)]
pub(crate) fn escalate<A: KernelBackend + ?Sized>(
    a: &A,
    rhs: &[Vec<f64>],
    precond: &dyn Preconditioner,
    solver: SolverType,
    opts: SolveOptions,
    policy: &RecoveryPolicy,
    ctx: RecoveryContext<'_>,
    mut results: Vec<SolveResult>,
    ws: &mut Workspaces,
) -> (Vec<SolveResult>, RecoveryTrail) {
    let mut trail = RecoveryTrail::default();
    // A cancelled column is out of deadline budget, not out of numerical
    // luck — every rung would burn post-deadline CPU on a result nobody is
    // waiting for. It keeps its best iterate and is never re-solved.
    let mut failing: Vec<usize> = (0..results.len())
        .filter(|&c| {
            !results[c].converged && !matches!(results[c].failure(), Some(SolveFailure::Cancelled))
        })
        .collect();
    // The trigger reported per rung is the first failing column's failure —
    // a deterministic representative of the batch's trouble.
    let diagnosis = |r: &SolveResult| {
        let failure = r.failure().cloned();
        failure.unwrap_or(SolveFailure::BudgetExhausted)
    };
    // (Unread when nothing is failing: no rung runs.)
    let first = failing.first();
    let mut trigger = first.map_or(SolveFailure::BudgetExhausted, |&c| diagnosis(&results[c]));
    let identity = IdentityPrecond::new(a.nrows());
    let mut active = precond;
    let mut active_solver = solver;

    for step in [
        RecoveryStepKind::FullPrecisionRetry,
        RecoveryStepKind::FlexibleSwap,
        RecoveryStepKind::UnpreconditionedFallback,
    ] {
        if failing.is_empty() {
            break;
        }
        // Arm the rung — its preconditioner and driver — or skip it.
        match step {
            RecoveryStepKind::FullPrecisionRetry => match ctx.full_precision {
                Some(full) if policy.full_precision_retry && precond.is_compressed() => {
                    active = full;
                }
                _ => continue,
            },
            RecoveryStepKind::FlexibleSwap => {
                if !policy.flexible_swap || active_solver.is_flexible() {
                    continue;
                }
                active_solver = active_solver.flexible();
            }
            // Nothing left to distrust: no preconditioner, the most robust
            // general-purpose driver.
            RecoveryStepKind::UnpreconditionedFallback => {
                if !policy.unpreconditioned_fallback {
                    continue;
                }
                active = &identity;
                active_solver = SolverType::Gmres;
            }
        }
        let sub_rhs: Vec<Vec<f64>> = failing.iter().map(|&c| rhs[c].clone()).collect();
        let sub = solve_columns(a, active, active_solver, opts, &sub_rhs, ws);
        let iterations = sub.iter().map(|r| r.iterations).sum();
        let mut still_failing = Vec::new();
        let mut next_trigger = None;
        for (&c, r) in failing.iter().zip(sub) {
            if !r.converged {
                next_trigger.get_or_insert_with(|| diagnosis(&r));
                still_failing.push(c);
            }
            if better(&r, &results[c]) {
                results[c] = r;
            }
        }
        trail.steps.push(RecoveryStep {
            step,
            trigger: trigger.clone(),
            solver: active_solver,
            iterations,
            recovered: still_failing.is_empty(),
        });
        failing = still_failing;
        if let Some(t) = next_trigger {
            trigger = t;
        }
    }
    trail.recovered = results.iter().all(|r| r.converged);
    (results, trail)
}

/// Solve with automatic recovery: [`solve_batch_resilient`] at width one.
///
/// # Panics
/// Panics if dimensions disagree.
pub fn solve_resilient<A: KernelBackend + ?Sized, P: Preconditioner>(
    a: &A,
    b: &[f64],
    precond: &P,
    solver: SolverType,
    opts: SolveOptions,
    policy: &RecoveryPolicy,
    ctx: RecoveryContext<'_>,
) -> ResilientResult {
    let (results, trail) =
        solve_batch_resilient(a, &[b.to_vec()], precond, solver, opts, policy, ctx);
    ResilientResult {
        result: only(results),
        trail,
    }
}

/// Solve with automatic recovery: run the plain [`crate::solve_batch`] first
/// (the clean path is bit-identical to it), and on a structured failure escalate
/// the failing columns through the [`RecoveryPolicy`] ladder. The returned
/// [`RecoveryTrail`] records every rung executed; it is empty exactly when
/// no column needed one.
///
/// # Panics
/// Panics if dimensions disagree.
pub fn solve_batch_resilient<A: KernelBackend + ?Sized, P: Preconditioner>(
    a: &A,
    rhs: &[Vec<f64>],
    precond: &P,
    solver: SolverType,
    opts: SolveOptions,
    policy: &RecoveryPolicy,
    ctx: RecoveryContext<'_>,
) -> (Vec<SolveResult>, RecoveryTrail) {
    let ws = &mut Workspaces::default();
    let base = solve_columns(a, precond, solver, opts, rhs, ws);
    escalate(a, rhs, precond, solver, opts, policy, ctx, base, ws)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::JacobiPrecond;
    use crate::solver::{solve, solve_batch};
    use mcmcmi_matgen::fd_laplace_2d;

    #[test]
    fn clean_solve_has_empty_trail_and_identical_bits() {
        let a = fd_laplace_2d(10);
        let b: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.17).sin()).collect();
        let jac = JacobiPrecond::new(&a);
        let opts = SolveOptions::default();
        let plain = solve(&a, &b, &jac, SolverType::Cg, opts);
        let res = solve_resilient(
            &a,
            &b,
            &jac,
            SolverType::Cg,
            opts,
            &RecoveryPolicy::default(),
            RecoveryContext::none(),
        );
        assert!(res.trail.is_clean() && res.trail.recovered);
        assert_eq!(res.result.x, plain.x);
        assert_eq!(res.result.iterations, plain.iterations);
        assert_eq!(res.result.rel_residual, plain.rel_residual);
        assert_eq!(res.trail.summary(), "clean");
    }

    #[test]
    fn disabled_policy_never_escalates() {
        // CG on a symmetric-indefinite operator breaks down; with every
        // rung off the ladder must return the failure untouched.
        let mut coo = mcmcmi_sparse::Coo::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        let a = coo.to_csr();
        let res = solve_resilient(
            &a,
            &[1.0, 0.0],
            &IdentityPrecond::new(2),
            SolverType::Cg,
            SolveOptions::default(),
            &RecoveryPolicy::disabled(),
            RecoveryContext::none(),
        );
        assert!(!res.result.converged);
        assert!(res.trail.is_clean() && !res.trail.recovered);
    }

    #[test]
    fn cg_breakdown_recovers_via_ladder() {
        // A = [[0,1],[1,0]] with b = e₀: pᵀAp = 0 on the very first CG
        // step (ZeroCurvature), but GMRES solves it trivially — the ladder
        // must walk flexible-swap (FCG also sees zero curvature) down to
        // the unpreconditioned-GMRES floor.
        let mut coo = mcmcmi_sparse::Coo::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        let a = coo.to_csr();
        let res = solve_resilient(
            &a,
            &[1.0, 0.0],
            &IdentityPrecond::new(2),
            SolverType::Cg,
            SolveOptions::default(),
            &RecoveryPolicy::default(),
            RecoveryContext::none(),
        );
        assert!(res.result.converged, "{:?}", res.result.outcome);
        assert!(res.trail.recovered);
        assert!(!res.trail.is_clean());
        let last = res.trail.steps.last().unwrap();
        assert_eq!(last.step, RecoveryStepKind::UnpreconditionedFallback);
        assert!(last.recovered);
        // x = A⁻¹ b = e₁.
        assert!((res.result.x[1] - 1.0).abs() < 1e-8);
    }

    #[test]
    fn batch_recovery_preserves_converged_siblings() {
        // Column 0 solves cleanly under CG; column 1 sits on the broken
        // 2×2 block of a block-diagonal operator and needs the ladder.
        let mut coo = mcmcmi_sparse::Coo::new(4, 4);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 3.0);
        coo.push(2, 3, 1.0);
        coo.push(3, 2, 1.0);
        let a = coo.to_csr();
        let rhs = vec![vec![2.0, 3.0, 0.0, 0.0], vec![0.0, 0.0, 1.0, 0.0]];
        let (results, trail) = solve_batch_resilient(
            &a,
            &rhs,
            &IdentityPrecond::new(4),
            SolverType::Cg,
            SolveOptions::default(),
            &RecoveryPolicy::default(),
            RecoveryContext::none(),
        );
        assert!(trail.recovered, "{}", trail.summary());
        assert!(!trail.is_clean());
        assert!(results.iter().all(|r| r.converged));
        // The healthy column's solution is the plain-solve solution.
        let plain = solve_batch(
            &a,
            &rhs,
            &IdentityPrecond::new(4),
            SolverType::Cg,
            SolveOptions::default(),
        );
        assert_eq!(results[0].x, plain[0].x);
        assert_eq!(results[0].iterations, plain[0].iterations);
        // The recovered column actually solves its system: x[3] = 1.
        assert!((results[1].x[3] - 1.0).abs() < 1e-8);
    }
}
