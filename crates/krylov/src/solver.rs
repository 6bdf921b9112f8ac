//! Common solver options, results, the failure taxonomy, and the
//! type-dispatched entry point.

use crate::bicgstab::{bicgstab_batch, bicgstab_with, BiCgStabBlockWorkspace, BiCgStabWorkspace};
use crate::cg::{cg_batch, cg_with, BetaRule, CgBlockWorkspace, CgWorkspace};
use crate::gmres::{gmres_batch, gmres_with, GmresBlockWorkspace, GmresWorkspace, Side};
use crate::precond::Preconditioner;
use crate::watchdog::WatchdogConfig;
use mcmcmi_sparse::{par_pays_off, KernelBackend};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The Krylov method to use — the categorical component of the paper's
/// MCMC parameter vector `x_M`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SolverType {
    /// Restarted GMRES (default for general nonsymmetric systems).
    Gmres,
    /// BiCGStab.
    BiCgStab,
    /// Conjugate gradients (SPD systems only).
    Cg,
    /// Flexible restarted GMRES (right-preconditioned; tolerates inexact
    /// preconditioners — the compressed/f32 MCMC apply path).
    Fgmres,
    /// Flexible CG (Polak–Ribière β; tolerates inexact or slightly
    /// nonsymmetric preconditioners on SPD systems).
    FCg,
}

impl SolverType {
    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            SolverType::Gmres => "GMRES",
            SolverType::BiCgStab => "BiCGStab",
            SolverType::Cg => "CG",
            SolverType::Fgmres => "FGMRES",
            SolverType::FCg => "FCG",
        }
    }

    /// One-hot encoding (3 components) for the surrogate's `x_M` input.
    /// The flexible variants share their base method's slot — to the
    /// surrogate they are the same Krylov family, differing only in how
    /// they absorb preconditioner inexactness.
    pub fn one_hot(self) -> [f64; 3] {
        match self {
            SolverType::Gmres | SolverType::Fgmres => [1.0, 0.0, 0.0],
            SolverType::BiCgStab => [0.0, 1.0, 0.0],
            SolverType::Cg | SolverType::FCg => [0.0, 0.0, 1.0],
        }
    }

    /// Does this driver tolerate an inexact (compressed, reduced-precision,
    /// or nonsymmetric) preconditioner without voiding its convergence
    /// theory?
    pub fn is_flexible(self) -> bool {
        matches!(self, SolverType::Fgmres | SolverType::FCg)
    }

    /// The flexible driver of the same Krylov family (identity for the
    /// already-flexible variants; BiCGStab has no flexible form here and
    /// maps to FGMRES, the general-purpose fallback).
    pub fn flexible(self) -> SolverType {
        match self {
            SolverType::Gmres | SolverType::Fgmres | SolverType::BiCgStab => SolverType::Fgmres,
            SolverType::Cg | SolverType::FCg => SolverType::FCg,
        }
    }
}

/// Options shared by all solvers.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SolveOptions {
    /// Relative residual tolerance ‖b − Ax‖₂ / ‖b‖₂.
    pub tol: f64,
    /// Iteration cap (total inner iterations for restarted GMRES).
    pub max_iter: usize,
    /// GMRES restart length (ignored by CG/BiCGStab).
    pub restart: usize,
    /// Mid-solve stagnation/divergence/non-finite monitor (see
    /// [`crate::watchdog::Watchdog`]). It is always on; the defaults are
    /// conservative enough that healthy solves never trip, and leave the
    /// opt-in reach rule off.
    pub watchdog: WatchdogConfig,
}

impl Default for SolveOptions {
    fn default() -> Self {
        Self {
            tol: 1e-8,
            max_iter: 5000,
            restart: 50,
            watchdog: WatchdogConfig::default(),
        }
    }
}

/// Slack factor on the convergence wrap: a solve whose *true* final
/// residual lands within `tol × CONVERGENCE_SLACK` still counts as
/// converged (the recursive/preconditioned residual the driver monitors can
/// lag the true residual slightly). [`ConvergedWithin`] records which side
/// of `tol` the result actually landed on, so callers that need the strict
/// contract can check.
pub const CONVERGENCE_SLACK: f64 = 10.0;

/// Which convergence contract the final *true* residual satisfied.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConvergedWithin {
    /// `rel_residual ≤ tol`: the strict contract.
    Tol,
    /// `rel_residual ≤ tol ×` [`CONVERGENCE_SLACK`] (or a driver-preset
    /// convergence, e.g. the zero-`Pb` early exit): close enough for the
    /// default contract, but strict-tolerance callers should escalate.
    Slack,
}

/// What kind of algebraic breakdown stopped a driver: which quantity in the
/// short recurrence (or the restarted least-squares solve) degenerated.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BreakdownKind {
    /// CG/FCG: `pᵀAp ≈ 0` — the search direction has (numerically) zero
    /// curvature; the operator is not SPD on the Krylov subspace.
    ZeroCurvature,
    /// BiCGStab: `ρ = ⟨r̂₀, r⟩ ≈ 0` — the shadow residual became orthogonal
    /// to the residual (Lanczos breakdown).
    RhoZero,
    /// BiCGStab: `⟨r̂₀, A·p̂⟩ ≈ 0` — the α denominator vanished.
    RhatVZero,
    /// BiCGStab: `⟨t, t⟩ ≈ 0` or `ω ≈ 0` — the stabilisation step
    /// degenerated.
    OmegaZero,
    /// GMRES/FGMRES: a zero pivot in the back-substitution of the
    /// least-squares triangle — the Hessenberg system is singular.
    SingularHessenberg,
}

/// Structured reason a solve failed — the taxonomy every driver (scalar and
/// batched) reports through [`SolveOutcome`] instead of a bare flag.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SolveFailure {
    /// A short-recurrence quantity degenerated mid-iteration.
    Breakdown {
        /// Which quantity broke down.
        kind: BreakdownKind,
        /// Iteration at which the driver stopped.
        iteration: usize,
    },
    /// The watchdog saw no meaningful residual progress for a full window.
    Stagnated {
        /// Length of the no-progress window that tripped.
        window: usize,
        /// Best residual norm seen before the monitor gave up.
        best_residual: f64,
    },
    /// The watchdog's reach rule: at a checkpoint, the residual was
    /// falling too slowly to get within [`CONVERGENCE_SLACK`] of the
    /// stopping threshold by the iteration cap (see
    /// [`WatchdogConfig::reach_window`]).
    OutOfReach {
        /// Observations between checkpoints.
        window: usize,
        /// Best residual now over best residual at the last checkpoint.
        rate: f64,
    },
    /// The residual grew explosively relative to the best seen so far.
    Diverged {
        /// `residual / best_residual` at the moment the monitor tripped.
        growth: f64,
    },
    /// A NaN/Inf surfaced (in a recurrence scalar, a residual norm, or the
    /// final true-residual measurement).
    NonFinite {
        /// Which quantity went non-finite.
        what: String,
    },
    /// The iteration budget (`max_iter`) ran out without convergence and
    /// without any sharper diagnosis.
    BudgetExhausted,
    /// The solve was stopped cooperatively — its [`crate::CancelToken`]
    /// was cancelled or its deadline passed ([`crate::with_cancel`]). Not a
    /// numerical failure: the best iterate so far is returned with its true
    /// residual, and the recovery ladder never escalates it.
    Cancelled,
}

impl SolveFailure {
    /// Short stable label for logs and trail summaries.
    pub fn label(&self) -> &'static str {
        match self {
            SolveFailure::Breakdown { .. } => "breakdown",
            SolveFailure::Stagnated { .. } => "stagnated",
            SolveFailure::OutOfReach { .. } => "out-of-reach",
            SolveFailure::Diverged { .. } => "diverged",
            SolveFailure::NonFinite { .. } => "non-finite",
            SolveFailure::BudgetExhausted => "budget-exhausted",
            SolveFailure::Cancelled => "cancelled",
        }
    }
}

/// Structured outcome of a solve: converged (and how tightly), or failed
/// (and why).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum SolveOutcome {
    /// The solve converged; the payload records the strict/slack contract.
    Converged(ConvergedWithin),
    /// The solve failed; the payload is the structured diagnosis.
    Failed(SolveFailure),
}

/// Outcome of a solve.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SolveResult {
    /// Solution vector (best iterate on non-convergence).
    pub x: Vec<f64>,
    /// Whether the tolerance was reached within the iteration cap.
    pub converged: bool,
    /// Iterations spent — the paper's "number of steps".
    pub iterations: usize,
    /// Final true relative residual ‖b − Ax‖/‖b‖.
    pub rel_residual: f64,
    /// Relative residual of the *initial* iterate, ‖b − Ax₀‖/‖b‖: 1.0 for
    /// the cold x₀ = 0 start (0.0 for a zero rhs), the measured warm-start
    /// quality for [`crate::solve_warm`]. Observable so drift pipelines can
    /// tell how much of the convergence the previous solution bought.
    pub initial_rel_residual: f64,
    /// The structured outcome: converged-within-which-contract, or the
    /// failure taxonomy variant that stopped the solve.
    pub outcome: SolveOutcome,
}

impl SolveResult {
    /// The structured failure, if the solve did not converge.
    pub fn failure(&self) -> Option<&SolveFailure> {
        match &self.outcome {
            SolveOutcome::Failed(f) => Some(f),
            SolveOutcome::Converged(_) => None,
        }
    }
}

/// How a lockstep column left its driver — determines how the batched
/// finalize mirrors the scalar solver's exit paths.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ColEnd {
    /// Normal completion: measure the true residual, then
    /// `converged := no failure && rel ≤ tol × CONVERGENCE_SLACK` (the wrap
    /// every scalar solver applies after `finalize`).
    Wrapped,
    /// Early return that still measures the true residual but keeps its
    /// preset `converged` flag (the BiCGStab/GMRES zero-`Pb` path).
    Preset { converged: bool },
    /// Early return that skips residual measurement entirely and reports
    /// `rel_residual = 0` (the CG zero-rhs path).
    Skip { converged: bool },
}

/// Per-column outcome a lockstep driver hands to [`finalize_columns`].
#[derive(Clone, Debug)]
pub(crate) struct ColOutcome {
    pub iterations: usize,
    pub failure: Option<SolveFailure>,
    pub end: ColEnd,
}

/// Shared classification: turn a measured true relative residual plus the
/// driver's structured failure (if any) into a [`SolveResult`]. This is the
/// single place the `converged` flag and the
/// [`SolveOutcome`]/[`ConvergedWithin`] fields are derived, for scalar and
/// batched drivers alike — flag logic and finiteness checks, no
/// floating-point arithmetic, so clean solves stay bit-identical.
pub(crate) fn classify(
    x: Vec<f64>,
    iterations: usize,
    rel: f64,
    mut failure: Option<SolveFailure>,
    tol: f64,
    end: ColEnd,
    initial_rel: f64,
) -> SolveResult {
    if failure.is_none() {
        // The last line of defence against a wrong `Converged`: the norms
        // propagate NaN, so a poisoned iterate normally shows in `rel`; the
        // scan of `x` covers entries the residual cannot see (an empty
        // column of `A`).
        let what = if !rel.is_finite() {
            Some("true residual")
        } else if x.iter().any(|v| !v.is_finite()) {
            Some("solution")
        } else {
            None
        };
        failure = what.map(|what| SolveFailure::NonFinite {
            what: what.to_string(),
        });
    }
    let converged = match end {
        ColEnd::Wrapped => failure.is_none() && rel.is_finite() && rel <= tol * CONVERGENCE_SLACK,
        ColEnd::Preset { converged } | ColEnd::Skip { converged } => converged && rel.is_finite(),
    };
    let outcome = if converged {
        SolveOutcome::Converged(if rel <= tol {
            ConvergedWithin::Tol
        } else {
            ConvergedWithin::Slack
        })
    } else {
        SolveOutcome::Failed(failure.unwrap_or(SolveFailure::BudgetExhausted))
    };
    SolveResult {
        x,
        converged,
        iterations,
        rel_residual: rel,
        initial_rel_residual: initial_rel,
        outcome,
    }
}

/// Measure the true relative residual of `x` (one SpMV into caller-owned
/// scratch, so workspace-backed solvers stay allocation-free) and classify
/// via [`classify`]. Every scalar driver exits through this.
pub(crate) fn wrap_scalar<A: KernelBackend + ?Sized>(
    a: &A,
    b: &[f64],
    x: Vec<f64>,
    iterations: usize,
    failure: Option<SolveFailure>,
    tol: f64,
    end: ColEnd,
    scratch: &mut Vec<f64>,
) -> SolveResult {
    scratch.resize(b.len(), 0.0);
    a.spmv(&x, scratch);
    for (ri, &bi) in scratch.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    let bn = mcmcmi_dense::norm2(b);
    let rel = if bn > 0.0 {
        mcmcmi_dense::norm2(scratch) / bn
    } else {
        mcmcmi_dense::norm2(scratch)
    };
    // Every driver starts from x₀ = 0, so the initial relative residual is
    // the constant ‖b − 0‖/‖b‖ = 1 (0 for a zero rhs) — no floating point
    // added to the clean path. Warm starts overwrite this after the fact.
    let initial_rel = if bn > 0.0 { 1.0 } else { 0.0 };
    classify(x, iterations, rel, failure, tol, end, initial_rel)
}

/// Batched counterpart of [`wrap_scalar`]: recompute the true residuals of
/// all `k` columns with a single SpMM traversal, replicating the scalar
/// finalize arithmetic per column bit-for-bit, and unpack the solution
/// block into per-column [`SolveResult`]s.
pub(crate) fn finalize_columns<A: KernelBackend + ?Sized>(
    a: &A,
    bb: &[f64],
    xb: &[f64],
    k: usize,
    tol: f64,
    outcomes: &[ColOutcome],
    scratch: &mut Vec<f64>,
) -> Vec<SolveResult> {
    let n = a.nrows();
    debug_assert_eq!(outcomes.len(), k);
    scratch.resize(n * k, 0.0);
    a.spmm(xb, k, scratch);
    let mut results = Vec::with_capacity(k);
    for (c, o) in outcomes.iter().enumerate() {
        let mut x = vec![0.0; n];
        mcmcmi_dense::gather_col(xb, k, c, &mut x);
        if let ColEnd::Skip { .. } = o.end {
            results.push(classify(
                x,
                o.iterations,
                0.0,
                o.failure.clone(),
                tol,
                o.end,
                0.0,
            ));
            continue;
        }
        // r[:,c] = b[:,c] − (A·X)[:,c], elementwise in row order — the same
        // operation sequence as the scalar finalize.
        for (ri, bi) in scratch[c..]
            .iter_mut()
            .step_by(k)
            .zip(bb[c..].iter().step_by(k))
        {
            *ri = bi - *ri;
        }
        let bn = mcmcmi_dense::norm2_col(bb, k, c);
        let rn = mcmcmi_dense::norm2_col(scratch, k, c);
        let rel = if bn > 0.0 { rn / bn } else { rn };
        let initial_rel = if bn > 0.0 { 1.0 } else { 0.0 };
        results.push(classify(
            x,
            o.iterations,
            rel,
            o.failure.clone(),
            tol,
            o.end,
            initial_rel,
        ));
    }
    results
}

/// One loop family's reusable scratch: the scalar loop's vectors, and one
/// set of `n×k` blocks per batch width the lockstep loop has seen.
#[derive(Clone, Debug, Default)]
pub(crate) struct DriverScratch<S, B> {
    pub(crate) scalar: S,
    pub(crate) lockstep: BTreeMap<usize, B>,
}

impl<S, B: Default> DriverScratch<S, B> {
    fn block(&mut self, k: usize) -> &mut B {
        self.lockstep.entry(k).or_default()
    }
}

/// Scratch for every loop family, empty until one first runs (a flexible
/// driver shares its classical form's, so a session that swaps between the
/// two keeps the blocks it holds) — what a
/// [`crate::SolveSession`] keeps between solves so that repeated solves
/// allocate only their solutions. A batch split across the pool keeps one
/// set per column group in `groups`, group `g` always in slot `g`. The
/// per-width maps are never evicted: a serving process that sees many
/// distinct batch widths should normalise requests to a few fixed widths
/// (padding with zero columns is cheap — they retire in round one).
#[derive(Clone, Debug, Default)]
pub(crate) struct Workspaces {
    pub(crate) cg: DriverScratch<CgWorkspace, CgBlockWorkspace>,
    bicgstab: DriverScratch<BiCgStabWorkspace, BiCgStabBlockWorkspace>,
    pub(crate) gmres: DriverScratch<GmresWorkspace, GmresBlockWorkspace>,
    pub(crate) groups: Vec<Workspaces>,
}

/// A driver as its loop family sees it: the family, and the one parameter
/// that tells the classical form from the flexible one.
enum Family {
    Cg(BetaRule),
    Gmres(Side),
    BiCgStab,
}

impl SolverType {
    fn family(self) -> Family {
        match self {
            SolverType::Cg => Family::Cg(BetaRule::FletcherReeves),
            SolverType::FCg => Family::Cg(BetaRule::PolakRibiere),
            SolverType::Gmres => Family::Gmres(Side::Left),
            SolverType::Fgmres => Family::Gmres(Side::Right),
            SolverType::BiCgStab => Family::BiCgStab,
        }
    }
}

/// Narrowest batch the lockstep loops run. Below it each column runs the
/// scalar loop: at one column the lockstep form costs 1.5–3.2× the scalar
/// one (strided single-column blocks, per-column masks), from two columns
/// up it shares every matrix traversal. Both loops produce the same bits
/// per column, so this constant moves time and not results.
const LOCKSTEP_MIN_WIDTH: usize = 2;

/// The one place a batch is laid out on the pool and a Krylov loop is
/// chosen: solve `A·x_c = b_c` for every column with `solver`. Every solve
/// entry point of the crate — plain, warm-started, resilient, free function
/// or session method — ends here.
///
/// One threshold decides how a batch uses the pool, [`par_pays_off`] on the
/// `nnz(A)·k` multiply-adds of its width-`k` product
/// ([`mcmcmi_sparse::DEFAULT_PAR_THRESHOLD`]). When that pays, every product
/// is split by rows inside the [`KernelBackend`]. When it does not and there
/// are two or more columns, the batch is split by columns instead:
/// `min(k, threads)` contiguous groups, each solved on its own worker whose
/// pool is pinned to one thread, the results concatenated in column order.
/// A batch whose operators declare order-dependent results
/// ([`KernelBackend::order_dependent`], [`Preconditioner::order_dependent`])
/// is never split. Each group (or the unsplit batch) then runs the scalar
/// loop when it is narrower than [`LOCKSTEP_MIN_WIDTH`] and the lockstep
/// loop otherwise. Both loops give every column the bits of its scalar
/// solve, so neither choice moves a result.
///
/// # Panics
/// Panics if dimensions disagree.
pub(crate) fn solve_columns<A: KernelBackend + ?Sized, P: Preconditioner + ?Sized>(
    a: &A,
    precond: &P,
    solver: SolverType,
    opts: SolveOptions,
    columns: &[Vec<f64>],
    ws: &mut Workspaces,
) -> Vec<SolveResult> {
    assert_eq!(a.nrows(), a.ncols(), "solve: matrix must be square");
    assert_eq!(
        a.nrows(),
        precond.dim(),
        "solve: preconditioner dimension mismatch"
    );
    for b in columns {
        assert_eq!(a.nrows(), b.len(), "solve: rhs dimension mismatch");
    }
    let k = columns.len();
    let threads = rayon::current_num_threads();
    let split = k >= 2
        && threads > 1
        && !par_pays_off(a.nnz().saturating_mul(k))
        && !a.order_dependent()
        && !precond.order_dependent();
    // Each group's products run on a one-thread pool, so they never fork.
    let one = split
        .then(|| rayon::ThreadPoolBuilder::new().num_threads(1).build().ok())
        .flatten();
    let Some(one) = one else {
        return solve_width(a, precond, solver, opts, columns, ws);
    };
    let groups = k.min(threads);
    if ws.groups.len() < groups {
        ws.groups.resize_with(groups, Workspaces::default);
    }
    let mut tasks = Vec::with_capacity(groups);
    let mut rest = columns;
    for (g, group_ws) in ws.groups.iter_mut().take(groups).enumerate() {
        let (head, tail) = rest.split_at(k / groups + usize::from(g < k % groups));
        tasks.push((head, group_ws));
        rest = tail;
    }
    let cancel = crate::cancel::current();
    let parts: Vec<Vec<SolveResult>> = tasks
        .into_par_iter()
        .map(|(group, group_ws)| {
            let mut run = || solve_width(a, precond, solver, opts, group, group_ws);
            one.install(|| match &cancel {
                Some(token) => crate::cancel::with_cancel(token, run),
                None => run(),
            })
        })
        .collect();
    parts.into_iter().flatten().collect()
}

/// The width rule on one set of columns: the scalar loop per column below
/// [`LOCKSTEP_MIN_WIDTH`], one lockstep loop over all of them otherwise.
fn solve_width<A: KernelBackend + ?Sized, P: Preconditioner + ?Sized>(
    a: &A,
    precond: &P,
    solver: SolverType,
    opts: SolveOptions,
    columns: &[Vec<f64>],
    ws: &mut Workspaces,
) -> Vec<SolveResult> {
    let k = columns.len();
    let family = solver.family();
    if k < LOCKSTEP_MIN_WIDTH {
        return columns
            .iter()
            .map(|b| match family {
                Family::Cg(rule) => cg_with(a, b, precond, opts, rule, &mut ws.cg.scalar),
                Family::Gmres(side) => gmres_with(a, b, precond, opts, side, &mut ws.gmres.scalar),
                Family::BiCgStab => bicgstab_with(a, b, precond, opts, &mut ws.bicgstab.scalar),
            })
            .collect();
    }
    match family {
        Family::Cg(rule) => cg_batch(a, columns, precond, opts, rule, ws.cg.block(k)),
        Family::Gmres(side) => gmres_batch(a, columns, precond, opts, side, ws.gmres.block(k)),
        Family::BiCgStab => bicgstab_batch(a, columns, precond, opts, ws.bicgstab.block(k)),
    }
}

/// The single result of a one-column call.
pub(crate) fn only<T>(mut one: Vec<T>) -> T {
    one.pop().expect("one column in, one result out")
}

/// Solve `Ax = b` with the chosen method and left preconditioner. `a` is
/// any [`KernelBackend`] — a bare [`mcmcmi_sparse::Csr`] (generic kernels)
/// or a [`mcmcmi_sparse::SpecializedBackend`] (structure-dispatched
/// kernels, bit-identical results). [`solve_batch`] at width one (it copies
/// `b` to make that one column).
///
/// # Panics
/// Panics if dimensions disagree.
pub fn solve<A: KernelBackend + ?Sized, P: Preconditioner + ?Sized>(
    a: &A,
    b: &[f64],
    precond: &P,
    solver: SolverType,
    opts: SolveOptions,
) -> SolveResult {
    only(solve_batch(a, &[b.to_vec()], precond, solver, opts))
}

/// Solve `A·x_c = b_c` for every right-hand side in `rhs`. Two or more
/// columns run one lockstep batched sweep: the Krylov matrix traversals and
/// preconditioner applications are shared across all columns (SpMM / block
/// apply), while each column runs exactly the scalar algorithm's arithmetic
/// and converges independently (per-column masking). A single column runs
/// the scalar loop itself. A batch too small to split its products by rows
/// is split by columns across the pool first, each group running that same
/// rule on its own thread. Either way the results are bit-identical to
/// calling [`solve`] once per rhs, at any thread count.
///
/// One-shot convenience over [`crate::SolveSession`], which additionally
/// reuses the workspaces across repeated solves.
///
/// # Panics
/// Panics if dimensions disagree.
pub fn solve_batch<A: KernelBackend + ?Sized, P: Preconditioner + ?Sized>(
    a: &A,
    rhs: &[Vec<f64>],
    precond: &P,
    solver: SolverType,
    opts: SolveOptions,
) -> Vec<SolveResult> {
    solve_columns(a, precond, solver, opts, rhs, &mut Workspaces::default())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_hot_is_a_partition() {
        let mut sum = [0.0; 3];
        for s in [SolverType::Gmres, SolverType::BiCgStab, SolverType::Cg] {
            let h = s.one_hot();
            assert_eq!(h.iter().sum::<f64>(), 1.0);
            for (acc, v) in sum.iter_mut().zip(h) {
                *acc += v;
            }
        }
        assert_eq!(sum, [1.0, 1.0, 1.0]);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(SolverType::Gmres.name(), "GMRES");
        assert_eq!(SolverType::BiCgStab.name(), "BiCGStab");
        assert_eq!(SolverType::Cg.name(), "CG");
        assert_eq!(SolverType::Fgmres.name(), "FGMRES");
        assert_eq!(SolverType::FCg.name(), "FCG");
    }

    #[test]
    fn flexible_variants_share_their_family_encoding() {
        assert_eq!(SolverType::Fgmres.one_hot(), SolverType::Gmres.one_hot());
        assert_eq!(SolverType::FCg.one_hot(), SolverType::Cg.one_hot());
        assert!(SolverType::Fgmres.is_flexible() && SolverType::FCg.is_flexible());
        for base in [SolverType::Gmres, SolverType::BiCgStab, SolverType::Cg] {
            assert!(!base.is_flexible());
            assert!(base.flexible().is_flexible());
        }
        assert_eq!(SolverType::Cg.flexible(), SolverType::FCg);
        assert_eq!(SolverType::Gmres.flexible(), SolverType::Fgmres);
    }

    #[test]
    fn default_options_match_documented_values() {
        let o = SolveOptions::default();
        assert_eq!(o.tol, 1e-8);
        assert_eq!(o.max_iter, 5000);
        assert_eq!(o.restart, 50);
    }

    #[test]
    fn classify_separates_tol_from_slack() {
        let tol = 1e-8;
        // Strictly within tol.
        let r = classify(vec![0.0], 3, 5e-9, None, tol, ColEnd::Wrapped, 1.0);
        assert!(r.converged);
        assert_eq!(r.outcome, SolveOutcome::Converged(ConvergedWithin::Tol));
        // Within tol × CONVERGENCE_SLACK only.
        let r = classify(vec![0.0], 3, 5e-8, None, tol, ColEnd::Wrapped, 1.0);
        assert!(r.converged);
        assert_eq!(r.outcome, SolveOutcome::Converged(ConvergedWithin::Slack));
        // Past the slack: budget exhausted when no sharper diagnosis exists.
        let r = classify(vec![0.0], 3, 1e-6, None, tol, ColEnd::Wrapped, 1.0);
        assert!(!r.converged);
        assert_eq!(
            r.outcome,
            SolveOutcome::Failed(SolveFailure::BudgetExhausted)
        );
    }

    #[test]
    fn classify_keeps_the_drivers_failure() {
        let tol = 1e-8;
        let bd = SolveFailure::Breakdown {
            kind: BreakdownKind::ZeroCurvature,
            iteration: 7,
        };
        let r = classify(
            vec![0.0],
            7,
            0.5,
            Some(bd.clone()),
            tol,
            ColEnd::Wrapped,
            1.0,
        );
        assert!(!r.converged);
        assert_eq!(r.failure(), Some(&bd));
        let st = SolveFailure::Stagnated {
            window: 10,
            best_residual: 0.1,
        };
        let r = classify(vec![0.0], 50, 0.1, Some(st), tol, ColEnd::Wrapped, 1.0);
        assert!(matches!(r.failure(), Some(SolveFailure::Stagnated { .. })));
        // A non-finite true residual is diagnosed even with no driver failure.
        let r = classify(vec![f64::NAN], 2, f64::NAN, None, tol, ColEnd::Wrapped, 1.0);
        assert!(!r.converged);
        assert!(matches!(
            r.failure(),
            Some(SolveFailure::NonFinite { what }) if what == "true residual"
        ));
        // …and so is a non-finite iterate whose residual happens to be finite.
        let r = classify(vec![f64::NAN], 2, 0.0, None, tol, ColEnd::Wrapped, 1.0);
        assert!(!r.converged);
        assert!(matches!(
            r.failure(),
            Some(SolveFailure::NonFinite { what }) if what == "solution"
        ));
    }

    #[test]
    fn classify_preset_keeps_driver_verdict() {
        // The zero-Pb early exit declares convergence regardless of rel.
        let r = classify(
            vec![0.0],
            0,
            1.0,
            None,
            1e-8,
            ColEnd::Preset { converged: true },
            1.0,
        );
        assert!(r.converged);
        assert_eq!(r.outcome, SolveOutcome::Converged(ConvergedWithin::Slack));
        // …unless the measured residual is non-finite.
        let r = classify(
            vec![f64::NAN],
            0,
            f64::NAN,
            None,
            1e-8,
            ColEnd::Preset { converged: true },
            1.0,
        );
        assert!(!r.converged);
        assert!(matches!(r.failure(), Some(SolveFailure::NonFinite { .. })));
    }
}
