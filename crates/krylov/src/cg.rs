//! The conjugate-gradient family (SPD systems): one scalar loop with a
//! reusable workspace and one lockstep batched (multi-RHS) loop, each taking
//! the [`BetaRule`] that tells classical CG from flexible CG.
//!
//! Classical CG assumes the preconditioner is a *fixed SPD operator*; its
//! β = ⟨r₊, z₊⟩/⟨r, z⟩ (Fletcher–Reeves form) silently relies on
//! ⟨z₊, r⟩ = 0, which an inexact or slightly nonsymmetric preconditioner —
//! a drop-tolerance-sparsified, f32-demoted MCMC inverse — no longer
//! guarantees. Flexible CG (Notay) replaces it with the Polak–Ribière form
//! β = ⟨z₊, r₊ − r⟩/⟨r, z⟩, which re-orthogonalises the new direction
//! against the *actual* previous step and degrades gracefully when `P`
//! wobbles. With an exact fixed preconditioner the two coincide in exact
//! arithmetic, so FCG tracks CG iterate-for-iterate there.
//!
//! The residual difference is never materialised: `r₊ − r = −α·Ap`, so the
//! numerator is `−α·⟨z₊, Ap⟩` — one extra dot product per iteration on
//! vectors already in cache, no extra n-vector. That reduction, the β
//! formula and the label of the finiteness check are all that differs.

use crate::precond::Preconditioner;
use crate::solver::{
    wrap_scalar, BreakdownKind, ColEnd, ColOutcome, ConvergedWithin, SolveFailure, SolveOptions,
    SolveOutcome, SolveResult,
};
use crate::watchdog::Watchdog;
use mcmcmi_dense::{
    axpy, axpy_cols_masked, dot, dot_cols_masked, norm2, norm2_col, norm2_cols_masked, scatter_col,
};
use mcmcmi_sparse::KernelBackend;

/// How the next search direction's β is formed — the one algorithmic
/// difference between classical and flexible CG.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum BetaRule {
    /// β = ⟨r₊, z₊⟩/⟨r, z⟩: classical CG.
    FletcherReeves,
    /// β = ⟨z₊, r₊ − r⟩/⟨r, z⟩ = −α·⟨z₊, Ap⟩/⟨r, z⟩: flexible CG.
    PolakRibiere,
}

impl BetaRule {
    /// β from one step's reductions, or the rule's non-finite failure.
    /// `zap` = ⟨z₊, Ap⟩ is read (and need only be computed) under
    /// Polak–Ribière.
    fn beta(self, rz_new: f64, rz: f64, alpha: f64, zap: f64) -> Result<f64, SolveFailure> {
        match self {
            BetaRule::FletcherReeves if rz_new.is_finite() => Ok(rz_new / rz),
            BetaRule::PolakRibiere if rz_new.is_finite() && zap.is_finite() => {
                Ok(-alpha * zap / rz)
            }
            BetaRule::FletcherReeves => Err(SolveFailure::NonFinite {
                what: "⟨r, z⟩".to_string(),
            }),
            BetaRule::PolakRibiere => Err(SolveFailure::NonFinite {
                what: "⟨r, z⟩ / ⟨z, Ap⟩".to_string(),
            }),
        }
    }
}

/// Reusable scratch for repeated scalar CG/FCG solves on same-size systems
/// (empty until first use). After the first solve, subsequent [`cg_with`]
/// calls allocate nothing beyond the returned solution vector.
#[derive(Clone, Debug, Default)]
pub(crate) struct CgWorkspace {
    r: Vec<f64>,
    z: Vec<f64>,
    p: Vec<f64>,
    ap: Vec<f64>,
    fin: Vec<f64>,
}

/// Solve `Ax = b` for SPD `A` with preconditioned CG.
///
/// The preconditioner is applied as `z = P r` with `P ≈ A⁻¹`; for the MCMC
/// inverse (generally nonsymmetric) callers should pass the symmetrised
/// form ([`crate::precond::SparsePrecond::symmetrized`]), matching the
/// paper's use of CG on the SPD Laplace family.
pub fn cg<A: KernelBackend + ?Sized, P: Preconditioner + ?Sized>(
    a: &A,
    b: &[f64],
    precond: &P,
    opts: SolveOptions,
) -> SolveResult {
    let ws = &mut CgWorkspace::default();
    cg_with(a, b, precond, opts, BetaRule::FletcherReeves, ws)
}

/// Solve `Ax = b` for SPD `A` with flexible preconditioned CG.
///
/// Unlike [`cg`], the preconditioner need not be applied exactly or
/// symmetrically — compressed MCMC inverses can be passed raw, without the
/// `symmetrized()` copy classical CG needs.
pub fn fcg<A: KernelBackend + ?Sized, P: Preconditioner + ?Sized>(
    a: &A,
    b: &[f64],
    precond: &P,
    opts: SolveOptions,
) -> SolveResult {
    let ws = &mut CgWorkspace::default();
    cg_with(a, b, precond, opts, BetaRule::PolakRibiere, ws)
}

/// The scalar loop behind [`cg`] and [`fcg`], on caller-owned scratch
/// ([`CgWorkspace`]) — zero per-call allocation of the iteration vectors.
pub(crate) fn cg_with<A: KernelBackend + ?Sized, P: Preconditioner + ?Sized>(
    a: &A,
    b: &[f64],
    precond: &P,
    opts: SolveOptions,
    rule: BetaRule,
    ws: &mut CgWorkspace,
) -> SolveResult {
    let n = b.len();
    let mut x = vec![0.0; n];
    let b_norm = norm2(b);
    if b_norm == 0.0 {
        return SolveResult {
            x,
            converged: true,
            iterations: 0,
            rel_residual: 0.0,
            initial_rel_residual: 0.0,
            outcome: SolveOutcome::Converged(ConvergedWithin::Tol),
        };
    }

    ws.r.clear();
    ws.r.extend_from_slice(b); // r = b − Ax₀ = b
    ws.z.clear();
    ws.z.resize(n, 0.0);
    precond.apply(&ws.r, &mut ws.z);
    ws.p.clear();
    ws.p.extend_from_slice(&ws.z);
    let mut rz = dot(&ws.r, &ws.z);
    ws.ap.clear();
    ws.ap.resize(n, 0.0);
    let mut iters = 0usize;
    let mut failure: Option<SolveFailure> = None;
    let mut wd = Watchdog::new(opts.watchdog, opts.tol * b_norm, opts.max_iter);

    while iters < opts.max_iter {
        iters += 1;
        a.spmv(&ws.p, &mut ws.ap);
        let pap = dot(&ws.p, &ws.ap);
        if !pap.is_finite() {
            failure = Some(SolveFailure::NonFinite {
                what: "pᵀAp".to_string(),
            });
            break;
        }
        if pap.abs() < 1e-300 {
            failure = Some(SolveFailure::Breakdown {
                kind: BreakdownKind::ZeroCurvature,
                iteration: iters,
            });
            break;
        }
        let alpha = rz / pap;
        axpy(alpha, &ws.p, &mut x);
        axpy(-alpha, &ws.ap, &mut ws.r);
        let rnorm = norm2(&ws.r);
        if rnorm <= opts.tol * b_norm {
            break;
        }
        if let Some(f) = wd.observe(rnorm) {
            failure = Some(f);
            break;
        }
        precond.apply(&ws.r, &mut ws.z);
        let rz_new = dot(&ws.r, &ws.z);
        let zap = if rule == BetaRule::PolakRibiere {
            dot(&ws.z, &ws.ap)
        } else {
            0.0
        };
        let beta = match rule.beta(rz_new, rz, alpha, zap) {
            Ok(beta) => beta,
            Err(f) => {
                failure = Some(f);
                break;
            }
        };
        rz = rz_new;
        // p = z + beta p
        for (pi, &zi) in ws.p.iter_mut().zip(&ws.z) {
            *pi = zi + beta * *pi;
        }
    }

    wrap_scalar(
        a,
        b,
        x,
        iters,
        failure,
        opts.tol,
        ColEnd::Wrapped,
        &mut ws.fin,
    )
}

/// Block workspace for [`cg_batch`]: row-major `n×k` blocks reused across
/// batches of the same (or smaller) width (empty until first use).
#[derive(Clone, Debug, Default)]
pub(crate) struct CgBlockWorkspace {
    bb: Vec<f64>,
    xb: Vec<f64>,
    rb: Vec<f64>,
    zb: Vec<f64>,
    pb: Vec<f64>,
    apb: Vec<f64>,
    fin: Vec<f64>,
}

/// Lockstep batched CG/FCG: solve `A·x_c = b_c` for all columns at once,
/// sharing every matrix traversal (SpMM) and preconditioner application
/// (block apply) across the batch while each column performs exactly the
/// scalar [`cg_with`] arithmetic under the same `rule`. Results are
/// bit-identical to sequential single-RHS solves at any thread count.
/// Columns converge independently: a converged (or broken-down) column is
/// masked out of further updates while the rest keep iterating.
///
/// # Panics
/// Panics if `A` is not square or any rhs has the wrong length.
pub(crate) fn cg_batch<A: KernelBackend + ?Sized, P: Preconditioner + ?Sized>(
    a: &A,
    rhs: &[Vec<f64>],
    precond: &P,
    opts: SolveOptions,
    rule: BetaRule,
    ws: &mut CgBlockWorkspace,
) -> Vec<SolveResult> {
    assert_eq!(a.nrows(), a.ncols(), "cg_batch: matrix must be square");
    let n = a.nrows();
    let k = rhs.len();
    if k == 0 {
        return Vec::new();
    }
    for b in rhs {
        assert_eq!(b.len(), n, "cg_batch: rhs dimension mismatch");
    }

    // Pack the right-hand sides into one row-major n×k block.
    ws.bb.clear();
    ws.bb.resize(n * k, 0.0);
    for (c, b) in rhs.iter().enumerate() {
        scatter_col(b, &mut ws.bb, k, c);
    }
    ws.xb.clear();
    ws.xb.resize(n * k, 0.0);

    let mut active = vec![true; k];
    let mut outcome = vec![
        ColOutcome {
            iterations: 0,
            failure: None,
            end: ColEnd::Wrapped,
        };
        k
    ];
    let mut b_norm = vec![0.0f64; k];
    for c in 0..k {
        b_norm[c] = norm2_col(&ws.bb, k, c);
        if b_norm[c] == 0.0 {
            // Scalar CG returns x = 0 immediately, without measuring the
            // true residual.
            active[c] = false;
            outcome[c].end = ColEnd::Skip { converged: true };
        }
    }

    // r = b; z = P r; p = z; rz = ⟨r, z⟩ — batched setup. Masked (zero-rhs)
    // columns ride along unused.
    ws.rb.clear();
    ws.rb.extend_from_slice(&ws.bb);
    ws.zb.clear();
    ws.zb.resize(n * k, 0.0);
    precond.apply_block(&ws.rb, k, &mut ws.zb);
    ws.pb.clear();
    ws.pb.extend_from_slice(&ws.zb);
    ws.apb.clear();
    ws.apb.resize(n * k, 0.0);
    let mut rz = vec![0.0f64; k];
    dot_cols_masked(&ws.rb, &ws.zb, k, &active, &mut rz);

    // Per-round fused-kernel state: coefficient and reduction arrays.
    let mut pap = vec![0.0f64; k];
    let mut alpha = vec![0.0f64; k];
    let mut neg_alpha = vec![0.0f64; k];
    let mut rnorm = vec![0.0f64; k];
    let mut rz_new = vec![0.0f64; k];
    let mut zap = vec![0.0f64; k];
    let mut beta = vec![0.0f64; k];
    let mut updating = vec![false; k];
    let mut continuing = vec![false; k];
    // Per-column watchdogs: same observations, same order as the scalar
    // driver, so lockstep columns trip (or don't) identically.
    let mut wds: Vec<Watchdog> = (0..k)
        .map(|c| Watchdog::new(opts.watchdog, opts.tol * b_norm[c], opts.max_iter))
        .collect();

    let mut iters = vec![0usize; k];
    while active.iter().any(|&a| a) {
        // Scalar loop condition: `while iters < max_iter`.
        for c in 0..k {
            if active[c] && iters[c] >= opts.max_iter {
                active[c] = false;
                outcome[c].iterations = iters[c];
            }
        }
        if !active.iter().any(|&a| a) {
            break;
        }
        // One traversal serves every column: AP = A·P; then one fused
        // block sweep per reduction/update (contiguous row order — the
        // strided per-column form would touch one element per cache line).
        a.spmm(&ws.pb, k, &mut ws.apb);
        dot_cols_masked(&ws.pb, &ws.apb, k, &active, &mut pap);
        for c in 0..k {
            updating[c] = false;
            if !active[c] {
                continue;
            }
            iters[c] += 1;
            if pap[c].abs() < 1e-300 || !pap[c].is_finite() {
                outcome[c].failure = Some(if !pap[c].is_finite() {
                    SolveFailure::NonFinite {
                        what: "pᵀAp".to_string(),
                    }
                } else {
                    SolveFailure::Breakdown {
                        kind: BreakdownKind::ZeroCurvature,
                        iteration: iters[c],
                    }
                });
                outcome[c].iterations = iters[c];
                active[c] = false;
                continue;
            }
            alpha[c] = rz[c] / pap[c];
            neg_alpha[c] = -alpha[c];
            updating[c] = true;
        }
        axpy_cols_masked(&alpha, &ws.pb, &mut ws.xb, k, &updating);
        axpy_cols_masked(&neg_alpha, &ws.apb, &mut ws.rb, k, &updating);
        norm2_cols_masked(&ws.rb, k, &updating, &mut rnorm);
        let mut any_continuing = false;
        for c in 0..k {
            continuing[c] = false;
            if !updating[c] {
                continue;
            }
            if rnorm[c] <= opts.tol * b_norm[c] {
                outcome[c].iterations = iters[c];
                active[c] = false;
                continue;
            }
            if let Some(f) = wds[c].observe(rnorm[c]) {
                outcome[c].failure = Some(f);
                outcome[c].iterations = iters[c];
                active[c] = false;
                continue;
            }
            continuing[c] = true;
            any_continuing = true;
        }
        if !any_continuing {
            continue;
        }
        // Z = P·R for the surviving columns (masked columns ride along).
        precond.apply_block(&ws.rb, k, &mut ws.zb);
        dot_cols_masked(&ws.rb, &ws.zb, k, &continuing, &mut rz_new);
        if rule == BetaRule::PolakRibiere {
            // The one extra reduction FCG costs over CG, fused over the block.
            dot_cols_masked(&ws.zb, &ws.apb, k, &continuing, &mut zap);
        }
        for c in 0..k {
            if !continuing[c] {
                continue;
            }
            match rule.beta(rz_new[c], rz[c], alpha[c], zap[c]) {
                Ok(b) => beta[c] = b,
                Err(f) => {
                    outcome[c].failure = Some(f);
                    outcome[c].iterations = iters[c];
                    active[c] = false;
                    continuing[c] = false;
                    continue;
                }
            }
            rz[c] = rz_new[c];
        }
        // p[:,c] = z[:,c] + beta[c]·p[:,c], one fused sweep (branch-free
        // when every column is still running — the common case).
        if continuing.iter().all(|&m| m) {
            for (pr, zr) in ws.pb.chunks_exact_mut(k).zip(ws.zb.chunks_exact(k)) {
                for ((pi, &zi), &bc) in pr.iter_mut().zip(zr).zip(&beta) {
                    *pi = zi + bc * *pi;
                }
            }
        } else {
            for (pr, zr) in ws.pb.chunks_exact_mut(k).zip(ws.zb.chunks_exact(k)) {
                for c in 0..k {
                    if continuing[c] {
                        pr[c] = zr[c] + beta[c] * pr[c];
                    }
                }
            }
        }
    }

    crate::solver::finalize_columns(a, &ws.bb, &ws.xb, k, opts.tol, &outcome, &mut ws.fin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{IdentityPrecond, JacobiPrecond};
    use mcmcmi_matgen::{fd_laplace_2d, laplace_1d, spd_random};

    type Driver = fn(&mcmcmi_sparse::Csr, &[f64], &IdentityPrecond, SolveOptions) -> SolveResult;
    const BOTH: [Driver; 2] = [cg, fcg];

    #[test]
    fn solves_1d_laplacian_exactly_in_n_steps() {
        // CG terminates in at most n steps in exact arithmetic.
        let n = 30;
        let a = laplace_1d(n);
        let xs: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let b = a.spmv_alloc(&xs);
        for driver in BOTH {
            let r = driver(&a, &b, &IdentityPrecond::new(n), SolveOptions::default());
            assert!(r.converged);
            assert!(r.iterations <= n + 2);
            for (p, q) in r.x.iter().zip(&xs) {
                assert!((p - q).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn solves_2d_laplacian() {
        let a = fd_laplace_2d(16);
        let n = a.nrows();
        let b = vec![1.0; n];
        let r = cg(&a, &b, &IdentityPrecond::new(n), SolveOptions::default());
        assert!(r.converged, "rel_residual = {}", r.rel_residual);
    }

    #[test]
    fn iteration_count_grows_with_mesh_refinement() {
        // κ = O(h⁻²) ⇒ CG iterations = O(h⁻¹): the motivation for
        // preconditioning in the paper's introduction.
        let mut iters = Vec::new();
        for k in [8usize, 16, 32] {
            let a = fd_laplace_2d(k);
            let n = a.nrows();
            let b = vec![1.0; n];
            let r = cg(&a, &b, &IdentityPrecond::new(n), SolveOptions::default());
            assert!(r.converged);
            iters.push(r.iterations);
        }
        assert!(iters[0] < iters[1] && iters[1] < iters[2], "{iters:?}");
    }

    #[test]
    fn spd_random_with_jacobi() {
        let a = spd_random(40, 500.0, 3);
        let n = a.nrows();
        let xs: Vec<f64> = (0..n).map(|i| ((i * i) as f64 * 0.01).sin()).collect();
        let b = a.spmv_alloc(&xs);
        let r = cg(&a, &b, &JacobiPrecond::new(&a), SolveOptions::default());
        assert!(r.converged);
        for (p, q) in r.x.iter().zip(&xs) {
            assert!((p - q).abs() < 1e-5);
        }
    }

    #[test]
    fn fcg_matches_cg_iterate_for_iterate_with_fixed_preconditioner() {
        // With an exact fixed SPD preconditioner, the Polak–Ribière β
        // equals the Fletcher–Reeves β in exact arithmetic; over a handful
        // of iterations on a well-conditioned system the floating-point
        // drift stays far below solver tolerances.
        let a = spd_random(40, 50.0, 5);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| ((i * 3 + 1) as f64 * 0.17).sin()).collect();
        let jac = JacobiPrecond::new(&a);
        for cap in 1..=10usize {
            let opts = SolveOptions {
                max_iter: cap,
                tol: 1e-30, // force exactly `cap` iterations on both
                ..Default::default()
            };
            let rc = cg(&a, &b, &jac, opts);
            let rf = fcg(&a, &b, &jac, opts);
            assert_eq!(rc.iterations, rf.iterations, "cap {cap}");
            let scale = mcmcmi_dense::norm2(&rc.x).max(1e-30);
            for (p, q) in rf.x.iter().zip(&rc.x) {
                assert!(
                    (p - q).abs() <= 1e-10 * scale,
                    "cap {cap}: iterate drift {p} vs {q}"
                );
            }
        }
        // Full solves agree on iteration count too.
        let opts = SolveOptions::default();
        let rc = cg(&a, &b, &jac, opts);
        let rf = fcg(&a, &b, &jac, opts);
        assert!(rc.converged && rf.converged);
        assert_eq!(rc.iterations, rf.iterations);
    }

    #[test]
    fn fcg_tolerates_a_nonsymmetric_preconditioner() {
        // A deliberately skewed (nonsymmetric) approximate inverse: plain
        // CG's convergence theory is void, FCG still drives the residual
        // down. This is the compressed-f32 MCMC scenario in miniature.
        let a = fd_laplace_2d(12);
        let n = a.nrows();
        let mut coo = mcmcmi_sparse::Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 0.25);
            if i + 1 < n {
                coo.push(i, i + 1, 0.03); // one-sided coupling
            }
        }
        let p = crate::SparsePrecond::new(coo.to_csr());
        let b = vec![1.0; n];
        let r = fcg(&a, &b, &p, SolveOptions::default());
        assert!(r.converged, "rel_residual = {}", r.rel_residual);
    }

    #[test]
    fn batch_bit_identical_to_scalar() {
        let a = fd_laplace_2d(9);
        let n = a.nrows();
        let jac = JacobiPrecond::new(&a);
        let rhs: Vec<Vec<f64>> = (0..5)
            .map(|c| {
                (0..n)
                    .map(|i| (i as f64 * (0.23 + 0.06 * c as f64)).sin())
                    .collect()
            })
            .collect();
        let opts = SolveOptions::default();
        for rule in [BetaRule::FletcherReeves, BetaRule::PolakRibiere] {
            let batch = cg_batch(&a, &rhs, &jac, opts, rule, &mut CgBlockWorkspace::default());
            for (c, b) in rhs.iter().enumerate() {
                let scalar = cg_with(&a, b, &jac, opts, rule, &mut CgWorkspace::default());
                assert_eq!(batch[c].x, scalar.x, "{rule:?} col {c}");
                assert_eq!(batch[c].iterations, scalar.iterations, "{rule:?} col {c}");
                assert_eq!(
                    batch[c].rel_residual, scalar.rel_residual,
                    "{rule:?} col {c}"
                );
            }
        }
    }

    #[test]
    fn zero_rhs() {
        let a = laplace_1d(6);
        for driver in BOTH {
            let r = driver(
                &a,
                &[0.0; 6],
                &IdentityPrecond::new(6),
                SolveOptions::default(),
            );
            assert!(r.converged);
            assert_eq!(r.iterations, 0);
        }
    }

    #[test]
    fn cap_respected() {
        let a = fd_laplace_2d(32);
        let n = a.nrows();
        let opts = SolveOptions {
            max_iter: 5,
            ..Default::default()
        };
        for driver in BOTH {
            let r = driver(&a, &vec![1.0; n], &IdentityPrecond::new(n), opts);
            assert!(!r.converged);
            assert_eq!(r.iterations, 5);
        }
    }
}
