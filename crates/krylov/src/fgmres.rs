//! Flexible restarted GMRES (Saad's FGMRES(m)) with right preconditioning.
//!
//! Where [`crate::gmres`] solves the *left*-preconditioned system
//! `PA x = Pb` and may apply `P` to the same vector twice expecting the
//! same answer, FGMRES preconditions on the right and keeps the
//! preconditioned basis `Z = [P v₀, P v₁, …]` explicitly: the update
//! `x += Z y` only ever uses the applications that actually happened, so
//! the preconditioner may change (or wobble) between iterations. That is
//! exactly the contract an inexact operator needs — a drop-tolerance
//! sparsified, f32-demoted MCMC inverse is a slightly different operator
//! than its f64 parent, and FGMRES is indifferent.
//!
//! Two practical bonuses over the left-preconditioned driver:
//! - the least-squares residual `g[k+1]` *is* the true residual norm (no
//!   preconditioned-norm distortion), so stopping tests need no final
//!   correction loop;
//! - with `P = I` the algorithm degenerates to exactly the arithmetic of
//!   plain GMRES — the parity tests pin that down bit-for-bit.
//!
//! Cost: one extra set of `m` basis vectors (`Z`), the classical
//! memory-for-robustness trade of FGMRES.

use crate::precond::Preconditioner;
use crate::solver::{
    wrap_scalar, BreakdownKind, ColEnd, ColOutcome, ConvergedWithin, SolveFailure, SolveOptions,
    SolveOutcome, SolveResult,
};
use crate::watchdog::Watchdog;
use mcmcmi_dense::{
    axpy_col, copy_col, dot_col, norm2, norm2_col, scale_col, scale_in_place, scatter_col,
};
use mcmcmi_sparse::KernelBackend;

/// Reusable scratch for repeated scalar FGMRES solves on same-shape
/// problems (same `n` and restart length). After the first solve,
/// subsequent [`fgmres_with`] calls allocate nothing beyond the returned
/// solution vector.
#[derive(Clone, Debug, Default)]
pub struct FgmresWorkspace {
    v: Vec<Vec<f64>>,
    z: Vec<Vec<f64>>,
    h: Vec<Vec<f64>>,
    cs: Vec<f64>,
    sn: Vec<f64>,
    g: Vec<f64>,
    w: Vec<f64>,
    aw: Vec<f64>,
    y: Vec<f64>,
    fin: Vec<f64>,
}

impl FgmresWorkspace {
    /// Empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size every buffer for an `n`-dimensional solve with restart `m`,
    /// starting from the same zeroed state a fresh allocation would have.
    fn ensure(&mut self, n: usize, m: usize) {
        self.v.resize_with(m + 1, Vec::new);
        for v in &mut self.v {
            v.clear();
            v.resize(n, 0.0);
        }
        self.z.resize_with(m, Vec::new);
        for z in &mut self.z {
            z.clear();
            z.resize(n, 0.0);
        }
        self.h.resize_with(m + 1, Vec::new);
        for h in &mut self.h {
            h.clear();
            h.resize(m, 0.0);
        }
        for buf in [&mut self.cs, &mut self.sn, &mut self.y] {
            buf.clear();
            buf.resize(m, 0.0);
        }
        self.g.clear();
        self.g.resize(m + 1, 0.0);
        for buf in [&mut self.w, &mut self.aw] {
            buf.clear();
            buf.resize(n, 0.0);
        }
    }
}

/// Solve `Ax = b` with right-preconditioned flexible GMRES(m).
///
/// Iteration counts are total inner iterations across restarts, matching
/// [`crate::gmres`]'s reporting. Convergence is declared on the true
/// residual (right preconditioning leaves it undistorted) and verified by
/// the shared finalize step.
pub fn fgmres<A: KernelBackend + ?Sized, P: Preconditioner + ?Sized>(
    a: &A,
    b: &[f64],
    precond: &P,
    opts: SolveOptions,
) -> SolveResult {
    fgmres_with(a, b, precond, opts, &mut FgmresWorkspace::new())
}

/// [`fgmres`] with caller-owned scratch ([`FgmresWorkspace`]) — identical
/// results, zero per-call allocation of the two Krylov bases and the
/// Hessenberg factors.
pub fn fgmres_with<A: KernelBackend + ?Sized, P: Preconditioner + ?Sized>(
    a: &A,
    b: &[f64],
    precond: &P,
    opts: SolveOptions,
    ws: &mut FgmresWorkspace,
) -> SolveResult {
    let n = b.len();
    let m = opts.restart.max(1);
    let mut x = vec![0.0; n];
    let mut total_iters = 0usize;
    ws.ensure(n, m);

    // Right preconditioning: the stopping norm is the plain rhs norm.
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

    let mut failure: Option<SolveFailure> = None;
    let mut wd = Watchdog::new(opts.watchdog);
    'outer: while total_iters < opts.max_iter {
        // r = b − Ax (true residual; no preconditioner on the residual).
        a.spmv(&x, &mut ws.aw);
        for ((vi, &bi), &ai) in ws.v[0].iter_mut().zip(b).zip(&ws.aw) {
            *vi = bi - ai;
        }
        let beta = norm2(&ws.v[0]);
        if !beta.is_finite() {
            failure = Some(SolveFailure::NonFinite {
                what: "restart residual".to_string(),
            });
            break;
        }
        if beta <= opts.tol * b_norm {
            break;
        }
        if let Some(f) = wd.observe(beta) {
            failure = Some(f);
            break;
        }
        scale_in_place(1.0 / beta, &mut ws.v[0]);
        ws.g.iter_mut().for_each(|t| *t = 0.0);
        ws.g[0] = beta;

        let mut k_used = 0;
        for k in 0..m {
            if total_iters >= opts.max_iter {
                break;
            }
            total_iters += 1;
            // z_k = P v_k (kept!), w = A z_k.
            precond.apply(&ws.v[k], &mut ws.z[k]);
            a.spmv(&ws.z[k], &mut ws.w);
            // Modified Gram–Schmidt against the orthonormal V basis.
            for i in 0..=k {
                let hik = mcmcmi_dense::dot(&ws.w, &ws.v[i]);
                ws.h[i][k] = hik;
                mcmcmi_dense::axpy(-hik, &ws.v[i], &mut ws.w);
            }
            let hkk = norm2(&ws.w);
            ws.h[k + 1][k] = hkk;
            if !hkk.is_finite() {
                failure = Some(SolveFailure::NonFinite {
                    what: "Hessenberg norm".to_string(),
                });
                break 'outer;
            }
            if hkk > 1e-14 {
                for (t, &wi) in ws.v[k + 1].iter_mut().zip(&ws.w) {
                    *t = wi / hkk;
                }
            }
            // Apply existing Givens rotations to the new column.
            for i in 0..k {
                let t = ws.cs[i] * ws.h[i][k] + ws.sn[i] * ws.h[i + 1][k];
                ws.h[i + 1][k] = -ws.sn[i] * ws.h[i][k] + ws.cs[i] * ws.h[i + 1][k];
                ws.h[i][k] = t;
            }
            // New rotation to annihilate h[k+1][k].
            let (c, s) = crate::gmres::givens(ws.h[k][k], ws.h[k + 1][k]);
            ws.cs[k] = c;
            ws.sn[k] = s;
            ws.h[k][k] = c * ws.h[k][k] + s * ws.h[k + 1][k];
            ws.h[k + 1][k] = 0.0;
            let t = c * ws.g[k];
            ws.g[k + 1] = -s * ws.g[k];
            ws.g[k] = t;
            k_used = k + 1;
            // Happy breakdown: exact solution in the Krylov space.
            if hkk <= 1e-14 {
                break;
            }
            // g[k+1] is the *true* residual norm under right preconditioning.
            if ws.g[k + 1].abs() <= opts.tol * b_norm {
                break;
            }
            if let Some(f) = wd.observe(ws.g[k + 1].abs()) {
                failure = Some(f);
                break 'outer;
            }
        }

        // Back-substitute y, update x through the *preconditioned* basis Z.
        if k_used > 0 {
            for i in (0..k_used).rev() {
                let mut s = ws.g[i];
                for j in (i + 1)..k_used {
                    s -= ws.h[i][j] * ws.y[j];
                }
                let d = ws.h[i][i];
                if d.abs() < 1e-300 {
                    failure = Some(SolveFailure::Breakdown {
                        kind: BreakdownKind::SingularHessenberg,
                        iteration: total_iters,
                    });
                    break 'outer;
                }
                ws.y[i] = s / d;
            }
            for (j, &yj) in ws.y.iter().enumerate().take(k_used) {
                mcmcmi_dense::axpy(yj, &ws.z[j], &mut x);
            }
        } else {
            break;
        }
    }

    // True-residual convergence check happens in finalize.
    wrap_scalar(
        a,
        b,
        x,
        total_iters,
        failure,
        opts.tol,
        ColEnd::Wrapped,
        &mut ws.fin,
    )
}

/// Per-column Hessenberg/rotation scratch for [`fgmres_batch`].
#[derive(Clone, Debug, Default)]
struct FgmresColScratch {
    h: Vec<Vec<f64>>,
    cs: Vec<f64>,
    sn: Vec<f64>,
    g: Vec<f64>,
    y: Vec<f64>,
}

impl FgmresColScratch {
    fn ensure(&mut self, m: usize) {
        self.h.resize_with(m + 1, Vec::new);
        for h in &mut self.h {
            h.clear();
            h.resize(m, 0.0);
        }
        for buf in [&mut self.cs, &mut self.sn, &mut self.y] {
            buf.clear();
            buf.resize(m, 0.0);
        }
        self.g.clear();
        self.g.resize(m + 1, 0.0);
    }
}

/// Block workspace for [`fgmres_batch`]: both Krylov basis block sets (the
/// dominant allocation, `(2m+1)·n·k` doubles) and per-column factor
/// scratch, reused across batches of the same (or smaller) shape.
#[derive(Clone, Debug, Default)]
pub struct FgmresBlockWorkspace {
    bb: Vec<f64>,
    xb: Vec<f64>,
    inb: Vec<f64>,
    awb: Vec<f64>,
    pinb: Vec<f64>,
    poutb: Vec<f64>,
    wb: Vec<f64>,
    v: Vec<Vec<f64>>,
    z: Vec<Vec<f64>>,
    cols: Vec<FgmresColScratch>,
    fin: Vec<f64>,
}

impl FgmresBlockWorkspace {
    /// Empty workspace; blocks grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    fn ensure(&mut self, n: usize, m: usize, k: usize) {
        for buf in [
            &mut self.bb,
            &mut self.xb,
            &mut self.inb,
            &mut self.awb,
            &mut self.pinb,
            &mut self.poutb,
            &mut self.wb,
        ] {
            buf.clear();
            buf.resize(n * k, 0.0);
        }
        self.v.resize_with(m + 1, Vec::new);
        for v in &mut self.v {
            v.clear();
            v.resize(n * k, 0.0);
        }
        self.z.resize_with(m, Vec::new);
        for z in &mut self.z {
            z.clear();
            z.resize(n * k, 0.0);
        }
        self.cols.resize_with(k, Default::default);
        for c in &mut self.cols {
            c.ensure(m);
        }
    }
}

/// What a [`fgmres_batch`] column does in the current lockstep round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FgmresMode {
    /// Next shared matvec computes this column's restart residual `b − Ax`.
    Restart,
    /// Next round preconditions `v[ki]` and runs its Arnoldi step.
    Inner,
    /// Retired: converged, broken down, or out of iterations.
    Done,
}

/// Lockstep batched FGMRES(m): every round performs one block
/// preconditioner application (serving the columns mid-Arnoldi) and one
/// batch-wide SpMM (serving Arnoldi steps and restart residuals alike), so
/// columns at different restart phases still share every traversal. Each
/// column's arithmetic is exactly the scalar [`fgmres`] sequence — the
/// strided column kernels are bit-identical to their contiguous
/// counterparts — so results match sequential single-RHS solves bit for
/// bit at any thread count, with per-column convergence masking.
///
/// # Panics
/// Panics if `A` is not square or any rhs has the wrong length.
pub fn fgmres_batch<A: KernelBackend + ?Sized, P: Preconditioner + ?Sized>(
    a: &A,
    rhs: &[Vec<f64>],
    precond: &P,
    opts: SolveOptions,
    ws: &mut FgmresBlockWorkspace,
) -> Vec<SolveResult> {
    assert_eq!(a.nrows(), a.ncols(), "fgmres_batch: matrix must be square");
    let n = a.nrows();
    let k = rhs.len();
    if k == 0 {
        return Vec::new();
    }
    for b in rhs {
        assert_eq!(b.len(), n, "fgmres_batch: rhs dimension mismatch");
    }
    let m = opts.restart.max(1);
    ws.ensure(n, m, k);
    for (c, b) in rhs.iter().enumerate() {
        scatter_col(b, &mut ws.bb, k, c);
    }

    let mut mode = vec![FgmresMode::Restart; k];
    let mut outcome = vec![
        ColOutcome {
            iterations: 0,
            failure: None,
            end: ColEnd::Wrapped,
        };
        k
    ];
    let mut total_iters = vec![0usize; k];
    // Per-column watchdogs: same observations, same order as the scalar
    // driver, so lockstep columns trip (or don't) identically.
    let mut wds: Vec<Watchdog> = (0..k).map(|_| Watchdog::new(opts.watchdog)).collect();
    let mut ki = vec![0usize; k]; // inner (Arnoldi) index per column
    let mut k_used = vec![0usize; k];
    let mut b_norm = vec![0.0f64; k];

    for c in 0..k {
        b_norm[c] = norm2_col(&ws.bb, k, c);
        if b_norm[c] == 0.0 {
            // Scalar FGMRES returns x = 0 immediately without measuring
            // the true residual.
            mode[c] = FgmresMode::Done;
            outcome[c].end = ColEnd::Skip { converged: true };
        }
    }

    // End of a column's inner loop: back-substitute, update x through the
    // preconditioned basis Z, and either restart or retire — exactly the
    // scalar post-inner-loop block. Returns the column's next mode.
    fn finish_inner(
        col: &mut FgmresColScratch,
        z: &[Vec<f64>],
        xb: &mut [f64],
        k: usize,
        c: usize,
        k_used: usize,
        total_iters: usize,
        max_iter: usize,
        failure: &mut Option<SolveFailure>,
    ) -> FgmresMode {
        if k_used == 0 {
            return FgmresMode::Done;
        }
        for i in (0..k_used).rev() {
            let mut s = col.g[i];
            for j in (i + 1)..k_used {
                s -= col.h[i][j] * col.y[j];
            }
            let d = col.h[i][i];
            if d.abs() < 1e-300 {
                *failure = Some(SolveFailure::Breakdown {
                    kind: BreakdownKind::SingularHessenberg,
                    iteration: total_iters,
                });
                return FgmresMode::Done; // scalar `break 'outer`: x untouched
            }
            col.y[i] = s / d;
        }
        for (j, &yj) in col.y.iter().enumerate().take(k_used) {
            axpy_col(yj, &z[j], xb, k, c);
        }
        if total_iters < max_iter {
            FgmresMode::Restart
        } else {
            FgmresMode::Done
        }
    }

    loop {
        // Pre-phase: transitions that need no matvec — columns out of
        // iteration budget retire exactly where the scalar loops would.
        for c in 0..k {
            match mode[c] {
                FgmresMode::Inner if total_iters[c] >= opts.max_iter => {
                    mode[c] = finish_inner(
                        &mut ws.cols[c],
                        &ws.z,
                        &mut ws.xb,
                        k,
                        c,
                        k_used[c],
                        total_iters[c],
                        opts.max_iter,
                        &mut outcome[c].failure,
                    );
                    debug_assert_eq!(mode[c], FgmresMode::Done);
                    outcome[c].iterations = total_iters[c];
                }
                FgmresMode::Restart if total_iters[c] >= opts.max_iter => {
                    mode[c] = FgmresMode::Done;
                    outcome[c].iterations = total_iters[c];
                }
                _ => {}
            }
        }
        if mode.iter().all(|&s| s == FgmresMode::Done) {
            break;
        }

        // Phase 1 — one block preconditioner application serving every
        // column mid-Arnoldi: z[ki] = P v[ki]. Restart/Done columns ride
        // along on whatever the buffer holds (finite, unused).
        let mut any_inner = false;
        for c in 0..k {
            if mode[c] == FgmresMode::Inner {
                any_inner = true;
                total_iters[c] += 1; // scalar increments before P·v
                copy_col(&ws.v[ki[c]], &mut ws.pinb, k, c);
            }
        }
        if any_inner {
            precond.apply_block(&ws.pinb, k, &mut ws.poutb);
            for c in 0..k {
                if mode[c] == FgmresMode::Inner {
                    copy_col(&ws.poutb, &mut ws.z[ki[c]], k, c);
                }
            }
        }

        // Phase 2 — one SpMM serving the whole batch: A·z[ki] for Arnoldi
        // columns, A·x for restarting columns.
        for c in 0..k {
            match mode[c] {
                FgmresMode::Inner => copy_col(&ws.z[ki[c]], &mut ws.inb, k, c),
                FgmresMode::Restart => copy_col(&ws.xb, &mut ws.inb, k, c),
                FgmresMode::Done => {}
            }
        }
        a.spmm(&ws.inb, k, &mut ws.awb);

        // Post-phase: column-local arithmetic, exactly the scalar sequence.
        for c in 0..k {
            match mode[c] {
                FgmresMode::Restart => {
                    // v0 = b − Ax (true residual), β, normalize, reset g.
                    for ((t, bi), ai) in ws.v[0][c..]
                        .iter_mut()
                        .step_by(k)
                        .zip(ws.bb[c..].iter().step_by(k))
                        .zip(ws.awb[c..].iter().step_by(k))
                    {
                        *t = bi - ai;
                    }
                    let beta = norm2_col(&ws.v[0], k, c);
                    if !beta.is_finite() {
                        outcome[c].failure = Some(SolveFailure::NonFinite {
                            what: "restart residual".to_string(),
                        });
                        outcome[c].iterations = total_iters[c];
                        mode[c] = FgmresMode::Done;
                        continue;
                    }
                    if beta <= opts.tol * b_norm[c] {
                        outcome[c].iterations = total_iters[c];
                        mode[c] = FgmresMode::Done;
                        continue;
                    }
                    if let Some(f) = wds[c].observe(beta) {
                        outcome[c].failure = Some(f);
                        outcome[c].iterations = total_iters[c];
                        mode[c] = FgmresMode::Done;
                        continue;
                    }
                    scale_col(1.0 / beta, &mut ws.v[0], k, c);
                    let col = &mut ws.cols[c];
                    col.g.iter_mut().for_each(|t| *t = 0.0);
                    col.g[0] = beta;
                    ki[c] = 0;
                    k_used[c] = 0;
                    mode[c] = FgmresMode::Inner;
                }
                FgmresMode::Inner => {
                    let kc = ki[c];
                    // w = A z_kc lives in awb's column; copy to the MGS
                    // work block so awb survives for other columns.
                    copy_col(&ws.awb, &mut ws.wb, k, c);
                    // Modified Gram–Schmidt against V.
                    for i in 0..=kc {
                        let hik = dot_col(&ws.wb, &ws.v[i], k, c);
                        ws.cols[c].h[i][kc] = hik;
                        axpy_col(-hik, &ws.v[i], &mut ws.wb, k, c);
                    }
                    let hkk = norm2_col(&ws.wb, k, c);
                    ws.cols[c].h[kc + 1][kc] = hkk;
                    if !hkk.is_finite() {
                        // Scalar `break 'outer`: retire without
                        // back-substitution.
                        outcome[c].failure = Some(SolveFailure::NonFinite {
                            what: "Hessenberg norm".to_string(),
                        });
                        outcome[c].iterations = total_iters[c];
                        mode[c] = FgmresMode::Done;
                        continue;
                    }
                    if hkk > 1e-14 {
                        for (t, s) in ws.v[kc + 1][c..]
                            .iter_mut()
                            .step_by(k)
                            .zip(ws.wb[c..].iter().step_by(k))
                        {
                            *t = *s / hkk;
                        }
                    }
                    let col = &mut ws.cols[c];
                    // Apply existing Givens rotations to the new column.
                    for i in 0..kc {
                        let t = col.cs[i] * col.h[i][kc] + col.sn[i] * col.h[i + 1][kc];
                        col.h[i + 1][kc] = -col.sn[i] * col.h[i][kc] + col.cs[i] * col.h[i + 1][kc];
                        col.h[i][kc] = t;
                    }
                    let (cr, sr) = crate::gmres::givens(col.h[kc][kc], col.h[kc + 1][kc]);
                    col.cs[kc] = cr;
                    col.sn[kc] = sr;
                    col.h[kc][kc] = cr * col.h[kc][kc] + sr * col.h[kc + 1][kc];
                    col.h[kc + 1][kc] = 0.0;
                    let t = cr * col.g[kc];
                    col.g[kc + 1] = -sr * col.g[kc];
                    col.g[kc] = t;
                    k_used[c] = kc + 1;
                    // Inner-loop exits: happy breakdown, true-residual
                    // convergence, or the basis filling up.
                    let exit =
                        hkk <= 1e-14 || col.g[kc + 1].abs() <= opts.tol * b_norm[c] || kc + 1 == m;
                    if exit {
                        mode[c] = finish_inner(
                            &mut ws.cols[c],
                            &ws.z,
                            &mut ws.xb,
                            k,
                            c,
                            k_used[c],
                            total_iters[c],
                            opts.max_iter,
                            &mut outcome[c].failure,
                        );
                        if mode[c] == FgmresMode::Done {
                            outcome[c].iterations = total_iters[c];
                        }
                    } else if let Some(f) = wds[c].observe(col.g[kc + 1].abs()) {
                        // Scalar `break 'outer` on a tripped watchdog:
                        // retire without back-substitution.
                        outcome[c].failure = Some(f);
                        outcome[c].iterations = total_iters[c];
                        mode[c] = FgmresMode::Done;
                    } else {
                        ki[c] = kc + 1;
                    }
                }
                FgmresMode::Done => {}
            }
        }
    }

    crate::solver::finalize_columns(a, &ws.bb, &ws.xb, k, opts.tol, &outcome, &mut ws.fin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gmres::gmres;
    use crate::precond::{IdentityPrecond, JacobiPrecond};
    use mcmcmi_matgen::{fd_laplace_2d, laplace_1d};

    #[test]
    fn identity_preconditioner_is_bit_identical_to_gmres() {
        // With P = I, FGMRES's Z basis equals its V basis scaled by the
        // same arithmetic plain GMRES uses on the unpreconditioned system
        // — every operation matches, so the iterates must match bit for
        // bit.
        let a = fd_laplace_2d(10);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin() + 0.2).collect();
        for opts in [
            SolveOptions::default(),
            SolveOptions {
                restart: 7,
                tol: 1e-10,
                ..Default::default()
            },
        ] {
            let rg = gmres(&a, &b, &IdentityPrecond::new(n), opts);
            let rf = fgmres(&a, &b, &IdentityPrecond::new(n), opts);
            assert_eq!(rg.x, rf.x);
            assert_eq!(rg.iterations, rf.iterations);
            assert_eq!(rg.rel_residual, rf.rel_residual);
            assert!(rf.converged);
        }
    }

    #[test]
    fn solves_laplacian_with_jacobi() {
        let a = laplace_1d(50);
        let xs: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).sin()).collect();
        let b = a.spmv_alloc(&xs);
        let r = fgmres(&a, &b, &JacobiPrecond::new(&a), SolveOptions::default());
        assert!(r.converged, "rel_residual = {}", r.rel_residual);
        assert!(r.rel_residual < 1e-7);
        for (p, q) in r.x.iter().zip(&xs) {
            assert!((p - q).abs() < 1e-6);
        }
    }

    #[test]
    fn iteration_counts_track_left_preconditioned_gmres() {
        // Same search space, different residual norms minimised: counts
        // should be close (the perf-record acceptance bounds this at 1.2×
        // with compressed operators; with the exact operator it is
        // essentially tight).
        let a = fd_laplace_2d(14);
        let n = a.nrows();
        let b = vec![1.0; n];
        let jac = JacobiPrecond::new(&a);
        let rg = gmres(&a, &b, &jac, SolveOptions::default());
        let rf = fgmres(&a, &b, &jac, SolveOptions::default());
        assert!(rg.converged && rf.converged);
        let ratio = rf.iterations as f64 / rg.iterations as f64;
        assert!(
            (0.8..=1.2).contains(&ratio),
            "FGMRES {} vs GMRES {}",
            rf.iterations,
            rg.iterations
        );
    }

    #[test]
    fn restart_path_is_exercised() {
        let a = fd_laplace_2d(16);
        let n = a.nrows();
        let xs: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let b = a.spmv_alloc(&xs);
        let opts = SolveOptions {
            restart: 10,
            tol: 1e-10,
            ..Default::default()
        };
        let r = fgmres(&a, &b, &IdentityPrecond::new(n), opts);
        assert!(r.converged);
        assert!(
            r.iterations > 10,
            "must need multiple restarts, got {}",
            r.iterations
        );
    }

    #[test]
    fn batch_bit_identical_to_scalar() {
        use mcmcmi_matgen::{convection_diffusion_2d, ConvectionDiffusionParams};
        let a = convection_diffusion_2d(ConvectionDiffusionParams {
            nx: 9,
            ny: 9,
            eps: 1.0,
            aniso: 0.8,
            wind: 8.0,
            contrast: 0.0,
            wide: false,
        });
        let n = a.nrows();
        let jac = JacobiPrecond::new(&a);
        let rhs: Vec<Vec<f64>> = (0..5)
            .map(|c| {
                (0..n)
                    .map(|i| (i as f64 * (0.29 + 0.05 * c as f64)).sin())
                    .collect()
            })
            .collect();
        // A short restart forces columns through staggered restart phases —
        // the stress case for the lockstep mode machine.
        let opts = SolveOptions {
            restart: 6,
            ..Default::default()
        };
        let batch = fgmres_batch(&a, &rhs, &jac, opts, &mut FgmresBlockWorkspace::new());
        for (c, b) in rhs.iter().enumerate() {
            let scalar = fgmres(&a, b, &jac, opts);
            assert_eq!(batch[c].x, scalar.x, "col {c}");
            assert_eq!(batch[c].iterations, scalar.iterations, "col {c}");
            assert_eq!(batch[c].converged, scalar.converged, "col {c}");
            assert_eq!(batch[c].rel_residual, scalar.rel_residual, "col {c}");
        }
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = laplace_1d(10);
        let b = vec![0.0; 10];
        let r = fgmres(&a, &b, &IdentityPrecond::new(10), SolveOptions::default());
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
        assert!(r.x.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn respects_iteration_cap() {
        let a = fd_laplace_2d(32);
        let n = a.nrows();
        let b = vec![1.0; n];
        let opts = SolveOptions {
            max_iter: 7,
            ..Default::default()
        };
        let r = fgmres(&a, &b, &IdentityPrecond::new(n), opts);
        assert!(!r.converged);
        assert_eq!(r.iterations, 7);
    }
}
