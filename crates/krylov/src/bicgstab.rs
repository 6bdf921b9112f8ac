//! BiCGStab with left preconditioning: scalar driver with a reusable
//! workspace, and the lockstep batched (multi-RHS) driver.

use crate::precond::Preconditioner;
use crate::solver::{
    wrap_scalar, BreakdownKind, ColEnd, ColOutcome, SolveFailure, SolveOptions, SolveResult,
};
use crate::watchdog::Watchdog;
use mcmcmi_dense::{
    axpy, axpy_cols_masked, dot, dot_cols_masked, norm2, norm2_col, norm2_cols_masked, scatter_col,
};
use mcmcmi_sparse::KernelBackend;

/// Reusable scratch for repeated scalar BiCGStab solves on same-size
/// systems (empty until first use). After the first solve, subsequent
/// [`bicgstab_with`] calls allocate nothing beyond the returned solution
/// vector.
#[derive(Clone, Debug, Default)]
pub(crate) struct BiCgStabWorkspace {
    pb: Vec<f64>,
    r: Vec<f64>,
    r_hat: Vec<f64>,
    p: Vec<f64>,
    v: Vec<f64>,
    s: Vec<f64>,
    t: Vec<f64>,
    tmp: Vec<f64>,
    fin: Vec<f64>,
}

/// Solve `PA x = Pb` with the stabilised bi-conjugate gradient method.
///
/// Standard van der Vorst recurrence on the preconditioned operator; one
/// "iteration" here is one full BiCGStab step (two SpMVs + two
/// preconditioner applications), matching the usual reporting convention.
/// Breakdown (`ρ → 0` or `ω → 0`) is flagged rather than panicking, because
/// divergent MCMC preconditioners are *expected* inputs in the paper's
/// dataset (near-zero α rows).
pub fn bicgstab<A: KernelBackend + ?Sized, P: Preconditioner + ?Sized>(
    a: &A,
    b: &[f64],
    precond: &P,
    opts: SolveOptions,
) -> SolveResult {
    bicgstab_with(a, b, precond, opts, &mut BiCgStabWorkspace::default())
}

/// The scalar loop behind [`bicgstab`], on caller-owned scratch
/// ([`BiCgStabWorkspace`]) — zero per-call allocation of the iteration
/// vectors.
pub(crate) fn bicgstab_with<A: KernelBackend + ?Sized, P: Preconditioner + ?Sized>(
    a: &A,
    b: &[f64],
    precond: &P,
    opts: SolveOptions,
    ws: &mut BiCgStabWorkspace,
) -> SolveResult {
    let n = b.len();
    let mut x = vec![0.0; n];

    // Preconditioned residual r = P(b − Ax0) = Pb.
    ws.pb.clear();
    ws.pb.resize(n, 0.0);
    precond.apply(b, &mut ws.pb);
    let pb_norm = norm2(&ws.pb);
    if pb_norm == 0.0 || !pb_norm.is_finite() {
        let failure = (!pb_norm.is_finite()).then(|| SolveFailure::NonFinite {
            what: "preconditioned rhs".to_string(),
        });
        return wrap_scalar(
            a,
            b,
            x,
            0,
            failure,
            opts.tol,
            ColEnd::Preset {
                converged: pb_norm == 0.0,
            },
            &mut ws.fin,
        );
    }

    ws.r.clear();
    ws.r.extend_from_slice(&ws.pb);
    ws.r_hat.clear();
    ws.r_hat.extend_from_slice(&ws.r); // shadow residual
    for buf in [&mut ws.p, &mut ws.v, &mut ws.s, &mut ws.t, &mut ws.tmp] {
        buf.clear();
        buf.resize(n, 0.0);
    }

    let mut rho = 1.0f64;
    let mut alpha = 1.0f64;
    let mut omega = 1.0f64;
    let mut iters = 0usize;
    let mut failure: Option<SolveFailure> = None;
    let mut wd = Watchdog::new(opts.watchdog, opts.tol * pb_norm, opts.max_iter);

    while iters < opts.max_iter {
        iters += 1;
        let rho_new = dot(&ws.r_hat, &ws.r);
        if rho_new.abs() < 1e-300 || !rho_new.is_finite() {
            failure = Some(if !rho_new.is_finite() {
                SolveFailure::NonFinite {
                    what: "ρ".to_string(),
                }
            } else {
                SolveFailure::Breakdown {
                    kind: BreakdownKind::RhoZero,
                    iteration: iters,
                }
            });
            break;
        }
        if iters == 1 {
            ws.p.copy_from_slice(&ws.r);
        } else {
            let beta = (rho_new / rho) * (alpha / omega);
            if !beta.is_finite() {
                failure = Some(SolveFailure::NonFinite {
                    what: "β".to_string(),
                });
                break;
            }
            // p = r + beta (p − omega v)
            for ((pi, &ri), &vi) in ws.p.iter_mut().zip(&ws.r).zip(&ws.v) {
                *pi = ri + beta * (*pi - omega * vi);
            }
        }
        rho = rho_new;
        // v = PA p
        a.spmv(&ws.p, &mut ws.tmp);
        precond.apply(&ws.tmp, &mut ws.v);
        let rhv = dot(&ws.r_hat, &ws.v);
        if rhv.abs() < 1e-300 || !rhv.is_finite() {
            failure = Some(if !rhv.is_finite() {
                SolveFailure::NonFinite {
                    what: "⟨r̂, v⟩".to_string(),
                }
            } else {
                SolveFailure::Breakdown {
                    kind: BreakdownKind::RhatVZero,
                    iteration: iters,
                }
            });
            break;
        }
        alpha = rho / rhv;
        // s = r − alpha v
        for ((si, &ri), &vi) in ws.s.iter_mut().zip(&ws.r).zip(&ws.v) {
            *si = ri - alpha * vi;
        }
        if norm2(&ws.s) <= opts.tol * pb_norm {
            axpy(alpha, &ws.p, &mut x);
            break;
        }
        // t = PA s
        a.spmv(&ws.s, &mut ws.tmp);
        precond.apply(&ws.tmp, &mut ws.t);
        let tt = dot(&ws.t, &ws.t);
        if tt.abs() < 1e-300 || !tt.is_finite() {
            failure = Some(if !tt.is_finite() {
                SolveFailure::NonFinite {
                    what: "⟨t, t⟩".to_string(),
                }
            } else {
                SolveFailure::Breakdown {
                    kind: BreakdownKind::OmegaZero,
                    iteration: iters,
                }
            });
            break;
        }
        omega = dot(&ws.t, &ws.s) / tt;
        if omega.abs() < 1e-300 || !omega.is_finite() {
            failure = Some(if !omega.is_finite() {
                SolveFailure::NonFinite {
                    what: "ω".to_string(),
                }
            } else {
                SolveFailure::Breakdown {
                    kind: BreakdownKind::OmegaZero,
                    iteration: iters,
                }
            });
            break;
        }
        // x += alpha p + omega s
        axpy(alpha, &ws.p, &mut x);
        axpy(omega, &ws.s, &mut x);
        // r = s − omega t
        for ((ri, &si), &ti) in ws.r.iter_mut().zip(&ws.s).zip(&ws.t) {
            *ri = si - omega * ti;
        }
        let rnorm = norm2(&ws.r);
        if rnorm <= opts.tol * pb_norm {
            break;
        }
        if !rnorm.is_finite() {
            failure = Some(SolveFailure::NonFinite {
                what: "residual norm".to_string(),
            });
            break;
        }
        if let Some(f) = wd.observe(rnorm) {
            failure = Some(f);
            break;
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

/// Block workspace for [`bicgstab_batch`]: row-major `n×k` blocks reused
/// across batches of the same (or smaller) width (empty until first use).
#[derive(Clone, Debug, Default)]
pub(crate) struct BiCgStabBlockWorkspace {
    bb: Vec<f64>,
    xb: Vec<f64>,
    pbb: Vec<f64>,
    rb: Vec<f64>,
    rhatb: Vec<f64>,
    pb: Vec<f64>,
    vb: Vec<f64>,
    sb: Vec<f64>,
    tb: Vec<f64>,
    tmpb: Vec<f64>,
    fin: Vec<f64>,
}

/// Lockstep batched BiCGStab: one batch-wide SpMM + block preconditioner
/// application per half-step serves every column, while each column runs
/// exactly the scalar [`bicgstab`] arithmetic — results are bit-identical
/// to sequential single-RHS solves at any thread count, with per-column
/// convergence masking.
///
/// # Panics
/// Panics if `A` is not square or any rhs has the wrong length.
pub(crate) fn bicgstab_batch<A: KernelBackend + ?Sized, P: Preconditioner + ?Sized>(
    a: &A,
    rhs: &[Vec<f64>],
    precond: &P,
    opts: SolveOptions,
    ws: &mut BiCgStabBlockWorkspace,
) -> Vec<SolveResult> {
    assert_eq!(
        a.nrows(),
        a.ncols(),
        "bicgstab_batch: matrix must be square"
    );
    let n = a.nrows();
    let k = rhs.len();
    if k == 0 {
        return Vec::new();
    }
    for b in rhs {
        assert_eq!(b.len(), n, "bicgstab_batch: rhs dimension mismatch");
    }

    ws.bb.clear();
    ws.bb.resize(n * k, 0.0);
    for (c, b) in rhs.iter().enumerate() {
        scatter_col(b, &mut ws.bb, k, c);
    }
    ws.xb.clear();
    ws.xb.resize(n * k, 0.0);

    // Preconditioned rhs block: PB = P·B, one traversal for all columns.
    ws.pbb.clear();
    ws.pbb.resize(n * k, 0.0);
    precond.apply_block(&ws.bb, k, &mut ws.pbb);

    let mut active = vec![true; k];
    let mut outcome = vec![
        ColOutcome {
            iterations: 0,
            failure: None,
            end: ColEnd::Wrapped,
        };
        k
    ];
    let mut pb_norm = vec![0.0f64; k];
    for c in 0..k {
        pb_norm[c] = norm2_col(&ws.pbb, k, c);
        if pb_norm[c] == 0.0 || !pb_norm[c].is_finite() {
            // Scalar early return: keeps its preset `converged`, still
            // measures the true residual.
            active[c] = false;
            outcome[c].failure = (!pb_norm[c].is_finite()).then(|| SolveFailure::NonFinite {
                what: "preconditioned rhs".to_string(),
            });
            outcome[c].end = ColEnd::Preset {
                converged: pb_norm[c] == 0.0,
            };
        }
    }

    ws.rb.clear();
    ws.rb.extend_from_slice(&ws.pbb);
    ws.rhatb.clear();
    ws.rhatb.extend_from_slice(&ws.rb); // shadow residuals
    for buf in [&mut ws.pb, &mut ws.vb, &mut ws.sb, &mut ws.tb, &mut ws.tmpb] {
        buf.clear();
        buf.resize(n * k, 0.0);
    }

    let mut rho = vec![1.0f64; k];
    let mut alpha = vec![1.0f64; k];
    let mut omega = vec![1.0f64; k];
    let mut iters = vec![0usize; k];
    // Columns taking part in the current half-step's shared traversal.
    let mut in_round = vec![false; k];
    // Per-round fused-kernel state: coefficient and reduction arrays.
    let mut rho_new = vec![0.0f64; k];
    let mut beta = vec![0.0f64; k];
    let mut rhv = vec![0.0f64; k];
    let mut snorm = vec![0.0f64; k];
    let mut tt = vec![0.0f64; k];
    let mut ts = vec![0.0f64; k];
    let mut rnorm = vec![0.0f64; k];
    let mut copy_p = vec![false; k];
    let mut recur_p = vec![false; k];
    let mut early_exit = vec![false; k];
    // Per-column watchdogs: same observations, same order as the scalar
    // driver, so lockstep columns trip (or don't) identically.
    let mut wds: Vec<Watchdog> = (0..k)
        .map(|c| Watchdog::new(opts.watchdog, opts.tol * pb_norm[c], opts.max_iter))
        .collect();

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

        // Phase A: ρ update and the search-direction recurrence. Every
        // reduction and elementwise update is one fused sweep over the
        // block in contiguous row order.
        dot_cols_masked(&ws.rhatb, &ws.rb, k, &active, &mut rho_new);
        for c in 0..k {
            in_round[c] = false;
            copy_p[c] = false;
            recur_p[c] = false;
            if !active[c] {
                continue;
            }
            iters[c] += 1;
            if rho_new[c].abs() < 1e-300 || !rho_new[c].is_finite() {
                outcome[c].failure = Some(if !rho_new[c].is_finite() {
                    SolveFailure::NonFinite {
                        what: "ρ".to_string(),
                    }
                } else {
                    SolveFailure::Breakdown {
                        kind: BreakdownKind::RhoZero,
                        iteration: iters[c],
                    }
                });
                outcome[c].iterations = iters[c];
                active[c] = false;
                continue;
            }
            if iters[c] == 1 {
                copy_p[c] = true;
            } else {
                beta[c] = (rho_new[c] / rho[c]) * (alpha[c] / omega[c]);
                if !beta[c].is_finite() {
                    outcome[c].failure = Some(SolveFailure::NonFinite {
                        what: "β".to_string(),
                    });
                    outcome[c].iterations = iters[c];
                    active[c] = false;
                    continue;
                }
                recur_p[c] = true;
            }
            rho[c] = rho_new[c];
            in_round[c] = true;
        }
        if !in_round.iter().any(|&p| p) {
            continue;
        }
        // p = r (first iteration) or p = r + beta (p − omega v); branch-free
        // sweep when every column takes the recurrence (the common case).
        if recur_p.iter().all(|&m| m) {
            for ((pr, rr), vr) in ws
                .pb
                .chunks_exact_mut(k)
                .zip(ws.rb.chunks_exact(k))
                .zip(ws.vb.chunks_exact(k))
            {
                for c in 0..k {
                    pr[c] = rr[c] + beta[c] * (pr[c] - omega[c] * vr[c]);
                }
            }
        } else {
            for ((pr, rr), vr) in ws
                .pb
                .chunks_exact_mut(k)
                .zip(ws.rb.chunks_exact(k))
                .zip(ws.vb.chunks_exact(k))
            {
                for c in 0..k {
                    if copy_p[c] {
                        pr[c] = rr[c];
                    } else if recur_p[c] {
                        pr[c] = rr[c] + beta[c] * (pr[c] - omega[c] * vr[c]);
                    }
                }
            }
        }

        // V = P·A·P-block: one SpMM + one block apply for every column.
        a.spmm(&ws.pb, k, &mut ws.tmpb);
        precond.apply_block(&ws.tmpb, k, &mut ws.vb);

        // Phase B: α, the intermediate residual s, and its early exit.
        dot_cols_masked(&ws.rhatb, &ws.vb, k, &in_round, &mut rhv);
        for c in 0..k {
            if !in_round[c] {
                continue;
            }
            if rhv[c].abs() < 1e-300 || !rhv[c].is_finite() {
                outcome[c].failure = Some(if !rhv[c].is_finite() {
                    SolveFailure::NonFinite {
                        what: "⟨r̂, v⟩".to_string(),
                    }
                } else {
                    SolveFailure::Breakdown {
                        kind: BreakdownKind::RhatVZero,
                        iteration: iters[c],
                    }
                });
                outcome[c].iterations = iters[c];
                active[c] = false;
                in_round[c] = false;
                continue;
            }
            alpha[c] = rho[c] / rhv[c];
        }
        // s = r − alpha v for the surviving columns.
        if in_round.iter().all(|&m| m) {
            for ((sr, rr), vr) in ws
                .sb
                .chunks_exact_mut(k)
                .zip(ws.rb.chunks_exact(k))
                .zip(ws.vb.chunks_exact(k))
            {
                for c in 0..k {
                    sr[c] = rr[c] - alpha[c] * vr[c];
                }
            }
        } else {
            for ((sr, rr), vr) in ws
                .sb
                .chunks_exact_mut(k)
                .zip(ws.rb.chunks_exact(k))
                .zip(ws.vb.chunks_exact(k))
            {
                for c in 0..k {
                    if in_round[c] {
                        sr[c] = rr[c] - alpha[c] * vr[c];
                    }
                }
            }
        }
        norm2_cols_masked(&ws.sb, k, &in_round, &mut snorm);
        for c in 0..k {
            early_exit[c] = false;
            if in_round[c] && snorm[c] <= opts.tol * pb_norm[c] {
                early_exit[c] = true;
                outcome[c].iterations = iters[c];
                active[c] = false;
                in_round[c] = false;
            }
        }
        if early_exit.iter().any(|&e| e) {
            axpy_cols_masked(&alpha, &ws.pb, &mut ws.xb, k, &early_exit);
        }
        if !in_round.iter().any(|&p| p) {
            continue;
        }

        // T = P·A·S-block for the columns still in this iteration.
        a.spmm(&ws.sb, k, &mut ws.tmpb);
        precond.apply_block(&ws.tmpb, k, &mut ws.tb);

        // Phase C: ω, the solution/residual updates, and convergence.
        dot_cols_masked(&ws.tb, &ws.tb, k, &in_round, &mut tt);
        dot_cols_masked(&ws.tb, &ws.sb, k, &in_round, &mut ts);
        for c in 0..k {
            if !in_round[c] {
                continue;
            }
            if tt[c].abs() < 1e-300 || !tt[c].is_finite() {
                outcome[c].failure = Some(if !tt[c].is_finite() {
                    SolveFailure::NonFinite {
                        what: "⟨t, t⟩".to_string(),
                    }
                } else {
                    SolveFailure::Breakdown {
                        kind: BreakdownKind::OmegaZero,
                        iteration: iters[c],
                    }
                });
                outcome[c].iterations = iters[c];
                active[c] = false;
                in_round[c] = false;
                continue;
            }
            omega[c] = ts[c] / tt[c];
            if omega[c].abs() < 1e-300 || !omega[c].is_finite() {
                outcome[c].failure = Some(if !omega[c].is_finite() {
                    SolveFailure::NonFinite {
                        what: "ω".to_string(),
                    }
                } else {
                    SolveFailure::Breakdown {
                        kind: BreakdownKind::OmegaZero,
                        iteration: iters[c],
                    }
                });
                outcome[c].iterations = iters[c];
                active[c] = false;
                in_round[c] = false;
                continue;
            }
        }
        // x += alpha p + omega s (the two updates in scalar order).
        axpy_cols_masked(&alpha, &ws.pb, &mut ws.xb, k, &in_round);
        axpy_cols_masked(&omega, &ws.sb, &mut ws.xb, k, &in_round);
        // r = s − omega t.
        if in_round.iter().all(|&m| m) {
            for ((rr, sr), tr) in ws
                .rb
                .chunks_exact_mut(k)
                .zip(ws.sb.chunks_exact(k))
                .zip(ws.tb.chunks_exact(k))
            {
                for c in 0..k {
                    rr[c] = sr[c] - omega[c] * tr[c];
                }
            }
        } else {
            for ((rr, sr), tr) in ws
                .rb
                .chunks_exact_mut(k)
                .zip(ws.sb.chunks_exact(k))
                .zip(ws.tb.chunks_exact(k))
            {
                for c in 0..k {
                    if in_round[c] {
                        rr[c] = sr[c] - omega[c] * tr[c];
                    }
                }
            }
        }
        norm2_cols_masked(&ws.rb, k, &in_round, &mut rnorm);
        for c in 0..k {
            if !in_round[c] {
                continue;
            }
            if rnorm[c] <= opts.tol * pb_norm[c] {
                outcome[c].iterations = iters[c];
                active[c] = false;
                continue;
            }
            if !rnorm[c].is_finite() {
                outcome[c].failure = Some(SolveFailure::NonFinite {
                    what: "residual norm".to_string(),
                });
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
        }
    }

    crate::solver::finalize_columns(a, &ws.bb, &ws.xb, k, opts.tol, &outcome, &mut ws.fin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{IdentityPrecond, JacobiPrecond};
    use mcmcmi_matgen::{
        convection_diffusion_2d, laplace_1d, pdd_real_sparse, ConvectionDiffusionParams,
    };

    #[test]
    fn solves_spd_system() {
        let a = laplace_1d(40);
        let xs: Vec<f64> = (0..40).map(|i| (i as f64 * 0.2).cos()).collect();
        let b = a.spmv_alloc(&xs);
        let r = bicgstab(&a, &b, &IdentityPrecond::new(40), SolveOptions::default());
        assert!(r.converged, "rel_residual = {}", r.rel_residual);
        for (p, q) in r.x.iter().zip(&xs) {
            assert!((p - q).abs() < 1e-5);
        }
    }

    #[test]
    fn solves_nonsymmetric_system() {
        let a = convection_diffusion_2d(ConvectionDiffusionParams {
            nx: 10,
            ny: 10,
            eps: 1.0,
            aniso: 0.5,
            wind: 15.0,
            contrast: 0.0,
            wide: false,
        });
        let n = a.nrows();
        let xs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).sin()).collect();
        let b = a.spmv_alloc(&xs);
        let r = bicgstab(&a, &b, &JacobiPrecond::new(&a), SolveOptions::default());
        assert!(r.converged, "rel_residual = {}", r.rel_residual);
    }

    #[test]
    fn diagonally_dominant_system_is_fast() {
        let a = pdd_real_sparse(128, 128);
        let n = a.nrows();
        let b = vec![1.0; n];
        let r = bicgstab(&a, &b, &IdentityPrecond::new(n), SolveOptions::default());
        assert!(r.converged);
        assert!(r.iterations < 60, "iterations = {}", r.iterations);
    }

    #[test]
    fn zero_rhs_short_circuits() {
        let a = laplace_1d(8);
        let r = bicgstab(
            &a,
            &[0.0; 8],
            &IdentityPrecond::new(8),
            SolveOptions::default(),
        );
        assert!(r.converged);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn iteration_cap_respected() {
        let a = mcmcmi_matgen::fd_laplace_2d(24);
        let n = a.nrows();
        let opts = SolveOptions {
            max_iter: 3,
            ..Default::default()
        };
        let r = bicgstab(&a, &vec![1.0; n], &IdentityPrecond::new(n), opts);
        assert!(!r.converged);
        assert!(r.iterations <= 3);
    }
}
