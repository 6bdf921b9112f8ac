//! True block conjugate gradients (O'Leary 1980) for SPD systems with
//! multiple right-hand sides.
//!
//! Unlike the lockstep driver ([`crate::cg::cg_batch`]), which runs `k`
//! *independent* CG recurrences over shared matrix traversals, block CG
//! couples the right-hand sides: search directions are shared across the
//! block, so information from one rhs accelerates the others and the
//! iteration count is governed by the spectrum of `A` *deflated by k−1
//! directions* — often far fewer iterations than scalar CG on hard
//! systems. The price is k×k direction coupling solves per step and a
//! breakdown mode when rhs columns become linearly dependent; callers
//! wanting bit-identical-to-scalar results should use the lockstep driver
//! instead.

use crate::cg::cg;
use crate::precond::Preconditioner;
use crate::solver::{classify, ColEnd, SolveFailure, SolveOptions, SolveResult};
use mcmcmi_dense::{norm2_col, scatter_col, Lu, Mat};
use mcmcmi_sparse::KernelBackend;

/// Dot of column `ci` of block `x` with column `cj` of block `y`
/// (row-major `n×k` blocks). Block CG has no bit-identity contract, so
/// this is a plain strided loop.
fn dot_cols(x: &[f64], y: &[f64], k: usize, ci: usize, cj: usize) -> f64 {
    let mut s = 0.0;
    for (xi, yi) in x[ci..].iter().step_by(k).zip(y[cj..].iter().step_by(k)) {
        s += xi * yi;
    }
    s
}

/// `G ← Xᵀ·Y` for two row-major `n×k` blocks (small k×k Gram matrix).
fn gram(x: &[f64], y: &[f64], k: usize) -> Mat {
    let mut g = Mat::zeros(k, k);
    for i in 0..k {
        for j in 0..k {
            g.set(i, j, dot_cols(x, y, k, i, j));
        }
    }
    g
}

/// Solve the k×k SPD Gram system `M·C = R` column by column; `None` on
/// rank collapse — the block columns behind `M` have become (near-)
/// linearly dependent.
///
/// The guard runs on the *correlation* form `M_ij / √(M_ii·M_jj)`: an SPD
/// Gram matrix's correlation form goes singular exactly when the
/// underlying columns become dependent, independently of per-column
/// residual scales (which legitimately spread across orders of magnitude
/// as a block converges).
fn solve_small(m: &Mat, rhs: &Mat) -> Option<Mat> {
    let k = m.nrows();
    let mut d = vec![0.0; k];
    for (i, di) in d.iter_mut().enumerate() {
        let mii = m.get(i, i);
        if mii <= 0.0 || !mii.is_finite() {
            return None;
        }
        *di = mii.sqrt();
    }
    let mut corr = Mat::zeros(k, k);
    for i in 0..k {
        for j in 0..k {
            corr.set(i, j, m.get(i, j) / (d[i] * d[j]));
        }
    }
    let guard = Lu::new(&corr);
    if guard.is_singular() || guard.pivot_ratio() < 1e-12 {
        return None;
    }
    let lu = Lu::new(m);
    let mut out = Mat::zeros(k, k);
    let mut col = vec![0.0; k];
    for j in 0..k {
        for i in 0..k {
            col[i] = rhs.get(i, j);
        }
        let sol = lu.solve(&col)?;
        for i in 0..k {
            out.set(i, j, sol[i]);
        }
    }
    Some(out)
}

/// `Y[:,j] += Σ_i C[i][j]·X[:,i]` — block update `Y += X·C` over row-major
/// `n×k` blocks with a k×k coefficient matrix.
fn block_axpy(coeff: &Mat, x: &[f64], y: &mut [f64], k: usize, sign: f64) {
    for (yrow, xrow) in y.chunks_exact_mut(k).zip(x.chunks_exact(k)) {
        for (j, yj) in yrow.iter_mut().enumerate() {
            let mut acc = 0.0;
            for (i, &xi) in xrow.iter().enumerate() {
                acc += coeff.get(i, j) * xi;
            }
            *yj += sign * acc;
        }
    }
}

/// Preconditioned block CG with deflation and a scalar fallback: solve
/// `A·x_c = b_c` for all `rhs` columns with shared search directions.
///
/// `A` must be SPD and the preconditioner symmetric (pass
/// [`crate::precond::SparsePrecond::symmetrized`] for MCMC inverses, as
/// with scalar CG). Zero right-hand sides are solved trivially and
/// excluded from the block. A column whose recursive residual converges is
/// *deflated*: frozen at its converged iterate and dropped from the block,
/// and the reduced recurrence restarts from the current residuals — the
/// standard cure for the ill-conditioning a near-zero residual column
/// inflicts on the k×k coupling solves. If the block's residual columns
/// become (near-)linearly dependent — duplicate right-hand sides, or
/// residuals collapsing onto a shared error direction — the coupling
/// solves are abandoned *before* they poison the iterates, and each
/// still-active column finishes with a warm-started scalar [`cg`]
/// correction solve from its current iterate. Every rhs set is therefore
/// handled; `breakdown` is only reported if a fallback solve itself
/// breaks down.
///
/// Reported `iterations` is the number of *block* steps at which that
/// column's recursive residual first converged (every block step costs one
/// SpMM + one block preconditioner application); for columns finished by
/// the scalar fallback it additionally counts the scalar CG iterations.
///
/// # Panics
/// Panics if `A` is not square or any rhs has the wrong length.
pub fn block_cg<A: KernelBackend + ?Sized, P: Preconditioner + ?Sized>(
    a: &A,
    rhs: &[Vec<f64>],
    precond: &P,
    opts: SolveOptions,
) -> Vec<SolveResult> {
    assert_eq!(a.nrows(), a.ncols(), "block_cg: matrix must be square");
    let n = a.nrows();
    for b in rhs {
        assert_eq!(b.len(), n, "block_cg: rhs dimension mismatch");
    }
    if rhs.is_empty() {
        return Vec::new();
    }
    let k_orig = rhs.len();
    let b_norm_orig: Vec<f64> = rhs.iter().map(|b| mcmcmi_dense::norm2(b)).collect();

    // Active block: original column indices still being iterated. Zero
    // right-hand sides are trivially solved and never enter the block
    // (they would make the very first Gram matrix singular).
    let mut act: Vec<usize> = (0..k_orig).filter(|&c| b_norm_orig[c] > 0.0).collect();
    let mut x_final: Vec<Vec<f64>> = vec![vec![0.0; n]; k_orig];
    let mut conv_at = vec![0usize; k_orig]; // block step at first convergence
    let mut col_failure: Vec<Option<SolveFailure>> = vec![None; k_orig];
    let mut converged = vec![false; k_orig];
    for c in 0..k_orig {
        converged[c] = b_norm_orig[c] == 0.0;
    }

    // Pack the active columns into row-major blocks and (re)start the
    // reduced recurrence: Z = M·R, P = Z, ρ = Zᵀ R.
    let mut steps = 0usize;
    let mut collapsed = false;
    while !act.is_empty() && steps < opts.max_iter && !collapsed {
        let k = act.len();
        let mut xb = vec![0.0; n * k];
        for (c, &orig) in act.iter().enumerate() {
            scatter_col(&x_final[orig], &mut xb, k, c);
        }
        // R = B − A·X for the current frozen-at-restart X: one traversal
        // serves every active column.
        let mut rb = vec![0.0; n * k];
        a.spmm(&xb, k, &mut rb);
        for (c, &orig) in act.iter().enumerate() {
            for (ri, &bi) in rb[c..].iter_mut().step_by(k).zip(&rhs[orig]) {
                *ri = bi - *ri;
            }
        }
        let mut zb = vec![0.0; n * k];
        precond.apply_block(&rb, k, &mut zb);
        let mut pb = zb.clone();
        let mut qb = vec![0.0; n * k]; // A·P
        let mut np = vec![0.0; n * k]; // next P
        let mut rho = gram(&zb, &rb, k);

        // Iterate the k-wide block until a deflation event (some column
        // converges), a breakdown, or the step budget runs out.
        let mut deflate: Vec<usize> = Vec::new(); // positions within `act`
        while steps < opts.max_iter {
            steps += 1;
            a.spmm(&pb, k, &mut qb);
            let pq = gram(&pb, &qb, k);
            // α = (PᵀAP)⁻¹ (ZᵀR): direction-coupling solve.
            let Some(alpha) = solve_small(&pq, &rho) else {
                collapsed = true;
                steps -= 1; // this step performed no update
                break;
            };
            block_axpy(&alpha, &pb, &mut xb, k, 1.0);
            block_axpy(&alpha, &qb, &mut rb, k, -1.0);
            for (c, &orig) in act.iter().enumerate() {
                if norm2_col(&rb, k, c) <= opts.tol * b_norm_orig[orig] {
                    deflate.push(c);
                }
            }
            if !deflate.is_empty() {
                break;
            }
            precond.apply_block(&rb, k, &mut zb);
            let rho_new = gram(&zb, &rb, k);
            // β = ρ⁻¹ ρ_new keeps the new directions A-conjugate to the old.
            let Some(beta) = solve_small(&rho, &rho_new) else {
                collapsed = true;
                break;
            };
            np.copy_from_slice(&zb);
            block_axpy(&beta, &pb, &mut np, k, 1.0);
            std::mem::swap(&mut pb, &mut np);
            rho = rho_new;
        }

        // Harvest the block state: everyone's current iterate, and retire
        // the deflated columns.
        for (c, &orig) in act.iter().enumerate() {
            mcmcmi_dense::gather_col(&xb, k, c, &mut x_final[orig]);
        }
        for &c in deflate.iter().rev() {
            let orig = act.remove(c);
            converged[orig] = true;
            conv_at[orig] = steps;
        }
    }
    let mut final_steps = vec![steps; k_orig];

    // Rank collapse: the block's residual columns went (near-)dependent,
    // so coupled directions can no longer serve them all. Finish each
    // still-active column with a warm-started scalar CG correction solve
    // `A·dx = b − A·x` from its current iterate.
    if collapsed {
        for &orig in &act {
            let mut ax = vec![0.0; n];
            a.spmv(&x_final[orig], &mut ax);
            let r: Vec<f64> = rhs[orig]
                .iter()
                .zip(&ax)
                .map(|(&bi, &ai)| bi - ai)
                .collect();
            let rn = mcmcmi_dense::norm2(&r);
            if rn <= opts.tol * b_norm_orig[orig] {
                converged[orig] = true;
                conv_at[orig] = steps;
                continue;
            }
            // The correction must shrink ‖b − Ax‖ below tol·‖b‖, i.e. the
            // sub-solve's own relative target is tol·‖b‖/‖r‖.
            let sub_opts = SolveOptions {
                tol: (opts.tol * b_norm_orig[orig] / rn).min(0.5),
                max_iter: opts.max_iter.saturating_sub(steps).max(1),
                ..opts
            };
            let sub = cg(a, &r, precond, sub_opts);
            for (xi, di) in x_final[orig].iter_mut().zip(&sub.x) {
                *xi += di;
            }
            if let Some(f @ (SolveFailure::Breakdown { .. } | SolveFailure::NonFinite { .. })) =
                sub.failure()
            {
                col_failure[orig] = Some(f.clone());
            }
            converged[orig] = sub.converged;
            conv_at[orig] = steps + sub.iterations;
            final_steps[orig] = steps + sub.iterations;
        }
    }

    // True-residual verification, one SpMM for the whole original batch.
    let mut xfull = vec![0.0; n * k_orig];
    for (c, x) in x_final.iter().enumerate() {
        scatter_col(x, &mut xfull, k_orig, c);
    }
    let mut axb = vec![0.0; n * k_orig];
    a.spmm(&xfull, k_orig, &mut axb);
    (0..k_orig)
        .map(|c| {
            for (ri, bi) in axb[c..].iter_mut().step_by(k_orig).zip(&rhs[c]) {
                *ri = bi - *ri;
            }
            let rn = norm2_col(&axb, k_orig, c);
            let rel = if b_norm_orig[c] > 0.0 {
                rn / b_norm_orig[c]
            } else {
                rn
            };
            let iterations = if converged[c] {
                conv_at[c]
            } else {
                final_steps[c]
            };
            classify(
                std::mem::take(&mut x_final[c]),
                iterations,
                rel,
                col_failure[c].take(),
                opts.tol,
                ColEnd::Wrapped,
                if b_norm_orig[c] > 0.0 { 1.0 } else { 0.0 },
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::cg;
    use crate::precond::{IdentityPrecond, JacobiPrecond};
    use mcmcmi_matgen::{fd_laplace_2d, laplace_1d, spd_random};

    /// Linearly independent right-hand sides: the frequency varies per
    /// column (phase-shifted copies of one sinusoid would span only a
    /// 3-dimensional space and make any k ≥ 4 block rank-deficient).
    fn rhs_set(n: usize, k: usize) -> Vec<Vec<f64>> {
        (0..k)
            .map(|c| {
                (0..n)
                    .map(|i| (i as f64 * (0.29 + 0.083 * c as f64) + 1.3 * c as f64).sin())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn block_cg_agrees_with_scalar_cg_on_laplacian() {
        let a = fd_laplace_2d(12);
        let n = a.nrows();
        let rhs = rhs_set(n, 4);
        let opts = SolveOptions {
            tol: 1e-10,
            ..Default::default()
        };
        let block = block_cg(&a, &rhs, &IdentityPrecond::new(n), opts);
        for (c, b) in rhs.iter().enumerate() {
            let scalar = cg(&a, b, &IdentityPrecond::new(n), opts);
            assert!(block[c].converged, "col {c}: {:?}", block[c].rel_residual);
            assert!(scalar.converged);
            for (p, q) in block[c].x.iter().zip(&scalar.x) {
                assert!((p - q).abs() < 1e-6, "col {c}: {p} vs {q}");
            }
        }
    }

    #[test]
    fn block_cg_converges_in_fewer_block_steps_than_scalar_cg() {
        // The whole point of sharing search directions: k rhs deflate the
        // spectrum, so block steps < scalar iterations on a hard system.
        let a = fd_laplace_2d(16);
        let n = a.nrows();
        let rhs = rhs_set(n, 6);
        let opts = SolveOptions {
            tol: 1e-8,
            ..Default::default()
        };
        let block = block_cg(&a, &rhs, &IdentityPrecond::new(n), opts);
        let scalar_max = rhs
            .iter()
            .map(|b| cg(&a, b, &IdentityPrecond::new(n), opts).iterations)
            .max()
            .unwrap();
        let block_max = block.iter().map(|r| r.iterations).max().unwrap();
        assert!(block.iter().all(|r| r.converged));
        assert!(
            block_max < scalar_max,
            "block {block_max} !< scalar {scalar_max}"
        );
    }

    #[test]
    fn block_cg_with_jacobi_on_spd_random() {
        let a = spd_random(50, 200.0, 3);
        let n = a.nrows();
        let rhs = rhs_set(n, 3);
        let opts = SolveOptions {
            tol: 1e-9,
            ..Default::default()
        };
        let results = block_cg(&a, &rhs, &JacobiPrecond::new(&a), opts);
        for (c, r) in results.iter().enumerate() {
            assert!(r.converged, "col {c}: rel {}", r.rel_residual);
            let mut resid = a.spmv_alloc(&r.x);
            for (ri, bi) in resid.iter_mut().zip(&rhs[c]) {
                *ri = bi - *ri;
            }
            let rel = mcmcmi_dense::norm2(&resid) / mcmcmi_dense::norm2(&rhs[c]);
            assert!(rel < 1e-7, "col {c}: {rel}");
        }
    }

    #[test]
    fn zero_rhs_column_is_trivial_and_excluded() {
        let a = laplace_1d(20);
        let mut rhs = rhs_set(20, 3);
        rhs[1] = vec![0.0; 20];
        let results = block_cg(&a, &rhs, &IdentityPrecond::new(20), SolveOptions::default());
        assert!(results[1].converged);
        assert_eq!(results[1].iterations, 0);
        assert!(results[1].x.iter().all(|&v| v == 0.0));
        assert!(results[0].converged && results[2].converged);
    }

    #[test]
    fn duplicate_rhs_columns_fall_back_to_scalar_and_converge() {
        // An exactly rank-deficient block: the coupling guard must trip
        // immediately and the scalar fallback must still solve both.
        let a = laplace_1d(16);
        let b: Vec<f64> = (0..16).map(|i| (i as f64 * 0.3).cos()).collect();
        let rhs = vec![b.clone(), b];
        let results = block_cg(&a, &rhs, &IdentityPrecond::new(16), SolveOptions::default());
        assert!(results.iter().all(|r| r.converged));
        assert_eq!(results[0].x, results[1].x);
    }

    #[test]
    fn empty_batch_is_empty() {
        let a = laplace_1d(4);
        assert!(block_cg(&a, &[], &IdentityPrecond::new(4), SolveOptions::default()).is_empty());
    }
}
