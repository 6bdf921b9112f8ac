//! Warm-started solves: seed any driver with an initial guess `x₀`.
//!
//! Drift sequences (time-stepping PDEs, Newton Jacobians) solve a *stream*
//! of nearby systems, and the previous step's solution is an excellent
//! initial guess for the next. None of the drivers take an `x₀` directly —
//! they all start from zero so their clean paths stay allocation-free and
//! bit-reproducible — so warm starting is layered on top via the classical
//! correction split:
//!
//! ```text
//! r₀ = b − A·x₀        (one SpMV)
//! solve A·e = r₀       to tolerance tol′ = tol / (‖r₀‖/‖b‖)
//! x  = x₀ + e
//! ```
//!
//! The inner tolerance is *adjusted*, not the rhs scaled: a relative
//! convergence criterion is scale-invariant, so solving the residual system
//! at the unchanged relative tolerance would spend exactly the cold-start
//! iteration count and the warm start would buy nothing. With
//! `tol′ = tol / init_rel` the inner stopping test `‖r₀ − A·e‖ ≤ tol′·‖r₀‖`
//! is algebraically the outer contract `‖b − A·x‖ ≤ tol·‖b‖`, and the
//! iteration count shrinks with the quality of the guess.
//!
//! Contracts, per column (the harness is written once, over columns; a
//! single solve is a batch of width one):
//! - **Cold columns** — no guess, an all-zero guess, a zero rhs, or a guess
//!   whose residual is not finite (a poisoned guess must not poison the
//!   split) — ride the inner solve on their original rhs, and when every
//!   column that reaches the driver is cold the driver's results are
//!   returned as they are: **bit-identical** to a cold solve.
//! - `‖r₀‖/‖b‖ ≤ tol` returns `x₀` immediately as converged with zero
//!   iterations — the guard that keeps the stagnation watchdog (and the
//!   driver itself) from ever running on an already-converged iterate.
//! - Otherwise the column solves its correction system, and the result is
//!   re-measured against the *outer* system (`rel_residual` is the true
//!   ‖b − A·x‖/‖b‖, the `converged` flag re-derived from it), with
//!   [`SolveResult::initial_rel_residual`] recording ‖r₀‖/‖b‖ so callers
//!   can see how much the guess bought.
//! - One inner solve has one tolerance, so a batch runs at
//!   `tol′ = tol / max_c(init_rel_c)` over the columns that reach the
//!   driver (a cold column counts 1): every column is then guaranteed
//!   `‖b_c − A·x_c‖ ≤ tol·‖b_c‖`, with columns whose guess was better than
//!   the worst one solved slightly deeper than strictly necessary. When
//!   that moves `tol′` off `tol`, cold columns are re-measured at the outer
//!   tolerance too, since the driver's flags then answer a different
//!   question.

use crate::precond::Preconditioner;
use crate::solver::{
    classify, only, solve_columns, wrap_scalar, ColEnd, SolveOptions, SolveResult, SolverType,
    Workspaces,
};
use mcmcmi_dense::norm2;
use mcmcmi_sparse::KernelBackend;

/// [`crate::solve`] with an initial guess: the warm harness at width one.
///
/// See the module docs for the exact contracts; in short: `None`/zero
/// guesses are bit-identical to [`crate::solve`], an already-converged
/// guess returns immediately without running the driver, and anything else
/// costs two extra SpMVs (initial residual + honest final re-measure) plus
/// the correction solve.
///
/// # Panics
/// Panics if dimensions disagree.
pub fn solve_warm<A: KernelBackend + ?Sized, P: Preconditioner + ?Sized>(
    a: &A,
    b: &[f64],
    x0: Option<&[f64]>,
    precond: &P,
    solver: SolverType,
    opts: SolveOptions,
) -> SolveResult {
    let (rhs, guess) = ([b.to_vec()], x0.map(|x| [x.to_vec()]));
    let guess = guess.as_ref().map(|g| &g[..]);
    let ws = &mut Workspaces::default();
    only(warm_columns(a, precond, solver, opts, &rhs, guess, ws))
}

/// What the split decided for one column; the payload is its initial
/// relative residual ‖b − A·x₀‖/‖b‖.
enum WarmCol {
    /// The guess already satisfies the contract: `x₀` verbatim.
    Converged(f64),
    /// Solves the correction system `A·e = r₀`; the guess is added back.
    Correction(f64),
    /// Rides the inner batch on its original rhs.
    Cold,
}

/// The warm harness: split each column into `x₀ + e`, hand the systems that
/// still need a driver to the crate's dispatch at the shared adjusted
/// tolerance, and re-finalize against the outer systems.
pub(crate) fn warm_columns<A: KernelBackend + ?Sized, P: Preconditioner + ?Sized>(
    a: &A,
    precond: &P,
    solver: SolverType,
    opts: SolveOptions,
    rhs: &[Vec<f64>],
    x0: Option<&[Vec<f64>]>,
    ws: &mut Workspaces,
) -> Vec<SolveResult> {
    let Some(guesses) = x0 else {
        return solve_columns(a, precond, solver, opts, rhs, ws);
    };
    assert_eq!(guesses.len(), rhs.len(), "solve_warm: x0 width mismatch");

    let mut cols = Vec::with_capacity(rhs.len());
    let mut inner_rhs: Vec<Vec<f64>> = Vec::new();
    let mut worst = 0.0f64;
    for (b, g) in rhs.iter().zip(guesses) {
        assert_eq!(g.len(), b.len(), "solve_warm: x0 dimension mismatch");
        let bn = norm2(b);
        if bn > 0.0 && g.iter().any(|&v| v != 0.0) {
            // r₀ = b − A·x₀: the one SpMV a warm start costs up front.
            let mut r0 = vec![0.0; b.len()];
            a.spmv(g, &mut r0);
            for (ri, &bi) in r0.iter_mut().zip(b) {
                *ri = bi - *ri;
            }
            let init_rel = norm2(&r0) / bn;
            if init_rel.is_finite() {
                if init_rel <= opts.tol {
                    cols.push(WarmCol::Converged(init_rel));
                } else {
                    cols.push(WarmCol::Correction(init_rel));
                    inner_rhs.push(r0);
                    worst = worst.max(init_rel);
                }
                continue;
            }
        }
        cols.push(WarmCol::Cold);
        inner_rhs.push(b.clone());
        worst = worst.max(if bn > 0.0 { 1.0 } else { 0.0 });
    }

    // `tol′ = tol / init_rel` makes the inner relative test equal the outer
    // one (module docs); the worst column dictates it for the batch.
    let inner_opts = SolveOptions {
        tol: if worst > 0.0 {
            opts.tol / worst
        } else {
            opts.tol
        },
        ..opts
    };
    let mut inner = solve_columns(a, precond, solver, inner_opts, &inner_rhs, ws).into_iter();

    let mut scratch = Vec::new();
    cols.into_iter()
        .zip(rhs.iter().zip(guesses))
        .map(|(col, (b, g))| {
            let init_rel = match col {
                WarmCol::Converged(init_rel) => {
                    // Zero iterations: the driver (and its stagnation
                    // watchdog) never sees a flat residual at convergence.
                    let preset = ColEnd::Preset { converged: true };
                    return classify(g.clone(), 0, init_rel, None, opts.tol, preset, init_rel);
                }
                WarmCol::Correction(init_rel) => Some(init_rel),
                WarmCol::Cold => None,
            };
            // Columns reached the driver in the order they are visited here.
            let mut r = inner.next().expect("one inner result per driver column");
            if init_rel.is_none() && inner_opts.tol == opts.tol {
                return r;
            }
            if init_rel.is_some() {
                for (xi, &x0i) in r.x.iter_mut().zip(g) {
                    *xi += x0i;
                }
            }
            let failure = r.failure().cloned();
            let (tol, end) = (opts.tol, ColEnd::Wrapped);
            let mut out = wrap_scalar(a, b, r.x, r.iterations, failure, tol, end, &mut scratch);
            if let Some(init_rel) = init_rel {
                out.initial_rel_residual = init_rel;
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::JacobiPrecond;
    use crate::solver::{solve, solve_batch};
    use mcmcmi_matgen::{convection_diffusion_2d, fd_laplace_2d, ConvectionDiffusionParams};

    /// The harness over a batch, through its public entry point.
    fn solve_batch_warm(
        a: &mcmcmi_sparse::Csr,
        rhs: &[Vec<f64>],
        x0: Option<&[Vec<f64>]>,
        p: &JacobiPrecond,
        solver: SolverType,
        opts: SolveOptions,
    ) -> Vec<SolveResult> {
        crate::SolveSession::new(a.clone(), p, solver, opts).solve_batch_warm(rhs, x0)
    }

    const ALL: [SolverType; 5] = [
        SolverType::Cg,
        SolverType::BiCgStab,
        SolverType::Gmres,
        SolverType::Fgmres,
        SolverType::FCg,
    ];

    fn rhs_for(n: usize, seed: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i + 3 * seed) as f64 * 0.37 + seed as f64).sin())
            .collect()
    }

    #[test]
    fn zero_guess_is_bit_identical_to_cold_solve() {
        let a = fd_laplace_2d(10);
        let n = a.nrows();
        let p = JacobiPrecond::new(&a);
        let b = rhs_for(n, 1);
        for solver in ALL {
            let cold = solve(&a, &b, &p, solver, SolveOptions::default());
            let none = solve_warm(&a, &b, None, &p, solver, SolveOptions::default());
            let zeros = vec![0.0; n];
            let z = solve_warm(&a, &b, Some(&zeros), &p, solver, SolveOptions::default());
            assert_eq!(cold.x, none.x, "{solver:?}");
            assert_eq!(cold.x, z.x, "{solver:?}");
            assert_eq!(cold.iterations, z.iterations, "{solver:?}");
            assert_eq!(cold.rel_residual, z.rel_residual, "{solver:?}");
            assert_eq!(z.initial_rel_residual, 1.0, "{solver:?}");
        }
    }

    #[test]
    fn exact_guess_returns_immediately_without_tripping_anything() {
        let a = fd_laplace_2d(8);
        let n = a.nrows();
        let p = JacobiPrecond::new(&a);
        let b = rhs_for(n, 2);
        for solver in ALL {
            let cold = solve(&a, &b, &p, solver, SolveOptions::default());
            assert!(cold.converged);
            let warm = solve_warm(&a, &b, Some(&cold.x), &p, solver, SolveOptions::default());
            assert!(warm.converged, "{solver:?}");
            assert_eq!(warm.iterations, 0, "{solver:?}");
            assert_eq!(warm.x, cold.x, "{solver:?}");
            assert!(warm.initial_rel_residual <= SolveOptions::default().tol);
        }
    }

    #[test]
    fn good_guess_cuts_iterations_and_still_meets_the_outer_contract() {
        let a = fd_laplace_2d(16);
        let n = a.nrows();
        let p = JacobiPrecond::new(&a);
        let b = rhs_for(n, 3);
        for solver in ALL {
            let cold = solve(&a, &b, &p, solver, SolveOptions::default());
            assert!(cold.converged);
            // Perturb the exact answer slightly: a realistic drift guess.
            let guess: Vec<f64> = cold.x.iter().map(|&v| v * (1.0 + 1e-4)).collect();
            let warm = solve_warm(&a, &b, Some(&guess), &p, solver, SolveOptions::default());
            assert!(warm.converged, "{solver:?}");
            assert!(
                warm.iterations < cold.iterations,
                "{solver:?}: warm {} !< cold {}",
                warm.iterations,
                cold.iterations
            );
            assert!(
                warm.rel_residual <= SolveOptions::default().tol * crate::CONVERGENCE_SLACK,
                "{solver:?}: outer contract violated ({})",
                warm.rel_residual
            );
            assert!(warm.initial_rel_residual > SolveOptions::default().tol);
            assert!(warm.initial_rel_residual < 1e-2, "{solver:?}");
        }
    }

    #[test]
    fn batch_zero_guesses_bit_identical_to_cold_batch() {
        let a = convection_diffusion_2d(ConvectionDiffusionParams {
            nx: 8,
            ny: 8,
            eps: 1.0,
            aniso: 1.0,
            wind: 4.0,
            contrast: 0.0,
            wide: false,
        });
        let n = a.nrows();
        let p = JacobiPrecond::new(&a);
        let rhs: Vec<Vec<f64>> = (0..3).map(|c| rhs_for(n, c)).collect();
        let zeros: Vec<Vec<f64>> = (0..3).map(|_| vec![0.0; n]).collect();
        for solver in [SolverType::BiCgStab, SolverType::Gmres, SolverType::Fgmres] {
            let cold = solve_batch(&a, &rhs, &p, solver, SolveOptions::default());
            let warm =
                solve_batch_warm(&a, &rhs, Some(&zeros), &p, solver, SolveOptions::default());
            for (c, (p0, q0)) in cold.iter().zip(&warm).enumerate() {
                assert_eq!(p0.x, q0.x, "{solver:?} col {c}");
                assert_eq!(p0.iterations, q0.iterations, "{solver:?} col {c}");
            }
        }
    }

    #[test]
    fn batch_mixed_columns_warm_converged_and_cold() {
        let a = fd_laplace_2d(12);
        let n = a.nrows();
        let p = JacobiPrecond::new(&a);
        let opts = SolveOptions::default();
        let rhs: Vec<Vec<f64>> = (0..3).map(|c| rhs_for(n, c + 7)).collect();
        let exact: Vec<SolveResult> = rhs
            .iter()
            .map(|b| solve(&a, b, &p, SolverType::Cg, opts))
            .collect();
        // Col 0: exact guess (early return); col 1: perturbed (warm);
        // col 2: zero guess (cold ride-along).
        let guesses = vec![
            exact[0].x.clone(),
            exact[1].x.iter().map(|&v| v * (1.0 + 1e-4)).collect(),
            vec![0.0; n],
        ];
        let warm = solve_batch_warm(&a, &rhs, Some(&guesses), &p, SolverType::Cg, opts);
        assert!(warm.iter().all(|r| r.converged));
        assert_eq!(warm[0].iterations, 0, "exact guess short-circuits");
        // The cold ride-along pins the shared tolerance at `tol`, so the
        // warm column over-solves to full depth — no savings in a mixed
        // batch (the all-warm case below is where iterations drop).
        assert!(warm[1].iterations <= exact[1].iterations + 1);
        assert!(warm[1].initial_rel_residual < 1e-2, "warm col measured");
        assert_eq!(warm[2].initial_rel_residual, 1.0, "cold col reports 1.0");
        for (r, b) in warm.iter().zip(&rhs) {
            let mut ax = vec![0.0; n];
            a.spmv(&r.x, &mut ax);
            let rn: f64 = ax
                .iter()
                .zip(b)
                .map(|(axi, bi)| (bi - axi) * (bi - axi))
                .sum::<f64>()
                .sqrt();
            let bn = norm2(b);
            assert!(rn / bn <= opts.tol * crate::CONVERGENCE_SLACK);
        }
    }

    #[test]
    fn all_warm_batch_cuts_iterations() {
        let a = fd_laplace_2d(16);
        let n = a.nrows();
        let p = JacobiPrecond::new(&a);
        let opts = SolveOptions::default();
        let rhs: Vec<Vec<f64>> = (0..3).map(|c| rhs_for(n, c + 11)).collect();
        let cold = solve_batch(&a, &rhs, &p, SolverType::Cg, opts);
        assert!(cold.iter().all(|r| r.converged));
        let guesses: Vec<Vec<f64>> = cold
            .iter()
            .map(|r| r.x.iter().map(|&v| v * (1.0 + 1e-4)).collect())
            .collect();
        let warm = solve_batch_warm(&a, &rhs, Some(&guesses), &p, SolverType::Cg, opts);
        for (c, (w, k)) in warm.iter().zip(&cold).enumerate() {
            assert!(w.converged, "col {c}");
            assert!(
                w.iterations < k.iterations,
                "col {c}: warm {} !< cold {}",
                w.iterations,
                k.iterations
            );
            assert!(
                w.rel_residual <= opts.tol * crate::CONVERGENCE_SLACK,
                "col {c}"
            );
        }
    }

    #[test]
    fn zero_rhs_delegates_to_cold_path() {
        let a = fd_laplace_2d(6);
        let n = a.nrows();
        let p = JacobiPrecond::new(&a);
        let guess = vec![1.0; n];
        let r = solve_warm(
            &a,
            &vec![0.0; n],
            Some(&guess),
            &p,
            SolverType::Cg,
            SolveOptions::default(),
        );
        assert!(r.converged);
        assert!(r.x.iter().all(|&v| v == 0.0), "zero rhs keeps x = 0");
    }
}
