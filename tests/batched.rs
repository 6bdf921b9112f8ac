//! Batched multi-RHS solving, end to end: lockstep `solve_batch` parity
//! with sequential scalar solves, per-column convergence masking on
//! mixed-difficulty batches, and the `SolveSession` amortisation path with
//! an MCMC preconditioner.

use mcmcmi::krylov::{
    solve, solve_batch, IdentityPrecond, JacobiPrecond, SolveOptions, SolverType,
};
use mcmcmi::matgen::{convection_diffusion_2d, fd_laplace_2d, ConvectionDiffusionParams};
use mcmcmi::mcmc::{BuildConfig, McmcInverse, McmcParams};

/// Linearly independent right-hand sides (per-column frequency, not just
/// phase, so no k columns collapse into a low-rank block).
fn rhs_set(n: usize, k: usize) -> Vec<Vec<f64>> {
    (0..k)
        .map(|c| {
            (0..n)
                .map(|i| (i as f64 * (0.27 + 0.081 * c as f64) + 0.7 * c as f64).sin())
                .collect()
        })
        .collect()
}

#[test]
fn solve_batch_bit_identical_to_sequential_for_all_solvers() {
    let spd = fd_laplace_2d(12);
    let nonsym = convection_diffusion_2d(ConvectionDiffusionParams {
        nx: 11,
        ny: 11,
        eps: 1.0,
        aniso: 0.7,
        wind: 12.0,
        contrast: 0.0,
        wide: false,
    });
    let opts = SolveOptions::default();
    for (a, solver) in [
        (&spd, SolverType::Cg),
        (&nonsym, SolverType::BiCgStab),
        (&nonsym, SolverType::Gmres),
    ] {
        let n = a.nrows();
        let precond = JacobiPrecond::new(a);
        let rhs = rhs_set(n, 6);
        let batch = solve_batch(a, &rhs, &precond, solver, opts);
        for (c, b) in rhs.iter().enumerate() {
            let single = solve(a, b, &precond, solver, opts);
            assert_eq!(batch[c].x, single.x, "{solver:?} col {c}");
            assert_eq!(batch[c].iterations, single.iterations, "{solver:?} col {c}");
            assert_eq!(batch[c].converged, single.converged, "{solver:?} col {c}");
            assert_eq!(
                batch[c].rel_residual, single.rel_residual,
                "{solver:?} col {c}"
            );
            assert_eq!(batch[c].outcome, single.outcome, "{solver:?} col {c}");
        }
    }
}

/// Mixed-difficulty batch: an exact Krylov-friendly rhs (converges almost
/// immediately), generic rhs (tens of iterations), and a zero rhs
/// (trivial). Masking must retire each column at exactly its scalar
/// iteration count while the others keep going.
#[test]
fn per_column_masking_on_mixed_difficulty_batch() {
    let a = fd_laplace_2d(12);
    let n = a.nrows();
    let precond = IdentityPrecond::new(n);
    let opts = SolveOptions::default();

    // Column 0: b = A·1 (smooth, converges fast). Column 1: oscillatory.
    // Column 2: zero rhs. Column 3: another generic vector.
    let mut rhs = Vec::new();
    rhs.push(a.spmv_alloc(&vec![1.0; n]));
    rhs.push(
        (0..n)
            .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
            .collect(),
    );
    rhs.push(vec![0.0; n]);
    rhs.push((0..n).map(|i| (i as f64 * 0.41).sin()).collect());

    for solver in [SolverType::Cg, SolverType::BiCgStab, SolverType::Gmres] {
        let batch = solve_batch(&a, &rhs, &precond, solver, opts);
        let singles: Vec<_> = rhs
            .iter()
            .map(|b| solve(&a, b, &precond, solver, opts))
            .collect();
        let mut iteration_counts = std::collections::BTreeSet::new();
        for (c, (got, want)) in batch.iter().zip(&singles).enumerate() {
            assert_eq!(got.x, want.x, "{solver:?} col {c}");
            assert_eq!(got.iterations, want.iterations, "{solver:?} col {c}");
            assert!(got.converged, "{solver:?} col {c}");
            iteration_counts.insert(got.iterations);
        }
        // The batch genuinely exercised masking: columns retired at
        // different rounds (zero rhs at 0, easy early, hard late).
        assert!(
            iteration_counts.len() >= 3,
            "{solver:?}: iteration counts not mixed: {iteration_counts:?}"
        );
    }
}

/// The amortisation story end to end: build one MCMC preconditioner, wrap
/// it in a session, and serve several batches — every batched answer must
/// equal the one-shot scalar path through the same preconditioner.
#[test]
fn mcmc_session_serves_batches_identical_to_scalar_path() {
    let a = fd_laplace_2d(12);
    let n = a.nrows();
    let outcome =
        McmcInverse::new(BuildConfig::default()).build(&a, McmcParams::new(0.1, 0.0625, 0.0625));
    let precond_copy = outcome.precond.clone();
    let mut session = outcome.into_session(&a, SolverType::BiCgStab, SolveOptions::default());
    for batch_no in 0..2 {
        let rhs: Vec<Vec<f64>> = (0..4)
            .map(|c| {
                (0..n)
                    .map(|i| (i as f64 * (0.19 + 0.05 * (c + 4 * batch_no) as f64)).sin())
                    .collect()
            })
            .collect();
        let batch = session.solve_batch(&rhs);
        for (c, b) in rhs.iter().enumerate() {
            let single = solve(
                &a,
                b,
                &precond_copy,
                SolverType::BiCgStab,
                SolveOptions::default(),
            );
            assert_eq!(batch[c].x, single.x, "batch {batch_no} col {c}");
            assert_eq!(batch[c].iterations, single.iterations);
            assert!(batch[c].converged, "batch {batch_no} col {c}");
        }
    }
}
