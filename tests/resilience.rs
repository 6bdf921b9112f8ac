//! Resilience acceptance suite: every `SolveFailure` taxonomy variant
//! fires from a deterministic fault-injection run, every recovery-ladder
//! rung triggers and recovers, batched drivers mask broken columns without
//! leaking their state into siblings, and the whole story — including the
//! `RecoveryTrail` — is bit-identical at any thread count.

use mcmcmi::krylov::{
    solve, solve_batch, solve_resilient, BreakdownKind, CompressedPrecond, IdentityPrecond,
    RecoveryContext, RecoveryPolicy, RecoveryStepKind, SolveFailure, SolveOptions, SolverType,
    SparsePrecond, WatchdogConfig,
};
use mcmcmi::matgen::fd_laplace_2d;
use mcmcmi::sparse::{corrupt_rows, csr_eye, Coo, Csr, FaultSpec, FaultyBackend};

/// Deterministic oscillatory right-hand side (same recipe the probe/perf
/// harnesses use).
fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| (i as f64 * 0.37).sin() + 0.2).collect()
}

/// 2×2 antidiagonal: SPD-free poison for the CG family (pᵀAp = 0 on the
/// very first search direction).
fn antidiag() -> Csr {
    let mut coo = Coo::new(2, 2);
    coo.push(0, 1, 1.0);
    coo.push(1, 0, 1.0);
    coo.to_csr()
}

/// 4×4 block diagonal: a well-conditioned SPD block on rows {0,1} and a
/// poison block on rows {2,3}. A right-hand side supported on one block
/// never excites the other, so one batch column can break down while its
/// sibling converges.
fn block_diag(poison: &[(usize, usize, f64)]) -> Csr {
    let mut coo = Coo::new(4, 4);
    coo.push(0, 0, 2.0);
    coo.push(1, 1, 3.0);
    for &(i, j, v) in poison {
        coo.push(2 + i, 2 + j, v);
    }
    coo.to_csr()
}

// ---------------------------------------------------------------------
// Taxonomy: every `SolveFailure` variant fires deterministically.
// ---------------------------------------------------------------------

#[test]
fn taxonomy_nonfinite_fires_on_injected_nan() {
    let a = fd_laplace_2d(10);
    let n = a.nrows();
    // Call 4 is mid-solve: CG needs dozens of matvecs on this operator.
    let faulty = FaultyBackend::new(a, vec![FaultSpec::nan(4, 7)]);
    let r = solve(
        &faulty,
        &rhs(n),
        &IdentityPrecond::new(n),
        SolverType::Cg,
        SolveOptions::default(),
    );
    assert!(!r.converged);
    assert!(
        matches!(r.failure(), Some(SolveFailure::NonFinite { .. })),
        "want NonFinite, got {:?}",
        r.outcome
    );
}

/// A NaN in the first Arnoldi matvec turns the whole Krylov vector NaN
/// after one Gram–Schmidt sweep. `f64::max` skips NaN, so the norms used to
/// fold such a vector to 0: the GMRES family read a happy breakdown, and the
/// final residual check read 0 too — `Converged(Tol)` with every entry of
/// `x` NaN. The norms now propagate NaN and the drivers report it.
#[test]
fn nan_iterate_never_reads_as_converged_in_the_gmres_family() {
    let a = fd_laplace_2d(8);
    let n = a.nrows();
    let p = IdentityPrecond::new(n);
    let opts = SolveOptions::default();
    let nonfinite = |r: &mcmcmi::krylov::SolveResult| {
        !r.converged && matches!(r.failure(), Some(SolveFailure::NonFinite { .. }))
    };
    for solver in [SolverType::Gmres, SolverType::Fgmres] {
        let faulty = FaultyBackend::new(a.clone(), vec![FaultSpec::nan(1, 7)]);
        let r = solve(&faulty, &rhs(n), &p, solver, opts);
        assert!(nonfinite(&r), "{solver:?}: got {:?}", r.outcome);

        // Width 3: element 7 of the row-major n×3 SpMM output is row 2 of
        // column 1. Its siblings must not notice.
        let cols: Vec<Vec<f64>> = (0..3)
            .map(|c| rhs(n).iter().map(|v| v * (1.0 + c as f64)).collect())
            .collect();
        let faulty = FaultyBackend::new(a.clone(), vec![FaultSpec::nan(1, 7)]);
        let batch = solve_batch(&faulty, &cols, &p, solver, opts);
        assert!(
            nonfinite(&batch[1]),
            "{solver:?}: got {:?}",
            batch[1].outcome
        );
        for c in [0, 2] {
            let clean = solve(&a, &cols[c], &p, solver, opts);
            assert!(batch[c].converged, "{solver:?} col {c}");
            assert_eq!(batch[c].x, clean.x, "{solver:?} col {c}");
            assert_eq!(batch[c].iterations, clean.iterations, "{solver:?} col {c}");
        }
    }
}

#[test]
fn taxonomy_breakdown_zero_curvature() {
    let a = antidiag();
    let r = solve(
        &a,
        &[1.0, 0.0],
        &IdentityPrecond::new(2),
        SolverType::Cg,
        SolveOptions::default(),
    );
    assert!(!r.converged);
    assert!(matches!(
        r.failure(),
        Some(SolveFailure::Breakdown {
            kind: BreakdownKind::ZeroCurvature,
            ..
        })
    ));
}

#[test]
fn taxonomy_stagnation_watchdog() {
    // A watchdog demanding a 100× residual drop every 3 iterations is
    // unsatisfiable on a Laplacian — stagnation must fire mid-solve, long
    // before the iteration budget.
    let a = fd_laplace_2d(12);
    let n = a.nrows();
    let opts = SolveOptions {
        watchdog: WatchdogConfig {
            stall_window: 3,
            stall_improvement: 0.99,
            ..Default::default()
        },
        ..Default::default()
    };
    let r = solve(&a, &rhs(n), &IdentityPrecond::new(n), SolverType::Cg, opts);
    assert!(!r.converged);
    assert!(
        matches!(r.failure(), Some(SolveFailure::Stagnated { window: 3, .. })),
        "want Stagnated, got {:?}",
        r.outcome
    );
    assert!(
        r.iterations < opts.max_iter / 2,
        "watchdog must fire mid-solve, not at the budget ({} iters)",
        r.iterations
    );
}

#[test]
fn taxonomy_divergence_watchdog() {
    // CG on a strongly skew (nonsymmetric) operator violates every CG
    // assumption: the residual recurrence blows up geometrically and the
    // divergence sentinel trips.
    let n = 24;
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, i, 1.0);
        coo.push(i, (i + 1) % n, 5.0);
        coo.push((i + 1) % n, i, -5.0);
    }
    let a = coo.to_csr();
    let opts = SolveOptions {
        watchdog: WatchdogConfig {
            divergence_growth: 100.0,
            ..Default::default()
        },
        ..Default::default()
    };
    let r = solve(&a, &rhs(n), &IdentityPrecond::new(n), SolverType::Cg, opts);
    assert!(!r.converged);
    assert!(
        matches!(r.failure(), Some(SolveFailure::Diverged { growth }) if *growth >= 100.0),
        "want Diverged, got {:?}",
        r.outcome
    );
}

#[test]
fn taxonomy_budget_exhausted() {
    let a = fd_laplace_2d(12);
    let n = a.nrows();
    let opts = SolveOptions {
        max_iter: 3,
        ..Default::default()
    };
    let r = solve(&a, &rhs(n), &IdentityPrecond::new(n), SolverType::Cg, opts);
    assert!(!r.converged);
    assert_eq!(r.iterations, 3);
    assert!(matches!(r.failure(), Some(SolveFailure::BudgetExhausted)));
}

// ---------------------------------------------------------------------
// Recovery ladder: every rung triggers and recovers.
// ---------------------------------------------------------------------

/// The acceptance scenario: a NaN injected mid-solve on a Table-1-family
/// matrix (2-D FD Laplacian) must end in a *converged* solve with a
/// non-empty `RecoveryTrail`.
#[test]
fn injected_nan_on_table1_matrix_recovers_via_ladder() {
    let a = fd_laplace_2d(10);
    let n = a.nrows();
    let faulty = FaultyBackend::new(a, vec![FaultSpec::nan(4, 7)]);
    let res = solve_resilient(
        &faulty,
        &rhs(n),
        &IdentityPrecond::new(n),
        SolverType::Cg,
        SolveOptions::default(),
        &RecoveryPolicy::default(),
        RecoveryContext::none(),
    );
    assert!(
        res.result.converged,
        "ladder must recover: {:?}",
        res.result.outcome
    );
    assert!(!res.trail.is_clean(), "trail must record the recovery");
    assert!(res.trail.recovered);
    assert!(matches!(
        res.trail.steps[0].trigger,
        SolveFailure::NonFinite { .. }
    ));
    // The transient fault burned on the base solve, so the flexible-swap
    // rung (first eligible without compression) recovers.
    assert_eq!(
        res.trail.steps.last().unwrap().step,
        RecoveryStepKind::FlexibleSwap
    );
    assert!(res.trail.steps.last().unwrap().recovered);
}

#[test]
fn ladder_full_precision_retry_rung() {
    // A compressed (f32) identity preconditioner with NaN-poisoned rows
    // fails instantly; rung 1 swaps the full-precision original back in.
    let a = fd_laplace_2d(8);
    let n = a.nrows();
    let mut p = csr_eye(n);
    corrupt_rows(&mut p, &[n / 2], f64::NAN);
    let compressed = CompressedPrecond::F32(SparsePrecond::new(p).to_f32());
    let full = IdentityPrecond::new(n);
    let res = solve_resilient(
        &a,
        &rhs(n),
        &compressed,
        SolverType::Cg,
        SolveOptions::default(),
        &RecoveryPolicy::default(),
        RecoveryContext {
            full_precision: Some(&full),
        },
    );
    assert!(res.result.converged, "{:?}", res.result.outcome);
    assert_eq!(
        res.trail.steps[0].step,
        RecoveryStepKind::FullPrecisionRetry
    );
    assert!(res.trail.steps[0].recovered);
    assert_eq!(res.trail.steps.len(), 1, "first rung already recovered");
}

/// A preconditioner broken in full precision: the ladder has no better one
/// to ask for (that is its owner's job), so the swap meets the same NaN and
/// the floor, which drops the preconditioner, is what recovers.
#[test]
fn ladder_drops_a_poisoned_preconditioner_it_cannot_replace() {
    let a = fd_laplace_2d(8);
    let n = a.nrows();
    let mut p = csr_eye(n);
    corrupt_rows(&mut p, &[1], f64::NAN);
    let res = solve_resilient(
        &a,
        &rhs(n),
        &SparsePrecond::new(p),
        SolverType::Cg,
        SolveOptions::default(),
        &RecoveryPolicy::default(),
        RecoveryContext::none(),
    );
    assert!(res.result.converged, "{:?}", res.result.outcome);
    let [swap, floor] = &res.trail.steps[..] else {
        panic!("want two rungs, got {}", res.trail.summary());
    };
    let (flexible, unpreconditioned) = (
        RecoveryStepKind::FlexibleSwap,
        RecoveryStepKind::UnpreconditionedFallback,
    );
    assert_eq!((swap.step, swap.recovered), (flexible, false));
    assert_eq!((floor.step, floor.recovered), (unpreconditioned, true));
    // The floor's trigger is the swap's failure.
    assert!(matches!(floor.trigger, SolveFailure::NonFinite { .. }));
}

#[test]
fn ladder_unpreconditioned_fallback_rung() {
    // CG (and its flexible form) break down on the antidiagonal operator;
    // only the unpreconditioned-GMRES floor can solve it.
    let res = solve_resilient(
        &antidiag(),
        &[1.0, 0.0],
        &IdentityPrecond::new(2),
        SolverType::Cg,
        SolveOptions::default(),
        &RecoveryPolicy::default(),
        RecoveryContext::none(),
    );
    assert!(res.result.converged, "{:?}", res.result.outcome);
    let last = res.trail.steps.last().unwrap();
    assert_eq!(last.step, RecoveryStepKind::UnpreconditionedFallback);
    assert_eq!(last.solver, SolverType::Gmres);
    assert!(last.recovered);
    assert!((res.result.x[1] - 1.0).abs() < 1e-8);
}

// ---------------------------------------------------------------------
// Determinism: the trail and the recovered solution are bit-identical
// at every thread count.
// ---------------------------------------------------------------------

#[test]
fn recovery_trail_is_thread_count_deterministic() {
    let a = fd_laplace_2d(10);
    let n = a.nrows();
    let b = rhs(n);
    let run = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        // Fresh wrapper per run: the call-count clock restarts from zero.
        let faulty = FaultyBackend::new(a.clone(), vec![FaultSpec::nan(4, 7)]);
        pool.install(|| {
            solve_resilient(
                &faulty,
                &b,
                &IdentityPrecond::new(n),
                SolverType::Cg,
                SolveOptions::default(),
                &RecoveryPolicy::default(),
                RecoveryContext::none(),
            )
        })
    };
    let reference = run(1);
    assert!(reference.result.converged && !reference.trail.is_clean());
    for threads in [2usize, 8] {
        let got = run(threads);
        assert_eq!(got.trail, reference.trail, "trail at {threads} threads");
        assert_eq!(
            got.result.x, reference.result.x,
            "bits at {threads} threads"
        );
        assert_eq!(got.result.outcome, reference.result.outcome);
    }
}

// ---------------------------------------------------------------------
// Batched drivers: a broken column must not leak into its siblings.
// ---------------------------------------------------------------------

/// Shared harness: on a block-diagonal operator, column 0 excites only the
/// healthy SPD block and column 1 only the poison block. The healthy
/// column must converge bit-identically to its scalar solve; the broken
/// column must carry the expected failure.
fn assert_column_isolation(
    a: &Csr,
    solver: SolverType,
    check_failure: impl Fn(Option<&SolveFailure>) -> bool,
) {
    let healthy = vec![1.0, 1.0, 0.0, 0.0];
    let poisoned = vec![0.0, 0.0, 1.0, 0.0];
    let opts = SolveOptions::default();
    let p = IdentityPrecond::new(4);
    let results = solve_batch(a, &[healthy.clone(), poisoned], &p, solver, opts);
    let scalar = solve(a, &healthy, &p, solver, opts);
    assert!(results[0].converged, "{solver:?}: sibling must converge");
    assert_eq!(
        results[0].x, scalar.x,
        "{solver:?}: sibling must match its scalar solve bit-for-bit"
    );
    assert!(results[0].x.iter().all(|v| v.is_finite()));
    assert!(
        !results[1].converged,
        "{solver:?}: the poisoned column cannot converge"
    );
    assert!(
        check_failure(results[1].failure()),
        "{solver:?}: unexpected failure {:?}",
        results[1].outcome
    );
}

#[test]
fn cg_batch_column_breakdown_spares_siblings() {
    // Antidiagonal poison block: zero curvature on the first direction.
    let a = block_diag(&[(0, 1, 1.0), (1, 0, 1.0)]);
    assert_column_isolation(&a, SolverType::Cg, |f| {
        matches!(
            f,
            Some(SolveFailure::Breakdown {
                kind: BreakdownKind::ZeroCurvature,
                ..
            })
        )
    });
}

#[test]
fn bicgstab_batch_column_breakdown_spares_siblings() {
    // Antidiagonal poison block: ⟨r̂, v⟩ = 0 on the first iteration.
    let a = block_diag(&[(0, 1, 1.0), (1, 0, 1.0)]);
    assert_column_isolation(&a, SolverType::BiCgStab, |f| {
        matches!(f, Some(SolveFailure::Breakdown { .. }))
    });
}

#[test]
fn gmres_batch_column_breakdown_spares_siblings() {
    // Rank-1 poison block with an inconsistent right-hand side: the
    // Krylov space exhausts with a singular Hessenberg.
    let a = block_diag(&[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)]);
    assert_column_isolation(&a, SolverType::Gmres, |f| {
        matches!(
            f,
            Some(
                SolveFailure::Breakdown {
                    kind: BreakdownKind::SingularHessenberg,
                    ..
                } | SolveFailure::NonFinite { .. }
            )
        )
    });
}
