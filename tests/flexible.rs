//! Flexible drivers + compressed preconditioners, end to end.
//!
//! Covers the parity contracts the compressed-apply path leans on:
//! - with an exact (uncompressed f64) preconditioner, FCG tracks CG and
//!   FGMRES tracks GMRES iterate-for-iterate / count-for-count;
//! - the lockstep batched flexible drivers are bit-identical to their
//!   scalar forms through `solve_batch` and `SolveSession`;
//! - the identity compression policy (`drop_tol = 0`, f64) reproduces the
//!   uncompressed solve bit for bit, at any thread count;
//! - compressed-f32 operators still converge through the flexible drivers
//!   without blowing up the iteration count.

use mcmcmi::krylov::{
    cg, fcg, fgmres, gmres, solve, solve_batch, Preconditioner, SolveOptions, SolveSession,
    SolverType,
};
use mcmcmi::matgen::{fd_laplace_2d, PaperMatrix};
use mcmcmi::mcmc::{BuildConfig, CompressionPolicy, McmcInverse, McmcParams, StoragePrecision};

fn rhs_set(n: usize, k: usize) -> Vec<Vec<f64>> {
    (0..k)
        .map(|c| {
            (0..n)
                .map(|i| (i as f64 * (0.31 + 0.07 * c as f64) + 0.4 * c as f64).sin())
                .collect()
        })
        .collect()
}

/// Satellite contract: with the *exact* (uncompressed f64, symmetrised for
/// the CG family) MCMC preconditioner, FCG reproduces CG iterate for
/// iterate — the Polak–Ribière and Fletcher–Reeves β coincide in exact
/// arithmetic for a fixed SPD operator, so the drift over any prefix of
/// iterations stays at rounding level.
#[test]
fn fcg_matches_cg_iterate_for_iterate_with_exact_mcmc_preconditioner() {
    let a = fd_laplace_2d(10);
    let n = a.nrows();
    let built =
        McmcInverse::new(BuildConfig::default()).build(&a, McmcParams::new(0.1, 0.0625, 0.0625));
    let p = built.precond.symmetrized();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).sin() + 0.3).collect();
    for cap in 1..=8usize {
        let opts = SolveOptions {
            max_iter: cap,
            tol: 1e-30, // pin both drivers to exactly `cap` iterations
            ..Default::default()
        };
        let rc = cg(&a, &b, &p, opts);
        let rf = fcg(&a, &b, &p, opts);
        assert_eq!(rc.iterations, rf.iterations, "cap {cap}");
        let scale = mcmcmi::dense::norm2(&rc.x).max(1e-30);
        for (x, y) in rf.x.iter().zip(&rc.x) {
            assert!((x - y).abs() <= 1e-9 * scale, "cap {cap}: {x} vs {y}");
        }
    }
    let opts = SolveOptions::default();
    let rc = cg(&a, &b, &p, opts);
    let rf = fcg(&a, &b, &p, opts);
    assert!(rc.converged && rf.converged);
    assert_eq!(rc.iterations, rf.iterations);
}

/// FGMRES (right-preconditioned) against GMRES (left): same search space,
/// different residual norms minimised, so parity is count-level rather
/// than bit-level with a non-identity preconditioner — both must converge
/// to the same solution with iteration counts within a whisker. (Bit-level
/// parity at `P = I` is pinned in the krylov unit tests.)
#[test]
fn fgmres_tracks_gmres_with_exact_mcmc_preconditioner() {
    let a = PaperMatrix::A00512.generate();
    let n = a.nrows();
    let built =
        McmcInverse::new(BuildConfig::default()).build(&a, McmcParams::new(0.1, 0.0625, 0.0625));
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).cos()).collect();
    let opts = SolveOptions::default();
    let rg = gmres(&a, &b, &built.precond, opts);
    let rf = fgmres(&a, &b, &built.precond, opts);
    assert!(rg.converged && rf.converged);
    let ratio = rf.iterations as f64 / rg.iterations as f64;
    assert!(
        (0.7..=1.2).contains(&ratio),
        "FGMRES {} vs GMRES {}",
        rf.iterations,
        rg.iterations
    );
    let scale = mcmcmi::dense::norm2(&rg.x).max(1e-30);
    for (x, y) in rf.x.iter().zip(&rg.x) {
        assert!((x - y).abs() <= 1e-5 * scale, "{x} vs {y}");
    }
}

#[test]
fn flexible_batch_drivers_bit_identical_to_scalar_through_solve_batch() {
    let a = fd_laplace_2d(11);
    let n = a.nrows();
    let built =
        McmcInverse::new(BuildConfig::default()).build(&a, McmcParams::new(0.1, 0.125, 0.0625));
    let opts = SolveOptions {
        restart: 8, // force staggered restarts through the FGMRES lockstep
        ..Default::default()
    };
    let rhs = rhs_set(n, 5);
    // The exact operator, and the inexact one the flexible drivers exist
    // for: its f32, tail-dropped compression.
    let (compressed, _) = built.compress(&CompressionPolicy::f32(1e-3));
    let preconds: [&dyn Preconditioner; 2] = [&built.precond, &compressed];
    for (precond, solver) in preconds
        .into_iter()
        .flat_map(|p| [(p, SolverType::FCg), (p, SolverType::Fgmres)])
    {
        let batch = solve_batch(&a, &rhs, precond, solver, opts);
        for (c, b) in rhs.iter().enumerate() {
            let single = solve(&a, b, precond, solver, opts);
            assert_eq!(batch[c].x, single.x, "{solver:?} col {c}");
            assert_eq!(batch[c].iterations, single.iterations, "{solver:?} col {c}");
            assert_eq!(batch[c].converged, single.converged, "{solver:?} col {c}");
            assert_eq!(
                batch[c].rel_residual, single.rel_residual,
                "{solver:?} col {c}"
            );
        }
    }
}

/// The identity policy through the compressed session must reproduce the
/// uncompressed session bit for bit — and do so at any thread count (the
/// compressed apply path shares the partition-cached kernels).
#[test]
fn identity_policy_session_bit_identical_to_uncompressed_at_any_thread_count() {
    let a = fd_laplace_2d(10);
    let n = a.nrows();
    let params = McmcParams::new(0.1, 0.0625, 0.0625);
    let builder = McmcInverse::new(BuildConfig::default());
    let rhs = rhs_set(n, 4);

    let built = builder.build(&a, params);
    let mut plain = built
        .clone()
        .into_session(&a, SolverType::Gmres, SolveOptions::default());
    let reference_single: Vec<_> = rhs.iter().map(|b| plain.solve(b)).collect();
    let reference_batch = plain.solve_batch(&rhs);

    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let policy = CompressionPolicy::default();
        let (precond, report) = pool.install(|| builder.build(&a, params).compress(&policy));
        let opts = SolveOptions::default();
        let mut sess = SolveSession::new(a.clone(), precond, SolverType::Gmres, opts);
        assert_eq!(report.nnz_kept, 1.0);
        assert_eq!(report.precision, StoragePrecision::F64);
        for (b, want) in rhs.iter().zip(&reference_single) {
            let got = pool.install(|| sess.solve(b));
            assert_eq!(got.x, want.x, "threads {threads}");
            assert_eq!(got.iterations, want.iterations, "threads {threads}");
            assert_eq!(got.rel_residual, want.rel_residual, "threads {threads}");
        }
        let got_batch = pool.install(|| sess.solve_batch(&rhs));
        for (g, w) in got_batch.iter().zip(&reference_batch) {
            assert_eq!(g.x, w.x, "batch, threads {threads}");
            assert_eq!(g.iterations, w.iterations, "batch, threads {threads}");
        }
    }
}

/// Compressed-f32 operators through the flexible drivers: convergence must
/// survive, iterations must stay in the same regime as the exact-operator
/// baseline (the perf record bounds this at 1.2×; the test allows a bit of
/// slack so it never flakes on matrix-generator tweaks).
#[test]
fn compressed_f32_flexible_solves_converge_near_baseline_iterations() {
    let a = fd_laplace_2d(12);
    let n = a.nrows();
    let built =
        McmcInverse::new(BuildConfig::default()).build(&a, McmcParams::new(0.1, 0.0625, 0.0625));
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.19).sin()).collect();
    let opts = SolveOptions::default();

    // Baselines on the exact operator.
    let base_fgmres = fgmres(&a, &b, &built.precond, opts);
    let psym = built.precond.symmetrized();
    let base_fcg = fcg(&a, &b, &psym, opts);
    assert!(base_fgmres.converged && base_fcg.converged);

    for drop_tol in [1e-4, 1e-3, 1e-2] {
        let (cp, report) = built.compress(&CompressionPolicy::f32(drop_tol));
        assert!(report.fro_mass_kept > 0.9, "drop_tol {drop_tol}");
        let rf = fgmres(&a, &b, &cp, opts);
        assert!(rf.converged, "FGMRES drop_tol {drop_tol}");
        assert!(
            rf.iterations as f64 <= 1.5 * base_fgmres.iterations as f64,
            "FGMRES drop_tol {drop_tol}: {} vs baseline {}",
            rf.iterations,
            base_fgmres.iterations
        );
        // CG family: symmetrise first, then compress (as the perf record
        // does) — compression's f32 rounding breaks exact symmetry, which
        // is precisely what FCG absorbs.
        let (cps, _) = mcmcmi::mcmc::compress(psym.matrix(), &CompressionPolicy::f32(drop_tol));
        let rc = fcg(&a, &b, &cps, opts);
        assert!(rc.converged, "FCG drop_tol {drop_tol}");
        assert!(
            rc.iterations as f64 <= 1.5 * base_fcg.iterations as f64,
            "FCG drop_tol {drop_tol}: {} vs baseline {}",
            rc.iterations,
            base_fcg.iterations
        );
        // The *raw* (nonsymmetric) compressed inverse still converges
        // through FCG — slower, but it does not break. Plain CG makes no
        // such promise.
        let raw = fcg(&a, &b, &cp, opts);
        assert!(raw.converged, "raw FCG drop_tol {drop_tol}");
    }
}

/// Flexible drivers behind `SolveSession` reuse their workspaces without
/// perturbing results.
#[test]
fn flexible_session_solves_are_repeatable() {
    let a = fd_laplace_2d(9);
    let n = a.nrows();
    let built =
        McmcInverse::new(BuildConfig::default()).build(&a, McmcParams::new(0.1, 0.125, 0.0625));
    let (precond, _) = built.compress(&CompressionPolicy::f32(1e-3));
    let mut sess = SolveSession::new(
        a.clone(),
        precond,
        SolverType::Fgmres,
        SolveOptions::default(),
    );
    assert_eq!(sess.precond().dim(), n);
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.23).cos()).collect();
    let r1 = sess.solve(&b);
    let r2 = sess.solve(&b);
    assert!(r1.converged);
    assert_eq!(r1.x, r2.x);
    assert_eq!(r1.iterations, r2.iterations);
    let batch = sess.solve_batch(&rhs_set(n, 3));
    assert!(batch.iter().all(|r| r.converged));
}
