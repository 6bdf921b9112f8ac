//! Reproducibility guarantees across the stack: identical results for
//! identical seeds, regardless of thread count.

use mcmcmi::matgen::{fd_laplace_2d, PaperMatrix};
use mcmcmi::mcmc::{BuildConfig, McmcInverse, McmcParams, WalkEngine};
use mcmcmi::sparse::{Coo, Csr};

fn in_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

#[test]
fn mcmc_build_identical_across_thread_counts() {
    let a = fd_laplace_2d(12);
    let params = McmcParams::new(1.0, 0.125, 0.125);
    let builder = McmcInverse::new(BuildConfig::default());
    let reference = builder.build(&a, params).precond.matrix().clone();
    for threads in [1usize, 3, 8] {
        let got = in_pool(threads, || builder.build(&a, params));
        assert_eq!(got.precond.matrix(), &reference, "thread count {threads}");
    }
}

#[test]
fn soa_engine_name_builds_the_default_bits() {
    // The benchmark ledger still selects `WalkEngine::Soa` for its traced
    // build. The name runs the one walk loop, so it must build the
    // default's bits exactly.
    let a = fd_laplace_2d(12);
    let params = McmcParams::new(1.0, 0.125, 0.125);
    let soa = McmcInverse::new(BuildConfig {
        engine: WalkEngine::Soa,
        ..Default::default()
    });
    let default = McmcInverse::new(BuildConfig::default());
    assert_eq!(
        soa.build(&a, params).precond.matrix(),
        default.build(&a, params).precond.matrix()
    );
}

/// One build's matrix and chain counters, in a pool of `threads`.
fn outcome_in(threads: usize, a: &Csr, params: McmcParams) -> (Csr, usize, usize, usize) {
    let builder = McmcInverse::new(BuildConfig::default());
    let out = in_pool(threads, || builder.build(a, params));
    (
        out.precond.matrix().clone(),
        out.transitions,
        out.capped_chains,
        out.blown_up_chains,
    )
}

/// `n`-row ring with diagonal 4 and off-diagonals −1 to both neighbours.
fn ring(n: usize) -> Coo {
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0);
        coo.push(i, (i + 1) % n, -1.0);
        coo.push(i, (i + n - 1) % n, -1.0);
    }
    coo
}

/// The walk decides a chain's ending step from `|w|·S_k` without drawing
/// it (`walk.rs` holds that decision to a draw-then-decide reference). On
/// the edges of that decision — every chain ending on its first step,
/// weights turned infinite or NaN by the row sum, a path into an absorbing
/// row, and chains that only the step cap ends — a build must keep its
/// bits and its transition, capped and blown-up counts at any thread count.
#[test]
fn ending_step_edges_agree_across_thread_counts() {
    let mut with_inf = ring(6);
    with_inf.push(2, 4, f64::INFINITY);
    let mut with_nan = ring(6);
    with_nan.push(3, 5, f64::NAN);
    // Row 0's only step leads to row 1, which has no off-diagonal.
    let mut into_absorbing = Coo::new(4, 4);
    for (i, j, v) in [(0, 0, 2.0), (0, 1, -1.0), (1, 1, 3.0), (2, 2, 4.0)] {
        into_absorbing.push(i, j, v);
    }
    for (i, j, v) in [(2, 0, -1.0), (2, 3, 1.0), (3, 3, 4.0), (3, 2, -2.0)] {
        into_absorbing.push(i, j, v);
    }
    // A = I − shift at α = 0: C is the unit cycle, |w| stays 1, and only
    // the 10 000-step cap ends a chain.
    let n_cycle = 8;
    let mut cycle = Coo::new(n_cycle, n_cycle);
    for i in 0..n_cycle {
        cycle.push(i, i, 1.0);
        cycle.push(i, (i + 1) % n_cycle, -1.0);
    }
    let laplace = fd_laplace_2d(6);
    let tight = McmcParams::new(0.5, 0.1, 1e-6);
    let cases: [(&str, Csr, McmcParams); 5] = [
        ("delta = 1", laplace.clone(), McmcParams::new(0.5, 0.1, 1.0)),
        ("infinite off-diagonal", with_inf.to_csr(), tight),
        ("NaN off-diagonal", with_nan.to_csr(), tight),
        ("path into an absorbing row", into_absorbing.to_csr(), tight),
        ("unit cycle", cycle.to_csr(), McmcParams::new(0.0, 0.5, 0.5)),
    ];
    for (name, a, params) in &cases {
        let reference = outcome_in(1, a, *params);
        for threads in [1usize, 8] {
            let got = outcome_in(threads, a, *params);
            assert_eq!(got, reference, "{name}: at {threads} threads");
        }
        let (_, transitions, capped, blown_up) = reference;
        let chains = params.chains_per_row();
        match *name {
            "delta = 1" => {
                // S_k ≤ 2/3 < δ on every row: one transition per chain.
                assert_eq!(transitions, laplace.nrows() * chains);
                assert_eq!((capped, blown_up), (0, 0));
            }
            "infinite off-diagonal" | "NaN off-diagonal" => {
                // Every chain from the poisoned row blows up on its first
                // step, and so does every chain that reaches it.
                assert!(blown_up >= chains, "{name}: {blown_up} blow-ups");
                assert_eq!(capped, 0);
            }
            "path into an absorbing row" => assert_eq!((capped, blown_up), (0, 0)),
            _ => {
                assert_eq!(capped, n_cycle * chains);
                assert_eq!(transitions, n_cycle * chains * 10_000);
                assert_eq!(blown_up, 0);
            }
        }
    }
}

/// Lowers the parallel-dispatch threshold to one entry while it lives, so
/// even a small build splits every pass, and restores the default when
/// dropped (also on panic).
struct SplitEverything;

impl SplitEverything {
    fn install() -> Self {
        mcmcmi::sparse::set_par_threshold_for_tests(Some(1));
        Self
    }
}

impl Drop for SplitEverything {
    fn drop(&mut self) {
        mcmcmi::sparse::set_par_threshold_for_tests(None);
    }
}

/// `P` is assembled over nnz-balanced row ranges once `nnz(P)` clears the
/// dispatch threshold. With the threshold at one entry, a fresh build and a
/// sparse `rebuild_rows` (kept rows spliced between estimated ones) must
/// equal the serially assembled matrices bit for bit in every pool.
#[test]
fn split_assembly_of_p_matches_the_serial_one() {
    let a = mcmcmi::matgen::pdd_real_sparse(120, 5);
    let params = McmcParams::new(1.0, 0.125, 0.125);
    let builder = McmcInverse::new(BuildConfig::default());
    let dirty: Vec<usize> = (3..a.nrows()).step_by(7).collect();
    let mut drifted = a.clone();
    for &i in &dirty {
        drifted.row_values_mut(i)[0] *= 1.0 + 1e-2;
    }
    let run = || {
        let fresh = builder.build(&a, params);
        let mut rebuilt = fresh.clone();
        builder.rebuild_rows(&mut rebuilt, &drifted, &dirty, params);
        (
            fresh.precond.matrix().clone(),
            rebuilt.precond.matrix().clone(),
        )
    };
    let (ref_fresh, ref_rebuilt) = run();
    let _split = SplitEverything::install();
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let (fresh, rebuilt) = pool.install(run);
        assert_eq!(fresh, ref_fresh, "fresh build, {threads} threads");
        assert_eq!(rebuilt, ref_rebuilt, "rebuild, {threads} threads");
    }
}

/// Wide-stencil operator with ~93 entries per row and more than 2¹⁹ in all:
/// past `DEFAULT_PAR_THRESHOLD`, so the production rule — no override —
/// splits every product of it wherever the pool has a second thread.
fn climate_past_the_threshold() -> mcmcmi::sparse::Csr {
    let a = mcmcmi::matgen::stretched_climate_operator(64, 92, 44, 1.0);
    assert!(a.nnz() >= mcmcmi::sparse::DEFAULT_PAR_THRESHOLD);
    a
}

/// CI runs this file under `RAYON_NUM_THREADS=1` and `=8`; together with
/// the in-process pool sweep below, that covers the nnz-balanced parallel
/// SpMV the Krylov solvers route through (`KernelBackend::spmv`), on the
/// bare CSR backend and on the structure-detecting one.
#[test]
fn spmv_identical_across_thread_counts() {
    use mcmcmi::sparse::{KernelBackend, SpecializedBackend};
    // Skewed degrees exercise the nnz-balanced partitioning (row-count
    // chunking would split this very differently).
    let a = climate_past_the_threshold();
    let detected = SpecializedBackend::detect(a.clone());
    let n = a.nrows();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.013).sin()).collect();
    let mut reference = vec![0.0; n];
    a.spmv(&x, &mut reference);
    for threads in [1usize, 2, 3, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let backends: [&dyn KernelBackend; 2] = [&a, &detected];
        for op in backends {
            let mut y = vec![0.0; n];
            pool.install(|| op.spmv(&x, &mut y));
            let name = op.kernel_name();
            assert_eq!(y, reference, "{name} spmv, thread count {threads}");
        }
    }
}

/// The SpMM block kernels share the row partition and the per-row block
/// kernel with the serial path: bit-identical at any thread count, and
/// bit-identical per column to k independent SpMVs.
#[test]
fn spmm_identical_across_thread_counts_and_to_spmv_columns() {
    use mcmcmi::sparse::KernelBackend;
    for (a, k) in [climate_past_the_threshold(), fd_laplace_2d(12)]
        .iter()
        .flat_map(|a| [1usize, 3, 4, 6, 8].map(|k| (a, k)))
    {
        let n = a.nrows();
        let xb: Vec<f64> = (0..n * k)
            .map(|t| (t as f64 * 0.0077).sin() * 2.0)
            .collect();
        let mut reference = vec![0.0; n * k];
        a.spmm(&xb, k, &mut reference);
        // Column c of the block result == spmv of column c, bit for bit.
        let mut xc = vec![0.0; n];
        let mut yc = vec![0.0; n];
        for c in 0..k {
            mcmcmi::dense::gather_col(&xb, k, c, &mut xc);
            a.spmv(&xc, &mut yc);
            let mut got = vec![0.0; n];
            mcmcmi::dense::gather_col(&reference, k, c, &mut got);
            assert_eq!(got, yc, "k={k} column {c} differs from spmv");
        }
        for threads in [1usize, 2, 3, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let mut y = vec![0.0; n * k];
            pool.install(|| KernelBackend::spmm(a, &xb, k, &mut y));
            assert_eq!(y, reference, "spmm, k={k}, thread count {threads}");
        }
    }
}

/// Batched lockstep solves must equal sequential single-RHS solves bit for
/// bit at any thread count — the full-stack determinism contract of the
/// multi-RHS path (SpMM + block preconditioner application + per-column
/// masking).
#[test]
fn solve_batch_identical_across_thread_counts_and_to_sequential() {
    use mcmcmi::krylov::{solve, solve_batch, JacobiPrecond, SolveOptions, SolverType};
    let a = fd_laplace_2d(14);
    let n = a.nrows();
    let rhs: Vec<Vec<f64>> = (0..5)
        .map(|c| {
            (0..n)
                .map(|i| (i as f64 * (0.23 + 0.06 * c as f64)).sin())
                .collect()
        })
        .collect();
    let precond = JacobiPrecond::new(&a);
    let opts = SolveOptions::default();
    for solver in [SolverType::Cg, SolverType::BiCgStab, SolverType::Gmres] {
        let reference: Vec<_> = rhs
            .iter()
            .map(|b| solve(&a, b, &precond, solver, opts))
            .collect();
        for threads in [1usize, 3, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let batch = pool.install(|| solve_batch(&a, &rhs, &precond, solver, opts));
            for (c, (got, want)) in batch.iter().zip(&reference).enumerate() {
                assert_eq!(got.x, want.x, "{solver:?} col {c}, {threads} threads");
                assert_eq!(got.iterations, want.iterations, "{solver:?} col {c}");
                assert_eq!(got.rel_residual, want.rel_residual, "{solver:?} col {c}");
                assert_eq!(got.converged, want.converged, "{solver:?} col {c}");
            }
        }
    }
}

/// The regenerative builder shares the reusable-workspace walk path with
/// the classic builder; its output must also be schedule-independent.
#[test]
fn regenerative_build_identical_across_thread_counts() {
    let a = mcmcmi::matgen::pdd_real_sparse(80, 4);
    let builder = McmcInverse::new(BuildConfig::default());
    let reference = builder.build_regenerative(&a, 1.0, 500).matrix().clone();
    for threads in [1usize, 3, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        let got = pool.install(|| builder.build_regenerative(&a, 1.0, 500));
        assert_eq!(got.matrix(), &reference, "thread count {threads}");
    }
}

#[test]
fn suite_generation_is_reproducible() {
    for m in PaperMatrix::lite_training_set() {
        assert_eq!(m.generate(), m.generate(), "{m:?}");
    }
}

#[test]
fn dataset_metrics_reproducible() {
    use mcmcmi::core::{MeasureConfig, MeasurementRunner};
    use mcmcmi::krylov::SolverType;
    let a = mcmcmi::matgen::pdd_real_sparse(40, 2);
    let r = MeasurementRunner::new(MeasureConfig::default());
    let p = McmcParams::new(1.0, 0.25, 0.25);
    let (m1, s1, _) = r.measure_replicated(&a, p, SolverType::Gmres, 3, 5);
    let (m2, s2, _) = r.measure_replicated(&a, p, SolverType::Gmres, 3, 5);
    assert_eq!(m1, m2);
    assert_eq!(s1, s2);
    // Different seed ⇒ (almost surely) different replicate values.
    let (_, _, ms3) = r.measure_replicated(&a, p, SolverType::Gmres, 3, 99);
    let (_, _, ms1) = r.measure_replicated(&a, p, SolverType::Gmres, 3, 5);
    let ys1: Vec<f64> = ms1.iter().map(|m| m.y).collect();
    let ys3: Vec<f64> = ms3.iter().map(|m| m.y).collect();
    assert!(ys1 != ys3 || ys1.iter().all(|y| (y - ys1[0]).abs() < 1e-15));
}

#[test]
fn surrogate_training_deterministic() {
    use mcmcmi::gnn::{
        train_surrogate, GraphSample, MatrixGraph, Surrogate, SurrogateConfig, SurrogateDataset,
        TrainConfig,
    };
    let mut ds = SurrogateDataset::default();
    let m = ds.add_matrix(
        MatrixGraph::from_csr(&mcmcmi::matgen::laplace_1d(8)),
        vec![0.0, 1.0],
    );
    for k in 0..24 {
        let t = k as f64 / 23.0;
        ds.push_sample(GraphSample {
            matrix_idx: m,
            xm: vec![t, 1.0 - t],
            y_mean: 0.5 + 0.3 * t,
            y_std: 0.02,
        });
    }
    let cfg = SurrogateConfig {
        gnn_hidden: 8,
        xa_hidden: 4,
        xm_hidden: 4,
        comb_hidden: 8,
        dropout: 0.1,
        ..SurrogateConfig::lite(2, 2)
    };
    let tcfg = TrainConfig {
        epochs: 5,
        patience: 0,
        ..Default::default()
    };
    let run = || {
        let mut s = Surrogate::new(cfg);
        let rep = train_surrogate(&mut s, &ds, tcfg);
        (rep.train_loss, s.params().tensors().to_vec())
    };
    let (l1, p1) = run();
    let (l2, p2) = run();
    assert_eq!(l1, l2);
    assert_eq!(p1, p2);
}

/// The closed tuning loop end to end: the autotune recommendation (joint
/// `(α, ε, δ) × CompressionPolicy` search with safeguarded builds, TPE
/// sampling, and probe solves) and the resulting tuned build + solve must
/// be bit-identical across thread counts. This leans on every layer at
/// once — deterministic sampler seeding, schedule-independent builds,
/// lockstep batched probes, and the byte-cost score (which deliberately
/// prices bytes, not wall-clock, exactly so this test can exist).
#[test]
fn autotune_recommendation_and_tuned_solve_identical_across_thread_counts() {
    use mcmcmi::core::autotune::{AutoTuner, AutotuneConfig};
    use mcmcmi::krylov::TuneBudget;
    let a = mcmcmi::matgen::pdd_real_sparse(72, 9);
    let n = a.nrows();
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.29).sin()).collect();
    let run = |threads: Option<usize>| {
        let mut tuner = AutoTuner::new(AutotuneConfig::default());
        let mut tune = || tuner.auto_session(&a, TuneBudget::smoke(11)).unwrap();
        let (mut session, report) = match threads {
            None => tune(),
            Some(t) => rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .unwrap()
                .install(tune),
        };
        let solve = session.solve(&b);
        (report, solve)
    };
    let (ref_report, ref_solve) = run(None);
    for threads in [1usize, 8] {
        let (report, solve) = run(Some(threads));
        // Recommendation: chosen parameters, policy, score, and the whole
        // trial trail match bit for bit.
        assert_eq!(report.params, ref_report.params, "{threads} threads");
        assert_eq!(
            report.policy.drop_tol, ref_report.policy.drop_tol,
            "{threads} threads"
        );
        assert_eq!(report.policy.row_topk, ref_report.policy.row_topk);
        assert_eq!(report.policy.precision, ref_report.policy.precision);
        assert_eq!(report.score, ref_report.score, "{threads} threads");
        assert_eq!(report.trials.len(), ref_report.trials.len());
        for (t, (got, want)) in report.trials.iter().zip(&ref_report.trials).enumerate() {
            assert_eq!(got.requested, want.requested, "trial {t}");
            assert_eq!(got.score, want.score, "trial {t}");
            assert_eq!(got.probe_iters, want.probe_iters, "trial {t}");
        }
        // Tuned build + solve: the session's answer matches bit for bit.
        assert_eq!(solve.x, ref_solve.x, "{threads} threads");
        assert_eq!(solve.iterations, ref_solve.iterations);
        assert_eq!(solve.rel_residual, ref_solve.rel_residual);
    }
}

/// The mixed-precision apply path: a compressed f32 preconditioner applied
/// through the SpMV/SpMM seam is bit-identical at any thread count, both
/// per vector and per block column.
#[test]
fn compressed_f32_apply_identical_across_thread_counts() {
    use mcmcmi::krylov::Preconditioner;
    use mcmcmi::mcmc::CompressionPolicy;
    let a = fd_laplace_2d(12);
    let n = a.nrows();
    let out =
        McmcInverse::new(BuildConfig::default()).build(&a, McmcParams::new(0.1, 0.125, 0.125));
    let (cp, _) = out.compress(&CompressionPolicy::f32(1e-3));
    let r: Vec<f64> = (0..n).map(|i| (i as f64 * 0.037).sin()).collect();
    let k = 6usize;
    let rb: Vec<f64> = (0..n * k).map(|t| (t as f64 * 0.011).cos()).collect();
    let mut ref_v = vec![0.0; n];
    cp.apply(&r, &mut ref_v);
    let mut ref_b = vec![0.0; n * k];
    cp.apply_block(&rb, k, &mut ref_b);
    for threads in [1usize, 2, 8] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        // A clone is the same plain data — results must not move.
        let cp2 = cp.clone();
        let mut v = vec![0.0; n];
        pool.install(|| cp2.apply(&r, &mut v));
        assert_eq!(v, ref_v, "apply, thread count {threads}");
        let mut b = vec![0.0; n * k];
        pool.install(|| cp2.apply_block(&rb, k, &mut b));
        assert_eq!(b, ref_b, "apply_block, thread count {threads}");
    }
}
