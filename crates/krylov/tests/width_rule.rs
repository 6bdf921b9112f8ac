//! The batch width picks the Krylov loop, in one place, for every entry
//! point: a one-column call runs the scalar loop (no SpMM, no block apply),
//! a wider one runs the lockstep loop — and at width one every entry point
//! returns the bits of the scalar driver called directly. The two tests
//! that watch the lockstep loop run in a one-thread pool, where no batch is
//! split across workers. (The scalar entry
//! points are the column ones at width one, so comparing those two would
//! compare a function with itself; the reference here is `cg` … `fgmres`.)

use mcmcmi_dense::norm2;
use mcmcmi_krylov::{
    bicgstab, cg, fcg, fgmres, gmres, solve, solve_batch, solve_batch_resilient, solve_resilient,
    solve_warm, IdentityPrecond, JacobiPrecond, Preconditioner, RecoveryContext, RecoveryPolicy,
    RecoveryStepKind, SolveOptions, SolveResult, SolveSession, SolverType,
};
use mcmcmi_matgen::fd_laplace_2d;
use mcmcmi_sparse::{Csr, FaultKind, FaultSpec, FaultyBackend, KernelBackend};
use std::sync::atomic::{AtomicUsize, Ordering};

const ALL: [SolverType; 5] = [
    SolverType::Cg,
    SolverType::BiCgStab,
    SolverType::Gmres,
    SolverType::Fgmres,
    SolverType::FCg,
];

/// Forwards to `inner`, counting the single-vector calls (SpMV, `apply`)
/// and the block calls (SpMM, `apply_block`) apart: only the lockstep loops
/// make block calls.
struct Counting<T> {
    inner: T,
    narrow: AtomicUsize,
    wide: AtomicUsize,
}

impl<T> Counting<T> {
    fn new(inner: T) -> Self {
        Self {
            inner,
            narrow: AtomicUsize::new(0),
            wide: AtomicUsize::new(0),
        }
    }

    /// `(narrow, wide)` calls since the last take.
    fn take(&self) -> (usize, usize) {
        (
            self.narrow.swap(0, Ordering::Relaxed),
            self.wide.swap(0, Ordering::Relaxed),
        )
    }
}

impl<B: KernelBackend> KernelBackend for Counting<B> {
    fn nrows(&self) -> usize {
        self.inner.nrows()
    }
    fn ncols(&self) -> usize {
        self.inner.ncols()
    }
    fn nnz(&self) -> usize {
        self.inner.nnz()
    }
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        self.narrow.fetch_add(1, Ordering::Relaxed);
        self.inner.spmv(x, y);
    }
    fn spmm(&self, x: &[f64], k: usize, y: &mut [f64]) {
        self.wide.fetch_add(1, Ordering::Relaxed);
        self.inner.spmm(x, k, y);
    }
    fn order_dependent(&self) -> bool {
        self.inner.order_dependent()
    }
}

impl<P: Preconditioner> Preconditioner for Counting<P> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.narrow.fetch_add(1, Ordering::Relaxed);
        self.inner.apply(r, z);
    }
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn apply_block(&self, r: &[f64], k: usize, z: &mut [f64]) {
        self.wide.fetch_add(1, Ordering::Relaxed);
        self.inner.apply_block(r, k, z);
    }
    fn order_dependent(&self) -> bool {
        self.inner.order_dependent()
    }
}

/// Run `f` in a one-thread pool: the batch then reaches the width rule
/// whole. With more threads a small batch is first split by columns, and
/// each group's width picks its loop (`column_split.rs`).
fn on_one_thread<R>(f: impl FnOnce() -> R) -> R {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(1).build();
    pool.expect("a one-thread pool").install(f)
}

fn system() -> (Csr, Vec<Vec<f64>>) {
    let a = fd_laplace_2d(8);
    let n = a.nrows();
    let rhs = (0..3)
        .map(|c| {
            (0..n)
                .map(|i| (i as f64 * (0.29 + 0.08 * c as f64) + c as f64).sin())
                .collect()
        })
        .collect();
    (a, rhs)
}

/// The scalar loop of `solver`, called directly: the reference that no
/// entry point under test goes through.
fn scalar_loop<A: KernelBackend, P: Preconditioner>(
    a: &A,
    b: &[f64],
    p: &P,
    solver: SolverType,
    opts: SolveOptions,
) -> SolveResult {
    match solver {
        SolverType::Cg => cg(a, b, p, opts),
        SolverType::BiCgStab => bicgstab(a, b, p, opts),
        SolverType::Gmres => gmres(a, b, p, opts),
        SolverType::Fgmres => fgmres(a, b, p, opts),
        SolverType::FCg => fcg(a, b, p, opts),
    }
}

/// Everything a `SolveResult` says, floats as bits.
fn bits(r: &SolveResult) -> (Vec<u64>, u64, u64, usize, bool, String) {
    (
        r.x.iter().map(|v| v.to_bits()).collect(),
        r.rel_residual.to_bits(),
        r.initial_rel_residual.to_bits(),
        r.iterations,
        r.converged,
        format!("{:?}", r.outcome),
    )
}

#[test]
fn free_solve_batch_reads_the_width() {
    on_one_thread(|| {
        let (a, rhs) = system();
        let p = JacobiPrecond::new(&a);
        let opts = SolveOptions::default();
        let probe = Counting::new(a.clone());
        for solver in ALL {
            let one = solve_batch(&probe, &rhs[..1], &p, solver, opts);
            assert_eq!(probe.take().1, 0, "{solver:?}: width 1 ran a lockstep loop");
            let reference = scalar_loop(&a, &rhs[0], &p, solver, opts);
            assert_eq!(bits(&one[0]), bits(&reference), "{solver:?}");
            assert_eq!(
                bits(&solve(&a, &rhs[0], &p, solver, opts)),
                bits(&reference)
            );

            let three = solve_batch(&probe, &rhs, &p, solver, opts);
            assert!(probe.take().1 > 0, "{solver:?}: width 3 ran scalar loops");
            for (got, b) in three.iter().zip(&rhs) {
                assert_eq!(bits(got), bits(&scalar_loop(&a, b, &p, solver, opts)));
            }
        }
    });
}

#[test]
fn session_and_warm_harness_read_the_width() {
    on_one_thread(|| {
        let (a, rhs) = system();
        let jacobi = JacobiPrecond::new(&a);
        let opts = SolveOptions::default();
        for solver in ALL {
            let probe = Counting::new(JacobiPrecond::new(&a));
            let mut sess = SolveSession::new(a.clone(), probe, solver, opts);

            let reference = scalar_loop(&a, &rhs[0], &jacobi, solver, opts);
            let scalar = sess.solve(&rhs[0]);
            let one = sess.solve_batch(&rhs[..1]);
            assert_eq!(sess.precond().take().1, 0, "{solver:?}: width 1, plain");
            assert_eq!(bits(&scalar), bits(&reference), "{solver:?}");
            assert_eq!(bits(&one[0]), bits(&reference), "{solver:?}");
            let cold = sess.solve_batch(&rhs);
            assert!(sess.precond().take().1 > 0, "{solver:?}: width 3, plain");
            for (got, b) in cold.iter().zip(&rhs) {
                let reference = scalar_loop(&a, b, &jacobi, solver, opts);
                assert_eq!(bits(got), bits(&reference), "{solver:?}");
            }

            // A drift-quality guess per column: the correction systems reach
            // the driver, at the width of the batch.
            let guesses: Vec<Vec<f64>> = cold
                .iter()
                .map(|r| r.x.iter().map(|v| v * (1.0 + 1e-3)).collect())
                .collect();
            // The correction split of the module docs, by hand, through the
            // scalar loop: r₀ = b − A·x₀, A·e = r₀ at tol / (‖r₀‖/‖b‖), x₀ + e.
            let (b, g) = (&rhs[0], &guesses[0]);
            let mut r0 = vec![0.0; b.len()];
            a.spmv(g, &mut r0);
            for (ri, &bi) in r0.iter_mut().zip(b) {
                *ri = bi - *ri;
            }
            let init_rel = norm2(&r0) / norm2(b);
            let inner = SolveOptions {
                tol: opts.tol / init_rel,
                ..opts
            };
            let e = scalar_loop(&a, &r0, &jacobi, solver, inner);
            assert!(e.iterations > 0 && e.iterations < cold[0].iterations);
            let by_hand: Vec<u64> = e.x.iter().zip(g).map(|(e, g)| (e + g).to_bits()).collect();

            let scalar = sess.solve_warm(b, Some(g));
            let one = sess.solve_batch_warm(&rhs[..1], Some(&guesses[..1]));
            assert_eq!(sess.precond().take().1, 0, "{solver:?}: width 1, warm");
            let free = solve_warm(&a, b, Some(g), &jacobi, solver, opts);
            for warm in [&scalar, &one[0], &free] {
                assert_eq!(bits(warm).0, by_hand, "{solver:?}");
                assert_eq!(warm.iterations, e.iterations, "{solver:?}");
                assert_eq!(warm.initial_rel_residual.to_bits(), init_rel.to_bits());
                assert!(warm.converged, "{solver:?}");
            }
            assert_eq!(bits(&one[0]), bits(&scalar), "{solver:?}");
            let three = sess.solve_batch_warm(&rhs, Some(&guesses));
            assert!(sess.precond().take().1 > 0, "{solver:?}: width 3, warm");
            assert!(three.iter().all(|r| r.converged));
        }
    });
}

/// The two inputs the scalar and batch warm harnesses used to treat
/// differently. A guess whose residual is not finite and a zero right-hand
/// side are cold columns: the driver's result comes back as it is, with no
/// re-measure — same bits and same matvec count as the plain solve.
#[test]
fn cold_columns_come_back_as_the_driver_reported_them() {
    let (a, rhs) = system();
    let n = a.nrows();
    let p = JacobiPrecond::new(&a);
    let opts = SolveOptions::default();
    let mut poisoned = vec![1.0; n];
    poisoned[3] = f64::NAN;
    let zero = vec![0.0; n];
    for solver in ALL {
        for (b, guess) in [(&rhs[0], &poisoned), (&zero, &vec![1.0; n])] {
            let probe = Counting::new(a.clone());
            let plain = scalar_loop(&probe, b, &p, solver, opts);
            let plain_matvecs = probe.take().0;
            let warm = solve_warm(&probe, b, Some(guess), &p, solver, opts);
            let (narrow, wide) = probe.take();
            assert_eq!(bits(&warm), bits(&plain), "{solver:?}");
            // The initial residual of a non-zero rhs costs one SpMV; nothing
            // is measured again afterwards.
            let probe_cost = usize::from(b.iter().any(|&v| v != 0.0));
            assert_eq!(
                (narrow, wide),
                (plain_matvecs + probe_cost, 0),
                "{solver:?}"
            );
            // The same column through the batch entry point.
            let mut sess = SolveSession::new(a.clone(), JacobiPrecond::new(&a), solver, opts);
            let (rhs, x0) = (std::slice::from_ref(b), std::slice::from_ref(guess));
            let one = sess.solve_batch_warm(rhs, Some(x0));
            assert_eq!(bits(&one[0]), bits(&plain), "{solver:?}");
        }
    }
}

#[test]
fn ladder_reads_the_width_and_keeps_the_scalar_trail() {
    let (a, rhs) = system();
    let n = a.nrows();
    let p = IdentityPrecond::new(n);
    let opts = SolveOptions::default();
    let policy = RecoveryPolicy::default();
    // An ∞ out of the second matvec — the first Krylov step of every driver
    // — is diagnosed by all five. Fresh wrapper per run, so the call-count
    // clock restarts from zero.
    let fault = FaultSpec {
        call: 1,
        index: 7,
        kind: FaultKind::Inf,
    };
    let faulty = || FaultyBackend::new(a.clone(), vec![fault]);
    for solver in ALL {
        // What the ladder should do, from its documentation: the plain solve
        // fails on the fault, the first rung open without hooks — the
        // flexible sibling, or for a driver that already is flexible the
        // unpreconditioned GMRES fallback — re-solves the column, by now on
        // a clean operator, through the scalar loop.
        let broken = scalar_loop(&faulty(), &rhs[0], &p, solver, opts);
        let trigger = broken.failure().expect("the fault must bite").clone();
        let (step, rung_solver) = if solver.is_flexible() {
            (
                RecoveryStepKind::UnpreconditionedFallback,
                SolverType::Gmres,
            )
        } else {
            (RecoveryStepKind::FlexibleSwap, solver.flexible())
        };
        let rescued = scalar_loop(&a, &rhs[0], &p, rung_solver, opts);
        assert!(rescued.converged, "{solver:?}");

        let scalar = solve_resilient(
            &faulty(),
            &rhs[0],
            &p,
            solver,
            opts,
            &policy,
            RecoveryContext::none(),
        );
        assert_eq!(bits(&scalar.result), bits(&rescued), "{solver:?}");
        let [rung] = &scalar.trail.steps[..] else {
            panic!(
                "{solver:?}: one rung expected, got {}",
                scalar.trail.summary()
            );
        };
        assert_eq!((rung.step, rung.solver), (step, rung_solver), "{solver:?}");
        assert_eq!(rung.trigger, trigger, "{solver:?}");
        assert_eq!(rung.iterations, rescued.iterations, "{solver:?}");
        assert!(rung.recovered && scalar.trail.recovered, "{solver:?}");

        let probe = Counting::new(faulty());
        let ctx = RecoveryContext::none();
        let (one, trail) = solve_batch_resilient(&probe, &rhs[..1], &p, solver, opts, &policy, ctx);
        assert_eq!(probe.take().1, 0, "{solver:?}: width 1 ran a lockstep loop");
        assert_eq!(bits(&one[0]), bits(&rescued), "{solver:?}");
        assert_eq!(
            serde_json::to_string(&trail).unwrap(),
            serde_json::to_string(&scalar.trail).unwrap(),
            "{solver:?}"
        );

        let probe = Counting::new(faulty());
        let ctx = RecoveryContext::none();
        let (three, trail) = solve_batch_resilient(&probe, &rhs, &p, solver, opts, &policy, ctx);
        assert!(probe.take().1 > 0, "{solver:?}: width 3 ran scalar loops");
        assert!(!trail.is_clean() && trail.recovered, "{solver:?}");
        assert!(three.iter().all(|r| r.converged), "{solver:?}");
    }
}
