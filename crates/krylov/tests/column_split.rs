//! A batch whose product is too small to split by rows is split by columns:
//! `min(k, threads)` contiguous groups, each on its own one-thread worker.
//! Every column keeps the bits of its scalar solve whichever way the batch
//! ran, and the split engages exactly when `solve_columns` says it does:
//! more than one thread, two or more columns, a product below the row-split
//! threshold, and no operator that declares order-dependent results.

use mcmcmi_krylov::{
    solve, solve_batch, solve_resilient, with_cancel, CancelToken, JacobiPrecond, Preconditioner,
    RecoveryContext, RecoveryPolicy, SolveFailure, SolveOptions, SolveResult, SolveSession,
    SolverType, WatchdogConfig,
};
use mcmcmi_matgen::{convection_diffusion_2d, fd_laplace_2d, ConvectionDiffusionParams};
use mcmcmi_sparse::{set_par_threshold_for_tests, Csr, KernelBackend};
use std::collections::HashSet;
use std::sync::Mutex;
use std::thread::ThreadId;

const ALL: [SolverType; 5] = [
    SolverType::Cg,
    SolverType::FCg,
    SolverType::Gmres,
    SolverType::Fgmres,
    SolverType::BiCgStab,
];
const WIDTHS: [usize; 3] = [2, 3, 8];
const POOLS: [usize; 3] = [1, 2, 8];

/// Serializes the tests of this binary: one of them installs the
/// process-wide threshold override, which the thread-count checks read.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn in_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build();
    pool.expect("a pool").install(f)
}

/// Forwards to `inner` and records which threads called it. The products
/// stay pure functions of their inputs unless `order_dependent` says
/// otherwise.
struct Recording<B> {
    inner: B,
    threads: Mutex<HashSet<ThreadId>>,
    order_dependent: bool,
}

impl<B> Recording<B> {
    fn new(inner: B) -> Self {
        Self {
            inner,
            threads: Mutex::new(HashSet::new()),
            order_dependent: false,
        }
    }

    fn note(&self) {
        let id = std::thread::current().id();
        self.threads.lock().unwrap().insert(id);
    }

    /// Distinct threads seen since the last take.
    fn take(&self) -> usize {
        std::mem::take(&mut *self.threads.lock().unwrap()).len()
    }
}

impl<B: KernelBackend> KernelBackend for Recording<B> {
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
        self.note();
        self.inner.spmv(x, y);
    }
    fn spmm(&self, x: &[f64], k: usize, y: &mut [f64]) {
        self.note();
        self.inner.spmm(x, k, y);
    }
    fn order_dependent(&self) -> bool {
        self.order_dependent
    }
}

impl<P: Preconditioner> Preconditioner for Recording<P> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.note();
        self.inner.apply(r, z);
    }
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn apply_block(&self, r: &[f64], k: usize, z: &mut [f64]) {
        self.note();
        self.inner.apply_block(r, k, z);
    }
    fn order_dependent(&self) -> bool {
        self.order_dependent
    }
}

/// A symmetric operator for the CG family, a convection-dominated one for
/// the rest.
fn operator(solver: SolverType) -> Csr {
    match solver {
        SolverType::Cg | SolverType::FCg => fd_laplace_2d(9),
        _ => convection_diffusion_2d(ConvectionDiffusionParams {
            nx: 9,
            ny: 9,
            eps: 1.0,
            aniso: 0.8,
            wind: 8.0,
            contrast: 0.0,
            wide: false,
        }),
    }
}

/// `k` right-hand sides of different smoothness (so columns retire in
/// different rounds), one of them zero.
fn rhs_set(n: usize, k: usize) -> Vec<Vec<f64>> {
    (0..k)
        .map(|c| {
            if c == 1 {
                return vec![0.0; n];
            }
            (0..n)
                .map(|i| (i as f64 * (0.31 + 0.07 * c as f64) + 0.4 * c as f64).sin())
                .collect()
        })
        .collect()
}

/// A short restart (staggered GMRES restarts), and a budget and stall
/// window tight enough that some columns fail and reach the ladder.
fn option_sets() -> [SolveOptions; 2] {
    [
        SolveOptions {
            restart: 6,
            ..Default::default()
        },
        SolveOptions {
            max_iter: 9,
            restart: 4,
            watchdog: WatchdogConfig {
                stall_window: 3,
                ..Default::default()
            },
            ..Default::default()
        },
    ]
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
fn every_driver_width_and_pool_keeps_the_scalar_bits() {
    let _serial = serial();
    let policy = RecoveryPolicy::default();
    for solver in ALL {
        let a = operator(solver);
        let p = JacobiPrecond::new(&a);
        for opts in option_sets() {
            for k in WIDTHS {
                let rhs = rhs_set(a.nrows(), k);
                // Width one never splits: the sequential reference.
                let plain: Vec<_> = rhs.iter().map(|b| solve(&a, b, &p, solver, opts)).collect();
                let ladder: Vec<_> = rhs
                    .iter()
                    .map(|b| {
                        let ctx = RecoveryContext::none();
                        solve_resilient(&a, b, &p, solver, opts, &policy, ctx).result
                    })
                    .collect();
                for threads in POOLS {
                    let (batch, resilient) = in_pool(threads, || {
                        let batch = solve_batch(&a, &rhs, &p, solver, opts);
                        let mut sess = SolveSession::new(a.clone(), p.clone(), solver, opts);
                        let ctx = RecoveryContext::none();
                        let (resilient, _) = sess.solve_batch_resilient(&rhs, &policy, ctx);
                        (batch, resilient)
                    });
                    let case = format!("{solver:?} k={k} threads={threads} {opts:?}");
                    assert_eq!(batch.len(), k, "{case}");
                    for c in 0..k {
                        assert_eq!(bits(&batch[c]), bits(&plain[c]), "{case} col {c}");
                        assert_eq!(bits(&resilient[c]), bits(&ladder[c]), "{case} col {c}");
                    }
                }
            }
        }
    }
}

#[test]
fn a_small_batch_spreads_over_the_pool() {
    let _serial = serial();
    let opts = SolveOptions::default();
    for solver in ALL {
        let a = operator(solver);
        let rhs = rhs_set(a.nrows(), 4);
        let probe = Recording::new(a.clone());
        let precond = Recording::new(JacobiPrecond::new(&a));
        let split = in_pool(2, || solve_batch(&probe, &rhs, &precond, solver, opts));
        assert!(probe.take() >= 2, "{solver:?}: A stayed on one thread");
        assert!(precond.take() >= 2, "{solver:?}: P stayed on one thread");
        for (got, b) in split.iter().zip(&rhs) {
            let p = JacobiPrecond::new(&a);
            assert_eq!(bits(got), bits(&solve(&a, b, &p, solver, opts)));
        }
    }
}

#[test]
fn a_batch_stays_on_one_thread_when_the_split_would_not_pay_or_would_reorder() {
    let _serial = serial();
    let opts = SolveOptions::default();
    let solver = SolverType::Gmres;
    let a = operator(solver);
    let rhs = rhs_set(a.nrows(), 4);
    let run = |threads: usize, a_ordered: bool, p_ordered: bool| {
        let mut probe = Recording::new(a.clone());
        probe.order_dependent = a_ordered;
        let mut precond = Recording::new(JacobiPrecond::new(&a));
        precond.order_dependent = p_ordered;
        in_pool(threads, || {
            solve_batch(&probe, &rhs, &precond, solver, opts)
        });
        (probe.take(), precond.take())
    };
    assert_eq!(run(1, false, false), (1, 1), "one-thread pool");
    assert_eq!(run(8, true, false), (1, 1), "order-dependent A");
    assert_eq!(run(8, false, true), (1, 1), "order-dependent P");

    // With nnz·k over the threshold the batch is split by rows instead,
    // inside each product, and the solver's own calls stay on one thread.
    struct Restore;
    impl Drop for Restore {
        fn drop(&mut self) {
            set_par_threshold_for_tests(None);
        }
    }
    let _restore = Restore;
    set_par_threshold_for_tests(Some(a.nnz() * rhs.len()));
    assert_eq!(run(8, false, false), (1, 1), "row split");
    set_par_threshold_for_tests(Some(a.nnz() * rhs.len() + 1));
    assert_ne!(run(8, false, false), (1, 1), "just below the threshold");
}

#[test]
fn a_cancelled_caller_cancels_every_group() {
    let _serial = serial();
    let solver = SolverType::Fgmres;
    let a = operator(solver);
    let rhs = rhs_set(a.nrows(), 4);
    let p = JacobiPrecond::new(&a);
    let token = CancelToken::new();
    token.cancel();
    let results = in_pool(2, || {
        with_cancel(&token, || {
            solve_batch(&a, &rhs, &p, solver, SolveOptions::default())
        })
    });
    for (c, r) in results.iter().enumerate() {
        // The zero column has nothing to solve and never polls.
        if c != 1 {
            assert_eq!(r.failure(), Some(&SolveFailure::Cancelled), "col {c}");
        }
    }
}
