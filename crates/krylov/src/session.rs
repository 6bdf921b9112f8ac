//! A reusable solve session: one matrix + one preconditioner, many solves.
//!
//! The paper's economics only work when the (expensive, embarrassingly
//! parallel) MCMC preconditioner build is amortised over *many* solves —
//! which in serving practice means many right-hand sides against the same
//! operator. [`SolveSession`] is the object that holds everything those
//! repeated solves share: the matrix, the preconditioner, and the driver
//! workspaces — the scalar loop's vectors and one set of blocks per batch
//! width — so a repeated solve allocates only O(k) bookkeeping, its
//! solutions and, for the one-column methods, the copy of `b` that makes
//! the column.
//!
//! Every method is a few lines over the crate's one dispatch: the batch
//! width, not the method called, decides which Krylov loop runs.

use crate::precond::Preconditioner;
use crate::resilient::{escalate, RecoveryContext, RecoveryPolicy, RecoveryTrail, ResilientResult};
use crate::solver::{only, solve_columns, SolveOptions, SolveResult, SolverType, Workspaces};
use crate::warm::warm_columns;
use mcmcmi_sparse::{Csr, KernelBackend, SpecializedBackend, Structure};
use std::sync::Arc;

/// A solver bound to one `(A, P)` pair for repeated single and batched
/// solves.
///
/// Single solves ([`SolveSession::solve`]) produce results bit-identical
/// to the free functions ([`crate::solve`]); batched solves
/// ([`SolveSession::solve_batch`]) produce results bit-identical to
/// sequential single solves, at any thread count, while sharing every
/// matrix traversal and preconditioner application across the batch.
#[derive(Clone, Debug)]
pub struct SolveSession<P: Preconditioner> {
    /// The operator behind the kernel seam: structure is detected once at
    /// session build, so every matvec in every solve dispatches straight
    /// to the stencil or generic kernel family. Shared, so the sessions
    /// a cache binds to one operator hold one copy of it between them.
    a: Arc<SpecializedBackend>,
    precond: P,
    solver: SolverType,
    opts: SolveOptions,
    ws: Workspaces,
}

impl<P: Preconditioner> SolveSession<P> {
    /// Bind a matrix and preconditioner into a session.
    ///
    /// # Panics
    /// Panics if `a` is not square or the preconditioner dimension differs.
    pub fn new(a: Csr, precond: P, solver: SolverType, opts: SolveOptions) -> Self {
        Self::with_backend(
            Arc::new(SpecializedBackend::detect(a)),
            precond,
            solver,
            opts,
        )
    }

    /// Bind an operator whose structure is already detected, sharing it
    /// with whoever else holds the `Arc` (with `P = Arc<_>`, the
    /// preconditioner too): binding copies nothing and scans nothing.
    ///
    /// # Panics
    /// Panics if `a` is not square or the preconditioner dimension differs.
    pub fn with_backend(
        a: Arc<SpecializedBackend>,
        precond: P,
        solver: SolverType,
        opts: SolveOptions,
    ) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "SolveSession: matrix must be square");
        assert_eq!(
            a.nrows(),
            precond.dim(),
            "SolveSession: preconditioner dimension mismatch"
        );
        Self {
            a,
            precond,
            solver,
            opts,
            ws: Workspaces::default(),
        }
    }

    /// The session's matrix.
    pub fn matrix(&self) -> &Csr {
        self.a.csr()
    }

    /// The kernel backend the session's matvecs dispatch through.
    pub fn backend(&self) -> &SpecializedBackend {
        &self.a
    }

    /// The structure detected for the session's matrix at build time.
    pub fn structure(&self) -> &Structure {
        self.a.structure()
    }

    /// The session's preconditioner.
    pub fn precond(&self) -> &P {
        &self.precond
    }

    /// The session's solve options.
    pub fn opts(&self) -> SolveOptions {
        self.opts
    }

    /// Solve a single system: [`SolveSession::solve_batch`] at width one.
    ///
    /// # Panics
    /// Panics if `b` has the wrong length.
    pub fn solve(&mut self, b: &[f64]) -> SolveResult {
        only(self.solve_batch(&[b.to_vec()]))
    }

    /// Solve a batch of systems. Two or more columns run in lockstep,
    /// sharing every matrix traversal (SpMM) and preconditioner
    /// application across the batch with per-column convergence masking;
    /// a single column runs the scalar loop. A batch whose products are too
    /// small to split by rows is split by columns across the pool, one
    /// group per thread. Results are bit-identical to calling
    /// [`SolveSession::solve`] once per rhs, in order, and to the free
    /// [`crate::solve_batch`]. The workspace for this batch width (or for
    /// each column group's) persists on the session, so repeated same-width
    /// batches reuse every O(n·k) buffer.
    ///
    /// # Panics
    /// Panics if any rhs has the wrong length.
    pub fn solve_batch(&mut self, rhs: &[Vec<f64>]) -> Vec<SolveResult> {
        solve_columns(
            &*self.a,
            &self.precond,
            self.solver,
            self.opts,
            rhs,
            &mut self.ws,
        )
    }

    /// [`SolveSession::solve_batch_resilient`] at width one.
    ///
    /// # Panics
    /// Panics if `b` has the wrong length.
    pub fn solve_resilient(
        &mut self,
        b: &[f64],
        policy: &RecoveryPolicy,
        ctx: RecoveryContext<'_>,
    ) -> ResilientResult {
        let (results, trail) = self.solve_batch_resilient(&[b.to_vec()], policy, ctx);
        ResilientResult {
            result: only(results),
            trail,
        }
    }

    /// [`SolveSession::solve_batch`] with the recovery ladder behind it: a
    /// clean batch is bit-identical to the plain path (empty trail); on
    /// structured failures the [`RecoveryPolicy`] rungs escalate
    /// deterministically, each re-solving only the still-failing columns
    /// and leaving converged siblings' results untouched, and the
    /// [`RecoveryTrail`] records each one.
    ///
    /// # Panics
    /// Panics if any rhs has the wrong length.
    pub fn solve_batch_resilient(
        &mut self,
        rhs: &[Vec<f64>],
        policy: &RecoveryPolicy,
        ctx: RecoveryContext<'_>,
    ) -> (Vec<SolveResult>, RecoveryTrail) {
        let base = self.solve_batch(rhs);
        escalate(
            &*self.a,
            rhs,
            &self.precond,
            self.solver,
            self.opts,
            policy,
            ctx,
            base,
            &mut self.ws,
        )
    }

    /// [`SolveSession::solve_batch_warm`] at width one (see
    /// [`crate::solve_warm`] for the exact contracts).
    ///
    /// # Panics
    /// Panics if `b` or `x0` has the wrong length.
    pub fn solve_warm(&mut self, b: &[f64], x0: Option<&[f64]>) -> SolveResult {
        let guess = x0.map(|x| [x.to_vec()]);
        only(self.solve_batch_warm(&[b.to_vec()], guess.as_ref().map(|g| &g[..])))
    }

    /// [`SolveSession::solve_batch`] with per-column initial guesses (the
    /// contracts are on [`crate::warm`]). The correction sub-batch reuses
    /// the session's workspaces — note its width is the number of columns
    /// whose guess did *not* already converge, so a drift sequence in
    /// steady state mostly exercises the small widths.
    ///
    /// # Panics
    /// Panics if any rhs or guess has the wrong length.
    pub fn solve_batch_warm(
        &mut self,
        rhs: &[Vec<f64>],
        x0: Option<&[Vec<f64>]>,
    ) -> Vec<SolveResult> {
        let (solver, opts) = (self.solver, self.opts);
        warm_columns(&*self.a, &self.precond, solver, opts, rhs, x0, &mut self.ws)
    }

    /// Swap the operator under the session — the drift-step primitive.
    /// Structure is re-detected for the new matrix (so the kernel seam
    /// keeps dispatching to the right kernel family), while every
    /// solver workspace is kept: a drifting sequence of same-size
    /// operators never re-allocates its iteration vectors.
    ///
    /// The preconditioner is *not* touched; pairing the old inverse with
    /// the new operator is exactly the graceful-degradation regime the
    /// [`crate::StalenessMonitor`] and the refresh ladder manage.
    ///
    /// # Panics
    /// Panics if the new matrix is not square or changes dimension.
    pub fn replace_matrix(&mut self, a: Csr) {
        assert_eq!(
            a.nrows(),
            a.ncols(),
            "replace_matrix: matrix must be square"
        );
        assert_eq!(
            a.nrows(),
            self.precond.dim(),
            "replace_matrix: dimension change invalidates the session"
        );
        self.a = Arc::new(SpecializedBackend::detect(a));
    }

    /// Swap the preconditioner (after a partial row rebuild, a safeguarded
    /// full rebuild, or a retune). Workspaces and the detected operator
    /// structure are kept.
    ///
    /// # Panics
    /// Panics if the new preconditioner changes dimension.
    pub fn replace_precond(&mut self, precond: P) {
        assert_eq!(
            precond.dim(),
            self.a.nrows(),
            "replace_precond: dimension mismatch"
        );
        self.precond = precond;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::JacobiPrecond;
    use crate::solver::solve;
    use mcmcmi_matgen::{convection_diffusion_2d, fd_laplace_2d, ConvectionDiffusionParams};

    fn rhs_set(n: usize, k: usize) -> Vec<Vec<f64>> {
        (0..k)
            .map(|c| {
                (0..n)
                    .map(|i| (i as f64 * (0.31 + 0.07 * c as f64) + 0.9 * c as f64).sin())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn session_solve_matches_free_function_repeatedly() {
        let a = fd_laplace_2d(10);
        let n = a.nrows();
        for solver in [SolverType::Cg, SolverType::BiCgStab, SolverType::Gmres] {
            let mut sess = SolveSession::new(
                a.clone(),
                JacobiPrecond::new(&a),
                solver,
                SolveOptions::default(),
            );
            // The session runs the stencil kernels, the free call the
            // generic ones: the seam is live, and the bits agree anyway.
            assert!(sess.backend().is_specialized());
            for b in rhs_set(n, 3) {
                let from_session = sess.solve(&b);
                let reference = solve(
                    &a,
                    &b,
                    &JacobiPrecond::new(&a),
                    solver,
                    SolveOptions::default(),
                );
                assert_eq!(from_session.x, reference.x, "{solver:?}");
                assert_eq!(from_session.iterations, reference.iterations);
                assert_eq!(from_session.rel_residual, reference.rel_residual);
            }
        }
    }

    #[test]
    fn session_batch_bit_identical_to_sequential_solves() {
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
        let rhs = rhs_set(n, 5);
        for solver in [SolverType::BiCgStab, SolverType::Gmres] {
            let mut sess = SolveSession::new(
                a.clone(),
                JacobiPrecond::new(&a),
                solver,
                SolveOptions::default(),
            );
            let batch = sess.solve_batch(&rhs);
            for (c, b) in rhs.iter().enumerate() {
                let scalar = sess.solve(b);
                assert_eq!(batch[c].x, scalar.x, "{solver:?} col {c}");
                assert_eq!(batch[c].iterations, scalar.iterations, "{solver:?} col {c}");
                assert_eq!(batch[c].converged, scalar.converged, "{solver:?} col {c}");
                assert_eq!(
                    batch[c].rel_residual, scalar.rel_residual,
                    "{solver:?} col {c}"
                );
            }
        }
    }

    /// Lockstep blocks held in `ws` and in every column group's scratch.
    fn blocks_held(ws: &Workspaces) -> usize {
        ws.cg.lockstep.len() + ws.groups.iter().map(blocks_held).sum::<usize>()
    }

    #[test]
    fn repeated_batches_reuse_the_width_workspace() {
        let a = fd_laplace_2d(8);
        let n = a.nrows();
        // One thread runs the batch as one lockstep loop; two split it into
        // two column groups, each with its own blocks.
        for (threads, blocks) in [(1, 1), (2, 2)] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let mut sess = SolveSession::new(
                    a.clone(),
                    JacobiPrecond::new(&a),
                    SolverType::Cg,
                    SolveOptions::default(),
                );
                let r1 = sess.solve_batch(&rhs_set(n, 4));
                assert_eq!(blocks_held(&sess.ws), blocks, "{threads} threads");
                let r2 = sess.solve_batch(&rhs_set(n, 4));
                assert_eq!(blocks_held(&sess.ws), blocks, "{threads} threads");
                let _ = sess.solve_batch(&rhs_set(n, 6));
                assert_eq!(blocks_held(&sess.ws), 2 * blocks, "{threads} threads");
                // Same inputs through a reused workspace ⇒ same bits out.
                for (p, q) in r1.iter().zip(&r2) {
                    assert_eq!(p.x, q.x);
                }
            });
        }
    }

    #[test]
    fn flexible_swap_rung_reuses_the_sessions_gmres_basis() {
        let a = fd_laplace_2d(8);
        let n = a.nrows();
        // Too few iterations for GMRES: the ladder's first applicable rung
        // reruns the column as FGMRES, on the session's own scratch.
        let opts = SolveOptions {
            max_iter: 3,
            ..Default::default()
        };
        let precond = JacobiPrecond::new(&a);
        let mut sess = SolveSession::new(a, precond, SolverType::Gmres, opts);
        let b = &rhs_set(n, 1)[0];
        let plain = sess.solve(b);
        assert!(!plain.converged);
        let scratch = &sess.ws.gmres.scalar;
        assert!(scratch.z.is_empty(), "classical GMRES holds no Z basis");
        let held: Vec<*const f64> = scratch.v.iter().map(|v| v.as_ptr()).collect();

        let policy = RecoveryPolicy::default();
        let r = sess.solve_resilient(b, &policy, RecoveryContext::default());
        assert_eq!(r.trail.steps[0].solver, SolverType::Fgmres);
        let scratch = &sess.ws.gmres.scalar;
        assert_eq!(scratch.z.len(), opts.restart);
        let now: Vec<*const f64> = scratch.v.iter().map(|v| v.as_ptr()).collect();
        assert_eq!(held, now);
    }

    /// Compile-time audit that sessions can be shared across the serving
    /// daemon's worker threads: every concrete session type (and the
    /// pieces it is built from — the `SpecializedBackend`, `SparsePrecond`
    /// around it) is `Send + Sync`.
    #[test]
    fn sessions_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SolveSession<crate::precond::SparsePrecond>>();
        assert_send_sync::<SolveSession<crate::precond::SparsePrecond<f32>>>();
        assert_send_sync::<SolveSession<crate::precond::CompressedPrecond>>();
        assert_send_sync::<SolveSession<crate::precond::JacobiPrecond>>();
        assert_send_sync::<SpecializedBackend>();
        assert_send_sync::<crate::cancel::CancelToken>();
    }

    #[test]
    fn empty_batch() {
        let a = fd_laplace_2d(4);
        let mut sess = SolveSession::new(
            a.clone(),
            JacobiPrecond::new(&a),
            SolverType::Cg,
            SolveOptions::default(),
        );
        assert!(sess.solve_batch(&[]).is_empty());
    }
}
