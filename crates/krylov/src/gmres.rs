//! The restarted GMRES family: one scalar loop with a reusable workspace
//! and one lockstep batched (multi-RHS) loop, each taking the `Side` the
//! preconditioner acts on — which is what tells classical GMRES(m) from
//! Saad's flexible FGMRES(m).
//!
//! Arnoldi with modified Gram–Schmidt; the Hessenberg least-squares problem
//! is solved incrementally with Givens rotations (`Hessenberg`), so each
//! inner iteration is O(restart · n) plus one SpMV and one preconditioner
//! application.
//!
//! On the **left**, GMRES solves `PA x = Pb`: `w = P(A v)`, the stopping
//! tests are relative to `‖Pb‖`, and `x` is updated through the orthonormal
//! basis `V`. It may apply `P` to the same vector twice expecting the same
//! answer. On the **right**, FGMRES keeps the preconditioned basis
//! `Z = [P v₀, P v₁, …]` explicitly: `w = A z`, the stopping tests are
//! relative to `‖b‖`, and the update `x += Z y` only ever uses the
//! applications that actually happened, so the preconditioner may change
//! (or wobble) between iterations. That is exactly the contract an inexact
//! operator needs — a drop-tolerance sparsified, f32-demoted MCMC inverse
//! is a slightly different operator than its f64 parent, and FGMRES is
//! indifferent.
//!
//! Two practical bonuses on the right:
//! - the least-squares residual `g[k+1]` *is* the true residual norm (no
//!   preconditioned-norm distortion), so stopping tests need no final
//!   correction loop;
//! - with `P = I` the two sides perform exactly the same arithmetic — the
//!   parity tests pin that down bit-for-bit.
//!
//! Cost on the right: one extra set of `m` basis vectors (`Z`), the
//! classical memory-for-robustness trade of FGMRES. The workspaces allocate
//! it only when a right-side solve asks.
//!
//! Matvecs go through the [`KernelBackend`] seam (auto-dispatched
//! nnz-balanced parallel path above a size threshold, bit-identical to
//! serial, structure-specialized kernels when the backend carries a
//! detected form), and the solver itself runs
//! out of a workspace allocated once up front — the inner and restart
//! loops perform no allocations of their own (the parallel SpMV path
//! allocates its per-call chunk bookkeeping when it engages).

use crate::precond::Preconditioner;
use crate::solver::{
    classify, wrap_scalar, BreakdownKind, ColEnd, ColOutcome, SolveFailure, SolveOptions,
    SolveResult,
};
use crate::watchdog::Watchdog;
use mcmcmi_dense::{
    axpy, axpy_col, axpy_cols_masked, copy_col, dot, dot_col, dot_cols_masked, norm2, norm2_col,
    norm2_cols_masked, scale_col, scale_in_place, scatter_col,
};
use mcmcmi_sparse::KernelBackend;

/// Which side of `A` the preconditioner acts on — the one algorithmic
/// difference between GMRES (left) and FGMRES (right).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Side {
    /// `w = P(A v)`; stop on `‖Pb‖`; update `x` through `V`.
    Left,
    /// `z = P v` kept, `w = A z`; stop on `‖b‖`; update `x` through `Z`.
    Right,
}

impl Side {
    /// The basis `x` is updated through — and whose vectors the matvec of
    /// an Arnoldi step reads: `V` itself on the left, `Z = P·V` on the right.
    fn update_basis<'a>(self, v: &'a [Vec<f64>], z: &'a [Vec<f64>]) -> &'a [Vec<f64>] {
        match self {
            Side::Left => v,
            Side::Right => z,
        }
    }
}

/// The least-squares half of one Arnoldi cycle: the Hessenberg matrix,
/// triangularised column by column with Givens rotations, and the rotated
/// right-hand side whose last entry is the residual norm of the cycle so
/// far. The scalar loop owns one, the lockstep loop one per column.
#[derive(Clone, Debug, Default)]
struct Hessenberg {
    h: Vec<Vec<f64>>,
    cs: Vec<f64>,
    sn: Vec<f64>,
    g: Vec<f64>,
    y: Vec<f64>,
}

impl Hessenberg {
    /// Size for restart length `m`, zeroed like a fresh allocation.
    fn ensure(&mut self, m: usize) {
        self.h.resize_with(m + 1, Vec::new);
        for h in &mut self.h {
            h.clear();
            h.resize(m, 0.0);
        }
        for buf in [&mut self.cs, &mut self.sn, &mut self.y] {
            buf.clear();
            buf.resize(m, 0.0);
        }
        self.g.clear();
        self.g.resize(m + 1, 0.0);
    }

    /// Begin a cycle whose starting residual has norm `beta`.
    fn start(&mut self, beta: f64) {
        self.g.iter_mut().for_each(|t| *t = 0.0);
        self.g[0] = beta;
    }

    /// Take column `k` — Gram–Schmidt coefficients already in `h[0..=k][k]`,
    /// `hkk` the norm of what orthogonalisation left: apply the rotations so
    /// far, form the one that annihilates the subdiagonal, advance `g`.
    /// Returns the residual norm of the cycle with this column in.
    fn push_column(&mut self, k: usize, hkk: f64) -> f64 {
        let (h, cs, sn, g) = (&mut self.h, &mut self.cs, &mut self.sn, &mut self.g);
        h[k + 1][k] = hkk;
        for i in 0..k {
            let t = cs[i] * h[i][k] + sn[i] * h[i + 1][k];
            h[i + 1][k] = -sn[i] * h[i][k] + cs[i] * h[i + 1][k];
            h[i][k] = t;
        }
        let (c, s) = givens(h[k][k], h[k + 1][k]);
        cs[k] = c;
        sn[k] = s;
        h[k][k] = c * h[k][k] + s * h[k + 1][k];
        h[k + 1][k] = 0.0;
        let t = c * g[k];
        g[k + 1] = -s * g[k];
        g[k] = t;
        g[k + 1].abs()
    }

    /// Solve the leading `k_used × k_used` triangle for `y`. `false` on a
    /// zero pivot (a singular Hessenberg): `y` is then not to be used.
    fn back_substitute(&mut self, k_used: usize) -> bool {
        for i in (0..k_used).rev() {
            let mut s = self.g[i];
            for j in (i + 1)..k_used {
                s -= self.h[i][j] * self.y[j];
            }
            let d = self.h[i][i];
            if d.abs() < 1e-300 {
                return false;
            }
            self.y[i] = s / d;
        }
        true
    }
}

/// Reusable scratch for repeated scalar GMRES/FGMRES solves on same-shape
/// problems (same `n` and restart length; empty until first use). After the
/// first solve, subsequent [`gmres_with`] calls allocate nothing beyond the
/// returned solution vector. `z` stays empty until a right-side solve.
#[derive(Clone, Debug, Default)]
pub(crate) struct GmresWorkspace {
    pub(crate) v: Vec<Vec<f64>>,
    pub(crate) z: Vec<Vec<f64>>,
    hess: Hessenberg,
    w: Vec<f64>,
    aw: Vec<f64>,
    fin: Vec<f64>,
}

impl GmresWorkspace {
    /// Size every buffer `side` uses for an `n`-dimensional solve with
    /// restart `m`, starting from the same zeroed state a fresh allocation
    /// would have.
    fn ensure(&mut self, n: usize, m: usize, side: Side) {
        zeroed_basis(&mut self.v, m + 1, n);
        if side == Side::Right {
            zeroed_basis(&mut self.z, m, n);
        }
        self.hess.ensure(m);
        for buf in [&mut self.w, &mut self.aw] {
            buf.clear();
            buf.resize(n, 0.0);
        }
    }
}

/// `count` zeroed vectors of length `len`, reusing what `basis` holds.
fn zeroed_basis(basis: &mut Vec<Vec<f64>>, count: usize, len: usize) {
    basis.resize_with(count, Vec::new);
    for v in basis {
        v.clear();
        v.resize(len, 0.0);
    }
}

/// Solve the left-preconditioned system `PA x = Pb` with GMRES(m).
///
/// Iteration counts are *total inner iterations* across restarts — the
/// quantity the paper's Eq. (4) metric is built from. Convergence is
/// declared on the preconditioned recursive residual and then verified
/// against the true residual (a final correction loop runs if the true
/// residual lags, which left preconditioning can cause).
pub fn gmres<A: KernelBackend + ?Sized, P: Preconditioner + ?Sized>(
    a: &A,
    b: &[f64],
    precond: &P,
    opts: SolveOptions,
) -> SolveResult {
    let ws = &mut GmresWorkspace::default();
    gmres_with(a, b, precond, opts, Side::Left, ws)
}

/// Solve `Ax = b` with right-preconditioned flexible GMRES(m).
///
/// Iteration counts are total inner iterations across restarts, matching
/// [`gmres`]'s reporting. Convergence is declared on the true residual
/// (right preconditioning leaves it undistorted) and verified by the
/// shared finalize step.
pub fn fgmres<A: KernelBackend + ?Sized, P: Preconditioner + ?Sized>(
    a: &A,
    b: &[f64],
    precond: &P,
    opts: SolveOptions,
) -> SolveResult {
    let ws = &mut GmresWorkspace::default();
    gmres_with(a, b, precond, opts, Side::Right, ws)
}

/// The scalar loop behind [`gmres`] and [`fgmres`], on caller-owned scratch
/// ([`GmresWorkspace`]) — zero per-call allocation of the Krylov bases and
/// Hessenberg factors.
pub(crate) fn gmres_with<A: KernelBackend + ?Sized, P: Preconditioner + ?Sized>(
    a: &A,
    b: &[f64],
    precond: &P,
    opts: SolveOptions,
    side: Side,
    ws: &mut GmresWorkspace,
) -> SolveResult {
    let n = b.len();
    let m = opts.restart.max(1);
    let mut x = vec![0.0; n];
    let mut total_iters = 0usize;
    ws.ensure(n, m, side);

    // The norm the stopping tests are relative to, and the exit for a rhs
    // that has none.
    let stop_norm = match side {
        Side::Left => {
            precond.apply(b, &mut ws.w);
            let pb_norm = norm2(&ws.w);
            if pb_norm == 0.0 || !pb_norm.is_finite() {
                // P b == 0 means x = 0 solves PA x = Pb; report against true residual.
                let failure = (!pb_norm.is_finite()).then(|| SolveFailure::NonFinite {
                    what: "preconditioned rhs".to_string(),
                });
                let end = ColEnd::Preset {
                    converged: pb_norm == 0.0,
                };
                return wrap_scalar(a, b, x, 0, failure, opts.tol, end, &mut ws.fin);
            }
            pb_norm
        }
        Side::Right => {
            let b_norm = norm2(b);
            if b_norm == 0.0 {
                // x = 0 is exact; no residual to measure.
                let end = ColEnd::Skip { converged: true };
                return classify(x, 0, 0.0, None, opts.tol, end, 0.0);
            }
            b_norm
        }
    };

    let mut failure: Option<SolveFailure> = None;
    let mut wd = Watchdog::new(opts.watchdog, opts.tol * stop_norm, opts.max_iter);
    'outer: while total_iters < opts.max_iter {
        // v₀ = r/‖r‖, with r = P(b − Ax) on the left and the true residual
        // b − Ax on the right.
        a.spmv(&x, &mut ws.aw);
        let r = match side {
            Side::Left => &mut ws.w,
            Side::Right => &mut ws.v[0],
        };
        for ((ri, &bi), &ai) in r.iter_mut().zip(b).zip(&ws.aw) {
            *ri = bi - ai;
        }
        if side == Side::Left {
            precond.apply(&ws.w, &mut ws.v[0]);
        }
        let beta = norm2(&ws.v[0]);
        if !beta.is_finite() {
            failure = Some(SolveFailure::NonFinite {
                what: "restart residual".to_string(),
            });
            break;
        }
        if beta <= opts.tol * stop_norm {
            break;
        }
        if let Some(f) = wd.observe(beta) {
            failure = Some(f);
            break;
        }
        scale_in_place(1.0 / beta, &mut ws.v[0]);
        ws.hess.start(beta);

        let mut k_used = 0;
        for k in 0..m {
            if total_iters >= opts.max_iter {
                break;
            }
            total_iters += 1;
            match side {
                // w = P(A v_k)
                Side::Left => {
                    a.spmv(&ws.v[k], &mut ws.aw);
                    precond.apply(&ws.aw, &mut ws.w);
                }
                // z_k = P v_k (kept!), w = A z_k.
                Side::Right => {
                    precond.apply(&ws.v[k], &mut ws.z[k]);
                    a.spmv(&ws.z[k], &mut ws.w);
                }
            }
            // Modified Gram–Schmidt against the orthonormal V basis.
            for i in 0..=k {
                let hik = dot(&ws.w, &ws.v[i]);
                ws.hess.h[i][k] = hik;
                axpy(-hik, &ws.v[i], &mut ws.w);
            }
            let hkk = norm2(&ws.w);
            if !hkk.is_finite() {
                failure = Some(SolveFailure::NonFinite {
                    what: "Hessenberg norm".to_string(),
                });
                break 'outer;
            }
            if hkk > 1e-14 {
                for (t, &wi) in ws.v[k + 1].iter_mut().zip(&ws.w) {
                    *t = wi / hkk;
                }
            }
            // On the right this is the *true* residual norm.
            let residual = ws.hess.push_column(k, hkk);
            k_used = k + 1;
            // Happy breakdown: exact solution in the Krylov space.
            if hkk <= 1e-14 {
                break;
            }
            if residual <= opts.tol * stop_norm {
                break;
            }
            // A full basis ends the cycle unobserved: the restart's β is the
            // next thing the watchdog sees, in this loop as in the lockstep one.
            if k + 1 == m {
                break;
            }
            if let Some(f) = wd.observe(residual) {
                failure = Some(f);
                break 'outer;
            }
        }

        // Solve for y and update x — through V on the left, through the
        // *preconditioned* basis Z on the right.
        if k_used == 0 {
            break;
        }
        if !ws.hess.back_substitute(k_used) {
            failure = Some(SolveFailure::Breakdown {
                kind: BreakdownKind::SingularHessenberg,
                iteration: total_iters,
            });
            break;
        }
        let basis = side.update_basis(&ws.v, &ws.z);
        for (j, &yj) in ws.hess.y.iter().enumerate().take(k_used) {
            axpy(yj, &basis[j], &mut x);
        }
    }

    // True-residual convergence check happens in finalize.
    let end = ColEnd::Wrapped;
    wrap_scalar(a, b, x, total_iters, failure, opts.tol, end, &mut ws.fin)
}

/// Block workspace for [`gmres_batch`]: the Krylov basis blocks (the
/// dominant allocation: `(m+1)·n·k` doubles on the left, `(2m+1)·n·k` once a
/// right-side solve has added `z`) and per-column factor scratch, reused
/// across batches of the same (or smaller) shape. Empty until first use.
#[derive(Clone, Debug, Default)]
pub(crate) struct GmresBlockWorkspace {
    bb: Vec<f64>,
    xb: Vec<f64>,
    inb: Vec<f64>,
    awb: Vec<f64>,
    pinb: Vec<f64>,
    poutb: Vec<f64>,
    v: Vec<Vec<f64>>,
    z: Vec<Vec<f64>>,
    cols: Vec<Hessenberg>,
    fin: Vec<f64>,
}

impl GmresBlockWorkspace {
    fn ensure(&mut self, n: usize, m: usize, k: usize, side: Side) {
        for buf in [
            &mut self.bb,
            &mut self.xb,
            &mut self.inb,
            &mut self.awb,
            &mut self.poutb,
        ] {
            buf.clear();
            buf.resize(n * k, 0.0);
        }
        zeroed_basis(&mut self.v, m + 1, n * k);
        if side == Side::Right {
            // What only the right side uses: the block P is applied to, and
            // the preconditioned basis.
            self.pinb.clear();
            self.pinb.resize(n * k, 0.0);
            zeroed_basis(&mut self.z, m, n * k);
        }
        self.cols.resize_with(k, Default::default);
        for c in &mut self.cols {
            c.ensure(m);
        }
    }
}

/// What a [`gmres_batch`] column does in the current lockstep round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum GmresMode {
    /// Next shared matvec computes this column's restart residual `b − Ax`.
    Restart,
    /// Next shared matvec is this column's Arnoldi step on `v[ki]`.
    Inner,
    /// Retired: converged, broken down, or out of iterations.
    Done,
}

/// Lockstep batched GMRES(m)/FGMRES(m): every round performs one batch-wide
/// SpMM and one block preconditioner application, serving whatever each
/// column needs next — a restart residual or an Arnoldi step — so columns
/// at different restart phases still share every matrix traversal. Each
/// column's arithmetic is exactly the scalar [`gmres_with`] sequence for
/// the same `side` — the strided column kernels and the fused block sweeps
/// are bit-identical to their contiguous counterparts — so results match
/// sequential single-RHS solves bit for bit at any thread count, with
/// per-column convergence masking.
///
/// # Panics
/// Panics if `A` is not square or any rhs has the wrong length.
pub(crate) fn gmres_batch<A: KernelBackend + ?Sized, P: Preconditioner + ?Sized>(
    a: &A,
    rhs: &[Vec<f64>],
    precond: &P,
    opts: SolveOptions,
    side: Side,
    ws: &mut GmresBlockWorkspace,
) -> Vec<SolveResult> {
    assert_eq!(a.nrows(), a.ncols(), "gmres_batch: matrix must be square");
    let n = a.nrows();
    let k = rhs.len();
    if k == 0 {
        return Vec::new();
    }
    for b in rhs {
        assert_eq!(b.len(), n, "gmres_batch: rhs dimension mismatch");
    }
    let m = opts.restart.max(1);
    ws.ensure(n, m, k, side);
    for (c, b) in rhs.iter().enumerate() {
        scatter_col(b, &mut ws.bb, k, c);
    }

    let mut mode = vec![GmresMode::Restart; k];
    let mut outcome = vec![
        ColOutcome {
            iterations: 0,
            failure: None,
            end: ColEnd::Wrapped,
        };
        k
    ];
    let mut total_iters = vec![0usize; k];
    let mut ki = vec![0usize; k]; // inner (Arnoldi) index per column
    let mut k_used = vec![0usize; k];
    let mut stop_norm = vec![0.0f64; k];

    // Stopping norms and the scalar loop's early exits: ‖Pb‖ on the left
    // (one block application for all columns), ‖b‖ on the right.
    match side {
        Side::Left => {
            precond.apply_block(&ws.bb, k, &mut ws.poutb);
            for c in 0..k {
                stop_norm[c] = norm2_col(&ws.poutb, k, c);
                if stop_norm[c] == 0.0 || !stop_norm[c].is_finite() {
                    mode[c] = GmresMode::Done;
                    outcome[c].failure =
                        (!stop_norm[c].is_finite()).then(|| SolveFailure::NonFinite {
                            what: "preconditioned rhs".to_string(),
                        });
                    outcome[c].end = ColEnd::Preset {
                        converged: stop_norm[c] == 0.0,
                    };
                }
            }
        }
        Side::Right => {
            for c in 0..k {
                stop_norm[c] = norm2_col(&ws.bb, k, c);
                if stop_norm[c] == 0.0 {
                    mode[c] = GmresMode::Done;
                    outcome[c].end = ColEnd::Skip { converged: true };
                }
            }
        }
    }

    // Everything after a column's MGS + basis-vector update: Hessenberg
    // column, and the inner-loop exit decisions. Shared by the fused
    // (mode-uniform) and per-column post-phases. `basis` is what `x` is
    // updated through.
    #[allow(clippy::too_many_arguments)]
    fn arnoldi_tail(
        col: &mut Hessenberg,
        basis: &[Vec<f64>],
        xb: &mut [f64],
        k: usize,
        c: usize,
        kc: usize,
        hkk: f64,
        m: usize,
        opts: &SolveOptions,
        stop_norm_c: f64,
        total_iters_c: usize,
        ki_c: &mut usize,
        k_used_c: &mut usize,
        mode_c: &mut GmresMode,
        outcome_c: &mut ColOutcome,
        wd_c: &mut Watchdog,
    ) {
        if !hkk.is_finite() {
            // Scalar `break 'outer`: retire without back-substitution.
            outcome_c.failure = Some(SolveFailure::NonFinite {
                what: "Hessenberg norm".to_string(),
            });
            outcome_c.iterations = total_iters_c;
            *mode_c = GmresMode::Done;
            return;
        }
        let residual = col.push_column(kc, hkk);
        *k_used_c = kc + 1;
        // Inner-loop exits: happy breakdown, recursive-residual
        // convergence, or the basis filling up.
        let exit = hkk <= 1e-14 || residual <= opts.tol * stop_norm_c || kc + 1 == m;
        if exit {
            *mode_c = finish_inner(
                col,
                basis,
                xb,
                k,
                c,
                *k_used_c,
                total_iters_c,
                opts.max_iter,
                &mut outcome_c.failure,
            );
            if *mode_c == GmresMode::Done {
                outcome_c.iterations = total_iters_c;
            }
        } else if let Some(f) = wd_c.observe(residual) {
            // Scalar `break 'outer` on a tripped watchdog: retire without
            // back-substitution.
            outcome_c.failure = Some(f);
            outcome_c.iterations = total_iters_c;
            *mode_c = GmresMode::Done;
        } else {
            *ki_c = kc + 1;
        }
    }

    // End of a column's inner loop: back-substitute, update x through
    // `basis`, and either restart or retire — exactly the scalar
    // post-inner-loop block. Returns the column's next mode.
    #[allow(clippy::too_many_arguments)]
    fn finish_inner(
        col: &mut Hessenberg,
        basis: &[Vec<f64>],
        xb: &mut [f64],
        k: usize,
        c: usize,
        k_used: usize,
        total_iters: usize,
        max_iter: usize,
        failure: &mut Option<SolveFailure>,
    ) -> GmresMode {
        if k_used == 0 {
            return GmresMode::Done;
        }
        if !col.back_substitute(k_used) {
            *failure = Some(SolveFailure::Breakdown {
                kind: BreakdownKind::SingularHessenberg,
                iteration: total_iters,
            });
            return GmresMode::Done; // scalar `break`: x untouched
        }
        for (j, &yj) in col.y.iter().enumerate().take(k_used) {
            axpy_col(yj, &basis[j], xb, k, c);
        }
        if total_iters < max_iter {
            GmresMode::Restart
        } else {
            GmresMode::Done
        }
    }

    // Per-column watchdogs: same observations, same order as the scalar
    // driver, so lockstep columns trip (or don't) identically.
    let mut wds: Vec<Watchdog> = (0..k)
        .map(|c| Watchdog::new(opts.watchdog, opts.tol * stop_norm[c], opts.max_iter))
        .collect();

    // Per-round scratch for the fused fast path, hoisted out of the hot loop.
    let mut mask = vec![false; k];
    let mut hik = vec![0.0f64; k];
    let mut neg_hik = vec![0.0f64; k];
    let mut hkk = vec![0.0f64; k];
    let mut upd = vec![false; k];

    loop {
        // Pre-phase: transitions that need no matvec. Inner columns out of
        // iteration budget take the scalar cap-break (back-substitute, then
        // the outer `while` fails); Restart columns out of budget take the
        // failed outer `while` directly.
        for c in 0..k {
            match mode[c] {
                GmresMode::Inner if total_iters[c] >= opts.max_iter => {
                    mode[c] = finish_inner(
                        &mut ws.cols[c],
                        side.update_basis(&ws.v, &ws.z),
                        &mut ws.xb,
                        k,
                        c,
                        k_used[c],
                        total_iters[c],
                        opts.max_iter,
                        &mut outcome[c].failure,
                    );
                    debug_assert_eq!(mode[c], GmresMode::Done);
                    outcome[c].iterations = total_iters[c];
                }
                GmresMode::Restart if total_iters[c] >= opts.max_iter => {
                    mode[c] = GmresMode::Done;
                    outcome[c].iterations = total_iters[c];
                }
                _ => {}
            }
        }
        if mode.iter().all(|&s| s == GmresMode::Done) {
            break;
        }

        // On the right, one block application serves every column
        // mid-Arnoldi first: z[ki] = P v[ki], kept. Restart/Done columns
        // ride along on whatever the buffer holds (unused).
        if side == Side::Right {
            let mut any_inner = false;
            for c in 0..k {
                if mode[c] == GmresMode::Inner {
                    any_inner = true;
                    copy_col(&ws.v[ki[c]], &mut ws.pinb, k, c);
                }
            }
            if any_inner {
                precond.apply_block(&ws.pinb, k, &mut ws.poutb);
                for c in 0..k {
                    if mode[c] == GmresMode::Inner {
                        copy_col(&ws.poutb, &mut ws.z[ki[c]], k, c);
                    }
                }
            }
        }

        // Gather this round's matvec inputs: x for restarting columns, and
        // for columns mid-Arnoldi v[ki] on the left, z[ki] on the right.
        for c in 0..k {
            match mode[c] {
                GmresMode::Restart => copy_col(&ws.xb, &mut ws.inb, k, c),
                GmresMode::Inner => {
                    total_iters[c] += 1; // scalar increments before the step
                    let basis = side.update_basis(&ws.v, &ws.z);
                    copy_col(&basis[ki[c]], &mut ws.inb, k, c);
                }
                GmresMode::Done => {}
            }
        }

        // One traversal for the whole batch; restarting columns turn their
        // A·x into b − Ax in place, elementwise in row order.
        a.spmm(&ws.inb, k, &mut ws.awb);
        for c in 0..k {
            if mode[c] == GmresMode::Restart {
                for (ai, bi) in ws.awb[c..]
                    .iter_mut()
                    .step_by(k)
                    .zip(ws.bb[c..].iter().step_by(k))
                {
                    *ai = bi - *ai;
                }
            }
        }
        // `wb` holds each live column's w (or restart residual): on the
        // left that is one block precondition away.
        if side == Side::Left {
            precond.apply_block(&ws.awb, k, &mut ws.poutb);
        }
        let wb = match side {
            Side::Left => &mut ws.poutb,
            Side::Right => &mut ws.awb,
        };

        // Post-phase: column-local arithmetic, exactly the scalar sequence.
        //
        // Fast path: when every live column is mid-Arnoldi at the same
        // inner index (the common case — columns start in lockstep and
        // only drift apart at restarts), the MGS sweeps run fused over the
        // whole block in contiguous row order instead of one strided
        // column at a time. Fused and per-column forms are bit-identical.
        let uniform_kc = {
            let mut kc: Option<usize> = None;
            let mut uniform = true;
            for c in 0..k {
                match mode[c] {
                    GmresMode::Inner => match kc {
                        None => kc = Some(ki[c]),
                        Some(v) if v == ki[c] => {}
                        _ => uniform = false,
                    },
                    GmresMode::Restart => uniform = false,
                    GmresMode::Done => {}
                }
            }
            if uniform {
                kc
            } else {
                None
            }
        };
        if let Some(kc) = uniform_kc {
            for c in 0..k {
                mask[c] = mode[c] == GmresMode::Inner;
            }
            // Modified Gram–Schmidt, one fused sweep per basis vector.
            for i in 0..=kc {
                dot_cols_masked(wb, &ws.v[i], k, &mask, &mut hik);
                for c in 0..k {
                    if mask[c] {
                        ws.cols[c].h[i][kc] = hik[c];
                        neg_hik[c] = -hik[c];
                    }
                }
                axpy_cols_masked(&neg_hik, &ws.v[i], wb, k, &mask);
            }
            norm2_cols_masked(wb, k, &mask, &mut hkk);
            // v[kc+1] = w / hkk (scalar divides elementwise; non-finite or
            // happy-breakdown columns skip the update, as in scalar code).
            for c in 0..k {
                upd[c] = mask[c] && hkk[c].is_finite() && hkk[c] > 1e-14;
            }
            for (vr, wr) in ws.v[kc + 1].chunks_exact_mut(k).zip(wb.chunks_exact(k)) {
                for c in 0..k {
                    if upd[c] {
                        vr[c] = wr[c] / hkk[c];
                    }
                }
            }
            for c in 0..k {
                if mask[c] {
                    arnoldi_tail(
                        &mut ws.cols[c],
                        side.update_basis(&ws.v, &ws.z),
                        &mut ws.xb,
                        k,
                        c,
                        kc,
                        hkk[c],
                        m,
                        &opts,
                        stop_norm[c],
                        total_iters[c],
                        &mut ki[c],
                        &mut k_used[c],
                        &mut mode[c],
                        &mut outcome[c],
                        &mut wds[c],
                    );
                }
            }
            continue;
        }
        for c in 0..k {
            match mode[c] {
                GmresMode::Restart => {
                    // v0 = the restart residual; β; normalize; reset the
                    // least-squares rhs.
                    copy_col(wb, &mut ws.v[0], k, c);
                    let beta = norm2_col(&ws.v[0], k, c);
                    if !beta.is_finite() {
                        outcome[c].failure = Some(SolveFailure::NonFinite {
                            what: "restart residual".to_string(),
                        });
                        outcome[c].iterations = total_iters[c];
                        mode[c] = GmresMode::Done;
                        continue;
                    }
                    if beta <= opts.tol * stop_norm[c] {
                        outcome[c].iterations = total_iters[c];
                        mode[c] = GmresMode::Done;
                        continue;
                    }
                    if let Some(f) = wds[c].observe(beta) {
                        outcome[c].failure = Some(f);
                        outcome[c].iterations = total_iters[c];
                        mode[c] = GmresMode::Done;
                        continue;
                    }
                    scale_col(1.0 / beta, &mut ws.v[0], k, c);
                    ws.cols[c].start(beta);
                    ki[c] = 0;
                    k_used[c] = 0;
                    mode[c] = GmresMode::Inner;
                }
                GmresMode::Inner => {
                    let kc = ki[c];
                    // Modified Gram–Schmidt on w (living in wb's column).
                    for i in 0..=kc {
                        let hik = dot_col(wb, &ws.v[i], k, c);
                        ws.cols[c].h[i][kc] = hik;
                        axpy_col(-hik, &ws.v[i], wb, k, c);
                    }
                    let hkk = norm2_col(wb, k, c);
                    if hkk.is_finite() && hkk > 1e-14 {
                        for (t, s) in ws.v[kc + 1][c..]
                            .iter_mut()
                            .step_by(k)
                            .zip(wb[c..].iter().step_by(k))
                        {
                            *t = *s / hkk;
                        }
                    }
                    arnoldi_tail(
                        &mut ws.cols[c],
                        side.update_basis(&ws.v, &ws.z),
                        &mut ws.xb,
                        k,
                        c,
                        kc,
                        hkk,
                        m,
                        &opts,
                        stop_norm[c],
                        total_iters[c],
                        &mut ki[c],
                        &mut k_used[c],
                        &mut mode[c],
                        &mut outcome[c],
                        &mut wds[c],
                    );
                }
                GmresMode::Done => {}
            }
        }
    }

    crate::solver::finalize_columns(a, &ws.bb, &ws.xb, k, opts.tol, &outcome, &mut ws.fin)
}

/// Stable Givens rotation coefficients `(c, s)` annihilating `b` in `(a, b)`.
fn givens(a: f64, b: f64) -> (f64, f64) {
    if b == 0.0 {
        (1.0, 0.0)
    } else if b.abs() > a.abs() {
        let t = a / b;
        let s = 1.0 / (1.0 + t * t).sqrt();
        (s * t, s)
    } else {
        let t = b / a;
        let c = 1.0 / (1.0 + t * t).sqrt();
        (c, c * t)
    }
}

#[cfg(test)]
mod givens_tests {
    use super::givens;

    #[test]
    fn rotation_annihilates_second_component() {
        for &(a, b) in &[
            (3.0, 4.0),
            (1e-8, 5.0),
            (7.0, 0.0),
            (-2.0, 1.0),
            (0.5, -0.5),
        ] {
            let (c, s) = givens(a, b);
            // c² + s² = 1 and the rotated second component vanishes.
            assert!((c * c + s * s - 1.0).abs() < 1e-12, "({a},{b})");
            assert!(
                (-s * a + c * b).abs() < 1e-10 * (1.0 + a.abs() + b.abs()),
                "({a},{b})"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::precond::{IdentityPrecond, JacobiPrecond};
    use mcmcmi_matgen::{
        convection_diffusion_2d, fd_laplace_2d, laplace_1d, ConvectionDiffusionParams,
    };

    type Driver = fn(&mcmcmi_sparse::Csr, &[f64], &IdentityPrecond, SolveOptions) -> SolveResult;
    const BOTH: [Driver; 2] = [gmres, fgmres];

    #[test]
    fn solves_identity_in_one_restart() {
        let a = mcmcmi_sparse::csr_eye(5);
        let b = vec![1.0, 2.0, 3.0, 4.0, 5.0];
        let r = gmres(&a, &b, &IdentityPrecond::new(5), SolveOptions::default());
        assert!(r.converged);
        assert!(r.iterations <= 2);
        for (p, q) in r.x.iter().zip(&b) {
            assert!((p - q).abs() < 1e-10);
        }
    }

    #[test]
    fn solves_laplacian() {
        let a = laplace_1d(50);
        let xs: Vec<f64> = (0..50).map(|i| (i as f64 * 0.3).sin()).collect();
        let b = a.spmv_alloc(&xs);
        let r = gmres(&a, &b, &IdentityPrecond::new(50), SolveOptions::default());
        assert!(r.converged, "rel_residual = {}", r.rel_residual);
        assert!(r.rel_residual < 1e-7);
        let r = fgmres(&a, &b, &JacobiPrecond::new(&a), SolveOptions::default());
        assert!(r.converged, "rel_residual = {}", r.rel_residual);
        assert!(r.rel_residual < 1e-7);
        for (p, q) in r.x.iter().zip(&xs) {
            assert!((p - q).abs() < 1e-6);
        }
    }

    #[test]
    fn jacobi_preconditioning_reduces_iterations_on_scaled_system() {
        // Badly scaled diagonal: Jacobi fixes it instantly.
        let n = 64;
        let mut coo = mcmcmi_sparse::Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 10.0_f64.powi((i % 6) as i32));
            if i > 0 {
                coo.push(i, i - 1, 0.1);
            }
        }
        let a = coo.to_csr();
        let xs: Vec<f64> = (0..n).map(|i| ((i * 3) as f64 * 0.1).cos()).collect();
        let b = a.spmv_alloc(&xs);
        let plain = gmres(&a, &b, &IdentityPrecond::new(n), SolveOptions::default());
        let jac = gmres(&a, &b, &JacobiPrecond::new(&a), SolveOptions::default());
        assert!(jac.converged);
        assert!(
            jac.iterations < plain.iterations,
            "{} !< {}",
            jac.iterations,
            plain.iterations
        );
    }

    #[test]
    fn identity_preconditioner_makes_the_sides_bit_identical() {
        // With P = I the right side's Z basis equals its V basis, and
        // ‖Pb‖ = ‖b‖: every operation matches the left side's, so the
        // iterates must match bit for bit.
        let a = fd_laplace_2d(10);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.13).sin() + 0.2).collect();
        for opts in [
            SolveOptions::default(),
            SolveOptions {
                restart: 7,
                tol: 1e-10,
                ..Default::default()
            },
        ] {
            let rg = gmres(&a, &b, &IdentityPrecond::new(n), opts);
            let rf = fgmres(&a, &b, &IdentityPrecond::new(n), opts);
            assert_eq!(rg.x, rf.x);
            assert_eq!(rg.iterations, rf.iterations);
            assert_eq!(rg.rel_residual, rf.rel_residual);
            assert!(rf.converged);
        }
    }

    #[test]
    fn right_side_iteration_counts_track_the_left() {
        // Same search space, different residual norms minimised: counts
        // should be close (the perf-record acceptance bounds this at 1.2×
        // with compressed operators; with the exact operator it is
        // essentially tight).
        let a = fd_laplace_2d(14);
        let n = a.nrows();
        let b = vec![1.0; n];
        let jac = JacobiPrecond::new(&a);
        let rg = gmres(&a, &b, &jac, SolveOptions::default());
        let rf = fgmres(&a, &b, &jac, SolveOptions::default());
        assert!(rg.converged && rf.converged);
        let ratio = rf.iterations as f64 / rg.iterations as f64;
        assert!(
            (0.8..=1.2).contains(&ratio),
            "FGMRES {} vs GMRES {}",
            rf.iterations,
            rg.iterations
        );
    }

    #[test]
    fn respects_iteration_cap() {
        let a = fd_laplace_2d(32);
        let n = a.nrows();
        let b = vec![1.0; n];
        let opts = SolveOptions {
            max_iter: 7,
            ..Default::default()
        };
        for driver in BOTH {
            let r = driver(&a, &b, &IdentityPrecond::new(n), opts);
            assert!(!r.converged);
            assert_eq!(r.iterations, 7);
        }
    }

    #[test]
    fn restart_path_is_exercised() {
        let a = fd_laplace_2d(16);
        let n = a.nrows();
        let xs: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
        let b = a.spmv_alloc(&xs);
        let opts = SolveOptions {
            restart: 10,
            tol: 1e-10,
            ..Default::default()
        };
        for driver in BOTH {
            let r = driver(&a, &b, &IdentityPrecond::new(n), opts);
            assert!(r.converged);
            assert!(
                r.iterations > 10,
                "must need multiple restarts, got {}",
                r.iterations
            );
        }
    }

    #[test]
    fn zero_rhs_returns_zero() {
        let a = laplace_1d(10);
        let b = vec![0.0; 10];
        for driver in BOTH {
            let r = driver(&a, &b, &IdentityPrecond::new(10), SolveOptions::default());
            assert!(r.converged);
            assert_eq!(r.iterations, 0);
            assert!(r.x.iter().all(|&v| v == 0.0));
        }
    }

    fn windy() -> mcmcmi_sparse::Csr {
        convection_diffusion_2d(ConvectionDiffusionParams {
            nx: 9,
            ny: 9,
            eps: 1.0,
            aniso: 0.8,
            wind: 8.0,
            contrast: 0.0,
            wide: false,
        })
    }

    #[test]
    fn nonsymmetric_system_converges() {
        let a = convection_diffusion_2d(ConvectionDiffusionParams {
            nx: 12,
            ny: 12,
            eps: 1.0,
            aniso: 1.0,
            wind: 10.0,
            contrast: 0.0,
            wide: false,
        });
        let n = a.nrows();
        let xs: Vec<f64> = (0..n).map(|i| (i as f64 * 0.05).sin()).collect();
        let b = a.spmv_alloc(&xs);
        let r = gmres(&a, &b, &IdentityPrecond::new(n), SolveOptions::default());
        assert!(r.converged, "rel_residual = {}", r.rel_residual);
    }

    #[test]
    fn batch_bit_identical_to_scalar() {
        let a = windy();
        let n = a.nrows();
        let jac = JacobiPrecond::new(&a);
        let rhs: Vec<Vec<f64>> = (0..5)
            .map(|c| {
                (0..n)
                    .map(|i| (i as f64 * (0.29 + 0.05 * c as f64)).sin())
                    .collect()
            })
            .collect();
        // A short restart forces columns through staggered restart phases —
        // the stress case for the lockstep mode machine.
        let opts = SolveOptions {
            restart: 6,
            ..Default::default()
        };
        for side in [Side::Left, Side::Right] {
            let ws = &mut GmresBlockWorkspace::default();
            let batch = gmres_batch(&a, &rhs, &jac, opts, side, ws);
            for (c, b) in rhs.iter().enumerate() {
                let ws = &mut GmresWorkspace::default();
                let scalar = gmres_with(&a, b, &jac, opts, side, ws);
                assert_eq!(batch[c].x, scalar.x, "{side:?} col {c}");
                assert_eq!(batch[c].iterations, scalar.iterations, "{side:?} col {c}");
                assert_eq!(batch[c].converged, scalar.converged, "{side:?} col {c}");
                assert_eq!(
                    batch[c].rel_residual, scalar.rel_residual,
                    "{side:?} col {c}"
                );
            }
        }
    }

    #[test]
    fn the_watchdog_sees_the_same_residuals_in_both_loops() {
        // The cyclic shift: every Krylov space short of n misses e₀, so
        // GMRES(4) from b = e₀ (or e₁) never moves off residual 1 and only
        // the stall window stops it. Which observation trips it depends on
        // whether a full cycle's last Arnoldi residual is observed — the
        // loops used to disagree on that.
        let n = 12;
        let mut coo = mcmcmi_sparse::Coo::new(n, n);
        for i in 0..n {
            coo.push((i + 1) % n, i, 1.0);
        }
        let a = coo.to_csr();
        let unit = |j: usize| (0..n).map(|i| f64::from(u8::from(i == j))).collect();
        let rhs: Vec<Vec<f64>> = vec![unit(0), unit(1)];
        let id = IdentityPrecond::new(n);
        let opts = SolveOptions {
            restart: 4,
            watchdog: crate::WatchdogConfig {
                stall_window: 6,
                ..Default::default()
            },
            ..Default::default()
        };
        for side in [Side::Left, Side::Right] {
            let batch = gmres_batch(&a, &rhs, &id, opts, side, &mut Default::default());
            for (c, b) in rhs.iter().enumerate() {
                let scalar = gmres_with(&a, b, &id, opts, side, &mut Default::default());
                assert!(
                    matches!(scalar.failure(), Some(SolveFailure::Stagnated { .. })),
                    "{side:?} col {c}: {:?}",
                    scalar.outcome
                );
                assert_eq!(batch[c].iterations, scalar.iterations, "{side:?} col {c}");
                assert_eq!(batch[c].outcome, scalar.outcome, "{side:?} col {c}");
                let bits =
                    |r: &SolveResult| -> Vec<u64> { r.x.iter().map(|v| v.to_bits()).collect() };
                assert_eq!(bits(&batch[c]), bits(&scalar), "{side:?} col {c}");
                assert_eq!(
                    batch[c].rel_residual.to_bits(),
                    scalar.rel_residual.to_bits(),
                    "{side:?} col {c}"
                );
            }
        }
    }

    #[test]
    fn z_basis_exists_only_after_a_right_side_solve() {
        let a = windy();
        let n = a.nrows();
        let jac = JacobiPrecond::new(&a);
        let rhs = vec![vec![1.0; n], (0..n).map(|i| i as f64).collect()];
        let opts = SolveOptions::default();

        // Classical GMRES allocates no Z — and a right-side solve on the
        // same workspace adds it beside the V it already holds.
        let mut ws = GmresWorkspace::default();
        gmres_with(&a, &rhs[0], &jac, opts, Side::Left, &mut ws);
        assert!(ws.z.is_empty());
        let held: Vec<*const f64> = ws.v.iter().map(|v| v.as_ptr()).collect();
        gmres_with(&a, &rhs[0], &jac, opts, Side::Right, &mut ws);
        assert_eq!(ws.z.len(), opts.restart);
        assert_eq!(held, ws.v.iter().map(|v| v.as_ptr()).collect::<Vec<_>>());

        let mut ws = GmresBlockWorkspace::default();
        gmres_batch(&a, &rhs, &jac, opts, Side::Left, &mut ws);
        assert!(ws.z.is_empty() && ws.pinb.is_empty());
        let held: Vec<*const f64> = ws.v.iter().map(|v| v.as_ptr()).collect();
        gmres_batch(&a, &rhs, &jac, opts, Side::Right, &mut ws);
        assert_eq!(ws.z.len(), opts.restart);
        assert_eq!(held, ws.v.iter().map(|v| v.as_ptr()).collect::<Vec<_>>());
    }
}
