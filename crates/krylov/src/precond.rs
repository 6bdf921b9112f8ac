//! The preconditioner abstraction and the simplest implementations.

use crate::solver::SolverType;
use mcmcmi_sparse::{Csr, KernelBackend, Scalar, SpecializedBackend, Structure};
use std::borrow::Cow;

/// A left preconditioner: an operator `P ≈ A⁻¹` applied as `z ← P·r`.
///
/// The MCMC matrix-inversion preconditioner, the classical factorisations,
/// and the trivial baselines all implement this; the Krylov solvers are
/// generic over it.
pub trait Preconditioner: Sync {
    /// Apply the preconditioner: `z ← P·r`.
    ///
    /// # Panics
    /// Implementations may panic on dimension mismatch.
    fn apply(&self, r: &[f64], z: &mut [f64]);

    /// Problem dimension this preconditioner was built for.
    fn dim(&self) -> usize;

    /// Apply to every column of a row-major `n×k` block:
    /// `z[:,c] ← P·r[:,c]` for `c = 0..k`.
    ///
    /// The default gathers each column into contiguous scratch, applies
    /// [`Preconditioner::apply`], and scatters back — so column results are
    /// bit-identical to per-vector application by construction (triangular
    /// solves like ILU(0)/IC(0) keep this default: their recurrences can't
    /// share a traversal across columns). Implementations whose application
    /// *is* a sparse multiply override this to amortise one matrix
    /// traversal over all `k` columns ([`SparsePrecond`] → its backend's
    /// structure-dispatched SpMM).
    ///
    /// # Panics
    /// Implementations may panic on dimension mismatch or `k == 0`.
    fn apply_block(&self, r: &[f64], k: usize, z: &mut [f64]) {
        assert!(k > 0, "apply_block: k must be positive");
        let n = self.dim();
        assert_eq!(r.len(), n * k, "apply_block: r block size mismatch");
        assert_eq!(z.len(), n * k, "apply_block: z block size mismatch");
        let mut rc = vec![0.0; n];
        let mut zc = vec![0.0; n];
        for c in 0..k {
            mcmcmi_dense::gather_col(r, k, c, &mut rc);
            self.apply(&rc, &mut zc);
            mcmcmi_dense::scatter_col(&zc, z, k, c);
        }
    }

    /// Whether this operator is a lossy compressed form of a full-precision
    /// parent. The recovery ladder uses this to decide whether a
    /// full-precision retry rung is meaningful.
    fn is_compressed(&self) -> bool {
        false
    }

    /// Do results depend on the order of calls? `false` for every operator
    /// whose application is a pure function of its input; `true` for one
    /// whose state advances per call (a fault injector counting
    /// applications). A solver keeps the calls of such an operator in one
    /// sequence, on one thread, so their order is the same on every run.
    fn order_dependent(&self) -> bool {
        false
    }
}

impl<P: Preconditioner + ?Sized> Preconditioner for &P {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        (**self).apply(r, z)
    }
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn apply_block(&self, r: &[f64], k: usize, z: &mut [f64]) {
        (**self).apply_block(r, k, z)
    }
    fn is_compressed(&self) -> bool {
        (**self).is_compressed()
    }
    fn order_dependent(&self) -> bool {
        (**self).order_dependent()
    }
}

/// A shared preconditioner: sessions bound to one cached operator apply
/// the same `P` without each holding a copy.
impl<P: Preconditioner + Send + ?Sized> Preconditioner for std::sync::Arc<P> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        (**self).apply(r, z)
    }
    fn dim(&self) -> usize {
        (**self).dim()
    }
    fn apply_block(&self, r: &[f64], k: usize, z: &mut [f64]) {
        (**self).apply_block(r, k, z)
    }
    fn is_compressed(&self) -> bool {
        (**self).is_compressed()
    }
    fn order_dependent(&self) -> bool {
        (**self).order_dependent()
    }
}

/// No-op preconditioner (`P = I`): the "without preconditioner" baseline of
/// Eq. (4)'s denominator.
#[derive(Clone, Copy, Debug)]
pub struct IdentityPrecond {
    n: usize,
}

impl IdentityPrecond {
    /// Identity preconditioner of dimension `n`.
    pub fn new(n: usize) -> Self {
        Self { n }
    }
}

impl Preconditioner for IdentityPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
    fn dim(&self) -> usize {
        self.n
    }
    fn apply_block(&self, r: &[f64], k: usize, z: &mut [f64]) {
        assert!(k > 0, "apply_block: k must be positive");
        assert_eq!(r.len(), self.n * k, "apply_block: r block size mismatch");
        z.copy_from_slice(r);
    }
}

/// Diagonal (Jacobi) preconditioner `P = diag(A)⁻¹`.
#[derive(Clone, Debug)]
pub struct JacobiPrecond {
    inv_diag: Vec<f64>,
}

impl JacobiPrecond {
    /// Build from a matrix. Zero diagonal entries fall back to 1 (identity
    /// action on that component) rather than poisoning the solve with infs.
    pub fn new(a: &Csr) -> Self {
        let inv_diag = a
            .diag()
            .into_iter()
            .map(|d| {
                if d.abs() > f64::MIN_POSITIVE {
                    1.0 / d
                } else {
                    1.0
                }
            })
            .collect();
        Self { inv_diag }
    }
}

impl Preconditioner for JacobiPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        assert_eq!(
            r.len(),
            self.inv_diag.len(),
            "JacobiPrecond: dimension mismatch"
        );
        for ((zi, &ri), &di) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = ri * di;
        }
    }
    fn dim(&self) -> usize {
        self.inv_diag.len()
    }
    fn apply_block(&self, r: &[f64], k: usize, z: &mut [f64]) {
        assert!(k > 0, "apply_block: k must be positive");
        assert_eq!(
            r.len(),
            self.inv_diag.len() * k,
            "JacobiPrecond: block dimension mismatch"
        );
        assert_eq!(r.len(), z.len(), "JacobiPrecond: block size mismatch");
        // Row i of the block scales uniformly by inv_diag[i]; per column
        // this is exactly the scalar `apply` multiply.
        for ((zrow, rrow), &di) in z
            .chunks_exact_mut(k)
            .zip(r.chunks_exact(k))
            .zip(&self.inv_diag)
        {
            for (zi, &ri) in zrow.iter_mut().zip(rrow) {
                *zi = ri * di;
            }
        }
    }
}

/// An explicit sparse approximate inverse applied by SpMV — the form the
/// MCMC matrix-inversion method produces (`P ≈ A⁻¹` with controlled fill).
/// Application is embarrassingly parallel, the architectural advantage the
/// paper's §2 highlights over triangular solves.
///
/// Generic over the storage scalar: `SparsePrecond<f32>` is the
/// mixed-precision form — values stream at half the bandwidth while every
/// kernel still accumulates in f64 (see [`mcmcmi_sparse::Scalar`]).
///
/// Application routes through [`mcmcmi_sparse::SpecializedBackend`]: the
/// preconditioner runs structure detection once at construction (MCMC
/// inverses are usually unstructured and bail out of detection within a
/// few hundred rows; *compressed* inverses can gain or lose structure, and
/// re-wrapping after sparsification re-detects automatically) and every
/// `apply`/`apply_block` dispatches to the matching kernel family. The
/// backend is plain data (matrix + detected structure): small operators
/// apply serially, large ones are split by an nnz-balanced row partition
/// computed for the call (a handful of binary searches), and sessions
/// sharing one preconditioner behind an `Arc` share no lock.
#[derive(Clone, Debug)]
pub struct SparsePrecond<T: Scalar = f64> {
    op: SpecializedBackend<T>,
}

impl<T: Scalar> SparsePrecond<T> {
    /// Wrap an explicit approximate inverse, detecting its sparsity
    /// structure once for all subsequent applies.
    ///
    /// # Panics
    /// Panics if `p` is not square.
    pub fn new(p: Csr<T>) -> Self {
        assert_eq!(p.nrows(), p.ncols(), "SparsePrecond: matrix must be square");
        Self {
            op: SpecializedBackend::detect(p),
        }
    }

    /// Borrow the underlying matrix.
    pub fn matrix(&self) -> &Csr<T> {
        self.op.csr()
    }

    /// The kernel backend the applies dispatch through.
    pub fn backend(&self) -> &SpecializedBackend<T> {
        &self.op
    }

    /// The detected structure of the wrapped operator.
    pub fn structure(&self) -> &Structure {
        self.op.structure()
    }
}

impl SparsePrecond<f64> {
    /// Symmetrised copy `(P + Pᵀ)/2`, needed when feeding a (generally
    /// nonsymmetric) MCMC inverse into CG.
    pub fn symmetrized(&self) -> Self {
        let sym = mcmcmi_sparse::csr_add(0.5, self.matrix(), 0.5, &self.matrix().transpose());
        Self::new(sym)
    }

    /// The form of this inverse a driver is handed: the symmetrised copy for
    /// the CG family — classical CG needs a symmetric operator and an MCMC
    /// inverse is generally not one; FCG rides the same copy, so the
    /// ladder's flexible swap changes the driver and nothing else — and the
    /// inverse as built for every other driver. Whoever binds an MCMC
    /// inverse to a solver asks here, so the rule exists once.
    pub fn for_solver(&self, solver: SolverType) -> Cow<'_, Self> {
        match solver {
            SolverType::Cg | SolverType::FCg => Cow::Owned(self.symmetrized()),
            SolverType::Gmres | SolverType::Fgmres | SolverType::BiCgStab => Cow::Borrowed(self),
        }
    }

    /// Demote the stored values to f32 ([`mcmcmi_sparse::Csr::to_precision`]);
    /// the application kernels keep accumulating in f64. Re-detects on the
    /// demoted copy (detection is pattern-only, so the result matches).
    pub fn to_f32(&self) -> SparsePrecond<f32> {
        SparsePrecond::new(self.matrix().to_precision())
    }
}

impl<T: Scalar> Preconditioner for SparsePrecond<T> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        // Serial or split by the one `par_pays_off` rule, the
        // structure-specialized row kernel on both arms; bit-identical
        // every way.
        self.op.spmv(r, z);
    }
    fn dim(&self) -> usize {
        self.op.nrows()
    }
    fn apply_block(&self, r: &[f64], k: usize, z: &mut [f64]) {
        // One traversal of P serves all k residual columns — the batched
        // form of the "embarrassingly parallel application" advantage, and
        // bit-identical per column to `apply` by the SpMM kernel contract.
        self.op.spmm(r, k, z);
    }
}

/// A compressed MCMC preconditioner: the post-build artifact of a
/// `CompressionPolicy` (drop-tolerance sparsification and optional f32
/// demotion, see `mcmcmi_mcmc::compress`). One enum rather than a generic
/// so sessions can hold either precision behind a single concrete type —
/// the precision axis is a *runtime* tuning knob for the AI tuner, not a
/// compile-time choice.
#[derive(Clone, Debug)]
pub enum CompressedPrecond {
    /// Sparsified but full-precision storage.
    F64(SparsePrecond<f64>),
    /// Sparsified and demoted: half the value bandwidth per apply.
    F32(SparsePrecond<f32>),
}

impl CompressedPrecond {
    /// Stored non-zeros after compression.
    pub fn nnz(&self) -> usize {
        match self {
            CompressedPrecond::F64(p) => p.matrix().nnz(),
            CompressedPrecond::F32(p) => p.matrix().nnz(),
        }
    }

    /// Bytes of value data streamed per application (`nnz × scalar width`).
    pub fn value_bytes(&self) -> usize {
        match self {
            CompressedPrecond::F64(p) => p.matrix().value_bytes(),
            CompressedPrecond::F32(p) => p.matrix().value_bytes(),
        }
    }

    /// Kernel family the compressed operator's applies dispatch to
    /// (`"stencil"` or `"generic-csr"`). Structure is re-detected on the
    /// *sparsified* pattern when the precond is built, so compression can
    /// both create structure (dropping stray entries collapses P onto a
    /// stencil) and destroy it.
    pub fn kernel_name(&self) -> &'static str {
        match self {
            CompressedPrecond::F64(p) => p.backend().kernel_name(),
            CompressedPrecond::F32(p) => p.backend().kernel_name(),
        }
    }
}

impl Preconditioner for CompressedPrecond {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        match self {
            CompressedPrecond::F64(p) => p.apply(r, z),
            CompressedPrecond::F32(p) => p.apply(r, z),
        }
    }
    fn dim(&self) -> usize {
        match self {
            CompressedPrecond::F64(p) => p.dim(),
            CompressedPrecond::F32(p) => p.dim(),
        }
    }
    fn apply_block(&self, r: &[f64], k: usize, z: &mut [f64]) {
        match self {
            CompressedPrecond::F64(p) => p.apply_block(r, k, z),
            CompressedPrecond::F32(p) => p.apply_block(r, k, z),
        }
    }
    fn is_compressed(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmcmi_sparse::{csr_eye, Coo};

    #[test]
    fn identity_copies() {
        let p = IdentityPrecond::new(3);
        let mut z = vec![0.0; 3];
        p.apply(&[1.0, 2.0, 3.0], &mut z);
        assert_eq!(z, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn jacobi_inverts_diagonal() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 4.0);
        coo.push(0, 1, 7.0); // off-diagonal ignored by Jacobi
        let p = JacobiPrecond::new(&coo.to_csr());
        let mut z = vec![0.0; 2];
        p.apply(&[2.0, 4.0], &mut z);
        assert_eq!(z, vec![1.0, 1.0]);
    }

    #[test]
    fn jacobi_handles_zero_diagonal() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 1.0);
        coo.push(1, 1, 2.0);
        let p = JacobiPrecond::new(&coo.to_csr());
        let mut z = vec![0.0; 2];
        p.apply(&[3.0, 4.0], &mut z);
        assert_eq!(z[0], 3.0); // identity fallback
        assert_eq!(z[1], 2.0);
    }

    #[test]
    fn sparse_precond_applies_spmv() {
        let p = SparsePrecond::new(csr_eye(3));
        let mut z = vec![0.0; 3];
        p.apply(&[5.0, 6.0, 7.0], &mut z);
        assert_eq!(z, vec![5.0, 6.0, 7.0]);
    }

    /// Every implementation's `apply_block` must be bit-identical to
    /// column-by-column `apply` — the contract the lockstep batched solvers
    /// rely on.
    fn assert_block_matches_columns<P: Preconditioner>(p: &P, k: usize) {
        let n = p.dim();
        let r: Vec<f64> = (0..n * k)
            .map(|t| ((t * 7 + 3) as f64 * 0.13).sin())
            .collect();
        let mut z = vec![0.0; n * k];
        p.apply_block(&r, k, &mut z);
        let mut rc = vec![0.0; n];
        let mut zc = vec![0.0; n];
        for c in 0..k {
            mcmcmi_dense::gather_col(&r, k, c, &mut rc);
            p.apply(&rc, &mut zc);
            let mut got = vec![0.0; n];
            mcmcmi_dense::gather_col(&z, k, c, &mut got);
            assert_eq!(got, zc, "column {c} of {k}");
        }
    }

    #[test]
    fn apply_block_matches_columnwise_apply_for_all_impls() {
        let a = {
            let mut coo = Coo::new(6, 6);
            for i in 0..6usize {
                coo.push(i, i, 3.0 + i as f64);
                if i > 0 {
                    coo.push(i, i - 1, -0.5);
                    coo.push(i - 1, i, -0.5);
                }
            }
            coo.to_csr()
        };
        for k in [1usize, 3, 4, 5] {
            assert_block_matches_columns(&IdentityPrecond::new(6), k);
            assert_block_matches_columns(&JacobiPrecond::new(&a), k);
            assert_block_matches_columns(&SparsePrecond::new(a.clone()), k);
            // Mixed-precision and compressed operators share the contract.
            assert_block_matches_columns(&SparsePrecond::new(a.clone()).to_f32(), k);
            assert_block_matches_columns(&CompressedPrecond::F64(SparsePrecond::new(a.clone())), k);
            assert_block_matches_columns(
                &CompressedPrecond::F32(SparsePrecond::new(a.clone()).to_f32()),
                k,
            );
            // Triangular-solve preconditioners exercise the trait default.
            assert_block_matches_columns(&crate::Ilu0::new(&a).unwrap(), k);
            assert_block_matches_columns(&crate::Ic0::new(&a).unwrap(), k);
        }
    }

    #[test]
    fn f32_sparse_precond_applies_demoted_values_with_f64_accumulation() {
        let mut coo = Coo::new(4, 4);
        for i in 0..4usize {
            coo.push(i, i, 1.0 / 3.0 + i as f64); // not f32-representable
        }
        let p64 = SparsePrecond::new(coo.to_csr());
        let p32 = p64.to_f32();
        let r = [1.0, -2.0, 0.5, 4.0];
        let mut z64 = vec![0.0; 4];
        let mut z32 = vec![0.0; 4];
        p64.apply(&r, &mut z64);
        p32.apply(&r, &mut z32);
        for (i, (a, b)) in z32.iter().zip(&z64).enumerate() {
            assert!(
                (a - b).abs() < 1e-6 * (1.0 + b.abs()),
                "row {i}: {a} vs {b}"
            );
            // The demotion is visible: values differ beyond f64 noise.
            if i == 0 {
                assert_ne!(a, b, "1/3 must have rounded through f32");
            }
        }
        assert_eq!(p32.matrix().value_bytes() * 2, p64.matrix().value_bytes());
    }

    /// Restores the default threshold even if the test panics.
    struct RestoreThreshold;
    impl Drop for RestoreThreshold {
        fn drop(&mut self) {
            mcmcmi_sparse::set_par_threshold_for_tests(None);
        }
    }

    #[test]
    fn parallel_apply_is_bit_identical_to_the_bare_csr_product() {
        let _restore = RestoreThreshold;
        let a = {
            let mut coo = Coo::new(64, 64);
            for i in 0..64usize {
                coo.push(i, i, 2.0);
                if i > 0 {
                    coo.push(i, i - 1, -0.5);
                }
            }
            coo.to_csr()
        };
        let p = SparsePrecond::new(a.clone());
        let r: Vec<f64> = (0..64).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut want = vec![0.0; 64];
        a.spmv(&r, &mut want);
        // Serial arm first.
        let mut z1 = vec![0.0; 64];
        p.apply(&r, &mut z1);
        assert_eq!(z1, want);
        // Force the parallel arm and apply under two different pools:
        // every path stays bit-identical to the serial kernel.
        mcmcmi_sparse::set_par_threshold_for_tests(Some(1));
        for extra in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(extra + 1)
                .build()
                .unwrap();
            pool.install(|| {
                let mut z = vec![0.0; 64];
                p.apply(&r, &mut z);
                assert_eq!(z, want);
            });
        }
    }

    #[test]
    fn precond_detects_structure_of_wrapped_operator() {
        // A tridiagonal approximate inverse dispatches the stencil kernel…
        let mut coo = Coo::new(32, 32);
        for i in 0..32usize {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -0.5);
                coo.push(i - 1, i, -0.5);
            }
        }
        let p = SparsePrecond::new(coo.to_csr());
        assert_eq!(p.backend().kernel_name(), "stencil");
        assert_eq!(p.structure().stencil_offsets(), Some(&[-1, 0, 1][..]));
        // …and the structure survives cloning and symmetrisation.
        assert_eq!(p.clone().backend().kernel_name(), "stencil");
        assert_eq!(p.symmetrized().backend().kernel_name(), "stencil");
        assert_eq!(p.to_f32().backend().kernel_name(), "stencil");
    }

    #[test]
    fn symmetrized_is_symmetric() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 4.0);
        coo.push(1, 1, 1.0);
        let p = SparsePrecond::new(coo.to_csr()).symmetrized();
        assert!(p.matrix().is_symmetric(0.0));
        assert_eq!(p.matrix().get(0, 1), 2.0);
        assert_eq!(p.matrix().get(1, 0), 2.0);
    }
}
