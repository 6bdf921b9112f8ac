//! The `KernelBackend` seam: every matvec in the workspace flows through
//! this trait, so swapping kernel families (generic CSR, structure
//! specialized, a future SoA-walk or GPU backend) is a construction-time
//! choice instead of a call-site rewrite.
//!
//! `KernelBackend::{spmv, spmm}` are the one way to ask for a product, and
//! `product` below is the one place a product is split across threads:
//! serial when the traversal is too small to pay for a fork/join
//! ([`par_pays_off`]), otherwise one nnz-balanced row partition computed
//! for the call. Two implementations ship, differing only in the row
//! kernel they hand that driver:
//! - every [`Csr`] *is* a backend (the generic row kernels of
//!   [`Csr::spmv`] / [`Csr::spmm`], which stay as the serial reference);
//! - [`SpecializedBackend`] runs [`crate::structure::detect_structure`]
//!   once at construction and, on a stencil, runs the stencil SpMV row
//!   kernel from then on; every other product is the generic one. It is
//!   plain data — the matrix and its detected structure — so sessions
//!   share it behind an `Arc` with no lock.
//!
//! ## Bit-reproducibility contract
//!
//! The stencil kernel performs, per output element, exactly the operations
//! of [`Csr::spmv`]'s row kernel in exactly its order (4 lane accumulators
//! combined `(a0+a1)+(a2+a3)`, then the in-order remainder) — only the
//! *addressing* of `x` changes (a tiny offset table instead of streamed
//! column indices) — and the driver never splits a row. Every product is
//! therefore bit-identical to the serial generic one on any matrix, at
//! every thread count.

use crate::csr::{nnz_balanced_ranges, par_pays_off, Csr};
use crate::scalar::Scalar;
use crate::structure::{detect_structure, Structure};
use rayon::prelude::*;
use std::ops::Range;

/// The single seam through which all matvec work flows. `spmv`/`spmm` are
/// auto-dispatching (serial vs parallel by the shared
/// [`crate::csr::par_threshold`] rule) and bit-identical whichever arm
/// runs, so callers keep full determinism without knowing the kernel
/// family.
pub trait KernelBackend: Sync {
    /// Number of rows of the operator.
    fn nrows(&self) -> usize;
    /// Number of columns of the operator.
    fn ncols(&self) -> usize;
    /// Stored non-zeros (the work measure for dispatch decisions).
    fn nnz(&self) -> usize;
    /// `y ← A·x`, auto-dispatched, bit-identical at every thread count.
    fn spmv(&self, x: &[f64], y: &mut [f64]);
    /// `Y ← A·X` for a row-major `ncols×k` block `X`, auto-dispatched;
    /// column `c` is bit-identical to `spmv` on the extracted column.
    fn spmm(&self, x: &[f64], k: usize, y: &mut [f64]);
    /// Kernel-family label: `"generic-csr"` or `"stencil"`.
    fn kernel_name(&self) -> &'static str {
        "generic-csr"
    }
    /// Do results depend on the order of calls? `false` for every product
    /// that is a pure function of its inputs; `true` for a backend whose
    /// state advances per call ([`crate::FaultyBackend`]'s call counter).
    /// A solver keeps the calls of such a backend in one sequence, on one
    /// thread, so their order is the same on every run.
    fn order_dependent(&self) -> bool {
        false
    }
}

/// The row-range driver under every backend: `Y ← A·X` for a row-major
/// `ncols×k` operand (`k = 1` is an SpMV), where `rows(r, ys)` computes the
/// output rows `r` into `ys` (`k` outputs per row, `ys[0]` belonging to
/// row `r.start`). Runs `rows` once over `0..nrows` when the `nnz·k`
/// multiply-adds do not pay for threads, otherwise once per range of an
/// nnz-balanced partition. A row is never split and `rows` is the same
/// function on both arms, so the arms agree bit for bit.
///
/// # Panics
/// Panics on dimension mismatch or `k == 0`.
fn product<T: Scalar>(
    a: &Csr<T>,
    x: &[f64],
    k: usize,
    y: &mut [f64],
    rows: impl Fn(Range<usize>, &mut [f64]) + Sync,
) {
    assert!(k > 0, "product: block width must be positive");
    assert_eq!(x.len(), a.ncols() * k, "product: x size mismatch");
    assert_eq!(y.len(), a.nrows() * k, "product: y size mismatch");
    if a.nrows() < 2 || !par_pays_off(a.nnz().saturating_mul(k)) {
        return rows(0..a.nrows(), y);
    }
    let ranges = nnz_balanced_ranges(a.indptr(), rayon::current_num_threads());
    in_ranges(&ranges, k, y, rows);
}

/// Carve `y` into one disjoint slice per range (`k` outputs per row) and
/// run `rows` on each in parallel. `ranges` is an in-order disjoint cover
/// of the output rows; *which* cover only decides who computes a row, not
/// what is computed.
fn in_ranges(
    ranges: &[Range<usize>],
    k: usize,
    y: &mut [f64],
    rows: impl Fn(Range<usize>, &mut [f64]) + Sync,
) {
    let mut tasks: Vec<(Range<usize>, &mut [f64])> = Vec::with_capacity(ranges.len());
    let mut rest = y;
    for r in ranges {
        let (head, tail) = rest.split_at_mut(r.len() * k);
        rest = tail;
        tasks.push((r.clone(), head));
    }
    tasks.into_par_iter().for_each(|(r, ys)| rows(r, ys));
}

/// The generic-CSR backend: [`Csr::spmv`]'s and [`Csr::spmm`]'s row
/// kernels under the shared driver.
impl<T: Scalar> KernelBackend for Csr<T> {
    fn nrows(&self) -> usize {
        Csr::nrows(self)
    }
    fn ncols(&self) -> usize {
        Csr::ncols(self)
    }
    fn nnz(&self) -> usize {
        Csr::nnz(self)
    }
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        product(self, x, 1, y, |rows, ys| self.spmv_rows(rows, x, ys));
    }
    fn spmm(&self, x: &[f64], k: usize, y: &mut [f64]) {
        product(self, x, k, y, |rows, ys| self.spmm_rows(rows, x, k, ys));
    }
}

/// A structure-specialized backend: owns the matrix and the detected
/// [`Structure`], and runs the stencil SpMV row kernel under every SpMV of
/// a stencil (SpMM is the generic block kernel). Built once per
/// session/preconditioner (detection is `O(nnz)` with early bail), applied
/// many times.
#[derive(Clone, Debug)]
pub struct SpecializedBackend<T: Scalar = f64> {
    a: Csr<T>,
    structure: Structure,
}

impl<T: Scalar> SpecializedBackend<T> {
    /// Detect the structure of `a` and build the matching backend.
    pub fn detect(a: Csr<T>) -> Self {
        let structure = detect_structure(&a);
        Self { a, structure }
    }

    /// Borrow the underlying matrix.
    pub fn csr(&self) -> &Csr<T> {
        &self.a
    }

    /// The detected structure this backend dispatches on.
    pub fn structure(&self) -> &Structure {
        &self.structure
    }

    /// Is a specialized (non-generic) kernel family active?
    pub fn is_specialized(&self) -> bool {
        self.structure.is_specialized()
    }

    /// Serial SpMV over a contiguous row range, writing
    /// `y[i - rows.start]`, dispatched on the detected structure. The one
    /// row loop shared by the serial and parallel arms — sharing it is
    /// what makes them bit-identical.
    fn spmv_rows_dispatch(&self, rows: Range<usize>, x: &[f64], y: &mut [f64]) {
        let Structure::Stencil(map) = &self.structure else {
            return self.a.spmv_rows(rows, x, y);
        };
        // Batch maximal runs of equal-pattern rows (on structured grids the
        // whole interior is one run), hoisting the offset table — and for
        // common stencil widths, the offsets themselves — out of the row
        // loop.
        let base = rows.start;
        let mut i = rows.start;
        while i < rows.end {
            let pid = map.pattern_id(i);
            let mut end = i + 1;
            while end < rows.end && map.pattern_id(end) == pid {
                end += 1;
            }
            let offs = map.offsets_of(pid);
            spmv_stencil_run(&self.a, x, &mut y[i - base..end - base], i, offs);
            i = end;
        }
    }
}

impl<T: Scalar> KernelBackend for SpecializedBackend<T> {
    fn nrows(&self) -> usize {
        self.a.nrows()
    }
    fn ncols(&self) -> usize {
        self.a.ncols()
    }
    fn nnz(&self) -> usize {
        self.a.nnz()
    }
    fn spmv(&self, x: &[f64], y: &mut [f64]) {
        product(&self.a, x, 1, y, |rows, ys| {
            self.spmv_rows_dispatch(rows, x, ys)
        });
    }
    fn spmm(&self, x: &[f64], k: usize, y: &mut [f64]) {
        KernelBackend::spmm(&self.a, x, k, y);
    }
    fn kernel_name(&self) -> &'static str {
        self.structure.kernel_name()
    }
}

/// SpMV over one run of rows sharing a stencil pattern, `y` pre-positioned
/// (`y[ri] = row r0 + ri`). Common stencil widths (3/5/7/9-point) get a
/// const-width body whose offsets live in registers and whose per-row loop
/// fully unrolls with no bounds checks; other widths fall back to the
/// sliced kernel with the offset table still hoisted out of the row loop.
#[inline]
fn spmv_stencil_run<T: Scalar>(a: &Csr<T>, x: &[f64], y: &mut [f64], r0: usize, offs: &[i64]) {
    match offs.len() {
        3 => spmv_stencil_run_w::<T, 3>(a, x, y, r0, offs),
        5 => spmv_stencil_run_w::<T, 5>(a, x, y, r0, offs),
        7 => spmv_stencil_run_w::<T, 7>(a, x, y, r0, offs),
        9 => spmv_stencil_run_w::<T, 9>(a, x, y, r0, offs),
        _ => {
            for (ri, yv) in y.iter_mut().enumerate() {
                let i = r0 + ri;
                *yv = row_dot_offsets(a.row_values(i), x, i as i64, offs);
            }
        }
    }
}

/// Const-width body of [`spmv_stencil_run`]. The whole run's values are
/// one contiguous `M·run` slice (equal-pattern rows all store `M`
/// entries), and each stencil point `t` becomes one contiguous `x`
/// *stream* — `xs[t][ri]` is `x[(r0 + ri) + offs[t]]` — so the row loop
/// does `M` value loads and `M` stream reads per row with no per-row
/// `indptr` loads and no index arithmetic. Per row it performs exactly
/// [`Csr::spmv`]'s row-kernel operations in its order for a length-`M`
/// row — 4 lane accumulators combined `(a0+a1)+(a2+a3)`, in-order
/// remainder — hence bit-identical to the generic path.
#[inline]
fn spmv_stencil_run_w<T: Scalar, const M: usize>(
    a: &Csr<T>,
    x: &[f64],
    y: &mut [f64],
    r0: usize,
    offs: &[i64],
) {
    let o: &[i64; M] = offs.try_into().expect("run width matches pattern");
    let run = y.len();
    let vals = a.rows_values(r0..r0 + run);
    // Every `i + offs[t]` is in bounds because the offsets came from the
    // run's own columns, so each stream is a valid slice of `x`.
    let mut xs: [&[f64]; M] = [&x[..0]; M];
    for (t, s) in xs.iter_mut().enumerate() {
        let start = (r0 as i64 + o[t]) as usize;
        *s = &x[start..start + run];
    }
    let split = M & !3;
    for (ri, (yv, v)) in y.iter_mut().zip(vals.chunks_exact(M)).enumerate() {
        let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
        let mut t = 0usize;
        while t < split {
            a0 += v[t].to_f64() * xs[t][ri];
            a1 += v[t + 1].to_f64() * xs[t + 1][ri];
            a2 += v[t + 2].to_f64() * xs[t + 2][ri];
            a3 += v[t + 3].to_f64() * xs[t + 3][ri];
            t += 4;
        }
        let mut s = (a0 + a1) + (a2 + a3);
        while t < M {
            s += v[t].to_f64() * xs[t][ri];
            t += 1;
        }
        *yv = s;
    }
}

/// Offset-table row dot for stencil rows: exactly the generic row kernel
/// with the streamed 8-byte-per-nnz column indices replaced by the
/// L1-resident pattern offsets (`x[i + offs[t]]`). `offs.len()` always
/// equals `vals.len()` (detection guarantees it), and every `i + offs[t]`
/// is in bounds because the offsets came from this row's own columns.
#[inline]
fn row_dot_offsets<T: Scalar>(vals: &[T], x: &[f64], i: i64, offs: &[i64]) -> f64 {
    let split = vals.len() & !3;
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (v, o) in vals[..split]
        .chunks_exact(4)
        .zip(offs[..split].chunks_exact(4))
    {
        a0 += v[0].to_f64() * x[(i + o[0]) as usize];
        a1 += v[1].to_f64() * x[(i + o[1]) as usize];
        a2 += v[2].to_f64() * x[(i + o[2]) as usize];
        a3 += v[3].to_f64() * x[(i + o[3]) as usize];
    }
    let mut s = (a0 + a1) + (a2 + a3);
    for (&v, &o) in vals[split..].iter().zip(&offs[split..]) {
        s += v.to_f64() * x[(i + o) as usize];
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn spread(n: usize, s: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.5 + (i % 7) as f64 * 0.1);
            if i >= s {
                coo.push(i, i - s, -1.0);
            }
            if i + s < n {
                coo.push(i, i + s, -0.5);
            }
        }
        coo.to_csr()
    }

    /// Five dense rows, then one to four scattered entries per row.
    fn skewed_general(n: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            for t in 0..if i < 5 { n } else { 1 + i % 4 } {
                coo.push(i, (i + t * 7) % n, 0.3 + t as f64 * 0.01);
            }
        }
        coo.to_csr()
    }

    fn x_of(n: usize) -> Vec<f64> {
        (0..n).map(|i| (i as f64 * 0.37).sin() + 0.1).collect()
    }

    #[test]
    fn stencil_backend_bit_identical_to_generic_serial() {
        let a = spread(131, 6);
        let b = SpecializedBackend::detect(a.clone());
        assert_eq!(b.kernel_name(), "stencil");
        let x = x_of(131);
        let want = a.spmv_alloc(&x);
        let mut got = vec![0.0; 131];
        b.spmv(&x, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn general_backend_delegates_to_csr_kernels() {
        let mut coo = Coo::new(50, 50);
        for i in 0..50usize {
            coo.push(i, i, 2.0);
            let j = (i * 17 + 3) % 50;
            if j != i {
                coo.push(i, j, -0.25);
            }
        }
        let a = coo.to_csr();
        let b = SpecializedBackend::detect(a.clone());
        assert_eq!(b.kernel_name(), "generic-csr");
        assert!(!b.is_specialized());
        let x = x_of(50);
        let want = a.spmv_alloc(&x);
        let mut got = vec![0.0; 50];
        b.spmv(&x, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn bare_csr_backend_runs_generic_kernels_on_structured_matrix() {
        let a = spread(40, 1);
        assert_eq!(KernelBackend::kernel_name(&a), "generic-csr");
        let x = x_of(40);
        let want = a.spmv_alloc(&x);
        let mut got = vec![0.0; 40];
        KernelBackend::spmv(&a, &x, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn clone_preserves_structure_without_rescan() {
        let b = SpecializedBackend::detect(spread(30, 3));
        let c = b.clone();
        assert_eq!(b.structure(), c.structure());
        assert_eq!(b.csr(), c.csr());
    }

    #[test]
    fn in_ranges_bit_identical_for_any_cover() {
        // Which in-order cover of the rows the driver is handed decides who
        // computes a row, never what is computed — for every row kernel.
        let n = 150usize;
        let covers: [&[Range<usize>]; 4] = [
            &[0..75, 75..150],
            &[0..1, 1..149, 149..150],
            &[0..40, 40..40, 40..150],
            &[0..17, 17..60, 60..61, 61..110, 110..150],
        ];
        let x = x_of(n);
        let k = 3usize;
        let xb: Vec<f64> = (0..n * k).map(|t| (t as f64 * 0.013).sin()).collect();
        for m in [spread(n, 5), skewed_general(n)] {
            let b = SpecializedBackend::detect(m.clone());
            let want = m.spmv_alloc(&x);
            let mut wantb = vec![0.0; n * k];
            m.spmm(&xb, k, &mut wantb);
            for cover in covers {
                let mut y = vec![0.0; n];
                in_ranges(cover, 1, &mut y, |r, ys| b.spmv_rows_dispatch(r, &x, ys));
                assert_eq!(y, want, "{} spmv {cover:?}", b.kernel_name());
                let mut yb = vec![0.0; n * k];
                in_ranges(cover, k, &mut yb, |r, ys| m.spmm_rows(r, &xb, k, ys));
                assert_eq!(yb, wantb, "{} spmm {cover:?}", b.kernel_name());
            }
        }
    }

    #[test]
    fn parallel_arm_bit_identical_for_every_kernel_family() {
        let _guard = crate::csr::THRESHOLD_TEST_LOCK.lock().unwrap();
        crate::csr::set_par_threshold_for_tests(Some(1));
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                crate::csr::set_par_threshold_for_tests(None);
            }
        }
        let _restore = Restore;
        for (m, label) in [
            (spread(140, 5), "stencil"),
            (skewed_general(140), "generic-csr"),
        ] {
            let b = SpecializedBackend::detect(m.clone());
            assert_eq!(b.kernel_name(), label);
            let x = x_of(140);
            let want = m.spmv_alloc(&x);
            let k = 5usize;
            let xb: Vec<f64> = (0..140 * k).map(|t| (t as f64 * 0.017).sin()).collect();
            let mut wantb = vec![0.0; 140 * k];
            m.spmm(&xb, k, &mut wantb);
            for threads in [2usize, 8] {
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                let mut got = vec![0.0; 140];
                pool.install(|| b.spmv(&x, &mut got));
                assert_eq!(got, want, "{label} spmv threads={threads}");
                let mut gotb = vec![0.0; 140 * k];
                pool.install(|| b.spmm(&xb, k, &mut gotb));
                assert_eq!(gotb, wantb, "{label} spmm threads={threads}");
            }
        }
    }
}
