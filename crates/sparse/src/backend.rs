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
//!   once at construction and runs a banded, stencil, or generic row
//!   kernel from then on. It is plain data — the matrix and its detected
//!   structure — so sessions share it behind an `Arc` with no lock.
//!
//! ## Bit-reproducibility contract
//!
//! All kernels here perform, per output element, exactly the operations of
//! [`Csr::spmv`]'s row kernel in exactly its order (4 lane accumulators
//! combined `(a0+a1)+(a2+a3)`, then the in-order remainder) — only the
//! *addressing* of `x` changes (streamed column indices, a contiguous band
//! window, or a tiny offset table) — and the driver never splits a row.
//! Every product is therefore bit-identical to the serial generic one on
//! any matrix, at every thread count.

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
    /// Kernel-family label: `"generic-csr"`, `"banded"`, or `"stencil"`.
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
/// [`Structure`], and runs the matching row kernel family under every
/// apply. Built once per session/preconditioner (detection is `O(nnz)`
/// with early bail), applied many times.
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

    /// Serial apply over a contiguous row range, writing
    /// `y[i - rows.start]`, dispatched on the detected structure. The one
    /// row loop shared by the serial and parallel arms — sharing it is
    /// what makes them bit-identical.
    fn spmv_rows_dispatch(&self, rows: Range<usize>, x: &[f64], y: &mut [f64]) {
        let base = rows.start;
        match &self.structure {
            Structure::Banded { lower, .. } => {
                for i in rows {
                    let vals = self.a.row_values(i);
                    let j0 = i.saturating_sub(*lower);
                    y[i - base] = row_dot_window(vals, &x[j0..j0 + vals.len()]);
                }
            }
            Structure::Stencil(map) => {
                // Batch maximal runs of equal-pattern rows (on structured
                // grids the whole interior is one run), hoisting the offset
                // table — and for common stencil widths, the offsets
                // themselves — out of the row loop.
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
            Structure::General => self.a.spmv_rows(rows, x, y),
        }
    }

    /// Block counterpart of [`SpecializedBackend::spmv_rows_dispatch`].
    fn spmm_rows_dispatch(&self, rows: Range<usize>, x: &[f64], k: usize, y: &mut [f64]) {
        let base = rows.start;
        match &self.structure {
            Structure::Banded { lower, .. } => {
                for i in rows {
                    let vals = self.a.row_values(i);
                    let j0 = i.saturating_sub(*lower);
                    let yrow = &mut y[(i - base) * k..(i - base + 1) * k];
                    // The whole band maps to one contiguous x block
                    // (rows j0..j0+len of the row-major n×k operand).
                    row_block_window(vals, &x[j0 * k..(j0 + vals.len()) * k], k, yrow);
                }
            }
            Structure::Stencil(map) => {
                // Run-batched like the SpMV arm: one offset-table lookup
                // per maximal equal-pattern run, not per row.
                let mut i = rows.start;
                while i < rows.end {
                    let pid = map.pattern_id(i);
                    let mut end = i + 1;
                    while end < rows.end && map.pattern_id(end) == pid {
                        end += 1;
                    }
                    let offs = map.offsets_of(pid);
                    let yrun = &mut y[(i - base) * k..(end - base) * k];
                    spmm_stencil_run(&self.a, x, k, yrun, i, offs);
                    i = end;
                }
            }
            Structure::General => self.a.spmm_rows(rows, x, k, y),
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
        product(&self.a, x, k, y, |rows, ys| {
            self.spmm_rows_dispatch(rows, x, k, ys)
        });
    }
    fn kernel_name(&self) -> &'static str {
        self.structure.kernel_name()
    }
}

/// Contiguous-window row dot for banded rows: `vals · xw`, where `xw` is
/// the clipped band window `x[j0 .. j0 + vals.len()]`. Exactly
/// [`Csr::spmv`]'s row kernel with the index gather replaced by a second
/// streamed operand — same 4 lane accumulators, same `(a0+a1)+(a2+a3)`
/// combination, same in-order remainder, hence bit-identical. Streaming
/// two contiguous slices is what the compiler can vectorize where the
/// generic gather cannot, and the 8-byte-per-nnz column stream disappears
/// entirely.
#[inline]
fn row_dot_window<T: Scalar>(vals: &[T], xw: &[f64]) -> f64 {
    let split = vals.len() & !3;
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (v, xc) in vals[..split]
        .chunks_exact(4)
        .zip(xw[..split].chunks_exact(4))
    {
        a0 += v[0].to_f64() * xc[0];
        a1 += v[1].to_f64() * xc[1];
        a2 += v[2].to_f64() * xc[2];
        a3 += v[3].to_f64() * xc[3];
    }
    let mut s = (a0 + a1) + (a2 + a3);
    for (&v, &xv) in vals[split..].iter().zip(&xw[split..]) {
        s += v.to_f64() * xv;
    }
    s
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

/// SpMM over one run of rows sharing a stencil pattern (`y` holds the
/// run's block rows). Common widths get the const-`M` streamed body;
/// other widths fall back to the per-row offset-table block kernel.
#[inline]
fn spmm_stencil_run<T: Scalar>(
    a: &Csr<T>,
    x: &[f64],
    k: usize,
    y: &mut [f64],
    r0: usize,
    offs: &[i64],
) {
    match offs.len() {
        3 => spmm_stencil_run_w::<T, 3>(a, x, k, y, r0, offs),
        5 => spmm_stencil_run_w::<T, 5>(a, x, k, y, r0, offs),
        7 => spmm_stencil_run_w::<T, 7>(a, x, k, y, r0, offs),
        9 => spmm_stencil_run_w::<T, 9>(a, x, k, y, r0, offs),
        _ => {
            for (ri, yrow) in y.chunks_exact_mut(k).enumerate() {
                let r = r0 + ri;
                row_block_offsets(a.row_values(r), x, k, r as i64, offs, yrow);
            }
        }
    }
}

/// Const-width body of [`spmm_stencil_run`]: the block counterpart of
/// [`spmv_stencil_run_w`]. Stream `t` is the row-major block
/// `x[(r0 + offs[t])·k ..][.. run·k]`, so lane `t` of block row `ri`
/// reads the contiguous window `xs[t][ri·k + c ..][.. W]` — no index
/// loads, no per-row `indptr` loads. Columns are tiled 8/4/2/1 exactly
/// like `Csr::spmm_rows`, each tile using [`Csr::spmv`]'s lane
/// association, so every column stays bit-identical to the generic path.
#[inline]
fn spmm_stencil_run_w<T: Scalar, const M: usize>(
    a: &Csr<T>,
    x: &[f64],
    k: usize,
    y: &mut [f64],
    r0: usize,
    offs: &[i64],
) {
    let o: &[i64; M] = offs.try_into().expect("run width matches pattern");
    let run = y.len() / k;
    let vals = a.rows_values(r0..r0 + run);
    let mut xs: [&[f64]; M] = [&x[..0]; M];
    for (t, s) in xs.iter_mut().enumerate() {
        let start = (r0 as i64 + o[t]) as usize * k;
        *s = &x[start..start + run * k];
    }
    for (ri, (yrow, v)) in y.chunks_exact_mut(k).zip(vals.chunks_exact(M)).enumerate() {
        let mut c = 0usize;
        while c + 8 <= k {
            stencil_tile::<T, M, 8>(v, &xs, ri, k, c, &mut yrow[c..c + 8]);
            c += 8;
        }
        while c + 4 <= k {
            stencil_tile::<T, M, 4>(v, &xs, ri, k, c, &mut yrow[c..c + 4]);
            c += 4;
        }
        while c + 2 <= k {
            stencil_tile::<T, M, 2>(v, &xs, ri, k, c, &mut yrow[c..c + 2]);
            c += 2;
        }
        while c < k {
            yrow[c] = stencil_tile_col::<T, M>(v, &xs, ri, k, c);
            c += 1;
        }
    }
}

/// `W`-column tile of one stencil block row read from the per-offset
/// streams (mirrors `Csr`'s `row_dot_cols` association per column).
#[inline]
fn stencil_tile<T: Scalar, const M: usize, const W: usize>(
    v: &[T],
    xs: &[&[f64]; M],
    ri: usize,
    k: usize,
    c: usize,
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), W);
    let b = ri * k + c;
    let split = M & !3;
    let mut acc = [[0.0f64; W]; 4];
    let mut t = 0usize;
    while t < split {
        for lane in 0..4 {
            let xr = &xs[t + lane][b..b + W];
            let vl = v[t + lane].to_f64();
            for w in 0..W {
                acc[lane][w] += vl * xr[w];
            }
        }
        t += 4;
    }
    for (w, o) in out.iter_mut().enumerate() {
        let mut s = (acc[0][w] + acc[1][w]) + (acc[2][w] + acc[3][w]);
        let mut t = split;
        while t < M {
            s += v[t].to_f64() * xs[t][b + w];
            t += 1;
        }
        *o = s;
    }
}

/// Strided single-column counterpart of [`stencil_tile`] (mirrors `Csr`'s
/// `row_dot_col` operation-for-operation).
#[inline]
fn stencil_tile_col<T: Scalar, const M: usize>(
    v: &[T],
    xs: &[&[f64]; M],
    ri: usize,
    k: usize,
    c: usize,
) -> f64 {
    let b = ri * k + c;
    let split = M & !3;
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    let mut t = 0usize;
    while t < split {
        a0 += v[t].to_f64() * xs[t][b];
        a1 += v[t + 1].to_f64() * xs[t + 1][b];
        a2 += v[t + 2].to_f64() * xs[t + 2][b];
        a3 += v[t + 3].to_f64() * xs[t + 3][b];
        t += 4;
    }
    let mut s = (a0 + a1) + (a2 + a3);
    while t < M {
        s += v[t].to_f64() * xs[t][b];
        t += 1;
    }
    s
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

/// `W`-column block kernel over a contiguous band window: `xw` is the
/// row-major block `x[j0·k .. (j0 + vals.len())·k]`, so lane `t + lane`
/// reads `xw[(t+lane)·k + c ..][..W]` — no index loads at all. Mirrors
/// `Csr`'s `row_dot_cols` association per column exactly.
#[inline]
fn row_dot_cols_window<T: Scalar, const W: usize>(
    vals: &[T],
    xw: &[f64],
    k: usize,
    c: usize,
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), W);
    let split = vals.len() & !3;
    // acc[lane][col]: lane = position within the 4-wide nnz chunk.
    let mut acc = [[0.0f64; W]; 4];
    for (tc, v) in vals[..split].chunks_exact(4).enumerate() {
        let t = tc * 4;
        for lane in 0..4 {
            let base = (t + lane) * k + c;
            let xr = &xw[base..base + W];
            let vl = v[lane].to_f64();
            for w in 0..W {
                acc[lane][w] += vl * xr[w];
            }
        }
    }
    for (w, o) in out.iter_mut().enumerate() {
        let mut s = (acc[0][w] + acc[1][w]) + (acc[2][w] + acc[3][w]);
        for (r, &v) in (split..vals.len()).zip(&vals[split..]) {
            s += v.to_f64() * xw[r * k + c + w];
        }
        *o = s;
    }
}

/// Strided single-column counterpart of [`row_dot_cols_window`] (mirrors
/// `Csr`'s `row_dot_col` operation-for-operation).
#[inline]
fn row_dot_col_window<T: Scalar>(vals: &[T], xw: &[f64], k: usize, c: usize) -> f64 {
    let split = vals.len() & !3;
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (tc, v) in vals[..split].chunks_exact(4).enumerate() {
        let t = tc * 4;
        a0 += v[0].to_f64() * xw[t * k + c];
        a1 += v[1].to_f64() * xw[(t + 1) * k + c];
        a2 += v[2].to_f64() * xw[(t + 2) * k + c];
        a3 += v[3].to_f64() * xw[(t + 3) * k + c];
    }
    let mut s = (a0 + a1) + (a2 + a3);
    for (t, &v) in (split..vals.len()).zip(&vals[split..]) {
        s += v.to_f64() * xw[t * k + c];
    }
    s
}

/// `W`-column block kernel with offset addressing (the stencil SpMM form
/// of `Csr`'s `row_dot_cols`).
#[inline]
fn row_dot_cols_offsets<T: Scalar, const W: usize>(
    vals: &[T],
    x: &[f64],
    k: usize,
    c: usize,
    i: i64,
    offs: &[i64],
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), W);
    let split = vals.len() & !3;
    let mut acc = [[0.0f64; W]; 4];
    for (v, o) in vals[..split]
        .chunks_exact(4)
        .zip(offs[..split].chunks_exact(4))
    {
        for lane in 0..4 {
            let j = (i + o[lane]) as usize;
            let xr = &x[j * k + c..j * k + c + W];
            let vl = v[lane].to_f64();
            for w in 0..W {
                acc[lane][w] += vl * xr[w];
            }
        }
    }
    for (w, o) in out.iter_mut().enumerate() {
        let mut s = (acc[0][w] + acc[1][w]) + (acc[2][w] + acc[3][w]);
        for (&v, &d) in vals[split..].iter().zip(&offs[split..]) {
            s += v.to_f64() * x[(i + d) as usize * k + c + w];
        }
        *o = s;
    }
}

/// Strided single-column counterpart of [`row_dot_cols_offsets`].
#[inline]
fn row_dot_col_offsets<T: Scalar>(
    vals: &[T],
    x: &[f64],
    k: usize,
    c: usize,
    i: i64,
    offs: &[i64],
) -> f64 {
    let split = vals.len() & !3;
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (v, o) in vals[..split]
        .chunks_exact(4)
        .zip(offs[..split].chunks_exact(4))
    {
        a0 += v[0].to_f64() * x[(i + o[0]) as usize * k + c];
        a1 += v[1].to_f64() * x[(i + o[1]) as usize * k + c];
        a2 += v[2].to_f64() * x[(i + o[2]) as usize * k + c];
        a3 += v[3].to_f64() * x[(i + o[3]) as usize * k + c];
    }
    let mut s = (a0 + a1) + (a2 + a3);
    for (&v, &o) in vals[split..].iter().zip(&offs[split..]) {
        s += v.to_f64() * x[(i + o) as usize * k + c];
    }
    s
}

/// One banded output block row, with the same 8/4/2/1 column tiling as
/// `Csr::spmm_rows` — keeping every column bit-identical to the generic
/// block path.
#[inline]
fn row_block_window<T: Scalar>(vals: &[T], xw: &[f64], k: usize, yrow: &mut [f64]) {
    let mut c = 0usize;
    while c + 8 <= k {
        row_dot_cols_window::<T, 8>(vals, xw, k, c, &mut yrow[c..c + 8]);
        c += 8;
    }
    while c + 4 <= k {
        row_dot_cols_window::<T, 4>(vals, xw, k, c, &mut yrow[c..c + 4]);
        c += 4;
    }
    while c + 2 <= k {
        row_dot_cols_window::<T, 2>(vals, xw, k, c, &mut yrow[c..c + 2]);
        c += 2;
    }
    while c < k {
        yrow[c] = row_dot_col_window(vals, xw, k, c);
        c += 1;
    }
}

/// One stencil output block row, 8/4/2/1-tiled like `Csr::spmm_rows`.
#[inline]
fn row_block_offsets<T: Scalar>(
    vals: &[T],
    x: &[f64],
    k: usize,
    i: i64,
    offs: &[i64],
    yrow: &mut [f64],
) {
    let mut c = 0usize;
    while c + 8 <= k {
        row_dot_cols_offsets::<T, 8>(vals, x, k, c, i, offs, &mut yrow[c..c + 8]);
        c += 8;
    }
    while c + 4 <= k {
        row_dot_cols_offsets::<T, 4>(vals, x, k, c, i, offs, &mut yrow[c..c + 4]);
        c += 4;
    }
    while c + 2 <= k {
        row_dot_cols_offsets::<T, 2>(vals, x, k, c, i, offs, &mut yrow[c..c + 2]);
        c += 2;
    }
    while c < k {
        yrow[c] = row_dot_col_offsets(vals, x, k, c, i, offs);
        c += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn band(n: usize, lower: usize, upper: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            let first = i.saturating_sub(lower);
            let last = (i + upper).min(n - 1);
            for j in first..=last {
                coo.push(i, j, (1 + (i * 13 + j * 7) % 11) as f64 * 0.3 - 1.1);
            }
        }
        coo.to_csr()
    }

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
    fn banded_backend_bit_identical_to_generic_serial() {
        for (lower, upper) in [(1usize, 1usize), (0, 3), (4, 2)] {
            let a = band(97, lower, upper);
            let b = SpecializedBackend::detect(a.clone());
            assert_eq!(b.kernel_name(), "banded");
            let x = x_of(97);
            let want = a.spmv_alloc(&x);
            let mut got = vec![0.0; 97];
            b.spmv(&x, &mut got);
            assert_eq!(got, want, "band ({lower},{upper})");
        }
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
    fn spmm_bit_identical_for_every_tile_width() {
        // k chosen to cover the 8-, 4-, 2-wide tiles and the scalar
        // remainder column.
        let a = band(60, 2, 2);
        let s = spread(60, 4);
        for k in [1usize, 2, 3, 4, 5, 7, 8, 9, 11, 16] {
            for (m, label) in [(&a, "banded"), (&s, "stencil")] {
                let b = SpecializedBackend::detect((*m).clone());
                assert_eq!(b.kernel_name(), label);
                let xb: Vec<f64> = (0..60 * k).map(|t| (t as f64 * 0.013).cos()).collect();
                let mut want = vec![0.0; 60 * k];
                m.spmm(&xb, k, &mut want);
                let mut got = vec![0.0; 60 * k];
                b.spmm(&xb, k, &mut got);
                assert_eq!(got, want, "{label} k={k}");
            }
        }
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
        let a = band(40, 1, 1);
        assert_eq!(KernelBackend::kernel_name(&a), "generic-csr");
        let x = x_of(40);
        let want = a.spmv_alloc(&x);
        let mut got = vec![0.0; 40];
        KernelBackend::spmv(&a, &x, &mut got);
        assert_eq!(got, want);
    }

    #[test]
    fn clone_preserves_structure_without_rescan() {
        let b = SpecializedBackend::detect(band(30, 2, 1));
        let c = b.clone();
        assert_eq!(b.structure(), c.structure());
        assert_eq!(b.csr(), c.csr());
    }

    #[test]
    fn in_ranges_bit_identical_for_any_cover() {
        // Which in-order cover of the rows the driver is handed decides who
        // computes a row, never what is computed — for every kernel family.
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
        for m in [band(n, 2, 3), spread(n, 5), skewed_general(n)] {
            let b = SpecializedBackend::detect(m.clone());
            let want = m.spmv_alloc(&x);
            let mut wantb = vec![0.0; n * k];
            m.spmm(&xb, k, &mut wantb);
            for cover in covers {
                let mut y = vec![0.0; n];
                in_ranges(cover, 1, &mut y, |r, ys| b.spmv_rows_dispatch(r, &x, ys));
                assert_eq!(y, want, "{} spmv {cover:?}", b.kernel_name());
                let mut yb = vec![0.0; n * k];
                in_ranges(cover, k, &mut yb, |r, ys| {
                    b.spmm_rows_dispatch(r, &xb, k, ys)
                });
                assert_eq!(yb, wantb, "{} spmm {cover:?}", b.kernel_name());
            }
        }
    }

    #[test]
    fn f32_storage_specialized_matches_f32_generic_bitwise() {
        let a32: Csr<f32> = band(80, 3, 3).to_precision();
        let b = SpecializedBackend::detect(a32.clone());
        assert_eq!(b.kernel_name(), "banded");
        let x = x_of(80);
        let want = a32.spmv_alloc(&x);
        let mut got = vec![0.0; 80];
        b.spmv(&x, &mut got);
        assert_eq!(got, want);
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
            (band(140, 2, 3), "banded"),
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
