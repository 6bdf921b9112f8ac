//! Compressed sparse row storage — the workhorse format of the workspace.
//!
//! [`Csr`] is generic over its stored value type ([`Scalar`]): `Csr<f64>`
//! (the default, spelled plain `Csr` everywhere) is the exact container the
//! solvers run on, while `Csr<f32>` halves value bandwidth for operators —
//! like the MCMC approximate inverse — whose entries carry more stochastic
//! error than an f32 mantissa. All SpMV/SpMM kernels take f64 vectors and
//! accumulate in f64 regardless of the storage scalar; on `Csr<f64>` they
//! are bit-for-bit the pre-generic kernels.
//!
//! The products defined here — [`Csr::spmv`], [`Csr::spmm`] — are serial:
//! they are the reference. The product a solve asks for is
//! [`crate::KernelBackend`]'s, which runs these same row kernels and is the
//! one place that decides ([`par_pays_off`]) and performs the split across
//! threads; the partition it splits by ([`nnz_balanced_ranges`]) and the
//! constant it decides against ([`DEFAULT_PAR_THRESHOLD`]) live here.

use crate::scalar::Scalar;
use mcmcmi_dense::{LinearOp, Mat};
use serde::{Deserialize, Serialize};

/// Compressed-sparse-row matrix with values stored as `T`.
///
/// Invariants (checked by [`Csr::from_raw`] in debug builds and by
/// [`Csr::check_invariants`] on demand):
/// - `indptr.len() == nrows + 1`, non-decreasing, `indptr[0] == 0`,
///   `indptr[nrows] == indices.len() == data.len()`;
/// - column indices within each row are strictly increasing and `< ncols`.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr<T: Scalar = f64> {
    nrows: usize,
    ncols: usize,
    indptr: Vec<usize>,
    indices: Vec<usize>,
    data: Vec<T>,
}

impl<T: Scalar> Csr<T> {
    /// Build from raw CSR arrays.
    ///
    /// # Panics
    /// Panics (always, not just in debug) if the invariants do not hold.
    pub fn from_raw(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<T>,
    ) -> Self {
        Self::try_from_raw(nrows, ncols, indptr, indices, data)
            .expect("Csr::from_raw: invalid CSR arrays")
    }

    /// Build from raw CSR arrays that come from outside the program:
    /// `Err` with the violated invariant instead of a panic.
    pub fn try_from_raw(
        nrows: usize,
        ncols: usize,
        indptr: Vec<usize>,
        indices: Vec<usize>,
        data: Vec<T>,
    ) -> Result<Self, String> {
        let m = Self {
            nrows,
            ncols,
            indptr,
            indices,
            data,
        };
        m.check_invariants()?;
        Ok(m)
    }

    /// Validate the CSR structural invariants. Total: no array contents
    /// (a wrapping `nrows + 1`, a row pointer past the end of `indices`)
    /// can make it index out of range.
    pub fn check_invariants(&self) -> Result<(), String> {
        let Some(indptr_len) = self.nrows.checked_add(1) else {
            return Err(format!("nrows {} out of range", self.nrows));
        };
        if self.indptr.len() != indptr_len {
            return Err(format!(
                "indptr length {} != nrows+1 {indptr_len}",
                self.indptr.len()
            ));
        }
        if self.indptr[0] != 0 {
            return Err("indptr[0] != 0".into());
        }
        if self.indptr[self.nrows] != self.indices.len() || self.indices.len() != self.data.len() {
            return Err("indptr/indices/data length mismatch".into());
        }
        for r in 0..self.nrows {
            let (start, end) = (self.indptr[r], self.indptr[r + 1]);
            if start > end {
                return Err(format!("indptr decreasing at row {r}"));
            }
            if end > self.indices.len() {
                return Err(format!("indptr[{}] = {end} past the end of indices", r + 1));
            }
            let cols = &self.indices[start..end];
            for w in cols.windows(2) {
                if w[0] >= w[1] {
                    return Err(format!("row {r}: columns not strictly increasing"));
                }
            }
            if let Some(&c) = cols.last() {
                if c >= self.ncols {
                    return Err(format!("row {r}: column {c} out of bounds"));
                }
            }
        }
        Ok(())
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored non-zeros.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.data.len()
    }

    /// Fill density `φ(A) = nnz / (nrows·ncols)`.
    pub fn density(&self) -> f64 {
        if self.nrows == 0 || self.ncols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.nrows as f64 * self.ncols as f64)
    }

    /// Row pointer array.
    #[inline]
    pub fn indptr(&self) -> &[usize] {
        &self.indptr
    }

    /// All stored values, row after row.
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.data
    }

    /// Column indices of row `i` (sorted ascending).
    #[inline]
    pub fn row_indices(&self, i: usize) -> &[usize] {
        &self.indices[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Values of row `i`, aligned with [`Csr::row_indices`].
    #[inline]
    pub fn row_values(&self, i: usize) -> &[T] {
        &self.data[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Mutable values of row `i`.
    #[inline]
    pub fn row_values_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[self.indptr[i]..self.indptr[i + 1]]
    }

    /// Values of the contiguous row range `rows` as one slice — the
    /// stencil run kernels in [`crate::backend`] stream a whole
    /// equal-width run of rows without per-row `indptr` loads.
    #[inline]
    pub(crate) fn rows_values(&self, rows: std::ops::Range<usize>) -> &[T] {
        &self.data[self.indptr[rows.start]..self.indptr[rows.end]]
    }

    /// Entry accessor (binary search within the row); zero when not stored.
    pub fn get(&self, i: usize, j: usize) -> T {
        let cols = self.row_indices(i);
        match cols.binary_search(&j) {
            Ok(k) => self.row_values(i)[k],
            Err(_) => T::ZERO,
        }
    }

    /// Iterate all stored triplets `(i, j, v)`.
    pub fn triplets(&self) -> impl Iterator<Item = (usize, usize, T)> + '_ {
        (0..self.nrows).flat_map(move |i| {
            self.row_indices(i)
                .iter()
                .zip(self.row_values(i))
                .map(move |(&j, &v)| (i, j, v))
        })
    }

    /// Copy of the matrix with values re-stored as `U` (pattern untouched).
    /// `f64 → f32` is the mixed-precision demotion (one round-to-nearest per
    /// entry); `f32 → f64` and `f64 → f64` are exact.
    pub fn to_precision<U: Scalar>(&self) -> Csr<U> {
        Csr {
            nrows: self.nrows,
            ncols: self.ncols,
            indptr: self.indptr.clone(),
            indices: self.indices.clone(),
            data: self.data.iter().map(|v| U::from_f64(v.to_f64())).collect(),
        }
    }

    /// Aggregate bytes of the value array — the bandwidth the apply phase
    /// streams per traversal on top of the (scalar-independent) index arrays.
    pub fn value_bytes(&self) -> usize {
        self.nnz() * T::BYTES
    }

    /// Total resident bytes of the CSR arrays (indptr + indices + values) —
    /// the unit the serving layer's byte-bounded session cache accounts in.
    pub fn storage_bytes(&self) -> usize {
        self.indptr.len() * std::mem::size_of::<usize>()
            + self.indices.len() * std::mem::size_of::<usize>()
            + self.value_bytes()
    }

    /// Deterministic 64-bit identity of the matrix: structure *and* exact
    /// value bits.
    ///
    /// An FNV-1a fold over the dimensions, `indptr`, `indices`, and the
    /// per-entry [`Scalar::value_bits`], with a domain-separation tag
    /// between sections so `(indptr, indices)` permutations cannot
    /// collide by concatenation. The walk is sequential over the arrays —
    /// no parallelism, no addresses, no hashing of floats through their
    /// numeric value — so the fingerprint is identical across thread
    /// counts, process restarts, and serde round trips (the JSON shim
    /// round-trips floats bit-exactly). Two matrices fingerprint equal iff
    /// their CSR arrays are byte-equal (modulo the astronomically unlikely
    /// 64-bit collision); one flipped value bit, one moved index, or a
    /// different storage precision changes the digest.
    ///
    /// This is the session-cache key of the serving daemon: repeat
    /// operators hash to the same entry and skip build/tune entirely.
    pub fn fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        #[inline]
        fn fold(h: &mut u64, word: u64) {
            for byte in word.to_le_bytes() {
                *h ^= u64::from(byte);
                *h = h.wrapping_mul(PRIME);
            }
        }
        let mut h = OFFSET;
        fold(&mut h, self.nrows as u64);
        fold(&mut h, self.ncols as u64);
        fold(&mut h, T::BYTES as u64);
        fold(&mut h, 0x01); // section tag: indptr
        for &p in &self.indptr {
            fold(&mut h, p as u64);
        }
        fold(&mut h, 0x02); // section tag: indices
        for &j in &self.indices {
            fold(&mut h, j as u64);
        }
        fold(&mut h, 0x03); // section tag: values
        for &v in &self.data {
            fold(&mut h, v.value_bits());
        }
        h
    }

    /// Rows of `self` that differ from the same row of `other`: a changed
    /// sparsity pattern or any changed value *bit* (via
    /// [`Scalar::value_bits`], so even a NaN payload change registers)
    /// marks the row dirty. Returns the sorted dirty-row indices.
    ///
    /// This is the drift detector: an operator update `A → A'` touches a
    /// (usually small) row subset, and because the MCMC inverse estimator
    /// is row-independent, exactly those rows of the preconditioner can be
    /// rebuilt in isolation (`mcmcmi_mcmc`'s `rebuild_rows`).
    ///
    /// # Panics
    /// Panics if the dimensions disagree — a dimension change is a new
    /// operator, not drift.
    pub fn diff_rows(&self, other: &Self) -> Vec<usize> {
        assert_eq!(self.nrows, other.nrows, "diff_rows: row count mismatch");
        assert_eq!(self.ncols, other.ncols, "diff_rows: col count mismatch");
        (0..self.nrows)
            .filter(|&i| {
                let (sr, or) = (
                    self.indptr[i]..self.indptr[i + 1],
                    other.indptr[i]..other.indptr[i + 1],
                );
                self.indices[sr.clone()] != other.indices[or.clone()]
                    || !self.data[sr]
                        .iter()
                        .zip(&other.data[or])
                        .all(|(a, b)| a.value_bits() == b.value_bits())
            })
            .collect()
    }

    /// `y ← A·x`, serial, through the 4-wide unrolled row kernel — the
    /// reference every other way of computing the product is tested against
    /// ([`crate::KernelBackend::spmv`] is the one a solve calls: same bits,
    /// split across threads when that pays). `x`/`y` are always f64; stored
    /// values widen on load.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.ncols, "spmv: x length mismatch");
        assert_eq!(y.len(), self.nrows, "spmv: y length mismatch");
        self.spmv_rows(0..self.nrows, x, y);
    }

    /// Serial SpMV over a contiguous row range, writing `y[i - rows.start]`.
    /// The single row kernel under [`Csr::spmv`] and under every range the
    /// seam in `crate::backend` hands to a thread — sharing it is what makes
    /// the serial and the split product bit-identical.
    #[inline]
    pub(crate) fn spmv_rows(&self, rows: std::ops::Range<usize>, x: &[f64], y: &mut [f64]) {
        let base = rows.start;
        for i in rows {
            let cols = &self.indices[self.indptr[i]..self.indptr[i + 1]];
            let vals = &self.data[self.indptr[i]..self.indptr[i + 1]];
            y[i - base] = row_dot(cols, vals, x);
        }
    }

    /// Allocating SpMV.
    pub fn spmv_alloc(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.nrows];
        self.spmv(x, &mut y);
        y
    }

    /// `Y ← A·X` for a dense column block: `X` is a row-major `ncols×k`
    /// block, `Y` a row-major `nrows×k` block. One matrix traversal serves
    /// all `k` vectors — the memory-bandwidth win batched (multi-RHS)
    /// solving is built on: the CSR arrays stream through cache once
    /// instead of `k` times, and the `k` block entries of each gathered
    /// `X` row are contiguous.
    ///
    /// Column `c` of the result is *bit-identical* to
    /// `self.spmv(column c of X)`: the block row kernels keep exactly the
    /// 4-wide accumulator association of [`Csr::spmv`]'s row kernel per
    /// column. Serial, like [`Csr::spmv`], and the reference for
    /// [`crate::KernelBackend::spmm`] in the same way.
    ///
    /// # Panics
    /// Panics on dimension mismatch or `k == 0`.
    pub fn spmm(&self, x: &[f64], k: usize, y: &mut [f64]) {
        assert!(k > 0, "spmm: k must be positive");
        assert_eq!(x.len(), self.ncols * k, "spmm: x block size mismatch");
        assert_eq!(y.len(), self.nrows * k, "spmm: y block size mismatch");
        self.spmm_rows(0..self.nrows, x, k, y);
    }

    /// Serial SpMM over a contiguous row range, writing block row
    /// `i - rows.start` of `y`. The single block row kernel, shared the
    /// way [`Csr::spmv_rows`] is.
    #[inline]
    pub(crate) fn spmm_rows(
        &self,
        rows: std::ops::Range<usize>,
        x: &[f64],
        k: usize,
        y: &mut [f64],
    ) {
        let base = rows.start;
        for i in rows {
            let cols = &self.indices[self.indptr[i]..self.indptr[i + 1]];
            let vals = &self.data[self.indptr[i]..self.indptr[i + 1]];
            let yrow = &mut y[(i - base) * k..(i - base + 1) * k];
            let mut c = 0;
            while c + 8 <= k {
                row_dot_cols::<T, 8>(cols, vals, x, k, c, &mut yrow[c..c + 8]);
                c += 8;
            }
            while c + 4 <= k {
                row_dot_cols::<T, 4>(cols, vals, x, k, c, &mut yrow[c..c + 4]);
                c += 4;
            }
            while c + 2 <= k {
                row_dot_cols::<T, 2>(cols, vals, x, k, c, &mut yrow[c..c + 2]);
                c += 2;
            }
            while c < k {
                yrow[c] = row_dot_col(cols, vals, x, k, c);
                c += 1;
            }
        }
    }

    /// `y ← Aᵀ·x` (scatter form; serial).
    pub fn spmv_transpose(&self, x: &[f64], y: &mut [f64]) {
        assert_eq!(x.len(), self.nrows, "spmv_transpose: x length mismatch");
        assert_eq!(y.len(), self.ncols, "spmv_transpose: y length mismatch");
        y.iter_mut().for_each(|v| *v = 0.0);
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            for (&j, &v) in self.row_indices(i).iter().zip(self.row_values(i)) {
                y[j] += v.to_f64() * xi;
            }
        }
    }

    /// Explicit transpose (O(nnz + n)).
    pub fn transpose(&self) -> Csr<T> {
        let mut counts = vec![0usize; self.ncols + 1];
        for &j in &self.indices {
            counts[j + 1] += 1;
        }
        for j in 0..self.ncols {
            counts[j + 1] += counts[j];
        }
        let mut indices = vec![0usize; self.nnz()];
        let mut data = vec![T::ZERO; self.nnz()];
        let mut next = counts.clone();
        for i in 0..self.nrows {
            for (&j, &v) in self.row_indices(i).iter().zip(self.row_values(i)) {
                let slot = next[j];
                next[j] += 1;
                indices[slot] = i;
                data[slot] = v;
            }
        }
        // Rows were visited in increasing i, so each output row is sorted.
        Csr {
            nrows: self.ncols,
            ncols: self.nrows,
            indptr: counts,
            indices,
            data,
        }
    }

    /// Unweighted row degrees `deg(i) = |{j : a_ij ≠ 0}|` — the paper's
    /// graph-node feature.
    pub fn row_degrees(&self) -> Vec<usize> {
        (0..self.nrows)
            .map(|i| self.indptr[i + 1] - self.indptr[i])
            .collect()
    }
}

/// The f64-only analysis and conversion surface: the matrix features the
/// paper's `x_A` vector is built from, plus dense interop. These never run
/// on reduced-precision storage (convert with [`Csr::to_precision`] first
/// if you must).
impl Csr<f64> {
    /// Dense → CSR conversion (drops exact zeros).
    pub fn from_dense(a: &Mat) -> Self {
        let mut indptr = Vec::with_capacity(a.nrows() + 1);
        let mut indices = Vec::new();
        let mut data = Vec::new();
        indptr.push(0);
        for i in 0..a.nrows() {
            for (j, &v) in a.row(i).iter().enumerate() {
                if v != 0.0 {
                    indices.push(j);
                    data.push(v);
                }
            }
            indptr.push(indices.len());
        }
        Self {
            nrows: a.nrows(),
            ncols: a.ncols(),
            indptr,
            indices,
            data,
        }
    }

    /// CSR → dense conversion (for tests and small exact computations).
    pub fn to_dense(&self) -> Mat {
        let mut m = Mat::zeros(self.nrows, self.ncols);
        for i in 0..self.nrows {
            for (&j, &v) in self.row_indices(i).iter().zip(self.row_values(i)) {
                m.set(i, j, v);
            }
        }
        m
    }

    /// Main diagonal as a vector (zeros where absent).
    pub fn diag(&self) -> Vec<f64> {
        let n = self.nrows.min(self.ncols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        mcmcmi_dense::norm2(&self.data)
    }

    /// ∞-norm (max absolute row sum).
    pub fn norm_inf(&self) -> f64 {
        (0..self.nrows)
            .map(|i| self.row_values(i).iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// 1-norm (max absolute column sum).
    pub fn norm_1(&self) -> f64 {
        let mut colsum = vec![0.0f64; self.ncols];
        for (&j, &v) in self.indices.iter().zip(&self.data) {
            colsum[j] += v.abs();
        }
        colsum.into_iter().fold(0.0, f64::max)
    }

    /// Symmetricity score in [0, 1]: `1 − ‖A − Aᵀ‖_F / (2‖A‖_F)`;
    /// exactly 1 for symmetric matrices, and defined as 1 for the zero matrix.
    pub fn symmetry_score(&self) -> f64 {
        if self.nrows != self.ncols {
            return 0.0;
        }
        let nf = self.norm_fro();
        if nf == 0.0 {
            return 1.0;
        }
        let at = self.transpose();
        let mut diff2 = 0.0;
        for i in 0..self.nrows {
            let (ca, va) = (self.row_indices(i), self.row_values(i));
            let (cb, vb) = (at.row_indices(i), at.row_values(i));
            let (mut p, mut q) = (0, 0);
            while p < ca.len() || q < cb.len() {
                if q >= cb.len() || (p < ca.len() && ca[p] < cb[q]) {
                    diff2 += va[p] * va[p];
                    p += 1;
                } else if p >= ca.len() || cb[q] < ca[p] {
                    diff2 += vb[q] * vb[q];
                    q += 1;
                } else {
                    let d = va[p] - vb[q];
                    diff2 += d * d;
                    p += 1;
                    q += 1;
                }
            }
        }
        (1.0 - diff2.sqrt() / (2.0 * nf)).max(0.0)
    }

    /// Exact symmetry test (structure and values, up to `tol`).
    pub fn is_symmetric(&self, tol: f64) -> bool {
        if self.nrows != self.ncols {
            return false;
        }
        let at = self.transpose();
        for i in 0..self.nrows {
            let (ca, va) = (self.row_indices(i), self.row_values(i));
            let (cb, vb) = (at.row_indices(i), at.row_values(i));
            let (mut p, mut q) = (0, 0);
            while p < ca.len() || q < cb.len() {
                if q >= cb.len() || (p < ca.len() && ca[p] < cb[q]) {
                    if va[p].abs() > tol {
                        return false;
                    }
                    p += 1;
                } else if p >= ca.len() || cb[q] < ca[p] {
                    if vb[q].abs() > tol {
                        return false;
                    }
                    q += 1;
                } else {
                    if (va[p] - vb[q]).abs() > tol {
                        return false;
                    }
                    p += 1;
                    q += 1;
                }
            }
        }
        true
    }

    /// Diagonal-dominance ratio: mean over rows of
    /// `|a_ii| / Σ_{j≠i} |a_ij|` clamped to [0, 10] (10 ⇒ effectively
    /// dominant or off-diagonal-free row). One of the paper's cheap features.
    pub fn diag_dominance(&self) -> f64 {
        if self.nrows == 0 {
            return 0.0;
        }
        let mut acc = 0.0;
        for i in 0..self.nrows {
            let mut diag = 0.0;
            let mut off = 0.0;
            for (&j, &v) in self.row_indices(i).iter().zip(self.row_values(i)) {
                if j == i {
                    diag = v.abs();
                } else {
                    off += v.abs();
                }
            }
            acc += if off == 0.0 {
                10.0
            } else {
                (diag / off).min(10.0)
            };
        }
        acc / self.nrows as f64
    }
}

/// Partition the rows of a CSR row-pointer array (`indptr.len() ==
/// nrows + 1`) into at most `parts` contiguous ranges balanced by *non-zero
/// count* rather than row count. With skewed degree distributions (the
/// climate operator averages ~91 nnz/row against 5-point Laplacian rows)
/// row-count chunking leaves threads idle; this cuts at the row boundary
/// nearest each ideal nnz share — `parts` binary searches, ~0.1 µs, so the
/// matvec seam recomputes it per call. Takes the bare array so row-major
/// structures that are not a [`Csr`] (the MCMC walk matrix) share it.
pub fn nnz_balanced_ranges(indptr: &[usize], parts: usize) -> Vec<std::ops::Range<usize>> {
    let parts = parts.max(1);
    let n = indptr.len().saturating_sub(1);
    if n == 0 {
        return Vec::new();
    }
    let total = indptr[n];
    if parts == 1 || total == 0 {
        return std::iter::once(0..n).collect();
    }
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0usize;
    for p in 1..=parts {
        if start >= n {
            break;
        }
        let target = total * p / parts;
        // First row boundary whose cumulative nnz reaches the target
        // (indptr is the cumulative nnz array — binary search it).
        let mut end = match indptr[start + 1..=n].binary_search(&target) {
            Ok(k) => start + 1 + k,
            Err(k) => start + 1 + k,
        };
        if p == parts {
            end = n;
        }
        let end = end.clamp(start + 1, n);
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// The serial-or-parallel rule: split `work` multiply-adds (`nnz` for an
/// SpMV, `nnz·k` for an SpMM, expected transitions for a walk build) across
/// threads when there are at least [`par_threshold`] of them and the
/// current pool has a second thread.
#[inline]
pub fn par_pays_off(work: usize) -> bool {
    work >= par_threshold() && rayon::current_num_threads() > 1
}

// Hand-written serde impls: the vendored serde_derive rejects generic types,
// and these must keep the exact field layout the old derive produced so
// persisted matrices keep round-tripping.
impl<T: Scalar> Serialize for Csr<T> {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("nrows".to_string(), self.nrows.to_value()),
            ("ncols".to_string(), self.ncols.to_value()),
            ("indptr".to_string(), self.indptr.to_value()),
            ("indices".to_string(), self.indices.to_value()),
            ("data".to_string(), self.data.to_value()),
        ])
    }
}

impl<T: Scalar> Deserialize for Csr<T> {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        if !matches!(v, serde::Value::Object(_)) {
            return Err(serde::Error::type_mismatch("object", v));
        }
        let field = |name: &str| {
            v.get(name)
                .ok_or_else(|| serde::Error::missing_field("Csr", name))
        };
        Csr::try_from_raw(
            Deserialize::from_value(field("nrows")?)?,
            Deserialize::from_value(field("ncols")?)?,
            Deserialize::from_value(field("indptr")?)?,
            Deserialize::from_value(field("indices")?)?,
            Deserialize::from_value(field("data")?)?,
        )
        .map_err(serde::Error::custom)
    }
}

/// Parallel-dispatch work threshold of [`par_pays_off`], in multiply-adds
/// per traversal (`nnz` for SpMV, `nnz·k` for SpMM).
///
/// It is the one threshold that decides how a Krylov batch uses the pool,
/// by rows or by columns: a width-`k` product at or above it is split by
/// rows (in [`crate::KernelBackend`]); below it a batch of two or more
/// right-hand sides is split by columns instead, one group per thread
/// (`solve_columns` in `mcmcmi_krylov`).
///
/// Rationale: the serial kernel moves ~1 nnz/ns, and the rayon shim spawns
/// *fresh scoped threads per call* (no persistent pool), costing on the
/// order of 100 µs to fork/join a full complement of workers — so the
/// parallel path must have several hundred µs of serial work to amortise.
/// 2¹⁹ work units ≈ 0.5 ms serial. With a persistent-pool rayon (swapping
/// the shim for the real crate) this could drop by an order of magnitude:
/// re-decide the constant from a thread-scaling run, not a knob.
pub const DEFAULT_PAR_THRESHOLD: usize = 1 << 19;

/// Process-wide test override for [`par_threshold`]; `0` means none. One
/// relaxed load on the hot path.
static PAR_THRESHOLD_OVERRIDE: std::sync::atomic::AtomicUsize =
    std::sync::atomic::AtomicUsize::new(0);

/// The parallel-dispatch work threshold: [`DEFAULT_PAR_THRESHOLD`], unless a
/// test has installed an override ([`set_par_threshold_for_tests`]).
pub fn par_threshold() -> usize {
    match PAR_THRESHOLD_OVERRIDE.load(std::sync::atomic::Ordering::Relaxed) {
        0 => DEFAULT_PAR_THRESHOLD,
        t => t,
    }
}

/// **Test-only.** Override (or with `None`, clear) the parallel-dispatch
/// threshold for this process, so threshold-sensitive tests can force the
/// serial or parallel arm on a small operator; it cannot be
/// `#[cfg(test)]`-gated because downstream crates' test binaries compile
/// this crate with `cfg(test)` off. The override is process-wide and
/// visible to every thread; tests that set it must restore `None` (use a
/// drop guard) and serialize with other threshold-reading tests in the
/// same binary.
#[doc(hidden)]
pub fn set_par_threshold_for_tests(threshold: Option<usize>) {
    PAR_THRESHOLD_OVERRIDE.store(threshold.unwrap_or(0), std::sync::atomic::Ordering::Relaxed);
}

/// Serializes this crate's unit tests that read or install the
/// process-wide threshold override, so they cannot observe each other's
/// state (unit tests share one process and run on parallel threads).
#[cfg(test)]
pub(crate) static THRESHOLD_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// 4-wide unrolled sparse dot of one CSR row against a dense f64 vector.
///
/// Four independent accumulators break the serial floating-point dependence
/// chain so the gather pipeline stays full on wide rows (the climate
/// operator averages ~91 nnz/row). The combination order of the
/// accumulators is fixed, so the kernel is deterministic call-to-call; it
/// is, however, a different (equally valid) association than a naive
/// left-to-right loop — which is exactly why every SpMV entry point shares
/// this one kernel. Stored values widen to f64 on load (`Scalar::to_f64`,
/// the identity for f64), so accumulation precision never depends on the
/// storage scalar.
#[inline]
fn row_dot<T: Scalar>(cols: &[usize], vals: &[T], x: &[f64]) -> f64 {
    let split = cols.len() & !3;
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (c, v) in cols[..split]
        .chunks_exact(4)
        .zip(vals[..split].chunks_exact(4))
    {
        a0 += v[0].to_f64() * x[c[0]];
        a1 += v[1].to_f64() * x[c[1]];
        a2 += v[2].to_f64() * x[c[2]];
        a3 += v[3].to_f64() * x[c[3]];
    }
    let mut s = (a0 + a1) + (a2 + a3);
    for (&j, &v) in cols[split..].iter().zip(&vals[split..]) {
        s += v.to_f64() * x[j];
    }
    s
}

/// Strided single-column variant of [`row_dot`]: dot of one CSR row against
/// column `c` of a row-major `·×k` block. Performs exactly [`row_dot`]'s
/// operations in exactly its order (4 lane accumulators combined as
/// `(a0+a1)+(a2+a3)`, then the in-order remainder), so the result is
/// bit-identical to `row_dot` on the extracted column.
#[inline]
fn row_dot_col<T: Scalar>(cols: &[usize], vals: &[T], x: &[f64], k: usize, c: usize) -> f64 {
    let split = cols.len() & !3;
    let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
    for (cc, v) in cols[..split]
        .chunks_exact(4)
        .zip(vals[..split].chunks_exact(4))
    {
        a0 += v[0].to_f64() * x[cc[0] * k + c];
        a1 += v[1].to_f64() * x[cc[1] * k + c];
        a2 += v[2].to_f64() * x[cc[2] * k + c];
        a3 += v[3].to_f64() * x[cc[3] * k + c];
    }
    let mut s = (a0 + a1) + (a2 + a3);
    for (&j, &v) in cols[split..].iter().zip(&vals[split..]) {
        s += v.to_f64() * x[j * k + c];
    }
    s
}

/// `W`-column block row kernel: computes columns `c..c+W` of one output
/// block row in a single pass over the row's non-zeros. Each gathered
/// block row contributes `W` *contiguous* `x` entries
/// (`x[j·k+c..j·k+c+W]`), so the gather bandwidth of the sparse indices is
/// shared by `W` outputs — at `W = 8` a full 64-byte cache line per
/// gather, versus 8 of 64 bytes used by a scalar SpMV gather. Per column,
/// the accumulator association is exactly [`row_dot`]'s (4 lane
/// accumulators combined `(a0+a1)+(a2+a3)`, in-order remainder), keeping
/// every column bit-identical to a plain SpMV. `W` is a const generic so
/// the column loops fully unroll; [`Csr::spmm_rows`] instantiates 8, 4,
/// and 2.
#[inline]
fn row_dot_cols<T: Scalar, const W: usize>(
    cols: &[usize],
    vals: &[T],
    x: &[f64],
    k: usize,
    c: usize,
    out: &mut [f64],
) {
    debug_assert_eq!(out.len(), W);
    let split = cols.len() & !3;
    // acc[lane][col]: lane = position within the 4-wide nnz chunk.
    let mut acc = [[0.0f64; W]; 4];
    for (cc, v) in cols[..split]
        .chunks_exact(4)
        .zip(vals[..split].chunks_exact(4))
    {
        for lane in 0..4 {
            let xr = &x[cc[lane] * k + c..cc[lane] * k + c + W];
            let vl = v[lane].to_f64();
            for t in 0..W {
                acc[lane][t] += vl * xr[t];
            }
        }
    }
    for (col, o) in out.iter_mut().enumerate() {
        let mut s = (acc[0][col] + acc[1][col]) + (acc[2][col] + acc[3][col]);
        for (&j, &v) in cols[split..].iter().zip(&vals[split..]) {
            s += v.to_f64() * x[j * k + c + col];
        }
        *o = s;
    }
}

impl<T: Scalar> LinearOp for Csr<T> {
    fn nrows(&self) -> usize {
        self.nrows
    }
    fn ncols(&self) -> usize {
        self.ncols
    }
    fn apply(&self, x: &[f64], y: &mut [f64]) {
        self.spmv(x, y);
    }
    fn apply_transpose(&self, x: &[f64], y: &mut [f64]) {
        self.spmv_transpose(x, y);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    fn sample() -> Csr {
        // [[1, 0, 2],
        //  [0, 3, 0],
        //  [4, 0, 5]]
        let mut coo = Coo::new(3, 3);
        for &(i, j, v) in &[
            (0, 0, 1.0),
            (0, 2, 2.0),
            (1, 1, 3.0),
            (2, 0, 4.0),
            (2, 2, 5.0),
        ] {
            coo.push(i, j, v);
        }
        coo.to_csr()
    }

    #[test]
    fn check_invariants_is_total_on_hostile_arrays() {
        // Each of these used to index out of range instead of returning Err.
        let past_the_end = Csr::try_from_raw(2, 2, vec![0, 100, 2], vec![0, 1], vec![1.0, 1.0]);
        assert!(past_the_end.unwrap_err().contains("past the end"));
        let wrapping = Csr::<f64>::try_from_raw(usize::MAX, 2, vec![], vec![], vec![]);
        assert!(wrapping.unwrap_err().contains("out of range"));
        let wrong_len = Csr::try_from_raw(3, 3, vec![0, 1, 1], vec![0], vec![1.0]);
        assert_eq!(wrong_len.unwrap_err(), "indptr length 3 != nrows+1 4");
        // The same arrays through the deserialiser: Err, not a panic.
        for json in [
            r#"{"nrows":2,"ncols":2,"indptr":[0,100,2],"indices":[0,1],"data":[1.0,1.0]}"#,
            r#"{"nrows":18446744073709551615,"ncols":2,"indptr":[],"indices":[],"data":[]}"#,
        ] {
            assert!(serde_json::from_str::<Csr>(json).is_err(), "{json}");
        }
        assert!(sample().check_invariants().is_ok());
    }

    #[test]
    fn diff_rows_flags_value_pattern_and_nothing_else() {
        let a = sample();
        assert!(a.diff_rows(&a).is_empty(), "identical matrices are clean");
        // Value change in row 1.
        let mut b = a.clone();
        b.row_values_mut(1)[0] += 1e-12;
        assert_eq!(a.diff_rows(&b), vec![1]);
        // Pattern change in row 0 (extra entry shifts later rows' ranges
        // but not their contents — only row 0 is dirty).
        let mut coo = Coo::new(3, 3);
        for &(i, j, v) in &[
            (0, 0, 1.0),
            (0, 1, 9.0),
            (0, 2, 2.0),
            (1, 1, 3.0),
            (2, 0, 4.0),
            (2, 2, 5.0),
        ] {
            coo.push(i, j, v);
        }
        let c = coo.to_csr();
        assert_eq!(a.diff_rows(&c), vec![0]);
    }

    #[test]
    fn spmv_matches_dense() {
        let a = sample();
        let x = [1.0, 2.0, 3.0];
        let dense = a.to_dense();
        assert_eq!(a.spmv_alloc(&x), dense.matvec_alloc(&x));
    }

    /// A matrix with a deliberately skewed degree distribution: a few dense
    /// rows up front, sparse diagonal rows after — the case nnz-balanced
    /// partitioning exists for.
    fn skewed(n: usize, heavy: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0 + i as f64 * 0.01);
            if i < heavy {
                for j in 0..n {
                    if j != i {
                        coo.push(i, j, ((i * 31 + j * 7) % 13) as f64 * 0.1 - 0.6);
                    }
                }
            } else if i > 0 {
                coo.push(i, i - 1, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn nnz_balanced_ranges_cover_rows_exactly_and_balance_work() {
        let a = skewed(200, 8);
        for parts in [1usize, 2, 3, 7, 16] {
            let ranges = nnz_balanced_ranges(a.indptr(), parts);
            assert!(!ranges.is_empty() && ranges.len() <= parts);
            // Exact disjoint cover in order.
            let mut next = 0usize;
            for r in &ranges {
                assert_eq!(r.start, next);
                assert!(r.end > r.start);
                next = r.end;
            }
            assert_eq!(next, a.nrows());
            // No chunk may exceed the ideal share by more than one row's
            // worth of nnz (the greedy cut lands within one row boundary).
            let max_row_nnz = a.row_degrees().into_iter().max().unwrap();
            let ideal = a.nnz().div_ceil(parts);
            for r in &ranges {
                let chunk_nnz: usize = (r.start..r.end)
                    .map(|i| a.indptr()[i + 1] - a.indptr()[i])
                    .sum();
                assert!(
                    chunk_nnz <= ideal + max_row_nnz,
                    "parts={parts} range {r:?}: {chunk_nnz} nnz vs ideal {ideal}"
                );
            }
        }
    }

    #[test]
    fn unrolled_row_dot_matches_reference_on_all_lengths() {
        // Exercise remainder lanes 0..=3 and the unrolled body.
        for len in 0..23usize {
            let cols: Vec<usize> = (0..len).collect();
            let vals: Vec<f64> = (0..len).map(|i| (i as f64 * 0.7).cos()).collect();
            let x: Vec<f64> = (0..len.max(1)).map(|i| 1.0 / (1.0 + i as f64)).collect();
            let reference: f64 = cols.iter().zip(&vals).map(|(&j, &v)| v * x[j]).sum();
            let got = super::row_dot(&cols, &vals, &x);
            assert!(
                (got - reference).abs() < 1e-12 * (1.0 + reference.abs()),
                "len {len}"
            );
        }
    }

    #[test]
    fn f32_storage_spmv_tracks_f64_within_single_rounding() {
        // Demoted storage, f64 accumulation: the result must match the f64
        // SpMV run on the *demoted-then-promoted* values exactly (the only
        // rounding is the one demotion per entry), and track the original
        // to f32 relative accuracy.
        let a = skewed(120, 6);
        let a32: Csr<f32> = a.to_precision();
        let roundtrip: Csr<f64> = a32.to_precision();
        let x: Vec<f64> = (0..120).map(|i| (i as f64 * 0.83).sin()).collect();
        let y64 = a.spmv_alloc(&x);
        let y32 = a32.spmv_alloc(&x);
        let yrt = roundtrip.spmv_alloc(&x);
        assert_eq!(
            y32, yrt,
            "f32 kernel must equal f64 kernel on widened values"
        );
        for (p, q) in y32.iter().zip(&y64) {
            assert!((p - q).abs() <= 1e-5 * (1.0 + q.abs()), "{p} vs {q}");
        }
        // Same contract for SpMM, every column.
        let k = 5usize;
        let xb: Vec<f64> = (0..120 * k).map(|t| (t as f64 * 0.017).cos()).collect();
        let mut b32 = vec![0.0; 120 * k];
        a32.spmm(&xb, k, &mut b32);
        let mut brt = vec![0.0; 120 * k];
        roundtrip.spmm(&xb, k, &mut brt);
        assert_eq!(b32, brt);
    }

    #[test]
    fn to_precision_f64_roundtrip_is_exact() {
        let a = sample();
        let same: Csr<f64> = a.to_precision();
        assert_eq!(same, a);
        // f32 → f64 promotion is exact too (every f32 is an f64).
        let a32: Csr<f32> = a.to_precision();
        let back: Csr<f64> = a32.to_precision();
        let again: Csr<f32> = back.to_precision();
        assert_eq!(a32, again);
        assert_eq!(a32.value_bytes() * 2, back.value_bytes());
    }

    /// Pack `k` column vectors into a row-major `n×k` block.
    fn pack_block(cols: &[Vec<f64>]) -> Vec<f64> {
        let k = cols.len();
        let n = cols[0].len();
        let mut block = vec![0.0; n * k];
        for (c, col) in cols.iter().enumerate() {
            for (i, &v) in col.iter().enumerate() {
                block[i * k + c] = v;
            }
        }
        block
    }

    #[test]
    fn spmm_bit_identical_to_k_spmvs() {
        // Cover the 4-wide column kernel, the strided remainder columns
        // (k mod 4 ∈ {0,1,2,3}), and rows of every remainder length.
        let a = skewed(120, 6);
        let n = a.nrows();
        for k in [1usize, 2, 3, 4, 5, 7, 8, 11] {
            let xs: Vec<Vec<f64>> = (0..k)
                .map(|c| {
                    (0..n)
                        .map(|i| ((i * 13 + c * 101) as f64 * 0.071).sin() * 2.0)
                        .collect()
                })
                .collect();
            let xb = pack_block(&xs);
            let mut yb = vec![0.0; n * k];
            a.spmm(&xb, k, &mut yb);
            for (c, x) in xs.iter().enumerate() {
                let y = a.spmv_alloc(x);
                for i in 0..n {
                    assert_eq!(yb[i * k + c], y[i], "k={k} col={c} row={i}");
                }
            }
        }
    }

    #[test]
    fn spmm_matches_dense_matmul_on_rectangular_matrix() {
        // Rectangular: 3×4 times a 4×2 block.
        let mut coo = Coo::new(3, 4);
        for &(i, j, v) in &[
            (0usize, 0usize, 1.0f64),
            (0, 3, -2.0),
            (1, 1, 3.0),
            (2, 0, 4.0),
            (2, 2, 0.5),
        ] {
            coo.push(i, j, v);
        }
        let a = coo.to_csr();
        let x = [1.0, -1.0, 2.0, 0.5, 0.0, 3.0, 1.5, -2.0]; // 4×2 row-major
        let mut y = [0.0; 6];
        a.spmm(&x, 2, &mut y);
        // Row 0: 1·x[0,:] − 2·x[3,:]; row 1: 3·x[1,:]; row 2: 4·x[0,:] + 0.5·x[2,:]
        let expect = [
            1.0 - 2.0 * 1.5,
            -1.0 - 2.0 * -2.0,
            3.0 * 2.0,
            3.0 * 0.5,
            4.0 * 1.0 + 0.5 * 0.0,
            -4.0 + 0.5 * 3.0,
        ];
        for (got, want) in y.iter().zip(&expect) {
            assert!((got - want).abs() < 1e-14, "{got} vs {want}");
        }
    }

    #[test]
    fn spmm_k1_equals_spmv() {
        let a = sample();
        let x = [0.3, -1.2, 2.5];
        let mut y = vec![0.0; 3];
        a.spmm(&x, 1, &mut y);
        assert_eq!(y, a.spmv_alloc(&x));
    }

    #[test]
    fn par_threshold_override_takes_effect_and_clears() {
        let _guard = THRESHOLD_TEST_LOCK.lock().unwrap();
        assert_eq!(par_threshold(), DEFAULT_PAR_THRESHOLD);
        struct Restore;
        impl Drop for Restore {
            fn drop(&mut self) {
                set_par_threshold_for_tests(None);
            }
        }
        let _restore = Restore;
        set_par_threshold_for_tests(Some(1));
        assert_eq!(par_threshold(), 1);
        // With a 1-work-unit threshold even a tiny matrix elects the
        // parallel arm (given >1 thread) — the property threshold-sensitive
        // tests rely on — and stays bit-identical to serial.
        let a = skewed(40, 3);
        let x: Vec<f64> = (0..40).map(|i| (i as f64 * 0.51).sin()).collect();
        let reference = a.spmv_alloc(&x);
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(4)
            .build()
            .unwrap();
        assert!(pool.install(|| par_pays_off(a.nnz())));
        let mut y = vec![0.0; 40];
        pool.install(|| crate::KernelBackend::spmv(&a, &x, &mut y));
        assert_eq!(y, reference);
        set_par_threshold_for_tests(None);
        assert_eq!(
            par_threshold(),
            DEFAULT_PAR_THRESHOLD,
            "override must clear"
        );
    }

    #[test]
    fn transpose_roundtrip() {
        let a = sample();
        assert_eq!(a.transpose().transpose(), a);
        let a32: Csr<f32> = a.to_precision();
        assert_eq!(a32.transpose().transpose(), a32);
    }

    #[test]
    fn spmv_transpose_matches_explicit() {
        let a = sample();
        let x = [1.0, -2.0, 0.5];
        let mut y = vec![0.0; 3];
        a.spmv_transpose(&x, &mut y);
        assert_eq!(y, a.transpose().spmv_alloc(&x));
    }

    #[test]
    fn dense_roundtrip() {
        let a = sample();
        assert_eq!(Csr::from_dense(&a.to_dense()), a);
    }

    #[test]
    fn norms_match_dense_reference() {
        let a = sample();
        // 1-norm: max col abs-sum = max(5, 3, 7) = 7; inf: max row = 9.
        assert!((a.norm_1() - 7.0).abs() < 1e-15);
        assert!((a.norm_inf() - 9.0).abs() < 1e-15);
        let f: f64 = (1.0 + 4.0 + 9.0 + 16.0 + 25.0f64).sqrt();
        assert!((a.norm_fro() - f).abs() < 1e-12);
    }

    #[test]
    fn symmetry_detection() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 1, 2.0);
        coo.push(1, 0, 2.0);
        coo.push(0, 0, 1.0);
        let s = coo.to_csr();
        assert!(s.is_symmetric(0.0));
        assert!((s.symmetry_score() - 1.0).abs() < 1e-15);

        let a = sample();
        assert!(!a.is_symmetric(1e-12));
        assert!(a.symmetry_score() < 1.0);
    }

    #[test]
    fn diag_and_density() {
        let a = sample();
        assert_eq!(a.diag(), vec![1.0, 3.0, 5.0]);
        assert!((a.density() - 5.0 / 9.0).abs() < 1e-15);
    }

    #[test]
    fn degrees() {
        let a = sample();
        assert_eq!(a.row_degrees(), vec![2, 1, 2]);
    }

    #[test]
    fn diag_dominance_of_identity_is_capped() {
        let a = Csr::from_dense(&Mat::eye(4));
        assert!((a.diag_dominance() - 10.0).abs() < 1e-15);
    }

    #[test]
    fn invariant_checker_rejects_bad_indptr() {
        let r = std::panic::catch_unwind(|| {
            Csr::from_raw(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0])
        });
        assert!(r.is_err());
    }

    #[test]
    fn invariant_checker_rejects_unsorted_columns() {
        let r = std::panic::catch_unwind(|| {
            Csr::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0])
        });
        assert!(r.is_err());
    }

    #[test]
    fn get_missing_entry_is_zero() {
        let a = sample();
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.get(1, 0), 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let a = sample();
        let s = serde_json::to_string(&a).unwrap();
        let b: Csr = serde_json::from_str(&s).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn serde_roundtrip_f32_is_bit_exact() {
        // f32 values promote exactly to JSON's f64 and round back to the
        // same bits, so reduced-precision matrices persist losslessly.
        let a32: Csr<f32> = skewed(20, 2).to_precision();
        let s = serde_json::to_string(&a32).unwrap();
        let b32: Csr<f32> = serde_json::from_str(&s).unwrap();
        assert_eq!(a32, b32);
    }

    #[test]
    fn serde_rejects_corrupt_csr() {
        // The hand-written impl validates invariants on the way in.
        let bad = r#"{"nrows":2,"ncols":2,"indptr":[0,2,1],"indices":[0,1],"data":[1.0,2.0]}"#;
        assert!(serde_json::from_str::<Csr>(bad).is_err());
    }
}
