//! Sparsity-structure detection for CSR operators.
//!
//! The paper's Table-1 operators are overwhelmingly *stencils* (finite
//! difference Laplacians, advection–diffusion) and *bands* (climate rows
//! coupling a fixed halo of neighbours). General CSR kernels pay an 8-byte
//! column-index load per stored entry to rediscover, on every traversal,
//! structure that is a property of the matrix — [`detect_structure`]
//! recovers that structure once so the specialized kernels in
//! [`crate::backend`] can skip the index stream entirely.
//!
//! Detection is strict by design: a classification is only returned when
//! *every* row conforms, so the specialized kernels never need a per-row
//! fallback and a single perturbed entry demotes the whole matrix to
//! [`Structure::General`]. The pass is `O(nnz)` with an early bail once the
//! distinct-pattern budget ([`MAX_STENCIL_PATTERNS`]) is exhausted, so
//! running it at session build time on an unstructured operator (an MCMC
//! approximate inverse, say) costs a few hundred rows of scanning, not a
//! full traversal.

use crate::csr::Csr;
use crate::scalar::Scalar;
use std::collections::HashMap;

/// Budget of distinct per-row offset patterns before stencil detection
/// gives up. Real stencil operators need a handful (interior pattern plus
/// boundary clippings — a 2-D 5-point Laplacian has 9); unstructured
/// matrices blow through the budget within a few hundred rows and bail
/// early. 256 leaves generous room for wide stencils with deep boundary
/// layers while keeping the pattern table L1-resident at apply time.
pub const MAX_STENCIL_PATTERNS: usize = 256;

/// The detected sparsity structure of a [`Csr`] matrix — the dispatch key
/// for [`crate::backend::SpecializedBackend`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Structure {
    /// Every row `i` stores *exactly* the contiguous dense band
    /// `max(i−lower, 0) ..= min(i+upper, ncols−1)` — no interior gaps, no
    /// missing edge entries beyond the matrix-bound clipping. Kernels index
    /// `x` by a contiguous window: no column loads, unit-stride gathers.
    Banded {
        /// Sub-diagonal half-bandwidth.
        lower: usize,
        /// Super-diagonal half-bandwidth.
        upper: usize,
    },
    /// Every row's column set is `i + offsets` for one of a small table of
    /// offset patterns, each a subset of the modal (interior) pattern.
    /// Kernels compute columns from the L1-resident table instead of
    /// streaming the 8-byte-per-nnz index array.
    Stencil(StencilMap),
    /// No exploitable structure — generic CSR kernels.
    General,
}

impl Structure {
    /// Kernel-family label (matches
    /// [`crate::backend::KernelBackend::kernel_name`]).
    pub fn kernel_name(&self) -> &'static str {
        match self {
            Structure::Banded { .. } => "banded",
            Structure::Stencil(_) => "stencil",
            Structure::General => "generic-csr",
        }
    }

    /// Is there a specialized kernel for this structure?
    pub fn is_specialized(&self) -> bool {
        !matches!(self, Structure::General)
    }

    /// `(lower, upper)` half-bandwidths when banded.
    pub fn band_widths(&self) -> Option<(usize, usize)> {
        match self {
            Structure::Banded { lower, upper } => Some((*lower, *upper)),
            _ => None,
        }
    }

    /// The modal (interior) offset pattern when a stencil.
    pub fn stencil_offsets(&self) -> Option<&[i64]> {
        match self {
            Structure::Stencil(map) => Some(map.mode_offsets()),
            _ => None,
        }
    }
}

/// The per-row offset table backing [`Structure::Stencil`]: a flattened
/// pattern pool (`pat_ptr`/`pat_offsets`, CSR-style) plus one pattern id
/// per row. Total apply-time footprint: 4 bytes/row + the pattern pool
/// (≤ [`MAX_STENCIL_PATTERNS`] small offset lists) versus the 8 bytes/nnz
/// index array the generic kernel streams.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StencilMap {
    pat_ptr: Vec<usize>,
    pat_offsets: Vec<i64>,
    row_pattern: Vec<u32>,
    mode: u32,
}

impl StencilMap {
    /// Number of distinct patterns.
    #[cfg(test)]
    fn num_patterns(&self) -> usize {
        self.pat_ptr.len() - 1
    }

    /// Offsets of pattern `p` (sorted ascending).
    #[inline]
    pub fn offsets_of(&self, p: usize) -> &[i64] {
        &self.pat_offsets[self.pat_ptr[p]..self.pat_ptr[p + 1]]
    }

    /// Pattern id of row `i` (index into the pattern pool). Kernels use
    /// this to batch maximal runs of equal-pattern rows, hoisting the
    /// offset table out of the row loop — on structured grids the whole
    /// interior is one run.
    #[inline]
    pub fn pattern_id(&self, i: usize) -> usize {
        self.row_pattern[i] as usize
    }

    /// The modal (most common — interior) pattern's offsets.
    pub fn mode_offsets(&self) -> &[i64] {
        self.offsets_of(self.mode as usize)
    }

    /// Fraction of rows carrying the modal pattern.
    pub fn mode_coverage(&self) -> f64 {
        if self.row_pattern.is_empty() {
            return 0.0;
        }
        let hits = self.row_pattern.iter().filter(|&&p| p == self.mode).count();
        hits as f64 / self.row_pattern.len() as f64
    }
}

/// Classify the sparsity structure of `a`.
///
/// Precedence: [`Structure::Banded`] (the stronger claim — contiguous
/// columns, so kernels need no offset table at all), then
/// [`Structure::Stencil`], else [`Structure::General`]. Empty matrices and
/// matrices with empty rows are `General` for banded purposes (a dense band
/// always stores ≥ 1 entry per row).
///
/// Stencil acceptance rules (all strict, see module docs):
/// - at most [`MAX_STENCIL_PATTERNS`] distinct per-row offset patterns
///   (first-seen order; unstructured matrices bail here early);
/// - the modal pattern covers at least half the rows;
/// - every pattern is a subset of the modal pattern — boundary rows are
///   clipped interiors (the 2-D Laplacian's corners), while a row with an
///   offset *outside* the interior pattern (one perturbed entry) rejects
///   the whole matrix.
pub fn detect_structure<T: Scalar>(a: &Csr<T>) -> Structure {
    if a.nrows() == 0 || a.nnz() == 0 {
        return Structure::General;
    }
    if let Some(s) = detect_banded(a) {
        return s;
    }
    if let Some(s) = detect_stencil(a) {
        return s;
    }
    Structure::General
}

/// Banded check: one pass to find the maximal half-bandwidths, one pass to
/// verify every row stores exactly its clipped dense band.
fn detect_banded<T: Scalar>(a: &Csr<T>) -> Option<Structure> {
    let n = a.nrows();
    let ncols = a.ncols();
    let mut lower = 0usize;
    let mut upper = 0usize;
    for i in 0..n {
        let cols = a.row_indices(i);
        let (&first, &last) = match (cols.first(), cols.last()) {
            (Some(f), Some(l)) => (f, l),
            _ => return None, // empty row: a dense band always stores ≥ 1
        };
        lower = lower.max(i.saturating_sub(first));
        upper = upper.max(last.saturating_sub(i));
    }
    for i in 0..n {
        let cols = a.row_indices(i);
        let first = i.saturating_sub(lower);
        let last = (i + upper).min(ncols - 1);
        if first > last
            || cols[0] != first
            || *cols.last().unwrap() != last
            || cols.len() != last - first + 1
        {
            return None;
        }
    }
    Some(Structure::Banded { lower, upper })
}

/// Stencil check; see [`detect_structure`] for the acceptance rules.
fn detect_stencil<T: Scalar>(a: &Csr<T>) -> Option<Structure> {
    let n = a.nrows();
    let mut ids: HashMap<Vec<i64>, u32> = HashMap::new();
    let mut patterns: Vec<Vec<i64>> = Vec::new();
    let mut counts: Vec<usize> = Vec::new();
    let mut row_pattern: Vec<u32> = Vec::with_capacity(n);
    for i in 0..n {
        let offs: Vec<i64> = a
            .row_indices(i)
            .iter()
            .map(|&j| j as i64 - i as i64)
            .collect();
        let id = match ids.get(&offs) {
            Some(&id) => id,
            None => {
                if patterns.len() >= MAX_STENCIL_PATTERNS {
                    return None; // early bail: unstructured
                }
                let id = patterns.len() as u32;
                ids.insert(offs.clone(), id);
                patterns.push(offs);
                counts.push(0);
                id
            }
        };
        counts[id as usize] += 1;
        row_pattern.push(id);
    }
    // Modal pattern; first maximum wins, so the id is deterministic.
    let mut mode = 0usize;
    for (p, &c) in counts.iter().enumerate() {
        if c > counts[mode] {
            mode = p;
        }
    }
    if counts[mode] * 2 < n {
        return None; // the "interior" pattern must dominate
    }
    let base = patterns[mode].clone();
    if patterns.iter().any(|p| !is_subset_sorted(p, &base)) {
        return None; // some row reaches outside the interior pattern
    }
    let mut pat_ptr = Vec::with_capacity(patterns.len() + 1);
    pat_ptr.push(0usize);
    let mut pat_offsets = Vec::new();
    for p in &patterns {
        pat_offsets.extend_from_slice(p);
        pat_ptr.push(pat_offsets.len());
    }
    Some(Structure::Stencil(StencilMap {
        pat_ptr,
        pat_offsets,
        row_pattern,
        mode: mode as u32,
    }))
}

/// Is sorted-ascending `sub` a subset of sorted-ascending `sup`?
fn is_subset_sorted(sub: &[i64], sup: &[i64]) -> bool {
    let mut q = 0usize;
    for &v in sub {
        while q < sup.len() && sup[q] < v {
            q += 1;
        }
        if q >= sup.len() || sup[q] != v {
            return false;
        }
        q += 1;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coo::Coo;

    /// Dense band with half-bandwidths (lower, upper), n×n.
    fn band_matrix(n: usize, lower: usize, upper: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            let first = i.saturating_sub(lower);
            let last = (i + upper).min(n - 1);
            for j in first..=last {
                let v = if i == j {
                    4.0
                } else {
                    -1.0 / (1 + i.abs_diff(j)) as f64
                };
                coo.push(i, j, v);
            }
        }
        coo.to_csr()
    }

    /// 1-D grid with a non-contiguous 3-point stencil {−s, 0, +s}, s ≥ 2.
    fn spread_stencil(n: usize, s: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.5);
            if i >= s {
                coo.push(i, i - s, -1.0);
            }
            if i + s < n {
                coo.push(i, i + s, -1.0);
            }
        }
        coo.to_csr()
    }

    #[test]
    fn tridiagonal_is_banded() {
        let a = band_matrix(50, 1, 1);
        assert_eq!(
            detect_structure(&a),
            Structure::Banded { lower: 1, upper: 1 }
        );
    }

    #[test]
    fn asymmetric_band_widths_recovered() {
        let a = band_matrix(64, 3, 7);
        assert_eq!(
            detect_structure(&a).band_widths(),
            Some((3, 7)),
            "clipped edges must not shrink the detected band"
        );
    }

    #[test]
    fn diagonal_matrix_is_banded_zero_zero() {
        let a = crate::ops::csr_eye(10);
        assert_eq!(
            detect_structure(&a),
            Structure::Banded { lower: 0, upper: 0 }
        );
    }

    #[test]
    fn band_with_interior_gap_is_not_banded() {
        // Remove one interior entry: still a valid stencil superset-wise?
        // No — the hole makes that row's offsets a non-subset-breaking
        // *subset*, but the modal pattern only covers the unbroken rows, so
        // banded fails and stencil may or may not absorb it. Use a matrix
        // where the gap row is the mode-breaking minority.
        let a = band_matrix(40, 2, 2);
        let mut coo = Coo::new(40, 40);
        for (i, j, v) in a.triplets() {
            if i == 20 && j == 19 {
                continue; // punch a hole inside row 20's band
            }
            coo.push(i, j, v);
        }
        let s = detect_structure(&coo.to_csr());
        assert_ne!(s.kernel_name(), "banded");
        // The holed row is a subset of the interior pattern, so stencil
        // legitimately absorbs it — what matters is banded rejected it.
        assert!(matches!(s, Structure::Stencil(_)));
    }

    #[test]
    fn spread_stencil_detected_with_mode_offsets() {
        let a = spread_stencil(100, 5);
        let s = detect_structure(&a);
        assert_eq!(s.stencil_offsets(), Some(&[-5, 0, 5][..]));
        if let Structure::Stencil(map) = &s {
            assert_eq!(map.num_patterns(), 3); // interior + two boundary clips
            assert!(map.mode_coverage() >= 0.5);
        } else {
            panic!("expected stencil");
        }
    }

    #[test]
    fn perturbed_offset_outside_mode_demotes_to_general() {
        let a = spread_stencil(100, 5);
        let mut coo = Coo::new(100, 100);
        for (i, j, v) in a.triplets() {
            coo.push(i, j, v);
        }
        coo.push(40, 97, 0.125); // one far coupling outside {−5, 0, 5}
        assert_eq!(detect_structure(&coo.to_csr()), Structure::General);
    }

    #[test]
    fn scattered_pattern_is_general() {
        // Pseudo-random pattern: rows have unrelated offsets, so the
        // pattern budget blows and detection bails to General.
        let n = 600;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 3.0);
            let j1 = (i * 7919 + 13) % n;
            let j2 = (i * 104729 + 57) % n;
            if j1 != i {
                coo.push(i, j1, -0.1);
            }
            if j2 != i && j2 != j1 {
                coo.push(i, j2, -0.2);
            }
        }
        assert_eq!(detect_structure(&coo.to_csr()), Structure::General);
    }

    #[test]
    fn empty_and_zero_row_matrices_are_general() {
        assert_eq!(
            detect_structure(&Coo::new(0, 0).to_csr()),
            Structure::General
        );
        // A matrix with an empty row can still be a stencil (empty ⊆ mode)
        // but never banded.
        let mut coo = Coo::new(4, 4);
        coo.push(0, 0, 1.0);
        coo.push(1, 1, 1.0);
        coo.push(3, 3, 1.0);
        let s = detect_structure(&coo.to_csr());
        assert_ne!(s.kernel_name(), "banded");
    }

    #[test]
    fn detection_is_pattern_only_not_value_dependent() {
        let a = band_matrix(30, 2, 2);
        let a32: Csr<f32> = a.to_precision();
        assert_eq!(detect_structure(&a), detect_structure(&a32));
    }
}
