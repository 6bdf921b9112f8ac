//! Coordinate-format (triplet) sparse matrix, used for assembly.

use crate::csr::Csr;

/// A coordinate-format sparse matrix builder.
///
/// Entries may be pushed in any order; duplicates are summed when converting
/// to CSR (the finite-element assembly convention the generators rely on).
#[derive(Clone, Debug, Default)]
pub struct Coo {
    nrows: usize,
    ncols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl Coo {
    /// Empty builder of the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Self {
        Self {
            nrows,
            ncols,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Empty builder with capacity for `cap` entries.
    pub fn with_capacity(nrows: usize, ncols: usize, cap: usize) -> Self {
        Self {
            nrows,
            ncols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Add `v` at `(i, j)`. Zero values are kept (they may cancel duplicates
    /// or be structurally meaningful); exact-zero results are dropped at CSR
    /// conversion time.
    ///
    /// # Panics
    /// Panics if the indices are out of bounds.
    pub fn push(&mut self, i: usize, j: usize, v: f64) {
        assert!(
            i < self.nrows && j < self.ncols,
            "Coo::push: index out of bounds"
        );
        self.rows.push(i);
        self.cols.push(j);
        self.vals.push(v);
    }

    /// Iterate stored triplets.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows
            .iter()
            .zip(&self.cols)
            .zip(&self.vals)
            .map(|((&i, &j), &v)| (i, j, v))
    }

    /// Convert to CSR, summing duplicate entries and dropping exact zeros.
    pub fn to_csr(&self) -> Csr {
        let n = self.nrows;
        // Counting sort by row keeps conversion O(nnz + n).
        let mut counts = vec![0usize; n + 1];
        for &r in &self.rows {
            counts[r + 1] += 1;
        }
        for i in 0..n {
            counts[i + 1] += counts[i];
        }
        let nnz = self.vals.len();
        let mut cols = vec![0usize; nnz];
        let mut vals = vec![0.0f64; nnz];
        let mut next = counts.clone();
        for ((&r, &c), &v) in self.rows.iter().zip(&self.cols).zip(&self.vals) {
            let slot = next[r];
            next[r] += 1;
            cols[slot] = c;
            vals[slot] = v;
        }
        // Sort within each row and merge duplicates.
        let mut indptr = Vec::with_capacity(n + 1);
        let mut out_cols: Vec<usize> = Vec::with_capacity(nnz);
        let mut out_vals: Vec<f64> = Vec::with_capacity(nnz);
        indptr.push(0);
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        for r in 0..n {
            scratch.clear();
            scratch.extend(
                cols[counts[r]..counts[r + 1]]
                    .iter()
                    .copied()
                    .zip(vals[counts[r]..counts[r + 1]].iter().copied()),
            );
            scratch.sort_unstable_by_key(|&(c, _)| c);
            let mut k = 0;
            while k < scratch.len() {
                let c = scratch[k].0;
                let mut s = 0.0;
                while k < scratch.len() && scratch[k].0 == c {
                    s += scratch[k].1;
                    k += 1;
                }
                if s != 0.0 {
                    out_cols.push(c);
                    out_vals.push(s);
                }
            }
            indptr.push(out_cols.len());
        }
        Csr::from_raw(self.nrows, self.ncols, indptr, out_cols, out_vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicates_are_summed() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 0, 2.0);
        coo.push(1, 1, 5.0);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 2);
        assert_eq!(csr.get(0, 0), 3.0);
        assert_eq!(csr.get(1, 1), 5.0);
    }

    #[test]
    fn cancelling_duplicates_are_dropped() {
        let mut coo = Coo::new(1, 2);
        coo.push(0, 1, 2.5);
        coo.push(0, 1, -2.5);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 0);
    }

    #[test]
    fn out_of_order_entries_sorted() {
        let mut coo = Coo::new(2, 3);
        coo.push(1, 2, 3.0);
        coo.push(0, 1, 1.0);
        coo.push(1, 0, 2.0);
        let csr = coo.to_csr();
        assert_eq!(csr.row_indices(1), &[0, 2]);
        assert_eq!(csr.row_values(1), &[2.0, 3.0]);
        assert_eq!(csr.get(0, 1), 1.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn push_out_of_bounds_panics() {
        let mut coo = Coo::new(2, 2);
        coo.push(2, 0, 1.0);
    }

    #[test]
    fn empty_matrix_converts() {
        let coo = Coo::new(3, 3);
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 0);
        assert_eq!(csr.nrows(), 3);
    }
}
