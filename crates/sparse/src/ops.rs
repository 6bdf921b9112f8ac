//! Whole-matrix operations: addition and identity.

use crate::coo::Coo;
use crate::csr::Csr;

/// Sparse identity matrix of order `n`.
pub fn csr_eye(n: usize) -> Csr {
    Csr::from_raw(n, n, (0..=n).collect(), (0..n).collect(), vec![1.0; n])
}

/// `αA + βB` for same-shape CSR matrices (exact zeros dropped).
///
/// # Panics
/// Panics on shape mismatch.
pub fn csr_add(alpha: f64, a: &Csr, beta: f64, b: &Csr) -> Csr {
    assert_eq!(a.nrows(), b.nrows(), "csr_add: row mismatch");
    assert_eq!(a.ncols(), b.ncols(), "csr_add: col mismatch");
    let mut coo = Coo::with_capacity(a.nrows(), a.ncols(), a.nnz() + b.nnz());
    if alpha != 0.0 {
        for (i, j, v) in a.triplets() {
            coo.push(i, j, alpha * v);
        }
    }
    if beta != 0.0 {
        for (i, j, v) in b.triplets() {
            coo.push(i, j, beta * v);
        }
    }
    coo.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 2.0);
        coo.push(1, 0, 3.0);
        coo.to_csr()
    }

    #[test]
    fn eye_applies_identity() {
        let i3 = csr_eye(3);
        let x = [1.0, 2.0, 3.0];
        assert_eq!(i3.spmv_alloc(&x), x.to_vec());
        assert_eq!(i3.nnz(), 3);
    }

    #[test]
    fn add_disjoint_patterns() {
        let a = sample();
        let b = csr_eye(2);
        let c = csr_add(1.0, &a, 2.0, &b);
        assert_eq!(c.get(0, 0), 3.0);
        assert_eq!(c.get(1, 1), 2.0);
        assert_eq!(c.get(0, 1), 2.0);
    }

    #[test]
    fn add_cancellation_drops_entries() {
        let a = sample();
        let c = csr_add(1.0, &a, -1.0, &a);
        assert_eq!(c.nnz(), 0);
    }
}
