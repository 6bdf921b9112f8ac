//! LU factorisation with partial pivoting.
//!
//! Used for exact inverses in MCMC-estimator tests, for the σ_min inverse
//! power iteration in condition estimation, and as the reference direct
//! solver the Krylov crate validates against.

use crate::mat::Mat;

/// Compact LU factorisation `PA = LU` with partial (row) pivoting.
///
/// `L` (unit lower) and `U` are stored packed in a single matrix; `perm`
/// records the row permutation applied to `A`.
#[derive(Clone, Debug)]
pub struct Lu {
    lu: Mat,
    perm: Vec<usize>,
    /// Number of row swaps (parity of the permutation, for the determinant).
    swaps: usize,
    singular: bool,
}

impl Lu {
    /// Factorise a square matrix. Never fails outright: singularity is
    /// recorded and reported by [`Lu::is_singular`], and solves with a
    /// singular factor return `None`.
    ///
    /// # Panics
    /// Panics if `a` is not square.
    pub fn new(a: &Mat) -> Self {
        let n = a.nrows();
        assert_eq!(n, a.ncols(), "Lu::new: matrix must be square");
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut swaps = 0usize;
        let mut singular = false;

        for k in 0..n {
            // Partial pivot: largest |entry| in column k at/below the diagonal.
            let mut p = k;
            let mut pmax = lu.get(k, k).abs();
            for i in (k + 1)..n {
                let v = lu.get(i, k).abs();
                if v > pmax {
                    pmax = v;
                    p = i;
                }
            }
            if pmax == 0.0 || !pmax.is_finite() {
                singular = true;
                continue;
            }
            if p != k {
                perm.swap(k, p);
                swaps += 1;
                // Swap full rows of the packed factor.
                for j in 0..n {
                    let t = lu.get(k, j);
                    lu.set(k, j, lu.get(p, j));
                    lu.set(p, j, t);
                }
            }
            let pivot = lu.get(k, k);
            for i in (k + 1)..n {
                let m = lu.get(i, k) / pivot;
                lu.set(i, k, m);
                if m == 0.0 {
                    continue;
                }
                for j in (k + 1)..n {
                    let v = lu.get(i, j) - m * lu.get(k, j);
                    lu.set(i, j, v);
                }
            }
        }
        Self {
            lu,
            perm,
            swaps,
            singular,
        }
    }

    /// Whether a zero (or non-finite) pivot was hit during elimination.
    pub fn is_singular(&self) -> bool {
        self.singular
    }

    /// Order of the factorised matrix.
    pub fn order(&self) -> usize {
        self.lu.nrows()
    }

    /// Solve `Ax = b`. Returns `None` if the factorisation is singular.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        if self.singular {
            return None;
        }
        let n = self.order();
        assert_eq!(b.len(), n, "Lu::solve: rhs length mismatch");
        // Apply permutation: y = Pb.
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        // Forward substitution with unit-lower L.
        for i in 1..n {
            let mut s = x[i];
            let row = self.lu.row(i);
            for (j, xj) in x[..i].iter().enumerate() {
                s -= row[j] * xj;
            }
            x[i] = s;
        }
        // Back substitution with U.
        for i in (0..n).rev() {
            let row = self.lu.row(i);
            let mut s = x[i];
            for (j, xj) in x[i + 1..].iter().enumerate() {
                s -= row[i + 1 + j] * xj;
            }
            x[i] = s / row[i];
        }
        Some(x)
    }

    /// Solve `Aᵀx = b` using the same factorisation
    /// (`Aᵀ = (PᵀLU)ᵀ = UᵀLᵀP`). Returns `None` if singular.
    pub fn solve_transpose(&self, b: &[f64]) -> Option<Vec<f64>> {
        if self.singular {
            return None;
        }
        let n = self.order();
        assert_eq!(b.len(), n, "Lu::solve_transpose: rhs length mismatch");
        let mut y = b.to_vec();
        // Solve Uᵀ z = b (forward substitution on U transposed).
        for i in 0..n {
            let mut s = y[i];
            for j in 0..i {
                s -= self.lu.get(j, i) * y[j];
            }
            y[i] = s / self.lu.get(i, i);
        }
        // Solve Lᵀ w = z (back substitution on unit-lower L transposed).
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in (i + 1)..n {
                s -= self.lu.get(j, i) * y[j];
            }
            y[i] = s;
        }
        // x = Pᵀ w: undo the permutation.
        let mut x = vec![0.0; n];
        for (k, &p) in self.perm.iter().enumerate() {
            x[p] = y[k];
        }
        Some(x)
    }

    /// Determinant of the original matrix.
    pub fn det(&self) -> f64 {
        if self.singular {
            return 0.0;
        }
        let n = self.order();
        let mut d = if self.swaps.is_multiple_of(2) {
            1.0
        } else {
            -1.0
        };
        for i in 0..n {
            d *= self.lu.get(i, i);
        }
        d
    }

    /// Dense inverse (column-by-column solve). Returns `None` if singular.
    pub fn inverse(&self) -> Option<Mat> {
        if self.singular {
            return None;
        }
        let n = self.order();
        let mut inv = Mat::zeros(n, n);
        let mut e = vec![0.0; n];
        for j in 0..n {
            e[j] = 1.0;
            let col = self.solve(&e)?;
            for (i, v) in col.iter().enumerate() {
                inv.set(i, j, *v);
            }
            e[j] = 0.0;
        }
        Some(inv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn residual_inf(a: &Mat, x: &[f64], b: &[f64]) -> f64 {
        let ax = a.matvec_alloc(x);
        ax.iter()
            .zip(b)
            .fold(0.0_f64, |m, (p, q)| m.max((p - q).abs()))
    }

    #[test]
    fn solve_2x2() {
        let a = Mat::from_rows(&[vec![4.0, 3.0], vec![6.0, 3.0]]);
        let lu = Lu::new(&a);
        let x = lu.solve(&[10.0, 12.0]).unwrap();
        assert!(residual_inf(&a, &x, &[10.0, 12.0]) < 1e-12);
    }

    #[test]
    fn solve_needs_pivoting() {
        // Zero on the leading diagonal forces a row swap.
        let a = Mat::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let lu = Lu::new(&a);
        assert!(!lu.is_singular());
        let x = lu.solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn singular_detected() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        let lu = Lu::new(&a);
        assert!(lu.is_singular());
        assert!(lu.solve(&[1.0, 1.0]).is_none());
        assert_eq!(lu.det(), 0.0);
    }

    #[test]
    fn det_of_diagonal() {
        let a = Mat::from_rows(&[
            vec![2.0, 0.0, 0.0],
            vec![0.0, 3.0, 0.0],
            vec![0.0, 0.0, 4.0],
        ]);
        assert!((Lu::new(&a).det() - 24.0).abs() < 1e-12);
    }

    #[test]
    fn det_sign_tracks_permutation() {
        let a = Mat::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        assert!((Lu::new(&a).det() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn inverse_times_matrix_is_identity() {
        let a = Mat::from_rows(&[
            vec![4.0, -2.0, 1.0],
            vec![3.0, 6.0, -4.0],
            vec![2.0, 1.0, 8.0],
        ]);
        let inv = Lu::new(&a).inverse().unwrap();
        let prod = a.matmul(&inv);
        assert!(prod.max_abs_diff(&Mat::eye(3)) < 1e-12);
    }

    #[test]
    fn solve_transpose_consistent_with_explicit_transpose() {
        let a = Mat::from_rows(&[
            vec![4.0, -2.0, 1.0],
            vec![3.0, 6.0, -4.0],
            vec![2.0, 1.0, 8.0],
        ]);
        let b = [1.0, -2.0, 0.5];
        let xt = Lu::new(&a).solve_transpose(&b).unwrap();
        let x_ref = Lu::new(&a.transpose()).solve(&b).unwrap();
        for (p, q) in xt.iter().zip(&x_ref) {
            assert!((p - q).abs() < 1e-12);
        }
    }

    #[test]
    fn random_like_system_solves_accurately() {
        // Deterministic pseudo-random fill via a simple LCG (keeps the test
        // dependency free); diagonal boost guarantees non-singularity.
        let n = 24;
        let mut state = 0x9e3779b97f4a7c15_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 11) as f64 / (1u64 << 53) as f64) - 0.5
        };
        let mut a = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a.set(i, j, next());
            }
            let boost = a.get(i, i) + 3.0;
            a.set(i, i, boost);
        }
        let xs: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
        let b = a.matvec_alloc(&xs);
        let x = Lu::new(&a).solve(&b).unwrap();
        for (p, q) in x.iter().zip(&xs) {
            assert!((p - q).abs() < 1e-10, "{p} vs {q}");
        }
    }
}
