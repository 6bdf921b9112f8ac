//! Householder QR factorisation and least-squares solves.
//!
//! GMRES solves its small Hessenberg least-squares problem with Givens
//! rotations inline; this module provides the general-purpose QR used by the
//! L-BFGS-B line-search diagnostics, by tests that cross-check GMRES, and by
//! the matrix generators that need orthonormal bases.

use crate::mat::Mat;
use crate::vec_ops::norm2;

/// Householder QR of an `m × n` matrix with `m ≥ n`: `A = QR`.
#[derive(Clone, Debug)]
pub struct Qr {
    /// Packed factor: R in the upper triangle, Householder vectors below.
    qr: Mat,
    /// Householder scalars β (one per reflection).
    betas: Vec<f64>,
}

impl Qr {
    /// Factorise. Rank deficiency is tolerated (zero columns produce zero
    /// reflections).
    ///
    /// # Panics
    /// Panics if `m < n`.
    pub fn new(a: &Mat) -> Self {
        let m = a.nrows();
        let n = a.ncols();
        assert!(m >= n, "Qr::new: need m >= n");
        let mut qr = a.clone();
        let mut betas = vec![0.0; n];
        let mut v = vec![0.0; m];

        for k in 0..n {
            // Build the Householder vector for column k.
            let mut alpha = 0.0;
            for i in k..m {
                let t = qr.get(i, k);
                v[i] = t;
                alpha += t * t;
            }
            let alpha = alpha.sqrt();
            if alpha == 0.0 {
                betas[k] = 0.0;
                continue;
            }
            let akk = qr.get(k, k);
            let sign = if akk >= 0.0 { 1.0 } else { -1.0 };
            v[k] = akk + sign * alpha;
            let vnorm2: f64 = v[k..m].iter().map(|t| t * t).sum();
            if vnorm2 == 0.0 {
                betas[k] = 0.0;
                continue;
            }
            let beta = 2.0 / vnorm2;
            betas[k] = beta;
            // Apply the reflection to the trailing columns.
            for j in k..n {
                let mut s = 0.0;
                for i in k..m {
                    s += v[i] * qr.get(i, j);
                }
                s *= beta;
                for i in k..m {
                    let t = qr.get(i, j) - s * v[i];
                    qr.set(i, j, t);
                }
            }
            // Store the (scaled) Householder vector below the diagonal and R
            // on/above it. v[k] is recoverable up to normalisation; we store
            // v[i]/v[k] for i>k, a standard compact scheme.
            let vk = v[k];
            qr.set(k, k, -sign * alpha);
            for i in (k + 1)..m {
                qr.set(i, k, v[i] / vk);
            }
            // Rescale β for the normalised vector (v'[k] = 1).
            betas[k] = beta * vk * vk;
        }
        Self { qr, betas }
    }

    /// Apply `Qᵀ` to a length-`m` vector in place.
    fn apply_qt(&self, y: &mut [f64]) {
        let m = self.qr.nrows();
        let n = self.qr.ncols();
        for k in 0..n {
            let beta = self.betas[k];
            if beta == 0.0 {
                continue;
            }
            // v = [1, qr[k+1..m, k]]
            let mut s = y[k];
            for i in (k + 1)..m {
                s += self.qr.get(i, k) * y[i];
            }
            s *= beta;
            y[k] -= s;
            for i in (k + 1)..m {
                y[i] -= s * self.qr.get(i, k);
            }
        }
    }

    /// Least-squares solve `min ‖Ax − b‖₂`. Returns `None` if R has a zero
    /// diagonal entry (rank deficiency).
    pub fn solve_ls(&self, b: &[f64]) -> Option<Vec<f64>> {
        let m = self.qr.nrows();
        let n = self.qr.ncols();
        assert_eq!(b.len(), m, "Qr::solve_ls: rhs length mismatch");
        let mut y = b.to_vec();
        self.apply_qt(&mut y);
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut s = y[i];
            for j in (i + 1)..n {
                s -= self.qr.get(i, j) * x[j];
            }
            let d = self.qr.get(i, i);
            if d == 0.0 {
                return None;
            }
            x[i] = s / d;
        }
        Some(x)
    }

    /// Explicit thin Q (m × n), for tests and orthonormal-basis generation.
    fn thin_q(&self) -> Mat {
        let m = self.qr.nrows();
        let n = self.qr.ncols();
        let mut q = Mat::zeros(m, n);
        let mut e = vec![0.0; m];
        for j in 0..n {
            e.iter_mut().for_each(|v| *v = 0.0);
            e[j] = 1.0;
            // Q e_j = H_0 H_1 ... H_{n-1} e_j: apply reflections in reverse.
            for k in (0..n).rev() {
                let beta = self.betas[k];
                if beta == 0.0 {
                    continue;
                }
                let mut s = e[k];
                for i in (k + 1)..m {
                    s += self.qr.get(i, k) * e[i];
                }
                s *= beta;
                e[k] -= s;
                for i in (k + 1)..m {
                    e[i] -= s * self.qr.get(i, k);
                }
            }
            for i in 0..m {
                q.set(i, j, e[i]);
            }
        }
        q
    }
}

/// Orthonormalise the columns of `a` (thin Q of its QR factorisation).
pub fn orthonormal_columns(a: &Mat) -> Mat {
    Qr::new(a).thin_q()
}

/// Residual norm ‖Ax − b‖₂ (shared test helper).
pub fn ls_residual(a: &Mat, x: &[f64], b: &[f64]) -> f64 {
    let ax = a.matvec_alloc(x);
    let r: Vec<f64> = ax.iter().zip(b).map(|(p, q)| p - q).collect();
    norm2(&r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn square_solve_exact() {
        let a = Mat::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let b = [3.0, 5.0];
        let x = Qr::new(&a).solve_ls(&b).unwrap();
        assert!(ls_residual(&a, &x, &b) < 1e-12);
    }

    #[test]
    fn overdetermined_matches_normal_equations() {
        // Fit y = c0 + c1 t at t = 0..4 for y = 1 + 2t (exactly consistent).
        let rows: Vec<Vec<f64>> = (0..5).map(|t| vec![1.0, t as f64]).collect();
        let a = Mat::from_rows(&rows);
        let b: Vec<f64> = (0..5).map(|t| 1.0 + 2.0 * t as f64).collect();
        let x = Qr::new(&a).solve_ls(&b).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn inconsistent_system_minimises_residual() {
        let a = Mat::from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        let b = [1.0, 1.0, 0.0];
        let x = Qr::new(&a).solve_ls(&b).unwrap();
        let r0 = ls_residual(&a, &x, &b);
        // Perturbing the solution must not reduce the residual.
        for d in [[1e-3, 0.0], [0.0, 1e-3], [-1e-3, 1e-3]] {
            let xp = [x[0] + d[0], x[1] + d[1]];
            assert!(ls_residual(&a, &xp, &b) >= r0 - 1e-12);
        }
    }

    #[test]
    fn thin_q_is_orthonormal() {
        let a = Mat::from_rows(&[
            vec![1.0, 2.0],
            vec![3.0, 4.0],
            vec![5.0, 6.0],
            vec![7.0, 9.0],
        ]);
        let q = Qr::new(&a).thin_q();
        let qtq = q.transpose().matmul(&q);
        assert!(qtq.max_abs_diff(&Mat::eye(2)) < 1e-12);
    }

    #[test]
    fn qr_reconstructs_a() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]);
        let qr = Qr::new(&a);
        let q = qr.thin_q();
        // Extract R from the packed factor.
        let mut r = Mat::zeros(2, 2);
        for i in 0..2 {
            for j in i..2 {
                r.set(i, j, qr.qr.get(i, j));
            }
        }
        assert!(q.matmul(&r).max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn rank_deficient_returns_none() {
        let a = Mat::from_rows(&[vec![1.0, 1.0], vec![1.0, 1.0], vec![1.0, 1.0]]);
        assert!(Qr::new(&a).solve_ls(&[1.0, 2.0, 3.0]).is_none());
    }
}
