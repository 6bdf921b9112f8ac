//! The outside verifier: the harness's own residual check on every
//! returned solution. The library's `converged` flag is never consulted.

use mcmcmi::sparse::Csr;

/// `‖b − A·x‖₂ / ‖b‖₂` with plain loops over the CSR arrays — no library
/// kernel, so a defect in the kernels cannot vouch for itself.
pub fn rel_residual(a: &Csr, x: &[f64], b: &[f64]) -> f64 {
    if x.len() != a.ncols() || b.len() != a.nrows() {
        return f64::NAN;
    }
    let mut r2 = 0.0;
    let mut b2 = 0.0;
    for (i, &bi) in b.iter().enumerate() {
        let mut ax = 0.0;
        for (&j, &v) in a.row_indices(i).iter().zip(a.row_values(i)) {
            ax += v * x[j];
        }
        let r = bi - ax;
        r2 += r * r;
        b2 += bi * bi;
    }
    (r2 / b2).sqrt()
}

/// Does `x` solve `A·x = b` to `limit`? A NaN anywhere fails the
/// comparison, so it fails the check.
pub fn verifies(a: &Csr, x: &[f64], b: &[f64], limit: f64) -> bool {
    rel_residual(a, x, b) <= limit
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmcmi::matgen::fd_laplace_2d;

    fn system() -> (Csr, Vec<f64>, Vec<f64>) {
        let a = fd_laplace_2d(8);
        let x: Vec<f64> = (0..a.ncols()).map(|i| (0.7 * i as f64).sin()).collect();
        let b = a.spmv_alloc(&x);
        (a, x, b)
    }

    #[test]
    fn accepts_a_true_solution() {
        let (a, x, b) = system();
        assert!(rel_residual(&a, &x, &b) < 1e-14);
        assert!(verifies(&a, &x, &b, 1e-10));
    }

    #[test]
    fn rejects_a_perturbed_solution() {
        let (a, mut x, b) = system();
        x[5] += 1e-3;
        assert!(rel_residual(&a, &x, &b) > 1e-5);
        assert!(!verifies(&a, &x, &b, 1e-7));
    }

    #[test]
    fn rejects_nan_and_wrong_length() {
        let (a, mut x, b) = system();
        x[0] = f64::NAN;
        assert!(!verifies(&a, &x, &b, 1e-7));
        assert!(!verifies(&a, &x[1..], &b, 1e-7));
    }
}
