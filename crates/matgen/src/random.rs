//! Random sparse matrix families, all deterministic given a seed.

use mcmcmi_sparse::{Coo, Csr};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// `PDD_RealSparse`-style matrix: random sparse, strictly diagonally
/// dominant ("PDD"), density ≈ 0.1, κ of order 10 — matching the paper's
/// `PDD_RealSparse_N{64,128,256}` rows in Table 1 (κ ∈ [5, 13]).
///
/// Every row gets `a_ii = Σ_{j≠i}|a_ij| + slack`, with `slack` drawn from
/// [0.5, 1.5]; strict dominance keeps κ small and all walk-based
/// preconditioners convergent — these are the "easy" systems of the suite.
pub fn pdd_real_sparse(n: usize, seed: u64) -> Csr {
    let density = 0.1;
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut coo = Coo::with_capacity(n, n, (density * (n * n) as f64) as usize + n);
    let mut rowsums = vec![0.0f64; n];
    for i in 0..n {
        for j in 0..n {
            if i != j && rng.gen::<f64>() < density {
                let v: f64 = rng.gen_range(-1.0..1.0);
                coo.push(i, j, v);
                rowsums[i] += v.abs();
            }
        }
    }
    for (i, &s) in rowsums.iter().enumerate() {
        coo.push(i, i, s + rng.gen_range(0.5..1.5));
    }
    coo.to_csr()
}

/// Operational-scale member of the `PDD_RealSparse` family: strictly
/// diagonally dominant, off-diagonals uniform in [-1, 1], uniformly random
/// pattern (no locality), κ held in Table 1's band — but built in
/// O(n·row_nnz) so instances whose working set dwarfs the cache hierarchy
/// are cheap to generate. [`pdd_real_sparse`] scans all n² pairs, which
/// caps it at Table 1's n ≤ 256; this is the same family at the sizes the
/// accelerator literature targets, where transition sampling is
/// memory-latency-bound.
///
/// Each row draws `row_nnz` candidate columns uniformly (duplicates and
/// the diagonal are dropped, so the realised row degree is ≈ `row_nnz`).
/// The dominance slack scales *with* the off-diagonal rowsum —
/// `a_ii = (1 + u)·Σ|a_ij|`, u ∈ [0.18, 0.45] — rather than the absolute
/// O(1) slack of [`pdd_real_sparse`]: at row degree d the rowsum grows
/// like d/2, so absolute slack would drive κ ∝ d out of the family's
/// κ ∈ [5, 13] regime, while proportional slack pins κ ≈ (2 + u)/u there
/// at every degree.
pub fn pdd_real_sparse_scaled(n: usize, row_nnz: usize, seed: u64) -> Csr {
    assert!(n > 0, "pdd_real_sparse_scaled: empty matrix");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut coo = Coo::with_capacity(n, n, n * (row_nnz + 1));
    let mut cols: Vec<usize> = Vec::with_capacity(row_nnz);
    for i in 0..n {
        cols.clear();
        for _ in 0..row_nnz {
            let j = rng.gen_range(0..n);
            if j != i {
                cols.push(j);
            }
        }
        cols.sort_unstable();
        cols.dedup();
        let mut rowsum = 0.0;
        for &j in &cols {
            let v: f64 = rng.gen_range(-1.0..1.0);
            coo.push(i, j, v);
            rowsum += v.abs();
        }
        let u: f64 = rng.gen_range(0.18..0.45);
        coo.push(i, i, (1.0 + u) * rowsum.max(1.0));
    }
    coo.to_csr()
}

/// Random symmetric positive definite matrix with controlled condition
/// number: `A = QΛQᵀ + sparsification`, built dense then thresholded. For
/// modest `n` only (used by CG tests and SPD examples).
pub fn spd_random(n: usize, cond: f64, seed: u64) -> Csr {
    assert!(cond >= 1.0, "spd_random: condition number must be >= 1");
    use mcmcmi_dense::{orthonormal_columns, Mat};
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Random Gaussian-ish matrix → orthonormal Q.
    let mut g = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            // Box–Muller from two uniforms.
            let u1: f64 = rng.gen_range(1e-12..1.0);
            let u2: f64 = rng.gen::<f64>();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            g.set(i, j, z);
        }
    }
    let q = orthonormal_columns(&g);
    // Geometric eigenvalue spread from 1 to cond.
    let mut a = Mat::zeros(n, n);
    for k in 0..n {
        let lambda = cond.powf(k as f64 / (n.max(2) - 1) as f64);
        // A += λ q_k q_kᵀ
        for i in 0..n {
            let qik = q.get(i, k);
            if qik == 0.0 {
                continue;
            }
            for j in 0..n {
                let v = a.get(i, j) + lambda * qik * q.get(j, k);
                a.set(i, j, v);
            }
        }
    }
    // Exact symmetrisation to cancel rounding asymmetry.
    for i in 0..n {
        for j in (i + 1)..n {
            let s = 0.5 * (a.get(i, j) + a.get(j, i));
            a.set(i, j, s);
            a.set(j, i, s);
        }
    }
    Csr::from_dense(&a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmcmi_dense::{cond_dense, CondOptions};

    #[test]
    fn pdd_is_strictly_diagonally_dominant() {
        let a = pdd_real_sparse(64, 11);
        for i in 0..a.nrows() {
            let mut off = 0.0;
            let mut diag = 0.0;
            for (&j, &v) in a.row_indices(i).iter().zip(a.row_values(i)) {
                if j == i {
                    diag = v.abs();
                } else {
                    off += v.abs();
                }
            }
            assert!(diag > off, "row {i} not dominant: {diag} <= {off}");
        }
    }

    #[test]
    fn pdd_matches_paper_regime() {
        // Table 1: PDD matrices have κ ∈ [5, 13] and φ ≈ 0.1.
        let a = pdd_real_sparse(64, 11);
        assert!((a.density() - 0.1).abs() < 0.04, "density {}", a.density());
        let k = cond_dense(&a.to_dense(), CondOptions::default()).unwrap();
        assert!(k > 1.5 && k < 50.0, "κ = {k}");
    }

    #[test]
    fn pdd_scaled_is_dominant_deterministic_and_linear_sized() {
        let a = pdd_real_sparse_scaled(4096, 24, 7);
        assert_eq!(a.nrows(), 4096);
        // O(n·row_nnz) fill: each row holds ≈ row_nnz off-diagonals + diag.
        let nnz = a.nnz();
        assert!(
            nnz > 4096 * 18 && nnz <= 4096 * 25,
            "nnz {nnz} outside expected band"
        );
        for i in 0..a.nrows() {
            let mut off = 0.0;
            let mut diag = 0.0;
            for (&j, &v) in a.row_indices(i).iter().zip(a.row_values(i)) {
                if j == i {
                    diag = v.abs();
                } else {
                    off += v.abs();
                }
            }
            assert!(diag > off, "row {i} not dominant: {diag} <= {off}");
        }
        let b = pdd_real_sparse_scaled(4096, 24, 7);
        assert_eq!(a, b);
        let c = pdd_real_sparse_scaled(4096, 24, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn pdd_scaled_stays_in_the_paper_kappa_band() {
        // Proportional slack keeps κ in the Table-1 regime at any degree.
        for row_nnz in [6, 24] {
            let a = pdd_real_sparse_scaled(64, row_nnz, 3);
            let k = cond_dense(&a.to_dense(), CondOptions::default()).unwrap();
            assert!(k > 1.5 && k < 50.0, "row_nnz {row_nnz}: κ = {k}");
        }
    }

    #[test]
    fn spd_random_is_spd_with_target_cond() {
        let a = spd_random(24, 100.0, 5);
        assert!(a.is_symmetric(1e-9));
        let k = cond_dense(&a.to_dense(), CondOptions::default()).unwrap();
        assert!((k - 100.0).abs() / 100.0 < 0.05, "κ = {k}");
        // Positive definite: xᵀAx > 0 for a few random x.
        let n = a.nrows();
        for s in 0..3 {
            let x: Vec<f64> = (0..n)
                .map(|i| ((i * 7 + s * 13) as f64 * 0.37).sin())
                .collect();
            let ax = a.spmv_alloc(&x);
            let q: f64 = x.iter().zip(&ax).map(|(p, v)| p * v).sum();
            assert!(q > 0.0);
        }
    }
}
