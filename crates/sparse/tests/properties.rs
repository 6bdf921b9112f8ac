//! Property-based tests for the sparse substrate.

use mcmcmi_sparse::{csr_add, Coo, Csr};
use proptest::prelude::*;

/// Strategy: a random sparse matrix as (nrows, ncols, triplets).
fn arb_matrix() -> impl Strategy<Value = (usize, usize, Vec<(usize, usize, f64)>)> {
    (1usize..20, 1usize..20).prop_flat_map(|(m, n)| {
        let triplet = (0..m, 0..n, -10.0f64..10.0);
        proptest::collection::vec(triplet, 0..60).prop_map(move |ts| (m, n, ts))
    })
}

fn build(m: usize, n: usize, ts: &[(usize, usize, f64)]) -> Csr {
    let mut coo = Coo::new(m, n);
    for &(i, j, v) in ts {
        coo.push(i, j, v);
    }
    coo.to_csr()
}

fn arb_vec(len: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-5.0f64..5.0, len..=len)
}

proptest! {
    /// CSR invariants hold after COO conversion regardless of input order.
    #[test]
    fn coo_to_csr_invariants((m, n, ts) in arb_matrix()) {
        let a = build(m, n, &ts);
        prop_assert!(a.check_invariants().is_ok());
    }

    /// SpMV agrees with the dense reference implementation.
    #[test]
    fn spmv_matches_dense(((m, n, ts), seed) in (arb_matrix(), 0u64..1000)) {
        let a = build(m, n, &ts);
        let x: Vec<f64> = (0..n).map(|k| ((k as u64 * 2654435761 + seed) % 17) as f64 - 8.0).collect();
        let dense = a.to_dense();
        let y_sparse = a.spmv_alloc(&x);
        let y_dense = dense.matvec_alloc(&x);
        for (p, q) in y_sparse.iter().zip(&y_dense) {
            prop_assert!((p - q).abs() < 1e-9);
        }
    }

    /// Adjointness: ⟨Ax, y⟩ = ⟨x, Aᵀy⟩.
    #[test]
    fn transpose_adjointness((m, n, ts) in arb_matrix()) {
        let a = build(m, n, &ts);
        let x: Vec<f64> = (0..n).map(|k| ((k * 7 + 3) % 11) as f64 - 5.0).collect();
        let y: Vec<f64> = (0..m).map(|k| ((k * 5 + 1) % 13) as f64 - 6.0).collect();
        let ax = a.spmv_alloc(&x);
        let mut aty = vec![0.0; n];
        a.spmv_transpose(&y, &mut aty);
        let lhs: f64 = ax.iter().zip(&y).map(|(p, q)| p * q).sum();
        let rhs: f64 = x.iter().zip(&aty).map(|(p, q)| p * q).sum();
        prop_assert!((lhs - rhs).abs() < 1e-8 * (1.0 + lhs.abs().max(rhs.abs())));
    }

    /// Transpose is an involution.
    #[test]
    fn transpose_involution((m, n, ts) in arb_matrix()) {
        let a = build(m, n, &ts);
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    /// Matrix Market write→read is lossless.
    #[test]
    fn matrix_market_roundtrip((m, n, ts) in arb_matrix()) {
        let a = build(m, n, &ts);
        let mut buf = Vec::new();
        mcmcmi_sparse::io::write_matrix_market(&a, &mut buf).unwrap();
        let b = mcmcmi_sparse::io::read_matrix_market(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(a, b);
    }

    /// A − A = 0 and (A + A) = 2A under csr_add.
    #[test]
    fn add_linearity((m, n, ts) in arb_matrix()) {
        let a = build(m, n, &ts);
        let zero = csr_add(1.0, &a, -1.0, &a);
        prop_assert_eq!(zero.nnz(), 0);
        let double = csr_add(1.0, &a, 1.0, &a);
        for (i, j, v) in a.triplets() {
            prop_assert!((double.get(i, j) - 2.0 * v).abs() < 1e-12);
        }
    }

    /// Symmetry score is 1 exactly for A + Aᵀ.
    #[test]
    fn symmetrised_matrix_scores_one((n0, ts) in (1usize..15).prop_flat_map(|n| {
        (Just(n), proptest::collection::vec((0..n, 0..n, -4.0f64..4.0), 0..40))
    })) {
        let a = build(n0, n0, &ts);
        let sym = csr_add(0.5, &a, 0.5, &a.transpose());
        prop_assert!(sym.is_symmetric(1e-12));
        prop_assert!((sym.symmetry_score() - 1.0).abs() < 1e-9);
    }

    /// x ↦ Ax with vectors of mismatched length panics (shape safety).
    #[test]
    fn spmv_vec_arithmetic((m, n, ts) in arb_matrix(), s in -3.0f64..3.0) {
        // SpMV is linear: A(s·x) = s·(Ax).
        let a = build(m, n, &ts);
        let x: Vec<f64> = (0..n).map(|k| (k as f64 * 0.37).cos()).collect();
        let sx: Vec<f64> = x.iter().map(|v| s * v).collect();
        let lhs = a.spmv_alloc(&sx);
        let rhs: Vec<f64> = a.spmv_alloc(&x).iter().map(|v| s * v).collect();
        for (p, q) in lhs.iter().zip(&rhs) {
            prop_assert!((p - q).abs() < 1e-9);
        }
    }
}

#[test]
fn arb_vec_strategy_compiles() {
    // Keep the helper exercised even though individual tests inline vectors.
    let _ = arb_vec(4);
}
