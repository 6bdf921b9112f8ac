//! Property-based tests for structure detection and the specialized
//! kernel backend: detection never misclassifies a generated operator,
//! a single perturbed entry demotes a stencil to the generic path, and
//! the specialized backend's SpMV/SpMM are bit-identical to the generic
//! CSR kernels at 1 and 8 threads.

use mcmcmi_sparse::{
    detect_structure, set_par_threshold_for_tests, Coo, Csr, KernelBackend, SpecializedBackend,
    Structure,
};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Deterministic nonzero value for entry `(i, j)` under `seed`.
fn val(i: usize, j: usize, seed: u64) -> f64 {
    let h = (i as u64)
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add((j as u64).wrapping_mul(0xc2b2ae3d27d4eb4f))
        .wrapping_add(seed);
    // Stays in [1.0, 2.0): never zero, so no entry is dropped in CSR
    // conversion and the generated pattern is exactly the intended one.
    1.5 + ((h % 1000) as f64 - 500.0) / 1000.0
}

/// Full-band matrix: every row stores exactly the clipped
/// `i-lower ..= i+upper` window.
fn band_matrix(n: usize, lower: usize, upper: usize, seed: u64) -> Csr {
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        for j in i.saturating_sub(lower)..=(i + upper).min(n - 1) {
            coo.push(i, j, val(i, j, seed));
        }
    }
    coo.to_csr()
}

/// Stencil matrix: every row stores `i + d` for each offset `d` that
/// lands in bounds (boundary rows hold clipped subsets of the mode).
fn stencil_matrix(n: usize, offsets: &[i64], seed: u64) -> Csr {
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        for &d in offsets {
            let j = i as i64 + d;
            if (0..n as i64).contains(&j) {
                coo.push(i, j as usize, val(i, j as usize, seed));
            }
        }
    }
    coo.to_csr()
}

/// Offsets drawn from −3..=3, always containing 0; the paired flag bits
/// select which non-zero offsets are present.
fn decode_offsets(mask: u8) -> Vec<i64> {
    let mut offs = vec![0i64];
    for (bit, d) in [(0u8, -3i64), (1, -2), (2, -1), (3, 1), (4, 2), (5, 3)] {
        if mask & (1 << bit) != 0 {
            offs.push(d);
        }
    }
    offs.sort_unstable();
    offs
}

fn pool(threads: usize) -> &'static rayon::ThreadPool {
    static POOLS: OnceLock<[rayon::ThreadPool; 2]> = OnceLock::new();
    let pools = POOLS.get_or_init(|| {
        [1, 8].map(|t| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(t)
                .build()
                .expect("test pool")
        })
    });
    match threads {
        1 => &pools[0],
        8 => &pools[1],
        _ => unreachable!("only 1- and 8-thread pools are built"),
    }
}

/// Restores the default parallel threshold even on panic.
struct RestoreThreshold;
impl Drop for RestoreThreshold {
    fn drop(&mut self) {
        set_par_threshold_for_tests(None);
    }
}

proptest! {
    /// Random full-band matrices detect as the stencil `−lower..=upper`
    /// (boundary rows are clipped interiors) whenever the interior rows are
    /// at least half of all rows, and as generic otherwise.
    #[test]
    fn banded_matrices_detect_their_widths(
        (n, lower, upper, seed) in (8usize..48, 0usize..4, 0usize..4, 0u64..1_000_000)
    ) {
        let a = band_matrix(n, lower, upper, seed);
        let detected = detect_structure(&a);
        if 2 * (n - lower - upper) >= n {
            let mode: Vec<i64> = (-(lower as i64)..=upper as i64).collect();
            prop_assert_eq!(detected.stencil_offsets(), Some(mode.as_slice()));
        } else {
            prop_assert_eq!(detected, Structure::General);
        }
    }

    /// Random stencil matrices, gapped or contiguous, detect as their
    /// offset pattern. Never as generic.
    #[test]
    fn stencil_matrices_detect_their_offsets(
        (n, mask, seed) in (24usize..64, 0u8..64, 0u64..1_000_000)
    ) {
        let offs = decode_offsets(mask);
        let a = stencil_matrix(n, &offs, seed);
        match &detect_structure(&a) {
            Structure::Stencil(map) => {
                prop_assert_eq!(map.mode_offsets(), offs.as_slice());
                prop_assert!(map.mode_coverage() >= 0.5);
            }
            other => {
                return Err(TestCaseError::fail(format!(
                    "offsets {offs:?} misclassified as {}", other.kernel_name()
                )));
            }
        }
    }

    /// One entry outside the stencil's offset pattern demotes the whole
    /// matrix to the generic path — specialization never guesses.
    #[test]
    fn one_perturbed_entry_demotes_to_generic(
        (n, mask, seed) in (24usize..64, 0u8..64, 0u64..1_000_000)
    ) {
        let offs = decode_offsets(mask);
        let clean = stencil_matrix(n, &offs, seed);
        prop_assert!(detect_structure(&clean).is_specialized());
        // Rebuild with a single far coupling at an interior row: offset 5
        // is outside the ±3 menu, so no pattern containing it can be a
        // subset of the mode.
        let mut coo = Coo::new(n, n);
        for (i, j, v) in clean.triplets() {
            coo.push(i, j, v);
        }
        let r = n / 2;
        coo.push(r, r + 5, 1e-9);
        let perturbed = coo.to_csr();
        prop_assert_eq!(detect_structure(&perturbed).kernel_name(), "generic-csr");
    }

    /// The specialized backend's SpMV and SpMM are bit-identical to the
    /// generic CSR kernels — serial and on 1- and 8-thread pools with the
    /// parallel arm forced.
    #[test]
    fn specialized_kernels_bit_identical_to_generic(
        (n, mask, seed) in (24usize..48, 0u8..64, 0u64..1_000_000),
        (lower, upper, use_band) in (0usize..4, 0usize..4, 0u8..2)
    ) {
        let a = if use_band == 1 {
            band_matrix(n, lower, upper, seed)
        } else {
            stencil_matrix(n, &decode_offsets(mask), seed)
        };
        let op = SpecializedBackend::detect(a.clone());
        prop_assert!(op.is_specialized());
        let x: Vec<f64> = (0..n).map(|i| val(i, 7, seed ^ 0xabcd)).collect();
        let mut want = vec![0.0; n];
        a.spmv(&x, &mut want);
        for k in [1usize, 2, 4, 8] {
            let b: Vec<f64> = (0..n * k).map(|i| val(i, 11, seed ^ 0x1234)).collect();
            let mut want_blk = vec![0.0; n * k];
            a.spmm(&b, k, &mut want_blk);
            // Serial dispatch.
            let mut y = vec![0.0; n];
            op.spmv(&x, &mut y);
            prop_assert_eq!(&y, &want);
            let mut yb = vec![0.0; n * k];
            op.spmm(&b, k, &mut yb);
            prop_assert_eq!(&yb, &want_blk);
            // Parallel dispatch under both pools, threshold forced to 1.
            let _restore = RestoreThreshold;
            set_par_threshold_for_tests(Some(1));
            for threads in [1usize, 8] {
                pool(threads).install(|| {
                    let mut y = vec![0.0; n];
                    op.spmv(&x, &mut y);
                    assert_eq!(y, want, "{threads}-thread spmv");
                    let mut yb = vec![0.0; n * k];
                    op.spmm(&b, k, &mut yb);
                    assert_eq!(yb, want_blk, "{threads}-thread spmm k={k}");
                });
            }
        }
    }
}

/// The bare `Csr` backend (generic kernels) and the detected backend agree
/// bitwise on an operator that detects as specialized (spot check, not a
/// property: one deterministic instance keeps the suite fast).
#[test]
fn bare_csr_agrees_with_detected() {
    let a = stencil_matrix(40, &[-3, 0, 1, 3], 99);
    let det = SpecializedBackend::detect(a.clone());
    let gen: &dyn KernelBackend = &a;
    assert!(det.is_specialized());
    assert_eq!(gen.kernel_name(), "generic-csr");
    let x: Vec<f64> = (0..40).map(|i| val(i, 3, 5)).collect();
    let mut y1 = vec![0.0; 40];
    let mut y2 = vec![0.0; 40];
    det.spmv(&x, &mut y1);
    gen.spmv(&x, &mut y2);
    assert_eq!(y1, y2);
}
