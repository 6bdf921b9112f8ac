//! Post-build preconditioner compression: drop-tolerance sparsification
//! and reduced-precision storage.
//!
//! The MCMC inverse is *already* an approximation — its entries carry O(ε)
//! stochastic error by construction — so applying it at full f64 bandwidth
//! and full fill spends the memory system on precision the operator does
//! not possess. Compression trades a little preconditioner quality
//! (iterations) for a lot of apply cost (bytes/traversal), the dominant
//! per-iteration expense once the build is amortised. The two knobs:
//!
//! * **drop tolerance** — within each row, entries below `drop_tol` times
//!   the row's largest magnitude are discarded (relative, so uniformly
//!   scaled matrices compress identically), optionally capped at the
//!   `row_topk` largest entries per row;
//! * **storage precision** — keep f64, or demote values to f32
//!   ([`mcmcmi_sparse::Csr::to_precision`]); every kernel still
//!   accumulates in f64, so demotion is one rounding per entry, not a
//!   change of arithmetic.
//!
//! The identity policy (`drop_tol = 0`, no cap, f64) reproduces the input
//! CSR bit for bit — pattern and values — which is what lets the
//! compressed path be validated against the uncompressed baseline exactly.
//!
//! Compressed operators are consumed through the flexible Krylov drivers
//! (`FCG`/`FGMRES`): classical CG/GMRES assume an exact fixed
//! preconditioner, and a sparsified, rounded inverse is deliberately not
//! one.

use mcmcmi_krylov::{CompressedPrecond, SparsePrecond};
use mcmcmi_sparse::Csr;
use serde::{Deserialize, Serialize};

/// Value storage format for a compressed preconditioner.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum StoragePrecision {
    /// Full 8-byte values (sparsification only).
    F64,
    /// Demoted 4-byte values: half the value bandwidth per apply; kernels
    /// still accumulate in f64.
    F32,
}

impl StoragePrecision {
    /// Display name (delegates to [`mcmcmi_sparse::Scalar::NAME`]).
    pub fn name(self) -> &'static str {
        use mcmcmi_sparse::Scalar;
        match self {
            StoragePrecision::F64 => <f64 as Scalar>::NAME,
            StoragePrecision::F32 => <f32 as Scalar>::NAME,
        }
    }
}

/// Tunable compression settings — a candidate axis for the AI tuner next
/// to `(α, ε, δ)`.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CompressionPolicy {
    /// Per-row relative drop threshold: entry `(i, j)` survives iff
    /// `|p_ij| ≥ drop_tol · max_j |p_ij|`. `0.0` keeps everything. A
    /// stored diagonal entry is exempt (see [`sparsify`]).
    pub drop_tol: f64,
    /// Optional hard cap on surviving entries per row (the `drop_tol`
    /// filter runs first, then the largest-magnitude `k` are kept;
    /// a stored diagonal always claims one slot, and magnitude ties break
    /// toward smaller column index, so the result is deterministic).
    pub row_topk: Option<usize>,
    /// Value storage format for the compressed operator.
    pub precision: StoragePrecision,
}

impl Default for CompressionPolicy {
    /// The identity policy: nothing dropped, f64 storage — byte-for-byte
    /// the uncompressed preconditioner.
    fn default() -> Self {
        Self {
            drop_tol: 0.0,
            row_topk: None,
            precision: StoragePrecision::F64,
        }
    }
}

impl CompressionPolicy {
    /// Sparsify at `drop_tol` and demote to f32 — the full mixed-precision
    /// policy the perf record sweeps.
    pub fn f32(drop_tol: f64) -> Self {
        Self {
            drop_tol,
            row_topk: None,
            precision: StoragePrecision::F32,
        }
    }

    /// Sparsify at `drop_tol`, keep f64 storage.
    pub fn f64(drop_tol: f64) -> Self {
        Self {
            drop_tol,
            row_topk: None,
            precision: StoragePrecision::F64,
        }
    }
}

/// What compression kept: the diagnostics the tuner (and the perf record)
/// reads to relate policy knobs to apply cost and preconditioner mass.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct CompressionReport {
    /// Stored entries before compression.
    pub nnz_before: usize,
    /// Stored entries after sparsification.
    pub nnz_after: usize,
    /// `nnz_after / nnz_before` (1.0 for an empty input).
    pub nnz_kept: f64,
    /// Fraction of squared Frobenius mass surviving sparsification,
    /// `‖P_kept‖²_F / ‖P‖²_F`, measured in f64 *before* any demotion
    /// (1.0 for a zero input). Near-1 values at small `nnz_kept` are the
    /// signature of a preconditioner whose tail entries were noise.
    pub fro_mass_kept: f64,
    /// Value bytes streamed per apply before compression (`nnz·8`).
    pub value_bytes_before: usize,
    /// Value bytes streamed per apply after compression.
    pub value_bytes_after: usize,
    /// Storage precision of the compressed operator.
    pub precision: StoragePrecision,
}

/// Drop-tolerance sparsification of a CSR matrix (pattern + values stay
/// f64; precision is applied by [`compress`]). See
/// [`CompressionPolicy::drop_tol`]/[`CompressionPolicy::row_topk`] for the
/// per-row rule. With `drop_tol = 0` and no cap this is an exact copy.
///
/// A stored diagonal entry always survives — both the drop threshold and
/// the top-k cap (it occupies one of the cap's slots, displacing the
/// smallest off-diagonal). The diagonal carries the Jacobi core of the
/// approximate inverse; letting an aggressive tuner proposal drop `p_ii`
/// turns the preconditioner singular on that row, which no iteration-count
/// saving can repay.
pub fn sparsify(p: &Csr<f64>, drop_tol: f64, row_topk: Option<usize>) -> Csr<f64> {
    // Fail fast on a nonsense tolerance (e.g. a NaN from a bad tuner
    // proposal): a NaN threshold would silently drop *every* entry.
    assert!(
        drop_tol.is_finite() && drop_tol >= 0.0,
        "sparsify: drop_tol must be finite and non-negative, got {drop_tol}"
    );
    // A zero cap would empty every row — diagonal included — which the
    // diagonal-survival guarantee exists to forbid; no caller can mean it.
    assert!(
        row_topk != Some(0),
        "sparsify: row_topk = 0 would drop every entry (including the diagonal)"
    );
    let n = p.nrows();
    let mut indptr = Vec::with_capacity(n + 1);
    let mut indices = Vec::with_capacity(p.nnz());
    let mut data = Vec::with_capacity(p.nnz());
    indptr.push(0);
    // Scratch for the top-k selection, reused across rows.
    let mut keep: Vec<(usize, f64)> = Vec::new();
    for i in 0..n {
        let cols = p.row_indices(i);
        let vals = p.row_values(i);
        let row_max = vals.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        // `drop_tol = 0` keeps everything unconditionally (the
        // bit-identical round-trip contract) — short-circuiting also keeps
        // an infinite `row_max` from poisoning the threshold with
        // `0.0 · ∞ = NaN`, which would silently drop the whole row.
        let threshold = if drop_tol == 0.0 {
            0.0
        } else {
            drop_tol * row_max
        };
        keep.clear();
        for (&j, &v) in cols.iter().zip(vals) {
            // `>=` so a zero threshold keeps stored exact zeros too. (A
            // NaN entry would fail every comparison and drop; the builder
            // never stores one.) The diagonal bypasses the threshold.
            if j == i || v.abs() >= threshold {
                keep.push((j, v));
            }
        }
        if let Some(cap) = row_topk {
            if keep.len() > cap {
                // Diagonal first, then largest |v|; ties toward smaller
                // column index.
                keep.sort_unstable_by(|a, b| {
                    (b.0 == i)
                        .cmp(&(a.0 == i))
                        .then(b.1.abs().partial_cmp(&a.1.abs()).unwrap())
                        .then(a.0.cmp(&b.0))
                });
                keep.truncate(cap);
                keep.sort_unstable_by_key(|&(j, _)| j);
            }
        }
        for &(j, v) in &keep {
            indices.push(j);
            data.push(v);
        }
        indptr.push(indices.len());
    }
    Csr::from_raw(n, p.ncols(), indptr, indices, data)
}

/// Apply a [`CompressionPolicy`] to an explicit approximate inverse,
/// producing the block-aware compressed operator and its diagnostics.
pub fn compress(
    p: &Csr<f64>,
    policy: &CompressionPolicy,
) -> (CompressedPrecond, CompressionReport) {
    let kept = sparsify(p, policy.drop_tol, policy.row_topk);
    // Non-finite entries are excluded from the mass accounting: an ∞ from a
    // divergent build would otherwise make the ratio ∞/∞ = NaN, poisoning
    // the JSON diagnostics downstream.
    let mass = |m: &Csr<f64>| -> f64 {
        m.triplets()
            .map(|(_, _, v)| v * v)
            .filter(|v| v.is_finite())
            .sum()
    };
    let total = mass(p);
    let survived = mass(&kept);
    let nnz_after = kept.nnz();
    let precond = match policy.precision {
        StoragePrecision::F64 => CompressedPrecond::F64(SparsePrecond::new(kept)),
        StoragePrecision::F32 => CompressedPrecond::F32(SparsePrecond::new(kept.to_precision())),
    };
    let report = CompressionReport {
        nnz_before: p.nnz(),
        nnz_after,
        nnz_kept: if p.nnz() == 0 {
            1.0
        } else {
            nnz_after as f64 / p.nnz() as f64
        },
        fro_mass_kept: if total == 0.0 { 1.0 } else { survived / total },
        value_bytes_before: p.value_bytes(),
        // Read back from the built operator (`Scalar::BYTES`) so the
        // report can't drift from the storage formats it describes.
        value_bytes_after: precond.value_bytes(),
        precision: policy.precision,
    };
    (precond, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmcmi_krylov::Preconditioner;
    use mcmcmi_sparse::Coo;

    fn sample() -> Csr<f64> {
        let mut coo = Coo::new(4, 4);
        for &(i, j, v) in &[
            (0usize, 0usize, 1.0f64),
            (0, 1, 0.001),
            (0, 3, -0.5),
            (1, 1, 2.0),
            (1, 2, 0.01),
            (2, 0, 0.002),
            (2, 2, -1.5),
            (3, 3, 0.75),
            (3, 0, 0.7),
            (3, 1, 0.0005),
        ] {
            coo.push(i, j, v);
        }
        coo.to_csr()
    }

    #[test]
    fn identity_policy_is_bit_identical() {
        let p = sample();
        let kept = sparsify(&p, 0.0, None);
        assert_eq!(kept, p);
        let (cp, report) = compress(&p, &CompressionPolicy::default());
        assert_eq!(report.nnz_kept, 1.0);
        assert_eq!(report.fro_mass_kept, 1.0);
        match cp {
            CompressedPrecond::F64(sp) => assert_eq!(sp.matrix(), &p),
            _ => panic!("default policy must keep f64"),
        }
    }

    #[test]
    fn drop_tol_removes_relatively_small_entries_per_row() {
        let p = sample();
        let kept = sparsify(&p, 0.05, None);
        // Row 0: max 1.0 → threshold 0.05 drops the 0.001 entry only.
        assert_eq!(kept.row_indices(0), &[0, 3]);
        // Row 1: max 2.0 → 0.1 drops 0.01.
        assert_eq!(kept.row_indices(1), &[1]);
        // Row 3: max 0.75 → 0.0375 drops 0.0005, keeps 0.7 and 0.75.
        assert_eq!(kept.row_indices(3), &[0, 3]);
        assert!(kept.nnz() < p.nnz());
        // Values of the survivors are untouched.
        for (i, j, v) in kept.triplets() {
            assert_eq!(v, p.get(i, j));
        }
    }

    #[test]
    fn row_topk_caps_each_row_deterministically() {
        let p = sample();
        let kept = sparsify(&p, 0.0, Some(1));
        for i in 0..4 {
            assert!(kept.row_indices(i).len() <= 1);
        }
        // Row 3 keeps its largest-|v| entry (0.75 at column 3).
        assert_eq!(kept.row_indices(3), &[3]);
        assert_eq!(kept.get(3, 3), 0.75);
    }

    #[test]
    fn infinite_entry_does_not_poison_the_identity_policy() {
        // A divergent build can overflow an entry to ±∞; `0 · ∞ = NaN`
        // must not become the drop threshold and silently empty the row.
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, f64::INFINITY);
        coo.push(0, 1, 2.0);
        coo.push(1, 1, 3.0);
        let p = coo.to_csr();
        let kept = sparsify(&p, 0.0, None);
        assert_eq!(kept, p, "drop_tol = 0 must round-trip even with ∞");
        // With a positive tolerance only the infinite entry survives its
        // row (threshold ∞): finite rows are untouched.
        let harsh = sparsify(&p, 0.5, None);
        assert_eq!(harsh.row_indices(0), &[0]);
        assert_eq!(harsh.row_indices(1), &[1]);
    }

    #[test]
    #[should_panic(expected = "row_topk = 0")]
    fn zero_row_cap_is_rejected() {
        let _ = sparsify(&sample(), 0.0, Some(0));
    }

    #[test]
    fn report_tracks_mass_and_bytes() {
        let p = sample();
        let (_, r) = compress(&p, &CompressionPolicy::f32(0.05));
        assert!(r.nnz_after < r.nnz_before);
        assert!(r.nnz_kept < 1.0 && r.nnz_kept > 0.0);
        // Dropping only relatively tiny entries keeps almost all the mass.
        assert!(r.fro_mass_kept > 0.99, "{}", r.fro_mass_kept);
        assert_eq!(r.value_bytes_before, p.nnz() * 8);
        assert_eq!(r.value_bytes_after, r.nnz_after * 4);
        assert_eq!(r.precision.name(), "f32");
    }

    #[test]
    fn compression_rediscovers_structure_after_sparsification() {
        // A tridiagonal inverse polluted by tiny far-off-band couplings: the
        // raw operator defeats stencil detection, but the drop tolerance
        // removes exactly those entries, so the compressed precond
        // re-detects and dispatches the stencil kernel.
        let n = 24;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0);
            if i > 0 {
                coo.push(i, i - 1, -0.5);
                coo.push(i - 1, i, -0.5);
            }
            if i + 7 < n && i % 3 == 0 {
                coo.push(i, i + 7, 1e-8);
            }
        }
        let p = coo.to_csr();
        assert_eq!(
            mcmcmi_sparse::detect_structure(&p).kernel_name(),
            "generic-csr"
        );
        for policy in [CompressionPolicy::f64(1e-4), CompressionPolicy::f32(1e-4)] {
            let (c, _) = compress(&p, &policy);
            assert_eq!(c.kernel_name(), "stencil", "{}", policy.precision.name());
        }
        // A tolerance that keeps the stray couplings keeps the generic path.
        let (c, _) = compress(&p, &CompressionPolicy::f64(0.0));
        assert_eq!(c.kernel_name(), "generic-csr");
    }

    #[test]
    fn f32_compressed_apply_tracks_f64_apply() {
        let p = sample();
        let (c64, _) = compress(&p, &CompressionPolicy::f64(0.01));
        let (c32, _) = compress(&p, &CompressionPolicy::f32(0.01));
        let r = [0.3, -1.0, 2.0, 0.25];
        let mut z64 = vec![0.0; 4];
        let mut z32 = vec![0.0; 4];
        c64.apply(&r, &mut z64);
        c32.apply(&r, &mut z32);
        assert_eq!(c64.nnz(), c32.nnz());
        assert_eq!(c64.value_bytes(), 2 * c32.value_bytes());
        for (a, b) in z32.iter().zip(&z64) {
            assert!((a - b).abs() < 1e-6 * (1.0 + b.abs()));
        }
    }
}
