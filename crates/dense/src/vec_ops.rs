//! Allocation-free vector kernels.
//!
//! These are the innermost loops of every Krylov solver in the workspace, so
//! they take slices and avoid bounds checks by iterating rather than indexing.

/// Dot product `xᵀy`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Euclidean norm `‖x‖₂`, with scaling to avoid overflow for large entries.
/// NaN if any entry is NaN.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    let amax = x.iter().fold(0.0_f64, |m, &v| m.max(v.abs()));
    if amax == 0.0 || !amax.is_finite() {
        return unscaled_norm(amax, x.iter());
    }
    let s: f64 = x
        .iter()
        .map(|&v| {
            let t = v / amax;
            t * t
        })
        .sum();
    amax * s.sqrt()
}

/// The norm of a vector whose largest magnitude `amax` is 0 or ∞, where the
/// scaled sum of squares cannot be formed. `f64::max` skips NaN, so such an
/// `amax` may hide NaN entries (an all-NaN vector folds to 0): look for them,
/// because a norm that reads 0 tells a solver it has converged.
fn unscaled_norm<'a>(amax: f64, mut entries: impl Iterator<Item = &'a f64>) -> f64 {
    if entries.any(|v| v.is_nan()) {
        f64::NAN
    } else if amax == 0.0 {
        0.0
    } else {
        f64::INFINITY
    }
}

/// 1-norm `‖x‖₁ = Σ|xᵢ|`.
#[inline]
pub fn norm1(x: &[f64]) -> f64 {
    x.iter().map(|v| v.abs()).sum()
}

/// ∞-norm `‖x‖∞ = max|xᵢ|`.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0_f64, |m, &v| m.max(v.abs()))
}

/// `y ← y + a·x` (BLAS `axpy`).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// `x ← a·x`.
#[inline]
pub fn scale_in_place(a: f64, x: &mut [f64]) {
    for v in x {
        *v *= a;
    }
}

/// `dst ← src` without reallocating.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn copy_into(src: &[f64], dst: &mut [f64]) {
    dst.copy_from_slice(src);
}

// ---------------------------------------------------------------------------
// Strided column kernels over row-major n×k blocks.
//
// The batched (multi-RHS) Krylov drivers store k right-hand sides as one
// row-major n×k block, so "vector" operations become strided walks over one
// column. Each kernel below performs *exactly* the same floating-point
// operations in the same order as its contiguous counterpart above — that is
// the property that makes a lockstep batched solve bit-identical to k
// sequential single-RHS solves.
// ---------------------------------------------------------------------------

/// Dot product of column `c` of two row-major `n×k` blocks.
/// Same operation order as [`dot`].
///
/// # Panics
/// Panics if the blocks differ in length or `c >= k`.
#[inline]
pub fn dot_col(x: &[f64], y: &[f64], k: usize, c: usize) -> f64 {
    assert_eq!(x.len(), y.len(), "dot_col: length mismatch");
    assert!(c < k, "dot_col: column out of range");
    x[c..]
        .iter()
        .step_by(k)
        .zip(y[c..].iter().step_by(k))
        .map(|(a, b)| a * b)
        .sum()
}

/// Euclidean norm of column `c` of a row-major `n×k` block.
/// Same overflow-safe scaling algorithm and operation order as [`norm2`].
///
/// # Panics
/// Panics if `c >= k`.
#[inline]
pub fn norm2_col(x: &[f64], k: usize, c: usize) -> f64 {
    assert!(c < k, "norm2_col: column out of range");
    let amax = x[c..]
        .iter()
        .step_by(k)
        .fold(0.0_f64, |m, &v| m.max(v.abs()));
    if amax == 0.0 || !amax.is_finite() {
        return unscaled_norm(amax, x[c..].iter().step_by(k));
    }
    let s: f64 = x[c..]
        .iter()
        .step_by(k)
        .map(|&v| {
            let t = v / amax;
            t * t
        })
        .sum();
    amax * s.sqrt()
}

/// `y[:,c] ← y[:,c] + a·x[:,c]` over row-major `n×k` blocks.
/// Same operation order as [`axpy`].
///
/// # Panics
/// Panics if the blocks differ in length or `c >= k`.
#[inline]
pub fn axpy_col(a: f64, x: &[f64], y: &mut [f64], k: usize, c: usize) {
    assert_eq!(x.len(), y.len(), "axpy_col: length mismatch");
    assert!(c < k, "axpy_col: column out of range");
    for (yi, xi) in y[c..].iter_mut().step_by(k).zip(x[c..].iter().step_by(k)) {
        *yi += a * xi;
    }
}

/// `x[:,c] ← a·x[:,c]` over a row-major `n×k` block.
/// Same operation order as [`scale_in_place`].
///
/// # Panics
/// Panics if `c >= k`.
#[inline]
pub fn scale_col(a: f64, x: &mut [f64], k: usize, c: usize) {
    assert!(c < k, "scale_col: column out of range");
    for v in x[c..].iter_mut().step_by(k) {
        *v *= a;
    }
}

// Fused whole-block kernels: one contiguous row-order sweep serves every
// (unmasked) column at once. The strided per-column kernels above touch one
// element per cache line; these touch every line once for all k columns.
//
// The columns are split into tiles of 8, 4, 2 and 1 (widest first, the
// split `Csr::spmm_rows` uses), and each tile is one sweep whose per-column
// accumulators, coefficients and mask are fixed-size arrays: registers, not
// memory, across the whole sweep. Batch widths 2, 4 and 8 are one tile each.
// A tile computes its masked-out columns too and discards them — it never
// writes them — so the inner loops have no branch. Per column every kernel
// performs the identical operation sequence of its scalar counterpart (start
// value, row order, norm passes), so results are bit-identical to the
// per-column kernels — the batched Krylov drivers rely on that.

/// Call `$tile::<W>(c, args..)` for each column tile `c..c + W` of a
/// width-`$k` block, widest first.
macro_rules! for_each_tile {
    ($k:expr, $tile:ident($($arg:expr),*)) => {{
        let k: usize = $k;
        let mut c = 0;
        while c + 8 <= k {
            $tile::<8>(c, $($arg),*);
            c += 8;
        }
        if c + 4 <= k {
            $tile::<4>(c, $($arg),*);
            c += 4;
        }
        if c + 2 <= k {
            $tile::<2>(c, $($arg),*);
            c += 2;
        }
        if c < k {
            $tile::<1>(c, $($arg),*);
        }
    }};
}

/// The mask of columns `c..c + W`.
fn tile_mask<const W: usize>(mask: &[bool], c: usize) -> [bool; W] {
    std::array::from_fn(|t| mask[c + t])
}

/// Fused dot products: `out[c] = Σ_i x[i,c]·y[i,c]` for every column with
/// `mask[c]` set (masked-out entries of `out` are set to 0). Bit-identical
/// per column to [`dot`] / [`dot_col`], signed zero included.
///
/// # Panics
/// Panics if the blocks differ in length or `mask`/`out` lengths ≠ `k`.
pub fn dot_cols_masked(x: &[f64], y: &[f64], k: usize, mask: &[bool], out: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "dot_cols_masked: length mismatch");
    assert_eq!(mask.len(), k, "dot_cols_masked: mask length mismatch");
    assert_eq!(out.len(), k, "dot_cols_masked: out length mismatch");
    for_each_tile!(k, dot_tile(x, y, k, mask, out));
}

fn dot_tile<const W: usize>(
    c: usize,
    x: &[f64],
    y: &[f64],
    k: usize,
    mask: &[bool],
    out: &mut [f64],
) {
    let live = tile_mask::<W>(mask, c);
    let out = &mut out[c..c + W];
    if !live.contains(&true) {
        out.fill(0.0);
        return;
    }
    // −0.0 is the start value of `Iterator::sum`, which [`dot`] uses: an
    // all-(−0.0) column sums to −0.0 in both.
    let mut acc = [-0.0f64; W];
    for (xr, yr) in x.chunks_exact(k).zip(y.chunks_exact(k)) {
        let (xt, yt) = (&xr[c..c + W], &yr[c..c + W]);
        for t in 0..W {
            acc[t] += xt[t] * yt[t];
        }
    }
    for t in 0..W {
        out[t] = if live[t] { acc[t] } else { 0.0 };
    }
}

/// Fused Euclidean norms of every masked column (others left untouched),
/// with the same overflow-safe scaling and operation order as [`norm2`].
///
/// # Panics
/// Panics if `mask`/`out` lengths ≠ `k`.
pub fn norm2_cols_masked(x: &[f64], k: usize, mask: &[bool], out: &mut [f64]) {
    assert_eq!(mask.len(), k, "norm2_cols_masked: mask length mismatch");
    assert_eq!(out.len(), k, "norm2_cols_masked: out length mismatch");
    for_each_tile!(k, norm2_tile(x, k, mask, out));
}

fn norm2_tile<const W: usize>(c: usize, x: &[f64], k: usize, mask: &[bool], out: &mut [f64]) {
    let live = tile_mask::<W>(mask, c);
    if !live.contains(&true) {
        return;
    }
    let mut amax = [0.0f64; W];
    for xr in x.chunks_exact(k) {
        let xt = &xr[c..c + W];
        for t in 0..W {
            amax[t] = amax[t].max(xt[t].abs());
        }
    }
    let scaled: [bool; W] = std::array::from_fn(|t| amax[t] != 0.0 && amax[t].is_finite());
    let mut sums = [0.0f64; W];
    if (0..W).any(|t| live[t] && scaled[t]) {
        for xr in x.chunks_exact(k) {
            let xt = &xr[c..c + W];
            for t in 0..W {
                let s = xt[t] / amax[t];
                sums[t] += s * s;
            }
        }
    }
    for t in 0..W {
        if live[t] {
            out[c + t] = if scaled[t] {
                amax[t] * sums[t].sqrt()
            } else {
                unscaled_norm(amax[t], x[c + t..].iter().step_by(k))
            };
        }
    }
}

/// Fused scaled updates: `y[:,c] += a[c]·x[:,c]` for every masked column
/// (others untouched). Bit-identical per column to [`axpy`] / [`axpy_col`].
///
/// # Panics
/// Panics if the blocks differ in length or `a`/`mask` lengths ≠ `k`.
pub fn axpy_cols_masked(a: &[f64], x: &[f64], y: &mut [f64], k: usize, mask: &[bool]) {
    assert_eq!(x.len(), y.len(), "axpy_cols_masked: length mismatch");
    assert_eq!(a.len(), k, "axpy_cols_masked: coefficient length mismatch");
    assert_eq!(mask.len(), k, "axpy_cols_masked: mask length mismatch");
    for_each_tile!(k, axpy_tile(a, x, y, k, mask));
}

fn axpy_tile<const W: usize>(
    c: usize,
    a: &[f64],
    x: &[f64],
    y: &mut [f64],
    k: usize,
    mask: &[bool],
) {
    let live = tile_mask::<W>(mask, c);
    if !live.contains(&true) {
        return;
    }
    let coef: [f64; W] = std::array::from_fn(|t| a[c + t]);
    let rows = y.chunks_exact_mut(k).zip(x.chunks_exact(k));
    if live.contains(&false) {
        for (yr, xr) in rows {
            let (yt, xt) = (&mut yr[c..c + W], &xr[c..c + W]);
            for t in 0..W {
                let updated = yt[t] + coef[t] * xt[t];
                yt[t] = if live[t] { updated } else { yt[t] };
            }
        }
    } else {
        // Without a select the compiler keeps the tile in one vector.
        for (yr, xr) in rows {
            let (yt, xt) = (&mut yr[c..c + W], &xr[c..c + W]);
            for t in 0..W {
                yt[t] += coef[t] * xt[t];
            }
        }
    }
}

/// Copy column `c` of a row-major `n×k` block into a contiguous vector.
///
/// # Panics
/// Panics if dimensions disagree.
#[inline]
pub fn gather_col(block: &[f64], k: usize, c: usize, dst: &mut [f64]) {
    assert!(c < k, "gather_col: column out of range");
    assert_eq!(block.len(), dst.len() * k, "gather_col: length mismatch");
    for (d, s) in dst.iter_mut().zip(block[c..].iter().step_by(k)) {
        *d = *s;
    }
}

/// Copy a contiguous vector into column `c` of a row-major `n×k` block.
///
/// # Panics
/// Panics if dimensions disagree.
#[inline]
pub fn scatter_col(src: &[f64], block: &mut [f64], k: usize, c: usize) {
    assert!(c < k, "scatter_col: column out of range");
    assert_eq!(block.len(), src.len() * k, "scatter_col: length mismatch");
    for (d, s) in block[c..].iter_mut().step_by(k).zip(src) {
        *d = *s;
    }
}

/// Copy column `c` of one row-major `n×k` block into the same column of
/// another — the block-to-block sibling of [`gather_col`]/[`scatter_col`],
/// used by the lockstep batched solvers to route per-column vectors
/// between basis blocks. A plain element copy, so trivially bit-exact.
///
/// # Panics
/// Panics if dimensions disagree.
#[inline]
pub fn copy_col(src: &[f64], dst: &mut [f64], k: usize, c: usize) {
    assert!(c < k, "copy_col: column out of range");
    assert_eq!(src.len(), dst.len(), "copy_col: length mismatch");
    for (d, s) in dst[c..]
        .iter_mut()
        .step_by(k)
        .zip(src[c..].iter().step_by(k))
    {
        *d = *s;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_matches_manual_sum() {
        let x = [1.0, 2.0, 3.0];
        let y = [4.0, -5.0, 6.0];
        assert!((dot(&x, &y) - (4.0 - 10.0 + 18.0)).abs() < 1e-15);
    }

    #[test]
    fn dot_empty_is_zero() {
        assert_eq!(dot(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let _ = dot(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn norm2_is_pythagorean() {
        assert!((norm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn norm2_scales_past_overflow() {
        let big = 1e200;
        let n = norm2(&[big, big]);
        assert!((n - big * std::f64::consts::SQRT_2).abs() / n < 1e-14);
    }

    #[test]
    fn norm2_zero_vector() {
        assert_eq!(norm2(&[0.0, 0.0, 0.0]), 0.0);
        assert_eq!(norm2(&[]), 0.0);
    }

    #[test]
    fn norms_propagate_nan() {
        // `f64::max` skips NaN: without the explicit scan the first two
        // vectors fold to amax = 0 and read as norm 0 — "converged".
        for x in [
            [f64::NAN; 3],
            [0.0, f64::NAN, 0.0],
            [1.0, f64::NAN, -2.0],
            [f64::INFINITY, f64::NAN, 1.0],
        ] {
            assert!(norm2(&x).is_nan(), "{x:?}");
            // The same vector as column 1 of a 3×2 block beside a clean one.
            let block = [3.0, x[0], 4.0, x[1], 0.0, x[2]];
            assert!(norm2_col(&block, 2, 1).is_nan(), "{x:?}");
            assert_eq!(norm2_col(&block, 2, 0), 5.0);
            for mask in [[true, true], [false, true]] {
                let mut out = [-1.0; 2];
                norm2_cols_masked(&block, 2, &mask, &mut out);
                assert!(out[1].is_nan(), "{x:?} {mask:?}");
                assert_eq!(out[0], if mask[0] { 5.0 } else { -1.0 });
            }
        }
        // Infinite without NaN stays infinite.
        assert_eq!(norm2(&[1.0, f64::NEG_INFINITY]), f64::INFINITY);
    }

    #[test]
    fn norm1_and_inf() {
        let x = [1.0, -2.0, 3.0, -4.0];
        assert!((norm1(&x) - 10.0).abs() < 1e-15);
        assert!((norm_inf(&x) - 4.0).abs() < 1e-15);
    }

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(0.5, &x, &mut y);
        assert_eq!(y, [10.5, 21.0]);
    }

    #[test]
    fn scale_in_place_works() {
        let mut x = [1.0, -2.0];
        scale_in_place(-3.0, &mut x);
        assert_eq!(x, [-3.0, 6.0]);
    }

    /// A deterministic n×k block and its k extracted columns.
    fn block_and_cols(n: usize, k: usize) -> (Vec<f64>, Vec<Vec<f64>>) {
        let block: Vec<f64> = (0..n * k)
            .map(|t| ((t * 37 + 11) as f64 * 0.193).sin() * 3.0)
            .collect();
        let cols = (0..k)
            .map(|c| (0..n).map(|i| block[i * k + c]).collect())
            .collect();
        (block, cols)
    }

    #[test]
    fn column_kernels_bit_identical_to_contiguous() {
        for &(n, k) in &[(1usize, 1usize), (7, 3), (16, 4), (33, 5)] {
            let (bx, cx) = block_and_cols(n, k);
            let (by, cy) = block_and_cols(n, k);
            for c in 0..k {
                // dot / norm2 must produce the same bits as the contiguous
                // kernels — not merely close values.
                assert_eq!(dot_col(&bx, &by, k, c), dot(&cx[c], &cy[c]));
                assert_eq!(norm2_col(&bx, k, c), norm2(&cx[c]));
                let mut yb = by.clone();
                let mut yv = cy[c].clone();
                axpy_col(0.77, &bx, &mut yb, k, c);
                axpy(0.77, &cx[c], &mut yv);
                let mut got = vec![0.0; n];
                gather_col(&yb, k, c, &mut got);
                assert_eq!(got, yv);
                let mut sb = bx.clone();
                let mut sv = cx[c].clone();
                scale_col(-1.3, &mut sb, k, c);
                scale_in_place(-1.3, &mut sv);
                let mut got = vec![0.0; n];
                gather_col(&sb, k, c, &mut got);
                assert_eq!(got, sv);
            }
        }
    }

    fn col_of(block: &[f64], k: usize, c: usize) -> Vec<f64> {
        let mut col = vec![0.0; block.len() / k];
        gather_col(block, k, c, &mut col);
        col
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Every width through the widest tile and one past it, every tile mix
    /// (8 + 1 at k = 9, 4 + 2 + 1 at k = 7, …), compared bit for bit — so
    /// −0.0 ≠ 0.0 and NaN entries compare too.
    #[test]
    fn fused_masked_kernels_bit_identical_to_per_column() {
        const SPECIAL: [f64; 4] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0];
        let n = 11;
        for k in 1..=9 {
            let mut masks = vec![vec![true; k], (0..k).map(|c| c % 2 == 0).collect()];
            masks.extend((0..k).map(|live| (0..k).map(|c| c == live).collect()));
            // Column k − 1 of x is zero and of y negative, in one of the two
            // data sets: its dot is −0.0, as `Iterator::sum` makes [`dot`]'s.
            for signed_zero in [false, true] {
                for mask in &masks {
                    let (mut bx, _) = block_and_cols(n, k);
                    let mut by: Vec<f64> = bx.iter().map(|v| 0.5 - v).collect();
                    for i in 0..n {
                        if signed_zero {
                            bx[i * k + k - 1] = 0.0;
                            by[i * k + k - 1] = -1.0 - i as f64;
                        }
                        // Masked-out columns hold what a retired column may:
                        // anything.
                        for c in (0..k).filter(|&c| !mask[c]) {
                            bx[i * k + c] = SPECIAL[(i + c) % 4];
                            by[i * k + c] = SPECIAL[(i + c + 1) % 4];
                        }
                    }
                    let seeded: Vec<f64> = (0..k).map(|c| SPECIAL[c % 4]).collect();
                    let mut dots = seeded.clone();
                    dot_cols_masked(&bx, &by, k, mask, &mut dots);
                    let mut norms = seeded.clone();
                    norm2_cols_masked(&bx, k, mask, &mut norms);
                    let a: Vec<f64> = (0..k).map(|c| 0.3 + c as f64).collect();
                    let mut yb = by.clone();
                    axpy_cols_masked(&a, &bx, &mut yb, k, mask);
                    for c in 0..k {
                        let (xc, yc) = (col_of(&bx, k, c), col_of(&by, k, c));
                        if !mask[c] {
                            assert_eq!(dots[c].to_bits(), 0.0f64.to_bits(), "k {k} dot {c}");
                            assert_eq!(norms[c].to_bits(), seeded[c].to_bits(), "k {k} norm {c}");
                            assert_eq!(bits(&col_of(&yb, k, c)), bits(&yc), "k {k} axpy {c}");
                            continue;
                        }
                        let want = dot(&xc, &yc);
                        if signed_zero && c == k - 1 {
                            assert_eq!(want.to_bits(), (-0.0f64).to_bits());
                        }
                        assert_eq!(dots[c].to_bits(), want.to_bits(), "k {k} {mask:?} dot {c}");
                        assert_eq!(dot_col(&bx, &by, k, c).to_bits(), want.to_bits());
                        assert_eq!(norms[c].to_bits(), norm2(&xc).to_bits(), "k {k} norm {c}");
                        let mut want = yc;
                        axpy(a[c], &xc, &mut want);
                        assert_eq!(bits(&col_of(&yb, k, c)), bits(&want), "k {k} axpy {c}");
                    }
                }
            }
        }
    }

    #[test]
    fn gather_scatter_roundtrip() {
        let (block, cols) = block_and_cols(9, 4);
        let mut rebuilt = vec![0.0; block.len()];
        for (c, col) in cols.iter().enumerate() {
            scatter_col(col, &mut rebuilt, 4, c);
        }
        assert_eq!(rebuilt, block);
        let mut col = vec![0.0; 9];
        gather_col(&block, 4, 2, &mut col);
        assert_eq!(col, cols[2]);
    }

    #[test]
    fn copy_col_moves_exactly_one_column() {
        let (block, cols) = block_and_cols(7, 3);
        let mut dst = vec![-1.0; block.len()];
        copy_col(&block, &mut dst, 3, 1);
        let mut got = vec![0.0; 7];
        gather_col(&dst, 3, 1, &mut got);
        assert_eq!(got, cols[1]);
        // Other columns untouched.
        for c in [0usize, 2] {
            let mut other = vec![0.0; 7];
            gather_col(&dst, 3, c, &mut other);
            assert!(other.iter().all(|&v| v == -1.0), "column {c}");
        }
    }
}
