//! The Ulam–von Neumann random-walk engine.
//!
//! Estimates rows of `M = (I − C)⁻¹ = Σ_k C^k` by running independent Markov
//! chains with MAO (Monte-Carlo-almost-optimal) transition probabilities
//! `p_ij = |c_ij| / Σ_l |c_il|`. Each visited state `k_m` contributes the
//! current weight `W_m` to entry `(i, k_m)`; on transition `k → j` the weight
//! is multiplied by `c_kj / p_kj = sign(c_kj)·S_k`, with `S_k` the row
//! absolute sum. Chains stop when `|W| < δ`, on absorption (`S_k = 0`), or at
//! a hard step cap.
//!
//! # Transition sampling: Walker/Vose alias tables
//!
//! Every transition draws from the *fixed* discrete distribution of its
//! current row, so the classic repeated-sampling optimisation applies:
//! [`WalkMatrix::from_perturbed`] precomputes a Walker/Vose **alias table**
//! per row (O(nnz) once), and each transition then costs
//! O(1) — a single 64-bit draw is split into a slot index (high bits,
//! multiply-shift) and a 32-bit fixed-point coin flip (low bits) against
//! the slot's cutoff, replacing the O(log nnz_row) binary search of
//! inverse-CDF sampling. Slots are packed to 12 bytes (cutoff, donor,
//! column+sign) so a transition resolves in one or two cache-line touches
//! with no floating-point arithmetic.
//!
//! Alias construction is Vose's stable variant: each "small" entry (scaled
//! probability < 1) keeps its own probability as the cutoff and takes a
//! "large" donor as its alias. Worklists are filled in ascending index
//! order, so the table, and hence every sampled stream, is identical on
//! every run.
//!
//! # Determinism contract
//!
//! Sampling consumes exactly **one** 64-bit word from the per-chain ChaCha
//! stream per transition, and the stream is keyed by `(seed, row, chain)`
//! only. The result of a build is therefore bit-identical for any thread
//! count or scheduling order (`RAYON_NUM_THREADS=1` vs `=8` produce equal
//! preconditioners; see `tests/determinism.rs`).
//!
//! Table set-up ([`WalkMatrix::from_perturbed`]) and the spectral probe
//! ([`WalkMatrix::abs_spectral_radius_estimate`]) run over nnz-balanced row
//! ranges in parallel once the operator clears
//! [`mcmcmi_sparse::par_threshold`]: rows are independent, every per-row
//! sum stays sequential and `max` is exact, so the tables and ρ̂ are
//! bit-equal at any thread count too.
//!
//! # The walk loop
//!
//! `WalkMatrix::walk_row` runs a row's chains one at a time, and decides a
//! chain's ending step from `|w|·S_k` before drawing it. The unit tests
//! hold it bit for bit to a reference loop that draws first.
//!
//! # The regenerative loop
//!
//! `walk_row_regen`, beside `WalkMatrix::walk_row`, is the single-budget
//! variant (*Regenerative Ulam–von Neumann*, Ghosh et al.): a row spends a
//! transition budget on cycles that restart at the row from one per-row
//! stream, with a fixed tight truncation, and its tally is divided by the
//! cycle count instead of the chain count. It reaches the builder's harvest
//! through [`crate::McmcInverse::build_regenerative`].

use mcmcmi_sparse::{nnz_balanced_ranges, par_pays_off, Csr};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// A name kept while the benchmark ledger still selects a walk engine.
/// Nothing reads it: both variants run the one walk loop. The ledger's
/// refresh deletes it with [`crate::BuildConfig::engine`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum WalkEngine {
    /// The walk loop.
    #[default]
    Scalar,
    /// The walk loop too; the lane engine it named is gone.
    Soa,
}

/// Weight magnitude past which a chain (or cycle) counts as blown up.
const BLOWUP: f64 = 1e12;

/// Fixed tight truncation of the regenerative loop: the budget, not δ,
/// limits its work.
const REGEN_DELTA: f64 = 1e-10;

/// Salt folded into the seed for the regenerative loop's per-row stream.
const REGEN_SALT: u64 = 0xd1b54a32d192ed03;

/// Deterministic stream for chain `chain` of row `row`: every transition
/// of that chain draws from this exact stream, so the estimate is
/// independent of the thread count and of the order rows are walked in.
#[inline]
pub(crate) fn chain_rng(seed: u64, row: usize, chain: usize) -> ChaCha8Rng {
    let h = seed
        ^ 0x9e3779b97f4a7c15u64.wrapping_mul(row as u64 + 1)
        ^ 0x94d049bb133111ebu64.wrapping_mul(chain as u64 + 1);
    ChaCha8Rng::seed_from_u64(h)
}

/// The Jacobi-splitting iteration matrix `C = I − D̂⁻¹Â` in walk-ready form:
/// per row, the column indices and signed values (what the spectral probe
/// streams), a Walker/Vose alias table for O(1) sampling (all a walk
/// touches), and the absolute row sum.
#[derive(Clone, Debug)]
pub struct WalkMatrix {
    n: usize,
    indptr: Vec<usize>,
    /// Column per entry, `u32` like the alias slots' copy: the probe is
    /// bandwidth-bound, and reading columns out of the 12-byte slots
    /// instead costs it 20 rather than 12 bytes per entry per sweep.
    cols: Vec<u32>,
    vals: Vec<f64>,
    /// Packed alias table, one slot per entry (aligned with `cols`).
    alias: Vec<AliasSlot>,
    /// Absolute row sums `S_k` (the weight multiplier magnitude).
    rowsum: Vec<f64>,
    /// Inverse of the perturbed diagonal `D̂⁻¹` (for assembling `P = M·D̂⁻¹`).
    inv_diag: Vec<f64>,
}

#[cfg(test)]
thread_local! {
    /// [`WalkMatrix::from_perturbed`] calls made on this thread, so tests
    /// can count the splittings a build derives.
    pub(crate) static CONSTRUCTIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Sign flag packed into [`AliasSlot::col_sign`] bit 31.
const SIGN_BIT: u32 = 1 << 31;

/// The shift σ of the spectral probe's power iteration on `|C| + σI`.
const PROBE_SHIFT: f64 = 0.5;

/// One alias-table slot, packed to 12 bytes so a transition touches one
/// (sometimes two) cache lines and needs **zero floating-point ops** to
/// resolve: the coin flip is a `u32` compare against the fixed-point
/// cutoff, and the signed weight multiplier is reconstructed as
/// `±rowsum[k]` from the sign bit folded into the column word.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct AliasSlot {
    /// In-slot acceptance cutoff, fixed point in 2⁻³² units. Saturated
    /// slots store `u32::MAX` and alias to themselves, so the 2⁻³²
    /// acceptance shortfall still selects the same entry.
    prob: u32,
    /// Donor slot within the row, selected when the coin flip fails.
    alias: u32,
    /// Column (next state) in bits 0..31; sign of the entry in bit 31.
    col_sign: u32,
}

/// Worklists of the Vose construction, reused across the rows of one range
/// so table set-up allocates per range, not per row.
#[derive(Default)]
struct AliasScratch {
    prob: Vec<f64>,
    alias: Vec<u32>,
    small: Vec<u32>,
    large: Vec<u32>,
}

/// Write the Walker/Vose alias table of one row into `slots` (`cols`/`vals`
/// are the row's entries, `s > 0` their absolute sum). Vose runs in f64 and
/// the final cutoffs are quantised to 32-bit fixed point (≈2⁻³³ rounding
/// per slot — orders of magnitude below any Monte Carlo error this engine
/// can reach). Worklists are filled in ascending index order so
/// construction is fully deterministic.
fn fill_row_alias(
    cols: &[u32],
    vals: &[f64],
    s: f64,
    scratch: &mut AliasScratch,
    slots: &mut [AliasSlot],
) {
    let m = vals.len();
    // A NaN sum (a NaN entry) passes: the table saturates, and every walk
    // into the row blows up on `S_k` before it would be sampled.
    debug_assert!(m > 0 && (s > 0.0 || s.is_nan()) && slots.len() == m && cols.len() == m);
    assert_row_width(m);
    let AliasScratch {
        prob,
        alias,
        small,
        large,
    } = scratch;
    let scale = m as f64 / s;
    prob.clear();
    prob.extend(vals.iter().map(|v| v.abs() * scale));
    alias.clear();
    alias.extend(0..m as u32);
    small.clear();
    large.clear();
    for (i, &p) in prob.iter().enumerate() {
        if p < 1.0 {
            small.push(i as u32);
        } else {
            large.push(i as u32);
        }
    }
    while let (Some(l), Some(&g)) = (small.pop(), large.last()) {
        alias[l as usize] = g;
        // Donor g covers slot l's deficit; fold the transfer into g's mass.
        let residual = (prob[g as usize] + prob[l as usize]) - 1.0;
        prob[g as usize] = residual;
        if residual < 1.0 {
            large.pop();
            small.push(g);
        }
    }
    // Leftovers (numerically ≈ 1): saturate so the alias is never taken.
    for &g in large.iter().chain(small.iter()) {
        prob[g as usize] = 1.0;
    }
    for (i, slot) in slots.iter_mut().enumerate() {
        *slot = AliasSlot {
            prob: (prob[i] * 4294967296.0).round().min(u32::MAX as f64) as u32,
            alias: alias[i],
            col_sign: cols[i] | if vals[i] < 0.0 { SIGN_BIT } else { 0 },
        };
    }
}

/// How many row ranges a pass over `work` entries is split into: one per
/// thread once the work clears the dispatch threshold, else one (serial).
pub(crate) fn row_parts(work: usize) -> usize {
    if par_pays_off(work) {
        rayon::current_num_threads()
    } else {
        1
    }
}

/// Split `buf` front to back into one slice per length in `lens`.
pub(crate) fn carve<T>(mut buf: &mut [T], lens: impl Iterator<Item = usize>) -> Vec<&mut [T]> {
    lens.map(|len| {
        let (head, tail) = std::mem::take(&mut buf).split_at_mut(len);
        buf = tail;
        head
    })
    .collect()
}

/// `â_ii` of row `i` under `Â = A + α·diag(A)`; a zero diagonal falls back
/// to `α·max(‖row‖₁, 1)`.
fn perturbed_diag(a: &Csr, alpha: f64, i: usize) -> f64 {
    let aii = a.get(i, i);
    if aii != 0.0 {
        (1.0 + alpha) * aii
    } else {
        alpha
            * a.row_values(i)
                .iter()
                .map(|v| v.abs())
                .sum::<f64>()
                .max(1.0)
    }
}

/// Off-diagonal splitting entries `(j, c_ij = −â_ij/â_ii)` of row `i`, exact
/// zeros dropped. Off-diagonal entries of `Â` equal `A`'s.
fn splitting_row(a: &Csr, i: usize, dii: f64) -> impl Iterator<Item = (usize, f64)> + '_ {
    a.row_indices(i)
        .iter()
        .zip(a.row_values(i))
        .filter(move |&(&j, _)| j != i)
        .map(move |(&j, &v)| (j, -v / dii))
        .filter(|&(_, c)| c != 0.0)
}

/// Hard guard on the packed alias representation: a row with more than
/// `u32::MAX` entries cannot be indexed by the 32-bit slot/donor fields.
/// Unreachable through [`WalkMatrix::from_perturbed`] (which rejects
/// `n ≥ 2³¹`), but a hard assert, so a release build fails loudly too.
#[inline]
fn assert_row_width(m: usize) {
    assert!(
        m <= u32::MAX as usize,
        "alias table: row with {m} entries exceeds the u32 slot-index range"
    );
}

/// Outcome summary of one row's walks.
#[derive(Clone, Copy, Debug, Default)]
pub struct RowWalkStats {
    /// Total transitions taken. Each chain's ending step (truncation or
    /// blow-up) is counted, but the walk decides it from `|w|·S_k` without
    /// a draw.
    pub transitions: usize,
    /// Chains that hit the hard step cap (possible divergence).
    pub capped: usize,
    /// Chains whose weight grew beyond the blow-up guard.
    pub blown_up: usize,
}

impl WalkMatrix {
    /// Build the splitting for `Â = A + α·diag(A)` — the paper's "scale the
    /// added diagonal" perturbation, i.e. `â_ii = (1 + α)·a_ii`, which
    /// amplifies the diagonal *sign-preservingly* (so rows with negative
    /// diagonals are regularised too, and every row's splitting sum shrinks
    /// monotonically: `S_k(α) = S_k(0)/(1 + α)`). `C = I − D̂⁻¹Â`
    /// (so `c_ii = 0`, `c_ij = −â_ij/â_ii`).
    ///
    /// Rows whose diagonal is zero fall back to `â_ii = α·max(‖row‖₁, 1)` so
    /// the perturbation still regularises them; if that is also zero
    /// (α = 0) the walk row is empty (identity fallback).
    ///
    /// Two passes over nnz-balanced row ranges, parallel once `nnz(A)`
    /// clears the dispatch threshold: the first sizes every row (so the
    /// flat arrays are allocated once, exactly), the second fills values,
    /// row sums and alias tables in place. Each row is computed by the same
    /// sequential code whichever range it lands in, so the result does not
    /// depend on the thread count.
    pub fn from_perturbed(a: &Csr, alpha: f64) -> Self {
        assert_eq!(a.nrows(), a.ncols(), "WalkMatrix: matrix must be square");
        let n = a.nrows();
        assert!(
            n < SIGN_BIT as usize,
            "WalkMatrix: dimension exceeds 2^31 − 1 (alias slots pack the \
             column and sign into one u32)"
        );
        #[cfg(test)]
        CONSTRUCTIONS.with(|c| c.set(c.get() + 1));
        let ranges = nnz_balanced_ranges(a.indptr(), row_parts(a.nnz()));
        let row_counts = || ranges.iter().map(Range::len);

        // Pass 1: perturbed diagonal and entry count of every row. A
        // degenerate diagonal (identity action, empty walk row) is stored
        // as 0.
        let mut diag = vec![0.0; n];
        let mut indptr = vec![0usize; n + 1];
        ranges
            .iter()
            .cloned()
            .zip(carve(&mut diag, row_counts()))
            .zip(carve(&mut indptr[1..], row_counts()))
            .collect::<Vec<_>>()
            .into_par_iter()
            .for_each(|((rows, diag), widths)| {
                for (i, (d, width)) in rows.zip(diag.iter_mut().zip(widths)) {
                    let dii = perturbed_diag(a, alpha, i);
                    let degenerate = dii.abs() < f64::MIN_POSITIVE;
                    if !degenerate {
                        *d = dii;
                        *width = splitting_row(a, i, dii).count();
                    }
                }
            });
        for i in 0..n {
            indptr[i + 1] += indptr[i];
        }

        // Pass 2: values, row sums and alias tables, each range writing its
        // own stretch of the flat arrays.
        let nnz = indptr[n];
        let entry_counts = || ranges.iter().map(|r| indptr[r.end] - indptr[r.start]);
        let mut cols = vec![0u32; nnz];
        let mut vals = vec![0.0; nnz];
        let mut alias = vec![AliasSlot::default(); nnz];
        let mut rowsum = vec![0.0; n];
        let mut inv_diag = vec![1.0; n];
        ranges
            .iter()
            .cloned()
            .zip(carve(&mut cols, entry_counts()))
            .zip(carve(&mut vals, entry_counts()))
            .zip(carve(&mut alias, entry_counts()))
            .zip(carve(&mut rowsum, row_counts()))
            .zip(carve(&mut inv_diag, row_counts()))
            .collect::<Vec<_>>()
            .into_par_iter()
            .for_each(|(((((rows, cols), vals), alias), rowsum), inv_diag)| {
                let base = indptr[rows.start];
                let mut scratch = AliasScratch::default();
                for (r, i) in rows.enumerate() {
                    let dii = diag[i];
                    if dii == 0.0 {
                        continue;
                    }
                    let (rs, re) = (indptr[i] - base, indptr[i + 1] - base);
                    inv_diag[r] = 1.0 / dii;
                    let mut s = 0.0;
                    let entries = cols[rs..re].iter_mut().zip(&mut vals[rs..re]);
                    for ((col, v), (j, c)) in entries.zip(splitting_row(a, i, dii)) {
                        *col = j as u32;
                        *v = c;
                        s += c.abs();
                    }
                    rowsum[r] = s;
                    if re > rs {
                        fill_row_alias(
                            &cols[rs..re],
                            &vals[rs..re],
                            s,
                            &mut scratch,
                            &mut alias[rs..re],
                        );
                    }
                }
            });
        Self {
            n,
            indptr,
            cols,
            vals,
            alias,
            rowsum,
            inv_diag,
        }
    }

    /// Dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Absolute row sum `S_k` (‖row k of C‖₁). Values ≥ 1 signal a
    /// non-contractive row: walks through it can diverge.
    pub fn rowsum(&self, k: usize) -> f64 {
        self.rowsum[k]
    }

    /// Fraction of rows with `S_k ≥ 1` — a cheap divergence predictor.
    pub fn noncontractive_fraction(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        self.rowsum.iter().filter(|&&s| s >= 1.0).count() as f64 / self.n as f64
    }

    /// Inverse perturbed diagonal.
    pub fn inv_diag(&self) -> &[f64] {
        &self.inv_diag
    }

    /// Deterministic power-iteration estimate of `ρ(|C|)`, the spectral
    /// radius of the entrywise-absolute iteration matrix — the quantity
    /// that actually governs walk-weight growth: the expected absolute
    /// weight mass after `k` steps is `‖|C|ᵏx‖`, so `ρ(|C|) < 1` means
    /// chains contract in expectation and the Neumann estimator's mass is
    /// summable, while `ρ(|C|) > 1` means weights blow up no matter how
    /// many chains are run. This is sharper than the ∞-norm bound
    /// `max_k S_k` (a matrix can have non-contractive rows yet still
    /// satisfy `ρ(|C|) < 1`) and far cheaper than running pilot walks:
    /// `iters` sweeps over the nnz of `C`, no RNG, no allocation beyond
    /// two dense vectors.
    ///
    /// The iteration actually runs on the **shifted** matrix
    /// `|C| + σI` (σ = ½) and subtracts σ from the final ratio. The shift
    /// is what makes the estimate trustworthy: Jacobi iteration matrices
    /// have zero diagonal, so `|C|` is frequently *imprimitive*
    /// (bipartite grids, directed cyclic coupling), and a plain power
    /// iteration's per-step ratio then oscillates around ρ forever —
    /// period 2 flips between `ρ·c` and `ρ/c`, longer cycles are worse —
    /// which can pass a divergent splitting or reject a contractive one.
    /// Adding σI leaves the eigenvectors untouched and shifts every
    /// eigenvalue by exactly σ (so `ρ(|C|+σI) = ρ(|C|) + σ` for a
    /// nonnegative matrix), but makes the matrix primitive whenever
    /// `|C|` is irreducible: the peripheral eigenvalues `ρ·ω` (ω a root
    /// of unity) land at `|ρω + σ| < ρ + σ`, so the ratio converges
    /// geometrically for *any* cycle period.
    ///
    /// Starts from the all-ones vector (∞-norm 1, so the very first
    /// ratio is `max_k S_k + σ` — the honest ∞-norm upper bound).
    /// `iters` below 8 is clamped: the shifted ratio needs a few sweeps
    /// to damp the oscillatory transient, and 8 extra nnz-sweeps are
    /// noise next to any build, so a degenerate `probe_iters` can never
    /// silently disable the guard. Zero rows and reducible structure are
    /// handled naturally — an all-absorbing matrix reports 0.
    ///
    /// Each sweep runs over nnz-balanced row ranges, in parallel once
    /// `nnz(C)` clears the dispatch threshold; a row's sum is sequential in
    /// entry order and the norm is an exact `max`, so the estimate is
    /// bit-equal at any thread count.
    pub fn abs_spectral_radius_estimate(&self, iters: usize) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let ranges = nnz_balanced_ranges(&self.indptr, row_parts(self.vals.len()));
        let mut x = vec![1.0; self.n];
        let mut y = vec![0.0; self.n];
        let mut lam = PROBE_SHIFT;
        for _ in 0..iters.max(8) {
            ranges
                .iter()
                .cloned()
                .zip(carve(&mut y, ranges.iter().map(Range::len)))
                .collect::<Vec<_>>()
                .into_par_iter()
                .for_each(|(rows, y)| self.shifted_abs_sweep(rows, &x, y));
            let norm = y.iter().fold(0.0f64, |m, &v| m.max(v));
            if !norm.is_finite() {
                return norm;
            }
            lam = norm;
            let inv = 1.0 / norm;
            for (xi, &yi) in x.iter_mut().zip(&y) {
                *xi = yi * inv;
            }
        }
        // The shifted iteration's ratio converges to ρ(|C|) + σ.
        (lam - PROBE_SHIFT).max(0.0)
    }

    /// One sweep of the probe over `rows`: `y ← (|C| + σI)·x` on those rows
    /// (`y[0]` is row `rows.start`), each row summed in entry order.
    fn shifted_abs_sweep(&self, rows: Range<usize>, x: &[f64], y: &mut [f64]) {
        for (i, yi) in rows.zip(y) {
            let mut s = PROBE_SHIFT * x[i];
            for (j, c) in self.row_entries(i) {
                s += c.abs() * x[j];
            }
            *yi = s;
        }
    }

    /// Signed entries `(j, c_kj)` of row `k`, in storage order.
    pub(crate) fn row_entries(&self, k: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (rs, re) = (self.indptr[k], self.indptr[k + 1]);
        self.cols[rs..re]
            .iter()
            .zip(&self.vals[rs..re])
            .map(|(&j, &c)| (j as usize, c))
    }

    /// Sample the next state from row `k` via the alias table; returns
    /// `(next_state, signed weight multiplier)` or `None` on absorption.
    #[inline]
    fn step<R: Rng>(&self, k: usize, rng: &mut R) -> Option<(usize, f64)> {
        let (rs, re) = (self.indptr[k], self.indptr[k + 1]);
        if rs == re {
            return None;
        }
        Some(self.resolve_draw(k, rng.next_u64()))
    }

    /// Map one raw 64-bit draw to a transition out of non-absorbing row
    /// `k`: `(next_state, signed weight multiplier)`. The high 32 bits pick
    /// the slot by multiply-shift, the low 32 bits are the fixed-point coin
    /// flip against the slot's cutoff.
    #[inline]
    fn resolve_draw(&self, k: usize, r: u64) -> (usize, f64) {
        let (rs, re) = (self.indptr[k], self.indptr[k + 1]);
        debug_assert!(re > rs, "resolve_draw: absorbing row");
        let m = (re - rs) as u64;
        let idx = (((r >> 32) * m) >> 32) as usize;
        let coin = r as u32;
        let slot = self.alias[rs + idx];
        let chosen = if coin < slot.prob {
            slot
        } else {
            self.alias[rs + slot.alias as usize]
        };
        let s = self.rowsum[k];
        let mult = if chosen.col_sign & SIGN_BIT == 0 {
            s
        } else {
            -s
        };
        ((chosen.col_sign & !SIGN_BIT) as usize, mult)
    }

    /// Run `n_chains` walks from row `i`, accumulating weight tallies into
    /// `scratch` (dense, length n, zeroed on entry; `touched` records the
    /// indices written so the caller can harvest sparsely). `delta` is the
    /// truncation error; `max_len` the hard step cap.
    ///
    /// Returns per-row statistics. The scratch tallies are *sums*; divide by
    /// `n_chains` to get the estimator.
    ///
    /// A step's multiplier is `±S_k`, and `|w·(±S_k)| = |w|·S_k` exactly,
    /// so whether a step ends the chain (truncation or blow-up) is decided
    /// before its draw: the ending step is counted but reads no alias slot.
    /// The chain's stream dies with it, so no later draw moves.
    ///
    /// Kept out of line: inlined into the builder's worker closure, the
    /// loop's weight and stream state spill to the stack, and a
    /// cache-resident stencil build runs about a tenth slower.
    #[inline(never)]
    pub(crate) fn walk_row(
        &self,
        i: usize,
        n_chains: usize,
        delta: f64,
        max_len: usize,
        seed: u64,
        scratch: &mut [f64],
        touched: &mut Vec<usize>,
    ) -> RowWalkStats {
        debug_assert_eq!(scratch.len(), self.n);
        let mut stats = RowWalkStats::default();
        for chain in 0..n_chains {
            // Per-chain deterministic stream: independent of scheduling.
            let mut rng = chain_rng(seed, i, chain);
            let mut k = i;
            let mut w = 1.0f64;
            // Step 0 contribution.
            if scratch[k] == 0.0 {
                touched.push(k);
            }
            scratch[k] += w;
            let mut steps = 0usize;
            loop {
                if steps >= max_len {
                    stats.capped += 1;
                    break;
                }
                if self.indptr[k] == self.indptr[k + 1] {
                    break; // absorbed
                }
                let next = w.abs() * self.rowsum[k];
                steps += 1;
                stats.transitions += 1;
                // One branch on the hot path: truncation below δ, a blow-up
                // above BLOWUP or at a non-finite weight.
                if !(delta..=BLOWUP).contains(&next) {
                    stats.blown_up += usize::from(next >= delta || next.is_nan());
                    break;
                }
                let (j, mult) = self.resolve_draw(k, rng.next_u64());
                w *= mult;
                k = j;
                if scratch[k] == 0.0 {
                    touched.push(k);
                }
                scratch[k] += w;
            }
        }
        stats
    }

    /// Regenerative twin of [`WalkMatrix::walk_row`]: cycles restart at row
    /// `i`, all drawing from one per-`(seed, row)` stream, until `budget`
    /// transitions are spent. The cycle running out the budget still ends
    /// only at its next return to `i` (so the estimator stays nearly
    /// unbiased across cycles), or on truncation at [`REGEN_DELTA`],
    /// absorption, blow-up or the `max_len` step cap.
    ///
    /// Returns the row's statistics (`capped` and `blown_up` count cycles)
    /// and the number of cycles run, the divisor of the tally.
    pub(crate) fn walk_row_regen(
        &self,
        i: usize,
        budget: usize,
        max_len: usize,
        seed: u64,
        scratch: &mut [f64],
        touched: &mut Vec<usize>,
    ) -> (RowWalkStats, usize) {
        debug_assert_eq!(scratch.len(), self.n);
        let mut stats = RowWalkStats::default();
        // Absorbing start row or zero step cap: no cycle could spend budget,
        // and one cycle's estimate, e_i, is every cycle's.
        if self.indptr[i] == self.indptr[i + 1] || max_len == 0 {
            touched.push(i);
            scratch[i] = 1.0;
            stats.capped = usize::from(max_len == 0);
            return (stats, 1);
        }
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ REGEN_SALT.wrapping_mul(i as u64 + 1));
        let mut cycles = 0;
        while stats.transitions < budget {
            cycles += 1;
            let mut k = i;
            let mut w = 1.0f64;
            if scratch[k] == 0.0 {
                touched.push(k);
            }
            scratch[k] += w;
            for steps in 0.. {
                if steps >= max_len {
                    stats.capped += 1;
                    break;
                }
                let Some((j, mult)) = self.step(k, &mut rng) else {
                    break; // absorbed
                };
                w *= mult;
                k = j;
                stats.transitions += 1;
                if w.abs() < REGEN_DELTA {
                    break;
                }
                if w.abs() > BLOWUP || !w.is_finite() {
                    stats.blown_up += 1;
                    break;
                }
                if scratch[k] == 0.0 {
                    touched.push(k);
                }
                scratch[k] += w;
                if stats.transitions >= budget && k == i {
                    break; // regeneration point with the budget spent
                }
            }
        }
        (stats, cycles)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::McmcParams;
    use mcmcmi_matgen::fd_laplace_2d;
    use mcmcmi_sparse::Coo;

    fn two_by_two() -> Csr {
        // A = [[2, -1], [-1, 2]]; with α = 0: C = [[0, 1/2], [1/2, 0]],
        // (I−C)⁻¹ = (4/3)·[[1, 1/2],[1/2, 1]].
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 2.0);
        coo.push(0, 1, -1.0);
        coo.push(1, 0, -1.0);
        coo.push(1, 1, 2.0);
        coo.to_csr()
    }

    #[test]
    fn splitting_values_are_correct() {
        let w = WalkMatrix::from_perturbed(&two_by_two(), 0.0);
        assert_eq!(w.dim(), 2);
        assert!((w.rowsum(0) - 0.5).abs() < 1e-15);
        assert!((w.rowsum(1) - 0.5).abs() < 1e-15);
        assert!((w.inv_diag()[0] - 0.5).abs() < 1e-15);
    }

    #[test]
    fn perturbation_shrinks_rowsums() {
        let w0 = WalkMatrix::from_perturbed(&two_by_two(), 0.0);
        let w2 = WalkMatrix::from_perturbed(&two_by_two(), 2.0);
        // α = 2: â_ii = 2 + 2·2 = 6 ⇒ |c_ij| = 1/6.
        assert!(w2.rowsum(0) < w0.rowsum(0));
        assert!((w2.rowsum(0) - 1.0 / 6.0).abs() < 1e-15);
    }

    #[test]
    fn walks_estimate_neumann_sum() {
        // Monte Carlo estimate of (I−C)⁻¹ row 0 = (4/3)·[1, 1/2].
        let w = WalkMatrix::from_perturbed(&two_by_two(), 0.0);
        let mut scratch = vec![0.0; 2];
        let mut touched = Vec::new();
        let chains = 200_000;
        let stats = w.walk_row(0, chains, 1e-6, 10_000, 42, &mut scratch, &mut touched);
        assert_eq!(stats.blown_up, 0);
        let m00 = scratch[0] / chains as f64;
        let m01 = scratch[1] / chains as f64;
        assert!((m00 - 4.0 / 3.0).abs() < 0.01, "m00 = {m00}");
        assert!((m01 - 2.0 / 3.0).abs() < 0.01, "m01 = {m01}");
    }

    #[test]
    fn determinism_per_seed() {
        // A ring with two neighbours per row so transitions actually branch
        // (a 2×2 system has deterministic walks regardless of seed).
        let mut coo = Coo::new(4, 4);
        for i in 0..4usize {
            coo.push(i, i, 3.0);
            coo.push(i, (i + 1) % 4, -1.0);
            coo.push(i, (i + 3) % 4, -0.5);
        }
        let w = WalkMatrix::from_perturbed(&coo.to_csr(), 0.5);
        let run = |seed| {
            let mut scratch = vec![0.0; 4];
            let mut touched = Vec::new();
            w.walk_row(0, 100, 1e-4, 100, seed, &mut scratch, &mut touched);
            scratch
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn spectral_estimate_handles_imprimitive_structure() {
        // |C| = [[0, 4], [0.5, 0]] is period-2 (cyclic), so the raw
        // per-step ∞-norm ratio oscillates between 0.5 and 4 forever; the
        // true ρ(|C|) = √2. The geometric-mean estimator must report ≈√2
        // at any iteration count — including counts of both parities and
        // the degenerate 0/1 (clamped to 2).
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, -4.0);
        coo.push(1, 0, -0.5);
        coo.push(1, 1, 1.0);
        let w = WalkMatrix::from_perturbed(&coo.to_csr(), 0.0);
        let rho = 2.0f64.sqrt();
        for iters in [31usize, 32, 33] {
            let est = w.abs_spectral_radius_estimate(iters);
            assert!(
                (est - rho).abs() < 1e-9,
                "iters = {iters}: estimate {est} vs ρ = {rho}"
            );
        }
        // Degenerate iteration counts are clamped past the oscillatory
        // transient: even iters = 0 must flag this divergent splitting
        // (the old last-ratio estimator reported 0.5 here and let a
        // divergent build through).
        for iters in [0usize, 1, 2, 8] {
            let est = w.abs_spectral_radius_estimate(iters);
            assert!(
                (est - rho).abs() < 0.05,
                "iters = {iters}: estimate {est} vs ρ = {rho}"
            );
            assert!(est > 1.0, "iters = {iters} must still flag divergence");
        }
    }

    #[test]
    fn spectral_estimate_handles_longer_cycles() {
        // Directed 3-cycle with wildly unequal weights: |C| entries 9.6,
        // 1.2, 0.15 around the cycle ⇒ ρ = (9.6·1.2·0.15)^(1/3) = 1.2.
        // Per-step ratios cycle with period 3, so any fixed-window
        // geometric mean not a multiple of 3 misestimates badly (down to
        // ~0.42 — below the safeguard limit); the shifted iteration must
        // converge to the true ρ regardless of `iters` mod 3.
        let mut coo = Coo::new(3, 3);
        for (i, wgt) in [(0usize, 9.6f64), (1, 1.2), (2, 0.15)] {
            coo.push(i, i, 1.0);
            coo.push(i, (i + 1) % 3, wgt);
        }
        let w = WalkMatrix::from_perturbed(&coo.to_csr(), 0.0);
        for iters in [30usize, 31, 32] {
            let est = w.abs_spectral_radius_estimate(iters);
            assert!(
                (est - 1.2).abs() < 1e-4,
                "iters = {iters}: estimate {est} vs ρ = 1.2"
            );
            assert!(est > 1.0, "divergent 3-cycle must be flagged");
        }
    }

    #[test]
    fn spectral_estimate_converges_on_aperiodic_structure() {
        // Ring with unequal neighbour weights and a self-damping diagonal
        // contribution through α: the estimate must agree with the exact
        // ρ(|C|) computed densely. For a circulant |C| with entries
        // (0, a, 0, b) per row, ρ = a + b (Perron value at eigenvector 1).
        let mut coo = Coo::new(4, 4);
        for i in 0..4usize {
            coo.push(i, i, 3.0);
            coo.push(i, (i + 1) % 4, -1.0);
            coo.push(i, (i + 3) % 4, -0.5);
        }
        let w = WalkMatrix::from_perturbed(&coo.to_csr(), 0.5);
        // |c| entries: 1/4.5 and 0.5/4.5 ⇒ ρ = 1.5/4.5 = 1/3.
        let est = w.abs_spectral_radius_estimate(64);
        assert!((est - 1.0 / 3.0).abs() < 1e-9, "estimate {est}");
    }

    #[test]
    fn noncontractive_rows_detected() {
        // Off-diagonal heavier than diagonal and α = 0 ⇒ S ≥ 1.
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 3.0);
        coo.push(1, 0, 3.0);
        coo.push(1, 1, 1.0);
        let w = WalkMatrix::from_perturbed(&coo.to_csr(), 0.0);
        assert_eq!(w.noncontractive_fraction(), 1.0);
        // Perturbation cures it: â_ii = 1 + 4·1 = 5, S = 3/5.
        let w4 = WalkMatrix::from_perturbed(&coo.to_csr(), 4.0);
        assert_eq!(w4.noncontractive_fraction(), 0.0);
    }

    #[test]
    fn blowup_guard_fires_on_divergent_walks() {
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(0, 1, 5.0);
        coo.push(1, 0, 5.0);
        coo.push(1, 1, 1.0);
        let w = WalkMatrix::from_perturbed(&coo.to_csr(), 0.0);
        let mut scratch = vec![0.0; 2];
        let mut touched = Vec::new();
        // δ tiny so truncation never stops the chain before blow-up.
        let stats = w.walk_row(0, 50, 1e-300, 100_000, 1, &mut scratch, &mut touched);
        assert!(stats.blown_up > 0);
    }

    /// Draw-then-decide reference for [`WalkMatrix::walk_row`]: every step
    /// is sampled and its weight multiplied before the ending conditions
    /// are checked, so a chain's ending step reads an alias slot.
    fn walk_row_drawn(
        w: &WalkMatrix,
        i: usize,
        n_chains: usize,
        delta: f64,
        max_len: usize,
        seed: u64,
        scratch: &mut [f64],
        touched: &mut Vec<usize>,
    ) -> RowWalkStats {
        let mut tally = |k: usize, wt: f64| {
            if scratch[k] == 0.0 {
                touched.push(k);
            }
            scratch[k] += wt;
        };
        let mut stats = RowWalkStats::default();
        for chain in 0..n_chains {
            let mut rng = chain_rng(seed, i, chain);
            let (mut k, mut wt) = (i, 1.0f64);
            tally(k, wt);
            for steps in 0.. {
                if steps >= max_len {
                    stats.capped += 1;
                    break;
                }
                let Some((j, mult)) = w.step(k, &mut rng) else {
                    break; // absorbed
                };
                wt *= mult;
                k = j;
                stats.transitions += 1;
                if wt.abs() < delta {
                    break;
                }
                if wt.abs() > BLOWUP || !wt.is_finite() {
                    stats.blown_up += 1;
                    break;
                }
                tally(k, wt);
            }
        }
        stats
    }

    /// `n`-row ring with diagonal 4 and off-diagonals −1 to both neighbours.
    fn ring(n: usize) -> Coo {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 4.0);
            coo.push(i, (i + 1) % n, -1.0);
            coo.push(i, (i + n - 1) % n, -1.0);
        }
        coo
    }

    /// The edges of the ending-step decision, with their parameters: every
    /// chain ending on its first step, weights turned infinite or NaN by the
    /// row sum, a path into an absorbing row, and chains that only the step
    /// cap ends. `tests/determinism.rs` builds the same five operators.
    fn ending_step_edges() -> Vec<(&'static str, Csr, McmcParams)> {
        let mut with_inf = ring(6);
        with_inf.push(2, 4, f64::INFINITY);
        let mut with_nan = ring(6);
        with_nan.push(3, 5, f64::NAN);
        // Row 0's only step leads to row 1, which has no off-diagonal.
        let mut into_absorbing = Coo::new(4, 4);
        for (i, j, v) in [(0, 0, 2.0), (0, 1, -1.0), (1, 1, 3.0), (2, 2, 4.0)] {
            into_absorbing.push(i, j, v);
        }
        for (i, j, v) in [(2, 0, -1.0), (2, 3, 1.0), (3, 3, 4.0), (3, 2, -2.0)] {
            into_absorbing.push(i, j, v);
        }
        // A = I − shift at α = 0: C is the unit cycle and |w| stays 1.
        let mut cycle = Coo::new(8, 8);
        for i in 0..8 {
            cycle.push(i, i, 1.0);
            cycle.push(i, (i + 1) % 8, -1.0);
        }
        let tight = McmcParams::new(0.5, 0.1, 1e-6);
        vec![
            (
                "delta = 1",
                fd_laplace_2d(6),
                McmcParams::new(0.5, 0.1, 1.0),
            ),
            ("infinite off-diagonal", with_inf.to_csr(), tight),
            ("NaN off-diagonal", with_nan.to_csr(), tight),
            ("path into an absorbing row", into_absorbing.to_csr(), tight),
            ("unit cycle", cycle.to_csr(), McmcParams::new(0.0, 0.5, 0.5)),
        ]
    }

    /// Row by row, on every edge of the ending-step decision, `walk_row` and
    /// the reference leave the same scratch bits, `touched` order and stats.
    #[test]
    fn walk_row_matches_the_draw_then_decide_reference() {
        const MAX_LEN: usize = 10_000;
        let trace = |n, walk: &dyn Fn(&mut [f64], &mut Vec<usize>) -> RowWalkStats| {
            let (mut scratch, mut touched) = (vec![0.0; n], Vec::new());
            let s = walk(&mut scratch, &mut touched);
            let bits: Vec<u64> = scratch.iter().map(|v| v.to_bits()).collect();
            (bits, touched, [s.transitions, s.capped, s.blown_up])
        };
        for (name, a, params) in ending_step_edges() {
            let w = WalkMatrix::from_perturbed(&a, params.alpha);
            let (n, chains, delta) = (w.dim(), params.chains_per_row(), params.delta);
            for seed in [0u64, 7] {
                for i in 0..n {
                    let got = trace(n, &|s, t| w.walk_row(i, chains, delta, MAX_LEN, seed, s, t));
                    let want = trace(n, &|s, t| {
                        walk_row_drawn(&w, i, chains, delta, MAX_LEN, seed, s, t)
                    });
                    assert_eq!(got, want, "{name}: row {i}, seed {seed}");
                }
            }
        }
    }

    /// Implied selection probability of entry `e` of row `k` under the alias
    /// table: own-slot mass plus donated mass from every slot aliasing to it.
    fn alias_implied_prob(w: &WalkMatrix, k: usize, e: usize) -> f64 {
        const FIX: f64 = 4294967296.0; // 2³², the fixed-point scale
        let (rs, re) = (w.indptr[k], w.indptr[k + 1]);
        let m = (re - rs) as f64;
        let mut p = w.alias[rs + e].prob as f64 / FIX;
        for t in 0..(re - rs) {
            if t != e && w.alias[rs + t].alias as usize == e {
                p += 1.0 - w.alias[rs + t].prob as f64 / FIX;
            }
        }
        p / m
    }

    #[test]
    fn alias_table_reconstructs_mao_probabilities() {
        // Property: for every row of several suite matrices, the alias
        // table's implied probabilities equal |c_kj| / S_k up to the 2⁻³²
        // fixed-point quantisation, and each slot carries its own entry's
        // column and sign.
        let mats = [
            mcmcmi_matgen::pdd_real_sparse(64, 7),
            fd_laplace_2d(8),
            mcmcmi_matgen::unsteady_adv_diff(8, mcmcmi_matgen::AdvDiffOrder::One),
        ];
        for a in &mats {
            let w = WalkMatrix::from_perturbed(a, 0.5);
            for k in 0..w.dim() {
                let (rs, re) = (w.indptr[k], w.indptr[k + 1]);
                let s = w.rowsum(k);
                for e in 0..(re - rs) {
                    let expect = w.vals[rs + e].abs() / s;
                    let got = alias_implied_prob(&w, k, e);
                    assert!(
                        (got - expect).abs() < 1e-8,
                        "row {k} entry {e}: implied {got} vs MAO {expect}"
                    );
                    let slot = w.alias[rs + e];
                    assert_eq!(slot.col_sign & !SIGN_BIT, w.cols[rs + e]);
                    assert_eq!(slot.col_sign & SIGN_BIT != 0, w.vals[rs + e] < 0.0);
                }
            }
        }
    }

    #[test]
    fn alias_sampler_passes_chi_square_against_mao_distribution() {
        // One heavily skewed 10-entry row; the sampler must match the MAO
        // distribution |c_kj|/S_k. χ²₀.₉₉₉(9 dof) = 27.88.
        let n = 11;
        let mut coo = Coo::new(n, n);
        coo.push(0, 0, 20.0);
        for j in 1..n {
            // Off-diagonal weights 1, 2, …, 10 — far from uniform.
            coo.push(0, j, j as f64);
        }
        for j in 1..n {
            coo.push(j, j, 1.0);
        }
        let w = WalkMatrix::from_perturbed(&coo.to_csr(), 0.0);
        assert_eq!(w.row_entries(0).count(), 10);
        let s = w.rowsum(0);
        let draws = 200_000usize;

        let mut rng = ChaCha8Rng::seed_from_u64(12345);
        let mut counts = vec![0usize; n];
        for _ in 0..draws {
            let (j, mult) = w.step(0, &mut rng).expect("row 0 is not absorbing");
            assert!((mult.abs() - s).abs() < 1e-15);
            counts[j] += 1;
        }
        let mut stat = 0.0;
        for (j, c) in w.row_entries(0) {
            let expected = c.abs() / s * draws as f64;
            let d = counts[j] as f64 - expected;
            stat += d * d / expected;
        }
        assert!(stat < 27.88, "alias χ² = {stat}");
    }

    #[test]
    fn alias_row_width_guard_panics_in_release_too() {
        // Regression for the silent-truncation hazard: the guard used to be
        // a `debug_assert!`, so a release build would pack a > 2³²-entry
        // row into garbage 32-bit slot indices. It must be a hard assert.
        let wide = u32::MAX as usize + 1;
        let caught = std::panic::catch_unwind(|| assert_row_width(wide));
        let err = caught.expect_err("oversized row must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| err.downcast_ref::<&str>().unwrap_or(&"").to_string());
        assert!(
            msg.contains("exceeds the u32 slot-index range"),
            "unexpected panic message: {msg}"
        );
        // And the boundary itself is fine.
        assert_row_width(u32::MAX as usize);
    }

    /// Serializes the tests that install the process-wide dispatch
    /// threshold, and clears it when the test ends (also on panic).
    struct ThresholdOverride(#[allow(dead_code)] std::sync::MutexGuard<'static, ()>);

    impl ThresholdOverride {
        fn install(threshold: usize) -> Self {
            static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
            let guard = LOCK.lock().unwrap_or_else(|e| e.into_inner());
            mcmcmi_sparse::set_par_threshold_for_tests(Some(threshold));
            Self(guard)
        }
    }

    impl Drop for ThresholdOverride {
        fn drop(&mut self) {
            mcmcmi_sparse::set_par_threshold_for_tests(None);
        }
    }

    fn in_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(f)
    }

    #[test]
    fn setup_and_probe_are_bit_equal_at_any_thread_count() {
        // A threshold between the two operators' nnz: the first is set up
        // and probed over per-thread row ranges, the second serially.
        const THRESHOLD: usize = 400;
        let above = mcmcmi_matgen::pdd_real_sparse(96, 3);
        let below = fd_laplace_2d(6);
        let _guard = ThresholdOverride::install(THRESHOLD);
        for (a, parts) in [(&above, 5), (&below, 1)] {
            let reference = in_pool(1, || WalkMatrix::from_perturbed(a, 0.5));
            for work in [a.nnz(), reference.vals.len()] {
                assert_eq!(in_pool(5, || row_parts(work)), parts, "{work} entries");
            }
            let rho = reference.abs_spectral_radius_estimate(32);
            for threads in [2usize, 5] {
                let (w, rho_t) = in_pool(threads, || {
                    let w = WalkMatrix::from_perturbed(a, 0.5);
                    let rho = w.abs_spectral_radius_estimate(32);
                    (w, rho)
                });
                assert_eq!(w.indptr, reference.indptr, "{threads} threads");
                assert_eq!(w.cols, reference.cols, "{threads} threads");
                assert_eq!(w.alias, reference.alias, "{threads} threads");
                assert_eq!(w.rowsum, reference.rowsum, "{threads} threads");
                assert_eq!(w.inv_diag, reference.inv_diag, "{threads} threads");
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&w.vals), bits(&reference.vals), "{threads} threads");
                assert_eq!(rho_t.to_bits(), rho.to_bits(), "{threads} threads");
            }
        }
    }

    #[test]
    fn zero_diagonal_and_degenerate_rows_split_the_same_in_every_range() {
        // Row 1 has no diagonal (falls back to α·max(‖row‖₁, 1)), row 2 is
        // empty and row 3 has an explicit zero off-diagonal: the sizing pass
        // and the fill pass must agree on every width, in one range or many.
        let mut coo = Coo::new(5, 5);
        coo.push(0, 0, 2.0);
        coo.push(0, 1, -1.0);
        coo.push(1, 0, 0.25);
        coo.push(1, 4, -0.25);
        coo.push(3, 3, 4.0);
        coo.push(3, 0, 0.0);
        coo.push(3, 4, 1.0);
        coo.push(4, 4, -3.0);
        coo.push(4, 2, 1.5);
        let a = coo.to_csr();
        let _guard = ThresholdOverride::install(1);
        for alpha in [0.0, 0.5] {
            let serial = in_pool(1, || WalkMatrix::from_perturbed(&a, alpha));
            let entries = |w: &WalkMatrix, k| w.row_entries(k).collect::<Vec<_>>();
            if alpha == 0.0 {
                // â_11 = 0·max(0.5, 1) = 0: identity fallback.
                assert!(entries(&serial, 1).is_empty());
                assert_eq!(serial.inv_diag()[1], 1.0);
            } else {
                // â_11 = 0.5·max(0.5, 1) = 0.5 ⇒ c_10 = −0.5, c_14 = 0.5.
                assert_eq!(entries(&serial, 1), vec![(0, -0.5), (4, 0.5)]);
                assert_eq!(serial.inv_diag()[1], 2.0);
            }
            assert!(entries(&serial, 2).is_empty());
            assert_eq!(entries(&serial, 3).len(), 1, "explicit zero dropped");
            let split = in_pool(3, || WalkMatrix::from_perturbed(&a, alpha));
            assert_eq!(split.indptr, serial.indptr);
            assert_eq!(split.cols, serial.cols);
            assert_eq!(split.alias, serial.alias);
            assert_eq!(split.vals, serial.vals);
            assert_eq!(split.rowsum, serial.rowsum);
            assert_eq!(split.inv_diag, serial.inv_diag);
        }
    }

    #[test]
    fn absorbing_rows_end_walks() {
        // Row 1 has no off-diagonals: every chain entering it is absorbed.
        let mut coo = Coo::new(2, 2);
        coo.push(0, 0, 2.0);
        coo.push(0, 1, -1.0);
        coo.push(1, 1, 3.0);
        let w = WalkMatrix::from_perturbed(&coo.to_csr(), 0.0);
        let mut scratch = vec![0.0; 2];
        let mut touched = Vec::new();
        let stats = w.walk_row(0, 1000, 1e-12, 10_000, 3, &mut scratch, &mut touched);
        assert_eq!(stats.capped, 0);
        assert_eq!(stats.blown_up, 0);
        // M = (I−C)⁻¹ with C = [[0, 1/2], [0, 0]] ⇒ row 0 of M = [1, 1/2].
        let m00 = scratch[0] / 1000.0;
        let m01 = scratch[1] / 1000.0;
        assert!((m00 - 1.0).abs() < 1e-12);
        assert!((m01 - 0.5).abs() < 1e-12);
    }
}
