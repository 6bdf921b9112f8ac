//! Drifting operator sequences with exact dirty-row ground truth.
//!
//! The drift-tolerant solve path (`mcmcmi_core::drift`) needs realistic
//! *sequences* of nearby operators to exercise warm starts, staleness
//! monitoring, and partial rebuilds — and its tests need to know exactly
//! which rows each step changed, independently of the CSR diff that the
//! production path computes. Each generator here is an iterator-style
//! stepper: its `advance` returns a [`DriftStep`], the next operator in
//! the sequence *plus* the exact set of rows whose values differ from the
//! previous operator's.
//!
//! The generators model regimes the paper's serving scenario meets:
//!
//! * [`CoefficientDrift`] — slow PDE-coefficient evolution: a seeded
//!   random subset of rows is rescaled a little each step (time-varying
//!   material parameters). Note that *whole-row* rescaling leaves the
//!   Jacobi-splitting walk matrix `I − D⁻¹A` invariant (diagonal and
//!   off-diagonals scale together), so the MCMC preconditioner family is
//!   nearly immune to it — good for exercising the bookkeeping, useless
//!   for staling a preconditioner.
//! * [`DiagonalShiftDrift`] — reaction/mass-term drift: only the
//!   *diagonal* of picked rows moves, which changes the
//!   off-diagonal-to-diagonal ratio and therefore the walk matrix itself.
//!   This is the generator that genuinely degrades a stale
//!   preconditioner.
//!
//! Determinism: every generator derives its per-step randomness from
//! `(seed, step_index)`, so a sequence is reproducible and two generators
//! with the same seed produce identical drift histories.

use mcmcmi_sparse::Csr;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One step of a drifting operator sequence: the drifted matrix and the
/// exact rows whose stored values changed from the previous step.
#[derive(Clone, Debug)]
pub struct DriftStep {
    /// The operator after this step.
    pub matrix: Csr,
    /// Exact dirty rows (sorted, deduplicated). Ground truth for testing
    /// `Csr::diff_rows` and the partial-rebuild path.
    pub dirty_rows: Vec<usize>,
}

fn step_rng(seed: u64, step: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(step + 1))
}

/// Slow coefficient evolution: each step rescales a seeded random subset
/// of rows by a factor near 1.
#[derive(Clone, Debug)]
pub struct CoefficientDrift {
    current: Csr,
    seed: u64,
    step: u64,
    /// Fraction of rows drifting per step.
    pub rows_per_step: f64,
    /// Maximum per-step relative change of a drifting row's values.
    pub magnitude: f64,
}

impl CoefficientDrift {
    /// A drift sequence starting from `a0`; `rows_per_step` is the
    /// fraction of rows rescaled each step (clamped to at least one row),
    /// `magnitude` the largest relative value change (e.g. `0.05` for ±5%).
    pub fn new(a0: Csr, rows_per_step: f64, magnitude: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rows_per_step));
        assert!(magnitude > 0.0 && magnitude < 1.0);
        Self {
            current: a0,
            seed,
            step: 0,
            rows_per_step,
            magnitude,
        }
    }

    /// The current operator (after all steps so far).
    pub fn current(&self) -> &Csr {
        &self.current
    }

    /// Advance one step and return the drifted operator plus exact dirty
    /// rows.
    pub fn advance(&mut self) -> DriftStep {
        let n = self.current.nrows();
        let mut rng = step_rng(self.seed, self.step);
        self.step += 1;
        let count = ((self.rows_per_step * n as f64).round() as usize).clamp(1, n);
        let mut dirty: Vec<usize> = (0..count).map(|_| rng.gen_range(0..n)).collect();
        dirty.sort_unstable();
        dirty.dedup();
        let mut next = self.current.clone();
        for &i in &dirty {
            let factor = 1.0 + rng.gen_range(-self.magnitude..self.magnitude);
            for v in next.row_values_mut(i) {
                *v *= factor;
            }
        }
        self.current = next.clone();
        DriftStep {
            matrix: next,
            dirty_rows: dirty,
        }
    }
}

/// Reaction/mass-term drift: each step multiplies the *diagonal* of a
/// seeded random subset of rows by a bounded multiplicative random walk
/// (state confined to `[min_state, max_state]` by reflection). Unlike
/// whole-row rescaling, moving only the diagonal changes the walk matrix
/// `I − D⁻¹A`, so a preconditioner built for an earlier operator really
/// does go stale — this is the drift regime the refresh ladder exists for.
///
/// With `min_state = 1` the walk never takes a diagonal below its base
/// value, so a diagonally dominant starting operator stays dominant for
/// the whole sequence. A `min_state < 1` lets the operator *harden* over
/// time (dominance margin shrinking toward the caller's floor) — the
/// caller is responsible for keeping `min_state · diag` dominant enough
/// for the downstream preconditioner.
#[derive(Clone, Debug)]
pub struct DiagonalShiftDrift {
    base_diag: Vec<f64>,
    current: Csr,
    state: Vec<f64>,
    seed: u64,
    step: u64,
    /// Fraction of rows drifting per step.
    pub rows_per_step: f64,
    /// Maximum per-step relative change of a drifting row's state.
    pub magnitude: f64,
    /// Lower bound of the per-row state (`0 < min_state ≤ 1`).
    pub min_state: f64,
    /// Upper bound of the per-row state (`≥ 1`).
    pub max_state: f64,
}

impl DiagonalShiftDrift {
    /// A diagonal-drift sequence starting from `a0` (all states start at
    /// 1). Every row must have a stored nonzero diagonal entry.
    /// `rows_per_step` is the fraction of rows whose diagonal moves each
    /// step (at least one), `magnitude` the largest relative per-step
    /// state change, `[min_state, max_state]` the bounds on the cumulative
    /// factor (`0 < min_state ≤ 1 ≤ max_state`, not both 1).
    pub fn new(
        a0: Csr,
        rows_per_step: f64,
        magnitude: f64,
        min_state: f64,
        max_state: f64,
        seed: u64,
    ) -> Self {
        assert!((0.0..=1.0).contains(&rows_per_step));
        assert!(magnitude > 0.0 && magnitude < 1.0);
        assert!(min_state > 0.0 && min_state <= 1.0);
        assert!(max_state >= 1.0 && max_state > min_state);
        let n = a0.nrows();
        let base_diag: Vec<f64> = (0..n)
            .map(|i| {
                let pos = a0
                    .row_indices(i)
                    .binary_search(&i)
                    .unwrap_or_else(|_| panic!("row {i} has no stored diagonal"));
                let d = a0.row_values(i)[pos];
                assert!(d != 0.0, "row {i} has a zero diagonal");
                d
            })
            .collect();
        Self {
            base_diag,
            current: a0,
            state: vec![1.0; n],
            seed,
            step: 0,
            rows_per_step,
            magnitude,
            min_state,
            max_state,
        }
    }

    /// The current operator.
    pub fn current(&self) -> &Csr {
        &self.current
    }

    /// Advance one step and return the drifted operator plus exact dirty
    /// rows (rows whose stored diagonal actually changed bits).
    pub fn advance(&mut self) -> DriftStep {
        let n = self.current.nrows();
        let mut rng = step_rng(self.seed, self.step);
        self.step += 1;
        let count = ((self.rows_per_step * n as f64).round() as usize).clamp(1, n);
        let mut picked: Vec<usize> = (0..count).map(|_| rng.gen_range(0..n)).collect();
        picked.sort_unstable();
        picked.dedup();
        let mut next = self.current.clone();
        let mut dirty = Vec::new();
        for &i in &picked {
            let factor = 1.0 + rng.gen_range(-self.magnitude..self.magnitude);
            let mut proposed = self.state[i] * factor;
            if !(self.min_state..=self.max_state).contains(&proposed) {
                // Reflect off the range boundary: walk the other way.
                proposed = (self.state[i] / factor).clamp(self.min_state, self.max_state);
            }
            let pos = next
                .row_indices(i)
                .binary_search(&i)
                .expect("diagonal verified at construction");
            let old = next.row_values(i)[pos];
            let new = self.base_diag[i] * proposed;
            if new.to_bits() != old.to_bits() {
                next.row_values_mut(i)[pos] = new;
                self.state[i] = proposed;
                dirty.push(i);
            }
        }
        self.current = next.clone();
        DriftStep {
            matrix: next,
            dirty_rows: dirty,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::families::fd_laplace_2d;
    use crate::random::pdd_real_sparse;

    /// Every generator's declared dirty set must exactly match the CSR
    /// value diff — that's the "ground truth" contract.
    fn check_ground_truth(prev: &Csr, step: &DriftStep) {
        assert_eq!(
            prev.diff_rows(&step.matrix),
            step.dirty_rows,
            "declared dirty rows must equal the value diff"
        );
    }

    #[test]
    fn coefficient_drift_dirty_rows_are_exact() {
        let a0 = pdd_real_sparse(48, 3);
        let mut gen = CoefficientDrift::new(a0.clone(), 0.1, 0.05, 7);
        let mut prev = a0;
        for _ in 0..10 {
            let step = gen.advance();
            check_ground_truth(&prev, &step);
            assert!(!step.dirty_rows.is_empty());
            prev = step.matrix;
        }
    }

    #[test]
    fn coefficient_drift_is_reproducible() {
        let a0 = pdd_real_sparse(32, 1);
        let mut g1 = CoefficientDrift::new(a0.clone(), 0.1, 0.02, 11);
        let mut g2 = CoefficientDrift::new(a0, 0.1, 0.02, 11);
        for _ in 0..5 {
            let s1 = g1.advance();
            let s2 = g2.advance();
            assert_eq!(s1.matrix, s2.matrix);
            assert_eq!(s1.dirty_rows, s2.dirty_rows);
        }
    }

    #[test]
    fn diagonal_shift_dirty_rows_are_exact_and_dominance_is_kept() {
        let a0 = fd_laplace_2d(10);
        let n = a0.nrows();
        let mut gen = DiagonalShiftDrift::new(a0.clone(), 0.2, 0.3, 1.0, 4.0, 13);
        let mut prev = a0.clone();
        for _ in 0..12 {
            let step = gen.advance();
            check_ground_truth(&prev, &step);
            for i in 0..n {
                let pos = step.matrix.row_indices(i).binary_search(&i).unwrap();
                let d = step.matrix.row_values(i)[pos];
                let base = a0.row_values(i)[a0.row_indices(i).binary_search(&i).unwrap()];
                // The state is confined to [1, max_state]: never below the
                // base diagonal, never above 4× it.
                assert!(d >= base - 1e-12, "row {i}: diag {d} below base {base}");
                assert!(d <= base * 4.0 + 1e-12, "row {i}: diag {d} above cap");
                // Off-diagonals are untouched.
                for (pos_j, &j) in step.matrix.row_indices(i).iter().enumerate() {
                    if j != i {
                        assert_eq!(step.matrix.row_values(i)[pos_j], a0.row_values(i)[pos_j]);
                    }
                }
            }
            prev = step.matrix;
        }
    }

    #[test]
    fn diagonal_shift_is_reproducible() {
        let a0 = fd_laplace_2d(8);
        let mut g1 = DiagonalShiftDrift::new(a0.clone(), 0.15, 0.2, 1.0, 3.0, 7);
        let mut g2 = DiagonalShiftDrift::new(a0, 0.15, 0.2, 1.0, 3.0, 7);
        for _ in 0..6 {
            let s1 = g1.advance();
            let s2 = g2.advance();
            assert_eq!(s1.matrix, s2.matrix);
            assert_eq!(s1.dirty_rows, s2.dirty_rows);
        }
    }

    #[test]
    #[should_panic(expected = "no stored diagonal")]
    fn diagonal_shift_rejects_missing_diagonal() {
        let mut coo = mcmcmi_sparse::Coo::new(2, 2);
        coo.push(0, 0, 1.0);
        coo.push(1, 0, 1.0); // row 1 has no diagonal entry
        DiagonalShiftDrift::new(coo.to_csr(), 0.5, 0.1, 1.0, 2.0, 1);
    }

    #[test]
    fn diagonal_shift_can_harden_below_the_base_diagonal() {
        let a0 = pdd_real_sparse(40, 3);
        let n = a0.nrows();
        let mut gen = DiagonalShiftDrift::new(a0.clone(), 0.3, 0.25, 0.5, 1.0, 19);
        let mut prev = a0.clone();
        let mut saw_below_base = false;
        for _ in 0..20 {
            let step = gen.advance();
            check_ground_truth(&prev, &step);
            for i in 0..n {
                let pos = step.matrix.row_indices(i).binary_search(&i).unwrap();
                let d = step.matrix.row_values(i)[pos];
                let base = a0.row_values(i)[a0.row_indices(i).binary_search(&i).unwrap()];
                assert!(d <= base + 1e-12, "max_state 1: never above base");
                assert!(d >= base * 0.5 - 1e-12, "never below min_state · base");
                saw_below_base |= d < base * 0.999;
            }
            prev = step.matrix;
        }
        assert!(saw_below_base, "states must actually wander below 1");
    }

    #[test]
    fn drift_preserves_sparsity_pattern() {
        // Value-only drift: indices never change, so partial rebuilds and
        // structure detection stay valid across the sequence.
        let a0 = pdd_real_sparse(40, 2);
        let mut gen = CoefficientDrift::new(a0.clone(), 0.2, 0.1, 5);
        for _ in 0..5 {
            let step = gen.advance();
            assert_eq!(step.matrix.nnz(), a0.nnz());
            for i in 0..a0.nrows() {
                assert_eq!(step.matrix.row_indices(i), a0.row_indices(i));
            }
        }
    }
}
