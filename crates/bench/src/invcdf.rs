//! Inverse-CDF transition sampling — the O(log nnz_row) binary search the
//! walk engine used before its alias tables. Kept here, outside the
//! library, purely as the timing baseline for the `walk_sampling` bench:
//! it realises the same MAO distribution
//! `|c_kj| / S_k` as [`WalkMatrix::sample_transition`] from the same single
//! uniform draw, but maps draws to states differently.

use mcmcmi_mcmc::WalkMatrix;
use rand::Rng;

/// Per-row cumulative `|c_kj|` tables over a [`WalkMatrix`], laid out like
/// its rows ([`WalkMatrix::row_range`] indexes both).
pub struct InvCdfSampler {
    cols: Vec<usize>,
    signs: Vec<f64>,
    cum: Vec<f64>,
}

impl InvCdfSampler {
    /// Tabulate every row of `w`.
    pub fn new(w: &WalkMatrix) -> Self {
        let mut cols = Vec::new();
        let mut signs = Vec::new();
        let mut cum = Vec::new();
        for k in 0..w.dim() {
            let mut s = 0.0;
            for (j, c) in w.row_entries(k) {
                s += c.abs();
                cols.push(j);
                signs.push(c.signum());
                cum.push(s);
            }
        }
        Self { cols, signs, cum }
    }

    /// Sample one transition out of non-absorbing row `k` of `w` (the
    /// matrix this sampler was built from); returns
    /// `(next_state, signed weight multiplier)`.
    ///
    /// # Panics
    /// Panics if the row is absorbing — check [`WalkMatrix::row_range`]
    /// first.
    #[inline]
    pub fn sample_transition<R: Rng>(&self, w: &WalkMatrix, k: usize, rng: &mut R) -> (usize, f64) {
        let (rs, re) = w.row_range(k);
        let s = w.rowsum(k);
        let u: f64 = rng.gen::<f64>() * s;
        let row_cum = &self.cum[rs..re];
        let idx = match row_cum.binary_search_by(|c| c.partial_cmp(&u).unwrap()) {
            Ok(i) => (i + 1).min(row_cum.len() - 1),
            Err(i) => i.min(row_cum.len() - 1),
        };
        (self.cols[rs + idx], self.signs[rs + idx] * s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmcmi_sparse::Coo;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn passes_chi_square_against_mao_distribution() {
        // One heavily skewed 10-entry row (off-diagonal weights 1, 2, …,
        // 10): the baseline must sample |c_kj|/S_k, or timing it against
        // the alias sampler compares different work. χ²₀.₉₉₉(9 dof) = 27.88.
        let n = 11;
        let mut coo = Coo::new(n, n);
        coo.push(0, 0, 20.0);
        for j in 1..n {
            coo.push(0, j, j as f64);
            coo.push(j, j, 1.0);
        }
        let w = WalkMatrix::from_perturbed(&coo.to_csr(), 0.0);
        let sampler = InvCdfSampler::new(&w);
        let s = w.rowsum(0);
        let draws = 200_000usize;
        let mut rng = ChaCha8Rng::seed_from_u64(12345);
        let mut counts = vec![0usize; n];
        for _ in 0..draws {
            let (j, mult) = sampler.sample_transition(&w, 0, &mut rng);
            assert!((mult.abs() - s).abs() < 1e-15);
            counts[j] += 1;
        }
        let mut stat = 0.0;
        for (j, c) in w.row_entries(0) {
            let expected = c.abs() / s * draws as f64;
            let d = counts[j] as f64 - expected;
            stat += d * d / expected;
        }
        assert!(stat < 27.88, "invcdf χ² = {stat}");
    }

    #[test]
    fn alias_and_invcdf_estimators_agree_statistically() {
        // Same Neumann-series target through both samplers on a branching
        // ring: the estimators must agree within Monte Carlo error even
        // though individual trajectories differ draw-by-draw.
        let nn = 4usize;
        let mut coo = Coo::new(nn, nn);
        for i in 0..nn {
            coo.push(i, i, 3.0);
            coo.push(i, (i + 1) % nn, -1.0);
            coo.push(i, (i + 3) % nn, -0.5);
        }
        let w = WalkMatrix::from_perturbed(&coo.to_csr(), 0.5);
        let sampler = InvCdfSampler::new(&w);
        let chains = 100_000usize;
        let delta = 1e-4f64;

        // Alias path through the production walk loop.
        let mut scratch = vec![0.0; nn];
        let mut touched = Vec::new();
        w.walk_row(0, chains, delta, 10_000, 9, &mut scratch, &mut touched);

        // Inverse-CDF path, replicating walk_row's contribution rule.
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let mut scratch_inv = vec![0.0; nn];
        for _ in 0..chains {
            let mut k = 0usize;
            let mut wgt = 1.0f64;
            scratch_inv[k] += wgt;
            loop {
                let (rs, re) = w.row_range(k);
                if rs == re {
                    break;
                }
                let (j, mult) = sampler.sample_transition(&w, k, &mut rng);
                wgt *= mult;
                k = j;
                if wgt.abs() < delta {
                    break;
                }
                scratch_inv[k] += wgt;
            }
        }
        for j in 0..nn {
            let a = scratch[j] / chains as f64;
            let b = scratch_inv[j] / chains as f64;
            assert!((a - b).abs() < 0.02, "col {j}: alias {a} vs invcdf {b}");
        }
    }
}
