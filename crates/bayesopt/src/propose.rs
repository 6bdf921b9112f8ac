//! Candidate proposal: the inner loop of Algorithm 1.
//!
//! Each batch item draws a random initial `x_M` and polishes it by
//! maximising EI with L-BFGS-B — exactly the paper's
//! `draw x⁽ʲ·ⁱⁿⁱᵗ⁾; x⁽ʲ⁾ ← L-BFGS-B maximise EI` step.

use crate::acquisition::{expected_improvement_grad, SurrogateModel};
use crate::lbfgsb::lbfgsb_minimize;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// L-BFGS-B iterations per polish.
const POLISH_ITERS: usize = 100;

/// Settings for the proposal step.
#[derive(Clone, Copy, Debug)]
pub struct ProposeConfig {
    /// Exploration parameter ξ of Eq. 3 (0.05 balanced, 1.0 exploration).
    pub xi: f64,
    /// RNG seed for the random initialisations.
    pub seed: u64,
}

impl Default for ProposeConfig {
    fn default() -> Self {
        Self { xi: 0.05, seed: 0 }
    }
}

/// `n` points drawn uniformly from the box `[lo, hi]`, in order, from one
/// ChaCha8 stream seeded with `seed` — the random starts every multi-start
/// search here polishes.
pub fn random_starts(lo: &[f64], hi: &[f64], n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            lo.iter()
                .zip(hi)
                .map(|(&l, &h)| rng.gen_range(l..=h))
                .collect()
        })
        .collect()
}

/// The `n_starts` start points [`propose_best`] polishes, in the order it
/// polishes them.
pub fn best_starts(lo: &[f64], hi: &[f64], n_starts: usize, cfg: ProposeConfig) -> Vec<Vec<f64>> {
    random_starts(lo, hi, n_starts, cfg.seed ^ 0xbead)
}

/// The first candidate whose EI is strictly the best, folding in the
/// order given — how [`propose_best`] picks among its polished starts.
///
/// # Panics
/// Panics if there are no candidates.
pub fn first_best(candidates: impl IntoIterator<Item = (Vec<f64>, f64)>) -> (Vec<f64>, f64) {
    let mut best: Option<(Vec<f64>, f64)> = None;
    for (x, ei) in candidates {
        if best.as_ref().is_none_or(|(_, b)| ei > *b) {
            best = Some((x, ei));
        }
    }
    best.expect("first_best: no candidates")
}

/// Propose a batch of `k` candidate parameter vectors by independent
/// random-start EI maximisation (Algorithm 1's inner `for j = 1..k`).
pub fn propose_batch<S: SurrogateModel>(
    surrogate: &mut S,
    y_min: f64,
    lo: &[f64],
    hi: &[f64],
    k: usize,
    cfg: ProposeConfig,
) -> Vec<Vec<f64>> {
    random_starts(lo, hi, k, cfg.seed)
        .iter()
        .map(|x0| maximize_ei(surrogate, y_min, x0, lo, hi, cfg).0)
        .collect()
}

/// Multi-start EI maximisation returning the single best candidate and its
/// EI value — the paper's final `x*_M(A) = argmax EI` recommendation step:
/// [`maximize_ei`] from each of [`best_starts`], then [`first_best`]. The
/// starts run one after another on `surrogate`; a caller whose surrogate
/// can be cloned may run them anywhere and fold the same way.
pub fn propose_best<S: SurrogateModel>(
    surrogate: &mut S,
    y_min: f64,
    lo: &[f64],
    hi: &[f64],
    n_starts: usize,
    cfg: ProposeConfig,
) -> (Vec<f64>, f64) {
    assert!(n_starts >= 1, "propose_best: need at least one start");
    first_best(
        best_starts(lo, hi, n_starts, cfg)
            .iter()
            .map(|x0| maximize_ei(surrogate, y_min, x0, lo, hi, cfg)),
    )
}

/// Maximise EI from one starting point; returns the polished point and its
/// EI.
///
/// Internally minimises `−log(EI)`: far from promising regions EI underflows
/// towards zero and its raw gradient vanishes (the classic EI plateau); the
/// log transform rescales the gradient by `1/EI`, restoring a usable descent
/// signal while preserving the argmax.
pub fn maximize_ei<S: SurrogateModel>(
    surrogate: &mut S,
    y_min: f64,
    x0: &[f64],
    lo: &[f64],
    hi: &[f64],
    cfg: ProposeConfig,
) -> (Vec<f64>, f64) {
    const FLOOR: f64 = 1e-300;
    let result = lbfgsb_minimize(
        |x| {
            let (mu, sigma, dmu, dsigma) = surrogate.predict_grad(x);
            let (ei, grad) = expected_improvement_grad(mu, sigma, &dmu, &dsigma, y_min, cfg.xi);
            let denom = ei + FLOOR;
            (-denom.ln(), grad.into_iter().map(|g| -g / denom).collect())
        },
        x0,
        lo,
        hi,
        POLISH_ITERS,
    );
    let (mu, sigma) = surrogate.predict(&result.x);
    let ei = crate::acquisition::expected_improvement(mu, sigma, y_min, cfg.xi);
    (result.x, ei)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic mock surrogate: μ̂ is a bowl centred at `target`,
    /// σ̂ grows away from `observed` (mimicking reduced certainty far from
    /// data).
    struct MockSurrogate {
        target: Vec<f64>,
        sigma0: f64,
    }

    impl SurrogateModel for MockSurrogate {
        fn dim(&self) -> usize {
            self.target.len()
        }
        fn predict(&mut self, x: &[f64]) -> (f64, f64) {
            let mu = 0.5
                + x.iter()
                    .zip(&self.target)
                    .map(|(a, b)| (a - b) * (a - b))
                    .sum::<f64>();
            (mu, self.sigma0)
        }
        fn predict_grad(&mut self, x: &[f64]) -> (f64, f64, Vec<f64>, Vec<f64>) {
            let (mu, sigma) = self.predict(x);
            let dmu: Vec<f64> = x
                .iter()
                .zip(&self.target)
                .map(|(a, b)| 2.0 * (a - b))
                .collect();
            (mu, sigma, dmu, vec![0.0; x.len()])
        }
    }

    #[test]
    fn best_proposal_finds_mu_minimum() {
        let mut s = MockSurrogate {
            target: vec![0.7, 0.2],
            sigma0: 0.1,
        };
        let (x, ei) = propose_best(
            &mut s,
            0.6,
            &[0.0, 0.0],
            &[1.0, 1.0],
            8,
            ProposeConfig {
                xi: 0.0,
                ..Default::default()
            },
        );
        assert!((x[0] - 0.7).abs() < 1e-4, "x = {x:?}");
        assert!((x[1] - 0.2).abs() < 1e-4);
        assert!(ei > 0.0);
    }

    #[test]
    fn batch_has_requested_size_and_stays_in_box() {
        let mut s = MockSurrogate {
            target: vec![0.5, 0.5],
            sigma0: 0.2,
        };
        let batch = propose_batch(
            &mut s,
            0.7,
            &[0.0, 0.0],
            &[1.0, 1.0],
            32,
            Default::default(),
        );
        assert_eq!(batch.len(), 32);
        for x in &batch {
            assert!(x.iter().all(|&v| (0.0..=1.0).contains(&v)), "{x:?}");
        }
    }

    #[test]
    fn proposals_deterministic_per_seed() {
        let mut s1 = MockSurrogate {
            target: vec![0.5, 0.5],
            sigma0: 0.2,
        };
        let mut s2 = MockSurrogate {
            target: vec![0.5, 0.5],
            sigma0: 0.2,
        };
        let b1 = propose_batch(
            &mut s1,
            0.7,
            &[0.0, 0.0],
            &[1.0, 1.0],
            4,
            Default::default(),
        );
        let b2 = propose_batch(
            &mut s2,
            0.7,
            &[0.0, 0.0],
            &[1.0, 1.0],
            4,
            Default::default(),
        );
        assert_eq!(b1, b2);
    }

    #[test]
    fn polished_batch_concentrates_near_optimum() {
        // With ξ = 0 and flat σ̂, every polished start should land at the
        // bowl minimum.
        let mut s = MockSurrogate {
            target: vec![0.3, 0.8],
            sigma0: 0.05,
        };
        let batch = propose_batch(
            &mut s,
            0.6,
            &[0.0, 0.0],
            &[1.0, 1.0],
            8,
            ProposeConfig {
                xi: 0.0,
                ..Default::default()
            },
        );
        for x in &batch {
            assert!(
                (x[0] - 0.3).abs() < 1e-3 && (x[1] - 0.8).abs() < 1e-3,
                "{x:?}"
            );
        }
    }
}
