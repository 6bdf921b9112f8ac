//! Seeded inputs. Everything random in a run comes from `--seed` through
//! [`SplitMix`]; the library only ever receives the generated values.

use mcmcmi::sparse::Csr;

/// SplitMix64: small, seedable, and good enough to draw phases and
/// schedules from.
pub struct SplitMix(u64);

impl SplitMix {
    /// An independent stream for sub-purpose `tag` of `seed`.
    pub fn derive(seed: u64, tag: u64) -> Self {
        let mut s = Self(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

/// A manufactured right-hand side `b = A·x*` for the oscillatory
/// `x*_i = sin(0.7·i + p₁) + 0.3·cos(2.3·i + p₂)` with phases drawn from
/// `rng`. Oscillatory because differential operators annihilate smooth
/// vectors and would make every solver look fast; fixed frequencies because
/// iteration counts follow the spectral content of `b`, and a seed should
/// change the sample, not the difficulty.
pub fn manufactured_rhs(a: &Csr, rng: &mut SplitMix) -> Vec<f64> {
    let p1 = rng.range(0.0, std::f64::consts::TAU);
    let p2 = rng.range(0.0, std::f64::consts::TAU);
    let xstar: Vec<f64> = (0..a.ncols())
        .map(|i| (0.7 * i as f64 + p1).sin() + 0.3 * (2.3 * i as f64 + p2).cos())
        .collect();
    a.spmv_alloc(&xstar)
}

/// `pool` right-hand sides for one operator.
pub fn rhs_pool(a: &Csr, pool: usize, rng: &mut SplitMix) -> Vec<Vec<f64>> {
    (0..pool).map(|_| manufactured_rhs(a, rng)).collect()
}

/// A copy of `a` with every diagonal entry scaled by `1 + 1e-3·u`, `u`
/// uniform in `[0, 1)`: the same operator family, a different fingerprint.
pub fn perturb_diagonal(a: &Csr, rng: &mut SplitMix) -> Csr {
    let mut out = a.clone();
    for i in 0..out.nrows() {
        let scale = 1.0 + 1e-3 * rng.unit();
        let at = out.row_indices(i).iter().position(|&j| j == i);
        if let Some(k) = at {
            out.row_values_mut(i)[k] *= scale;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmcmi::matgen::fd_laplace_2d;

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let a = fd_laplace_2d(6);
        let b1 = rhs_pool(&a, 3, &mut SplitMix::derive(5, 1));
        let b2 = rhs_pool(&a, 3, &mut SplitMix::derive(5, 1));
        let b3 = rhs_pool(&a, 3, &mut SplitMix::derive(6, 1));
        assert_eq!(b1, b2);
        assert_ne!(b1, b3);
        assert_ne!(b1[0], b1[1]);
    }

    #[test]
    fn perturbation_changes_only_the_diagonal_and_the_fingerprint() {
        let a = fd_laplace_2d(6);
        let p = perturb_diagonal(&a, &mut SplitMix::derive(1, 0));
        assert_ne!(a.fingerprint(), p.fingerprint());
        for (i, j, v) in a.triplets() {
            if i == j {
                assert!((p.get(i, j) / v - 1.0).abs() <= 1e-3);
            } else {
                assert_eq!(p.get(i, j), v);
            }
        }
    }
}
