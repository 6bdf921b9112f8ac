//! Parameter initialisation.

use crate::tensor::Tensor;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A `rows × cols` (`out × in`) weight tensor drawn from `seed`, Glorot /
/// Xavier uniform: `U(−√(6/(fan_in+fan_out)), +…)`.
pub fn xavier_uniform(rows: usize, cols: usize, seed: u64) -> Tensor {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let bound = (6.0 / (rows + cols) as f64).sqrt();
    let data: Vec<f64> = (0..rows * cols)
        .map(|_| rng.gen_range(-bound..bound))
        .collect();
    Tensor::from_vec(rows, cols, data)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xavier_bound_respected() {
        let t = xavier_uniform(64, 32, 1);
        let bound = (6.0 / 96.0f64).sqrt();
        assert!(t.data().iter().all(|v| v.abs() <= bound));
        // Not all zero / not all equal.
        assert!(t.data().iter().any(|&v| v != t.data()[0]));
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(xavier_uniform(8, 8, 3), xavier_uniform(8, 8, 3));
        assert_ne!(xavier_uniform(8, 8, 3), xavier_uniform(8, 8, 4));
    }
}
