//! Optimisers: Adam with decoupled weight decay, plus global-norm gradient
//! clipping. The paper trains its surrogate with Adam (§4.4) and a weight
//! decay hyperparameter searched by TPE.

use crate::tensor::Tensor;
use serde::{Deserialize, Serialize};

/// First-moment decay.
const BETA1: f64 = 0.9;

/// Second-moment decay.
const BETA2: f64 = 0.999;

/// Numerical floor.
const EPS: f64 = 1e-8;

/// Adam hyperparameters (the moment decays and the floor are the standard
/// 0.9, 0.999 and 1e-8).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct AdamConfig {
    /// Learning rate (paper's HPO selected 1.848e-3).
    pub lr: f64,
    /// Decoupled (AdamW-style) weight decay coefficient.
    pub weight_decay: f64,
}

impl Default for AdamConfig {
    fn default() -> Self {
        Self {
            lr: 1.848e-3,
            weight_decay: 0.0,
        }
    }
}

/// Adam optimiser over a flat list of parameter tensors.
#[derive(Clone, Debug)]
pub struct Adam {
    cfg: AdamConfig,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
    t: u64,
}

impl Adam {
    /// Create state matching the given parameter shapes.
    pub fn new(cfg: AdamConfig, params: &[Tensor]) -> Self {
        let m = params
            .iter()
            .map(|p| Tensor::zeros(p.rows(), p.cols()))
            .collect();
        let v = params
            .iter()
            .map(|p| Tensor::zeros(p.rows(), p.cols()))
            .collect();
        Self { cfg, m, v, t: 0 }
    }

    /// Config accessor.
    pub fn config(&self) -> AdamConfig {
        self.cfg
    }

    /// One update step. `decay_mask[i] = false` exempts a tensor (biases,
    /// LayerNorm gains) from weight decay; pass `None` to decay everything.
    ///
    /// # Panics
    /// Panics if shapes/lengths disagree with construction.
    pub fn step(&mut self, params: &mut [Tensor], grads: &[Tensor], decay_mask: Option<&[bool]>) {
        assert_eq!(params.len(), self.m.len(), "Adam: parameter count changed");
        assert_eq!(params.len(), grads.len(), "Adam: gradient count mismatch");
        self.t += 1;
        let b1t = 1.0 - BETA1.powi(self.t as i32);
        let b2t = 1.0 - BETA2.powi(self.t as i32);
        for (i, (p, g)) in params.iter_mut().zip(grads).enumerate() {
            assert_eq!(p.len(), g.len(), "Adam: shape mismatch at tensor {i}");
            let decay = match decay_mask {
                Some(mask) => {
                    if mask[i] {
                        self.cfg.weight_decay
                    } else {
                        0.0
                    }
                }
                None => self.cfg.weight_decay,
            };
            let m = &mut self.m[i];
            let v = &mut self.v[i];
            for ((pj, &gj), (mj, vj)) in p
                .data_mut()
                .iter_mut()
                .zip(g.data())
                .zip(m.data_mut().iter_mut().zip(v.data_mut()))
            {
                *mj = BETA1 * *mj + (1.0 - BETA1) * gj;
                *vj = BETA2 * *vj + (1.0 - BETA2) * gj * gj;
                let mhat = *mj / b1t;
                let vhat = *vj / b2t;
                // Decoupled weight decay: applied directly to the parameter.
                *pj -= self.cfg.lr * (mhat / (vhat.sqrt() + EPS) + decay * *pj);
            }
        }
    }
}

/// Global-norm gradient clipping.
#[derive(Clone, Copy, Debug)]
pub struct GradClip {
    /// Maximum allowed global L2 norm.
    pub max_norm: f64,
}

impl GradClip {
    /// Scale all gradients so their concatenated L2 norm is ≤ `max_norm`.
    /// Returns the pre-clip norm.
    pub fn clip(&self, grads: &mut [Tensor]) -> f64 {
        let total: f64 = grads
            .iter()
            .map(|g| g.data().iter().map(|v| v * v).sum::<f64>())
            .sum();
        let norm = total.sqrt();
        if norm > self.max_norm && norm > 0.0 {
            let s = self.max_norm / norm;
            for g in grads.iter_mut() {
                for v in g.data_mut() {
                    *v *= s;
                }
            }
        }
        norm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimises_quadratic() {
        // f(x) = Σ (x − 3)², gradient 2(x−3).
        let mut params = vec![Tensor::full(1, 4, 10.0)];
        let mut adam = Adam::new(
            AdamConfig {
                lr: 0.1,
                ..Default::default()
            },
            &params,
        );
        for _ in 0..500 {
            let g: Vec<f64> = params[0].data().iter().map(|&x| 2.0 * (x - 3.0)).collect();
            let grads = vec![Tensor::from_vec(1, 4, g)];
            adam.step(&mut params, &grads, None);
        }
        for &x in params[0].data() {
            assert!((x - 3.0).abs() < 1e-3, "x = {x}");
        }
    }

    #[test]
    fn weight_decay_shrinks_parameters() {
        let mut params = vec![Tensor::full(1, 2, 5.0)];
        let mut adam = Adam::new(
            AdamConfig {
                lr: 0.01,
                weight_decay: 0.5,
            },
            &params,
        );
        // Zero gradients: only the decay acts.
        let grads = vec![Tensor::zeros(1, 2)];
        for _ in 0..100 {
            adam.step(&mut params, &grads, None);
        }
        assert!(params[0].data()[0] < 5.0 * 0.7);
    }

    #[test]
    fn decay_mask_exempts_biases() {
        let mut params = vec![Tensor::full(1, 2, 5.0), Tensor::full(1, 2, 5.0)];
        let mut adam = Adam::new(
            AdamConfig {
                lr: 0.01,
                weight_decay: 0.5,
            },
            &params,
        );
        let grads = vec![Tensor::zeros(1, 2), Tensor::zeros(1, 2)];
        for _ in 0..50 {
            adam.step(&mut params, &grads, Some(&[true, false]));
        }
        assert!(params[0].data()[0] < 5.0);
        assert_eq!(params[1].data()[0], 5.0);
    }

    #[test]
    fn clip_scales_to_max_norm() {
        let mut grads = vec![Tensor::full(1, 4, 3.0)]; // norm 6
        let clip = GradClip { max_norm: 1.5 };
        let pre = clip.clip(&mut grads);
        assert!((pre - 6.0).abs() < 1e-12);
        let post: f64 = grads[0].data().iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((post - 1.5).abs() < 1e-12);
    }

    #[test]
    fn clip_leaves_small_gradients_alone() {
        let mut grads = vec![Tensor::full(1, 4, 0.1)];
        let before = grads[0].clone();
        GradClip { max_norm: 10.0 }.clip(&mut grads);
        assert_eq!(grads[0], before);
    }
}
