//! Flat parameter storage shared by all model modules.
//!
//! Modules allocate tensors in a [`ParamSet`] at construction time and refer
//! to them by index; each forward pass binds the whole set into the tape as
//! leaves ([`ParamSet::bind`]) and harvests gradients in the same order
//! after `backward`. This keeps the tape free of any parameter bookkeeping.

use mcmcmi_autodiff::{Gradients, Graph, Tensor, Var};
use serde::{Deserialize, Serialize};

/// A named, flat collection of parameter tensors.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ParamSet {
    tensors: Vec<Tensor>,
    names: Vec<String>,
    /// Whether weight decay applies (true for weights, false for biases).
    decay: Vec<bool>,
}

/// Tape handles for one bound forward pass.
pub struct BoundParams {
    vars: Vec<Var>,
}

impl ParamSet {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a tensor; returns its stable index.
    pub fn register(&mut self, name: impl Into<String>, t: Tensor, decay: bool) -> usize {
        self.tensors.push(t);
        self.names.push(name.into());
        self.decay.push(decay);
        self.tensors.len() - 1
    }

    /// Number of tensors.
    pub fn len(&self) -> usize {
        self.tensors.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.tensors.is_empty()
    }

    /// Tensor accessor.
    pub fn get(&self, idx: usize) -> &Tensor {
        &self.tensors[idx]
    }

    /// Mutable access to all tensors (for the optimiser).
    pub fn tensors_mut(&mut self) -> &mut [Tensor] {
        &mut self.tensors
    }

    /// All tensors.
    pub fn tensors(&self) -> &[Tensor] {
        &self.tensors
    }

    /// Decay mask aligned with [`ParamSet::tensors`].
    pub fn decay_mask(&self) -> &[bool] {
        &self.decay
    }

    /// Parameter names (debugging / serialisation sanity checks).
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// Insert every tensor into the tape as a leaf.
    pub fn bind(&self, g: &mut Graph) -> BoundParams {
        BoundParams {
            vars: self.tensors.iter().map(|t| g.leaf(t.clone())).collect(),
        }
    }

    /// Collect gradients for every parameter (zeros where none flowed),
    /// aligned with [`ParamSet::tensors`].
    pub fn collect_grads(&self, bound: &BoundParams, grads: &Gradients) -> Vec<Tensor> {
        self.tensors
            .iter()
            .zip(&bound.vars)
            .map(|(t, &v)| grads.get_or_zero(v, t.rows(), t.cols()))
            .collect()
    }
}

impl BoundParams {
    /// Tape handle for parameter `idx`.
    pub fn var(&self, idx: usize) -> Var {
        self.vars[idx]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_bind_roundtrip() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", Tensor::full(2, 3, 1.5), true);
        let b = ps.register("b", Tensor::zeros(1, 2), false);
        assert_eq!(ps.len(), 2);
        assert_eq!(ps.tensors().iter().map(Tensor::len).sum::<usize>(), 8);
        assert_eq!(ps.decay_mask(), &[true, false]);

        let mut g = Graph::new();
        let bound = ps.bind(&mut g);
        assert_eq!(g.value(bound.var(w)).get(0, 0), 1.5);
        assert_eq!(g.value(bound.var(b)).cols(), 2);
    }

    #[test]
    fn grads_collected_in_registration_order() {
        let mut ps = ParamSet::new();
        let w = ps.register("w", Tensor::full(1, 2, 2.0), true);
        let _unused = ps.register("unused", Tensor::zeros(1, 1), true);
        let mut g = Graph::new();
        let bound = ps.bind(&mut g);
        // loss = mean(w ∘ w) ⇒ dL/dw = 2w/len = 2.0 each.
        let sq = g.square(bound.var(w));
        let loss = g.mean_all(sq);
        let grads = g.backward(loss);
        let collected = ps.collect_grads(&bound, &grads);
        assert_eq!(collected.len(), 2);
        assert!((collected[0].get(0, 0) - 2.0).abs() < 1e-12);
        // Unused parameter gets a zero gradient of the right shape.
        assert_eq!(collected[1].rows(), 1);
        assert_eq!(collected[1].get(0, 0), 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let mut ps = ParamSet::new();
        ps.register("w", Tensor::full(2, 2, 0.5), true);
        let json = serde_json::to_string(&ps).unwrap();
        let ps2: ParamSet = serde_json::from_str(&json).unwrap();
        assert_eq!(ps.tensors(), ps2.tensors());
        assert_eq!(ps.names(), ps2.names());
    }
}
