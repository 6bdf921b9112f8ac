//! Tape-free inference: the part of the surrogate that depends on `x_M`,
//! compiled once per operator.
//!
//! For a fixed matrix the graph embedding `h_g` and the feature branch
//! `h_a = MLP(x_A)` are constants, so a `(μ̂, σ̂)` query only has to run the
//! `x_M` stack, the fused stack and the two heads. [`InferenceHead`] holds
//! exactly that: weights stored in both orientations (the forward pass
//! streams rows of `Wᵀ`, the backward pass rows of `W`), the first fused
//! block's accumulator pre-loaded with its sums over the constant
//! `[h_g | h_a]` columns, and scratch that is reused across calls.
//!
//! The head is **bit-identical** to the tape ([`crate::Surrogate::forward`]
//! followed by `Graph::backward`): every sum runs in the order of
//! `Tensor::matmul`'s i-k-j loop including its skip of exact-zero
//! multipliers, the bias is added after the product, and layer norm, ReLU
//! and softplus use the tape's expressions. That is a requirement, not a
//! nicety — L-BFGS-B on the piecewise-linear μ̂ turns a one-ulp difference
//! into a different recommendation.

use crate::layers::{Mlp, LAYER_NORM_EPS};
use crate::params::ParamSet;

/// One `Linear → [LayerNorm] → ReLU` block — of the head, and the per-edge
/// message of the tape-free EdgeConv
/// ([`crate::EdgeConvLayer::forward_values`]).
#[derive(Clone, Debug)]
pub(crate) struct Dense {
    d_in: usize,
    d_out: usize,
    /// `Wᵀ`, `d_in × d_out` row-major.
    wt: Vec<f64>,
    /// `W`, `d_out × d_in` row-major.
    w: Vec<f64>,
    /// Where the product's accumulator starts: zeros, or the sums over
    /// input columns folded away by [`Dense::fold_prefix`].
    init: Vec<f64>,
    bias: Vec<f64>,
    norm: bool,
}

/// What one block's forward pass leaves behind for its backward pass.
#[derive(Clone, Debug)]
pub(crate) struct Act {
    /// The ReLU's input (layer-normed when the block normalises).
    z: Vec<f64>,
    inv_std: f64,
    pub(crate) out: Vec<f64>,
}

impl Dense {
    /// The blocks of an MLP whose every layer is activated.
    pub(crate) fn stack(ps: &ParamSet, mlp: &Mlp) -> Vec<Dense> {
        assert!(mlp.activate_last, "InferenceHead: linear last layer");
        mlp.weights
            .iter()
            .zip(&mlp.biases)
            .map(|(&wi, &bi)| {
                let w = ps.get(wi);
                Dense {
                    d_in: w.cols(),
                    d_out: w.rows(),
                    wt: w.transpose().data().to_vec(),
                    w: w.data().to_vec(),
                    init: vec![0.0; w.rows()],
                    bias: ps.get(bi).data().to_vec(),
                    norm: mlp.layer_norm && w.rows() > 1,
                }
            })
            .collect()
    }

    /// Fix the first `consts.len()` input columns at `consts`: their share
    /// of the product becomes the accumulator's start (a prefix of the
    /// same left-to-right sum), and the block forgets those columns.
    fn fold_prefix(&mut self, consts: &[f64]) {
        let c = consts.len();
        accumulate_rows(&mut self.init, consts, &self.wt[..c * self.d_out]);
        self.wt.drain(..c * self.d_out);
        self.w = self
            .w
            .chunks(self.d_in)
            .flat_map(|row| &row[c..])
            .copied()
            .collect();
        self.d_in -= c;
    }

    /// Scratch for one forward pass of this block.
    pub(crate) fn act(&self) -> Act {
        Act {
            z: vec![0.0; self.d_out],
            inv_std: 0.0,
            out: vec![0.0; self.d_out],
        }
    }

    pub(crate) fn forward(&self, x: &[f64], act: &mut Act) {
        let z = &mut act.z;
        z.copy_from_slice(&self.init);
        accumulate_rows(z, x, &self.wt);
        for (o, &b) in z.iter_mut().zip(&self.bias) {
            *o += b;
        }
        if self.norm {
            let n = self.d_out as f64;
            let mean = z.iter().sum::<f64>() / n;
            let var = z.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
            act.inv_std = 1.0 / (var + LAYER_NORM_EPS).sqrt();
            for v in z.iter_mut() {
                *v = (*v - mean) * act.inv_std;
            }
        }
        for (o, &v) in act.out.iter_mut().zip(z.iter()) {
            *o = v.max(0.0);
        }
    }

    /// Vector–Jacobian product: `g` holds ∂/∂out on entry (and is
    /// clobbered), `gx` receives ∂/∂x.
    fn backward(&self, act: &Act, g: &mut [f64], gx: &mut [f64]) {
        for (gv, &z) in g.iter_mut().zip(&act.z) {
            if z <= 0.0 {
                *gv = 0.0;
            }
        }
        if self.norm {
            let n = self.d_out as f64;
            let mg = g.iter().sum::<f64>() / n;
            let mgy = g.iter().zip(&act.z).map(|(a, b)| a * b).sum::<f64>() / n;
            for (gv, &y) in g.iter_mut().zip(&act.z) {
                *gv = act.inv_std * (*gv - mg - y * mgy);
            }
        }
        gx.fill(0.0);
        accumulate_rows(gx, g, &self.w);
    }
}

/// `acc += Σ_k coef[k] · rows[k]` with `rows` a row-major
/// `coef.len() × acc.len()` matrix — `Tensor::matmul`'s inner loops for a
/// one-row left operand, zero skip included.
fn accumulate_rows(acc: &mut [f64], coef: &[f64], rows: &[f64]) {
    for (&c, row) in coef.iter().zip(rows.chunks(acc.len())) {
        if c == 0.0 {
            continue;
        }
        for (o, &r) in acc.iter_mut().zip(row) {
            *o += c * r;
        }
    }
}

/// The compiled `x_M → (μ̂, σ̂)` map of a surrogate on one operator — see
/// the module docs. A snapshot of the weights it was compiled from: the
/// only state that changes after [`crate::Surrogate::compile_head`] is
/// scratch and the evaluation counter, so a clone answers every query
/// with the same bits as the original.
#[derive(Clone, Debug)]
pub struct InferenceHead {
    /// The `x_M` stack followed by the fused stack, whose first block sees
    /// only the `h_m` columns.
    blocks: Vec<Dense>,
    acts: Vec<Act>,
    w_mu: Vec<f64>,
    b_mu: f64,
    w_sigma: Vec<f64>,
    b_sigma: f64,
    /// Gradient ping-pong buffers, each as wide as the widest block.
    grad: [Vec<f64>; 2],
    grad_evals: usize,
}

impl InferenceHead {
    pub(crate) fn compile(
        ps: &ParamSet,
        xa_mlp: &Mlp,
        xm_mlp: &Mlp,
        comb_mlp: &Mlp,
        head_mu: (usize, usize),
        head_sigma: (usize, usize),
        h_g: &[f64],
        xa: &[f64],
    ) -> Self {
        // The x_A branch does not depend on x_M: run it now.
        let mut consts = h_g.to_vec();
        let mut ha = xa.to_vec();
        for block in Dense::stack(ps, xa_mlp) {
            let mut act = block.act();
            block.forward(&ha, &mut act);
            ha = act.out;
        }
        consts.extend_from_slice(&ha);

        let mut blocks = Dense::stack(ps, xm_mlp);
        let mut comb = Dense::stack(ps, comb_mlp);
        comb[0].fold_prefix(&consts);
        blocks.append(&mut comb);
        let widest = blocks.iter().map(|b| b.d_in.max(b.d_out)).max();
        let grad = vec![0.0; widest.expect("Mlp has at least one layer")];
        Self {
            acts: blocks.iter().map(Dense::act).collect(),
            blocks,
            w_mu: ps.get(head_mu.0).data().to_vec(),
            b_mu: ps.get(head_mu.1).scalar(),
            w_sigma: ps.get(head_sigma.0).data().to_vec(),
            b_sigma: ps.get(head_sigma.1).scalar(),
            grad: [grad.clone(), grad],
            grad_evals: 0,
        }
    }

    /// [`InferenceHead::eval_grad`] calls served since compilation — a
    /// deterministic measure of what an optimiser spent on this head.
    pub fn grad_evals(&self) -> usize {
        self.grad_evals
    }

    /// Run the blocks at one `x_M`; returns the pre-activations of the μ̂
    /// and σ̂ heads and leaves every block's activations in `self.acts`.
    fn forward(&mut self, xm: &[f64]) -> (f64, f64) {
        assert_eq!(xm.len(), self.blocks[0].d_in, "InferenceHead: xm dimension");
        for i in 0..self.blocks.len() {
            let (done, rest) = self.acts.split_at_mut(i);
            let x = done.last().map_or(xm, |a| a.out.as_slice());
            self.blocks[i].forward(x, &mut rest[0]);
        }
        let h = &self.acts.last().expect("blocks are non-empty").out;
        let head = |w: &[f64], b: f64| {
            let mut lin = [0.0];
            accumulate_rows(&mut lin, h, w);
            lin[0] + b
        };
        (
            head(&self.w_mu, self.b_mu),
            head(&self.w_sigma, self.b_sigma),
        )
    }

    /// `(μ̂, σ̂)` at one `x_M` (Eq. 1: `μ̂ = ReLU(·)`, `σ̂ = softplus(·)`).
    pub fn eval(&mut self, xm: &[f64]) -> (f64, f64) {
        let (mu_lin, sigma_lin) = self.forward(xm);
        (mu_lin.max(0.0), softplus(sigma_lin))
    }

    /// `(μ̂, σ̂, ∂μ̂/∂x_M, ∂σ̂/∂x_M)` at one `x_M` — what the EI optimiser
    /// needs ("back-propagation supplies the exact gradient", paper §3.2),
    /// without the weight gradients nobody reads.
    pub fn eval_grad(&mut self, xm: &[f64]) -> (f64, f64, Vec<f64>, Vec<f64>) {
        let (mu_lin, sigma_lin) = self.forward(xm);
        self.grad_evals += 1;
        let dmu_dlin = if mu_lin <= 0.0 { 0.0 } else { 1.0 };
        let dsigma_dlin = if sigma_lin > 30.0 {
            1.0
        } else if sigma_lin < -30.0 {
            0.0
        } else {
            1.0 / (1.0 + (-sigma_lin).exp())
        };
        let mut pull_back =
            |seed, w_head| input_grad(&self.blocks, &self.acts, &mut self.grad, seed, w_head);
        let dmu = pull_back(dmu_dlin, &self.w_mu);
        let dsigma = pull_back(dsigma_dlin, &self.w_sigma);
        (mu_lin.max(0.0), softplus(sigma_lin), dmu, dsigma)
    }
}

/// The tape's softplus: `ln(1 + eˣ)`, linear past 30.
fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        x
    } else {
        x.exp().ln_1p()
    }
}

/// Pull `seed = ∂out/∂lin` of the head with weights `w_head` back to `x_M`
/// through the activations of the last forward pass.
fn input_grad(
    blocks: &[Dense],
    acts: &[Act],
    [g, gx]: &mut [Vec<f64>; 2],
    seed: f64,
    w_head: &[f64],
) -> Vec<f64> {
    g[..w_head.len()].fill(0.0);
    accumulate_rows(&mut g[..w_head.len()], &[seed], w_head);
    for (block, act) in blocks.iter().zip(acts).rev() {
        block.backward(act, &mut g[..block.d_out], &mut gx[..block.d_in]);
        std::mem::swap(g, gx);
    }
    g[..blocks[0].d_in].to_vec()
}
