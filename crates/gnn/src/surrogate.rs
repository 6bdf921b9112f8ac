//! The full surrogate: graph embedding ⊕ matrix-feature embedding ⊕
//! MCMC-parameter embedding → fused FC stack → (μ̂, σ̂) heads (paper Eq. 1).

use crate::graph_data::MatrixGraph;
use crate::head::InferenceHead;
use crate::layers::{ConvKind, EdgeConvLayer, GatV2Layer, GcnLayer, GineLayer, Mlp, PnaLayer};
use crate::params::{BoundParams, ParamSet};
use mcmcmi_autodiff::{AggKind, Graph, Tensor, Var};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Architecture hyperparameters (the searchable space of paper §4.3).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SurrogateConfig {
    /// Message-passing family.
    pub conv: ConvKind,
    /// Neighbourhood aggregation.
    pub agg: AggKind,
    /// Number of message-passing layers (paper searched 1–4; HPO chose 1).
    pub gnn_layers: usize,
    /// Graph embedding width (HPO chose 256).
    pub gnn_hidden: usize,
    /// FC layers for `x_A` (HPO chose 1).
    pub xa_layers: usize,
    /// Width for the `x_A` stack (HPO chose 64).
    pub xa_hidden: usize,
    /// FC layers for `x_M` (HPO chose 3).
    pub xm_layers: usize,
    /// Width for the `x_M` stack (HPO chose 16).
    pub xm_hidden: usize,
    /// Combined FC layers (HPO chose 2).
    pub comb_layers: usize,
    /// Combined width (HPO chose 128).
    pub comb_hidden: usize,
    /// Dropout probability in the combined stack (searched 0–0.2).
    pub dropout: f64,
    /// Dimensionality of `x_A` (matrix features).
    pub xa_dim: usize,
    /// Dimensionality of `x_M` (α, ε, δ + solver one-hot).
    pub xm_dim: usize,
    /// Parameter-init seed.
    pub seed: u64,
}

impl SurrogateConfig {
    /// The paper's HPO-selected architecture (§4.4).
    pub fn paper(xa_dim: usize, xm_dim: usize) -> Self {
        Self {
            conv: ConvKind::EdgeConv,
            agg: AggKind::Mean,
            gnn_layers: 1,
            gnn_hidden: 256,
            xa_layers: 1,
            xa_hidden: 64,
            xm_layers: 3,
            xm_hidden: 16,
            comb_layers: 2,
            comb_hidden: 128,
            dropout: 0.1,
            xa_dim,
            xm_dim,
            seed: 42,
        }
    }

    /// CPU-friendly preset: same topology, narrower widths.
    pub fn lite(xa_dim: usize, xm_dim: usize) -> Self {
        Self {
            gnn_hidden: 64,
            xa_hidden: 32,
            xm_hidden: 16,
            comb_hidden: 64,
            ..Self::paper(xa_dim, xm_dim)
        }
    }
}

enum ConvStack {
    Edge(Vec<EdgeConvLayer>),
    Gine(Vec<GineLayer>),
    Gcn(Vec<GcnLayer>),
    Gat(Vec<GatV2Layer>),
    Pna(Vec<PnaLayer>),
}

/// The graph neural surrogate model.
pub struct Surrogate {
    cfg: SurrogateConfig,
    params: ParamSet,
    conv: ConvStack,
    xa_mlp: Mlp,
    xm_mlp: Mlp,
    comb_mlp: Mlp,
    head_mu: (usize, usize),
    head_sigma: (usize, usize),
    dropout_rng: ChaCha8Rng,
}

/// Serialisable snapshot of a surrogate (config + weights).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct SurrogateSnapshot {
    /// Architecture.
    pub config: SurrogateConfig,
    /// All parameter tensors.
    pub params: ParamSet,
}

impl Surrogate {
    /// Build a freshly initialised surrogate.
    pub fn new(cfg: SurrogateConfig) -> Self {
        assert!(
            cfg.gnn_layers >= 1,
            "Surrogate: need at least one GNN layer"
        );
        let mut ps = ParamSet::new();
        let seed = cfg.seed;
        let conv = match cfg.conv {
            ConvKind::EdgeConv => ConvStack::Edge(
                (0..cfg.gnn_layers)
                    .map(|l| {
                        let d_in = if l == 0 { 1 } else { cfg.gnn_hidden };
                        EdgeConvLayer::new(
                            &mut ps,
                            &format!("conv{l}"),
                            d_in,
                            cfg.gnn_hidden,
                            cfg.agg,
                            seed.wrapping_add(l as u64),
                        )
                    })
                    .collect(),
            ),
            ConvKind::Gine => ConvStack::Gine(
                (0..cfg.gnn_layers)
                    .map(|l| {
                        let d_in = if l == 0 { 1 } else { cfg.gnn_hidden };
                        GineLayer::new(
                            &mut ps,
                            &format!("conv{l}"),
                            d_in,
                            cfg.gnn_hidden,
                            seed.wrapping_add(100 + l as u64),
                        )
                    })
                    .collect(),
            ),
            ConvKind::Gcn => ConvStack::Gcn(
                (0..cfg.gnn_layers)
                    .map(|l| {
                        let d_in = if l == 0 { 1 } else { cfg.gnn_hidden };
                        GcnLayer::new(
                            &mut ps,
                            &format!("conv{l}"),
                            d_in,
                            cfg.gnn_hidden,
                            seed.wrapping_add(200 + l as u64),
                        )
                    })
                    .collect(),
            ),
            ConvKind::GatV2 => ConvStack::Gat(
                (0..cfg.gnn_layers)
                    .map(|l| {
                        let d_in = if l == 0 { 1 } else { cfg.gnn_hidden };
                        GatV2Layer::new(
                            &mut ps,
                            &format!("conv{l}"),
                            d_in,
                            cfg.gnn_hidden,
                            seed.wrapping_add(300 + l as u64),
                        )
                    })
                    .collect(),
            ),
            ConvKind::Pna => ConvStack::Pna(
                (0..cfg.gnn_layers)
                    .map(|l| {
                        let d_in = if l == 0 { 1 } else { cfg.gnn_hidden };
                        PnaLayer::new(
                            &mut ps,
                            &format!("conv{l}"),
                            d_in,
                            cfg.gnn_hidden,
                            seed.wrapping_add(400 + l as u64),
                        )
                    })
                    .collect(),
            ),
        };
        // FC stacks: [in, hidden × layers].
        let xa_dims: Vec<usize> = std::iter::once(cfg.xa_dim)
            .chain(std::iter::repeat_n(cfg.xa_hidden, cfg.xa_layers))
            .collect();
        let xm_dims: Vec<usize> = std::iter::once(cfg.xm_dim)
            .chain(std::iter::repeat_n(cfg.xm_hidden, cfg.xm_layers))
            .collect();
        let xa_mlp = Mlp::new(&mut ps, "xa", &xa_dims, true, true, seed ^ 0x1111);
        let xm_mlp = Mlp::new(&mut ps, "xm", &xm_dims, true, true, seed ^ 0x2222);
        let comb_in = cfg.gnn_hidden + cfg.xa_hidden + cfg.xm_hidden;
        let comb_dims: Vec<usize> = std::iter::once(comb_in)
            .chain(std::iter::repeat_n(cfg.comb_hidden, cfg.comb_layers))
            .collect();
        let comb_mlp = Mlp::new(&mut ps, "comb", &comb_dims, true, true, seed ^ 0x3333);
        let head_mu = (
            ps.register(
                "head_mu.w",
                mcmcmi_autodiff::xavier_uniform(1, cfg.comb_hidden, seed ^ 0x44),
                true,
            ),
            ps.register("head_mu.b", Tensor::zeros(1, 1), false),
        );
        let head_sigma = (
            ps.register(
                "head_sigma.w",
                mcmcmi_autodiff::xavier_uniform(1, cfg.comb_hidden, seed ^ 0x55),
                true,
            ),
            ps.register("head_sigma.b", Tensor::full(1, 1, -1.0), false),
        );
        Self {
            cfg,
            params: ps,
            conv,
            xa_mlp,
            xm_mlp,
            comb_mlp,
            head_mu,
            head_sigma,
            dropout_rng: ChaCha8Rng::seed_from_u64(seed ^ 0xd20),
        }
    }

    /// Architecture.
    pub fn config(&self) -> &SurrogateConfig {
        &self.cfg
    }

    /// Parameter store (for the optimiser).
    pub fn params(&self) -> &ParamSet {
        &self.params
    }

    /// Mutable parameter store.
    pub fn params_mut(&mut self) -> &mut ParamSet {
        &mut self.params
    }

    /// Snapshot for persistence.
    pub fn snapshot(&self) -> SurrogateSnapshot {
        SurrogateSnapshot {
            config: self.cfg,
            params: self.params.clone(),
        }
    }

    /// Restore from a snapshot.
    ///
    /// # Panics
    /// Panics if the snapshot's parameter count disagrees with the config.
    pub fn from_snapshot(snap: SurrogateSnapshot) -> Self {
        let mut s = Self::new(snap.config);
        assert_eq!(
            s.params.len(),
            snap.params.len(),
            "SurrogateSnapshot: parameter count mismatch"
        );
        s.params = snap.params;
        s
    }

    /// Graph-side forward: message passing + global mean pool → `1 × H`.
    fn graph_forward(&self, g: &mut Graph, bound: &BoundParams, data: &MatrixGraph) -> Var {
        let mut x = g.leaf(data.node_feat.clone());
        match &self.conv {
            ConvStack::Edge(layers) => {
                for l in layers {
                    x = l.forward(g, bound, data, x);
                }
            }
            ConvStack::Gine(layers) => {
                for l in layers {
                    x = l.forward(g, bound, data, x);
                }
            }
            ConvStack::Gcn(layers) => {
                for l in layers {
                    x = l.forward(g, bound, data, x);
                }
            }
            ConvStack::Gat(layers) => {
                for l in layers {
                    x = l.forward(g, bound, data, x);
                }
            }
            ConvStack::Pna(layers) => {
                for l in layers {
                    x = l.forward(g, bound, data, x);
                }
            }
        }
        g.mean_rows(x)
    }

    /// Full forward for a batch of `x_M` rows on one matrix. Returns
    /// `(μ̂, σ̂)` tape nodes, each `B × 1`. The training path, and the
    /// oracle [`InferenceHead`] is tested against.
    ///
    /// `training` enables dropout (masks drawn from the surrogate's own RNG).
    #[allow(clippy::too_many_arguments)]
    pub fn forward(
        &mut self,
        g: &mut Graph,
        bound: &BoundParams,
        data: &MatrixGraph,
        xa: &[f64],
        xm_batch: Var,
        batch: usize,
        training: bool,
    ) -> (Var, Var) {
        assert_eq!(xa.len(), self.cfg.xa_dim, "forward: xa dimension mismatch");
        let hg_row = self.graph_forward(g, bound, data);
        let hg = g.repeat_rows(hg_row, batch);
        let xa_row = g.leaf(Tensor::row_vector(xa));
        let ha_row = self.xa_mlp.forward(g, bound, xa_row);
        let ha = g.repeat_rows(ha_row, batch);
        let hm = self.xm_mlp.forward(g, bound, xm_batch);
        let cat = g.concat_cols(hg, ha);
        let fused_in = g.concat_cols(cat, hm);
        let mut h = self.comb_mlp.forward(g, bound, fused_in);
        if training && self.cfg.dropout > 0.0 {
            let len = g.value(h).len();
            let p = self.cfg.dropout;
            let mask: Vec<f64> = (0..len)
                .map(|_| {
                    if self.dropout_rng.gen::<f64>() < p {
                        0.0
                    } else {
                        1.0
                    }
                })
                .collect();
            h = g.dropout(h, &mask, p);
        }
        // Heads (Eq. 1): μ̂ = ReLU(Wh + b), σ̂ = softplus(Wh + b).
        let mu_lin = g.linear(h, bound.var(self.head_mu.0), bound.var(self.head_mu.1));
        let mu = g.relu(mu_lin);
        let sg_lin = g.linear(
            h,
            bound.var(self.head_sigma.0),
            bound.var(self.head_sigma.1),
        );
        let sigma = g.softplus(sg_lin);
        (mu, sigma)
    }

    /// Compute the graph embedding `h_g` as a plain tensor (no grads), the
    /// same bits as the tape's graph side. EdgeConv — every depth and
    /// aggregation — runs without the tape, edge by edge into per-node
    /// buckets, and pools as `Graph::mean_rows` does; the other conv kinds,
    /// which only the ablation and HPO sweeps build, record a tape and drop
    /// it.
    pub fn embed_graph(&self, data: &MatrixGraph) -> Tensor {
        let ConvStack::Edge(layers) = &self.conv else {
            let mut g = Graph::new();
            let bound = self.params.bind(&mut g);
            let hg = self.graph_forward(&mut g, &bound, data);
            return g.value(hg).clone();
        };
        let mut x = data.node_feat.clone();
        for l in layers {
            x = l.forward_values(&self.params, data, &x);
        }
        assert!(x.rows() > 0, "embed_graph: empty graph");
        let mut pooled = Tensor::zeros(1, x.cols());
        for r in 0..x.rows() {
            for (o, &v) in pooled.row_mut(0).iter_mut().zip(x.row(r)) {
                *o += v;
            }
        }
        for v in pooled.data_mut() {
            *v /= x.rows() as f64;
        }
        pooled
    }

    /// Compile the inference head for one operator: everything that does
    /// not depend on `x_M` (the `x_A` branch, the fused stack's sums over
    /// `[h_g | h_a]`, the weight layouts) is done here, once, so that each
    /// of the thousands of EI evaluations that follow costs only the
    /// arithmetic that does. The head is a snapshot — later optimiser
    /// steps on `self` do not reach it.
    pub fn compile_head(&self, h_g: &Tensor, xa: &[f64]) -> InferenceHead {
        assert_eq!(xa.len(), self.cfg.xa_dim, "compile_head: xa dimension");
        assert_eq!(
            (h_g.rows(), h_g.cols()),
            (1, self.cfg.gnn_hidden),
            "compile_head: h_g shape"
        );
        InferenceHead::compile(
            &self.params,
            &self.xa_mlp,
            &self.xm_mlp,
            &self.comb_mlp,
            self.head_mu,
            self.head_sigma,
            h_g.data(),
            xa,
        )
    }

    /// Predict `(μ̂, σ̂)` for one `x_M` on a matrix with a precomputed
    /// embedding (inference mode, no dropout). Compiles a head per call —
    /// callers with more than one `x_M` should hold the head themselves.
    pub fn predict(&mut self, h_g: &Tensor, xa: &[f64], xm: &[f64]) -> (f64, f64) {
        self.compile_head(h_g, xa).eval(xm)
    }

    /// Predict with input gradients: returns
    /// `(μ̂, σ̂, ∂μ̂/∂x_M, ∂σ̂/∂x_M)`; see [`InferenceHead::eval_grad`].
    pub fn predict_grad(
        &mut self,
        h_g: &Tensor,
        xa: &[f64],
        xm: &[f64],
    ) -> (f64, f64, Vec<f64>, Vec<f64>) {
        self.compile_head(h_g, xa).eval_grad(xm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmcmi_matgen::laplace_1d;

    fn small_cfg() -> SurrogateConfig {
        SurrogateConfig {
            gnn_hidden: 8,
            xa_hidden: 4,
            xm_hidden: 4,
            comb_hidden: 8,
            ..SurrogateConfig::lite(5, 6)
        }
    }

    fn toy_data() -> MatrixGraph {
        MatrixGraph::from_csr(&laplace_1d(6))
    }

    #[test]
    fn forward_shapes_and_head_ranges() {
        let mut s = Surrogate::new(small_cfg());
        let data = toy_data();
        let xa = [0.1, -0.2, 0.3, 0.0, 1.0];
        let xm = Tensor::from_vec(
            2,
            6,
            vec![
                1.0, 0.5, 0.5, 1.0, 0.0, 0.0, 2.0, 0.25, 0.125, 0.0, 1.0, 0.0,
            ],
        );
        let mut g = Graph::new();
        let bound = s.params.bind(&mut g);
        let xm_var = g.leaf(xm);
        let (mu, sigma) = s.forward(&mut g, &bound, &data, &xa, xm_var, 2, false);
        assert_eq!(g.value(mu).rows(), 2);
        assert_eq!(g.value(sigma).rows(), 2);
        // Heads respect their codomain: μ̂ ≥ 0, σ̂ > 0.
        assert!(g.value(mu).data().iter().all(|&v| v >= 0.0));
        assert!(g.value(sigma).data().iter().all(|&v| v > 0.0));
    }

    #[test]
    fn embedding_fast_path_matches_full_forward() {
        let mut s = Surrogate::new(small_cfg());
        let data = toy_data();
        let xa = [0.5, 0.5, -0.5, 0.2, 0.0];
        let xm = [1.0, 0.5, 0.25, 1.0, 0.0, 0.0];
        let h_g = s.embed_graph(&data);
        let (mu_fast, sg_fast) = s.predict(&h_g, &xa, &xm);
        // Full forward.
        let mut g = Graph::new();
        let bound = s.params.bind(&mut g);
        let xm_var = g.leaf(Tensor::row_vector(&xm));
        let (mu, sigma) = s.forward(&mut g, &bound, &data, &xa, xm_var, 1, false);
        assert_eq!(g.value(mu).scalar().to_bits(), mu_fast.to_bits());
        assert_eq!(g.value(sigma).scalar().to_bits(), sg_fast.to_bits());
    }

    /// The tape's graph side: what [`Surrogate::embed_graph`] must equal.
    fn tape_embedding(s: &Surrogate, data: &MatrixGraph) -> Tensor {
        let mut g = Graph::new();
        let bound = s.params.bind(&mut g);
        let hg = s.graph_forward(&mut g, &bound, data);
        g.value(hg).clone()
    }

    /// Graphs the tape-free EdgeConv must reduce exactly as the tape does:
    /// uneven in-degrees (the mean's `1/count` is inexact), constant
    /// features (every product takes `matmul`'s zero skip), receivers with
    /// no incoming edge, and an operator with no edge at all.
    fn oracle_graphs() -> Vec<(&'static str, MatrixGraph)> {
        let mut upper = mcmcmi_sparse::Coo::new(7, 7);
        for i in 0..7usize {
            upper.push(i, i, 4.0);
            if i % 3 != 2 && i + 1 < 7 {
                upper.push(i, i + 1, -1.5);
            }
            if i < 3 {
                upper.push(i, 6, 0.5);
            }
        }
        let mut diagonal = mcmcmi_sparse::Coo::new(5, 5);
        for i in 0..5usize {
            diagonal.push(i, i, 1.0 + i as f64);
        }
        vec![
            ("lap1d", MatrixGraph::from_csr(&laplace_1d(9))),
            (
                "lap2d",
                MatrixGraph::from_csr(&mcmcmi_matgen::fd_laplace_2d(4)),
            ),
            (
                "pdd",
                MatrixGraph::from_csr(&mcmcmi_matgen::pdd_real_sparse(12, 3)),
            ),
            ("ring", {
                let mut ring = mcmcmi_sparse::Coo::new(6, 6);
                for i in 0..6usize {
                    ring.push(i, i, 2.0);
                    ring.push(i, (i + 1) % 6, -1.0);
                    ring.push(i, (i + 5) % 6, -1.0);
                }
                MatrixGraph::from_csr(&ring.to_csr())
            }),
            ("sources", MatrixGraph::from_csr(&upper.to_csr())),
            ("diagonal", MatrixGraph::from_csr(&diagonal.to_csr())),
        ]
    }

    /// A few Adam steps on two of the oracle graphs, so biases are non-zero
    /// and weights are no longer Xavier draws.
    fn train_briefly(s: &mut Surrogate) {
        let mut ds = crate::train::SurrogateDataset::default();
        let graphs = oracle_graphs();
        let m0 = ds.add_matrix(graphs[0].1.clone(), vec![0.3, -1.2, 0.0, 0.7, 2.0]);
        let m1 = ds.add_matrix(graphs[2].1.clone(), vec![-0.5, 0.4, 1.0, 0.0, -1.0]);
        for k in 0..12 {
            let t = k as f64 / 11.0;
            ds.push_sample(crate::train::GraphSample {
                matrix_idx: if k % 2 == 0 { m0 } else { m1 },
                xm: vec![t, 1.0 - t, 0.5 - t, 1.0, 0.0, 0.0],
                y_mean: 0.3 + 0.6 * t,
                y_std: 0.05 + 0.1 * t,
            });
        }
        crate::train::train_surrogate(
            s,
            &ds,
            crate::train::TrainConfig {
                epochs: 2,
                batch_size: 4,
                patience: 0,
                ..Default::default()
            },
        );
    }

    #[test]
    fn tape_free_embedding_equals_tape_bit_for_bit() {
        let one_unit = SurrogateConfig {
            gnn_hidden: 1,
            ..small_cfg()
        };
        let presets = [
            ("lite", SurrogateConfig::lite(5, 6)),
            ("paper", SurrogateConfig::paper(5, 6)),
            ("hidden1", one_unit),
        ];
        let graphs = oracle_graphs();
        for (name, preset) in presets {
            for gnn_layers in [1, 2] {
                for agg in [AggKind::Mean, AggKind::Sum, AggKind::Max] {
                    for trained in [false, true] {
                        let mut s = Surrogate::new(SurrogateConfig {
                            gnn_layers,
                            agg,
                            ..preset
                        });
                        if trained {
                            train_briefly(&mut s);
                        }
                        for (graph, data) in &graphs {
                            let bits = |t: Tensor| -> Vec<u64> {
                                t.data().iter().map(|v| v.to_bits()).collect()
                            };
                            assert_eq!(
                                bits(s.embed_graph(data)),
                                bits(tape_embedding(&s, data)),
                                "{name} × {gnn_layers} layers, {agg:?}, trained {trained}, {graph}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn input_gradients_match_finite_differences() {
        let mut s = Surrogate::new(small_cfg());
        let data = toy_data();
        let xa = [0.3, -0.1, 0.7, 0.2, 0.9];
        let xm = [1.5, 0.4, 0.3, 1.0, 0.0, 0.0];
        let h_g = s.embed_graph(&data);
        let (_, _, dmu, dsigma) = s.predict_grad(&h_g, &xa, &xm);
        let h = 1e-6;
        for k in 0..xm.len() {
            let mut xp = xm;
            xp[k] += h;
            let (mu_p, sg_p) = s.predict(&h_g, &xa, &xp);
            xp[k] -= 2.0 * h;
            let (mu_m, sg_m) = s.predict(&h_g, &xa, &xp);
            let nmu = (mu_p - mu_m) / (2.0 * h);
            let nsg = (sg_p - sg_m) / (2.0 * h);
            assert!((dmu[k] - nmu).abs() < 1e-5, "dmu[{k}]: {} vs {nmu}", dmu[k]);
            assert!(
                (dsigma[k] - nsg).abs() < 1e-5,
                "dsigma[{k}]: {} vs {nsg}",
                dsigma[k]
            );
        }
    }

    #[test]
    fn snapshot_roundtrip_preserves_predictions() {
        let mut s = Surrogate::new(small_cfg());
        let data = toy_data();
        let xa = [0.0, 0.1, 0.2, 0.3, 0.4];
        let xm = [2.0, 0.25, 0.5, 0.0, 1.0, 0.0];
        let h_g = s.embed_graph(&data);
        let before = s.predict(&h_g, &xa, &xm);
        let json = serde_json::to_string(&s.snapshot()).unwrap();
        let snap: SurrogateSnapshot = serde_json::from_str(&json).unwrap();
        let mut s2 = Surrogate::from_snapshot(snap);
        let h_g2 = s2.embed_graph(&data);
        let after = s2.predict(&h_g2, &xa, &xm);
        assert!((before.0 - after.0).abs() < 1e-12);
        assert!((before.1 - after.1).abs() < 1e-12);
    }

    #[test]
    fn different_graphs_give_different_embeddings() {
        let s = Surrogate::new(small_cfg());
        let d1 = MatrixGraph::from_csr(&laplace_1d(6));
        let d2 = MatrixGraph::from_csr(&mcmcmi_matgen::fd_laplace_2d(4));
        let h1 = s.embed_graph(&d1);
        let h2 = s.embed_graph(&d2);
        assert_ne!(h1, h2);
    }

    #[test]
    fn all_conv_kinds_run() {
        for conv in [
            ConvKind::EdgeConv,
            ConvKind::Gine,
            ConvKind::Gcn,
            ConvKind::GatV2,
            ConvKind::Pna,
        ] {
            let cfg = SurrogateConfig {
                conv,
                ..small_cfg()
            };
            let s = Surrogate::new(cfg);
            let data = toy_data();
            let h = s.embed_graph(&data);
            assert_eq!(h.cols(), 8, "{conv:?}");
            assert!(h.data().iter().all(|v| v.is_finite()), "{conv:?}");
        }
    }

    #[test]
    fn dropout_only_active_in_training_mode() {
        let mut s = Surrogate::new(SurrogateConfig {
            dropout: 0.5,
            ..small_cfg()
        });
        let data = toy_data();
        let xa = [0.1; 5];
        let xm = [1.0, 0.5, 0.5, 1.0, 0.0, 0.0];
        let h_g = s.embed_graph(&data);
        // Inference is deterministic.
        let p1 = s.predict(&h_g, &xa, &xm);
        let p2 = s.predict(&h_g, &xa, &xm);
        assert_eq!(p1, p2);
    }
}
