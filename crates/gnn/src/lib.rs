//! Graph neural surrogate model for MCMC preconditioning performance
//! (paper §3.1).
//!
//! Pipeline: the sparse matrix `A` becomes a weighted directed graph
//! (vertices = rows, edge `(j → i)` iff `a_ij ≠ 0`, node feature = row
//! degree); a stack of message-passing layers produces a graph embedding
//! `h_g`; fully-connected stacks embed the cheap matrix features `x_A` and
//! the MCMC parameters `x_M`; the concatenation goes through FC layers with
//! dropout into two heads, `μ̂ = ReLU(W_μ h + b_μ)` and
//! `σ̂ = softplus(W_σ h + b_σ)` (Eq. 1), trained with the joint MSE loss of
//! Eq. (2).
//!
//! The paper's HPO-selected architecture (1 EdgeConv layer, mean
//! aggregation, 256-dim graph embedding, 1×64 FC for `x_A`, 3×16 FC for
//! `x_M`, 2×128 combined layers) is [`SurrogateConfig::paper`]; a smaller
//! [`SurrogateConfig::lite`] preset keeps CPU wall-clock down. EdgeConv,
//! GINE (edge-weight aware) and a weighted-GCN layer are all implemented —
//! the trio the ablation bench sweeps.
//!
//! Answering the recommender records no tape: [`Surrogate::embed_graph`]
//! runs the EdgeConv stack edge by edge into per-node buckets, and
//! [`InferenceHead`] runs the `x_M`-dependent rest with its input
//! gradient, both bit-identical to the tape. The autodiff tape is for
//! training, for the oracle tests of those two, and for the conv kinds
//! only the ablation and HPO sweeps build (GINE, GCN, GATv2, PNA).

pub mod graph_data;
pub mod head;
pub mod layers;
pub mod params;
pub mod surrogate;
pub mod train;

pub use graph_data::MatrixGraph;
pub use head::InferenceHead;
pub use layers::{ConvKind, EdgeConvLayer, GatV2Layer, GcnLayer, GineLayer, Mlp, PnaLayer};
pub use params::{BoundParams, ParamSet};
pub use surrogate::{Surrogate, SurrogateConfig};
pub use train::{train_surrogate, GraphSample, SurrogateDataset, TrainConfig, TrainReport};
