//! Bayesian optimisation for MCMC parameter selection (paper §3.2,
//! Algorithm 1).
//!
//! The pieces: the closed-form Expected Improvement acquisition (Eq. 3) and
//! its exact input gradient, a box-constrained L-BFGS-B maximiser driven by
//! those gradients, and multi-start candidate proposal. The paper's grid
//! baseline is `McmcParams::paper_grid` in the MCMC crate. The crate is
//! generic over a [`SurrogateModel`] trait so it never depends on the GNN
//! crate — the core crate adapts the graph neural surrogate to it.

pub mod acquisition;
pub mod lbfgsb;
pub mod propose;

pub use acquisition::{expected_improvement, expected_improvement_grad, SurrogateModel};
pub use lbfgsb::{lbfgsb_minimize, LbfgsbResult};
pub use propose::{
    best_starts, first_best, maximize_ei, propose_batch, propose_best, random_starts, ProposeConfig,
};
