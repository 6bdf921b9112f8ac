//! # mcmcmi — AI-Tuned MCMC Matrix Inversion for Fast Linear Solvers
//!
//! Umbrella crate for the reproduction of *"Fast Linear Solvers via AI-Tuned
//! Markov Chain Monte Carlo-based Matrix Inversion"* (SC Workshops '25).
//! Re-exports every workspace crate under a stable prefix; see the README
//! for the architecture map and `crates/bench/src/bin` for one
//! reproduction binary per paper table, figure and ablation.
//!
//! Quick tour:
//! - [`mcmc`] — the MCMC matrix-inversion preconditioner (α, ε, δ).
//! - [`krylov`] — CG / BiCGStab / GMRES and classical preconditioners.
//! - [`gnn`] — the graph-neural surrogate of preconditioning performance.
//! - [`bayesopt`] — Expected Improvement + L-BFGS-B + multi-start proposal.
//! - [`core`] — the tuning framework: features, metric, dataset, pipeline,
//!   and the `recommend(A) → x_M*` API.

pub use mcmcmi_autodiff as autodiff;
pub use mcmcmi_bayesopt as bayesopt;
pub use mcmcmi_core as core;
pub use mcmcmi_dense as dense;
pub use mcmcmi_gnn as gnn;
pub use mcmcmi_hpo as hpo;
pub use mcmcmi_krylov as krylov;
pub use mcmcmi_matgen as matgen;
pub use mcmcmi_mcmc as mcmc;
pub use mcmcmi_serve as serve;
pub use mcmcmi_sparse as sparse;
pub use mcmcmi_stats as stats;
