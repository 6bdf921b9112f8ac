//! Shared harness for the reproduction binaries (one per paper table/figure)
//! and the Criterion microbenches.
//!
//! Every binary accepts `--full` (paper-scale workload) and defaults to the
//! `--lite` profile (small matrices, fewer replicates) so the entire
//! evaluation can be regenerated on a laptop. Outputs go to `runs/` as both
//! human-readable stdout and machine-readable JSON/CSV.
//!
//! The perf record is the ledger (`benchmark/` at the repository root): its
//! `--trace 1` per-layer metrics cover SpMV/SpMM, the walk, the MCMC build,
//! the preconditioner apply and the Krylov solve, scalar and batched. The
//! three Criterion benches kept under `benches/` measure what it does not:
//!
//! - `serve_path` — the served request path split finer than the ledger's
//!   `serve.parse_ms` / `serve.serialise_ms` / `serve.http_floor_ms`: the
//!   parse per operator family, and the session hand-out (pooled vs freshly
//!   bound) that the ledger only sees inside a cold request's overhead;
//! - `gnn_train` — the pieces under a training and a recommendation: one
//!   graph embedding, one forward+backward step, one prediction with input
//!   gradients through `predict_grad` vs on a held `InferenceHead`; the
//!   ledger times whole trainings (`gnn.train_s`) and whole
//!   recommendations (`core.recommend_s`);
//! - `acquisition` — one EI evaluation and one L-BFGS-B maximisation on an
//!   analytic surrogate, i.e. optimiser overhead with the GNN taken out,
//!   where the ledger's `bayesopt.propose_s` includes it.

pub mod harness;
pub mod profile;
pub mod report;

pub use harness::{fit_models, grid_evaluation, EvaluatedGrid, FittedModels};
pub use profile::{parse_profile, Profile};
pub use report::{write_csv, write_json, RunDir};
