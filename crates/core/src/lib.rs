//! The AI-tuned MCMC preconditioner framework — the paper's primary
//! contribution, assembled from the workspace substrates.
//!
//! Flow (paper §3, Algorithm 1):
//! 1. [`features`] extracts the cheap matrix features `x_A`.
//! 2. [`measure`] runs `MCMC build + Krylov solve` and reports the
//!    performance metric `y = steps_with / steps_without` (Eq. 4).
//! 3. [`dataset`] assembles the labelled grid dataset of §4.2.
//! 4. The GNN surrogate (from `mcmcmi-gnn`) is trained on it; [`adapter`]
//!    exposes it to the Bayesian optimiser through the `SurrogateModel`
//!    trait with standardisation folded into the gradients.
//! 5. [`pipeline`] runs BO rounds (32 EI-maximising recommendations per
//!    round, ξ ∈ {0.05, 1.0}) and produces the BO-enhanced model and the
//!    final `recommend(A) → x_M*` API.
//! 6. [`autotune`] closes the loop into the solve path: joint
//!    `(α, ε, δ) × CompressionPolicy` search with safeguarded builds and
//!    probe solves, delivering a tuned compressed `SolveSession` in one
//!    call.

pub mod adapter;
pub mod autotune;
pub mod dataset;
pub mod drift;
pub mod features;
pub mod measure;
pub mod pipeline;
pub mod snapshot;

pub use adapter::GnnSurrogateAdapter;
pub use autotune::{AutoTuner, AutotuneConfig, AutotuneReport, TrialRecord};
pub use dataset::{DatasetRecord, PaperDataset};
pub use drift::{DriftSession, RefreshAction, RefreshPolicy, RefreshStep, RefreshTrail};
pub use features::matrix_features;
pub use measure::{MeasureConfig, Measurement, MeasurementRunner};
pub use pipeline::{BoRoundOutcome, OperatorContext, PipelineConfig, Recommender};
pub use snapshot::{load_json_snapshot, save_json_snapshot};
