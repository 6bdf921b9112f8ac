//! Shared harness for the reproduction binaries (one per paper table/figure)
//! and the Criterion microbenches.
//!
//! Every binary accepts `--full` (paper-scale workload) and defaults to the
//! `--lite` profile (small matrices, fewer replicates) so the entire
//! evaluation can be regenerated on a laptop. Outputs go to `runs/` as both
//! human-readable stdout and machine-readable JSON/CSV.

pub mod harness;
pub mod invcdf;
pub mod profile;
pub mod report;

pub use harness::{fit_models, grid_evaluation, EvaluatedGrid, FittedModels};
pub use invcdf::InvCdfSampler;
pub use profile::{parse_profile, Profile};
pub use report::{write_csv, write_json, RunDir};
