//! Experiment profiles: `lite` (default, laptop-friendly) vs `full`
//! (paper-scale parameters).

use mcmcmi_core::{MeasureConfig, MeasurementRunner};
use mcmcmi_gnn::{SurrogateConfig, TrainConfig};
use mcmcmi_krylov::SolveOptions;
use mcmcmi_matgen::PaperMatrix;
use mcmcmi_sparse::Csr;

/// A fully-resolved experiment profile.
#[derive(Clone, Debug)]
pub struct Profile {
    /// "lite" or "full".
    pub name: &'static str,
    /// Replicates per measured cell (paper: 10).
    pub reps: usize,
    /// Replicates for the test-matrix evaluation grid (paper: 10).
    pub eval_reps: usize,
    /// BO recommendations per round (paper: 32).
    pub bo_batch: usize,
    /// Training matrices.
    pub train_matrices: Vec<PaperMatrix>,
    /// Unseen test matrix (paper: unsteady_adv_diff_order2_0001).
    pub test_matrix: PaperMatrix,
    /// Surrogate architecture.
    pub surrogate: SurrogateConfig,
    /// Trainer settings.
    pub train: TrainConfig,
    /// Measurement settings.
    pub measure: MeasureConfig,
    /// Divergence rows per matrix in the dataset.
    pub divergence_rows: usize,
    /// Base seed.
    pub seed: u64,
}

impl Profile {
    /// The laptop profile: small training matrices, 5 replicates, narrow
    /// surrogate. Shapes (who wins, where crossovers fall) are preserved;
    /// absolute counts are smaller than the paper's.
    pub fn lite() -> Self {
        Self {
            name: "lite",
            reps: 5,
            eval_reps: 5,
            bo_batch: 32,
            train_matrices: PaperMatrix::lite_training_set(),
            test_matrix: PaperMatrix::UnsteadyAdvDiffOrder2,
            surrogate: SurrogateConfig::lite(mcmcmi_core::features::N_MATRIX_FEATURES, 6),
            train: TrainConfig {
                epochs: 40,
                patience: 8,
                ..Default::default()
            },
            measure: MeasureConfig {
                solve: SolveOptions {
                    tol: 1e-8,
                    max_iter: 2000,
                    restart: 300,
                    ..Default::default()
                },
            },
            divergence_rows: 4,
            seed: 20_260_611,
        }
    }

    /// The paper-scale profile: all Table-1 matrices except the two largest
    /// (which are exercised by `table1 --full` but would dominate dataset
    /// wall-clock), 10 replicates, the paper's HPO-selected architecture.
    pub fn full() -> Self {
        use PaperMatrix::*;
        Self {
            name: "full",
            reps: 10,
            eval_reps: 10,
            bo_batch: 32,
            train_matrices: vec![
                Laplace16,
                Laplace32,
                Laplace64,
                A00512,
                UnsteadyAdvDiffOrder1,
                PddRealSparseN64,
                PddRealSparseN128,
                PddRealSparseN256,
            ],
            test_matrix: PaperMatrix::UnsteadyAdvDiffOrder2,
            surrogate: SurrogateConfig::paper(mcmcmi_core::features::N_MATRIX_FEATURES, 6),
            train: TrainConfig {
                epochs: 150,
                patience: 20,
                ..Default::default()
            },
            measure: MeasureConfig {
                solve: SolveOptions {
                    tol: 1e-8,
                    max_iter: 4000,
                    restart: 300,
                    ..Default::default()
                },
            },
            divergence_rows: 6,
            seed: 20_260_611,
        }
    }

    /// Materialise the training matrices as `(name, matrix, spd)` triples.
    pub fn materialize_training(&self) -> Vec<(String, Csr, bool)> {
        self.train_matrices
            .iter()
            .map(|&m| (m.paper_row().name.to_string(), m.generate(), m.is_spd()))
            .collect()
    }

    /// Materialise the test matrix.
    pub fn materialize_test(&self) -> (String, Csr, bool) {
        let m = self.test_matrix;
        (m.paper_row().name.to_string(), m.generate(), m.is_spd())
    }

    /// Measurement runner for this profile.
    pub fn runner(&self) -> MeasurementRunner {
        MeasurementRunner::new(self.measure)
    }
}

/// Parse `--full` / `--lite` from argv; defaults to lite.
pub fn parse_profile() -> Profile {
    let full = std::env::args().any(|a| a == "--full");
    if full {
        Profile::full()
    } else {
        Profile::lite()
    }
}
