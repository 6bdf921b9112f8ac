//! The shared experimental protocol behind Figures 1–3 (paper §4.4):
//!
//! 1. Build (or load) the §4.2 grid dataset on the training matrices.
//! 2. Train the **Pre-BO model**.
//! 3. Let it recommend one batch per BO strategy (ξ = 0.05 balanced,
//!    ξ = 1.0 exploration) on the unseen test matrix; measure each
//!    recommendation with replicates.
//! 4. Retrain on grid + BO records → the **BO-enhanced model**.
//! 5. Evaluate both models against a 64-point grid on the test matrix
//!    (the 640-observation evaluation set of the paper).
//!
//! Everything expensive (solver measurements, trained weights) is cached
//! under `runs/cache-<profile>/` so the three figure binaries share work.

use crate::profile::Profile;
use crate::report::{write_json, RunDir};
use mcmcmi_core::pipeline::RecommenderSnapshot;
use mcmcmi_core::{BoRoundOutcome, DatasetRecord, PaperDataset, PipelineConfig, Recommender};
use mcmcmi_krylov::SolverType;
use mcmcmi_mcmc::McmcParams;
use mcmcmi_sparse::Csr;
use serde::{Deserialize, Serialize};

/// The two trained models plus the BO-round records that separate them.
pub struct FittedModels {
    /// Model trained on the grid dataset only.
    pub pre_bo: Recommender,
    /// Model retrained on grid + BO recommendations.
    pub bo_enhanced: Recommender,
    /// Balanced-search round (ξ = 0.05).
    pub round_balanced: BoRoundOutcome,
    /// Exploration round (ξ = 1.0).
    pub round_explore: BoRoundOutcome,
    /// The training dataset used.
    pub dataset: PaperDataset,
}

#[derive(Serialize, Deserialize)]
struct ModelCache {
    pre_bo: RecommenderSnapshot,
    bo_enhanced: RecommenderSnapshot,
    round_balanced: BoRoundOutcome,
    round_explore: BoRoundOutcome,
}

/// The 64-cell evaluation grid on the test matrix, with replicates.
#[derive(Clone, Serialize, Deserialize)]
pub struct EvaluatedGrid {
    /// One record per grid cell (10 replicates each in the paper).
    pub records: Vec<DatasetRecord>,
}

/// Load-or-build the grid dataset for a profile.
pub fn load_or_build_dataset(profile: &Profile, matrices: &[(String, Csr, bool)]) -> PaperDataset {
    let cache = RunDir::new(&format!("cache-{}", profile.name)).expect("runs dir");
    let path = cache.path("dataset.json");
    if let Ok(ds) = PaperDataset::load_json(&path) {
        if ds.matrix_names.len() == matrices.len() {
            eprintln!("[harness] loaded cached dataset ({} records)", ds.len());
            return ds;
        }
    }
    eprintln!(
        "[harness] building {} dataset: {} matrices × (64 grid × 2 solvers + extras) × {} reps",
        profile.name,
        matrices.len(),
        profile.reps
    );
    let runner = profile.runner();
    let t0 = std::time::Instant::now();
    let ds = PaperDataset::build(
        &runner,
        matrices,
        profile.reps,
        profile.divergence_rows,
        profile.seed,
    );
    eprintln!(
        "[harness] dataset built: {} records in {:.1?}",
        ds.len(),
        t0.elapsed()
    );
    ds.save_json(&path).expect("cache dataset");
    ds
}

/// Fit (or load) the Pre-BO and BO-enhanced models for a profile.
pub fn fit_models(profile: &Profile) -> FittedModels {
    let matrices = profile.materialize_training();
    let dataset = load_or_build_dataset(profile, &matrices);
    let cache = RunDir::new(&format!("cache-{}", profile.name)).expect("runs dir");
    let model_path = cache.path("models.json");

    if let Ok(text) = std::fs::read_to_string(&model_path) {
        if let Ok(mc) = serde_json::from_str::<ModelCache>(&text) {
            eprintln!("[harness] loaded cached models");
            return FittedModels {
                pre_bo: Recommender::from_snapshot(mc.pre_bo),
                bo_enhanced: Recommender::from_snapshot(mc.bo_enhanced),
                round_balanced: mc.round_balanced,
                round_explore: mc.round_explore,
                dataset,
            };
        }
    }

    eprintln!(
        "[harness] training Pre-BO model ({} samples)",
        dataset.len()
    );
    let t0 = std::time::Instant::now();
    let mut pre_bo = Recommender::fit(&dataset, &matrices, profile.surrogate, profile.train);
    eprintln!(
        "[harness] Pre-BO trained in {:.1?} (best val loss {:.4} @ epoch {})",
        t0.elapsed(),
        pre_bo.train_report().best_val_loss,
        pre_bo.train_report().best_epoch
    );

    let (test_name, test_matrix, _) = profile.materialize_test();
    // EI incumbent: the surrogate's own predicted minimum on the target —
    // there are no observations on the unseen matrix yet, and the global
    // dataset minimum would import artefacts from easier matrices.
    let y_min = pre_bo.predicted_min(&test_matrix, SolverType::Gmres, profile.seed);
    eprintln!("[harness] EI incumbent (predicted min on target): {y_min:.3}");
    let runner = profile.runner();
    eprintln!(
        "[harness] BO round (balanced, ξ=0.05): {} recommendations",
        profile.bo_batch
    );
    let round_balanced = pre_bo.bo_round(
        &runner,
        &test_matrix,
        &test_name,
        SolverType::Gmres,
        y_min,
        PipelineConfig {
            reps: profile.eval_reps,
            bo_batch: profile.bo_batch,
            xi: 0.05,
            seed: profile.seed,
        },
    );
    eprintln!("[harness] BO round (exploration, ξ=1.0)");
    let round_explore = pre_bo.bo_round(
        &runner,
        &test_matrix,
        &test_name,
        SolverType::Gmres,
        y_min,
        PipelineConfig {
            reps: profile.eval_reps,
            bo_batch: profile.bo_batch,
            xi: 1.0,
            seed: profile.seed ^ 0x5a5a,
        },
    );

    // Retrain with the new targeted data (the BO-enhanced model).
    let mut enhanced_ds = dataset.clone();
    enhanced_ds.matrix_names.push(test_name.clone());
    enhanced_ds
        .records
        .extend(round_balanced.records.iter().cloned());
    enhanced_ds
        .records
        .extend(round_explore.records.iter().cloned());
    let mut enhanced_matrices = matrices.clone();
    enhanced_matrices.push((test_name, test_matrix, false));
    eprintln!(
        "[harness] retraining → BO-enhanced model ({} samples)",
        enhanced_ds.len()
    );
    let t1 = std::time::Instant::now();
    let bo_enhanced = Recommender::fit(
        &enhanced_ds,
        &enhanced_matrices,
        profile.surrogate,
        profile.train,
    );
    eprintln!("[harness] BO-enhanced trained in {:.1?}", t1.elapsed());

    let mc = ModelCache {
        pre_bo: pre_bo.to_snapshot(),
        bo_enhanced: bo_enhanced.to_snapshot(),
        round_balanced: round_balanced.clone(),
        round_explore: round_explore.clone(),
    };
    write_json(&model_path, &mc).expect("cache models");

    FittedModels {
        pre_bo,
        bo_enhanced,
        round_balanced,
        round_explore,
        dataset,
    }
}

/// Evaluate (or load) the 64-point grid on the test matrix.
pub fn grid_evaluation(profile: &Profile) -> EvaluatedGrid {
    let cache = RunDir::new(&format!("cache-{}", profile.name)).expect("runs dir");
    let path = cache.path("eval_grid.json");
    if let Ok(text) = std::fs::read_to_string(&path) {
        if let Ok(g) = serde_json::from_str::<EvaluatedGrid>(&text) {
            eprintln!(
                "[harness] loaded cached evaluation grid ({} cells)",
                g.records.len()
            );
            return g;
        }
    }
    let (test_name, test_matrix, _) = profile.materialize_test();
    let runner = profile.runner();
    eprintln!(
        "[harness] evaluating 64-point grid on {test_name} with {} replicates",
        profile.eval_reps
    );
    let t0 = std::time::Instant::now();
    let baseline = runner.baseline_steps(&test_matrix, SolverType::Gmres);
    let mut records = Vec::with_capacity(64);
    for (ci, p) in McmcParams::paper_grid().into_iter().enumerate() {
        let (y_mean, y_std, ms) = runner.measure_replicated_with_baseline(
            &test_matrix,
            p,
            SolverType::Gmres,
            profile.eval_reps,
            profile.seed.wrapping_add(900_000 + ci as u64 * 101),
            baseline,
        );
        records.push(DatasetRecord {
            matrix: test_name.clone(),
            solver: SolverType::Gmres,
            params: p,
            y_mean,
            y_std,
            ys: ms.into_iter().map(|m| m.y).collect(),
        });
    }
    eprintln!("[harness] grid evaluated in {:.1?}", t0.elapsed());
    let g = EvaluatedGrid { records };
    write_json(&path, &g).expect("cache eval grid");
    g
}
