//! Cross-crate integration: the full Algorithm-1 pipeline on a miniature
//! problem set, from matrix generation to a measured recommendation.

use mcmcmi::core::{MeasureConfig, MeasurementRunner, PaperDataset, PipelineConfig, Recommender};
use mcmcmi::gnn::{SurrogateConfig, TrainConfig};
use mcmcmi::krylov::{SolveOptions, SolverType};
use mcmcmi::matgen::{laplace_1d, pdd_real_sparse};
use mcmcmi::mcmc::McmcParams;
use mcmcmi::sparse::Csr;

fn runner() -> MeasurementRunner {
    MeasurementRunner::new(MeasureConfig {
        solve: SolveOptions {
            tol: 1e-6,
            max_iter: 400,
            restart: 30,
            ..Default::default()
        },
    })
}

fn tiny_cfgs() -> (SurrogateConfig, TrainConfig) {
    (
        SurrogateConfig {
            gnn_hidden: 8,
            xa_hidden: 4,
            xm_hidden: 4,
            comb_hidden: 8,
            dropout: 0.0,
            ..SurrogateConfig::lite(mcmcmi::core::features::N_MATRIX_FEATURES, 6)
        },
        TrainConfig {
            epochs: 10,
            batch_size: 32,
            patience: 0,
            ..Default::default()
        },
    )
}

#[test]
fn pipeline_produces_useful_recommendation() {
    let matrices: Vec<(String, Csr, bool)> = vec![
        ("lap".into(), laplace_1d(32), true),
        ("pdd48".into(), pdd_real_sparse(48, 3), false),
        ("pdd64".into(), pdd_real_sparse(64, 5), false),
    ];
    let r = runner();
    let ds = PaperDataset::build(&r, &matrices, 2, 2, 0);
    // Structure checks: grid 64 × 2 solvers per matrix, + CG on SPD, + div rows.
    assert_eq!(ds.matrix_names.len(), 3);
    assert!(ds.len() >= 3 * 128);

    let (scfg, tcfg) = tiny_cfgs();
    let mut rec = Recommender::fit(&ds, &matrices, scfg, tcfg);
    // The trainer must have actually learned *something*.
    let report = rec.train_report();
    assert!(report.best_val_loss.is_finite());
    assert!(!report.train_loss.is_empty());

    // Recommend for an unseen diagonally dominant matrix and measure it.
    let target = pdd_real_sparse(56, 11);
    let y_min = ds
        .records
        .iter()
        .map(|x| x.y_mean)
        .fold(f64::INFINITY, f64::min);
    let round = rec.bo_round(
        &r,
        &target,
        "target",
        SolverType::Gmres,
        y_min,
        PipelineConfig {
            reps: 2,
            bo_batch: 4,
            xi: 0.05,
            seed: 7,
        },
    );
    assert_eq!(round.records.len(), 4);
    // The recommended parameters stay in the search box and produce a
    // finite, measured metric.
    let (lo, hi) = McmcParams::search_box();
    assert!(round.best_params.alpha >= lo[0] && round.best_params.alpha <= hi[0]);
    assert!(round.best_params.eps >= lo[1] && round.best_params.eps <= hi[1]);
    assert!(round.best_params.delta >= lo[2] && round.best_params.delta <= hi[2]);
    assert!(round.best_median.is_finite() && round.best_median > 0.0);
}

#[test]
fn enhanced_model_changes_predictions_on_target() {
    // Retraining with targeted records must move the model's predictions on
    // that matrix (the mechanism behind the paper's BO-enhanced model).
    let matrices: Vec<(String, Csr, bool)> = vec![("pdd48".into(), pdd_real_sparse(48, 3), false)];
    let r = runner();
    let ds = PaperDataset::build(&r, &matrices, 2, 0, 0);
    let (scfg, tcfg) = tiny_cfgs();
    let mut pre = Recommender::fit(&ds, &matrices, scfg, tcfg);

    let target = pdd_real_sparse(40, 9);
    let y_min = ds
        .records
        .iter()
        .map(|x| x.y_mean)
        .fold(f64::INFINITY, f64::min);
    let round = pre.bo_round(
        &r,
        &target,
        "target",
        SolverType::Gmres,
        y_min,
        PipelineConfig {
            reps: 2,
            bo_batch: 3,
            xi: 1.0,
            seed: 3,
        },
    );

    let mut ds2 = ds.clone();
    ds2.matrix_names.push("target".into());
    ds2.records.extend(round.records.clone());
    let mut mats2 = matrices.clone();
    mats2.push(("target".into(), target.clone(), false));
    let mut post = Recommender::fit(&ds2, &mats2, scfg, tcfg);

    let probe = McmcParams::new(2.0, 0.25, 0.25);
    let (mu_pre, _) = pre.predict(&target, SolverType::Gmres, probe);
    let (mu_post, _) = post.predict(&target, SolverType::Gmres, probe);
    assert!(mu_pre.is_finite() && mu_post.is_finite());
    assert_ne!(mu_pre, mu_post);
}
