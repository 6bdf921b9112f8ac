//! Persistence round-trips: datasets, model snapshots, Matrix Market files.

use mcmcmi::core::pipeline::RecommenderSnapshot;
use mcmcmi::core::{MeasureConfig, MeasurementRunner, PaperDataset, Recommender};
use mcmcmi::gnn::{SurrogateConfig, TrainConfig};
use mcmcmi::krylov::{SolveOptions, SolverType};
use mcmcmi::matgen::pdd_real_sparse;
use mcmcmi::mcmc::McmcParams;
use mcmcmi::sparse::Csr;

fn tmpdir() -> std::path::PathBuf {
    // PID alone can collide with directories left by earlier test runs;
    // add a timestamp so every invocation writes to a fresh location.
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    let d = std::env::temp_dir().join(format!("mcmcmi_persist_{}_{nanos}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

#[test]
fn dataset_json_roundtrip_preserves_everything() {
    let matrices: Vec<(String, Csr, bool)> = vec![("pdd32".into(), pdd_real_sparse(32, 7), false)];
    let runner = MeasurementRunner::new(MeasureConfig {
        solve: SolveOptions {
            tol: 1e-6,
            max_iter: 200,
            restart: 25,
            ..Default::default()
        },
    });
    let ds = PaperDataset::build(&runner, &matrices, 2, 1, 0);
    let path = tmpdir().join("ds.json");
    ds.save_json(&path).unwrap();
    let ds2 = PaperDataset::load_json(&path).unwrap();
    assert_eq!(ds.matrix_names, ds2.matrix_names);
    assert_eq!(ds.len(), ds2.len());
    for (a, b) in ds.records.iter().zip(&ds2.records) {
        assert_eq!(a.matrix, b.matrix);
        assert_eq!(a.solver, b.solver);
        assert_eq!(a.params, b.params);
        assert_eq!(a.ys, b.ys);
    }
}

#[test]
fn recommender_snapshot_roundtrip_preserves_predictions() {
    let matrices: Vec<(String, Csr, bool)> = vec![("pdd32".into(), pdd_real_sparse(32, 7), false)];
    let runner = MeasurementRunner::new(MeasureConfig {
        solve: SolveOptions {
            tol: 1e-6,
            max_iter: 200,
            restart: 25,
            ..Default::default()
        },
    });
    let ds = PaperDataset::build(&runner, &matrices, 1, 0, 0);
    let scfg = SurrogateConfig {
        gnn_hidden: 8,
        xa_hidden: 4,
        xm_hidden: 4,
        comb_hidden: 8,
        dropout: 0.0,
        ..SurrogateConfig::lite(mcmcmi::core::features::N_MATRIX_FEATURES, 6)
    };
    let tcfg = TrainConfig {
        epochs: 4,
        patience: 0,
        ..Default::default()
    };
    let mut rec = Recommender::fit(&ds, &matrices, scfg, tcfg);

    let probe = McmcParams::new(1.5, 0.3, 0.2);
    let before = rec.predict(&matrices[0].1, SolverType::Gmres, probe);

    let json = serde_json::to_string(&rec.to_snapshot()).unwrap();
    let snap: RecommenderSnapshot = serde_json::from_str(&json).unwrap();
    let mut rec2 = Recommender::from_snapshot(snap);
    let after = rec2.predict(&matrices[0].1, SolverType::Gmres, probe);
    assert!((before.0 - after.0).abs() < 1e-12);
    assert!((before.1 - after.1).abs() < 1e-12);
}

#[test]
fn matrix_market_roundtrip_through_disk() {
    let a = pdd_real_sparse(48, 3);
    let path = tmpdir().join("a.mtx");
    mcmcmi::sparse::io::write_matrix_market_file(&a, &path).unwrap();
    let b = mcmcmi::sparse::io::read_matrix_market_file(&path).unwrap();
    assert_eq!(a, b);
}
