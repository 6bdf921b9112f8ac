//! Recommender snapshot round-trip: persistence must preserve *bits*.
//!
//! The workspace-level `tests/persistence.rs` checks the snapshot path to
//! 1e−12; that tolerance would hide a real bug class (e.g. a standardiser
//! field serialised at reduced precision, or a weight tensor reordered on
//! load) that only bites after many BO rounds compound the drift. The
//! contract here is exact: `from_snapshot(to_snapshot(r))` predicts
//! **bit-for-bit** the same `(μ̂, σ̂)` as `r`, for every solver family and
//! across a JSON round trip.

use mcmcmi_core::{MeasureConfig, MeasurementRunner, PaperDataset, Recommender};
use mcmcmi_gnn::{SurrogateConfig, TrainConfig};
use mcmcmi_krylov::{SolveOptions, SolverType};
use mcmcmi_matgen::{laplace_1d, pdd_real_sparse};
use mcmcmi_mcmc::McmcParams;
use mcmcmi_sparse::Csr;

fn small_recommender(matrices: &[(String, Csr, bool)]) -> Recommender {
    let runner = MeasurementRunner::new(MeasureConfig {
        solve: SolveOptions {
            tol: 1e-6,
            max_iter: 200,
            restart: 25,
            ..Default::default()
        },
    });
    let ds = PaperDataset::build(&runner, matrices, 1, 0, 0);
    let scfg = SurrogateConfig {
        gnn_hidden: 8,
        xa_hidden: 4,
        xm_hidden: 4,
        comb_hidden: 8,
        dropout: 0.0,
        ..SurrogateConfig::lite(mcmcmi_core::features::N_MATRIX_FEATURES, 6)
    };
    let tcfg = TrainConfig {
        epochs: 4,
        patience: 0,
        ..Default::default()
    };
    Recommender::fit(&ds, matrices, scfg, tcfg)
}

#[test]
fn snapshot_round_trip_preserves_predict_bit_for_bit() {
    let matrices: Vec<(String, Csr, bool)> = vec![
        ("lap".into(), laplace_1d(16), true),
        ("pdd".into(), pdd_real_sparse(32, 7), false),
    ];
    let mut rec = small_recommender(&matrices);

    // A grid of probe points spanning the box, on a *training* matrix and
    // an *unseen* one, across all three solver families.
    let unseen = pdd_real_sparse(24, 11);
    let probes: Vec<McmcParams> = vec![
        McmcParams::new(0.05, 1.0 / 32.0, 1.0 / 32.0),
        McmcParams::new(1.0, 0.25, 0.125),
        McmcParams::new(2.5, 0.3, 0.7),
        McmcParams::new(8.0, 1.0, 1.0),
    ];
    let solvers = [SolverType::Gmres, SolverType::BiCgStab, SolverType::Cg];
    let mut before: Vec<(f64, f64)> = Vec::new();
    for a in [&matrices[1].1, &unseen] {
        for &s in &solvers {
            for &p in &probes {
                before.push(rec.predict(a, s, p));
            }
        }
    }

    // Round trip through the in-memory snapshot AND through JSON (the
    // persistence format experiments actually use).
    let snap = rec.to_snapshot();
    let json = serde_json::to_string(&snap).unwrap();
    let reloaded: mcmcmi_core::pipeline::RecommenderSnapshot = serde_json::from_str(&json).unwrap();
    let mut rec_mem = Recommender::from_snapshot(snap);
    let mut rec_json = Recommender::from_snapshot(reloaded);

    let mut idx = 0;
    for a in [&matrices[1].1, &unseen] {
        for &s in &solvers {
            for &p in &probes {
                let want = before[idx];
                let via_mem = rec_mem.predict(a, s, p);
                let via_json = rec_json.predict(a, s, p);
                assert_eq!(via_mem, want, "in-memory snapshot drifted at probe {idx}");
                assert_eq!(via_json, want, "JSON snapshot drifted at probe {idx}");
                idx += 1;
            }
        }
    }

    // The original recommender is untouched by snapshotting: predictions
    // repeat bit-for-bit.
    let again = rec.predict(&unseen, SolverType::Gmres, probes[1]);
    // (unseen, Gmres, probes[1]) lives right after the training matrix's
    // solvers×probes block.
    let reference = before[solvers.len() * probes.len() + 1];
    assert_eq!(again, reference);
}

#[test]
fn snapshot_preserves_the_training_report() {
    let matrices: Vec<(String, Csr, bool)> = vec![("pdd".into(), pdd_real_sparse(28, 3), false)];
    let rec = small_recommender(&matrices);
    let snap = rec.to_snapshot();
    let rec2 = Recommender::from_snapshot(snap.clone());
    assert_eq!(
        rec2.train_report().train_loss,
        rec.train_report().train_loss
    );
    assert_eq!(snap.train_report.train_loss, rec.train_report().train_loss);
}
