//! Surrogate cost: graph embedding, one forward+backward step, a
//! single-candidate prediction with input gradients (the BO inner loop) —
//! through `Surrogate::predict_grad`, which compiles a head per call, and
//! on a held `InferenceHead`, which is what a recommendation pays — and
//! one whole recommendation on the benchmark's `tune_unseen` operator.

use criterion::{criterion_group, criterion_main, Criterion};
use mcmcmi_autodiff::{Graph, Tensor};
use mcmcmi_core::features::N_MATRIX_FEATURES;
use mcmcmi_core::{MeasureConfig, MeasurementRunner, PaperDataset, Recommender};
use mcmcmi_gnn::{MatrixGraph, Surrogate, SurrogateConfig, TrainConfig};
use mcmcmi_krylov::SolverType;
use mcmcmi_matgen::{fd_laplace_2d, laplace_1d, pdd_real_sparse, PaperMatrix};
use mcmcmi_sparse::Csr;

fn bench_gnn(c: &mut Criterion) {
    let data = MatrixGraph::from_csr(&fd_laplace_2d(16));
    let mut s = Surrogate::new(SurrogateConfig::lite(11, 6));
    let xa = vec![0.1; 11];
    let mut group = c.benchmark_group("gnn");
    group.bench_function("embed_graph/laplace16", |b| {
        b.iter(|| s.embed_graph(&data));
    });
    let h_g = s.embed_graph(&data);
    group.bench_function("predict/one-candidate", |b| {
        b.iter(|| s.predict(&h_g, &xa, &[0.0, 0.1, -0.1, 1.0, 0.0, 0.0]));
    });
    group.bench_function("predict_grad/one-candidate", |b| {
        b.iter(|| s.predict_grad(&h_g, &xa, &[0.0, 0.1, -0.1, 1.0, 0.0, 0.0]));
    });
    group.bench_function("compile_head", |b| {
        b.iter(|| s.compile_head(&h_g, &xa));
    });
    let mut head = s.compile_head(&h_g, &xa);
    group.bench_function("head_eval_grad/one-candidate", |b| {
        b.iter(|| head.eval_grad(&[0.0, 0.1, -0.1, 1.0, 0.0, 0.0]));
    });
    group.bench_function("train_step/batch64", |b| {
        b.iter(|| {
            let mut g = Graph::new();
            let bound = s.params().bind(&mut g);
            let xm = g.leaf(Tensor::zeros(64, 6));
            let (mu, sigma) = s.forward(&mut g, &bound, &data, &xa, xm, 64, true);
            let y = g.leaf(Tensor::zeros(64, 1));
            let l1 = g.mse(mu, y);
            let l2 = g.mse(sigma, y);
            let loss = g.add(l1, l2);
            g.backward(loss)
        });
    });
    group.finish();
}

/// `predicted_min` + `recommend` as `AutoTuner::tune_parts` runs them, with
/// a briefly trained `lite` recommender: ~10⁴ head evaluations on one
/// operator context.
fn bench_recommend(c: &mut Criterion) {
    let matrices: Vec<(String, Csr, bool)> = vec![
        ("lap".into(), laplace_1d(24), true),
        ("pdd".into(), pdd_real_sparse(32, 2), false),
    ];
    let runner = MeasurementRunner::new(MeasureConfig::default());
    let ds = PaperDataset::build(&runner, &matrices, 1, 0, 0);
    let mut rec = Recommender::fit(
        &ds,
        &matrices,
        SurrogateConfig::lite(N_MATRIX_FEATURES, 6),
        TrainConfig {
            epochs: 4,
            patience: 0,
            ..Default::default()
        },
    );
    let a = PaperMatrix::UnsteadyAdvDiffOrder2.generate();
    let mut group = c.benchmark_group("gnn");
    group.bench_function("recommend/unsteady_adv_diff_order2", |b| {
        b.iter(|| {
            let mut ctx = rec.context(&a);
            let y_min = ctx.predicted_min(SolverType::Gmres, 0);
            ctx.recommend(SolverType::Gmres, y_min, 0.05, 0)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_gnn, bench_recommend);
criterion_main!(benches);
