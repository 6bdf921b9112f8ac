//! The inference head against its oracle: `InferenceHead::eval` /
//! `eval_grad` must equal the tape (`Surrogate::forward` + two
//! `Graph::backward` sweeps) **bit for bit** — values and input gradients.
//! Closeness is not enough: L-BFGS-B on the piecewise-linear μ̂ amplifies a
//! one-ulp difference into a different recommendation.

use mcmcmi_autodiff::{Graph, Tensor};
use mcmcmi_gnn::{
    train_surrogate, GraphSample, MatrixGraph, Surrogate, SurrogateConfig, SurrogateDataset,
    TrainConfig,
};
use mcmcmi_matgen::{laplace_1d, pdd_real_sparse};
use proptest::prelude::*;

const XA_DIM: usize = 5;
const XM_DIM: usize = 6;

/// Four width presets: one with a single-unit `x_M` stack (no layer norm
/// there), a tiny one, and the `lite` and `paper` architectures.
fn preset(width: usize) -> SurrogateConfig {
    let small = |xm_hidden| SurrogateConfig {
        gnn_hidden: 8,
        xa_hidden: 4,
        xm_hidden,
        comb_hidden: 8,
        ..SurrogateConfig::lite(XA_DIM, XM_DIM)
    };
    match width {
        0 => small(1),
        1 => small(4),
        2 => SurrogateConfig::lite(XA_DIM, XM_DIM),
        _ => SurrogateConfig::paper(XA_DIM, XM_DIM),
    }
}

/// A surrogate a few Adam steps away from initialisation (so biases are
/// non-zero and weights are not Xavier draws), and the matrix it saw.
fn trained(cfg: SurrogateConfig) -> (Surrogate, MatrixGraph, Vec<f64>) {
    let mut ds = SurrogateDataset::default();
    let xa = vec![0.3, -1.2, 0.0, 0.7, 2.0];
    let m0 = ds.add_matrix(MatrixGraph::from_csr(&laplace_1d(6)), xa.clone());
    let m1 = ds.add_matrix(
        MatrixGraph::from_csr(&pdd_real_sparse(8, 3)),
        vec![-0.5, 0.4, 1.0, 0.0, -1.0],
    );
    for k in 0..16 {
        let t = k as f64 / 15.0;
        ds.push_sample(GraphSample {
            matrix_idx: if k % 2 == 0 { m0 } else { m1 },
            xm: vec![t, 1.0 - t, 0.5 - t, 1.0, 0.0, 0.0],
            y_mean: 0.3 + 0.6 * t,
            y_std: 0.05 + 0.1 * t,
        });
    }
    let mut s = Surrogate::new(cfg);
    train_surrogate(
        &mut s,
        &ds,
        TrainConfig {
            epochs: 2,
            batch_size: 4,
            patience: 0,
            ..Default::default()
        },
    );
    (s, ds.graphs.swap_remove(m0), xa)
}

/// `(μ̂, σ̂, ∂μ̂/∂x_M, ∂σ̂/∂x_M)` from the tape, as raw bits.
fn tape_bits(s: &mut Surrogate, data: &MatrixGraph, xa: &[f64], xm: &[f64]) -> Vec<u64> {
    let mut g = Graph::new();
    let bound = s.params().bind(&mut g);
    let xm_var = g.leaf(Tensor::row_vector(xm));
    let (mu, sigma) = s.forward(&mut g, &bound, data, xa, xm_var, 1, false);
    let mut out = vec![g.value(mu).scalar(), g.value(sigma).scalar()];
    for head in [mu, sigma] {
        let grads = g.backward(head);
        out.extend_from_slice(grads.get_or_zero(xm_var, 1, xm.len()).data());
    }
    out.into_iter().map(f64::to_bits).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn head_equals_tape_bit_for_bit(
        (width, xa_layers, xm_layers, comb_layers, seed) in
            (0usize..4, 1usize..=3, 1usize..=3, 1usize..=3, 0u64..1000),
        points in collection::vec(collection::vec(-2.5f64..2.5, XM_DIM), 3),
        zero_mask in 0usize..64,
    ) {
        let (mut s, data, xa) = trained(SurrogateConfig {
            xa_layers,
            xm_layers,
            comb_layers,
            seed,
            ..preset(width)
        });
        let h_g = s.embed_graph(&data);
        let mut head = s.compile_head(&h_g, &xa);
        // One head serves every point in turn (scratch is reused); exact
        // zeros — a solver one-hot, a masked point, the origin — take
        // `matmul`'s zero-skip branch.
        let mut points = points;
        points[0][3..].copy_from_slice(&[0.0, 1.0, 0.0]);
        for (k, v) in points[1].iter_mut().enumerate() {
            if zero_mask >> k & 1 == 1 {
                *v = 0.0;
            }
        }
        points.push(vec![0.0; XM_DIM]);
        for xm in &points {
            let want = tape_bits(&mut s, &data, &xa, xm);
            let (mu, sigma, dmu, dsigma) = head.eval_grad(xm);
            let mut got = vec![mu, sigma];
            got.extend(dmu);
            got.extend(dsigma);
            let got: Vec<u64> = got.into_iter().map(f64::to_bits).collect();
            prop_assert_eq!(&got, &want, "eval_grad at {:?}", xm);
            let (mu, sigma) = head.eval(xm);
            prop_assert_eq!([mu.to_bits(), sigma.to_bits()], [want[0], want[1]]);
        }
        prop_assert_eq!(head.grad_evals(), points.len());
    }
}
