//! Surrogate training on the paper's dataset format (§3.1, Eq. 2).

use crate::graph_data::MatrixGraph;
use crate::surrogate::Surrogate;
use mcmcmi_autodiff::{Adam, AdamConfig, GradClip, Graph, Tensor};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// One labelled datum: `(G_i, x_A,i, x_M,i, ȳ_i, s_i)` — the sample mean and
/// sample standard deviation of repeated solver runs for this input.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GraphSample {
    /// Index into the dataset's matrix list.
    pub matrix_idx: usize,
    /// MCMC parameter vector (already standardised).
    pub xm: Vec<f64>,
    /// Sample mean of the performance metric y (Eq. 4).
    pub y_mean: f64,
    /// Sample standard deviation of y.
    pub y_std: f64,
}

/// The training dataset: shared matrix graphs + features, and per-sample
/// labels.
#[derive(Clone, Debug, Default)]
pub struct SurrogateDataset {
    /// Matrix graphs (one per distinct system).
    pub graphs: Vec<MatrixGraph>,
    /// Standardised cheap features `x_A`, parallel to `graphs`.
    pub xa: Vec<Vec<f64>>,
    /// Labelled samples.
    pub samples: Vec<GraphSample>,
}

impl SurrogateDataset {
    /// Register a matrix; returns its index for samples.
    pub fn add_matrix(&mut self, graph: MatrixGraph, xa: Vec<f64>) -> usize {
        self.graphs.push(graph);
        self.xa.push(xa);
        self.graphs.len() - 1
    }

    /// Add a labelled sample.
    pub fn push_sample(&mut self, s: GraphSample) {
        assert!(
            s.matrix_idx < self.graphs.len(),
            "sample references unknown matrix"
        );
        self.samples.push(s);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no samples are stored.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Split sample indices into train/validation deterministically.
    pub fn split(&self, val_fraction: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
        let mut idx: Vec<usize> = (0..self.samples.len()).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        idx.shuffle(&mut rng);
        let n_val = ((self.samples.len() as f64) * val_fraction).round() as usize;
        let val = idx.split_off(self.samples.len() - n_val.min(self.samples.len()));
        (idx, val)
    }
}

/// Global-norm gradient clip.
const CLIP: f64 = 5.0;

/// Validation fraction (paper: 20%).
const VAL_FRACTION: f64 = 0.2;

/// Training configuration (paper §4.3/4.4 settings are the defaults).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Max epochs (paper: up to 150 with ASHA early stopping).
    pub epochs: usize,
    /// Batch size (paper: 128).
    pub batch_size: usize,
    /// Adam settings (paper lr: 1.848e-3).
    pub adam: AdamConfig,
    /// Early-stopping patience in epochs (0 disables).
    pub patience: usize,
    /// Shuffling/split seed.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self {
            epochs: 60,
            batch_size: 128,
            adam: AdamConfig {
                lr: 1.848e-3,
                weight_decay: 1e-4,
            },
            patience: 12,
            seed: 7,
        }
    }
}

/// Loss/metric trajectory of one training run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TrainReport {
    /// Mean training loss per epoch (Eq. 2).
    pub train_loss: Vec<f64>,
    /// Validation loss per epoch.
    pub val_loss: Vec<f64>,
    /// Epoch whose weights were kept (early stopping).
    pub best_epoch: usize,
    /// Best validation loss.
    pub best_val_loss: f64,
}

/// Eq.-2 loss over a set of samples, without gradient tracking.
fn evaluate_loss(surrogate: &mut Surrogate, ds: &SurrogateDataset, indices: &[usize]) -> f64 {
    if indices.is_empty() {
        return 0.0;
    }
    // Group by matrix: one embedding and one compiled head each.
    let mut by_matrix: Vec<Vec<usize>> = vec![Vec::new(); ds.graphs.len()];
    for &i in indices {
        by_matrix[ds.samples[i].matrix_idx].push(i);
    }
    let mut total = 0.0;
    let mut count = 0usize;
    for (m, rows) in by_matrix.iter().enumerate() {
        if rows.is_empty() {
            continue;
        }
        let h_g = surrogate.embed_graph(&ds.graphs[m]);
        let mut head = surrogate.compile_head(&h_g, &ds.xa[m]);
        for &i in rows {
            let s = &ds.samples[i];
            let (mu, sigma) = head.eval(&s.xm);
            total += (mu - s.y_mean).powi(2) + (sigma - s.y_std).powi(2);
            count += 1;
        }
    }
    total / count as f64
}

/// Train the surrogate with the Eq.-2 MSE objective. Returns the trajectory;
/// the surrogate is left with the best-validation weights.
pub fn train_surrogate(
    surrogate: &mut Surrogate,
    ds: &SurrogateDataset,
    cfg: TrainConfig,
) -> TrainReport {
    assert!(!ds.is_empty(), "train_surrogate: empty dataset");
    let (train_idx, val_idx) = ds.split(VAL_FRACTION, cfg.seed);
    let mut adam = Adam::new(cfg.adam, surrogate.params().tensors());
    let clip = GradClip { max_norm: CLIP };
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0xabcd);

    let mut report = TrainReport {
        best_val_loss: f64::INFINITY,
        ..Default::default()
    };
    let mut best_params: Option<Vec<Tensor>> = None;
    let mut since_best = 0usize;

    let xm_dim = ds.samples.first().map_or(0, |s| s.xm.len());

    for _epoch in 0..cfg.epochs {
        // Group shuffled train indices by matrix, then emit batches.
        let mut order = train_idx.clone();
        order.shuffle(&mut rng);
        let mut by_matrix: Vec<Vec<usize>> = vec![Vec::new(); ds.graphs.len()];
        for &i in &order {
            by_matrix[ds.samples[i].matrix_idx].push(i);
        }
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        for (m, rows) in by_matrix.iter().enumerate() {
            for chunk in rows.chunks(cfg.batch_size.max(1)) {
                let b = chunk.len();
                // Assemble batch tensors.
                let mut xm_data = Vec::with_capacity(b * xm_dim);
                let mut y_data = Vec::with_capacity(b);
                let mut s_data = Vec::with_capacity(b);
                for &i in chunk {
                    xm_data.extend_from_slice(&ds.samples[i].xm);
                    y_data.push(ds.samples[i].y_mean);
                    s_data.push(ds.samples[i].y_std);
                }
                let mut g = Graph::new();
                let bound = surrogate.params().bind(&mut g);
                let xm_var = g.leaf(Tensor::from_vec(b, xm_dim, xm_data));
                let (mu, sigma) =
                    surrogate.forward(&mut g, &bound, &ds.graphs[m], &ds.xa[m], xm_var, b, true);
                let y = g.leaf(Tensor::from_vec(b, 1, y_data));
                let s = g.leaf(Tensor::from_vec(b, 1, s_data));
                let l_mu = g.mse(mu, y);
                let l_sigma = g.mse(sigma, s);
                let loss = g.add(l_mu, l_sigma);
                epoch_loss += g.value(loss).scalar();
                batches += 1;
                let grads = g.backward(loss);
                let mut param_grads = surrogate.params().collect_grads(&bound, &grads);
                clip.clip(&mut param_grads);
                let decay_mask = surrogate.params().decay_mask().to_vec();
                adam.step(
                    surrogate.params_mut().tensors_mut(),
                    &param_grads,
                    Some(&decay_mask),
                );
            }
        }
        report.train_loss.push(if batches > 0 {
            epoch_loss / batches as f64
        } else {
            0.0
        });

        let vl = if val_idx.is_empty() {
            *report.train_loss.last().unwrap()
        } else {
            evaluate_loss(surrogate, ds, &val_idx)
        };
        report.val_loss.push(vl);
        if vl < report.best_val_loss {
            report.best_val_loss = vl;
            report.best_epoch = report.val_loss.len() - 1;
            best_params = Some(surrogate.params().tensors().to_vec());
            since_best = 0;
        } else {
            since_best += 1;
            if cfg.patience > 0 && since_best >= cfg.patience {
                break;
            }
        }
    }
    if let Some(best) = best_params {
        surrogate
            .params_mut()
            .tensors_mut()
            .iter_mut()
            .zip(best)
            .for_each(|(p, b)| *p = b);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surrogate::SurrogateConfig;
    use mcmcmi_matgen::{laplace_1d, pdd_real_sparse};

    /// A synthetic dataset with a learnable signal: y depends smoothly on
    /// the first xm component, different offset per matrix.
    fn synthetic_dataset() -> SurrogateDataset {
        let mut ds = SurrogateDataset::default();
        let m0 = ds.add_matrix(MatrixGraph::from_csr(&laplace_1d(8)), vec![0.0, 1.0, -1.0]);
        let m1 = ds.add_matrix(
            MatrixGraph::from_csr(&pdd_real_sparse(10, 3)),
            vec![1.0, -1.0, 0.5],
        );
        for k in 0..60 {
            let t = k as f64 / 59.0; // in [0,1]
            let xm = vec![t, 1.0 - t, 0.5];
            ds.push_sample(GraphSample {
                matrix_idx: if k % 2 == 0 { m0 } else { m1 },
                xm,
                y_mean: 0.4 + 0.5 * t + if k % 2 == 0 { 0.0 } else { 0.2 },
                y_std: 0.05,
            });
        }
        ds
    }

    fn tiny_surrogate() -> Surrogate {
        Surrogate::new(SurrogateConfig {
            gnn_hidden: 8,
            xa_hidden: 4,
            xm_hidden: 4,
            comb_hidden: 8,
            dropout: 0.0,
            ..SurrogateConfig::lite(3, 3)
        })
    }

    #[test]
    fn training_reduces_loss() {
        let ds = synthetic_dataset();
        let mut s = tiny_surrogate();
        let cfg = TrainConfig {
            epochs: 40,
            batch_size: 16,
            patience: 0,
            adam: AdamConfig {
                lr: 5e-3,
                weight_decay: 0.0,
            },
            ..Default::default()
        };
        let report = train_surrogate(&mut s, &ds, cfg);
        let first = report.train_loss[0];
        let last = *report.train_loss.last().unwrap();
        assert!(
            last < 0.5 * first,
            "training did not reduce loss: {first} → {last}"
        );
    }

    #[test]
    fn trained_model_tracks_signal_direction() {
        let ds = synthetic_dataset();
        let mut s = tiny_surrogate();
        let cfg = TrainConfig {
            epochs: 80,
            batch_size: 16,
            patience: 0,
            adam: AdamConfig {
                lr: 5e-3,
                weight_decay: 0.0,
            },
            ..Default::default()
        };
        train_surrogate(&mut s, &ds, cfg);
        // y grows with xm[0]: prediction at t=0.9 must exceed t=0.1 on the
        // same matrix.
        let h_g = s.embed_graph(&ds.graphs[0]);
        let (lo, _) = s.predict(&h_g, &ds.xa[0], &[0.1, 0.9, 0.5]);
        let (hi, _) = s.predict(&h_g, &ds.xa[0], &[0.9, 0.1, 0.5]);
        assert!(
            hi > lo,
            "prediction not increasing in the signal: {lo} vs {hi}"
        );
    }

    #[test]
    fn early_stopping_restores_best_weights() {
        let ds = synthetic_dataset();
        let mut s = tiny_surrogate();
        let cfg = TrainConfig {
            epochs: 30,
            patience: 3,
            ..Default::default()
        };
        let report = train_surrogate(&mut s, &ds, cfg);
        // Validation loss of the restored model equals the recorded best.
        let (_, val_idx) = ds.split(VAL_FRACTION, cfg.seed);
        let vl = evaluate_loss(&mut s, &ds, &val_idx);
        assert!(
            (vl - report.best_val_loss).abs() < 1e-9,
            "restored {vl} vs best {}",
            report.best_val_loss
        );
    }

    #[test]
    fn split_is_deterministic_and_disjoint() {
        let ds = synthetic_dataset();
        let (t1, v1) = ds.split(0.2, 9);
        let (t2, v2) = ds.split(0.2, 9);
        assert_eq!(t1, t2);
        assert_eq!(v1, v2);
        assert_eq!(t1.len() + v1.len(), ds.len());
        for i in &v1 {
            assert!(!t1.contains(i));
        }
    }

    #[test]
    #[should_panic(expected = "unknown matrix")]
    fn sample_with_bad_matrix_index_rejected() {
        let mut ds = SurrogateDataset::default();
        ds.push_sample(GraphSample {
            matrix_idx: 0,
            xm: vec![],
            y_mean: 0.0,
            y_std: 0.0,
        });
    }
}
