//! The end-to-end tuning pipeline (Algorithm 1) and the user-facing
//! `recommend(A) → x_M*` API.

use crate::adapter::GnnSurrogateAdapter;
use crate::dataset::{DatasetRecord, PaperDataset};
use crate::features::matrix_features;
use crate::measure::MeasurementRunner;
use mcmcmi_bayesopt::{
    best_starts, first_best, lbfgsb_minimize, maximize_ei, propose_batch, random_starts,
    ProposeConfig, SurrogateModel,
};
use mcmcmi_gnn::{
    train_surrogate, InferenceHead, MatrixGraph, Surrogate, SurrogateConfig, TrainConfig,
    TrainReport,
};
use mcmcmi_krylov::SolverType;
use mcmcmi_mcmc::McmcParams;
use mcmcmi_sparse::Csr;
use mcmcmi_stats::Standardizer;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Pipeline settings.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Replicates per measurement (paper: 10).
    pub reps: usize,
    /// Recommendations per BO round (paper: 32).
    pub bo_batch: usize,
    /// EI exploration parameter ξ.
    pub xi: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            reps: 10,
            bo_batch: 32,
            xi: 0.05,
            seed: 0,
        }
    }
}

/// Result of one BO round on a target matrix.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BoRoundOutcome {
    /// The measured recommendations (appendable to the dataset).
    pub records: Vec<DatasetRecord>,
    /// Parameter with the lowest sample median among the round's batch.
    pub best_params: McmcParams,
    /// That parameter's sample median of y.
    pub best_median: f64,
}

/// A trained recommender: surrogate + standardisers + measurement runner.
pub struct Recommender {
    surrogate: Surrogate,
    xa_std: Standardizer,
    xm_std: Standardizer,
    train_report: TrainReport,
}

/// Serialisable snapshot of a trained [`Recommender`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RecommenderSnapshot {
    /// Surrogate weights + architecture.
    pub surrogate: mcmcmi_gnn::surrogate::SurrogateSnapshot,
    /// Matrix-feature standardiser.
    pub xa_std: Standardizer,
    /// Parameter standardiser.
    pub xm_std: Standardizer,
    /// Training trajectory.
    pub train_report: TrainReport,
}

impl Recommender {
    /// Train a surrogate on a dataset ("Pre-BO model" when called on the
    /// grid dataset; "BO-enhanced" when called on grid + BO records).
    pub fn fit(
        dataset: &PaperDataset,
        matrices: &[(String, Csr, bool)],
        surrogate_cfg: SurrogateConfig,
        train_cfg: TrainConfig,
    ) -> Self {
        let (sds, xa_std, xm_std) = dataset.to_surrogate_dataset(matrices);
        let mut surrogate = Surrogate::new(surrogate_cfg);
        let train_report = train_surrogate(&mut surrogate, &sds, train_cfg);
        Self {
            surrogate,
            xa_std,
            xm_std,
            train_report,
        }
    }

    /// Training trajectory of the most recent fit.
    pub fn train_report(&self) -> &TrainReport {
        &self.train_report
    }

    /// Snapshot for persistence (model caching between experiment runs).
    pub fn to_snapshot(&self) -> RecommenderSnapshot {
        RecommenderSnapshot {
            surrogate: self.surrogate.snapshot(),
            xa_std: self.xa_std.clone(),
            xm_std: self.xm_std.clone(),
            train_report: self.train_report.clone(),
        }
    }

    /// Restore from a snapshot.
    pub fn from_snapshot(snap: RecommenderSnapshot) -> Self {
        Self {
            surrogate: Surrogate::from_snapshot(snap.surrogate),
            xa_std: snap.xa_std,
            xm_std: snap.xm_std,
            train_report: snap.train_report,
        }
    }

    /// Borrow the underlying surrogate (e.g. for snapshots).
    pub fn surrogate_mut(&mut self) -> &mut Surrogate {
        &mut self.surrogate
    }

    /// Everything the surrogate needs to know about `a`, computed once:
    /// the graph embedding, the standardised features and the compiled
    /// inference head. Every query below goes through one of these; build
    /// it yourself when asking more than one question about an operator.
    pub fn context(&mut self, a: &Csr) -> OperatorContext {
        let h_g = self.surrogate.embed_graph(&MatrixGraph::from_csr(a));
        let xa = self.xa_std.transform(&matrix_features(a));
        OperatorContext {
            head: self.surrogate.compile_head(&h_g, &xa),
            xm_std: self.xm_std.clone(),
            worker_evals: 0,
        }
    }

    /// [`OperatorContext::predict`] on a fresh context for `a`.
    pub fn predict(&mut self, a: &Csr, solver: SolverType, params: McmcParams) -> (f64, f64) {
        self.context(a).predict(solver, params)
    }

    /// [`OperatorContext::predicted_min`] on a fresh context for `a`.
    pub fn predicted_min(&mut self, a: &Csr, solver: SolverType, seed: u64) -> f64 {
        self.context(a).predicted_min(solver, seed)
    }

    /// [`OperatorContext::recommend`] on a fresh context for `a`.
    pub fn recommend(
        &mut self,
        a: &Csr,
        solver: SolverType,
        y_min: f64,
        xi: f64,
        seed: u64,
    ) -> (McmcParams, f64) {
        self.context(a).recommend(solver, y_min, xi, seed)
    }

    /// One BO round (Algorithm 1 inner loop) on a target matrix: propose
    /// `k` candidates by EI, measure each with `reps` replicates, and
    /// return the records (caller appends them to the dataset and refits).
    #[allow(clippy::too_many_arguments)]
    pub fn bo_round(
        &mut self,
        runner: &MeasurementRunner,
        a: &Csr,
        name: &str,
        solver: SolverType,
        y_min: f64,
        cfg: PipelineConfig,
    ) -> BoRoundOutcome {
        let (lo, hi) = McmcParams::search_box();
        let candidates = propose_batch(
            &mut self.context(a).adapter(solver),
            y_min,
            &lo,
            &hi,
            cfg.bo_batch,
            ProposeConfig {
                xi: cfg.xi,
                seed: cfg.seed,
            },
        );
        let mut records = Vec::with_capacity(candidates.len());
        let mut best: Option<(McmcParams, f64)> = None;
        for (ci, cand) in candidates.iter().enumerate() {
            let params = McmcParams::from_clamped(cand);
            let (y_mean, y_std, ms) = runner.measure_replicated(
                a,
                params,
                solver,
                cfg.reps,
                cfg.seed.wrapping_add(77_000 + ci as u64 * 131),
            );
            let ys: Vec<f64> = ms.iter().map(|m| m.y).collect();
            let med = mcmcmi_stats::median(&ys).unwrap_or(f64::INFINITY);
            if best.as_ref().is_none_or(|(_, b)| med < *b) {
                best = Some((params, med));
            }
            records.push(DatasetRecord {
                matrix: name.to_string(),
                solver,
                params,
                y_mean,
                y_std,
                ys,
            });
        }
        let (best_params, best_median) = best.expect("bo_round: empty batch");
        BoRoundOutcome {
            records,
            best_params,
            best_median,
        }
    }
}

/// One operator as the trained surrogate sees it — built once by
/// [`Recommender::context`], then asked any number of questions that vary
/// only `x_M` (parameters and the solver one-hot). A snapshot of the
/// weights it was compiled from: refitting the recommender does not reach
/// it.
///
/// The multi-start searches ([`OperatorContext::predicted_min`],
/// [`OperatorContext::recommend`]) draw their start points in order from
/// one seeded stream, polish the starts across the rayon pool — each
/// worker on its own clone of the compiled head, which answers with the
/// same bits — and fold the results in start order, so what they return
/// is the same at any thread count.
pub struct OperatorContext {
    head: InferenceHead,
    xm_std: Standardizer,
    /// Gradient evaluations spent by the pool workers' head clones.
    worker_evals: usize,
}

impl OperatorContext {
    fn adapter(&mut self, solver: SolverType) -> GnnSurrogateAdapter<'_> {
        GnnSurrogateAdapter::new(&mut self.head, &self.xm_std, solver)
    }

    /// Polish every start with `polish` across the pool, each worker on
    /// its own clone of the head, and return the results in start order.
    /// The workers' gradient evaluations are added to this context's count.
    fn across_pool<T: Send>(
        &mut self,
        solver: SolverType,
        starts: &[Vec<f64>],
        polish: impl Fn(&mut GnnSurrogateAdapter<'_>, &[f64]) -> T + Sync,
    ) -> Vec<T> {
        let (head, xm_std) = (&self.head, &self.xm_std);
        let polished: Vec<(T, usize)> = (0..starts.len())
            .into_par_iter()
            .map_init(
                || head.clone(),
                |worker, i| {
                    let before = worker.grad_evals();
                    let out = polish(
                        &mut GnnSurrogateAdapter::new(worker, xm_std, solver),
                        &starts[i],
                    );
                    (out, worker.grad_evals() - before)
                },
            )
            .collect();
        self.worker_evals += polished.iter().map(|(_, evals)| evals).sum::<usize>();
        polished.into_iter().map(|(out, _)| out).collect()
    }

    /// Surrogate gradient evaluations spent on this context so far — one
    /// per objective evaluation of the L-BFGS-B runs behind
    /// [`OperatorContext::predicted_min`] and
    /// [`OperatorContext::recommend`], whichever worker ran them. A count,
    /// not a time: it repeats exactly at a given seed and any thread count.
    pub fn surrogate_evals(&self) -> usize {
        self.head.grad_evals() + self.worker_evals
    }

    /// Predict `(μ̂, σ̂)` for given physical parameters.
    pub fn predict(&mut self, solver: SolverType, params: McmcParams) -> (f64, f64) {
        self.adapter(solver).predict(&params.as_vec())
    }

    /// Surrogate-predicted minimum of μ̂ over the parameter box — the
    /// natural EI incumbent for a matrix with *no observations yet* (using
    /// the global dataset minimum instead would poison the improvement
    /// term with other matrices' easier baselines).
    pub fn predicted_min(&mut self, solver: SolverType, seed: u64) -> f64 {
        let (lo, hi) = McmcParams::search_box();
        // Multi-start minimisation of μ̂ (EI with y_min → −∞ reduces to
        // exploitation; here we just descend μ̂ directly).
        let starts = random_starts(&lo, &hi, 12, seed);
        let minima = self.across_pool(solver, &starts, |adapter, x0| {
            let objective = |x: &[f64]| {
                let (mu, _s, dmu, _ds) = adapter.predict_grad(x);
                (mu, dmu)
            };
            lbfgsb_minimize(objective, x0, &lo, &hi, 100).f
        });
        minima.into_iter().fold(f64::INFINITY, f64::min)
    }

    /// Recommend parameters: multi-start EI maximisation against the best
    /// observed metric `y_min`.
    pub fn recommend(
        &mut self,
        solver: SolverType,
        y_min: f64,
        xi: f64,
        seed: u64,
    ) -> (McmcParams, f64) {
        let (lo, hi) = McmcParams::search_box();
        let cfg = ProposeConfig { xi, seed };
        let starts = best_starts(&lo, &hi, 16, cfg);
        let (x, ei) = first_best(self.across_pool(solver, &starts, |adapter, x0| {
            maximize_ei(adapter, y_min, x0, &lo, &hi, cfg)
        }));
        (McmcParams::from_clamped(&x), ei)
    }
}

/// Evaluate the surrogate's predictions over a set of records on one matrix
/// (used by the Figure-1/2 analyses): returns `(μ̂_j, σ̂_j)` per record.
pub fn predict_records(
    rec: &mut Recommender,
    a: &Csr,
    records: &[DatasetRecord],
) -> Vec<(f64, f64)> {
    let mut ctx = rec.context(a);
    records
        .iter()
        .map(|r| ctx.predict(r.solver, r.params))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::MeasureConfig;
    use mcmcmi_krylov::SolveOptions;
    use mcmcmi_matgen::{laplace_1d, pdd_real_sparse};

    fn fast_runner() -> MeasurementRunner {
        MeasurementRunner::new(MeasureConfig {
            solve: SolveOptions {
                tol: 1e-6,
                max_iter: 300,
                restart: 30,
                ..Default::default()
            },
        })
    }

    fn tiny_surrogate_cfg() -> SurrogateConfig {
        SurrogateConfig {
            gnn_hidden: 8,
            xa_hidden: 4,
            xm_hidden: 4,
            comb_hidden: 8,
            dropout: 0.0,
            ..SurrogateConfig::lite(crate::features::N_MATRIX_FEATURES, 6)
        }
    }

    fn fast_train_cfg() -> TrainConfig {
        TrainConfig {
            epochs: 8,
            batch_size: 32,
            patience: 0,
            ..Default::default()
        }
    }

    #[test]
    fn end_to_end_fit_recommend_and_bo_round() {
        let runner = fast_runner();
        let matrices: Vec<(String, Csr, bool)> = vec![
            ("lap".into(), laplace_1d(24), true),
            ("pdd".into(), pdd_real_sparse(32, 2), false),
        ];
        let ds = PaperDataset::build(&runner, &matrices, 2, 1, 0);
        assert!(ds.len() > 200);

        let mut rec = Recommender::fit(&ds, &matrices, tiny_surrogate_cfg(), fast_train_cfg());

        // Prediction API produces a valid Gaussian.
        let (mu, sigma) = rec.predict(
            &matrices[0].1,
            SolverType::Gmres,
            McmcParams::new(1.0, 0.25, 0.25),
        );
        assert!(mu >= 0.0 && sigma > 0.0);

        // Recommendation lands inside the box.
        let target = pdd_real_sparse(28, 9); // unseen matrix
        let (params, _ei) = rec.recommend(&target, SolverType::Gmres, 1.0, 0.05, 3);
        let (lo, hi) = McmcParams::search_box();
        assert!(params.alpha >= lo[0] && params.alpha <= hi[0]);
        assert!(params.eps >= lo[1] && params.eps <= hi[1]);
        assert!(params.delta >= lo[2] && params.delta <= hi[2]);

        // BO round: small batch, measured records come back well-formed.
        let cfg = PipelineConfig {
            reps: 2,
            bo_batch: 3,
            xi: 0.05,
            seed: 1,
        };
        let round = rec.bo_round(&runner, &target, "target", SolverType::Gmres, 1.0, cfg);
        assert_eq!(round.records.len(), 3);
        assert!(round.best_median > 0.0);
        for r in &round.records {
            assert_eq!(r.ys.len(), 2);
            assert_eq!(r.matrix, "target");
        }

        // Retraining with the appended records (BO-enhanced model) works.
        let mut ds2 = ds.clone();
        let mut mats2 = matrices.clone();
        mats2.push(("target".into(), target.clone(), false));
        ds2.matrix_names.push("target".into());
        ds2.records.extend(round.records.clone());
        let mut enhanced = Recommender::fit(&ds2, &mats2, tiny_surrogate_cfg(), fast_train_cfg());
        let (mu2, sigma2) =
            enhanced.predict(&target, SolverType::Gmres, McmcParams::new(1.0, 0.25, 0.25));
        assert!(mu2 >= 0.0 && sigma2 > 0.0);
    }

    #[test]
    fn predicted_min_is_attainable_by_predictions() {
        let runner = fast_runner();
        let matrices: Vec<(String, Csr, bool)> =
            vec![("pdd".into(), pdd_real_sparse(32, 2), false)];
        let ds = PaperDataset::build(&runner, &matrices, 1, 0, 0);
        let mut rec = Recommender::fit(&ds, &matrices, tiny_surrogate_cfg(), fast_train_cfg());
        let a = pdd_real_sparse(24, 8);
        let pmin = rec.predicted_min(&a, SolverType::Gmres, 3);
        // Any probe prediction is ≥ the multistart minimum (up to slack for
        // unexplored local minima of a tiny random surrogate).
        let (mu, _) = rec.predict(&a, SolverType::Gmres, McmcParams::new(2.0, 0.25, 0.25));
        assert!(pmin <= mu + 1e-6, "pmin {pmin} vs probe {mu}");
    }

    #[test]
    fn predict_records_aligns_with_inputs() {
        let runner = fast_runner();
        let matrices: Vec<(String, Csr, bool)> =
            vec![("pdd".into(), pdd_real_sparse(24, 4), false)];
        let ds = PaperDataset::build(&runner, &matrices, 1, 0, 0);
        let mut rec = Recommender::fit(&ds, &matrices, tiny_surrogate_cfg(), fast_train_cfg());
        let preds = predict_records(&mut rec, &matrices[0].1, &ds.records[..5]);
        assert_eq!(preds.len(), 5);
        assert!(preds.iter().all(|&(m, s)| m >= 0.0 && s > 0.0));
    }
}
