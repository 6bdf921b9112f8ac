//! Adapter exposing the GNN surrogate to the Bayesian optimiser.
//!
//! The optimiser works in the *physical* (α, ε, δ) space; the surrogate
//! consumes standardised 6-vectors `[α, ε, δ, onehot(solver)]`. This adapter
//! sits between the two: it standardises on the way in and applies the
//! chain rule (`∂/∂raw = ∂/∂std / σ_col`) on the way out, so gradients
//! arrive in physical coordinates.

use mcmcmi_bayesopt::SurrogateModel;
use mcmcmi_gnn::InferenceHead;
use mcmcmi_krylov::SolverType;
use mcmcmi_stats::Standardizer;

/// Physical-space view of one operator's compiled inference head, for one
/// solver family.
pub struct GnnSurrogateAdapter<'a> {
    head: &'a mut InferenceHead,
    xm_std: &'a Standardizer,
    one_hot: [f64; 3],
    /// `∂z_i/∂x_i` of the standardiser for the three physical columns.
    inv_scale: [f64; 3],
}

impl<'a> GnnSurrogateAdapter<'a> {
    /// Wrap a compiled head; `xm_std` is the 6-dim standardiser fitted on
    /// the training dataset.
    pub fn new(head: &'a mut InferenceHead, xm_std: &'a Standardizer, solver: SolverType) -> Self {
        assert_eq!(
            xm_std.dim(),
            6,
            "GnnSurrogateAdapter: expected 6-dim x_M standardiser"
        );
        // Column scales recovered by transforming two probe points (avoids
        // exposing the standardiser's internals). This difference *is* the
        // value's definition: `1/σ` differs from it in the last bit, and a
        // last bit moves recommendations.
        let probe0 = xm_std.transform(&[0.0; 6]);
        let probe1 = xm_std.transform(&[1.0; 6]);
        Self {
            head,
            xm_std,
            one_hot: solver.one_hot(),
            inv_scale: std::array::from_fn(|i| probe1[i] - probe0[i]),
        }
    }

    fn std6(&self, x: &[f64]) -> [f64; 6] {
        assert_eq!(x.len(), 3, "GnnSurrogateAdapter: expected (α, ε, δ)");
        let [s0, s1, s2] = self.one_hot;
        let mut z = [x[0], x[1], x[2], s0, s1, s2];
        self.xm_std.transform_in_place(&mut z);
        z
    }
}

impl SurrogateModel for GnnSurrogateAdapter<'_> {
    fn dim(&self) -> usize {
        3
    }

    fn predict(&mut self, x: &[f64]) -> (f64, f64) {
        let z = self.std6(x);
        self.head.eval(&z)
    }

    fn predict_grad(&mut self, x: &[f64]) -> (f64, f64, Vec<f64>, Vec<f64>) {
        let z = self.std6(x);
        let (mu, sigma, mut dmu, mut dsigma) = self.head.eval_grad(&z);
        // Chain rule through z = (x − m)/s: ∂f/∂x_i = ∂f/∂z_i / s_i; the
        // one-hot columns are not optimised over.
        for d in [&mut dmu, &mut dsigma] {
            d.truncate(3);
            for (v, s) in d.iter_mut().zip(self.inv_scale) {
                *v *= s;
            }
        }
        (mu, sigma, dmu, dsigma)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmcmi_gnn::{MatrixGraph, Surrogate, SurrogateConfig};
    use mcmcmi_matgen::laplace_1d;

    fn setup() -> (InferenceHead, Standardizer) {
        let s = Surrogate::new(SurrogateConfig {
            gnn_hidden: 8,
            xa_hidden: 4,
            xm_hidden: 4,
            comb_hidden: 8,
            dropout: 0.0,
            ..SurrogateConfig::lite(3, 6)
        });
        let data = MatrixGraph::from_csr(&laplace_1d(6));
        let h_g = s.embed_graph(&data);
        // A standardiser with non-trivial scales.
        let rows: Vec<Vec<f64>> = (0..20)
            .map(|k| {
                let t = k as f64 / 19.0;
                vec![
                    1.0 + 4.0 * t,
                    0.1 + 0.8 * t,
                    0.05 + 0.9 * t,
                    1.0 - t,
                    t,
                    0.0,
                ]
            })
            .collect();
        let xm_std = Standardizer::fit(&rows);
        (s.compile_head(&h_g, &[0.1, -0.2, 0.3]), xm_std)
    }

    #[test]
    fn predict_outputs_valid_gaussian_params() {
        let (mut head, xm_std) = setup();
        let mut ad = GnnSurrogateAdapter::new(&mut head, &xm_std, SolverType::Gmres);
        let (mu, sigma) = ad.predict(&[2.0, 0.25, 0.25]);
        assert!(mu >= 0.0);
        assert!(sigma > 0.0);
        assert_eq!(ad.dim(), 3);
    }

    #[test]
    fn physical_gradients_match_finite_differences() {
        let (mut head, xm_std) = setup();
        let mut ad = GnnSurrogateAdapter::new(&mut head, &xm_std, SolverType::Gmres);
        let x = [2.0, 0.3, 0.4];
        let (_, _, dmu, dsg) = ad.predict_grad(&x);
        let h = 1e-6;
        for k in 0..3 {
            let mut xp = x;
            xp[k] += h;
            let (mp, sp) = ad.predict(&xp);
            xp[k] -= 2.0 * h;
            let (mm, sm) = ad.predict(&xp);
            let nmu = (mp - mm) / (2.0 * h);
            let nsg = (sp - sm) / (2.0 * h);
            assert!((dmu[k] - nmu).abs() < 1e-5, "dmu[{k}] {} vs {nmu}", dmu[k]);
            assert!((dsg[k] - nsg).abs() < 1e-5, "dsg[{k}] {} vs {nsg}", dsg[k]);
        }
    }

    #[test]
    fn solver_choice_changes_predictions() {
        let (mut head, xm_std) = setup();
        let x = [2.0, 0.25, 0.25];
        let p_gmres = GnnSurrogateAdapter::new(&mut head, &xm_std, SolverType::Gmres).predict(&x);
        let p_bicg = GnnSurrogateAdapter::new(&mut head, &xm_std, SolverType::BiCgStab).predict(&x);
        assert_ne!(p_gmres, p_bicg);
    }
}
