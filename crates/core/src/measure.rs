//! The measurement runner: `MCMC build + Krylov solve`, reporting the
//! performance metric of Eq. 4.

use mcmcmi_krylov::{solve, IdentityPrecond, SolveOptions, SolverType};
use mcmcmi_mcmc::{BuildConfig, McmcInverse, McmcParams};
use mcmcmi_sparse::Csr;
use serde::{Deserialize, Serialize};

/// Cap applied to the metric so divergent preconditioners produce a
/// large-but-finite training signal (the paper's near-zero-α rows).
const Y_CAP: f64 = 5.0;

/// Measurement settings. Every replicate builds with the default
/// [`BuildConfig`] at its own seed.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MeasureConfig {
    /// Krylov solver settings (tolerance, caps, restart).
    pub solve: SolveOptions,
}

impl Default for MeasureConfig {
    fn default() -> Self {
        Self {
            solve: SolveOptions {
                tol: 1e-8,
                max_iter: 2000,
                restart: 50,
                ..Default::default()
            },
        }
    }
}

/// One measured replicate.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Measurement {
    /// Metric y (Eq. 4), capped at 5.
    pub y: f64,
    /// Steps with the preconditioner.
    pub steps_with: usize,
    /// Steps without (shared baseline).
    pub steps_without: usize,
    /// Whether the preconditioned run converged.
    pub converged: bool,
    /// Whether the build looked divergent.
    pub build_divergent: bool,
}

/// Runs solver measurements with a fixed manufactured right-hand side
/// (`b = A·x*` for an oscillatory `x*`), so the exact solution is known and
/// the baseline is deterministic.
#[derive(Clone, Debug)]
pub struct MeasurementRunner {
    cfg: MeasureConfig,
}

impl MeasurementRunner {
    /// New runner.
    pub fn new(cfg: MeasureConfig) -> Self {
        Self { cfg }
    }

    /// Configuration accessor.
    pub fn config(&self) -> &MeasureConfig {
        &self.cfg
    }

    /// Deterministic right-hand side `b = A·x*` with the oscillatory
    /// manufactured solution `x*_i = sin(0.7i) + 0.3·cos(2.3i)` — the
    /// first of the auto-tuner's probe right-hand sides, bit for bit.
    pub fn rhs(&self, a: &Csr) -> Vec<f64> {
        manufactured_rhs(a, 0)
    }

    /// Unpreconditioned step count — the denominator of Eq. 4, computed
    /// once per (matrix, solver).
    pub fn baseline_steps(&self, a: &Csr, solver: SolverType) -> usize {
        let b = self.rhs(a);
        let r = solve(
            a,
            &b,
            &IdentityPrecond::new(a.nrows()),
            solver,
            self.cfg.solve,
        );
        r.iterations.max(1)
    }

    /// One replicate: build the MCMC preconditioner with `seed`, solve, and
    /// return the metric against the supplied baseline.
    pub fn measure_once(
        &self,
        a: &Csr,
        params: McmcParams,
        solver: SolverType,
        baseline: usize,
        seed: u64,
    ) -> Measurement {
        let build_cfg = BuildConfig {
            seed,
            ..BuildConfig::default()
        };
        let outcome = McmcInverse::new(build_cfg).build(a, params);
        let b = self.rhs(a);
        // CG gets the symmetrised inverse, as the paper does for the SPD
        // Laplace family.
        let precond = outcome.precond.for_solver(solver);
        let result = solve(a, &b, &*precond, solver, self.cfg.solve);
        let steps_with = if result.converged {
            result.iterations
        } else {
            self.cfg.solve.max_iter
        };
        let y = (steps_with as f64 / baseline as f64).min(Y_CAP);
        Measurement {
            y,
            steps_with,
            steps_without: baseline,
            converged: result.converged,
            build_divergent: outcome.likely_divergent(),
        }
    }

    /// `reps` replicates (different MCMC seeds); returns `(ȳ, s, raw)` —
    /// the labelled datum of §4.2.
    pub fn measure_replicated(
        &self,
        a: &Csr,
        params: McmcParams,
        solver: SolverType,
        reps: usize,
        seed0: u64,
    ) -> (f64, f64, Vec<Measurement>) {
        let baseline = self.baseline_steps(a, solver);
        self.measure_replicated_with_baseline(a, params, solver, reps, seed0, baseline)
    }

    /// As [`MeasurementRunner::measure_replicated`], with a precomputed
    /// baseline — the dataset builder caches one baseline per
    /// (matrix, solver) instead of re-solving the unpreconditioned system
    /// for every grid cell.
    pub fn measure_replicated_with_baseline(
        &self,
        a: &Csr,
        params: McmcParams,
        solver: SolverType,
        reps: usize,
        seed0: u64,
        baseline: usize,
    ) -> (f64, f64, Vec<Measurement>) {
        assert!(reps >= 1, "measure_replicated: need at least one replicate");
        let ms: Vec<Measurement> = (0..reps)
            .map(|r| self.measure_once(a, params, solver, baseline, seed0 + 1000 * r as u64))
            .collect();
        let ys: Vec<f64> = ms.iter().map(|m| m.y).collect();
        (mcmcmi_stats::mean(&ys), mcmcmi_stats::sample_std(&ys), ms)
    }
}

/// Manufactured right-hand side number `c`: `b = A·x*` for the oscillatory
/// solution `x*_i = sin((0.7 + 0.13c)·i) + 0.3·cos(2.3i + c)`. Column 0 is
/// the measurement runner's `sin(0.7i) + 0.3·cos(2.3i)` bit for bit.
///
/// A non-trivial `x*` matters: differential operators annihilate
/// constants, so the naive `b = A·1` is an (almost) exact eigenvector and
/// Krylov methods converge in O(1) steps — a degenerate baseline that would
/// make Eq. 4 meaningless on exactly the matrices the paper cares about.
pub(crate) fn manufactured_rhs(a: &Csr, c: usize) -> Vec<f64> {
    let xstar: Vec<f64> = (0..a.ncols())
        .map(|i| {
            ((0.7 + 0.13 * c as f64) * i as f64).sin() + 0.3 * (2.3 * i as f64 + c as f64).cos()
        })
        .collect();
    a.spmv_alloc(&xstar)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmcmi_matgen::{fd_laplace_2d, pdd_real_sparse};

    fn runner() -> MeasurementRunner {
        MeasurementRunner::new(MeasureConfig::default())
    }

    #[test]
    fn baseline_is_positive_and_deterministic() {
        let a = fd_laplace_2d(12);
        let r = runner();
        let b1 = r.baseline_steps(&a, SolverType::Gmres);
        let b2 = r.baseline_steps(&a, SolverType::Gmres);
        assert!(b1 > 0);
        assert_eq!(b1, b2);
    }

    #[test]
    fn good_parameters_beat_baseline_on_laplacian() {
        let a = fd_laplace_2d(16);
        let r = runner();
        let baseline = r.baseline_steps(&a, SolverType::Gmres);
        let m = r.measure_once(
            &a,
            McmcParams::new(0.1, 0.0625, 0.03125),
            SolverType::Gmres,
            baseline,
            0,
        );
        assert!(m.converged);
        assert!(m.y < 1.0, "y = {}", m.y);
    }

    #[test]
    fn divergent_parameters_produce_capped_large_y() {
        // Non-dominant matrix + near-zero alpha: the paper's divergence rows.
        let mut coo = mcmcmi_sparse::Coo::new(24, 24);
        for i in 0..24usize {
            coo.push(i, i, 1.0);
            coo.push(i, (i + 1) % 24, 2.0);
            coo.push(i, (i + 7) % 24, -2.0);
        }
        let a = coo.to_csr();
        let r = runner();
        let baseline = r.baseline_steps(&a, SolverType::Gmres);
        let m = r.measure_once(
            &a,
            McmcParams::new(0.001, 0.125, 0.001),
            SolverType::Gmres,
            baseline,
            1,
        );
        assert!(m.y >= 1.0, "divergent build should not help: y = {}", m.y);
        assert!(m.y <= Y_CAP);
    }

    #[test]
    fn replicates_vary_with_mcmc_seed_but_mean_is_stable() {
        let a = pdd_real_sparse(64, 3);
        let r = runner();
        let (mean, std, ms) = r.measure_replicated(
            &a,
            McmcParams::new(1.0, 0.25, 0.25),
            SolverType::Gmres,
            5,
            0,
        );
        assert_eq!(ms.len(), 5);
        assert!(mean > 0.0);
        assert!(std >= 0.0);
        // All replicates share the same baseline.
        assert!(ms
            .windows(2)
            .all(|w| w[0].steps_without == w[1].steps_without));
    }

    #[test]
    fn cg_path_symmetrises() {
        let a = fd_laplace_2d(8);
        let r = runner();
        let baseline = r.baseline_steps(&a, SolverType::Cg);
        let m = r.measure_once(
            &a,
            McmcParams::new(0.1, 0.125, 0.0625),
            SolverType::Cg,
            baseline,
            2,
        );
        assert!(
            m.converged,
            "CG with symmetrised MCMC inverse should converge"
        );
    }

    #[test]
    fn rhs_is_nontrivial_and_deterministic() {
        let a = fd_laplace_2d(4);
        let b1 = runner().rhs(&a);
        let b2 = runner().rhs(&a);
        assert_eq!(b1, b2);
        // Must not be a constant multiple of A·1 (the degenerate case).
        assert!(b1.iter().any(|&v| v > 0.0) && b1.iter().any(|&v| v < 0.0));
    }

    #[test]
    fn baseline_is_nondegenerate_on_spectral_operator() {
        // Regression: with b = A·1 the Chebyshev operator's baseline was a
        // single GMRES step (1 is an eigenvector); the manufactured rhs must
        // give a real iteration count.
        let a = mcmcmi_matgen::unsteady_adv_diff(10, mcmcmi_matgen::AdvDiffOrder::One);
        let r = MeasurementRunner::new(MeasureConfig {
            solve: SolveOptions {
                tol: 1e-8,
                max_iter: 500,
                restart: 200,
                ..Default::default()
            },
        });
        assert!(r.baseline_steps(&a, SolverType::Gmres) > 10);
    }
}
