//! The closed AI-tuning loop in one sitting: a matrix whose default-α
//! MCMC build diverges outright, rescued by `AutoTuner::auto_session` — the
//! safeguarded, joint `(α, ε, δ) × CompressionPolicy` search that returns
//! a tuned, compressed solve session in one call.
//!
//! ```sh
//! cargo run --release --example auto_tuned_solver
//! ```

use mcmcmi::core::autotune::{AutoTuner, AutotuneConfig};
use mcmcmi::krylov::TuneBudget;
use mcmcmi::matgen::PaperMatrix;
use mcmcmi::mcmc::{BuildConfig, McmcInverse, McmcParams, SafeguardConfig};

fn main() {
    // The unsteady advection–diffusion operator (order 2): dense spectral
    // differentiation blocks, κ ≈ 6.6e6, and a Jacobi splitting that is
    // wildly non-contractive at small α.
    let a = PaperMatrix::UnsteadyAdvDiffOrder2.generate();
    let n = a.nrows();
    println!(
        "matrix: unsteady_adv_diff_order2 (n = {n}, nnz = {})\n",
        a.nnz()
    );

    // 1. What the old hand-set default does: the safeguard's spectral
    //    probe rejects α = 0.1 before a single walk is simulated.
    let default_params = McmcParams::new(0.1, 0.25, 0.25);
    match McmcInverse::new(BuildConfig::default()).build_safeguarded(
        &a,
        default_params,
        &SafeguardConfig {
            max_attempts: 1, // report, don't rescue
            ..Default::default()
        },
    ) {
        Ok(_) => unreachable!("α = 0.1 diverges on this operator"),
        Err(err) => println!("default α = 0.1 rejected pre-build:\n  {err}\n"),
    }

    // 2. The closed loop: safeguarded builds + joint TPE search over
    //    (α, ε, δ) and the compression axes, scored by probe solves.
    let mut tuner = AutoTuner::new(AutotuneConfig::default());
    let (mut session, report) = tuner
        .auto_session(&a, TuneBudget::default())
        .expect("the tuner must find a converging configuration");
    println!(
        "tuned in {} trials ({} converged):",
        report.trials.len(),
        report.trials.iter().filter(|t| t.converged).count()
    );
    println!(
        "  params:  α = {:.3} (requested {:.3}{}), ε = {:.3}, δ = {:.3}",
        report.params.alpha,
        report.requested_params.alpha,
        if report.backed_off {
            ", backed off"
        } else {
            ""
        },
        report.params.eps,
        report.params.delta,
    );
    println!(
        "  policy:  drop_tol = {:.0e}, row_topk = {:?}, {} storage → {:.0}% nnz, {:.1}% Frobenius mass kept",
        report.policy.drop_tol,
        report.policy.row_topk,
        report.compression.precision.name(),
        report.compression.nnz_kept * 100.0,
        report.compression.fro_mass_kept * 100.0,
    );
    println!(
        "  probe:   {} iterations via {} (worst column, certified at tol {:.0e})\n",
        report.probe_iters,
        report.solver.name(),
        session.opts().tol
    );

    // 3. Serve with the tuned session: manufactured system with a known
    //    solution, so the error is checkable.
    let xstar: Vec<f64> = (0..n)
        .map(|i| (0.41 * i as f64).sin() + 0.3 * (1.7 * i as f64).cos())
        .collect();
    let b = a.spmv_alloc(&xstar);
    let r = session.solve(&b);
    let err =
        r.x.iter()
            .zip(&xstar)
            .map(|(xi, ti)| (xi - ti).abs())
            .fold(0.0f64, f64::max);
    println!(
        "tuned solve: converged = {}, {} iterations, rel residual = {:.2e}, max |x − x*| = {:.2e}",
        r.converged, r.iterations, r.rel_residual, err
    );
}
