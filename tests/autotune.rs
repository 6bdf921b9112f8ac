//! The closed tuning loop, end to end: the climate operator that the
//! PR-4 sweep had to exclude ("default-α builds diverge outright",
//! ROADMAP) is now a regression test — the safeguard must catch the old
//! default α = 0.1 *before* walks are simulated, and the auto-tuner must
//! deliver a converging compressed session on the same operator with a
//! smoke-sized budget.

use mcmcmi::core::autotune::{AutoTuner, AutotuneConfig};
use mcmcmi::core::features::N_MATRIX_FEATURES;
use mcmcmi::core::{MeasureConfig, MeasurementRunner, PaperDataset, Recommender};
use mcmcmi::gnn::{SurrogateConfig, TrainConfig};
use mcmcmi::krylov::{SolveFailure, SolveOptions, SolverType, TuneBudget};
use mcmcmi::matgen::{fd_laplace_2d, laplace_1d, pdd_real_sparse, PaperMatrix};
use mcmcmi::mcmc::{BuildConfig, BuildError, McmcInverse, McmcParams, SafeguardConfig, WalkMatrix};
use mcmcmi::sparse::{Coo, Csr};

/// The full climate operator `nonsym_r3_a11` (n = 20 930, ~1.9 M nnz).
fn climate() -> mcmcmi::sparse::Csr {
    PaperMatrix::NonsymR3A11.generate()
}

#[test]
fn default_alpha_trips_the_safeguard_on_climate_before_any_walk() {
    let a = climate();
    // The old hand-set default the perf records used everywhere.
    let default_params = McmcParams::new(0.1, 0.0625, 0.0625);
    let err = McmcInverse::new(BuildConfig::default())
        .build_safeguarded(
            &a,
            default_params,
            &SafeguardConfig {
                max_attempts: 1, // no backoff: assert on the raw default
                ..Default::default()
            },
        )
        .expect_err("α = 0.1 must be rejected on nonsym_r3_a11");
    let BuildError::Divergent { attempts } = err;
    assert_eq!(attempts.len(), 1);
    // ρ(|C|) > 1 is the divergence signal — and the rejection must come
    // from the probe (no chains run), because the unguarded α = 0.1 build
    // costs minutes of CPU on this operator.
    assert!(
        attempts[0].rho_estimate > 1.0,
        "ρ̂ = {}",
        attempts[0].rho_estimate
    );
    assert_eq!(
        attempts[0].blown_up_chains, None,
        "probe must reject pre-build"
    );
}

#[test]
fn safeguard_backoff_rescues_the_default_alpha_on_climate() {
    let a = climate();
    let guarded = McmcInverse::new(BuildConfig::default())
        .build_safeguarded(
            &a,
            // ε, δ kept cheap so the rescued build stays test-sized.
            McmcParams::new(0.1, 0.5, 0.25),
            &SafeguardConfig::default(),
        )
        .expect("geometric backoff must reach a contractive α");
    assert!(guarded.backed_off());
    assert!(guarded.params.alpha > 0.1);
    assert!(guarded.rho_estimate < 1.0);
    assert_eq!(guarded.outcome.blown_up_chains, 0);
}

#[test]
fn tuned_build_converges_on_climate_with_smoke_budget() {
    let a = climate();
    let mut tuner = AutoTuner::new(AutotuneConfig::default());
    // Smoke-sized budget: 3 trials (the fixed anchors), 2 probe columns.
    // The probe tolerance 1e−6 matches the perf record — on this operator
    // even *unpreconditioned* GMRES cannot reach 1e−8 in thousands of
    // iterations, so 1e−6 is the honest convergence bar; restart 300
    // avoids the restart stagnation the long stretched-grid spectrum
    // causes at shorter bases.
    let budget = TuneBudget {
        trials: 3,
        probe_rhs: 2,
        probe_opts: SolveOptions {
            tol: 1e-6,
            max_iter: 4000,
            restart: 300,
            ..Default::default()
        },
        seed: 0,
    };
    let (mut session, report) = tuner
        .auto_session(&a, budget)
        .expect("tuned build must converge where default α diverged");
    assert!(report.solver.is_flexible());
    assert!(report.probe_iters > 0, "probe must have iterated");
    assert!(
        report.probe_iters < budget.probe_opts.max_iter,
        "winner must converge cleanly, not at the cap ({} iters)",
        report.probe_iters
    );
    assert!(
        report.trials.iter().any(|t| t.converged),
        "at least one trial converges"
    );
    // The winning α is a real tuning outcome: away from the divergent 0.1.
    assert!(
        report.params.alpha > 0.1,
        "tuned α = {}",
        report.params.alpha
    );

    // The session the caller receives actually solves a fresh system
    // (manufactured rhs, like the measurement runner's, at a phase none
    // of the probe columns used).
    let n = a.nrows();
    let xstar: Vec<f64> = (0..n)
        .map(|i| (0.41 * i as f64).sin() + 0.3 * (1.7 * i as f64).cos())
        .collect();
    let b = a.spmv_alloc(&xstar);
    let r = session.solve(&b);
    assert!(
        r.converged,
        "tuned session solve: rel = {:.3e} after {} iterations",
        r.rel_residual, r.iterations
    );
}

#[test]
fn tuned_build_converges_on_the_advection_diffusion_pair() {
    // The other two PR-4 exclusions: both orders of the unsteady
    // advection–diffusion operator diverge at every α ≤ 1 (ρ(|C|) up to
    // ~2.5) and need α ≈ 2+ — squarely the tuner's job.
    for m in [
        PaperMatrix::UnsteadyAdvDiffOrder1,
        PaperMatrix::UnsteadyAdvDiffOrder2,
    ] {
        let a = m.generate();
        // Divergence at the old default, caught pre-build.
        let w = WalkMatrix::from_perturbed(&a, 0.1);
        assert!(
            w.abs_spectral_radius_estimate(32) > 1.0,
            "{m:?} must be divergent at α = 0.1"
        );
        let mut tuner = AutoTuner::new(AutotuneConfig::default());
        let (mut session, report) = tuner
            .auto_session(&a, TuneBudget::smoke(1))
            .unwrap_or_else(|e| panic!("{m:?}: {e}"));
        assert!(
            report.params.alpha > 1.0,
            "{m:?} tuned α = {}",
            report.params.alpha
        );
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (0.7 * i as f64).sin()).collect();
        assert!(session.solve(&b).converged, "{m:?} tuned session solves");
    }
}

/// What the recommendation step returned **at the parent of the commit
/// that made surrogate inference tape-free**, as raw `f64` bits: one line
/// per (operator, seed) with `predicted_min`, `recommend` (α, ε, δ, EI),
/// and of the tuned report the winner (effective, requested), certified
/// `probe_iters`, `certification_attempts`, `surrogate_evals` (counted
/// there by a patched-in counter) and every trial's requested (α, ε, δ).
/// Inference may get cheaper; what it returns, and how often it is asked,
/// may not move — L-BFGS-B turns one ulp into a different tuned session.
const GOLDEN_RECOMMENDATIONS: [&str; 4] = [
    "pdd48/0: pmin 3fd649063fa63a8b | rec 3fa999999999999a 3fad09673bc65fca 3fdaffcddd96dd87 3fa3ae70737ed53a | win 4010000000000000 3fe0000000000000 3fd0000000000000 | req 4010000000000000 3fe0000000000000 3fd0000000000000 | iters 13 cert 1 evals 8445 | trials 3fa999999999999a 3fad09673bc65fca 3fdaffcddd96dd87 4000000000000000 3fe0000000000000 3fd0000000000000 4010000000000000 3fe0000000000000 3fd0000000000000 3ff0eaf9c599b193 3fdab3afad521736 3fa6dd90c4f6cf04",
    "pdd48/7: pmin 3fd419d216f0ec11 | rec 3fa999999999999a 3fa0000000000000 3fddb5535de08154 3f994377620f1ef3 | win 3fa999999999999a 3fa0000000000000 3fddb5535de08154 | req 3fa999999999999a 3fa0000000000000 3fddb5535de08154 | iters 6 cert 1 evals 15516 | trials 3fa999999999999a 3fa0000000000000 3fddb5535de08154 4000000000000000 3fe0000000000000 3fd0000000000000 4010000000000000 3fe0000000000000 3fd0000000000000 3ffc016ddb6c8427 3fb5055d272906a6 3fe25aff6165b398",
    "lap2d8/0: pmin 3fe6ef038959ef0a | rec 3fa999999999999a 3fa0000000000000 3fc5472742f0b362 3f9a8107ae08d83b | win 4010000000000000 3fe0000000000000 3fd0000000000000 | req 4010000000000000 3fe0000000000000 3fd0000000000000 | iters 20 cert 1 evals 19863 | trials 3fa999999999999a 3fa0000000000000 3fc5472742f0b362 4000000000000000 3fe0000000000000 3fd0000000000000 4010000000000000 3fe0000000000000 3fd0000000000000 3ff0eaf9c599b193 3fdab3afad521736 3fa6dd90c4f6cf04",
    "lap2d8/7: pmin 3fe6ef37d487d83e | rec 3fa999999999999a 3fa0000000000000 3fc5472742f1b320 3f9a83a6c3122296 | win 4010000000000000 3fe0000000000000 3fd0000000000000 | req 4010000000000000 3fe0000000000000 3fd0000000000000 | iters 20 cert 1 evals 25909 | trials 3fa999999999999a 3fa0000000000000 3fc5472742f1b320 4000000000000000 3fe0000000000000 3fd0000000000000 4010000000000000 3fe0000000000000 3fd0000000000000 3ffc016ddb6c8427 3fb5055d272906a6 3fe25aff6165b398",
];

fn hex(vals: &[f64]) -> String {
    let words: Vec<String> = vals
        .iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect();
    words.join(" ")
}

#[test]
fn recommendation_step_reproduces_parent_commit_bits() {
    let matrices: Vec<(String, Csr, bool)> = vec![
        ("lap".into(), laplace_1d(24), true),
        ("pdd".into(), pdd_real_sparse(32, 2), false),
    ];
    let runner = MeasurementRunner::new(MeasureConfig {
        solve: SolveOptions {
            tol: 1e-6,
            max_iter: 300,
            restart: 30,
            ..Default::default()
        },
    });
    let ds = PaperDataset::build(&runner, &matrices, 1, 0, 0);
    let snapshot = Recommender::fit(
        &ds,
        &matrices,
        SurrogateConfig::lite(N_MATRIX_FEATURES, 6),
        TrainConfig {
            epochs: 4,
            patience: 0,
            ..Default::default()
        },
    )
    .to_snapshot();

    let mut lines = Vec::new();
    for (name, a) in [
        ("pdd48", pdd_real_sparse(48, 5)),
        ("lap2d8", fd_laplace_2d(8)),
    ] {
        for seed in [0u64, 7] {
            let mut rec = Recommender::from_snapshot(snapshot.clone());
            let pmin = rec.predicted_min(&a, SolverType::Gmres, seed);
            let (p, ei) = rec.recommend(&a, SolverType::Gmres, pmin, 0.05, seed);
            let mut tuner = AutoTuner::new(AutotuneConfig::default()).with_recommender(rec);
            let (_, report) = tuner
                .tune_parts(&a, &TuneBudget::smoke(seed))
                .unwrap_or_else(|e| panic!("{name}/{seed}: {e}"));
            let trials: Vec<f64> = report
                .trials
                .iter()
                .flat_map(|t| t.requested.as_vec())
                .collect();
            lines.push(format!(
                "{name}/{seed}: pmin {} | rec {} | win {} | req {} | iters {} cert {} evals {} | trials {}",
                hex(&[pmin]),
                hex(&[p.alpha, p.eps, p.delta, ei]),
                hex(&report.params.as_vec()),
                hex(&report.requested_params.as_vec()),
                report.probe_iters,
                report.certification_attempts,
                report.surrogate_evals,
                hex(&trials),
            ));
        }
    }
    assert_eq!(lines, GOLDEN_RECOMMENDATIONS);
}

/// The non-dominant ring under GMRES(25): the three fixed anchors reach
/// a relative residual of 1e-2 to 1e-3 in the first restart cycle and
/// then stall, far from the ranking tolerance, while later TPE trials
/// converge. The ranking probe stops the stalled anchors at a cycle
/// boundary and says why; certification still runs at the full options.
#[test]
fn a_ranking_probe_out_of_reach_stops_early_and_says_why() {
    let n = 48;
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, i, 1.0);
        coo.push(i, (i + 1) % n, 2.5);
        coo.push(i, (i + 5) % n, -2.5);
    }
    let a = coo.to_csr();
    let budget = TuneBudget {
        trials: 6,
        probe_rhs: 2,
        probe_opts: SolveOptions {
            tol: 1e-8,
            max_iter: 2000,
            restart: 25,
            ..Default::default()
        },
        seed: 0,
    };
    let (mut session, report) = AutoTuner::new(AutotuneConfig::default())
        .auto_session(&a, budget)
        .expect("a later trial converges");
    let relaxed = report.relaxed_probe_opts;
    assert_eq!(relaxed.watchdog.reach_window, budget.probe_opts.restart);
    assert_eq!(budget.probe_opts.watchdog.reach_window, 0);
    for (t, trial) in report.trials.iter().enumerate().take(3) {
        assert!(!trial.converged, "anchor {t} converged");
        assert!(
            matches!(
                trial.probe_failure,
                Some(SolveFailure::OutOfReach { window: 25, .. })
            ),
            "anchor {t}: {:?}",
            trial.probe_failure
        );
        assert!(
            trial.probe_iters < relaxed.max_iter,
            "anchor {t} ran to the cap ({} iterations)",
            trial.probe_iters
        );
    }
    for trial in report.trials.iter().filter(|t| t.converged) {
        assert_eq!(trial.probe_failure, None);
    }
    let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.4).cos()).collect();
    assert!(session.solve(&b).converged);
}
