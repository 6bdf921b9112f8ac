//! Joint auto-tuning of MCMC build parameters and compression policy —
//! the loop that closes the paper's "AI-tuned" promise into the solve
//! path.
//!
//! The recommender ([`crate::pipeline::Recommender`]) predicts good
//! `(α, ε, δ)`; the PR-4 [`CompressionPolicy`] knobs (`drop_tol`,
//! `row_topk`, `precision`) were designed as *additional* tuner axes; and
//! the safeguarded build ([`McmcInverse::build_safeguarded`]) makes bad
//! proposals cheap instead of catastrophic. [`AutoTuner`] wires the three
//! together over the joint six-dimensional space:
//!
//! ```text
//! (α, ε, δ)              — MCMC build quality/cost
//!   × (drop_tol, row_topk, precision) — apply bandwidth vs iterations
//! ```
//!
//! Each trial runs **recommend/sample → safeguarded build → compress →
//! short probe-solve** and is scored by a *deterministic byte-cost
//! model*: `iterations × bytes-traversed-per-iteration` (matrix CSR +
//! compressed-preconditioner CSR). Wall-clock would be the obvious score,
//! but it would make tuning results machine- and thread-count-dependent;
//! the byte model preserves the workspace-wide bit-reproducibility
//! contract (same seed ⇒ same tuned session at any `RAYON_NUM_THREADS`)
//! while still pricing exactly what compression buys — fewer bytes per
//! Krylov iteration.
//!
//! Probing is **two-fidelity**. Ranking probes run at a relaxed
//! tolerance (100× the budget's, capped at 1e−3) and a quarter of the
//! iteration budget — Krylov convergence orders rarely cross between
//! 1e−4 and 1e−6, and a candidate that cannot reach 1e−4 cheaply has no
//! business being certified, so paying full-depth solves for *losing*
//! candidates is pure waste (on the climate operator a failed full-depth
//! probe costs minutes; a failed relaxed probe, seconds). A ranking probe
//! also stops early once its tolerance is out of reach: with the
//! watchdog's reach rule on (window = the budget's restart length), a
//! probe whose residual falls too slowly over a restart cycle to get
//! there by the relaxed cap stops at that cycle's end and reports
//! [`SolveFailure::OutOfReach`] in [`TrialRecord::probe_failure`]. It
//! scores like any failed probe, from its true residual where it
//! stopped. The best few ranked candidates are then **certified** at
//! the budget's real options, reach rule off; the first that converges
//! is the winner, and the report's `probe_iters`/`score` come from that
//! certified solve — never from the relaxed pass.
//!
//! Candidates come from the TPE sampler (`mcmcmi_hpo`) over the joint
//! space, optionally warm-started by a trained [`Recommender`]'s
//! `(α, ε, δ)` recommendation plus fixed heuristic anchors, so small
//! budgets behave sensibly. Probes run through the *flexible* Krylov
//! drivers (`FGMRES`/`FCG`) — a sparsified, rounded inverse is exactly
//! the inexact preconditioner they exist for.

use crate::measure::manufactured_rhs;
use crate::pipeline::Recommender;
use mcmcmi_hpo::{ParamKind, SearchSpace, TpeConfig, TpeSampler};
use mcmcmi_krylov::{
    solve_batch, CompressedPrecond, SolveFailure, SolveSession, SolverType, TuneBudget, TuneError,
};
use mcmcmi_mcmc::{
    BuildAttempt, BuildConfig, CompressionPolicy, CompressionReport, McmcInverse, McmcParams,
    SafeguardConfig, StoragePrecision,
};
use mcmcmi_sparse::{Csr, SpecializedBackend};
use serde::{Deserialize, Serialize};

/// `row_topk` values the categorical axis can choose (index 0 = no cap).
/// Spanning "unlimited" down to "a handful per row" covers both the
/// all-signal inverses (Laplacians — caps hurt) and the noise-tailed ones
/// (high-fill builds where most of a row is Monte-Carlo dust).
pub const ROW_TOPK_CHOICES: [Option<usize>; 5] = [None, Some(4), Some(8), Some(16), Some(32)];

/// Fixed settings of an [`AutoTuner`] (the searched axes live in
/// [`AutoTuner::joint_space`], not here).
#[derive(Clone, Copy, Debug)]
pub struct AutotuneConfig {
    /// Base Krylov family for probes (probes actually run its
    /// [`SolverType::flexible`] form; pass `Cg` for SPD systems).
    pub solver: SolverType,
    /// Matrix-independent build settings (fill budget, truncation, seed).
    pub build: BuildConfig,
    /// Divergence-detection and α-backoff settings.
    pub safeguard: SafeguardConfig,
}

impl Default for AutotuneConfig {
    fn default() -> Self {
        Self {
            solver: SolverType::Gmres,
            build: BuildConfig::default(),
            safeguard: SafeguardConfig::default(),
        }
    }
}

/// One evaluated configuration.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrialRecord {
    /// Requested MCMC parameters (pre-backoff).
    pub requested: McmcParams,
    /// α the safeguard actually built with; `None` when every backoff
    /// attempt diverged.
    pub effective_alpha: Option<f64>,
    /// Compression policy of this trial.
    pub policy: CompressionPolicy,
    /// Spectral-radius estimate of the accepted (or last rejected)
    /// splitting.
    pub rho_estimate: f64,
    /// Whether every probe column converged *at the relaxed ranking
    /// fidelity* (see [`AutotuneReport::relaxed_probe_opts`]). A probe
    /// the watchdog's reach rule stopped did not converge.
    pub converged: bool,
    /// Worst probe column's iteration count at the relaxed fidelity
    /// (0 when the build failed). A stopped probe column counts the
    /// iteration where it stopped, not the relaxed cap.
    pub probe_iters: usize,
    /// Why the probe failed: the first failing column's outcome (`None`
    /// when every column converged or the build failed).
    #[serde(default)]
    pub probe_failure: Option<SolveFailure>,
    /// Fraction of preconditioner nnz surviving compression (1.0 when the
    /// build failed).
    pub nnz_kept: f64,
    /// Deterministic byte-cost score at the relaxed fidelity (lower is
    /// better).
    pub score: f64,
    /// The safeguard's full α-backoff trail for this trial — for rejected
    /// builds this is *why* the trial failed (every α tried and its
    /// ρ-estimate), not just that it scored badly.
    #[serde(default)]
    pub attempts: Vec<BuildAttempt>,
}

/// Diagnostics of a finished tuning run (everything except the
/// preconditioner itself, so it serialises into perf records).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct AutotuneReport {
    /// Winning effective MCMC parameters (α after any backoff).
    pub params: McmcParams,
    /// Winning requested parameters (what the sampler proposed).
    pub requested_params: McmcParams,
    /// Winning compression policy.
    pub policy: CompressionPolicy,
    /// Flexible driver the probes validated.
    pub solver: SolverType,
    /// Worst probe column's iterations for the winner, **certified at the
    /// budget's full probe options** (never the relaxed ranking pass).
    pub probe_iters: usize,
    /// Winner's byte-cost score at the certified iteration count.
    pub score: f64,
    /// Winner's compression diagnostics.
    pub compression: CompressionReport,
    /// Did the winner's build need α backoff?
    pub backed_off: bool,
    /// The relaxed options the *ranking* probes ran at (each
    /// [`TrialRecord`]'s `converged`/`probe_iters`/`score` refer to
    /// these).
    pub relaxed_probe_opts: mcmcmi_krylov::SolveOptions,
    /// Candidates that went through full-fidelity certification before
    /// one converged (1 = the top-ranked candidate certified first try).
    pub certification_attempts: usize,
    /// Surrogate gradient evaluations the recommendation step spent (see
    /// [`crate::pipeline::OperatorContext::surrogate_evals`]); 0 without a
    /// recommender. Deterministic at a given seed.
    #[serde(default)]
    pub surrogate_evals: usize,
    /// Every trial, in evaluation order.
    pub trials: Vec<TrialRecord>,
}

/// The joint `(α, ε, δ) × (drop_tol, row_topk, precision)` tuner.
///
/// [`AutoTuner::auto_session`] yields a tuned, compressed session in one
/// call; [`AutoTuner::tune_parts`] hands back the pieces.
pub struct AutoTuner {
    cfg: AutotuneConfig,
    recommender: Option<Recommender>,
}

impl AutoTuner {
    /// Tuner with no surrogate: anchors + TPE exploration only.
    pub fn new(cfg: AutotuneConfig) -> Self {
        Self {
            cfg,
            recommender: None,
        }
    }

    /// Warm-start the `(α, ε, δ)` axes from a trained recommender: its
    /// EI recommendation becomes the first candidate's build parameters.
    pub fn with_recommender(mut self, recommender: Recommender) -> Self {
        self.recommender = Some(recommender);
        self
    }

    /// The tuner's settings.
    pub fn config(&self) -> &AutotuneConfig {
        &self.cfg
    }

    /// The joint search space: the recommender's `(α, ε, δ)` box extended
    /// with the three `CompressionPolicy` axes.
    pub fn joint_space() -> SearchSpace {
        let (lo, hi) = McmcParams::search_box();
        SearchSpace::new()
            .add(
                "alpha",
                ParamKind::LogUniform {
                    lo: lo[0],
                    hi: hi[0],
                },
            )
            .add(
                "eps",
                ParamKind::LogUniform {
                    lo: lo[1],
                    hi: hi[1],
                },
            )
            .add(
                "delta",
                ParamKind::LogUniform {
                    lo: lo[2],
                    hi: hi[2],
                },
            )
            .add("drop_tol", ParamKind::LogUniform { lo: 1e-4, hi: 3e-1 })
            .add(
                "row_topk",
                ParamKind::Choice {
                    n: ROW_TOPK_CHOICES.len(),
                },
            )
            .add("precision", ParamKind::Choice { n: 2 })
    }

    /// Decode a point of [`AutoTuner::joint_space`] into build parameters
    /// and a compression policy.
    pub fn decode(x: &[f64]) -> (McmcParams, CompressionPolicy) {
        assert_eq!(x.len(), 6, "joint-space point must have 6 components");
        let params = McmcParams::from_clamped(&x[..3]);
        let policy = CompressionPolicy {
            drop_tol: x[3],
            row_topk: ROW_TOPK_CHOICES[x[4] as usize],
            precision: if x[5] as usize == 1 {
                StoragePrecision::F32
            } else {
                StoragePrecision::F64
            },
        };
        (params, policy)
    }

    /// Encode `(params, policy)` as a joint-space point (inverse of
    /// [`AutoTuner::decode`] up to `row_topk` values outside
    /// [`ROW_TOPK_CHOICES`], which snap to the nearest choice).
    fn encode(params: McmcParams, policy: &CompressionPolicy) -> Vec<f64> {
        let topk_idx = match policy.row_topk {
            None => 0usize,
            Some(k) => ROW_TOPK_CHOICES
                .iter()
                .enumerate()
                .skip(1)
                .min_by_key(|(_, c)| (c.unwrap() as i64 - k as i64).abs())
                .map(|(i, _)| i)
                .unwrap(),
        };
        vec![
            params.alpha,
            params.eps,
            params.delta,
            policy.drop_tol.clamp(1e-4, 3e-1),
            topk_idx as f64,
            match policy.precision {
                StoragePrecision::F64 => 0.0,
                StoragePrecision::F32 => 1.0,
            },
        ]
    }

    /// Bytes one Krylov iteration streams: the matrix CSR (indptr +
    /// indices + values) plus the compressed preconditioner CSR. The
    /// deterministic stand-in for apply wall-time.
    fn iteration_bytes(a: &Csr, p_nnz: usize, p_value_bytes: usize) -> f64 {
        let n = a.nrows();
        let a_bytes = (n + 1) * 8 + a.nnz() * 16;
        let p_bytes = (n + 1) * 8 + p_nnz * 8 + p_value_bytes;
        (a_bytes + p_bytes) as f64
    }

    /// Run the budgeted joint search on `a`. Returns the winning
    /// compressed preconditioner and the full diagnostics.
    pub fn tune_parts(
        &mut self,
        a: &Csr,
        budget: &TuneBudget,
    ) -> Result<(CompressedPrecond, AutotuneReport), TuneError> {
        assert!(budget.trials >= 1, "AutoTuner: need at least one trial");
        let flex = self.cfg.solver.flexible();
        let builder = McmcInverse::new(self.cfg.build);
        // Detect A's structure once up front: every trial's probe solve and
        // every certification solve re-traverses the same operator, so the
        // one-time scan amortises across the whole budget and each matvec
        // dispatches straight to the stencil or generic kernel family.
        let a_op = SpecializedBackend::detect(a.clone());
        let rhs: Vec<Vec<f64>> = (0..budget.probe_rhs.max(1))
            .map(|c| manufactured_rhs(a, c))
            .collect();
        // Ranking fidelity: two orders of magnitude looser and a quarter
        // of the depth — losing candidates must fail cheaply. The 1e-3
        // cap keeps ranking meaningful at tight budgets, but must never
        // make ranking *stricter* than certification (a caller with a
        // loose probe tolerance like 1e-2 would otherwise see every
        // certifiable candidate rejected by its own ranking pass).
        let relaxed_opts = mcmcmi_krylov::SolveOptions {
            tol: (budget.probe_opts.tol * 100.0)
                .min(1e-3)
                .max(budget.probe_opts.tol),
            // The 200 floor keeps ranking meaningful, but ranking must
            // never iterate deeper than certification does.
            max_iter: (budget.probe_opts.max_iter / 4)
                .max(200)
                .min(budget.probe_opts.max_iter),
            // A probe whose residual cannot reach the relaxed tolerance by
            // the cap, at the rate it fell over its last restart cycle,
            // stops there: its rank among the failures is set by its true
            // residual, which it already has.
            watchdog: mcmcmi_krylov::WatchdogConfig {
                reach_window: budget.probe_opts.restart,
                ..budget.probe_opts.watchdog
            },
            ..budget.probe_opts
        };
        // Failure scores must dominate every converged score and still
        // rank failures against each other so TPE learns from them.
        let worst_bytes = Self::iteration_bytes(a, 4 * a.nnz().max(1), 4 * a.nnz().max(1) * 8);
        let probe_penalty = 8.0 * budget.probe_opts.max_iter as f64 * worst_bytes;
        let divergent_penalty = 64.0 * probe_penalty;

        let mut tpe = TpeSampler::new(
            Self::joint_space(),
            TpeConfig {
                // The anchors count as startup observations; beyond them a
                // short random phase keeps small budgets exploratory.
                n_startup: 4,
                seed: budget.seed,
            },
        );

        // Fixed anchors: a balanced default, a compression-aggressive
        // variant, and a strong-α near-diagonal build (badly row-scaled
        // operators — the climate family — are best served by a cheap
        // scaling-dominated inverse, which pure exploration rarely finds
        // in a small budget). With a recommender, its (α, ε, δ)
        // recommendation replaces the first anchor's build parameters.
        let mut anchors: Vec<Vec<f64>> = Vec::new();
        let mut surrogate_evals = 0;
        let anchor_a = if let Some(rec) = self.recommender.as_mut() {
            let mut ctx = rec.context(a);
            let y_min = ctx.predicted_min(self.cfg.solver, budget.seed);
            let (params, _ei) = ctx.recommend(self.cfg.solver, y_min, 0.05, budget.seed);
            surrogate_evals = ctx.surrogate_evals();
            Self::encode(params, &CompressionPolicy::f32(1e-2))
        } else {
            Self::encode(
                McmcParams::new(1.0, 0.25, 0.125),
                &CompressionPolicy::f64(1e-2),
            )
        };
        anchors.push(anchor_a);
        anchors.push(Self::encode(
            McmcParams::new(2.0, 0.5, 0.25),
            &CompressionPolicy::f32(3e-2),
        ));
        anchors.push(Self::encode(
            McmcParams::new(4.0, 0.5, 0.25),
            &CompressionPolicy::f32(5e-2),
        ));

        /// A trial that converged its relaxed probe, kept alive for the
        /// certification pass. At most [`CERTIFY_LIMIT`] candidates are
        /// retained (best relaxed scores) so a long tuning run on a large
        /// operator does not accumulate one preconditioner per trial.
        struct Candidate {
            precond: CompressedPrecond,
            report: CompressionReport,
            trial: TrialRecord,
        }
        const CERTIFY_LIMIT: usize = 3;
        let mut candidates: Vec<Candidate> = Vec::new();
        let mut trials: Vec<TrialRecord> = Vec::with_capacity(budget.trials);
        let mut best_rel = f64::INFINITY;

        for t in 0..budget.trials {
            let x = if t < anchors.len() {
                anchors[t].clone()
            } else {
                tpe.suggest()
            };
            let (requested, policy) = Self::decode(&x);
            let trial = match builder.build_safeguarded(a, requested, &self.cfg.safeguard) {
                Err(err) => {
                    let mcmcmi_mcmc::BuildError::Divergent { attempts } = &err;
                    let last = attempts.last().expect("safeguard records every attempt");
                    TrialRecord {
                        requested,
                        effective_alpha: None,
                        policy,
                        rho_estimate: last.rho_estimate,
                        converged: false,
                        probe_iters: 0,
                        probe_failure: None,
                        nnz_kept: 1.0,
                        // More divergent ⇒ worse, so the sampler still
                        // gets a gradient out of failed builds.
                        score: divergent_penalty * (1.0 + last.rho_estimate.min(1e3)),
                        attempts: attempts.clone(),
                    }
                }
                Ok(guarded) => {
                    let (precond, report) = guarded.compress(&policy);
                    let results = solve_batch(&a_op, &rhs, &precond, flex, relaxed_opts);
                    let converged = results.iter().all(|r| r.converged);
                    let iters = results.iter().map(|r| r.iterations).max().unwrap_or(0);
                    let rel = results
                        .iter()
                        .map(|r| r.rel_residual)
                        .fold(0.0f64, f64::max);
                    best_rel = best_rel.min(rel);
                    let bytes = Self::iteration_bytes(a, precond.nnz(), report.value_bytes_after);
                    let score = if converged {
                        iters as f64 * bytes
                    } else {
                        probe_penalty * (1.0 + rel.min(1e3))
                    };
                    let trial = TrialRecord {
                        requested,
                        effective_alpha: Some(guarded.params.alpha),
                        policy,
                        rho_estimate: guarded.rho_estimate,
                        converged,
                        probe_iters: iters,
                        probe_failure: results.iter().find_map(|r| r.failure().cloned()),
                        nnz_kept: report.nnz_kept,
                        score,
                        attempts: guarded.attempts.clone(),
                    };
                    if converged {
                        candidates.push(Candidate {
                            precond,
                            report,
                            trial: trial.clone(),
                        });
                        // Bounded retention: only the certification set
                        // survives (stable sort ⇒ insertion order breaks
                        // score ties deterministically).
                        candidates.sort_by(|p, q| {
                            p.trial
                                .score
                                .partial_cmp(&q.trial.score)
                                .expect("scores are finite")
                        });
                        candidates.truncate(CERTIFY_LIMIT);
                    }
                    trial
                }
            };
            tpe.observe(x, trial.score);
            trials.push(trial);
        }

        // Certification: full-fidelity solves for the best-ranked
        // candidates (already sorted and capped), first convergence wins.
        // Bounded so a pathological relaxed ranking cannot re-spend the
        // whole probe budget.
        for (attempt, cand) in candidates.into_iter().enumerate() {
            let results = solve_batch(&a_op, &rhs, &cand.precond, flex, budget.probe_opts);
            let rel = results
                .iter()
                .map(|r| r.rel_residual)
                .fold(0.0f64, f64::max);
            best_rel = best_rel.min(rel);
            if !results.iter().all(|r| r.converged) {
                continue;
            }
            let iters = results.iter().map(|r| r.iterations).max().unwrap_or(0);
            let bytes = Self::iteration_bytes(a, cand.precond.nnz(), cand.report.value_bytes_after);
            let report = AutotuneReport {
                params: McmcParams::new(
                    cand.trial
                        .effective_alpha
                        .expect("certified trial always built"),
                    cand.trial.requested.eps,
                    cand.trial.requested.delta,
                ),
                requested_params: cand.trial.requested,
                policy: cand.trial.policy,
                solver: flex,
                probe_iters: iters,
                score: iters as f64 * bytes,
                compression: cand.report,
                backed_off: cand.trial.effective_alpha != Some(cand.trial.requested.alpha),
                relaxed_probe_opts: relaxed_opts,
                certification_attempts: attempt + 1,
                surrogate_evals,
                trials,
            };
            return Ok((cand.precond, report));
        }

        if trials.iter().all(|t| t.effective_alpha.is_none()) {
            let detail = trials
                .iter()
                .map(|t| format!("α={:.4}: ρ̂={:.3}", t.requested.alpha, t.rho_estimate))
                .collect::<Vec<_>>()
                .join("; ");
            Err(TuneError::AllBuildsDivergent { detail })
        } else {
            Err(TuneError::NoConvergingCandidate {
                trials: trials.len(),
                best_rel_residual: best_rel,
            })
        }
    }

    /// One-call tuned session: search, then bind the winning
    /// preconditioner, driver and probe options to `a`.
    pub fn auto_session(
        &mut self,
        a: &Csr,
        budget: TuneBudget,
    ) -> Result<(SolveSession<CompressedPrecond>, AutotuneReport), TuneError> {
        let (precond, report) = self.tune_parts(a, &budget)?;
        let session = SolveSession::new(a.clone(), precond, report.solver, budget.probe_opts);
        Ok((session, report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmcmi_matgen::{fd_laplace_2d, pdd_real_sparse};

    #[test]
    fn joint_space_has_six_named_dimensions() {
        let sp = AutoTuner::joint_space();
        assert_eq!(sp.dim(), 6);
        let names: Vec<&str> = sp.specs().iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            names,
            ["alpha", "eps", "delta", "drop_tol", "row_topk", "precision"]
        );
    }

    #[test]
    fn decode_maps_choices_onto_policy() {
        let (params, policy) = AutoTuner::decode(&[2.0, 0.25, 0.125, 5e-2, 2.0, 1.0]);
        assert_eq!(params, McmcParams::new(2.0, 0.25, 0.125));
        assert_eq!(policy.drop_tol, 5e-2);
        assert_eq!(policy.row_topk, Some(8));
        assert_eq!(policy.precision, StoragePrecision::F32);
        // Out-of-box (α, ε, δ) clamp into the search box.
        let (p2, _) = AutoTuner::decode(&[100.0, 2.0, 1e-9, 1e-2, 0.0, 0.0]);
        let (lo, hi) = McmcParams::search_box();
        assert_eq!(p2.alpha, hi[0]);
        assert_eq!(p2.eps, hi[1]);
        assert_eq!(p2.delta, lo[2]);
    }

    #[test]
    fn encode_round_trips_through_decode() {
        let params = McmcParams::new(1.5, 0.3, 0.1);
        let policy = CompressionPolicy {
            drop_tol: 2e-2,
            row_topk: Some(16),
            precision: StoragePrecision::F32,
        };
        let (p2, pol2) = AutoTuner::decode(&AutoTuner::encode(params, &policy));
        assert_eq!(p2, params);
        assert_eq!(pol2.drop_tol, policy.drop_tol);
        assert_eq!(pol2.row_topk, policy.row_topk);
        assert_eq!(pol2.precision, policy.precision);
    }

    #[test]
    fn tunes_a_small_system_and_session_solves() {
        let a = fd_laplace_2d(10);
        let mut tuner = AutoTuner::new(AutotuneConfig::default());
        let (mut session, report) = tuner
            .auto_session(&a, TuneBudget::smoke(3))
            .expect("laplacian tunes");
        assert!(report.probe_iters > 0);
        assert!(report.solver.is_flexible());
        assert!(report.trials.len() <= TuneBudget::smoke(3).trials);
        assert!(report.compression.nnz_kept <= 1.0);
        let n = a.nrows();
        let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.21).sin()).collect();
        let r = session.solve(&b);
        assert!(
            r.converged,
            "tuned session must solve: {:?}",
            r.rel_residual
        );
    }

    #[test]
    fn report_serialises() {
        let a = pdd_real_sparse(48, 5);
        let mut tuner = AutoTuner::new(AutotuneConfig::default());
        let (_, report) = tuner
            .tune_parts(&a, &TuneBudget::smoke(1))
            .expect("pdd tunes");
        let s = serde_json::to_string(&report).unwrap();
        let back: AutotuneReport = serde_json::from_str(&s).unwrap();
        assert_eq!(back.params, report.params);
        assert_eq!(back.trials.len(), report.trials.len());
        assert_eq!(back.score, report.score);
    }

    #[test]
    fn winner_is_a_certified_converged_trial() {
        let a = fd_laplace_2d(8);
        let mut tuner = AutoTuner::new(AutotuneConfig::default());
        let budget = TuneBudget::smoke(9);
        let (_, report) = tuner.tune_parts(&a, &budget).unwrap();
        // The winner came out of certification, not the relaxed pass.
        assert!((1..=3).contains(&report.certification_attempts));
        assert!(report.relaxed_probe_opts.tol > budget.probe_opts.tol);
        assert!(report.relaxed_probe_opts.max_iter < budget.probe_opts.max_iter);
        // It corresponds to a trial that converged its relaxed probe.
        assert!(report
            .trials
            .iter()
            .any(|t| t.converged && t.requested == report.requested_params));
        // Byte-cost score: certified iters × bytes > 0.
        assert!(report.score > 0.0 && report.score.is_finite());
        assert!(report.probe_iters > 0);
    }

    #[test]
    fn divergence_prone_matrix_survives_via_backoff_and_reports_it() {
        // Non-dominant ring: every sampled α below ~4 needs backoff; the
        // tuner must still deliver a converging session.
        let mut coo = mcmcmi_sparse::Coo::new(48, 48);
        for i in 0..48usize {
            coo.push(i, i, 1.0);
            coo.push(i, (i + 1) % 48, 2.5);
            coo.push(i, (i + 5) % 48, -2.5);
        }
        let a = coo.to_csr();
        let mut tuner = AutoTuner::new(AutotuneConfig::default());
        let (mut session, report) = tuner
            .auto_session(&a, TuneBudget::smoke(2))
            .expect("backoff must rescue the ring");
        assert!(report
            .trials
            .iter()
            .any(|t| t.effective_alpha.unwrap_or(0.0) > t.requested.alpha));
        // The backoff trail rides along in each trial record: a backed-off
        // build shows every α it burned, with the rejected ones first.
        let backed = report
            .trials
            .iter()
            .find(|t| t.effective_alpha.unwrap_or(0.0) > t.requested.alpha)
            .unwrap();
        assert!(backed.attempts.len() > 1, "backoff must record each α");
        assert!(backed.attempts.windows(2).all(|w| w[0].alpha < w[1].alpha));
        let b: Vec<f64> = (0..48).map(|i| (i as f64 * 0.4).cos()).collect();
        assert!(session.solve(&b).converged);
    }
}
