//! Safeguarded preconditioner builds: divergence detection + α backoff.
//!
//! The plain [`McmcInverse::build`](crate::McmcInverse::build) is honest
//! but unguarded: hand it a near-zero α on a non-dominant operator and it
//! will happily spend minutes simulating walks whose weights blow up,
//! then return a preconditioner full of Monte-Carlo garbage (the climate
//! operator `nonsym_r3_a11` at the old default α = 0.1 costs ~155 CPU
//! seconds to produce an unusable inverse). The safeguarded build makes
//! that failure mode cheap and *structured*:
//!
//! 1. **Pre-build spectral probe.** Walk-weight growth is governed by
//!    `ρ(|C|)`, the spectral radius of the entrywise-absolute iteration
//!    matrix of the Jacobi splitting `C = I − D̂⁻¹Â` — not by the row-sum
//!    ∞-norm bound, which cries wolf on matrices with a few heavy rows.
//!    A few deterministic power iterations
//!    ([`WalkMatrix::abs_spectral_radius_estimate`]) estimate it for the
//!    cost of `probe_iters` SpMV-like sweeps, so a divergent `(A, α)`
//!    pair is rejected *before* any chain is simulated.
//! 2. **Geometric α backoff.** The perturbation `Â = A + α·diag` shrinks
//!    every splitting row sum monotonically (`S(α) = S(0)/(1+α)`), so if
//!    the probe rejects α the safeguard retries at
//!    `max(α, ALPHA_FLOOR) · ALPHA_GROWTH`, walking up
//!    the one knob that provably restores contraction. Each attempt is
//!    recorded.
//! 3. **Post-build blow-up audit.** The probe is an estimate, so the
//!    safeguard also checks the built outcome's blown-chain count; a
//!    build whose blown fraction exceeds a fixed limit is treated exactly
//!    like a probe rejection (backoff or error).
//!
//! On success the caller gets a [`SafeguardedBuild`] carrying the outcome,
//! the *effective* parameters (α may have been backed off), and the full
//! attempt trail; on exhaustion a structured [`BuildError`] replaces the
//! NaN-filled output the unguarded path would have produced.

use crate::builder::{BuildOutcome, McmcInverse};
use crate::compress::{CompressionPolicy, CompressionReport};
use crate::params::McmcParams;
use crate::walk::WalkMatrix;
use mcmcmi_sparse::Csr;
use serde::{Deserialize, Serialize};

/// Reject a build when the estimated `ρ(|C|)` is at or above this value.
/// 1.0 is the exact contraction boundary; the limit leaves a small margin
/// because a barely-subcritical splitting still produces very long walks
/// and a noisy inverse.
const RHO_LIMIT: f64 = 0.995;

/// A completed build is rejected when more than this fraction of its chains
/// tripped the weight blow-up guard.
const BLOWN_FRACTION_LIMIT: f64 = 1e-3;

/// Multiplier applied to α between attempts (geometric backoff).
const ALPHA_GROWTH: f64 = 2.0;

/// Traction for the backoff at tiny α: each step proposes
/// `max(α, ALPHA_FLOOR) · ALPHA_GROWTH`, so a requested α of 0 (or anything
/// below the floor) backs off to `ALPHA_FLOOR · ALPHA_GROWTH` first instead
/// of multiplying a near-zero value forever.
const ALPHA_FLOOR: f64 = 0.05;

/// Divergence-detection and backoff settings.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct SafeguardConfig {
    /// Power iterations for the spectral probe (each costs one sweep over
    /// nnz(C); 32 resolves ρ to well under the margin the limit leaves).
    pub probe_iters: usize,
    /// Total build attempts before giving up (first attempt + backoffs).
    pub max_attempts: usize,
}

impl Default for SafeguardConfig {
    fn default() -> Self {
        Self {
            probe_iters: 32,
            // Rejected attempts are cheap (probe only, no walks), so the
            // budget is sized to escape even a severely non-contractive
            // starting point: floor 0.05 doubling 7 times reaches α = 6.4.
            max_attempts: 8,
        }
    }
}

impl SafeguardConfig {
    /// One geometric back-off step: `max(α, ALPHA_FLOOR) · ALPHA_GROWTH`.
    pub fn next_alpha(alpha: f64) -> f64 {
        alpha.max(ALPHA_FLOOR) * ALPHA_GROWTH
    }
}

/// One entry of the safeguard's attempt trail.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct BuildAttempt {
    /// α used for this attempt.
    pub alpha: f64,
    /// Estimated `ρ(|C|)` at this α.
    pub rho_estimate: f64,
    /// Fraction of splitting rows with absolute row sum ≥ 1.
    pub noncontractive_fraction: f64,
    /// Blown-up chains of the completed build; `None` when the spectral
    /// probe rejected the attempt before any walk ran.
    pub blown_up_chains: Option<usize>,
}

/// Why a safeguarded build could not produce a usable preconditioner.
///
/// Serializable so the serving daemon's negative session-cache entries can
/// replay a poison operator's structured error (and persist it across
/// restarts) without re-burning the probe/build CPU.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum BuildError {
    /// Every attempt was rejected — by the spectral probe or by the
    /// post-build blow-up audit. The trail records each α tried.
    Divergent {
        /// One record per attempt, in order.
        attempts: Vec<BuildAttempt>,
    },
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Divergent { attempts } => {
                write!(
                    f,
                    "MCMC build divergent after {} attempt(s): ",
                    attempts.len()
                )?;
                for (k, a) in attempts.iter().enumerate() {
                    if k > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "α={:.4} (ρ̂={:.3}", a.alpha, a.rho_estimate)?;
                    if let Some(blown) = a.blown_up_chains {
                        write!(f, ", {blown} blown chains")?;
                    }
                    write!(f, ")")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// A build that passed the safeguard, with its provenance.
#[derive(Clone, Debug)]
pub struct SafeguardedBuild {
    /// The accepted build.
    pub outcome: BuildOutcome,
    /// Effective parameters — `alpha` reflects any backoff that happened.
    pub params: McmcParams,
    /// Every attempt made, including the successful last one.
    pub attempts: Vec<BuildAttempt>,
    /// `ρ(|C|)` estimate of the accepted splitting.
    pub rho_estimate: f64,
}

impl SafeguardedBuild {
    /// Did the safeguard have to move α away from the requested value?
    pub fn backed_off(&self) -> bool {
        self.attempts.len() > 1
    }

    /// Bind the accepted preconditioner to its matrix as a reusable
    /// [`mcmcmi_krylov::SolveSession`] (see [`BuildOutcome::into_session`]).
    pub fn into_session(
        self,
        a: &Csr,
        solver: mcmcmi_krylov::SolverType,
        opts: mcmcmi_krylov::SolveOptions,
    ) -> mcmcmi_krylov::SolveSession<mcmcmi_krylov::SparsePrecond> {
        self.outcome.into_session(a, solver, opts)
    }

    /// Compress the accepted preconditioner (see [`BuildOutcome::compress`]).
    pub fn compress(
        &self,
        policy: &CompressionPolicy,
    ) -> (mcmcmi_krylov::CompressedPrecond, CompressionReport) {
        self.outcome.compress(policy)
    }
}

impl McmcInverse {
    /// Build `P ≈ (A + α·diag)⁻¹` behind the divergence safeguard: probe
    /// `ρ(|C|)` first, back α off geometrically while the splitting is
    /// non-contractive, audit the finished build's blown-chain fraction,
    /// and return a structured [`BuildError`] if the attempt budget runs
    /// out. A clean first attempt is bit-identical to the unguarded
    /// [`McmcInverse::build`] at the same parameters. Each attempt derives
    /// its splitting once: the matrix that was probed is the one walked.
    pub fn build_safeguarded(
        &self,
        a: &Csr,
        params: McmcParams,
        guard: &SafeguardConfig,
    ) -> Result<SafeguardedBuild, BuildError> {
        assert!(
            guard.max_attempts >= 1,
            "build_safeguarded: need at least one attempt"
        );
        let mut attempts: Vec<BuildAttempt> = Vec::with_capacity(guard.max_attempts);
        let mut alpha = params.alpha;
        for _ in 0..guard.max_attempts {
            let walk = WalkMatrix::from_perturbed(a, alpha);
            let rho = walk.abs_spectral_radius_estimate(guard.probe_iters);
            let ncf = walk.noncontractive_fraction();
            if rho.is_nan() || rho >= RHO_LIMIT {
                // Probe rejection (also catches a NaN/∞ estimate): no
                // walks were run, so this attempt cost O(probe_iters·nnz).
                attempts.push(BuildAttempt {
                    alpha,
                    rho_estimate: rho,
                    noncontractive_fraction: ncf,
                    blown_up_chains: None,
                });
                alpha = SafeguardConfig::next_alpha(alpha);
                continue;
            }
            let attempt_params = McmcParams::new(alpha, params.eps, params.delta);
            let outcome = self.build_on(&walk, a, attempt_params);
            let total_chains = a.nrows() * outcome.chains_per_row;
            let blown_fraction = if total_chains == 0 {
                0.0
            } else {
                outcome.blown_up_chains as f64 / total_chains as f64
            };
            attempts.push(BuildAttempt {
                alpha,
                rho_estimate: rho,
                noncontractive_fraction: ncf,
                blown_up_chains: Some(outcome.blown_up_chains),
            });
            if blown_fraction > BLOWN_FRACTION_LIMIT || outcome.likely_divergent() {
                alpha = SafeguardConfig::next_alpha(alpha);
                continue;
            }
            return Ok(SafeguardedBuild {
                outcome,
                params: attempt_params,
                attempts,
                rho_estimate: rho,
            });
        }
        Err(BuildError::Divergent { attempts })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::BuildConfig;
    use mcmcmi_sparse::Coo;

    /// Strongly non-dominant ring: divergent at tiny α, cured by larger α.
    fn nondominant(n: usize) -> Csr {
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0);
            coo.push(i, (i + 1) % n, 2.5);
            coo.push(i, (i + 5) % n, -2.5);
        }
        coo.to_csr()
    }

    /// Splittings derived on this thread while `f` runs.
    fn splittings_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
        let before = crate::walk::CONSTRUCTIONS.with(|c| c.get());
        let out = f();
        (out, crate::walk::CONSTRUCTIONS.with(|c| c.get()) - before)
    }

    #[test]
    fn clean_build_is_bit_identical_to_unguarded() {
        let a = mcmcmi_matgen::fd_laplace_2d(10);
        let params = McmcParams::new(0.5, 0.25, 0.125);
        let builder = McmcInverse::new(BuildConfig::default());
        let plain = builder.build(&a, params);
        let (guarded, splittings) = splittings_during(|| {
            builder
                .build_safeguarded(&a, params, &SafeguardConfig::default())
                .expect("laplacian at α=0.5 must pass")
        });
        // The probed splitting is the one that was walked.
        assert_eq!(splittings, 1);
        assert_eq!(guarded.outcome.precond.matrix(), plain.precond.matrix());
        assert_eq!(guarded.outcome.transitions, plain.transitions);
        assert!(!guarded.backed_off());
        assert_eq!(guarded.params, params);
        assert_eq!(guarded.attempts.len(), 1);
        assert!(guarded.rho_estimate < 1.0);
        assert!(guarded.attempts[0].blown_up_chains.is_some());
    }

    #[test]
    fn probe_rejects_before_any_walk_runs() {
        let a = nondominant(32);
        let err = McmcInverse::new(BuildConfig::default())
            .build_safeguarded(
                &a,
                McmcParams::new(0.001, 0.125, 1e-3),
                &SafeguardConfig {
                    max_attempts: 1,
                    ..Default::default()
                },
            )
            .unwrap_err();
        let BuildError::Divergent { attempts } = err;
        assert_eq!(attempts.len(), 1);
        assert!(attempts[0].rho_estimate >= 1.0);
        // Pre-build rejection: no chains were simulated at all.
        assert_eq!(attempts[0].blown_up_chains, None);
    }

    #[test]
    fn backoff_cures_a_divergent_alpha() {
        let a = nondominant(32);
        let guarded = McmcInverse::new(BuildConfig::default())
            .build_safeguarded(
                &a,
                McmcParams::new(0.001, 0.25, 0.125),
                &SafeguardConfig::default(),
            )
            .expect("backoff must reach a contractive α");
        assert!(guarded.backed_off());
        assert!(guarded.params.alpha > 0.001);
        assert!(guarded.rho_estimate < RHO_LIMIT);
        assert_eq!(guarded.outcome.blown_up_chains, 0);
        // ε and δ are untouched by the backoff.
        assert_eq!(guarded.params.eps, 0.25);
        assert_eq!(guarded.params.delta, 0.125);
        // The trail starts at the requested α and grows geometrically.
        assert_eq!(guarded.attempts[0].alpha, 0.001);
        for w in guarded.attempts.windows(2) {
            assert!(w[1].alpha > w[0].alpha);
        }
    }

    #[test]
    fn one_splitting_per_attempt_on_a_backoff_ladder() {
        // Rejected at α = 0.5 and 1, accepted at 2: three attempts, three
        // splittings — the accepted one is not derived again for its walks.
        let a = mcmcmi_matgen::unsteady_adv_diff(8, mcmcmi_matgen::AdvDiffOrder::One);
        let builder = McmcInverse::new(BuildConfig::default());
        let (guarded, splittings) = splittings_during(|| {
            builder
                .build_safeguarded(
                    &a,
                    McmcParams::new(0.5, 0.125, 0.0625),
                    &SafeguardConfig::default(),
                )
                .expect("backoff reaches a contractive α")
        });
        let trail: Vec<f64> = guarded.attempts.iter().map(|t| t.alpha).collect();
        assert_eq!(trail, [0.5, 1.0, 2.0]);
        assert_eq!(splittings, 3);
        // And the accepted build is the unguarded build at the final α.
        let plain = builder.build(&a, guarded.params);
        assert_eq!(guarded.outcome.precond.matrix(), plain.precond.matrix());
    }

    #[test]
    fn exhausted_budget_reports_every_attempt() {
        let a = nondominant(32);
        // ρ(|C|) = 5/(1 + α): still divergent at the third α, 0.2.
        let guard = SafeguardConfig {
            max_attempts: 3,
            ..Default::default()
        };
        let err = McmcInverse::new(BuildConfig::default())
            .build_safeguarded(&a, McmcParams::new(1e-4, 0.5, 0.5), &guard)
            .unwrap_err();
        let BuildError::Divergent { attempts } = &err;
        let trail: Vec<f64> = attempts.iter().map(|t| t.alpha).collect();
        assert_eq!(trail, [1e-4, 0.1, 0.2]);
        let msg = err.to_string();
        assert!(msg.contains("3 attempt(s)"), "{msg}");
    }

    #[test]
    fn spectral_probe_beats_the_rowsum_bound() {
        // One heavy row (S > 1) in an otherwise strongly dominant matrix:
        // the ∞-norm bound is pessimistic, ρ(|C|) is honest, and the build
        // genuinely succeeds — the safeguard must not reject it.
        let n = 24;
        let mut coo = Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 10.0);
            coo.push(i, (i + 1) % n, -1.0);
        }
        // Row 0 couples strongly to row 1, but row 1 is heavily damped, so
        // the product of row sums stays well under 1.
        coo.push(0, 2, 10.5);
        let a = coo.to_csr();
        let w = WalkMatrix::from_perturbed(&a, 0.0);
        assert!(w.noncontractive_fraction() > 0.0, "need a heavy row");
        let guarded = McmcInverse::new(BuildConfig::default())
            .build_safeguarded(
                &a,
                McmcParams::new(0.0, 0.25, 0.125),
                &SafeguardConfig::default(),
            )
            .expect("ρ(|C|) < 1 splitting must pass despite a heavy row");
        assert!(!guarded.backed_off());
        assert!(guarded.rho_estimate < 1.0);
    }

    #[test]
    fn default_backoff_ladder_from_alpha_zero() {
        // ρ(|C|) = 5/(1 + α) on this ring, so every α below 4 is rejected
        // and the default step walks 0 → floor·2 → doubling until 6.4.
        let a = nondominant(16);
        let guarded = McmcInverse::new(BuildConfig::default())
            .build_safeguarded(
                &a,
                McmcParams::new(0.0, 0.5, 0.5),
                &SafeguardConfig {
                    max_attempts: 12,
                    ..Default::default()
                },
            )
            .expect("the default ladder escapes α = 0");
        let trail: Vec<u64> = guarded.attempts.iter().map(|t| t.alpha.to_bits()).collect();
        let expected: Vec<u64> = [0.0, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4]
            .iter()
            .map(|a: &f64| a.to_bits())
            .collect();
        assert_eq!(trail, expected);
        assert_eq!(guarded.params.alpha.to_bits(), 6.4f64.to_bits());
        let (rejected, accepted) = guarded.attempts.split_at(7);
        assert!(rejected.iter().all(|t| t.blown_up_chains.is_none()));
        assert!(accepted[0].blown_up_chains.is_some());
    }

    #[test]
    fn attempt_trail_serializes() {
        let a = nondominant(16);
        let guarded = McmcInverse::new(BuildConfig::default())
            .build_safeguarded(
                &a,
                McmcParams::new(0.01, 0.5, 0.5),
                &SafeguardConfig::default(),
            )
            .unwrap();
        let s = serde_json::to_string(&guarded.attempts).unwrap();
        let back: Vec<BuildAttempt> = serde_json::from_str(&s).unwrap();
        assert_eq!(back.len(), guarded.attempts.len());
        assert_eq!(back[0].alpha, guarded.attempts[0].alpha);
    }
}
