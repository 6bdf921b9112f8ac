//! The auto-tuning contract this crate owns: the budget a tuning run may
//! spend and the reasons it can fail. The tuner itself
//! (`mcmcmi_core::autotune::AutoTuner`, whose `auto_session` returns a
//! ready [`crate::SolveSession`]) needs the MCMC builder and the surrogate
//! stack, both of which sit *above* this crate.

use crate::solver::SolveOptions;
use serde::{Deserialize, Serialize};

/// How much work an auto-tuning run may spend.
///
/// The budget is deliberately *structural* (counts, not seconds): every
/// quantity here is deterministic, so two runs with the same budget and
/// seed produce bit-identical sessions at any thread count.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TuneBudget {
    /// Candidate configurations to evaluate (each costs one safeguarded
    /// build + compression + probe solve).
    pub trials: usize,
    /// Right-hand sides in the probe batch (the probe uses the batched
    /// lockstep drivers, so extra columns are cheap and average out
    /// column-specific luck).
    pub probe_rhs: usize,
    /// Solve settings for the probe (tolerance, iteration cap, restart).
    /// These also become the tuned session's options.
    pub probe_opts: SolveOptions,
    /// Seed for the tuner's sampler.
    pub seed: u64,
}

impl Default for TuneBudget {
    /// A small-but-useful default: 12 trials, 4 probe columns, a probe
    /// tolerance of 1e−6 (tight enough to rank preconditioners, loose
    /// enough that hard operators finish probing in bounded time).
    fn default() -> Self {
        Self {
            trials: 12,
            probe_rhs: 4,
            probe_opts: SolveOptions {
                tol: 1e-6,
                max_iter: 1500,
                restart: 100,
                ..Default::default()
            },
            seed: 0,
        }
    }
}

impl TuneBudget {
    /// A minimal smoke-sized budget for tests and CI.
    pub fn smoke(seed: u64) -> Self {
        Self {
            trials: 4,
            probe_rhs: 2,
            probe_opts: SolveOptions {
                tol: 1e-6,
                max_iter: 800,
                restart: 100,
                ..Default::default()
            },
            seed,
        }
    }
}

/// Why a tuning run produced no session.
#[derive(Clone, Debug)]
pub enum TuneError {
    /// Every candidate build tripped the divergence safeguard — the
    /// operator resists the preconditioner family at every α the backoff
    /// reached. The detail string carries the tuner's attempt trail.
    AllBuildsDivergent {
        /// Human-readable summary of the failed attempts.
        detail: String,
    },
    /// Builds succeeded but no candidate's probe solve converged within
    /// the budget's iteration cap.
    NoConvergingCandidate {
        /// Trials evaluated.
        trials: usize,
        /// Best (lowest) relative residual any probe reached.
        best_rel_residual: f64,
    },
}

impl std::fmt::Display for TuneError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TuneError::AllBuildsDivergent { detail } => {
                write!(f, "auto-tune: every candidate build diverged ({detail})")
            }
            TuneError::NoConvergingCandidate {
                trials,
                best_rel_residual,
            } => write!(
                f,
                "auto-tune: no candidate converged in {trials} trial(s) \
                 (best relative residual {best_rel_residual:.3e})"
            ),
        }
    }
}

impl std::error::Error for TuneError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_serializes_and_smoke_is_smaller() {
        let b = TuneBudget::default();
        let s = serde_json::to_string(&b).unwrap();
        let back: TuneBudget = serde_json::from_str(&s).unwrap();
        assert_eq!(back.trials, b.trials);
        assert_eq!(back.probe_opts.tol, b.probe_opts.tol);
        let smoke = TuneBudget::smoke(7);
        assert!(smoke.trials < b.trials);
        assert_eq!(smoke.seed, 7);
    }
}
