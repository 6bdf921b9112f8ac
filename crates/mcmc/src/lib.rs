//! Markov chain Monte Carlo matrix inversion (MCMCMI) preconditioners.
//!
//! This is the solver-side contribution the paper tunes: the advanced
//! MCMC-based matrix-inversion preconditioner of Lebedev & Alexandrov
//! (ScalA'18) and Sahin et al. (ScalA'21), governed by three continuous
//! parameters `x_M = (α, ε, δ)`:
//!
//! * **α** — diagonal perturbation scaling; `â_ii = (1+α)·a_ii` makes the
//!   Neumann series of the Jacobi splitting converge,
//! * **ε** — stochastic error; sets the number of independent Markov chains
//!   per row through the probable-error rule `N = ⌈(0.6745/ε)²⌉`,
//! * **δ** — truncation error; a chain stops once its weight drops below δ.
//!
//! Walks run embarrassingly parallel across rows (Rayon) with deterministic
//! per-`(seed, row, chain)` RNG streams, so a build is bit-reproducible for
//! any thread count. Within a row, chains execute on either of two
//! bit-identical engines ([`WalkEngine`]): the default scalar loop or the
//! lockstep SoA lane batch (see [`walk`] for the engine contract).
//! The regenerative single-budget variant (Ghosh et al., SIMAX'25) is one
//! scalar loop on the same harvest: [`McmcInverse::build_regenerative`].
//!
//! The crate makes inverses and the pieces a repair is made of — the guarded
//! build with its α back-off ([`safeguard`]), the dirty-row re-estimate
//! ([`McmcInverse::rebuild_rows`]), compression ([`compress`]). *When* one
//! is repaired is its owner's call (`mcmcmi_core::DriftSession`); nothing
//! here is called back from inside a solve.

pub mod builder;
pub mod compress;
pub mod params;
pub mod safeguard;
pub mod walk;

pub use builder::{BuildConfig, BuildOutcome, McmcInverse};
pub use compress::{compress, sparsify, CompressionPolicy, CompressionReport, StoragePrecision};
pub use params::McmcParams;
pub use safeguard::{BuildAttempt, BuildError, SafeguardConfig, SafeguardedBuild};
pub use walk::{RowWalkStats, SoaBatch, WalkEngine, WalkMatrix, MAX_LANES};
