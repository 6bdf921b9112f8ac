//! Krylov subspace solvers and classical preconditioners.
//!
//! The paper's pipeline (§4.1) solves the left-preconditioned system
//! `PA x = Pb` with GMRES or BiCGStab (CG when `A` is SPD) and counts the
//! iterations to a relative-residual tolerance — that count is the
//! denominator/numerator of the preconditioning performance metric (Eq. 4).
//! This crate provides those solvers, the [`Preconditioner`] abstraction
//! they share, and the classical baselines (Jacobi, ILU(0), IC(0)) that the
//! paper's related-work section positions MCMC against.
//!
//! There are three loop families, one module each:
//!
//! - [`mod@cg`] — conjugate gradients. Its flexible form [`fcg`] (Notay) is
//!   the same loop with the Polak–Ribière β in place of Fletcher–Reeves.
//! - [`mod@gmres`] — restarted GMRES. Its flexible form [`fgmres`] (Saad) is
//!   the same loop preconditioned on the right, keeping `Z = P·V`.
//! - [`mod@bicgstab`] — BiCGStab (no flexible form; the recovery ladder
//!   swaps it for FGMRES).
//!
//! The flexible forms are for *inexact* preconditioners — the compressed,
//! reduced-precision MCMC inverses produced by `mcmcmi_mcmc`'s
//! `CompressionPolicy` — where classical CG/GMRES would quietly assume a
//! fixed exact operator. A flexible driver is a parameter of its family,
//! not a second implementation: [`SolverType`] is the only selector.
//!
//! Each family keeps two loops — a scalar one and a lockstep one over a
//! row-major block of right-hand sides, the same bits per column, each the
//! faster on some workload — and everything above them is written once,
//! over columns: one dispatch in [`solver`] reads the batch width, lays the
//! batch out on the pool (by rows inside each product, or by columns when
//! the products are too small to split) and picks the loop, and the warm
//! start ([`warm`]), the recovery ladder
//! ([`resilient`]) and the reusable [`SolveSession`], which amortises the
//! preconditioner and all solver workspaces over many solves, are thin
//! layers on it. `solve(b)` is `solve_batch(&[b])`.
//!
//! Two decisions about an MCMC inverse are made here, once each: which form
//! of it a driver gets ([`SparsePrecond::for_solver`]), and what a failed
//! solve can do with what it was handed (the ladder's three rungs). Making
//! a better inverse belongs to whoever owns the operator and the build
//! parameters; the ladder takes no hook to ask for one.

pub mod auto;
pub mod bicgstab;
pub mod cancel;
pub mod cg;
pub mod gmres;
pub mod ic0;
pub mod ilu0;
pub mod precond;
pub mod resilient;
pub mod session;
pub mod solver;
pub mod staleness;
pub mod warm;
pub mod watchdog;

pub use auto::{TuneBudget, TuneError};
pub use bicgstab::bicgstab;
pub use cancel::{with_cancel, CancelToken};
pub use cg::{cg, fcg};
pub use gmres::{fgmres, gmres};
pub use ic0::Ic0;
pub use ilu0::Ilu0;
pub use precond::{
    CompressedPrecond, IdentityPrecond, JacobiPrecond, Preconditioner, SparsePrecond,
};
pub use resilient::{
    solve_batch_resilient, solve_resilient, RecoveryContext, RecoveryPolicy, RecoveryStep,
    RecoveryStepKind, RecoveryTrail, ResilientResult,
};
pub use session::SolveSession;
pub use solver::{
    solve, solve_batch, BreakdownKind, ConvergedWithin, SolveFailure, SolveOptions, SolveOutcome,
    SolveResult, SolverType, CONVERGENCE_SLACK,
};
pub use staleness::{StalenessMonitor, StalenessVerdict};
pub use warm::solve_warm;
pub use watchdog::{Watchdog, WatchdogConfig};
