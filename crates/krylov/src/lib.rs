//! Krylov subspace solvers and classical preconditioners.
//!
//! The paper's pipeline (§4.1) solves the left-preconditioned system
//! `PA x = Pb` with GMRES or BiCGStab (CG when `A` is SPD) and counts the
//! iterations to a relative-residual tolerance — that count is the
//! denominator/numerator of the preconditioning performance metric (Eq. 4).
//! This crate provides those three solvers, the [`Preconditioner`]
//! abstraction they share, and the classical baselines (Jacobi, ILU(0),
//! IC(0)) that the paper's related-work section positions MCMC against.

//!
//! Beyond the one-shot scalar entry points, the crate provides the batched
//! multi-RHS machinery the serving workload needs: lockstep batched
//! drivers sharing matrix traversals across right-hand sides
//! ([`solve_batch`]), true block-CG with shared search directions
//! ([`block_cg`]), and the reusable [`SolveSession`] that amortises the
//! preconditioner and all solver workspaces over many solves.
//!
//! Each driver keeps two loops — a scalar one and a lockstep one, the same
//! bits per column, each the faster on some workload — and everything above
//! them is written once, over columns: one dispatch in [`solver`] reads the
//! batch width and picks the loop, and the warm start ([`warm`]), the
//! recovery ladder ([`resilient`]) and [`SolveSession`] are thin layers on
//! it. `solve(b)` is `solve_batch(&[b])`.
//!
//! For *inexact* preconditioners — the compressed, reduced-precision MCMC
//! inverses produced by `mcmcmi_mcmc`'s `CompressionPolicy` — the flexible
//! drivers [`fcg`] (Notay) and [`fgmres`] (Saad, right-preconditioned)
//! keep their convergence theory where classical CG/GMRES would quietly
//! assume a fixed exact operator; both come in scalar and lockstep batched
//! forms on the same workspace/session design.

pub mod auto;
pub mod bicgstab;
pub mod block_cg;
pub mod cancel;
pub mod cg;
pub mod fcg;
pub mod fgmres;
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
pub use bicgstab::{bicgstab, bicgstab_batch, bicgstab_with, BiCgStabWorkspace};
pub use block_cg::block_cg;
pub use cancel::{with_cancel, CancelToken};
pub use cg::{cg, cg_batch, cg_with, CgWorkspace};
pub use fcg::{fcg, fcg_batch, fcg_with, FcgWorkspace};
pub use fgmres::{fgmres, fgmres_batch, fgmres_with, FgmresWorkspace};
pub use gmres::{gmres, gmres_batch, gmres_with, GmresWorkspace};
pub use ic0::Ic0;
pub use ilu0::Ilu0;
pub use precond::{
    CompressedPrecond, IdentityPrecond, JacobiPrecond, Preconditioner, SparsePrecond,
};
pub use resilient::{
    solve_batch_resilient, solve_resilient, PrecondRebuild, PrecondRefresh, RecoveryContext,
    RecoveryPolicy, RecoveryStep, RecoveryStepKind, RecoveryTrail, ResilientResult,
};
pub use session::SolveSession;
pub use solver::{
    solve, solve_batch, BreakdownKind, ConvergedWithin, SolveFailure, SolveOptions, SolveOutcome,
    SolveResult, SolverType, CONVERGENCE_SLACK,
};
pub use staleness::{StalenessConfig, StalenessMonitor, StalenessVerdict};
pub use warm::solve_warm;
pub use watchdog::{Watchdog, WatchdogConfig};
