//! Solver-as-a-service: a persistent daemon serving MCMC-preconditioned
//! Krylov solves over HTTP/1.1 + JSON.
//!
//! The ROADMAP's end state is "powering worldwide linear-solver serving" —
//! this crate is the serving layer itself, built so that *overload is a
//! structured answer, never silence*:
//!
//! - **Bounded admission** ([`queue`]): a full queue sheds new requests
//!   immediately with `Overloaded { queue_depth, retry_after_hint_ms }`;
//!   drain sheds with `Draining`. One response per request, always.
//! - **Deadlines** end-to-end: checked at admission, at dequeue, and
//!   cooperatively mid-solve through the [`mcmcmi_krylov::CancelToken`]
//!   polled at every watchdog observation point — expired requests return
//!   `DeadlineExceeded` with partial-progress stats (phase, iterations,
//!   best residual) and free their worker immediately.
//! - **Session cache** ([`cache`]): operators keyed by
//!   [`mcmcmi_sparse::Csr::fingerprint`], LRU-evicted against a byte
//!   budget; repeat fingerprints skip the MCMC build entirely. Poison
//!   operators (safeguarded build rejected every α) become *negative*
//!   entries that replay the structured `BuildError` for free.
//! - **Coalescing**: concurrent single-RHS requests against the same
//!   operator and solver options are solved as one lockstep
//!   `solve_batch` group — bit-identical to sequential solves (the PR-3
//!   parity contract), so batching is purely a throughput decision.
//! - **Fault-isolated workers**: a panicking worker is confined by
//!   `catch_unwind`, its requests answered with a structured
//!   `WorkerPanic`, and the pool replaced — siblings never notice. Any
//!   lock the doomed worker held is *recovered*, not propagated: shared
//!   state (queue, cache, tuned store, per-fingerprint build locks) stays
//!   serviceable, so the very next request gets a structured answer
//!   instead of a poisoned-lock panic cascade.
//! - **Graceful drain**: `/shutdown` (or [`Server::join`]) stops
//!   admission, finishes in-flight work inside a drain deadline, cancels
//!   stragglers past it, and persists tuned parameters and poison
//!   verdicts through the PR-5 snapshot machinery so a restarted server
//!   retunes nothing.
//!
//! The HTTP transport is the vendored [`httpd`] shim (thread-per-
//! connection, `Connection: close`); everything above it — [`protocol`],
//! [`queue`], [`cache`], [`server`] — is transport-agnostic, so swapping
//! in a real async stack later replaces only the shim.
//!
//! Endpoints: `POST /solve`, `GET /stats`, `GET /healthz`,
//! `POST /shutdown`.

pub mod cache;
pub mod protocol;
pub mod queue;
pub mod server;
mod sync;

pub use cache::{OperatorCache, OperatorEntry, Slot};
pub use protocol::{Fault, ServeError, SolveReply, SolveRequest};
pub use queue::{AdmissionQueue, GroupKey, Job, JobReply};
pub use server::{
    DrainOutcome, PoisonedRecord, ServeConfig, Server, Stats, StatsSnapshot, TunedRecord,
    TunedStore, DEFAULT_PARAMS,
};
