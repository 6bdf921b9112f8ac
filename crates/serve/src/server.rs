//! The serving daemon: HTTP front, bounded admission, coalescing workers,
//! fault isolation, and graceful drain.
//!
//! Request lifecycle:
//! 1. A connection thread parses `/solve`, resolves the operator
//!    fingerprint, and offers the job to the [`AdmissionQueue`] — shedding
//!    immediately (`Overloaded`/`Draining`/queued `DeadlineExceeded`)
//!    when the server cannot take it. Admitted jobs block the connection
//!    thread on a take-once reply channel.
//! 2. A worker pops a coalesced same-operator group, resolves it through
//!    the [`OperatorCache`] (hit, negative hit, or safeguarded build under
//!    a per-fingerprint lock), and solves the group in one lockstep
//!    `solve_batch` — bit-identical to sequential solves by the PR-3
//!    parity contract. Deadlines run as a [`CancelToken`] polled at every
//!    watchdog observation point; an expired member answers
//!    `DeadlineExceeded` with its partial-progress stats while unexpired
//!    members are re-solved.
//! 3. Worker panics are confined by `catch_unwind`: every job in the
//!    doomed group is answered with a structured `WorkerPanic`, the pool
//!    spawns a replacement thread, and sibling workers never notice.
//! 4. Drain (`/shutdown` or [`Server::join`]) stops admission, lets
//!    in-flight work finish inside the drain deadline, cancels stragglers
//!    past it, and persists the tuned-parameter store so a restarted
//!    server replays α backoffs and poison verdicts instead of re-tuning.

use crate::cache::{OperatorCache, OperatorEntry, Slot};
use crate::protocol::{Fault, ServeError, SolveReply};
use crate::queue::{AdmissionQueue, Job};
use crate::sync::{lock_unpoisoned, wait_timeout_while_unpoisoned};
use mcmcmi_core::{load_json_snapshot, save_json_snapshot};
use mcmcmi_krylov::{
    with_cancel, CancelToken, RecoveryContext, RecoveryPolicy, RecoveryTrail, SolveFailure,
    SolveResult,
};
use mcmcmi_mcmc::{BuildConfig, BuildError, McmcInverse, McmcParams, SafeguardConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Bind address; port 0 picks an ephemeral port (see [`Server::addr`]).
    pub addr: String,
    /// Worker threads (each runs one solve group at a time).
    pub workers: usize,
    /// Admission queue capacity; beyond it requests shed `Overloaded`.
    pub queue_capacity: usize,
    /// Maximum lockstep width for coalesced same-operator groups.
    pub max_batch_width: usize,
    /// Byte budget for the operator/session cache (LRU beyond it).
    pub cache_bytes: usize,
    /// How long [`Server::join`] waits for in-flight solves before
    /// cancelling them.
    pub drain_deadline_ms: u64,
    /// Deadline applied to requests that do not carry their own.
    pub default_deadline_ms: Option<u64>,
    /// Where to persist the tuned-parameter store across restarts.
    pub snapshot_path: Option<PathBuf>,
    /// Honour test-only fault injections (`"fault": "panic"` etc.).
    pub test_faults: bool,
    /// MCMC build parameters used when neither a tuned record nor the
    /// request supplies them.
    pub params: McmcParams,
    /// Divergence safeguard for builds.
    pub guard: SafeguardConfig,
    /// Matrix-independent build settings (seeded ⇒ deterministic builds).
    pub build: BuildConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_capacity: 64,
            max_batch_width: 8,
            cache_bytes: 256 * 1024 * 1024,
            drain_deadline_ms: 5_000,
            default_deadline_ms: None,
            snapshot_path: None,
            test_faults: false,
            params: McmcParams::new(2.0, 0.5, 0.5),
            guard: SafeguardConfig::default(),
            build: BuildConfig::default(),
        }
    }
}

/// Monotonic counters, exported verbatim by `GET /stats`.
#[derive(Default)]
pub struct Stats {
    pub submitted: AtomicU64,
    pub completed: AtomicU64,
    pub builds: AtomicU64,
    pub build_failures: AtomicU64,
    pub cache_hits: AtomicU64,
    pub negative_hits: AtomicU64,
    pub coalesced_groups: AtomicU64,
    pub coalesced_requests: AtomicU64,
    pub shed_overload: AtomicU64,
    pub shed_draining: AtomicU64,
    pub deadline_queued: AtomicU64,
    pub deadline_mid_solve: AtomicU64,
    pub drain_cutoffs: AtomicU64,
    pub worker_panics: AtomicU64,
    pub worker_replacements: AtomicU64,
    pub worker_solves: AtomicU64,
}

/// Point-in-time view of [`Stats`] plus gauges, JSON-(de)serializable so
/// harnesses can assert on it.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct StatsSnapshot {
    pub submitted: u64,
    pub completed: u64,
    pub builds: u64,
    pub build_failures: u64,
    pub cache_hits: u64,
    pub negative_hits: u64,
    pub coalesced_groups: u64,
    pub coalesced_requests: u64,
    pub shed_overload: u64,
    pub shed_draining: u64,
    pub deadline_queued: u64,
    pub deadline_mid_solve: u64,
    pub drain_cutoffs: u64,
    pub worker_panics: u64,
    pub worker_replacements: u64,
    pub worker_solves: u64,
    pub queue_depth: u64,
    pub cache_entries: u64,
    pub cache_bytes: u64,
    /// Cache entries evicted over the daemon's lifetime. Sustained growth
    /// means operator churn — typically a drifting operator re-fingerprinting
    /// every step, which the drift-session path exists to avoid.
    pub drift_evictions: u64,
    pub draining: bool,
}

/// One persisted tuning outcome: the safeguard's *effective* parameters
/// for an operator, so a restarted server builds at the accepted α
/// directly instead of replaying the backoff ladder.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TunedRecord {
    pub fingerprint: u64,
    pub params: McmcParams,
    pub rho_estimate: f64,
}

/// A persisted poison verdict: replayed as a negative cache entry on
/// restart, so hopeless operators answer instantly forever.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PoisonedRecord {
    pub fingerprint: u64,
    pub error: BuildError,
}

/// The snapshot document written through the PR-5 snapshot machinery
/// ([`mcmcmi_core::save_json_snapshot`]: atomic tmp-and-rename).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TunedStore {
    pub records: Vec<TunedRecord>,
    pub poisoned: Vec<PoisonedRecord>,
}

struct ServerInner {
    config: ServeConfig,
    queue: AdmissionQueue,
    cache: OperatorCache,
    stats: Stats,
    /// fingerprint → accepted build parameters (feeds new builds and the
    /// persisted snapshot).
    tuned: Mutex<HashMap<u64, TunedRecord>>,
    /// fingerprint → poison verdict (for the persisted snapshot; the
    /// live negative entries live in the cache).
    poisoned: Mutex<HashMap<u64, BuildError>>,
    /// Cancellation token of each worker's in-flight solve, for the drain
    /// cutoff.
    active_tokens: Mutex<HashMap<u64, CancelToken>>,
    /// Set when the drain deadline fires: cancelled solves answer with
    /// phase `"drain"` instead of being re-solved.
    drain_cutoff: AtomicBool,
    worker_seq: AtomicU64,
    workers: Mutex<Vec<JoinHandle<()>>>,
    /// Worker threads still running, and the condition [`Server::join`]
    /// sleeps on until there are none.
    live_workers: Mutex<usize>,
    workers_done: Condvar,
}

impl ServerInner {
    fn snapshot_store(&self) -> TunedStore {
        let mut records: Vec<TunedRecord> =
            lock_unpoisoned(&self.tuned).values().cloned().collect();
        records.sort_by_key(|r| r.fingerprint);
        let mut poisoned: Vec<PoisonedRecord> = lock_unpoisoned(&self.poisoned)
            .iter()
            .map(|(fp, e)| PoisonedRecord {
                fingerprint: *fp,
                error: e.clone(),
            })
            .collect();
        poisoned.sort_by_key(|r| r.fingerprint);
        TunedStore { records, poisoned }
    }

    fn stats_snapshot(&self) -> StatsSnapshot {
        let s = &self.stats;
        let ld = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let (cache_entries, cache_bytes) = self.cache.usage();
        StatsSnapshot {
            submitted: ld(&s.submitted),
            completed: ld(&s.completed),
            builds: ld(&s.builds),
            build_failures: ld(&s.build_failures),
            cache_hits: ld(&s.cache_hits),
            negative_hits: ld(&s.negative_hits),
            coalesced_groups: ld(&s.coalesced_groups),
            coalesced_requests: ld(&s.coalesced_requests),
            shed_overload: ld(&s.shed_overload),
            shed_draining: ld(&s.shed_draining),
            deadline_queued: ld(&s.deadline_queued),
            deadline_mid_solve: ld(&s.deadline_mid_solve),
            drain_cutoffs: ld(&s.drain_cutoffs),
            worker_panics: ld(&s.worker_panics),
            worker_replacements: ld(&s.worker_replacements),
            worker_solves: ld(&s.worker_solves),
            queue_depth: self.queue.depth() as u64,
            cache_entries: cache_entries as u64,
            cache_bytes: cache_bytes as u64,
            drift_evictions: self.cache.evictions(),
            draining: self.queue.is_draining(),
        }
    }
}

/// A running daemon. Dropping it (or calling [`Server::join`]) drains and
/// stops everything.
pub struct Server {
    inner: Arc<ServerInner>,
    http: httpd::ServerHandle,
}

/// How a drain ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DrainOutcome {
    /// `true` when every in-flight request finished inside the drain
    /// deadline; `false` when stragglers had to be cancelled.
    pub drained_clean: bool,
}

impl Server {
    /// Start the daemon: load the tuned-parameter snapshot (if any), spawn
    /// the worker pool, and bind the HTTP front.
    pub fn start(config: ServeConfig) -> io::Result<Server> {
        let cache = OperatorCache::new(config.cache_bytes);
        let mut tuned = HashMap::new();
        let mut poisoned = HashMap::new();
        if let Some(path) = &config.snapshot_path {
            if let Some(store) = load_json_snapshot::<TunedStore>(path)? {
                for r in store.records {
                    tuned.insert(r.fingerprint, r);
                }
                for p in store.poisoned {
                    cache.insert_poisoned(p.fingerprint, Arc::new(p.error.clone()));
                    poisoned.insert(p.fingerprint, p.error);
                }
            }
        }
        let inner = Arc::new(ServerInner {
            queue: AdmissionQueue::new(config.queue_capacity),
            cache,
            stats: Stats::default(),
            tuned: Mutex::new(tuned),
            poisoned: Mutex::new(poisoned),
            active_tokens: Mutex::new(HashMap::new()),
            drain_cutoff: AtomicBool::new(false),
            worker_seq: AtomicU64::new(0),
            workers: Mutex::new(Vec::new()),
            live_workers: Mutex::new(0),
            workers_done: Condvar::new(),
            config,
        });
        for _ in 0..inner.config.workers.max(1) {
            spawn_worker(&inner);
        }
        let http_inner = Arc::clone(&inner);
        let http = httpd::HttpServer::bind(inner.config.addr.as_str())?
            .serve(move |req| route(&http_inner, &req))?;
        Ok(Server { inner, http })
    }

    /// The bound address (resolves an ephemeral port request).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.http.addr()
    }

    /// Stop admitting work; equivalent to `POST /shutdown`.
    pub fn begin_drain(&self) {
        self.inner.queue.begin_drain();
    }

    /// Current counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats_snapshot()
    }

    /// Drain and shut down: stop admission, wait for in-flight work up to
    /// the drain deadline, cancel stragglers past it, persist the tuned
    /// store, and stop the HTTP front.
    pub fn join(self) -> io::Result<DrainOutcome> {
        self.inner.queue.begin_drain();
        // Workers leave once the queue is drained and empty. Sleep until
        // the last one has, or until the drain deadline.
        let drain = Duration::from_millis(self.inner.config.drain_deadline_ms);
        let timed_out = {
            let live = lock_unpoisoned(&self.inner.live_workers);
            *wait_timeout_while_unpoisoned(&self.inner.workers_done, live, drain, |n| *n > 0) > 0
        };
        if timed_out {
            // Cut every solve in flight. One that starts after this sweep
            // sees the flag when it registers its token and cancels itself.
            self.inner.drain_cutoff.store(true, Ordering::Release);
            for token in lock_unpoisoned(&self.inner.active_tokens).values() {
                token.cancel();
            }
        }
        // Joining the handles is the wait for whoever is still winding down
        // (a replacement's handle is pushed before its predecessor exits).
        loop {
            let handle = lock_unpoisoned(&self.inner.workers).pop();
            match handle {
                Some(h) => {
                    let _ = h.join();
                }
                None => break,
            }
        }
        if let Some(path) = &self.inner.config.snapshot_path {
            save_json_snapshot(path, &self.inner.snapshot_store())?;
        }
        let drained_clean = !self.inner.drain_cutoff.load(Ordering::Acquire);
        self.http.join(Duration::from_millis(500));
        Ok(DrainOutcome { drained_clean })
    }
}

fn spawn_worker(inner: &Arc<ServerInner>) {
    /// Counts its worker out however the thread ends, and wakes `join`
    /// when it was the last.
    struct Live(Arc<ServerInner>);
    impl Drop for Live {
        fn drop(&mut self) {
            let mut live = lock_unpoisoned(&self.0.live_workers);
            *live -= 1;
            if *live == 0 {
                self.0.workers_done.notify_all();
            }
        }
    }
    let id = inner.worker_seq.fetch_add(1, Ordering::AcqRel);
    // Counted in before the thread exists: a replacement is live before
    // the worker it replaces counts itself out.
    *lock_unpoisoned(&inner.live_workers) += 1;
    let live = Live(Arc::clone(inner));
    let handle = std::thread::Builder::new()
        .name(format!("serve-worker-{id}"))
        .spawn(move || worker_loop(&live.0, id))
        .expect("failed to spawn worker thread");
    lock_unpoisoned(&inner.workers).push(handle);
}

fn worker_loop(inner: &Arc<ServerInner>, worker_id: u64) {
    loop {
        let group = inner.queue.pop_group(inner.config.max_batch_width, |job| {
            inner.stats.deadline_queued.fetch_add(1, Ordering::Relaxed);
            job.respond(Err(ServeError::DeadlineExceeded {
                phase: "queued",
                iterations: 0,
                rel_residual: None,
            }));
        });
        let Some(jobs) = group else {
            return; // draining and empty: clean exit
        };
        if jobs.len() > 1 {
            inner.stats.coalesced_groups.fetch_add(1, Ordering::Relaxed);
            inner
                .stats
                .coalesced_requests
                .fetch_add(jobs.len() as u64, Ordering::Relaxed);
        }
        let jobs_for_catch = jobs.clone();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            process_group(inner, worker_id, &jobs);
        }));
        if outcome.is_err() {
            // Fault isolation: answer every job whose reply is still
            // pending (respond() is take-once, so already-answered members
            // are untouched), clear this worker's token, and hand the slot
            // to a fresh thread.
            inner.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
            for job in &jobs_for_catch {
                job.respond(Err(ServeError::WorkerPanic(
                    "worker panicked while processing this request; the pool replaced it"
                        .to_string(),
                )));
            }
            lock_unpoisoned(&inner.active_tokens).remove(&worker_id);
            inner
                .stats
                .worker_replacements
                .fetch_add(1, Ordering::Relaxed);
            spawn_worker(inner);
            return;
        }
    }
}

/// Resolve the group's operator (cache hit, negative hit, or safeguarded
/// build), then solve the group in lockstep under its min-deadline token.
fn process_group(inner: &Arc<ServerInner>, worker_id: u64, jobs: &[Arc<Job>]) {
    let cfg = &inner.config;

    // Test-only fault injections come first so they model a worker dying
    // (or stalling) before any response is produced.
    if cfg.test_faults {
        if let Some(ms) = jobs
            .iter()
            .filter_map(|j| match j.request.fault {
                Some(Fault::SleepMs(ms)) => Some(ms),
                _ => None,
            })
            .max()
        {
            std::thread::sleep(Duration::from_millis(ms));
        }
        if jobs.iter().any(|j| j.request.fault == Some(Fault::Panic)) {
            panic!("injected test fault: worker panic");
        }
    }

    let fingerprint = jobs[0].fingerprint;
    let (entry, cached) = match resolve_operator(inner, fingerprint, jobs) {
        Some(r) => r,
        None => return, // every job already answered (poison / bad request)
    };

    // Reject members whose rhs cannot belong to this operator before they
    // can poison the lockstep batch.
    let n = entry.operator.csr().nrows();
    let mut pending: Vec<Arc<Job>> = Vec::with_capacity(jobs.len());
    for job in jobs {
        if job.request.b.len() == n {
            pending.push(Arc::clone(job));
        } else {
            job.respond(Err(ServeError::BadRequest(format!(
                "`b` length {} does not match cached operator dimension {n}",
                job.request.b.len()
            ))));
        }
    }
    if pending.is_empty() {
        return;
    }

    let group_width = pending.len();
    let key = jobs[0].group;
    let opts = jobs[0].request.opts();
    let policy = RecoveryPolicy::default();

    // Solve under the group's earliest deadline; members still unexpired
    // after a cancellation are re-solved in a narrower group. Terminates:
    // every round either answers everyone or removes at least the member
    // whose deadline fired.
    loop {
        let token = match pending.iter().filter_map(|j| j.deadline).min() {
            Some(d) => CancelToken::with_deadline(d),
            None => CancelToken::new(),
        };
        lock_unpoisoned(&inner.active_tokens).insert(worker_id, token.clone());
        // Registered after the drain cut-off swept the tokens: cut at once.
        // (Registered before it: the sweep, which takes the same lock after
        // setting the flag, cancels this token itself.)
        if inner.drain_cutoff.load(Ordering::Acquire) {
            token.cancel();
        }

        let (mut session, made) = entry.take_session(&key, opts);
        if made > 0 {
            inner.cache.charge(fingerprint, &entry, made);
        }
        let rhs: Vec<Vec<f64>> = pending.iter().map(|j| j.request.b.clone()).collect();
        let (results, trail): (Vec<SolveResult>, RecoveryTrail) = with_cancel(&token, || {
            session.solve_batch_resilient(&rhs, &policy, RecoveryContext::none())
        });
        entry.put_session(key, session);
        lock_unpoisoned(&inner.active_tokens).remove(&worker_id);
        inner
            .stats
            .worker_solves
            .fetch_add(pending.len() as u64, Ordering::Relaxed);

        let drain_cut = inner.drain_cutoff.load(Ordering::Acquire);
        let mut still_pending = Vec::new();
        for (job, result) in pending.iter().zip(results) {
            let was_cancelled = matches!(result.failure(), Some(SolveFailure::Cancelled));
            if was_cancelled {
                if job.expired() {
                    inner
                        .stats
                        .deadline_mid_solve
                        .fetch_add(1, Ordering::Relaxed);
                    job.respond(Err(ServeError::DeadlineExceeded {
                        phase: "solving",
                        iterations: result.iterations,
                        rel_residual: Some(result.rel_residual),
                    }));
                } else if drain_cut {
                    inner.stats.drain_cutoffs.fetch_add(1, Ordering::Relaxed);
                    job.respond(Err(ServeError::DeadlineExceeded {
                        phase: "drain",
                        iterations: result.iterations,
                        rel_residual: Some(result.rel_residual),
                    }));
                } else {
                    // Stopped by a sibling's earlier deadline: re-solve.
                    still_pending.push(Arc::clone(job));
                }
            } else {
                job.respond(Ok(SolveReply {
                    x: result.x,
                    iterations: result.iterations,
                    rel_residual: result.rel_residual,
                    converged: result.converged,
                    fingerprint,
                    cached,
                    build_attempts: entry.attempts.len(),
                    coalesced_width: group_width,
                    trail: trail.clone(),
                }));
            }
        }
        if still_pending.is_empty() {
            return;
        }
        pending = still_pending;
    }
}

/// Cache-hit / negative-hit / build resolution for one group. Returns
/// `None` when every job has already been answered.
fn resolve_operator(
    inner: &Arc<ServerInner>,
    fingerprint: u64,
    jobs: &[Arc<Job>],
) -> Option<(Arc<OperatorEntry>, bool)> {
    let cfg = &inner.config;
    let respond_all = |err: &ServeError| {
        for job in jobs {
            job.respond(Err(err.clone()));
        }
    };
    // A resident slot answers the whole group: a hit, or the poison
    // operator's recorded error.
    let count = |hits: &AtomicU64| hits.fetch_add(jobs.len() as u64, Ordering::Relaxed);
    let resident = |slot: Slot| match slot {
        Slot::Ready(entry) => {
            count(&inner.stats.cache_hits);
            Some((entry, true))
        }
        Slot::Poisoned(err) => {
            count(&inner.stats.negative_hits);
            respond_all(&ServeError::Build((*err).clone()));
            None
        }
    };
    if let Some(slot) = inner.cache.lookup(fingerprint) {
        return resident(slot);
    }
    // Miss: build at most once per fingerprint, even across uncoalesced
    // concurrent groups.
    let lock = inner.cache.build_lock(fingerprint);
    // A previous builder may have panicked while holding this lock (its
    // group was answered `WorkerPanic` by the catch site). The lock only
    // serialises "at most one build per operator" — there is no state
    // behind it to corrupt — so recover the guard and let this group's
    // build proceed where the doomed one left off.
    let _guard = lock
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(slot) = inner.cache.lookup(fingerprint) {
        return resident(slot);
    }
    // Test-only: die *while holding the build lock*, modelling a builder
    // panicking mid-build. The catch site answers this group; the next
    // group for this fingerprint must recover the poisoned lock and build.
    if cfg.test_faults
        && jobs
            .iter()
            .any(|j| j.request.fault == Some(Fault::PanicInBuild))
    {
        panic!("injected test fault: worker panic inside the build lock");
    }
    let Some(matrix) = jobs.iter().find_map(|j| j.request.matrix.clone()) else {
        respond_all(&ServeError::BadRequest(format!(
            "operator {fingerprint:#018x} is not cached; resend the request with `matrix`"
        )));
        return None;
    };
    // Parameter precedence: a tuned record replays the previously accepted
    // parameters (a restarted server retunes nothing), then an explicit
    // request, then the server default.
    let tuned_params = lock_unpoisoned(&inner.tuned)
        .get(&fingerprint)
        .map(|r| r.params);
    let params = tuned_params
        .or_else(|| jobs.iter().find_map(|j| j.request.params))
        .unwrap_or(cfg.params);
    inner.stats.builds.fetch_add(1, Ordering::Relaxed);
    match McmcInverse::new(cfg.build).build_safeguarded(&matrix, params, &cfg.guard) {
        Ok(build) => {
            lock_unpoisoned(&inner.tuned).insert(
                fingerprint,
                TunedRecord {
                    fingerprint,
                    params: build.params,
                    rho_estimate: build.rho_estimate,
                },
            );
            let entry = Arc::new(OperatorEntry::new(
                matrix,
                build.outcome.precond,
                build.params,
                build.attempts,
                build.rho_estimate,
            ));
            inner.cache.insert_ready(fingerprint, Arc::clone(&entry));
            Some((entry, false))
        }
        Err(err) => {
            inner.stats.build_failures.fetch_add(1, Ordering::Relaxed);
            lock_unpoisoned(&inner.poisoned).insert(fingerprint, err.clone());
            inner
                .cache
                .insert_poisoned(fingerprint, Arc::new(err.clone()));
            respond_all(&ServeError::Build(err));
            None
        }
    }
}

/// HTTP routing.
fn route(inner: &Arc<ServerInner>, req: &httpd::Request) -> httpd::Response {
    let path = req.path.split('?').next().unwrap_or("");
    match (req.method.as_str(), path) {
        ("POST", "/solve") => handle_solve(inner, req),
        ("GET", "/stats") => {
            let json = serde_json::to_string(&inner.stats_snapshot())
                .expect("stats serialization cannot fail");
            httpd::Response::json(200, json)
        }
        ("GET", "/healthz") => {
            if inner.queue.is_draining() {
                httpd::Response::json(503, "{\"ok\":false,\"draining\":true}")
            } else {
                httpd::Response::json(200, "{\"ok\":true}")
            }
        }
        ("POST", "/shutdown") => {
            inner.queue.begin_drain();
            httpd::Response::json(202, "{\"ok\":true,\"draining\":true}")
        }
        _ => httpd::Response::json(
            404,
            "{\"ok\":false,\"error\":{\"kind\":\"BadRequest\",\"detail\":\"unknown endpoint\"}}",
        ),
    }
}

fn error_response(inner: &Arc<ServerInner>, err: ServeError) -> httpd::Response {
    match &err {
        ServeError::Overloaded { .. } => {
            inner.stats.shed_overload.fetch_add(1, Ordering::Relaxed);
        }
        ServeError::Draining => {
            inner.stats.shed_draining.fetch_add(1, Ordering::Relaxed);
        }
        _ => {}
    }
    httpd::Response::json(err.status(), err.to_json())
}

fn handle_solve(inner: &Arc<ServerInner>, req: &httpd::Request) -> httpd::Response {
    // Validated in place and scanned once: the body is never copied.
    let parsed = std::str::from_utf8(&req.body)
        .map_err(|e| format!("request body is not UTF-8: {e}"))
        .and_then(crate::protocol::SolveRequest::parse);
    let parsed = match parsed {
        Ok(p) => p,
        Err(detail) => return error_response(inner, ServeError::BadRequest(detail)),
    };
    let fingerprint = match (&parsed.matrix, parsed.fingerprint) {
        (Some(m), claimed) => {
            let actual = m.fingerprint();
            if claimed.is_some_and(|c| c != actual) {
                return error_response(
                    inner,
                    ServeError::BadRequest(format!(
                        "fingerprint mismatch: request claims {:#018x}, matrix hashes to {actual:#018x}",
                        claimed.unwrap_or(0),
                    )),
                );
            }
            actual
        }
        (None, Some(f)) => f,
        (None, None) => unreachable!("parser enforces matrix-or-fingerprint"),
    };
    inner.stats.submitted.fetch_add(1, Ordering::Relaxed);
    let deadline_ms = parsed.deadline_ms.or(inner.config.default_deadline_ms);
    let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
    let (job, rx) = Job::new(parsed, fingerprint, deadline);
    let job = Arc::new(job);
    // Admission-time deadline check: a zero (or already-spent) budget never
    // takes a queue slot, let alone a worker.
    if job.expired() {
        inner.stats.deadline_queued.fetch_add(1, Ordering::Relaxed);
        return error_response(
            inner,
            ServeError::DeadlineExceeded {
                phase: "queued",
                iterations: 0,
                rel_residual: None,
            },
        );
    }
    if let Err(err) = inner.queue.try_admit(Arc::clone(&job)) {
        return error_response(inner, err);
    }
    // The take-once reply contract means exactly one message arrives here;
    // the generous timeout is a backstop against bugs, not a mechanism.
    match rx.recv_timeout(Duration::from_secs(600)) {
        Ok(Ok(reply)) => {
            inner.stats.completed.fetch_add(1, Ordering::Relaxed);
            httpd::Response::json(200, reply.to_json())
        }
        Ok(Err(err)) => error_response(inner, err),
        Err(_) => error_response(
            inner,
            ServeError::WorkerPanic("reply channel closed without a response".to_string()),
        ),
    }
}
