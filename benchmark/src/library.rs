//! The phases every library workload runs on each of its cases: cold
//! visits (operator in hand → verified `x`, nothing reused) for the MCMC
//! path and the classical baselines, warm single solves and k = 8 batches
//! on a session in hand — and, in the traced run, the leaf measurements of
//! the layers underneath.

use crate::inputs::SplitMix;
use crate::metrics::Values;
use crate::stats::{median, tail, trimmed_mean};
use crate::trace::{self, Tracer};
use crate::verify::verifies;
use mcmcmi::bayesopt::{propose_best, ProposeConfig, SurrogateModel};
use mcmcmi::core::autotune::{AutoTuner, AutotuneConfig};
use mcmcmi::core::pipeline::RecommenderSnapshot;
use mcmcmi::core::{matrix_features, Recommender};
use mcmcmi::gnn::MatrixGraph;
use mcmcmi::hpo::{TpeConfig, TpeSampler};
use mcmcmi::krylov::{
    CompressedPrecond, Ic0, IdentityPrecond, Ilu0, JacobiPrecond, Preconditioner, RecoveryContext,
    RecoveryPolicy, SolveOptions, SolveResult, SolveSession, SolverType, SparsePrecond, TuneBudget,
    CONVERGENCE_SLACK,
};
use mcmcmi::mcmc::{
    BuildConfig, CompressionPolicy, McmcInverse, McmcParams, SafeguardConfig, WalkEngine,
    WalkMatrix,
};
use mcmcmi::sparse::{Csr, KernelBackend, SpecializedBackend};
use std::hint::black_box;
use std::time::Instant;

/// Batch width of the batch phase and of the block leaf measurements.
pub const BATCH_K: usize = 8;
/// Source of the per-visit build seeds on the tuned path, whatever `--seed`.
const TUNED_BUILD_SEED: u64 = 100;
/// Right-hand sides generated per case; visits cycle through them.
pub const RHS_POOL: usize = 16;

/// How a case gets from an operator to a preconditioned session.
#[derive(Clone, Copy, Debug)]
pub enum McmcPath {
    /// Fixed (α, ε, δ); `symmetrize` for the CG path on SPD operators.
    Fixed {
        params: McmcParams,
        symmetrize: bool,
    },
    /// The paper's headline path: recommender-seeded joint auto-tune.
    Tuned { trials: usize, probe_rhs: usize },
}

/// Work per run for one case. Frozen after sizing; `scaled` is the only
/// thing that changes them.
#[derive(Clone, Copy, Debug)]
pub struct CaseCounts {
    /// Untimed MCMC visits before the cold phase.
    pub warmup: usize,
    /// Timed cold visits (MCMC path, unpreconditioned, Jacobi).
    pub cold: usize,
    /// Of those, how many also visit the ILU(0)/IC(0) baseline.
    pub cold_factor: usize,
    /// Visits per cold visit of the classical path that is fastest on it:
    /// the first, and the repeats that steady its timing.
    pub classical_reps: usize,
    /// Timed single-RHS solves on the session in hand.
    pub warm: usize,
    /// Timed `solve_batch` calls at k = 8.
    pub batch: usize,
}

impl CaseCounts {
    /// Counts for a run of `seconds` when the frozen ones are for
    /// `reference` seconds.
    pub fn scaled(self, seconds: f64, reference: f64) -> Self {
        let s = |c: usize| ((c as f64 * seconds / reference).round() as usize).max(1);
        Self {
            warmup: self.warmup,
            cold: s(self.cold),
            cold_factor: s(self.cold_factor),
            classical_reps: self.classical_reps,
            warm: s(self.warm),
            batch: s(self.batch),
        }
    }
}

/// One operator with its solver settings and counts.
pub struct Case {
    pub name: &'static str,
    pub a: Csr,
    pub solver: SolverType,
    pub opts: SolveOptions,
    pub path: McmcPath,
    pub counts: CaseCounts,
    pub rhs: Vec<Vec<f64>>,
}

impl Case {
    fn limit(&self) -> f64 {
        self.opts.tol * CONVERGENCE_SLACK
    }

    fn rhs_at(&self, i: usize) -> &[f64] {
        &self.rhs[i % self.rhs.len()]
    }
}

/// A bound session of either preconditioner type.
pub enum Session {
    Sparse(SolveSession<SparsePrecond>),
    Compressed(SolveSession<CompressedPrecond>),
}

impl Session {
    pub fn solve(&mut self, b: &[f64]) -> SolveResult {
        match self {
            Session::Sparse(s) => s.solve(b),
            Session::Compressed(s) => s.solve(b),
        }
    }

    pub fn solve_batch(&mut self, rhs: &[Vec<f64>]) -> Vec<SolveResult> {
        match self {
            Session::Sparse(s) => s.solve_batch(rhs),
            Session::Compressed(s) => s.solve_batch(rhs),
        }
    }

    pub fn solve_resilient(&mut self, b: &[f64]) -> SolveResult {
        let policy = RecoveryPolicy::default();
        match self {
            Session::Sparse(s) => s.solve_resilient(b, &policy, RecoveryContext::none()),
            Session::Compressed(s) => s.solve_resilient(b, &policy, RecoveryContext::none()),
        }
        .result
    }

    pub fn precond(&self) -> &dyn Preconditioner {
        match self {
            Session::Sparse(s) => s.precond(),
            Session::Compressed(s) => s.precond(),
        }
    }
}

/// Operations sent, verified and failed in one phase.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseCount {
    pub sent: u64,
    pub succeeded: u64,
    pub failed: u64,
}

impl PhaseCount {
    pub fn record(&mut self, ok: bool) {
        self.sent += 1;
        if ok {
            self.succeeded += 1;
        } else {
            self.failed += 1;
        }
    }

    pub fn add(&mut self, other: PhaseCount) {
        self.sent += other.sent;
        self.succeeded += other.succeeded;
        self.failed += other.failed;
    }
}

/// What the phases of one workload produced, whichever kind it is.
pub struct Measured {
    /// Per case: name, end-to-end values, per-layer values.
    pub cases: Vec<(&'static str, Values, Values)>,
    /// Per-layer values of the workload as a whole.
    pub overall_layer: Values,
    pub cold: PhaseCount,
    pub warm: PhaseCount,
    pub batch: PhaseCount,
    pub first_failure: Option<String>,
    pub spans: Vec<trace::Span>,
    /// The frozen counts the run used, for the result file.
    pub counts: serde::Value,
}

/// What one case produced: end-to-end values, per-layer values (traced run
/// only), and the MCMC-path operation counts per phase.
pub struct CaseOutcome {
    pub name: &'static str,
    pub end_to_end: Values,
    pub per_layer: Values,
    pub cold: PhaseCount,
    pub warm: PhaseCount,
    pub batch: PhaseCount,
    /// First failure seen, for the report.
    pub first_failure: Option<String>,
}

/// What the MCMC path reports about one cold visit besides its solution.
#[derive(Default)]
struct VisitFacts {
    transitions: f64,
    attempts: f64,
    wasted_share: f64,
    precond_nnz: f64,
    tune: Option<TuneFacts>,
}

struct TuneFacts {
    trials: f64,
    trials_converged: f64,
    certification_attempts: f64,
    tuned_iterations: f64,
    params: McmcParams,
    policy: CompressionPolicy,
}

/// One cold visit of the MCMC path: choose or tune parameters, build
/// behind the safeguard, symmetrise or compress, bind, solve. Everything a
/// caller with only the CSR in memory would have to pay. `a` is that CSR:
/// the caller's own copy of the case's operator, which the session ends up
/// owning (copying it is the harness's doing, and outside the clock).
fn mcmc_visit(
    case: &Case,
    a: Csr,
    b: &[f64],
    seed: u64,
    snapshot: Option<&RecommenderSnapshot>,
    tr: &mut Tracer,
) -> Result<(Session, SolveResult, VisitFacts), String> {
    let build_cfg = BuildConfig {
        seed,
        ..BuildConfig::default()
    };
    let (mut session, facts) = match case.path {
        McmcPath::Fixed { params, symmetrize } => {
            let open = tr.begin("mcmc.build");
            let built = McmcInverse::new(build_cfg).build_safeguarded(
                &a,
                params,
                &SafeguardConfig::default(),
            );
            tr.end(open);
            let built = built.map_err(|e| format!("{}: build refused: {e}", case.name))?;
            let out = &built.outcome;
            let chains = (a.nrows() * out.chains_per_row).max(1);
            let facts = VisitFacts {
                transitions: out.transitions as f64,
                attempts: built.attempts.len() as f64,
                wasted_share: (out.capped_chains + out.blown_up_chains) as f64 / chains as f64,
                precond_nnz: out.precond.matrix().nnz() as f64,
                tune: None,
            };
            let precond = if symmetrize {
                tr.span("krylov.symmetrize", || built.outcome.precond.symmetrized())
            } else {
                built.outcome.precond
            };
            let session = tr.span("krylov.bind", || {
                SolveSession::new(a, precond, case.solver, case.opts)
            });
            (Session::Sparse(session), facts)
        }
        McmcPath::Tuned { trials, probe_rhs } => {
            let snapshot = snapshot.ok_or("tuned path needs a recommender snapshot")?;
            let recommender = tr.span("core.restore", || {
                Recommender::from_snapshot(snapshot.clone())
            });
            let mut tuner = AutoTuner::new(AutotuneConfig {
                solver: case.solver,
                build: build_cfg,
                safeguard: SafeguardConfig::default(),
            })
            .with_recommender(recommender);
            // The sampler's seed stays fixed: `--seed` varies the inputs
            // (right-hand sides, build streams), not the search policy.
            let budget = TuneBudget {
                trials,
                probe_rhs,
                probe_opts: case.opts,
                seed: 0,
            };
            let open = tr.begin("core.tune");
            let tuned = tuner.tune_parts(&a, &budget);
            tr.end(open);
            let (precond, report) =
                tuned.map_err(|e| format!("{}: tune failed: {e}", case.name))?;
            let facts = VisitFacts {
                precond_nnz: precond.nnz() as f64,
                tune: Some(TuneFacts {
                    trials: report.trials.len() as f64,
                    trials_converged: report.trials.iter().filter(|t| t.converged).count() as f64,
                    certification_attempts: report.certification_attempts as f64,
                    tuned_iterations: report.probe_iters as f64,
                    params: report.params,
                    policy: report.policy,
                }),
                ..VisitFacts::default()
            };
            // What `SolveSession::auto` does with the tuner's parts.
            let session = tr.span("krylov.bind", || {
                SolveSession::new(a, precond, report.solver, budget.probe_opts)
            });
            (Session::Compressed(session), facts)
        }
    };
    let result = tr.span("krylov.solve", || session.solve(b));
    Ok((session, result, facts))
}

/// The classical paths the MCMC path is compared against.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Baseline {
    None,
    Jacobi,
    /// ILU(0), or IC(0) under CG.
    Factor,
}

impl Baseline {
    const ALL: [Baseline; 3] = [Baseline::None, Baseline::Jacobi, Baseline::Factor];

    fn construct_span(self) -> &'static str {
        match self {
            Baseline::None => "krylov.none_construct",
            Baseline::Jacobi => "krylov.jacobi_construct",
            Baseline::Factor => "krylov.ilu0_factor",
        }
    }

    fn solve_span(self) -> &'static str {
        match self {
            Baseline::None => "krylov.none_solve",
            Baseline::Jacobi => "krylov.jacobi_solve",
            Baseline::Factor => "krylov.ilu0_solve",
        }
    }
}

/// One cold visit of a classical path on the caller's own copy of the
/// operator: construct the preconditioner, bind a session (the same driver
/// and kernels the MCMC path gets), solve. `None` when the factorisation
/// refuses the operator.
fn baseline_visit(
    a: Csr,
    solver: SolverType,
    opts: SolveOptions,
    which: Baseline,
    b: &[f64],
    tr: &mut Tracer,
) -> Option<SolveResult> {
    let run = |a: Csr, p: &dyn Preconditioner, tr: &mut Tracer| {
        let mut session = tr.span("krylov.bind", || SolveSession::new(a, p, solver, opts));
        tr.span(which.solve_span(), || session.solve(b))
    };
    let construct = which.construct_span();
    match which {
        Baseline::None => {
            let p = tr.span(construct, || IdentityPrecond::new(a.nrows()));
            Some(run(a, &p, tr))
        }
        Baseline::Jacobi => {
            let p = tr.span(construct, || JacobiPrecond::new(&a));
            Some(run(a, &p, tr))
        }
        Baseline::Factor if solver == SolverType::Cg => {
            let p = tr.span(construct, || Ic0::new(&a)).ok()?;
            Some(run(a, &p, tr))
        }
        Baseline::Factor => {
            let p = tr.span(construct, || Ilu0::new(&a)).ok()?;
            Some(run(a, &p, tr))
        }
    }
}

/// What the classical paths did over a phase: verified visit times and
/// charged iterations per path, in the order of [`Baseline::ALL`].
#[derive(Default)]
pub struct Classical {
    seconds: [Vec<f64>; 3],
    iterations: [Vec<f64>; 3],
    /// Paths with a visit that did not verify; they cannot be the baseline.
    disqualified: [bool; 3],
}

impl Classical {
    /// Visit every classical path once on `(a, b)`, the factorisation only
    /// when `with_factor`; time, verify and book each visit. Then visit the
    /// path that was fastest here `reps - 1` more times, for the timing
    /// alone: a classical visit is tens to thousands of times shorter than
    /// the MCMC visit beside it, so one sample per cold visit would leave
    /// `baseline_time_to_solution_s` the noisiest number of a run, and only
    /// the fastest path decides it.
    #[allow(clippy::too_many_arguments)]
    pub fn visit(
        &mut self,
        a: &Csr,
        solver: SolverType,
        opts: SolveOptions,
        b: &[f64],
        with_factor: bool,
        reps: usize,
        tr: &mut Tracer,
    ) {
        let timed = |which: Baseline, tr: &mut Tracer| {
            let owned = a.clone();
            let open = tr.begin("visit.baseline");
            let t0 = Instant::now();
            let result = baseline_visit(owned, solver, opts, which, b, tr);
            let dt = t0.elapsed().as_secs_f64();
            tr.end(open);
            let limit = opts.tol * CONVERGENCE_SLACK;
            let ok = result.as_ref().is_some_and(|r| verifies(a, &r.x, b, limit));
            (dt, result.filter(|_| ok).map(|r| r.iterations))
        };
        let mut fastest: Option<(usize, f64)> = None;
        for (k, which) in Baseline::ALL.into_iter().enumerate() {
            if which == Baseline::Factor && !with_factor {
                continue;
            }
            let (dt, iterations) = timed(which, tr);
            self.iterations[k].push(iterations.unwrap_or(opts.max_iter) as f64);
            if iterations.is_some() {
                self.seconds[k].push(dt);
                if fastest.is_none_or(|(_, best)| dt < best) {
                    fastest = Some((k, dt));
                }
            } else {
                self.disqualified[k] = true;
            }
        }
        let Some((k, _)) = fastest else { return };
        for _ in 1..reps {
            match timed(Baseline::ALL[k], tr) {
                (dt, Some(_)) => self.seconds[k].push(dt),
                _ => self.disqualified[k] = true,
            }
        }
    }

    /// Visit time of the fastest path whose every visit verified.
    pub fn fastest_verifying_s(&self) -> f64 {
        (0..3)
            .filter(|&k| !self.disqualified[k] && !self.seconds[k].is_empty())
            .map(|k| trimmed_mean(&self.seconds[k]))
            .fold(f64::NAN, f64::min)
    }

    /// Iterations charged to the unpreconditioned path, summed.
    pub fn unpreconditioned_iterations(&self) -> f64 {
        self.iterations[0].iter().sum()
    }
}

/// Sample counts and tails of the cold and warm samples, as the traced run
/// reports them.
pub fn put_tails(layer: &mut Values, cold_s: &[f64], warm_s: &[f64]) {
    let (p_cold, tail_cold) = tail(cold_s);
    let (p_warm, tail_warm) = tail(warm_s);
    layer.insert("harness.samples_cold", cold_s.len() as f64);
    layer.insert("harness.samples_warm", warm_s.len() as f64);
    layer.insert("harness.tail_percentile", p_cold.min(p_warm));
    layer.insert("harness.time_to_solution_tail_s", tail_cold);
    layer.insert("harness.warm_solve_tail_s", tail_warm);
}

/// Record the median of `samples`, scaled, under `name` — nothing when
/// there are none.
fn put(layer: &mut Values, name: &'static str, samples: Vec<f64>, scale: f64) {
    if !samples.is_empty() {
        layer.insert(name, median(&samples) * scale);
    }
}

/// Matrix traversals one iteration of the driver makes.
fn matvecs_per_iteration(solver: SolverType) -> f64 {
    match solver {
        SolverType::BiCgStab => 2.0,
        _ => 1.0,
    }
}

/// The untimed warm-up visits of a case; part of set-up.
pub fn warm_up(case: &Case, seed: u64, snapshot: Option<&RecommenderSnapshot>) {
    let mut tr = Tracer::new(false, Instant::now(), 0);
    for w in 0..case.counts.warmup {
        let _ = mcmc_visit(
            case,
            case.a.clone(),
            case.rhs_at(w),
            seed,
            snapshot,
            &mut tr,
        );
    }
}

/// Everything one case accumulates while its phases run.
struct CaseRun<'a> {
    case: &'a Case,
    snapshot: Option<&'a RecommenderSnapshot>,
    traced: bool,
    seeds: SplitMix,
    /// The session the most recent verified cold visit left in hand.
    session: Option<Session>,
    first_failure: Option<String>,
    cold: PhaseCount,
    warm: PhaseCount,
    batch: PhaseCount,
    /// Seconds spent inside MCMC-path operations (cold, warm, batch).
    busy_s: f64,
    tts: Vec<f64>,
    tts_traced: Vec<f64>,
    tts_untraced: Vec<f64>,
    /// Visit numbers of the traced, verified MCMC visits.
    mcmc_visits: Vec<u32>,
    /// Iterations charged to the MCMC path: a visit's own when it
    /// verifies, the cap when it does not.
    iters_mcmc: f64,
    solve_iters: Vec<f64>,
    facts: Vec<VisitFacts>,
    classical: Classical,
    warm_s: Vec<f64>,
    warm_iters: Vec<f64>,
    batch_s: Vec<f64>,
}

/// The `i`-th of `parts` near-equal consecutive shares of `0..total`.
pub fn share(total: usize, parts: usize, i: usize) -> std::ops::Range<usize> {
    total * i / parts..total * (i + 1) / parts
}

impl CaseRun<'_> {
    fn note(&mut self, msg: String) {
        self.first_failure.get_or_insert(msg);
    }

    /// Cold visit `v`: the MCMC path, then each classical path, on the
    /// same right-hand side. Recording alternates between MCMC visits in
    /// the traced run, so its cost can be measured against its absence.
    fn cold_visit(&mut self, v: usize, tr: &mut Tracer, visit: u32) {
        let case = self.case;
        let b = case.rhs_at(v);
        tr.set_visit(visit);
        let record = self.traced && v.is_multiple_of(2);
        tr.set_enabled(record);
        let a = case.a.clone();
        let open = tr.begin("visit.mcmc");
        let t0 = Instant::now();
        let outcome = mcmc_visit(case, a, b, self.seeds.next_u64(), self.snapshot, tr);
        let dt = t0.elapsed().as_secs_f64();
        tr.end(open);
        self.busy_s += dt;
        match outcome {
            Ok((s, result, facts)) => {
                let ok = verifies(&case.a, &result.x, b, case.limit());
                self.cold.record(ok);
                let charged = if ok {
                    result.iterations
                } else {
                    case.opts.max_iter
                };
                self.iters_mcmc += charged as f64;
                if ok {
                    self.tts.push(dt);
                    if record {
                        self.tts_traced.push(dt);
                        self.mcmc_visits.push(visit);
                    } else {
                        self.tts_untraced.push(dt);
                    }
                    self.solve_iters.push(result.iterations as f64);
                    self.facts.push(facts);
                    self.session = Some(s);
                } else {
                    self.note(format!(
                        "{}: cold visit {v} did not verify (library residual {:.3e}, outcome {:?})",
                        case.name, result.rel_residual, result.outcome
                    ));
                }
            }
            Err(e) => {
                self.cold.record(false);
                self.iters_mcmc += case.opts.max_iter as f64;
                self.note(e);
            }
        }

        tr.set_enabled(self.traced);
        let with_factor = v < case.counts.cold_factor;
        let reps = case.counts.classical_reps;
        self.classical
            .visit(&case.a, case.solver, case.opts, b, with_factor, reps, tr);
    }

    /// Warm solve `w`: one right-hand side on the session in hand.
    fn warm_solve(&mut self, w: usize, tr: &mut Tracer, visit: u32) {
        let case = self.case;
        let b = case.rhs_at(case.counts.cold + w);
        let Some(s) = self.session.as_mut() else {
            self.warm.record(false);
            return;
        };
        tr.set_visit(visit);
        let open = tr.begin("visit.warm");
        let t0 = Instant::now();
        let result = s.solve(b);
        let dt = t0.elapsed().as_secs_f64();
        tr.end(open);
        self.busy_s += dt;
        let ok = verifies(&case.a, &result.x, b, case.limit());
        self.warm.record(ok);
        if ok {
            self.warm_s.push(dt);
            self.warm_iters.push(result.iterations as f64);
        } else {
            self.note(format!("{}: warm solve {w} did not verify", case.name));
        }
    }

    /// Batch `q`: eight right-hand sides in one `solve_batch` call on the
    /// session in hand.
    fn batch_solve(&mut self, q: usize, tr: &mut Tracer, visit: u32) {
        let case = self.case;
        let rhs: Vec<Vec<f64>> = (0..BATCH_K)
            .map(|c| case.rhs_at(q * BATCH_K + c).to_vec())
            .collect();
        let Some(s) = self.session.as_mut() else {
            (0..BATCH_K).for_each(|_| self.batch.record(false));
            return;
        };
        tr.set_visit(visit);
        let open = tr.begin("visit.batch");
        let t0 = Instant::now();
        let results = s.solve_batch(&rhs);
        let dt = t0.elapsed().as_secs_f64();
        tr.end(open);
        self.busy_s += dt;
        let mut all_ok = results.len() == BATCH_K;
        for (r, b) in results.iter().zip(&rhs) {
            let ok = verifies(&case.a, &r.x, b, case.limit());
            self.batch.record(ok);
            all_ok &= ok;
        }
        if all_ok {
            self.batch_s.push(dt / BATCH_K as f64);
        } else {
            self.note(format!("{}: batch {q} did not verify", case.name));
        }
    }

    fn end_to_end(&self) -> Values {
        let verified = self.cold.succeeded + self.warm.succeeded + self.batch.succeeded;
        let mut e2e = Values::new();
        e2e.insert("time_to_solution_s", trimmed_mean(&self.tts));
        e2e.insert("warm_solve_s", trimmed_mean(&self.warm_s));
        e2e.insert("batch_solve_s", trimmed_mean(&self.batch_s));
        e2e.insert("solves_per_s", verified as f64 / self.busy_s);
        e2e.insert(
            "baseline_time_to_solution_s",
            self.classical.fastest_verifying_s(),
        );
        e2e.insert(
            "iters_ratio",
            self.iters_mcmc / self.classical.unpreconditioned_iterations(),
        );
        e2e
    }

    /// Per-layer values of the traced run: span medians, the exact counts
    /// the library reported, and the harness's own bookkeeping.
    fn per_layer(&self, tr: &Tracer) -> Values {
        let mut layer = Values::new();
        put_tails(&mut layer, &self.tts, &self.warm_s);
        if !self.tts_traced.is_empty() && !self.tts_untraced.is_empty() {
            layer.insert(
                "harness.trace_overhead_share",
                median(&self.tts_traced) / median(&self.tts_untraced) - 1.0,
            );
        }
        let spans = tr.spans();
        let stages = [
            ("mcmc.build_s", "mcmc.build", 1.0),
            ("krylov.symmetrize_s", "krylov.symmetrize", 1.0),
            ("krylov.bind_us", "krylov.bind", 1e6),
            ("krylov.solve_s", "krylov.solve", 1.0),
            ("core.tune_s", "core.tune", 1.0),
        ];
        for (metric, span, scale) in stages {
            let samples = trace::durations(spans, span, Some(&self.mcmc_visits));
            put(&mut layer, metric, samples, scale);
        }
        let baselines = [
            ("krylov.none_solve_s", "krylov.none_solve"),
            ("krylov.jacobi_solve_s", "krylov.jacobi_solve"),
            ("krylov.ilu0_solve_s", "krylov.ilu0_solve"),
            ("krylov.ilu0_factor_s", "krylov.ilu0_factor"),
        ];
        for (metric, span) in baselines {
            put(&mut layer, metric, trace::durations(spans, span, None), 1.0);
        }
        let names = [
            "krylov.none_iterations",
            "krylov.jacobi_iterations",
            "krylov.ilu0_iterations",
        ];
        for (name, iters) in names.into_iter().zip(&self.classical.iterations) {
            put(&mut layer, name, iters.clone(), 1.0);
        }
        put(
            &mut layer,
            "krylov.iterations",
            self.solve_iters.clone(),
            1.0,
        );
        if let (Some(&s), Some(&i)) = (layer.get("krylov.solve_s"), layer.get("krylov.iterations"))
        {
            layer.insert("krylov.us_per_iteration", s * 1e6 / i.max(1.0));
        }
        let col = |f: fn(&VisitFacts) -> f64| self.facts.iter().map(f).collect::<Vec<_>>();
        put(&mut layer, "mcmc.precond_nnz", col(|f| f.precond_nnz), 1.0);
        if matches!(self.case.path, McmcPath::Fixed { .. }) {
            put(&mut layer, "mcmc.transitions", col(|f| f.transitions), 1.0);
            put(&mut layer, "mcmc.build_attempts", col(|f| f.attempts), 1.0);
            put(
                &mut layer,
                "mcmc.wasted_chain_share",
                col(|f| f.wasted_share),
                1.0,
            );
            if let (Some(&s), Some(&t)) = (layer.get("mcmc.build_s"), layer.get("mcmc.transitions"))
            {
                layer.insert("mcmc.ns_per_transition", s * 1e9 / t.max(1.0));
            }
        }
        let tunes: Vec<&TuneFacts> = self.facts.iter().filter_map(|f| f.tune.as_ref()).collect();
        if !tunes.is_empty() {
            let col = |f: fn(&TuneFacts) -> f64| tunes.iter().map(|t| f(t)).collect::<Vec<_>>();
            put(&mut layer, "core.tune_trials", col(|t| t.trials), 1.0);
            put(
                &mut layer,
                "core.tune_trials_converged",
                col(|t| t.trials_converged),
                1.0,
            );
            put(
                &mut layer,
                "core.certification_attempts",
                col(|t| t.certification_attempts),
                1.0,
            );
            put(
                &mut layer,
                "core.tuned_iterations",
                col(|t| t.tuned_iterations),
                1.0,
            );
        }
        if !(self.warm_s.is_empty() || self.batch_s.is_empty()) {
            layer.insert(
                "krylov.batch8_over_seq",
                median(&self.batch_s) / median(&self.warm_s),
            );
        }
        layer
    }
}

/// Run every phase of one case. The warm and batch quotas are spread over
/// the cold visits — each visit's share runs on the session that visit
/// left — so all three timings sample the whole run and not one stretch of
/// it. `traced` turns on span recording and, afterwards, the leaf
/// measurements.
pub fn run_case(
    case: &Case,
    seed: u64,
    snapshot: Option<&RecommenderSnapshot>,
    traced: bool,
    tr: &mut Tracer,
    next_visit: &mut u32,
) -> CaseOutcome {
    // On the tuned path the build streams are fixed: which candidate the
    // tuner picks flips with them, and the flip moves the session's
    // iteration count by 2x — more than a gate can carry at two visits.
    let build_seed = match case.path {
        McmcPath::Fixed { .. } => seed,
        McmcPath::Tuned { .. } => TUNED_BUILD_SEED,
    };
    let mut run = CaseRun {
        case,
        snapshot,
        traced,
        seeds: SplitMix::derive(build_seed, 0xb01d),
        session: None,
        first_failure: None,
        cold: PhaseCount::default(),
        warm: PhaseCount::default(),
        batch: PhaseCount::default(),
        busy_s: 0.0,
        tts: Vec::new(),
        tts_traced: Vec::new(),
        tts_untraced: Vec::new(),
        mcmc_visits: Vec::new(),
        iters_mcmc: 0.0,
        solve_iters: Vec::new(),
        facts: Vec::new(),
        classical: Classical::default(),
        warm_s: Vec::new(),
        warm_iters: Vec::new(),
        batch_s: Vec::new(),
    };
    let counts = case.counts;
    let mut visit = || {
        *next_visit += 1;
        *next_visit - 1
    };
    for v in 0..counts.cold {
        run.cold_visit(v, tr, visit());
        for w in share(counts.warm, counts.cold, v) {
            run.warm_solve(w, tr, visit());
        }
        for q in share(counts.batch, counts.cold, v) {
            run.batch_solve(q, tr, visit());
        }
    }

    let end_to_end = run.end_to_end();
    let mut per_layer = Values::new();
    if traced {
        per_layer = run.per_layer(tr);
        let winner = run
            .facts
            .iter()
            .filter_map(|f| f.tune.as_ref())
            .next_back()
            .map(|t| (t.params, t.policy));
        let (warm_s, warm_iters) = (median(&run.warm_s), median(&run.warm_iters));
        if let Some(s) = run.session.as_mut() {
            leaves(
                case,
                s,
                winner,
                seed,
                warm_s,
                warm_iters,
                tr,
                &mut per_layer,
            );
        }
    }
    let (sent, failed) = (
        run.cold.sent + run.warm.sent + run.batch.sent,
        run.cold.failed + run.warm.failed + run.batch.failed,
    );
    per_layer.insert("harness.failed_share", failed as f64 / sent.max(1) as f64);
    CaseOutcome {
        name: case.name,
        end_to_end,
        per_layer,
        cold: run.cold,
        warm: run.warm,
        batch: run.batch,
        first_failure: run.first_failure,
    }
}

/// Median seconds per call of `f`: one call sizes a batch of about 20 ms,
/// then five batches are timed, each recorded as a span.
pub fn measure(tr: &mut Tracer, name: &'static str, mut f: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_secs_f64();
    let reps = ((0.02 / once.max(1e-9)) as usize).clamp(1, 20_000);
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let open = tr.begin(name);
            let t0 = Instant::now();
            for _ in 0..reps {
                f();
            }
            let dt = t0.elapsed().as_secs_f64();
            tr.end(open);
            dt / reps as f64
        })
        .collect();
    median(&samples)
}

/// Median seconds of `f` over `samples` single calls; `prepare` runs
/// before each, untimed, and hands `f` its input.
fn measure_each<I, R>(
    tr: &mut Tracer,
    name: &'static str,
    samples: usize,
    mut prepare: impl FnMut() -> I,
    mut f: impl FnMut(I) -> R,
) -> f64 {
    let times: Vec<f64> = (0..samples)
        .map(|_| {
            let input = prepare();
            let open = tr.begin(name);
            let t0 = Instant::now();
            let out = f(input);
            let dt = t0.elapsed().as_secs_f64();
            tr.end(open);
            black_box(out);
            dt
        })
        .collect();
    median(&times)
}

/// The leaf measurements of the traced run: single public calls of the
/// `sparse`, `mcmc` and `krylov` layers on this case's own operator.
#[allow(clippy::too_many_arguments)]
fn leaves(
    case: &Case,
    session: &mut Session,
    winner: Option<(McmcParams, CompressionPolicy)>,
    seed: u64,
    warm_s: f64,
    warm_iters: f64,
    tr: &mut Tracer,
    layer: &mut Values,
) {
    tr.set_visit(u32::MAX);
    let a = &case.a;
    let (n, nnz) = (a.nrows(), a.nnz());
    let x: Vec<f64> = case.rhs_at(0).to_vec();
    let mut y = vec![0.0; n];
    let xb: Vec<f64> = (0..n * BATCH_K).map(|t| x[t / BATCH_K]).collect();
    let mut yb = vec![0.0; n * BATCH_K];

    // sparse
    let backend = SpecializedBackend::detect(a.clone());
    let spmv = measure(tr, "sparse.spmv", || backend.spmv(black_box(&x), &mut y));
    let generic = measure(tr, "sparse.spmv_generic", || {
        KernelBackend::spmv(a, black_box(&x), &mut y)
    });
    let spmm = measure(tr, "sparse.spmm8", || {
        backend.spmm(black_box(&xb), BATCH_K, &mut yb)
    });
    layer.insert("sparse.spmv_ns_per_nnz", spmv * 1e9 / nnz as f64);
    layer.insert("sparse.spmv_generic_ns_per_nnz", generic * 1e9 / nnz as f64);
    layer.insert(
        "sparse.spmm8_ns_per_nnz",
        spmm * 1e9 / (nnz * BATCH_K) as f64,
    );
    // Values and column indices per entry, row pointer and output per row.
    layer.insert(
        "sparse.spmv_gbs_computed",
        (16 * nnz + 16 * n) as f64 / spmv / 1e9,
    );
    let detect = measure_each(
        tr,
        "sparse.detect",
        5,
        || a.clone(),
        SpecializedBackend::detect,
    );
    layer.insert("sparse.detect_us", detect * 1e6);
    let fingerprint = measure(tr, "sparse.fingerprint", || {
        black_box(a.fingerprint());
    });
    layer.insert("sparse.fingerprint_us", fingerprint * 1e6);

    // mcmc: the parameters the cold visits built with (the tuner's winner
    // on the tuned path).
    let params = match case.path {
        McmcPath::Fixed { params, .. } => params,
        McmcPath::Tuned { .. } => winner.map_or(McmcParams::new(1.0, 0.25, 0.125), |w| w.0),
    };
    let heavy = layer.get("mcmc.build_s").is_some_and(|&s| s > 0.5);
    let walk_s = measure_each(
        tr,
        "mcmc.walkmatrix_setup",
        3,
        || (),
        |()| WalkMatrix::from_perturbed(a, params.alpha),
    );
    layer.insert("mcmc.walkmatrix_setup_s", walk_s);
    let walk = WalkMatrix::from_perturbed(a, params.alpha);
    let probe_iters = SafeguardConfig::default().probe_iters;
    let probe_s = measure_each(
        tr,
        "mcmc.spectral_probe",
        3,
        || (),
        |()| walk.abs_spectral_radius_estimate(probe_iters),
    );
    layer.insert("mcmc.spectral_probe_s", probe_s);
    drop(walk);
    let build = |engine: WalkEngine| {
        McmcInverse::new(BuildConfig {
            seed,
            engine,
            ..BuildConfig::default()
        })
        .build_safeguarded(a, params, &SafeguardConfig::default())
    };
    let samples = if heavy { 1 } else { 3 };
    let scalar_s = measure_each(
        tr,
        "mcmc.build_scalar_engine",
        samples,
        || (),
        |()| build(WalkEngine::Scalar),
    );
    layer.insert("mcmc.build_scalar_engine_s", scalar_s);
    // Compression of the preconditioner in use: the tuner's winning policy
    // on the tuned path, a reference policy on the fixed one.
    let policy = winner.map_or(CompressionPolicy::f32(1e-2), |w| w.1);
    let rebuilt;
    let uncompressed = match &*session {
        Session::Sparse(s) => Some(s.precond().matrix()),
        Session::Compressed(_) => {
            // `mcmc.build_s` on the tuned path is one build at the winner.
            let t0 = Instant::now();
            rebuilt = tr.span("mcmc.build", || build(WalkEngine::Soa));
            let build_s = t0.elapsed().as_secs_f64();
            layer.insert("mcmc.build_s", build_s);
            if let Some(&tune_s) = layer.get("core.tune_s") {
                layer.insert("core.tune_over_build", tune_s / build_s);
            }
            if let Ok(b) = &rebuilt {
                let out = &b.outcome;
                let chains = (n * out.chains_per_row).max(1) as f64;
                let wasted = (out.capped_chains + out.blown_up_chains) as f64;
                layer.insert("mcmc.transitions", out.transitions as f64);
                layer.insert("mcmc.build_attempts", b.attempts.len() as f64);
                layer.insert("mcmc.wasted_chain_share", wasted / chains);
                layer.insert(
                    "mcmc.ns_per_transition",
                    build_s * 1e9 / out.transitions.max(1) as f64,
                );
            }
            rebuilt.as_ref().ok().map(|b| b.outcome.precond.matrix())
        }
    };
    if let Some(p) = uncompressed {
        let mut kept = f64::NAN;
        let compress_s = measure_each(
            tr,
            "mcmc.compress",
            samples,
            || (),
            |()| {
                let (compressed, report) = mcmcmi::mcmc::compress(p, &policy);
                kept = report.nnz_kept;
                compressed
            },
        );
        layer.insert("mcmc.compress_s", compress_s);
        layer.insert("mcmc.nnz_kept", kept);
    }

    // krylov
    let p = session.precond();
    let apply = measure(tr, "krylov.apply", || p.apply(black_box(&x), &mut y));
    let apply_block = measure(tr, "krylov.apply_block8", || {
        p.apply_block(black_box(&xb), BATCH_K, &mut yb)
    });
    layer.insert("krylov.apply_us", apply * 1e6);
    layer.insert(
        "krylov.apply_block8_us_per_col",
        apply_block * 1e6 / BATCH_K as f64,
    );
    layer.insert(
        "krylov.matvec_share",
        warm_iters * matvecs_per_iteration(case.solver) * spmv / warm_s,
    );
    let pair: Vec<Vec<f64>> = (0..2).map(|c| case.rhs_at(c).to_vec()).collect();
    let batch2 = measure_each(
        tr,
        "krylov.batch2",
        samples.max(2),
        || (),
        |()| session.solve_batch(&pair),
    );
    layer.insert("krylov.batch2_over_seq", batch2 / (2.0 * warm_s));
    // Alternate the two so drift in machine state hits both alike.
    let (mut plain, mut resilient) = (Vec::new(), Vec::new());
    for _ in 0..samples.max(2) {
        let b = case.rhs_at(1);
        let t0 = Instant::now();
        black_box(session.solve(b));
        plain.push(t0.elapsed().as_secs_f64());
        let open = tr.begin("krylov.solve_resilient");
        let t0 = Instant::now();
        black_box(session.solve_resilient(b));
        resilient.push(t0.elapsed().as_secs_f64());
        tr.end(open);
    }
    layer.insert(
        "krylov.resilient_over_plain",
        median(&resilient) / median(&plain),
    );
}

/// Seconds of one safeguarded build of a fixed-path case at the thread
/// count of this process: the median of three, or the first alone when it
/// takes more than half a second.
pub fn time_build(case: &Case, seed: u64) -> Option<f64> {
    let McmcPath::Fixed { params, .. } = case.path else {
        return None;
    };
    let mut times = Vec::new();
    for _ in 0..3 {
        let t0 = Instant::now();
        let built = McmcInverse::new(BuildConfig {
            seed,
            ..BuildConfig::default()
        })
        .build_safeguarded(&case.a, params, &SafeguardConfig::default());
        times.push(t0.elapsed().as_secs_f64());
        black_box(built).ok()?;
        if times[0] > 0.5 {
            break;
        }
    }
    Some(median(&times))
}

/// A closed-form stand-in for the surrogate, so `bayesopt.propose_s` times
/// the proposal machinery and not the network behind it.
struct Bowl;

impl SurrogateModel for Bowl {
    fn dim(&self) -> usize {
        3
    }

    fn predict(&mut self, x: &[f64]) -> (f64, f64) {
        let p = self.predict_grad(x);
        (p.0, p.1)
    }

    fn predict_grad(&mut self, x: &[f64]) -> (f64, f64, Vec<f64>, Vec<f64>) {
        let centre = [1.0, 0.25, 0.125];
        let mu = x.iter().zip(centre).map(|(v, c)| (v - c) * (v - c)).sum();
        let dmu = x.iter().zip(centre).map(|(v, c)| 2.0 * (v - c)).collect();
        (mu, 0.1 + 0.05 * x[0], dmu, vec![0.05, 0.0, 0.0])
    }
}

/// Leaf measurements of the tuning layers (`core`, `gnn`, `bayesopt`,
/// `hpo`) on one case's operator with the trained recommender.
pub fn tuning_leaves(
    case: &Case,
    snapshot: &RecommenderSnapshot,
    seed: u64,
    tr: &mut Tracer,
    layer: &mut Values,
) {
    tr.set_visit(u32::MAX);
    let a = &case.a;
    let mut recommender = Recommender::from_snapshot(snapshot.clone());
    let recommend = measure_each(
        tr,
        "core.recommend",
        3,
        || (),
        |()| recommender.recommend(a, case.solver, 1.0, 0.05, seed),
    );
    layer.insert("core.recommend_s", recommend);
    let features = measure(tr, "core.features", || {
        black_box(matrix_features(a));
    });
    layer.insert("core.features_us", features * 1e6);
    let embed = measure(tr, "gnn.graph_embed", || {
        let graph = MatrixGraph::from_csr(a);
        black_box(recommender.surrogate_mut().embed_graph(&graph));
    });
    layer.insert("gnn.graph_embed_s", embed);
    let predict = measure(tr, "gnn.predict", || {
        black_box(recommender.predict(a, case.solver, McmcParams::new(1.0, 0.25, 0.125)));
    });
    layer.insert("gnn.predict_ms", predict * 1e3);
    let (lo, hi) = McmcParams::search_box();
    let propose = measure(tr, "bayesopt.propose", || {
        black_box(propose_best(
            &mut Bowl,
            0.5,
            &lo,
            &hi,
            16,
            ProposeConfig::default(),
        ));
    });
    layer.insert("bayesopt.propose_s", propose);
    let mut tpe = TpeSampler::new(
        AutoTuner::joint_space(),
        TpeConfig {
            n_startup: 4,
            seed,
            ..TpeConfig::default()
        },
    );
    for k in 0..12 {
        let x = tpe.suggest();
        tpe.observe(x, 1.0 + (k as f64 * 0.37).sin());
    }
    let suggest = measure(tr, "hpo.tpe_suggest", || {
        black_box(tpe.suggest());
    });
    layer.insert("hpo.tpe_suggest_us", suggest * 1e6);
}
