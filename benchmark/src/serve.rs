//! `serve_mixed`: the daemon in process, driven over loopback HTTP by
//! closed-loop clients. Each client round sends one request that carries
//! its matrix (a build on the server) and nine that carry only the
//! fingerprint (cache hits) with fresh right-hand sides; bursts of eight
//! concurrent fingerprint-only requests follow, the only traffic here that
//! the server can coalesce.

use crate::inputs::{perturb_diagonal, rhs_pool, SplitMix};
use crate::library::{
    measure, put_tails, share, Classical, Measured, PhaseCount, BATCH_K, RHS_POOL,
};
use crate::metrics::Values;
use crate::report::obj;
use crate::stats::{median, trimmed_mean};
use crate::trace::{Span, Tracer};
use crate::verify::verifies;
use crate::workloads::{opts, RUN_SECONDS};
use mcmcmi::krylov::{
    RecoveryContext, RecoveryPolicy, SolveOptions, SolveSession, SolverType, CONVERGENCE_SLACK,
};
use mcmcmi::matgen::{fd_laplace_2d, pdd_real_sparse, PaperMatrix};
use mcmcmi::mcmc::{BuildConfig, McmcInverse, McmcParams, SafeguardConfig};
use mcmcmi::serve::{ServeConfig, Server, SolveReply, SolveRequest, StatsSnapshot};
use mcmcmi::sparse::{detect_structure, Csr};
use serde::{Deserialize as _, Value};
use std::net::SocketAddr;
use std::ops::Range;
use std::time::Instant;

const CLIENTS: usize = 2;
const HOT_PER_ROUND: usize = 9;
/// Cold requests per client, evenly spaced over its rounds, whose matrices
/// are kept for the in-process reference solves.
const REFERENCE_PER_CLIENT: usize = 40;
/// A run is cut into this many slices: a stretch of closed loop, then its
/// share of the bursts and the reference solves of the requests it kept.
/// This box's speed moves by tens of per cent within seconds; a phase run
/// in one stretch of a third of a second reads whatever speed it met (the
/// reference solves spread by 0.20 over ten seeds that way), one spread
/// over the run reads what every other phase reads.
const SLICES: usize = 16;
/// Visits of the fastest classical path per reference solve: these are
/// half-millisecond operations, the shortest anything here times.
const REFERENCE_REPS: usize = 10;

/// Work per run. Frozen after sizing.
#[derive(Clone, Copy, Debug)]
pub struct ServeCounts {
    /// Rounds per client.
    pub rounds: usize,
    /// Bursts of eight concurrent fingerprint-only requests.
    pub bursts: usize,
}

impl ServeCounts {
    pub fn frozen(seconds: f64, smoke: bool) -> Self {
        let (rounds, bursts) = if smoke { (6, 3) } else { (400, 100) };
        let s = |c: usize| ((c as f64 * seconds / RUN_SECONDS as f64).round() as usize).max(1);
        Self {
            rounds: s(rounds),
            bursts: s(bursts),
        }
    }
}

fn params() -> McmcParams {
    McmcParams::new(1.0, 0.25, 0.25)
}

fn solve_opts() -> SolveOptions {
    opts(50)
}

const SOLVER: SolverType = SolverType::Gmres;

pub struct Operator {
    pub name: &'static str,
    pub a: Csr,
    pub rhs: Vec<Vec<f64>>,
}

/// The served operator families and the running daemon.
pub struct ServeSetup {
    pub operators: Vec<Operator>,
    pub server: Server,
    pub generate_s: f64,
}

/// Generate the operator families, start the daemon on an ephemeral
/// loopback port and send it one untimed request per family.
pub fn setup(seed: u64) -> ServeSetup {
    let t0 = Instant::now();
    let families: Vec<(&'static str, Csr)> = vec![
        ("a_00512", PaperMatrix::A00512.generate()),
        ("laplace_2d_h32", fd_laplace_2d(32)),
        ("pdd_n256", pdd_real_sparse(256, seed)),
        (
            "unsteady_adv_diff_order1",
            PaperMatrix::UnsteadyAdvDiffOrder1.generate(),
        ),
    ];
    let generate_s = t0.elapsed().as_secs_f64();
    let operators: Vec<Operator> = families
        .into_iter()
        .enumerate()
        .map(|(k, (name, a))| {
            let rhs = rhs_pool(&a, RHS_POOL, &mut SplitMix::derive(seed, 0x5e7e + k as u64));
            Operator { name, a, rhs }
        })
        .collect();
    let server = Server::start(ServeConfig {
        workers: 2,
        queue_capacity: 64,
        // Small enough that LRU eviction runs steadily under the cold
        // traffic of one run.
        cache_bytes: 64 * 1024 * 1024,
        ..ServeConfig::default()
    })
    .expect("daemon starts on an ephemeral loopback port");
    let addr = server.addr();
    for op in &operators {
        let _ = httpd::client::post(addr, "/solve", &request_body(Some(&op.a), None, &op.rhs[0]));
    }
    ServeSetup {
        operators,
        server,
        generate_s,
    }
}

/// A `/solve` body: the matrix or only its fingerprint, the right-hand
/// side, and the workload's solver settings and build parameters.
fn request_body(matrix: Option<&Csr>, fingerprint: Option<u64>, b: &[f64]) -> String {
    let mut parts = Vec::new();
    if let Some(m) = matrix {
        parts.push(format!(
            "\"matrix\":{}",
            serde_json::to_string(m).expect("matrix serialises")
        ));
    }
    if let Some(f) = fingerprint {
        parts.push(format!("\"fingerprint\":{f}"));
    }
    parts.push(format!(
        "\"b\":{}",
        serde_json::to_string(&b.to_vec()).expect("rhs serialises")
    ));
    let (p, o) = (params(), solve_opts());
    parts.push(format!(
        "\"solver\":\"gmres\",\"tol\":{:e},\"max_iter\":{},\"restart\":{}",
        o.tol, o.max_iter, o.restart
    ));
    parts.push(format!(
        "\"params\":{{\"alpha\":{},\"eps\":{},\"delta\":{}}}",
        p.alpha, p.eps, p.delta
    ));
    format!("{{{}}}", parts.join(","))
}

/// What the client learns from one reply.
struct Reply {
    x: Vec<f64>,
    iterations: usize,
    bytes: usize,
}

/// Send one request and time it from first byte out to last byte in;
/// parsing the reply is the client's own work and outside the clock.
fn timed_post(addr: SocketAddr, body: &str) -> (f64, Result<Reply, String>) {
    let t0 = Instant::now();
    let response = httpd::client::post(addr, "/solve", body);
    let dt = t0.elapsed().as_secs_f64();
    let reply = match response {
        Err(e) => Err(format!("transport: {e}")),
        Ok((200, text)) => parse_reply(&text),
        Ok((status, text)) => Err(format!("status {status}: {text}")),
    };
    (dt, reply)
}

fn parse_reply(text: &str) -> Result<Reply, String> {
    let v = serde_json::parse_value_str(text).map_err(|e| format!("reply is not JSON: {e}"))?;
    let x = v
        .get("x")
        .ok_or("reply has no `x`")
        .and_then(|x| Vec::<f64>::from_value(x).map_err(|_| "`x` is not a number array"))?;
    let iterations = v.get("iterations").and_then(Value::as_u64).unwrap_or(0) as usize;
    Ok(Reply {
        x,
        iterations,
        bytes: text.len(),
    })
}

/// One cold request kept for the in-process reference solves.
struct Reference {
    family: usize,
    a: Csr,
    rhs: usize,
    served_iterations: usize,
}

/// What one client has seen so far.
#[derive(Default)]
struct ClientLog {
    cold: PhaseCount,
    hot: PhaseCount,
    /// Verified latencies by operator family.
    cold_s: Vec<Vec<f64>>,
    hot_s: Vec<Vec<f64>>,
    cold_body_bytes: Vec<f64>,
    reply_bytes: Vec<f64>,
    /// Kept requests the harness has not solved in process yet.
    references: Vec<Reference>,
    first_failure: Option<String>,
}

/// One closed-loop client: its schedule, its spans and its log live across
/// the slices of a run.
struct Client {
    id: usize,
    rng: SplitMix,
    tr: Tracer,
    log: ClientLog,
}

impl Client {
    fn new(id: usize, families: usize, seed: u64, traced: bool, origin: Instant) -> Self {
        Self {
            id,
            rng: SplitMix::derive(seed, 0xc11e + id as u64),
            tr: Tracer::new(traced, origin, (id as u32 + 1) << 24),
            log: ClientLog {
                cold_s: vec![Vec::new(); families],
                hot_s: vec![Vec::new(); families],
                ..ClientLog::default()
            },
        }
    }

    /// Rounds `rounds` of the `total` this client runs: each one request
    /// that carries its matrix, then nine that carry its fingerprint.
    fn run(
        &mut self,
        addr: SocketAddr,
        operators: &[Operator],
        rounds: Range<usize>,
        total: usize,
    ) {
        let Self { id, rng, tr, log } = self;
        let families = operators.len();
        let keep_every = (total / REFERENCE_PER_CLIENT).max(1);
        let fail = |log: &mut ClientLog, msg: String| {
            log.first_failure.get_or_insert(msg);
        };
        for round in rounds {
            tr.set_visit((*id * total + round) as u32);
            let family = (rng.next_u64() % families as u64) as usize;
            let op = &operators[family];
            let a = perturb_diagonal(&op.a, rng);
            let fingerprint = a.fingerprint();
            let rhs = (rng.next_u64() % RHS_POOL as u64) as usize;
            let body = request_body(Some(&a), None, &op.rhs[rhs]);
            let open = tr.begin("serve.cold_request");
            let (dt, reply) = timed_post(addr, &body);
            tr.end(open);
            let mut served_iterations = solve_opts().max_iter;
            match reply {
                Ok(r) if verifies(&a, &r.x, &op.rhs[rhs], limit()) => {
                    log.cold.record(true);
                    log.cold_s[family].push(dt);
                    log.cold_body_bytes.push(body.len() as f64);
                    served_iterations = r.iterations;
                }
                Ok(_) => {
                    log.cold.record(false);
                    fail(log, format!("{}: cold reply did not verify", op.name));
                }
                Err(e) => {
                    log.cold.record(false);
                    fail(log, format!("{}: cold request failed: {e}", op.name));
                }
            }
            for _ in 0..HOT_PER_ROUND {
                let b = &op.rhs[(rng.next_u64() % RHS_POOL as u64) as usize];
                let body = request_body(None, Some(fingerprint), b);
                let open = tr.begin("serve.hot_request");
                let (dt, reply) = timed_post(addr, &body);
                tr.end(open);
                match reply {
                    Ok(r) if verifies(&a, &r.x, b, limit()) => {
                        log.hot.record(true);
                        log.hot_s[family].push(dt);
                        log.reply_bytes.push(r.bytes as f64);
                    }
                    Ok(_) => {
                        log.hot.record(false);
                        fail(log, format!("{}: hot reply did not verify", op.name));
                    }
                    Err(e) => {
                        log.hot.record(false);
                        fail(log, format!("{}: hot request failed: {e}", op.name));
                    }
                }
            }
            if round % keep_every == 0 && round / keep_every < REFERENCE_PER_CLIENT {
                log.references.push(Reference {
                    family,
                    a,
                    rhs,
                    served_iterations,
                });
            }
        }
    }
}

fn limit() -> f64 {
    solve_opts().tol * CONVERGENCE_SLACK
}

/// What the bursts have produced so far.
struct Bursts {
    rng: SplitMix,
    tr: Tracer,
    count: PhaseCount,
    /// Verified per-request shares of each burst's wall time.
    per_request_s: Vec<f64>,
    first_failure: Option<String>,
}

/// Bursts `which` of eight concurrent fingerprint-only requests, each
/// against one freshly cached operator.
fn bursts(addr: SocketAddr, operators: &[Operator], which: Range<usize>, state: &mut Bursts) {
    let Bursts {
        rng,
        tr,
        count: batch,
        per_request_s,
        first_failure,
    } = state;
    for q in which {
        let op = &operators[q % operators.len()];
        let a = perturb_diagonal(&op.a, rng);
        let fingerprint = a.fingerprint();
        let (_, primed) = timed_post(addr, &request_body(Some(&a), None, &op.rhs[0]));
        if let Err(e) = primed {
            (0..BATCH_K).for_each(|_| batch.record(false));
            first_failure.get_or_insert(format!("{}: burst priming failed: {e}", op.name));
            continue;
        }
        let bodies: Vec<String> = (0..BATCH_K)
            .map(|c| request_body(None, Some(fingerprint), &op.rhs[(q + c) % RHS_POOL]))
            .collect();
        tr.set_visit(q as u32);
        let open = tr.begin("serve.burst");
        let t0 = Instant::now();
        let replies: Vec<Result<Reply, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = bodies
                .iter()
                .map(|body| scope.spawn(move || timed_post(addr, body).1))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("burst client does not panic"))
                .collect()
        });
        let dt = t0.elapsed().as_secs_f64();
        tr.end(open);
        let mut all_ok = true;
        for (c, reply) in replies.into_iter().enumerate() {
            let ok = reply.is_ok_and(|r| verifies(&a, &r.x, &op.rhs[(q + c) % RHS_POOL], limit()));
            batch.record(ok);
            all_ok &= ok;
        }
        if all_ok {
            per_request_s.push(dt / BATCH_K as f64);
        } else {
            first_failure.get_or_insert(format!("{}: burst {q} did not verify", op.name));
        }
    }
}

/// Run the timed phases against a set-up daemon, then drain it.
pub fn run(setup: ServeSetup, counts: ServeCounts, seed: u64, traced: bool) -> Measured {
    let ServeSetup {
        operators, server, ..
    } = setup;
    let addr = server.addr();
    let origin = Instant::now();
    let families = operators.len();

    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|id| Client::new(id, families, seed, traced, origin))
        .collect();
    let mut burst = Bursts {
        rng: SplitMix::derive(seed, 0xb0057),
        tr: Tracer::new(traced, origin, 0),
        count: PhaseCount::default(),
        per_request_s: Vec::new(),
        first_failure: None,
    };
    let mut classical: Vec<Classical> = (0..families).map(|_| Classical::default()).collect();
    let mut served_iters = vec![0.0; families];
    let mut off = Tracer::new(false, origin, 0);
    let mut closed_loop_s = 0.0;
    for slice in 0..SLICES {
        let t0 = Instant::now();
        std::thread::scope(|scope| {
            for client in &mut clients {
                let rounds = share(counts.rounds, SLICES, slice);
                let operators = &operators;
                scope.spawn(move || client.run(addr, operators, rounds, counts.rounds));
            }
        });
        closed_loop_s += t0.elapsed().as_secs_f64();

        bursts(
            addr,
            &operators,
            share(counts.bursts, SLICES, slice),
            &mut burst,
        );

        // In-process reference work on the requests this slice kept.
        for r in clients.iter_mut().flat_map(|c| c.log.references.drain(..)) {
            let b = &operators[r.family].rhs[r.rhs];
            classical[r.family].visit(
                &r.a,
                SOLVER,
                solve_opts(),
                b,
                true,
                REFERENCE_REPS,
                &mut off,
            );
            served_iters[r.family] += r.served_iterations as f64;
        }
    }

    let (logs, client_spans): (Vec<ClientLog>, Vec<Vec<Span>>) = clients
        .into_iter()
        .map(|c| (c.log, c.tr.into_spans()))
        .unzip();
    let Bursts {
        mut tr,
        count: batch,
        per_request_s: burst_s,
        first_failure,
        ..
    } = burst;
    let mut first_failure = logs
        .iter()
        .find_map(|l| l.first_failure.clone())
        .or(first_failure);
    let (mut cold, mut warm) = (PhaseCount::default(), PhaseCount::default());
    for log in &logs {
        cold.add(log.cold);
        warm.add(log.hot);
    }

    // Verified latencies per family, both clients together.
    let merged = |f: fn(&ClientLog) -> &Vec<Vec<f64>>, k: usize| -> Vec<f64> {
        logs.iter().flat_map(|l| f(l)[k].iter().copied()).collect()
    };
    let cold_s: Vec<Vec<f64>> = (0..families).map(|k| merged(|l| &l.cold_s, k)).collect();
    let hot_s: Vec<Vec<f64>> = (0..families).map(|k| merged(|l| &l.hot_s, k)).collect();

    let mut overall_layer = Values::new();
    let mut layers = vec![Values::new(); families];
    if traced {
        let floor = measure(&mut tr, "serve.healthz", || {
            let _ = httpd::client::get(addr, "/healthz");
        });
        overall_layer.insert("serve.http_floor_ms", floor * 1e3);
        let all = |f: fn(&ClientLog) -> &Vec<f64>| -> Vec<f64> {
            logs.iter().flat_map(|l| f(l).iter().copied()).collect()
        };
        overall_layer.insert(
            "serve.cold_body_bytes",
            median(&all(|l| &l.cold_body_bytes)),
        );
        overall_layer.insert("serve.reply_bytes", median(&all(|l| &l.reply_bytes)));
        for (k, op) in operators.iter().enumerate() {
            put_tails(&mut layers[k], &cold_s[k], &hot_s[k]);
            let (cold, hot) = (median(&cold_s[k]), median(&hot_s[k]));
            in_process(op, &mut tr, cold, hot, &mut layers[k]);
        }
    }

    // The server's own counters, then the drain.
    if let Ok((200, text)) = httpd::client::get(addr, "/stats") {
        if let Ok(stats) = serde_json::from_str::<StatsSnapshot>(&text) {
            let submitted = stats.submitted.max(1) as f64;
            overall_layer.insert("serve.cache_hit_share", stats.cache_hits as f64 / submitted);
            overall_layer.insert("serve.builds", stats.builds as f64);
            overall_layer.insert("serve.evictions", stats.drift_evictions as f64);
            overall_layer.insert("serve.coalesced_requests", stats.coalesced_requests as f64);
            overall_layer.insert(
                "serve.shed",
                (stats.shed_overload + stats.shed_draining) as f64,
            );
        }
    }
    let t0 = Instant::now();
    let drained = server.join();
    overall_layer.insert("serve.drain_s", t0.elapsed().as_secs_f64());
    if !drained.is_ok_and(|d| d.drained_clean) {
        first_failure.get_or_insert("daemon did not drain cleanly".to_string());
    }

    let sent = cold.sent + warm.sent + batch.sent;
    let failed = cold.failed + warm.failed + batch.failed;
    overall_layer.insert("harness.failed_share", failed as f64 / sent.max(1) as f64);

    // Bursts and throughput belong to the workload, not to a family; every
    // family carries the same value so the geometric mean returns it.
    let batch_solve_s = trimmed_mean(&burst_s);
    let solves_per_s = (cold.succeeded + warm.succeeded) as f64 / closed_loop_s;
    let cases = operators
        .iter()
        .zip(layers)
        .enumerate()
        .map(|(k, (op, layer))| {
            let mut e2e = Values::new();
            e2e.insert("time_to_solution_s", trimmed_mean(&cold_s[k]));
            e2e.insert("warm_solve_s", trimmed_mean(&hot_s[k]));
            e2e.insert("batch_solve_s", batch_solve_s);
            e2e.insert("solves_per_s", solves_per_s);
            e2e.insert(
                "baseline_time_to_solution_s",
                classical[k].fastest_verifying_s(),
            );
            e2e.insert(
                "iters_ratio",
                served_iters[k] / classical[k].unpreconditioned_iterations(),
            );
            (op.name, e2e, layer)
        })
        .collect();

    let mut spans: Vec<Span> = client_spans.into_iter().flatten().collect();
    spans.extend(tr.into_spans());
    Measured {
        cases,
        overall_layer,
        cold,
        warm,
        batch,
        first_failure,
        spans,
        counts: obj(vec![
            ("rounds_per_client", Value::UInt(counts.rounds as u64)),
            ("bursts", Value::UInt(counts.bursts as u64)),
        ]),
    }
}

/// Leaf measurements for one served family: the same build and solve in
/// process (what a served latency would be without the service), request
/// parsing and reply serialisation.
fn in_process(op: &Operator, tr: &mut Tracer, cold_s: f64, hot_s: f64, layer: &mut Values) {
    let (a, b) = (&op.a, &op.rhs[1]);
    let body = request_body(Some(a), None, b);
    let parse = measure(tr, "serve.parse", || {
        let _ = std::hint::black_box(SolveRequest::parse(&body));
    });
    layer.insert("serve.parse_ms", parse * 1e3);

    let cold_visit = || {
        let built = McmcInverse::new(BuildConfig::default())
            .build_safeguarded(a, params(), &SafeguardConfig::default())
            .ok()?;
        let mut session = built.into_session(a, SOLVER, solve_opts());
        let policy = RecoveryPolicy::default();
        let r = session.solve_resilient(b, &policy, RecoveryContext::none());
        Some((session, r.result))
    };
    let mut kept = None;
    let cold_local = measure(tr, "serve.local_cold", || kept = cold_visit());
    let Some((mut session, result)) = kept else {
        return;
    };
    let build = measure(tr, "mcmc.build", || {
        let _ = std::hint::black_box(McmcInverse::new(BuildConfig::default()).build_safeguarded(
            a,
            params(),
            &SafeguardConfig::default(),
        ));
    });
    let policy = RecoveryPolicy::default();
    let hot_local = measure(tr, "krylov.solve", || {
        let _ = std::hint::black_box(session.solve_resilient(b, &policy, RecoveryContext::none()));
    });
    let plain = measure(tr, "krylov.solve_plain", || {
        let _ = std::hint::black_box(session.solve(b));
    });
    let bind = measure(tr, "krylov.bind", || {
        let p = session.precond().clone();
        let _ = std::hint::black_box(SolveSession::new(a.clone(), p, SOLVER, solve_opts()));
    });
    let detect = measure(tr, "sparse.detect", || {
        let _ = std::hint::black_box(detect_structure(a));
    });
    let fingerprint = measure(tr, "sparse.fingerprint", || {
        std::hint::black_box(a.fingerprint());
    });
    layer.insert("sparse.detect_us", detect * 1e6);
    layer.insert("sparse.fingerprint_us", fingerprint * 1e6);
    layer.insert("krylov.bind_us", bind * 1e6);
    layer.insert("krylov.resilient_over_plain", hot_local / plain);
    layer.insert("mcmc.build_s", build);
    layer.insert("krylov.solve_s", hot_local);
    layer.insert("krylov.iterations", result.iterations as f64);
    layer.insert("serve.cold_overhead_ms", (cold_s - cold_local) * 1e3);
    layer.insert("serve.hot_overhead_ms", (hot_s - hot_local) * 1e3);

    let reply = SolveReply {
        x: result.x,
        iterations: result.iterations,
        rel_residual: result.rel_residual,
        converged: result.converged,
        fingerprint: a.fingerprint(),
        cached: true,
        build_attempts: 1,
        coalesced_width: 1,
        trail: Default::default(),
    };
    let serialise = measure(tr, "serve.serialise", || {
        std::hint::black_box(reply.to_json());
    });
    layer.insert("serve.serialise_ms", serialise * 1e3);
}
