//! The served request path around the numerics, layer by layer: the quick
//! in-workspace check of what the ledger's `serve_mixed` workload reports
//! as `serve.parse_ms`, `serve.serialise_ms` and `serve.http_floor_ms`,
//! plus the session hand-out a cold request pays for.
//!
//! - `parse/<family>`: `SolveRequest::parse` of one matrix-carrying body
//!   per family the ledger serves (60–780 kB of JSON);
//! - `to_json/n961`: `SolveReply::to_json` of a `laplace_2d_h32` reply;
//! - `take_session/{warm,empty}`: `OperatorEntry::take_session` when the
//!   pool holds a session for the key and when it has to bind a fresh one;
//! - `healthz/loopback`: connect → `GET /healthz` → close against a running
//!   daemon, the floor under every served latency.

use criterion::{criterion_group, criterion_main, Criterion};
use mcmcmi_krylov::{SolveOptions, SolverType};
use mcmcmi_matgen::{fd_laplace_2d, pdd_real_sparse, PaperMatrix};
use mcmcmi_mcmc::{BuildConfig, McmcInverse, McmcParams, SafeguardConfig};
use mcmcmi_serve::{GroupKey, OperatorEntry, ServeConfig, Server, SolveReply, SolveRequest};
use mcmcmi_sparse::Csr;
use std::hint::black_box;

fn rhs(n: usize) -> Vec<f64> {
    (0..n).map(|i| (0.7 * i as f64).sin() + 0.3).collect()
}

/// A `/solve` body the way the ledger's clients assemble it.
fn cold_body(a: &Csr) -> String {
    format!(
        "{{\"matrix\":{},\"b\":{},\"solver\":\"gmres\",\"tol\":1e-8,\"max_iter\":2000,\
         \"restart\":50,\"params\":{{\"alpha\":1,\"eps\":0.25,\"delta\":0.25}}}}",
        serde_json::to_string(a).expect("matrix serialises"),
        serde_json::to_string(&rhs(a.nrows())).expect("rhs serialises"),
    )
}

fn bench_serve_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_path");
    let laplace = fd_laplace_2d(32);
    let families = [
        ("a_00512", PaperMatrix::A00512.generate()),
        ("laplace_2d_h32", laplace.clone()),
        ("pdd_n256", pdd_real_sparse(256, 20250928)),
        (
            "unsteady_adv_diff_order1",
            PaperMatrix::UnsteadyAdvDiffOrder1.generate(),
        ),
    ];
    for (name, a) in &families {
        let body = cold_body(a);
        assert!(SolveRequest::parse(&body).is_ok(), "{name} body parses");
        group.bench_function(format!("parse/{name}"), |b| {
            b.iter(|| SolveRequest::parse(black_box(&body)));
        });
    }

    let n = laplace.nrows();
    let build = McmcInverse::new(BuildConfig::default())
        .build_safeguarded(
            &laplace,
            McmcParams::new(1.0, 0.25, 0.25),
            &SafeguardConfig::default(),
        )
        .expect("the Laplacian builds");
    let entry = OperatorEntry::new(
        laplace.clone(),
        build.outcome.precond,
        build.params,
        build.attempts,
        build.rho_estimate,
    );
    let opts = SolveOptions::default();
    let key = GroupKey {
        fingerprint: laplace.fingerprint(),
        solver: SolverType::Gmres,
        tol_bits: opts.tol.to_bits(),
        max_iter: opts.max_iter,
        restart: opts.restart,
    };
    let (mut session, _) = entry.take_session(&key, opts);
    let solved = session.solve(&rhs(n));
    let reply = SolveReply {
        x: solved.x,
        iterations: solved.iterations,
        rel_residual: solved.rel_residual,
        converged: solved.converged,
        fingerprint: key.fingerprint,
        cached: true,
        build_attempts: 1,
        coalesced_width: 1,
        trail: Default::default(),
    };
    group.bench_function(format!("to_json/n{n}"), |b| {
        b.iter(|| black_box(&reply).to_json());
    });

    group.bench_function("take_session/empty", |b| {
        b.iter(|| entry.take_session(black_box(&key), opts));
    });
    entry.put_session(key, session);
    group.bench_function("take_session/warm", |b| {
        b.iter(|| {
            let (session, _) = entry.take_session(black_box(&key), opts);
            entry.put_session(key, session);
        });
    });

    let server = Server::start(ServeConfig::default()).expect("daemon starts on loopback");
    let addr = server.addr();
    group.bench_function("healthz/loopback", |b| {
        b.iter(|| httpd::client::get(addr, "/healthz").expect("healthz answers"));
    });
    server.join().expect("daemon drains");
    group.finish();
}

criterion_group!(benches, bench_serve_path);
criterion_main!(benches);
