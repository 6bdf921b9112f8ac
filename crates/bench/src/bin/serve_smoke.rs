//! **Serve smoke** — the PR-8 `mcmcmi-serve` daemon end to end in one
//! process: build-then-cache, a same-fingerprint storm against a jammed
//! single worker (coalesced replies bit-identical to a local sequential
//! oracle, overflow shed with structured `Overloaded`), three hostile
//! bodies refused with a structured 400, a poison operator
//! answered from the negative cache on repeat, a worker panic survived by
//! pool replacement, and a clean drain.
//!
//! Writes `runs/serve/serve_smoke.json` with the closing stats snapshot.
//!
//! `--smoke`: CI mode — same assertions, no file writes. CI runs it under
//! `RAYON_NUM_THREADS=1` and `=8`; the oracle comparison inside each run
//! pins the served solutions to the deterministic sequential bits.

use mcmcmi_krylov::{SolveOptions, SolverType};
use mcmcmi_mcmc::{BuildConfig, McmcInverse, SafeguardConfig};
use mcmcmi_serve::{ServeConfig, Server, StatsSnapshot};
use mcmcmi_sparse::Csr;
use serde::{Deserialize as _, Serialize, Value};
use std::net::SocketAddr;
use std::time::Duration;

fn tridiag(n: usize, diag: f64, off: f64) -> Csr {
    let mut indptr = vec![0usize];
    let mut indices = Vec::new();
    let mut data = Vec::new();
    for i in 0..n {
        if i > 0 {
            indices.push(i - 1);
            data.push(off);
        }
        indices.push(i);
        data.push(diag);
        if i + 1 < n {
            indices.push(i + 1);
            data.push(off);
        }
        indptr.push(indices.len());
    }
    Csr::from_raw(n, n, indptr, indices, data)
}

fn rhs(n: usize, salt: f64) -> Vec<f64> {
    (0..n)
        .map(|i| (i as f64 * 0.37 + 1.7 * salt).sin() + 0.1)
        .collect()
}

fn body(matrix: Option<&Csr>, fingerprint: Option<u64>, b: &[f64], extras: &[&str]) -> String {
    let mut parts = Vec::new();
    if let Some(m) = matrix {
        parts.push(format!("\"matrix\":{}", serde_json::to_string(m).unwrap()));
    }
    if let Some(f) = fingerprint {
        parts.push(format!("\"fingerprint\":{f}"));
    }
    parts.push(format!(
        "\"b\":{}",
        serde_json::to_string(&b.to_vec()).unwrap()
    ));
    parts.extend(extras.iter().map(|e| (*e).to_string()));
    format!("{{{}}}", parts.join(","))
}

fn post(addr: SocketAddr, body: &str) -> (u16, Value) {
    let (status, text) = httpd::client::post(addr, "/solve", body).expect("request completes");
    let v = serde_json::parse_value_str(&text).expect("reply parses");
    (status, v)
}

fn kind(v: &Value) -> String {
    match v.get("error").and_then(|e| e.get("kind")) {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("no error.kind: {other:?}"),
    }
}

#[derive(Serialize)]
struct SmokeRecord {
    max_coalesced_width: u64,
    drained_clean: bool,
    stats: StatsSnapshot,
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_capacity: 3,
        test_faults: true,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.addr();
    let n = 64;
    let a = tridiag(n, 4.0, -1.0);

    // Build once, then hit the cache by fingerprint alone.
    let (status, v) = post(addr, &body(Some(&a), None, &rhs(n, 0.0), &[]));
    assert_eq!(status, 200, "first solve: {v:?}");
    assert_eq!(v.get("cached"), Some(&Value::Bool(false)));
    let fp = v.get("fingerprint").and_then(Value::as_u64).unwrap();
    assert_eq!(fp, a.fingerprint());
    let (status, v) = post(addr, &body(None, Some(fp), &rhs(n, 1.0), &[]));
    assert_eq!(status, 200);
    assert_eq!(v.get("cached"), Some(&Value::Bool(true)));

    // Hostile bodies are refused at the edge with a structured 400 — CSR
    // arrays that index out of range, an `nrows` that wraps, a value past
    // f64 — and never reach the queue.
    for hostile in [
        r#"{"matrix":{"nrows":2,"ncols":2,"indptr":[0,100,2],"indices":[0,1],"data":[1.0,1.0]},"b":[1.0,1.0]}"#,
        r#"{"matrix":{"nrows":18446744073709551615,"ncols":2,"indptr":[],"indices":[],"data":[]},"b":[1.0]}"#,
        r#"{"fingerprint":1,"b":[1e999]}"#,
    ] {
        let (status, v) = post(addr, hostile);
        assert_eq!(status, 400, "{hostile}: {v:?}");
        assert_eq!(kind(&v), "BadRequest");
    }

    // Jam the single worker, then storm six same-fingerprint clients at a
    // capacity-3 queue: survivors coalesce, overflow sheds structurally.
    let jam_matrix = tridiag(40, 5.0, -1.0);
    let jam = std::thread::spawn(move || {
        post(
            addr,
            &body(
                Some(&jam_matrix),
                None,
                &rhs(40, 2.0),
                &["\"fault\":\"sleep:300\""],
            ),
        )
    });
    std::thread::sleep(Duration::from_millis(80));
    let storm: Vec<_> = (0..6)
        .map(|i| {
            std::thread::spawn(move || {
                let salt = 10.0 + i as f64;
                (salt, post(addr, &body(None, Some(fp), &rhs(n, salt), &[])))
            })
        })
        .collect();
    let replies: Vec<_> = storm.into_iter().map(|t| t.join().unwrap()).collect();
    assert_eq!(jam.join().unwrap().0, 200);

    // Local sequential oracle: same deterministic safeguarded build, same
    // solver defaults. Lockstep coalescing must reproduce these bits.
    let defaults = ServeConfig::default();
    let mut oracle = McmcInverse::new(BuildConfig::default())
        .build_safeguarded(&a, defaults.params, &SafeguardConfig::default())
        .expect("oracle build")
        .into_session(&a, SolverType::BiCgStab, SolveOptions::default());
    let mut ok = 0u64;
    let mut shed = 0u64;
    let mut max_width = 0u64;
    for (salt, (status, v)) in &replies {
        match status {
            200 => {
                let x = Vec::<f64>::from_value(v.get("x").unwrap()).unwrap();
                assert_eq!(
                    x,
                    oracle.solve(&rhs(n, *salt)).x,
                    "served bits ≠ sequential oracle"
                );
                max_width =
                    max_width.max(v.get("coalesced_width").and_then(Value::as_u64).unwrap());
                ok += 1;
            }
            503 => {
                assert_eq!(kind(v), "Overloaded");
                assert!(v
                    .get("error")
                    .and_then(|e| e.get("retry_after_hint_ms"))
                    .and_then(Value::as_u64)
                    .is_some());
                shed += 1;
            }
            other => panic!("unexpected status {other}: {v:?}"),
        }
    }
    assert_eq!(ok + shed, 6, "every storm request answered exactly once");
    assert!(
        ok >= 1 && shed >= 1,
        "expected both outcomes, got ok={ok} shed={shed}"
    );

    // Poison operator: structured Build error, and the repeat is a
    // negative-cache replay — no second backoff ladder burned.
    let p = tridiag(32, 1e-3, 1.0);
    for salt in [0.0, 1.0] {
        let (status, v) = post(addr, &body(Some(&p), None, &rhs(32, salt), &[]));
        assert_eq!(status, 422);
        assert_eq!(kind(&v), "Build");
    }

    // Worker panic: structured reply, replacement worker serves on.
    let (status, v) = post(
        addr,
        &body(None, Some(fp), &rhs(n, 3.0), &["\"fault\":\"panic\""]),
    );
    assert_eq!(status, 500);
    assert_eq!(kind(&v), "WorkerPanic");
    let (status, _) = post(addr, &body(None, Some(fp), &rhs(n, 4.0), &[]));
    assert_eq!(status, 200, "replacement worker must serve");

    // Drain: new work shed as Draining, join completes inside the deadline.
    let (status, _) = httpd::client::post(addr, "/shutdown", "").unwrap();
    assert_eq!(status, 202);
    let (status, v) = post(addr, &body(None, Some(fp), &rhs(n, 5.0), &[]));
    assert_eq!(status, 503);
    assert_eq!(kind(&v), "Draining");

    let (status, text) = httpd::client::get(addr, "/stats").unwrap();
    assert_eq!(status, 200);
    let stats: StatsSnapshot = serde_json::from_str(&text).unwrap();
    assert_eq!(stats.builds, 3, "operator, jam operator, poison ladder");
    assert_eq!(stats.build_failures, 1);
    assert!(
        stats.negative_hits >= 1,
        "poison repeat came from the negative cache"
    );
    assert_eq!(stats.worker_panics, 1);
    assert_eq!(stats.worker_replacements, 1);
    assert!(stats.shed_overload >= 1);
    assert!(stats.shed_draining >= 1);

    let outcome = server.join().expect("join succeeds");
    assert!(
        outcome.drained_clean,
        "idle drain must finish inside the deadline"
    );

    if smoke {
        println!(
            "serve smoke OK: ok={ok} shed={shed} max_width={max_width} \
             builds={} negative_hits={} panics survived={}",
            stats.builds, stats.negative_hits, stats.worker_panics
        );
    } else {
        let rd = mcmcmi_bench::RunDir::new("serve").expect("runs dir");
        let record = SmokeRecord {
            max_coalesced_width: max_width,
            drained_clean: outcome.drained_clean,
            stats,
        };
        mcmcmi_bench::write_json(&rd.path("serve_smoke.json"), &record).expect("write json");
        println!("wrote runs/serve/serve_smoke.json (max_width={max_width})");
    }
}
