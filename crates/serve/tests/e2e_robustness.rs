//! The end-to-end robustness demo: client storm against a tiny queue with
//! a poison operator and a mid-storm drain — structured errors throughout,
//! exactly one response per request, coalesced results bit-identical to
//! local sequential solves, worker panic survived, repeat fingerprints
//! served from cache without rebuilds.

mod common;

use common::*;
use mcmcmi_krylov::{SolveOptions, SolverType};
use mcmcmi_mcmc::{BuildConfig, McmcInverse, SafeguardConfig};
use mcmcmi_serve::{ServeConfig, Server};
use std::time::Duration;

#[test]
fn cache_hits_skip_builds_and_coalesced_solves_match_sequential_bits() {
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_capacity: 32,
        test_faults: true,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let a = spd_tridiag(64, 0.0);
    let n = 64;

    // First contact builds; the reply says so.
    let (status, v) = post_solve(addr, &solve_body(Some(&a), None, &rhs(n, 0.0), &[]));
    assert_eq!(status, 200);
    assert_eq!(v.get("cached"), Some(&serde::Value::Bool(false)));
    let fp = reply_u64(&v, "fingerprint");
    assert_eq!(fp, a.fingerprint(), "server and client agree on identity");
    assert_eq!(stats(addr).builds, 1);

    // Repeat fingerprint: served from cache, no rebuild — by both the
    // reply flag and the build counter.
    let (status, v) = post_solve(addr, &solve_body(None, Some(fp), &rhs(n, 1.0), &[]));
    assert_eq!(status, 200);
    assert_eq!(v.get("cached"), Some(&serde::Value::Bool(true)));
    assert_eq!(stats(addr).builds, 1);

    // Occupy the single worker, then fire four same-operator requests that
    // pile up in the queue and dequeue as one lockstep group.
    let b_block = spd_tridiag(48, 3.0);
    let blocker = {
        std::thread::spawn(move || {
            post_solve(
                addr,
                &solve_body(
                    Some(&b_block),
                    None,
                    &rhs(48, 9.0),
                    &["\"fault\":\"sleep:400\""],
                ),
            )
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    let storm: Vec<_> = (0..4)
        .map(|i| {
            std::thread::spawn(move || {
                post_solve(
                    addr,
                    &solve_body(None, Some(fp), &rhs(n, 10.0 + i as f64), &[]),
                )
            })
        })
        .collect();
    let replies: Vec<_> = storm.into_iter().map(|t| t.join().unwrap()).collect();
    assert_eq!(blocker.join().unwrap().0, 200);

    // Oracle: the same build (deterministic, seeded) solved sequentially
    // through one local session. The PR-3 parity contract promises the
    // server's lockstep batch is bit-identical, and the JSON layer
    // round-trips floats exactly, so equality is on raw bits.
    let defaults = ServeConfig::default();
    let build = McmcInverse::new(BuildConfig::default())
        .build_safeguarded(&a, defaults.params, &SafeguardConfig::default())
        .expect("oracle build succeeds");
    let mut oracle = build.into_session(&a, SolverType::BiCgStab, SolveOptions::default());
    let mut widths = Vec::new();
    for (i, (status, v)) in replies.iter().enumerate() {
        assert_eq!(*status, 200, "storm member {i} failed: {v:?}");
        assert!(reply_ok(v));
        assert_eq!(v.get("cached"), Some(&serde::Value::Bool(true)));
        let expect = oracle.solve(&rhs(n, 10.0 + i as f64));
        assert_eq!(
            reply_x(v),
            expect.x,
            "coalesced solve {i} must be bit-identical to the sequential oracle"
        );
        assert_eq!(reply_u64(v, "iterations") as usize, expect.iterations);
        widths.push(reply_u64(v, "coalesced_width"));
    }
    assert!(
        widths.iter().any(|&w| w >= 2),
        "storm should have coalesced, got widths {widths:?}"
    );
    let s = stats(addr);
    assert_eq!(s.builds, 2, "still only one build per distinct operator");
    assert!(s.coalesced_requests >= 2);
    server.join().unwrap();
}

#[test]
fn storm_overload_poison_panic_and_drain_all_answer_structured() {
    let server = Server::start(ServeConfig {
        workers: 1,
        queue_capacity: 2,
        test_faults: true,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.addr();
    let a = spd_tridiag(48, 0.0);
    let n = 48;

    // Warm up so storm requests are cache traffic.
    let (status, v) = post_solve(addr, &solve_body(Some(&a), None, &rhs(n, 0.0), &[]));
    assert_eq!(status, 200);
    let fp = reply_u64(&v, "fingerprint");

    // Jam the worker, then storm 8 clients at a queue of capacity 2: the
    // overflow must shed immediately with a structured Overloaded.
    let jam = {
        let a = a.clone();
        std::thread::spawn(move || {
            post_solve(
                addr,
                &solve_body(Some(&a), None, &rhs(n, 1.0), &["\"fault\":\"sleep:500\""]),
            )
        })
    };
    std::thread::sleep(Duration::from_millis(100));
    let storm: Vec<_> = (0..8)
        .map(|i| {
            std::thread::spawn(move || {
                post_solve(
                    addr,
                    &solve_body(None, Some(fp), &rhs(n, 20.0 + i as f64), &[]),
                )
            })
        })
        .collect();
    let mut ok = 0u32;
    let mut overloaded = 0u32;
    for t in storm {
        let (status, v) = t.join().unwrap();
        // Exactly-once, structured: every reply parses and is either a
        // success or a typed error — nothing times out, nothing is dropped.
        match status {
            200 => {
                assert!(reply_ok(&v));
                ok += 1;
            }
            503 => {
                assert_eq!(error_kind(&v), "Overloaded");
                let err = v.get("error").unwrap();
                assert!(err
                    .get("queue_depth")
                    .and_then(serde::Value::as_u64)
                    .is_some());
                assert!(err
                    .get("retry_after_hint_ms")
                    .and_then(serde::Value::as_u64)
                    .map(|h| h > 0)
                    .unwrap_or(false));
                overloaded += 1;
            }
            other => panic!("unexpected status {other}: {v:?}"),
        }
    }
    assert_eq!(
        ok + overloaded,
        8,
        "every storm request got exactly one answer"
    );
    assert!(
        overloaded >= 1,
        "capacity-2 queue must shed an 8-client burst"
    );
    assert!(ok >= 2, "queued requests still complete");
    assert_eq!(jam.join().unwrap().0, 200);

    // Poison operator: structured Build error, server survives, and the
    // repeat is a negative-cache replay (no second build attempt burned).
    let p = poison_matrix(40);
    let (status, v) = post_solve(addr, &solve_body(Some(&p), None, &rhs(40, 0.0), &[]));
    assert_eq!(status, 422);
    assert_eq!(error_kind(&v), "Build");
    let attempts = match v.get("error").and_then(|e| e.get("build_error")) {
        Some(be) => match be.get("Divergent").and_then(|d| d.get("attempts")) {
            Some(serde::Value::Array(a)) => a.len(),
            other => panic!("build_error has no attempts array: {other:?}"),
        },
        None => panic!("Build error must carry the structured build_error"),
    };
    assert_eq!(
        attempts, 8,
        "the full backoff ladder was tried and recorded"
    );
    let s1 = stats(addr);
    assert_eq!(s1.build_failures, 1);
    let (status, v) = post_solve(addr, &solve_body(Some(&p), None, &rhs(40, 1.0), &[]));
    assert_eq!(status, 422);
    assert_eq!(error_kind(&v), "Build");
    let s2 = stats(addr);
    assert_eq!(s2.build_failures, 1, "poison repeat replayed, not rebuilt");
    assert!(s2.negative_hits >= 1);

    // Worker panic: structured answer, pool replaced, siblings unaffected.
    let (status, v) = post_solve(
        addr,
        &solve_body(None, Some(fp), &rhs(n, 30.0), &["\"fault\":\"panic\""]),
    );
    assert_eq!(status, 500);
    assert_eq!(error_kind(&v), "WorkerPanic");
    let (status, v) = post_solve(addr, &solve_body(None, Some(fp), &rhs(n, 31.0), &[]));
    assert_eq!(status, 200, "replacement worker serves: {v:?}");
    let s3 = stats(addr);
    assert_eq!(s3.worker_panics, 1);
    assert_eq!(s3.worker_replacements, 1);

    // Drain: shutdown endpoint flips to Draining, new work is shed with a
    // structured error, and join completes cleanly.
    let (status, text) = httpd::client::post(addr, "/shutdown", "").unwrap();
    assert_eq!(status, 202);
    assert!(text.contains("\"draining\":true"));
    let (status, v) = post_solve(addr, &solve_body(None, Some(fp), &rhs(n, 32.0), &[]));
    assert_eq!(status, 503);
    assert_eq!(error_kind(&v), "Draining");
    assert!(stats(addr).shed_draining >= 1);
    let outcome = server.join().unwrap();
    assert!(
        outcome.drained_clean,
        "idle drain finishes inside the deadline"
    );
}

#[test]
fn hostile_bodies_get_a_400_and_the_daemon_keeps_answering() {
    let server = Server::start(ServeConfig::default()).unwrap();
    let addr = server.addr();
    let matrix = |arrays: &str| format!("{{\"matrix\":{{{arrays}}},\"b\":[1.0,1.0]}}");
    let hostile = [
        // A row pointer past the end of `indices`, and an `nrows` that
        // wraps `nrows + 1`: each used to panic the connection thread
        // inside the invariant check, closing the socket without a reply.
        matrix("\"nrows\":2,\"ncols\":2,\"indptr\":[0,100,2],\"indices\":[0,1],\"data\":[1.0,1.0]"),
        matrix(
            "\"nrows\":18446744073709551615,\"ncols\":2,\"indptr\":[],\"indices\":[],\"data\":[]",
        ),
        // Numbers past f64 parse to ±inf; they used to be admitted.
        matrix("\"nrows\":2,\"ncols\":2,\"indptr\":[0,1,2],\"indices\":[0,1],\"data\":[4.0,1e999]"),
        "{\"fingerprint\":1,\"b\":[1.0,-1e999]}".to_string(),
        // An ignored member nested past the reader's depth bound: it used to
        // recurse until the connection thread's stack overflowed, which
        // aborts the process — daemon, cache and all.
        format!(
            "{{\"fingerprint\":1,\"b\":[1.0],\"note\":{}",
            "[".repeat(300_000)
        ),
    ];
    for body in &hostile {
        let (status, v) = post_solve(addr, body);
        assert_eq!(status, 400, "{body}: {v:?}");
        assert_eq!(error_kind(&v), "BadRequest", "{body}");
        assert_eq!(httpd::client::get(addr, "/healthz").unwrap().0, 200);
    }

    // A body that is not UTF-8 is refused as it stands, not repaired.
    use std::io::{Read, Write};
    let mut raw = b"{\"fingerprint\":1,\"b\":[1.0],\"note\":\"".to_vec();
    raw.extend_from_slice(&[0xff, 0xfe, b'"', b'}']);
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    let head = format!(
        "POST /solve HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        raw.len()
    );
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(&raw).unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 400 "), "{reply}");
    assert!(reply.contains("\"kind\":\"BadRequest\"") && reply.contains("not UTF-8"));

    let s = stats(addr);
    assert_eq!(s.submitted, 0, "none of them was admitted");
    assert_eq!(s.worker_panics, 0);
    assert!(server.join().unwrap().drained_clean);
}
