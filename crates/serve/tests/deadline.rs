//! Deadline semantics end to end: admission expiry, queued expiry (shed
//! without touching a worker), and cooperative mid-solve expiry with
//! partial-progress stats and an immediately reusable worker.

mod common;

use common::*;
use mcmcmi_serve::{ServeConfig, Server};

fn single_worker_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        queue_capacity: 8,
        test_faults: true,
        ..ServeConfig::default()
    }
}

#[test]
fn zero_budget_is_shed_at_admission() {
    let server = Server::start(single_worker_config()).unwrap();
    let addr = server.addr();
    let a = spd_tridiag(24, 0.0);
    let before = stats(addr);
    let (status, v) = post_solve(
        addr,
        &solve_body(Some(&a), None, &rhs(24, 0.0), &["\"deadline_ms\":0"]),
    );
    assert_eq!(status, 408);
    assert_eq!(error_kind(&v), "DeadlineExceeded");
    let err = v.get("error").unwrap();
    assert_eq!(
        err.get("phase"),
        Some(&serde::Value::Str("queued".to_string()))
    );
    assert_eq!(
        err.get("iterations").and_then(serde::Value::as_u64),
        Some(0)
    );
    let after = stats(addr);
    // Never reached a worker: no build, no solve, no queue slot burned.
    assert_eq!(after.deadline_queued, before.deadline_queued + 1);
    assert_eq!(after.builds, before.builds);
    assert_eq!(after.worker_solves, before.worker_solves);
    server.join().unwrap();
}

#[test]
fn queued_expiry_is_answered_from_the_queue() {
    let server = Server::start(single_worker_config()).unwrap();
    let addr = server.addr();
    let a = spd_tridiag(32, 0.0);
    // Warm the cache so later requests don't pay a build.
    let (status, _) = post_solve(addr, &solve_body(Some(&a), None, &rhs(32, 0.0), &[]));
    assert_eq!(status, 200);
    let warm = stats(addr);

    // Occupy the only worker for 400 ms.
    let blocker_addr = addr;
    let a2 = a.clone();
    let blocker = std::thread::spawn(move || {
        post_solve(
            blocker_addr,
            &solve_body(Some(&a2), None, &rhs(32, 1.0), &["\"fault\":\"sleep:400\""]),
        )
    });
    std::thread::sleep(std::time::Duration::from_millis(80));

    // This request's 100 ms budget expires while the worker sleeps; it is
    // answered at dequeue without any solve running on its behalf.
    let (status, v) = post_solve(
        addr,
        &solve_body(Some(&a), None, &rhs(32, 2.0), &["\"deadline_ms\":100"]),
    );
    assert_eq!(status, 408);
    assert_eq!(error_kind(&v), "DeadlineExceeded");
    assert_eq!(
        v.get("error").unwrap().get("phase"),
        Some(&serde::Value::Str("queued".to_string()))
    );
    let (bstatus, _) = blocker.join().unwrap();
    assert_eq!(bstatus, 200, "the blocking request itself still completes");
    let after = stats(addr);
    assert_eq!(after.deadline_queued, warm.deadline_queued + 1);
    assert_eq!(
        after.builds, warm.builds,
        "expired request triggered no build"
    );
    assert_eq!(
        after.worker_solves,
        warm.worker_solves + 1,
        "only the blocker's solve ran"
    );
    server.join().unwrap();
}

#[test]
fn mid_solve_expiry_reports_progress_and_frees_the_worker() {
    let server = Server::start(single_worker_config()).unwrap();
    let addr = server.addr();
    // Large enough that reaching the residual plateau (and only then the
    // stagnation window) takes far longer than the deadline.
    let a = mcmcmi_matgen::fd_laplace_2d(220);
    let n = a.nrows();
    // Warm: build + a cheap converged solve.
    let (status, v) = post_solve(
        addr,
        &solve_body(
            Some(&a),
            None,
            &rhs(n, 0.0),
            &["\"solver\":\"cg\"", "\"tol\":1e-6"],
        ),
    );
    assert_eq!(status, 200, "warm-up failed: {v:?}");
    let fp = reply_u64(&v, "fingerprint");
    let warm = stats(addr);

    // tol 0 can never be reached, so without the deadline this solve would
    // run for its full stagnation plateau — the 40 ms budget fires first,
    // at the cooperative cancellation point inside the iteration loop.
    let (status, v) = post_solve(
        addr,
        &solve_body(
            None,
            Some(fp),
            &rhs(n, 1.0),
            &[
                "\"solver\":\"cg\"",
                "\"tol\":0.0",
                "\"max_iter\":5000000",
                "\"deadline_ms\":40",
            ],
        ),
    );
    assert_eq!(status, 408);
    assert_eq!(error_kind(&v), "DeadlineExceeded");
    let err = v.get("error").unwrap();
    assert_eq!(
        err.get("phase"),
        Some(&serde::Value::Str("solving".to_string()))
    );
    let iterations = err
        .get("iterations")
        .and_then(serde::Value::as_u64)
        .unwrap();
    assert!(iterations > 0, "partial progress must be reported");
    let rel = err
        .get("rel_residual")
        .and_then(serde::Value::as_f64)
        .unwrap();
    assert!(rel.is_finite() && rel > 0.0);
    let after = stats(addr);
    assert_eq!(after.deadline_mid_solve, warm.deadline_mid_solve + 1);

    // The worker is immediately reusable: a normal cached solve succeeds.
    let (status, v) = post_solve(
        addr,
        &solve_body(
            None,
            Some(fp),
            &rhs(n, 2.0),
            &["\"solver\":\"cg\"", "\"tol\":1e-6"],
        ),
    );
    assert_eq!(status, 200);
    assert!(reply_ok(&v));
    assert_eq!(
        stats(addr).builds,
        warm.builds,
        "every post-warm-up solve came from the cache"
    );
    server.join().unwrap();
}

#[test]
fn drain_deadline_cuts_the_solve_in_flight_and_the_one_queued_behind_it() {
    let server = Server::start(ServeConfig {
        drain_deadline_ms: 150,
        ..single_worker_config()
    })
    .unwrap();
    let addr = server.addr();
    let a = mcmcmi_matgen::fd_laplace_2d(220);
    let n = a.nrows();
    let (status, v) = post_solve(
        addr,
        &solve_body(
            Some(&a),
            None,
            &rhs(n, 0.0),
            &["\"solver\":\"cg\"", "\"tol\":1e-6"],
        ),
    );
    assert_eq!(status, 200, "warm-up failed: {v:?}");
    let fp = reply_u64(&v, "fingerprint");

    // Two solves that cannot converge and carry no deadline of their own,
    // with different iteration caps so they do not coalesce: one runs, one
    // waits in the queue behind it.
    let endless = |max_iter: u64| {
        std::thread::spawn(move || {
            let cap = format!("\"max_iter\":{max_iter}");
            post_solve(
                addr,
                &solve_body(
                    None,
                    Some(fp),
                    &rhs(n, 1.0),
                    &["\"solver\":\"cg\"", "\"tol\":0.0", &cap],
                ),
            )
        })
    };
    let running = endless(5_000_000);
    while stats(addr).cache_hits < 1 {
        std::thread::yield_now();
    }
    let queued = endless(5_000_001);
    while stats(addr).queue_depth < 1 {
        std::thread::yield_now();
    }

    // The sweep at the deadline cancels the running solve; the queued one
    // registers its token after the sweep and must cut itself.
    let t0 = std::time::Instant::now();
    let outcome = server.join().unwrap();
    let elapsed = t0.elapsed();
    assert!(!outcome.drained_clean);
    assert!(
        elapsed >= std::time::Duration::from_millis(150),
        "{elapsed:?}"
    );
    assert!(elapsed < std::time::Duration::from_secs(5), "{elapsed:?}");
    for client in [running, queued] {
        let (status, v) = client.join().unwrap();
        assert_eq!(status, 408);
        let err = v.get("error").unwrap();
        assert_eq!(
            err.get("phase"),
            Some(&serde::Value::Str("drain".to_string()))
        );
    }
}
