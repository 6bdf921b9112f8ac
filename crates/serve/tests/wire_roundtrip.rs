//! Wire-format regression tests: the PR-7 failure-taxonomy types and the
//! serve envelopes must survive JSON round trips exactly, because the
//! daemon serializes them across the wire and the snapshot store replays
//! them across restarts.

mod common;

use common::*;
use mcmcmi_krylov::{
    BreakdownKind, RecoveryStep, RecoveryStepKind, RecoveryTrail, SolveFailure, SolveOptions,
    SolverType, WatchdogConfig,
};
use mcmcmi_mcmc::{BuildAttempt, BuildError, McmcParams};
use mcmcmi_serve::{
    PoisonedRecord, ServeError, SolveRequest, StatsSnapshot, TunedRecord, TunedStore,
};

fn round_trip<T: serde::Serialize + serde::Deserialize>(value: &T) -> T {
    let json = serde_json::to_string(value).expect("serializes");
    serde_json::from_str(&json).expect("deserializes")
}

#[test]
fn solve_failure_variants_round_trip() {
    let variants = vec![
        SolveFailure::Breakdown {
            kind: BreakdownKind::ZeroCurvature,
            iteration: 17,
        },
        SolveFailure::Breakdown {
            kind: BreakdownKind::SingularHessenberg,
            iteration: 3,
        },
        SolveFailure::Stagnated {
            window: 400,
            best_residual: 3.25e-7,
        },
        SolveFailure::Diverged { growth: 1.5e9 },
        SolveFailure::OutOfReach {
            window: 50,
            rate: 0.1 + 0.7, // deliberately non-representable sum
        },
        SolveFailure::NonFinite {
            what: "residual norm".to_string(),
        },
        SolveFailure::BudgetExhausted,
        SolveFailure::Cancelled,
    ];
    for f in variants {
        assert_eq!(round_trip(&f), f, "{f:?}");
    }
}

#[test]
fn solve_options_without_a_reach_window_still_parse() {
    // What a request carried before the reach rule existed.
    let old = r#"{"tol":1e-6,"max_iter":300,"restart":30,"watchdog":{"stall_window":400,"stall_improvement":0.001,"divergence_growth":100000000.0}}"#;
    let opts: SolveOptions = serde_json::from_str(old).expect("old options parse");
    assert_eq!(opts.watchdog, WatchdogConfig::default());
    assert_eq!((opts.tol, opts.max_iter, opts.restart), (1e-6, 300, 30));

    let on = SolveOptions {
        watchdog: WatchdogConfig {
            reach_window: 50,
            ..WatchdogConfig::default()
        },
        ..SolveOptions::default()
    };
    assert_eq!(round_trip(&on).watchdog, on.watchdog);
    // Only the defaulted field may be missing.
    let short = old.replace(r#""stall_window":400,"#, "");
    assert!(serde_json::from_str::<SolveOptions>(&short).is_err());
}

#[test]
fn recovery_trail_round_trips_bit_exactly() {
    let trail = RecoveryTrail {
        steps: vec![
            RecoveryStep {
                step: RecoveryStepKind::FlexibleSwap,
                trigger: SolveFailure::Stagnated {
                    window: 400,
                    best_residual: 0.1 + 0.2, // deliberately non-representable sum
                },
                solver: SolverType::Fgmres,
                iterations: 213,
                recovered: false,
            },
            RecoveryStep {
                step: RecoveryStepKind::UnpreconditionedFallback,
                trigger: SolveFailure::Cancelled,
                solver: SolverType::Gmres,
                iterations: 88,
                recovered: true,
            },
        ],
        recovered: true,
    };
    assert_eq!(round_trip(&trail), trail);
    assert_eq!(
        round_trip(&RecoveryTrail::default()),
        RecoveryTrail::default()
    );
}

#[test]
fn build_attempt_and_error_round_trip() {
    let attempt = BuildAttempt {
        alpha: 0.05,
        rho_estimate: 1.375,
        noncontractive_fraction: 0.999,
        blown_up_chains: Some(42),
    };
    let back = round_trip(&attempt);
    assert_eq!(back.alpha.to_bits(), attempt.alpha.to_bits());
    assert_eq!(back.rho_estimate.to_bits(), attempt.rho_estimate.to_bits());
    assert_eq!(
        back.noncontractive_fraction.to_bits(),
        attempt.noncontractive_fraction.to_bits()
    );
    assert_eq!(back.blown_up_chains, attempt.blown_up_chains);

    let probe_only = BuildAttempt {
        blown_up_chains: None,
        ..attempt
    };
    assert_eq!(round_trip(&probe_only).blown_up_chains, None);

    let err = BuildError::Divergent {
        attempts: vec![attempt, probe_only],
    };
    let back = round_trip(&err);
    let BuildError::Divergent { attempts } = &back;
    assert_eq!(attempts.len(), 2);
    assert_eq!(back.to_string(), err.to_string());
}

#[test]
fn tuned_store_round_trips() {
    let store = TunedStore {
        records: vec![TunedRecord {
            fingerprint: u64::MAX - 3, // exercises > 2^53 integer fidelity
            params: McmcParams::new(0.1, 0.5, 0.25),
            rho_estimate: 0.9090909090909091,
        }],
        poisoned: vec![PoisonedRecord {
            fingerprint: 7,
            error: BuildError::Divergent { attempts: vec![] },
        }],
    };
    let back = round_trip(&store);
    assert_eq!(back.records.len(), 1);
    assert_eq!(back.records[0].fingerprint, u64::MAX - 3);
    assert_eq!(
        back.records[0].params.alpha.to_bits(),
        store.records[0].params.alpha.to_bits()
    );
    assert_eq!(back.poisoned.len(), 1);
    assert_eq!(back.poisoned[0].fingerprint, 7);
}

#[test]
fn stats_snapshot_round_trips() {
    let json = r#"{"submitted":9,"completed":5,"builds":2,"build_failures":1,"cache_hits":3,
        "negative_hits":1,"coalesced_groups":1,"coalesced_requests":4,"shed_overload":2,
        "shed_draining":1,"deadline_queued":1,"deadline_mid_solve":1,"drain_cutoffs":0,
        "worker_panics":1,"worker_replacements":1,"worker_solves":6,"queue_depth":0,
        "cache_entries":2,"cache_bytes":4096,"drift_evictions":7,"draining":false}"#;
    let snap: StatsSnapshot = serde_json::from_str(json).unwrap();
    assert_eq!(snap.submitted, 9);
    let back = round_trip(&snap);
    assert_eq!(back.coalesced_requests, 4);
    assert_eq!(back.cache_bytes, 4096);
    assert_eq!(back.drift_evictions, 7);
    assert!(!back.draining);
}

#[test]
fn request_parsing_accepts_defaults_and_rejects_garbage() {
    let a = spd_tridiag(8, 0.0);
    let body = solve_body(Some(&a), None, &rhs(8, 0.0), &[]);
    let req = SolveRequest::parse(&body).unwrap();
    assert_eq!(req.solver, SolverType::BiCgStab);
    assert_eq!(req.tol, 1e-8);
    assert!(req.deadline_ms.is_none());
    assert!(req.params.is_none());

    let full = solve_body(
        Some(&a),
        Some(a.fingerprint()),
        &rhs(8, 0.0),
        &[
            "\"solver\":\"fgmres\"",
            "\"tol\":1e-10",
            "\"max_iter\":123",
            "\"restart\":7",
            "\"deadline_ms\":250",
            "\"params\":{\"alpha\":1.5,\"eps\":0.5,\"delta\":0.125}",
        ],
    );
    let req = SolveRequest::parse(&full).unwrap();
    assert_eq!(req.solver, SolverType::Fgmres);
    assert_eq!(req.max_iter, 123);
    assert_eq!(req.restart, 7);
    assert_eq!(req.deadline_ms, Some(250));
    assert_eq!(req.params.unwrap().alpha, 1.5);

    for bad in [
        "{}",                                                    // no b, no operator
        "{\"b\":[1.0]}",                                         // no operator identity
        "{\"fingerprint\":1,\"b\":[]}",                          // empty rhs
        "{\"fingerprint\":1,\"b\":[1.0],\"solver\":\"qr\"}",     // unknown solver
        "{\"fingerprint\":1,\"b\":[1.0],\"fault\":\"explode\"}", // unknown fault
        "{\"fingerprint\":1,\"b\":[1.0],\"tol\":-1.0}",          // negative tol
        "not json",
    ] {
        assert!(SolveRequest::parse(bad).is_err(), "should reject: {bad}");
    }
}

#[test]
fn error_envelopes_carry_their_structured_fields() {
    let cases: Vec<(ServeError, u16)> = vec![
        (
            ServeError::Overloaded {
                queue_depth: 5,
                retry_after_hint_ms: 150,
            },
            503,
        ),
        (ServeError::Draining, 503),
        (
            ServeError::DeadlineExceeded {
                phase: "solving",
                iterations: 99,
                rel_residual: Some(1e-3),
            },
            408,
        ),
        (
            ServeError::Build(BuildError::Divergent { attempts: vec![] }),
            422,
        ),
        (ServeError::BadRequest("nope".to_string()), 400),
        (ServeError::WorkerPanic("boom".to_string()), 500),
    ];
    for (err, status) in cases {
        assert_eq!(err.status(), status);
        let v = serde_json::parse_value_str(&err.to_json()).unwrap();
        assert_eq!(v.get("ok"), Some(&serde::Value::Bool(false)));
        assert_eq!(error_kind(&v), err.kind());
    }
    let v = serde_json::parse_value_str(
        &ServeError::Overloaded {
            queue_depth: 5,
            retry_after_hint_ms: 150,
        }
        .to_json(),
    )
    .unwrap();
    let e = v.get("error").unwrap();
    assert_eq!(e.get("queue_depth").and_then(serde::Value::as_u64), Some(5));
    assert_eq!(
        e.get("retry_after_hint_ms").and_then(serde::Value::as_u64),
        Some(150)
    );
}
