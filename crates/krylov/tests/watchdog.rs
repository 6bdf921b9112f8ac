//! The mid-solve watchdog: its four rules on hand-fed residuals, and the
//! reach rule inside every driver. A column the reach rule stops keeps the
//! bits of its scalar solve in either loop at any pool size, and a column
//! it does not stop keeps the bits of a solve with the rule off.

use mcmcmi_krylov::{
    solve, solve_batch, solve_resilient, with_cancel, CancelToken, JacobiPrecond, RecoveryContext,
    RecoveryPolicy, SolveFailure, SolveOptions, SolveResult, SolverType, Watchdog, WatchdogConfig,
    CONVERGENCE_SLACK,
};
use mcmcmi_sparse::{Coo, Csr};

/// A watchdog with every other rule at its default and the reach rule at
/// `window` observations, for a solve whose result is accepted at
/// residual `level` (its stopping threshold times the slack) and that
/// stops at `max_iter`.
fn reach(window: usize, level: f64, max_iter: usize) -> Watchdog {
    let cfg = WatchdogConfig {
        reach_window: window,
        ..WatchdogConfig::default()
    };
    let target = level / CONVERGENCE_SLACK;
    assert_eq!(target * CONVERGENCE_SLACK, level, "exact level");
    Watchdog::new(cfg, target, max_iter)
}

/// A monitor on which only the rules under test can trip.
fn unbounded(cfg: WatchdogConfig) -> Watchdog {
    Watchdog::new(cfg, 0.0, usize::MAX)
}

#[test]
fn non_finite_residual_trips_immediately() {
    for r in [f64::NAN, f64::INFINITY] {
        let mut wd = unbounded(WatchdogConfig::default());
        assert!(matches!(
            wd.observe(r),
            Some(SolveFailure::NonFinite { .. })
        ));
    }
}

#[test]
fn steady_progress_never_trips() {
    let cfg = WatchdogConfig {
        stall_window: 5,
        stall_improvement: 0.01,
        ..WatchdogConfig::default()
    };
    let mut wd = unbounded(cfg);
    let mut r = 1.0;
    for _ in 0..1000 {
        assert_eq!(wd.observe(r), None);
        r *= 0.9;
    }
}

#[test]
fn flat_residual_trips_stagnation_after_window() {
    let cfg = WatchdogConfig {
        stall_window: 8,
        ..WatchdogConfig::default()
    };
    let mut wd = unbounded(cfg);
    assert_eq!(wd.observe(1.0), None); // first observation = progress
    for _ in 0..7 {
        assert_eq!(wd.observe(1.0), None);
    }
    assert_eq!(
        wd.observe(1.0),
        Some(SolveFailure::Stagnated {
            window: 8,
            best_residual: 1.0
        })
    );
}

#[test]
fn explosive_growth_trips_divergence() {
    let cfg = WatchdogConfig {
        divergence_growth: 100.0,
        ..WatchdogConfig::default()
    };
    let mut wd = unbounded(cfg);
    assert_eq!(wd.observe(1.0), None);
    assert_eq!(wd.observe(99.0), None); // under the growth factor
    assert_eq!(
        wd.observe(150.0),
        Some(SolveFailure::Diverged { growth: 150.0 })
    );
}

#[test]
fn sub_threshold_improvement_still_updates_best() {
    let cfg = WatchdogConfig {
        stall_window: 100,
        stall_improvement: 0.5,
        ..WatchdogConfig::default()
    };
    let mut wd = unbounded(cfg);
    wd.observe(1.0);
    wd.observe(0.9); // not 50% better, but still the best seen
    assert_eq!(wd.best(), 0.9);
}

#[test]
fn reach_window_zero_never_trips() {
    assert_eq!(WatchdogConfig::default().reach_window, 0);
    // Flat for most of the stall window, far above an unreachable target.
    let mut wd = reach(0, 1e-12, 10);
    for _ in 0..300 {
        assert_eq!(wd.observe(1.0), None);
    }
}

#[test]
fn decay_that_reaches_the_level_at_the_cap_never_trips() {
    // r_t = 2^-t reaches 2^-40 at t = 40 = max_iter, exactly: at every
    // checkpoint best · q^((40 − t)/8) is 2^-40, not above it. (Powers of
    // two keep every product exact.)
    let mut wd = reach(8, 2f64.powi(-40), 40);
    for t in 0..40 {
        assert_eq!(wd.observe(2f64.powi(-t)), None, "t = {t}");
    }
    // Flat for a window, then halving: one window left, 0.5 · 0.5 lands
    // on the level exactly.
    let mut wd = reach(8, 0.25, 16);
    for _ in 0..8 {
        assert_eq!(wd.observe(1.0), None);
    }
    assert_eq!(wd.observe(0.5), None);
}

#[test]
fn slower_decay_trips_at_the_first_checkpoint_with_its_rate() {
    let mut wd = reach(8, 2f64.powi(-40), 40);
    let r = |t: i32| 0.75f64.powi(t);
    for t in 0..8 {
        assert_eq!(wd.observe(r(t)), None, "t = {t}");
    }
    // Eight observations after the reference: q = r(8)/r(0), and
    // r(8)·q⁴ ≈ 1e-5 is far above 2^-40.
    assert_eq!(
        wd.observe(r(8)),
        Some(SolveFailure::OutOfReach {
            window: 8,
            rate: r(8) / r(0)
        })
    );
}

#[test]
fn a_flat_residual_trips_the_reach_rule() {
    let mut wd = reach(8, 1e-6, 500);
    for _ in 0..8 {
        assert_eq!(wd.observe(0.5), None);
    }
    assert_eq!(
        wd.observe(0.5),
        Some(SolveFailure::OutOfReach {
            window: 8,
            rate: 1.0
        })
    );
    // A residual already at the level the result wrap accepts never
    // trips, however flat.
    let mut wd = reach(8, 1e-6, 500);
    for _ in 0..50 {
        assert_eq!(wd.observe(1e-6), None);
    }
}

#[test]
fn cancellation_non_finite_and_divergence_win_over_reach() {
    // Each watchdog is one observation short of a reach trip.
    let primed = || {
        let mut wd = reach(4, 1e-6, 100);
        for _ in 0..4 {
            assert_eq!(wd.observe(1.0), None);
        }
        wd
    };
    assert!(
        primed().observe(1.0).is_some(),
        "the next observation trips"
    );

    let token = CancelToken::new();
    token.cancel();
    let mut wd = primed();
    let cancelled = with_cancel(&token, || wd.observe(1.0));
    assert_eq!(cancelled, Some(SolveFailure::Cancelled));

    assert!(matches!(
        primed().observe(f64::NAN),
        Some(SolveFailure::NonFinite { .. })
    ));
    assert!(matches!(
        primed().observe(1e9),
        Some(SolveFailure::Diverged { .. })
    ));
}

const ALL: [SolverType; 5] = [
    SolverType::Cg,
    SolverType::FCg,
    SolverType::Gmres,
    SolverType::Fgmres,
    SolverType::BiCgStab,
];

/// Two SPD blocks on one diagonal: a well-conditioned 16×16 block that
/// every driver solves in a handful of iterations, and a 200-point 1-D
/// Laplacian (κ ≈ 1.6·10⁴) that none of them gets near the tolerance in
/// the cap. A rhs on one block never leaves it.
const EASY: usize = 16;
const HARD: usize = 200;

fn two_blocks() -> Csr {
    let n = EASY + HARD;
    let mut coo = Coo::new(n, n);
    for (start, len, diag) in [(0, EASY, 4.0), (EASY, HARD, 2.0)] {
        for i in start..start + len {
            coo.push(i, i, diag);
            if i + 1 < start + len {
                coo.push(i, i + 1, -1.0);
                coo.push(i + 1, i, -1.0);
            }
        }
    }
    coo.to_csr()
}

/// Column 0 lives on the hard block, columns 1 and 2 on the easy one.
fn columns() -> Vec<Vec<f64>> {
    let n = EASY + HARD;
    let on = |range: std::ops::Range<usize>, phase: f64| -> Vec<f64> {
        (0..n)
            .map(|i| {
                if range.contains(&i) {
                    1.0 + (phase * i as f64).sin()
                } else {
                    0.0
                }
            })
            .collect()
    };
    vec![on(EASY..n, 0.3), on(0..EASY, 0.7), on(0..EASY, 1.9)]
}

fn in_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build();
    pool.expect("a pool").install(f)
}

fn bits(r: &SolveResult) -> (Vec<u64>, usize, u64, String) {
    let x = r.x.iter().map(|v| v.to_bits()).collect();
    let outcome = format!("{:?}", r.outcome);
    (x, r.iterations, r.rel_residual.to_bits(), outcome)
}

fn opts(reach_window: usize) -> SolveOptions {
    SolveOptions {
        tol: 1e-10,
        max_iter: 60,
        restart: 10,
        watchdog: WatchdogConfig {
            reach_window,
            ..WatchdogConfig::default()
        },
    }
}

#[test]
fn the_reach_rule_stops_one_column_and_spares_its_siblings_in_every_driver() {
    let a = two_blocks();
    let p = JacobiPrecond::new(&a);
    let rhs = columns();
    let (on, off) = (opts(5), opts(0));
    for solver in ALL {
        let stopped = solve(&a, &rhs[0], &p, solver, on);
        assert!(
            matches!(
                stopped.failure(),
                Some(SolveFailure::OutOfReach { window: 5, .. })
            ),
            "{solver:?}: {:?}",
            stopped.outcome
        );
        assert!(
            stopped.iterations < on.max_iter,
            "{solver:?} stopped at the cap"
        );
        for width in [1, 2, 3] {
            let batch = &rhs[..width];
            let plain = solve_batch(&a, batch, &p, solver, off);
            for threads in [1, 2, 8] {
                let got = in_pool(threads, || solve_batch(&a, batch, &p, solver, on));
                let case = format!("{solver:?} width {width} pool {threads}");
                assert_eq!(bits(&got[0]), bits(&stopped), "{case}: stopped column");
                for c in 1..width {
                    assert!(got[c].converged, "{case}: col {c} {:?}", got[c].outcome);
                    assert_eq!(bits(&got[c]), bits(&plain[c]), "{case}: col {c}");
                }
            }
        }
    }
}

#[test]
fn the_recovery_ladder_escalates_out_of_reach_like_stagnation() {
    let a = two_blocks();
    let p = JacobiPrecond::new(&a);
    let b = &columns()[0];
    let policy = RecoveryPolicy::default();
    let r = solve_resilient(
        &a,
        b,
        &p,
        SolverType::Gmres,
        opts(5),
        &policy,
        RecoveryContext::none(),
    );
    let first = r.trail.steps.first().expect("the ladder ran");
    assert!(
        matches!(first.trigger, SolveFailure::OutOfReach { .. }),
        "{:?}",
        r.trail
    );
    assert_eq!(first.trigger.label(), "out-of-reach");
}
