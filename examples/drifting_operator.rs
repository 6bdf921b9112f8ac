//! Drift-tolerant solving: one `DriftSession` tracking a slowly hardening
//! operator across 60 time steps — warm starts, staleness verdicts, and
//! the escalating refresh ladder (keep → partial rebuild → full rebuild →
//! retune), with the full decision trail printed at the end.
//!
//! ```text
//! cargo run --release --example drifting_operator
//! ```

use mcmcmi::core::{DriftSession, RefreshAction, RefreshPolicy};
use mcmcmi::krylov::{SolveOptions, SolverType};
use mcmcmi::matgen::{pdd_real_sparse, DiagonalShiftDrift};
use mcmcmi::mcmc::{BuildConfig, McmcParams, SafeguardConfig};

/// The sequence itself, apart from the printing: `tests/drift.rs` includes
/// this file and pins the trail it leaves.
pub fn sixty_steps() -> (usize, DriftSession) {
    // The operator sequence: a strongly dominant random sparse system
    // whose row diagonals wander *down* toward weak dominance — the
    // problem gets harder over time, so the preconditioner built at step
    // 0 genuinely decays. (Whole-row rescaling would leave the MCMC walk
    // matrix I − D⁻¹A untouched; diagonal-only drift is the regime the
    // refresh ladder exists for.)
    let n = 300;
    let mut a0 = pdd_real_sparse(n, 11);
    for i in 0..n {
        let pos = a0.row_indices(i).binary_search(&i).unwrap();
        a0.row_values_mut(i)[pos] *= 3.0;
    }
    let mut drift = DiagonalShiftDrift::new(a0.clone(), 0.04, 0.35, 1.0 / 3.0, 1.0, 23);

    // One session owns the operator, the preconditioner, the staleness
    // monitor, and the warm-start state. The policy reacts at 1.3× the
    // calibrated iteration baseline and allows partial rebuilds up to
    // half the rows.
    let policy = RefreshPolicy {
        degrading_ratio: 1.3,
        max_partial_fraction: 0.5,
    };
    let mut session = DriftSession::new(
        a0,
        McmcParams::new(0.1, 0.0625, 0.0625),
        BuildConfig::default(),
        SafeguardConfig::default(),
        SolverType::Gmres,
        SolveOptions {
            tol: 1e-8,
            max_iter: 500,
            ..Default::default()
        },
        policy,
    )
    .expect("the safeguard accepts this operator at α = 0.1");

    for t in 0..60 {
        let step = drift.advance();
        // A time-dependent right-hand side: the previous solution is a
        // useful but imperfect warm start.
        let phase = t as f64 * 0.35;
        let b: Vec<f64> = (0..n)
            .map(|i| (i as f64 * 0.17 + phase).sin() + 0.5)
            .collect();
        let res = session.step(step.matrix, &b);
        assert!(res.converged, "step {t} failed to converge");
    }
    (n, session)
}

fn main() {
    let (n, session) = sixty_steps();
    println!("60 drift steps on pdd_real_sparse (n = {n}, diagonal drifting 3× → 1×):\n");
    let trail = session.trail();
    println!("decision trail: {}", trail.summary());
    println!(
        "total refresh work: {} rows re-estimated\n",
        trail.rows_rebuilt_total(n)
    );
    println!("  step  dirty(new+pending)  iters  verdict                    action");
    for s in &trail.steps {
        if s.action != RefreshAction::KeepApplying || s.step % 10 == 0 {
            println!(
                "  {:>4}  {:>7}+{:<10} {:>5}  {:<25} {}",
                s.step,
                s.dirty_new,
                s.dirty_pending,
                s.iterations,
                format!("{:?}", s.verdict),
                s.action.label(),
            );
        }
    }

    // The trail serialises like a RecoveryTrail — ship it in logs or over
    // the serve wire format.
    let json = serde_json::to_string(trail).unwrap();
    println!(
        "\ntrail JSON ({} bytes), first 120: {}…",
        json.len(),
        &json[..120.min(json.len())]
    );
}
