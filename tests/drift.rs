//! Property tests for the drift-tolerant solve path (PR 9).
//!
//! The load-bearing contracts:
//! * an **all-dirty** partial rebuild is bit-identical to a fresh build
//!   against the drifted operator — at any thread count (the per-row
//!   `(seed, row)` RNG streams make this hold by construction, and these
//!   tests pin it under both 1 and 8 Rayon threads);
//! * a **no-dirty** rebuild is a no-op on the preconditioner bytes;
//! * the declared dirty set of every drift generator matches
//!   `Csr::diff_rows` exactly;
//! * a drift burst escalates `DriftSession`'s refresh ladder the same way
//!   at any thread count.

use mcmcmi_matgen::CoefficientDrift;
use mcmcmi_mcmc::{BuildConfig, McmcInverse, McmcParams};
use mcmcmi_sparse::{Coo, Csr};
use proptest::prelude::*;

/// Strategy: a diagonally-dominant random matrix (walks converge) plus a
/// per-row drift factor near 1 for an arbitrary row subset.
fn arb_drift_case() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>, Vec<usize>)> {
    (4usize..24).prop_flat_map(|n| {
        let triplet = (0..n, 0..n, -4i32..=4);
        let offdiag = proptest::collection::vec(triplet, 0..60);
        let dirty = proptest::collection::vec(0..n, 0..8);
        (offdiag, dirty).prop_map(move |(ts, dirty)| {
            let ts = ts
                .into_iter()
                .map(|(i, j, e)| (i, j, e as f64 * 0.5))
                .collect();
            (n, ts, dirty)
        })
    })
}

/// Assemble a strictly diagonally dominant CSR from the strategy's
/// triplets: off-diagonals as drawn, diagonal = row abs-sum + 2.
fn build_dominant(n: usize, ts: &[(usize, usize, f64)]) -> Csr {
    let mut coo = Coo::new(n, n);
    let mut rowsum = vec![0.0f64; n];
    for &(i, j, v) in ts {
        if i != j && v != 0.0 {
            coo.push(i, j, v);
            rowsum[i] += v.abs();
        }
    }
    for (i, &s) in rowsum.iter().enumerate() {
        coo.push(i, i, s + 2.0);
    }
    coo.to_csr()
}

/// Scale the given rows' values by 1.03 (value-only drift, pattern kept).
fn drift_rows(a: &Csr, rows: &[usize]) -> Csr {
    let mut b = a.clone();
    for &i in rows {
        for v in b.row_values_mut(i) {
            *v *= 1.03;
        }
    }
    b
}

fn in_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("pool")
        .install(f)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All-dirty rebuild ≡ fresh build, bit for bit, at 1 and 8 threads,
    /// and the fresh build at 8 threads ≡ the one at 1 thread.
    #[test]
    fn all_dirty_rebuild_is_a_fresh_build((n, ts, dirty) in arb_drift_case()) {
        let a = build_dominant(n, &ts);
        let b = drift_rows(&a, &dirty);
        let params = McmcParams::new(1.0, 0.25, 0.25);
        let builder = McmcInverse::new(BuildConfig::default());
        let all: Vec<usize> = (0..n).collect();
        let mut fresh_builds = Vec::new();
        for threads in [1usize, 8] {
            let (rebuilt, fresh) = in_pool(threads, || {
                let mut out = builder.build(&a, params);
                builder.rebuild_rows(&mut out, &b, &all, params);
                let fresh = builder.build(&b, params);
                (out, fresh)
            });
            prop_assert_eq!(
                rebuilt.precond.matrix(), fresh.precond.matrix(),
                "threads = {}", threads
            );
            prop_assert_eq!(rebuilt.transitions, fresh.transitions);
            prop_assert_eq!(rebuilt.capped_chains, fresh.capped_chains);
            prop_assert_eq!(rebuilt.blown_up_chains, fresh.blown_up_chains);
            fresh_builds.push(fresh);
        }
        let (one, eight) = (&fresh_builds[0], &fresh_builds[1]);
        prop_assert_eq!(
            eight.precond.matrix(), one.precond.matrix(),
            "fresh build, 8 threads vs 1"
        );
        prop_assert_eq!(
            (eight.transitions, eight.capped_chains, eight.blown_up_chains),
            (one.transitions, one.capped_chains, one.blown_up_chains)
        );
    }

    /// No dirty rows: the preconditioner bytes must be untouched.
    #[test]
    fn no_dirty_rebuild_is_a_noop((n, ts, _dirty) in arb_drift_case()) {
        let a = build_dominant(n, &ts);
        let params = McmcParams::new(1.0, 0.25, 0.25);
        let builder = McmcInverse::new(BuildConfig::default());
        let mut out = builder.build(&a, params);
        let before = out.precond.matrix().clone();
        let stats_before = (out.transitions, out.capped_chains, out.blown_up_chains);
        builder.rebuild_rows(&mut out, &a, &[], params);
        prop_assert_eq!(out.precond.matrix().indptr(), before.indptr());
        for i in 0..n {
            prop_assert_eq!(out.precond.matrix().row_indices(i), before.row_indices(i));
            // Bit-level comparison: same stored f64 bits, not just equality.
            let got: Vec<u64> =
                out.precond.matrix().row_values(i).iter().map(|v| v.to_bits()).collect();
            let want: Vec<u64> = before.row_values(i).iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, want);
        }
        prop_assert_eq!(
            (out.transitions, out.capped_chains, out.blown_up_chains),
            stats_before
        );
    }

    /// Partial rebuild of the *exact* dirty set: dirty rows match the
    /// fresh build, clean rows keep their old bytes.
    #[test]
    fn partial_rebuild_splices_exactly((n, ts, dirty) in arb_drift_case()) {
        let a = build_dominant(n, &ts);
        let b = drift_rows(&a, &dirty);
        let params = McmcParams::new(1.0, 0.25, 0.25);
        let builder = McmcInverse::new(BuildConfig::default());
        let mut out = builder.build(&a, params);
        let before = out.precond.matrix().clone();
        let actual_dirty = a.diff_rows(&b);
        builder.rebuild_rows(&mut out, &b, &actual_dirty, params);
        let fresh = builder.build(&b, params);
        for i in 0..n {
            if actual_dirty.binary_search(&i).is_ok() {
                prop_assert_eq!(
                    out.precond.matrix().row_values(i),
                    fresh.precond.matrix().row_values(i),
                    "dirty row {}", i
                );
            } else {
                prop_assert_eq!(
                    out.precond.matrix().row_values(i),
                    before.row_values(i),
                    "clean row {}", i
                );
            }
        }
        prop_assert!(out.precond.matrix().check_invariants().is_ok());
    }
}

#[test]
fn generator_ground_truth_matches_csr_diff_under_both_thread_counts() {
    // The drift generators declare their dirty rows; `diff_rows` must agree
    // and the partial-rebuild path must therefore be exact whichever side
    // the caller trusts. Run under 1 and 8 threads to pin determinism of
    // the whole generator → diff → rebuild chain.
    for threads in [1usize, 8] {
        in_pool(threads, || {
            let a0 = mcmcmi_matgen::pdd_real_sparse(48, 12);
            let mut gen = CoefficientDrift::new(a0.clone(), 0.15, 0.05, 4);
            let params = McmcParams::new(1.0, 0.25, 0.25);
            let builder = McmcInverse::new(BuildConfig::default());
            let mut out = builder.build(&a0, params);
            let mut prev = a0;
            for _ in 0..4 {
                let step = gen.advance();
                assert_eq!(prev.diff_rows(&step.matrix), step.dirty_rows);
                builder.rebuild_rows(&mut out, &step.matrix, &step.dirty_rows, params);
                prev = step.matrix;
            }
            // Rows rebuilt at intermediate steps were estimated against
            // intermediate operators (a walk traverses the whole splitting,
            // not just its home row), so only structural invariants — not
            // bitwise equality with a fresh final build — are asserted for
            // the accumulated result.
            assert!(out.precond.matrix().check_invariants().is_ok());
            let fresh = builder.build(&prev, params);
            assert_eq!(out.precond.matrix().nrows(), fresh.precond.matrix().nrows());
        });
    }
}

/// A violent burst mid-sequence must escalate past keep-applying, end
/// converged, stay converged — and leave a byte-identical `RefreshTrail`
/// at 1 and 8 threads.
#[test]
fn drift_burst_escalates_the_same_way_at_any_thread_count() {
    use mcmcmi_core::{DriftSession, RefreshAction, RefreshPolicy};
    use mcmcmi_krylov::{SolveOptions, SolverType};
    let run = |threads: usize| {
        in_pool(threads, || {
            let a = mcmcmi_matgen::fd_laplace_2d(12);
            let n = a.nrows();
            let b: Vec<f64> = (0..n).map(|i| (i as f64 * 0.17).sin() + 0.5).collect();
            let mut sess = DriftSession::new(
                a.clone(),
                McmcParams::new(0.1, 0.0625, 0.0625),
                BuildConfig::default(),
                mcmcmi_mcmc::SafeguardConfig::default(),
                SolverType::Gmres,
                SolveOptions {
                    max_iter: 60,
                    ..Default::default()
                },
                RefreshPolicy::default(),
            )
            .expect("laplacian builds");
            // Calibrate on the unchanged operator, then rescale every row 6×.
            for _ in 0..4 {
                let _ = sess.step(a.clone(), &b);
            }
            let mut burst = a.clone();
            for i in 0..n {
                for v in burst.row_values_mut(i) {
                    *v *= 6.0;
                }
            }
            assert!(sess.step(burst.clone(), &b).converged, "rescued burst step");
            assert!(sess.step(burst, &b).converged, "post-burst step");
            assert_ne!(sess.trail().steps[4].action, RefreshAction::KeepApplying);
            serde_json::to_string(sess.trail()).expect("trail serialises")
        })
    };
    let reference = run(1);
    assert_eq!(run(8), reference, "refresh trail at 8 threads vs 1");
    assert_eq!(
        fnv1a(&reference),
        BURST_TRAIL_FNV,
        "trail moved: {reference}"
    );
}

/// FNV-1a of a serialised trail: the comparison above only holds 1 thread
/// against 8 inside one commit, the digests below hold across commits.
/// Recorded from the commit before `DriftSession` became the only repair path.
fn fnv1a(json: &str) -> u64 {
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
const BURST_TRAIL_FNV: u64 = 0x66b6_aa1d_efdd_e9e3;
const EXAMPLE_TRAIL_FNV: u64 = 0x8248_3a59_4dab_e5cd;

#[allow(dead_code)]
#[path = "../examples/drifting_operator.rs"]
mod drifting_operator;

/// The example's sixty steps reach every rung short of a rescue (keep,
/// partial rebuild, full rebuild); they must keep deciding the same way.
#[test]
fn drifting_operator_example_trail_reproduces_the_recorded_bytes() {
    let (_, session) = drifting_operator::sixty_steps();
    let json = serde_json::to_string(session.trail()).expect("trail serialises");
    assert_eq!(fnv1a(&json), EXAMPLE_TRAIL_FNV, "trail moved: {json}");
}
