//! Builds through the walk loop: **bit-identical** at any thread count —
//! same CSR pattern, values and chain counters — and `rebuild_rows` with
//! every row dirty is a fresh build. The unit tests in `walk.rs` hold the
//! loop itself to a draw-then-decide reference.
//!
//! Per-chain `(seed, row, chain)` RNG streams are what make this hold;
//! these tests are the tripwire for any change that silently reorders
//! draws or floating-point adds.

use mcmcmi::matgen::{fd_laplace_2d, pdd_real_sparse, unsteady_adv_diff, AdvDiffOrder};
use mcmcmi::mcmc::{BuildConfig, McmcInverse, McmcParams, WalkEngine};
use mcmcmi::sparse::{Coo, Csr};
use proptest::prelude::*;

fn build(a: &Csr, params: McmcParams) -> Csr {
    let builder = McmcInverse::new(BuildConfig::default());
    builder.build(a, params).precond.matrix().clone()
}

fn in_pool<T: Send>(threads: usize, f: impl FnOnce() -> T + Send) -> T {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap()
        .install(f)
}

#[test]
fn build_bit_identical_across_thread_counts() {
    let mats: Vec<Csr> = vec![
        pdd_real_sparse(96, 7),
        fd_laplace_2d(10),
        unsteady_adv_diff(8, AdvDiffOrder::One),
    ];
    let params = McmcParams::new(0.5, 0.1, 1e-4);
    for (mi, a) in mats.iter().enumerate() {
        let reference = build(a, params);
        for threads in [1usize, 8] {
            let got = in_pool(threads, || build(a, params));
            assert_eq!(
                &got, &reference,
                "matrix {mi}: build drifted at {threads} threads"
            );
        }
    }
}

#[test]
fn soa_engine_name_builds_the_default_bits() {
    // The benchmark ledger still selects `WalkEngine::Soa` for its traced
    // build. The name runs the one walk loop, so it must build the
    // default's bits exactly.
    let a = fd_laplace_2d(12);
    let params = McmcParams::new(1.0, 0.125, 0.125);
    let soa = McmcInverse::new(BuildConfig {
        engine: WalkEngine::Soa,
        ..Default::default()
    });
    assert_eq!(soa.build(&a, params).precond.matrix(), &build(&a, params));
}

#[test]
fn all_dirty_rebuild_is_bit_identical_at_any_thread_count() {
    let a = pdd_real_sparse(80, 6);
    let n = a.nrows();
    let params = McmcParams::new(0.5, 0.1, 1e-4);
    let all: Vec<usize> = (0..n).collect();
    let reference = build(&a, params);
    let builder = McmcInverse::new(BuildConfig::default());
    for threads in [1usize, 8] {
        let rebuilt = in_pool(threads, || {
            let mut out = builder.build(&a, params);
            builder.rebuild_rows(&mut out, &a, &all, params);
            out.precond.matrix().clone()
        });
        assert_eq!(
            &rebuilt, &reference,
            "all-dirty rebuild at {threads} threads"
        );
    }
}

/// One build's matrix and chain counters, in a pool of `threads`.
fn outcome_in(threads: usize, a: &Csr, params: McmcParams) -> (Csr, usize, usize, usize) {
    let builder = McmcInverse::new(BuildConfig::default());
    let out = in_pool(threads, || builder.build(a, params));
    (
        out.precond.matrix().clone(),
        out.transitions,
        out.capped_chains,
        out.blown_up_chains,
    )
}

/// `n`-row ring with diagonal 4 and off-diagonals −1 to both neighbours.
fn ring(n: usize) -> Coo {
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, i, 4.0);
        coo.push(i, (i + 1) % n, -1.0);
        coo.push(i, (i + n - 1) % n, -1.0);
    }
    coo
}

/// The walk decides a chain's ending step from `|w|·S_k` without drawing
/// it (`walk.rs` holds that decision to a draw-then-decide reference). On
/// the edges of that decision — every chain ending on its first step,
/// weights turned infinite or NaN by the row sum, a path into an absorbing
/// row, and chains that only the step cap ends — a build must keep its
/// bits and its transition, capped and blown-up counts at any thread count.
#[test]
fn ending_step_edges_agree_across_thread_counts() {
    let mut with_inf = ring(6);
    with_inf.push(2, 4, f64::INFINITY);
    let mut with_nan = ring(6);
    with_nan.push(3, 5, f64::NAN);
    // Row 0's only step leads to row 1, which has no off-diagonal.
    let mut into_absorbing = Coo::new(4, 4);
    for (i, j, v) in [(0, 0, 2.0), (0, 1, -1.0), (1, 1, 3.0), (2, 2, 4.0)] {
        into_absorbing.push(i, j, v);
    }
    for (i, j, v) in [(2, 0, -1.0), (2, 3, 1.0), (3, 3, 4.0), (3, 2, -2.0)] {
        into_absorbing.push(i, j, v);
    }
    // A = I − shift at α = 0: C is the unit cycle, |w| stays 1, and only
    // the 10 000-step cap ends a chain.
    let n_cycle = 8;
    let mut cycle = Coo::new(n_cycle, n_cycle);
    for i in 0..n_cycle {
        cycle.push(i, i, 1.0);
        cycle.push(i, (i + 1) % n_cycle, -1.0);
    }
    let laplace = fd_laplace_2d(6);
    let tight = McmcParams::new(0.5, 0.1, 1e-6);
    let cases: [(&str, Csr, McmcParams); 5] = [
        ("delta = 1", laplace.clone(), McmcParams::new(0.5, 0.1, 1.0)),
        ("infinite off-diagonal", with_inf.to_csr(), tight),
        ("NaN off-diagonal", with_nan.to_csr(), tight),
        ("path into an absorbing row", into_absorbing.to_csr(), tight),
        ("unit cycle", cycle.to_csr(), McmcParams::new(0.0, 0.5, 0.5)),
    ];
    for (name, a, params) in &cases {
        let reference = outcome_in(1, a, *params);
        for threads in [1usize, 8] {
            let got = outcome_in(threads, a, *params);
            assert_eq!(got, reference, "{name}: at {threads} threads");
        }
        let (_, transitions, capped, blown_up) = reference;
        let chains = params.chains_per_row();
        match *name {
            "delta = 1" => {
                // S_k ≤ 2/3 < δ on every row: one transition per chain.
                assert_eq!(transitions, laplace.nrows() * chains);
                assert_eq!((capped, blown_up), (0, 0));
            }
            "infinite off-diagonal" | "NaN off-diagonal" => {
                // Every chain from the poisoned row blows up on its first
                // step, and so does every chain that reaches it.
                assert!(blown_up >= chains, "{name}: {blown_up} blow-ups");
                assert_eq!(capped, 0);
            }
            "path into an absorbing row" => assert_eq!((capped, blown_up), (0, 0)),
            _ => {
                assert_eq!(capped, n_cycle * chains);
                assert_eq!(transitions, n_cycle * chains * 10_000);
                assert_eq!(blown_up, 0);
            }
        }
    }
}

/// Strategy: a random diagonally-regularisable sparse square matrix.
fn arb_matrix() -> impl Strategy<Value = (usize, Vec<(usize, usize, f64)>)> {
    (3usize..24).prop_flat_map(|n| {
        let triplet = (0..n, 0..n, -4i32..=4);
        proptest::collection::vec(triplet, 0..96).prop_map(move |ts| {
            (
                n,
                ts.into_iter()
                    .map(|(i, j, e)| (i, j, (e as f64) * 0.7 + 0.1))
                    .collect(),
            )
        })
    })
}

proptest! {
    /// Thread-count identity as a property: for arbitrary sparse structure
    /// (absorbing rows, heavy rows, disconnected blocks included), a build
    /// and an all-dirty rebuild are bit-identical at 1 and 8 threads.
    #[test]
    fn build_and_all_dirty_rebuild_agree_bitwise((n, ts) in arb_matrix()) {
        let mut coo = Coo::new(n, n);
        // A dominant diagonal keeps the splitting contractive so walks
        // terminate fast whatever the random pattern.
        for i in 0..n {
            coo.push(i, i, 6.0);
        }
        for (i, j, v) in ts {
            if i != j {
                coo.push(i, j, v);
            }
        }
        let a = coo.to_csr();
        let params = McmcParams::new(0.5, 0.25, 1e-3);
        let reference = build(&a, params);
        let all: Vec<usize> = (0..n).collect();
        let builder = McmcInverse::new(BuildConfig::default());
        for threads in [1usize, 8] {
            let built = in_pool(threads, || build(&a, params));
            prop_assert_eq!(&built, &reference, "build at {} threads", threads);
            let rebuilt = in_pool(threads, || {
                let mut out = builder.build(&a, params);
                builder.rebuild_rows(&mut out, &a, &all, params);
                out.precond.matrix().clone()
            });
            prop_assert_eq!(&rebuilt, &reference, "all-dirty rebuild at {} threads", threads);
        }
    }
}
