//! Builds through the walk loop: **bit-identical** at any thread count,
//! and `rebuild_rows` with every row dirty is a fresh build. The engine-name
//! and ending-step edge tests live in `tests/determinism.rs`; the unit
//! tests in `walk.rs` hold the loop itself to a draw-then-decide reference.
//!
//! Per-chain `(seed, row, chain)` RNG streams are what make this hold;
//! these tests are the tripwire for any change that silently reorders
//! draws or floating-point adds.

use mcmcmi::matgen::{fd_laplace_2d, pdd_real_sparse, unsteady_adv_diff, AdvDiffOrder};
use mcmcmi::mcmc::{BuildConfig, McmcInverse, McmcParams};
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
