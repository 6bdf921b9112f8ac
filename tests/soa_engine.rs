//! Cross-engine contract for the two walk engines: a lockstep SoA build
//! must be **bit-identical** to a scalar build — same CSR pattern and
//! values — at any thread count, whichever of them `BuildConfig::default()`
//! routes through, and `rebuild_rows` must preserve that identity when
//! every row is dirty.
//!
//! Per-chain `(seed, row, chain)` RNG streams plus the chain-major journal
//! flush are what make this hold; these tests are the tripwire for any
//! change that silently reorders draws or floating-point adds.

use mcmcmi::matgen::{fd_laplace_2d, pdd_real_sparse, unsteady_adv_diff, AdvDiffOrder};
use mcmcmi::mcmc::{BuildConfig, McmcInverse, McmcParams, WalkEngine};
use mcmcmi::sparse::{Coo, Csr};
use proptest::prelude::*;

fn build_with(engine: WalkEngine, a: &Csr, params: McmcParams) -> Csr {
    let builder = McmcInverse::new(BuildConfig {
        engine,
        ..Default::default()
    });
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
fn soa_build_bit_identical_to_scalar_across_thread_counts() {
    let mats: Vec<Csr> = vec![
        pdd_real_sparse(96, 7),
        fd_laplace_2d(10),
        unsteady_adv_diff(8, AdvDiffOrder::One),
    ];
    let params = McmcParams::new(0.5, 0.1, 1e-4);
    for (mi, a) in mats.iter().enumerate() {
        let reference = build_with(WalkEngine::Scalar, a, params);
        for threads in [1usize, 8] {
            let scalar = in_pool(threads, || build_with(WalkEngine::Scalar, a, params));
            let soa = in_pool(threads, || build_with(WalkEngine::Soa, a, params));
            assert_eq!(
                &scalar, &reference,
                "matrix {mi}: scalar build drifted at {threads} threads"
            );
            assert_eq!(
                &soa, &reference,
                "matrix {mi}: SoA build differs from scalar at {threads} threads"
            );
        }
    }
}

#[test]
fn both_engines_match_each_other_and_the_default_end_to_end() {
    // Which engine `BuildConfig::default()` names is a measured choice, not
    // a contract; what callers rely on is that the default build equals an
    // explicit build on either engine bit for bit, so moving the default is
    // behaviour-neutral for every downstream user.
    let a = fd_laplace_2d(12);
    let params = McmcParams::new(1.0, 0.125, 0.125);
    let default_build = McmcInverse::new(BuildConfig::default())
        .build(&a, params)
        .precond
        .matrix()
        .clone();
    let scalar = build_with(WalkEngine::Scalar, &a, params);
    let soa = build_with(WalkEngine::Soa, &a, params);
    assert_eq!(soa, scalar);
    assert_eq!(default_build, scalar);
}

#[test]
fn all_dirty_rebuild_on_soa_engine_is_bit_identical_at_any_thread_count() {
    let a = pdd_real_sparse(80, 6);
    let n = a.nrows();
    let params = McmcParams::new(0.5, 0.1, 1e-4);
    let all: Vec<usize> = (0..n).collect();
    let reference = build_with(WalkEngine::Scalar, &a, params);
    for engine in [WalkEngine::Scalar, WalkEngine::Soa] {
        let builder = McmcInverse::new(BuildConfig {
            engine,
            ..Default::default()
        });
        for threads in [1usize, 8] {
            let rebuilt = in_pool(threads, || {
                let mut out = builder.build(&a, params);
                builder.rebuild_rows(&mut out, &a, &all, params);
                out.precond.matrix().clone()
            });
            assert_eq!(
                &rebuilt, &reference,
                "{engine:?} all-dirty rebuild at {threads} threads"
            );
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
    /// Engine equivalence as a property: for arbitrary sparse structure
    /// (absorbing rows, heavy rows, disconnected blocks included), scalar
    /// and SoA builds — and an all-dirty SoA rebuild — are bit-identical
    /// at 1 and 8 threads.
    #[test]
    fn soa_scalar_and_all_dirty_rebuild_agree_bitwise((n, ts) in arb_matrix()) {
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
        let reference = build_with(WalkEngine::Scalar, &a, params);
        let all: Vec<usize> = (0..n).collect();
        for threads in [1usize, 8] {
            let soa = in_pool(threads, || build_with(WalkEngine::Soa, &a, params));
            prop_assert_eq!(&soa, &reference, "SoA build at {} threads", threads);
            let builder = McmcInverse::new(BuildConfig {
                engine: WalkEngine::Soa,
                ..Default::default()
            });
            let rebuilt = in_pool(threads, || {
                let mut out = builder.build(&a, params);
                builder.rebuild_rows(&mut out, &a, &all, params);
                out.precond.matrix().clone()
            });
            prop_assert_eq!(&rebuilt, &reference, "all-dirty rebuild at {} threads", threads);
        }
    }
}
