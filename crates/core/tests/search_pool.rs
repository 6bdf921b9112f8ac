//! The recommender's multi-start searches run their starts across the
//! rayon pool. What they return may not depend on that: `predicted_min`,
//! `recommend` (α, ε, δ, EI) and the `surrogate_evals` count must be the
//! same bits under pools of 1, 2 and 8, and equal to the serial loop on
//! one compiled head (`lbfgsb_minimize` from each start, `propose_best`).

use mcmcmi_bayesopt::{
    lbfgsb_minimize, propose_best, random_starts, ProposeConfig, SurrogateModel,
};
use mcmcmi_core::pipeline::RecommenderSnapshot;
use mcmcmi_core::{
    matrix_features, GnnSurrogateAdapter, MeasureConfig, MeasurementRunner, PaperDataset,
    Recommender,
};
use mcmcmi_gnn::{MatrixGraph, Surrogate, SurrogateConfig, TrainConfig};
use mcmcmi_krylov::{SolveOptions, SolverType};
use mcmcmi_matgen::{fd_laplace_2d, laplace_1d, pdd_real_sparse};
use mcmcmi_mcmc::McmcParams;
use mcmcmi_sparse::Csr;

const POOLS: [usize; 3] = [1, 2, 8];
const SOLVER: SolverType = SolverType::Gmres;
const XI: f64 = 0.05;

fn in_pool<R: Send>(threads: usize, f: impl FnOnce() -> R + Send) -> R {
    let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build();
    pool.expect("a pool").install(f)
}

fn trained_snapshot() -> RecommenderSnapshot {
    let matrices: Vec<(String, Csr, bool)> = vec![
        ("lap".into(), laplace_1d(24), true),
        ("pdd".into(), pdd_real_sparse(32, 2), false),
    ];
    let runner = MeasurementRunner::new(MeasureConfig {
        solve: SolveOptions {
            tol: 1e-6,
            max_iter: 300,
            restart: 30,
            ..Default::default()
        },
    });
    let ds = PaperDataset::build(&runner, &matrices, 1, 0, 0);
    Recommender::fit(
        &ds,
        &matrices,
        SurrogateConfig::lite(mcmcmi_core::features::N_MATRIX_FEATURES, 6),
        TrainConfig {
            epochs: 4,
            patience: 0,
            ..Default::default()
        },
    )
    .to_snapshot()
}

/// `pmin`, `recommend`'s (α, ε, δ, EI) as raw bits, and the eval count.
fn bits(pmin: f64, p: McmcParams, ei: f64, evals: usize) -> (Vec<u64>, usize) {
    let vals = [pmin, p.alpha, p.eps, p.delta, ei];
    (vals.iter().map(|v| v.to_bits()).collect(), evals)
}

/// The searches through an `OperatorContext`, inside a pool of `threads`.
fn pooled(snap: &RecommenderSnapshot, a: &Csr, seed: u64, threads: usize) -> (Vec<u64>, usize) {
    in_pool(threads, || {
        let mut rec = Recommender::from_snapshot(snap.clone());
        let mut ctx = rec.context(a);
        let pmin = ctx.predicted_min(SOLVER, seed);
        let (p, ei) = ctx.recommend(SOLVER, pmin, XI, seed);
        bits(pmin, p, ei, ctx.surrogate_evals())
    })
}

/// The same searches one start after another on a single compiled head.
fn serial(snap: &RecommenderSnapshot, a: &Csr, seed: u64) -> (Vec<u64>, usize) {
    let surrogate = Surrogate::from_snapshot(snap.surrogate.clone());
    let h_g = surrogate.embed_graph(&MatrixGraph::from_csr(a));
    let xa = snap.xa_std.transform(&matrix_features(a));
    let mut head = surrogate.compile_head(&h_g, &xa);
    let mut adapter = GnnSurrogateAdapter::new(&mut head, &snap.xm_std, SOLVER);
    let (lo, hi) = McmcParams::search_box();
    let mut pmin = f64::INFINITY;
    for x0 in random_starts(&lo, &hi, 12, seed) {
        let objective = |x: &[f64]| {
            let (mu, _, dmu, _) = adapter.predict_grad(x);
            (mu, dmu)
        };
        pmin = pmin.min(lbfgsb_minimize(objective, &x0, &lo, &hi, 100).f);
    }
    let cfg = ProposeConfig { xi: XI, seed };
    let (x, ei) = propose_best(&mut adapter, pmin, &lo, &hi, 16, cfg);
    bits(pmin, McmcParams::from_clamped(&x), ei, head.grad_evals())
}

#[test]
fn searches_return_the_same_bits_under_every_pool() {
    let snap = trained_snapshot();
    for (name, a) in [
        ("pdd48", pdd_real_sparse(48, 5)),
        ("lap2d8", fd_laplace_2d(8)),
    ] {
        for seed in [0u64, 7] {
            let want = serial(&snap, &a, seed);
            assert!(want.1 > 0, "{name}/{seed}: no gradient evaluation counted");
            for threads in POOLS {
                assert_eq!(
                    pooled(&snap, &a, seed, threads),
                    want,
                    "{name}/{seed} under a pool of {threads}"
                );
            }
        }
    }
}
