//! MCMC preconditioner build cost vs (ε, δ): the work scales with the chain
//! count (from ε) and walk length (from δ) — the cost model behind the
//! paper's "shorter preconditioner computation for larger ε and δ".
//!
//! Plus the two parts of a guarded build that are not walks, on the
//! ledger's memory-bound operator at 1 and 2 threads: deriving the
//! splitting (`mcmc/walkmatrix_setup`) and probing it
//! (`mcmc/spectral_probe`) — the quick in-workspace check on what the
//! ledger reports as `mcmc.walkmatrix_setup_s` / `mcmc.spectral_probe_s`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcmcmi_matgen::{fd_laplace_2d, pdd_real_sparse_scaled};
use mcmcmi_mcmc::{BuildConfig, McmcInverse, McmcParams, SafeguardConfig, WalkMatrix};

fn bench_build(c: &mut Criterion) {
    let a = fd_laplace_2d(16); // n = 225, the paper's smallest Laplacian
    let builder = McmcInverse::new(BuildConfig::default());
    let mut group = c.benchmark_group("mcmc_build");
    for (label, eps, delta) in [
        ("eps=1/2,delta=1/2", 0.5, 0.5),
        ("eps=1/16,delta=1/2", 0.0625, 0.5),
        ("eps=1/2,delta=1/16", 0.5, 0.0625),
        ("eps=1/16,delta=1/16", 0.0625, 0.0625),
    ] {
        group.bench_function(BenchmarkId::new("laplace16", label), |b| {
            let params = McmcParams::new(1.0, eps, delta);
            b.iter(|| builder.build(&a, params));
        });
    }
    group.finish();
}

fn bench_setup_and_probe(c: &mut Criterion) {
    let a = pdd_real_sparse_scaled(65536, 91, 0);
    let walk = WalkMatrix::from_perturbed(&a, 1.0);
    let probe_iters = SafeguardConfig::default().probe_iters;
    let mut group = c.benchmark_group("mcmc");
    for threads in [1usize, 2] {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        group.bench_function(BenchmarkId::new("walkmatrix_setup", threads), |b| {
            b.iter(|| pool.install(|| WalkMatrix::from_perturbed(&a, 1.0)));
        });
        group.bench_function(BenchmarkId::new("spectral_probe", threads), |b| {
            b.iter(|| pool.install(|| walk.abs_spectral_radius_estimate(probe_iters)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_build, bench_setup_and_probe);
criterion_main!(benches);
