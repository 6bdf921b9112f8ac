//! Preconditioner-apply microbenchmarks: f64 vs f32 vs compressed-f32
//! storage of the MCMC approximate inverse, at batch widths k ∈ {1, 8}.
//!
//! The apply phase is one sparse multiply per Krylov iteration — the
//! steady-state cost the compression policy exists to shrink. Three
//! operators over the same build: the full f64 inverse (baseline), the
//! same pattern demoted to f32 (value bandwidth halved, f64 accumulation),
//! and a drop-tolerance-sparsified f32 operator (fewer entries *and*
//! narrower values).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcmcmi_krylov::Preconditioner;
use mcmcmi_matgen::{fd_laplace_2d, PaperMatrix};
use mcmcmi_mcmc::{compress, BuildConfig, CompressionPolicy, McmcInverse, McmcParams};
use std::hint::black_box;

fn bench_precond_apply(c: &mut Criterion) {
    let mut group = c.benchmark_group("precond_apply");
    // a_00512 and pdd256 have droppable Monte-Carlo tails; the Laplacian
    // rides along as the all-signal control.
    let cases = [
        ("a_00512", PaperMatrix::A00512.generate()),
        ("pdd_n256", PaperMatrix::PddRealSparseN256.generate()),
        ("laplace_2d_h48", fd_laplace_2d(48)),
    ];
    for (name, a) in &cases {
        let n = a.nrows();
        let built =
            McmcInverse::new(BuildConfig::default()).build(a, McmcParams::new(0.1, 0.125, 0.0625));
        let p64 = built.precond.clone();
        let (p32, _) = compress(p64.matrix(), &CompressionPolicy::f32(0.0));
        let (pc32, report) = compress(p64.matrix(), &CompressionPolicy::f32(5e-2));
        let kept_pct = (report.nnz_kept * 100.0).round();
        for k in [1usize, 8] {
            let r: Vec<f64> = (0..n * k).map(|t| (t as f64 * 0.0047).sin()).collect();
            let mut z = vec![0.0; n * k];
            group.bench_function(BenchmarkId::new(format!("f64/{name}"), k), |b| {
                b.iter(|| p64.apply_block(black_box(&r), k, &mut z));
            });
            group.bench_function(BenchmarkId::new(format!("f32/{name}"), k), |b| {
                b.iter(|| p32.apply_block(black_box(&r), k, &mut z));
            });
            group.bench_function(
                BenchmarkId::new(format!("f32-drop5e2-{kept_pct}pct/{name}"), k),
                |b| b.iter(|| pc32.apply_block(black_box(&r), k, &mut z)),
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_precond_apply);
criterion_main!(benches);
