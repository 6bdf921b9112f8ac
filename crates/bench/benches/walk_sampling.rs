//! Per-transition sampling cost: the library's O(1) alias method vs the
//! O(log nnz_row) inverse-CDF binary search it replaced (the bench crate's
//! [`InvCdfSampler`] baseline), chain-following over Table-1-class
//! operators.
//!
//! Each bench iteration advances a persistent random walk by `STEPS`
//! transitions (absorbing rows restart the chain), so the printed time is
//! `STEPS ×` the per-transition cost — divide by 1024 for ns/transition.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mcmcmi_bench::InvCdfSampler;
use mcmcmi_matgen::{stretched_climate_operator, PaperMatrix};
use mcmcmi_mcmc::WalkMatrix;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::hint::black_box;

const STEPS: usize = 1024;

fn bench_sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("walk_sampling");
    let cases = [
        // ~91 nnz/row wide-stencil operator (NonsymR3A11 class, scaled down).
        ("climate", stretched_climate_operator(13, 46, 22, 1.0)),
        // Plasma-physics FEM surrogate from Table 1.
        ("a00512", PaperMatrix::A00512.generate()),
    ];
    for (name, a) in cases {
        let w = WalkMatrix::from_perturbed(&a, 0.5);
        let invcdf = InvCdfSampler::new(&w);
        for (sampler, alias) in [("alias", true), ("invcdf", false)] {
            let mut rng = ChaCha8Rng::seed_from_u64(42);
            let mut k = 0usize;
            group.bench_function(BenchmarkId::new(sampler, name), |b| {
                b.iter(|| {
                    for _ in 0..STEPS {
                        let (rs, re) = w.row_range(k);
                        if rs == re {
                            k = 0;
                            continue;
                        }
                        let (j, mult) = if alias {
                            w.sample_transition(k, &mut rng)
                        } else {
                            invcdf.sample_transition(&w, k, &mut rng)
                        };
                        black_box(mult);
                        k = j;
                    }
                    k
                });
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_sampling);
criterion_main!(benches);
