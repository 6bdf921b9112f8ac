//! Recorded bits of the TPE acquisition path.
//!
//! The sampler's unit tests check what TPE does (it beats random search,
//! it concentrates near the optimum), and the autotune goldens never leave
//! its start-up phase. This file pins how it does it: a sampler over a
//! mixed space with `n_startup` 4 is fed 12 seeded observations, and the
//! raw bits of its next 8 suggestions — each observed back before the next
//! is asked for — must match the table below at seeds 0 and 7. A change to
//! the good-fraction γ, the candidate count, the Parzen windows or the RNG
//! draw order moves them.

use mcmcmi_hpo::{ParamKind, SearchSpace, TpeConfig, TpeSampler};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn space() -> SearchSpace {
    SearchSpace::new()
        .add("lr", ParamKind::LogUniform { lo: 1e-4, hi: 1e-1 })
        .add("x", ParamKind::Uniform { lo: -2.0, hi: 3.0 })
        .add("c", ParamKind::Choice { n: 3 })
}

/// A smooth bowl in (log lr, x) with a per-category offset.
fn loss(p: &[f64]) -> f64 {
    (p[0].log10() + 2.5).powi(2) + (p[1] - 0.4).powi(2) + [0.0, 0.35, 0.7][p[2] as usize]
}

/// Bits of the 8 suggestions after 12 seeded observations.
fn suggestion_bits(seed: u64) -> Vec<[u64; 3]> {
    let space = space();
    let mut draws = ChaCha8Rng::seed_from_u64(1000 + seed);
    let mut tpe = TpeSampler::new(space.clone(), TpeConfig { n_startup: 4, seed });
    for _ in 0..12 {
        let p = space.sample(&mut draws);
        let l = loss(&p);
        tpe.observe(p, l);
    }
    (0..8)
        .map(|_| {
            let s = tpe.suggest();
            let bits = [s[0].to_bits(), s[1].to_bits(), s[2].to_bits()];
            let l = loss(&s);
            tpe.observe(s, l);
            bits
        })
        .collect()
}

const SEED_0: [[u64; 3]; 8] = [
    [0x3f7b610ab47d605a, 0x3fe236337cace76e, 0x4000000000000000],
    [0x3f8ad2184403f4df, 0x3fe83d9973b52afc, 0x4000000000000000],
    [0x3f9be023a1fc21ec, 0x3fd619e6ecfb0afc, 0x4000000000000000],
    [0x3fb64d8b2eddab09, 0x3fe677cae4685212, 0x4000000000000000],
    [0x3f87eb95838770d0, 0x3fcc7dd5dbc60cb0, 0x4000000000000000],
    [0x3fa2803e97881878, 0x3fe2198493d02be3, 0x4000000000000000],
    [0x3f91c28b874351b6, 0x3fe24c0958536396, 0x4000000000000000],
    [0x3f81be6f29bf0b70, 0x3feae74c568722ba, 0x4000000000000000],
];

const SEED_7: [[u64; 3]; 8] = [
    [0x3f65833c09794d1d, 0x3fe0adb3f07b7cd4, 0x0000000000000000],
    [0x3f6dfdd1a777855a, 0x3ff40810b5eb0f82, 0x0000000000000000],
    [0x3f553dc7b7e57758, 0x3fd5d9dbe1fb8ceb, 0x0000000000000000],
    [0x3f7b716101ef8840, 0x3fd158a626aeb0ea, 0x0000000000000000],
    [0x3f7afadbadcf44a3, 0x3fe3e30c19e08cfa, 0x0000000000000000],
    [0x3f72aa1d9b6daea6, 0x3fe358e9133f8024, 0x0000000000000000],
    [0x3f7159512791f51c, 0x3fed3cc78293cbda, 0x0000000000000000],
    [0x3f71b1c23d24dc1e, 0x3fe138cbb9ed247e, 0x0000000000000000],
];

#[test]
fn tpe_suggestions_reproduce_the_recorded_bits() {
    let got = [suggestion_bits(0), suggestion_bits(7)];
    if got[0] != SEED_0 || got[1] != SEED_7 {
        let table = |rows: &[[u64; 3]]| -> String {
            rows.iter()
                .map(|r| format!("    [{:#018x}, {:#018x}, {:#018x}],\n", r[0], r[1], r[2]))
                .collect()
        };
        panic!(
            "TPE suggestions moved; now\nconst SEED_0: [[u64; 3]; 8] = [\n{}];\n\nconst SEED_7: [[u64; 3]; 8] = [\n{}];",
            table(&got[0]),
            table(&got[1])
        );
    }
}
