//! Golden bits of `build_safeguarded`, captured at commit `d65ec6d` (the
//! parent of the build-pipeline restructuring: one splitting per safeguard
//! attempt, parallel table set-up and probe, slimmer `WalkMatrix`, scalar
//! default engine). The cross-engine and thread-count suites prove the
//! implementations agree *with each other*; this one pins them to what the
//! library produced before the pipeline changed, so a restructuring that
//! moves every path by the same bit is still caught.

use mcmcmi::matgen::{fd_laplace_2d, pdd_real_sparse, unsteady_adv_diff, AdvDiffOrder};
use mcmcmi::mcmc::{BuildConfig, McmcInverse, McmcParams, SafeguardConfig, WalkEngine};
use mcmcmi::sparse::{Coo, Csr};

/// Strongly non-dominant ring: the probe rejects the requested α and the
/// safeguard has to walk the backoff ladder before any chain runs.
fn nondominant_ring(n: usize) -> Csr {
    let mut coo = Coo::new(n, n);
    for i in 0..n {
        coo.push(i, i, 1.0);
        coo.push(i, (i + 1) % n, 2.5);
        coo.push(i, (i + 5) % n, -2.5);
    }
    coo.to_csr()
}

/// Everything a guarded build reports that depends on the pipeline's bits.
#[derive(Debug, PartialEq)]
struct Golden {
    case: &'static str,
    seed: u64,
    precond_fingerprint: u64,
    transitions: usize,
    capped_chains: usize,
    blown_up_chains: usize,
    alpha_trail_bits: Vec<u64>,
    rho_estimate_bits: u64,
}

fn golden(
    case: &'static str,
    seed: u64,
    precond_fingerprint: u64,
    counts: [usize; 3],
    alpha_trail_bits: &[u64],
    rho_estimate_bits: u64,
) -> Golden {
    Golden {
        case,
        seed,
        precond_fingerprint,
        transitions: counts[0],
        capped_chains: counts[1],
        blown_up_chains: counts[2],
        alpha_trail_bits: alpha_trail_bits.to_vec(),
        rho_estimate_bits,
    }
}

fn cases() -> Vec<(&'static str, Csr, McmcParams)> {
    let tuned = McmcParams::new(0.5, 0.125, 0.0625);
    vec![
        ("fd_laplace_2d(16)", fd_laplace_2d(16), tuned),
        ("pdd_real_sparse(96, 3)", pdd_real_sparse(96, 3), tuned),
        (
            "unsteady_adv_diff(8, One)",
            unsteady_adv_diff(8, AdvDiffOrder::One),
            tuned,
        ),
        (
            "nondominant_ring(32)",
            nondominant_ring(32),
            McmcParams::new(0.001, 0.25, 0.125),
        ),
    ]
}

fn observe(
    case: &'static str,
    a: &Csr,
    params: McmcParams,
    seed: u64,
    engine: WalkEngine,
) -> Golden {
    let built = McmcInverse::new(BuildConfig { seed, engine })
        .build_safeguarded(a, params, &SafeguardConfig::default())
        .expect("every golden case builds");
    Golden {
        case,
        seed,
        precond_fingerprint: built.outcome.precond.matrix().fingerprint(),
        transitions: built.outcome.transitions,
        capped_chains: built.outcome.capped_chains,
        blown_up_chains: built.outcome.blown_up_chains,
        alpha_trail_bits: built.attempts.iter().map(|t| t.alpha.to_bits()).collect(),
        rho_estimate_bits: built.rho_estimate.to_bits(),
    }
}

#[test]
fn guarded_builds_reproduce_parent_commit_bits_on_both_engines() {
    let expected: Vec<Golden> = vec![
        golden(
            "fd_laplace_2d(16)",
            0,
            0x7a09014bd95a3efe,
            [43094, 0, 0],
            &[0x3fe0000000000000],
            0x3fe52e3122df3310,
        ),
        golden(
            "fd_laplace_2d(16)",
            7,
            0xf80b87f06d802591,
            [43056, 0, 0],
            &[0x3fe0000000000000],
            0x3fe52e3122df3310,
        ),
        golden(
            "pdd_real_sparse(96, 3)",
            0,
            0xdf8194360fbeec60,
            [14265, 0, 0],
            &[0x3fe0000000000000],
            0x3fe13d2e49644fa0,
        ),
        golden(
            "pdd_real_sparse(96, 3)",
            7,
            0xcc3e898b005cb96e,
            [14256, 0, 0],
            &[0x3fe0000000000000],
            0x3fe13d2e49644fa0,
        ),
        golden(
            "unsteady_adv_diff(8, One)",
            0,
            0x8f1793cfea538f3e,
            [17620, 0, 0],
            &[0x3fe0000000000000, 0x3ff0000000000000, 0x4000000000000000],
            0x3fe7c08f169b8a48,
        ),
        golden(
            "unsteady_adv_diff(8, One)",
            7,
            0x4670cdc1cce6d881,
            [17715, 0, 0],
            &[0x3fe0000000000000, 0x3ff0000000000000, 0x4000000000000000],
            0x3fe7c08f169b8a48,
        ),
        golden(
            "nondominant_ring(32)",
            0,
            0x4efc95a798c03aec,
            [1536, 0, 0],
            &[
                0x3f50624dd2f1a9fc,
                0x3fb999999999999a,
                0x3fc999999999999a,
                0x3fd999999999999a,
                0x3fe999999999999a,
                0x3ff999999999999a,
                0x400999999999999a,
                0x401999999999999a,
            ],
            0x3fe59f22983759f0,
        ),
        golden(
            "nondominant_ring(32)",
            7,
            0xd5d5dd7c4a5a5f85,
            [1536, 0, 0],
            &[
                0x3f50624dd2f1a9fc,
                0x3fb999999999999a,
                0x3fc999999999999a,
                0x3fd999999999999a,
                0x3fe999999999999a,
                0x3ff999999999999a,
                0x400999999999999a,
                0x401999999999999a,
            ],
            0x3fe59f22983759f0,
        ),
    ];
    let mut expected = expected.into_iter();
    for (case, a, params) in cases() {
        for seed in [0u64, 7] {
            let want = expected.next().expect("one golden row per (case, seed)");
            for engine in [WalkEngine::Scalar, WalkEngine::Soa] {
                let got = observe(case, &a, params, seed, engine);
                assert_eq!(got, want, "{engine:?} engine");
            }
        }
    }
    assert!(expected.next().is_none(), "unused golden rows");
}

/// Transition budget per row of the regenerative goldens.
const REGEN_BUDGET: usize = 500;

/// Fingerprint of the regenerative preconditioner of `a` at the case's α.
fn observe_regenerative(a: &Csr, alpha: f64, seed: u64) -> u64 {
    let builder = McmcInverse::new(BuildConfig {
        seed,
        ..BuildConfig::default()
    });
    builder
        .build_regenerative(a, alpha, REGEN_BUDGET)
        .matrix()
        .fingerprint()
}

/// The regenerative scheme's scalar loop, pinned before its rows moved onto
/// the builder's harvest and CSR assembly.
#[test]
fn regenerative_builds_reproduce_scalar_loop_bits() {
    let expected: [(&str, u64, u64); 8] = [
        ("fd_laplace_2d(16)", 0, 0xdc06aacbc9ae54ab),
        ("fd_laplace_2d(16)", 7, 0x3c72a9b18af64063),
        ("pdd_real_sparse(96, 3)", 0, 0x69dcd4e29b195d1b),
        ("pdd_real_sparse(96, 3)", 7, 0x29ce20ad88ab20d0),
        ("unsteady_adv_diff(8, One)", 0, 0x9c909d884863b165),
        ("unsteady_adv_diff(8, One)", 7, 0x60327938da68097b),
        ("nondominant_ring(32)", 0, 0x1167ee991cff58bc),
        ("nondominant_ring(32)", 7, 0xf652fbf1bb572c92),
    ];
    let mut expected = expected.into_iter();
    for (case, a, params) in cases() {
        for seed in [0u64, 7] {
            let want = expected.next().expect("one golden row per (case, seed)");
            let got = (case, seed, observe_regenerative(&a, params.alpha, seed));
            assert_eq!(got, want);
        }
    }
    assert!(expected.next().is_none(), "unused golden rows");
}

/// Prints the tables above in source form: how the golden rows were captured
/// (`cargo test --test golden_build -- --ignored --nocapture`; the guarded
/// rows at `d65ec6d`, the regenerative ones before their loop moved).
#[test]
#[ignore]
fn print_golden_rows() {
    for (case, a, params) in cases() {
        for seed in [0u64, 7] {
            let fingerprint = observe_regenerative(&a, params.alpha, seed);
            println!("({case:?}, {seed}, {fingerprint:#018x}),");
        }
    }
    for (case, a, params) in cases() {
        for seed in [0u64, 7] {
            let g = observe(case, &a, params, seed, WalkEngine::Scalar);
            assert_eq!(g, observe(case, &a, params, seed, WalkEngine::Soa));
            let trail: Vec<String> = g
                .alpha_trail_bits
                .iter()
                .map(|b| format!("{b:#018x}"))
                .collect();
            println!(
                "golden({:?}, {}, {:#018x}, [{}, {}, {}], &[{}], {:#018x}),",
                g.case,
                g.seed,
                g.precond_fingerprint,
                g.transitions,
                g.capped_chains,
                g.blown_up_chains,
                trail.join(", "),
                g.rho_estimate_bits
            );
        }
    }
}
