//! Cross-commit goldens for the Krylov drivers.
//!
//! The other suites prove the loops agree *with each other* inside one
//! commit (lockstep ≡ scalar, FGMRES(identity) ≡ GMRES, any thread count).
//! Nothing there notices when a refactor moves a driver's bits from one
//! commit to the next. This suite does: each case solves through the public
//! entry points and digests everything a caller can observe — `x` bits,
//! `iterations`, `rel_residual` bits, `initial_rel_residual` bits and the
//! `Debug` form of `outcome` (so the `NonFinite { what }` / `Breakdown`
//! labels are pinned too) — and compares against constants recorded from
//! the commit before the CG/FCG and GMRES/FGMRES loops were merged.
//!
//! A digest that moves means a bit moved. If that is intended (a numerics
//! change), the failing test prints the whole table as Rust source.

use mcmcmi_krylov::{
    solve_batch, solve_batch_resilient, CompressedPrecond, IdentityPrecond, JacobiPrecond,
    Preconditioner, RecoveryContext, RecoveryPolicy, RecoveryTrail, SolveOptions, SolveResult,
    SolverType, SparsePrecond,
};
use mcmcmi_matgen::{fd_laplace_2d, pdd_real_sparse};
use mcmcmi_mcmc::{BuildConfig, CompressionPolicy, McmcInverse, McmcParams};
use mcmcmi_sparse::{
    corrupt_rows, csr_eye, Coo, Csr, FaultKind, FaultSpec, FaultyBackend, KernelBackend,
};
use std::sync::atomic::{AtomicUsize, Ordering};

const SOLVERS: [SolverType; 5] = [
    SolverType::Cg,
    SolverType::FCg,
    SolverType::Gmres,
    SolverType::Fgmres,
    SolverType::BiCgStab,
];
const WIDTHS: [usize; 2] = [1, 3];
/// Widths that exactly fill one lockstep column tile of each size the fused
/// block sweeps use (2, 4, 8).
const TILE_WIDTHS: [usize; 3] = [2, 4, 8];

/// FNV-1a over the observable fields of every column's result, in order.
fn digest(results: &[SolveResult]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in results {
        for v in &r.x {
            eat(&v.to_bits().to_le_bytes());
        }
        eat(&(r.iterations as u64).to_le_bytes());
        eat(&r.rel_residual.to_bits().to_le_bytes());
        eat(&r.initial_rel_residual.to_bits().to_le_bytes());
        eat(format!("{:?}", r.outcome).as_bytes());
    }
    h
}

/// `k` right-hand sides of different smoothness, so lockstep columns retire
/// in different rounds.
fn rhs_set(n: usize, k: usize) -> Vec<Vec<f64>> {
    (0..k)
        .map(|c| {
            (0..n)
                .map(|i| (i as f64 * (0.31 + 0.07 * c as f64) + 0.4 * c as f64).sin())
                .collect()
        })
        .collect()
}

fn run<A: KernelBackend>(
    a: &A,
    rhs: &[Vec<f64>],
    precond: &dyn Preconditioner,
    solver: SolverType,
    opts: SolveOptions,
) -> u64 {
    digest(&solve_batch(a, rhs, precond, solver, opts))
}

/// Forwards to `inner`, except that the third application (single-vector and
/// block calls share the count) returns one NaN entry.
struct NanOnThirdApply<'a> {
    inner: &'a JacobiPrecond,
    applies: AtomicUsize,
}

impl NanOnThirdApply<'_> {
    fn poison(&self, z: &mut [f64]) {
        if self.applies.fetch_add(1, Ordering::Relaxed) == 2 {
            z[5] = f64::NAN;
        }
    }
}

impl Preconditioner for NanOnThirdApply<'_> {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        self.inner.apply(r, z);
        self.poison(z);
    }
    fn dim(&self) -> usize {
        self.inner.dim()
    }
    fn apply_block(&self, r: &[f64], k: usize, z: &mut [f64]) {
        self.inner.apply_block(r, k, z);
        self.poison(z);
    }
    fn order_dependent(&self) -> bool {
        true
    }
}

/// Every solver × width × preconditioner on one operator, default options.
fn grid(name: &str, a: &Csr, widths: &[usize], out: &mut Vec<(String, u64)>) {
    let n = a.nrows();
    let built = McmcInverse::new(BuildConfig {
        seed: 16,
        ..Default::default()
    })
    .build(a, McmcParams::new(0.1, 0.125, 0.0625));
    let symmetrized = built.precond.symmetrized();
    let (compressed, _) = built.compress(&CompressionPolicy::f32(1e-3));
    let identity = IdentityPrecond::new(n);
    let jacobi = JacobiPrecond::new(a);
    for solver in SOLVERS {
        // Classical CG needs a symmetric operator; FCG rides the same one so
        // the two stay comparable.
        let mcmc: &dyn Preconditioner = match solver {
            SolverType::Cg | SolverType::FCg => &symmetrized,
            _ => &built.precond,
        };
        let preconds: [(&str, &dyn Preconditioner); 4] = [
            ("identity", &identity),
            ("jacobi", &jacobi),
            ("mcmc", mcmc),
            ("mcmc-f32", &compressed),
        ];
        for &k in widths {
            let rhs = rhs_set(n, k);
            for (pname, p) in preconds {
                out.push((
                    format!("{name}/{solver:?}/w{k}/{pname}"),
                    run(a, &rhs, p, solver, SolveOptions::default()),
                ));
            }
        }
    }
}

/// Per driver: the exits a default solve does not reach.
fn edges(a: &Csr, widths: &[usize], out: &mut Vec<(String, u64)>) {
    let n = a.nrows();
    let jacobi = JacobiPrecond::new(a);
    for solver in SOLVERS {
        for &k in widths {
            let rhs = rhs_set(n, k);
            // Budget runs out mid-cycle (after one restart for the GMRES family).
            let capped = SolveOptions {
                max_iter: 7,
                restart: 5,
                ..Default::default()
            };
            out.push((
                format!("edge/{solver:?}/w{k}/max-iter"),
                run(a, &rhs, &jacobi, solver, capped),
            ));
            // Many short cycles; columns drift to different restart phases.
            let short = SolveOptions {
                restart: 5,
                ..Default::default()
            };
            out.push((
                format!("edge/{solver:?}/w{k}/restart-5"),
                run(a, &rhs, &jacobi, solver, short),
            ));
            // A zero column (alone at width one, between live ones at three).
            let mut with_zero = rhs.clone();
            with_zero[k / 2] = vec![0.0; n];
            out.push((
                format!("edge/{solver:?}/w{k}/zero-rhs"),
                run(a, &with_zero, &jacobi, solver, SolveOptions::default()),
            ));
            // A finite corruption of one matvec output, mid-solve.
            let faulty = FaultyBackend::new(
                a.clone(),
                vec![FaultSpec {
                    call: 3,
                    index: 5,
                    kind: FaultKind::Spike(1e3),
                }],
            );
            out.push((
                format!("edge/{solver:?}/w{k}/spike"),
                run(&faulty, &rhs, &jacobi, solver, SolveOptions::default()),
            ));
            // Non-finite values from the operator and from the preconditioner:
            // each short-recurrence driver's own `NonFinite { what }` labels.
            // (Not the GMRES family: when these constants were recorded its
            // NaN-filled iterate read as converged — the case
            // `tests/resilience.rs` now pins as `NonFinite`.)
            if !matches!(solver, SolverType::Gmres | SolverType::Fgmres) {
                let faulty = FaultyBackend::new(
                    a.clone(),
                    vec![FaultSpec {
                        call: 2,
                        index: 5,
                        kind: FaultKind::Inf,
                    }],
                );
                out.push((
                    format!("edge/{solver:?}/w{k}/inf-matvec"),
                    run(&faulty, &rhs, &jacobi, solver, SolveOptions::default()),
                ));
                let poisoned = NanOnThirdApply {
                    inner: &jacobi,
                    applies: AtomicUsize::new(0),
                };
                out.push((
                    format!("edge/{solver:?}/w{k}/nan-precond"),
                    run(a, &rhs, &poisoned, solver, SolveOptions::default()),
                ));
            }
            // A = I: the Krylov space is exhausted after one step (the GMRES
            // family's happy breakdown).
            out.push((
                format!("edge/{solver:?}/w{k}/one-step"),
                run(
                    &csr_eye(n),
                    &rhs,
                    &IdentityPrecond::new(n),
                    solver,
                    SolveOptions::default(),
                ),
            ));
        }
    }
}

/// Per driver and width, on `fd_laplace_2d(mesh)`: column 0 is an
/// eigenvector of the operator (and of its Jacobi-preconditioned form), so it
/// converges in the first round and rides out the rest of the solve masked
/// out beside columns that keep iterating.
fn early_retire(mesh: usize, widths: &[usize], out: &mut Vec<(String, u64)>) {
    let a = fd_laplace_2d(mesh);
    let (m, n) = (mesh - 1, a.nrows());
    let h = std::f64::consts::PI / mesh as f64;
    let eigenvector: Vec<f64> = (0..n)
        .map(|r| (h * (r / m + 1) as f64).sin() * (2.0 * h * (r % m + 1) as f64).sin())
        .collect();
    let jacobi = JacobiPrecond::new(&a);
    for solver in SOLVERS {
        for &k in widths {
            let mut rhs = rhs_set(n, k);
            rhs[0].clone_from(&eigenvector);
            let results = solve_batch(&a, &rhs, &jacobi, solver, SolveOptions::default());
            assert_eq!(
                results[0].iterations, 1,
                "{solver:?} w{k}: column 0 retires first"
            );
            out.push((
                format!("early/{solver:?}/w{k}/eigenvector"),
                digest(&results),
            ));
        }
    }
}

/// Compare `got` with `goldens` case by case; on any difference print the
/// whole new table as Rust source and fail.
fn assert_reproduces(got: &[(String, u64)], goldens: &[(&str, u64)]) {
    let moved: Vec<&str> = got
        .iter()
        .zip(goldens)
        .filter(|((name, d), (gname, gd))| name != gname || d != gd)
        .map(|((name, _), _)| name.as_str())
        .collect();
    if got.len() != goldens.len() || !moved.is_empty() {
        for (name, d) in got {
            println!("    (\"{name}\", {d:#018x}),");
        }
        panic!(
            "{} of {} digests moved (table above): {moved:?}",
            moved.len().max(got.len().abs_diff(goldens.len())),
            goldens.len()
        );
    }
}

#[test]
fn driver_results_reproduce_the_recorded_bits() {
    let mut got = Vec::new();
    let laplace = fd_laplace_2d(12);
    grid("laplace", &laplace, &WIDTHS, &mut got);
    grid("pdd", &pdd_real_sparse(128, 7), &WIDTHS, &mut got);
    edges(&laplace, &WIDTHS, &mut got);
    assert_reproduces(&got, GOLDENS);
}

/// The same cases at the widths that fill one column tile of each size the
/// fused block sweeps use, plus a column that retires in the first round.
#[test]
fn tile_width_results_reproduce_the_recorded_bits() {
    let mut got = Vec::new();
    let laplace = fd_laplace_2d(12);
    grid("laplace", &laplace, &TILE_WIDTHS, &mut got);
    grid("pdd", &pdd_real_sparse(128, 7), &TILE_WIDTHS, &mut got);
    edges(&laplace, &TILE_WIDTHS, &mut got);
    early_retire(12, &TILE_WIDTHS, &mut got);
    assert_reproduces(&got, TILE_GOLDENS);
}

/// The recovery ladder as every shipped caller runs it — default policy, no
/// context — plus the one context field a session owner can fill by itself
/// and the disabled policy. One line per case: its name, the digest of every
/// column's result (healthy siblings included, so a rung that touches a
/// column it should not moves it) and the serialised `RecoveryTrail`.
fn ladder_table() -> String {
    let a = fd_laplace_2d(10);
    let n = a.nrows();
    let jacobi = JacobiPrecond::new(&a);
    let (opts, policy) = (SolveOptions::default(), RecoveryPolicy::default());
    let mut table = String::from("\n");
    let mut row = |name: &str, (results, trail): (Vec<SolveResult>, RecoveryTrail)| {
        let json = serde_json::to_string(&trail).expect("trail serialises");
        table += &format!("{name} {:#018x} {json}\n", digest(&results));
    };
    // A NaN in the fifth matvec. At width three, element 7 of the row-major
    // block is row 2 of column 1: one failing column between healthy ones.
    for solver in [SolverType::Cg, SolverType::Gmres, SolverType::BiCgStab] {
        for k in WIDTHS {
            let faulty = FaultyBackend::new(a.clone(), vec![FaultSpec::nan(4, 7)]);
            let (rhs, ctx) = (rhs_set(n, k), RecoveryContext::none());
            let got = solve_batch_resilient(&faulty, &rhs, &jacobi, solver, opts, &policy, ctx);
            row(&format!("nan-matvec/{solver:?}/w{k}"), got);
        }
    }
    // pᵀAp = 0 on CG's first direction and on FCG's: the swap fails too, the
    // unpreconditioned floor solves it.
    let mut coo = Coo::new(2, 2);
    coo.push(0, 1, 1.0);
    coo.push(1, 0, 1.0);
    let (antidiag, e0, id2) = (coo.to_csr(), [vec![1.0, 0.0]], IdentityPrecond::new(2));
    for (name, policy) in [
        ("default", policy),
        ("disabled", RecoveryPolicy::disabled()),
    ] {
        let ctx = RecoveryContext::none();
        let got = solve_batch_resilient(&antidiag, &e0, &id2, SolverType::Cg, opts, &policy, ctx);
        row(&format!("antidiag/Cg/{name}"), got);
    }
    // An f32 preconditioner with a NaN row: rung 1 when its full-precision
    // parent is at hand, the remaining rungs when it is not.
    let mut p = csr_eye(n);
    corrupt_rows(&mut p, &[n / 2], f64::NAN);
    let compressed = CompressedPrecond::F32(SparsePrecond::new(p).to_f32());
    let full = IdentityPrecond::new(n);
    for (name, full_precision) in [("parent", Some(&full as _)), ("no-context", None)] {
        for k in WIDTHS {
            let (rhs, mut ctx) = (rhs_set(n, k), RecoveryContext::none());
            ctx.full_precision = full_precision;
            let got =
                solve_batch_resilient(&a, &rhs, &compressed, SolverType::Cg, opts, &policy, ctx);
            row(&format!("nan-row-f32/Cg/w{k}/{name}"), got);
        }
    }
    table
}

#[test]
fn ladder_trails_and_results_reproduce_the_recorded_bits() {
    let got = ladder_table();
    assert!(
        got == LADDER_GOLDENS,
        "the ladder moved; it now gives:{got}"
    );
}

/// Recorded at the parent of the commit that took the two hook rungs out of
/// the ladder; `case digest trail`, in run order.
const LADDER_GOLDENS: &str = r#"
nan-matvec/Cg/w1 0xe067b745218bc9a2 {"steps":[{"step":"FlexibleSwap","trigger":{"NonFinite":{"what":"pᵀAp"}},"solver":"FCg","iterations":27,"recovered":true}],"recovered":true}
nan-matvec/Cg/w3 0x2b7b8d51a54fe84f {"steps":[{"step":"FlexibleSwap","trigger":{"NonFinite":{"what":"pᵀAp"}},"solver":"FCg","iterations":27,"recovered":true}],"recovered":true}
nan-matvec/Gmres/w1 0x188dfe590fcdc956 {"steps":[{"step":"FlexibleSwap","trigger":{"NonFinite":{"what":"Hessenberg norm"}},"solver":"Fgmres","iterations":27,"recovered":true}],"recovered":true}
nan-matvec/Gmres/w3 0x96d7b50439a15e97 {"steps":[{"step":"FlexibleSwap","trigger":{"NonFinite":{"what":"Hessenberg norm"}},"solver":"Fgmres","iterations":27,"recovered":true}],"recovered":true}
nan-matvec/BiCgStab/w1 0x188dfe590fcdc956 {"steps":[{"step":"FlexibleSwap","trigger":{"NonFinite":{"what":"⟨r̂, v⟩"}},"solver":"Fgmres","iterations":27,"recovered":true}],"recovered":true}
nan-matvec/BiCgStab/w3 0x51acc85b5dad92d8 {"steps":[{"step":"FlexibleSwap","trigger":{"NonFinite":{"what":"⟨r̂, v⟩"}},"solver":"Fgmres","iterations":27,"recovered":true}],"recovered":true}
antidiag/Cg/default 0x7dae0faeedc7a1e4 {"steps":[{"step":"FlexibleSwap","trigger":{"Breakdown":{"kind":"ZeroCurvature","iteration":1}},"solver":"FCg","iterations":1,"recovered":false},{"step":"UnpreconditionedFallback","trigger":{"Breakdown":{"kind":"ZeroCurvature","iteration":1}},"solver":"Gmres","iterations":2,"recovered":true}],"recovered":true}
antidiag/Cg/disabled 0x48c2f553f5aa113e {"steps":[],"recovered":false}
nan-row-f32/Cg/w1/parent 0x58e740f087de7e0a {"steps":[{"step":"FullPrecisionRetry","trigger":{"NonFinite":{"what":"pᵀAp"}},"solver":"Cg","iterations":27,"recovered":true}],"recovered":true}
nan-row-f32/Cg/w3/parent 0x8f68e5f4d7ca58b1 {"steps":[{"step":"FullPrecisionRetry","trigger":{"NonFinite":{"what":"pᵀAp"}},"solver":"Cg","iterations":81,"recovered":true}],"recovered":true}
nan-row-f32/Cg/w1/no-context 0x188dfe590fcdc956 {"steps":[{"step":"FlexibleSwap","trigger":{"NonFinite":{"what":"pᵀAp"}},"solver":"FCg","iterations":1,"recovered":false},{"step":"UnpreconditionedFallback","trigger":{"NonFinite":{"what":"pᵀAp"}},"solver":"Gmres","iterations":27,"recovered":true}],"recovered":true}
nan-row-f32/Cg/w3/no-context 0x96d7b50439a15e97 {"steps":[{"step":"FlexibleSwap","trigger":{"NonFinite":{"what":"pᵀAp"}},"solver":"FCg","iterations":3,"recovered":false},{"step":"UnpreconditionedFallback","trigger":{"NonFinite":{"what":"pᵀAp"}},"solver":"Gmres","iterations":81,"recovered":true}],"recovered":true}
"#;

/// Recorded at the parent of the loop merge; `(case, digest)` in run order.
const GOLDENS: &[(&str, u64)] = &[
    ("laplace/Cg/w1/identity", 0x15cebe5826ed8115),
    ("laplace/Cg/w1/jacobi", 0x15cebe5826ed8115),
    ("laplace/Cg/w1/mcmc", 0xd9af745a71b28022),
    ("laplace/Cg/w1/mcmc-f32", 0xbf93d4b026fb07b8),
    ("laplace/Cg/w3/identity", 0x17b6f70885fd8819),
    ("laplace/Cg/w3/jacobi", 0x17b6f70885fd8819),
    ("laplace/Cg/w3/mcmc", 0xf1f8e7ee43ea3c37),
    ("laplace/Cg/w3/mcmc-f32", 0x85da9e1e675e0e85),
    ("laplace/FCg/w1/identity", 0xda421f6a1e7bc07b),
    ("laplace/FCg/w1/jacobi", 0xda421f6a1e7bc07b),
    ("laplace/FCg/w1/mcmc", 0xacac0fe8845dba4f),
    ("laplace/FCg/w1/mcmc-f32", 0xd87367d7ec2b3d91),
    ("laplace/FCg/w3/identity", 0xcdecdf5e3601b7a2),
    ("laplace/FCg/w3/jacobi", 0xcdecdf5e3601b7a2),
    ("laplace/FCg/w3/mcmc", 0x3929c9fdc10bc56d),
    ("laplace/FCg/w3/mcmc-f32", 0xe312da48d551b2f3),
    ("laplace/Gmres/w1/identity", 0x077dd40b2497f32e),
    ("laplace/Gmres/w1/jacobi", 0x077dd40b2497f32e),
    ("laplace/Gmres/w1/mcmc", 0x2a264092093b6c85),
    ("laplace/Gmres/w1/mcmc-f32", 0xd06753105605741b),
    ("laplace/Gmres/w3/identity", 0x38ab21b1754039ed),
    ("laplace/Gmres/w3/jacobi", 0x38ab21b1754039ed),
    ("laplace/Gmres/w3/mcmc", 0xe6b3312ed68fe43d),
    ("laplace/Gmres/w3/mcmc-f32", 0x010f8ac197789748),
    ("laplace/Fgmres/w1/identity", 0x077dd40b2497f32e),
    ("laplace/Fgmres/w1/jacobi", 0x077dd40b2497f32e),
    ("laplace/Fgmres/w1/mcmc", 0x34c11e9513f1719d),
    ("laplace/Fgmres/w1/mcmc-f32", 0x4bb2ce913629cc9b),
    ("laplace/Fgmres/w3/identity", 0x38ab21b1754039ed),
    ("laplace/Fgmres/w3/jacobi", 0x38ab21b1754039ed),
    ("laplace/Fgmres/w3/mcmc", 0xe7437e0e643e8d86),
    ("laplace/Fgmres/w3/mcmc-f32", 0xbefaea2ae949b9ca),
    ("laplace/BiCgStab/w1/identity", 0xad856b01de077cdd),
    ("laplace/BiCgStab/w1/jacobi", 0xad856b01de077cdd),
    ("laplace/BiCgStab/w1/mcmc", 0xec8f17442943c782),
    ("laplace/BiCgStab/w1/mcmc-f32", 0xb290cad564662fa8),
    ("laplace/BiCgStab/w3/identity", 0x3ff9dc5b9a968871),
    ("laplace/BiCgStab/w3/jacobi", 0x3ff9dc5b9a968871),
    ("laplace/BiCgStab/w3/mcmc", 0x019235a478d8c2e4),
    ("laplace/BiCgStab/w3/mcmc-f32", 0x3b3c8b98dff24947),
    ("pdd/Cg/w1/identity", 0xe399d1f119f99eee),
    ("pdd/Cg/w1/jacobi", 0x0b4735d4dce1a5c3),
    ("pdd/Cg/w1/mcmc", 0x06d78d25f4b08582),
    ("pdd/Cg/w1/mcmc-f32", 0x9d1440eab76bd268),
    ("pdd/Cg/w3/identity", 0x6cf5f527740472ea),
    ("pdd/Cg/w3/jacobi", 0x6071521a0c523e16),
    ("pdd/Cg/w3/mcmc", 0x62e7860cde0696b8),
    ("pdd/Cg/w3/mcmc-f32", 0x68ecdd6b1f1e8ec9),
    ("pdd/FCg/w1/identity", 0x8349d66b089cdd39),
    ("pdd/FCg/w1/jacobi", 0x8a7a528b7a2e28af),
    ("pdd/FCg/w1/mcmc", 0xf89d53503b3eb703),
    ("pdd/FCg/w1/mcmc-f32", 0x5a53226e3e568d88),
    ("pdd/FCg/w3/identity", 0x0a3cad2a53c20be0),
    ("pdd/FCg/w3/jacobi", 0xbfeb13c506f817d7),
    ("pdd/FCg/w3/mcmc", 0x9181b54472e073b4),
    ("pdd/FCg/w3/mcmc-f32", 0xc8ee24ebfa0473ad),
    ("pdd/Gmres/w1/identity", 0xe2c5b8fff005a37a),
    ("pdd/Gmres/w1/jacobi", 0xb0768a3f1bfa0495),
    ("pdd/Gmres/w1/mcmc", 0x341a94a4004c72e8),
    ("pdd/Gmres/w1/mcmc-f32", 0x0138fe7fef73152d),
    ("pdd/Gmres/w3/identity", 0xd5d64b19015740d2),
    ("pdd/Gmres/w3/jacobi", 0x93a3670412d6d42b),
    ("pdd/Gmres/w3/mcmc", 0x5db071073fb8246c),
    ("pdd/Gmres/w3/mcmc-f32", 0xe39867827c373015),
    ("pdd/Fgmres/w1/identity", 0xe2c5b8fff005a37a),
    ("pdd/Fgmres/w1/jacobi", 0xb1282e2b7ab5319e),
    ("pdd/Fgmres/w1/mcmc", 0x8a25af8ce737a839),
    ("pdd/Fgmres/w1/mcmc-f32", 0x11e26974e5d55dd1),
    ("pdd/Fgmres/w3/identity", 0xd5d64b19015740d2),
    ("pdd/Fgmres/w3/jacobi", 0xf7dbdcecc10f400f),
    ("pdd/Fgmres/w3/mcmc", 0x560769f0e5723885),
    ("pdd/Fgmres/w3/mcmc-f32", 0xeb2bf239a19028c8),
    ("pdd/BiCgStab/w1/identity", 0x989c83b58e1b5b36),
    ("pdd/BiCgStab/w1/jacobi", 0x585a701b895a3e2a),
    ("pdd/BiCgStab/w1/mcmc", 0x1cd57235f726327d),
    ("pdd/BiCgStab/w1/mcmc-f32", 0xc43ee38d73dbbe62),
    ("pdd/BiCgStab/w3/identity", 0x5bf01c05c78237bb),
    ("pdd/BiCgStab/w3/jacobi", 0x0b3dc2bc557e8167),
    ("pdd/BiCgStab/w3/mcmc", 0x862e023c8769be42),
    ("pdd/BiCgStab/w3/mcmc-f32", 0xd420be4e90347a30),
    ("edge/Cg/w1/max-iter", 0x64300afa532a13a4),
    ("edge/Cg/w1/restart-5", 0x15cebe5826ed8115),
    ("edge/Cg/w1/zero-rhs", 0xba52b2a4b7790992),
    ("edge/Cg/w1/spike", 0xf1138ee0f1594624),
    ("edge/Cg/w1/inf-matvec", 0x5569142ddb0aeb6f),
    ("edge/Cg/w1/nan-precond", 0x3c9494870905d188),
    ("edge/Cg/w1/one-step", 0x3b8f31f7f681f3a6),
    ("edge/Cg/w3/max-iter", 0x43812ea8a59a3ed2),
    ("edge/Cg/w3/restart-5", 0x17b6f70885fd8819),
    ("edge/Cg/w3/zero-rhs", 0x086cae35bb6b8e86),
    ("edge/Cg/w3/spike", 0x6d6cabb74fcb752a),
    ("edge/Cg/w3/inf-matvec", 0x9239b02f65d40607),
    ("edge/Cg/w3/nan-precond", 0x0a4ca5bd599e9a8c),
    ("edge/Cg/w3/one-step", 0x8fac61762a7441d8),
    ("edge/FCg/w1/max-iter", 0x0813a862badb423f),
    ("edge/FCg/w1/restart-5", 0xda421f6a1e7bc07b),
    ("edge/FCg/w1/zero-rhs", 0xba52b2a4b7790992),
    ("edge/FCg/w1/spike", 0xdc5924701793b7fa),
    ("edge/FCg/w1/inf-matvec", 0xb6443288ba89a972),
    ("edge/FCg/w1/nan-precond", 0x4623b8c874877be2),
    ("edge/FCg/w1/one-step", 0x3b8f31f7f681f3a6),
    ("edge/FCg/w3/max-iter", 0x1a31f8e523eca7db),
    ("edge/FCg/w3/restart-5", 0xcdecdf5e3601b7a2),
    ("edge/FCg/w3/zero-rhs", 0x326e213743d383ec),
    ("edge/FCg/w3/spike", 0x389162db23cacf74),
    ("edge/FCg/w3/inf-matvec", 0x0d7b0a4bb3bd8de0),
    ("edge/FCg/w3/nan-precond", 0x9d6fb055e2f6967c),
    ("edge/FCg/w3/one-step", 0x8fac61762a7441d8),
    ("edge/Gmres/w1/max-iter", 0x43acc70b5d9f002b),
    ("edge/Gmres/w1/restart-5", 0x5072fb5b8e5c9683),
    ("edge/Gmres/w1/zero-rhs", 0xba52b2a4b7790992),
    ("edge/Gmres/w1/spike", 0x7b2f4edfc7d30406),
    ("edge/Gmres/w1/one-step", 0xe5795b20afc05575),
    ("edge/Gmres/w3/max-iter", 0x5a117e422d3112d9),
    ("edge/Gmres/w3/restart-5", 0xf627a9b5b73a98f3),
    ("edge/Gmres/w3/zero-rhs", 0xc6057ba31b7b8954),
    ("edge/Gmres/w3/spike", 0x3d3ebd7fd3d17bcc),
    ("edge/Gmres/w3/one-step", 0xb937a748d0b8b778),
    ("edge/Fgmres/w1/max-iter", 0x43acc70b5d9f002b),
    ("edge/Fgmres/w1/restart-5", 0x5072fb5b8e5c9683),
    ("edge/Fgmres/w1/zero-rhs", 0xba52b2a4b7790992),
    ("edge/Fgmres/w1/spike", 0x7b2f4edfc7d30406),
    ("edge/Fgmres/w1/one-step", 0xe5795b20afc05575),
    ("edge/Fgmres/w3/max-iter", 0x5a117e422d3112d9),
    ("edge/Fgmres/w3/restart-5", 0xf627a9b5b73a98f3),
    ("edge/Fgmres/w3/zero-rhs", 0xc6057ba31b7b8954),
    ("edge/Fgmres/w3/spike", 0x3d3ebd7fd3d17bcc),
    ("edge/Fgmres/w3/one-step", 0xb937a748d0b8b778),
    ("edge/BiCgStab/w1/max-iter", 0x528a0aa8c0ec6261),
    ("edge/BiCgStab/w1/restart-5", 0xad856b01de077cdd),
    ("edge/BiCgStab/w1/zero-rhs", 0xba52b2a4b7790992),
    ("edge/BiCgStab/w1/spike", 0xf7810555e7919570),
    ("edge/BiCgStab/w1/inf-matvec", 0xd7f29b0918ddba41),
    ("edge/BiCgStab/w1/nan-precond", 0xfca8c449cd36d05f),
    ("edge/BiCgStab/w1/one-step", 0x3b8f31f7f681f3a6),
    ("edge/BiCgStab/w3/max-iter", 0xfc49d5c51856f30b),
    ("edge/BiCgStab/w3/restart-5", 0x3ff9dc5b9a968871),
    ("edge/BiCgStab/w3/zero-rhs", 0x293bf444e319cdf8),
    ("edge/BiCgStab/w3/spike", 0xfa74fbcf04414efd),
    ("edge/BiCgStab/w3/inf-matvec", 0x25f942a26b73a38b),
    ("edge/BiCgStab/w3/nan-precond", 0xb009b063cbd07b89),
    ("edge/BiCgStab/w3/one-step", 0x8fac61762a7441d8),
];

/// Recorded at the parent of the commit that tiled the fused block sweeps;
/// `(case, digest)` in run order.
const TILE_GOLDENS: &[(&str, u64)] = &[
    ("laplace/Cg/w2/identity", 0x33f36d6cab364b8d),
    ("laplace/Cg/w2/jacobi", 0x33f36d6cab364b8d),
    ("laplace/Cg/w2/mcmc", 0x4cc602a19c12c575),
    ("laplace/Cg/w2/mcmc-f32", 0xd112e7551a596c0a),
    ("laplace/Cg/w4/identity", 0xaef61f3567968d6a),
    ("laplace/Cg/w4/jacobi", 0xaef61f3567968d6a),
    ("laplace/Cg/w4/mcmc", 0x96883fa437a37aff),
    ("laplace/Cg/w4/mcmc-f32", 0xea710d4aec632d99),
    ("laplace/Cg/w8/identity", 0xebed6ef32ac78455),
    ("laplace/Cg/w8/jacobi", 0xebed6ef32ac78455),
    ("laplace/Cg/w8/mcmc", 0x87dddb9517dc7dd3),
    ("laplace/Cg/w8/mcmc-f32", 0x579ecb27b1d95c78),
    ("laplace/FCg/w2/identity", 0x721adb273bc996a2),
    ("laplace/FCg/w2/jacobi", 0x721adb273bc996a2),
    ("laplace/FCg/w2/mcmc", 0xf2262ee2b65f2e01),
    ("laplace/FCg/w2/mcmc-f32", 0x71efe85825d10ab0),
    ("laplace/FCg/w4/identity", 0x7797750b1803e420),
    ("laplace/FCg/w4/jacobi", 0x7797750b1803e420),
    ("laplace/FCg/w4/mcmc", 0xfdcd41cf19fccf9b),
    ("laplace/FCg/w4/mcmc-f32", 0x0361b219b9ea8593),
    ("laplace/FCg/w8/identity", 0xc3d0eb0ea0476537),
    ("laplace/FCg/w8/jacobi", 0xc3d0eb0ea0476537),
    ("laplace/FCg/w8/mcmc", 0xc1e07a36b94b6cb2),
    ("laplace/FCg/w8/mcmc-f32", 0xbe17584a0dd27222),
    ("laplace/Gmres/w2/identity", 0xe22e64c45748f2e8),
    ("laplace/Gmres/w2/jacobi", 0xe22e64c45748f2e8),
    ("laplace/Gmres/w2/mcmc", 0x80b6b28a77dac387),
    ("laplace/Gmres/w2/mcmc-f32", 0xdf0c9f980c0c9538),
    ("laplace/Gmres/w4/identity", 0x32c9f2cb915936e9),
    ("laplace/Gmres/w4/jacobi", 0x32c9f2cb915936e9),
    ("laplace/Gmres/w4/mcmc", 0x9e7b0e3daddbe474),
    ("laplace/Gmres/w4/mcmc-f32", 0x0fdc63ef136d5ab1),
    ("laplace/Gmres/w8/identity", 0xcb9fde67d0d02200),
    ("laplace/Gmres/w8/jacobi", 0xcb9fde67d0d02200),
    ("laplace/Gmres/w8/mcmc", 0x82e97ff1ac569376),
    ("laplace/Gmres/w8/mcmc-f32", 0x5f1cc6e6184f959e),
    ("laplace/Fgmres/w2/identity", 0xe22e64c45748f2e8),
    ("laplace/Fgmres/w2/jacobi", 0xe22e64c45748f2e8),
    ("laplace/Fgmres/w2/mcmc", 0x4908386b057b70a2),
    ("laplace/Fgmres/w2/mcmc-f32", 0xd4d2abde2efda540),
    ("laplace/Fgmres/w4/identity", 0x32c9f2cb915936e9),
    ("laplace/Fgmres/w4/jacobi", 0x32c9f2cb915936e9),
    ("laplace/Fgmres/w4/mcmc", 0x6a7f11f685311302),
    ("laplace/Fgmres/w4/mcmc-f32", 0x3a50b5c81caf5719),
    ("laplace/Fgmres/w8/identity", 0xcb9fde67d0d02200),
    ("laplace/Fgmres/w8/jacobi", 0xcb9fde67d0d02200),
    ("laplace/Fgmres/w8/mcmc", 0x4a34fea2174a55d7),
    ("laplace/Fgmres/w8/mcmc-f32", 0x14dcdd02dd357747),
    ("laplace/BiCgStab/w2/identity", 0xe351c076a0b995b3),
    ("laplace/BiCgStab/w2/jacobi", 0xe351c076a0b995b3),
    ("laplace/BiCgStab/w2/mcmc", 0x21f52765f10dc8c0),
    ("laplace/BiCgStab/w2/mcmc-f32", 0x95d0ec728cf89312),
    ("laplace/BiCgStab/w4/identity", 0x2cf8ba2f515cb6f1),
    ("laplace/BiCgStab/w4/jacobi", 0x2cf8ba2f515cb6f1),
    ("laplace/BiCgStab/w4/mcmc", 0x795b41c7f332b57b),
    ("laplace/BiCgStab/w4/mcmc-f32", 0x6fb18ba305a01017),
    ("laplace/BiCgStab/w8/identity", 0x60fc930e69d1fb67),
    ("laplace/BiCgStab/w8/jacobi", 0x60fc930e69d1fb67),
    ("laplace/BiCgStab/w8/mcmc", 0x3478f68c9bf1dc2e),
    ("laplace/BiCgStab/w8/mcmc-f32", 0x2646b64277c2d3be),
    ("pdd/Cg/w2/identity", 0xcf36541d5bde15e6),
    ("pdd/Cg/w2/jacobi", 0x4594c0b444b13b82),
    ("pdd/Cg/w2/mcmc", 0x785614923dbe300f),
    ("pdd/Cg/w2/mcmc-f32", 0x375b60c78c31c47e),
    ("pdd/Cg/w4/identity", 0x0f01fb20a7a77082),
    ("pdd/Cg/w4/jacobi", 0xf6f9f36049c2496f),
    ("pdd/Cg/w4/mcmc", 0x224c17002455f464),
    ("pdd/Cg/w4/mcmc-f32", 0x4363173beefaaad4),
    ("pdd/Cg/w8/identity", 0xadf0d8de133e3a49),
    ("pdd/Cg/w8/jacobi", 0x03fa9b6d44746acb),
    ("pdd/Cg/w8/mcmc", 0x7c75a709b4cf2428),
    ("pdd/Cg/w8/mcmc-f32", 0x3aa802902a4797b2),
    ("pdd/FCg/w2/identity", 0x1e8b8bb35b966e7b),
    ("pdd/FCg/w2/jacobi", 0xd78c1e3b52dc6142),
    ("pdd/FCg/w2/mcmc", 0x2aefbb8bb6457adc),
    ("pdd/FCg/w2/mcmc-f32", 0x63031b13e70aa35f),
    ("pdd/FCg/w4/identity", 0x861c4b2329d57ea0),
    ("pdd/FCg/w4/jacobi", 0xe72688e980eef169),
    ("pdd/FCg/w4/mcmc", 0x254704f276fbdce9),
    ("pdd/FCg/w4/mcmc-f32", 0xce8577a89e7b8a62),
    ("pdd/FCg/w8/identity", 0x5e105153ff94eb65),
    ("pdd/FCg/w8/jacobi", 0x01a11e10344f9616),
    ("pdd/FCg/w8/mcmc", 0xe0bb113650ccefc9),
    ("pdd/FCg/w8/mcmc-f32", 0x29500deea40e4459),
    ("pdd/Gmres/w2/identity", 0x0795d3e666856ae2),
    ("pdd/Gmres/w2/jacobi", 0xeada495422ff7770),
    ("pdd/Gmres/w2/mcmc", 0xb0b9db6d624af0d8),
    ("pdd/Gmres/w2/mcmc-f32", 0xd1b7d006d89ee44e),
    ("pdd/Gmres/w4/identity", 0x473e75621b22fc4c),
    ("pdd/Gmres/w4/jacobi", 0x58f86dcf6ad49824),
    ("pdd/Gmres/w4/mcmc", 0xa49860c1f9044359),
    ("pdd/Gmres/w4/mcmc-f32", 0x61075a471edee68a),
    ("pdd/Gmres/w8/identity", 0x0870e17f888c6caf),
    ("pdd/Gmres/w8/jacobi", 0xca3ef866808b97fb),
    ("pdd/Gmres/w8/mcmc", 0x8cd6d9fc986a136a),
    ("pdd/Gmres/w8/mcmc-f32", 0x921364cc316c08ce),
    ("pdd/Fgmres/w2/identity", 0x0795d3e666856ae2),
    ("pdd/Fgmres/w2/jacobi", 0xf6454b058b35048f),
    ("pdd/Fgmres/w2/mcmc", 0x5b0aeed4592ffc8e),
    ("pdd/Fgmres/w2/mcmc-f32", 0xeb19acc3073ad0e0),
    ("pdd/Fgmres/w4/identity", 0x473e75621b22fc4c),
    ("pdd/Fgmres/w4/jacobi", 0x8bca1024cd63c3b0),
    ("pdd/Fgmres/w4/mcmc", 0x4b313ab98daff567),
    ("pdd/Fgmres/w4/mcmc-f32", 0x5aa7d2548e80b4ed),
    ("pdd/Fgmres/w8/identity", 0x0870e17f888c6caf),
    ("pdd/Fgmres/w8/jacobi", 0x943d8da7dc539da9),
    ("pdd/Fgmres/w8/mcmc", 0x460f23611bf63c81),
    ("pdd/Fgmres/w8/mcmc-f32", 0x12ddd3a5e7e31428),
    ("pdd/BiCgStab/w2/identity", 0x6462ddb050cee5f3),
    ("pdd/BiCgStab/w2/jacobi", 0xd8eab6d9330a653e),
    ("pdd/BiCgStab/w2/mcmc", 0x2bb02d61c95a5dfe),
    ("pdd/BiCgStab/w2/mcmc-f32", 0x4542c360ad69a9ab),
    ("pdd/BiCgStab/w4/identity", 0x99f3b19458d3e245),
    ("pdd/BiCgStab/w4/jacobi", 0x989eb0e38f259e97),
    ("pdd/BiCgStab/w4/mcmc", 0xdcefe6634edeebae),
    ("pdd/BiCgStab/w4/mcmc-f32", 0x41017f53dfd8e6ae),
    ("pdd/BiCgStab/w8/identity", 0x84be16bc417243a0),
    ("pdd/BiCgStab/w8/jacobi", 0x4d4cbada04590066),
    ("pdd/BiCgStab/w8/mcmc", 0x191d8a2c8cfea7ea),
    ("pdd/BiCgStab/w8/mcmc-f32", 0xc77cc4cf50a9c2ea),
    ("edge/Cg/w2/max-iter", 0x91cdb15b1aaf96b0),
    ("edge/Cg/w2/restart-5", 0x33f36d6cab364b8d),
    ("edge/Cg/w2/zero-rhs", 0x47202565ab866ce2),
    ("edge/Cg/w2/spike", 0x39b239a630986f66),
    ("edge/Cg/w2/inf-matvec", 0x4529ef2f76e10c51),
    ("edge/Cg/w2/nan-precond", 0x04bcbcb14498793a),
    ("edge/Cg/w2/one-step", 0xbcabc1bb0116aff4),
    ("edge/Cg/w4/max-iter", 0xf10fa9e4d0d6d888),
    ("edge/Cg/w4/restart-5", 0xaef61f3567968d6a),
    ("edge/Cg/w4/zero-rhs", 0xbad38e9e7ee1a4f1),
    ("edge/Cg/w4/spike", 0x0dd5e0b550e43969),
    ("edge/Cg/w4/inf-matvec", 0x84bd0fbfec0cf696),
    ("edge/Cg/w4/nan-precond", 0x4911f1300e2b6ab5),
    ("edge/Cg/w4/one-step", 0x10e6df5cb43915f5),
    ("edge/Cg/w8/max-iter", 0x34d7516ede005488),
    ("edge/Cg/w8/restart-5", 0xebed6ef32ac78455),
    ("edge/Cg/w8/zero-rhs", 0xbbda878c85661959),
    ("edge/Cg/w8/spike", 0x89732395b5ba1e44),
    ("edge/Cg/w8/inf-matvec", 0x4dd8f287630e5b9a),
    ("edge/Cg/w8/nan-precond", 0xb46c1bf0ae09538d),
    ("edge/Cg/w8/one-step", 0x67f3e5ee405c1734),
    ("edge/FCg/w2/max-iter", 0x255288f181a550b4),
    ("edge/FCg/w2/restart-5", 0x721adb273bc996a2),
    ("edge/FCg/w2/zero-rhs", 0x85b4461490cc735c),
    ("edge/FCg/w2/spike", 0x3cd5433725743b55),
    ("edge/FCg/w2/inf-matvec", 0xb92db8f382a4339a),
    ("edge/FCg/w2/nan-precond", 0x359f08b09e3fb512),
    ("edge/FCg/w2/one-step", 0xbcabc1bb0116aff4),
    ("edge/FCg/w4/max-iter", 0x688fa282dd221517),
    ("edge/FCg/w4/restart-5", 0x7797750b1803e420),
    ("edge/FCg/w4/zero-rhs", 0x6b4236326fb3a2e3),
    ("edge/FCg/w4/spike", 0x109d631133b34698),
    ("edge/FCg/w4/inf-matvec", 0x8d385b0bcdd26fd8),
    ("edge/FCg/w4/nan-precond", 0x9188a3919e2722b0),
    ("edge/FCg/w4/one-step", 0x10e6df5cb43915f5),
    ("edge/FCg/w8/max-iter", 0xf15e99c6b7291190),
    ("edge/FCg/w8/restart-5", 0xc3d0eb0ea0476537),
    ("edge/FCg/w8/zero-rhs", 0x1eb6c1d64557be3e),
    ("edge/FCg/w8/spike", 0x1f55dae45b70be4f),
    ("edge/FCg/w8/inf-matvec", 0x1f77ee8902053d94),
    ("edge/FCg/w8/nan-precond", 0x6ce0d29a9add0bf4),
    ("edge/FCg/w8/one-step", 0x67f3e5ee405c1734),
    ("edge/Gmres/w2/max-iter", 0x32f21ac89e0a39ad),
    ("edge/Gmres/w2/restart-5", 0x47ab9b2ed098c0ba),
    ("edge/Gmres/w2/zero-rhs", 0x2bb64087e3b0f199),
    ("edge/Gmres/w2/spike", 0x27e73895518eff9a),
    ("edge/Gmres/w2/one-step", 0xc5f413e7438cce3d),
    ("edge/Gmres/w4/max-iter", 0x569e6f97eb9c4640),
    ("edge/Gmres/w4/restart-5", 0xeb1cbed7845935bd),
    ("edge/Gmres/w4/zero-rhs", 0x36398b5ed204cc57),
    ("edge/Gmres/w4/spike", 0x28241f936bddc610),
    ("edge/Gmres/w4/one-step", 0xb496d7d44ad4c6cf),
    ("edge/Gmres/w8/max-iter", 0xcb959ba2f0c77ff6),
    ("edge/Gmres/w8/restart-5", 0x2907a4cb39aee90f),
    ("edge/Gmres/w8/zero-rhs", 0x95f9ffd43e40a064),
    ("edge/Gmres/w8/spike", 0xf707bf97e395ca56),
    ("edge/Gmres/w8/one-step", 0x1baad892e0fb5f1b),
    ("edge/Fgmres/w2/max-iter", 0x32f21ac89e0a39ad),
    ("edge/Fgmres/w2/restart-5", 0x47ab9b2ed098c0ba),
    ("edge/Fgmres/w2/zero-rhs", 0x2bb64087e3b0f199),
    ("edge/Fgmres/w2/spike", 0x27e73895518eff9a),
    ("edge/Fgmres/w2/one-step", 0xc5f413e7438cce3d),
    ("edge/Fgmres/w4/max-iter", 0x569e6f97eb9c4640),
    ("edge/Fgmres/w4/restart-5", 0xeb1cbed7845935bd),
    ("edge/Fgmres/w4/zero-rhs", 0x36398b5ed204cc57),
    ("edge/Fgmres/w4/spike", 0x28241f936bddc610),
    ("edge/Fgmres/w4/one-step", 0xb496d7d44ad4c6cf),
    ("edge/Fgmres/w8/max-iter", 0xcb959ba2f0c77ff6),
    ("edge/Fgmres/w8/restart-5", 0x2907a4cb39aee90f),
    ("edge/Fgmres/w8/zero-rhs", 0x95f9ffd43e40a064),
    ("edge/Fgmres/w8/spike", 0xf707bf97e395ca56),
    ("edge/Fgmres/w8/one-step", 0x1baad892e0fb5f1b),
    ("edge/BiCgStab/w2/max-iter", 0x32b721aabbbd2c93),
    ("edge/BiCgStab/w2/restart-5", 0xe351c076a0b995b3),
    ("edge/BiCgStab/w2/zero-rhs", 0x99bc2c4ba0e653ca),
    ("edge/BiCgStab/w2/spike", 0x804492ae92a21bcb),
    ("edge/BiCgStab/w2/inf-matvec", 0x8579d4751193536c),
    ("edge/BiCgStab/w2/nan-precond", 0x37cf6b8f374dbde7),
    ("edge/BiCgStab/w2/one-step", 0xbcabc1bb0116aff4),
    ("edge/BiCgStab/w4/max-iter", 0xa49e1904db59949b),
    ("edge/BiCgStab/w4/restart-5", 0x2cf8ba2f515cb6f1),
    ("edge/BiCgStab/w4/zero-rhs", 0x07fd84cc010332dc),
    ("edge/BiCgStab/w4/spike", 0x1914fa9ef8324418),
    ("edge/BiCgStab/w4/inf-matvec", 0xdad3917b720c0a8e),
    ("edge/BiCgStab/w4/nan-precond", 0x28ed6f33a9647bf5),
    ("edge/BiCgStab/w4/one-step", 0x10e6df5cb43915f5),
    ("edge/BiCgStab/w8/max-iter", 0xa5444834f12bc6f1),
    ("edge/BiCgStab/w8/restart-5", 0x60fc930e69d1fb67),
    ("edge/BiCgStab/w8/zero-rhs", 0xa7e48620414c16b5),
    ("edge/BiCgStab/w8/spike", 0x9abdcdeab10d4242),
    ("edge/BiCgStab/w8/inf-matvec", 0x4241c199b50ef371),
    ("edge/BiCgStab/w8/nan-precond", 0xddbf7e363e682a49),
    ("edge/BiCgStab/w8/one-step", 0x67f3e5ee405c1734),
    ("early/Cg/w2/eigenvector", 0x2e28658d34fba90c),
    ("early/Cg/w4/eigenvector", 0x9ba1429d0f4788e7),
    ("early/Cg/w8/eigenvector", 0x2da330d693f32e68),
    ("early/FCg/w2/eigenvector", 0xd26778f45a70224d),
    ("early/FCg/w4/eigenvector", 0xc404524d7d0c0feb),
    ("early/FCg/w8/eigenvector", 0xd0e428c232e22d00),
    ("early/Gmres/w2/eigenvector", 0x290ab933c65758e9),
    ("early/Gmres/w4/eigenvector", 0xfe1f21f71e6045d0),
    ("early/Gmres/w8/eigenvector", 0x10e58b99979297d5),
    ("early/Fgmres/w2/eigenvector", 0x290ab933c65758e9),
    ("early/Fgmres/w4/eigenvector", 0xfe1f21f71e6045d0),
    ("early/Fgmres/w8/eigenvector", 0x10e58b99979297d5),
    ("early/BiCgStab/w2/eigenvector", 0xf8f98635233fee56),
    ("early/BiCgStab/w4/eigenvector", 0x01288dffab4e923c),
    ("early/BiCgStab/w8/eigenvector", 0xe6979d257b6b7ede),
];
