//! **PR 10 perf record** — the lockstep SoA walk engine: ns/transition of
//! the batched O(10³)-lane engine vs the PR-2 scalar reference loop, on
//! Table-1-class operators, at the paper's ε = 0.02 chain count
//! (⌈(0.6745/ε)²⌉ ≈ 1138 chains/row — exactly the lane population the SoA
//! engine steps together).
//!
//! Both engines draw from the same per-`(seed, row, chain)` streams, so
//! every timed pair simulates the *identical* set of transitions — the
//! comparison is pure engine overhead, and each pair's tallies are
//! asserted bit-equal as part of the measurement. Timing follows the
//! perf_pr2 discipline: interleaved A/B/A/B passes, keep the faster pass
//! per engine, single-threaded so rayon scheduling noise cannot leak in.
//!
//! Writes `runs/perf_pr10/perf_pr10.{json,csv}` and extends the top-level
//! `BENCH_perf.json` with a `perf_pr10` section without clobbering earlier
//! records. Acceptance: SoA ≥ 1.5× lower ns/transition on ≥ 2 matrices.
//!
//! `--smoke`: CI mode — asserts (a) SoA and scalar builds are
//! bit-identical to each other and to `BuildConfig::default()` end-to-end
//! at the current thread count (which engine the default names is a
//! measured choice, not a contract), (b) an all-dirty `rebuild_rows` on the
//! SoA engine equals a fresh scalar build. No timing, no file writes — run
//! it at `RAYON_NUM_THREADS=1` and `=8` to cover the sharding contract.

use mcmcmi_bench::{write_csv, write_json, RunDir};
use mcmcmi_matgen::{fd_laplace_2d, pdd_real_sparse_scaled, PaperMatrix};
use mcmcmi_mcmc::{BuildConfig, McmcInverse, McmcParams, SoaBatch, WalkEngine, WalkMatrix};
use mcmcmi_sparse::Csr;
use serde::Serialize;
use serde_json::Value;
use std::time::Instant;

/// ε = 0.02 through the probable-error rule ⌈(0.6745/ε)²⌉ = 1138: the
/// O(10³) walker population per row the tentpole batches.
const CHAINS_PER_ROW: usize = 1138;
const DELTA: f64 = 1e-3;
const MAX_LEN: usize = 10_000;
const SEED: u64 = 42;
/// Row-sample cap per matrix: a stride subset keeps the full-matrix access
/// pattern (the whole alias table stays live) while bounding a pass.
const MAX_ROWS: usize = 1024;

#[derive(Serialize)]
struct EngineRecord {
    matrix: String,
    n: usize,
    avg_nnz_per_row: f64,
    rows_timed: usize,
    transitions: usize,
    scalar_ns_per_transition: f64,
    soa_ns_per_transition: f64,
    speedup: f64,
    bit_identical: bool,
}

#[derive(Serialize)]
struct Pr10Report {
    generated_by: String,
    threads_available: usize,
    chains_per_row: usize,
    delta: f64,
    engines: Vec<EngineRecord>,
    soa_is_default_engine: bool,
    matrices_at_or_above_1p5x: usize,
}

/// One timed pass of one engine over the sampled rows. Returns
/// `(ns/transition, transitions, tally checksum)` — the checksum is the
/// raw bit pattern of every scratch write XOR-folded, so two engines that
/// claim bit-identity can be cross-checked without storing every tally.
fn engine_pass(w: &WalkMatrix, rows: &[usize], soa: bool) -> (f64, usize, u64) {
    let n = w.dim();
    let mut scratch = vec![0.0f64; n];
    let mut touched: Vec<usize> = Vec::new();
    let mut batch = SoaBatch::new();
    let mut transitions = 0usize;
    let mut checksum = 0u64;
    let t0 = Instant::now();
    for &i in rows {
        let stats = if soa {
            w.walk_row_soa(
                i,
                CHAINS_PER_ROW,
                DELTA,
                MAX_LEN,
                SEED,
                &mut batch,
                &mut scratch,
                &mut touched,
            )
        } else {
            w.walk_row(
                i,
                CHAINS_PER_ROW,
                DELTA,
                MAX_LEN,
                SEED,
                &mut scratch,
                &mut touched,
            )
        };
        transitions += stats.transitions;
        for &j in touched.iter() {
            checksum ^= scratch[j].to_bits().wrapping_mul(j as u64 | 1);
            scratch[j] = 0.0;
        }
        touched.clear();
    }
    let ns = t0.elapsed().as_nanos() as f64 / transitions.max(1) as f64;
    (ns, transitions, checksum)
}

fn stride_rows(n: usize) -> Vec<usize> {
    let stride = n.div_ceil(MAX_ROWS).max(1);
    (0..n).step_by(stride).collect()
}

fn smoke_build_bit_identity() {
    let a = fd_laplace_2d(12);
    let params = McmcParams::new(0.5, 0.125, 0.0625);
    let build = |engine| {
        McmcInverse::new(BuildConfig {
            engine,
            ..Default::default()
        })
        .build(&a, params)
    };
    let scalar = build(WalkEngine::Scalar);
    let soa = build(WalkEngine::Soa);
    assert_eq!(
        scalar.precond.matrix(),
        soa.precond.matrix(),
        "SoA build must be bit-identical to the scalar reference"
    );
    assert_eq!(scalar.transitions, soa.transitions);
    let default_build = McmcInverse::new(BuildConfig::default()).build(&a, params);
    assert_eq!(
        default_build.precond.matrix(),
        soa.precond.matrix(),
        "the default build must be bit-identical to both engines"
    );
    assert_eq!(default_build.transitions, soa.transitions);
    println!(
        "  SoA ≡ scalar ≡ default build: {} rows, {} transitions, bit-identical",
        a.nrows(),
        soa.transitions
    );
}

fn smoke_all_dirty_rebuild_identity() {
    let a = PaperMatrix::A00512.generate();
    let n = a.nrows();
    let params = McmcParams::new(0.5, 0.25, 0.0625);
    let scalar = McmcInverse::new(BuildConfig {
        engine: WalkEngine::Scalar,
        ..Default::default()
    })
    .build(&a, params);
    let builder = McmcInverse::new(BuildConfig {
        engine: WalkEngine::Soa,
        ..Default::default()
    });
    let mut out = builder.build(&a, params);
    let all: Vec<usize> = (0..n).collect();
    builder.rebuild_rows(&mut out, &a, &all, params);
    assert_eq!(
        out.precond.matrix(),
        scalar.precond.matrix(),
        "all-dirty SoA rebuild must equal a fresh scalar build"
    );
    println!("  all-dirty rebuild_rows (SoA) ≡ fresh scalar build: {n} rows");
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let threads = rayon::current_num_threads();

    if smoke {
        println!("perf_pr10 --smoke: engine bit-identity ({threads} thread(s))");
        smoke_build_bit_identity();
        smoke_all_dirty_rebuild_identity();
        println!("smoke ok");
        return;
    }

    println!(
        "perf_pr10 — lockstep SoA walk engine vs scalar reference ({threads} thread(s) available)"
    );
    println!(
        "chains/row = {CHAINS_PER_ROW} (ε = 0.02), δ = {DELTA}, single-threaded engine timing\n"
    );

    // Table-1-class systems spanning the working-set range. The two
    // operational-scale `PDD_RealSparse` instances (uniformly random
    // pattern, ~90 nnz/row — the regime the paper's accelerator port
    // targets) put the alias table beyond L2 and beyond L3 respectively:
    // every transition is a dependent scattered gather there, which is
    // exactly what lockstep lanes overlap. The five Table-1 originals are
    // stencils and small systems whose walks stay cache-resident — they
    // bound the SoA engine's bookkeeping overhead instead.
    let cases: Vec<(String, Csr)> = vec![
        (
            "pdd_sparse_n262144".to_string(),
            pdd_real_sparse_scaled(262_144, 90, 43),
        ),
        (
            "pdd_sparse_n65536".to_string(),
            pdd_real_sparse_scaled(65_536, 90, 42),
        ),
        (
            "nonsym_r3_a11".to_string(),
            PaperMatrix::NonsymR3A11.generate(),
        ),
        (
            "laplace_2d_h128".to_string(),
            PaperMatrix::Laplace128.generate(),
        ),
        ("a_08192".to_string(), PaperMatrix::A08192.generate()),
        ("a_00512".to_string(), PaperMatrix::A00512.generate()),
        ("laplace_2d_h32".to_string(), fd_laplace_2d(32)),
    ];

    let mut engines = Vec::new();
    println!(
        "{:<22} {:>8} {:>8} {:>12} | {:>12} {:>12} {:>8}",
        "matrix", "n", "rows", "transitions", "scalar ns/t", "soa ns/t", "speedup"
    );
    for (name, a) in &cases {
        let w = WalkMatrix::from_perturbed(a, 0.5);
        let rows = stride_rows(w.dim());
        // Interleave A/B/A/B and keep the faster pass per engine, so
        // frequency scaling or background noise cannot fake a win.
        let (scalar_a, transitions, ck_scalar) = engine_pass(&w, &rows, false);
        let (soa_a, t_soa, ck_soa) = engine_pass(&w, &rows, true);
        let (scalar_b, _, _) = engine_pass(&w, &rows, false);
        let (soa_b, _, _) = engine_pass(&w, &rows, true);
        assert_eq!(
            transitions, t_soa,
            "{name}: engines must simulate identical transition counts"
        );
        let bit_identical = ck_scalar == ck_soa;
        assert!(
            bit_identical,
            "{name}: engine tallies must be bit-identical"
        );
        let scalar_ns = scalar_a.min(scalar_b);
        let soa_ns = soa_a.min(soa_b);
        let rec = EngineRecord {
            matrix: name.clone(),
            n: a.nrows(),
            avg_nnz_per_row: a.nnz() as f64 / a.nrows() as f64,
            rows_timed: rows.len(),
            transitions,
            scalar_ns_per_transition: scalar_ns,
            soa_ns_per_transition: soa_ns,
            speedup: scalar_ns / soa_ns,
            bit_identical,
        };
        println!(
            "{:<22} {:>8} {:>8} {:>12} | {:>12.2} {:>12.2} {:>7.2}x",
            rec.matrix,
            rec.n,
            rec.rows_timed,
            rec.transitions,
            rec.scalar_ns_per_transition,
            rec.soa_ns_per_transition,
            rec.speedup
        );
        engines.push(rec);
    }

    let at_or_above = engines.iter().filter(|r| r.speedup >= 1.5).count();
    println!(
        "\nmatrices at ≥ 1.5× speedup: {at_or_above}/{}",
        engines.len()
    );
    assert!(
        at_or_above >= 2,
        "acceptance: SoA must be ≥ 1.5× faster on ≥ 2 Table-1-class matrices"
    );

    let report = Pr10Report {
        generated_by: "cargo run --release -p mcmcmi_bench --bin perf_pr10".to_string(),
        threads_available: threads,
        chains_per_row: CHAINS_PER_ROW,
        delta: DELTA,
        engines,
        soa_is_default_engine: BuildConfig::default().engine == WalkEngine::Soa,
        matrices_at_or_above_1p5x: at_or_above,
    };
    let rd = RunDir::new("perf_pr10").expect("runs dir");
    write_json(&rd.path("perf_pr10.json"), &report).expect("write json");
    let rows: Vec<Vec<String>> = report
        .engines
        .iter()
        .map(|r| {
            vec![
                r.matrix.clone(),
                r.n.to_string(),
                r.rows_timed.to_string(),
                r.transitions.to_string(),
                format!("{:.2}", r.scalar_ns_per_transition),
                format!("{:.2}", r.soa_ns_per_transition),
                format!("{:.2}", r.speedup),
            ]
        })
        .collect();
    write_csv(
        &rd.path("engines.csv"),
        &[
            "matrix",
            "n",
            "rows_timed",
            "transitions",
            "scalar_ns_per_transition",
            "soa_ns_per_transition",
            "speedup",
        ],
        &rows,
    )
    .expect("write engines csv");

    // Extend BENCH_perf.json in place: keep earlier records, add/replace
    // the `perf_pr10` section.
    let bench_path = std::path::Path::new("BENCH_perf.json");
    let report_value: Value =
        serde_json::parse_value_str(&serde_json::to_string(&report).expect("serialize report"))
            .expect("reparse report");
    let merged = match std::fs::read_to_string(bench_path) {
        Ok(existing) => {
            let parsed = serde_json::parse_value_str(&existing)
                .expect("BENCH_perf.json exists but does not parse; refusing to overwrite");
            let Value::Object(mut pairs) = parsed else {
                panic!("BENCH_perf.json is not a JSON object; refusing to overwrite");
            };
            pairs.retain(|(key, _)| key != "perf_pr10");
            pairs.push(("perf_pr10".to_string(), report_value));
            Value::Object(pairs)
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            Value::Object(vec![("perf_pr10".to_string(), report_value)])
        }
        Err(e) => panic!("BENCH_perf.json unreadable ({e}); refusing to overwrite"),
    };
    write_json(bench_path, &merged).expect("write BENCH_perf.json");
    println!("wrote runs/perf_pr10/{{perf_pr10.json,engines.csv}} and extended BENCH_perf.json");
}
