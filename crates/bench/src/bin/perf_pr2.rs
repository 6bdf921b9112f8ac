//! **PR 2 perf record** — before/after numbers for the hot-path overhaul:
//! O(1) alias-method transition sampling (vs the inverse-CDF binary-search
//! baseline, which is retained as `mcmcmi_bench::InvCdfSampler` exactly so
//! this comparison stays honest), zero-alloc preconditioner builds, and the
//! unrolled / nnz-balanced SpMV.
//!
//! Writes `runs/perf_pr2/perf_pr2.{json,csv}` plus the top-level
//! `BENCH_perf.json` headline file, and verifies the determinism contract
//! (thread counts 1 vs 8 produce bit-identical builds and SpMV results)
//! as part of the record.

use mcmcmi_bench::{write_csv, write_json, InvCdfSampler, RunDir};
use mcmcmi_matgen::{fd_laplace_2d, stretched_climate_operator, PaperMatrix};
use mcmcmi_mcmc::{BuildConfig, McmcInverse, McmcParams, WalkMatrix};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::Instant;

/// Per-transition sampling cost under the *build* access pattern: for every
/// row, `chains_per_row` δ-truncated walks restart from that row — the same
/// chain count and locality profile for both samplers, exactly what
/// `McmcInverse::build` does minus the tally bookkeeping. Returns
/// `(ns/transition, transitions)`.
fn ns_per_transition(
    w: &WalkMatrix,
    invcdf: Option<&InvCdfSampler>,
    chains_per_row: usize,
    delta: f64,
    max_len: usize,
) -> (f64, usize) {
    let mut transitions = 0usize;
    let t0 = Instant::now();
    for i in 0..w.dim() {
        let mut rng = ChaCha8Rng::seed_from_u64(42 ^ (i as u64) << 1);
        for _ in 0..chains_per_row {
            let mut k = i;
            let mut wgt = 1.0f64;
            let mut steps = 0usize;
            loop {
                let (rs, re) = w.row_range(k);
                if rs == re || steps >= max_len {
                    break;
                }
                let (j, mult) = match invcdf {
                    None => w.sample_transition(k, &mut rng),
                    Some(baseline) => baseline.sample_transition(w, k, &mut rng),
                };
                wgt *= mult;
                k = j;
                steps += 1;
                transitions += 1;
                if wgt.abs() < delta || wgt.abs() > 1e12 {
                    break;
                }
            }
            std::hint::black_box(wgt);
        }
    }
    (
        t0.elapsed().as_nanos() as f64 / transitions.max(1) as f64,
        transitions,
    )
}

#[derive(Serialize)]
struct SamplingRecord {
    matrix: String,
    n: usize,
    avg_nnz_per_row: f64,
    transitions: usize,
    alias_ns_per_transition: f64,
    invcdf_ns_per_transition: f64,
    speedup: f64,
}

#[derive(Serialize)]
struct BuildRecord {
    matrix: String,
    n: usize,
    chains_per_row: usize,
    transitions: usize,
    build_ms: f64,
    transitions_per_sec: f64,
}

#[derive(Serialize)]
struct SpmvRecord {
    matrix: String,
    n: usize,
    nnz: usize,
    serial_us: f64,
    parallel_us: f64,
    serial_gflops: f64,
    parallel_gflops: f64,
}

#[derive(Serialize)]
struct PerfReport {
    generated_by: String,
    threads_available: usize,
    sampling: Vec<SamplingRecord>,
    build: Vec<BuildRecord>,
    spmv: Vec<SpmvRecord>,
    build_bit_identical_threads_1_vs_8: bool,
    spmv_par_bit_identical_threads_1_vs_8: bool,
}

fn time_ms(mut f: impl FnMut()) -> f64 {
    // Warm-up once, then median of 3.
    f();
    let mut samples: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[1]
}

fn main() {
    let threads = rayon::current_num_threads();
    println!("perf_pr2 — hot-path perf record ({threads} thread(s) available)\n");

    // --- 1. Transition sampling: alias vs inverse-CDF -------------------
    let sampling_cases = [
        // Table 1's climate-simulation operator: n = 20930, ~91 nnz/row.
        (
            "nonsym_r3_a11".to_string(),
            PaperMatrix::NonsymR3A11.generate(),
        ),
        (
            "climate_stencil_598".to_string(),
            stretched_climate_operator(13, 46, 22, 1.0),
        ),
        ("a_00512".to_string(), PaperMatrix::A00512.generate()),
        ("laplace_2d_h32".to_string(), fd_laplace_2d(32)),
    ];
    // Matched chain counts for both samplers (the paper's ε = 1/16 rule
    // gives 117 chains/row; 64 keeps the full sweep fast while preserving
    // the per-row restart locality of a real build), δ = 1/32.
    let chains_per_row = 64usize;
    let delta = 0.03125f64;
    let mut sampling = Vec::new();
    println!(
        "{:<22} {:>8} {:>10} | {:>12} {:>12} {:>8}",
        "sampling matrix", "n", "nnz/row", "alias ns/t", "invcdf ns/t", "speedup"
    );
    for (name, a) in &sampling_cases {
        let w = WalkMatrix::from_perturbed(a, 0.5);
        // Interleave A/B/A/B and keep the faster of two passes each, so
        // frequency scaling or background noise cannot fake a win.
        let baseline = InvCdfSampler::new(&w);
        let (alias_a, transitions) = ns_per_transition(&w, None, chains_per_row, delta, 10_000);
        let (invcdf_a, _) = ns_per_transition(&w, Some(&baseline), chains_per_row, delta, 10_000);
        let (alias_b, _) = ns_per_transition(&w, None, chains_per_row, delta, 10_000);
        let (invcdf_b, _) = ns_per_transition(&w, Some(&baseline), chains_per_row, delta, 10_000);
        let alias_ns = alias_a.min(alias_b);
        let invcdf_ns = invcdf_a.min(invcdf_b);
        let rec = SamplingRecord {
            matrix: name.clone(),
            n: a.nrows(),
            avg_nnz_per_row: a.nnz() as f64 / a.nrows() as f64,
            transitions,
            alias_ns_per_transition: alias_ns,
            invcdf_ns_per_transition: invcdf_ns,
            speedup: invcdf_ns / alias_ns,
        };
        println!(
            "{:<22} {:>8} {:>10.1} | {:>12.2} {:>12.2} {:>7.2}x",
            rec.matrix,
            rec.n,
            rec.avg_nnz_per_row,
            rec.alias_ns_per_transition,
            rec.invcdf_ns_per_transition,
            rec.speedup
        );
        sampling.push(rec);
    }

    // --- 2. Preconditioner build wall time ------------------------------
    let build_cases = [
        ("a_00512".to_string(), PaperMatrix::A00512.generate()),
        ("laplace_2d_h32".to_string(), fd_laplace_2d(32)),
    ];
    let params = McmcParams::new(0.5, 0.0625, 0.03125);
    let builder = McmcInverse::new(BuildConfig::default());
    let mut build = Vec::new();
    println!(
        "\n{:<22} {:>8} {:>10} | {:>10} {:>14}",
        "build matrix", "n", "chains/row", "build ms", "transitions/s"
    );
    for (name, a) in &build_cases {
        let outcome = builder.build(a, params);
        let ms = time_ms(|| {
            std::hint::black_box(builder.build(a, params));
        });
        let rec = BuildRecord {
            matrix: name.clone(),
            n: a.nrows(),
            chains_per_row: outcome.chains_per_row,
            transitions: outcome.transitions,
            build_ms: ms,
            transitions_per_sec: outcome.transitions as f64 / (ms * 1e-3),
        };
        println!(
            "{:<22} {:>8} {:>10} | {:>10.2} {:>14.3e}",
            rec.matrix, rec.n, rec.chains_per_row, rec.build_ms, rec.transitions_per_sec
        );
        build.push(rec);
    }

    // --- 3. SpMV GFLOP proxy (2·nnz flops per multiply) -----------------
    let spmv_cases = [
        (
            "nonsym_r3_a11".to_string(),
            PaperMatrix::NonsymR3A11.generate(),
        ),
        ("laplace_2d_h64".to_string(), fd_laplace_2d(64)),
    ];
    let mut spmv = Vec::new();
    println!(
        "\n{:<22} {:>8} {:>10} | {:>10} {:>10} {:>8} {:>8}",
        "spmv matrix", "n", "nnz", "serial us", "par us", "GF ser", "GF par"
    );
    for (name, a) in &spmv_cases {
        let n = a.nrows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.01).cos()).collect();
        let mut y = vec![0.0; n];
        let reps = 50usize;
        let serial_us = time_ms(|| {
            for _ in 0..reps {
                a.spmv(std::hint::black_box(&x), &mut y);
            }
        }) * 1e3
            / reps as f64;
        let parallel_us = time_ms(|| {
            for _ in 0..reps {
                a.spmv_par(std::hint::black_box(&x), &mut y);
            }
        }) * 1e3
            / reps as f64;
        let flops = 2.0 * a.nnz() as f64;
        let rec = SpmvRecord {
            matrix: name.clone(),
            n,
            nnz: a.nnz(),
            serial_us,
            parallel_us,
            serial_gflops: flops / (serial_us * 1e3),
            parallel_gflops: flops / (parallel_us * 1e3),
        };
        println!(
            "{:<22} {:>8} {:>10} | {:>10.2} {:>10.2} {:>8.3} {:>8.3}",
            rec.matrix,
            rec.n,
            rec.nnz,
            rec.serial_us,
            rec.parallel_us,
            rec.serial_gflops,
            rec.parallel_gflops
        );
        spmv.push(rec);
    }

    // --- 4. Determinism contract: threads 1 vs 8 ------------------------
    let det_matrix = PaperMatrix::A00512.generate();
    let pool1 = rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .unwrap();
    let pool8 = rayon::ThreadPoolBuilder::new()
        .num_threads(8)
        .build()
        .unwrap();
    let b1 = pool1.install(|| builder.build(&det_matrix, params));
    let b8 = pool8.install(|| builder.build(&det_matrix, params));
    let build_identical = b1.precond.matrix() == b8.precond.matrix();

    let a = &spmv_cases[0].1;
    let x: Vec<f64> = (0..a.nrows()).map(|i| (i as f64 * 0.01).cos()).collect();
    let mut y1 = vec![0.0; a.nrows()];
    let mut y8 = vec![0.0; a.nrows()];
    pool1.install(|| a.spmv_par(&x, &mut y1));
    pool8.install(|| a.spmv_par(&x, &mut y8));
    let spmv_identical = y1 == y8;
    println!("\nbuild bit-identical RAYON_NUM_THREADS=1 vs 8:    {build_identical}");
    println!("spmv_par bit-identical RAYON_NUM_THREADS=1 vs 8: {spmv_identical}");
    assert!(build_identical, "determinism contract violated (build)");
    assert!(spmv_identical, "determinism contract violated (spmv_par)");

    // --- 5. Persist -----------------------------------------------------
    let report = PerfReport {
        generated_by: "cargo run --release -p mcmcmi_bench --bin perf_pr2".to_string(),
        threads_available: threads,
        sampling,
        build,
        spmv,
        build_bit_identical_threads_1_vs_8: build_identical,
        spmv_par_bit_identical_threads_1_vs_8: spmv_identical,
    };
    let rd = RunDir::new("perf_pr2").expect("runs dir");
    write_json(&rd.path("perf_pr2.json"), &report).expect("write json");
    let rows: Vec<Vec<String>> = report
        .sampling
        .iter()
        .map(|r| {
            vec![
                r.matrix.clone(),
                r.n.to_string(),
                format!("{:.1}", r.avg_nnz_per_row),
                format!("{:.2}", r.alias_ns_per_transition),
                format!("{:.2}", r.invcdf_ns_per_transition),
                format!("{:.2}", r.speedup),
            ]
        })
        .collect();
    write_csv(
        &rd.path("sampling.csv"),
        &[
            "matrix",
            "n",
            "avg_nnz_per_row",
            "alias_ns_per_transition",
            "invcdf_ns_per_transition",
            "speedup",
        ],
        &rows,
    )
    .expect("write csv");
    write_json(std::path::Path::new("BENCH_perf.json"), &report).expect("write BENCH_perf.json");
    println!("\nwrote runs/perf_pr2/perf_pr2.{{json,csv}} and BENCH_perf.json");
}
