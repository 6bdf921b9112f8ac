//! Batched throughput: amortise one MCMC preconditioner build over a
//! stream of right-hand sides with the `SolveSession` multi-RHS path.
//!
//! ```text
//! cargo run --release --example batched_throughput
//! ```
//!
//! The serving scenario the paper's economics depend on: the (expensive,
//! embarrassingly parallel) MCMC build happens once; afterwards requests
//! arrive as *batches* of right-hand sides against the same operator.
//! `solve_batch` runs the batch in lockstep — one SpMM traversal and one
//! block preconditioner application serve every column — and is
//! bit-identical to solving each rhs alone.

use mcmcmi::krylov::{SolveOptions, SolverType};
use mcmcmi::matgen::fd_laplace_2d;
use mcmcmi::mcmc::{BuildConfig, McmcInverse, McmcParams};
use std::time::Instant;

/// A synthetic "request stream": k independent loads (distinct spatial
/// frequencies so the batch is full-rank).
fn request_batch(n: usize, k: usize, batch_no: usize) -> Vec<Vec<f64>> {
    (0..k)
        .map(|c| {
            let id = c + k * batch_no;
            (0..n)
                .map(|i| (i as f64 * (0.17 + 0.041 * id as f64) + 0.3 * id as f64).sin())
                .collect()
        })
        .collect()
}

fn main() {
    // 1. One operator, one build. CG needs a symmetric pair, so the MCMC
    //    inverse is symmetrised exactly as in the scalar pipeline.
    let a = fd_laplace_2d(32);
    let n = a.nrows();
    println!("operator: 2DFDLaplace_32, n = {n}, nnz = {}", a.nnz());

    let t0 = Instant::now();
    let outcome =
        McmcInverse::new(BuildConfig::default()).build(&a, McmcParams::new(0.1, 0.0625, 0.0625));
    let build_time = t0.elapsed();
    println!(
        "MCMC build: {} transitions in {build_time:.1?} — paid once, amortised below",
        outcome.transitions
    );
    let precond = outcome.precond.for_solver(SolverType::Cg).into_owned();

    // 2. Two sessions over the same (A, P): one serving batches, one
    //    serving the same requests one at a time, for an honest
    //    apples-to-apples wall-clock comparison.
    let opts = SolveOptions::default();
    let mut batch_sess =
        mcmcmi::krylov::SolveSession::new(a.clone(), precond.clone(), SolverType::Cg, opts);
    let mut seq_sess =
        mcmcmi::krylov::SolveSession::new(a.clone(), precond.clone(), SolverType::Cg, opts);

    let k = 8;
    let n_batches = 4;
    let mut batch_total = std::time::Duration::ZERO;
    let mut seq_total = std::time::Duration::ZERO;
    for batch_no in 0..n_batches {
        let rhs = request_batch(n, k, batch_no);

        let t = Instant::now();
        let batched = batch_sess.solve_batch(&rhs);
        batch_total += t.elapsed();

        let t = Instant::now();
        let sequential: Vec<_> = rhs.iter().map(|b| seq_sess.solve(b)).collect();
        seq_total += t.elapsed();

        // The lockstep contract: not "close" — identical.
        for (c, (bres, sres)) in batched.iter().zip(&sequential).enumerate() {
            assert!(bres.converged, "batch {batch_no} col {c} did not converge");
            assert_eq!(
                bres.x, sres.x,
                "batch {batch_no} col {c}: batched ≠ sequential"
            );
            assert_eq!(bres.iterations, sres.iterations);
        }
        println!(
            "batch {batch_no}: {k} rhs, {} iterations (hardest column), bit-identical to sequential",
            batched.iter().map(|r| r.iterations).max().unwrap()
        );
    }
    let solved = k * n_batches;
    println!(
        "\n{solved} solves — lockstep batched: {batch_total:.1?} total ({:.2?}/rhs), \
         sequential: {seq_total:.1?} total ({:.2?}/rhs), speedup {:.2}x",
        batch_total / solved as u32,
        seq_total / solved as u32,
        seq_total.as_secs_f64() / batch_total.as_secs_f64()
    );
    println!(
        "build amortisation: {:.1} batched solves repay the build (vs {:.1} sequential)",
        build_time.as_secs_f64() / (batch_total.as_secs_f64() / solved as f64),
        build_time.as_secs_f64() / (seq_total.as_secs_f64() / solved as f64)
    );
}
