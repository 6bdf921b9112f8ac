//! Regenerative Ulam–von Neumann variant (paper ref [9], Ghosh et al.,
//! SIMAX 2025): collapses the (ε, δ) pair into a single *transition budget*
//! parameter.
//!
//! Simplified scheme implemented here: each row is given a fixed budget of
//! transitions; fresh chains are regenerated from the row start until the
//! budget is exhausted, with a fixed tight truncation. The estimator
//! averages over completed regeneration cycles. One knob (`budget`) replaces
//! two (ε, δ), which is exactly the robustness/variance-control argument of
//! the reference; the ablation bench `ablation_regen` compares the two
//! schemes at matched work.

use crate::walk::{chain_rng, SoaBatch, WalkEngine, WalkMatrix, MAX_LANES};
use mcmcmi_krylov::SparsePrecond;
use mcmcmi_sparse::Csr;
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// Fixed tight truncation: the budget, not δ, limits the work.
const DELTA: f64 = 1e-10;
const BLOWUP: f64 = 1e12;
/// Salt folded into the seed for the lockstep engine's per-cycle streams
/// (the scalar engine keeps its historical single per-row stream).
const REGEN_SALT: u64 = 0xd1b54a32d192ed03;

/// Configuration for the regenerative builder.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct RegenerativeConfig {
    /// Diagonal perturbation α (same role as in the classic scheme).
    pub alpha: f64,
    /// Transition budget per row — the single tuning knob.
    pub budget: usize,
    /// Fill budget as a multiple of nnz(A).
    pub filling_factor: f64,
    /// Truncation threshold for stored entries.
    pub trunc_threshold: f64,
    /// RNG seed.
    pub seed: u64,
    /// Which walk engine runs the regeneration cycles. Unlike the classic
    /// builder, the two engines here are *statistically equivalent* but
    /// not bit-identical: the scalar loop threads one RNG stream through
    /// sequential cycles and charges the budget per transition, while the
    /// lockstep engine gives every cycle its own stream and charges the
    /// budget per round. Each engine is individually deterministic at any
    /// thread count. Because the two differ in bits, this default stays on
    /// the lane engine when [`crate::BuildConfig`]'s moves: changing it
    /// would change every regenerative preconditioner.
    pub engine: WalkEngine,
}

impl Default for RegenerativeConfig {
    fn default() -> Self {
        Self {
            alpha: 1.0,
            budget: 2_000,
            filling_factor: 2.0,
            trunc_threshold: 1e-9,
            seed: 0,
            engine: WalkEngine::Soa,
        }
    }
}

/// One row of the scalar (reference) regenerative scheme: sequential
/// cycles threading a single per-row stream. Returns the cycle count; the
/// tallies land in `scratch`/`touched`.
fn regen_row_scalar(
    walk: &WalkMatrix,
    i: usize,
    cfg: &RegenerativeConfig,
    scratch: &mut [f64],
    touched: &mut Vec<usize>,
) -> usize {
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ (REGEN_SALT.wrapping_mul(i as u64 + 1)));
    let mut spent = 0usize;
    let mut cycles = 0usize;
    // Absorbing start row: every cycle would end after step 0 without
    // spending budget, so the regeneration loop below would never
    // terminate — and the estimator is exactly e_i anyway.
    let (start_rs, start_re) = walk_row_range(walk, i);
    if start_rs == start_re {
        touched.push(i);
        scratch[i] = 1.0;
        return 1;
    }
    // Regenerate chains from the row start until budget exhaustion;
    // always complete the final cycle so the estimator stays (nearly)
    // unbiased across cycles.
    while spent < cfg.budget {
        cycles += 1;
        let mut k = i;
        let mut w = 1.0f64;
        if scratch[k] == 0.0 {
            touched.push(k);
        }
        scratch[k] += w;
        loop {
            let (rs, re) = walk_row_range(walk, k);
            if rs == re {
                break;
            }
            let (j, mult) = sample_step(walk, k, &mut rng);
            w *= mult;
            k = j;
            spent += 1;
            if w.abs() < DELTA || w.abs() > BLOWUP || !w.is_finite() {
                break;
            }
            if scratch[k] == 0.0 {
                touched.push(k);
            }
            scratch[k] += w;
            if spent >= cfg.budget && k == i {
                // Natural regeneration point reached with budget spent:
                // stop cleanly.
                break;
            }
        }
    }
    cycles
}

/// One row of the lockstep regenerative scheme: concurrent cycles as SoA
/// lanes, round-based budget accounting. Every lane runs its own
/// per-`(seed, row, cycle)` stream; the shared `spent` counter advances by
/// one per lane transition in fixed lane order, new cycles start only
/// while `spent < budget`, and started cycles always run to completion —
/// the lockstep analogue of "always complete the final cycle".
/// Deterministic at any thread count (rows stay the rayon work unit), but
/// *not* bit-identical to the scalar scheme, whose budget clock ticks
/// inside a single sequential stream.
///
/// Termination under lane masking: the absorbing-start-row special case
/// returns before the loop, so every started cycle takes at least one
/// transition (the start row draws), which makes `spent` strictly increase
/// while any lane regenerates — an all-absorbed lane batch cannot spin.
fn regen_row_soa(
    walk: &WalkMatrix,
    i: usize,
    cfg: &RegenerativeConfig,
    batch: &mut SoaBatch,
    scratch: &mut [f64],
    touched: &mut Vec<usize>,
) -> usize {
    let (start_rs, start_re) = walk_row_range(walk, i);
    if start_rs == start_re {
        touched.push(i);
        scratch[i] = 1.0;
        return 1;
    }
    // Lane count scales with the budget (full batches would overshoot a
    // small budget by whole lane-widths of straggler cycles), capped at
    // the engine-wide lane limit.
    let lanes = (cfg.budget / 32).clamp(1, MAX_LANES);
    let seed = cfg.seed ^ REGEN_SALT;
    batch.reset(lanes, lanes);
    // `chain[l]` holds the lane's RNG *slot*. Slots travel with lanes
    // through swap-compaction, so the slot surfacing at the regeneration
    // position is exactly the one its retired cycle freed — no free-list
    // bookkeeping needed.
    for (l, slot) in batch.chain.iter_mut().enumerate() {
        *slot = l as u32;
    }
    let mut spent = 0usize;
    let mut cycles = 0usize;
    let mut n_active = 0usize;
    loop {
        // Regenerate freed lanes into fresh cycles while budget remains;
        // each fresh cycle gets its own `(seed, row, cycle)` stream and
        // logs its step-0 contribution immediately.
        while n_active < lanes && spent < cfg.budget {
            let l = n_active;
            batch.rng[batch.chain[l] as usize] = chain_rng(seed, i, cycles);
            batch.state[l] = i as u32;
            batch.weight[l] = 1.0;
            cycles += 1;
            n_active += 1;
            if scratch[i] == 0.0 {
                touched.push(i);
            }
            scratch[i] += 1.0;
        }
        if n_active == 0 {
            break;
        }
        // Pass 1: retire absorbed lanes — no draw, no contribution.
        let mut l = 0;
        while l < n_active {
            let k = batch.state[l] as usize;
            let (rs, re) = walk_row_range(walk, k);
            if rs == re {
                n_active -= 1;
                batch.swap_lanes(l, n_active);
            } else {
                l += 1;
            }
        }
        // Pass 2: one contiguous draw block for the surviving lanes.
        for l in 0..n_active {
            batch.draws[l] = batch.rng[batch.chain[l] as usize].next_u64();
        }
        // Pass 3: gathered transitions; the budget clock ticks once per
        // lane transition, in fixed lane order (deterministic).
        let mut l = 0;
        while l < n_active {
            let k = batch.state[l] as usize;
            let (j, mult) = walk.resolve_draw(k, batch.draws[l]);
            let w = batch.weight[l] * mult;
            batch.weight[l] = w;
            batch.state[l] = j as u32;
            spent += 1;
            if w.abs() < DELTA || w.abs() > BLOWUP || !w.is_finite() {
                n_active -= 1;
                batch.swap_lanes(l, n_active);
                continue;
            }
            if scratch[j] == 0.0 {
                touched.push(j);
            }
            scratch[j] += w;
            if spent >= cfg.budget && j == i {
                // Natural regeneration point with the budget spent.
                n_active -= 1;
                batch.swap_lanes(l, n_active);
                continue;
            }
            l += 1;
        }
    }
    cycles
}

/// Build a preconditioner with the regenerative single-budget scheme.
pub fn regenerative_inverse(a: &Csr, cfg: RegenerativeConfig) -> SparsePrecond {
    let n = a.nrows();
    let walk = WalkMatrix::from_perturbed(a, cfg.alpha);

    let budgets: Vec<usize> = a
        .row_degrees()
        .iter()
        .map(|&d| ((cfg.filling_factor * d as f64).ceil() as usize).max(1))
        .collect();

    let rows: Vec<(Vec<usize>, Vec<f64>)> = (0..n)
        .into_par_iter()
        .map_init(
            // Reusable per-worker workspace (see builder.rs): one O(n)
            // scratch per thread, sparse reset between rows.
            || crate::builder::RowWorkspace::new(n),
            |ws, i| {
                let cycles = match cfg.engine {
                    WalkEngine::Scalar => {
                        regen_row_scalar(&walk, i, &cfg, &mut ws.scratch, &mut ws.touched)
                    }
                    WalkEngine::Soa => regen_row_soa(
                        &walk,
                        i,
                        &cfg,
                        &mut ws.batch,
                        &mut ws.scratch,
                        &mut ws.touched,
                    ),
                };
                let scratch = &mut ws.scratch;
                let touched = &mut ws.touched;
                // Dedup: cancellation can zero an entry that is later revisited.
                touched.sort_unstable();
                touched.dedup();
                let inv_diag = walk.inv_diag();
                let mut entries: Vec<(usize, f64)> = touched
                    .iter()
                    .map(|&j| (j, scratch[j] / cycles as f64 * inv_diag[j]))
                    .filter(|&(_, v)| v.abs() >= cfg.trunc_threshold && v.is_finite())
                    .collect();
                ws.reset();
                let budget = budgets[i];
                if entries.len() > budget {
                    entries.select_nth_unstable_by(budget - 1, |a, b| {
                        b.1.abs().partial_cmp(&a.1.abs()).unwrap()
                    });
                    entries.truncate(budget);
                }
                entries.sort_unstable_by_key(|&(j, _)| j);
                (
                    entries.iter().map(|&(j, _)| j).collect(),
                    entries.iter().map(|&(_, v)| v).collect(),
                )
            },
        )
        .collect();

    let nnz_total: usize = rows.iter().map(|(c, _)| c.len()).sum();
    let mut indptr = Vec::with_capacity(n + 1);
    let mut cols = Vec::with_capacity(nnz_total);
    let mut vals = Vec::with_capacity(nnz_total);
    indptr.push(0);
    for (c, v) in &rows {
        cols.extend_from_slice(c);
        vals.extend_from_slice(v);
        indptr.push(cols.len());
    }
    SparsePrecond::new(Csr::from_raw(n, n, indptr, cols, vals))
}

// Thin accessors over WalkMatrix internals for the regenerative loop.
fn walk_row_range(w: &WalkMatrix, k: usize) -> (usize, usize) {
    w.row_range(k)
}

fn sample_step<R: Rng>(w: &WalkMatrix, k: usize, rng: &mut R) -> (usize, f64) {
    w.sample_transition(k, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmcmi_krylov::{gmres, IdentityPrecond, SolveOptions};
    use mcmcmi_matgen::fd_laplace_2d;

    #[test]
    fn regenerative_build_is_deterministic() {
        let a = mcmcmi_matgen::pdd_real_sparse(48, 5);
        let p1 = regenerative_inverse(&a, RegenerativeConfig::default());
        let p2 = regenerative_inverse(&a, RegenerativeConfig::default());
        assert_eq!(p1.matrix(), p2.matrix());
        // Same for the scalar reference engine.
        let cfg = RegenerativeConfig {
            engine: WalkEngine::Scalar,
            ..Default::default()
        };
        let s1 = regenerative_inverse(&a, cfg);
        let s2 = regenerative_inverse(&a, cfg);
        assert_eq!(s1.matrix(), s2.matrix());
    }

    #[test]
    fn regenerative_engines_agree_statistically() {
        // The two engines run different RNG stream layouts and budget
        // clocks, so they are not bit-identical — but both estimate the
        // same inverse, so at a generous budget every stored entry must
        // agree within Monte Carlo error.
        let a = mcmcmi_matgen::laplace_1d(8);
        let base = RegenerativeConfig {
            alpha: 0.5,
            budget: 400_000,
            ..Default::default()
        };
        let soa = regenerative_inverse(&a, base);
        let scalar = regenerative_inverse(
            &a,
            RegenerativeConfig {
                engine: WalkEngine::Scalar,
                ..base
            },
        );
        let ds = soa.matrix().to_dense();
        let dr = scalar.matrix().to_dense();
        let diff = ds.max_abs_diff(&dr);
        assert!(diff < 0.05, "engines disagree: max diff {diff}");
    }

    #[test]
    fn fully_absorbing_matrix_yields_scaled_identity() {
        // Diagonal-only A: every walk row is absorbing, so every start row
        // hits the absorbing-start special case. Both engines must
        // terminate (the lockstep engine's all-absorbed lane batch cannot
        // spin on a zero-spend round) and produce P = D̂⁻¹ exactly.
        let n = 6;
        let mut coo = mcmcmi_sparse::Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0 + i as f64);
        }
        let a = coo.to_csr();
        for engine in [WalkEngine::Scalar, WalkEngine::Soa] {
            let cfg = RegenerativeConfig {
                alpha: 0.5,
                budget: 1_000,
                engine,
                ..Default::default()
            };
            let p = regenerative_inverse(&a, cfg);
            let m = p.matrix();
            assert_eq!(m.nnz(), n, "{engine:?}: expected a diagonal result");
            for i in 0..n {
                let expect = 1.0 / ((2.0 + i as f64) * (1.0 + cfg.alpha));
                assert_eq!(m.row_indices(i), &[i], "{engine:?}: row {i} pattern");
                assert!(
                    (m.row_values(i)[0] - expect).abs() < 1e-15,
                    "{engine:?}: row {i} value {} vs {expect}",
                    m.row_values(i)[0]
                );
            }
        }
    }

    #[test]
    fn regenerative_preconditioner_helps() {
        let a = fd_laplace_2d(16);
        let n = a.nrows();
        let b = vec![1.0; n];
        let plain = gmres(&a, &b, &IdentityPrecond::new(n), SolveOptions::default());
        let p = regenerative_inverse(
            &a,
            RegenerativeConfig {
                alpha: 0.1,
                budget: 30_000,
                ..Default::default()
            },
        );
        let pre = gmres(&a, &b, &p, SolveOptions::default());
        assert!(pre.converged);
        assert!(
            pre.iterations < plain.iterations,
            "{} !< {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn regenerative_matches_exact_inverse_on_small_system() {
        use mcmcmi_dense::Lu;
        let a = mcmcmi_matgen::laplace_1d(8);
        let cfg = RegenerativeConfig {
            alpha: 0.5,
            budget: 400_000,
            ..Default::default()
        };
        let p = regenerative_inverse(&a, cfg);
        let mut dense = a.to_dense();
        for i in 0..8 {
            let v = dense.get(i, i) * (1.0 + cfg.alpha);
            dense.set(i, i, v);
        }
        let exact = Lu::new(&dense).inverse().unwrap();
        let diff = p.matrix().to_dense().max_abs_diff(&exact);
        assert!(diff < 0.05, "max diff {diff}");
    }

    #[test]
    fn bigger_budget_improves_quality() {
        let a = fd_laplace_2d(10);
        let n = a.nrows();
        let b = vec![1.0; n];
        let small = regenerative_inverse(
            &a,
            RegenerativeConfig {
                alpha: 0.1,
                budget: 30,
                ..Default::default()
            },
        );
        let large = regenerative_inverse(
            &a,
            RegenerativeConfig {
                alpha: 0.1,
                budget: 20_000,
                ..Default::default()
            },
        );
        let it_small = gmres(&a, &b, &small, SolveOptions::default()).iterations;
        let it_large = gmres(&a, &b, &large, SolveOptions::default()).iterations;
        assert!(it_large <= it_small, "{it_large} > {it_small}");
    }
}
