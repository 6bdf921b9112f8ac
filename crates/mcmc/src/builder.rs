//! Preconditioner assembly: parallel walks → sparsified approximate inverse.
//!
//! The build is allocation-disciplined: each Rayon worker owns one reusable
//! `RowWorkspace` (`map_init`), so the dense scratch vector is allocated
//! once per worker instead of once per row, and only the entries a row's
//! walks actually touched are re-zeroed between rows — O(nnz_touched) reset
//! instead of O(n), eliminating the O(n²) aggregate allocation/zeroing the
//! naive per-row `vec![0.0; n]` costs.

use crate::compress::{CompressionPolicy, CompressionReport};
use crate::params::McmcParams;
use crate::walk::{carve, row_parts, RowWalkStats, WalkEngine, WalkMatrix};
use mcmcmi_krylov::SparsePrecond;
use mcmcmi_sparse::{nnz_balanced_ranges, Csr};
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// Per-worker reusable walk state: a dense tally vector plus the list of
/// indices written, so the scratch can be reset sparsely after each row.
struct RowWorkspace {
    scratch: Vec<f64>,
    touched: Vec<usize>,
}

impl RowWorkspace {
    fn new(n: usize) -> Self {
        Self {
            scratch: vec![0.0; n],
            touched: Vec::with_capacity(64),
        }
    }

    /// Zero exactly the entries recorded in `touched` and clear the list.
    /// `touched` covers every written index (the walk loop records an index
    /// on its first write, and again if cancellation zeroed it in between),
    /// so the scratch is all-zero again afterwards.
    fn reset(&mut self) {
        for &j in &self.touched {
            self.scratch[j] = 0.0;
        }
        self.touched.clear();
    }
}

/// Preconditioner fill budget as a multiple of nnz(A). The paper fixes the
/// filling factor at 2·φ(A) across the whole study.
const FILLING_FACTOR: f64 = 2.0;

/// Absolute entry magnitude below which preconditioner entries are dropped.
/// The paper fixes it at 1e−9 across the whole study, "to avoid introducing
/// truncation".
const TRUNC_THRESHOLD: f64 = 1e-9;

/// Hard cap on walk length (guards non-contractive splittings).
const MAX_WALK_LEN: usize = 10_000;

/// Matrix-independent build settings. Fill budget, truncation threshold and
/// walk-length cap are fixed by the paper and are constants of the builder.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct BuildConfig {
    /// RNG seed; each chain derives an independent `(seed, row, chain)`
    /// stream from it.
    pub seed: u64,
    /// Read by nothing: every build runs the one walk loop, whichever
    /// variant is named. Kept while the benchmark ledger names the field;
    /// its refresh deletes this field and [`WalkEngine`].
    pub engine: WalkEngine,
}

/// A built MCMC preconditioner plus build diagnostics.
#[derive(Clone, Debug)]
pub struct BuildOutcome {
    /// The explicit sparse approximate inverse `P ≈ Â⁻¹`.
    pub precond: SparsePrecond,
    /// Total transitions simulated (the work measure; scales ~linearly with
    /// cores, the "embarrassing parallelism" the paper leans on). Each
    /// chain's ending step is counted, but the walk decides it from
    /// `|w|·S_k` without a draw.
    pub transitions: usize,
    /// Chains that hit the step cap.
    pub capped_chains: usize,
    /// Chains whose weight exceeded the blow-up guard — a strong divergence
    /// signal (near-zero α on non-dominant systems).
    pub blown_up_chains: usize,
    /// Fraction of splitting rows with absolute row sum ≥ 1.
    pub noncontractive_fraction: f64,
    /// Chains per row that were run (from ε).
    pub chains_per_row: usize,
    /// Per-row walk statistics, kept so [`McmcInverse::rebuild_rows`] can
    /// update the aggregate counters above *exactly* (old row out, new row
    /// in) instead of approximating them.
    pub row_stats: Vec<RowWalkStats>,
}

impl BuildOutcome {
    /// Heuristic: the build is likely useless as a preconditioner.
    pub fn likely_divergent(&self) -> bool {
        self.blown_up_chains > 0 && self.noncontractive_fraction > 0.5
    }

    /// Bind this preconditioner to its matrix as a reusable
    /// [`SolveSession`](mcmcmi_krylov::SolveSession) — the consumption path
    /// the build cost is amortised over: many single solves (reused scalar
    /// workspace) and many-RHS batches (`solve_batch`, SpMM-shared
    /// traversals), all applying `P` through the block-aware
    /// [`SparsePrecond`], in the form `solver`
    /// wants ([`SparsePrecond::for_solver`]).
    pub fn into_session(
        self,
        a: &Csr,
        solver: mcmcmi_krylov::SolverType,
        opts: mcmcmi_krylov::SolveOptions,
    ) -> mcmcmi_krylov::SolveSession<SparsePrecond> {
        // As built, the inverse is moved in, not copied.
        let other_form = match self.precond.for_solver(solver) {
            Cow::Owned(form) => Some(form),
            Cow::Borrowed(_) => None,
        };
        let precond = other_form.unwrap_or(self.precond);
        mcmcmi_krylov::SolveSession::new(a.clone(), precond, solver, opts)
    }

    /// Apply a [`CompressionPolicy`] to the built preconditioner:
    /// drop-tolerance sparsification plus optional f32 demotion (see
    /// [`crate::compress`](mod@crate::compress)). The identity policy
    /// returns a bit-identical f64 copy, so the compressed path can be
    /// validated against the uncompressed baseline exactly.
    pub fn compress(
        &self,
        policy: &CompressionPolicy,
    ) -> (mcmcmi_krylov::CompressedPrecond, CompressionReport) {
        crate::compress::compress(self.precond.matrix(), policy)
    }
}

/// One estimated preconditioner row: the harvested sparse entries plus the
/// walk statistics. Every build harvests through [`harvest_row`] — sharing
/// the harvest is what makes an all-dirty [`McmcInverse::rebuild_rows`]
/// bit-identical to a fresh [`McmcInverse::build`] *by construction*.
struct RowOut {
    cols: Vec<usize>,
    vals: Vec<f64>,
    stats: RowWalkStats,
}

/// Harvest the row a walk left in the workspace scratch: divide each tally
/// by `divisor` (chains, or regeneration cycles) and scale it by the walk's
/// inverse diagonal, drop tiny or non-finite entries, budget-select the
/// strongest, and sort by column. Resets the workspace.
fn harvest_row(
    walk: &WalkMatrix,
    budget: usize,
    divisor: usize,
    ws: &mut RowWorkspace,
) -> (Vec<usize>, Vec<f64>) {
    // `touched` may contain duplicates when weight cancellation zeroes an
    // entry that is later revisited — dedup first.
    ws.touched.sort_unstable();
    ws.touched.dedup();
    let inv_diag = walk.inv_diag();
    let mut entries: Vec<(usize, f64)> = ws
        .touched
        .iter()
        .map(|&j| (j, ws.scratch[j] / divisor as f64 * inv_diag[j]))
        .filter(|&(_, v)| v.abs() >= TRUNC_THRESHOLD && v.is_finite())
        .collect();
    ws.reset();
    // Keep the largest |entries| within the row budget.
    if entries.len() > budget {
        entries.select_nth_unstable_by(budget - 1, |a, b| {
            b.1.abs().partial_cmp(&a.1.abs()).unwrap()
        });
        entries.truncate(budget);
    }
    entries.sort_unstable_by_key(|&(j, _)| j);
    entries.into_iter().unzip()
}

/// Per-row fill budget: [`FILLING_FACTOR`] × the row's own degree (so the
/// global nnz(P) tracks that multiple of nnz(A)), minimum 1 so every row
/// keeps its strongest entry.
fn row_budget(degree: usize) -> usize {
    ((FILLING_FACTOR * degree as f64).ceil() as usize).max(1)
}

/// The MCMC matrix-inversion preconditioner builder.
#[derive(Clone, Debug)]
pub struct McmcInverse {
    config: BuildConfig,
}

impl McmcInverse {
    /// Builder with the paper's fixed settings.
    pub fn new(config: BuildConfig) -> Self {
        Self { config }
    }

    /// Build `P ≈ (A + α·diag)⁻¹` for the given parameters.
    ///
    /// Rows are processed in parallel with Rayon; every chain draws from an
    /// RNG stream keyed by `(seed, row, chain)`, so the result is identical
    /// for any thread count.
    pub fn build(&self, a: &Csr, params: McmcParams) -> BuildOutcome {
        self.build_on(&WalkMatrix::from_perturbed(a, params.alpha), a, params)
    }

    /// [`McmcInverse::build`] on a splitting the caller already derived:
    /// `walk` must be `WalkMatrix::from_perturbed(a, params.alpha)`. The
    /// safeguard walks the very matrix it probed.
    pub(crate) fn build_on(&self, walk: &WalkMatrix, a: &Csr, params: McmcParams) -> BuildOutcome {
        // A fresh build: every row dirty, nothing to keep.
        let all: Vec<usize> = (0..a.nrows()).collect();
        let (p, row_stats) = self.estimate_and_splice(walk, a, &all, None, |i, ws| {
            self.walk_row(walk, i, params, ws)
        });
        BuildOutcome {
            precond: SparsePrecond::new(p),
            transitions: row_stats.iter().map(|s| s.transitions).sum(),
            capped_chains: row_stats.iter().map(|s| s.capped).sum(),
            blown_up_chains: row_stats.iter().map(|s| s.blown_up).sum(),
            noncontractive_fraction: walk.noncontractive_fraction(),
            chains_per_row: params.chains_per_row(),
            row_stats,
        }
    }

    /// Build `P ≈ (A + α·diag)⁻¹` with the regenerative single-budget
    /// scheme (*Regenerative Ulam–von Neumann*, Ghosh et al.): every row
    /// spends `budget` transitions on regeneration cycles, truncated at a
    /// fixed tight δ, each capped at 10 000 steps, and divides its
    /// tally by the cycles it ran. Fill budget, truncation threshold and
    /// seed are the builder's, and so are the harvest and the assembly, so
    /// a classic and a regenerative build from one builder differ only in
    /// their walks. Identical for any thread count.
    pub fn build_regenerative(&self, a: &Csr, alpha: f64, budget: usize) -> SparsePrecond {
        let walk = WalkMatrix::from_perturbed(a, alpha);
        let all: Vec<usize> = (0..a.nrows()).collect();
        let seed = self.config.seed;
        let (p, _) = self.estimate_and_splice(&walk, a, &all, None, |i, ws| {
            let (scratch, touched) = (&mut ws.scratch, &mut ws.touched);
            walk.walk_row_regen(i, budget, MAX_WALK_LEN, seed, scratch, touched)
        });
        SparsePrecond::new(p)
    }

    /// Walk one row of the classic (α, ε, δ) estimator. Returns its
    /// statistics and its chain count, the divisor of the tally.
    fn walk_row(
        &self,
        walk: &WalkMatrix,
        i: usize,
        params: McmcParams,
        ws: &mut RowWorkspace,
    ) -> (RowWalkStats, usize) {
        let chains = params.chains_per_row();
        let (delta, seed) = (params.delta, self.config.seed);
        let (scratch, touched) = (&mut ws.scratch, &mut ws.touched);
        let stats = walk.walk_row(i, chains, delta, MAX_WALK_LEN, seed, scratch, touched);
        (stats, chains)
    }

    /// Estimate the rows `dirty` (sorted, distinct) of the inverse of `a` on
    /// its splitting `walk`, and assemble the matrix they give: a dirty row
    /// is `walk_row`'s tally (which returns the row's statistics and the
    /// tally's divisor) through [`harvest_row`], every other row is copied
    /// from `keep`. Returns that matrix and the dirty rows' walk statistics
    /// in `dirty` order. The one estimate-then-splice under every build, so
    /// an all-dirty rebuild *is* a fresh build.
    ///
    /// Assembly sizes every row first, then copies the rows into their
    /// exact slots over nnz-balanced row ranges, in parallel once `nnz(P)`
    /// clears the dispatch threshold. The copies are pure, so `P` is
    /// bit-identical at any thread count.
    fn estimate_and_splice(
        &self,
        walk: &WalkMatrix,
        a: &Csr,
        dirty: &[usize],
        keep: Option<&Csr>,
        walk_row: impl Fn(usize, &mut RowWorkspace) -> (RowWalkStats, usize) + Sync,
    ) -> (Csr, Vec<RowWalkStats>) {
        let n = a.nrows();
        let estimated: Vec<RowOut> = (0..dirty.len())
            .into_par_iter()
            .map_init(
                // One workspace per worker: the O(n) scratch is allocated
                // once per thread, not once per row.
                || RowWorkspace::new(n),
                |ws, d| {
                    let i = dirty[d];
                    let (stats, divisor) = walk_row(i, ws);
                    let budget = row_budget(a.row_indices(i).len());
                    let (cols, vals) = harvest_row(walk, budget, divisor, ws);
                    RowOut { cols, vals, stats }
                },
            )
            .collect();

        let row = |i: usize| match dirty.binary_search(&i) {
            Ok(d) => (&estimated[d].cols[..], &estimated[d].vals[..]),
            Err(_) => {
                let kept = keep.expect("a clean row needs an inverse to be kept from");
                (kept.row_indices(i), kept.row_values(i))
            }
        };
        let mut indptr = vec![0usize; n + 1];
        for i in 0..n {
            indptr[i + 1] = indptr[i] + row(i).0.len();
        }
        let nnz = indptr[n];
        let ranges = nnz_balanced_ranges(&indptr, row_parts(nnz));
        let entry_counts = || ranges.iter().map(|r| indptr[r.end] - indptr[r.start]);
        let mut cols = vec![0usize; nnz];
        let mut vals = vec![0.0; nnz];
        ranges
            .iter()
            .cloned()
            .zip(carve(&mut cols, entry_counts()))
            .zip(carve(&mut vals, entry_counts()))
            .collect::<Vec<_>>()
            .into_par_iter()
            .for_each(|((rows, cols), vals)| {
                let base = indptr[rows.start];
                for i in rows {
                    let (rs, re) = (indptr[i] - base, indptr[i + 1] - base);
                    let (row_cols, row_vals) = row(i);
                    cols[rs..re].copy_from_slice(row_cols);
                    vals[rs..re].copy_from_slice(row_vals);
                }
            });
        let stats = estimated.iter().map(|r| r.stats).collect();
        (Csr::from_raw(n, n, indptr, cols, vals), stats)
    }

    /// Re-estimate only `rows` of an existing build against the drifted
    /// operator `a`, splicing the fresh rows into the preconditioner in
    /// place. This is the payoff of the estimator's row independence (the
    /// paper's Algorithm 1): a drift step that touched 3% of the operator
    /// rows costs ~3% of a full build.
    ///
    /// Semantics:
    /// - Each rebuilt row runs the *same* `(seed, row, chain)` RNG
    ///   streams, the same budget rule against `a`'s row degree, and the
    ///   same harvest as [`McmcInverse::build`] — so a call with **all**
    ///   rows dirty is bit-identical to a fresh build against `a` (at any
    ///   thread count), and a call with **no** rows is a no-op on the
    ///   preconditioner.
    /// - The walk splitting (including its inverse diagonal and the
    ///   contractivity audit) is re-derived from the drifted `a`, so clean
    ///   rows' entries are *kept* while the aggregate
    ///   `noncontractive_fraction` reflects the current operator.
    /// - Aggregate chain counters are updated exactly via the stored
    ///   [`BuildOutcome::row_stats`] (old row out, new row in).
    ///
    /// `rows` may be unsorted and contain duplicates.
    ///
    /// # Panics
    /// Panics if `a`'s dimensions disagree with the existing
    /// preconditioner (a dimension change is a new operator, not drift),
    /// or any row index is out of range.
    pub fn rebuild_rows(
        &self,
        out: &mut BuildOutcome,
        a: &Csr,
        rows: &[usize],
        params: McmcParams,
    ) {
        let n = a.nrows();
        assert_eq!(a.nrows(), a.ncols(), "rebuild_rows: matrix must be square");
        assert_eq!(
            out.precond.matrix().nrows(),
            n,
            "rebuild_rows: dimension change invalidates the preconditioner"
        );
        assert_eq!(
            out.row_stats.len(),
            n,
            "rebuild_rows: outcome row_stats out of sync"
        );
        let mut dirty: Vec<usize> = rows.to_vec();
        dirty.sort_unstable();
        dirty.dedup();
        if dirty.is_empty() {
            return;
        }
        if let Some(&last) = dirty.last() {
            assert!(last < n, "rebuild_rows: row {last} out of range (n = {n})");
        }

        let walk = WalkMatrix::from_perturbed(a, params.alpha);
        let keep = Some(out.precond.matrix());
        let (p, rebuilt) = self.estimate_and_splice(&walk, a, &dirty, keep, |i, ws| {
            self.walk_row(&walk, i, params, ws)
        });

        // Exact aggregate update: subtract each dirty row's old stats, add
        // the new ones.
        for (&i, &new) in dirty.iter().zip(&rebuilt) {
            let old = out.row_stats[i];
            out.transitions = out.transitions - old.transitions + new.transitions;
            out.capped_chains = out.capped_chains - old.capped + new.capped;
            out.blown_up_chains = out.blown_up_chains - old.blown_up + new.blown_up;
            out.row_stats[i] = new;
        }
        out.noncontractive_fraction = walk.noncontractive_fraction();
        out.chains_per_row = params.chains_per_row();
        // `SparsePrecond::new` re-runs structure detection on the spliced
        // matrix, so stencil applies keep dispatching right.
        out.precond = SparsePrecond::new(p);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmcmi_dense::Lu;
    use mcmcmi_krylov::{gmres, IdentityPrecond, Preconditioner, SolveOptions};
    use mcmcmi_matgen::{fd_laplace_2d, laplace_1d, pdd_real_sparse};

    fn tight_params() -> McmcParams {
        McmcParams::new(0.5, 0.02, 0.001)
    }

    #[test]
    fn approximates_exact_inverse_on_small_spd() {
        let a = laplace_1d(8);
        let params = tight_params();
        let out = McmcInverse::new(BuildConfig::default()).build(&a, params);
        // Exact inverse of the perturbed matrix Â = A + 0.5·diag(|a_ii|).
        let mut dense = a.to_dense();
        for i in 0..8 {
            let v = dense.get(i, i) + params.alpha * dense.get(i, i).abs();
            dense.set(i, i, v);
        }
        let exact = Lu::new(&dense).inverse().unwrap();
        let p = out.precond.matrix().to_dense();
        // Entrywise agreement within MC error (ε = 0.02 ⇒ ~1100 chains/row).
        let diff = p.max_abs_diff(&exact);
        assert!(diff < 0.05, "max diff {diff}");
        assert_eq!(out.blown_up_chains, 0);
    }

    #[test]
    fn preconditioner_reduces_gmres_iterations() {
        let a = fd_laplace_2d(16);
        let n = a.nrows();
        let b = vec![1.0; n];
        let plain = gmres(&a, &b, &IdentityPrecond::new(n), SolveOptions::default());
        let out = McmcInverse::new(BuildConfig::default())
            .build(&a, McmcParams::new(0.1, 0.0625, 0.0625));
        let pre = gmres(&a, &b, &out.precond, SolveOptions::default());
        assert!(pre.converged);
        assert!(
            pre.iterations < plain.iterations,
            "MCMC {} vs plain {}",
            pre.iterations,
            plain.iterations
        );
    }

    #[test]
    fn built_precond_block_apply_matches_columnwise_apply() {
        // The MCMC inverse is consumed through `SparsePrecond` in the
        // batched solvers; its block application must be bit-identical to
        // per-column application or `solve_batch` loses its scalar parity.
        let a = fd_laplace_2d(8);
        let n = a.nrows();
        let out =
            McmcInverse::new(BuildConfig::default()).build(&a, McmcParams::new(0.5, 0.125, 0.0625));
        let k = 5usize;
        let r: Vec<f64> = (0..n * k)
            .map(|t| ((t * 11 + 5) as f64 * 0.053).sin())
            .collect();
        let mut z = vec![0.0; n * k];
        out.precond.apply_block(&r, k, &mut z);
        let mut rc = vec![0.0; n];
        let mut zc = vec![0.0; n];
        for c in 0..k {
            mcmcmi_dense::gather_col(&r, k, c, &mut rc);
            out.precond.apply(&rc, &mut zc);
            let mut got = vec![0.0; n];
            mcmcmi_dense::gather_col(&z, k, c, &mut got);
            assert_eq!(got, zc, "column {c}");
        }
    }

    #[test]
    fn into_session_batches_bit_identical_to_single_solves() {
        let a = fd_laplace_2d(10);
        let n = a.nrows();
        let out = McmcInverse::new(BuildConfig::default())
            .build(&a, McmcParams::new(0.1, 0.0625, 0.0625));
        let mut session = out.clone().into_session(
            &a,
            mcmcmi_krylov::SolverType::Gmres,
            SolveOptions::default(),
        );
        let rhs: Vec<Vec<f64>> = (0..4)
            .map(|c| {
                (0..n)
                    .map(|i| (i as f64 * (0.2 + 0.09 * c as f64)).sin())
                    .collect()
            })
            .collect();
        assert_eq!(session.precond().matrix(), out.precond.matrix(), "as built");
        let cg = mcmcmi_krylov::SolverType::Cg;
        let for_cg = out.clone().into_session(&a, cg, SolveOptions::default());
        assert!(!out.precond.matrix().is_symmetric(0.0));
        assert!(for_cg.precond().matrix().is_symmetric(0.0));
        let batch = session.solve_batch(&rhs);
        for (c, b) in rhs.iter().enumerate() {
            let single = session.solve(b);
            assert_eq!(batch[c].x, single.x, "column {c}");
            assert_eq!(batch[c].iterations, single.iterations, "column {c}");
        }
    }

    #[test]
    fn build_is_deterministic_and_seed_sensitive() {
        let a = pdd_real_sparse(64, 7);
        let builder = McmcInverse::new(BuildConfig::default());
        let p1 = builder.build(&a, McmcParams::new(1.0, 0.25, 0.25));
        let p2 = builder.build(&a, McmcParams::new(1.0, 0.25, 0.25));
        assert_eq!(p1.precond.matrix(), p2.precond.matrix());
        let p3 = McmcInverse::new(BuildConfig {
            seed: 99,
            ..Default::default()
        })
        .build(&a, McmcParams::new(1.0, 0.25, 0.25));
        assert_ne!(p1.precond.matrix(), p3.precond.matrix());
    }

    #[test]
    fn determinism_across_thread_counts() {
        let a = pdd_real_sparse(96, 3);
        let params = McmcParams::new(1.0, 0.125, 0.125);
        let builder = McmcInverse::new(BuildConfig::default());
        let reference = builder.build(&a, params).precond.matrix().clone();
        for threads in [1usize, 2, 5] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let got = pool.install(|| builder.build(&a, params));
            assert_eq!(
                got.precond.matrix(),
                &reference,
                "thread count {threads} changed the result"
            );
        }
    }

    #[test]
    fn fill_budget_is_respected() {
        let a = fd_laplace_2d(12);
        let out =
            McmcInverse::new(BuildConfig::default()).build(&a, McmcParams::new(1.0, 0.05, 0.01));
        let p = out.precond.matrix();
        // Global budget: filling factor 2 ⇒ nnz(P) ≤ 2·nnz(A) + n slack.
        assert!(
            p.nnz() <= 2 * a.nnz() + a.nrows(),
            "nnz(P) = {} vs 2·nnz(A) = {}",
            p.nnz(),
            2 * a.nnz()
        );
    }

    #[test]
    fn near_zero_alpha_on_nondominant_matrix_diverges() {
        // Strongly non-dominant: the paper's divergence scenario.
        let mut coo = mcmcmi_sparse::Coo::new(16, 16);
        for i in 0..16 {
            coo.push(i, i, 1.0);
            coo.push(i, (i + 1) % 16, 2.5);
            coo.push(i, (i + 5) % 16, -2.5);
        }
        let a = coo.to_csr();
        let out =
            McmcInverse::new(BuildConfig::default()).build(&a, McmcParams::new(0.001, 0.125, 1e-3));
        assert!(out.noncontractive_fraction > 0.9);
        assert!(out.blown_up_chains > 0);
        assert!(out.likely_divergent());
        // Large α cures it.
        let ok =
            McmcInverse::new(BuildConfig::default()).build(&a, McmcParams::new(5.0, 0.125, 1e-3));
        assert_eq!(ok.noncontractive_fraction, 0.0);
        assert!(!ok.likely_divergent());
    }

    #[test]
    fn alpha_tradeoff_large_alpha_preconditions_worse() {
        // Huge α ⇒ P ≈ (A + αD)⁻¹ ≈ a scaled Jacobi, far from A⁻¹ ⇒ weaker
        // preconditioning than a moderate α. This is the non-trivial optimum
        // the tuner exploits.
        let a = fd_laplace_2d(16);
        let n = a.nrows();
        let b = vec![1.0; n];
        let builder = McmcInverse::new(BuildConfig::default());
        let moderate = builder.build(&a, McmcParams::new(0.1, 0.0625, 0.03125));
        let huge = builder.build(&a, McmcParams::new(50.0, 0.0625, 0.03125));
        let it_mod = gmres(&a, &b, &moderate.precond, SolveOptions::default()).iterations;
        let it_huge = gmres(&a, &b, &huge.precond, SolveOptions::default()).iterations;
        assert!(it_mod < it_huge, "moderate α {it_mod} !< huge α {it_huge}");
    }

    #[test]
    fn cancellation_duplicates_do_not_corrupt_csr() {
        // Signed off-diagonals make weight cancellation (a tally returning
        // to exactly 0.0 before the state is revisited) likely; the build
        // must still produce a structurally valid CSR. Regression test for
        // the duplicate-`touched` bug found by the dataset generator.
        let a = mcmcmi_matgen::unsteady_adv_diff(8, mcmcmi_matgen::AdvDiffOrder::One);
        let builder = McmcInverse::new(BuildConfig::default());
        for seed in 0..4u64 {
            let out = McmcInverse::new(BuildConfig {
                seed,
                ..Default::default()
            })
            .build(&a, McmcParams::new(1.0, 0.25, 0.5));
            assert!(out.precond.matrix().check_invariants().is_ok());
            let _ = &builder;
        }
    }

    #[test]
    fn rebuild_all_rows_is_bit_identical_to_fresh_build() {
        // Drift every row, then rebuild every row: must equal a fresh build
        // against the drifted operator bit-for-bit — same seeds, same
        // harvest, same budgets.
        let a = pdd_real_sparse(48, 5);
        let mut b = a.clone();
        for i in 0..b.nrows() {
            b.row_values_mut(i)[0] *= 1.0 + 1e-3;
        }
        let params = McmcParams::new(1.0, 0.25, 0.25);
        let builder = McmcInverse::new(BuildConfig::default());
        let mut out = builder.build(&a, params);
        let all: Vec<usize> = (0..a.nrows()).collect();
        builder.rebuild_rows(&mut out, &b, &all, params);
        let fresh = builder.build(&b, params);
        assert_eq!(out.precond.matrix(), fresh.precond.matrix());
        assert_eq!(out.transitions, fresh.transitions);
        assert_eq!(out.capped_chains, fresh.capped_chains);
        assert_eq!(out.blown_up_chains, fresh.blown_up_chains);
        assert_eq!(out.noncontractive_fraction, fresh.noncontractive_fraction);
    }

    #[test]
    fn rebuild_no_rows_is_a_noop() {
        let a = pdd_real_sparse(32, 2);
        let params = McmcParams::new(1.0, 0.25, 0.25);
        let builder = McmcInverse::new(BuildConfig::default());
        let mut out = builder.build(&a, params);
        let before = out.precond.matrix().clone();
        let transitions = out.transitions;
        builder.rebuild_rows(&mut out, &a, &[], params);
        assert_eq!(out.precond.matrix(), &before);
        assert_eq!(out.transitions, transitions);
    }

    #[test]
    fn rebuild_dirty_subset_keeps_clean_rows_and_refreshes_dirty_ones() {
        let a = pdd_real_sparse(40, 9);
        let params = McmcParams::new(1.0, 0.125, 0.125);
        let builder = McmcInverse::new(BuildConfig::default());
        let mut out = builder.build(&a, params);
        let before = out.precond.matrix().clone();
        // Perturb three rows of the operator.
        let mut b = a.clone();
        for &i in &[3usize, 17, 29] {
            for v in b.row_values_mut(i) {
                *v *= 1.0 + 5e-2;
            }
        }
        // Duplicates and unsorted order must be tolerated.
        builder.rebuild_rows(&mut out, &b, &[29, 3, 17, 3], params);
        let fresh = builder.build(&b, params);
        let got = out.precond.matrix();
        for i in 0..a.nrows() {
            if [3, 17, 29].contains(&i) {
                assert_eq!(
                    got.row_values(i),
                    fresh.precond.matrix().row_values(i),
                    "dirty row {i} must match a fresh build"
                );
            } else {
                assert_eq!(
                    got.row_values(i),
                    before.row_values(i),
                    "clean row {i} must be untouched"
                );
                assert_eq!(got.row_indices(i), before.row_indices(i));
            }
        }
        assert!(got.check_invariants().is_ok());
    }

    #[test]
    fn rebuild_rows_deterministic_across_thread_counts() {
        let a = pdd_real_sparse(64, 4);
        let params = McmcParams::new(1.0, 0.25, 0.25);
        let builder = McmcInverse::new(BuildConfig::default());
        let mut b = a.clone();
        for &i in &[5usize, 6, 40, 41, 42] {
            b.row_values_mut(i)[0] *= 1.02;
        }
        let dirty = [5usize, 6, 40, 41, 42];
        let reference = {
            let mut out = builder.build(&a, params);
            builder.rebuild_rows(&mut out, &b, &dirty, params);
            out.precond.matrix().clone()
        };
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let got = pool.install(|| {
                let mut out = builder.build(&a, params);
                builder.rebuild_rows(&mut out, &b, &dirty, params);
                out
            });
            assert_eq!(
                got.precond.matrix(),
                &reference,
                "thread count {threads} changed the rebuild"
            );
        }
    }

    #[test]
    #[should_panic(expected = "dimension change")]
    fn rebuild_rejects_dimension_change() {
        let a = pdd_real_sparse(32, 1);
        let params = McmcParams::new(1.0, 0.5, 0.5);
        let builder = McmcInverse::new(BuildConfig::default());
        let mut out = builder.build(&a, params);
        let smaller = pdd_real_sparse(16, 1);
        builder.rebuild_rows(&mut out, &smaller, &[0], params);
    }

    #[test]
    fn regenerative_build_is_deterministic() {
        let a = pdd_real_sparse(48, 5);
        let builder = McmcInverse::new(BuildConfig::default());
        let p1 = builder.build_regenerative(&a, 1.0, 2_000);
        let p2 = builder.build_regenerative(&a, 1.0, 2_000);
        assert_eq!(p1.matrix(), p2.matrix());
    }

    #[test]
    fn fully_absorbing_matrix_yields_scaled_identity() {
        // Diagonal-only A: every walk row is absorbing, so every start row
        // hits the absorbing-start special case. The loop must terminate
        // and produce P = D̂⁻¹ exactly.
        let n = 6;
        let mut coo = mcmcmi_sparse::Coo::new(n, n);
        for i in 0..n {
            coo.push(i, i, 2.0 + i as f64);
        }
        let alpha = 0.5;
        let p = McmcInverse::new(BuildConfig::default()).build_regenerative(
            &coo.to_csr(),
            alpha,
            1_000,
        );
        let m = p.matrix();
        assert_eq!(m.nnz(), n, "expected a diagonal result");
        for i in 0..n {
            let expect = 1.0 / ((2.0 + i as f64) * (1.0 + alpha));
            assert_eq!(m.row_indices(i), &[i], "row {i} pattern");
            let got = m.row_values(i)[0];
            assert!(
                (got - expect).abs() < 1e-15,
                "row {i} value {got} vs {expect}"
            );
        }
    }

    #[test]
    fn regenerative_cycle_trapped_off_its_row_is_capped() {
        // Â at α = 0.5 has c_01 = 0.5 and c_12 = c_21 = 1: row 0's cycle
        // enters the 1 ↔ 2 loop at weight 0.5 and never truncates, blows
        // up or returns to row 0. Only the step cap ends it.
        let mut coo = mcmcmi_sparse::Coo::new(3, 3);
        for (i, j, v) in [(0, 0, 1.0), (0, 1, -0.75), (1, 1, 1.0)] {
            coo.push(i, j, v);
        }
        for (i, j, v) in [(1, 2, -1.5), (2, 1, -1.5), (2, 2, 1.0)] {
            coo.push(i, j, v);
        }
        let p =
            McmcInverse::new(BuildConfig::default()).build_regenerative(&coo.to_csr(), 0.5, 2_000);
        assert!(p.matrix().values().iter().all(|v| v.is_finite()));
        assert_eq!(p.matrix().row_indices(0), &[0, 1, 2]);
    }

    #[test]
    fn regenerative_preconditioner_helps() {
        let a = fd_laplace_2d(16);
        let n = a.nrows();
        let b = vec![1.0; n];
        let plain = gmres(&a, &b, &IdentityPrecond::new(n), SolveOptions::default());
        let p = McmcInverse::new(BuildConfig::default()).build_regenerative(&a, 0.1, 30_000);
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
        let a = laplace_1d(8);
        let alpha = 0.5;
        let p = McmcInverse::new(BuildConfig::default()).build_regenerative(&a, alpha, 400_000);
        let mut dense = a.to_dense();
        for i in 0..8 {
            let v = dense.get(i, i) * (1.0 + alpha);
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
        let builder = McmcInverse::new(BuildConfig::default());
        let small = builder.build_regenerative(&a, 0.1, 30);
        let large = builder.build_regenerative(&a, 0.1, 20_000);
        let it_small = gmres(&a, &b, &small, SolveOptions::default()).iterations;
        let it_large = gmres(&a, &b, &large, SolveOptions::default()).iterations;
        assert!(it_large <= it_small, "{it_large} > {it_small}");
    }

    #[test]
    fn precond_dim_matches_matrix() {
        let a = pdd_real_sparse(32, 1);
        let out =
            McmcInverse::new(BuildConfig::default()).build(&a, McmcParams::new(1.0, 0.5, 0.5));
        assert_eq!(out.precond.dim(), 32);
        assert!(out.transitions > 0);
        assert_eq!(out.chains_per_row, 2);
    }
}
