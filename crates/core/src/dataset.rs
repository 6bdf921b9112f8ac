//! The labelled dataset of paper §4.2.
//!
//! A 4×4×4 grid over (α, ε, δ) is executed `reps` times per (matrix, solver
//! ∈ {GMRES, BiCGStab}); SPD matrices additionally contribute CG rows at
//! α = 0.1, and a few near-zero-α rows expose the surrogate to divergence.
//! Each `(matrix, solver, x_M)` cell becomes one record with the sample
//! mean ȳ and sample standard deviation s.

use crate::features::matrix_features;
use crate::measure::MeasurementRunner;
use mcmcmi_gnn::{GraphSample, MatrixGraph, SurrogateDataset};
use mcmcmi_krylov::SolverType;
use mcmcmi_mcmc::McmcParams;
use mcmcmi_sparse::Csr;
use mcmcmi_stats::Standardizer;
use serde::{Deserialize, Serialize};

/// One labelled cell of the dataset.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct DatasetRecord {
    /// Matrix name (Table-1 naming).
    pub matrix: String,
    /// Krylov solver the cell was measured with.
    pub solver: SolverType,
    /// MCMC parameters.
    pub params: McmcParams,
    /// Sample mean of the metric y over the replicates.
    pub y_mean: f64,
    /// Sample standard deviation.
    pub y_std: f64,
    /// Raw replicate values.
    pub ys: Vec<f64>,
}

/// The dataset plus the matrix registry it refers to.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PaperDataset {
    /// Matrix names in registry order.
    pub matrix_names: Vec<String>,
    /// Labelled records.
    pub records: Vec<DatasetRecord>,
}

impl PaperDataset {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when no records are present.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Build the grid dataset for a set of named matrices.
    ///
    /// `reps` is the replicate count per cell (paper: 10); `spd` flags which
    /// matrices additionally get the CG rows; `divergence_rows` adds the
    /// near-zero-α samples (per matrix, GMRES only).
    pub fn build(
        runner: &MeasurementRunner,
        matrices: &[(String, Csr, bool)],
        reps: usize,
        divergence_rows: usize,
        seed: u64,
    ) -> Self {
        let grid = McmcParams::paper_grid();
        let mut ds = PaperDataset::default();
        for (mi, (name, a, spd)) in matrices.iter().enumerate() {
            ds.matrix_names.push(name.clone());
            let mut cells: Vec<(McmcParams, SolverType)> = Vec::new();
            for &p in &grid {
                cells.push((p, SolverType::Gmres));
                cells.push((p, SolverType::BiCgStab));
            }
            if *spd {
                // Paper: "the symmetric Laplace matrices were additionally
                // run with CG at α = 0.1".
                let epsdeltas = [0.5, 0.25, 0.125, 0.0625];
                for &e in &epsdeltas {
                    for &d in &epsdeltas {
                        cells.push((McmcParams::new(0.1, e, d), SolverType::Cg));
                    }
                }
            }
            for k in 0..divergence_rows {
                let eps = [0.5, 0.25, 0.125, 0.0625][k % 4];
                cells.push((McmcParams::new(0.01, eps, 0.125), SolverType::Gmres));
            }
            // One baseline per (matrix, solver): the Eq.-4 denominator.
            let mut baselines = std::collections::HashMap::new();
            for (ci, (p, solver)) in cells.into_iter().enumerate() {
                let cell_seed = seed
                    .wrapping_add(mi as u64 * 1_000_000)
                    .wrapping_add(ci as u64 * 1_000);
                let baseline = *baselines
                    .entry(solver)
                    .or_insert_with(|| runner.baseline_steps(a, solver));
                let (y_mean, y_std, ms) = runner
                    .measure_replicated_with_baseline(a, p, solver, reps, cell_seed, baseline);
                ds.records.push(DatasetRecord {
                    matrix: name.clone(),
                    solver,
                    params: p,
                    y_mean,
                    y_std,
                    ys: ms.into_iter().map(|m| m.y).collect(),
                });
            }
        }
        ds
    }

    /// Raw (unstandardised) `x_M` vector for a record:
    /// `[α, ε, δ, onehot(solver)]`.
    fn raw_xm(record: &DatasetRecord) -> Vec<f64> {
        let mut v = record.params.as_vec().to_vec();
        v.extend_from_slice(&record.solver.one_hot());
        v
    }

    /// Convert to the GNN trainer's format, fitting the feature
    /// standardisers on this dataset (paper §3.1). Returns the dataset plus
    /// the fitted `x_A` and `x_M` standardisers (needed at inference).
    pub fn to_surrogate_dataset(
        &self,
        matrices: &[(String, Csr, bool)],
    ) -> (SurrogateDataset, Standardizer, Standardizer) {
        assert!(!self.is_empty(), "to_surrogate_dataset: empty dataset");
        // Fit standardisers.
        let xa_rows: Vec<Vec<f64>> = matrices
            .iter()
            .map(|(_, a, _)| matrix_features(a))
            .collect();
        let xa_std = Standardizer::fit(&xa_rows);
        let xm_rows: Vec<Vec<f64>> = self.records.iter().map(Self::raw_xm).collect();
        let xm_std = Standardizer::fit(&xm_rows);

        let mut ds = SurrogateDataset::default();
        let mut index_of = std::collections::HashMap::new();
        for ((name, a, _), xa) in matrices.iter().zip(&xa_rows) {
            let idx = ds.add_matrix(MatrixGraph::from_csr(a), xa_std.transform(xa));
            index_of.insert(name.clone(), idx);
        }
        for (rec, xm) in self.records.iter().zip(&xm_rows) {
            let Some(&idx) = index_of.get(&rec.matrix) else {
                continue; // record for a matrix not in this registry subset
            };
            ds.push_sample(GraphSample {
                matrix_idx: idx,
                xm: xm_std.transform(xm),
                y_mean: rec.y_mean,
                y_std: rec.y_std,
            });
        }
        (ds, xa_std, xm_std)
    }

    /// Persist to a JSON file.
    pub fn save_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        serde_json::to_writer(std::io::BufWriter::new(file), self).map_err(std::io::Error::other)
    }

    /// Load from a JSON file.
    pub fn load_json(path: &std::path::Path) -> std::io::Result<Self> {
        let file = std::fs::File::open(path)?;
        serde_json::from_reader(std::io::BufReader::new(file)).map_err(std::io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::MeasureConfig;
    use mcmcmi_matgen::{laplace_1d, pdd_real_sparse};

    fn tiny_matrices() -> Vec<(String, Csr, bool)> {
        vec![
            ("lap16".into(), laplace_1d(16), true),
            ("pdd24".into(), pdd_real_sparse(24, 1), false),
        ]
    }

    fn fast_runner() -> MeasurementRunner {
        MeasurementRunner::new(MeasureConfig {
            solve: mcmcmi_krylov::SolveOptions {
                tol: 1e-6,
                max_iter: 300,
                restart: 30,
                ..Default::default()
            },
        })
    }

    #[test]
    fn grid_counts_match_paper_structure() {
        // 64 grid points × 2 solvers = 128 per matrix; SPD adds 16 CG rows;
        // plus 2 divergence rows each.
        let ds = PaperDataset::build(&fast_runner(), &tiny_matrices(), 1, 2, 0);
        let lap: Vec<_> = ds.records.iter().filter(|r| r.matrix == "lap16").collect();
        let pdd: Vec<_> = ds.records.iter().filter(|r| r.matrix == "pdd24").collect();
        assert_eq!(lap.len(), 128 + 16 + 2);
        assert_eq!(pdd.len(), 128 + 2);
        let cg = lap.iter().filter(|r| r.solver == SolverType::Cg).count();
        assert_eq!(cg, 16);
        assert!(lap
            .iter()
            .filter(|r| r.solver == SolverType::Cg)
            .all(|r| r.params.alpha == 0.1));
    }

    #[test]
    fn records_have_replicate_statistics() {
        let ds = PaperDataset::build(
            &fast_runner(),
            &[("pdd24".into(), pdd_real_sparse(24, 1), false)],
            3,
            0,
            0,
        );
        for r in &ds.records {
            assert_eq!(r.ys.len(), 3);
            assert!((mcmcmi_stats::mean(&r.ys) - r.y_mean).abs() < 1e-12);
            assert!(r.y_mean > 0.0);
        }
    }

    #[test]
    fn surrogate_conversion_standardises() {
        let mats = tiny_matrices();
        let ds = PaperDataset::build(&fast_runner(), &mats, 1, 0, 0);
        let (sds, _xa_std, xm_std) = ds.to_surrogate_dataset(&mats);
        assert_eq!(sds.graphs.len(), 2);
        assert_eq!(sds.len(), ds.len());
        assert_eq!(xm_std.dim(), 6);
        // Standardised xm columns should have near-zero mean.
        let dim = sds.samples[0].xm.len();
        for d in 0..dim {
            let m: f64 = sds.samples.iter().map(|s| s.xm[d]).sum::<f64>() / sds.len() as f64;
            assert!(m.abs() < 1e-8, "column {d} mean {m}");
        }
    }

    #[test]
    fn json_roundtrip() {
        let ds = PaperDataset::build(
            &fast_runner(),
            &[("pdd24".into(), pdd_real_sparse(24, 1), false)],
            1,
            0,
            0,
        );
        let dir = std::env::temp_dir().join("mcmcmi_ds_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.json");
        ds.save_json(&path).unwrap();
        let ds2 = PaperDataset::load_json(&path).unwrap();
        assert_eq!(ds.len(), ds2.len());
        assert_eq!(ds.records[0].y_mean, ds2.records[0].y_mean);
    }

    #[test]
    fn build_is_deterministic() {
        let mats = vec![("pdd24".to_string(), pdd_real_sparse(24, 1), false)];
        let a = PaperDataset::build(&fast_runner(), &mats, 2, 1, 5);
        let b = PaperDataset::build(&fast_runner(), &mats, 2, 1, 5);
        assert_eq!(a.records.len(), b.records.len());
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.ys, y.ys);
        }
    }
}
