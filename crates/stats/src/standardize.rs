//! Column-wise z-score standardisation (paper §3.1: "all features are
//! standardised — each value is rescaled to zero mean and unit variance").
//!
//! The statistics are fit on the training set and persisted with the
//! surrogate so that inference-time inputs are transformed identically.

use serde::{Deserialize, Serialize};

/// Fitted per-column standardiser.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Standardizer {
    means: Vec<f64>,
    stds: Vec<f64>,
}

impl Standardizer {
    /// Fit on a row-major table (`rows` of equal length). Columns with zero
    /// variance get `std = 1` so they transform to exactly zero instead of
    /// NaN.
    ///
    /// # Panics
    /// Panics on empty input or ragged rows.
    pub fn fit(rows: &[Vec<f64>]) -> Self {
        assert!(!rows.is_empty(), "Standardizer::fit: no rows");
        let d = rows[0].len();
        let n = rows.len() as f64;
        let mut means = vec![0.0; d];
        for row in rows {
            assert_eq!(row.len(), d, "Standardizer::fit: ragged rows");
            for (m, &v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; d];
        for row in rows {
            for ((v, &x), &m) in vars.iter_mut().zip(row).zip(&means) {
                let t = x - m;
                *v += t * t;
            }
        }
        let stds: Vec<f64> = vars
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s > 1e-12 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        Self { means, stds }
    }

    /// Dimensionality the standardiser was fit on.
    pub fn dim(&self) -> usize {
        self.means.len()
    }

    /// Transform one row in place.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn transform_in_place(&self, row: &mut [f64]) {
        assert_eq!(row.len(), self.dim(), "Standardizer: dimension mismatch");
        for ((x, &m), &s) in row.iter_mut().zip(&self.means).zip(&self.stds) {
            *x = (*x - m) / s;
        }
    }

    /// Transformed copy of one row.
    pub fn transform(&self, row: &[f64]) -> Vec<f64> {
        let mut out = row.to_vec();
        self.transform_in_place(&mut out);
        out
    }

    /// Inverse transform (exact round-trip).
    #[cfg(test)]
    fn inverse_transform(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.dim(), "Standardizer: dimension mismatch");
        row.iter()
            .zip(&self.means)
            .zip(&self.stds)
            .map(|((&z, &m), &s)| z * s + m)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_transform_gives_zero_mean_unit_variance() {
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![i as f64, 3.0 * i as f64 + 7.0])
            .collect();
        let s = Standardizer::fit(&rows);
        let transformed: Vec<Vec<f64>> = rows.iter().map(|r| s.transform(r)).collect();
        for col in 0..2 {
            let vals: Vec<f64> = transformed.iter().map(|r| r[col]).collect();
            let m = crate::describe::mean(&vals);
            let v: f64 = vals.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / vals.len() as f64;
            assert!(m.abs() < 1e-12);
            assert!((v - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_column_maps_to_zero() {
        let rows = vec![vec![5.0, 1.0], vec![5.0, 2.0], vec![5.0, 3.0]];
        let s = Standardizer::fit(&rows);
        let t = s.transform(&[5.0, 2.0]);
        assert_eq!(t[0], 0.0);
    }

    #[test]
    fn roundtrip_is_exact() {
        let rows = vec![
            vec![1.0, -4.0, 10.0],
            vec![2.0, 6.0, -3.0],
            vec![0.5, 1.0, 2.0],
        ];
        let s = Standardizer::fit(&rows);
        for r in &rows {
            let back = s.inverse_transform(&s.transform(r));
            for (p, q) in back.iter().zip(r) {
                assert!((p - q).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn serde_roundtrip() {
        let rows = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let s = Standardizer::fit(&rows);
        let json = serde_json::to_string(&s).unwrap();
        let s2: Standardizer = serde_json::from_str(&json).unwrap();
        assert_eq!(s, s2);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn transform_rejects_wrong_dim() {
        let s = Standardizer::fit(&[vec![1.0, 2.0]]);
        let _ = s.transform(&[1.0]);
    }
}
