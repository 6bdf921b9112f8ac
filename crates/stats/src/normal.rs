//! Standard normal distribution: PDF, CDF, quantile.
//!
//! The CDF is computed through the regularised incomplete gamma function
//! (`erfc(x) = Q(1/2, x²)` for `x ≥ 0`), which is double-precision accurate;
//! the quantile uses Acklam's algorithm refined by one Halley step.

use crate::special::gamma_q;
use std::f64::consts::{FRAC_1_SQRT_2, PI};

/// Standard normal probability density function φ(x).
#[inline]
pub fn norm_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * PI).sqrt()
}

/// Complementary error function via the incomplete gamma function.
pub fn erfc(x: f64) -> f64 {
    if x >= 0.0 {
        gamma_q(0.5, x * x)
    } else {
        2.0 - gamma_q(0.5, x * x)
    }
}

/// Error function.
#[cfg(test)]
fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// Standard normal cumulative distribution function Φ(x).
#[inline]
pub fn norm_cdf(x: f64) -> f64 {
    0.5 * erfc(-x * FRAC_1_SQRT_2)
}

/// Standard normal quantile Φ⁻¹(p) (Acklam's algorithm + one Halley
/// refinement step against the high-accuracy CDF).
///
/// # Panics
/// Panics if `p` is outside (0, 1).
pub fn norm_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "norm_quantile: p must be in (0,1), got {p}"
    );
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383577518672690e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley refinement step.
    let e = norm_cdf(x) - p;
    let u = e * (2.0 * PI).sqrt() * (0.5 * x * x).exp();
    x - u / (1.0 + 0.5 * x * u)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pdf_at_zero() {
        assert!((norm_pdf(0.0) - 0.3989422804014327).abs() < 1e-15);
    }

    #[test]
    fn erf_known_values() {
        // erf(1) = 0.8427007929497149
        assert!((erf(1.0) - 0.8427007929497149).abs() < 1e-13);
        assert!((erf(0.5) - 0.5204998778130465).abs() < 1e-13);
        assert!(erf(0.0).abs() < 1e-15);
        assert!((erf(-1.0) + 0.8427007929497149).abs() < 1e-13);
    }

    #[test]
    fn cdf_symmetry_and_known_values() {
        assert!((norm_cdf(0.0) - 0.5).abs() < 1e-13);
        assert!((norm_cdf(1.96) - 0.9750021048517795).abs() < 1e-12);
        assert!((norm_cdf(-1.0) - 0.15865525393145707).abs() < 1e-12);
        for &x in &[0.1, 0.5, 1.3, 2.7, 4.2] {
            assert!((norm_cdf(x) + norm_cdf(-x) - 1.0).abs() < 1e-13, "x={x}");
        }
    }

    #[test]
    fn cdf_tails() {
        assert!(norm_cdf(-9.0) > 0.0);
        assert!(norm_cdf(-9.0) < 1e-18);
        assert!(norm_cdf(9.0) > 1.0 - 1e-15);
    }

    #[test]
    fn quantile_inverts_cdf() {
        for &p in &[
            0.001, 0.01, 0.025, 0.1, 0.25, 0.5, 0.75, 0.9, 0.975, 0.99, 0.999,
        ] {
            let x = norm_quantile(p);
            assert!((norm_cdf(x) - p).abs() < 1e-12, "p={p}, x={x}");
        }
    }

    #[test]
    fn quantile_known_values() {
        assert!((norm_quantile(0.975) - 1.959963984540054).abs() < 1e-9);
        assert!(norm_quantile(0.5).abs() < 1e-12);
        assert!((norm_quantile(0.995) - 2.5758293035489004).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "must be in (0,1)")]
    fn quantile_rejects_boundary() {
        let _ = norm_quantile(1.0);
    }

    #[test]
    fn pdf_is_derivative_of_cdf() {
        let h = 1e-6;
        for &x in &[-2.0, -0.5, 0.0, 0.7, 2.5] {
            let num = (norm_cdf(x + h) - norm_cdf(x - h)) / (2.0 * h);
            assert!((num - norm_pdf(x)).abs() < 1e-8, "x={x}");
        }
    }
}
