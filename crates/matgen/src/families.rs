//! Finite-difference operator families: Laplacians, convection–diffusion,
//! and the wide-stencil climate-type operator.

use mcmcmi_sparse::{Coo, Csr};

/// 1D Dirichlet Laplacian `tridiag(-1, 2, -1)` of order `n` (test helper and
/// the simplest SPD family).
pub fn laplace_1d(n: usize) -> Csr {
    let mut coo = Coo::with_capacity(n, n, 3 * n);
    for i in 0..n {
        coo.push(i, i, 2.0);
        if i > 0 {
            coo.push(i, i - 1, -1.0);
        }
        if i + 1 < n {
            coo.push(i, i + 1, -1.0);
        }
    }
    coo.to_csr()
}

/// 2D five-point finite-difference Laplacian on the unit square with mesh
/// width `h = 1/k` and Dirichlet boundaries: `(k−1)² × (k−1)²`, stencil
/// `{4, −1, −1, −1, −1}` (unscaled, exactly the paper's `2DFDLaplace_k`).
///
/// The paper's Table 1: `2DFDLaplace_16` has n = 225 = 15², i.e. `k = 16`
/// gives `k−1 = 15` interior points per direction.
///
/// # Panics
/// Panics if `k < 2`.
pub fn fd_laplace_2d(k: usize) -> Csr {
    assert!(k >= 2, "fd_laplace_2d: mesh parameter k must be >= 2");
    let m = k - 1; // interior points per direction
    let n = m * m;
    let idx = |i: usize, j: usize| i * m + j;
    let mut coo = Coo::with_capacity(n, n, 5 * n);
    for i in 0..m {
        for j in 0..m {
            let r = idx(i, j);
            coo.push(r, r, 4.0);
            if i > 0 {
                coo.push(r, idx(i - 1, j), -1.0);
            }
            if i + 1 < m {
                coo.push(r, idx(i + 1, j), -1.0);
            }
            if j > 0 {
                coo.push(r, idx(i, j - 1), -1.0);
            }
            if j + 1 < m {
                coo.push(r, idx(i, j + 1), -1.0);
            }
        }
    }
    coo.to_csr()
}

/// Parameters for [`convection_diffusion_2d`].
#[derive(Clone, Copy, Debug)]
pub struct ConvectionDiffusionParams {
    /// Grid points in x (matrix order is `nx·ny`).
    pub nx: usize,
    /// Grid points in y.
    pub ny: usize,
    /// Isotropic diffusion coefficient ε.
    pub eps: f64,
    /// Anisotropy: y-direction diffusion is `eps·aniso`.
    pub aniso: f64,
    /// Convection strength (recirculating wind, first-order upwind).
    pub wind: f64,
    /// Coefficient contrast: the x-diffusivity varies as
    /// `eps·(1 + contrast·x²)` across the domain — the graded-mesh /
    /// coefficient-jump effect that drives FEM plasma matrices to large κ
    /// (κ scales roughly linearly with the contrast).
    pub contrast: f64,
    /// Wide (5×5) stencil: adds decaying second-ring couplings, emulating
    /// the denser connectivity of higher-order FEM bases (~25 nnz/row).
    pub wide: bool,
}

/// Nonsymmetric 2D convection–diffusion operator, first-order upwind
/// discretisation of `−∇·(K(x)∇u) + b·∇u` with a recirculating wind
/// `b = wind · (sin πy·cos πx, −sin πx·cos πy)` on an `nx × ny` grid.
///
/// Used as the synthetic stand-in for the paper's plasma-physics FEM
/// matrices `a00512` / `a08192`: same class (nonsymmetric discretised
/// transport), κ tuned through the coefficient `contrast`, fill through the
/// `wide` stencil.
pub fn convection_diffusion_2d(p: ConvectionDiffusionParams) -> Csr {
    let ConvectionDiffusionParams {
        nx,
        ny,
        eps,
        aniso,
        wind,
        contrast,
        wide,
    } = p;
    assert!(
        nx >= 2 && ny >= 2,
        "convection_diffusion_2d: grid too small"
    );
    let n = nx * ny;
    let hx = 1.0 / (nx as f64 + 1.0);
    let hy = 1.0 / (ny as f64 + 1.0);
    let idx = |i: usize, j: usize| i * ny + j;
    let mut coo = Coo::with_capacity(n, n, if wide { 25 * n } else { 5 * n });
    let pi = std::f64::consts::PI;
    let ky = eps * aniso / (hy * hy);
    for i in 0..nx {
        for j in 0..ny {
            let r = idx(i, j);
            let x = (i as f64 + 1.0) * hx;
            let y = (j as f64 + 1.0) * hy;
            // Spatially varying x-diffusivity (the κ lever).
            let kx = eps * (1.0 + contrast * x * x) / (hx * hx);
            let bx = wind * (pi * y).sin() * (pi * x).cos();
            let by = -wind * (pi * x).sin() * (pi * y).cos();
            // Upwind convection contributions.
            let (cw, ce) = if bx >= 0.0 {
                (bx / hx, 0.0)
            } else {
                (0.0, -bx / hx)
            };
            let (cs, cn) = if by >= 0.0 {
                (by / hy, 0.0)
            } else {
                (0.0, -by / hy)
            };
            let mut diag = 2.0 * kx + 2.0 * ky + cw + ce + cs + cn;
            // Dirichlet boundaries: missing neighbours are simply dropped
            // (their contribution belongs to the right-hand side).
            if i > 0 {
                coo.push(r, idx(i - 1, j), -kx - cw);
            }
            if i + 1 < nx {
                coo.push(r, idx(i + 1, j), -kx - ce);
            }
            if j > 0 {
                coo.push(r, idx(i, j - 1), -ky - cs);
            }
            if j + 1 < ny {
                coo.push(r, idx(i, j + 1), -ky - cn);
            }
            if wide {
                // Second-ring couplings plus far x-couplings with
                // algebraically decaying weights (~29 nnz/row, the fill of
                // a higher-order FEM basis); the diagonal absorbs their mass
                // so rows stay dominant.
                let base = 0.12 * (kx + ky);
                let mut offsets: Vec<(i64, i64)> = Vec::with_capacity(20);
                for di in -2i64..=2 {
                    for dj in -2i64..=2 {
                        if di.abs().max(dj.abs()) == 2 {
                            offsets.push((di, dj));
                        }
                    }
                }
                for di in [-4i64, -3, 3, 4] {
                    offsets.push((di, 0));
                }
                for (di, dj) in offsets {
                    let ii = i as i64 + di;
                    let jj = j as i64 + dj;
                    if ii < 0 || jj < 0 || ii >= nx as i64 || jj >= ny as i64 {
                        continue;
                    }
                    let w = base / (di * di + dj * dj) as f64;
                    coo.push(r, idx(ii as usize, jj as usize), -w);
                    diag += w;
                }
            }
            coo.push(r, r, diag);
        }
    }
    coo.to_csr()
}

/// Wide-stencil stretched-grid advection–diffusion operator, the synthetic
/// stand-in for the climate matrix `nonsym_r3_a11` (n = 20 930, φ ≈ 0.0044).
///
/// Grid is `nlat × nlon` (default 91 × 230 = 20 930). Each row couples to the
/// standard 5-point neighbourhood *plus* a long-range zonal stencil of
/// `2·halo` points with algebraically decaying weights — the signature of
/// semi-Lagrangian/spectral-damping climate dynamical cores, and what drives
/// the row degree to ~90 (φ ≈ 0.0044 at this size).
pub fn stretched_climate_operator(nlat: usize, nlon: usize, halo: usize, eps: f64) -> Csr {
    assert!(
        nlat >= 3 && nlon > 2 * halo,
        "stretched_climate_operator: grid too small"
    );
    let n = nlat * nlon;
    let idx = |i: usize, j: usize| i * nlon + j;
    let mut coo = Coo::with_capacity(n, n, (2 * halo + 5) * n);
    let pi = std::f64::consts::PI;
    for i in 0..nlat {
        // Latitude-dependent metric stretching (poles are denser): this is
        // what makes the operator non-normal and raises κ.
        let lat = pi * (i as f64 + 0.5) / nlat as f64; // (0, π)
        let metric = 1.0 / (0.05 + lat.sin()); // large near poles
        for j in 0..nlon {
            let r = idx(i, j);
            let mut diag = eps * (2.0 + 2.0 * metric);
            // Meridional 3-point diffusion.
            if i > 0 {
                coo.push(r, idx(i - 1, j), -eps);
            }
            if i + 1 < nlat {
                coo.push(r, idx(i + 1, j), -eps);
            }
            // Zonal long-range stencil with periodic wrap, decaying weights,
            // and an asymmetric advective tilt (nonsymmetric matrix).
            let zonal_speed = 1.0 + 0.5 * (2.0 * lat).cos();
            let mut wsum = 0.0;
            for d in 1..=halo {
                let w = metric / (d as f64 * d as f64);
                let east = idx(i, (j + d) % nlon);
                let west = idx(i, (j + nlon - d) % nlon);
                // Upwind tilt: east side carries the advection weight.
                let we = -w - zonal_speed / d as f64;
                let ww = -w;
                coo.push(r, east, we);
                coo.push(r, west, ww);
                wsum += we.abs() + ww.abs();
            }
            diag += wsum * 0.55; // mildly non-dominant: iterative but not trivial
            coo.push(r, r, diag);
        }
    }
    coo.to_csr()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcmcmi_dense::{cond_dense, CondOptions};
    use mcmcmi_sparse::detect_structure;

    #[test]
    fn laplace_1d_structure() {
        let a = laplace_1d(5);
        assert_eq!(a.nrows(), 5);
        assert_eq!(a.nnz(), 13);
        assert!(a.is_symmetric(0.0));
        assert_eq!(a.get(2, 2), 4.0 - 2.0);
    }

    #[test]
    fn fd_laplace_2d_matches_paper_sizes() {
        // Table 1: 2DFDLaplace_16 → 225, _32 → 961, _64 → 3969, _128 → 16129.
        assert_eq!(fd_laplace_2d(16).nrows(), 225);
        assert_eq!(fd_laplace_2d(32).nrows(), 961);
        let a = fd_laplace_2d(16);
        assert!(a.is_symmetric(0.0));
        // Interior row has degree 5, corner row degree 3.
        let deg = a.row_degrees();
        assert_eq!(deg.iter().copied().max().unwrap(), 5);
        assert_eq!(deg.iter().copied().min().unwrap(), 3);
    }

    #[test]
    fn fd_laplace_2d_condition_matches_analytic() {
        let a = fd_laplace_2d(16);
        let k_est = cond_dense(&a.to_dense(), CondOptions::default()).unwrap();
        let k_analytic = crate::suite::analytic_laplace_cond_2d(16);
        assert!(
            (k_est - k_analytic).abs() / k_analytic < 0.02,
            "estimated {k_est}, analytic {k_analytic}"
        );
        // Paper reports 1.0e2.
        assert!(k_analytic > 50.0 && k_analytic < 200.0);
    }

    #[test]
    fn convection_diffusion_is_nonsymmetric_and_sized() {
        let a = convection_diffusion_2d(ConvectionDiffusionParams {
            nx: 32,
            ny: 16,
            eps: 1.0,
            aniso: 1.0,
            wind: 20.0,
            contrast: 0.0,
            wide: false,
        });
        assert_eq!(a.nrows(), 512);
        assert!(!a.is_symmetric(1e-10));
        // Diagonal should be positive everywhere (M-matrix-like).
        assert!(a.diag().iter().all(|&d| d > 0.0));
    }

    #[test]
    fn convection_diffusion_off_diagonals_nonpositive() {
        // First-order upwinding yields an M-matrix: off-diagonals ≤ 0.
        let a = convection_diffusion_2d(ConvectionDiffusionParams {
            nx: 8,
            ny: 8,
            eps: 0.5,
            aniso: 0.2,
            wind: 10.0,
            contrast: 0.0,
            wide: false,
        });
        for (i, j, v) in a.triplets() {
            if i != j {
                assert!(v <= 1e-14, "positive off-diagonal at ({i},{j}) = {v}");
            }
        }
    }

    #[test]
    fn climate_operator_shape_and_density() {
        // Small version of the nonsym_r3_a11 surrogate.
        let a = stretched_climate_operator(13, 46, 22, 1.0);
        assert_eq!(a.nrows(), 13 * 46);
        assert!(!a.is_symmetric(1e-10));
        // Row degree ≈ 2·halo + 3 (zonal stencil + meridional + diag).
        let mean_deg = a.row_degrees().iter().sum::<usize>() as f64 / a.nrows() as f64;
        assert!(mean_deg > 40.0 && mean_deg < 50.0, "mean degree {mean_deg}");
    }

    #[test]
    fn climate_operator_periodic_wrap() {
        let a = stretched_climate_operator(3, 11, 2, 1.0);
        // Row (0, 0) must couple to zonal neighbours 10 and 9 via wraparound.
        let cols = a.row_indices(0);
        assert!(cols.contains(&10));
        assert!(cols.contains(&9));
    }

    #[test]
    fn detection_matches_generator_ground_truth() {
        let detected = detect_structure(&laplace_1d(64));
        assert_eq!(
            detected.stencil_offsets(),
            Some(&[-1, 0, 1][..]),
            "{detected:?}"
        );

        let convection = convection_diffusion_2d(ConvectionDiffusionParams {
            nx: 24,
            ny: 20,
            eps: 1.0,
            aniso: 0.7,
            wind: 15.0,
            contrast: 1.0,
            wide: false,
        });
        // Interior rows store `i + offsets`: ±(k − 1) for the k = 16 grid,
        // ±ny for the convection–diffusion one.
        for (a, offsets) in [
            (fd_laplace_2d(16), [-15, -1, 0, 1, 15]),
            (convection, [-20, -1, 0, 1, 20]),
        ] {
            let detected = detect_structure(&a);
            assert_eq!(detected.stencil_offsets(), Some(offsets.as_slice()));
            assert_eq!(detected.kernel_name(), "stencil");
        }
    }

    #[test]
    fn periodic_climate_operator_is_not_a_stencil() {
        // The zonal wrap puts boundary-row offsets outside the interior
        // pattern, so the periodic surrogate honestly demotes to General.
        let periodic = stretched_climate_operator(5, 24, 6, 1.0);
        assert_eq!(detect_structure(&periodic).kernel_name(), "generic-csr");
    }
}
