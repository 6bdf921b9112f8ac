//! Generators for the paper's matrix suite (Table 1) and parameterised
//! families of test systems.
//!
//! None of the paper's matrices ship with the paper, so each is regenerated
//! as a synthetic equivalent with the same dimension, symmetry, sparsity
//! class and conditioning regime ([`suite::PaperMatrix`] is the
//! substitution table). The 2D finite-difference Laplacians are *exactly*
//! the paper's operators; the rest are same-class surrogates.

pub mod chebyshev;
pub mod drift;
pub mod families;
pub mod random;
pub mod suite;

pub use chebyshev::{chebyshev_diff_matrix, chebyshev_points, unsteady_adv_diff, AdvDiffOrder};
pub use drift::{CoefficientDrift, DiagonalShiftDrift, DriftStep};
pub use families::{
    convection_diffusion_2d, fd_laplace_2d, laplace_1d, stretched_climate_operator,
    ConvectionDiffusionParams,
};
pub use random::{pdd_real_sparse, pdd_real_sparse_scaled, spd_random};
pub use suite::{analytic_laplace_cond_2d, PaperMatrix, PaperRow};
