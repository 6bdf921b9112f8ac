//! Sparse matrix substrate for the MCMCMI reproduction.
//!
//! Provides the storage formats and kernels everything else sits on: COO for
//! assembly, CSR for SpMV-heavy solver work, Matrix Market I/O for
//! interoperability, and the structural queries (symmetry, density,
//! diagonal dominance) the paper's cheap matrix features `x_A` are built
//! from.
//!
//! A product is asked for one way — [`KernelBackend::spmv`] /
//! [`KernelBackend::spmm`], on a bare [`Csr`] or on a structure-detecting
//! [`SpecializedBackend`] — and split across threads in one place (the
//! driver in [`backend`]), by one rule ([`par_pays_off`], a constant
//! threshold). [`Csr::spmv`] / [`Csr::spmm`] are the serial reference the
//! tests hold every other product to, bit for bit.

pub mod backend;
pub mod coo;
pub mod csr;
pub mod fault;
pub mod io;
pub mod ops;
pub mod scalar;
pub mod structure;

pub use backend::{KernelBackend, SpecializedBackend};
pub use coo::Coo;
pub use csr::{
    nnz_balanced_ranges, par_pays_off, par_threshold, set_par_threshold_for_tests, Csr,
    DEFAULT_PAR_THRESHOLD,
};
pub use fault::{corrupt_rows, FaultKind, FaultSpec, FaultyBackend};
pub use ops::{csr_add, csr_add_diag, csr_eye, csr_scale};
pub use scalar::Scalar;
pub use structure::{detect_structure, StencilMap, Structure, MAX_STENCIL_PATTERNS};
