//! A small reverse-mode automatic differentiation engine.
//!
//! The graph neural surrogate (paper §3.1) needs exactly this op set:
//! dense affine maps, ReLU/softplus activations, layer normalisation,
//! dropout, column concatenation, and the gather/scatter primitives message
//! passing is made of. The engine is tape-based: a [`graph::Graph`] records
//! ops during the forward pass and walks them backwards to produce exact
//! gradients — including gradients with respect to *inputs*, which is what
//! lets L-BFGS-B maximise Expected Improvement over the MCMC parameters
//! `x_M` exactly as the paper describes ("back-propagation supplies the
//! exact gradient").
//!
//! Everything is `f64`, CPU, and deterministic given a seed.

pub mod gradcheck;
pub mod graph;
pub mod init;
pub mod optim;
pub mod tensor;

pub use gradcheck::numeric_gradient;
pub use graph::{AggKind, Gradients, Graph, Var};
pub use init::xavier_uniform;
pub use optim::{Adam, AdamConfig, GradClip};
pub use tensor::Tensor;
