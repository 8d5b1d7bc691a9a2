#![warn(missing_docs)]
#![warn(clippy::undocumented_unsafe_blocks)]

//! Dense linear algebra for the `nlq` workspace.
//!
//! The paper ("Building Statistical Models and Scoring with UDFs",
//! Ordonez, SIGMOD 2007) evaluates complex matrix expressions *outside*
//! the DBMS with an off-the-shelf math library. This crate is that math
//! library, implemented from scratch: dense row-major matrices,
//! pivoted LU, Cholesky factorization for SPD systems, Householder QR
//! with least-squares solves, the Jacobi eigenvalue algorithm for
//! symmetric matrices, and an SVD built on top of the symmetric
//! eigendecomposition.
//!
//! All model-building steps in the paper reduce to operations on `d x d`
//! matrices (with `d << n`), so these kernels favour clarity and numeric
//! robustness over asymptotic tricks: `O(d^3)` is perfectly fine when
//! `d <= 1024`.

mod cholesky;
mod eigen;
mod error;
pub mod kernels;
mod lu;
mod matrix;
mod qr;
mod svd;
mod vector;

pub use cholesky::Cholesky;
pub use eigen::{jacobi_eigen, Eigen};
pub use error::LinalgError;
pub use lu::{invert, Lu};
pub use matrix::Matrix;
pub use qr::{least_squares, Qr};
pub use svd::{svd, Svd};
pub use vector::Vector;

/// Convenience result alias for linear algebra operations.
pub type Result<T> = std::result::Result<T, LinalgError>;
