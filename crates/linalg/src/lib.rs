//! Dense linear-algebra substrate for the P-Tucker reproduction.
//!
//! The ICDE'18 P-Tucker paper relies on Armadillo/LAPACK for three numerical
//! kernels:
//!
//! 1. solving the regularized normal equations `(B + λI) x = c` for every row
//!    of every factor matrix (Eq. 9 of the paper),
//! 2. Householder QR to orthogonalize the factor matrices after convergence
//!    (Eq. 7), and
//! 3. truncated SVD inside the HOOI-style baselines (Tucker-ALS, Tucker-CSF,
//!    S-HOT), where the leading left singular vectors of a tall matricized
//!    tensor are required.
//!
//! This crate implements those kernels from scratch on a small row-major
//! [`Matrix`] type. All matrices involved are modest (`Jₙ×Jₙ` for P-Tucker and
//! `J^{N-1}`-sized Gram matrices for the baselines), so textbook dense
//! algorithms are appropriate and match LAPACK behaviour at these sizes.
//!
//! On top of the factorizations, [`kernels`] supplies the BLAS-1/2
//! micro-kernel primitives (`dot`/`axpy`/`syr_in_place`/
//! `hadamard_in_place`) the run-blocked δ accumulation is built from —
//! one chunked scalar implementation each, which LLVM autovectorizes on
//! any target — plus mixed-precision variants (`dot_f32_f64`,
//! `div_add_nonzero_f32`, `sum_widened`) for the engine's f32 storage
//! mode: 4-byte streams, f64 arithmetic.
//!
//! # Quick example
//!
//! ```
//! use ptucker_linalg::Matrix;
//!
//! // Solve an SPD system with Cholesky, as P-Tucker does per row update.
//! let b = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
//! let x = b.cholesky().unwrap().solve(&[1.0, 2.0]);
//! let r = b.matvec(&x);
//! assert!((r[0] - 1.0).abs() < 1e-12 && (r[1] - 2.0).abs() < 1e-12);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)]

mod cholesky;
mod eigen;
mod error;
pub mod kernels;
mod lu;
mod matrix;
mod qr;
pub mod solve;
mod svd;

pub use cholesky::Cholesky;
pub use eigen::{sym_eigen, SymEigen};
pub use error::LinalgError;
pub use lu::Lu;
pub use matrix::Matrix;
pub use qr::Qr;
pub use solve::{
    cholesky_factor_in_place, cholesky_solve_factored, cholesky_solve_in_place, lu_factor_in_place,
    lu_solve_factored, lu_solve_in_place,
};
pub use svd::{leading_left_singular_vectors, GramSvd};

/// Convenience alias for results produced by this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
