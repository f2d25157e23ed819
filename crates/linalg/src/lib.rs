//! Dense and sparse linear-algebra kernels used across the ActiveDP
//! reproduction.
//!
//! The crate is deliberately small and dependency-free: it provides exactly
//! the primitives the rest of the workspace needs —
//!
//! * [`Matrix`]: a row-major dense matrix with the usual arithmetic,
//! * [`Cholesky`]: factorization/solves for symmetric positive-definite
//!   systems (ridge regression, graphical-lasso book-keeping),
//! * [`lasso_quadratic_cd`]: the ℓ1-penalised quadratic solver behind the
//!   graphical lasso's inner loop (coordinate descent finished by a
//!   certified active-set Cholesky solve),
//! * [`CsrMatrix`]: compressed sparse rows for TF-IDF feature matrices,
//! * [`Features`]: the row-access abstraction that lets the logistic
//!   regression in `adp-classifier` run unchanged over dense or sparse data,
//! * assorted vector helpers ([`ops`]) such as `softmax_inplace` and
//!   `entropy` used by the samplers and label models.

pub mod cholesky;
pub mod covariance;
pub mod dense;
pub mod error;
pub mod lasso;
pub mod ops;
pub mod parallel;
pub mod ridge;
pub mod sparse;

pub use cholesky::Cholesky;
pub use covariance::{correlation_matrix, covariance_matrix};
pub use dense::Matrix;
pub use error::LinalgError;
pub use lasso::{lasso_quadratic_cd, soft_threshold};
pub use ops::{argmax, axpy, dot, entropy, log_sum_exp, mean, norm2, softmax_inplace, variance};
pub use parallel::Execution;
pub use ridge::ridge_regression;
pub use sparse::{CsrBuilder, CsrMatrix, Features};
