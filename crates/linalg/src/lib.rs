//! # tm-linalg
//!
//! Dense and sparse linear algebra substrate for the `backbone-tm`
//! reproduction of *Gunnar, Johansson, Telkamp — Traffic Matrix Estimation
//! on a Large IP Backbone (IMC 2004)*.
//!
//! The traffic-matrix estimators in `tm-core` are formulated as linear
//! programs, quadratic programs, non-negative least squares problems and
//! iterative-scaling schemes. All of them reduce to a small set of
//! primitives which this crate provides:
//!
//! * [`Mat`] — a dense row-major `f64` matrix with factorizations
//!   ([`decomp::lu`], [`decomp::cholesky`], [`decomp::qr`]),
//! * [`Csr`] — a compressed-sparse-row matrix used for routing matrices
//!   (0/1, very sparse) and Vardi second-moment systems, with the
//!   sparse-first kernels ([`Csr::gram`], counting-sort construction,
//!   O(nnz) transpose, allocation-free products, row/col scaling),
//! * [`LinOp`] — one product interface over `Mat` and `Csr`, for
//!   checks that take either (the solvers call the concrete types),
//! * [`sparse_lu`] — sparse LU factorization of simplex bases with
//!   FTRAN/BTRAN triangular solves and product-form eta updates (the
//!   engine room of `tm_opt::revised`),
//! * [`workspace`] — scratch-buffer pooling for solver loops that
//!   would otherwise reallocate per iteration (used by the dual NNLS
//!   outer loop; the SPG inner loop hoists its own fixed buffers),
//! * [`stats`] — sample moments of link-load time series and the log–log
//!   power-law fit used for the paper's mean–variance analysis (Fig. 6),
//! * [`vector`] — BLAS-1 style helpers on plain `&[f64]` slices.
//!
//! ## Design notes
//!
//! Vectors are plain `Vec<f64>` / `&[f64]`: the problem sizes in the paper
//! (≤ 600 unknowns, ≤ a few hundred links) do not justify expression
//! templates or generic scalar types, and plain slices keep call sites
//! readable. All routines are deterministic and allocation patterns are
//! kept simple in the spirit of robustness-over-cleverness.
//!
//! ## Omissions
//!
//! No SIMD intrinsics, no BLAS bindings, no complex numbers, no banded or
//! symmetric-packed storage. `m × n` with `m·n` up to a few million is the
//! design envelope — exactly what a PoP-level backbone needs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decomp;
pub mod dense;
pub mod error;
pub mod linop;
pub mod sparse;
pub mod sparse_lu;
pub mod stats;
pub mod vector;
pub mod workspace;

pub use dense::Mat;
pub use error::LinalgError;
pub use linop::LinOp;
pub use sparse::Csr;
pub use sparse_lu::{BasisLu, SparseLu};
pub use workspace::Workspace;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
