//! # tm-opt
//!
//! Optimization substrate for the `backbone-tm` reproduction of
//! *Gunnar, Johansson, Telkamp — Traffic Matrix Estimation on a Large IP
//! Backbone (IMC 2004)*.
//!
//! Every estimation method in the paper is an instance of one of a few
//! mathematical programs; this crate implements each solver from scratch
//! (the repro assessment flags Rust optimization crates as immature):
//!
//! | paper method                | program                                | solver |
//! |-----------------------------|----------------------------------------|--------|
//! | worst-case bounds (§4.3.1)  | LP `max/min s_p  s.t. R s = t, s ≥ 0`   | [`revised`] (sparse-LU revised simplex, warm-started multi-objective) |
//! | Bayesian / MAP (§4.2.3)     | Tikhonov NNLS                          | [`nnls::ridge_nnls`], [`nnls::ridge_nnls_kernel`] |
//! | entropy / Kruithof (§4.2.1) | KL-regularized least squares            | [`spg`], [`newton`], [`ipf`] |
//! | Vardi / Cao moments (§4.2.2)| stacked NNLS                           | [`spg`], [`nnls::ssn_nnls`] |
//! | fanout estimation (§4.2.4)  | equality-constrained QP                | [`qp`] |
//!
//! All solvers are deterministic, allocation-light, and come with
//! optimality-condition checks in their tests (KKT residuals, comparison
//! against brute-force vertex enumeration for LPs).
//!
//! Three solvers are **reference implementations**, not engines: no
//! estimator calls them, and the tests hold the engines to their
//! answers. They are [`simplex::SimplexSolver`] (the dense full-tableau
//! simplex, against [`revised`]), [`nnls::lawson_hanson`] (exact
//! active-set NNLS) and the dense [`nnls::cd_nnls`] (against the sparse
//! NNLS engines).
//!
//! ## Omissions
//!
//! No interior-point methods, no integer programming, no automatic
//! differentiation — objectives provide their own gradients. The
//! revised simplex uses a product-form eta file rather than a
//! Forrest–Tomlin in-place `U` update; at backbone row counts the
//! difference is noise next to the tableau-vs-factorization gap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod convergence;
pub mod error;
pub mod ipf;
pub mod newton;
pub mod nnls;
pub mod qp;
pub mod revised;
pub mod simplex;
pub mod spg;

pub use convergence::Convergence;
pub use error::OptError;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, OptError>;
