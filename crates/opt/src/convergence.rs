//! Typed convergence status shared by every iterative solver in the
//! crate.
//!
//! Each solver family reports the same three facts — did it meet its
//! tolerance, what optimality measure it actually achieved at exit,
//! and how many iterations it spent — but historically encoded them
//! differently: [`crate::spg::SpgResult`] and
//! [`crate::newton::NewtonResult`] carry a `converged` flag plus a
//! projected-gradient norm, while the NNLS solvers return
//! [`crate::error::OptError::DidNotConverge`] on budget exhaustion and
//! an at-tolerance [`crate::nnls::NnlsSolution`] otherwise. Streaming
//! callers that decide whether a warm start is still trustworthy need
//! one shape for all of them; [`Convergence`] is that shape, produced
//! by the `convergence()` accessor on each result type.

use serde::{Deserialize, Serialize};

/// Outcome of an iterative solve: tolerance met or budget capped.
///
/// `achieved_tol` is the solver's own optimality measure at exit —
/// projected-gradient norm for SPG/Newton, KKT violation for the
/// semismooth Newton NNLS, scaled coordinate delta for coordinate
/// descent — so values are comparable across calls of the *same*
/// solver, not across solver families.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Convergence {
    /// `true` when the solver met its tolerance; `false` when it
    /// stopped on an iteration budget with the measure still above
    /// tolerance (the iterate is the best found, not optimal).
    pub converged: bool,
    /// Optimality measure actually achieved at exit.
    pub achieved_tol: f64,
    /// Iterations consumed.
    pub iters: usize,
}

impl Convergence {
    /// Status of a solve that met its tolerance.
    pub fn achieved(achieved_tol: f64, iters: usize) -> Self {
        Convergence {
            converged: true,
            achieved_tol,
            iters,
        }
    }

    /// Status of a solve stopped by its iteration budget.
    pub fn budget_capped(achieved_tol: f64, iters: usize) -> Self {
        Convergence {
            converged: false,
            achieved_tol,
            iters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_error_extraction() {
        let a = Convergence::achieved(1e-12, 7);
        assert!(a.converged);
        assert_eq!(a.iters, 7);
        let b = Convergence::budget_capped(0.5, 100);
        assert!(!b.converged);
        assert_eq!(b.achieved_tol, 0.5);
    }
}
