//! Error type for the optimization solvers.

use std::fmt;

use serde::{DeError, Deserialize, Serialize, Value};
use tm_linalg::LinalgError;

/// Errors produced by the optimization routines.
#[derive(Debug, Clone, PartialEq)]
pub enum OptError {
    /// The constraint system admits no feasible point.
    Infeasible {
        /// Residual infeasibility measure at detection.
        residual: f64,
    },
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// Iteration budget exhausted before reaching the requested tolerance.
    DidNotConverge {
        /// Iterations performed.
        iterations: usize,
        /// Convergence measure at the final iterate.
        measure: f64,
    },
    /// Invalid problem data.
    Invalid(String),
    /// An underlying linear-algebra failure.
    Linalg(LinalgError),
}

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptError::Infeasible { residual } => {
                write!(f, "problem is infeasible (residual {residual:.3e})")
            }
            OptError::Unbounded => write!(f, "objective is unbounded"),
            OptError::DidNotConverge {
                iterations,
                measure,
            } => write!(
                f,
                "did not converge after {iterations} iterations (measure {measure:.3e})"
            ),
            OptError::Invalid(msg) => write!(f, "invalid problem: {msg}"),
            OptError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl std::error::Error for OptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OptError::Linalg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for OptError {
    fn from(e: LinalgError) -> Self {
        OptError::Linalg(e)
    }
}

// Hand-written wire form (the vendored derive covers only unit-variant
// enums): a tagged `{"kind": ..}` object, exact for the daemon's
// cross-process transport. The nested `Linalg` payload reuses
// `LinalgError`'s own wire form.
impl Serialize for OptError {
    fn to_value(&self) -> Value {
        match self {
            OptError::Infeasible { residual } => {
                Value::tagged("infeasible", &[("residual", residual)])
            }
            OptError::Unbounded => Value::tagged("unbounded", &[]),
            OptError::DidNotConverge {
                iterations,
                measure,
            } => Value::tagged(
                "did_not_converge",
                &[("iterations", iterations), ("measure", measure)],
            ),
            OptError::Invalid(msg) => Value::tagged("invalid", &[("message", msg)]),
            OptError::Linalg(e) => Value::tagged("linalg", &[("error", e)]),
        }
    }
}

impl Deserialize for OptError {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v.kind()? {
            "infeasible" => Ok(OptError::Infeasible {
                residual: f64::from_value(v.field("residual")?)?,
            }),
            "unbounded" => Ok(OptError::Unbounded),
            "did_not_converge" => Ok(OptError::DidNotConverge {
                iterations: usize::from_value(v.field("iterations")?)?,
                measure: f64::from_value(v.field("measure")?)?,
            }),
            "invalid" => Ok(OptError::Invalid(String::from_value(v.field("message")?)?)),
            "linalg" => Ok(OptError::Linalg(LinalgError::from_value(
                v.field("error")?,
            )?)),
            other => Err(DeError(format!("unknown OptError kind `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_converts() {
        let e: OptError = LinalgError::Singular { pivot: 3 }.into();
        assert!(e.to_string().contains("pivot 3"));
        assert!(OptError::Unbounded.to_string().contains("unbounded"));
        assert!(OptError::Infeasible { residual: 0.5 }
            .to_string()
            .contains("infeasible"));
        assert!(OptError::DidNotConverge {
            iterations: 9,
            measure: 1.0
        }
        .to_string()
        .contains('9'));
        assert!(OptError::Invalid("x".into()).to_string().contains('x'));
    }

    #[test]
    fn wire_form_roundtrips_every_variant() {
        for e in [
            OptError::Infeasible { residual: 0.5 },
            OptError::Unbounded,
            OptError::DidNotConverge {
                iterations: 9,
                measure: 1.0,
            },
            OptError::Invalid("x".into()),
            OptError::Linalg(LinalgError::Singular { pivot: 3 }),
        ] {
            assert_eq!(OptError::from_value(&e.to_value()).unwrap(), e);
        }
        assert!(OptError::from_value(&Value::Seq(vec![])).is_err());
    }
}
