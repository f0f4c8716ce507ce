//! Error type shared by all linear-algebra routines.

use std::fmt;

use serde::{DeError, Deserialize, Serialize, Value};

/// Errors produced by factorizations and solvers.
#[derive(Debug, Clone, PartialEq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Human-readable description of the two shapes involved.
        context: String,
    },
    /// The matrix is singular (or numerically singular) to working precision.
    Singular {
        /// Index of the pivot where breakdown occurred.
        pivot: usize,
    },
    /// Cholesky factorization was requested for a matrix that is not
    /// symmetric positive definite.
    NotPositiveDefinite {
        /// Index of the failing diagonal entry.
        index: usize,
    },
    /// Invalid argument (e.g. empty input where data is required).
    InvalidArgument(String),
}

impl fmt::Display for LinalgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinalgError::ShapeMismatch { context } => {
                write!(f, "shape mismatch: {context}")
            }
            LinalgError::Singular { pivot } => {
                write!(f, "matrix is singular at pivot {pivot}")
            }
            LinalgError::NotPositiveDefinite { index } => {
                write!(f, "matrix is not positive definite at index {index}")
            }
            LinalgError::InvalidArgument(msg) => write!(f, "invalid argument: {msg}"),
        }
    }
}

impl std::error::Error for LinalgError {}

// Hand-written wire form (the vendored derive covers only unit-variant
// enums): a tagged `{"kind": ..}` object carrying each variant's
// fields, exact for the daemon's cross-process transport.
impl Serialize for LinalgError {
    fn to_value(&self) -> Value {
        match self {
            LinalgError::ShapeMismatch { context } => {
                Value::tagged("shape_mismatch", &[("context", context)])
            }
            LinalgError::Singular { pivot } => Value::tagged("singular", &[("pivot", pivot)]),
            LinalgError::NotPositiveDefinite { index } => {
                Value::tagged("not_positive_definite", &[("index", index)])
            }
            LinalgError::InvalidArgument(msg) => {
                Value::tagged("invalid_argument", &[("message", msg)])
            }
        }
    }
}

impl Deserialize for LinalgError {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v.kind()? {
            "shape_mismatch" => Ok(LinalgError::ShapeMismatch {
                context: String::from_value(v.field("context")?)?,
            }),
            "singular" => Ok(LinalgError::Singular {
                pivot: usize::from_value(v.field("pivot")?)?,
            }),
            "not_positive_definite" => Ok(LinalgError::NotPositiveDefinite {
                index: usize::from_value(v.field("index")?)?,
            }),
            "invalid_argument" => Ok(LinalgError::InvalidArgument(String::from_value(
                v.field("message")?,
            )?)),
            other => Err(DeError(format!("unknown LinalgError kind `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = LinalgError::ShapeMismatch {
            context: "3x4 * 5".into(),
        };
        assert!(e.to_string().contains("3x4 * 5"));
        let e = LinalgError::Singular { pivot: 7 };
        assert!(e.to_string().contains('7'));
        let e = LinalgError::NotPositiveDefinite { index: 2 };
        assert!(e.to_string().contains('2'));
        let e = LinalgError::InvalidArgument("empty".into());
        assert!(e.to_string().contains("empty"));
    }

    #[test]
    fn wire_form_roundtrips_every_variant() {
        for e in [
            LinalgError::ShapeMismatch {
                context: "3x4 * 5".into(),
            },
            LinalgError::Singular { pivot: 7 },
            LinalgError::NotPositiveDefinite { index: 2 },
            LinalgError::InvalidArgument("empty".into()),
        ] {
            assert_eq!(LinalgError::from_value(&e.to_value()).unwrap(), e);
        }
        assert!(LinalgError::from_value(&Value::Null).is_err());
        assert!(LinalgError::from_value(&Value::Map(vec![(
            "kind".into(),
            Value::Str("nope".into())
        )]))
        .is_err());
    }
}
