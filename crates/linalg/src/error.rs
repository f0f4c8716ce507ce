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
        let kind = |k: &str| ("kind".to_string(), Value::Str(k.to_string()));
        Value::Map(match self {
            LinalgError::ShapeMismatch { context } => vec![
                kind("shape_mismatch"),
                ("context".to_string(), context.to_value()),
            ],
            LinalgError::Singular { pivot } => {
                vec![kind("singular"), ("pivot".to_string(), pivot.to_value())]
            }
            LinalgError::NotPositiveDefinite { index } => vec![
                kind("not_positive_definite"),
                ("index".to_string(), index.to_value()),
            ],
            LinalgError::InvalidArgument(msg) => vec![
                kind("invalid_argument"),
                ("message".to_string(), msg.to_value()),
            ],
        })
    }
}

impl Deserialize for LinalgError {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v.field("kind")? {
            Value::Str(k) => match k.as_str() {
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
            },
            other => Err(DeError(format!(
                "LinalgError kind must be a string: {other:?}"
            ))),
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
