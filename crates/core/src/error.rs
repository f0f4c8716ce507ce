//! Error type for the estimation layer.

use std::fmt;

use serde::{DeError, Deserialize, Serialize, Value};

/// Errors produced by traffic matrix estimators.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimationError {
    /// Problem data is inconsistent (dimensions, missing pieces).
    InvalidProblem(String),
    /// The estimator needs a time series but the problem has none.
    MissingTimeSeries,
    /// The estimator needs ground truth (e.g. for greedy measurement
    /// selection) but the problem carries none.
    MissingTruth,
    /// An optimization failure.
    Opt(tm_opt::OptError),
    /// A linear-algebra failure.
    Linalg(tm_linalg::LinalgError),
    /// A network-layer failure.
    Net(tm_net::NetError),
}

impl fmt::Display for EstimationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimationError::InvalidProblem(msg) => write!(f, "invalid problem: {msg}"),
            EstimationError::MissingTimeSeries => {
                write!(f, "estimator requires a link-load time series")
            }
            EstimationError::MissingTruth => {
                write!(f, "operation requires ground-truth demands")
            }
            EstimationError::Opt(e) => write!(f, "optimization failed: {e}"),
            EstimationError::Linalg(e) => write!(f, "linear algebra failed: {e}"),
            EstimationError::Net(e) => write!(f, "network error: {e}"),
        }
    }
}

impl std::error::Error for EstimationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EstimationError::Opt(e) => Some(e),
            EstimationError::Linalg(e) => Some(e),
            EstimationError::Net(e) => Some(e),
            _ => None,
        }
    }
}

impl From<tm_opt::OptError> for EstimationError {
    fn from(e: tm_opt::OptError) -> Self {
        EstimationError::Opt(e)
    }
}

impl From<tm_linalg::LinalgError> for EstimationError {
    fn from(e: tm_linalg::LinalgError) -> Self {
        EstimationError::Linalg(e)
    }
}

impl From<tm_net::NetError> for EstimationError {
    fn from(e: tm_net::NetError) -> Self {
        EstimationError::Net(e)
    }
}

// Hand-written wire form (the vendored derive covers only unit-variant
// enums): a tagged `{"kind": ..}` object whose nested payloads reuse
// the lower layers' own wire forms. The daemon's socket transport
// ships per-tick `Result<Estimate>` outcomes through this, so the
// round-trip must be exact — see `wire_form_roundtrips_every_variant`.
impl Serialize for EstimationError {
    fn to_value(&self) -> Value {
        match self {
            EstimationError::InvalidProblem(msg) => {
                Value::tagged("invalid_problem", &[("message", msg)])
            }
            EstimationError::MissingTimeSeries => Value::tagged("missing_time_series", &[]),
            EstimationError::MissingTruth => Value::tagged("missing_truth", &[]),
            EstimationError::Opt(e) => Value::tagged("opt", &[("error", e)]),
            EstimationError::Linalg(e) => Value::tagged("linalg", &[("error", e)]),
            EstimationError::Net(e) => Value::tagged("net", &[("error", e)]),
        }
    }
}

impl Deserialize for EstimationError {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v.kind()? {
            "invalid_problem" => Ok(EstimationError::InvalidProblem(String::from_value(
                v.field("message")?,
            )?)),
            "missing_time_series" => Ok(EstimationError::MissingTimeSeries),
            "missing_truth" => Ok(EstimationError::MissingTruth),
            "opt" => Ok(EstimationError::Opt(tm_opt::OptError::from_value(
                v.field("error")?,
            )?)),
            "linalg" => Ok(EstimationError::Linalg(tm_linalg::LinalgError::from_value(
                v.field("error")?,
            )?)),
            "net" => Ok(EstimationError::Net(tm_net::NetError::from_value(
                v.field("error")?,
            )?)),
            other => Err(DeError(format!("unknown EstimationError kind `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_conversions() {
        let e: EstimationError = tm_opt::OptError::Unbounded.into();
        assert!(e.to_string().contains("unbounded"));
        let e: EstimationError = tm_linalg::LinalgError::Singular { pivot: 1 }.into();
        assert!(e.to_string().contains("singular"));
        let e: EstimationError = tm_net::NetError::UnknownNode(2).into();
        assert!(e.to_string().contains('2'));
        assert!(EstimationError::MissingTimeSeries
            .to_string()
            .contains("series"));
        assert!(EstimationError::MissingTruth.to_string().contains("truth"));
        assert!(EstimationError::InvalidProblem("p".into())
            .to_string()
            .contains('p'));
    }

    #[test]
    fn wire_form_roundtrips_every_variant() {
        for e in [
            EstimationError::InvalidProblem("p".into()),
            EstimationError::MissingTimeSeries,
            EstimationError::MissingTruth,
            EstimationError::Opt(tm_opt::OptError::Infeasible { residual: 0.25 }),
            EstimationError::Linalg(tm_linalg::LinalgError::Singular { pivot: 1 }),
            EstimationError::Net(tm_net::NetError::UnknownNode(2)),
        ] {
            assert_eq!(EstimationError::from_value(&e.to_value()).unwrap(), e);
            // Display (what the protocol renders) survives the trip too.
            assert_eq!(
                EstimationError::from_value(&e.to_value())
                    .unwrap()
                    .to_string(),
                e.to_string()
            );
        }
        assert!(EstimationError::from_value(&Value::Null).is_err());
    }
}
