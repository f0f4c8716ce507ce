//! Error type for topology and routing operations.

use std::fmt;

use serde::{DeError, Deserialize, Serialize, Value};

/// Errors produced while building topologies or routing demands.
#[derive(Debug, Clone, PartialEq)]
pub enum NetError {
    /// A node id referenced a node that does not exist.
    UnknownNode(usize),
    /// A link id referenced a link that does not exist.
    UnknownLink(usize),
    /// The topology failed validation.
    InvalidTopology(String),
    /// No path exists between the requested endpoints.
    NoPath {
        /// Source node index.
        src: usize,
        /// Destination node index.
        dst: usize,
    },
    /// Mismatched input sizes (demand vectors vs pair counts etc.).
    Dimension(String),
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownNode(id) => write!(f, "unknown node id {id}"),
            NetError::UnknownLink(id) => write!(f, "unknown link id {id}"),
            NetError::InvalidTopology(msg) => write!(f, "invalid topology: {msg}"),
            NetError::NoPath { src, dst } => {
                write!(f, "no path from node {src} to node {dst}")
            }
            NetError::Dimension(msg) => write!(f, "dimension mismatch: {msg}"),
        }
    }
}

impl std::error::Error for NetError {}

// Hand-written wire form (the vendored derive covers only unit-variant
// enums): a tagged `{"kind": ..}` object, exact for the daemon's
// cross-process transport.
impl Serialize for NetError {
    fn to_value(&self) -> Value {
        match self {
            NetError::UnknownNode(id) => Value::tagged("unknown_node", &[("id", id)]),
            NetError::UnknownLink(id) => Value::tagged("unknown_link", &[("id", id)]),
            NetError::InvalidTopology(msg) => {
                Value::tagged("invalid_topology", &[("message", msg)])
            }
            NetError::NoPath { src, dst } => {
                Value::tagged("no_path", &[("src", src), ("dst", dst)])
            }
            NetError::Dimension(msg) => Value::tagged("dimension", &[("message", msg)]),
        }
    }
}

impl Deserialize for NetError {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        match v.kind()? {
            "unknown_node" => Ok(NetError::UnknownNode(usize::from_value(v.field("id")?)?)),
            "unknown_link" => Ok(NetError::UnknownLink(usize::from_value(v.field("id")?)?)),
            "invalid_topology" => Ok(NetError::InvalidTopology(String::from_value(
                v.field("message")?,
            )?)),
            "no_path" => Ok(NetError::NoPath {
                src: usize::from_value(v.field("src")?)?,
                dst: usize::from_value(v.field("dst")?)?,
            }),
            "dimension" => Ok(NetError::Dimension(String::from_value(
                v.field("message")?,
            )?)),
            other => Err(DeError(format!("unknown NetError kind `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_mention_operands() {
        assert!(NetError::UnknownNode(4).to_string().contains('4'));
        assert!(NetError::UnknownLink(7).to_string().contains('7'));
        assert!(NetError::NoPath { src: 1, dst: 2 }
            .to_string()
            .contains("1"));
        assert!(NetError::InvalidTopology("dup".into())
            .to_string()
            .contains("dup"));
        assert!(NetError::Dimension("x".into()).to_string().contains('x'));
    }

    #[test]
    fn wire_form_roundtrips_every_variant() {
        for e in [
            NetError::UnknownNode(4),
            NetError::UnknownLink(7),
            NetError::InvalidTopology("dup".into()),
            NetError::NoPath { src: 1, dst: 2 },
            NetError::Dimension("x".into()),
        ] {
            assert_eq!(NetError::from_value(&e.to_value()).unwrap(), e);
        }
        assert!(NetError::from_value(&Value::Str("kill".into())).is_err());
    }
}
