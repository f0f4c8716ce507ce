//! # tm-net
//!
//! Backbone network substrate for the `backbone-tm` reproduction of
//! *Gunnar, Johansson, Telkamp — Traffic Matrix Estimation on a Large IP
//! Backbone (IMC 2004)*.
//!
//! The paper works on two PoP-level subnetworks extracted from Global
//! Crossing's MPLS backbone:
//!
//! * Europe — 12 PoPs, 132 OD pairs, 72 directed interior links,
//! * America — 25 PoPs, 600 OD pairs, 284 directed interior links.
//!
//! This crate provides everything needed to stand in for that (propri-
//! etary) infrastructure:
//!
//! * [`topology`] — nodes (access / peering / transit roles), directed
//!   capacitated links, validation;
//! * [`generators`] — deterministic random ring-and-chord backbones
//!   matching the paper's PoP-level node/link counts exactly;
//! * [`routing`] — Dijkstra shortest paths and CSPF (constrained shortest
//!   path first), the constraint-based routing protocol the paper
//!   simulates with Cariden MATE, including full LSP-mesh establishment;
//! * [`matrix`] — the routing matrix `R` of Eq. (1): a sparse 0/1 matrix
//!   mapping OD demands to the links they traverse, with optional
//!   ingress/egress edge-link rows (`t_e(n)`, `t_x(m)`).
//!
//! The generators emit PoP-level topologies directly, so the paper's
//! router-to-PoP aggregation step (§5.1.4) has no counterpart here.
//!
//! ## Omissions
//!
//! No BGP/IGP protocol machinery, no RSVP message simulation (LSP setup
//! is modeled as sequential admission), no ECMP splitting in the provided
//! routers (the paper assumes single-path routing; fractional routing
//! matrices are representable but not produced by the generators).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod generators;
pub mod matrix;
pub mod routing;
pub mod topology;

pub use error::NetError;
pub use matrix::{OdPairs, RoutingMatrix};
pub use topology::{LinkId, NodeId, NodeRole, Topology};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, NetError>;

/// Common imports.
pub mod prelude {
    pub use crate::generators::{self, BackboneSpec};
    pub use crate::matrix::{OdPairs, RoutingMatrix};
    pub use crate::routing::{route_lsp_mesh, CspfConfig};
    pub use crate::topology::{LinkId, NodeId, NodeRole, Topology};
}
