//! # tm-collect
//!
//! SNMP measurement-pipeline simulation for the `backbone-tm`
//! reproduction of *Gunnar, Johansson, Telkamp (IMC 2004)*.
//!
//! The paper's traffic matrices come from polling MPLS LSP byte counters
//! every five minutes through a geographically distributed system of
//! pollers (§5.1.2). This crate simulates that infrastructure end to
//! end:
//!
//! * [`wire`] — a compact binary poll-request/response codec (`bytes`)
//!   with checksums, exercised on every simulated poll;
//! * [`counters`] — wrapped SNMP byte counters (32/64-bit), rate
//!   reconstruction adjusted by the *actual* measured interval, and the
//!   32-bit multi-wrap hazard, demonstrated in tests;
//! * [`sim`] — distributed pollers on scoped OS threads
//!   (`std::sync::mpsc` channels), deterministic response jitter,
//!   UDP-style loss with a backup-poller retry, central collection,
//!   per-cell quality tagging, and gap interpolation;
//! * [`fault`] — seeded, config-driven fault injection (missing polls,
//!   counter wraps/resets, stale readings, noise bursts, per-link
//!   outages) applied to the raw reading log before rate
//!   reconstruction.
//!
//! Everything is deterministic under a seed, independent of thread
//! scheduling.
//!
//! ## Omissions
//!
//! No real UDP/TCP sockets (the channels are in-process), no ASN.1/BER
//! SNMP encoding, no MIB model — the simulation reproduces the
//! *measurement mechanics* the paper depends on, not the protocol suite.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counters;
pub mod error;
pub mod fault;
pub mod sim;
pub mod wire;

pub use counters::{CounterMode, RateSample, SuspectReading};
pub use error::CollectError;
pub use fault::{FaultPlan, FaultSpec};
pub use sim::{run_collection, CellQuality, CollectionConfig, CollectionResult};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CollectError>;
