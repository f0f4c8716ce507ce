//! Checkpoint/restore of a [`StreamEngine`](crate::StreamEngine)'s warm state.
//!
//! A long-running estimation daemon cannot afford to cold-start a
//! worker mid-day: the rolling second-moment windows take a full
//! window of ticks to refill, and the warm starts (active sets,
//! factorized kernels, GIS multipliers) are what make a 288-tick day
//! cheap. [`EngineCheckpoint`] freezes everything mutable about an
//! engine — tick counter, interval history, imputation bookkeeping,
//! last-good estimates, and every method's carried state — into a
//! serde value tree that survives a JSON round-trip **bit-exactly**
//! for every finite `f64` (the vendored writer emits the shortest
//! round-tripping representation).
//!
//! # Exactness contract
//!
//! A checkpoint holds state only. A restored engine continues
//! **bit-identically** to the engine it was checkpointed from, with one
//! documented exception, WCB (the last item):
//!
//! * Entropy, Bayes, Kruithof, Vardi, Cao, Fanout, gravity and the
//!   plain registry methods continue exactly. Dense factors that
//!   accumulate rank-one up/downdate history (the Bayes
//!   `RidgeKernel`, the Vardi/Cao dense SSN factor) are serialized
//!   verbatim. Caches that are pure functions of the routing matrix
//!   and the method's config (the entropy Hessian base, the Vardi
//!   stacked system and Gram, sparse SSN factors, the rolling
//!   windows' covariance rows and source map) are not serialized: the
//!   restored method rebuilds them bit-identically on first use.
//! * The rolling windows of Vardi, Cao and fanout write their
//!   accumulators, their length and their refresh counter, not their
//!   buffered intervals. Those are the trailing entries of the
//!   checkpoint's `history` — the same repaired loads, pushed on the
//!   same ticks — and a restore rebuilds them from it, so no
//!   interval's loads appear twice in a checkpoint. A window length
//!   past the history or past the window fails the restore.
//! * **WCB** does *not* carry its revised-simplex bases (the exact one
//!   and the relaxed one of infeasible ticks) across a checkpoint: a
//!   basis lives inside an LU factorization whose bits are
//!   pivot-path-dependent, so the first post-restore tick runs a fresh
//!   phase 1 instead of a rebase. The bounds of that
//!   tick agree with the uninterrupted run's to LP solver tolerance
//!   (the same ~1e-7·scale bound as the warm-vs-cold comparison in
//!   `docs/ROBUSTNESS.md`), and the carried basis reconverges
//!   immediately — subsequent rebases start from an optimal basis of
//!   the same LP.
//!
//! The engine's *configuration* (problem, methods, mode, quality
//! options) is deliberately **not** serialized: a checkpoint is state,
//! not provenance.
//! [`StreamEngine::restore`](crate::StreamEngine::restore) validates
//! that the receiving engine was built with a matching method roster
//! and mode, and rejects mismatches instead of guessing.
//!
//! # Method payloads
//!
//! Each method writes and reads its own payload, in its own module,
//! through the stream engine's crate-private `WarmMethod` trait:
//! `{"kind": "plain"}` for a method with nothing to carry (and every
//! method in cold mode), `{"kind", "warm"}` for entropy, Bayes and
//! Kruithof-full, `{"kind", "warm", "rolling"}` for Vardi and Cao,
//! `{"kind", "rolling"}` for fanout and `{"kind": "wcb"}` for WCB. A
//! rolling payload ends with its `"pushes"` counter. A
//! restore decodes every payload into a freshly built method state
//! before it installs any, so a malformed or mismatched payload fails
//! the restore and leaves the engine as it was.

use serde::{Deserialize, Serialize, Value};
use tm_traffic::IntervalLoads;

use crate::problem::Estimate;

/// Format version stamped into every checkpoint; bumped on any change
/// to the serialized layout so a stale checkpoint is rejected loudly
/// instead of deserialized wrong.
pub const CHECKPOINT_VERSION: u32 = 3;

/// Frozen mutable state of a [`StreamEngine`](crate::StreamEngine) — see the
/// [module docs](self) for the exactness contract.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineCheckpoint {
    /// Layout version ([`CHECKPOINT_VERSION`]).
    pub version: u32,
    /// Whether the engine ran in warm mode.
    pub warm: bool,
    /// Ticks consumed before the checkpoint was taken.
    pub ticks: usize,
    /// The engine's interval history window (oldest first).
    pub history: Vec<IntervalLoads>,
    /// Last clean value per extended row `[links | ingress | egress]`.
    pub last_clean: Vec<Option<f64>>,
    /// Consecutive unusable ticks per extended row.
    pub gap: Vec<usize>,
    /// Most recent successful estimate per method.
    pub last_good: Vec<Option<Estimate>>,
    /// Per-method carried state, in roster order.
    pub methods: Vec<MethodCkpt>,
}

/// One method's checkpointed state, tagged with its label so a restore
/// into a differently configured engine fails fast.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodCkpt {
    /// Method label (must match the receiving engine's roster).
    pub label: String,
    /// The method's own payload: a `{"kind": …}` map, plus `"warm"`
    /// (the warm start) and `"rolling"` (the data window) for the
    /// methods that carry them. The method writes and reads it; the
    /// engine only moves it.
    pub state: Value,
}

impl EngineCheckpoint {
    /// Serialize to a single-line JSON string (the daemon's checkpoint
    /// wire/disk format).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serialization is infallible")
    }

    /// Parse a checkpoint back from [`EngineCheckpoint::to_json`]
    /// output, rejecting version mismatches.
    pub fn from_json(s: &str) -> crate::Result<Self> {
        let ckpt: EngineCheckpoint = serde_json::from_str(s).map_err(|e| {
            crate::error::EstimationError::InvalidProblem(format!("checkpoint parse: {e}"))
        })?;
        if ckpt.version != CHECKPOINT_VERSION {
            return Err(crate::error::EstimationError::InvalidProblem(format!(
                "checkpoint version {} (expected {CHECKPOINT_VERSION})",
                ckpt.version
            )));
        }
        Ok(ckpt)
    }
}
