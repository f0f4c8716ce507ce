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
//! A restored engine continues **bit-identically** to the engine it
//! was checkpointed from, with one documented exception:
//!
//! * Entropy, Bayes, Kruithof, Vardi, Cao, Fanout, gravity and the
//!   plain registry methods round-trip exactly. Dense factors that
//!   accumulate rank-one up/downdate history (the Bayes
//!   `RidgeKernel`, the Vardi/Cao dense SSN factor) are serialized
//!   verbatim; caches that are pure functions of constant inputs
//!   (the entropy Hessian base, the Vardi stacked system and Gram,
//!   sparse SSN factors) either round-trip or are rebuilt
//!   bit-identically.
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

use serde::{DeError, Deserialize, Serialize, Value};
use tm_traffic::IntervalLoads;

use crate::bayes::BayesWarmStart;
use crate::cao::CaoWarmStart;
use crate::entropy::EntropyWarmStart;
use crate::kruithof::KruithofWarmStart;
use crate::problem::Estimate;
use crate::stream::{FanoutRolling, RollingMoments};
use crate::vardi::VardiWarmStart;

/// Format version stamped into every checkpoint; bumped on any change
/// to the serialized layout so a stale checkpoint is rejected loudly
/// instead of deserialized wrong.
pub const CHECKPOINT_VERSION: u32 = 1;

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
    /// Active imputation horizon (validated on restore).
    pub impute_horizon: usize,
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
    /// The carried state itself.
    pub state: MethodStateCkpt,
}

/// Checkpoint form of one method's streaming state. Mirrors the
/// engine's internal per-method state enum minus the estimator objects
/// (rebuilt from the method spec) and the WCB simplex basis (see the
/// [module docs](self)).
#[derive(Debug, Clone)]
pub enum MethodStateCkpt {
    /// Cold-path method: nothing carried.
    Plain,
    /// Entropy warm start (previous solution + spectral step).
    Entropy(Option<EntropyWarmStart>),
    /// Bayes factorized active-set kernel.
    Bayes(Box<BayesWarmStart>),
    /// Kruithof GIS multipliers.
    Kruithof(Option<KruithofWarmStart>),
    /// Vardi warm start + rolling second-moment window.
    Vardi(Box<VardiWarmStart>, RollingMoments),
    /// Cao warm start + rolling second-moment window.
    Cao(Box<CaoWarmStart>, RollingMoments),
    /// Fanout rolling window aggregates.
    Fanout(FanoutRolling),
    /// WCB: the carried basis is not serialized; restore re-derives it
    /// with a fresh phase 1 on the next tick.
    Wcb,
}

impl MethodStateCkpt {
    fn kind(&self) -> &'static str {
        match self {
            MethodStateCkpt::Plain => "plain",
            MethodStateCkpt::Entropy(..) => "entropy",
            MethodStateCkpt::Bayes(..) => "bayes",
            MethodStateCkpt::Kruithof(..) => "kruithof",
            MethodStateCkpt::Vardi(..) => "vardi",
            MethodStateCkpt::Cao(..) => "cao",
            MethodStateCkpt::Fanout(..) => "fanout",
            MethodStateCkpt::Wcb => "wcb",
        }
    }
}

impl Serialize for MethodStateCkpt {
    fn to_value(&self) -> Value {
        let mut map = vec![("kind".to_string(), self.kind().to_value())];
        match self {
            MethodStateCkpt::Plain | MethodStateCkpt::Wcb => {}
            MethodStateCkpt::Entropy(warm) => map.push(("warm".to_string(), warm.to_value())),
            MethodStateCkpt::Bayes(warm) => map.push(("warm".to_string(), warm.to_value())),
            MethodStateCkpt::Kruithof(warm) => map.push(("warm".to_string(), warm.to_value())),
            MethodStateCkpt::Vardi(warm, rolling) => {
                map.push(("warm".to_string(), warm.to_value()));
                map.push(("rolling".to_string(), rolling.to_value()));
            }
            MethodStateCkpt::Cao(warm, rolling) => {
                map.push(("warm".to_string(), warm.to_value()));
                map.push(("rolling".to_string(), rolling.to_value()));
            }
            MethodStateCkpt::Fanout(rolling) => {
                map.push(("rolling".to_string(), rolling.to_value()))
            }
        }
        Value::Map(map)
    }
}

impl Deserialize for MethodStateCkpt {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let kind = String::from_value(v.field("kind")?)?;
        Ok(match kind.as_str() {
            "plain" => MethodStateCkpt::Plain,
            "wcb" => MethodStateCkpt::Wcb,
            "entropy" => MethodStateCkpt::Entropy(Deserialize::from_value(v.field("warm")?)?),
            "bayes" => MethodStateCkpt::Bayes(Box::new(Deserialize::from_value(v.field("warm")?)?)),
            "kruithof" => MethodStateCkpt::Kruithof(Deserialize::from_value(v.field("warm")?)?),
            "vardi" => MethodStateCkpt::Vardi(
                Box::new(Deserialize::from_value(v.field("warm")?)?),
                Deserialize::from_value(v.field("rolling")?)?,
            ),
            "cao" => MethodStateCkpt::Cao(
                Box::new(Deserialize::from_value(v.field("warm")?)?),
                Deserialize::from_value(v.field("rolling")?)?,
            ),
            "fanout" => MethodStateCkpt::Fanout(Deserialize::from_value(v.field("rolling")?)?),
            other => return Err(DeError(format!("unknown method state kind `{other}`"))),
        })
    }
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
