//! The streaming interval engine: warm-started full-day estimation.
//!
//! The paper's headline experiment is temporal — every method runs over
//! a full day of 5-minute intervals (288 ticks), and the data analysis
//! (§5.2) shows why that workload is *not* 288 independent problems:
//! fanouts and routing drift slowly, so consecutive intervals are
//! nearly identical estimation problems. A [`StreamEngine`] consumes a
//! load time series interval by interval ([`IntervalLoads`] per tick),
//! re-anchors **one** shared [`MeasurementSystem`] per tick (all
//! matrix-derived caches — stacked matrix, Gram, transpose, second
//! moments — are derived once for the whole day), and, in
//! [`StreamMode::Warm`], carries per-method incremental state across
//! ticks:
//!
//! * **rolling fanout windows** — [`FanoutWindowStats`] updated in
//!   `O(N² + nnz)` per tick (add the entering interval, subtract the
//!   leaving one) instead of re-aggregated per window;
//! * **running second-moment accumulators** — [`RollingMoments`] keeps
//!   `Σt` and the `Σ tᵢtⱼ` products of the Vardi/Cao covariance rows,
//!   so the sample moments of a `K`-interval window cost `O(rows)` per
//!   tick instead of `O(K·rows)`;
//! * **previous-interval warm starts** — entropy, Bayes and
//!   Kruithof-full re-solve from the last interval's solution
//!   (spectral step, active set and GIS multipliers respectively);
//! * **the WCB bases carried forward** — one revised-simplex basis is
//!   re-anchored per tick via [`WcbSolver::rebase`] (with its
//!   dual-repair fallback) instead of a fresh phase 1 per interval;
//!   ticks whose exact LP is infeasible carry a second, relaxed-form
//!   basis with its slack rung the same way.
//!
//! [`StreamMode::Cold`] runs every tick from scratch through
//! [`MeasurementSystem::reanchor`] + [`Estimator::estimate_system`] —
//! per-interval results are **bit-identical** to estimating each
//! snapshot problem on its own — and is the baseline the warm mode's
//! speedups are measured against. Warm-mode solutions agree
//! with cold ones up to solver tolerance: every warm start either
//! targets the same unique optimum (strictly convex objectives, LP
//! optima, the GIS fixed point) or re-derives the same aggregates
//! incrementally (fanout, moments).

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};

use serde::{DeError, Deserialize, Serialize, Value};
use tm_linalg::Workspace;
use tm_opt::{Convergence, OptError};
use tm_traffic::{EvalDataset, IntervalLoads};

use crate::bayes::{BayesWarmStart, BayesianEstimator};
use crate::cao::{CaoEstimator, CaoWarmStart};
use crate::checkpoint::{EngineCheckpoint, MethodCkpt, MethodStateCkpt, CHECKPOINT_VERSION};
use crate::covariance::{SampleMoments, SecondMomentSystem};
use crate::entropy::{EntropyEstimator, EntropyWarmStart};
use crate::error::EstimationError;
use crate::fanout::{FanoutEstimator, FanoutWindowStats};
use crate::kruithof::{KruithofEstimator, KruithofWarmStart};
use crate::measure::{LoadQuality, QualityOptions};
use crate::method::{Method, MethodConfig, TypedEstimator};
use crate::problem::{Estimate, EstimationProblem, Estimator, TimeSeriesData};
use crate::system::MeasurementSystem;
use crate::vardi::{VardiEstimator, VardiWarmStart};
use crate::wcb::{RelaxedBand, WcbEstimator, WcbSolver};
use crate::Result;

/// Ticks between exact recomputations of the rolling aggregates from
/// their window buffer (bounds floating-point drift of the
/// add/subtract updates; the refresh is `O(K·size)`, amortized to
/// noise).
const ROLLING_REFRESH_TICKS: usize = 128;

/// Ticks a missing/suspect row may be bridged from its last clean value
/// before it is masked out of the system instead.
const DEFAULT_IMPUTE_HORIZON: usize = 3;

/// A method whose demand total exceeds this multiple of the tick's
/// total ingress traffic is treated as diverged: its carried state is
/// quarantined and the estimate replaced by the last good one.
const DIVERGENCE_FACTOR: f64 = 10.0;

/// Whether a [`StreamEngine`] carries per-method state across ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StreamMode {
    /// Every tick is estimated from scratch — bit-identical to
    /// estimating each interval's problem on its own.
    Cold,
    /// Per-method incremental state (rolling windows, warm starts, the
    /// carried WCB basis) persists across ticks; results agree with
    /// cold ones up to solver tolerance and arrive much faster.
    Warm,
}

/// One tick's output: per-method estimates aligned with
/// [`StreamEngine::labels`]. `None` marks a time-series method whose
/// window has not filled to its minimum length yet (Vardi/Cao need two
/// intervals for a covariance), or one holding its state through a
/// masked tick before any estimate exists to fall back on.
///
/// Serializable (exactly — finite `f64` round-trips bitwise through
/// the vendored JSON writer) so the daemon's socket transport can ship
/// whole ticks across process boundaries.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StreamTick {
    /// 0-based tick index (the engine's own interval counter).
    pub interval: usize,
    /// Per-method outcome, in [`StreamEngine::labels`] order.
    pub estimates: Vec<Option<Result<Estimate>>>,
    /// What the degradation ladder did this tick — `None` on a fully
    /// clean tick (the overwhelmingly common case). See
    /// `docs/ROBUSTNESS.md` for the ladder.
    pub degradation: Option<TickDegradation>,
    /// Per-method solve wall time in nanoseconds, aligned with
    /// [`StreamEngine::labels`]. Estimates are untouched by the timer —
    /// bit-identity contracts are unaffected — and the two `Instant`
    /// reads per method cost nanoseconds against millisecond solves, so
    /// the clock is always on. Telemetry consumers (the daemon's
    /// histogram recorders) read it; everyone else may ignore it.
    pub solve_ns: Vec<u64>,
}

/// Typed per-tick degradation report: which input rows were repaired or
/// dropped and what each method did about it. Faults surface *here*,
/// not as `Err` — the stream keeps producing estimates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TickDegradation {
    /// Tick index (mirrors [`StreamTick::interval`]).
    pub interval: usize,
    /// Stacked rows dropped from the measurement system this tick
    /// (unusable beyond the imputation horizon).
    pub masked_rows: Vec<usize>,
    /// Stacked rows bridged from their last clean value.
    pub imputed_rows: Vec<usize>,
    /// Relative flow-conservation residual over the tick's clean rows.
    pub conservation_residual: f64,
    /// Whether the residual is within tolerance.
    pub conservation_ok: bool,
    /// Per-method reports, only for methods that deviated from a plain
    /// clean solve (empty when the tick's inputs were repaired but
    /// every method still solved normally on them).
    pub methods: Vec<MethodDegradation>,
}

/// What one method did on a degraded tick.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MethodDegradation {
    /// Method label (matches [`StreamEngine::labels`]).
    pub label: String,
    /// How this method's estimate was produced.
    pub action: DegradationAction,
    /// Why the method's carried solver state was quarantined and
    /// rebuilt, when it was.
    pub quarantine: Option<QuarantineReason>,
}

/// How a method's estimate was produced on a degraded tick.
#[derive(Debug, Clone, PartialEq)]
pub enum DegradationAction {
    /// Solved on clean inputs (the report exists only because the
    /// carried state was quarantined).
    CleanSolve,
    /// Solved on the full system with short gaps bridged from the last
    /// clean values.
    ImputedSolve,
    /// Solved on the row-masked reduced system
    /// ([`MeasurementSystem::masked_view`]).
    MaskedSolve,
    /// A time-series method held its carried state: the masked tick is
    /// quarantined from its windows and the previous estimate stands.
    WarmHeld,
    /// The solve failed (or was quarantined); the last good estimate
    /// was substituted.
    FallbackLastGood,
    /// The solver panicked; the panic was caught, the method state
    /// rebuilt from cold, and the last good estimate substituted.
    PanicCaught {
        /// The panic payload, when it was a string.
        message: String,
    },
}

/// Why a method's carried warm state was discarded and rebuilt.
#[derive(Debug, Clone, PartialEq)]
pub enum QuarantineReason {
    /// The estimate carried NaN or infinite demands.
    NonFinite,
    /// The warm solver exhausted its iteration budget without reaching
    /// tolerance (see [`Convergence`]); the estimate is kept — it is
    /// the solver's best iterate — but the carried state is not
    /// trusted for the next tick.
    BudgetCapped {
        /// Optimality measure at exit.
        achieved_tol: f64,
        /// Iterations consumed.
        iters: usize,
    },
    /// The solver returned an error.
    SolverError {
        /// The error's display form.
        message: String,
    },
    /// The demand total exceeded 10x (`DIVERGENCE_FACTOR`) the tick's
    /// total traffic.
    Diverged {
        /// Ratio of the estimate's demand total to the tick's total.
        factor: f64,
    },
}

// Hand-written wire forms for the two data-carrying degradation enums
// (the vendored derive covers only unit variants): tagged
// `{"kind": ..}` objects, mirroring the checkpoint module's idiom.
impl Serialize for DegradationAction {
    fn to_value(&self) -> Value {
        let kind = |k: &str| ("kind".to_string(), Value::Str(k.to_string()));
        Value::Map(match self {
            DegradationAction::CleanSolve => vec![kind("clean_solve")],
            DegradationAction::ImputedSolve => vec![kind("imputed_solve")],
            DegradationAction::MaskedSolve => vec![kind("masked_solve")],
            DegradationAction::WarmHeld => vec![kind("warm_held")],
            DegradationAction::FallbackLastGood => vec![kind("fallback_last_good")],
            DegradationAction::PanicCaught { message } => vec![
                kind("panic_caught"),
                ("message".to_string(), message.to_value()),
            ],
        })
    }
}

impl Deserialize for DegradationAction {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        match v.field("kind")? {
            Value::Str(k) => match k.as_str() {
                "clean_solve" => Ok(DegradationAction::CleanSolve),
                "imputed_solve" => Ok(DegradationAction::ImputedSolve),
                "masked_solve" => Ok(DegradationAction::MaskedSolve),
                "warm_held" => Ok(DegradationAction::WarmHeld),
                "fallback_last_good" => Ok(DegradationAction::FallbackLastGood),
                "panic_caught" => Ok(DegradationAction::PanicCaught {
                    message: String::from_value(v.field("message")?)?,
                }),
                other => Err(DeError(format!("unknown DegradationAction kind `{other}`"))),
            },
            other => Err(DeError(format!(
                "DegradationAction kind must be a string: {other:?}"
            ))),
        }
    }
}

impl Serialize for QuarantineReason {
    fn to_value(&self) -> Value {
        let kind = |k: &str| ("kind".to_string(), Value::Str(k.to_string()));
        Value::Map(match self {
            QuarantineReason::NonFinite => vec![kind("non_finite")],
            QuarantineReason::BudgetCapped {
                achieved_tol,
                iters,
            } => vec![
                kind("budget_capped"),
                ("achieved_tol".to_string(), achieved_tol.to_value()),
                ("iters".to_string(), iters.to_value()),
            ],
            QuarantineReason::SolverError { message } => vec![
                kind("solver_error"),
                ("message".to_string(), message.to_value()),
            ],
            QuarantineReason::Diverged { factor } => {
                vec![kind("diverged"), ("factor".to_string(), factor.to_value())]
            }
        })
    }
}

impl Deserialize for QuarantineReason {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        match v.field("kind")? {
            Value::Str(k) => match k.as_str() {
                "non_finite" => Ok(QuarantineReason::NonFinite),
                "budget_capped" => Ok(QuarantineReason::BudgetCapped {
                    achieved_tol: f64::from_value(v.field("achieved_tol")?)?,
                    iters: usize::from_value(v.field("iters")?)?,
                }),
                "solver_error" => Ok(QuarantineReason::SolverError {
                    message: String::from_value(v.field("message")?)?,
                }),
                "diverged" => Ok(QuarantineReason::Diverged {
                    factor: f64::from_value(v.field("factor")?)?,
                }),
                other => Err(DeError(format!("unknown QuarantineReason kind `{other}`"))),
            },
            other => Err(DeError(format!(
                "QuarantineReason kind must be a string: {other:?}"
            ))),
        }
    }
}

/// The interval loads of a dataset's sample range, in time order,
/// ready for [`StreamEngine::run`] (the series → interval glue of
/// `tm_traffic`).
pub fn dataset_stream(
    dataset: &EvalDataset,
    range: std::ops::Range<usize>,
) -> Result<impl Iterator<Item = IntervalLoads> + '_> {
    Ok(dataset
        .intervals(range)
        .map_err(|e| EstimationError::InvalidProblem(e.to_string()))?
        .map(|(_, loads)| loads))
}

/// Per-method streaming state.
enum MethodState {
    /// Cold path (or a method with nothing to carry): a boxed registry
    /// estimator run through `estimate_system` every tick.
    Plain(Box<dyn Estimator + Send + Sync>),
    /// Entropy with the previous solution + spectral step carried.
    Entropy(EntropyEstimator, Option<EntropyWarmStart>),
    /// Bayes with the previous interval's factorized active-set kernel
    /// carried.
    Bayes(BayesianEstimator, Box<BayesWarmStart>),
    /// Kruithof-full with the previous GIS multipliers carried.
    Kruithof(KruithofEstimator, Option<KruithofWarmStart>),
    /// Vardi on rolling second moments + previous-solution warm start.
    Vardi(VardiEstimator, Box<VardiWarmStart>, RollingMoments),
    /// Cao on rolling second moments + previous-solution warm start.
    Cao(CaoEstimator, CaoWarmStart, RollingMoments),
    /// Fanout on rolling window aggregates.
    Fanout(FanoutEstimator, FanoutRolling),
    /// WCB midpoint with the revised-simplex bases carried forward.
    Wcb(WcbCarry),
}

/// WCB's carried LP state.
#[derive(Default)]
struct WcbCarry {
    /// The exact-form basis, re-anchored on every tick it stays
    /// feasible for.
    exact: Option<WcbSolver>,
    /// The relaxed-equality basis of the last tick whose exact form was
    /// infeasible, at its ladder rung (see [`WcbSolver::slack_rel`]).
    elastic: Option<WcbSolver>,
    /// The band form of the anchor's matrix, built on the first
    /// infeasible tick. It depends on the matrix alone, so resets keep
    /// it.
    band: Option<RelaxedBand>,
}

impl WcbCarry {
    /// Drop both carried bases: the next tick starts from fresh phase 1s.
    fn reset(&mut self) {
        self.exact = None;
        self.elastic = None;
    }
}

/// One method registered with the engine.
struct MethodSlot {
    label: String,
    window: Option<usize>,
    /// Minimum history length before the method can produce output
    /// (Vardi/Cao need two intervals for a covariance).
    min_window: usize,
    /// The registry spec, kept so a quarantined (or panicked) state can
    /// be rebuilt from cold.
    method: Method,
    state: MethodState,
}

/// Minimum history length before `m` can produce output (Vardi/Cao
/// need two intervals for a covariance).
fn min_window(m: &Method) -> usize {
    match m.config() {
        MethodConfig::Vardi { .. } | MethodConfig::Cao { .. } => 2,
        _ => 1,
    }
}

/// The streaming interval engine — see the [module docs](self).
pub struct StreamEngine {
    anchor: MeasurementSystem<'static>,
    mode: StreamMode,
    methods: Vec<MethodSlot>,
    /// The most recent `max_window` intervals (newest at the back).
    history: VecDeque<IntervalLoads>,
    max_window: usize,
    /// Source node per OD pair (fanout aggregation).
    src_of: Vec<usize>,
    ws: Workspace,
    ticks: usize,
    /// Input classification options driving the degradation ladder.
    quality: QualityOptions,
    /// Max consecutive ticks a row may be bridged from its last clean
    /// value before it is masked instead.
    impute_horizon: usize,
    /// Last clean value per extended row [links | ingress | egress].
    last_clean: Vec<Option<f64>>,
    /// Consecutive unusable ticks per extended row.
    gap: Vec<usize>,
    /// Most recent successful estimate per method (the fallback rung).
    last_good: Vec<Option<Estimate>>,
}

impl StreamEngine {
    /// Build an engine anchored on `anchor` — the problem supplies the
    /// routing pattern, peering roles and the edge-measurement flag;
    /// its load values are never estimated. Matrix-derived caches fill
    /// lazily on the shared system and serve every tick.
    pub fn new(anchor: EstimationProblem, methods: &[Method], mode: StreamMode) -> Result<Self> {
        if methods.is_empty() {
            return Err(EstimationError::InvalidProblem(
                "stream engine: no methods registered".into(),
            ));
        }
        for m in methods {
            let min = min_window(m);
            if let Some(w) = m.window() {
                if w < min {
                    return Err(EstimationError::InvalidProblem(format!(
                        "stream engine: `{}` needs a window of at least {min} intervals (got {w})",
                        m.label()
                    )));
                }
            }
        }
        let system = MeasurementSystem::new(anchor);
        let pairs = system.problem().pairs();
        let src_of: Vec<usize> = (0..pairs.count()).map(|p| pairs.pair(p).0 .0).collect();
        let slots: Vec<MethodSlot> = methods
            .iter()
            .map(|m| MethodSlot {
                label: m.label(),
                window: m.window(),
                min_window: min_window(m),
                method: m.clone(),
                state: build_state(&system, m, mode),
            })
            .collect();
        let max_window = slots.iter().filter_map(|s| s.window).max().unwrap_or(1);
        let n_methods = slots.len();
        let ext_rows = system.problem().n_links() + 2 * system.problem().n_nodes();
        Ok(StreamEngine {
            anchor: system,
            mode,
            methods: slots,
            history: VecDeque::with_capacity(max_window),
            max_window,
            src_of,
            ws: Workspace::new(),
            ticks: 0,
            quality: QualityOptions::default(),
            impute_horizon: DEFAULT_IMPUTE_HORIZON,
            last_clean: vec![None; ext_rows],
            gap: vec![0; ext_rows],
            last_good: vec![None; n_methods],
        })
    }

    /// Engine over a dataset's routing pattern (anchored on sample 0).
    pub fn for_dataset(
        dataset: &EvalDataset,
        methods: &[Method],
        mode: StreamMode,
    ) -> Result<Self> {
        use crate::problem::DatasetExt;
        Self::new(dataset.snapshot_problem(0), methods, mode)
    }

    /// Method labels, aligned with [`StreamTick::estimates`].
    pub fn labels(&self) -> Vec<String> {
        self.methods.iter().map(|m| m.label.clone()).collect()
    }

    /// The engine's mode.
    pub fn mode(&self) -> StreamMode {
        self.mode
    }

    /// Ticks consumed so far.
    pub fn ticks(&self) -> usize {
        self.ticks
    }

    /// The shared prepared system every tick re-anchors.
    pub fn system(&self) -> &MeasurementSystem<'static> {
        &self.anchor
    }

    /// Set how many consecutive ticks a missing/suspect row may be
    /// bridged from its last clean value before it is masked out of the
    /// system instead (default 3).
    pub fn with_impute_horizon(mut self, ticks: usize) -> Self {
        self.impute_horizon = ticks;
        self
    }

    /// Consume one interval and estimate every registered method.
    ///
    /// Engine-level failures (dimension mismatches, a routing change)
    /// fail the whole tick. Everything else runs the degradation
    /// ladder — classify → repair/mask → solve → validate →
    /// quarantine/fall back: dirty inputs and per-method solver
    /// failures degrade instead of erroring. Rows are imputed or
    /// masked, failing methods fall back to their last good estimate,
    /// suspect carried state is quarantined, and the whole story is
    /// reported in [`StreamTick::degradation`]. On a clean tick the
    /// ladder never engages: every method runs its plain solve, a
    /// solver failure is recorded in that method's `estimates` entry
    /// without disturbing the others, and the tick carries no report.
    pub fn push_interval(&mut self, loads: IntervalLoads) -> Result<StreamTick> {
        let anchor_p = self.anchor.problem();
        if loads.link_loads.len() != anchor_p.n_links()
            || loads.ingress.len() != anchor_p.n_nodes()
            || loads.egress.len() != anchor_p.n_nodes()
        {
            return Err(EstimationError::InvalidProblem(format!(
                "stream tick: loads sized {}/{}/{} for {} links, {} nodes",
                loads.link_loads.len(),
                loads.ingress.len(),
                loads.egress.len(),
                anchor_p.n_links(),
                anchor_p.n_nodes(),
            )));
        }
        let use_edge = anchor_p.uses_edge_measurements();
        let n_links = anchor_p.n_links();
        let n_nodes = anchor_p.n_nodes();
        let q = LoadQuality::assess(
            &loads.link_loads,
            &loads.ingress,
            &loads.egress,
            &self.quality,
        );

        // Repair pass over the extended row space
        // [links | ingress | egress] (kept even when edge rows are not
        // stacked — marginal-based priors read the node totals too).
        // Clean rows refresh the imputation source; unusable rows are
        // bridged from it while the gap is short, masked past the
        // horizon (with a best-effort fill so problem construction and
        // marginal priors stay sane).
        let mut repaired = loads;
        let mut imputed_ext: Vec<usize> = Vec::new();
        let mut masked_ext: Vec<usize> = Vec::new();
        {
            let horizon = self.impute_horizon;
            let last_clean = &mut self.last_clean;
            let gap = &mut self.gap;
            let mut repair = |ext: usize, value: &mut f64, usable: bool| {
                if usable {
                    last_clean[ext] = Some(*value);
                    gap[ext] = 0;
                } else {
                    gap[ext] += 1;
                    match last_clean[ext] {
                        Some(held) if gap[ext] <= horizon => {
                            *value = held;
                            imputed_ext.push(ext);
                        }
                        held => {
                            *value = held.unwrap_or(0.0);
                            masked_ext.push(ext);
                        }
                    }
                }
            };
            for i in 0..n_links {
                repair(i, &mut repaired.link_loads[i], q.links[i].is_usable());
            }
            for i in 0..n_nodes {
                repair(
                    n_links + i,
                    &mut repaired.ingress[i],
                    q.ingress[i].is_usable(),
                );
            }
            for i in 0..n_nodes {
                repair(
                    n_links + n_nodes + i,
                    &mut repaired.egress[i],
                    q.egress[i].is_usable(),
                );
            }
        }

        // Extended index == stacked row index when edge rows are
        // stacked; otherwise only link rows are in the system.
        let to_stacked = |ext: usize| {
            if ext < n_links || use_edge {
                Some(ext)
            } else {
                None
            }
        };
        let masked_rows: Vec<usize> = masked_ext.iter().copied().filter_map(to_stacked).collect();
        let imputed_rows: Vec<usize> = imputed_ext.iter().copied().filter_map(to_stacked).collect();
        let degraded_input = !(masked_ext.is_empty() && imputed_ext.is_empty());
        let masked_tick = !masked_rows.is_empty();

        let mut t_stacked = repaired.link_loads.clone();
        if use_edge {
            t_stacked.extend_from_slice(&repaired.ingress);
            t_stacked.extend_from_slice(&repaired.egress);
        }
        let usable_rows: Vec<usize> = if masked_tick {
            (0..t_stacked.len())
                .filter(|r| masked_rows.binary_search(r).is_err())
                .collect()
        } else {
            Vec::new()
        };

        // Divergence reference: total repaired ingress (≈ total
        // demand), falling back to the stacked total.
        let total_ref = {
            let ing: f64 = repaired.ingress.iter().sum();
            if ing > 0.0 {
                ing
            } else {
                t_stacked.iter().sum::<f64>()
            }
        };

        // History and rolling windows ingest only clean or fully
        // bridged ticks; a masked tick is quarantined from every
        // window so stale zeros never contaminate the moments.
        if !masked_tick {
            self.history.push_back(repaired.clone());
            if self.history.len() > self.max_window {
                self.history.pop_front();
            }
        }
        let needs_u = !masked_tick
            && self
                .methods
                .iter()
                .any(|m| matches!(m.state, MethodState::Fanout(..)));
        let u = if needs_u {
            Some(self.anchor.matrix().tr_matvec(&t_stacked))
        } else {
            None
        };

        let interval = self.ticks;
        self.ticks += 1;
        let mode = self.mode;

        let StreamEngine {
            anchor,
            methods,
            history,
            src_of,
            ws,
            last_good,
            ..
        } = self;
        let ctx = if masked_tick {
            TickCtx::Masked {
                usable: &usable_rows,
            }
        } else if degraded_input {
            TickCtx::Imputed
        } else {
            TickCtx::Clean
        };
        let mut snap_sys: Option<MeasurementSystem<'static>> = None;
        let mut win_sys: Vec<(usize, MeasurementSystem<'static>)> = Vec::new();

        let mut estimates = Vec::with_capacity(methods.len());
        let mut solve_ns = Vec::with_capacity(methods.len());
        let mut method_reports: Vec<MethodDegradation> = Vec::new();
        for (i, slot) in methods.iter_mut().enumerate() {
            let started = std::time::Instant::now();
            let solved = catch_unwind(AssertUnwindSafe(|| {
                solve_slot(
                    slot,
                    anchor,
                    history,
                    &repaired,
                    &t_stacked,
                    u.as_deref(),
                    src_of,
                    ws,
                    &mut snap_sys,
                    &mut win_sys,
                    &ctx,
                )
            }));
            solve_ns.push(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
            let (mut out, mut action) = match solved {
                Ok(v) => v,
                Err(payload) => {
                    // A panic may have torn the carried state mid-update:
                    // rebuild the whole slot (windows included) from cold.
                    slot.state = build_state(anchor, &slot.method, mode);
                    (
                        None,
                        Some(DegradationAction::PanicCaught {
                            message: panic_message(payload.as_ref()),
                        }),
                    )
                }
            };

            // Validate the outcome; read the warm solver's convergence
            // report before any quarantine resets it. The ladder only
            // engages on degraded ticks: a clean tick's output —
            // including a hypothetical non-converged or diverged solve —
            // is the method's plain solve, bit for bit, so suspect
            // outcomes are only intercepted once the inputs themselves
            // were suspect.
            let conv = slot_convergence(&slot.state);
            let panicked = matches!(action, Some(DegradationAction::PanicCaught { .. }));
            let mut quarantine: Option<QuarantineReason> = None;
            if !panicked && !matches!(ctx, TickCtx::Clean) {
                match &out {
                    Some(Err(e)) => {
                        quarantine = Some(QuarantineReason::SolverError {
                            message: e.to_string(),
                        });
                    }
                    Some(Ok(est)) => {
                        if !est.demands.iter().all(|v| v.is_finite()) {
                            quarantine = Some(QuarantineReason::NonFinite);
                        } else if total_ref > 0.0 {
                            let factor = est.demands.iter().sum::<f64>() / total_ref.max(1.0);
                            if factor > DIVERGENCE_FACTOR {
                                quarantine = Some(QuarantineReason::Diverged { factor });
                            }
                        }
                        if quarantine.is_none() {
                            if let Some(c) = conv {
                                if !c.converged {
                                    quarantine = Some(QuarantineReason::BudgetCapped {
                                        achieved_tol: c.achieved_tol,
                                        iters: c.iters,
                                    });
                                }
                            }
                        }
                    }
                    None => {}
                }
            }
            if let Some(reason) = &quarantine {
                // Self-healing: drop the suspect carried solver state
                // (rolling data windows are kept — they hold inputs,
                // not iterates) so the next tick restarts from cold.
                quarantine_state(&mut slot.state);
                // A budget-capped solve still yields the best iterate
                // found — keep it. The other reasons invalidate the
                // estimate itself: substitute the last good one.
                if !matches!(reason, QuarantineReason::BudgetCapped { .. }) {
                    if let Some(g) = &last_good[i] {
                        out = Some(Ok(g.clone()));
                        action = Some(DegradationAction::FallbackLastGood);
                    } else if matches!(out, Some(Ok(_))) {
                        out = Some(Err(EstimationError::InvalidProblem(format!(
                            "stream degraded: `{}` quarantined ({reason:?}) with no \
                             prior estimate to fall back on",
                            slot.label
                        ))));
                    }
                }
            }
            // Held or panicked methods stand on their last good
            // estimate when one exists.
            if out.is_none()
                && matches!(
                    action,
                    Some(DegradationAction::WarmHeld | DegradationAction::PanicCaught { .. })
                )
            {
                out = last_good[i].clone().map(Ok);
            }
            if let Some(Ok(est)) = &out {
                last_good[i] = Some(est.clone());
            }
            if action.is_some() || quarantine.is_some() {
                method_reports.push(MethodDegradation {
                    label: slot.label.clone(),
                    action: action.unwrap_or(DegradationAction::CleanSolve),
                    quarantine,
                });
            }
            estimates.push(out);
        }

        let degradation = if degraded_input || !method_reports.is_empty() || !q.conservation_ok {
            Some(TickDegradation {
                interval,
                masked_rows,
                imputed_rows,
                conservation_residual: q.conservation_residual,
                conservation_ok: q.conservation_ok,
                methods: method_reports,
            })
        } else {
            None
        };
        Ok(StreamTick {
            interval,
            estimates,
            degradation,
            solve_ns,
        })
    }

    /// Drain an interval source, estimating every tick.
    pub fn run<I>(&mut self, intervals: I) -> Result<Vec<StreamTick>>
    where
        I: IntoIterator<Item = IntervalLoads>,
    {
        let iter = intervals.into_iter();
        let mut out = Vec::with_capacity(iter.size_hint().0);
        for loads in iter {
            out.push(self.push_interval(loads)?);
        }
        Ok(out)
    }

    /// Freeze the engine's mutable state — tick counter, history
    /// window, imputation bookkeeping, last-good estimates, and every
    /// method's carried warm state — into an [`EngineCheckpoint`]. See
    /// [`crate::checkpoint`] for the exactness contract.
    pub fn checkpoint(&self) -> EngineCheckpoint {
        let methods = self
            .methods
            .iter()
            .map(|slot| MethodCkpt {
                label: slot.label.clone(),
                state: match &slot.state {
                    MethodState::Plain(_) => MethodStateCkpt::Plain,
                    MethodState::Entropy(_, warm) => MethodStateCkpt::Entropy(warm.clone()),
                    MethodState::Bayes(_, warm) => MethodStateCkpt::Bayes(warm.clone()),
                    MethodState::Kruithof(_, warm) => MethodStateCkpt::Kruithof(warm.clone()),
                    MethodState::Vardi(_, warm, rolling) => {
                        MethodStateCkpt::Vardi(warm.clone(), rolling.clone())
                    }
                    MethodState::Cao(_, warm, rolling) => {
                        MethodStateCkpt::Cao(Box::new(warm.clone()), rolling.clone())
                    }
                    MethodState::Fanout(_, rolling) => MethodStateCkpt::Fanout(rolling.clone()),
                    MethodState::Wcb(_) => MethodStateCkpt::Wcb,
                },
            })
            .collect();
        EngineCheckpoint {
            version: CHECKPOINT_VERSION,
            warm: self.mode == StreamMode::Warm,
            ticks: self.ticks,
            impute_horizon: self.impute_horizon,
            history: self.history.iter().cloned().collect(),
            last_clean: self.last_clean.clone(),
            gap: self.gap.clone(),
            last_good: self.last_good.clone(),
            methods,
        }
    }

    /// Install a checkpoint taken from an identically configured
    /// engine (same problem, method roster, mode and imputation
    /// horizon), replacing this engine's mutable state. Estimator
    /// objects and matrix caches are untouched — they are pure
    /// functions of the configuration. Returns an error (leaving the
    /// engine unchanged, except possibly already-validated fields) on
    /// any roster/mode/dimension mismatch.
    pub fn restore(&mut self, ckpt: &EngineCheckpoint) -> Result<()> {
        let invalid = |msg: String| EstimationError::InvalidProblem(format!("restore: {msg}"));
        if ckpt.version != CHECKPOINT_VERSION {
            return Err(invalid(format!(
                "checkpoint version {} (expected {CHECKPOINT_VERSION})",
                ckpt.version
            )));
        }
        if ckpt.warm != (self.mode == StreamMode::Warm) {
            return Err(invalid(format!(
                "checkpoint mode warm={} but engine is warm={}",
                ckpt.warm,
                self.mode == StreamMode::Warm
            )));
        }
        if ckpt.impute_horizon != self.impute_horizon {
            return Err(invalid(format!(
                "checkpoint impute horizon {} vs engine {}",
                ckpt.impute_horizon, self.impute_horizon
            )));
        }
        if ckpt.methods.len() != self.methods.len() {
            return Err(invalid(format!(
                "checkpoint has {} methods, engine has {}",
                ckpt.methods.len(),
                self.methods.len()
            )));
        }
        for (slot, m) in self.methods.iter().zip(&ckpt.methods) {
            if slot.label != m.label {
                return Err(invalid(format!(
                    "method label `{}` vs checkpoint `{}`",
                    slot.label, m.label
                )));
            }
            let compatible = matches!(
                (&slot.state, &m.state),
                (MethodState::Plain(_), MethodStateCkpt::Plain)
                    | (MethodState::Entropy(..), MethodStateCkpt::Entropy(_))
                    | (MethodState::Bayes(..), MethodStateCkpt::Bayes(_))
                    | (MethodState::Kruithof(..), MethodStateCkpt::Kruithof(_))
                    | (MethodState::Vardi(..), MethodStateCkpt::Vardi(..))
                    | (MethodState::Cao(..), MethodStateCkpt::Cao(..))
                    | (MethodState::Fanout(..), MethodStateCkpt::Fanout(_))
                    | (MethodState::Wcb(_), MethodStateCkpt::Wcb)
            );
            if !compatible {
                return Err(invalid(format!(
                    "method `{}`: checkpoint kind does not match engine state",
                    slot.label
                )));
            }
        }
        let ext_rows = self.last_clean.len();
        if ckpt.last_clean.len() != ext_rows || ckpt.gap.len() != ext_rows {
            return Err(invalid(format!(
                "checkpoint row bookkeeping sized {}/{} for {ext_rows} extended rows",
                ckpt.last_clean.len(),
                ckpt.gap.len()
            )));
        }
        if ckpt.last_good.len() != self.methods.len() {
            return Err(invalid(format!(
                "checkpoint has {} last-good slots for {} methods",
                ckpt.last_good.len(),
                self.methods.len()
            )));
        }
        if ckpt.history.len() > self.max_window {
            return Err(invalid(format!(
                "checkpoint history of {} intervals exceeds the window of {}",
                ckpt.history.len(),
                self.max_window
            )));
        }
        self.ticks = ckpt.ticks;
        self.history = ckpt.history.iter().cloned().collect();
        self.last_clean = ckpt.last_clean.clone();
        self.gap = ckpt.gap.clone();
        self.last_good = ckpt.last_good.clone();
        for (slot, m) in self.methods.iter_mut().zip(&ckpt.methods) {
            match (&mut slot.state, &m.state) {
                (MethodState::Plain(_), MethodStateCkpt::Plain) => {}
                (MethodState::Entropy(_, warm), MethodStateCkpt::Entropy(w)) => {
                    *warm = w.clone();
                }
                (MethodState::Bayes(_, warm), MethodStateCkpt::Bayes(w)) => *warm = w.clone(),
                (MethodState::Kruithof(_, warm), MethodStateCkpt::Kruithof(w)) => {
                    *warm = w.clone();
                }
                (MethodState::Vardi(_, warm, rolling), MethodStateCkpt::Vardi(w, r)) => {
                    *warm = w.clone();
                    *rolling = r.clone();
                }
                (MethodState::Cao(_, warm, rolling), MethodStateCkpt::Cao(w, r)) => {
                    *warm = (**w).clone();
                    *rolling = r.clone();
                }
                (MethodState::Fanout(_, rolling), MethodStateCkpt::Fanout(r)) => {
                    *rolling = r.clone();
                }
                (MethodState::Wcb(carry), MethodStateCkpt::Wcb) => {
                    // The bases are not checkpointed: the next tick runs
                    // a fresh phase 1 (see `crate::checkpoint`).
                    carry.reset();
                }
                _ => unreachable!("validated above"),
            }
        }
        Ok(())
    }
}

/// Build the streaming state for one method. Cold mode — and methods
/// with nothing to carry — use the plain registry estimator.
fn build_state(system: &MeasurementSystem<'_>, method: &Method, mode: StreamMode) -> MethodState {
    if mode == StreamMode::Cold {
        return MethodState::Plain(method.build());
    }
    let n_rows = system.n_rows();
    match method.config() {
        MethodConfig::Entropy { .. } => {
            let est = match method.build_typed() {
                TypedEstimator::Entropy(e) => e,
                _ => unreachable!("entropy config builds an entropy estimator"),
            };
            MethodState::Entropy(est, None)
        }
        MethodConfig::Bayes { .. } => {
            let est = match method.build_typed() {
                TypedEstimator::Bayes(e) => e,
                _ => unreachable!("bayes config builds a bayes estimator"),
            };
            MethodState::Bayes(est, Box::default())
        }
        MethodConfig::KruithofFull { .. } => {
            let est = match method.build_typed() {
                TypedEstimator::Kruithof(e) => e,
                _ => unreachable!("kruithof-full config builds a kruithof estimator"),
            };
            MethodState::Kruithof(est, None)
        }
        MethodConfig::Vardi { window, .. } => {
            let est = match method.build_typed() {
                TypedEstimator::Vardi(e) => e,
                _ => unreachable!("vardi config builds a vardi estimator"),
            };
            let rolling = RollingMoments::new(system.second_moments(), n_rows, *window);
            MethodState::Vardi(est, Box::default(), rolling)
        }
        MethodConfig::Cao { window, .. } => {
            let est = match method.build_typed() {
                TypedEstimator::Cao(e) => e,
                _ => unreachable!("cao config builds a cao estimator"),
            };
            let rolling = RollingMoments::new(system.second_moments(), n_rows, *window);
            MethodState::Cao(est, CaoWarmStart::default(), rolling)
        }
        MethodConfig::Fanout { window, .. } => {
            let est = match method.build_typed() {
                TypedEstimator::Fanout(e) => e,
                _ => unreachable!("fanout config builds a fanout estimator"),
            };
            let problem = system.problem();
            let rolling =
                FanoutRolling::new((*window).max(1), problem.n_nodes(), problem.n_pairs());
            MethodState::Fanout(est, rolling)
        }
        MethodConfig::Wcb => MethodState::Wcb(WcbCarry::default()),
        // Gravity and Kruithof-marginals are closed-form / microsecond
        // solves with nothing to carry.
        _ => MethodState::Plain(method.build()),
    }
}

/// The per-tick snapshot problem: the anchor's routing pattern, peering
/// roles and edge flag with the tick's load values — exactly what
/// `DatasetExt::snapshot_problem` builds (minus the ground truth no
/// estimator reads).
fn tick_problem(
    anchor: &MeasurementSystem<'_>,
    loads: &IntervalLoads,
) -> Result<EstimationProblem> {
    let p = anchor.problem();
    Ok(EstimationProblem::new(
        p.routing().clone(),
        loads.link_loads.clone(),
        loads.ingress.clone(),
        loads.egress.clone(),
    )?
    .with_peering(p.peering().to_vec())?
    .with_edge_measurements(p.uses_edge_measurements()))
}

/// Lazily build (once per tick) the re-anchored snapshot system.
fn tick_snapshot_system<'c>(
    anchor: &MeasurementSystem<'static>,
    loads: &IntervalLoads,
    cache: &'c mut Option<MeasurementSystem<'static>>,
) -> Result<&'c MeasurementSystem<'static>> {
    if cache.is_none() {
        let sys = anchor.reanchor(tick_problem(anchor, loads)?)?;
        *cache = Some(sys);
    }
    Ok(cache.as_ref().expect("installed above"))
}

/// Lazily build (once per tick and window length) the re-anchored
/// window system over the trailing `len` intervals of the history.
fn tick_window_system<'c>(
    anchor: &MeasurementSystem<'static>,
    history: &VecDeque<IntervalLoads>,
    len: usize,
    cache: &'c mut Vec<(usize, MeasurementSystem<'static>)>,
) -> Result<&'c MeasurementSystem<'static>> {
    if !cache.iter().any(|(l, _)| *l == len) {
        let skip = history.len() - len;
        let mut ts = TimeSeriesData {
            link_loads: Vec::with_capacity(len),
            ingress: Vec::with_capacity(len),
            egress: Vec::with_capacity(len),
        };
        for loads in history.iter().skip(skip) {
            ts.link_loads.push(loads.link_loads.clone());
            ts.ingress.push(loads.ingress.clone());
            ts.egress.push(loads.egress.clone());
        }
        let current = history.back().expect("nonempty history");
        let problem = tick_problem(anchor, current)?.with_time_series(ts)?;
        cache.push((len, anchor.reanchor(problem)?));
    }
    Ok(cache
        .iter()
        .find(|(l, _)| *l == len)
        .map(|(_, sys)| sys)
        .expect("installed above"))
}

/// One warm WCB tick: re-anchor the carried basis (plain rebase, then
/// the dual-repair pass inside [`WcbSolver::rebase`]), falling back to
/// a fresh phase 1 on the shared matrix only when repair fails, then
/// sweep the bound LPs and return the midpoint prior. When the exact
/// form is infeasible, the relaxed form is solved on the lowest
/// feasible slack rung, starting from the carried elastic basis
/// ([`WcbSolver::relaxed`]).
fn tick_wcb(
    anchor: &MeasurementSystem<'static>,
    t: &[f64],
    carry: &mut WcbCarry,
    ws: &mut Workspace,
) -> Result<Estimate> {
    let solver = &mut carry.exact;
    // A failed (or erroring) rebase leaves the carried solver with a
    // partially pivoted basis — it must never survive into the next
    // tick, so take it out of the slot and only reinstall on success.
    let reused = match solver.take() {
        Some(mut s) => match s.rebase(t) {
            Ok(true) => {
                *solver = Some(s);
                true
            }
            Ok(false) => false,
            // An infeasible repair only means the carried basis cannot
            // be walked to the new vector — rebuild instead of failing
            // the tick.
            Err(EstimationError::Opt(OptError::Infeasible { .. })) => false,
            Err(e) => return Err(e),
        },
        None => false,
    };
    if !reused {
        match WcbSolver::from_parts(anchor.matrix(), t) {
            Ok(s) => *solver = Some(s),
            // Exact equality has no non-negative solution: on imputed
            // or corrupted ticks the bridged loads can be mutually
            // inconsistent (ingress/egress sums no longer balance the
            // interior). Solve the relaxed-equality band form instead
            // (docs/ROBUSTNESS.md), from the elastic basis carried since
            // the last such tick; the next tick retries the exact form
            // first.
            Err(EstimationError::Opt(OptError::Infeasible { .. })) => {
                if carry.band.is_none() {
                    carry.band = Some(RelaxedBand::new(anchor.matrix())?);
                }
                let band = carry.band.as_ref().expect("built above");
                let elastic = WcbSolver::relaxed(band, t, carry.elastic.take())?;
                let bounds = elastic.bounds(ws)?;
                carry.elastic = Some(elastic);
                return Ok(bounds.midpoint());
            }
            Err(e) => return Err(e),
        }
    }
    let bounds = solver.as_ref().expect("installed above").bounds(ws)?;
    Ok(bounds.midpoint())
}

/// Input classification for one tick, steering the per-method solve.
enum TickCtx<'a> {
    /// All rows usable — every method's plain solve, untouched.
    Clean,
    /// Some rows bridged from their last clean value; the repaired
    /// loads run through the same full-system solve as a clean tick.
    Imputed,
    /// Rows masked past the imputation horizon: snapshot methods solve
    /// on the reduced view over `usable`, window methods hold.
    Masked { usable: &'a [usize] },
}

/// Solve one method slot for the tick. Returns the method's output (as
/// `push_interval` has always reported it) plus the degradation action
/// taken, if any.
#[allow(clippy::too_many_arguments)]
fn solve_slot(
    slot: &mut MethodSlot,
    anchor: &MeasurementSystem<'static>,
    history: &VecDeque<IntervalLoads>,
    current: &IntervalLoads,
    t_stacked: &[f64],
    u: Option<&[f64]>,
    src_of: &[usize],
    ws: &mut Workspace,
    snap_sys: &mut Option<MeasurementSystem<'static>>,
    win_sys: &mut Vec<(usize, MeasurementSystem<'static>)>,
    ctx: &TickCtx<'_>,
) -> (Option<Result<Estimate>>, Option<DegradationAction>) {
    if let TickCtx::Masked { usable } = ctx {
        return solve_slot_masked(slot, anchor, current, usable, ws, snap_sys);
    }
    let win_len = slot.window.map(|w| w.min(history.len()));
    let out: Option<Result<Estimate>> = match &mut slot.state {
        MethodState::Plain(est) => match win_len {
            None => Some(
                tick_snapshot_system(anchor, current, snap_sys)
                    .and_then(|sys| est.estimate_system(sys, ws)),
            ),
            Some(w) if history.len() < slot.min_window => {
                let _ = w;
                None
            }
            Some(w) => Some(
                tick_window_system(anchor, history, w, win_sys)
                    .and_then(|sys| est.estimate_system(sys, ws)),
            ),
        },
        MethodState::Entropy(est, warm) => Some(
            tick_snapshot_system(anchor, current, snap_sys)
                .and_then(|sys| est.estimate_system_warm(sys, ws, warm)),
        ),
        MethodState::Bayes(est, warm) => Some(
            tick_snapshot_system(anchor, current, snap_sys)
                .and_then(|sys| est.estimate_system_warm(sys, ws, warm)),
        ),
        MethodState::Kruithof(est, warm) => Some(
            tick_snapshot_system(anchor, current, snap_sys)
                .and_then(|sys| est.estimate_system_warm(sys, ws, warm)),
        ),
        MethodState::Vardi(est, warm, rolling) => {
            rolling.push(t_stacked.to_vec(), current.ingress.iter().sum());
            if rolling.len() < 2 {
                None
            } else {
                Some(rolling.moments().and_then(|m| {
                    est.estimate_from_moments(anchor, &m, rolling.mean_ingress(), Some(warm))
                }))
            }
        }
        MethodState::Cao(est, warm, rolling) => {
            rolling.push(t_stacked.to_vec(), current.ingress.iter().sum());
            if rolling.len() < 2 {
                None
            } else {
                Some(rolling.moments().and_then(|m| {
                    est.estimate_from_moments(anchor, &m, rolling.mean_ingress(), Some(warm))
                        .map(|e| e.estimate)
                }))
            }
        }
        MethodState::Fanout(est, rolling) => {
            let u = u.expect("computed for fanout above");
            rolling.push(current, u, src_of);
            Some(
                est.estimate_from_stats(anchor, &rolling.stats, ws)
                    .map(|r| r.estimate),
            )
        }
        MethodState::Wcb(carry) => Some(tick_wcb(anchor, t_stacked, carry, ws)),
    };
    let action = match ctx {
        TickCtx::Imputed if out.is_some() => Some(DegradationAction::ImputedSolve),
        _ => None,
    };
    (out, action)
}

/// Solve one method slot on a masked tick. Snapshot methods estimate on
/// the reduced row view (cold — their warm state is sized for the full
/// system and left untouched for the next clean tick); window methods
/// hold their state since the tick never enters their windows.
fn solve_slot_masked(
    slot: &mut MethodSlot,
    anchor: &MeasurementSystem<'static>,
    current: &IntervalLoads,
    usable: &[usize],
    ws: &mut Workspace,
    snap_sys: &mut Option<MeasurementSystem<'static>>,
) -> (Option<Result<Estimate>>, Option<DegradationAction>) {
    let held = (None, Some(DegradationAction::WarmHeld));
    match &mut slot.state {
        MethodState::Plain(est) => match slot.window {
            None => (
                Some(masked_solve(
                    est.as_ref(),
                    anchor,
                    current,
                    usable,
                    ws,
                    snap_sys,
                )),
                Some(DegradationAction::MaskedSolve),
            ),
            Some(_) => held,
        },
        MethodState::Entropy(est, _) => (
            Some(masked_solve(est, anchor, current, usable, ws, snap_sys)),
            Some(DegradationAction::MaskedSolve),
        ),
        MethodState::Bayes(est, _) => (
            Some(masked_solve(est, anchor, current, usable, ws, snap_sys)),
            Some(DegradationAction::MaskedSolve),
        ),
        MethodState::Kruithof(est, _) => (
            Some(masked_solve(est, anchor, current, usable, ws, snap_sys)),
            Some(DegradationAction::MaskedSolve),
        ),
        MethodState::Vardi(..) | MethodState::Cao(..) | MethodState::Fanout(..) => held,
        // Cold bound sweep on the reduced system; the carried basis is
        // sized for the full row set and stays untouched.
        MethodState::Wcb(_) => (
            Some(masked_solve(
                &WcbEstimator::new(),
                anchor,
                current,
                usable,
                ws,
                snap_sys,
            )),
            Some(DegradationAction::MaskedSolve),
        ),
    }
}

/// One cold estimate on the masked row view of the tick's snapshot
/// system.
fn masked_solve(
    est: &dyn Estimator,
    anchor: &MeasurementSystem<'static>,
    current: &IntervalLoads,
    usable: &[usize],
    ws: &mut Workspace,
    snap_sys: &mut Option<MeasurementSystem<'static>>,
) -> Result<Estimate> {
    let sys = tick_snapshot_system(anchor, current, snap_sys)?;
    let view = sys.masked_view(usable)?;
    est.estimate_system(&view, ws)
}

/// The convergence report of the warm engine that produced the slot's
/// last estimate, where one is tracked.
fn slot_convergence(state: &MethodState) -> Option<Convergence> {
    match state {
        MethodState::Entropy(_, Some(w)) => w.last_convergence(),
        MethodState::Vardi(_, w, _) => w.last_convergence(),
        MethodState::Cao(_, w, _) => w.last_convergence(),
        _ => None,
    }
}

/// Drop a slot's carried solver state (warm starts, simplex basis) so
/// the next tick restarts from cold. Rolling data windows are kept —
/// they hold measured inputs, not solver iterates.
fn quarantine_state(state: &mut MethodState) {
    match state {
        MethodState::Entropy(_, warm) => *warm = None,
        MethodState::Bayes(_, warm) => **warm = BayesWarmStart::default(),
        MethodState::Kruithof(_, warm) => *warm = None,
        MethodState::Vardi(_, warm, _) => **warm = VardiWarmStart::default(),
        MethodState::Cao(_, warm, _) => *warm = CaoWarmStart::default(),
        MethodState::Wcb(carry) => carry.reset(),
        MethodState::Plain(_) | MethodState::Fanout(..) => {}
    }
}

/// Human-readable message from a caught panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Rolling sample moments of the stacked measurement vectors over a
/// `K`-interval window, restricted to the second-moment system's
/// `(i ≤ j)` covariance rows. Maintains `Σ tᵢ` and `Σ tᵢ·tⱼ`
/// incrementally (`O(rows)` per tick) and reproduces
/// [`SecondMomentSystem::sample_moments`]'s `1/K` covariance
/// convention; the buffers are re-aggregated exactly every
/// 128 ticks (`ROLLING_REFRESH_TICKS`) to bound floating-point drift.
#[derive(Debug, Clone)]
pub struct RollingMoments {
    window: usize,
    rows: Vec<(usize, usize)>,
    buf: VecDeque<Vec<f64>>,
    sum: Vec<f64>,
    prod: Vec<f64>,
    /// Per-interval total ingress traffic, parallel to `buf` (feeds the
    /// Vardi/Cao normalization constant).
    ingress: VecDeque<f64>,
    ingress_sum: f64,
    pushes: usize,
}

impl RollingMoments {
    /// Rolling moments aligned with `sys`'s covariance rows, over
    /// measurement vectors of length `dim`, with window length
    /// `window`.
    pub fn new(sys: &SecondMomentSystem, dim: usize, window: usize) -> Self {
        RollingMoments {
            window: window.max(2),
            rows: sys.rows.clone(),
            buf: VecDeque::with_capacity(window),
            sum: vec![0.0; dim],
            prod: vec![0.0; sys.rows.len()],
            ingress: VecDeque::with_capacity(window),
            ingress_sum: 0.0,
            pushes: 0,
        }
    }

    /// Intervals currently in the window.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no intervals have been pushed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Push the stacked measurement vector of a new interval (plus its
    /// total ingress traffic), evicting the oldest interval once the
    /// window is full.
    pub fn push(&mut self, t: Vec<f64>, ingress_total: f64) {
        assert_eq!(t.len(), self.sum.len(), "measurement vector length");
        if self.buf.len() == self.window {
            let old = self.buf.pop_front().expect("window full");
            self.ingress_sum -= self.ingress.pop_front().expect("window full");
            for (s, &v) in self.sum.iter_mut().zip(&old) {
                *s -= v;
            }
            for (r, &(i, j)) in self.rows.iter().enumerate() {
                self.prod[r] -= old[i] * old[j];
            }
        }
        self.ingress.push_back(ingress_total);
        self.ingress_sum += ingress_total;
        for (s, &v) in self.sum.iter_mut().zip(&t) {
            *s += v;
        }
        for (r, &(i, j)) in self.rows.iter().enumerate() {
            self.prod[r] += t[i] * t[j];
        }
        self.buf.push_back(t);
        self.pushes += 1;
        if self.pushes.is_multiple_of(ROLLING_REFRESH_TICKS) {
            self.refresh();
        }
    }

    /// Exact re-aggregation from the buffered window (drift reset).
    fn refresh(&mut self) {
        self.sum.fill(0.0);
        self.prod.fill(0.0);
        for t in &self.buf {
            for (s, &v) in self.sum.iter_mut().zip(t) {
                *s += v;
            }
            for (r, &(i, j)) in self.rows.iter().enumerate() {
                self.prod[r] += t[i] * t[j];
            }
        }
        self.ingress_sum = self.ingress.iter().sum();
    }

    /// Sample moments of the current window (mean + vech covariance in
    /// the `1/K` convention). Needs at least two intervals.
    pub fn moments(&self) -> Result<SampleMoments> {
        let k = self.buf.len();
        if k < 2 {
            return Err(EstimationError::InvalidProblem(
                "need at least 2 intervals for a covariance".into(),
            ));
        }
        let kf = k as f64;
        let mean: Vec<f64> = self.sum.iter().map(|&v| v / kf).collect();
        let cov_vech: Vec<f64> = self
            .rows
            .iter()
            .zip(&self.prod)
            .map(|(&(i, j), &p)| p / kf - mean[i] * mean[j])
            .collect();
        Ok(SampleMoments { mean, cov_vech })
    }

    /// Mean per-interval total ingress traffic over the window (the
    /// normalization constant the Vardi/Cao solves expect); `0.0` when
    /// the window is empty.
    pub fn mean_ingress(&self) -> f64 {
        if self.buf.is_empty() {
            return 0.0;
        }
        self.ingress_sum / self.buf.len() as f64
    }
}

/// Checkpoint form of [`RollingMoments`]: everything round-trips,
/// including the running `Σt` / `Σtᵢtⱼ` accumulators and the `pushes`
/// counter — the accumulators carry add/subtract rounding history that
/// a re-aggregation would not reproduce, and the counter pins the
/// exact `ROLLING_REFRESH_TICKS` refresh cadence. A restored window
/// therefore continues bit-identically to an uninterrupted one.
impl serde::Serialize for RollingMoments {
    fn to_value(&self) -> serde::Value {
        let buf: Vec<Vec<f64>> = self.buf.iter().cloned().collect();
        let ingress: Vec<f64> = self.ingress.iter().copied().collect();
        serde::Value::Map(vec![
            ("window".to_string(), self.window.to_value()),
            ("rows".to_string(), self.rows.to_value()),
            ("buf".to_string(), buf.to_value()),
            ("sum".to_string(), self.sum.to_value()),
            ("prod".to_string(), self.prod.to_value()),
            ("ingress".to_string(), ingress.to_value()),
            ("ingress_sum".to_string(), self.ingress_sum.to_value()),
            ("pushes".to_string(), self.pushes.to_value()),
        ])
    }
}

impl serde::Deserialize for RollingMoments {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let buf: Vec<Vec<f64>> = serde::Deserialize::from_value(v.field("buf")?)?;
        let ingress: Vec<f64> = serde::Deserialize::from_value(v.field("ingress")?)?;
        Ok(RollingMoments {
            window: serde::Deserialize::from_value(v.field("window")?)?,
            rows: serde::Deserialize::from_value(v.field("rows")?)?,
            buf: buf.into(),
            sum: serde::Deserialize::from_value(v.field("sum")?)?,
            prod: serde::Deserialize::from_value(v.field("prod")?)?,
            ingress: ingress.into(),
            ingress_sum: serde::Deserialize::from_value(v.field("ingress_sum")?)?,
            pushes: serde::Deserialize::from_value(v.field("pushes")?)?,
        })
    }
}

/// Rolling fanout-window aggregates: a [`FanoutWindowStats`] maintained
/// by add/subtract updates over a bounded window, with periodic exact
/// re-aggregation.
#[derive(Debug, Clone)]
pub struct FanoutRolling {
    window: usize,
    /// Current aggregates (readable by
    /// [`FanoutEstimator::estimate_from_stats`]).
    pub stats: FanoutWindowStats,
    /// Buffered per-interval contributions `(te, tx, u)`.
    buf: VecDeque<(Vec<f64>, Vec<f64>, Vec<f64>)>,
    pushes: usize,
}

impl FanoutRolling {
    /// Empty rolling window of length `window` for `n` nodes /
    /// `p_count` pairs.
    pub fn new(window: usize, n: usize, p_count: usize) -> Self {
        FanoutRolling {
            window: window.max(1),
            stats: FanoutWindowStats::empty(n, p_count),
            buf: VecDeque::with_capacity(window),
            pushes: 0,
        }
    }

    /// Push one interval (its loads plus the transposed product
    /// `u = Aᵀ·t` of its stacked measurement vector), evicting the
    /// oldest interval once the window is full.
    pub fn push(&mut self, loads: &IntervalLoads, u: &[f64], src_of: &[usize]) {
        if self.buf.len() == self.window {
            let (te, tx, old_u) = self.buf.pop_front().expect("window full");
            self.stats.remove_interval(&te, &tx, &old_u, src_of);
        }
        self.stats
            .add_interval(&loads.ingress, &loads.egress, u, src_of);
        self.buf
            .push_back((loads.ingress.clone(), loads.egress.clone(), u.to_vec()));
        self.pushes += 1;
        if self.pushes.is_multiple_of(ROLLING_REFRESH_TICKS) {
            self.refresh(src_of);
        }
    }

    /// Exact re-aggregation from the buffered window (drift reset).
    fn refresh(&mut self, src_of: &[usize]) {
        let n = self.stats.te_sum.len();
        let p = self.stats.g_terms.len();
        self.stats = FanoutWindowStats::empty(n, p);
        for (te, tx, u) in &self.buf {
            self.stats.add_interval(te, tx, u, src_of);
        }
    }

    /// Intervals currently in the window.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no intervals have been pushed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// Checkpoint form of [`FanoutRolling`] — same contract as the
/// [`RollingMoments`] impl: aggregates and the refresh counter
/// round-trip exactly, so a restored window continues bit-identically.
impl serde::Serialize for FanoutRolling {
    fn to_value(&self) -> serde::Value {
        let buf: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> = self.buf.iter().cloned().collect();
        serde::Value::Map(vec![
            ("window".to_string(), self.window.to_value()),
            ("stats".to_string(), self.stats.to_value()),
            ("buf".to_string(), buf.to_value()),
            ("pushes".to_string(), self.pushes.to_value()),
        ])
    }
}

impl serde::Deserialize for FanoutRolling {
    fn from_value(v: &serde::Value) -> std::result::Result<Self, serde::DeError> {
        let buf: Vec<(Vec<f64>, Vec<f64>, Vec<f64>)> =
            serde::Deserialize::from_value(v.field("buf")?)?;
        Ok(FanoutRolling {
            window: serde::Deserialize::from_value(v.field("window")?)?,
            stats: serde::Deserialize::from_value(v.field("stats")?)?,
            buf: buf.into(),
            pushes: serde::Deserialize::from_value(v.field("pushes")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::measure::LoadFaultPlan;
    use crate::metrics::{mean_relative_error, CoverageThreshold};
    use crate::problem::DatasetExt;
    use crate::wcb::worst_case_bounds;
    use tm_traffic::DatasetSpec;

    fn tiny() -> EvalDataset {
        EvalDataset::generate(DatasetSpec::tiny(), 101).unwrap()
    }

    fn methods(specs: &[&str]) -> Vec<Method> {
        specs.iter().map(|s| s.parse().unwrap()).collect()
    }

    fn mre(d: &EvalDataset, k: usize, est: &Estimate) -> f64 {
        let truth = d.demands_at(k).unwrap();
        mean_relative_error(truth, &est.demands, CoverageThreshold::Share(0.9)).unwrap()
    }

    #[test]
    fn cold_snapshot_ticks_match_batch_bit_for_bit() {
        let d = tiny();
        let ms = methods(&[
            "gravity",
            "gravity-generalized",
            "kruithof-marginals",
            "kruithof-full",
            "entropy:lambda=1e3",
            "bayes:prior=1e3",
            "wcb",
        ]);
        let mut engine = StreamEngine::for_dataset(&d, &ms, StreamMode::Cold).unwrap();
        let ticks = engine.run(dataset_stream(&d, 0..5).unwrap()).unwrap();
        assert_eq!(ticks.len(), 5);
        for (k, tick) in ticks.iter().enumerate() {
            assert_eq!(tick.interval, k);
            assert!(tick.degradation.is_none(), "clean tick {k} degraded");
            for (i, m) in ms.iter().enumerate() {
                let got = tick.estimates[i]
                    .as_ref()
                    .expect("snapshot methods always ready")
                    .as_ref()
                    .expect("solvable");
                let want = m.build().estimate(&d.snapshot_problem(k)).unwrap();
                assert_eq!(got.demands, want.demands, "tick {k} method {}", m.label());
            }
        }
    }

    #[test]
    fn cold_windowed_ticks_match_window_problems() {
        let d = tiny();
        let ms = methods(&["fanout:window=4", "vardi:w=0.01,window=5,iters=500"]);
        let mut engine = StreamEngine::for_dataset(&d, &ms, StreamMode::Cold).unwrap();
        let ticks = engine.run(dataset_stream(&d, 0..7).unwrap()).unwrap();
        for (k, tick) in ticks.iter().enumerate() {
            assert!(tick.degradation.is_none(), "clean tick {k} degraded");
            // fanout: window = min(k+1, 4), ready from the first tick.
            let w = (k + 1).min(4);
            let got = tick.estimates[0].as_ref().unwrap().as_ref().unwrap();
            let want = ms[0]
                .build()
                .estimate(&d.window_problem(k + 1 - w..k + 1))
                .unwrap();
            assert_eq!(got.demands, want.demands, "fanout tick {k}");
            // vardi: needs two intervals, window = min(k+1, 5).
            if k == 0 {
                assert!(tick.estimates[1].is_none(), "vardi not ready at tick 0");
            } else {
                let w = (k + 1).min(5);
                let got = tick.estimates[1].as_ref().unwrap().as_ref().unwrap();
                let want = ms[1]
                    .build()
                    .estimate(&d.window_problem(k + 1 - w..k + 1))
                    .unwrap();
                assert_eq!(got.demands, want.demands, "vardi tick {k}");
            }
        }
    }

    #[test]
    fn warm_agrees_with_cold_within_solver_tolerance() {
        let d = tiny();
        let ms = methods(&[
            "entropy:lambda=1e3",
            "bayes:prior=1e3",
            "kruithof-full",
            "wcb",
            "fanout:window=4",
            "vardi:w=0.01,window=5",
            "cao:c=1.6,w=0.01,outer=4,window=5",
        ]);
        let mut cold = StreamEngine::for_dataset(&d, &ms, StreamMode::Cold).unwrap();
        let mut warm = StreamEngine::for_dataset(&d, &ms, StreamMode::Warm).unwrap();
        let cold_ticks = cold.run(dataset_stream(&d, 0..8).unwrap()).unwrap();
        let warm_ticks = warm.run(dataset_stream(&d, 0..8).unwrap()).unwrap();
        for (k, (ct, wt)) in cold_ticks.iter().zip(&warm_ticks).enumerate() {
            assert!(ct.degradation.is_none(), "clean cold tick {k} degraded");
            assert!(wt.degradation.is_none(), "clean warm tick {k} degraded");
            for (i, m) in ms.iter().enumerate() {
                let (Some(c), Some(w)) = (&ct.estimates[i], &wt.estimates[i]) else {
                    assert_eq!(
                        ct.estimates[i].is_none(),
                        wt.estimates[i].is_none(),
                        "readiness must agree: tick {k} {}",
                        m.label()
                    );
                    continue;
                };
                let c = c.as_ref().unwrap();
                let w = w.as_ref().unwrap();
                let mre_c = mre(&d, k, c);
                let mre_w = mre(&d, k, w);
                // Strictly convex objectives, the GIS fixed point and
                // the LP optima are unique: warm and cold agree to
                // solver tolerance. Vardi/Cao minimize rank-deficient
                // (resp. non-convex) moment objectives whose optimal
                // face is not a single point — warm starts land on a
                // different optimal point, bounding the divergence by
                // the face diameter instead of the solver tolerance.
                let tol = match m.config() {
                    MethodConfig::Vardi { .. } => 2e-5,
                    // Cao's pseudo-EM objective is non-convex: warm
                    // starts may settle in a (often better) nearby
                    // local optimum — only sanity is asserted.
                    MethodConfig::Cao { .. } => 5e-2,
                    _ => 1e-6,
                };
                assert!(
                    (mre_c - mre_w).abs() <= tol,
                    "tick {k} {}: cold MRE {mre_c} vs warm {mre_w}",
                    m.label()
                );
            }
        }
    }

    #[test]
    fn rolling_moments_match_batch_sample_moments() {
        let d = tiny();
        let sys = MeasurementSystem::new(d.snapshot_problem(0));
        let sms = sys.second_moments().clone();
        let window = 6usize;
        let mut rolling = RollingMoments::new(&sms, sys.n_rows(), window);
        for k in 0..12 {
            let t = d.snapshot_problem(k).measurements();
            let ing: f64 = d.interval_loads(k).unwrap().ingress.iter().sum();
            rolling.push(t, ing);
            if rolling.len() < 2 {
                continue;
            }
            let lo = (k + 1).saturating_sub(window);
            let series: Vec<Vec<f64>> = (lo..=k)
                .map(|j| d.snapshot_problem(j).measurements())
                .collect();
            let want = sms.sample_moments(&series).unwrap();
            let got = rolling.moments().unwrap();
            for (a, b) in got.mean.iter().zip(&want.mean) {
                assert!((a - b).abs() <= 1e-9 * (1.0 + b.abs()), "mean {a} vs {b}");
            }
            for (a, b) in got.cov_vech.iter().zip(&want.cov_vech) {
                assert!(
                    (a - b).abs() <= 1e-6 * (1.0 + b.abs()),
                    "cov {a} vs {b} at k={k}"
                );
            }
        }
        assert!(rolling.mean_ingress() > 0.0);
    }

    #[test]
    fn fanout_rolling_matches_cold_aggregation() {
        let d = tiny();
        let sys = MeasurementSystem::new(d.snapshot_problem(0));
        let p_count = d.n_pairs();
        let n = d.topology.n_nodes();
        let pairs = d.routing.pairs();
        let src_of: Vec<usize> = (0..p_count).map(|p| pairs.pair(p).0 .0).collect();
        let window = 4usize;
        let mut rolling = FanoutRolling::new(window, n, p_count);
        for k in 0..10 {
            let loads = d.interval_loads(k).unwrap();
            let t = d.snapshot_problem(k).measurements();
            let u = sys.matrix().tr_matvec(&t);
            rolling.push(&loads, &u, &src_of);
            let lo = (k + 1).saturating_sub(window);
            let wsys = sys.reanchor(d.window_problem(lo..k + 1)).unwrap();
            let want = FanoutWindowStats::from_series(&wsys).unwrap();
            assert_eq!(rolling.stats.k_len, want.k_len, "k_len at {k}");
            for (a, b) in rolling.stats.cross.iter().zip(&want.cross) {
                assert!((a - b).abs() <= 1e-7 * (1.0 + b.abs()), "cross {a} vs {b}");
            }
            for (a, b) in rolling.stats.g_terms.iter().zip(&want.g_terms) {
                assert!((a - b).abs() <= 1e-7 * (1.0 + b.abs()), "g {a} vs {b}");
            }
        }
        assert!(!rolling.is_empty());
        assert_eq!(rolling.len(), window);
    }

    #[test]
    fn engine_validates_inputs() {
        let d = tiny();
        assert!(StreamEngine::for_dataset(&d, &[], StreamMode::Cold).is_err());
        // Meaningless windows are rejected at build time (window=0 is
        // already unparseable; vardi/cao need two intervals), in both
        // modes.
        assert!("fanout:window=0".parse::<Method>().is_err());
        let v1: Vec<Method> = vec!["vardi:w=0.01,window=1".parse().unwrap()];
        assert!(StreamEngine::for_dataset(&d, &v1, StreamMode::Warm).is_err());
        assert!(StreamEngine::for_dataset(&d, &v1, StreamMode::Cold).is_err());
        let ms = methods(&["gravity"]);
        let mut engine = StreamEngine::for_dataset(&d, &ms, StreamMode::Warm).unwrap();
        assert_eq!(engine.labels(), vec!["gravity".to_string()]);
        assert_eq!(engine.mode(), StreamMode::Warm);
        let bad = IntervalLoads {
            link_loads: vec![1.0],
            ingress: vec![1.0],
            egress: vec![1.0],
        };
        assert!(engine.push_interval(bad).is_err());
        assert_eq!(engine.ticks(), 0);
        let good = d.interval_loads(0).unwrap();
        let tick = engine.push_interval(good).unwrap();
        assert_eq!(tick.interval, 0);
        assert_eq!(engine.ticks(), 1);
        // Out-of-range dataset stream is rejected.
        assert!(dataset_stream(&d, 0..10_000).is_err());
    }

    #[test]
    fn wcb_ticks_never_read_the_anchor_loads() {
        // The engine anchors on snapshot 0 for its routing pattern
        // only. Garble that snapshot (a negative demand large enough to
        // drive an edge total negative, which no s ≥ 0 can reproduce):
        // every later tick must still solve its own loads, in both
        // modes, warm basis included.
        let mut d = EvalDataset::generate(DatasetSpec::tiny(), 29).unwrap();
        let total: f64 = d.series.samples[0].iter().sum();
        d.series.samples[0][0] = -2.0 * total;
        let scale = d.snapshot_problem(1).total_traffic();
        for mode in [StreamMode::Cold, StreamMode::Warm] {
            let mut engine = StreamEngine::for_dataset(&d, &methods(&["wcb"]), mode).unwrap();
            assert!(
                engine.system().wcb_solver().is_err(),
                "snapshot 0's own system is infeasible"
            );
            for k in 1..5 {
                let tick = engine.push_interval(d.interval_loads(k).unwrap()).unwrap();
                assert!(tick.degradation.is_none(), "{mode:?} tick {k} degraded");
                let got = tick.estimates[0].as_ref().unwrap().as_ref().unwrap();
                let want = worst_case_bounds(&d.snapshot_problem(k))
                    .unwrap()
                    .midpoint();
                for (p, (a, b)) in got.demands.iter().zip(&want.demands).enumerate() {
                    assert!(
                        (a - b).abs() <= 1e-7 * scale,
                        "{mode:?} snapshot {k} pair {p}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn short_gap_is_imputed_then_recovers() {
        let d = tiny();
        let ms = methods(&["gravity", "entropy:lambda=1e3"]);
        let mut engine = StreamEngine::for_dataset(&d, &ms, StreamMode::Warm).unwrap();
        for k in 0..2 {
            let tick = engine.push_interval(d.interval_loads(k).unwrap()).unwrap();
            assert!(tick.degradation.is_none(), "clean tick {k}");
        }
        // One link poll lost for one tick: bridged from its last clean
        // value, every method still solves on the full system.
        let mut loads = d.interval_loads(2).unwrap();
        loads.link_loads[3] = f64::NAN;
        let tick = engine.push_interval(loads).unwrap();
        let deg = tick.degradation.expect("imputed tick must report");
        assert_eq!(deg.imputed_rows, vec![3]);
        assert!(deg.masked_rows.is_empty());
        assert!(deg.conservation_ok);
        for (i, est) in tick.estimates.iter().enumerate() {
            assert!(est.as_ref().unwrap().is_ok(), "method {i} on imputed tick");
        }
        assert!(deg
            .methods
            .iter()
            .all(|m| m.action == DegradationAction::ImputedSolve && m.quarantine.is_none()));
        // The next clean tick clears the gap: no degradation report.
        let tick = engine.push_interval(d.interval_loads(3).unwrap()).unwrap();
        assert!(tick.degradation.is_none());
    }

    #[test]
    fn gap_past_the_horizon_masks_the_row() {
        let d = tiny();
        let ms = methods(&["gravity"]);
        let mut engine = StreamEngine::for_dataset(&d, &ms, StreamMode::Warm)
            .unwrap()
            .with_impute_horizon(2);
        engine.push_interval(d.interval_loads(0).unwrap()).unwrap();
        for k in 1..=4 {
            let mut loads = d.interval_loads(k).unwrap();
            loads.link_loads[0] = f64::NAN;
            let tick = engine.push_interval(loads).unwrap();
            let deg = tick.degradation.expect("faulty tick must report");
            if k <= 2 {
                assert_eq!(deg.imputed_rows, vec![0], "tick {k} inside horizon");
                assert!(deg.masked_rows.is_empty());
            } else {
                assert_eq!(deg.masked_rows, vec![0], "tick {k} past horizon");
                assert!(deg.imputed_rows.is_empty());
                // The snapshot method solves the reduced system.
                assert!(tick.estimates[0].as_ref().unwrap().is_ok());
                assert!(deg
                    .methods
                    .iter()
                    .any(|m| m.action == DegradationAction::MaskedSolve));
            }
        }
    }

    #[test]
    fn masked_ticks_hold_window_methods_on_their_last_good_estimate() {
        let d = tiny();
        let ms = methods(&["vardi:w=0.01,window=5", "entropy:lambda=1e3"]);
        // Horizon 0: any unusable row masks its tick immediately, so
        // window methods hold rather than solve on bridged values.
        let mut engine = StreamEngine::for_dataset(&d, &ms, StreamMode::Warm)
            .unwrap()
            .with_impute_horizon(0);
        // A masked row from tick 0 (no clean history to bridge from):
        // vardi's rolling window must not ingest the tick.
        let mut loads = d.interval_loads(0).unwrap();
        loads.link_loads[1] = f64::NAN;
        let t0 = engine.push_interval(loads).unwrap();
        let deg = t0.degradation.expect("masked tick must report");
        assert_eq!(deg.masked_rows, vec![1]);
        assert!(
            t0.estimates[0].is_none(),
            "vardi held with nothing to fall back on"
        );
        assert!(
            t0.estimates[1].as_ref().unwrap().is_ok(),
            "entropy masked-solves"
        );
        assert!(deg
            .methods
            .iter()
            .any(|m| m.label.starts_with("vardi") && m.action == DegradationAction::WarmHeld));
        // Two clean ticks make vardi ready (its window saw only them).
        engine.push_interval(d.interval_loads(1).unwrap()).unwrap();
        let t2 = engine.push_interval(d.interval_loads(2).unwrap()).unwrap();
        let good = t2.estimates[0]
            .as_ref()
            .expect("two clean ticks in window")
            .as_ref()
            .unwrap()
            .clone();
        // A later masked tick: vardi holds, standing on the last good
        // estimate instead of going silent.
        let mut loads = d.interval_loads(3).unwrap();
        loads.link_loads[1] = f64::NAN;
        let tm = engine.push_interval(loads).unwrap();
        let deg = tm.degradation.expect("masked tick must report");
        assert_eq!(deg.masked_rows, vec![1]);
        let held = tm.estimates[0].as_ref().unwrap().as_ref().unwrap();
        assert_eq!(
            held.demands, good.demands,
            "held estimate is the last good one"
        );
    }

    #[test]
    fn conservation_violation_is_reported_but_does_not_mask() {
        let d = tiny();
        let ms = methods(&["gravity"]);
        let mut engine = StreamEngine::for_dataset(&d, &ms, StreamMode::Warm).unwrap();
        let mut loads = d.interval_loads(0).unwrap();
        // Inflate every ingress total 30% past its egress counterpart:
        // rows stay individually plausible, the cross-check trips.
        for v in loads.ingress.iter_mut() {
            *v *= 1.3;
        }
        let tick = engine.push_interval(loads).unwrap();
        let deg = tick.degradation.expect("violated tick must report");
        assert!(!deg.conservation_ok);
        assert!(deg.conservation_residual > 0.05);
        assert!(deg.masked_rows.is_empty() && deg.imputed_rows.is_empty());
        assert!(tick.estimates[0].as_ref().unwrap().is_ok());
    }

    #[test]
    fn faulty_stream_never_errors_and_recovers_after_the_fault_window() {
        // The canonical robustness scenario in miniature: random missing
        // rows plus an outage and a corruption burst. Every tick must
        // produce a report instead of an `Err`, and clean ticks after
        // the last fault must look like clean ticks again.
        let d = tiny();
        let n_links = d.interval_loads(0).unwrap().link_loads.len();
        let plan = LoadFaultPlan::canonical(n_links, 7);
        let ms = methods(&["gravity", "entropy:lambda=1e3", "vardi:w=0.01,window=5"]);
        let mut engine = StreamEngine::for_dataset(&d, &ms, StreamMode::Warm).unwrap();
        for k in 0..20 {
            let mut loads = d.interval_loads(k).unwrap();
            plan.apply(k, &mut loads.link_loads);
            let tick = engine.push_interval(loads).unwrap();
            if plan.affects_tick(k, n_links) {
                assert!(tick.degradation.is_some(), "faulty tick {k} must report");
            }
        }
        // Past every fault window and imputation horizon: clean again.
        let mut clean_streak = 0;
        for k in 20..26 {
            let tick = engine.push_interval(d.interval_loads(k).unwrap()).unwrap();
            if tick.degradation.is_none() {
                clean_streak += 1;
            }
            for (i, est) in tick.estimates.iter().enumerate() {
                assert!(est.as_ref().unwrap().is_ok(), "tick {k} method {i}");
            }
        }
        assert!(clean_streak >= 4, "stream must self-heal after the faults");
    }

    #[test]
    fn wcb_solves_inconsistent_imputed_ticks_instead_of_coasting() {
        // Two clean ticks warm the basis; then the network's load level
        // collapses 20× on the same tick the busiest link's poll is
        // lost. The bridged (full-scale) link value is inconsistent
        // with the moved node totals, so the exact equality LP is
        // infeasible — the scenario that used to quarantine the basis
        // and coast on `last_good` (docs/ROBUSTNESS.md "WCB under
        // imputation"). The relaxed-equality fallback must now produce
        // a fresh estimate instead.
        let d = tiny();
        let ms = methods(&["wcb"]);
        let mut engine = StreamEngine::for_dataset(&d, &ms, StreamMode::Warm).unwrap();
        let mut prev = None;
        for k in 0..2 {
            let tick = engine.push_interval(d.interval_loads(k).unwrap()).unwrap();
            prev = Some(
                tick.estimates[0]
                    .as_ref()
                    .unwrap()
                    .as_ref()
                    .unwrap()
                    .clone(),
            );
        }
        let busiest = d
            .interval_loads(1)
            .unwrap()
            .link_loads
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        let mut loads = d.interval_loads(2).unwrap();
        for v in loads
            .link_loads
            .iter_mut()
            .chain(loads.ingress.iter_mut())
            .chain(loads.egress.iter_mut())
        {
            *v *= 0.05;
        }
        loads.link_loads[busiest] = f64::NAN;
        let tick = engine.push_interval(loads).unwrap();
        let deg = tick.degradation.expect("imputed tick must report");
        assert_eq!(deg.imputed_rows, vec![busiest]);
        let wcb = deg
            .methods
            .iter()
            .find(|m| m.label.starts_with("wcb"))
            .expect("wcb must appear in the report");
        assert_eq!(
            wcb.action,
            DegradationAction::ImputedSolve,
            "wcb must solve the relaxed LP, not coast: {wcb:?}"
        );
        let est = tick.estimates[0]
            .as_ref()
            .expect("ready")
            .as_ref()
            .expect("relaxed fallback must produce an estimate");
        assert_ne!(
            est.demands,
            prev.unwrap().demands,
            "the imputed tick's estimate must be fresh, not the coasted last-good one"
        );
        // The elastic basis is kept for the next infeasible tick, and a
        // checkpoint restore drops it with the exact one.
        assert!(
            carries_elastic(&engine),
            "the relaxed tick's basis is carried"
        );
        let mut restored = StreamEngine::for_dataset(&d, &ms, StreamMode::Warm).unwrap();
        restored.restore(&engine.checkpoint()).unwrap();
        assert!(!carries_elastic(&restored), "restore resets the carry");
        // Every tick retries the exact form first: the next clean tick
        // runs it again and matches a cold solve.
        let t3 = engine.push_interval(d.interval_loads(3).unwrap()).unwrap();
        let got = t3.estimates[0].as_ref().unwrap().as_ref().unwrap();
        let p3 = d.snapshot_problem(3);
        let cold = WcbSolver::from_parts(&p3.measurement_matrix(), &p3.measurements())
            .unwrap()
            .bounds(&mut Workspace::new())
            .unwrap()
            .midpoint();
        let scale = d.snapshot_problem(3).total_traffic();
        for p in 0..got.demands.len() {
            assert!(
                (got.demands[p] - cold.demands[p]).abs() <= 1e-7 * scale,
                "pair {p} after recovery: {} vs {}",
                got.demands[p],
                cold.demands[p]
            );
        }
    }

    #[test]
    fn one_shot_and_warm_wcb_agree_bit_for_bit() {
        // One LP engine: the warm engine's first tick runs the same
        // fresh phase 1 and bound sweep as a one-shot solve of that
        // interval, so the midpoints are the same bits.
        let d = EvalDataset::generate(DatasetSpec::europe(), 42).unwrap();
        let k = d.busy_start;
        let mut warm = StreamEngine::for_dataset(&d, &methods(&["wcb"]), StreamMode::Warm).unwrap();
        let tick = warm.push_interval(d.interval_loads(k).unwrap()).unwrap();
        let got = tick.estimates[0].as_ref().unwrap().as_ref().unwrap();
        let want = WcbEstimator::new()
            .estimate(&d.snapshot_problem(k))
            .unwrap();
        assert_eq!(got.demands.len(), want.demands.len());
        for (p, (g, w)) in got.demands.iter().zip(&want.demands).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "pair {p}: warm {g} vs one-shot {w}"
            );
        }
    }

    #[test]
    fn warm_wcb_carries_and_repairs_the_basis() {
        // The carried-basis path: check the streamed midpoints against
        // per-problem cold bounds.
        let d = tiny();
        let ms = methods(&["wcb"]);
        let mut warm = StreamEngine::for_dataset(&d, &ms, StreamMode::Warm).unwrap();
        let ticks = warm.run(dataset_stream(&d, 0..6).unwrap()).unwrap();
        for (k, tick) in ticks.iter().enumerate() {
            let got = tick.estimates[0].as_ref().unwrap().as_ref().unwrap();
            let pk = d.snapshot_problem(k);
            let cold = WcbSolver::from_parts(&pk.measurement_matrix(), &pk.measurements())
                .unwrap()
                .bounds(&mut Workspace::new())
                .unwrap()
                .midpoint();
            let scale = d.snapshot_problem(k).total_traffic();
            for p in 0..got.demands.len() {
                assert!(
                    (got.demands[p] - cold.demands[p]).abs() <= 1e-7 * scale,
                    "tick {k} pair {p}: {} vs {}",
                    got.demands[p],
                    cold.demands[p]
                );
            }
        }
    }

    /// Tick `k` of the seed-42 Europe day under the canonical fault
    /// plan: the repaired, stacked measurement vector the engine solves,
    /// with the engine whose anchor holds the measurement matrix.
    fn canonical_faulted_tick(k: usize) -> (StreamEngine, Vec<f64>) {
        let seed = 42;
        let d = EvalDataset::generate(DatasetSpec::europe(), seed).unwrap();
        let plan = LoadFaultPlan::canonical(d.topology.n_links(), seed);
        let mut engine =
            StreamEngine::for_dataset(&d, &methods(&["gravity"]), StreamMode::Warm).unwrap();
        for j in 0..=k {
            let mut loads = d.interval_loads(j).unwrap();
            plan.apply(j, &mut loads.link_loads);
            engine.push_interval(loads).unwrap();
        }
        let repaired = engine.history.back().unwrap();
        let mut t = repaired.link_loads.clone();
        if engine.anchor.problem().uses_edge_measurements() {
            t.extend_from_slice(&repaired.ingress);
            t.extend_from_slice(&repaired.egress);
        }
        (engine, t)
    }

    /// The canonical faulted tick the relaxed-form tests share: the
    /// first tick of the corruption burst, whose exact form is
    /// infeasible.
    const FAULTED_TICK: usize = 12;

    #[test]
    fn bounded_band_matches_the_explicit_band_on_every_rung() {
        // The relaxed form as it was first written, `[[A, I, 0],
        // [0, I, I]]` over `(s, u, w)` with right-hand side
        // `(t + σ, 2σ)`, solved by the dense reference tableau, is the
        // oracle for the bounded-variable band `A·s + u = t + σ`,
        // `0 ≤ u ≤ 2σ`: the same feasibility verdict on every ladder
        // rung, and the same bounds on every feasible one.
        use crate::wcb::{RelaxedBand, RELAXED_SLACK_LADDER};
        use tm_linalg::Csr;
        use tm_opt::simplex::SimplexSolver;
        let (engine, t) = canonical_faulted_tick(FAULTED_TICK);
        let a = engine.anchor.matrix();
        assert!(
            matches!(
                WcbSolver::from_parts(a, &t),
                Err(EstimationError::Opt(OptError::Infeasible { .. }))
            ),
            "the tick's exact form must be infeasible"
        );
        let (m, n) = (a.rows(), a.cols());
        let mut trips = Vec::with_capacity(a.nnz() + 3 * m);
        for i in 0..m {
            let (idx, val) = a.row(i);
            for (&j, &v) in idx.iter().zip(val) {
                trips.push((i, j, v));
            }
            trips.push((i, n + i, 1.0));
            trips.push((m + i, n + i, 1.0));
            trips.push((m + i, n + m + i, 1.0));
        }
        let explicit = Csr::from_triplets(2 * m, n + 2 * m, trips).unwrap();
        let positive: Vec<f64> = t.iter().copied().filter(|&v| v > 0.0).collect();
        let t_bar = positive.iter().sum::<f64>() / positive.len() as f64;
        let scale = t.iter().fold(0.0f64, |acc, &v| acc.max(v.abs()));
        let band = RelaxedBand::new(a).unwrap();
        let mut verdicts = Vec::new();
        for (rung, &slack) in RELAXED_SLACK_LADDER.iter().enumerate() {
            let sigma: Vec<f64> = t.iter().map(|&ti| slack * ti.max(t_bar)).collect();
            let mut rhs: Vec<f64> = t.iter().zip(&sigma).map(|(ti, s)| ti + s).collect();
            rhs.extend(sigma.iter().map(|s| 2.0 * s));
            let dense = match SimplexSolver::new_sparse(&explicit, &rhs) {
                Ok(solver) => Some(solver),
                Err(OptError::Infeasible { .. }) => None,
                Err(e) => panic!("rung {rung}: reference phase 1 failed: {e}"),
            };
            let bounded = band.phase1(&t, rung).unwrap();
            assert_eq!(
                dense.is_some(),
                bounded.is_some(),
                "rung {rung}: feasibility of the explicit vs the bounded band"
            );
            verdicts.push(bounded.is_some());
            let (Some(mut dense), Some(bounded)) = (dense, bounded) else {
                continue;
            };
            assert_eq!(bounded.slack_rel(), Some(slack));
            let got = bounded.bounds(&mut Workspace::new()).unwrap();
            let mut c = vec![0.0; n + 2 * m];
            for p in 0..n {
                c[p] = 1.0;
                let upper = dense.maximize(&c).unwrap().objective;
                let lower = dense.minimize(&c).unwrap().objective.max(0.0);
                c[p] = 0.0;
                assert!(
                    (lower - got.lower[p]).abs() <= 1e-9 * scale
                        && (upper.max(lower) - got.upper[p]).abs() <= 1e-9 * scale,
                    "rung {rung} pair {p}: explicit [{lower}, {upper}] vs bounded [{}, {}]",
                    got.lower[p],
                    got.upper[p]
                );
            }
        }
        assert!(
            verdicts.contains(&false) && verdicts.contains(&true),
            "the tick must exercise both verdicts: {verdicts:?}"
        );
    }

    #[test]
    fn faulted_europe_sweep_cost_is_pinned() {
        // The relaxed sweep of the canonical faulted tick from a fresh
        // ladder climb. Like Fig. 8's clean sweep, its pivot path —
        // pivots, bound flips and refactorizations — is pinned, so a
        // change to the bounded-variable ratio test or pricing shows.
        let (engine, t) = canonical_faulted_tick(FAULTED_TICK);
        let (solver, slack) = WcbSolver::from_parts_relaxed(engine.anchor.matrix(), &t).unwrap();
        let b = solver.bounds(&mut Workspace::new()).unwrap();
        assert_eq!(slack, 1.6e-2, "rung of the faulted tick");
        assert_eq!(b.total_pivots, 1961, "pivots of the faulted sweep");
        assert_eq!(b.bound_flips, 9, "bound flips of the faulted sweep");
        assert_eq!(b.refactors, 75, "refactorizations of the faulted sweep");
    }

    /// Whether the engine's first slot, a WCB slot, carries an elastic
    /// basis into its next tick.
    fn carries_elastic(engine: &StreamEngine) -> bool {
        matches!(&engine.methods[0].state, MethodState::Wcb(c) if c.elastic.is_some())
    }

    #[test]
    fn carried_elastic_basis_lands_on_the_fresh_ladder_rung() {
        // Canonical-plan Europe ticks covering the outage (ticks 6–8)
        // and the corruption burst (ticks 12–14). On every relaxed tick
        // — the exact form infeasible, so the carried elastic path ran —
        // the rung must be the one `WcbSolver::from_parts_relaxed`'s
        // fresh ladder picks, and the bounds must match the fresh
        // solver's to LP tolerance.
        let seed = 42;
        let d = EvalDataset::generate(DatasetSpec::europe(), seed).unwrap();
        let plan = LoadFaultPlan::canonical(d.topology.n_links(), seed);
        let mut engine =
            StreamEngine::for_dataset(&d, &methods(&["wcb"]), StreamMode::Warm).unwrap();
        let mut relaxed = Vec::new();
        for k in 5..15 {
            let carried_in = carries_elastic(&engine);
            let mut loads = d.interval_loads(k).unwrap();
            plan.apply(k, &mut loads.link_loads);
            let tick = engine.push_interval(loads).unwrap();
            let MethodState::Wcb(carry) = &engine.methods[0].state else {
                unreachable!("the only slot is wcb")
            };
            let masked = tick
                .degradation
                .as_ref()
                .is_some_and(|g| !g.masked_rows.is_empty());
            if masked || carry.exact.is_some() {
                continue;
            }
            relaxed.push((k, carried_in));
            let elastic = carry
                .elastic
                .as_ref()
                .expect("a relaxed tick keeps its basis");
            // The tick's repaired loads, stacked as the engine solved them.
            let repaired = engine.history.back().unwrap();
            let mut t = repaired.link_loads.clone();
            if engine.anchor.problem().uses_edge_measurements() {
                t.extend_from_slice(&repaired.ingress);
                t.extend_from_slice(&repaired.egress);
            }
            let (fresh, slack) = WcbSolver::from_parts_relaxed(engine.anchor.matrix(), &t).unwrap();
            assert_eq!(
                elastic.slack_rel(),
                Some(slack),
                "tick {k}: carried rung vs the fresh ladder"
            );
            let got = elastic.bounds(&mut Workspace::new()).unwrap();
            let want = fresh.bounds(&mut Workspace::new()).unwrap();
            let est = tick.estimates[0].as_ref().unwrap().as_ref().unwrap();
            assert_eq!(
                est.demands,
                got.midpoint().demands,
                "tick {k}: the estimate is the carried solver's midpoint"
            );
            let scale = t.iter().fold(0.0f64, |a, &v| a.max(v.abs()));
            for p in 0..want.lower.len() {
                assert!(
                    (got.lower[p] - want.lower[p]).abs() <= 1e-7 * scale
                        && (got.upper[p] - want.upper[p]).abs() <= 1e-7 * scale,
                    "tick {k} pair {p}: carried [{}, {}] vs fresh [{}, {}]",
                    got.lower[p],
                    got.upper[p],
                    want.lower[p],
                    want.upper[p]
                );
            }
        }
        for k in [6, 7, 8, 12, 13, 14] {
            assert!(
                relaxed.iter().any(|&(r, _)| r == k),
                "tick {k} must take the relaxed path: {relaxed:?}"
            );
        }
        assert!(
            relaxed.iter().filter(|&&(_, carried)| carried).count() + 1 >= relaxed.len(),
            "every relaxed tick after the first starts from the carried basis: {relaxed:?}"
        );
    }
}
