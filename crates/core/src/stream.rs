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
//! ticks. Each method's carry lives in the method's own module, next to
//! its estimator, behind one crate-private `WarmMethod` trait:
//!
//! * **rolling fanout windows** — `fanout::FanoutRolling` keeps a
//!   [`FanoutWindowStats`](crate::fanout::FanoutWindowStats) updated in
//!   `O(N² + nnz)` per tick (add the entering interval, subtract the
//!   leaving one) instead of re-aggregated per window;
//! * **running second-moment accumulators** —
//!   `covariance::RollingMoments` keeps `Σt` and the `Σ tᵢtⱼ` products
//!   of the Vardi/Cao covariance rows, so the sample moments of a
//!   `K`-interval window cost `O(rows)` per tick instead of `O(K·rows)`;
//! * **previous-interval warm starts** — entropy, Bayes and
//!   Kruithof-full re-solve from the last interval's solution
//!   (spectral step, active set and GIS multipliers respectively);
//! * **the WCB bases carried forward** — `wcb::WcbCarry` re-anchors one
//!   revised-simplex basis per tick via
//!   [`WcbSolver::rebase`](crate::wcb::WcbSolver::rebase) (with its
//!   dual-repair fallback) instead of a fresh phase 1 per interval;
//!   ticks whose exact LP is infeasible carry a second, relaxed-form
//!   basis with its slack rung the same way.
//!
//! A `WarmMethod` solves a clean or imputed tick, names the cold
//! estimator a masked tick runs on the reduced row view (or holds),
//! reports its solver's convergence, drops its carried solver state on
//! quarantine, and writes and reads its own checkpoint payload. Methods
//! with nothing to carry (gravity, Kruithof-marginals, and every method
//! in cold mode) share one `Plain` implementation over the boxed
//! registry estimator. The engine keeps only what all methods share:
//! the degradation ladder, the interval history, and the per-tick
//! snapshot and window systems, built lazily once per tick. A new
//! method therefore plugs in through its own module (the estimator
//! plus, if it carries state, its `WarmMethod`) and one arm of the
//! [`Method`] builder; this module does not change.
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
use tm_opt::Convergence;
use tm_traffic::{EvalDataset, IntervalLoads};

use crate::checkpoint::{EngineCheckpoint, MethodCkpt, CHECKPOINT_VERSION};
use crate::error::EstimationError;
use crate::measure::{LoadQuality, QualityOptions};
use crate::method::Method;
use crate::problem::{Estimate, EstimationProblem, Estimator, TimeSeriesData};
use crate::system::MeasurementSystem;
use crate::Result;

/// Ticks between exact recomputations of the rolling aggregates from
/// their window buffer (bounds floating-point drift of the
/// add/subtract updates; the refresh is `O(K·size)`, amortized to
/// noise).
pub(crate) const ROLLING_REFRESH_TICKS: usize = 128;

/// Ticks a missing/suspect row may be bridged from its last clean value
/// before it is masked out of the system instead.
const DEFAULT_IMPUTE_HORIZON: usize = 3;

/// A method whose demand total exceeds this multiple of the tick's
/// total ingress traffic is treated as diverged: its carried state is
/// quarantined and the estimate replaced by the last good one.
const DIVERGENCE_FACTOR: f64 = 10.0;

/// Whether a [`StreamEngine`] carries per-method state across ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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
// `{"kind": ..}` objects.
impl Serialize for DegradationAction {
    fn to_value(&self) -> Value {
        match self {
            DegradationAction::CleanSolve => Value::tagged("clean_solve", &[]),
            DegradationAction::ImputedSolve => Value::tagged("imputed_solve", &[]),
            DegradationAction::MaskedSolve => Value::tagged("masked_solve", &[]),
            DegradationAction::WarmHeld => Value::tagged("warm_held", &[]),
            DegradationAction::FallbackLastGood => Value::tagged("fallback_last_good", &[]),
            DegradationAction::PanicCaught { message } => {
                Value::tagged("panic_caught", &[("message", message)])
            }
        }
    }
}

impl Deserialize for DegradationAction {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        match v.kind()? {
            "clean_solve" => Ok(DegradationAction::CleanSolve),
            "imputed_solve" => Ok(DegradationAction::ImputedSolve),
            "masked_solve" => Ok(DegradationAction::MaskedSolve),
            "warm_held" => Ok(DegradationAction::WarmHeld),
            "fallback_last_good" => Ok(DegradationAction::FallbackLastGood),
            "panic_caught" => Ok(DegradationAction::PanicCaught {
                message: String::from_value(v.field("message")?)?,
            }),
            other => Err(DeError(format!("unknown DegradationAction kind `{other}`"))),
        }
    }
}

impl Serialize for QuarantineReason {
    fn to_value(&self) -> Value {
        match self {
            QuarantineReason::NonFinite => Value::tagged("non_finite", &[]),
            QuarantineReason::BudgetCapped {
                achieved_tol,
                iters,
            } => Value::tagged(
                "budget_capped",
                &[("achieved_tol", achieved_tol), ("iters", iters)],
            ),
            QuarantineReason::SolverError { message } => {
                Value::tagged("solver_error", &[("message", message)])
            }
            QuarantineReason::Diverged { factor } => {
                Value::tagged("diverged", &[("factor", factor)])
            }
        }
    }
}

impl Deserialize for QuarantineReason {
    fn from_value(v: &Value) -> std::result::Result<Self, DeError> {
        match v.kind()? {
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

/// One method's streaming state: the estimator plus whatever it carries
/// across ticks. Each estimator module implements it next to its
/// estimator; [`Method`] builds the boxed state from its config.
pub(crate) trait WarmMethod: Send + Sync {
    /// Solve a clean or imputed tick. A window method pushes the tick
    /// into its rolling window and returns `None` until the window is
    /// long enough to estimate from.
    fn solve(&mut self, tick: &mut Tick<'_>) -> Option<Result<Estimate>>;

    /// The cold estimator a masked tick runs on the reduced row view
    /// ([`MeasurementSystem::masked_view`]); `None`, the default for
    /// window methods (a masked tick never enters a window), holds the
    /// method on its last good estimate. The carried state is sized for
    /// the full row set and is left untouched either way.
    fn snapshot(&self) -> Option<&dyn Estimator> {
        None
    }

    /// The convergence report of the warm solver that produced the last
    /// estimate, where one is tracked.
    fn convergence(&self) -> Option<Convergence> {
        None
    }

    /// Quarantine: drop the carried solver state (warm starts, simplex
    /// bases) so the next tick restarts from cold. Rolling data windows
    /// are kept — they hold measured inputs, not solver iterates.
    fn reset(&mut self) {}

    /// The carried state as a `{"kind": …}` checkpoint payload (see
    /// [`crate::checkpoint`]).
    fn checkpoint(&self) -> Value;

    /// Install a payload written by [`WarmMethod::checkpoint`] into this
    /// freshly built state. A window method rebuilds the intervals it
    /// buffered from the checkpoint's `history`.
    fn restore(&mut self, v: &Value, history: &History<'_>) -> std::result::Result<(), DeError>;

    /// The WCB carry, for the tests that inspect its bases.
    #[cfg(test)]
    fn wcb(&self) -> Option<&crate::wcb::WcbCarry> {
        None
    }
}

/// One tick's inputs, shared by every method's [`WarmMethod::solve`].
/// The snapshot and window systems are re-anchored lazily, at most once
/// per tick (and window length), and serve every method that asks.
pub(crate) struct Tick<'a> {
    /// The day's shared system: the routing pattern and matrix caches.
    pub(crate) anchor: &'a MeasurementSystem<'static>,
    /// The most recent clean or bridged intervals, this one at the back.
    pub(crate) history: &'a VecDeque<IntervalLoads>,
    /// This tick's repaired loads.
    pub(crate) current: &'a IntervalLoads,
    /// This tick's stacked measurement vector.
    pub(crate) t: &'a [f64],
    /// The engine's workspace pool.
    pub(crate) ws: &'a mut Workspace,
    snapshot: Option<MeasurementSystem<'static>>,
    windows: Vec<(usize, MeasurementSystem<'static>)>,
}

impl Tick<'_> {
    /// The tick's snapshot system, with the workspace.
    pub(crate) fn snapshot_system(
        &mut self,
    ) -> Result<(&MeasurementSystem<'static>, &mut Workspace)> {
        if self.snapshot.is_none() {
            self.snapshot = Some(self.anchor.reanchor(self.problem(self.current)?)?);
        }
        Ok((self.snapshot.as_ref().expect("built above"), &mut *self.ws))
    }

    /// The system over the trailing `len` intervals of the history,
    /// with the workspace.
    pub(crate) fn window_system(
        &mut self,
        len: usize,
    ) -> Result<(&MeasurementSystem<'static>, &mut Workspace)> {
        if !self.windows.iter().any(|(l, _)| *l == len) {
            let window = self.history.range(self.history.len() - len..);
            let ts = TimeSeriesData {
                link_loads: window.clone().map(|l| l.link_loads.clone()).collect(),
                ingress: window.clone().map(|l| l.ingress.clone()).collect(),
                egress: window.map(|l| l.egress.clone()).collect(),
            };
            let current = self.history.back().expect("nonempty history");
            let problem = self.problem(current)?.with_time_series(ts)?;
            self.windows.push((len, self.anchor.reanchor(problem)?));
        }
        let sys = self
            .windows
            .iter()
            .find(|(l, _)| *l == len)
            .map(|(_, sys)| sys)
            .expect("built above");
        Ok((sys, &mut *self.ws))
    }

    /// The snapshot problem of `loads`: the anchor's routing pattern,
    /// peering roles and edge flag with the tick's load values — exactly
    /// what `DatasetExt::snapshot_problem` builds (minus the ground
    /// truth no estimator reads).
    fn problem(&self, loads: &IntervalLoads) -> Result<EstimationProblem> {
        let p = self.anchor.problem();
        Ok(EstimationProblem::new(
            p.routing().clone(),
            loads.link_loads.clone(),
            loads.ingress.clone(),
            loads.egress.clone(),
        )?
        .with_peering(p.peering().to_vec())?
        .with_edge_measurements(p.uses_edge_measurements()))
    }

    /// One cold estimate by `est` on the masked row view of the
    /// snapshot system.
    fn masked_solve(&mut self, est: &dyn Estimator, usable: &[usize]) -> Result<Estimate> {
        let (sys, ws) = self.snapshot_system()?;
        est.estimate_system(&sys.masked_view(usable)?, ws)
    }
}

/// The interval history a restore hands each method: the intervals a
/// window method buffered are the trailing entries of the engine's
/// history — the same repaired loads, pushed on the same ticks — so a
/// checkpoint stores them once, there.
pub(crate) struct History<'a> {
    /// The day's shared system.
    pub(crate) anchor: &'a MeasurementSystem<'static>,
    /// The checkpoint's intervals, oldest first.
    intervals: &'a [IntervalLoads],
}

impl History<'_> {
    /// The trailing `len` intervals with their stacked measurement
    /// vectors, oldest first, for a window of length `window`; an error
    /// when `len` exceeds the window or the history.
    pub(crate) fn window(
        &self,
        len: usize,
        window: usize,
    ) -> std::result::Result<impl Iterator<Item = (&IntervalLoads, Vec<f64>)>, DeError> {
        if len > window {
            return Err(DeError(format!(
                "window length {len} exceeds the window of {window}"
            )));
        }
        let start = self.intervals.len().checked_sub(len).ok_or_else(|| {
            DeError(format!(
                "window length {len} exceeds the history of {}",
                self.intervals.len()
            ))
        })?;
        Ok(self.intervals[start..]
            .iter()
            .map(|loads| (loads, stacked(self.anchor, loads))))
    }
}

/// The stacked measurement vector of `loads`: the link loads, then the
/// ingress and egress totals when `anchor` stacks edge rows.
fn stacked(anchor: &MeasurementSystem<'_>, loads: &IntervalLoads) -> Vec<f64> {
    let mut t = loads.link_loads.clone();
    if anchor.problem().uses_edge_measurements() {
        t.extend_from_slice(&loads.ingress);
        t.extend_from_slice(&loads.egress);
    }
    t
}

/// The state of a method with nothing to carry — gravity,
/// Kruithof-marginals, and every method in cold mode: the boxed
/// registry estimator, run from scratch on the snapshot system or, for
/// a time-series method, on the trailing window.
pub(crate) struct Plain {
    est: Box<dyn Estimator + Send + Sync>,
    /// Window length of a time-series method (`None` for a snapshot
    /// method).
    window: Option<usize>,
    /// History length before the method can produce output.
    min_window: usize,
}

impl Plain {
    /// The plain state of `method`.
    pub(crate) fn new(method: &Method) -> Self {
        Plain {
            est: method.build(),
            window: method.window(),
            min_window: method.min_window(),
        }
    }
}

impl WarmMethod for Plain {
    fn solve(&mut self, tick: &mut Tick<'_>) -> Option<Result<Estimate>> {
        let sys = match self.window {
            None => tick.snapshot_system(),
            Some(_) if tick.history.len() < self.min_window => return None,
            Some(w) => tick.window_system(w.min(tick.history.len())),
        };
        Some(sys.and_then(|(sys, ws)| self.est.estimate_system(sys, ws)))
    }

    fn snapshot(&self) -> Option<&dyn Estimator> {
        self.window
            .is_none()
            .then(|| self.est.as_ref() as &dyn Estimator)
    }

    fn checkpoint(&self) -> Value {
        Value::tagged("plain", &[])
    }

    fn restore(&mut self, v: &Value, _: &History<'_>) -> std::result::Result<(), DeError> {
        v.expect_kind("plain")
    }
}

/// One method registered with the engine.
struct MethodSlot {
    label: String,
    /// The registry spec: a restore or a caught panic rebuilds the
    /// state from it.
    method: Method,
    state: Box<dyn WarmMethod>,
}

/// The streaming interval engine — see the [module docs](self).
pub struct StreamEngine {
    anchor: MeasurementSystem<'static>,
    mode: StreamMode,
    methods: Vec<MethodSlot>,
    /// The most recent `max_window` intervals (newest at the back).
    history: VecDeque<IntervalLoads>,
    max_window: usize,
    ws: Workspace,
    ticks: usize,
    /// Last clean value per extended row [links | ingress | egress].
    last_clean: Vec<Option<f64>>,
    /// Consecutive unusable ticks per extended row.
    gap: Vec<usize>,
    /// Most recent successful estimate per method (the fallback rung).
    last_good: Vec<Option<Estimate>>,
}

// The engine is `Send + Sync`, so callers may move it to a worker
// thread or share it behind an `Arc`; this fails to build if a field
// loses either.
const _: () = {
    fn assert_send_sync<T: Send + Sync>() {}
    let _ = assert_send_sync::<StreamEngine>;
};

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
            if let Some(w) = m.window().filter(|&w| w < m.min_window()) {
                return Err(EstimationError::InvalidProblem(format!(
                    "stream engine: `{}` needs a window of at least {} intervals (got {w})",
                    m.label(),
                    m.min_window()
                )));
            }
        }
        let system = MeasurementSystem::new(anchor);
        let slots: Vec<MethodSlot> = methods
            .iter()
            .map(|m| MethodSlot {
                label: m.label(),
                method: m.clone(),
                state: m.stream_state(&system, mode),
            })
            .collect();
        let max_window = methods.iter().filter_map(Method::window).max().unwrap_or(1);
        let ext_rows = system.problem().n_links() + 2 * system.problem().n_nodes();
        Ok(StreamEngine {
            anchor: system,
            mode,
            methods: slots,
            history: VecDeque::with_capacity(max_window),
            max_window,
            ws: Workspace::new(),
            ticks: 0,
            last_clean: vec![None; ext_rows],
            gap: vec![0; ext_rows],
            last_good: vec![None; methods.len()],
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
        let q = LoadQuality::assess(
            &loads.link_loads,
            &loads.ingress,
            &loads.egress,
            &QualityOptions::default(),
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
        let rows = (repaired.link_loads.iter_mut().zip(&q.links))
            .chain(repaired.ingress.iter_mut().zip(&q.ingress))
            .chain(repaired.egress.iter_mut().zip(&q.egress));
        for (ext, (value, quality)) in rows.enumerate() {
            if quality.is_usable() {
                self.last_clean[ext] = Some(*value);
                self.gap[ext] = 0;
                continue;
            }
            self.gap[ext] += 1;
            match self.last_clean[ext] {
                Some(held) if self.gap[ext] <= DEFAULT_IMPUTE_HORIZON => {
                    *value = held;
                    imputed_ext.push(ext);
                }
                held => {
                    *value = held.unwrap_or(0.0);
                    masked_ext.push(ext);
                }
            }
        }

        // Extended index == stacked row index when edge rows are
        // stacked; otherwise only link rows are in the system.
        let to_stacked = |ext: usize| (ext < n_links || use_edge).then_some(ext);
        let masked_rows: Vec<usize> = masked_ext.iter().copied().filter_map(to_stacked).collect();
        let imputed_rows: Vec<usize> = imputed_ext.iter().copied().filter_map(to_stacked).collect();
        // On a clean tick the ladder never engages; a masked tick (rows
        // past the imputation horizon) solves snapshot methods on the
        // reduced row view and holds window methods.
        let degraded_input = !(masked_ext.is_empty() && imputed_ext.is_empty());
        let masked_tick = !masked_rows.is_empty();

        let t_stacked = stacked(&self.anchor, &repaired);
        let usable_rows: Vec<usize> = if masked_tick {
            (0..t_stacked.len())
                .filter(|r| masked_rows.binary_search(r).is_err())
                .collect()
        } else {
            Vec::new()
        };

        // Divergence reference: total repaired ingress (≈ total
        // demand), falling back to the stacked total.
        let ingress: f64 = repaired.ingress.iter().sum();
        let total_ref = if ingress > 0.0 {
            ingress
        } else {
            t_stacked.iter().sum()
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

        let interval = self.ticks;
        self.ticks += 1;
        let mode = self.mode;

        let StreamEngine {
            anchor,
            methods,
            history,
            ws,
            last_good,
            ..
        } = self;
        let mut tick = Tick {
            anchor,
            history,
            current: &repaired,
            t: &t_stacked,
            ws,
            snapshot: None,
            windows: Vec::new(),
        };

        let mut estimates = Vec::with_capacity(methods.len());
        let mut solve_ns = Vec::with_capacity(methods.len());
        let mut method_reports: Vec<MethodDegradation> = Vec::new();
        for (i, slot) in methods.iter_mut().enumerate() {
            let started = std::time::Instant::now();
            let solved = catch_unwind(AssertUnwindSafe(|| {
                if masked_tick {
                    return match slot.state.snapshot() {
                        Some(est) => (
                            Some(tick.masked_solve(est, &usable_rows)),
                            Some(DegradationAction::MaskedSolve),
                        ),
                        None => (None, Some(DegradationAction::WarmHeld)),
                    };
                }
                let out = slot.state.solve(&mut tick);
                let action =
                    (degraded_input && out.is_some()).then_some(DegradationAction::ImputedSolve);
                (out, action)
            }));
            solve_ns.push(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
            let (mut out, mut action) = match solved {
                Ok(v) => v,
                Err(payload) => {
                    // A panic may have torn the carried state mid-update:
                    // rebuild the whole slot (windows included) from cold.
                    slot.state = slot.method.stream_state(tick.anchor, mode);
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
            let panicked = matches!(action, Some(DegradationAction::PanicCaught { .. }));
            let quarantine = if degraded_input && !panicked {
                quarantine_reason(&out, slot.state.convergence(), total_ref)
            } else {
                None
            };
            if let Some(reason) = &quarantine {
                // Self-healing: drop the suspect carried solver state so
                // the next tick restarts from cold.
                slot.state.reset();
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
        EngineCheckpoint {
            version: CHECKPOINT_VERSION,
            warm: self.mode == StreamMode::Warm,
            ticks: self.ticks,
            history: self.history.iter().cloned().collect(),
            last_clean: self.last_clean.clone(),
            gap: self.gap.clone(),
            last_good: self.last_good.clone(),
            methods: self
                .methods
                .iter()
                .map(|slot| MethodCkpt {
                    label: slot.label.clone(),
                    state: slot.state.checkpoint(),
                })
                .collect(),
        }
    }

    /// Install a checkpoint taken from an identically configured
    /// engine (same problem, method roster and mode), replacing this
    /// engine's mutable state. Estimator configurations and matrix
    /// caches are untouched — they are pure functions of the
    /// configuration. Every method payload is decoded into a freshly
    /// built state before anything is installed, so on any
    /// roster/mode/dimension mismatch or malformed payload the error
    /// leaves the engine exactly as it was.
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
        if ckpt.methods.len() != self.methods.len() {
            return Err(invalid(format!(
                "checkpoint has {} methods, engine has {}",
                ckpt.methods.len(),
                self.methods.len()
            )));
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
        let history = History {
            anchor: &self.anchor,
            intervals: &ckpt.history,
        };
        let mut states = Vec::with_capacity(self.methods.len());
        for (slot, m) in self.methods.iter().zip(&ckpt.methods) {
            if slot.label != m.label {
                return Err(invalid(format!(
                    "method label `{}` vs checkpoint `{}`",
                    slot.label, m.label
                )));
            }
            let mut state = slot.method.stream_state(&self.anchor, self.mode);
            state
                .restore(&m.state, &history)
                .map_err(|e| invalid(format!("method `{}`: {e}", slot.label)))?;
            states.push(state);
        }
        for (slot, state) in self.methods.iter_mut().zip(states) {
            slot.state = state;
        }
        self.ticks = ckpt.ticks;
        self.history = ckpt.history.iter().cloned().collect();
        self.last_clean = ckpt.last_clean.clone();
        self.gap = ckpt.gap.clone();
        self.last_good = ckpt.last_good.clone();
        Ok(())
    }
}

/// Why a method's outcome on a degraded tick quarantines its carried
/// state, if it does: a solver error, a non-finite estimate, a demand
/// total past `DIVERGENCE_FACTOR` times the tick's total traffic
/// `total_ref`, or a warm solve that hit its budget (`conv`).
fn quarantine_reason(
    out: &Option<Result<Estimate>>,
    conv: Option<Convergence>,
    total_ref: f64,
) -> Option<QuarantineReason> {
    let est = match out {
        Some(Ok(est)) => est,
        Some(Err(e)) => {
            return Some(QuarantineReason::SolverError {
                message: e.to_string(),
            })
        }
        None => return None,
    };
    if !est.demands.iter().all(|v| v.is_finite()) {
        return Some(QuarantineReason::NonFinite);
    }
    let factor = est.demands.iter().sum::<f64>() / total_ref.max(1.0);
    if total_ref > 0.0 && factor > DIVERGENCE_FACTOR {
        return Some(QuarantineReason::Diverged { factor });
    }
    conv.filter(|c| !c.converged)
        .map(|c| QuarantineReason::BudgetCapped {
            achieved_tol: c.achieved_tol,
            iters: c.iters,
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::covariance::RollingMoments;
    use crate::fanout::{FanoutRolling, FanoutWindowStats};
    use crate::measure::LoadFaultPlan;
    use crate::method::MethodConfig;
    use crate::metrics::{mean_relative_error, CoverageThreshold};
    use crate::problem::DatasetExt;
    use crate::wcb::{worst_case_bounds, WcbEstimator, WcbSolver};
    use tm_opt::OptError;
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
        let window = 4usize;
        let mut rolling = FanoutRolling::new(window, sys.problem());
        for k in 0..10 {
            let loads = d.interval_loads(k).unwrap();
            let t = d.snapshot_problem(k).measurements();
            rolling.push(&loads, sys.matrix(), &t);
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
        let mut engine = StreamEngine::for_dataset(&d, &ms, StreamMode::Warm).unwrap();
        engine.push_interval(d.interval_loads(0).unwrap()).unwrap();
        for k in 1..=DEFAULT_IMPUTE_HORIZON + 2 {
            let mut loads = d.interval_loads(k).unwrap();
            loads.link_loads[0] = f64::NAN;
            let tick = engine.push_interval(loads).unwrap();
            let deg = tick.degradation.expect("faulty tick must report");
            if k <= DEFAULT_IMPUTE_HORIZON {
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
        let mut engine = StreamEngine::for_dataset(&d, &ms, StreamMode::Warm).unwrap();
        // A masked row from tick 0 (no clean history to bridge from, so
        // it masks at once): vardi's rolling window must not ingest the
        // tick.
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
        let mut good = t2.estimates[0]
            .as_ref()
            .expect("two clean ticks in window")
            .as_ref()
            .unwrap()
            .clone();
        // A later gap in the same row is bridged up to the horizon, and
        // vardi solves on the bridged values.
        let masked_at = 3 + DEFAULT_IMPUTE_HORIZON;
        for k in 3..masked_at {
            let mut loads = d.interval_loads(k).unwrap();
            loads.link_loads[1] = f64::NAN;
            let tick = engine.push_interval(loads).unwrap();
            let deg = tick.degradation.expect("imputed tick must report");
            assert_eq!(deg.imputed_rows, vec![1], "tick {k} inside horizon");
            good = tick.estimates[0]
                .as_ref()
                .unwrap()
                .as_ref()
                .unwrap()
                .clone();
        }
        // Past the horizon the tick is masked: vardi holds, standing on
        // the last good estimate instead of going silent.
        let mut loads = d.interval_loads(masked_at).unwrap();
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
        wcb_carry(engine).elastic.is_some()
    }

    /// The carry of the engine's first slot, a WCB slot.
    fn wcb_carry(engine: &StreamEngine) -> &crate::wcb::WcbCarry {
        engine.methods[0].state.wcb().expect("the slot is wcb")
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
            let carry = wcb_carry(&engine);
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
