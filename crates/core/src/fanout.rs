//! Fanout estimation from a link-load time series (paper §4.2.4).
//!
//! Motivated by the observation (§5.2.2) that fanouts `α_nm = s_nm/t_e(n)`
//! are far more stable over time than the demands themselves, the method
//! assumes *constant* fanouts over a `K`-interval window and solves
//!
//! ```text
//! minimize   Σ_k ‖A·S[k]·α − t[k]‖²
//! subject to Σ_m α_nm = 1   for every source n
//! ```
//!
//! with `S[k] = diag(t_e(src(p))[k])`. The system becomes overdetermined
//! already for window length 3 (Fig. 10), and the equality-constrained QP
//! has a closed-form KKT solution. Negative components (rare) are clipped
//! and renormalized per source.
//!
//! **Deviation from the bare paper formulation:** during a busy-hour
//! window the per-source ingress trajectories are nearly collinear, so
//! the stacked system can be far from full column rank; a plain
//! least-squares solution then fills the null space arbitrarily. We add
//! a small Tikhonov pull toward the *gravity fanout* prior
//! (`prior_weight`, dimensionless, relative to the Hessian scale) so
//! unidentified directions default to gravity instead of noise. Set
//! `prior_weight` to ~0 to recover the paper's exact formulation.

use std::collections::VecDeque;

use serde::{DeError, Deserialize, Serialize, Value};
use tm_linalg::{Csr, Workspace};
use tm_opt::qp::{self, SumConstraints};
use tm_traffic::IntervalLoads;

use crate::error::EstimationError;
use crate::problem::{Estimate, EstimationProblem, Estimator};
use crate::stream::{History, Tick, WarmMethod, ROLLING_REFRESH_TICKS};
use crate::system::MeasurementSystem;
use crate::Result;

/// Below this many OD pairs the streaming path solves the fanout QP by
/// one direct dense KKT factorization (projected CG pays hundreds of
/// sparse matvecs per tick for the same unique minimizer at that
/// size); the cold path always uses the sparse CG solver.
pub const DENSE_KKT_PAIRS: usize = 256;

/// Constant-fanout time-series estimator.
#[derive(Debug, Clone)]
pub struct FanoutEstimator {
    /// Relative weight of the pull toward the gravity-fanout prior.
    prior_weight: f64,
}

impl Default for FanoutEstimator {
    fn default() -> Self {
        FanoutEstimator { prior_weight: 1e-3 }
    }
}

impl FanoutEstimator {
    /// Create with default settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override the prior pull (0 disables it; a tiny numerical ridge
    /// remains so the KKT system stays solvable).
    pub fn with_prior_weight(mut self, w: f64) -> Self {
        self.prior_weight = w.max(0.0);
        self
    }

    /// Estimated fanouts and the implied mean demands over the window
    /// (compatibility wrapper that prepares a throwaway system).
    pub fn estimate(&self, problem: &EstimationProblem) -> Result<FanoutEstimate> {
        self.estimate_prepared(&MeasurementSystem::prepare(problem), &mut Workspace::new())
    }

    /// [`FanoutEstimator::estimate`] from a prepared system, reusing
    /// its cached measurement matrix and Gram `AᵀA` — the by-far
    /// largest per-problem precomputation, identical for every interval
    /// of one routing pattern (a [`MeasurementSystem::reanchor`]ed view
    /// shares it).
    pub fn estimate_prepared(
        &self,
        sys: &MeasurementSystem<'_>,
        ws: &mut Workspace,
    ) -> Result<FanoutEstimate> {
        let stats = FanoutWindowStats::from_series(sys)?;
        self.solve_from_stats(sys, &stats, ws, false)
    }

    /// Estimate directly from precomputed raw window aggregates — the
    /// incremental entry point a streaming engine feeds from its
    /// rolling sums, updated in `O(N² + nnz)` per tick instead of
    /// recomputed per window. Aggregates built by
    /// [`FanoutWindowStats::from_series`] describe the same normal
    /// equations as the cold path of
    /// [`FanoutEstimator::estimate_prepared`] (identical up to
    /// floating-point rounding of the re-ordered sums); at moderate
    /// scale
    /// (≤ [`DENSE_KKT_PAIRS`] pairs) the equality-constrained QP is
    /// solved by one direct dense KKT factorization instead of
    /// projected CG — the same unique minimizer, at a fraction of the
    /// per-tick cost.
    pub fn estimate_from_stats(
        &self,
        sys: &MeasurementSystem<'_>,
        stats: &FanoutWindowStats,
        ws: &mut Workspace,
    ) -> Result<FanoutEstimate> {
        let dense = sys.n_pairs() <= DENSE_KKT_PAIRS;
        self.solve_from_stats(sys, stats, ws, dense)
    }

    fn solve_from_stats(
        &self,
        sys: &MeasurementSystem<'_>,
        stats: &FanoutWindowStats,
        ws: &mut Workspace,
        dense_kkt: bool,
    ) -> Result<FanoutEstimate> {
        let problem = sys.problem();
        let k_len = stats.k_len;
        let pairs = problem.pairs();
        let n = problem.n_nodes();
        let p_count = pairs.count();
        if stats.te_sum.len() != n || stats.g_terms.len() != p_count {
            return Err(EstimationError::InvalidProblem(format!(
                "fanout: window stats sized {}x{} for {n} nodes / {p_count} pairs",
                stats.te_sum.len(),
                stats.g_terms.len()
            )));
        }
        if k_len == 0 {
            return Err(EstimationError::InvalidProblem(
                "fanout: empty window aggregates".into(),
            ));
        }

        // Precompute src index per pair.
        let src_of: Vec<usize> = (0..p_count).map(|p| pairs.pair(p).0 .0).collect();

        // Normalize measurements to O(1).
        let stot = (stats.ingress_total() / k_len as f64).max(f64::MIN_POSITIVE);

        // The stacked normal equations factor algebraically: with
        // B_k = A·S[k] and S[k] = diag(s^k), s^k_p = t_e(src(p))[k]/stot,
        //
        //   H = Σ_k B_kᵀB_k = Σ_k S[k]·(AᵀA)·S[k]
        //     ⇒ H_{pq} = G_{pq} · T[src(p)][src(q)],
        //
        // where G = AᵀA (sparse, pattern = pairs sharing a measurement
        // row, computed ONCE — or shared across a whole snapshot shard)
        // and T[a][b] = Σ_k s̃_a^k·s̃_b^k is an N×N source cross-moment
        // table, carried by the window aggregates. This replaces the
        // per-interval dense accumulation with O(nnz(G) + N²) work and
        // keeps H sparse for the projected-CG solve below.
        let g_mat = sys.gram();
        // Flattened N×N cross-moment table, normalized from the raw sums.
        let inv2 = 1.0 / (stot * stot);
        let mut cross = ws.take(n * n);
        for (d, &raw) in cross.iter_mut().zip(&stats.cross) {
            *d = raw * inv2;
        }
        let h = g_mat.mapped_values(|p, q, v| v * cross[src_of[p] * n + src_of[q]]);

        // g = Σ_k S[k]·Aᵀ·t̃[k], normalized from the raw per-pair sums.
        let mut g = ws.take(p_count);
        for (d, &raw) in g.iter_mut().zip(&stats.g_terms) {
            *d = raw * inv2;
        }

        // Gravity-fanout prior: α_nm ∝ mean egress share of m (excluding
        // the source itself), the same assumption as the simple gravity
        // model expressed in fanout space.
        let mut tx_mean = ws.take(n);
        for (d, &raw) in tx_mean.iter_mut().zip(&stats.tx_sum) {
            *d = raw / k_len as f64;
        }
        let tx_total: f64 = tx_mean.iter().sum();
        let mut alpha_prior = ws.take(p_count);
        for (p, src, dst) in pairs.iter() {
            let denom = tx_total - tx_mean[src.0];
            if denom > 0.0 {
                alpha_prior[p] = tx_mean[dst.0] / denom;
            }
        }

        // Tikhonov pull toward the prior, scaled to the Hessian size.
        // The ridge itself rides on the QP solver's `ridge` parameter
        // (applied as H + ρI inside the matvec) so the sparse pattern of
        // H never needs explicit diagonal fill-in.
        let diag_mean = (0..p_count).map(|j| h.get(j, j)).sum::<f64>() / p_count as f64;
        let rho = (self.prior_weight * diag_mean).max(1e-12);
        for j in 0..p_count {
            g[j] += rho * alpha_prior[j];
        }

        // Constraints: fanouts of each source sum to one. Solved by
        // projected CG directly on the sparse Hessian — no dense
        // (P + N)² KKT system.
        let groups: Vec<Vec<usize>> = (0..n)
            .map(|node| pairs.from_source(tm_net::NodeId(node)))
            .collect();
        let constraints = SumConstraints {
            groups,
            sums: vec![1.0; n],
        };
        let mut alpha = if dense_kkt {
            let (cmat, dvec) = constraints.to_matrix(p_count)?;
            qp::solve_eq_qp(&h.to_dense(), &g, &cmat, &dvec, rho)?.x
        } else {
            qp::solve_group_sum_qp_sparse(&h, &g, &constraints, rho, 1e-12)?
        };
        qp::clip_and_renormalize(&mut alpha, &constraints);

        // Implied mean demands over the window: α_p · mean_k t_e(src(p)).
        let mut te_mean = ws.take(n);
        for (d, &raw) in te_mean.iter_mut().zip(&stats.te_sum) {
            *d = raw / k_len as f64;
        }
        let mut demands = ws.take(p_count);
        for (p, d) in demands.iter_mut().enumerate() {
            *d = alpha[p] * te_mean[src_of[p]];
        }
        ws.give(cross);
        ws.give(g);
        ws.give(tx_mean);
        ws.give(alpha_prior);
        ws.give(te_mean);

        Ok(FanoutEstimate {
            fanouts: alpha,
            estimate: Estimate {
                demands,
                method: format!("fanout(K={k_len})"),
            },
        })
    }
}

/// Raw (unnormalized) window aggregates of the fanout normal equations —
/// everything [`FanoutEstimator::estimate_from_stats`] needs from a
/// `K`-interval window. Each field is a plain sum over the window's
/// intervals, so a streaming engine maintains them incrementally: add
/// the entering interval's contribution, subtract the leaving one's.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FanoutWindowStats {
    /// Number of intervals aggregated.
    pub k_len: usize,
    /// Flattened `N×N` source cross-moment table `Σ_k t_e(a)·t_e(b)`.
    pub cross: Vec<f64>,
    /// Per-pair right-hand-side terms `Σ_k t_e(src(p))[k]·(Aᵀ·t[k])[p]`.
    pub g_terms: Vec<f64>,
    /// Per-node ingress sums `Σ_k t_e(n)[k]`.
    pub te_sum: Vec<f64>,
    /// Per-node egress sums `Σ_k t_x(n)[k]`.
    pub tx_sum: Vec<f64>,
}

impl FanoutWindowStats {
    /// Aggregate a prepared system's full time-series window (the cold
    /// path). The `K` transposed products are independent — computed in
    /// parallel, folded in interval order so the sums are deterministic.
    pub fn from_series(sys: &MeasurementSystem<'_>) -> Result<Self> {
        let problem = sys.problem();
        let ts = problem
            .time_series()
            .ok_or(EstimationError::MissingTimeSeries)?;
        let a = sys.matrix();
        let n = problem.n_nodes();
        let p_count = problem.n_pairs();
        let pairs = problem.pairs();
        let src_of: Vec<usize> = (0..p_count).map(|p| pairs.pair(p).0 .0).collect();

        let k_len = ts.len();
        let intervals: Vec<usize> = (0..k_len).collect();
        let tr_products = tm_par::par_map(&intervals, |&k| -> Result<Vec<f64>> {
            Ok(a.tr_matvec(&problem.measurements_at(k)?))
        });
        let mut stats = FanoutWindowStats::empty(n, p_count);
        for (k, product) in tr_products.into_iter().enumerate() {
            stats.add_interval(&ts.ingress[k], &ts.egress[k], &product?, &src_of);
        }
        Ok(stats)
    }

    /// Zeroed aggregates for `n` nodes and `p_count` pairs.
    pub fn empty(n: usize, p_count: usize) -> Self {
        FanoutWindowStats {
            k_len: 0,
            cross: vec![0.0; n * n],
            g_terms: vec![0.0; p_count],
            te_sum: vec![0.0; n],
            tx_sum: vec![0.0; n],
        }
    }

    /// Add one interval's contribution: ingress/egress totals plus the
    /// transposed product `u = Aᵀ·t` of its stacked measurement vector.
    pub fn add_interval(&mut self, te: &[f64], tx: &[f64], u: &[f64], src_of: &[usize]) {
        self.accumulate(te, tx, u, src_of, 1.0);
        self.k_len += 1;
    }

    /// Subtract one interval's contribution (the window's leaving edge).
    pub fn remove_interval(&mut self, te: &[f64], tx: &[f64], u: &[f64], src_of: &[usize]) {
        self.accumulate(te, tx, u, src_of, -1.0);
        self.k_len -= 1;
    }

    fn accumulate(&mut self, te: &[f64], tx: &[f64], u: &[f64], src_of: &[usize], sign: f64) {
        let n = self.te_sum.len();
        for a in 0..n {
            let sa = sign * te[a];
            if sa == 0.0 {
                continue;
            }
            let row = &mut self.cross[a * n..(a + 1) * n];
            for (c, &tb) in row.iter_mut().zip(te) {
                *c += sa * tb;
            }
        }
        for (i, &v) in te.iter().enumerate() {
            self.te_sum[i] += sign * v;
        }
        for (i, &v) in tx.iter().enumerate() {
            self.tx_sum[i] += sign * v;
        }
        for (p, g) in self.g_terms.iter_mut().enumerate() {
            *g += sign * te[src_of[p]] * u[p];
        }
    }

    /// Total ingress traffic aggregated over the window.
    pub fn ingress_total(&self) -> f64 {
        self.te_sum.iter().sum()
    }
}

impl Estimator for FanoutEstimator {
    fn estimate_system(&self, sys: &MeasurementSystem<'_>, ws: &mut Workspace) -> Result<Estimate> {
        Ok(self.estimate_prepared(sys, ws)?.estimate)
    }

    fn name(&self) -> String {
        "fanout".into()
    }
}

/// Result of fanout estimation.
#[derive(Debug, Clone)]
pub struct FanoutEstimate {
    /// Estimated fanout factors, OD-pair order (sum to 1 per source).
    pub fanouts: Vec<f64>,
    /// Implied mean-demand estimate over the window.
    pub estimate: Estimate,
}

/// Rolling fanout-window aggregates: a [`FanoutWindowStats`] maintained
/// by add/subtract updates over a bounded window, with periodic exact
/// re-aggregation.
#[derive(Debug, Clone)]
pub struct FanoutRolling {
    window: usize,
    /// Source node per OD pair.
    src_of: Vec<usize>,
    /// Current aggregates (readable by
    /// [`FanoutEstimator::estimate_from_stats`]).
    pub stats: FanoutWindowStats,
    /// Buffered per-interval contributions `(te, tx, u)`.
    buf: VecDeque<(Vec<f64>, Vec<f64>, Vec<f64>)>,
    pushes: usize,
}

impl FanoutRolling {
    /// Empty rolling window of length `window` over `problem`'s nodes
    /// and OD pairs.
    pub fn new(window: usize, problem: &EstimationProblem) -> Self {
        let pairs = problem.pairs();
        FanoutRolling {
            window: window.max(1),
            src_of: (0..pairs.count()).map(|p| pairs.pair(p).0 .0).collect(),
            stats: FanoutWindowStats::empty(problem.n_nodes(), pairs.count()),
            buf: VecDeque::with_capacity(window),
            pushes: 0,
        }
    }

    /// Push one interval — its loads and its stacked measurement vector
    /// `t` over the measurement matrix `a` — evicting the oldest
    /// interval once the window is full.
    pub fn push(&mut self, loads: &IntervalLoads, a: &Csr, t: &[f64]) {
        let u = a.tr_matvec(t);
        if self.buf.len() == self.window {
            let (te, tx, old_u) = self.buf.pop_front().expect("window full");
            self.stats.remove_interval(&te, &tx, &old_u, &self.src_of);
        }
        self.stats
            .add_interval(&loads.ingress, &loads.egress, &u, &self.src_of);
        self.buf
            .push_back((loads.ingress.clone(), loads.egress.clone(), u));
        self.pushes += 1;
        if self.pushes.is_multiple_of(ROLLING_REFRESH_TICKS) {
            self.refresh();
        }
    }

    /// Exact re-aggregation from the buffered window (drift reset).
    fn refresh(&mut self) {
        let n = self.stats.te_sum.len();
        let p = self.stats.g_terms.len();
        self.stats = FanoutWindowStats::empty(n, p);
        for (te, tx, u) in &self.buf {
            self.stats.add_interval(te, tx, u, &self.src_of);
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

    /// The checkpoint form, with the contract of `RollingMoments`: the
    /// aggregates (their `k_len` is the window's length) and the refresh
    /// counter, `"pushes"` last. The buffered intervals are rebuilt from
    /// the checkpoint's history, and the source map stays with the
    /// receiving window.
    pub(crate) fn checkpoint(&self) -> Value {
        Value::Map(vec![
            ("stats".to_string(), self.stats.to_value()),
            ("pushes".to_string(), self.pushes.to_value()),
        ])
    }

    /// Install a [`FanoutRolling::checkpoint`] form into this freshly
    /// built window, rebuilding the buffered `(te, tx, u)` from
    /// `history`.
    pub(crate) fn restore(
        &mut self,
        v: &Value,
        history: &History<'_>,
    ) -> std::result::Result<(), DeError> {
        let stats = FanoutWindowStats::from_value(v.field("stats")?)?;
        let (n, p) = (self.stats.te_sum.len(), self.stats.g_terms.len());
        if stats.cross.len() != n * n
            || stats.g_terms.len() != p
            || stats.te_sum.len() != n
            || stats.tx_sum.len() != n
        {
            return Err(DeError(format!(
                "fanout aggregates not sized for {n} nodes and {p} pairs"
            )));
        }
        let a = history.anchor.matrix();
        for (loads, t) in history.window(stats.k_len, self.window)? {
            self.buf
                .push_back((loads.ingress.clone(), loads.egress.clone(), a.tr_matvec(&t)));
        }
        self.stats = stats;
        self.pushes = usize::from_value(v.field("pushes")?)?;
        Ok(())
    }
}

/// Fanout in a warm stream: the rolling window aggregates carried from
/// tick to tick.
pub(crate) struct FanoutCarry {
    pub(crate) est: FanoutEstimator,
    pub(crate) rolling: FanoutRolling,
}

impl WarmMethod for FanoutCarry {
    fn solve(&mut self, tick: &mut Tick<'_>) -> Option<Result<Estimate>> {
        self.rolling
            .push(tick.current, tick.anchor.matrix(), tick.t);
        Some(
            self.est
                .estimate_from_stats(tick.anchor, &self.rolling.stats, tick.ws)
                .map(|r| r.estimate),
        )
    }

    fn checkpoint(&self) -> Value {
        Value::tagged("fanout", &[("rolling", &self.rolling.checkpoint())])
    }

    fn restore(&mut self, v: &Value, history: &History<'_>) -> std::result::Result<(), DeError> {
        v.expect_kind("fanout")?;
        self.rolling.restore(v.field("rolling")?, history)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{mean_relative_error, CoverageThreshold};
    use crate::problem::DatasetExt;
    use tm_net::NodeId;
    use tm_traffic::{DatasetSpec, EvalDataset};

    #[test]
    fn fanouts_form_distributions() {
        let d = EvalDataset::generate(DatasetSpec::tiny(), 37).unwrap();
        let p = d.window_problem(d.busy_start..d.busy_start + 10);
        let res = FanoutEstimator::new().estimate(&p).unwrap();
        let pairs = p.pairs();
        for node in 0..p.n_nodes() {
            let sum: f64 = pairs
                .from_source(NodeId(node))
                .iter()
                .map(|&q| res.fanouts[q])
                .sum();
            assert!((sum - 1.0).abs() < 1e-8, "source {node}: {sum}");
        }
        assert!(res.fanouts.iter().all(|&v| v >= 0.0));
    }

    #[test]
    fn longer_window_does_not_hurt_much() {
        // Fig. 11: MRE drops with the first few intervals then flattens.
        let d = EvalDataset::generate(DatasetSpec::europe(), 42).unwrap();
        let start = d.busy_start;
        let mre_at = |k: usize| {
            let p = d.window_problem(start..start + k);
            let truth = p.true_demands().unwrap().to_vec();
            let res = FanoutEstimator::new().estimate(&p).unwrap();
            mean_relative_error(&truth, &res.estimate.demands, CoverageThreshold::Share(0.9))
                .unwrap()
        };
        let m1 = mre_at(2);
        let m10 = mre_at(10);
        assert!(
            m10 < m1 * 1.5 + 0.05,
            "longer window should not blow up: K=2 {m1:.3} vs K=10 {m10:.3}"
        );
        assert!(
            m10 < 0.6,
            "fanout estimation should be reasonable: {m10:.3}"
        );
    }

    #[test]
    fn exact_when_fanouts_truly_constant() {
        // Construct a window where demands follow constant fanouts with
        // varying totals: the estimator must recover the demands well.
        let d = EvalDataset::generate(DatasetSpec::tiny(), 41).unwrap();
        let base = d.snapshot_problem(d.busy_start);
        let routing = base.routing().clone();
        let pairs = base.pairs();
        let n = base.n_nodes();
        let alpha = d.structure.fanouts();
        let out0: Vec<f64> = {
            let mut v = vec![0.0; n];
            for (p, src, _) in pairs.iter() {
                v[src.0] += d.structure.mean_demands[p];
            }
            v
        };
        let mut link_loads = Vec::new();
        let mut ingress = Vec::new();
        let mut egress = Vec::new();
        for k in 0..8 {
            // Each source must follow its own temporal pattern — if all
            // sources scaled in lockstep, S[k] ∝ S[0] and extra intervals
            // would add no rank (α would not be identifiable).
            let s: Vec<f64> = (0..pairs.count())
                .map(|p| {
                    let src = pairs.pair(p).0 .0;
                    let scale = 0.4 + 0.13 * ((k + 3 * src) % 7) as f64;
                    alpha[p] * out0[src] * scale
                })
                .collect();
            link_loads.push(routing.matvec(&s));
            let mut te = vec![0.0; n];
            let mut tx = vec![0.0; n];
            for (p, src, dst) in pairs.iter() {
                te[src.0] += s[p];
                tx[dst.0] += s[p];
            }
            ingress.push(te);
            egress.push(tx);
        }
        let problem = crate::problem::EstimationProblem::new(
            routing,
            link_loads[7].clone(),
            ingress[7].clone(),
            egress[7].clone(),
        )
        .unwrap()
        .with_time_series(crate::problem::TimeSeriesData {
            link_loads,
            ingress,
            egress,
        })
        .unwrap();
        // Identifiable system: disable the prior pull for exact recovery.
        let res = FanoutEstimator::new()
            .with_prior_weight(0.0)
            .estimate(&problem)
            .unwrap();
        for p in 0..pairs.count() {
            assert!(
                (res.fanouts[p] - alpha[p]).abs() < 1e-4,
                "pair {p}: {} vs {}",
                res.fanouts[p],
                alpha[p]
            );
        }
    }

    #[test]
    fn requires_time_series() {
        let d = EvalDataset::generate(DatasetSpec::tiny(), 37).unwrap();
        let p = d.snapshot_problem(0);
        assert!(matches!(
            FanoutEstimator::new().estimate(&p),
            Err(EstimationError::MissingTimeSeries)
        ));
    }
}
