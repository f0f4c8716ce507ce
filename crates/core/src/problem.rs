//! The estimation problem: what the operator actually observes.
//!
//! An [`EstimationProblem`] carries the routing matrix, one snapshot of
//! link loads, the per-node ingress/egress totals (edge-link SNMP
//! counters), and — for the time-series methods (fanout, Vardi) — a
//! window of past measurements. Ground-truth demands ride along for
//! evaluation only; estimators never read them (the direct-measurement
//! study of §5.3.6 does, explicitly, via [`crate::measure`]).

use serde::{Deserialize, Serialize};
use tm_linalg::Csr;
use tm_net::OdPairs;
use tm_traffic::EvalDataset;

use crate::error::EstimationError;
use crate::Result;

/// A window of per-interval measurements for time-series estimators.
#[derive(Debug, Clone)]
pub struct TimeSeriesData {
    /// Interior link loads per interval (`K × L`).
    pub link_loads: Vec<Vec<f64>>,
    /// Ingress totals per interval (`K × N`) — the edge-link counters
    /// the fanout method scales by.
    pub ingress: Vec<Vec<f64>>,
    /// Egress totals per interval (`K × N`).
    pub egress: Vec<Vec<f64>>,
}

impl TimeSeriesData {
    /// Number of intervals.
    pub fn len(&self) -> usize {
        self.link_loads.len()
    }

    /// True when no intervals are present.
    pub fn is_empty(&self) -> bool {
        self.link_loads.is_empty()
    }
}

/// One traffic-matrix estimation problem instance.
#[derive(Debug, Clone)]
pub struct EstimationProblem {
    /// Interior routing matrix (`L × P`).
    routing: Csr,
    /// Snapshot interior link loads (`L`).
    link_loads: Vec<f64>,
    /// Snapshot ingress totals per node (`N`) — `t_e(n)`.
    ingress: Vec<f64>,
    /// Snapshot egress totals per node (`N`) — `t_x(m)`.
    egress: Vec<f64>,
    /// Peering flag per node (generalized gravity zeroes peer-to-peer).
    peering: Vec<bool>,
    /// Whether estimators should append edge rows to the measurement
    /// system (access links are polled in real deployments).
    use_edge_measurements: bool,
    /// Ground truth for evaluation (not visible to estimators).
    true_demands: Option<Vec<f64>>,
    /// Optional measurement window for time-series methods.
    time_series: Option<TimeSeriesData>,
}

impl EstimationProblem {
    /// Build a problem from raw parts. `routing` must be `L × N(N−1)`.
    pub fn new(
        routing: Csr,
        link_loads: Vec<f64>,
        ingress: Vec<f64>,
        egress: Vec<f64>,
    ) -> Result<Self> {
        let n = ingress.len();
        let pairs = OdPairs::new(n);
        if egress.len() != n {
            return Err(EstimationError::InvalidProblem(format!(
                "ingress {} vs egress {}",
                n,
                egress.len()
            )));
        }
        if routing.cols() != pairs.count() {
            return Err(EstimationError::InvalidProblem(format!(
                "routing has {} columns for {} pairs",
                routing.cols(),
                pairs.count()
            )));
        }
        if link_loads.len() != routing.rows() {
            return Err(EstimationError::InvalidProblem(format!(
                "{} link loads for {} links",
                link_loads.len(),
                routing.rows()
            )));
        }
        Ok(EstimationProblem {
            routing,
            link_loads,
            ingress,
            egress,
            peering: vec![false; n],
            use_edge_measurements: true,
            true_demands: None,
            time_series: None,
        })
    }

    /// Attach peering roles (for the generalized gravity model).
    pub fn with_peering(mut self, peering: Vec<bool>) -> Result<Self> {
        if peering.len() != self.ingress.len() {
            return Err(EstimationError::InvalidProblem(format!(
                "peering {} vs nodes {}",
                peering.len(),
                self.ingress.len()
            )));
        }
        self.peering = peering;
        Ok(self)
    }

    /// Attach ground truth (evaluation only).
    pub fn with_truth(mut self, truth: Vec<f64>) -> Result<Self> {
        if truth.len() != self.n_pairs() {
            return Err(EstimationError::InvalidProblem(format!(
                "truth {} vs pairs {}",
                truth.len(),
                self.n_pairs()
            )));
        }
        self.true_demands = Some(truth);
        Ok(self)
    }

    /// Attach a time-series window.
    pub fn with_time_series(mut self, ts: TimeSeriesData) -> Result<Self> {
        let l = self.routing.rows();
        let n = self.ingress.len();
        if ts.is_empty() {
            return Err(EstimationError::InvalidProblem("empty time series".into()));
        }
        if ts.ingress.len() != ts.len() || ts.egress.len() != ts.len() {
            return Err(EstimationError::InvalidProblem(
                "time series blocks have different lengths".into(),
            ));
        }
        for k in 0..ts.len() {
            if ts.link_loads[k].len() != l || ts.ingress[k].len() != n || ts.egress[k].len() != n {
                return Err(EstimationError::InvalidProblem(format!(
                    "time series interval {k} has wrong dimensions"
                )));
            }
        }
        self.time_series = Some(ts);
        Ok(self)
    }

    /// Toggle whether edge (access-link) measurements are part of the
    /// constraint system (default: true).
    pub fn with_edge_measurements(mut self, on: bool) -> Self {
        self.use_edge_measurements = on;
        self
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.ingress.len()
    }

    /// Number of OD pairs.
    pub fn n_pairs(&self) -> usize {
        self.routing.cols()
    }

    /// Number of interior links.
    pub fn n_links(&self) -> usize {
        self.routing.rows()
    }

    /// OD pair enumeration.
    pub fn pairs(&self) -> OdPairs {
        OdPairs::new(self.n_nodes())
    }

    /// Interior routing matrix.
    pub fn routing(&self) -> &Csr {
        &self.routing
    }

    /// Snapshot interior link loads.
    pub fn link_loads(&self) -> &[f64] {
        &self.link_loads
    }

    /// Snapshot ingress totals (`t_e`).
    pub fn ingress(&self) -> &[f64] {
        &self.ingress
    }

    /// Snapshot egress totals (`t_x`).
    pub fn egress(&self) -> &[f64] {
        &self.egress
    }

    /// Peering flags.
    pub fn peering(&self) -> &[bool] {
        &self.peering
    }

    /// Ground truth, if attached.
    pub fn true_demands(&self) -> Option<&[f64]> {
        self.true_demands.as_deref()
    }

    /// Time-series window, if attached.
    pub fn time_series(&self) -> Option<&TimeSeriesData> {
        self.time_series.as_ref()
    }

    /// Whether edge measurements participate in the constraint system.
    pub fn uses_edge_measurements(&self) -> bool {
        self.use_edge_measurements
    }

    /// Total network traffic `Σ_n t_e(n)`.
    pub fn total_traffic(&self) -> f64 {
        self.ingress.iter().sum()
    }

    /// Measurement matrix for the configured mode: interior rows, plus
    /// ingress/egress rows when edge measurements are enabled.
    ///
    /// **Compatibility shim.** This allocates a fresh matrix on every
    /// call (even with edge measurements off, where it is a plain clone
    /// of the routing matrix). Estimators no longer call it on their
    /// hot paths — they read the once-built, cached copy held by a
    /// [`MeasurementSystem`](crate::system::MeasurementSystem).
    pub fn measurement_matrix(&self) -> Csr {
        if !self.use_edge_measurements {
            return self.routing.clone();
        }
        let pairs = self.pairs();
        let n = self.n_nodes();
        let mut trip = Vec::with_capacity(2 * pairs.count());
        for (p, src, dst) in pairs.iter() {
            trip.push((src.0, p, 1.0));
            trip.push((n + dst.0, p, 1.0));
        }
        let edge =
            Csr::from_triplets(2 * n, pairs.count(), trip).expect("in-bounds by construction");
        self.routing
            .vstack(&edge)
            .expect("column counts agree by construction")
    }

    /// Measurement vector aligned with [`Self::measurement_matrix`].
    pub fn measurements(&self) -> Vec<f64> {
        let mut t = self.link_loads.clone();
        if self.use_edge_measurements {
            t.extend_from_slice(&self.ingress);
            t.extend_from_slice(&self.egress);
        }
        t
    }

    /// Measurement vector for interval `k` of the time series (same row
    /// layout as [`Self::measurement_matrix`]).
    pub fn measurements_at(&self, k: usize) -> Result<Vec<f64>> {
        let ts = self
            .time_series
            .as_ref()
            .ok_or(EstimationError::MissingTimeSeries)?;
        if k >= ts.len() {
            return Err(EstimationError::InvalidProblem(format!(
                "interval {k} outside window of {}",
                ts.len()
            )));
        }
        let mut t = ts.link_loads[k].clone();
        if self.use_edge_measurements {
            t.extend_from_slice(&ts.ingress[k]);
            t.extend_from_slice(&ts.egress[k]);
        }
        Ok(t)
    }
}

/// Extension methods building problems directly from an [`EvalDataset`].
pub trait DatasetExt {
    /// Snapshot problem at sample `k` (ground truth attached).
    fn snapshot_problem(&self, k: usize) -> EstimationProblem;
    /// Problem with a time-series window over `range` (snapshot fields
    /// are taken from the *last* interval of the window; ground truth is
    /// the window mean, matching §5.3.4's reference value).
    fn window_problem(&self, range: std::ops::Range<usize>) -> EstimationProblem;
}

impl DatasetExt for EvalDataset {
    fn snapshot_problem(&self, k: usize) -> EstimationProblem {
        let s = self.demands_at(k).expect("sample index within series");
        let routing = self.routing.interior().clone();
        let link_loads = self.routing.interior_loads(s).expect("consistent demands");
        let ingress = self.routing.ingress_loads(s).expect("consistent demands");
        let egress = self.routing.egress_loads(s).expect("consistent demands");
        let peering = self
            .topology
            .nodes()
            .iter()
            .map(|n| n.role == tm_net::NodeRole::Peering)
            .collect();
        EstimationProblem::new(routing, link_loads, ingress, egress)
            .and_then(|p| p.with_peering(peering))
            .and_then(|p| p.with_truth(s.to_vec()))
            .expect("dataset dimensions are consistent by construction")
    }

    fn window_problem(&self, range: std::ops::Range<usize>) -> EstimationProblem {
        assert!(!range.is_empty(), "window must be nonempty");
        let last = range.end - 1;
        let mut problem = self.snapshot_problem(last);
        let mut link_loads = Vec::with_capacity(range.len());
        let mut ingress = Vec::with_capacity(range.len());
        let mut egress = Vec::with_capacity(range.len());
        for k in range.clone() {
            let s = self.demands_at(k).expect("sample index within series");
            link_loads.push(self.routing.interior_loads(s).expect("consistent"));
            ingress.push(self.routing.ingress_loads(s).expect("consistent"));
            egress.push(self.routing.egress_loads(s).expect("consistent"));
        }
        // Reference truth for a window: the mean demands over it.
        let mean = self
            .series
            .window_mean(range.start, range.len())
            .expect("window within series");
        problem = problem.with_truth(mean).expect("dimensions consistent");
        problem
            .with_time_series(TimeSeriesData {
                link_loads,
                ingress,
                egress,
            })
            .expect("dimensions consistent")
    }
}

/// An estimate produced by any method.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Estimate {
    /// Estimated demand vector (Mbps), OD-pair order.
    pub demands: Vec<f64>,
    /// Name of the method that produced it.
    pub method: String,
}

impl From<Estimate> for Vec<f64> {
    fn from(e: Estimate) -> Vec<f64> {
        e.demands
    }
}

/// Common interface of the estimation methods.
///
/// The **primary** entry point is [`Estimator::estimate_system`]: it
/// reads a prepared [`MeasurementSystem`](crate::system::MeasurementSystem)
/// whose derived state (stacked matrix, Gram, transpose, GIS plan,
/// WCB basis) is computed once and shared by every method and every
/// interval. [`Estimator::estimate`] is a compatibility wrapper that
/// prepares a throwaway system from the bare problem; it produces
/// bit-identical results.
pub trait Estimator {
    /// Estimate the traffic matrix from a prepared measurement system,
    /// drawing scratch and result vectors from a
    /// [`Workspace`](tm_linalg::Workspace) pool. Long-running pipelines
    /// (the [`StreamEngine`](crate::stream::StreamEngine)) hold one
    /// shared system and one pool, so at steady state an estimate costs
    /// only its own solve.
    fn estimate_system(
        &self,
        sys: &crate::system::MeasurementSystem<'_>,
        ws: &mut tm_linalg::Workspace,
    ) -> Result<Estimate>;

    /// Estimate from a bare problem (compatibility wrapper: prepares a
    /// throwaway system).
    fn estimate(&self, problem: &EstimationProblem) -> Result<Estimate> {
        self.estimate_system(
            &crate::system::MeasurementSystem::prepare(problem),
            &mut tm_linalg::Workspace::new(),
        )
    }

    /// Method name (for tables and figures).
    fn name(&self) -> String;
}

#[cfg(test)]
mod tests {
    use super::*;
    use tm_traffic::{DatasetSpec, EvalDataset};

    fn tiny() -> EvalDataset {
        EvalDataset::generate(DatasetSpec::tiny(), 77).unwrap()
    }

    #[test]
    fn snapshot_problem_is_consistent() {
        let d = tiny();
        let k = d.busy_start;
        let p = d.snapshot_problem(k);
        assert_eq!(p.n_nodes(), d.topology.n_nodes());
        assert_eq!(p.n_pairs(), d.n_pairs());
        // Measurements are consistent: A s_true = t.
        let a = p.measurement_matrix();
        let t = p.measurements();
        let s = p.true_demands().unwrap();
        let ax = a.matvec(s);
        for i in 0..t.len() {
            assert!((ax[i] - t[i]).abs() < 1e-9 * (1.0 + t[i].abs()), "row {i}");
        }
        // Total traffic equals the demand sum.
        let total: f64 = s.iter().sum();
        assert!((p.total_traffic() - total).abs() < 1e-9 * total);
    }

    #[test]
    fn edge_toggle_changes_rows() {
        let d = tiny();
        let p = d.snapshot_problem(0);
        let with_edge = p.measurement_matrix().rows();
        let p2 = p.clone().with_edge_measurements(false);
        let without = p2.measurement_matrix().rows();
        assert_eq!(with_edge, without + 2 * p2.n_nodes());
        assert_eq!(p2.measurements().len(), without);
    }

    #[test]
    fn window_problem_carries_series() {
        let d = tiny();
        let r = d.busy_hour();
        let p = d.window_problem(r.clone());
        let ts = p.time_series().unwrap();
        assert_eq!(ts.len(), r.len());
        assert!(!ts.is_empty());
        // Each interval's measurements are consistent with the truth of
        // that interval.
        let m0 = p.measurements_at(0).unwrap();
        let s0 = d.demands_at(r.start).unwrap();
        let a = p.measurement_matrix();
        let expect = a.matvec(s0);
        for i in 0..m0.len() {
            assert!((m0[i] - expect[i]).abs() < 1e-9 * (1.0 + expect[i].abs()));
        }
        assert!(p.measurements_at(999).is_err());
    }

    #[test]
    fn constructor_validation() {
        let d = tiny();
        let p = d.snapshot_problem(0);
        let routing = p.routing().clone();
        // Wrong link loads length.
        assert!(EstimationProblem::new(
            routing.clone(),
            vec![0.0; 3],
            p.ingress().to_vec(),
            p.egress().to_vec()
        )
        .is_err());
        // Wrong egress length.
        assert!(EstimationProblem::new(
            routing.clone(),
            p.link_loads().to_vec(),
            p.ingress().to_vec(),
            vec![0.0]
        )
        .is_err());
        // Wrong truth/peering lengths.
        let ok = EstimationProblem::new(
            routing.clone(),
            p.link_loads().to_vec(),
            p.ingress().to_vec(),
            p.egress().to_vec(),
        )
        .unwrap();
        assert!(ok.clone().with_truth(vec![1.0]).is_err());
        assert!(ok.clone().with_peering(vec![true]).is_err());
        // Time-series dimension checks.
        assert!(ok
            .clone()
            .with_time_series(TimeSeriesData {
                link_loads: vec![],
                ingress: vec![],
                egress: vec![],
            })
            .is_err());
        assert!(ok
            .with_time_series(TimeSeriesData {
                link_loads: vec![vec![0.0; 2]],
                ingress: vec![vec![0.0; 5]],
                egress: vec![vec![0.0; 5]],
            })
            .is_err());
    }

    #[test]
    fn estimate_converts_to_vec() {
        let e = Estimate {
            demands: vec![1.0, 2.0],
            method: "x".into(),
        };
        let v: Vec<f64> = e.into();
        assert_eq!(v, vec![1.0, 2.0]);
    }
}
