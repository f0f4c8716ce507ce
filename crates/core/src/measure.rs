//! Combining tomography with direct measurements (paper §5.3.6).
//!
//! Measuring a demand directly (e.g. with a dedicated LSP counter) pins
//! its value exactly; the remaining demands are re-estimated on the
//! reduced system where the measured columns are removed and their
//! contribution is subtracted from every load. The paper shows the MRE
//! of the Entropy approach collapses after measuring only a handful of
//! demands — 6 in Europe (11% → <1%), 17 in America (23% → <10%) — when
//! the demands are chosen greedily by exhaustive search.

use tm_linalg::Csr;
use tm_opt::spg::{self, SpgOptions};

use crate::error::EstimationError;
use crate::gravity::GravityModel;
use crate::metrics::{mean_relative_error, CoverageThreshold};
use crate::problem::{Estimate, EstimationProblem, Estimator};
use crate::system::MeasurementSystem;
use crate::Result;

/// Floor for the KL term (normalized units).
const FLOOR: f64 = 1e-12;

/// Entropy estimation with some demands measured exactly.
#[derive(Debug, Clone)]
pub struct MeasuredEntropy {
    lambda: f64,
    opts: SpgOptions,
}

impl MeasuredEntropy {
    /// Create with entropy regularization parameter λ.
    pub fn new(lambda: f64) -> Self {
        MeasuredEntropy {
            lambda,
            opts: SpgOptions {
                max_iter: 3000,
                tol: 1e-9,
                ..Default::default()
            },
        }
    }

    /// Estimate with the demands in `measured` fixed to their true
    /// values (pairs must be distinct; values come from direct
    /// measurement, i.e. ground truth in evaluation). Compatibility
    /// wrapper over [`MeasuredEntropy::estimate_measured_prepared`].
    pub fn estimate_with_measured(
        &self,
        problem: &EstimationProblem,
        measured: &[(usize, f64)],
    ) -> Result<Estimate> {
        self.estimate_measured_prepared(&MeasurementSystem::prepare(problem), measured)
    }

    /// [`MeasuredEntropy::estimate_with_measured`] on a prepared
    /// system, reusing its cached stacked matrix and transpose (the
    /// column view the measured-demand subtraction walks).
    pub fn estimate_measured_prepared(
        &self,
        sys: &MeasurementSystem<'_>,
        measured: &[(usize, f64)],
    ) -> Result<Estimate> {
        let problem = sys.problem();
        if !(self.lambda > 0.0) {
            return Err(EstimationError::InvalidProblem(
                "measured-entropy: lambda must be positive".into(),
            ));
        }
        let p_count = problem.n_pairs();
        let mut fixed = vec![None; p_count];
        for &(p, v) in measured {
            if p >= p_count {
                return Err(EstimationError::InvalidProblem(format!(
                    "measured pair {p} out of range"
                )));
            }
            if fixed[p].replace(v).is_some() {
                return Err(EstimationError::InvalidProblem(format!(
                    "pair {p} measured twice"
                )));
            }
        }

        let a = sys.matrix();
        let mut t = sys.measurements().to_vec();
        // Subtract measured contributions: t -= A[:,p]·v.
        let at = sys.transpose();
        for &(p, v) in measured {
            let (idx, val) = at.row(p);
            for (k, &row) in idx.iter().enumerate() {
                t[row] -= val[k] * v;
            }
        }
        for ti in &mut t {
            if *ti < 0.0 && *ti > -1e-9 {
                *ti = 0.0;
            }
        }

        let kept: Vec<usize> = (0..p_count).filter(|&p| fixed[p].is_none()).collect();
        if kept.is_empty() {
            // Everything measured: nothing to estimate.
            let demands = fixed.into_iter().map(|v| v.unwrap_or(0.0)).collect();
            return Ok(Estimate {
                demands,
                method: self.name(),
            });
        }
        let a_red: Csr = a.select_cols(&kept);

        // Prior: gravity restricted to the kept pairs.
        let prior_full = GravityModel::simple()
            .estimate_system(sys, &mut tm_linalg::Workspace::new())?
            .demands;
        let stot = problem.total_traffic().max(f64::MIN_POSITIVE);
        let q: Vec<f64> = kept
            .iter()
            .map(|&p| (prior_full[p] / stot).max(FLOOR))
            .collect();
        let t_n: Vec<f64> = t.iter().map(|v| v / stot).collect();
        let inv_lambda = 1.0 / self.lambda;

        let mut buf_r = vec![0.0; a_red.rows()];
        let mut buf_g = vec![0.0; a_red.cols()];
        let result = spg::spg(
            |s: &[f64], grad: &mut [f64]| {
                a_red.matvec_into(s, &mut buf_r);
                for (i, ri) in buf_r.iter_mut().enumerate() {
                    *ri -= t_n[i];
                }
                a_red.tr_matvec_into(&buf_r, &mut buf_g);
                let mut f = buf_r.iter().map(|r| r * r).sum::<f64>();
                for j in 0..s.len() {
                    let sj = s[j].max(FLOOR);
                    let ratio = sj / q[j];
                    f += inv_lambda * (sj * ratio.ln() - sj + q[j]);
                    grad[j] = 2.0 * buf_g[j] + inv_lambda * ratio.ln();
                }
                f
            },
            spg::project_floor(FLOOR),
            q.clone(),
            self.opts,
        )?;

        let mut demands = vec![0.0; p_count];
        for (j, &p) in kept.iter().enumerate() {
            let v = result.x[j];
            demands[p] = if v <= 2.0 * FLOOR { 0.0 } else { v * stot };
        }
        for (p, v) in fixed.iter().enumerate() {
            if let Some(v) = v {
                demands[p] = *v;
            }
        }
        Ok(Estimate {
            demands,
            method: self.name(),
        })
    }

    fn name(&self) -> String {
        format!("entropy+measured(lambda={:.0e})", self.lambda)
    }
}

impl Estimator for MeasuredEntropy {
    /// With no direct measurements attached, the reduced system is the
    /// full system: this is entropy estimation through the
    /// measured-demand code path.
    fn estimate_system(
        &self,
        sys: &MeasurementSystem<'_>,
        _ws: &mut tm_linalg::Workspace,
    ) -> Result<Estimate> {
        self.estimate_measured_prepared(sys, &[])
    }

    fn name(&self) -> String {
        MeasuredEntropy::name(self)
    }
}

/// One step of a measurement-selection curve.
#[derive(Debug, Clone)]
pub struct SelectionStep {
    /// Pair measured at this step.
    pub pair: usize,
    /// MRE after measuring all pairs up to and including this one.
    pub mre: f64,
}

/// Greedy exhaustive selection (the paper's Fig. 16 procedure): at each
/// step measure the demand whose measurement reduces the MRE most.
/// Requires ground truth on the problem. `candidates_per_step` bounds
/// the exhaustive search (use `usize::MAX` for the paper's full search;
/// smaller values search only the largest remaining demands).
pub fn greedy_selection(
    problem: &EstimationProblem,
    lambda: f64,
    steps: usize,
    threshold: CoverageThreshold,
    candidates_per_step: usize,
) -> Result<Vec<SelectionStep>> {
    let truth = problem
        .true_demands()
        .ok_or(EstimationError::MissingTruth)?
        .to_vec();
    let estimator = MeasuredEntropy::new(lambda);
    let mut measured: Vec<(usize, f64)> = Vec::new();
    let mut curve = Vec::new();

    for _ in 0..steps.min(problem.n_pairs()) {
        // Candidate order: largest remaining true demands first (the
        // exhaustive search is over all of them unless capped).
        let mut remaining: Vec<usize> = (0..problem.n_pairs())
            .filter(|p| !measured.iter().any(|&(q, _)| q == *p))
            .collect();
        remaining.sort_by(|&a, &b| truth[b].partial_cmp(&truth[a]).expect("finite"));
        remaining.truncate(candidates_per_step.max(1));

        let mut best: Option<(usize, f64)> = None;
        for &cand in &remaining {
            let mut trial = measured.clone();
            trial.push((cand, truth[cand]));
            let est = estimator.estimate_with_measured(problem, &trial)?;
            let mre = mean_relative_error(&truth, &est.demands, threshold)?;
            if best.is_none_or(|(_, b)| mre < b) {
                best = Some((cand, mre));
            }
        }
        let (pair, mre) = best.expect("at least one candidate");
        measured.push((pair, truth[pair]));
        curve.push(SelectionStep { pair, mre });
    }
    Ok(curve)
}

/// Largest-demand-first selection (the practical strategy the paper
/// discusses: estimators rank demands well, so measure the biggest).
pub fn largest_first_selection(
    problem: &EstimationProblem,
    lambda: f64,
    steps: usize,
    threshold: CoverageThreshold,
) -> Result<Vec<SelectionStep>> {
    let truth = problem
        .true_demands()
        .ok_or(EstimationError::MissingTruth)?
        .to_vec();
    let estimator = MeasuredEntropy::new(lambda);
    let mut order: Vec<usize> = (0..problem.n_pairs()).collect();
    order.sort_by(|&a, &b| truth[b].partial_cmp(&truth[a]).expect("finite"));

    let mut measured: Vec<(usize, f64)> = Vec::new();
    let mut curve = Vec::new();
    for &pair in order.iter().take(steps) {
        measured.push((pair, truth[pair]));
        let est = estimator.estimate_with_measured(problem, &measured)?;
        let mre = mean_relative_error(&truth, &est.demands, threshold)?;
        curve.push(SelectionStep { pair, mre });
    }
    Ok(curve)
}

// ---------------------------------------------------------------------
// Measurement quality: which rows of a tick's load vector are usable.
// ---------------------------------------------------------------------

/// Quality class of one measurement row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowQuality {
    /// Finite, non-negative, plausible: usable as-is.
    Clean,
    /// Present but untrustworthy (negative, or beyond the plausibility
    /// bound): must not constrain an estimate.
    Suspect,
    /// Not a number / infinite: the poll never arrived.
    Missing,
}

impl RowQuality {
    /// Usable rows constrain the masked system; suspect and missing
    /// rows are dropped.
    pub fn is_usable(self) -> bool {
        self == RowQuality::Clean
    }
}

/// Plausibility bound on any single measurement (Mbps) in
/// [`LoadQuality::assess`]: the collector's wrap/reset bound,
/// `tm_collect::counters::DEFAULT_MAX_RATE_MBPS` (400 Gbps).
const MAX_RATE_MBPS: f64 = 400_000.0;

/// Relative tolerance on the flow-conservation residual
/// `|Σ ingress − Σ egress| / max(Σ ingress, Σ egress)` over clean rows
/// in [`LoadQuality::assess`]. Jitter smearing keeps clean ticks well
/// under 5%.
const CONSERVATION_TOL: f64 = 0.05;

/// Per-tick measurement quality report: one [`RowQuality`] per load
/// row plus the flow-conservation cross-check. This is the input
/// classification step of the degradation ladder — see
/// `docs/ROBUSTNESS.md`.
#[derive(Debug, Clone)]
pub struct LoadQuality {
    /// Quality of each interior link load.
    pub links: Vec<RowQuality>,
    /// Quality of each node ingress total.
    pub ingress: Vec<RowQuality>,
    /// Quality of each node egress total.
    pub egress: Vec<RowQuality>,
    /// Relative conservation residual over clean rows.
    pub conservation_residual: f64,
    /// Whether the residual is within tolerance.
    pub conservation_ok: bool,
}

impl LoadQuality {
    /// Classify a tick's load vectors: a non-finite row is missing; a
    /// negative one, or one above 400 Gbps, is suspect; and the clean
    /// ingress and egress totals must balance to within 5%.
    pub fn assess(link_loads: &[f64], ingress: &[f64], egress: &[f64]) -> LoadQuality {
        let classify = |v: f64| {
            if !v.is_finite() {
                RowQuality::Missing
            } else if !(0.0..=MAX_RATE_MBPS).contains(&v) {
                RowQuality::Suspect
            } else {
                RowQuality::Clean
            }
        };
        let links: Vec<RowQuality> = link_loads.iter().map(|&v| classify(v)).collect();
        let ingress_q: Vec<RowQuality> = ingress.iter().map(|&v| classify(v)).collect();
        let egress_q: Vec<RowQuality> = egress.iter().map(|&v| classify(v)).collect();
        // Flow conservation: everything entering the network leaves it,
        // so the clean ingress and egress totals must balance. Computed
        // over clean rows only — a missing node total shouldn't fail
        // the whole tick.
        let sum_in: f64 = ingress
            .iter()
            .zip(&ingress_q)
            .filter(|(_, q)| q.is_usable())
            .map(|(v, _)| v)
            .sum();
        let sum_eg: f64 = egress
            .iter()
            .zip(&egress_q)
            .filter(|(_, q)| q.is_usable())
            .map(|(v, _)| v)
            .sum();
        let conservation_residual = (sum_in - sum_eg).abs() / sum_in.max(sum_eg).max(1.0);
        let conservation_ok = conservation_residual <= CONSERVATION_TOL;
        LoadQuality {
            links,
            ingress: ingress_q,
            egress: egress_q,
            conservation_residual,
            conservation_ok,
        }
    }
}

// ---------------------------------------------------------------------
// Load-level fault injection: the lightweight counterpart of
// `tm_collect::FaultPlan` for driving streams straight from a dataset.
// ---------------------------------------------------------------------

/// One per-link outage window in a [`LoadFaultPlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadOutage {
    /// Affected interior link.
    pub link: usize,
    /// First affected tick.
    pub from: usize,
    /// Number of consecutive ticks affected.
    pub ticks: usize,
}

/// A deterministic load-level fault schedule, applied to
/// [`IntervalLoads`](tm_traffic::IntervalLoads)-shaped vectors before
/// they reach a streaming engine. Missing values become `NaN`
/// (classified [`RowQuality::Missing`]); corruption-burst values are
/// negated (classified [`RowQuality::Suspect`] — the load-level
/// stand-in for an unrecoverable counter reset/wrap).
///
/// Randomness is hash-derived from `(seed, tick, link)`, so plans are
/// bit-identical across runs without any RNG state.
#[derive(Debug, Clone, Default)]
pub struct LoadFaultPlan {
    /// Seed for the per-cell hash.
    pub seed: u64,
    /// Probability each (tick, link) load goes missing.
    pub missing_probability: f64,
    /// Per-link outage windows (loads forced missing).
    pub outages: Vec<LoadOutage>,
    /// A corruption burst: every link load in `[from, from+ticks)` on
    /// the chosen link is replaced by an untrustworthy value.
    pub corrupt: Vec<LoadOutage>,
}

impl LoadFaultPlan {
    /// The canonical robustness scenario gated in CI: 5% of link loads
    /// missing per tick, one three-tick outage and one three-tick
    /// corruption burst (the "counter-wrap burst") on fixed links.
    pub fn canonical(n_links: usize, seed: u64) -> LoadFaultPlan {
        LoadFaultPlan {
            seed,
            missing_probability: 0.05,
            outages: vec![LoadOutage {
                link: 0,
                from: 6,
                ticks: 3,
            }],
            corrupt: vec![LoadOutage {
                link: n_links.saturating_sub(1),
                from: 12,
                ticks: 3,
            }],
        }
    }

    /// Corrupt one tick's interior link loads in place.
    pub fn apply(&self, tick: usize, link_loads: &mut [f64]) {
        for o in &self.outages {
            if o.link < link_loads.len() && (o.from..o.from + o.ticks).contains(&tick) {
                link_loads[o.link] = f64::NAN;
            }
        }
        for c in &self.corrupt {
            if c.link < link_loads.len() && (c.from..c.from + c.ticks).contains(&tick) {
                // A negative load: present but impossible, the signature
                // of a reset/garbled counter surviving rate recovery.
                link_loads[c.link] = -link_loads[c.link].abs().max(1.0);
            }
        }
        if self.missing_probability > 0.0 {
            for (l, v) in link_loads.iter_mut().enumerate() {
                if load_fault_hash(self.seed, tick as u64, l as u64) < self.missing_probability {
                    *v = f64::NAN;
                }
            }
        }
    }

    /// Ticks touched by any fault, given a per-tick link count — used
    /// by evaluations to split affected from unaffected ticks.
    pub fn affects_tick(&self, tick: usize, n_links: usize) -> bool {
        self.outages
            .iter()
            .chain(&self.corrupt)
            .any(|o| o.link < n_links && (o.from..o.from + o.ticks).contains(&tick))
            || (self.missing_probability > 0.0
                && (0..n_links).any(|l| {
                    load_fault_hash(self.seed, tick as u64, l as u64) < self.missing_probability
                }))
    }
}

/// splitmix64-style hash to a uniform in `[0, 1)` (the core crate has
/// no RNG dependency; determinism matters more than statistical depth).
fn load_fault_hash(seed: u64, a: u64, b: u64) -> f64 {
    let mut x =
        seed ^ a.wrapping_mul(0x517C_C1B7_2722_0A95) ^ b.wrapping_mul(0x2545_F491_4F6C_DD1D);
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entropy::EntropyEstimator;
    use crate::problem::DatasetExt;
    use tm_traffic::{DatasetSpec, EvalDataset};

    fn problem() -> EstimationProblem {
        let d = EvalDataset::generate(DatasetSpec::tiny(), 61).unwrap();
        d.snapshot_problem(d.busy_start)
    }

    #[test]
    fn no_measurements_matches_plain_entropy() {
        let p = problem();
        let plain = EntropyEstimator::new(100.0).estimate(&p).unwrap();
        let with = MeasuredEntropy::new(100.0)
            .estimate_with_measured(&p, &[])
            .unwrap();
        for i in 0..p.n_pairs() {
            assert!(
                (plain.demands[i] - with.demands[i]).abs() < 1e-6 * (1.0 + plain.demands[i]),
                "pair {i}"
            );
        }
    }

    #[test]
    fn measured_pairs_are_exact() {
        let p = problem();
        let truth = p.true_demands().unwrap().to_vec();
        let measured = vec![(0, truth[0]), (5, truth[5])];
        let est = MeasuredEntropy::new(100.0)
            .estimate_with_measured(&p, &measured)
            .unwrap();
        assert_eq!(est.demands[0], truth[0]);
        assert_eq!(est.demands[5], truth[5]);
    }

    #[test]
    fn measuring_reduces_mre() {
        let p = problem();
        let truth = p.true_demands().unwrap().to_vec();
        let thr = CoverageThreshold::Share(0.9);
        let base = EntropyEstimator::new(1000.0).estimate(&p).unwrap();
        let mre0 = mean_relative_error(&truth, &base.demands, thr).unwrap();
        let curve = largest_first_selection(&p, 1000.0, 5, thr).unwrap();
        assert_eq!(curve.len(), 5);
        assert!(
            curve.last().unwrap().mre <= mre0 + 1e-9,
            "5 measurements should not hurt: {} vs {}",
            curve.last().unwrap().mre,
            mre0
        );
    }

    #[test]
    fn greedy_is_no_worse_than_largest_first() {
        let p = problem();
        let thr = CoverageThreshold::Share(0.9);
        let greedy = greedy_selection(&p, 1000.0, 3, thr, usize::MAX).unwrap();
        let largest = largest_first_selection(&p, 1000.0, 3, thr).unwrap();
        assert!(
            greedy.last().unwrap().mre <= largest.last().unwrap().mre + 1e-9,
            "greedy {} vs largest-first {}",
            greedy.last().unwrap().mre,
            largest.last().unwrap().mre
        );
    }

    #[test]
    fn measuring_everything_gives_zero_error() {
        let p = problem();
        let truth = p.true_demands().unwrap().to_vec();
        let all: Vec<(usize, f64)> = truth.iter().cloned().enumerate().collect();
        let est = MeasuredEntropy::new(10.0)
            .estimate_with_measured(&p, &all)
            .unwrap();
        assert_eq!(est.demands, truth);
    }

    #[test]
    fn validates_inputs() {
        let p = problem();
        assert!(MeasuredEntropy::new(0.0)
            .estimate_with_measured(&p, &[])
            .is_err());
        assert!(MeasuredEntropy::new(1.0)
            .estimate_with_measured(&p, &[(99_999, 1.0)])
            .is_err());
        assert!(MeasuredEntropy::new(1.0)
            .estimate_with_measured(&p, &[(0, 1.0), (0, 2.0)])
            .is_err());
        // Greedy needs truth.
        let routing = p.routing().clone();
        let no_truth = EstimationProblem::new(
            routing,
            p.link_loads().to_vec(),
            p.ingress().to_vec(),
            p.egress().to_vec(),
        )
        .unwrap();
        assert!(matches!(
            greedy_selection(&no_truth, 1.0, 1, CoverageThreshold::Share(0.9), 5),
            Err(EstimationError::MissingTruth)
        ));
    }

    #[test]
    fn quality_classifies_rows() {
        let q = LoadQuality::assess(&[10.0, f64::NAN, -3.0, 1e9], &[5.0, 5.0], &[5.0, 5.0]);
        assert_eq!(q.links[0], RowQuality::Clean);
        assert_eq!(q.links[1], RowQuality::Missing);
        assert_eq!(q.links[2], RowQuality::Suspect);
        assert_eq!(q.links[3], RowQuality::Suspect, "beyond max_rate_mbps");
        assert!(q.conservation_ok);
        assert!(q.conservation_residual < 1e-12);
    }

    #[test]
    fn quality_all_clean_and_conservation_violation() {
        // 50% imbalance between clean totals: flagged.
        let bad = LoadQuality::assess(&[1.0], &[100.0], &[50.0]);
        assert!(!bad.conservation_ok);
        assert!(bad.conservation_residual > 0.4);
        // A missing ingress row is excluded from the balance, so a
        // half-observed tick doesn't fail conservation spuriously.
        let part = LoadQuality::assess(&[1.0], &[f64::NAN, 50.0], &[25.0, 25.0]);
        assert!(part.conservation_ok, "{}", part.conservation_residual);
    }

    #[test]
    fn load_fault_plan_is_deterministic_and_windowed() {
        let plan = LoadFaultPlan::canonical(8, 42);
        let mut a = vec![100.0; 8];
        let mut b = vec![100.0; 8];
        plan.apply(6, &mut a);
        plan.apply(6, &mut b);
        assert_eq!(
            a.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            b.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            "hash-driven faults are deterministic"
        );
        assert!(a[0].is_nan(), "outage window covers tick 6");
        let mut c = vec![100.0; 8];
        plan.apply(12, &mut c);
        assert!(c[7] < 0.0, "corruption burst negates the last link");
        assert!(!c[0].is_nan(), "outage over by tick 12");
        // Ticks inside fault windows are reported affected.
        assert!(plan.affects_tick(6, 8));
        assert!(plan.affects_tick(12, 8));
        // Missing-poll hash: roughly 5% of cells over many ticks.
        let mut missing = 0usize;
        let trials = 2_000usize;
        for t in 100..100 + trials {
            let mut v = vec![1.0; 8];
            LoadFaultPlan {
                seed: 42,
                missing_probability: 0.05,
                ..Default::default()
            }
            .apply(t, &mut v);
            missing += v.iter().filter(|x| x.is_nan()).count();
        }
        let share = missing as f64 / (trials * 8) as f64;
        assert!((share - 0.05).abs() < 0.01, "missing share {share}");
    }
}
