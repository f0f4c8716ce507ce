//! Link-load moment estimation for the second-moment methods.
//!
//! Vardi's method (§4.2.2) matches the sample mean and covariance of a
//! link-load time series against their theoretical values under a
//! Poissonian traffic model. This module computes those sample moments
//! and builds the sparse "second-moment matrix" `M` with rows indexed by
//! link pairs `(i ≤ j)` and entries `M[(i,j), p] = a_ip·a_jp`, so that
//! `Cov{t}_ij = (M·λ)_(i,j)` for Poisson demands.

use std::collections::VecDeque;

use serde::{DeError, Deserialize, Serialize, Value};
use tm_linalg::{stats, Csr};

use crate::error::EstimationError;
use crate::stream::{History, ROLLING_REFRESH_TICKS};
use crate::Result;

/// Sample moments of a measurement-vector time series.
#[derive(Debug, Clone)]
pub struct SampleMoments {
    /// Sample mean (length `L`).
    pub mean: Vec<f64>,
    /// Half-vectorized sample covariance aligned with
    /// [`SecondMomentSystem::rows`].
    pub cov_vech: Vec<f64>,
}

/// The sparse second-moment system for a measurement matrix.
#[derive(Debug, Clone)]
pub struct SecondMomentSystem {
    /// `(i, j)` link pairs, `i ≤ j`, one per row of [`Self::matrix`].
    pub rows: Vec<(usize, usize)>,
    /// Sparse matrix with `matrix[r][p] = a_{i_r p}·a_{j_r p}`.
    pub matrix: Csr,
}

impl SecondMomentSystem {
    /// Build from a measurement matrix. Only link pairs that share at
    /// least one demand get a row (other pairs constrain nothing about
    /// `λ`; their sample covariances are pure noise).
    pub fn build(a: &Csr) -> Self {
        let at = a.transpose(); // row p = measurement rows crossed by p
        let mut index: std::collections::HashMap<(usize, usize), usize> =
            std::collections::HashMap::new();
        let mut rows: Vec<(usize, usize)> = Vec::new();
        let mut triplets: Vec<(usize, usize, f64)> = Vec::new();
        for p in 0..at.rows() {
            let (idx, val) = at.row(p);
            for k1 in 0..idx.len() {
                for k2 in k1..idx.len() {
                    let (i, j) = (idx[k1], idx[k2]);
                    let key = if i <= j { (i, j) } else { (j, i) };
                    let r = *index.entry(key).or_insert_with(|| {
                        rows.push(key);
                        rows.len() - 1
                    });
                    triplets.push((r, p, val[k1] * val[k2]));
                }
            }
        }
        let matrix =
            Csr::from_triplets(rows.len(), a.cols(), triplets).expect("in-bounds by construction");
        SecondMomentSystem { rows, matrix }
    }

    /// Extract the sample moments of `series` aligned with this system.
    pub fn sample_moments(&self, series: &[Vec<f64>]) -> Result<SampleMoments> {
        if series.len() < 2 {
            return Err(EstimationError::InvalidProblem(
                "need at least 2 intervals for a covariance".into(),
            ));
        }
        let mean = stats::mean_vector(series).map_err(EstimationError::Linalg)?;
        let cov = stats::covariance_matrix(series).map_err(EstimationError::Linalg)?;
        let cov_vech = self.rows.iter().map(|&(i, j)| cov.get(i, j)).collect();
        Ok(SampleMoments { mean, cov_vech })
    }
}

/// Rolling sample moments of the stacked measurement vectors over a
/// `K`-interval window, restricted to the second-moment system's
/// `(i ≤ j)` covariance rows. Maintains `Σ tᵢ` and `Σ tᵢ·tⱼ`
/// incrementally (`O(rows)` per tick) and reproduces
/// [`SecondMomentSystem::sample_moments`]'s `1/K` covariance
/// convention; the buffers are re-aggregated exactly every
/// 128 ticks (`ROLLING_REFRESH_TICKS`) to bound floating-point drift.
///
/// The checkpoint form holds the running `Σt` / `Σtᵢtⱼ` / ingress
/// accumulators, the window's length and the `pushes` counter — the
/// accumulators carry add/subtract rounding history that a
/// re-aggregation would not reproduce, and the counter pins the exact
/// refresh cadence. The buffered intervals are the trailing entries of
/// the checkpoint's history and are rebuilt from it, bit for bit, so a
/// restored window continues bit-identically to an uninterrupted one.
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

    /// The checkpoint form (see the type docs); `"pushes"` is the last
    /// key.
    pub(crate) fn checkpoint(&self) -> Value {
        Value::Map(vec![
            ("sum".to_string(), self.sum.to_value()),
            ("prod".to_string(), self.prod.to_value()),
            ("ingress_sum".to_string(), self.ingress_sum.to_value()),
            ("len".to_string(), self.buf.len().to_value()),
            ("pushes".to_string(), self.pushes.to_value()),
        ])
    }

    /// Install a [`RollingMoments::checkpoint`] form into this freshly
    /// built window, rebuilding the buffered intervals from `history`.
    pub(crate) fn restore(
        &mut self,
        v: &Value,
        history: &History<'_>,
    ) -> std::result::Result<(), DeError> {
        let sum = Vec::<f64>::from_value(v.field("sum")?)?;
        let prod = Vec::<f64>::from_value(v.field("prod")?)?;
        if sum.len() != self.sum.len() || prod.len() != self.prod.len() {
            return Err(DeError(format!(
                "rolling sums sized {}/{} for {}/{}",
                sum.len(),
                prod.len(),
                self.sum.len(),
                self.prod.len()
            )));
        }
        let len = usize::from_value(v.field("len")?)?;
        for (loads, t) in history.window(len, self.window)? {
            self.ingress.push_back(loads.ingress.iter().sum());
            self.buf.push_back(t);
        }
        self.sum = sum;
        self.prod = prod;
        self.ingress_sum = f64::from_value(v.field("ingress_sum")?)?;
        self.pushes = usize::from_value(v.field("pushes")?)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_matrix() -> Csr {
        // 3 links, 3 demands: d0 on l0,l1; d1 on l1,l2; d2 on l2.
        Csr::from_triplets(
            3,
            3,
            vec![
                (0, 0, 1.0),
                (1, 0, 1.0),
                (1, 1, 1.0),
                (2, 1, 1.0),
                (2, 2, 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn second_moment_rows_cover_shared_links() {
        let a = chain_matrix();
        let sys = SecondMomentSystem::build(&a);
        // Shared pairs: (0,0) d0; (0,1) d0; (1,1) d0,d1; (1,2) d1; (2,2) d1,d2.
        assert!(sys.rows.contains(&(0, 0)));
        assert!(sys.rows.contains(&(0, 1)));
        assert!(sys.rows.contains(&(1, 1)));
        assert!(sys.rows.contains(&(1, 2)));
        assert!(sys.rows.contains(&(2, 2)));
        // (0,2): no demand crosses both -> no row.
        assert!(!sys.rows.contains(&(0, 2)));
        assert_eq!(sys.rows.len(), 5);
    }

    #[test]
    fn poisson_theory_matches_matrix() {
        // For Poisson λ, Cov t = A diag(λ) Aᵀ; check M·λ equals that.
        let a = chain_matrix();
        let sys = SecondMomentSystem::build(&a);
        let lambda = vec![2.0, 3.0, 5.0];
        let mlambda = sys.matrix.matvec(&lambda);
        let ad = a.to_dense();
        for (r, &(i, j)) in sys.rows.iter().enumerate() {
            let mut expect = 0.0;
            for p in 0..3 {
                expect += ad.get(i, p) * ad.get(j, p) * lambda[p];
            }
            assert!((mlambda[r] - expect).abs() < 1e-12, "row {r} ({i},{j})");
        }
    }

    #[test]
    fn sample_moments_on_synthetic_poisson() {
        use tm_traffic::series::poisson_series;
        let a = chain_matrix();
        let sys = SecondMomentSystem::build(&a);
        let lambda = vec![50.0, 80.0, 20.0];
        let series = poisson_series(&lambda, 20_000, 3).unwrap();
        let loads: Vec<Vec<f64>> = series.samples.iter().map(|s| a.matvec(s)).collect();
        let m = sys.sample_moments(&loads).unwrap();
        // Mean ≈ A λ.
        let alam = a.matvec(&lambda);
        for i in 0..3 {
            assert!(
                (m.mean[i] - alam[i]).abs() / alam[i] < 0.05,
                "mean {i}: {} vs {}",
                m.mean[i],
                alam[i]
            );
        }
        // Covariance ≈ M λ.
        let mlam = sys.matrix.matvec(&lambda);
        for (r, &v) in m.cov_vech.iter().enumerate() {
            assert!(
                (v - mlam[r]).abs() / mlam[r].max(1.0) < 0.2,
                "cov row {r}: {} vs {}",
                v,
                mlam[r]
            );
        }
    }

    #[test]
    fn rejects_short_series() {
        let a = chain_matrix();
        let sys = SecondMomentSystem::build(&a);
        assert!(sys.sample_moments(&[vec![1.0, 2.0, 3.0]]).is_err());
    }
}
