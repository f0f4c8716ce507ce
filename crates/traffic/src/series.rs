//! 24-hour demand time series at 5-minute resolution.
//!
//! Combines the pieces the paper's data analysis identifies:
//!
//! * per-node diurnal activity with small time-zone phase offsets
//!   (total-traffic curves of Fig. 1),
//! * slowly varying fanouts, *more stable than the demands themselves*
//!   for large sources (Figs. 4–5, §5.2.2) — modeled as AR(1) jitter on
//!   log-fanouts whose amplitude shrinks with source volume,
//! * 5-minute measurement fluctuation following the mean–variance
//!   scaling law `Var{s̃} = φ·λ̃^c` in normalized units (Fig. 6, §5.2.3),
//! * an exact-Poisson variant for the Fig. 12 synthetic study.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tm_net::OdPairs;

use crate::diurnal::DiurnalProfile;
use crate::error::TrafficError;
use crate::sampler;
use crate::structure::{DemandStructure, TrafficSpec};
use crate::Result;

/// AR(1) persistence of the log-fanout jitter between consecutive
/// 5-minute samples (fanouts drift slowly rather than jumping).
const FANOUT_AR1_RHO: f64 = 0.97;

/// A generated demand time series.
#[derive(Debug, Clone)]
pub struct DemandSeries {
    /// `samples[k][p]` = demand of OD pair `p` at interval `k`, in Mbps.
    pub samples: Vec<Vec<f64>>,
    /// Underlying (noise-free) mean rate per sample, same layout.
    pub mean_rates: Vec<Vec<f64>>,
    /// Sampling interval in seconds (the paper polls every 300 s).
    pub interval_s: u32,
    /// Normalization constant: maximum total traffic over the series
    /// (all published plots are scaled by this, §5.1.4).
    pub normalization: f64,
}

impl DemandSeries {
    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when the series has no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Total network traffic per sample.
    pub fn totals(&self) -> Vec<f64> {
        self.samples.iter().map(|s| s.iter().sum::<f64>()).collect()
    }

    /// Mean demand vector over a window of samples.
    pub fn window_mean(&self, start: usize, len: usize) -> Result<Vec<f64>> {
        if start + len > self.samples.len() || len == 0 {
            return Err(TrafficError::Dimension(format!(
                "window [{start}, {start}+{len}) outside series of {}",
                self.samples.len()
            )));
        }
        let p = self.samples[0].len();
        let mut mean = vec![0.0; p];
        for k in start..start + len {
            for (j, &v) in self.samples[k].iter().enumerate() {
                mean[j] += v;
            }
        }
        for v in &mut mean {
            *v /= len as f64;
        }
        Ok(mean)
    }

    /// Fanout factors per sample: `α_nm[k] = s_nm[k] / Σ_m s_nm[k]`.
    pub fn fanouts_at(&self, k: usize, n_nodes: usize) -> Result<Vec<f64>> {
        let pairs = OdPairs::new(n_nodes);
        let sample = self
            .samples
            .get(k)
            .ok_or_else(|| TrafficError::Dimension(format!("sample {k} out of range")))?;
        if sample.len() != pairs.count() {
            return Err(TrafficError::Dimension(format!(
                "sample has {} entries for {} pairs",
                sample.len(),
                pairs.count()
            )));
        }
        let mut out_tot = vec![0.0; n_nodes];
        for (p, src, _) in pairs.iter() {
            out_tot[src.0] += sample[p];
        }
        let mut alpha = vec![0.0; pairs.count()];
        for (p, src, _) in pairs.iter() {
            if out_tot[src.0] > 0.0 {
                alpha[p] = sample[p] / out_tot[src.0];
            }
        }
        Ok(alpha)
    }
}

/// Generate a demand series for a structure.
///
/// `n_samples` is typically 288 (24 h × 5 min). The structure's mean
/// demands are interpreted as the *peak-time* matrix; activity scales
/// every source's total down toward the night floor away from its peak.
pub fn generate_series(
    structure: &DemandStructure,
    spec: &TrafficSpec,
    n_samples: usize,
    seed: u64,
) -> Result<DemandSeries> {
    spec.validate()?;
    if n_samples == 0 {
        return Err(TrafficError::InvalidSpec("n_samples == 0".into()));
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7365_7269_6573);
    let pairs = structure.pairs();
    let n = structure.n_nodes;
    let p_count = pairs.count();

    // Per-node diurnal profiles with a mild time-zone spread.
    let base = DiurnalProfile {
        peak_gmt_hour: spec.peak_gmt_hour,
        width_hours: spec.diurnal_width_hours,
        floor: spec.night_floor,
    };
    let profiles: Vec<DiurnalProfile> = (0..n)
        .map(|_| base.shifted(sampler::normal(&mut rng, 0.0, 0.75)))
        .collect();

    // Outgoing totals and base fanouts at the peak.
    let mut out_tot = vec![0.0; n];
    for (p, src, _) in pairs.iter() {
        out_tot[src.0] += structure.mean_demands[p];
    }
    let alpha0 = structure.fanouts();

    // Fanout jitter amplitude per source: interpolate between the large-
    // and small-source settings by volume rank.
    let order = structure.sources_by_volume();
    let mut sigma_f = vec![0.0; n];
    for (rank, node) in order.iter().enumerate() {
        let t = if n > 1 {
            rank as f64 / (n - 1) as f64
        } else {
            0.0
        };
        sigma_f[node.0] =
            spec.fanout_jitter_large + t * (spec.fanout_jitter_small - spec.fanout_jitter_large);
    }

    // Rough normalization for the scaling-law noise: total at peak.
    let total_peak: f64 = structure.total();

    let mut z = vec![0.0f64; p_count]; // AR(1) log-fanout state
    let mut samples = Vec::with_capacity(n_samples);
    let mut mean_rates = Vec::with_capacity(n_samples);

    for k in 0..n_samples {
        // Advance the fanout jitter.
        for (p, src, _) in pairs.iter() {
            let innovation = sampler::standard_normal(&mut rng);
            z[p] = FANOUT_AR1_RHO * z[p]
                + (1.0 - FANOUT_AR1_RHO * FANOUT_AR1_RHO).sqrt() * sigma_f[src.0] * innovation;
        }
        // Jittered fanouts, renormalized per source.
        let mut alpha = vec![0.0; p_count];
        let mut norm = vec![0.0; n];
        for (p, src, _) in pairs.iter() {
            let v = alpha0[p] * z[p].exp();
            alpha[p] = v;
            norm[src.0] += v;
        }
        for (p, src, _) in pairs.iter() {
            if norm[src.0] > 0.0 {
                alpha[p] /= norm[src.0];
            }
        }

        // Mean rates and noisy measurements.
        let mut rate = vec![0.0; p_count];
        let mut meas = vec![0.0; p_count];
        for (p, src, _) in pairs.iter() {
            let activity = profiles[src.0].activity_at_sample(k, n_samples);
            let lambda = out_tot[src.0] * activity * alpha[p];
            rate[p] = lambda;
            let lam_norm = lambda / total_peak;
            let std_norm = (spec.phi * lam_norm.powf(spec.c)).sqrt();
            let noise = sampler::standard_normal(&mut rng) * std_norm * total_peak;
            meas[p] = (lambda + noise).max(0.0);
        }
        mean_rates.push(rate);
        samples.push(meas);
    }

    let normalization = samples
        .iter()
        .map(|s| s.iter().sum::<f64>())
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);

    Ok(DemandSeries {
        samples,
        mean_rates,
        interval_s: 300,
        normalization,
    })
}

/// Exact-Poisson synthetic series for the Fig. 12 study: each sample has
/// independent `Poisson(λ_p)` demands (interpreted in Mbps), with the
/// rate vector fixed over time.
pub fn poisson_series(lambda: &[f64], n_samples: usize, seed: u64) -> Result<DemandSeries> {
    if lambda.iter().any(|&v| v < 0.0 || !v.is_finite()) {
        return Err(TrafficError::InvalidSpec(
            "poisson series: rates must be finite and nonnegative".into(),
        ));
    }
    if n_samples == 0 {
        return Err(TrafficError::InvalidSpec("n_samples == 0".into()));
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x706f_6973_736f_6e21);
    let mut samples = Vec::with_capacity(n_samples);
    for _ in 0..n_samples {
        let s: Vec<f64> = lambda
            .iter()
            .map(|&l| sampler::poisson(&mut rng, l) as f64)
            .collect();
        samples.push(s);
    }
    let normalization = samples
        .iter()
        .map(|s| s.iter().sum::<f64>())
        .fold(0.0f64, f64::max)
        .max(f64::MIN_POSITIVE);
    Ok(DemandSeries {
        mean_rates: vec![lambda.to_vec(); n_samples],
        samples,
        interval_s: 300,
        normalization,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diurnal::busiest_window;
    use tm_linalg::stats;

    fn europe_series(seed: u64) -> (DemandStructure, DemandSeries) {
        let spec = TrafficSpec::europe();
        let s = DemandStructure::generate(12, &spec, seed).unwrap();
        let series = generate_series(&s, &spec, 288, seed).unwrap();
        (s, series)
    }

    #[test]
    fn series_shape_and_nonnegativity() {
        let (_, series) = europe_series(1);
        assert_eq!(series.len(), 288);
        assert_eq!(series.samples[0].len(), 132);
        assert!(series
            .samples
            .iter()
            .all(|s| s.iter().all(|&v| v >= 0.0 && v.is_finite())));
        assert_eq!(series.interval_s, 300);
        assert!(!series.is_empty());
    }

    #[test]
    fn diurnal_total_has_day_night_contrast() {
        let (_, series) = europe_series(2);
        let totals = series.totals();
        let max = totals.iter().cloned().fold(0.0f64, f64::max);
        let min = totals.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(
            min / max < 0.7,
            "night should be well below peak: {}",
            min / max
        );
        // Busy window lands near the configured 17.5h peak.
        let start = busiest_window(&totals, 50);
        let center_hour = 24.0 * (start as f64 + 25.0) / 288.0;
        assert!(
            (14.0..22.0).contains(&center_hour),
            "busy center at {center_hour}h"
        );
    }

    #[test]
    fn busy_window_mean_tracks_structure() {
        let (structure, series) = europe_series(3);
        let totals = series.totals();
        let start = busiest_window(&totals, 50);
        let mean = series.window_mean(start, 50).unwrap();
        // Correlation between the structure matrix and the busy-hour mean
        // should be very high (same spatial pattern).
        let fit = stats::linear_fit(&structure.mean_demands, &mean).unwrap();
        assert!(fit.r_squared > 0.95, "r² {}", fit.r_squared);
    }

    #[test]
    fn mean_variance_fit_recovers_exponent() {
        let spec = TrafficSpec::europe();
        let s = DemandStructure::generate(12, &spec, 4).unwrap();
        let series = generate_series(&s, &spec, 288, 4).unwrap();
        let totals = series.totals();
        let start = busiest_window(&totals, 50);
        let window: Vec<Vec<f64>> = series.samples[start..start + 50].to_vec();
        let mean = stats::mean_vector(&window).unwrap();
        let var = stats::variance_vector(&window).unwrap();
        // Normalize by the series normalization as the paper does.
        let s0 = series.normalization;
        let mean_n: Vec<f64> = mean.iter().map(|v| v / s0).collect();
        let var_n: Vec<f64> = var.iter().map(|v| v / (s0 * s0)).collect();
        let fit = stats::power_law_fit(&mean_n, &var_n).unwrap();
        assert!(
            (fit.c - spec.c).abs() < 0.35,
            "fitted c {} vs target {}",
            fit.c,
            spec.c
        );
        assert!(fit.r_squared > 0.6, "r² {}", fit.r_squared);
    }

    #[test]
    fn fanouts_more_stable_than_demands_for_large_sources() {
        // §5.2.2: coefficient of variation of fanouts << CV of demands
        // for the largest source.
        let (structure, series) = europe_series(5);
        let n = structure.n_nodes;
        let pairs = structure.pairs();
        let largest = structure.sources_by_volume()[0];
        let from = pairs.from_source(largest);
        // Collect demand and fanout trajectories for the largest pair.
        let p_big = *from
            .iter()
            .max_by(|&&a, &&b| {
                structure.mean_demands[a]
                    .partial_cmp(&structure.mean_demands[b])
                    .unwrap()
            })
            .unwrap();
        let mut demand_traj = Vec::new();
        let mut fanout_traj = Vec::new();
        for k in 0..series.len() {
            demand_traj.push(series.samples[k][p_big]);
            let alpha = series.fanouts_at(k, n).unwrap();
            fanout_traj.push(alpha[p_big]);
        }
        let cv = |xs: &[f64]| {
            let m = xs.iter().sum::<f64>() / xs.len() as f64;
            let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
            v.sqrt() / m
        };
        assert!(
            cv(&fanout_traj) < 0.5 * cv(&demand_traj),
            "fanout CV {} should be well below demand CV {}",
            cv(&fanout_traj),
            cv(&demand_traj)
        );
    }

    #[test]
    fn window_mean_bounds_checked() {
        let (_, series) = europe_series(6);
        assert!(series.window_mean(280, 50).is_err());
        assert!(series.window_mean(0, 0).is_err());
        assert!(series.window_mean(0, 288).is_ok());
    }

    #[test]
    fn fanouts_at_validates() {
        let (_, series) = europe_series(7);
        assert!(series.fanouts_at(500, 12).is_err());
        assert!(series.fanouts_at(0, 11).is_err());
        let alpha = series.fanouts_at(0, 12).unwrap();
        // Sums to 1 per source.
        let pairs = OdPairs::new(12);
        for nsrc in 0..12 {
            let sum: f64 = pairs
                .from_source(tm_net::NodeId(nsrc))
                .iter()
                .map(|&p| alpha[p])
                .sum();
            assert!((sum - 1.0).abs() < 1e-9, "source {nsrc}: {sum}");
        }
    }

    #[test]
    fn poisson_series_moments() {
        let lambda = vec![100.0, 5.0, 0.0];
        let series = poisson_series(&lambda, 4000, 8).unwrap();
        let mean = stats::mean_vector(&series.samples).unwrap();
        let var = stats::variance_vector(&series.samples).unwrap();
        for j in 0..3 {
            assert!(
                (mean[j] - lambda[j]).abs() < 0.12 * lambda[j].max(1.0),
                "mean {}",
                mean[j]
            );
            assert!(
                (var[j] - lambda[j]).abs() < 0.12 * lambda[j].max(1.0),
                "var {}",
                var[j]
            );
        }
        assert!(poisson_series(&[-1.0], 10, 1).is_err());
        assert!(poisson_series(&[1.0], 0, 1).is_err());
    }

    #[test]
    fn deterministic_in_seed() {
        let (_, a) = europe_series(11);
        let (_, b) = europe_series(11);
        assert_eq!(a.samples, b.samples);
    }
}
