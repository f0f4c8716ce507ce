//! Config-driven fault injection for the SNMP simulator.
//!
//! Real SNMP collection is dirty in a handful of recurring ways:
//! datagrams vanish, 32-bit counters wrap mid-interval, devices reboot
//! and clear their counters, overloaded agents serve stale cached
//! values, and buggy line cards report noisy octet counts. A
//! [`FaultPlan`] describes a deterministic schedule of such faults;
//! [`crate::sim::run_collection`] applies it as a post-pass over the
//! raw reading log, *after* polling but *before* rate reconstruction —
//! exactly where a real collector would see the damage.
//!
//! Determinism: every stochastic fault (missing polls, noise) derives
//! its randomness from `FaultPlan::seed` and the `(boundary, object)`
//! coordinates through a splitmix64 hash, so results are bit-identical
//! across runs and thread schedules, and independent of the simulator's
//! own jitter/loss RNG stream.

use crate::counters::CounterMode;

/// One class of injected measurement fault.
///
/// `from`/`ticks` windows and `at` instants are in *boundary* units:
/// boundary `k` is the counter snapshot taken at time `k ·
/// interval_s`, so a series of `K` intervals has boundaries `0..=K`.
/// Out-of-range coordinates are clamped or ignored, never an error —
/// a plan written for a long day can be replayed on a short smoke run.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultSpec {
    /// Each delivered reading is independently dropped with this
    /// probability (on top of the simulator's own transport loss).
    MissingPolls {
        /// Per-reading drop probability in `[0, 1)`.
        probability: f64,
    },
    /// One LSP's readings vanish entirely for a window of boundaries —
    /// an interface down or a poller that lost its route.
    Outage {
        /// Affected object (global LSP index).
        lsp: usize,
        /// First affected boundary.
        from: usize,
        /// Number of consecutive boundaries affected.
        ticks: usize,
    },
    /// One LSP's agent serves the same cached counter value for a
    /// window of boundaries (timestamps stay current): rates collapse
    /// to zero inside the window and spike at its end.
    StaleReadings {
        /// Affected object (global LSP index).
        lsp: usize,
        /// First boundary whose value is frozen and replayed.
        from: usize,
        /// Number of boundaries *after* `from` serving the frozen value.
        ticks: usize,
    },
    /// Re-bias one LSP's counter so it wraps at the word size exactly
    /// once, between boundaries `at − 1` and `at`. Deltas are
    /// preserved; only the representation wraps — the recoverable case.
    CounterWrap {
        /// Affected object (global LSP index).
        lsp: usize,
        /// Boundary immediately *after* the wrap (must be ≥ 1).
        at: usize,
    },
    /// The device reboots just after boundary `at − 1`: the counter
    /// restarts from zero, so boundary `at` and later report bytes
    /// accumulated since the reboot. The interval containing the reset
    /// is unrecoverable.
    CounterReset {
        /// Affected object (global LSP index).
        lsp: usize,
        /// First boundary reporting post-reset counts (must be ≥ 1).
        at: usize,
    },
    /// Additive noise on every reading in a window of boundaries:
    /// each counter is perturbed by `±relative_sigma` of the bytes it
    /// accumulated over the preceding interval. Small noise is
    /// *undetectable* per-reading — it surfaces only as conservation
    /// residual downstream.
    NoiseBurst {
        /// First affected boundary.
        from: usize,
        /// Number of consecutive boundaries affected.
        ticks: usize,
        /// Noise amplitude relative to the interval's byte delta (≥ 0).
        relative_sigma: f64,
    },
}

/// A deterministic schedule of measurement faults.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// Seed for the plan's own randomness (independent of the
    /// simulator seed, so the same fault schedule can replay over
    /// different jitter/loss realizations).
    pub seed: u64,
    /// Faults to apply, in order. Value-corrupting faults are applied
    /// before reading-dropping faults regardless of list order, so a
    /// dropped reading never resurrects with a corrupted value.
    pub faults: Vec<FaultSpec>,
}

impl FaultPlan {
    /// A plan with no faults (identity post-pass).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Validate field ranges; called by the simulator on entry.
    pub fn validate(&self) -> Result<(), String> {
        for f in &self.faults {
            match *f {
                FaultSpec::MissingPolls { probability } => {
                    if !(0.0..1.0).contains(&probability) {
                        return Err(format!(
                            "MissingPolls probability {probability} not in [0,1)"
                        ));
                    }
                }
                FaultSpec::NoiseBurst { relative_sigma, .. } => {
                    if !relative_sigma.is_finite() || relative_sigma < 0.0 {
                        return Err(format!(
                            "NoiseBurst relative_sigma {relative_sigma} invalid"
                        ));
                    }
                }
                FaultSpec::CounterWrap { at, .. } | FaultSpec::CounterReset { at, .. } => {
                    if at == 0 {
                        return Err(
                            "CounterWrap/CounterReset at=0 has no preceding interval".into()
                        );
                    }
                }
                FaultSpec::Outage { .. } | FaultSpec::StaleReadings { .. } => {}
            }
        }
        Ok(())
    }
}

/// splitmix64: the standard 64-bit finalizer-style mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Deterministic uniform in `[0, 1)` from a seed and two coordinates.
fn unit_hash(seed: u64, a: u64, b: u64) -> f64 {
    let h = splitmix64(seed ^ splitmix64(a.wrapping_mul(0x517C_C1B7_2722_0A95) ^ b));
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Raw reading log: `log[boundary][object] = Some((timestamp_ms,
/// wrapped_counter))`. Shared shape with the simulator.
pub(crate) type ReadingLog = Vec<Vec<Option<(u64, u64)>>>;

/// Apply `plan` to a reading log in place.
///
/// `truth[boundary][object]` is the unwrapped byte count at each
/// boundary (the simulator's ground truth), used to anchor wrap biases
/// and reset baselines; `mode` fixes the word size readings wrap at.
pub(crate) fn apply_fault_plan(
    plan: &FaultPlan,
    log: &mut ReadingLog,
    truth: &[Vec<f64>],
    mode: CounterMode,
) {
    let word: u128 = match mode {
        CounterMode::Counter32 => 1u128 << 32,
        CounterMode::Counter64 => 1u128 << 64,
    };
    let n_boundaries = log.len();
    let rewrap = |v: u128| -> u64 { (v % word) as u64 };

    // Pass 1: value corruption.
    for fault in &plan.faults {
        match *fault {
            FaultSpec::CounterWrap { lsp, at } => {
                if at == 0 || at >= n_boundaries {
                    continue;
                }
                // Bias every boundary of this LSP so the word-size
                // boundary falls midway between truth[at−1] and
                // truth[at]: deltas are untouched, the representation
                // wraps exactly once inside that interval.
                let Some((&t0, &t1)) = truth[at - 1].get(lsp).zip(truth[at].get(lsp)) else {
                    continue;
                };
                let mid = ((t0 + t1) / 2.0).round() as u128 % word;
                let bias = word - mid;
                for row in log.iter_mut() {
                    if let Some(Some((_, v))) = row.get_mut(lsp).map(Option::as_mut) {
                        *v = rewrap(*v as u128 + bias);
                    }
                }
            }
            FaultSpec::CounterReset { lsp, at } => {
                if at == 0 || at >= n_boundaries {
                    continue;
                }
                let Some(&base_truth) = truth[at - 1].get(lsp) else {
                    continue;
                };
                let base = base_truth.round() as u128 % word;
                for row in log.iter_mut().skip(at) {
                    if let Some(Some((_, v))) = row.get_mut(lsp).map(Option::as_mut) {
                        // Bytes since the reboot: subtract everything
                        // accumulated before it (mod word).
                        *v = rewrap(*v as u128 + word - base);
                    }
                }
            }
            FaultSpec::StaleReadings { lsp, from, ticks } => {
                let Some(Some((_, frozen))) = log.get(from).and_then(|row| row.get(lsp)).copied()
                else {
                    continue;
                };
                let end = from
                    .saturating_add(ticks)
                    .min(n_boundaries.saturating_sub(1));
                for row in log.iter_mut().take(end + 1).skip(from + 1) {
                    if let Some(Some((_, v))) = row.get_mut(lsp).map(Option::as_mut) {
                        *v = frozen;
                    }
                }
            }
            FaultSpec::NoiseBurst {
                from,
                ticks,
                relative_sigma,
            } => {
                let end = from.saturating_add(ticks).min(n_boundaries);
                for k in from..end {
                    for p in 0..log[k].len() {
                        if let Some((_, v)) = log[k][p].as_mut() {
                            let delta = if k > 0 {
                                (truth[k][p] - truth[k - 1][p]).max(0.0)
                            } else {
                                0.0
                            };
                            let u = 2.0 * unit_hash(plan.seed ^ 0xA5A5, k as u64, p as u64) - 1.0;
                            let noise = (u * relative_sigma * delta).round();
                            let biased = (*v as f64 + noise).max(0.0) as u128;
                            *v = rewrap(biased);
                        }
                    }
                }
            }
            FaultSpec::MissingPolls { .. } | FaultSpec::Outage { .. } => {}
        }
    }

    // Pass 2: reading removal.
    for fault in &plan.faults {
        match *fault {
            FaultSpec::MissingPolls { probability } => {
                for (k, row) in log.iter_mut().enumerate() {
                    for (p, cell) in row.iter_mut().enumerate() {
                        if cell.is_some() && unit_hash(plan.seed, k as u64, p as u64) < probability
                        {
                            *cell = None;
                        }
                    }
                }
            }
            FaultSpec::Outage { lsp, from, ticks } => {
                let end = from.saturating_add(ticks).min(n_boundaries);
                for row in log.iter_mut().take(end).skip(from) {
                    if lsp < row.len() {
                        row[lsp] = None;
                    }
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A clean 5-boundary, 2-object log with 100-byte deltas on object
    /// 0 and 1000-byte deltas on object 1.
    fn clean_log() -> (ReadingLog, Vec<Vec<f64>>) {
        let truth: Vec<Vec<f64>> = (0..5)
            .map(|k| vec![100.0 * k as f64, 1000.0 * k as f64])
            .collect();
        let log = truth
            .iter()
            .enumerate()
            .map(|(k, row)| {
                row.iter()
                    .map(|&v| Some((k as u64 * 300_000, v as u64)))
                    .collect()
            })
            .collect();
        (log, truth)
    }

    fn plan(faults: Vec<FaultSpec>) -> FaultPlan {
        FaultPlan { seed: 42, faults }
    }

    #[test]
    fn missing_polls_drops_deterministically() {
        let (mut a, truth) = clean_log();
        let mut b = a.clone();
        let p = plan(vec![FaultSpec::MissingPolls { probability: 0.5 }]);
        apply_fault_plan(&p, &mut a, &truth, CounterMode::Counter64);
        apply_fault_plan(&p, &mut b, &truth, CounterMode::Counter64);
        assert_eq!(a, b, "hash-driven drops must be deterministic");
        let dropped = a
            .iter()
            .flat_map(|row| row.iter())
            .filter(|c| c.is_none())
            .count();
        assert!(dropped > 0, "p=0.5 over 10 cells should drop something");
        assert!(dropped < 10, "p=0.5 should not drop everything");
    }

    #[test]
    fn outage_clears_exactly_the_window() {
        let (mut log, truth) = clean_log();
        let p = plan(vec![FaultSpec::Outage {
            lsp: 1,
            from: 1,
            ticks: 2,
        }]);
        apply_fault_plan(&p, &mut log, &truth, CounterMode::Counter64);
        for (k, row) in log.iter().enumerate() {
            assert!(row[0].is_some(), "object 0 untouched");
            assert_eq!(row[1].is_none(), (1..3).contains(&k), "boundary {k}");
        }
    }

    #[test]
    fn stale_readings_freeze_then_release() {
        let (mut log, truth) = clean_log();
        let p = plan(vec![FaultSpec::StaleReadings {
            lsp: 0,
            from: 1,
            ticks: 2,
        }]);
        apply_fault_plan(&p, &mut log, &truth, CounterMode::Counter64);
        let frozen = log[1][0].unwrap().1;
        assert_eq!(log[2][0].unwrap().1, frozen);
        assert_eq!(log[3][0].unwrap().1, frozen);
        assert_eq!(log[4][0].unwrap().1, 400, "past the window: live again");
        assert_eq!(log[2][1].unwrap().1, 2000, "other object untouched");
    }

    #[test]
    fn counter_wrap_preserves_deltas_and_wraps_once() {
        let (mut log, truth) = clean_log();
        let p = plan(vec![FaultSpec::CounterWrap { lsp: 0, at: 2 }]);
        apply_fault_plan(&p, &mut log, &truth, CounterMode::Counter64);
        let vals: Vec<u64> = log.iter().map(|row| row[0].unwrap().1).collect();
        let wraps = vals.windows(2).filter(|w| w[1] < w[0]).count();
        assert_eq!(wraps, 1, "exactly one representation wrap: {vals:?}");
        assert!(vals[2] < vals[1], "the wrap is between boundaries 1 and 2");
        // Deltas mod 2^64 are preserved: wrap-corrected recovery is exact.
        for (k, w) in vals.windows(2).enumerate() {
            let delta = w[1].wrapping_sub(w[0]);
            assert_eq!(delta, 100, "boundary {k}");
        }
    }

    #[test]
    fn counter_reset_rebases_the_tail() {
        let (mut log, truth) = clean_log();
        let p = plan(vec![FaultSpec::CounterReset { lsp: 0, at: 2 }]);
        apply_fault_plan(&p, &mut log, &truth, CounterMode::Counter64);
        let vals: Vec<u64> = log.iter().map(|row| row[0].unwrap().1).collect();
        assert_eq!(&vals[..2], &[0, 100], "pre-reset untouched");
        // Post-reset: bytes since boundary 1 (the reboot instant).
        assert_eq!(&vals[2..], &[100, 200, 300]);
        assert!(
            vals[2] < vals[1] || vals[1] == vals[2],
            "decrease or tie at the reset"
        );
    }

    #[test]
    fn noise_burst_perturbs_only_the_window() {
        let (mut log, truth) = clean_log();
        let clean = log.clone();
        let p = plan(vec![FaultSpec::NoiseBurst {
            from: 2,
            ticks: 2,
            relative_sigma: 0.5,
        }]);
        apply_fault_plan(&p, &mut log, &truth, CounterMode::Counter64);
        for k in [0usize, 1, 4] {
            assert_eq!(log[k], clean[k], "boundary {k} outside the burst");
        }
        let perturbed = (2..4)
            .flat_map(|k| (0..2).map(move |p| (k, p)))
            .filter(|&(k, p)| log[k][p] != clean[k][p])
            .count();
        assert!(perturbed > 0, "σ=0.5 of the delta must move something");
        // Bounded: each perturbation ≤ σ · interval delta.
        for k in 2..4 {
            for p in 0..2 {
                let diff = log[k][p].unwrap().1 as f64 - clean[k][p].unwrap().1 as f64;
                let delta = truth[k][p] - truth[k - 1][p];
                assert!(diff.abs() <= 0.5 * delta + 1.0, "k={k} p={p}: {diff}");
            }
        }
    }

    #[test]
    fn out_of_range_coordinates_are_ignored() {
        let (mut log, truth) = clean_log();
        let clean = log.clone();
        let p = plan(vec![
            FaultSpec::CounterWrap { lsp: 0, at: 99 },
            FaultSpec::CounterReset { lsp: 0, at: 0 },
            FaultSpec::Outage {
                lsp: 1,
                from: 99,
                ticks: 5,
            },
            FaultSpec::StaleReadings {
                lsp: 0,
                from: 99,
                ticks: 5,
            },
        ]);
        apply_fault_plan(&p, &mut log, &truth, CounterMode::Counter64);
        assert_eq!(log, clean);
    }

    #[test]
    fn validation_rejects_bad_fields() {
        assert!(plan(vec![FaultSpec::MissingPolls { probability: 1.5 }])
            .validate()
            .is_err());
        assert!(plan(vec![FaultSpec::NoiseBurst {
            from: 0,
            ticks: 1,
            relative_sigma: -1.0,
        }])
        .validate()
        .is_err());
        assert!(plan(vec![FaultSpec::CounterWrap { lsp: 0, at: 0 }])
            .validate()
            .is_err());
        assert!(plan(vec![FaultSpec::Outage {
            lsp: 0,
            from: 0,
            ticks: 1,
        }])
        .validate()
        .is_ok());
        assert!(FaultPlan::none().validate().is_ok());
    }
}
