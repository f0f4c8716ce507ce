//! The distributed polling simulation.
//!
//! Mirrors the paper's collection infrastructure (§5.1.2): a
//! geographically distributed set of pollers, each polling a dedicated
//! subset of routers every 5 minutes over an unreliable (UDP-like)
//! channel, with response-time jitter, rate adjustment by the actual
//! interval length, failover to a backup poller, and reliable transfer
//! into a central database.
//!
//! Pollers run on scoped OS threads connected by `std::sync::mpsc`
//! channels (blocking message-passing is exactly the shape the async
//! guides recommend *not* putting on an async runtime). Determinism:
//! every poller derives its RNG from the master seed and its own id,
//! routers are partitioned statically, and the central database orders
//! readings by `(interval, object)` — so results are bit-identical
//! across runs and thread schedules.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::{mpsc, Mutex};

use crate::counters::{recover_rate, CounterMode, RateSample, DEFAULT_MAX_RATE_MBPS};
use crate::error::CollectError;
use crate::fault::{apply_fault_plan, FaultPlan};
use crate::wire::{PollRequest, PollResponse};
use crate::Result;

/// Configuration of the measurement pipeline.
#[derive(Debug, Clone)]
pub struct CollectionConfig {
    /// Nominal polling interval in seconds (300 = 5 minutes).
    pub interval_s: f64,
    /// Maximum response-time jitter in seconds (uniform in `[0, max]`).
    pub jitter_max_s: f64,
    /// Probability that a poll exchange is lost (UDP drop).
    pub loss_probability: f64,
    /// Number of poller processes (routers are partitioned round-robin).
    pub pollers: usize,
    /// Counter word size exposed by the agents.
    pub counter_mode: CounterMode,
    /// When a poll is lost, whether the neighbour poller retries it in
    /// the same interval (the paper's backup-poller arrangement).
    /// Ignored when `retry` is set.
    pub backup_poller: bool,
    /// Exponential-backoff retry with a per-link deadline. `None`
    /// keeps the legacy single-retry backup-poller model bit-identical.
    pub retry: Option<RetryPolicy>,
    /// Deterministic fault schedule applied to the raw reading log
    /// before rate reconstruction. `None` = clean collection.
    pub fault_plan: Option<FaultPlan>,
    /// Plausibility bound (Mbps) for wrap/reset disambiguation in rate
    /// recovery; see [`crate::counters::recover_rate`].
    pub max_rate_mbps: f64,
}

impl Default for CollectionConfig {
    fn default() -> Self {
        CollectionConfig {
            interval_s: 300.0,
            jitter_max_s: 5.0,
            loss_probability: 0.0,
            pollers: 4,
            counter_mode: CounterMode::Counter64,
            backup_poller: true,
            retry: None,
            fault_plan: None,
            max_rate_mbps: DEFAULT_MAX_RATE_MBPS,
        }
    }
}

/// Exponential-backoff polling retry with a per-link deadline.
///
/// Attempt `i` (0-based) is sent `base_backoff_s · (2^i − 1)` seconds
/// after the boundary (plus jitter); attempts whose send time would
/// exceed `deadline_s` are not made and the poll counts as lost. The
/// backoff delay shifts the reading's timestamp, so recovered rates are
/// adjusted for the *actual* measurement interval exactly like jitter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts including the first (≥ 1).
    pub max_attempts: usize,
    /// Backoff unit in seconds (doubles per retry).
    pub base_backoff_s: f64,
    /// Give-up deadline in seconds after the interval boundary.
    pub deadline_s: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff_s: 2.0,
            deadline_s: 30.0,
        }
    }
}

/// Provenance of one recovered rate cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellQuality {
    /// Forward counter delta between two adjacent boundary readings.
    Clean,
    /// Recovered through single-wrap correction.
    WrapCorrected,
    /// No bracketing reading pair: filled by spreading a multi-interval
    /// average or by interpolation.
    Interpolated,
    /// The bracketing reading pair was discarded (counter reset or
    /// implausible rate); the value is interpolated and untrustworthy.
    Suspect,
}

/// Result of running the pipeline over a demand series.
#[derive(Debug, Clone)]
pub struct CollectionResult {
    /// Recovered per-LSP rate series (`K−1 × P`): rates need two
    /// readings, so one fewer interval than counter snapshots.
    pub rates: Vec<Vec<f64>>,
    /// Number of (interval, router) polls lost after retries.
    pub lost_polls: usize,
    /// Number of rate cells filled by interpolation.
    pub interpolated: usize,
    /// Number of reading pairs recovered through single-wrap correction.
    pub wrap_corrected: usize,
    /// Number of reading pairs discarded as suspect (reset/implausible).
    pub suspect: usize,
    /// Per-cell provenance, same shape as `rates`.
    pub quality: Vec<Vec<CellQuality>>,
}

impl CollectionResult {
    /// Split the recovered feed **column-wise** into per-shard results —
    /// the fan-out step of the supervised daemon (`tm_daemon`), where
    /// each worker consumes only its own pairs' rate series. Ranges are
    /// over LSP (pair) indices and may overlap or leave gaps: a shard
    /// sees exactly the columns it asked for, in order.
    ///
    /// Counter semantics in the shards:
    /// * `interpolated` / `wrap_corrected` / `suspect` are recomputed
    ///   as **cell counts** from the shard's `quality` grid (the
    ///   parent's pair-based counts are not attributable to columns);
    /// * `lost_polls` counts whole `(interval, router)` polls and is
    ///   not column-attributable either — it is carried unchanged into
    ///   every shard as a global diagnostic, **not** additive across
    ///   shards.
    pub fn split_columns(&self, shards: &[std::ops::Range<usize>]) -> Result<Vec<Self>> {
        let p_count = self.rates.first().map_or(0, Vec::len);
        for r in shards {
            if r.start > r.end || r.end > p_count {
                return Err(CollectError::InvalidConfig(format!(
                    "shard range {}..{} out of bounds for {p_count} columns",
                    r.start, r.end
                )));
            }
        }
        Ok(shards
            .iter()
            .map(|r| {
                let rates: Vec<Vec<f64>> = self
                    .rates
                    .iter()
                    .map(|row| row[r.clone()].to_vec())
                    .collect();
                let quality: Vec<Vec<CellQuality>> = self
                    .quality
                    .iter()
                    .map(|row| row[r.clone()].to_vec())
                    .collect();
                let count = |q: CellQuality| quality.iter().flatten().filter(|&&c| c == q).count();
                CollectionResult {
                    rates,
                    lost_polls: self.lost_polls,
                    interpolated: count(CellQuality::Interpolated),
                    wrap_corrected: count(CellQuality::WrapCorrected),
                    suspect: count(CellQuality::Suspect),
                    quality,
                }
            })
            .collect())
    }
}

/// "Router": one agent per node, owning the counters of the LSPs that
/// originate there. Counters are modeled in *continuous time* — a poll
/// at timestamp `t` sees exactly the bytes sent up to `t`, which is what
/// makes the pipeline's jitter-adjusted rate division correct.
struct RouterAgent {
    router_id: u16,
    /// Object ids (global LSP indices) hosted on this router.
    objects: Vec<u32>,
    /// Cumulative true bytes per local object at each interval boundary.
    cumulative: Vec<Vec<f64>>,
    /// Bytes/second per local object within each interval.
    rate_bps: Vec<Vec<f64>>,
    interval_s: f64,
    mode: CounterMode,
}

impl RouterAgent {
    /// True byte counter of local object `local` at time `t_s`.
    fn bytes_at(&self, local: usize, t_s: f64) -> u64 {
        let k_len = self.rate_bps.len();
        let k = ((t_s / self.interval_s).floor() as usize).min(k_len.saturating_sub(1));
        let boundary = k as f64 * self.interval_s;
        // Past the series end, traffic continues at the last rate so the
        // final interval's jittered reading stays unbiased.
        let within = (t_s - boundary).max(0.0);
        let raw = self.cumulative[k][local] + self.rate_bps[k][local] * within;
        raw.round().max(0.0) as u64
    }

    fn respond(&self, req: &PollRequest, timestamp_ms: u64) -> PollResponse {
        let t_s = timestamp_ms as f64 / 1000.0;
        let readings = req
            .objects
            .iter()
            .map(|&o| {
                let local = self
                    .objects
                    .iter()
                    .position(|&x| x == o)
                    .expect("poller only asks for hosted objects");
                let truth = self.bytes_at(local, t_s);
                let wrapped = match self.mode {
                    CounterMode::Counter32 => truth & 0xFFFF_FFFF,
                    CounterMode::Counter64 => truth,
                };
                (o, wrapped)
            })
            .collect();
        PollResponse {
            router_id: self.router_id,
            seq: req.seq,
            timestamp_ms,
            readings,
        }
    }
}

/// Run the pipeline: `demands[k][p]` is the true rate (Mbps) of LSP `p`
/// during interval `k`; `host_of[p]` maps each LSP to its head-end
/// router (usually the OD pair's source node).
pub fn run_collection(
    demands: &[Vec<f64>],
    host_of: &[usize],
    n_routers: usize,
    config: &CollectionConfig,
    seed: u64,
) -> Result<CollectionResult> {
    if demands.is_empty() {
        return Err(CollectError::InvalidConfig("empty demand series".into()));
    }
    let p_count = demands[0].len();
    if host_of.len() != p_count {
        return Err(CollectError::InvalidConfig(format!(
            "host_of has {} entries for {} LSPs",
            host_of.len(),
            p_count
        )));
    }
    if host_of.iter().any(|&h| h >= n_routers) {
        return Err(CollectError::InvalidConfig("host id out of range".into()));
    }
    if config.pollers == 0 || config.interval_s <= 0.0 || config.jitter_max_s < 0.0 {
        return Err(CollectError::InvalidConfig(
            "pollers >= 1, interval > 0, jitter >= 0 required".into(),
        ));
    }
    if !(0.0..1.0).contains(&config.loss_probability) {
        return Err(CollectError::InvalidConfig(
            "loss probability must be in [0, 1)".into(),
        ));
    }
    if !config.max_rate_mbps.is_finite() || config.max_rate_mbps <= 0.0 {
        return Err(CollectError::InvalidConfig(
            "max_rate_mbps must be positive".into(),
        ));
    }
    if let Some(rp) = &config.retry {
        if rp.max_attempts == 0 || rp.base_backoff_s < 0.0 || rp.deadline_s <= 0.0 {
            return Err(CollectError::InvalidConfig(
                "retry: attempts >= 1, backoff >= 0, deadline > 0 required".into(),
            ));
        }
    }
    if let Some(plan) = &config.fault_plan {
        plan.validate().map_err(CollectError::InvalidConfig)?;
    }

    // Build router agents with their hosted objects.
    let mut objects_of: Vec<Vec<u32>> = vec![Vec::new(); n_routers];
    for (p, &h) in host_of.iter().enumerate() {
        objects_of[h].push(p as u32);
    }
    let k_len = demands.len();
    let agents: Vec<RouterAgent> = (0..n_routers)
        .map(|r| {
            let locals = &objects_of[r];
            // Per-interval byte rates and cumulative boundary counters.
            let mut rate_bps = Vec::with_capacity(k_len);
            let mut cumulative = vec![vec![0.0; locals.len()]];
            for dk in demands.iter() {
                let rates: Vec<f64> = locals
                    .iter()
                    .map(|&o| dk[o as usize].max(0.0) * 1e6 / 8.0)
                    .collect();
                let prev = cumulative.last().expect("nonempty").clone();
                let next: Vec<f64> = prev
                    .iter()
                    .zip(&rates)
                    .map(|(c, r)| c + r * config.interval_s)
                    .collect();
                rate_bps.push(rates);
                cumulative.push(next);
            }
            RouterAgent {
                router_id: r as u16,
                objects: locals.clone(),
                cumulative,
                rate_bps,
                interval_s: config.interval_s,
                mode: config.counter_mode,
            }
        })
        .collect();
    // Reading log: readings[k][p] = Some((timestamp_ms, counter)).
    type ReadingLog = Vec<Vec<Option<(u64, u64)>>>;
    let readings: Mutex<ReadingLog> = Mutex::new(vec![vec![None; p_count]; k_len + 1]);
    let mut lost_polls = 0usize;

    // Counter snapshot at t=0 (interval boundary 0) is polled before any
    // traffic, then once after each interval. We simulate boundary by
    // boundary; each boundary spawns the poller threads once. (Spawning
    // per boundary keeps the thread logic simple; the message mechanics
    // are identical.)
    for boundary in 0..=k_len {
        // Partition routers round-robin across pollers.
        let (tx_done, rx_done) = mpsc::channel::<usize>();
        std::thread::scope(|scope| {
            for poller in 0..config.pollers {
                let agents = &agents;
                let readings = &readings;
                let tx_done = tx_done.clone();
                let cfg = config.clone();
                scope.spawn(move || {
                    let mut lost_here = 0usize;
                    let mut rng = StdRng::seed_from_u64(
                        seed ^ (boundary as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
                            ^ (poller as u64),
                    );
                    for r in (poller..agents.len()).step_by(cfg.pollers) {
                        let agent = &agents[r];
                        if agent.objects.is_empty() {
                            continue;
                        }
                        // Attempt schedule: either the legacy
                        // primary-plus-backup-poller pair, or
                        // exponential backoff under a per-link
                        // deadline. Each entry is (attempt index,
                        // delay after the boundary in seconds).
                        let schedule: Vec<(usize, f64)> = match &cfg.retry {
                            Some(rp) => (0..rp.max_attempts)
                                .map(|i| (i, rp.base_backoff_s * ((1u64 << i) as f64 - 1.0)))
                                .take_while(|&(_, delay)| delay <= rp.deadline_s)
                                .collect(),
                            None => {
                                let attempts = if cfg.backup_poller { 2 } else { 1 };
                                (0..attempts).map(|i| (i, 0.0)).collect()
                            }
                        };
                        let mut delivered = false;
                        for (attempt, delay_s) in schedule {
                            if rng.random::<f64>() < cfg.loss_probability {
                                continue; // datagram lost
                            }
                            let jitter = rng.random::<f64>() * cfg.jitter_max_s;
                            let ts_ms = ((boundary as f64 * cfg.interval_s + delay_s + jitter)
                                * 1000.0) as u64;
                            let req = PollRequest {
                                poller_id: (poller + attempt * cfg.pollers) as u16,
                                router_id: agent.router_id,
                                seq: boundary as u32,
                                objects: agent.objects.clone(),
                            };
                            // Encode/decode both directions: the wire
                            // codec is exercised on every poll.
                            let req = PollRequest::decode(&req.encode())
                                .expect("self-encoded request decodes");
                            let resp = agent.respond(&req, ts_ms);
                            let resp = PollResponse::decode(&resp.encode())
                                .expect("self-encoded response decodes");
                            let mut log = readings.lock().expect("reading log never poisoned");
                            for (o, v) in resp.readings {
                                log[boundary][o as usize] = Some((resp.timestamp_ms, v));
                            }
                            delivered = true;
                            break;
                        }
                        if !delivered {
                            lost_here += 1;
                        }
                    }
                    tx_done.send(lost_here).expect("collector alive");
                });
            }
            drop(tx_done);
        });
        lost_polls += rx_done.iter().sum::<usize>();
    }

    // Fault injection: corrupt/drop readings in the raw log exactly as
    // a dirty network would, before the central database sees them.
    if let Some(plan) = &config.fault_plan {
        // Ground-truth unwrapped bytes at each boundary, reassembled
        // from the per-router cumulative series.
        let mut truth = vec![vec![0.0f64; p_count]; k_len + 1];
        for agent in &agents {
            for (local, &o) in agent.objects.iter().enumerate() {
                for (boundary, row) in truth.iter_mut().enumerate() {
                    row[o as usize] = agent.cumulative[boundary][local];
                }
            }
        }
        let mut log = readings.lock().expect("reading log never poisoned");
        apply_fault_plan(plan, &mut log, &truth, config.counter_mode);
    }

    // Central database: reconstruct rates between consecutive *available*
    // readings. A gap of g missed boundaries still yields the average
    // rate over the covered span (counters are cumulative), spread across
    // its intervals and counted as interpolated. Suspect pairs (reset,
    // implausible rate) contribute no value: their span is left for
    // interpolation and tagged so downstream estimators can mask it.
    let log = readings.lock().expect("reading log never poisoned");
    let mut rates = vec![vec![f64::NAN; p_count]; k_len];
    let mut quality = vec![vec![CellQuality::Interpolated; p_count]; k_len];
    let mut interpolated = 0usize;
    let mut wrap_corrected = 0usize;
    let mut suspect = 0usize;
    for p in 0..p_count {
        let avail: Vec<(usize, u64, u64)> = (0..=k_len)
            .filter_map(|k| log[k][p].map(|(ts, c)| (k, ts, c)))
            .collect();
        if avail.len() < 2 {
            return Err(CollectError::Unrecoverable(format!(
                "LSP {p}: fewer than two polls delivered"
            )));
        }
        for w in avail.windows(2) {
            let (k0, ts0, c0) = w[0];
            let (k1, ts1, c1) = w[1];
            let actual_s = (ts1 as f64 - ts0 as f64) / 1000.0;
            let dt = if actual_s > 0.0 {
                actual_s
            } else {
                config.interval_s * (k1 - k0) as f64
            };
            let sample = recover_rate(c0, c1, config.counter_mode, dt, config.max_rate_mbps);
            let pair_quality = match sample {
                RateSample::Clean(_) if k1 - k0 == 1 => CellQuality::Clean,
                RateSample::Clean(_) => CellQuality::Interpolated,
                RateSample::WrapCorrected(_) => {
                    wrap_corrected += 1;
                    CellQuality::WrapCorrected
                }
                RateSample::Suspect(_) => {
                    suspect += 1;
                    CellQuality::Suspect
                }
            };
            for k in k0..k1 {
                if let Some(avg) = sample.rate() {
                    rates[k][p] = avg;
                }
                quality[k][p] = pair_quality;
            }
            if k1 - k0 > 1 && sample.is_usable() {
                interpolated += k1 - k0;
            }
        }
    }
    drop(log);

    // Leading/trailing spans with no bracketing readings, plus spans
    // voided by suspect pairs: nearest value / linear interpolation.
    for p in 0..p_count {
        let col: Vec<f64> = rates.iter().map(|row| row[p]).collect();
        if col.iter().any(|v| v.is_nan()) {
            if col.iter().all(|v| v.is_nan()) {
                // Every reading pair was discarded as suspect: there is
                // no anchor to interpolate from. Report zero, tagged.
                for k in 0..k_len {
                    rates[k][p] = 0.0;
                    quality[k][p] = CellQuality::Suspect;
                    interpolated += 1;
                }
                continue;
            }
            let filled = interpolate_gaps(&col);
            for k in 0..k_len {
                if col[k].is_nan() {
                    interpolated += 1;
                    if quality[k][p] != CellQuality::Suspect {
                        quality[k][p] = CellQuality::Interpolated;
                    }
                }
                rates[k][p] = filled[k];
            }
        }
    }

    Ok(CollectionResult {
        rates,
        lost_polls,
        interpolated,
        wrap_corrected,
        suspect,
        quality,
    })
}

/// Fill NaN runs by linear interpolation (nearest value at the edges).
fn interpolate_gaps(x: &[f64]) -> Vec<f64> {
    let mut out = x.to_vec();
    let n = x.len();
    let mut k = 0;
    while k < n {
        if out[k].is_nan() {
            let start = k;
            let mut end = k;
            while end < n && out[end].is_nan() {
                end += 1;
            }
            let left = if start > 0 {
                Some(out[start - 1])
            } else {
                None
            };
            let right = if end < n { Some(out[end]) } else { None };
            for (i, slot) in out.iter_mut().enumerate().take(end).skip(start) {
                *slot = match (left, right) {
                    (Some(l), Some(r)) => {
                        let t = (i - start + 1) as f64 / (end - start + 1) as f64;
                        l + (r - l) * t
                    }
                    (Some(l), None) => l,
                    (None, Some(r)) => r,
                    (None, None) => unreachable!("all-NaN handled by caller"),
                };
            }
            k = end;
        } else {
            k += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demands() -> Vec<Vec<f64>> {
        // 6 intervals, 4 LSPs with distinct stable patterns.
        (0..6)
            .map(|k| vec![100.0 + k as f64, 50.0, 900.0 - 10.0 * k as f64, 0.5])
            .collect()
    }

    #[test]
    fn lossless_jitterless_collection_is_exact() {
        let d = demands();
        let cfg = CollectionConfig {
            jitter_max_s: 0.0,
            ..Default::default()
        };
        let res = run_collection(&d, &[0, 0, 1, 2], 3, &cfg, 7).unwrap();
        assert_eq!(res.lost_polls, 0);
        assert_eq!(res.interpolated, 0);
        assert_eq!(res.rates.len(), 6);
        for k in 0..6 {
            for p in 0..4 {
                // Counter quantization (whole bytes) keeps this sub-ppm.
                assert!(
                    (res.rates[k][p] - d[k][p]).abs() < 1e-3,
                    "k={k} p={p}: {} vs {}",
                    res.rates[k][p],
                    d[k][p]
                );
            }
        }
    }

    #[test]
    fn jitter_causes_only_bounded_smearing() {
        // With jittered polls a reading mixes a few seconds of the next
        // interval's rate — bounded by jitter/interval × rate change.
        let d = demands();
        let cfg = CollectionConfig {
            jitter_max_s: 5.0,
            ..Default::default()
        };
        let res = run_collection(&d, &[0, 0, 1, 2], 3, &cfg, 7).unwrap();
        for k in 0..6 {
            for p in 0..4 {
                let tol = 0.02 * d[k][p].max(1.0) + 0.5;
                assert!(
                    (res.rates[k][p] - d[k][p]).abs() < tol,
                    "k={k} p={p}: {} vs {}",
                    res.rates[k][p],
                    d[k][p]
                );
            }
        }
    }

    #[test]
    fn deterministic_across_runs_and_thread_counts() {
        let d = demands();
        let cfg1 = CollectionConfig {
            loss_probability: 0.2,
            ..Default::default()
        };
        let a = run_collection(&d, &[0, 0, 1, 2], 3, &cfg1, 11).unwrap();
        let b = run_collection(&d, &[0, 0, 1, 2], 3, &cfg1, 11).unwrap();
        assert_eq!(a.rates, b.rates);
        assert_eq!(a.lost_polls, b.lost_polls);
        // Different poller count changes partitioning but the lossless,
        // jitter-free content of counters is identical.
        let cfg2 = CollectionConfig {
            pollers: 1,
            jitter_max_s: 0.0,
            ..Default::default()
        };
        let c = run_collection(&d, &[0, 0, 1, 2], 3, &cfg2, 11).unwrap();
        for k in 0..6 {
            for p in 0..4 {
                assert!((c.rates[k][p] - d[k][p]).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn loss_with_backup_poller_recovers_most() {
        let d = demands();
        let cfg = CollectionConfig {
            loss_probability: 0.3,
            backup_poller: true,
            ..Default::default()
        };
        let res = run_collection(&d, &[0, 1, 2, 2], 3, &cfg, 5).unwrap();
        // With a 30% drop and one retry, per-poll loss is ~9%; the
        // interpolation must produce finite values everywhere.
        assert!(res
            .rates
            .iter()
            .all(|row| row.iter().all(|v| v.is_finite())));
        // Large demands stay within a loose band even when interpolated.
        for k in 0..6 {
            assert!((res.rates[k][2] - d[k][2]).abs() < 0.15 * d[k][2]);
        }
    }

    #[test]
    fn heavy_loss_without_backup_counts_losses() {
        let d = demands();
        let cfg = CollectionConfig {
            loss_probability: 0.35,
            backup_poller: false,
            ..Default::default()
        };
        let res = run_collection(&d, &[0, 1, 2, 0], 3, &cfg, 3).unwrap();
        assert!(res.lost_polls > 0);
        assert!(res.interpolated > 0);
    }

    #[test]
    fn config_validation() {
        let d = demands();
        let host = [0usize, 0, 1, 2];
        assert!(run_collection(&[], &host, 3, &CollectionConfig::default(), 1).is_err());
        assert!(run_collection(&d, &[0, 0], 3, &CollectionConfig::default(), 1).is_err());
        assert!(run_collection(&d, &[0, 0, 1, 9], 3, &CollectionConfig::default(), 1).is_err());
        let bad = CollectionConfig {
            pollers: 0,
            ..Default::default()
        };
        assert!(run_collection(&d, &host, 3, &bad, 1).is_err());
        let bad = CollectionConfig {
            loss_probability: 1.0,
            ..Default::default()
        };
        assert!(run_collection(&d, &host, 3, &bad, 1).is_err());
    }

    #[test]
    fn split_columns_partitions_the_feed() {
        let d = demands();
        let cfg = CollectionConfig {
            loss_probability: 0.2,
            fault_plan: Some(crate::fault::FaultPlan {
                seed: 9,
                faults: vec![crate::fault::FaultSpec::CounterWrap { lsp: 2, at: 3 }],
            }),
            counter_mode: CounterMode::Counter32,
            ..Default::default()
        };
        let full = run_collection(&d, &[0, 0, 1, 2], 3, &cfg, 5).unwrap();
        let shards = full.split_columns(&[0..2, 2..4]).unwrap();
        assert_eq!(shards.len(), 2);
        for (s, r) in shards.iter().zip([0..2usize, 2..4]) {
            assert_eq!(s.rates.len(), full.rates.len());
            for k in 0..full.rates.len() {
                assert_eq!(s.rates[k].as_slice(), &full.rates[k][r.clone()]);
                assert_eq!(s.quality[k].as_slice(), &full.quality[k][r.clone()]);
            }
            // Global diagnostic, carried unchanged.
            assert_eq!(s.lost_polls, full.lost_polls);
        }
        // Cell counts across a partition sum to the full grid's counts.
        let cells = |q: CellQuality, res: &CollectionResult| {
            res.quality.iter().flatten().filter(|&&c| c == q).count()
        };
        for q in [
            CellQuality::Interpolated,
            CellQuality::WrapCorrected,
            CellQuality::Suspect,
        ] {
            assert_eq!(
                shards.iter().map(|s| cells(q, s)).sum::<usize>(),
                cells(q, &full),
                "{q:?} cells must partition"
            );
        }
        assert_eq!(
            shards[0].wrap_corrected + shards[1].wrap_corrected,
            cells(CellQuality::WrapCorrected, &full)
        );
    }

    #[test]
    fn split_columns_validates_ranges() {
        let d = demands();
        let full = run_collection(&d, &[0, 0, 1, 2], 3, &CollectionConfig::default(), 7).unwrap();
        assert!(
            full.split_columns(&[0..2, 0..5]).is_err(),
            "end out of bounds"
        );
        #[allow(clippy::reversed_empty_ranges)]
        let reversed = 3..1;
        assert!(full.split_columns(&[reversed]).is_err());
        // Overlap and gaps are the caller's business.
        let ok = full.split_columns(&[0..3, 1..4, 2..2]).unwrap();
        assert_eq!(ok.len(), 3);
        assert!(ok[2].rates.iter().all(Vec::is_empty));
    }

    #[test]
    fn interpolation_edge_cases() {
        let filled = interpolate_gaps(&[f64::NAN, 2.0, f64::NAN, f64::NAN, 8.0, f64::NAN]);
        assert_eq!(filled[0], 2.0); // leading edge takes the right value
        assert!((filled[2] - 4.0).abs() < 1e-12);
        assert!((filled[3] - 6.0).abs() < 1e-12);
        assert_eq!(filled[5], 8.0); // trailing edge takes the left value
        let intact = interpolate_gaps(&[1.0, 2.0]);
        assert_eq!(intact, vec![1.0, 2.0]);
    }

    #[test]
    fn fault_free_plan_matches_clean_run() {
        let d = demands();
        let clean = run_collection(&d, &[0, 0, 1, 2], 3, &CollectionConfig::default(), 7).unwrap();
        let cfg = CollectionConfig {
            fault_plan: Some(crate::fault::FaultPlan::none()),
            ..Default::default()
        };
        let faulty = run_collection(&d, &[0, 0, 1, 2], 3, &cfg, 7).unwrap();
        assert_eq!(clean.rates, faulty.rates, "empty plan is the identity");
        assert_eq!(faulty.suspect, 0);
        assert_eq!(faulty.wrap_corrected, 0);
        assert!(faulty
            .quality
            .iter()
            .flatten()
            .all(|&q| q == CellQuality::Clean));
    }

    #[test]
    fn injected_wrap_is_corrected_and_tagged() {
        let d = demands();
        let cfg = CollectionConfig {
            jitter_max_s: 0.0,
            fault_plan: Some(crate::fault::FaultPlan {
                seed: 1,
                faults: vec![crate::fault::FaultSpec::CounterWrap { lsp: 2, at: 3 }],
            }),
            ..Default::default()
        };
        let res = run_collection(&d, &[0, 0, 1, 2], 3, &cfg, 7).unwrap();
        assert_eq!(res.wrap_corrected, 1);
        assert_eq!(res.suspect, 0);
        assert_eq!(res.quality[2][2], CellQuality::WrapCorrected);
        // The corrected rate is still exact.
        for k in 0..6 {
            assert!(
                (res.rates[k][2] - d[k][2]).abs() < 1e-3,
                "k={k}: {} vs {}",
                res.rates[k][2],
                d[k][2]
            );
        }
    }

    #[test]
    fn injected_reset_is_suspect_and_interpolated() {
        let d = demands();
        let cfg = CollectionConfig {
            jitter_max_s: 0.0,
            fault_plan: Some(crate::fault::FaultPlan {
                seed: 1,
                faults: vec![crate::fault::FaultSpec::CounterReset { lsp: 2, at: 3 }],
            }),
            ..Default::default()
        };
        let res = run_collection(&d, &[0, 0, 1, 2], 3, &cfg, 7).unwrap();
        assert_eq!(res.suspect, 1, "the reset interval is discarded");
        assert_eq!(res.quality[2][2], CellQuality::Suspect);
        // The value is interpolated from neighbours, hence finite.
        assert!(res.rates[2][2].is_finite());
        // Intervals fully after the reset recover exactly.
        for k in 3..6 {
            assert!(
                (res.rates[k][2] - d[k][2]).abs() < 1e-3,
                "k={k}: {} vs {}",
                res.rates[k][2],
                d[k][2]
            );
        }
    }

    #[test]
    fn outage_and_missing_polls_interpolate() {
        let d = demands();
        let cfg = CollectionConfig {
            jitter_max_s: 0.0,
            fault_plan: Some(crate::fault::FaultPlan {
                seed: 9,
                faults: vec![
                    crate::fault::FaultSpec::Outage {
                        lsp: 1,
                        from: 2,
                        ticks: 2,
                    },
                    crate::fault::FaultSpec::MissingPolls { probability: 0.1 },
                ],
            }),
            ..Default::default()
        };
        let res = run_collection(&d, &[0, 0, 1, 2], 3, &cfg, 7).unwrap();
        assert!(res.interpolated > 0);
        assert!(res
            .rates
            .iter()
            .all(|row| row.iter().all(|v| v.is_finite())));
        // The outage window spans boundaries 2..4: intervals 1..4 lose
        // their bracketing pair and must be non-clean.
        for k in 1..4 {
            assert_ne!(res.quality[k][1], CellQuality::Clean, "k={k}");
        }
    }

    #[test]
    fn stale_readings_zero_then_spike() {
        let d = demands();
        let cfg = CollectionConfig {
            jitter_max_s: 0.0,
            fault_plan: Some(crate::fault::FaultPlan {
                seed: 9,
                faults: vec![crate::fault::FaultSpec::StaleReadings {
                    lsp: 2,
                    from: 1,
                    ticks: 2,
                }],
            }),
            ..Default::default()
        };
        let res = run_collection(&d, &[0, 0, 1, 2], 3, &cfg, 7).unwrap();
        // Frozen counters inside the window: rates collapse to zero.
        assert!(res.rates[1][2].abs() < 1e-9, "{}", res.rates[1][2]);
        assert!(res.rates[2][2].abs() < 1e-9, "{}", res.rates[2][2]);
        // Release interval reports the whole backlog in one interval.
        assert!(res.rates[3][2] > d[3][2], "{}", res.rates[3][2]);
    }

    #[test]
    fn retry_policy_beats_single_shot_under_heavy_loss() {
        let d = demands();
        let single = CollectionConfig {
            loss_probability: 0.4,
            backup_poller: false,
            ..Default::default()
        };
        let with_retry = CollectionConfig {
            loss_probability: 0.4,
            backup_poller: false,
            retry: Some(RetryPolicy {
                max_attempts: 5,
                base_backoff_s: 1.0,
                deadline_s: 60.0,
            }),
            ..Default::default()
        };
        let a = run_collection(&d, &[0, 1, 2, 0], 3, &single, 3).unwrap();
        let b = run_collection(&d, &[0, 1, 2, 0], 3, &with_retry, 3).unwrap();
        assert!(
            b.lost_polls < a.lost_polls,
            "retry {} vs single {}",
            b.lost_polls,
            a.lost_polls
        );
        // Backoff delays shift timestamps; rate adjustment keeps values
        // close to truth wherever both polls arrived.
        for k in 0..6 {
            for p in 0..4 {
                if b.quality[k][p] == CellQuality::Clean {
                    let tol = 0.05 * d[k][p].max(1.0) + 0.5;
                    assert!((b.rates[k][p] - d[k][p]).abs() < tol, "k={k} p={p}");
                }
            }
        }
    }

    #[test]
    fn retry_deadline_caps_attempts() {
        // deadline below the first backoff: only the primary attempt.
        let d = demands();
        let cfg = CollectionConfig {
            loss_probability: 0.4,
            backup_poller: true, // ignored when retry is set
            retry: Some(RetryPolicy {
                max_attempts: 5,
                base_backoff_s: 10.0,
                deadline_s: 5.0,
            }),
            ..Default::default()
        };
        let single = CollectionConfig {
            loss_probability: 0.4,
            backup_poller: false,
            ..Default::default()
        };
        let a = run_collection(&d, &[0, 1, 2, 0], 3, &cfg, 3).unwrap();
        let b = run_collection(&d, &[0, 1, 2, 0], 3, &single, 3).unwrap();
        assert_eq!(
            a.lost_polls, b.lost_polls,
            "a 5 s deadline under a 10 s backoff means one attempt"
        );
    }

    #[test]
    fn counter32_mode_underestimates_hot_lsps() {
        // End-to-end demonstration of the 32-bit wrap hazard.
        let d = vec![vec![1200.0; 1]; 3];
        let cfg32 = CollectionConfig {
            counter_mode: CounterMode::Counter32,
            jitter_max_s: 0.0,
            ..Default::default()
        };
        let res = run_collection(&d, &[0], 1, &cfg32, 1).unwrap();
        assert!(
            res.rates[0][0] < 300.0,
            "32-bit counters at 1200 Mbps must underestimate: {}",
            res.rates[0][0]
        );
    }
}
